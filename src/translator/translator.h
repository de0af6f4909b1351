// The top-level source-to-source translator: Pthreads C in, RCCE C out.
//
// Pipeline (paper Figure 1.1):
//   lex → parse → resolve →
//   Stage 1 (scope analysis) → Stage 2 (inter-thread) → Stage 3 (points-to) →
//   Stage 4 (partitioning)   → Stage 5 (transformation passes) → emit C.
#pragma once

#include <memory>
#include <string>

#include "analysis/variable_info.h"
#include "ast/context.h"
#include "partition/memory_plan.h"
#include "support/diagnostics.h"

namespace hsm::translator {

struct TranslatorOptions {
  /// Stage 4 memory capacities (defaults model the SCC).
  partition::HsmMemorySpec memory;
  /// Use the access-frequency-aware partitioner instead of the paper's
  /// size-ascending Algorithm 3 (ablation knob).
  bool frequency_aware_partitioning = false;
  /// Skip Stage 4/5 on-chip placement entirely: everything shared goes to
  /// off-chip shared memory (the paper's Fig. 6.1 configuration), and the
  /// execution plan is the one such a run realizes (ExecutionPlan::realized).
  bool offchip_only = false;
};

struct TranslationResult {
  bool ok = false;
  std::string output_source;       ///< translated RCCE C source
  std::string diagnostics;         ///< rendered diagnostics (if any)
  /// The AST the analysis/plan pointers refer into; kept alive so that the
  /// result is self-contained.
  std::shared_ptr<ast::ASTContext> context;
  analysis::AnalysisResult analysis;  ///< Tables 4.1 / 4.2 data
  partition::MemoryPlan plan;         ///< Stage 4 decisions
  /// The translator→runtime contract derived from the stage-2 sharing
  /// tables + the stage-4 plan: per-variable placement classes, exact
  /// per-UE MPB put/get owner sets, per-region cacheability. Consumed by
  /// `SccMachine::launch`, `rcce::ShmArray`, and `workloads::Benchmark::run`
  /// (docs/execution_plan.md).
  partition::ExecutionPlan execution_plan;

  /// Convenience: paper-style table renderings.
  [[nodiscard]] std::string variableTable() const { return analysis.formatVariableTable(); }
  [[nodiscard]] std::string sharingTable() const { return analysis.formatSharingTable(); }
};

class Translator {
 public:
  explicit Translator(TranslatorOptions options = {}) : options_(options) {}

  /// Translate a Pthreads program (as source text) to an RCCE program.
  [[nodiscard]] TranslationResult translate(const std::string& source,
                                            const std::string& name = "input.c") const;

  /// Run only the analysis stages (1–3), without transforming.
  [[nodiscard]] TranslationResult analyzeOnly(const std::string& source,
                                              const std::string& name = "input.c") const;

 private:
  TranslatorOptions options_;
};

}  // namespace hsm::translator
