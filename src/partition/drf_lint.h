// Translator-side DRF lint (docs/race_detection.md, "Static lint rules").
//
// The dynamic happens-before checker (sim/drf/) finds the races a program
// actually executes; this pass finds the contract violations visible BEFORE
// any simulation, from the stage-2 sharing tables and the derived
// ExecutionPlan alone:
//
//   (a) a thread-WRITTEN variable placed in a swcache-cached region of a
//       program whose phase structure has no release/acquire edge (no
//       pthread barrier and no pthread mutex anywhere) — nothing would ever
//       flush the writer's dirty lines, so other UEs read stale data by
//       construction;
//   (b) a placement class that contradicts the variable's sharing class:
//       a cached region no thread function ever reads (cached placement
//       exists FOR read-mostly thread data), an MPB traffic pattern on a
//       variable no thread function touches, or a plan region with no
//       sharing-table entry at all (the plan names a variable the analysis
//       never saw — the workload twin would realize an unanalyzed region);
//   (c) a cached region whose byte size is not a whole number of cache
//       lines — the swcache moves whole lines, so a partial tail line
//       falls under the line-granular contract together with whatever
//       neighbor the allocator packs next to it (cross-region false
//       sharing the dynamic checker would flag as a line race);
//   (d) an off-chip class (RegionPlan::offchip) that is itself on-chip — a
//       run without on-chip placement could not realize it.
//
// "Cached" means cached in some run (RegionPlan::cachedInSomeRun): rules
// (a)–(c) judge an on-chip region's off-chip class as well as its
// placement.
//
// Pure function of its inputs, no AST mutation; surfaced in
// translate_and_run and partition_explorer behind the drf_lint_ok gate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/variable_info.h"
#include "partition/execution_plan.h"

namespace hsm::partition {

/// One lint violation, tied to the plan region that triggered it.
struct LintFinding {
  enum class Rule : std::uint8_t {
    kCachedThreadWrittenNoSync,    ///< rule (a)
    kPlacementContradictsSharing,  ///< rule (b)
    kCachedNotLineAligned,         ///< rule (c)
    kOffChipClassOnChip,           ///< rule (d)
  };
  Rule rule = Rule::kPlacementContradictsSharing;
  std::string region;   ///< plan region (variable) name
  std::string message;  ///< human-readable explanation

  [[nodiscard]] std::string format() const;
};

[[nodiscard]] const char* lintRuleName(LintFinding::Rule rule);

struct LintResult {
  std::vector<LintFinding> findings;
  [[nodiscard]] bool ok() const { return findings.empty(); }
  /// One format() line per finding ("" when clean) — deterministic
  /// (plan-region order), so tools can print and CI can diff it.
  [[nodiscard]] std::string format() const;
};

/// Full lint over the stage-2 sharing tables + the derived plan: rules (a),
/// (b), (c) and (d). `line_bytes` is the machine's cache-line size (the cached
/// contract granule).
[[nodiscard]] LintResult lintSharingTables(const analysis::AnalysisResult& analysis,
                                           const ExecutionPlan& plan,
                                           std::size_t line_bytes = 32);

/// Plan-only lint for programmatically built plans with no translator
/// analysis behind them (the KV workload): rules (c) and (d) plus the
/// sharing-free subset of (b) — an on-chip region carrying no MPB pattern
/// while other regions do is fine, but a pattern on a zero-byte region is
/// not.
[[nodiscard]] LintResult lintExecutionPlan(const ExecutionPlan& plan,
                                           std::size_t line_bytes = 32);

}  // namespace hsm::partition
