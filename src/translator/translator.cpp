#include "translator/translator.h"

#include "analysis/analyzer.h"
#include "codegen/c_emitter.h"
#include "parse/parser.h"
#include "sema/resolver.h"
#include "transform/cleanup.h"
#include "transform/pass.h"
#include "transform/pthread_removal.h"
#include "transform/rcce_insertion.h"
#include "transform/shared_memory.h"
#include "transform/threads_to_processes.h"

namespace hsm::translator {
namespace {

bool runFrontend(const SourceBuffer& buffer, ast::ASTContext& context,
                 DiagnosticEngine& diags) {
  if (!parse::parseSource(buffer, context, diags)) return false;
  sema::Resolver resolver(diags);
  return resolver.resolve(context);
}

partition::MemoryPlan makePlan(const analysis::AnalysisResult& analysis,
                               const TranslatorOptions& options) {
  const std::vector<const analysis::VariableInfo*> shared = analysis.sharedVariables();
  if (options.offchip_only) {
    // Force off-chip placement by planning with zero on-chip capacity.
    partition::HsmMemorySpec spec = options.memory;
    spec.onchip_capacity_bytes = 0;
    return partition::SizeAscendingPlanner{}.plan(shared, spec);
  }
  if (options.frequency_aware_partitioning) {
    return partition::FrequencyAwarePlanner{}.plan(shared, options.memory);
  }
  return partition::SizeAscendingPlanner{}.plan(shared, options.memory);
}

}  // namespace

TranslationResult Translator::analyzeOnly(const std::string& source,
                                          const std::string& name) const {
  TranslationResult result;
  SourceBuffer buffer(name, source);
  DiagnosticEngine diags;
  result.context = std::make_shared<ast::ASTContext>();
  ast::ASTContext& context = *result.context;
  if (!runFrontend(buffer, context, diags)) {
    result.diagnostics = diags.format(buffer);
    return result;
  }
  analysis::Analyzer analyzer;
  result.analysis = analyzer.analyze(context);
  result.plan = makePlan(result.analysis, options_);
  result.execution_plan = partition::deriveExecutionPlan(result.analysis, result.plan);
  result.diagnostics = diags.format(buffer);
  result.ok = true;
  return result;
}

TranslationResult Translator::translate(const std::string& source,
                                        const std::string& name) const {
  TranslationResult result;
  SourceBuffer buffer(name, source);
  DiagnosticEngine diags;
  result.context = std::make_shared<ast::ASTContext>();
  ast::ASTContext& context = *result.context;
  if (!runFrontend(buffer, context, diags)) {
    result.diagnostics = diags.format(buffer);
    return result;
  }

  analysis::Analyzer analyzer;
  result.analysis = analyzer.analyze(context);
  result.plan = makePlan(result.analysis, options_);
  // Derive the runtime contract BEFORE stage 5: the passes rename main and
  // strip pthread bookkeeping, and the derivation reads both.
  result.execution_plan = partition::deriveExecutionPlan(result.analysis, result.plan);

  transform::PassContext pass_ctx{.ast = context,
                                  .analysis = result.analysis,
                                  .plan = result.plan,
                                  .diags = diags,
                                  .core_bound_tasks = {}};
  transform::Driver driver;
  // Stage 5 pass pipeline; order matters (see each pass's header).
  driver.add(std::make_unique<transform::RenameMainPass>());
  driver.add(std::make_unique<transform::AddRcceInitPass>());
  driver.add(std::make_unique<transform::SharedToShmallocPass>());
  driver.add(std::make_unique<transform::InsertCoreIdPass>());
  driver.add(std::make_unique<transform::ThreadsToProcessesPass>());
  driver.add(std::make_unique<transform::JoinToBarrierPass>());
  driver.add(std::make_unique<transform::ReplacePthreadSelfPass>());
  driver.add(std::make_unique<transform::MutexToLockPass>());
  driver.add(std::make_unique<transform::RemovePthreadApiPass>());
  driver.add(std::make_unique<transform::RemovePthreadTypesPass>());
  driver.add(std::make_unique<transform::AddRcceFinalizePass>());
  driver.add(std::make_unique<transform::ReplaceIncludesPass>());
  driver.add(std::make_unique<transform::RemoveUnusedLocalsPass>());
  driver.add(std::make_unique<transform::RemoveDemotedGlobalsPass>());
  if (!driver.runAll(pass_ctx)) {
    result.diagnostics = diags.format(buffer);
    return result;
  }

  codegen::CSourceEmitter emitter;
  result.output_source = emitter.emit(context.unit());
  result.diagnostics = diags.format(buffer);
  result.ok = !diags.hasErrors();
  return result;
}

}  // namespace hsm::translator
