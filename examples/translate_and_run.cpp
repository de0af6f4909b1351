// End-to-end workflow over the whole suite: take the Pthreads C source of
// each paper benchmark, run it through the source-to-source translator, and
// execute the simulator twin in plan-driven mode — the translator's
// ExecutionPlan (per-variable placement classes, exact per-UE MPB owner
// sets, per-region cacheability; docs/execution_plan.md) drives the
// workload's realization end to end. The plan is the simulator's only
// channel for those decisions: its cached regions are the only cached
// shared memory, and its owner sets the only MPB scopes.
//
// CI smoke-runs this binary: any verification failure, any MPB access
// outside the plan's declared owner sets, or any DRF lint violation
// (partition/drf_lint.h — the drf_lint_ok gate) exits non-zero, gating the
// whole translator→simulator pipeline including the plan-derived port
// isolation and per-region swcache routing.
#include <cstdio>

#include "partition/drf_lint.h"
#include "translator/translator.h"
#include "workloads/benchmark.h"
#include "workloads/kv_store.h"

int main() {
  using namespace hsm;

  const sim::SccConfig config;
  constexpr int kUnits = 16;
  bool all_ok = true;
  bool drf_lint_ok = true;

  for (const auto& bench : workloads::standardSuite(0.4)) {
    // 1. Translate the Pthreads source.
    const std::string& source = workloads::pthreadSource(bench->name());
    translator::Translator translator;
    const translator::TranslationResult result =
        translator.translate(source, bench->name() + ".c");
    if (!result.ok) {
      std::printf("%s: translation failed:\n%s\n", bench->name().c_str(),
                  result.diagnostics.c_str());
      return 1;
    }

    std::printf("=== %s: stage-4 memory plan ===\n%s\n", bench->name().c_str(),
                result.plan.format().c_str());
    std::printf("=== %s: ExecutionPlan (translator→runtime contract) ===\n%s\n",
                bench->name().c_str(),
                result.execution_plan.toJson(kUnits).c_str());

    // 1b. Static DRF lint over the sharing tables + the derived plan: catch
    // contract violations (unsynchronized cached writers, placement vs
    // sharing contradictions, unaligned cached regions) before simulating.
    const partition::LintResult lint = partition::lintSharingTables(
        result.analysis, result.execution_plan, config.cache_line_bytes);
    if (!lint.ok()) {
      std::printf("=== %s: DRF LINT VIOLATIONS ===\n%s", bench->name().c_str(),
                  lint.format().c_str());
      drf_lint_ok = false;
    }

    // 2. Execute the simulator twin with the translated plan driving
    // placement, scope, and cacheability. A failed verification or a scope
    // violation fails the process.
    for (const workloads::Mode mode :
         {workloads::Mode::RcceOffChip, workloads::Mode::RcceMpb}) {
      const workloads::RunResult r =
          bench->run(mode, kUnits, config, &result.execution_plan);
      const bool scope_ok = r.mpb_scope_violations == 0;
      // Unrealized regions mean translator/workload region-name drift: the
      // plan asked for behavior nobody realized — fail loudly, not silently.
      const bool plan_ok = r.plan_regions_unrealized == 0;
      all_ok = all_ok && r.verified && scope_ok && plan_ok;
      std::printf("  %-16s %10.3f ms   verified=%s (%s)%s%s\n",
                  workloads::modeName(mode), sim::ticksToMilliseconds(r.makespan),
                  r.verified ? "yes" : "NO", r.detail.c_str(),
                  scope_ok ? "" : "  MPB SCOPE VIOLATED",
                  plan_ok ? "" : "  PLAN REGION UNREALIZED");
      if (!scope_ok) {
        std::printf("    %llu accesses outside the plan's owner sets\n",
                    static_cast<unsigned long long>(r.mpb_scope_violations));
      }
      if (!plan_ok) {
        std::printf("    %llu plan region(s) not recognized by the workload twin\n",
                    static_cast<unsigned long long>(r.plan_regions_unrealized));
      }
    }
    std::printf("\n");
  }

  // 3. One single-core pthread baseline (Stream, the old example's anchor)
  // so the translated speedups above stay interpretable.
  const auto stream = workloads::makeStream(0.4);
  const workloads::RunResult base =
      stream->run(workloads::Mode::PthreadSingleCore, kUnits, config);
  all_ok = all_ok && base.verified;
  std::printf("=== Stream pthread-1core baseline: %.3f ms, verified=%s ===\n",
              sim::ticksToMilliseconds(base.makespan), base.verified ? "yes" : "NO");

  // 4. The seventh benchmark (KV store) has no pthread source — its plan is
  // built programmatically — so it gets the plan-only lint: the same shape
  // setupKvRcce realizes (bench/scenarios.h's kvZipfPlan).
  {
    using partition::ControllerPlacement;
    using partition::ExecutionPlan;
    using partition::MpbPattern;
    using partition::PlacementClass;
    using partition::RegionPlan;
    const workloads::KvParams kvp{};
    std::size_t index_cap = 1;
    while (index_cap < 2 * kvp.num_keys) index_cap *= 2;
    const ExecutionPlan kv_plan{
        {RegionPlan{"kv_index", PlacementClass::kOffChipUncached, MpbPattern::kNone,
                    index_cap * 8, ControllerPlacement::kOwnerCompute},
         RegionPlan{"kv_slots", PlacementClass::kOffChipUncached, MpbPattern::kNone,
                    static_cast<std::size_t>(kvp.num_keys) * 4 * 8,
                    ControllerPlacement::kOwnerCompute},
         RegionPlan{"kv_checks", PlacementClass::kOffChipUncached, MpbPattern::kNone,
                    8 * 8}}};
    const partition::LintResult kv_lint =
        partition::lintExecutionPlan(kv_plan, config.cache_line_bytes);
    if (!kv_lint.ok()) {
      std::printf("=== KvStore: DRF LINT VIOLATIONS ===\n%s", kv_lint.format().c_str());
      drf_lint_ok = false;
    }
  }

  std::printf("=== drf_lint_ok=%s ===\n", drf_lint_ok ? "true" : "false");
  return all_ok && drf_lint_ok ? 0 : 1;
}
