// The translator→runtime ExecutionPlan contract (docs/execution_plan.md):
//   * owner-set materialization per MPB pattern;
//   * the translator derives the expected plan for every paper benchmark;
//   * per-variable cacheability matches the stage-2 sharing classification
//     (read-mostly → cached off chip, thread-written → never cached);
//   * resolvePlacement realizes the off-chip class only in RcceOffChip;
//   * plan-driven workload runs verify with ZERO scope violations (the
//     derived owner sets cover all observed MPB traffic);
//   * each workload's hand plan lints clean against its translated source
//     and runs inside its own MPB scope;
//   * the machine-level per-region cacheability map and the declared-scope
//     violation accounting.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "partition/drf_lint.h"
#include "rcce/rcce.h"
#include "sim/machine.h"
#include "translator/translator.h"
#include "workloads/benchmark.h"
#include "workloads/kv_store.h"

namespace hsm {
namespace {

using partition::ExecutionPlan;
using partition::MpbPattern;
using partition::PlacementClass;
using partition::RegionPlan;

translator::TranslationResult translateBenchmark(const std::string& name) {
  translator::Translator t;
  return t.translate(workloads::pthreadSource(name), name + ".c");
}

std::unique_ptr<workloads::Benchmark> makeBenchmark(const std::string& name,
                                                    double scale) {
  if (name == "PiApprox") return workloads::makePiApprox(scale);
  if (name == "3-5-Sum") return workloads::makeSum35(scale);
  if (name == "CountPrimes") return workloads::makeCountPrimes(scale);
  if (name == "Stream") return workloads::makeStream(scale);
  if (name == "DotProduct") return workloads::makeDotProduct(scale);
  if (name == "LU") return workloads::makeLuDecomposition(scale);
  return nullptr;
}

// --- owner-set materialization ----------------------------------------------

TEST(ExecutionPlan, OwnerSetsPerPattern) {
  const ExecutionPlan self{{RegionPlan{"s", PlacementClass::kOnChipStaged,
                                       MpbPattern::kSelfStage, 64}}};
  EXPECT_EQ(self.mpbOwners(3, 8).put, (std::vector<int>{3}));
  EXPECT_EQ(self.mpbOwners(3, 8).get, (std::vector<int>{3}));

  const ExecutionPlan root{{RegionPlan{"r", PlacementClass::kOnChipResident,
                                       MpbPattern::kRootFunnel, 8}}};
  EXPECT_EQ(root.mpbOwners(5, 8).put, (std::vector<int>{0}));
  EXPECT_EQ(root.mpbOwners(5, 8).get, (std::vector<int>{0}));

  const ExecutionPlan bcast{{RegionPlan{"b", PlacementClass::kOnChipStaged,
                                        MpbPattern::kRotatingBroadcast, 512}}};
  EXPECT_EQ(bcast.mpbOwners(2, 4).put, (std::vector<int>{2}));
  EXPECT_EQ(bcast.mpbOwners(2, 4).get, (std::vector<int>{0, 1, 2, 3}));

  const ExecutionPlan ring{{RegionPlan{"g", PlacementClass::kOnChipResident,
                                       MpbPattern::kNeighborRing, 128}}};
  EXPECT_EQ(ring.mpbOwners(7, 8).put, (std::vector<int>{0}));  // wraps
  EXPECT_EQ(ring.mpbOwners(7, 8).get, (std::vector<int>{7}));
  EXPECT_EQ(ring.mpbScopeOwners(7, 8), (std::vector<int>{0, 7}));
}

TEST(ExecutionPlan, OffChipRegionsGenerateNoOwners) {
  const ExecutionPlan plan{
      {RegionPlan{"c", PlacementClass::kOffChipCached, MpbPattern::kNone, 4096},
       RegionPlan{"u", PlacementClass::kOffChipUncached, MpbPattern::kNone, 64}}};
  EXPECT_TRUE(plan.mpbScopeOwners(0, 8).empty());
  EXPECT_FALSE(plan.anyMpbTraffic());
}

TEST(ExecutionPlan, UnionAcrossRegionsIsSortedUnique) {
  const ExecutionPlan plan{
      {RegionPlan{"a", PlacementClass::kOnChipResident, MpbPattern::kRootFunnel, 8},
       RegionPlan{"b", PlacementClass::kOnChipStaged, MpbPattern::kSelfStage, 64}}};
  EXPECT_EQ(plan.mpbScopeOwners(0, 8), (std::vector<int>{0}));
  EXPECT_EQ(plan.mpbScopeOwners(4, 8), (std::vector<int>{0, 4}));
}

// --- translator derivation for the paper suite -------------------------------

struct ExpectedRegion {
  const char* benchmark;
  const char* region;
  PlacementClass placement;
  MpbPattern pattern;
  PlacementClass offchip = PlacementClass::kOffChipUncached;
};

// The classifications §4.4's plan plus the stage-2 tables pin down: the
// reduction objects funnel through UE 0, the streamed thread-written arrays
// self-stage, LU's barrier-phased matrix broadcasts its pivot rows, and
// DotProduct's thread-read-only inputs self-stage too, falling back to the
// swcache (the read-mostly case) in a run without on-chip placement.
const ExpectedRegion kExpected[] = {
    {"PiApprox", "gsum", PlacementClass::kOnChipResident, MpbPattern::kRootFunnel},
    {"3-5-Sum", "partial", PlacementClass::kOnChipResident, MpbPattern::kRootFunnel},
    {"CountPrimes", "total", PlacementClass::kOnChipResident, MpbPattern::kRootFunnel},
    {"Stream", "a", PlacementClass::kOnChipStaged, MpbPattern::kSelfStage},
    {"Stream", "b", PlacementClass::kOnChipStaged, MpbPattern::kSelfStage},
    {"Stream", "c", PlacementClass::kOnChipStaged, MpbPattern::kSelfStage},
    {"DotProduct", "a", PlacementClass::kOnChipStaged, MpbPattern::kSelfStage,
     PlacementClass::kOffChipCached},
    {"DotProduct", "b", PlacementClass::kOnChipStaged, MpbPattern::kSelfStage,
     PlacementClass::kOffChipCached},
    {"DotProduct", "partial", PlacementClass::kOnChipResident,
     MpbPattern::kRootFunnel},
    {"LU", "m", PlacementClass::kOnChipStaged, MpbPattern::kRotatingBroadcast},
};

TEST(ExecutionPlanDerivation, PaperBenchmarksGetExpectedClasses) {
  std::set<std::string> benchmarks;
  for (const ExpectedRegion& e : kExpected) benchmarks.insert(e.benchmark);
  for (const std::string& name : benchmarks) {
    const translator::TranslationResult r = translateBenchmark(name);
    ASSERT_TRUE(r.ok) << name << ": " << r.diagnostics;
    for (const ExpectedRegion& e : kExpected) {
      if (name != e.benchmark) continue;
      const RegionPlan* region = r.execution_plan.find(e.region);
      ASSERT_NE(region, nullptr) << name << "." << e.region;
      EXPECT_EQ(region->placement, e.placement) << name << "." << e.region;
      EXPECT_EQ(region->pattern, e.pattern) << name << "." << e.region;
      EXPECT_EQ(region->offchip, e.offchip) << name << "." << e.region;
    }
  }
}

TEST(ExecutionPlanDerivation, PthreadSyncObjectsAreNotRegions) {
  for (const char* name : {"PiApprox", "LU"}) {
    const translator::TranslationResult r = translateBenchmark(name);
    ASSERT_TRUE(r.ok) << r.diagnostics;
    for (const RegionPlan& region : r.execution_plan.regions) {
      EXPECT_EQ(region.name.rfind("lock", 0), std::string::npos);
      EXPECT_EQ(region.name.find("barrier"), std::string::npos) << region.name;
    }
  }
}

TEST(ExecutionPlanDerivation, DecisionClassBackfilledIntoMemoryPlan) {
  translator::TranslationResult r = translateBenchmark("DotProduct");
  ASSERT_TRUE(r.ok);
  const partition::PlacementDecision* a = r.plan.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->placement, partition::Placement::OffChip);  // stage 4: spilled
  EXPECT_EQ(a->cls, PlacementClass::kOnChipStaged);
  EXPECT_NE(r.plan.format().find("on-chip-staged"), std::string::npos);
  const RegionPlan* region = r.execution_plan.find("a");
  ASSERT_NE(region, nullptr);
  EXPECT_EQ(region->pattern, MpbPattern::kSelfStage);
  EXPECT_EQ(region->offchip, PlacementClass::kOffChipCached);
}

// Cacheability must match the stage-2 sharing classification: a region is
// cached in some run (its placement or its off-chip class) only if NO
// thread function writes it (read-mostly), and every thread-written region
// is never cached — the DRF-safety envelope of the swcache's
// release-consistency protocol.
TEST(ExecutionPlanDerivation, CacheabilityMatchesSharingClassification) {
  for (const std::string& name : workloads::pthreadSourceNames()) {
    translator::TranslationResult r = translateBenchmark(name);
    ASSERT_TRUE(r.ok) << name << ": " << r.diagnostics;
    std::set<std::string> thread_fns;
    for (const auto* fn : r.analysis.thread_functions) {
      if (fn != nullptr) thread_fns.insert(fn->name());
    }
    for (const RegionPlan& region : r.execution_plan.regions) {
      const analysis::VariableInfo* v = r.analysis.findByName(region.name);
      ASSERT_NE(v, nullptr) << name << "." << region.name;
      bool thread_written = false;
      for (const std::string& f : v->def_in) {
        thread_written = thread_written || thread_fns.count(f) > 0;
      }
      if (region.cachedInSomeRun()) {
        EXPECT_FALSE(thread_written)
            << name << "." << region.name << " cached despite thread writes";
      }
      if (thread_written) {
        EXPECT_NE(region.placement, PlacementClass::kOffChipCached)
            << name << "." << region.name;
        EXPECT_NE(region.offchip, PlacementClass::kOffChipCached)
            << name << "." << region.name;
      }
    }
  }
}

// Controller placement — the NUMA half of the contract — states what the
// machine realizes: owner-partitioned thread-written off-chip data stays on
// the requester-local owner-compute mapping, and so do read-mostly regions,
// whose swcache line fills always follow the requesting core (the
// composition rule) in a run that caches them, so a derived plan never
// marks them striped.
TEST(ExecutionPlanDerivation, ControllerPlacementFollowsSharingTables) {
  using partition::ControllerPlacement;
  for (const std::string& name : workloads::pthreadSourceNames()) {
    translator::TranslationResult r = translateBenchmark(name);
    ASSERT_TRUE(r.ok) << name << ": " << r.diagnostics;
    for (const RegionPlan& region : r.execution_plan.regions) {
      EXPECT_EQ(region.controller, ControllerPlacement::kOwnerCompute)
          << name << "." << region.name;
    }
  }
  // Concretely: DotProduct's thread-read-only inputs are staged and
  // self-staged, cached off chip and owner-compute, and the plan JSON names
  // both realizations for the tooling that renders it.
  const translator::TranslationResult dot = translateBenchmark("DotProduct");
  ASSERT_TRUE(dot.ok);
  const RegionPlan* a = dot.execution_plan.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->placement, PlacementClass::kOnChipStaged);
  EXPECT_EQ(a->pattern, MpbPattern::kSelfStage);
  EXPECT_EQ(a->offchip, PlacementClass::kOffChipCached);
  EXPECT_EQ(a->controller, ControllerPlacement::kOwnerCompute);
  const std::string json = dot.execution_plan.toJson(8);
  EXPECT_NE(json.find("\"controller_placement\": \"owner-compute\""), std::string::npos);
  EXPECT_EQ(json.find("\"striped\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"a\", \"bytes\": 2097152, \"placement\": "
                      "\"on-chip-staged\", \"mpb_pattern\": \"self-stage\", "
                      "\"controller_placement\": \"owner-compute\", "
                      "\"offchip_placement\": \"off-chip-cached\"}"),
            std::string::npos)
      << json;
  // Only a and b carry a non-default off-chip class.
  std::size_t offchip_entries = 0;
  for (std::size_t at = json.find("offchip_placement"); at != std::string::npos;
       at = json.find("offchip_placement", at + 1)) {
    ++offchip_entries;
  }
  EXPECT_EQ(offchip_entries, 2u);
}

// resolvePlacement realizes a region's class per mode: its placement under
// RcceMpb, its off-chip class under RcceOffChip; a default off-chip class
// is the plain demotion hand plans always had, and an unnamed region is
// off-chip-uncached in both.
TEST(ExecutionPlan, ResolvePlacementRealizesTheOffChipClassOffChip) {
  using workloads::Mode;
  using workloads::resolvePlacement;
  RegionPlan staged{"s", PlacementClass::kOnChipStaged, MpbPattern::kSelfStage, 64};
  staged.offchip = PlacementClass::kOffChipCached;
  const ExecutionPlan plan{
      {staged,
       RegionPlan{"h", PlacementClass::kOnChipStaged, MpbPattern::kSelfStage, 64},
       RegionPlan{"r", PlacementClass::kOnChipResident, MpbPattern::kRootFunnel, 8},
       RegionPlan{"c", PlacementClass::kOffChipCached, MpbPattern::kNone, 64}}};
  EXPECT_EQ(resolvePlacement(plan, "s", Mode::RcceMpb), PlacementClass::kOnChipStaged);
  EXPECT_EQ(resolvePlacement(plan, "s", Mode::RcceOffChip), PlacementClass::kOffChipCached);
  // Hand-plan regions (default off-chip class) resolve exactly as before.
  EXPECT_EQ(resolvePlacement(plan, "h", Mode::RcceMpb), PlacementClass::kOnChipStaged);
  EXPECT_EQ(resolvePlacement(plan, "h", Mode::RcceOffChip),
            PlacementClass::kOffChipUncached);
  EXPECT_EQ(resolvePlacement(plan, "r", Mode::RcceMpb), PlacementClass::kOnChipResident);
  EXPECT_EQ(resolvePlacement(plan, "r", Mode::RcceOffChip),
            PlacementClass::kOffChipUncached);
  // An off-chip placement ignores the off-chip class in both modes.
  EXPECT_EQ(resolvePlacement(plan, "c", Mode::RcceMpb), PlacementClass::kOffChipCached);
  EXPECT_EQ(resolvePlacement(plan, "c", Mode::RcceOffChip), PlacementClass::kOffChipCached);
  EXPECT_EQ(resolvePlacement(plan, "missing", Mode::RcceMpb),
            PlacementClass::kOffChipUncached);
  EXPECT_EQ(resolvePlacement(plan, "missing", Mode::RcceOffChip),
            PlacementClass::kOffChipUncached);
}

// The KV store's plan (workloads::kvStorePlan): all three regions off-chip
// uncached with zero MPB traffic, the index and slot slab carrying the A/B'd
// controller placement while the per-UE check cells stay owner-compute.
// Guards the contract the placement benchmark leans on.
TEST(ExecutionPlan, KvStorePlanControllerPlacements) {
  using partition::ControllerPlacement;
  for (const ControllerPlacement cp :
       {ControllerPlacement::kStriped, ControllerPlacement::kOwnerCompute}) {
    const ExecutionPlan plan = workloads::kvStorePlan(workloads::KvParams{}, cp);
    EXPECT_FALSE(plan.anyMpbTraffic());
    for (const RegionPlan& region : plan.regions) EXPECT_FALSE(region.cachedInSomeRun());
    for (int ue = 0; ue < 8; ++ue) {
      EXPECT_TRUE(plan.mpbScopeOwners(ue, 8).empty());
    }
    ASSERT_NE(plan.find("kv_index"), nullptr);
    EXPECT_EQ(plan.find("kv_index")->bytes, 8192u * 8);
    EXPECT_EQ(plan.find("kv_index")->controller, cp);
    ASSERT_NE(plan.find("kv_slots"), nullptr);
    EXPECT_EQ(plan.find("kv_slots")->bytes, 4096u * 4 * 8);
    EXPECT_EQ(plan.find("kv_slots")->controller, cp);
    ASSERT_NE(plan.find("kv_checks"), nullptr);
    EXPECT_EQ(plan.find("kv_checks")->controller, ControllerPlacement::kOwnerCompute);
    EXPECT_NE(plan.toJson(8).find(controllerPlacementName(cp)), std::string::npos);
  }
}

// --- plan-driven execution: owner sets cover all observed MPB traffic -------

constexpr double kScale = 0.05;

TEST(PlanDrivenExecution, AllBenchmarksVerifyWithZeroScopeViolations) {
  const sim::SccConfig config;
  for (const std::string& name : workloads::pthreadSourceNames()) {
    const translator::TranslationResult r = translateBenchmark(name);
    ASSERT_TRUE(r.ok) << name << ": " << r.diagnostics;
    const auto bench = makeBenchmark(name, kScale);
    ASSERT_NE(bench, nullptr);
    for (const workloads::Mode mode :
         {workloads::Mode::RcceOffChip, workloads::Mode::RcceMpb}) {
      const workloads::RunResult run =
          bench->run(mode, 8, config, &r.execution_plan);
      EXPECT_TRUE(run.verified)
          << name << " " << workloads::modeName(mode) << ": " << run.detail;
      EXPECT_EQ(run.mpb_scope_violations, 0u)
          << name << " " << workloads::modeName(mode)
          << ": MPB traffic outside the derived owner sets";
      EXPECT_EQ(run.plan_regions_unrealized, 0u)
          << name << " " << workloads::modeName(mode)
          << ": translator plan names a region the workload twin "
             "does not recognize";
    }
  }
}

// Region-name drift between the translated source and the workload twin
// must be flagged, not silently absorbed by the off-chip-uncached fallback,
// whenever the drifted region's class in the run has a runtime consequence.
TEST(PlanDrivenExecution, UnrecognizedConsequentialRegionIsCounted) {
  const sim::SccConfig config;
  const auto pi = workloads::makePiApprox(kScale);
  const ExecutionPlan drifted{{RegionPlan{
      "renamed_gsum", PlacementClass::kOnChipResident, MpbPattern::kRootFunnel, 8}}};
  const workloads::RunResult mpb = pi->run(workloads::Mode::RcceMpb, 8, config, &drifted);
  EXPECT_TRUE(mpb.verified);  // fallback still computes correctly...
  EXPECT_EQ(mpb.plan_regions_unrealized, 1u);  // ...but the drift is visible
  // Off chip the region demotes to plain uncached words, which is exactly
  // the fallback: nothing is lost, so nothing is counted...
  const workloads::RunResult off =
      pi->run(workloads::Mode::RcceOffChip, 8, config, &drifted);
  EXPECT_TRUE(off.verified);
  EXPECT_EQ(off.plan_regions_unrealized, 0u);
  // ...unless its off-chip class is cached.
  ExecutionPlan cached_offchip = drifted;
  cached_offchip.regions[0].offchip = PlacementClass::kOffChipCached;
  const workloads::RunResult cached =
      pi->run(workloads::Mode::RcceOffChip, 8, config, &cached_offchip);
  EXPECT_TRUE(cached.verified);
  EXPECT_EQ(cached.plan_regions_unrealized, 1u);
}

// --- hand plans: each twin's hand-written Fig. 6.2 placement ----------------

TEST(Workloads, HandPlansLintCleanAndInScope) {
  const sim::SccConfig config;
  for (const std::string& name : workloads::pthreadSourceNames()) {
    const translator::TranslationResult r = translateBenchmark(name);
    ASSERT_TRUE(r.ok) << name << ": " << r.diagnostics;
    const auto bench = makeBenchmark(name, kScale);
    ASSERT_NE(bench, nullptr);
    const ExecutionPlan plan = bench->handPlan();
    EXPECT_FALSE(plan.regions.empty()) << name;
    const partition::LintResult lint =
        partition::lintSharingTables(r.analysis, plan, config.cache_line_bytes);
    EXPECT_TRUE(lint.ok()) << name << ":\n" << lint.format();
    for (const workloads::Mode mode :
         {workloads::Mode::RcceOffChip, workloads::Mode::RcceMpb}) {
      const workloads::RunResult run = bench->run(mode, 8, config, &plan);
      EXPECT_TRUE(run.verified) << name << " " << workloads::modeName(mode);
      EXPECT_EQ(run.mpb_scope_violations, 0u) << name << " " << workloads::modeName(mode);
      EXPECT_EQ(run.plan_regions_unrealized, 0u)
          << name << " " << workloads::modeName(mode);
    }
  }
}

// --- machine-level per-region cacheability (the region table) ---------------

TEST(ShmCacheability, RegionMapOverridesGlobalDefault) {
  // A mapped-cached region routes through the swcache, the rest stays
  // uncached.
  sim::SccConfig config;
  sim::SccMachine machine(config);
  const std::uint64_t a = machine.shmalloc(4096);
  const std::uint64_t b = machine.shmalloc(4096);
  EXPECT_FALSE(machine.swcacheActive());
  machine.addShmRegion({.begin = a, .end = a + 4096, .cached = true});
  EXPECT_TRUE(machine.swcacheActive());
  EXPECT_TRUE(machine.shmCached(a));
  EXPECT_TRUE(machine.shmCached(a + 4095));
  EXPECT_FALSE(machine.shmCached(b));  // unmapped: uncached
}

TEST(ShmCacheability, LaterRegistrationWins) {
  sim::SccConfig config;
  sim::SccMachine machine(config);
  machine.addShmRegion({.end = config.shared_dram_bytes, .cached = true});  // all cached
  const std::uint64_t a = machine.shmalloc(4096);
  const std::uint64_t b = machine.shmalloc(4096);
  machine.addShmRegion({.begin = a, .end = a + 4096});
  EXPECT_FALSE(machine.shmCached(a));      // pinned uncached
  EXPECT_TRUE(machine.shmCached(b));       // the earlier range governs the rest
  EXPECT_TRUE(machine.swcacheActive());
  machine.addShmRegion({.begin = a, .end = a + 64, .cached = true});
  EXPECT_TRUE(machine.shmCached(a));       // re-cached by the newest range
  EXPECT_FALSE(machine.shmCached(a + 64));
}

TEST(ShmCacheability, PlanCarryingShmArrayRegistersItsRegion) {
  sim::SccConfig config;
  sim::SccMachine machine(config);
  rcce::RcceEnv env(machine);
  rcce::ShmArray<double> cached(env, 64, PlacementClass::kOffChipCached);
  rcce::ShmArray<double> uncached(env, 64, PlacementClass::kOffChipUncached);
  rcce::ShmArray<double> legacy(env, 64);  // unmapped
  EXPECT_EQ(cached.placement(), PlacementClass::kOffChipCached);
  EXPECT_EQ(uncached.placement(), PlacementClass::kOffChipUncached);
  EXPECT_EQ(legacy.placement(), PlacementClass::kOffChipUncached);
  EXPECT_TRUE(machine.shmCached(cached.byteOffset(0)));
  EXPECT_FALSE(machine.shmCached(uncached.byteOffset(0)));
  EXPECT_FALSE(machine.shmCached(legacy.byteOffset(0)));  // unmapped: uncached
}

TEST(ShmCacheability, CachedRangesAreLineGranular) {
  // The swcache moves whole lines, so cached ranges round OUTWARD to line
  // boundaries — no byte of a partially covered line can stay uncached
  // (a whole-line write-back would clobber it: cross-policy false sharing).
  sim::SccConfig config;
  sim::SccMachine machine(config);
  const std::uint64_t base = machine.shmalloc(256);  // base is 0: line-aligned
  machine.addShmRegion({.begin = base + 40, .end = base + 72, .cached = true});
  EXPECT_TRUE(machine.shmCached(base + 32));   // head line rounded down
  EXPECT_TRUE(machine.shmCached(base + 95));   // tail line rounded up
  EXPECT_FALSE(machine.shmCached(base + 31));
  EXPECT_FALSE(machine.shmCached(base + 96));
}

TEST(ShmCacheability, CachedShmArrayIsLineAlignedAndPadded) {
  sim::SccConfig config;
  sim::SccMachine machine(config);
  rcce::RcceEnv env(machine);
  rcce::ShmArray<double> bump(env, 3);  // push the brk off line alignment
  rcce::ShmArray<double> cached(env, 5, PlacementClass::kOffChipCached);  // 40 B
  rcce::ShmArray<double> next(env, 4, PlacementClass::kOffChipUncached);
  EXPECT_EQ(cached.byteOffset(0) % 32, 0u);
  // The rounded-up tail line belongs to the cached region's own padding...
  EXPECT_TRUE(machine.shmCached(cached.byteOffset(0) + 63));
  // ...and the next (uncached) region starts on a fresh line.
  EXPECT_EQ(next.byteOffset(0) % 32, 0u);
  EXPECT_FALSE(machine.shmCached(next.byteOffset(0)));
}

// --- declared-scope violation accounting -------------------------------------

sim::SimTask touchOwnMpb(sim::CoreContext& ctx, std::uint64_t offset) {
  std::uint8_t buf[32] = {};
  co_await ctx.mpbWrite(ctx.ue(), offset, buf, sizeof(buf));
}

TEST(DeclaredScope, PlanWithoutMpbRegionsFlagsAnyMpbAccess) {
  // The plan promises "no MPB traffic"; the kernel touches its own slice
  // anyway — every chunk must be counted as a scope violation.
  sim::SccConfig config;
  sim::SccMachine machine(config);
  rcce::RcceEnv env(machine);
  const std::uint64_t off = env.mpbMallocSymmetric(2, 32);
  const ExecutionPlan plan{
      {RegionPlan{"x", PlacementClass::kOffChipUncached, MpbPattern::kNone, 64}}};
  machine.launch(sim::LaunchSpec(2, [&](sim::CoreContext& ctx) { return touchOwnMpb(ctx, off); }).withPlan(&plan));
  machine.run();
  EXPECT_GT(machine.mpbScopeViolations(), 0u);
}

TEST(DeclaredScope, CoveringPlanCountsNoViolations) {
  sim::SccConfig config;
  sim::SccMachine machine(config);
  rcce::RcceEnv env(machine);
  const std::uint64_t off = env.mpbMallocSymmetric(2, 32);
  const ExecutionPlan plan{{RegionPlan{
      "x", PlacementClass::kOnChipResident, MpbPattern::kSelfStage, 64}}};
  machine.launch(sim::LaunchSpec(2, [&](sim::CoreContext& ctx) { return touchOwnMpb(ctx, off); }).withPlan(&plan));
  machine.run();
  EXPECT_EQ(machine.mpbScopeViolations(), 0u);
}

}  // namespace
}  // namespace hsm
