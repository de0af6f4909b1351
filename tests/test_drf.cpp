// Tests for the DRF layers (docs/race_detection.md): the vector-clock
// happens-before detector (src/sim/drf/), its machine integration (sync-hook
// edges, shm/MPB/threadrt access paths, determinism and zero-overhead
// contracts), and the translator-side sharing-table lint
// (src/partition/drf_lint.h).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "partition/drf_lint.h"
#include "rcce/rcce.h"
#include "sim/drf/drf.h"
#include "sim/machine.h"
#include "threadrt/baseline.h"
#include "translator/translator.h"
#include "workloads/benchmark.h"

namespace hsm {
namespace {

using sim::SccConfig;
using sim::SccMachine;
using sim::Tick;
namespace drf = sim::drf;

// --- vector clock units ------------------------------------------------------

TEST(VectorClock, GetSetBumpDefaultZero) {
  drf::VectorClock c;
  EXPECT_EQ(c.get(3), 0u);  // absent entries read as 0
  c.set(3, 7);
  EXPECT_EQ(c.get(3), 7u);
  c.bump(3);
  EXPECT_EQ(c.get(3), 8u);
  c.bump(0);
  EXPECT_EQ(c.get(0), 1u);
}

TEST(VectorClock, JoinIsPointwiseMax) {
  drf::VectorClock a, b;
  a.set(0, 5);
  a.set(1, 1);
  b.set(1, 4);
  b.set(2, 2);
  a.join(b);
  EXPECT_EQ(a.get(0), 5u);
  EXPECT_EQ(a.get(1), 4u);
  EXPECT_EQ(a.get(2), 2u);
}

TEST(VectorClock, CoversEpoch) {
  drf::VectorClock c;
  c.set(1, 3);
  EXPECT_TRUE(c.covers(3, 1));
  EXPECT_TRUE(c.covers(2, 1));
  EXPECT_FALSE(c.covers(4, 1));
  EXPECT_FALSE(c.covers(1, 2));  // never heard from task 2
}

// --- checker units -----------------------------------------------------------

drf::DrfChecker makeChecker(bool word_granular = false) {
  drf::DrfChecker c;
  c.configure(word_granular, /*line_bytes=*/32, /*word_bytes=*/8);
  c.registerTask(0, 0);
  c.registerTask(1, 1);
  return c;
}

TEST(DrfChecker, UnorderedWritesRace) {
  drf::DrfChecker c = makeChecker();
  EXPECT_EQ(c.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, false, 100), 0u);
  EXPECT_EQ(c.access(1, drf::kSpaceShm, 0, 8, /*write=*/true, false, 200), 1u);
  ASSERT_EQ(c.reports().size(), 1u);
  const drf::RaceReport& r = c.reports()[0];
  EXPECT_EQ(r.kind, drf::RaceKind::kWriteWrite);
  EXPECT_EQ(r.prior.task, 0u);
  EXPECT_EQ(r.current.task, 1u);
  EXPECT_EQ(r.prior.tick, 100u);
  EXPECT_EQ(r.current.tick, 200u);
  EXPECT_FALSE(r.line_granular);
  EXPECT_FALSE(r.false_sharing);
}

TEST(DrfChecker, WriteThenReadAndReadThenWriteKinds) {
  drf::DrfChecker wr = makeChecker();
  wr.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, false, 10);
  wr.access(1, drf::kSpaceShm, 0, 8, /*write=*/false, false, 20);
  ASSERT_EQ(wr.reports().size(), 1u);
  EXPECT_EQ(wr.reports()[0].kind, drf::RaceKind::kWriteRead);

  drf::DrfChecker rw = makeChecker();
  rw.access(0, drf::kSpaceShm, 0, 8, /*write=*/false, false, 10);
  rw.access(1, drf::kSpaceShm, 0, 8, /*write=*/true, false, 20);
  ASSERT_EQ(rw.reports().size(), 1u);
  EXPECT_EQ(rw.reports()[0].kind, drf::RaceKind::kReadWrite);
}

TEST(DrfChecker, ConcurrentReadsAreNotRacy) {
  drf::DrfChecker c = makeChecker();
  c.access(0, drf::kSpaceShm, 0, 8, /*write=*/false, false, 10);
  c.access(1, drf::kSpaceShm, 0, 8, /*write=*/false, false, 20);
  EXPECT_TRUE(c.reports().empty());
  // ... but a writer unordered with EITHER reader races: the read side
  // inflated to both epochs, and task 0's clock does not cover task 1's read.
  c.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, false, 30);
  ASSERT_EQ(c.reports().size(), 1u);
  EXPECT_EQ(c.reports()[0].kind, drf::RaceKind::kReadWrite);
  EXPECT_EQ(c.reports()[0].prior.task, 1u);
}

TEST(DrfChecker, LockOrderedPairDoesNotRace) {
  drf::DrfChecker c = makeChecker();
  c.acquire(0, 5);
  c.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, false, 10);
  c.release(0, 5);
  c.acquire(1, 5);  // joins task 0's released clock
  c.access(1, drf::kSpaceShm, 0, 8, /*write=*/true, false, 20);
  c.release(1, 5);
  EXPECT_TRUE(c.reports().empty());
}

TEST(DrfChecker, BarrierOrderedPairDoesNotRace) {
  drf::DrfChecker c = makeChecker();
  c.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, false, 10);
  const std::size_t tasks[] = {0, 1};
  c.barrierRelease(tasks, 2);
  c.access(1, drf::kSpaceShm, 0, 8, /*write=*/true, false, 20);
  EXPECT_TRUE(c.reports().empty());
}

TEST(DrfChecker, ReleaseWithoutMatchingAcquireStillRaces) {
  // A release alone publishes nothing to a task that never acquires.
  drf::DrfChecker c = makeChecker();
  c.acquire(0, 5);
  c.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, false, 10);
  c.release(0, 5);
  c.access(1, drf::kSpaceShm, 0, 8, /*write=*/true, false, 20);
  EXPECT_EQ(c.reports().size(), 1u);
}

TEST(DrfChecker, FirstRacePerGranuleOnly) {
  drf::DrfChecker c = makeChecker();
  c.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, false, 10);
  EXPECT_EQ(c.access(1, drf::kSpaceShm, 0, 8, /*write=*/true, false, 20), 1u);
  // Same granule keeps conflicting — suppressed after the first report.
  EXPECT_EQ(c.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, false, 30), 0u);
  EXPECT_EQ(c.access(1, drf::kSpaceShm, 0, 8, /*write=*/true, false, 40), 0u);
  EXPECT_EQ(c.reports().size(), 1u);
  // A DIFFERENT granule still reports.
  c.access(0, drf::kSpaceShm, 64, 8, /*write=*/true, false, 50);
  EXPECT_EQ(c.access(1, drf::kSpaceShm, 64, 8, /*write=*/true, false, 60), 1u);
}

TEST(DrfChecker, LineGranularFlagsFalseSharingWordGranularDoesNot) {
  // Unpadded pair: two tasks write DIFFERENT words of one 32 B cached line.
  drf::DrfChecker line = makeChecker(/*word_granular=*/false);
  line.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, /*cached=*/true, 10);
  line.access(1, drf::kSpaceShm, 8, 8, /*write=*/true, /*cached=*/true, 20);
  ASSERT_EQ(line.reports().size(), 1u);
  EXPECT_TRUE(line.reports()[0].line_granular);
  EXPECT_TRUE(line.reports()[0].false_sharing);
  EXPECT_EQ(line.reports()[0].granule_bytes, 32u);

  // Padded pair: one line apart — clean even under the line contract.
  drf::DrfChecker padded = makeChecker(/*word_granular=*/false);
  padded.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, /*cached=*/true, 10);
  padded.access(1, drf::kSpaceShm, 32, 8, /*write=*/true, /*cached=*/true, 20);
  EXPECT_TRUE(padded.reports().empty());

  // Word-granular mode: the unpadded pair is clean (disjoint words).
  drf::DrfChecker word = makeChecker(/*word_granular=*/true);
  word.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, /*cached=*/true, 10);
  word.access(1, drf::kSpaceShm, 8, 8, /*write=*/true, /*cached=*/true, 20);
  EXPECT_TRUE(word.reports().empty());
}

TEST(DrfChecker, OverlappingLineRaceIsNotFalseSharing) {
  drf::DrfChecker c = makeChecker(/*word_granular=*/false);
  c.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, /*cached=*/true, 10);
  c.access(1, drf::kSpaceShm, 0, 8, /*write=*/true, /*cached=*/true, 20);
  ASSERT_EQ(c.reports().size(), 1u);
  EXPECT_TRUE(c.reports()[0].line_granular);
  EXPECT_FALSE(c.reports()[0].false_sharing);  // same word: a REAL race
}

TEST(DrfChecker, DistinctSpacesDoNotCollide) {
  // Same offset in shm, private memory, and two UEs' MPBs: four distinct
  // granules, no cross-space conflicts.
  drf::DrfChecker c = makeChecker();
  c.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, false, 10);
  c.access(1, drf::kSpacePriv, 0, 8, /*write=*/true, false, 20);
  c.access(0, drf::mpbSpace(0), 0, 8, /*write=*/true, false, 30);
  c.access(1, drf::mpbSpace(1), 0, 8, /*write=*/true, false, 40);
  EXPECT_TRUE(c.reports().empty());
  EXPECT_EQ(c.accessesChecked(), 4u);
}

TEST(DrfChecker, ExemptRangeSuppressesChecking) {
  drf::DrfChecker c = makeChecker();
  c.addShmExemptRange(0, 64);
  c.access(0, drf::kSpaceShm, 8, 8, /*write=*/true, false, 10);
  c.access(1, drf::kSpaceShm, 8, 8, /*write=*/true, false, 20);
  EXPECT_TRUE(c.reports().empty());
  // Outside the exemption the same pair still races.
  c.access(0, drf::kSpaceShm, 64, 8, /*write=*/true, false, 30);
  c.access(1, drf::kSpaceShm, 64, 8, /*write=*/true, false, 40);
  EXPECT_EQ(c.reports().size(), 1u);
}

TEST(DrfChecker, ReportsCarryRegionNameAndFormat) {
  drf::DrfChecker c = makeChecker();
  c.registerRegion("result_slots", 0, 128);
  c.access(0, drf::kSpaceShm, 16, 8, /*write=*/true, false, 10);
  c.access(1, drf::kSpaceShm, 16, 8, /*write=*/true, false, 20);
  ASSERT_EQ(c.reports().size(), 1u);
  EXPECT_EQ(c.reports()[0].region, "result_slots");
  const std::string line = c.reports()[0].format();
  EXPECT_NE(line.find("write-write"), std::string::npos);
  EXPECT_NE(line.find("result_slots"), std::string::npos);
  EXPECT_EQ(c.formatReports(), line + "\n");
}

TEST(DrfChecker, ResetExecutionStateKeepsAddressSpaceFacts) {
  drf::DrfChecker c = makeChecker();
  c.addShmExemptRange(0, 32);
  c.registerRegion("arr", 32, 96);
  c.access(0, drf::kSpaceShm, 40, 8, /*write=*/true, false, 10);
  c.access(1, drf::kSpaceShm, 40, 8, /*write=*/true, false, 20);
  EXPECT_EQ(c.reports().size(), 1u);
  c.resetExecutionState();
  EXPECT_TRUE(c.reports().empty());
  EXPECT_EQ(c.accessesChecked(), 0u);
  // Exemption and region name survive the reset; the shadow state does not,
  // so a re-run reports the same race afresh.
  c.registerTask(0, 0);
  c.registerTask(1, 1);
  c.access(0, drf::kSpaceShm, 8, 8, /*write=*/true, false, 10);
  c.access(1, drf::kSpaceShm, 8, 8, /*write=*/true, false, 20);
  EXPECT_TRUE(c.reports().empty());  // still exempt
  c.access(0, drf::kSpaceShm, 40, 8, /*write=*/true, false, 30);
  c.access(1, drf::kSpaceShm, 40, 8, /*write=*/true, false, 40);
  ASSERT_EQ(c.reports().size(), 1u);
  EXPECT_EQ(c.reports()[0].region, "arr");
}

// --- machine integration -----------------------------------------------------

sim::SimTask racyIncrement(sim::CoreContext& ctx, std::uint64_t off, int iters) {
  const auto ue = static_cast<std::uint64_t>(ctx.ue());
  for (int i = 0; i < iters; ++i) {
    co_await ctx.compute(500 + ue * 333);
    std::uint64_t v = 0;
    co_await ctx.shmRead(off, &v, sizeof(v));
    ++v;
    co_await ctx.shmWrite(off, &v, sizeof(v));
  }
}

sim::SimTask lockedIncrement(sim::CoreContext& ctx, std::uint64_t off, int iters) {
  const auto ue = static_cast<std::uint64_t>(ctx.ue());
  for (int i = 0; i < iters; ++i) {
    co_await ctx.compute(500 + ue * 333);
    co_await ctx.lockAcquire(0);
    std::uint64_t v = 0;
    co_await ctx.shmRead(off, &v, sizeof(v));
    ++v;
    co_await ctx.shmWrite(off, &v, sizeof(v));
    co_await ctx.lockRelease(0);
  }
}

sim::SimTask barrierPublish(sim::CoreContext& ctx, std::uint64_t base, int rounds) {
  const auto ue = static_cast<std::uint64_t>(ctx.ue());
  const int ues = ctx.numUes();
  for (int r = 0; r < rounds; ++r) {
    std::uint64_t v = ue + static_cast<std::uint64_t>(r);
    co_await ctx.shmWrite(base + ue * 64, &v, sizeof(v));
    co_await ctx.barrier();
    // Read the LEFT neighbour's slot — ordered only by the barrier.
    const auto left = static_cast<std::uint64_t>((ctx.ue() + ues - 1) % ues);
    co_await ctx.shmRead(base + left * 64, &v, sizeof(v));
    co_await ctx.barrier();
  }
}

struct MachineRun {
  Tick makespan = 0;
  std::vector<Tick> completions;
  std::uint64_t races = 0;
  std::string reports;
};

template <typename Setup>
MachineRun runMachine(const SccConfig& cfg, int ues, Setup setup) {
  SccMachine m(cfg);
  setup(m);
  MachineRun r;
  r.makespan = m.run();
  for (int ue = 0; ue < ues; ++ue) {
    r.completions.push_back(m.engine().completionTime(static_cast<std::size_t>(ue)));
  }
  if (m.drfEnabled()) {
    r.races = m.drfChecker().reports().size();
    r.reports = m.drfChecker().formatReports();
  }
  return r;
}

TEST(DrfMachine, RacyKernelReportedSyncedKernelsClean) {
  SccConfig cfg;
  cfg.drf_check = true;
  const auto racy = [](SccMachine& m) {
    const std::uint64_t off = m.shmalloc(64);
    m.launch(sim::LaunchSpec(4, [=](sim::CoreContext& ctx) {
      return racyIncrement(ctx, off, 3);
    }));
  };
  const auto locked = [](SccMachine& m) {
    const std::uint64_t off = m.shmalloc(64);
    m.launch(sim::LaunchSpec(4, [=](sim::CoreContext& ctx) {
      return lockedIncrement(ctx, off, 3);
    }));
  };
  const auto barriered = [](SccMachine& m) {
    const std::uint64_t base = m.shmalloc(4 * 64);
    m.launch(sim::LaunchSpec(4, [=](sim::CoreContext& ctx) {
      return barrierPublish(ctx, base, 3);
    }));
  };
  EXPECT_GT(runMachine(cfg, 4, racy).races, 0u);
  EXPECT_EQ(runMachine(cfg, 4, locked).races, 0u);
  EXPECT_EQ(runMachine(cfg, 4, barriered).races, 0u);
}

/// Deposit 32 bytes into `slot` of UE 0's MPB after a UE-skewed compute.
/// A named coroutine, not a capturing lambda: the frame owns `slot`, where a
/// lambda's captures would die with the lambda before the task resumes.
sim::SimTask depositToUe0(sim::CoreContext& ctx, std::uint64_t slot) {
  std::uint8_t buf[32] = {};
  co_await ctx.compute(100 + static_cast<std::uint64_t>(ctx.ue()) * 77);
  co_await rcce::put(ctx, 0, slot, buf, sizeof(buf));
}

TEST(DrfMachine, RacyMpbPutsReported) {
  // Two UEs deposit into the SAME slot of UE 0's MPB with no ordering edge.
  SccConfig cfg;
  cfg.drf_check = true;
  const auto setup = [](SccMachine& m) {
    rcce::RcceEnv env(m);
    const std::uint64_t slot = env.mpbMallocSymmetric(2, 64);
    m.launch(sim::LaunchSpec(2, [=](sim::CoreContext& ctx) {
      return depositToUe0(ctx, slot);
    }));
  };
  EXPECT_GT(runMachine(cfg, 2, setup).races, 0u);
}

TEST(DrfMachine, ReportsByteIdenticalAcrossCoalescingModes) {
  const auto setup = [](SccMachine& m) {
    const std::uint64_t off = m.shmalloc(64);
    m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
      return racyIncrement(ctx, off, 3);
    }));
  };
  SccConfig base;
  base.drf_check = true;
  const MachineRun ref = runMachine(base, 8, setup);
  EXPECT_GT(ref.races, 0u);

  for (const bool coalescing : {true, false}) {
    SccConfig cfg;
    cfg.drf_check = true;
    cfg.coalescing = coalescing;
    const MachineRun run = runMachine(cfg, 8, setup);
    EXPECT_EQ(run.reports, ref.reports) << "coalescing=" << coalescing;
    EXPECT_EQ(run.makespan, ref.makespan);
    EXPECT_EQ(run.completions, ref.completions);
  }
}

TEST(DrfMachine, EnablingCheckerMovesNoTick) {
  const auto setup = [](SccMachine& m) {
    const std::uint64_t base = m.shmalloc(4 * 64);
    m.launch(sim::LaunchSpec(4, [=](sim::CoreContext& ctx) {
      return barrierPublish(ctx, base, 4);
    }));
  };
  SccConfig off;
  SccConfig on;
  on.drf_check = true;
  const MachineRun r_off = runMachine(off, 4, setup);
  const MachineRun r_on = runMachine(on, 4, setup);
  EXPECT_EQ(r_on.makespan, r_off.makespan);
  EXPECT_EQ(r_on.completions, r_off.completions);
  // Word-granular mode must not move a Tick either.
  SccConfig word;
  word.drf_check = true;
  word.drf_word_granular = true;
  const MachineRun r_word = runMachine(word, 4, setup);
  EXPECT_EQ(r_word.makespan, r_off.makespan);
  EXPECT_EQ(r_word.completions, r_off.completions);
}

/// Write the UE's own 8-byte slot of `base` once (slots pack four to a line).
sim::SimTask writeOwnSlot(sim::CoreContext& ctx, std::uint64_t base) {
  const auto ue = static_cast<std::uint64_t>(ctx.ue());
  std::uint64_t v = ue;
  co_await ctx.compute(200 + ue * 111);
  co_await ctx.shmWrite(base + ue * 8, &v, sizeof(v));
}

TEST(DrfMachine, CachedSlotsFalseShareLineModeOnly) {
  const auto setup = [](SccMachine& m) {
    const std::uint64_t base = m.shmalloc(64);
    m.setShmCacheability(base, base + 64, true);
    m.launch(sim::LaunchSpec(4, [=](sim::CoreContext& ctx) {
      return writeOwnSlot(ctx, base);
    }));
  };
  SccConfig line;
  line.drf_check = true;
  const MachineRun r_line = runMachine(line, 4, setup);
  EXPECT_GT(r_line.races, 0u);
  EXPECT_NE(r_line.reports.find("FALSE-SHARING"), std::string::npos);

  SccConfig word = line;
  word.drf_word_granular = true;
  EXPECT_EQ(runMachine(word, 4, setup).races, 0u);
}

// --- threadrt integration ----------------------------------------------------

sim::SimTask racyThread(threadrt::ThreadContext& ctx, std::uint64_t addr) {
  long long v = 0;
  co_await ctx.compute(100 + static_cast<std::uint64_t>(ctx.tid()) * 50);
  co_await ctx.memRead(addr, &v, sizeof(v));
  v += 1;
  co_await ctx.memWrite(addr, &v, sizeof(v));
}

sim::SimTask mutexedThread(threadrt::ThreadContext& ctx, std::uint64_t addr) {
  co_await ctx.compute(100 + static_cast<std::uint64_t>(ctx.tid()) * 50);
  co_await ctx.lockAcquire(0);
  long long v = 0;
  co_await ctx.memRead(addr, &v, sizeof(v));
  v += 1;
  co_await ctx.memWrite(addr, &v, sizeof(v));
  co_await ctx.lockRelease(0);
}

TEST(DrfThreadrt, UnlockedSharedCounterRacesEvenWhenSerialized) {
  // One core serializes the threads in TIME, but pthread semantics have no
  // happens-before edge without a sync op — still a race.
  SccConfig cfg;
  cfg.drf_check = true;
  threadrt::SingleCoreRuntime rt(cfg);
  rt.machine().reservePrivate(0, 64);
  std::memset(rt.machine().privData(0, 0), 0, 8);
  rt.launch(4, [](threadrt::ThreadContext& ctx) { return racyThread(ctx, 0); });
  rt.run();
  EXPECT_GT(rt.machine().drfChecker().reports().size(), 0u);
}

TEST(DrfThreadrt, MutexedSharedCounterClean) {
  SccConfig cfg;
  cfg.drf_check = true;
  threadrt::SingleCoreRuntime rt(cfg);
  rt.machine().reservePrivate(0, 64);
  std::memset(rt.machine().privData(0, 0), 0, 8);
  rt.launch(4, [](threadrt::ThreadContext& ctx) { return mutexedThread(ctx, 0); });
  rt.run();
  EXPECT_TRUE(rt.machine().drfChecker().reports().empty());
}

// --- sharing-table lint ------------------------------------------------------

// A thread function WRITES a shared array; the program has no barrier and no
// mutex, so no release point exists anywhere.
const char* const kNoSyncSource = R"(#include <pthread.h>

int sum[4] = {0};

void *tf(void *tid) {
    int t = (int)tid;
    sum[t] += t;
    pthread_exit(0);
}

int main() {
    pthread_t threads[4];
    int i;
    for (i = 0; i < 4; i++) {
        pthread_create(&threads[i], 0, tf, (void *)i);
    }
    for (i = 0; i < 4; i++) {
        pthread_join(threads[i], 0);
    }
    return 0;
}
)";

TEST(DrfLint, CachedThreadWrittenRegionWithoutSyncEdges) {
  translator::Translator tr;
  const translator::TranslationResult r = tr.analyzeOnly(kNoSyncSource, "nosync.c");
  ASSERT_TRUE(r.ok) << r.diagnostics;

  // Force the pathological plan the derivation would never emit: the
  // thread-written array in a swcache-cached region.
  const partition::ExecutionPlan bad{{partition::RegionPlan{
      "sum", partition::PlacementClass::kOffChipCached, partition::MpbPattern::kNone,
      16}}};
  const partition::LintResult lint = partition::lintSharingTables(r.analysis, bad);
  EXPECT_FALSE(lint.ok());
  bool saw_rule_a = false;
  bool saw_rule_c = false;
  for (const partition::LintFinding& f : lint.findings) {
    saw_rule_a = saw_rule_a ||
                 f.rule == partition::LintFinding::Rule::kCachedThreadWrittenNoSync;
    // 16 B is not a multiple of the 32 B line: the alignment rule fires too.
    saw_rule_c =
        saw_rule_c || f.rule == partition::LintFinding::Rule::kCachedNotLineAligned;
  }
  EXPECT_TRUE(saw_rule_a);
  EXPECT_TRUE(saw_rule_c);
}

TEST(DrfLint, PlanRegionWithoutSharingTableEntry) {
  translator::Translator tr;
  const translator::TranslationResult r = tr.analyzeOnly(kNoSyncSource, "nosync.c");
  ASSERT_TRUE(r.ok) << r.diagnostics;
  const partition::ExecutionPlan phantom{{partition::RegionPlan{
      "no_such_variable", partition::PlacementClass::kOffChipUncached,
      partition::MpbPattern::kNone, 64}}};
  const partition::LintResult lint =
      partition::lintSharingTables(r.analysis, phantom);
  ASSERT_EQ(lint.findings.size(), 1u);
  EXPECT_EQ(lint.findings[0].rule,
            partition::LintFinding::Rule::kPlacementContradictsSharing);
  EXPECT_EQ(lint.findings[0].region, "no_such_variable");
}

TEST(DrfLint, DerivedPlansOfAllBenchmarksLintClean) {
  // The drf_lint_ok gate of translate_and_run, as a unit test: every paper
  // benchmark's DERIVED plan must pass its own sharing tables.
  for (const std::string& name : workloads::pthreadSourceNames()) {
    translator::Translator tr;
    const translator::TranslationResult r =
        tr.analyzeOnly(workloads::pthreadSource(name), name + ".c");
    ASSERT_TRUE(r.ok) << name << ": " << r.diagnostics;
    const partition::LintResult lint =
        partition::lintSharingTables(r.analysis, r.execution_plan);
    EXPECT_TRUE(lint.ok()) << name << ":\n" << lint.format();
  }
}

TEST(DrfLint, PlanOnlyLintRules) {
  using partition::ExecutionPlan;
  using partition::LintFinding;
  using partition::MpbPattern;
  using partition::PlacementClass;
  using partition::RegionPlan;
  // Clean: uncached regions plus a sized MPB pattern.
  const ExecutionPlan clean{
      {RegionPlan{"a", PlacementClass::kOffChipUncached, MpbPattern::kNone, 64},
       RegionPlan{"b", PlacementClass::kOnChipResident, MpbPattern::kNeighborRing,
                  512}}};
  EXPECT_TRUE(partition::lintExecutionPlan(clean).ok());

  // A pattern on a zero-byte region and an unaligned cached region.
  const ExecutionPlan bad{
      {RegionPlan{"ghost", PlacementClass::kOnChipResident, MpbPattern::kSelfStage,
                  0},
       RegionPlan{"tail", PlacementClass::kOffChipCached, MpbPattern::kNone, 48}}};
  const partition::LintResult lint = partition::lintExecutionPlan(bad);
  ASSERT_EQ(lint.findings.size(), 2u);
  EXPECT_EQ(lint.findings[0].rule, LintFinding::Rule::kPlacementContradictsSharing);
  EXPECT_EQ(lint.findings[1].rule, LintFinding::Rule::kCachedNotLineAligned);
  EXPECT_NE(lint.format().find("cached-not-line-aligned"), std::string::npos);
}

}  // namespace
}  // namespace hsm
