// Tests for the RCCE runtime layer: allocators, typed array views, put/get.
#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "rcce/rcce.h"

namespace hsm::rcce {
namespace {

using sim::CoreContext;
using sim::SccMachine;
using sim::SimTask;

TEST(RcceEnv, ShmallocDelegates) {
  SccMachine machine;
  RcceEnv env(machine);
  const std::uint64_t a = env.shmalloc(100);
  const std::uint64_t b = env.shmalloc(8);
  EXPECT_GE(b, a + 100);
}

TEST(RcceEnv, SymmetricMpbAllocation) {
  SccMachine machine;
  RcceEnv env(machine);
  const std::uint64_t first = env.mpbMallocSymmetric(8, 64);
  const std::uint64_t second = env.mpbMallocSymmetric(8, 32);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(second, 64u);
}

TEST(RcceEnv, AsymmetricSlicesThrow) {
  SccMachine machine;
  RcceEnv env(machine);
  (void)machine.mpbMalloc(1, 8);  // desynchronize UE 1's slice
  EXPECT_THROW((void)env.mpbMallocSymmetric(4, 16), std::logic_error);
}

TEST(ShmArray, HostDataAndOffsets) {
  SccMachine machine;
  RcceEnv env(machine);
  ShmArray<double> a(env, 16);
  EXPECT_EQ(a.size(), 16u);
  a.hostData()[3] = 2.5;
  EXPECT_EQ(a.byteOffset(1) - a.byteOffset(0), sizeof(double));
  EXPECT_DOUBLE_EQ(reinterpret_cast<double*>(machine.shmData(a.byteOffset(3)))[0], 2.5);
}

SimTask shmArrayUser(CoreContext& ctx, ShmArray<double> arr, bool* ok) {
  co_await arr.write(ctx, 2, 7.5);
  double v = 0;
  co_await arr.read(ctx, 2, &v);
  double block[4] = {};
  co_await arr.readBlock(ctx, 0, 4, block);
  *ok = v == 7.5 && block[2] == 7.5;
}

TEST(ShmArray, TimedReadWriteRoundTrip) {
  SccMachine machine;
  RcceEnv env(machine);
  ShmArray<double> arr(env, 8);
  bool ok = false;
  machine.launch(sim::LaunchSpec(1, [&](CoreContext& ctx) { return shmArrayUser(ctx, arr, &ok); }));
  machine.run();
  EXPECT_TRUE(ok);
}

SimTask putGetPair(CoreContext& ctx, std::uint64_t off, int* received) {
  int token = 41 + ctx.ue();
  if (ctx.ue() == 0) {
    // RCCE put: deposit into UE 1's MPB.
    co_await put(ctx, 1, off, &token, sizeof(token));
  }
  co_await barrier(ctx);
  if (ctx.ue() == 1) {
    int got = 0;
    co_await get(ctx, 1, off, &got, sizeof(got));
    *received = got;
  }
}

TEST(Rcce, PutThenGetMovesData) {
  SccMachine machine;
  RcceEnv env(machine);
  const std::uint64_t off = env.mpbMallocSymmetric(2, 16);
  int received = 0;
  machine.launch(sim::LaunchSpec(2, [&](CoreContext& ctx) { return putGetPair(ctx, off, &received); }));
  machine.run();
  EXPECT_EQ(received, 41);
}

SimTask lockedIncrement(CoreContext& ctx, ShmArray<long long> acc) {
  for (int i = 0; i < 5; ++i) {
    co_await acquireLock(ctx, 3);
    long long v = 0;
    co_await acc.read(ctx, 0, &v);
    co_await acc.write(ctx, 0, v + 1);
    co_await releaseLock(ctx, 3);
  }
}

TEST(Rcce, LockedSharedCounterIsExact) {
  SccMachine machine;
  RcceEnv env(machine);
  ShmArray<long long> acc(env, 1);
  *acc.hostData() = 0;
  machine.launch(sim::LaunchSpec(6, [&](CoreContext& ctx) { return lockedIncrement(ctx, acc); }));
  machine.run();
  EXPECT_EQ(*acc.hostData(), 30);
}

/// RCCE chunk-loop ring exchange under a neighbor-ring plan: every UE puts a
/// multi-chunk block into its right neighbour's slice, then gets its own
/// slice back after the barrier — data shifts one place left per round.
SimTask ringExchange(CoreContext& ctx, std::uint64_t slot, std::size_t bytes,
                     std::vector<std::uint8_t>* out) {
  std::vector<std::uint8_t> buf(bytes, static_cast<std::uint8_t>(0x10 + ctx.ue()));
  const int right = (ctx.ue() + 1) % ctx.numUes();
  for (int round = 0; round < 2; ++round) {
    co_await put(ctx, right, slot, buf.data(), bytes);
    co_await barrier(ctx);
    co_await get(ctx, ctx.ue(), slot, buf.data(), bytes);
    co_await barrier(ctx);
  }
  (*out)[static_cast<std::size_t>(ctx.ue())] = buf[bytes - 1];
}

std::pair<std::vector<std::uint8_t>, sim::Tick> runRing(bool coalescing) {
  sim::SccConfig cfg;
  cfg.coalescing = coalescing;
  SccMachine machine(cfg);
  RcceEnv env(machine);
  const std::uint64_t slot = env.mpbMallocSymmetric(4, 256);
  std::vector<std::uint8_t> out(4, 0);
  const partition::ExecutionPlan ring{{partition::RegionPlan{
      "slot", partition::PlacementClass::kOnChipResident,
      partition::MpbPattern::kNeighborRing, 256}}};
  machine.launch(sim::LaunchSpec(4, [&](CoreContext& ctx) {
                   return ringExchange(ctx, slot, 256, &out);
                 }).withPlan(&ring));
  const sim::Tick makespan = machine.run();
  return {out, makespan};
}

TEST(Rcce, RingExchangeShiftsDataAndCoalescingIsTickExact) {
  const auto on = runRing(true);
  const auto off = runRing(false);
  EXPECT_EQ(on.second, off.second);  // bit-identical makespan
  EXPECT_EQ(on.first, off.first);
  // Two rounds shift each UE's block two places: UE u holds UE (u-2)'s byte.
  for (int ue = 0; ue < 4; ++ue) {
    EXPECT_EQ(on.first[static_cast<std::size_t>(ue)],
              static_cast<std::uint8_t>(0x10 + (ue + 2) % 4));
  }
}

SimTask mpbArrayUser(CoreContext& ctx, MpbArray<int> arr, std::vector<int>* out) {
  const int mine = 100 + ctx.ue();
  co_await arr.write(ctx, ctx.ue(), 0, mine);
  co_await ctx.barrier();
  int got = 0;
  co_await arr.read(ctx, (ctx.ue() + 1) % ctx.numUes(), 0, &got);
  (*out)[static_cast<std::size_t>(ctx.ue())] = got;
}

TEST(MpbArray, PerUeSlicesIndependent) {
  SccMachine machine;
  RcceEnv env(machine);
  MpbArray<int> arr(env, 4, 4);
  std::vector<int> out(4, 0);
  machine.launch(sim::LaunchSpec(4, [&](CoreContext& ctx) { return mpbArrayUser(ctx, arr, &out); }));
  machine.run();
  for (int ue = 0; ue < 4; ++ue) {
    EXPECT_EQ(out[static_cast<std::size_t>(ue)], 100 + (ue + 1) % 4);
  }
}

// --- PlanArray: one plan region realized in both RCCE modes ---------------
//
// A 4-UE micro-kernel per MPB pattern, run under the plan realized with
// on-chip memory (RcceMpb) and without it (RcceOffChip); each run checks
// the values and the machine's own transaction counters.

using partition::ExecutionPlan;
using partition::MpbPattern;
using partition::PlacementClass;
using partition::RegionPlan;

constexpr int kUes = 4;
constexpr std::size_t kBlock = 64;  // doubles a UE stages: 512 B, 16 lines
constexpr std::size_t kRow = 16;    // doubles per broadcast row: 128 B, 4 lines

struct Counters {
  std::uint64_t mpb_chunks = 0;
  std::uint64_t shm_words = 0;
  std::uint64_t bulk_lines = 0;
  std::uint64_t swcache_lines = 0;
  bool operator==(const Counters&) const = default;
};

Counters countersOf(const SccMachine& m) {
  return {.mpb_chunks = m.mpbChunksSimulated(),
          .shm_words = m.shmWordsSimulated(),
          .bulk_lines = m.shmBulkLinesSimulated(),
          .swcache_lines = m.swcacheLinesSimulated()};
}

std::ostream& operator<<(std::ostream& os, const Counters& c) {
  return os << "{mpb_chunks " << c.mpb_chunks << ", shm_words " << c.shm_words
            << ", bulk_lines " << c.bulk_lines << ", swcache_lines " << c.swcache_lines
            << "}";
}

// Root funnel: every UE adds ue + 1 into the one shared scalar under a lock.
SimTask funnelKernel(CoreContext& ctx, PlanArray<double> acc) {
  co_await ctx.lockAcquire(0);
  double v = 0;
  co_await acc.read(ctx, 0, &v);
  v += ctx.ue() + 1;
  co_await acc.write(ctx, 0, v);
  co_await ctx.lockRelease(0);
  co_await ctx.barrier();
}

// Self-stage: each UE moves its block in, reads it back staged, doubles it
// and writes it out.
SimTask stageKernel(CoreContext& ctx, PlanArray<double> a) {
  std::vector<double> buf(kBlock);
  const std::size_t first = static_cast<std::size_t>(ctx.ue()) * kBlock;
  co_await a.readBulk(ctx, first, kBlock, buf.data());
  co_await a.readStaged(ctx, kBlock, buf.data());
  for (double& x : buf) x *= 2;
  co_await a.writeBulk(ctx, first, kBlock, buf.data());
  co_await ctx.barrier();
}

// Rotating broadcast: row k comes from UE k; every UE sums every row.
SimTask broadcastKernel(CoreContext& ctx, PlanArray<double> m, std::vector<double>* sums) {
  std::vector<double> row(kRow);
  for (int k = 0; k < ctx.numUes(); ++k) {
    co_await m.broadcast(ctx, k, static_cast<std::size_t>(k) * kRow, kRow, row.data());
    for (const double x : row) (*sums)[static_cast<std::size_t>(ctx.ue())] += x;
    co_await ctx.barrier();
  }
}

template <typename Kernel>
Counters runPlanned(SccMachine& machine, const ExecutionPlan& realized, Kernel kernel) {
  machine.launch(sim::LaunchSpec(kUes, kernel).withPlan(&realized));
  (void)machine.run();
  EXPECT_EQ(machine.mpbScopeViolations(), 0u);
  return countersOf(machine);
}

TEST(PlanArray, RootFunnelIsUeZerosSlotOnChipAndAWordOffChip) {
  const ExecutionPlan plan{
      {RegionPlan{"acc", PlacementClass::kOnChipResident, MpbPattern::kRootFunnel, 8}}};
  for (const bool onchip : {true, false}) {
    SccMachine machine;
    RcceEnv env(machine);
    const ExecutionPlan realized = plan.realized(onchip);
    PlanArray<double> acc(env, kUes, 1, realized.find("acc"), "acc");
    *acc.hostData() = 0.0;
    const Counters c = runPlanned(machine, realized, [&](CoreContext& ctx) {
      return funnelKernel(ctx, acc);
    });
    EXPECT_DOUBLE_EQ(*acc.hostData(), 10.0) << onchip;
    // The off-chip master is registered by name even when the values live
    // in the MPB: otherwise plan_regions_unrealized would count the region.
    EXPECT_TRUE(machine.shmRegionNamed("acc")) << onchip;
    if (onchip) {
      EXPECT_DOUBLE_EQ(*reinterpret_cast<double*>(machine.mpbData(0, 0)), 10.0);
      EXPECT_EQ(*reinterpret_cast<double*>(machine.shmData(acc.byteOffset(0))), 0.0);
      // A one-chunk get and put per UE.
      EXPECT_EQ(c, (Counters{.mpb_chunks = 2 * kUes}));
    } else {
      EXPECT_EQ(c, (Counters{.shm_words = 2 * kUes}));
    }
  }
}

TEST(PlanArray, SelfStageIsBulkPlusOnChipReadOnChipAndWordsOffChip) {
  RegionPlan a_plan{"a", PlacementClass::kOnChipStaged, MpbPattern::kSelfStage,
                    kUes * kBlock * 8};
  for (const PlacementClass offchip :
       {PlacementClass::kOffChipUncached, PlacementClass::kOffChipCached}) {
    a_plan.offchip = offchip;
    for (const bool onchip : {true, false}) {
      SccMachine machine;
      RcceEnv env(machine);
      const ExecutionPlan realized = ExecutionPlan{{a_plan}}.realized(onchip);
      PlanArray<double> a(env, kUes, kUes * kBlock, realized.find("a"), "a", kBlock);
      for (std::size_t i = 0; i < kUes * kBlock; ++i) a.hostData()[i] = static_cast<double>(i);
      const Counters c =
          runPlanned(machine, realized, [&](CoreContext& ctx) { return stageKernel(ctx, a); });
      for (std::size_t i = 0; i < kUes * kBlock; ++i) {
        ASSERT_EQ(a.hostData()[i], 2.0 * static_cast<double>(i)) << i;
      }
      EXPECT_TRUE(machine.shmRegionNamed("a"));
      const std::uint64_t lines = kBlock * 8 / 32;
      if (onchip) {
        // Per UE: a bulk read and a bulk write of 16 lines, a 16-chunk get.
        EXPECT_EQ(c, (Counters{.mpb_chunks = kUes * lines, .bulk_lines = 2 * kUes * lines}));
      } else if (offchip == PlacementClass::kOffChipUncached) {
        EXPECT_EQ(c, (Counters{.shm_words = 2 * kUes * kBlock}));
      } else {
        // Per UE: 16 line fills, then 16 write-backs at the barrier.
        EXPECT_EQ(c, (Counters{.swcache_lines = 2 * kUes * lines}));
      }
    }
  }
}

TEST(PlanArray, StagedArraysShareOneBlockWhenAsked) {
  SccMachine machine;
  RcceEnv env(machine);
  const ExecutionPlan realized =
      ExecutionPlan{{RegionPlan{"a", PlacementClass::kOnChipStaged, MpbPattern::kSelfStage, 0},
                     RegionPlan{"b", PlacementClass::kOnChipStaged, MpbPattern::kSelfStage, 0}}}
          .realized(true);
  PlanArray<double> a(env, kUes, 1024, realized.find("a"), "a", kBlock);
  PlanArray<double> b(env, kUes, 1024, realized.find("b"), "b", kBlock, &a);
  // One block of kBlock doubles was allocated in each slice, not two.
  EXPECT_EQ(env.mpbMallocSymmetric(kUes, 8), kBlock * 8);
}

TEST(PlanArray, RotatingBroadcastPublishesFromTheOwnersSlotOnChip) {
  const ExecutionPlan plan{{RegionPlan{"m", PlacementClass::kOnChipStaged,
                                       MpbPattern::kRotatingBroadcast, kUes * kRow * 8}}};
  for (const bool onchip : {true, false}) {
    SccMachine machine;
    RcceEnv env(machine);
    const ExecutionPlan realized = plan.realized(onchip);
    PlanArray<double> m(env, kUes, kUes * kRow, realized.find("m"), "m", kRow);
    double total = 0;
    for (std::size_t i = 0; i < kUes * kRow; ++i) {
      m.hostData()[i] = static_cast<double>(i);
      total += static_cast<double>(i);
    }
    std::vector<double> sums(kUes, 0.0);
    const Counters c = runPlanned(machine, realized, [&](CoreContext& ctx) {
      return broadcastKernel(ctx, m, &sums);
    });
    for (const double s : sums) EXPECT_DOUBLE_EQ(s, total) << onchip;
    EXPECT_TRUE(machine.shmRegionNamed("m"));
    const std::uint64_t lines = kRow * 8 / 32;
    if (onchip) {
      // Per row: the owner's bulk read and 4-chunk put, three 4-chunk gets.
      EXPECT_EQ(c, (Counters{.mpb_chunks = kUes * kUes * lines, .bulk_lines = kUes * lines}));
    } else {
      EXPECT_EQ(c, (Counters{.shm_words = kUes * kUes * kRow}));
    }
  }
}

}  // namespace
}  // namespace hsm::rcce
