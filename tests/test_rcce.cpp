// Tests for the RCCE runtime layer: allocators, typed array views, put/get.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace hsm::rcce
