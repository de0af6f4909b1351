// Tests for the SCC machine model: clocks, mesh topology (parameterized hop
// sweeps), UE spreading, caches, the three memory paths (functional and
// timing), barrier, and test-and-set locks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>

#include "sim/contention.h"
#include "sim/machine.h"

namespace hsm::sim {
namespace {

TEST(Clock, PeriodsMatchTable61) {
  const SccConfig config;
  EXPECT_EQ(config.coreClock().period(), 1250u);   // 800 MHz
  EXPECT_EQ(config.meshClock().period(), 625u);    // 1600 MHz
  EXPECT_EQ(config.dramClock().period(), 938u);    // 1066 MHz
  EXPECT_EQ(config.coreClock().cycles(4), 5000u);
}

TEST(Config, SccDefaultsMatchPaper) {
  const SccConfig config;
  EXPECT_EQ(config.num_cores, 48u);
  EXPECT_EQ(config.numTiles(), 24u);
  EXPECT_EQ(config.mpb_bytes_per_core, 8u * 1024u);
  EXPECT_EQ(config.mpbTotalBytes(), 384u * 1024u);
  EXPECT_EQ(config.num_mem_controllers, 4u);
}

TEST(Config, Table61Rendering) {
  const SccConfig config;
  const std::string table = config.formatTable61(32, 32);
  EXPECT_NE(table.find("800 MHz"), std::string::npos);
  EXPECT_NE(table.find("1600 MHz"), std::string::npos);
  EXPECT_NE(table.find("1066 MHz"), std::string::npos);
  EXPECT_NE(table.find("32 cores"), std::string::npos);
  EXPECT_NE(table.find("32 threads"), std::string::npos);
}

// --- mesh topology -----------------------------------------------------------

struct HopCase {
  std::uint32_t core_a;
  std::uint32_t core_b;
  std::uint32_t hops;
};

class MeshHops : public ::testing::TestWithParam<HopCase> {};

TEST_P(MeshHops, ManhattanDistance) {
  const SccConfig config;
  const MeshTopology mesh(config);
  EXPECT_EQ(mesh.hopsBetweenCores(GetParam().core_a, GetParam().core_b),
            GetParam().hops);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, MeshHops,
    ::testing::Values(HopCase{0, 1, 0},    // same tile
                      HopCase{0, 2, 1},    // neighbour tile
                      HopCase{0, 10, 5},   // across the row
                      HopCase{0, 12, 1},   // one row up
                      HopCase{0, 47, 8},   // opposite corner: 5 + 3
                      HopCase{1, 3, 1}, HopCase{46, 47, 0}));

TEST(MeshTopology, TileGeometry) {
  const SccConfig config;
  const MeshTopology mesh(config);
  EXPECT_EQ(mesh.tileOfCore(0), 0u);
  EXPECT_EQ(mesh.tileOfCore(1), 0u);
  EXPECT_EQ(mesh.tileOfCore(2), 1u);
  EXPECT_EQ(mesh.tileOfCore(47), 23u);
  EXPECT_EQ(mesh.coordOfTile(0), (TileCoord{0, 0}));
  EXPECT_EQ(mesh.coordOfTile(5), (TileCoord{5, 0}));
  EXPECT_EQ(mesh.coordOfTile(23), (TileCoord{5, 3}));
}

TEST(MeshTopology, ControllersPartitionQuadrants) {
  const SccConfig config;
  const MeshTopology mesh(config);
  EXPECT_EQ(mesh.controllerOfCore(0), 0u);    // (0,0) southwest
  EXPECT_EQ(mesh.controllerOfCore(10), 1u);   // (5,0) southeast
  EXPECT_EQ(mesh.controllerOfCore(36), 2u);   // (0,3) northwest
  EXPECT_EQ(mesh.controllerOfCore(46), 3u);   // (5,3) northeast
}

TEST(MeshTopology, UeSpreadBalancesControllers) {
  const SccConfig config;
  const MeshTopology mesh(config);
  ASSERT_EQ(mesh.numControllers(), 4u);
  for (const int ues : {4, 8, 16, 32, 48}) {
    int per_mc[4] = {0, 0, 0, 0};
    for (int ue = 0; ue < ues; ++ue) {
      const std::uint32_t core = mesh.coreForUe(ue, ues);
      ASSERT_LT(core, config.num_cores);
      const std::uint32_t mc = mesh.controllerForUe(ue, ues);
      ASSERT_EQ(mc, mesh.controllerOfCore(core));
      ++per_mc[mc];
    }
    for (int mc = 0; mc < 4; ++mc) {
      EXPECT_EQ(per_mc[mc], ues / 4) << "ues=" << ues << " mc=" << mc;
    }
  }
}

TEST(MeshTopology, UeSpreadAssignsDistinctCores) {
  const SccConfig config;
  const MeshTopology mesh(config);
  std::set<std::uint32_t> cores;
  for (int ue = 0; ue < 48; ++ue) cores.insert(mesh.coreForUe(ue, 48));
  EXPECT_EQ(cores.size(), 48u);
}

// --- cache model ---------------------------------------------------------------

TEST(Cache, MissThenHit) {
  Cache cache(1024, 32);
  EXPECT_FALSE(cache.access(0, false).hit);
  EXPECT_TRUE(cache.access(0, false).hit);
  EXPECT_TRUE(cache.access(31, false).hit);   // same line
  EXPECT_FALSE(cache.access(32, false).hit);  // next line
}

TEST(Cache, ConflictEviction) {
  Cache cache(1024, 32);  // 32 lines direct mapped
  EXPECT_FALSE(cache.access(0, false).hit);
  EXPECT_FALSE(cache.access(1024, false).hit);  // same index, different tag
  EXPECT_FALSE(cache.access(0, false).hit);     // evicted
}

TEST(Cache, DirtyVictimSignalsWriteback) {
  Cache cache(1024, 32);
  (void)cache.access(0, true);  // dirty line
  const Cache::AccessResult r = cache.access(1024, false);
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.writeback);
}

TEST(Cache, CleanVictimNoWriteback) {
  Cache cache(1024, 32);
  (void)cache.access(0, false);
  EXPECT_FALSE(cache.access(1024, false).writeback);
}

TEST(Cache, HitMissCounters) {
  Cache cache(1024, 32);
  (void)cache.access(0, false);
  (void)cache.access(0, false);
  (void)cache.access(64, false);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, FlushInvalidatesEverything) {
  Cache cache(1024, 32);
  (void)cache.access(0, true);
  cache.flush();
  EXPECT_FALSE(cache.access(0, false).hit);
}

TEST(Cache, RejectsNonPowerOfTwoGeometry) {
  EXPECT_THROW(Cache(1000, 32), std::invalid_argument);  // 31.25 lines
  EXPECT_THROW(Cache(1024, 24), std::invalid_argument);  // 24-byte lines
  EXPECT_THROW(Cache(16, 32), std::invalid_argument);    // smaller than a line
  EXPECT_NO_THROW(Cache(32, 32));                        // one line
}

TEST(Cache, VictimAddressRoundTrips) {
  Cache cache(1024, 32);
  (void)cache.access(0x12345 * 32 + 7, true);
  const Cache::AccessResult r = cache.access(0x12345 * 32 + 1024, false);
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.victim_addr, 0x12345u * 32);
  EXPECT_EQ(cache.slotAddr(r.index), 0x12345u * 32 + 1024);
  EXPECT_EQ(cache.lookup(0x12345 * 32 + 1024 + 31), r.index);
  EXPECT_EQ(cache.lookup(0x12345 * 32), Cache::kNoSlot);
}

// --- machine functional paths ---------------------------------------------------

SimTask privRoundTrip(CoreContext& ctx, bool* ok) {
  const std::uint32_t value = 0xDEADBEEF;
  co_await ctx.privWrite(64, &value, sizeof(value));
  std::uint32_t readback = 0;
  co_await ctx.privRead(64, &readback, sizeof(readback));
  *ok = readback == value;
}

TEST(Machine, PrivateMemoryFunctional) {
  SccMachine machine;
  bool ok = false;
  machine.launch(LaunchSpec(1, [&](CoreContext& ctx) { return privRoundTrip(ctx, &ok); }));
  machine.run();
  EXPECT_TRUE(ok);
}

SimTask shmRoundTrip(CoreContext& ctx, std::uint64_t offset, bool* ok) {
  if (ctx.ue() == 0) {
    const double value = 3.25;
    co_await ctx.shmWrite(offset, &value, sizeof(value));
  }
  co_await ctx.barrier();
  double readback = 0;
  co_await ctx.shmRead(offset, &readback, sizeof(readback));
  *ok = *ok && readback == 3.25;
}

TEST(Machine, SharedMemoryVisibleToAllCores) {
  SccMachine machine;
  const std::uint64_t offset = machine.shmalloc(64);
  bool ok = true;
  machine.launch(LaunchSpec(4, [&](CoreContext& ctx) { return shmRoundTrip(ctx, offset, &ok); }));
  machine.run();
  EXPECT_TRUE(ok);
}

SimTask mpbExchange(CoreContext& ctx, std::uint64_t off, std::vector<int>* seen) {
  const int mine = ctx.ue() * 11 + 1;
  co_await ctx.mpbWrite(ctx.ue(), off, &mine, sizeof(mine));
  co_await ctx.barrier();
  const int peer = (ctx.ue() + 1) % ctx.numUes();
  int got = 0;
  co_await ctx.mpbRead(peer, off, &got, sizeof(got));
  (*seen)[static_cast<std::size_t>(ctx.ue())] = got;
}

/// Private reads and writes that walk every branch of the L1/L2 model:
/// L1 hits, L1 misses that hit L2, L2 misses with clean and dirty victims
/// (one- and two-burst fills) and a multi-line access, on each UE's core.
SimTask privMix(CoreContext& ctx, std::uint64_t* sum) {
  const auto ue = static_cast<std::uint64_t>(ctx.ue());
  constexpr std::uint64_t kL1 = 16 * 1024, kL2 = 256 * 1024;
  std::uint64_t v = ue + 1;
  std::uint8_t block[100] = {};
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t i = 0; i < 48; ++i) {
      const std::uint64_t addr = ue * 64 + i * 4096 + round * 8;
      co_await ctx.privWrite(addr, &v, sizeof(v));    // miss (dirty victim later)
      co_await ctx.privRead(addr, &v, sizeof(v));     // L1 hit
      co_await ctx.privRead(addr + kL1, &v, sizeof(v));  // L1 conflict, L2 miss
      co_await ctx.privRead(addr, &v, sizeof(v));     // L1 miss, L2 hit
      co_await ctx.privRead(addr + kL2, &v, sizeof(v));  // evicts the dirty line
      v += ue + 3;
      co_await ctx.compute(40 + ue * 7);
    }
    co_await ctx.privRead(ue * 64 + 20, block, sizeof(block));  // spans 5 lines
    co_await ctx.privWrite(ue * 64 + kL2 + 20, block, sizeof(block));
  }
  *sum += v;
}

// The first private access on a core builds its L1/L2; the Ticks must be
// those of caches that existed from construction (pinned from a machine
// that built all 48 cores' caches up front). Cores that never touch
// private memory build nothing.
TEST(Machine, PrivateCachesBuiltOnFirstAccessPinned) {
  SccMachine machine;
  std::uint64_t sum = 0;
  machine.launch(LaunchSpec(2, [&](CoreContext& ctx) { return privMix(ctx, &sum); }));
  for (std::uint32_t core = 0; core < machine.config().num_cores; ++core) {
    EXPECT_FALSE(machine.privateCachesBuilt(static_cast<int>(core)));
  }
  const Tick makespan = machine.run();
  const std::vector<Tick> completions = {machine.engine().completionTime(0),
                                         machine.engine().completionTime(1)};
  EXPECT_EQ(makespan, 69893584u);
  EXPECT_EQ(completions, (std::vector<Tick>{65473584u, 69893584u}));
  EXPECT_EQ(sum, 7u);
  std::size_t built = 0;
  for (std::uint32_t core = 0; core < machine.config().num_cores; ++core) {
    const bool b = machine.privateCachesBuilt(static_cast<int>(core));
    built += b ? 1 : 0;
    EXPECT_EQ(b, core == machine.coreOfUe(0) || core == machine.coreOfUe(1)) << core;
  }
  EXPECT_EQ(built, 2u);
}

TEST(Machine, NoPrivateAccessBuildsNoPrivateCaches) {
  SccMachine machine;
  const std::uint64_t offset = machine.shmalloc(64);
  bool ok = true;
  machine.launch(LaunchSpec(4, [&](CoreContext& ctx) { return shmRoundTrip(ctx, offset, &ok); }));
  machine.run();
  EXPECT_TRUE(ok);
  for (std::uint32_t core = 0; core < machine.config().num_cores; ++core) {
    EXPECT_FALSE(machine.privateCachesBuilt(static_cast<int>(core))) << core;
  }
}

TEST(Machine, MpbRemoteReadSeesOwnerData) {
  SccMachine machine;
  const std::uint64_t off = machine.mpbMalloc(0, 16);
  for (int ue = 1; ue < 4; ++ue) ASSERT_EQ(machine.mpbMalloc(ue, 16), off);
  std::vector<int> seen(4, 0);
  machine.launch(LaunchSpec(4, [&](CoreContext& ctx) { return mpbExchange(ctx, off, &seen); }));
  machine.run();
  for (int ue = 0; ue < 4; ++ue) {
    EXPECT_EQ(seen[static_cast<std::size_t>(ue)], ((ue + 1) % 4) * 11 + 1);
  }
}

TEST(Machine, ShmallocSequentialAndAligned) {
  SccMachine machine;
  const std::uint64_t a = machine.shmalloc(10);
  const std::uint64_t b = machine.shmalloc(4);
  EXPECT_EQ(a % 8, 0u);
  EXPECT_EQ(b % 8, 0u);
  EXPECT_GE(b, a + 10);
}

TEST(Machine, SharedDramStaysPutAndStartsZeroed) {
  {
    // Dirty the whole region a machine grew, then destroy it: the next
    // machine on this thread takes over its buffer.
    SccMachine first;
    const std::uint64_t off = first.shmalloc(1 << 20);
    std::memset(first.shmData(off), 0xA5, 1 << 20);
  }
  SccMachine machine;
  const std::uint64_t a = machine.shmalloc(4096);
  std::uint8_t* const base = machine.shmData(a);
  const std::uint64_t b = machine.shmalloc(4 << 20);  // growth never moves the buffer
  EXPECT_EQ(machine.shmData(a), base);
  const std::uint8_t* const p = machine.shmData(b);
  EXPECT_TRUE(std::all_of(base, base + 4096, [](std::uint8_t v) { return v == 0; }));
  EXPECT_TRUE(std::all_of(p, p + (4 << 20), [](std::uint8_t v) { return v == 0; }));
}

TEST(Machine, MpbMallocExhaustionThrows) {
  SccMachine machine;
  (void)machine.mpbMalloc(0, 8 * 1024);
  EXPECT_THROW((void)machine.mpbMalloc(0, 1), std::bad_alloc);
}

TEST(Machine, MpbMallocRejectsUeOutsideCores) {
  SccMachine machine;  // 48 cores: UEs 0..47 own a slice
  EXPECT_THROW((void)machine.mpbMalloc(48, 64), std::out_of_range);
  EXPECT_THROW((void)machine.mpbMalloc(-1, 64), std::out_of_range);
  EXPECT_EQ(machine.mpbMalloc(47, 64), 0u);
}

TEST(Machine, ShmallocRejectsNonPowerOfTwoAlignment) {
  SccMachine machine;
  EXPECT_EQ(machine.shmalloc(8), 0u);
  EXPECT_THROW((void)machine.shmalloc(64, 24), std::invalid_argument);
  EXPECT_THROW((void)machine.shmalloc(64, 0), std::invalid_argument);
  EXPECT_EQ(machine.shmalloc(8), 8u);  // the rejected calls moved nothing
  EXPECT_EQ(machine.shmalloc(64, 32), 32u);
}

TEST(Machine, PinnedPlacementRejectsMissingController) {
  SccMachine machine;  // 4 controllers
  const std::uint64_t base = machine.shmalloc(4096);
  EXPECT_THROW(machine.addShmRegion({.begin = base,
                                     .end = base + 4096,
                                     .placement = partition::ControllerPlacement::kPinned,
                                     .pinned_controller = 7}),
               std::invalid_argument);
  // Nothing was registered: the range keeps requester-local routing.
  EXPECT_EQ(machine.controllerForShmAccess(0, base), machine.mesh().controllerOfCore(0));
  EXPECT_EQ(machine.controllerForShmAccess(47, base), machine.mesh().controllerOfCore(47));
  machine.addShmRegion({.begin = base,
                        .end = base + 4096,
                        .placement = partition::ControllerPlacement::kPinned,
                        .pinned_controller = 3});
  EXPECT_EQ(machine.controllerForShmAccess(0, base), 3u);
}

// --- timing sanity ---------------------------------------------------------------

SimTask timedCompute(CoreContext& ctx) { co_await ctx.compute(100); }

TEST(Machine, ComputeChargesCoreCycles) {
  SccMachine machine;
  machine.launch(LaunchSpec(1, [&](CoreContext& ctx) { return timedCompute(ctx); }));
  const Tick t = machine.run();
  EXPECT_EQ(t, 100u * 1250u);
}

// launch() fixes each task's reach from the routing placements registered
// so far, so a striped, pinned or first-touch placement registered later
// would leave tasks reaching too few controllers: it throws (in every build
// type) and registers nothing. kOwnerCompute only restates the default and
// is still accepted.
TEST(Machine, RoutingPlacementAfterLaunchRejected) {
  using partition::ControllerPlacement;
  SccMachine machine;
  const std::uint64_t base = machine.shmalloc(4096);
  machine.launch(LaunchSpec(2, [&](CoreContext& ctx) { return timedCompute(ctx); }));
  for (const ControllerPlacement placement :
       {ControllerPlacement::kStriped, ControllerPlacement::kPinned,
        ControllerPlacement::kFirstTouch}) {
    EXPECT_THROW(machine.addShmRegion({.begin = base,
                                       .end = base + 4096,
                                       .placement = placement,
                                       .pinned_controller = 1}),
                 std::logic_error);
  }
  EXPECT_EQ(machine.controllerForShmAccess(0, base), machine.mesh().controllerOfCore(0));
  EXPECT_EQ(machine.controllerForShmAccess(47, base), machine.mesh().controllerOfCore(47));
  EXPECT_NO_THROW(machine.addShmRegion({.begin = base,
                                        .end = base + 4096,
                                        .placement = ControllerPlacement::kOwnerCompute}));
  EXPECT_EQ(machine.run(), 100u * 1250u);
}

// The SCC has one test-and-set register per core: an id outside
// [0, num_cores) throws instead of growing the lock table (a negative id
// would cast to SIZE_MAX and allocate locks until bad_alloc).
TEST(Machine, LockRejectsIdOutsideCores) {
  SccMachine machine;  // 48 cores
  EXPECT_THROW((void)machine.lock(-1), std::out_of_range);
  EXPECT_THROW((void)machine.lock(48), std::out_of_range);
  EXPECT_FALSE(machine.lock(47).held());
  EXPECT_FALSE(machine.lock(0).held());
}

// Every data operation checks its range in its plain entry function, before
// the race check or any other state change: past the shared-memory break,
// an owner outside the launched UEs, past the owner's MPB slice, past the
// core's private memory (an access that starts inside it and straddles its
// end too). The in-range edges still pass.
TEST(Machine, DataOpsRejectOutOfRangeBeforeAnyStateChange) {
  SccConfig cfg;
  cfg.drf_check = true;
  cfg.private_mem_bytes = 8192;
  SccMachine machine(cfg);
  const std::uint64_t brk = machine.shmalloc(64) + 64;
  CoreContext ctx(machine, 0, 2, 0);
  std::uint64_t v[2] = {};
  const std::uint64_t slice = cfg.mpb_bytes_per_core;
  EXPECT_THROW((void)ctx.shmWrite(brk - 4, v, 8), std::out_of_range);
  EXPECT_THROW((void)ctx.shmRead(brk, v, 8), std::out_of_range);
  EXPECT_THROW((void)ctx.shmRead(~std::uint64_t{0}, v, 8), std::out_of_range);
  EXPECT_THROW((void)ctx.shmReadBulk(brk - 8, v, 16), std::out_of_range);
  EXPECT_THROW((void)ctx.shmWriteBulk(brk + 64, v, 8), std::out_of_range);
  EXPECT_THROW((void)ctx.mpbWrite(48, 0, v, 8), std::out_of_range);
  EXPECT_THROW((void)ctx.mpbRead(2, 0, v, 8), std::out_of_range);
  EXPECT_THROW((void)ctx.mpbRead(-1, 0, v, 8), std::out_of_range);
  EXPECT_THROW((void)ctx.mpbWrite(1, slice - 4, v, 8), std::out_of_range);
  const std::uint64_t cap = cfg.private_mem_bytes;
  EXPECT_THROW((void)ctx.privWrite(cap - 4, v, 8), std::out_of_range);
  EXPECT_THROW((void)ctx.privRead(cap - 4, v, 8), std::out_of_range);
  EXPECT_THROW((void)ctx.privTouch(cap, 8, true), std::out_of_range);
  EXPECT_EQ(machine.drfChecker().accessesChecked(), 0u);
  EXPECT_FALSE(machine.privateCachesBuilt(0));
  EXPECT_NO_THROW((void)ctx.shmRead(brk - 8, v, 8));
  EXPECT_NO_THROW((void)ctx.mpbRead(1, slice - 8, v, 8));
  EXPECT_NO_THROW((void)ctx.privWrite(cap - 8, v, 8));
}

SimTask privStraddleGrowthStep(CoreContext& ctx, std::uint64_t* readback) {
  const std::uint64_t value = 0x0123456789ABCDEFull;
  co_await ctx.privWrite(4092, &value, sizeof(value));
  co_await ctx.privRead(4092, readback, sizeof(*readback));
}

// A fresh core's private memory grows in steps from 4 KB: an access that
// starts inside a step and ends past it grows the store over its whole
// range (fails under AddressSanitizer if only its first byte is covered).
TEST(Machine, PrivateAccessAcrossTheFirstGrowthStepStaysInBounds) {
  SccMachine machine;
  std::uint64_t readback = 0;
  machine.launch(LaunchSpec(1, [&](CoreContext& ctx) {
    return privStraddleGrowthStep(ctx, &readback);
  }));
  machine.run();
  EXPECT_EQ(readback, 0x0123456789ABCDEFull);
}

/// One out-of-range operation inside a task: 0 = an MPB put to UE 48 on a
/// 2-UE launch, 1 = a word write just past the shared-memory break, 2 = an
/// MPB get running past the owner's slice.
SimTask outOfRangeKernel(CoreContext& ctx, int which, std::uint64_t brk) {
  std::uint64_t v = 1;
  if (ctx.ue() != 1) co_return;
  if (which == 0) co_await ctx.mpbWrite(48, 0, &v, 8);
  if (which == 1) co_await ctx.shmWrite(brk, &v, 8);
  if (which == 2) {
    co_await ctx.mpbRead(0, ctx.machine().config().mpb_bytes_per_core - 4, &v, 8);
  }
}

void runOutOfRange(int which) {
  SccMachine machine;
  const std::uint64_t brk = machine.shmalloc(64) + 64;
  machine.launch(LaunchSpec(2, [&](CoreContext& ctx) {
    return outOfRangeKernel(ctx, which, brk);
  }));
  machine.run();
}

// Inside a task the exception ends the run with its message (SimTask
// terminates on an unhandled exception) instead of writing past a buffer.
TEST(MachineDeathTest, OutOfRangeDataOpsEndTheRun) {
  EXPECT_DEATH(runOutOfRange(0), "MPB access to UE 48 outside the launched UEs");
  EXPECT_DEATH(runOutOfRange(1), "passes the allocated break 64");
  EXPECT_DEATH(runOutOfRange(2), "passes the 8192-byte slice of UE 0");
}

SimTask oneShmRead(CoreContext& ctx, std::uint64_t off) {
  std::uint64_t v = 0;
  co_await ctx.shmRead(off, &v, 8);
}

TEST(Machine, UncachedWordCostsMoreThanCompute) {
  SccMachine machine;
  const std::uint64_t off = machine.shmalloc(8);
  machine.launch(LaunchSpec(1, [&](CoreContext& ctx) { return oneShmRead(ctx, off); }));
  const Tick t = machine.run();
  // One word: issue overhead + mesh round trip + controller service.
  EXPECT_GT(t, 20000u);   // > 20 ns
  EXPECT_LT(t, 200000u);  // < 200 ns
}

SimTask bulkVsWords(CoreContext& ctx, std::uint64_t off, Tick* bulk_done) {
  std::vector<std::uint8_t> buf(4096);
  const Tick start = ctx.now();
  co_await ctx.shmReadBulk(off, buf.data(), buf.size());
  *bulk_done = ctx.now() - start;
}

SimTask wordsPath(CoreContext& ctx, std::uint64_t off, Tick* words_done) {
  std::vector<std::uint8_t> buf(4096);
  const Tick start = ctx.now();
  co_await ctx.shmRead(off, buf.data(), buf.size());
  *words_done = ctx.now() - start;
}

TEST(Machine, BulkTransferBeatsWordTransactions) {
  Tick bulk = 0;
  Tick words = 0;
  {
    SccMachine machine;
    const std::uint64_t off = machine.shmalloc(4096);
    machine.launch(LaunchSpec(1, [&](CoreContext& ctx) { return bulkVsWords(ctx, off, &bulk); }));
    machine.run();
  }
  {
    SccMachine machine;
    const std::uint64_t off = machine.shmalloc(4096);
    machine.launch(LaunchSpec(1, [&](CoreContext& ctx) { return wordsPath(ctx, off, &words); }));
    machine.run();
  }
  EXPECT_LT(bulk * 4, words) << "bulk should be >4x more efficient per byte";
}

SimTask mpbLocalVsShm(CoreContext& ctx, std::uint64_t mpb_off, std::uint64_t shm_off,
                      Tick* mpb_time, Tick* shm_time) {
  std::uint64_t v = 0;
  Tick start = ctx.now();
  co_await ctx.mpbRead(ctx.ue(), mpb_off, &v, 8);
  *mpb_time = ctx.now() - start;
  start = ctx.now();
  co_await ctx.shmRead(shm_off, &v, 8);
  *shm_time = ctx.now() - start;
}

TEST(Machine, MpbAccessFasterThanUncachedDram) {
  SccMachine machine;
  const std::uint64_t mpb_off = machine.mpbMalloc(0, 8);
  const std::uint64_t shm_off = machine.shmalloc(8);
  Tick mpb_time = 0;
  Tick shm_time = 0;
  machine.launch(LaunchSpec(1, [&](CoreContext& ctx) {
    return mpbLocalVsShm(ctx, mpb_off, shm_off, &mpb_time, &shm_time);
  }));
  machine.run();
  EXPECT_LT(mpb_time, shm_time);
}

// --- synchronization ---------------------------------------------------------------

SimTask unevenBarrier(CoreContext& ctx, std::vector<Tick>* after) {
  co_await ctx.compute(static_cast<std::uint64_t>(ctx.ue() + 1) * 1000);
  co_await ctx.barrier();
  (*after)[static_cast<std::size_t>(ctx.ue())] = ctx.now();
}

TEST(Machine, BarrierReleasesEveryoneTogether) {
  SccMachine machine;
  std::vector<Tick> after(6, 0);
  machine.launch(LaunchSpec(6, [&](CoreContext& ctx) { return unevenBarrier(ctx, &after); }));
  machine.run();
  for (std::size_t i = 1; i < after.size(); ++i) EXPECT_EQ(after[i], after[0]);
  // Release is after the slowest arrival.
  EXPECT_GE(after[0], 6u * 1000u * 1250u);
  EXPECT_EQ(machine.barrier().episodes(), 1u);
}

SimTask doubleBarrier(CoreContext& ctx, int* count) {
  co_await ctx.barrier();
  if (ctx.ue() == 0) ++*count;
  co_await ctx.barrier();
  if (ctx.ue() == 0) ++*count;
}

TEST(Machine, BarrierReusableAcrossEpisodes) {
  SccMachine machine;
  int count = 0;
  machine.launch(LaunchSpec(8, [&](CoreContext& ctx) { return doubleBarrier(ctx, &count); }));
  machine.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(machine.barrier().episodes(), 2u);
}

SimTask criticalSection(CoreContext& ctx, int* counter, bool* race) {
  for (int i = 0; i < 10; ++i) {
    co_await ctx.lockAcquire(0);
    const int seen = *counter;
    co_await ctx.compute(50);
    if (*counter != seen) *race = true;  // someone else got in
    *counter = seen + 1;
    co_await ctx.lockRelease(0);
  }
}

TEST(Machine, TasLockProvidesMutualExclusion) {
  SccMachine machine;
  int counter = 0;
  bool race = false;
  machine.launch(LaunchSpec(8, [&](CoreContext& ctx) {
    return criticalSection(ctx, &counter, &race);
  }));
  machine.run();
  EXPECT_EQ(counter, 80);
  EXPECT_FALSE(race);
  EXPECT_GT(machine.lock(0).contentionEvents(), 0u);
}

TEST(Machine, SingleUeBarrierDoesNotDeadlock) {
  SccMachine machine;
  int count = 0;
  machine.launch(LaunchSpec(1, [&](CoreContext& ctx) { return doubleBarrier(ctx, &count); }));
  machine.run();
  EXPECT_EQ(count, 2);
}

// --- determinism across the whole machine ----------------------------------------

SimTask mixedWork(CoreContext& ctx, std::uint64_t shm, std::uint64_t mpb) {
  std::uint64_t v = static_cast<std::uint64_t>(ctx.ue());
  for (int i = 0; i < 5; ++i) {
    co_await ctx.compute(100 + static_cast<std::uint64_t>(ctx.ue()) * 7);
    co_await ctx.shmWrite(shm + static_cast<std::uint64_t>(ctx.ue()) * 8, &v, 8);
    co_await ctx.mpbWrite(ctx.ue(), mpb, &v, 8);
    co_await ctx.barrier();
  }
}

TEST(Machine, FullyDeterministic) {
  auto run_once = [] {
    SccMachine machine;
    const std::uint64_t shm = machine.shmalloc(1024);
    std::uint64_t mpb = 0;
    for (int ue = 0; ue < 12; ++ue) mpb = machine.mpbMalloc(ue, 8);
    machine.launch(LaunchSpec(12, [&](CoreContext& ctx) { return mixedWork(ctx, shm, mpb); }));
    return machine.run();
  };
  const Tick t1 = run_once();
  const Tick t2 = run_once();
  EXPECT_EQ(t1, t2);
  EXPECT_GT(t1, 0u);
}

// --- coalescing equivalence -------------------------------------------------
// The hard bar for the coalesced word path (config.coalescing): identical
// makespan AND identical per-task completion Ticks versus the per-word legacy
// path, while processing fewer engine events.

struct SimResult {
  Tick makespan = 0;
  std::vector<Tick> completions;
  std::uint64_t events = 0;
  std::uint64_t shm_words = 0;
  std::uint64_t shm_word_events = 0;
  std::vector<std::uint64_t> data;  ///< workload output (functional check)
  FaultStats faults;                ///< when a fault plan is armed
  std::string trace;                ///< Chrome JSON, when tracing is on
};

SimTask streamKernel(CoreContext& ctx, std::uint64_t base, int blocks,
                     std::size_t block_bytes) {
  std::vector<std::uint8_t> buf(block_bytes);
  for (int i = 0; i < blocks; ++i) {
    co_await ctx.shmRead(base + static_cast<std::uint64_t>(i) * block_bytes, buf.data(),
                         block_bytes);
  }
}

SimResult runStream(bool coalescing, int ues, std::size_t block_bytes = 4096) {
  SccConfig cfg;
  cfg.coalescing = coalescing;
  SccMachine machine(cfg);
  const std::uint64_t base = machine.shmalloc(16 * block_bytes);
  machine.launch(LaunchSpec(ues, [&](CoreContext& ctx) {
    return streamKernel(ctx, base, 16, block_bytes);
  }));
  SimResult r;
  r.makespan = machine.run();
  for (int ue = 0; ue < ues; ++ue) {
    r.completions.push_back(machine.engine().completionTime(static_cast<std::size_t>(ue)));
  }
  r.events = machine.engine().eventsProcessed();
  r.shm_words = machine.shmWordsSimulated();
  r.shm_word_events = machine.shmWordEvents();
  return r;
}

TEST(Machine, CoalescingBitIdenticalSingleUe) {
  const SimResult on = runStream(true, 1);
  const SimResult off = runStream(false, 1);
  EXPECT_EQ(on.makespan, off.makespan);
  EXPECT_EQ(on.completions, off.completions);
  EXPECT_EQ(on.shm_words, off.shm_words);
  // >80% fewer engine events on an uncontended word stream.
  EXPECT_LT(on.events * 5, off.events);
}

TEST(Machine, CoalescingBitIdenticalConcurrentStreams) {
  const SimResult on = runStream(true, 8);
  const SimResult off = runStream(false, 8);
  EXPECT_EQ(on.makespan, off.makespan);
  EXPECT_EQ(on.completions, off.completions);
  EXPECT_LE(on.events, off.events);
}

/// Deliberately nasty contended case: skewed compute phases, word-granular
/// block IO, a shared lock-protected accumulator, and barriers — exercising
/// controller contention windows, equal-tick tie-breaking, lock grant order,
/// and barrier wake order under coalescing.
SimTask contendedKernel(CoreContext& ctx, std::uint64_t blocks_base,
                        std::uint64_t counter_off, std::vector<std::uint64_t>* out) {
  std::vector<std::uint8_t> buf(1024);
  const std::uint64_t mine = blocks_base + static_cast<std::uint64_t>(ctx.ue()) * 1024;
  for (int i = 0; i < 4; ++i) {
    co_await ctx.compute(1000 + static_cast<std::uint64_t>(ctx.ue() % 3) * 4000);
    co_await ctx.shmRead(mine, buf.data(), buf.size());
    co_await ctx.shmWrite(mine, buf.data(), buf.size());
    co_await ctx.lockAcquire(0);
    std::uint64_t counter = 0;
    co_await ctx.shmRead(counter_off, &counter, sizeof(counter));
    ++counter;
    co_await ctx.shmWrite(counter_off, &counter, sizeof(counter));
    co_await ctx.lockRelease(0);
    co_await ctx.barrier();
  }
  std::uint64_t final_counter = 0;
  co_await ctx.shmRead(counter_off, &final_counter, sizeof(final_counter));
  (*out)[static_cast<std::size_t>(ctx.ue())] = final_counter;
}

SimResult runContended(bool coalescing, int ues) {
  SccConfig cfg;
  cfg.coalescing = coalescing;
  SccMachine machine(cfg);
  const std::uint64_t blocks = machine.shmalloc(static_cast<std::size_t>(ues) * 1024);
  const std::uint64_t counter = machine.shmalloc(8);
  SimResult r;
  r.data.assign(static_cast<std::size_t>(ues), 0);
  machine.launch(LaunchSpec(ues, [&](CoreContext& ctx) {
    return contendedKernel(ctx, blocks, counter, &r.data);
  }));
  r.makespan = machine.run();
  for (int ue = 0; ue < ues; ++ue) {
    r.completions.push_back(machine.engine().completionTime(static_cast<std::size_t>(ue)));
  }
  r.events = machine.engine().eventsProcessed();
  r.shm_words = machine.shmWordsSimulated();
  r.shm_word_events = machine.shmWordEvents();
  return r;
}

TEST(Machine, CoalescingBitIdenticalContendedMultiCore) {
  const SimResult on = runContended(true, 8);
  const SimResult off = runContended(false, 8);
  EXPECT_EQ(on.makespan, off.makespan);
  EXPECT_EQ(on.completions, off.completions);
  EXPECT_EQ(on.data, off.data);
  EXPECT_EQ(on.shm_words, off.shm_words);
  EXPECT_LE(on.events, off.events);
  // Functional: every UE saw the fully-incremented counter (4 rounds x 8 UEs,
  // with the final read after the last barrier).
  for (const std::uint64_t seen : off.data) EXPECT_EQ(seen, 32u);
}

// The wake-chain rule must change only the event count, never a Tick. On the
// lock+barrier kernel a task parked on a lock or barrier bounds the horizon
// through its wakers instead of collapsing it to the global one; the pinned
// word-event count catches any loss of that narrowing.
TEST(Machine, WakeChainHorizonBitIdenticalAndPinsWordEvents) {
  const SimResult on = runContended(true, 8);
  const SimResult off = runContended(false, 8);
  EXPECT_EQ(on.makespan, off.makespan);
  EXPECT_EQ(on.completions, off.completions);
  EXPECT_EQ(on.data, off.data);
  EXPECT_EQ(on.shm_words, 8264u);
  EXPECT_EQ(off.shm_word_events, off.shm_words);
  EXPECT_EQ(on.shm_word_events, 200u);
}

/// LU-shaped kernel (the paper's barrier-per-step decomposition): at step k
/// every UE reads the pivot row, then reads each row i > k it owns (i % P,
/// so ownership is uneven and shrinks with k), computes, and writes the row
/// back; one barrier ends each step. UEs with no row left in a step park at
/// the barrier while their controller peers are still mid word-run — the
/// pattern whose horizon barrier-parked peers cannot bound.
SimTask luShapedKernel(CoreContext& ctx, std::uint64_t m0, std::size_t n) {
  const auto me = static_cast<std::size_t>(ctx.ue());
  const auto p = static_cast<std::size_t>(ctx.numUes());
  std::vector<std::uint64_t> row_k(n);
  std::vector<std::uint64_t> row_i(n);
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const std::size_t len = n - k;
    co_await ctx.shmRead(m0 + (k * n + k) * 8, row_k.data(), len * 8);
    for (std::size_t i = k + 1; i < n; ++i) {
      if (i % p != me) continue;
      co_await ctx.shmRead(m0 + (i * n + k) * 8, row_i.data(), len * 8);
      for (std::size_t j = 1; j < len; ++j) row_i[j] = row_i[j] * 3 + row_k[j] * row_i[0];
      co_await ctx.compute(2 * len);
      co_await ctx.shmWrite(m0 + (i * n + k) * 8, row_i.data(), len * 8);
    }
    co_await ctx.barrier();
  }
}

SimResult runLuShaped(bool coalescing, SccConfig cfg = {}) {
  constexpr int kUes = 32;
  constexpr std::size_t kN = 40;
  cfg.coalescing = coalescing;
  SccMachine machine(cfg);
  const std::uint64_t m0 = machine.shmalloc(kN * kN * 8);
  for (std::size_t e = 0; e < kN * kN; ++e) {
    const std::uint64_t v = e * 2654435761U + 1;
    std::memcpy(machine.shmData(m0 + e * 8), &v, 8);
  }
  machine.launch(LaunchSpec(kUes, [&](CoreContext& ctx) { return luShapedKernel(ctx, m0, kN); }));
  SimResult r;
  r.makespan = machine.run();
  for (int ue = 0; ue < kUes; ++ue) {
    r.completions.push_back(machine.engine().completionTime(static_cast<std::size_t>(ue)));
  }
  r.events = machine.engine().eventsProcessed();
  r.shm_words = machine.shmWordsSimulated();
  r.shm_word_events = machine.shmWordEvents();
  r.data.resize(kN * kN);
  std::memcpy(r.data.data(), machine.shmData(m0), kN * kN * 8);
  r.faults = machine.faultStats();
  if (cfg.trace_enabled) {
    std::ostringstream out;
    machine.writeTrace(out);
    r.trace = out.str();
  }
  return r;
}

// 32 UEs on four controllers: the tasks parked at the step barrier reach the
// same controllers as the row runs still in flight. They cannot be woken
// before the replay's members arrive, so they do not bound its horizon
// instead of cutting it to one word per event. Ticks and data stay
// bit-identical; the pinned word-event count catches any loss of that rule.
TEST(Machine, BarrierParkedTasksKeepContentionClosedAndPinWordEvents) {
  const SimResult on = runLuShaped(true);
  const SimResult off = runLuShaped(false);
  EXPECT_EQ(on.makespan, off.makespan);
  EXPECT_EQ(on.completions, off.completions);
  EXPECT_EQ(on.data, off.data);
  EXPECT_EQ(on.shm_words, off.shm_words);
  EXPECT_EQ(off.shm_word_events, off.shm_words);
  EXPECT_EQ(on.shm_word_events, 5494u);
}

// A run of at most kShortRun transactions takes the per-event path with
// coalescing on: one event per word and no registered run, so no peer's
// replay services it and the event totals equal the per-event path's. One
// word longer, the same contention batches again. Ticks match either way.
TEST(Machine, ShortRunsTakeThePerEventPath) {
  constexpr int kUes = 16;  // four per controller
  constexpr std::size_t kShort = SccMachine::kShortRun * 8;
  const SimResult short_on = runStream(true, kUes, kShort);
  const SimResult short_off = runStream(false, kUes, kShort);
  EXPECT_EQ(short_on.makespan, short_off.makespan);
  EXPECT_EQ(short_on.completions, short_off.completions);
  EXPECT_EQ(short_on.shm_words, 16u * 16u * SccMachine::kShortRun);
  EXPECT_EQ(short_on.shm_word_events, short_on.shm_words);
  EXPECT_EQ(short_on.events, short_off.events);

  const SimResult long_on = runStream(true, kUes, kShort + 8);
  const SimResult long_off = runStream(false, kUes, kShort + 8);
  EXPECT_EQ(long_on.makespan, long_off.makespan);
  EXPECT_EQ(long_on.completions, long_off.completions);
  EXPECT_EQ(long_off.shm_word_events, long_off.shm_words);
  EXPECT_LT(long_on.shm_word_events, long_on.shm_words);
  EXPECT_LT(long_on.events, long_off.events);
}

// --- folded compute: the lag ---------------------------------------------------
// With coalescing on and no observer, a compute adds to the UE's lag instead
// of suspending, and the next operation pays it. Every case must keep the
// Ticks of the per-event reference path (coalescing off).

struct LagResult {
  Tick makespan = 0;
  std::vector<Tick> completions;
  std::vector<Tick> marks;  ///< ctx.now() as the kernel saw it
  std::vector<int> order;   ///< kernel-defined order (lock grants)
  std::uint64_t events = 0;
  std::uint64_t word_events = 0;
  std::uint64_t first_word = 0;  ///< the block's first word after the run
};

/// Runs `kernel(ctx, base, &result)` on `ues` UEs over a 64 KB shared block,
/// registered cached when `cached`.
template <typename Kernel>
LagResult runLagKernel(bool coalescing, int ues, Kernel kernel, bool cached = false) {
  SccConfig cfg;
  cfg.coalescing = coalescing;
  SccMachine machine(cfg);
  const std::uint64_t base = machine.shmalloc(64 * 1024);
  if (cached) machine.addShmRegion({.begin = base, .end = base + 64 * 1024, .cached = true});
  LagResult r;
  r.marks.assign(static_cast<std::size_t>(ues), 0);
  machine.launch(LaunchSpec(ues, [&](CoreContext& ctx) { return kernel(ctx, base, &r); }));
  r.makespan = machine.run();
  for (int ue = 0; ue < ues; ++ue) {
    r.completions.push_back(machine.engine().completionTime(static_cast<std::size_t>(ue)));
  }
  r.events = machine.engine().eventsProcessed();
  r.word_events = machine.shmWordEvents();
  std::memcpy(&r.first_word, machine.shmData(base), sizeof(r.first_word));
  return r;
}

void expectSameTicks(const LagResult& on, const LagResult& off) {
  EXPECT_EQ(on.makespan, off.makespan);
  EXPECT_EQ(on.completions, off.completions);
  EXPECT_EQ(on.marks, off.marks);
  EXPECT_EQ(on.order, off.order);
}

SimTask computesThenBarrier(CoreContext& ctx, std::uint64_t /*base*/, LagResult* r) {
  co_await ctx.compute(100);
  co_await ctx.computeOps(3, OpClass::FpDiv);
  co_await ctx.compute(7);
  co_await ctx.computeOps(5, OpClass::IntAlu);
  r->marks[static_cast<std::size_t>(ctx.ue())] = ctx.now();
  co_await ctx.barrier();
}

// Four consecutive computes cost no event of their own: the barrier pays
// their lag with one suspension (start, lag, barrier release: 3 events
// against the reference's 6).
TEST(Machine, ConsecutiveComputesCostOneEvent) {
  const LagResult on = runLagKernel(true, 1, computesThenBarrier);
  const LagResult off = runLagKernel(false, 1, computesThenBarrier);
  expectSameTicks(on, off);
  EXPECT_EQ(off.events, 6u);
  EXPECT_EQ(on.events, 3u);
}

/// A compute, then a read of `words` words.
SimTask computeThenRead(CoreContext& ctx, std::uint64_t base, std::size_t words,
                        LagResult* r) {
  std::vector<std::uint64_t> buf(words);
  co_await ctx.compute(250);
  co_await ctx.shmRead(base, buf.data(), words * 8);
  r->marks[static_cast<std::size_t>(ctx.ue())] = ctx.now();
}

SimTask computeThenLongRead(CoreContext& ctx, std::uint64_t base, LagResult* r) {
  return computeThenRead(ctx, base, SccMachine::kShortRun + 10, r);
}

SimTask computeThenShortRead(CoreContext& ctx, std::uint64_t base, LagResult* r) {
  return computeThenRead(ctx, base, SccMachine::kShortRun, r);
}

// With no other task on its controller a run after a compute is issued
// inside the running event at the lag's end: the compute costs no event. A
// run longer than kShortRun issues all 16 words there (start and their
// completion, against start, compute and one event per word); a run of at
// most kShortRun words issues its first word there, decided by the engine's
// cheap horizonLowerBound instead of a horizon scan, and the rest one event
// each (one event fewer than the reference).
TEST(Machine, ComputeThenUncontendedAccessIssuesInTheRunningEvent) {
  const LagResult on = runLagKernel(true, 1, computeThenLongRead);
  const LagResult off = runLagKernel(false, 1, computeThenLongRead);
  expectSameTicks(on, off);
  EXPECT_EQ(off.events, 2u + SccMachine::kShortRun + 10);
  EXPECT_EQ(on.events, 2u);
  EXPECT_EQ(on.word_events, 1u);

  const LagResult short_on = runLagKernel(true, 1, computeThenShortRead);
  const LagResult short_off = runLagKernel(false, 1, computeThenShortRead);
  expectSameTicks(short_on, short_off);
  EXPECT_EQ(short_off.events, 2u + SccMachine::kShortRun);
  EXPECT_EQ(short_on.events, short_off.events - 1);
  EXPECT_EQ(short_on.word_events, SccMachine::kShortRun);
}

/// UE 0 takes lock 0, computes and reads kShortRun words, then releases.
/// A peer on UE 0's controller either asks for lock 0 at t=0 and so is
/// parked on it through UE 0's read (`peer_parks`), or does nothing.
SimTask shortReadBesidePeer(CoreContext& ctx, std::uint64_t base, LagResult* r,
                            bool peer_parks) {
  const MeshTopology& mesh = ctx.machine().mesh();
  int peer = 1;
  while (mesh.controllerForUe(peer, ctx.numUes()) != mesh.controllerForUe(0, ctx.numUes())) {
    ++peer;
  }
  std::vector<std::uint64_t> buf(SccMachine::kShortRun);
  if (ctx.ue() == 0) {
    co_await ctx.lockAcquire(0);
    co_await ctx.compute(250);
    co_await ctx.shmRead(base, buf.data(), buf.size() * 8);
    co_await ctx.lockRelease(0);
  } else if (ctx.ue() == peer && peer_parks) {
    co_await ctx.lockAcquire(0);
    co_await ctx.lockRelease(0);
  }
  r->marks[static_cast<std::size_t>(ctx.ue())] = ctx.now();
}

// horizonLowerBound reads 0 while a task reaching the resource is parked,
// whatever its wake chain: UE 0's short read after a compute then pays the
// lag by suspending (the compute's event is kept, so on and off cost the
// same events), and with the peer idle instead it issues in the running
// event (one event fewer). Fails if the bound skips parked tasks.
TEST(Machine, ParkedPeerOnTheControllerForcesTheShortRunToSuspend) {
  const auto kernel = [](bool peer_parks) {
    return [peer_parks](CoreContext& ctx, std::uint64_t base, LagResult* r) {
      return shortReadBesidePeer(ctx, base, r, peer_parks);
    };
  };
  const LagResult parked_on = runLagKernel(true, 5, kernel(true));
  const LagResult parked_off = runLagKernel(false, 5, kernel(true));
  expectSameTicks(parked_on, parked_off);
  EXPECT_EQ(parked_on.word_events, SccMachine::kShortRun);
  EXPECT_EQ(parked_on.events, parked_off.events);

  const LagResult idle_on = runLagKernel(true, 5, kernel(false));
  const LagResult idle_off = runLagKernel(false, 5, kernel(false));
  expectSameTicks(idle_on, idle_off);
  EXPECT_EQ(idle_on.word_events, SccMachine::kShortRun);
  EXPECT_EQ(idle_on.events, idle_off.events - 1);
}

/// UE 0 streams 256 words from t=0; the next UE on its controller computes
/// past UE 0's first word and then reads 64 words: its lag ends after UE
/// 0's next issue, so it cannot be paid in the running event. The other
/// UEs do nothing.
SimTask lagBehindPeerRun(CoreContext& ctx, std::uint64_t base, LagResult* r) {
  const MeshTopology& mesh = ctx.machine().mesh();
  int peer = 1;
  while (mesh.controllerForUe(peer, ctx.numUes()) != mesh.controllerForUe(0, ctx.numUes())) {
    ++peer;
  }
  std::vector<std::uint64_t> buf(256);
  if (ctx.ue() == 0) {
    co_await ctx.shmRead(base, buf.data(), buf.size() * 8);
  } else if (ctx.ue() == peer) {
    co_await ctx.compute(1000);
    co_await ctx.shmRead(base + 4096, buf.data(), 64 * 8);
  }
  r->marks[static_cast<std::size_t>(ctx.ue())] = ctx.now();
}

// The peer registers its run at the lag's end when it decides, and
// suspends there; UE 0's next event then replays both runs jointly,
// advancing the peer instead of stopping at its event. Five word events:
// UE 0's first word, the joint replay to the peer's last word, UE 0 alone
// up to the finished peer's resume, that resume, and UE 0's rest.
TEST(Machine, LaggedContendedRunRegistersAndIsCarriedByPeerReplay) {
  const LagResult on = runLagKernel(true, 5, lagBehindPeerRun);
  const LagResult off = runLagKernel(false, 5, lagBehindPeerRun);
  expectSameTicks(on, off);
  EXPECT_EQ(off.word_events, 256u + 64u);
  EXPECT_EQ(on.word_events, 5u);
}

/// Staggered computes, a lock-protected critical section with a compute
/// inside, and a barrier: every sync operation follows a compute.
SimTask lagThroughSync(CoreContext& ctx, std::uint64_t base, LagResult* r) {
  const auto ue = static_cast<std::uint64_t>(ctx.ue());
  co_await ctx.compute(40 + (ue * 37) % 5 * 20);
  co_await ctx.lockAcquire(0);
  r->order.push_back(ctx.ue());
  std::uint64_t v = 0;
  co_await ctx.shmRead(base, &v, 8);
  ++v;
  co_await ctx.compute(30);
  co_await ctx.computeOps(4, OpClass::IntAlu);
  co_await ctx.shmWrite(base, &v, 8);
  co_await ctx.compute(5);
  co_await ctx.lockRelease(0);
  co_await ctx.compute(ue * 11);
  co_await ctx.barrier();
  r->marks[static_cast<std::size_t>(ue)] = ctx.now();
}

// Lock acquire, lock release and barrier each pay the lag with a suspension
// first: grant order, release instants and barrier wakes are the reference
// path's, with fewer events (the two computes inside the critical section
// fold into one lag).
TEST(Machine, SyncAfterComputePaysTheLag) {
  const LagResult on = runLagKernel(true, 6, lagThroughSync);
  const LagResult off = runLagKernel(false, 6, lagThroughSync);
  expectSameTicks(on, off);
  EXPECT_EQ(off.order.size(), 6u);
  EXPECT_LT(on.events, off.events);
}

/// The same sync sequence over a cached block: a compute before each of
/// lockAcquire, lockRelease and barrier, and a cached read-modify-write of
/// the block's first word inside the critical section (a hit adds to the
/// lag too).
SimTask lagThroughCachedSync(CoreContext& ctx, std::uint64_t base, LagResult* r) {
  const auto ue = static_cast<std::uint64_t>(ctx.ue());
  co_await ctx.compute(60 + ue * 45);
  co_await ctx.lockAcquire(0);
  r->order.push_back(ctx.ue());
  std::uint64_t v = 0;
  co_await ctx.shmRead(base, &v, 8);
  ++v;
  co_await ctx.shmWrite(base, &v, 8);
  co_await ctx.compute(20);
  co_await ctx.lockRelease(0);
  co_await ctx.compute(ue * 17);
  co_await ctx.barrier();
  r->marks[static_cast<std::size_t>(ue)] = ctx.now();
}

// Each sync operation pays its lag first and then reconciles: the release
// side flushes the dirty counter line, the acquire side invalidates, so
// every holder reads its predecessor's count. Grant order, marks and
// completions are the reference path's.
TEST(Machine, SyncAfterComputeUnderACachedRegionPaysTheLag) {
  const LagResult on = runLagKernel(true, 4, lagThroughCachedSync, /*cached=*/true);
  const LagResult off = runLagKernel(false, 4, lagThroughCachedSync, /*cached=*/true);
  expectSameTicks(on, off);
  EXPECT_EQ(on.order.size(), 4u);
  EXPECT_EQ(on.first_word, 4u);
  EXPECT_EQ(off.first_word, 4u);
  EXPECT_EQ(off.events, 35u);
  EXPECT_EQ(on.events, 31u);
}

/// Computes before a private write, a private read, a private touch and a
/// bulk read: each pays the lag with a suspension first.
SimTask lagBeforeLocalOps(CoreContext& ctx, std::uint64_t base, LagResult* r) {
  const auto ue = static_cast<std::uint64_t>(ctx.ue());
  std::uint64_t v = ue;
  std::vector<std::uint64_t> buf(32);
  co_await ctx.compute(70 + ue * 13);
  co_await ctx.privWrite(ue * 4096, &v, sizeof(v));
  co_await ctx.computeOps(3, OpClass::FpMul);
  co_await ctx.privRead(ue * 4096, &v, sizeof(v));
  co_await ctx.compute(40);
  co_await ctx.privTouch(ue * 4096 + 512, 256, true);
  co_await ctx.compute(25 + ue);
  co_await ctx.shmReadBulk(base + ue * 256, buf.data(), 256);
  r->marks[static_cast<std::size_t>(ue)] = ctx.now();
}

// Private and bulk operations after a compute keep the reference Ticks.
TEST(Machine, PrivateAndBulkOpsPayTheLag) {
  const LagResult on = runLagKernel(true, 8, lagBeforeLocalOps);
  const LagResult off = runLagKernel(false, 8, lagBeforeLocalOps);
  expectSameTicks(on, off);
  EXPECT_EQ(on.events, off.events);  // each lag paid by the suspension a compute cost
}

SimTask endInCompute(CoreContext& ctx, std::uint64_t base, LagResult* r) {
  std::uint64_t word = 0;
  co_await ctx.shmRead(base, &word, 8);
  co_await ctx.compute(1000 + static_cast<std::uint64_t>(ctx.ue()) * 333);
  co_await ctx.computeOps(2, OpClass::FpMul);
  r->marks[static_cast<std::size_t>(ctx.ue())] = ctx.now();
}

// A task whose last operations are computes ends with its lag unpaid: it
// completes at now() + lag, the reference path's completion Tick.
TEST(Machine, TaskEndingInComputeCompletesAtItsLag) {
  const LagResult on = runLagKernel(true, 3, endInCompute);
  const LagResult off = runLagKernel(false, 3, endInCompute);
  expectSameTicks(on, off);
  EXPECT_EQ(on.completions, on.marks);
  EXPECT_EQ(off.events, 3u * 4u);  // start, word, two computes
  EXPECT_EQ(on.events, 3u * 2u);   // start, word
}

// Stall faults are drawn per controller request, so an armed kMcStall turns
// the replay's round jumps off; the word-by-word replay must still match the
// per-event path draw for draw, and record the same stall trace events.
TEST(Machine, StallArmedContentionBitIdenticalAcrossCoalescing) {
  SccConfig cfg;
  cfg.fault.enabled = true;
  cfg.fault.mc_stall.rate = 0.05;
  cfg.trace_enabled = true;
  const SimResult on = runLuShaped(true, cfg);
  const SimResult off = runLuShaped(false, cfg);
  const auto stall = static_cast<std::size_t>(FaultClass::kMcStall);
  EXPECT_GT(off.faults.injected[stall], 0u);
  EXPECT_EQ(on.faults.injected[stall], off.faults.injected[stall]);
  EXPECT_EQ(on.faults.stall_ticks, off.faults.stall_ticks);
  EXPECT_EQ(on.makespan, off.makespan);
  EXPECT_EQ(on.completions, off.completions);
  EXPECT_EQ(on.data, off.data);
  EXPECT_FALSE(off.trace.empty());
  EXPECT_EQ(on.trace, off.trace);
  // The batch layer still engaged (the replay ran, word by word).
  EXPECT_LT(on.shm_word_events, off.shm_word_events);
}

/// Contending word runs whose completions tie: with the DRAM clocked like
/// the mesh, one word's service (8 cycles, 5 ns) equals two mesh hops, so
/// UEs whose hop counts to a shared controller differ by two complete words
/// on the same Tick, and the tie-break decides which acquires next.
SimTask tiedWordsKernel(CoreContext& ctx, std::uint64_t base, int rounds) {
  std::vector<std::uint64_t> buf(96);
  const auto ue = static_cast<std::uint64_t>(ctx.ue());
  for (int r = 0; r < rounds; ++r) {
    const std::size_t words = 32 + (ue * 7 + static_cast<std::uint64_t>(r) * 13) % 64;
    co_await ctx.shmRead(base + ue * buf.size() * 8, buf.data(), words * 8);
    co_await ctx.compute(static_cast<std::uint64_t>(r % 3) * 4);
  }
}

SimResult runTiedWords(bool coalescing, bool stalls) {
  SccConfig cfg;
  cfg.coalescing = coalescing;
  cfg.dram_mhz = cfg.mesh_mhz;
  if (stalls) {
    cfg.fault.enabled = true;
    cfg.fault.mc_stall.rate = 0.05;
  }
  SccMachine machine(cfg);
  constexpr int kUes = 24;
  const std::uint64_t base = machine.shmalloc(kUes * 96 * 8);
  machine.launch(LaunchSpec(kUes, [&](CoreContext& ctx) { return tiedWordsKernel(ctx, base, 12); }));
  SimResult r;
  r.makespan = machine.run();
  for (int ue = 0; ue < kUes; ++ue) {
    r.completions.push_back(machine.engine().completionTime(static_cast<std::size_t>(ue)));
  }
  r.shm_words = machine.shmWordsSimulated();
  r.shm_word_events = machine.shmWordEvents();
  r.faults = machine.faultStats();
  return r;
}

// The joint replay picks ties by the engine's key, (completion Tick, task
// id), so members that tie on completion Ticks acquire in the per-event
// order: same Ticks with coalescing on and off, and with stall faults (drawn
// per controller request, so the acquire order decides who stalls) the same
// draws.
TEST(Machine, TiedCompletionsBitIdenticalAcrossCoalescing) {
  for (const bool stalls : {false, true}) {
    const SimResult on = runTiedWords(true, stalls);
    const SimResult off = runTiedWords(false, stalls);
    EXPECT_EQ(on.makespan, off.makespan) << "stalls " << stalls;
    EXPECT_EQ(on.completions, off.completions) << "stalls " << stalls;
    EXPECT_EQ(on.faults.stall_ticks, off.faults.stall_ticks) << "stalls " << stalls;
    EXPECT_EQ(on.shm_words, off.shm_words);
    EXPECT_LT(on.shm_word_events, off.shm_word_events) << "stalls " << stalls;
    if (stalls) {
      EXPECT_GT(off.faults.stall_ticks, 0u);
    }
  }
}

/// Roles on 12 UEs (three per controller): two readers contend on one
/// controller while a third UE there waits on a lock held by a UE on another
/// controller, which releases it mid-way through the readers' runs. Every
/// other UE finishes at once.
SimTask lockWaitKernel(CoreContext& ctx, int reader_a, int reader_b, int waiter,
                       int holder, std::uint64_t base, std::vector<Tick>* read_done) {
  std::vector<std::uint8_t> buf(4096);
  const int me = ctx.ue();
  const std::uint64_t mine = base + static_cast<std::uint64_t>(me) * buf.size();
  if (me == holder) {
    co_await ctx.lockAcquire(0);
    co_await ctx.compute(3000);
    co_await ctx.lockRelease(0);
  } else if (me == waiter) {
    co_await ctx.compute(100);  // the holder takes the lock first
    co_await ctx.lockAcquire(0);
    co_await ctx.shmRead(mine, buf.data(), buf.size());
    co_await ctx.lockRelease(0);
  } else if (me == reader_a || me == reader_b) {
    co_await ctx.shmRead(mine, buf.data(), buf.size());
  }
  (*read_done)[static_cast<std::size_t>(me)] = ctx.now();
}

std::vector<Tick> runLockWait(bool coalescing) {
  constexpr int kUes = 12;
  SccConfig cfg;
  cfg.coalescing = coalescing;
  const MeshTopology mesh(cfg);
  std::vector<int> on_a;
  int holder = -1;
  const std::uint32_t mc_a = mesh.controllerForUe(0, kUes);
  for (int ue = 0; ue < kUes; ++ue) {
    if (mesh.controllerForUe(ue, kUes) == mc_a) {
      on_a.push_back(ue);
    } else if (holder < 0) {
      holder = ue;
    }
  }
  EXPECT_EQ(on_a.size(), 3u);
  SccMachine machine(cfg);
  const std::uint64_t base = machine.shmalloc(kUes * 4096);
  std::vector<Tick> done(kUes, 0);
  machine.launch(LaunchSpec(kUes, [&](CoreContext& ctx) {
    return lockWaitKernel(ctx, on_a[0], on_a[1], on_a[2], holder, base, &done);
  }));
  machine.run();
  return done;
}

// The unsafe side of the parked-task rule: a lock waiter whose holder is a
// non-member with a pending event can be woken inside the readers' joint
// schedule, so it must keep the contention open (its wake bound is finite,
// not kNever). Batching it away would service the readers' later words
// ahead of the waiter's and shift every Tick after the release.
TEST(Machine, LockWaiterWokenByNonMemberKeepsContentionOpen) {
  EXPECT_EQ(runLockWait(true), runLockWait(false));
}

/// Compute phases skewed by UE followed by block IO: cores take turns at the
/// controllers instead of hammering in lockstep, so there is always pending
/// cross-controller traffic but only sparse same-controller traffic.
SimTask staggeredKernel(CoreContext& ctx, std::uint64_t base, int iterations) {
  std::vector<std::uint8_t> buf(4096);
  const std::uint64_t mine = base + static_cast<std::uint64_t>(ctx.ue()) * 4096;
  for (int i = 0; i < iterations; ++i) {
    co_await ctx.compute(50000 + static_cast<std::uint64_t>(ctx.ue()) * 50000);
    co_await ctx.shmRead(mine, buf.data(), buf.size());
    co_await ctx.shmWrite(mine, buf.data(), buf.size());
  }
}

SimResult runStaggered(bool coalescing) {
  SccConfig cfg;
  cfg.coalescing = coalescing;
  SccMachine machine(cfg);
  const std::uint64_t base = machine.shmalloc(8 * 4096);
  machine.launch(LaunchSpec(8, [&](CoreContext& ctx) { return staggeredKernel(ctx, base, 8); }));
  SimResult r;
  r.makespan = machine.run();
  for (int ue = 0; ue < 8; ++ue) {
    r.completions.push_back(machine.engine().completionTime(static_cast<std::size_t>(ue)));
  }
  r.events = machine.engine().eventsProcessed();
  r.shm_words = machine.shmWordsSimulated();
  r.shm_word_events = machine.shmWordEvents();
  return r;
}

// On a multi-controller mix (8 UEs spread across the four controllers,
// desynchronized by compute skew) the per-controller horizon keeps
// coalescing alive: pending traffic bound for *other* controllers does not
// truncate a word run, which the pinned event count guards. Ticks stay
// bit-identical.
TEST(Machine, PerControllerHorizonPinsStaggeredWordEvents) {
  const SimResult on = runStaggered(true);
  const SimResult off = runStaggered(false);
  EXPECT_EQ(on.makespan, off.makespan);
  EXPECT_EQ(on.completions, off.completions);
  EXPECT_EQ(on.shm_words, 65536u);
  EXPECT_EQ(off.shm_word_events, off.shm_words);
  EXPECT_EQ(on.shm_word_events, 135u);
}

/// Reverse-staggered arrivals into a barrier, then a lock dogpile: all wakes
/// land on one release Tick and all lock requests are issued at that same
/// Tick, so the recorded orders pin down the engine's (time, task_id)
/// contract — wake order and lock-grant order must be ascending UE id,
/// independent of arrival order AND of the coalescing mode (coalescing
/// changes event insertion sequences, which must not leak into ordering).
SimTask wakeOrderKernel(CoreContext& ctx, std::uint64_t base,
                        std::vector<int>* wake_order, std::vector<int>* grant_order) {
  std::vector<std::uint8_t> buf(512);
  // Later UEs compute less, so UE 7 arrives first, UE 0 last.
  co_await ctx.compute(
      static_cast<std::uint64_t>(ctx.numUes() - ctx.ue()) * 5000);
  co_await ctx.shmRead(base + static_cast<std::uint64_t>(ctx.ue()) * 512, buf.data(),
                       buf.size());
  co_await ctx.barrier();
  wake_order->push_back(ctx.ue());
  co_await ctx.lockAcquire(0);
  grant_order->push_back(ctx.ue());
  co_await ctx.lockRelease(0);
}

std::pair<std::vector<int>, std::vector<int>> runWakeOrder(bool coalescing) {
  SccConfig cfg;
  cfg.coalescing = coalescing;
  SccMachine machine(cfg);
  const std::uint64_t base = machine.shmalloc(8 * 512);
  std::vector<int> wake_order;
  std::vector<int> grant_order;
  machine.launch(LaunchSpec(8, [&](CoreContext& ctx) {
    return wakeOrderKernel(ctx, base, &wake_order, &grant_order);
  }));
  machine.run();
  return {wake_order, grant_order};
}

TEST(Machine, BarrierWakeAndLockGrantOrderFollowTaskIdInBothCoalescingModes) {
  const auto on = runWakeOrder(true);
  const auto off = runWakeOrder(false);
  const std::vector<int> ascending{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(on.first, ascending);
  EXPECT_EQ(off.first, ascending);
  EXPECT_EQ(on.second, off.second);
  EXPECT_EQ(on.second, ascending);
}

TEST(Machine, CoalescingStatsAccountAllWords) {
  const SimResult on = runStream(true, 1);
  // 16 blocks x 4096 bytes / 8-byte transactions.
  EXPECT_EQ(on.shm_words, 16u * 4096u / 8u);
  EXPECT_LE(on.shm_word_events, on.shm_words);
  const SimResult off = runStream(false, 1);
  EXPECT_EQ(off.shm_word_events, off.shm_words);
}

// --- MPB chunk coalescing ----------------------------------------------------
// The same hard bar as the shm word path, now for the chunk-granular MPB
// path: identical makespan, per-task completion Ticks, and workload output
// with coalescing on and off — while the coalesced runs process fewer engine
// events.

struct MpbResult {
  Tick makespan = 0;
  std::vector<Tick> completions;
  std::uint64_t events = 0;
  std::uint64_t chunks = 0;
  std::uint64_t chunk_events = 0;
  std::vector<std::uint8_t> data;
};

/// Contended multi-UE put/get: every UE hammers blocks into its right
/// neighbour's slice and reads its own back with no compute stagger, so the
/// port timelines see overlapping traffic and equal-Tick collisions.
SimTask mpbContendedKernel(CoreContext& ctx, std::uint64_t slot, int rounds,
                           std::size_t bytes, std::vector<std::uint8_t>* out) {
  std::vector<std::uint8_t> buf(bytes, static_cast<std::uint8_t>(ctx.ue() + 1));
  const int right = (ctx.ue() + 1) % ctx.numUes();
  for (int r = 0; r < rounds; ++r) {
    co_await ctx.mpbWrite(right, slot, buf.data(), bytes);
    co_await ctx.barrier();
    co_await ctx.mpbRead(ctx.ue(), slot, buf.data(), bytes);
    co_await ctx.barrier();
  }
  (*out)[static_cast<std::size_t>(ctx.ue())] = buf[bytes - 1];
}

MpbResult runMpbContended(bool coalescing, int ues) {
  SccConfig cfg;
  cfg.coalescing = coalescing;
  SccMachine machine(cfg);
  const std::uint64_t slot = machine.mpbMalloc(0, 1024);
  for (int ue = 1; ue < ues; ++ue) machine.mpbMalloc(ue, 1024);
  MpbResult r;
  r.data.assign(static_cast<std::size_t>(ues), 0);
  machine.launch(LaunchSpec(ues, [&](CoreContext& ctx) {
    return mpbContendedKernel(ctx, slot, 4, 1024, &r.data);
  }));
  r.makespan = machine.run();
  for (int ue = 0; ue < ues; ++ue) {
    r.completions.push_back(machine.engine().completionTime(static_cast<std::size_t>(ue)));
  }
  r.events = machine.engine().eventsProcessed();
  r.chunks = machine.mpbChunksSimulated();
  r.chunk_events = machine.mpbChunkEvents();
  return r;
}

TEST(Machine, MpbCoalescingBitIdenticalContendedPutGet) {
  const MpbResult off = runMpbContended(false, 6);
  const MpbResult on = runMpbContended(true, 6);
  EXPECT_EQ(on.makespan, off.makespan);
  EXPECT_EQ(on.completions, off.completions);
  EXPECT_EQ(on.data, off.data);
  EXPECT_EQ(on.chunks, off.chunks);
  EXPECT_LE(on.events, off.events);
  // With coalescing off every chunk is its own event. With it on, a task
  // mid-run on another tile's port counts only at its run scope's end, so
  // each port's horizon sees past the lockstep traffic on the others.
  EXPECT_EQ(off.chunk_events, off.chunks);
  EXPECT_EQ(on.chunk_events, 136u);
  // Four rounds of ring shift: each UE ends up with the byte that started
  // four places to its left, value (ue - 4 mod 6) + 1.
  for (int ue = 0; ue < 6; ++ue) {
    EXPECT_EQ(off.data[static_cast<std::size_t>(ue)],
              static_cast<std::uint8_t>((ue + 2) % 6 + 1));
  }
}

/// Two independent writer→reader streams on different tiles, with MPB
/// scopes declared by a neighbor-ring plan and deliberately overlapping
/// timing: the compute gaps (400/570
/// core cycles) are shorter than a 32-chunk put, so while either writer
/// streams, the other pair almost always has a pending event in the queue.
SimTask portPairKernel(CoreContext& ctx, std::uint64_t slot, int rounds) {
  std::vector<std::uint8_t> buf(1024);
  if (ctx.ue() == 0 || ctx.ue() == 2) {  // writers
    const int reader = ctx.ue() + 1;
    const std::uint64_t cycles = 400 + static_cast<std::uint64_t>(ctx.ue()) * 85;
    for (int r = 0; r < rounds; ++r) {
      co_await ctx.compute(cycles);
      co_await ctx.mpbWrite(reader, slot, buf.data(), buf.size());
    }
  }
  co_await ctx.barrier();
}

MpbResult runPortPairs(bool coalescing) {
  SccConfig cfg;
  cfg.coalescing = coalescing;
  SccMachine machine(cfg);
  std::uint64_t slot = 0;
  for (int ue = 0; ue < 4; ++ue) slot = machine.mpbMalloc(ue, 1024);
  MpbResult r;
  // Writer ue puts into its reader ue + 1's slice: the ring's {ue, ue + 1}.
  const partition::ExecutionPlan ring{{partition::RegionPlan{
      "slot", partition::PlacementClass::kOnChipResident,
      partition::MpbPattern::kNeighborRing, 1024}}};
  machine.launch(LaunchSpec(4, [&](CoreContext& ctx) {
                   return portPairKernel(ctx, slot, 16);
                 }).withPlan(&ring));
  r.makespan = machine.run();
  for (int ue = 0; ue < 4; ++ue) {
    r.completions.push_back(machine.engine().completionTime(static_cast<std::size_t>(ue)));
  }
  r.chunks = machine.mpbChunksSimulated();
  r.chunk_events = machine.mpbChunkEvents();
  return r;
}

// Port-horizon isolation: traffic bound for tile A's port must not truncate
// coalesced runs on tile B's port. With per-port horizons and the ring
// plan's tight scopes both streams coalesce fully: one event per 32-chunk put.
// Ticks stay bit-identical.
TEST(Machine, PortHorizonIsolationAcrossTiles) {
  const MpbResult on = runPortPairs(true);
  const MpbResult off = runPortPairs(false);
  EXPECT_EQ(on.makespan, off.makespan);
  EXPECT_EQ(on.completions, off.completions);
  EXPECT_EQ(on.chunks, 1024u);
  EXPECT_EQ(off.chunk_events, off.chunks);
  EXPECT_EQ(on.chunk_events, 32u);
}

TEST(Machine, PlanScopeViolationsCounted) {
  {
    SccMachine machine;
    std::uint64_t slot = 0;
    for (int ue = 0; ue < 2; ++ue) slot = machine.mpbMalloc(ue, 64);
    std::vector<std::uint8_t> sink(2);
    // Self-staging promises each UE only its own slice: the put target
    // falls outside it.
    const partition::ExecutionPlan self{{partition::RegionPlan{
        "slot", partition::PlacementClass::kOnChipStaged,
        partition::MpbPattern::kSelfStage, 64}}};
    machine.launch(LaunchSpec(2, [&](CoreContext& ctx) {
                     return mpbContendedKernel(ctx, slot, 1, 64, &sink);
                   }).withPlan(&self));
    machine.run();
    EXPECT_GT(machine.mpbScopeViolations(), 0u);
  }
  {
    SccMachine machine;
    std::uint64_t slot = 0;
    for (int ue = 0; ue < 2; ++ue) slot = machine.mpbMalloc(ue, 64);
    std::vector<std::uint8_t> sink(2);
    machine.launch(LaunchSpec(2, [&](CoreContext& ctx) {
      return mpbContendedKernel(ctx, slot, 1, 64, &sink);
    }));  // unrestricted: nothing to violate
    machine.run();
    EXPECT_EQ(machine.mpbScopeViolations(), 0u);
  }
}

TEST(Machine, MpbChunkStatsAccountAllChunks) {
  const MpbResult off = runMpbContended(false, 4);
  // 4 rounds x (1024B put + 1024B get) / 32B chunks per UE.
  EXPECT_EQ(off.chunks, 4u * 4u * 2u * (1024u / 32u));
  EXPECT_EQ(off.chunk_events, off.chunks);
  const MpbResult on = runMpbContended(true, 4);
  EXPECT_EQ(on.chunks, off.chunks);
  EXPECT_LE(on.chunk_events, off.chunk_events);
}

// --- empty-scope launches ----------------------------------------------------
// An empty MPB scope (an MPB-free plan: reach = one controller) with the
// machine barrier:
// byte-identical shared memory, identical makespan, and identical per-task
// completion Ticks with coalescing on and off.

/// Each UE round-trips its own 256-byte block on its own quadrant controller
/// and then waits at the machine barrier. All written values are
/// timing-independent.
SimTask blockRoundTripKernel(CoreContext& ctx, std::uint64_t base, int rounds) {
  std::vector<std::uint8_t> buf(256);
  const auto ue = static_cast<std::uint64_t>(ctx.ue());
  const std::uint64_t mine = base + ue * 256;
  for (int r = 0; r < rounds; ++r) {
    co_await ctx.compute(3000 + (ue % 3) * 1000);
    co_await ctx.shmRead(mine, buf.data(), buf.size());
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<std::uint8_t>(buf[i] + ue + static_cast<std::uint64_t>(r) + i);
    }
    co_await ctx.shmWrite(mine, buf.data(), buf.size());
    co_await ctx.barrier();
  }
}

struct BlockRoundTripResult {
  Tick makespan = 0;
  std::vector<Tick> completions;
  std::vector<std::uint8_t> memory;  ///< full workload region after the run
};

BlockRoundTripResult runBlockRoundTrip(bool coalescing, int ues) {
  SccConfig cfg;
  cfg.coalescing = coalescing;
  SccMachine machine(cfg);
  const std::uint64_t base = machine.shmalloc(static_cast<std::size_t>(ues) * 256);
  const partition::ExecutionPlan no_mpb;
  machine.launch(
      LaunchSpec(ues, [&](CoreContext& ctx) { return blockRoundTripKernel(ctx, base, 4); })
          .withPlan(&no_mpb));
  BlockRoundTripResult r;
  r.makespan = machine.run();
  for (int ue = 0; ue < ues; ++ue) {
    r.completions.push_back(machine.engine().completionTime(static_cast<std::size_t>(ue)));
  }
  const std::uint8_t* data = machine.shmData(base);
  r.memory.assign(data, data + static_cast<std::size_t>(ues) * 256);
  return r;
}

// 64 UEs oversubscribe the 48 cores: UE ids beyond the core table fall back
// to the direct quadrant computation, so the per-tile horizons see the same
// controller mapping as the 8-UE launch.
TEST(Machine, EmptyScopeLaunchBitIdenticalAcrossCoalescing) {
  for (const int ues : {8, 64}) {
    const BlockRoundTripResult ref = runBlockRoundTrip(/*coalescing=*/false, ues);
    const BlockRoundTripResult r = runBlockRoundTrip(/*coalescing=*/true, ues);
    EXPECT_EQ(r.makespan, ref.makespan) << "ues=" << ues;
    EXPECT_EQ(r.completions, ref.completions) << "ues=" << ues;
    EXPECT_EQ(r.memory, ref.memory) << "ues=" << ues;
  }
}

// --- random kernels: coalescing on/off ----------------------------------------

/// The regions a random kernel touches.
struct RandomRegions {
  std::uint64_t shared = 0;  ///< uncached table, read by every UE
  std::uint64_t shared_words = 0;
  std::uint64_t own = 0;     ///< uncached, 48 words per UE
  std::uint64_t cached = 0;  ///< cached table, read by every UE
  std::uint64_t cached_words = 0;
  std::uint64_t cached_own = 0;  ///< cached, 48 words (12 lines) per UE
  std::uint64_t slot = 0;        ///< MPB, 48 words in every UE's slice
};

/// A seeded random kernel: two phases of compute gaps (none now and then,
/// two in a row now and then) and random operations — uncached reads of the
/// shared table and writes into the UE's own slice, cached reads of the
/// cached table and writes into the UE's own cached window (line fills, and
/// write-backs at the barrier's release), a cached window read twice around
/// a compute (the second read all hits), MPB gets from a random UE's slot
/// and puts into its own — with one barrier between the phases and now and
/// then a trailing compute, so word, line and chunk runs meet contention,
/// each other, staggered starts, lags and barrier-parked peers in every mix.
SimTask randomKernel(CoreContext& ctx, RandomRegions g, std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ (static_cast<std::uint64_t>(ctx.ue()) * 0x9E3779B97F4A7C15ULL));
  std::vector<std::uint64_t> buf(48);
  const auto ue = static_cast<std::uint64_t>(ctx.ue());
  for (int phase = 0; phase < 2; ++phase) {
    const int ops = 2 + static_cast<int>(rng() % 4);
    for (int i = 0; i < ops; ++i) {
      if (rng() % 4 != 0) co_await ctx.compute(rng() % 4000);
      if (rng() % 4 == 0) co_await ctx.computeOps(1 + rng() % 64, OpClass::IntAlu);
      const std::size_t n = 1 + rng() % buf.size();
      switch (rng() % 7) {
        case 0:
          co_await ctx.shmWrite(g.own + ue * 48 * 8, buf.data(), n * 8);
          break;
        case 1:
        case 2:
          co_await ctx.shmRead(g.shared + (rng() % (g.shared_words - n)) * 8, buf.data(),
                               n * 8);
          break;
        case 3:
          co_await ctx.shmRead(g.cached + (rng() % (g.cached_words - n)) * 8, buf.data(),
                               n * 8);
          break;
        case 4:
          co_await ctx.shmWrite(g.cached_own + ue * 48 * 8, buf.data(), n * 8);
          break;
        case 5:
          co_await ctx.shmRead(g.cached_own + ue * 48 * 8, buf.data(), n * 8);
          co_await ctx.compute(rng() % 500);
          co_await ctx.shmRead(g.cached_own + ue * 48 * 8, buf.data(), n * 8);
          break;
        default:
          if (rng() % 2 == 0) {
            const int owner = static_cast<int>(rng() % static_cast<std::uint64_t>(ctx.numUes()));
            co_await ctx.mpbRead(owner, g.slot, buf.data(), n * 8);
          } else {
            co_await ctx.mpbWrite(ctx.ue(), g.slot, buf.data(), n * 8);
          }
          break;
      }
    }
    if (phase == 0) co_await ctx.barrier();
  }
  if (rng() % 2 == 0) co_await ctx.compute(1 + rng() % 2000);
}

// Random kernels on 2-48 UEs must give the same makespan and per-task
// completions with coalescing on and off, with the uncached table on each
// UE's own controller and striped across all four (a striped word run's
// controller is not its requester's, so every controller's horizon must see
// every task). The MPB slot is a rotating broadcast under the launch plan
// (put to its own slice, get from any). The event totals of the coalesced
// runs are pinned too, per transaction kind: a queue or run-table change
// that moves an event (not only a Tick) shows up there.
TEST(Machine, RandomKernelsBitIdenticalAcrossCoalescing) {
  const partition::ExecutionPlan plan{{partition::RegionPlan{
      "slot", partition::PlacementClass::kOnChipResident,
      partition::MpbPattern::kRotatingBroadcast, 48 * 8}}};
  std::uint64_t word_events[2] = {};
  std::uint64_t line_events[2] = {};
  std::uint64_t chunk_events[2] = {};
  std::uint64_t events[2] = {};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const int ues = 2 + static_cast<int>(seed * 0x9E3779B97F4A7C15ULL % 47);
    for (const bool striped : {false, true}) {
      SimResult runs[2];
      std::uint64_t lines[2] = {};
      std::uint64_t chunks[2] = {};
      for (const bool coalescing : {false, true}) {
        SccConfig cfg;
        cfg.coalescing = coalescing;
        SccMachine machine(cfg);
        RandomRegions g;
        g.shared_words = 4096;
        g.shared = machine.shmalloc(g.shared_words * 8);
        g.own = machine.shmalloc(static_cast<std::size_t>(ues) * 48 * 8);
        g.cached_words = 2048;
        const std::size_t line = cfg.cache_line_bytes;
        g.cached = machine.shmalloc(g.cached_words * 8, line);
        g.cached_own = machine.shmalloc(static_cast<std::size_t>(ues) * 48 * 8, line);
        machine.addShmRegion(
            {.begin = g.cached,
             .end = g.cached_own + static_cast<std::uint64_t>(ues) * 48 * 8,
             .cached = true});
        for (int ue = 0; ue < ues; ++ue) g.slot = machine.mpbMalloc(ue, 48 * 8);
        if (striped) {
          machine.addShmRegion({.begin = g.shared,
                                .end = g.shared + g.shared_words * 8,
                                .placement = partition::ControllerPlacement::kStriped});
        }
        machine.launch(LaunchSpec(ues, [&](CoreContext& ctx) {
                         return randomKernel(ctx, g, seed);
                       }).withPlan(&plan));
        SimResult& r = runs[coalescing ? 1 : 0];
        r.makespan = machine.run();
        for (int ue = 0; ue < ues; ++ue) {
          r.completions.push_back(
              machine.engine().completionTime(static_cast<std::size_t>(ue)));
        }
        r.events = machine.engine().eventsProcessed();
        r.shm_words = machine.shmWordsSimulated();
        r.shm_word_events = machine.shmWordEvents();
        lines[coalescing ? 1 : 0] = machine.swcacheLinesSimulated();
        chunks[coalescing ? 1 : 0] = machine.mpbChunksSimulated();
        if (coalescing) {
          line_events[striped ? 1 : 0] += machine.swcacheLineEvents();
          chunk_events[striped ? 1 : 0] += machine.mpbChunkEvents();
          EXPECT_EQ(machine.mpbScopeViolations(), 0u) << "seed " << seed;
        }
      }
      EXPECT_EQ(runs[1].makespan, runs[0].makespan) << "seed " << seed << " striped " << striped;
      EXPECT_EQ(runs[1].completions, runs[0].completions)
          << "seed " << seed << " striped " << striped;
      EXPECT_EQ(runs[1].shm_words, runs[0].shm_words) << "seed " << seed;
      EXPECT_EQ(lines[1], lines[0]) << "seed " << seed;
      EXPECT_EQ(chunks[1], chunks[0]) << "seed " << seed;
      word_events[striped ? 1 : 0] += runs[1].shm_word_events;
      events[striped ? 1 : 0] += runs[1].events;
    }
  }
  EXPECT_EQ(word_events[0], 69644u);
  EXPECT_EQ(line_events[0], 49157u);
  EXPECT_EQ(chunk_events[0], 20962u);
  EXPECT_EQ(events[0], 171406u);
  EXPECT_EQ(word_events[1], 309218u);
  EXPECT_EQ(line_events[1], 84027u);
  EXPECT_EQ(chunk_events[1], 25025u);
  EXPECT_EQ(events[1], 455661u);
}

// --- joint contention replay: round jumps vs the stepwise oracle ---------------

/// The joint replay one transaction at a time, in the engine's event order:
/// the earliest next-event instant first; at equal instants the live
/// caller's first transaction (acquired inside the running event), then the
/// lower task id. It stops before any other transaction that would issue at
/// or after `horizon`, and after the first finished run. The oracle for
/// replayJointRuns.
void replayStepwise(std::vector<ReplayMember>& members, ResourceTimeline& timeline,
                    Tick horizon) {
  const auto key = [](const ReplayMember& m) {
    const bool live = m.is_self && m.done == 0;
    return std::tuple(m.t, live ? 0 : 1, m.task);
  };
  for (;;) {
    std::size_t pick = members.size();
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (members[i].remaining == 0) continue;
      if (pick == members.size() || key(members[i]) < key(members[pick])) pick = i;
    }
    ReplayMember& m = members[pick];
    if (m.t >= horizon && !(m.is_self && m.done == 0)) return;
    m.t = timeline.acquire(m.t + m.overhead + m.hop, m.service) + m.hop;
    ++m.done;
    if (--m.remaining == 0) return;
  }
}

struct ReplayCase {
  std::vector<ReplayMember> members;
  ResourceTimeline timeline;
  Tick horizon = Engine::kNever;
};

/// Random members against one controller: 0-8 mesh hops of 2.5 ns each
/// (Table 6.1's mesh), starts scattered `spread` Ticks around the instant
/// the timeline frees, distinct shuffled task ids; member 0 is the live
/// caller (its id is not always the lowest). Every member issues with
/// `overhead` and is served for `service`, unless `mixed`: then each draws
/// its own pair, as word runs (15 ns issue, 7.504 ns service) and swcache
/// line runs (45 ns issue, 15.008 ns service) sharing a controller do.
ReplayCase randomReplayCase(std::mt19937_64& rng, std::size_t n, std::size_t max_run,
                            Tick overhead, Tick spread, Tick service = 7504,
                            bool mixed = false) {
  ReplayCase c;
  constexpr Tick kBase = 1'000'000'000;
  c.timeline.acquire(kBase - service, service);  // nextFree() == kBase
  c.timeline.acquire(kBase + std::uniform_int_distribution<Tick>(0, spread)(rng), service);
  std::vector<std::size_t> tasks(n);
  for (std::size_t i = 0; i < n; ++i) tasks[i] = 1 + 3 * i;
  std::shuffle(tasks.begin(), tasks.end(), rng);
  for (std::size_t i = 0; i < n; ++i) {
    ReplayMember m{};
    m.task = tasks[i];
    m.t = kBase - spread + std::uniform_int_distribution<Tick>(0, 2 * spread)(rng);
    m.overhead = overhead;
    m.service = service;
    if (mixed && rng() % 2 == 0) {
      m.overhead = 3 * overhead;
      m.service = 2 * service;
    }
    m.hop = 2500 * std::uniform_int_distribution<Tick>(0, 8)(rng);
    m.remaining = std::uniform_int_distribution<std::size_t>(1, max_run)(rng);
    m.is_self = i == 0;
    c.members.push_back(m);
  }
  return c;
}

/// Runs `c` both ways and requires identical outcomes; returns the jumped
/// replay's result and stores in `*finished` whether a run finished (rather
/// than the horizon stopping the replay).
JointReplay expectReplayMatchesOracle(const ReplayCase& c, const std::string& what,
                                      bool* finished = nullptr) {
  ReplayCase jumped = c;
  ReplayCase oracle = c;
  const JointReplay r = replayJointRuns(jumped.members, jumped.timeline, c.horizon);
  replayStepwise(oracle.members, oracle.timeline, c.horizon);
  EXPECT_EQ(jumped.timeline.nextFree(), oracle.timeline.nextFree()) << what;
  EXPECT_EQ(jumped.timeline.totalBusy(), oracle.timeline.totalBusy()) << what;
  EXPECT_EQ(jumped.timeline.requests(), oracle.timeline.requests()) << what;
  std::uint64_t txns = 0;
  for (std::size_t i = 0; i < c.members.size(); ++i) {
    const ReplayMember& a = jumped.members[i];
    const ReplayMember& b = oracle.members[i];
    EXPECT_EQ(a.t, b.t) << what << " member " << i;
    EXPECT_EQ(a.done, b.done) << what << " member " << i;
    EXPECT_EQ(a.remaining, b.remaining) << what << " member " << i;
    txns += b.done;
  }
  EXPECT_EQ(r.txns, txns) << what;
  if (finished != nullptr) {
    *finished = std::any_of(jumped.members.begin(), jumped.members.end(),
                            [](const ReplayMember& m) { return m.remaining == 0; });
  }
  return r;
}

// Member counts 2-16, mixed hops, runs of 1-2000 transactions, scattered
// start offsets, on a saturated controller (15 ns issue overhead: requests
// queue) and an unsaturated one (1 us overhead: the controller idles between
// transactions). A 7.5 ns service (three hops) makes members tie on t, so
// the task-id tie-break decides picks. Half the trials give members their
// own issue overhead and service (words and lines on one controller), and
// half bound the replay by a horizon a few hundred transactions out, which
// must cap the round jump. Every timeline counter and per-member result must
// equal the stepwise replay's.
TEST(ContentionReplay, RoundJumpMatchesWordByWordOracle) {
  std::mt19937_64 rng(0x5CC0FFEEULL);
  std::uint64_t jumped_cases = 0;
  std::uint64_t jumped_to_horizon = 0;
  for (int trial = 0; trial < 1200; ++trial) {
    const std::size_t n = std::uniform_int_distribution<std::size_t>(2, 16)(rng);
    const Tick overhead = trial % 3 == 2 ? 1'000'000 : 15'000;
    const Tick spread = trial % 2 == 0 ? 0 : 200'000;
    const std::size_t max_run = trial % 5 == 0 ? 20 : 2000;
    const Tick service = trial % 4 == 3 ? 7500 : 7504;
    ReplayCase c = randomReplayCase(rng, n, max_run, overhead, spread, service,
                                    /*mixed=*/trial % 8 >= 4);
    if (trial >= 600) {
      c.horizon = 1'000'000'000 + std::uniform_int_distribution<Tick>(0, 300'000'000)(rng);
    }
    bool finished = false;
    const JointReplay r =
        expectReplayMatchesOracle(c, "trial " + std::to_string(trial), &finished);
    if (r.stepped < r.txns) {
      ++jumped_cases;
      if (!finished) ++jumped_to_horizon;
    }
  }
  EXPECT_GT(jumped_cases, 600u);
  EXPECT_GT(jumped_to_horizon, 50u);
  // Zero-latency transactions (no issue overhead, hop or service): a window
  // can leave every t in place while serving one member twice and another
  // not at all, so only the per-window pick count tells a translation from
  // a stall.
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = std::uniform_int_distribution<std::size_t>(2, 16)(rng);
    ReplayCase c = randomReplayCase(rng, n, 50, 0, trial % 2 == 0 ? 30 : 0, 0);
    for (ReplayMember& m : c.members) m.hop = 0;
    if (trial % 4 == 3) c.horizon = 1'000'000'000 + 10;
    expectReplayMatchesOracle(c, "zero-latency trial " + std::to_string(trial));
  }
}

// Twelve members saturating one controller with equal runs (the shape a
// barrier release produces), their hops within one transaction's service
// of each other (0-2 mesh hops): once the controller saturates, the pick
// order is fixed, so the replay must detect its periodic round within three
// windows and jump, stepping at most three windows plus the tail one
// transaction at a time. (Wider hop spreads reorder the picks for a few more
// windows before the round settles; the randomized oracle test above covers
// them.)
TEST(ContentionReplay, SaturatedRoundJumpFires) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    ReplayCase c = randomReplayCase(rng, 12, 2000, 15'000, trial % 2 == 0 ? 0 : 20'000);
    for (ReplayMember& m : c.members) {
      m.remaining = 2000;
      m.hop = 2500 * ((m.task / 3) % 3);
    }
    const JointReplay r = expectReplayMatchesOracle(c, "trial " + std::to_string(trial));
    EXPECT_LE(r.stepped, 3u * 12u + 12u) << "trial " << trial;
  }
}

// A lone run (no peers: the one-member set SccMachine::timedRun replays a
// caller alone with) jumps in closed form too, and a horizon stops it
// exactly where the stepwise loop stops, on saturated, idle and
// zero-latency controllers.
TEST(ContentionReplay, LoneRunJumpsToItsHorizon) {
  for (const Tick horizon : {Engine::kNever, Tick{1'000'000'000 + 5'000'000}}) {
    ReplayCase c;
    c.horizon = horizon;
    c.members.push_back(ReplayMember{7, 1'000'000'000, 15'000, 5'000, 7'504, 4096, true});
    const JointReplay r = expectReplayMatchesOracle(c, "horizon " + std::to_string(horizon));
    EXPECT_LE(r.stepped, 3u);
    EXPECT_EQ(r.txns == 4096, horizon == Engine::kNever);
  }
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    const bool zero = trial % 5 == 4;
    ReplayCase c = randomReplayCase(rng, 1, trial % 3 == 0 ? 20 : 2000,
                                    zero ? 0 : (trial % 2 == 0 ? 15'000 : 1'000'000),
                                    trial % 4 < 2 ? 0 : 200'000, zero ? 0 : 7504);
    if (zero) c.members[0].hop = 0;
    c.members[0].is_self = trial % 7 != 0;
    if (trial % 3 != 2) {
      c.horizon = 1'000'000'000 + std::uniform_int_distribution<Tick>(0, 30'000'000)(rng);
    }
    expectReplayMatchesOracle(c, "lone trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace hsm::sim
