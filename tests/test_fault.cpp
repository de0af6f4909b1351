// Tests for the deterministic fault-injection subsystem (sim/fault/fault.h)
// and the recovery / no-progress layers built on it: checksum-verify retry
// of MPB and shared-DRAM transfers, flushed-line reconciliation, controller
// stalls, core freezes, and the machine-level deadlock / sync-timeout
// reporting (docs/fault_model.md).
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "sim/fault/fault.h"
#include "sim/machine.h"

namespace hsm::sim {
namespace {

// --- FaultInjector: stateless seeded draws ----------------------------------

TEST(FaultInjector, DisabledPlanArmsNothing) {
  FaultPlan plan;  // enabled = false
  plan.mpb_transfer.rate = 1.0;
  plan.shm_write.rate = 1.0;
  const FaultInjector inj(plan);
  EXPECT_FALSE(inj.enabled());
  EXPECT_FALSE(inj.anyArmed());
  EXPECT_FALSE(inj.fires(FaultClass::kMpbTransfer, 0, 0, 0));
}

TEST(FaultInjector, EnabledZeroRatesDrawNothing) {
  FaultPlan plan;
  plan.enabled = true;
  const FaultInjector inj(plan);
  EXPECT_TRUE(inj.enabled());
  EXPECT_FALSE(inj.anyArmed());  // the hot-path gate for armed-but-quiet runs
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_FALSE(inj.fires(FaultClass::kShmWrite, 3, i, 100));
  }
}

TEST(FaultInjector, SameSeedSameSchedule) {
  FaultPlan plan;
  plan.enabled = true;
  plan.mpb_transfer.rate = 0.5;
  const FaultInjector a(plan), b(plan);
  int fired = 0;
  for (std::uint64_t stream = 0; stream < 8; ++stream) {
    for (std::uint64_t index = 0; index < 64; ++index) {
      const bool fa = a.fires(FaultClass::kMpbTransfer, stream, index, 0);
      EXPECT_EQ(fa, b.fires(FaultClass::kMpbTransfer, stream, index, 0));
      fired += fa ? 1 : 0;
    }
  }
  // rate 0.5 over 512 draws: a degenerate hash would give 0 or 512.
  EXPECT_GT(fired, 128);
  EXPECT_LT(fired, 384);
}

TEST(FaultInjector, DifferentSeedDifferentSchedule) {
  FaultPlan plan;
  plan.enabled = true;
  plan.shm_write.rate = 0.5;
  FaultPlan other = plan;
  other.seed ^= 0xdeadbeef;
  const FaultInjector a(plan), b(other);
  int diffs = 0;
  for (std::uint64_t index = 0; index < 256; ++index) {
    diffs += a.fires(FaultClass::kShmWrite, 0, index, 0) !=
                     b.fires(FaultClass::kShmWrite, 0, index, 0)
                 ? 1
                 : 0;
  }
  EXPECT_GT(diffs, 0);
}

TEST(FaultInjector, ClassesDrawIndependentStreams) {
  FaultPlan plan;
  plan.enabled = true;
  plan.mpb_transfer.rate = 0.5;
  plan.shm_write.rate = 0.5;
  const FaultInjector inj(plan);
  int diffs = 0;
  for (std::uint64_t index = 0; index < 256; ++index) {
    diffs += inj.fires(FaultClass::kMpbTransfer, 0, index, 0) !=
                     inj.fires(FaultClass::kShmWrite, 0, index, 0)
                 ? 1
                 : 0;
  }
  EXPECT_GT(diffs, 0);
}

TEST(FaultInjector, RateOneFiresInsideWindowOnly) {
  FaultPlan plan;
  plan.enabled = true;
  plan.mc_stall.rate = 1.0;
  plan.mc_stall.window = FaultWindow{1000, 2000};
  const FaultInjector inj(plan);
  EXPECT_FALSE(inj.fires(FaultClass::kMcStall, 0, 0, 999));
  EXPECT_TRUE(inj.fires(FaultClass::kMcStall, 0, 0, 1000));
  EXPECT_TRUE(inj.fires(FaultClass::kMcStall, 0, 0, 1999));
  EXPECT_FALSE(inj.fires(FaultClass::kMcStall, 0, 0, 2000));  // half-open
}

TEST(FaultInjector, CorruptionIsDetectableAndDeterministic) {
  FaultPlan plan;
  plan.enabled = true;
  plan.mpb_transfer.rate = 1.0;
  const FaultInjector inj(plan);
  for (std::uint64_t index = 0; index < 32; ++index) {
    std::vector<std::uint8_t> buf(64, 0xab), twin(64, 0xab);
    const std::vector<std::uint8_t> orig = buf;
    inj.corruptBytes(buf.data(), buf.size(), FaultClass::kMpbTransfer, 2, index);
    EXPECT_NE(buf, orig);  // always detectable by exact compare
    inj.corruptBytes(twin.data(), twin.size(), FaultClass::kMpbTransfer, 2, index);
    EXPECT_EQ(buf, twin);  // same draw coordinates, same corruption
  }
}

TEST(FaultInjector, PickStaysInRange) {
  FaultPlan plan;
  plan.enabled = true;
  const FaultInjector inj(plan);
  for (std::uint64_t index = 0; index < 64; ++index) {
    EXPECT_LT(inj.pick(7, FaultClass::kSwcacheFlush, 1, index), 7u);
  }
}

TEST(FaultInjector, BackoffGrowsExponentially) {
  FaultPlan plan;
  plan.enabled = true;
  plan.retry_backoff_base_ticks = 1000;
  const FaultInjector inj(plan);
  EXPECT_EQ(inj.backoff(0), 1000u);
  EXPECT_EQ(inj.backoff(1), 2000u);
  EXPECT_EQ(inj.backoff(3), 8000u);
}

TEST(FaultInjector, PermafrostFreezesForeverAfterThreshold) {
  FaultPlan plan;
  plan.enabled = true;
  plan.permafrost_ue = 3;
  plan.permafrost_after_ops = 5;
  const FaultInjector inj(plan);
  EXPECT_TRUE(inj.anyArmed());  // a permanent freeze arms the injector
  EXPECT_EQ(inj.freezeTicks(3, 4, 0), 0u);
  EXPECT_EQ(inj.freezeTicks(3, 5, 0), FaultInjector::kFreezeForever);
  EXPECT_EQ(inj.freezeTicks(2, 5, 0), 0u);  // other UEs unaffected
}

TEST(FaultStats, RecoveryRateCoversRecoverableClassesOnly) {
  FaultStats s;
  EXPECT_DOUBLE_EQ(s.recoveryRate(), 1.0);  // nothing injected
  s.injected[static_cast<std::size_t>(FaultClass::kMpbTransfer)] = 3;
  s.recovered[static_cast<std::size_t>(FaultClass::kMpbTransfer)] = 3;
  s.injected[static_cast<std::size_t>(FaultClass::kMcStall)] = 100;  // absorbed
  s.injected[static_cast<std::size_t>(FaultClass::kCoreFreeze)] = 7;  // served
  EXPECT_DOUBLE_EQ(s.recoveryRate(), 1.0);
  s.injected[static_cast<std::size_t>(FaultClass::kShmWrite)] = 1;  // unrepaired
  EXPECT_DOUBLE_EQ(s.recoveryRate(), 0.75);
}

// --- machine-level recovery -------------------------------------------------

constexpr std::size_t kBlock = 256;
constexpr int kBlocksPerUe = 8;

/// Each UE publishes kBlocksPerUe deterministic blocks into its own slice of
/// [base, ...) — one writer per byte, so the expected final memory is
/// computable host-side regardless of scheduling or injected faults.
SimTask blockWriter(CoreContext& ctx, std::uint64_t base) {
  std::vector<std::uint8_t> buf(kBlock);
  for (int b = 0; b < kBlocksPerUe; ++b) {
    for (std::size_t i = 0; i < kBlock; ++i) {
      buf[i] = static_cast<std::uint8_t>(ctx.ue() * 31 + b * 7 + i);
    }
    const std::uint64_t off =
        base + (static_cast<std::uint64_t>(ctx.ue()) * kBlocksPerUe + b) * kBlock;
    co_await ctx.shmWrite(off, buf.data(), kBlock);
  }
  co_await ctx.barrier();
}

std::vector<std::uint8_t> expectedBlocks(int ues) {
  std::vector<std::uint8_t> mem(static_cast<std::size_t>(ues) * kBlocksPerUe * kBlock);
  for (int ue = 0; ue < ues; ++ue) {
    for (int b = 0; b < kBlocksPerUe; ++b) {
      for (std::size_t i = 0; i < kBlock; ++i) {
        mem[(static_cast<std::size_t>(ue) * kBlocksPerUe + b) * kBlock + i] =
            static_cast<std::uint8_t>(ue * 31 + b * 7 + i);
      }
    }
  }
  return mem;
}

struct BlockRun {
  Tick makespan = 0;
  std::vector<std::uint8_t> memory;
  FaultStats stats;
};

BlockRun runBlockWriters(const FaultPlan& plan, int ues, bool cached = false) {
  SccConfig cfg;
  cfg.fault = plan;
  SccMachine m(cfg);
  const std::size_t bytes = static_cast<std::size_t>(ues) * kBlocksPerUe * kBlock;
  const std::uint64_t base = m.shmalloc(bytes);
  if (cached) m.setShmCacheability(base, base + bytes, true);
  m.launch(LaunchSpec(ues, [=](CoreContext& ctx) { return blockWriter(ctx, base); }));
  BlockRun r;
  r.makespan = m.run();
  r.memory.assign(m.shmData(base), m.shmData(base) + bytes);
  r.stats = m.faultStats();
  return r;
}

TEST(FaultMachine, ZeroRateArmedRunBitIdenticalToDisabled) {
  FaultPlan off;  // enabled = false
  FaultPlan zero;
  zero.enabled = true;  // armed-but-quiet: every rate zero
  const BlockRun a = runBlockWriters(off, 4);
  const BlockRun b = runBlockWriters(zero, 4);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.memory, b.memory);
  EXPECT_EQ(b.stats.totalInjected(), 0u);
  EXPECT_EQ(b.stats.retries, 0u);
}

TEST(FaultMachine, ShmWriteFaultsDetectedAndRepaired) {
  FaultPlan plan;
  plan.enabled = true;
  plan.shm_write.rate = 0.3;
  const BlockRun r = runBlockWriters(plan, 4);
  const auto cls = static_cast<std::size_t>(FaultClass::kShmWrite);
  EXPECT_GT(r.stats.injected[cls], 0u);
  EXPECT_EQ(r.stats.recovered[cls], r.stats.injected[cls]);
  EXPECT_EQ(r.stats.unrecovered, 0u);
  EXPECT_GT(r.stats.retries, 0u);
  EXPECT_EQ(r.memory, expectedBlocks(4));  // corrupted words were rewritten
  // Retries serve simulated backoff, so the faulty run takes longer.
  EXPECT_GT(r.makespan, runBlockWriters(FaultPlan{}, 4).makespan);
}

TEST(FaultMachine, SameSeedReplayIsIdentical) {
  FaultPlan plan;
  plan.enabled = true;
  plan.shm_write.rate = 0.3;
  plan.mc_stall.rate = 0.1;
  const BlockRun a = runBlockWriters(plan, 4);
  const BlockRun b = runBlockWriters(plan, 4);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.memory, b.memory);
  EXPECT_EQ(a.stats.totalInjected(), b.stats.totalInjected());
  EXPECT_EQ(a.stats.retries, b.stats.retries);
  EXPECT_EQ(a.stats.stall_ticks, b.stats.stall_ticks);
}

TEST(FaultMachine, DifferentSeedDifferentSchedule) {
  FaultPlan plan;
  plan.enabled = true;
  plan.shm_write.rate = 0.3;
  FaultPlan other = plan;
  other.seed ^= 0x1234567;
  const BlockRun a = runBlockWriters(plan, 4);
  const BlockRun b = runBlockWriters(other, 4);
  EXPECT_TRUE(a.makespan != b.makespan ||
              a.stats.totalInjected() != b.stats.totalInjected());
  EXPECT_EQ(a.memory, b.memory);  // recovery makes results seed-independent
}

TEST(FaultMachine, SwcacheFlushFaultsRepairedToExactDram) {
  FaultPlan plan;
  plan.enabled = true;
  plan.swcache_flush.rate = 1.0;  // corrupt a flushed line at EVERY release
  const BlockRun faulty = runBlockWriters(plan, 4, /*cached=*/true);
  const auto cls = static_cast<std::size_t>(FaultClass::kSwcacheFlush);
  EXPECT_GT(faulty.stats.injected[cls], 0u);
  EXPECT_EQ(faulty.stats.recovered[cls], faulty.stats.injected[cls]);
  EXPECT_EQ(faulty.stats.unrecovered, 0u);
  EXPECT_EQ(faulty.memory, expectedBlocks(4));  // reconciliation restored DRAM
}

TEST(FaultMachine, McStallAddsDeterministicLatency) {
  FaultPlan plan;
  plan.enabled = true;
  plan.mc_stall.rate = 0.5;
  const BlockRun faulty = runBlockWriters(plan, 2);
  const BlockRun clean = runBlockWriters(FaultPlan{}, 2);
  EXPECT_GT(faulty.stats.stall_ticks, 0u);
  EXPECT_GT(faulty.makespan, clean.makespan);
  EXPECT_EQ(faulty.memory, clean.memory);  // stalls cost time, not data
  EXPECT_EQ(faulty.stats.unrecovered, 0u);
}

TEST(FaultMachine, TransientFreezeDelaysButCompletes) {
  FaultPlan plan;
  plan.enabled = true;
  plan.core_freeze.rate = 0.5;
  plan.core_freeze_ticks = 1'000'000;
  const BlockRun faulty = runBlockWriters(plan, 2);
  EXPECT_GT(faulty.stats.freezes, 0u);
  EXPECT_GT(faulty.makespan, runBlockWriters(FaultPlan{}, 2).makespan);
  EXPECT_EQ(faulty.memory, expectedBlocks(2));
}

// --- MPB transfer recovery ---------------------------------------------------

/// UE writes a pattern into its own MPB, barrier, reads the peer's MPB and
/// republishes it to shared DRAM so the test can verify delivery end to end.
SimTask mpbExchange(CoreContext& ctx, std::uint64_t out) {
  std::uint8_t buf[kBlock];
  for (std::size_t i = 0; i < kBlock; ++i) {
    buf[i] = static_cast<std::uint8_t>(ctx.ue() * 97 + i);
  }
  co_await ctx.mpbWrite(ctx.ue(), 0, buf, kBlock);
  co_await ctx.barrier();
  const int peer = (ctx.ue() + 1) % ctx.numUes();
  co_await ctx.mpbRead(peer, 0, buf, kBlock);
  co_await ctx.shmWrite(out + static_cast<std::uint64_t>(ctx.ue()) * kBlock, buf,
                        kBlock);
  co_await ctx.barrier();
}

TEST(FaultMachine, MpbTransferFaultsDetectedAndRepaired) {
  FaultPlan plan;
  plan.enabled = true;
  plan.mpb_transfer.rate = 0.4;
  SccConfig cfg;
  cfg.fault = plan;
  SccMachine m(cfg);
  const std::uint64_t out = m.shmalloc(2 * kBlock);
  m.launch(LaunchSpec(2, [=](CoreContext& ctx) { return mpbExchange(ctx, out); }));
  m.run();
  const auto cls = static_cast<std::size_t>(FaultClass::kMpbTransfer);
  const FaultStats& s = m.faultStats();
  EXPECT_GT(s.injected[cls], 0u);
  EXPECT_EQ(s.recovered[cls], s.injected[cls]);
  EXPECT_EQ(s.unrecovered, 0u);
  for (int ue = 0; ue < 2; ++ue) {
    const int peer = (ue + 1) % 2;
    const std::uint8_t* got = m.shmData(out + static_cast<std::uint64_t>(ue) * kBlock);
    for (std::size_t i = 0; i < kBlock; ++i) {
      ASSERT_EQ(got[i], static_cast<std::uint8_t>(peer * 97 + i))
          << "ue " << ue << " byte " << i;
    }
  }
}

// --- deadlock / sync-timeout reporting ---------------------------------------

SimTask readThenBarrier(CoreContext& ctx, std::uint64_t base) {
  std::uint64_t v = 0;
  co_await ctx.shmRead(base, &v, sizeof(v));
  co_await ctx.barrier();
}

TEST(FaultMachine, PermanentFreezeRaisesDeadlockNamingFrozenTask) {
  FaultPlan plan;
  plan.enabled = true;
  plan.permafrost_ue = 1;
  plan.permafrost_after_ops = 0;  // wedge UE 1 at its first timed operation
  SccConfig cfg;
  cfg.fault = plan;
  SccMachine m(cfg);
  const std::uint64_t base = m.shmalloc(64);
  m.launch(LaunchSpec(2, [=](CoreContext& ctx) { return readThenBarrier(ctx, base); }));
  try {
    m.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_EQ(e.kind(), SimHangError::Kind::kDeadlock);
    bool frozen_named = false, barrier_waiter = false;
    for (const HangReport::Waiter& w : e.report().waiters) {
      if (w.task == 1 && w.sync == Engine::kNoSync) frozen_named = true;
      if (w.task == 0 && w.sync != Engine::kNoSync) barrier_waiter = true;
    }
    EXPECT_TRUE(frozen_named) << e.what();
    EXPECT_TRUE(barrier_waiter) << e.what();
    EXPECT_NE(std::string(e.what()).find("task 1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("unknown mechanism"), std::string::npos);
    EXPECT_EQ(m.faultStats()
                  .injected[static_cast<std::size_t>(FaultClass::kCoreFreeze)],
              1u);
  }
}

SimTask holdLockLong(CoreContext& ctx) {
  co_await ctx.lockAcquire(0);
  // Hold far beyond the configured timeout, in chunks: the timeout check
  // runs after each event resume, so the overstayed wait must be observable
  // while the contender is still parked (a single long compute would advance
  // time and release the lock inside one resume, un-parking the waiter
  // before any check sees it).
  for (int i = 0; i < 8; ++i) co_await ctx.compute(125'000);
  co_await ctx.lockRelease(0);
}

SimTask contendLock(CoreContext& ctx) {
  co_await ctx.compute(100);  // let UE 0 take the lock first
  co_await ctx.lockAcquire(0);
  co_await ctx.lockRelease(0);
}

TEST(FaultMachine, SyncTimeoutRaisedOnOverstayedLockWait) {
  SccConfig cfg;
  cfg.sync_timeout_ticks = 10'000;  // 10 ns: UE 0 holds for >1 ms of core time
  SccMachine m(cfg);
  m.launch(LaunchSpec(2, [](CoreContext& ctx) {
    return ctx.ue() == 0 ? holdLockLong(ctx) : contendLock(ctx);
  }));
  try {
    m.run();
    FAIL() << "expected SyncTimeout";
  } catch (const SyncTimeout& e) {
    EXPECT_EQ(e.kind(), SimHangError::Kind::kSyncTimeout);
    bool lock_waiter = false;
    for (const HangReport::Waiter& w : e.report().waiters) {
      if (w.task == 1 && w.sync != Engine::kNoSync) lock_waiter = true;
    }
    EXPECT_TRUE(lock_waiter) << e.what();
  }
}

TEST(FaultMachine, GenerousSyncTimeoutDoesNotFire) {
  SccConfig cfg;
  cfg.sync_timeout_ticks = static_cast<Tick>(1) << 60;
  SccMachine m(cfg);
  m.launch(LaunchSpec(2, [](CoreContext& ctx) {
    return ctx.ue() == 0 ? holdLockLong(ctx) : contendLock(ctx);
  }));
  EXPECT_NO_THROW(m.run());
}


// --- pinned verified paths ----------------------------------------------------

/// FNV-1a over a byte string (the binary trace dump).
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Bulk twin of blockWriter: every block goes out through shmWriteBulk.
SimTask bulkBlockWriter(CoreContext& ctx, std::uint64_t base) {
  std::vector<std::uint8_t> buf(kBlock);
  for (int b = 0; b < kBlocksPerUe; ++b) {
    for (std::size_t i = 0; i < kBlock; ++i) {
      buf[i] = static_cast<std::uint8_t>(ctx.ue() * 13 + b * 5 + i);
    }
    const std::uint64_t off =
        base + (static_cast<std::uint64_t>(ctx.ue()) * kBlocksPerUe + b) * kBlock;
    co_await ctx.shmWriteBulk(off, buf.data(), kBlock);
  }
  co_await ctx.barrier();
}

/// kBlocksPerUe MPB puts into the UE's own slice.
SimTask mpbPutter(CoreContext& ctx) {
  std::vector<std::uint8_t> buf(kBlock);
  for (int b = 0; b < kBlocksPerUe; ++b) {
    for (std::size_t i = 0; i < kBlock; ++i) {
      buf[i] = static_cast<std::uint8_t>(ctx.ue() * 29 + b * 3 + i);
    }
    co_await ctx.mpbWrite(ctx.ue(), static_cast<std::uint64_t>(b) * kBlock, buf.data(),
                          kBlock);
  }
  co_await ctx.barrier();
}

/// kBlocksPerUe MPB gets from the right neighbor's host-seeded slice.
SimTask mpbGetter(CoreContext& ctx) {
  std::vector<std::uint8_t> buf(kBlock);
  const int peer = (ctx.ue() + 1) % ctx.numUes();
  for (int b = 0; b < kBlocksPerUe; ++b) {
    co_await ctx.mpbRead(peer, static_cast<std::uint64_t>(b) * kBlock, buf.data(),
                         kBlock);
  }
  co_await ctx.barrier();
}

enum class VerifiedPath { kShmWord, kShmBulk, kMpbPut, kMpbGet, kSwcacheFlush };

struct PinnedRun {
  Tick makespan = 0;
  FaultStats stats;
  std::uint64_t trace_fnv = 0;
};

/// One small traced 4-UE kernel on `path` with that path's class armed.
PinnedRun runVerifiedPath(VerifiedPath path) {
  constexpr int kUes = 4;
  SccConfig cfg;
  cfg.trace_enabled = true;
  cfg.fault.enabled = true;
  switch (path) {
    case VerifiedPath::kShmWord: cfg.fault.shm_write.rate = 0.3; break;
    case VerifiedPath::kShmBulk: cfg.fault.shm_write.rate = 0.5; break;
    case VerifiedPath::kMpbPut:
    case VerifiedPath::kMpbGet: cfg.fault.mpb_transfer.rate = 0.4; break;
    case VerifiedPath::kSwcacheFlush: cfg.fault.swcache_flush.rate = 0.5; break;
  }
  SccMachine m(cfg);
  const std::size_t bytes = static_cast<std::size_t>(kUes) * kBlocksPerUe * kBlock;
  const std::uint64_t base = m.shmalloc(bytes, cfg.cache_line_bytes);
  if (path == VerifiedPath::kSwcacheFlush) m.setShmCacheability(base, base + bytes, true);
  if (path == VerifiedPath::kMpbGet) {
    for (int ue = 0; ue < kUes; ++ue) {
      for (std::size_t i = 0; i < kBlocksPerUe * kBlock; ++i) {
        *m.mpbData(ue, i) = static_cast<std::uint8_t>(ue * 41 + i);
      }
    }
  }
  m.launch(LaunchSpec(kUes, [=](CoreContext& ctx) {
    switch (path) {
      case VerifiedPath::kShmBulk: return bulkBlockWriter(ctx, base);
      case VerifiedPath::kMpbPut: return mpbPutter(ctx);
      case VerifiedPath::kMpbGet: return mpbGetter(ctx);
      default: return blockWriter(ctx, base);
    }
  }));
  PinnedRun r;
  r.makespan = m.run();
  r.stats = m.faultStats();
  std::ostringstream json;
  m.writeTrace(json);
  r.trace_fnv = fnv1a(json.str());
  return r;
}

struct PinnedPath {
  VerifiedPath path;
  const char* name;
  Tick makespan;
  std::uint64_t injected[kNumFaultClasses];
  std::uint64_t recovered[kNumFaultClasses];
  std::uint64_t retries;
  std::uint64_t stall_ticks;
  std::uint64_t freezes;
  std::uint64_t unrecovered;
  std::uint64_t trace_fnv;
};

TEST(FaultMachine, VerifiedPathsPinned) {
  // Exact pins of every verify-and-retry path: makespan, every FaultStats
  // field and the Chrome JSON trace bytes (FNV-1a), so any change to the draw
  // keys, stats bookkeeping, backoff or fault instants shows up here.
  const PinnedPath kPins[] = {
      // path, name, makespan, injected[], recovered[], retries, stall, freezes,
      // unrecovered, trace FNV-1a
      {VerifiedPath::kShmWord, "shm_word", 20756664, {0, 11, 0, 0, 0},
       {0, 11, 0, 0, 0}, 11, 0, 0, 0, 0x2115c5932f1802b8ull},
      // One bulk write exhausts its retry budget (five straight fires).
      {VerifiedPath::kShmBulk, "shm_bulk", 14645656, {0, 24, 0, 0, 0},
       {0, 19, 0, 0, 0}, 23, 0, 0, 1, 0x21a2d7356428d9fbull},
      {VerifiedPath::kMpbPut, "mpb_put", 16185000, {26, 0, 0, 0, 0},
       {26, 0, 0, 0, 0}, 26, 0, 0, 0, 0xc651a7040fd8a86aull},
      {VerifiedPath::kMpbGet, "mpb_get", 19985000, {26, 0, 0, 0, 0},
       {26, 0, 0, 0, 0}, 26, 0, 0, 0, 0x3d9b18421cabb939ull},
      {VerifiedPath::kSwcacheFlush, "swcache_flush", 8956664, {0, 0, 5, 0, 0},
       {0, 0, 5, 0, 0}, 5, 0, 0, 0, 0x00f386bf10e200d1ull},
  };
  for (const PinnedPath& pin : kPins) {
    const PinnedRun r = runVerifiedPath(pin.path);
    SCOPED_TRACE(pin.name);
    std::ostringstream got;
    got << r.makespan << " {";
    for (const std::uint64_t v : r.stats.injected) got << v << ",";
    got << "} {";
    for (const std::uint64_t v : r.stats.recovered) got << v << ",";
    got << "} " << r.stats.retries << " " << r.stats.stall_ticks << " "
        << r.stats.freezes << " " << r.stats.unrecovered << " 0x" << std::hex
        << r.trace_fnv;
    EXPECT_EQ(r.makespan, pin.makespan) << got.str();
    for (std::size_t c = 0; c < kNumFaultClasses; ++c) {
      EXPECT_EQ(r.stats.injected[c], pin.injected[c]) << got.str();
      EXPECT_EQ(r.stats.recovered[c], pin.recovered[c]) << got.str();
    }
    EXPECT_EQ(r.stats.retries, pin.retries) << got.str();
    EXPECT_EQ(r.stats.stall_ticks, pin.stall_ticks) << got.str();
    EXPECT_EQ(r.stats.freezes, pin.freezes) << got.str();
    EXPECT_EQ(r.stats.unrecovered, pin.unrecovered) << got.str();
    EXPECT_EQ(r.trace_fnv, pin.trace_fnv) << got.str();
  }
}

/// Every verified op of one UE: an MPB put and get, an uncached word write
/// and a bulk write.
SimTask everyVerifiedOp(CoreContext& ctx, std::uint64_t base) {
  std::vector<std::uint8_t> buf(kBlock, static_cast<std::uint8_t>(ctx.ue() + 1));
  const auto ue = static_cast<std::uint64_t>(ctx.ue());
  co_await ctx.mpbWrite(ctx.ue(), 0, buf.data(), kBlock);
  co_await ctx.barrier();
  co_await ctx.mpbRead((ctx.ue() + 1) % ctx.numUes(), 0, buf.data(), kBlock);
  co_await ctx.shmWrite(base + ue * 2 * kBlock, buf.data(), kBlock);
  co_await ctx.shmWriteBulk(base + (ue * 2 + 1) * kBlock, buf.data(), kBlock);
  co_await ctx.barrier();
}

TEST(FaultMachine, RetryExhaustionRecordsUnrecoveredAndCompletes) {
  // No retry budget and every draw firing: each verified op fails its only
  // attempt and is counted unrecovered — no retry, no backoff, no throw.
  SccConfig cfg;
  cfg.trace_enabled = true;
  cfg.fault.enabled = true;
  cfg.fault.max_retries = 0;
  cfg.fault.shm_write.rate = 1.0;
  cfg.fault.mpb_transfer.rate = 1.0;
  SccMachine m(cfg);
  const std::uint64_t base = m.shmalloc(4 * kBlock);
  m.launch(LaunchSpec(2, [=](CoreContext& ctx) { return everyVerifiedOp(ctx, base); }));
  EXPECT_NO_THROW(m.run());
  const FaultStats& s = m.faultStats();
  const auto shm = static_cast<std::size_t>(FaultClass::kShmWrite);
  const auto mpb = static_cast<std::size_t>(FaultClass::kMpbTransfer);
  EXPECT_EQ(s.unrecovered, 8u);  // 2 UEs x (put, get, word write, bulk write)
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(s.injected[shm], 4u);
  EXPECT_EQ(s.injected[mpb], 4u);
  EXPECT_EQ(s.totalRecovered(), 0u);
  std::size_t shm_write_spans = 0;
  for (std::size_t task = 0; task < 2; ++task) {
    for (const obs::TraceEvent& ev : m.traceRecorder().taskEvents(task)) {
      EXPECT_NE(ev.kind, obs::TraceEventKind::kFaultRetry);
      if (ev.kind != obs::TraceEventKind::kShmWrite) continue;
      ++shm_write_spans;
      EXPECT_EQ(ev.c, 1u);  // attempts: the initial try only
    }
  }
  EXPECT_EQ(shm_write_spans, 2u);
}

}  // namespace
}  // namespace hsm::sim
