// Tests for the software-managed release-consistency cache (sim/swcache/):
// the extended Cache tag store, the SwCache protocol mechanics (fills,
// dirty write-backs, release flushes, acquire self-invalidation, bulk-bypass
// coherence), and the DRF-equivalence contract: data-race-free programs
// produce bit-identical functional results with the swcache on or off,
// across coalescing modes, while all *uncached* modes keep bit-identical
// Ticks (docs/memory_model.md).
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "sim/machine.h"
#include "sim/swcache/swcache.h"
#include "workloads/benchmark.h"

namespace hsm::sim {
namespace {

// --- Cache tag-store extensions ---------------------------------------------

TEST(CacheTagStore, LookupDoesNotAllocateOrCount) {
  Cache cache(1024, 32);
  EXPECT_EQ(cache.lookup(64), Cache::kNoSlot);
  EXPECT_EQ(cache.misses(), 0u);
  cache.access(64, false);
  EXPECT_NE(cache.lookup(64), Cache::kNoSlot);
  EXPECT_EQ(cache.lookup(96), Cache::kNoSlot);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(CacheTagStore, InvalidateReportsDirtiness) {
  Cache cache(1024, 32);
  cache.access(0, true);
  cache.access(32, false);
  EXPECT_TRUE(cache.invalidate(0));    // dirty line dropped
  EXPECT_FALSE(cache.invalidate(32));  // clean line dropped
  EXPECT_FALSE(cache.invalidate(64));  // absent: no-op
  EXPECT_EQ(cache.lookup(0), Cache::kNoSlot);
  EXPECT_EQ(cache.lookup(32), Cache::kNoSlot);
}

TEST(CacheTagStore, AccessReportsVictimAddressAndSlot) {
  Cache cache(1024, 32);  // 32 lines: addr and addr + 1024 collide
  const Cache::AccessResult first = cache.access(64, true);
  EXPECT_FALSE(first.hit);
  EXPECT_FALSE(first.writeback);
  const Cache::AccessResult evict = cache.access(64 + 1024, false);
  EXPECT_FALSE(evict.hit);
  EXPECT_TRUE(evict.writeback);
  EXPECT_EQ(evict.victim_addr, 64u);
  EXPECT_EQ(evict.index, first.index);
  EXPECT_EQ(cache.slotAddr(evict.index), 64u + 1024u);
}

// --- SwCache protocol mechanics ---------------------------------------------

constexpr std::size_t kLine = 32;
constexpr std::size_t kWord = 8;

struct Harness {
  std::vector<std::uint8_t> dram;
  SwCache cache;
  Harness(std::size_t dram_bytes, std::size_t lines)
      : dram(dram_bytes, 0), cache(lines, kLine) {}
  SwCache::AccessPlan read(std::uint64_t off, void* out, std::size_t n) {
    return cache.access(off, n, false, out, nullptr, dram.data(), dram.size(), kWord);
  }
  SwCache::AccessPlan write(std::uint64_t off, const void* in, std::size_t n) {
    return cache.access(off, n, true, nullptr, in, dram.data(), dram.size(), kWord);
  }
};

TEST(SwCache, ReadFillsLineThenHits) {
  Harness h(4096, 8);
  for (std::size_t i = 0; i < h.dram.size(); ++i) {
    h.dram[i] = static_cast<std::uint8_t>(i * 7);
  }
  std::uint8_t buf[64] = {};
  const SwCache::AccessPlan miss = h.read(0, buf, 64);
  EXPECT_EQ(miss.line_txns, 2u);  // two line fills
  EXPECT_EQ(miss.hit_touches, 0u);
  EXPECT_EQ(std::memcmp(buf, h.dram.data(), 64), 0);
  const SwCache::AccessPlan hit = h.read(8, buf, 48);  // same two lines
  EXPECT_EQ(hit.line_txns, 0u);
  EXPECT_EQ(hit.hit_touches, 2u);
  EXPECT_EQ(std::memcmp(buf, h.dram.data() + 8, 48), 0);
  EXPECT_EQ(h.cache.stats().line_fills, 2u);
  EXPECT_EQ(h.cache.stats().word_accesses, 8u + 6u);
  EXPECT_EQ(h.cache.stats().word_hits, 6u);
}

TEST(SwCache, WriteBackDirtiesWithoutTouchingDram) {
  Harness h(4096, 8);
  const std::uint64_t value = 0x1122334455667788ull;
  h.write(0, &value, sizeof(value));
  EXPECT_EQ(h.cache.dirtyLines(), 1u);
  std::uint64_t dram_view = 0;
  std::memcpy(&dram_view, h.dram.data(), sizeof(dram_view));
  EXPECT_EQ(dram_view, 0u);  // DRAM untouched until reconciliation
  // The writer's own reads see the cached value (program order).
  std::uint64_t readback = 0;
  h.read(0, &readback, sizeof(readback));
  EXPECT_EQ(readback, value);
  // RELEASE: flush makes it visible; the line stays resident and clean.
  EXPECT_EQ(h.cache.flushDirty(h.dram.data(), h.dram.size()), 1u);
  std::memcpy(&dram_view, h.dram.data(), sizeof(dram_view));
  EXPECT_EQ(dram_view, value);
  EXPECT_EQ(h.cache.dirtyLines(), 0u);
  EXPECT_EQ(h.cache.residentLines(), 1u);
}

TEST(SwCache, AcquireInvalidatesCleanButKeepsDirty) {
  Harness h(4096, 8);
  std::uint8_t buf[kLine] = {};
  h.read(0, buf, kLine);                 // clean line
  const std::uint64_t v = 42;
  h.write(kLine, &v, sizeof(v));         // dirty line
  EXPECT_EQ(h.cache.invalidateClean(), 1u);
  EXPECT_EQ(h.cache.residentLines(), 1u);
  EXPECT_EQ(h.cache.dirtyLines(), 1u);
  // The dirty line's data survived the acquire (it is unreleased own data).
  std::uint64_t readback = 0;
  const SwCache::AccessPlan plan = h.read(kLine, &readback, sizeof(readback));
  EXPECT_EQ(plan.hit_touches, 1u);
  EXPECT_EQ(readback, v);
}

TEST(SwCache, EvictionWritesDirtyVictimBack) {
  Harness h(4096, 4);  // 4 lines of 32 B: offsets 0 and 512 collide
  const std::uint64_t v = 7;
  h.write(0, &v, sizeof(v));
  std::uint8_t buf[kLine] = {};
  const SwCache::AccessPlan plan = h.read(4 * kLine, buf, kLine);  // evicts slot 0
  EXPECT_EQ(plan.line_txns, 2u);  // victim write-back + fill
  std::uint64_t dram_view = 0;
  std::memcpy(&dram_view, h.dram.data(), sizeof(dram_view));
  EXPECT_EQ(dram_view, v);  // early visibility: conservative under DRF
  EXPECT_EQ(h.cache.stats().writebacks, 1u);
}

TEST(SwCache, SyncRangeWritesBackAndOptionallyDrops) {
  Harness h(4096, 8);
  const std::uint64_t v = 9;
  h.write(0, &v, sizeof(v));
  h.write(kLine, &v, sizeof(v));
  // Bulk-read fence: write back overlapping dirty lines, keep them resident.
  EXPECT_EQ(h.cache.syncRange(0, kLine, false, h.dram.data(), h.dram.size()), 1u);
  EXPECT_EQ(h.cache.residentLines(), 2u);
  EXPECT_EQ(h.cache.dirtyLines(), 1u);
  std::uint64_t dram_view = 0;
  std::memcpy(&dram_view, h.dram.data(), sizeof(dram_view));
  EXPECT_EQ(dram_view, v);
  // Bulk-write fence: drop everything overlapping.
  EXPECT_EQ(h.cache.syncRange(0, 2 * kLine, true, h.dram.data(), h.dram.size()), 1u);
  EXPECT_EQ(h.cache.residentLines(), 0u);
}

// --- machine-level protocol (visibility through sync points) ----------------

/// Route every shared-DRAM offset of `machine` through the swcache.
void cacheAllShared(SccMachine& machine) {
  machine.addShmRegion({.end = machine.config().shared_dram_bytes, .cached = true});
}

SimTask producer(CoreContext& ctx, std::uint64_t data, std::uint64_t n_words) {
  for (std::uint64_t i = 0; i < n_words; ++i) {
    const std::uint64_t v = 1000 + i;
    co_await ctx.shmWrite(data + i * 8, &v, 8);
  }
  co_await ctx.barrier();  // release: flush
  co_await ctx.barrier();
}

SimTask consumer(CoreContext& ctx, std::uint64_t data, std::uint64_t n_words,
                 std::vector<std::uint64_t>* seen) {
  // Warm a stale copy BEFORE the producer releases: zeros at this point.
  std::uint64_t v = 0;
  co_await ctx.shmRead(data, &v, 8);
  co_await ctx.barrier();  // acquire: self-invalidate stale lines
  for (std::uint64_t i = 0; i < n_words; ++i) {
    co_await ctx.shmRead(data + i * 8, &v, 8);
    seen->push_back(v);
  }
  co_await ctx.barrier();
}

TEST(SwCacheMachine, BarrierMakesWritesVisibleDespiteStaleCopy) {
  SccMachine machine;
  cacheAllShared(machine);
  const std::uint64_t data = machine.shmalloc(256);
  std::vector<std::uint64_t> seen;
  machine.launch(LaunchSpec(2, [&](CoreContext& ctx) -> SimTask {
    if (ctx.ue() == 0) return producer(ctx, data, 16);
    return consumer(ctx, data, 16, &seen);
  }));
  machine.run();
  ASSERT_EQ(seen.size(), 16u);
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(seen[i], 1000 + i) << "i=" << i;
  }
  const SwCacheStats totals = machine.swcacheTotals();
  EXPECT_GT(totals.word_accesses, 0u);
  EXPECT_GT(totals.writebacks, 0u);
  EXPECT_GT(totals.invalidated_lines, 0u);
}

SimTask lockedAdder(CoreContext& ctx, std::uint64_t counter, int rounds) {
  for (int r = 0; r < rounds; ++r) {
    co_await ctx.lockAcquire(0);
    std::uint64_t v = 0;
    co_await ctx.shmRead(counter, &v, 8);
    ++v;
    co_await ctx.shmWrite(counter, &v, 8);
    co_await ctx.lockRelease(0);
  }
  co_await ctx.barrier();
}

TEST(SwCacheMachine, LockProtectedCounterIsExact) {
  for (const bool swcache : {false, true}) {
    SccMachine machine;
    if (swcache) cacheAllShared(machine);
    const std::uint64_t counter = machine.shmalloc(8);
    machine.launch(LaunchSpec(6, [&](CoreContext& ctx) { return lockedAdder(ctx, counter, 5); }));
    machine.run();
    std::uint64_t v = 0;
    std::memcpy(&v, machine.shmData(counter), 8);
    EXPECT_EQ(v, 30u) << "swcache=" << swcache;
  }
}

SimTask bulkMixer(CoreContext& ctx, std::uint64_t base, std::size_t bytes) {
  // Cached write, then a bulk read of the same region must observe it
  // (bulk bypasses the cache; the coherence fence writes dirty lines back).
  std::vector<std::uint8_t> pattern(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    pattern[i] = static_cast<std::uint8_t>(i * 3 + 1);
  }
  co_await ctx.shmWrite(base, pattern.data(), bytes);
  std::vector<std::uint8_t> bulk(bytes, 0);
  co_await ctx.shmReadBulk(base, bulk.data(), bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    if (bulk[i] != pattern[i]) co_return;  // leaves the sentinel unwritten
  }
  // Bulk write supersedes the cached copy; a cached read must see it.
  for (std::size_t i = 0; i < bytes; ++i) pattern[i] ^= 0xff;
  co_await ctx.shmWriteBulk(base, pattern.data(), bytes);
  std::vector<std::uint8_t> cached(bytes, 0);
  co_await ctx.shmRead(base, cached.data(), bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    if (cached[i] != pattern[i]) co_return;
  }
  const std::uint64_t ok = 1;
  co_await ctx.shmWrite(base + bytes, &ok, 8);
  co_await ctx.barrier();
}

TEST(SwCacheMachine, BulkBypassStaysCoherentWithCachedLines) {
  SccMachine machine;
  cacheAllShared(machine);
  const std::uint64_t base = machine.shmalloc(1024 + 8);
  machine.launch(LaunchSpec(1, [&](CoreContext& ctx) { return bulkMixer(ctx, base, 1024); }));
  machine.run();
  std::uint64_t ok = 0;
  std::memcpy(&ok, machine.shmData(base + 1024), 8);
  EXPECT_EQ(ok, 1u);
}

// --- DRF-equivalence suite ---------------------------------------------------

/// The shared-memory routing × simulator-mode matrix every DRF program must
/// agree across (functionally; Ticks additionally for the uncached modes).
struct RoutingMode {
  const char* name;
  bool swcache;
  bool coalescing;
  bool uncached() const { return !swcache; }
};

const RoutingMode kMatrix[] = {
    {"uncached/coalesced", false, true},
    {"uncached/off", false, false},
    {"swcache-wb/coalesced", true, true},
    {"swcache-wb/off", true, false},
};

SccConfig configFor(const RoutingMode& m) {
  SccConfig cfg;
  cfg.coalescing = m.coalescing;
  return cfg;
}

TEST(DrfEquivalence, CountPrimesAndDotProductAcrossRoutings) {
  using workloads::Mode;
  // The functional value (the detail prefix before the " | " metric summary)
  // must be identical across routings; the summary legitimately differs
  // (events and makespan are routing-dependent by design).
  const auto valueOf = [](const workloads::RunResult& r) {
    return r.detail.substr(0, r.detail.find(" | "));
  };
  // The swcache routings cache every shared region of both programs.
  partition::ExecutionPlan all_cached;
  for (const char* name : {"total", "a", "b", "partial"}) {
    all_cached.regions.push_back(
        partition::RegionPlan{name, partition::PlacementClass::kOffChipCached});
  }
  for (const auto& make :
       {workloads::makeCountPrimes(0.1), workloads::makeDotProduct(0.03)}) {
    const partition::ExecutionPlan hand = make->handPlan();
    std::string first_value;
    bool first = true;
    for (const RoutingMode& m : kMatrix) {
      const workloads::RunResult r = make->run(Mode::RcceOffChip, 8, configFor(m),
                                               m.swcache ? &all_cached : &hand);
      EXPECT_TRUE(r.verified) << make->name() << " " << m.name;
      if (first) {
        first_value = valueOf(r);
        first = false;
      } else {
        EXPECT_EQ(valueOf(r), first_value) << make->name() << " " << m.name;
      }
    }
  }
}

/// Randomized DRF stress: every UE runs a per-(ue, round) pseudo-random mix
/// of private-region reads/writes, bulk ops, and lock-protected
/// read-modify-writes of shared counters, with a barrier per round. The
/// schedule is deterministic and identical across configurations, and no
/// CACHE LINE is written by two UEs without synchronization (the counters
/// are padded to one line each — the swcache's DRF contract is at line
/// granularity, see docs/memory_model.md) — so the entire shared region
/// must be byte-identical across the routing matrix, and Ticks
/// bit-identical among the uncached modes.
SimTask drfStress(CoreContext& ctx, std::uint64_t region, std::size_t region_bytes,
                  std::uint64_t counters, int rounds) {
  const std::uint64_t mine =
      region + static_cast<std::uint64_t>(ctx.ue()) * region_bytes;
  std::vector<std::uint8_t> buf(256);
  for (int r = 0; r < rounds; ++r) {
    std::mt19937 rng(static_cast<unsigned>(ctx.ue() * 7919 + r * 104729 + 1));
    for (int op = 0; op < 12; ++op) {
      const std::uint64_t off = (rng() % (region_bytes - buf.size())) & ~7ull;
      switch (rng() % 5) {
        case 0:
          co_await ctx.shmRead(mine + off, buf.data(), buf.size());
          break;
        case 1:
          for (std::size_t i = 0; i < buf.size(); ++i) {
            buf[i] = static_cast<std::uint8_t>(buf[i] + i + static_cast<std::size_t>(r));
          }
          co_await ctx.shmWrite(mine + off, buf.data(), buf.size());
          break;
        case 2:
          co_await ctx.shmReadBulk(mine + off, buf.data(), buf.size());
          break;
        case 3:
          co_await ctx.shmWriteBulk(mine + off, buf.data(), buf.size());
          break;
        case 4: {
          // One line (32 B) per counter: padding keeps concurrent holders of
          // different locks from writing the same line (line-level DRF).
          const int c = static_cast<int>(rng() % 4);
          co_await ctx.lockAcquire(c);
          std::uint64_t v = 0;
          co_await ctx.shmRead(counters + static_cast<std::uint64_t>(c) * 32, &v, 8);
          v += static_cast<std::uint64_t>(ctx.ue()) + 1;
          co_await ctx.shmWrite(counters + static_cast<std::uint64_t>(c) * 32, &v, 8);
          co_await ctx.lockRelease(c);
          break;
        }
      }
    }
    co_await ctx.barrier();
  }
}

TEST(DrfEquivalence, RandomizedStressAgreesAcrossMatrix) {
  constexpr int kUes = 6;
  constexpr std::size_t kRegion = 2048;
  constexpr int kRounds = 4;

  std::vector<std::uint8_t> reference_mem;
  Tick reference_uncached_makespan = 0;
  std::vector<Tick> reference_uncached_completions;
  bool first = true;
  for (const RoutingMode& m : kMatrix) {
    SccMachine machine(configFor(m));
    if (m.swcache) cacheAllShared(machine);
    const std::uint64_t region = machine.shmalloc(kUes * kRegion);
    const std::uint64_t counters = machine.shmalloc(4 * 32);
    machine.launch(LaunchSpec(kUes, [&](CoreContext& ctx) {
      return drfStress(ctx, region, kRegion, counters, kRounds);
    }));
    const Tick makespan = machine.run();
    const std::uint8_t* shm = machine.shmData(0);
    std::vector<std::uint8_t> mem(shm, shm + kUes * kRegion + 4 * 32);
    std::vector<Tick> completions;
    for (int ue = 0; ue < kUes; ++ue) {
      completions.push_back(machine.engine().completionTime(static_cast<std::size_t>(ue)));
    }
    if (first) {
      reference_mem = mem;
      first = false;
    } else {
      EXPECT_EQ(mem, reference_mem) << m.name;
    }
    if (m.uncached()) {
      if (reference_uncached_makespan == 0) {
        reference_uncached_makespan = makespan;
        reference_uncached_completions = completions;
      } else {
        EXPECT_EQ(makespan, reference_uncached_makespan) << m.name;
        EXPECT_EQ(completions, reference_uncached_completions) << m.name;
      }
    }
  }
}

TEST(DrfEquivalence, SwcacheTicksAreDeterministic) {
  Tick first = 0;
  for (int trial = 0; trial < 2; ++trial) {
    SccMachine machine;
    cacheAllShared(machine);
    const std::uint64_t counter = machine.shmalloc(8);
    machine.launch(LaunchSpec(4, [&](CoreContext& ctx) { return lockedAdder(ctx, counter, 3); }));
    machine.run();
    if (trial == 0) {
      first = machine.engine().makespan();
    } else {
      EXPECT_EQ(machine.engine().makespan(), first);
    }
  }
}

// --- read-mostly effectiveness ----------------------------------------------

SimTask readMostly(CoreContext& ctx, std::uint64_t base, std::size_t bytes,
                   int sweeps, int rounds) {
  std::vector<std::uint8_t> buf(bytes);
  const std::uint64_t mine = base + static_cast<std::uint64_t>(ctx.ue()) * bytes;
  for (int r = 0; r < rounds; ++r) {
    for (int s = 0; s < sweeps; ++s) {
      co_await ctx.shmRead(mine, buf.data(), bytes);
    }
    co_await ctx.barrier();
  }
}

TEST(SwCacheMachine, ReadMostlyClearsNinetyPercentHitRate) {
  SccConfig cfg;
  SccMachine machine(cfg);
  cacheAllShared(machine);
  const std::uint64_t base = machine.shmalloc(8 * 4096);
  machine.launch(LaunchSpec(8, [&](CoreContext& ctx) { return readMostly(ctx, base, 4096, 16, 3); }));
  machine.run();
  const SwCacheStats totals = machine.swcacheTotals();
  EXPECT_GE(totals.hitRate(), 0.90) << "hits " << totals.word_hits << " / "
                                    << totals.word_accesses;
  // Per-core stats are surfaced too: every participating core saw accesses.
  std::uint64_t cores_with_traffic = 0;
  for (std::uint32_t c = 0; c < cfg.num_cores; ++c) {
    if (machine.swcacheStats(static_cast<int>(c)).word_accesses > 0) {
      ++cores_with_traffic;
    }
  }
  EXPECT_EQ(cores_with_traffic, 8u);
}

// --- accounting invariants under mixed cached/uncached regions ---------------

SimTask mixedRegionToucher(CoreContext& ctx, std::uint64_t cached_base,
                           std::uint64_t uncached_base, int rounds) {
  std::uint64_t v = 0;
  const std::uint64_t mine = cached_base + static_cast<std::uint64_t>(ctx.ue()) * 256;
  for (int r = 0; r < rounds; ++r) {
    for (std::uint64_t w = 0; w < 16; ++w) {
      co_await ctx.shmRead(mine + w * 8, &v, 8);
      v += w;
      co_await ctx.shmWrite(mine + w * 8, &v, 8);
    }
    // Same traffic against the uncached region: must not enter any core's
    // swcache counters.
    co_await ctx.shmWrite(uncached_base + static_cast<std::uint64_t>(ctx.ue()) * 8,
                          &v, 8);
    co_await ctx.barrier();
  }
}

// swcacheTotals() must be exactly the per-core sum of swcacheStats(core),
// field by field, with a per-region cacheability split in effect — the
// aggregate the bench and the fault-recovery accounting both build on.
TEST(SwCacheMachine, TotalsEqualPerCoreSumsUnderMixedRegions) {
  SccConfig cfg;  // unmapped offsets are uncached; one region cached
  SccMachine machine(cfg);
  const std::uint64_t cached = machine.shmalloc(4 * 256, /*align=*/64);
  const std::uint64_t uncached = machine.shmalloc(256);
  machine.addShmRegion({.begin = cached, .end = cached + 4 * 256, .cached = true});
  machine.launch(LaunchSpec(4, [&](CoreContext& ctx) {
    return mixedRegionToucher(ctx, cached, uncached, 3);
  }));
  machine.run();

  SwCacheStats sum;
  for (std::uint32_t core = 0; core < cfg.num_cores; ++core) {
    sum += machine.swcacheStats(static_cast<int>(core));
  }
  const SwCacheStats totals = machine.swcacheTotals();
  EXPECT_GT(totals.word_accesses, 0u);
  EXPECT_EQ(totals.word_accesses, sum.word_accesses);
  EXPECT_EQ(totals.word_hits, sum.word_hits);
  EXPECT_EQ(totals.line_fills, sum.line_fills);
  EXPECT_EQ(totals.writebacks, sum.writebacks);
  EXPECT_EQ(totals.flushes, sum.flushes);
  EXPECT_EQ(totals.invalidated_lines, sum.invalidated_lines);
  // Each UE makes 3 rounds × 32 cached word touches; the uncached-region
  // writes must not have leaked into the cache accounting.
  EXPECT_EQ(totals.word_accesses, 4u * 3u * 32u);
}

// Release points flush every dirty line: after a run whose last sync op is a
// barrier, no core may hold dirty data (the invariant the fault layer's
// flushed-line reconciliation presumes).
TEST(SwCacheMachine, DirtyLinesZeroAfterRelease) {
  SccConfig cfg;
  SccMachine machine(cfg);
  const std::uint64_t cached = machine.shmalloc(4 * 256, /*align=*/64);
  const std::uint64_t uncached = machine.shmalloc(256);
  machine.addShmRegion({.begin = cached, .end = cached + 4 * 256, .cached = true});
  machine.launch(LaunchSpec(4, [&](CoreContext& ctx) {
    return mixedRegionToucher(ctx, cached, uncached, 2);
  }));
  machine.run();
  for (std::uint32_t core = 0; core < cfg.num_cores; ++core) {
    EXPECT_EQ(machine.swcacheDirtyLines(static_cast<int>(core)), 0u)
        << "core " << core;
  }
  EXPECT_GT(machine.swcacheTotals().writebacks, 0u);  // flushes really happened
}

}  // namespace
}  // namespace hsm::sim
