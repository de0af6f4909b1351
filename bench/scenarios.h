// The simulator scenarios that bench/sim_golden pins: the kernels, the
// Workload each scenario runs, and kPinnedScenarios, the one table of them.
// bench/micro_sim times one of these workloads, barrier32(), traced against
// untraced.
//
// A Workload is a machine set-up; runWorkload runs it once under a Mode and
// reads the engine's counters.
#pragma once

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "partition/execution_plan.h"
#include "rcce/rcce.h"
#include "sim/machine.h"
#include "workloads/benchmark.h"
#include "workloads/kv_store.h"

namespace hsm::bench {

using sim::Tick;

struct Mode {
  bool coalescing = true;  ///< SccConfig::coalescing
  /// Shared-memory routing: false = uncached words, true = every shared
  /// DRAM offset registered cacheable (swcache) before the workload's setup
  /// runs; the setup's own registrations still win on overlap.
  bool swcache = false;
  /// Simulated-time trace recorder (SccConfig::trace_enabled). Only
  /// obs_trace_8ue enables it.
  bool trace = false;
};

struct RunStats {
  double wall_seconds = 0;  ///< host wall time of the engine run
  std::uint64_t events = 0;
  std::uint64_t shm_words = 0;       ///< uncached word transactions
  std::uint64_t shm_word_events = 0;
  std::uint64_t mpb_chunks = 0;
  std::uint64_t mpb_chunk_events = 0;
  std::uint64_t swcache_words = 0;   ///< words served through the swcache
  std::uint64_t swcache_word_hits = 0;
  std::uint64_t swcache_line_txns = 0;  ///< line fills + dirty write-backs
  std::uint64_t swcache_line_events = 0;
  std::uint64_t mpb_scope_violations = 0;  ///< accesses outside a declared plan
  Tick makespan = 0;
  std::vector<Tick> completions;
  std::vector<std::uint8_t> result_bytes;  ///< extracted output region

  /// Logical shared-memory words: uncached transactions plus words served
  /// through the swcache.
  [[nodiscard]] std::uint64_t logicalWords() const { return shm_words + swcache_words; }
  /// Fraction of coalescable transactions (uncached shm words, MPB chunks,
  /// swcache line transfers) whose engine event was coalesced away.
  [[nodiscard]] double coalescingRate() const {
    const std::uint64_t txns = shm_words + mpb_chunks + swcache_line_txns;
    const std::uint64_t txn_events =
        shm_word_events + mpb_chunk_events + swcache_line_events;
    return txns > 0
               ? 1.0 - static_cast<double>(txn_events) / static_cast<double>(txns)
               : 0.0;
  }
  [[nodiscard]] double swcacheHitRate() const {
    return swcache_words > 0 ? static_cast<double>(swcache_word_hits) /
                                   static_cast<double>(swcache_words)
                             : 0.0;
  }
};

struct Workload {
  int ues = 1;
  std::function<void(sim::SccMachine&)> setup;  ///< shmalloc etc., then launch
  /// Optional output region [offset, offset+bytes) of shared DRAM extracted
  /// after the run — the functional result the cached/uncached A/B
  /// must reproduce bit-identically (allocation order is deterministic, so
  /// fixed offsets are stable across machines).
  std::uint64_t extract_offset = 0;
  std::size_t extract_bytes = 0;
  /// Optional plan-driven twin of `setup` (ExecutionPlan-launched, regions
  /// registered in the machine's region table): when present, its Ticks must be
  /// bit-identical to the legacy-knob runs — the plan API cutover must not
  /// move a single Tick on existing scenarios.
  std::function<void(sim::SccMachine&)> setup_plan = nullptr;
};

/// One run of `w` under `mode` on a fresh machine (`plan_setup`: its
/// plan-driven twin).
inline RunStats runWorkload(const Workload& w, const Mode& mode, bool plan_setup = false) {
  sim::SccConfig cfg;
  cfg.coalescing = mode.coalescing;
  cfg.trace_enabled = mode.trace;
  sim::SccMachine machine(cfg);
  if (mode.swcache) machine.addShmRegion({.end = cfg.shared_dram_bytes, .cached = true});
  (plan_setup ? w.setup_plan : w.setup)(machine);
  RunStats stats;
  stats.makespan = machine.run();
  stats.wall_seconds = machine.engine().hostWallSeconds();
  stats.events = machine.engine().eventsProcessed();
  stats.shm_words = machine.shmWordsSimulated();
  stats.shm_word_events = machine.shmWordEvents();
  stats.mpb_chunks = machine.mpbChunksSimulated();
  stats.mpb_chunk_events = machine.mpbChunkEvents();
  const sim::SwCacheStats sw = machine.swcacheTotals();
  stats.swcache_words = sw.word_accesses;
  stats.swcache_word_hits = sw.word_hits;
  stats.swcache_line_txns = machine.swcacheLinesSimulated();
  stats.swcache_line_events = machine.swcacheLineEvents();
  stats.mpb_scope_violations = machine.mpbScopeViolations();
  for (int ue = 0; ue < w.ues; ++ue) {
    stats.completions.push_back(machine.engine().completionTime(static_cast<std::size_t>(ue)));
  }
  if (w.extract_bytes > 0) {
    const std::uint8_t* out = machine.shmData(w.extract_offset);
    stats.result_bytes.assign(out, out + w.extract_bytes);
  }
  return stats;
}

// --- workload kernels -------------------------------------------------------

inline sim::SimTask blockReader(sim::CoreContext& ctx, std::uint64_t base, int blocks,
                         std::size_t block_bytes) {
  std::vector<std::uint8_t> buf(block_bytes);
  for (int i = 0; i < blocks; ++i) {
    co_await ctx.shmRead(base + static_cast<std::uint64_t>(i) * block_bytes, buf.data(),
                         block_bytes);
  }
}

inline sim::SimTask staggeredMix(sim::CoreContext& ctx, std::uint64_t base, int iterations,
                          std::size_t block_bytes) {
  std::vector<std::uint8_t> buf(block_bytes);
  const std::uint64_t mine =
      base + static_cast<std::uint64_t>(ctx.ue()) * block_bytes;
  for (int i = 0; i < iterations; ++i) {
    // Compute-heavy, UE-skewed phases (the shape of the paper's kernels:
    // long local computation punctuated by shared-data block IO), so cores
    // mostly take turns at the controllers instead of hammering in lockstep.
    co_await ctx.compute(50000 + static_cast<std::uint64_t>(ctx.ue()) * 50000);
    co_await ctx.shmRead(mine, buf.data(), block_bytes);
    co_await ctx.shmWrite(mine, buf.data(), block_bytes);
  }
}

/// Lock- and barrier-punctuated block IO: the nastiest mode for coalescing
/// because blocked waiters force the per-controller horizon back to the
/// global one until every task is pending again.
inline sim::SimTask syncedMix(sim::CoreContext& ctx, std::uint64_t base,
                       std::uint64_t counter_off, int iterations,
                       std::size_t block_bytes) {
  std::vector<std::uint8_t> buf(block_bytes);
  const std::uint64_t mine =
      base + static_cast<std::uint64_t>(ctx.ue()) * block_bytes;
  for (int i = 0; i < iterations; ++i) {
    co_await ctx.compute(20000 + static_cast<std::uint64_t>(ctx.ue() % 3) * 30000);
    co_await ctx.shmRead(mine, buf.data(), block_bytes);
    co_await ctx.lockAcquire(0);
    std::uint64_t counter = 0;
    co_await ctx.shmRead(counter_off, &counter, sizeof(counter));
    ++counter;
    co_await ctx.shmWrite(counter_off, &counter, sizeof(counter));
    co_await ctx.lockRelease(0);
    co_await ctx.barrier();
  }
}

/// Word-granular hammer against one shared 4 KB block. Expressed as uncached
/// block reads: the run loop issues the exact per-word transaction recurrence
/// the old read-per-word loop did (identical Ticks), but presents each pass
/// as ONE in-flight word run — which is what lets the joint replay
/// (SccMachine::timedRun) collapse interleaved turns into a few events per
/// task instead of one per word.
inline sim::SimTask wordHammer(sim::CoreContext& ctx, std::uint64_t base, int words) {
  std::vector<std::uint8_t> buf(512 * 8);
  int left = words;
  while (left > 0) {
    const int pass = left < 512 ? left : 512;
    co_await ctx.shmRead(base, buf.data(), static_cast<std::size_t>(pass) * 8);
    left -= pass;
  }
}

inline sim::SimTask spinner(sim::CoreContext& ctx, int iterations) {
  for (int i = 0; i < iterations; ++i) co_await ctx.compute(1);
}

inline sim::SimTask barrierLoop(sim::CoreContext& ctx, int rounds) {
  for (int i = 0; i < rounds; ++i) co_await ctx.barrier();
}

/// RCCE put/get chunk-loop ring exchange: each UE deposits a 1 KB block into
/// its right neighbour's MPB slice, then reads back what its left neighbour
/// deposited into its own — the transport pattern the translator emits for
/// neighbour exchanges. Every 1 KB transfer is 32 chunk transactions on the
/// owning tile's port; the plan's neighbor-ring scope ({self, right}) gives
/// each task a tight port reach set so unrelated tiles' traffic cannot
/// truncate runs.
inline sim::SimTask rcceRing(sim::CoreContext& ctx, std::uint64_t slot, int rounds,
                      std::size_t bytes) {
  std::vector<std::uint8_t> buf(bytes, static_cast<std::uint8_t>(ctx.ue()));
  const int right = (ctx.ue() + 1) % ctx.numUes();
  // Double-buffered shift: round r reads the block the left neighbour
  // deposited in round r-1 (parity (r+1)%2) and deposits into the right
  // neighbour's other parity slot; one barrier per round bounds the skew so
  // parities never collide. The per-UE compute stagger is the usual
  // process-on-received-data phase of ring codes.
  for (int r = 0; r < rounds; ++r) {
    co_await ctx.compute(20000 + static_cast<std::uint64_t>(ctx.ue()) * 15000);
    co_await rcce::get(ctx, ctx.ue(),
                       slot + static_cast<std::uint64_t>((r + 1) % 2) * bytes,
                       buf.data(), bytes);
    co_await rcce::put(ctx, right,
                       slot + static_cast<std::uint64_t>(r % 2) * bytes,
                       buf.data(), bytes);
    co_await ctx.barrier();
  }
}

/// Mixed off-chip + on-chip traffic: word-granular shm block IO followed by
/// an MPB deposit to the right neighbour, barrier-punctuated — both
/// coalesced paths and the sync-aware horizon active in one workload.
inline sim::SimTask mixedShmMpb(sim::CoreContext& ctx, std::uint64_t shm_base,
                         std::uint64_t slot, int rounds, std::size_t block_bytes,
                         std::size_t mpb_bytes) {
  std::vector<std::uint8_t> buf(block_bytes);
  const std::uint64_t mine =
      shm_base + static_cast<std::uint64_t>(ctx.ue()) * block_bytes;
  const int right = (ctx.ue() + 1) % ctx.numUes();
  for (int r = 0; r < rounds; ++r) {
    // ue%3 is coprime with the 4-quadrant UE spread, so controller-sharing
    // UE pairs (ue, ue+4) land in different compute phases.
    co_await ctx.compute(30000 + static_cast<std::uint64_t>(ctx.ue() % 3) * 25000);
    co_await ctx.shmRead(mine, buf.data(), block_bytes);
    co_await rcce::put(ctx, right, slot, buf.data(), mpb_bytes);
    co_await ctx.barrier();
  }
}

/// Read-mostly shared data (the swcache's target workload): each UE sweeps
/// its 4 KB window of a shared grid `sweeps` times between barriers,
/// folding the bytes into a checksum, then publishes a small result block.
/// Uncached, every word of every sweep is a controller transaction; with the
/// swcache, the window is filled once per round (barrier departure
/// self-invalidates) and re-read from fast private memory.
inline sim::SimTask stencilReadMostly(sim::CoreContext& ctx, std::uint64_t grid,
                               std::uint64_t out, int rounds, int sweeps,
                               std::size_t window_bytes) {
  std::vector<std::uint64_t> buf(window_bytes / 8);
  const std::uint64_t mine =
      grid + static_cast<std::uint64_t>(ctx.ue()) * window_bytes;
  std::uint64_t results[8] = {};
  for (int r = 0; r < rounds; ++r) {
    std::uint64_t acc = 0;
    for (int s = 0; s < sweeps; ++s) {
      co_await ctx.shmRead(mine, buf.data(), window_bytes);
      for (const std::uint64_t v : buf) acc += v * (static_cast<std::uint64_t>(s) + 1);
      co_await ctx.computeOps(buf.size(), sim::OpClass::IntAlu);
    }
    for (std::uint64_t& v : results) v = acc ^ (v << 1);
    co_await ctx.shmWrite(out + static_cast<std::uint64_t>(ctx.ue()) * sizeof(results),
                          results, sizeof(results));
    co_await ctx.barrier();
  }
}

/// LU-style elimination over a shared matrix: in round k every UE updates
/// its own rows r > k (striped r % UEs) against pivot row k, re-reading the
/// pivot from shared memory per own row. DRF: the pivot row was last
/// written in round k-1 (flushed at that barrier) and each row has one
/// writer. The swcache turns the repeated pivot reads and the
/// read-modify-write of own rows into hits with dirty lines flushed at the
/// barrier.
inline sim::SimTask luSharedCached(sim::CoreContext& ctx, std::uint64_t m0, std::size_t n,
                            int rounds) {
  const auto ues = static_cast<std::size_t>(ctx.numUes());
  std::vector<double> pivot(n), row(n);
  for (int k = 0; k < rounds; ++k) {
    const auto ku = static_cast<std::size_t>(k);
    for (std::size_t r = ku + 1; r < n; ++r) {
      if (r % ues != static_cast<std::size_t>(ctx.ue())) continue;
      co_await ctx.shmRead(m0 + ku * n * 8, pivot.data(), n * 8);
      co_await ctx.shmRead(m0 + r * n * 8, row.data(), n * 8);
      const double factor = row[ku] / pivot[ku];
      row[ku] = factor;
      for (std::size_t j = ku + 1; j < n; ++j) row[j] -= factor * pivot[j];
      co_await ctx.computeOps(1, sim::OpClass::FpDiv);
      co_await ctx.computeOps(2 * (n - ku - 1), sim::OpClass::FpAdd);
      co_await ctx.shmWrite(m0 + r * n * 8, row.data(), n * 8);
    }
    co_await ctx.barrier();
  }
}

/// The ExecutionPlan mixed-policy showcase: ONE run combining a read-mostly
/// lookup table (where caching wins) with a lock-guarded reduction cell
/// (where uncached words win — every cached update costs a line fill plus a
/// release-point write-back instead of two cheap word transactions). Neither
/// machine-wide swcache setting can serve both; per-region cacheability
/// can.
inline sim::SimTask mixedPolicy(sim::CoreContext& ctx, std::uint64_t table,
                         std::uint64_t cell, std::uint64_t out, int rounds,
                         int sweeps, int updates, std::size_t window_bytes) {
  std::vector<std::uint64_t> buf(window_bytes / 8);
  const std::uint64_t mine =
      table + static_cast<std::uint64_t>(ctx.ue()) * window_bytes;
  std::uint64_t results[8] = {};
  for (int r = 0; r < rounds; ++r) {
    std::uint64_t acc = 0;
    for (int s = 0; s < sweeps; ++s) {
      co_await ctx.shmRead(mine, buf.data(), window_bytes);
      for (const std::uint64_t v : buf) acc += v * (static_cast<std::uint64_t>(s) + 1);
      co_await ctx.computeOps(buf.size(), sim::OpClass::IntAlu);
    }
    for (int u = 0; u < updates; ++u) {
      co_await ctx.lockAcquire(0);
      std::uint64_t value = 0;
      co_await ctx.shmRead(cell, &value, sizeof(value));
      value += 1 + (acc & 1);
      co_await ctx.shmWrite(cell, &value, sizeof(value));
      co_await ctx.lockRelease(0);
    }
    for (std::uint64_t& v : results) v = acc ^ (v << 1);
    co_await ctx.shmWrite(out + static_cast<std::uint64_t>(ctx.ue()) * sizeof(results),
                          results, sizeof(results));
    co_await ctx.barrier();
  }
}

inline sim::SimTask mpbPingPong(sim::CoreContext& ctx, std::uint64_t off, int rounds) {
  std::uint8_t buf[64] = {};
  const int peer = ctx.ue() == 0 ? 1 : 0;
  for (int i = 0; i < rounds; ++i) {
    co_await rcce::put(ctx, peer, off, buf, sizeof(buf));
    co_await rcce::get(ctx, peer, off, buf, sizeof(buf));
  }
}

/// Cached streaming against one controller: the UEs whose quadrant
/// controller is controller 0 each read their own window of a cached region
/// (every line a fill), update it in place (hits that dirty every line) and
/// release at the barrier (every line a write-back), round after round. Their
/// fill runs, then their write-back runs, contend line by line — the shape of
/// DotProduct's cached vectors at 8 UEs per controller. The other UEs only
/// keep the barrier.
inline sim::SimTask swcacheStreamer(sim::CoreContext& ctx, std::uint64_t base, int rounds,
                                    std::size_t window_bytes) {
  const bool streams = ctx.machine().controllerOfCore(ctx.core()) == 0;
  std::vector<std::uint64_t> buf(window_bytes / 8);
  const std::uint64_t mine = base + static_cast<std::uint64_t>(ctx.ue()) * window_bytes;
  for (int r = 0; r < rounds; ++r) {
    if (streams) {
      co_await ctx.shmRead(mine, buf.data(), window_bytes);
      for (std::uint64_t& v : buf) v = v * 3 + static_cast<std::uint64_t>(r);
      co_await ctx.computeOps(buf.size(), sim::OpClass::IntAlu);
      co_await ctx.shmWrite(mine, buf.data(), window_bytes);
    }
    co_await ctx.barrier();
  }
}

/// LU's rotating pivot broadcast over the MPB: each round one owner deposits
/// a row into its own slice, and after the barrier every UE gets that row —
/// all of them through the owner's one port at once.
inline sim::SimTask mpbBroadcast(sim::CoreContext& ctx, std::uint64_t slot, int rounds,
                                 std::size_t bytes) {
  std::vector<std::uint8_t> row(bytes);
  for (int r = 0; r < rounds; ++r) {
    const int owner = r % ctx.numUes();
    if (ctx.ue() == owner) {
      for (std::size_t i = 0; i < bytes; ++i) row[i] = static_cast<std::uint8_t>(r + i);
      co_await rcce::put(ctx, owner, slot, row.data(), bytes);
    }
    co_await ctx.barrier();
    co_await rcce::get(ctx, owner, slot, row.data(), bytes);
    co_await ctx.compute(4000 + static_cast<std::uint64_t>(ctx.ue() % 3) * 1500);
  }
}

inline sim::SimTask bulkReader(sim::CoreContext& ctx, std::uint64_t base, int blocks) {
  std::vector<std::uint8_t> buf(2048);
  for (int i = 0; i < blocks; ++i) {
    co_await ctx.shmReadBulk(base + static_cast<std::uint64_t>(i) * 2048, buf.data(),
                             buf.size());
  }
}

// --- pinned scenarios -------------------------------------------------------

constexpr std::size_t kBlock = 4096;

using partition::ControllerPlacement;
using partition::ExecutionPlan;
using partition::MpbPattern;
using partition::PlacementClass;
using partition::RegionPlan;

// The two MPB scenarios launch plan-driven: the ExecutionPlan supplies each
// UE's MPB owner set.
inline const ExecutionPlan kRingPlan{{RegionPlan{
    "ring_slot", PlacementClass::kOnChipResident, MpbPattern::kNeighborRing, 2 * 1024}}};
inline const ExecutionPlan kMixedPlan{
    {RegionPlan{"blocks", PlacementClass::kOffChipUncached, MpbPattern::kNone, 8 * kBlock},
     RegionPlan{"slot", PlacementClass::kOnChipResident, MpbPattern::kNeighborRing, 512}}};
inline const ExecutionPlan kBroadcastPlan{{RegionPlan{
    "pivot_row", PlacementClass::kOnChipResident, MpbPattern::kRotatingBroadcast, 1024}}};
// The plan-driven twins of the staggered and synced word scenarios launch
// through this (MPB-free) plan with their regions mapped off-chip-uncached.
inline const ExecutionPlan kWordPlan{{RegionPlan{
    "blocks", PlacementClass::kOffChipUncached, MpbPattern::kNone, 9 * kBlock}}};

inline Workload barrier32() {
  return {.ues = 32, .setup = [](sim::SccMachine& m) {
            m.launch(sim::LaunchSpec(
                32, [](sim::CoreContext& ctx) { return barrierLoop(ctx, 64); }));
          }};
}

/// The lock- and barrier-punctuated word scenario; obs_trace_8ue traces it.
inline Workload syncedWords() {
  return {.ues = 8,
          .setup =
              [](sim::SccMachine& m) {
                const std::uint64_t base = m.shmalloc(8 * kBlock + 8);
                const std::uint64_t counter = m.shmalloc(8);
                m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
                  return syncedMix(ctx, base, counter, 8, kBlock);
                }));
              },
          .extract_bytes = 8 * kBlock + 16,
          .setup_plan =
              [](sim::SccMachine& m) {
                const std::uint64_t base = m.shmalloc(8 * kBlock + 8);
                const std::uint64_t counter = m.shmalloc(8);
                m.addShmRegion({.begin = base, .end = counter + 8});
                m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
                           return syncedMix(ctx, base, counter, 8, kBlock);
                         }).withPlan(&kWordPlan));
              }};
}

constexpr std::size_t kPolicyWindow = 4096;
inline const ExecutionPlan kMixedPolicyPlan{
    {RegionPlan{"table", PlacementClass::kOffChipCached, MpbPattern::kNone,
                8 * kPolicyWindow},
     RegionPlan{"cell", PlacementClass::kOffChipUncached, MpbPattern::kNone, 64},
     RegionPlan{"out", PlacementClass::kOffChipUncached, MpbPattern::kNone, 8 * 64}}};

/// The ExecutionPlan mixed-policy showcase: a cached read-mostly table plus
/// an uncached lock-guarded reduction cell in ONE run, via per-region
/// cacheability. policy: 0 = plan-driven mixed regions (the coalesced run),
/// 1 = everything cached (run under Mode::swcache), 2 = everything uncached.
inline Workload mixedPolicyWorkload(int policy) {
  constexpr std::size_t kWindow = kPolicyWindow;
  constexpr int kRounds = 4, kSweeps = 8, kUpdates = 32;
  return Workload{
      .ues = 8,
      .setup =
          [policy](sim::SccMachine& m) {
            const std::uint64_t table = m.shmalloc(8 * kWindow);
            const std::uint64_t cell = m.shmalloc(64);  // own line: no false sharing
            const std::uint64_t out = m.shmalloc(8 * 64);
            auto* g = reinterpret_cast<std::uint64_t*>(m.shmData(table));
            for (std::size_t i = 0; i < 8 * kWindow / 8; ++i) {
              g[i] = 0x9e3779b97f4a7c15ull * (i + 1);
            }
            if (policy == 0) {
              m.addShmRegion({.begin = table, .end = table + 8 * kWindow, .cached = true});
              m.addShmRegion({.begin = cell, .end = cell + 64});
              m.addShmRegion({.begin = out, .end = out + 8 * 64});
            }
            m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
                       return mixedPolicy(ctx, table, cell, out, kRounds, kSweeps,
                                          kUpdates, kWindow);
                     }).withPlan(policy == 0 ? &kMixedPolicyPlan : nullptr));
          },
      .extract_offset = 8 * kWindow,  // cell (line-padded) + out region
      .extract_bytes = 64 + 8 * 64};
}

/// kv_zipf_8ue: the KV store (default KvParams) on 8 UEs under
/// workloads::kvStorePlan with `cp` (kStriped or kOwnerCompute). Hot keys
/// sit in the slab's lowest stripes, so kStriped concentrates the skewed
/// load on ONE controller while kOwnerCompute spreads it with the
/// requesters. The set-up keeps the plan: the launch borrows it.
inline Workload kvZipfWorkload(ControllerPlacement cp) {
  return {.ues = 8,
          .setup = [plan = workloads::kvStorePlan({}, cp)](sim::SccMachine& m) {
            workloads::setupKvRcce(m, workloads::KvParams{}, 8, plan);
          }};
}

/// What sim_golden runs beside a pinned scenario's coalesced run.
enum class References {
  kNone,        ///< substrate scenario: the coalesced run alone
  kLegacy,      ///< coalescing off ("legacy"), and the plan twin if the workload has one
  kRoutings,    ///< uncached words (the coalesced run is cached)
  kPolicies,    ///< mixed_policy_8ue: everything cached, everything uncached
  kPlacements,  ///< kv_zipf_8ue: kLegacy's runs, the striped plan with coalescing on and
                ///< off, and both plans via the Benchmark API
};

/// One pinned scenario: the workload and mode of its "coalesced" run, which
/// sim_golden pins beside its references.
struct PinnedScenario {
  const char* name;
  Workload (*workload)();
  Mode mode;
  References references;
  double min_hit_rate = 0;  ///< kRoutings: the cached run's hit-rate bar (0: none)
};

inline const PinnedScenario kPinnedScenarios[] = {
    {"shm_words_single_ue",
     [] {
       return Workload{.ues = 1,
                       .setup =
                           [](sim::SccMachine& m) {
                             const std::uint64_t base = m.shmalloc(64 * kBlock);
                             m.launch(sim::LaunchSpec(1, [=](sim::CoreContext& ctx) {
                               return blockReader(ctx, base, 64, kBlock);
                             }));
                           },
                       .extract_bytes = kBlock};
     },
     Mode{}, References::kLegacy},
    {"shm_words_staggered_8ue",
     [] {
       return Workload{.ues = 8,
                       .setup =
                           [](sim::SccMachine& m) {
                             const std::uint64_t base = m.shmalloc(8 * kBlock);
                             m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
                               return staggeredMix(ctx, base, 16, kBlock);
                             }));
                           },
                       .extract_bytes = 8 * kBlock,
                       .setup_plan =
                           [](sim::SccMachine& m) {
                             const std::uint64_t base = m.shmalloc(8 * kBlock);
                             m.addShmRegion({.begin = base, .end = base + 8 * kBlock});
                             m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
                                        return staggeredMix(ctx, base, 16, kBlock);
                                      }).withPlan(&kWordPlan));
                           }};
     },
     Mode{}, References::kLegacy},
    {"shm_words_synced_8ue", syncedWords, Mode{}, References::kLegacy},
    {"shm_words_contended_8ue",
     [] {
       return Workload{.ues = 8,
                       .setup =
                           [](sim::SccMachine& m) {
                             const std::uint64_t base = m.shmalloc(1 << 16);
                             m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
                               return wordHammer(ctx, base, 512);
                             }));
                           },
                       .extract_bytes = kBlock};
     },
     Mode{}, References::kLegacy},
    {"rcce_ring_1k_8ue",
     [] {
       return Workload{.ues = 8,
                       .setup = [](sim::SccMachine& m) {
                         rcce::RcceEnv env(m);
                         // Two parity buffers of 1 KB each (rcceRing
                         // double-buffers); the plan's neighbor ring
                         // materializes the {ue, right} owner sets.
                         const std::uint64_t slot = env.mpbMallocSymmetric(8, 2 * 1024);
                         m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
                                    return rcceRing(ctx, slot, 8, 1024);
                                  }).withPlan(&kRingPlan));
                       }};
     },
     Mode{}, References::kLegacy},
    {"mixed_shm_mpb_8ue",
     [] {
       return Workload{.ues = 8,
                       .setup = [](sim::SccMachine& m) {
                         rcce::RcceEnv env(m);
                         const std::uint64_t base = m.shmalloc(8 * kBlock);
                         const std::uint64_t slot = env.mpbMallocSymmetric(8, 512);
                         m.addShmRegion({.begin = base, .end = base + 8 * kBlock});
                         m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
                                    return mixedShmMpb(ctx, base, slot, 8, kBlock, 512);
                                  }).withPlan(&kMixedPlan));
                       }};
     },
     Mode{}, References::kLegacy},
    {"event_kernel_8ue",
     [] {
       return Workload{.ues = 8, .setup = [](sim::SccMachine& m) {
                         m.launch(sim::LaunchSpec(
                             8, [](sim::CoreContext& ctx) { return spinner(ctx, 1000); }));
                       }};
     },
     Mode{}, References::kNone},
    {"barrier_32ue", barrier32, Mode{}, References::kNone},
    {"mpb_pingpong_2ue",
     [] {
       return Workload{.ues = 2, .setup = [](sim::SccMachine& m) {
                         rcce::RcceEnv env(m);
                         const std::uint64_t off = env.mpbMallocSymmetric(2, 64);
                         m.launch(sim::LaunchSpec(2, [=](sim::CoreContext& ctx) {
                           return mpbPingPong(ctx, off, 256);
                         }));
                       }};
     },
     Mode{}, References::kNone},
    {"bulk_copy_8ue",
     [] {
       return Workload{.ues = 8, .setup = [](sim::SccMachine& m) {
                         const std::uint64_t base = m.shmalloc(1 << 20);
                         m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
                           return bulkReader(ctx, base, 64);
                         }));
                       }};
     },
     Mode{}, References::kNone},
    {"stencil_readmostly_8ue",
     [] {
       constexpr std::size_t kWindow = 4096;
       return Workload{.ues = 8,
                       .setup =
                           [](sim::SccMachine& m) {
                             const std::uint64_t grid = m.shmalloc(8 * kWindow);
                             const std::uint64_t out = m.shmalloc(8 * 64);
                             auto* g = reinterpret_cast<std::uint64_t*>(m.shmData(grid));
                             for (std::size_t i = 0; i < 8 * kWindow / 8; ++i) {
                               g[i] = 0x9e3779b97f4a7c15ull * (i + 1);
                             }
                             m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
                               return stencilReadMostly(ctx, grid, out, 4, 16, kWindow);
                             }));
                           },
                       .extract_offset = 8 * kWindow,
                       .extract_bytes = 8 * 64};
     },
     Mode{true, true}, References::kRoutings, /*min_hit_rate=*/0.90},
    {"lu_shared_cached",
     [] {
       constexpr std::size_t n = 64;
       return Workload{
           .ues = 8,
           .setup =
               [](sim::SccMachine& m) {
                 const std::uint64_t m0 = m.shmalloc(n * n * 8);
                 auto* mat = reinterpret_cast<double*>(m.shmData(m0));
                 for (std::size_t i = 0; i < n; ++i) {
                   for (std::size_t j = 0; j < n; ++j) {
                     mat[i * n + j] = i == j ? 2.0 * static_cast<double>(n)
                                             : 1.0 / (1.0 + static_cast<double>(i + 2 * j));
                   }
                 }
                 m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
                   return luSharedCached(ctx, m0, n, 32);
                 }));
               },
           .extract_bytes = n * n * 8};
     },
     Mode{true, true}, References::kRoutings},
    {"mixed_policy_8ue", [] { return mixedPolicyWorkload(0); }, Mode{true, false},
     References::kPolicies},
    {"kv_zipf_8ue", [] { return kvZipfWorkload(ControllerPlacement::kOwnerCompute); },
     Mode{}, References::kPlacements},
    // 32 UEs launched so that eight share controller 0; the region is
    // registered cacheable by the set-up, so the legacy reference caches too.
    {"swcache_lines_contended_8ue",
     [] {
       constexpr std::size_t kWindow = 4096;
       return Workload{.ues = 32,
                       .setup =
                           [](sim::SccMachine& m) {
                             const std::size_t bytes = 32 * kWindow;
                             const std::uint64_t base =
                                 m.shmalloc(bytes, m.config().cache_line_bytes);
                             auto* g = reinterpret_cast<std::uint64_t*>(m.shmData(base));
                             for (std::size_t i = 0; i < bytes / 8; ++i) g[i] = i;
                             m.addShmRegion({.begin = base, .end = base + bytes, .cached = true});
                             m.launch(sim::LaunchSpec(32, [=](sim::CoreContext& ctx) {
                               return swcacheStreamer(ctx, base, 8, kWindow);
                             }));
                           },
                       .extract_bytes = 32 * kWindow};
     },
     Mode{}, References::kLegacy},
    {"mpb_broadcast_8ue",
     [] {
       return Workload{.ues = 8,
                       .setup = [](sim::SccMachine& m) {
                         rcce::RcceEnv env(m);
                         const std::uint64_t slot = env.mpbMallocSymmetric(8, 1024);
                         m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
                                    return mpbBroadcast(ctx, slot, 16, 1024);
                                  }).withPlan(&kBroadcastPlan));
                       }};
     },
     Mode{}, References::kLegacy},
};

/// One run of syncedWords() on a fresh machine: obs_trace_8ue's kernel.
/// With the recorder on, `json` is the Chrome trace export.
struct TracedRun {
  Tick makespan = 0;
  std::uint64_t recorded = 0;  ///< trace events the recorder kept
  std::string json;
};

inline TracedRun runSyncedWords(bool traced, bool coalescing) {
  sim::SccConfig cfg;
  cfg.coalescing = coalescing;
  cfg.trace_enabled = traced;
  sim::SccMachine m(cfg);
  syncedWords().setup(m);
  TracedRun r;
  r.makespan = m.run();
  r.recorded = m.traceRecorder().recordedEvents();
  std::ostringstream os;
  m.writeTrace(os);
  r.json = os.str();
  return r;
}

}  // namespace hsm::bench
