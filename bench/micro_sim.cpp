// Microbenchmarks of the simulator substrate, emitted as machine-readable
// JSON (one object on stdout) for the tracked BENCH_*.json trajectory
// (BENCH_baseline.json is committed; CI regenerates BENCH_pr.json and
// scripts/compare_bench.py gates regressions).
//
// The coalescable scenarios (word-granular shared memory AND chunk-granular
// MPB put/get) run with coalescing on and off and verify the engine's
// equivalence bar: coalescing may eliminate events but must leave the
// makespan and every per-task completion Tick bit-identical. Scenarios with
// a plan-driven twin (ExecutionPlan-launched, regions mapped in the
// cacheability map) hold the twin to the same bit-identity bar, and the
// mixed_policy_8ue scenario gates the ExecutionPlan payoff: a per-region
// cached/uncached split must beat both machine-wide settings. A violated
// bar makes the process exit non-zero, so this binary doubles as a CI
// smoke test.
//
// Reported per timed run: host wall seconds, engine events, events/sec,
// simulated uncached words / MPB chunks and the engine events they cost
// (their combined ratio is the coalescing rate), the makespan and a
// sim_hash fingerprint of the run's completions and result bytes (gated
// exactly against the baseline), plus derived speedup/reduction ratios per
// scenario.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "partition/execution_plan.h"
#include "rcce/rcce.h"
#include "sim/machine.h"
#include "workloads/benchmark.h"
#include "workloads/kv_store.h"

namespace {

using namespace hsm;
using sim::Tick;

struct Mode {
  bool coalescing = true;  ///< SccConfig::coalescing
  /// Shared-memory routing: 0 = uncached words, 1 = swcache write-back,
  /// 2 = swcache write-through no-allocate.
  int swcache = 0;
  /// Simulated-time trace recorder (SccConfig::trace_enabled). Enabled only
  /// by the obs_trace_8ue section: the tracked runs stay untraced so their
  /// events/sec trajectory measures the engine, not the recorder.
  bool trace = false;
};

struct RunStats {
  double wall_seconds = 0;
  std::uint64_t events = 0;
  std::uint64_t shm_words = 0;       ///< uncached word transactions
  std::uint64_t shm_word_events = 0;
  std::uint64_t mpb_chunks = 0;
  std::uint64_t mpb_chunk_events = 0;
  std::uint64_t swcache_words = 0;   ///< words served through the swcache
  std::uint64_t swcache_word_hits = 0;
  std::uint64_t swcache_wt_words = 0;  ///< written-through subset (also in shm_words)
  std::uint64_t swcache_line_txns = 0;  ///< line fills + dirty write-backs
  std::uint64_t swcache_line_events = 0;
  std::uint64_t mpb_scope_violations = 0;  ///< accesses outside a declared plan
  Tick makespan = 0;
  std::vector<Tick> completions;
  std::vector<std::uint8_t> result_bytes;  ///< extracted output region

  [[nodiscard]] double eventsPerSec() const {
    return wall_seconds > 0 ? static_cast<double>(events) / wall_seconds : 0;
  }
  /// Logical shared-memory words: uncached transactions plus words served
  /// through the swcache, minus the written-through subset (those words are
  /// swcache accesses AND uncached transactions — counting both would
  /// inflate write-through runs by their write volume).
  [[nodiscard]] std::uint64_t logicalWords() const {
    return shm_words + swcache_words - swcache_wt_words;
  }
  /// Simulated logical shared-memory words per host second — the throughput
  /// that bounds sweep turnaround. Invariant to the routing and to how (or
  /// whether) those words hit engine events.
  [[nodiscard]] double wordsPerSec() const {
    return wall_seconds > 0 ? static_cast<double>(logicalWords()) / wall_seconds : 0;
  }
  [[nodiscard]] double chunksPerSec() const {
    return wall_seconds > 0 ? static_cast<double>(mpb_chunks) / wall_seconds : 0;
  }
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
  std::string name;
  int ues = 1;
  int repetitions = 1;  ///< timed repetitions, wall time accumulated
  std::function<void(sim::SccMachine&)> setup;  ///< shmalloc etc., then launch
  /// Optional output region [offset, offset+bytes) of shared DRAM extracted
  /// after the first rep — the functional result the cached/uncached A/B
  /// must reproduce bit-identically (allocation order is deterministic, so
  /// fixed offsets are stable across machines).
  std::uint64_t extract_offset = 0;
  std::size_t extract_bytes = 0;
  /// Minimum swcache hit rate the cached run must clear (0 = ungated).
  /// Feeds the process exit code: a silent protocol regression that stops
  /// caching read-mostly data must fail CI, not just shift a metric.
  double min_hit_rate = 0.0;
  /// Optional plan-driven twin of `setup` (ExecutionPlan-launched, regions
  /// mapped in the cacheability map): when present, its Ticks must be
  /// bit-identical to the legacy-knob runs — the plan API cutover must not
  /// move a single Tick on existing scenarios.
  std::function<void(sim::SccMachine&)> setup_plan = nullptr;
};

RunStats runWorkloadOnce(const Workload& w, const Mode& mode,
                         bool plan_setup = false) {
  RunStats stats;
  for (int rep = 0; rep < w.repetitions; ++rep) {
    sim::SccConfig cfg;
    cfg.coalescing = mode.coalescing;
    cfg.shm_swcache = mode.swcache != 0;
    cfg.swcache_policy = mode.swcache == 2 ? 1 : 0;
    cfg.trace_enabled = mode.trace;
    sim::SccMachine machine(cfg);
    (plan_setup ? w.setup_plan : w.setup)(machine);
    stats.makespan = machine.run();
    stats.wall_seconds += machine.engine().hostWallSeconds();
    stats.events += machine.engine().eventsProcessed();
    stats.shm_words += machine.shmWordsSimulated();
    stats.shm_word_events += machine.shmWordEvents();
    stats.mpb_chunks += machine.mpbChunksSimulated();
    stats.mpb_chunk_events += machine.mpbChunkEvents();
    const sim::SwCacheStats sw = machine.swcacheTotals();
    stats.swcache_words += sw.word_accesses;
    stats.swcache_word_hits += sw.word_hits;
    stats.swcache_wt_words += sw.writethrough_words;
    stats.swcache_line_txns += machine.swcacheLinesSimulated();
    stats.swcache_line_events += machine.swcacheLineEvents();
    stats.mpb_scope_violations += machine.mpbScopeViolations();
    if (rep == 0) {
      for (int ue = 0; ue < w.ues; ++ue) {
        stats.completions.push_back(
            machine.engine().completionTime(static_cast<std::size_t>(ue)));
      }
      if (w.extract_bytes > 0) {
        const std::uint8_t* out = machine.shmData(w.extract_offset);
        stats.result_bytes.assign(out, out + w.extract_bytes);
      }
    }
  }
  return stats;
}

/// Best-of-3 trials: the simulation is deterministic (events, words, Ticks
/// are identical per trial), only host wall time varies, so the minimum wall
/// is the peak-throughput measurement the BENCH_*.json trajectory tracks —
/// far more stable across runs and machines than a single timing.
RunStats runWorkload(const Workload& w, const Mode& mode, bool plan_setup = false) {
  RunStats best = runWorkloadOnce(w, mode, plan_setup);
  for (int trial = 1; trial < 3; ++trial) {
    RunStats next = runWorkloadOnce(w, mode, plan_setup);
    if (next.wall_seconds < best.wall_seconds) best = std::move(next);
  }
  return best;
}

// --- workload kernels -------------------------------------------------------

sim::SimTask blockReader(sim::CoreContext& ctx, std::uint64_t base, int blocks,
                         std::size_t block_bytes) {
  std::vector<std::uint8_t> buf(block_bytes);
  for (int i = 0; i < blocks; ++i) {
    co_await ctx.shmRead(base + static_cast<std::uint64_t>(i) * block_bytes, buf.data(),
                         block_bytes);
  }
}

sim::SimTask staggeredMix(sim::CoreContext& ctx, std::uint64_t base, int iterations,
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
sim::SimTask syncedMix(sim::CoreContext& ctx, std::uint64_t base,
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
/// as ONE in-flight word-run — which is what lets round-robin contention
/// batching (SccMachine's joint solve) collapse interleaved turns into a few
/// events per task instead of one per word.
sim::SimTask wordHammer(sim::CoreContext& ctx, std::uint64_t base, int words) {
  std::vector<std::uint8_t> buf(512 * 8);
  int left = words;
  while (left > 0) {
    const int pass = left < 512 ? left : 512;
    co_await ctx.shmRead(base, buf.data(), static_cast<std::size_t>(pass) * 8);
    left -= pass;
  }
}

sim::SimTask spinner(sim::CoreContext& ctx, int iterations) {
  for (int i = 0; i < iterations; ++i) co_await ctx.compute(1);
}

sim::SimTask barrierLoop(sim::CoreContext& ctx, int rounds) {
  for (int i = 0; i < rounds; ++i) co_await ctx.barrier();
}

/// RCCE put/get chunk-loop ring exchange: each UE deposits a 1 KB block into
/// its right neighbour's MPB slice, then reads back what its left neighbour
/// deposited into its own — the transport pattern the translator emits for
/// neighbour exchanges. Every 1 KB transfer is 32 chunk transactions on the
/// owning tile's port; the declared MpbScope ({self, right}) gives each task
/// a tight port reach set so unrelated tiles' traffic cannot truncate runs.
sim::SimTask rcceRing(sim::CoreContext& ctx, std::uint64_t slot, int rounds,
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
sim::SimTask mixedShmMpb(sim::CoreContext& ctx, std::uint64_t shm_base,
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
sim::SimTask stencilReadMostly(sim::CoreContext& ctx, std::uint64_t grid,
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
sim::SimTask luSharedCached(sim::CoreContext& ctx, std::uint64_t m0, std::size_t n,
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
/// machine-wide swcache setting can serve both; the per-region cacheability
/// map can.
sim::SimTask mixedPolicy(sim::CoreContext& ctx, std::uint64_t table,
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

sim::SimTask mpbPingPong(sim::CoreContext& ctx, std::uint64_t off, int rounds) {
  std::uint8_t buf[64] = {};
  const int peer = ctx.ue() == 0 ? 1 : 0;
  for (int i = 0; i < rounds; ++i) {
    co_await rcce::put(ctx, peer, off, buf, sizeof(buf));
    co_await rcce::get(ctx, peer, off, buf, sizeof(buf));
  }
}

sim::SimTask bulkReader(sim::CoreContext& ctx, std::uint64_t base, int blocks) {
  std::vector<std::uint8_t> buf(2048);
  for (int i = 0; i < blocks; ++i) {
    co_await ctx.shmReadBulk(base + static_cast<std::uint64_t>(i) * 2048, buf.data(),
                             buf.size());
  }
}

// --- drf detector scenarios -------------------------------------------------

/// The canonical data race: a lockless read-modify-write on one shared word.
/// Every pair of increments from different UEs is unordered (no lock, no
/// barrier), so the happens-before detector must report it in BOTH
/// granularity modes. The per-UE compute skew spreads the accesses across
/// simulated time — a race is a missing edge, not a same-Tick collision, and
/// the detector must see through the skew.
sim::SimTask racyCounter(sim::CoreContext& ctx, std::uint64_t counter_off,
                         int iterations) {
  const auto ue = static_cast<std::uint64_t>(ctx.ue());
  for (int i = 0; i < iterations; ++i) {
    co_await ctx.compute(1000 + ue * 777);
    std::uint64_t v = 0;
    co_await ctx.shmRead(counter_off, &v, sizeof(v));
    ++v;
    co_await ctx.shmWrite(counter_off, &v, sizeof(v));
  }
}

/// The false-sharing probe: each UE read-modify-writes its OWN 8-byte slot,
/// but four slots pack into each 32-byte line of a swcache-cached region.
/// Word-granular mode sees disjoint words and stays silent; line-granular
/// mode (the current swcache contract) must report a race on the shared
/// line and flag every report FALSE-SHARING (non-overlapping byte ranges).
sim::SimTask falseSharingSlots(sim::CoreContext& ctx, std::uint64_t base,
                               int iterations) {
  const auto ue = static_cast<std::uint64_t>(ctx.ue());
  const std::uint64_t mine = base + ue * 8;
  std::uint64_t v = ue;
  for (int i = 0; i < iterations; ++i) {
    co_await ctx.compute(500 + ue * 333);
    co_await ctx.shmRead(mine, &v, sizeof(v));
    v += ue + 1;
    co_await ctx.shmWrite(mine, &v, sizeof(v));
  }
}

// --- fault sweep ------------------------------------------------------------

/// The fault-sweep kernel: every faultable machine path in ONE workload — a
/// cached per-UE window (single-writer DRF, dirty lines flushed at barrier
/// releases → swcache-flush faults), uncached block publishes (→ shm-write
/// faults + controller stalls), an MPB ring exchange (→ MPB transfer
/// faults), and a lock-guarded shared counter between barriers (→ the
/// sync-timeout / deadlock-watchdog surface). All computed values are
/// timing-independent, so the final shared memory must be byte-identical
/// between a faulty run (all faults recovered) and a fault-free one.
sim::SimTask faultMix(sim::CoreContext& ctx, std::uint64_t table,
                      std::uint64_t blocks, std::uint64_t counter_off,
                      std::uint64_t out, std::uint64_t slot, int rounds,
                      std::size_t window_bytes, std::size_t block_bytes,
                      std::size_t mpb_bytes) {
  const auto ue = static_cast<std::uint64_t>(ctx.ue());
  std::vector<std::uint64_t> win(window_bytes / 8);
  std::vector<std::uint8_t> blk(block_bytes);
  std::vector<std::uint8_t> ring(mpb_bytes, static_cast<std::uint8_t>(ue + 1));
  const std::uint64_t my_win = table + ue * window_bytes;
  const std::uint64_t my_blk = blocks + ue * block_bytes;
  const int right = (ctx.ue() + 1) % ctx.numUes();
  std::uint64_t acc = ue + 1;
  for (int r = 0; r < rounds; ++r) {
    co_await ctx.compute(20000 + (ue % 3) * 30000);
    // Cached read-modify-write of the own window (one writer per window).
    co_await ctx.shmRead(my_win, win.data(), window_bytes);
    for (std::uint64_t& v : win) {
      acc = acc * 6364136223846793005ull + 1442695040888963407ull;
      v += acc & 0xff;
    }
    co_await ctx.shmWrite(my_win, win.data(), window_bytes);
    // Uncached block publish.
    for (std::size_t i = 0; i < block_bytes; ++i) {
      blk[i] = static_cast<std::uint8_t>(acc + i + static_cast<std::uint64_t>(r));
    }
    co_await ctx.shmWrite(my_blk, blk.data(), block_bytes);
    // MPB ring: deposit into the right neighbour's parity slot, barrier,
    // read back what the left neighbour deposited into ours.
    co_await rcce::put(ctx, right,
                       slot + static_cast<std::uint64_t>(r % 2) * mpb_bytes,
                       ring.data(), mpb_bytes);
    co_await ctx.barrier();
    co_await rcce::get(ctx, ctx.ue(),
                       slot + static_cast<std::uint64_t>(r % 2) * mpb_bytes,
                       ring.data(), mpb_bytes);
    // Lock-guarded counter: increments are commutative, so the final value
    // is order- (hence timing-) independent.
    co_await ctx.lockAcquire(0);
    std::uint64_t c = 0;
    co_await ctx.shmRead(counter_off, &c, sizeof(c));
    c += ring[0] + 1u;
    co_await ctx.shmWrite(counter_off, &c, sizeof(c));
    co_await ctx.lockRelease(0);
    co_await ctx.barrier();
  }
  co_await ctx.shmWrite(out + ue * 8, &acc, sizeof(acc));
}

/// Outcome of one fault-sweep run, including how it ended: normally, in a
/// detected deadlock, or in a sync timeout.
struct FaultRun {
  Tick makespan = 0;
  std::vector<Tick> completions;
  std::vector<std::uint8_t> memory;  ///< full shared region after the run
  sim::FaultStats stats;
  bool deadlock = false;
  bool sync_timeout = false;
  bool frozen_named = false;  ///< hang report names the permafrost task,
                              ///< parked with no sync object (wedged)
  std::uint64_t drf_races = 0;  ///< detector reports (drf_check runs only)
};

FaultRun runFaultSweep(const sim::FaultPlan& plan, Tick sync_timeout_ticks,
                       bool drf_check = false) {
  constexpr int kUes = 8, kRounds = 6;
  constexpr std::size_t kWindowB = 2048, kBlockB = 1024, kMpbB = 512;
  sim::SccConfig cfg;
  cfg.fault = plan;
  cfg.sync_timeout_ticks = sync_timeout_ticks;
  cfg.drf_check = drf_check;
  sim::SccMachine m(cfg);
  rcce::RcceEnv env(m);
  const std::uint64_t table = m.shmalloc(kUes * kWindowB);
  const std::uint64_t blocks = m.shmalloc(kUes * kBlockB);
  const std::uint64_t counter = m.shmalloc(64);
  const std::uint64_t out = m.shmalloc(kUes * 8);
  auto* g = reinterpret_cast<std::uint64_t*>(m.shmData(table));
  for (std::size_t i = 0; i < kUes * kWindowB / 8; ++i) {
    g[i] = 0x9e3779b97f4a7c15ull * (i + 1);
  }
  m.setShmCacheability(table, table + kUes * kWindowB, true);
  const std::uint64_t slot = env.mpbMallocSymmetric(kUes, 2 * kMpbB);
  m.launch(sim::LaunchSpec(kUes, [=](sim::CoreContext& ctx) {
    return faultMix(ctx, table, blocks, counter, out, slot, kRounds, kWindowB,
                    kBlockB, kMpbB);
  }));
  FaultRun res;
  try {
    res.makespan = m.run();
  } catch (const sim::DeadlockError& e) {
    res.deadlock = true;
    for (const sim::HangReport::Waiter& w : e.report().waiters) {
      if (static_cast<int>(w.task) == plan.permafrost_ue &&
          w.sync == sim::Engine::kNoSync) {
        res.frozen_named = true;
      }
    }
  } catch (const sim::SyncTimeout&) {
    res.sync_timeout = true;
  }
  for (int ue = 0; ue < kUes; ++ue) {
    res.completions.push_back(
        m.engine().completionTime(static_cast<std::size_t>(ue)));
  }
  const std::uint8_t* base = m.shmData(table);
  res.memory.assign(base, base + (out + kUes * 8 - table));
  res.stats = m.faultStats();
  if (drf_check) res.drf_races = m.drfChecker().reports().size();
  return res;
}

// --- drf run helper ---------------------------------------------------------

/// One detector-instrumented run: Ticks plus the checker's verdict. The
/// formatted report string is the byte-identity oracle — two runs that
/// differ only in coalescing mode must reproduce it exactly
/// (docs/race_detection.md, "Determinism contract").
struct DrfRun {
  Tick makespan = 0;
  std::vector<Tick> completions;
  std::uint64_t races = 0;
  std::uint64_t checked = 0;        ///< accesses the checker examined
  bool false_sharing_only = true;   ///< every report carries the FS flag
  std::string reports;              ///< DrfChecker::formatReports()
};

DrfRun runDrfOnce(bool drf, bool word_granular, bool coalescing, int ues,
                  const std::function<void(sim::SccMachine&)>& setup) {
  sim::SccConfig cfg;
  cfg.drf_check = drf;
  cfg.drf_word_granular = word_granular;
  cfg.coalescing = coalescing;
  sim::SccMachine m(cfg);
  setup(m);
  DrfRun r;
  r.makespan = m.run();
  for (int ue = 0; ue < ues; ++ue) {
    r.completions.push_back(m.engine().completionTime(static_cast<std::size_t>(ue)));
  }
  if (drf) {
    r.races = m.drfChecker().reports().size();
    r.checked = m.drfChecker().accessesChecked();
    for (const auto& rep : m.drfChecker().reports()) {
      r.false_sharing_only = r.false_sharing_only && rep.false_sharing;
    }
    r.reports = m.drfChecker().formatReports();
  }
  return r;
}

// --- JSON emission ----------------------------------------------------------

/// FNV-1a over the per-task completion Ticks (little-endian bytes) and the
/// extracted result bytes: the sim-domain fingerprint of a run, gated
/// exactly against the baseline by compare_bench.py.
std::uint64_t simHash(const RunStats& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint8_t b) { h = (h ^ b) * 0x100000001b3ull; };
  for (const Tick t : s.completions) {
    for (int i = 0; i < 8; ++i) mix(static_cast<std::uint8_t>(t >> (8 * i)));
  }
  for (const std::uint8_t b : s.result_bytes) mix(b);
  return h;
}

void printRun(std::string* out, const char* key, const RunStats& s) {
  // "shm_words"/"shm_words_per_sec" cover the *logical* shared-word workload
  // (RunStats::logicalWords) so the compare_bench.py throughput metric stays
  // invariant to the routing.
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "      \"%s\": {\"wall_seconds\": %.6f, \"events\": %llu, "
                "\"events_per_sec\": %.0f, \"shm_words\": %llu, "
                "\"shm_word_events\": %llu, \"shm_words_per_sec\": %.0f, "
                "\"mpb_chunks\": %llu, \"mpb_chunk_events\": %llu, "
                "\"mpb_chunks_per_sec\": %.0f, "
                "\"swcache_words\": %llu, \"swcache_line_txns\": %llu, "
                "\"swcache_line_events\": %llu, \"swcache_hit_rate\": %.4f, "
                "\"coalescing_rate\": %.4f, \"makespan_ps\": %llu, "
                "\"sim_hash\": \"%016llx\"}",
                key, s.wall_seconds, static_cast<unsigned long long>(s.events),
                s.eventsPerSec(),
                static_cast<unsigned long long>(s.logicalWords()),
                static_cast<unsigned long long>(s.shm_word_events), s.wordsPerSec(),
                static_cast<unsigned long long>(s.mpb_chunks),
                static_cast<unsigned long long>(s.mpb_chunk_events), s.chunksPerSec(),
                static_cast<unsigned long long>(s.swcache_words),
                static_cast<unsigned long long>(s.swcache_line_txns),
                static_cast<unsigned long long>(s.swcache_line_events),
                s.swcacheHitRate(), s.coalescingRate(),
                static_cast<unsigned long long>(s.makespan),
                static_cast<unsigned long long>(simHash(s)));
  *out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  // --scenario NAME runs just that scenario (CI uses it to run the fault
  // sweep under sanitizers without paying for the full matrix). Skipped
  // sections leave their ok-flags true and their JSON entries absent;
  // compare_bench.py only gates full runs.
  // --list-scenarios prints one scenario name per line and exits — the
  // discovery hook for CI matrices and humans narrowing a --scenario run.
  // Must track the scenario blocks below.
  static const char* const kScenarioNames[] = {
      "shm_words_single_ue",  "shm_words_staggered_8ue", "shm_words_synced_8ue",
      "shm_words_contended_8ue", "rcce_ring_1k_8ue",
      "mixed_shm_mpb_8ue",    "event_kernel_8ue",        "barrier_32ue",
      "mpb_pingpong_2ue",     "bulk_copy_8ue",           "stencil_readmostly_8ue",
      "lu_shared_cached",     "mixed_policy_8ue",        "fault_sweep_8ue",
      "kv_zipf_8ue",          "drf_racy_8ue",            "drf_false_sharing_8ue",
      "drf_clean_suite_8ue",  "obs_trace_8ue",
  };
  // --trace-out FILE writes the Chrome trace-event JSON of the traced
  // obs_trace_8ue run to FILE (the CI artifact scripts/validate_trace.py
  // checks); it forces that run even under a --scenario filter.
  // Anything else — an unknown flag, a flag missing its value, a misspelled
  // scenario — prints the usage and exits 2 instead of running the matrix.
  const auto usage = [](const std::string& problem) {
    std::fprintf(stderr,
                 "micro_sim: %s\nusage: micro_sim [--list-scenarios] "
                 "[--scenario NAME] [--trace-out FILE]\nscenarios:\n",
                 problem.c_str());
    for (const char* name : kScenarioNames) std::fprintf(stderr, "  %s\n", name);
    return 2;
  };
  std::string only;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-scenarios") {
      for (const char* name : kScenarioNames) std::puts(name);
      return 0;
    }
    if (arg != "--scenario" && arg != "--trace-out") {
      return usage("unknown argument '" + arg + "'");
    }
    if (i + 1 == argc) return usage(arg + " needs a value");
    (arg == "--scenario" ? only : trace_out) = argv[++i];
    if (arg == "--scenario" && std::find(std::begin(kScenarioNames), std::end(kScenarioNames),
                                         only) == std::end(kScenarioNames)) {
      return usage("unknown scenario '" + only + "'");
    }
  }
  const auto want = [&only](const std::string& name) {
    return only.empty() || only == name;
  };

  bool all_identical = true;
  std::string json = "{\n  \"bench\": \"micro_sim\",\n  \"scenarios\": [\n";

  // Shared-memory word-granular scenarios: coalescing on vs off with a hard
  // tick-equivalence check.
  //
  // The two MPB scenarios launch plan-driven: an ExecutionPlan supplies the
  // per-UE owner sets that used to be hand-built MpbScope lambdas. The plans
  // outlive the setup lambdas that capture them.
  const std::size_t kBlock = 4096;
  using partition::ExecutionPlan;
  using partition::MpbPattern;
  using partition::PlacementClass;
  using partition::RegionPlan;
  const ExecutionPlan ring_plan{{RegionPlan{
      "ring_slot", PlacementClass::kOnChipResident, MpbPattern::kNeighborRing,
      2 * 1024}}};
  const ExecutionPlan mixed_plan{
      {RegionPlan{"blocks", PlacementClass::kOffChipUncached, MpbPattern::kNone,
                  8 * kBlock},
       RegionPlan{"slot", PlacementClass::kOnChipResident, MpbPattern::kNeighborRing,
                  512}}};
  std::vector<Workload> ab = {
      {"shm_words_single_ue", 1, 200,
       [&](sim::SccMachine& m) {
         const std::uint64_t base = m.shmalloc(64 * kBlock);
         m.launch(sim::LaunchSpec(1, [=](sim::CoreContext& ctx) {
           return blockReader(ctx, base, 64, kBlock);
         }));
       },
       /*extract_offset=*/0, /*extract_bytes=*/kBlock},
      {"shm_words_staggered_8ue", 8, 20,
       [&](sim::SccMachine& m) {
         const std::uint64_t base = m.shmalloc(8 * kBlock);
         m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
           return staggeredMix(ctx, base, 16, kBlock);
         }));
       },
       /*extract_offset=*/0, /*extract_bytes=*/8 * kBlock},
      {"shm_words_synced_8ue", 8, 30,
       [&](sim::SccMachine& m) {
         const std::uint64_t base = m.shmalloc(8 * kBlock + 8);
         const std::uint64_t counter = m.shmalloc(8);
         m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
           return syncedMix(ctx, base, counter, 8, kBlock);
         }));
       },
       /*extract_offset=*/0, /*extract_bytes=*/8 * kBlock + 16},
      {"shm_words_contended_8ue", 8, 50,
       [&](sim::SccMachine& m) {
         const std::uint64_t base = m.shmalloc(1 << 16);
         m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
           return wordHammer(ctx, base, 512);
         }));
       },
       /*extract_offset=*/0, /*extract_bytes=*/kBlock},
      {"rcce_ring_1k_8ue", 8, 30,
       [&](sim::SccMachine& m) {
         rcce::RcceEnv env(m);
         // Two parity buffers of 1 KB each (rcceRing double-buffers). The
         // plan's neighbor-ring pattern materializes the {ue, right} owner
         // sets the hand-built lambda used to declare.
         const std::uint64_t slot = env.mpbMallocSymmetric(8, 2 * 1024);
         m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) { return rcceRing(ctx, slot, 8, 1024); }).withPlan(&ring_plan));
       }},
      {"mixed_shm_mpb_8ue", 8, 20,
       [&](sim::SccMachine& m) {
         rcce::RcceEnv env(m);
         const std::uint64_t base = m.shmalloc(8 * kBlock);
         const std::uint64_t slot = env.mpbMallocSymmetric(8, 512);
         m.setShmCacheability(base, base + 8 * kBlock, false);  // plan: uncached
         m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
               return mixedShmMpb(ctx, base, slot, 8, kBlock, 512);
             }).withPlan(&mixed_plan));
       }},
  };
  // Plan-driven twins of two legacy-knob word scenarios: identical kernels,
  // but regions explicitly mapped off-chip-uncached in the cacheability map
  // and launched through an (MPB-free) ExecutionPlan. The identity check
  // below requires their Ticks to match the legacy runs bit for bit — the
  // acceptance bar for the ExecutionPlan API cutover.
  static const ExecutionPlan word_plan{{RegionPlan{
      "blocks", PlacementClass::kOffChipUncached, MpbPattern::kNone, 9 * kBlock}}};
  ab[1].setup_plan = [&](sim::SccMachine& m) {
    const std::uint64_t base = m.shmalloc(8 * kBlock);
    m.setShmCacheability(base, base + 8 * kBlock, false);
    m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
      return staggeredMix(ctx, base, 16, kBlock);
    }).withPlan(&word_plan));
  };
  ab[2].setup_plan = [&](sim::SccMachine& m) {
    const std::uint64_t base = m.shmalloc(8 * kBlock + 8);
    const std::uint64_t counter = m.shmalloc(8);
    m.setShmCacheability(base, counter + 8, false);
    m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
      return syncedMix(ctx, base, counter, 8, kBlock);
    }).withPlan(&word_plan));
  };

  bool first = true;
  for (const Workload& w : ab) {
    if (!want(w.name)) continue;
    const RunStats on = runWorkload(w, Mode{});
    const RunStats off = runWorkload(w, Mode{false});
    bool identical = on.makespan == off.makespan && on.completions == off.completions;
    if (w.setup_plan) {
      // ExecutionPlan-launched, cacheability-mapped twin: the plan-driven
      // API must not move a single Tick on legacy-knob scenarios.
      const RunStats plan_run = runWorkload(w, Mode{}, /*plan_setup=*/true);
      identical = identical && plan_run.makespan == off.makespan &&
                  plan_run.completions == off.completions;
    }
    all_identical = all_identical && identical;

    const double event_reduction =
        off.events > 0
            ? 1.0 - static_cast<double>(on.events) / static_cast<double>(off.events)
            : 0.0;
    const double wall_speedup =
        on.wall_seconds > 0 ? off.wall_seconds / on.wall_seconds : 0.0;

    if (!first) json += ",\n";
    first = false;
    json += "    {\"name\": \"" + w.name + "\",\n";
    printRun(&json, "coalesced", on);
    json += ",\n";
    printRun(&json, "legacy", off);
    char buf[400];
    std::snprintf(buf, sizeof(buf),
                  ",\n      \"ticks_identical\": %s, \"event_reduction\": %.4f, "
                  "\"wall_speedup\": %.2f}",
                  identical ? "true" : "false", event_reduction, wall_speedup);
    json += buf;
  }

  // Substrate scenarios (no word-granular shm): engine throughput only.
  std::vector<Workload> substrate = {
      {"event_kernel_8ue", 8, 60,
       [](sim::SccMachine& m) {
         m.launch(sim::LaunchSpec(8, [](sim::CoreContext& ctx) { return spinner(ctx, 1000); }));
       }},
      {"barrier_32ue", 32, 150,
       [](sim::SccMachine& m) {
         m.launch(sim::LaunchSpec(32, [](sim::CoreContext& ctx) { return barrierLoop(ctx, 64); }));
       }},
      {"mpb_pingpong_2ue", 2, 350,
       [](sim::SccMachine& m) {
         rcce::RcceEnv env(m);
         const std::uint64_t off = env.mpbMallocSymmetric(2, 64);
         m.launch(sim::LaunchSpec(2, [=](sim::CoreContext& ctx) { return mpbPingPong(ctx, off, 256); }));
       }},
      {"bulk_copy_8ue", 8, 400,
       [](sim::SccMachine& m) {
         const std::uint64_t base = m.shmalloc(1 << 20);
         m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) { return bulkReader(ctx, base, 64); }));
       }},
  };
  for (const Workload& w : substrate) {
    if (!want(w.name)) continue;
    const RunStats s = runWorkload(w, Mode{});
    if (!first) json += ",\n";
    first = false;
    json += "    {\"name\": \"" + w.name + "\",\n";
    printRun(&json, "coalesced", s);
    json += "}";
  }

  // Swcache scenarios: shared-memory routing A/B (software-managed
  // release-consistency cache vs the uncached word path). The "coalesced"
  // run is the cached one (write-back policy) — the configuration whose
  // trajectory compare_bench.py gates, including its swcache_hit_rate; the
  // "uncached"/"writethrough" runs are references. DRF programs must
  // produce bit-identical functional results on every routing; the stencil
  // scenario must also clear the 90% hit-rate bar. Both checks feed the
  // process exit code.
  bool swcache_ok = true;
  {
    const std::size_t kWindow = 4096;
    std::vector<Workload> cached_ab = {
        {"stencil_readmostly_8ue", 8, 6,
         [&](sim::SccMachine& m) {
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
         /*extract_offset=*/8 * kWindow, /*extract_bytes=*/8 * 64,
         /*min_hit_rate=*/0.90},
        {"lu_shared_cached", 8, 4,
         [&](sim::SccMachine& m) {
           const std::size_t n = 64;
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
         /*extract_offset=*/0, /*extract_bytes=*/64 * 64 * 8},
    };
    for (const Workload& w : cached_ab) {
      if (!want(w.name)) continue;
      const RunStats cached = runWorkload(w, Mode{true, 1});
      const RunStats uncached = runWorkload(w, Mode{true, 0});
      const RunStats wthrough = runWorkload(w, Mode{true, 2});
      const bool functional = cached.result_bytes == uncached.result_bytes &&
                              wthrough.result_bytes == uncached.result_bytes;
      const double hit_rate = cached.swcacheHitRate();
      const bool hit_ok = hit_rate >= w.min_hit_rate;
      swcache_ok = swcache_ok && functional && hit_ok;
      const double words_speedup = uncached.wordsPerSec() > 0
                                       ? cached.wordsPerSec() / uncached.wordsPerSec()
                                       : 0.0;
      if (!first) json += ",\n";
      first = false;
      json += "    {\"name\": \"" + w.name + "\",\n";
      printRun(&json, "coalesced", cached);
      json += ",\n";
      printRun(&json, "uncached", uncached);
      json += ",\n";
      printRun(&json, "writethrough", wthrough);
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    ",\n      \"functional_identical\": %s, "
                    "\"swcache_hit_rate\": %.4f, "
                    "\"words_speedup_vs_uncached\": %.2f}",
                    functional ? "true" : "false", hit_rate, words_speedup);
      json += buf;
    }
  }

  // Mixed-policy scenario (the ExecutionPlan payoff run): a cached
  // read-mostly table plus an uncached lock-guarded reduction cell in ONE
  // run, via the per-region cacheability map. Gated: the mixed plan must
  // beat BOTH machine-wide settings on simulated words per simulated second
  // (deterministic, so an exact comparison), produce bit-identical
  // functional results, clear the table hit-rate bar, and record zero MPB
  // scope violations under its (MPB-free) declared plan.
  bool policy_ok = true;
  if (want("mixed_policy_8ue")) {
    constexpr std::size_t kWindow = 4096;
    constexpr int kRounds = 4, kSweeps = 8, kUpdates = 32;
    const ExecutionPlan policy_plan{
        {RegionPlan{"table", PlacementClass::kOffChipCached, MpbPattern::kNone,
                    8 * kWindow},
         RegionPlan{"cell", PlacementClass::kOffChipUncached, MpbPattern::kNone, 64},
         RegionPlan{"out", PlacementClass::kOffChipUncached, MpbPattern::kNone,
                    8 * 64}}};
    // policy: 0 = plan-driven mixed map, 1 = everything cached (the
    // machine-wide shm_swcache knob), 2 = everything uncached.
    auto makeWorkload = [&](int policy) {
      Workload w;
      w.name = "mixed_policy_8ue";
      w.ues = 8;
      w.repetitions = 6;
      w.extract_offset = 8 * kWindow;        // cell (line-padded) + out region
      w.extract_bytes = 64 + 8 * 64;
      // (No min_hit_rate: that field only gates the swcache A/B loop above.
      // The mixed run's bar — exactly 7/8 steady state with 8 sweeps/round,
      // the first sweep of each round fills every line — is enforced in
      // policy_ok below.)
      w.setup = [&policy_plan, policy, kWindow, kRounds, kSweeps,
                 kUpdates](sim::SccMachine& m) {
        const std::uint64_t table = m.shmalloc(8 * kWindow);
        const std::uint64_t cell = m.shmalloc(64);  // own line: no false sharing
        const std::uint64_t out = m.shmalloc(8 * 64);
        auto* g = reinterpret_cast<std::uint64_t*>(m.shmData(table));
        for (std::size_t i = 0; i < 8 * kWindow / 8; ++i) {
          g[i] = 0x9e3779b97f4a7c15ull * (i + 1);
        }
        if (policy == 0) {
          m.setShmCacheability(table, table + 8 * kWindow, true);
          m.setShmCacheability(cell, cell + 64, false);
          m.setShmCacheability(out, out + 8 * 64, false);
        }
        m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
                   return mixedPolicy(ctx, table, cell, out, kRounds, kSweeps,
                                      kUpdates, kWindow);
                 }).withPlan(policy == 0 ? &policy_plan : nullptr));
      };
      return w;
    };
    const RunStats mixed = runWorkload(makeWorkload(0), Mode{true, 0});
    const RunStats cached = runWorkload(makeWorkload(1), Mode{true, 1});
    const RunStats uncached = runWorkload(makeWorkload(2), Mode{true, 0});

    // Simulated words per simulated second: deterministic (derived from the
    // makespan, not host wall time), so the "mixed beats both" bar is exact.
    auto simRate = [](const RunStats& s, int reps) {
      return s.makespan > 0 ? static_cast<double>(s.logicalWords() /
                                                  static_cast<std::uint64_t>(reps)) /
                                  (static_cast<double>(s.makespan) * 1e-12)
                            : 0.0;
    };
    const double mixed_rate = simRate(mixed, 6);
    const double cached_rate = simRate(cached, 6);
    const double uncached_rate = simRate(uncached, 6);
    const bool functional = mixed.result_bytes == uncached.result_bytes &&
                            cached.result_bytes == uncached.result_bytes;
    policy_ok = functional && mixed.swcacheHitRate() >= 0.85 &&
                mixed.mpb_scope_violations == 0 && mixed_rate > cached_rate &&
                mixed_rate > uncached_rate;

    if (!first) json += ",\n";
    first = false;
    json += "    {\"name\": \"mixed_policy_8ue\",\n";
    printRun(&json, "coalesced", mixed);
    json += ",\n";
    printRun(&json, "all_cached", cached);
    json += ",\n";
    printRun(&json, "all_uncached", uncached);
    char buf[400];
    std::snprintf(buf, sizeof(buf),
                  ",\n      \"functional_identical\": %s, "
                  "\"swcache_hit_rate\": %.4f, \"mpb_scope_violations\": %llu, "
                  "\"sim_words_per_sim_sec\": {\"mixed\": %.0f, \"all_cached\": %.0f, "
                  "\"all_uncached\": %.0f}, \"policy_wins\": %s}",
                  functional ? "true" : "false", mixed.swcacheHitRate(),
                  static_cast<unsigned long long>(mixed.mpb_scope_violations),
                  mixed_rate, cached_rate, uncached_rate,
                  policy_ok ? "true" : "false");
    json += buf;
  }

  // Fault-injection sweep: the robustness acceptance run (docs/fault_model.md).
  // Five configurations of ONE kernel exercising every faultable path:
  //   * fault_free   — plan disabled (the baseline the rest compare against);
  //   * zero_rate    — plan ENABLED with every rate zero: must be
  //                    bit-identical to fault_free (makespan, completions,
  //                    final memory) — the armed-but-quiet determinism bar;
  //   * faulty       — seeded rates on every class: every transient
  //                    MPB/DRAM fault must be detected and repaired
  //                    (unrecovered == 0, recovery rate 1.0) and the final
  //                    shared memory must be byte-identical to fault_free;
  //   * faulty again — same seed: identical makespan, stats, and memory
  //                    (the same-seed replay determinism bar);
  //   * permafrost   — UE 2 wedges permanently mid-run: the run must END in
  //                    a DeadlockError whose wait-for graph names the frozen
  //                    task (parked with no sync object), not hang;
  //   * sync-timeout — a deliberately sub-realistic lock/barrier timeout:
  //                    the first wait must raise SyncTimeout.
  // All six checks fold into fault_checks_ok and the process exit code.
  bool fault_ok = true;
  double fault_recovery_rate = 1.0;
  if (want("fault_sweep_8ue")) {
    using sim::FaultClass;
    const auto idx = [](FaultClass c) { return static_cast<std::size_t>(c); };
    sim::FaultPlan off{};  // enabled = false
    sim::FaultPlan zero{};
    zero.enabled = true;
    sim::FaultPlan hot{};
    hot.enabled = true;
    hot.mpb_transfer.rate = 0.08;
    hot.shm_write.rate = 0.06;
    hot.swcache_flush.rate = 0.15;
    hot.mc_stall.rate = 0.02;
    hot.core_freeze.rate = 0.005;
    sim::FaultPlan frost{};
    frost.enabled = true;
    frost.permafrost_ue = 2;
    frost.permafrost_after_ops = 10;

    const FaultRun ff = runFaultSweep(off, 0);
    const FaultRun zr = runFaultSweep(zero, 0);
    const FaultRun hr = runFaultSweep(hot, 0);
    const FaultRun hr2 = runFaultSweep(hot, 0);
    const FaultRun pf = runFaultSweep(frost, 0);
    const FaultRun to = runFaultSweep(off, 1000);  // 1 ns: any real wait trips

    const bool zero_identical = zr.makespan == ff.makespan &&
                                zr.completions == ff.completions &&
                                zr.memory == ff.memory;
    const bool recovery_ok =
        !hr.deadlock && !hr.sync_timeout &&
        hr.stats.injected[idx(FaultClass::kMpbTransfer)] > 0 &&
        hr.stats.injected[idx(FaultClass::kShmWrite)] > 0 &&
        hr.stats.injected[idx(FaultClass::kSwcacheFlush)] > 0 &&
        hr.stats.unrecovered == 0 && hr.stats.recoveryRate() == 1.0 &&
        hr.memory == ff.memory;
    const bool replay_identical =
        hr2.makespan == hr.makespan && hr2.completions == hr.completions &&
        hr2.memory == hr.memory &&
        hr2.stats.totalInjected() == hr.stats.totalInjected() &&
        hr2.stats.retries == hr.stats.retries &&
        hr2.stats.stall_ticks == hr.stats.stall_ticks;
    const bool deadlock_reported = pf.deadlock && pf.frozen_named;
    const bool timeout_raised = to.sync_timeout;
    fault_ok = zero_identical && recovery_ok && replay_identical &&
               deadlock_reported && timeout_raised;
    fault_recovery_rate = hr.stats.recoveryRate();

    if (!first) json += ",\n";
    first = false;
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"fault_sweep_8ue\",\n"
        "      \"fault_free_makespan_ps\": %llu, \"faulty_makespan_ps\": %llu,\n"
        "      \"faults_injected\": %llu, \"faults_recovered\": %llu, "
        "\"fault_retries\": %llu, \"faults_unrecovered\": %llu, "
        "\"stall_ticks\": %llu, \"freezes\": %llu,\n"
        "      \"recovery_rate\": %.4f, \"zero_rate_identical\": %s, "
        "\"recovery_ok\": %s, \"replay_identical\": %s, "
        "\"deadlock_reported\": %s, \"sync_timeout_raised\": %s, "
        "\"fault_checks_ok\": %s}",
        static_cast<unsigned long long>(ff.makespan),
        static_cast<unsigned long long>(hr.makespan),
        static_cast<unsigned long long>(hr.stats.totalInjected()),
        static_cast<unsigned long long>(hr.stats.totalRecovered()),
        static_cast<unsigned long long>(hr.stats.retries),
        static_cast<unsigned long long>(hr.stats.unrecovered),
        static_cast<unsigned long long>(hr.stats.stall_ticks),
        static_cast<unsigned long long>(hr.stats.freezes), fault_recovery_rate,
        zero_identical ? "true" : "false", recovery_ok ? "true" : "false",
        replay_identical ? "true" : "false",
        deadlock_reported ? "true" : "false", timeout_raised ? "true" : "false",
        fault_ok ? "true" : "false");
    json += buf;
  }

  // KV store under Zipf traffic (workloads::makeKvStore): the controller-
  // placement A/B. Hot keys sit in the slab's lowest stripes, so an
  // address-striped plan concentrates the skewed load on ONE controller
  // (high controller_load_cv) while the owner-compute plan spreads it with
  // the evenly-placed requesters (near-zero CV). Both plans must verify
  // against the host replay, the harness and Benchmark runs of the same
  // plan must agree on the makespan Tick, and the striped run must hot-spot
  // materially above the placed run — all folded into kv_checks_ok and the
  // exit code. The placed (owner-compute) run is the tracked "coalesced"
  // configuration in the BENCH trajectory.
  bool kv_ok = true;
  double kv_cv_striped = 0.0;
  double kv_cv_placed = 0.0;
  if (want("kv_zipf_8ue")) {
    using partition::ControllerPlacement;
    const workloads::KvParams kvp{};  // 4096 keys, alpha 1.2, 2048 ops/UE
    std::size_t index_cap = 1;
    while (index_cap < 2 * kvp.num_keys) index_cap *= 2;
    const std::size_t slab_bytes = kvp.num_keys * 4 * 8;
    auto kvPlan = [&](ControllerPlacement cp) {
      return ExecutionPlan{
          {RegionPlan{"kv_index", PlacementClass::kOffChipUncached,
                      MpbPattern::kNone, index_cap * 8, cp},
           RegionPlan{"kv_slots", PlacementClass::kOffChipUncached,
                      MpbPattern::kNone, slab_bytes, cp},
           RegionPlan{"kv_checks", PlacementClass::kOffChipUncached,
                      MpbPattern::kNone, 8 * 8}}};
    };
    const ExecutionPlan striped_plan = kvPlan(ControllerPlacement::kStriped);
    const ExecutionPlan placed_plan = kvPlan(ControllerPlacement::kOwnerCompute);
    auto kvWorkload = [&](const ExecutionPlan& plan) {
      Workload w;
      w.name = "kv_zipf_8ue";
      w.ues = 8;
      w.repetitions = 6;
      w.setup = [&kvp, &plan](sim::SccMachine& m) {
        workloads::setupKvRcce(m, kvp, 8, &plan);
      };
      return w;
    };
    const RunStats placed = runWorkload(kvWorkload(placed_plan), Mode{});
    const RunStats striped = runWorkload(kvWorkload(striped_plan), Mode{});

    // Verification and the per-controller load spread ride the Benchmark
    // API (RunResult::controller_load_cv) — same kernel, same default
    // config, so the makespans must agree Tick for Tick with the harness
    // runs above.
    const sim::SccConfig kv_cfg;
    const std::unique_ptr<workloads::Benchmark> kv = workloads::makeKvStore(kvp);
    const workloads::RunResult placed_r =
        kv->run(workloads::Mode::RcceOffChip, 8, kv_cfg, &placed_plan);
    const workloads::RunResult striped_r =
        kv->run(workloads::Mode::RcceOffChip, 8, kv_cfg, &striped_plan);
    kv_cv_placed = placed_r.controller_load_cv;
    kv_cv_striped = striped_r.controller_load_cv;
    kv_ok = placed_r.verified && striped_r.verified &&
            placed_r.makespan == placed.makespan &&
            striped_r.makespan == striped.makespan &&
            kv_cv_placed < 0.05 && kv_cv_striped > 0.30 &&
            kv_cv_striped > 20.0 * kv_cv_placed;

    auto trafficJson = [](const std::vector<std::uint64_t>& t) {
      std::string s = "[";
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (i > 0) s += ", ";
        s += std::to_string(t[i]);
      }
      return s + "]";
    };
    if (!first) json += ",\n";
    first = false;
    json += "    {\"name\": \"kv_zipf_8ue\",\n";
    printRun(&json, "coalesced", placed);
    json += ",\n";
    printRun(&json, "striped", striped);
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  ",\n      \"verified_placed\": %s, \"verified_striped\": %s, "
                  "\"controller_load_cv_placed\": %.4f, "
                  "\"controller_load_cv_striped\": %.4f,\n"
                  "      \"controller_traffic_placed\": %s, "
                  "\"controller_traffic_striped\": %s, \"kv_checks_ok\": %s}",
                  placed_r.verified ? "true" : "false",
                  striped_r.verified ? "true" : "false", kv_cv_placed,
                  kv_cv_striped, trafficJson(placed_r.controller_traffic).c_str(),
                  trafficJson(striped_r.controller_traffic).c_str(),
                  kv_ok ? "true" : "false");
    json += buf;
  }

  // DRF detector scenarios (docs/race_detection.md). Three gated sections,
  // all folded into drf_checks_ok and the exit code:
  //   * drf_racy_8ue — a lockless shared counter the detector MUST flag in
  //     both granularity modes, with byte-identical reports across
  //     coalescing modes, and drf_check=true must
  //     not move a single Tick against the drf_check=false twin;
  //   * drf_false_sharing_8ue — per-UE slots packed four to a cached line:
  //     line-granular mode must flag it FALSE-SHARING, word-granular mode
  //     must stay silent (the divergence that motivates the two contracts);
  //   * drf_clean_suite_8ue — all seven paper benchmarks run detector-clean
  //     in line mode, and the fault sweep's corruption/repair path on a
  //     drf-checked cached region reports zero races (faults are functional
  //     corruption, not missing happens-before edges).
  bool drf_ok = true;
  if (want("drf_racy_8ue")) {
    const auto setup = [](sim::SccMachine& m) {
      const std::uint64_t counter = m.shmalloc(64);
      m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
        return racyCounter(ctx, counter, 4);
      }));
    };
    const DrfRun line = runDrfOnce(true, false, true, 8, setup);
    const DrfRun word = runDrfOnce(true, true, true, 8, setup);
    const DrfRun off = runDrfOnce(false, false, true, 8, setup);
    const DrfRun nocoal = runDrfOnce(true, false, false, 8, setup);
    const bool detected = line.races > 0 && word.races > 0;
    const bool deterministic = nocoal.reports == line.reports &&
                               nocoal.makespan == line.makespan &&
                               nocoal.completions == line.completions;
    const bool ticks_unchanged =
        off.makespan == line.makespan && off.completions == line.completions;
    drf_ok = drf_ok && detected && deterministic && ticks_unchanged;
    if (!first) json += ",\n";
    first = false;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"drf_racy_8ue\",\n"
                  "      \"races_line\": %llu, \"races_word\": %llu, "
                  "\"accesses_checked\": %llu, \"detected\": %s, "
                  "\"reports_deterministic\": %s, \"ticks_unchanged\": %s}",
                  static_cast<unsigned long long>(line.races),
                  static_cast<unsigned long long>(word.races),
                  static_cast<unsigned long long>(line.checked),
                  detected ? "true" : "false", deterministic ? "true" : "false",
                  ticks_unchanged ? "true" : "false");
    json += buf;
  }
  if (want("drf_false_sharing_8ue")) {
    const auto setup = [](sim::SccMachine& m) {
      // 8 UEs x 8 B slots = two 32 B lines, four slots each, swcache-cached:
      // disjoint words, shared lines.
      const std::uint64_t base = m.shmalloc(64);
      m.setShmCacheability(base, base + 64, true);
      m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
        return falseSharingSlots(ctx, base, 4);
      }));
    };
    const DrfRun line = runDrfOnce(true, false, true, 8, setup);
    const DrfRun word = runDrfOnce(true, true, true, 8, setup);
    const DrfRun nocoal = runDrfOnce(true, false, false, 8, setup);
    const bool detected =
        line.races > 0 && line.false_sharing_only && word.races == 0;
    const bool deterministic = nocoal.reports == line.reports;
    drf_ok = drf_ok && detected && deterministic;
    if (!first) json += ",\n";
    first = false;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"drf_false_sharing_8ue\",\n"
                  "      \"races_line\": %llu, \"races_word\": %llu, "
                  "\"all_false_sharing\": %s, \"detected\": %s, "
                  "\"reports_deterministic\": %s}",
                  static_cast<unsigned long long>(line.races),
                  static_cast<unsigned long long>(word.races),
                  line.false_sharing_only ? "true" : "false",
                  detected ? "true" : "false", deterministic ? "true" : "false");
    json += buf;
  }
  if (want("drf_clean_suite_8ue")) {
    sim::SccConfig drf_cfg;
    drf_cfg.drf_check = true;
    bool suite_clean = true;
    std::uint64_t suite_races = 0;
    for (const auto& bench : workloads::standardSuite(0.25)) {
      for (const workloads::Mode mode :
           {workloads::Mode::RcceOffChip, workloads::Mode::RcceMpb}) {
        const workloads::RunResult r = bench->run(mode, 8, drf_cfg);
        suite_clean = suite_clean && r.verified && r.drf_races == 0;
        suite_races += r.drf_races;
      }
    }
    // The seventh benchmark: the KV store's benign canonical-value races are
    // exempted at setup (workloads/kv_store.cpp), everything else must be
    // ordered.
    const workloads::KvParams kvp{};
    const workloads::RunResult kvr = workloads::makeKvStore(kvp)->run(
        workloads::Mode::RcceOffChip, 8, drf_cfg);
    suite_clean = suite_clean && kvr.verified && kvr.drf_races == 0;
    suite_races += kvr.drf_races;
    // Fault regression: hot corruption rates on the fault-sweep kernel (its
    // cached windows are drf-checked) — injected faults must be repaired,
    // not misreported as races.
    sim::FaultPlan hot{};
    hot.enabled = true;
    hot.mpb_transfer.rate = 0.08;
    hot.shm_write.rate = 0.06;
    hot.swcache_flush.rate = 0.15;
    const FaultRun fr = runFaultSweep(hot, 0, /*drf_check=*/true);
    const bool fault_regression_ok = !fr.deadlock && !fr.sync_timeout &&
                                     fr.stats.totalInjected() > 0 &&
                                     fr.stats.unrecovered == 0 && fr.drf_races == 0;
    drf_ok = drf_ok && suite_clean && fault_regression_ok;
    if (!first) json += ",\n";
    first = false;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"drf_clean_suite_8ue\",\n"
                  "      \"suite_clean\": %s, \"suite_races\": %llu, "
                  "\"fault_faults_injected\": %llu, \"fault_drf_races\": %llu, "
                  "\"fault_regression_ok\": %s}",
                  suite_clean ? "true" : "false",
                  static_cast<unsigned long long>(suite_races),
                  static_cast<unsigned long long>(fr.stats.totalInjected()),
                  static_cast<unsigned long long>(fr.drf_races),
                  fault_regression_ok ? "true" : "false");
    json += buf;
  }
  json += "\n  ],\n";

  // Observability section: the determinism contract of the simulated-time
  // tracer (docs/observability.md), checked on live scenario kernels rather
  // than unit fixtures. A traced run must export byte-identical Chrome JSON
  // across coalescing modes, and enabling the trace must not move a single
  // Tick. barrier_32ue measured traced-vs-untraced quantifies the recorder's
  // enabled-mode wall cost as trace_overhead (>= 1.0, tracked not gated).
  bool obs_ok = true;
  double trace_overhead = 0.0;
  std::uint64_t trace_events = 0;
  if (want("obs_trace_8ue") || !trace_out.empty()) {
    struct TracedRun {
      Tick makespan = 0;
      std::uint64_t recorded = 0;
      std::string json;
    };
    const auto runSynced = [&](bool traced, bool coalescing) {
      sim::SccConfig cfg;
      cfg.coalescing = coalescing;
      cfg.trace_enabled = traced;
      sim::SccMachine m(cfg);
      const std::uint64_t base = m.shmalloc(8 * kBlock + 8);
      const std::uint64_t counter = m.shmalloc(8);
      m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
        return syncedMix(ctx, base, counter, 8, kBlock);
      }));
      TracedRun r;
      r.makespan = m.run();
      r.recorded = m.traceRecorder().recordedEvents();
      std::ostringstream os;
      m.writeTrace(os);
      r.json = os.str();
      return r;
    };

    const TracedRun traced = runSynced(true, true);
    trace_events = traced.recorded;
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      out << traced.json;
    }
    if (want("obs_trace_8ue")) {
      const TracedRun traced_off = runSynced(true, false);
      const TracedRun untraced = runSynced(false, true);
      obs_ok = traced.recorded > 0 && traced.json == traced_off.json &&
               traced.makespan == untraced.makespan;

      // barrier_32ue traced vs untraced, best-of-3 walls each side.
      const Workload* barrier = nullptr;
      for (const Workload& w : substrate) {
        if (w.name == "barrier_32ue") barrier = &w;
      }
      if (barrier != nullptr) {
        const RunStats plain = runWorkload(*barrier, Mode{});
        Mode traced_mode;
        traced_mode.trace = true;
        const RunStats with_trace = runWorkload(*barrier, traced_mode);
        obs_ok = obs_ok && plain.makespan == with_trace.makespan &&
                 plain.completions == with_trace.completions;
        trace_overhead = plain.wall_seconds > 0
                             ? with_trace.wall_seconds / plain.wall_seconds
                             : 0.0;
      }
    }
  }

  json += std::string("  \"ticks_identical_all\": ") +
          (all_identical ? "true" : "false") + ",\n";
  json += std::string("  \"swcache_checks_ok\": ") + (swcache_ok ? "true" : "false") +
          ",\n";
  json += std::string("  \"policy_checks_ok\": ") + (policy_ok ? "true" : "false") +
          ",\n";
  json += std::string("  \"fault_checks_ok\": ") + (fault_ok ? "true" : "false") +
          ",\n";
  json += std::string("  \"kv_checks_ok\": ") + (kv_ok ? "true" : "false") + ",\n";
  json += std::string("  \"drf_checks_ok\": ") + (drf_ok ? "true" : "false") + ",\n";
  json += std::string("  \"obs_checks_ok\": ") + (obs_ok ? "true" : "false") + ",\n";
  char obs_buf[128];
  std::snprintf(obs_buf, sizeof(obs_buf),
                "  \"trace_overhead_barrier_32ue\": %.2f,\n"
                "  \"trace_events_recorded\": %llu,\n",
                trace_overhead,
                static_cast<unsigned long long>(trace_events));
  json += obs_buf;
  char cv_buf[128];
  std::snprintf(cv_buf, sizeof(cv_buf),
                "  \"controller_load_cv_striped\": %.4f,\n"
                "  \"controller_load_cv_placed\": %.4f,\n",
                kv_cv_striped, kv_cv_placed);
  json += cv_buf;
  char rate_buf[64];
  std::snprintf(rate_buf, sizeof(rate_buf), "  \"fault_recovery_rate\": %.4f\n}\n",
                fault_recovery_rate);
  json += rate_buf;
  std::fputs(json.c_str(), stdout);
  return all_identical && swcache_ok && policy_ok && fault_ok &&
                 kv_ok && drf_ok && obs_ok
             ? 0
             : 1;
}
