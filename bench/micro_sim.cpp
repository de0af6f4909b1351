// Microbenchmarks of the simulator substrate. Prints one JSON object on
// stdout: a "bench" block naming the host's core count, the compiler and
// the build type, then one entry per scenario.
//
// Every scenario is one row of kScenarios: a name and a run function. A run
// returns the scenario's run records, its deterministic values and its
// `checks` map. Run records are emitted under their mode name ("coalesced"
// is the timed configuration; "legacy", "uncached", ... are references).
// Each carries host wall seconds (best of 3 trials), engine events, the
// simulated words / MPB chunks / swcache lines and the events they cost
// (coalescing_rate), the makespan and sim_hash, a fingerprint of the
// per-task completion Ticks and result bytes. A check is a named condition
// the scenario must meet, e.g. coalescing leaving every Tick bit-identical
// or the race detector flagging a seeded race. The process exits 1 iff any
// check of a scenario it ran is false, so the binary doubles as a CI smoke
// test.
//
// scripts/compare_bench.py gates the sim-domain values and the checks
// against BENCH_baseline.json, and judges host time against the parent
// commit's binary on the same machine.
//
//   micro_sim [--list-scenarios] [--scenario NAME] [--trace-out FILE]
//
// --scenario runs one scenario; --trace-out writes the Chrome trace-event
// JSON of obs_trace_8ue's traced run when that scenario runs. An unknown
// flag or scenario, or a flag missing its value, exits 2 with the usage.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
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
  int ues = 1;
  int repetitions = 1;  ///< timed repetitions, wall time accumulated
  std::function<void(sim::SccMachine&)> setup;  ///< shmalloc etc., then launch
  /// Optional output region [offset, offset+bytes) of shared DRAM extracted
  /// after the first rep — the functional result the cached/uncached A/B
  /// must reproduce bit-identically (allocation order is deterministic, so
  /// fixed offsets are stable across machines).
  std::uint64_t extract_offset = 0;
  std::size_t extract_bytes = 0;
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

// --- scenarios --------------------------------------------------------------

/// What one scenario produced. Run records are emitted under their mode
/// name, values (key → JSON literal) beside them, then the checks map.
struct Outcome {
  std::vector<std::pair<std::string, RunStats>> runs;
  std::vector<std::pair<std::string, std::string>> values;
  std::vector<std::pair<std::string, bool>> checks;
  std::string trace;  ///< Chrome trace JSON, for --trace-out (obs_trace_8ue)
};

std::string fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

bool sameTicks(const RunStats& a, const RunStats& b) {
  return a.makespan == b.makespan && a.completions == b.completions;
}

/// Coalescing on vs off: coalescing may eliminate events but must leave the
/// makespan and every per-task completion Tick bit-identical; so must the
/// plan-driven twin, when the workload has one.
Outcome coalescingAB(const Workload& w) {
  const RunStats on = runWorkload(w, Mode{});
  const RunStats off = runWorkload(w, Mode{false});
  Outcome o;
  o.checks = {{"ticks_identical", sameTicks(on, off)}};
  if (w.setup_plan) {
    o.checks.emplace_back("plan_twin_identical",
                          sameTicks(runWorkload(w, Mode{}, /*plan_setup=*/true), off));
  }
  const double event_reduction =
      off.events > 0
          ? 1.0 - static_cast<double>(on.events) / static_cast<double>(off.events)
          : 0.0;
  o.values = {{"event_reduction", fixed(event_reduction, 4)}};
  o.runs = {{"coalesced", on}, {"legacy", off}};
  return o;
}

/// Substrate scenarios (no coalescable traffic to A/B): throughput only.
Outcome timedOnly(const Workload& w) {
  Outcome o;
  o.runs = {{"coalesced", runWorkload(w, Mode{})}};
  return o;
}

/// Shared-memory routing A/B: the swcache (write-back, the tracked
/// "coalesced" run) against uncached words and write-through. DRF programs
/// must produce bit-identical results on every routing; a read-mostly
/// program must also clear `min_hit_rate` (0: no hit-rate bar).
Outcome swcacheAB(const Workload& w, double min_hit_rate) {
  const RunStats cached = runWorkload(w, Mode{true, 1});
  const RunStats uncached = runWorkload(w, Mode{true, 0});
  const RunStats wthrough = runWorkload(w, Mode{true, 2});
  Outcome o;
  o.checks = {{"functional_identical", cached.result_bytes == uncached.result_bytes &&
                                           wthrough.result_bytes == uncached.result_bytes}};
  if (min_hit_rate > 0) {
    o.checks.emplace_back("hit_rate_ok", cached.swcacheHitRate() >= min_hit_rate);
  }
  o.values = {{"swcache_hit_rate", fixed(cached.swcacheHitRate(), 4)}};
  o.runs = {{"coalesced", cached}, {"uncached", uncached}, {"writethrough", wthrough}};
  return o;
}

constexpr std::size_t kBlock = 4096;

using partition::ControllerPlacement;
using partition::ExecutionPlan;
using partition::MpbPattern;
using partition::PlacementClass;
using partition::RegionPlan;

// The two MPB scenarios launch plan-driven: the ExecutionPlan supplies each
// UE's MPB owner set.
const ExecutionPlan kRingPlan{{RegionPlan{
    "ring_slot", PlacementClass::kOnChipResident, MpbPattern::kNeighborRing, 2 * 1024}}};
const ExecutionPlan kMixedPlan{
    {RegionPlan{"blocks", PlacementClass::kOffChipUncached, MpbPattern::kNone, 8 * kBlock},
     RegionPlan{"slot", PlacementClass::kOnChipResident, MpbPattern::kNeighborRing, 512}}};
// The plan-driven twins of the staggered and synced word scenarios launch
// through this (MPB-free) plan with their regions mapped off-chip-uncached.
const ExecutionPlan kWordPlan{{RegionPlan{
    "blocks", PlacementClass::kOffChipUncached, MpbPattern::kNone, 9 * kBlock}}};

Workload barrier32() {
  return {.ues = 32, .repetitions = 150, .setup = [](sim::SccMachine& m) {
            m.launch(sim::LaunchSpec(
                32, [](sim::CoreContext& ctx) { return barrierLoop(ctx, 64); }));
          }};
}

/// The ExecutionPlan payoff run: a cached read-mostly table plus an uncached
/// lock-guarded reduction cell in ONE run, via the per-region cacheability
/// map. The mixed plan must beat BOTH machine-wide settings on simulated
/// words per simulated second (deterministic, so an exact comparison),
/// produce bit-identical functional results, clear the table hit-rate bar
/// and record zero MPB scope violations under its (MPB-free) plan.
Outcome mixedPolicyScenario() {
  constexpr std::size_t kWindow = 4096;
  constexpr int kReps = 6, kRounds = 4, kSweeps = 8, kUpdates = 32;
  static const ExecutionPlan plan{
      {RegionPlan{"table", PlacementClass::kOffChipCached, MpbPattern::kNone, 8 * kWindow},
       RegionPlan{"cell", PlacementClass::kOffChipUncached, MpbPattern::kNone, 64},
       RegionPlan{"out", PlacementClass::kOffChipUncached, MpbPattern::kNone, 8 * 64}}};
  // policy: 0 = plan-driven mixed map, 1 = everything cached (the
  // machine-wide shm_swcache knob), 2 = everything uncached.
  const auto workload = [](int policy) {
    return Workload{
        .ues = 8,
        .repetitions = kReps,
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
                m.setShmCacheability(table, table + 8 * kWindow, true);
                m.setShmCacheability(cell, cell + 64, false);
                m.setShmCacheability(out, out + 8 * 64, false);
              }
              m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
                         return mixedPolicy(ctx, table, cell, out, kRounds, kSweeps,
                                            kUpdates, kWindow);
                       }).withPlan(policy == 0 ? &plan : nullptr));
            },
        .extract_offset = 8 * kWindow,  // cell (line-padded) + out region
        .extract_bytes = 64 + 8 * 64};
  };
  const RunStats mixed = runWorkload(workload(0), Mode{true, 0});
  const RunStats cached = runWorkload(workload(1), Mode{true, 1});
  const RunStats uncached = runWorkload(workload(2), Mode{true, 0});

  // Simulated words per simulated second: derived from the makespan, not
  // host wall time.
  const auto simRate = [](const RunStats& s) {
    return s.makespan > 0 ? static_cast<double>(s.logicalWords() / kReps) /
                                (static_cast<double>(s.makespan) * 1e-12)
                          : 0.0;
  };
  const double mixed_rate = simRate(mixed);
  const double cached_rate = simRate(cached);
  const double uncached_rate = simRate(uncached);
  Outcome o;
  o.runs = {{"coalesced", mixed}, {"all_cached", cached}, {"all_uncached", uncached}};
  o.values = {{"swcache_hit_rate", fixed(mixed.swcacheHitRate(), 4)},
              {"mpb_scope_violations", std::to_string(mixed.mpb_scope_violations)},
              {"sim_words_per_sim_sec",
               "{\"mixed\": " + fixed(mixed_rate, 0) + ", \"all_cached\": " +
                   fixed(cached_rate, 0) + ", \"all_uncached\": " +
                   fixed(uncached_rate, 0) + "}"}};
  // With 8 sweeps per round and the first sweep of each round filling every
  // line, the steady-state table hit rate is exactly 7/8.
  o.checks = {{"functional_identical", mixed.result_bytes == uncached.result_bytes &&
                                           cached.result_bytes == uncached.result_bytes},
              {"hit_rate_ok", mixed.swcacheHitRate() >= 0.85},
              {"no_scope_violations", mixed.mpb_scope_violations == 0},
              {"beats_all_cached", mixed_rate > cached_rate},
              {"beats_all_uncached", mixed_rate > uncached_rate}};
  return o;
}

/// The robustness acceptance run (docs/fault_model.md): six runs of ONE
/// kernel exercising every faultable path.
///   * fault_free   — plan disabled (the baseline the rest compare against);
///   * zero_rate    — plan ENABLED with every rate zero: makespan,
///                    completions and final memory bit-identical to
///                    fault_free (the armed-but-quiet determinism bar);
///   * faulty       — seeded rates on every class: every transient MPB/DRAM
///                    fault detected and repaired (unrecovered == 0,
///                    recovery rate 1.0), final memory identical to
///                    fault_free;
///   * faulty again — same seed: identical makespan, stats and memory;
///   * permafrost   — UE 2 wedges permanently mid-run: the run must END in
///                    a DeadlockError whose wait-for graph names the frozen
///                    task (parked with no sync object), not hang;
///   * sync-timeout — a deliberately sub-realistic lock/barrier timeout: the
///                    first wait must raise SyncTimeout.
Outcome faultSweepScenario() {
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

  Outcome o;
  o.values = {{"fault_free_makespan_ps", std::to_string(ff.makespan)},
              {"faulty_makespan_ps", std::to_string(hr.makespan)},
              {"faults_injected", std::to_string(hr.stats.totalInjected())},
              {"faults_recovered", std::to_string(hr.stats.totalRecovered())},
              {"fault_retries", std::to_string(hr.stats.retries)},
              {"faults_unrecovered", std::to_string(hr.stats.unrecovered)},
              {"stall_ticks", std::to_string(hr.stats.stall_ticks)},
              {"freezes", std::to_string(hr.stats.freezes)},
              {"recovery_rate", fixed(hr.stats.recoveryRate(), 4)}};
  o.checks = {
      {"zero_rate_identical", zr.makespan == ff.makespan &&
                                  zr.completions == ff.completions &&
                                  zr.memory == ff.memory},
      {"recovery_ok", !hr.deadlock && !hr.sync_timeout &&
                          hr.stats.injected[idx(FaultClass::kMpbTransfer)] > 0 &&
                          hr.stats.injected[idx(FaultClass::kShmWrite)] > 0 &&
                          hr.stats.injected[idx(FaultClass::kSwcacheFlush)] > 0 &&
                          hr.stats.unrecovered == 0 && hr.stats.recoveryRate() == 1.0 &&
                          hr.memory == ff.memory},
      {"replay_identical", hr2.makespan == hr.makespan &&
                               hr2.completions == hr.completions &&
                               hr2.memory == hr.memory &&
                               hr2.stats.totalInjected() == hr.stats.totalInjected() &&
                               hr2.stats.retries == hr.stats.retries &&
                               hr2.stats.stall_ticks == hr.stats.stall_ticks},
      {"deadlock_reported", pf.deadlock && pf.frozen_named},
      {"sync_timeout_raised", to.sync_timeout}};
  return o;
}

/// KV store under Zipf traffic (workloads::makeKvStore): the controller-
/// placement A/B. Hot keys sit in the slab's lowest stripes, so an
/// address-striped plan concentrates the skewed load on ONE controller
/// (high controller_load_cv) while the owner-compute plan spreads it with
/// the evenly-placed requesters (near-zero CV). Both plans must verify
/// against the host replay, and the harness and Benchmark runs of the same
/// plan must agree on the makespan Tick. The placed (owner-compute) run is
/// the tracked "coalesced" configuration.
Outcome kvZipfScenario() {
  const workloads::KvParams kvp{};  // 4096 keys, alpha 1.2, 2048 ops/UE
  std::size_t index_cap = 1;
  while (index_cap < 2 * kvp.num_keys) index_cap *= 2;
  const std::size_t slab_bytes = kvp.num_keys * 4 * 8;
  const auto kvPlan = [&](ControllerPlacement cp) {
    return ExecutionPlan{
        {RegionPlan{"kv_index", PlacementClass::kOffChipUncached, MpbPattern::kNone,
                    index_cap * 8, cp},
         RegionPlan{"kv_slots", PlacementClass::kOffChipUncached, MpbPattern::kNone,
                    slab_bytes, cp},
         RegionPlan{"kv_checks", PlacementClass::kOffChipUncached, MpbPattern::kNone,
                    8 * 8}}};
  };
  const ExecutionPlan striped_plan = kvPlan(ControllerPlacement::kStriped);
  const ExecutionPlan placed_plan = kvPlan(ControllerPlacement::kOwnerCompute);
  const auto kvWorkload = [&kvp](const ExecutionPlan& plan) {
    return Workload{.ues = 8, .repetitions = 6, .setup = [&kvp, &plan](sim::SccMachine& m) {
                      workloads::setupKvRcce(m, kvp, 8, &plan);
                    }};
  };
  const RunStats placed = runWorkload(kvWorkload(placed_plan), Mode{});
  const RunStats striped = runWorkload(kvWorkload(striped_plan), Mode{});

  // Verification and the per-controller load spread ride the Benchmark API
  // (RunResult::controller_load_cv): same kernel, same default config.
  const sim::SccConfig kv_cfg;
  const std::unique_ptr<workloads::Benchmark> kv = workloads::makeKvStore(kvp);
  const workloads::RunResult placed_r =
      kv->run(workloads::Mode::RcceOffChip, 8, kv_cfg, &placed_plan);
  const workloads::RunResult striped_r =
      kv->run(workloads::Mode::RcceOffChip, 8, kv_cfg, &striped_plan);
  const double cv_placed = placed_r.controller_load_cv;
  const double cv_striped = striped_r.controller_load_cv;

  const auto traffic = [](const std::vector<std::uint64_t>& t) {
    std::string s = "[";
    for (std::size_t i = 0; i < t.size(); ++i) {
      s += (i > 0 ? ", " : "") + std::to_string(t[i]);
    }
    return s + "]";
  };
  Outcome o;
  o.runs = {{"coalesced", placed}, {"striped", striped}};
  o.values = {{"controller_load_cv_placed", fixed(cv_placed, 4)},
              {"controller_load_cv_striped", fixed(cv_striped, 4)},
              {"controller_traffic_placed", traffic(placed_r.controller_traffic)},
              {"controller_traffic_striped", traffic(striped_r.controller_traffic)}};
  o.checks = {{"verified_placed", placed_r.verified},
              {"verified_striped", striped_r.verified},
              {"benchmark_makespans_agree", placed_r.makespan == placed.makespan &&
                                                striped_r.makespan == striped.makespan},
              {"cv_separated", cv_placed < 0.05 && cv_striped > 0.30 &&
                                   cv_striped > 20.0 * cv_placed}};
  return o;
}

/// A lockless shared counter the detector MUST flag in both granularity
/// modes, with byte-identical reports across coalescing modes; drf_check
/// must not move a Tick against the unchecked twin.
Outcome drfRacyScenario() {
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
  Outcome o;
  o.values = {{"races_line", std::to_string(line.races)},
              {"races_word", std::to_string(word.races)},
              {"accesses_checked", std::to_string(line.checked)}};
  o.checks = {{"detected", line.races > 0 && word.races > 0},
              {"reports_deterministic", nocoal.reports == line.reports &&
                                            nocoal.makespan == line.makespan &&
                                            nocoal.completions == line.completions},
              {"ticks_unchanged",
               off.makespan == line.makespan && off.completions == line.completions}};
  return o;
}

/// Per-UE slots packed four to a cached line: line-granular mode must flag
/// it, every report FALSE-SHARING, and word-granular mode must stay silent
/// (the divergence that motivates the two contracts).
Outcome drfFalseSharingScenario() {
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
  Outcome o;
  o.values = {{"races_line", std::to_string(line.races)},
              {"races_word", std::to_string(word.races)},
              {"all_false_sharing", line.false_sharing_only ? "true" : "false"}};
  o.checks = {{"detected", line.races > 0 && line.false_sharing_only && word.races == 0},
              {"reports_deterministic", nocoal.reports == line.reports}};
  return o;
}

/// All seven paper benchmarks run detector-clean in line mode, and the fault
/// sweep's corruption/repair path on a drf-checked cached region reports
/// zero races (faults are functional corruption, not missing
/// happens-before edges).
Outcome drfCleanSuiteScenario() {
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
  const workloads::RunResult kvr = workloads::makeKvStore(workloads::KvParams{})->run(
      workloads::Mode::RcceOffChip, 8, drf_cfg);
  suite_clean = suite_clean && kvr.verified && kvr.drf_races == 0;
  suite_races += kvr.drf_races;
  sim::FaultPlan hot{};
  hot.enabled = true;
  hot.mpb_transfer.rate = 0.08;
  hot.shm_write.rate = 0.06;
  hot.swcache_flush.rate = 0.15;
  const FaultRun fr = runFaultSweep(hot, 0, /*drf_check=*/true);
  Outcome o;
  o.values = {{"suite_races", std::to_string(suite_races)},
              {"fault_faults_injected", std::to_string(fr.stats.totalInjected())},
              {"fault_drf_races", std::to_string(fr.drf_races)}};
  o.checks = {{"suite_clean", suite_clean},
              {"fault_regression_ok", !fr.deadlock && !fr.sync_timeout &&
                                          fr.stats.totalInjected() > 0 &&
                                          fr.stats.unrecovered == 0 && fr.drf_races == 0}};
  return o;
}

/// The simulated-time tracer's determinism contract (docs/observability.md)
/// on a live kernel: a traced run exports byte-identical Chrome JSON across
/// coalescing modes, and enabling the trace moves no Tick. barrier_32ue
/// traced vs untraced gives the recorder's wall cost (trace_overhead).
Outcome obsTraceScenario() {
  struct TracedRun {
    Tick makespan = 0;
    std::uint64_t recorded = 0;
    std::string json;
  };
  const auto runSynced = [](bool traced, bool coalescing) {
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
  const TracedRun traced_off = runSynced(true, false);
  const TracedRun untraced = runSynced(false, true);
  const RunStats plain = runWorkload(barrier32(), Mode{});
  const RunStats with_trace = runWorkload(barrier32(), Mode{.trace = true});
  Outcome o;
  o.values = {{"trace_events_recorded", std::to_string(traced.recorded)},
              {"trace_overhead_barrier_32ue",
               fixed(plain.wall_seconds > 0 ? with_trace.wall_seconds / plain.wall_seconds
                                            : 0.0,
                     2)}};
  o.checks = {{"trace_recorded", traced.recorded > 0},
              {"trace_bytes_identical", traced.json == traced_off.json},
              {"ticks_unchanged",
               traced.makespan == untraced.makespan && sameTicks(plain, with_trace)}};
  o.trace = traced.json;
  return o;
}

struct Scenario {
  const char* name;
  Outcome (*run)();
};

const Scenario kScenarios[] = {
    {"shm_words_single_ue",
     [] {
       return coalescingAB({.ues = 1,
                            .repetitions = 200,
                            .setup =
                                [](sim::SccMachine& m) {
                                  const std::uint64_t base = m.shmalloc(64 * kBlock);
                                  m.launch(sim::LaunchSpec(1, [=](sim::CoreContext& ctx) {
                                    return blockReader(ctx, base, 64, kBlock);
                                  }));
                                },
                            .extract_bytes = kBlock});
     }},
    {"shm_words_staggered_8ue",
     [] {
       return coalescingAB({.ues = 8,
                            .repetitions = 60,
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
                                  m.setShmCacheability(base, base + 8 * kBlock, false);
                                  m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
                                             return staggeredMix(ctx, base, 16, kBlock);
                                           }).withPlan(&kWordPlan));
                                }});
     }},
    {"shm_words_synced_8ue",
     [] {
       return coalescingAB({.ues = 8,
                            .repetitions = 180,
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
                                  m.setShmCacheability(base, counter + 8, false);
                                  m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
                                             return syncedMix(ctx, base, counter, 8, kBlock);
                                           }).withPlan(&kWordPlan));
                                }});
     }},
    {"shm_words_contended_8ue",
     [] {
       return coalescingAB({.ues = 8,
                            .repetitions = 2500,
                            .setup =
                                [](sim::SccMachine& m) {
                                  const std::uint64_t base = m.shmalloc(1 << 16);
                                  m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
                                    return wordHammer(ctx, base, 512);
                                  }));
                                },
                            .extract_bytes = kBlock});
     }},
    {"rcce_ring_1k_8ue",
     [] {
       return coalescingAB({.ues = 8,
                            .repetitions = 600,
                            .setup = [](sim::SccMachine& m) {
                              rcce::RcceEnv env(m);
                              // Two parity buffers of 1 KB each (rcceRing
                              // double-buffers); the plan's neighbor ring
                              // materializes the {ue, right} owner sets.
                              const std::uint64_t slot = env.mpbMallocSymmetric(8, 2 * 1024);
                              m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
                                         return rcceRing(ctx, slot, 8, 1024);
                                       }).withPlan(&kRingPlan));
                            }});
     }},
    {"mixed_shm_mpb_8ue",
     [] {
       return coalescingAB({.ues = 8,
                            .repetitions = 200,
                            .setup = [](sim::SccMachine& m) {
                              rcce::RcceEnv env(m);
                              const std::uint64_t base = m.shmalloc(8 * kBlock);
                              const std::uint64_t slot = env.mpbMallocSymmetric(8, 512);
                              m.setShmCacheability(base, base + 8 * kBlock, false);
                              m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
                                         return mixedShmMpb(ctx, base, slot, 8, kBlock, 512);
                                       }).withPlan(&kMixedPlan));
                            }});
     }},
    {"event_kernel_8ue",
     [] {
       return timedOnly({.ues = 8, .repetitions = 60, .setup = [](sim::SccMachine& m) {
                           m.launch(sim::LaunchSpec(
                               8, [](sim::CoreContext& ctx) { return spinner(ctx, 1000); }));
                         }});
     }},
    {"barrier_32ue", [] { return timedOnly(barrier32()); }},
    {"mpb_pingpong_2ue",
     [] {
       return timedOnly({.ues = 2, .repetitions = 350, .setup = [](sim::SccMachine& m) {
                           rcce::RcceEnv env(m);
                           const std::uint64_t off = env.mpbMallocSymmetric(2, 64);
                           m.launch(sim::LaunchSpec(2, [=](sim::CoreContext& ctx) {
                             return mpbPingPong(ctx, off, 256);
                           }));
                         }});
     }},
    {"bulk_copy_8ue",
     [] {
       return timedOnly({.ues = 8, .repetitions = 400, .setup = [](sim::SccMachine& m) {
                           const std::uint64_t base = m.shmalloc(1 << 20);
                           m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
                             return bulkReader(ctx, base, 64);
                           }));
                         }});
     }},
    {"stencil_readmostly_8ue",
     [] {
       constexpr std::size_t kWindow = 4096;
       return swcacheAB({.ues = 8,
                         .repetitions = 6,
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
                         .extract_bytes = 8 * 64},
                        /*min_hit_rate=*/0.90);
     }},
    {"lu_shared_cached",
     [] {
       constexpr std::size_t n = 64;
       return swcacheAB(
           {.ues = 8,
            .repetitions = 4,
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
            .extract_bytes = n * n * 8},
           /*min_hit_rate=*/0.0);
     }},
    {"mixed_policy_8ue", mixedPolicyScenario},
    {"fault_sweep_8ue", faultSweepScenario},
    {"kv_zipf_8ue", kvZipfScenario},
    {"drf_racy_8ue", drfRacyScenario},
    {"drf_false_sharing_8ue", drfFalseSharingScenario},
    {"drf_clean_suite_8ue", drfCleanSuiteScenario},
    {"obs_trace_8ue", obsTraceScenario},
};

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

void printRun(std::string* out, const std::string& key, const RunStats& s) {
  // "shm_words"/"shm_words_per_sec" cover the *logical* shared-word workload
  // (RunStats::logicalWords) so the throughput metric stays invariant to the
  // routing.
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
                "\"sim_hash\": \"%016llx\"},\n",
                key.c_str(), s.wall_seconds, static_cast<unsigned long long>(s.events),
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

std::string scenarioJson(const char* name, const Outcome& o) {
  std::string json = std::string("    {\"name\": \"") + name + "\",\n";
  for (const auto& [mode, stats] : o.runs) printRun(&json, mode, stats);
  for (const auto& [key, value] : o.values) {
    json += "      \"" + key + "\": " + value + ",\n";
  }
  json += "      \"checks\": {";
  for (std::size_t i = 0; i < o.checks.size(); ++i) {
    json += (i > 0 ? ", \"" : "\"") + o.checks[i].first +
            (o.checks[i].second ? "\": true" : "\": false");
  }
  return json + "}}";
}

/// Host, compiler and build type: a host-time number means nothing without
/// them.
std::string benchJson() {
  return "{\"name\": \"micro_sim\", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" HSM_BENCH_COMPILER "\", \"build_type\": \"" HSM_BENCH_BUILD_TYPE
         "\"}";
}

}  // namespace

int main(int argc, char** argv) {
  const auto usage = [](const std::string& problem) {
    std::fprintf(stderr,
                 "micro_sim: %s\nusage: micro_sim [--list-scenarios] "
                 "[--scenario NAME] [--trace-out FILE]\nscenarios:\n",
                 problem.c_str());
    for (const Scenario& s : kScenarios) std::fprintf(stderr, "  %s\n", s.name);
    return 2;
  };
  std::string only;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-scenarios") {
      for (const Scenario& s : kScenarios) std::puts(s.name);
      return 0;
    }
    if (arg != "--scenario" && arg != "--trace-out") {
      return usage("unknown argument '" + arg + "'");
    }
    if (i + 1 == argc) return usage(arg + " needs a value");
    (arg == "--scenario" ? only : trace_out) = argv[++i];
    if (arg == "--scenario" &&
        std::none_of(std::begin(kScenarios), std::end(kScenarios),
                     [&only](const Scenario& s) { return only == s.name; })) {
      return usage("unknown scenario '" + only + "'");
    }
  }

  bool all_ok = true;
  std::string json = "{\n  \"bench\": " + benchJson() + ",\n  \"scenarios\": [\n";
  bool first = true;
  for (const Scenario& s : kScenarios) {
    if (!only.empty() && only != s.name) continue;
    const Outcome o = s.run();
    for (const auto& [check, ok] : o.checks) all_ok = all_ok && ok;
    if (!trace_out.empty() && !o.trace.empty()) std::ofstream(trace_out) << o.trace;
    json += (first ? "" : ",\n") + scenarioJson(s.name, o);
    first = false;
  }
  json += "\n  ]\n}\n";
  std::fputs(json.c_str(), stdout);
  return all_ok ? 0 : 1;
}
