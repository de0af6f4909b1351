// Every pinned simulated output in one canonical text. Runs each pinned
// configuration once and prints one sorted `key = value` line per value, in
// two sections:
//
//   [model]  what the simulated machine computed: makespans, verified flags,
//            result values and hashes, traffic, race and fault counts, trace
//            hashes, and every check of a simulated property (`= true`);
//   [work]   what it cost the simulator: engine events and the word, line
//            and chunk events the coalescing batched.
//
// A timing-model change moves [model] rows; a coalescing change may move
// only [work] rows. The tier-1 ctest `sim_golden` diffs this output against
// tests/golden/sim.txt, so any drift fails one test and `diff -u` names the
// row. The process exits 1 if any check is false, so regenerating
//
//   build/bench/sim_golden > tests/golden/sim.txt
//
// can never bake a `false` in. The configurations: every pinned scenario of
// bench/scenarios.h with its reference runs (coalescing off, other
// routings, policies and placements, plan-driven twins), the fault sweep,
// the race-detector and trace scenarios, the six paper programs at paper
// scale (Figs. 6.1-6.3; and under their translated plans, as bench/pipeline
// runs them) and at scale 0.05, the detector's checked-access
// counts on translated plans, LU's region profile and the KV store at the
// pipeline benchmark's scale, with the sim counter keys of its metrics
// snapshot. Takes no arguments.
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "scenarios.h"
#include "translator/translator.h"

namespace {

using namespace hsm;
using namespace hsm::bench;

/// The two sections, each kept sorted by key.
class Golden {
 public:
  void model(const std::string& key, std::string value) { model_[key] = std::move(value); }
  void model(const std::string& key, std::uint64_t value) { model(key, std::to_string(value)); }
  void work(const std::string& key, std::string value) { work_[key] = std::move(value); }
  void work(const std::string& key, std::uint64_t value) { work(key, std::to_string(value)); }
  /// A [model] row that must read `true`.
  void check(const std::string& key, bool ok) {
    model(key, ok ? "true" : "false");
    all_ok_ = all_ok_ && ok;
  }

  /// Prints both sections; returns the exit code (1 iff a check is false).
  int print() const {
    std::printf("# Simulated outputs of bench/sim_golden.cpp; tests/golden/sim.txt is this\n"
                "# output. Regenerate: build/bench/sim_golden > tests/golden/sim.txt\n");
    for (const auto& [title, rows] : {std::pair{"[model]", &model_}, {"[work]", &work_}}) {
      std::printf("\n%s\n", title);
      for (const auto& [key, value] : *rows) std::printf("%s = %s\n", key.c_str(), value.c_str());
    }
    return all_ok_ ? 0 : 1;
  }

 private:
  std::map<std::string, std::string> model_;
  std::map<std::string, std::string> work_;
  bool all_ok_ = true;
};

std::string fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

/// FNV-1a, continued from `h`.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

std::string hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string hashOf(const std::string& s) { return hex(fnv1a(s.data(), s.size())); }

/// The fingerprint of a run: FNV-1a over the per-task completion Ticks
/// (little-endian bytes) and the extracted result bytes.
std::string simHash(const RunStats& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Tick t : s.completions) {
    std::uint8_t le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(t >> (8 * i));
    h = fnv1a(le, sizeof(le), h);
  }
  return hex(fnv1a(s.result_bytes.data(), s.result_bytes.size(), h));
}

bool sameTicks(const RunStats& a, const RunStats& b) {
  return a.makespan == b.makespan && a.completions == b.completions;
}

void runRows(Golden& g, const std::string& prefix, const RunStats& s) {
  g.model(prefix + ".makespan_ps", s.makespan);
  g.model(prefix + ".sim_hash", simHash(s));
  g.model(prefix + ".shm_words", s.logicalWords());
  g.model(prefix + ".mpb_chunks", s.mpb_chunks);
  g.model(prefix + ".swcache_words", s.swcache_words);
  g.model(prefix + ".swcache_line_txns", s.swcache_line_txns);
  g.model(prefix + ".swcache_hit_rate", fixed(s.swcacheHitRate(), 4));
  g.work(prefix + ".events", s.events);
  g.work(prefix + ".shm_word_events", s.shm_word_events);
  g.work(prefix + ".mpb_chunk_events", s.mpb_chunk_events);
  g.work(prefix + ".swcache_line_events", s.swcache_line_events);
  g.work(prefix + ".coalescing_rate", fixed(s.coalescingRate(), 4));
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
  m.addShmRegion({.begin = table, .end = table + kUes * kWindowB, .cached = true});
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

// --- pinned scenarios and their references ----------------------------------

/// Coalescing on vs off: coalescing may eliminate events but must leave the
/// makespan and every per-task completion Tick bit-identical; so must the
/// plan-driven twin, when the workload has one.
void legacyReferences(Golden& g, const std::string& p, const Workload& w,
                      const PinnedScenario& t, const RunStats& on) {
  const RunStats off = runWorkload(w, Mode{false});
  runRows(g, p + "legacy", off);
  g.check(p + "check.ticks_identical", sameTicks(on, off));
  if (w.setup_plan) {
    const RunStats twin = runWorkload(w, t.mode, /*plan_setup=*/true);
    runRows(g, p + "plan_twin", twin);
    g.check(p + "check.plan_twin_identical", sameTicks(twin, off));
  }
  g.work(p + "event_reduction",
         fixed(off.events > 0 ? 1.0 - static_cast<double>(on.events) /
                                          static_cast<double>(off.events)
                              : 0.0,
               4));
}

/// Shared-memory routing: the swcache run against uncached words. DRF
/// programs must produce bit-identical results on both routings; a
/// read-mostly program must also clear its hit-rate bar.
void routingReferences(Golden& g, const std::string& p, const Workload& w,
                       const PinnedScenario& t, const RunStats& cached) {
  const RunStats uncached = runWorkload(w, Mode{true, false});
  runRows(g, p + "uncached", uncached);
  g.check(p + "check.functional_identical", cached.result_bytes == uncached.result_bytes);
  if (t.min_hit_rate > 0) {
    g.check(p + "check.hit_rate_ok", cached.swcacheHitRate() >= t.min_hit_rate);
  }
}

/// The mixed per-region plan must beat BOTH machine-wide settings on
/// simulated words per simulated second, produce bit-identical functional
/// results, clear the table hit-rate bar and record zero MPB scope
/// violations under its (MPB-free) plan.
void policyReferences(Golden& g, const std::string& p, const RunStats& mixed) {
  const RunStats cached = runWorkload(mixedPolicyWorkload(1), Mode{true, true});
  const RunStats uncached = runWorkload(mixedPolicyWorkload(2), Mode{true, false});
  runRows(g, p + "all_cached", cached);
  runRows(g, p + "all_uncached", uncached);
  const auto simRate = [](const RunStats& s) {
    return s.makespan > 0 ? static_cast<double>(s.logicalWords()) /
                                (static_cast<double>(s.makespan) * 1e-12)
                          : 0.0;
  };
  g.model(p + "sim_words_per_sim_sec.mixed", fixed(simRate(mixed), 0));
  g.model(p + "sim_words_per_sim_sec.all_cached", fixed(simRate(cached), 0));
  g.model(p + "sim_words_per_sim_sec.all_uncached", fixed(simRate(uncached), 0));
  g.model(p + "mpb_scope_violations", mixed.mpb_scope_violations);
  // With 8 sweeps per round and the first sweep of each round filling every
  // line, the steady-state table hit rate is exactly 7/8.
  g.check(p + "check.functional_identical",
          mixed.result_bytes == uncached.result_bytes &&
              cached.result_bytes == uncached.result_bytes);
  g.check(p + "check.hit_rate_ok", mixed.swcacheHitRate() >= 0.85);
  g.check(p + "check.no_scope_violations", mixed.mpb_scope_violations == 0);
  g.check(p + "check.beats_all_cached", simRate(mixed) > simRate(cached));
  g.check(p + "check.beats_all_uncached", simRate(mixed) > simRate(uncached));
}

/// The controller-placement A/B: the address-striped plan concentrates the
/// skewed load on one controller (high controller_load_cv), owner-compute
/// spreads it (near-zero CV). Both plans must verify against the host
/// replay, the harness and Benchmark runs of one plan must agree on the
/// makespan, and the striped plan's Ticks must not depend on coalescing.
void placementReferences(Golden& g, const std::string& p, const RunStats& placed) {
  const RunStats striped =
      runWorkload(kvZipfWorkload(ControllerPlacement::kStriped), Mode{});
  const RunStats striped_off =
      runWorkload(kvZipfWorkload(ControllerPlacement::kStriped), Mode{false});
  runRows(g, p + "striped", striped);
  runRows(g, p + "striped_legacy", striped_off);
  g.check(p + "check.striped_ticks_identical", sameTicks(striped, striped_off));
  const std::unique_ptr<workloads::Benchmark> kv =
      workloads::makeKvStore(workloads::KvParams{});
  const auto run = [&kv](ControllerPlacement cp) {
    const partition::ExecutionPlan plan = workloads::kvStorePlan({}, cp);
    return kv->run(workloads::Mode::RcceOffChip, 8, sim::SccConfig{}, &plan);
  };
  const workloads::RunResult placed_r = run(ControllerPlacement::kOwnerCompute);
  const workloads::RunResult striped_r = run(ControllerPlacement::kStriped);
  const auto traffic = [](const std::vector<std::uint64_t>& t) {
    std::string s = "[";
    for (std::size_t i = 0; i < t.size(); ++i) {
      s += (i > 0 ? ", " : "") + std::to_string(t[i]);
    }
    return s + "]";
  };
  const double cv_placed = placed_r.controller_load_cv;
  const double cv_striped = striped_r.controller_load_cv;
  g.model(p + "controller_load_cv_placed", fixed(cv_placed, 4));
  g.model(p + "controller_load_cv_striped", fixed(cv_striped, 4));
  g.model(p + "controller_traffic_placed", traffic(placed_r.controller_traffic));
  g.model(p + "controller_traffic_striped", traffic(striped_r.controller_traffic));
  g.check(p + "check.verified_placed", placed_r.verified);
  g.check(p + "check.verified_striped", striped_r.verified);
  g.check(p + "check.benchmark_makespans_agree",
          placed_r.makespan == placed.makespan && striped_r.makespan == striped.makespan);
  g.check(p + "check.cv_separated",
          cv_placed < 0.05 && cv_striped > 0.30 && cv_striped > 20.0 * cv_placed);
}

void pinnedScenario(Golden& g, const PinnedScenario& t) {
  const std::string p = std::string(t.name) + ".";
  const Workload w = t.workload();
  const RunStats on = runWorkload(w, t.mode);
  runRows(g, p + "coalesced", on);
  switch (t.references) {
    case References::kNone: break;
    case References::kLegacy: legacyReferences(g, p, w, t, on); break;
    case References::kRoutings: routingReferences(g, p, w, t, on); break;
    case References::kPolicies: policyReferences(g, p, on); break;
    case References::kPlacements:
      legacyReferences(g, p, w, t, on);
      placementReferences(g, p, on);
      break;
  }
}

// --- fault, race-detector and trace scenarios --------------------------------

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
void faultSweep(Golden& g) {
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

  const std::string p = "fault_sweep_8ue.";
  g.model(p + "fault_free_makespan_ps", ff.makespan);
  g.model(p + "fault_free_memory_hash", hex(fnv1a(ff.memory.data(), ff.memory.size())));
  g.model(p + "faulty_makespan_ps", hr.makespan);
  g.model(p + "faults_injected", hr.stats.totalInjected());
  g.model(p + "faults_recovered", hr.stats.totalRecovered());
  g.model(p + "fault_retries", hr.stats.retries);
  g.model(p + "faults_unrecovered", hr.stats.unrecovered);
  g.model(p + "stall_ticks", hr.stats.stall_ticks);
  g.model(p + "freezes", hr.stats.freezes);
  g.model(p + "recovery_rate", fixed(hr.stats.recoveryRate(), 4));
  g.check(p + "check.zero_rate_identical", zr.makespan == ff.makespan &&
                                               zr.completions == ff.completions &&
                                               zr.memory == ff.memory);
  g.check(p + "check.recovery_ok",
          !hr.deadlock && !hr.sync_timeout &&
              hr.stats.injected[idx(FaultClass::kMpbTransfer)] > 0 &&
              hr.stats.injected[idx(FaultClass::kShmWrite)] > 0 &&
              hr.stats.injected[idx(FaultClass::kSwcacheFlush)] > 0 &&
              hr.stats.unrecovered == 0 && hr.stats.recoveryRate() == 1.0 &&
              hr.memory == ff.memory);
  g.check(p + "check.replay_identical",
          hr2.makespan == hr.makespan && hr2.completions == hr.completions &&
              hr2.memory == hr.memory &&
              hr2.stats.totalInjected() == hr.stats.totalInjected() &&
              hr2.stats.retries == hr.stats.retries &&
              hr2.stats.stall_ticks == hr.stats.stall_ticks);
  g.check(p + "check.deadlock_reported", pf.deadlock && pf.frozen_named);
  g.check(p + "check.sync_timeout_raised", to.sync_timeout);
}

/// A lockless shared counter the detector MUST flag in both granularity
/// modes, with byte-identical reports across coalescing modes; drf_check
/// must not move a Tick against the unchecked twin.
void drfRacy(Golden& g) {
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
  const std::string p = "drf_racy_8ue.";
  g.model(p + "makespan_ps", line.makespan);
  g.model(p + "races_line", line.races);
  g.model(p + "races_word", word.races);
  g.model(p + "reports_line_hash", hashOf(line.reports));
  g.model(p + "reports_word_hash", hashOf(word.reports));
  g.model(p + "accesses_checked", line.checked);
  g.check(p + "check.detected", line.races > 0 && word.races > 0);
  g.check(p + "check.reports_deterministic", nocoal.reports == line.reports &&
                                                 nocoal.makespan == line.makespan &&
                                                 nocoal.completions == line.completions);
  g.check(p + "check.ticks_unchanged",
          off.makespan == line.makespan && off.completions == line.completions);
}

/// Per-UE slots packed four to a cached line: line-granular mode must flag
/// it, every report FALSE-SHARING, and word-granular mode must stay silent
/// (the divergence that motivates the two contracts).
void drfFalseSharing(Golden& g) {
  const auto setup = [](sim::SccMachine& m) {
    // 8 UEs x 8 B slots = two 32 B lines, four slots each, swcache-cached:
    // disjoint words, shared lines.
    const std::uint64_t base = m.shmalloc(64);
    m.addShmRegion({.begin = base, .end = base + 64, .cached = true});
    m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
      return falseSharingSlots(ctx, base, 4);
    }));
  };
  const DrfRun line = runDrfOnce(true, false, true, 8, setup);
  const DrfRun word = runDrfOnce(true, true, true, 8, setup);
  const DrfRun nocoal = runDrfOnce(true, false, false, 8, setup);
  const std::string p = "drf_false_sharing_8ue.";
  g.model(p + "makespan_ps", line.makespan);
  g.model(p + "races_line", line.races);
  g.model(p + "races_word", word.races);
  g.model(p + "reports_line_hash", hashOf(line.reports));
  g.model(p + "all_false_sharing", line.false_sharing_only ? "true" : "false");
  g.check(p + "check.detected", line.races > 0 && line.false_sharing_only && word.races == 0);
  g.check(p + "check.reports_deterministic", nocoal.reports == line.reports);
}

/// All seven paper benchmarks run detector-clean in line mode, and the fault
/// sweep's corruption/repair path on a drf-checked cached region reports
/// zero races (faults are functional corruption, not missing
/// happens-before edges).
void drfCleanSuite(Golden& g) {
  sim::SccConfig drf_cfg;
  drf_cfg.drf_check = true;
  bool suite_clean = true;
  std::uint64_t suite_races = 0;
  for (const auto& bench : workloads::standardSuite(0.25)) {
    const partition::ExecutionPlan plan = bench->handPlan();
    for (const workloads::Mode mode :
         {workloads::Mode::RcceOffChip, workloads::Mode::RcceMpb}) {
      const workloads::RunResult r = bench->run(mode, 8, drf_cfg, &plan);
      suite_clean = suite_clean && r.verified && r.drf_races == 0;
      suite_races += r.drf_races;
    }
  }
  // The seventh benchmark: the KV store's benign canonical-value races are
  // exempted at setup (workloads/kv_store.cpp), everything else must be
  // ordered.
  const auto kv = workloads::makeKvStore(workloads::KvParams{});
  const partition::ExecutionPlan kv_plan = kv->handPlan();
  const workloads::RunResult kvr =
      kv->run(workloads::Mode::RcceOffChip, 8, drf_cfg, &kv_plan);
  suite_clean = suite_clean && kvr.verified && kvr.drf_races == 0;
  suite_races += kvr.drf_races;
  sim::FaultPlan hot{};
  hot.enabled = true;
  hot.mpb_transfer.rate = 0.08;
  hot.shm_write.rate = 0.06;
  hot.swcache_flush.rate = 0.15;
  const FaultRun fr = runFaultSweep(hot, 0, /*drf_check=*/true);
  const std::string p = "drf_clean_suite_8ue.";
  g.model(p + "suite_races", suite_races);
  g.model(p + "fault_faults_injected", fr.stats.totalInjected());
  g.model(p + "fault_drf_races", fr.drf_races);
  g.check(p + "check.suite_clean", suite_clean);
  g.check(p + "check.fault_regression_ok", !fr.deadlock && !fr.sync_timeout &&
                                               fr.stats.totalInjected() > 0 &&
                                               fr.stats.unrecovered == 0 && fr.drf_races == 0);
}

/// The simulated-time tracer's determinism contract (docs/observability.md)
/// on a live kernel: a traced run exports byte-identical Chrome JSON across
/// coalescing modes, and enabling the trace moves no Tick. trace_hash pins
/// the bytes of the artifact micro_sim --trace-out writes.
void obsTrace(Golden& g) {
  const TracedRun traced = runSyncedWords(true, true);
  const TracedRun traced_off = runSyncedWords(true, false);
  const TracedRun untraced = runSyncedWords(false, true);
  const RunStats plain = runWorkload(barrier32(), Mode{});
  const RunStats with_trace = runWorkload(barrier32(), Mode{.trace = true});
  const std::string p = "obs_trace_8ue.";
  g.model(p + "makespan_ps", traced.makespan);
  g.model(p + "trace_events_recorded", traced.recorded);
  g.model(p + "trace_hash", hashOf(traced.json));
  g.check(p + "check.trace_recorded", traced.recorded > 0);
  g.check(p + "check.trace_bytes_identical", traced.json == traced_off.json);
  g.check(p + "check.ticks_unchanged",
          traced.makespan == untraced.makespan && sameTicks(plain, with_trace));
}

// --- paper programs -----------------------------------------------------------

const char* modeKey(workloads::Mode mode) {
  switch (mode) {
    case workloads::Mode::PthreadSingleCore: return "pthread";
    case workloads::Mode::RcceOffChip: return "offchip";
    case workloads::Mode::RcceMpb: return "mpb";
  }
  return "?";
}

/// `<bench>.<mode>.<N>ue` under `scope`.
std::string benchKey(const std::string& scope, const workloads::RunResult& r) {
  return scope + "." + r.benchmark + "." + modeKey(r.mode) + "." + std::to_string(r.units) +
         "ue";
}

/// A Benchmark run: makespan, verification, the functional value (the part
/// of `detail` before the metrics summary) and, for RCCE modes, traffic and
/// event counters.
void benchRows(Golden& g, const std::string& prefix, const workloads::RunResult& r) {
  g.model(prefix + ".makespan_ps", r.makespan);
  g.check(prefix + ".verified", r.verified);
  g.model(prefix + ".result", r.detail.substr(0, r.detail.find(" | ")));
  if (r.mode == workloads::Mode::PthreadSingleCore) return;
  const auto& counters = r.metrics.sim_counters;
  for (const char* name : {"shm_words", "shm_bulk_lines", "mpb_chunks", "swcache_lines"}) {
    g.model(prefix + "." + name, counters.at(name));
  }
  for (const char* name :
       {"events", "shm_word_events", "mpb_chunk_events", "swcache_line_events"}) {
    g.work(prefix + "." + name, counters.at(name));
  }
}

constexpr workloads::Mode kAllModes[] = {workloads::Mode::PthreadSingleCore,
                                         workloads::Mode::RcceOffChip,
                                         workloads::Mode::RcceMpb};

/// Figs. 6.1 and 6.2 (all six programs, every mode, 32 UEs, scale 1.0) and
/// Fig. 6.3 (PiApprox under MPB on each core count it sweeps), each under
/// its handPlan() as the fig binaries run them, plus CountPrimes'
/// load-imbalance band: the paper reports 16x instead of 32x.
void paperFigures(Golden& g) {
  const sim::SccConfig config;
  for (const auto& bench : workloads::standardSuite(1.0)) {
    const partition::ExecutionPlan plan = bench->handPlan();
    Tick makespan[std::size(kAllModes)] = {};
    for (std::size_t i = 0; i < std::size(kAllModes); ++i) {
      const workloads::RunResult r = bench->run(kAllModes[i], 32, config, &plan);
      benchRows(g, benchKey("paper", r), r);
      makespan[i] = r.makespan;
    }
    if (bench->name() == "CountPrimes") {
      const double speedup =
          static_cast<double>(makespan[0]) / static_cast<double>(makespan[1]);
      g.check("paper.CountPrimes.check.offchip_speedup_12x_to_20x",
              speedup >= 12.0 && speedup <= 20.0);
    }
    if (bench->name() == "PiApprox") {
      for (const int cores : {1, 2, 4, 8, 16, 48}) {
        const workloads::RunResult r =
            bench->run(workloads::Mode::RcceMpb, cores, config, &plan);
        benchRows(g, benchKey("paper", r), r);
      }
    }
  }
}

/// The runs bench/pipeline times: the six programs at scale 1.0 on 32 UEs,
/// off-chip and MPB, each under the ExecutionPlan its translated pthread
/// source derives (the hand plans of `paper.*` cache nothing; these plans
/// send DotProduct's vectors through the swcache).
void paperPlans(Golden& g) {
  const sim::SccConfig config;
  for (const auto& bench : workloads::standardSuite(1.0)) {
    const std::string name = bench->name();
    const translator::TranslationResult t =
        translator::Translator{}.analyzeOnly(workloads::pthreadSource(name), name + ".c");
    g.check("paper_plan." + name + ".translated", t.ok);
    for (const workloads::Mode mode :
         {workloads::Mode::RcceOffChip, workloads::Mode::RcceMpb}) {
      const workloads::RunResult r = bench->run(mode, 32, config, &t.execution_plan);
      benchRows(g, benchKey("paper_plan", r), r);
    }
  }
}

/// The six programs at scale 0.05 on 8 UEs in every mode, under their
/// hand plans.
void paperSmall(Golden& g) {
  const sim::SccConfig config;
  for (const auto& bench : workloads::standardSuite(0.05)) {
    const partition::ExecutionPlan plan = bench->handPlan();
    for (const workloads::Mode mode : kAllModes) {
      const workloads::RunResult r = bench->run(mode, 8, config, &plan);
      benchRows(g, benchKey("paper_small", r), r);
    }
  }
}

/// Clean paper kernels under their translated plans (scale 0.05, 8 UEs):
/// the detector's checked-access counts and races, line and word mode.
void drfPlanKernels(Golden& g) {
  for (const auto& bench : workloads::standardSuite(0.05)) {
    const std::string name = bench->name();
    if (name != "LU" && name != "Stream" && name != "DotProduct") continue;
    translator::Translator tr;
    const translator::TranslationResult t =
        tr.analyzeOnly(workloads::pthreadSource(name), name + ".c");
    g.check("drf_plan." + name + ".translated", t.ok);
    for (const bool word : {false, true}) {
      sim::SccConfig cfg;
      cfg.drf_check = true;
      cfg.drf_word_granular = word;
      for (const workloads::Mode mode :
           {workloads::Mode::RcceOffChip, workloads::Mode::RcceMpb}) {
        const workloads::RunResult r = bench->run(mode, 8, cfg, &t.execution_plan);
        const std::string p =
            benchKey("drf_plan", r) + (word ? ".word_granular" : ".line_granular");
        g.check(p + ".verified", r.verified);
        g.model(p + ".races", r.drf_races);
        g.model(p + ".accesses_checked", r.metrics.sim_counters.at("drf_accesses_checked"));
      }
    }
  }
}

/// LU's per-region profile (scale 0.05, off-chip, 8 UEs, its hand plan):
/// its placement walks the controller stripes.
void luRegionProfile(Golden& g) {
  sim::SccConfig cfg;
  cfg.region_metrics = true;
  const auto lu = workloads::makeLuDecomposition(0.05);
  const partition::ExecutionPlan plan = lu->handPlan();
  const workloads::RunResult r = lu->run(workloads::Mode::RcceOffChip, 8, cfg, &plan);
  const std::string p = benchKey("region_profile", r);
  g.check(p + ".verified", r.verified);
  for (const sim::obs::RegionProfile& region : r.metrics.regions) {
    std::ostringstream line;
    line << "r=" << region.reads << " w=" << region.writes << " rw=" << region.read_words
         << " ww=" << region.write_words << " h=" << region.hits << " m=" << region.misses
         << " bl=" << region.bulk_lines << " mc=";
    for (std::size_t mc = 0; mc < region.controller_txns.size(); ++mc) {
      line << (mc > 0 ? "/" : "") << region.controller_txns[mc];
    }
    g.model(p + ".region." + region.name, line.str());
  }
}

/// bench/pipeline's kv_zipf pass: 32 UEs, seed kvMix64(1), the owner-compute
/// plan. Its metrics snapshot also gives the sorted sim counter keys:
/// bench/pipeline fingerprints every sim counter, so adding, dropping or
/// renaming one moves this row before it moves the benchmark's verdict.
void kvPipeline(Golden& g) {
  workloads::KvParams params;
  params.seed = workloads::kvMix64(1);
  const partition::ExecutionPlan plan = workloads::kvStorePlan(params);
  const workloads::RunResult r = workloads::makeKvStore(params)->run(
      workloads::Mode::RcceOffChip, 32, sim::SccConfig{}, &plan);
  benchRows(g, benchKey("kv_pipeline", r), r);
  std::string keys;
  for (const auto& [key, value] : r.metrics.sim_counters) {
    keys += (keys.empty() ? "" : ",") + key;
  }
  g.work("metrics.sim_counter_keys", keys);
}

}  // namespace

int main(int argc, char**) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: sim_golden (takes no arguments)\n");
    return 2;
  }
  Golden g;
  for (const PinnedScenario& t : kPinnedScenarios) pinnedScenario(g, t);
  faultSweep(g);
  drfRacy(g);
  drfFalseSharing(g);
  drfCleanSuite(g);
  obsTrace(g);
  paperFigures(g);
  paperPlans(g);
  paperSmall(g);
  drfPlanKernels(g);
  luRegionProfile(g);
  kvPipeline(g);
  return g.print();
}
