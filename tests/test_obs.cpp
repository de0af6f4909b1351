// Tests for src/sim/obs: the deterministic trace recorder and the end-of-run
// metrics snapshot (docs/observability.md).
//
// The load-bearing oracle is identity: an enabled trace must record the same
// events, field by field, and export the exact same bytes across every
// coalescing mode and under a zero-rate armed fault plan — and enabling the
// trace must not move a single simulated Tick relative to an untraced run.
// The metrics tests pin the sim/host domain split that keeps
// RunResult::detail reproducible.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "rcce/rcce.h"
#include "sim/machine.h"
#include "sim/obs/metrics.h"
#include "sim/obs/trace.h"
#include "workloads/benchmark.h"
#include "workloads/kv_store.h"

namespace hsm {
namespace {

using sim::SccConfig;
using sim::SccMachine;
using sim::Tick;
namespace obs = sim::obs;

// --- trace recorder units ----------------------------------------------------

TEST(TraceRecorder, DisabledByDefaultAndZeroAccounting) {
  obs::TraceRecorder rec;
  EXPECT_FALSE(rec.enabled());
  EXPECT_EQ(rec.recordedEvents(), 0u);
}

// --- machine-level trace oracles --------------------------------------------

/// Full-mix kernel: uncached shm block IO, an MPB deposit, a lock-guarded
/// counter, and a global barrier per round — every traced operation family
/// in one run.
sim::SimTask obsMix(sim::CoreContext& ctx, std::uint64_t base, std::uint64_t counter,
                    std::uint64_t slot, int rounds, std::size_t block) {
  std::vector<std::uint8_t> buf(block);
  const std::uint64_t mine = base + static_cast<std::uint64_t>(ctx.ue()) * block;
  const int right = (ctx.ue() + 1) % ctx.numUes();
  for (int r = 0; r < rounds; ++r) {
    co_await ctx.compute(10000 + static_cast<std::uint64_t>(ctx.ue() % 3) * 7000);
    co_await ctx.shmRead(mine, buf.data(), block);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<std::uint8_t>(buf[i] + static_cast<std::size_t>(r) + i);
    }
    co_await ctx.shmWrite(mine, buf.data(), block);
    co_await rcce::put(ctx, right, slot, buf.data(), 256);
    co_await ctx.lockAcquire(0);
    std::uint64_t c = 0;
    co_await ctx.shmRead(counter, &c, sizeof(c));
    ++c;
    co_await ctx.shmWrite(counter, &c, sizeof(c));
    co_await ctx.lockRelease(0);
    co_await ctx.barrier();
  }
}

struct TraceRun {
  Tick makespan = 0;
  std::vector<Tick> completions;
  std::uint64_t recorded = 0;
  std::string json;
  /// Every recorded event: one vector per task, the host's last. The
  /// oracles compare these too, because the JSON omits some payloads
  /// (kLockWait's queued flag).
  std::vector<std::vector<obs::TraceEvent>> events;
};

/// `cached` registers all of shared DRAM cacheable (the swcache routing).
TraceRun runObsMix(const SccConfig& cfg, bool cached = false) {
  SccMachine m(cfg);
  if (cached) m.setShmCacheability(0, cfg.shared_dram_bytes, true);
  rcce::RcceEnv env(m);
  const std::uint64_t base = m.shmalloc(8 * 512);
  const std::uint64_t counter = m.shmalloc(64);
  const std::uint64_t slot = env.mpbMallocSymmetric(8, 256);
  m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
    return obsMix(ctx, base, counter, slot, 4, 512);
  }));
  TraceRun r;
  r.makespan = m.run();
  for (int ue = 0; ue < 8; ++ue) {
    r.completions.push_back(m.engine().completionTime(static_cast<std::size_t>(ue)));
  }
  const obs::TraceRecorder& rec = m.traceRecorder();
  r.recorded = rec.recordedEvents();
  std::ostringstream js;
  m.writeTrace(js);
  r.json = js.str();
  for (std::size_t task = 0; task < rec.taskSlots(); ++task) {
    r.events.push_back(rec.taskEvents(task));
  }
  r.events.push_back(rec.hostEvents());
  return r;
}

SccConfig tracedConfig() {
  SccConfig cfg;
  cfg.trace_enabled = true;
  return cfg;
}

TEST(ObsTrace, ByteIdenticalAcrossCoalescingModes) {
  SccConfig on = tracedConfig();
  SccConfig off = tracedConfig();
  off.coalescing = false;

  const TraceRun a = runObsMix(on);
  const TraceRun b = runObsMix(off);
  EXPECT_GT(a.recorded, 0u);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.events, b.events);
}

TEST(ObsTrace, ByteIdenticalAcrossSwcacheCoalescing) {
  // Same oracle on the cached routing: swcache line transfers ride the
  // coalesced path too, and their spans must not depend on it.
  SccConfig on = tracedConfig();
  SccConfig off = on;
  off.coalescing = false;

  const TraceRun a = runObsMix(on, /*cached=*/true);
  const TraceRun b = runObsMix(off, /*cached=*/true);
  EXPECT_GT(a.recorded, 0u);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.events, b.events);
}

TEST(ObsTrace, ZeroRateArmedFaultPlanIsByteIdentical) {
  SccConfig plain = tracedConfig();
  SccConfig armed = tracedConfig();
  armed.fault.enabled = true;  // every rate zero: must record nothing extra

  const TraceRun a = runObsMix(plain);
  const TraceRun b = runObsMix(armed);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.events, b.events);
}

TEST(ObsTrace, EnablingTheTraceMovesNoTick) {
  SccConfig traced = tracedConfig();
  SccConfig untraced;  // trace_enabled = false

  const TraceRun a = runObsMix(traced);
  const TraceRun b = runObsMix(untraced);
  EXPECT_GT(a.recorded, 0u);
  EXPECT_EQ(b.recorded, 0u);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.completions, b.completions);
}

TEST(ObsTrace, JsonParsesAsTraceEvents) {
  const TraceRun r = runObsMix(tracedConfig());
  EXPECT_EQ(r.json.find("{\"displayTimeUnit\""), 0u);
  EXPECT_NE(r.json.find("\"traceEvents\""), std::string::npos);
  // One track per UE and per controller, in two process groups (1 and 3).
  EXPECT_NE(r.json.find("\"ue 0\""), std::string::npos);
  EXPECT_NE(r.json.find("\"ue 7\""), std::string::npos);
  EXPECT_NE(r.json.find("\"mc 0\""), std::string::npos);
  EXPECT_EQ(r.json.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(r.json.find("\"barrier_wait\""), std::string::npos);
  EXPECT_NE(r.json.find("\"lock_wait\""), std::string::npos);
  EXPECT_NE(r.json.find("\"mpb_put\""), std::string::npos);
}

/// FNV-1a over a byte string.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// The Chrome JSON export, pinned. The value is the hash of the earlier
// export that also drew pid-2 task-lifetime tracks (0xb180e84f52fdeba7)
// with every line containing "pid":2 removed, so dropping those tracks
// changed no other byte. A deliberate format change re-pins it.
TEST(ObsTrace, ExportPinned) {
  const TraceRun r = runObsMix(tracedConfig());
  EXPECT_EQ(fnv1a(r.json), 0x5ea5aad97a1dd437ull) << std::hex << fnv1a(r.json);
}

// --- machine-level metrics ---------------------------------------------------

TEST(ObsMetrics, CollectMetricsAbsorbsMachineStats) {
  SccConfig cfg = tracedConfig();
  SccMachine m(cfg);
  rcce::RcceEnv env(m);
  const std::uint64_t base = m.shmalloc(8 * 512);
  const std::uint64_t counter = m.shmalloc(64);
  const std::uint64_t slot = env.mpbMallocSymmetric(8, 256);
  m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
    return obsMix(ctx, base, counter, slot, 4, 512);
  }));
  const Tick makespan = m.run();

  const obs::MetricsSnapshot snap = obs::collectMetrics(m);
  EXPECT_EQ(snap.sim_counters.at("makespan_ticks"), static_cast<std::uint64_t>(makespan));
  EXPECT_GT(snap.sim_counters.at("events"), 0u);
  EXPECT_GT(snap.sim_counters.at("shm_words"), 0u);
  EXPECT_GT(snap.sim_counters.at("mpb_chunks"), 0u);
  EXPECT_GT(snap.sim_counters.at("trace_events_recorded"), 0u);
  EXPECT_GT(snap.host_gauges.at("wall_seconds"), 0.0);
  EXPECT_GT(snap.host_gauges.at("events_per_second"), 0.0);
  // Per-controller counters exist for every controller.
  EXPECT_EQ(snap.sim_counters.count("mc0_units"), 1u);
  EXPECT_EQ(snap.sim_counters.count("mc3_units"), 1u);

  // The summary draws on the sim maps only: host-domain metrics must never
  // leak into the reproducible result line.
  const std::string summary = snap.summary();
  EXPECT_NE(summary.find("events=" + std::to_string(snap.sim_counters.at("events"))),
            std::string::npos);
  EXPECT_NE(summary.find("makespan_ticks=" + std::to_string(makespan)), std::string::npos);
  for (const auto& [name, value] : snap.host_gauges) {
    EXPECT_EQ(summary.find(name), std::string::npos) << name;
  }
}

TEST(ObsMetrics, RegionProfilingIsOffByDefault) {
  SccConfig cfg;
  SccMachine m(cfg);
  m.registerShmRegion("ignored", 0, 4096);
  EXPECT_FALSE(m.regionProfilingActive());
  EXPECT_TRUE(m.shmRegionProfiles().empty());
}

TEST(ObsMetrics, RegionProfilesCoverAllSevenBenchmarks) {
  SccConfig cfg;
  cfg.region_metrics = true;
  std::vector<std::unique_ptr<workloads::Benchmark>> suite =
      workloads::standardSuite(0.05);
  suite.push_back(workloads::makeKvStore(0.1));
  ASSERT_EQ(suite.size(), 7u);
  for (const auto& bench : suite) {
    const partition::ExecutionPlan plan = bench->handPlan();
    const workloads::RunResult r =
        bench->run(workloads::Mode::RcceOffChip, 4, cfg, &plan);
    EXPECT_TRUE(r.verified) << bench->name() << ": " << r.detail;
    ASSERT_FALSE(r.metrics.regions.empty()) << bench->name();
    std::uint64_t ops = 0;
    std::uint64_t controller_units = 0;
    for (const obs::RegionProfile& region : r.metrics.regions) {
      EXPECT_FALSE(region.name.empty()) << bench->name();
      EXPECT_EQ(region.controller_txns.size(), cfg.num_mem_controllers)
          << bench->name();
      ops += region.reads + region.writes;
      for (const std::uint64_t units : region.controller_txns) {
        controller_units += units;
      }
    }
    EXPECT_GT(ops, 0u) << bench->name();
    EXPECT_GT(controller_units, 0u) << bench->name();
  }
}

/// One region's profile as a single comparable line.
std::string regionLine(const obs::RegionProfile& r) {
  std::ostringstream out;
  out << r.name << " r=" << r.reads << " w=" << r.writes << " rw=" << r.read_words
      << " ww=" << r.write_words << " h=" << r.hits << " m=" << r.misses
      << " bl=" << r.bulk_lines << " mc=";
  for (std::size_t mc = 0; mc < r.controller_txns.size(); ++mc) {
    out << (mc > 0 ? "/" : "") << r.controller_txns[mc];
  }
  return out.str();
}

std::vector<std::string> regionLines(const std::vector<obs::RegionProfile>& regions) {
  std::vector<std::string> lines;
  for (const obs::RegionProfile& r : regions) lines.push_back(regionLine(r));
  return lines;
}

/// Every region-profiled path of one UE: uncached word writes and reads,
/// a bulk write and read, and cached writes and reads.
sim::SimTask regionMix(sim::CoreContext& ctx, std::uint64_t words, std::uint64_t bulk,
                       std::uint64_t cached) {
  std::vector<std::uint8_t> buf(256, static_cast<std::uint8_t>(ctx.ue() + 1));
  const auto ue = static_cast<std::uint64_t>(ctx.ue());
  for (int r = 0; r < 3; ++r) {
    co_await ctx.shmWrite(words + ue * 64, buf.data(), 64);
    co_await ctx.shmRead(words + ue * 64, buf.data(), 64);
    co_await ctx.shmWriteBulk(bulk + ue * 256, buf.data(), 256);
    co_await ctx.shmReadBulk(bulk + ue * 256, buf.data(), 256);
    for (std::uint64_t i = 0; i < 4; ++i) {
      co_await ctx.shmWrite(cached + ue * 128 + i * 8, buf.data(), 8);
      co_await ctx.shmRead(cached + ue * 128 + i * 16, buf.data(), 8);
    }
    co_await ctx.barrier();
  }
}

std::vector<std::string> regionMixProfile(const SccConfig& cfg, bool cache_region) {
  SccMachine m(cfg);
  const std::uint64_t words = m.shmalloc(4 * 64, cfg.cache_line_bytes);
  const std::uint64_t bulk = m.shmalloc(4 * 256, cfg.cache_line_bytes);
  const std::uint64_t cached = m.shmalloc(4 * 128, cfg.cache_line_bytes);
  m.registerShmRegion("words", words, words + 4 * 64);
  m.registerShmRegion("bulk", bulk, bulk + 4 * 256);
  m.registerShmRegion("cached", cached, cached + 4 * 128);
  if (cache_region) m.setShmCacheability(cached, cached + 4 * 128, true);
  m.launch(sim::LaunchSpec(4, [=](sim::CoreContext& ctx) {
    return regionMix(ctx, words, bulk, cached);
  }));
  m.run();
  return regionLines(m.shmRegionProfiles());
}

TEST(ObsMetrics, RegionProfilesPinned) {
  SccConfig cfg;
  cfg.region_metrics = true;

  // Uncached words, the unfenced bulk path, and the cached range routed
  // uncached (no swcache instance exists).
  EXPECT_EQ(regionMixProfile(cfg, /*cache_region=*/false),
            (std::vector<std::string>{
                "words r=12 w=12 rw=96 ww=96 h=0 m=0 bl=0 mc=48/48/48/48",
                "bulk r=12 w=12 rw=0 ww=0 h=0 m=0 bl=192 mc=48/48/48/48",
                "cached r=48 w=48 rw=48 ww=48 h=0 m=0 bl=0 mc=24/24/24/24"}));

  // shm_write faults retry word and bulk writes: their counts are per
  // attempt (each retry moved the words again), so writes exceed the 12
  // logical writes per region. The cached region counts hits and misses.
  SccConfig faulted = cfg;
  faulted.fault.enabled = true;
  faulted.fault.shm_write.rate = 0.5;
  EXPECT_EQ(regionMixProfile(faulted, /*cache_region=*/true),
            (std::vector<std::string>{
                "words r=12 w=24 rw=96 ww=192 h=0 m=0 bl=0 mc=64/104/64/56",
                "bulk r=12 w=23 rw=0 ww=0 h=0 m=0 bl=280 mc=64/56/72/88",
                "cached r=48 w=48 rw=0 ww=0 h=72 m=24 bl=0 mc=6/6/6/6"}));
}

}  // namespace
}  // namespace hsm
