#include "sim/obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "sim/fault/fault.h"
#include "sim/machine.h"

namespace hsm::sim::obs {
namespace {

// Deterministic double rendering: one fixed format, so identical values
// always produce identical bytes regardless of locale or stream state.
std::string formatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

}  // namespace

std::string MetricsSnapshot::summary() const {
  std::ostringstream out;
  auto counter = [&](const char* name, bool always = false) {
    auto it = sim_counters.find(name);
    if (it == sim_counters.end() || (!always && it->second == 0)) return;
    if (out.tellp() > 0) out << ' ';
    out << name << '=' << it->second;
  };
  auto gauge = [&](const char* name) {
    auto it = sim_gauges.find(name);
    if (it == sim_gauges.end() || it->second == 0.0) return;
    if (out.tellp() > 0) out << ' ';
    out << name << '=' << formatNumber(it->second);
  };
  counter("events", /*always=*/true);
  counter("makespan_ticks", /*always=*/true);
  counter("shm_words");
  counter("shm_bulk_lines");
  counter("swcache_lines");
  counter("mpb_chunks");
  counter("mpb_scope_violations");
  counter("faults_injected");
  counter("faults_unrecovered");
  counter("drf_races");
  gauge("swcache_hit_rate");
  gauge("controller_load_cv");
  return out.str();
}

MetricsSnapshot collectMetrics(const SccMachine& machine) {
  MetricsSnapshot snap;
  std::map<std::string, std::uint64_t>& counters = snap.sim_counters;
  const Engine& engine = machine.engine();

  // ---- engine (sim domain) -------------------------------------------
  counters["events"] = engine.eventsProcessed();
  counters["makespan_ticks"] = engine.makespan();

  // ---- shared-memory / MPB traffic -----------------------------------
  counters["shm_words"] = machine.shmWordsSimulated();
  counters["shm_word_events"] = machine.shmWordEvents();
  counters["shm_bulk_lines"] = machine.shmBulkLinesSimulated();
  counters["mpb_chunks"] = machine.mpbChunksSimulated();
  counters["mpb_chunk_events"] = machine.mpbChunkEvents();
  counters["mpb_scope_violations"] = machine.mpbScopeViolations();

  // ---- swcache --------------------------------------------------------
  const SwCacheStats sw = machine.swcacheTotals();
  counters["swcache_word_accesses"] = sw.word_accesses;
  counters["swcache_word_hits"] = sw.word_hits;
  counters["swcache_line_fills"] = sw.line_fills;
  counters["swcache_writebacks"] = sw.writebacks;
  counters["swcache_flushes"] = sw.flushes;
  counters["swcache_invalidated_lines"] = sw.invalidated_lines;
  counters["swcache_lines"] = machine.swcacheLinesSimulated();
  counters["swcache_line_events"] = machine.swcacheLineEvents();
  if (sw.word_accesses > 0) snap.sim_gauges["swcache_hit_rate"] = sw.hitRate();

  // ---- controllers: per-mc counters + load CV -------------------------
  const std::vector<std::uint64_t>& traffic = machine.controllerTraffic();
  double total = 0.0;
  for (std::size_t mc = 0; mc < traffic.size(); ++mc) {
    counters["mc" + std::to_string(mc) + "_units"] = traffic[mc];
    total += static_cast<double>(traffic[mc]);
  }
  if (!traffic.empty() && total > 0.0) {
    const double mean = total / static_cast<double>(traffic.size());
    double var = 0.0;
    for (const std::uint64_t units : traffic) {
      const double d = static_cast<double>(units) - mean;
      var += d * d;
    }
    var /= static_cast<double>(traffic.size());
    snap.sim_gauges["controller_load_cv"] = std::sqrt(var) / mean;
  }

  // ---- faults ---------------------------------------------------------
  const FaultStats& faults = machine.faultStats();
  counters["faults_injected"] = faults.totalInjected();
  counters["faults_recovered"] = faults.totalRecovered();
  counters["fault_retries"] = faults.retries;
  counters["fault_stall_ticks"] = faults.stall_ticks;
  counters["fault_freezes"] = faults.freezes;
  counters["faults_unrecovered"] = faults.unrecovered;
  for (std::size_t cls = 0; cls < kNumFaultClasses; ++cls) {
    if (faults.injected[cls] == 0 && faults.recovered[cls] == 0) continue;
    const std::string name =
        std::string("fault_") + faultClassName(static_cast<FaultClass>(cls));
    counters[name + "_injected"] = faults.injected[cls];
    counters[name + "_recovered"] = faults.recovered[cls];
  }

  // ---- race detection (sim domain: simulated-time determinism holds) --
  if (machine.drfEnabled()) {
    counters["drf_races"] = machine.drfChecker().reports().size();
    counters["drf_accesses_checked"] = machine.drfChecker().accessesChecked();
  }

  // ---- trace accounting (sim domain: counts of simulated events) ------
  if (machine.traceRecorder().enabled()) {
    counters["trace_events_recorded"] = machine.traceRecorder().recordedEvents();
  }

  // ---- host domain: the ONLY wall-clock-derived numbers ---------------
  const double wall = engine.hostWallSeconds();
  snap.host_gauges["wall_seconds"] = wall;
  snap.host_gauges["events_per_second"] =
      wall > 0.0 ? static_cast<double>(engine.eventsProcessed()) / wall : 0.0;

  snap.regions = machine.shmRegionProfiles();
  return snap;
}

}  // namespace hsm::sim::obs
