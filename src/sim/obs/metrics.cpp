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
std::string jsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

template <typename Map, typename Render>
void emitObject(std::ostringstream& out, const Map& map, Render render) {
  out << '{';
  bool first = true;
  for (const auto& [name, value] : map) {
    if (!first) out << ',';
    first = false;
    out << '"' << name << "\":";
    render(value);
  }
  out << '}';
}

}  // namespace

void Histogram::observe(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }
  ++count_;
  sum_ += value;
  ++buckets_[bucketFor(value)];
}

std::size_t Histogram::bucketFor(double value) {
  if (!(value >= 1.0)) return 0;  // also catches NaN
  const std::size_t exp = static_cast<std::size_t>(std::log2(value)) + 1;
  return exp < kNumBuckets ? exp : kNumBuckets - 1;
}

Counter& MetricsRegistry::counter(const std::string& name, MetricDomain domain) {
  auto [it, inserted] = counters_.try_emplace(name, domain, Counter{});
  return it->second.second;
}

Gauge& MetricsRegistry::gauge(const std::string& name, MetricDomain domain) {
  auto [it, inserted] = gauges_.try_emplace(name, domain, Gauge{});
  return it->second.second;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return histograms_[name];
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, entry] : counters_) {
    (entry.first == MetricDomain::kSim ? snap.sim_counters
                                       : snap.host_counters)[name] =
        entry.second.value();
  }
  for (const auto& [name, entry] : gauges_) {
    (entry.first == MetricDomain::kSim ? snap.sim_gauges : snap.host_gauges)[name] =
        entry.second.value();
  }
  for (const auto& [name, hist] : histograms_) {
    HistogramSnapshot h;
    h.count = hist.count();
    h.sum = hist.sum();
    h.min = hist.min();
    h.max = hist.max();
    h.buckets = hist.buckets();
    snap.histograms[name] = h;
  }
  return snap;
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

std::string MetricsSnapshot::toJson() const {
  std::ostringstream out;
  out << "{\"sim\":{\"counters\":";
  emitObject(out, sim_counters, [&out](std::uint64_t v) { out << v; });
  out << ",\"gauges\":";
  emitObject(out, sim_gauges, [&out](double v) { out << jsonNumber(v); });
  out << "},\"host\":{\"counters\":";
  emitObject(out, host_counters, [&out](std::uint64_t v) { out << v; });
  out << ",\"gauges\":";
  emitObject(out, host_gauges, [&out](double v) { out << jsonNumber(v); });
  out << "},\"histograms\":";
  emitObject(out, histograms, [&out](const HistogramSnapshot& h) {
    out << "{\"count\":" << h.count << ",\"sum\":" << jsonNumber(h.sum)
        << ",\"min\":" << jsonNumber(h.min) << ",\"max\":" << jsonNumber(h.max)
        << ",\"buckets\":[";
    // Trailing zero buckets are elided to keep snapshots compact; consumers
    // treat missing buckets as zero.
    std::size_t last = h.buckets.size();
    while (last > 0 && h.buckets[last - 1] == 0) --last;
    for (std::size_t i = 0; i < last; ++i) {
      if (i > 0) out << ',';
      out << h.buckets[i];
    }
    out << "]}";
  });
  out << ",\"regions\":[";
  bool first = true;
  for (const RegionProfile& region : regions) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << region.name << "\",\"begin\":" << region.begin
        << ",\"end\":" << region.end << ",\"reads\":" << region.reads
        << ",\"writes\":" << region.writes << ",\"read_words\":" << region.read_words
        << ",\"write_words\":" << region.write_words << ",\"hits\":" << region.hits
        << ",\"misses\":" << region.misses << ",\"bulk_lines\":" << region.bulk_lines
        << ",\"controller_txns\":[";
    for (std::size_t mc = 0; mc < region.controller_txns.size(); ++mc) {
      if (mc > 0) out << ',';
      out << region.controller_txns[mc];
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

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
    out << name << '=' << jsonNumber(it->second);
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
  MetricsRegistry reg;
  const Engine& engine = machine.engine();

  // ---- engine (sim domain) -------------------------------------------
  reg.counter("events").add(engine.eventsProcessed());
  reg.counter("makespan_ticks").add(engine.makespan());

  // ---- shared-memory / MPB traffic -----------------------------------
  reg.counter("shm_words").add(machine.shmWordsSimulated());
  reg.counter("shm_word_events").add(machine.shmWordEvents());
  reg.counter("shm_bulk_lines").add(machine.shmBulkLinesSimulated());
  reg.counter("mpb_chunks").add(machine.mpbChunksSimulated());
  reg.counter("mpb_chunk_events").add(machine.mpbChunkEvents());
  reg.counter("mpb_scope_violations").add(machine.mpbScopeViolations());

  // ---- swcache --------------------------------------------------------
  const SwCacheStats sw = machine.swcacheTotals();
  reg.counter("swcache_word_accesses").add(sw.word_accesses);
  reg.counter("swcache_word_hits").add(sw.word_hits);
  reg.counter("swcache_line_fills").add(sw.line_fills);
  reg.counter("swcache_writebacks").add(sw.writebacks);
  reg.counter("swcache_flushes").add(sw.flushes);
  reg.counter("swcache_invalidated_lines").add(sw.invalidated_lines);
  reg.counter("swcache_lines").add(machine.swcacheLinesSimulated());
  reg.counter("swcache_line_events").add(machine.swcacheLineEvents());
  if (sw.word_accesses > 0) reg.gauge("swcache_hit_rate").set(sw.hitRate());

  // ---- controllers: per-mc counters + a spread histogram + load CV ----
  const std::vector<std::uint64_t>& traffic = machine.controllerTraffic();
  Histogram& mc_hist = reg.histogram("controller_traffic");
  double total = 0.0;
  for (std::size_t mc = 0; mc < traffic.size(); ++mc) {
    reg.counter("mc" + std::to_string(mc) + "_units").add(traffic[mc]);
    mc_hist.observe(static_cast<double>(traffic[mc]));
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
    reg.gauge("controller_load_cv").set(std::sqrt(var) / mean);
  }

  // ---- faults ---------------------------------------------------------
  const FaultStats& faults = machine.faultStats();
  reg.counter("faults_injected").add(faults.totalInjected());
  reg.counter("faults_recovered").add(faults.totalRecovered());
  reg.counter("fault_retries").add(faults.retries);
  reg.counter("fault_stall_ticks").add(faults.stall_ticks);
  reg.counter("fault_freezes").add(faults.freezes);
  reg.counter("faults_unrecovered").add(faults.unrecovered);
  for (std::size_t cls = 0; cls < kNumFaultClasses; ++cls) {
    if (faults.injected[cls] == 0 && faults.recovered[cls] == 0) continue;
    const char* name = faultClassName(static_cast<FaultClass>(cls));
    reg.counter(std::string("fault_") + name + "_injected").add(faults.injected[cls]);
    reg.counter(std::string("fault_") + name + "_recovered").add(faults.recovered[cls]);
  }

  // ---- race detection (sim domain: simulated-time determinism holds) --
  if (machine.drfEnabled()) {
    reg.counter("drf_races").add(machine.drfChecker().reports().size());
    reg.counter("drf_accesses_checked").add(machine.drfChecker().accessesChecked());
  }

  // ---- trace accounting (sim domain: counts of simulated events) ------
  if (machine.traceRecorder().enabled()) {
    reg.counter("trace_events_recorded").add(machine.traceRecorder().recordedEvents());
    reg.counter("trace_events_dropped").add(machine.traceRecorder().droppedEvents());
  }

  // ---- host domain: the ONLY wall-clock-derived numbers ---------------
  const double wall = engine.hostWallSeconds();
  reg.gauge("wall_seconds", MetricDomain::kHost).set(wall);
  reg.gauge("events_per_second", MetricDomain::kHost)
      .set(wall > 0.0 ? static_cast<double>(engine.eventsProcessed()) / wall : 0.0);

  MetricsSnapshot snap = reg.snapshot();
  snap.regions = machine.shmRegionProfiles();
  return snap;
}

}  // namespace hsm::sim::obs
