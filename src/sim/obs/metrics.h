// Unified metrics registry (docs/observability.md).
//
// The second face of src/sim/obs: one named counter/gauge/histogram
// facility that absorbs the scattered end-of-run stats (engine wall
// seconds, swcache totals, controller traffic, FaultStats) behind a single MetricsSnapshot::toJson(). Metrics are split into
// two domains that can never be conflated:
//   - kSim:  derived purely from simulated time / simulated state; identical
//            across hosts and coalescing modes.
//   - kHost: wall-clock-derived simulator throughput (host seconds,
//            events per host second); machine-dependent by nature.
// toJson() renders the domains in separate objects and summary() (used for
// RunResult::detail) draws only on the sim domain, so a result line is
// reproducible bit-for-bit.
//
// The snapshot also carries the per-region shared-DRAM profiles
// (reads/writes/hits/misses/per-controller transactions for every named
// rcce::ShmArray region) that the ROADMAP's profile-guided-ExecutionPlan
// item consumes.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hsm::sim {
class SccMachine;
}  // namespace hsm::sim

namespace hsm::sim::obs {

enum class MetricDomain { kSim, kHost };

class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double value) { value_ = value; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed log2-bucketed histogram: bucket 0 holds values < 1, bucket i>=1
/// holds [2^(i-1), 2^i), the last bucket is open-ended. No allocation on
/// observe(), so histograms are safe to keep on warm paths.
class Histogram {
 public:
  static constexpr std::size_t kNumBuckets = 32;

  void observe(double value);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ > 0 ? max_ : 0.0; }
  [[nodiscard]] const std::array<std::uint64_t, kNumBuckets>& buckets() const {
    return buckets_;
  }
  [[nodiscard]] static std::size_t bucketFor(double value);

 private:
  std::array<std::uint64_t, kNumBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::array<std::uint64_t, Histogram::kNumBuckets> buckets{};
};

/// Per-region shared-DRAM profile for one named rcce::ShmArray region.
struct RegionProfile {
  std::string name;
  std::uint64_t begin = 0;  ///< byte offset into shared DRAM
  std::uint64_t end = 0;    ///< one past the last byte
  std::uint64_t reads = 0;          ///< read operations touching the region
  std::uint64_t writes = 0;         ///< write operations touching the region
  std::uint64_t read_words = 0;     ///< uncached word transactions
  std::uint64_t write_words = 0;
  std::uint64_t hits = 0;           ///< swcache word touches served locally
  std::uint64_t misses = 0;         ///< swcache miss-driven line transactions
  std::uint64_t bulk_lines = 0;     ///< DMA-style bulk line transfers
  std::vector<std::uint64_t> controller_txns;  ///< per-controller units
};

/// Immutable, ordered view of a registry (std::map keys => deterministic
/// iteration => deterministic JSON bytes).
class MetricsSnapshot {
 public:
  std::map<std::string, std::uint64_t> sim_counters;
  std::map<std::string, double> sim_gauges;
  std::map<std::string, std::uint64_t> host_counters;
  std::map<std::string, double> host_gauges;
  std::map<std::string, HistogramSnapshot> histograms;  // sim domain
  std::vector<RegionProfile> regions;

  [[nodiscard]] std::string toJson() const;
  /// Compact "k=v k=v ..." line built ONLY from sim-domain metrics —
  /// the deterministic source RunResult::detail derives from.
  [[nodiscard]] std::string summary() const;
};

/// Live registry: name -> instrument, lazily created, domain fixed at first
/// use. Iteration order is name order, so snapshots are deterministic.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, MetricDomain domain = MetricDomain::kSim);
  Gauge& gauge(const std::string& name, MetricDomain domain = MetricDomain::kSim);
  Histogram& histogram(const std::string& name);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  void clear();

 private:
  std::map<std::string, std::pair<MetricDomain, Counter>> counters_;
  std::map<std::string, std::pair<MetricDomain, Gauge>> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Absorb every end-of-run stat a finished SccMachine exposes into one
/// snapshot: engine (events, makespan), shared-memory word and
/// bulk traffic, MPB chunks and scope violations, swcache totals, controller
/// traffic (counters + a spread histogram), fault statistics, host
/// throughput, and the named per-region profiles.
[[nodiscard]] MetricsSnapshot collectMetrics(const SccMachine& machine);

}  // namespace hsm::sim::obs
