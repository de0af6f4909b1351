// End-of-run metrics snapshot (docs/observability.md).
//
// The second face of src/sim/obs: collectMetrics() gathers the scattered
// end-of-run stats (engine events, swcache totals, controller traffic,
// FaultStats, host wall seconds) into one MetricsSnapshot. Its fields keep
// two domains that can never be conflated:
//   - sim_*:  derived purely from simulated time / simulated state;
//             identical across hosts and coalescing modes.
//   - host_*: wall-clock-derived simulator throughput (host seconds,
//             events per host second); machine-dependent by nature.
// summary() (used for RunResult::detail) draws only on the sim maps, so a
// result line is reproducible bit-for-bit.
//
// The snapshot also carries the per-region shared-DRAM profiles
// (reads/writes/hits/misses/per-controller transactions for every named
// rcce::ShmArray region) that the ROADMAP's profile-guided-ExecutionPlan
// item consumes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hsm::sim {
class SccMachine;
}  // namespace hsm::sim

namespace hsm::sim::obs {

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

/// One run's metrics by name (std::map keys => deterministic iteration).
class MetricsSnapshot {
 public:
  std::map<std::string, std::uint64_t> sim_counters;
  std::map<std::string, double> sim_gauges;
  std::map<std::string, double> host_gauges;
  std::vector<RegionProfile> regions;

  /// Compact "k=v k=v ..." line built ONLY from sim-domain metrics —
  /// the deterministic source RunResult::detail derives from.
  [[nodiscard]] std::string summary() const;
};

/// Absorb every end-of-run stat a finished SccMachine exposes into one
/// snapshot: engine (events, makespan), shared-memory word and
/// bulk traffic, MPB chunks and scope violations, swcache totals, controller
/// traffic (per-controller counters + load CV), fault statistics, host
/// throughput, and the named per-region profiles.
[[nodiscard]] MetricsSnapshot collectMetrics(const SccMachine& machine);

}  // namespace hsm::sim::obs
