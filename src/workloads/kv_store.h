// KV store under Zipf traffic — the seventh benchmark, and the workload the
// controller-placement machinery (partition::ControllerPlacement) is sized
// against. Items live in a slab of fixed-size slots behind an open-addressing
// hash index, both in off-chip shared memory; each UE drives a mixed get/set
// stream whose keys follow a deterministic Zipf distribution. Skewed keys
// concentrate traffic on few addresses, so the address→controller mapping the
// ExecutionPlan picks decides whether one memory controller hot-spots
// (striped placement) or the load follows the evenly-spread requesters
// (owner-compute) — the controller_load_cv metric in RunResult measures it.
//
// Determinism & DRF: sets write the CANONICAL value of their key (a pure
// function of the key, the same bytes the slab is prepopulated with), so
// concurrent writers race benignly and every get observes canonical items no
// matter the interleaving. Per-UE get checksums land in disjoint check slots
// and are verified against an untimed host-side replay of the same streams.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "workloads/benchmark.h"

namespace hsm::workloads {

/// splitmix64 finalizer — the benchmark's only source of hashing and
/// pseudo-randomness (shared with the tests so replays match exactly).
[[nodiscard]] constexpr std::uint64_t kvMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// A Zipf(alpha) inverse-CDF table over ranks [0, num_keys). Read-only once
/// built, so one table serves every generator of a run.
struct ZipfTable {
  /// cdf[k] = P(rank <= k), nondecreasing, cdf.back() == 1.
  std::vector<double> cdf;
  /// guide[j] = the first rank whose cdf exceeds j / guide.size(). The size
  /// is a power of two, so both j / G and u * G are exact in binary
  /// floating point.
  std::vector<std::uint32_t> guide;

  /// The first rank whose cdf exceeds `u` in [0, 1): a forward scan from
  /// guide[floor(u * G)], which can only start at or below that rank —
  /// exactly what a binary search over cdf returns, in O(1) expected steps.
  [[nodiscard]] std::uint32_t rank(double u) const {
    assert(u >= 0.0 && u < 1.0);
    const double scaled = u * static_cast<double>(guide.size());
    std::uint32_t k = guide[static_cast<std::size_t>(scaled)];
    while (cdf[k] <= u) ++k;
    return k;
  }
};
using ZipfCdf = std::shared_ptr<const ZipfTable>;
[[nodiscard]] ZipfCdf makeZipfCdf(std::uint32_t num_keys, double alpha);

/// Deterministic Zipf(alpha) key generator over ranks [0, num_keys):
/// a precomputed inverse-CDF table (ZipfTable::rank) indexed by
/// counter-based splitmix64 uniforms. Stateless beyond the draw counter — two generators built with
/// the same (num_keys, alpha, seed) produce identical streams on any
/// platform, and distinct seeds produce decorrelated streams with the same
/// marginal distribution (the properties the tests pin down).
class ZipfGenerator {
 public:
  ZipfGenerator(std::uint32_t num_keys, double alpha, std::uint64_t seed);
  /// Draw from a shared table built by makeZipfCdf.
  ZipfGenerator(ZipfCdf cdf, std::uint64_t seed);

  /// Next key rank (0 = the hottest key).
  [[nodiscard]] std::uint32_t next();
  [[nodiscard]] std::uint32_t numKeys() const {
    return static_cast<std::uint32_t>(cdf_->cdf.size());
  }
  /// Probability mass of rank `k` (for skew assertions in tests).
  [[nodiscard]] double probability(std::uint32_t k) const;

 private:
  ZipfCdf cdf_;
  std::uint64_t seed_;
  std::uint64_t counter_ = 0;
};

struct KvParams {
  std::uint32_t num_keys = 4096;
  double alpha = 1.2;          ///< Zipf skew (~18% of draws hit the top key)
  std::uint32_t ops_per_ue = 2048;
  double get_ratio = 0.8;      ///< remainder are sets
  std::uint64_t seed = 0x5EEDBA5EULL;
};

/// The benchmark's plan region names ("kv_index" is the open-addressing
/// table, "kv_slots" the item slab, "kv_checks" the per-UE checksum slots) —
/// an ExecutionPlan that names them can re-place their controller mapping.
[[nodiscard]] std::unique_ptr<Benchmark> makeKvStore(double scale = 1.0);
[[nodiscard]] std::unique_ptr<Benchmark> makeKvStore(const KvParams& params);

/// Where setupKvRcce's three regions landed in shared DRAM — for callers
/// that read results (machine.shmData) after machine.run().
struct KvLayout {
  std::uint64_t index_offset = 0;
  std::uint64_t slots_offset = 0;
  std::uint64_t checks_offset = 0;
};

/// Allocate and prepopulate the KV regions on `machine`, then launch `ues`
/// UEs of the RCCE kernel under `plan` — the Benchmark's RCCE realization,
/// also exposed for harnesses that own the machine and read its stats
/// (bench/scenarios.h's `kv_zipf_8ue`). The caller runs machine.run();
/// kvReferenceChecksum replays the expected per-UE results. `cdf` is the
/// run's shared makeZipfCdf(params.num_keys, params.alpha) table; null
/// builds it here.
KvLayout setupKvRcce(sim::SccMachine& machine, const KvParams& params, int ues,
                     const partition::ExecutionPlan& plan,
                     Mode mode = Mode::RcceOffChip, ZipfCdf cdf = nullptr);

/// Expected checksum of UE `ue`'s get stream: the untimed host-side replay
/// the benchmark verifies against (gets always observe canonical items —
/// see the DRF note above). `cdf` is makeZipfCdf(params.num_keys,
/// params.alpha).
[[nodiscard]] std::uint64_t kvReferenceChecksum(const KvParams& params,
                                                const ZipfCdf& cdf, int ue);

}  // namespace hsm::workloads
