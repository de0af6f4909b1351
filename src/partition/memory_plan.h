// Stage 4: partitioning shared data between on-chip (MPB SRAM) and off-chip
// (shared DRAM) memory — the paper's Algorithm 3, plus an access-frequency-
// aware variant used for the ablation study ("further granularity provided
// by frequency of access", §4.4).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/variable_info.h"
#include "partition/execution_plan.h"

namespace hsm::partition {

/// Capacities of the HSM target's shared memories. Defaults model the SCC:
/// 8 KB of MPB per core (the slice a UE can allocate from) and an off-chip
/// shared DRAM region big enough for any benchmark.
struct HsmMemorySpec {
  std::size_t onchip_capacity_bytes = 8 * 1024;
  std::size_t offchip_capacity_bytes = 64ull * 1024 * 1024;

  /// Total MPB across the whole chip (48 cores x 8 KB on the SCC); used for
  /// reporting, not for the per-UE planning decision.
  std::size_t onchip_total_bytes = 384 * 1024;
};

enum class Placement : std::uint8_t { OnChip, OffChip };

[[nodiscard]] inline const char* placementName(Placement p) {
  return p == Placement::OnChip ? "on-chip" : "off-chip";
}

struct PlacementDecision {
  const analysis::VariableInfo* variable = nullptr;
  Placement placement = Placement::OffChip;
  /// Execution-regime refinement of `placement` (OnChip → resident,
  /// OffChip → uncached by default; `deriveExecutionPlan` sharpens it from
  /// the stage-2 sharing tables: spilled-but-thread-read → on-chip-staged).
  PlacementClass cls = PlacementClass::kOffChipUncached;
  std::size_t bytes = 0;
  std::size_t offset = 0;  ///< byte offset within the chosen region
  double weighted_accesses = 0;
};

struct MemoryPlan {
  std::vector<PlacementDecision> decisions;
  std::size_t onchip_used = 0;
  std::size_t offchip_used = 0;
  bool everything_fits_onchip = false;

  [[nodiscard]] const PlacementDecision* find(const std::string& name) const {
    for (const PlacementDecision& d : decisions) {
      if (d.variable != nullptr && d.variable->name == name) return &d;
    }
    return nullptr;
  }
  [[nodiscard]] Placement placementOf(const std::string& name) const {
    const PlacementDecision* d = find(name);
    return d != nullptr ? d->placement : Placement::OffChip;
  }
  /// Fraction of all weighted shared accesses that land on-chip — the
  /// figure of merit for comparing partitioning policies.
  [[nodiscard]] double onchipAccessFraction() const;

  [[nodiscard]] std::string format() const;
};

/// The paper's Algorithm 3: if everything fits on-chip, put it there;
/// otherwise sort ascending by size and greedily fill the remaining
/// on-chip space, spilling the rest off-chip.
class SizeAscendingPlanner {
 public:
  [[nodiscard]] MemoryPlan plan(const std::vector<const analysis::VariableInfo*>& shared,
                                const HsmMemorySpec& spec) const;
};

/// Ablation variant: sort by weighted accesses per byte (descending) so the
/// hottest data wins the scarce SRAM. Same fits-entirely fast path.
class FrequencyAwarePlanner {
 public:
  [[nodiscard]] MemoryPlan plan(const std::vector<const analysis::VariableInfo*>& shared,
                                const HsmMemorySpec& spec) const;
};

/// Refine a stage-4 memory plan into the full translator→runtime contract
/// using the stage-2 sharing tables (execution_plan.h):
///   * on-chip reduction objects (thread-written, gathered in main or under
///     a lock) → resident root-funnel through UE 0's slot;
///   * other thread-written on-chip data → resident self-stage;
///   * read-only on-chip scalars → resident, no runtime MPB traffic
///     (broadcast at initialization);
///   * spilled arrays that threads only read → on-chip-staged, self-staged
///     (no UE fetches a peer's slice of read-only data), with off-chip-cached
///     as their class in a run without on-chip placement (the swcache serves
///     read-mostly data; docs/memory_model.md);
///   * spilled thread-written arrays → on-chip-staged, broadcast-staged when
///     the program barriers inside its thread functions (cross-thread row
///     reuse, LU's pivot rows), self-staged otherwise (disjoint streaming
///     slices);
///   * everything else → off-chip-uncached.
/// Also back-fills each PlacementDecision's `cls`. Pthread bookkeeping
/// objects (mutexes, barriers, thread handles) are excluded — stage 5 lowers
/// them to RCCE sync primitives, not memory regions.
[[nodiscard]] ExecutionPlan deriveExecutionPlan(const analysis::AnalysisResult& analysis,
                                                MemoryPlan& plan);

}  // namespace hsm::partition
