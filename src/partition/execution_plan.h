// The translator→runtime execution contract.
//
// Stage 4 (partition/memory_plan.h) decides *where* each shared variable
// lives; this header carries that decision — refined by the stage-2 sharing
// tables into per-variable placement classes, exact per-UE MPB put/get owner
// sets, and a per-region shared-memory cacheability policy — across the
// translator→simulator boundary as ONE first-class value, and is the only
// channel for those decisions: per-region cacheability reaches the machine
// through plan-carrying `rcce::ShmArray`s (SccMachine::addShmRegion),
// and MPB scopes only through `LaunchSpec::withPlan`.
//
// Deliberately self-contained (std types only): the simulator consumes it
// (`SccMachine::launch`, `rcce::ShmArray`) without pulling in the analysis
// layer. Derivation from analysis results lives in memory_plan.h
// (`deriveExecutionPlan`). Contract semantics: docs/execution_plan.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hsm::partition {

/// Refinement of the stage-4 OnChip/OffChip split into the four execution
/// regimes the runtime actually distinguishes.
enum class PlacementClass : std::uint8_t {
  /// The object itself lives in MPB slices (fits the per-UE 8 KB slice);
  /// UEs access it with RCCE put/get at on-chip latencies.
  kOnChipResident,
  /// Master copy in off-chip DRAM, too big for a slice; blocks are staged
  /// through MPB slices per phase (the paper's Fig. 6.2 configurations).
  kOnChipStaged,
  /// Off-chip DRAM, word-granular hardware-uncached access (Fig. 6.1).
  kOffChipUncached,
  /// Off-chip DRAM routed through the per-core software-managed
  /// release-consistency cache (read-mostly data; docs/memory_model.md).
  kOffChipCached,
};

[[nodiscard]] const char* placementName(PlacementClass c);

[[nodiscard]] constexpr bool isOnChip(PlacementClass c) {
  return c == PlacementClass::kOnChipResident || c == PlacementClass::kOnChipStaged;
}

/// How UEs touch MPB slices for one on-chip (resident or staged) region —
/// the generator of the exact per-UE put/get owner sets.
enum class MpbPattern : std::uint8_t {
  kNone,           ///< no runtime MPB traffic (e.g. read-only config scalars
                   ///< broadcast at initialization, off-chip regions)
  kSelfStage,      ///< each UE stages through its OWN slice: put {ue}, get {ue}
  kRootFunnel,     ///< reduction through UE 0's slot: put {0}, get {0}
  kRotatingBroadcast,  ///< iteration-dependent owner publishes, everyone
                       ///< fetches (LU pivot rows): put {ue}, get {all}
  kNeighborRing,   ///< ring exchange: put {(ue+1) % n}, get {ue}
};

[[nodiscard]] const char* mpbPatternName(MpbPattern p);

/// Which memory controller serves an off-chip region's addresses — the
/// NUMA-placement half of the contract (docs/execution_plan.md, "Controller
/// placement"). Only meaningful for off-chip regions; the machine consults
/// it in the address→controller mapping of planned regions.
enum class ControllerPlacement : std::uint8_t {
  /// Requester-local: every access goes through the accessing core's own
  /// quadrant controller — the machine's legacy mapping, and the DEFAULT
  /// for unplanned regions and for plans that don't say otherwise, so
  /// pre-existing runs stay Tick-bit-identical.
  kOwnerCompute,
  /// Address-interleaved: stripe `i` of the region is served by controller
  /// `i % num_controllers` regardless of who asks. Balances capacity but
  /// concentrates hot addresses (a Zipf-hot key lives on ONE controller).
  kStriped,
  /// The whole region behind one explicit controller
  /// (RegionPlan::pinned_controller).
  kPinned,
  /// Each stripe is claimed by the controller of the first core to touch
  /// it; later accesses from anywhere follow the claim. Deterministic under
  /// the engine's (time, task_id) order.
  kFirstTouch,
};

[[nodiscard]] const char* controllerPlacementName(ControllerPlacement c);

/// Plan for one shared region (one translated variable).
struct RegionPlan {
  std::string name;  ///< source variable name (the workload's region key)
  PlacementClass placement = PlacementClass::kOffChipUncached;
  MpbPattern pattern = MpbPattern::kNone;
  std::size_t bytes = 0;
  /// Address→controller mapping of the region's off-chip accesses.
  ControllerPlacement controller = ControllerPlacement::kOwnerCompute;
  /// Serving controller when `controller == kPinned` (ignored otherwise).
  std::uint32_t pinned_controller = 0;
  /// The off-chip class an on-chip `placement` takes in a run without
  /// on-chip placement (Fig. 6.1). The default is the plain demotion; a
  /// read-only staged array keeps the swcache there (deriveExecutionPlan).
  PlacementClass offchip = PlacementClass::kOffChipUncached;

  [[nodiscard]] bool onChip() const { return isOnChip(placement); }
  /// The class a run realizes: `placement`, except that a run without
  /// on-chip memory (`onchip_memory` false) takes `offchip` for an on-chip
  /// `placement`.
  [[nodiscard]] PlacementClass realized(bool onchip_memory) const {
    return onchip_memory || !onChip() ? placement : offchip;
  }
  /// The region's shared-DRAM bytes route through the swcache in some run:
  /// with or without on-chip memory.
  [[nodiscard]] bool cachedInSomeRun() const {
    return realized(true) == PlacementClass::kOffChipCached ||
           realized(false) == PlacementClass::kOffChipCached;
  }
};

/// The complete translator→runtime contract for one program.
struct ExecutionPlan {
  std::vector<RegionPlan> regions;

  [[nodiscard]] const RegionPlan* find(std::string_view name) const;

  /// Exact MPB owner sets of one UE at a given UE count: the owner UEs whose
  /// slices it puts into / gets from, unioned over every region's pattern.
  /// Sorted, duplicate-free.
  struct OwnerSets {
    std::vector<int> put;
    std::vector<int> get;
  };
  [[nodiscard]] OwnerSets mpbOwners(int ue, int num_ues) const;
  /// put ∪ get — the reach promise `SccMachine::launch` turns into per-port
  /// engine reach sets. Sorted, duplicate-free.
  [[nodiscard]] std::vector<int> mpbScopeOwners(int ue, int num_ues) const;

  [[nodiscard]] bool anyMpbTraffic() const;

  /// Structured rendering of the whole contract: a JSON object with one
  /// entry per region (name, bytes, placement class, MPB pattern,
  /// controller placement, and the pinned controller and off-chip class
  /// where relevant) plus the materialized per-UE put/get owner sets at
  /// `num_ues` units. This is the machine-readable form tools print
  /// (partition_explorer, translate_and_run); `format()` is a thin log
  /// wrapper over it.
  [[nodiscard]] std::string toJson(int num_ues) const;

  /// Thin wrapper for logs: the toJson() rendering under a one-line header.
  [[nodiscard]] std::string format(int num_ues) const;
};

}  // namespace hsm::partition
