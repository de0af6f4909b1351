#include "partition/memory_plan.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace hsm::partition {
namespace {

/// Greedy fill in the given candidate order; returns the plan.
MemoryPlan greedyFill(std::vector<const analysis::VariableInfo*> order,
                      const HsmMemorySpec& spec, bool everything_fits) {
  MemoryPlan plan;
  plan.everything_fits_onchip = everything_fits;
  std::size_t remaining = spec.onchip_capacity_bytes;
  for (const analysis::VariableInfo* v : order) {
    PlacementDecision d;
    d.variable = v;
    d.bytes = v->byte_size;
    d.weighted_accesses = v->totalWeightedAccesses();
    if (d.bytes <= remaining) {
      d.placement = Placement::OnChip;
      d.cls = PlacementClass::kOnChipResident;
      d.offset = plan.onchip_used;
      plan.onchip_used += d.bytes;
      remaining -= d.bytes;
    } else {
      d.placement = Placement::OffChip;
      d.cls = PlacementClass::kOffChipUncached;
      d.offset = plan.offchip_used;
      plan.offchip_used += d.bytes;
    }
    plan.decisions.push_back(d);
  }
  return plan;
}

std::size_t totalBytes(const std::vector<const analysis::VariableInfo*>& shared) {
  std::size_t total = 0;
  for (const analysis::VariableInfo* v : shared) total += v->byte_size;
  return total;
}

}  // namespace

double MemoryPlan::onchipAccessFraction() const {
  double total = 0;
  double onchip = 0;
  for (const PlacementDecision& d : decisions) {
    total += d.weighted_accesses;
    if (d.placement == Placement::OnChip) onchip += d.weighted_accesses;
  }
  return total > 0 ? onchip / total : 0.0;
}

std::string MemoryPlan::format() const {
  std::ostringstream os;
  os << std::left << std::setw(14) << "Variable" << std::setw(10) << "Bytes"
     << std::setw(10) << "Accesses" << std::setw(10) << "Where" << std::setw(19)
     << "Class" << '\n';
  os << std::string(63, '-') << '\n';
  for (const PlacementDecision& d : decisions) {
    os << std::left << std::setw(14)
       << (d.variable != nullptr ? d.variable->name : "?") << std::setw(10) << d.bytes
       << std::setw(10) << static_cast<long long>(d.weighted_accesses) << std::setw(10)
       << placementName(d.placement) << std::setw(19) << placementName(d.cls) << '\n';
  }
  os << "on-chip used: " << onchip_used << " B, off-chip used: " << offchip_used
     << " B, on-chip access fraction: " << std::fixed << std::setprecision(3)
     << onchipAccessFraction() << '\n';
  return os.str();
}

MemoryPlan SizeAscendingPlanner::plan(
    const std::vector<const analysis::VariableInfo*>& shared,
    const HsmMemorySpec& spec) const {
  const bool fits = totalBytes(shared) <= spec.onchip_capacity_bytes;
  std::vector<const analysis::VariableInfo*> order = shared;
  if (!fits) {
    // Algorithm 3 line 14: sort by size, ascending. Ties broken by
    // declaration order for determinism.
    std::stable_sort(order.begin(), order.end(),
                     [](const analysis::VariableInfo* a, const analysis::VariableInfo* b) {
                       return a->byte_size < b->byte_size;
                     });
  }
  return greedyFill(std::move(order), spec, fits);
}

namespace {

/// Pthread bookkeeping types (mutexes, barriers, thread handles) are lowered
/// to RCCE sync primitives by stage 5; they are not memory regions.
bool isPthreadType(const ast::Type* type) {
  while (type != nullptr && (type->isArray() || type->isPointer())) {
    type = type->element();
  }
  return type != nullptr && type->isNamed() && type->name().rfind("pthread_", 0) == 0;
}

bool isPthreadBarrierType(const ast::Type* type) {
  while (type != nullptr && (type->isArray() || type->isPointer())) {
    type = type->element();
  }
  return type != nullptr && type->isNamed() && type->name() == "pthread_barrier_t";
}

bool anyInThreadFunction(const std::set<std::string>& fns,
                         const std::set<std::string>& thread_fns) {
  for (const std::string& f : fns) {
    if (thread_fns.count(f) > 0) return true;
  }
  return false;
}

}  // namespace

ExecutionPlan deriveExecutionPlan(const analysis::AnalysisResult& analysis,
                                  MemoryPlan& plan) {
  std::set<std::string> thread_fns;
  for (const ast::FunctionDecl* fn : analysis.thread_functions) {
    if (fn != nullptr) thread_fns.insert(fn->name());
  }
  // A barrier inside the parallel phase signals cross-thread reuse of
  // thread-written data between phases (LU's pivot rows): spilled arrays
  // then stage via rotating broadcast rather than disjoint self-slices.
  bool program_has_barrier = false;
  for (const auto& [id, info] : analysis.variables) {
    if (isPthreadBarrierType(info.type)) {
      program_has_barrier = true;
      break;
    }
  }

  ExecutionPlan out;
  for (PlacementDecision& d : plan.decisions) {
    if (d.variable == nullptr) continue;
    const analysis::VariableInfo& v = *d.variable;
    if (isPthreadType(v.type)) continue;  // lowered to sync primitives
    const bool thread_written = anyInThreadFunction(v.def_in, thread_fns);
    const bool thread_read = anyInThreadFunction(v.use_in, thread_fns);
    const bool main_read = v.use_in.count("main") > 0;

    RegionPlan r;
    r.name = v.name;
    r.bytes = d.bytes;
    if (d.placement == Placement::OnChip) {
      r.placement = PlacementClass::kOnChipResident;
      if (thread_written) {
        // Thread-written on-chip data that anyone reads back (a gathered
        // per-thread slot array, a locked accumulator) funnels through UE
        // 0's slot; write-only output can stay in the writer's own slice.
        r.pattern = (main_read || thread_read) ? MpbPattern::kRootFunnel
                                               : MpbPattern::kSelfStage;
      }
    } else if (thread_read) {
      // Spilled arrays the threads read stage through the MPB. A read-only
      // one self-stages even in a program with barriers: it produces
      // nothing another UE must fetch from a peer's slice. Without on-chip
      // placement it is read-mostly data, so it keeps the swcache there.
      r.placement = PlacementClass::kOnChipStaged;
      r.pattern = thread_written && program_has_barrier ? MpbPattern::kRotatingBroadcast
                                                        : MpbPattern::kSelfStage;
      if (!thread_written) r.offchip = PlacementClass::kOffChipCached;
    } else {
      r.placement = PlacementClass::kOffChipUncached;
      // Thread-written off-chip data is owner-partitioned in this
      // translator's model (each writer updates its own slice), so the
      // requester-local owner-compute mapping keeps every UE's traffic on
      // its own quadrant controller. Explicit, though it matches the
      // default, so the derivation is visible in the emitted plan JSON.
      if (thread_written) r.controller = ControllerPlacement::kOwnerCompute;
    }
    d.cls = r.placement;
    out.regions.push_back(std::move(r));
  }
  return out;
}

MemoryPlan FrequencyAwarePlanner::plan(
    const std::vector<const analysis::VariableInfo*>& shared,
    const HsmMemorySpec& spec) const {
  const bool fits = totalBytes(shared) <= spec.onchip_capacity_bytes;
  std::vector<const analysis::VariableInfo*> order = shared;
  if (!fits) {
    std::stable_sort(order.begin(), order.end(),
                     [](const analysis::VariableInfo* a, const analysis::VariableInfo* b) {
                       const double density_a =
                           a->byte_size > 0 ? a->totalWeightedAccesses() / a->byte_size : 0;
                       const double density_b =
                           b->byte_size > 0 ? b->totalWeightedAccesses() / b->byte_size : 0;
                       return density_a > density_b;
                     });
  }
  return greedyFill(std::move(order), spec, fits);
}

}  // namespace hsm::partition
