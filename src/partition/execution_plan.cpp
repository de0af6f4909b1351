#include "partition/execution_plan.h"

#include <algorithm>
#include <sstream>

namespace hsm::partition {
namespace {

void appendOwners(std::vector<int>* out, MpbPattern pattern, bool put, int ue,
                  int num_ues) {
  switch (pattern) {
    case MpbPattern::kNone:
      break;
    case MpbPattern::kSelfStage:
      out->push_back(ue);
      break;
    case MpbPattern::kRootFunnel:
      out->push_back(0);
      break;
    case MpbPattern::kRotatingBroadcast:
      if (put) {
        out->push_back(ue);  // each UE publishes from its own slice in turn
      } else {
        for (int u = 0; u < num_ues; ++u) out->push_back(u);
      }
      break;
    case MpbPattern::kNeighborRing:
      out->push_back(put ? (ue + 1) % num_ues : ue);
      break;
  }
}

void sortUnique(std::vector<int>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

std::string jsonIntList(const std::vector<int>& values) {
  std::string s = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(values[i]);
  }
  return s + "]";
}

}  // namespace

const char* placementName(PlacementClass c) {
  switch (c) {
    case PlacementClass::kOnChipResident: return "on-chip-resident";
    case PlacementClass::kOnChipStaged: return "on-chip-staged";
    case PlacementClass::kOffChipUncached: return "off-chip-uncached";
    case PlacementClass::kOffChipCached: return "off-chip-cached";
  }
  return "?";
}

const char* mpbPatternName(MpbPattern p) {
  switch (p) {
    case MpbPattern::kNone: return "none";
    case MpbPattern::kSelfStage: return "self-stage";
    case MpbPattern::kRootFunnel: return "root-funnel";
    case MpbPattern::kRotatingBroadcast: return "rotating-broadcast";
    case MpbPattern::kNeighborRing: return "neighbor-ring";
  }
  return "?";
}

const char* controllerPlacementName(ControllerPlacement c) {
  switch (c) {
    case ControllerPlacement::kOwnerCompute: return "owner-compute";
    case ControllerPlacement::kStriped: return "striped";
    case ControllerPlacement::kPinned: return "pinned";
    case ControllerPlacement::kFirstTouch: return "first-touch";
  }
  return "?";
}

const RegionPlan* ExecutionPlan::find(std::string_view name) const {
  for (const RegionPlan& r : regions) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

ExecutionPlan::OwnerSets ExecutionPlan::mpbOwners(int ue, int num_ues) const {
  OwnerSets sets;
  for (const RegionPlan& r : regions) {
    if (!r.onChip()) continue;
    appendOwners(&sets.put, r.pattern, /*put=*/true, ue, num_ues);
    appendOwners(&sets.get, r.pattern, /*put=*/false, ue, num_ues);
  }
  sortUnique(&sets.put);
  sortUnique(&sets.get);
  return sets;
}

std::vector<int> ExecutionPlan::mpbScopeOwners(int ue, int num_ues) const {
  OwnerSets sets = mpbOwners(ue, num_ues);
  sets.put.insert(sets.put.end(), sets.get.begin(), sets.get.end());
  sortUnique(&sets.put);
  return std::move(sets.put);
}

ExecutionPlan ExecutionPlan::realized(bool onchip_memory) const {
  ExecutionPlan plan = *this;
  for (RegionPlan& r : plan.regions) r.placement = r.realized(onchip_memory);
  return plan;
}

std::string ExecutionPlan::toJson(int num_ues) const {
  std::ostringstream os;
  os << "{\n  \"regions\": [";
  bool first = true;
  for (const RegionPlan& r : regions) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"name\": \"" << r.name << "\", \"bytes\": " << r.bytes
       << ", \"placement\": \"" << placementName(r.placement)
       << "\", \"mpb_pattern\": \"" << mpbPatternName(r.pattern)
       << "\", \"controller_placement\": \"" << controllerPlacementName(r.controller)
       << "\"";
    if (r.controller == ControllerPlacement::kPinned) {
      os << ", \"pinned_controller\": " << r.pinned_controller;
    }
    if (r.offchip != PlacementClass::kOffChipUncached) {
      os << ", \"offchip_placement\": \"" << placementName(r.offchip) << "\"";
    }
    os << "}";
  }
  os << "\n  ],\n  \"num_ues\": " << num_ues << ",\n  \"mpb_owner_sets\": [";
  for (int ue = 0; ue < num_ues; ++ue) {
    const OwnerSets sets = mpbOwners(ue, num_ues);
    os << (ue == 0 ? "\n" : ",\n");
    os << "    {\"ue\": " << ue << ", \"put\": " << jsonIntList(sets.put)
       << ", \"get\": " << jsonIntList(sets.get) << "}";
  }
  os << "\n  ]\n}";
  return os.str();
}

std::string ExecutionPlan::format(int num_ues) const {
  return "ExecutionPlan " + toJson(num_ues) + "\n";
}

}  // namespace hsm::partition
