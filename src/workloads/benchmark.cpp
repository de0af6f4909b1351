#include "workloads/benchmark.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace hsm::workloads {

const char* modeName(Mode mode) {
  switch (mode) {
    case Mode::PthreadSingleCore: return "pthread-1core";
    case Mode::RcceOffChip: return "rcce-offchip";
    case Mode::RcceMpb: return "rcce-mpb";
  }
  return "?";
}

void runAndRecord(RunResult& result, sim::SccMachine& machine,
                  const partition::ExecutionPlan& plan) {
  result.makespan = machine.run();
  result.metrics = sim::obs::collectMetrics(machine);
  const auto counter = [&result](const char* name) -> std::uint64_t {
    const auto it = result.metrics.sim_counters.find(name);
    return it != result.metrics.sim_counters.end() ? it->second : 0;
  };
  result.mpb_scope_violations = counter("mpb_scope_violations");
  result.faults_unrecovered = counter("faults_unrecovered");
  result.drf_races = counter("drf_races");
  result.controller_traffic = machine.controllerTraffic();
  const auto cv = result.metrics.sim_gauges.find("controller_load_cv");
  result.controller_load_cv = cv != result.metrics.sim_gauges.end() ? cv->second : 0.0;
  for (const partition::RegionPlan& r : plan.regions) {
    const bool consequential =
        r.cached() || (r.onChip() && r.pattern != partition::MpbPattern::kNone) ||
        (!r.onChip() && r.controller != partition::ControllerPlacement::kOwnerCompute);
    if (consequential && !machine.shmRegionNamed(r.name)) ++result.plan_regions_unrealized;
  }
}

void deriveDetail(RunResult& result, const std::string& value) {
  const std::string summary = result.metrics.summary();
  if (summary.empty()) {
    result.detail = value;
  } else if (value.empty()) {
    result.detail = summary;
  } else {
    result.detail = value + " | " + summary;
  }
}

RunResult Benchmark::run(Mode mode, int units, const sim::SccConfig& config,
                         const partition::ExecutionPlan* plan) const {
  if (units < 1) {
    throw std::invalid_argument(name() + ": units must be at least 1, got " +
                                std::to_string(units));
  }
  if (plan == nullptr && mode != Mode::PthreadSingleCore) {
    throw std::invalid_argument(name() + ": " + modeName(mode) +
                                " needs an ExecutionPlan (handPlan() or a derived one)");
  }
  static const partition::ExecutionPlan kNoPlan;
  RunResult result = execute(mode, units, config, plan != nullptr ? *plan : kNoPlan);
  result.benchmark = name();
  result.mode = mode;
  result.units = units;
  return result;
}

partition::PlacementClass resolvePlacement(const partition::ExecutionPlan& plan,
                                           const char* name, Mode mode) {
  using partition::PlacementClass;
  const partition::RegionPlan* r = plan.find(name);
  const PlacementClass cls = r != nullptr ? r->placement : PlacementClass::kOffChipUncached;
  if (mode == Mode::RcceOffChip && partition::isOnChip(cls)) {
    return PlacementClass::kOffChipUncached;  // Fig. 6.1: no on-chip placement
  }
  return cls;
}

Slice blockSlice(std::size_t n, int units, int u) {
  const std::size_t per = n / static_cast<std::size_t>(units);
  const std::size_t extra = n % static_cast<std::size_t>(units);
  const auto uu = static_cast<std::size_t>(u);
  const std::size_t first = uu * per + (uu < extra ? uu : extra);
  const std::size_t count = per + (uu < extra ? 1 : 0);
  return Slice{first, first + count};
}

std::vector<std::unique_ptr<Benchmark>> standardSuite(double scale) {
  std::vector<std::unique_ptr<Benchmark>> suite;
  suite.push_back(makePiApprox(scale));
  suite.push_back(makeSum35(scale));
  suite.push_back(makeCountPrimes(scale));
  suite.push_back(makeStream(scale));
  suite.push_back(makeDotProduct(scale));
  suite.push_back(makeLuDecomposition(scale));
  return suite;
}

}  // namespace hsm::workloads
