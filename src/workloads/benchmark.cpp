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
                  const partition::ExecutionPlan& realized) {
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
  using partition::PlacementClass;
  for (const partition::RegionPlan& r : realized.regions) {
    const PlacementClass cls = r.placement;
    const bool routed = r.controller != partition::ControllerPlacement::kOwnerCompute;
    const bool consequential =
        cls == PlacementClass::kOffChipCached ||
        (partition::isOnChip(cls) ? r.pattern != partition::MpbPattern::kNone : routed);
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

partition::ExecutionPlan realizedPlan(const partition::ExecutionPlan& plan, Mode mode) {
  // Fig. 6.1 (RcceOffChip) has no on-chip placement.
  return plan.realized(mode != Mode::RcceOffChip);
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
