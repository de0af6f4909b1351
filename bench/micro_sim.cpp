// The trace recorder's host-time cost. Prints one JSON object on stdout with
// one scenario, obs_trace_8ue: barrier_32ue timed untraced and traced (host
// wall seconds of kRepetitions runs, best of 3 trials) and their ratio. Its
// one check, trace_overhead_ok, caps that ratio at 4x, and the process exits
// 1 iff that check is false.
//
// Simulated outputs (makespans, hashes, event counts and every check of a
// simulated property) are not measured here: bench/sim_golden pins them in
// tests/golden/sim.txt.
//
//   micro_sim [--list-scenarios] [--scenario NAME] [--trace-out FILE]
//
// --scenario names the scenario to run; --trace-out writes the Chrome
// trace-event JSON of obs_trace_8ue's traced synced-words run. An unknown
// flag or scenario, or a flag missing its value, exits 2 with the usage.
#include <cstdio>
#include <fstream>
#include <string>

#include "scenarios.h"

namespace {

using namespace hsm::bench;

constexpr const char* kScenario = "obs_trace_8ue";
constexpr int kRepetitions = 150;
constexpr double kTraceOverheadCap = 4.0;

/// Host wall seconds of kRepetitions barrier_32ue runs under `mode`, best of
/// 3 trials: the simulation is deterministic, only host time varies, so the
/// minimum is far more stable across runs than one timing.
double barrierWallSeconds(const Mode& mode) {
  double best = 0;
  for (int trial = 0; trial < 3; ++trial) {
    double wall = 0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      wall += runWorkload(barrier32(), mode).wall_seconds;
    }
    if (trial == 0 || wall < best) best = wall;
  }
  return best;
}

int usage(const std::string& problem) {
  std::fprintf(stderr,
               "micro_sim: %s\nusage: micro_sim [--list-scenarios] "
               "[--scenario NAME] [--trace-out FILE]\nscenarios:\n  %s\n",
               problem.c_str(), kScenario);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-scenarios") {
      std::puts(kScenario);
      return 0;
    }
    if (arg != "--scenario" && arg != "--trace-out") {
      return usage("unknown argument '" + arg + "'");
    }
    if (i + 1 == argc) return usage(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--trace-out") {
      trace_out = value;
    } else if (value != kScenario) {
      return usage("unknown scenario '" + value + "'");
    }
  }

  const double plain = barrierWallSeconds(Mode{});
  const double traced = barrierWallSeconds(Mode{.trace = true});
  const double overhead = plain > 0 ? traced / plain : 0.0;
  const bool ok = overhead <= kTraceOverheadCap;
  if (!trace_out.empty()) {
    std::ofstream(trace_out) << runSyncedWords(/*traced=*/true, /*coalescing=*/true).json;
  }
  std::printf("{\n  \"scenarios\": [\n"
              "    {\"name\": \"%s\",\n"
              "      \"untraced_wall_seconds\": %.6f,\n"
              "      \"traced_wall_seconds\": %.6f,\n"
              "      \"trace_overhead_barrier_32ue\": %.2f,\n"
              "      \"checks\": {\"trace_overhead_ok\": %s}}\n  ]\n}\n",
              kScenario, plain, traced, overhead, ok ? "true" : "false");
  return ok ? 0 : 1;
}
