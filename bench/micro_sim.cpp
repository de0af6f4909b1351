// Host-time microbenchmarks of the simulator substrate. Prints one JSON
// object on stdout: a "bench" block naming the host's core count, the
// compiler and the build type, then one entry per scenario.
//
// The timed scenarios are the rows of bench/scenarios.h's kTimedScenarios.
// Each entry holds one run record, "coalesced": host wall seconds (best of 3
// trials of the scenario's repetitions), engine events, the simulated
// logical shared-memory words and MPB chunks, and each of those per host
// second. obs_trace_8ue times barrier_32ue untraced and traced; its one
// check, trace_overhead_ok, caps the traced/untraced wall ratio at 4x, and
// the process exits 1 iff that check is false.
//
// Simulated outputs (makespans, hashes, event counts and every check of a
// simulated property) are not measured here: bench/sim_golden pins them in
// tests/golden/sim.txt. scripts/compare_bench.py --ab judges these host
// times against the parent commit's binary on the same machine.
//
//   micro_sim [--list-scenarios] [--scenario NAME] [--trace-out FILE]
//
// --scenario runs one scenario; --trace-out writes the Chrome trace-event
// JSON of obs_trace_8ue's traced synced-words run when that scenario runs.
// An unknown flag or scenario, or a flag missing its value, exits 2 with the
// usage.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "scenarios.h"

namespace {

using namespace hsm::bench;

/// Best-of-3 trials of the workload's repetitions: the simulation is
/// deterministic, only host wall time varies, so the minimum wall is the
/// peak-throughput measurement, far more stable across runs than one timing.
RunStats timeWorkload(const Workload& w, const Mode& mode) {
  RunStats best = runWorkload(w, mode, w.repetitions);
  for (int trial = 1; trial < 3; ++trial) {
    RunStats next = runWorkload(w, mode, w.repetitions);
    if (next.wall_seconds < best.wall_seconds) best = std::move(next);
  }
  return best;
}

/// What one scenario produced: run records under their names, values (key
/// → JSON literal) beside them, then the checks map.
struct Outcome {
  std::vector<std::pair<std::string, RunStats>> runs;
  std::vector<std::pair<std::string, std::string>> values;
  std::vector<std::pair<std::string, bool>> checks;
  std::string trace;  ///< Chrome trace JSON, for --trace-out (obs_trace_8ue)
};

constexpr double kTraceOverheadCap = 4.0;

/// The recorder's wall cost on barrier_32ue (traced / untraced), and the
/// trace artifact of the traced synced-words run.
Outcome obsTraceTiming() {
  const RunStats plain = timeWorkload(barrier32(), Mode{});
  const RunStats traced = timeWorkload(barrier32(), Mode{.trace = true});
  const double overhead =
      plain.wall_seconds > 0 ? traced.wall_seconds / plain.wall_seconds : 0.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", overhead);
  Outcome o;
  o.runs = {{"untraced", plain}, {"traced", traced}};
  o.values = {{"trace_overhead_barrier_32ue", buf}};
  o.checks = {{"trace_overhead_ok", overhead <= kTraceOverheadCap}};
  o.trace = runSyncedWords(/*traced=*/true, /*coalescing=*/true).json;
  return o;
}

struct Scenario {
  std::string name;
  std::function<Outcome()> run;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> all;
  for (const TimedScenario& t : kTimedScenarios) {
    all.push_back({t.name, [&t] {
                     Outcome o;
                     o.runs = {{"coalesced", timeWorkload(t.workload(), t.mode)}};
                     return o;
                   }});
  }
  all.push_back({"obs_trace_8ue", obsTraceTiming});
  return all;
}

void printRun(std::string* out, const std::string& key, const RunStats& s) {
  // "shm_words"/"shm_words_per_sec" cover the *logical* shared-word workload
  // (RunStats::logicalWords) so the throughput metric stays invariant to the
  // routing.
  const auto perSec = [&s](std::uint64_t n) {
    return s.wall_seconds > 0 ? static_cast<double>(n) / s.wall_seconds : 0.0;
  };
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "      \"%s\": {\"wall_seconds\": %.6f, \"events\": %llu, "
                "\"events_per_sec\": %.0f, \"shm_words\": %llu, "
                "\"shm_words_per_sec\": %.0f, \"mpb_chunks\": %llu, "
                "\"mpb_chunks_per_sec\": %.0f},\n",
                key.c_str(), s.wall_seconds, static_cast<unsigned long long>(s.events),
                perSec(s.events), static_cast<unsigned long long>(s.logicalWords()),
                perSec(s.logicalWords()), static_cast<unsigned long long>(s.mpb_chunks),
                perSec(s.mpb_chunks));
  *out += buf;
}

std::string scenarioJson(const std::string& name, const Outcome& o) {
  std::string json = "    {\"name\": \"" + name + "\",\n";
  for (const auto& [mode, stats] : o.runs) printRun(&json, mode, stats);
  for (const auto& [key, value] : o.values) {
    json += "      \"" + key + "\": " + value + ",\n";
  }
  json += "      \"checks\": {";
  for (std::size_t i = 0; i < o.checks.size(); ++i) {
    json += (i > 0 ? ", \"" : "\"") + o.checks[i].first +
            (o.checks[i].second ? "\": true" : "\": false");
  }
  return json + "}}";
}

/// Host, compiler and build type: a host-time number means nothing without
/// them.
std::string benchJson() {
  return "{\"name\": \"micro_sim\", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" HSM_BENCH_COMPILER "\", \"build_type\": \"" HSM_BENCH_BUILD_TYPE
         "\"}";
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Scenario> all = scenarios();
  const auto usage = [&all](const std::string& problem) {
    std::fprintf(stderr,
                 "micro_sim: %s\nusage: micro_sim [--list-scenarios] "
                 "[--scenario NAME] [--trace-out FILE]\nscenarios:\n",
                 problem.c_str());
    for (const Scenario& s : all) std::fprintf(stderr, "  %s\n", s.name.c_str());
    return 2;
  };
  std::string only;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-scenarios") {
      for (const Scenario& s : all) std::puts(s.name.c_str());
      return 0;
    }
    if (arg != "--scenario" && arg != "--trace-out") {
      return usage("unknown argument '" + arg + "'");
    }
    if (i + 1 == argc) return usage(arg + " needs a value");
    (arg == "--scenario" ? only : trace_out) = argv[++i];
    if (arg == "--scenario" && std::none_of(all.begin(), all.end(), [&only](const Scenario& s) {
          return only == s.name;
        })) {
      return usage("unknown scenario '" + only + "'");
    }
  }

  bool all_ok = true;
  std::string json = "{\n  \"bench\": " + benchJson() + ",\n  \"scenarios\": [\n";
  bool first = true;
  for (const Scenario& s : all) {
    if (!only.empty() && only != s.name) continue;
    const Outcome o = s.run();
    for (const auto& [check, ok] : o.checks) all_ok = all_ok && ok;
    if (!trace_out.empty() && !o.trace.empty()) std::ofstream(trace_out) << o.trace;
    json += (first ? "" : ",\n") + scenarioJson(s.name, o);
    first = false;
  }
  json += "\n  ]\n}\n";
  std::fputs(json.c_str(), stdout);
  return all_ok ? 0 : 1;
}
