// Ablation: the paper's Algorithm 3 (size-ascending greedy) vs an
// access-frequency-aware partitioner (§4.4's "further granularity provided
// by frequency of access") under a sweep of on-chip capacities.
//
// Figure of merit: the fraction of loop-weighted shared accesses landing
// on-chip — higher means more traffic at MPB speeds.
#include <cstdio>
#include <random>

#include "analysis/variable_info.h"
#include "partition/memory_plan.h"
#include "translator/translator.h"
#include "workloads/benchmark.h"

namespace {

/// A deterministic synthetic population that is adversarial for a purely
/// size-based policy: many *small but cold* scalars (size-ascending grabs
/// these first), several *larger but hot* arrays (where the accesses
/// actually are), and a few huge cold arrays that fit nowhere.
std::vector<hsm::analysis::VariableInfo> syntheticPopulation(unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<hsm::analysis::VariableInfo> vars;
  auto add = [&](std::size_t bytes, double accesses) {
    hsm::analysis::VariableInfo v;
    v.name = "v";
    v.name += std::to_string(vars.size());
    v.byte_size = bytes;
    v.weighted_reads = accesses / 2;
    v.weighted_writes = accesses / 2;
    vars.push_back(v);
  };
  std::uniform_int_distribution<int> cold(1, 50);
  std::uniform_int_distribution<int> hot(100000, 500000);
  for (int i = 0; i < 40; ++i) add(48, cold(rng));          // small, cold
  for (int i = 0; i < 8; ++i) add(1500, hot(rng));          // larger, hot
  for (int i = 0; i < 4; ++i) add(32 * 1024, cold(rng));    // huge, cold
  return vars;
}

}  // namespace

int main(int argc, char**) {
  using namespace hsm;
  if (argc > 1) {
    std::fprintf(stderr, "usage: ablation_partitioning (takes no arguments)\n");
    return 2;
  }
  std::printf("Ablation — Stage 4 partitioning policy (on-chip access fraction)\n");
  std::printf("%-14s %22s %22s\n", "MPB capacity", "size-ascending (Alg 3)",
              "frequency-aware");
  std::printf("%s\n", std::string(60, '-').c_str());

  const auto population = syntheticPopulation(7);
  std::vector<const analysis::VariableInfo*> shared;
  for (const auto& v : population) shared.push_back(&v);

  for (std::size_t kb : {1, 2, 4, 8, 16, 32, 64}) {
    partition::HsmMemorySpec spec;
    spec.onchip_capacity_bytes = kb * 1024;
    const auto size_plan = partition::SizeAscendingPlanner{}.plan(shared, spec);
    const auto freq_plan = partition::FrequencyAwarePlanner{}.plan(shared, spec);
    std::printf("%9zu KB %21.3f %22.3f\n", kb, size_plan.onchipAccessFraction(),
                freq_plan.onchipAccessFraction());
  }

  // The same comparison on a real program: the paper's benchmarks.
  std::printf("\nPer-benchmark plans at the SCC's 8 KB per-core MPB:\n");
  for (const std::string& name : workloads::pthreadSourceNames()) {
    translator::Translator plain;
    translator::TranslatorOptions freq_options;
    freq_options.frequency_aware_partitioning = true;
    translator::Translator freq(freq_options);
    const auto plain_result = plain.analyzeOnly(workloads::pthreadSource(name), name);
    const auto freq_result = freq.analyzeOnly(workloads::pthreadSource(name), name);
    if (!plain_result.ok || !freq_result.ok) {
      std::fprintf(stderr, "%s: analysis failed:\n%s%s\n", name.c_str(),
                   plain_result.diagnostics.c_str(), freq_result.diagnostics.c_str());
      return 1;
    }
    std::printf("  %-12s alg3-onchip-fraction=%.3f freq-aware=%.3f\n", name.c_str(),
                plain_result.plan.onchipAccessFraction(),
                freq_result.plan.onchipAccessFraction());
  }
  return 0;
}
