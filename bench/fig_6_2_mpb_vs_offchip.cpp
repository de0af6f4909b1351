// Figure 6.2: run-time comparison of RCCE programs using off-chip shared
// memory against the on-chip shared memory provided by the MPB.
//
// Paper: ~8x mean improvement; Stream benefits the most (parallel MPB
// accesses, close core-to-MPB locality, bulk copies); LU improves only
// slightly because its matrix does not fit the MPB.
// Both columns run each program's handPlan(); the off-chip column demotes
// its on-chip regions to uncached words.
//
// Takes no arguments; exits non-zero if any row fails verification.
#include <cmath>
#include <cstdio>

#include "sim/scc_config.h"
#include "workloads/benchmark.h"

int main(int argc, char**) {
  using namespace hsm;
  if (argc > 1) {
    std::fprintf(stderr, "usage: fig_6_2_mpb_vs_offchip (takes no arguments)\n");
    return 2;
  }

  const sim::SccConfig config;
  constexpr int kUnits = 32;

  std::printf("Figure 6.2 — RCCE runtime: off-chip shared memory vs on-chip MPB "
              "(%d cores)\n", kUnits);
  std::printf("%-14s %16s %16s %12s %6s\n", "Benchmark", "off-chip [ms]",
              "MPB [ms]", "improvement", "ok");
  std::printf("%s\n", std::string(70, '-').c_str());

  double product = 1.0;
  int count = 0;
  bool all_verified = true;
  for (const auto& bench : workloads::standardSuite(1.0)) {
    const partition::ExecutionPlan plan = bench->handPlan();
    const workloads::RunResult off =
        bench->run(workloads::Mode::RcceOffChip, kUnits, config, &plan);
    const workloads::RunResult mpb =
        bench->run(workloads::Mode::RcceMpb, kUnits, config, &plan);
    const double improvement =
        static_cast<double>(off.makespan) / static_cast<double>(mpb.makespan);
    product *= improvement;
    ++count;
    const bool verified = off.verified && mpb.verified;
    all_verified = all_verified && verified;
    std::printf("%-14s %16.3f %16.3f %11.2fx %6s\n", bench->name().c_str(),
                sim::ticksToMilliseconds(off.makespan),
                sim::ticksToMilliseconds(mpb.makespan), improvement,
                verified ? "yes" : "NO");
  }
  const double geomean = count > 0 ? std::pow(product, 1.0 / count) : 0.0;
  std::printf("%s\n", std::string(70, '-').c_str());
  std::printf("geometric-mean improvement: %.2fx (paper reports ~8x mean; Stream "
              "largest, LU slight)\n", geomean);
  return all_verified ? 0 : 1;
}
