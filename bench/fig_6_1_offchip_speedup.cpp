// Figure 6.1: performance of RCCE applications utilizing off-chip shared
// memory and 32 cores, normalized to the performance of the 32-thread
// Pthread programs running on a single core.
//
// Paper-reported speedups: Pi Approximation 32x, 3-5-Sum 29x,
// CountPrimes 16x, Stream 17x; Dot Product and LU Decomposition are
// reported qualitatively as limited by >=8 cores per memory controller.
//
// Takes no arguments; exits non-zero if any row fails verification.
#include <cstdio>

#include "sim/scc_config.h"
#include "workloads/benchmark.h"

int main(int argc, char**) {
  using namespace hsm;
  if (argc > 1) {
    std::fprintf(stderr, "usage: fig_6_1_offchip_speedup (takes no arguments)\n");
    return 2;
  }

  const sim::SccConfig config;
  constexpr int kUnits = 32;

  std::printf("Figure 6.1 — RCCE (off-chip, %d cores) speedup over Pthreads "
              "(%d threads, 1 core)\n",
              kUnits, kUnits);
  std::printf("%-14s %16s %16s %10s %10s %6s\n", "Benchmark", "pthread [ms]",
              "rcce-off [ms]", "speedup", "paper", "ok");
  std::printf("%s\n", std::string(78, '-').c_str());

  const char* paper_ref[] = {"32x", "29x", "16x", "17x", "n/a", "n/a"};

  int i = 0;
  bool all_verified = true;
  for (const auto& bench : workloads::standardSuite(1.0)) {
    const workloads::RunResult base =
        bench->run(workloads::Mode::PthreadSingleCore, kUnits, config);
    const workloads::RunResult rcce =
        bench->run(workloads::Mode::RcceOffChip, kUnits, config);
    const double speedup =
        static_cast<double>(base.makespan) / static_cast<double>(rcce.makespan);
    const bool verified = base.verified && rcce.verified;
    all_verified = all_verified && verified;
    std::printf("%-14s %16.3f %16.3f %9.1fx %10s %6s\n", bench->name().c_str(),
                sim::ticksToMilliseconds(base.makespan),
                sim::ticksToMilliseconds(rcce.makespan), speedup, paper_ref[i],
                verified ? "yes" : "NO");
    ++i;
  }
  return all_verified ? 0 : 1;
}
