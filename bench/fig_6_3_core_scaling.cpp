// Figure 6.3: relative performance improvement over the single-core Pthread
// application of the multiprocessor RCCE program with varying core count.
//
// The paper shows Pi Approximation scaling near-linearly with core count on
// the SCC (compute-bound, on-die MPB communication only). Exits non-zero if
// the baseline or any row fails verification.
#include <cstdio>

#include "sim/scc_config.h"
#include "workloads/benchmark.h"

int main(int argc, char**) {
  using namespace hsm;
  if (argc > 1) {
    std::fprintf(stderr, "usage: fig_6_3_core_scaling (takes no arguments)\n");
    return 2;
  }

  const sim::SccConfig config;
  const auto pi = workloads::makePiApprox(1.0);
  const partition::ExecutionPlan plan = pi->handPlan();

  std::printf("Figure 6.3 — PiApprox speedup over 32-thread single-core Pthreads, "
              "varying RCCE core count\n");
  const workloads::RunResult base =
      pi->run(workloads::Mode::PthreadSingleCore, 32, config);
  std::printf("baseline (32 threads, 1 core): %.3f ms  verified=%s\n",
              sim::ticksToMilliseconds(base.makespan), base.verified ? "yes" : "NO");
  bool all_verified = base.verified;
  std::printf("%-8s %14s %10s %12s\n", "cores", "rcce [ms]", "speedup", "efficiency");
  std::printf("%s\n", std::string(48, '-').c_str());

  for (int cores : {1, 2, 4, 8, 16, 32, 48}) {
    const workloads::RunResult r = pi->run(workloads::Mode::RcceMpb, cores, config, &plan);
    const double speedup =
        static_cast<double>(base.makespan) / static_cast<double>(r.makespan);
    std::printf("%-8d %14.3f %9.1fx %11.1f%% %s\n", cores,
                sim::ticksToMilliseconds(r.makespan), speedup,
                100.0 * speedup / cores, r.verified ? "" : " UNVERIFIED");
    all_verified = all_verified && r.verified;
  }
  return all_verified ? 0 : 1;
}
