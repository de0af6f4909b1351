// Ablation: naive vs optimized translation of a reduction loop.
//
// The paper's Stage 5 maps every shared variable to shared memory but does
// not privatize loop-carried accumulators (Example 4.2 keeps `sum[tLocal]
// += ...` as a direct shared access in the loop). A literally-translated
// reduction therefore performs a shared-memory read-modify-write on every
// iteration; placing that accumulator in the MPB instead of off-chip DRAM
// then pays off on *every* iteration. This experiment quantifies that
// effect and explains how MPB placement can deliver the large average
// improvements the paper reports even on compute-style kernels, while the
// hand-optimized form (partial sum in a register, one shared access at the
// end) is placement-insensitive.
#include <cstdio>
#include <vector>

#include "rcce/rcce.h"
#include "sim/machine.h"

namespace {

using namespace hsm;

constexpr std::size_t kIterations = 1 << 14;  // per core

enum class AccumulatorHome { Register, OffChip, Mpb };

sim::SimTask reduction(sim::CoreContext& ctx, AccumulatorHome home,
                       rcce::ShmArray<double> shm_acc, rcce::MpbArray<double> mpb_acc) {
  const int me = ctx.ue();
  double local = 0.0;
  for (std::size_t i = 0; i < kIterations; ++i) {
    // The iteration's compute: one fp divide plus a few adds/muls.
    co_await ctx.computeOps(1, sim::OpClass::FpDiv);
    co_await ctx.computeOps(2, sim::OpClass::FpAdd);
    const double contribution = 1.0 / static_cast<double>(i + 1);
    switch (home) {
      case AccumulatorHome::Register:
        local += contribution;
        break;
      case AccumulatorHome::OffChip: {
        double acc = 0.0;
        co_await shm_acc.read(ctx, static_cast<std::size_t>(me), &acc);
        acc += contribution;
        co_await shm_acc.write(ctx, static_cast<std::size_t>(me), acc);
        break;
      }
      case AccumulatorHome::Mpb: {
        double acc = 0.0;
        co_await mpb_acc.read(ctx, me, 0, &acc);
        acc += contribution;
        co_await mpb_acc.write(ctx, me, 0, acc);
        break;
      }
    }
  }
  if (home == AccumulatorHome::Register) {
    co_await shm_acc.write(ctx, static_cast<std::size_t>(me), local);
  }
  co_await ctx.barrier();
}

sim::Tick runOnce(int cores, AccumulatorHome home) {
  sim::SccMachine machine;
  rcce::RcceEnv env(machine);
  rcce::ShmArray<double> shm_acc(env, static_cast<std::size_t>(cores));
  rcce::MpbArray<double> mpb_acc(env, cores, 1);
  machine.launch(sim::LaunchSpec(cores, [&](sim::CoreContext& ctx) {
    return reduction(ctx, home, shm_acc, mpb_acc);
  }));
  return machine.run();
}

}  // namespace

int main(int argc, char**) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: ablation_naive_translation (takes no arguments)\n");
    return 2;
  }
  constexpr int kCores = 32;
  std::printf("Ablation — where the translated loop accumulator lives "
              "(%d cores, %zu iterations each)\n\n", kCores, kIterations);

  const sim::Tick reg = runOnce(kCores, AccumulatorHome::Register);
  const sim::Tick off = runOnce(kCores, AccumulatorHome::OffChip);
  const sim::Tick mpb = runOnce(kCores, AccumulatorHome::Mpb);

  std::printf("%-42s %12.3f ms\n", "optimized (register partial, 1 shared write):",
              sim::ticksToMilliseconds(reg));
  std::printf("%-42s %12.3f ms\n", "naive translation, accumulator off-chip:",
              sim::ticksToMilliseconds(off));
  std::printf("%-42s %12.3f ms\n", "naive translation, accumulator in MPB:",
              sim::ticksToMilliseconds(mpb));
  std::printf("\nMPB improvement for the naive translation: %.2fx\n",
              static_cast<double>(off) / static_cast<double>(mpb));
  std::printf("cost of not privatizing (off-chip vs optimized): %.2fx\n",
              static_cast<double>(off) / static_cast<double>(reg));
  std::printf("\nReading: the paper's translator keeps in-loop shared accesses "
              "(Example 4.2);\nfor such code, MPB placement pays on every "
              "iteration — the mechanism behind\nlarge average Fig. 6.2 gains. "
              "Hand-privatized kernels are placement-insensitive.\n");
  return 0;
}
