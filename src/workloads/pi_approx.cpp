// Pi Approximation (paper Algorithm 12): numeric integration of
// 4/(1+x^2) over [0,1). Compute-bound with one shared accumulator —
// the paper's best case (~32x on 32 cores, Fig. 6.1; near-linear core
// scaling, Fig. 6.3).
#include <cmath>
#include <cstring>

#include "rcce/rcce.h"
#include "sim/machine.h"
#include "threadrt/baseline.h"
#include "workloads/benchmark.h"

namespace hsm::workloads {
namespace {

constexpr std::size_t kChunk = 4096;
constexpr int kSumLock = 0;

struct PiParams {
  std::size_t steps = 1 << 20;
};

double partialSum(const PiParams& p, const Slice& s) {
  const double step = 1.0 / static_cast<double>(p.steps);
  double sum = 0.0;
  for (std::size_t i = s.first; i < s.last; ++i) {
    const double x = (static_cast<double>(i) + 0.5) * step;
    sum += 4.0 / (1.0 + x * x);
  }
  return sum;
}

sim::SimTask piThread(threadrt::ThreadContext& ctx, PiParams p,
                      std::uint64_t sum_addr) {
  const Slice s = blockSlice(p.steps, ctx.numThreads(), ctx.tid());
  double sum = 0.0;
  const double step = 1.0 / static_cast<double>(p.steps);
  for (std::size_t i = s.first; i < s.last; i += kChunk) {
    const std::size_t c = std::min(kChunk, s.last - i);
    sum += partialSum(p, Slice{i, i + c});
    co_await ctx.computeOps(c, sim::OpClass::FpDiv);
    co_await ctx.computeOps(3 * c, sim::OpClass::FpAdd);
    co_await ctx.computeOps(2 * c, sim::OpClass::FpMul);
  }
  // Accumulate into the shared sum under the process mutex.
  co_await ctx.lockAcquire(kSumLock);
  double global = 0.0;
  co_await ctx.memRead(sum_addr, &global, sizeof(double));
  global += sum * step;
  co_await ctx.memWrite(sum_addr, &global, sizeof(double));
  co_await ctx.lockRelease(kSumLock);
}

sim::SimTask piRcce(sim::CoreContext& ctx, PiParams p, rcce::ShmArray<double> acc,
                    rcce::MpbArray<double> mpb_acc, bool use_mpb) {
  const Slice s = blockSlice(p.steps, ctx.numUes(), ctx.ue());
  double sum = 0.0;
  const double step = 1.0 / static_cast<double>(p.steps);
  for (std::size_t i = s.first; i < s.last; i += kChunk) {
    const std::size_t c = std::min(kChunk, s.last - i);
    sum += partialSum(p, Slice{i, i + c});
    co_await ctx.computeOps(c, sim::OpClass::FpDiv);
    co_await ctx.computeOps(3 * c, sim::OpClass::FpAdd);
    co_await ctx.computeOps(2 * c, sim::OpClass::FpMul);
  }
  // The translated program accumulates into explicitly shared memory under
  // a test-and-set lock (the pthread mutex after MutexToLockPass).
  co_await ctx.lockAcquire(kSumLock);
  double global = 0.0;
  if (use_mpb) {
    co_await mpb_acc.read(ctx, 0, 0, &global);
    global += sum * step;
    co_await mpb_acc.write(ctx, 0, 0, global);
  } else {
    co_await acc.read(ctx, 0, &global);
    global += sum * step;
    co_await acc.write(ctx, 0, global);
  }
  co_await ctx.lockRelease(kSumLock);
  co_await ctx.barrier();
}

class PiApprox final : public Benchmark {
 public:
  explicit PiApprox(double scale) {
    params_.steps = static_cast<std::size_t>(static_cast<double>(params_.steps) * scale);
    if (params_.steps < 1024) params_.steps = 1024;
  }

  [[nodiscard]] std::string name() const override { return "PiApprox"; }

  // "gsum" is the source accumulator, on chip as the root-funnel slot in UE
  // 0's MPB slice.
  [[nodiscard]] partition::ExecutionPlan handPlan() const override {
    using namespace partition;
    return ExecutionPlan{
        {RegionPlan{"gsum", PlacementClass::kOnChipResident, MpbPattern::kRootFunnel, 8}}};
  }

 private:
  [[nodiscard]] RunResult execute(Mode mode, int units, const sim::SccConfig& config,
                                  const partition::ExecutionPlan& plan) const override {
    RunResult result;
    const PiParams p = params_;

    double computed = 0.0;
    if (mode == Mode::PthreadSingleCore) {
      threadrt::SingleCoreRuntime rt(config);
      const std::uint64_t sum_addr = 0;
      std::memset(rt.machine().privData(0, sum_addr), 0, sizeof(double));
      rt.launch(units, [&](threadrt::ThreadContext& ctx) {
        return piThread(ctx, p, sum_addr);
      });
      result.makespan = rt.run();
      std::memcpy(&computed, rt.machine().privData(0, sum_addr), sizeof(double));
    } else {
      sim::SccMachine machine(config);
      rcce::RcceEnv env(machine);
      const bool use_mpb = partition::isOnChip(resolvePlacement(plan, "gsum", mode));
      rcce::ShmArray<double> acc = makeShmArray<double>(env, 1, plan, "gsum", mode);
      rcce::MpbArray<double> mpb_acc(env, units, 1);
      *acc.hostData() = 0.0;
      *mpb_acc.hostData(0) = 0.0;
      machine.launch(sim::LaunchSpec(units, [&](sim::CoreContext& ctx) {
        return piRcce(ctx, p, acc, mpb_acc, use_mpb);
      }).withPlan(&plan));
      runAndRecord(result, machine, plan, mode);
      computed = use_mpb ? *mpb_acc.hostData(0) : *acc.hostData();
    }

    result.verified = std::abs(computed - M_PI) < 1e-5;
    deriveDetail(result, "pi=" + std::to_string(computed));
    return result;
  }

  PiParams params_;
};

}  // namespace

std::unique_ptr<Benchmark> makePiApprox(double scale) {
  return std::make_unique<PiApprox>(scale);
}

}  // namespace hsm::workloads
