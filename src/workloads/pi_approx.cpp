// Pi Approximation (paper Algorithm 12): numeric integration of
// 4/(1+x^2) over [0,1). Compute-bound with one shared accumulator —
// the paper's best case (~32x on 32 cores, Fig. 6.1; near-linear core
// scaling, Fig. 6.3).
#include <cmath>

#include "workloads/benchmark.h"
#include "workloads/binding.h"

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

template <typename B>
sim::SimTask piKernel(typename B::Context& ctx, PiParams p, ArrayOf<B, double> gsum) {
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
  // Accumulate into the shared sum under the mutex (a test-and-set lock
  // after MutexToLockPass).
  co_await ctx.lockAcquire(kSumLock);
  double global = 0.0;
  co_await gsum.read(ctx, 0, &global);
  global += sum * step;
  co_await gsum.write(ctx, 0, global);
  co_await ctx.lockRelease(kSumLock);
  co_await B::joinBarrier(ctx);
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
    const PiParams p = params_;
    return runBound(mode, units, config, plan, [&]<typename B>(B& bind, RunResult& result) {
      ArrayOf<B, double> gsum =
          bind.template array<double>({.name = "gsum", .count = 1, .priv_addr = 0});
      *gsum.hostData() = 0.0;
      bind.launch([&](typename B::Context& ctx) { return piKernel<B>(ctx, p, gsum); });
      bind.run(result);
      const double computed = *gsum.hostData();
      result.verified = std::abs(computed - M_PI) < 1e-5;
      deriveDetail(result, "pi=" + std::to_string(computed));
    });
  }

  PiParams params_;
};

}  // namespace

std::unique_ptr<Benchmark> makePiApprox(double scale) {
  return std::make_unique<PiApprox>(scale);
}

}  // namespace hsm::workloads
