// Dot Product (paper §5.2, "linear algebra" group): large double arrays in
// off-chip memory with "at least 8 cores in contention per memory
// controller" — memory-bound, so Fig. 6.1 speedup is well below 32x, and
// MPB-staged bulk transfers recover substantial time in Fig. 6.2.
#include <cmath>
#include <vector>

#include "workloads/benchmark.h"
#include "workloads/binding.h"

namespace hsm::workloads {
namespace {

constexpr std::size_t kChunk = 256;
constexpr int kSumLock = 0;

struct DotParams {
  std::size_t n = 1 << 18;  // elements per vector
};

double elemA(std::size_t i) { return 0.5 + static_cast<double>(i % 128) * 0.25; }
double elemB(std::size_t i) { return 1.0 + static_cast<double>(i % 64) * 0.125; }

double referenceDot(std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += elemA(i) * elemB(i);
  return sum;
}

// Under MPB placement both bulk copies land in this core's MPB slice (DMA
// copies: the bulk op carries the cost), and the core then reads the two
// staged blocks on chip.
template <typename B>
sim::SimTask dotKernel(typename B::Context& ctx, DotParams p, ArrayOf<B, double> a,
                       ArrayOf<B, double> b, ArrayOf<B, double> partial) {
  const Slice s = blockSlice(p.n, ctx.numUes(), ctx.ue());
  std::vector<double> a_buf(kChunk), b_buf(kChunk);
  double sum = 0.0;
  for (std::size_t i = s.first; i < s.last; i += kChunk) {
    const std::size_t c = std::min(kChunk, s.last - i);
    co_await a.readBulk(ctx, i, c, a_buf.data());
    co_await b.readBulk(ctx, i, c, b_buf.data());
    co_await a.readStaged(ctx, c, a_buf.data());
    co_await b.readStaged(ctx, c, b_buf.data());
    for (std::size_t k = 0; k < c; ++k) sum += a_buf[k] * b_buf[k];
    co_await ctx.computeOps(c, sim::OpClass::FpMul);
    co_await ctx.computeOps(c, sim::OpClass::FpAdd);
  }
  co_await ctx.lockAcquire(kSumLock);
  double global = 0.0;
  co_await partial.read(ctx, 0, &global);
  global += sum;
  co_await partial.write(ctx, 0, global);
  co_await ctx.lockRelease(kSumLock);
  co_await B::joinBarrier(ctx);
}

class DotProduct final : public Benchmark {
 public:
  explicit DotProduct(double scale) {
    params_.n = static_cast<std::size_t>(static_cast<double>(params_.n) * scale);
    if (params_.n < 1024) params_.n = 1024;
  }

  [[nodiscard]] std::string name() const override { return "DotProduct"; }

  // "a"/"b" are the streamed input vectors, staged through the UE's own
  // slice; "partial", the reduction, stays an off-chip word. (The
  // translator's plan differs: it funnels "partial" through UE 0's slot,
  // and gives "a"/"b" the swcache as their off-chip class.)
  [[nodiscard]] partition::ExecutionPlan handPlan() const override {
    using namespace partition;
    return ExecutionPlan{
        {RegionPlan{"a", PlacementClass::kOnChipStaged, MpbPattern::kSelfStage, 0},
         RegionPlan{"b", PlacementClass::kOnChipStaged, MpbPattern::kSelfStage, 0},
         RegionPlan{"partial", PlacementClass::kOffChipUncached, MpbPattern::kNone, 8}}};
  }

 private:
  [[nodiscard]] RunResult execute(Mode mode, int units, const sim::SccConfig& config,
                                  const partition::ExecutionPlan& plan) const override {
    const DotParams p = params_;
    return runBound(mode, units, config, plan, [&]<typename B>(B& bind, RunResult& result) {
      // In the pthread process `partial` sits at 0 and the vectors from 4096.
      const std::uint64_t a0 = 4096;
      ArrayOf<B, double> a = bind.template array<double>(
          {.name = "a", .count = p.n, .priv_addr = a0, .block = kChunk});
      ArrayOf<B, double> b = bind.template array<double>(
          {.name = "b", .count = p.n, .priv_addr = a0 + p.n * 8, .block = kChunk});
      ArrayOf<B, double> partial =
          bind.template array<double>({.name = "partial", .count = 1, .priv_addr = 0});
      double* a_host = a.hostData();
      double* b_host = b.hostData();
      for (std::size_t i = 0; i < p.n; ++i) {
        a_host[i] = elemA(i);
        b_host[i] = elemB(i);
      }
      *partial.hostData() = 0.0;
      bind.launch([&](typename B::Context& ctx) {
        return dotKernel<B>(ctx, p, a, b, partial);
      });
      bind.run(result);
      const double computed = *partial.hostData();
      const double expected = referenceDot(p.n);
      result.verified = std::abs(computed - expected) < 1e-6 * std::abs(expected);
      deriveDetail(result, "dot=" + std::to_string(computed));
    });
  }

  DotParams params_;
};

}  // namespace

std::unique_ptr<Benchmark> makeDotProduct(double scale) {
  return std::make_unique<DotProduct>(scale);
}

}  // namespace hsm::workloads
