// 3-5-Sum: sum all multiples of 3 or 5 below N ("sum increasingly large
// multiples of 3 and 5", paper §5.2). Integer-division heavy and perfectly
// balanced — close to ideal scaling (~29x in Fig. 6.1).
#include "workloads/benchmark.h"
#include "workloads/binding.h"
#include "workloads/sum35.h"

namespace hsm::workloads {
namespace {

constexpr std::size_t kChunk = 8192;
constexpr int kSumLock = 0;

struct Sum35Params {
  std::size_t limit = 3'000'000;
};

// Per-candidate simulated cost: two integer modulo operations plus loop/add
// ALU work. The host sums each chunk in closed form (workloads/sum35.h).

template <typename B>
sim::SimTask sum35Kernel(typename B::Context& ctx, Sum35Params p,
                         ArrayOf<B, long long> partial) {
  const Slice s = blockSlice(p.limit, ctx.numUes(), ctx.ue());
  long long sum = 0;
  for (std::size_t i = s.first; i < s.last; i += kChunk) {
    const std::size_t c = std::min(kChunk, s.last - i);
    sum += sum35Range(i, i + c);
    co_await ctx.computeOps(2 * c, sim::OpClass::IntDiv);
    co_await ctx.computeOps(2 * c, sim::OpClass::IntAlu);
  }
  co_await ctx.lockAcquire(kSumLock);
  long long global = 0;
  co_await partial.read(ctx, 0, &global);
  global += sum;
  co_await partial.write(ctx, 0, global);
  co_await ctx.lockRelease(kSumLock);
  co_await B::joinBarrier(ctx);
}

class Sum35 final : public Benchmark {
 public:
  explicit Sum35(double scale) {
    params_.limit = static_cast<std::size_t>(static_cast<double>(params_.limit) * scale);
    if (params_.limit < 1000) params_.limit = 1000;
  }

  [[nodiscard]] std::string name() const override { return "3-5-Sum"; }

  // "partial" is the source's per-thread slot array, gathered in main: on
  // chip the reduction funnels through UE 0's slot.
  [[nodiscard]] partition::ExecutionPlan handPlan() const override {
    using namespace partition;
    return ExecutionPlan{
        {RegionPlan{"partial", PlacementClass::kOnChipResident, MpbPattern::kRootFunnel, 8}}};
  }

 private:
  [[nodiscard]] RunResult execute(Mode mode, int units, const sim::SccConfig& config,
                                  const partition::ExecutionPlan& plan) const override {
    const Sum35Params p = params_;
    return runBound(mode, units, config, plan, [&]<typename B>(B& bind, RunResult& result) {
      ArrayOf<B, long long> partial =
          bind.template array<long long>({.name = "partial", .count = 1, .priv_addr = 0});
      *partial.hostData() = 0;
      bind.launch([&](typename B::Context& ctx) { return sum35Kernel<B>(ctx, p, partial); });
      bind.run(result);
      const long long computed = *partial.hostData();
      result.verified = computed == sum35Reference(p.limit);
      deriveDetail(result, "sum=" + std::to_string(computed));
    });
  }

  Sum35Params params_;
};

}  // namespace

long long sum35Reference(std::size_t limit) {
  const std::size_t periods = limit / 15;
  const auto q = static_cast<long long>(periods);
  long long sum = 105 * (q * (q - 1) / 2) + 45 * q;
  for (std::size_t i = periods * 15; i < limit; ++i) {
    if (i % 3 == 0 || i % 5 == 0) sum += static_cast<long long>(i);
  }
  return sum;
}

std::unique_ptr<Benchmark> makeSum35(double scale) {
  return std::make_unique<Sum35>(scale);
}

}  // namespace hsm::workloads
