// 3-5-Sum: sum all multiples of 3 or 5 below N ("sum increasingly large
// multiples of 3 and 5", paper §5.2). Integer-division heavy and perfectly
// balanced — close to ideal scaling (~29x in Fig. 6.1).
#include <cstring>

#include "rcce/rcce.h"
#include "sim/machine.h"
#include "threadrt/baseline.h"
#include "workloads/benchmark.h"
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

sim::SimTask sum35Thread(threadrt::ThreadContext& ctx, Sum35Params p,
                         std::uint64_t sum_addr) {
  const Slice s = blockSlice(p.limit, ctx.numThreads(), ctx.tid());
  long long sum = 0;
  for (std::size_t i = s.first; i < s.last; i += kChunk) {
    const std::size_t c = std::min(kChunk, s.last - i);
    sum += sum35Range(i, i + c);
    co_await ctx.computeOps(2 * c, sim::OpClass::IntDiv);
    co_await ctx.computeOps(2 * c, sim::OpClass::IntAlu);
  }
  co_await ctx.lockAcquire(kSumLock);
  long long global = 0;
  co_await ctx.memRead(sum_addr, &global, sizeof(global));
  global += sum;
  co_await ctx.memWrite(sum_addr, &global, sizeof(global));
  co_await ctx.lockRelease(kSumLock);
}

sim::SimTask sum35Rcce(sim::CoreContext& ctx, Sum35Params p,
                       rcce::ShmArray<long long> acc,
                       rcce::MpbArray<long long> mpb_acc, bool use_mpb) {
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
  if (use_mpb) {
    co_await mpb_acc.read(ctx, 0, 0, &global);
    global += sum;
    co_await mpb_acc.write(ctx, 0, 0, global);
  } else {
    co_await acc.read(ctx, 0, &global);
    global += sum;
    co_await acc.write(ctx, 0, global);
  }
  co_await ctx.lockRelease(kSumLock);
  co_await ctx.barrier();
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
    RunResult result;
    const Sum35Params p = params_;

    long long computed = 0;
    if (mode == Mode::PthreadSingleCore) {
      threadrt::SingleCoreRuntime rt(config);
      const std::uint64_t sum_addr = 0;
      std::memset(rt.machine().privData(0, sum_addr), 0, sizeof(long long));
      rt.launch(units, [&](threadrt::ThreadContext& ctx) {
        return sum35Thread(ctx, p, sum_addr);
      });
      result.makespan = rt.run();
      std::memcpy(&computed, rt.machine().privData(0, sum_addr), sizeof(long long));
    } else {
      sim::SccMachine machine(config);
      rcce::RcceEnv env(machine);
      const bool use_mpb = partition::isOnChip(resolvePlacement(plan, "partial", mode));
      rcce::ShmArray<long long> acc = makeShmArray<long long>(env, 1, plan, "partial", mode);
      rcce::MpbArray<long long> mpb_acc(env, units, 1);
      *acc.hostData() = 0;
      *mpb_acc.hostData(0) = 0;
      machine.launch(sim::LaunchSpec(units, [&](sim::CoreContext& ctx) {
        return sum35Rcce(ctx, p, acc, mpb_acc, use_mpb);
      }).withPlan(&plan));
      runAndRecord(result, machine, plan);
      computed = use_mpb ? *mpb_acc.hostData(0) : *acc.hostData();
    }

    result.verified = computed == sum35Reference(p.limit);
    deriveDetail(result, "sum=" + std::to_string(computed));
    return result;
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
