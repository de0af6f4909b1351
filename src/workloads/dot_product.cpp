// Dot Product (paper §5.2, "linear algebra" group): large double arrays in
// off-chip memory with "at least 8 cores in contention per memory
// controller" — memory-bound, so Fig. 6.1 speedup is well below 32x, and
// MPB-staged bulk transfers recover substantial time in Fig. 6.2.
#include <cmath>
#include <cstring>
#include <vector>

#include "rcce/rcce.h"
#include "sim/machine.h"
#include "threadrt/baseline.h"
#include "workloads/benchmark.h"

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

sim::SimTask dotThread(threadrt::ThreadContext& ctx, DotParams p, std::uint64_t a0,
                       std::uint64_t b0, std::uint64_t sum_addr) {
  const Slice s = blockSlice(p.n, ctx.numThreads(), ctx.tid());
  std::vector<double> a_buf(kChunk), b_buf(kChunk);
  double sum = 0.0;
  for (std::size_t i = s.first; i < s.last; i += kChunk) {
    const std::size_t c = std::min(kChunk, s.last - i);
    co_await ctx.memRead(a0 + i * 8, a_buf.data(), c * 8);
    co_await ctx.memRead(b0 + i * 8, b_buf.data(), c * 8);
    for (std::size_t k = 0; k < c; ++k) sum += a_buf[k] * b_buf[k];
    co_await ctx.computeOps(c, sim::OpClass::FpMul);
    co_await ctx.computeOps(c, sim::OpClass::FpAdd);
  }
  co_await ctx.lockAcquire(kSumLock);
  double global = 0.0;
  co_await ctx.memRead(sum_addr, &global, sizeof(global));
  global += sum;
  co_await ctx.memWrite(sum_addr, &global, sizeof(global));
  co_await ctx.lockRelease(kSumLock);
}

sim::SimTask dotRcce(sim::CoreContext& ctx, DotParams p, rcce::ShmArray<double> a,
                     rcce::ShmArray<double> b, rcce::ShmArray<double> acc,
                     rcce::MpbArray<double> stage, rcce::MpbArray<double> mpb_acc,
                     bool stage_ab, bool acc_mpb) {
  const Slice s = blockSlice(p.n, ctx.numUes(), ctx.ue());
  std::vector<double> a_buf(kChunk), b_buf(kChunk);
  double sum = 0.0;
  const int me = ctx.ue();
  for (std::size_t i = s.first; i < s.last; i += kChunk) {
    const std::size_t c = std::min(kChunk, s.last - i);
    if (stage_ab) {
      // Bulk copies are DMAs into this core's MPB slice; depositing into
      // the backing store is untimed (the bulk op carries the cost), then
      // the core reads the staged data on-chip.
      co_await a.readBulk(ctx, i, c, a_buf.data());
      std::memcpy(stage.hostData(me), a_buf.data(), c * sizeof(double));
      co_await b.readBulk(ctx, i, c, b_buf.data());
      std::memcpy(stage.hostData(me) + kChunk, b_buf.data(), c * sizeof(double));
      co_await stage.readBlock(ctx, me, 0, c, a_buf.data());
      co_await stage.readBlock(ctx, me, kChunk, c, b_buf.data());
    } else {
      co_await a.readBlock(ctx, i, c, a_buf.data());
      co_await b.readBlock(ctx, i, c, b_buf.data());
    }
    for (std::size_t k = 0; k < c; ++k) sum += a_buf[k] * b_buf[k];
    co_await ctx.computeOps(c, sim::OpClass::FpMul);
    co_await ctx.computeOps(c, sim::OpClass::FpAdd);
  }
  co_await ctx.lockAcquire(kSumLock);
  double global = 0.0;
  if (acc_mpb) {
    // Plan-driven on-chip accumulator: root-funnel through UE 0's slot.
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

class DotProduct final : public Benchmark {
 public:
  explicit DotProduct(double scale) {
    params_.n = static_cast<std::size_t>(static_cast<double>(params_.n) * scale);
    if (params_.n < 1024) params_.n = 1024;
  }

  [[nodiscard]] std::string name() const override { return "DotProduct"; }

  // "a"/"b" are the streamed input vectors, staged through the UE's own
  // slice; "partial", the reduction, stays an off-chip word. (The
  // translator's plan differs: it caches "a"/"b" and funnels "partial"
  // through UE 0's slot.)
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
    RunResult result;
    const DotParams p = params_;

    double computed = 0.0;
    if (mode == Mode::PthreadSingleCore) {
      threadrt::SingleCoreRuntime rt(config);
      const std::uint64_t a0 = 4096;
      const std::uint64_t b0 = a0 + p.n * 8;
      const std::uint64_t sum_addr = 0;
      rt.machine().reservePrivate(0, b0 + p.n * 8);
      auto* a_host = reinterpret_cast<double*>(rt.machine().privData(0, a0));
      auto* b_host = reinterpret_cast<double*>(rt.machine().privData(0, b0));
      for (std::size_t i = 0; i < p.n; ++i) {
        a_host[i] = elemA(i);
        b_host[i] = elemB(i);
      }
      std::memset(rt.machine().privData(0, sum_addr), 0, sizeof(double));
      rt.launch(units, [&](threadrt::ThreadContext& ctx) {
        return dotThread(ctx, p, a0, b0, sum_addr);
      });
      result.makespan = rt.run();
      std::memcpy(&computed, rt.machine().privData(0, sum_addr), sizeof(double));
    } else {
      sim::SccMachine machine(config);
      rcce::RcceEnv env(machine);
      const bool stage_ab = partition::isOnChip(resolvePlacement(plan, "a", mode));
      const bool acc_mpb = partition::isOnChip(resolvePlacement(plan, "partial", mode));
      rcce::ShmArray<double> a = makeShmArray<double>(env, p.n, plan, "a", mode);
      rcce::ShmArray<double> b = makeShmArray<double>(env, p.n, plan, "b", mode);
      rcce::ShmArray<double> acc = makeShmArray<double>(env, 1, plan, "partial", mode);
      rcce::MpbArray<double> stage(env, units, 2 * kChunk);
      rcce::MpbArray<double> mpb_acc(env, units, 1);
      for (std::size_t i = 0; i < p.n; ++i) {
        a.hostData()[i] = elemA(i);
        b.hostData()[i] = elemB(i);
      }
      *acc.hostData() = 0.0;
      *mpb_acc.hostData(0) = 0.0;
      machine.launch(sim::LaunchSpec(units, [&](sim::CoreContext& ctx) {
        return dotRcce(ctx, p, a, b, acc, stage, mpb_acc, stage_ab, acc_mpb);
      }).withPlan(&plan));
      runAndRecord(result, machine, plan);
      computed = acc_mpb ? *mpb_acc.hostData(0) : *acc.hostData();
    }

    const double expected = referenceDot(p.n);
    result.verified = std::abs(computed - expected) < 1e-6 * std::abs(expected);
    deriveDetail(result, "dot=" + std::to_string(computed));
    return result;
  }

  DotParams params_;
};

}  // namespace

std::unique_ptr<Benchmark> makeDotProduct(double scale) {
  return std::make_unique<DotProduct>(scale);
}

}  // namespace hsm::workloads
