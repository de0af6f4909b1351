// LU Decomposition (paper §5.2): in-place Doolittle factorization without
// pivoting, rows distributed round-robin, a barrier per elimination step.
// The matrix exceeds a core's 8 KB MPB slice, so the MPB configuration can
// only stage the pivot row — the paper's "very slight performance
// improvement" case in Fig. 6.2.
#include <cmath>
#include <cstring>
#include <vector>

#include "rcce/rcce.h"
#include "sim/machine.h"
#include "threadrt/baseline.h"
#include "workloads/benchmark.h"

namespace hsm::workloads {
namespace {

struct LuParams {
  std::size_t n = 96;  // matrix dimension
};

double origElem(std::size_t i, std::size_t j, std::size_t n) {
  if (i == j) return 2.0 * static_cast<double>(n);
  const double d = i > j ? static_cast<double>(i - j) : static_cast<double>(j - i);
  return 1.0 / (1.0 + d);
}

void initMatrix(double* m, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) m[i * n + j] = origElem(i, j, n);
  }
}

/// Reconstruct A = L*U from the in-place factors and compare to the
/// original matrix.
bool verifyLu(const double* m, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      // A[i][j] = sum over k<=min(i,j) of L[i][k]*U[k][j], with L[i][i]=1.
      const std::size_t bound = std::min(i, j);
      double sum = 0.0;
      for (std::size_t k = 0; k <= bound; ++k) {
        const double l = (k == i) ? 1.0 : m[i * n + k];
        sum += l * m[k * n + j];
      }
      if (std::abs(sum - origElem(i, j, n)) > 1e-6) return false;
    }
  }
  return true;
}

sim::SimTask luThread(threadrt::ThreadContext& ctx, LuParams p, std::uint64_t m0) {
  const std::size_t n = p.n;
  const int P = ctx.numThreads();
  const int me = ctx.tid();
  std::vector<double> row_k(n), row_i(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t len = n - k;
    co_await ctx.memRead(m0 + (k * n + k) * 8, row_k.data(), len * 8);
    for (std::size_t i = k + 1; i < n; ++i) {
      if (static_cast<int>(i % static_cast<std::size_t>(P)) != me) continue;
      co_await ctx.memRead(m0 + (i * n + k) * 8, row_i.data(), len * 8);
      const double factor = row_i[0] / row_k[0];
      row_i[0] = factor;
      for (std::size_t j = 1; j < len; ++j) row_i[j] -= factor * row_k[j];
      co_await ctx.computeOps(1, sim::OpClass::FpDiv);
      co_await ctx.computeOps(2 * (len - 1), sim::OpClass::FpAdd);
      co_await ctx.memWrite(m0 + (i * n + k) * 8, row_i.data(), len * 8);
    }
    // The pthread program synchronizes workers between elimination steps
    // (pthread_barrier_wait); required for correctness on any schedule.
    co_await ctx.barrier();
  }
}

sim::SimTask luRcce(sim::CoreContext& ctx, LuParams p, rcce::ShmArray<double> m,
                    rcce::MpbArray<double> pivot_stage, bool use_mpb) {
  const std::size_t n = p.n;
  const int P = ctx.numUes();
  const int me = ctx.ue();
  std::vector<double> row_k(n), row_i(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t len = n - k;
    const int pivot_owner = static_cast<int>(k % static_cast<std::size_t>(P));
    if (use_mpb) {
      // The pivot row is staged in its owner's MPB once; everyone else
      // fetches it on-chip instead of re-reading off-chip DRAM.
      if (me == pivot_owner) {
        co_await m.readBulk(ctx, k * n + k, len, row_k.data());
        co_await pivot_stage.writeBlock(ctx, me, 0, len, row_k.data());
      }
      co_await ctx.barrier();
      if (me != pivot_owner) {
        co_await pivot_stage.readBlock(ctx, pivot_owner, 0, len, row_k.data());
      }
    } else {
      co_await m.readBlock(ctx, k * n + k, len, row_k.data());
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      if (static_cast<int>(i % static_cast<std::size_t>(P)) != me) continue;
      // The working rows exceed any MPB slice, so row updates stay in
      // off-chip shared memory in both configurations — only the pivot row
      // staging differs (hence the paper's "very slight" MPB gain for LU).
      co_await m.readBlock(ctx, i * n + k, len, row_i.data());
      const double factor = row_i[0] / row_k[0];
      row_i[0] = factor;
      for (std::size_t j = 1; j < len; ++j) row_i[j] -= factor * row_k[j];
      co_await ctx.computeOps(1, sim::OpClass::FpDiv);
      co_await ctx.computeOps(2 * (len - 1), sim::OpClass::FpAdd);
      co_await m.writeBlock(ctx, i * n + k, len, row_i.data());
    }
    co_await ctx.barrier();
  }
}

class LuDecomposition final : public Benchmark {
 public:
  explicit LuDecomposition(double scale) {
    params_.n = static_cast<std::size_t>(static_cast<double>(params_.n) * std::sqrt(scale));
    if (params_.n < 16) params_.n = 16;
  }

  [[nodiscard]] std::string name() const override { return "LU"; }

  // "m" is the thread-written matrix with cross-thread pivot reuse, staged
  // by rotating broadcast: each step's pivot owner publishes the pivot row
  // from its own slice and everyone fetches it.
  [[nodiscard]] partition::ExecutionPlan handPlan() const override {
    using namespace partition;
    return ExecutionPlan{
        {RegionPlan{"m", PlacementClass::kOnChipStaged, MpbPattern::kRotatingBroadcast, 0}}};
  }

 private:
  [[nodiscard]] RunResult execute(Mode mode, int units, const sim::SccConfig& config,
                                  const partition::ExecutionPlan& plan) const override {
    RunResult result;
    const LuParams p = params_;

    bool verified = false;
    if (mode == Mode::PthreadSingleCore) {
      threadrt::SingleCoreRuntime rt(config);
      const std::uint64_t m0 = 0;
      rt.machine().reservePrivate(0, p.n * p.n * 8);
      auto* m_host = reinterpret_cast<double*>(rt.machine().privData(0, m0));
      initMatrix(m_host, p.n);
      rt.launch(units, [&](threadrt::ThreadContext& ctx) {
        return luThread(ctx, p, m0);
      });
      result.makespan = rt.run();
      verified = verifyLu(reinterpret_cast<double*>(rt.machine().privData(0, m0)), p.n);
    } else {
      sim::SccMachine machine(config);
      rcce::RcceEnv env(machine);
      const bool use_mpb = partition::isOnChip(resolvePlacement(plan, "m", mode));
      rcce::ShmArray<double> m = makeShmArray<double>(env, p.n * p.n, plan, "m", mode);
      rcce::MpbArray<double> pivot_stage(env, units, p.n);
      initMatrix(m.hostData(), p.n);
      machine.launch(sim::LaunchSpec(units, [&](sim::CoreContext& ctx) {
        return luRcce(ctx, p, m, pivot_stage, use_mpb);
      }).withPlan(&plan));
      runAndRecord(result, machine, plan);
      verified = verifyLu(m.hostData(), p.n);
    }

    result.verified = verified;
    deriveDetail(result, verified ? "lu=ok" : "lu=MISMATCH");
    return result;
  }

  LuParams params_;
};

}  // namespace

std::unique_ptr<Benchmark> makeLuDecomposition(double scale) {
  return std::make_unique<LuDecomposition>(scale);
}

}  // namespace hsm::workloads
