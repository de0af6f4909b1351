// LU Decomposition (paper §5.2): in-place Doolittle factorization without
// pivoting, rows distributed round-robin, a barrier per elimination step.
// The matrix exceeds a core's 8 KB MPB slice, so the MPB configuration can
// only stage the pivot row — the paper's "very slight performance
// improvement" case in Fig. 6.2.
#include <cmath>
#include <vector>

#include "workloads/benchmark.h"
#include "workloads/binding.h"

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

template <typename B>
sim::SimTask luKernel(typename B::Context& ctx, LuParams p, ArrayOf<B, double> m) {
  const std::size_t n = p.n;
  const int P = ctx.numUes();
  const int me = ctx.ue();
  std::vector<double> row_k(n), row_i(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t len = n - k;
    // Under MPB placement the pivot row is staged in its owner's MPB once
    // and everyone else fetches it on chip instead of re-reading DRAM.
    const int pivot_owner = static_cast<int>(k % static_cast<std::size_t>(P));
    co_await m.broadcast(ctx, pivot_owner, k * n + k, len, row_k.data());
    for (std::size_t i = k + 1; i < n; ++i) {
      if (static_cast<int>(i % static_cast<std::size_t>(P)) != me) continue;
      // The working rows exceed any MPB slice, so row updates stay in
      // off-chip shared memory in both RCCE configurations — only the pivot
      // row staging differs (hence the paper's "very slight" MPB gain).
      co_await m.readBlock(ctx, i * n + k, len, row_i.data());
      const double factor = row_i[0] / row_k[0];
      row_i[0] = factor;
      for (std::size_t j = 1; j < len; ++j) row_i[j] -= factor * row_k[j];
      co_await ctx.computeOps(1, sim::OpClass::FpDiv);
      co_await ctx.computeOps(2 * (len - 1), sim::OpClass::FpAdd);
      co_await m.writeBlock(ctx, i * n + k, len, row_i.data());
    }
    // The pthread program synchronizes workers between elimination steps
    // (pthread_barrier_wait); required for correctness on any schedule.
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
    const LuParams p = params_;
    return runBound(mode, units, config, plan, [&]<typename B>(B& bind, RunResult& result) {
      // Staged, a UE's MPB block holds one pivot row.
      ArrayOf<B, double> m = bind.template array<double>(
          {.name = "m", .count = p.n * p.n, .priv_addr = 0, .block = p.n});
      initMatrix(m.hostData(), p.n);
      bind.launch([&](typename B::Context& ctx) { return luKernel<B>(ctx, p, m); });
      bind.run(result);
      result.verified = verifyLu(m.hostData(), p.n);
      deriveDetail(result, result.verified ? "lu=ok" : "lu=MISMATCH");
    });
  }

  LuParams params_;
};

}  // namespace

std::unique_ptr<Benchmark> makeLuDecomposition(double scale) {
  return std::make_unique<LuDecomposition>(scale);
}

}  // namespace hsm::workloads
