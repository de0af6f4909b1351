// Stream (paper Algorithms 13–16): the Copy, Scale, Add and Triad kernels
// over three double arrays. The all-memory benchmark: off-chip placement
// pays a word-granular uncached transaction per element, while the MPB
// configuration moves data with bulk row-buffer-friendly copies staged
// through the on-chip buffer — the largest Fig. 6.2 winner.
#include <cmath>
#include <vector>

#include "workloads/benchmark.h"
#include "workloads/binding.h"

namespace hsm::workloads {
namespace {

constexpr std::size_t kChunk = 256;  // elements staged per transfer
constexpr double kScalar = 3.0;

struct StreamParams {
  std::size_t n = 1 << 16;  // doubles per array
};

void referenceStream(std::vector<double>& a, std::vector<double>& b,
                     std::vector<double>& c) {
  const std::size_t n = a.size();
  for (std::size_t j = 0; j < n; ++j) c[j] = a[j];            // copy
  for (std::size_t j = 0; j < n; ++j) b[j] = kScalar * c[j];  // scale
  for (std::size_t j = 0; j < n; ++j) c[j] = a[j] + b[j];     // add
  for (std::size_t j = 0; j < n; ++j) a[j] = b[j] + kScalar * c[j];  // triad
}

void initArrays(double* a, double* b, double* c, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    a[j] = 1.0 + static_cast<double>(j % 64);
    b[j] = 2.0;
    c[j] = 0.0;
  }
}

bool checkArrays(const double* a, const double* b, const double* c, std::size_t n) {
  std::vector<double> ra(n), rb(n), rc(n);
  for (std::size_t j = 0; j < n; ++j) {
    ra[j] = 1.0 + static_cast<double>(j % 64);
    rb[j] = 2.0;
    rc[j] = 0.0;
  }
  referenceStream(ra, rb, rc);
  for (std::size_t j = 0; j < n; ++j) {
    if (std::abs(a[j] - ra[j]) > 1e-9 || std::abs(b[j] - rb[j]) > 1e-9 ||
        std::abs(c[j] - rc[j]) > 1e-9) {
      return false;
    }
  }
  return true;
}

// Under MPB placement the bulk copies land blocks in this core's MPB slice
// (DMA-style), and kernels 0 and 1 then read their staged block on chip;
// kernels 2 and 3 take their bulk-copied blocks straight to registers.
// Kernels have cross-slice dependencies only at the kernel boundary: the
// pthread program joins its threads there, the translated one meets at a
// barrier.
template <typename B>
sim::SimTask streamKernel(typename B::Context& ctx, StreamParams p, ArrayOf<B, double> a,
                          ArrayOf<B, double> b, ArrayOf<B, double> c) {
  const Slice s = blockSlice(p.n, ctx.numUes(), ctx.ue());
  std::vector<double> in1(kChunk), in2(kChunk), out(kChunk);
  for (int kernel = 0; kernel < 4; ++kernel) {
    for (std::size_t j = s.first; j < s.last; j += kChunk) {
      const std::size_t cnt = std::min(kChunk, s.last - j);
      switch (kernel) {
        case 0:  // c[j] = a[j]
          co_await a.readBulk(ctx, j, cnt, in1.data());
          co_await a.readStaged(ctx, cnt, in1.data());
          co_await c.writeBulk(ctx, j, cnt, in1.data());
          break;
        case 1:  // b[j] = 3*c[j]
          co_await c.readBulk(ctx, j, cnt, in1.data());
          co_await c.readStaged(ctx, cnt, in1.data());
          for (std::size_t k = 0; k < cnt; ++k) out[k] = kScalar * in1[k];
          co_await ctx.computeOps(cnt, sim::OpClass::FpMul);
          co_await b.writeBulk(ctx, j, cnt, out.data());
          break;
        case 2:  // c[j] = a[j] + b[j]
          co_await a.readBulk(ctx, j, cnt, in1.data());
          co_await b.readBulk(ctx, j, cnt, in2.data());
          for (std::size_t k = 0; k < cnt; ++k) out[k] = in1[k] + in2[k];
          co_await ctx.computeOps(cnt, sim::OpClass::FpAdd);
          co_await c.writeBulk(ctx, j, cnt, out.data());
          break;
        case 3:  // a[j] = b[j] + 3*c[j]
          co_await b.readBulk(ctx, j, cnt, in1.data());
          co_await c.readBulk(ctx, j, cnt, in2.data());
          for (std::size_t k = 0; k < cnt; ++k) out[k] = in1[k] + kScalar * in2[k];
          co_await ctx.computeOps(cnt, sim::OpClass::FpAdd);
          co_await ctx.computeOps(cnt, sim::OpClass::FpMul);
          co_await a.writeBulk(ctx, j, cnt, out.data());
          break;
      }
    }
    co_await B::joinBarrier(ctx);
  }
}

class Stream final : public Benchmark {
 public:
  explicit Stream(double scale) {
    params_.n = static_cast<std::size_t>(static_cast<double>(params_.n) * scale);
    if (params_.n < 1024) params_.n = 1024;
  }

  [[nodiscard]] std::string name() const override { return "Stream"; }

  // The three source arrays are thread-written streamed slices, each staged
  // through the UE's own slice (self-stage).
  [[nodiscard]] partition::ExecutionPlan handPlan() const override {
    using namespace partition;
    return ExecutionPlan{
        {RegionPlan{"a", PlacementClass::kOnChipStaged, MpbPattern::kSelfStage, 0},
         RegionPlan{"b", PlacementClass::kOnChipStaged, MpbPattern::kSelfStage, 0},
         RegionPlan{"c", PlacementClass::kOnChipStaged, MpbPattern::kSelfStage, 0}}};
  }

 private:
  [[nodiscard]] RunResult execute(Mode mode, int units, const sim::SccConfig& config,
                                  const partition::ExecutionPlan& plan) const override {
    const StreamParams p = params_;
    return runBound(mode, units, config, plan, [&]<typename B>(B& bind, RunResult& result) {
      const std::size_t bytes = p.n * sizeof(double);
      ArrayOf<B, double> a = bind.template array<double>(
          {.name = "a", .count = p.n, .priv_addr = 0, .block = kChunk});
      // The kernels stage one block at a time: all three arrays share a's.
      ArrayOf<B, double> b = bind.template array<double>(
          {.name = "b", .count = p.n, .priv_addr = bytes, .block = kChunk}, &a);
      ArrayOf<B, double> c = bind.template array<double>(
          {.name = "c", .count = p.n, .priv_addr = 2 * bytes, .block = kChunk}, &a);
      initArrays(a.hostData(), b.hostData(), c.hostData(), p.n);
      bind.launch([&](typename B::Context& ctx) { return streamKernel<B>(ctx, p, a, b, c); });
      bind.run(result);
      result.verified = checkArrays(a.hostData(), b.hostData(), c.hostData(), p.n);
      deriveDetail(result, result.verified ? "arrays=ok" : "arrays=MISMATCH");
    });
  }

  StreamParams params_;
};

}  // namespace

std::unique_ptr<Benchmark> makeStream(double scale) {
  return std::make_unique<Stream>(scale);
}

}  // namespace hsm::workloads
