// Stream (paper Algorithms 13–16): the Copy, Scale, Add and Triad kernels
// over three double arrays. The all-memory benchmark: off-chip placement
// pays a word-granular uncached transaction per element, while the MPB
// configuration moves data with bulk row-buffer-friendly copies staged
// through the on-chip buffer — the largest Fig. 6.2 winner.
#include <cmath>
#include <cstring>
#include <vector>

#include "rcce/rcce.h"
#include "sim/machine.h"
#include "threadrt/baseline.h"
#include "workloads/benchmark.h"

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

// --- baseline: process memory, cacheable, one core -------------------------

sim::SimTask streamThread(threadrt::ThreadContext& ctx, StreamParams p,
                          std::uint64_t a0, std::uint64_t b0, std::uint64_t c0) {
  const Slice s = blockSlice(p.n, ctx.numThreads(), ctx.tid());
  std::vector<double> in1(kChunk), in2(kChunk), out(kChunk);
  // Four kernels, barrier-free in the original pthread program (each thread
  // owns a disjoint slice; threads join between kernels via pthread_join in
  // the source — the single-core baseline serializes anyway).
  for (int kernel = 0; kernel < 4; ++kernel) {
    for (std::size_t j = s.first; j < s.last; j += kChunk) {
      const std::size_t c = std::min(kChunk, s.last - j);
      switch (kernel) {
        case 0:  // c[j] = a[j]
          co_await ctx.memRead(a0 + j * 8, in1.data(), c * 8);
          co_await ctx.memWrite(c0 + j * 8, in1.data(), c * 8);
          break;
        case 1:  // b[j] = 3*c[j]
          co_await ctx.memRead(c0 + j * 8, in1.data(), c * 8);
          for (std::size_t k = 0; k < c; ++k) out[k] = kScalar * in1[k];
          co_await ctx.computeOps(c, sim::OpClass::FpMul);
          co_await ctx.memWrite(b0 + j * 8, out.data(), c * 8);
          break;
        case 2:  // c[j] = a[j] + b[j]
          co_await ctx.memRead(a0 + j * 8, in1.data(), c * 8);
          co_await ctx.memRead(b0 + j * 8, in2.data(), c * 8);
          for (std::size_t k = 0; k < c; ++k) out[k] = in1[k] + in2[k];
          co_await ctx.computeOps(c, sim::OpClass::FpAdd);
          co_await ctx.memWrite(c0 + j * 8, out.data(), c * 8);
          break;
        case 3:  // a[j] = b[j] + 3*c[j]
          co_await ctx.memRead(b0 + j * 8, in1.data(), c * 8);
          co_await ctx.memRead(c0 + j * 8, in2.data(), c * 8);
          for (std::size_t k = 0; k < c; ++k) out[k] = in1[k] + kScalar * in2[k];
          co_await ctx.computeOps(c, sim::OpClass::FpAdd);
          co_await ctx.computeOps(c, sim::OpClass::FpMul);
          co_await ctx.memWrite(a0 + j * 8, out.data(), c * 8);
          break;
      }
    }
  }
}

// --- RCCE: shared arrays, off-chip words or MPB-staged bulk ----------------

sim::SimTask streamRcce(sim::CoreContext& ctx, StreamParams p,
                        rcce::ShmArray<double> a, rcce::ShmArray<double> b,
                        rcce::ShmArray<double> c, rcce::MpbArray<double> stage,
                        bool use_mpb) {
  const Slice s = blockSlice(p.n, ctx.numUes(), ctx.ue());
  std::vector<double> in1(kChunk), in2(kChunk), out(kChunk);
  const int me = ctx.ue();
  // The bulk copy is a DMA into this core's MPB slice: its DRAM-side cost
  // is the bulk op; depositing into the slice's backing store is untimed.
  auto deposit = [&](const double* data, std::size_t count) {
    std::memcpy(stage.hostData(me), data, count * sizeof(double));
  };

  for (int kernel = 0; kernel < 4; ++kernel) {
    for (std::size_t j = s.first; j < s.last; j += kChunk) {
      const std::size_t cnt = std::min(kChunk, s.last - j);
      if (use_mpb) {
        // Bulk copies land blocks in this core's MPB slice (DMA-style);
        // the core then touches them on-chip.
        switch (kernel) {
          case 0:
            co_await a.readBulk(ctx, j, cnt, in1.data());
            deposit(in1.data(), cnt);
            co_await stage.readBlock(ctx, me, 0, cnt, in1.data());
            co_await c.writeBulk(ctx, j, cnt, in1.data());
            break;
          case 1:
            co_await c.readBulk(ctx, j, cnt, in1.data());
            deposit(in1.data(), cnt);
            co_await stage.readBlock(ctx, me, 0, cnt, in1.data());
            for (std::size_t k = 0; k < cnt; ++k) out[k] = kScalar * in1[k];
            co_await ctx.computeOps(cnt, sim::OpClass::FpMul);
            co_await b.writeBulk(ctx, j, cnt, out.data());
            break;
          case 2:
            co_await a.readBulk(ctx, j, cnt, in1.data());
            co_await b.readBulk(ctx, j, cnt, in2.data());
            for (std::size_t k = 0; k < cnt; ++k) out[k] = in1[k] + in2[k];
            co_await ctx.computeOps(cnt, sim::OpClass::FpAdd);
            co_await c.writeBulk(ctx, j, cnt, out.data());
            break;
          case 3:
            co_await b.readBulk(ctx, j, cnt, in1.data());
            co_await c.readBulk(ctx, j, cnt, in2.data());
            for (std::size_t k = 0; k < cnt; ++k) out[k] = in1[k] + kScalar * in2[k];
            co_await ctx.computeOps(cnt, sim::OpClass::FpAdd);
            co_await ctx.computeOps(cnt, sim::OpClass::FpMul);
            co_await a.writeBulk(ctx, j, cnt, out.data());
            break;
        }
      } else {
        switch (kernel) {
          case 0:
            co_await a.readBlock(ctx, j, cnt, in1.data());
            co_await c.writeBlock(ctx, j, cnt, in1.data());
            break;
          case 1:
            co_await c.readBlock(ctx, j, cnt, in1.data());
            for (std::size_t k = 0; k < cnt; ++k) out[k] = kScalar * in1[k];
            co_await ctx.computeOps(cnt, sim::OpClass::FpMul);
            co_await b.writeBlock(ctx, j, cnt, out.data());
            break;
          case 2:
            co_await a.readBlock(ctx, j, cnt, in1.data());
            co_await b.readBlock(ctx, j, cnt, in2.data());
            for (std::size_t k = 0; k < cnt; ++k) out[k] = in1[k] + in2[k];
            co_await ctx.computeOps(cnt, sim::OpClass::FpAdd);
            co_await c.writeBlock(ctx, j, cnt, out.data());
            break;
          case 3:
            co_await b.readBlock(ctx, j, cnt, in1.data());
            co_await c.readBlock(ctx, j, cnt, in2.data());
            for (std::size_t k = 0; k < cnt; ++k) out[k] = in1[k] + kScalar * in2[k];
            co_await ctx.computeOps(cnt, sim::OpClass::FpAdd);
            co_await ctx.computeOps(cnt, sim::OpClass::FpMul);
            co_await a.writeBlock(ctx, j, cnt, out.data());
            break;
        }
      }
    }
    // Kernels have cross-slice dependencies only at the kernel boundary;
    // the translated program synchronizes with a barrier.
    co_await ctx.barrier();
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
    RunResult result;
    const StreamParams p = params_;

    bool verified = false;
    if (mode == Mode::PthreadSingleCore) {
      threadrt::SingleCoreRuntime rt(config);
      const std::uint64_t a0 = 0;
      const std::uint64_t b0 = a0 + p.n * 8;
      const std::uint64_t c0 = b0 + p.n * 8;
      rt.machine().reservePrivate(0, c0 + p.n * 8);
      initArrays(reinterpret_cast<double*>(rt.machine().privData(0, a0)),
                 reinterpret_cast<double*>(rt.machine().privData(0, b0)),
                 reinterpret_cast<double*>(rt.machine().privData(0, c0)), p.n);
      rt.launch(units, [&](threadrt::ThreadContext& ctx) {
        return streamThread(ctx, p, a0, b0, c0);
      });
      result.makespan = rt.run();
      verified = checkArrays(reinterpret_cast<double*>(rt.machine().privData(0, a0)),
                             reinterpret_cast<double*>(rt.machine().privData(0, b0)),
                             reinterpret_cast<double*>(rt.machine().privData(0, c0)),
                             p.n);
    } else {
      sim::SccMachine machine(config);
      rcce::RcceEnv env(machine);
      const bool use_mpb = partition::isOnChip(resolvePlacement(plan, "a", mode));
      rcce::ShmArray<double> a = makeShmArray<double>(env, p.n, plan, "a", mode);
      rcce::ShmArray<double> b = makeShmArray<double>(env, p.n, plan, "b", mode);
      rcce::ShmArray<double> c = makeShmArray<double>(env, p.n, plan, "c", mode);
      rcce::MpbArray<double> stage(env, units, kChunk);
      initArrays(a.hostData(), b.hostData(), c.hostData(), p.n);
      machine.launch(sim::LaunchSpec(units, [&](sim::CoreContext& ctx) {
        return streamRcce(ctx, p, a, b, c, stage, use_mpb);
      }).withPlan(&plan));
      runAndRecord(result, machine, plan, mode);
      verified = checkArrays(a.hostData(), b.hostData(), c.hostData(), p.n);
    }

    result.verified = verified;
    deriveDetail(result, verified ? "arrays=ok" : "arrays=MISMATCH");
    return result;
  }

  StreamParams params_;
};

}  // namespace

std::unique_ptr<Benchmark> makeStream(double scale) {
  return std::make_unique<Stream>(scale);
}

}  // namespace hsm::workloads
