// Count Primes (paper Algorithm 11): trial division with the full j<i loop.
// Work per candidate grows with its value, so block partitioning leaves the
// high-range cores with ~2x the average work — the load imbalance behind
// CountPrimes' ~16x (not 32x) in Fig. 6.1.
//
// Simulated time charges every trial division of that loop. The host does
// not run it: each candidate's result and trial count come in closed form
// from a smallest-prime-factor table built once per CountPrimes object
// (count_primes.h), and the run is verified against a separate Sieve of
// Eratosthenes.
#include "workloads/count_primes.h"

#include "workloads/benchmark.h"
#include "workloads/binding.h"

namespace hsm::workloads {

std::vector<std::uint32_t> smallestPrimeFactors(std::size_t limit) {
  std::vector<std::uint32_t> spf(limit + 1, 0);
  for (std::size_t p = 2; p <= limit; ++p) {
    if (spf[p] != 0) continue;
    for (std::size_t m = p; m <= limit; m += p) {
      if (spf[m] == 0) spf[m] = static_cast<std::uint32_t>(p);
    }
  }
  return spf;
}

long long sievePrimeCount(std::size_t limit) {
  std::vector<bool> composite(limit + 1, false);
  long long count = 0;
  for (std::size_t i = 2; i <= limit; ++i) {
    if (composite[i]) continue;
    ++count;
    for (std::size_t m = i * i; m <= limit; m += i) composite[m] = true;
  }
  return count;
}

namespace {

constexpr int kSumLock = 0;

struct PrimesParams {
  std::size_t limit = 20'000;
};

// Candidates are batched (one event per batch) while accumulating the
// simulated division cost exactly. `spf` is the owning CountPrimes object's
// table, which outlives every run it launches.

template <typename B>
sim::SimTask primesKernel(typename B::Context& ctx, PrimesParams p,
                          const std::vector<std::uint32_t>* spf,
                          ArrayOf<B, long long> total) {
  const Slice s = blockSlice(p.limit - 1, ctx.numUes(), ctx.ue());
  const std::size_t lo = 2 + s.first;
  const std::size_t hi = 2 + s.last;
  long long primes = 0;
  constexpr std::size_t kBatch = 64;
  for (std::size_t i = lo; i < hi; i += kBatch) {
    const std::size_t end = std::min(i + kBatch, hi);
    std::uint64_t divisions = 0;
    for (std::size_t c = i; c < end; ++c) {
      const auto [is_prime, trials] = primeTrials(*spf, c);
      primes += is_prime ? 1 : 0;
      divisions += trials;
    }
    co_await ctx.computeOps(divisions, sim::OpClass::IntDiv);
    co_await ctx.computeOps(divisions, sim::OpClass::IntAlu);
  }
  co_await ctx.lockAcquire(kSumLock);
  long long global = 0;
  co_await total.read(ctx, 0, &global);
  global += primes;
  co_await total.write(ctx, 0, global);
  co_await ctx.lockRelease(kSumLock);
  co_await B::joinBarrier(ctx);
}

class CountPrimes final : public Benchmark {
 public:
  explicit CountPrimes(double scale)
      : params_(scaledParams(scale)), spf_(smallestPrimeFactors(params_.limit)) {}

  [[nodiscard]] std::string name() const override { return "CountPrimes"; }

  // "total" is the source's per-thread count array, summed in main: on chip
  // the reduction funnels through UE 0's slot.
  [[nodiscard]] partition::ExecutionPlan handPlan() const override {
    using namespace partition;
    return ExecutionPlan{
        {RegionPlan{"total", PlacementClass::kOnChipResident, MpbPattern::kRootFunnel, 8}}};
  }

 private:
  [[nodiscard]] RunResult execute(Mode mode, int units, const sim::SccConfig& config,
                                  const partition::ExecutionPlan& plan) const override {
    const PrimesParams p = params_;
    return runBound(mode, units, config, plan, [&]<typename B>(B& bind, RunResult& result) {
      ArrayOf<B, long long> total =
          bind.template array<long long>({.name = "total", .count = 1, .priv_addr = 0});
      *total.hostData() = 0;
      bind.launch([&](typename B::Context& ctx) {
        return primesKernel<B>(ctx, p, &spf_, total);
      });
      bind.run(result);
      const long long computed = *total.hostData();
      result.verified = computed == sievePrimeCount(p.limit);
      deriveDetail(result, "primes=" + std::to_string(computed));
    });
  }

  static PrimesParams scaledParams(double scale) {
    PrimesParams p;
    p.limit = static_cast<std::size_t>(static_cast<double>(p.limit) * scale);
    if (p.limit < 100) p.limit = 100;
    return p;
  }

  PrimesParams params_;
  const std::vector<std::uint32_t> spf_;  ///< smallestPrimeFactors(params_.limit)
};

}  // namespace

std::unique_ptr<Benchmark> makeCountPrimes(double scale) {
  return std::make_unique<CountPrimes>(scale);
}

}  // namespace hsm::workloads
