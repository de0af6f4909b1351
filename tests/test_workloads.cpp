// Integration tests: every benchmark x every mode computes a verified
// result, plus the performance-shape properties the paper's evaluation
// rests on (parallel speedup, MPB vs off-chip ordering, load imbalance).
#include <gtest/gtest.h>

#include <random>
#include <utility>
#include <vector>

#include "workloads/benchmark.h"
#include "workloads/count_primes.h"
#include "workloads/sum35.h"

namespace hsm::workloads {
namespace {

constexpr double kTestScale = 0.05;  // keep simulations fast in unit tests

struct ModeCase {
  const char* benchmark;
  Mode mode;
};

class EveryBenchmarkEveryMode : public ::testing::TestWithParam<ModeCase> {};

std::unique_ptr<Benchmark> make(const std::string& name, double scale) {
  if (name == "PiApprox") return makePiApprox(scale);
  if (name == "3-5-Sum") return makeSum35(scale);
  if (name == "CountPrimes") return makeCountPrimes(scale);
  if (name == "Stream") return makeStream(scale);
  if (name == "DotProduct") return makeDotProduct(scale);
  if (name == "LU") return makeLuDecomposition(scale);
  return nullptr;
}

TEST_P(EveryBenchmarkEveryMode, ComputesVerifiedResult) {
  const ModeCase& c = GetParam();
  const auto bench = make(c.benchmark, kTestScale);
  ASSERT_NE(bench, nullptr);
  const sim::SccConfig config;
  const RunResult r = bench->run(c.mode, 8, config);
  EXPECT_TRUE(r.verified) << r.benchmark << " " << modeName(r.mode) << ": " << r.detail;
  EXPECT_GT(r.makespan, 0u);
}

std::vector<ModeCase> allCases() {
  std::vector<ModeCase> cases;
  for (const char* name :
       {"PiApprox", "3-5-Sum", "CountPrimes", "Stream", "DotProduct", "LU"}) {
    for (const Mode mode :
         {Mode::PthreadSingleCore, Mode::RcceOffChip, Mode::RcceMpb}) {
      cases.push_back(ModeCase{name, mode});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllCombinations, EveryBenchmarkEveryMode,
                         ::testing::ValuesIn(allCases()),
                         [](const ::testing::TestParamInfo<ModeCase>& info) {
                           std::string name = info.param.benchmark;
                           name += "_";
                           name += modeName(info.param.mode);
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(BlockSlice, CoversRangeWithoutOverlap) {
  for (const std::size_t n : {1u, 7u, 64u, 1000u}) {
    for (const int units : {1, 3, 8, 32}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (int u = 0; u < units; ++u) {
        const Slice s = blockSlice(n, units, u);
        EXPECT_EQ(s.first, prev_end);
        prev_end = s.last;
        covered += s.size();
      }
      EXPECT_EQ(covered, n) << "n=" << n << " units=" << units;
      EXPECT_EQ(prev_end, n);
    }
  }
}

TEST(BlockSlice, BalancedWithinOne) {
  for (int u = 0; u < 32; ++u) {
    const Slice s = blockSlice(1000, 32, u);
    EXPECT_GE(s.size(), 31u);
    EXPECT_LE(s.size(), 32u);
  }
}

// --- performance-shape properties (the paper's qualitative claims) -----------

TEST(PerformanceShape, ComputeBoundBenchmarkScalesNearLinearly) {
  const auto pi = makePiApprox(kTestScale);
  const sim::SccConfig config;
  const RunResult base = pi->run(Mode::PthreadSingleCore, 16, config);
  const RunResult rcce = pi->run(Mode::RcceOffChip, 16, config);
  const double speedup =
      static_cast<double>(base.makespan) / static_cast<double>(rcce.makespan);
  EXPECT_GT(speedup, 13.0);  // ~16x ideal at 16 cores
  EXPECT_LT(speedup, 17.5);
}

TEST(PerformanceShape, CountPrimesSuffersLoadImbalance) {
  const auto primes = makeCountPrimes(kTestScale);
  const sim::SccConfig config;
  const RunResult base = primes->run(Mode::PthreadSingleCore, 16, config);
  const RunResult rcce = primes->run(Mode::RcceOffChip, 16, config);
  const double speedup =
      static_cast<double>(base.makespan) / static_cast<double>(rcce.makespan);
  // Block partitioning gives the top block ~2x the mean work (paper: 16x
  // instead of 32x at 32 cores).
  EXPECT_LT(speedup, 12.0);
  EXPECT_GT(speedup, 4.0);
}

TEST(PerformanceShape, MpbNeverSlowerThanOffChip) {
  const sim::SccConfig config;
  for (const auto& bench : standardSuite(kTestScale)) {
    const RunResult off = bench->run(Mode::RcceOffChip, 8, config);
    const RunResult mpb = bench->run(Mode::RcceMpb, 8, config);
    EXPECT_LE(mpb.makespan, off.makespan + off.makespan / 10)
        << bench->name() << ": MPB placement must not significantly hurt";
  }
}

TEST(PerformanceShape, StreamGainsMostFromMpb) {
  const sim::SccConfig config;
  auto ratio = [&](Benchmark& b) {
    const RunResult off = b.run(Mode::RcceOffChip, 8, config);
    const RunResult mpb = b.run(Mode::RcceMpb, 8, config);
    return static_cast<double>(off.makespan) / static_cast<double>(mpb.makespan);
  };
  const auto stream = makeStream(kTestScale);
  const auto pi = makePiApprox(kTestScale);
  const auto lu = makeLuDecomposition(kTestScale);
  const double stream_gain = ratio(*stream);
  const double pi_gain = ratio(*pi);
  const double lu_gain = ratio(*lu);
  EXPECT_GT(stream_gain, 1.5);            // memory benchmark gains a lot
  EXPECT_LT(pi_gain, 1.2);                // compute benchmark barely moves
  EXPECT_LT(lu_gain, stream_gain);        // LU's matrix does not fit: slight
  EXPECT_GT(stream_gain, pi_gain);
}

TEST(PerformanceShape, MoreCoresMoreSpeed) {
  const auto pi = makePiApprox(kTestScale);
  const sim::SccConfig config;
  const RunResult r4 = pi->run(Mode::RcceMpb, 4, config);
  const RunResult r16 = pi->run(Mode::RcceMpb, 16, config);
  EXPECT_LT(r16.makespan, r4.makespan / 3);
}

// --- CountPrimes' closed-form host arithmetic ---------------------------------

// Algorithm 11's literal inner loop: the oracle for primeTrials.
std::pair<bool, std::size_t> trialDivide(std::size_t i) {
  if (i < 2) return {false, 0};
  std::size_t trials = 0;
  for (std::size_t j = 2; j < i; ++j) {
    ++trials;
    if (i % j == 0) return {false, trials};
  }
  return {true, trials};
}

TEST(CountPrimesClosedForm, MatchesTrialDivisionLoop) {
  constexpr std::size_t kLimit = 20'000;  // CountPrimes' limit at scale 1.0
  const std::vector<std::uint32_t> spf = smallestPrimeFactors(kLimit);
  ASSERT_EQ(spf.size(), kLimit + 1);
  for (std::size_t c = 0; c <= kLimit; ++c) {
    ASSERT_EQ(primeTrials(spf, c), trialDivide(c)) << "candidate " << c;
  }
}

TEST(CountPrimesClosedForm, SieveReferenceCountsPrimes) {
  EXPECT_EQ(sievePrimeCount(1), 0);
  EXPECT_EQ(sievePrimeCount(2), 1);
  EXPECT_EQ(sievePrimeCount(1000), 168);
  EXPECT_EQ(sievePrimeCount(20'000), 2262);
}

// --- 3-5-Sum's closed-form host arithmetic -----------------------------------

// The twin's former per-candidate loop: the oracle for both closed forms.
long long sum35Loop(std::size_t first, std::size_t last) {
  long long sum = 0;
  for (std::size_t i = first; i < last; ++i) {
    if (i % 3 == 0 || i % 5 == 0) sum += static_cast<long long>(i);
  }
  return sum;
}

TEST(Sum35ClosedForm, MatchesLoop) {
  // Every chunk [a, b) with b <= 20000, against prefix sums of the loop.
  constexpr std::size_t kMax = 20'000;
  std::vector<long long> prefix(kMax + 1, 0);
  for (std::size_t n = 1; n <= kMax; ++n) prefix[n] = prefix[n - 1] + sum35Loop(n - 1, n);
  for (std::size_t b = 0; b <= kMax; ++b) {
    for (std::size_t a = 0; a <= b; ++a) {
      if (sum35Range(a, b) != prefix[b] - prefix[a]) {
        FAIL() << "[" << a << ", " << b << "): " << sum35Range(a, b) << " vs "
               << prefix[b] - prefix[a];
      }
    }
  }
  // Random chunks up to the paper-scale limit, against the loop itself.
  std::mt19937_64 rng(35);
  std::uniform_int_distribution<std::size_t> point(0, 3'000'000);
  for (int trial = 0; trial < 64; ++trial) {
    std::size_t a = point(rng);
    std::size_t b = point(rng);
    if (a > b) std::swap(a, b);
    ASSERT_EQ(sum35Range(a, b), sum35Loop(a, b)) << "[" << a << ", " << b << ")";
  }
  EXPECT_EQ(sum35Range(0, 3'000'000), sum35Loop(0, 3'000'000));
}

TEST(Sum35ClosedForm, ReferenceMatchesLoop) {
  long long loop = 0;
  for (std::size_t n = 0; n <= 20'000; ++n) {
    ASSERT_EQ(sum35Reference(n), loop) << "limit " << n;
    loop += sum35Loop(n, n + 1);
  }
  EXPECT_EQ(sum35Reference(1000), 233'168);  // Project Euler 1
  EXPECT_EQ(sum35Reference(3'000'000), sum35Loop(0, 3'000'000));
}

TEST(Workloads, SuiteHasSixBenchmarksInPaperOrder) {
  const auto suite = standardSuite(kTestScale);
  ASSERT_EQ(suite.size(), 6u);
  EXPECT_EQ(suite[0]->name(), "PiApprox");
  EXPECT_EQ(suite[1]->name(), "3-5-Sum");
  EXPECT_EQ(suite[2]->name(), "CountPrimes");
  EXPECT_EQ(suite[3]->name(), "Stream");
  EXPECT_EQ(suite[4]->name(), "DotProduct");
  EXPECT_EQ(suite[5]->name(), "LU");
}

TEST(Workloads, PthreadSourcesExistForAllBenchmarks) {
  for (const std::string& name : pthreadSourceNames()) {
    EXPECT_FALSE(pthreadSource(name).empty()) << name;
    EXPECT_NE(pthreadSource(name).find("pthread_create"), std::string::npos) << name;
  }
  EXPECT_THROW((void)pthreadSource("NoSuchBenchmark"), std::out_of_range);
}

}  // namespace
}  // namespace hsm::workloads
