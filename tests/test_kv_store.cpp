// KV-store workload under Zipf traffic and the controller-placement
// machinery it is sized against:
//   * ZipfGenerator determinism (same seed → identical streams on replay),
//     seed decorrelation, and measured skew against probability();
//   * address→controller routing per ControllerPlacement (striped requester-
//     independence, pinning, deterministic first-touch claims, the
//     owner-compute fallthrough for unplanned addresses);
//   * per-controller traffic conservation: the controller counters must sum
//     to exactly the machine's uncached words + swcache lines + bulk lines
//     under MIXED planned/unplanned regions;
//   * the KvStore benchmark verifies in all three modes, surfaces
//     controller_traffic / controller_load_cv through RunResult, and a
//     striped plan measurably hot-spots where owner-compute stays flat;
//   * name drift of a controller-placed region trips the
//     plan_regions_unrealized detector.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "partition/execution_plan.h"
#include "sim/machine.h"
#include "workloads/kv_store.h"

namespace hsm {
namespace {

using partition::ControllerPlacement;
using partition::ExecutionPlan;
using partition::MpbPattern;
using partition::PlacementClass;
using partition::RegionPlan;
using workloads::KvParams;
using workloads::ZipfGenerator;

// --- Zipf generator ----------------------------------------------------------

TEST(ZipfGenerator, SameSeedReplaysIdentically) {
  ZipfGenerator a(1024, 1.2, 0xFEEDULL);
  ZipfGenerator b(1024, 1.2, 0xFEEDULL);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_EQ(a.next(), b.next()) << "diverged at draw " << i;
  }
}

TEST(ZipfGenerator, DistinctSeedsDecorrelate) {
  ZipfGenerator a(1024, 1.2, 1);
  ZipfGenerator b(1024, 1.2, 2);
  int agreements = 0;
  for (int i = 0; i < 10000; ++i) {
    if (a.next() == b.next()) ++agreements;
  }
  // Independent Zipf(1.2) streams collide with probability sum(p_k^2) ≈ 5%;
  // correlated streams would agree far more often.
  EXPECT_GT(agreements, 0);
  EXPECT_LT(agreements, 2000);
}

TEST(ZipfGenerator, MeasuredSkewMatchesProbability) {
  const std::uint32_t n = 512;
  ZipfGenerator g(n, 1.2, 0xABCDULL);
  constexpr int kDraws = 200000;
  std::vector<int> freq(n, 0);
  for (int i = 0; i < kDraws; ++i) freq[g.next()]++;
  for (std::uint32_t k = 0; k < 8; ++k) {
    const double measured = static_cast<double>(freq[k]) / kDraws;
    EXPECT_NEAR(measured, g.probability(k), 0.01) << "rank " << k;
  }
  double total = 0.0;
  for (std::uint32_t k = 0; k < n; ++k) {
    total += g.probability(k);
    if (k > 0) EXPECT_LE(g.probability(k), g.probability(k - 1));
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(g.probability(0), 0.15);  // alpha 1.2 concentrates the head
}

/// The inverse CDF as ZipfGenerator computed it before the guide table: a
/// binary search for the first rank whose cumulative mass exceeds u.
std::uint32_t binarySearchRank(const std::vector<double>& cdf, double u) {
  std::uint32_t lo = 0;
  std::uint32_t hi = static_cast<std::uint32_t>(cdf.size()) - 1;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (cdf[mid] <= u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// The guide-table scan must return exactly the binary search's rank: on the
// generator's own draws (its uniform derivation restated here), and at the
// values where an off-by-one would show — every bucket edge j/G, every cdf
// value, and their floating-point neighbours.
TEST(ZipfGenerator, GuideTableMatchesBinarySearch) {
  std::uint64_t draws = 0;
  for (const std::uint32_t num_keys : {1u, 2u, 3u, 100u, 1000u, 4096u, 5000u}) {
    for (const double alpha : {0.6, 1.0, 1.2, 2.5}) {
      const workloads::ZipfCdf table = workloads::makeZipfCdf(num_keys, alpha);
      const std::vector<double>& cdf = table->cdf;
      ASSERT_EQ(cdf.size(), num_keys);
      for (const std::uint64_t seed : {1ULL, 0x5EEDBA5EULL, 0xFEEDFACEULL}) {
        ZipfGenerator g(table, seed);
        for (std::uint64_t i = 0; i < 12000; ++i, ++draws) {
          const std::uint64_t bits =
              workloads::kvMix64(seed ^ (i * 0x9E3779B97F4A7C15ULL));
          const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
          ASSERT_EQ(g.next(), binarySearchRank(cdf, u))
              << "keys " << num_keys << " alpha " << alpha << " seed " << seed
              << " draw " << i;
        }
      }
      std::vector<double> probes;
      const double buckets = static_cast<double>(table->guide.size());
      for (std::size_t j = 0; j < table->guide.size(); ++j) {
        probes.push_back(static_cast<double>(j) / buckets);
      }
      probes.insert(probes.end(), cdf.begin(), cdf.end());
      for (const double p : std::vector<double>(probes)) {
        probes.push_back(std::nextafter(p, 0.0));
        probes.push_back(std::nextafter(p, 1.0));
      }
      for (const double u : probes) {
        if (u < 0.0 || u >= 1.0) continue;
        ASSERT_EQ(table->rank(u), binarySearchRank(cdf, u))
            << "keys " << num_keys << " alpha " << alpha << " u " << u;
      }
    }
  }
  EXPECT_GE(draws, 1000000u);
}

// --- address→controller routing ---------------------------------------------

TEST(ControllerPlacementRouting, StripedPinnedFirstTouchOwnerCompute) {
  sim::SccConfig cfg;
  sim::SccMachine m(cfg);
  const std::uint64_t striped = m.shmalloc(4096);
  const std::uint64_t pinned = m.shmalloc(4096);
  const std::uint64_t first_touch = m.shmalloc(4096);
  const std::uint64_t unplanned = m.shmalloc(4096);
  m.setShmControllerPlacement(striped, striped + 4096,
                              ControllerPlacement::kStriped);
  m.setShmControllerPlacement(pinned, pinned + 4096, ControllerPlacement::kPinned,
                              2);
  m.setShmControllerPlacement(first_touch, first_touch + 4096,
                              ControllerPlacement::kFirstTouch);

  const std::uint64_t stripe = cfg.shm_controller_stripe_bytes;
  for (std::uint64_t off = 0; off < 4096; off += 8) {
    const auto expected =
        static_cast<std::uint32_t>((off / stripe) % cfg.num_mem_controllers);
    // Striped: pure function of the address, independent of the requester.
    EXPECT_EQ(m.controllerForShmAccess(0, striped + off), expected);
    EXPECT_EQ(m.controllerForShmAccess(47, striped + off), expected);
    EXPECT_EQ(m.controllerForShmAccess(5, pinned + off), 2u);
  }

  // Owner-compute fallthrough on unplanned addresses is the core's quadrant
  // controller — capture it per core, then check first-touch claims follow
  // the FIRST toucher everywhere, not the later requesters.
  const std::uint32_t quad0 = m.controllerForShmAccess(0, unplanned);
  const std::uint32_t quad47 = m.controllerForShmAccess(47, unplanned);
  EXPECT_EQ(m.controllerForShmAccess(0, first_touch), quad0);
  EXPECT_EQ(m.controllerForShmAccess(47, first_touch + 8), quad0);  // same stripe
  EXPECT_EQ(m.controllerForShmAccess(47, first_touch + stripe), quad47);
  EXPECT_EQ(m.controllerForShmAccess(0, first_touch + stripe + 8), quad47);
}

// --- traffic conservation ----------------------------------------------------

sim::SimTask mixedTrafficKernel(sim::CoreContext& ctx, std::uint64_t planned,
                                std::uint64_t unplanned, std::uint64_t bulk) {
  std::uint64_t words[8] = {};
  std::uint8_t burst[256] = {};
  const auto ue = static_cast<std::uint64_t>(ctx.ue());
  for (int i = 0; i < 4; ++i) {
    co_await ctx.shmRead(planned + ue * 64, words, sizeof(words));
    co_await ctx.shmWrite(unplanned + ue * 64, words, sizeof(words));
    co_await ctx.shmReadBulk(bulk + ue * 256, burst, sizeof(burst));
  }
  co_await ctx.barrier();
}

TEST(ControllerTraffic, ConservesAcrossMixedPlannedAndUnplannedRegions) {
  sim::SccConfig cfg;
  sim::SccMachine m(cfg);
  const std::uint64_t planned = m.shmalloc(8 * 64);
  const std::uint64_t unplanned = m.shmalloc(8 * 64);
  const std::uint64_t bulk = m.shmalloc(8 * 256);
  m.setShmControllerPlacement(planned, planned + 8 * 64,
                              ControllerPlacement::kStriped);
  m.setShmControllerPlacement(bulk, bulk + 8 * 256, ControllerPlacement::kPinned,
                              1);
  m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
    return mixedTrafficKernel(ctx, planned, unplanned, bulk);
  }));
  m.run();

  const std::vector<std::uint64_t>& traffic = m.controllerTraffic();
  ASSERT_EQ(traffic.size(), cfg.num_mem_controllers);
  const std::uint64_t sum =
      std::accumulate(traffic.begin(), traffic.end(), std::uint64_t{0});
  EXPECT_GT(sum, 0u);
  EXPECT_EQ(sum, m.shmWordsSimulated() + m.swcacheLinesSimulated() +
                     m.shmBulkLinesSimulated());
  // The pinned bulk region's lines all land on controller 1.
  EXPECT_GE(traffic[1], m.shmBulkLinesSimulated());
}

TEST(ControllerTraffic, ConservesWithSwcacheRouting) {
  sim::SccConfig cfg;
  sim::SccMachine m(cfg);
  m.setShmCacheability(0, cfg.shared_dram_bytes, true);  // everything cached...
  const std::uint64_t cached = m.shmalloc(8 * 64);
  const std::uint64_t uncached = m.shmalloc(8 * 64);
  const std::uint64_t bulk = m.shmalloc(8 * 256);
  // ...but the uncached region, registered uncached later AND
  // controller-striped; cached/bulk stay on the whole-range routing.
  m.setShmCacheability(uncached, uncached + 8 * 64, false);
  m.setShmControllerPlacement(uncached, uncached + 8 * 64,
                              ControllerPlacement::kStriped);
  m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
    return mixedTrafficKernel(ctx, cached, uncached, bulk);
  }));
  m.run();

  const std::vector<std::uint64_t>& traffic = m.controllerTraffic();
  const std::uint64_t sum =
      std::accumulate(traffic.begin(), traffic.end(), std::uint64_t{0});
  EXPECT_GT(m.swcacheLinesSimulated(), 0u);
  EXPECT_GT(m.shmWordsSimulated(), 0u);
  EXPECT_GT(m.shmBulkLinesSimulated(), 0u);
  EXPECT_EQ(sum, m.shmWordsSimulated() + m.swcacheLinesSimulated() +
                     m.shmBulkLinesSimulated());
}

// --- the benchmark -----------------------------------------------------------

ExecutionPlan kvPlan(ControllerPlacement cp) {
  return ExecutionPlan{
      {RegionPlan{"kv_index", PlacementClass::kOffChipUncached, MpbPattern::kNone,
                  0, cp},
       RegionPlan{"kv_slots", PlacementClass::kOffChipUncached, MpbPattern::kNone,
                  0, cp},
       RegionPlan{"kv_checks", PlacementClass::kOffChipUncached,
                  MpbPattern::kNone, 0}}};
}

TEST(KvStore, VerifiesInAllThreeModes) {
  KvParams p;
  p.num_keys = 256;
  p.ops_per_ue = 192;
  const auto kv = workloads::makeKvStore(p);
  const sim::SccConfig cfg;
  // One store across unit counts: its reference checksums are kept per count.
  for (const int units : {4, 8, 4}) {
    for (const workloads::Mode mode :
         {workloads::Mode::PthreadSingleCore, workloads::Mode::RcceOffChip,
          workloads::Mode::RcceMpb}) {
      const workloads::RunResult r = kv->run(mode, units, cfg);
      EXPECT_TRUE(r.verified) << workloads::modeName(mode) << " units=" << units;
      EXPECT_GT(r.makespan, 0u) << workloads::modeName(mode);
    }
  }
}

TEST(KvStore, StripedPlanHotSpotsWhereOwnerComputeStaysFlat) {
  KvParams p;
  p.num_keys = 256;
  p.ops_per_ue = 256;
  const auto kv = workloads::makeKvStore(p);
  const sim::SccConfig cfg;
  const ExecutionPlan owner = kvPlan(ControllerPlacement::kOwnerCompute);
  const ExecutionPlan striped = kvPlan(ControllerPlacement::kStriped);
  const workloads::RunResult flat =
      kv->run(workloads::Mode::RcceOffChip, 8, cfg, &owner);
  const workloads::RunResult hot =
      kv->run(workloads::Mode::RcceOffChip, 8, cfg, &striped);
  ASSERT_TRUE(flat.verified);
  ASSERT_TRUE(hot.verified);
  EXPECT_EQ(flat.plan_regions_unrealized, 0u);
  EXPECT_EQ(hot.plan_regions_unrealized, 0u);
  ASSERT_EQ(flat.controller_traffic.size(), cfg.num_mem_controllers);
  ASSERT_EQ(hot.controller_traffic.size(), cfg.num_mem_controllers);
  // Same logical work either way — placement only reroutes it.
  EXPECT_EQ(std::accumulate(flat.controller_traffic.begin(),
                            flat.controller_traffic.end(), std::uint64_t{0}),
            std::accumulate(hot.controller_traffic.begin(),
                            hot.controller_traffic.end(), std::uint64_t{0}));
  EXPECT_LT(flat.controller_load_cv, 0.1);
  EXPECT_GT(hot.controller_load_cv, 2.0 * flat.controller_load_cv);
}

TEST(KvStore, ControllerPlacedRegionNameDriftIsDetected) {
  KvParams p;
  p.num_keys = 64;
  p.ops_per_ue = 64;
  const auto kv = workloads::makeKvStore(p);
  const sim::SccConfig cfg;
  // "kv_slot" (drifted name) carries a striped placement the workload can
  // never realize — the unrealized-region detector must count it.
  const ExecutionPlan drifted{{RegionPlan{"kv_slot", PlacementClass::kOffChipUncached,
                                          MpbPattern::kNone, 0,
                                          ControllerPlacement::kStriped}}};
  const workloads::RunResult r =
      kv->run(workloads::Mode::RcceOffChip, 4, cfg, &drifted);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.plan_regions_unrealized, 1u);
}

}  // namespace
}  // namespace hsm
