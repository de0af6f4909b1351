#include "workloads/kv_store.h"

#include <cmath>
#include <cstring>
#include <map>
#include <utility>

#include "workloads/binding.h"

namespace hsm::workloads {
namespace {

constexpr std::size_t kWordsPerItem = 4;  // 32 B items, 4 uncached 8 B words

/// Canonical item contents of `key` — what the slab is prepopulated with and
/// the only thing a set ever writes.
std::uint64_t canonicalWord(std::uint32_t key, std::size_t word) {
  return kvMix64((static_cast<std::uint64_t>(key) << 8) ^ word);
}

std::uint64_t ueSeed(std::uint64_t seed, int ue) {
  return kvMix64(seed ^ (static_cast<std::uint64_t>(ue) << 32));
}

/// Op `i` of UE `ue` is a get iff this counter-based draw lands under the
/// ratio — independent of the Zipf stream so the mix stays unbiased by key.
bool opIsGet(const KvParams& p, int ue, std::uint32_t i) {
  const std::uint64_t draw =
      kvMix64(p.seed ^ 0xD1CEULL ^ (static_cast<std::uint64_t>(ue) << 40) ^ i);
  return static_cast<double>(draw >> 11) * 0x1.0p-53 < p.get_ratio;
}

std::uint32_t indexCapacity(std::uint32_t num_keys) {
  std::uint32_t cap = 1;
  while (cap < 2 * num_keys) cap *= 2;
  return cap;
}

/// Build the open-addressing table: entry = (key+1) << 32 | slot, 0 = empty,
/// linear probing from splitmix64(key). Slot ids equal keys (slab in key
/// order), so the hottest items sit in the lowest stripes — the address
/// concentration a striped controller placement turns into a hot spot.
void buildIndex(const KvParams& p, std::uint64_t* index, std::uint32_t cap) {
  std::memset(index, 0, static_cast<std::size_t>(cap) * sizeof(std::uint64_t));
  const std::uint32_t mask = cap - 1;
  for (std::uint32_t key = 0; key < p.num_keys; ++key) {
    std::uint64_t h = kvMix64(key) & mask;
    while (index[h] != 0) h = (h + 1) & mask;
    index[h] = ((static_cast<std::uint64_t>(key) + 1) << 32) | key;
  }
}

void buildSlab(const KvParams& p, std::uint64_t* slots) {
  for (std::uint32_t key = 0; key < p.num_keys; ++key) {
    for (std::size_t w = 0; w < kWordsPerItem; ++w) {
      slots[key * kWordsPerItem + w] = canonicalWord(key, w);
    }
  }
}

template <typename B>
sim::SimTask kvKernel(typename B::Context& ctx, KvParams p, ZipfCdf cdf, std::uint32_t mask,
                      ArrayOf<B, std::uint64_t> index, ArrayOf<B, std::uint64_t> slots,
                      ArrayOf<B, std::uint64_t> checks) {
  ZipfGenerator zipf(std::move(cdf), ueSeed(p.seed, ctx.ue()));
  std::uint64_t chk = 0;
  std::uint64_t item[kWordsPerItem];
  for (std::uint32_t i = 0; i < p.ops_per_ue; ++i) {
    const std::uint32_t key = zipf.next();
    std::uint64_t h = kvMix64(key) & mask;
    std::uint64_t entry = 0;
    for (;;) {
      co_await index.read(ctx, h, &entry);
      co_await ctx.computeOps(2, sim::OpClass::IntAlu);
      if ((entry >> 32) == static_cast<std::uint64_t>(key) + 1) break;
      h = (h + 1) & mask;
    }
    const auto slot = static_cast<std::uint32_t>(entry & 0xFFFFFFFFULL);
    if (opIsGet(p, ctx.ue(), i)) {
      co_await slots.readBlock(ctx, slot * kWordsPerItem, kWordsPerItem, item);
      for (std::size_t w = 0; w < kWordsPerItem; ++w) chk = kvMix64(chk ^ item[w]);
      co_await ctx.computeOps(kWordsPerItem, sim::OpClass::IntAlu);
    } else {
      for (std::size_t w = 0; w < kWordsPerItem; ++w) item[w] = canonicalWord(key, w);
      co_await ctx.computeOps(kWordsPerItem, sim::OpClass::IntAlu);
      co_await slots.writeBlock(ctx, slot * kWordsPerItem, kWordsPerItem, item);
    }
  }
  co_await checks.write(ctx, static_cast<std::size_t>(ctx.ue()), chk);
  co_await B::joinBarrier(ctx);
}

template <typename B>
struct KvArrays {
  ArrayOf<B, std::uint64_t> index;
  ArrayOf<B, std::uint64_t> slots;
  ArrayOf<B, std::uint64_t> checks;
};

/// Allocate and prepopulate the KV regions in binding `bind`, then launch
/// `ues` copies of the kernel. In the pthread process the index starts at
/// 4096, with the slab and the check cells after it.
template <typename B>
KvArrays<B> launchKv(B& bind, const KvParams& p, int ues, const ZipfCdf& cdf) {
  const std::uint32_t cap = indexCapacity(p.num_keys);
  const std::uint32_t mask = cap - 1;
  const std::size_t slot_words = static_cast<std::size_t>(p.num_keys) * kWordsPerItem;
  const std::uint64_t index0 = 4096;
  const std::uint64_t slots0 = index0 + static_cast<std::uint64_t>(cap) * 8;
  KvArrays<B> kv{
      bind.template array<std::uint64_t>(
          {.name = "kv_index", .count = cap, .priv_addr = index0}),
      bind.template array<std::uint64_t>(
          {.name = "kv_slots", .count = slot_words, .priv_addr = slots0}),
      bind.template array<std::uint64_t>({.name = "kv_checks",
                                          .count = static_cast<std::size_t>(ues),
                                          .priv_addr = slots0 + slot_words * 8})};
  buildIndex(p, kv.index.hostData(), cap);
  buildSlab(p, kv.slots.hostData());
  std::memset(kv.checks.hostData(), 0, static_cast<std::size_t>(ues) * 8);
  // Deliberate benign race: PUTs store the key's CANONICAL value, so two UEs
  // writing the same slot unsynchronized always land identical idempotent
  // bytes (that is the workload's last-writer-wins contract, and what the
  // GET-side checksum verifies). Exempt the slab so the race detector does
  // not flag the contract the benchmark intentionally exercises; kv_index is
  // read-only after setup and kv_checks is per-UE disjoint — both clean.
  kv.slots.exemptFromRaceCheck();
  // launch() invokes the program synchronously per context; the coroutine
  // copies the arrays into its frame.
  bind.launch([&](typename B::Context& ctx) {
    return kvKernel<B>(ctx, p, cdf, mask, kv.index, kv.slots, kv.checks);
  });
  return kv;
}

class KvStore final : public Benchmark {
 public:
  explicit KvStore(KvParams params) : params_(params) {}
  KvStore(KvParams params, double scale) : params_(params) {
    params_.ops_per_ue =
        static_cast<std::uint32_t>(static_cast<double>(params_.ops_per_ue) * scale);
    if (params_.ops_per_ue < 64) params_.ops_per_ue = 64;
  }

  [[nodiscard]] std::string name() const override { return "KvStore"; }

  // Every region off-chip uncached with owner-compute controllers: the
  // empty plan.
  [[nodiscard]] partition::ExecutionPlan handPlan() const override { return {}; }

 private:
  [[nodiscard]] RunResult execute(Mode mode, int units, const sim::SccConfig& config,
                                  const partition::ExecutionPlan& plan) const override {
    const KvParams p = params_;
    const ZipfCdf cdf = makeZipfCdf(p.num_keys, p.alpha);
    return runBound(mode, units, config, plan, [&]<typename B>(B& bind, RunResult& result) {
      KvArrays<B> kv = launchKv(bind, p, units, cdf);
      bind.run(result);
      std::vector<std::uint64_t> computed(kv.checks.hostData(),
                                          kv.checks.hostData() + units);
      result.verified = slabCanonical(p, kv.slots.hostData()) &&
                        computed == referenceChecksums(cdf, units);
      deriveDetail(result,
                   "chk0=" + std::to_string(computed[0]) + " ops=" +
                       std::to_string(static_cast<std::uint64_t>(p.ops_per_ue) *
                                      static_cast<std::uint64_t>(units)));
    });
  }

  static bool slabCanonical(const KvParams& p, const std::uint64_t* slab) {
    for (std::uint32_t key = 0; key < p.num_keys; ++key) {
      for (std::size_t w = 0; w < kWordsPerItem; ++w) {
        if (slab[key * kWordsPerItem + w] != canonicalWord(key, w)) return false;
      }
    }
    return true;
  }

  /// Every UE's expected checksum, replayed once per unit count: a pure
  /// function of params_ that never reads the twin it verifies. The cache
  /// is unguarded; a store is not run from two host threads at once.
  const std::vector<std::uint64_t>& referenceChecksums(const ZipfCdf& cdf,
                                                       int units) const {
    std::vector<std::uint64_t>& sums = reference_checksums_[units];
    if (sums.empty()) {
      for (int u = 0; u < units; ++u) sums.push_back(kvReferenceChecksum(params_, cdf, u));
    }
    return sums;
  }

  KvParams params_;
  mutable std::map<int, std::vector<std::uint64_t>> reference_checksums_;
};

}  // namespace

partition::ExecutionPlan kvStorePlan(const KvParams& params,
                                     partition::ControllerPlacement controller) {
  using partition::MpbPattern;
  using partition::PlacementClass;
  using partition::RegionPlan;
  return partition::ExecutionPlan{
      {RegionPlan{"kv_index", PlacementClass::kOffChipUncached, MpbPattern::kNone,
                  std::size_t{indexCapacity(params.num_keys)} * 8, controller},
       RegionPlan{"kv_slots", PlacementClass::kOffChipUncached, MpbPattern::kNone,
                  std::size_t{params.num_keys} * kWordsPerItem * 8, controller},
       RegionPlan{"kv_checks", PlacementClass::kOffChipUncached, MpbPattern::kNone,
                  8 * 8}}};
}

KvLayout setupKvRcce(sim::SccMachine& machine, const KvParams& params, int ues,
                     const partition::ExecutionPlan& plan, Mode mode, ZipfCdf cdf) {
  if (cdf == nullptr) cdf = makeZipfCdf(params.num_keys, params.alpha);
  RcceBinding bind(machine, ues, plan, mode);
  const KvArrays<RcceBinding> kv = launchKv(bind, params, ues, cdf);
  return KvLayout{kv.index.byteOffset(0), kv.slots.byteOffset(0), kv.checks.byteOffset(0)};
}

std::uint64_t kvReferenceChecksum(const KvParams& params, const ZipfCdf& cdf, int ue) {
  ZipfGenerator zipf(cdf, ueSeed(params.seed, ue));
  std::uint64_t chk = 0;
  for (std::uint32_t i = 0; i < params.ops_per_ue; ++i) {
    const std::uint32_t key = zipf.next();
    if (!opIsGet(params, ue, i)) continue;
    for (std::size_t w = 0; w < kWordsPerItem; ++w) {
      chk = kvMix64(chk ^ canonicalWord(key, w));
    }
  }
  return chk;
}

ZipfCdf makeZipfCdf(std::uint32_t num_keys, double alpha) {
  if (num_keys == 0) num_keys = 1;
  auto table = std::make_shared<ZipfTable>();
  std::vector<double>& cdf = table->cdf;
  cdf.resize(num_keys);
  double total = 0.0;
  for (std::uint32_t k = 0; k < num_keys; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), alpha);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  cdf.back() = 1.0;  // guard against accumulated rounding at the tail
  std::size_t buckets = 1;
  while (buckets < num_keys) buckets *= 2;
  table->guide.resize(buckets);
  std::uint32_t k = 0;
  for (std::size_t j = 0; j < buckets; ++j) {
    // Edges are below 1 == cdf.back(), so the scan stops inside the table.
    const double edge = static_cast<double>(j) / static_cast<double>(buckets);
    while (cdf[k] <= edge) ++k;
    table->guide[j] = k;
  }
  return table;
}

ZipfGenerator::ZipfGenerator(std::uint32_t num_keys, double alpha, std::uint64_t seed)
    : ZipfGenerator(makeZipfCdf(num_keys, alpha), seed) {}

ZipfGenerator::ZipfGenerator(ZipfCdf cdf, std::uint64_t seed)
    : cdf_(std::move(cdf)), seed_(seed) {}

std::uint32_t ZipfGenerator::next() {
  const std::uint64_t bits = kvMix64(seed_ ^ (counter_++ * 0x9E3779B97F4A7C15ULL));
  const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
  return cdf_->rank(u);
}

double ZipfGenerator::probability(std::uint32_t k) const {
  const std::vector<double>& cdf = cdf_->cdf;
  if (k >= cdf.size()) return 0.0;
  return k == 0 ? cdf[0] : cdf[k] - cdf[k - 1];
}

std::unique_ptr<Benchmark> makeKvStore(double scale) {
  return std::make_unique<KvStore>(KvParams{}, scale);
}

std::unique_ptr<Benchmark> makeKvStore(const KvParams& params) {
  return std::make_unique<KvStore>(params);
}

}  // namespace hsm::workloads
