// Software-managed release-consistency cache for the shared off-chip
// address space (`swcache`).
//
// The SCC's shared pages are hardware-uncacheable: PR 1–3 made that
// word-granular path fast, but every access still pays a full
// core–mesh–controller round trip. The paper's architecture is *hybrid*,
// and the second enabler for pthreads-style workloads is letting each core
// cache shared data in its fast private memory and reconcile at
// synchronization points — the software-managed coherence of
// shared-virtual-memory systems (Hechtman & Sorin) and user-space hybrid
// page caches (hmem-sigsegv).
//
// Protocol (release consistency over data-race-free programs):
//   * reads miss into line-granular fills from shared DRAM;
//   * writes (write-back, write-allocate) dirty the per-core line store and
//     do NOT touch shared DRAM until reconciliation;
//   * RELEASE points (lock release, barrier arrival) write every dirty line
//     back — afterwards shared DRAM holds this core's writes;
//   * ACQUIRE points (lock acquire, barrier departure) self-invalidate every
//     *clean* line — stale copies of other cores' data are dropped, while
//     dirty lines (this core's own unreleased writes, which no other core
//     may race with in a DRF program) are retained;
//   * evictions write dirty victims back early, which is only ever
//     conservative (visibility before the release is harmless under DRF).
//
// For data-race-free programs the functional results are bit-identical with
// the cache on or off (docs/memory_model.md states the contract); racy
// programs observe unspecified-but-deterministic values. Timing is a NEW
// model — swcache runs make no Tick-identity promise against the uncached
// path (that guarantee continues to hold among the uncached modes).
//
// This class is purely functional + bookkeeping: it moves bytes between the
// per-core line store and the shared-DRAM backing and reports what a timed
// caller (SccMachine) must charge — line-touch hits, line fills and victim
// write-backs. SccMachine turns those counts into
// controller transactions, batched by the same joint replay as the word and
// MPB-chunk runs (SccMachine::timedRun), so line runs and word runs share
// a controller's run table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/cache.h"

namespace hsm::sim {

/// Per-core counters (word granularity matches the uncached path's metric:
/// one word = one 8-byte shared-memory transaction equivalent).
struct SwCacheStats {
  std::uint64_t word_accesses = 0;  ///< words served through the cache
  std::uint64_t word_hits = 0;      ///< words whose line was already present
  std::uint64_t line_fills = 0;     ///< line loads from shared DRAM
  std::uint64_t writebacks = 0;     ///< dirty-line stores (evictions + flushes)
  std::uint64_t flushes = 0;        ///< release-point flush operations
  std::uint64_t invalidated_lines = 0;  ///< clean lines dropped at acquires

  [[nodiscard]] double hitRate() const {
    return word_accesses > 0
               ? static_cast<double>(word_hits) / static_cast<double>(word_accesses)
               : 0.0;
  }
  SwCacheStats& operator+=(const SwCacheStats& o) {
    word_accesses += o.word_accesses;
    word_hits += o.word_hits;
    line_fills += o.line_fills;
    writebacks += o.writebacks;
    flushes += o.flushes;
    invalidated_lines += o.invalidated_lines;
    return *this;
  }
};

class SwCache {
 public:
  /// `num_lines` and `line_bytes` must be powers of two (sim/cache.h throws
  /// std::invalid_argument otherwise).
  SwCache(std::size_t num_lines, std::size_t line_bytes);

  /// What a timed caller must charge for one access (see header comment).
  struct AccessPlan {
    std::size_t hit_touches = 0;  ///< line touches served from the line store
    std::size_t line_txns = 0;    ///< controller line transfers (fills + victim
                                  ///< write-backs), batchable back-to-back
  };

  /// Functionally perform a read (`data_out`) or write (`data_in`) of
  /// [offset, offset+bytes) against the cache, line segment by line segment,
  /// filling from / writing back to the `dram` backing store as the protocol
  /// requires. Returns the timing plan. `word_bytes` is the uncached
  /// transaction size the stats count in (the FSB beat, 8 bytes).
  AccessPlan access(std::uint64_t offset, std::size_t bytes, bool write,
                    void* data_out, const void* data_in, std::uint8_t* dram,
                    std::size_t dram_bytes, std::size_t word_bytes);

  /// RELEASE: write every dirty line back to `dram` and mark it clean.
  /// Returns the number of line write-backs the caller must charge.
  /// `count_stats=false` is the end-of-run drain (host-side convenience,
  /// untimed, not part of the protocol's measured behavior).
  /// `flushed_addrs` (optional) receives the line-aligned addresses just
  /// written back — the exact set fault reconciliation may verify: they are
  /// this core's own releases, which no other core may race with under DRF,
  /// so re-storing them can never clobber newer remote data.
  std::size_t flushDirty(std::uint8_t* dram, std::size_t dram_bytes,
                         bool count_stats = true,
                         std::vector<std::uint64_t>* flushed_addrs = nullptr);

  /// Fault reconciliation: compare the resident copies of `addrs` (a set
  /// previously reported by flushDirty) against `dram` and re-store any line
  /// that differs (a transient DRAM corruption of a just-flushed line).
  /// Returns the number of lines repaired; the caller charges them as extra
  /// write-back transfers. Restricted to just-flushed lines by contract —
  /// see flushed_addrs above for why verifying arbitrary resident lines
  /// would be unsound.
  std::size_t restoreCorrupted(const std::vector<std::uint64_t>& addrs,
                               std::uint8_t* dram, std::size_t dram_bytes);

  /// ACQUIRE: self-invalidate every clean line; dirty lines are retained
  /// (they are this core's own unreleased writes). Returns lines dropped.
  std::size_t invalidateClean();

  /// Coherence fence for accesses that bypass the cache (bulk transfers):
  /// write back dirty lines overlapping [offset, offset+bytes) and, when
  /// `drop` (a bypassing WRITE makes cached copies stale), invalidate every
  /// overlapping line. Returns the write-backs the caller must charge.
  std::size_t syncRange(std::uint64_t offset, std::size_t bytes, bool drop,
                        std::uint8_t* dram, std::size_t dram_bytes);

  [[nodiscard]] const SwCacheStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t lineBytes() const { return line_bytes_; }
  /// Valid lines currently resident (for tests).
  [[nodiscard]] std::size_t residentLines() const;
  [[nodiscard]] std::size_t dirtyLines() const;

 private:
  [[nodiscard]] std::uint8_t* linePtr(std::size_t index) {
    return &data_[index << line_shift_];
  }
  /// Line-aligned address of the line holding `addr`.
  [[nodiscard]] std::uint64_t lineAddr(std::uint64_t addr) const {
    return addr >> line_shift_ << line_shift_;
  }
  /// Copy slot `index`'s line data to backing offset `addr` (the clamp rule
  /// for region-tail lines lives here, shared by evictions and flushes).
  void storeLineAt(std::uint64_t addr, std::size_t index, std::uint8_t* dram,
                   std::size_t dram_bytes);
  /// storeLineAt at the slot's own tag address (flush/syncRange path).
  void storeLine(std::size_t index, std::uint8_t* dram, std::size_t dram_bytes);

  Cache tags_;  ///< the tag store (sim/cache.h); data_ pairs with its slots
  std::size_t line_bytes_;
  int line_shift_;  ///< log2(line_bytes_)
  std::vector<std::uint8_t> data_;  ///< num_lines x line_bytes line store
  SwCacheStats stats_;
};

}  // namespace hsm::sim
