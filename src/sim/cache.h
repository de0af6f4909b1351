// A small write-back, write-allocate cache tag store (data lives in the
// owner's backing or line store). Direct-mapped, which is close to the
// P54C's 2-way L1 for streaming workloads and keeps lookups O(1). The line
// size and the capacity must be powers of two (the constructor throws
// std::invalid_argument otherwise), so a lookup splits an address into
// tag, index and offset by shift and mask.
//
// Two users:
//   * the *private, cacheable* address space (SccMachine's per-core L1/L2
//     models) — tag-only, data lives in the functional private backing;
//   * the software-managed release-consistency cache for shared memory
//     (sim/swcache/), which pairs this tag store with a per-line data store
//     and needs the victim/slot information `access` reports plus
//     `invalidate` for acquire-time self-invalidation.
// Shared off-chip pages on the SCC are *hardware*-uncacheable; only the
// explicit software protocol in sim/swcache/ may cache them.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace hsm::sim {

class Cache {
 public:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  Cache(std::size_t capacity_bytes, std::size_t line_bytes)
      : line_bytes_(line_bytes), num_lines_(checkedLines(capacity_bytes, line_bytes)),
        line_shift_(std::countr_zero(line_bytes)),
        index_bits_(std::countr_zero(num_lines_)),
        tags_(num_lines_, 0), valid_(num_lines_, 0), dirty_(num_lines_, 0) {}

  /// Lines of a `capacity_bytes` cache of `line_bytes` lines; throws
  /// std::invalid_argument unless both are powers of two and the capacity
  /// holds at least one line.
  static std::size_t checkedLines(std::size_t capacity_bytes, std::size_t line_bytes) {
    if (!std::has_single_bit(line_bytes) || !std::has_single_bit(capacity_bytes) ||
        capacity_bytes < line_bytes) {
      throw std::invalid_argument("cache geometry must be powers of two: " +
                                  std::to_string(capacity_bytes) + " B of " +
                                  std::to_string(line_bytes) + " B lines");
    }
    return capacity_bytes / line_bytes;
  }

  struct AccessResult {
    bool hit = false;
    bool writeback = false;  ///< a dirty victim line must be written back
    /// Line-aligned address of the dirty victim (valid when `writeback`).
    std::uint64_t victim_addr = 0;
    /// Slot holding the line after the access (pairs with a data store).
    std::size_t index = 0;
  };

  AccessResult access(std::uint64_t addr, bool is_write) {
    const std::uint64_t line = addr >> line_shift_;
    const std::size_t index = indexOf(line);
    const std::uint64_t tag = line >> index_bits_;
    AccessResult result;
    result.index = index;
    if (valid_[index] != 0 && tags_[index] == tag) {
      result.hit = true;
      ++hits_;
    } else {
      if (valid_[index] != 0) {
        if (dirty_[index] != 0) {
          result.writeback = true;
          result.victim_addr = slotAddr(index);
          --dirty_count_;
        }
      } else {
        ++valid_count_;
      }
      tags_[index] = tag;
      valid_[index] = 1;
      dirty_[index] = 0;
      ++misses_;
    }
    if (is_write && dirty_[index] == 0) {
      dirty_[index] = 1;
      ++dirty_count_;
    }
    return result;
  }

  /// Probe without allocating or touching hit/miss statistics: slot holding
  /// the line containing `addr`, or kNoSlot (the swcache's range fences and
  /// fault repair use it).
  [[nodiscard]] std::size_t lookup(std::uint64_t addr) const {
    const std::uint64_t line = addr >> line_shift_;
    const std::size_t index = indexOf(line);
    return valid_[index] != 0 && tags_[index] == line >> index_bits_ ? index : kNoSlot;
  }

  /// Drop the line containing `addr` if present. Returns true when the
  /// dropped line was dirty (the caller loses its only copy — swcache only
  /// does this after writing the data back). No-op when absent.
  bool invalidate(std::uint64_t addr) {
    const std::size_t index = lookup(addr);
    if (index == kNoSlot) return false;
    const bool was_dirty = dirty_[index] != 0;
    invalidateSlot(index);
    return was_dirty;
  }

  /// Drop every line (no write-back — tag-only users track data elsewhere).
  void flush() {
    std::fill(valid_.begin(), valid_.end(), 0);
    std::fill(dirty_.begin(), dirty_.end(), 0);
    valid_count_ = 0;
    dirty_count_ = 0;
  }

  // -- slot inspection (swcache flush/invalidate sweeps) --
  [[nodiscard]] std::size_t numLines() const { return num_lines_; }
  [[nodiscard]] bool slotValid(std::size_t index) const { return valid_[index] != 0; }
  [[nodiscard]] bool slotDirty(std::size_t index) const { return dirty_[index] != 0; }
  /// Line-aligned address cached in `index` (meaningful only when valid).
  [[nodiscard]] std::uint64_t slotAddr(std::size_t index) const {
    return ((tags_[index] << index_bits_) | index) << line_shift_;
  }
  void markClean(std::size_t index) {
    if (dirty_[index] != 0) {
      dirty_[index] = 0;
      --dirty_count_;
    }
  }
  void invalidateSlot(std::size_t index) {
    if (valid_[index] != 0) --valid_count_;
    valid_[index] = 0;
    markClean(index);
  }
  /// Resident / dirty line counts, maintained incrementally so sweeps over
  /// the slots (swcache flush/invalidate at every sync point) can early-out
  /// when there is nothing to do.
  [[nodiscard]] std::size_t validCount() const { return valid_count_; }
  [[nodiscard]] std::size_t dirtyCount() const { return dirty_count_; }

  [[nodiscard]] std::size_t lineBytes() const { return line_bytes_; }
  /// Cumulative line-granular hits since construction (or resetStats()).
  /// Counted by `access` only; `lookup`/`invalidate` never touch the tally.
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  /// Cumulative line-granular misses since construction (or resetStats()).
  /// A miss both allocates the line and counts, so hits()+misses() is the
  /// total number of `access` calls.
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  void resetStats() {
    hits_ = 0;
    misses_ = 0;
  }

 private:
  [[nodiscard]] std::size_t indexOf(std::uint64_t line) const {
    return static_cast<std::size_t>(line & (num_lines_ - 1));
  }

  std::size_t line_bytes_;
  std::size_t num_lines_;
  int line_shift_;  ///< log2(line_bytes_)
  int index_bits_;  ///< log2(num_lines_)
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint8_t> valid_;
  std::vector<std::uint8_t> dirty_;
  std::size_t valid_count_ = 0;
  std::size_t dirty_count_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace hsm::sim
