#include "sim/swcache/swcache.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace hsm::sim {

SwCache::SwCache(std::size_t num_lines, std::size_t line_bytes)
    : tags_(num_lines * line_bytes, line_bytes), line_bytes_(line_bytes),
      line_shift_(std::countr_zero(line_bytes)), data_(num_lines * line_bytes, 0) {}

void SwCache::storeLineAt(std::uint64_t addr, std::size_t index, std::uint8_t* dram,
                          std::size_t dram_bytes) {
  // Clamp to the backing size: shared allocations are 8-byte, not line,
  // aligned at the region end.
  if (addr >= dram_bytes) return;
  const std::size_t n =
      static_cast<std::size_t>(dram_bytes - addr) < line_bytes_
          ? static_cast<std::size_t>(dram_bytes - addr)
          : line_bytes_;
  std::memcpy(dram + addr, linePtr(index), n);
}

void SwCache::storeLine(std::size_t index, std::uint8_t* dram,
                        std::size_t dram_bytes) {
  storeLineAt(tags_.slotAddr(index), index, dram, dram_bytes);
}

SwCache::AccessPlan SwCache::access(std::uint64_t offset, std::size_t bytes,
                                    bool write, void* data_out, const void* data_in,
                                    std::uint8_t* dram, std::size_t dram_bytes,
                                    std::size_t word_bytes) {
  AccessPlan plan;
  std::size_t pos = 0;  // bytes of the access already served
  // Word accounting mirrors the uncached path's FSB beats: the access is
  // ceil(bytes / word_bytes) beats starting at `offset`, each attributed to
  // the line its first byte falls in — so the total is identical however
  // the access straddles lines (the routing-invariant shm_words metric
  // depends on this).
  std::uint64_t beat_cursor = offset;
  const std::uint64_t beats_end = offset + bytes;
  while (pos < bytes) {
    const std::uint64_t addr = offset + pos;
    const std::uint64_t line_addr = lineAddr(addr);
    const std::size_t in_line = static_cast<std::size_t>(addr - line_addr);
    const std::size_t seg = std::min(bytes - pos, line_bytes_ - in_line);
    std::size_t words = 0;
    if (beat_cursor < addr + seg) {
      words = static_cast<std::size_t>(
          (std::min<std::uint64_t>(addr + seg, beats_end) - beat_cursor +
           word_bytes - 1) /
          word_bytes);
      beat_cursor += static_cast<std::uint64_t>(words) * word_bytes;
    }

    const Cache::AccessResult r = tags_.access(line_addr, write);
    stats_.word_accesses += words;
    if (r.hit) {
      stats_.word_hits += words;
      ++plan.hit_touches;
    } else {
      if (r.writeback) {
        // The victim still occupies the slot's data until we overwrite it —
        // store it first (Cache::access already retagged, but victim_addr
        // remembers where the old bytes belong).
        storeLineAt(r.victim_addr, r.index, dram, dram_bytes);
        ++stats_.writebacks;
        ++plan.line_txns;
      }
      // Fill (write-allocate: a written line is loaded first so its
      // untouched bytes stay correct when the line is later written back).
      const std::size_t avail =
          line_addr < dram_bytes
              ? std::min(line_bytes_, static_cast<std::size_t>(dram_bytes - line_addr))
              : 0;
      if (avail > 0) std::memcpy(linePtr(r.index), dram + line_addr, avail);
      if (avail < line_bytes_) std::memset(linePtr(r.index) + avail, 0, line_bytes_ - avail);
      ++stats_.line_fills;
      ++plan.line_txns;
    }

    if (write) {
      if (data_in != nullptr) {
        std::memcpy(linePtr(r.index) + in_line,
                    static_cast<const std::uint8_t*>(data_in) + pos, seg);
      }
    } else if (data_out != nullptr) {
      std::memcpy(static_cast<std::uint8_t*>(data_out) + pos, linePtr(r.index) + in_line,
                  seg);
    }
    pos += seg;
  }
  return plan;
}

std::size_t SwCache::flushDirty(std::uint8_t* dram, std::size_t dram_bytes,
                                bool count_stats,
                                std::vector<std::uint64_t>* flushed_addrs) {
  std::size_t stored = 0;
  if (tags_.dirtyCount() > 0) {  // sync points are frequent; sweep only if needed
    for (std::size_t i = 0; i < tags_.numLines(); ++i) {
      if (!tags_.slotValid(i) || !tags_.slotDirty(i)) continue;
      storeLine(i, dram, dram_bytes);
      tags_.markClean(i);
      if (flushed_addrs != nullptr) flushed_addrs->push_back(tags_.slotAddr(i));
      ++stored;
      if (tags_.dirtyCount() == 0) break;  // rest of the sweep is clean
    }
  }
  if (count_stats) {
    stats_.writebacks += stored;
    ++stats_.flushes;
  }
  return stored;
}

std::size_t SwCache::restoreCorrupted(const std::vector<std::uint64_t>& addrs,
                                      std::uint8_t* dram, std::size_t dram_bytes) {
  std::size_t repaired = 0;
  for (const std::uint64_t addr : addrs) {
    const std::size_t i = tags_.lookup(addr);
    // The line must still be resident: it was flushed moments ago and
    // nothing between flush and verify can evict it (the reconciliation
    // runs before the release takes effect).
    if (i == Cache::kNoSlot || addr >= dram_bytes) continue;
    const std::size_t n =
        static_cast<std::size_t>(dram_bytes - addr) < line_bytes_
            ? static_cast<std::size_t>(dram_bytes - addr)
            : line_bytes_;
    if (std::memcmp(dram + addr, linePtr(i), n) == 0) continue;
    storeLineAt(addr, i, dram, dram_bytes);
    ++repaired;
  }
  stats_.writebacks += repaired;
  return repaired;
}

std::size_t SwCache::invalidateClean() {
  if (tags_.validCount() == tags_.dirtyCount()) return 0;  // nothing clean
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < tags_.numLines(); ++i) {
    if (!tags_.slotValid(i) || tags_.slotDirty(i)) continue;
    tags_.invalidateSlot(i);
    ++dropped;
  }
  stats_.invalidated_lines += dropped;
  return dropped;
}

std::size_t SwCache::syncRange(std::uint64_t offset, std::size_t bytes, bool drop,
                               std::uint8_t* dram, std::size_t dram_bytes) {
  if (bytes == 0 || tags_.validCount() == 0) return 0;
  const std::uint64_t first = lineAddr(offset);
  const std::uint64_t last = lineAddr(offset + bytes - 1);
  std::size_t stored = 0;
  auto fence_slot = [&](std::size_t i) {
    if (tags_.slotDirty(i)) {
      storeLine(i, dram, dram_bytes);
      tags_.markClean(i);
      ++stored;
    }
    if (drop) {
      tags_.invalidateSlot(i);
      ++stats_.invalidated_lines;
    }
  };
  const std::uint64_t range_lines = ((last - first) >> line_shift_) + 1;
  if (range_lines < tags_.numLines()) {
    // Small bulk range: probe just the range's lines — O(lines in range),
    // like access() — instead of sweeping every slot.
    for (std::uint64_t addr = first; addr <= last; addr += line_bytes_) {
      const std::size_t i = tags_.lookup(addr);
      if (i != Cache::kNoSlot) fence_slot(i);
    }
  } else {
    for (std::size_t i = 0; i < tags_.numLines(); ++i) {
      if (!tags_.slotValid(i)) continue;
      const std::uint64_t addr = tags_.slotAddr(i);
      if (addr < first || addr > last) continue;
      fence_slot(i);
    }
  }
  stats_.writebacks += stored;
  return stored;
}

std::size_t SwCache::residentLines() const { return tags_.validCount(); }

std::size_t SwCache::dirtyLines() const { return tags_.dirtyCount(); }

}  // namespace hsm::sim
