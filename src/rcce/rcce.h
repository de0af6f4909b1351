// An RCCE-compatible runtime over the simulated SCC.
//
// Mirrors the surface of the real RCCE library [van der Wijngaart et al.,
// SIGOPS OSR 2011] that the translator targets:
//   RCCE_ue / RCCE_num_ues      — rank / count of units of execution
//   RCCE_shmalloc               — off-chip shared memory allocation
//   RCCE_malloc                 — MPB (on-chip) allocation in the UE's slice
//   RCCE_put / RCCE_get         — one-sided transfers through the MPB
//   RCCE_barrier                — all-UE barrier
//   RCCE_acquire/release_lock   — test-and-set register locks
//
// Every operation charges simulated time on the SccMachine; host-side setup
// helpers (allocation before launch) are free, matching RCCE programs that
// allocate during initialization.
#pragma once

#include <string>
#include <utility>

#include "sim/machine.h"

namespace hsm::rcce {

/// Host-side environment: shared allocations visible to all UEs.
class RcceEnv {
 public:
  explicit RcceEnv(sim::SccMachine& machine) : machine_(machine) {}

  /// RCCE_shmalloc: off-chip shared memory (returns region offset).
  std::uint64_t shmalloc(std::size_t bytes) { return machine_.shmalloc(bytes); }

  /// RCCE_malloc for a given UE: space in that UE's 8 KB MPB slice.
  std::uint64_t mpbMalloc(int ue, std::size_t bytes) {
    return machine_.mpbMalloc(ue, bytes);
  }

  /// Allocate the same number of MPB bytes in every UE's slice (the common
  /// symmetric-allocation pattern of RCCE programs). Returns the common
  /// offset — identical across UEs because slices fill in lockstep.
  std::uint64_t mpbMallocSymmetric(int num_ues, std::size_t bytes);

  [[nodiscard]] sim::SccMachine& machine() { return machine_; }

 private:
  sim::SccMachine& machine_;
};

/// UE-side operations (thin, documented aliases over CoreContext).
/// `put` moves data into the *target* UE's MPB; `get` pulls from the
/// *source* UE's MPB — the one-sided primitives RCCE is built on. Both are
/// chunk loops over the owning tile's port; uncontended runs of chunks
/// coalesce into single engine events (config.coalescing) with
/// bit-identical Ticks.
[[nodiscard]] inline sim::SubTask put(sim::CoreContext& ctx, int target_ue,
                                      std::uint64_t mpb_offset, const void* src,
                                      std::size_t bytes) {
  return ctx.mpbWrite(target_ue, mpb_offset, src, bytes);
}

[[nodiscard]] inline sim::SubTask get(sim::CoreContext& ctx, int source_ue,
                                      std::uint64_t mpb_offset, void* dst,
                                      std::size_t bytes) {
  return ctx.mpbRead(source_ue, mpb_offset, dst, bytes);
}

/// RCCE_barrier / RCCE_acquire_lock / RCCE_release_lock. These are the
/// swcache reconciliation points (regions registered cached): the
/// barrier and the release flush dirty cached lines first, the barrier and
/// the acquire self-invalidate clean lines after — so releaseLock is
/// awaitable too and MUST be co_awaited (a discarded return value releases
/// nothing). With no cached region they forward to the raw sync
/// operations, frame-free.
[[nodiscard]] inline sim::CoreContext::SyncAwaiter barrier(sim::CoreContext& ctx) {
  return ctx.barrier();
}

[[nodiscard]] inline sim::CoreContext::SyncAwaiter acquireLock(sim::CoreContext& ctx,
                                                               int lock) {
  return ctx.lockAcquire(lock);
}

[[nodiscard]] inline sim::CoreContext::SyncAwaiter releaseLock(sim::CoreContext& ctx,
                                                               int lock) {
  return ctx.lockRelease(lock);
}

/// Typed view of an off-chip shared array (offsets in elements).
template <typename T>
class ShmArray {
 public:
  ShmArray() = default;
  /// Legacy allocation: no region is registered, so it is uncached and
  /// requester-local — exactly the pre-ExecutionPlan behavior.
  ShmArray(RcceEnv& env, std::size_t count)
      : machine_(&env.machine()), base_(env.shmalloc(count * sizeof(T))), count_(count) {}
  /// Plan-carrying allocation: the array records its ExecutionPlan
  /// placement class and registers its whole region policy with the machine
  /// once (SccMachine::addShmRegion): cached for kOffChipCached (every other
  /// class pins it to the uncached word path), the controller placement,
  /// and the plan region's `name`.
  /// Cached regions are line-aligned and line-padded: the swcache moves
  /// whole lines, so a cached region must never share a line with a
  /// neighboring uncached region (a whole-line write-back would clobber
  /// the neighbor's uncached updates — cross-policy false sharing).
  ShmArray(RcceEnv& env, std::size_t count, partition::PlacementClass placement,
           partition::ControllerPlacement controller =
               partition::ControllerPlacement::kOwnerCompute,
           std::uint32_t pinned_controller = 0, std::string name = {})
      : machine_(&env.machine()), count_(count), placement_(placement) {
    const std::size_t bytes = count * sizeof(T);
    const bool cached = placement == partition::PlacementClass::kOffChipCached;
    if (cached) {
      const std::size_t line = machine_->config().cache_line_bytes;
      base_ = machine_->shmalloc(((bytes + line - 1) / line) * line, line);
    } else {
      base_ = env.shmalloc(bytes);
    }
    machine_->addShmRegion({.begin = base_,
                            .end = base_ + bytes,
                            .cached = cached,
                            .placement = controller,
                            .pinned_controller = pinned_controller,
                            .name = std::move(name)});
  }

  /// This region's placement attribute (kOffChipUncached for legacy
  /// allocations that never carried a plan).
  [[nodiscard]] partition::PlacementClass placement() const { return placement_; }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::uint64_t byteOffset(std::size_t i) const {
    return base_ + i * sizeof(T);
  }

  /// Host-side (untimed) access for setup and verification.
  [[nodiscard]] T* hostData() {
    return reinterpret_cast<T*>(machine_->shmData(base_));
  }

  [[nodiscard]] sim::SubTask read(sim::CoreContext& ctx, std::size_t i, T* out) const {
    return ctx.shmRead(byteOffset(i), out, sizeof(T));
  }
  [[nodiscard]] sim::SubTask write(sim::CoreContext& ctx, std::size_t i,
                                   const T& value) const {
    // shmWrite is a lazily-started coroutine: it captures the value only
    // when first awaited, so the returned SubTask must be co_awaited within
    // this full expression (do not store it past `value`'s lifetime).
    return ctx.shmWrite(byteOffset(i), &value, sizeof(T));
  }
  /// Word-granular block access (every word an independent uncached
  /// transaction, as RCCE_shmalloc'd memory behaves). Rides CoreContext's
  /// coalesced word path: uncontended runs of words collapse into single
  /// engine events with bit-identical simulated Ticks.
  [[nodiscard]] sim::SubTask readBlock(sim::CoreContext& ctx, std::size_t first,
                                       std::size_t count, T* out) const {
    return ctx.shmRead(byteOffset(first), out, count * sizeof(T));
  }
  [[nodiscard]] sim::SubTask writeBlock(sim::CoreContext& ctx, std::size_t first,
                                        std::size_t count, const T* src) const {
    return ctx.shmWrite(byteOffset(first), src, count * sizeof(T));
  }
  /// RCCE-style bulk copy (sequential burst, row-buffer friendly). Bypasses
  /// the swcache but stays coherent with this core's cached lines.
  [[nodiscard]] sim::CoreContext::OpAwaiter readBulk(sim::CoreContext& ctx,
                                                       std::size_t first,
                                                       std::size_t count, T* out) const {
    return ctx.shmReadBulk(byteOffset(first), out, count * sizeof(T));
  }
  [[nodiscard]] sim::CoreContext::OpAwaiter writeBulk(sim::CoreContext& ctx,
                                                        std::size_t first,
                                                        std::size_t count,
                                                        const T* src) const {
    // With the swcache enabled this is lazily started — co_await within the
    // full expression, do not store past `src`'s lifetime.
    return ctx.shmWriteBulk(byteOffset(first), src, count * sizeof(T));
  }

 private:
  sim::SccMachine* machine_ = nullptr;
  std::uint64_t base_ = 0;
  std::size_t count_ = 0;
  partition::PlacementClass placement_ = partition::PlacementClass::kOffChipUncached;
};

/// Typed view of per-UE MPB buffers at a symmetric offset.
template <typename T>
class MpbArray {
 public:
  MpbArray() = default;
  MpbArray(RcceEnv& env, int num_ues, std::size_t count_per_ue)
      : machine_(&env.machine()),
        base_(env.mpbMallocSymmetric(num_ues, count_per_ue * sizeof(T))),
        count_(count_per_ue) {}

  [[nodiscard]] std::size_t sizePerUe() const { return count_; }

  [[nodiscard]] T* hostData(int ue) {
    return reinterpret_cast<T*>(machine_->mpbData(ue, base_));
  }

  [[nodiscard]] sim::SubTask read(sim::CoreContext& ctx, int owner_ue, std::size_t i,
                                  T* out) const {
    return ctx.mpbRead(owner_ue, base_ + i * sizeof(T), out, sizeof(T));
  }
  [[nodiscard]] sim::SubTask write(sim::CoreContext& ctx, int owner_ue, std::size_t i,
                                   const T& value) const {
    // mpbWrite is a lazily-started coroutine: it copies the value only when
    // first awaited, so the returned SubTask must be co_awaited within this
    // full expression (do not store it past `value`'s lifetime).
    return ctx.mpbWrite(owner_ue, base_ + i * sizeof(T), &value, sizeof(T));
  }
  [[nodiscard]] sim::SubTask readBlock(sim::CoreContext& ctx, int owner_ue,
                                       std::size_t first, std::size_t count,
                                       T* out) const {
    return ctx.mpbRead(owner_ue, base_ + first * sizeof(T), out, count * sizeof(T));
  }
  [[nodiscard]] sim::SubTask writeBlock(sim::CoreContext& ctx, int owner_ue,
                                        std::size_t first, std::size_t count,
                                        const T* src) const {
    return ctx.mpbWrite(owner_ue, base_ + first * sizeof(T), src, count * sizeof(T));
  }

 private:
  sim::SccMachine* machine_ = nullptr;
  std::uint64_t base_ = 0;
  std::size_t count_ = 0;
};

}  // namespace hsm::rcce
