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

#include <cstring>
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
/// nothing). With no cached region they cost the raw sync operation's
/// events and Ticks.
[[nodiscard]] inline sim::SubTask barrier(sim::CoreContext& ctx) { return ctx.barrier(); }

[[nodiscard]] inline sim::SubTask acquireLock(sim::CoreContext& ctx, int lock) {
  return ctx.lockAcquire(lock);
}

[[nodiscard]] inline sim::SubTask releaseLock(sim::CoreContext& ctx, int lock) {
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
  /// Leave the array out of race checking (SccMachine::setShmDrfExempt).
  void exemptFromRaceCheck() const { machine_->setShmDrfExempt(base_, byteOffset(count_)); }

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
  /// the swcache but stays coherent with this core's cached lines. Lazily
  /// started, like every access: co_await within the full expression.
  [[nodiscard]] sim::SubTask readBulk(sim::CoreContext& ctx, std::size_t first,
                                      std::size_t count, T* out) const {
    return ctx.shmReadBulk(byteOffset(first), out, count * sizeof(T));
  }
  [[nodiscard]] sim::SubTask writeBulk(sim::CoreContext& ctx, std::size_t first,
                                       std::size_t count, const T* src) const {
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

  [[nodiscard]] T* hostData(int ue) const {
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

/// One shared variable of a translated program as its ExecutionPlan region
/// places it: the one place where a placement class and an MPB pattern
/// become runtime calls. The array resolves its class once, from the
/// region of the plan the run realizes (ExecutionPlan::realized), and
/// always allocates the off-chip master, registered under the region's
/// name with its whole policy (ShmArray). An on-chip class adds an MPB
/// block in every launched UE's slice, of `block` elements, or of the whole
/// array when `block` is 0:
///   * resident (block 0): the root funnel. Word accesses go to UE 0's
///     slot, which holds the array, and hostData() is that slot.
///   * staged (block > 0): the master stays off chip. Bulk accesses are
///     DMA copies, readStaged() is the self-stage (deposit the block in the
///     UE's own slot, read it back on chip), broadcast() the rotating
///     broadcast. Word accesses reach the master.
/// Off chip every access is word-granular (uncached, or through the swcache
/// for a cached class), readStaged() does nothing and broadcast() reads the
/// master. Word accessors return CoreContext's SubTask directly: no frame
/// is added per access.
template <typename T>
class PlanArray {
 public:
  /// `region` is the realized plan's region (nullptr: not in the plan, an
  /// off-chip-uncached, owner-compute array). A staged array given
  /// `stage_with`, a staged array of the same run, shares its MPB block
  /// instead of allocating its own (arrays staged one at a time).
  PlanArray(RcceEnv& env, int num_ues, std::size_t count,
            const partition::RegionPlan* region, const char* name, std::size_t block = 0,
            const PlanArray* stage_with = nullptr)
      : shm_(env, count,
             region != nullptr ? region->placement : partition::PlacementClass::kOffChipUncached,
             region != nullptr ? region->controller
                               : partition::ControllerPlacement::kOwnerCompute,
             region != nullptr ? region->pinned_controller : 0, name) {
    if (!partition::isOnChip(shm_.placement())) return;
    realization_ = block == 0 ? Realization::kResident : Realization::kStaged;
    if (stage_with != nullptr && stage_with->realization_ == Realization::kStaged &&
        realization_ == Realization::kStaged) {
      mpb_ = stage_with->mpb_;
    } else {
      mpb_ = MpbArray<T>(env, num_ues, block == 0 ? count : block);
    }
  }

  /// Shared-DRAM offset of element `i` of the master.
  [[nodiscard]] std::uint64_t byteOffset(std::size_t i) const { return shm_.byteOffset(i); }
  /// Host-side (untimed) view of where the run keeps the values: UE 0's
  /// slot for a resident array, the off-chip master otherwise.
  [[nodiscard]] T* hostData() {
    return realization_ == Realization::kResident ? mpb_.hostData(0) : shm_.hostData();
  }

  /// Leave the off-chip master out of race checking: for a deliberate
  /// benign race the workload documents (SccMachine::setShmDrfExempt).
  void exemptFromRaceCheck() const { shm_.exemptFromRaceCheck(); }

  [[nodiscard]] sim::SubTask read(sim::CoreContext& ctx, std::size_t i, T* out) const {
    return readBlock(ctx, i, 1, out);
  }
  /// Lazily started: co_await within the full expression (see ShmArray::write).
  [[nodiscard]] sim::SubTask write(sim::CoreContext& ctx, std::size_t i,
                                   const T& value) const {
    return writeBlock(ctx, i, 1, &value);
  }
  [[nodiscard]] sim::SubTask readBlock(sim::CoreContext& ctx, std::size_t first,
                                       std::size_t count, T* out) const {
    return realization_ == Realization::kResident
               ? mpb_.readBlock(ctx, 0, first, count, out)
               : shm_.readBlock(ctx, first, count, out);
  }
  [[nodiscard]] sim::SubTask writeBlock(sim::CoreContext& ctx, std::size_t first,
                                        std::size_t count, const T* src) const {
    return realization_ == Realization::kResident
               ? mpb_.writeBlock(ctx, 0, first, count, src)
               : shm_.writeBlock(ctx, first, count, src);
  }
  /// A block moved as one DMA copy when staged, word by word otherwise.
  [[nodiscard]] sim::SubTask readBulk(sim::CoreContext& ctx, std::size_t first,
                                      std::size_t count, T* out) const {
    if (realization_ == Realization::kStaged) return shm_.readBulk(ctx, first, count, out);
    return readBlock(ctx, first, count, out);
  }
  [[nodiscard]] sim::SubTask writeBulk(sim::CoreContext& ctx, std::size_t first,
                                       std::size_t count, const T* src) const {
    if (realization_ == Realization::kStaged) return shm_.writeBulk(ctx, first, count, src);
    return writeBlock(ctx, first, count, src);
  }
  /// Self-stage of the `count` elements a readBulk just brought to `buf`:
  /// the DMA lands them in this UE's own slot (an untimed deposit: the bulk
  /// copy carried the cost), and the core reads them back on chip into
  /// `buf`. Nothing when not staged.
  [[nodiscard]] sim::SubTask readStaged(sim::CoreContext& ctx, std::size_t count,
                                        T* buf) const {
    if (realization_ != Realization::kStaged) return {};
    std::memcpy(mpb_.hostData(ctx.ue()), buf, count * sizeof(T));
    return mpb_.readBlock(ctx, ctx.ue(), 0, count, buf);
  }
  /// Rotating broadcast of [first, first + count) to every UE: when staged,
  /// `owner` publishes it from its own slot, every UE meets at the barrier,
  /// and the others fetch it on chip; otherwise every UE reads it itself.
  [[nodiscard]] sim::SubTask broadcast(sim::CoreContext& ctx, int owner, std::size_t first,
                                       std::size_t count, T* out) const {
    if (realization_ != Realization::kStaged) return readBlock(ctx, first, count, out);
    return publishThenFetch(ctx, owner, first, count, out);
  }

 private:
  enum class Realization : std::uint8_t { kOffChip, kResident, kStaged };

  sim::SubTask publishThenFetch(sim::CoreContext& ctx, int owner, std::size_t first,
                                std::size_t count, T* out) const {
    if (ctx.ue() == owner) {
      co_await shm_.readBulk(ctx, first, count, out);
      co_await mpb_.writeBlock(ctx, owner, 0, count, out);
    }
    co_await ctx.barrier();
    if (ctx.ue() != owner) co_await mpb_.readBlock(ctx, owner, 0, count, out);
  }

  ShmArray<T> shm_;
  MpbArray<T> mpb_;
  Realization realization_ = Realization::kOffChip;
};

}  // namespace hsm::rcce
