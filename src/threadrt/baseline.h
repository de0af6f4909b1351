// The evaluation baseline: a multi-threaded Pthreads program running on a
// single SCC core (paper §6: "each Pthread application is run on one core
// of the SCC ... 32 threads compete for processor time").
//
// Model: N logical threads share core 0. Every operation's duration is
// computed with the same architectural cost model as CoreContext (core 0's
// caches, core 0's memory controller) and then serialized through the core's
// ResourceTimeline — the makespan is the sum of all thread work plus
// queueing, exactly what time-slicing N compute-bound threads on one core
// yields. Context-switch overhead is added per expired scheduler quantum.
#pragma once

#include <coroutine>
#include <functional>
#include <memory>
#include <vector>

#include "sim/machine.h"

namespace hsm::threadrt {

class SingleCoreRuntime;

/// Per-logical-thread view: the pthread binding's context. Its API mirrors
/// sim::CoreContext (ue/numUes, compute, lockAcquire/lockRelease, barrier),
/// and ProcessArray mirrors rcce::PlanArray, so each paper program's kernel
/// is written once and runs here and on the RCCE machine
/// (workloads/binding.h).
class ThreadContext {
 public:
  ThreadContext(SingleCoreRuntime& rt, int tid, int num_threads)
      : rt_(rt), tid_(tid), num_threads_(num_threads) {}

  /// The thread's id and the thread count (a CoreContext's UE and UE count).
  [[nodiscard]] int ue() const { return tid_; }
  [[nodiscard]] int numUes() const { return num_threads_; }

  [[nodiscard]] sim::ResumeAt compute(std::uint64_t core_cycles);
  [[nodiscard]] sim::ResumeAt computeOps(std::uint64_t count, sim::OpClass cls);
  /// Process memory (the threads' shared address space): cacheable,
  /// core 0's hierarchy. Each throws std::out_of_range before it touches
  /// any state when [addr, addr+bytes) passes SccConfig::private_mem_bytes.
  [[nodiscard]] sim::ResumeAt memRead(std::uint64_t addr, void* out, std::size_t bytes);
  [[nodiscard]] sim::ResumeAt memWrite(std::uint64_t addr, const void* src,
                                       std::size_t bytes);
  /// A pthread mutex on a single core: uncontended fast path cost.
  [[nodiscard]] sim::TasLock::Awaiter lockAcquire(int lock_id);
  /// Awaitable for call-site symmetry with CoreContext::lockRelease (a
  /// SubTask, since it may flush the swcache and pay a lag) so kernels stay
  /// writable once against either context. Process memory is cacheable and
  /// hardware-coherent on one core and a thread folds no compute, so there
  /// is nothing to pay or reconcile here: the release runs in await_ready
  /// and the awaiter never suspends.
  struct [[nodiscard]] ReleaseAwaiter {
    SingleCoreRuntime& rt;
    int lock_id;
    [[nodiscard]] bool await_ready();
    void await_suspend(std::coroutine_handle<>) const noexcept {}
    void await_resume() const noexcept {}
  };
  [[nodiscard]] ReleaseAwaiter lockRelease(int lock_id) {
    return ReleaseAwaiter{rt_, lock_id};
  }
  /// pthread_barrier_wait across the logical threads.
  [[nodiscard]] sim::SyncBarrier::Awaiter barrier();

 private:
  SingleCoreRuntime& rt_;
  int tid_;
  int num_threads_;
};

class SingleCoreRuntime {
 public:
  explicit SingleCoreRuntime(sim::SccConfig config = {});

  using ThreadProgram = std::function<sim::SimTask(ThreadContext&)>;
  /// Spawn `num_threads` logical threads running `program` on core 0.
  void launch(int num_threads, const ThreadProgram& program);

  /// Run to completion. Returns makespan *including* context-switch
  /// overhead (one switch per expired quantum with >1 runnable thread).
  sim::Tick run();

  [[nodiscard]] sim::SccMachine& machine() { return machine_; }
  [[nodiscard]] sim::ResourceTimeline& coreTimeline() { return core_; }
  [[nodiscard]] int numThreads() const { return num_threads_; }

  /// The process image reaches at least `end` (a ProcessArray's last byte).
  void declareProcessMemory(std::uint64_t end) {
    if (end > process_end_) process_end_ = end;
  }
  /// Untimed pointer to `addr` of the process memory (core 0's private
  /// memory). The first call reserves the whole declared image in one
  /// piece, so pointers into arrays declared before it stay valid and the
  /// image is never copied while it grows array by array.
  [[nodiscard]] std::uint8_t* processMemory(std::uint64_t addr) {
    machine_.reservePrivate(0, process_end_);
    return machine_.privData(0, addr);
  }

 private:
  sim::SccMachine machine_;
  sim::ResourceTimeline core_;
  std::vector<std::unique_ptr<ThreadContext>> contexts_;
  int num_threads_ = 0;
  std::uint64_t process_end_ = 0;
};

/// Typed view of an array in the process memory the threads share, at a
/// fixed address of core 0's private memory: the pthread binding's array,
/// with rcce::PlanArray's accessors. Every access is a cacheable load or
/// store through core 0's hierarchy, so a word, a block, a bulk copy and a
/// broadcast are the same memRead/memWrite, and there is no MPB block to
/// stage through.
template <typename T>
class ProcessArray {
 public:
  ProcessArray(SingleCoreRuntime& rt, std::uint64_t addr, std::size_t count)
      : rt_(&rt), addr_(addr) {
    rt.declareProcessMemory(addr + count * sizeof(T));
  }

  /// Untimed view for setup and verification
  /// (SingleCoreRuntime::processMemory).
  [[nodiscard]] T* hostData() { return reinterpret_cast<T*>(rt_->processMemory(addr_)); }
  /// The race checker exempts shared-DRAM ranges only: process memory
  /// keeps every check.
  void exemptFromRaceCheck() const {}

  [[nodiscard]] sim::ResumeAt read(ThreadContext& ctx, std::size_t i, T* out) const {
    return readBlock(ctx, i, 1, out);
  }
  [[nodiscard]] sim::ResumeAt write(ThreadContext& ctx, std::size_t i, const T& value) const {
    return writeBlock(ctx, i, 1, &value);
  }
  [[nodiscard]] sim::ResumeAt readBlock(ThreadContext& ctx, std::size_t first,
                                        std::size_t count, T* out) const {
    return ctx.memRead(addr(first), out, count * sizeof(T));
  }
  [[nodiscard]] sim::ResumeAt writeBlock(ThreadContext& ctx, std::size_t first,
                                         std::size_t count, const T* src) const {
    return ctx.memWrite(addr(first), src, count * sizeof(T));
  }
  [[nodiscard]] sim::ResumeAt readBulk(ThreadContext& ctx, std::size_t first,
                                       std::size_t count, T* out) const {
    return readBlock(ctx, first, count, out);
  }
  [[nodiscard]] sim::ResumeAt writeBulk(ThreadContext& ctx, std::size_t first,
                                        std::size_t count, const T* src) const {
    return writeBlock(ctx, first, count, src);
  }
  [[nodiscard]] std::suspend_never readStaged(ThreadContext& /*ctx*/, std::size_t /*count*/,
                                              T* /*buf*/) const {
    return {};
  }
  [[nodiscard]] sim::ResumeAt broadcast(ThreadContext& ctx, int /*owner*/, std::size_t first,
                                        std::size_t count, T* out) const {
    return readBlock(ctx, first, count, out);
  }

 private:
  [[nodiscard]] std::uint64_t addr(std::size_t i) const { return addr_ + i * sizeof(T); }

  SingleCoreRuntime* rt_;
  std::uint64_t addr_;
};

}  // namespace hsm::threadrt
