#include "threadrt/baseline.h"

namespace hsm::threadrt {
namespace {

/// Serialize an operation through the single core: the op starts when the
/// core frees up, runs for its architectural duration, and the timeline
/// advances. Returns the completion time. Templated on the completion
/// functor so the per-operation hot path stays allocation-free (a
/// std::function here costs a heap round trip on every simulated op).
template <typename CompletionAt>
sim::Tick serialize(sim::ResourceTimeline& core, sim::Tick now,
                    CompletionAt&& completion_at) {
  const sim::Tick start = now > core.nextFree() ? now : core.nextFree();
  const sim::Tick done = completion_at(start);
  core.acquire(now, done - start);
  return done;
}

}  // namespace

sim::ResumeAt ThreadContext::compute(std::uint64_t core_cycles) {
  sim::SccMachine& m = rt_.machine();
  const sim::Tick dt = m.coreClock().cycles(core_cycles);
  const sim::Tick done = serialize(rt_.coreTimeline(), m.engine().now(),
                                   [dt](sim::Tick start) { return start + dt; });
  return m.engine().resumeAt(done);
}

sim::ResumeAt ThreadContext::computeOps(std::uint64_t count, sim::OpClass cls) {
  return compute(count * sim::opCycles(rt_.machine().config(), cls));
}

sim::ResumeAt ThreadContext::memRead(std::uint64_t addr, void* out, std::size_t bytes) {
  sim::SccMachine& m = rt_.machine();
  // Threadrt's process memory is one shared address space across the
  // logical threads; the sync edges come free through the machine's
  // TasLock/SyncBarrier, which threadrt reuses.
  m.noteDrf(sim::drf::kSpacePriv, addr, bytes, /*write=*/false, m.engine().now());
  const sim::Tick done = serialize(
      rt_.coreTimeline(), m.engine().now(), [&](sim::Tick start) {
        return m.privAccessCompletion(0, start, addr, bytes, false, out, nullptr);
      });
  return m.engine().resumeAt(done);
}

sim::ResumeAt ThreadContext::memWrite(std::uint64_t addr, const void* src,
                                      std::size_t bytes) {
  sim::SccMachine& m = rt_.machine();
  m.noteDrf(sim::drf::kSpacePriv, addr, bytes, /*write=*/true, m.engine().now());
  const sim::Tick done = serialize(
      rt_.coreTimeline(), m.engine().now(), [&](sim::Tick start) {
        return m.privAccessCompletion(0, start, addr, bytes, true, nullptr, src);
      });
  return m.engine().resumeAt(done);
}

sim::TasLock::Awaiter ThreadContext::lockAcquire(int lock_id) {
  return rt_.machine().lock(lock_id).acquire();
}

bool ThreadContext::ReleaseAwaiter::await_ready() {
  rt.machine().lock(lock_id).release();
  return true;
}

sim::SyncBarrier::Awaiter ThreadContext::barrier() {
  return rt_.machine().barrier().arrive();
}

SingleCoreRuntime::SingleCoreRuntime(sim::SccConfig config)
    : machine_(config) {}

void SingleCoreRuntime::launch(int num_threads, const ThreadProgram& program) {
  num_threads_ = num_threads;
  // Every logical thread executes on core 0, so core 0's memory controller
  // is the only resource timeline it can ever touch (threadrt never uses
  // the MPB) — register that reach so the threads don't pin any other
  // resource's coalescing horizon to the global event queue. Mutex-grant
  // and barrier-wake order at equal Ticks follows the engine's
  // (time, task_id) contract, i.e. ascending tid, independent of how the
  // wait queue was built.
  const std::uint32_t core0_mc = machine_.mesh().controllerOfCore(0);
  std::vector<std::size_t> task_ids;
  task_ids.reserve(static_cast<std::size_t>(num_threads));
  for (int tid = 0; tid < num_threads; ++tid) {
    contexts_.push_back(std::make_unique<ThreadContext>(*this, tid, num_threads));
    task_ids.push_back(machine_.engine().spawn(program(*contexts_.back()), 0, {core0_mc}));
    // Race detection: threads spawn from untimed host context, so siblings
    // start mutually concurrent — pthread_create's visibility guarantee.
    if (machine_.drfEnabled()) machine_.drfChecker().registerTask(task_ids.back(), tid);
  }
  // Threads are the barrier's members, its waiters' only potential wakers.
  machine_.setupBarrier(std::move(task_ids));
}

sim::Tick SingleCoreRuntime::run() {
  // Through the machine, so a traced run files each thread on its own track.
  sim::Tick makespan = machine_.run();
  // Context-switch overhead: with more than one runnable thread the
  // scheduler switches once per quantum.
  if (num_threads_ > 1) {
    const sim::SccConfig& cfg = machine_.config();
    const sim::Clock& clock = machine_.coreClock();
    const sim::Tick quantum = clock.cycles(cfg.scheduler_quantum_core_cycles);
    const sim::Tick switch_cost = clock.cycles(cfg.context_switch_core_cycles);
    const sim::Tick switches = quantum > 0 ? makespan / quantum : 0;
    makespan += switches * switch_cost;
  }
  return makespan;
}

}  // namespace hsm::threadrt
