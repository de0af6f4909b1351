#include "sim/engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "sim/obs/trace.h"

namespace hsm::sim {

std::string HangReport::format() const {
  std::string out = "no-progress report at t=" + std::to_string(at) + " ps: " +
                    std::to_string(waiters.size()) + " unfinished task(s)\n";
  for (const Waiter& w : waiters) {
    out += "  task " + std::to_string(w.task);
    if (w.sync == static_cast<std::uint32_t>(-1)) {
      out += " parked by an unknown mechanism (wedged/frozen: no wake-for edge)";
    } else {
      out += " blocked on sync " + std::to_string(w.sync) + " since t=" +
             std::to_string(w.blocked_since);
      if (!w.wakers_known) {
        out += ", wakers unknown";
      } else {
        out += w.all_wakers_required ? ", waits for ALL of {" : ", waits for ANY of {";
        for (std::size_t i = 0; i < w.wakers.size(); ++i) {
          if (i > 0) out += ", ";
          out += std::to_string(w.wakers[i]);
        }
        out += "}";
      }
    }
    out += "\n";
  }
  return out;
}

SimHangError::SimHangError(Kind kind, HangReport report)
    : std::runtime_error(report.format()), kind_(kind), report_(std::move(report)) {}

namespace {

constexpr std::size_t kFrameClassBytes = 64;
constexpr std::size_t kFrameClasses = 16;  // pooled frames: up to 1 KiB

// A frame on a free list is poisoned whole, its link included: allocateFrame
// unpoisons a frame before reading the link.
void poisonFrame([[maybe_unused]] void* frame, [[maybe_unused]] std::size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(frame, bytes);
#endif
}

void unpoisonFrame([[maybe_unused]] void* frame, [[maybe_unused]] std::size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(frame, bytes);
#endif
}

/// One thread's free lists, one per size class, linked through the frames'
/// first word; the thread's exit hands every frame back to the heap (so no
/// SubTask may be destroyed by a thread after its thread-local destructors
/// ran).
struct FramePool {
  void* free[kFrameClasses] = {};

  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;
  ~FramePool() {
    for (std::size_t cls = 0; cls < kFrameClasses; ++cls) {
      const std::size_t bytes = (cls + 1) * kFrameClassBytes;
      while (void* frame = free[cls]) {
        unpoisonFrame(frame, bytes);
        free[cls] = *static_cast<void**>(frame);
        ::operator delete(frame, bytes);
      }
    }
  }
};

thread_local FramePool frame_pool;

}  // namespace

void* allocateFrame(std::size_t bytes) {
  const std::size_t cls = (bytes - 1) / kFrameClassBytes;
  if (cls >= kFrameClasses) return ::operator new(bytes);
  const std::size_t block = (cls + 1) * kFrameClassBytes;
  void* const frame = frame_pool.free[cls];
  if (frame == nullptr) return ::operator new(block);
  unpoisonFrame(frame, block);
  frame_pool.free[cls] = *static_cast<void**>(frame);
  return frame;
}

void releaseFrame(void* frame, std::size_t bytes) noexcept {
  const std::size_t cls = (bytes - 1) / kFrameClassBytes;
  if (cls >= kFrameClasses) {
    ::operator delete(frame, bytes);
    return;
  }
  *static_cast<void**>(frame) = frame_pool.free[cls];
  frame_pool.free[cls] = frame;
  poisonFrame(frame, (cls + 1) * kFrameClassBytes);
}

void Engine::throwTaskRange(std::size_t task) {
  throw std::out_of_range("task id " + std::to_string(task) + " does not fit a tree key (at most " +
                          std::to_string(kMaxTasks) + " tasks)");
}

void Engine::throwTickRange(Tick when) {
  throw std::out_of_range("event Tick " + std::to_string(when) +
                          " does not fit a tree key (at most " + std::to_string(kMaxTick) + ")");
}

void Engine::schedule(Tick when, std::coroutine_handle<> h, std::size_t task_id,
                      RunScope scope) {
  if (task_id >= task_pending_when_.size()) [[unlikely]] {
    throw std::logic_error("every event must belong to a spawned task");
  }
  if (when < now_) when = now_;
  const std::uint64_t key = eventKey(when, task_id);
  assert(task_pending_when_[task_id] == kNever && "a task has one pending event");
  task_handle_[task_id] = h;
  // The running task's popped leaf is still in the tree: this one walk
  // replaces it.
  if (task_id == popped_) popped_ = kNoTask;
  setSlot(task_id, when, key, scope);
  ++classes_[task_class_[task_id]].pending_count;
  // A schedule aimed at a blocked task IS its wake: clear the park.
  if (task_blocked_sync_[task_id] != kNoSync) {
    if (trace_ != nullptr && trace_->enabled()) {
      // The park-clearing schedule IS the wake. `when` is the woken
      // task's resume Tick — an operation boundary, identical across
      // coalescing modes.
      trace_->record(task_id,
                     obs::TraceEvent{when, when, task_blocked_sync_[task_id], 0, 0,
                                     obs::kNoTraceResource,
                                     obs::TraceEventKind::kWake});
    }
    task_blocked_sync_[task_id] = kNoSync;
    const std::size_t i = task_blocked_index_[task_id];
    const std::size_t last = blocked_tasks_.back();
    blocked_tasks_[i] = last;
    task_blocked_index_[last] = i;
    blocked_tasks_.pop_back();
    std::vector<std::size_t>& in_class = classes_[task_class_[task_id]].blocked;
    const std::size_t j = task_class_blocked_index_[task_id];
    const std::size_t last_in_class = in_class.back();
    in_class[j] = last_in_class;
    task_class_blocked_index_[last_in_class] = j;
    in_class.pop_back();
  }
}

void Engine::layoutTree() {
  // Blocks largest first: each then starts at a multiple of its own size.
  std::vector<std::uint32_t> order(classes_.size());
  for (std::uint32_t c = 0; c < order.size(); ++c) {
    classes_[c].block_size = std::bit_ceil(std::max<std::size_t>(classes_[c].members.size(), 1));
    order[c] = c;
  }
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return classes_[a].block_size > classes_[b].block_size;
  });
  std::size_t used = 0;
  for (const std::uint32_t c : order) {
    classes_[c].block = used;
    used += classes_[c].block_size;
  }
  tree_leaves_ = std::bit_ceil(std::max<std::size_t>(used, 1));
  popped_ = kNoTask;  // the rebuild files every leaf from task_pending_when_
  tree_.assign(2 * tree_leaves_, kEmptyKey);
  for (ReachClass& c : classes_) {
    c.node = (tree_leaves_ + c.block) / c.block_size;
    for (std::size_t i = 0; i < c.members.size(); ++i) {
      const std::size_t task = c.members[i];
      task_leaf_[task] = c.block + i;
      tree_[tree_leaves_ + c.block + i] = eventKey(task_pending_when_[task], task);
    }
  }
  for (std::size_t n = tree_leaves_ - 1; n >= 1; --n) {
    tree_[n] = std::min(tree_[2 * n], tree_[2 * n + 1]);
  }
}

Tick Engine::horizonLowerBound(std::uint32_t resource) const {
  if (resource >= resource_classes_.size()) return 0;
  const std::size_t running = currentTaskId();
  std::uint64_t key = kEmptyKey;
  for (const std::uint32_t cls : resource_classes_[resource]) {
    const ReachClass& c = classes_[cls];
    const bool runs_here = running != kNoTask && task_class_[running] == cls;
    if (c.alive - c.pending_count > (runs_here ? 1 : 0)) return 0;  // a member is parked
    if (popped_ != kNoTask && task_class_[popped_] == cls) {
      // The class node still holds the running task's popped leaf: take the
      // siblings on that leaf's path up to the node instead.
      for (std::size_t n = tree_leaves_ + task_leaf_[popped_]; n > c.node; n >>= 1) {
        key = std::min(key, tree_[n ^ 1]);
      }
    } else {
      key = std::min(key, tree_[c.node]);
    }
  }
  return key == kEmptyKey ? kNever : key >> 16;
}

std::uint32_t Engine::internReachClass(std::vector<std::uint32_t> reach) {
  for (std::uint32_t c = 0; c < classes_.size(); ++c) {
    if (classes_[c].resources == reach) return c;
  }
  const auto cls = static_cast<std::uint32_t>(classes_.size());
  for (const std::uint32_t r : reach) resource_classes_[r].push_back(cls);
  classes_.emplace_back().resources = std::move(reach);
  return cls;
}

Tick Engine::earliestRun(std::size_t w, std::vector<std::size_t>& visited,
                         std::span<const std::size_t> members) const {
  if (task_done_[w] || isMember(w)) return kNever;  // inert, or mid-batch
  if (task_pending_when_[w] != kNever) return task_pending_when_[w];
  // No pending event and not registered blocked: parked by an unknown
  // mechanism — any event could wake it.
  if (task_blocked_sync_[w] == kNoSync) return nextEventTime();
  if (std::find(visited.begin(), visited.end(), w) != visited.end()) {
    return kNever;  // cycle of blocked wakers: the chain can never fire
  }
  // `visited` is the current recursion path: pop after returning so a waker
  // explored in a sibling subtree is not mistaken for a cycle.
  visited.push_back(w);
  const Tick bound = wakeBound(w, visited, members);
  visited.pop_back();
  return bound;
}

Tick Engine::wakeBound(std::size_t task, std::vector<std::size_t>& visited,
                       std::span<const std::size_t> members) const {
  const std::uint32_t sync = task_blocked_sync_[task];
  if (sync == kNoSync) return nextEventTime();
  const SyncObject& s = syncs_[sync];

  if (!s.barrier) {
    if (s.holder == kNoTask) return nextEventTime();  // holder unknown
    // A task cannot wake itself, and a member performs no sync releases
    // mid-batch (see header).
    if (s.holder == task) return kNever;
    return earliestRun(s.holder, visited, members);
  }
  // Every member still to arrive must run before the release: the bound is
  // the latest of their earliest executions, and a required member that can
  // never act again (a batch member, a finished task, a deadlocked chain)
  // means the wake cannot fire within any horizon. A batch member still to
  // arrive is the common case (tasks parked at a barrier the batch's tasks
  // have not reached) and is answered from the few batch members' stamps.
  for (const std::size_t m : members) {
    if (m != task && s.awaited(m)) return kNever;
  }
  Tick bound = 0;
  for (const std::size_t w : s.members) {
    if (w == task || !s.awaited(w)) continue;
    const Tick earliest = earliestRun(w, visited, members);
    if (earliest == kNever) return kNever;
    bound = std::max(bound, earliest);
  }
  return bound;
}

Tick Engine::nextEventTimeFor(std::uint32_t resource) const {
  const std::size_t running = currentTaskId();
  if (running == kNoTask) return nextEventTimeFor(resource, {});
  return nextEventTimeFor(resource, std::span<const std::size_t>(&running, 1));
}

Tick Engine::nextEventTimeFor(std::uint32_t resource, std::span<const std::size_t> members,
                              Tick floor) const {
  if (resource >= resource_classes_.size()) return nextEventTime();
  ++member_epoch_;
  for (const std::size_t m : members) {
    assert((m == currentTaskId() || task_pending_when_[m] != kNever) &&
           "a member is the running task or has a pending event");
    member_mark_[m] = member_epoch_;
  }
  // Blocked = alive but no pending event (parked on a lock/barrier). The
  // running task itself has no pending event either; it is excluded, not
  // blocked. A blocked task reaching this resource collapses the horizon to
  // the global one UNLESS every such task is registered against a sync
  // object whose waker chain the kernel can bound.
  const std::size_t running = currentTaskId();
  Tick horizon = kNever;
  for (const std::uint32_t cls : resource_classes_[resource]) {
    const ReachClass& c = classes_[cls];
    std::int64_t blocked = c.alive - c.pending_count;
    if (running != kNoTask && task_class_[running] == cls) --blocked;
    if (blocked > static_cast<std::int64_t>(c.blocked.size())) return nextEventTime();
    if (c.pending_count == 0) continue;
    for (const std::size_t m : c.members) {
      // A task scoped to another resource cannot act on this one before its
      // scope ends.
      const RunScope& scope = task_scope_[m];
      Tick when = task_pending_when_[m];
      if (scope.resource != resource) when = std::max(when, scope.end);
      if (when < horizon && !isMember(m)) {
        horizon = when;
        if (horizon <= floor) return horizon;
      }
    }
  }
  // Every registered blocked task that can reach this resource bounds the
  // horizon by the earliest execution of its wake chain. A waiter that is
  // not itself one of its sync object's wakers (an arrived barrier member,
  // a lock waiter other than the holder) cannot shorten the chain, so all
  // such waiters of one object share its bound.
  for (const std::uint32_t cls : resource_classes_[resource]) {
    for (const std::size_t b : classes_[cls].blocked) {
      const std::uint32_t sync = task_blocked_sync_[b];
      const SyncObject& s = syncs_[sync];
      const bool shared = s.barrier ? !s.awaited(b) : s.holder != b;
      Tick bound = 0;
      if (shared && sync_bound_epoch_[sync] == member_epoch_) {
        bound = sync_bound_[sync];
      } else {
        wake_path_.assign(1, b);
        bound = wakeBound(b, wake_path_, members);
        if (shared) {
          sync_bound_epoch_[sync] = member_epoch_;
          sync_bound_[sync] = bound;
        }
      }
      horizon = std::min(horizon, bound);
      if (horizon <= floor) return horizon;
    }
  }
  return horizon;
}

std::uint32_t Engine::registerLock() {
  syncs_.push_back({});
  sync_bound_epoch_.push_back(0);
  sync_bound_.push_back(0);
  return static_cast<std::uint32_t>(syncs_.size() - 1);
}

void Engine::setLockHolder(std::uint32_t lock, std::size_t holder) {
  assert(!syncs_[lock].barrier && (holder == kNoTask || holder < tasks_.size()));
  syncs_[lock].holder = holder;
}

std::uint32_t Engine::registerBarrier(std::vector<std::size_t> members) {
  SyncObject s;
  s.barrier = true;
  for (const std::size_t m : members) {
    if (m >= tasks_.size()) {
      throw std::invalid_argument("barrier member " + std::to_string(m) +
                                  " is not a spawned task");
    }
    if (m >= s.stamp.size()) s.stamp.resize(m + 1, 0);
    s.stamp[m] = 1;
  }
  s.members = std::move(members);
  syncs_.push_back(std::move(s));
  sync_bound_epoch_.push_back(0);
  sync_bound_.push_back(0);
  return static_cast<std::uint32_t>(syncs_.size() - 1);
}

void Engine::arriveAtBarrier(std::uint32_t barrier, std::size_t task) {
  SyncObject& s = syncs_[barrier];
  if (task < s.stamp.size() && s.stamp[task] != 0) s.stamp[task] = s.generation;
}

void Engine::blockOnSync(std::size_t task, std::uint32_t sync) {
  assert(sync < syncs_.size() && "block on a registered sync object");
  if (task >= task_blocked_sync_.size()) return;  // also filters kNoTask
  if (task_blocked_sync_[task] == kNoSync) {
    task_blocked_index_[task] = blocked_tasks_.size();
    task_blocked_at_[task] = now_;
    if (trace_ != nullptr && trace_->enabled()) {
      trace_->record(task, obs::TraceEvent{now_, now_, sync, 0, 0, obs::kNoTraceResource,
                                           obs::TraceEventKind::kBlock});
    }
    blocked_tasks_.push_back(task);
    std::vector<std::size_t>& in_class = classes_[task_class_[task]].blocked;
    task_class_blocked_index_[task] = in_class.size();
    in_class.push_back(task);
  }
  task_blocked_sync_[task] = sync;
}

std::size_t Engine::spawn(SimTask task, Tick start, std::vector<std::uint32_t> reach) {
  (void)eventKey(start, tasks_.size());  // both fit a key, or nothing is adopted
  std::sort(reach.begin(), reach.end());
  reach.erase(std::unique(reach.begin(), reach.end()), reach.end());
  if (!reach.empty() && reach.back() >= resource_classes_.size()) {
    throw std::invalid_argument("spawn: reach names unregistered resource " +
                                std::to_string(reach.back()));
  }
  if (reach.empty() && !resource_classes_.empty()) {
    throw std::invalid_argument("spawn: a task must declare the resources it reaches");
  }
  const std::uint32_t cls = internReachClass(std::move(reach));
  const std::size_t id = tasks_.size();
  task_class_.push_back(cls);
  task_leaf_.push_back(0);
  task_pending_when_.push_back(kNever);
  task_scope_.emplace_back();
  task_handle_.emplace_back();
  task_blocked_sync_.push_back(kNoSync);
  task_blocked_index_.push_back(0);
  task_class_blocked_index_.push_back(0);
  task_blocked_at_.push_back(0);
  task_done_.push_back(false);
  member_mark_.push_back(0);
  completion_.push_back(0);
  ReachClass& c = classes_[cls];
  ++c.alive;
  c.members.push_back(id);
  if (c.members.size() > c.block_size) {
    layoutTree();  // a new class (no block yet), or one outgrowing its block
  } else {
    task_leaf_[id] = c.block + c.members.size() - 1;  // an empty leaf of its block
  }
  task.handle().promise().engine = this;
  task.handle().promise().task_id = id;
  tasks_.push_back(std::move(task));
  schedule(start, tasks_.back().handle(), id);
  return id;
}

std::size_t Engine::unfinishedTasks() const {
  return static_cast<std::size_t>(std::count(task_done_.begin(), task_done_.end(), 0));
}

HangReport Engine::hangReport() const {
  HangReport report;
  report.at = now_;
  for (std::size_t id = 0; id < tasks_.size(); ++id) {
    if (task_done_[id]) continue;
    HangReport::Waiter w;
    w.task = id;
    w.sync = task_blocked_sync_[id];
    if (w.sync != kNoSync) {
      w.blocked_since = task_blocked_at_[id];
      const SyncObject& s = syncs_[w.sync];
      w.all_wakers_required = s.barrier;
      w.wakers_known = s.barrier || s.holder != kNoTask;
      const auto waker = [&](std::size_t t) { return t != id && !task_done_[t]; };
      if (s.barrier) {
        for (const std::size_t m : s.members) {
          if (s.awaited(m) && waker(m)) w.wakers.push_back(m);
        }
      } else if (s.holder != kNoTask && waker(s.holder)) {
        w.wakers.push_back(s.holder);
      }
    }
    report.waiters.push_back(std::move(w));
  }
  return report;
}

void Engine::traceHangReport(std::uint64_t kind, Tick at) {
  if (trace_ == nullptr || !trace_->enabled()) return;
  trace_->recordHost(obs::TraceEvent{at, at, kind, 0, 0, obs::kNoTraceResource,
                                     obs::TraceEventKind::kReport});
}

void Engine::checkSyncTimeouts() {
  for (const std::size_t task : blocked_tasks_) {
    if (now_ - task_blocked_at_[task] > sync_timeout_) {
      traceHangReport(1, now_);
      throw SyncTimeout(hangReport());
    }
  }
}

Tick Engine::run() {
  const auto wall_start = std::chrono::steady_clock::now();
  // Accumulate host wall time on every exit path, including the structured
  // hang/timeout/watchdog throws below.
  struct WallGuard {
    Engine& e;
    std::chrono::steady_clock::time_point start;
    ~WallGuard() {
      e.wall_seconds_ +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
              .count();
    }
  } wall_guard{*this, wall_start};
  for (;;) {
    dropPopped();
    const std::uint64_t key = tree_[1];
    if (key == kEmptyKey) break;
    const std::size_t task = key & (kMaxTasks - 1);
    const Tick when = key >> 16;
    const std::coroutine_handle<> handle = task_handle_[task];
    // Pop: the slot empties now, but the leaf stays filed until the task's
    // own schedule() replaces it or dropPopped() clears it (header comment).
    task_pending_when_[task] = kNever;
    task_scope_[task] = RunScope{};
    popped_ = task;
    --classes_[task_class_[task]].pending_count;
    if (watchdog_limit_ != 0) {
      same_tick_events_ = when == now_ ? same_tick_events_ + 1 : 0;
      if (same_tick_events_ > watchdog_limit_) {
        current_task_ = kNoTask;
        traceHangReport(2, now_);
        throw WatchdogError(hangReport());
      }
    }
    if (event_hook_) event_hook_(when, task);
    now_ = when;
    current_task_ = task;
    ++events_processed_;
    handle.resume();
    if (sync_timeout_ != 0 && !blocked_tasks_.empty()) {
      current_task_ = kNoTask;
      checkSyncTimeouts();  // throws SyncTimeout on an overstayed park
    }
  }
  current_task_ = kNoTask;
  if (hang_detection_ && unfinishedTasks() > 0) {
    // Satellite fix for the silent-hang bug: the queue drained while tasks
    // were still alive (parked on a lock/barrier, or wedged). Fail loudly
    // with the wait-for graph instead of returning as if the run finished.
    traceHangReport(0, now_);
    throw DeadlockError(hangReport());
  }
  return now_;
}

Tick Engine::makespan() const {
  Tick max = 0;
  for (Tick t : completion_) max = std::max(max, t);
  return max;
}

}  // namespace hsm::sim
