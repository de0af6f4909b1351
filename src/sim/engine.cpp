#include "sim/engine.h"

#include <algorithm>
#include <cassert>
#include <utility>

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

bool ResumeAt::await_ready() const noexcept {
  // Zero-cost operations continue inline; anything in the future suspends.
  return when <= engine.now();
}

void ResumeAt::await_suspend(std::coroutine_handle<> h) const {
  engine.schedule(when, h);
}

void Engine::schedule(Tick when, std::coroutine_handle<> h, std::size_t task_id) {
  if (task_id >= task_pending_when_.size()) [[unlikely]] {
    throw std::logic_error("every event must belong to a spawned task");
  }
  if (when < now_) when = now_;
  assert(task_pending_when_[task_id] == kNever && "a task has one pending event");
  task_handle_[task_id] = h;
  // The running task's popped leaf is still in the tree: this one walk
  // replaces it.
  if (task_id == popped_) popped_ = kNoTask;
  setSlot(task_id, when);
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
    --classes_[task_class_[task_id]].blocked_registered;
  }
}

void Engine::fileLeaf(std::size_t task, Tick when) const {
  std::size_t n = tree_leaves_ + task;
  tree_[n].when = when;
  TreeNode winner = tree_[n];
  while (n > 1) {
    const TreeNode& sibling = tree_[n ^ 1];
    if (firesBefore(sibling, winner)) winner = sibling;
    n >>= 1;
    // Early exit: an unchanged node leaves every ancestor unchanged too. A
    // barrier release re-files dozens of late wakes, most of which lose
    // within a level or two.
    if (tree_[n].when == winner.when && tree_[n].task == winner.task) return;
    tree_[n] = winner;
  }
}

void Engine::growTree(std::size_t tasks) {
  std::size_t leaves = tree_leaves_;
  while (leaves < tasks) leaves *= 2;
  if (leaves == tree_leaves_) return;
  tree_leaves_ = leaves;
  popped_ = kNoTask;  // the rebuild files every leaf from task_pending_when_
  tree_.assign(2 * leaves, TreeNode{kNever, 0});
  for (std::size_t i = 0; i < leaves; ++i) {
    tree_[leaves + i] = TreeNode{
        i < task_pending_when_.size() ? task_pending_when_[i] : kNever,
        static_cast<std::uint32_t>(i)};
  }
  for (std::size_t n = leaves - 1; n >= 1; --n) {
    const TreeNode& l = tree_[2 * n];
    const TreeNode& r = tree_[2 * n + 1];
    tree_[n] = firesBefore(r, l) ? r : l;
  }
}

std::uint32_t Engine::internReachClass(std::vector<std::uint32_t> reach) {
  for (std::uint32_t c = 0; c < classes_.size(); ++c) {
    if (classes_[c].resources == reach) return c;
  }
  const auto cls = static_cast<std::uint32_t>(classes_.size());
  for (const std::uint32_t r : reach) resource_classes_[r].push_back(cls);
  classes_.push_back(ReachClass{std::move(reach), {}, 0, 0, 0});
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

Tick Engine::nextEventTimeFor(std::uint32_t resource,
                              std::span<const std::size_t> members) const {
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
    if (blocked > c.blocked_registered) return nextEventTime();
    if (c.pending_count == 0) continue;
    for (const std::size_t m : c.members) {
      const Tick when = task_pending_when_[m];
      if (when < horizon && !isMember(m)) horizon = when;
    }
  }
  // Every registered blocked task that can reach this resource bounds the
  // horizon by the earliest execution of its wake chain.
  for (const std::size_t b : blocked_tasks_) {
    if (!classReaches(task_class_[b], resource)) continue;
    wake_path_.assign(1, b);
    horizon = std::min(horizon, wakeBound(b, wake_path_, members));
  }
  return horizon;
}

std::uint32_t Engine::registerLock() {
  syncs_.push_back({});
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
    ++classes_[task_class_[task]].blocked_registered;
  }
  task_blocked_sync_[task] = sync;
}

std::size_t Engine::spawn(SimTask task, Tick start, std::vector<std::uint32_t> reach) {
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
  task_pending_when_.push_back(kNever);
  task_handle_.emplace_back();
  task_blocked_sync_.push_back(kNoSync);
  task_blocked_index_.push_back(0);
  task_blocked_at_.push_back(0);
  task_done_.push_back(false);
  member_mark_.push_back(0);
  completion_.push_back(0);
  growTree(id + 1);
  ++classes_[cls].alive;
  classes_[cls].members.push_back(id);
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
    const TreeNode next = tree_[1];
    if (next.when == kNever) break;
    const std::size_t task = next.task;
    const std::coroutine_handle<> handle = task_handle_[task];
    // Pop: the slot empties now, but the leaf stays filed until the task's
    // own schedule() replaces it or dropPopped() clears it (header comment).
    task_pending_when_[task] = kNever;
    popped_ = task;
    --classes_[task_class_[task]].pending_count;
    if (watchdog_limit_ != 0) {
      same_tick_events_ = next.when == now_ ? same_tick_events_ + 1 : 0;
      if (same_tick_events_ > watchdog_limit_) {
        current_task_ = kNoTask;
        traceHangReport(2, now_);
        throw WatchdogError(hangReport());
      }
    }
    now_ = next.when;
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
