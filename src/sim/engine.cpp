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
  if (when < now_) when = now_;
  if (task_id == kNoTask) {
    host_events_.push_back(HostEvent{when, next_host_seq_++, h});
    std::push_heap(host_events_.begin(), host_events_.end(), HostEventAfter{});
    return;
  }
  assert(task_id < task_pending_when_.size() && "schedule for an unspawned task");
  assert(task_pending_when_[task_id] == kNever && "a task has one pending event");
  task_handle_[task_id] = h;
  setSlot(task_id, when);
  if (counted(task_id)) countPending(task_id, 1);
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
    if (task_id >= counted_tasks_from_) {
      const std::uint32_t bcls = classOfTask(task_id);
      if (bcls == kUniversalClass) {
        --universal_blocked_registered_;
      } else if (bcls < classes_.size()) {
        --classes_[bcls].blocked_registered;
      }
    }
  }
}

void Engine::setSlot(std::size_t task, Tick when) {
  task_pending_when_[task] = when;
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

void Engine::registerResources(std::uint32_t count) {
  resource_classes_.assign(count, {});
  classes_.clear();
  // Earlier tasks' class ids would dangle into the cleared class table;
  // demote them to universal reach (they are uncounted from here on anyway,
  // but their pending events still bound every horizon).
  std::fill(task_class_.begin(), task_class_.end(), kUniversalClass);
  unaffined_members_.clear();
  for (std::size_t id = 0; id < tasks_.size(); ++id) unaffined_members_.push_back(id);
  unaffined_pending_count_ = 0;
  unaffined_alive_ = 0;
  // Tasks still parked from before re-registration are uncounted from here
  // on, matching the per-class registered-blocked bookkeeping.
  universal_blocked_registered_ = 0;
  counted_tasks_from_ = tasks_.size();
}

std::uint32_t Engine::internReachClass(std::vector<std::uint32_t> reach) {
  std::sort(reach.begin(), reach.end());
  reach.erase(std::unique(reach.begin(), reach.end()), reach.end());
  if (reach.empty()) return kUniversalClass;
  for (const std::uint32_t r : reach) {
    // Any unregistered id degrades the whole set to universal reach: the
    // caller promised something the kernel cannot account, stay conservative.
    if (r == kNoResource || r >= resource_classes_.size()) return kUniversalClass;
  }
  for (std::uint32_t c = 0; c < classes_.size(); ++c) {
    if (classes_[c].resources == reach) return c;
  }
  const auto cls = static_cast<std::uint32_t>(classes_.size());
  classes_.push_back(ReachClass{reach, {}, 0, 0, 0});
  for (const std::uint32_t r : reach) resource_classes_[r].push_back(cls);
  return cls;
}

Tick Engine::wakeBound(std::size_t task, std::vector<std::size_t>& visited) const {
  const std::uint32_t sync =
      task < task_blocked_sync_.size() ? task_blocked_sync_[task] : kNoSync;
  if (sync == kNoSync || sync >= syncs_.size()) return nextEventTime();
  const SyncObject& s = syncs_[sync];
  if (!s.wakers_known) return nextEventTime();
  const std::size_t running = currentTaskId();

  if (s.rule == WakerRule::kAll) {
    // Every waker must run before the wake can be scheduled: the bound is
    // the latest of their earliest executions. A required waker that can
    // never act again (the running task mid-batch, a finished task, a
    // deadlocked chain) means the wake cannot fire within any horizon.
    // The running task being a current waker is the common case (tasks
    // parked at a barrier the caller has not reached) and is answered in
    // O(1): the scan below would return kNever on reaching it, and every
    // return it could take before that is kNever too.
    if (running != task && s.isCurrentWaker(running)) return kNever;
    Tick bound = 0;
    for (const std::size_t w : s.wakers) {
      if (s.episodic && s.removedThisEpisode(w)) continue;  // already arrived
      if (w == task) continue;
      if (w == running) return kNever;  // cannot arrive mid-batch
      if (w < task_done_.size() && task_done_[w]) return kNever;
      const Tick pending =
          w < task_pending_when_.size() ? task_pending_when_[w] : kNever;
      Tick earliest;
      if (pending != kNever) {
        earliest = pending;
      } else if (w < task_blocked_sync_.size() && task_blocked_sync_[w] != kNoSync) {
        if (std::find(visited.begin(), visited.end(), w) != visited.end()) {
          return kNever;  // cycle of blocked wakers: the release never comes
        }
        // `visited` is the current recursion path: pop after returning so a
        // waker explored in a sibling subtree is not mistaken for a cycle.
        visited.push_back(w);
        earliest = wakeBound(w, visited);
        visited.pop_back();
      } else {
        // Unknown park: it could run as soon as the next event wakes it.
        earliest = nextEventTime();
      }
      if (earliest == kNever) return kNever;
      bound = std::max(bound, earliest);
    }
    return bound;
  }

  // kAny: one waker suffices — the earliest of their earliest executions.
  Tick bound = kNever;
  for (const std::size_t w : s.wakers) {
    if (s.episodic && s.removedThisEpisode(w)) continue;  // inert this episode
    if (w == task) continue;  // a task cannot wake itself
    // The running task performs no sync releases mid-batch (see header).
    if (w == running) continue;
    if (w < task_done_.size() && task_done_[w]) continue;  // finished: inert
    const Tick pending = w < task_pending_when_.size() ? task_pending_when_[w] : kNever;
    if (pending != kNever) {
      bound = std::min(bound, pending);
      continue;
    }
    if (w < task_blocked_sync_.size() && task_blocked_sync_[w] != kNoSync) {
      if (std::find(visited.begin(), visited.end(), w) != visited.end()) {
        continue;  // cycle of blocked wakers: this chain can never fire
      }
      visited.push_back(w);
      bound = std::min(bound, wakeBound(w, visited));
      visited.pop_back();
      continue;
    }
    // No pending event, not registered blocked, not done: parked by an
    // unknown mechanism — any event could wake it.
    return nextEventTime();
  }
  return bound;
}

Tick Engine::nextEventTimeFor(std::uint32_t resource) const {
  if (resource_classes_.empty() || resource >= resource_classes_.size()) {
    return nextEventTime();
  }
  // Blocked = alive but no pending event (parked on a lock/barrier). The
  // running task itself has no pending event either; it is excluded, not
  // blocked. A blocked task reaching this resource collapses the horizon to
  // the global one UNLESS every such task is registered against a sync
  // object whose waker chain the kernel can bound.
  const std::size_t running = currentTaskId();
  const bool adjust_cur = running != kNoTask && running >= counted_tasks_from_ &&
                          running < task_class_.size();
  const std::uint32_t cur_cls = adjust_cur ? task_class_[running] : 0;

  Tick horizon = kNever;
  for (const std::uint32_t cls : resource_classes_[resource]) {
    const ReachClass& c = classes_[cls];
    std::int64_t blocked = c.alive - c.pending_count;
    if (adjust_cur && cur_cls == cls) --blocked;
    if (blocked > c.blocked_registered) return nextEventTime();
    if (c.pending_count == 0) continue;
    for (const std::size_t m : c.members) horizon = std::min(horizon, task_pending_when_[m]);
  }

  std::int64_t blocked_universal = unaffined_alive_ - unaffined_pending_count_;
  if (adjust_cur && cur_cls == kUniversalClass) --blocked_universal;
  if (blocked_universal > universal_blocked_registered_) return nextEventTime();
  for (const std::size_t m : unaffined_members_) {
    horizon = std::min(horizon, task_pending_when_[m]);
  }
  if (!host_events_.empty()) horizon = std::min(horizon, host_events_.front().when);

  // Every registered blocked task that can reach this resource bounds the
  // horizon by the earliest execution of its wake chain.
  for (const std::size_t b : blocked_tasks_) {
    const std::uint32_t cls = classOfTask(b);
    if (cls != kUniversalClass && !classReaches(cls, resource)) continue;
    wake_path_.clear();
    wake_path_.push_back(b);
    horizon = std::min(horizon, wakeBound(b, wake_path_));
  }
  return horizon;
}

std::uint32_t Engine::registerSyncObject() {
  syncs_.push_back({});
  return static_cast<std::uint32_t>(syncs_.size() - 1);
}

std::size_t Engine::aliveTasksReaching(std::uint32_t resource) const {
  constexpr std::size_t kInexact = static_cast<std::size_t>(-1);
  if (resource_classes_.empty() || resource >= resource_classes_.size()) {
    return kInexact;
  }
  // Universal-reach activity (unaffined tasks, host events, live tasks
  // predating registerResources) could touch the resource without appearing
  // in any class bucket — the count would under-report.
  if (unaffined_alive_ != 0 || !host_events_.empty()) return kInexact;
  for (std::size_t id = 0; id < counted_tasks_from_ && id < tasks_.size(); ++id) {
    if (id >= task_done_.size() || !task_done_[id]) return kInexact;
  }
  std::int64_t n = 0;
  for (const std::uint32_t cls : resource_classes_[resource]) {
    n += classes_[cls].alive;
  }
  return n < 0 ? kInexact : static_cast<std::size_t>(n);
}

std::size_t Engine::blockedTasksReaching(std::uint32_t resource) const {
  if (resource_classes_.empty() || resource >= resource_classes_.size()) return 0;
  std::int64_t n = universal_blocked_registered_;
  for (const std::uint32_t cls : resource_classes_[resource]) {
    n += classes_[cls].blocked_registered;
  }
  return n < 0 ? 0 : static_cast<std::size_t>(n);
}

std::size_t Engine::parkedTasksReaching(std::uint32_t resource) const {
  if (resource_classes_.empty() || resource >= resource_classes_.size()) return 0;
  std::size_t n = 0;
  for (const std::size_t b : blocked_tasks_) {
    // Same population as the blocked_registered tallies: counted tasks only.
    if (b < counted_tasks_from_) continue;
    const std::uint32_t cls = classOfTask(b);
    if (cls != kUniversalClass && !classReaches(cls, resource)) continue;
    wake_path_.clear();
    wake_path_.push_back(b);
    if (wakeBound(b, wake_path_) == kNever) ++n;
  }
  return n;
}

void Engine::setSyncWakers(std::uint32_t sync, std::vector<std::size_t> wakers,
                           WakerRule rule) {
  if (sync >= syncs_.size()) return;
  SyncObject& s = syncs_[sync];
  // Rebuild the membership index: clear the old members' slots in place
  // (cheaper than re-zeroing the whole index every call), then file the
  // new set.
  for (const std::size_t old : s.wakers) {
    if (old < s.waker_pos.size()) s.waker_pos[old] = 0;
  }
  s.wakers = std::move(wakers);
  for (std::size_t i = 0; i < s.wakers.size(); ++i) {
    const std::size_t w = s.wakers[i];
    if (w == kNoTask) continue;  // host wakers are never removed by id
    if (w >= s.waker_pos.size()) s.waker_pos.resize(w + 1, 0);
    s.waker_pos[w] = i + 1;
  }
  s.episodic = false;
  s.wakers_known = true;
  s.rule = rule;
}

void Engine::setSyncEpisodeWakers(std::uint32_t sync, std::vector<std::size_t> wakers,
                                  WakerRule rule) {
  if (sync >= syncs_.size()) return;
  SyncObject& s = syncs_[sync];
  for (const std::size_t old : s.wakers) {
    if (old < s.waker_pos.size()) s.waker_pos[old] = 0;  // leave no stale index
  }
  s.wakers = std::move(wakers);
  std::size_t max_id = 0;
  for (std::size_t i = 0; i < s.wakers.size(); ++i) {
    const std::size_t w = s.wakers[i];
    if (w == kNoTask) continue;
    if (w >= max_id) max_id = w + 1;
    if (w >= s.waker_pos.size()) s.waker_pos.resize(w + 1, 0);
    s.waker_pos[w] = i + 1;  // membership only: removal stamps removed_gen
  }
  s.removed_gen.assign(max_id, 0);
  s.generation = 1;
  s.episodic = true;
  s.wakers_known = true;
  s.rule = rule;
}

void Engine::resetSyncEpisode(std::uint32_t sync) {
  if (sync >= syncs_.size() || !syncs_[sync].episodic) return;
  // All removal stamps of the finished episode become stale at once.
  ++syncs_[sync].generation;
}

void Engine::removeSyncWaker(std::uint32_t sync, std::size_t task) {
  if (sync >= syncs_.size() || !syncs_[sync].wakers_known) return;
  SyncObject& s = syncs_[sync];
  if (s.episodic) {
    // Also filters kNoTask: only declared members have a stamp slot.
    if (task < s.removed_gen.size()) s.removed_gen[task] = s.generation;
    return;
  }
  if (task >= s.waker_pos.size()) return;  // also filters kNoTask
  const std::size_t pos = s.waker_pos[task];
  if (pos == 0) return;
  const std::size_t i = pos - 1;
  const std::size_t last = s.wakers.back();
  s.wakers[i] = last;
  if (last < s.waker_pos.size()) s.waker_pos[last] = i + 1;
  s.wakers.pop_back();
  s.waker_pos[task] = 0;
}

void Engine::clearSyncWakers(std::uint32_t sync) {
  if (sync >= syncs_.size()) return;
  SyncObject& s = syncs_[sync];
  for (const std::size_t old : s.wakers) {
    if (old < s.waker_pos.size()) s.waker_pos[old] = 0;
  }
  s.wakers.clear();
  s.removed_gen.clear();
  s.episodic = false;
  s.wakers_known = false;
}

void Engine::blockOnSync(std::size_t task, std::uint32_t sync) {
  if (task == kNoTask || task >= task_blocked_sync_.size()) return;
  if (task_blocked_sync_[task] == kNoSync) {
    task_blocked_index_[task] = blocked_tasks_.size();
    task_blocked_at_[task] = now_;
    if (trace_ != nullptr && trace_->enabled()) {
      const Tick at = task_blocked_at_[task];
      trace_->record(task, obs::TraceEvent{at, at, sync, 0, 0, obs::kNoTraceResource,
                                           obs::TraceEventKind::kBlock});
    }
    blocked_tasks_.push_back(task);
    if (task >= counted_tasks_from_) {
      const std::uint32_t cls = classOfTask(task);
      if (cls == kUniversalClass) {
        ++universal_blocked_registered_;
      } else if (cls < classes_.size()) {
        ++classes_[cls].blocked_registered;
      }
    }
  }
  task_blocked_sync_[task] = sync;
}

std::size_t Engine::spawnReaching(SimTask task, Tick start,
                                  std::vector<std::uint32_t> reach) {
  const std::size_t id = tasks_.size();
  const std::uint32_t cls = resource_classes_.empty()
                                ? kUniversalClass
                                : internReachClass(std::move(reach));
  if (task_class_.size() <= id) {
    task_class_.resize(id + 1, kUniversalClass);
    task_pending_when_.resize(id + 1, kNever);
    task_handle_.resize(id + 1);
    task_blocked_sync_.resize(id + 1, kNoSync);
    task_blocked_index_.resize(id + 1, 0);
    task_blocked_at_.resize(id + 1, 0);
    task_done_.resize(id + 1, false);
    growTree(id + 1);
  }
  task_class_[id] = cls;
  if (!resource_classes_.empty()) {
    if (cls == kUniversalClass) {
      ++unaffined_alive_;
      unaffined_members_.push_back(id);
    } else {
      ++classes_[cls].alive;
      classes_[cls].members.push_back(id);
    }
  }
  task.handle().promise().engine = this;
  task.handle().promise().task_id = id;
  schedule(start, task.handle(), id);
  tasks_.push_back(std::move(task));
  completion_.resize(tasks_.size(), 0);
  return id;
}

std::size_t Engine::spawn(SimTask task, Tick start, std::uint32_t resource) {
  std::vector<std::uint32_t> reach;
  if (resource != kNoResource) reach.push_back(resource);
  return spawnReaching(std::move(task), start, std::move(reach));
}

std::size_t Engine::unfinishedTasks() const {
  std::size_t n = 0;
  for (std::size_t id = 0; id < tasks_.size(); ++id) {
    if (id >= task_done_.size() || !task_done_[id]) ++n;
  }
  return n;
}

HangReport Engine::hangReport() const {
  HangReport report;
  report.at = now_;
  for (std::size_t id = 0; id < tasks_.size(); ++id) {
    if (id < task_done_.size() && task_done_[id]) continue;
    HangReport::Waiter w;
    w.task = id;
    const std::uint32_t sync =
        id < task_blocked_sync_.size() ? task_blocked_sync_[id] : kNoSync;
    w.sync = sync;
    if (sync != kNoSync && sync < syncs_.size()) {
      w.blocked_since = task_blocked_at_[id];
      const SyncObject& s = syncs_[sync];
      w.wakers_known = s.wakers_known;
      w.all_wakers_required = s.rule == WakerRule::kAll;
      for (const std::size_t waker : s.wakers) {
        if (s.episodic && s.removedThisEpisode(waker)) continue;  // arrived
        if (waker == id) continue;
        if (waker < task_done_.size() && task_done_[waker]) continue;
        w.wakers.push_back(waker);
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
    if (task < task_blocked_at_.size() &&
        now_ - task_blocked_at_[task] > sync_timeout_) {
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
    // Task events first: a host event fires only once no task event is due
    // at or before its Tick (the ordering contract in engine.h).
    const TreeNode next = tree_[1];
    std::size_t task = kNoTask;
    Tick when = 0;
    std::coroutine_handle<> handle;
    if (next.when != kNever &&
        (host_events_.empty() || next.when <= host_events_.front().when)) {
      task = next.task;
      when = next.when;
      handle = task_handle_[task];
      setSlot(task, kNever);
      if (counted(task)) countPending(task, -1);
    } else if (!host_events_.empty()) {
      std::pop_heap(host_events_.begin(), host_events_.end(), HostEventAfter{});
      when = host_events_.back().when;
      handle = host_events_.back().handle;
      host_events_.pop_back();
    } else {
      break;
    }
    if (watchdog_limit_ != 0) {
      same_tick_events_ = when == now_ ? same_tick_events_ + 1 : 0;
      if (same_tick_events_ > watchdog_limit_) {
        current_task_ = kNoTask;
        traceHangReport(2, now_);
        throw WatchdogError(hangReport());
      }
    }
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
