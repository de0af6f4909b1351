// The discrete-event simulation kernel.
//
// Deterministic: simulated concurrency comes from C++20 coroutines
// (SimTask). Each simulated core runs one coroutine; every architectural
// operation computes its completion time (consulting shared resource
// timelines for contention) and suspends until then. One sequential event
// loop drains the pending set on the host thread.
//
// Ordering contract: every event belongs to a spawned root SimTask and
// carries its id (wake events for blocked tasks carry the *woken* task's id,
// recorded when the task blocked); scheduling with no task throws
// std::logic_error. Events fire in ascending (time, task_id) order. The
// ordering is structural, not a comparator over an insertion-ordered heap: a
// root task has at most one pending event (scheduling a second is an
// assert), held in that task's pending slot, and a winner (tournament) tree
// over task ids keyed (time, task_id) — the lower id winning an equal Tick —
// names the next event; nextEventTime() is its root. An event costs one
// leaf-to-root walk: run() pops a task by emptying its slot but leaves its
// leaf filed, and the task's own schedule() replaces the leaf in one walk;
// if the event parks or finishes the task instead, the next read of the
// root (nextEventTime(), the next pop, growTree) clears the leaf first, so
// the running task never bounds nextEventTime(). (time, task_id) is
// therefore unique across pending events and the schedule is a total order
// that does NOT depend on when events were inserted. That
// insertion-independence is load-bearing: event coalescing (below) inserts
// fewer events than the per-operation execution it replaces, so any ordering
// rule based on insertion sequence would let coalescing perturb lock-grant
// and barrier-wake order at equal-Tick collisions.
//
// Coalescing invariant (per-resource horizons): platform models sitting
// above this kernel (SccMachine's uncached-word, swcache-line and MPB-chunk
// runs) may collapse a run of per-operation suspensions
// into one analytically-computed event, but ONLY while every skipped
// suspension would provably have executed before any other coroutine could
// touch the same resource timeline. The kernel hosts a single namespace of
// serially-reusable resources, fixed at construction — the platform numbers
// every coalescable timeline (memory controllers AND per-tile MPB ports) in
// one id space — and every task declares at spawn time its *reach set*: the
// registered resources it may ever touch. The declaration is required: spawn
// rejects an empty set or an unregistered id whenever resources exist.
// `nextEventTimeFor(r)` then returns the coalescing horizon for resource r:
// the earliest pending event among tasks whose reach set contains r.
//
// Blocked tasks and the wake-chain rule: a task that is alive but has no
// pending event is parked, and its wake may be scheduled the moment another
// task runs. A blocked task whose reach set contains r therefore bounds r's
// horizon too. If the parking mechanism is unknown to the kernel, the only
// safe bound is the global `nextEventTime()` (any event could schedule the
// wake). A task parked on a registered sync object (`blockOnSync`) is
// bounded instead through its wake chain, and there are two kinds:
//   * a lock (`registerLock`) has one holder (`setLockHolder`), the only
//     task that can start the grant chain; the bound is the holder's
//     earliest execution (kAny over at most one task). A lock with no
//     declared holder is unknown and falls back to the global horizon.
//   * a barrier (`registerBarrier`) has declared members and per-episode
//     arrival stamps (`arriveAtBarrier`, `startBarrierEpisode`); the last
//     arrival releases, so every member that has not arrived must run
//     first and the bound is the MAX of their earliest executions (kAll).
// A waker with a pending event contributes that event's time; a waker that
// is itself blocked recurses into its own sync object; a cycle of blocked
// wakers can never fire.
//
// Member sets: `nextEventTimeFor(r, members)` is the horizon over the tasks
// that are NOT members — the running task plus tasks with a pending event
// whose next moves a platform model is about to replay itself (SccMachine's
// joint replay of the runs in flight on one resource). A member's pending
// slot is not counted, and as a waker a member contributes kNever: the
// horizon is only ever consulted mid-batch, and a batch ends before any
// member leaves its run of memory operations, so no member performs a sync
// operation inside it — a lock a member holds cannot be released and a
// barrier a member has not reached cannot release mid-batch at all
// (answered from the arrival stamps, without walking the barrier's
// members). `nextEventTimeFor(r)` is the set of the running task alone.
//
// Under these rules coalescing may reduce `eventsProcessed()` but never
// changes any Tick: makespan, per-task completion times, and every
// resource-timeline state transition are bit-identical with coalescing on
// or off.
#pragma once

#include <algorithm>
#include <cassert>
#include <chrono>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/time.h"

namespace hsm::sim {

class Engine;

namespace obs {
class TraceRecorder;
}  // namespace obs

/// Snapshot of every unfinished task at a detected hang — the wait-for
/// graph the deadlock detector, sync timeout, and watchdog all report.
struct HangReport {
  struct Waiter {
    std::size_t task = 0;
    /// Registered sync object the task is parked on; Engine::kNoSync when
    /// the task is parked by an unknown mechanism (or wedged outright, e.g.
    /// an injected permanent core freeze) — it has no wake-for edge at all.
    std::uint32_t sync = static_cast<std::uint32_t>(-1);
    Tick blocked_since = 0;     ///< when the park was registered (0: unknown)
    bool wakers_known = false;  ///< false only for a lock with no declared holder
    bool all_wakers_required = false;  ///< a barrier (kAll), not a lock (kAny)
    std::vector<std::size_t> wakers;   ///< current potential waker tasks
  };
  Tick at = 0;  ///< simulated time the hang was detected
  std::vector<Waiter> waiters;
  /// Multi-line human-readable rendering of the wait-for graph.
  [[nodiscard]] std::string format() const;
};

/// Base of the structured no-progress errors Engine::run can raise. These
/// are thrown from the host-side run loop, never from inside a coroutine
/// frame (whose unhandled_exception would terminate).
class SimHangError : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t { kDeadlock, kSyncTimeout, kWatchdog };
  SimHangError(Kind kind, HangReport report);
  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] const HangReport& report() const { return report_; }

 private:
  Kind kind_;
  HangReport report_;
};

/// The event queue drained while tasks were still alive (satellite fix for
/// the silent-hang bug: a lock/barrier bug used to just end the run).
class DeadlockError : public SimHangError {
 public:
  explicit DeadlockError(HangReport report)
      : SimHangError(Kind::kDeadlock, std::move(report)) {}
};

/// A task sat blocked on a lock/barrier longer than the configured acquire/
/// arrival timeout (Engine::setSyncTimeout).
class SyncTimeout : public SimHangError {
 public:
  explicit SyncTimeout(HangReport report)
      : SimHangError(Kind::kSyncTimeout, std::move(report)) {}
};

/// The progress watchdog: too many events processed without simulated time
/// advancing (a livelock — e.g. a zero-delay self-rescheduling loop).
class WatchdogError : public SimHangError {
 public:
  explicit WatchdogError(HangReport report)
      : SimHangError(Kind::kWatchdog, std::move(report)) {}
};

/// A simulated thread of execution (one per core / logical thread).
/// Root-level only: operations are awaited inline, not via nested tasks.
class SimTask {
 public:
  struct promise_type {
    Engine* engine = nullptr;     ///< set by Engine::spawn
    std::size_t task_id = 0;

    SimTask get_return_object() {
      return SimTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    /// Notifies the engine of completion (roots can finish via symmetric
    /// transfer from a subtask, where the event's handle is not the root).
    struct FinalAwaiter {
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) const noexcept;
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { std::terminate(); }
  };
  using Handle = std::coroutine_handle<promise_type>;

  SimTask() = default;
  explicit SimTask(Handle h) : handle_(h) {}
  SimTask(SimTask&& other) noexcept : handle_(other.handle_) { other.handle_ = {}; }
  SimTask& operator=(SimTask&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = other.handle_;
      other.handle_ = {};
    }
    return *this;
  }
  SimTask(const SimTask&) = delete;
  SimTask& operator=(const SimTask&) = delete;
  ~SimTask() { destroy(); }

  [[nodiscard]] Handle handle() const { return handle_; }
  [[nodiscard]] bool done() const { return !handle_ || handle_.done(); }

 private:
  void destroy() {
    if (handle_) handle_.destroy();
  }
  Handle handle_;
};

/// Awaitable that resumes the coroutine at an absolute simulated time.
struct ResumeAt {
  Engine& engine;
  Tick when;

  [[nodiscard]] bool await_ready() const noexcept;
  void await_suspend(std::coroutine_handle<> h) const;
  void await_resume() const noexcept {}
};

/// A nested awaitable coroutine: `co_await someSubTask()` transfers control
/// into the subtask; when it completes, control symmetric-transfers back to
/// the awaiting coroutine. Used for multi-event operations (e.g. a block of
/// uncached word transactions, each its own event so concurrent cores
/// interleave fairly at the memory controllers).
class [[nodiscard]] SubTask {
 public:
  struct promise_type {
    std::coroutine_handle<> continuation;

    SubTask get_return_object() {
      return SubTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    struct FinalAwaiter {
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) const noexcept {
        std::coroutine_handle<> cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { std::terminate(); }
  };
  using Handle = std::coroutine_handle<promise_type>;

  /// Empty task: awaiting it is a no-op (await_ready is true). Lets callers
  /// build awaitables that only sometimes carry a coroutine.
  SubTask() = default;
  explicit SubTask(Handle h) : handle_(h) {}
  SubTask(SubTask&& other) noexcept : handle_(other.handle_) { other.handle_ = {}; }
  SubTask(const SubTask&) = delete;
  SubTask& operator=(const SubTask&) = delete;
  SubTask& operator=(SubTask&&) = delete;
  ~SubTask() {
    if (handle_) handle_.destroy();
  }

  [[nodiscard]] explicit operator bool() const noexcept { return handle_ != nullptr; }

  // Awaitable interface: start the subtask, remember who to resume.
  [[nodiscard]] bool await_ready() const noexcept { return !handle_ || handle_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
    handle_.promise().continuation = cont;
    return handle_;  // symmetric transfer into the subtask
  }
  void await_resume() const noexcept {}

 private:
  Handle handle_;
};

class Engine {
 public:
  /// Sentinel returned by nextEventTime() when the queue is empty: no event
  /// will ever preempt the caller.
  static constexpr Tick kNever = static_cast<Tick>(-1);
  /// currentTaskId() outside run(), and the holder of a lock with none.
  static constexpr std::size_t kNoTask = static_cast<std::size_t>(-1);
  /// Sync-object id of tasks not blocked on any registered sync object.
  static constexpr std::uint32_t kNoSync = static_cast<std::uint32_t>(-1);

  /// An engine over `resources` coalescable resources (memory controllers,
  /// MPB ports — one shared id namespace, ids [0, resources)), fixed for its
  /// lifetime.
  explicit Engine(std::uint32_t resources = 0) : resource_classes_(resources) {}

  /// Simulated time of the event being processed.
  [[nodiscard]] Tick now() const { return now_; }

  /// Schedule `h` to resume at absolute time `when` (clamped to now) on
  /// behalf of the currently running task (the usual suspend path).
  void schedule(Tick when, std::coroutine_handle<> h) {
    schedule(when, h, currentTaskId());
  }
  /// Schedule a wake for a task other than the running one (lock grants,
  /// barrier releases): `task_id` must be the id the woken coroutine runs
  /// under, recorded when it blocked, so the (time, task_id) ordering
  /// contract holds for the wake event. Scheduling for a task that was
  /// registered as blocked on a sync object clears its blocked state.
  /// Throws std::logic_error unless `task_id` is a spawned task.
  void schedule(Tick when, std::coroutine_handle<> h, std::size_t task_id);

  /// Id of the root task whose event is currently being processed
  /// (kNoTask outside run()). Lock/barrier implementations capture this
  /// when a coroutine blocks so its eventual wake is filed under it.
  [[nodiscard]] std::size_t currentTaskId() const { return current_task_; }

  /// Earliest pending event, or kNever if the queue is empty. During event
  /// processing the running event has already been popped, so this is the
  /// next thing that can execute besides the current coroutine — the global
  /// "horizon" that bounds safe event coalescing (see header comment).
  [[nodiscard]] Tick nextEventTime() const {
    dropPopped();
    return tree_[1].when;
  }

  /// Per-resource coalescing horizon: earliest pending event among tasks
  /// whose reach set contains `resource`, bounded further by the wake
  /// chains of blocked tasks reaching `resource` (see the header comment for
  /// the exactness argument), with the running task excluded. Falls back to
  /// the global nextEventTime() when such a task is parked by an unknown
  /// mechanism or `resource` is unregistered.
  [[nodiscard]] Tick nextEventTimeFor(std::uint32_t resource) const;
  /// The same horizon over the non-members of `members`: the running task
  /// and tasks with a pending event, about to be replayed together (header
  /// comment). Their pending slots are not counted and, as wakers, they
  /// contribute kNever.
  [[nodiscard]] Tick nextEventTimeFor(std::uint32_t resource,
                                      std::span<const std::size_t> members) const;
  /// Move pending task `task`'s event later, to `when`: its next moves up to
  /// `when` were replayed by a platform model (the joint replay defers each
  /// member it advanced to where its replayed run stopped).
  void deferPending(std::size_t task, Tick when) {
    assert(task_pending_when_[task] != kNever && task_pending_when_[task] <= when);
    setSlot(task, when);
  }

  // -- synchronization objects (wake-chain tracking) --
  /// Register a one-holder lock. Its holder is unknown — waiters fall back
  /// to the global horizon — until setLockHolder declares one.
  std::uint32_t registerLock();
  /// Declare the task holding `lock`: the only task that can start the
  /// grant chain, so the only waker of its waiters. kNoTask: none known.
  void setLockHolder(std::uint32_t lock, std::size_t holder);
  /// Register a barrier whose members are the spawned tasks `members`
  /// (throws std::invalid_argument for any other id). Every member that
  /// has not arrived in the current episode is a required waker.
  std::uint32_t registerBarrier(std::vector<std::size_t> members);
  /// Stamp member `task` arrived in the current episode: it can no longer
  /// be the releasing waker. O(1); a non-member is ignored.
  void arriveAtBarrier(std::uint32_t barrier, std::size_t task);
  /// Start a new episode: every member is a waker again. O(1) — bumps the
  /// generation, invalidating every arrival stamp at once.
  void startBarrierEpisode(std::uint32_t barrier) { ++syncs_[barrier].generation; }
  /// Report that `task` parked on `sync` with no pending event. Cleared
  /// automatically when a wake is scheduled for the task.
  void blockOnSync(std::size_t task, std::uint32_t sync);

  /// Adopt a task and schedule its first resume at `start`. `reach` is the
  /// set of registered resource timelines the task may ever touch; throws
  /// std::invalid_argument, adopting nothing, for an unregistered id or for
  /// an empty set while resources exist. Returns an id usable with
  /// `completionTime`.
  std::size_t spawn(SimTask task, Tick start = 0, std::vector<std::uint32_t> reach = {});

  /// Run until the event queue drains. Returns the time of the last event.
  /// With hang detection on (setHangDetection) a drain that leaves
  /// unfinished tasks behind throws DeadlockError instead of returning; the
  /// sync-timeout and watchdog knobs below can additionally raise
  /// SyncTimeout / WatchdogError mid-run. All three are thrown from this
  /// host-side loop, never from inside a coroutine frame.
  Tick run();

  // -- robustness / no-progress detection --
  /// Treat a queue drain with unfinished tasks as a deadlock (DeadlockError
  /// carrying the wait-for graph). Default OFF: a bare Engine legitimately
  /// parks tasks across run() calls (host code schedules their wakes later);
  /// SccMachine turns it on, where a drain with parked tasks is always the
  /// silent-hang bug.
  void setHangDetection(bool enabled) { hang_detection_ = enabled; }
  /// Raise SyncTimeout when any task registered via blockOnSync has waited
  /// longer than `ticks` of simulated time (0 = off, the default). This is
  /// the lock-acquire / barrier-arrival timeout of the fault model.
  void setSyncTimeout(Tick ticks) { sync_timeout_ = ticks; }
  /// Raise WatchdogError after more than `events` consecutive events fire
  /// without simulated time advancing (0 = off, the default).
  void setWatchdogEventLimit(std::uint64_t events) { watchdog_limit_ = events; }
  /// Unfinished (spawned, not yet completed) tasks right now.
  [[nodiscard]] std::size_t unfinishedTasks() const;
  /// Snapshot the current wait-for graph (every unfinished task, its sync
  /// object if registered, and that object's potential wakers).
  [[nodiscard]] HangReport hangReport() const;

  /// Completion time of a spawned task (valid after run()); 0 if not done.
  [[nodiscard]] Tick completionTime(std::size_t task_id) const {
    return task_id < completion_.size() ? completion_[task_id] : 0;
  }

  /// Called from SimTask's final suspend point.
  void onRootDone(std::size_t task_id) {
    completion_[task_id] = now();
    task_done_[task_id] = true;
    --classes_[task_class_[task_id]].alive;
  }
  /// Latest completion across all spawned tasks (the makespan).
  [[nodiscard]] Tick makespan() const;

  [[nodiscard]] std::uint64_t eventsProcessed() const { return events_processed_; }
  /// Spawned root tasks so far (ids are 0..taskCount()-1).
  [[nodiscard]] std::size_t taskCount() const { return tasks_.size(); }

  // -- wall-clock instrumentation (simulator throughput, not simulated time) --
  /// Host seconds spent inside run() so far (accumulates across runs). The
  /// `host` prefix marks the domain: this is the ONLY wall-clock-derived
  /// number the engine exposes, and it must never leak into simulated-time
  /// output. Consumers report it through the obs::MetricsRegistry host
  /// domain (obs::collectMetrics), which also derives events-per-host-second
  /// from it — the Engine no longer offers that ratio itself.
  [[nodiscard]] double hostWallSeconds() const { return wall_seconds_; }

  // -- deterministic trace recording (sim/obs/trace.h) --
  /// Attach (or detach, nullptr) a trace recorder. The engine records
  /// block/wake instants and hang reports into it; platform models above
  /// record operation spans. Callers wire the pointer only when tracing is
  /// enabled, so the hot-path cost of the hooks is one null check.
  void setTraceRecorder(obs::TraceRecorder* recorder) { trace_ = recorder; }
  [[nodiscard]] obs::TraceRecorder* traceRecorder() const { return trace_; }

  /// Convenience awaitable: suspend for `dt` picoseconds.
  [[nodiscard]] ResumeAt delay(Tick dt) { return ResumeAt{*this, now() + dt}; }
  [[nodiscard]] ResumeAt resumeAt(Tick when) { return ResumeAt{*this, when}; }

 private:
  /// A winner-tree node: the earliest pending event in its subtree, kNever
  /// when the subtree has none. Leaves are the tasks' pending slots.
  struct TreeNode {
    Tick when;
    std::uint32_t task;
  };
  /// The tree's order, the ordering contract itself: (when, task).
  [[nodiscard]] static bool firesBefore(const TreeNode& a, const TreeNode& b) {
    return a.when < b.when || (a.when == b.when && a.task < b.task);
  }

  /// A distinct reach set shared by one or more tasks. Tasks with equal
  /// sets are interned into one class, so scheduling stays O(1) per event
  /// no matter how large the sets are; per-resource queries scan the few
  /// classes whose set contains the resource, and each class's members.
  struct ReachClass {
    std::vector<std::uint32_t> resources;  ///< sorted, unique
    std::vector<std::size_t> members;      ///< task ids (finished ones too)
    std::int64_t pending_count = 0;        ///< members with a pending event
    std::int64_t alive = 0;                ///< spawned minus finished
    std::int64_t blocked_registered = 0;   ///< parked via blockOnSync
  };

  /// A registered sync object: a lock or a barrier.
  struct SyncObject {
    bool barrier = false;
    std::size_t holder = kNoTask;  ///< lock: the one potential waker
    std::vector<std::size_t> members;  ///< barrier: declared members
    /// Barrier, per task id: 0 for a non-member, `generation` once arrived
    /// in the current episode, an older generation otherwise.
    std::vector<std::uint64_t> stamp;
    std::uint64_t generation = 2;  ///< members start stamped 1: not arrived

    /// `task` is a barrier member that has not arrived this episode.
    [[nodiscard]] bool awaited(std::size_t task) const {
      return task < stamp.size() && stamp[task] != 0 && stamp[task] != generation;
    }
  };

  [[nodiscard]] bool classReaches(std::uint32_t cls, std::uint32_t resource) const {
    const std::vector<std::uint32_t>& rs = classes_[cls].resources;
    return std::binary_search(rs.begin(), rs.end(), resource);
  }
  /// Class of the sorted, unique reach set `reach`, created on first use.
  std::uint32_t internReachClass(std::vector<std::uint32_t> reach);
  /// Set `task`'s pending slot to `when` (kNever: none) and file it in the
  /// tree.
  void setSlot(std::size_t task, Tick when) {
    task_pending_when_[task] = when;
    fileLeaf(task, when);
  }
  /// Set `task`'s leaf to `when` and replay its path to the root, stopping
  /// at the first node whose winner is unchanged. Touches only the tree.
  void fileLeaf(std::size_t task, Tick when) const;
  /// Clear the popped task's leaf if its event did not refile it. Every
  /// reader of the root calls this first; the tree is a cache of the slots,
  /// so this is logically const.
  void dropPopped() const {
    if (popped_ == kNoTask) return;
    fileLeaf(popped_, kNever);
    popped_ = kNoTask;
  }
  /// Grow the tree to cover task ids below `tasks` (a power of two leaves).
  void growTree(std::size_t tasks);
  /// Earliest time the wake chain of blocked `task` could execute (see
  /// header comment). `visited` carries the chain walked so far for cycle
  /// detection.
  [[nodiscard]] Tick wakeBound(std::size_t task, std::vector<std::size_t>& visited,
                               std::span<const std::size_t> members) const;
  /// Earliest time waker `w` could execute: kNever when it is a member or
  /// finished, its pending event, its own wake chain when blocked, and the
  /// global nextEventTime() when it is parked by an unknown mechanism.
  [[nodiscard]] Tick earliestRun(std::size_t w, std::vector<std::size_t>& visited,
                                 std::span<const std::size_t> members) const;
  /// Whether `task` is in the member set of the horizon query running now.
  [[nodiscard]] bool isMember(std::size_t task) const {
    return member_mark_[task] == member_epoch_;
  }
  /// Throw SyncTimeout if any registered blocked task overstayed
  /// sync_timeout_. Called per event from run(); cheap when nothing blocks.
  /// Non-const: it records a kReport trace instant before throwing.
  void checkSyncTimeouts();
  /// Record a hang-report instant (deadlock / sync timeout / watchdog) into
  /// the attached trace recorder, if any. Out-of-line, cold.
  void traceHangReport(std::uint64_t kind, Tick at);

  // -- the pending set (one slot per task) --
  /// Winner tree over task ids: node 1 is the root, the leaves sit at
  /// [tree_leaves_, 2 * tree_leaves_) in task-id order (leaf i mirrors
  /// task_pending_when_[i]), and every inner node holds the earlier of its
  /// two children under firesBefore.
  mutable std::vector<TreeNode> tree_ = std::vector<TreeNode>(2, TreeNode{kNever, 0});
  std::size_t tree_leaves_ = 1;  ///< a power of two
  /// The task whose event run() popped while its leaf still holds the
  /// popped Tick (its slot is already kNever), or kNoTask.
  mutable std::size_t popped_ = kNoTask;
  std::vector<std::coroutine_handle<>> task_handle_;  ///< per task: pending resume
  Tick now_ = 0;
  std::size_t current_task_ = kNoTask;
  std::uint64_t events_processed_ = 0;
  double wall_seconds_ = 0.0;
  std::vector<SimTask> tasks_;
  std::vector<Tick> completion_;

  // -- per-resource horizon accounting --
  // Every task belongs to one reach class. A class's horizon is the min over
  // its members' pending slots and its blocked tally is alive - pending
  // (minus the running task).
  std::vector<std::vector<std::uint32_t>> resource_classes_;  ///< per resource
  std::vector<ReachClass> classes_;
  std::vector<std::uint32_t> task_class_;  ///< per spawned task

  // -- sync-object / wake-chain tracking --
  std::vector<SyncObject> syncs_;
  std::vector<std::uint32_t> task_blocked_sync_;  ///< per task: sync or kNoSync
  std::vector<std::size_t> blocked_tasks_;        ///< registered blocked tasks
  std::vector<std::size_t> task_blocked_index_;   ///< position in blocked_tasks_
  std::vector<Tick> task_pending_when_;  ///< per task: pending slot or kNever
  std::vector<Tick> task_blocked_at_;    ///< per task: when blockOnSync ran
  std::vector<std::uint8_t> task_done_;  ///< per task: finished
  /// Recursion scratch for nextEventTimeFor's wake-chain walk, reused so
  /// the horizon query stays allocation-free in steady state.
  mutable std::vector<std::size_t> wake_path_;
  /// Per task: member_epoch_ while it is in the member set of the horizon
  /// query running now (each query bumps the epoch, so marks never need
  /// clearing).
  mutable std::vector<std::uint64_t> member_mark_;
  mutable std::uint64_t member_epoch_ = 0;

  // -- robustness / no-progress detection --
  bool hang_detection_ = false;
  Tick sync_timeout_ = 0;              ///< 0 = off
  std::uint64_t watchdog_limit_ = 0;   ///< 0 = off
  std::uint64_t same_tick_events_ = 0;  ///< events fired at now_ so far

  // -- deterministic trace recording --
  /// Non-null only while tracing is enabled (the owner wires it through
  /// setTraceRecorder), so every engine hook is one null check when off.
  obs::TraceRecorder* trace_ = nullptr;
};

inline void SimTask::promise_type::FinalAwaiter::await_suspend(
    std::coroutine_handle<promise_type> h) const noexcept {
  promise_type& p = h.promise();
  if (p.engine != nullptr) p.engine->onRootDone(p.task_id);
}

/// A serially-reusable resource (memory controller port, MPB port, the
/// baseline's single core): requests are serviced back-to-back in the order
/// they arrive in simulated time.
class ResourceTimeline {
 public:
  /// A request arriving at `arrival` needing `service` time.
  /// Returns its completion time and advances the timeline.
  Tick acquire(Tick arrival, Tick service) {
    const Tick start = arrival > next_free_ ? arrival : next_free_;
    next_free_ = start + service;
    total_busy_ += service;
    ++requests_;
    return next_free_;
  }

  /// Account `requests` back-to-back acquires in one step: the timeline
  /// frees `dt` later and was busy `busy` more. For replays that have proven
  /// those acquires' exact outcome in closed form (sim/contention.h).
  void advance(Tick dt, Tick busy, std::uint64_t requests) {
    next_free_ += dt;
    total_busy_ += busy;
    requests_ += requests;
  }

  [[nodiscard]] Tick nextFree() const { return next_free_; }
  [[nodiscard]] Tick totalBusy() const { return total_busy_; }
  [[nodiscard]] std::uint64_t requests() const { return requests_; }

 private:
  Tick next_free_ = 0;
  Tick total_busy_ = 0;
  std::uint64_t requests_ = 0;
};

}  // namespace hsm::sim
