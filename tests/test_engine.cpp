// Tests for the discrete-event kernel: ordering, determinism, coroutine
// tasks, subtasks, resource timelines.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.h"

namespace hsm::sim {
namespace {

SimTask recorder(Engine& engine, std::vector<int>& log, int id, Tick delay) {
  co_await engine.delay(delay);
  log.push_back(id);
  co_await engine.delay(delay);
  log.push_back(id + 100);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine engine;
  std::vector<int> log;
  engine.spawn(recorder(engine, log, 1, 300));
  engine.spawn(recorder(engine, log, 2, 100));
  engine.run();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], 2);    // t=100
  EXPECT_EQ(log[1], 102);  // t=200
  EXPECT_EQ(log[2], 1);    // t=300
  EXPECT_EQ(log[3], 101);  // t=600
}

TEST(Engine, TieBreaksByTaskId) {
  Engine engine;
  std::vector<int> log;
  engine.spawn(recorder(engine, log, 1, 100));  // task 0
  engine.spawn(recorder(engine, log, 2, 100));  // task 1
  engine.run();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], 1);
  EXPECT_EQ(log[1], 2);
}

SimTask twoStep(Engine& engine, std::vector<int>& log, int id, Tick first,
                Tick second) {
  co_await engine.delay(first);
  log.push_back(id);
  co_await engine.delay(second);
  log.push_back(id + 100);
}

// The ordering contract (engine.h): equal-Tick events resume in ascending
// task id, NOT in the order the events were inserted. Task 0's t=40 event is
// inserted at t=30, after task 1 inserted its own t=40 event at t=10 — task 0
// must still resume first. Event coalescing changes insertion sequences, so
// anything downstream of an equal-Tick collision depends on this.
TEST(Engine, EqualTickResumeFollowsTaskIdNotInsertionOrder) {
  Engine engine;
  std::vector<int> log;
  engine.spawn(twoStep(engine, log, 0, 30, 10));  // task 0: events at 30, 40
  engine.spawn(twoStep(engine, log, 1, 10, 30));  // task 1: events at 10, 40
  engine.run();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], 1);    // t=10
  EXPECT_EQ(log[1], 0);    // t=30
  EXPECT_EQ(log[2], 100);  // t=40: task 0 before task 1 despite later insertion
  EXPECT_EQ(log[3], 101);  // t=40
}

// Same contract with many tasks colliding on one Tick: the first-leg delays
// descend with task id, so the collision events are inserted in exactly
// reversed task order; resume order must come out ascending anyway.
TEST(Engine, EqualTickCollisionResumesInTaskIdOrderAcrossManyTasks) {
  Engine engine;
  std::vector<int> log;
  constexpr int kTasks = 6;
  constexpr Tick kCollision = 100;
  for (int i = 0; i < kTasks; ++i) {
    const Tick first = kCollision - static_cast<Tick>(i + 1) * 10;
    engine.spawn(twoStep(engine, log, i, first, kCollision - first));
  }
  engine.run();
  ASSERT_EQ(log.size(), 2u * kTasks);
  // Second half of the log is the collision at t=100: ascending task id.
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(log[static_cast<std::size_t>(kTasks + i)], i + 100);
  }
}

// --- per-resource horizons ---------------------------------------------------

SimTask probeHorizons(Engine& engine, Tick wait, std::vector<Tick>& out) {
  co_await engine.delay(wait);
  out.push_back(engine.nextEventTimeFor(0));
  out.push_back(engine.nextEventTimeFor(1));
  out.push_back(engine.nextEventTime());
}

SimTask idleUntil(Engine& engine, Tick when) { co_await engine.resumeAt(when); }

TEST(Engine, NextEventTimeForScopesHorizonToResource) {
  Engine engine(2);
  std::vector<Tick> horizons;
  engine.spawn(idleUntil(engine, 500), 0, {0});             // task 0 on res 0
  engine.spawn(probeHorizons(engine, 40, horizons), 0, {1});  // task 1 on res 1
  engine.run();
  ASSERT_EQ(horizons.size(), 3u);
  EXPECT_EQ(horizons[0], 500u);            // res 0: task 0 pending at 500
  EXPECT_EQ(horizons[1], Engine::kNever);  // res 1: only the probe itself
  EXPECT_EQ(horizons[2], 500u);            // global sees everything
}

/// Parks the coroutine without scheduling any wake: from the engine's view
/// the task is alive but has no pending event (like a lock/barrier waiter).
struct ParkAwaiter {
  std::coroutine_handle<>* slot;
  std::size_t* task;
  Engine* engine;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    *slot = h;
    *task = engine->currentTaskId();
  }
  void await_resume() const noexcept {}
};

SimTask parkThenFinish(Engine& engine, std::coroutine_handle<>& slot,
                       std::size_t& task) {
  co_await ParkAwaiter{&slot, &task, &engine};
}

SimTask wakeParked(Engine& engine, Tick at, std::coroutine_handle<>& slot,
                   std::size_t& task) {
  co_await engine.resumeAt(at);
  engine.schedule(engine.now(), slot, task);
}

// A blocked task in a resource's affinity class forces that resource's
// horizon back to the global one: its wake may be scheduled by any event,
// including one from another resource's task.
TEST(Engine, BlockedTaskForcesGlobalHorizonFallback) {
  Engine engine(2);
  std::coroutine_handle<> parked;
  std::size_t parked_task = Engine::kNoTask;
  std::vector<Tick> horizons;
  engine.spawn(parkThenFinish(engine, parked, parked_task), 0, {0});  // blocks on res 0
  engine.spawn(idleUntil(engine, 900), 0, {0});                       // res 0 pending @900
  engine.spawn(probeHorizons(engine, 40, horizons), 0, {1});          // probe on res 1
  engine.spawn(wakeParked(engine, 700, parked, parked_task), 0, {1});
  engine.run();
  ASSERT_EQ(horizons.size(), 3u);
  // Res 0's only pending event is at 900, but the parked task makes the
  // horizon collapse to the global next event — the res-1 waker at 700.
  EXPECT_EQ(horizons[0], 700u);
  // Res 1 has no blocked task: scoped to its own pending waker.
  EXPECT_EQ(horizons[1], 700u);
  EXPECT_EQ(horizons[2], 700u);
}

// --- reach sets (unified resource namespace) ---------------------------------

TEST(Engine, ReachSetBoundsEveryDeclaredResource) {
  Engine engine(3);
  std::vector<Tick> horizons;
  engine.spawn(idleUntil(engine, 500), 0, {0, 2});  // task 0 reaches 0 and 2
  engine.spawn(probeHorizons(engine, 40, horizons), 0, {1});
  engine.run();
  ASSERT_EQ(horizons.size(), 3u);
  EXPECT_EQ(horizons[0], 500u);            // res 0: reached by task 0
  EXPECT_EQ(horizons[1], Engine::kNever);  // res 1: only the probe itself
  EXPECT_EQ(horizons[2], 500u);            // global
}

// The reach declaration is required: a set naming an unregistered id, or an
// empty set while resources exist, is rejected and adopts nothing.
TEST(Engine, SpawnRejectsEmptyOrUnregisteredReach) {
  Engine engine(2);
  EXPECT_THROW(engine.spawn(idleUntil(engine, 300), 0, {0, 99}), std::invalid_argument);
  EXPECT_THROW(engine.spawn(idleUntil(engine, 300), 0, {2}), std::invalid_argument);
  EXPECT_THROW(engine.spawn(idleUntil(engine, 300)), std::invalid_argument);
  EXPECT_EQ(engine.taskCount(), 0u);
  EXPECT_EQ(engine.nextEventTime(), Engine::kNever);
  std::vector<Tick> horizons;
  engine.spawn(idleUntil(engine, 300), 0, {0});
  engine.spawn(probeHorizons(engine, 40, horizons), 0, {1});
  engine.run();
  ASSERT_EQ(horizons.size(), 3u);
  EXPECT_EQ(horizons[0], 300u);
  EXPECT_EQ(horizons[1], Engine::kNever);
  // Without resources every id is unregistered, and no reach is needed.
  Engine bare;
  EXPECT_THROW(bare.spawn(idleUntil(bare, 10), 0, {0}), std::invalid_argument);
  EXPECT_EQ(bare.spawn(idleUntil(bare, 10)), 0u);
}

// Every event belongs to a spawned task: scheduling from host context with
// no task, or for an id never spawned, is a logic error.
TEST(Engine, ScheduleWithoutTaskThrows) {
  Engine engine;
  EXPECT_THROW(engine.schedule(5, std::noop_coroutine()), std::logic_error);
  EXPECT_THROW(engine.schedule(5, std::noop_coroutine(), 0), std::logic_error);
  engine.spawn(idleUntil(engine, 10));
  EXPECT_THROW(engine.schedule(5, std::noop_coroutine(), 1), std::logic_error);
  EXPECT_EQ(engine.nextEventTime(), 0u);
  engine.run();
  EXPECT_EQ(engine.now(), 10u);
}

// A barrier's members must be spawned tasks.
TEST(Engine, BarrierRejectsUnspawnedMember) {
  Engine engine;
  engine.spawn(idleUntil(engine, 10));
  EXPECT_THROW(engine.registerBarrier({0, 1}), std::invalid_argument);
  EXPECT_EQ(engine.registerBarrier({0}), 0u);
}

// --- sync-aware wake-chain horizons ------------------------------------------

/// Parks the coroutine and registers it as blocked on `sync` (exactly what
/// TasLock/SyncBarrier do for their waiters).
struct ParkOnSyncAwaiter {
  std::coroutine_handle<>* slot;
  std::size_t* task;
  Engine* engine;
  std::uint32_t sync;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    *slot = h;
    *task = engine->currentTaskId();
    engine->blockOnSync(*task, sync);
  }
  void await_resume() const noexcept {}
};

SimTask parkOnSync(Engine& engine, std::uint32_t sync, std::coroutine_handle<>& slot,
                   std::size_t& task) {
  co_await ParkOnSyncAwaiter{&slot, &task, &engine, sync};
}

/// Parks on a barrier registered after the spawns (its members must be
/// spawned tasks): `barrier` is read when the task runs.
SimTask parkOnBarrier(Engine& engine, const std::uint32_t& barrier,
                      std::coroutine_handle<>& slot, std::size_t& task) {
  co_await ParkOnSyncAwaiter{&slot, &task, &engine, barrier};
}

SimTask probeOne(Engine& engine, Tick at, std::uint32_t resource,
                 std::vector<Tick>& out) {
  co_await engine.resumeAt(at);
  out.push_back(engine.nextEventTimeFor(resource));
}

// The satellite case: a blocked-on-lock task reaching the queried resource,
// whose only potential waker is a task that cannot reach that resource and
// runs late. The horizon stays narrow (the blocked task cannot be woken
// before its waker runs) instead of collapsing to the global next event —
// here an unrelated early other-resource event.
TEST(Engine, BlockedTaskBoundedByLateWakerKeepsNarrowHorizon) {
  Engine engine(2);
  const std::uint32_t lock = engine.registerLock();
  std::coroutine_handle<> parked;
  std::size_t parked_task = Engine::kNoTask;
  std::vector<Tick> horizons;
  engine.spawn(parkOnSync(engine, lock, parked, parked_task), 0, {0});
  engine.spawn(idleUntil(engine, 100), 0, {0});  // res-0 pending @100
  const std::size_t waker =
      engine.spawn(wakeParked(engine, 700, parked, parked_task), 0, {1});
  engine.spawn(idleUntil(engine, 50), 0, {1});  // unrelated res-1 @50
  engine.spawn(probeOne(engine, 40, 0, horizons), 0, {0});
  engine.setLockHolder(lock, waker);
  engine.run();
  ASSERT_EQ(horizons.size(), 1u);
  // min(scoped @100, waker bound @700) = 100, not the unrelated @50.
  EXPECT_EQ(horizons[0], 100u);
}

// A lock whose holder is the probing task itself: the holder cannot release
// mid-batch, so the blocked waiter contributes nothing and the horizon stays
// scoped even though an unrelated event fires much earlier.
TEST(Engine, BlockedTaskWhoseOnlyWakerIsCurrentKeepsNarrowHorizon) {
  Engine engine(2);
  const std::uint32_t lock = engine.registerLock();
  std::coroutine_handle<> parked;
  std::size_t parked_task = Engine::kNoTask;
  std::vector<Tick> horizons;
  engine.spawn(parkOnSync(engine, lock, parked, parked_task), 0, {0});
  engine.spawn(idleUntil(engine, 100), 0, {0});  // res-0 pending @100
  engine.spawn(idleUntil(engine, 50), 0, {1});   // unrelated res-1 @50
  const std::size_t prober = engine.spawn(probeOne(engine, 40, 0, horizons), 0, {0});
  engine.setLockHolder(lock, prober);
  engine.run();
  // Drain leaves the parked task parked; wake it so the run can be reused.
  engine.schedule(engine.now(), parked, parked_task);
  engine.run();
  ASSERT_EQ(horizons.size(), 1u);
  EXPECT_EQ(horizons[0], 100u);
}

TEST(Engine, BlockedTaskWithUnknownWakersForcesGlobalFallback) {
  Engine engine(2);
  const std::uint32_t lock = engine.registerLock();  // holder never declared
  std::coroutine_handle<> parked;
  std::size_t parked_task = Engine::kNoTask;
  std::vector<Tick> horizons;
  engine.spawn(parkOnSync(engine, lock, parked, parked_task), 0, {0});
  engine.spawn(idleUntil(engine, 100), 0, {0});
  engine.spawn(idleUntil(engine, 50), 0, {1});
  engine.spawn(probeOne(engine, 40, 0, horizons), 0, {0});
  engine.run();
  engine.schedule(engine.now(), parked, parked_task);
  engine.run();
  ASSERT_EQ(horizons.size(), 1u);
  EXPECT_EQ(horizons[0], 50u);  // global fallback
}

// Wake chains recurse: the blocked task's waker is itself blocked on a
// second lock whose holder runs at 800 on another resource. The horizon is
// bounded by the end of the chain, not the global next event.
TEST(Engine, WakeChainRecursesThroughBlockedWakers) {
  Engine engine(2);
  const std::uint32_t lock_a = engine.registerLock();
  const std::uint32_t lock_b = engine.registerLock();
  std::coroutine_handle<> parked_a;
  std::size_t task_a = Engine::kNoTask;
  std::coroutine_handle<> parked_b;
  std::size_t task_b = Engine::kNoTask;
  std::vector<Tick> horizons;
  engine.spawn(parkOnSync(engine, lock_a, parked_a, task_a), 0, {0});
  const std::size_t chained =
      engine.spawn(parkOnSync(engine, lock_b, parked_b, task_b), 0, {1});
  engine.spawn(idleUntil(engine, 900), 0, {0});  // res-0 pending @900
  const std::size_t releaser =
      engine.spawn(wakeParked(engine, 800, parked_b, task_b), 0, {1});
  engine.spawn(idleUntil(engine, 50), 0, {1});  // unrelated res-1 @50
  engine.spawn(probeOne(engine, 40, 0, horizons), 0, {0});
  engine.setLockHolder(lock_a, chained);
  engine.setLockHolder(lock_b, releaser);
  engine.run();
  engine.schedule(engine.now(), parked_a, task_a);
  engine.run();
  ASSERT_EQ(horizons.size(), 1u);
  // min(scoped @900, chain: chained's waker runs @800) = 800, not global 50.
  EXPECT_EQ(horizons[0], 800u);
}

// The barrier (kAll) rule: the wake needs EVERY member still to arrive to
// have run, so the bound is the latest of their earliest executions.
TEST(Engine, AllWakersRuleBoundsByLatestWaker) {
  Engine engine(2);
  std::uint32_t barrier = Engine::kNoSync;
  std::coroutine_handle<> parked;
  std::size_t parked_task = Engine::kNoTask;
  std::vector<Tick> horizons;
  engine.spawn(parkOnBarrier(engine, barrier, parked, parked_task), 0, {0});
  const std::size_t w1 = engine.spawn(idleUntil(engine, 100), 0, {1});
  const std::size_t w2 = engine.spawn(idleUntil(engine, 600), 0, {1});
  engine.spawn(idleUntil(engine, 400), 0, {0});  // res-0 pending @400
  engine.spawn(probeOne(engine, 40, 0, horizons), 0, {0});
  barrier = engine.registerBarrier({w1, w2});
  engine.run();
  engine.schedule(engine.now(), parked, parked_task);
  engine.run();
  ASSERT_EQ(horizons.size(), 1u);
  // min(scoped @400, max(100, 600)) = 400.
  EXPECT_EQ(horizons[0], 400u);
}

// --- barrier episodes ---------------------------------------------------------

// An arrival stamps a member out for the CURRENT episode only: the bound
// must match a barrier that never had the arrived member.
TEST(Engine, EpisodicRemovalMatchesRebuiltWakerSet) {
  Engine engine(2);
  std::uint32_t barrier = Engine::kNoSync;
  std::coroutine_handle<> parked;
  std::size_t parked_task = Engine::kNoTask;
  std::vector<Tick> horizons;
  engine.spawn(parkOnBarrier(engine, barrier, parked, parked_task), 0, {0});
  const std::size_t w1 = engine.spawn(idleUntil(engine, 100), 0, {1});
  const std::size_t w2 = engine.spawn(idleUntil(engine, 600), 0, {1});
  engine.spawn(idleUntil(engine, 400), 0, {0});  // res-0 pending @400
  engine.spawn(probeOne(engine, 40, 0, horizons), 0, {0});
  barrier = engine.registerBarrier({w1, w2});
  // w2 "arrived": only w1 remains a potential waker, so the kAll bound drops
  // from max(100, 600) = 600 to 100 and undercuts the scoped @400.
  engine.arriveAtBarrier(barrier, w2);
  engine.run();
  engine.schedule(engine.now(), parked, parked_task);
  engine.run();
  ASSERT_EQ(horizons.size(), 1u);
  EXPECT_EQ(horizons[0], 100u);
}

// A new episode restores full membership in O(1): after startBarrierEpisode
// the member that arrived counts again, exactly as if the barrier had been
// registered from scratch.
TEST(Engine, NewBarrierEpisodeRestoresFullMembership) {
  Engine engine(2);
  std::uint32_t barrier = Engine::kNoSync;
  std::coroutine_handle<> parked;
  std::size_t parked_task = Engine::kNoTask;
  std::vector<Tick> horizons;
  engine.spawn(parkOnBarrier(engine, barrier, parked, parked_task), 0, {0});
  const std::size_t w1 = engine.spawn(idleUntil(engine, 100), 0, {1});
  const std::size_t w2 = engine.spawn(idleUntil(engine, 600), 0, {1});
  engine.spawn(idleUntil(engine, 400), 0, {0});
  engine.spawn(probeOne(engine, 40, 0, horizons), 0, {0});
  barrier = engine.registerBarrier({w1, w2});
  engine.arriveAtBarrier(barrier, w2);
  engine.startBarrierEpisode(barrier);  // next episode: w2 is a waker again
  engine.run();
  engine.schedule(engine.now(), parked, parked_task);
  engine.run();
  ASSERT_EQ(horizons.size(), 1u);
  // Full set again: min(scoped @400, max(100, 600)) = 400.
  EXPECT_EQ(horizons[0], 400u);
}

// Arrival stamps from an earlier episode must not leak into the next one,
// and a second arrival after a new episode must count (the generation
// counter, not the membership vector, carries the state).
TEST(Engine, EpisodicRemovalIsPerEpisode) {
  Engine engine(2);
  std::uint32_t barrier = Engine::kNoSync;
  std::coroutine_handle<> parked;
  std::size_t parked_task = Engine::kNoTask;
  std::vector<Tick> horizons;
  engine.spawn(parkOnBarrier(engine, barrier, parked, parked_task), 0, {0});
  const std::size_t w1 = engine.spawn(idleUntil(engine, 100), 0, {1});
  const std::size_t w2 = engine.spawn(idleUntil(engine, 600), 0, {1});
  engine.spawn(idleUntil(engine, 400), 0, {0});
  engine.spawn(probeOne(engine, 40, 0, horizons), 0, {0});
  barrier = engine.registerBarrier({w1, w2});
  engine.arriveAtBarrier(barrier, w2);
  engine.startBarrierEpisode(barrier);
  engine.arriveAtBarrier(barrier, w2);  // arrived again in the NEW episode
  engine.run();
  engine.schedule(engine.now(), parked, parked_task);
  engine.run();
  ASSERT_EQ(horizons.size(), 1u);
  EXPECT_EQ(horizons[0], 100u);  // only w1 remains, as in the first test
}

// The recursion-path regression: a waker reached through two sibling
// subtrees of a barrier (w1's chain goes through w2; w2 is also a direct
// member) must not be mistaken for a cycle on the second visit — the chain
// can fire, bounded by the pending event at its end.
TEST(Engine, SharedWakerAcrossSiblingSubtreesIsNotACycle) {
  Engine engine(2);
  std::uint32_t barrier = Engine::kNoSync;
  const std::uint32_t lock_1 = engine.registerLock();
  const std::uint32_t lock_2 = engine.registerLock();
  std::coroutine_handle<> parked_b;
  std::size_t task_b = Engine::kNoTask;
  std::coroutine_handle<> parked_w1;
  std::size_t task_w1 = Engine::kNoTask;
  std::coroutine_handle<> parked_w2;
  std::size_t task_w2 = Engine::kNoTask;
  std::vector<Tick> horizons;
  engine.spawn(parkOnBarrier(engine, barrier, parked_b, task_b), 0, {0});
  const std::size_t w1 =
      engine.spawn(parkOnSync(engine, lock_1, parked_w1, task_w1), 0, {1});
  const std::size_t w2 =
      engine.spawn(parkOnSync(engine, lock_2, parked_w2, task_w2), 0, {1});
  const std::size_t w3 = engine.spawn(idleUntil(engine, 800), 0, {1});
  engine.spawn(idleUntil(engine, 900), 0, {0});  // res-0 pending @900
  engine.spawn(idleUntil(engine, 50), 0, {1});   // unrelated res-1 @50
  engine.spawn(probeOne(engine, 40, 0, horizons), 0, {0});
  barrier = engine.registerBarrier({w1, w2});
  engine.setLockHolder(lock_1, w2);
  engine.setLockHolder(lock_2, w3);
  engine.run();
  for (auto [h, t] : {std::pair{parked_w2, task_w2}, std::pair{parked_w1, task_w1},
                      std::pair{parked_b, task_b}}) {
    engine.schedule(engine.now(), h, t);
    engine.run();
  }
  ASSERT_EQ(horizons.size(), 1u);
  // Both kAll subtrees bottom out at w3's pending event: max(800, 800),
  // min'd with the scoped res-0 event @900. A false cycle would yield 900.
  EXPECT_EQ(horizons[0], 800u);
}

// A barrier whose members still to arrive include the running task can
// never release mid-batch: the blocked waiter contributes nothing at all.
TEST(Engine, AllWakersRuleWithCurrentTaskRequiredNeverFiresMidBatch) {
  Engine engine(2);
  std::uint32_t barrier = Engine::kNoSync;
  std::coroutine_handle<> parked;
  std::size_t parked_task = Engine::kNoTask;
  std::vector<Tick> horizons;
  engine.spawn(parkOnBarrier(engine, barrier, parked, parked_task), 0, {0});
  const std::size_t w1 = engine.spawn(idleUntil(engine, 10), 0, {1});  // early waker
  engine.spawn(idleUntil(engine, 400), 0, {0});
  const std::size_t prober = engine.spawn(probeOne(engine, 40, 0, horizons), 0, {0});
  barrier = engine.registerBarrier({w1, prober});
  engine.run();
  engine.schedule(engine.now(), parked, parked_task);
  engine.run();
  ASSERT_EQ(horizons.size(), 1u);
  EXPECT_EQ(horizons[0], 400u);  // only the scoped pending event remains
}

// --- the O(1) kAll bound against the reference scan --------------------------

/// How one randomized barrier member is occupied when the probe runs.
enum class WakerState : std::uint8_t { kPending, kDone, kUnknownPark, kChained };

/// The kAll wake bound as an O(members) scan computes it, over the test's
/// own record of the members: the reference the engine's O(1) shortcut must
/// reproduce. `current` lists the members still to arrive.
Tick referenceAllBound(const std::vector<std::size_t>& current, std::size_t blocked,
                       std::size_t running, const std::vector<WakerState>& state,
                       const std::vector<Tick>& earliest, Tick global_next) {
  Tick bound = 0;
  for (const std::size_t w : current) {
    if (w == blocked) continue;
    if (w == running) return Engine::kNever;  // cannot arrive mid-batch
    Tick t = 0;
    switch (state[w]) {
      case WakerState::kDone: return Engine::kNever;
      case WakerState::kPending:
      case WakerState::kChained: t = earliest[w]; break;
      case WakerState::kUnknownPark: t = global_next; break;
    }
    bound = std::max(bound, t);
  }
  return bound;
}

// Random barrier memberships, random arrival stamps (stale ones from an
// earlier episode included), and a running prober that may or may not be a
// member still to arrive: the horizon the engine reports for the
// barrier-parked task must equal the reference scan in every trial, so the
// O(1) shortcut can only ever return what the scan would have.
TEST(Engine, AllWakersShortcutMatchesReferenceScan) {
  std::mt19937 rng(20240615);
  int shortcut_trials = 0;
  int scanned_trials = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Engine engine(2);
    std::uint32_t barrier = Engine::kNoSync;
    std::coroutine_handle<> parked;
    std::size_t parked_task = Engine::kNoTask;
    // Task 0: the barrier-parked task, alone in res 0's class, so res 0's
    // horizon is exactly its wake bound.
    const std::size_t blocked =
        engine.spawn(parkOnBarrier(engine, barrier, parked, parked_task), 0, {0});

    const int n = static_cast<int>(rng() % 7) + 1;
    std::vector<WakerState> state(static_cast<std::size_t>(2 * n + 2), WakerState::kPending);
    std::vector<Tick> earliest(state.size(), 0);
    std::vector<std::coroutine_handle<>> slots(state.size());
    std::vector<std::size_t> slot_tasks(state.size(), Engine::kNoTask);
    std::vector<std::size_t> wakers;
    std::vector<std::pair<std::uint32_t, std::size_t>> chains;  // lock, releaser
    Tick global_next = Engine::kNever;
    for (int i = 0; i < n; ++i) {
      const auto pick = static_cast<WakerState>(rng() % 4);
      const Tick when = 50 + rng() % 1000;
      std::size_t id = 0;
      switch (pick) {
        case WakerState::kPending:
          id = engine.spawn(idleUntil(engine, when), 0, {1});
          global_next = std::min(global_next, when);
          break;
        case WakerState::kDone:
          id = engine.spawn(idleUntil(engine, 10), 0, {1});  // finished by the probe
          break;
        case WakerState::kUnknownPark:
          id = engine.spawn(parkThenFinish(engine, slots[wakers.size()],
                                           slot_tasks[wakers.size()]),
                            0, {1});
          break;
        case WakerState::kChained: {
          // Blocked on its own lock whose holder runs at `when`.
          const std::uint32_t lock = engine.registerLock();
          id = engine.spawn(parkOnSync(engine, lock, slots[wakers.size()],
                                       slot_tasks[wakers.size()]),
                            0, {1});
          const std::size_t releaser = engine.spawn(idleUntil(engine, when), 0, {1});
          global_next = std::min(global_next, when);
          chains.emplace_back(lock, releaser);
          break;
        }
      }
      state[id] = pick;
      earliest[id] = when;
      wakers.push_back(id);
    }
    std::vector<Tick> horizons;
    const std::size_t prober = engine.spawn(probeOne(engine, 40, 0, horizons), 0, {1});
    if (rng() % 2 == 0) wakers.push_back(prober);
    if (rng() % 5 == 0) wakers.push_back(blocked);  // a task cannot wake itself
    std::shuffle(wakers.begin(), wakers.end(), rng);

    barrier = engine.registerBarrier(wakers);
    if (rng() % 2 == 0) {
      // Stale stamps from an earlier episode must not count as arrivals.
      for (const std::size_t w : wakers) {
        if (rng() % 2 == 0) engine.arriveAtBarrier(barrier, w);
      }
      engine.startBarrierEpisode(barrier);
    }
    std::vector<std::size_t> current;
    for (const std::size_t w : wakers) {
      if (rng() % 3 == 0) {
        engine.arriveAtBarrier(barrier, w);
      } else {
        current.push_back(w);
      }
    }
    for (const auto& [lock, releaser] : chains) engine.setLockHolder(lock, releaser);
    const bool shortcut =
        std::find(current.begin(), current.end(), prober) != current.end();
    (shortcut ? shortcut_trials : scanned_trials) += 1;
    const Tick expected =
        referenceAllBound(current, blocked, prober, state, earliest, global_next);

    engine.run();
    ASSERT_EQ(horizons.size(), 1u) << "trial " << trial;
    EXPECT_EQ(horizons[0], expected) << "trial " << trial;
  }
  // Both the shortcut and the full scan were exercised.
  EXPECT_GT(shortcut_trials, 50);
  EXPECT_GT(scanned_trials, 50);
}

// --- member sets: the horizon over non-members ------------------------------

/// At `at`, records nextEventTimeFor(resource, members): the running task
/// plus `peers`.
SimTask probeMembers(Engine& engine, Tick at, std::uint32_t resource,
                     std::vector<std::size_t> peers, Tick& out) {
  co_await engine.resumeAt(at);
  peers.push_back(engine.currentTaskId());
  out = engine.nextEventTimeFor(resource, peers);
}

// A waiter on a lock the running task holds cannot be woken until the
// running task releases it — never mid-batch — so it does not bound the
// horizon at all.
TEST(Engine, LockHeldByRunningTaskNeverBoundsHorizon) {
  Engine engine(2);
  const std::uint32_t lock = engine.registerLock();
  std::coroutine_handle<> parked;
  std::size_t parked_task = Engine::kNoTask;
  Tick horizon = 0;
  engine.spawn(parkOnSync(engine, lock, parked, parked_task), 0, {0});
  const std::size_t prober = engine.spawn(probeMembers(engine, 40, 0, {}, horizon), 0, {0});
  engine.setLockHolder(lock, prober);
  engine.run();
  EXPECT_EQ(horizon, Engine::kNever);
}

// The barrier case: the running task has not arrived, so the release (the
// last arrival) cannot happen mid-batch.
TEST(Engine, BarrierTheRunningTaskHasNotReachedNeverBoundsHorizon) {
  Engine engine(2);
  std::uint32_t barrier = Engine::kNoSync;
  std::coroutine_handle<> parked;
  std::size_t parked_task = Engine::kNoTask;
  Tick horizon = 0;
  const std::size_t b =
      engine.spawn(parkOnBarrier(engine, barrier, parked, parked_task), 0, {0});
  const std::size_t peer = engine.spawn(idleUntil(engine, 500), 0, {1});
  const std::size_t prober = engine.spawn(probeMembers(engine, 40, 0, {}, horizon), 0, {0});
  barrier = engine.registerBarrier({b, peer, prober});
  engine.arriveAtBarrier(barrier, b);
  engine.run();
  EXPECT_EQ(horizon, Engine::kNever);
}

// A waiter on a lock held by a peer with a pending event can be woken the
// moment that peer runs: the peer's event bounds the horizon, unless the
// peer is a member too.
TEST(Engine, LockHeldByPendingPeerBoundsHorizonUnlessMember) {
  for (const bool member : {false, true}) {
    Engine engine(2);
    const std::uint32_t lock = engine.registerLock();
    std::coroutine_handle<> parked;
    std::size_t parked_task = Engine::kNoTask;
    Tick horizon = 0;
    engine.spawn(parkOnSync(engine, lock, parked, parked_task), 0, {0});
    const std::size_t holder = engine.spawn(idleUntil(engine, 500), 0, {1});
    std::vector<std::size_t> peers;
    if (member) peers.push_back(holder);
    engine.spawn(probeMembers(engine, 40, 0, peers, horizon), 0, {0});
    engine.setLockHolder(lock, holder);
    engine.run();
    EXPECT_EQ(horizon, member ? Engine::kNever : 500u) << "member " << member;
  }
}

// Members' own pending events do not count either: with the peer at 100 a
// member, the horizon is the next non-member's event at 300, and a barrier
// waiter whose missing arrival is the member's never bounds it.
TEST(Engine, MemberSlotsAndBarrierArrivalsLeaveTheHorizon) {
  for (const bool member : {false, true}) {
    Engine engine(2);
    std::uint32_t barrier = Engine::kNoSync;
    std::coroutine_handle<> parked;
    std::size_t parked_task = Engine::kNoTask;
    Tick horizon = 0;
    const std::size_t peer = engine.spawn(idleUntil(engine, 100), 0, {0});
    engine.spawn(idleUntil(engine, 300), 0, {0});
    const std::size_t b =
        engine.spawn(parkOnBarrier(engine, barrier, parked, parked_task), 0, {0});
    std::vector<std::size_t> peers;
    if (member) peers.push_back(peer);
    engine.spawn(probeMembers(engine, 40, 0, peers, horizon), 0, {0});
    barrier = engine.registerBarrier({b, peer});
    engine.arriveAtBarrier(barrier, b);
    engine.run();
    EXPECT_EQ(horizon, member ? 300u : 100u) << "member " << member;
  }
}

/// Suspends forever with no pending event and no sync object — what an
/// injected permanent core freeze (FreezeForever) does.
struct WedgeAwaiter {
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> /*h*/) const noexcept {}
  void await_resume() const noexcept {}
};

SimTask wedge(Engine& engine, Tick at) {
  co_await engine.resumeAt(at);
  co_await WedgeAwaiter{};
}

// A wedged task (unknown park) could be woken by any event, so its
// resource's horizon falls back to the global next event, members or not.
TEST(Engine, WedgedTaskForcesGlobalHorizon) {
  Engine engine(2);
  Tick horizon = 0;
  engine.spawn(wedge(engine, 10), 0, {0});
  const std::size_t far = engine.spawn(idleUntil(engine, 500), 0, {1});
  engine.spawn(probeMembers(engine, 40, 0, {far}, horizon), 0, {0});
  engine.run();
  EXPECT_EQ(horizon, 500u);
}

TEST(Engine, CompletionTimesRecorded) {
  Engine engine;
  std::vector<int> log;
  const std::size_t a = engine.spawn(recorder(engine, log, 1, 50));
  const std::size_t b = engine.spawn(recorder(engine, log, 2, 200));
  engine.run();
  EXPECT_EQ(engine.completionTime(a), 100u);
  EXPECT_EQ(engine.completionTime(b), 400u);
  EXPECT_EQ(engine.makespan(), 400u);
}

TEST(Engine, NowAdvancesMonotonically) {
  Engine engine;
  std::vector<int> log;
  engine.spawn(recorder(engine, log, 1, 10));
  EXPECT_EQ(engine.now(), 0u);
  engine.run();
  EXPECT_EQ(engine.now(), 20u);
}

TEST(Engine, ZeroDelayContinuesInline) {
  Engine engine;
  int steps = 0;
  auto task = [](Engine& e, int& counter) -> SimTask {
    co_await e.delay(0);
    ++counter;
    co_await e.delay(0);
    ++counter;
  };
  engine.spawn(task(engine, steps));
  engine.run();
  EXPECT_EQ(steps, 2);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine engine;
    std::vector<int> log;
    for (int i = 0; i < 8; ++i) {
      engine.spawn(recorder(engine, log, i, 10 + (i * 37) % 90));
    }
    engine.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

SimTask outerWithSubtask(Engine& engine, std::vector<int>& log);
SubTask innerSteps(Engine& engine, std::vector<int>& log) {
  log.push_back(10);
  co_await engine.delay(5);
  log.push_back(11);
  co_await engine.delay(5);
  log.push_back(12);
}

SimTask outerWithSubtask(Engine& engine, std::vector<int>& log) {
  log.push_back(1);
  co_await innerSteps(engine, log);
  log.push_back(2);
}

TEST(Engine, SubTaskRunsInlineAndReturnsToParent) {
  Engine engine;
  std::vector<int> log;
  const std::size_t id = engine.spawn(outerWithSubtask(engine, log));
  engine.run();
  EXPECT_EQ(log, (std::vector<int>{1, 10, 11, 12, 2}));
  EXPECT_EQ(engine.completionTime(id), 10u);
}

SimTask nestedTwice(Engine& engine, std::vector<int>& log) {
  co_await innerSteps(engine, log);
  co_await innerSteps(engine, log);
  log.push_back(99);
}

TEST(Engine, SubTaskReusableSequentially) {
  Engine engine;
  std::vector<int> log;
  engine.spawn(nestedTwice(engine, log));
  engine.run();
  ASSERT_EQ(log.size(), 7u);
  EXPECT_EQ(log.back(), 99);
  EXPECT_EQ(engine.makespan(), 20u);
}

TEST(ResourceTimeline, IdleResourceServesImmediately) {
  ResourceTimeline r;
  EXPECT_EQ(r.acquire(100, 10), 110u);
  EXPECT_EQ(r.nextFree(), 110u);
}

TEST(ResourceTimeline, BackToBackRequestsQueue) {
  ResourceTimeline r;
  EXPECT_EQ(r.acquire(0, 10), 10u);
  EXPECT_EQ(r.acquire(0, 10), 20u);   // waits for the first
  EXPECT_EQ(r.acquire(5, 10), 30u);   // still queued
  EXPECT_EQ(r.acquire(100, 10), 110u);  // idle gap
}

TEST(ResourceTimeline, TracksUtilization) {
  ResourceTimeline r;
  r.acquire(0, 10);
  r.acquire(0, 15);
  EXPECT_EQ(r.totalBusy(), 25u);
  EXPECT_EQ(r.requests(), 2u);
}

TEST(Engine, EventCountTracked) {
  Engine engine;
  std::vector<int> log;
  engine.spawn(recorder(engine, log, 0, 5));
  engine.run();
  EXPECT_GE(engine.eventsProcessed(), 2u);
}

TEST(Engine, NextEventTimeTracksQueue) {
  Engine engine;
  EXPECT_EQ(engine.nextEventTime(), Engine::kNever);
  std::vector<int> log;
  engine.spawn(recorder(engine, log, 0, 25));  // first resume queued at t=0
  EXPECT_EQ(engine.nextEventTime(), 0u);
  engine.run();
  EXPECT_EQ(engine.nextEventTime(), Engine::kNever);
}

TEST(Engine, NextEventTimeSeesEarliestOfMany) {
  Engine engine;
  std::vector<int> log;
  engine.spawn(recorder(engine, log, 0, 70), /*start=*/40);
  engine.spawn(recorder(engine, log, 1, 70), /*start=*/10);
  EXPECT_EQ(engine.nextEventTime(), 10u);
}

// The running task's popped leaf stays in the tree until its own schedule()
// replaces it or the next read of the root clears it (engine.h). During an
// event nextEventTime() must still name some other task's event, whether the
// running task reschedules, parks or finishes, and a leaf left by a parked or
// finished task must not resurface in a later event.
SimTask probeThenReschedule(Engine& engine, std::vector<Tick>& out) {
  co_await engine.resumeAt(10);
  out.push_back(engine.nextEventTime());
  co_await engine.resumeAt(40);
  out.push_back(engine.nextEventTime());
}

SimTask probeThenPark(Engine& engine, std::vector<Tick>& out,
                      std::coroutine_handle<>& slot, std::size_t& task) {
  co_await engine.resumeAt(20);
  out.push_back(engine.nextEventTime());
  co_await ParkAwaiter{&slot, &task, &engine};
  out.push_back(engine.nextEventTime());
}

SimTask probeThenFinish(Engine& engine, std::vector<Tick>& out) {
  co_await engine.resumeAt(30);
  out.push_back(engine.nextEventTime());
}

TEST(Engine, RunningTaskNeverBoundsNextEventTime) {
  Engine engine;
  std::coroutine_handle<> parked;
  std::size_t parked_task = Engine::kNoTask;
  std::vector<Tick> seen;
  engine.spawn(probeThenReschedule(engine, seen));                  // t=10, t=40
  engine.spawn(probeThenPark(engine, seen, parked, parked_task));   // t=20, woken t=50
  engine.spawn(probeThenFinish(engine, seen));                      // t=30
  engine.spawn(wakeParked(engine, 50, parked, parked_task));        // t=50
  engine.run();
  // t=10 sees the parker (20), t=20 the finisher (30), t=30 the rescheduled
  // task (40), t=40 the waker (50), and the woken parker nothing at all.
  EXPECT_EQ(seen, (std::vector<Tick>{20, 30, 40, 50, Engine::kNever}));
  EXPECT_EQ(engine.nextEventTime(), Engine::kNever);
  EXPECT_EQ(engine.eventsProcessed(), 10u);
}

// --- the pending set against a reference priority queue ---------------------

/// Differential harness for the engine's queue and its two sync kinds:
/// every schedule the fuzz tasks make is mirrored into a plain list of
/// pending entries, and every resume must be the list's minimum under
/// (when, task id). At each resume the harness also checks nextEventTime(),
/// nextEventTimeFor(r) and nextEventTimeFor(r, members) for a random member
/// set (the running task plus random pending tasks) against scans of its
/// own state, including every blocked task's wake bound through its lock's
/// holder (kAny) or the barrier's members still to arrive (kAll).
struct QueueFuzz {
  enum class State : std::uint8_t { kPending, kRunning, kParked, kBlocked, kDone };
  struct Pending {
    Tick when;
    std::size_t id;
  };
  static constexpr std::uint32_t kResources = 3;

  explicit QueueFuzz(std::uint64_t seed) : rng(seed), member_rng(~seed) {}

  Engine engine{kResources};
  std::mt19937_64 rng;
  std::mt19937_64 member_rng;  ///< draws the member sets, apart from the schedule
  std::vector<State> state;
  std::vector<Tick> pending_when;  ///< per task, valid while kPending
  std::vector<std::vector<std::uint32_t>> reach;
  std::vector<std::uint32_t> sync;                ///< per task: its own lock
  std::vector<std::size_t> waker;                 ///< that lock's holder
  std::vector<std::coroutine_handle<>> parked;    ///< per task, while parked
  // The barrier: its members, who arrived this episode, who waits on it.
  std::uint32_t barrier = Engine::kNoSync;
  std::vector<std::size_t> members;
  std::vector<std::uint8_t> member;
  std::vector<std::uint8_t> arrived;
  std::vector<std::uint8_t> on_barrier;  ///< kBlocked on the barrier, not the lock
  std::size_t releases = 0;
  std::vector<Pending> ref;
  std::size_t pops = 0;
  std::size_t multi_member_checks = 0;  ///< of which with a pending member
  std::string failure;  ///< first mismatch, if any

  Tick draw(Tick n) { return static_cast<Tick>(rng() % n); }
  void check(bool ok, const std::string& what) {
    if (!ok && failure.empty()) failure = what + " at pop " + std::to_string(pops);
  }
  static bool firesBefore(const Pending& a, const Pending& b) {
    return a.when != b.when ? a.when < b.when : a.id < b.id;
  }
  void expectTask(std::size_t task, Tick when) {
    ref.push_back({when, task});
    state[task] = State::kPending;
    pending_when[task] = when;
  }
  /// Wake a parked or blocked task (from a task or from host context).
  void wake(std::size_t task, Tick when) {
    engine.schedule(when, parked[task], task);
    expectTask(task, when);
    on_barrier[task] = 0;
  }
  [[nodiscard]] bool reaches(std::size_t task, std::uint32_t r) const {
    return std::find(reach[task].begin(), reach[task].end(), r) != reach[task].end();
  }
  [[nodiscard]] Tick refNext() const {
    Tick next = Engine::kNever;
    for (const Pending& p : ref) next = std::min(next, p.when);
    return next;
  }
  [[nodiscard]] static bool isIn(const std::vector<std::size_t>& set, std::size_t t) {
    return std::find(set.begin(), set.end(), t) != set.end();
  }
  /// Earliest execution of waker `w` (the engine's earliestRun); a member
  /// (the running task among them) never acts mid-batch.
  Tick refEarliest(std::size_t w, const std::vector<std::size_t>& members,
                   std::vector<std::size_t>& visited) const {
    if (isIn(members, w)) return Engine::kNever;
    switch (state[w]) {
      case State::kPending: return pending_when[w];
      case State::kParked: return refNext();
      case State::kBlocked: {
        if (std::find(visited.begin(), visited.end(), w) != visited.end()) {
          return Engine::kNever;
        }
        visited.push_back(w);
        const Tick bound = refWakeBound(w, members, visited);
        visited.pop_back();
        return bound;
      }
      case State::kRunning:
      case State::kDone: return Engine::kNever;
    }
    return Engine::kNever;
  }
  /// Wake bound of blocked `b`: kAny through its lock's one holder, or kAll
  /// over the barrier's members still to arrive (a plain scan, no shortcut).
  Tick refWakeBound(std::size_t b, const std::vector<std::size_t>& batch,
                    std::vector<std::size_t>& visited) const {
    if (on_barrier[b] != 0) {
      Tick bound = 0;
      for (const std::size_t m : members) {
        if (arrived[m] != 0 || m == b) continue;
        const Tick t = refEarliest(m, batch, visited);
        if (t == Engine::kNever) return Engine::kNever;
        bound = std::max(bound, t);
      }
      return bound;
    }
    const std::size_t w = waker[b];
    if (w == Engine::kNoTask) return refNext();  // holder unknown
    if (w == b) return Engine::kNever;
    return refEarliest(w, batch, visited);
  }
  /// The horizon over the non-members of `batch`: a plain scan.
  [[nodiscard]] Tick refHorizon(std::uint32_t r, const std::vector<std::size_t>& batch) const {
    Tick horizon = Engine::kNever;
    for (const Pending& p : ref) {
      if (reaches(p.id, r) && !isIn(batch, p.id)) horizon = std::min(horizon, p.when);
    }
    for (std::size_t t = 0; t < state.size(); ++t) {
      if (!reaches(t, r)) continue;
      if (state[t] == State::kParked) return refNext();  // unknown park
      if (state[t] == State::kBlocked) {
        std::vector<std::size_t> visited{t};
        horizon = std::min(horizon, refWakeBound(t, batch, visited));
      }
    }
    return horizon;
  }
  void onResume(std::size_t id) {
    ++pops;
    const auto it = std::min_element(ref.begin(), ref.end(), firesBefore);
    if (it == ref.end()) {
      check(false, "resume with nothing pending");
      return;
    }
    check(it->when == engine.now() && it->id == id,
          "resumed task " + std::to_string(id) + " @" + std::to_string(engine.now()) +
              ", reference task " + std::to_string(it->id) + " @" +
              std::to_string(it->when));
    ref.erase(it);
    state[id] = State::kRunning;
    check(engine.currentTaskId() == id, "currentTaskId");
    check(engine.nextEventTime() == refNext(), "nextEventTime");
    // A random batch: the running task plus each pending task with
    // probability 1/3.
    std::vector<std::size_t> batch{id};
    for (const Pending& p : ref) {
      if (member_rng() % 3 == 0) batch.push_back(p.id);
    }
    std::shuffle(batch.begin(), batch.end(), member_rng);
    if (batch.size() > 1) ++multi_member_checks;
    for (std::uint32_t r = 0; r < kResources; ++r) {
      const std::string at = "(" + std::to_string(r) + ")";
      check(engine.nextEventTimeFor(r) == refHorizon(r, {id}), "nextEventTimeFor" + at);
      check(engine.nextEventTimeFor(r, batch) == refHorizon(r, batch),
            "nextEventTimeFor(members)" + at);
    }
  }
  /// Non-suspending move of the running task: wake a task parked by an
  /// unknown mechanism or blocked on its lock (at an equal or later Tick).
  /// Barrier waiters are woken only by the barrier's release.
  void sideActions() {
    if (draw(3) != 0) return;
    std::vector<std::size_t> sleepers;
    for (std::size_t t = 0; t < state.size(); ++t) {
      if (state[t] == State::kParked || (state[t] == State::kBlocked && on_barrier[t] == 0)) {
        sleepers.push_back(t);
      }
    }
    if (!sleepers.empty()) wake(sleepers[draw(sleepers.size())], engine.now() + draw(3));
  }
  /// Member `id` arrives. Returns true when it must park: the last arrival
  /// instead releases every waiter and starts a new episode.
  bool arrive(std::size_t id) {
    arrived[id] = 1;
    engine.arriveAtBarrier(barrier, id);
    for (const std::size_t m : members) {
      if (arrived[m] == 0) return true;
    }
    for (std::size_t t = 0; t < state.size(); ++t) {
      if (on_barrier[t] != 0) wake(t, engine.now() + draw(3));
    }
    std::fill(arrived.begin(), arrived.end(), 0);
    engine.startBarrierEpisode(barrier);
    ++releases;
    return false;
  }
};

/// Parks the running fuzz task: on its lock, on the barrier, or by a
/// mechanism the engine does not know.
struct FuzzPark {
  enum class On : std::uint8_t { kLock, kBarrier, kUnknown };
  QueueFuzz* f;
  std::size_t task;
  On on;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    f->parked[task] = h;
    f->state[task] = on == On::kUnknown ? QueueFuzz::State::kParked
                                        : QueueFuzz::State::kBlocked;
    if (on == On::kLock) f->engine.blockOnSync(task, f->sync[task]);
    if (on == On::kBarrier) {
      f->on_barrier[task] = 1;
      f->engine.blockOnSync(task, f->barrier);
    }
  }
  void await_resume() const noexcept {}
};

SimTask fuzzTask(QueueFuzz& f, std::size_t id) {
  for (int step = 0;; ++step) {
    f.onResume(id);
    f.sideActions();
    const Tick pick = f.draw(12);
    if (pick == 0 || step == 30) {
      f.state[id] = QueueFuzz::State::kDone;
      co_return;
    }
    if (pick <= 3) {
      co_await FuzzPark{&f, id, pick <= 2 ? FuzzPark::On::kLock : FuzzPark::On::kUnknown};
    } else if (pick <= 5 && f.member[id] != 0 && f.arrived[id] == 0 && f.arrive(id)) {
      co_await FuzzPark{&f, id, FuzzPark::On::kBarrier};
    } else {
      const Tick when = f.engine.now() + 1 + f.draw(4);  // small: many collisions
      f.expectTask(id, when);
      co_await f.engine.resumeAt(when);
    }
  }
}

// The one-slot-per-task queue and both sync kinds against the reference.
// Each trial spawns tasks with random reach sets and random start Ticks,
// gives each task a lock held by a random task (or by no declared holder)
// and a random subset of them a barrier. Tasks park on their lock, arrive
// at the barrier (the last arrival releases the waiters and starts a new
// episode) or park by an unknown mechanism, wake each other at equal or
// later Ticks and finish; the leftovers are then woken from host context
// under their own ids and run again.
TEST(Engine, TaskSlotQueueMatchesReferenceOrder) {
  {
    // The ascending-(time, task) order on the simplest schedule.
    Engine engine;
    std::vector<int> log;
    engine.spawn(recorder(engine, log, 1, 300));
    engine.spawn(recorder(engine, log, 2, 100));
    engine.run();
    EXPECT_EQ(log, (std::vector<int>{2, 102, 1, 101}));
  }
  std::size_t total_pops = 0;
  std::size_t total_releases = 0;
  std::size_t total_multi = 0;
  for (std::uint64_t trial = 0; trial < 2000; ++trial) {
    QueueFuzz f(trial * 0x9E3779B97F4A7C15ULL + 7);
    const std::size_t tasks = 2 + f.draw(11);
    f.state.assign(tasks, QueueFuzz::State::kPending);
    f.pending_when.assign(tasks, 0);
    f.parked.assign(tasks, {});
    f.member.assign(tasks, 0);
    f.arrived.assign(tasks, 0);
    f.on_barrier.assign(tasks, 0);
    for (std::size_t t = 0; t < tasks; ++t) {
      std::vector<std::uint32_t> reach;
      for (std::uint32_t r = 0; r < QueueFuzz::kResources; ++r) {
        if (f.draw(2) == 0) reach.push_back(r);
      }
      if (reach.empty()) reach.push_back(static_cast<std::uint32_t>(f.draw(QueueFuzz::kResources)));
      f.reach.push_back(reach);
      f.sync.push_back(f.engine.registerLock());
      const std::size_t holder = f.draw(tasks + 1);
      f.waker.push_back(holder == tasks ? Engine::kNoTask : holder);
      if (f.draw(2) == 0) {
        f.member[t] = 1;
        f.members.push_back(t);
      }
    }
    for (std::size_t t = 0; t < tasks; ++t) {
      const Tick start = f.draw(4);
      f.expectTask(t, start);
      f.engine.spawn(fuzzTask(f, t), start, f.reach[t]);
    }
    for (std::size_t t = 0; t < tasks; ++t) f.engine.setLockHolder(f.sync[t], f.waker[t]);
    f.barrier = f.engine.registerBarrier(f.members);
    EXPECT_EQ(f.engine.nextEventTime(), f.refNext()) << "trial " << trial;
    f.engine.run();
    for (std::size_t t = 0; t < tasks; ++t) {
      if (f.state[t] != QueueFuzz::State::kParked &&
          f.state[t] != QueueFuzz::State::kBlocked) {
        continue;
      }
      if (f.draw(2) == 0) continue;
      f.wake(t, f.engine.now() + f.draw(3));
    }
    f.engine.run();
    EXPECT_EQ(f.failure, "") << "trial " << trial;
    EXPECT_TRUE(f.ref.empty()) << "trial " << trial;
    EXPECT_EQ(f.engine.nextEventTime(), Engine::kNever) << "trial " << trial;
    total_pops += f.pops;
    total_releases += f.releases;
    total_multi += f.multi_member_checks;
  }
  EXPECT_GT(total_pops, 50000u);
  EXPECT_GT(total_releases, 500u);
  EXPECT_GT(total_multi, 20000u);
}

TEST(Engine, WallClockInstrumentation) {
  Engine engine;
  std::vector<int> log;
  for (int i = 0; i < 16; ++i) engine.spawn(recorder(engine, log, i, 10 + i));
  EXPECT_EQ(engine.hostWallSeconds(), 0.0);
  engine.run();
  // The host-domain wall clock lives on in the metrics registry as
  // wall_seconds / events_per_second (sim/obs/metrics.h); the engine keeps
  // only the raw seconds.
  EXPECT_GT(engine.hostWallSeconds(), 0.0);
  EXPECT_GT(engine.eventsProcessed(), 0u);
}

// --- robustness / no-progress detection --------------------------------------

/// Suspend forever without scheduling a resume: the task stays alive with no
/// pending event — the shape of a wedged core or a host-woken park.
struct ParkForever {
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> /*h*/) const noexcept {}
  void await_resume() const noexcept {}
};

SimTask parkAfter(Engine& engine, Tick when) {
  co_await engine.delay(when);
  co_await ParkForever{};
}

SimTask parkOnSyncAfter(Engine& engine, std::uint32_t sync, Tick when) {
  co_await engine.delay(when);
  engine.blockOnSync(engine.currentTaskId(), sync);
  co_await ParkForever{};
}

// Default behavior is unchanged: a bare Engine legitimately parks tasks
// across run() calls (host code schedules their wakes later), so a drain
// with unfinished tasks returns normally unless hang detection is enabled.
TEST(Engine, ParkedTaskReturnsNormallyByDefault) {
  Engine engine;
  engine.spawn(parkAfter(engine, 10));
  EXPECT_EQ(engine.run(), 10u);
  EXPECT_EQ(engine.unfinishedTasks(), 1u);
}

TEST(Engine, HangDetectionThrowsDeadlockWithWaitForGraph) {
  Engine engine;
  engine.setHangDetection(true);
  const std::uint32_t sync = engine.registerLock();
  engine.spawn(parkOnSyncAfter(engine, sync, 10));  // task 0: blocked on sync
  engine.spawn(parkAfter(engine, 20));              // task 1: wedged, no sync
  std::vector<int> log;
  engine.spawn(recorder(engine, log, 7, 5));        // task 2: completes
  engine.setLockHolder(sync, 1);
  try {
    engine.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_EQ(e.kind(), SimHangError::Kind::kDeadlock);
    ASSERT_EQ(e.report().waiters.size(), 2u);  // the finished task is absent
    const HangReport::Waiter& blocked = e.report().waiters[0];
    EXPECT_EQ(blocked.task, 0u);
    EXPECT_EQ(blocked.sync, sync);
    EXPECT_EQ(blocked.blocked_since, 10u);
    EXPECT_TRUE(blocked.wakers_known);
    EXPECT_EQ(blocked.wakers, (std::vector<std::size_t>{1}));
    const HangReport::Waiter& wedged = e.report().waiters[1];
    EXPECT_EQ(wedged.task, 1u);
    EXPECT_EQ(wedged.sync, Engine::kNoSync);
    EXPECT_NE(std::string(e.what()).find("blocked on sync"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("unknown mechanism"), std::string::npos);
  }
}

TEST(Engine, HangDetectionPassesCleanCompletion) {
  Engine engine;
  engine.setHangDetection(true);
  std::vector<int> log;
  engine.spawn(recorder(engine, log, 1, 100));
  EXPECT_NO_THROW(engine.run());
}

TEST(Engine, SyncTimeoutThrowsOnOverstayedPark) {
  Engine engine;
  engine.setSyncTimeout(50);
  const std::uint32_t sync = engine.registerLock();
  engine.spawn(parkOnSyncAfter(engine, sync, 10));  // parks at t=10
  std::vector<int> log;
  engine.spawn(recorder(engine, log, 1, 100));  // events at t=100, t=200
  // The t=100 event resumes with the park 90 ticks old: 90 > 50 ⇒ throw.
  EXPECT_THROW(engine.run(), SyncTimeout);
}

TEST(Engine, SyncTimeoutSparesWaitsWithinBudget) {
  Engine engine;
  engine.setSyncTimeout(500);
  const std::uint32_t sync = engine.registerLock();
  engine.spawn(parkOnSyncAfter(engine, sync, 10));
  std::vector<int> log;
  engine.spawn(recorder(engine, log, 1, 100));  // longest gap after park: 190
  EXPECT_NO_THROW(engine.run());
}

TEST(Engine, WatchdogThrowsOnSameTickEventStorm) {
  Engine engine;
  engine.setWatchdogEventLimit(5);
  std::vector<int> log;
  // 10 tasks × 2 events each, ALL at t=100 then t=200 (recorder's two delays
  // of 100): 19 consecutive events fire with now_ stuck at 100.
  for (int i = 0; i < 10; ++i) engine.spawn(recorder(engine, log, i, 100));
  EXPECT_THROW(engine.run(), WatchdogError);
}

TEST(Engine, WatchdogSparesBoundedSameTickBursts) {
  Engine engine;
  engine.setWatchdogEventLimit(50);  // above the 19-event burst
  std::vector<int> log;
  for (int i = 0; i < 10; ++i) engine.spawn(recorder(engine, log, i, 100));
  EXPECT_NO_THROW(engine.run());
  EXPECT_EQ(log.size(), 20u);
}

// --- horizon probes ----------------------------------------------------------

SimTask probeSeries(Engine& engine, std::uint32_t resource, std::vector<Tick>& out) {
  for (int i = 0; i < 4; ++i) {
    co_await engine.delay(25);
    out.push_back(engine.nextEventTimeFor(resource));
  }
}

// A resource's horizon sees only its own reach class: the partner's events
// bound it, the idle tasks on other resources never do, and the bound is
// monotone as the partner's events drain.
TEST(Engine, HorizonProbesTrackOnlyTheResourcesOwnClass) {
  Engine engine(4);
  std::vector<Tick> out;
  engine.spawn(probeSeries(engine, 0, out), 0, {0});  // probes at 25, 50, 75, 100
  std::vector<int> plog;
  engine.spawn(recorder(engine, plog, 9, 40), 0, {0});  // partner events at 40, 80
  for (std::uint32_t res = 1; res < 4; ++res) {
    engine.spawn(idleUntil(engine, 60 + static_cast<Tick>(res)), 0, {res});
  }
  engine.run();
  EXPECT_EQ(out, (std::vector<Tick>{40, 80, 80, Engine::kNever}));
}

}  // namespace
}  // namespace hsm::sim
