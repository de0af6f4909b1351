// Joint round-robin replay of k word-runs contending for one memory
// controller — the arithmetic core of SccMachine's contention batching
// (header comment at SccMachine::WordRun). Pure: it touches only the members
// and the ResourceTimeline it is handed, so tests can drive it directly
// against a word-by-word oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/engine.h"

namespace hsm::sim {

/// One member of a joint replay: a task mid word-run against the controller.
struct ReplayMember {
  std::size_t task;  ///< engine task id: the tie-break at equal t
  Tick t;        ///< completion of its last word (next-event instant)
  Tick hop;      ///< one-way mesh latency to the controller
  std::size_t remaining;  ///< words left in the run (>= 1 on entry)
  bool is_self;  ///< the live caller (its first word is acquired in the running event)
  std::size_t done = 0;   ///< words serviced by this replay
  // Round-jump bookkeeping: t and done at the last window boundary.
  Tick window_t = 0;
  std::size_t window_done = 0;
};

/// Extra service a stall fault adds to the request at `arrival` whose
/// per-resource index is `request` (0 = none). Empty = no stalls armed.
using ReplayStallFn =
    std::function<Tick(const ReplayMember& m, Tick arrival, std::uint64_t request)>;

struct JointReplay {
  std::uint64_t words;    ///< words serviced in total
  std::uint64_t stepped;  ///< of which replayed one at a time (rest jumped)
};

/// Replay the joint FCFS recurrence in engine order until the first member's
/// run completes. Each word goes to the member whose next event the engine
/// fires first — the earliest t, then the lower task id, except that the
/// live caller's first word goes first at its tick (it is acquired inside
/// the event running now) — arrives `issue_overhead + hop` after that
/// member's previous completion and is serviced for `service` (plus any
/// stall). Every member must enter with remaining >= 1.
///
/// Round jumps: every `members.size()` picks closes a window. When a window
/// picked every member exactly once, moved every member's t by the same Δ
/// as the timeline's nextFree(), and began after the live caller's first
/// word, the state is the previous window's translated by Δ. The recurrence
/// is translation-invariant — acquire is max(arrival, next_free) + service
/// and the pick compares t and task ids only — so every later window
/// repeats it until some run runs out. The replay then jumps
/// min(remaining) - 1 windows in O(M) and finishes word by word, so the
/// finisher and every member's final state are exactly the word-by-word
/// replay's. Stall draws are keyed per request, so an armed `stall`
/// disables jumps.
JointReplay replayJointRuns(std::vector<ReplayMember>& members,
                            ResourceTimeline& timeline, Tick issue_overhead,
                            Tick service, const ReplayStallFn& stall = {});

}  // namespace hsm::sim
