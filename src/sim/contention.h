// Joint round-robin replay of k word-runs contending for one memory
// controller — the arithmetic core of SccMachine's contention batching
// (header comment at SccMachine::WordRun). Pure: it touches only the members,
// a scratch ResourceTimeline and the stamp counter it is handed, so tests can
// drive it directly against a word-by-word oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/engine.h"

namespace hsm::sim {

/// One member of a joint replay: a task mid word-run against the controller.
struct ReplayMember {
  std::size_t task;
  Tick t;        ///< completion of its last word (next-event instant)
  Tick hop;      ///< one-way mesh latency to the controller
  std::size_t remaining;  ///< words left in the run (>= 1 on entry)
  std::uint64_t seq;      ///< schedule order of its pending event
  bool is_self;
  std::size_t done = 0;   ///< words serviced by this replay
  // Round-jump bookkeeping: t and seq at the last window boundary.
  Tick window_t = 0;
  std::uint64_t window_seq = 0;
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
/// run completes. Each word goes to the member with the earliest
/// (t, seq) — the event queue's key — arrives `issue_overhead + hop` after
/// that member's previous completion, is serviced for `service` (plus any
/// stall), and hands the member the next stamp. Every member must enter with
/// remaining >= 1.
///
/// Round jumps: every `members.size()` picks closes a window. When a window
/// moved every member's stamp by exactly M = members.size() (so each member
/// was picked exactly once, in the same slot as the window before) and
/// moved every member's t by the same Δ as the timeline's nextFree(), the
/// state is the previous window's translated by (Δ, M). The recurrence is
/// translation-invariant — acquire is max(arrival, next_free) + service and
/// the pick order compares (t, seq) only — so every later window repeats it
/// until some run runs out. The replay then jumps min(remaining) - 1 windows
/// in O(M) and finishes word by word, so the finisher and every member's
/// final state are exactly the word-by-word replay's. Stall draws are keyed
/// per request, so an armed `stall` disables jumps.
JointReplay replayJointRuns(std::vector<ReplayMember>& members,
                            ResourceTimeline& timeline, std::uint64_t& next_stamp,
                            Tick issue_overhead, Tick service,
                            const ReplayStallFn& stall = {});

}  // namespace hsm::sim
