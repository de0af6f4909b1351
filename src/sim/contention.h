// Joint replay of k transaction runs contending for one serially-reusable
// resource (a memory controller or an MPB port) — the arithmetic core of
// SccMachine's one batching rule (header comment at SccMachine::TxnRun).
// Pure: it touches only the members and the ResourceTimeline it is handed,
// so tests can drive it directly against a transaction-by-transaction
// oracle.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/engine.h"

namespace hsm::sim {

/// One member of a joint replay: a task mid-run against the resource.
struct ReplayMember {
  std::size_t task;  ///< engine task id: the tie-break at equal t
  Tick t;            ///< its next-event instant: completion of its last transaction
  Tick overhead;     ///< core-side issue overhead per transaction
  Tick hop;          ///< one-way mesh latency to the resource
  Tick service;      ///< resource service per transaction
  std::size_t remaining;  ///< transactions left in the run (>= 1 on entry)
  bool is_self;  ///< the live caller (its first transaction is acquired in the running event)
  std::size_t done = 0;   ///< transactions serviced by this replay
  // Round-jump bookkeeping: t and done at the last window boundary.
  Tick window_t = 0;
  std::size_t window_done = 0;
};

/// Extra service a stall fault adds to the request at `arrival` whose
/// per-resource index is `request` (0 = none). Empty = no stalls armed.
using ReplayStallFn =
    std::function<Tick(const ReplayMember& m, Tick arrival, std::uint64_t request)>;

struct JointReplay {
  std::uint64_t txns;     ///< transactions serviced in total
  std::uint64_t stepped;  ///< of which replayed one at a time (rest jumped)
};

/// Replay the joint FCFS recurrence in engine order until the first member's
/// run completes or the next transaction would issue at or after `horizon`.
/// Each transaction goes to the member whose next event the engine fires
/// first — the earliest t, then the lower task id, except that the live
/// caller's first transaction goes first at its tick (it is acquired inside
/// the event running now, so `horizon` never stops it) — arrives `overhead +
/// hop` after that member's previous completion and is serviced for its
/// `service` (plus any stall). Every member must enter with remaining >= 1.
///
/// Round jumps: every `members.size()` picks closes a window, and the live
/// caller's first transaction starts a new one. When a window picked every
/// member exactly once, moved every member's t by the same Δ as the
/// timeline's nextFree(), and began after the live caller's first
/// transaction, the state is the previous window's translated by Δ. The
/// recurrence is translation-invariant — acquire is max(arrival, next_free)
/// + service and the pick compares t and task ids only — so every later
/// window repeats it until some run runs out or a pick reaches `horizon`.
/// The replay jumps that many windows less one in O(M), no jumped
/// transaction issuing at or after `horizon`, and finishes one transaction
/// at a time, so the finisher and every member's final state are exactly
/// the stepwise replay's. Stall draws are keyed per request, so an armed
/// `stall` disables jumps.
JointReplay replayJointRuns(std::vector<ReplayMember>& members,
                            ResourceTimeline& timeline, Tick horizon = Engine::kNever,
                            const ReplayStallFn& stall = {});

/// replayJointRuns for a lone member (no peers): the single-task horizon
/// loop, without the window bookkeeping. With no other member there is no
/// tie-break, so every step is the same translation-invariant map of (t,
/// nextFree()): once a step moves both by the same Δ, every later step
/// repeats it, and the loop jumps the rest of the run less one step, short
/// of `horizon`, in closed form. Same result as replayJointRuns on {m};
/// inline because uncontended runs of a few transactions call it once per
/// event.
inline JointReplay replayLoneRun(ReplayMember& m, ResourceTimeline& timeline,
                                 Tick horizon = Engine::kNever,
                                 const ReplayStallFn& stall = {}) {
  JointReplay out{0, 0};
  bool jump = !stall;
  for (;;) {
    if (m.t >= horizon && !(m.is_self && m.done == 0)) break;
    const Tick before_t = m.t;
    const Tick before_free = timeline.nextFree();
    const Tick arrival = m.t + m.overhead + m.hop;
    Tick svc = m.service;
    if (stall) svc += stall(m, arrival, timeline.requests());
    m.t = timeline.acquire(arrival, svc) + m.hop;
    ++m.done;
    ++out.stepped;
    if (--m.remaining == 0) break;
    const Tick delta = timeline.nextFree() - before_free;
    if (!jump || m.t - before_t != delta) continue;
    jump = false;
    std::size_t k = m.remaining - 1;
    if (m.t >= horizon) {
      k = 0;
    } else if (horizon != Engine::kNever && delta > 0) {
      k = std::min<std::size_t>(k, (horizon - 1 - m.t) / delta + 1);
    }
    m.t += k * delta;
    m.done += k;
    m.remaining -= k;
    timeline.advance(k * delta, k * m.service, k);
    out.txns += k;
  }
  out.txns += out.stepped;
  return out;
}

}  // namespace hsm::sim
