#include "sim/contention.h"

#include <algorithm>
#include <cassert>

namespace hsm::sim {
namespace {

/// Whether `a`'s next transaction is acquired before `b`'s: the engine's
/// event key (when, task id), except that the live caller's first
/// transaction goes first at its tick.
bool acquiresBefore(const ReplayMember& a, const ReplayMember& b) {
  if (a.t != b.t) return a.t < b.t;
  const bool a_live = a.is_self && a.done == 0;
  const bool b_live = b.is_self && b.done == 0;
  if (a_live != b_live) return a_live;
  return a.task < b.task;
}

}  // namespace

JointReplay replayJointRuns(std::vector<ReplayMember>& members,
                            ResourceTimeline& timeline, Tick horizon,
                            const ReplayStallFn& stall) {
  const std::size_t n = members.size();
  JointReplay out{0, 0};
  bool jump = !stall;
  Tick window_free = timeline.nextFree();
  std::size_t window_picks = 0;
  for (ReplayMember& m : members) {
    assert(m.remaining > 0);
    m.window_t = m.t;
    m.window_done = m.done;
  }
  // The members in pick order. A pick moves only the picked member, usually
  // to the back (the contended steady state is a round), so it is re-filed
  // by a scan from the back instead of a scan of every member per pick. A
  // round jump moves every member by the same Δ, which keeps the order.
  thread_local std::vector<std::uint32_t> order;
  order.resize(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return acquiresBefore(members[a], members[b]);
  });
  for (;;) {
    // Every member is mid-run until the first finisher ends the replay.
    const std::size_t pick = order[0];
    ReplayMember& m = members[pick];
    // Picks come in time order: once the earliest issues at the horizon, a
    // non-member may run first, and every later pick is past it too.
    if (m.t >= horizon && !(m.is_self && m.done == 0)) break;
    const bool live = m.is_self && m.done == 0;
    const Tick arrival = m.t + m.overhead + m.hop;
    Tick svc = m.service;
    if (stall) svc += stall(m, arrival, timeline.requests());
    m.t = timeline.acquire(arrival, svc) + m.hop;
    ++m.done;
    ++out.stepped;
    if (--m.remaining == 0) break;
    std::size_t pos = n - 1;
    while (pos > 0 && acquiresBefore(m, members[order[pos]])) --pos;
    std::copy(order.begin() + 1, order.begin() + static_cast<std::ptrdiff_t>(pos) + 1,
              order.begin());
    order[pos] = static_cast<std::uint32_t>(pick);
    // The live caller's first transaction is not picked by the key later
    // windows use, so no window may hold it: a window starts right after it.
    if (!jump || (!live && ++window_picks < n)) continue;

    // Window boundary: does this window translate the previous one?
    window_picks = 0;
    const Tick delta = timeline.nextFree() - window_free;
    const bool repeats =
        !live && std::all_of(members.begin(), members.end(), [&](const ReplayMember& r) {
          return r.done - r.window_done == 1 && r.t - r.window_t == delta &&
                 !(r.is_self && r.window_done == 0);
        });
    if (!repeats) {
      window_free = timeline.nextFree();
      for (ReplayMember& r : members) {
        r.window_t = r.t;
        r.window_done = r.done;
      }
      continue;
    }
    // Jump k whole windows, stopping one window short of the first finisher
    // (which the stepwise loop below then meets exactly as it would have),
    // and issuing nothing at or after the horizon: window j of the jump
    // issues each member's transaction at its t + j * delta.
    jump = false;
    std::size_t k = SIZE_MAX;
    Tick latest = 0;
    Tick busy = 0;
    for (const ReplayMember& r : members) {
      k = std::min(k, r.remaining - 1);
      latest = std::max(latest, r.t);
      busy += r.service;
    }
    if (latest >= horizon) {
      k = 0;
    } else if (horizon != Engine::kNever && delta > 0) {
      k = std::min<std::size_t>(k, (horizon - 1 - latest) / delta + 1);
    }
    if (k == 0) continue;
    for (ReplayMember& r : members) {
      r.t += k * delta;
      r.done += k;
      r.remaining -= k;
    }
    timeline.advance(k * delta, k * busy, k * n);
    out.txns += k * n;
  }
  out.txns += out.stepped;
  return out;
}

}  // namespace hsm::sim
