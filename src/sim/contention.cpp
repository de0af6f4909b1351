#include "sim/contention.h"

#include <algorithm>
#include <cassert>

namespace hsm::sim {

JointReplay replayJointRuns(std::vector<ReplayMember>& members,
                            ResourceTimeline& timeline, std::uint64_t& next_stamp,
                            Tick issue_overhead, Tick service,
                            const ReplayStallFn& stall) {
  const std::size_t n = members.size();
  JointReplay out{0, 0};
  bool jump = !stall;
  Tick window_free = timeline.nextFree();
  std::size_t window_picks = 0;
  for (ReplayMember& m : members) {
    assert(m.remaining > 0);
    m.window_t = m.t;
    m.window_seq = m.seq;
  }
  for (;;) {
    // Every member is mid-run until the first finisher ends the replay.
    std::size_t pick = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (members[i].t < members[pick].t ||
          (members[i].t == members[pick].t && members[i].seq < members[pick].seq)) {
        pick = i;
      }
    }
    ReplayMember& m = members[pick];
    const Tick arrival = m.t + issue_overhead + m.hop;
    Tick svc = service;
    if (stall) svc += stall(m, arrival, timeline.requests());
    m.t = timeline.acquire(arrival, svc) + m.hop;
    // Completing a word schedules the member's next event NOW, in replay
    // order — exactly the stamp the engine's next_seq counter would hand it.
    m.seq = next_stamp++;
    ++m.done;
    ++out.stepped;
    if (--m.remaining == 0) break;
    if (!jump || ++window_picks < n) continue;

    // Window boundary: does this window translate the previous one?
    window_picks = 0;
    const Tick delta = timeline.nextFree() - window_free;
    const bool repeats =
        std::all_of(members.begin(), members.end(), [&](const ReplayMember& r) {
          return r.seq - r.window_seq == n && r.t - r.window_t == delta;
        });
    if (!repeats) {
      window_free = timeline.nextFree();
      for (ReplayMember& r : members) {
        r.window_t = r.t;
        r.window_seq = r.seq;
      }
      continue;
    }
    // Jump k whole windows, stopping one window short of the first finisher
    // (which the word loop below then meets exactly as it would have).
    jump = false;
    const std::size_t k =
        std::min_element(members.begin(), members.end(),
                         [](const ReplayMember& a, const ReplayMember& b) {
                           return a.remaining < b.remaining;
                         })->remaining -
        1;
    if (k == 0) continue;
    for (ReplayMember& r : members) {
      r.t += k * delta;
      r.seq += k * n;
      r.done += k;
      r.remaining -= k;
    }
    next_stamp += k * n;
    timeline.advance(k * delta, k * n * service, k * n);
    out.words += k * n;
  }
  out.words += out.stepped;
  return out;
}

}  // namespace hsm::sim
