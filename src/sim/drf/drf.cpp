#include "sim/drf/drf.h"

#include <algorithm>
#include <sstream>

namespace hsm::sim::drf {
namespace {

void appendSite(std::ostringstream& out, const RaceSite& site) {
  out << "task " << site.task;
  if (site.ue >= 0) out << " (ue " << site.ue << ")";
  out << (site.write ? " wrote [" : " read [") << site.lo << "," << site.hi
      << ") @tick " << site.tick;
}

}  // namespace

std::string spaceName(std::uint32_t space) {
  if (space == kSpaceShm) return "shm";
  if (space == kSpacePriv) return "priv";
  return "mpb[ue " + std::to_string(space - 2) + "]";
}

const char* raceKindName(RaceKind kind) {
  switch (kind) {
    case RaceKind::kWriteWrite: return "write-write";
    case RaceKind::kReadWrite: return "read-write";
    case RaceKind::kWriteRead: return "write-read";
  }
  return "?";
}

std::string RaceReport::format() const {
  std::ostringstream out;
  out << raceKindName(kind) << " race on " << spaceName(space) << " ["
      << granule_begin << "," << granule_begin + granule_bytes << ") "
      << (line_granular ? "line" : "word") << "-granular";
  if (false_sharing) out << " FALSE-SHARING";
  if (!region.empty()) out << " region \"" << region << "\"";
  out << ": ";
  appendSite(out, prior);
  out << "  vs  ";
  appendSite(out, current);
  return out.str();
}

void DrfChecker::configure(bool word_granular, std::size_t line_bytes,
                           std::size_t word_bytes) {
  word_granular_ = word_granular;
  if (line_bytes > 0) line_bytes_ = line_bytes;
  if (word_bytes > 0) word_bytes_ = word_bytes;
}

void DrfChecker::registerTask(std::size_t task, int ue) {
  VectorClock& clock = clockOf(task);
  (void)clock;
  task_ue_[task] = ue;
}

void DrfChecker::addShmExemptRange(std::uint64_t begin, std::uint64_t end) {
  if (end <= begin) return;
  // Keep the list sorted and disjoint: absorb every range this one touches.
  auto it = std::lower_bound(shm_exempt_.begin(), shm_exempt_.end(), begin,
                             [](const Range& r, std::uint64_t b) { return r.end < b; });
  auto stop = it;
  for (; stop != shm_exempt_.end() && stop->begin <= end; ++stop) {
    begin = std::min(begin, stop->begin);
    end = std::max(end, stop->end);
  }
  it = shm_exempt_.erase(it, stop);
  shm_exempt_.insert(it, Range{begin, end});
}

void DrfChecker::registerRegion(std::string name, std::uint64_t begin,
                                std::uint64_t end) {
  if (end <= begin) return;
  regions_.push_back(Region{std::move(name), begin, end});
}

void DrfChecker::acquire(std::size_t task, std::uint64_t sync) {
  if (sync < sync_clocks_.size()) clockOf(task).join(sync_clocks_[sync]);
}

void DrfChecker::release(std::size_t task, std::uint64_t sync) {
  VectorClock& clock = clockOf(task);
  if (sync >= sync_clocks_.size()) sync_clocks_.resize(sync + 1);
  sync_clocks_[sync] = clock;
  clock.bump(task);
}

void DrfChecker::barrierRelease(const std::size_t* tasks, std::size_t count) {
  VectorClock joined;
  for (std::size_t i = 0; i < count; ++i) joined.join(clockOf(tasks[i]));
  for (std::size_t i = 0; i < count; ++i) {
    VectorClock& clock = clockOf(tasks[i]);
    clock = joined;
    clock.bump(tasks[i]);
  }
}

std::size_t DrfChecker::access(std::size_t task, std::uint32_t space,
                               std::uint64_t offset, std::size_t bytes, bool write,
                               bool cached, Tick tick) {
  if (bytes == 0) return 0;
  pending_reports_ = 0;
  // Contract granularity: cached shared DRAM is line-granular unless the
  // word-granular (future-contract) mode is on; everything else — uncached
  // words, MPB chunks, private process memory — is word-granular always.
  const bool line = !word_granular_ && cached && space == kSpaceShm;
  Touch t{task, nullptr, space, line, line ? line_bytes_ : word_bytes_, write, tick};
  // Clip to the bytes outside exempt ranges (shared DRAM only); the access
  // counts as checked when any byte survives.
  auto exempt = space == kSpaceShm
                    ? std::upper_bound(shm_exempt_.begin(), shm_exempt_.end(), offset,
                                       [](std::uint64_t o, const Range& r) {
                                         return o < r.end;
                                       })
                    : shm_exempt_.end();
  const std::uint64_t end = offset + bytes;
  for (std::uint64_t lo = offset; lo < end;) {
    std::uint64_t hi = end;
    if (exempt != shm_exempt_.end() && exempt->begin < end) {
      if (exempt->begin <= lo) {
        lo = (exempt++)->end;
        continue;
      }
      hi = exempt->begin;
    }
    if (t.clock == nullptr) {
      ++accesses_checked_;
      t.clock = &clockOf(task);
    }
    checkBytes(t, lo, hi);
    lo = hi;
  }
  return pending_reports_;
}

void DrfChecker::checkBytes(const Touch& t, std::uint64_t lo, std::uint64_t hi) {
  const std::size_t slot = static_cast<std::size_t>(t.space) * 2 + (t.line ? 1 : 0);
  if (slot >= shadow_.size()) shadow_.resize(slot + 1);
  RunMap& runs = shadow_[slot];
  const std::uint64_t g = t.granule;
  const std::uint64_t first = lo / g;
  const std::uint64_t last = (hi - 1) / g;
  const auto rel = [g](std::uint64_t byte, std::uint64_t granule) {
    return static_cast<std::uint32_t>(byte - granule * g);
  };
  if (first == last) {
    checkSegment(t, runs, first, first, rel(lo, first), rel(hi, first));
    return;
  }
  // At most three uniform segments: a partial first granule, the full
  // interior, a partial last granule.
  std::uint64_t inner_first = first;
  std::uint64_t inner_last = last;
  if (lo % g != 0) {
    checkSegment(t, runs, first, first, rel(lo, first), static_cast<std::uint32_t>(g));
    ++inner_first;
  }
  if (hi % g != 0) --inner_last;
  if (inner_first <= inner_last) {
    checkSegment(t, runs, inner_first, inner_last, 0, static_cast<std::uint32_t>(g));
  }
  if (hi % g != 0) checkSegment(t, runs, last, last, 0, rel(hi, last));
}

void DrfChecker::checkSegment(const Touch& t, RunMap& runs, std::uint64_t first,
                              std::uint64_t last, std::uint32_t lo, std::uint32_t hi) {
  // Split the runs straddling the segment's edges so every run below lies
  // wholly inside or wholly outside it.
  const auto split_before = [&runs](std::uint64_t at) {
    auto it = runs.upper_bound(at);
    if (it == runs.begin()) return;
    --it;
    if (it->first < at && it->second.last >= at) {
      runs.emplace_hint(std::next(it), at, Run{it->second.last, it->second.state});
      it->second.last = at - 1;
    }
  };
  split_before(first);
  split_before(last + 1);

  const AccessInfo cur{t.clock->get(t.task), static_cast<std::uint32_t>(t.task), t.tick,
                       lo, hi};
  auto it = runs.lower_bound(first);
  for (std::uint64_t at = first; at <= last;) {
    if (it == runs.end() || it->first > at) {
      // Never-touched gap: default state, inserted as its own run.
      const std::uint64_t gap_last =
          it == runs.end() || it->first > last ? last : it->first - 1;
      it = runs.emplace_hint(it, at, Run{gap_last, Shadow{}});
    }
    checkRun(t, it->second.state, it->first, it->second.last, cur);
    at = it->second.last + 1;
    ++it;
  }

  // Merge equal neighbours, from the run before the segment through the run
  // after it.
  it = runs.find(first);
  if (it != runs.begin()) --it;
  for (auto next = std::next(it); next != runs.end() && next->first <= last + 1;
       next = std::next(it)) {
    if (it->second.last + 1 == next->first && it->second.state == next->second.state) {
      it->second.last = next->second.last;
      runs.erase(next);
    } else {
      it = next;
    }
  }
}

std::string DrfChecker::formatReports() const {
  std::ostringstream out;
  for (const RaceReport& r : reports_) out << r.format() << '\n';
  return out.str();
}

void DrfChecker::resetExecutionState() {
  task_clocks_.clear();
  task_ue_.clear();
  sync_clocks_.clear();
  shadow_.clear();
  reports_.clear();
  accesses_checked_ = 0;
  pending_reports_ = 0;
}

VectorClock& DrfChecker::clockOf(std::size_t task) {
  if (task >= task_clocks_.size()) {
    task_clocks_.resize(task + 1);
    task_ue_.resize(task + 1, -1);
  }
  VectorClock& clock = task_clocks_[task];
  // Lazy init: every task's own component starts at 1, so epoch clock 0
  // unambiguously means "no recorded access" in the shadow state.
  if (clock.get(task) == 0) clock.set(task, 1);
  return clock;
}

std::size_t DrfChecker::shadowRuns() const {
  std::size_t n = 0;
  for (const RunMap& runs : shadow_) n += runs.size();
  return n;
}

std::string DrfChecker::regionNameAt(std::uint64_t offset) const {
  for (auto it = regions_.rbegin(); it != regions_.rend(); ++it) {
    if (offset >= it->begin && offset < it->end) return it->name;
  }
  return {};
}

void DrfChecker::report(RaceKind kind, const Touch& t, std::uint64_t first,
                        std::uint64_t last, const AccessInfo& prior, bool prior_write,
                        const AccessInfo& current) {
  const auto site = [this](const AccessInfo& a, bool write, std::uint64_t base) {
    RaceSite s;
    s.task = a.task;
    s.ue = a.task < task_ue_.size() ? task_ue_[a.task] : -1;
    s.tick = a.tick;
    s.write = write;
    s.lo = base + a.lo;
    s.hi = base + a.hi;
    return s;
  };
  // One report per granule of the run, ascending — what a granule-by-granule
  // check would have appended.
  for (std::uint64_t g = first; g <= last; ++g) {
    RaceReport r;
    r.kind = kind;
    r.space = t.space;
    r.granule_begin = g * t.granule;
    r.granule_bytes = static_cast<std::uint32_t>(t.granule);
    r.line_granular = t.line;
    r.prior = site(prior, prior_write, r.granule_begin);
    r.current = site(current, t.write, r.granule_begin);
    r.false_sharing =
        r.line_granular && (prior.hi <= current.lo || current.hi <= prior.lo);
    if (t.space == kSpaceShm) r.region = regionNameAt(r.granule_begin);
    reports_.push_back(std::move(r));
    ++pending_reports_;
  }
}

void DrfChecker::checkRun(const Touch& t, Shadow& s, std::uint64_t first,
                          std::uint64_t last, const AccessInfo& cur) {
  const VectorClock& clock = *t.clock;
  const std::size_t task = t.task;
  const bool write = t.write;
  const auto races_with = [&clock, task](const AccessInfo& prior) {
    return prior.clock != 0 && prior.task != task &&
           !clock.covers(prior.clock, prior.task);
  };
  // First conflict per granule only: a hot racy word must not flood the
  // report list, and downstream consumers (trace instants, counters) want
  // distinct races, not iterations.
  if (!s.reported) {
    if (races_with(s.write)) {
      report(write ? RaceKind::kWriteWrite : RaceKind::kWriteRead, t, first, last,
             s.write, /*prior_write=*/true, cur);
      s.reported = true;
    }
    if (!s.reported && write) {
      if (s.shared_reads.empty()) {
        if (races_with(s.read)) {
          report(RaceKind::kReadWrite, t, first, last, s.read, /*prior_write=*/false,
                 cur);
          s.reported = true;
        }
      } else {
        // Inflated read side: every concurrent reader must be ordered
        // before this write. Task-ascending scan keeps the reported reader
        // deterministic.
        for (const AccessInfo& r : s.shared_reads) {
          if (races_with(r)) {
            report(RaceKind::kReadWrite, t, first, last, r, /*prior_write=*/false, cur);
            s.reported = true;
            break;
          }
        }
      }
    }
  }
  // Shadow update (FastTrack): a write owns the granule — the read side
  // collapses back to the O(1) representation.
  if (write) {
    s.write = cur;
    s.read = AccessInfo{};
    s.shared_reads.clear();
    return;
  }
  if (s.shared_reads.empty()) {
    if (s.read.clock == 0 || s.read.task == cur.task ||
        clock.covers(s.read.clock, s.read.task)) {
      s.read = cur;  // exclusive-reader fast path: one epoch, no vector
      return;
    }
    // Two concurrent readers: inflate to the per-reader list.
    s.shared_reads.reserve(2);
    if (s.read.task < cur.task) {
      s.shared_reads.push_back(s.read);
      s.shared_reads.push_back(cur);
    } else {
      s.shared_reads.push_back(cur);
      s.shared_reads.push_back(s.read);
    }
    s.read = AccessInfo{};
    return;
  }
  const auto it = std::lower_bound(
      s.shared_reads.begin(), s.shared_reads.end(), cur.task,
      [](const AccessInfo& a, std::uint32_t id) { return a.task < id; });
  if (it != s.shared_reads.end() && it->task == cur.task) {
    *it = cur;
  } else {
    s.shared_reads.insert(it, cur);
  }
}

}  // namespace hsm::sim::drf
