// Tests for the DRF layers (docs/race_detection.md): the vector-clock
// happens-before detector (src/sim/drf/), its machine integration (sync-hook
// edges, shm/MPB/threadrt access paths, determinism and zero-overhead
// contracts), and the translator-side sharing-table lint
// (src/partition/drf_lint.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "partition/drf_lint.h"
#include "rcce/rcce.h"
#include "sim/drf/drf.h"
#include "sim/machine.h"
#include "threadrt/baseline.h"
#include "translator/translator.h"
#include "workloads/benchmark.h"

namespace hsm {
namespace {

using sim::SccConfig;
using sim::SccMachine;
using sim::Tick;
namespace drf = sim::drf;

// --- vector clock units ------------------------------------------------------

TEST(VectorClock, GetSetBumpDefaultZero) {
  drf::VectorClock c;
  EXPECT_EQ(c.get(3), 0u);  // absent entries read as 0
  c.set(3, 7);
  EXPECT_EQ(c.get(3), 7u);
  c.bump(3);
  EXPECT_EQ(c.get(3), 8u);
  c.bump(0);
  EXPECT_EQ(c.get(0), 1u);
}

TEST(VectorClock, JoinIsPointwiseMax) {
  drf::VectorClock a, b;
  a.set(0, 5);
  a.set(1, 1);
  b.set(1, 4);
  b.set(2, 2);
  a.join(b);
  EXPECT_EQ(a.get(0), 5u);
  EXPECT_EQ(a.get(1), 4u);
  EXPECT_EQ(a.get(2), 2u);
}

TEST(VectorClock, CoversEpoch) {
  drf::VectorClock c;
  c.set(1, 3);
  EXPECT_TRUE(c.covers(3, 1));
  EXPECT_TRUE(c.covers(2, 1));
  EXPECT_FALSE(c.covers(4, 1));
  EXPECT_FALSE(c.covers(1, 2));  // never heard from task 2
}

// --- checker units -----------------------------------------------------------

drf::DrfChecker makeChecker(bool word_granular = false) {
  drf::DrfChecker c;
  c.configure(word_granular, /*line_bytes=*/32, /*word_bytes=*/8);
  c.registerTask(0, 0);
  c.registerTask(1, 1);
  return c;
}

TEST(DrfChecker, UnorderedWritesRace) {
  drf::DrfChecker c = makeChecker();
  EXPECT_EQ(c.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, false, 100), 0u);
  EXPECT_EQ(c.access(1, drf::kSpaceShm, 0, 8, /*write=*/true, false, 200), 1u);
  ASSERT_EQ(c.reports().size(), 1u);
  const drf::RaceReport& r = c.reports()[0];
  EXPECT_EQ(r.kind, drf::RaceKind::kWriteWrite);
  EXPECT_EQ(r.prior.task, 0u);
  EXPECT_EQ(r.current.task, 1u);
  EXPECT_EQ(r.prior.tick, 100u);
  EXPECT_EQ(r.current.tick, 200u);
  EXPECT_FALSE(r.line_granular);
  EXPECT_FALSE(r.false_sharing);
}

TEST(DrfChecker, WriteThenReadAndReadThenWriteKinds) {
  drf::DrfChecker wr = makeChecker();
  wr.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, false, 10);
  wr.access(1, drf::kSpaceShm, 0, 8, /*write=*/false, false, 20);
  ASSERT_EQ(wr.reports().size(), 1u);
  EXPECT_EQ(wr.reports()[0].kind, drf::RaceKind::kWriteRead);

  drf::DrfChecker rw = makeChecker();
  rw.access(0, drf::kSpaceShm, 0, 8, /*write=*/false, false, 10);
  rw.access(1, drf::kSpaceShm, 0, 8, /*write=*/true, false, 20);
  ASSERT_EQ(rw.reports().size(), 1u);
  EXPECT_EQ(rw.reports()[0].kind, drf::RaceKind::kReadWrite);
}

TEST(DrfChecker, ConcurrentReadsAreNotRacy) {
  drf::DrfChecker c = makeChecker();
  c.access(0, drf::kSpaceShm, 0, 8, /*write=*/false, false, 10);
  c.access(1, drf::kSpaceShm, 0, 8, /*write=*/false, false, 20);
  EXPECT_TRUE(c.reports().empty());
  // ... but a writer unordered with EITHER reader races: the read side
  // inflated to both epochs, and task 0's clock does not cover task 1's read.
  c.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, false, 30);
  ASSERT_EQ(c.reports().size(), 1u);
  EXPECT_EQ(c.reports()[0].kind, drf::RaceKind::kReadWrite);
  EXPECT_EQ(c.reports()[0].prior.task, 1u);
}

TEST(DrfChecker, LockOrderedPairDoesNotRace) {
  drf::DrfChecker c = makeChecker();
  c.acquire(0, 5);
  c.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, false, 10);
  c.release(0, 5);
  c.acquire(1, 5);  // joins task 0's released clock
  c.access(1, drf::kSpaceShm, 0, 8, /*write=*/true, false, 20);
  c.release(1, 5);
  EXPECT_TRUE(c.reports().empty());
}

TEST(DrfChecker, BarrierOrderedPairDoesNotRace) {
  drf::DrfChecker c = makeChecker();
  c.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, false, 10);
  const std::size_t tasks[] = {0, 1};
  c.barrierRelease(tasks, 2);
  c.access(1, drf::kSpaceShm, 0, 8, /*write=*/true, false, 20);
  EXPECT_TRUE(c.reports().empty());
}

TEST(DrfChecker, ReleaseWithoutMatchingAcquireStillRaces) {
  // A release alone publishes nothing to a task that never acquires.
  drf::DrfChecker c = makeChecker();
  c.acquire(0, 5);
  c.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, false, 10);
  c.release(0, 5);
  c.access(1, drf::kSpaceShm, 0, 8, /*write=*/true, false, 20);
  EXPECT_EQ(c.reports().size(), 1u);
}

TEST(DrfChecker, FirstRacePerGranuleOnly) {
  drf::DrfChecker c = makeChecker();
  c.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, false, 10);
  EXPECT_EQ(c.access(1, drf::kSpaceShm, 0, 8, /*write=*/true, false, 20), 1u);
  // Same granule keeps conflicting — suppressed after the first report.
  EXPECT_EQ(c.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, false, 30), 0u);
  EXPECT_EQ(c.access(1, drf::kSpaceShm, 0, 8, /*write=*/true, false, 40), 0u);
  EXPECT_EQ(c.reports().size(), 1u);
  // A DIFFERENT granule still reports.
  c.access(0, drf::kSpaceShm, 64, 8, /*write=*/true, false, 50);
  EXPECT_EQ(c.access(1, drf::kSpaceShm, 64, 8, /*write=*/true, false, 60), 1u);
}

TEST(DrfChecker, LineGranularFlagsFalseSharingWordGranularDoesNot) {
  // Unpadded pair: two tasks write DIFFERENT words of one 32 B cached line.
  drf::DrfChecker line = makeChecker(/*word_granular=*/false);
  line.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, /*cached=*/true, 10);
  line.access(1, drf::kSpaceShm, 8, 8, /*write=*/true, /*cached=*/true, 20);
  ASSERT_EQ(line.reports().size(), 1u);
  EXPECT_TRUE(line.reports()[0].line_granular);
  EXPECT_TRUE(line.reports()[0].false_sharing);
  EXPECT_EQ(line.reports()[0].granule_bytes, 32u);

  // Padded pair: one line apart — clean even under the line contract.
  drf::DrfChecker padded = makeChecker(/*word_granular=*/false);
  padded.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, /*cached=*/true, 10);
  padded.access(1, drf::kSpaceShm, 32, 8, /*write=*/true, /*cached=*/true, 20);
  EXPECT_TRUE(padded.reports().empty());

  // Word-granular mode: the unpadded pair is clean (disjoint words).
  drf::DrfChecker word = makeChecker(/*word_granular=*/true);
  word.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, /*cached=*/true, 10);
  word.access(1, drf::kSpaceShm, 8, 8, /*write=*/true, /*cached=*/true, 20);
  EXPECT_TRUE(word.reports().empty());
}

TEST(DrfChecker, OverlappingLineRaceIsNotFalseSharing) {
  drf::DrfChecker c = makeChecker(/*word_granular=*/false);
  c.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, /*cached=*/true, 10);
  c.access(1, drf::kSpaceShm, 0, 8, /*write=*/true, /*cached=*/true, 20);
  ASSERT_EQ(c.reports().size(), 1u);
  EXPECT_TRUE(c.reports()[0].line_granular);
  EXPECT_FALSE(c.reports()[0].false_sharing);  // same word: a REAL race
}

TEST(DrfChecker, DistinctSpacesDoNotCollide) {
  // Same offset in shm, private memory, and two UEs' MPBs: four distinct
  // granules, no cross-space conflicts.
  drf::DrfChecker c = makeChecker();
  c.access(0, drf::kSpaceShm, 0, 8, /*write=*/true, false, 10);
  c.access(1, drf::kSpacePriv, 0, 8, /*write=*/true, false, 20);
  c.access(0, drf::mpbSpace(0), 0, 8, /*write=*/true, false, 30);
  c.access(1, drf::mpbSpace(1), 0, 8, /*write=*/true, false, 40);
  EXPECT_TRUE(c.reports().empty());
  EXPECT_EQ(c.accessesChecked(), 4u);
}

TEST(DrfChecker, ExemptRangeSuppressesChecking) {
  drf::DrfChecker c = makeChecker();
  c.addShmExemptRange(0, 64);
  c.access(0, drf::kSpaceShm, 8, 8, /*write=*/true, false, 10);
  c.access(1, drf::kSpaceShm, 8, 8, /*write=*/true, false, 20);
  EXPECT_TRUE(c.reports().empty());
  // Outside the exemption the same pair still races.
  c.access(0, drf::kSpaceShm, 64, 8, /*write=*/true, false, 30);
  c.access(1, drf::kSpaceShm, 64, 8, /*write=*/true, false, 40);
  EXPECT_EQ(c.reports().size(), 1u);
}

TEST(DrfChecker, ExemptRangeClipsStraddlingAccess) {
  // Exempt [64, 128). An access is checked on its non-exempt bytes only,
  // whichever side of the exemption it starts on.
  drf::DrfChecker c = makeChecker();
  c.addShmExemptRange(64, 128);
  // Starts before the range and runs into it: only words 32..56 race.
  c.access(0, drf::kSpaceShm, 32, 64, /*write=*/true, false, 10);
  EXPECT_EQ(c.access(1, drf::kSpaceShm, 32, 64, /*write=*/true, false, 20), 4u);
  // Starts inside the range and runs past it: words 128..152 still race.
  c.access(0, drf::kSpaceShm, 96, 64, /*write=*/true, false, 30);
  EXPECT_EQ(c.access(1, drf::kSpaceShm, 96, 64, /*write=*/true, false, 40), 4u);
  ASSERT_EQ(c.reports().size(), 8u);
  const std::uint64_t granules[] = {32, 40, 48, 56, 128, 136, 144, 152};
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(c.reports()[i].granule_begin, granules[i]) << i;
  }
  // A wholly exempt access is not counted as checked.
  c.access(0, drf::kSpaceShm, 64, 64, /*write=*/true, false, 50);
  EXPECT_EQ(c.accessesChecked(), 4u);
}

TEST(DrfChecker, ReportsCarryRegionNameAndFormat) {
  drf::DrfChecker c = makeChecker();
  c.registerRegion("result_slots", 0, 128);
  c.access(0, drf::kSpaceShm, 16, 8, /*write=*/true, false, 10);
  c.access(1, drf::kSpaceShm, 16, 8, /*write=*/true, false, 20);
  ASSERT_EQ(c.reports().size(), 1u);
  EXPECT_EQ(c.reports()[0].region, "result_slots");
  const std::string line = c.reports()[0].format();
  EXPECT_NE(line.find("write-write"), std::string::npos);
  EXPECT_NE(line.find("result_slots"), std::string::npos);
  EXPECT_EQ(c.formatReports(), line + "\n");
}

TEST(DrfChecker, ResetExecutionStateKeepsAddressSpaceFacts) {
  drf::DrfChecker c = makeChecker();
  c.addShmExemptRange(0, 32);
  c.registerRegion("arr", 32, 96);
  c.access(0, drf::kSpaceShm, 40, 8, /*write=*/true, false, 10);
  c.access(1, drf::kSpaceShm, 40, 8, /*write=*/true, false, 20);
  EXPECT_EQ(c.reports().size(), 1u);
  c.resetExecutionState();
  EXPECT_TRUE(c.reports().empty());
  EXPECT_EQ(c.accessesChecked(), 0u);
  // Exemption and region name survive the reset; the shadow state does not,
  // so a re-run reports the same race afresh.
  c.registerTask(0, 0);
  c.registerTask(1, 1);
  c.access(0, drf::kSpaceShm, 8, 8, /*write=*/true, false, 10);
  c.access(1, drf::kSpaceShm, 8, 8, /*write=*/true, false, 20);
  EXPECT_TRUE(c.reports().empty());  // still exempt
  c.access(0, drf::kSpaceShm, 40, 8, /*write=*/true, false, 30);
  c.access(1, drf::kSpaceShm, 40, 8, /*write=*/true, false, 40);
  ASSERT_EQ(c.reports().size(), 1u);
  EXPECT_EQ(c.reports()[0].region, "arr");
}

// --- run-granular shadow vs the per-granule oracle ---------------------------

/// The per-granule checker the run-granular shadow replaced, kept verbatim as
/// the oracle: one hash-map node per granule, checked one granule at a time.
namespace oracle {

using drf::kSpaceShm;
using drf::RaceKind;
using drf::RaceReport;
using drf::Space;
using drf::VectorClock;

class PerGranuleChecker {
 public:
  /// `word_granular`: check words even on cached ranges (the future
  /// contract). `line_bytes`/`word_bytes`: the machine's cache line and
  /// shared-memory transaction sizes.
  void configure(bool word_granular, std::size_t line_bytes, std::size_t word_bytes);

  /// Map `task` to a UE/thread id for reporting and give it a fresh clock.
  /// Tasks spawn from untimed host context, so siblings start mutually
  /// concurrent (C_t = {t: 1}) — exactly pthread_create's guarantee that
  /// only data the parent wrote BEFORE the spawn is visible, which the
  /// simulator realizes as untimed (unchecked) host initialization.
  void registerTask(std::size_t task, int ue);

  /// Exempt [begin, end) of shared DRAM from checking — for deliberate
  /// benign races (e.g. idempotent last-writer-wins stores of canonical
  /// values). Newest registration wins on overlap, mirroring the machine's
  /// cacheability map.
  void addShmExemptRange(std::uint64_t begin, std::uint64_t end);

  /// Name [begin, end) of shared DRAM for reports.
  void registerRegion(std::string name, std::uint64_t begin, std::uint64_t end);

  // -- happens-before edges (driven by the machine's sync objects) --
  void acquire(std::size_t task, std::uint64_t sync);
  void release(std::size_t task, std::uint64_t sync);
  /// All of `tasks` arrived at a barrier whose release is now: join every
  /// participant's clock and redistribute.
  void barrierRelease(const std::size_t* tasks, std::size_t count);

  /// Check one logical access. `cached` selects the line-granular contract
  /// for this range (ignored in word-granular mode). Returns the number of
  /// NEW reports appended (0 almost always), so callers can emit trace
  /// instants without scanning.
  std::size_t access(std::size_t task, Space space, std::uint64_t offset,
                     std::size_t bytes, bool write, bool cached, Tick tick);

  [[nodiscard]] const std::vector<RaceReport>& reports() const { return reports_; }
  [[nodiscard]] std::uint64_t accessesChecked() const { return accesses_checked_; }
  [[nodiscard]] bool wordGranular() const { return word_granular_; }

  /// All reports, one format() line each — the byte-identity oracle the
  /// determinism tests compare across coalescing modes.
  [[nodiscard]] std::string formatReports() const;

  /// Drop shadow state, clocks, and reports (exempt ranges and regions
  /// stay — they describe the address space, not the execution).
  void resetExecutionState();

 private:
  struct AccessInfo {
    std::uint32_t clock = 0;  ///< 0 = no access recorded (clocks start at 1)
    std::uint32_t task = 0;
    Tick tick = 0;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
  };

  struct Shadow {
    AccessInfo write;
    AccessInfo read;  ///< exclusive-reader epoch (the FastTrack fast path)
    /// Concurrent readers, task-ascending; non-empty iff the read side
    /// inflated. Bounded by the task count, but only granules that are
    /// genuinely read-shared pay for it.
    std::vector<AccessInfo> shared_reads;
    bool reported = false;
  };

  struct Range {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    bool exempt = false;
  };

  struct Region {
    std::string name;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };

  [[nodiscard]] VectorClock& clockOf(std::size_t task);
  [[nodiscard]] bool shmExempt(std::uint64_t offset) const;
  [[nodiscard]] std::string regionNameAt(std::uint64_t offset) const;
  void report(RaceKind kind, std::uint32_t space, std::uint64_t granule_begin,
              std::size_t granule_bytes, bool line_granular, const AccessInfo& prior,
              bool prior_write, const AccessInfo& current, bool current_write);
  /// One granule of one access.
  void checkGranule(std::size_t task, const VectorClock& clock, std::uint32_t space,
                    std::uint64_t key, std::uint64_t granule_begin,
                    std::size_t granule_bytes, bool line_granular, std::uint64_t lo,
                    std::uint64_t hi, bool write, Tick tick);

  bool word_granular_ = false;
  std::size_t line_bytes_ = 32;
  std::size_t word_bytes_ = 8;

  std::vector<VectorClock> task_clocks_;
  std::vector<int> task_ue_;
  /// Sync-object clocks indexed by the engine's sequential sync ids.
  std::vector<VectorClock> sync_clocks_;
  /// Shadow granules keyed by (space, contract granularity, granule index).
  /// The granularity bit keeps a line-checked granule and a word-checked
  /// granule of the same bytes from colliding (a range's cacheability can
  /// change between launches).
  std::unordered_map<std::uint64_t, Shadow> shadow_;
  std::vector<Range> shm_exempt_;
  std::vector<Region> regions_;
  std::vector<RaceReport> reports_;
  std::uint64_t accesses_checked_ = 0;
  std::size_t pending_reports_ = 0;  ///< new reports in the current access()
};

void PerGranuleChecker::configure(bool word_granular, std::size_t line_bytes,
                           std::size_t word_bytes) {
  word_granular_ = word_granular;
  if (line_bytes > 0) line_bytes_ = line_bytes;
  if (word_bytes > 0) word_bytes_ = word_bytes;
}

void PerGranuleChecker::registerTask(std::size_t task, int ue) {
  VectorClock& clock = clockOf(task);
  (void)clock;
  task_ue_[task] = ue;
}

void PerGranuleChecker::addShmExemptRange(std::uint64_t begin, std::uint64_t end) {
  if (end <= begin) return;
  shm_exempt_.push_back(Range{begin, end, true});
}

void PerGranuleChecker::registerRegion(std::string name, std::uint64_t begin,
                                std::uint64_t end) {
  if (end <= begin) return;
  regions_.push_back(Region{std::move(name), begin, end});
}

void PerGranuleChecker::acquire(std::size_t task, std::uint64_t sync) {
  if (sync < sync_clocks_.size()) clockOf(task).join(sync_clocks_[sync]);
}

void PerGranuleChecker::release(std::size_t task, std::uint64_t sync) {
  VectorClock& clock = clockOf(task);
  if (sync >= sync_clocks_.size()) sync_clocks_.resize(sync + 1);
  sync_clocks_[sync] = clock;
  clock.bump(task);
}

void PerGranuleChecker::barrierRelease(const std::size_t* tasks, std::size_t count) {
  VectorClock joined;
  for (std::size_t i = 0; i < count; ++i) joined.join(clockOf(tasks[i]));
  for (std::size_t i = 0; i < count; ++i) {
    VectorClock& clock = clockOf(tasks[i]);
    clock = joined;
    clock.bump(tasks[i]);
  }
}

std::size_t PerGranuleChecker::access(std::size_t task, std::uint32_t space,
                               std::uint64_t offset, std::size_t bytes, bool write,
                               bool cached, Tick tick) {
  if (bytes == 0) return 0;
  if (space == kSpaceShm && shmExempt(offset)) return 0;
  ++accesses_checked_;
  pending_reports_ = 0;
  const VectorClock& clock = clockOf(task);
  // Contract granularity: cached shared DRAM is line-granular unless the
  // word-granular (future-contract) mode is on; everything else — uncached
  // words, MPB chunks, private process memory — is word-granular always.
  const bool line = !word_granular_ && cached && space == kSpaceShm;
  const std::uint64_t granule =
      static_cast<std::uint64_t>(line ? line_bytes_ : word_bytes_);
  const std::uint64_t end = offset + bytes;
  for (std::uint64_t gbegin = offset - offset % granule; gbegin < end;
       gbegin += granule) {
    const std::uint64_t lo = std::max(gbegin, offset);
    const std::uint64_t hi = std::min(gbegin + granule, end);
    const std::uint64_t key = (static_cast<std::uint64_t>(space) << 40) |
                              (static_cast<std::uint64_t>(line) << 39) |
                              (gbegin / granule);
    checkGranule(task, clock, space, key, gbegin,
                 static_cast<std::size_t>(granule), line, lo, hi, write, tick);
  }
  return pending_reports_;
}

std::string PerGranuleChecker::formatReports() const {
  std::ostringstream out;
  for (const RaceReport& r : reports_) out << r.format() << '\n';
  return out.str();
}

void PerGranuleChecker::resetExecutionState() {
  task_clocks_.clear();
  task_ue_.clear();
  sync_clocks_.clear();
  shadow_.clear();
  reports_.clear();
  accesses_checked_ = 0;
  pending_reports_ = 0;
}

VectorClock& PerGranuleChecker::clockOf(std::size_t task) {
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

bool PerGranuleChecker::shmExempt(std::uint64_t offset) const {
  for (auto it = shm_exempt_.rbegin(); it != shm_exempt_.rend(); ++it) {
    if (offset >= it->begin && offset < it->end) return it->exempt;
  }
  return false;
}

std::string PerGranuleChecker::regionNameAt(std::uint64_t offset) const {
  for (auto it = regions_.rbegin(); it != regions_.rend(); ++it) {
    if (offset >= it->begin && offset < it->end) return it->name;
  }
  return {};
}

void PerGranuleChecker::report(RaceKind kind, std::uint32_t space,
                        std::uint64_t granule_begin, std::size_t granule_bytes,
                        bool line_granular, const AccessInfo& prior, bool prior_write,
                        const AccessInfo& current, bool current_write) {
  RaceReport r;
  r.kind = kind;
  r.space = space;
  r.granule_begin = granule_begin;
  r.granule_bytes = static_cast<std::uint32_t>(granule_bytes);
  r.line_granular = line_granular;
  r.prior.task = prior.task;
  r.prior.ue = prior.task < task_ue_.size() ? task_ue_[prior.task] : -1;
  r.prior.tick = prior.tick;
  r.prior.write = prior_write;
  r.prior.lo = prior.lo;
  r.prior.hi = prior.hi;
  r.current.task = current.task;
  r.current.ue = current.task < task_ue_.size() ? task_ue_[current.task] : -1;
  r.current.tick = current.tick;
  r.current.write = current_write;
  r.current.lo = current.lo;
  r.current.hi = current.hi;
  r.false_sharing =
      r.line_granular && (prior.hi <= current.lo || current.hi <= prior.lo);
  if (space == kSpaceShm) r.region = regionNameAt(granule_begin);
  reports_.push_back(std::move(r));
  ++pending_reports_;
}

void PerGranuleChecker::checkGranule(std::size_t task, const VectorClock& clock,
                              std::uint32_t space, std::uint64_t key,
                              std::uint64_t granule_begin, std::size_t granule_bytes,
                              bool line_granular, std::uint64_t lo, std::uint64_t hi,
                              bool write, Tick tick) {
  Shadow& s = shadow_[key];
  const AccessInfo cur{clock.get(task), static_cast<std::uint32_t>(task), tick, lo,
                       hi};
  const auto races_with = [&clock, task](const AccessInfo& prior) {
    return prior.clock != 0 && prior.task != task &&
           !clock.covers(prior.clock, prior.task);
  };
  // First conflict per granule only: a hot racy word must not flood the
  // report list, and downstream consumers (trace instants, counters) want
  // distinct races, not iterations.
  if (!s.reported) {
    if (races_with(s.write)) {
      report(write ? RaceKind::kWriteWrite : RaceKind::kWriteRead, space,
             granule_begin, granule_bytes, line_granular, s.write,
             /*prior_write=*/true, cur, write);
      s.reported = true;
    }
    if (!s.reported && write) {
      if (s.shared_reads.empty()) {
        if (races_with(s.read)) {
          report(RaceKind::kReadWrite, space, granule_begin, granule_bytes,
                 line_granular, s.read, /*prior_write=*/false, cur,
                 /*current_write=*/true);
          s.reported = true;
        }
      } else {
        // Inflated read side: every concurrent reader must be ordered
        // before this write. Task-ascending scan keeps the reported reader
        // deterministic.
        for (const AccessInfo& r : s.shared_reads) {
          if (races_with(r)) {
            report(RaceKind::kReadWrite, space, granule_begin, granule_bytes,
                   line_granular, r, /*prior_write=*/false, cur,
                   /*current_write=*/true);
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
      [](const AccessInfo& a, std::uint32_t t) { return a.task < t; });
  if (it != s.shared_reads.end() && it->task == cur.task) {
    *it = cur;
  } else {
    s.shared_reads.insert(it, cur);
  }
}

}  // namespace oracle

/// splitmix64: the seeded stream behind the oracle comparison.
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t x = (state += 0x9E3779B97F4A7C15ULL);
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// Drive both checkers with one seeded stream of sync edges and accesses and
/// require identical answers at every step.
void compareWithOracle(std::uint64_t seed) {
  SplitMix64 rng{seed};
  const std::size_t tasks = 2 + rng.below(7);
  const bool word_granular = rng.below(2) == 0;
  // Racy streams rarely synchronize; the rest mostly do.
  const bool racy = rng.below(2) == 0;
  drf::DrfChecker run;
  oracle::PerGranuleChecker ref;
  run.configure(word_granular, 32, 8);
  ref.configure(word_granular, 32, 8);
  const auto register_tasks = [&] {
    for (std::size_t t = 0; t < tasks; ++t) {
      run.registerTask(t, static_cast<int>(t) + 3);
      ref.registerTask(t, static_cast<int>(t) + 3);
    }
  };
  register_tasks();
  // Exempt ranges on 512 B blocks; accesses are cut at their boundaries so
  // the oracle's first-byte rule and the run checker's clipping agree.
  std::vector<std::uint64_t> exempt_edges;
  for (std::uint64_t i = rng.below(3); i > 0; --i) {
    const std::uint64_t begin = rng.below(16) * 512;
    const std::uint64_t end = begin + (1 + rng.below(2)) * 512;
    run.addShmExemptRange(begin, end);
    ref.addShmExemptRange(begin, end);
    exempt_edges.push_back(begin);
    exempt_edges.push_back(end);
  }
  for (std::uint64_t i = rng.below(4); i > 0; --i) {
    const std::uint64_t begin = rng.below(8192);
    const std::uint64_t end = begin + 1 + rng.below(4096);
    const std::string name = "region" + std::to_string(i);
    run.registerRegion(name, begin, end);
    ref.registerRegion(name, begin, end);
  }
  std::vector<std::size_t> all(tasks);
  for (std::size_t t = 0; t < tasks; ++t) all[t] = t;
  struct Shape {
    drf::Space space;
    std::uint64_t offset;
    std::uint64_t bytes;
    bool cached;
  };
  std::vector<Shape> recent;
  Tick tick = 0;
  for (int op = 0; op < 200; ++op) {
    const std::size_t task = rng.below(tasks);
    const std::uint64_t kind = rng.below(100);
    const std::uint64_t sync_pct = racy ? 4 : 30;
    if (kind < sync_pct) {
      const std::uint64_t sync = rng.below(4);
      switch (rng.below(4)) {
        case 0:
          run.acquire(task, sync);
          ref.acquire(task, sync);
          break;
        case 1:
          run.release(task, sync);
          ref.release(task, sync);
          break;
        case 2:
          run.barrierRelease(all.data(), all.size());
          ref.barrierRelease(all.data(), all.size());
          break;
        default: {
          const std::size_t count = 1 + rng.below(tasks);
          run.barrierRelease(all.data() + (tasks - count), count);
          ref.barrierRelease(all.data() + (tasks - count), count);
          break;
        }
      }
      continue;
    }
    if (kind == 99 && rng.below(4) == 0) {
      ASSERT_EQ(run.formatReports(), ref.formatReports()) << "seed " << seed;
      run.resetExecutionState();
      ref.resetExecutionState();
      register_tasks();
      continue;
    }
    Shape shape;
    if (!recent.empty() && rng.below(10) < 4) {
      // Re-touch a recent range: the same-shape traffic runs are built for.
      shape = recent[rng.below(recent.size())];
    } else {
      const std::uint64_t space_pick = rng.below(10);
      shape.space = space_pick < 6   ? drf::kSpaceShm
                    : space_pick < 8 ? drf::kSpacePriv
                                     : drf::mpbSpace(static_cast<int>(rng.below(3)));
      shape.cached = rng.below(2) == 0;
      const std::uint64_t granule =
          !word_granular && shape.cached && shape.space == drf::kSpaceShm ? 32 : 8;
      const std::uint64_t granules = rng.below(2) == 0 ? 1 + rng.below(8)
                                                       : 1 + rng.below(300);
      shape.offset = rng.below(8192);
      if (rng.below(2) == 0) shape.offset -= shape.offset % granule;
      shape.bytes = granules * granule;
      if (rng.below(2) == 0) shape.bytes -= rng.below(granule);
      if (shape.space == drf::kSpaceShm) {
        for (const std::uint64_t edge : exempt_edges) {
          if (shape.offset < edge && edge < shape.offset + shape.bytes) {
            shape.bytes = edge - shape.offset;
          }
        }
      }
      recent.push_back(shape);
    }
    const bool write = rng.below(3) == 0;
    tick += rng.below(3) == 0 ? 0 : 1 + rng.below(50);
    ASSERT_EQ(run.access(task, shape.space, shape.offset, shape.bytes, write,
                         shape.cached, tick),
              ref.access(task, shape.space, shape.offset, shape.bytes, write,
                         shape.cached, tick))
        << "seed " << seed << " op " << op;
  }
  EXPECT_EQ(run.formatReports(), ref.formatReports()) << "seed " << seed;
  EXPECT_EQ(run.accessesChecked(), ref.accessesChecked()) << "seed " << seed;
}

TEST(DrfChecker, RunShadowMatchesPerGranuleOracle) {
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    compareWithOracle(seed);
    if (HasFatalFailure()) return;
  }
}

TEST(DrfChecker, RunCountIndependentOfChunkLength) {
  // 32 tasks each write (in 64 B pieces at one Tick) and re-read their own
  // chunk, meet at a barrier, then every task reads everything: one run per
  // chunk, however long the chunk. A final write of everything leaves one.
  const auto runs_for = [](std::uint64_t chunk_bytes) {
    drf::DrfChecker c;
    c.configure(/*word_granular=*/false, 32, 8);
    std::vector<std::size_t> all;
    for (std::size_t t = 0; t < 32; ++t) {
      c.registerTask(t, static_cast<int>(t));
      all.push_back(t);
    }
    Tick tick = 0;
    for (std::size_t t = 0; t < 32; ++t) {
      ++tick;
      for (std::uint64_t piece = 0; piece < chunk_bytes; piece += 64) {
        c.access(t, drf::kSpaceShm, t * chunk_bytes + piece, 64, true, false, tick);
      }
      c.access(t, drf::kSpaceShm, t * chunk_bytes, chunk_bytes, false, false, ++tick);
    }
    c.barrierRelease(all.data(), all.size());
    for (std::size_t t = 0; t < 32; ++t) {
      c.access(t, drf::kSpaceShm, 0, 32 * chunk_bytes, false, false, ++tick);
    }
    const std::size_t runs = c.shadowRuns();
    c.barrierRelease(all.data(), all.size());
    c.access(0, drf::kSpaceShm, 0, 32 * chunk_bytes, true, false, ++tick);
    EXPECT_EQ(c.shadowRuns(), 1u);
    EXPECT_TRUE(c.reports().empty());
    return runs;
  };
  EXPECT_EQ(runs_for(512), 32u);
  EXPECT_EQ(runs_for(1024), 32u);
}

// --- machine integration -----------------------------------------------------

sim::SimTask racyIncrement(sim::CoreContext& ctx, std::uint64_t off, int iters) {
  const auto ue = static_cast<std::uint64_t>(ctx.ue());
  for (int i = 0; i < iters; ++i) {
    co_await ctx.compute(500 + ue * 333);
    std::uint64_t v = 0;
    co_await ctx.shmRead(off, &v, sizeof(v));
    ++v;
    co_await ctx.shmWrite(off, &v, sizeof(v));
  }
}

sim::SimTask lockedIncrement(sim::CoreContext& ctx, std::uint64_t off, int iters) {
  const auto ue = static_cast<std::uint64_t>(ctx.ue());
  for (int i = 0; i < iters; ++i) {
    co_await ctx.compute(500 + ue * 333);
    co_await ctx.lockAcquire(0);
    std::uint64_t v = 0;
    co_await ctx.shmRead(off, &v, sizeof(v));
    ++v;
    co_await ctx.shmWrite(off, &v, sizeof(v));
    co_await ctx.lockRelease(0);
  }
}

sim::SimTask barrierPublish(sim::CoreContext& ctx, std::uint64_t base, int rounds) {
  const auto ue = static_cast<std::uint64_t>(ctx.ue());
  const int ues = ctx.numUes();
  for (int r = 0; r < rounds; ++r) {
    std::uint64_t v = ue + static_cast<std::uint64_t>(r);
    co_await ctx.shmWrite(base + ue * 64, &v, sizeof(v));
    co_await ctx.barrier();
    // Read the LEFT neighbour's slot — ordered only by the barrier.
    const auto left = static_cast<std::uint64_t>((ctx.ue() + ues - 1) % ues);
    co_await ctx.shmRead(base + left * 64, &v, sizeof(v));
    co_await ctx.barrier();
  }
}

struct MachineRun {
  Tick makespan = 0;
  std::vector<Tick> completions;
  std::uint64_t events = 0;
  std::uint64_t races = 0;
  std::string reports;
};

template <typename Setup>
MachineRun runMachine(const SccConfig& cfg, int ues, Setup setup) {
  SccMachine m(cfg);
  setup(m);
  MachineRun r;
  r.makespan = m.run();
  for (int ue = 0; ue < ues; ++ue) {
    r.completions.push_back(m.engine().completionTime(static_cast<std::size_t>(ue)));
  }
  r.events = m.engine().eventsProcessed();
  if (m.drfEnabled()) {
    r.races = m.drfChecker().reports().size();
    r.reports = m.drfChecker().formatReports();
  }
  return r;
}

TEST(DrfMachine, RacyKernelReportedSyncedKernelsClean) {
  SccConfig cfg;
  cfg.drf_check = true;
  const auto racy = [](SccMachine& m) {
    const std::uint64_t off = m.shmalloc(64);
    m.launch(sim::LaunchSpec(4, [=](sim::CoreContext& ctx) {
      return racyIncrement(ctx, off, 3);
    }));
  };
  const auto locked = [](SccMachine& m) {
    const std::uint64_t off = m.shmalloc(64);
    m.launch(sim::LaunchSpec(4, [=](sim::CoreContext& ctx) {
      return lockedIncrement(ctx, off, 3);
    }));
  };
  const auto barriered = [](SccMachine& m) {
    const std::uint64_t base = m.shmalloc(4 * 64);
    m.launch(sim::LaunchSpec(4, [=](sim::CoreContext& ctx) {
      return barrierPublish(ctx, base, 3);
    }));
  };
  EXPECT_GT(runMachine(cfg, 4, racy).races, 0u);
  EXPECT_EQ(runMachine(cfg, 4, locked).races, 0u);
  EXPECT_EQ(runMachine(cfg, 4, barriered).races, 0u);
}

/// Deposit 32 bytes into `slot` of UE 0's MPB after a UE-skewed compute.
/// A named coroutine, not a capturing lambda: the frame owns `slot`, where a
/// lambda's captures would die with the lambda before the task resumes.
sim::SimTask depositToUe0(sim::CoreContext& ctx, std::uint64_t slot) {
  std::uint8_t buf[32] = {};
  co_await ctx.compute(100 + static_cast<std::uint64_t>(ctx.ue()) * 77);
  co_await rcce::put(ctx, 0, slot, buf, sizeof(buf));
}

TEST(DrfMachine, RacyMpbPutsReported) {
  // Two UEs deposit into the SAME slot of UE 0's MPB with no ordering edge.
  SccConfig cfg;
  cfg.drf_check = true;
  const auto setup = [](SccMachine& m) {
    rcce::RcceEnv env(m);
    const std::uint64_t slot = env.mpbMallocSymmetric(2, 64);
    m.launch(sim::LaunchSpec(2, [=](sim::CoreContext& ctx) {
      return depositToUe0(ctx, slot);
    }));
  };
  EXPECT_GT(runMachine(cfg, 2, setup).races, 0u);
}

TEST(DrfMachine, ReportsByteIdenticalAcrossCoalescingModes) {
  const auto setup = [](SccMachine& m) {
    const std::uint64_t off = m.shmalloc(64);
    m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
      return racyIncrement(ctx, off, 3);
    }));
  };
  SccConfig base;
  base.drf_check = true;
  const MachineRun ref = runMachine(base, 8, setup);
  EXPECT_GT(ref.races, 0u);

  for (const bool coalescing : {true, false}) {
    SccConfig cfg;
    cfg.drf_check = true;
    cfg.coalescing = coalescing;
    const MachineRun run = runMachine(cfg, 8, setup);
    EXPECT_EQ(run.reports, ref.reports) << "coalescing=" << coalescing;
    EXPECT_EQ(run.makespan, ref.makespan);
    EXPECT_EQ(run.completions, ref.completions);
  }
}

// The checker, the trace recorder and the region profiles observe without
// costing an event: computes fold into the lag the same way with them on, so
// an observed run processes the same events as a plain one (the pipeline
// benchmark's observed workload fingerprints the event counters), while the
// checks of accesses issued ahead of a lag's end still run in the reference
// order (ReportsByteIdenticalAcrossCoalescingModes).
TEST(DrfMachine, ObserversCostNoEvent) {
  const auto setup = [](SccMachine& m) {
    const std::uint64_t off = m.shmalloc(64);
    m.addShmRegion({.begin = off, .end = off + 64, .name = "counter"});
    m.launch(sim::LaunchSpec(8, [=](sim::CoreContext& ctx) {
      return racyIncrement(ctx, off, 3);
    }));
  };
  SccConfig observed;
  observed.drf_check = true;
  observed.trace_enabled = true;
  observed.region_metrics = true;
  const MachineRun plain = runMachine(SccConfig{}, 8, setup);
  const MachineRun seen = runMachine(observed, 8, setup);
  EXPECT_GT(seen.races, 0u);
  EXPECT_EQ(seen.makespan, plain.makespan);
  EXPECT_EQ(seen.completions, plain.completions);
  EXPECT_EQ(seen.events, plain.events);
}

TEST(DrfMachine, EnablingCheckerMovesNoTick) {
  const auto setup = [](SccMachine& m) {
    const std::uint64_t base = m.shmalloc(4 * 64);
    m.launch(sim::LaunchSpec(4, [=](sim::CoreContext& ctx) {
      return barrierPublish(ctx, base, 4);
    }));
  };
  SccConfig off;
  SccConfig on;
  on.drf_check = true;
  const MachineRun r_off = runMachine(off, 4, setup);
  const MachineRun r_on = runMachine(on, 4, setup);
  EXPECT_EQ(r_on.makespan, r_off.makespan);
  EXPECT_EQ(r_on.completions, r_off.completions);
  // Word-granular mode must not move a Tick either.
  SccConfig word;
  word.drf_check = true;
  word.drf_word_granular = true;
  const MachineRun r_word = runMachine(word, 4, setup);
  EXPECT_EQ(r_word.makespan, r_off.makespan);
  EXPECT_EQ(r_word.completions, r_off.completions);
}

/// Write the UE's own 8-byte slot of `base` once (slots pack four to a line).
sim::SimTask writeOwnSlot(sim::CoreContext& ctx, std::uint64_t base) {
  const auto ue = static_cast<std::uint64_t>(ctx.ue());
  std::uint64_t v = ue;
  co_await ctx.compute(200 + ue * 111);
  co_await ctx.shmWrite(base + ue * 8, &v, sizeof(v));
}

TEST(DrfMachine, CachedSlotsFalseShareLineModeOnly) {
  const auto setup = [](SccMachine& m) {
    const std::uint64_t base = m.shmalloc(64);
    m.addShmRegion({.begin = base, .end = base + 64, .cached = true});
    m.launch(sim::LaunchSpec(4, [=](sim::CoreContext& ctx) {
      return writeOwnSlot(ctx, base);
    }));
  };
  SccConfig line;
  line.drf_check = true;
  const MachineRun r_line = runMachine(line, 4, setup);
  EXPECT_GT(r_line.races, 0u);
  EXPECT_NE(r_line.reports.find("FALSE-SHARING"), std::string::npos);

  SccConfig word = line;
  word.drf_word_granular = true;
  EXPECT_EQ(runMachine(word, 4, setup).races, 0u);
}

// --- threadrt integration ----------------------------------------------------

sim::SimTask racyThread(threadrt::ThreadContext& ctx, std::uint64_t addr) {
  long long v = 0;
  co_await ctx.compute(100 + static_cast<std::uint64_t>(ctx.tid()) * 50);
  co_await ctx.memRead(addr, &v, sizeof(v));
  v += 1;
  co_await ctx.memWrite(addr, &v, sizeof(v));
}

sim::SimTask mutexedThread(threadrt::ThreadContext& ctx, std::uint64_t addr) {
  co_await ctx.compute(100 + static_cast<std::uint64_t>(ctx.tid()) * 50);
  co_await ctx.lockAcquire(0);
  long long v = 0;
  co_await ctx.memRead(addr, &v, sizeof(v));
  v += 1;
  co_await ctx.memWrite(addr, &v, sizeof(v));
  co_await ctx.lockRelease(0);
}

TEST(DrfThreadrt, UnlockedSharedCounterRacesEvenWhenSerialized) {
  // One core serializes the threads in TIME, but pthread semantics have no
  // happens-before edge without a sync op — still a race.
  SccConfig cfg;
  cfg.drf_check = true;
  threadrt::SingleCoreRuntime rt(cfg);
  rt.machine().reservePrivate(0, 64);
  std::memset(rt.machine().privData(0, 0), 0, 8);
  rt.launch(4, [](threadrt::ThreadContext& ctx) { return racyThread(ctx, 0); });
  rt.run();
  EXPECT_GT(rt.machine().drfChecker().reports().size(), 0u);
}

TEST(DrfThreadrt, MutexedSharedCounterClean) {
  SccConfig cfg;
  cfg.drf_check = true;
  threadrt::SingleCoreRuntime rt(cfg);
  rt.machine().reservePrivate(0, 64);
  std::memset(rt.machine().privData(0, 0), 0, 8);
  rt.launch(4, [](threadrt::ThreadContext& ctx) { return mutexedThread(ctx, 0); });
  rt.run();
  EXPECT_TRUE(rt.machine().drfChecker().reports().empty());
}

// --- sharing-table lint ------------------------------------------------------

// A thread function WRITES a shared array; the program has no barrier and no
// mutex, so no release point exists anywhere.
const char* const kNoSyncSource = R"(#include <pthread.h>

int sum[4] = {0};

void *tf(void *tid) {
    int t = (int)tid;
    sum[t] += t;
    pthread_exit(0);
}

int main() {
    pthread_t threads[4];
    int i;
    for (i = 0; i < 4; i++) {
        pthread_create(&threads[i], 0, tf, (void *)i);
    }
    for (i = 0; i < 4; i++) {
        pthread_join(threads[i], 0);
    }
    return 0;
}
)";

TEST(DrfLint, CachedThreadWrittenRegionWithoutSyncEdges) {
  translator::Translator tr;
  const translator::TranslationResult r = tr.analyzeOnly(kNoSyncSource, "nosync.c");
  ASSERT_TRUE(r.ok) << r.diagnostics;

  // Force the pathological plan the derivation would never emit: the
  // thread-written array in a swcache-cached region.
  const partition::ExecutionPlan bad{{partition::RegionPlan{
      "sum", partition::PlacementClass::kOffChipCached, partition::MpbPattern::kNone,
      16}}};
  const partition::LintResult lint = partition::lintSharingTables(r.analysis, bad);
  EXPECT_FALSE(lint.ok());
  bool saw_rule_a = false;
  bool saw_rule_c = false;
  for (const partition::LintFinding& f : lint.findings) {
    saw_rule_a = saw_rule_a ||
                 f.rule == partition::LintFinding::Rule::kCachedThreadWrittenNoSync;
    // 16 B is not a multiple of the 32 B line: the alignment rule fires too.
    saw_rule_c =
        saw_rule_c || f.rule == partition::LintFinding::Rule::kCachedNotLineAligned;
  }
  EXPECT_TRUE(saw_rule_a);
  EXPECT_TRUE(saw_rule_c);
}

// The cached rules judge the class a run without on-chip placement
// realizes too: a staged region whose off-chip class is cached is a cached
// region there. 32 B is line-aligned, so only rule (a) fires.
TEST(DrfLint, CachedOffChipClassOnThreadWrittenRegionWithoutSyncEdges) {
  translator::Translator tr;
  const translator::TranslationResult r = tr.analyzeOnly(kNoSyncSource, "nosync.c");
  ASSERT_TRUE(r.ok) << r.diagnostics;
  partition::RegionPlan sum{"sum", partition::PlacementClass::kOnChipStaged,
                            partition::MpbPattern::kSelfStage, 32};
  sum.offchip = partition::PlacementClass::kOffChipCached;
  const partition::LintResult lint =
      partition::lintSharingTables(r.analysis, partition::ExecutionPlan{{sum}});
  ASSERT_EQ(lint.findings.size(), 1u) << lint.format();
  EXPECT_EQ(lint.findings[0].rule,
            partition::LintFinding::Rule::kCachedThreadWrittenNoSync);
  // The same region with the default (uncached) off-chip class is clean.
  sum.offchip = partition::PlacementClass::kOffChipUncached;
  EXPECT_TRUE(
      partition::lintSharingTables(r.analysis, partition::ExecutionPlan{{sum}}).ok());
}

// A cached off-chip class must be a whole number of lines, in both lints;
// an off-chip class that is itself on-chip is rejected by both.
TEST(DrfLint, OffChipClassIsLintedLikeAPlacement) {
  using partition::ExecutionPlan;
  using partition::LintFinding;
  using partition::MpbPattern;
  using partition::PlacementClass;
  using partition::RegionPlan;
  translator::Translator tr;
  const translator::TranslationResult r = tr.analyzeOnly(
      workloads::pthreadSource("DotProduct"), "DotProduct.c");
  ASSERT_TRUE(r.ok) << r.diagnostics;
  RegionPlan a = *r.execution_plan.find("a");
  ASSERT_EQ(a.offchip, PlacementClass::kOffChipCached);
  a.bytes = 48;
  for (const partition::LintResult& lint :
       {partition::lintSharingTables(r.analysis, ExecutionPlan{{a}}),
        partition::lintExecutionPlan(ExecutionPlan{{a}})}) {
    ASSERT_EQ(lint.findings.size(), 1u) << lint.format();
    EXPECT_EQ(lint.findings[0].rule, LintFinding::Rule::kCachedNotLineAligned);
  }
  a.bytes = 64;
  a.offchip = PlacementClass::kOnChipResident;
  for (const partition::LintResult& lint :
       {partition::lintSharingTables(r.analysis, ExecutionPlan{{a}}),
        partition::lintExecutionPlan(ExecutionPlan{{a}})}) {
    ASSERT_EQ(lint.findings.size(), 1u) << lint.format();
    EXPECT_EQ(lint.findings[0].rule, LintFinding::Rule::kOffChipClassOnChip);
    EXPECT_NE(lint.format().find("offchip-class-on-chip"), std::string::npos);
  }
}

TEST(DrfLint, PlanRegionWithoutSharingTableEntry) {
  translator::Translator tr;
  const translator::TranslationResult r = tr.analyzeOnly(kNoSyncSource, "nosync.c");
  ASSERT_TRUE(r.ok) << r.diagnostics;
  const partition::ExecutionPlan phantom{{partition::RegionPlan{
      "no_such_variable", partition::PlacementClass::kOffChipUncached,
      partition::MpbPattern::kNone, 64}}};
  const partition::LintResult lint =
      partition::lintSharingTables(r.analysis, phantom);
  ASSERT_EQ(lint.findings.size(), 1u);
  EXPECT_EQ(lint.findings[0].rule,
            partition::LintFinding::Rule::kPlacementContradictsSharing);
  EXPECT_EQ(lint.findings[0].region, "no_such_variable");
}

TEST(DrfLint, DerivedPlansOfAllBenchmarksLintClean) {
  // The drf_lint_ok gate of translate_and_run, as a unit test: every paper
  // benchmark's DERIVED plan must pass its own sharing tables.
  for (const std::string& name : workloads::pthreadSourceNames()) {
    translator::Translator tr;
    const translator::TranslationResult r =
        tr.analyzeOnly(workloads::pthreadSource(name), name + ".c");
    ASSERT_TRUE(r.ok) << name << ": " << r.diagnostics;
    const partition::LintResult lint =
        partition::lintSharingTables(r.analysis, r.execution_plan);
    EXPECT_TRUE(lint.ok()) << name << ":\n" << lint.format();
  }
}

TEST(DrfLint, PlanOnlyLintRules) {
  using partition::ExecutionPlan;
  using partition::LintFinding;
  using partition::MpbPattern;
  using partition::PlacementClass;
  using partition::RegionPlan;
  // Clean: uncached regions plus a sized MPB pattern.
  const ExecutionPlan clean{
      {RegionPlan{"a", PlacementClass::kOffChipUncached, MpbPattern::kNone, 64},
       RegionPlan{"b", PlacementClass::kOnChipResident, MpbPattern::kNeighborRing,
                  512}}};
  EXPECT_TRUE(partition::lintExecutionPlan(clean).ok());

  // A pattern on a zero-byte region and an unaligned cached region.
  const ExecutionPlan bad{
      {RegionPlan{"ghost", PlacementClass::kOnChipResident, MpbPattern::kSelfStage,
                  0},
       RegionPlan{"tail", PlacementClass::kOffChipCached, MpbPattern::kNone, 48}}};
  const partition::LintResult lint = partition::lintExecutionPlan(bad);
  ASSERT_EQ(lint.findings.size(), 2u);
  EXPECT_EQ(lint.findings[0].rule, LintFinding::Rule::kPlacementContradictsSharing);
  EXPECT_EQ(lint.findings[1].rule, LintFinding::Rule::kCachedNotLineAligned);
  EXPECT_NE(lint.format().find("cached-not-line-aligned"), std::string::npos);
}

}  // namespace
}  // namespace hsm
