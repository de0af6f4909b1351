// Simulated-time happens-before race detection (docs/race_detection.md).
//
// Every correctness layer in this simulator — swcache release consistency,
// event coalescing — is conditional on the program being data-race-free at
// the granularity the memory model documents. This checker enforces that contract from the inside: a
// vector-clock happens-before detector over the simulator's shared-memory
// accesses, driven by the existing sync hooks (TasLock acquire/release,
// SyncBarrier release, threadrt spawn) and the shm/swcache/MPB access paths.
//
// Design (FastTrack-style epochs, Flanagan & Freund):
//   - Each task t carries a vector clock C_t; C_t[t] starts at 1 and
//     increments at release points, so epochs (clock, tid) name a unique
//     release-delimited interval of t's execution.
//   - Each sync object m carries a clock L_m. Acquire: C_t |= L_m.
//     Release: L_m := C_t, then C_t[t]++. A barrier joins ALL participants'
//     clocks and redistributes the join (then each increments its own
//     entry) — arrivals happen-before every departure.
//   - Shadow state is one write epoch and one read epoch per granule in the
//     common case. Only genuinely concurrent readers inflate the read side
//     into a per-reader list (bounded by the UE count). Granules are stored
//     as RUNS: a range [first, last] of consecutive granules in one state,
//     with each epoch's touched bytes kept relative to its granule. Accesses
//     are long uniform ranges, so an access costs O(log runs + runs touched
//     + readers), not O(granules), and shadow memory grows with the number
//     of distinct access shapes, not with the bytes touched.
//   - Granularity is the CONTRACT granularity: accesses to a swcache-cached
//     range check whole cache lines (two UEs touching different words of
//     one cached line race — false sharing under the line-granular
//     contract), uncached/MPB/private accesses check words. Word-granular
//     mode (the future contract the ROADMAP's per-word dirty-mask swcache
//     needs) checks words everywhere.
//
// Determinism: the checker never reads wall clock or pointers into its
// reports; access hooks fire once per logical operation at its initiation
// Tick, which the coalescing invariant keeps bit-identical across modes,
// and a drf-enabled machine pins the engine to the sequential (time,
// task_id) loop — so the report list (order and bytes) is a deterministic
// function of the program. Reports carry both access sites
// (task/UE/Tick/range) plus region and sync context.
//
// Zero overhead when disabled: SccMachine gates every hook on one cached
// bool (the FaultInjector / TraceRecorder discipline) and the hooks are
// untimed, so drf_check=false runs are bit-identical and drf_check=true
// runs simulate the exact same Ticks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/time.h"

namespace hsm::sim::drf {

/// Address-space tag of a checked access. Shared off-chip DRAM and each
/// owner UE's MPB are distinct address spaces; threadrt's single-core
/// process memory is a third.
using Space = std::uint32_t;
inline constexpr Space kSpaceShm = 0;
inline constexpr Space kSpacePriv = 1;
[[nodiscard]] inline Space mpbSpace(int owner_ue) {
  return 2 + static_cast<Space>(owner_ue);
}
[[nodiscard]] std::string spaceName(Space space);

/// Vector clock over task ids. Sized lazily; absent entries read as 0.
class VectorClock {
 public:
  [[nodiscard]] std::uint32_t get(std::size_t task) const {
    return task < c_.size() ? c_[task] : 0;
  }
  void set(std::size_t task, std::uint32_t value) {
    if (task >= c_.size()) c_.resize(task + 1, 0);
    c_[task] = value;
  }
  void bump(std::size_t task) { set(task, get(task) + 1); }
  /// Pointwise maximum.
  void join(const VectorClock& other) {
    if (other.c_.size() > c_.size()) c_.resize(other.c_.size(), 0);
    for (std::size_t t = 0; t < other.c_.size(); ++t) {
      if (other.c_[t] > c_[t]) c_[t] = other.c_[t];
    }
  }
  /// Epoch (clock, tid) happened-before (or at) this clock?
  [[nodiscard]] bool covers(std::uint32_t clock, std::size_t task) const {
    return clock <= get(task);
  }
  [[nodiscard]] std::size_t size() const { return c_.size(); }

 private:
  std::vector<std::uint32_t> c_;
};

enum class RaceKind : std::uint8_t {
  kWriteWrite = 0,
  kReadWrite,  ///< prior read, racing write
  kWriteRead,  ///< prior write, racing read
};

[[nodiscard]] const char* raceKindName(RaceKind kind);

/// One side of a race: which task touched which bytes, when.
struct RaceSite {
  std::size_t task = 0;
  int ue = -1;  ///< -1 when the task was never registered with a UE
  Tick tick = 0;
  bool write = false;
  std::uint64_t lo = 0;  ///< touched byte range within the granule,
  std::uint64_t hi = 0;  ///< absolute offsets, [lo, hi)
};

/// A detected happens-before violation. First race per granule only — the
/// shadow granule is marked and later conflicts on it are suppressed, so a
/// hot racy word yields one report, not one per iteration.
struct RaceReport {
  RaceKind kind = RaceKind::kWriteWrite;
  std::uint32_t space = kSpaceShm;
  std::uint64_t granule_begin = 0;  ///< byte offset of the checked granule
  std::uint32_t granule_bytes = 0;
  bool line_granular = false;  ///< checked under the cached-line contract
  /// Line-granular race whose two byte ranges do not overlap: the accesses
  /// themselves are disjoint, the CONTRACT granule is what they share.
  bool false_sharing = false;
  RaceSite prior;
  RaceSite current;
  std::string region;  ///< registered region containing the granule, or ""

  /// Deterministic single-line rendering (simulated quantities only).
  [[nodiscard]] std::string format() const;
};

/// The detector. One instance per SccMachine; all methods assume the
/// engine's sequential (time, task_id) execution order.
class DrfChecker {
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
  /// values). Ranges accumulate (their union is exempt); an access that
  /// straddles an exemption boundary is checked on its non-exempt bytes only.
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
  /// Shadow runs currently stored, over every address space.
  [[nodiscard]] std::size_t shadowRuns() const;

  /// All reports, one format() line each — the byte-identity oracle the
  /// determinism tests compare across coalescing modes.
  [[nodiscard]] std::string formatReports() const;

  /// Drop shadow state, clocks, and reports (exempt ranges and regions
  /// stay — they describe the address space, not the execution).
  void resetExecutionState();

 private:
  /// One recorded access of every granule in a run. lo/hi are the touched
  /// bytes RELATIVE to the granule's first byte, so one value describes the
  /// same (full or partial) touch of each granule of the run.
  struct AccessInfo {
    std::uint32_t clock = 0;  ///< 0 = no access recorded (clocks start at 1)
    std::uint32_t task = 0;
    Tick tick = 0;
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    bool operator==(const AccessInfo&) const = default;
  };

  struct Shadow {
    AccessInfo write;
    AccessInfo read;  ///< exclusive-reader epoch (the FastTrack fast path)
    /// Concurrent readers, task-ascending; non-empty iff the read side
    /// inflated. Bounded by the task count, but only granules that are
    /// genuinely read-shared pay for it.
    std::vector<AccessInfo> shared_reads;
    bool reported = false;
    bool operator==(const Shadow&) const = default;
  };

  /// Consecutive granules [first, last] in one Shadow state; keyed by first.
  struct Run {
    std::uint64_t last = 0;
    Shadow state;
  };
  /// Disjoint runs of one (space, granularity); granules in no run were
  /// never touched (default Shadow).
  using RunMap = std::map<std::uint64_t, Run>;

  /// One exempt range of shared DRAM; the list is sorted and disjoint.
  struct Range {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };

  struct Region {
    std::string name;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };

  /// What one access does to its granules, fixed for the whole access.
  struct Touch {
    std::size_t task = 0;
    const VectorClock* clock = nullptr;
    Space space = kSpaceShm;
    bool line = false;
    std::uint64_t granule = 0;
    bool write = false;
    Tick tick = 0;
  };

  [[nodiscard]] VectorClock& clockOf(std::size_t task);
  [[nodiscard]] std::string regionNameAt(std::uint64_t offset) const;
  /// Check the non-exempt byte range [lo, hi) of one access.
  void checkBytes(const Touch& t, std::uint64_t lo, std::uint64_t hi);
  /// Granules [first, last], each touched at relative bytes [lo, hi).
  void checkSegment(const Touch& t, RunMap& runs, std::uint64_t first,
                    std::uint64_t last, std::uint32_t lo, std::uint32_t hi);
  /// One run of identical prior state: the race verdict and the shadow
  /// update are computed once; a race yields one report per granule.
  void checkRun(const Touch& t, Shadow& s, std::uint64_t first, std::uint64_t last,
                const AccessInfo& cur);
  void report(RaceKind kind, const Touch& t, std::uint64_t first, std::uint64_t last,
              const AccessInfo& prior, bool prior_write, const AccessInfo& current);

  bool word_granular_ = false;
  std::size_t line_bytes_ = 32;
  std::size_t word_bytes_ = 8;

  std::vector<VectorClock> task_clocks_;
  std::vector<int> task_ue_;
  /// Sync-object clocks indexed by the engine's sequential sync ids.
  std::vector<VectorClock> sync_clocks_;
  /// Shadow runs indexed by space * 2 + (line-granular). Separate maps keep
  /// a line-checked granule and a word-checked granule of the same bytes
  /// from colliding (a range's cacheability can change between launches).
  std::vector<RunMap> shadow_;
  std::vector<Range> shm_exempt_;
  std::vector<Region> regions_;
  std::vector<RaceReport> reports_;
  std::uint64_t accesses_checked_ = 0;
  std::size_t pending_reports_ = 0;  ///< new reports in the current access()
};

}  // namespace hsm::sim::drf
