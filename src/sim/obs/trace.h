// Deterministic simulated-time trace recorder (docs/observability.md).
//
// One face of src/sim/obs: typed span/instant events keyed by
// (Tick, task_id, resource), recorded at *operation* boundaries — the entry
// and exit Ticks of shmRead/shmWrite/swcacheRw/mpbRead/mpbWrite/bulk/sync
// operations. Those boundary Ticks are exactly the quantities the coalescing
// invariant (engine.h) guarantees are bit-identical across all coalescing
// modes. Recording at the per-engine-event level instead would break that
// contract: intermediate event counts and ticks are mode-dependent by design.
//
// Determinism contract (a new oracle, tested in tests/test_obs.cpp):
//   - traces contain only simulated time (Ticks), never wall clock;
//   - an enabled trace is byte-identical across coalescing on or off and
//     zero-rate armed fault plans (fault events are recorded only when a
//     fault actually fires).
//
// Zero overhead when disabled: every hook site is gated on one cached bool
// (enabled()), the same discipline as FaultInjector::anyArmed(). The
// recorder is wired but dormant unless SccConfig::trace_enabled is set.
// Events are recorded into per-task vectors, created by prepare().
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "sim/time.h"

namespace hsm::sim::obs {

/// Resource slot for events not tied to a registered resource timeline.
inline constexpr std::uint32_t kNoTraceResource = 0xffffffffu;

enum class TraceEventKind : std::uint8_t {
  // ---- spans (end >= start) ----
  kShmRead = 0,    ///< uncached shared-DRAM read;  a=offset b=words
  kShmWrite,       ///< uncached shared-DRAM write; a=offset b=words c=attempts
  kShmBulkRead,    ///< DMA-style bulk read;  a=offset b=lines
  kShmBulkWrite,   ///< DMA-style bulk write; a=offset b=lines
  kSwcacheRead,    ///< cached read;  a=offset b=hit_touches c=line_txns
  kSwcacheWrite,   ///< cached write; a=offset b=hit_touches c=line_txns
  kSwcacheFlush,   ///< release flush / line ops; a=lines
  kMpbGet,         ///< on-die MPB read;  a=offset b=chunks c=owner_ue
  kMpbPut,         ///< on-die MPB write; a=offset b=chunks c=owner_ue
  kBarrierWait,    ///< arrival..release per waiter; a=sync_id b=episode
  kLockWait,       ///< request..grant; a=sync_id b=1 if the grant was queued
  kFreeze,         ///< injected core freeze; a=1 if permanent
  // ---- instants (end == start) ----
  kBlock,          ///< task parked on a sync object; a=sync_id
  kWake,           ///< parked task rescheduled;      a=sync_id
  kLockRelease,    ///< lock handoff initiated;       a=sync_id
  kFaultInject,    ///< fault fired; a=fault class
  kFaultRetry,     ///< verify-and-retry round;       a=fault class
  kMcStall,        ///< injected controller stall;    a=stall ticks
  kReport,         ///< hang report; a=0 deadlock, 1 sync timeout, 2 watchdog
  kRace,           ///< drf race detected; a=granule offset, b=RaceKind, c=prior task
  kNumKinds,
};

[[nodiscard]] const char* traceEventName(TraceEventKind kind);
[[nodiscard]] bool traceEventIsSpan(TraceEventKind kind);

/// One recorded event. Task id is implicit (the buffer it lives in).
struct TraceEvent {
  Tick start = 0;
  Tick end = 0;
  std::uint64_t a = 0;  ///< kind-specific payload (see TraceEventKind docs)
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint32_t resource = kNoTraceResource;  ///< registered resource id
  TraceEventKind kind = TraceEventKind::kShmRead;

  bool operator==(const TraceEvent&) const = default;
};

/// Per-task trace store: one event vector per root task plus a host vector.
class TraceRecorder {
 public:
  void configure(bool enabled) { enabled_ = enabled; }

  /// The one hot-path gate. Hook sites test this cached bool and nothing
  /// else; when false the recorder costs one predictable branch per site.
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Size per-task buffers for `num_tasks` root tasks. Must be called before
  /// the run: record() files ids without a buffer in the host buffer.
  void prepare(std::size_t num_tasks);

  /// Record under a root task. Out-of-range ids (Engine::kNoTask, host
  /// context) land in the shared host buffer.
  void record(std::size_t task_id, const TraceEvent& ev);
  void recordHost(const TraceEvent& ev) { record(kHostSlot, ev); }

  [[nodiscard]] std::uint64_t recordedEvents() const;
  [[nodiscard]] std::size_t taskSlots() const { return tasks_.size(); }
  /// One task's events in record order; task_id < taskSlots().
  [[nodiscard]] const std::vector<TraceEvent>& taskEvents(std::size_t task_id) const {
    return tasks_.at(task_id);
  }
  [[nodiscard]] const std::vector<TraceEvent>& hostEvents() const { return host_; }

  /// Chrome trace-event JSON (catapult / Perfetto "traceEvents" array):
  /// pid 1 = one thread per UE/task (spans + instants), pid 3 = one counter
  /// thread per memory controller (cumulative word transactions). Output is
  /// a deterministic function of the recorded events and num_controllers.
  void writeChromeJson(std::ostream& out, std::uint32_t num_controllers) const;

 private:
  static constexpr std::size_t kHostSlot = static_cast<std::size_t>(-1);

  std::vector<std::vector<TraceEvent>> tasks_;
  std::vector<TraceEvent> host_;
  bool enabled_ = false;
};

}  // namespace hsm::sim::obs
