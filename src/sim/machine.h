// SccMachine — the hybrid-shared-memory manycore platform model.
//
// Functional *and* timing: every access moves real bytes between buffers
// (so benchmark outputs are verified) and advances simulated time through
// the P54C core clock, the private cache hierarchy, the mesh, the four
// memory controllers (queued — this is where 8-cores-per-MC contention
// appears, paper §6), and the per-tile MPB ports.
//
// Address spaces:
//   * private  — per-core, cacheable, backed by per-core byte arrays;
//   * shared off-chip (DRAM) — hardware-uncacheable, one byte array;
//     word-at-a-time accesses each pay the full core-mesh-controller round
//     trip, OR, in regions registered cached (addShmRegion), the
//     per-core software-managed release-consistency cache serves
//     line-granular accesses from fast private memory and reconciles at
//     sync points (sim/swcache/swcache.h, docs/memory_model.md);
//   * MPB — per-core 8 KB slices of on-chip SRAM, accessed in 32-byte
//     chunks at core-local latencies plus mesh hops to the owning tile.
#pragma once

#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "partition/execution_plan.h"
#include "sim/cache.h"
#include "sim/contention.h"
#include "sim/drf/drf.h"
#include "sim/engine.h"
#include "sim/fault/fault.h"
#include "sim/noc.h"
#include "sim/obs/metrics.h"
#include "sim/obs/trace.h"
#include "sim/scc_config.h"
#include "sim/swcache/swcache.h"

namespace hsm::sim {

class SccMachine;

/// Barrier across the participating UEs (RCCE_barrier's model): arrivals
/// post flags through the MPB; the last arrival releases everyone. All
/// releases land at one Tick, so wake order follows the engine's
/// (time, task_id) contract — each waiter's task id is recorded at arrival
/// and attached to its wake event.
///
/// The participants are the spawned engine tasks `participant_tasks`,
/// registered as the engine barrier's members: a waiter's wake chain is
/// bounded by the participants that have not arrived yet (its only
/// potential wakers). Each arrival is an O(1) stamp and each release an
/// O(1) new episode — membership is never rebuilt.
class SyncBarrier {
 public:
  SyncBarrier(Engine& engine, std::vector<std::size_t> participant_tasks,
              Tick arrive_cost, Tick release_cost)
      : engine_(engine), participants_(participant_tasks.size()),
        arrive_cost_(arrive_cost), release_cost_(release_cost),
        sync_(engine.registerBarrier(std::move(participant_tasks))) {}

  struct Awaiter {
    SyncBarrier& barrier;
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const { barrier.onArrive(h); }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] Awaiter arrive() { return Awaiter{*this}; }
  [[nodiscard]] std::size_t participants() const { return participants_; }
  [[nodiscard]] std::uint64_t episodes() const { return episodes_; }

  /// Attach the machine's race detector (nullptr = detached, the default):
  /// each release episode then joins the arrivals' vector clocks and
  /// redistributes — arrivals happen-before every departure.
  void setDrf(drf::DrfChecker* drf) { drf_ = drf; }

 private:
  friend struct Awaiter;
  struct Waiter {
    std::coroutine_handle<> handle;
    std::size_t task;  ///< engine task id the wake event is filed under
    Tick arrived;      ///< arrival Tick (start of the traced wait span)
  };
  void onArrive(std::coroutine_handle<> h);

  Engine& engine_;
  std::size_t participants_;
  Tick arrive_cost_;
  Tick release_cost_;
  std::uint32_t sync_;
  std::size_t arrived_ = 0;
  Tick latest_arrival_ = 0;
  std::vector<Waiter> waiting_;
  std::uint64_t episodes_ = 0;
  drf::DrfChecker* drf_ = nullptr;  ///< attached when SccConfig::drf_check
};

/// A test-and-set register lock (one per core on the SCC). FIFO grant order
/// keeps the simulation deterministic.
class TasLock {
 public:
  TasLock(Engine& engine, Tick roundtrip)
      : engine_(engine), roundtrip_(roundtrip), sync_(engine.registerLock()) {}

  struct Awaiter {
    TasLock& lock;
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const { lock.onAcquire(h); }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] Awaiter acquire() { return Awaiter{*this}; }
  /// Release; if a waiter is queued, ownership transfers to it after the
  /// register round trip.
  void release();
  [[nodiscard]] bool held() const { return held_; }
  [[nodiscard]] std::uint64_t contentionEvents() const { return contention_; }

  /// Attach the machine's race detector (nullptr = detached, the default):
  /// grants then replay acquire edges and release() records release edges
  /// against this lock's sync-object clock.
  void setDrf(drf::DrfChecker* drf) { drf_ = drf; }

 private:
  friend struct Awaiter;
  struct Waiter {
    std::coroutine_handle<> handle;
    std::size_t task;  ///< engine task id the grant event is filed under
    Tick arrived;      ///< request Tick (start of the traced wait span)
  };
  void onAcquire(std::coroutine_handle<> h);

  Engine& engine_;
  Tick roundtrip_;
  std::uint32_t sync_;
  bool held_ = false;
  std::size_t holder_ = Engine::kNoTask;  ///< sole potential waker while held
  std::deque<Waiter> queue_;  // FIFO, O(1) pop_front
  std::uint64_t contention_ = 0;
  drf::DrfChecker* drf_ = nullptr;  ///< attached when SccConfig::drf_check
};

/// Per-UE view of the machine handed to workload coroutines.
class CoreContext {
 public:
  CoreContext(SccMachine& machine, int ue, int num_ues, int core)
      : machine_(machine), ue_(ue), num_ues_(num_ues), core_(core) {}

  [[nodiscard]] int ue() const { return ue_; }
  [[nodiscard]] int numUes() const { return num_ues_; }
  /// Physical core hosting this UE (UEs are spread across the quadrants).
  [[nodiscard]] int core() const { return core_; }
  [[nodiscard]] SccMachine& machine() { return machine_; }
  /// This UE's simulated time: the engine's, plus the compute it has folded
  /// in without suspending (its lag; see below).
  [[nodiscard]] Tick now() const;

  /// Awaitable of a timed operation: with its completion Tick computed
  /// eagerly it suspends straight to it, frame-free; otherwise it runs the
  /// operation's coroutine (a fenced bulk transfer, or one that pays the
  /// lag first).
  class [[nodiscard]] OpAwaiter {
   public:
    OpAwaiter(Engine& engine, Tick when) : engine_(engine), when_(when) {}
    OpAwaiter(Engine& engine, SubTask body) : engine_(engine), body_(std::move(body)) {}
    [[nodiscard]] bool await_ready() const noexcept;
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}

   private:
    Engine& engine_;
    Tick when_ = 0;
    SubTask body_;  ///< engaged only on the coroutine path
  };

  // -- computation --
  // With coalescing on and no armed fault or sync timeout
  // (SccMachine::foldsCompute) a compute does not suspend: it adds to the
  // UE's lag, and now() runs ahead of the engine's clock by it. The next
  // operation pays the lag. A shared-memory or MPB run longer than
  // SccMachine::kShortRun issues its first transaction at now() inside the
  // running event when no other task could touch that resource first, and
  // so does a shorter run when no task reaching the resource is parked or
  // has an event at or before now() (SccMachine::timedRun); every other
  // operation suspends to now() first, and a task ending with a lag
  // completes at now(). The race detector
  // checks an access issued ahead of the engine's clock when the engine
  // reaches its Tick (SccMachine::flushDrf). Otherwise every compute is its
  // own event.
  [[nodiscard]] ResumeAt compute(std::uint64_t core_cycles);
  [[nodiscard]] ResumeAt computeOps(std::uint64_t count, OpClass cls);

  // -- private cacheable memory --
  [[nodiscard]] OpAwaiter privRead(std::uint64_t addr, void* out, std::size_t bytes);
  [[nodiscard]] OpAwaiter privWrite(std::uint64_t addr, const void* src, std::size_t bytes);
  /// Timing-only streaming access over [addr, addr+bytes), no data movement
  /// (for kernels that keep their live values in registers).
  [[nodiscard]] OpAwaiter privTouch(std::uint64_t addr, std::size_t bytes, bool write);

  // -- shared off-chip DRAM --
  // Default (hardware-uncached) routing is word-granular: every word is an
  // independent blocking transaction through the core's memory controller
  // (the uncached-access semantics of the SCC's shared pages). Runs of words
  // that are provably uncontended are coalesced into a single engine event
  // (config.coalescing); contention windows fall back to per-word events
  // so concurrent cores interleave fairly. Either way the simulated Ticks
  // are identical — see sim/engine.h.
  //
  // Every data operation below (shm and MPB, word and bulk) throws
  // std::out_of_range before it touches any state when its range passes the
  // shared-memory break (what shmalloc has handed out) or, for the MPB, when
  // the owner is not a launched UE or the range passes the owner's slice.
  // Inside a task that ends the run (SimTask terminates on an exception).
  //
  // Routing is PER REGION: accesses whose offset falls in a region
  // registered cached (SccMachine::addShmRegion — typically by an
  // rcce::ShmArray carrying an ExecutionPlan placement) go through the
  // per-core software-managed release-consistency cache instead: hits are
  // served from fast private memory, misses fill whole lines (batched like
  // the word path), and the sync operations below reconcile (flush at
  // release, self-invalidate at acquire). Offsets outside every cached
  // region are uncached. Functional results are identical for data-race-free
  // programs; timing is a different (cached) model. Accesses must not
  // straddle a region boundary (regions are whole translated variables, so
  // they never do).
  [[nodiscard]] SubTask shmRead(std::uint64_t offset, void* out, std::size_t bytes);
  [[nodiscard]] SubTask shmWrite(std::uint64_t offset, const void* src, std::size_t bytes);
  /// Sequential bulk transfer (RCCE-style block copy): pays one transaction
  /// setup and then streams lines at row-buffer-hit service rates. Bypasses
  /// the swcache but stays coherent with this core's own cached lines
  /// (overlapping dirty lines are written back first; a bulk write also
  /// invalidates overlapping cached copies). With no swcache, no armed
  /// fault (for a write) and no lag, the completion is computed eagerly.
  [[nodiscard]] OpAwaiter shmReadBulk(std::uint64_t offset, void* out, std::size_t bytes);
  [[nodiscard]] OpAwaiter shmWriteBulk(std::uint64_t offset, const void* src,
                                       std::size_t bytes);

  // -- MPB (on-chip shared SRAM) --
  // Chunk-granular: every cache-line-sized chunk is an independent blocking
  // transaction through the owning tile's MPB port (the core moves MPB data
  // line by line, as RCCE put/get do). Runs of provably-uncontended chunks
  // are coalesced into a single engine event (config.coalescing),
  // mirroring the shared-memory word path; Ticks are identical either way.
  [[nodiscard]] SubTask mpbRead(int owner_ue, std::uint64_t offset, void* out,
                                std::size_t bytes);
  [[nodiscard]] SubTask mpbWrite(int owner_ue, std::uint64_t offset, const void* src,
                                 std::size_t bytes);

  // -- synchronization --
  // These are the swcache protocol's reconciliation points: once any range
  // is registered cacheable, barrier() and lockRelease() flush this core's
  // dirty lines BEFORE the release takes effect, and barrier() and
  // lockAcquire() self-invalidate clean lines once the acquire completes.
  // The swcache discipline requires synchronizing through these wrappers —
  // touching machine().barrier()/lock() directly skips reconciliation.
  //
  // The returned SyncAwaiter dispatches: with the swcache disabled and no
  // lag to pay it forwards straight to the underlying SyncBarrier/TasLock
  // operation — no coroutine frame, no extra events, no extra Ticks, so the
  // uncached modes stay bit-identical AND the sync hot path stays
  // allocation-free; otherwise it runs a coroutine (suspend to now() first
  // when there is a lag, then the reconciliation when the swcache is
  // enabled). Either way it MUST be co_awaited (a discarded lockRelease
  // releases nothing).
  class [[nodiscard]] SyncAwaiter {
   public:
    enum class Op : std::uint8_t { kBarrier, kAcquire, kRelease };
    SyncAwaiter(CoreContext& ctx, Op op, int lock_id, SubTask reconcile)
        : ctx_(ctx), op_(op), lock_id_(lock_id), reconcile_(std::move(reconcile)) {}
    [[nodiscard]] bool await_ready();
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}

   private:
    CoreContext& ctx_;
    Op op_;
    int lock_id_;
    SubTask reconcile_;  ///< engaged only with the swcache enabled or a lag to pay
  };
  [[nodiscard]] SyncAwaiter barrier();
  [[nodiscard]] SyncAwaiter lockAcquire(int lock_id);
  [[nodiscard]] SyncAwaiter lockRelease(int lock_id);

 private:
  friend class SccMachine;  // run() settles a trailing lag
  /// Awaiter of an injected PERMANENT core freeze: suspends and never
  /// schedules a resume. The task stays alive with no pending event and no
  /// registered sync object — the engine's deadlock detector reports it as
  /// wedged when the event queue drains.
  struct FreezeForever {
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> /*h*/) const noexcept {}
    void await_resume() const noexcept {}
  };
  /// The range checks of the data operations (std::out_of_range; see the
  /// shared-DRAM comment above).
  void checkShmRange(std::uint64_t offset, std::size_t bytes) const;
  void checkMpbRange(int owner_ue, std::uint64_t offset, std::size_t bytes) const;
  /// Fault hook at the head of every timed shm/MPB operation: serves an
  /// injected core freeze (transient = a simulated stall; permanent = never
  /// resumes). Only awaited when the injector is armed.
  SubTask faultPreOp();
  /// One attempt of a data transfer: copy plus timed run (machine.cpp).
  struct Transfer;
  /// shmRead/shmWrite/mpbRead/mpbWrite: race check, fault pre-op, swcache
  /// routing, the transfer, then the operation record.
  SubTask access(Transfer x);
  /// The one verify-and-retry loop (docs/fault_model.md), reached only when
  /// `cls` is armed: runs `x` once per attempt, corrupts `landed` per the
  /// (seq, attempt) draw, compares it against `expected`, and backs off
  /// before each retry. Stores the attempts made in `attempts`.
  SubTask verifiedTransfer(FaultClass cls, std::uint64_t& seq, Transfer& x, void* landed,
                           const void* expected, std::uint32_t& attempts);
  /// shmReadBulk/shmWriteBulk: the fenced coroutine or the eager burst.
  OpAwaiter bulk(std::uint64_t offset, void* out, const void* src, std::size_t bytes,
                 bool write);
  /// Spend `dt` of local work: folded into the lag, or one suspension.
  ResumeAt spend(Tick dt);
  /// Suspend to now(), clearing the lag.
  ResumeAt payLag();
  /// `op()`'s operation after paying the lag with one suspension (`op`
  /// re-enters the operation's entry function with no lag left).
  template <typename Op>
  SubTask afterLag(Op op);
  /// Issue the next batch of `lines` swcache line transfers at now() (the
  /// lag is paid by it) and count off those serviced.
  ResumeAt lineStep(std::size_t& lines);
  /// Shared-memory access through the software-managed cache: functional
  /// phase first (line store <-> backing), then the timed phase charges hit
  /// touches and batched line transfers.
  SubTask swcacheRw(std::uint64_t offset, void* out, const void* src,
                    std::size_t bytes, bool write);
  /// Charge `lines` batched swcache line transfers (fills/write-backs).
  SubTask swcacheLines(std::size_t lines);
  /// Release point: functionally flush dirty lines, then charge the
  /// write-back transfers.
  SubTask swcacheRelease();
  /// Coherence-fenced bulk transfer behind OpAwaiter (swcache enabled or
  /// faults armed): sync overlapping cached lines, then the bypassing burst.
  SubTask bulkFenced(std::uint64_t offset, void* out, const void* src,
                     std::size_t bytes, bool write);
  // Reconciliation coroutines behind SyncAwaiter (swcache enabled only).
  SubTask barrierReconcile();
  SubTask lockAcquireReconcile(int lock_id);
  SubTask lockReleaseReconcile(int lock_id);

  SccMachine& machine_;
  int ue_;
  int num_ues_;
  int core_;
  std::size_t task_ = Engine::kNoTask;  ///< engine task running this UE (launch)
  Tick lag_ = 0;  ///< compute folded in since the engine last resumed the task
  // Per-UE fault-draw indices. Keyed by the UE (a stable logical id) and
  // bumped once per *operation attempt*, independent of how many engine
  // events the operation costs — so the fault schedule is identical across
  // coalescing modes. Only advanced while the injector is armed; zero-fault
  // runs never touch them.
  std::uint64_t mpb_xfer_seq_ = 0;   ///< MPB read/write transfers issued
  std::uint64_t shm_write_seq_ = 0;  ///< uncached/bulk shm writes issued
  std::uint64_t flush_seq_ = 0;      ///< release-point flushes issued
  std::uint64_t timed_op_seq_ = 0;   ///< timed ops (core-freeze draw points)
};

/// One launch request: everything SccMachine::launch needs, gathered into a
/// single value with a fluent builder.
///
///   machine.launch(LaunchSpec(8, program));                  // unrestricted
///   machine.launch(LaunchSpec(8, program).withPlan(&plan));  // plan-driven
///
/// A plan declares each UE's MPB scope: the owner UEs whose slices it will
/// ever access (ExecutionPlan::mpbScopeOwners, its put/get targets and its
/// own slice if it reads that back; empty when the plan has no MPB
/// regions). The scope shrinks the task's engine reach set to those tile
/// ports, so traffic on unrelated tiles' ports cannot truncate its coalesced
/// chunk runs. It is a promise: accesses outside it are still serviced but
/// counted in mpbScopeViolations() (they void the port-isolation
/// guarantee). No plan means the unrestricted launch (every port). Hand it
/// the plan the run realizes (ExecutionPlan::realized): a region demoted
/// off chip must promise no MPB traffic. The plan pointer is borrowed and
/// read only during launch().
struct LaunchSpec {
  using CoreProgram = std::function<SimTask(CoreContext&)>;

  LaunchSpec(int ues, CoreProgram prog) : num_ues(ues), program(std::move(prog)) {}

  LaunchSpec& withPlan(const partition::ExecutionPlan* p) {
    plan = p;
    return *this;
  }

  int num_ues;
  CoreProgram program;
  const partition::ExecutionPlan* plan = nullptr;
};

/// One shared-DRAM region's whole policy: what the ExecutionPlan decided for
/// one shared variable, as the machine realizes it (SccMachine::addShmRegion).
struct ShmRegion {
  std::uint64_t begin = 0;  ///< byte offset into shared DRAM
  std::uint64_t end = 0;    ///< one past the last byte
  bool cached = false;      ///< served by the per-core swcache
  /// Address→controller mapping (kPinned: behind `pinned_controller`).
  partition::ControllerPlacement placement = partition::ControllerPlacement::kOwnerCompute;
  std::uint32_t pinned_controller = 0;
  /// Plan region name ("" = unnamed): keys the region's profile and names
  /// it in race reports.
  std::string name{};
};

class SccMachine {
 public:
  explicit SccMachine(SccConfig config = {});
  ~SccMachine();

  [[nodiscard]] Engine& engine() { return engine_; }
  [[nodiscard]] const Engine& engine() const { return engine_; }
  [[nodiscard]] const SccConfig& config() const { return config_; }
  /// config().coreClock(), built once (Clock's constructor divides).
  [[nodiscard]] const Clock& coreClock() const { return core_clock_; }
  [[nodiscard]] const MeshTopology& mesh() const { return mesh_; }

  // -- shared memory management (host-side setup) --
  /// Bump-allocate from the off-chip shared region (8-byte aligned).
  std::uint64_t shmalloc(std::size_t bytes);
  /// Bump-allocate with explicit alignment (a power of two; below 8 reads
  /// as 8) — e.g. one cache line for regions the swcache will move whole
  /// lines of. Throws std::invalid_argument for any other alignment.
  std::uint64_t shmalloc(std::size_t bytes, std::size_t align);
  /// Bump-allocate from `ue`'s MPB slice; throws std::out_of_range for a UE
  /// outside [0, num_cores) and std::bad_alloc if the 8 KB slice is
  /// exhausted.
  std::uint64_t mpbMalloc(int ue, std::size_t bytes);
  /// Host-side direct access to shared DRAM (test setup/verification).
  [[nodiscard]] std::uint8_t* shmData(std::uint64_t offset) { return &shared_dram_[offset]; }
  [[nodiscard]] std::uint8_t* mpbData(int ue, std::uint64_t offset);
  /// WARNING: grows the private backing store on demand — growing
  /// invalidates previously returned pointers. Call reservePrivate first
  /// when taking multiple pointers.
  [[nodiscard]] std::uint8_t* privData(int core, std::uint64_t addr);
  /// Pre-size a core's private memory so privData pointers stay stable.
  void reservePrivate(int core, std::size_t bytes);

  // -- program execution --
  using CoreProgram = LaunchSpec::CoreProgram;
  /// Spawn `spec.num_ues` copies of `spec.program`, one per core, sharing
  /// one barrier. The spec's plan (its per-UE MPB owner sets) shrinks each
  /// task's engine reach set to its controller plus the promised tile
  /// ports; without a plan, the reach set is the controller plus every MPB
  /// port (sound, but port horizons then see all tasks). While a striped,
  /// pinned or first-touch placement is registered, the reach set holds
  /// every controller instead of the core's own. The regions themselves are
  /// registered by the plan-carrying rcce::ShmArray allocations (or
  /// addShmRegion directly) — the machine cannot know region offsets — and
  /// a cached registration, the class the run realizes, is what activates
  /// the swcache instances.
  void launch(const LaunchSpec& spec);
  /// Create the machine barrier over the spawned engine tasks
  /// `participant_tasks` without launching (used by runtimes that spawn
  /// their own tasks, e.g. threadrt).
  void setupBarrier(std::vector<std::size_t> participant_tasks);
  /// Run to completion; returns the makespan.
  Tick run();

  /// The one machine barrier every UE synchronizes through (what
  /// CoreContext::barrier() awaits): launch() sizes it to num_ues.
  [[nodiscard]] SyncBarrier& barrier() { return *barrier_; }
  /// Test-and-set register `id`, one per core: throws std::out_of_range
  /// unless `id` is in [0, num_cores).
  [[nodiscard]] TasLock& lock(int id);

  /// A timed run with at most this many transactions left takes the
  /// per-event path even with coalescing on (header comment at TxnRun):
  /// one transaction per event, no horizon query, no registered run.
  /// Measured on kv_zipf's 32-UE pass (4-vCPU Xeon VM, GCC 12.2, Release,
  /// TSC-instrumented): a joint-replay call cost ~990 cycles, a
  /// one-transaction call 70-130.
  /// An A/B of 4..8 (bench/pipeline, 5 shuffled rounds of 3 s runs per
  /// value; median pass_s for 4/5/6/7/8) read kv_zipf 56.4/56.2/55.9/53.5/
  /// 53.4 ms, paper_mpb 38.9/38.8/36.9/38.3/37.6 ms and paper_offchip
  /// 28.0/27.7/27.7/28.1/27.6 ms: all inside the run-to-run spread, so the
  /// middle value stands.
  static constexpr std::size_t kShortRun = 6;

  // -- statistics --
  [[nodiscard]] const ResourceTimeline& memController(std::uint32_t mc) const {
    return mc_[mc];
  }
  [[nodiscard]] const ResourceTimeline& mpbPort(std::uint32_t tile) const {
    return mpb_port_[tile];
  }
  /// Whether `core`'s private L1/L2 tag stores exist: they are built on
  /// the core's first private access, so a core that never touches private
  /// memory allocates none.
  [[nodiscard]] bool privateCachesBuilt(int core) const {
    return priv_caches_[static_cast<std::size_t>(core)].has_value();
  }
  /// Uncached word transactions simulated through the word-granular path.
  [[nodiscard]] std::uint64_t shmWordsSimulated() const { return tally(RunKind::kWord).txns; }
  /// Engine events those words cost (== shmWordsSimulated() with coalescing
  /// off; the gap is the number of events coalescing eliminated).
  [[nodiscard]] std::uint64_t shmWordEvents() const { return tally(RunKind::kWord).events; }
  /// MPB chunk transactions simulated through the chunk-granular path.
  [[nodiscard]] std::uint64_t mpbChunksSimulated() const {
    return tally(RunKind::kChunk).txns;
  }
  /// Engine events those chunks cost (== mpbChunksSimulated() with
  /// coalescing off).
  [[nodiscard]] std::uint64_t mpbChunkEvents() const { return tally(RunKind::kChunk).events; }
  /// MPB accesses that fell outside the launch plan's MPB scope. Any
  /// non-zero count voids the port-isolation timing guarantee of that run.
  [[nodiscard]] std::uint64_t mpbScopeViolations() const {
    return mpb_scope_violations_;
  }
  /// The MPB port resource ids launch() declared as `ue`'s scope (sorted;
  /// empty for a UE with no promised MPB traffic, and without a plan).
  [[nodiscard]] const std::vector<std::uint32_t>& mpbScopePorts(int ue) const {
    return ue_port_reach_.at(static_cast<std::size_t>(ue));
  }

  // -- per-controller shared-DRAM traffic --
  /// Shared-DRAM transactions each memory controller served: uncached
  /// words, swcache line transfers, and bulk-copy lines (one count per
  /// transaction, whatever its byte size). Pure accounting — recording them
  /// never moves a Tick. Their sum equals shmWordsSimulated() +
  /// swcacheLinesSimulated() + shmBulkLinesSimulated() by construction; the
  /// spread across controllers is what controller placement redistributes.
  [[nodiscard]] const std::vector<std::uint64_t>& controllerTraffic() const {
    return mc_traffic_;
  }
  /// Lines moved by sequential bulk transfers (shmReadBulk/shmWriteBulk).
  [[nodiscard]] std::uint64_t shmBulkLinesSimulated() const {
    return shm_bulk_lines_;
  }

  // -- the shared-DRAM region table (ExecutionPlan policy) --
  /// Register `region` with its whole policy — the one way a shared-DRAM
  /// range becomes cached, routed, profiled or named. The newest region
  /// covering an offset decides all of its attributes; offsets no region
  /// covers are uncached, requester-local and unnamed. An empty range
  /// registers nothing. A cached region is rounded OUTWARD to line
  /// boundaries (the swcache moves whole lines; allocate it line-aligned,
  /// as the plan-carrying rcce::ShmArray does) and routes
  /// requester-locally whatever its placement (the composition rule in
  /// docs/execution_plan.md). A routing placement (kStriped, kPinned,
  /// kFirstTouch) registered after launch() throws std::logic_error: tasks
  /// reach every controller only if one was registered when they spawned.
  /// An uncached kPinned region's pinned_controller not below
  /// num_mem_controllers throws std::invalid_argument. Either way nothing
  /// is registered.
  void addShmRegion(ShmRegion region);
  /// Some registered region carries `name` (a plan region the run realized).
  [[nodiscard]] bool shmRegionNamed(std::string_view name) const;
  /// Controller serving an access to `offset` from `core` (claims the
  /// stripe for first-touch regions as a side effect).
  [[nodiscard]] std::uint32_t controllerForShmAccess(int core, std::uint64_t offset);

  // -- software-managed shared-memory cache --
  /// Any core-side cache instances exist (at least one region registered
  /// cached): sync points then reconcile and bulk transfers fence. False
  /// keeps every sync/bulk path frame-free and Tick-bit-identical to the
  /// uncached-only machine.
  [[nodiscard]] bool swcacheActive() const { return !swcache_.empty(); }
  /// Routing of the region containing `offset`.
  [[nodiscard]] bool shmCached(std::uint64_t offset) const {
    const RegionEntry* e = regionAt(offset);
    return e != nullptr && e->region.cached;
  }
  /// Per-core hit/miss/flush counters (zero-valued stats when disabled).
  [[nodiscard]] const SwCacheStats& swcacheStats(int core) const;
  /// Chip-wide aggregate of the per-core counters.
  [[nodiscard]] SwCacheStats swcacheTotals() const;
  /// Swcache line transfers (fills + dirty write-backs) simulated.
  [[nodiscard]] std::uint64_t swcacheLinesSimulated() const {
    return tally(RunKind::kLine).txns;
  }
  /// Engine events those line transfers cost (the gap to
  /// swcacheLinesSimulated() is what fill/flush batching eliminated).
  [[nodiscard]] std::uint64_t swcacheLineEvents() const {
    return tally(RunKind::kLine).events;
  }
  /// Dirty / resident line counts of `core`'s swcache (0 when disabled) —
  /// the accounting-invariant hooks the fault-reconciliation tests use.
  [[nodiscard]] std::size_t swcacheDirtyLines(int core) const;
  [[nodiscard]] std::size_t swcacheResidentLines(int core) const;

  // -- fault injection & recovery (sim/fault/fault.h; docs/fault_model.md) --
  /// The machine's draw engine over config().fault. Mutable access so the
  /// recovery layer (CoreContext retry loops) can record stats.
  [[nodiscard]] FaultInjector& faultInjector() { return fault_; }
  [[nodiscard]] const FaultStats& faultStats() const { return fault_.stats(); }
  /// Any fault class armed (the hot-path gate: false keeps every operation
  /// on the exact pre-fault instruction path).
  [[nodiscard]] bool faultsActive() const { return fault_.anyArmed(); }
  /// CoreContext folds compute into a lag instead of suspending: coalescing
  /// is on, no fault is armed (fault draws key on operation boundaries) and
  /// no sync timeout is set (the engine checks it after every event). The
  /// trace, region profiles and DRF checker do not stop it: they see every
  /// operation at its own Ticks, and an observed run must cost the same
  /// events as a plain one.
  [[nodiscard]] bool foldsCompute() const {
    return config_.coalescing && !fault_.anyArmed() && config_.sync_timeout_ticks == 0;
  }

  // -- deterministic observability (sim/obs/; docs/observability.md) --
  /// The machine's trace recorder. Dormant (enabled() == false, every hook a
  /// single cached-bool check) unless config.trace_enabled wired it into the
  /// engine at construction.
  [[nodiscard]] obs::TraceRecorder& traceRecorder() { return trace_; }
  [[nodiscard]] const obs::TraceRecorder& traceRecorder() const { return trace_; }
  /// Chrome trace-event JSON (Perfetto-loadable): one track per UE task
  /// and per memory controller.
  void writeTrace(std::ostream& out) const;

  // -- happens-before race detection (sim/drf/; docs/race_detection.md) --
  /// Detector active (config.drf_check). The inline gates below are the
  /// cached-bool discipline: false keeps every access path on the exact
  /// pre-drf instruction sequence, and the hooks are untimed either way so
  /// drf_check=true simulates the exact same Ticks it merely observes.
  [[nodiscard]] bool drfEnabled() const { return drf_active_; }
  [[nodiscard]] const drf::DrfChecker& drfChecker() const { return drf_; }
  [[nodiscard]] drf::DrfChecker& drfChecker() { return drf_; }
  /// Exempt [begin, end) of shared DRAM from race checking — for deliberate
  /// benign races a workload documents (idempotent last-writer-wins stores
  /// of canonical values, e.g. the KV store's replicated slots).
  void setShmDrfExempt(std::uint64_t begin, std::uint64_t end) {
    if (drf_active_) drf_.addShmExemptRange(begin, end);
  }
  /// The access hook (CoreContext / threadrt op entry). Called ONCE per
  /// logical operation with its initiation Tick `at` — before any retry
  /// loop or coalescing-dependent resumption — so the checked access stream
  /// is bit-identical across coalescing modes and fault retries. `at` is
  /// the caller's now(), which a folded compute puts past the engine's.
  void noteDrf(drf::Space space, std::uint64_t offset, std::size_t bytes, bool write,
               Tick at) {
    if (drf_active_) drfAccess(space, offset, bytes, write, at);
  }

  /// Per-region read/write/hit/miss/controller profiles of the named
  /// regions, registration order (MetricsSnapshot::regions; consumed by the
  /// ROADMAP's plan-re-derivation item). Empty unless config.region_metrics.
  [[nodiscard]] std::vector<obs::RegionProfile> shmRegionProfiles() const;
  /// config.region_metrics is on and a named region is registered: the
  /// hot-path gate of the profile; runs without one keep the exact
  /// pre-profiling instruction path.
  [[nodiscard]] bool regionProfilingActive() const { return region_profiling_; }
  /// Anything consumes operation records (trace on, or a region profiled):
  /// the one cached gate a CoreContext op tests before building its record.
  [[nodiscard]] bool observing() const { return observing_; }
  /// The operation record: the span a CoreContext op ends with, issued by
  /// `core`. Traced as is; shared-DRAM kinds also feed the region profile,
  /// `attempts` times (each verify-retry attempt moved the data again).
  void recordOp(int core, const obs::TraceEvent& op, std::uint32_t attempts = 1);
  /// Trace a kFaultInject / kFaultRetry instant of `cls` at now().
  void traceFaultInstant(obs::TraceEventKind kind, FaultClass cls);
  /// Controller that served (or would serve) an access to `offset` from
  /// `core`. Trace/profile use only — call AFTER the access so first-touch
  /// claims are already made and the lookup is a pure function.
  [[nodiscard]] std::uint32_t shmControllerOf(int core, std::uint64_t offset) {
    return ctrl_placement_active_ ? controllerForShmAccess(core, offset)
                                  : core_mc_[static_cast<std::size_t>(core)];
  }
  /// `core`'s own quadrant controller (swcache fills / flush write-backs).
  [[nodiscard]] std::uint32_t controllerOfCore(int core) const {
    return core_mc_[static_cast<std::size_t>(core)];
  }
  /// Engine resource id of the MPB port serving `owner_ue`'s slice.
  [[nodiscard]] std::uint32_t mpbPortIdOf(int owner_ue) const {
    return mesh_.portResourceId(mesh_.tileOfCore(coreOfUe(owner_ue)));
  }

  // -- swcache functional primitives (used by CoreContext) --
  /// Functional walk of one access through `core`'s swcache (data movement +
  /// tag transitions); returns the counts the timed phase must charge.
  SwCache::AccessPlan swcacheAccess(int core, std::uint64_t offset, std::size_t bytes,
                                    bool write, void* data_out, const void* data_in);
  /// Functional release-point flush; returns line write-backs to charge.
  std::size_t swcacheFlush(int core);
  /// Fault-checked release-point flush: flush dirty lines, then (per the
  /// armed kSwcacheFlush schedule at draw index `seq`) corrupt one
  /// just-flushed DRAM line, detect it by comparing the flushed set against
  /// DRAM, and re-store it. Verification is restricted to the lines this
  /// core itself just flushed — its own unreleased writes, race-free under
  /// DRF — so repair can never clobber another core's newer data. Returns
  /// total line transfers to charge (write-backs + repair re-stores).
  std::size_t swcacheFlushChecked(int core, std::uint64_t seq);
  /// Acquire point: self-invalidate `core`'s clean lines (local tag
  /// operation — no simulated time).
  void swcacheAcquire(int core);
  /// Coherence fence before a bypassing bulk access (see CoreContext).
  std::size_t swcacheSyncRange(int core, std::uint64_t offset, std::size_t bytes,
                               bool drop);
  [[nodiscard]] Tick swcacheHitTicks(std::size_t touches) const {
    return static_cast<Tick>(touches) * swcache_hit_ticks_;
  }

  // -- timing/functional primitives (used by CoreContext and threadrt) --
  Tick privAccessCompletion(int core, Tick start, std::uint64_t addr, std::size_t bytes,
                            bool write, void* data_out, const void* data_in);

 private:
  // The timed shared-memory and MPB runs below are CoreContext's alone:
  // every one goes through timedRun, the one batching rule.
  friend class CoreContext;

  // -- the one batching rule (config.coalescing) --
  // Every timed run — uncached words on a controller, swcache line transfers
  // on a controller, MPB chunks on a tile port — is a run of back-to-back
  // transactions on one serially-reusable resource: transaction i+1 is
  // issued `overhead + hop` after transaction i completes, is serviced for
  // `service`, and is seen `hop` later. The per-event reference path (off)
  // suspends once per transaction. With coalescing on, each call of
  // timedRun replays as many of them as one rule proves exact, in three
  // steps:
  //   1. Members: the caller, plus every task with transactions left in a
  //      run registered on the same resource (runs_, one table per engine
  //      resource). A registered task's pending event is exactly the issue
  //      of its next transaction, whatever the run's kind, overhead or
  //      service, so words and lines share a controller's table.
  //   2. H = Engine::nextEventTimeFor(resource, members): the earliest
  //      instant any non-member that reaches the resource could run. A
  //      member's pending slot does not count and, as a waker, a member
  //      contributes kNever — members are mid-run until the replay's first
  //      finisher, so a lock one holds or a barrier one has not reached
  //      cannot release inside the replay.
  //   3. replayJointRuns (sim/contention.h) on the resource's own timeline:
  //      every member's transactions in engine order — (issue Tick, task
  //      id), the caller's first transaction first at its tick — each
  //      committed only while it issues before H, ending at the first
  //      finished run (a finished member may at once add traffic the
  //      replay cannot see). Periodic rounds are jumped in closed form.
  // No other coroutine touches the timeline before H, and the members touch
  // nothing else, so the replay reproduces the per-event acquire sequence
  // exactly: same arrivals, same requests() indices (the kMcStall draw
  // keys), same completions. Each member the replay advanced keeps its
  // count in its record and has its pending event deferred to where its
  // replayed run stopped (Engine::deferPending); when it resumes there,
  // timedRun reports those transactions and carries on from that instant.
  // When H falls strictly before every peer's next issue, no peer can issue
  // inside the joint replay and the caller replays alone to H
  // (replayLoneRun); with a closed pattern (every non-member parked behind a
  // member) H is kNever. One horizon scan per call serves both.
  //
  // Run scopes: every pending event a call files — the caller's own resume
  // and each advanced peer's deferred one — carries the scope (resource,
  // t + k·(overhead + 2·hop + service)) of a task left with k transactions
  // of its run: each transaction completes no earlier than its issue plus
  // the overhead, both hops and the service (a stall only adds), so the
  // task can act on no other resource before then, and other resources'
  // horizons count it there (Engine::nextEventTimeFor).
  //
  // Lag: a caller whose compute was folded into its lag (CoreContext)
  // starts at now() + lag. A run longer than kShortRun issues inside the
  // running event when that instant falls strictly before the single-task
  // horizon — H above, bounded by every peer's next issue — so no other task
  // could have touched the resource first, and no equal-Tick tie arises.
  // Otherwise the call services nothing: the task suspends to that instant,
  // and the run is registered there at once (done = 0), so a peer's replay
  // carries it as a member in (t, task id) order instead of stopping at its
  // event. A shorter run asks the engine's cheap sufficient condition
  // instead of a horizon scan (on kv_zipf's 4-word items a scan per access
  // cost more host time than the event it saved): it issues its first
  // transaction in the running event when that instant falls strictly
  // before Engine::horizonLowerBound(resource) — the earliest pending event
  // of any task reaching the resource, 0 while one of them is parked, and
  // never above the single-task horizon — and otherwise suspends to it.
  //
  // A call with at most kShortRun transactions left takes the per-event
  // path (one transaction, no registered run, no horizon query): a short
  // run does not repay the query and the record. Every batch size is exact,
  // so the gate moves event counts only, never a Tick. Data ops still
  // execute in each task's program order but no longer interleave across
  // tasks transaction by transaction, so functional results are preserved
  // for data-race-free programs (the contract the swcache states in
  // docs/memory_model.md).
  enum class RunKind : std::uint8_t { kWord, kLine, kChunk };
  /// What a run's transactions cost: the one record a call, its registered
  /// TxnRun and every later call continuing it share.
  struct RunParams {
    std::uint32_t resource = 0;  ///< engine resource the run queues on
    RunKind kind = RunKind::kWord;
    Tick overhead = 0;  ///< issue overhead per transaction
    Tick hop = 0;       ///< one-way mesh latency to the resource
    Tick service = 0;   ///< resource service per transaction
  };
  /// The run-parameter function of each kind: uncached words of `core` on
  /// controller `mc`, swcache line transfers of `core` (its own
  /// controller), MPB chunks of `core` against `owner_ue`'s tile port.
  [[nodiscard]] RunParams wordRun(int core, std::uint32_t mc) const {
    return {mc, RunKind::kWord, uncached_overhead_ticks_, hopTicks(core, mc),
            word_service_ticks_};
  }
  [[nodiscard]] RunParams lineRun(int core) const {
    const std::uint32_t mc = core_mc_[static_cast<std::size_t>(core)];
    return {mc, RunKind::kLine, swcache_line_overhead_ticks_, hopTicks(core, mc),
            line_service_ticks_};
  }
  [[nodiscard]] RunParams chunkRun(int core, int owner_ue) const;

  /// Service up to `max_words` uncached word transactions of the access at
  /// `offset` starting at `start`, as many per event as timedRun proves
  /// safe (none when a lag cannot be paid in the running event). With no
  /// non-default placement registered the serving controller is the core's
  /// own (the legacy requester-local path); otherwise it is the one
  /// `controllerForShmAccess(core, offset)` chooses, and the run is capped
  /// at the current stripe boundary (striped / first-touch regions change
  /// controllers mid-region). Stores how many were serviced in
  /// `*words_done` and returns the resume after them. The arithmetic is the
  /// exact per-word recurrence, so Ticks match the per-event path bit for
  /// bit.
  ResumeAt shmWordsAtCompletion(int core, Tick start, std::uint64_t offset,
                                std::size_t max_words, std::size_t* words_done);
  /// MPB twin of shmWordsAtCompletion: up to `max_chunks` cache-line chunks
  /// of `ue`'s transfer against owner_ue's tile port.
  ResumeAt mpbChunksCompletion(int core, int ue, int owner_ue, Tick start,
                               std::size_t max_chunks, std::size_t* chunks_done);
  /// Swcache twin of shmWordsAtCompletion: up to `max_lines` swcache line
  /// transfers (fills or dirty write-backs) against the core's memory
  /// controller.
  ResumeAt swcacheLinesCompletion(int core, Tick start, std::size_t max_lines,
                                  std::size_t* lines_done);
  /// One bulk burst: one setup round trip, then lines at row-buffer-hit
  /// rates (a single acquire, so nothing to batch).
  Tick shmBulkCompletion(int core, Tick start, std::uint64_t offset, std::size_t bytes,
                         bool write, void* data_out, const void* data_in);

  /// One task's in-flight run against a resource.
  struct TxnRun {
    std::size_t task = 0;
    RunParams run;
    Tick t = 0;         ///< its pending resume: completion of its last transaction
    std::size_t remaining = 0;  ///< transactions left in the run
    std::size_t done = 0;  ///< replayed by a peer, not yet reported to the task
  };
  /// Service up to `max_txns` transactions of the calling task's run `run`
  /// from `start` under the one batching rule (at least one, and exactly
  /// one with config.coalescing off, unless `start` is a lag the running
  /// event cannot pay: then none). Stores how many in `*done` and returns
  /// the resume after the last, with the task's run scope.
  ResumeAt timedRun(const RunParams& run, Tick start, std::size_t max_txns, std::size_t* done);
  /// timedRun's per-event path, for a caller with `left` transactions
  /// left after `reported` ones a peer's replay serviced: one transaction
  /// in the running event, or none when a lagged `start` is not strictly
  /// before Engine::horizonLowerBound.
  ResumeAt oneTxn(const RunParams& run, Tick start, std::size_t left, std::size_t reported,
                  std::size_t* done);
  /// timedRun's general path: a registered record, a batched run, or an
  /// armed memory-controller stall.
  ResumeAt replayedRun(const RunParams& run, Tick start, std::size_t max_txns,
                       std::size_t* done);
  /// The scope of a task left with `k` transactions of `run` at `t` (none
  /// with coalescing off, where no horizon is ever asked, or k = 0).
  [[nodiscard]] RunScope scopeAfter(const RunParams& run, Tick t, std::size_t k) const {
    if (!config_.coalescing || k == 0) return {};
    return {run.resource,
            t + static_cast<Tick>(k) * (run.overhead + 2 * run.hop + run.service)};
  }
  /// Whether `offset` lies in a first-touch stripe no core has claimed yet
  /// (the lookup that would claim it must run in engine order).
  [[nodiscard]] bool firstTouchUnclaimed(std::uint64_t offset) const;
  /// Tally `n` transactions of `kind` served by `resource`.
  void countTxns(std::uint32_t resource, RunKind kind, std::uint64_t n) {
    tally_[static_cast<std::size_t>(kind)].txns += n;
    if (kind != RunKind::kChunk) mc_traffic_[resource] += n;
  }

 private:
  SccConfig config_;
  MeshTopology mesh_;
  Engine engine_;
  Clock core_clock_;
  Clock mesh_clock_;
  Clock dram_clock_;

  // Precomputed per-core NoC timing (topology is fixed at construction):
  // assigned controller and the one-way mesh latency to every controller.
  std::vector<std::uint32_t> core_mc_;
  /// One-way mesh latency from every core to every controller
  /// (core * num_mem_controllers + mc); read through hopTicks.
  std::vector<Tick> core_all_mc_hop_ticks_;
  [[nodiscard]] Tick hopTicks(int core, std::uint32_t mc) const {
    return core_all_mc_hop_ticks_[static_cast<std::size_t>(core) *
                                      config_.num_mem_controllers +
                                  mc];
  }
  Tick uncached_overhead_ticks_ = 0;  ///< per-word issue overhead
  Tick word_service_ticks_ = 0;       ///< controller service per word
  Tick mpb_overhead_ticks_ = 0;       ///< per-chunk core-side issue overhead
  Tick chunk_service_ticks_ = 0;      ///< port service per chunk
  Tick swcache_hit_ticks_ = 0;        ///< per hitting line touch
  Tick swcache_line_overhead_ticks_ = 0;  ///< per line-transfer issue
  Tick line_service_ticks_ = 0;       ///< controller service per 32 B line
  // privAccessCompletion's per-line costs.
  int line_shift_ = 0;                ///< log2(cache_line_bytes)
  Tick l1_hit_ticks_ = 0;
  Tick l2_hit_ticks_ = 0;
  Tick dram_overhead_ticks_ = 0;      ///< core-side issue of a private fill
  Tick priv_fill_ticks_[2] = {};      ///< controller service, 1 and 2 bursts

  // Machine-wide transaction tallies: pure counters, no Tick depends on them.
  struct RunTally {
    std::uint64_t txns = 0;    ///< transactions simulated
    std::uint64_t events = 0;  ///< engine events they cost (timedRun calls)
  };
  RunTally tally_[3];  ///< per RunKind
  [[nodiscard]] const RunTally& tally(RunKind kind) const {
    return tally_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t mpb_scope_violations_ = 0;
  std::uint64_t shm_bulk_lines_ = 0;
  std::vector<std::uint64_t> mc_traffic_;  ///< shared-DRAM txns per controller

  std::vector<std::uint8_t> shared_dram_;
  std::vector<SwCache> swcache_;                     // per core; empty if disabled
  std::vector<std::uint8_t> mpb_;                    // num_cores x slice
  std::vector<std::vector<std::uint8_t>> private_mem_;  // grown on demand
  /// One core's private cache hierarchy (tag-only; data lives in
  /// private_mem_).
  struct PrivateCaches {
    Cache l1;
    Cache l2;
  };
  std::vector<std::optional<PrivateCaches>> priv_caches_;  // per core, built on first use
  std::vector<ResourceTimeline> mc_;
  std::vector<ResourceTimeline> mpb_port_;           // per tile
  std::uint64_t shm_brk_ = 0;
  std::vector<std::uint64_t> mpb_brk_;               // per core slice
  std::unique_ptr<SyncBarrier> barrier_;
  std::vector<std::unique_ptr<TasLock>> locks_;
  std::vector<std::unique_ptr<CoreContext>> contexts_;
  std::vector<std::uint32_t> ue_to_core_;  ///< set at launch; identity otherwise
  /// Per UE: sorted port resource ids of its launch plan's MPB scope. Only
  /// consulted when the launch carried a plan; a declared-but-empty set
  /// means "no MPB traffic promised", so ANY access violates it.
  std::vector<std::vector<std::uint32_t>> ue_port_reach_;
  bool mpb_scope_declared_ = false;
  /// The region table: one entry per addShmRegion, scanned newest-first
  /// (regionAt) so the newest region covering an offset decides it.
  struct RegionEntry {
    ShmRegion region;  ///< as registered, cached ranges rounded
    /// The region's counters: named regions of a region_metrics run only.
    std::unique_ptr<obs::RegionProfile> profile;
  };
  std::vector<RegionEntry> region_table_;
  [[nodiscard]] const RegionEntry* regionAt(std::uint64_t offset) const {
    for (auto it = region_table_.rbegin(); it != region_table_.rend(); ++it) {
      if (offset >= it->region.begin && offset < it->region.end) return &*it;
    }
    return nullptr;
  }
  /// A routing placement is registered: the hot-path gate. False keeps
  /// every shared-memory access on the exact legacy requester-local
  /// instruction path.
  bool ctrl_placement_active_ = false;
  /// First-touch stripe claims: global stripe index → controller.
  std::unordered_map<std::uint64_t, std::uint32_t> first_touch_claims_;

  /// Per engine resource (controllers, then MPB ports): the runs in flight
  /// on it, a flat table — at most one entry per task, found through
  /// run_of_task_. Entry order carries no meaning (the replay picks by
  /// (t, task id)).
  std::vector<std::vector<TxnRun>> runs_;
  /// Per engine task: the index of its record in the table of the resource
  /// its run is on, or kNoRun (a task is in at most one run at a time).
  static constexpr std::size_t kNoRun = static_cast<std::size_t>(-1);
  std::vector<std::size_t> run_of_task_;
  /// timedRun's per-call working set, reused so the replay stays
  /// allocation-free in steady state (cleared on entry, never shrunk).
  std::vector<ReplayMember> replay_members_;
  std::vector<std::size_t> replay_tasks_;
  std::vector<std::size_t> replay_runs_;  ///< per peer member: its index in runs_[r]

  FaultInjector fault_;  ///< built from config_.fault at construction
  /// Scratch for swcacheFlushChecked's flushed-line addresses (reused to
  /// keep the flush path allocation-free in steady state).
  std::vector<std::uint64_t> flushed_addrs_scratch_;

  /// Trace recorder (sim/obs/trace.h). Owned here, wired into the engine
  /// only when config_.trace_enabled — disabled runs never even pay the
  /// recorder's enabled() check on engine hooks (null pointer short-circuit).
  obs::TraceRecorder trace_;
  bool region_profiling_ = false;  ///< see regionProfilingActive()
  bool observing_ = false;  ///< trace on || region_profiling_

  /// Race detector (sim/drf/drf.h). drf_active_ caches config_.drf_check —
  /// the hot-path gate of noteDrf above.
  drf::DrfChecker drf_;
  bool drf_active_ = false;
  /// One access of `task` at Tick `at`, for the detector.
  struct DrfAccess {
    Tick at;
    std::size_t task;
    drf::Space space;
    std::uint64_t offset;
    std::size_t bytes;
    bool write;
  };
  /// Accesses initiated past the engine's now (a lag), in (at, task) order:
  /// each is checked when the engine reaches its key (flushDrf), so the
  /// detector sees every access in the per-event reference order.
  std::vector<DrfAccess> drf_pending_;
  /// Check the running task's access at `at`: at once when `at` is now,
  /// queued otherwise.
  void drfAccess(drf::Space space, std::uint64_t offset, std::size_t bytes, bool write,
                 Tick at);
  /// Check the queued accesses keyed at or before (when, task), in order.
  void flushDrf(Tick when, std::size_t task);
  /// Check one access and emit a kRace trace instant per fresh report.
  void drfCheck(const DrfAccess& a);

  /// Instantiate the per-core swcaches if not already present (on the
  /// first cached region or plan with one).
  void ensureSwcache();

 public:
  [[nodiscard]] std::uint32_t coreOfUe(int ue) const {
    const auto i = static_cast<std::size_t>(ue);
    return i < ue_to_core_.size() ? ue_to_core_[i] : static_cast<std::uint32_t>(ue);
  }
};

}  // namespace hsm::sim
