#include "sim/machine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <new>
#include <stdexcept>
#include <string>

namespace hsm::sim {
namespace {

/// Hook-site gate: null when tracing is off (the recorder is only wired into
/// the engine when SccConfig::trace_enabled), so every disabled hook costs
/// one predictable null check — the FaultInjector discipline.
inline obs::TraceRecorder* tracer(Engine& engine) {
  obs::TraceRecorder* tr = engine.traceRecorder();
  return tr != nullptr && tr->enabled() ? tr : nullptr;
}

/// The shared-DRAM buffer of this thread's last destroyed machine, kept for
/// the next one (see the SccMachine constructor).
thread_local std::vector<std::uint8_t> spare_shared_dram;

}  // namespace

// ---------------------------------------------------------------------------
// SyncBarrier / TasLock
// ---------------------------------------------------------------------------

void SyncBarrier::onArrive(std::coroutine_handle<> h) {
  const Tick arrival = engine_.now() + arrive_cost_;
  if (arrival > latest_arrival_) latest_arrival_ = arrival;
  const std::size_t task = engine_.currentTaskId();
  waiting_.push_back({h, task, arrival});
  engine_.blockOnSync(task, sync_);
  // An arrived participant can no longer be the releasing waker: an O(1)
  // stamp in the engine's barrier.
  engine_.arriveAtBarrier(sync_, task);
  ++arrived_;
  if (arrived_ >= participants_) {
    const Tick release = latest_arrival_ + release_cost_;
    // Happens-before: every arrival precedes every departure. Join all
    // participants' vector clocks and redistribute before anyone resumes.
    if (drf_ != nullptr && !waiting_.empty()) {
      std::vector<std::size_t> tasks;
      tasks.reserve(waiting_.size());
      for (const Waiter& w : waiting_) tasks.push_back(w.task);
      drf_->barrierRelease(tasks.data(), tasks.size());
    }
    // All wakes land at one Tick; the engine's (time, task_id) key resumes
    // them in task-id order no matter what order arrivals happened in.
    // Each schedule also clears the waiter's blocked-on-sync state.
    obs::TraceRecorder* tr = tracer(engine_);
    for (const Waiter& w : waiting_) {
      if (tr != nullptr) {
        tr->record(w.task, obs::TraceEvent{w.arrived, release, sync_, episodes_, 0,
                                           obs::kNoTraceResource,
                                           obs::TraceEventKind::kBarrierWait});
      }
      engine_.schedule(release, w.handle, w.task);
    }
    waiting_.clear();
    arrived_ = 0;
    latest_arrival_ = 0;
    ++episodes_;
    // Next episode: every participant is a waker again — one counter bump.
    engine_.startBarrierEpisode(sync_);
  }
}

void TasLock::onAcquire(std::coroutine_handle<> h) {
  if (!held_) {
    held_ = true;
    holder_ = engine_.currentTaskId();
    // Happens-before: the grant acquires this lock's sync clock (the last
    // releaser's writes become ordered before the new holder's accesses).
    if (drf_ != nullptr && holder_ != Engine::kNoTask) {
      drf_->acquire(holder_, sync_);
    }
    // While held, only the holder can start the grant chain.
    engine_.setLockHolder(sync_, holder_);
    if (obs::TraceRecorder* tr = tracer(engine_)) {
      // Uncontended grant: the wait span is exactly the register round trip.
      tr->record(holder_, obs::TraceEvent{engine_.now(), engine_.now() + roundtrip_,
                                          sync_, 0, 0, obs::kNoTraceResource,
                                          obs::TraceEventKind::kLockWait});
    }
    engine_.schedule(engine_.now() + roundtrip_, h);
  } else {
    ++contention_;
    const std::size_t task = engine_.currentTaskId();
    queue_.push_back({h, task, engine_.now()});
    engine_.blockOnSync(task, sync_);
  }
}

void TasLock::release() {
  // Happens-before: the releaser's clock becomes this lock's sync clock —
  // recorded before any handoff so the next holder's acquire edge sees it.
  if (drf_ != nullptr) {
    const std::size_t releaser = engine_.currentTaskId();
    if (releaser != Engine::kNoTask) drf_->release(releaser, sync_);
  }
  obs::TraceRecorder* tr = tracer(engine_);
  if (tr != nullptr) {
    tr->record(engine_.currentTaskId(),
               obs::TraceEvent{engine_.now(), engine_.now(), sync_, 0, 0,
                               obs::kNoTraceResource,
                               obs::TraceEventKind::kLockRelease});
  }
  if (queue_.empty()) {
    held_ = false;
    holder_ = Engine::kNoTask;
    // No waiters and no holder: nothing is blocked on this object.
    engine_.setLockHolder(sync_, holder_);
    return;
  }
  const Waiter next = queue_.front();
  queue_.pop_front();
  holder_ = next.task;
  // Contended handoff: the queued waiter's acquire edge lands now (its
  // onAcquire ran before the grant, when the clock was older).
  if (drf_ != nullptr && next.task != Engine::kNoTask) {
    drf_->acquire(next.task, sync_);
  }
  if (tr != nullptr && next.task != Engine::kNoTask) {
    // Contended grant: request Tick .. ownership transfer.
    tr->record(next.task, obs::TraceEvent{next.arrived, engine_.now() + roundtrip_,
                                          sync_, 1, 0, obs::kNoTraceResource,
                                          obs::TraceEventKind::kLockWait});
  }
  engine_.schedule(engine_.now() + roundtrip_, next.handle, next.task);
  engine_.setLockHolder(sync_, holder_);
}

// ---------------------------------------------------------------------------
// CoreContext
// ---------------------------------------------------------------------------

Tick CoreContext::now() const { return machine_.engine().now() + lag_; }

ResumeAt CoreContext::spend(Tick dt) {
  Engine& engine = machine_.engine();
  if (!machine_.foldsCompute()) return engine.delay(dt);
  lag_ += dt;
  return engine.resumeAt(engine.now());  // ready: no suspension
}

ResumeAt CoreContext::payLag() {
  const Tick t = now();
  lag_ = 0;
  return machine_.engine().resumeAt(t);
}

SubTask CoreContext::faultPreOp() {
  FaultInjector& inj = machine_.faultInjector();
  const std::uint64_t op = timed_op_seq_++;
  const Tick freeze = inj.freezeTicks(ue_, op, now());
  if (freeze == FaultInjector::kFreezeForever) {
    // Permanent wedge: suspend with no pending event and no sync object.
    // The queue eventually drains and the engine's deadlock detector reports
    // this task as frozen instead of letting the run end silently.
    inj.noteInjected(FaultClass::kCoreFreeze);
    if (obs::TraceRecorder* tr = tracer(machine_.engine())) {
      tr->record(machine_.engine().currentTaskId(),
                 obs::TraceEvent{now(), now(), 1, 0, 0, obs::kNoTraceResource,
                                 obs::TraceEventKind::kFreeze});
    }
    co_await FreezeForever{};
  } else if (freeze > 0) {
    inj.noteInjected(FaultClass::kCoreFreeze);
    ++inj.stats().freezes;
    if (obs::TraceRecorder* tr = tracer(machine_.engine())) {
      tr->record(machine_.engine().currentTaskId(),
                 obs::TraceEvent{now(), now() + freeze, 0, 0, 0,
                                 obs::kNoTraceResource,
                                 obs::TraceEventKind::kFreeze});
    }
    co_await machine_.engine().delay(freeze);
  }
}

ResumeAt CoreContext::compute(std::uint64_t core_cycles) {
  return spend(machine_.core_clock_.cycles(core_cycles));
}

ResumeAt CoreContext::computeOps(std::uint64_t count, OpClass cls) {
  return compute(count * opCycles(machine_.config(), cls));
}

SubTask CoreContext::privRead(std::uint64_t addr, void* out, std::size_t bytes) {
  machine_.checkPrivRange(addr, bytes);
  return priv(addr, out, nullptr, bytes, false);
}

SubTask CoreContext::privWrite(std::uint64_t addr, const void* src, std::size_t bytes) {
  machine_.checkPrivRange(addr, bytes);
  return priv(addr, nullptr, src, bytes, true);
}

SubTask CoreContext::privTouch(std::uint64_t addr, std::size_t bytes, bool write) {
  machine_.checkPrivRange(addr, bytes);
  return priv(addr, nullptr, nullptr, bytes, write);
}

SubTask CoreContext::priv(std::uint64_t addr, void* out, const void* src, std::size_t bytes,
                          bool write) {
  if (lag_ > 0) co_await payLag();
  co_await machine_.engine().resumeAt(
      machine_.privAccessCompletion(core_, now(), addr, bytes, write, out, src));
}

/// One attempt of a data transfer: the functional copy plus its timed run.
/// Fault-free ops drive it inline (no extra coroutine frame);
/// verifiedTransfer drives it once per attempt. A write's payload lands
/// before the run and a read's result after it; a bulk burst copies inside
/// shmBulkCompletion. Swcache line transfers (fills and write-backs) are a
/// timing-only run: their data moves in the functional phase.
struct CoreContext::Transfer {
  enum class Run : std::uint8_t { kShmWords, kMpbChunks, kSwcacheLines, kShmBulk };
  Run run;
  int owner;             ///< kMpbChunks: UE owning the MPB slice
  std::uint64_t offset;  ///< shared-DRAM offset / offset in the owner's slice
  void* out;             ///< read destination (nullptr: timing only)
  const void* src;       ///< write payload (nullptr: timing only)
  std::size_t bytes;
  bool write;
  std::size_t units = 0;  ///< transactions per attempt (a bulk burst is one)
  std::size_t left = 0;   ///< transactions still to service this attempt
  std::uint64_t cur = 0;  ///< offset of the next uncached word

  /// `n` swcache line transfers against the core's own controller.
  static Transfer lines(std::size_t n) {
    return {Run::kSwcacheLines, 0, 0, nullptr, nullptr, 0, false, n};
  }
  [[nodiscard]] std::uint8_t* memory(SccMachine& m) const {
    return run == Run::kMpbChunks ? m.mpbData(owner, offset) : m.shmData(offset);
  }
  /// Armed class and a caller-side buffer to check: the verified path.
  /// Shared-DRAM reads are never verified.
  [[nodiscard]] bool verifiedUnder(const FaultInjector& inj, FaultClass cls) const {
    return (write || run == Run::kMpbChunks) && (write ? src : out) != nullptr &&
           bytes > 0 && inj.anyArmed() && inj.armed(cls);
  }
  void begin(SccMachine& m) {
    left = units;
    cur = offset;
    if (run != Run::kShmBulk && write && src != nullptr) std::memcpy(memory(m), src, bytes);
  }
  /// Service the next batch through SccMachine::timedRun (as many
  /// transactions as the batching rule proves exact, issuing the first at
  /// ctx.now(): the lag is paid in this event or by the suspension);
  /// returns the resume.
  ResumeAt step(CoreContext& ctx) {
    SccMachine& m = ctx.machine_;
    const Tick start = ctx.now();
    ctx.lag_ = 0;
    SccMachine::RunParams params;
    std::size_t max_txns = left;
    switch (run) {
      case Run::kShmWords: {
        // Without a routing placement: the exact legacy path,
        // offset-independent requester-local routing.
        std::uint32_t mc = m.controllerOfCore(ctx.core_);
        if (m.ctrl_placement_active_) {
          // A first-touch claim must be made in engine order, at `start`:
          // pay the lag by suspending first.
          if (start > m.engine().now() && m.firstTouchUnclaimed(cur)) {
            return ResumeAt{m.engine(), start};
          }
          mc = m.controllerForShmAccess(ctx.core_, cur);
          // Striped / first-touch regions switch controllers at stripe
          // boundaries, so one run must not cross the current stripe's end.
          // Accesses never straddle a region boundary (regions are whole
          // translated variables), so a single range lookup covers the run.
          const std::size_t txn = m.config().shm_transaction_bytes;
          const std::uint64_t stripe_bytes = m.config().shm_controller_stripe_bytes;
          const std::uint64_t stripe_end = (cur / stripe_bytes + 1) * stripe_bytes;
          max_txns = std::min(
              max_txns, static_cast<std::size_t>((stripe_end - cur + txn - 1) / txn));
        }
        params = m.wordRun(ctx.core_, mc);
        break;
      }
      case Run::kMpbChunks: {
        params = m.chunkRun(ctx.core_, owner);
        // The declared scope is a promise the engine's reach sets rely on
        // (an empty declared set promises no MPB traffic at all); still
        // service the access, but flag that port isolation is void.
        const auto ue = static_cast<std::size_t>(ctx.ue_);
        if (m.mpb_scope_declared_ && ue < m.ue_port_reach_.size() &&
            !std::binary_search(m.ue_port_reach_[ue].begin(), m.ue_port_reach_[ue].end(),
                                params.resource)) {
          ++m.mpb_scope_violations_;
        }
        break;
      }
      case Run::kSwcacheLines:
        params = m.lineRun(ctx.core_);
        break;
      case Run::kShmBulk:
        // A bulk burst is one transaction (its lag was paid before: bulk()).
        left = 0;
        return ResumeAt{m.engine(),
                        m.shmBulkCompletion(ctx.core_, start, offset, bytes, write, out, src)};
    }
    std::size_t done = 0;
    const ResumeAt resume = m.timedRun(params, start, max_txns, &done);
    cur += static_cast<std::uint64_t>(done) * m.config().shm_transaction_bytes;
    left -= done;
    return resume;
  }
  void end(SccMachine& m) {
    if (run != Run::kShmBulk && !write && out != nullptr) std::memcpy(out, memory(m), bytes);
  }
};

namespace {

std::string rangeText(std::uint64_t offset, std::size_t bytes) {
  return "[" + std::to_string(offset) + ", " + std::to_string(offset + bytes) + ")";
}

}  // namespace

void CoreContext::checkShmRange(std::uint64_t offset, std::size_t bytes) const {
  const std::uint64_t brk = machine_.shm_brk_;
  if (offset > brk || bytes > brk - offset) {
    throw std::out_of_range("shared-memory access " + rangeText(offset, bytes) +
                            " passes the allocated break " + std::to_string(brk));
  }
}

void CoreContext::checkMpbRange(int owner_ue, std::uint64_t offset,
                                std::size_t bytes) const {
  if (owner_ue < 0 || owner_ue >= num_ues_) {
    throw std::out_of_range("MPB access to UE " + std::to_string(owner_ue) +
                            " outside the launched UEs [0, " + std::to_string(num_ues_) +
                            ")");
  }
  const std::uint64_t slice = machine_.config().mpb_bytes_per_core;
  if (offset > slice || bytes > slice - offset) {
    throw std::out_of_range("MPB access " + rangeText(offset, bytes) +
                            " passes the " + std::to_string(slice) + "-byte slice of UE " +
                            std::to_string(owner_ue));
  }
}

SubTask CoreContext::shmRead(std::uint64_t offset, void* out, std::size_t bytes) {
  checkShmRange(offset, bytes);
  return access({Transfer::Run::kShmWords, 0, offset, out, nullptr, bytes, false});
}

SubTask CoreContext::shmWrite(std::uint64_t offset, const void* src, std::size_t bytes) {
  checkShmRange(offset, bytes);
  return access({Transfer::Run::kShmWords, 0, offset, nullptr, src, bytes, true});
}

SubTask CoreContext::mpbRead(int owner_ue, std::uint64_t offset, void* out,
                             std::size_t bytes) {
  checkMpbRange(owner_ue, offset, bytes);
  return access({Transfer::Run::kMpbChunks, owner_ue, offset, out, nullptr, bytes, false});
}

SubTask CoreContext::mpbWrite(int owner_ue, std::uint64_t offset, const void* src,
                              std::size_t bytes) {
  checkMpbRange(owner_ue, offset, bytes);
  return access({Transfer::Run::kMpbChunks, owner_ue, offset, nullptr, src, bytes, true});
}

SubTask CoreContext::access(Transfer x) {
  const bool mpb = x.run == Transfer::Run::kMpbChunks;
  // Race check once per logical operation, at initiation (before any retry
  // or coalescing-dependent resumption): a fault-retried store is one
  // logical write, and the checked stream is identical across coalescing
  // modes.
  machine_.noteDrf(mpb ? drf::mpbSpace(x.owner) : drf::kSpaceShm, x.offset, x.bytes,
                   x.write, now());
  if (machine_.faultsActive()) co_await faultPreOp();
  if (!mpb && machine_.shmCached(x.offset)) {
    co_await swcacheRw(x.offset, x.out, x.src, x.bytes, x.write);
    co_return;
  }
  const Tick t0 = now();
  const std::size_t unit =
      mpb ? machine_.config().cache_line_bytes : machine_.config().shm_transaction_bytes;
  x.units = x.bytes == 0 ? 0 : (x.bytes + unit - 1) / unit;
  const FaultClass cls = mpb ? FaultClass::kMpbTransfer : FaultClass::kShmWrite;
  std::uint32_t attempts = 1;
  if (x.verifiedUnder(machine_.faultInjector(), cls)) {
    // A write verifies the landed memory against its payload, an MPB get
    // its landed buffer against the MPB (rcce::put/get wrap these paths).
    std::uint8_t* memory = x.memory(machine_);
    co_await verifiedTransfer(cls, mpb ? mpb_xfer_seq_ : shm_write_seq_, x,
                              x.write ? memory : x.out, x.write ? x.src : memory,
                              attempts);
  } else {
    for (x.begin(machine_); x.left > 0;) co_await x.step(*this);
    x.end(machine_);
  }
  if (machine_.observing()) {
    using Kind = obs::TraceEventKind;
    machine_.recordOp(
        core_,
        obs::TraceEvent{t0, now(), x.offset, x.units,
                        mpb ? static_cast<std::uint64_t>(x.owner) : (x.write ? attempts : 0),
                        mpb ? machine_.mpbPortIdOf(x.owner)
                            : machine_.shmControllerOf(core_, x.offset),
                        mpb ? (x.write ? Kind::kMpbPut : Kind::kMpbGet)
                            : (x.write ? Kind::kShmWrite : Kind::kShmRead)},
        attempts);
  }
}

SubTask CoreContext::verifiedTransfer(FaultClass cls, std::uint64_t& seq, Transfer& x,
                                      void* landed, const void* expected,
                                      std::uint32_t& attempts) {
  // Transient transfer faults corrupt the landed bytes; an exact compare
  // against the expected bytes detects it and the transfer retries with
  // exponential backoff in simulated ticks. The verify is modeled untimed —
  // redundancy the hardware store/DMA path provides — so zero-rate fault
  // runs add no simulated time. Draws are keyed by (UE, transfer, attempt).
  FaultInjector& inj = machine_.faultInjector();
  const auto stream = static_cast<std::uint64_t>(ue_);
  const std::uint64_t xfer = seq++;
  std::uint64_t faults_here = 0;
  for (std::uint32_t attempt = 0;; ++attempt) {
    for (x.begin(machine_); x.left > 0;) co_await x.step(*this);
    x.end(machine_);
    attempts = attempt + 1;
    const std::uint64_t draw = (xfer << 16) ^ attempt;
    if (inj.fires(cls, stream, draw, now())) {
      inj.corruptBytes(landed, x.bytes, cls, stream, draw);
      inj.noteInjected(cls);
      ++faults_here;
      machine_.traceFaultInstant(obs::TraceEventKind::kFaultInject, cls);
    }
    if (std::memcmp(landed, expected, x.bytes) == 0) {
      inj.stats().recovered[static_cast<std::size_t>(cls)] += faults_here;
      co_return;
    }
    if (attempt >= inj.maxRetries()) {
      // Retry budget exhausted: record it for the harness to gate on (no
      // exception — coroutine frames must not throw; see engine.h).
      ++inj.stats().unrecovered;
      co_return;
    }
    ++inj.stats().retries;
    machine_.traceFaultInstant(obs::TraceEventKind::kFaultRetry, cls);
    co_await machine_.engine().delay(inj.backoff(attempt));
  }
}

SubTask CoreContext::swcacheRw(std::uint64_t offset, void* out, const void* src,
                               std::size_t bytes, bool write) {
  // Functional phase: serve the whole access against the line store now (one
  // atomic snapshot, the same granularity the uncached path's single memcpy
  // has — racy interleavings below sync granularity are outside the DRF
  // contract either way). The plan records what to charge.
  const Tick t0 = now();
  const SwCache::AccessPlan plan =
      machine_.swcacheAccess(core_, offset, bytes, write, out, src);
  // Timed phase: aggregated hit-touch time first (local work, like a
  // compute), then the batched line transfers.
  co_await spend(machine_.swcacheHitTicks(plan.hit_touches));
  Transfer x = Transfer::lines(plan.line_txns);
  for (x.begin(machine_); x.left > 0;) co_await x.step(*this);
  if (machine_.observing()) {
    machine_.recordOp(core_, obs::TraceEvent{t0, now(), offset, plan.hit_touches,
                                             plan.line_txns, machine_.controllerOfCore(core_),
                                             write ? obs::TraceEventKind::kSwcacheWrite
                                                   : obs::TraceEventKind::kSwcacheRead});
  }
}

SubTask CoreContext::swcacheRelease() {
  FaultInjector& inj = machine_.faultInjector();
  const Tick t0 = now();
  Transfer x = Transfer::lines(inj.anyArmed() && inj.armed(FaultClass::kSwcacheFlush)
                                   ? machine_.swcacheFlushChecked(core_, flush_seq_++)
                                   : machine_.swcacheFlush(core_));
  for (x.begin(machine_); x.left > 0;) co_await x.step(*this);
  if (machine_.observing()) {
    machine_.recordOp(core_, obs::TraceEvent{t0, now(), x.units, 0, 0,
                                             machine_.controllerOfCore(core_),
                                             obs::TraceEventKind::kSwcacheFlush});
  }
}

namespace {

/// Span of a bulk burst: a=offset b=lines.
obs::TraceEvent bulkSpan(SccMachine& m, int core, Tick start, Tick end,
                         std::uint64_t offset, std::size_t bytes, bool write) {
  const std::size_t line = m.config().cache_line_bytes;
  return obs::TraceEvent{start, end, offset, bytes == 0 ? 0 : (bytes + line - 1) / line,
                         0, m.shmControllerOf(core, offset),
                         write ? obs::TraceEventKind::kShmBulkWrite
                               : obs::TraceEventKind::kShmBulkRead};
}

}  // namespace

SubTask CoreContext::shmReadBulk(std::uint64_t offset, void* out, std::size_t bytes) {
  checkShmRange(offset, bytes);
  return bulk(offset, out, nullptr, bytes, false);
}

SubTask CoreContext::shmWriteBulk(std::uint64_t offset, const void* src, std::size_t bytes) {
  checkShmRange(offset, bytes);
  return bulk(offset, nullptr, src, bytes, true);
}

SubTask CoreContext::bulk(std::uint64_t offset, void* out, const void* src,
                          std::size_t bytes, bool write) {
  if (lag_ > 0) co_await payLag();
  const Tick t0 = now();
  machine_.noteDrf(drf::kSpaceShm, offset, bytes, write, t0);
  // Bulk read: write back overlapping dirty lines so the burst observes this
  // core's own program-order-earlier writes (clean copies may stay). Bulk
  // write: additionally drop every overlapping line — the burst supersedes
  // any cached copy, and the prior write-back keeps untouched bytes of
  // partially-overlapped lines correct.
  if (machine_.swcacheActive()) {
    Transfer wb = Transfer::lines(machine_.swcacheSyncRange(core_, offset, bytes, write));
    for (wb.begin(machine_); wb.left > 0;) co_await wb.step(*this);
  }
  Transfer x{Transfer::Run::kShmBulk, 0, offset, out, src, bytes, write, 1};
  std::uint32_t attempts = 1;
  if (x.verifiedUnder(machine_.faultInjector(), FaultClass::kShmWrite)) {
    // Bulk writes share the shm_write fault class with the word path.
    co_await verifiedTransfer(FaultClass::kShmWrite, shm_write_seq_, x,
                              machine_.shmData(offset), src, attempts);
  } else {
    for (x.begin(machine_); x.left > 0;) co_await x.step(*this);
  }
  if (machine_.observing()) {
    machine_.recordOp(core_, bulkSpan(machine_, core_, t0, now(), offset, bytes, write),
                      attempts);
  }
}

SubTask CoreContext::barrier() {
  if (lag_ > 0) co_await payLag();
  // A barrier is both a release (writes before it must become visible) and
  // an acquire (reads after it must not see stale lines).
  const bool reconcile = machine_.swcacheActive();
  if (reconcile) co_await swcacheRelease();
  co_await machine_.barrier().arrive();
  if (reconcile) machine_.swcacheAcquire(core_);
}

SubTask CoreContext::lockAcquire(int lock_id) {
  if (lag_ > 0) co_await payLag();
  co_await machine_.lock(lock_id).acquire();
  if (machine_.swcacheActive()) machine_.swcacheAcquire(core_);
}

SubTask CoreContext::lockRelease(int lock_id) {
  if (lag_ > 0) co_await payLag();
  // The flush completes BEFORE the lock is released: the next holder's
  // acquire-side invalidation then refills from reconciled DRAM.
  if (machine_.swcacheActive()) co_await swcacheRelease();
  machine_.lock(lock_id).release();
}

// ---------------------------------------------------------------------------
// SccMachine
// ---------------------------------------------------------------------------

SccMachine::SccMachine(SccConfig config)
    : config_(config), mesh_(config_), engine_(mesh_.numResources()),
      core_clock_(config_.coreClock()),
      mesh_clock_(config_.meshClock()), dram_clock_(config_.dramClock()) {
  // The shared region grows on demand in shmalloc inside a buffer reserved
  // at the configured capacity, so growth never moves or copies it. A
  // reservation that large gets its own mapping (glibc maps blocks above
  // 32 MB) in which only pages in use are resident: the footprint does not
  // depend on how fragmented the heap is. Consecutive machines on a thread
  // hand the buffer on, already resident.
  shared_dram_.swap(spare_shared_dram);
  shared_dram_.reserve(config_.shared_dram_bytes);
  mpb_.resize(config_.mpbTotalBytes(), 0);
  private_mem_.resize(config_.num_cores);
  // The private caches are built on each core's first private access
  // (privAccessCompletion); their geometry is checked here, so a bad one
  // throws from the constructor instead of from inside a running task.
  Cache::checkedLines(config_.l1_bytes, config_.cache_line_bytes);
  Cache::checkedLines(config_.l2_bytes, config_.cache_line_bytes);
  priv_caches_.resize(config_.num_cores);
  mc_.resize(config_.num_mem_controllers);
  mpb_port_.resize(config_.numTiles());

  // Freeze the per-core NoC timing tables (topology never changes).
  core_mc_.reserve(config_.num_cores);
  core_all_mc_hop_ticks_.reserve(config_.num_cores * config_.num_mem_controllers);
  for (std::uint32_t c = 0; c < config_.num_cores; ++c) {
    core_mc_.push_back(mesh_.controllerOfCore(c));
    for (std::uint32_t mc = 0; mc < config_.num_mem_controllers; ++mc) {
      core_all_mc_hop_ticks_.push_back(mesh_clock_.cycles(
          static_cast<std::uint64_t>(config_.mesh_hop_cycles) *
          mesh_.hopsFromCoreToController(c, mc)));
    }
  }
  mc_traffic_.assign(config_.num_mem_controllers, 0);
  uncached_overhead_ticks_ = core_clock_.cycles(config_.uncached_word_core_overhead_cycles);
  word_service_ticks_ = dram_clock_.cycles(config_.dram_word_service_cycles);
  mpb_overhead_ticks_ = core_clock_.cycles(config_.mpb_local_core_cycles);
  chunk_service_ticks_ = mesh_clock_.cycles(config_.mpb_chunk_service_mesh_cycles);
  swcache_hit_ticks_ = core_clock_.cycles(config_.swcache_hit_core_cycles);
  swcache_line_overhead_ticks_ =
      core_clock_.cycles(config_.swcache_line_core_overhead_cycles);
  line_service_ticks_ = dram_clock_.cycles(config_.dram_line_service_cycles);
  line_shift_ = std::countr_zero(config_.cache_line_bytes);
  l1_hit_ticks_ = core_clock_.cycles(config_.l1_hit_core_cycles);
  l2_hit_ticks_ = core_clock_.cycles(config_.l2_hit_core_cycles);
  dram_overhead_ticks_ = core_clock_.cycles(config_.dram_core_overhead_cycles);
  priv_fill_ticks_[0] = dram_clock_.cycles(config_.dram_line_service_cycles);
  priv_fill_ticks_[1] = dram_clock_.cycles(2ULL * config_.dram_line_service_cycles);
  // Robustness layer: at machine level a drained queue with live tasks is
  // ALWAYS the silent-hang bug (machine tasks never park across run()
  // calls), so hang detection is unconditional; the timeout and watchdog
  // knobs come from the config (off by default).
  fault_ = FaultInjector(config_.fault);
  runs_.resize(mesh_.numResources());
  engine_.setHangDetection(true);
  engine_.setSyncTimeout(config_.sync_timeout_ticks);
  engine_.setWatchdogEventLimit(config_.watchdog_events_per_tick);
  // Observability: the recorder always exists, but the engine only learns
  // about it when tracing is on — disabled runs short-circuit every hook on
  // the null pointer and never reach the recorder's own enabled() check.
  trace_.configure(config_.trace_enabled);
  if (config_.trace_enabled) engine_.setTraceRecorder(&trace_);
  observing_ = config_.trace_enabled;
  // Happens-before race detection (sim/drf/): drf_active_ is the cached
  // hot-path gate of noteDrf; sync objects get the checker pointer at
  // creation (setupBarrier / launch / lock).
  drf_active_ = config_.drf_check;
  drf_.configure(config_.drf_word_granular, config_.cache_line_bytes,
                 config_.shm_transaction_bytes);
  if (drf_active_) {
    engine_.setEventHook([this](Tick when, std::size_t task) {
      if (!drf_pending_.empty()) flushDrf(when, task);
    });
  }
}

void SccMachine::ensureSwcache() {
  if (!swcache_.empty()) return;
  const std::size_t lines = config_.swcache_lines > 0 ? config_.swcache_lines : 1;
  swcache_.reserve(config_.num_cores);
  for (std::uint32_t c = 0; c < config_.num_cores; ++c) {
    swcache_.emplace_back(lines, config_.cache_line_bytes);
  }
}

void SccMachine::addShmRegion(ShmRegion region) {
  using partition::ControllerPlacement;
  // The composition rule: the swcache is private per core, so a cached
  // region's line traffic follows the requesting core.
  if (region.cached) {
    region.placement = ControllerPlacement::kOwnerCompute;
    region.pinned_controller = 0;
  }
  if (region.placement == ControllerPlacement::kPinned &&
      region.pinned_controller >= config_.num_mem_controllers) {
    throw std::invalid_argument("pinned controller out of range");
  }
  if (region.end <= region.begin) return;
  // launch() fixes each task's reach from ctrl_placement_active_, so a
  // routing placement registered later would leave tasks reaching too few
  // controllers.
  const bool routed = region.placement != ControllerPlacement::kOwnerCompute;
  if (routed && !contexts_.empty()) {
    throw std::logic_error("routing placement registered after launch()");
  }
  if (region.cached) {
    // The swcache fills and writes back WHOLE lines, so a cached range is
    // line-granular by construction: round it outward. Any partial head or
    // tail line would be moved in full anyway, and keeping every byte of
    // such a line under the cached discipline prevents cross-policy false
    // sharing — an uncached word sharing a cached line could otherwise be
    // silently reverted by a whole-line write-back.
    const std::uint64_t line = config_.cache_line_bytes;
    region.begin -= region.begin % line;
    region.end = ((region.end + line - 1) / line) * line;
    ensureSwcache();
  }
  ctrl_placement_active_ = ctrl_placement_active_ || routed;
  // An unnamed region blanks the race-report name of what it covers.
  if (drf_active_) drf_.registerRegion(region.name, region.begin, region.end);
  RegionEntry& e = region_table_.emplace_back(RegionEntry{std::move(region), nullptr});
  if (config_.region_metrics && !e.region.name.empty()) {
    e.profile = std::make_unique<obs::RegionProfile>();
    e.profile->name = e.region.name;
    e.profile->begin = e.region.begin;
    e.profile->end = e.region.end;
    e.profile->controller_txns.assign(config_.num_mem_controllers, 0);
    region_profiling_ = true;
    observing_ = true;
  }
}

bool SccMachine::shmRegionNamed(std::string_view name) const {
  return std::any_of(region_table_.begin(), region_table_.end(),
                     [name](const RegionEntry& e) { return e.region.name == name; });
}

SccMachine::~SccMachine() {
  shared_dram_.clear();
  if (shared_dram_.capacity() > spare_shared_dram.capacity()) {
    spare_shared_dram.swap(shared_dram_);
  }
}

std::uint64_t SccMachine::shmalloc(std::size_t bytes, std::size_t align) {
  if (!std::has_single_bit(align)) {
    throw std::invalid_argument("shmalloc alignment must be a power of two");
  }
  if (align < 8) align = 8;
  shm_brk_ = (shm_brk_ + align - 1) & ~static_cast<std::uint64_t>(align - 1);
  return shmalloc(bytes);  // the 8-byte re-align inside is a no-op
}

std::uint64_t SccMachine::shmalloc(std::size_t bytes) {
  shm_brk_ = (shm_brk_ + 7) & ~std::uint64_t{7};
  if (shm_brk_ + bytes > config_.shared_dram_bytes) throw std::bad_alloc();
  const std::uint64_t offset = shm_brk_;
  shm_brk_ += bytes;
  if (shm_brk_ > shared_dram_.size()) {
    // Within the reserved capacity: the buffer never moves. Internal
    // accesses still re-fetch through shmData on every operation.
    shared_dram_.resize(shm_brk_, 0);
  }
  return offset;
}

std::uint64_t SccMachine::mpbMalloc(int ue, std::size_t bytes) {
  if (ue < 0 || static_cast<std::uint32_t>(ue) >= config_.num_cores) {
    throw std::out_of_range("mpbMalloc UE");
  }
  if (mpb_brk_.size() < config_.num_cores) mpb_brk_.resize(config_.num_cores, 0);
  auto& brk = mpb_brk_[static_cast<std::size_t>(ue)];
  brk = (brk + 7) & ~std::uint64_t{7};
  if (brk + bytes > config_.mpb_bytes_per_core) throw std::bad_alloc();
  const std::uint64_t offset = brk;
  brk += bytes;
  return offset;
}

std::uint8_t* SccMachine::mpbData(int ue, std::uint64_t offset) {
  return &mpb_[static_cast<std::size_t>(ue) * config_.mpb_bytes_per_core + offset];
}

void SccMachine::reservePrivate(int core, std::size_t bytes) {
  auto& mem = private_mem_[static_cast<std::size_t>(core)];
  if (bytes > config_.private_mem_bytes) bytes = config_.private_mem_bytes;
  if (mem.size() < bytes) mem.resize(bytes, 0);
}

std::uint8_t* SccMachine::privData(int core, std::uint64_t addr, std::size_t bytes) {
  auto& mem = private_mem_[static_cast<std::size_t>(core)];
  const std::uint64_t end = addr + std::max<std::size_t>(bytes, 1);
  if (end < addr) throw std::out_of_range("private memory address");
  if (end > mem.size()) {
    std::size_t target = mem.empty() ? 4096 : mem.size();
    while (target < end) target *= 2;
    if (target > config_.private_mem_bytes) target = config_.private_mem_bytes;
    if (end > target) throw std::out_of_range("private memory address");
    mem.resize(target, 0);
  }
  return &mem[addr];
}

void SccMachine::checkPrivRange(std::uint64_t addr, std::size_t bytes) const {
  const std::uint64_t cap = config_.private_mem_bytes;
  if (addr > cap || bytes > cap - addr) {
    throw std::out_of_range("private access " + rangeText(addr, bytes) + " passes the " +
                            std::to_string(cap) + "-byte private memory");
  }
}

void SccMachine::setupBarrier(std::vector<std::size_t> participant_tasks) {
  const Tick arrive = core_clock_.cycles(config_.barrier_flag_core_cycles);
  barrier_ = std::make_unique<SyncBarrier>(engine_, std::move(participant_tasks),
                                           arrive, arrive);
  if (drf_active_) barrier_->setDrf(&drf_);
}

void SccMachine::launch(const LaunchSpec& spec) {
  const int num_ues = spec.num_ues;
  // The plan's owner sets ARE the scope promise — including "no MPB
  // traffic at all" (empty sets), under which any MPB access counts as a
  // violation.
  const partition::ExecutionPlan* plan = spec.plan;
  // Place every UE first: a scope may name owner UEs that have not been
  // iterated yet, and coreOfUe must already know their cores.
  ue_to_core_.resize(static_cast<std::size_t>(num_ues));
  for (int ue = 0; ue < num_ues; ++ue) {
    ue_to_core_[static_cast<std::size_t>(ue)] = mesh_.coreForUe(ue, num_ues);
  }
  ue_port_reach_.assign(static_cast<std::size_t>(num_ues), {});
  mpb_scope_declared_ = plan != nullptr;
  std::vector<std::size_t> task_ids;
  task_ids.reserve(static_cast<std::size_t>(num_ues));
  for (int ue = 0; ue < num_ues; ++ue) {
    const std::uint32_t core = ue_to_core_[static_cast<std::size_t>(ue)];
    // A striped, pinned or first-touch region routes this core's words to
    // any controller, so the task must reach them all: otherwise another
    // controller's horizon (nextEventTimeFor) misses it.
    std::vector<std::uint32_t> reach;
    if (ctrl_placement_active_) {
      for (std::uint32_t mc = 0; mc < config_.num_mem_controllers; ++mc) reach.push_back(mc);
    } else {
      reach.push_back(core_mc_[core]);
    }
    if (plan != nullptr) {
      std::vector<std::uint32_t> ports;
      for (const int owner : plan->mpbScopeOwners(ue, num_ues)) {
        ports.push_back(mesh_.portResourceId(mesh_.tileOfCore(coreOfUe(owner))));
      }
      std::sort(ports.begin(), ports.end());
      ports.erase(std::unique(ports.begin(), ports.end()), ports.end());
      reach.insert(reach.end(), ports.begin(), ports.end());
      ue_port_reach_[static_cast<std::size_t>(ue)] = std::move(ports);
    } else {
      for (std::uint32_t tile = 0; tile < mesh_.numTiles(); ++tile) {
        reach.push_back(mesh_.portResourceId(tile));
      }
    }
    contexts_.push_back(
        std::make_unique<CoreContext>(*this, ue, num_ues, static_cast<int>(core)));
    task_ids.push_back(
        engine_.spawn(spec.program(*contexts_.back()), 0, std::move(reach)));
    contexts_.back()->task_ = task_ids.back();
    // Spawn semantics for the race detector: tasks start from untimed host
    // context, so siblings begin mutually concurrent — registration gives
    // each a fresh clock and the UE label used in reports.
    if (drf_active_) drf_.registerTask(task_ids.back(), ue);
  }
  // The barrier's members, and so its waiters' only potential wakers, are
  // exactly the launched tasks.
  setupBarrier(std::move(task_ids));
}

std::uint32_t SccMachine::controllerForShmAccess(int core, std::uint64_t offset) {
  const std::uint32_t own = core_mc_[static_cast<std::size_t>(core)];
  const RegionEntry* e = ctrl_placement_active_ ? regionAt(offset) : nullptr;
  if (e == nullptr) return own;
  switch (e->region.placement) {
    case partition::ControllerPlacement::kOwnerCompute:
      return own;
    case partition::ControllerPlacement::kStriped: {
      const std::uint64_t stripe =
          (offset - e->region.begin) / config_.shm_controller_stripe_bytes;
      return static_cast<std::uint32_t>(stripe % config_.num_mem_controllers);
    }
    case partition::ControllerPlacement::kPinned:
      return e->region.pinned_controller;
    case partition::ControllerPlacement::kFirstTouch: {
      // Claims are deterministic: the engine resumes tasks in strict
      // (time, task_id) order, so "first" is reproducible run to run.
      const std::uint64_t stripe = offset / config_.shm_controller_stripe_bytes;
      return first_touch_claims_.try_emplace(stripe, own).first->second;
    }
  }
  return own;
}

Tick SccMachine::run() {
  // Per-task trace vectors are created once up front (TraceRecorder::prepare).
  if (trace_.enabled()) trace_.prepare(engine_.taskCount());
  engine_.run();
  flushDrf(Engine::kNever, Engine::kNoTask);
  // A task whose last operation was a folded compute completes its lag
  // after its last event.
  for (const std::unique_ptr<CoreContext>& ctx : contexts_) {
    if (ctx->lag_ == 0) continue;
    engine_.extendCompletion(ctx->task_, ctx->lag_);
    ctx->lag_ = 0;
  }
  // End-of-run drain: dirty lines a program never released (it should — see
  // docs/memory_model.md) are written back functionally and untimed so that
  // host-side verification reads final values. Not counted in the stats.
  for (SwCache& c : swcache_) {
    c.flushDirty(shared_dram_.data(), shared_dram_.size(), /*count_stats=*/false);
  }
  return engine_.makespan();
}

const SwCacheStats& SccMachine::swcacheStats(int core) const {
  static const SwCacheStats kEmpty;
  const auto c = static_cast<std::size_t>(core);
  return c < swcache_.size() ? swcache_[c].stats() : kEmpty;
}

SwCacheStats SccMachine::swcacheTotals() const {
  SwCacheStats total;
  for (const SwCache& c : swcache_) total += c.stats();
  return total;
}

std::size_t SccMachine::swcacheDirtyLines(int core) const {
  const auto c = static_cast<std::size_t>(core);
  return c < swcache_.size() ? swcache_[c].dirtyLines() : 0;
}

std::size_t SccMachine::swcacheResidentLines(int core) const {
  const auto c = static_cast<std::size_t>(core);
  return c < swcache_.size() ? swcache_[c].residentLines() : 0;
}

SwCache::AccessPlan SccMachine::swcacheAccess(int core, std::uint64_t offset,
                                              std::size_t bytes, bool write,
                                              void* data_out, const void* data_in) {
  return swcache_[static_cast<std::size_t>(core)].access(
      offset, bytes, write, data_out, data_in, shared_dram_.data(),
      shared_dram_.size(), config_.shm_transaction_bytes);
}

std::size_t SccMachine::swcacheFlush(int core) {
  return swcache_[static_cast<std::size_t>(core)].flushDirty(shared_dram_.data(),
                                                             shared_dram_.size());
}

std::size_t SccMachine::swcacheFlushChecked(int core, std::uint64_t seq) {
  SwCache& c = swcache_[static_cast<std::size_t>(core)];
  flushed_addrs_scratch_.clear();
  std::size_t lines = c.flushDirty(shared_dram_.data(), shared_dram_.size(),
                                   /*count_stats=*/true, &flushed_addrs_scratch_);
  if (flushed_addrs_scratch_.empty()) return lines;
  // Transient DRAM corruption of a just-flushed line, then verify-and-repair
  // restricted to the flushed set (this core's own releases — race-free
  // under DRF, so a re-store can never clobber newer remote data). Each
  // repair is charged as an extra write-back line transfer; re-drawing per
  // attempt lets a corruption strike the repair itself, up to the retry
  // budget.
  const auto stream = static_cast<std::uint64_t>(core);
  std::uint64_t faults_here = 0;
  for (std::uint32_t attempt = 0; attempt <= fault_.maxRetries(); ++attempt) {
    const std::uint64_t draw = (seq << 16) ^ attempt;
    if (!fault_.fires(FaultClass::kSwcacheFlush, stream, draw, engine_.now())) break;
    const std::size_t victim = fault_.pick(flushed_addrs_scratch_.size(),
                                           FaultClass::kSwcacheFlush, stream, draw);
    const std::uint64_t addr = flushed_addrs_scratch_[victim];
    if (addr >= shared_dram_.size()) continue;
    const std::size_t n =
        std::min(config_.cache_line_bytes,
                 static_cast<std::size_t>(shared_dram_.size() - addr));
    fault_.corruptBytes(&shared_dram_[addr], n, FaultClass::kSwcacheFlush, stream,
                        draw);
    fault_.noteInjected(FaultClass::kSwcacheFlush);
    ++faults_here;
    const std::size_t repaired =
        c.restoreCorrupted(flushed_addrs_scratch_, shared_dram_.data(),
                           shared_dram_.size());
    lines += repaired;
    ++fault_.stats().retries;
    traceFaultInstant(obs::TraceEventKind::kFaultInject, FaultClass::kSwcacheFlush);
    traceFaultInstant(obs::TraceEventKind::kFaultRetry, FaultClass::kSwcacheFlush);
  }
  // Every corruption above was repaired before the release takes effect
  // (the repair runs inside the same reconciliation step).
  fault_.stats().recovered[static_cast<std::size_t>(FaultClass::kSwcacheFlush)] +=
      faults_here;
  return lines;
}

void SccMachine::swcacheAcquire(int core) {
  swcache_[static_cast<std::size_t>(core)].invalidateClean();
}

std::size_t SccMachine::swcacheSyncRange(int core, std::uint64_t offset,
                                         std::size_t bytes, bool drop) {
  return swcache_[static_cast<std::size_t>(core)].syncRange(
      offset, bytes, drop, shared_dram_.data(), shared_dram_.size());
}

TasLock& SccMachine::lock(int id) {
  if (id < 0 || static_cast<std::uint32_t>(id) >= config_.num_cores) {
    throw std::out_of_range("lock id");
  }
  const auto index = static_cast<std::size_t>(id);
  while (locks_.size() <= index) {
    const Tick roundtrip = core_clock_.cycles(config_.tas_core_cycles);
    locks_.push_back(std::make_unique<TasLock>(engine_, roundtrip));
    if (drf_active_) locks_.back()->setDrf(&drf_);
  }
  return *locks_[index];
}

Tick SccMachine::privAccessCompletion(int core, Tick start, std::uint64_t addr,
                                      std::size_t bytes, bool write, void* data_out,
                                      const void* data_in) {
  std::optional<PrivateCaches>& caches = priv_caches_[static_cast<std::size_t>(core)];
  if (!caches) {
    caches.emplace(PrivateCaches{Cache(config_.l1_bytes, config_.cache_line_bytes),
                                 Cache(config_.l2_bytes, config_.cache_line_bytes)});
  }
  const std::uint32_t mc_id = core_mc_[static_cast<std::size_t>(core)];
  ResourceTimeline& mc = mc_[mc_id];
  const Tick hop_one_way = hopTicks(core, mc_id);

  Tick t = start;
  const std::uint64_t first_line = addr >> line_shift_;
  const std::uint64_t last_line = (addr + (bytes == 0 ? 0 : bytes - 1)) >> line_shift_;
  for (std::uint64_t ln = first_line; ln <= last_line; ++ln) {
    const std::uint64_t line_addr = ln << line_shift_;
    if (caches->l1.access(line_addr, write).hit) {
      t += l1_hit_ticks_;
      continue;
    }
    const Cache::AccessResult r2 = caches->l2.access(line_addr, write);
    t += l2_hit_ticks_;
    if (r2.hit) continue;
    // Line fill from private DRAM; a dirty victim adds a write-back burst.
    const Tick request_arrival = t + dram_overhead_ticks_ + hop_one_way;
    t = mc.acquire(request_arrival, priv_fill_ticks_[r2.writeback ? 1 : 0]) + hop_one_way;
  }

  if (bytes == 0) return t;
  if (write && data_in != nullptr) {
    std::memcpy(privData(core, addr, bytes), data_in, bytes);
  } else if (!write && data_out != nullptr) {
    std::memcpy(data_out, privData(core, addr, bytes), bytes);
  }
  return t;
}

Tick SccMachine::stallTicks(std::uint32_t resource, std::size_t task, Tick arrival,
                            std::uint64_t request, Tick service) {
  const Tick extra = fault_.stallTicks(resource, request, arrival, service);
  if (extra > 0) {
    fault_.noteInjected(FaultClass::kMcStall);
    fault_.stats().stall_ticks += extra;
    if (obs::TraceRecorder* tr = tracer(engine_)) {
      tr->record(task, obs::TraceEvent{arrival, arrival, extra, 0, 0, resource,
                                       obs::TraceEventKind::kMcStall});
    }
  }
  return extra;
}

ResumeAt SccMachine::timedRun(const RunParams& run, Tick start, std::size_t max_txns,
                              std::size_t* done) {
  // The one batching rule (header comment at RunKind).
  const std::uint32_t resource = run.resource;
  const std::uint32_t mcs = config_.num_mem_controllers;
  ResourceTimeline& timeline = resource < mcs ? mc_[resource] : mpb_port_[resource - mcs];
  RunTally& tally = tally_[static_cast<std::size_t>(run.kind)];
  const std::size_t self = engine_.currentTaskId();
  if (self >= run_of_task_.size()) run_of_task_.resize(self + 1, kNoRun);
  std::vector<TxnRun>& runs = runs_[resource];
  // 1. The caller's own record: a continuation, a run registered when its
  // lag could not be paid, or transactions a peer's replay already serviced
  // for it (its pending event was deferred to their end, which is now).
  std::size_t reported = 0;
  if (const std::size_t i = run_of_task_[self]; i != kNoRun) {
    assert(runs[i].task == self && runs[i].t == start &&
           runs[i].remaining + runs[i].done == max_txns);
    reported = runs[i].done;
    run_of_task_[self] = kNoRun;
    runs[i] = runs.back();
    runs.pop_back();
    if (i < runs.size()) run_of_task_[runs[i].task] = i;
  }
  if (reported == max_txns) {
    ++tally.events;
    *done = reported;
    return ResumeAt{engine_, start};
  }
  const std::size_t left = max_txns - reported;
  // Memory-controller stall faults: keyed by (resource id, per-resource
  // transaction index). The transaction order per resource is identical
  // across coalescing modes (the coalescing invariant), so the stall
  // schedule, and with it every Tick, is too. An armed fault stops the
  // folding, so a stalled run never starts on a lag.
  const bool stalls = fault_.armed(FaultClass::kMcStall);

  // 2. The per-event path: one transaction in the running event, no horizon
  // scan, no registered run. A lag (a start past the running event's Tick)
  // is paid in this event only strictly before the engine's cheap lower
  // bound on the horizon; otherwise the task suspends to it.
  if (!config_.coalescing || left <= kShortRun) {
    if (start > engine_.now() && start >= engine_.horizonLowerBound(resource)) {
      *done = 0;
      return ResumeAt{engine_, start, scopeAfter(run, start, left)};
    }
    ++tally.events;
    const Tick arrival = start + run.overhead + run.hop;
    Tick service = run.service;
    if (stalls) service += stallTicks(resource, self, arrival, timeline.requests(), service);
    const Tick t = timeline.acquire(arrival, service) + run.hop;
    countTxns(resource, run.kind, 1);
    *done = reported + 1;
    return ResumeAt{engine_, t, scopeAfter(run, t, left - 1)};
  }

  // 3. Members and one horizon scan: the caller and every registered run
  // with transactions left (a finished one is a non-member until it
  // resumes); H is the horizon over everyone else. Any H at or below
  // `start` replays the same (only the caller's first transaction) and
  // decides a lag the same, so the scan may stop there.
  replay_tasks_.assign(1, self);
  replay_runs_.clear();
  Tick peers_next = Engine::kNever;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const TxnRun& r = runs[i];
    if (r.remaining == 0) continue;
    peers_next = std::min(peers_next, r.t);
    replay_tasks_.push_back(r.task);
    replay_runs_.push_back(i);
  }
  const Tick horizon = engine_.nextEventTimeFor(resource, replay_tasks_, start);
  // 4. Lag: paid in this event only strictly before the single-task horizon,
  // H bounded by every peer's next issue. Otherwise the run is registered
  // at its start, so a peer's replay carries it in (t, task id) order.
  if (start > engine_.now() && start >= std::min(horizon, peers_next)) {
    run_of_task_[self] = runs.size();
    runs.push_back({self, run, start, left, 0});
    *done = 0;
    return ResumeAt{engine_, start, scopeAfter(run, start, left)};
  }
  // 5. Replay: the caller alone when H falls strictly before every peer's
  // next issue (no peer could issue inside the replay), else jointly.
  ++tally.events;
  std::vector<ReplayMember>& members = replay_members_;
  members.assign(1, ReplayMember{self, start, run.overhead, run.hop, run.service, left, true});
  if (peers_next <= horizon) {
    for (const std::size_t i : replay_runs_) {
      const TxnRun& r = runs[i];
      members.push_back({r.task, r.t, r.run.overhead, r.run.hop, r.run.service, r.remaining,
                         false});
    }
  }
  ReplayStallFn stall;
  if (stalls) {
    stall = [this, resource](const ReplayMember& m, Tick arrival, std::uint64_t request) {
      return stallTicks(resource, m.task, arrival, request, m.service);
    };
  }
  replayJointRuns(members, timeline, horizon, stall);

  // 6. Settle. members[0] is the caller; registering its rest appends to
  // runs, so the peers' saved indices stay valid.
  const ReplayMember& me = members[0];
  countTxns(resource, run.kind, me.done);
  if (me.remaining > 0) {
    run_of_task_[self] = runs.size();
    runs.push_back({self, run, me.t, me.remaining, 0});
  }
  *done = reported + me.done;
  const ResumeAt resume{engine_, me.t, scopeAfter(run, me.t, me.remaining)};
  for (std::size_t i = 1; i < members.size(); ++i) {
    const ReplayMember& m = members[i];
    if (m.done == 0) continue;  // untouched: its record and pending event still hold
    TxnRun& r = runs[replay_runs_[i - 1]];
    countTxns(resource, r.run.kind, m.done);
    r.t = m.t;
    r.remaining = m.remaining;
    r.done += m.done;
    engine_.deferPending(m.task, m.t, scopeAfter(r.run, m.t, m.remaining));
  }
  return resume;
}

bool SccMachine::firstTouchUnclaimed(std::uint64_t offset) const {
  const RegionEntry* e = regionAt(offset);
  return e != nullptr && e->region.placement == partition::ControllerPlacement::kFirstTouch &&
         !first_touch_claims_.contains(offset / config_.shm_controller_stripe_bytes);
}

SccMachine::RunParams SccMachine::chunkRun(int core, int owner_ue) const {
  const std::uint32_t owner_core = coreOfUe(owner_ue);
  const std::uint32_t hops = mesh_.hopsBetweenCores(static_cast<std::uint32_t>(core), owner_core);
  return {mesh_.portResourceId(mesh_.tileOfCore(owner_core)), RunKind::kChunk,
          mpb_overhead_ticks_,
          mesh_clock_.cycles(static_cast<std::uint64_t>(config_.mesh_hop_cycles) * hops),
          chunk_service_ticks_};
}

Tick SccMachine::shmBulkCompletion(int core, Tick start, std::uint64_t offset,
                                   std::size_t bytes, bool write, void* data_out,
                                   const void* data_in) {
  // One setup round trip, then lines stream at row-buffer-hit rates. A
  // placement-routed region streams the whole burst through the controller
  // serving its FIRST byte (one row activation, one stream — splitting a
  // burst across controllers would forfeit the row-buffer hits the bulk
  // path models).
  const std::uint32_t mc_id = ctrl_placement_active_
                                  ? controllerForShmAccess(core, offset)
                                  : core_mc_[static_cast<std::size_t>(core)];
  ResourceTimeline& mc = mc_[mc_id];
  const Tick hop_one_way = hopTicks(core, mc_id);
  const std::size_t line = config_.cache_line_bytes;
  const std::size_t lines = (bytes + line - 1) / line;
  shm_bulk_lines_ += lines;
  mc_traffic_[mc_id] += lines;
  const Tick service =
      dram_clock_.cycles(config_.dram_line_service_cycles +
                         (lines > 0 ? lines - 1 : 0) * config_.dram_burst_line_service_cycles);

  Tick t = start + core_clock_.cycles(config_.dram_core_overhead_cycles);
  const Tick serviced = mc.acquire(t + hop_one_way, service);
  t = serviced + hop_one_way;

  if (write && data_in != nullptr) {
    std::memcpy(&shared_dram_[offset], data_in, bytes);
  } else if (!write && data_out != nullptr) {
    std::memcpy(data_out, &shared_dram_[offset], bytes);
  }
  return t;
}

// ---------------------------------------------------------------------------
// Observability: trace export + per-region profiling
// ---------------------------------------------------------------------------

void SccMachine::writeTrace(std::ostream& out) const {
  trace_.writeChromeJson(out, config_.num_mem_controllers);
}

std::vector<obs::RegionProfile> SccMachine::shmRegionProfiles() const {
  std::vector<obs::RegionProfile> profiles;
  for (const RegionEntry& e : region_table_) {
    if (e.profile != nullptr) profiles.push_back(*e.profile);
  }
  return profiles;
}

void SccMachine::recordOp(int core, const obs::TraceEvent& op, std::uint32_t attempts) {
  if (obs::TraceRecorder* tr = tracer(engine_)) tr->record(engine_.currentTaskId(), op);
  if (!region_profiling_) return;
  using Kind = obs::TraceEventKind;
  bool write = false;
  switch (op.kind) {
    case Kind::kShmWrite:
    case Kind::kShmBulkWrite:
    case Kind::kSwcacheWrite:
      write = true;
      break;
    case Kind::kShmRead:
    case Kind::kShmBulkRead:
    case Kind::kSwcacheRead:
      break;
    default:
      return;  // no shared-DRAM offset in a=
  }
  const RegionEntry* e = regionAt(op.a);
  if (e == nullptr || e->profile == nullptr) return;
  obs::RegionProfile* region = e->profile.get();
  (write ? region->writes : region->reads) += attempts;
  if (op.kind == Kind::kSwcacheRead || op.kind == Kind::kSwcacheWrite) {
    region->hits += op.b;
    region->misses += op.c;
    // Cached regions fill requester-locally regardless of placement (the
    // composition rule in docs/execution_plan.md): resource is core's own.
    region->controller_txns[op.resource] += op.c;
    return;
  }
  const std::uint64_t units = op.b * attempts;
  if (op.kind == Kind::kShmBulkRead || op.kind == Kind::kShmBulkWrite) {
    region->bulk_lines += units;
    region->controller_txns[op.resource] += units;
    return;
  }
  (write ? region->write_words : region->read_words) += units;
  if (!ctrl_placement_active_) {
    region->controller_txns[op.resource] += units;
    return;
  }
  // Placement-routed regions switch controllers at stripe boundaries: walk
  // the stripes the access covers. Recorded post-access, so first-touch
  // claims are already made and the controller lookup is a pure function.
  const std::size_t txn = config_.shm_transaction_bytes;
  const std::uint64_t stripe_bytes = config_.shm_controller_stripe_bytes;
  std::uint64_t cur = op.a;
  std::size_t left = op.b;
  while (left > 0) {
    const std::uint64_t stripe_end = (cur / stripe_bytes + 1) * stripe_bytes;
    const auto in_stripe =
        static_cast<std::size_t>((stripe_end - cur + txn - 1) / txn);
    const std::size_t take = std::min(left, in_stripe);
    region->controller_txns[controllerForShmAccess(core, cur)] += take * attempts;
    left -= take;
    cur += static_cast<std::uint64_t>(take) * txn;
  }
}

void SccMachine::traceFaultInstant(obs::TraceEventKind kind, FaultClass cls) {
  if (obs::TraceRecorder* tr = tracer(engine_)) {
    tr->record(engine_.currentTaskId(),
               obs::TraceEvent{engine_.now(), engine_.now(),
                               static_cast<std::uint64_t>(cls), 0, 0,
                               obs::kNoTraceResource, kind});
  }
}

void SccMachine::drfAccess(drf::Space space, std::uint64_t offset, std::size_t bytes,
                           bool write, Tick at) {
  const std::size_t task = engine_.currentTaskId();
  // Untimed host-context accesses (setup/verification) are outside the
  // happens-before model — the launch boundary orders them anyway.
  if (task == Engine::kNoTask) return;
  const DrfAccess a{at, task, space, offset, bytes, write};
  if (at == engine_.now()) {
    drfCheck(a);
    return;
  }
  // Issued ahead of its Tick (a folded compute): other tasks may still act
  // before it in the reference order, so check it when the engine gets there.
  const auto later = std::upper_bound(
      drf_pending_.begin(), drf_pending_.end(), a, [](const DrfAccess& x, const DrfAccess& y) {
        return x.at < y.at || (x.at == y.at && x.task < y.task);
      });
  drf_pending_.insert(later, a);
}

void SccMachine::flushDrf(Tick when, std::size_t task) {
  std::size_t n = 0;
  while (n < drf_pending_.size() &&
         (drf_pending_[n].at < when ||
          (drf_pending_[n].at == when && drf_pending_[n].task <= task))) {
    drfCheck(drf_pending_[n++]);
  }
  drf_pending_.erase(drf_pending_.begin(), drf_pending_.begin() + static_cast<std::ptrdiff_t>(n));
}

// Untimed: the race check reads the access's Tick but never moves time, so a
// drf run simulates the exact Ticks of the unchecked run it observes.
void SccMachine::drfCheck(const DrfAccess& a) {
  const bool cached = a.space == drf::kSpaceShm && shmCached(a.offset);
  const std::size_t fresh =
      drf_.access(a.task, a.space, a.offset, a.bytes, a.write, cached, a.at);
  obs::TraceRecorder* tr = tracer(engine_);
  if (fresh == 0 || tr == nullptr) return;
  // One kRace trace instant per freshly appended report.
  const std::vector<drf::RaceReport>& reports = drf_.reports();
  for (std::size_t i = reports.size() - fresh; i < reports.size(); ++i) {
    const drf::RaceReport& r = reports[i];
    tr->record(a.task, obs::TraceEvent{a.at, a.at, r.granule_begin,
                                       static_cast<std::uint64_t>(r.kind), r.prior.task,
                                       obs::kNoTraceResource, obs::TraceEventKind::kRace});
  }
}

}  // namespace hsm::sim
