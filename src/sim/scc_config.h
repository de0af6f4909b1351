// SCC platform parameters (paper Table 6.1 plus the published latency
// figures from Howard et al. [13] and Mattson et al. [19]).
//
// The cores are P54C Pentiums at 800 MHz; the 6x4 tile mesh runs at
// 1600 MHz; four DDR3 controllers at the mesh periphery run at 1066 MHz.
// Each tile holds two cores and 16 KB of MPB (8 KB per core).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/fault/fault.h"
#include "sim/time.h"

namespace hsm::sim {

struct SccConfig {
  // -- topology --
  std::uint32_t num_cores = 48;
  std::uint32_t mesh_cols = 6;
  std::uint32_t mesh_rows = 4;
  std::uint32_t cores_per_tile = 2;
  std::uint32_t num_mem_controllers = 4;

  // -- clocks (Table 6.1) --
  double core_mhz = 800.0;
  double mesh_mhz = 1600.0;
  double dram_mhz = 1066.0;

  // -- capacities --
  std::size_t mpb_bytes_per_core = 8 * 1024;    // 8 KB/core, 384 KB total
  std::size_t l1_bytes = 16 * 1024;             // P54C: 8K I + 8K D; model 16K D
  std::size_t l2_bytes = 256 * 1024;
  std::size_t cache_line_bytes = 32;
  std::size_t private_mem_bytes = 16 * 1024 * 1024;   // per-core private DRAM
  std::size_t shared_dram_bytes = 64 * 1024 * 1024;   // off-chip shared region

  // -- latency parameters (cycles in their own clock domain) --
  std::uint32_t l1_hit_core_cycles = 1;
  std::uint32_t l2_hit_core_cycles = 18;
  /// Non-pipelined P54C front-side overhead per cached-line DRAM fill.
  std::uint32_t dram_core_overhead_cycles = 80;
  /// Issue overhead of one uncached shared-memory transaction (the SCC's
  /// shared pages bypass the cache; the MIU pipelines these requests).
  std::uint32_t uncached_word_core_overhead_cycles = 12;
  /// Controller service per 32-byte line (row access + burst).
  std::uint32_t dram_line_service_cycles = 26;
  /// Controller service for a single uncached word (shared off-chip access):
  /// bank interleaving pipelines independent word transactions, but per byte
  /// this is still ~4x worse than bulk line streaming.
  std::uint32_t dram_word_service_cycles = 8;
  /// Controller service per *subsequent* line of a sequential bulk transfer
  /// (row-buffer hits) — the mechanism behind RCCE's fast bulk copies.
  std::uint32_t dram_burst_line_service_cycles = 8;
  /// Bytes moved per uncached shared-memory transaction (an 8-byte FSB beat).
  std::uint32_t shm_transaction_bytes = 8;
  /// Stripe granularity of the striped / first-touch controller placements
  /// (partition::ControllerPlacement): consecutive stripes of a planned
  /// region rotate across (striped) or are claimed by (first-touch) the
  /// memory controllers. Only consulted for regions registered with a
  /// non-default placement; unplanned regions always use the accessing
  /// core's own quadrant controller.
  std::size_t shm_controller_stripe_bytes = 64;
  /// Mesh hop latency (one direction, per hop).
  std::uint32_t mesh_hop_cycles = 4;
  /// Local MPB access (core to its own tile's buffer), round trip.
  std::uint32_t mpb_local_core_cycles = 15;
  /// MPB port service per 32-byte chunk (bulk moves pipeline well).
  std::uint32_t mpb_chunk_service_mesh_cycles = 8;
  /// Test-and-set register round-trip base cost.
  std::uint32_t tas_core_cycles = 20;
  /// Barrier bookkeeping per participant (flag writes through the MPB).
  std::uint32_t barrier_flag_core_cycles = 30;

  // -- software-managed release-consistency cache for shared memory --
  // (sim/swcache/swcache.h; docs/memory_model.md states the DRF contract.)
  // Which shared ranges it serves is per region, never machine-wide: the
  // regions SccMachine::addShmRegion registers cached, as plan-carrying
  // rcce::ShmArrays do for kOffChipCached regions. Every other offset stays
  // on the uncached word-granular path.
  /// Per-core swcache capacity in cache lines (x cache_line_bytes bytes;
  /// the default 512 x 32 B = 16 KB mirrors the modeled private L1).
  std::uint32_t swcache_lines = 512;
  /// Core cycles per swcache line *touch* that hits (the data sits in the
  /// core's fast private memory; a touch serves every word of the access
  /// that falls in that line).
  std::uint32_t swcache_hit_core_cycles = 2;
  /// Issue overhead of one swcache line transfer (fill or dirty write-back).
  /// Smaller than dram_core_overhead_cycles because the MIU pipelines the
  /// software-issued line requests like it pipelines uncached words.
  std::uint32_t swcache_line_core_overhead_cycles = 20;

  // -- simulation kernel knobs (simulator speed, not architecture) --
  /// Batch provably uninterleaved transactions into one engine event: the
  /// runs in flight on one memory controller (uncached words, swcache line
  /// transfers) or one MPB port (chunks) are replayed jointly up to the
  /// earliest instant any other task reaching the resource could run
  /// (SccMachine::timedRun, the one batching rule). Never changes any Tick;
  /// off runs the per-word/per-chunk reference path the equivalence tests
  /// compare against.
  bool coalescing = true;

  // -- deterministic observability (sim/obs/; docs/observability.md) --
  /// Record the simulated-time trace (operation spans, sync episodes, fault
  /// fires, hang reports). Off by default: every hook is gated on one cached
  /// bool — the FaultInjector discipline — so untraced runs pay one
  /// predictable branch per operation and stay bit-identical. An enabled
  /// trace contains only simulated Ticks and is byte-identical across all
  /// coalescing modes (see docs/observability.md).
  bool trace_enabled = false;
  /// Aggregate per-region shared-DRAM profiles (reads/writes/hits/misses/
  /// per-controller transactions for every named rcce::ShmArray region;
  /// MetricsSnapshot::regions). Off by default: no region gets a profile
  /// and the access hooks stay one cached-bool branch. Ticks are unchanged either
  /// way.
  bool region_metrics = false;
  /// Happens-before data-race detection over shared-memory accesses
  /// (sim/drf/drf.h; docs/race_detection.md). Off by default: every hook is
  /// one cached bool and the detector is untimed, so drf_check=false runs
  /// are bit-identical to the pre-detector machine and drf_check=true runs
  /// simulate the exact same Ticks. Reports are a deterministic function of
  /// the program, byte-identical across coalescing modes.
  bool drf_check = false;
  /// Check words instead of whole cache lines on swcache-cached ranges —
  /// the FUTURE contract of the ROADMAP's word-granular swcache item. The
  /// default (false) enforces the current line-granular contract of
  /// docs/memory_model.md, under which two UEs touching different words of
  /// one cached line is a (false-sharing) race.
  bool drf_word_granular = false;

  // -- fault injection & robustness (sim/fault/fault.h; docs/fault_model.md) --
  /// Seed-driven fault schedule plus retry/backoff knobs. Disabled by
  /// default: every fault hook is gated on one cached bool, so zero-fault
  /// runs stay bit-identical to the pre-fault machine.
  FaultPlan fault{};
  /// Lock-acquire / barrier-arrival timeout in simulated ticks: a task
  /// blocked on a sync object longer than this raises a structured
  /// SyncTimeout from Engine::run. 0 (default) = no timeout.
  Tick sync_timeout_ticks = 0;
  /// Progress watchdog: more than this many consecutive engine events
  /// without simulated time advancing raises WatchdogError. 0 = off.
  std::uint64_t watchdog_events_per_tick = 0;

  // -- single-core multithread baseline (threadrt) --
  std::uint32_t context_switch_core_cycles = 4000;
  std::uint32_t scheduler_quantum_core_cycles = 800000;  // ~1 ms at 800 MHz

  // P54C-ish operation costs (core cycles).
  std::uint32_t int_alu_cycles = 1;
  std::uint32_t int_mul_cycles = 10;
  std::uint32_t int_div_cycles = 46;
  std::uint32_t fp_add_cycles = 3;
  std::uint32_t fp_mul_cycles = 3;
  std::uint32_t fp_div_cycles = 39;

  [[nodiscard]] Clock coreClock() const { return Clock(core_mhz); }
  [[nodiscard]] Clock meshClock() const { return Clock(mesh_mhz); }
  [[nodiscard]] Clock dramClock() const { return Clock(dram_mhz); }

  [[nodiscard]] std::uint32_t numTiles() const { return mesh_cols * mesh_rows; }
  [[nodiscard]] std::size_t mpbTotalBytes() const {
    return static_cast<std::size_t>(num_cores) * mpb_bytes_per_core;
  }

  /// Render the paper's Table 6.1 for a given execution-unit count.
  [[nodiscard]] std::string formatTable61(int rcce_units, int pthread_units) const;
};

/// Operation classes for CoreContext::computeOps.
enum class OpClass : std::uint8_t { IntAlu, IntMul, IntDiv, FpAdd, FpMul, FpDiv };

[[nodiscard]] std::uint64_t opCycles(const SccConfig& cfg, OpClass cls);

}  // namespace hsm::sim
