// The paper's benchmark suite (§5.2): Count Primes, Pi Approximation,
// 3-5-Sum, Dot Product, LU Decomposition, and the Stream memory benchmark.
//
// Each benchmark is one kernel coroutine, written once against a binding
// (workloads/binding.h), and runs in three modes:
//   * PthreadSingleCore — the pthread binding: N threads multiplexed on one
//     core, arrays in process memory (the paper's evaluation baseline);
//   * RcceOffChip — the RCCE binding on N cores, shared data in off-chip
//     DRAM: the plan's on-chip regions take their off-chip class, uncached
//     words unless the plan says otherwise (the Fig. 6.1 configuration);
//   * RcceMpb — the RCCE binding with the plan's on-chip regions staged
//     through / resident in the MPB (the Fig. 6.2 configuration under
//     handPlan()).
// Both RCCE modes take an ExecutionPlan, the one channel for placement:
// the translator's derived plan, or the twin's own handPlan(). The RCCE
// binding's rcce::PlanArray turns each region's class into runtime calls;
// the barriers only the RCCE program has (the translator's join) are
// nothing in the pthread binding.
// All modes compute real results that are verified against references.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "partition/execution_plan.h"
#include "sim/machine.h"
#include "sim/obs/metrics.h"
#include "sim/scc_config.h"
#include "sim/time.h"

namespace hsm::workloads {

enum class Mode : std::uint8_t { PthreadSingleCore, RcceOffChip, RcceMpb };

[[nodiscard]] const char* modeName(Mode mode);

struct RunResult {
  std::string benchmark;
  Mode mode = Mode::PthreadSingleCore;
  int units = 0;             ///< threads (baseline) or cores (RCCE)
  sim::Tick makespan = 0;
  bool verified = false;
  /// "<functional value> | <sim-metric summary>" (deriveDetail): the value
  /// part is routing-invariant, the summary is MetricsSnapshot::summary() —
  /// sim-domain only, so the whole line reproduces bit-for-bit per config.
  std::string detail;
  /// Full end-of-run metrics snapshot (sim::obs::collectMetrics; RCCE modes
  /// only — the pthread baseline runs on SingleCoreRuntime's machine but
  /// does not collect it, so it stays empty).
  sim::obs::MetricsSnapshot metrics;
  /// MPB accesses outside the plan's declared owner sets (RCCE modes).
  /// Non-zero voids the port-isolation guarantee.
  std::uint64_t mpb_scope_violations = 0;
  /// Plan regions with runtime consequences (an on-chip MPB pattern,
  /// cached routing or a routing placement) that no allocation of this
  /// workload registered by name. Name drift between the translated source
  /// and the workload twin would otherwise silently disable the plan — an
  /// array whose name the plan lacks is off-chip-uncached (rcce::PlanArray).
  std::uint64_t plan_regions_unrealized = 0;
  // -- fault-tolerant run mode (config.fault armed; zero otherwise; the
  // injected/recovered/retry counts are in metrics.sim_counters) --
  /// Transfers whose retry budget was exhausted with the fault unrepaired.
  /// Non-zero voids the run's data-integrity guarantee (verified may still
  /// be false independently).
  std::uint64_t faults_unrecovered = 0;
  // -- per-controller shared-DRAM load (RCCE modes; empty/0 otherwise) --
  /// Transactions each memory controller served (SccMachine::
  /// controllerTraffic — uncached words + swcache lines + bulk lines).
  std::vector<std::uint64_t> controller_traffic;
  /// Coefficient of variation (population stddev / mean) of
  /// controller_traffic — 0 is a perfectly flat spread; a skewed workload
  /// behind an address-striped placement drives it up. 0 when no
  /// shared-DRAM traffic was simulated.
  double controller_load_cv = 0.0;
  /// Happens-before races the drf checker reported (config.drf_check runs
  /// only; 0 otherwise). Any non-zero count voids every granularity-
  /// conditional guarantee of the run (docs/race_detection.md).
  std::uint64_t drf_races = 0;
};

/// Run a launched `machine` to completion and fill `result` from it — the
/// RCCE binding's run (RcceBinding::run): the makespan; the full metrics
/// snapshot (sim::obs::collectMetrics) with the robustness counters (MPB
/// scope violations, fault-injection/recovery stats, races, controller
/// load) read back out of it, so RunResult and MetricsSnapshot can never
/// disagree; and plan_regions_unrealized, the regions of `realized` (the
/// plan the run realizes, realizedPlan) whose class is consequential (an
/// on-chip MPB pattern, cached routing, or a non-default controller
/// placement) that no allocation registered by name
/// (SccMachine::shmRegionNamed). Regions with no runtime behavior in this
/// run (default-placed off-chip-uncached, pattern-free resident scalars, an
/// on-chip region demoted to plain uncached words in RcceOffChip) don't
/// count: failing to look them up changes nothing.
void runAndRecord(RunResult& result, sim::SccMachine& machine,
                  const partition::ExecutionPlan& realized);

/// Compose RunResult::detail from the workload's functional value string and
/// the sim-domain metric summary already collected into `result.metrics`
/// ("<value> | <summary>"; just the value when the snapshot is empty — the
/// pthread baseline).
void deriveDetail(RunResult& result, const std::string& value);

class Benchmark {
 public:
  virtual ~Benchmark() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// The hand-written Fig. 6.2 placement as data: the plan this twin's
  /// RcceMpb realization was written for (the fig binaries and the golden
  /// `paper.*` rows run it; the translator derives its own plan from the
  /// pthread source, docs/execution_plan.md compares the two).
  [[nodiscard]] virtual partition::ExecutionPlan handPlan() const = 0;
  /// Execute in `mode` on `units` threads/cores. `plan` is the
  /// translator→runtime contract (docs/execution_plan.md), required in the
  /// RCCE modes and ignored by PthreadSingleCore: per-variable placement
  /// classes choose the MPB/staged/uncached/cached realization of each
  /// shared region (rcce::PlanArray), the realized plan's per-UE owner sets
  /// become the machine's declared MPB scope (tight per-port reach; violations
  /// reported in the result), and cached regions route through the swcache.
  /// In RcceOffChip mode on-chip placements take their region's off-chip
  /// class (RegionPlan::offchip) — the Fig. 6.1 configuration — while
  /// cacheability is still honored.
  /// Throws std::invalid_argument when `units < 1` or when an RCCE mode
  /// gets no plan.
  [[nodiscard]] RunResult run(Mode mode, int units, const sim::SccConfig& config,
                              const partition::ExecutionPlan* plan = nullptr) const;

 private:
  /// The workload body behind run(): arguments already checked; fills
  /// everything of RunResult but its benchmark/mode/units echo.
  [[nodiscard]] virtual RunResult execute(Mode mode, int units,
                                          const sim::SccConfig& config,
                                          const partition::ExecutionPlan& plan) const = 0;
};

/// The plan a run in `mode` realizes (ExecutionPlan::realized): RcceOffChip
/// has no on-chip placement, so an on-chip region takes its off-chip class
/// there. What the RCCE binding allocates from, launches with and records.
[[nodiscard]] partition::ExecutionPlan realizedPlan(const partition::ExecutionPlan& plan,
                                                   Mode mode);

// Factories. `scale` multiplies the default problem size (1.0 = the sizes
// used by the bench harness; tests use smaller scales).
[[nodiscard]] std::unique_ptr<Benchmark> makeCountPrimes(double scale = 1.0);
[[nodiscard]] std::unique_ptr<Benchmark> makePiApprox(double scale = 1.0);
[[nodiscard]] std::unique_ptr<Benchmark> makeSum35(double scale = 1.0);
[[nodiscard]] std::unique_ptr<Benchmark> makeDotProduct(double scale = 1.0);
[[nodiscard]] std::unique_ptr<Benchmark> makeLuDecomposition(double scale = 1.0);
[[nodiscard]] std::unique_ptr<Benchmark> makeStream(double scale = 1.0);

/// The six benchmarks of the paper, in its reporting order.
[[nodiscard]] std::vector<std::unique_ptr<Benchmark>> standardSuite(double scale = 1.0);

/// [first, last) element range handled by unit `u` of `units` under block
/// partitioning (the paper's divide-and-conquer pattern; the source of
/// CountPrimes' load imbalance).
struct Slice {
  std::size_t first = 0;
  std::size_t last = 0;
  [[nodiscard]] std::size_t size() const { return last - first; }
};
[[nodiscard]] Slice blockSlice(std::size_t n, int units, int u);

/// Pthreads C source of each benchmark (Appendix C pseudocode realized as
/// compilable C) for feeding the source-to-source translator. Throws
/// std::out_of_range for unknown names.
[[nodiscard]] const std::string& pthreadSource(const std::string& benchmark_name);
[[nodiscard]] std::vector<std::string> pthreadSourceNames();

}  // namespace hsm::workloads
