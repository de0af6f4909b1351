// One kernel, two bindings. Each paper program's kernel is one coroutine
// templated over a binding B:
//
//   template <typename B>
//   sim::SimTask kernel(typename B::Context& ctx, Params p, ArrayOf<B, double> a);
//
// and its Benchmark::execute is one set-up and verify path over the binding
// runBound() picks for the mode:
//   * PthreadBinding — the pthread program: threadrt::ThreadContext on one
//     core, arrays in the process memory at the twin's private addresses
//     (threadrt::ProcessArray);
//   * RcceBinding — the translated RCCE program: sim::CoreContext on N
//     cores, each array an rcce::PlanArray that realizes its region of the
//     plan the run realizes (realizedPlan).
// Both contexts offer ue/numUes, computeOps, lockAcquire/lockRelease and
// barrier; both arrays offer the same accessors. B::joinBarrier is the
// RCCE_barrier the translator puts where the pthread program joins its
// threads: nothing in the pthread binding.
#pragma once

#include <coroutine>
#include <cstdint>
#include <utility>

#include "partition/execution_plan.h"
#include "rcce/rcce.h"
#include "sim/machine.h"
#include "threadrt/baseline.h"
#include "workloads/benchmark.h"

namespace hsm::workloads {

/// One shared array of a paper program.
struct ArraySpec {
  const char* name;         ///< its ExecutionPlan region (RCCE binding)
  std::size_t count;        ///< elements
  std::uint64_t priv_addr;  ///< its address in the pthread process's memory
  /// Elements an on-chip class keeps per UE in the MPB: 0 for a resident
  /// array (the whole array, the root funnel's slot), the staged block
  /// otherwise (rcce::PlanArray).
  std::size_t block = 0;
};

class PthreadBinding {
 public:
  using Context = threadrt::ThreadContext;
  template <typename T>
  using Array = threadrt::ProcessArray<T>;

  PthreadBinding(const sim::SccConfig& config, int units) : rt_(config), units_(units) {}

  template <typename T>
  Array<T> array(const ArraySpec& spec, const Array<T>* /*stage_with*/ = nullptr) {
    return Array<T>(rt_, spec.priv_addr, spec.count);
  }
  void launch(const threadrt::SingleCoreRuntime::ThreadProgram& program) {
    rt_.launch(units_, program);
  }
  void run(RunResult& result) { result.makespan = rt_.run(); }
  static std::suspend_never joinBarrier(Context& /*ctx*/) { return {}; }

 private:
  threadrt::SingleCoreRuntime rt_;
  int units_;
};

class RcceBinding {
 public:
  using Context = sim::CoreContext;
  template <typename T>
  using Array = rcce::PlanArray<T>;

  /// `machine` is borrowed; `plan` is realized for `mode` once, here.
  RcceBinding(sim::SccMachine& machine, int units, const partition::ExecutionPlan& plan,
              Mode mode)
      : machine_(machine), env_(machine), units_(units), realized_(realizedPlan(plan, mode)) {}

  /// Allocate `spec`'s region. A staged array given `stage_with` (a staged
  /// array of the same run) stages through that array's MPB block.
  template <typename T>
  Array<T> array(const ArraySpec& spec, const Array<T>* stage_with = nullptr) {
    return Array<T>(env_, units_, spec.count, realized_.find(spec.name), spec.name,
                    spec.block, stage_with);
  }
  /// Declares each UE's MPB scope from the realized plan.
  void launch(sim::LaunchSpec::CoreProgram program) {
    machine_.launch(sim::LaunchSpec(units_, std::move(program)).withPlan(&realized_));
  }
  void run(RunResult& result) { runAndRecord(result, machine_, realized_); }
  static sim::CoreContext::SyncAwaiter joinBarrier(Context& ctx) { return ctx.barrier(); }

 private:
  sim::SccMachine& machine_;
  rcce::RcceEnv env_;
  int units_;
  partition::ExecutionPlan realized_;
};

template <typename B, typename T>
using ArrayOf = typename B::template Array<T>;

/// Run `body(binding, result)` over the binding of `mode` and return the
/// result it filled: the pthread runtime for PthreadSingleCore, an RCCE
/// binding over a fresh machine otherwise.
template <typename Body>
[[nodiscard]] RunResult runBound(Mode mode, int units, const sim::SccConfig& config,
                                 const partition::ExecutionPlan& plan, Body&& body) {
  RunResult result;
  if (mode == Mode::PthreadSingleCore) {
    PthreadBinding binding(config, units);
    body(binding, result);
  } else {
    sim::SccMachine machine(config);
    RcceBinding binding(machine, units, plan, mode);
    body(binding, result);
  }
  return result;
}

}  // namespace hsm::workloads
