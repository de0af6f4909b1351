#include "partition/drf_lint.h"

#include <set>
#include <sstream>

namespace hsm::partition {
namespace {

// Sharing-signal helpers, the same derivation deriveExecutionPlan uses
// (memory_plan.cpp): the lint must judge the plan by the signals that
// produced it, or a correct derivation could lint dirty.

bool isPthreadType(const ast::Type* type) {
  while (type != nullptr && (type->isArray() || type->isPointer())) {
    type = type->element();
  }
  return type != nullptr && type->isNamed() && type->name().rfind("pthread_", 0) == 0;
}

bool isPthreadNamed(const ast::Type* type, const char* name) {
  while (type != nullptr && (type->isArray() || type->isPointer())) {
    type = type->element();
  }
  return type != nullptr && type->isNamed() && type->name() == name;
}

bool anyInThreadFunction(const std::set<std::string>& fns,
                         const std::set<std::string>& thread_fns) {
  for (const std::string& f : fns) {
    if (thread_fns.count(f) > 0) return true;
  }
  return false;
}

const analysis::VariableInfo* findVariable(const analysis::AnalysisResult& analysis,
                                           const std::string& name) {
  for (const auto& [id, info] : analysis.variables) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

void add(LintResult& out, LintFinding::Rule rule, const std::string& region,
         std::string message) {
  out.findings.push_back(LintFinding{rule, region, std::move(message)});
}

void lintOffChipClass(LintResult& out, const RegionPlan& r) {
  if (!isOnChip(r.offchip)) return;
  add(out, LintFinding::Rule::kOffChipClassOnChip, r.name,
      std::string("off-chip class ") + placementName(r.offchip) +
          " is on-chip — a run without on-chip placement could not realize it");
}

void lintLineAlignment(LintResult& out, const RegionPlan& r, std::size_t line_bytes) {
  if (!r.cachedInSomeRun() || line_bytes == 0 || r.bytes % line_bytes == 0) return;
  add(out, LintFinding::Rule::kCachedNotLineAligned, r.name,
      "cached region is " + std::to_string(r.bytes) + " B, not a multiple of the " +
          std::to_string(line_bytes) +
          " B cache line — its tail line is shared with the neighboring "
          "allocation under the line-granular contract");
}

}  // namespace

const char* lintRuleName(LintFinding::Rule rule) {
  switch (rule) {
    case LintFinding::Rule::kCachedThreadWrittenNoSync:
      return "cached-thread-written-no-sync";
    case LintFinding::Rule::kPlacementContradictsSharing:
      return "placement-contradicts-sharing";
    case LintFinding::Rule::kCachedNotLineAligned:
      return "cached-not-line-aligned";
    case LintFinding::Rule::kOffChipClassOnChip:
      return "offchip-class-on-chip";
  }
  return "?";
}

std::string LintFinding::format() const {
  return std::string("[") + lintRuleName(rule) + "] " + region + ": " + message;
}

std::string LintResult::format() const {
  std::ostringstream out;
  for (const LintFinding& f : findings) out << f.format() << '\n';
  return out.str();
}

LintResult lintSharingTables(const analysis::AnalysisResult& analysis,
                             const ExecutionPlan& plan, std::size_t line_bytes) {
  LintResult out;
  std::set<std::string> thread_fns;
  for (const ast::FunctionDecl* fn : analysis.thread_functions) {
    if (fn != nullptr) thread_fns.insert(fn->name());
  }
  // Release/acquire edges in the phase structure: the translator lowers
  // pthread barriers and mutexes to RCCE sync primitives, which are the
  // swcache's flush/invalidate points. A program with neither has NO edge
  // anywhere for rule (a) to lean on.
  bool has_sync_edges = false;
  for (const auto& [id, info] : analysis.variables) {
    if (isPthreadNamed(info.type, "pthread_barrier_t") ||
        isPthreadNamed(info.type, "pthread_mutex_t")) {
      has_sync_edges = true;
      break;
    }
  }

  for (const RegionPlan& r : plan.regions) {
    const analysis::VariableInfo* v = findVariable(analysis, r.name);
    if (v == nullptr) {
      add(out, LintFinding::Rule::kPlacementContradictsSharing, r.name,
          "plan region has no sharing-table entry — the plan names a variable "
          "the analysis never classified");
      lintOffChipClass(out, r);
      lintLineAlignment(out, r, line_bytes);
      continue;
    }
    if (isPthreadType(v->type)) {
      add(out, LintFinding::Rule::kPlacementContradictsSharing, r.name,
          "pthread bookkeeping variable surfaced as a memory region — stage 5 "
          "lowers these to sync primitives, they must not be planned");
      continue;
    }
    const bool thread_written = anyInThreadFunction(v->def_in, thread_fns);
    const bool thread_read = anyInThreadFunction(v->use_in, thread_fns);

    // The cached rules judge every class a run can realize: the placement,
    // and the off-chip class of an on-chip placement.
    if (r.cachedInSomeRun()) {
      if (thread_written && !has_sync_edges) {
        add(out, LintFinding::Rule::kCachedThreadWrittenNoSync, r.name,
            "thread-written variable in a cached region, but the program has "
            "no barrier or mutex — no release point would ever flush the "
            "writer's dirty lines");
      }
      if (!thread_read) {
        add(out, LintFinding::Rule::kPlacementContradictsSharing, r.name,
            "cached placement on a variable no thread function reads — "
            "cached routing exists for read-mostly thread data");
      }
    }
    if (r.pattern != MpbPattern::kNone && !thread_written && !thread_read) {
      add(out, LintFinding::Rule::kPlacementContradictsSharing, r.name,
          std::string("MPB pattern ") + mpbPatternName(r.pattern) +
              " on a variable no thread function touches");
    }
    lintOffChipClass(out, r);
    lintLineAlignment(out, r, line_bytes);
  }
  return out;
}

LintResult lintExecutionPlan(const ExecutionPlan& plan, std::size_t line_bytes) {
  LintResult out;
  for (const RegionPlan& r : plan.regions) {
    if (r.pattern != MpbPattern::kNone && r.bytes == 0) {
      add(out, LintFinding::Rule::kPlacementContradictsSharing, r.name,
          std::string("MPB pattern ") + mpbPatternName(r.pattern) +
              " on a zero-byte region");
    }
    lintOffChipClass(out, r);
    lintLineAlignment(out, r, line_bytes);
  }
  return out;
}

}  // namespace hsm::partition
