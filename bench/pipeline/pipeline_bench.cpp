// Pipeline benchmark harness (README.md). One run measures one workload of
// the end-to-end path, program by program:
//
//   pthread source → Translator::translate → lintSharingTables →
//   Benchmark::run(mode, 32, config, &plan) → check
//
// and times it from outside the library. Set-up (suite construction, the
// 32-thread single-core pthread baselines, reference translations, the KV
// plan, one warm-up pass) is repeated --setups times. Untraced passes then
// run for --seconds of wall time. With --trace 1 every untraced pass is
// followed by a traced pass, which calls the translator's stages one by one
// and wraps each layer call in a host-time span.
//
// Usage: pipeline_bench --workload NAME --seed N --seconds S --trace 0|1
//                       [--setups K] [--trace-out FILE]
//
// Prints one JSON document of raw measurements on stdout. run.py derives the
// metrics from it and judges determinism. Exit code 2 means bad arguments.
#include <sys/resource.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analyzer.h"
#include "codegen/c_emitter.h"
#include "lex/lexer.h"
#include "parse/parser.h"
#include "partition/drf_lint.h"
#include "partition/memory_plan.h"
#include "sema/resolver.h"
#include "transform/cleanup.h"
#include "transform/pass.h"
#include "transform/pthread_removal.h"
#include "transform/rcce_insertion.h"
#include "transform/shared_memory.h"
#include "transform/threads_to_processes.h"
#include "translator/translator.h"
#include "workloads/benchmark.h"
#include "workloads/kv_store.h"

namespace {

using namespace hsm;
using Clock = std::chrono::steady_clock;
using workloads::Mode;

constexpr int kUnits = 32;
// Per-layer medians need at least this many traced passes, whatever the
// window.
constexpr int kMinTracedPasses = 10;

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct WorkloadSpec {
  std::string_view name;
  Mode mode;
  bool kv;        ///< the KV store instead of the six paper programs
  bool observed;  ///< trace recorder, DRF checker and region profiles on
};

constexpr std::array<WorkloadSpec, 4> kWorkloads{{
    {"paper_offchip", Mode::RcceOffChip, false, false},
    {"paper_mpb", Mode::RcceMpb, false, false},
    {"kv_zipf", Mode::RcceOffChip, true, false},
    {"paper_observed", Mode::RcceOffChip, false, true},
}};

// ---------------------------------------------------------------------------
// Host-time spans, kept in memory and written as Chrome trace JSON at exit.

struct Span {
  std::string name;
  std::string program;
  int pass = 0;
  int parent = -1;
  double start_us = 0.0;
  double end_us = 0.0;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void beginPass(int pass) { pass_ = pass; }

  std::size_t open(std::string name, std::string program) {
    const int parent = stack_.empty() ? -1 : static_cast<int>(stack_.back());
    spans_.push_back(Span{std::move(name), std::move(program), pass_, parent, nowUs(), 0.0});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  /// Closes the innermost span (which must be `id`) and returns its
  /// duration in milliseconds.
  double close(std::size_t id) {
    stack_.pop_back();
    Span& span = spans_[id];
    span.end_us = nowUs();
    return (span.end_us - span.start_us) / 1000.0;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  int pass_ = 0;
};

/// Per-layer host times and counts of one traced pass: "<layer>.ms" summed
/// over programs and "<layer>.ms.<Program>" per program.
using Layers = std::map<std::string, double>;

/// Opens a span when tracing; close() returns its milliseconds (0 untraced).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, const std::string& program)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name, program) : 0) {}
  double close() { return tracer_ != nullptr ? tracer_->close(id_) : 0.0; }

 private:
  Tracer* tracer_;
  std::size_t id_;
};

// ---------------------------------------------------------------------------
// The traced translator: Translator::translate's stages called one by one in
// translator.cpp's order, each in its own span. Its output_source must match
// Translator::translate byte for byte, or the traced pass measured a
// different program (checked in runProgram).

translator::TranslationResult translateTraced(const std::string& source,
                                              const std::string& file, Tracer& tracer,
                                              const std::string& program, Layers& layers) {
  translator::TranslationResult result;
  SourceBuffer buffer(file, source);
  DiagnosticEngine diags;
  result.context = std::make_shared<ast::ASTContext>();
  ast::ASTContext& context = *result.context;
  const auto fail = [&] {
    result.diagnostics = diags.format(buffer);
    return result;
  };

  // parseSource lexes again, so parse.ms includes lexing; run.py reports
  // parse self time as parse.ms - lex.ms.
  std::size_t id = tracer.open("lex", program);
  DiagnosticEngine lex_diags;
  const std::size_t tokens = lex::Lexer(buffer, lex_diags).lexAll().tokens.size();
  layers["lex.ms"] += tracer.close(id);
  layers["lex.tokens"] += static_cast<double>(tokens);

  id = tracer.open("parse", program);
  bool ok = parse::parseSource(buffer, context, diags);
  layers["parse.ms"] += tracer.close(id);
  if (!ok) return fail();

  id = tracer.open("sema", program);
  ok = sema::Resolver(diags).resolve(context);
  layers["sema.ms"] += tracer.close(id);
  if (!ok) return fail();

  id = tracer.open("analysis", program);
  result.analysis = analysis::Analyzer{}.analyze(context);
  layers["analysis.ms"] += tracer.close(id);

  // Default TranslatorOptions: the size-ascending planner (Algorithm 3).
  id = tracer.open("partition", program);
  result.plan = partition::SizeAscendingPlanner{}.plan(result.analysis.sharedVariables(),
                                                      translator::TranslatorOptions{}.memory);
  result.execution_plan = partition::deriveExecutionPlan(result.analysis, result.plan);
  layers["partition.ms"] += tracer.close(id);

  id = tracer.open("transform", program);
  transform::PassContext pass_ctx{.ast = context,
                                  .analysis = result.analysis,
                                  .plan = result.plan,
                                  .diags = diags,
                                  .core_bound_tasks = {}};
  transform::Driver driver;
  driver.add(std::make_unique<transform::RenameMainPass>());
  driver.add(std::make_unique<transform::AddRcceInitPass>());
  driver.add(std::make_unique<transform::SharedToShmallocPass>());
  driver.add(std::make_unique<transform::InsertCoreIdPass>());
  driver.add(std::make_unique<transform::ThreadsToProcessesPass>());
  driver.add(std::make_unique<transform::JoinToBarrierPass>());
  driver.add(std::make_unique<transform::ReplacePthreadSelfPass>());
  driver.add(std::make_unique<transform::MutexToLockPass>());
  driver.add(std::make_unique<transform::RemovePthreadApiPass>());
  driver.add(std::make_unique<transform::RemovePthreadTypesPass>());
  driver.add(std::make_unique<transform::AddRcceFinalizePass>());
  driver.add(std::make_unique<transform::ReplaceIncludesPass>());
  driver.add(std::make_unique<transform::RemoveUnusedLocalsPass>());
  driver.add(std::make_unique<transform::RemoveDemotedGlobalsPass>());
  ok = driver.runAll(pass_ctx);
  layers["transform.ms"] += tracer.close(id);
  if (!ok) return fail();

  id = tracer.open("codegen", program);
  result.output_source = codegen::CSourceEmitter{}.emit(context.unit());
  layers["codegen.ms"] += tracer.close(id);
  layers["codegen.bytes"] += static_cast<double>(result.output_source.size());

  result.diagnostics = diags.format(buffer);
  result.ok = !diags.hasErrors();
  return result;
}

// ---------------------------------------------------------------------------
// Set-up and one program's pipeline.

struct Program {
  std::string name;
  std::unique_ptr<workloads::Benchmark> bench;
  std::string source;            ///< pthread C source ("" for the KV store)
  std::string reference_output;  ///< Translator::translate's RCCE C
  workloads::RunResult baseline;  ///< 32 threads on one core
};

struct Setup {
  std::vector<Program> programs;
  /// The owner-compute KV plan translate_and_run lints (kv_zipf only; the
  /// KV store has no pthread source to translate).
  partition::ExecutionPlan kv_plan;
  double threadrt_ms = 0.0;  ///< host time of the pthread baselines
};

/// Run-wide failure accounting: every failed program pipeline counts once.
struct Failures {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::set<std::string> reasons;

  void record(const std::string& program, const std::vector<std::string>& why) {
    ++attempted;
    if (why.empty()) return;
    ++failed;
    for (const std::string& w : why) reasons.insert(program + ": " + w);
  }
};

partition::ExecutionPlan kvPlan(const workloads::KvParams& kvp) {
  using partition::ControllerPlacement;
  using partition::MpbPattern;
  using partition::PlacementClass;
  using partition::RegionPlan;
  std::size_t index_cap = 1;
  while (index_cap < 2 * kvp.num_keys) index_cap *= 2;
  return partition::ExecutionPlan{
      {RegionPlan{"kv_index", PlacementClass::kOffChipUncached, MpbPattern::kNone,
                  index_cap * 8, ControllerPlacement::kOwnerCompute},
       RegionPlan{"kv_slots", PlacementClass::kOffChipUncached, MpbPattern::kNone,
                  static_cast<std::size_t>(kvp.num_keys) * 4 * 8,
                  ControllerPlacement::kOwnerCompute},
       RegionPlan{"kv_checks", PlacementClass::kOffChipUncached, MpbPattern::kNone,
                  8 * 8}}};
}

Setup buildSetup(const WorkloadSpec& spec, std::uint64_t seed,
                 const sim::SccConfig& config, Failures& failures) {
  Setup setup;
  if (spec.kv) {
    workloads::KvParams kvp;
    kvp.seed = workloads::kvMix64(seed);
    setup.kv_plan = kvPlan(kvp);
    setup.programs.push_back(Program{"KvStore", workloads::makeKvStore(kvp), "", "", {}});
  } else {
    for (auto& bench : workloads::standardSuite(1.0)) {
      Program p{bench->name(), std::move(bench), "", "", {}};
      p.source = workloads::pthreadSource(p.name);
      p.reference_output = translator::Translator{}.translate(p.source, p.name + ".c").output_source;
      setup.programs.push_back(std::move(p));
    }
  }
  const Clock::time_point t0 = Clock::now();
  for (Program& p : setup.programs) {
    p.baseline = p.bench->run(Mode::PthreadSingleCore, kUnits, config);
    failures.record(p.name + " (pthread baseline)",
                    p.baseline.verified ? std::vector<std::string>{}
                                        : std::vector<std::string>{"baseline not verified"});
  }
  setup.threadrt_ms = secondsBetween(t0, Clock::now()) * 1000.0;
  return setup;
}

std::uint64_t fnv1a(std::string_view text, std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Every sim-domain value of one program run, as canonical text. Observer
/// counters (trace_*, drf_*) and region profiles are left out: observers
/// move no Tick, so an observed run must print the same text as a plain one.
std::string simFingerprint(const std::string& name, const workloads::RunResult& r,
                           const std::string& output_source) {
  std::ostringstream out;
  out << name << " verified=" << r.verified
      << " value=" << r.detail.substr(0, r.detail.find(" | "))
      << " output=" << std::hex << fnv1a(output_source) << std::dec;
  for (const auto& [key, value] : r.metrics.sim_counters) {
    if (key.rfind("trace_", 0) == 0 || key.rfind("drf_", 0) == 0) continue;
    out << ' ' << key << '=' << value;
  }
  out << std::setprecision(17);
  for (const auto& [key, value] : r.metrics.sim_gauges) out << ' ' << key << '=' << value;
  return out.str();
}

struct ProgramOutcome {
  workloads::RunResult run;
  std::string fingerprint;
};

/// One program through the whole pipeline. `tracer` null: the untraced path
/// through Translator::translate. Otherwise every layer call gets a span and
/// adds its host time to `layers`.
ProgramOutcome runProgram(const Program& p, const Setup& setup, const WorkloadSpec& spec,
                          const sim::SccConfig& config, Tracer* tracer, Layers* layers,
                          Failures& failures) {
  std::vector<std::string> why;
  ProgramOutcome outcome;
  SpanScope program_span(tracer, "program", p.name);

  translator::TranslationResult tr;
  const partition::ExecutionPlan* plan = &setup.kv_plan;
  if (!spec.kv) {
    SpanScope span(tracer, "translate", p.name);
    tr = tracer != nullptr
             ? translateTraced(p.source, p.name + ".c", *tracer, p.name, *layers)
             : translator::Translator{}.translate(p.source, p.name + ".c");
    const double ms = span.close();
    if (layers != nullptr) (*layers)["translate.ms." + p.name] += ms;
    if (!tr.ok) {
      program_span.close();
      why.push_back("translation error: " + tr.diagnostics);
      failures.record(p.name, why);
      return outcome;
    }
    if (tracer != nullptr && tr.output_source != p.reference_output) {
      why.emplace_back("traced translation differs from Translator::translate");
    }
    plan = &tr.execution_plan;
  }

  {
    SpanScope span(tracer, "lint", p.name);
    const partition::LintResult lint =
        spec.kv ? partition::lintExecutionPlan(*plan, config.cache_line_bytes)
                : partition::lintSharingTables(tr.analysis, *plan, config.cache_line_bytes);
    const double ms = span.close();
    if (layers != nullptr) (*layers)["lint.ms"] += ms;
    if (!lint.ok()) why.push_back("lint finding: " + lint.format());
  }

  SpanScope run_span(tracer, "run", p.name);
  outcome.run = p.bench->run(spec.mode, kUnits, config, plan);
  const double run_ms = run_span.close();

  SpanScope check_span(tracer, "check", p.name);
  const workloads::RunResult& r = outcome.run;
  if (!r.verified) why.push_back("not verified (" + r.detail + ")");
  if (r.mpb_scope_violations > 0) why.emplace_back("MPB scope violation");
  if (r.plan_regions_unrealized > 0) why.emplace_back("unrealized plan region");
  if (r.faults_unrecovered > 0) why.emplace_back("unrecovered fault");
  if (r.drf_races > 0) why.emplace_back("DRF race");
  outcome.fingerprint = simFingerprint(p.name, r, tr.output_source);
  check_span.close();
  const double program_ms = program_span.close();

  if (layers != nullptr) {
    const auto wall = r.metrics.host_gauges.find("wall_seconds");
    const double sim_ms = wall != r.metrics.host_gauges.end() ? wall->second * 1000.0 : 0.0;
    Layers& l = *layers;
    l["sim.host_ms"] += sim_ms;
    l["sim.host_ms." + p.name] += sim_ms;
    l["workloads.host_ms"] += run_ms - sim_ms;
    l["workloads.host_ms." + p.name] += run_ms - sim_ms;
    l["pass.ms." + p.name] += program_ms;
  }
  failures.record(p.name, why);
  return outcome;
}

struct PassOutcome {
  double seconds = 0.0;
  std::string fingerprint;  ///< hash over every program's sim fingerprint
  std::vector<ProgramOutcome> programs;
  Layers layers;
};

PassOutcome runPass(const Setup& setup, const WorkloadSpec& spec,
                    const sim::SccConfig& config, Tracer* tracer, int pass_id,
                    Failures& failures) {
  PassOutcome pass;
  if (tracer != nullptr) tracer->beginPass(pass_id);
  Layers* layers = tracer != nullptr ? &pass.layers : nullptr;
  const Clock::time_point t0 = Clock::now();
  SpanScope span(tracer, "pass", "");
  for (const Program& p : setup.programs) {
    pass.programs.push_back(runProgram(p, setup, spec, config, tracer, layers, failures));
  }
  span.close();
  pass.seconds = secondsBetween(t0, Clock::now());
  std::uint64_t h = fnv1a("");
  for (const ProgramOutcome& o : pass.programs) h = fnv1a(o.fingerprint + "\n", h);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  pass.fingerprint = hex;
  return pass;
}

// ---------------------------------------------------------------------------
// Output.

std::string jsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename Map, typename Fmt>
std::string jsonObject(const Map& map, Fmt fmt) {
  std::string out = "{";
  for (const auto& [key, value] : map) {
    if (out.size() > 1) out += ", ";
    out += jsonString(key) + ": " + fmt(value);
  }
  return out + "}";
}

std::string jsonNumbers(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + jsonNumber(values[i]);
  }
  return out + "]";
}

std::string programJson(const Program& p, const workloads::RunResult& r) {
  const auto u64 = [](std::uint64_t v) { return std::to_string(v); };
  return "{\"name\": " + jsonString(p.name) +
         ", \"baseline_ticks\": " + std::to_string(p.baseline.makespan) +
         ", \"baseline_ms\": " + jsonNumber(sim::ticksToMilliseconds(p.baseline.makespan)) +
         ", \"makespan_ticks\": " + std::to_string(r.makespan) +
         ", \"makespan_ms\": " + jsonNumber(sim::ticksToMilliseconds(r.makespan)) +
         ", \"sim_counters\": " + jsonObject(r.metrics.sim_counters, u64) +
         ", \"sim_gauges\": " + jsonObject(r.metrics.sim_gauges, jsonNumber) + "}";
}

void writeChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i > 0 ? ",\n" : "") << "{\"name\": " << jsonString(s.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << jsonNumber(s.start_us)
        << ", \"dur\": " << jsonNumber(s.end_us - s.start_us)
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"pass\": " << s.pass << ", \"program\": " << jsonString(s.program) << "}}";
  }
  out << "\n]}\n";
  if (!out) {
    std::cerr << "pipeline_bench: cannot write " << path << "\n";
    std::exit(1);
  }
}

struct Options {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  int setups = 1;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "pipeline_bench: " << error
            << "\nusage: pipeline_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--setups K] [--trace-out FILE]\n";
  std::exit(2);
}

Options parseOptions(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (value.empty()) usage("empty value for " + arg);
    char* end = nullptr;
    if (arg == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (w.name == value) opt.spec = &w;
      }
      if (opt.spec == nullptr) usage("unknown workload " + value);
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (arg == "--setups") {
      opt.setups = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (opt.setups < 1) usage("--setups must be at least 1");
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else {
      usage("unknown option " + arg);
    }
    if (end != nullptr && *end != '\0') usage("bad number for " + arg + ": " + value);
  }
  if (opt.spec == nullptr || !have_seed || opt.seconds <= 0.0) {
    usage("--workload, --seed and --seconds are required");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parseOptions(argc, argv);
  const WorkloadSpec& spec = *opt.spec;

  const sim::SccConfig plain;
  sim::SccConfig config = plain;
  if (spec.observed) {
    config.trace_enabled = true;
    config.drf_check = true;
    config.region_metrics = true;
  }

  Failures failures;
  // Fingerprint → number of passes that produced it, by kind of pass. Every
  // pass of a deterministic run lands on one fingerprint.
  std::map<std::string, std::map<std::string, int>> fingerprints;
  std::vector<double> setup_s;
  std::vector<double> threadrt_ms;
  Setup setup;
  PassOutcome reference;
  for (int k = 0; k < opt.setups; ++k) {
    const Clock::time_point t0 = Clock::now();
    setup = buildSetup(spec, opt.seed, plain, failures);
    reference = runPass(setup, spec, config, nullptr, 0, failures);  // warm-up
    setup_s.push_back(secondsBetween(t0, Clock::now()));
    threadrt_ms.push_back(setup.threadrt_ms);
    ++fingerprints["setup"][reference.fingerprint];
  }

  const Clock::time_point start = Clock::now();
  Tracer tracer(start);
  std::vector<double> pass_s;
  std::vector<double> traced_pass_s;
  std::vector<Layers> traced_layers;
  int pass_id = 0;
  while (secondsBetween(start, Clock::now()) < opt.seconds ||
         (opt.trace && static_cast<int>(traced_pass_s.size()) < kMinTracedPasses)) {
    const PassOutcome pass = runPass(setup, spec, config, nullptr, ++pass_id, failures);
    pass_s.push_back(pass.seconds);
    ++fingerprints["untraced"][pass.fingerprint];
    if (opt.trace) {
      PassOutcome traced = runPass(setup, spec, config, &tracer, ++pass_id, failures);
      traced_pass_s.push_back(traced.seconds);
      traced_layers.push_back(std::move(traced.layers));
      ++fingerprints["traced"][traced.fingerprint];
    }
  }

  if (spec.observed) {
    // Observers move no Tick: the same pass with them off must match.
    const PassOutcome off = runPass(setup, spec, plain, nullptr, ++pass_id, failures);
    ++fingerprints["observers_off"][off.fingerprint];
  }
  if (!opt.trace_out.empty()) writeChromeTrace(opt.trace_out, tracer.spans());

  rusage usage_self{};
  getrusage(RUSAGE_SELF, &usage_self);

  std::string programs = "[";
  for (std::size_t i = 0; i < setup.programs.size(); ++i) {
    programs += (i > 0 ? ",\n    " : "") + programJson(setup.programs[i], reference.programs[i].run);
  }
  programs += "]";
  std::string layers = "[";
  for (std::size_t i = 0; i < traced_layers.size(); ++i) {
    layers += (i > 0 ? ",\n    " : "") + jsonObject(traced_layers[i], jsonNumber);
  }
  layers += "]";
  std::string reasons = "[";
  for (const std::string& r : failures.reasons) {
    reasons += (reasons.size() > 1 ? ", " : "") + jsonString(r);
  }
  reasons += "]";
  const auto count = [](int v) { return std::to_string(v); };
  const auto by_kind = [&count](const std::map<std::string, int>& m) {
    return jsonObject(m, count);
  };

  std::cout << "{\"workload\": " << jsonString(spec.name) << ",\n"
            << " \"seed\": " << opt.seed << ",\n"
            << " \"compiler\": " << jsonString(HSM_BENCH_COMPILER) << ",\n"
            << " \"build_type\": " << jsonString(HSM_BENCH_BUILD_TYPE) << ",\n"
            << " \"units\": " << kUnits << ",\n"
            << " \"attempted\": " << failures.attempted << ",\n"
            << " \"failed\": " << failures.failed << ",\n"
            << " \"failures\": " << reasons << ",\n"
            << " \"peak_rss_kb\": " << usage_self.ru_maxrss << ",\n"
            << " \"setup_s\": " << jsonNumbers(setup_s) << ",\n"
            << " \"threadrt_ms\": " << jsonNumbers(threadrt_ms) << ",\n"
            << " \"pass_s\": " << jsonNumbers(pass_s) << ",\n"
            << " \"traced_pass_s\": " << jsonNumbers(traced_pass_s) << ",\n"
            << " \"fingerprints\": " << jsonObject(fingerprints, by_kind) << ",\n"
            << " \"programs\": " << programs << ",\n"
            << " \"traced_layers\": " << layers << "}\n";
  return 0;
}
