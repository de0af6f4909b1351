#include "sim/obs/trace.h"

#include <algorithm>
#include <array>
#include <ostream>
#include <sstream>
#include <string>

namespace hsm::sim::obs {
namespace {

constexpr std::array<const char*, static_cast<std::size_t>(TraceEventKind::kNumKinds)>
    kKindNames = {
        "shm_read",      "shm_write",    "shm_bulk_read", "shm_bulk_write",
        "swcache_read",  "swcache_write", "swcache_flush", "mpb_get",
        "mpb_put",       "barrier_wait", "lock_wait",     "freeze",
        "block",         "wake",         "lock_release",  "fault_inject",
        "fault_retry",   "mc_stall",     "report",        "race",
};

// Kind-specific payload rendering so exported traces are self-describing in
// Perfetto's args pane instead of opaque a/b/c slots.
std::string argsJson(const TraceEvent& ev) {
  std::ostringstream out;
  out << '{';
  auto field = [&out, first = true](const char* name, std::uint64_t value) mutable {
    if (!first) out << ',';
    first = false;
    out << '"' << name << "\":" << value;
  };
  switch (ev.kind) {
    case TraceEventKind::kShmRead:
      field("offset", ev.a);
      field("words", ev.b);
      break;
    case TraceEventKind::kShmWrite:
      field("offset", ev.a);
      field("words", ev.b);
      field("attempts", ev.c);
      break;
    case TraceEventKind::kShmBulkRead:
    case TraceEventKind::kShmBulkWrite:
      field("offset", ev.a);
      field("lines", ev.b);
      break;
    case TraceEventKind::kSwcacheRead:
    case TraceEventKind::kSwcacheWrite:
      field("offset", ev.a);
      field("hits", ev.b);
      field("line_txns", ev.c);
      break;
    case TraceEventKind::kSwcacheFlush:
      field("lines", ev.a);
      break;
    case TraceEventKind::kMpbGet:
    case TraceEventKind::kMpbPut:
      field("offset", ev.a);
      field("chunks", ev.b);
      field("owner", ev.c);
      break;
    case TraceEventKind::kBarrierWait:
      field("sync", ev.a);
      field("episode", ev.b);
      break;
    case TraceEventKind::kLockWait:
    case TraceEventKind::kLockRelease:
    case TraceEventKind::kBlock:
    case TraceEventKind::kWake:
      field("sync", ev.a);
      break;
    case TraceEventKind::kFreeze:
      field("permanent", ev.a);
      break;
    case TraceEventKind::kFaultInject:
    case TraceEventKind::kFaultRetry:
      field("class", ev.a);
      break;
    case TraceEventKind::kMcStall:
      field("ticks", ev.a);
      break;
    case TraceEventKind::kReport:
      field("kind", ev.a);
      break;
    case TraceEventKind::kRace:
      field("offset", ev.a);
      field("kind", ev.b);
      field("prior_task", ev.c);
      break;
    case TraceEventKind::kNumKinds:
      break;
  }
  if (ev.resource != kNoTraceResource) field("resource", ev.resource);
  out << '}';
  return out.str();
}

void emitMeta(std::ostream& out, int pid, const char* what, std::uint64_t tid,
              const std::string& name, bool& first) {
  if (!first) out << ",\n";
  first = false;
  out << R"({"ph":"M","pid":)" << pid << R"(,"tid":)" << tid << R"(,"name":")" << what
      << R"(","args":{"name":")" << name << "\"}}";
}

}  // namespace

const char* traceEventName(TraceEventKind kind) {
  return kKindNames[static_cast<std::size_t>(kind)];
}

bool traceEventIsSpan(TraceEventKind kind) { return kind < TraceEventKind::kBlock; }

void TraceRecorder::prepare(std::size_t num_tasks) {
  if (tasks_.size() < num_tasks) tasks_.resize(num_tasks);
}

void TraceRecorder::record(std::size_t task_id, const TraceEvent& ev) {
  (task_id < tasks_.size() ? tasks_[task_id] : host_).push_back(ev);
}

std::uint64_t TraceRecorder::recordedEvents() const {
  std::uint64_t total = host_.size();
  for (const std::vector<TraceEvent>& events : tasks_) total += events.size();
  return total;
}

void TraceRecorder::writeChromeJson(std::ostream& out,
                                    std::uint32_t num_controllers) const {
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;

  // ---- track metadata -------------------------------------------------
  emitMeta(out, 1, "process_name", 0, "UE timelines", first);
  emitMeta(out, 3, "process_name", 0, "memory controllers", first);
  const std::size_t host_tid = tasks_.size();
  for (std::size_t task = 0; task < tasks_.size(); ++task) {
    emitMeta(out, 1, "thread_name", task, "ue " + std::to_string(task), first);
  }
  if (!host_.empty()) emitMeta(out, 1, "thread_name", host_tid, "host", first);
  for (std::uint32_t mc = 0; mc < num_controllers; ++mc) {
    emitMeta(out, 3, "thread_name", mc, "mc " + std::to_string(mc), first);
  }

  // ---- pid 1: per-UE operation timelines ------------------------------
  // Merge all per-task buffers into one global order. The key
  // (start, task, in-task index) is a pure function of the recorded data,
  // so the merged order — and therefore the output bytes — cannot depend on
  // the coalescing mode.
  struct Merged {
    TraceEvent ev;
    std::size_t task;
    std::size_t idx;
  };
  std::vector<Merged> merged;
  merged.reserve(recordedEvents());
  for (std::size_t task = 0; task <= tasks_.size(); ++task) {
    const std::vector<TraceEvent>& events = task < tasks_.size() ? tasks_[task] : host_;
    for (std::size_t i = 0; i < events.size(); ++i) {
      merged.push_back({events[i], task, i});
    }
  }
  std::sort(merged.begin(), merged.end(), [](const Merged& lhs, const Merged& rhs) {
    if (lhs.ev.start != rhs.ev.start) return lhs.ev.start < rhs.ev.start;
    if (lhs.task != rhs.task) return lhs.task < rhs.task;
    return lhs.idx < rhs.idx;
  });
  for (const Merged& entry : merged) {
    const TraceEvent& ev = entry.ev;
    if (!first) out << ",\n";
    first = false;
    out << R"({"name":")" << traceEventName(ev.kind) << R"(","pid":1,"tid":)"
        << entry.task << ",\"ts\":" << ev.start;
    if (traceEventIsSpan(ev.kind)) {
      out << R"(,"ph":"X","dur":)" << (ev.end - ev.start);
    } else {
      out << R"(,"ph":"i","s":"t")";
    }
    out << ",\"args\":" << argsJson(ev) << '}';
  }

  // ---- pid 3: cumulative word/line traffic per memory controller ------
  std::vector<std::uint64_t> cumulative(num_controllers, 0);
  for (const Merged& entry : merged) {
    const TraceEvent& ev = entry.ev;
    if (ev.resource >= num_controllers) continue;
    if (ev.kind == TraceEventKind::kMcStall) {
      if (!first) out << ",\n";
      first = false;
      out << R"({"name":"mc_stall","ph":"i","s":"t","pid":3,"tid":)" << ev.resource
          << ",\"ts\":" << ev.start << ",\"args\":" << argsJson(ev) << '}';
      continue;
    }
    if (!traceEventIsSpan(ev.kind)) continue;
    // Controller units: words for the uncached kinds, lines for the bulk and
    // swcache kinds (the payload slot that holds line transactions differs
    // per kind — see TraceEventKind).
    std::uint64_t units = ev.b;
    if (ev.kind == TraceEventKind::kSwcacheRead ||
        ev.kind == TraceEventKind::kSwcacheWrite) {
      units = ev.c;
    } else if (ev.kind == TraceEventKind::kSwcacheFlush) {
      units = ev.a;
    }
    cumulative[ev.resource] += units;
    if (!first) out << ",\n";
    first = false;
    out << R"({"name":"mc_traffic","ph":"C","pid":3,"tid":)" << ev.resource
        << ",\"ts\":" << ev.end << ",\"args\":{\"units\":" << cumulative[ev.resource]
        << "}}";
  }

  out << "\n]}\n";
}

}  // namespace hsm::sim::obs
