#!/usr/bin/env python3
"""Pipeline benchmark: translate -> lint -> simulate -> verify (README.md).

Builds the harness (bench/pipeline/CMakeLists.txt) into .bench_build/pipeline
at the root of the checkout, then runs one harness process per workload and
turns its raw measurements into metrics.

    python3 bench/pipeline/run.py --workload paper_offchip --seed 1 \
        --seconds 20 --trace 0

Without --workload every workload runs in turn. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the per-layer ones. Every metric is
printed by name and unit; the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}. --out FILE appends the full
record of each run (host, quartiles, sim-domain values) as one JSON line, the
input of compare.py. The exit code is non-zero when a check fails or the
build fails.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "pipeline"
HARNESS = BUILD / "pipeline_bench"

WORKLOADS = ["paper_offchip", "paper_mpb", "kv_zipf", "paper_observed"]
PAPER_PROGRAMS = ["PiApprox", "3-5-Sum", "CountPrimes", "Stream", "DotProduct", "LU"]
PROGRAMS = PAPER_PROGRAMS + ["KvStore"]
# Fig. 6.1 speedups the paper reports (the other two are only qualitative).
PAPER_FIG61 = {"PiApprox": 32.0, "3-5-Sum": 29.0, "CountPrimes": 16.0, "Stream": 17.0}
# Set-up is repeated and its median reported, so a one-off stall in one
# set-up does not move setup_s.
UNTRACED_SETUPS = 5

# name -> (unit, better)
END_TO_END = {
    "pass_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "sim_speedup": ("x", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "lex.ms": ("ms", "lower"),
    "lex.tokens": ("count", "lower"),
    "parse.ms": ("ms", "lower"),
    "parse.self_ms": ("ms", "lower"),
    "sema.ms": ("ms", "lower"),
    "analysis.ms": ("ms", "lower"),
    "partition.ms": ("ms", "lower"),
    "lint.ms": ("ms", "lower"),
    "transform.ms": ("ms", "lower"),
    "codegen.ms": ("ms", "lower"),
    "codegen.bytes": ("bytes", "lower"),
    "sim.host_ms": ("ms", "lower"),
    "sim.events": ("count", "lower"),
    "sim.ns_per_event": ("ns", "lower"),
    "workloads.host_ms": ("ms", "lower"),
    "threadrt.host_ms": ("ms", "lower"),
    "shm.words": ("count", "lower"),
    "shm.coalescing_rate": ("ratio", "higher"),
    "shm.bulk_lines": ("count", "lower"),
    "mc.load_cv": ("ratio", "lower"),
    "mpb.chunks": ("count", "lower"),
    "mpb.coalescing_rate": ("ratio", "higher"),
    "swcache.word_accesses": ("count", "lower"),
    "swcache.hit_rate": ("ratio", "higher"),
    "swcache.lines": ("count", "lower"),
    "trace.events_recorded": ("count", "lower"),
    "trace.events_dropped": ("count", "lower"),
    "drf.accesses_checked": ("count", "lower"),
    "drf.races": ("count", "lower"),
    "sim.paper_fig61_err": ("ratio", "lower"),
    "bench.trace_overhead": ("x", "lower"),
}
for _p in PROGRAMS:
    PER_LAYER["pass.ms." + _p] = ("ms", "lower")
    PER_LAYER["translate.ms." + _p] = ("ms", "lower")
    PER_LAYER["sim.host_ms." + _p] = ("ms", "lower")
    PER_LAYER["workloads.host_ms." + _p] = ("ms", "lower")
    PER_LAYER["sim.makespan_ms." + _p] = ("ms", "lower")
    PER_LAYER["sim.speedup." + _p] = ("x", "higher")

# Per-layer metrics the harness records in each traced pass (span host times
# and translator counts); run.py reports their median over traced passes.
# A layer a workload does not run reads 0.
TRACED = ["lex.ms", "lex.tokens", "parse.ms", "sema.ms", "analysis.ms", "partition.ms",
          "lint.ms", "transform.ms", "codegen.ms", "codegen.bytes", "sim.host_ms",
          "workloads.host_ms"]
TRACED += [k + _p for _p in PROGRAMS
           for k in ("pass.ms.", "translate.ms.", "sim.host_ms.", "workloads.host_ms.")]


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build; both take ~0.1 s once the build is up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD), "-j", jobs]):
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def git_commit():
    """HEAD's commit from .git, read as files: the checkout may not be a repo."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tail_percentile(values):
    """Highest standard percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None, None


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def sim_totals(programs):
    """Sums of the sim-domain counters over a pass's programs."""
    totals = {}
    for p in programs:
        for key, value in p["sim_counters"].items():
            totals[key] = totals.get(key, 0) + value
    return totals


def end_to_end(raw):
    programs = raw["programs"]
    return {
        "pass_s": statistics.median(raw["pass_s"]),
        "setup_s": statistics.median(raw["setup_s"]),
        "sim_speedup": geomean([p["baseline_ticks"] / p["makespan_ticks"] for p in programs]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def per_layer(raw):
    layers = raw["traced_layers"]
    programs = raw["programs"]
    totals = sim_totals(programs)

    def host(key):
        return statistics.median(l.get(key, 0.0) for l in layers)

    def rate(events, txns):
        return 1.0 - totals.get(events, 0) / totals[txns] if totals.get(txns) else 0.0

    m = {key: host(key) for key in TRACED}
    m["parse.self_ms"] = statistics.median(
        l.get("parse.ms", 0.0) - l.get("lex.ms", 0.0) for l in layers)
    m["threadrt.host_ms"] = statistics.median(raw["threadrt_ms"])
    m["sim.events"] = totals.get("events", 0)
    m["sim.ns_per_event"] = m["sim.host_ms"] * 1e6 / m["sim.events"]
    m["shm.words"] = totals.get("shm_words", 0)
    m["shm.coalescing_rate"] = rate("shm_word_events", "shm_words")
    m["shm.bulk_lines"] = totals.get("shm_bulk_lines", 0)
    m["mc.load_cv"] = statistics.mean(
        p["sim_gauges"].get("controller_load_cv", 0.0) for p in programs)
    m["mpb.chunks"] = totals.get("mpb_chunks", 0)
    m["mpb.coalescing_rate"] = rate("mpb_chunk_events", "mpb_chunks")
    m["swcache.word_accesses"] = totals.get("swcache_word_accesses", 0)
    m["swcache.hit_rate"] = (totals.get("swcache_word_hits", 0) / totals["swcache_word_accesses"]
                             if totals.get("swcache_word_accesses") else 0.0)
    m["swcache.lines"] = totals.get("swcache_lines", 0)
    m["trace.events_recorded"] = totals.get("trace_events_recorded", 0)
    m["trace.events_dropped"] = totals.get("trace_events_dropped", 0)
    m["drf.accesses_checked"] = totals.get("drf_accesses_checked", 0)
    m["drf.races"] = totals.get("drf_races", 0)
    m["bench.trace_overhead"] = (statistics.median(raw["traced_pass_s"])
                                 / statistics.median(raw["pass_s"]))
    speedups = {}
    for name in PROGRAMS:
        m["sim.makespan_ms." + name] = 0.0
        m["sim.speedup." + name] = 0.0
    for p in programs:
        speedups[p["name"]] = p["baseline_ticks"] / p["makespan_ticks"]
        m["sim.makespan_ms." + p["name"]] = p["makespan_ms"]
        m["sim.speedup." + p["name"]] = speedups[p["name"]]
    errors = [abs(speedups[n] - ref) / ref for n, ref in PAPER_FIG61.items() if n in speedups]
    m["sim.paper_fig61_err"] = statistics.mean(errors) if errors else 0.0
    return m


def checks(raw, workload):
    """Every correctness and determinism check; returns failure messages."""
    problems = []
    if raw["failed"]:
        problems.append("%d of %d program pipelines failed: %s"
                        % (raw["failed"], raw["attempted"], "; ".join(raw["failures"])))
    expected = ["KvStore"] if workload == "kv_zipf" else PAPER_PROGRAMS
    if [p["name"] for p in raw["programs"]] != expected:
        problems.append("unexpected programs %s" % [p["name"] for p in raw["programs"]])
    # Every sim-domain value (makespans, counts, translated source) must be
    # identical across all passes of the run, between traced and untraced
    # passes, and (paper_observed) with the observers switched off.
    seen = {fp for by_kind in raw["fingerprints"].values() for fp in by_kind}
    if len(seen) != 1:
        problems.append("sim-domain values differ between passes: %s" % raw["fingerprints"])
    if workload == "paper_observed" and "observers_off" not in raw["fingerprints"]:
        problems.append("paper_observed ran no observers-off reference pass")
    return problems


def run_workload(workload, args):
    cmd = [str(HARNESS), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--setups", "1" if args.trace else str(UNTRACED_SETUPS)]
    if args.trace_out:
        cmd += ["--trace-out", args.trace_out]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        fail("harness exited with %d for %s" % (done.returncode, workload))
    raw = json.loads(done.stdout)

    problems = checks(raw, workload)
    if args.trace:
        values, table = per_layer(raw), PER_LAYER
    else:
        values, table = end_to_end(raw), END_TO_END
    for name, value in values.items():
        if not math.isfinite(value):
            problems.append("metric %s is not finite" % name)

    print("== %s (seed %d, %d untraced / %d traced passes)"
          % (workload, args.seed, len(raw["pass_s"]), len(raw["traced_pass_s"])))
    for name in table:
        unit, better = table[name]
        print("  %-32s %16.6g %-6s (%s is better)" % (name, values[name], unit, better))
    q1, q3 = quartiles(raw["pass_s"])
    pct, pct_value = tail_percentile(raw["pass_s"])
    print("  pass_s distribution: n=%d median=%.6f q1=%.6f q3=%.6f %s"
          % (len(raw["pass_s"]), statistics.median(raw["pass_s"]), q1, q3,
             "p%d=%.6f" % (pct, pct_value) if pct else "(too few passes for a tail)"))
    print("  failed_frac: %d/%d" % (raw["failed"], raw["attempted"]))
    for problem in problems:
        print("  CHECK FAILED: " + problem)

    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": not problems,
        "problems": problems,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": values,
        "pass_s": {"n": len(raw["pass_s"]), "q1": q1, "q3": q3,
                   "tail_percentile": pct, "tail_value": pct_value},
        "sim": {"fingerprint": sorted({fp for k in raw["fingerprints"].values() for fp in k}),
                "makespan_ticks": {p["name"]: p["makespan_ticks"] for p in raw["programs"]},
                "baseline_ticks": {p["name"]: p["baseline_ticks"] for p in raw["programs"]}},
        "host": {"nproc": os.cpu_count(), "cpu": cpu_model(), "compiler": raw["compiler"],
                 "build_type": raw["build_type"], "git_commit": git_commit()},
    }
    print("  host: %s" % json.dumps(record["host"]))
    if args.out:
        with open(args.out, "a") as out:
            out.write(json.dumps(record) + "\n")
    result = {
        "correct": not problems,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": table[name][0]} for name in table},
    }
    print(json.dumps(result), flush=True)
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="wall time of timed passes per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the traced run's spans as Chrome trace JSON")
    parser.add_argument("--out", help="append each run's full record to this JSON-lines file")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.trace_out and not args.trace:
        parser.error("--trace-out needs --trace 1")

    build()
    ok = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        ok = run_workload(workload, args) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
