#!/usr/bin/env python3
"""Compare two sets of pipeline-benchmark runs (README.md).

    python3 bench/pipeline/compare.py A.jsonl B.jsonl
    python3 bench/pipeline/compare.py --self-test

A and B are files written by `run.py --out` (A the parent, B the change).
Only untraced (--trace 0) records count. For each workload and each
end-to-end metric of BENCHMARK.json the table shows both sides' median and
quartiles, the metric's bound and a verdict:

  better / same / worse  B's median against A's, by more than the bound
                         or not;
  unresolved             one side's spread (quartile distance over median)
                         exceeds the bound, and not every run of B reads
                         better than every run of A.

Sim-domain values (each program's makespan and baseline Ticks, and the
fingerprint of every sim counter and translated source) must be identical
for every (workload, seed) the two sets share; any difference is `worse`.

Exit code: 1 if any row is worse, 2 if any is unresolved, 0 otherwise.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_BENCH = HERE.parent.parent / "BENCHMARK.json"


def load_runs(path):
    """workload -> list of untraced run records."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def summarize(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(a, b, better, bound):
    """Verdict of B against A for one metric; also returns B's relative change."""
    a_med, a_q1, a_q3 = summarize(a)
    b_med, b_q1, b_q3 = summarize(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b_med - a_med) / a_med
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    if spread > bound:
        every_b_better = all(sign * (y - x) < 0 for x in a for y in b)
        return ("better" if every_b_better else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def sim_verdict(a_runs, b_runs):
    """Exact comparison of sim-domain values per shared seed, or across all
    runs when neither side's values depend on the seed."""
    def seed_independent(runs):
        values = {json.dumps(r["sim"], sort_keys=True) for r in runs}
        return len(values) == 1 and len({r["seed"] for r in runs}) > 1, values

    a_independent, a_distinct = seed_independent(a_runs)
    b_independent, b_distinct = seed_independent(b_runs)
    if a_independent and b_independent:
        if a_distinct != b_distinct:
            return "worse", "differs (seed-independent)"
        return "same", "identical (seed-independent)"
    a_by_seed = {r["seed"]: r["sim"] for r in a_runs}
    b_by_seed = {r["seed"]: r["sim"] for r in b_runs}
    shared = sorted(set(a_by_seed) & set(b_by_seed))
    if not shared:
        return "unresolved", "no shared seed"
    differing = [s for s in shared if a_by_seed[s] != b_by_seed[s]]
    if differing:
        return "worse", "differs for seeds %s" % differing
    return "same", "identical for %d seeds" % len(shared)


def compare(a, b, bench, out=sys.stdout):
    """Prints the comparison table; returns the exit code."""
    rows = []
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in a or workload not in b:
            rows.append((workload, "*", "", "", "", "", "unresolved (no runs)"))
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a_vals = [r["metrics"][name] for r in a[workload]]
            b_vals = [r["metrics"][name] for r in b[workload]]
            v, worse_by = verdict(a_vals, b_vals, metric["better"], metric["bound"])
            rows.append((workload, "%s [%s]" % (name, metric["unit"]),
                         "%.6g [%.6g, %.6g]" % summarize(a_vals),
                         "%.6g [%.6g, %.6g]" % summarize(b_vals),
                         "%+.2f%%" % (100 * worse_by), "%g" % metric["bound"], v))
        v, detail = sim_verdict(a[workload], b[workload])
        rows.append((workload, "sim-domain values", "", "", detail, "exact", v))

    header = ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
              "worse by", "bound", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip(), file=out)
    verdicts = [r[-1] for r in rows]
    if "worse" in verdicts:
        return 1
    if any(v.startswith("unresolved") for v in verdicts):
        return 2
    return 0


def load_bench(path):
    with open(path) as f:
        return json.load(f)


def self_test(bench):
    """Planted regressions must be flagged; an unchanged copy must not be."""
    sys.path.insert(0, str(HERE))
    import run  # noqa: E402  (the metric definitions this file judges)

    problems = []
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
        if declared != table:
            problems.append("BENCHMARK.json %s differs from run.py's" % key)
    if [w["name"] for w in bench["workloads"]] != run.WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from run.py's")

    def runs(jitter_seed, pass_scale=1.0, tick_delta=0, jitter=0.001):
        out = {}
        for workload in run.WORKLOADS:
            out[workload] = []
            for seed in range(1, 11):
                noise = 1.0 + (((seed * 7 + jitter_seed) % 10) - 4.5) * jitter
                ticks = {"PiApprox": 2214955256 + tick_delta, "LU": 1605640000}
                out[workload].append({
                    "workload": workload, "seed": seed, "trace": 0,
                    "metrics": {"pass_s": 0.25 * noise * pass_scale,
                                "setup_s": 0.42 * noise,
                                "sim_speedup": 17.5 * 2214955256 / ticks["PiApprox"],
                                "peak_rss_mb": 20.0 * noise},
                    "sim": {"makespan_ticks": ticks, "fingerprint": ["0123456789abcdef"]},
                })
        return out

    class Null:
        def write(self, _):
            pass

    # The planted slowdown is 20% beyond pass_s's bound: run-to-run drift on
    # a shared host forces that bound wide (README.md), and a slowdown
    # within it is, by definition, no regression.
    pass_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "pass_s")
    slower = 1.0 + pass_bound + 0.2
    parent = runs(0)
    cases = [
        ("unchanged copy", runs(3), 0),
        ("pass_s %.0f%% slower" % (100 * (slower - 1)), runs(3, pass_scale=slower), 1),
        ("one Tick longer makespan", runs(3, tick_delta=1), 1),
        ("spread wider than bounds", runs(3, jitter=0.2), 2),
    ]
    for label, change, want in cases:
        got = compare(parent, change, bench, out=Null())
        print("self-test: %-26s exit %d (want %d)" % (label, got, want))
        if got != want:
            problems.append("%s: exit %d, want %d" % (label, got, want))
    for p in problems:
        print("SELF-TEST FAILED: " + p)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", nargs="?", help="parent runs (run.py --out file)")
    parser.add_argument("b", nargs="?", help="changed runs (run.py --out file)")
    parser.add_argument("--bench", default=str(DEFAULT_BENCH), help="BENCHMARK.json")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    bench = load_bench(args.bench)
    if args.self_test:
        sys.exit(self_test(bench))
    if not args.a or not args.b:
        parser.error("give two run files, or --self-test")
    sys.exit(compare(load_runs(args.a), load_runs(args.b), bench))


if __name__ == "__main__":
    main()
