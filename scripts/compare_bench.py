#!/usr/bin/env python3
"""Gate micro_sim: sim-domain values against a baseline, host time against
the parent commit on the same machine.

    python3 scripts/compare_bench.py BENCH_baseline.json BENCH_pr.json
    python3 scripts/compare_bench.py --ab PARENT_REV build/bench/micro_sim
    python3 scripts/compare_bench.py --baseline-from BENCH_pr.json > BENCH_baseline.json
    python3 scripts/compare_bench.py --self-test

Sim-domain gate (BASELINE PR). BENCH_baseline.json holds only values that
are a pure function of program and config, so it cannot go stale when host
speed changes. The gate fails when:
  * any entry of any scenario's `checks` map in the PR run is false;
  * a baseline scenario is missing from the PR run;
  * any run's makespan_ps or sim_hash, or any scenario-level *makespan_ps
    value, differs from the baseline;
  * a deterministic rate moves the wrong way beyond the 4-decimal
    formatting epsilon: any run's coalescing_rate or swcache_hit_rate, the
    fault sweep's recovery_rate or kv_zipf_8ue's controller_load_cv_striped
    falls, or controller_load_cv_placed rises;
  * obs_trace_8ue's trace_overhead_barrier_32ue (traced wall / untraced
    wall, a host-time ratio of one run) exceeds 4x.
Any of these is a code change, never noise: regenerate the baseline
deliberately, with --baseline-from on a full run of the parent's code
first, when a change is meant to shift them. Scenarios only in the PR run
are reported as new.

Host-time gate (--ab). Exports PARENT_REV with ab_pipeline.export_revision,
builds only its micro_sim target with the change binary's build type, and
runs every timed scenario of BENCH_baseline.json (those with a "coalesced"
run) as `micro_sim --scenario` trials: TRIALS per side, alternating sides and
swapping which goes first. Each scenario's coalesced throughput is judged by
bench/pipeline/compare.py's verdict() with a 15% bound. `worse` fails.
`unresolved` (a spread wider than the bound) fails only when the median is
worse by more than the bound AND every change trial reads worse than every
parent trial: the mirror of verdict()'s own rule for `better`. On a shared
4-vCPU host most verdicts of an unchanged tree are `unresolved`, and
failing them all, or every median beyond the bound, failed most runs
(CHANGES.md records the data).

Throughput: shm_words_per_sec for scenarios with shared-word traffic,
mpb_chunks_per_sec for MPB-only ones, events_per_sec otherwise: simulated
work per host second, invariant to how many engine events the work costs.
"""

import argparse
import copy
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench" / "pipeline"))
from ab_pipeline import export_revision  # noqa: E402
from compare import verdict  # noqa: E402

BASELINE = ROOT / "BENCH_baseline.json"
PARENT_TREE = ROOT / ".bench_build" / "micro_sim_parent"
RATE_EPSILON = 0.005  # rates are emitted with 4 decimals
EXACT_FIELDS = ("makespan_ps", "sim_hash")
# Deterministic rates: +1 may not fall, -1 may not rise.
RATE_DIRECTIONS = {"coalescing_rate": 1, "swcache_hit_rate": 1, "recovery_rate": 1,
                   "controller_load_cv_striped": 1, "controller_load_cv_placed": -1}
TRACE_OVERHEAD_CAP = 4.0
AB_BOUND = 0.15
TRIALS = 5


def leaves(scenario):
    """(label, value) of every scalar in a scenario, one dict level deep."""
    for key, value in scenario.items():
        if isinstance(value, dict):
            for field, inner in value.items():
                yield f"{key}.{field}", inner
        elif key != "name":
            yield key, value


def sim_failures(baseline, pr, say=print):
    """Every sim-domain gate failure of `pr` against `baseline`."""
    failures = []
    for scenario in pr["scenarios"]:
        for check, ok in scenario.get("checks", {}).items():
            if not ok:
                failures.append(f"{scenario['name']}: check {check} is false")
        overhead = scenario.get("trace_overhead_barrier_32ue")
        if overhead is not None:
            if overhead > TRACE_OVERHEAD_CAP:
                failures.append(f"{scenario['name']}: trace_overhead_barrier_32ue "
                                f"{overhead:.2f}x exceeds {TRACE_OVERHEAD_CAP:g}x")
            else:
                say(f"ok trace_overhead_barrier_32ue {overhead:.2f}x "
                    f"(cap {TRACE_OVERHEAD_CAP:g}x)")

    pr_scenarios = {s["name"]: s for s in pr["scenarios"]}
    checked = 0
    for base in baseline["scenarios"]:
        name = base["name"]
        if name not in pr_scenarios:
            failures.append(f"{name}: scenario missing from PR run")
            continue
        new = dict(leaves(pr_scenarios[name]))
        for label, old in leaves(base):
            value = new.get(label)
            key = label.rsplit(".", 1)[-1]
            if value is None:
                continue
            if key in EXACT_FIELDS or key.endswith("makespan_ps"):
                checked += 1
                if value != old:
                    failures.append(f"{name}.{label} changed {old} -> {value}")
            elif key in RATE_DIRECTIONS and RATE_DIRECTIONS[key] * (value - old) < -RATE_EPSILON:
                failures.append(f"{name}.{label} moved the wrong way {old:.4f} -> {value:.4f}")
    say(f"exact sim-domain gate: {checked} values compared")
    for name in pr_scenarios.keys() - {s["name"] for s in baseline["scenarios"]}:
        say(f"new {name}: not in the baseline, not gated")
    return failures


def throughput(run):
    """(metric name, value): simulated work per host second."""
    if run.get("shm_words", 0) > 0:
        return "shm_words_per_sec", run["shm_words_per_sec"]
    if run.get("mpb_chunks", 0) > 0:
        return "mpb_chunks_per_sec", run["mpb_chunks_per_sec"]
    return "events_per_sec", run["events_per_sec"]


def ab_failures(parent, change, say=print):
    """Judge scenario -> [throughput per trial] of the change against the
    parent's; returns the failures."""
    failures = []
    for name, b in change.items():
        a = parent.get(name)
        if not a:
            say(f"new {name}: no parent trials, not judged")
            continue
        v, worse_by = verdict(a, b, "higher", AB_BOUND)
        say(f"{v:10s} {name}: parent median {statistics.median(a):.4g}, change "
            f"median {statistics.median(b):.4g} ({-worse_by:+.1%})")
        separated = all(y < x for x in a for y in b)
        if v == "worse" or (v == "unresolved" and worse_by > AB_BOUND and separated):
            failures.append(f"{name}: throughput {v}, {-worse_by:+.1%} against the parent")
    return failures


def build_type(binary):
    """CMAKE_BUILD_TYPE of the build tree that holds `binary` ('' if none)."""
    for parent in Path(binary).resolve().parents:
        cache = parent / "CMakeCache.txt"
        if cache.exists():
            for line in cache.read_text().splitlines():
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1]
            break
    return ""


def build_parent(rev, change_bin):
    export_revision(rev, PARENT_TREE)
    build = PARENT_TREE / "build"
    quiet = {"check": True, "stdout": subprocess.DEVNULL}
    subprocess.run(["cmake", "-S", str(PARENT_TREE), "-B", str(build),
                    f"-DCMAKE_BUILD_TYPE={build_type(change_bin)}"], **quiet)
    subprocess.run(["cmake", "--build", str(build), "-j", str(os.cpu_count() or 1),
                    "--target", "micro_sim"], **quiet)
    return build / "bench" / "micro_sim"


def trial(binary, scenario):
    """One `--scenario` run: its JSON's bench block and coalesced throughput."""
    out = subprocess.run([str(binary), "--scenario", scenario], capture_output=True, text=True)
    try:
        doc = json.loads(out.stdout)
        return doc.get("bench"), throughput(doc["scenarios"][0]["coalesced"])[1]
    except (ValueError, KeyError, IndexError):
        sys.exit(f"compare_bench: {binary} --scenario {scenario} printed no run "
                 f"(exit {out.returncode}):\n{out.stderr}")


def ab(rev, change_bin):
    with open(BASELINE, encoding="utf-8") as f:
        timed = [s["name"] for s in json.load(f)["scenarios"] if "coalesced" in s]
    binaries = {"parent": build_parent(rev, change_bin), "change": Path(change_bin)}
    listed = subprocess.run([str(binaries["parent"]), "--list-scenarios"],
                            capture_output=True, text=True, check=True).stdout.split()
    runs = {"parent": {}, "change": {}}
    bench = {}
    for name in timed:
        sides = ("parent", "change") if name in listed else ("change",)
        for t in range(TRIALS):
            for side in sides if t % 2 == 0 else sides[::-1]:
                bench[side], value = trial(binaries[side], name)
                runs[side].setdefault(name, []).append(value)
    print(f"host: {platform.machine()}, change's bench block {bench.get('change')}")
    print(f"parent {rev} vs {change_bin}: {TRIALS} alternating trials per side, "
          f"bound {AB_BOUND:.0%}")
    return ab_failures(runs["parent"], runs["change"])


def baseline_text(doc):
    """`doc`'s sim-domain values, one run record per line: host-time fields
    and the bench block (host, compiler) dropped."""
    def sim_domain(record):
        return {k: sim_domain(v) if isinstance(v, dict) else v for k, v in record.items()
                if k != "wall_seconds" and not k.endswith("_per_sec")
                and not k.startswith("trace_overhead")}
    scenarios = []
    for scenario in doc["scenarios"]:
        items = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sim_domain(scenario).items()]
        scenarios.append("    {" + ",\n     ".join(items) + "}")
    return '{\n  "scenarios": [\n' + ",\n".join(scenarios) + "\n  ]\n}\n"


def self_test():
    """Check both judges on planted data built from the committed baseline."""
    with open(BASELINE, encoding="utf-8") as f:
        baseline = json.load(f)
    timed = [s["name"] for s in baseline["scenarios"] if "coalesced" in s]
    victim = timed[0]
    checked = next(s for s in baseline["scenarios"] if s.get("checks"))

    def planted(edit=None):
        pr = copy.deepcopy(baseline)
        if edit:
            edit({s["name"]: s for s in pr["scenarios"]}, pr)
        return pr

    def one_tick(by_name, _):
        by_name[victim]["coalesced"]["makespan_ps"] += 1

    def false_check(by_name, _):
        first = next(iter(by_name[checked["name"]]["checks"]))
        by_name[checked["name"]]["checks"][first] = False

    def missing(_, pr):
        pr["scenarios"] = [s for s in pr["scenarios"] if s["name"] != victim]

    false_name = next(iter(checked["checks"]))
    sim_cases = [
        ("unchanged copy passes", planted(), []),
        (f"{victim} makespan_ps +1 fails the exact gate", planted(one_tick),
         [f"{victim}.coalesced.makespan_ps"]),
        (f"false {checked['name']} check {false_name} fails", planted(false_check),
         [f"{checked['name']}: check {false_name}"]),
        (f"{victim} missing from the PR run fails", planted(missing), [victim]),
    ]

    def trials(scale=None, jitter=0.01):
        """scenario -> TRIALS throughputs spread by +-2 `jitter`, scaled by
        `scale` (scenario or None for all -> factor)."""
        scale = scale or {}
        return {name: [1e6 * (i + 1) * (1 + jitter * (t - 2)) *
                       scale.get(name, scale.get(None, 1.0)) for t in range(TRIALS)]
                for i, name in enumerate(timed)}

    # 15% jitter spreads the quartiles 30% apart, so every verdict is
    # `unresolved`, as on a noisy shared host.
    calm, noisy = trials(), trials(jitter=0.15)
    ab_cases = [
        ("unchanged copy passes", calm, trials(), []),
        (f"{victim} 2x slower fails", calm, trials({victim: 0.5}), [victim]),
        ("uniform 1.3x faster passes", calm, trials({None: 1.3}), []),
        ("noisy unchanged copy passes", noisy, trials(jitter=0.15), []),
        (f"noisy {victim} 2x slower fails", noisy, trials({victim: 0.5}, 0.15), [victim]),
    ]

    quiet = {"say": lambda *_: None}
    results = [("sim", label, sim_failures(baseline, pr, **quiet), names)
               for label, pr, names in sim_cases]
    results += [("ab", label, ab_failures(parent, change, **quiet), names)
                for label, parent, change, names in ab_cases]
    bad = 0
    for kind, label, failures, must_name in results:
        # Each expected failure must be named, and nothing else may fail.
        ok = len(failures) == len(must_name) and all(
            any(f.startswith(n) for f in failures) for n in must_name)
        bad += not ok
        print(f"{'ok' if ok else 'FAIL'} [{kind}] {label}" + ("" if ok else f": {failures}"))
    print("self-test " + ("passed" if bad == 0 else f"FAILED ({bad} cases)"))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?", help="committed BENCH_baseline.json")
    parser.add_argument("pr", nargs="?", help="freshly generated BENCH_pr.json")
    parser.add_argument("--ab", nargs=2, metavar=("PARENT_REV", "MICRO_SIM"),
                        help="judge host time against PARENT_REV's micro_sim")
    parser.add_argument("--baseline-from", metavar="PR_JSON",
                        help="print PR_JSON's sim-domain values as a baseline")
    parser.add_argument("--self-test", action="store_true",
                        help="check the judges on planted data")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.baseline_from:
        with open(args.baseline_from, encoding="utf-8") as f:
            sys.stdout.write(baseline_text(json.load(f)))
        return 0
    if args.ab:
        failures = ab(*args.ab)
    elif args.baseline and args.pr:
        with open(args.baseline, encoding="utf-8") as f:
            baseline = json.load(f)
        with open(args.pr, encoding="utf-8") as f:
            failures = sim_failures(baseline, json.load(f))
    else:
        parser.error("give BASELINE and PR, --ab, --baseline-from or --self-test")
    if failures:
        print("\nmicro_sim gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nmicro_sim gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
