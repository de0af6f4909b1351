#!/usr/bin/env python3
"""Judge micro_sim's host time against the parent commit on the same machine.

    python3 scripts/compare_bench.py --ab PARENT_REV build/bench/micro_sim
    python3 scripts/compare_bench.py --self-test

--ab exports PARENT_REV with ab_pipeline.export_revision, builds only its
micro_sim target with the change binary's build type, and runs every timed
scenario the change binary lists (--list-scenarios; a scenario is timed when
its entry has a "coalesced" run) as `micro_sim --scenario` trials: TRIALS
per side, alternating sides and swapping which goes first. Each scenario's
coalesced throughput is judged by bench/pipeline/compare.py's verdict() with
a 15% bound. `worse` fails. `unresolved` (a spread wider than the bound)
fails only when the median is worse by more than the bound AND every change
trial reads worse than every parent trial: the mirror of verdict()'s own
rule for `better`. On a shared 4-vCPU host most verdicts of an unchanged
tree are `unresolved`, and failing them all, or every median beyond the
bound, failed most runs (CHANGES.md records the data).

Throughput: shm_words_per_sec for scenarios with shared-word traffic,
mpb_chunks_per_sec for MPB-only ones, events_per_sec otherwise: simulated
work per host second, invariant to how many engine events the work costs.

--self-test checks the judge on planted trials. Simulated outputs are not
judged here: the tier-1 ctest sim_golden pins them in tests/golden/sim.txt.
"""

import argparse
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

PARENT_TREE = ROOT / ".bench_build" / "micro_sim_parent"
AB_BOUND = 0.15
TRIALS = 5


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
    """One `--scenario` run: its JSON's bench block and coalesced throughput
    (None when the scenario has no timed run)."""
    out = subprocess.run([str(binary), "--scenario", scenario], capture_output=True, text=True)
    try:
        doc = json.loads(out.stdout)
        run = doc["scenarios"][0].get("coalesced")
        return doc.get("bench"), run and throughput(run)[1]
    except (ValueError, KeyError, IndexError):
        sys.exit(f"compare_bench: {binary} --scenario {scenario} printed no run "
                 f"(exit {out.returncode}):\n{out.stderr}")


def scenario_names(binary):
    return subprocess.run([str(binary), "--list-scenarios"], capture_output=True, text=True,
                          check=True).stdout.split()


def ab(rev, change_bin):
    binaries = {"parent": build_parent(rev, change_bin), "change": Path(change_bin)}
    parent_names = scenario_names(binaries["parent"])
    runs = {"parent": {}, "change": {}}
    bench = {}
    for name in scenario_names(binaries["change"]):
        sides = ("parent", "change") if name in parent_names else ("change",)
        for t in range(TRIALS):
            for side in sides if t % 2 == 0 else sides[::-1]:
                bench[side], value = trial(binaries[side], name)
                if value is not None:
                    runs[side].setdefault(name, []).append(value)
            if name not in runs["change"]:
                print(f"untimed {name}: no coalesced run, not judged")
                break
    print(f"host: {platform.machine()}, change's bench block {bench.get('change')}")
    print(f"parent {rev} vs {change_bin}: {TRIALS} alternating trials per side, "
          f"bound {AB_BOUND:.0%}")
    return ab_failures(runs["parent"], runs["change"])


def self_test():
    """Check the judge on planted trials of a fixed scenario list."""
    timed = ("shm_words_single_ue", "rcce_ring_1k_8ue", "barrier_32ue", "kv_zipf_8ue")
    victim = timed[0]

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
    cases = [
        ("unchanged copy passes", calm, trials(), []),
        (f"{victim} 2x slower fails", calm, trials({victim: 0.5}), [victim]),
        ("uniform 1.3x faster passes", calm, trials({None: 1.3}), []),
        ("noisy unchanged copy passes", noisy, trials(jitter=0.15), []),
        (f"noisy {victim} 2x slower fails", noisy, trials({victim: 0.5}, 0.15), [victim]),
    ]
    bad = 0
    for label, parent, change, must_name in cases:
        failures = ab_failures(parent, change, say=lambda *_: None)
        # Each expected failure must be named, and nothing else may fail.
        ok = len(failures) == len(must_name) and all(
            any(f.startswith(n) for f in failures) for n in must_name)
        bad += not ok
        print(f"{'ok' if ok else 'FAIL'} {label}" + ("" if ok else f": {failures}"))
    print("self-test " + ("passed" if bad == 0 else f"FAILED ({bad} cases)"))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ab", nargs=2, metavar=("PARENT_REV", "MICRO_SIM"),
                        help="judge host time against PARENT_REV's micro_sim")
    parser.add_argument("--self-test", action="store_true",
                        help="check the judge on planted trials")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.ab:
        parser.error("give --ab or --self-test")
    failures = ab(*args.ab)
    if failures:
        print("\nmicro_sim host-time gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nmicro_sim host-time gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
