#!/usr/bin/env python3
"""A/B the pipeline benchmark against an older revision in alternating pairs.

    python3 scripts/ab_pipeline.py PARENT_REV --workload kv_zipf --pairs 10 --seconds 5

Exports PARENT_REV (any git revision) into a work directory with
`git archive`, then runs `bench/pipeline/run.py --out` N times in that tree
and N times in this working tree, alternating between them (the side that
goes first swaps every pair, so a drift in host speed hits both sides
alike). Both run.py invocations build their own harness from their own
sources on first use. Finally it prints the host's core count and compiler
and runs this tree's `bench/pipeline/compare.py` on the two JSON-lines
files, whose verdict table and exit code it passes on, and after the table
each workload's per-pair pass_s and setup_s ratios (change over parent):
the median, the range and how many pairs the change won.

Pass times of unchanged binaries vary by tens of percent from one run to
the next on a shared host, so a performance claim needs many alternating
pairs, not one run per side. The medians of one tree can drift between
series while the ratios within pairs hold steady, which is why the pair
ratios are printed too. The work directory (a fresh temporary one
unless --workdir names one) keeps `parent.jsonl`, `change.jsonl` and the
parent tree with its harness build, so a second invocation with the same
--workdir and revision skips the export and the parent's build.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path("bench") / "pipeline" / "run.py"
COMPARE = ROOT / "bench" / "pipeline" / "compare.py"


def export_revision(rev, dest):
    """Write the tree of `rev` into `dest`, unless that commit is already there."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    stamp = dest / ".ab_pipeline_commit"
    if stamp.exists() and stamp.read_text() == commit:
        return
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    stamp.write_text(commit)


def compiler():
    try:
        out = subprocess.run(["c++", "--version"], capture_output=True, text=True,
                             check=True).stdout
        return out.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        return "unknown"


def run_side(tree, out, args):
    cmd = [sys.executable, str(tree / RUN), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", "0", "--out", str(out)]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"ab_pipeline: {' '.join(cmd)} failed in {tree}:\n{done.stderr}")


PAIRED_METRICS = ("pass_s", "setup_s")


def run_times(path, metric):
    """workload -> `metric` of each untraced run, in run order."""
    times = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    times.setdefault(record["workload"], []).append(record["metrics"][metric])
    return times


def print_pair_ratios(parent_file, change_file):
    """Each workload's pass_s and setup_s ratio within every pair (change over parent)."""
    for metric in PAIRED_METRICS:
        parent, change = run_times(parent_file, metric), run_times(change_file, metric)
        for workload in sorted(set(parent) & set(change)):
            ratios = [c / p for p, c in zip(parent[workload], change[workload])]
            won = sum(r < 1.0 for r in ratios)
            print(f"{workload} {metric} pair ratios (change/parent): median "
                  f"{statistics.median(ratios):.3f}, range {min(ratios):.3f}-{max(ratios):.3f}, "
                  f"change faster in {won}/{len(ratios)} pairs")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision to compare against (e.g. HEAD~1)")
    parser.add_argument("--workload", default="kv_zipf")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="run.py --seconds for every run")
    parser.add_argument("--workdir", help="keep the parent tree and the run files here")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    work = Path(args.workdir or tempfile.mkdtemp(prefix="ab_pipeline_")).resolve()
    parent_tree = work / "parent"
    export_revision(args.parent, parent_tree)
    files = {"parent": work / "parent.jsonl", "change": work / "change.jsonl"}
    for f in files.values():
        f.unlink(missing_ok=True)
    trees = {"parent": parent_tree, "change": ROOT}

    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            run_side(trees[side], files[side], args)
        print(f"pair {pair + 1}/{args.pairs} done", flush=True)

    print(f"host: {platform.machine()}, nproc {os.cpu_count()}, compiler: {compiler()}")
    print(f"parent {args.parent} vs working tree, workload {args.workload}, "
          f"{args.pairs} pairs x {args.seconds:g} s; runs in {work}")
    verdict = subprocess.run([sys.executable, str(COMPARE), str(files["parent"]),
                              str(files["change"])])
    sys.stdout.flush()
    print_pair_ratios(files["parent"], files["change"])
    return verdict.returncode


if __name__ == "__main__":
    sys.exit(main())
