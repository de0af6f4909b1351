#!/usr/bin/env python3
"""Gate the micro_sim bench trajectory: BENCH_pr.json vs BENCH_baseline.json.

Fails (exit 1) when:
  * any Tick equivalence check in the PR run is violated (this includes the
    ExecutionPlan-driven twins: plan-launched runs must match the
    legacy-knob Ticks bit for bit),
  * any swcache check (DRF functional identity across cached/uncached
    routings, the read-mostly hit-rate bar) in the PR run is violated,
  * any mixed-policy check is violated (mixed_policy_8ue: the per-region
    plan must beat both machine-wide cacheability settings on simulated
    words per simulated second, with bit-identical functional results and
    zero MPB scope violations),
  * any observability check is violated (obs_checks_ok: a traced run must
    export byte-identical Chrome JSON across coalescing modes, and enabling
    the trace must not move a single Tick of the barrier_32ue run),
  * any KV Zipf check is violated (kv_zipf_8ue: both placement plans must
    verify against the host replay and the striped plan must hot-spot one
    controller while owner-compute stays flat), or the deterministic
    controller_load_cv values shift against the baseline (striped must not
    fall, placed must not rise),
  * any sim-domain value present in both files differs from the baseline:
    every run's makespan_ps and sim_hash (FNV-1a over its per-task
    completion Ticks and extracted result bytes), and every scenario-level
    *makespan_ps field. Simulated time is a pure function of program and
    config, so any difference is a model change that needs a deliberate
    baseline regeneration — never noise,
  * a scenario present in the baseline is missing from the PR run,
  * simulator throughput of a scenario's coalesced run regresses more than
    the tolerance (default 15%, override with --tolerance) after normalizing
    for overall machine speed,
  * the coalescing rate of a scenario's coalesced run drops below the
    baseline (beyond a small float-formatting epsilon),
  * the swcache hit rate of a scenario's coalesced run drops below the
    baseline (same epsilon) — both rates are deterministic, so any drop is
    a code change, not noise.

Scenarios present only in the PR run are reported as "new" (not failures):
a PR may add scenarios without regenerating the committed baseline, which
should then be refreshed in a follow-up so they join the gated trajectory.

Throughput metric: shm_words_per_sec for word-granular scenarios (simulated
shared words — uncached transactions plus words served through the swcache —
per host second: invariant to how many engine events that work costs, so
better coalescing or caching cannot read as a regression the way raw
events/sec would), mpb_chunks_per_sec for MPB-chunk scenarios without word
traffic, events_per_sec for substrate scenarios with neither.

The committed baseline was measured on one machine and CI runs on another,
so raw events/sec comparisons would gate on hardware, not code. To separate
the two, the PR/baseline throughput ratios are normalized by their median
across all scenarios: a uniformly slower (or faster) machine moves every
ratio and cancels out, while a single scenario regressing relative to its
peers is exactly what survives the normalization. The median, unlike a
geometric mean, cannot be moved by one scenario's real gain (a 5x faster
scenario would lift a geomean and push untouched peers under the floor).
The committed baseline should be regenerated
(./build/bench/micro_sim > BENCH_baseline.json) whenever a PR intentionally
shifts the trajectory, making the shift reviewable in the diff.

`--self-test` checks the judge itself on planted copies of the committed
baseline (no build needed).
"""

import argparse
import copy
import json
import statistics
import sys
from pathlib import Path

RATE_EPSILON = 0.005  # coalescing_rate is emitted with 4 decimals
EXACT_RUN_FIELDS = ("makespan_ps", "sim_hash")


def exact_mismatches(baseline, pr):
    """(values checked, failures) of the exact sim-domain gate."""
    checked = 0
    failures = []
    pr_scenarios = {s["name"]: s for s in pr.get("scenarios", [])}
    for base_scenario in baseline.get("scenarios", []):
        name = base_scenario["name"]
        pr_scenario = pr_scenarios.get(name, {})
        for key, base_value in base_scenario.items():
            pr_value = pr_scenario.get(key)
            if isinstance(base_value, dict) and isinstance(pr_value, dict):
                values = [(f"{key}.{field}", base_value.get(field), pr_value.get(field))
                          for field in EXACT_RUN_FIELDS]
            elif key.endswith("makespan_ps"):
                values = [(key, base_value, pr_value)]
            else:
                continue
            for label, base, new in values:
                if base is None or new is None:
                    continue
                checked += 1
                if base != new:
                    failures.append(f"{name}.{label} changed {base} -> {new}")
    return checked, failures


THROUGHPUT_FIELDS = ("shm_words_per_sec", "mpb_chunks_per_sec", "events_per_sec")


def throughput(run):
    """(metric name, value): simulated-work/sec if any, else events/sec."""
    if run.get("shm_words", 0) > 0:
        return "shm_words_per_sec", run["shm_words_per_sec"]
    if run.get("mpb_chunks", 0) > 0:
        return "mpb_chunks_per_sec", run["mpb_chunks_per_sec"]
    return "events_per_sec", run["events_per_sec"]


def judge(baseline, pr, tolerance, say=print):
    """Every gate failure of `pr` against `baseline` (empty: passed)."""
    failures = []

    if not pr.get("ticks_identical_all", False):
        failures.append(
            "ticks_identical_all is false: coalescing produced diverging Ticks"
        )
    # Absent in pre-swcache result files; present files must pass.
    if not pr.get("swcache_checks_ok", True):
        failures.append(
            "swcache_checks_ok is false: DRF functional identity or the "
            "read-mostly hit-rate bar was violated"
        )
    # Absent in pre-ExecutionPlan result files; present files must pass.
    if not pr.get("policy_checks_ok", True):
        failures.append(
            "policy_checks_ok is false: the mixed per-region plan no longer "
            "beats both machine-wide cacheability settings (or its "
            "functional/hit-rate/scope checks failed)"
        )
    # Absent in pre-fault-injection result files; present files must pass.
    if not pr.get("fault_checks_ok", True):
        failures.append(
            "fault_checks_ok is false: zero-rate bit-identity, fault "
            "recovery, same-seed replay, the deadlock report, or the sync "
            "timeout check failed (see fault_sweep_8ue in BENCH_pr.json)"
        )
    # Absent in pre-observability result files; present files must pass.
    if not pr.get("obs_checks_ok", True):
        failures.append(
            "obs_checks_ok is false: a traced run's export diverged across "
            "coalescing modes, or enabling the trace moved a Tick (see "
            "docs/observability.md for the contract)"
        )
    # Enabled-trace wall cost on barrier_32ue (traced wall / untraced wall):
    # tracked, not hard-gated — wall ratios are noisy across machines, so
    # only a blow-up beyond 4x (baseline ~2x) is treated as a recorder
    # regression rather than jitter.
    pr_overhead = pr.get("trace_overhead_barrier_32ue", 0.0)
    if pr_overhead > 4.0:
        failures.append(
            f"trace_overhead_barrier_32ue blew up to {pr_overhead:.2f}x "
            "(traced wall / untraced wall; expected around 2x)"
        )
    elif pr_overhead > 0.0:
        say(f"ok trace_overhead_barrier_32ue {pr_overhead:.2f}x (soft cap 4x)")
    # Absent in pre-KV result files; present files must pass.
    if not pr.get("kv_checks_ok", True):
        failures.append(
            "kv_checks_ok is false: the KV Zipf A/B lost its verification, "
            "its harness/Benchmark makespan agreement, or the striped-vs-"
            "placed controller_load_cv separation (see kv_zipf_8ue in "
            "BENCH_pr.json)"
        )
    # Absent in pre-DRF result files; present files must pass.
    if not pr.get("drf_checks_ok", True):
        failures.append(
            "drf_checks_ok is false: the race detector missed a seeded racy/"
            "false-sharing scenario, its reports diverged across coalescing "
            "modes, drf_check=true moved a Tick, or a paper "
            "benchmark stopped running detector-clean (see the drf_* "
            "scenarios in BENCH_pr.json and docs/race_detection.md)"
        )
    # Controller-load spread of the KV Zipf A/B: deterministic, so any shift
    # beyond the formatting epsilon is a routing/accounting code change. The
    # striped run must keep hot-spotting (CV must not fall) and the placed
    # run must stay flat (CV must not rise).
    for key, must_not in (
        ("controller_load_cv_striped", "fall"),
        ("controller_load_cv_placed", "rise"),
    ):
        base_cv = baseline.get(key)
        pr_cv = pr.get(key)
        if base_cv is None or pr_cv is None:
            continue
        fell = pr_cv < base_cv - RATE_EPSILON
        rose = pr_cv > base_cv + RATE_EPSILON
        if (must_not == "fall" and fell) or (must_not == "rise" and rose):
            failures.append(f"{key} shifted {base_cv:.4f} -> {pr_cv:.4f}")
        else:
            say(f"ok {key} {base_cv:.4f} -> {pr_cv:.4f}")
    # Retry-success rate of the seeded fault sweep: deterministic, so any
    # drop below the baseline is a recovery-layer code change, not noise.
    base_recovery = baseline.get("fault_recovery_rate")
    pr_recovery = pr.get("fault_recovery_rate")
    if base_recovery is not None and pr_recovery is not None:
        if pr_recovery < base_recovery - RATE_EPSILON:
            failures.append(
                f"fault_recovery_rate dropped {base_recovery:.4f} -> "
                f"{pr_recovery:.4f}"
            )
        else:
            say(
                f"ok fault_recovery_rate {base_recovery:.4f} -> {pr_recovery:.4f}"
            )

    checked, exact_failures = exact_mismatches(baseline, pr)
    failures.extend(exact_failures)
    if not exact_failures:
        say(f"ok exact sim-domain gate: {checked} values match the baseline")

    pr_scenarios = {s["name"]: s for s in pr.get("scenarios", [])}
    baseline_names = {s["name"] for s in baseline.get("scenarios", [])}
    pairs = []
    for base_scenario in baseline.get("scenarios", []):
        name = base_scenario["name"]
        pr_scenario = pr_scenarios.get(name)
        if pr_scenario is None:
            failures.append(f"{name}: scenario missing from PR run")
            continue
        # Check-only scenarios (fault_sweep_8ue) carry flags, not timed runs;
        # they are gated via fault_checks_ok / fault_recovery_rate above.
        if "coalesced" not in base_scenario or "coalesced" not in pr_scenario:
            continue
        pairs.append((name, base_scenario["coalesced"], pr_scenario["coalesced"]))

    for name, pr_scenario in pr_scenarios.items():
        if name in baseline_names or "coalesced" not in pr_scenario:
            continue
        metric, value = throughput(pr_scenario["coalesced"])
        rate = pr_scenario["coalesced"].get("coalescing_rate", 0.0)
        say(
            f"new {name}: {metric} {value:.0f}, coalescing rate {rate:.4f} "
            "(not in baseline, not gated — regenerate BENCH_baseline.json "
            "to track it)"
        )

    ratios = []
    for _, base_run, pr_run in pairs:
        _, base_value = throughput(base_run)
        _, pr_value = throughput(pr_run)
        if base_value > 0 and pr_value > 0:
            ratios.append(pr_value / base_value)
    machine_speed = statistics.median(ratios) if ratios else 1.0
    say(f"machine speed vs baseline (median of ratios): {machine_speed:.3f}")

    for name, base_run, pr_run in pairs:
        metric, base_value = throughput(base_run)
        _, pr_value = throughput(pr_run)
        normalized = pr_value / machine_speed if machine_speed > 0 else pr_value
        floor = (1.0 - tolerance) * base_value
        if normalized < floor:
            failures.append(
                f"{name}: {metric} regressed {base_value:.0f} -> {pr_value:.0f} "
                f"({normalized:.0f} machine-normalized, floor {floor:.0f}, "
                f"tolerance {tolerance:.0%})"
            )

        base_rate = base_run.get("coalescing_rate", 0.0)
        pr_rate = pr_run.get("coalescing_rate", 0.0)
        if pr_rate < base_rate - RATE_EPSILON:
            failures.append(
                f"{name}: coalescing rate dropped {base_rate:.4f} -> {pr_rate:.4f}"
            )

        hit_note = ""
        base_hit = base_run.get("swcache_hit_rate", 0.0)
        pr_hit = pr_run.get("swcache_hit_rate", 0.0)
        if base_hit > 0.0:
            if pr_hit < base_hit - RATE_EPSILON:
                failures.append(
                    f"{name}: swcache hit rate dropped {base_hit:.4f} -> {pr_hit:.4f}"
                )
            hit_note = f", swcache hit rate {base_hit:.4f} -> {pr_hit:.4f}"

        say(
            f"ok {name}: {metric} {base_value:.0f} -> {pr_value:.0f} "
            f"({normalized:.0f} normalized), "
            f"coalescing rate {base_rate:.4f} -> {pr_rate:.4f}" + hit_note
        )

    return failures


def self_test():
    """Check the judge on planted copies of the committed baseline."""
    base_path = Path(__file__).resolve().parent.parent / "BENCH_baseline.json"
    with open(base_path, encoding="utf-8") as f:
        baseline = json.load(f)
    timed = [s for s in baseline["scenarios"] if "coalesced" in s]
    victim, other, drifted = (s["name"] for s in timed[:3])

    def planted(scales=None, tick_delta=0):
        """Copy of the baseline; `scales` maps a scenario (None: all) to a
        factor on its throughput."""
        pr = copy.deepcopy(baseline)
        for scenario in pr["scenarios"]:
            run = scenario.get("coalesced")
            scale = (scales or {}).get(scenario["name"], (scales or {}).get(None))
            if run is None or scale is None:
                continue
            for field in THROUGHPUT_FIELDS:
                if field in run:
                    run[field] *= scale
        if tick_delta:
            next(s for s in pr["scenarios"] if s["name"] == victim)[
                "coalesced"]["makespan_ps"] += tick_delta
        return pr

    cases = [
        ("unchanged copy passes", False, planted()),
        ("uniform 0.8x machine passes", False, planted({None: 0.8})),
        (f"{victim} 2x slower fails", True, planted({victim: 0.5})),
        # A real 5x gain must not drag a peer's tolerated 10% drift under
        # the floor (a geometric-mean normalizer would: 5^(1/16) ~ 1.11).
        (f"{other} 5x faster leaves the rest passing", False,
         planted({other: 5.0, drifted: 0.9})),
        (f"{victim} makespan_ps +1 fails", True, planted(tick_delta=1)),
    ]
    bad = 0
    for name, expect_fail, pr in cases:
        failures = judge(baseline, pr, 0.15, say=lambda *_: None)
        ok = bool(failures) == expect_fail
        if expect_fail and failures and not all(victim in f for f in failures):
            ok = False  # flagged, but not (only) the planted scenario
        bad += not ok
        print(f"{'ok' if ok else 'FAIL'} {name}" + (f": {failures}" if not ok else ""))
    print("self-test " + ("passed" if bad == 0 else f"FAILED ({bad} cases)"))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?", help="committed BENCH_baseline.json")
    parser.add_argument("pr", nargs="?", help="freshly generated BENCH_pr.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional events/sec regression (default 0.15)",
    )
    parser.add_argument("--self-test", action="store_true",
                        help="check the judge on planted copies of the baseline")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.baseline is None or args.pr is None:
        parser.error("baseline and pr are required")

    with open(args.baseline, encoding="utf-8") as f:
        baseline = json.load(f)
    with open(args.pr, encoding="utf-8") as f:
        pr = json.load(f)

    failures = judge(baseline, pr, args.tolerance)
    if failures:
        print("\nBENCH trajectory check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nBENCH trajectory check passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
