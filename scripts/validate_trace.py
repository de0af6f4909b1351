#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file emitted by the simulator.

CI runs this against the artifact micro_sim writes via --trace-out, so a
malformed exporter fails the build instead of silently producing a file
Perfetto cannot open. Checks (stdlib only):

  * top-level shape: {"displayTimeUnit": "ns", "traceEvents": [...]}
  * every event has ph/pid/tid, and ph is one of M/X/i/C (no b/e async
    spans)
  * exactly two process groups, pid 1 (UEs) and pid 3 (controllers): any
    other pid fails, both have process_name metadata, and every (pid, tid)
    that carries events has thread_name metadata
  * X spans have non-negative dur; all timestamps are non-negative ints
    (simulated Ticks, never host time — host time is not deterministic)
  * per (pid, tid) track, events are sorted by ts (the exporter merges
    per-task buffers deterministically; out-of-order output would mean
    the merge broke)
  * C counter events carry a numeric args value

Exit 0 on success, 1 with a message on the first violation.

Usage: validate_trace.py TRACE.json
"""

import json
import sys

VALID_PH = {"M", "X", "i", "C"}
VALID_PIDS = {1, 3}


def fail(msg):
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail("usage: validate_trace.py TRACE.json")
    try:
        with open(sys.argv[1], "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot parse {sys.argv[1]}: {exc}")

    if doc.get("displayTimeUnit") != "ns":
        fail("displayTimeUnit must be 'ns'")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents must be a non-empty array")

    process_names = {}
    thread_names = set()
    last_ts = {}
    data_events = 0

    for idx, ev in enumerate(events):
        where = f"traceEvents[{idx}]"
        ph = ev.get("ph")
        if ph not in VALID_PH:
            fail(f"{where}: bad ph {ph!r}")
        pid, tid = ev.get("pid"), ev.get("tid")
        if not isinstance(pid, int) or not isinstance(tid, int):
            fail(f"{where}: pid/tid must be ints")
        if pid not in VALID_PIDS:
            fail(f"{where}: pid {pid} is not one of {sorted(VALID_PIDS)}")

        if ph == "M":
            kind = ev.get("name")
            args = ev.get("args", {})
            if kind == "process_name":
                process_names[pid] = args.get("name")
            elif kind == "thread_name":
                thread_names.add((pid, tid))
            else:
                fail(f"{where}: unknown metadata {kind!r}")
            continue

        data_events += 1
        ts = ev.get("ts")
        if not isinstance(ts, int) or ts < 0:
            fail(f"{where}: ts must be a non-negative int (simulated Ticks)")
        if not ev.get("name"):
            fail(f"{where}: data event missing name")
        if (pid, tid) not in thread_names:
            fail(f"{where}: events on unnamed track pid={pid} tid={tid}")
        track = (pid, tid)
        if ts < last_ts.get(track, 0):
            fail(f"{where}: ts {ts} goes backwards on track pid={pid} tid={tid}")
        last_ts[track] = ts

        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, int) or dur < 0:
                fail(f"{where}: X span needs non-negative int dur")
        elif ph == "C":
            args = ev.get("args", {})
            if not args or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                fail(f"{where}: C counter needs numeric args")

    for pid in sorted(VALID_PIDS):
        if pid not in process_names:
            fail(f"missing process_name metadata for pid {pid}")
    if data_events == 0:
        fail("trace contains metadata only, no data events")

    print(
        f"validate_trace: OK: {data_events} events on {len(last_ts)} tracks, "
        f"{len(process_names)} process groups"
    )


if __name__ == "__main__":
    main()
