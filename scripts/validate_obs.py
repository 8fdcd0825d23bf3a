#!/usr/bin/env python3
"""Validate a run's flight dump: every ``flight-node-*.jsonl`` line in the
directory parses and carries an ``hlc`` stamp, and, merged by ``hlc``,
every request span opens exactly once and closes at most once.

A span closes on ``granted``, ``request_cancelled`` or
``request_aborted`` (crash/fence). Re-opening a still-open span is
tolerated once a ``recovery_started`` has been seen since the open:
token regeneration wipes the wait queues, so survivors legitimately
re-issue a wiped request under the same span id.

Usage: validate_obs.py [dump-dir]

The obs-smoke CI job runs it on both dumps `obs_smoke` writes
(`target/experiments/obs_smoke`, `target/experiments/flight`); run it
locally the same way after `cargo run --release -p hlock-bench --bin
obs_smoke`.
"""

import glob
import json
import os
import sys

CLOSERS = ("granted", "request_cancelled", "request_aborted")


def main() -> int:
    root = sys.argv[1] if len(sys.argv) > 1 else "target/experiments/obs_smoke"
    paths = sorted(glob.glob(os.path.join(root, "flight-node-*.jsonl")))
    assert paths, f"no flight-node-*.jsonl under {root}"
    events = [json.loads(line) for path in paths for line in open(path)]
    assert events, "empty event stream"
    for e in events:
        assert {"hlc", "at", "event", "node"} <= e.keys(), e
    events.sort(key=lambda e: (e["hlc"], e["node"]))
    # span -> [net open count, recovery generation at last open]
    state: dict = {}
    closes = 0
    gen = 0
    for e in events:
        if e["event"] == "recovery_started":
            gen += 1
        if "span_origin" not in e:
            continue
        span = (e["span_origin"], e["span_ticket"])
        if e["event"] == "request_issued":
            c, g = state.get(span, (0, gen))
            assert not (c > 0 and g == gen), f"span {span} opened twice"
            state[span] = (1, gen)
        elif e["event"] in CLOSERS:
            c, g = state.get(span, (0, gen))
            assert c > 0, f"span {span} closed ({e['event']}) without an open"
            state[span] = (c - 1, g)
            closes += 1
    dangling = [s for s, (c, _) in state.items() if c != 0]
    assert not dangling, f"spans left open: {sorted(dangling)}"
    print(f"{len(paths)} dumps, {len(events)} events, {len(state)} spans, {closes} closes, balanced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
