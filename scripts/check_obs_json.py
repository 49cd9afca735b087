#!/usr/bin/env python3
"""Validates the flight recorder's exported JSON against its stable schemas.

Usage: check_obs_json.py TRACE_JSON METRICS_JSON [TIMELINE_JSON]

Checks (stdlib only, no third-party deps):
  trace    - Chrome trace-event shape (traceEvents list, ph/ts/pid/tid
             fields), schema tag scatter.trace.v1, span ids unique, every
             parent_span_id resolves within the same trace, child spans
             start at or after their parent (simulated time), and at least
             one multi-group transaction (txn.coordinate) whose span tree is
             a single connected tree spanning >= 2 distinct groups.
  metrics  - schema tag scatter.metrics.v1, counters/gauges/histograms
             arrays with stable cell shape, histogram summaries carry the
             full quantile set with a sane ordering (count >= 0,
             min <= p50 <= p90 <= p99 <= p100 <= max — a negative-width
             quantile bucket means a broken merge), and the core
             paxos/txn counters and the timeline's load counters are
             present and non-zero for a run that committed operations.
             Durability cells: wal.appends/fsyncs/bytes non-zero with
             fsyncs <= appends (group commit must batch), the
             wal.group_commit_batch histogram populated, the
             recovery.* cells populated by the demo's crash + restart, and
             the recovery.active gauge back to zero (replay is synchronous;
             a lingering nonzero gauge is a wedged recovery).
  timeline - (optional third argument) schema tag scatter.timeline.v1,
             snapshot timestamps strictly increasing, group/node rows with
             stable shape, all rates finite and non-negative, p50 <= p99.

Every number anywhere in every document must be finite: NaN/Infinity are
not JSON, and a single one poisons downstream aggregation silently.
"""

import json
import math
import sys


def fail(msg):
    print(f"check_obs_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load_strict(text, what):
    """json.loads that rejects the NaN/Infinity extensions."""
    def reject(token):
        fail(f"{what}: non-finite number literal {token!r}")
    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as e:
        fail(f"{what}: invalid JSON: {e}")


def check_finite(value, what, path="$"):
    """Recursively rejects non-finite floats (belt to parse_constant's
    suspenders: a float that *parsed* but is inf/nan, e.g. 1e999)."""
    if isinstance(value, float):
        if not math.isfinite(value):
            fail(f"{what}: non-finite number at {path}")
    elif isinstance(value, dict):
        for k, v in value.items():
            check_finite(v, what, f"{path}.{k}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            check_finite(v, what, f"{path}[{i}]")


def check_trace(path):
    with open(path, encoding="utf-8") as f:
        doc = load_strict(f.read(), "trace")
    check_finite(doc, "trace")
    if doc.get("otherData", {}).get("schema") != "scatter.trace.v1":
        fail("trace: missing schema tag scatter.trace.v1")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("trace: traceEvents missing or empty")

    spans = {}  # span_id -> event
    for ev in events:
        for key in ("name", "ph", "ts", "pid", "tid", "args"):
            if key not in ev:
                fail(f"trace: event missing {key!r}: {ev}")
        if ev["ph"] == "X":
            if "dur" not in ev or ev["dur"] < 1:
                fail(f"trace: complete event with bad dur: {ev}")
            sid = ev["args"]["span_id"]
            if sid in spans:
                fail(f"trace: duplicate span_id {sid}")
            spans[sid] = ev
        elif ev["ph"] == "i":
            if ev.get("s") != "t":
                fail(f"trace: instant without thread scope: {ev}")
        else:
            fail(f"trace: unexpected phase {ev['ph']!r}")

    if not spans:
        fail("trace: no complete (ph=X) spans")

    # Parent links resolve within the same trace, and children never start
    # before their parents (simulated clock is the only time source).
    for sid, ev in spans.items():
        parent = ev["args"]["parent_span_id"]
        if parent == 0:
            continue
        if parent not in spans:
            fail(f"trace: span {sid} parent {parent} not exported")
        pev = spans[parent]
        if pev["args"]["trace_id"] != ev["args"]["trace_id"]:
            fail(f"trace: span {sid} crosses traces to parent {parent}")
        if ev["ts"] < pev["ts"]:
            fail(f"trace: span {sid} starts before its parent {parent}")

    # The multi-group transaction criterion: some txn.coordinate span whose
    # tree (all spans of its trace reachable from it) covers >= 2 groups.
    ok_txn = False
    coords = [e for e in spans.values() if e["name"] == "txn.coordinate"]
    if not coords:
        fail("trace: no txn.coordinate span recorded")
    children = {}
    for sid, ev in spans.items():
        children.setdefault(ev["args"]["parent_span_id"], []).append(sid)
    for coord in coords:
        groups = set()
        stack = [coord["args"]["span_id"]]
        while stack:
            sid = stack.pop()
            groups.add(spans[sid]["args"]["group"])
            stack.extend(children.get(sid, []))
        if len(groups) >= 2:
            ok_txn = True
            break
    if not ok_txn:
        fail("trace: no txn.coordinate tree spans >= 2 groups")

    print(f"check_obs_json: trace ok ({len(spans)} spans, "
          f"{len(events) - len(spans)} instants, "
          f"{len(coords)} coordinated txns)")


def check_hist_summary(hist, ctx):
    for key in ("count", "min", "max", "mean", "p50", "p90", "p99", "p100"):
        if key not in hist:
            fail(f"{ctx}: histogram summary missing {key!r}: {hist}")
    if hist["count"] < 0:
        fail(f"{ctx}: negative histogram count: {hist}")
    if hist["count"] == 0:
        return
    # Quantiles must be monotone and bracketed by min/max: an inversion is a
    # negative-width quantile bucket, the signature of a corrupted merge.
    order = [("min", hist["min"]), ("p50", hist["p50"]),
             ("p90", hist["p90"]), ("p99", hist["p99"]),
             ("p100", hist["p100"]), ("max", hist["max"])]
    for (lo_name, lo), (hi_name, hi) in zip(order, order[1:]):
        if lo > hi:
            fail(f"{ctx}: histogram {lo_name} > {hi_name} "
                 f"({lo} > {hi}): {hist}")


def check_metrics(path):
    with open(path, encoding="utf-8") as f:
        # bench_util appends one snapshot per line; validate the last one.
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    if not lines:
        fail("metrics: file empty")
    doc = load_strict(lines[-1], "metrics")
    check_finite(doc, "metrics")
    if doc.get("schema") != "scatter.metrics.v1":
        fail("metrics: missing schema tag scatter.metrics.v1")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), list):
            fail(f"metrics: {section} missing")
    for cell in doc["counters"] + doc["gauges"]:
        for key in ("name", "node", "group", "value"):
            if key not in cell:
                fail(f"metrics: cell missing {key!r}: {cell}")
    for cell in doc["histograms"]:
        for key in ("name", "node", "group", "hist"):
            if key not in cell:
                fail(f"metrics: histogram cell missing {key!r}: {cell}")
        check_hist_summary(cell["hist"], f"metrics: {cell['name']}")

    def total(name):
        return sum(c["value"] for c in doc["counters"] if c["name"] == name)

    for name in ("paxos.entries_committed", "paxos.commits_learned",
                 "store.ops_accepted"):
        if total(name) == 0:
            fail(f"metrics: {name} is zero")
    if total("txn.txns_committed") == 0:
        fail("metrics: txn.txns_committed is zero")

    # Durability cells (the demo runs persisted and restarts one replica).
    wal_appends = total("wal.appends")
    wal_fsyncs = total("wal.fsyncs")
    if wal_appends == 0:
        fail("metrics: wal.appends is zero (persistence not exercised)")
    if wal_fsyncs == 0:
        fail("metrics: wal.fsyncs is zero")
    if total("wal.bytes") == 0:
        fail("metrics: wal.bytes is zero")
    if wal_fsyncs > wal_appends:
        fail(f"metrics: wal.fsyncs ({wal_fsyncs}) exceeds wal.appends "
             f"({wal_appends}) — group commit must batch, not amplify")
    batch_count = sum(c["hist"]["count"] for c in doc["histograms"]
                      if c["name"] == "wal.group_commit_batch")
    if batch_count == 0:
        fail("metrics: wal.group_commit_batch histogram is empty")
    if total("recovery.wal_records") == 0:
        fail("metrics: recovery.wal_records is zero (restart not exercised)")
    if not any(c["name"] == "recovery.replay_entries"
               for c in doc["counters"]):
        fail("metrics: recovery.replay_entries cell missing")
    if sum(c["hist"]["count"] for c in doc["histograms"]
           if c["name"] == "recovery.duration_us") == 0:
        fail("metrics: recovery.duration_us histogram is empty")
    for cell in doc["gauges"]:
        if cell["name"] == "recovery.active" and cell["value"] != 0:
            fail(f"metrics: recovery.active stuck nonzero: {cell}")

    print(f"check_obs_json: metrics ok ({len(doc['counters'])} counter cells, "
          f"{len(doc['gauges'])} gauge cells, "
          f"{len(doc['histograms'])} histogram cells)")


def check_timeline(path):
    with open(path, encoding="utf-8") as f:
        doc = load_strict(f.read(), "timeline")
    check_finite(doc, "timeline")
    if doc.get("schema") != "scatter.timeline.v1":
        fail("timeline: missing schema tag scatter.timeline.v1")
    if not isinstance(doc.get("period_us"), int) or doc["period_us"] <= 0:
        fail("timeline: period_us missing or non-positive")
    snapshots = doc.get("snapshots")
    if not isinstance(snapshots, list) or not snapshots:
        fail("timeline: snapshots missing or empty")

    group_rows = 0
    node_rows = 0
    prev_ts = None
    rate_keys_group = ("ops_per_sec", "bytes_per_sec", "commits_per_sec")
    rate_keys_node = ("frames_per_sec", "wire_bytes_per_sec",
                      "pool_miss_per_sec")
    for snap in snapshots:
        for key in ("ts_us", "groups", "nodes"):
            if key not in snap:
                fail(f"timeline: snapshot missing {key!r}")
        if prev_ts is not None and snap["ts_us"] <= prev_ts:
            fail(f"timeline: snapshot timestamps not increasing "
                 f"({prev_ts} -> {snap['ts_us']})")
        prev_ts = snap["ts_us"]
        for row in snap["groups"]:
            for key in ("group", "node", "p50_us", "p99_us",
                        "health") + rate_keys_group:
                if key not in row:
                    fail(f"timeline: group row missing {key!r}: {row}")
            for key in rate_keys_group:
                if row[key] < 0:
                    fail(f"timeline: negative rate {key}: {row}")
            if row["p50_us"] > row["p99_us"]:
                fail(f"timeline: p50 > p99 in group row: {row}")
            if not isinstance(row["health"], list):
                fail(f"timeline: health not a list: {row}")
            group_rows += 1
        for row in snap["nodes"]:
            for key in ("node", "health") + rate_keys_node:
                if key not in row:
                    fail(f"timeline: node row missing {key!r}: {row}")
            for key in rate_keys_node:
                if row[key] < 0:
                    fail(f"timeline: negative rate {key}: {row}")
            if not isinstance(row["health"], list):
                fail(f"timeline: health not a list: {row}")
            node_rows += 1

    print(f"check_obs_json: timeline ok ({len(snapshots)} snapshots, "
          f"{group_rows} group rows, {node_rows} node rows)")


def main():
    if len(sys.argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    check_trace(sys.argv[1])
    check_metrics(sys.argv[2])
    if len(sys.argv) == 4:
        check_timeline(sys.argv[3])
    print("check_obs_json: all checks passed")


if __name__ == "__main__":
    main()
