"""Per-layer metrics from recorded spans, and what each should move.

Every ``_s`` metric is the median, over the traced operations of the
workload, of that layer's self time in the operation (a span's duration
minus the part of it its child spans cover, minus the generator time
charged to it).  Counts are per operation unless stated.  A layer that a
workload never enters reports 0 there.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

#: Span name -> per-layer ``_s`` metric that accumulates its self time.
SELF_TIME = {
    "http.request": "http.self_s",
    "service.execute": "service.execute_s",
    "service.query": "service.query_s",
    "engine.anonymize": "engine.anonymize_s",
    "engine.encode": "engine.encode_s",
    "engine.horizontal": "engine.horizontal_s",
    "engine.vertical": "engine.vertical_s",
    "engine.refine": "engine.refine_s",
    "engine.verify": "engine.verify_s",
    "clusters.to_dict": "clusters.to_dict_s",
    "clusters.from_dict": "clusters.from_dict_s",
    "io.spill": "io.spill_s",
    "stream.plan_shard": "stream.shard_s",
    "stream.windows": "stream.windows_s",
    "stream.run": "stream.merge_s",
    "boundary.verify_repair": "boundary.verify_repair_s",
    "store.open": "store.open_s",
    "store.apply_delta": "store.apply_delta_s",
    "store.window_read": "store.window_read_s",
    "store.window_write": "store.window_write_s",
    "store.publication_write": "store.publication_write_s",
    "pubstore.build": "pubstore.build_s",
    "pubstore.execute": "pubstore.execute_s",
    "pubstore.support": "pubstore.support_s",
    "cli.save": "cli.save_s",
}

#: Metrics of the read path, taken over the workload's read operations.
READ_PATH = {"service.query_s", "pubstore.execute_s", "pubstore.support_s", "http.read_self_s"}

C = "cold_records_per_s on cold-stream-100k"
D = "delta_latency_p50_s on delta-query-100k"
Q = "query_latency_p50_s on delta-query-100k"

#: (name, unit, better, what it should move).  What it moves is named with
#: the per-workload end-to-end names (cold_records_per_s, delta_latency_*,
#: query_latency_*); README.md maps them onto the generic end-to-end
#: metrics every workload reports.
PER_LAYER = (
    ("http.self_s", "s", "lower", D),
    ("http.read_self_s", "s", "lower", Q),
    ("http.requests", "count", "higher", "none: requests served by the traced run, the base of the per-request metrics"),
    ("service.queue_wait_s", "s", "lower", f"{D} (one client: near 0 unless requests start to queue)"),
    ("service.execute_s", "s", "lower", D),
    ("service.query_s", "s", "lower", Q),
    ("service.retries", "count", "lower", "error_rate and delta_latency_p50_s on delta-query-100k"),
    ("service.worker_utilization", "ratio", "higher", D),
    ("engine.anonymize_s", "s", "lower", f"{C}; {D}"),
    ("engine.encode_s", "s", "lower", f"{C}; {D}"),
    ("engine.horizontal_s", "s", "lower", f"{C}; {D}"),
    ("engine.vertical_s", "s", "lower", f"{C}; {D}"),
    ("engine.refine_s", "s", "lower", f"{C}; {D}"),
    ("engine.verify_s", "s", "lower", f"{C}; {D}"),
    ("engine.windows", "count", "lower", f"{C}; {D} (recomputed windows)"),
    ("refine.merges_attempted", "count", "lower", f"{C}; {D}"),
    ("refine.merges_applied", "count", "higher", f"{C} (utility, not speed)"),
    ("refine.merge_yield", "ratio", "higher", f"{C}; {D}"),
    ("refine.skipped_memo", "count", "higher", f"{C}; {D}"),
    ("refine.pairs_prefiltered", "count", "higher", f"{C}; {D}"),
    ("clusters.to_dict_s", "s", "lower", f"{C} (save); {D} (response and publication write)"),
    ("clusters.from_dict_s", "s", "lower", f"{D} (reused-window decode)"),
    ("clusters.payload_bytes", "bytes", "lower", f"{C}; {D}"),
    ("io.read_s", "s", "lower", C),
    ("io.spill_s", "s", "lower", C),
    ("stream.plan_s", "s", "lower", C),
    ("stream.shard_s", "s", "lower", C),
    ("stream.windows_s", "s", "lower", f"{C}; {D}"),
    ("stream.merge_s", "s", "lower", f"{C}; {D}"),
    ("stream.peak_resident_records", "count", "lower", "peak_rss_mb on cold-stream-100k"),
    ("boundary.verify_repair_s", "s", "lower", f"{C} (~0.25 s); {D} (~0.5 s)"),
    ("boundary.rounds", "count", "lower", f"{C}; {D}"),
    ("boundary.demotions", "count", "lower", f"{C}; {D} (utility)"),
    ("store.open_s", "s", "lower", D),
    ("store.apply_delta_s", "s", "lower", D),
    ("store.window_read_s", "s", "lower", D),
    ("store.window_write_s", "s", "lower", D),
    ("store.publication_write_s", "s", "lower", D),
    ("store.windows_reused", "count", "higher", D),
    ("store.windows_recomputed", "count", "lower", D),
    ("store.window_reuse_ratio", "ratio", "higher", D),
    ("store.bytes_written_per_user_byte", "ratio", "lower", D),
    ("pubstore.build_s", "s", "lower", f"{D} (largest share, ~4.3 s); setup_s on delta-query-100k"),
    ("pubstore.bytes_per_record", "bytes", "lower", f"{D}; setup_s on delta-query-100k"),
    ("pubstore.execute_s", "s", "lower", Q),
    ("pubstore.support_s", "s", "lower", Q),
    ("cli.startup_s", "s", "lower", C),
    ("cli.save_s", "s", "lower", C),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced latency of the main operation"),
    ("trace.overhead_share", "ratio", "lower", "none: trace.overhead_s over the untraced latency"),
    ("trace.unattributed_share", "ratio", "lower", "none: share of an operation's wall time no span covers"),
)


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> self time: duration minus child coverage minus generator time."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = union_length(
            (max(child["start"], start), min(child["end"], end)) for child in children[span["id"]]
        )
        result[span["id"]] = max(0.0, end - start - covered - span.get("gen_s", 0.0))
    return result


def _median_or_zero(values) -> float:
    values = list(values)
    return median(values) if values else 0.0


def per_layer(trace: dict, ops: list, main_kind: str, read_kind: str = None, stats: dict = None) -> dict:
    """Every :data:`PER_LAYER` metric from one traced run.

    ``trace`` is the dumped recorder payload (spans of every traced child
    process, concatenated); ``ops`` the load generator's operation log
    (``id``, ``kind``, ``start``, ``end``, ``traced``, ``bytes``);
    ``stats`` the service's final ``GET /stats`` payload, if any.
    """
    spans, gens = trace["spans"], trace["gens"]
    own = self_times(spans)
    by_op = defaultdict(list)
    for span in spans:
        by_op[span["op"]].append(span)
    gen_by_op = defaultdict(float)
    for entry in gens:
        gen_by_op[entry["op"]] += entry["busy_s"]

    main = [op for op in ops if op["kind"] == main_kind and op["traced"]]
    reads = [op for op in ops if read_kind and op["kind"] == read_kind and op["traced"]]

    def per_op(op) -> dict:
        values = defaultdict(float)
        for span in by_op.get(op["id"], ()):
            name, attrs = span["name"], span["attrs"]
            metric = SELF_TIME.get(name)
            if metric is not None:
                values[metric] += own[span["id"]]
            if name == "engine.anonymize":
                values["engine.windows"] += 1
                values["refine.merges_attempted"] += attrs.get("refine_merges_attempted", 0)
                values["refine.merges_applied"] += attrs.get("refine_merges_applied", 0)
                values["refine.skipped_memo"] += attrs.get("refine_merges_skipped_memo", 0)
                values["refine.pairs_prefiltered"] += attrs.get("refine_pairs_prefiltered", 0)
            elif name == "stream.run":
                values["stream.plan_s"] += attrs.get("plan_seconds", 0.0)
                values["stream.shard_s"] -= attrs.get("plan_seconds", 0.0)
                values["stream.peak_resident_records"] = max(
                    values["stream.peak_resident_records"], attrs.get("peak_resident_records", 0)
                )
                values["store.windows_reused"] += attrs.get("windows_reused", 0)
                values["store.windows_recomputed"] += attrs.get("windows_recomputed", 0)
                values["_written"] += attrs.get("written_bytes", 0)
                values["_user"] += attrs.get("user_bytes", 0)
            elif name == "boundary.verify_repair":
                values["boundary.rounds"] += attrs.get("rounds", 0)
                values["boundary.demotions"] += attrs.get("demotions", 0)
            elif name == "pubstore.build":
                values["_pub_bytes"] += attrs.get("file_bytes", 0)
                values["_pub_records"] += attrs.get("records", 0)
            elif name == "service.execute" and "queued_at" in attrs:
                values["service.queue_wait_s"] += span["start"] - attrs["queued_at"]
        values["io.read_s"] += gen_by_op.get(op["id"], 0.0)
        values["stream.shard_s"] = max(0.0, values["stream.shard_s"])
        attempted = values["refine.merges_attempted"]
        values["refine.merge_yield"] = values["refine.merges_applied"] / attempted if attempted else 0.0
        windows = values["store.windows_reused"] + values["store.windows_recomputed"]
        values["store.window_reuse_ratio"] = values["store.windows_reused"] / windows if windows else 0.0
        values["store.bytes_written_per_user_byte"] = (
            values["_written"] / values["_user"] if values["_user"] else 0.0
        )
        values["pubstore.bytes_per_record"] = (
            values["_pub_bytes"] / values["_pub_records"] if values["_pub_records"] else 0.0
        )
        values["clusters.payload_bytes"] = op.get("bytes", 0)
        starts = [span["start"] for span in by_op.get(op["id"], ()) if span["name"] == "stream.run"]
        if op["kind"] == "cli" and starts:
            values["cli.startup_s"] = min(starts) - op["start"]
        wall = op["end"] - op["start"]
        covered = union_length(
            (max(span["start"], op["start"]), min(span["end"], op["end"])) for span in by_op.get(op["id"], ())
        )
        values["trace.unattributed_share"] = max(0.0, wall - covered) / wall if wall > 0 else 0.0
        return values

    main_values = [per_op(op) for op in main]
    read_values = [per_op(op) for op in reads]
    metrics = {}
    for name, _unit, _better, _moves in PER_LAYER:
        if name in READ_PATH:
            source = read_values
            key = "http.self_s" if name == "http.read_self_s" else name
        else:
            source, key = main_values, name
        metrics[name] = _median_or_zero(values.get(key, 0.0) for values in source)

    metrics["http.requests"] = float(sum(1 for span in spans if span["name"] == "http.request"))
    if stats:
        metrics["service.retries"] = float(stats["failures"]["retries"])
        utilization = list(stats["workers"]["utilization"].values())
        metrics["service.worker_utilization"] = sum(utilization) / len(utilization) if utilization else 0.0

    traced = [op["end"] - op["start"] for op in ops if op["kind"] == main_kind and op["traced"]]
    untraced = [op["end"] - op["start"] for op in ops if op["kind"] == main_kind and not op["traced"]]
    if traced and untraced:
        overhead = median(traced) - median(untraced)
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / median(untraced)
    return metrics


def breakdown(trace: dict, op_id: str) -> list:
    """``(span name, self seconds)`` of one operation, largest first."""
    own = self_times(trace["spans"])
    totals = defaultdict(float)
    for span in trace["spans"]:
        if span["op"] == op_id:
            totals[span["name"]] += own[span["id"]]
    for entry in trace["gens"]:
        if entry["op"] == op_id:
            totals[entry["name"]] += entry["busy_s"]
    return sorted(totals.items(), key=lambda item: -item[1])
