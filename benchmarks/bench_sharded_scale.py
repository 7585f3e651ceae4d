"""Sharded streaming pipeline vs the single-pass engine, across workloads.

Three workloads exercise the streaming subsystem beyond the paper's QUEST
shape: QUEST itself (planted itemset structure), the Zipf market basket
(no structure, heavy skew -- the adversarial case for VERPART) and the
session click-stream (strong per-section locality -- the workload where
HORPART-guided routing should beat hash routing on utility).

For each workload the benchmark runs

* the single-pass engine, and
* the sharded streaming pipeline (4 shards, bounded windows) with both
  routing strategies,

asserting that every sharded publication passes the independent global
k^m-anonymity audit, that peak resident records stay under the
``max_records_in_memory`` bound, and that no record is lost or duplicated
by routing.  Timings, the memory-bound evidence and the tlost utility of
each path land in ``BENCH_sharded.json``, which the CI perf gate compares
against the committed baseline.
"""

from __future__ import annotations

import os
import time

from repro.core.engine import AnonymizationParams, Disassociator
from repro.core.verification import audit
from repro.datasets.quest import generate_quest
from repro.datasets.scenarios import generate_clickstream, generate_zipf_basket
from repro.metrics import tlost
from repro.stream import ShardedPipeline, StreamParams

from benchmarks.conftest import emit, run_once, write_bench_json

#: Anonymization parameters shared by every run (paper defaults).
PARAMS = dict(k=5, m=2, max_cluster_size=30)

#: Shards and memory bound of the sharded runs; the bound forces several
#: windows per shard on every workload so the windowed path is actually
#: exercised (not a degenerate one-window-per-shard run).
SHARDS = 4
MAX_RECORDS_IN_MEMORY = 600


def _workloads() -> dict:
    return {
        "QUEST": generate_quest(
            num_transactions=5000, domain_size=1000, avg_transaction_size=10.0, seed=0
        ),
        "ZIPF": generate_zipf_basket(
            num_transactions=4000, domain_size=800, avg_basket_size=8.0, seed=0
        ),
        "CLICKSTREAM": generate_clickstream(
            num_sessions=4000, num_pages=800, num_sections=16, seed=0
        ),
    }


def _run_sharded(dataset, strategy: str) -> tuple[dict, object]:
    pipeline = ShardedPipeline(
        AnonymizationParams(verify=False, **PARAMS),
        StreamParams(
            shards=SHARDS,
            max_records_in_memory=MAX_RECORDS_IN_MEMORY,
            strategy=strategy,
        ),
    )
    start = time.perf_counter()
    published = pipeline.anonymize(dataset)
    elapsed = time.perf_counter() - start
    report = pipeline.last_report
    # Hard guarantees of the subsystem, checked on every benchmark run:
    assert audit(published).ok, f"{strategy}: global audit failed"
    assert report.peak_resident_records <= MAX_RECORDS_IN_MEMORY, (
        f"{strategy}: memory bound violated "
        f"({report.peak_resident_records} > {MAX_RECORDS_IN_MEMORY})"
    )
    assert published.total_records() == len(dataset), f"{strategy}: records lost in routing"
    payload = {
        "wall_seconds": elapsed,
        "phases": report.phase_timings(),
        "peak_resident_records": report.peak_resident_records,
        "shard_records": report.shard_records,
        "shard_windows": report.shard_windows,
        "num_clusters": report.num_clusters,
        "boundary_repair_rounds": report.repair.rounds,
        "boundary_demotions": report.repair.total_demoted(),
        "audit_ok": True,
        "tlost": tlost(dataset, published),
    }
    return payload, published


def run_sharded_scale() -> dict:
    """Run every workload through both paths and return the payload."""
    results: dict = {
        "cpu_count": os.cpu_count(),
        "params": f"k=5, m=2, max_cluster_size=30, shards={SHARDS}, "
        f"max_records_in_memory={MAX_RECORDS_IN_MEMORY}",
        "workloads": {},
    }
    for name, dataset in _workloads().items():
        engine = Disassociator(AnonymizationParams(verify=False, **PARAMS))
        start = time.perf_counter()
        single = engine.anonymize(dataset)
        single_seconds = time.perf_counter() - start

        hash_payload, _ = _run_sharded(dataset, "hash")
        horpart_payload, _ = _run_sharded(dataset, "horpart")
        results["workloads"][name] = {
            "records": len(dataset),
            "domain": len(dataset.domain),
            "single_pass_seconds": single_seconds,
            "tlost_single": tlost(dataset, single),
            "sharded_hash": hash_payload,
            "sharded_horpart": horpart_payload,
            "sharded_vs_single": hash_payload["wall_seconds"] / single_seconds,
        }
    # Determinism: the sharded path must publish byte-identical datasets
    # across runs (routing, windowing and merge are all order-stable).
    small = generate_zipf_basket(num_transactions=800, domain_size=200, seed=3)
    results["deterministic"] = (
        _run_sharded(small, "hash")[1].to_dict() == _run_sharded(small, "hash")[1].to_dict()
    )
    return results


def test_sharded_scale(benchmark):
    payload = run_once(benchmark, run_sharded_scale)
    rows = []
    for name, entry in payload["workloads"].items():
        rows.append(
            {
                "workload": name,
                "single s": entry["single_pass_seconds"],
                "sharded s": entry["sharded_hash"]["wall_seconds"],
                "ratio": entry["sharded_vs_single"],
                "tlost single": entry["tlost_single"],
                "tlost hash": entry["sharded_hash"]["tlost"],
                "tlost horpart": entry["sharded_horpart"]["tlost"],
            }
        )
    emit(
        "Sharded streaming vs single pass (4 shards, bounded windows)",
        rows,
        "streaming trades a constant factor of time and some cross-shard "
        "associations for a hard memory bound; horpart routing recovers utility.",
    )
    write_bench_json("sharded", payload)
    assert payload["deterministic"]
    for entry in payload["workloads"].values():
        # The sharded path pays routing + store I/O + global verify; it must
        # stay within a small constant factor of the single pass.
        assert entry["sharded_vs_single"] < 5.0
