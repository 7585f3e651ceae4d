"""Indexed publication-store queries vs in-memory scans at 100k records.

The publication store exists so repeated analyst queries cost index
lookups instead of a pass over every published chunk.  This benchmark
prices that claim at the paper's scale: 100k QUEST records anonymized by
the sharded pipeline, then the same repeated itemset-support workload
(singles, pairs and triples over the most frequent published terms)
answered twice -- once by :class:`~repro.pubstore.PublicationStore`'s
inverted indexes, once by the in-memory oracle scanning the chunk
dataset.  It then refreshes the store to the publication of a 1% delta
(the last ``DELTA_DELETES`` records deleted, ``DELTA_RECORDS`` new ones
appended) and times that refresh as ``store_refresh_seconds``.  Three
booleans are gated by the CI perf gate:

* ``answers_identical`` -- every indexed answer (supports, top terms,
  frequent pairs) equals the scan answer bit-for-bit;
* ``indexed_speedup_ok`` -- the indexed workload is at least
  ``MIN_INDEXED_SPEEDUP`` (5x) faster than the scans;
* ``refresh_identical`` -- the refreshed store answers exactly like a
  fresh build of the delta's publication.

Timings land in ``BENCH_query_store.json`` for the CI perf gate.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.engine import AnonymizationParams
from repro.datasets.quest import generate_quest
from repro.pubstore import PublicationStore, QueryEngine
from repro.stream import ShardedPipeline, StreamParams

from benchmarks.conftest import emit, run_once, write_bench_json

PARAMS = AnonymizationParams(k=5, m=2, max_cluster_size=30)

SHARDS = 4
MAX_RECORDS_IN_MEMORY = 2500

#: Corpus size: the paper's 100k-record scale.
BASE_RECORDS = 100_000

#: The 1% delta the refresh is timed on: appended and deleted records.
DELTA_RECORDS = BASE_RECORDS // 100
DELTA_DELETES = DELTA_RECORDS // 10

#: Repeated itemset-support probes per backend (the analyst workload).
SUPPORT_QUERIES = 200

#: The indexed workload must beat the scans by at least this factor;
#: ``indexed_speedup_ok`` is gated as a boolean by the CI perf gate.
MIN_INDEXED_SPEEDUP = 5.0


def _quest(records: int, seed: int):
    return generate_quest(
        num_transactions=records,
        domain_size=1500,
        avg_transaction_size=6.0,
        seed=seed,
    )


def _publish(records: list):
    return ShardedPipeline(
        PARAMS,
        StreamParams(shards=SHARDS, max_records_in_memory=MAX_RECORDS_IN_MEMORY),
    ).run(records)


def _store_answers(store, probes) -> tuple:
    """Everything a refreshed store must answer like a fresh build."""
    engine = QueryEngine(store)
    describe = {key: value for key, value in store.describe().items() if key != "path"}
    return (
        describe,
        engine.top_terms(25),
        engine.frequent_pairs(BASE_RECORDS // 100),
        [engine.cooccurrence_count(probe) for probe in probes],
        [engine.expected_support(probe) for probe in probes[:40]],
    )


def _probe_itemsets(engine) -> list:
    """A deterministic mixed workload over the most frequent terms."""
    terms = [term for term, _ in engine.top_terms(50)]
    rng = random.Random(7)
    probes = [[rng.choice(terms)] for _ in range(SUPPORT_QUERIES // 4)]
    probes += [rng.sample(terms, 2) for _ in range(SUPPORT_QUERIES // 2)]
    probes += [rng.sample(terms, 3) for _ in range(SUPPORT_QUERIES // 4)]
    return probes


def _run_support_workload(engine, probes) -> tuple:
    start = time.perf_counter()
    answers = [engine.cooccurrence_count(probe) for probe in probes]
    return time.perf_counter() - start, answers


def _bench_query_store(published, mutated, tmp_path) -> dict:
    # -- build the indexed store (one-time cost, priced separately) ------
    start = time.perf_counter()
    store = PublicationStore.from_publication(published, tmp_path / "pubstore")
    build_seconds = time.perf_counter() - start

    indexed = QueryEngine(store)
    scan = QueryEngine(published)
    # Warm both backends outside the timed loops: the scan path builds
    # its chunk dataset once, which is amortized across an analyst
    # session either way.
    probes = _probe_itemsets(indexed)
    scan.cooccurrence_count(probes[0])
    indexed.cooccurrence_count(probes[0])

    indexed_seconds, indexed_answers = _run_support_workload(indexed, probes)
    scan_seconds, scan_answers = _run_support_workload(scan, probes)

    identical = (
        indexed_answers == scan_answers
        and indexed.top_terms(25) == scan.top_terms(25)
        and indexed.frequent_pairs(BASE_RECORDS // 100)
        == scan.frequent_pairs(BASE_RECORDS // 100)
    )
    speedup = scan_seconds / indexed_seconds

    # -- refresh to the 1% delta's publication --------------------------
    start = time.perf_counter()
    refresh = store.build(mutated, generation=1)
    refresh_seconds = time.perf_counter() - start
    with PublicationStore.from_publication(
        mutated, tmp_path / "fresh", generation=1
    ) as fresh:
        refresh_identical = _store_answers(store, probes) == _store_answers(
            fresh, probes
        )
    store.close()

    return {
        "workload": {
            "records": BASE_RECORDS,
            "support_queries": len(probes),
            "shards": SHARDS,
            "max_records_in_memory": MAX_RECORDS_IN_MEMORY,
            "k": PARAMS.k,
            "m": PARAMS.m,
            "delta_records": DELTA_RECORDS,
            "delta_deletes": DELTA_DELETES,
        },
        "store_build_seconds": build_seconds,
        "store_refresh_seconds": refresh_seconds,
        "indexed_queries_seconds": indexed_seconds,
        "scan_queries_seconds": scan_seconds,
        "indexed_speedup_factor": speedup,
        "indexed_speedup_budget": MIN_INDEXED_SPEEDUP,
        "indexed_speedup_ok": speedup >= MIN_INDEXED_SPEEDUP,
        "answers_identical": identical,
        "refresh_identical": refresh_identical,
        "counters": {
            "support_queries": len(probes),
            "published_records": BASE_RECORDS,
            "refresh_tops_written": refresh.tops_written,
            "refresh_tops_kept": refresh.tops_kept,
        },
    }


@pytest.mark.benchmark(group="query_store")
def test_bench_indexed_queries_vs_scans(benchmark, tmp_path):
    """Measure the indexed-query speedup and a 1% refresh; gate the booleans."""
    base = list(_quest(BASE_RECORDS, seed=0))
    published = _publish(base)
    mutated = _publish(base[:-DELTA_DELETES] + list(_quest(DELTA_RECORDS, seed=1)))
    payload = run_once(benchmark, _bench_query_store, published, mutated, tmp_path)
    assert payload["answers_identical"]
    assert payload["refresh_identical"]
    assert payload["indexed_speedup_ok"], (
        f"indexed queries are only {payload['indexed_speedup_factor']:.2f}x "
        f"faster than scans, budget is {MIN_INDEXED_SPEEDUP}x"
    )
    write_bench_json("query_store", payload)
    emit(
        "Publication store: indexed queries vs in-memory scans "
        f"({BASE_RECORDS} QUEST records, {payload['workload']['support_queries']} "
        "itemset-support probes)",
        [
            {
                "configuration": "store build (one-time)",
                "seconds": round(payload["store_build_seconds"], 3),
            },
            {
                "configuration": "store refresh after a 1% delta",
                "seconds": round(payload["store_refresh_seconds"], 3),
            },
            {
                "configuration": "indexed support workload",
                "seconds": round(payload["indexed_queries_seconds"], 3),
            },
            {
                "configuration": "scan support workload",
                "seconds": round(payload["scan_queries_seconds"], 3),
            },
        ],
        "not a paper figure: economics of the indexed publication store "
        f"(queries {payload['indexed_speedup_factor']:.1f}x faster than scans, "
        "answers bit-for-bit identical)",
    )
