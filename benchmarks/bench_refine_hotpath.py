"""REFINE hot-path benchmark: the incremental driver on a fixed workload.

Same fixed configuration as ``BENCH_speedup.json`` (QUEST 5k x 1000, k=5,
m=2, max_cluster_size=30).  Two quantities land in ``BENCH_refine.json``:

* the isolated REFINE time of the incremental driver (rejected-pair memo,
  per-leaf mask caches, deferred chunk materialization) on the VERPART
  clusters, with ``outputs_identical`` holding its joint clusters to the
  string oracle (``tests/reference/refine.py``: every pass re-attempts
  every adjacent pair and re-projects every record).  The oracle runs
  once, untimed: it is the correctness reference, not a shipped path;
* the full encoded pipeline's phase timings and the driver's
  merge-attempt counters (attempted / applied / skipped-by-memo /
  prefiltered), which the CI perf gate tracks alongside the timings --
  counter regressions (an accidental extra pass, a dead memo) are caught
  even when a fast machine hides them in the wall time.

Every timed quantity is the best of ``REPEATS`` runs: the committed
baselines are compared across CI runners and shared laptops, and min-of-N
is the standard way to strip scheduler noise from a deterministic
workload.
"""

from __future__ import annotations

import os
import time

from repro.core.engine import (
    AnonymizationParams,
    AnonymizationReport,
    Disassociator,
    HorizontalPhase,
    PipelineContext,
    VerticalPhase,
)
from repro.core.refine import RefineStats, refine
from repro.datasets.quest import generate_quest

from benchmarks.conftest import emit, run_once, write_bench_json
from tests.reference.refine import _refine_reference

#: Mirrors the BENCH_speedup.json configuration exactly.
QUEST_RECORDS = 5000
QUEST_DOMAIN = 1000
QUEST_AVG_LEN = 10.0
PARAMS = dict(k=5, m=2, max_cluster_size=30)
MAX_JOIN_SIZE = 8 * PARAMS["max_cluster_size"]

#: Timed quantities take the best of this many runs (min-of-N).
REPEATS = 3


def _verpart_clusters(dataset):
    params = AnonymizationParams(**PARAMS)
    ctx = PipelineContext(
        params=params,
        report=AnonymizationReport(),
        dataset=dataset,
        working=dataset,
    )
    HorizontalPhase().run(ctx)
    VerticalPhase().run(ctx)
    return ctx.clusters


def _best_refine_seconds(dataset, driver):
    best = float("inf")
    refined = None
    stats = None
    for _ in range(REPEATS):
        # Rebuild the clusters through the (deterministic) HORPART+VERPART
        # phases rather than deepcopying a template: REFINE always receives
        # clusters whose term bitmasks VERPART just registered in the
        # weak-keyed cache, and a deepcopy would silently drop that warm
        # cache and bill the re-encoding to whichever arm runs first.
        working = _verpart_clusters(dataset)
        stats = RefineStats()  # fresh per run; the workload is deterministic
        start = time.perf_counter()
        refined = driver(working, stats)
        best = min(best, time.perf_counter() - start)
    return best, refined, stats


def _best_pipeline_report(dataset):
    best_elapsed = float("inf")
    best_report = None
    published = None
    for _ in range(REPEATS):
        engine = Disassociator(AnonymizationParams(**PARAMS))
        start = time.perf_counter()
        published = engine.anonymize(dataset)
        elapsed = time.perf_counter() - start
        if elapsed < best_elapsed:
            best_elapsed = elapsed
            best_report = engine.last_report
    return best_report, published


def run_refine_hotpath() -> dict:
    """Time the incremental driver, check it against the oracle, run the pipeline."""
    dataset = generate_quest(
        num_transactions=QUEST_RECORDS,
        domain_size=QUEST_DOMAIN,
        avg_transaction_size=QUEST_AVG_LEN,
        seed=0,
    )
    k, m = PARAMS["k"], PARAMS["m"]
    reference_refined = _refine_reference(
        _verpart_clusters(dataset), k, m, max_join_size=MAX_JOIN_SIZE
    )
    optimized_seconds, optimized_refined, stats = _best_refine_seconds(
        dataset,
        lambda clusters, stats: refine(
            clusters, k, m, max_join_size=MAX_JOIN_SIZE, stats=stats
        ),
    )
    outputs_identical = [c.to_dict() for c in reference_refined] == [
        c.to_dict() for c in optimized_refined
    ]

    report, _published = _best_pipeline_report(dataset)

    return {
        "dataset": {
            "generator": "QUEST",
            "records": QUEST_RECORDS,
            "domain": QUEST_DOMAIN,
            "avg_record_length": QUEST_AVG_LEN,
        },
        "params": "k=5, m=2, max_cluster_size=30, max_join_size=240",
        "cpu_count": os.cpu_count(),
        "repeats": REPEATS,
        "refine_optimized_seconds": optimized_seconds,
        "outputs_identical": outputs_identical,
        # The last optimized run's counters: the workload is deterministic,
        # so these are exact reproducible quantities, gated by perf_gate.
        "counters": stats.as_dict(),
        "phases": report.phase_timings(),
        "pipeline_counters": report.counters(),
    }


def test_refine_hotpath(benchmark):
    payload = run_once(benchmark, run_refine_hotpath)
    emit(
        "REFINE incremental driver (QUEST, fixed config)",
        [
            {
                "driver": "incremental (memo + caches)",
                "seconds": payload["refine_optimized_seconds"],
            },
        ],
        "joint clusters identical to the string oracle's.",
    )
    write_bench_json("refine", payload)
    assert payload["outputs_identical"]
    counters = payload["counters"]
    # the memo and prefilter must actually absorb re-attempts
    assert counters["skipped_by_memo"] > 0
    assert counters["prefiltered"] > 0
    assert counters["merges_attempted"] < counters["pairs_considered"]
