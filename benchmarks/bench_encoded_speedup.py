"""Interned-core speedup: the engine vs the string reference engine.

End-to-end ``Disassociator.anonymize`` on the synthetic QUEST benchmark
dataset at the paper's default parameters (k=5, m=2, max_cluster_size=30,
refine and verify enabled), run on the string reference engine
(:class:`tests.reference.engine.ReferenceDisassociator`, the seed
implementation) and on the production engine.  The payload keeps the
historical ``string`` / ``encoded`` key names for the two engines.

Both must publish *identical* datasets; the timings land in
``BENCH_speedup.json`` so the perf trajectory is tracked across PRs.

Each configuration is timed as the best of ``REPEATS`` runs: baselines
are compared across shared CI runners, and min-of-N strips scheduler
noise from a deterministic workload.
"""

from __future__ import annotations

import os
import time

from repro.core.engine import AnonymizationParams, Disassociator
from repro.datasets.quest import generate_quest

from benchmarks.conftest import emit, run_once, write_bench_json
from tests.reference.engine import ReferenceDisassociator

#: QUEST benchmark dataset: the generator's default shape at bench scale.
QUEST_RECORDS = 5000
QUEST_DOMAIN = 1000
QUEST_AVG_LEN = 10.0

#: Timed quantities take the best of this many runs (min-of-N).
REPEATS = 3


def _timed_run(dataset, engine_class):
    best_elapsed = float("inf")
    best_report = None
    published = None
    for _ in range(REPEATS):
        engine = engine_class(AnonymizationParams())
        start = time.perf_counter()
        published = engine.anonymize(dataset)
        elapsed = time.perf_counter() - start
        if elapsed < best_elapsed:
            best_elapsed = elapsed
            best_report = engine.last_report
    return published, best_elapsed, best_report


def run_speedup_comparison() -> dict:
    """Run both engines and return the comparison payload."""
    dataset = generate_quest(
        num_transactions=QUEST_RECORDS,
        domain_size=QUEST_DOMAIN,
        avg_transaction_size=QUEST_AVG_LEN,
        seed=0,
    )
    # The production engine runs first: the string reference allocates
    # heavily and measurably degrades allocator locality for everything
    # timed after it in the same process (~15% on the encoded pipeline),
    # which would pollute exactly the numbers the perf gate tracks.
    encoded_pub, encoded_seconds, encoded_report = _timed_run(dataset, Disassociator)
    string_pub, string_seconds, string_report = _timed_run(
        dataset, ReferenceDisassociator
    )
    return {
        "dataset": {
            "generator": "QUEST",
            "records": QUEST_RECORDS,
            "domain": QUEST_DOMAIN,
            "avg_record_length": QUEST_AVG_LEN,
        },
        "params": "defaults (k=5, m=2, max_cluster_size=30, refine+verify)",
        "cpu_count": os.cpu_count(),
        "string_seconds": string_seconds,
        "encoded_seconds": encoded_seconds,
        "speedup_encoded_vs_string": string_seconds / encoded_seconds,
        "outputs_identical": string_pub.to_dict() == encoded_pub.to_dict(),
        "phases": {
            "string": string_report.phase_timings(),
            "encoded": encoded_report.phase_timings(),
        },
    }


def test_engine_speedup_over_reference(benchmark):
    payload = run_once(benchmark, run_speedup_comparison)
    emit(
        "Interned-core speedup: string reference vs engine (QUEST, default params)",
        [
            {
                "engine": "string reference (seed)",
                "seconds": payload["string_seconds"],
                "speedup": 1.0,
            },
            {
                "engine": "interned/bitset",
                "seconds": payload["encoded_seconds"],
                "speedup": payload["speedup_encoded_vs_string"],
            },
        ],
        "interned execution core: same output, representation-level speedup.",
    )
    write_bench_json("speedup", payload)
    assert payload["outputs_identical"]
    assert payload["speedup_encoded_vs_string"] >= 3.0
