"""Warm service vs cold one-shot calls: what the service facade amortizes.

The scenario the service layer exists for: N anonymization requests over
the same deployment.  Two ways to serve them:

* **warm** -- one long-lived :class:`~repro.service.AnonymizationService`
  handles all N requests, so the interpreter, the imported libraries, the
  engine and the interning vocabulary are paid once and shared;
* **cold** -- each request is a fresh one-shot invocation (the pre-service
  pattern: a CLI call or a script running a fresh engine per request),
  i.e. a new Python process that imports the library, reads the input and
  runs the pipeline from scratch.

Both sides read the same committed QUEST transaction file per request and
must publish bit-for-bit identical datasets.  The interesting number is
``warm_speedup = cold_total / warm_total`` at ``N = 5``; the acceptance
floor is 1.3x (in practice the cold side's interpreter + import + setup
tax dominates and the ratio is far higher).  Timings land in
``BENCH_service.json`` and are gated by ``perf_gate.py`` like every other
benchmark; ``warm_speedup_ok`` is a gated boolean so the floor itself is
regression-checked.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import repro
from repro.datasets.io import read_disassociated_json, write_transactions
from repro.datasets.quest import generate_quest
from repro.service import AnonymizationRequest, AnonymizationService, ServiceConfig

from benchmarks.conftest import emit, run_once, write_bench_json

#: The committed QUEST configuration of the acceptance criterion.
QUEST_RECORDS = 2000
QUEST_DOMAIN = 500
QUEST_AVG_LEN = 8.0
QUEST_SEED = 0

#: Requests served per side.
NUM_REQUESTS = 5

#: Anonymization parameters shared by both sides (paper defaults).
SERVICE_CONFIG = ServiceConfig(k=5, m=2, max_cluster_size=30)

#: The cold side: one fresh interpreter per request, running a one-shot
#: engine end to end (import, read, anonymize, write).
_COLD_SCRIPT = """
import sys
from repro import AnonymizationParams, Disassociator
from repro.datasets.io import read_records, write_disassociated_json
dataset = read_records(sys.argv[1])
published = Disassociator(
    AnonymizationParams(k=5, m=2, max_cluster_size=30)
).anonymize(dataset)
write_disassociated_json(published, sys.argv[2])
"""


def _cold_env() -> dict:
    """Subprocess environment with this repro checkout importable."""
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_service_comparison() -> dict:
    """Serve N requests warm and cold; return the comparison payload."""
    dataset = generate_quest(
        num_transactions=QUEST_RECORDS,
        domain_size=QUEST_DOMAIN,
        avg_transaction_size=QUEST_AVG_LEN,
        seed=QUEST_SEED,
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as tmp:
        data_path = Path(tmp) / "quest.txt"
        write_transactions(dataset, data_path)

        # Warm: one service, N requests (setup included in the total -- the
        # warm side pays its one-time costs inside the measurement).
        start = time.perf_counter()
        with AnonymizationService(SERVICE_CONFIG) as service:
            warm_setup_seconds = time.perf_counter() - start
            warm_request_seconds = []
            warm_results = []
            for _ in range(NUM_REQUESTS):
                request_start = time.perf_counter()
                result = service.run(AnonymizationRequest(data_path, mode="batch"))
                warm_request_seconds.append(time.perf_counter() - request_start)
                warm_results.append(result)
            warm_total_seconds = time.perf_counter() - start
            warm_path = Path(tmp) / "warm.json"
            warm_results[-1].save(warm_path)

        # Cold: N fresh interpreters, each running the one-shot entry point.
        env = _cold_env()
        cold_path = Path(tmp) / "cold.json"
        cold_call_seconds = []
        for _ in range(NUM_REQUESTS):
            call_start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", _COLD_SCRIPT, str(data_path), str(cold_path)],
                check=True,
                env=env,
            )
            cold_call_seconds.append(time.perf_counter() - call_start)
        cold_total_seconds = sum(cold_call_seconds)

        warm_dict = read_disassociated_json(warm_path).to_dict()
        cold_dict = read_disassociated_json(cold_path).to_dict()
        outputs_identical = warm_dict == cold_dict and all(
            result.to_dict() == warm_results[0].to_dict() for result in warm_results
        )

    warm_speedup = cold_total_seconds / warm_total_seconds
    return {
        "dataset": {
            "generator": "QUEST",
            "records": QUEST_RECORDS,
            "domain": QUEST_DOMAIN,
            "avg_record_length": QUEST_AVG_LEN,
            "seed": QUEST_SEED,
        },
        "params": "defaults (k=5, m=2, max_cluster_size=30, refine+verify)",
        "num_requests": NUM_REQUESTS,
        "cpu_count": os.cpu_count(),
        "warm_total_seconds": warm_total_seconds,
        "warm_setup_seconds": warm_setup_seconds,
        "warm_request_seconds": warm_request_seconds,
        "cold_total_seconds": cold_total_seconds,
        "cold_call_seconds": cold_call_seconds,
        "warm_speedup": warm_speedup,
        "warm_speedup_ok": warm_speedup >= 1.3,
        "outputs_identical": outputs_identical,
    }


def test_warm_service_beats_cold_calls(benchmark):
    """The warm service must beat N cold one-shot calls by >= 1.3x."""
    payload = run_once(benchmark, run_service_comparison)
    emit(
        f"Warm AnonymizationService vs {NUM_REQUESTS} cold one-shot calls (QUEST)",
        [
            {
                "side": "cold (fresh process per request)",
                "seconds": payload["cold_total_seconds"],
                "speedup": 1.0,
            },
            {
                "side": "warm (one service, shared state)",
                "seconds": payload["warm_total_seconds"],
                "speedup": payload["warm_speedup"],
            },
        ],
        "service-grade API: amortized warm state, identical publications.",
    )
    write_bench_json("service", payload)
    assert payload["outputs_identical"]
    assert payload["warm_speedup"] >= 1.3
