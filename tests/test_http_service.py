"""Tests for the multi-worker service and its HTTP front door.

Covers the PR-7 concurrency surface:

* ``ServiceConfig.workers`` validation and env parsing;
* N-worker vs sequential bit-for-bit equivalence (the worker pool must
  never change a publication);
* the shared (locked) vocabulary staying consistent under concurrent
  interning;
* ``stats()`` schema consistency between the ``run()`` and ``submit()``
  paths -- queue depth, worker counts, latency histograms -- and
  single-counting of auto-routed stream requests;
* the HTTP endpoints: ``POST /anonymize`` (sync + async) bit-for-bit
  against ``service.run()``, ``GET /jobs/<id>``, ``GET /stats``,
  ``GET /healthz``, error mapping (400/404/405), saturation (429) and
  closed-service (503) backpressure;
* drain-vs-cancel shutdown with in-flight HTTP-submitted jobs.
"""

from __future__ import annotations

import json
import re
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from http.client import HTTPConnection
from types import SimpleNamespace

import pytest

from repro import (
    AnonymizationParams,
    AnonymizationService,
    ParameterError,
    ServiceConfig,
    TransactionDataset,
    Vocabulary,
)
from repro.core.clusters import DisassociatedDataset, SimpleCluster
from repro.datasets.quest import generate_quest
from repro.service import LatencyHistogram, ServiceHTTPServer
from repro.service import http as http_module
from repro.service import request as request_module
from repro.stream import ShardedPipeline, ShardStore, StreamParams
from repro.stream import executor
from repro.stream.executor import TextPublication


def quest(records=120, domain=40, seed=0) -> TransactionDataset:
    """A small deterministic QUEST dataset for HTTP/worker tests."""
    return generate_quest(
        num_transactions=records,
        domain_size=domain,
        avg_transaction_size=5.0,
        seed=seed,
    )


BASE_CONFIG = ServiceConfig(k=3, max_cluster_size=10, verify=False)


def http_raw(base: str, method: str, path: str, payload=None, timeout=60):
    """One HTTP round-trip; returns ``(status, body bytes)``."""
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def http(base: str, method: str, path: str, payload=None, timeout=60):
    """One HTTP round-trip; returns ``(status, decoded-json)``."""
    status, body = http_raw(base, method, path, payload, timeout)
    return status, json.loads(body.decode("utf-8"))


@pytest.fixture()
def served():
    """A 2-worker service behind a live HTTP server on a free port."""
    service = AnonymizationService(
        BASE_CONFIG.with_overrides(workers=2, max_pending=8)
    )
    server = ServiceHTTPServer(service, port=0)
    server.start()
    try:
        yield server
    finally:
        server.close(drain=False)


# --------------------------------------------------------------------------- #
# ServiceConfig.workers
# --------------------------------------------------------------------------- #
class TestWorkersConfig:
    @pytest.mark.parametrize("workers", [0, -1, "two"])
    def test_invalid_workers_rejected(self, workers):
        with pytest.raises(ParameterError, match="workers"):
            ServiceConfig(workers=workers)

    def test_workers_from_env(self):
        config = ServiceConfig.from_env({"REPRO_SERVICE_WORKERS": "3"})
        assert config.workers == 3

    def test_workers_round_trips_through_dict(self):
        config = ServiceConfig(workers=4)
        assert ServiceConfig.from_dict(config.to_dict()) == config


# --------------------------------------------------------------------------- #
# worker-pool equivalence and the shared vocabulary
# --------------------------------------------------------------------------- #
class TestWorkerPool:
    def test_multi_worker_submits_match_sequential_runs(self):
        datasets = [quest(100, seed=seed) for seed in range(6)]
        with AnonymizationService(BASE_CONFIG) as service:
            sequential = [service.run(d, mode="batch").to_dict() for d in datasets]
        with AnonymizationService(BASE_CONFIG.with_overrides(workers=3)) as service:
            jobs = [service.submit(d, mode="batch") for d in datasets]
            concurrent = [job.result(timeout=120).to_dict() for job in jobs]
        assert concurrent == sequential

    def test_multi_worker_mixed_run_and_submit_match(self):
        dataset = quest(100)
        with AnonymizationService(BASE_CONFIG) as service:
            expected = service.run(dataset, mode="batch").to_dict()
        with AnonymizationService(BASE_CONFIG.with_overrides(workers=2)) as service:
            job = service.submit(dataset, mode="batch")
            sync = service.run(dataset, mode="batch")
            assert job.result(timeout=120).to_dict() == expected
            assert sync.to_dict() == expected

    def test_multi_worker_service_spawns_all_workers(self):
        with AnonymizationService(BASE_CONFIG.with_overrides(workers=3)) as service:
            job = service.submit(quest(40), mode="batch")
            job.result(timeout=60)
            stats = service.stats()
        assert stats["workers"]["configured"] == 3
        assert stats["workers"]["started"] == 3
        assert len(service._engines) == 3

    def test_close_drains_across_workers(self):
        service = AnonymizationService(BASE_CONFIG.with_overrides(workers=2))
        jobs = [service.submit(quest(80, seed=seed), mode="batch") for seed in range(4)]
        service.close(drain=True)
        for job in jobs:
            assert job.result(timeout=1).mode == "batch"

    def test_shared_vocabulary_consistent_under_concurrent_interning(self):
        vocab = Vocabulary().make_shared()
        universe = [f"t{i}" for i in range(300)]
        errors = []

        def intern_range(offset):
            try:
                for term in universe[offset:] + universe[:offset]:
                    vocab.intern(term)
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        threads = [
            threading.Thread(target=intern_range, args=(offset,))
            for offset in (0, 100, 200, 250)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(vocab) == len(universe)
        ids = [vocab.id_of(term) for term in universe]
        assert sorted(ids) == list(range(len(universe)))  # dense, no duplicates
        for term in universe:
            assert vocab.decode(vocab.id_of(term)) == term

    def test_shared_vocabulary_arena_is_per_thread(self):
        vocab = Vocabulary().make_shared()
        arenas = {}

        def grab(name):
            arenas[name] = vocab.subrecord_arena()

        threads = [threading.Thread(target=grab, args=(n,)) for n in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert arenas["a"] is not arenas["b"]
        # Unshared vocabularies keep the single cached arena.
        plain = Vocabulary()
        assert plain.subrecord_arena() is plain.subrecord_arena()


# --------------------------------------------------------------------------- #
# stats(): one schema for both entry paths, no double counting
# --------------------------------------------------------------------------- #
class TestStats:
    def test_same_schema_for_run_and_submit_paths(self):
        with AnonymizationService(BASE_CONFIG) as service:
            service.run(quest(40), mode="batch")
            run_stats = service.stats()
            service.submit(quest(40), mode="batch").result(timeout=60)
            submit_stats = service.stats()
        assert set(run_stats) == set(submit_stats)
        for stats in (run_stats, submit_stats):
            assert stats["queue"]["depth"] == stats["pending_jobs"]
            assert stats["queue"]["capacity"] == BASE_CONFIG.max_pending
            assert stats["workers"]["configured"] == BASE_CONFIG.workers
            assert stats["latency"]["request_seconds"]["count"] >= 1
        # The run() path reports zero started queue workers; submit spawns
        # them -- both report the same configured count.
        assert run_stats["workers"]["started"] == 0
        assert submit_stats["workers"]["started"] == BASE_CONFIG.workers

    def test_requests_counted_once_per_request(self):
        with AnonymizationService(
            BASE_CONFIG.with_overrides(shards=2, max_records_in_memory=50)
        ) as service:
            service.run(quest(40), mode="batch")
            assert service.stats()["requests_served"] == 1
            # Auto-routed to the streaming pipeline (threshold below input
            # size): still exactly one served request, one stream-mode tick.
            service.run(quest(80), overrides={"auto_stream_threshold": 60})
            stats = service.stats()
        assert stats["requests_served"] == 2
        assert stats["requests"]["completed"] == 2
        assert stats["requests"]["by_mode"] == {"batch": 1, "stream": 1}

    def test_queue_wait_recorded_for_submitted_jobs_only(self):
        with AnonymizationService(BASE_CONFIG) as service:
            service.run(quest(40), mode="batch")
            assert service.stats()["latency"]["queue_wait_seconds"]["count"] == 0
            service.submit(quest(40), mode="batch").result(timeout=60)
            stats = service.stats()
        assert stats["latency"]["queue_wait_seconds"]["count"] == 1
        assert stats["latency"]["request_seconds"]["count"] == 2

    def test_phase_seconds_accumulate(self):
        with AnonymizationService(BASE_CONFIG) as service:
            service.run(quest(60), mode="batch")
            phases = service.stats()["phases"]["seconds"]
        assert {"horizontal_seconds", "vertical_seconds", "refine_seconds"} <= set(
            phases
        )

    def test_failed_requests_counted_as_failed(self):
        with AnonymizationService(BASE_CONFIG) as service:
            with pytest.raises(Exception):
                service.run("/does/not/exist.jsonl", mode="batch")
            stats = service.stats()
        assert stats["requests"]["failed"] == 1
        assert stats["requests"]["completed"] == 0


class TestLatencyHistogram:
    def test_percentiles_and_buckets(self):
        histogram = LatencyHistogram()
        for value in [0.01, 0.02, 0.03, 0.04, 0.4]:
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 5
        assert snapshot["min_seconds"] == 0.01
        assert snapshot["max_seconds"] == 0.4
        assert snapshot["p50_seconds"] == 0.03
        assert snapshot["p99_seconds"] == 0.4
        assert snapshot["buckets"]["le_inf"] == 5
        assert snapshot["buckets"]["le_0.05"] == 4

    def test_empty_histogram_snapshot(self):
        snapshot = LatencyHistogram().snapshot()
        assert snapshot["count"] == 0
        assert snapshot["p50_seconds"] is None
        assert snapshot["mean_seconds"] is None


# --------------------------------------------------------------------------- #
# HTTP endpoints
# --------------------------------------------------------------------------- #
class TestHttpEndpoints:
    def test_healthz_ok(self, served):
        status, payload = http(served.url, "GET", "/healthz")
        assert status == 200
        assert payload == {"status": "ok", "workers": 2}

    def test_stats_smoke(self, served):
        status, payload = http(served.url, "GET", "/stats")
        assert status == 200
        assert payload["queue"]["capacity"] == 8
        assert payload["workers"]["configured"] == 2
        assert "request_seconds" in payload["latency"]

    def test_sync_anonymize_matches_service_run(self, served):
        dataset = quest(100)
        expected = served.service.run(dataset, mode="batch")
        status, payload = http(
            served.url,
            "POST",
            "/anonymize",
            {"records": [sorted(r) for r in dataset], "mode": "batch", "tag": "t"},
        )
        assert status == 200
        assert payload["mode"] == "batch"
        assert payload["tag"] == "t"
        assert payload["publication"] == expected.to_dict()

    def test_async_anonymize_job_lifecycle(self, served):
        dataset = quest(100)
        expected = served.service.run(dataset, mode="batch")
        status, submitted = http(
            served.url,
            "POST",
            "/anonymize",
            {"records": [sorted(r) for r in dataset], "mode": "batch", "async": True},
        )
        assert status == 202
        assert submitted["state"] in ("pending", "running", "done")
        for _ in range(600):
            status, job = http(served.url, "GET", submitted["href"])
            assert status == 200
            if job["state"] in ("done", "failed", "cancelled"):
                break
            import time

            time.sleep(0.05)
        assert job["state"] == "done"
        assert job["publication"] == expected.to_dict()

    def test_unknown_job_404(self, served):
        status, payload = http(served.url, "GET", "/jobs/job-999999")
        assert status == 404
        assert "unknown job" in payload["error"]

    def test_bad_body_400(self, served):
        status, payload = http(served.url, "POST", "/anonymize", {"nope": 1})
        assert status == 400
        assert "records" in payload["error"]

    def test_bad_mode_400(self, served):
        status, payload = http(
            served.url, "POST", "/anonymize", {"records": [["a", "b"]], "mode": "warp"}
        )
        assert status == 400

    def test_bad_override_key_400(self, served):
        status, payload = http(
            served.url,
            "POST",
            "/anonymize",
            {"records": [["a", "b"]], "overrides": {"max_clustersize": 4}},
        )
        assert status == 400
        assert "unknown ServiceConfig" in payload["error"]

    def test_unknown_path_404_and_wrong_method_405(self, served):
        assert http(served.url, "GET", "/nope")[0] == 404
        assert http(served.url, "POST", "/stats", {})[0] == 404
        status, payload = http(served.url, "GET", "/anonymize")
        assert status == 405

    def test_per_request_overrides_apply(self, served):
        dataset = quest(80)
        expected = served.service.run(dataset, mode="batch", overrides={"k": 2})
        status, payload = http(
            served.url,
            "POST",
            "/anonymize",
            {"records": [sorted(r) for r in dataset], "mode": "batch",
             "overrides": {"k": 2}},
        )
        assert status == 200
        assert payload["publication"] == expected.to_dict()


class TestHttpDelta:
    def test_delta_serializes_its_publication_once(self, tmp_path, monkeypatch):
        """The response is spliced from per-window text, same bytes as a
        cold run: the load serializes every leaf cluster once and a warm
        delta only the leaves of the windows it recomputed.  Neither
        serializes the whole publication, no cluster object is decoded,
        and nothing is parsed but by the publication-store refresh: one
        ``json.loads`` per window it writes top-level clusters of --
        every window on the load, only recomputed ones on the delta.  An
        async delta's ``GET /jobs/<id>`` answers the same publication."""
        records = [sorted(record) for record in quest(300, seed=3)]
        appended = [sorted(record) for record in quest(20, seed=4)]
        config = BASE_CONFIG.with_overrides(
            m=2,
            verify=True,
            shards=2,
            max_records_in_memory=60,
            store_dir=str(tmp_path / "shards"),
            pubstore_dir=str(tmp_path / "pub"),
        )
        calls: Counter = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        def leaves(cluster) -> int:
            if cluster["type"] == "simple":
                return 1
            return sum(leaves(child) for child in cluster["children"])

        for owner in (DisassociatedDataset, TextPublication):
            monkeypatch.setattr(
                owner, "to_dict", counting("publication", owner.__dict__["to_dict"])
            )
        monkeypatch.setattr(SimpleCluster, "to_dict", counting("leaf", SimpleCluster.to_dict))
        for name in ("cluster_from_payload", "cluster_from_dict"):
            monkeypatch.setattr(executor, name, counting("decode", getattr(executor, name)))
        counted_json = SimpleNamespace(loads=counting("loads", json.loads), dumps=json.dumps)
        monkeypatch.setattr(executor, "json", counted_json)
        monkeypatch.setattr(request_module, "json", counted_json)
        server = ServiceHTTPServer(AnonymizationService(config), port=0).start()
        serialized = []
        try:
            # The delete comes from the tail, so only the last windows of
            # each shard change.
            for batch, delete, token in [
                (records, [], "base"),
                (appended, records[-5:], "d1"),
            ]:
                calls.clear()
                status, body = http_raw(
                    server.url,
                    "POST",
                    "/anonymize",
                    {"mode": "delta", "records": batch, "delete": delete, "delta_id": token},
                )
                assert status == 200
                payload = json.loads(body)
                assert list(payload) == ["mode", "tag", "summary", "publication"]
                assert payload["mode"] == "delta"
                total = sum(leaves(c) for c in payload["publication"]["clusters"])
                serialized.append((dict(calls), total, payload))
            calls.clear()
            status, job = http(
                server.url, "POST", "/anonymize", {"mode": "delta", "async": True}
            )
            assert status == 202
            href = job["href"]
            while job["state"] in ("pending", "running"):
                status, job = http(server.url, "GET", href)
            assert (status, job["state"]) == (200, "done")
            assert calls == Counter()
        finally:
            server.close()
        monkeypatch.undo()
        (load, load_total, first), (delta, total, _) = serialized
        # The publication-store refresh parses the text of each window it
        # writes top-level clusters of: every window on the load, only
        # recomputed ones on the delta.
        parsed, recomputed = [], []
        for counted, body_ in ((load, first), (delta, payload)):
            match = re.search(r"(\d+) window\(s\) recomputed", body_["summary"])
            recomputed.append(int(match.group(1)))
            parsed.append(counted.pop("loads"))
        assert parsed[0] == recomputed[0]
        assert 0 < parsed[1] <= recomputed[1] < recomputed[0]
        assert load == {"leaf": load_total}
        assert set(delta) == {"leaf"}
        assert 0 < delta["leaf"] < total
        cold = ShardedPipeline(
            config.engine_params(),
            StreamParams(shards=2, max_records_in_memory=60),
        ).run([frozenset(r) for r in records[:-5] + appended])
        expected = cold.to_dict()
        assert payload["publication"] == expected
        assert body.endswith(
            b',"publication":'
            + json.dumps(expected, separators=(",", ":")).encode("utf-8")
            + b"}"
        )
        assert job["publication"] == expected


# --------------------------------------------------------------------------- #
# the wire: TCP_NODELAY and the record contract
# --------------------------------------------------------------------------- #
class TestHttpWire:
    def test_accepted_connections_disable_nagle(self, served, monkeypatch):
        """Every accepted socket has TCP_NODELAY, and keep-alive requests
        are not held back by the client's delayed ACK (~40 ms each)."""
        flags = []
        setup = http_module._ServiceRequestHandler.setup

        def recording_setup(handler):
            setup(handler)
            flags.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(http_module._ServiceRequestHandler, "setup", recording_setup)
        connection = HTTPConnection(served.host, served.port, timeout=30)
        latencies = []
        try:
            for _ in range(30):
                start = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert (response.status, json.loads(response.read())["status"]) == (
                    200,
                    "ok",
                )
                latencies.append(time.perf_counter() - start)
        finally:
            connection.close()
        assert flags and all(flags)
        assert statistics.median(latencies) < 0.020

    #: Bodies the JSONL reader refuses too: each would publish a coerced
    #: term (``"1"``, ``"None"``, the characters ``"a"``/``"b"``, a dict's
    #: keys, ``""``) or an empty record.
    BAD_RECORDS = [[1, 2], [None], "ab", {"a": 1}, [""], []]

    @pytest.fixture(scope="class")
    def delta_server(self, tmp_path_factory):
        store_dir = tmp_path_factory.mktemp("wire") / "store"
        config = BASE_CONFIG.with_overrides(store_dir=str(store_dir))
        server = ServiceHTTPServer(AnonymizationService(config), port=0).start()
        records = [sorted(r) for r in quest(60, seed=9)]
        status, _ = http(
            server.url, "POST", "/anonymize", {"mode": "delta", "records": records}
        )
        assert status == 200
        try:
            yield server, store_dir, records
        finally:
            server.close(drain=False)

    @pytest.mark.parametrize("bad", BAD_RECORDS, ids=repr)
    @pytest.mark.parametrize("shape", ["batch", "append", "delete"])
    def test_non_string_terms_answer_400(self, delta_server, shape, bad):
        server, store_dir, records = delta_server
        with ShardStore(store_dir) as store:
            before = (store.generation, store.num_records())
        listed = [records[0], bad]
        if shape == "batch":
            body, key = {"mode": "batch", "records": listed}, "records"
        elif shape == "append":
            body, key = {"mode": "delta", "append": listed}, "append"
        else:
            body, key = {"mode": "delta", "delete": listed}, "delete"
        status, payload = http(server.url, "POST", "/anonymize", body)
        assert (status, payload["kind"]) == (400, "bad_request")
        assert f'"{key}"[1]' in payload["error"]
        with ShardStore(store_dir) as store:
            assert (store.generation, store.num_records()) == before

    @pytest.mark.parametrize("key", ["delete", "append"])
    @pytest.mark.parametrize("mode", ["batch", "stream", "auto"])
    def test_delta_keys_outside_delta_mode_answer_400(self, delta_server, mode, key):
        """A non-delta body carrying appends or deletes is refused, not trimmed."""
        server, store_dir, records = delta_server
        with ShardStore(store_dir) as store:
            before = (store.generation, store.num_records())
        body = {"mode": mode, "records": records[:20], key: records[:3]}
        status, payload = http(server.url, "POST", "/anonymize", body)
        assert (status, payload["kind"]) == (400, "bad_request")
        assert f'"{key}"' in payload["error"] and '"delta"' in payload["error"]
        with ShardStore(store_dir) as store:
            assert (store.generation, store.num_records()) == before


# --------------------------------------------------------------------------- #
# backpressure and shutdown under in-flight HTTP jobs
# --------------------------------------------------------------------------- #
def gated_source(gate, records):
    """An iterable that parks its consumer (a worker) until ``gate`` opens."""

    def generator():
        gate.wait(timeout=120)
        yield from records

    return generator()


class TestHttpBackpressure:
    def test_saturated_queue_answers_429(self):
        service = AnonymizationService(
            BASE_CONFIG.with_overrides(workers=1, max_pending=1)
        )
        server = ServiceHTTPServer(service, port=0)
        server.start()
        gate = threading.Event()
        records = [sorted(r) for r in quest(40)]
        try:
            # Occupy the single worker with a gated job, then fill the
            # one-slot queue; the next HTTP submit must bounce with 429.
            blocked = service.submit(gated_source(gate, quest(40)), mode="batch")
            queued_status, queued = http(
                server.url, "POST", "/anonymize",
                {"records": records, "mode": "batch", "async": True},
            )
            assert queued_status == 202
            status, payload = http(
                server.url, "POST", "/anonymize",
                {"records": records, "mode": "batch", "async": True},
            )
            assert status == 429
            assert "full" in payload["error"]
            assert service.stats()["jobs"]["rejected_saturated"] >= 1
            gate.set()
            assert blocked.result(timeout=120).mode == "batch"
            status, job = http(server.url, "GET", queued["href"])
            while job["state"] in ("pending", "running"):
                status, job = http(server.url, "GET", queued["href"])
            assert job["state"] == "done"
        finally:
            gate.set()
            server.close(drain=False)

    def test_drain_shutdown_finishes_inflight_http_jobs(self):
        service = AnonymizationService(
            BASE_CONFIG.with_overrides(workers=1, max_pending=4)
        )
        server = ServiceHTTPServer(service, port=0, own_service=False)
        server.start()
        gate = threading.Event()
        records = [sorted(r) for r in quest(60)]
        try:
            blocked = service.submit(gated_source(gate, quest(60)), mode="batch")
            _, queued = http(
                server.url, "POST", "/anonymize",
                {"records": records, "mode": "batch", "async": True},
            )
            closer = threading.Thread(target=service.close, kwargs={"drain": True})
            closer.start()
            gate.set()
            closer.join(timeout=120)
            assert not closer.is_alive()
            assert blocked.result(timeout=1).mode == "batch"
            # The server still answers: the drained job completed, and the
            # closed service reports unhealthy.
            status, job = http(server.url, "GET", queued["href"])
            assert (status, job["state"]) == (200, "done")
            assert http(server.url, "GET", "/healthz")[0] == 503
            status, _ = http(
                server.url, "POST", "/anonymize",
                {"records": records, "mode": "batch"},
            )
            assert status == 503
        finally:
            gate.set()
            server.close(drain=False)

    def test_cancel_shutdown_cancels_queued_http_jobs(self):
        service = AnonymizationService(
            BASE_CONFIG.with_overrides(workers=1, max_pending=4)
        )
        server = ServiceHTTPServer(service, port=0, own_service=False)
        server.start()
        gate = threading.Event()
        records = [sorted(r) for r in quest(60)]
        try:
            blocked = service.submit(gated_source(gate, quest(60)), mode="batch")
            _, queued = http(
                server.url, "POST", "/anonymize",
                {"records": records, "mode": "batch", "async": True},
            )
            closer = threading.Thread(target=service.close, kwargs={"drain": False})
            closer.start()
            gate.set()
            closer.join(timeout=120)
            assert not closer.is_alive()
            # The in-flight job finished; the queued one was cancelled.
            assert blocked.result(timeout=1).mode == "batch"
            status, job = http(server.url, "GET", queued["href"])
            assert (status, job["state"]) == (200, "cancelled")
            assert "cancelled" in job["error"]
        finally:
            gate.set()
            server.close(drain=False)


# --------------------------------------------------------------------------- #
# the serve CLI plumbing
# --------------------------------------------------------------------------- #
class TestServeCli:
    def test_parser_accepts_serve(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "2", "--max-pending", "16"]
        )
        assert (args.command, args.workers, args.max_pending) == ("serve", 2, 16)

    def test_serve_config_env_then_flags(self, monkeypatch):
        from repro.cli import _serve_config, build_parser

        monkeypatch.setenv("REPRO_SERVICE_WORKERS", "4")
        monkeypatch.setenv("REPRO_SERVICE_K", "7")
        args = build_parser().parse_args(["serve", "--workers", "2"])
        config = _serve_config(args)
        assert config.workers == 2  # flag beats env
        assert config.k == 7  # env beats default


# --------------------------------------------------------------------------- #
# retired execution knobs are refused, never silently ignored
# --------------------------------------------------------------------------- #
RETIRED = [
    ("http", "jobs", 2),
    ("http", "kernels", "numpy"),
    ("http", "checkpoint", True),
    ("http", "backend", "string"),
    ("http", "reuse_vocabulary", False),
    ("http-body", "resume", True),
    ("env", "jobs", 2),
    ("env", "checkpoint", 1),
    ("env", "backend", "string"),
    ("env", "reuse_vocabulary", 0),
    ("cli-anonymize", "jobs", 2),
    ("cli-anonymize", "resume", ""),
    ("cli-anonymize", "backend", "string"),
    ("cli-serve", "kernels", "numpy"),
    ("params", "jobs", 2),
    ("params", "backend", "string"),
    ("stream-params", "checkpoint", True),
    ("stream-params", "reuse_vocabulary", False),
    ("pipeline-run", "resume", True),
]


@pytest.mark.parametrize(
    "surface, name, value", RETIRED, ids=[f"{s}-{n}" for s, n, _ in RETIRED]
)
def test_retired_option_is_refused(request, surface, name, value):
    """The process fan-out, kernel, checkpoint/resume, execution-core and
    vocabulary-reuse knobs are gone; every entry point rejects them with
    its own typed error."""
    if surface == "http":
        served = request.getfixturevalue("served")
        status, body = http(
            served.url,
            "POST",
            "/anonymize",
            {"records": [["a", "b"]] * 4, "overrides": {name: value}},
        )
        assert (status, body["kind"]) == (400, "bad_request")
        assert f"override keys: {name} " in body["error"]
    elif surface == "http-body":
        served = request.getfixturevalue("served")
        status, body = http(
            served.url,
            "POST",
            "/anonymize",
            {"records": [["a", "b"]] * 4, "mode": "stream", name: value},
        )
        assert (status, body["kind"]) == (400, "bad_request")
        assert f"body keys: {name} " in body["error"]
    elif surface == "stream-params":
        with pytest.raises(TypeError, match=name):
            StreamParams(**{name: value})
    elif surface == "pipeline-run":
        pipeline = ShardedPipeline(
            AnonymizationParams(k=2, m=2, max_cluster_size=4), StreamParams()
        )
        with pytest.raises(TypeError, match=name):
            pipeline.run(iter([["a", "b"]] * 4), **{name: value})
    elif surface == "env":
        with pytest.raises(ParameterError, match=rf"REPRO_SERVICE_\*\): {name} "):
            ServiceConfig.from_env({f"REPRO_SERVICE_{name.upper()}": str(value)})
    elif surface == "params":
        with pytest.raises(TypeError, match=name):
            AnonymizationParams(**{name: value})
    else:
        from repro.cli import main

        command = surface.removeprefix("cli-")
        # An empty value retires a flag that took no argument.
        argv = [command, f"--{name}"] + ([str(value)] if value != "" else [])
        if command == "anonymize":
            argv[1:1] = ["in.txt", "--output", "out.json"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


# --------------------------------------------------------------------------- #
# mistyped override and deadline values are refused before anything runs
# --------------------------------------------------------------------------- #
BAD_VALUES = [
    ("overrides", {"k": "5"}, "k"),
    ("overrides", {"m": True}, "m"),
    ("overrides", {"verify": 1}, "verify"),
    ("deadline", True, "deadline"),
    ("deadline", "nan", "deadline"),
    ("deadline", float("inf"), "deadline"),
]


@pytest.mark.parametrize(
    "key, value, named",
    BAD_VALUES,
    ids=[f"{key}-{value!r}" for key, value, _ in BAD_VALUES],
)
def test_mistyped_value_is_refused(tmp_path, key, value, named):
    """A wrong-typed override (a bool is not an integer) or a deadline that
    is not a finite positive number answers 400 naming the field, and the
    store is left exactly as it was."""
    config = BASE_CONFIG.with_overrides(store_dir=str(tmp_path / "s"))
    server = ServiceHTTPServer(AnonymizationService(config), port=0).start()
    records = [["a", "b"]] * 6
    try:
        status, _ = http(
            server.url, "POST", "/anonymize", {"mode": "delta", "records": records}
        )
        assert status == 200
        with ShardStore(tmp_path / "s") as store:
            before = (store.generation, store.num_records())
        # json.dumps writes inf as "Infinity", which json.loads reads back.
        status, body = http(
            server.url,
            "POST",
            "/anonymize",
            {"mode": "delta", "records": records, key: value},
        )
    finally:
        server.close()
    assert (status, body["kind"]) == (400, "bad_request")
    assert body["error"].startswith(f"{named} must be ")
    with ShardStore(tmp_path / "s") as store:
        assert (store.generation, store.num_records()) == before
