"""Edge cases and API surface of the persistent incremental store.

Complements the differential fuzz suite (``test_incremental_fuzz.py``):
where the fuzz suite proves the bit-for-bit oracle property on randomized
mutation sequences, this one pins the boundary behaviors down one by one
-- the empty dataset, the single shard, the zero-delta no-op fast path,
deleting everything, plan-fingerprint drift and store-identity mismatches
(all refused with :class:`~repro.exceptions.StoreError`), the compaction
and fault-injection hooks, and the delta plumbing through the service
config/request model, the HTTP front door and the CLI.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import sys
import threading
import tracemalloc

import pytest

from repro import faults
from repro.cli import main
from repro.core.clusters import RecordChunk
from repro.core.codec import cluster_from_payload, cluster_to_payload
from repro.core.engine import AnonymizationParams
from repro.core.verification import audit
from repro.datasets.io import iter_jsonl, iter_records, write_jsonl
from repro.exceptions import (
    CheckpointError,
    DatasetFormatError,
    FaultInjected,
    ParameterError,
    StoreError,
)
from repro.pubstore import PublicationStore
from repro.service import AnonymizationRequest, AnonymizationService, ServiceConfig
from repro.service import service as service_module
from repro.service.http import ServiceHTTPServer, classify_error
from repro.stream import (
    IncrementalPipeline,
    ShardStore,
    StreamParams,
    executor,
    run_fingerprint,
)
from repro.stream import store as store_module
from repro.stream.store import delta_digest
from repro.stream.executor import decode_snapshot
from tests.conftest import make_workload
from tests.reference.engine import reference_cold_run

PARAMS = AnonymizationParams(k=3, m=2, max_cluster_size=12)

RECORDS = [
    frozenset({f"a{i % 7}", f"b{i % 5}", f"c{i % 11}"}) for i in range(140)
]


def _stream(store_dir, **overrides) -> StreamParams:
    values = dict(shards=3, max_records_in_memory=100, store_dir=store_dir)
    values.update(overrides)
    return StreamParams(**values)


#: Fingerprint entries of retired knobs, as stores written by earlier
#: releases carry them.
RETIRED_FINGERPRINT_VALUES = {
    "params.packed_min_rows": None,
    "params.backend": "string",
    "stream.reuse_vocabulary": False,
}


def _stamp_retired_knobs(store_dir) -> None:
    """Rewrite a shard store's fingerprint as an earlier release wrote it."""
    with ShardStore(store_dir) as store:
        legacy = dict(json.loads(store._meta("fingerprint")))
        legacy.update(RETIRED_FINGERPRINT_VALUES)
        with store._write():
            store._set_meta("fingerprint", json.dumps(legacy, sort_keys=True))


def _canonical(published) -> str:
    return json.dumps(published.to_dict(), sort_keys=True)


def _cold(records, **stream_overrides):
    values = dict(shards=3, max_records_in_memory=100)
    values.update(stream_overrides)
    return reference_cold_run(PARAMS, StreamParams(**values), records)


class TestEdgeCases:
    def test_empty_dataset(self, tmp_path):
        """A store initialized with nothing publishes the empty publication."""
        pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "s"))
        published = pipeline.run()
        assert published.clusters == []
        assert _canonical(published) == _canonical(_cold([]))
        report = pipeline.last_report
        assert report.num_records == 0
        assert report.initialized
        # And the follow-up empty run is the no-op fast path.
        again = pipeline.run()
        assert _canonical(again) == _canonical(published)
        assert pipeline.last_report.noop

    def test_single_shard(self, tmp_path):
        pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "s", shards=1))
        pipeline.run(append=RECORDS)
        published = pipeline.run(append=[frozenset({"z1", "z2"})], delete=RECORDS[:3])
        mutated = RECORDS[3:] + [frozenset({"z1", "z2"})]
        assert _canonical(published) == _canonical(_cold(mutated, shards=1))

    def test_zero_delta_is_noop_fast_path(self, tmp_path):
        pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "s"))
        first = pipeline.run(append=RECORDS)
        first_report = pipeline.last_report
        assert not first_report.noop
        second = pipeline.run()
        report = pipeline.last_report
        assert _canonical(second) == _canonical(first)
        assert report.noop
        assert report.windows_recomputed == 0 and report.windows_reused == 0
        assert report.anonymize_seconds == 0.0
        # The fast path still reports the publication's cluster statistics.
        assert report.num_clusters == first_report.num_clusters

    def test_delete_everything(self, tmp_path):
        pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "s"))
        pipeline.run(append=RECORDS)
        published = pipeline.run(delete=RECORDS)
        assert published.clusters == []
        assert _canonical(published) == _canonical(_cold([]))
        assert pipeline.last_report.num_records == 0
        # The store can grow again after being emptied.
        regrown = pipeline.run(append=RECORDS[:40])
        assert _canonical(regrown) == _canonical(_cold(RECORDS[:40]))

    def test_delete_missing_record_refused_and_rolled_back(self, tmp_path):
        pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "s"))
        baseline = pipeline.run(append=RECORDS)
        with pytest.raises(StoreError, match="does not hold"):
            pipeline.run(
                append=[frozenset({"kept?"})], delete=[frozenset({"never-there"})]
            )
        # The whole delta rolled back: the append did not land either.
        assert _canonical(pipeline.run()) == _canonical(baseline)

    def test_duplicate_deletes_remove_distinct_occurrences(self, tmp_path):
        """Deleting the same content twice removes two stored occurrences."""
        twice = [frozenset({"dup", "rec"})] * 2 + RECORDS[:50]
        pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "s"))
        pipeline.run(append=twice)
        published = pipeline.run(
            delete=[frozenset({"dup", "rec"}), frozenset({"dup", "rec"})]
        )
        assert _canonical(published) == _canonical(_cold(RECORDS[:50]))


class TestStoreValidation:
    def test_store_requires_store_dir(self):
        with pytest.raises(ParameterError, match="store_dir"):
            IncrementalPipeline(
                PARAMS, StreamParams(shards=3, max_records_in_memory=100)
            )

    def test_parameter_fingerprint_mismatch_refused(self, tmp_path):
        IncrementalPipeline(PARAMS, _stream(tmp_path / "s")).run(append=RECORDS)
        other = AnonymizationParams(k=5, m=2, max_cluster_size=12)
        pipeline = IncrementalPipeline(other, _stream(tmp_path / "s"))
        with pytest.raises(StoreError, match="output-affecting parameters"):
            pipeline.run(append=[frozenset({"x"})])

    def test_store_dir_not_part_of_fingerprint(self, tmp_path):
        """Like spill_dir, the store's location is identity, not parameters."""
        a = run_fingerprint(PARAMS, _stream(tmp_path / "a"))
        b = run_fingerprint(PARAMS, _stream(tmp_path / "b"))
        assert a == b

    def test_store_fingerprinted_with_retired_knob_accepts_deltas(self, tmp_path):
        """Stores written by earlier releases carry retired, output-neutral
        knobs in their fingerprint -- ``packed_min_rows``, the execution
        ``backend`` (``"string"`` published the same bytes) and
        ``reuse_vocabulary``; deltas must still apply, reusing every
        window they leave unchanged."""
        records = RECORDS * 5  # several windows per shard
        IncrementalPipeline(PARAMS, _stream(tmp_path / "s")).run(append=records)
        _stamp_retired_knobs(tmp_path / "s")

        pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "s"))
        published = pipeline.run(append=[frozenset({"z1", "z2"})])
        report = pipeline.last_report
        assert report.windows_recomputed == 1  # the appended-to window only
        assert report.windows_reused == sum(report.shard_windows) - 1 > 0
        grown = records + [frozenset({"z1", "z2"})]
        assert _canonical(published) == _canonical(_cold(grown))

        published = pipeline.run(delete=records[:3])
        assert _canonical(published) == _canonical(_cold(grown[3:]))

    def test_pubstore_stamped_with_retired_knobs_stays_current(self, tmp_path):
        """A publication store whose source stamp carries the retired knobs
        names the same run: a no-op run leaves it as it is."""
        stream = _stream(tmp_path / "s", pubstore_dir=tmp_path / "pub")
        published = IncrementalPipeline(PARAMS, stream).run(append=RECORDS)
        with PublicationStore(tmp_path / "pub") as pub:
            source = dict(pub.source, **RETIRED_FINGERPRINT_VALUES)
            with pub._write():
                pub._set_meta("source", json.dumps(source, sort_keys=True))
            generation = pub.generation

        pipeline = IncrementalPipeline(PARAMS, stream)
        assert _canonical(pipeline.run()) == _canonical(published)
        assert pipeline.last_report.noop
        assert not pipeline.last_report.pubstore_refreshed
        with PublicationStore(tmp_path / "pub") as pub:
            assert pub.current
            assert pub.generation == generation
            assert pub.source == source

    def test_store_survives_relocation(self, tmp_path):
        """Moving the store directory keeps it usable (location != identity)."""
        pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "a"))
        baseline = pipeline.run(append=RECORDS)
        (tmp_path / "a").rename(tmp_path / "b")
        moved = IncrementalPipeline(PARAMS, _stream(tmp_path / "b"))
        assert _canonical(moved.run()) == _canonical(baseline)
        assert moved.last_report.noop

    def test_wrong_version_refused(self, tmp_path):
        pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "s"))
        pipeline.run(append=RECORDS[:20])
        with ShardStore(tmp_path / "s") as store:
            store._db.execute("BEGIN IMMEDIATE")
            store._set_meta("version", "999")
            store._db.execute("COMMIT")
        with pytest.raises(StoreError, match="version"):
            pipeline.run()

    def test_corrupt_database_refused(self, tmp_path):
        (tmp_path / "s").mkdir()
        (tmp_path / "s" / "store.sqlite").write_bytes(b"this is not sqlite" * 64)
        with pytest.raises(StoreError):
            IncrementalPipeline(PARAMS, _stream(tmp_path / "s")).run()

    def test_plan_drift_refused_and_rolled_back(self, tmp_path):
        """A delta that would change the horpart plan is rejected whole."""
        pipeline = IncrementalPipeline(
            PARAMS, _stream(tmp_path / "s", strategy="horpart")
        )
        records = list(
            frozenset({f"p{i % 13}", f"q{i % 7}", f"r{i}"}) for i in range(160)
        )
        baseline = pipeline.run(append=records)
        with pytest.raises(StoreError, match="plan fingerprint"):
            pipeline.run(delete=records[:80])
        # Nothing mutated: the store still answers with the old publication.
        assert _canonical(pipeline.run()) == _canonical(baseline)

    def test_strategy_mismatch_refused(self, tmp_path):
        pipeline = IncrementalPipeline(
            PARAMS, _stream(tmp_path / "s", strategy="horpart")
        )
        pipeline.run(append=RECORDS)
        hashed = IncrementalPipeline(PARAMS, _stream(tmp_path / "s", strategy="hash"))
        with pytest.raises(StoreError):
            hashed.run(append=[frozenset({"x"})])

    def test_store_error_is_checkpoint_error(self):
        assert issubclass(StoreError, CheckpointError)

    def test_delete_on_fresh_store_refused(self, tmp_path):
        pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "s"))
        with pytest.raises(StoreError, match="uninitialized"):
            pipeline.run(delete=[frozenset({"x"})])


class TestMaintenance:
    def test_compact_preserves_everything(self, tmp_path):
        pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "s"))
        pipeline.run(append=RECORDS)
        baseline = pipeline.run(delete=RECORDS[:60])
        before = (tmp_path / "s" / "store.sqlite").stat().st_size
        pipeline.compact()
        after = (tmp_path / "s" / "store.sqlite").stat().st_size
        assert after <= before
        assert _canonical(pipeline.run()) == _canonical(baseline)

    @pytest.mark.parametrize("point", ["store.open", "store.compact"])
    def test_compact_faults(self, point, tmp_path):
        pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "s"))
        pipeline.run(append=RECORDS[:30])
        plan = faults.FaultPlan([faults.FaultSpec(point, hit=1)])
        with faults.active(plan):
            with pytest.raises(FaultInjected):
                pipeline.compact()

    def test_injection_points_registered(self):
        for point in ("store.open", "store.validate", "store.mutate", "store.compact"):
            assert point in faults.INJECTION_POINTS


class TestServiceDelta:
    def _config(self, tmp_path, **overrides) -> ServiceConfig:
        values = dict(
            k=3,
            m=2,
            max_cluster_size=12,
            shards=3,
            max_records_in_memory=100,
            store_dir=str(tmp_path / "store"),
        )
        values.update(overrides)
        return ServiceConfig(**values)

    def test_delta_requires_store_dir(self, tmp_path):
        with AnonymizationService(ServiceConfig(k=3, m=2, max_cluster_size=12)) as s:
            with pytest.raises(ParameterError, match="store_dir"):
                s.run(RECORDS[:20], mode="delta")

    def test_delete_requires_delta_mode(self):
        with pytest.raises(ParameterError, match='mode="delta"'):
            AnonymizationRequest(RECORDS[:5], mode="batch", delete=RECORDS[:2])

    def test_source_required_outside_delta(self):
        with pytest.raises(ParameterError, match="source is required"):
            AnonymizationRequest(None, mode="batch")

    def test_sync_and_submit_delta(self, tmp_path):
        with AnonymizationService(self._config(tmp_path)) as service:
            first = service.run(RECORDS, mode="delta")
            assert first.mode == "delta"
            job = service.submit(None, mode="delta", delete=RECORDS[:4])
            result = job.result()
        assert _canonical(result.publication) == _canonical(_cold(RECORDS[4:]))

    def test_delta_source_from_file(self, tmp_path):
        path = tmp_path / "append.jsonl"
        write_jsonl(RECORDS[:60], path)
        with AnonymizationService(self._config(tmp_path)) as service:
            result = service.run(str(path), mode="delta")
        assert _canonical(result.publication) == _canonical(_cold(RECORDS[:60]))

    def test_store_dir_in_env_config(self, tmp_path):
        config = ServiceConfig.from_env(
            {"REPRO_SERVICE_STORE_DIR": str(tmp_path / "s"), "REPRO_SERVICE_K": "3"}
        )
        assert config.store_dir == str(tmp_path / "s")
        assert config.to_dict()["store_dir"] == str(tmp_path / "s")
        assert ServiceConfig.from_dict(config.to_dict()).store_dir == config.store_dir


class TestHttpDelta:
    def test_http_delta_flow(self, tmp_path):
        import urllib.error
        import urllib.request

        def post(url, body):
            request = urllib.request.Request(
                url + "/anonymize",
                data=json.dumps(body).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(request) as response:
                    return response.status, json.loads(response.read())
            except urllib.error.HTTPError as error:
                return error.code, json.loads(error.read())

        config = ServiceConfig(
            k=3,
            m=2,
            max_cluster_size=12,
            shards=3,
            max_records_in_memory=100,
            store_dir=str(tmp_path / "store"),
        )
        records = [sorted(r) for r in RECORDS[:80]]
        server = ServiceHTTPServer(AnonymizationService(config), port=0).start()
        try:
            status, body = post(server.url, {"mode": "delta", "records": records})
            assert status == 200 and body["mode"] == "delta"
            # "append" is accepted as an alias for "records".
            status, body = post(
                server.url, {"mode": "delta", "append": [["http-a", "http-b"]]}
            )
            assert status == 200
            status, body = post(
                server.url, {"mode": "delta", "delete": [records[0]]}
            )
            assert status == 200
            expected = _cold(
                RECORDS[1:80] + [frozenset({"http-a", "http-b"})]
            )
            assert (
                json.dumps(body["publication"], sort_keys=True)
                == _canonical(expected)
            )
            # Empty delta: allowed in delta mode, served from the store.
            status, body = post(server.url, {"mode": "delta"})
            assert status == 200 and "no-op" in body["summary"]
            # Conflicting delta: deleting an absent record answers 409.
            status, body = post(
                server.url, {"mode": "delta", "delete": [["absent-record"]]}
            )
            assert status == 409 and body["kind"] == "checkpoint_conflict"
            # Non-delta requests still require records.
            status, body = post(server.url, {"mode": "batch"})
            assert status == 400
        finally:
            server.close()

    def test_store_error_classified_as_conflict(self):
        status, kind, _ = classify_error(StoreError("boom"))
        assert (status, kind) == (409, "checkpoint_conflict")
        status, kind, _ = classify_error(CheckpointError("boom"))
        assert (status, kind) == (409, "checkpoint_conflict")


class TestCliDelta:
    def _write_transactions(self, path, records):
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(" ".join(sorted(record)) + "\n")

    def test_cli_delta_flow(self, tmp_path, capsys):
        base = tmp_path / "base.jsonl"
        write_jsonl(RECORDS[:90], base)
        churn = tmp_path / "churn.jsonl"
        write_jsonl(RECORDS[:5], churn)
        out = tmp_path / "pub.json"
        common = [
            "--k", "3", "--max-cluster-size", "12",
            "--shards", "3", "--max-records-in-memory", "100",
            "--store-dir", str(tmp_path / "store"), "--output", str(out),
        ]
        assert main(["anonymize", str(base), *common]) == 0
        assert main(["anonymize", "--delete", str(churn), *common]) == 0
        published = json.loads(out.read_text())
        assert json.dumps(published, sort_keys=True) == _canonical(
            _cold(RECORDS[5:90])
        )

    def test_cli_append_flag(self, tmp_path):
        extra = tmp_path / "extra.jsonl"
        write_jsonl(RECORDS[:30], extra)
        out = tmp_path / "pub.json"
        common = [
            "--k", "3", "--max-cluster-size", "12",
            "--shards", "3", "--max-records-in-memory", "100",
            "--store-dir", str(tmp_path / "store"), "--output", str(out),
        ]
        assert main(["anonymize", "--append", str(extra), *common]) == 0
        assert json.loads(out.read_text()) == json.loads(
            _canonical(_cold(RECORDS[:30]))
        )

    def test_malformed_line_mid_append_rolls_the_delta_back(self, tmp_path, capsys):
        """A JSONL append is inserted as it is read: a malformed line
        halfway through it fails the run (exit 2 at the CLI,
        :class:`DatasetFormatError` in process) and rolls back every
        record read before it -- records, generation and applied tokens
        are unchanged."""
        base = tmp_path / "base.jsonl"
        write_jsonl(RECORDS[:60], base)
        bad = tmp_path / "bad.jsonl"
        write_jsonl(RECORDS[60:100], bad)
        lines = bad.read_text(encoding="utf-8").splitlines(keepends=True)
        malformed = lines[:20] + ['["ok", 7]\n'] + lines[20:]
        bad.write_text("".join(malformed), encoding="utf-8")
        store_dir = tmp_path / "store"
        common = [
            "--k", "3", "--max-cluster-size", "12",
            "--shards", "3", "--max-records-in-memory", "12",
            "--store-dir", str(store_dir), "--output", str(tmp_path / "pub.json"),
        ]
        assert main(["anonymize", str(base), "--delta-id", "load", *common]) == 0

        def state():
            with ShardStore(store_dir) as store:
                tokens = store._db.execute(
                    "SELECT * FROM applied_deltas ORDER BY delta_id"
                ).fetchall()
                records = store._db.execute(
                    "SELECT seq, shard, record FROM records ORDER BY seq"
                ).fetchall()
                return store.generation, records, tokens

        before = state()
        capsys.readouterr()
        assert main(["anonymize", str(bad), "--delta-id", "bad", *common]) == 2
        assert "bad.jsonl:21" in capsys.readouterr().err
        assert state() == before
        stream = _stream(store_dir, max_records_in_memory=12)
        with pytest.raises(DatasetFormatError, match="bad.jsonl:21"):
            IncrementalPipeline(PARAMS, stream).run(append=iter_records(bad))
        assert state() == before

    def test_cli_append_without_store_dir_rejected(self, tmp_path, capsys):
        code = main(
            ["anonymize", "--append", "x.txt", "--output", str(tmp_path / "o.json")]
        )
        assert code == 2
        assert "--store-dir" in capsys.readouterr().err

    def test_cli_input_required_without_store_dir(self, tmp_path, capsys):
        code = main(["anonymize", "--output", str(tmp_path / "o.json")])
        assert code == 2
        assert "input" in capsys.readouterr().err

    def test_cli_input_and_append_both_rejected(self, tmp_path, capsys):
        code = main(
            [
                "anonymize", "a.txt", "--append", "b.txt",
                "--store-dir", str(tmp_path / "store"),
                "--output", str(tmp_path / "o.json"),
            ]
        )
        assert code == 2
        assert "not both" in capsys.readouterr().err


class TestIdempotencyTokens:
    """Client-supplied delta_ids: at-most-once across request boundaries."""

    def test_cross_delta_retry_not_double_applied(self, tmp_path):
        """A crashed delta's re-run stays idempotent even after other deltas.

        Tokens live in their own table, so delta B committing between
        delta A's crash and its re-run cannot clobber A's token and trick
        the re-run into appending A's records twice.
        """
        pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "s"))
        pipeline.run(append=RECORDS[:60], delta_id="delta-a")
        pipeline.run(append=RECORDS[60:90], delta_id="delta-b")
        replay = pipeline.run(append=RECORDS[:60], delta_id="delta-a")
        assert pipeline.last_report.delta_replayed
        assert pipeline.last_report.appended == 0
        assert _canonical(replay) == _canonical(_cold(RECORDS[:90]))

    def test_token_reuse_with_different_contents_refused(self, tmp_path):
        pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "s"))
        baseline = pipeline.run(append=RECORDS[:30], delta_id="once")
        with pytest.raises(StoreError, match="different contents"):
            pipeline.run(append=RECORDS[30:40], delta_id="once")
        # The refused delta mutated nothing.
        assert _canonical(pipeline.run()) == _canonical(baseline)

    #: The records of a delta whose digest is pinned below.
    PINNED_APPEND = [
        frozenset({"alpha", "beta"}),
        frozenset({"café", "日本"}),
        frozenset({"alpha", "beta"}),
    ]
    PINNED_DELETE = [frozenset({"a0", "b0", "c0"})]  # RECORDS[0]
    #: Their digest.  Stores keep the digest of every token they applied,
    #: so the bytes it covers (appends, ``--``, deletes) never change.
    PINNED_DIGEST = "c81dac5de3dfdc86385b67c3b0e7dd35"

    def test_applied_digest_is_pinned(self, tmp_path):
        """The digest a delta commits with its token is the pinned
        :func:`delta_digest` of its records, computed from the texts the
        store inserts (the appends arrive as a one-shot generator); the
        token replays for the same records and refuses different ones."""
        assert delta_digest(self.PINNED_APPEND, self.PINNED_DELETE) == self.PINNED_DIGEST
        pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "s"))
        pipeline.run(append=RECORDS[:60], delta_id="load")
        pipeline.run(
            append=(record for record in self.PINNED_APPEND),
            delete=self.PINNED_DELETE,
            delta_id="pinned",
        )
        assert pipeline.last_report.appended == 3
        assert pipeline.last_report.deleted == 1
        with ShardStore(tmp_path / "s") as store:
            assert store.applied_digest("pinned") == self.PINNED_DIGEST
            assert store.applied_digest("load") == delta_digest(RECORDS[:60], [])
            generation = store.generation
        pipeline.run(
            append=iter(self.PINNED_APPEND), delete=self.PINNED_DELETE, delta_id="pinned"
        )
        assert pipeline.last_report.delta_replayed
        with pytest.raises(StoreError, match="different contents"):
            pipeline.run(
                append=iter(self.PINNED_APPEND[:2]),
                delete=self.PINNED_DELETE,
                delta_id="pinned",
            )
        with ShardStore(tmp_path / "s") as store:
            assert store.generation == generation
            assert store.num_records() == 60 + 3 - 1

    @pytest.mark.parametrize("point", ["store.mutate", "stream.window"])
    def test_path_delta_retried_after_a_transient_fault_applies_once(
        self, tmp_path, monkeypatch, point
    ):
        """A delta read from a file is replayed from a fresh reader on
        every attempt: after a transient fault before (``store.mutate``)
        or after (``stream.window``) its mutation commits, the retry
        applies it exactly once.  The reader is consumed as the store
        inserts: an attempt that dies before the mutation read one
        record, not the file."""
        source = tmp_path / "delta.jsonl"
        write_jsonl(RECORDS[:90], source)
        reads: list = []

        def counting_reader(*args, **kwargs):
            reads.append(0)
            for record in iter_records(*args, **kwargs):
                reads[-1] += 1
                yield record

        monkeypatch.setattr(service_module, "iter_records", counting_reader)
        config = _delta_config(tmp_path / "store", retry="attempts=3,backoff=0")
        plan = faults.FaultPlan([faults.FaultSpec(point, hit=1, transient=True)])
        with AnonymizationService(config) as service, faults.active(plan):
            result = service.run(str(source), mode="delta", delta_id="from-file")
        assert plan.hits(point) >= 1
        assert len(reads) == 2
        if point == "store.mutate":
            assert reads == [1, 90]
        else:
            assert reads == [90, 90]
            assert result.report.delta_replayed
        with ShardStore(tmp_path / "store") as store:
            assert store.num_records() == 90
            assert store.generation == 1
            rows = store._db.execute("SELECT delta_id FROM applied_deltas").fetchall()
        assert rows == [("from-file",)]
        assert _canonical(result.publication) == _canonical(
            _cold(RECORDS[:90], max_records_in_memory=40)
        )

    def test_request_delta_id_requires_delta_mode(self):
        with pytest.raises(ParameterError, match="delta_id"):
            AnonymizationRequest(RECORDS[:5], mode="batch", delta_id="x")

    def test_request_delta_id_must_be_nonempty_string(self):
        with pytest.raises(ParameterError, match="non-empty"):
            AnonymizationRequest(RECORDS[:5], mode="delta", delta_id="")

    def test_service_resubmission_with_token_is_idempotent(self, tmp_path):
        config = ServiceConfig(
            k=3,
            m=2,
            max_cluster_size=12,
            shards=3,
            max_records_in_memory=100,
            store_dir=str(tmp_path / "store"),
        )
        with AnonymizationService(config) as service:
            first = service.run(RECORDS[:50], mode="delta", delta_id="day-1")
            again = service.run(RECORDS[:50], mode="delta", delta_id="day-1")
        oracle = _canonical(_cold(RECORDS[:50]))
        assert _canonical(first.publication) == oracle
        assert _canonical(again.publication) == oracle

    def test_http_delta_id_resubmission(self, tmp_path):
        import urllib.error
        import urllib.request

        def post(url, body):
            request = urllib.request.Request(
                url + "/anonymize",
                data=json.dumps(body).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(request) as response:
                    return response.status, json.loads(response.read())
            except urllib.error.HTTPError as error:
                return error.code, json.loads(error.read())

        config = ServiceConfig(
            k=3,
            m=2,
            max_cluster_size=12,
            shards=3,
            max_records_in_memory=100,
            store_dir=str(tmp_path / "store"),
        )
        records = [sorted(r) for r in RECORDS[:60]]
        server = ServiceHTTPServer(AnonymizationService(config), port=0).start()
        try:
            body = {"mode": "delta", "records": records, "delta_id": "retry-1"}
            status, first = post(server.url, body)
            assert status == 200
            status, again = post(server.url, body)
            assert status == 200
            assert again["publication"] == first["publication"]
            # A reused token with different contents is a 409 conflict.
            status, body = post(
                server.url,
                {"mode": "delta", "records": [["new-a"]], "delta_id": "retry-1"},
            )
            assert status == 409 and body["kind"] == "checkpoint_conflict"
            status, body = post(
                server.url, {"mode": "delta", "delta_id": 7}
            )
            assert status == 400
            status, body = post(
                server.url, {"mode": "batch", "records": records, "delta_id": "x"}
            )
            assert status == 400
        finally:
            server.close()
        oracle = _canonical(_cold(RECORDS[:60]))
        assert json.dumps(first["publication"], sort_keys=True) == oracle

    def test_cli_delta_id_rerun_is_idempotent(self, tmp_path):
        base = tmp_path / "base.jsonl"
        write_jsonl(RECORDS[:50], base)
        out = tmp_path / "pub.json"
        argv = [
            "anonymize", str(base),
            "--k", "3", "--max-cluster-size", "12",
            "--shards", "3", "--max-records-in-memory", "100",
            "--store-dir", str(tmp_path / "store"),
            "--delta-id", "nightly-1",
            "--output", str(out),
        ]
        assert main(argv) == 0
        # Simulating crash recovery: the exact re-run must not duplicate.
        assert main(argv) == 0
        assert json.dumps(json.loads(out.read_text()), sort_keys=True) == _canonical(
            _cold(RECORDS[:50])
        )

    def test_cli_delta_id_requires_store_dir(self, tmp_path, capsys):
        code = main(
            [
                "anonymize", "in.txt", "--delta-id", "t",
                "--output", str(tmp_path / "o.json"),
            ]
        )
        assert code == 2
        assert "--store-dir" in capsys.readouterr().err


class TestStoreConcurrency:
    """Runs over one store are serialized by the advisory store lock."""

    def test_exclusive_lock_times_out_then_releases(self, tmp_path):
        holder = ShardStore(tmp_path / "s", exclusive=True)
        try:
            with pytest.raises(StoreError, match="lock"):
                ShardStore(tmp_path / "s", exclusive=True, lock_timeout=0.2)
        finally:
            holder.close()
        # close() released the lock: the next exclusive open succeeds.
        ShardStore(tmp_path / "s", exclusive=True, lock_timeout=0.2).close()

    def test_plain_open_for_inspection_while_locked(self, tmp_path):
        holder = ShardStore(tmp_path / "s", exclusive=True)
        try:
            with ShardStore(tmp_path / "s") as reader:
                assert reader.num_records() == 0
        finally:
            holder.close()

    def test_concurrent_deltas_serialize(self, tmp_path):
        """Two simultaneous delta runs both land, with a consistent store.

        Each thread drives its own IncrementalPipeline against the same
        store_dir (exactly what a --workers 2 service does).  The lock
        forces one full run after the other, so afterwards the store
        holds both appends in some arrival order and an empty reconcile
        publishes bit-for-bit what a cold run over that order would.
        """
        import threading

        stream = _stream(tmp_path / "s")
        errors = []

        def run(chunk):
            try:
                IncrementalPipeline(PARAMS, stream).run(append=chunk)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(RECORDS[:50],)),
            threading.Thread(target=run, args=(RECORDS[50:100],)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        with ShardStore(tmp_path / "s") as store:
            texts = [
                row[0]
                for row in store._db.execute(
                    "SELECT record FROM records ORDER BY seq"
                )
            ]
        arrival = [frozenset(json.loads(text)) for text in texts]
        assert len(arrival) == 100
        final = IncrementalPipeline(PARAMS, stream).run()
        assert _canonical(final) == _canonical(_cold(arrival))

    def test_failed_open_leaks_no_file_handles(self, tmp_path):
        import os

        fd_dir = "/proc/self/fd"
        if not os.path.isdir(fd_dir):  # pragma: no cover - non-Linux
            pytest.skip("needs /proc to count open file descriptors")
        (tmp_path / "s").mkdir()
        (tmp_path / "s" / "store.sqlite").write_bytes(b"this is not sqlite" * 64)
        with pytest.raises(StoreError):
            ShardStore(tmp_path / "s")
        before = len(os.listdir(fd_dir))
        for _ in range(5):
            with pytest.raises(StoreError):
                ShardStore(tmp_path / "s")
        assert len(os.listdir(fd_dir)) == before


class TestResidentMemory:
    def test_traced_peak_stays_flat_as_windows_grow(self, tmp_path):
        """A store-backed run with a publication store holds text, not
        cluster objects, for every window it is not computing, and writes
        the publication store a batch of top-level clusters at a time: its
        traced peak over 32 windows stays within 1.5x of its peak over 8
        (keeping every window's clusters to the run tail grew it ~4x)."""
        peaks = []
        for windows in (8, 32):
            records = list(
                make_workload("quest", records=250 * windows, domain=200, avg_len=5.0, seed=3)
            )
            stream = StreamParams(
                shards=1,
                max_records_in_memory=250,
                store_dir=tmp_path / f"shards{windows}",
                pubstore_dir=tmp_path / f"pub{windows}",
            )
            pipeline = IncrementalPipeline(PARAMS, stream)
            gc.collect()
            tracemalloc.start()
            try:
                pipeline.run(append=records)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert pipeline.last_report.shard_windows == [windows]
        assert peaks[1] <= 1.5 * peaks[0], peaks


    def test_traced_peak_stays_flat_when_the_input_is_a_file(self, tmp_path):
        """The appended records stream from a JSONL reader into the store
        as the run consumes them, so the input is inside the traced region
        and still no more than a window of it is held: the traced peak of
        a run over 32 windows stays within 1.5x of one over 8 (holding
        the parsed input grew it past that)."""
        peaks = []
        for windows in (8, 32):
            source = tmp_path / f"input{windows}.jsonl"
            write_jsonl(
                make_workload("quest", records=250 * windows, domain=200, avg_len=5.0, seed=3),
                source,
            )
            stream = StreamParams(
                shards=1,
                max_records_in_memory=250,
                store_dir=tmp_path / f"shards{windows}",
                pubstore_dir=tmp_path / f"pub{windows}",
            )
            pipeline = IncrementalPipeline(PARAMS, stream)
            gc.collect()
            tracemalloc.start()
            try:
                pipeline.run(append=iter_jsonl(source))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert pipeline.last_report.shard_windows == [windows]
        assert peaks[1] <= 1.5 * peaks[0], peaks


def _tamper_window(store_dir, shard: int, win: int) -> str:
    """Rewrite one stored window snapshot so a record chunk breaks k^m.

    A term held by a single sub-record joins the first record chunk of
    the window's first simple cluster that has one.  The window's
    record-text fingerprint and its stored product are kept, so the
    reconcile pass still reuses the snapshot.  Returns the planted term.
    """
    term = "tampered-term"
    with ShardStore(store_dir) as store:
        fingerprint, text, _ = store.get_window(shard, win)
        clusters = [cluster_from_payload(item) for item in json.loads(text)]
        leaf = next(
            leaf
            for cluster in clusters
            for leaf in cluster.leaves()
            if leaf.record_chunks
        )
        chunk = leaf.record_chunks[0]
        leaf.record_chunks[0] = RecordChunk(
            chunk.domain | {term},
            [chunk.subrecords[0] | {term}] + chunk.subrecords[1:],
        )
        snapshot = json.dumps([cluster_to_payload(c) for c in clusters])
        with store._write() as db:
            db.execute(
                "UPDATE windows SET clusters = ? WHERE shard = ? AND win = ?",
                (snapshot, shard, win),
            )
        assert store.get_window(shard, win)[0] == fingerprint
    return term


def _keys(store_dir, table: str) -> list:
    """The ``(shard, win)`` keys of a shard store table, in order."""
    with ShardStore(store_dir) as store:
        return store._db.execute(
            f"SELECT shard, win FROM {table} ORDER BY shard, win"
        ).fetchall()


def _drop_window_products(store_dir) -> None:
    """Rewrite a shard store as releases before ``window_products`` left it.

    Those kept the window snapshots only; the next open creates the
    (empty) products table.
    """
    with ShardStore(store_dir) as store, store._write() as db:
        db.execute("DROP TABLE window_products")


def _count_audits(monkeypatch) -> list:
    """Record every window audit (``window_product`` call) a run makes."""
    audits: list = []
    audit_window = executor.window_product

    def counted(clusters, k, m):
        audits.append(len(clusters))
        return audit_window(clusters, k, m)

    monkeypatch.setattr(executor, "window_product", counted)
    monkeypatch.setattr(store_module, "window_product", counted)
    return audits


def _delta_config(store_dir, **overrides) -> ServiceConfig:
    return ServiceConfig(
        k=3,
        m=2,
        max_cluster_size=12,
        shards=3,
        max_records_in_memory=40,
        store_dir=str(store_dir),
        **overrides,
    )


class TestWindowProducts:
    def test_fresh_pipeline_audits_only_recomputed_windows(self, tmp_path, monkeypatch):
        """A pipeline that did not build the store (a restart, a CLI
        delta) audits exactly the windows its delta recomputes, and none
        on a no-op: every other window's product comes from the store."""
        stream = _stream(tmp_path / "s", max_records_in_memory=40)
        IncrementalPipeline(PARAMS, stream).run(append=RECORDS)
        appended = [frozenset({"fresh-a", "fresh-b"})]
        audits = _count_audits(monkeypatch)

        fresh = IncrementalPipeline(PARAMS, stream)
        published = fresh.run(append=appended, delete=RECORDS[-2:])
        report = fresh.last_report
        assert report.windows_reused > 0
        assert len(audits) == report.windows_recomputed
        expected = _cold(RECORDS[:-2] + appended, max_records_in_memory=40)
        assert published.text == json.dumps(expected.to_dict(), separators=(",", ":"))

        audits.clear()
        again = IncrementalPipeline(PARAMS, stream)
        assert again.run().text == published.text
        assert again.last_report.noop
        assert audits == []

    def test_fresh_service_audits_only_recomputed_windows(self, tmp_path, monkeypatch):
        """The same through the service: each delta runs on a service that
        did not see the store's earlier deltas."""
        config = _delta_config(tmp_path / "s")
        with AnonymizationService(config) as service:
            service.run(RECORDS, mode="delta")
        audits = _count_audits(monkeypatch)
        appended = [frozenset({"svc-a", "svc-b"})]
        with AnonymizationService(config) as service:
            result = service.run(appended, mode="delta")
        assert result.report.windows_reused > 0
        assert len(audits) == result.report.windows_recomputed
        assert _canonical(result.publication) == _canonical(
            _cold(RECORDS + appended, max_records_in_memory=40)
        )
        audits.clear()
        with AnonymizationService(config) as service:
            again = service.run(None, mode="delta")
        assert again.report.noop
        assert audits == []
        assert again.to_json() == result.to_json()

    def test_store_without_products_backfills_them(self, tmp_path, monkeypatch):
        """A store written before products were kept publishes the same
        bytes: its first run audits every window where it is read and
        writes the products back, so the next delta audits only the
        windows it recomputes."""
        stream = _stream(
            tmp_path / "s", max_records_in_memory=40, pubstore_dir=tmp_path / "p"
        )
        text = IncrementalPipeline(PARAMS, stream).run(append=RECORDS).text
        windows = _keys(tmp_path / "s", "windows")
        _drop_window_products(tmp_path / "s")
        assert _keys(tmp_path / "s", "window_products") == []
        audits = _count_audits(monkeypatch)

        backfill = IncrementalPipeline(PARAMS, stream)
        assert backfill.run().text == text
        assert backfill.last_report.noop
        assert len(audits) == len(windows)
        assert _keys(tmp_path / "s", "window_products") == windows

        audits.clear()
        appended = [frozenset({"back-a", "back-b"})]
        delta = IncrementalPipeline(PARAMS, stream)
        published = delta.run(append=appended)
        assert delta.last_report.windows_reused > 0
        assert len(audits) == delta.last_report.windows_recomputed
        assert _canonical(published) == _canonical(
            _cold(RECORDS + appended, max_records_in_memory=40)
        )
        with PublicationStore(tmp_path / "p") as pub:
            assert pub.load_publication().to_dict() == published.to_dict()

    def test_shrinking_delete_leaves_no_orphan_products(self, tmp_path):
        """Deletes that drop a shard's trailing windows drop their
        products in the same pass: every product row has its window."""
        stream = _stream(tmp_path / "s", max_records_in_memory=40)
        pipeline = IncrementalPipeline(PARAMS, stream)
        pipeline.run(append=RECORDS)
        before = _keys(tmp_path / "s", "window_products")
        assert before == _keys(tmp_path / "s", "windows")
        pipeline.run(delete=RECORDS[:80])
        windows = sum(pipeline.last_report.shard_windows)
        assert windows < len(before)
        assert _keys(tmp_path / "s", "window_products") == _keys(tmp_path / "s", "windows")
        assert len(_keys(tmp_path / "s", "windows")) == windows

    def test_tampered_snapshot_is_audited_again_and_recomputed(self, tmp_path):
        """A stored product never vouches for bytes it was not derived
        from: a window snapshot rewritten on disk (same record-text
        fingerprint, product row kept) is audited again by the next delta,
        fails, and is recomputed from its records -- nothing is demoted,
        the publication equals a cold run, and the no-op after it
        repairs nothing."""
        stream = _stream(tmp_path / "s", max_records_in_memory=40)
        pipeline = IncrementalPipeline(PARAMS, stream)
        appends = [[frozenset({"warm-a", "warm-b"})], [frozenset({"next-a", "next-b"})]]
        pipeline.run(append=RECORDS)
        pipeline.run(append=appends[0])
        products = _keys(tmp_path / "s", "window_products")
        assert len(products) == sum(pipeline.last_report.shard_windows)
        term = _tamper_window(tmp_path / "s", shard=0, win=0)
        with ShardStore(tmp_path / "s") as store:
            assert store.get_window(0, 0)[2] is None

        published = pipeline.run(append=appends[1])
        report = pipeline.last_report
        assert report.windows_reused > 0
        # The appended record's tail window and the tampered window.
        assert report.windows_recomputed == 2
        assert report.repair.total_demoted() == 0
        assert audit(published).ok
        assert term not in published.record_chunk_terms()
        expected = _cold(RECORDS + appends[0] + appends[1], max_records_in_memory=40)
        assert _canonical(published) == _canonical(expected)
        assert published.text == json.dumps(published.to_dict(), separators=(",", ":"))
        with ShardStore(tmp_path / "s") as store:
            assert store.get_window(0, 0)[2] is not None

        again = pipeline.run()
        assert pipeline.last_report.noop
        assert pipeline.last_report.repair.total_demoted() == 0
        assert _canonical(again) == _canonical(published)

    def test_tampered_snapshot_on_the_noop_path_is_recomputed(self, tmp_path):
        """An empty delta over a tampered window is no no-op: it falls
        back to the reconcile pass, which recomputes that window only."""
        stream = _stream(tmp_path / "s", max_records_in_memory=40)
        pipeline = IncrementalPipeline(PARAMS, stream)
        published = pipeline.run(append=RECORDS)
        _tamper_window(tmp_path / "s", shard=1, win=0)

        again = pipeline.run()
        report = pipeline.last_report
        assert not report.noop
        assert report.windows_recomputed == 1
        assert report.repair.total_demoted() == 0
        assert _canonical(again) == _canonical(published)
        pipeline.run()
        assert pipeline.last_report.noop

    def test_products_hold_only_untracked_values(self, tmp_path):
        """A product read from the store is text and numbers: nothing it
        references is a container the cyclic collector tracks, and it
        holds one fragment string and one digest per top-level cluster of
        its window."""
        stream = _stream(tmp_path / "s", max_records_in_memory=40)
        IncrementalPipeline(PARAMS, stream).run(append=RECORDS)
        pipeline = IncrementalPipeline(PARAMS, stream)
        published = pipeline.run(append=[frozenset({"gc-a", "gc-b"})])
        gc.collect()
        products = published._products
        assert len(products) == sum(pipeline.last_report.shard_windows)
        for product in products:
            for field in dataclasses.fields(product):
                value = getattr(product, field.name)
                assert isinstance(value, (str, int, tuple)), field.name
                assert not gc.is_tracked(value), field.name
        assert sum(len(p.digests) for p in products) == len(published)
        fragments = ",".join(p.fragments for p in products)
        assert len(json.loads(f"[{fragments}]")) == len(published)

    def test_concurrent_deltas_on_two_stores(self, tmp_path):
        """Three service workers interleave delta chains over two stores
        (switch interval shortened to force thread switches): every
        publication still matches its cold oracle, and each store ends
        with exactly one product per window."""
        config = _delta_config(tmp_path / "unused", workers=3)
        failures: list = []

        def chain(service, name):
            records = [frozenset(record | {name}) for record in RECORDS]
            overrides = {"store_dir": str(tmp_path / name)}
            try:
                current = []
                for step in range(4):
                    batch = records[step * 35 : (step + 1) * 35]
                    job = service.submit(batch, mode="delta", overrides=overrides)
                    result = job.result(timeout=120)
                    current += batch
                    expected = _cold(current, max_records_in_memory=40)
                    if _canonical(result.publication) != _canonical(expected):
                        failures.append((name, step))
            except Exception as exc:  # surfaced by the assertion below
                failures.append((name, repr(exc)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with AnonymizationService(config) as service:
                threads = [
                    threading.Thread(target=chain, args=(service, name))
                    for name in ("left", "right")
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=300)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        for name in ("left", "right"):
            with ShardStore(tmp_path / name) as store:
                counts = store.shard_counts(3)
            windows = _keys(tmp_path / name, "windows")
            assert len(windows) == sum(-(-count // 40) for count in counts)
            assert _keys(tmp_path / name, "window_products") == windows


def _downgrade_to_publication_blob(store_dir) -> None:
    """Rewrite a shard store in the layout earlier releases wrote.

    Those kept the merged publication as one JSON blob in a
    ``publication`` table and marked it current by its generation; they
    had no ``published_generation`` slot.
    """
    with ShardStore(store_dir) as store:
        generation = store.generation
        published = IncrementalPipeline(
            PARAMS, _stream(store_dir, max_records_in_memory=40)
        )._stored_windows(store)
        payload = {
            "k": PARAMS.k,
            "m": PARAMS.m,
            "clusters": [
                cluster.to_dict()
                for window in published
                for cluster in decode_snapshot(window.snapshot())
            ],
        }
        with store._write() as db:
            db.execute("DELETE FROM meta WHERE key = 'published_generation'")
            db.execute(
                "CREATE TABLE publication (id INTEGER PRIMARY KEY CHECK (id = 0), "
                "generation INTEGER NOT NULL, payload TEXT NOT NULL)"
            )
            db.execute(
                "INSERT INTO publication VALUES (0, ?, ?)",
                (generation, json.dumps(payload)),
            )


class TestEarlierReleaseStore:
    def test_blob_store_takes_a_delta_then_a_noop(self, tmp_path):
        """A store with the retired publication blob keeps working: the
        delta reuses its windows and refreshes its pubstore by diff, the
        blob table is dropped, and the next empty run is the no-op path."""
        stream = _stream(
            tmp_path / "s", max_records_in_memory=40, pubstore_dir=tmp_path / "p"
        )
        IncrementalPipeline(PARAMS, stream).run(append=RECORDS)
        _downgrade_to_publication_blob(tmp_path / "s")

        appended = [frozenset({"late-a", "late-b"})]
        pipeline = IncrementalPipeline(PARAMS, stream)
        published = pipeline.run(append=appended)
        report = pipeline.last_report
        assert not report.noop
        assert report.windows_reused > 0
        assert report.pubstore_refreshed and report.pubstore_tops_kept > 0
        expected = _canonical(_cold(RECORDS + appended, max_records_in_memory=40))
        assert _canonical(published) == expected
        with ShardStore(tmp_path / "s") as store:
            assert store.published_generation == store.generation
            assert (
                store._db.execute(
                    "SELECT name FROM sqlite_master WHERE name = 'publication'"
                ).fetchone()
                is None
            )

        fresh = IncrementalPipeline(PARAMS, stream)
        again = fresh.run()
        assert fresh.last_report.noop
        assert _canonical(again) == expected
        with PublicationStore(tmp_path / "p") as pub:
            assert pub.load_publication().to_dict() == again.to_dict()
