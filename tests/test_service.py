"""Tests for the service layer: config, routing, warm state, lifecycle.

Covers the :mod:`repro.service` facade end to end:

* ``ServiceConfig`` validation, ``from_dict``/``to_dict`` round-trips and
  ``from_env`` parsing;
* request auto-routing (dataset vs iterator vs JSONL path, memory
  threshold) and forced modes;
* bit-for-bit equivalence of the service paths against the engines they
  wrap, including warm back-to-back runs sharing one vocabulary;
* concurrent ``submit()`` determinism against sequential ``run()``;
* engine and service lifecycle (double close, reuse after close, drain);
* the one-shot CLI publishing what the engine publishes.
"""

from __future__ import annotations

import threading

import pytest

from repro import (
    AnonymizationParams,
    AnonymizationRequest,
    AnonymizationService,
    Disassociator,
    EngineClosedError,
    ParameterError,
    ServiceClosedError,
    ServiceConfig,
    ServiceSaturatedError,
    ShardedPipeline,
    StreamParams,
    TransactionDataset,
)
from repro.core.engine import AnonymizationReport
from repro.datasets.io import write_jsonl
from repro.datasets.quest import generate_quest
from repro.stream import IncrementalReport

from tests.conftest import PAPER_RECORDS


def quest(records=300, domain=80, seed=0) -> TransactionDataset:
    """A small deterministic QUEST dataset for service-level tests."""
    return generate_quest(
        num_transactions=records,
        domain_size=domain,
        avg_transaction_size=5.0,
        seed=seed,
    )


# --------------------------------------------------------------------------- #
# ServiceConfig
# --------------------------------------------------------------------------- #
class TestServiceConfig:
    def test_defaults_match_legacy_defaults(self):
        config = ServiceConfig()
        assert config.engine_params() == AnonymizationParams()
        assert config.stream_params() == StreamParams()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"m": 0},
            {"max_cluster_size": 4, "k": 5},
            {"workers": 0},
            {"shards": 0},
            {"max_records_in_memory": 1},
            {"shard_strategy": "roulette"},
            {"auto_stream_threshold": 0},
            {"max_pending": 0},
            # Cross-subsystem invariant (lives in ShardedPipeline, repeated
            # by ServiceConfig for fail-fast construction).
            {"max_cluster_size": 60, "max_records_in_memory": 50},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            ServiceConfig(**kwargs)

    def test_engine_and_stream_projections(self):
        config = ServiceConfig(
            k=3, m=1, max_cluster_size=10, shards=2, shard_strategy="horpart",
        )
        params = config.engine_params()
        assert (params.k, params.m, params.max_cluster_size) == (3, 1, 10)
        stream = config.stream_params()
        assert (stream.shards, stream.strategy) == (2, "horpart")

    def test_from_dict_round_trip(self):
        config = ServiceConfig(
            k=4,
            m=2,
            max_cluster_size=9,
            sensitive_terms={"flu", "viagra"},
            max_join_size=40,
            shards=3,
            shard_strategy="horpart",
            auto_stream_threshold=123,
            spill_dir="/tmp/spills",
        )
        payload = config.to_dict()
        assert payload["sensitive_terms"] == ["flu", "viagra"]
        assert ServiceConfig.from_dict(payload) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ParameterError, match="unknown ServiceConfig keys: kk"):
            ServiceConfig.from_dict({"kk": 5})

    def test_from_env_round_trip(self):
        config = ServiceConfig(
            k=7,
            max_cluster_size=20,
            refine=False,
            sensitive_terms={"a", "b"},
            shards=2,
            max_records_in_memory=50,
            verify=False,
            max_join_size=60,
        )
        environ = {
            f"REPRO_SERVICE_{key.upper()}": ",".join(sorted(value))
            if isinstance(value, frozenset)
            else str(value)
            for key, value in config.to_dict().items()
            if value is not None and not isinstance(value, list)
        }
        environ["REPRO_SERVICE_SENSITIVE_TERMS"] = "a,b"
        assert ServiceConfig.from_env(environ) == config

    def test_from_env_parses_types(self):
        environ = {
            "REPRO_SERVICE_K": "9",
            "REPRO_SERVICE_MAX_CLUSTER_SIZE": "40",
            "REPRO_SERVICE_REFINE": "off",
            "REPRO_SERVICE_VERIFY": "Yes",
            "REPRO_SERVICE_MAX_JOIN_SIZE": "none",
            "REPRO_SERVICE_SENSITIVE_TERMS": " flu , viagra ",
            "UNRELATED": "ignored",
        }
        config = ServiceConfig.from_env(environ)
        assert config.k == 9
        assert config.refine is False
        assert config.verify is True
        assert config.max_join_size is None
        assert config.sensitive_terms == frozenset({"flu", "viagra"})

    @pytest.mark.parametrize(
        "environ",
        [
            {"REPRO_SERVICE_K": "five"},
            {"REPRO_SERVICE_REFINE": "maybe"},
        ],
    )
    def test_from_env_rejects_malformed_values(self, environ):
        with pytest.raises(ParameterError, match="REPRO_SERVICE_"):
            ServiceConfig.from_env(environ)

    def test_from_env_rejects_misspelled_prefixed_variables(self):
        with pytest.raises(ParameterError, match="max_clustersize"):
            ServiceConfig.from_env({"REPRO_SERVICE_MAX_CLUSTERSIZE": "50"})

    def test_stream_threshold_defaults_to_memory_bound(self):
        assert ServiceConfig(max_records_in_memory=77).stream_threshold == 77
        assert (
            ServiceConfig(max_records_in_memory=77, auto_stream_threshold=9).stream_threshold
            == 9
        )


# --------------------------------------------------------------------------- #
# routing
# --------------------------------------------------------------------------- #
ROUTING_CONFIG = ServiceConfig(
    k=3, max_cluster_size=10, verify=False, shards=2, max_records_in_memory=50
)


class TestRouting:
    def test_small_dataset_routes_to_batch(self):
        with AnonymizationService(ROUTING_CONFIG) as service:
            result = service.run(quest(30))
        assert result.mode == "batch"
        assert isinstance(result.report, AnonymizationReport)
        assert result.original is not None

    def test_large_dataset_routes_to_stream(self):
        with AnonymizationService(ROUTING_CONFIG) as service:
            result = service.run(quest(120), overrides={"auto_stream_threshold": 100})
        assert result.mode == "stream"
        assert isinstance(result.report, IncrementalReport)
        assert result.original is None

    def test_small_iterator_routes_to_batch(self):
        with AnonymizationService(ROUTING_CONFIG) as service:
            result = service.run(iter(list(quest(30))))
        assert result.mode == "batch"

    def test_large_iterator_streams_without_materializing(self):
        with AnonymizationService(ROUTING_CONFIG) as service:
            result = service.run(
                iter(list(quest(120))), overrides={"auto_stream_threshold": 100}
            )
        assert result.mode == "stream"
        assert result.report.num_records == 120

    def test_jsonl_path_routes_by_threshold(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_jsonl(quest(30), path)
        with AnonymizationService(ROUTING_CONFIG) as service:
            # 30 records fit under the 50-record threshold: in-memory run.
            assert service.run(str(path)).mode == "batch"
            # Tighten the threshold below the file size: streamed run.
            assert (
                service.run(str(path), overrides={"auto_stream_threshold": 20}).mode
                == "stream"
            )

    def test_forced_modes_override_auto(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_jsonl(quest(30), path)
        with AnonymizationService(ROUTING_CONFIG) as service:
            assert service.run(quest(30), mode="stream").mode == "stream"
            assert service.run(str(path), mode="batch").mode == "batch"

    def test_request_kwargs_rejected_with_request_object(self):
        with AnonymizationService(ROUTING_CONFIG) as service:
            with pytest.raises(ParameterError, match="keyword arguments"):
                service.run(AnonymizationRequest(quest(10)), mode="batch")

    def test_misspelled_override_key_fails_fast(self):
        with pytest.raises(ParameterError, match="unknown ServiceConfig override"):
            AnonymizationRequest(quest(10), overrides={"max_clustersize": 40})
        with AnonymizationService(ROUTING_CONFIG) as service:
            # Also via the submit keyword path: rejected at submission, not
            # at job.result().
            with pytest.raises(ParameterError, match="unknown ServiceConfig override"):
                service.submit(quest(10), max_clustersize=40)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ParameterError, match="mode"):
            AnonymizationRequest(quest(10), mode="turbo")


# --------------------------------------------------------------------------- #
# equivalence with the wrapped engines, warm-state reuse
# --------------------------------------------------------------------------- #
class TestEquivalence:
    def test_batch_matches_direct_engine(self):
        dataset = quest(200)
        config = ServiceConfig(k=3, max_cluster_size=12)
        expected = Disassociator(config.engine_params()).anonymize(dataset)
        with AnonymizationService(config) as service:
            result = service.run(dataset, mode="batch")
        assert result.to_dict() == expected.to_dict()

    def test_stream_matches_direct_pipeline(self):
        dataset = quest(200)
        config = ServiceConfig(
            k=3, max_cluster_size=12, shards=2, max_records_in_memory=60
        )
        expected = ShardedPipeline(config.engine_params(), config.stream_params()).anonymize(
            dataset
        )
        with AnonymizationService(config) as service:
            result = service.run(dataset, mode="stream")
        assert result.to_dict() == expected.to_dict()

    def test_stream_request_matches_pipeline(self):
        dataset = quest(150)
        params = AnonymizationParams(k=3, max_cluster_size=12)
        stream = StreamParams(shards=2, max_records_in_memory=60)
        expected = ShardedPipeline(params, stream).anonymize(dataset)
        config = ServiceConfig(
            k=3, max_cluster_size=12, shards=2, max_records_in_memory=60
        )
        with AnonymizationService(config) as service:
            result = service.run(AnonymizationRequest(dataset, mode="stream"))
        assert result.publication.to_dict() == expected.to_dict()

    def test_warm_back_to_back_runs_match_cold_runs(self):
        datasets = [quest(150, seed=seed) for seed in range(3)]
        config = ServiceConfig(k=3, max_cluster_size=12, verify=False)
        cold = [
            Disassociator(config.engine_params()).anonymize(dataset).to_dict()
            for dataset in datasets
        ]
        with AnonymizationService(config) as service:
            warm = [service.run(dataset, mode="batch").to_dict() for dataset in datasets]
        assert warm == cold

    def test_warm_vocabulary_skips_reinterning(self):
        dataset = quest(150)
        with AnonymizationService(ServiceConfig(k=3, max_cluster_size=12)) as service:
            first = service.run(dataset, mode="batch")
            terms_after_first = service.stats()["vocabulary_terms"]
            second = service.run(dataset, mode="batch")
            terms_after_second = service.stats()["vocabulary_terms"]
        assert terms_after_first > 0
        # Same input again: every term is already interned.
        assert terms_after_second == terms_after_first
        assert first.to_dict() == second.to_dict()

    def test_mixed_modes_share_one_service(self):
        dataset = quest(150)
        config = ServiceConfig(
            k=3, max_cluster_size=12, shards=2, max_records_in_memory=60
        )
        with AnonymizationService(config) as service:
            batch = service.run(dataset, mode="batch")
            stream = service.run(dataset, mode="stream")
            batch_again = service.run(dataset, mode="batch")
        assert batch.to_dict() == batch_again.to_dict()
        expected_stream = ShardedPipeline(
            config.engine_params(), config.stream_params()
        ).anonymize(dataset)
        assert stream.to_dict() == expected_stream.to_dict()

    def test_per_request_k_override(self):
        dataset = quest(120)
        config = ServiceConfig(k=3, max_cluster_size=12, verify=False)
        expected = Disassociator(config.engine_params(k=2)).anonymize(dataset)
        with AnonymizationService(config) as service:
            assert service.run(dataset, mode="batch", k=2).to_dict() == expected.to_dict()


# --------------------------------------------------------------------------- #
# submit(): queued execution
# --------------------------------------------------------------------------- #
class TestSubmit:
    def test_submit_returns_job_with_result(self):
        with AnonymizationService(ROUTING_CONFIG) as service:
            job = service.submit(quest(50), tag="first")
            result = job.result(timeout=60)
        assert job.done()
        assert result.tag == "first"
        assert result.mode == "batch"

    def test_concurrent_submits_match_sequential_runs(self):
        datasets = [quest(100, seed=seed) for seed in range(4)]
        config = ServiceConfig(k=3, max_cluster_size=12, verify=False)
        with AnonymizationService(config) as service:
            sequential = [service.run(d, mode="batch").to_dict() for d in datasets]
        with AnonymizationService(config) as service:
            jobs = [None] * len(datasets)

            def submit(index):
                jobs[index] = service.submit(datasets[index], mode="batch")

            threads = [
                threading.Thread(target=submit, args=(i,)) for i in range(len(datasets))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            concurrent = [job.result(timeout=120).to_dict() for job in jobs]
        assert concurrent == sequential

    def test_submit_and_run_interleave_safely(self):
        dataset = quest(100)
        config = ServiceConfig(k=3, max_cluster_size=12, verify=False)
        with AnonymizationService(config) as service:
            job = service.submit(dataset, mode="batch")
            sync = service.run(dataset, mode="batch")
            assert job.result(timeout=60).to_dict() == sync.to_dict()

    def test_nonblocking_submit_raises_when_saturated(self):
        config = ROUTING_CONFIG.with_overrides(max_pending=1)
        service = AnonymizationService(config)
        gate = threading.Event()
        records = list(quest(30))

        def gated_records():
            # Holds the worker inside the first job until the gate opens,
            # so the queue state below is deterministic.
            gate.wait(timeout=60)
            yield from records

        try:
            first = service.submit(gated_records(), mode="batch")
            # A blocking submit waits for the worker to pick `first` up,
            # then occupies the single queue slot.
            second = service.submit(quest(30), mode="batch")
            with pytest.raises(ServiceSaturatedError):
                service.submit(quest(30), mode="batch", block=False)
            gate.set()
            assert first.result(timeout=120).mode == "batch"
            assert second.result(timeout=120).mode == "batch"
        finally:
            gate.set()
            if not service.closed:
                service.close()

    def test_caller_cancel_raises_cancellederror_not_shutdown(self):
        from concurrent.futures import CancelledError

        config = ROUTING_CONFIG.with_overrides(max_pending=4)
        service = AnonymizationService(config)
        gate = threading.Event()
        records = list(quest(30))

        def gated_records():
            gate.wait(timeout=60)
            yield from records

        try:
            first = service.submit(gated_records(), mode="batch")
            second = service.submit(quest(30), mode="batch")
            assert second.cancel()  # the caller's own cancellation
            gate.set()
            assert first.result(timeout=120).mode == "batch"
            with pytest.raises(CancelledError):
                second.result(timeout=10)
            with pytest.raises(CancelledError):
                second.exception(timeout=10)
        finally:
            gate.set()
            if not service.closed:
                service.close()

    def test_blocking_submit_with_timeout_raises_when_saturated(self):
        config = ROUTING_CONFIG.with_overrides(max_pending=1)
        service = AnonymizationService(config)
        gate = threading.Event()
        records = list(quest(30))

        def gated_records():
            gate.wait(timeout=60)
            yield from records

        try:
            first = service.submit(gated_records(), mode="batch")
            second = service.submit(quest(30), mode="batch")  # fills the slot
            with pytest.raises(ServiceSaturatedError):
                service.submit(quest(30), mode="batch", timeout=0.3)
            gate.set()
            first.result(timeout=120)
            second.result(timeout=120)
        finally:
            gate.set()
            if not service.closed:
                service.close()


# --------------------------------------------------------------------------- #
# lifecycle: engine and service close semantics
# --------------------------------------------------------------------------- #
class TestEngineLifecycle:
    def test_double_close_raises(self):
        engine = Disassociator()
        engine.close()
        with pytest.raises(EngineClosedError, match="twice"):
            engine.close()

    def test_anonymize_after_close_raises(self, paper_dataset):
        engine = Disassociator(AnonymizationParams(k=3, m=2, max_cluster_size=6))
        engine.close()
        with pytest.raises(EngineClosedError, match="closed engine"):
            engine.anonymize(paper_dataset)

    def test_engine_reusable_across_calls_without_close(self, paper_dataset):
        engine = Disassociator(AnonymizationParams(k=3, m=2, max_cluster_size=6))
        first = engine.anonymize(paper_dataset)
        second = engine.anonymize(paper_dataset)
        assert first.to_dict() == second.to_dict()
        assert not engine.closed

    def test_context_manager_tolerates_inner_close(self):
        with Disassociator() as engine:
            engine.close()
        assert engine.closed

    def test_context_manager_closes(self):
        with Disassociator() as engine:
            assert not engine.closed
        assert engine.closed
        with pytest.raises(EngineClosedError):
            engine.close()


class TestServiceLifecycle:
    def test_double_close_raises(self):
        service = AnonymizationService(ROUTING_CONFIG)
        service.close()
        with pytest.raises(ServiceClosedError, match="twice"):
            service.close()

    def test_run_and_submit_after_close_raise(self):
        service = AnonymizationService(ROUTING_CONFIG)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.run(quest(10))
        with pytest.raises(ServiceClosedError):
            service.submit(quest(10))

    def test_context_manager_tolerates_inner_close(self):
        with AnonymizationService(ROUTING_CONFIG) as service:
            service.close()
        assert service.closed

    def test_close_drains_in_flight_jobs(self):
        service = AnonymizationService(ROUTING_CONFIG)
        jobs = [service.submit(quest(80, seed=seed), mode="batch") for seed in range(3)]
        service.close(drain=True)
        for job in jobs:
            assert job.result(timeout=1).mode == "batch"

    def test_close_without_drain_cancels_pending_jobs(self):
        service = AnonymizationService(ROUTING_CONFIG)
        jobs = [service.submit(quest(200, seed=seed), mode="batch") for seed in range(4)]
        service.close(drain=False)
        outcomes = []
        for job in jobs:
            try:
                job.result(timeout=60)
                outcomes.append("done")
            except ServiceClosedError:
                outcomes.append("cancelled")
        # The worker may have started (and must then finish) a prefix of
        # the queue; everything behind it is cancelled, nothing hangs.
        assert "cancelled" in outcomes
        assert outcomes == sorted(outcomes, key=lambda o: o == "cancelled")

    def test_service_closes_its_engine(self):
        service = AnonymizationService(ROUTING_CONFIG)
        engine = service._engine
        service.close()
        assert engine.closed


# --------------------------------------------------------------------------- #
# one-shot CLI
# --------------------------------------------------------------------------- #
class TestCliEntryPoint:
    def test_cli_anonymize_matches_direct_engine(self, tmp_path):
        from repro.cli import main
        from repro.datasets.io import read_disassociated_json, write_transactions

        dataset = quest(120)
        data_path = tmp_path / "data.txt"
        out_path = tmp_path / "published.json"
        write_transactions(dataset, data_path)
        params = AnonymizationParams(k=3, m=2, max_cluster_size=12)
        expected = Disassociator(params).anonymize(dataset)
        code = main(
            [
                "anonymize",
                str(data_path),
                "--k", "3",
                "--m", "2",
                "--max-cluster-size", "12",
                "--output", str(out_path),
            ]
        )
        assert code == 0
        assert read_disassociated_json(out_path).to_dict() == expected.to_dict()


# --------------------------------------------------------------------------- #
# PublicationResult
# --------------------------------------------------------------------------- #
class TestPublicationResult:
    def test_to_dict_is_cached(self):
        with AnonymizationService(ROUTING_CONFIG) as service:
            result = service.run(quest(50))
        assert result.to_dict() is result.to_dict()

    def test_save_writes_loadable_json(self, tmp_path):
        from repro.datasets.io import read_disassociated_json

        with AnonymizationService(ROUTING_CONFIG) as service:
            result = service.run(quest(50))
        path = result.save(tmp_path / "published.json")
        assert read_disassociated_json(path).to_dict() == result.to_dict()

    def test_stream_result_reuses_its_spliced_text_and_digests(
        self, tmp_path, monkeypatch
    ):
        """A stream result sends the publication's spliced text as is and
        builds a publication store from the products' digests, a window at
        a time: neither encodes nor parses the whole publication."""
        import json

        from repro.core.clusters import DisassociatedDataset
        from repro.pubstore.schema import cluster_digests
        from repro.stream.executor import TextPublication

        with AnonymizationService(ROUTING_CONFIG) as service:
            result = service.run(quest(200), mode="stream")
        published = result.publication
        assert isinstance(published, TextPublication)
        expected = json.loads(published.text)

        def whole(*args):
            raise AssertionError("the whole publication was serialized")

        for owner in (DisassociatedDataset, TextPublication):
            monkeypatch.setattr(owner, "to_dict", whole)
        monkeypatch.setattr("repro.pubstore.schema.cluster_digests", whole)
        assert result.to_json() is published.text
        with result.save_store(tmp_path / "pub") as store:
            assert store.total_records == 200
        monkeypatch.undo()
        assert published.spliced
        assert published.digests == cluster_digests(expected)[0]
        assert result.to_dict() == expected

    def test_metrics_use_materialized_original(self):
        dataset = TransactionDataset(PAPER_RECORDS)
        with AnonymizationService(
            ServiceConfig(k=3, max_cluster_size=6)
        ) as service:
            result = service.run(dataset, mode="batch")
        metrics = result.metrics(top_k=20)
        assert set(metrics) == {"tkd_a", "tkd", "re_a", "re", "tlost"}
        assert result.metrics(top_k=20) is metrics  # cached

    def test_metrics_cache_is_keyed_by_original_identity(self):
        with AnonymizationService(ROUTING_CONFIG) as service:
            result = service.run(quest(60), mode="stream")
        first_original = quest(60)
        other_original = quest(60, seed=9)
        first = result.metrics(original=first_original, top_k=20)
        other = result.metrics(original=other_original, top_k=20)
        assert other is not first  # different original: recomputed, not stale
        assert result.metrics(original=other_original, top_k=20) is other

    def test_metrics_without_original_raise_for_streams(self):
        with AnonymizationService(ROUTING_CONFIG) as service:
            result = service.run(quest(60), mode="stream")
        with pytest.raises(ParameterError, match="original dataset"):
            result.metrics()

    def test_summary_matches_mode(self):
        with AnonymizationService(ROUTING_CONFIG) as service:
            batch = service.run(quest(50), mode="batch")
            stream = service.run(quest(50), mode="stream")
        assert "anonymized 50 records" in batch.summary()
        assert "sharded run" in stream.summary()
