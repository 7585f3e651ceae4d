"""The indexed publication store (``repro.pubstore``), end to end.

The store's whole contract is *bit-for-bit equivalence*: every query a
:class:`~repro.pubstore.PublicationStore` answers from its inverted
indexes must equal -- same ints, same floats, same orderings -- what the
in-memory ``analysis``/``metrics`` code paths compute over the live
publication.  This suite pins that down on all three paper-shaped
workloads, then covers the persistence contract (faithful reload,
atomic rebuild, generation sync with the incremental shard store),
fault/deadline behavior at the ``pubstore.*`` injection points, and the
three front doors (``AnonymizationService.query``, HTTP ``/query``,
``repro query``).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sqlite3
import sys
import threading
import time
import urllib.error
import urllib.request
from itertools import combinations

import pytest

from repro import faults
from repro.analysis import SupportEstimator, queries
from repro.core import deadline as deadline_mod
from repro.core.clusters import DisassociatedDataset
from repro.core.engine import AnonymizationParams, Disassociator
from repro.exceptions import (
    DeadlineExceededError,
    FaultInjected,
    ParameterError,
    StoreError,
)
from repro.metrics.relative_error import (
    relative_error_chunks,
    relative_error_reconstructed,
)
from repro.pubstore import (
    PUBSTORE_VERSION,
    PublicationStore,
    QUERY_OPS,
    QueryEngine,
    StoreSupportEstimator,
    publication_fingerprint,
)
from repro.service import AnonymizationService, ServiceConfig
from repro.service.http import ServiceHTTPServer
from repro.stream import IncrementalPipeline, ShardStore, StreamParams, run_fingerprint
from tests.conftest import WORKLOAD_NAMES, make_workload

PARAMS = AnonymizationParams(k=3, m=2, max_cluster_size=12)

#: Workload shapes kept small enough for the full parity matrix to stay fast.
WORKLOADS = {
    "quest": dict(records=400, domain=90, avg_len=6.0, seed=17),
    "zipf": dict(records=300, domain=80, avg_len=5.0, seed=17),
    "clickstream": dict(records=300, domain=110, avg_len=5.0, seed=17, sections=6),
}


@pytest.fixture(scope="module")
def workload_stores(tmp_path_factory):
    """Per workload: ``(original, published, open store)``; closed at teardown."""
    assert tuple(WORKLOADS) == WORKLOAD_NAMES
    base = tmp_path_factory.mktemp("pubstores")
    built = {}
    for name, spec in WORKLOADS.items():
        original = make_workload(name, **spec)
        published = Disassociator(PARAMS).anonymize(original)
        store = PublicationStore.from_publication(published, base / name)
        built[name] = (original, published, store)
    yield built
    for _, _, store in built.values():
        store.close()


def _probe_itemsets(published, seed: int, count: int = 40) -> list:
    """Sampled 1-3 term probes over the published domain, plus misses."""
    terms = sorted(published.chunk_dataset().term_supports())
    rng = random.Random(seed)
    probes = [[rng.choice(terms)] for _ in range(count // 4)]
    probes += [rng.sample(terms, 2) for _ in range(count // 2)]
    probes += [rng.sample(terms, 3) for _ in range(count // 4)]
    probes.append([terms[0], "never-published-term"])
    probes.append(["never-published-term"])
    return probes


# --------------------------------------------------------------------------- #
# faithful persistence
# --------------------------------------------------------------------------- #
class TestRoundTrip:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_reload_is_bit_for_bit_identical(self, workload_stores, name):
        _, published, store = workload_stores[name]
        assert store.load_publication().to_dict() == published.to_dict()

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_fingerprint_verifies_the_source_publication(self, workload_stores, name):
        _, published, store = workload_stores[name]
        assert store.verify_against(published)
        other = workload_stores["quest" if name != "quest" else "zipf"][1]
        assert not store.verify_against(other)

    def test_describe_reports_identity_and_totals(self, workload_stores):
        _, published, store = workload_stores["quest"]
        info = store.describe()
        assert info["version"] == PUBSTORE_VERSION
        assert info["k"] == PARAMS.k and info["m"] == PARAMS.m
        assert info["total_records"] == published.total_records()
        assert info["chunk_rows"] == len(published.chunk_dataset())
        assert info["fingerprint"] == publication_fingerprint(published.to_dict())

    def test_reopen_readonly_sees_the_same_snapshot(self, workload_stores, tmp_path):
        _, published, store = workload_stores["quest"]
        with PublicationStore(store.directory) as reopened:
            assert reopened.describe() == store.describe()
            assert reopened.top_terms(5) == store.top_terms(5)

    def test_rebuild_replaces_the_snapshot_atomically(self, tmp_path):
        first = Disassociator(PARAMS).anonymize(
            make_workload("quest", records=150, domain=40, avg_len=4.0, seed=1)
        )
        second = Disassociator(PARAMS).anonymize(
            make_workload("quest", records=150, domain=40, avg_len=4.0, seed=2)
        )
        with PublicationStore.from_publication(first, tmp_path / "s") as store:
            store.build(second, generation=1)
            assert store.load_publication().to_dict() == second.to_dict()
            assert store.generation == 1


# --------------------------------------------------------------------------- #
# query parity: indexed answers == in-memory oracle answers
# --------------------------------------------------------------------------- #
class TestQueryParity:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_top_terms(self, workload_stores, name):
        _, published, store = workload_stores[name]
        dataset = published.chunk_dataset()
        for count in (1, 5, 25, 10_000):
            assert store.top_terms(count) == queries.top_terms(dataset, count)

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_itemset_supports_and_bounds(self, workload_stores, name):
        _, published, store = workload_stores[name]
        dataset = published.chunk_dataset()
        estimator = SupportEstimator(published)
        for probe in _probe_itemsets(published, seed=5):
            assert store.support(probe) == dataset.support(probe), probe
            assert store.lower_bound_support(probe) == estimator.lower_bound(
                probe
            ), probe

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_pair_supports_match_postings_and_oracle(self, workload_stores, name):
        """2-term supports read ``pair_stats``; they must equal the posting
        intersection and the in-memory oracle, in either term order."""
        _, published, store = workload_stores[name]
        dataset = published.chunk_dataset()
        indexed, memory = QueryEngine(store), QueryEngine(published)
        terms = sorted(dataset.term_supports())
        together = {
            pair for row in dataset.records for pair in combinations(sorted(row), 2)
        }
        rng = random.Random(13)
        cooccurring = rng.sample(sorted(together), 25)
        absent = [
            pair for pair in combinations(terms[:40], 2) if pair not in together
        ][:10]
        unknown = [(terms[0], "never-published-term"), ("zz-unknown", terms[-1])]
        assert len(cooccurring) == 25 and absent
        for a, b in cooccurring + absent + unknown:
            for pair in ([a, b], [b, a]):
                expected = dataset.support(pair)
                assert store.support(pair) == expected, pair
                assert store.intersection_support(pair) == expected, pair
                assert indexed.cooccurrence_count(pair) == memory.cooccurrence_count(
                    pair
                ) == expected, pair
                assert indexed.lower_bound(pair) == memory.lower_bound(pair), pair
        assert all(dataset.support(pair) > 0 for pair in cooccurring)
        assert all(dataset.support(pair) == 0 for pair in absent + unknown)

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_expected_support_is_float_exact(self, workload_stores, name):
        _, published, store = workload_stores[name]
        oracle = SupportEstimator(published)
        indexed = StoreSupportEstimator(store)
        for probe in _probe_itemsets(published, seed=6):
            assert indexed.expected_support(probe) == oracle.expected_support(
                probe
            ), probe

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_frequent_pairs(self, workload_stores, name):
        _, published, store = workload_stores[name]
        engine = QueryEngine(store)
        dataset = published.chunk_dataset()
        for min_support in (1, 3, 10, 10_000):
            assert engine.frequent_pairs(min_support) == queries.frequent_pairs(
                dataset, min_support
            )

    def test_rule_confidence_including_undefined(self, workload_stores):
        _, published, store = workload_stores["quest"]
        engine = QueryEngine(store)
        dataset = published.chunk_dataset()
        for probe in _probe_itemsets(published, seed=7, count=12):
            antecedent, consequent = probe[:1], probe[1:] or [probe[0]]
            assert engine.rule_confidence(
                antecedent, consequent
            ) == queries.rule_confidence(dataset, antecedent, consequent)
        assert engine.rule_confidence(["never-published-term"], ["x"]) is None

    def test_empty_itemset_edges(self, workload_stores):
        _, published, store = workload_stores["quest"]
        # The two empty-itemset conventions differ and both must survive:
        # chunk-dataset support counts term-chunk singleton rows too, the
        # estimator's lower bound counts published sub-records only.
        assert store.support([]) == len(published.chunk_dataset())
        assert store.lower_bound_support([]) == SupportEstimator(
            published
        ).lower_bound([])
        assert StoreSupportEstimator(store).expected_support([]) == float(
            published.total_records()
        )

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_engine_backends_are_interchangeable(self, workload_stores, name):
        _, published, store = workload_stores[name]
        indexed, memory = QueryEngine(store), QueryEngine(published)
        assert indexed.backend == "store" and memory.backend == "memory"
        probes = _probe_itemsets(published, seed=8, count=16)
        assert indexed.top_terms(10) == memory.top_terms(10)
        for probe in probes:
            assert indexed.cooccurrence_count(probe) == memory.cooccurrence_count(
                probe
            )
            assert indexed.containment_ratio(probe) == memory.containment_ratio(probe)
            assert indexed.lower_bound(probe) == memory.lower_bound(probe)
            assert indexed.expected_support(probe) == memory.expected_support(probe)

    def test_analysis_helpers_accept_an_engine(self, workload_stores):
        _, published, store = workload_stores["zipf"]
        engine = QueryEngine(store)
        dataset = published.chunk_dataset()
        assert queries.top_terms(engine, 8) == queries.top_terms(dataset, 8)
        probe = queries.top_terms(dataset, 2)
        terms = [term for term, _ in probe]
        assert queries.cooccurrence_count(engine, terms) == queries.cooccurrence_count(
            dataset, terms
        )
        assert queries.containment_ratio(engine, terms) == queries.containment_ratio(
            dataset, terms
        )
        assert queries.frequent_pairs(engine, 2) == queries.frequent_pairs(dataset, 2)

    def test_relative_error_metrics_accept_engine_and_store(self, workload_stores):
        original, published, store = workload_stores["zipf"]
        engine = QueryEngine(store)
        expected = relative_error_chunks(original, published)
        assert relative_error_chunks(original, engine) == expected
        assert relative_error_chunks(original, store) == expected
        expected = relative_error_reconstructed(
            original, published, reconstructions=2, seed=9
        )
        assert (
            relative_error_reconstructed(original, engine, reconstructions=2, seed=9)
            == expected
        )
        assert (
            relative_error_reconstructed(original, store, reconstructions=2, seed=9)
            == expected
        )


# --------------------------------------------------------------------------- #
# reconstruction-based estimates: seeding and backend parity
# --------------------------------------------------------------------------- #
class TestReconstructedSupport:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_same_seed_same_estimate(self, workload_stores, name):
        _, published, store = workload_stores[name]
        probe = [queries.top_terms(published.chunk_dataset(), 1)[0][0]]
        first = QueryEngine(store, seed=11).reconstructed_support(
            probe, reconstructions=3
        )
        second = QueryEngine(store, seed=11).reconstructed_support(
            probe, reconstructions=3
        )
        assert first == second

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_store_matches_in_memory_per_seed(self, workload_stores, name):
        _, published, store = workload_stores[name]
        probe = [queries.top_terms(published.chunk_dataset(), 1)[0][0]]
        for seed in (0, 11):
            indexed = QueryEngine(store, seed=seed).reconstructed_support(
                probe, reconstructions=2
            )
            memory = QueryEngine(published, seed=seed).reconstructed_support(
                probe, reconstructions=2
            )
            oracle = SupportEstimator(published, seed=seed).reconstructed_support(
                probe, reconstructions=2
            )
            assert indexed == memory == oracle

    def test_call_seed_overrides_engine_seed(self, workload_stores):
        _, published, store = workload_stores["quest"]
        probe = [queries.top_terms(published.chunk_dataset(), 1)[0][0]]
        overridden = QueryEngine(store, seed=1).reconstructed_support(
            probe, reconstructions=2, seed=11
        )
        direct = QueryEngine(store, seed=11).reconstructed_support(
            probe, reconstructions=2
        )
        assert overridden == direct


# --------------------------------------------------------------------------- #
# execute(): the validated dispatch shared by HTTP and the CLI
# --------------------------------------------------------------------------- #
class TestExecuteDispatch:
    def test_every_op_answers_identically_on_both_backends(self, workload_stores):
        _, published, store = workload_stores["quest"]
        indexed, memory = QueryEngine(store, seed=3), QueryEngine(published, seed=3)
        terms = [queries.top_terms(published.chunk_dataset(), 2)[0][0]]
        params_by_op = {
            "describe": {},
            "top_terms": {"count": 5},
            "cooccurrence_count": {"terms": terms},
            "containment_ratio": {"terms": terms},
            "rule_confidence": {"antecedent": terms, "consequent": terms},
            "frequent_pairs": {"min_support": 3},
            "lower_bound": {"terms": terms},
            "expected_support": {"terms": terms},
            "reconstructed_support": {"terms": terms, "reconstructions": 2},
        }
        assert set(params_by_op) == set(QUERY_OPS)
        for op, params in params_by_op.items():
            a, b = indexed.execute(op, params), memory.execute(op, params)
            assert a["op"] == b["op"] == op
            assert (a["backend"], b["backend"]) == ("store", "memory")
            if op != "describe":  # describe legitimately reports the backend
                assert a["result"] == b["result"], op
            json.dumps(a)  # every envelope must be JSON-safe

    def test_unknown_op_and_params_are_parameter_errors(self, workload_stores):
        _, _, store = workload_stores["quest"]
        engine = QueryEngine(store)
        with pytest.raises(ParameterError):
            engine.execute("nope")
        with pytest.raises(ParameterError):
            engine.execute("top_terms", {"bogus": 1})
        with pytest.raises(ParameterError):
            engine.execute("cooccurrence_count")  # missing required terms
        with pytest.raises(ParameterError):
            engine.execute("cooccurrence_count", {"terms": "not-a-list"})
        with pytest.raises(ParameterError):
            engine.execute("top_terms", {"count": "abc"})
        with pytest.raises(ParameterError):
            QueryEngine("not a publication")


# --------------------------------------------------------------------------- #
# lifecycle refusals
# --------------------------------------------------------------------------- #
class TestLifecycle:
    def test_unbuilt_store_refuses_queries(self, tmp_path):
        with PublicationStore(tmp_path / "empty") as store:
            assert not store.initialized
            with pytest.raises(StoreError):
                store.validate()
            with pytest.raises(StoreError):
                store.top_terms(3)
            with pytest.raises(StoreError):
                QueryEngine(store)

    def test_reader_creates_nothing_and_refuses_non_stores(self, tmp_path):
        with pytest.raises(StoreError, match="holds no publication"):
            PublicationStore.reader(tmp_path / "absent")
        assert not (tmp_path / "absent").exists()
        (tmp_path / "empty").mkdir()
        (tmp_path / "empty" / "publication.sqlite").touch()
        with PublicationStore.reader(tmp_path / "empty") as store:
            with pytest.raises(StoreError, match="no such table"):
                QueryEngine(store)
        assert os.listdir(tmp_path / "empty") == ["publication.sqlite"]
        (tmp_path / "empty" / "publication.sqlite").write_bytes(b"not sqlite" * 200)
        with PublicationStore.reader(tmp_path / "empty") as store:
            with pytest.raises(StoreError, match="not a database"):
                store.top_terms(3)
        with pytest.raises(ParameterError, match="writer lock"):
            PublicationStore(tmp_path / "empty", exclusive=True, create=False)

    def test_version_mismatch_is_refused(self, tmp_path):
        published = Disassociator(PARAMS).anonymize(
            make_workload("quest", records=120, domain=30, avg_len=4.0, seed=4)
        )
        PublicationStore.from_publication(published, tmp_path / "s").close()
        db = sqlite3.connect(tmp_path / "s" / "publication.sqlite")
        db.execute("UPDATE meta SET value = '999' WHERE key = 'version'")
        db.commit()
        db.close()
        with PublicationStore(tmp_path / "s") as store:
            with pytest.raises(StoreError, match="version"):
                store.validate()

    def test_exclusive_opens_serialize(self, tmp_path):
        holder = PublicationStore(tmp_path / "s", exclusive=True)
        try:
            with pytest.raises(StoreError, match="lock"):
                PublicationStore(tmp_path / "s", exclusive=True, lock_timeout=0.2)
        finally:
            holder.close()
        # released: the next exclusive open succeeds immediately
        PublicationStore(tmp_path / "s", exclusive=True, lock_timeout=0.2).close()


# --------------------------------------------------------------------------- #
# faults and deadlines (the resilience contract)
# --------------------------------------------------------------------------- #
class TestFaultsAndDeadlines:
    def _publication(self):
        return Disassociator(PARAMS).anonymize(
            make_workload("quest", records=150, domain=40, avg_len=4.0, seed=5)
        )

    def test_open_honors_the_fault_point(self, tmp_path):
        with faults.active(faults.FaultPlan.from_text("pubstore.open:1")):
            with pytest.raises(FaultInjected):
                PublicationStore(tmp_path / "s")
        with faults.active(faults.FaultPlan.from_text("pubstore.open:1")):
            with pytest.raises(FaultInjected):
                PublicationStore.reader(tmp_path / "s")

    def test_crash_before_build_leaves_store_unbuilt_then_rebuild(self, tmp_path):
        published = self._publication()
        with faults.active(faults.FaultPlan.from_text("pubstore.build:1")):
            with pytest.raises(FaultInjected):
                PublicationStore.from_publication(published, tmp_path / "s")
        with PublicationStore(tmp_path / "s") as store:
            assert not store.initialized
        # recovery is simply running the build again, same inputs
        with PublicationStore.from_publication(published, tmp_path / "s") as store:
            assert store.load_publication().to_dict() == published.to_dict()

    def test_crash_mid_build_rolls_back_to_previous_snapshot(self, tmp_path):
        first = self._publication()
        other = Disassociator(PARAMS).anonymize(
            make_workload("quest", records=150, domain=40, avg_len=4.0, seed=6)
        )
        # Shares most top-level clusters with ``first``: a partial refresh.
        second = DisassociatedDataset(
            first.clusters[3:] + other.clusters[:4], k=first.k, m=first.m
        )
        with PublicationStore.from_publication(first, tmp_path / "s", generation=1) as store:
            before = store.describe()
            # hit 2 fires *inside* the refresh transaction, just before
            # its COMMIT: vanished clusters deleted, new ones inserted.
            with faults.active(faults.FaultPlan.from_text("pubstore.build:2")):
                with pytest.raises(FaultInjected):
                    store.build(second, generation=9)
            assert store.describe() == before
            assert store.generation == 1
            assert store.load_publication().to_dict() == first.to_dict()
            # and the interrupted refresh completes cleanly when re-run
            stats = store.build(second, generation=9)
            assert stats.tops_kept == len(first.clusters) - 3
            assert stats.tops_written == 4
            assert store.load_publication().to_dict() == second.to_dict()

    def test_query_honors_the_fault_point(self, tmp_path):
        with PublicationStore.from_publication(
            self._publication(), tmp_path / "s"
        ) as store:
            engine = QueryEngine(store)
            with faults.active(faults.FaultPlan.from_text("pubstore.query:1")):
                with pytest.raises(FaultInjected):
                    engine.top_terms(3)

    @pytest.mark.parametrize("point", ["pubstore.open", "pubstore.build", "pubstore.query"])
    def test_points_are_registered(self, point):
        assert point in faults.INJECTION_POINTS

    def test_expired_deadline_aborts_open_build_and_query(self, tmp_path):
        published = self._publication()
        expired = deadline_mod.Deadline(1e-9, anchor=time.monotonic() - 1.0)
        with deadline_mod.scope(expired):
            with pytest.raises(DeadlineExceededError):
                PublicationStore(tmp_path / "s")
        with PublicationStore(tmp_path / "s") as store:
            with deadline_mod.scope(expired):
                with pytest.raises(DeadlineExceededError):
                    store.build(published)
            store.build(published)
            engine = QueryEngine(store)
            with deadline_mod.scope(expired):
                with pytest.raises(DeadlineExceededError):
                    engine.top_terms(3)


# --------------------------------------------------------------------------- #
# incremental refresh: the pubstore tracks the shard store generation
# --------------------------------------------------------------------------- #
class TestDeltaRefresh:
    RECORDS = [
        frozenset({f"a{i % 7}", f"b{i % 5}", f"c{i % 11}"}) for i in range(140)
    ]

    def _pipeline(self, tmp_path, **overrides):
        values = dict(
            shards=3,
            max_records_in_memory=100,
            store_dir=tmp_path / "shards",
            pubstore_dir=tmp_path / "pub",
        )
        values.update(overrides)
        return IncrementalPipeline(PARAMS, StreamParams(**values))

    def _generations(self, tmp_path):
        with ShardStore(tmp_path / "shards") as shards:
            shard_generation = shards.generation
        with PublicationStore(tmp_path / "pub") as pub:
            return shard_generation, pub.generation, pub.initialized

    def test_delta_publish_refreshes_the_store_in_lockstep(self, tmp_path):
        pipeline = self._pipeline(tmp_path)
        published = pipeline.run(append=self.RECORDS[:100])
        assert pipeline.last_report.pubstore_refreshed
        assert pipeline.last_report.pubstore_seconds > 0.0
        shard_gen, pub_gen, built = self._generations(tmp_path)
        assert built and pub_gen == shard_gen
        with PublicationStore(tmp_path / "pub") as pub:
            assert pub.load_publication().to_dict() == published.to_dict()

        mutated = pipeline.run(append=self.RECORDS[100:], delete=self.RECORDS[:5])
        assert pipeline.last_report.pubstore_refreshed
        shard_gen, pub_gen, _ = self._generations(tmp_path)
        assert pub_gen == shard_gen
        with PublicationStore(tmp_path / "pub") as pub:
            assert pub.load_publication().to_dict() == mutated.to_dict()
            engine = QueryEngine(pub)
            oracle = mutated.chunk_dataset()
            assert engine.top_terms(10) == queries.top_terms(oracle, 10)

    def test_noop_delta_skips_an_up_to_date_store(self, tmp_path):
        pipeline = self._pipeline(tmp_path)
        pipeline.run(append=self.RECORDS[:80])
        pipeline.run()  # no-op fast path, store already in sync
        assert not pipeline.last_report.pubstore_refreshed

    def test_noop_delta_heals_a_lagging_store(self, tmp_path):
        pipeline = self._pipeline(tmp_path)
        published = pipeline.run(append=self.RECORDS[:80])
        # simulate a crash between publication commit and pubstore
        # refresh: the pubstore vanishes (worst-case lag)
        (tmp_path / "pub" / "publication.sqlite").unlink()
        pipeline.run()
        assert pipeline.last_report.pubstore_refreshed
        shard_gen, pub_gen, built = self._generations(tmp_path)
        assert built and pub_gen == shard_gen
        with PublicationStore(tmp_path / "pub") as pub:
            assert pub.load_publication().to_dict() == published.to_dict()

    def test_crash_during_refresh_recovers_on_the_next_run(self, tmp_path):
        pipeline = self._pipeline(tmp_path)
        # the delta itself commits, then the pubstore build dies
        with faults.active(faults.FaultPlan.from_text("pubstore.build:1")):
            with pytest.raises(FaultInjected):
                pipeline.run(append=self.RECORDS[:80])
        with ShardStore(tmp_path / "shards") as shards:
            committed = shards.generation
        assert committed >= 1  # the publication is durable...
        with PublicationStore(tmp_path / "pub") as pub:
            assert not pub.initialized  # ...but the pubstore lags
        published = pipeline.run()  # reconcile-only run heals it
        assert pipeline.last_report.pubstore_refreshed
        shard_gen, pub_gen, built = self._generations(tmp_path)
        assert built and pub_gen == shard_gen
        with PublicationStore(tmp_path / "pub") as pub:
            assert pub.load_publication().to_dict() == published.to_dict()

    def test_pubstore_dir_is_not_part_of_the_run_identity(self, tmp_path):
        with_pubstore = StreamParams(
            shards=3,
            max_records_in_memory=100,
            store_dir=tmp_path / "shards",
            pubstore_dir=tmp_path / "pub",
        )
        without = StreamParams(
            shards=3, max_records_in_memory=100, store_dir=tmp_path / "shards"
        )
        assert run_fingerprint(PARAMS, with_pubstore) == run_fingerprint(
            PARAMS, without
        )


# --------------------------------------------------------------------------- #
# the service facade and the HTTP front door
# --------------------------------------------------------------------------- #
class TestServiceQuery:
    @pytest.fixture()
    def service_store(self, tmp_path):
        original = make_workload("quest", records=200, domain=50, avg_len=4.0, seed=8)
        config = ServiceConfig(
            k=3, m=2, max_cluster_size=12, pubstore_dir=str(tmp_path / "pub")
        )
        with AnonymizationService(config) as service:
            result = service.run(original, mode="batch")
            result.save_store(tmp_path / "pub").close()
            yield service, result.publication

    def test_query_answers_match_the_in_memory_oracle(self, service_store):
        service, published = service_store
        answer = service.query("top_terms", {"count": 5})
        assert answer["backend"] == "store"
        assert answer["result"] == [
            [term, support]
            for term, support in queries.top_terms(published.chunk_dataset(), 5)
        ]

    def test_query_without_pubstore_dir_is_a_parameter_error(self):
        with AnonymizationService(ServiceConfig(k=3, m=2)) as service:
            with pytest.raises(ParameterError, match="pubstore_dir"):
                service.query("top_terms")

    def test_query_against_unbuilt_store_is_a_store_error(self, tmp_path):
        config = ServiceConfig(k=3, m=2, pubstore_dir=str(tmp_path / "missing"))
        with AnonymizationService(config) as service:
            with pytest.raises(StoreError, match="holds no publication"):
                service.query("top_terms")
        assert not (tmp_path / "missing").exists()  # reads create nothing

    def test_queries_show_up_in_stats(self, service_store):
        service, _ = service_store
        before = service.stats()["queries"]["served"]
        service.query("describe")
        after = service.stats()
        assert after["queries"]["served"] == before + 1
        assert after["latency"]["query_seconds"]["count"] >= before + 1

    # -- the read-handle pool ------------------------------------------- #
    @staticmethod
    def _pooled(service) -> list:
        """The service's idle read handles, most recently returned last."""
        return list(service._readers.queue)

    @staticmethod
    def _hold(monkeypatch, parties: int) -> None:
        """Make ``top_terms`` queries wait until ``parties`` run at once."""
        barrier = threading.Barrier(parties, timeout=60)
        top_terms = PublicationStore.top_terms

        def held(store, count=10):
            barrier.wait()
            return top_terms(store, count)

        monkeypatch.setattr(PublicationStore, "top_terms", held)

    @staticmethod
    def _in_parallel(target, threads: int) -> None:
        workers = [threading.Thread(target=target, args=(i,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert not any(worker.is_alive() for worker in workers)

    def test_refresh_between_queries_is_seen_on_the_pooled_handle(self, tmp_path):
        records = list(make_workload("quest", records=160, domain=30, avg_len=4.0, seed=12))
        pipeline = IncrementalPipeline(
            PARAMS,
            StreamParams(
                shards=2,
                max_records_in_memory=40,
                store_dir=tmp_path / "shards",
                pubstore_dir=tmp_path / "pub",
            ),
        )
        first = pipeline.run(append=records[:120])
        config = ServiceConfig(k=3, m=2, pubstore_dir=str(tmp_path / "pub"))
        with AnonymizationService(config) as service:
            assert service.query("top_terms", {"count": 100})["result"] == (
                QueryEngine(first).execute("top_terms", {"count": 100})["result"]
            )
            (handle,) = self._pooled(service)
            second = pipeline.run(append=records[120:], delete=records[:15])
            oracle = QueryEngine(second)
            pair = [term for term, _ in oracle.top_terms(2)]
            for op, params in [
                ("describe", {}),
                ("top_terms", {"count": 100}),
                ("cooccurrence_count", {"terms": pair}),
                ("lower_bound", {"terms": pair}),
                ("frequent_pairs", {"min_support": 2}),
            ]:
                answer = service.query(op, params)["result"]
                if op == "describe":
                    assert answer["total_records"] == second.total_records() == 145
                else:
                    assert answer == oracle.execute(op, params)["result"], op
            assert self._pooled(service) == [handle]

    def test_concurrent_queries_answer_correctly_within_peak_handles(
        self, service_store, monkeypatch
    ):
        service, published = service_store
        oracle = QueryEngine(published)
        terms = [term for term, _ in oracle.top_terms(6)]
        probes = [terms[i : i + width] for width in (1, 2, 3) for i in range(4)]
        in_flight, peak, lock = [0], [0], threading.Lock()
        checkout, give_back = service._checkout_reader, service._return_reader

        def counted_checkout():
            store = checkout()
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            return store

        def counted_return(store, failed):
            with lock:
                in_flight[0] -= 1
            give_back(store, failed)

        opens, open_reader = [], PublicationStore.reader.__func__

        def counted_reader(cls, store_dir):
            opens.append(store_dir)
            return open_reader(cls, store_dir)

        monkeypatch.setattr(service, "_checkout_reader", counted_checkout)
        monkeypatch.setattr(service, "_return_reader", counted_return)
        monkeypatch.setattr(PublicationStore, "reader", classmethod(counted_reader))
        self._hold(monkeypatch, 8)  # the first query of every thread overlaps
        failures = []

        def reader(index):
            try:
                answer = service.query("top_terms", {"count": 5})["result"]
                assert answer == [list(row) for row in oracle.top_terms(5)]
                for probe in probes * 3:
                    for op in ("cooccurrence_count", "lower_bound"):
                        got = service.query(op, {"terms": probe})["result"]
                        assert got == oracle.execute(op, {"terms": probe})["result"]
            except Exception as exc:  # pragma: no cover - the failure mode
                failures.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave checkouts and returns finely
        try:
            self._in_parallel(reader, 8)
        finally:
            sys.setswitchinterval(switch)
        assert not failures
        # One handle per query that ever ran at once, each opened once.
        assert peak[0] == 8
        assert len(opens) == len(self._pooled(service)) == peak[0]

    def test_close_closes_every_pooled_handle(self, tmp_path, monkeypatch):
        published = Disassociator(PARAMS).anonymize(
            make_workload("quest", records=150, domain=40, avg_len=4.0, seed=5)
        )
        PublicationStore.from_publication(published, tmp_path / "pub").close()
        service = AnonymizationService(
            ServiceConfig(k=3, m=2, pubstore_dir=str(tmp_path / "pub"))
        )
        self._hold(monkeypatch, 4)
        self._in_parallel(lambda _: service.query("top_terms", {"count": 3}), 4)
        monkeypatch.undo()
        handles = self._pooled(service)
        assert len(handles) == 4
        # One more query is still running when the service closes.
        entered, release = threading.Event(), threading.Event()
        top_terms, running = PublicationStore.top_terms, []

        def slow(store, count=10):
            running.append(store)
            entered.set()
            release.wait(timeout=60)
            return top_terms(store, count)

        monkeypatch.setattr(PublicationStore, "top_terms", slow)
        late = threading.Thread(target=service.query, args=("top_terms",))
        late.start()
        assert entered.wait(timeout=60)
        service.close()
        release.set()
        late.join(timeout=60)
        assert not late.is_alive()
        for handle in handles + running:
            with pytest.raises(sqlite3.ProgrammingError):
                handle._db.execute("SELECT 1")
        assert self._pooled(service) == []

    def test_replaced_store_directory_is_reopened(self, tmp_path):
        first, second = (
            Disassociator(PARAMS).anonymize(
                make_workload("quest", records=150, domain=40, avg_len=4.0, seed=seed)
            )
            for seed in (1, 2)
        )
        pub = tmp_path / "pub"
        PublicationStore.from_publication(first, pub).close()
        expected = {
            name: QueryEngine(published).execute("top_terms", {"count": 100})["result"]
            for name, published in (("first", first), ("second", second))
        }
        assert expected["first"] != expected["second"]
        config = ServiceConfig(k=3, m=2, pubstore_dir=str(pub))
        with AnonymizationService(config) as service:
            assert service.query("top_terms", {"count": 100})["result"] == expected["first"]
            (stale,) = self._pooled(service)
            old_inode = os.stat(pub / "publication.sqlite").st_ino
            shutil.rmtree(pub)
            PublicationStore.from_publication(second, pub).close()
            assert os.stat(pub / "publication.sqlite").st_ino != old_inode
            assert service.query("top_terms", {"count": 100})["result"] == expected["second"]
            assert stale not in self._pooled(service)
            shutil.rmtree(pub)
            with pytest.raises(StoreError, match="holds no publication"):
                service.query("top_terms")
            assert not pub.exists()
            assert self._pooled(service) == []

    @pytest.mark.parametrize(
        "error",
        [sqlite3.OperationalError("disk I/O error"), StoreError("unreadable")],
        ids=["sqlite", "store"],
    )
    def test_a_handle_whose_query_raised_is_not_pooled(
        self, service_store, monkeypatch, error
    ):
        service, published = service_store
        service.query("describe")
        (handle,) = self._pooled(service)
        with pytest.raises(ParameterError):  # refused before any store read
            service.query("nope")
        assert self._pooled(service) == [handle]

        def broken(store, count=10):
            raise error

        monkeypatch.setattr(PublicationStore, "top_terms", broken)
        with pytest.raises(type(error)):
            service.query("top_terms", {"count": 3})
        assert self._pooled(service) == []
        with pytest.raises(sqlite3.ProgrammingError):
            handle._db.execute("SELECT 1")
        monkeypatch.undo()
        answer = service.query("top_terms", {"count": 3})["result"]
        assert answer == [list(row) for row in QueryEngine(published).top_terms(3)]
        (fresh,) = self._pooled(service)
        assert fresh is not handle


class TestHttpQuery:
    @pytest.fixture()
    def server(self, tmp_path):
        original = make_workload("quest", records=200, domain=50, avg_len=4.0, seed=8)
        config = ServiceConfig(
            k=3, m=2, max_cluster_size=12, pubstore_dir=str(tmp_path / "pub")
        )
        service = AnonymizationService(config)
        service.run(original, mode="batch").save_store(tmp_path / "pub").close()
        server = ServiceHTTPServer(service, port=0).start()
        yield server
        server.close()

    @staticmethod
    def _get(url):
        try:
            with urllib.request.urlopen(url) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    @staticmethod
    def _post(url, body):
        request = urllib.request.Request(
            url,
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_get_and_post_answer_identically(self, server):
        status, via_get = self._get(server.url + "/query?op=top_terms&count=5")
        assert status == 200
        status, via_post = self._post(
            server.url + "/query", {"op": "top_terms", "count": 5}
        )
        assert status == 200
        assert via_get == via_post
        assert via_get["backend"] == "store"

    def test_get_repeats_term_parameters(self, server):
        status, body = self._get(
            server.url + "/query?op=cooccurrence_count&term=t1&term=t2"
        )
        assert status == 200 and isinstance(body["result"], int)
        status, body = self._get(
            server.url
            + "/query?op=rule_confidence&antecedent=t1&consequent=t2"
        )
        assert status == 200

    def test_error_kinds(self, server):
        for url, kind in [
            ("/query?op=nope", "bad_request"),
            ("/query?op=top_terms&count=abc", "bad_request"),
            ("/query?op=top_terms&bogus=1", "bad_request"),
            ("/query", "bad_request"),  # no op at all
        ]:
            status, body = self._get(server.url + url)
            assert status == 400 and body["kind"] == kind, (url, status, body)
        status, body = self._post(server.url + "/query", {"count": 5})
        assert status == 400 and body["kind"] == "bad_request"

    def test_unbuilt_store_maps_to_conflict(self, tmp_path):
        config = ServiceConfig(k=3, m=2, pubstore_dir=str(tmp_path / "missing"))
        server = ServiceHTTPServer(AnonymizationService(config), port=0).start()
        try:
            status, body = self._get(server.url + "/query?op=top_terms")
            assert status == 409 and body["kind"] == "checkpoint_conflict"
            assert "holds no publication" in body["error"]
            status, body = self._post(server.url + "/query", {"op": "top_terms"})
            assert status == 409 and body["kind"] == "checkpoint_conflict"
        finally:
            server.close()
        assert not (tmp_path / "missing").exists()  # reads create nothing

    def test_unconfigured_service_maps_to_bad_request(self):
        server = ServiceHTTPServer(
            AnonymizationService(ServiceConfig(k=3, m=2)), port=0
        ).start()
        try:
            status, body = self._get(server.url + "/query?op=top_terms")
            assert status == 400 and body["kind"] == "bad_request"
        finally:
            server.close()


# --------------------------------------------------------------------------- #
# the CLI front door
# --------------------------------------------------------------------------- #
class TestCliQuery:
    @pytest.fixture()
    def anonymized(self, tmp_path):
        from repro.cli import main
        from repro.datasets.io import write_transactions

        original = make_workload("quest", records=200, domain=50, avg_len=4.0, seed=8)
        data = tmp_path / "data.txt"
        write_transactions(original, data)
        rc = main(
            [
                "anonymize",
                str(data),
                "--k",
                "3",
                "--m",
                "2",
                "--max-cluster-size",
                "12",
                "--output",
                str(tmp_path / "pub.json"),
                "--pubstore-dir",
                str(tmp_path / "store"),
            ]
        )
        assert rc == 0
        return tmp_path

    def _run(self, capsys, argv) -> tuple:
        from repro.cli import main

        capsys.readouterr()
        rc = main(argv)
        return rc, capsys.readouterr().out

    def test_store_and_publication_sources_answer_identically(
        self, anonymized, capsys
    ):
        rc, via_store = self._run(
            capsys,
            ["query", "top_terms", "--store", str(anonymized / "store"), "--count", "5"],
        )
        assert rc == 0
        rc, via_json = self._run(
            capsys,
            [
                "query",
                "top_terms",
                "--publication",
                str(anonymized / "pub.json"),
                "--count",
                "5",
            ],
        )
        assert rc == 0
        store_payload, json_payload = json.loads(via_store), json.loads(via_json)
        assert store_payload["result"] == json_payload["result"]
        assert store_payload["backend"] == "store"
        assert json_payload["backend"] == "memory"

    def test_seeded_reconstruction_is_deterministic(self, anonymized, capsys):
        argv = [
            "query",
            "reconstructed_support",
            "--store",
            str(anonymized / "store"),
            "--terms",
            "t1",
            "--reconstructions",
            "2",
            "--seed",
            "11",
        ]
        rc1, first = self._run(capsys, argv)
        rc2, second = self._run(capsys, argv)
        assert rc1 == rc2 == 0 and first == second

    def test_exactly_one_source_is_required(self, anonymized, capsys):
        rc, _ = self._run(capsys, ["query", "top_terms"])
        assert rc == 2
        rc, _ = self._run(
            capsys,
            [
                "query",
                "top_terms",
                "--store",
                str(anonymized / "store"),
                "--publication",
                str(anonymized / "pub.json"),
            ],
        )
        assert rc == 2

    def test_store_error_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["query", "top_terms", "--store", str(tmp_path / "nothing")])
        assert rc == 2
        assert "holds no publication" in capsys.readouterr().err
        assert not (tmp_path / "nothing").exists()  # reads create nothing
