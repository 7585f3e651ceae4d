"""Incremental publication-store refreshes.

:meth:`PublicationStore.build` diffs a publication against the stored
snapshot by top-level cluster digest and rewrites only what changed.  Its
contract is that the result is indistinguishable from a fresh build of
the same publication: the faithful reload, every
:class:`~repro.pubstore.QueryEngine` answer (floats included) against the
in-memory oracle, and the ``term_stats``/``pair_stats`` aggregates keyed
by term strings.  This suite checks that contract after every step of
stateful append/delete sequences (window-shifting duplicate deletes,
vanishing terms and boundary-repair demotions included), then covers the
version-2 upgrade path and one-snapshot reads under concurrent refreshes.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import sqlite3
import tempfile
import threading
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import faults
from repro.core.clusters import DisassociatedDataset, RecordChunk, SimpleCluster
from repro.core.codec import cluster_from_payload, cluster_to_payload
from repro.core.engine import AnonymizationParams, Disassociator
from repro.exceptions import FaultInjected, StoreError
from repro.pubstore import PUBSTORE_VERSION, PublicationStore, QueryEngine, pubstore_path
from repro.pubstore import store as pubstore_store
from repro.pubstore.schema import _SCHEMA, cluster_digests, publication_fingerprint
from repro.service import AnonymizationService, ServiceConfig
from repro.service.http import ServiceHTTPServer
from repro.stream import IncrementalPipeline, StreamParams, executor
from repro.stream.executor import TextPublication
from repro.stream.store import STORE_NAME
from tests.conftest import make_workload

PARAMS = AnonymizationParams(k=3, m=2, max_cluster_size=12)

#: Term pool of the stateful sequences: few enough terms for duplicate
#: records and shared chunks, plus a rare tail that can vanish.
POOL = [f"p{i}" for i in range(14)] + [f"rare{i}" for i in range(6)]

#: A term no record carries; injected into a stored window to force a
#: boundary-repair demotion.
INJECTED = "zz-injected"


def _publication(seed: int, records: int = 150):
    return Disassociator(PARAMS).anonymize(
        make_workload("quest", records=records, domain=40, avg_len=4.0, seed=seed)
    )


def _aggregates(store_dir) -> tuple:
    """``term_stats`` and ``pair_stats`` keyed by term strings."""
    db = sqlite3.connect(pubstore_path(store_dir))
    try:
        names = dict(db.execute("SELECT id, term FROM terms"))
        terms = sorted(
            (names[tid], support, singletons, total)
            for tid, support, singletons, total in db.execute(
                "SELECT term, chunk_support, term_chunk_count, total FROM term_stats"
            )
        )
        pairs = sorted(
            (names[a], names[b], support)
            for a, b, support in db.execute("SELECT a, b, support FROM pair_stats")
        )
        positions = [pos for (pos,) in db.execute("SELECT pos FROM tops ORDER BY pos")]
        return terms, pairs, positions
    finally:
        db.close()


def _probes(published, seed: int) -> list:
    terms = sorted(published.chunk_dataset().term_supports())
    rng = random.Random(seed)
    probes = [[term] for term in terms]
    if len(terms) >= 3:
        probes += [rng.sample(terms, 2) for _ in range(20)]
        probes += [rng.sample(terms, 3) for _ in range(10)]
    probes.append(["never-published-term"])
    return probes


def assert_matches_fresh_build(store_dir, published, scratch) -> None:
    """A refreshed store answers exactly like a fresh build of ``published``."""
    fresh_dir = Path(scratch) / "fresh"
    shutil.rmtree(fresh_dir, ignore_errors=True)
    PublicationStore.from_publication(published, fresh_dir).close()
    refreshed_terms, refreshed_pairs, positions = _aggregates(store_dir)
    fresh_terms, fresh_pairs, _ = _aggregates(fresh_dir)
    assert refreshed_terms == fresh_terms
    assert refreshed_pairs == fresh_pairs
    assert positions == list(range(len(published.clusters)))
    with PublicationStore(store_dir) as store, store.read_transaction():
        assert store.load_publication().to_dict() == published.to_dict()
        assert store.verify_against(published)
        # A refresh adjusts pair_stats in place; 2-term supports read it.
        dataset = published.chunk_dataset()
        for a, b, _ in refreshed_pairs[:: max(1, len(refreshed_pairs) // 25)]:
            assert store.support([b, a]) == store.intersection_support([a, b]) == (
                dataset.support([a, b])
            ), (a, b)
        indexed, memory = QueryEngine(store, seed=5), QueryEngine(published, seed=5)
        described = indexed.describe()
        for key in ("k", "m", "total_records", "chunk_rows"):
            assert described[key] == memory.describe()[key], key
        assert indexed.top_terms(10_000) == memory.top_terms(10_000)
        for min_support in (1, 2, 4):
            assert indexed.frequent_pairs(min_support) == memory.frequent_pairs(
                min_support
            )
        for probe in _probes(published, seed=len(published.clusters)):
            assert indexed.cooccurrence_count(probe) == memory.cooccurrence_count(probe)
            assert indexed.containment_ratio(probe) == memory.containment_ratio(probe)
            assert indexed.lower_bound(probe) == memory.lower_bound(probe)
            assert indexed.expected_support(probe) == memory.expected_support(probe)
            assert indexed.rule_confidence(probe[:1], probe[1:]) == (
                memory.rule_confidence(probe[:1], probe[1:])
            )
        probe = _probes(published, seed=0)[0]
        assert indexed.reconstructed_support(probe, 2) == memory.reconstructed_support(
            probe, 2
        )


# --------------------------------------------------------------------------- #
# the digest helper and the diff itself
# --------------------------------------------------------------------------- #
class TestDigests:
    def test_fingerprint_covers_clusters_order_and_header(self):
        payload = _publication(1).to_dict()
        digests, fingerprint = cluster_digests(payload)
        assert fingerprint == publication_fingerprint(payload)
        assert len(digests) == len(payload["clusters"])
        assert digests == cluster_digests({"clusters": payload["clusters"]})[0]
        reordered = dict(payload, clusters=payload["clusters"][::-1])
        assert publication_fingerprint(reordered) != fingerprint
        assert publication_fingerprint(dict(payload, k=payload["k"] + 1)) != fingerprint

    def test_identical_rebuild_keeps_every_top_level_cluster(self, tmp_path):
        published = _publication(2)
        with PublicationStore.from_publication(published, tmp_path / "s") as store:
            stats = store.build(published, generation=1)
        assert stats.tops_kept == len(published.clusters)
        assert stats.tops_written == 0
        assert_matches_fresh_build(tmp_path / "s", published, tmp_path)

    def test_reordered_and_partly_replaced_clusters(self, tmp_path):
        first, other = _publication(3), _publication(4)
        clusters = list(reversed(first.clusters[2:])) + other.clusters[:3]
        second = DisassociatedDataset(clusters, k=first.k, m=first.m)
        with PublicationStore.from_publication(first, tmp_path / "s") as store:
            stats = store.build(second, generation=1)
        assert stats.tops_kept == len(first.clusters) - 2
        assert stats.tops_written == 3
        assert_matches_fresh_build(tmp_path / "s", second, tmp_path)

    def test_duplicate_clusters_match_as_a_multiset(self, tmp_path):
        first = _publication(5)
        doubled = DisassociatedDataset(
            first.clusters + first.clusters[:2], k=first.k, m=first.m
        )
        with PublicationStore.from_publication(first, tmp_path / "s") as store:
            assert store.build(doubled).tops_written == 2
            assert_matches_fresh_build(tmp_path / "s", doubled, tmp_path)
            assert store.build(first).tops_written == 0
        assert_matches_fresh_build(tmp_path / "s", first, tmp_path)

    def test_foreign_source_diffs_against_nothing(self, tmp_path):
        published = _publication(6)
        with PublicationStore.from_publication(published, tmp_path / "s") as store:
            stats = store.build(published, source={"run": "other"})
        assert stats.tops_kept == 0
        assert stats.tops_written == len(published.clusters)
        assert_matches_fresh_build(tmp_path / "s", published, tmp_path)


# --------------------------------------------------------------------------- #
# stateful sequences: appends and deletes through the incremental pipeline
# --------------------------------------------------------------------------- #
class RefreshMachine(RuleBasedStateMachine):
    """Deltas through :class:`IncrementalPipeline`; the store is checked after each."""

    def __init__(self):
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="pubstore-refresh-"))
        self.records: list = []
        self.published = None
        self.report = None

    def teardown(self):
        shutil.rmtree(self.directory, ignore_errors=True)

    def _run(self, append=(), delete=()):
        # A fresh pipeline per step: no in-process window cache, so a
        # tampered window snapshot is read back from the shard store.
        pipeline = IncrementalPipeline(
            PARAMS,
            StreamParams(
                shards=2,
                max_records_in_memory=20,
                store_dir=self.directory / "shards",
                pubstore_dir=self.directory / "pub",
            ),
        )
        self.published = pipeline.run(append=list(append), delete=list(delete))
        self.report = pipeline.last_report
        for record in delete:
            self.records.remove(record)
        self.records.extend(append)
        assert self.report.pubstore_refreshed
        counters = self.report.counters()
        assert counters["pubstore_tops_written"] + counters["pubstore_tops_kept"] == len(
            self.published.clusters
        )

    def _stored_terms(self) -> set:
        db = sqlite3.connect(pubstore_path(self.directory / "pub"))
        try:
            return {term for (term,) in db.execute("SELECT term FROM terms")}
        finally:
            db.close()

    @staticmethod
    def _records(rng: random.Random, count: int) -> list:
        records = []
        for _ in range(count):
            size = rng.randint(1, 4)
            terms = {rng.choice(POOL[:14]) for _ in range(size)}
            if rng.random() < 0.15:
                terms.add(rng.choice(POOL[14:]))
            records.append(frozenset(terms))
        return records

    @initialize(seed=st.integers(0, 10_000))
    def load(self, seed):
        self._run(append=self._records(random.Random(seed), 90))

    @rule(count=st.integers(1, 12), seed=st.integers(0, 10_000))
    def append(self, count, seed):
        self._run(append=self._records(random.Random(seed), count))

    @precondition(lambda self: any(n == 1 for n in Counter(self.records).values()))
    @rule(count=st.integers(1, 6), seed=st.integers(0, 10_000))
    def delete_unique(self, count, seed):
        counts = Counter(self.records)
        unique = [record for record in self.records if counts[record] == 1]
        self._run(delete=random.Random(seed).sample(unique, min(count, len(unique))))

    @precondition(lambda self: any(n > 1 for n in Counter(self.records).values()))
    @rule(seed=st.integers(0, 10_000))
    def delete_duplicate(self, seed):
        """Drop the earliest copy of a repeated record: later windows shift."""
        counts = Counter(self.records)
        repeated = sorted(
            {record for record in self.records if counts[record] > 1}, key=sorted
        )
        self._run(delete=[random.Random(seed).choice(repeated)])

    @precondition(lambda self: len(self.records) > 30)
    @rule(seed=st.integers(0, 10_000))
    def vanish_term(self, seed):
        """Delete every record carrying one term: the term leaves the store."""
        supports = Counter(term for record in self.records for term in record)
        term = random.Random(seed).choice(sorted(supports, key=lambda t: (supports[t], t))[:3])
        self._run(delete=[record for record in self.records if term in record])
        assert term not in self.published.domain()
        assert term not in self._stored_terms()

    @precondition(lambda self: len(self.records) > 50)
    @rule(seed=st.integers(0, 10_000))
    def demote(self, seed):
        """Corrupt a reused window so the boundary repair has to demote."""
        if inject_violation(self.directory / "shards"):
            self._run(append=self._records(random.Random(seed), 1))
            assert self.report.repair.total_demoted() > 0

    @invariant()
    def matches_fresh_build(self):
        if self.published is not None:
            assert_matches_fresh_build(
                self.directory / "pub", self.published, self.directory
            )


def inject_violation(store_dir) -> bool:
    """Add a support-1 term to a simple cluster of shard 0's first window.

    The window keeps its fingerprint, so the next delta reuses the
    corrupted snapshot and the global audit must demote the term.
    Returns whether a cluster to corrupt was found.
    """
    db = sqlite3.connect(Path(store_dir) / STORE_NAME)
    try:
        row = db.execute("SELECT clusters FROM windows WHERE shard = 0 AND win = 0").fetchone()
        clusters = [cluster_from_payload(payload) for payload in json.loads(row[0])]
        for index, cluster in enumerate(clusters):
            if isinstance(cluster, SimpleCluster) and cluster.record_chunks:
                if INJECTED in cluster.domain():
                    return False
                first, *rest = cluster.record_chunks
                chunk = RecordChunk(
                    first.domain | {INJECTED},
                    [first.subrecords[0] | {INJECTED}, *first.subrecords[1:]],
                )
                originals = list(cluster.original_records)
                originals[0] = originals[0] | {INJECTED}
                clusters[index] = SimpleCluster(
                    cluster.size,
                    [chunk, *rest],
                    cluster.term_chunk,
                    label=cluster.label,
                    original_records=originals,
                )
                db.execute(
                    "UPDATE windows SET clusters = ? WHERE shard = 0 AND win = 0",
                    (json.dumps([cluster_to_payload(c) for c in clusters]),),
                )
                db.commit()
                return True
        return False
    finally:
        db.close()


TestRefreshMachine = RefreshMachine.TestCase
TestRefreshMachine.settings = settings(
    max_examples=10,
    stateful_step_count=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def test_scripted_sequence_covers_every_kind_of_change():
    """One fixed walk through each rule, with each rule's effect asserted."""
    machine = RefreshMachine()
    try:
        machine.load(seed=1)
        machine.matches_fresh_build()
        before = machine.report.counters()["pubstore_tops_written"]
        assert before == len(machine.published.clusters)  # first build: all new

        machine.append(count=5, seed=2)
        machine.matches_fresh_build()
        assert machine.report.counters()["pubstore_tops_kept"] > 0

        machine.demote(seed=3)
        assert INJECTED in machine.published.domain()
        machine.matches_fresh_build()

        # Deleting the earliest copy of a repeated record shifts every
        # later window of its shard.
        machine.delete_duplicate(seed=4)
        assert machine.report.windows_recomputed >= 2
        machine.matches_fresh_build()

        supports = Counter(term for record in machine.records for term in record)
        term = min(supports, key=lambda t: (supports[t], t))
        assert term in machine._stored_terms()
        machine._run(delete=[r for r in machine.records if term in r])
        assert term not in machine._stored_terms()
        machine.matches_fresh_build()

        machine.delete_unique(count=4, seed=5)
        machine.matches_fresh_build()
    finally:
        machine.teardown()


# --------------------------------------------------------------------------- #
# schema version 2: upgrade and refusal
# --------------------------------------------------------------------------- #
def _downgrade_to_v1(store_dir) -> None:
    """Rewrite a store into the version-1 shape (no ``tops`` table)."""
    db = sqlite3.connect(pubstore_path(store_dir))
    db.executescript(
        "DROP TABLE tops; DROP INDEX idx_clusters_top;"
        " UPDATE meta SET value = '1' WHERE key = 'version';"
    )
    db.close()


class TestStoredProductRefresh:
    """A store-backed run's publication is text; its refresh parses a
    stored window product's text only when the publication store lacks
    its tops, and builds no cluster object."""

    def _pipeline(self, tmp_path, pubstore=True) -> IncrementalPipeline:
        stream = StreamParams(
            shards=2,
            max_records_in_memory=20,
            store_dir=tmp_path / "shards",
            pubstore_dir=tmp_path / "pub" if pubstore else None,
        )
        return IncrementalPipeline(PARAMS, stream)

    @staticmethod
    def _count_decodes(monkeypatch) -> Counter:
        """Count window-text parses and cluster decodes in the run tail."""
        counted = Counter()
        loads, decode = json.loads, executor.cluster_from_dict
        monkeypatch.setattr(
            executor,
            "json",
            SimpleNamespace(
                loads=lambda text: counted.update(["window"]) or loads(text),
                dumps=json.dumps,
            ),
        )
        monkeypatch.setattr(
            executor,
            "cluster_from_dict",
            lambda form: counted.update(["cluster"]) or decode(form),
        )
        return counted

    def test_lost_pubstore_is_rebuilt_from_stored_products(self, tmp_path, monkeypatch):
        self._pipeline(tmp_path).run(append=RefreshMachine._records(random.Random(3), 90))
        self._pipeline(tmp_path).run(append=RefreshMachine._records(random.Random(4), 5))
        shutil.rmtree(tmp_path / "pub")
        counted = self._count_decodes(monkeypatch)
        pipeline = self._pipeline(tmp_path)
        published = pipeline.run()
        report = pipeline.last_report
        assert report.noop and report.pubstore_refreshed
        assert isinstance(published, TextPublication)
        assert report.pubstore_tops_written == len(published)
        # Every window's text is parsed once; no cluster object is built.
        assert counted == Counter({"window": len(published._products)})
        monkeypatch.undo()
        assert_matches_fresh_build(tmp_path / "pub", published, tmp_path)

    def test_stale_pubstore_decodes_only_the_windows_it_lacks(self, tmp_path, monkeypatch):
        pipeline = self._pipeline(tmp_path)
        pipeline.run(append=RefreshMachine._records(random.Random(5), 90))
        # Another pipeline keeps no pubstore: its delta leaves the pubstore
        # one generation behind.
        self._pipeline(tmp_path, pubstore=False).run(
            append=RefreshMachine._records(random.Random(6), 5)
        )
        counted = self._count_decodes(monkeypatch)
        published = pipeline.run()
        report = pipeline.last_report
        assert report.noop and report.pubstore_refreshed
        assert 0 < report.pubstore_tops_written < len(published)
        assert set(counted) == {"window"}
        assert 0 < counted["window"] < len(published._products)
        monkeypatch.undo()
        assert_matches_fresh_build(tmp_path / "pub", published, tmp_path)


class TestVersionUpgrade:
    def test_refresh_rebuilds_a_v1_store_from_empty(self, tmp_path):
        first, second = _publication(7), _publication(8)
        PublicationStore.from_publication(first, tmp_path / "s").close()
        _downgrade_to_v1(tmp_path / "s")
        with PublicationStore(tmp_path / "s", exclusive=True) as store:
            stats = store.build(second, generation=3)
            assert stats.tops_kept == 0
            assert stats.tops_written == len(second.clusters)
            assert store.describe()["version"] == PUBSTORE_VERSION == 2
        assert_matches_fresh_build(tmp_path / "s", second, tmp_path)

    def test_reconcile_only_run_upgrades_a_v1_store(self, tmp_path):
        """An empty delta at an unchanged generation still rebuilds a v1 store."""
        records = list(make_workload("quest", records=120, domain=30, avg_len=4.0, seed=14))
        stream = StreamParams(
            shards=2,
            max_records_in_memory=40,
            store_dir=tmp_path / "shards",
            pubstore_dir=tmp_path / "pub",
        )
        published = IncrementalPipeline(PARAMS, stream).run(append=records)
        with PublicationStore(tmp_path / "pub") as store:
            generation = store.generation
        _downgrade_to_v1(tmp_path / "pub")
        config = ServiceConfig(k=3, m=2, pubstore_dir=str(tmp_path / "pub"))
        with AnonymizationService(config) as service:
            with pytest.raises(StoreError, match="version '1'"):
                service.query("top_terms", {"count": 3})

        pipeline = IncrementalPipeline(PARAMS, stream)
        assert pipeline.run().to_dict() == published.to_dict()
        assert pipeline.last_report.noop
        assert pipeline.last_report.pubstore_refreshed
        assert pipeline.last_report.pubstore_tops_written == len(published.clusters)
        assert "pubstore" in pipeline.last_report.summary()
        with PublicationStore(tmp_path / "pub") as store:
            assert store.describe()["version"] == PUBSTORE_VERSION
            assert store.generation == generation
        assert_matches_fresh_build(tmp_path / "pub", published, tmp_path)
        with AnonymizationService(config) as service:
            answer = service.query("top_terms", {"count": 3})
        assert answer["result"] == [list(row) for row in QueryEngine(published).top_terms(3)]

        # now current: the next empty run leaves the store alone
        pipeline.run()
        assert not pipeline.last_report.pubstore_refreshed

    def test_failed_upgrade_leaves_the_v1_store_untouched(self, tmp_path):
        first = _publication(7)
        PublicationStore.from_publication(first, tmp_path / "s").close()
        _downgrade_to_v1(tmp_path / "s")
        path = pubstore_path(tmp_path / "s")
        db = sqlite3.connect(path)
        before = db.execute("SELECT COUNT(*) FROM postings").fetchone()
        db.close()
        with PublicationStore(tmp_path / "s", exclusive=True) as store:
            with faults.active(faults.FaultPlan.from_text("pubstore.build:2")):
                with pytest.raises(FaultInjected):
                    store.build(_publication(8), generation=3)
        db = sqlite3.connect(path)
        try:
            assert db.execute("SELECT value FROM meta WHERE key = 'version'").fetchone() == ("1",)
            assert db.execute("SELECT COUNT(*) FROM postings").fetchone() == before
            assert db.execute("SELECT COUNT(*) FROM tops").fetchone() == (0,)
        finally:
            db.close()

    def test_read_only_query_on_a_v1_store_is_a_version_error(self, tmp_path):
        PublicationStore.from_publication(_publication(7), tmp_path / "pub").close()
        _downgrade_to_v1(tmp_path / "pub")
        with PublicationStore(tmp_path / "pub") as store:
            for read in (store.load_publication, store.describe, lambda: store.top_terms(3)):
                with pytest.raises(StoreError, match="version '1'"):
                    read()
        config = ServiceConfig(k=3, m=2, pubstore_dir=str(tmp_path / "pub"))
        with AnonymizationService(config) as service:
            with pytest.raises(StoreError, match="version '1'"):
                service.query("top_terms", {"count": 3})
        server = ServiceHTTPServer(AnonymizationService(config), port=0).start()
        try:
            import urllib.error
            import urllib.request

            with pytest.raises(urllib.error.HTTPError) as raised:
                urllib.request.urlopen(server.url + "/query?op=top_terms")
            assert raised.value.code == 409
            body = json.loads(raised.value.read())
            assert body["kind"] == "checkpoint_conflict" and "version" in body["error"]
        finally:
            server.close()


# --------------------------------------------------------------------------- #
# one read transaction per query
# --------------------------------------------------------------------------- #
class TestOneSnapshotPerQuery:
    def test_query_straddling_a_refresh_reads_the_old_snapshot(
        self, tmp_path, monkeypatch
    ):
        """A refresh commits between the header check and the grouped
        statement of one expected_support."""
        first, second = _publication(9), _publication(10)
        PublicationStore.from_publication(first, tmp_path / "pub").close()
        probe = [term for term, _ in QueryEngine(first).top_terms(2)]
        expected = QueryEngine(first).expected_support(probe)
        expected_factors = PublicationStore.expected_factors
        refreshed = []

        def refresh_then_read(self, terms):
            if not refreshed:
                with PublicationStore(self.directory, exclusive=True) as writer:
                    refreshed.append(writer.build(second, generation=1))
            return expected_factors(self, terms)

        monkeypatch.setattr(PublicationStore, "expected_factors", refresh_then_read)
        config = ServiceConfig(k=3, m=2, pubstore_dir=str(tmp_path / "pub"))
        with AnonymizationService(config) as service:
            answer = service.query("expected_support", {"terms": probe})
            assert refreshed and refreshed[0].tops_kept == 0
            assert answer["result"] == expected
            # the next query sees the refreshed snapshot
            after = service.query("expected_support", {"terms": probe})
        assert after["result"] == QueryEngine(second).expected_support(probe)

    def test_queries_racing_deltas_see_whole_generations(self, tmp_path):
        """A thread loops expected_support while deltas refresh the store."""
        records = list(make_workload("quest", records=160, domain=30, avg_len=4.0, seed=12))
        stream = StreamParams(
            shards=2,
            max_records_in_memory=40,
            store_dir=tmp_path / "shards",
            pubstore_dir=tmp_path / "pub",
        )
        pipeline = IncrementalPipeline(PARAMS, stream)
        published = pipeline.run(append=records)
        probe = [term for term, _ in QueryEngine(published).top_terms(2)]
        answers = {QueryEngine(published).expected_support(probe)}
        seen, failures, stop = [], [], threading.Event()
        config = ServiceConfig(k=3, m=2, pubstore_dir=str(tmp_path / "pub"))

        def reader(service):
            while not stop.is_set():
                try:
                    seen.append(service.query("expected_support", {"terms": probe}))
                except Exception as exc:  # pragma: no cover - the failure mode
                    failures.append(exc)

        rng = random.Random(13)
        with AnonymizationService(config) as service:
            thread = threading.Thread(target=reader, args=(service,))
            thread.start()
            try:
                current = list(records)
                for _ in range(6):
                    deletes = rng.sample(current[:80], 6)
                    appends = [frozenset(rng.sample(sorted(probe) + ["x1", "x2"], 2))]
                    published = pipeline.run(append=appends, delete=deletes)
                    for record in deletes:
                        current.remove(record)
                    current += appends
                    answers.add(QueryEngine(published).expected_support(probe))
            finally:
                stop.set()
                thread.join(timeout=60)
        assert not thread.is_alive()
        assert not failures
        assert seen
        assert {answer["result"] for answer in seen} <= answers


# --------------------------------------------------------------------------- #
# batched writes
# --------------------------------------------------------------------------- #
class TestBatchedRefresh:
    @pytest.mark.parametrize("batch", [1, 2])
    def test_batches_write_what_one_batch_writes(self, tmp_path, monkeypatch, batch):
        """A refresh that builds and inserts ``batch`` top-level clusters at a
        time leaves a store identical to a single-batch refresh: same
        reload, same ``describe()``, same aggregates and query answers,
        on the first build and on a delta that deletes and writes tops."""
        records = list(make_workload("quest", records=200, domain=30, avg_len=4.0, seed=21))
        appended = list(make_workload("quest", records=60, domain=30, avg_len=4.0, seed=22))
        pipelines = {
            size: IncrementalPipeline(
                PARAMS,
                StreamParams(
                    shards=2,
                    max_records_in_memory=40,
                    store_dir=tmp_path / f"shards{size}",
                    pubstore_dir=tmp_path / f"pub{size}",
                ),
            )
            for size in (batch, 10**9)
        }
        for step, delta in enumerate(
            [dict(append=records), dict(append=appended, delete=records[-6:])]
        ):
            written = []
            for size, pipeline in pipelines.items():
                monkeypatch.setattr(pubstore_store, "REFRESH_BATCH", size)
                published = pipeline.run(**delta)
                written.append(pipeline.last_report.pubstore_tops_written)
            assert written[0] == written[1] > batch, (step, written)
            (batched, whole) = (tmp_path / f"pub{size}" for size in pipelines)
            assert _aggregates(batched) == _aggregates(whole)
            with PublicationStore(batched) as a, PublicationStore(whole) as b:
                assert a.load_publication().to_dict() == b.load_publication().to_dict()
                assert a.load_publication().to_dict() == published.to_dict()
                described = [store.describe() for store in (a, b)]
                for entry in described:
                    entry.pop("path")
                assert described[0] == described[1]
                engines = QueryEngine(a, seed=5), QueryEngine(b, seed=5)
                for probe in _probes(published, seed=step):
                    for op in ("cooccurrence_count", "expected_support", "lower_bound"):
                        answers = [e.execute(op, {"terms": probe}) for e in engines]
                        assert answers[0] == answers[1], (op, probe)
                oracle = QueryEngine(published)
                for engine in engines:
                    assert engine.top_terms(1000) == oracle.top_terms(1000)
                    assert engine.frequent_pairs(1) == oracle.frequent_pairs(1)


# --------------------------------------------------------------------------- #
# statement plans
# --------------------------------------------------------------------------- #
#: Tables a refresh must never read in full: each is one of the store's
#: largest, and a refresh touches only the rows of the clusters it changed.
NEVER_SCANNED = ("postings", "term_chunks", "chunk_terms")


def _plans(db, statements) -> dict:
    """``EXPLAIN QUERY PLAN`` detail lines of every reading statement."""
    plans = {}
    for sql in statements:
        if sql.split(None, 1)[0].upper() in ("SELECT", "WITH", "DELETE"):
            plans[sql] = [row[3] for row in db.execute("EXPLAIN QUERY PLAN " + sql)]
    return plans


class TestStatementPlans:
    def test_refresh_starts_from_gone_tops_and_every_index_is_read(self, tmp_path):
        """The plan of every statement of a refresh that deletes and writes
        top-level clusters: the read-back starts from ``gone_tops``, no
        statement scans ``postings``, ``term_chunks`` or ``chunk_terms``
        in full, and every index the schema declares is used by at least
        one refresh or query statement."""
        records = list(make_workload("quest", records=200, domain=30, avg_len=4.0, seed=21))
        stream = StreamParams(shards=2, max_records_in_memory=40, store_dir=tmp_path / "s")
        pipeline = IncrementalPipeline(PARAMS, stream)
        first = pipeline.run(append=records)
        second = pipeline.run(
            append=list(make_workload("quest", records=25, domain=30, avg_len=4.0, seed=22)),
            delete=records[-6:],
        )
        PublicationStore.from_publication(first, tmp_path / "pub").close()
        statements: list = []
        with PublicationStore(tmp_path / "pub", exclusive=True) as writer:
            writer._db.set_trace_callback(statements.append)
            stats = writer.build(second, generation=1)
            writer._db.set_trace_callback(None)
            assert stats.tops_written and stats.tops_kept
            refresh = _plans(writer._db, statements)
        assert any("gone_tops" in sql for sql in refresh)
        for sql, plan in refresh.items():
            if sql.startswith("SELECT") and " FROM gone_tops g" in sql:
                # Every member of the read-back starts from gone_tops.
                tables = [line for line in plan if line.startswith(("SCAN", "SEARCH"))]
                assert tables[0] == "SCAN g", (sql, plan)
                assert tables.count("SCAN g") == sql.count(" FROM gone_tops g"), (sql, plan)
            for line in plan:
                assert not line.startswith(tuple(f"SCAN {t}" for t in NEVER_SCANNED)), (
                    sql,
                    plan,
                )
                # Aliases: p = postings, t = term_chunks, ct = chunk_terms.
                assert not line.startswith(("SCAN p", "SCAN t ", "SCAN ct")), (sql, plan)

        statements.clear()
        with PublicationStore.reader(tmp_path / "pub") as reader:
            reader._db.set_trace_callback(statements.append)
            engine = QueryEngine(reader, seed=3)
            terms = [term for term, _ in engine.top_terms(3)]
            for op, params in [
                ("describe", {}),
                ("top_terms", {"count": 5}),
                ("frequent_pairs", {"min_support": 2}),
                ("reconstructed_support", {"terms": terms[:2], "reconstructions": 1}),
            ] + [
                (op, {"terms": terms[:width]})
                for op in ("cooccurrence_count", "containment_ratio", "lower_bound", "expected_support")
                for width in (1, 2, 3)
            ]:
                engine.execute(op, params)
            reader._db.set_trace_callback(None)
            queries = _plans(reader._db, statements)
        used = " ".join(line for plan in [*refresh.values(), *queries.values()] for line in plan)
        declared = re.findall(r"CREATE INDEX IF NOT EXISTS (\w+)", _SCHEMA)
        assert declared
        for index in declared:
            assert f"INDEX {index} " in used, index

    def test_writer_open_drops_the_retired_indexes(self, tmp_path):
        """A store that still carries indexes no statement reads loses them
        on its next writer open; a reader open leaves the file alone."""
        PublicationStore.from_publication(_publication(3), tmp_path / "pub").close()
        retired = {
            "idx_clusters_parent": "clusters (parent, ord)",
            "idx_chunks_cluster": "chunks (cluster, ord)",
            "idx_chunk_terms_chunk": "chunk_terms (chunk)",
            "idx_term_chunks_cluster": "term_chunks (cluster)",
        }

        def indexes() -> set:
            db = sqlite3.connect(pubstore_path(tmp_path / "pub"))
            try:
                rows = db.execute("SELECT name FROM sqlite_master WHERE type = 'index'")
                return {name for (name,) in rows}
            finally:
                db.close()

        db = sqlite3.connect(pubstore_path(tmp_path / "pub"))
        for name, target in retired.items():
            db.execute(f"CREATE INDEX {name} ON {target}")
        db.commit()
        db.close()
        assert set(retired) <= indexes()
        with PublicationStore.reader(tmp_path / "pub") as reader:
            assert reader.describe()["version"] == PUBSTORE_VERSION
        assert set(retired) <= indexes()
        with PublicationStore(tmp_path / "pub", exclusive=True) as writer:
            assert writer.describe()["version"] == PUBSTORE_VERSION
        assert not set(retired) & indexes()
