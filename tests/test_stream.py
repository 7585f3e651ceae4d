"""Tests for the sharded streaming subsystem (``repro.stream``).

The headline guarantee: a sharded streaming run on any input produces a
publication that passes the same independent k^m-anonymity audit as a
single-pass run, while never holding more than ``max_records_in_memory``
records resident -- and does so deterministically.
"""

from __future__ import annotations

import gc
import time
import tracemalloc

import pytest

from repro.cli import main
from repro.core.engine import AnonymizationParams, Disassociator
from repro.core.clusters import (
    DisassociatedDataset,
    JointCluster,
    RecordChunk,
    SharedChunk,
    SimpleCluster,
    TermChunk,
    canonical_json,
)
from repro.core import deadline
from repro.core.verification import audit
from repro.datasets.io import (
    write_disassociated_json,
    write_jsonl,
    write_transactions,
)
from repro.datasets.quest import generate_quest
from repro.exceptions import DeadlineExceededError, ParameterError
from repro.experiments.harness import TEST_CONFIG, disassociate
from repro.stream import (
    HashShardPlanner,
    HorpartShardPlanner,
    IncrementalPipeline,
    ShardedPipeline,
    StreamParams,
    build_planner,
    record_fingerprint,
    relabel_cluster,
    verify_and_repair,
)
from repro.stream.executor import TextPublication
from tests.conftest import make_workload
from tests.reference_engine import ReferenceDisassociator, reference_cold_run


@pytest.fixture(scope="module")
def quest():
    """Small QUEST dataset: large enough for several shards and windows."""
    return generate_quest(
        num_transactions=600, domain_size=150, avg_transaction_size=8.0, seed=5
    )


PARAMS = AnonymizationParams(k=3, m=2, max_cluster_size=12, verify=False)
STREAM = StreamParams(shards=4, max_records_in_memory=100)


class TestPlanners:
    def test_fingerprint_is_content_based(self):
        assert record_fingerprint({"b", "a"}) == record_fingerprint(["a", "b"])
        assert record_fingerprint({"a"}) != record_fingerprint({"b"})

    def test_hash_planner_partitions_and_balances(self, quest):
        planner = HashShardPlanner(4)
        counts = [0] * 4
        for record in quest:
            shard = planner.shard_of(record)
            assert 0 <= shard < 4
            counts[shard] += 1
        assert all(count > len(quest) / 16 for count in counts)

    def test_horpart_planner_groups_split_term_neighbours(self, quest):
        planner = HorpartShardPlanner.from_sample(4, quest)
        assert planner.split_terms
        # Records with identical membership over the split terms (and at
        # least one split term) must co-locate.
        by_mask = {}
        for record in quest:
            mask = tuple(t in record for t in planner.split_terms)
            if any(mask):
                by_mask.setdefault(mask, set()).add(planner.shard_of(record))
        assert all(len(shards) == 1 for shards in by_mask.values())

    def test_horpart_routing_is_container_independent(self):
        planner = HorpartShardPlanner(4, ["1", "9"])
        routes = {
            planner.shard_of([1, 2]),
            planner.shard_of({1, 2}),
            planner.shard_of(frozenset({"1", "2"})),
            planner.shard_of(("1", "2")),
        }
        assert len(routes) == 1

    def test_planners_are_deterministic(self, quest):
        a = build_planner("horpart", 4, quest)
        b = build_planner("horpart", 4, quest)
        assert a.describe() == b.describe()
        assert [a.shard_of(r) for r in quest] == [b.shard_of(r) for r in quest]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ParameterError, match="unknown shard strategy"):
            build_planner("round-robin", 4)


class TestStreamParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            StreamParams(shards=0)
        with pytest.raises(ParameterError):
            StreamParams(max_records_in_memory=1)
        with pytest.raises(ParameterError):
            StreamParams(strategy="nope")

    def test_memory_bound_must_fit_a_cluster(self):
        with pytest.raises(ParameterError, match="max_records_in_memory"):
            ShardedPipeline(
                AnonymizationParams(max_cluster_size=50),
                StreamParams(max_records_in_memory=10),
            )


class TestShardedPipeline:
    @pytest.mark.parametrize("strategy", ["hash", "horpart"])
    def test_sharded_run_passes_global_audit(self, quest, strategy):
        pipeline = ShardedPipeline(
            PARAMS, StreamParams(shards=4, max_records_in_memory=100, strategy=strategy)
        )
        published = pipeline.anonymize(quest)
        assert audit(published, k=3, m=2).ok
        assert published.k == 3 and published.m == 2
        assert published.total_records() == len(quest)

    def test_memory_bound_is_respected_and_reported(self, quest):
        pipeline = ShardedPipeline(PARAMS, STREAM)
        pipeline.anonymize(quest)
        report = pipeline.last_report
        assert 0 < report.peak_resident_records <= 100
        assert report.num_records == len(quest)
        assert sum(report.shard_records) == len(quest)
        # the bound forces several windows per shard on 600 records
        assert sum(report.shard_windows) >= 4
        assert report.total_seconds > 0
        # a cold run is one initial build of a throwaway store
        assert report.initialized and not report.noop
        assert (report.appended, report.deleted) == (len(quest), 0)
        assert report.windows_recomputed == sum(report.shard_windows)
        assert report.windows_reused == 0

    def test_sharded_run_is_deterministic(self, quest):
        first = ShardedPipeline(PARAMS, STREAM).anonymize(quest)
        second = ShardedPipeline(PARAMS, STREAM).anonymize(quest)
        assert first.to_dict() == second.to_dict()

    def test_published_clusters_hold_no_private_records(self, quest):
        published = ShardedPipeline(PARAMS, STREAM).anonymize(quest)
        assert all(
            leaf.original_records is None for leaf in published.simple_clusters()
        )

    def test_cluster_labels_are_globally_unique(self, quest):
        published = ShardedPipeline(PARAMS, STREAM).anonymize(quest)
        labels = [leaf.label for leaf in published.simple_clusters()]
        assert len(labels) == len(set(labels))
        assert all(label.startswith("S") for label in labels)

    def test_streaming_a_file_matches_streaming_memory(self, quest, tmp_path):
        path = tmp_path / "quest.jsonl"
        write_jsonl(quest, path)
        from_file = ShardedPipeline(PARAMS, STREAM).anonymize_file(path)
        in_memory = ShardedPipeline(PARAMS, STREAM).anonymize(quest)
        assert from_file.to_dict() == in_memory.to_dict()

    def test_explicit_spill_dir_holds_the_store_until_the_run_ends(
        self, quest, tmp_path, monkeypatch
    ):
        """The throwaway store lives in a new directory under an explicit
        ``spill_dir`` (created if needed) while the run is going."""
        spill = tmp_path / "spill"
        during = []
        reconcile = IncrementalPipeline._reconcile_windows

        def spy(pipeline, store, report, **kwargs):
            during.append(sorted(p.name for p in store.directory.parent.iterdir()))
            assert store.directory.parent == spill
            return reconcile(pipeline, store, report, **kwargs)

        monkeypatch.setattr(IncrementalPipeline, "_reconcile_windows", spy)
        pipeline = ShardedPipeline(
            PARAMS, StreamParams(shards=2, max_records_in_memory=100, spill_dir=spill)
        )
        pipeline.anonymize(quest)
        assert len(during) == 1 and len(during[0]) == 1
        assert during[0][0].startswith("repro-shards-")
        assert list(spill.iterdir()) == []

    def test_empty_stream_publishes_empty_dataset(self):
        published = ShardedPipeline(PARAMS, STREAM).run(iter(()))
        assert len(published.clusters) == 0
        assert audit(published, k=3, m=2).ok

    def test_single_shard_single_window_matches_single_pass_clusters(self, quest):
        # With one shard and a window covering everything, the streaming
        # path degenerates to the single-pass engine (modulo labels).
        pipeline = ShardedPipeline(
            PARAMS, StreamParams(shards=1, max_records_in_memory=1000)
        )
        sharded = pipeline.anonymize(quest)
        single = Disassociator(PARAMS).anonymize(quest)
        stripped = [relabel_cluster(c, "S0W0.") for c in single.clusters]
        assert DisassociatedDataset(stripped, k=3, m=2).to_dict() == sharded.to_dict()

    def test_engine_module_re_exports_sharded_pipeline(self):
        from repro.core import engine

        assert engine.ShardedPipeline is ShardedPipeline
        assert engine.StreamParams is StreamParams
        with pytest.raises(AttributeError):
            engine.NoSuchThing

    def test_service_stream_request_from_file(self, quest, tmp_path):
        """A ``mode="stream"`` service request over a file publishes the
        pipeline's bytes."""
        from repro.service import AnonymizationRequest, AnonymizationService, ServiceConfig

        path = tmp_path / "quest.jsonl"
        write_jsonl(quest, path)
        config = ServiceConfig(
            k=3, m=2, shards=3, max_records_in_memory=100, max_cluster_size=12
        )
        expected = ShardedPipeline(
            config.engine_params(), config.stream_params()
        ).anonymize_file(path)
        with AnonymizationService(config) as service:
            result = service.run(AnonymizationRequest(str(path), mode="stream"))
        assert result.mode == "stream"
        assert result.to_dict() == expected.to_dict()
        assert audit(result.publication, k=3, m=2).ok

    def test_explicit_spill_dir_is_empty_after_the_run(self, quest, tmp_path):
        """An explicit ``spill_dir`` keeps nothing of a finished run."""
        stream = StreamParams(shards=3, max_records_in_memory=100, spill_dir=tmp_path)
        ShardedPipeline(PARAMS, stream).anonymize(quest)
        assert list(tmp_path.iterdir()) == []

    def test_deadline_expiring_mid_insert_leaves_no_store(self, quest, tmp_path):
        """The streamed insert checks the deadline every
        ``max_records_in_memory`` records; expiry rolls it back, raises the
        typed error and removes the throwaway store."""
        stream = StreamParams(shards=3, max_records_in_memory=100, spill_dir=tmp_path)
        budget = deadline.Deadline(3600)
        consumed = []

        def records():
            for record in quest:
                consumed.append(record)
                if len(consumed) == 150:
                    budget.expires_at = time.monotonic() - 1.0
                yield record

        with deadline.scope(budget):
            with pytest.raises(DeadlineExceededError, match="store.mutate"):
                ShardedPipeline(PARAMS, stream).run(records())
        # the insert stopped at the first check after expiry, mid-stream
        assert len(consumed) == 200 < len(quest)
        assert list(tmp_path.iterdir()) == []


class TestReferenceColdRun:
    """``ShardedPipeline`` publishes what the in-memory reference windower does."""

    @pytest.mark.parametrize("reference_windows", [False, True])
    @pytest.mark.parametrize("strategy", ["hash", "horpart"])
    @pytest.mark.parametrize("workload", ["quest", "zipf"])
    def test_sharded_run_matches_reference(
        self, workload, strategy, reference_windows
    ):
        records = list(
            make_workload(workload, records=500, domain=100, avg_len=6.0, seed=3)
        )
        stream = StreamParams(shards=3, max_records_in_memory=90, strategy=strategy)
        engine = ReferenceDisassociator(PARAMS) if reference_windows else None
        published = ShardedPipeline(PARAMS, stream, window_engine=engine).run(
            iter(records)
        )
        expected = reference_cold_run(PARAMS, stream, records)
        assert published.to_dict() == expected.to_dict()


class _TamperingEngine(Disassociator):
    """A window engine whose first window publishes a k^m-violating chunk.

    A term held by a single sub-record joins the first record chunk of the
    window's first leaf that has one, so that window fails its audit and
    the run tail must repair the merge from the stored snapshots.
    """

    TERM = "tampered-term"

    def __init__(self, params):
        super().__init__(params)
        self.windows = 0

    def anonymize(self, dataset):
        published = super().anonymize(dataset)
        self.windows += 1
        if self.windows == 1:
            leaf = next(
                leaf
                for cluster in published.clusters
                for leaf in cluster.leaves()
                if leaf.record_chunks
            )
            chunk = leaf.record_chunks[0]
            leaf.record_chunks[0] = RecordChunk(
                chunk.domain | {self.TERM},
                [chunk.subrecords[0] | {self.TERM}] + list(chunk.subrecords[1:]),
            )
        return published


class TestColdWindowPath:
    """A cold run reconciles its throwaway store like any store run."""

    def test_failing_window_is_repaired_from_stored_snapshots(self, quest):
        pipeline = ShardedPipeline(
            PARAMS, STREAM, window_engine=_TamperingEngine(PARAMS)
        )
        published = pipeline.anonymize(quest)
        repair = pipeline.last_report.repair
        assert repair.total_demoted() > 0
        assert any(_TamperingEngine.TERM in t for t in repair.demoted_terms.values())
        assert audit(published, k=3, m=2).ok
        assert published.total_records() == len(quest)
        # The repaired publication is the one product of the repaired merge.
        assert len(published._products) == 1
        assert len(published.digests) == len(published)

    def test_traced_peak_stays_flat_as_windows_grow(self, tmp_path):
        """A cold run keeps each window's product, not its clusters, and
        its saved file is written a window at a time: the traced peak of a
        run plus save over 32 windows stays within 1.5x of the peak over 8
        (keeping every window's clusters to the run tail grew it ~3.6x,
        saving from a whole-publication parse ~2.8x)."""
        peaks = []
        for windows in (8, 32):
            records = list(
                make_workload("quest", records=250 * windows, domain=200, avg_len=5.0, seed=3)
            )
            pipeline = ShardedPipeline(
                PARAMS, StreamParams(shards=1, max_records_in_memory=250)
            )
            gc.collect()
            tracemalloc.start()
            try:
                published = pipeline.run(iter(records))
                write_disassociated_json(published, tmp_path / f"{windows}.json")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert pipeline.last_report.shard_windows == [windows]
        assert peaks[1] <= 1.5 * peaks[0], peaks


class TestCanonicalWriter:
    """The saved file is ``canonical_json(to_dict())``, written a window at a time."""

    @staticmethod
    def _written(published, tmp_path) -> str:
        path = tmp_path / "published.json"
        write_disassociated_json(published, path)
        return path.read_text(encoding="utf-8")

    def _check(self, published, tmp_path) -> None:
        text = self._written(published, tmp_path)
        assert text == canonical_json(published.to_dict())

    def test_sharded_run_is_written_window_by_window(self, quest, tmp_path):
        published = ShardedPipeline(PARAMS, STREAM).anonymize(quest)
        assert len(published._products) > 1
        parts = list(published.canonical_parts())
        assert len(parts) == len(published._products) + 2
        self._check(published, tmp_path)
        assert published.spliced

    def test_empty_publication(self, tmp_path):
        published = ShardedPipeline(PARAMS, STREAM).run(iter(()))
        assert isinstance(published, TextPublication)
        text = self._written(published, tmp_path)
        assert text == '{"clusters":[],"k":3,"m":2}'
        assert text == canonical_json(published.to_dict())

    def test_repaired_publication_has_one_product(self, quest, tmp_path):
        published = ShardedPipeline(
            PARAMS, STREAM, window_engine=_TamperingEngine(PARAMS)
        ).anonymize(quest)
        assert len(published._products) == 1
        self._check(published, tmp_path)

    def test_replaced_clusters_are_written_from_the_clusters(self, quest, tmp_path):
        published = ShardedPipeline(PARAMS, STREAM).anonymize(quest)
        kept = published.clusters[:3]
        published.clusters = kept
        assert not published.spliced
        expected = canonical_json(DisassociatedDataset(kept, k=3, m=2).to_dict())
        assert self._written(published, tmp_path) == expected

    def test_non_ascii_terms_are_escaped_like_ensure_ascii(self, tmp_path):
        terms = ["caf\u00e9", "na\u00efve", "\u65e5\u672c", "\U0001f600", 'q"uo\\te']
        records = [
            frozenset(terms[(i + j) % len(terms)] for j in range(3)) for i in range(120)
        ]
        published = ShardedPipeline(
            PARAMS, StreamParams(shards=2, max_records_in_memory=40)
        ).run(iter(records))
        text = self._written(published, tmp_path)
        assert text.isascii()
        assert "\\u00e9" in text and "\\ud83d\\ude00" in text
        assert text == canonical_json(published.to_dict())


class TestRelabel:
    def test_relabel_rewrites_contribution_keys(self):
        leaf_a = SimpleCluster(2, [], TermChunk({"x"}), label="P0")
        leaf_b = SimpleCluster(2, [], TermChunk({"y"}), label="P1")
        joint = JointCluster(
            [leaf_a, leaf_b],
            [SharedChunk({"s"}, [{"s"}, {"s"}], {"P0": 1, "P1": 1})],
            label="J[P0+P1]",
        )
        relabeled = relabel_cluster(joint, "S2W1.")
        assert relabeled.label == "S2W1.J[P0+P1]"
        assert [c.label for c in relabeled.children] == ["S2W1.P0", "S2W1.P1"]
        assert relabeled.shared_chunks[0].contributions == {"S2W1.P0": 1, "S2W1.P1": 1}


class TestBoundaryRepair:
    def test_clean_dataset_untouched(self, quest):
        published = ShardedPipeline(PARAMS, STREAM).anonymize(quest)
        repaired, summary = verify_and_repair(published)
        assert summary.clean
        assert repaired.to_dict() == published.to_dict()

    def test_violating_chunk_is_repaired_by_demotion(self):
        # 'b' appears once in a k=3 chunk: a boundary-style violation.
        records = [frozenset({"a", "b"}), frozenset({"a"}), frozenset({"a"})]
        bad = DisassociatedDataset(
            [
                SimpleCluster(
                    3,
                    [RecordChunk({"a", "b"}, records)],
                    TermChunk(),
                    label="X",
                    original_records=records,
                )
            ],
            k=3,
            m=2,
        )
        assert not audit(bad).ok
        fixed, summary = verify_and_repair(bad)
        assert audit(fixed).ok
        assert not summary.clean
        assert "b" in summary.demoted_terms["X"]
        # the demoted term is still published as present
        (cluster,) = fixed.clusters
        assert "b" in cluster.term_chunk
        # 'a' (support 3) stays in a record chunk
        assert "a" in cluster.record_chunk_terms()


    def test_shared_chunk_demotion_keeps_contributions_aligned(self):
        from repro.stream.boundary import _shrink_shared_chunk

        # P0 contributed {a,b} and {b}; P1 contributed {a}.  Demoting 'a'
        # empties P1's only projection: its contribution must disappear so
        # sum(contributions) still equals len(subrecords) (reconstruction
        # relies on that invariant to slice per contributing cluster).
        chunk = SharedChunk(
            {"a", "b"},
            [{"a", "b"}, {"b"}, {"a"}],
            {"P0": 2, "P1": 1},
        )
        shrunk = _shrink_shared_chunk(chunk, frozenset({"b"}))
        assert shrunk.subrecords == [frozenset({"b"}), frozenset({"b"})]
        assert shrunk.contributions == {"P0": 2}
        assert sum(shrunk.contributions.values()) == len(shrunk.subrecords)


class TestHarnessIntegration:
    def test_disassociate_routes_through_stream(self, quest):
        config = TEST_CONFIG.with_overrides(
            stream=True, shards=3, max_records_in_memory=100, k=3
        )
        reports = []
        published, seconds = disassociate(quest, config, report_sink=reports)
        assert audit(published, k=3, m=2).ok
        assert seconds > 0
        (report,) = reports
        assert report.peak_resident_records <= 100


class TestStreamCli:
    def test_stream_flags(self, quest, tmp_path, capsys):
        data = tmp_path / "quest.txt"
        write_transactions(quest, data)
        out = tmp_path / "published.json"
        code = main(
            [
                "anonymize",
                str(data),
                "--output",
                str(out),
                "--stream",
                "--shards",
                "3",
                "--max-records-in-memory",
                "120",
                "--shard-strategy",
                "horpart",
                "--k",
                "3",
                "--max-cluster-size",
                "12",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "sharded run" in captured and "3 shard(s)" in captured
        assert main(["audit", str(out)]) == 0

    def test_jsonl_input_without_stream(self, quest, tmp_path):
        data = tmp_path / "quest.jsonl"
        write_jsonl(quest, data)
        out = tmp_path / "published.json"
        assert main(["anonymize", str(data), "--output", str(out), "--k", "3",
                     "--max-cluster-size", "12"]) == 0
        assert main(["audit", str(out)]) == 0
