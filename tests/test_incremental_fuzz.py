"""Differential fuzzing of the incremental store against the cold oracle.

The contract under test is the tentpole property of
:class:`repro.stream.store.IncrementalPipeline`: after *any* sequence of
record appends and deletes, the incrementally maintained publication is
**bit-for-bit identical** to a cold sharded run over the mutated dataset
(computed in memory by :func:`tests.reference.engine.reference_cold_run`).
The oracle is trivial to state and expensive to hold -- window reuse,
arrival-order preservation under deletes, plan stability and the
boundary repair all have to line up -- which makes it an ideal fuzz
target:

* :class:`TestDifferentialFuzz` drives seeded randomized mutation
  sequences (append-only, delete-only, mixed; 30 sequences per workload
  family, 2 delta steps each) over the three paper-shaped workloads and
  compares canonical publication JSON after the final step;
* :class:`TestStoredProducts` keeps one pipeline across a random delta
  sequence and checks every generation against the full audit, a fresh
  pipeline reading the stored window products, one that must audit every
  window again (products removed) and a cold run, and that callers
  mutating what a run returned never change what the next run publishes;
* :class:`TestCrashResume` kills a delta run at every injection point it
  crosses (store open/validate/mutate, window, merge, verify) and checks
  that re-running the *same* delta -- same ``delta_id`` -- converges to
  the oracle regardless of where the first attempt died (mutation
  committed or not);
* :class:`TestServiceDeltaRetry` checks the service layer's transparent
  retry does the same without double-applying the mutation.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import faults
from repro.core.engine import REPORT_STATS, AnonymizationParams, cluster_stats
from repro.core.verification import audit
from repro.exceptions import FaultInjected
from repro.service import AnonymizationService, ServiceConfig
from repro.stream import IncrementalPipeline, ShardStore, StreamParams
from tests.conftest import make_workload
from tests.reference.engine import reference_cold_run

PARAMS = AnonymizationParams(k=3, m=2, max_cluster_size=12)

#: Workload family -> seeded base dataset (shapes match the resilience
#: suite: small enough for ~100 fuzz runs, rich enough to produce shared
#: chunks, refinement and boundary repairs).
WORKLOADS = {
    "quest": dict(records=250, domain=80, avg_len=6.0, seed=11),
    "zipf": dict(records=220, domain=70, avg_len=5.0, seed=11),
    "clickstream": dict(records=220, domain=60, avg_len=5.0, seed=11),
}

#: Mutation kinds x seeds: 30 sequences per workload family.
KINDS = ("append", "delete", "mixed")
SEEDS = tuple(range(10))

#: How many delta steps each fuzz sequence applies before the oracle check.
STEPS_PER_SEQUENCE = 2


def _stream(store_dir, **overrides) -> StreamParams:
    values = dict(shards=3, max_records_in_memory=100, store_dir=store_dir)
    values.update(overrides)
    return StreamParams(**values)


def _canonical(published) -> str:
    return json.dumps(published.to_dict(), sort_keys=True)


def _cold(records, **stream_overrides):
    """The oracle: a cold sharded run over the full mutated dataset."""
    values = dict(shards=3, max_records_in_memory=100)
    values.update(stream_overrides)
    return reference_cold_run(PARAMS, StreamParams(**values), records)


def _term_pool(records) -> list:
    return sorted({term for record in records for term in record})


def _random_record(rng: random.Random, pool: list) -> frozenset:
    """A random record mixing existing terms with fresh ones (fuzz both
    vocabulary growth and duplicate-content routing)."""
    size = rng.randint(1, 6)
    terms = set()
    while len(terms) < size:
        if rng.random() < 0.7:
            terms.add(rng.choice(pool))
        else:
            terms.add(f"fresh-{rng.randint(0, 49)}")
    return frozenset(terms)


def _random_delta(rng: random.Random, current: list, pool: list, kind: str):
    """One randomized (append, delete) pair legal against ``current``."""
    appends, deletes = [], []
    if kind in ("append", "mixed"):
        appends = [_random_record(rng, pool) for _ in range(rng.randint(1, 12))]
    if kind in ("delete", "mixed") and current:
        count = rng.randint(1, min(12, len(current)))
        deletes = [current[i] for i in rng.sample(range(len(current)), count)]
    return appends, deletes


def _apply_oracle(current: list, appends: list, deletes: list) -> list:
    """The store's mutation semantics on a plain list.

    Deletes remove the earliest surviving occurrence of each record (in
    delete order), then appends land at the end -- the exact arrival
    order the store maintains.
    """
    mutated = list(current)
    for record in deletes:
        mutated.remove(record)
    return mutated + appends


@pytest.fixture(scope="module")
def base_records():
    """Workload family -> the list of base records (built once)."""
    return {
        name: list(make_workload(name, **spec)) for name, spec in WORKLOADS.items()
    }


class TestDifferentialFuzz:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_delta_matches_cold_recompute(
        self, workload, kind, seed, base_records, tmp_path
    ):
        """Any mutation sequence == cold run over the mutated dataset."""
        records = base_records[workload]
        rng = random.Random(seed * 1000 + KINDS.index(kind))
        pool = _term_pool(records)
        pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "store"))
        pipeline.run(append=records)
        current = list(records)
        for _ in range(STEPS_PER_SEQUENCE):
            appends, deletes = _random_delta(rng, current, pool, kind)
            published = pipeline.run(append=appends, delete=deletes)
            current = _apply_oracle(current, appends, deletes)
        assert _canonical(published) == _canonical(_cold(current))
        report = pipeline.last_report
        assert report.num_records == len(current)
        assert sum(report.shard_records) == len(current)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_incremental_equals_cold_from_scratch(
        self, workload, base_records, tmp_path
    ):
        """The very first (initializing) run is already oracle-identical."""
        records = base_records[workload]
        pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "store"))
        published = pipeline.run(append=records)
        assert _canonical(published) == _canonical(_cold(records))
        assert pipeline.last_report.initialized

    def test_horpart_strategy_fuzz(self, base_records, tmp_path):
        """Sample-based routing: append-only deltas stay oracle-identical.

        Deletes inside the sample prefix can legitimately change the
        derived plan (rejected with ``StoreError``, covered in the edge
        suite), so the horpart fuzz sticks to appends -- the plan is
        stable and every delta must land bit-for-bit.
        """
        records = base_records["quest"]
        rng = random.Random(77)
        pool = _term_pool(records)
        pipeline = IncrementalPipeline(
            PARAMS, _stream(tmp_path / "store", strategy="horpart")
        )
        pipeline.run(append=records)
        current = list(records)
        for _ in range(3):
            appends, _ = _random_delta(rng, current, pool, "append")
            published = pipeline.run(append=appends)
            current = current + appends
        assert _canonical(published) == _canonical(
            _cold(current, strategy="horpart")
        )


#: Delta steps per stored-product sequence; every one is checked.
PRODUCT_STEPS = 4


def _compact(published) -> str:
    """The publication's compact JSON text (what a store-backed run splices)."""
    return json.dumps(published.to_dict(), separators=(",", ":"))


def _window_keys(store_dir) -> tuple:
    """The ``(shard, win)`` keys of the store's snapshots and of its products."""
    with ShardStore(store_dir) as store:
        return tuple(
            store._db.execute(f"SELECT shard, win FROM {table} ORDER BY shard, win").fetchall()
            for table in ("windows", "window_products")
        )


class TestStoredProducts:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_generation_equals_full_audit_and_cold_runs(
        self, kind, seed, base_records, tmp_path
    ):
        """Stored products are the full audit, not a weaker check: one
        pipeline's publication passes ``audit`` after every delta and
        matches, byte for byte, a fresh pipeline over the same store, a
        fresh pipeline that audits every window again (products removed)
        and a reference cold run over the records."""
        records = base_records["quest"]
        rng = random.Random(seed * 1000 + KINDS.index(kind) + 500)
        pool = _term_pool(records)
        stream = _stream(tmp_path / "store", max_records_in_memory=40)
        pipeline = IncrementalPipeline(PARAMS, stream)
        pipeline.run(append=records)
        current = list(records)
        for _ in range(PRODUCT_STEPS):
            appends, deletes = _random_delta(rng, current, pool, kind)
            published = pipeline.run(append=appends, delete=deletes)
            current = _apply_oracle(current, appends, deletes)
            report = pipeline.last_report
            cold = _cold(current, max_records_in_memory=40)
            # Counted before anything decodes the publication's clusters.
            assert (len(published), published.total_records()) == (
                len(cold.clusters),
                cold.total_records(),
            )
            assert [getattr(report, name) for name in REPORT_STATS] == list(
                cluster_stats(cold)
            )
            assert audit(published).ok
            text = _canonical(published)
            assert published.text == _compact(cold)
            windows, products = _window_keys(tmp_path / "store")
            assert len(windows) == sum(report.shard_windows)
            assert products == windows
            fresh = IncrementalPipeline(PARAMS, stream)
            assert fresh.run().text == published.text
            assert fresh.last_report.noop
            with ShardStore(tmp_path / "store") as store, store._write() as db:
                db.execute("DELETE FROM window_products")
            audited = IncrementalPipeline(PARAMS, stream)
            assert audited.run().text == published.text
            assert _window_keys(tmp_path / "store")[1] == windows
            assert text == _canonical(cold)

    def test_caller_mutations_never_reach_the_store(self, base_records, tmp_path):
        """Mutating the returned publication's decoded clusters and its
        ``to_dict`` form, at any depth, leaves the next runs' bytes
        unchanged."""
        records = base_records["zipf"]
        stream = _stream(tmp_path / "store", max_records_in_memory=40)
        pipeline = IncrementalPipeline(PARAMS, stream)
        appended = [frozenset({"m-a", "m-b"})]
        pipeline.run(append=records)
        first = pipeline.run(append=appended)
        expected = _canonical(first)
        assert expected == _canonical(_cold(records + appended, max_records_in_memory=40))

        def vandalize(published, payload):
            leaf = published.simple_clusters()[0]
            leaf.label = "vandal"
            leaf.term_chunk.terms = frozenset({"vandal"})
            if leaf.record_chunks:
                leaf.record_chunks[0].subrecords.append(frozenset({"vandal"}))
                leaf.record_chunks.clear()
            for cluster in published.clusters:
                for chunk in cluster.iter_shared_chunks():
                    chunk.contributions["vandal"] = 1
                    chunk.subrecords.clear()
            published.clusters.reverse()
            form = payload["clusters"][0]
            form["label"] = "vandal"
            if form["type"] == "simple" and form["record_chunks"]:
                form["record_chunks"][0]["subrecords"][0].append("vandal")
            form.clear()
            payload["clusters"].pop()
            payload["k"] = 99

        vandalize(first, first.to_dict())
        again = pipeline.run()
        assert pipeline.last_report.noop
        assert _canonical(again) == expected
        assert json.dumps(json.loads(again.text), sort_keys=True) == expected

        vandalize(again, again.to_dict())
        appended.append(frozenset({"m-c", "m-d"}))
        later = pipeline.run(append=appended[-1:])
        assert pipeline.last_report.windows_reused > 0
        cold = _cold(records + appended, max_records_in_memory=40)
        assert _canonical(later) == _canonical(cold)
        assert later.text == _compact(cold)


#: Every injection point a delta run crosses, with the 1-based hit that
#: lands *inside the delta* (the initializing run is not under the plan).
DELTA_CRASH_POINTS = [
    ("store.open", 1),
    ("store.validate", 1),
    ("store.mutate", 1),
    ("stream.window", 1),
    ("stream.window", 2),
    ("stream.merge", 1),
    ("stream.verify", 1),
]


class TestCrashResume:
    @pytest.mark.parametrize("point,hit", DELTA_CRASH_POINTS)
    def test_crash_during_delta_then_rerun(
        self, point, hit, base_records, tmp_path
    ):
        """A delta killed at any phase converges on re-run (same delta_id).

        Crashes before the mutation commit must re-apply the mutation;
        crashes after it must *not* double-apply (the store recognizes the
        ``delta_id``).  Either way the re-run publishes the oracle bytes.
        """
        records = base_records["quest"]
        pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "store"))
        pipeline.run(append=records)
        appends = [frozenset({f"crash-{i}", f"crash-{i + 1}"}) for i in range(9)]
        deletes = records[3:7]
        plan = faults.FaultPlan([faults.FaultSpec(point, hit=hit)])
        with faults.active(plan):
            with pytest.raises(FaultInjected):
                pipeline.run(append=appends, delete=deletes, delta_id="delta-1")
        resumed = pipeline.run(append=appends, delete=deletes, delta_id="delta-1")
        mutated = _apply_oracle(records, appends, deletes)
        assert _canonical(resumed) == _canonical(_cold(mutated))
        # The mutation landed exactly once, whether the crash hit before
        # or after the commit.
        assert pipeline.last_report.num_records == len(mutated)

    def test_repeated_crashes_still_converge(self, base_records, tmp_path):
        """Several consecutive crashes at different phases, one delta."""
        records = base_records["zipf"]
        pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "store"))
        pipeline.run(append=records)
        appends = [frozenset({f"x{i}", "y"}) for i in range(6)]
        for point in ("store.mutate", "stream.window", "stream.verify"):
            plan = faults.FaultPlan([faults.FaultSpec(point, hit=1)])
            with faults.active(plan):
                with pytest.raises(FaultInjected):
                    pipeline.run(append=appends, delta_id="retry-me")
        resumed = pipeline.run(append=appends, delta_id="retry-me")
        assert _canonical(resumed) == _canonical(_cold(records + appends))

    def test_completed_delta_replay_is_noop(self, base_records, tmp_path):
        """Replaying a fully completed delta serves the stored publication."""
        records = base_records["quest"]
        pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "store"))
        pipeline.run(append=records)
        appends = [frozenset({"replay-a", "replay-b"})]
        first = pipeline.run(append=appends, delta_id="once")
        replay = pipeline.run(append=appends, delta_id="once")
        assert _canonical(replay) == _canonical(first)
        assert pipeline.last_report.noop
        assert pipeline.last_report.windows_recomputed == 0


class TestServiceDeltaRetry:
    def test_transient_fault_retried_without_double_apply(self, tmp_path):
        """The service retry of a crashed delta applies the mutation once."""
        records = [
            frozenset({f"t{i}", f"t{i + 1}", f"t{(i * 3) % 17}"}) for i in range(120)
        ]
        config = ServiceConfig(
            k=3,
            m=2,
            max_cluster_size=12,
            shards=3,
            max_records_in_memory=100,
            store_dir=str(tmp_path / "store"),
        )
        with AnonymizationService(config) as service:
            service.run(records, mode="delta")
            appends = [frozenset({"svc-a", "svc-b", f"svc-{i}"}) for i in range(5)]
            # The fault fires inside the first execution attempt's window
            # recompute -- after the mutation committed -- so the retry
            # must skip the mutation and still finish the publication.
            plan = faults.FaultPlan([faults.FaultSpec("stream.window", hit=1)])
            with faults.active(plan):
                result = service.run(appends, mode="delta")
        mutated = records + appends
        assert _canonical(result.publication) == _canonical(_cold(mutated))
        assert result.report.num_records == len(mutated)
        assert result.mode == "delta"
