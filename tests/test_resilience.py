"""Crash/recovery tests for the durable path: the persistent shard store.

The contract under test: an initial :class:`IncrementalPipeline` build
killed at *any* injection point it crosses recovers when re-run -- with
the same ``delta_id`` (the mutation commits at most once), or, once the
mutation has committed, with no input at all (a reconcile-only run
finishes the stale windows).  Either way the recovered publication is
**bit-for-bit identical** to the in-memory reference cold run over the
same records, and the publication store is current afterwards.  A cold
:class:`ShardedPipeline` run that crashes leaves nothing behind.

Crashes are injected deterministically with :mod:`repro.faults`; the CI
fault matrix re-runs :class:`TestEnvDrivenFaults` with ``$REPRO_FAULTS``
armed to prove the env path drives the same harness.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import faults
from repro.core.engine import AnonymizationParams
from repro.core.verification import audit
from repro.exceptions import FaultInjected, StoreError
from repro.pubstore import PublicationStore
from repro.stream import IncrementalPipeline, ShardedPipeline, ShardStore, StreamParams
from tests.conftest import make_workload
from tests.reference.engine import reference_cold_run

PARAMS = AnonymizationParams(k=3, m=2, max_cluster_size=12)

#: Points an initial build crosses before its mutation commits; a crash
#: there leaves no records in the store, so only a re-run with the input
#: (not a reconcile-only run) can finish the build.
BEFORE_MUTATION = ("store.open", "store.mutate")

#: Delta token of every initial build below.
LOAD = "load"


def _workloads():
    return {
        "quest": make_workload("quest", records=400, domain=100, avg_len=8.0, seed=11),
        "zipf": make_workload("zipf", records=300, domain=80, avg_len=6.0, seed=11),
        "clickstream": make_workload(
            "clickstream", records=300, domain=60, avg_len=5.0, seed=11
        ),
    }


@pytest.fixture(scope="module")
def workloads():
    """Three paper-shaped workloads, small enough for dozens of crash runs."""
    return {name: list(records) for name, records in _workloads().items()}


def _stream(root=None) -> StreamParams:
    if root is None:
        return StreamParams(shards=3, max_records_in_memory=100)
    return StreamParams(
        shards=3,
        max_records_in_memory=100,
        store_dir=root / "store",
        pubstore_dir=root / "pub",
    )


def _cold(records) -> str:
    return _canonical(reference_cold_run(PARAMS, _stream(), records))


def _build(root, records=(), *, delta_id=LOAD):
    pipeline = IncrementalPipeline(PARAMS, _stream(root))
    return pipeline.run(append=records, delta_id=delta_id), pipeline.last_report


def _canonical(published) -> str:
    return json.dumps(published.to_dict(), sort_keys=True)


def _crash(root, records, point, hit) -> None:
    plan = faults.FaultPlan([faults.FaultSpec(point, hit=hit)])
    with faults.active(plan):
        with pytest.raises(FaultInjected):
            _build(root, records)


def _crossed_points(root, records) -> dict:
    """How many times an uncrashed initial build reaches each point."""
    plan = faults.FaultPlan(
        [faults.FaultSpec(point, hit=10**9) for point in faults.INJECTION_POINTS]
    )
    with faults.active(plan):
        _build(root, records)
    return {
        point: plan.hits(point)
        for point in faults.INJECTION_POINTS
        if plan.hits(point)
    }


def _assert_pubstore_current(root, published) -> None:
    with ShardStore(root / "store") as store:
        generation = store.generation
    with PublicationStore(root / "pub") as pub:
        assert pub.current
        assert pub.generation == generation
        assert pub.verify_against(published)


def _crash_cases(crossed: dict) -> list:
    """The first and the last arrival at every crossed point."""
    return [
        (point, hit)
        for point, hits in sorted(crossed.items())
        for hit in sorted({1, hits})
    ]


class TestCrashRecoveryIdentity:
    @pytest.mark.parametrize("workload", ["quest", "zipf", "clickstream"])
    def test_rerun_after_crash_at_every_point(self, workload, workloads, tmp_path):
        """Kill the build at each point it crosses; the re-run matches the oracle."""
        records = workloads[workload]
        oracle = _cold(records)
        crossed = _crossed_points(tmp_path / "count", records)
        # The build crosses the store, the windows, the engine, the run
        # tail and the publication store.
        for point in ("store.open", "store.mutate", "stream.window",
                      "engine.vertical", "stream.merge", "stream.verify",
                      "pubstore.open", "pubstore.build"):
            assert point in crossed, point

        for point, hit in _crash_cases(crossed):
            root = tmp_path / f"{point.replace('.', '-')}-{hit}"
            _crash(root, records, point, hit)
            recovered, report = _build(root, records)
            assert _canonical(recovered) == oracle, (workload, point, hit)
            assert audit(recovered, k=PARAMS.k, m=PARAMS.m).ok
            # The mutation landed exactly once, wherever the crash hit.
            assert report.num_records == len(records), (workload, point, hit)
            _assert_pubstore_current(root, recovered)

    @pytest.mark.parametrize("workload", ["quest", "zipf"])
    def test_reconcile_only_run_finishes_build(self, workload, workloads, tmp_path):
        """Once the mutation committed, the re-run needs no input at all."""
        records = workloads[workload]
        oracle = _cold(records)
        crossed = _crossed_points(tmp_path / "count", records)
        for point, hit in _crash_cases(crossed):
            if point in BEFORE_MUTATION:
                continue
            root = tmp_path / f"{point.replace('.', '-')}-{hit}"
            _crash(root, records, point, hit)
            recovered, report = _build(root, delta_id=None)
            assert _canonical(recovered) == oracle, (workload, point, hit)
            assert report.appended == 0
            _assert_pubstore_current(root, recovered)

    def test_recovery_reuses_finished_windows(self, workloads, tmp_path):
        """A crash after every window committed re-runs no window."""
        records = workloads["quest"]
        _crash(tmp_path, records, "stream.merge", 1)
        recovered, report = _build(tmp_path, records)
        assert report.delta_replayed
        assert report.windows_recomputed == 0
        assert report.windows_reused == sum(report.shard_windows) > 0
        assert _canonical(recovered) == _cold(records)

    def test_crash_during_recovery_recovers_again(self, workloads, tmp_path):
        """A crash during the recovery itself leaves a recoverable store."""
        records = workloads["zipf"]
        _crash(tmp_path, records, "stream.window", 2)
        plan = faults.FaultPlan([faults.FaultSpec("stream.merge", hit=1)])
        with faults.active(plan):
            with pytest.raises(FaultInjected):
                _build(tmp_path, records)
        recovered, report = _build(tmp_path, records)
        assert report.windows_recomputed == 0
        assert _canonical(recovered) == _cold(records)
        _assert_pubstore_current(tmp_path, recovered)

    def test_recovery_with_changed_params_is_refused(self, workloads, tmp_path):
        """A re-run with other parameters must not splice into a crashed
        build; the store stays recoverable with the original ones."""
        records = workloads["quest"]
        _crash(tmp_path, records, "stream.merge", 1)
        other = AnonymizationParams(k=4, m=2, max_cluster_size=12)
        with pytest.raises(StoreError, match="output-affecting parameters"):
            IncrementalPipeline(other, _stream(tmp_path)).run(
                append=records, delta_id=LOAD
            )
        recovered, report = _build(tmp_path, records)
        assert report.delta_replayed
        assert _canonical(recovered) == _cold(records)
        _assert_pubstore_current(tmp_path, recovered)


class TestColdRunAfterCrash:
    @pytest.mark.parametrize("point", ["stream.window", "store.mutate"])
    def test_crashed_run_leaves_spill_dir_empty(self, point, workloads, tmp_path):
        """A cold run's store is throwaway: one that dies mid-run leaves its
        ``spill_dir`` empty, and the next run there publishes only its own
        records."""
        spill = StreamParams(shards=3, max_records_in_memory=100, spill_dir=tmp_path)
        plan = faults.FaultPlan([faults.FaultSpec(point, hit=1)])
        with faults.active(plan):
            with pytest.raises(FaultInjected):
                ShardedPipeline(PARAMS, spill).run(iter(workloads["quest"]))
        assert plan.hits(point) == 1
        assert not any(tmp_path.iterdir())
        records = workloads["zipf"]
        published = ShardedPipeline(PARAMS, spill).run(iter(records))
        assert _canonical(published) == _cold(records)
        assert published.total_records() == len(records)
        assert not any(tmp_path.iterdir())


class TestEnvDrivenFaults:
    """The CI fault matrix path: ``$REPRO_FAULTS`` arms the same harness."""

    @pytest.mark.skipif(
        not os.environ.get(faults.ENV_VAR),
        reason="set REPRO_FAULTS=point:N to run the env-armed crash matrix",
    )
    def test_env_armed_crash_then_recover(self, tmp_path):
        records = list(
            make_workload("quest", records=400, domain=100, avg_len=8.0, seed=11)
        )
        # Fresh counters, and the plan armed at import is disarmed so the
        # oracle and recovery runs are not themselves crashed.
        plan = faults.plan_from_env()
        assert plan is not None
        previous = faults.active_plan()
        faults.clear()
        try:
            oracle = _cold(records)
            with faults.active(plan):
                with pytest.raises(FaultInjected):
                    _build(tmp_path, records)
            recovered, _ = _build(tmp_path, records)
            assert _canonical(recovered) == oracle
            _assert_pubstore_current(tmp_path, recovered)
        finally:
            faults.install(previous)
