"""Crash/recovery tests for checkpointed sharded runs.

The contract under test: a checkpointed streaming run killed at *any*
injection point can be resumed from the durable manifest in ``spill_dir``
and produce a publication **bit-for-bit identical** to an uninterrupted
run -- completed shards are loaded from their snapshots instead of
re-executed, and incompatible resumes (changed parameters, foreign or
corrupt manifests) are refused with :class:`CheckpointError` instead of
silently splicing mismatched partial results.

Crashes are injected deterministically with :mod:`repro.faults`; the CI
fault matrix re-runs a subset of this file with ``$REPRO_FAULTS`` armed to
prove the env path drives the same harness.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import faults
from repro.core.engine import AnonymizationParams
from repro.core.verification import audit
from repro.exceptions import CheckpointError, FaultInjected, ParameterError
from repro.stream import RunManifest, ShardedPipeline, StreamParams
from tests.conftest import make_workload

PARAMS = AnonymizationParams(k=3, m=2, max_cluster_size=12)

#: (injection point, hit) pairs covering every phase a streaming run can
#: die in: planning, spilling, each window, the checkpoint write itself,
#: the merge, the global repair, and inside the engine mid-window.
CRASH_POINTS = [
    ("stream.plan", 1),
    ("stream.spill", 2),
    ("stream.window", 2),
    ("stream.checkpoint", 1),
    ("stream.merge", 1),
    ("stream.verify", 1),
    ("engine.vertical", 2),
]


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
    """Three paper-shaped workloads, small enough for 20+ crash/resume runs."""
    return _workloads()


def _stream(spill_dir) -> StreamParams:
    return StreamParams(shards=3, max_records_in_memory=100, spill_dir=spill_dir)


def _publish(records, spill_dir, *, resume=False):
    pipeline = ShardedPipeline(PARAMS, _stream(spill_dir))
    published = pipeline.run(iter(records), resume=resume)
    return published, pipeline.last_report


def _canonical(published) -> str:
    return json.dumps(published.to_dict(), sort_keys=True)


class TestCrashResumeIdentity:
    @pytest.mark.parametrize("workload", ["quest", "zipf", "clickstream"])
    def test_resume_after_crash_at_every_point(self, workload, workloads, tmp_path):
        """Kill at each injection point; resume must match the oracle exactly."""
        records = list(workloads[workload])
        oracle, _ = _publish(records, tmp_path / "oracle")
        oracle_json = _canonical(oracle)
        assert audit(oracle, k=PARAMS.k, m=PARAMS.m).ok

        for point, hit in CRASH_POINTS:
            spill_dir = tmp_path / f"crash-{point.replace('.', '-')}"
            plan = faults.FaultPlan([faults.FaultSpec(point, hit=hit)])
            with faults.active(plan):
                with pytest.raises(FaultInjected):
                    _publish(records, spill_dir)
            resumed, report = _publish(records, spill_dir, resume=True)
            assert _canonical(resumed) == oracle_json, (workload, point)
            # A crash before the spill completed leaves nothing trustworthy
            # to adopt, so those resumes deliberately restart from scratch.
            expect_adopted = point not in ("stream.plan", "stream.spill")
            assert report.resumed == expect_adopted, (workload, point)

    def test_resume_skips_completed_shards(self, workloads, tmp_path):
        records = list(workloads["quest"])
        plan = faults.FaultPlan([faults.FaultSpec("stream.merge", hit=1)])
        with faults.active(plan):
            with pytest.raises(FaultInjected):
                _publish(records, tmp_path)
        _, report = _publish(records, tmp_path, resume=True)
        # every shard finished before the merge crash: none re-runs
        assert report.shards_skipped == 3
        assert report.resumed

    def test_records_free_resume_after_spill_completed(self, workloads, tmp_path):
        """Once spill_complete, a resume needs no access to the input."""
        records = list(workloads["quest"])
        oracle, _ = _publish(records, tmp_path / "oracle")
        spill_dir = tmp_path / "crashed"
        plan = faults.FaultPlan([faults.FaultSpec("stream.window", hit=2)])
        with faults.active(plan):
            with pytest.raises(FaultInjected):
                _publish(records, spill_dir)
        pipeline = ShardedPipeline(PARAMS, _stream(spill_dir))
        resumed = pipeline.run(resume=True)  # no records at all
        assert _canonical(resumed) == _canonical(oracle)

    def test_interrupted_resume_resumes_again(self, workloads, tmp_path):
        """A crash during the resume itself leaves a resumable checkpoint."""
        records = list(workloads["zipf"])
        oracle, _ = _publish(records, tmp_path / "oracle")
        spill_dir = tmp_path / "crashed"
        with faults.active(
            faults.FaultPlan([faults.FaultSpec("stream.window", hit=1)])
        ):
            with pytest.raises(FaultInjected):
                _publish(records, spill_dir)
        with faults.active(
            faults.FaultPlan([faults.FaultSpec("stream.merge", hit=1)])
        ):
            with pytest.raises(FaultInjected):
                _publish(records, spill_dir, resume=True)
        resumed, _ = _publish(records, spill_dir, resume=True)
        assert _canonical(resumed) == _canonical(oracle)


class TestCheckpointValidation:
    def test_resume_requires_checkpointing(self, workloads):
        pipeline = ShardedPipeline(
            PARAMS, StreamParams(shards=3, max_records_in_memory=100)
        )
        with pytest.raises(ParameterError):
            pipeline.run(iter(workloads["quest"]), resume=True)

    def test_checkpoint_true_requires_spill_dir(self):
        with pytest.raises(ParameterError):
            StreamParams(shards=3, max_records_in_memory=100, checkpoint=True)

    def test_checkpoint_false_disables_manifest(self, workloads, tmp_path):
        pipeline = ShardedPipeline(
            PARAMS,
            StreamParams(
                shards=3,
                max_records_in_memory=100,
                spill_dir=tmp_path,
                checkpoint=False,
            ),
        )
        pipeline.run(iter(workloads["quest"]))
        assert not RunManifest.path(tmp_path).exists()

    def test_resume_from_empty_dir(self, workloads, tmp_path):
        """No manifest: with records the resume degrades to a fresh run
        (same as crashing before the first checkpoint); without records
        there is nothing to run at all, which must be an error."""
        published, report = _publish(list(workloads["quest"]), tmp_path, resume=True)
        assert not report.resumed
        assert audit(published, k=PARAMS.k, m=PARAMS.m).ok
        pipeline = ShardedPipeline(PARAMS, _stream(tmp_path / "empty"))
        with pytest.raises(CheckpointError):
            pipeline.run(resume=True)  # records-free resume needs a manifest

    def test_resume_with_changed_params_fails(self, workloads, tmp_path):
        records = list(workloads["quest"])
        with faults.active(
            faults.FaultPlan([faults.FaultSpec("stream.merge", hit=1)])
        ):
            with pytest.raises(FaultInjected):
                _publish(records, tmp_path)
        pipeline = ShardedPipeline(
            AnonymizationParams(k=4, m=2, max_cluster_size=12), _stream(tmp_path)
        )
        with pytest.raises(CheckpointError):
            pipeline.run(iter(records), resume=True)

    def test_resume_from_manifest_with_retired_knob(self, workloads, tmp_path):
        """A manifest written while ``packed_min_rows`` existed still
        resumes: the retired, output-neutral key is ignored."""
        records = list(workloads["quest"])
        oracle, _ = _publish(records, tmp_path / "oracle")
        spill_dir = tmp_path / "crashed"
        with faults.active(
            faults.FaultPlan([faults.FaultSpec("stream.merge", hit=1)])
        ):
            with pytest.raises(FaultInjected):
                _publish(records, spill_dir)
        manifest = RunManifest.load(spill_dir)
        manifest.fingerprint["params.packed_min_rows"] = None
        manifest.save(spill_dir)
        resumed, report = _publish(records, spill_dir, resume=True)
        assert report.resumed
        assert _canonical(resumed) == _canonical(oracle)

    def test_resume_over_corrupt_manifest_fails(self, workloads, tmp_path):
        records = list(workloads["quest"])
        with faults.active(
            faults.FaultPlan([faults.FaultSpec("stream.merge", hit=1)])
        ):
            with pytest.raises(FaultInjected):
                _publish(records, tmp_path)
        RunManifest.path(tmp_path).write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointError):
            _publish(records, tmp_path, resume=True)

    def test_fresh_run_invalidates_previous_manifest(self, workloads, tmp_path):
        """A non-resume run must never leave a stale manifest resumable."""
        records = list(workloads["quest"])
        _publish(records, tmp_path)  # leaves a completed manifest
        plan = faults.FaultPlan([faults.FaultSpec("stream.spill", hit=1)])
        with faults.active(plan):
            with pytest.raises(FaultInjected):
                _publish(records, tmp_path)  # fresh run dies mid-spill
        manifest = RunManifest.load(tmp_path)
        assert manifest is None  # the old manifest is gone, not resurrected


class TestEnvDrivenFaults:
    """The CI fault matrix path: ``$REPRO_FAULTS`` arms the same harness."""

    @pytest.mark.skipif(
        not os.environ.get(faults.ENV_VAR),
        reason="set REPRO_FAULTS=point:N to run the env-armed crash matrix",
    )
    def test_env_armed_crash_then_resume(self, tmp_path):
        records = list(
            make_workload("quest", records=400, domain=100, avg_len=8.0, seed=11)
        )
        # Fresh counters, and the plan armed at import is disarmed so the
        # oracle and resume runs are not themselves crashed.
        plan = faults.plan_from_env()
        assert plan is not None
        previous = faults.active_plan()
        faults.clear()
        try:
            oracle, _ = _publish(records, tmp_path / "oracle")
            spill_dir = tmp_path / "crashed"
            with faults.active(plan):
                with pytest.raises(FaultInjected):
                    _publish(records, spill_dir)
            resumed, _ = _publish(records, spill_dir, resume=True)
            assert _canonical(resumed) == _canonical(oracle)
        finally:
            faults.install(previous)
