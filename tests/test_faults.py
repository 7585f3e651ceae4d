"""Unit tests for the deterministic fault-injection harness (``repro.faults``).

The resilience suites (``test_resilience.py``, ``test_service_resilience.py``)
exercise the harness end-to-end through the pipelines; this file pins down
the harness itself: trigger semantics, determinism across processes, the
``$REPRO_FAULTS`` grammar, and the arming lifecycle.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.exceptions import FaultInjected, ParameterError


class TestFaultSpec:
    def test_requires_exactly_one_trigger(self):
        with pytest.raises(ParameterError):
            faults.FaultSpec("stream.merge")
        with pytest.raises(ParameterError):
            faults.FaultSpec("stream.merge", hit=1, probability=0.5)

    def test_hit_is_one_based(self):
        with pytest.raises(ParameterError):
            faults.FaultSpec("stream.merge", hit=0)
        assert faults.FaultSpec("stream.merge", hit=1).hit == 1

    def test_probability_bounds(self):
        with pytest.raises(ParameterError):
            faults.FaultSpec("stream.merge", probability=0.0)
        with pytest.raises(ParameterError):
            faults.FaultSpec("stream.merge", probability=1.5)
        assert faults.FaultSpec("stream.merge", probability=1.0).probability == 1.0


#: Stand-ins for "some point" and "another point" in the plan tests.
P, Q = "stream.merge", "stream.verify"


class TestUnknownPoints:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: faults.FaultSpec("stream.windw", hit=2),
            lambda: faults.FaultSpec("p", probability=0.5),
            lambda: faults.FaultPlan.from_text("stream.windw:2"),
            lambda: faults.FaultPlan.from_text("stream.merge:1,stream.spil@0.5"),
            lambda: faults.plan_from_env({faults.ENV_VAR: "stream.spil:1"}),
            # retired with the JSONL spill: refused like any misspelling
            lambda: faults.FaultPlan.from_text("stream.plan:1"),
            lambda: faults.FaultPlan.from_text("stream.spill:1"),
        ],
        ids=[
            "spec-misspelled",
            "spec-placeholder",
            "text-misspelled",
            "text-second-trigger",
            "env-misspelled",
            "retired-stream.plan",
            "retired-stream.spill",
        ],
    )
    def test_unknown_point_is_refused_with_the_known_points(self, build):
        with pytest.raises(ParameterError, match="unknown fault injection point") as excinfo:
            build()
        for point in faults.INJECTION_POINTS:
            assert point in str(excinfo.value)


class TestFaultPlan:
    def test_nth_hit_fires_exactly_once(self):
        plan = faults.FaultPlan([faults.FaultSpec(P, hit=3)])
        plan.check(P)
        plan.check(P)
        with pytest.raises(FaultInjected) as excinfo:
            plan.check(P)
        assert excinfo.value.point == P
        assert excinfo.value.hit == 3
        assert excinfo.value.transient is True
        # the trigger is Nth-hit, not every-hit-from-N: later arrivals pass
        plan.check(P)
        assert plan.hits(P) == 4

    def test_unknown_points_are_free(self):
        plan = faults.FaultPlan([faults.FaultSpec(P, hit=1)])
        plan.check(Q)  # no trigger, no counter bump requirement
        with pytest.raises(FaultInjected):
            plan.check(P)

    def test_non_transient_flag_carries(self):
        plan = faults.FaultPlan([faults.FaultSpec(P, hit=1, transient=False)])
        with pytest.raises(FaultInjected) as excinfo:
            plan.check(P)
        assert excinfo.value.transient is False

    def test_probability_is_deterministic_per_seed(self):
        def fire_pattern(seed):
            plan = faults.FaultPlan(
                [faults.FaultSpec(P, probability=0.5)], seed=seed
            )
            pattern = []
            for _ in range(32):
                try:
                    plan.check(P)
                    pattern.append(False)
                except FaultInjected:
                    pattern.append(True)
            return pattern

        assert fire_pattern(7) == fire_pattern(7)
        assert fire_pattern(7) != fire_pattern(8)
        assert any(fire_pattern(7))

    def test_reset_rearms_counters(self):
        plan = faults.FaultPlan([faults.FaultSpec(P, hit=2)])
        plan.check(P)
        with pytest.raises(FaultInjected):
            plan.check(P)
        plan.reset()
        plan.check(P)  # first arrival again
        with pytest.raises(FaultInjected):
            plan.check(P)

    def test_describe_is_json_safe_summary(self):
        plan = faults.FaultPlan(
            [faults.FaultSpec(P, hit=1), faults.FaultSpec(Q, probability=0.5)],
            seed=3,
        )
        try:
            plan.check(P)
        except FaultInjected:
            pass
        summary = plan.describe()
        assert summary["seed"] == 3
        assert set(summary["triggers"]) == {P, Q}
        assert summary["hits"] == {P: 1}


class TestFromText:
    def test_grammar(self):
        plan = faults.FaultPlan.from_text("stream.merge:2, engine.refine@0.25,store.open")
        assert plan.points() == ["engine.refine", "store.open", "stream.merge"]
        with pytest.raises(FaultInjected):  # bare token means first hit
            plan.check("store.open")

    def test_malformed_triggers_rejected(self):
        with pytest.raises(ParameterError):
            faults.FaultPlan.from_text("stream.merge:soon")
        with pytest.raises(ParameterError):
            faults.FaultPlan.from_text("stream.merge@often")

    def test_empty_text_yields_empty_plan(self):
        assert faults.FaultPlan.from_text("").points() == []


class TestEnvArming:
    def test_plan_from_env(self):
        plan = faults.plan_from_env(
            {faults.ENV_VAR: "stream.window:2", faults.ENV_SEED_VAR: "9"}
        )
        assert plan is not None
        assert plan.points() == ["stream.window"]
        assert plan.seed == 9

    def test_unset_or_blank_disarms(self):
        assert faults.plan_from_env({}) is None
        assert faults.plan_from_env({faults.ENV_VAR: "  "}) is None


class TestLifecycle:
    def test_checks_are_noops_without_a_plan(self):
        previous = faults.active_plan()
        faults.clear()
        try:
            for point in faults.INJECTION_POINTS:
                faults.check(point)
        finally:
            faults.install(previous)

    def test_active_scopes_and_restores(self):
        previous = faults.active_plan()
        plan = faults.FaultPlan([faults.FaultSpec(P, hit=1)])
        with faults.active(plan):
            assert faults.active_plan() is plan
            with pytest.raises(FaultInjected):
                faults.check(P)
        assert faults.active_plan() is previous

    def test_injection_point_registry_matches_plan_points(self):
        # every documented point parses and arms cleanly
        text = ",".join(f"{point}:1" for point in faults.INJECTION_POINTS)
        plan = faults.FaultPlan.from_text(text)
        assert plan.points() == sorted(faults.INJECTION_POINTS)
