"""Fast-path coverage for the incremental REFINE/HORPART subsystems.

The profile-guided overhaul (memoized merge rejections, cached per-leaf
masks, zero-recount HORPART splits)
promises **bit-for-bit identical output** to the reference formulations.
This suite is that promise's enforcement:

* a randomized equivalence sweep over three workload shapes (QUEST
  market-basket, Zipf basket, session click-stream) comparing the old
  (reference-driver, string-selector) and new pipelines end to end,
* unit tests for the memoization (including invalidation after a
  successful merge), for :meth:`BitsetChunkChecker.remove`, and for the
  short-circuiting ``is_km_anonymous``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.anonymity import (
    BitsetChunkChecker,
    find_km_violation,
    is_km_anonymous,
)
from repro.core.clusters import SimpleCluster, TermChunk
from repro.core.dataset import TransactionDataset
from repro.core.engine import AnonymizationParams, Disassociator
from repro.core.horizontal import horizontal_partition_indices
from repro.core.refine import MergeMemo, RefineStats, _ProjectionClasses, refine, try_merge
from repro.core.vocab import EncodedDataset
from repro.datasets.quest import generate_quest
from repro.datasets.scenarios import generate_clickstream, generate_zipf_basket
from tests.reference.engine import ReferenceDisassociator
from tests.reference.horizontal import horizontal_partition
from tests.reference.refine import _candidate_is_k_anonymous, _refine_reference
from tests.reference.vertical import vertical_partition


# --------------------------------------------------------------------------- #
# scenario datasets (small enough for CI, shaped like the real workloads)
# --------------------------------------------------------------------------- #
def _scenario_dataset(name: str, seed: int) -> TransactionDataset:
    if name == "quest":
        return generate_quest(
            num_transactions=400, domain_size=120, avg_transaction_size=6.0, seed=seed
        )
    if name == "zipf":
        return generate_zipf_basket(
            num_transactions=400, domain_size=150, avg_basket_size=5.0, seed=seed
        )
    if name == "clickstream":
        return generate_clickstream(
            num_sessions=400,
            num_pages=150,
            num_sections=6,
            avg_session_length=5.0,
            seed=seed,
        )
    raise AssertionError(name)


SCENARIOS = ("quest", "zipf", "clickstream")


def _verpart_clusters(dataset: TransactionDataset, k: int, m: int, size: int):
    return [
        vertical_partition(part, k, m, label=f"P{index}").cluster
        for index, part in enumerate(horizontal_partition(dataset, size))
    ]


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_horizontal_old_vs_new(self, scenario, seed):
        dataset = _scenario_dataset(scenario, seed)
        reference = horizontal_partition(dataset, 25)
        encoded = EncodedDataset.from_dataset(dataset)
        index_parts = horizontal_partition_indices(encoded, 25)
        records = list(dataset)
        assert [list(part) for part in reference] == [
            [records[i] for i in part] for part in index_parts
        ]

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_refine_old_vs_new(self, scenario, seed):
        dataset = _scenario_dataset(scenario, seed)
        reference = _refine_reference(
            _verpart_clusters(dataset, 3, 2, 20),
            3,
            2,
            max_join_size=160,
        )
        stats = RefineStats()
        optimized = refine(
            _verpart_clusters(dataset, 3, 2, 20),
            3,
            2,
            max_join_size=160,
            stats=stats,
        )
        assert [c.to_dict() for c in reference] == [c.to_dict() for c in optimized]
        # the memo must actually be exercised on multi-pass runs
        if stats.passes > 2:
            assert stats.skipped_by_memo > 0

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_full_pipeline_old_vs_new(self, scenario):
        dataset = _scenario_dataset(scenario, 2)
        params = AnonymizationParams(k=3, m=2, max_cluster_size=20)
        old = ReferenceDisassociator(params).anonymize(dataset)
        new = Disassociator(params).anonymize(dataset)
        assert old.to_dict() == new.to_dict()

    def test_random_fuzz_refine(self):
        rng = random.Random(99)
        vocabulary = [f"t{i}" for i in range(60)]
        for trial in range(3):
            records = [
                frozenset(rng.sample(vocabulary, rng.randint(1, 6)))
                for _ in range(200)
            ]
            dataset = TransactionDataset(records)
            reference = _refine_reference(
                _verpart_clusters(dataset, 2, 2, 12),
                2,
                2,
            )
            optimized = refine(_verpart_clusters(dataset, 2, 2, 12), 2, 2)
            assert [c.to_dict() for c in reference] == [
                c.to_dict() for c in optimized
            ], f"trial {trial}"


class TestMergeMemo:
    def _pair(self):
        left = SimpleCluster(
            3,
            [],
            TermChunk({"a", "b"}),
            label="L",
            original_records=[{"a"}, {"a", "b"}, {"b"}],
        )
        right = SimpleCluster(
            3,
            [],
            TermChunk({"a", "c"}),
            label="R",
            original_records=[{"a"}, {"a", "c"}, {"c"}],
        )
        return left, right

    def test_rejections_are_symmetric(self):
        left, right = self._pair()
        memo = MergeMemo()
        memo.record_rejection(left, right)
        assert memo.is_rejected(left, right)
        assert memo.is_rejected(right, left)
        assert len(memo) == 1

    def test_memo_invalidated_after_successful_merge(self):
        left, right = self._pair()
        memo = MergeMemo()
        memo.record_rejection(left, right)
        # a successful merge lifts terms out of the members' term chunks;
        # simulate it on `left` and check the stale rejection misses
        left.term_chunk = TermChunk(left.term_chunk.terms - {"a"})
        assert not memo.is_rejected(left, right)
        # ... and is re-recordable for the new state
        memo.record_rejection(left, right)
        assert memo.is_rejected(left, right)
        assert len(memo) == 2

    def test_driver_reattempts_after_merge(self):
        # End-to-end: a successful merge lifts terms out of the members'
        # term chunks, so neither the new joint nor the (mutated) members
        # can be shadowed by rejections recorded for their old states.
        a = SimpleCluster(
            3, [], TermChunk({"x", "y"}), label="A",
            original_records=[{"x", "y"}, {"x"}, {"x", "y"}],
        )
        b = SimpleCluster(
            3, [], TermChunk({"x", "z"}), label="B",
            original_records=[{"x", "z"}, {"x", "z"}, {"x"}],
        )
        memo = MergeMemo()
        memo.record_rejection(a, b)  # as if an earlier pass rejected them
        outcome = try_merge(a, b, k=2, m=2)
        assert outcome.joint is not None
        assert "x" in outcome.refining_terms
        # the members' fingerprints moved with their term chunks: the stale
        # rejection no longer matches them, nor the new joint
        assert not memo.is_rejected(a, b)
        assert not memo.is_rejected(outcome.joint, a)


class TestCheckerRemoval:
    MASKS = {
        "a": 0b111111,
        "b": 0b001111,
        "c": 0b111100,
    }

    def test_remove_shrinks_accepted_terms(self):
        checker = BitsetChunkChecker(self.MASKS, k=2, m=2)
        assert checker.try_add("a") and checker.try_add("b") and checker.try_add("c")
        checker.remove("b")
        assert checker.accepted_terms == frozenset({"a", "c"})
        checker.remove("b")  # no-op
        assert checker.accepted_terms == frozenset({"a", "c"})

    def test_removal_preserves_anonymity_decisions(self):
        checker = BitsetChunkChecker(self.MASKS, k=2, m=2)
        checker.try_add("a")
        checker.try_add("b")
        checker.remove("b")
        # after removal the checker behaves like one that never saw "b"
        fresh = BitsetChunkChecker(self.MASKS, k=2, m=2)
        fresh.try_add("a")
        for term in ("b", "c"):
            assert checker.would_remain_anonymous(term) == fresh.would_remain_anonymous(
                term
            )

    def test_readd_after_remove(self):
        checker = BitsetChunkChecker(self.MASKS, k=2, m=2)
        checker.try_add("a")
        checker.remove("a")
        assert checker.accepted_terms == frozenset()
        assert checker.try_add("a")
        assert checker.accepted_terms == frozenset({"a"})


class TestProjectionClasses:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_check(self, seed):
        """The bitmask class split must decide exactly like the reference
        per-row projection count (kept as ``_candidate_is_k_anonymous``)."""
        rng = random.Random(seed)
        num_rows = 24
        terms = [f"t{i}" for i in range(6)]
        masks = {
            t: rng.getrandbits(num_rows) | (1 << rng.randrange(num_rows))
            for t in terms
        }
        accepted: list = []
        classes = _ProjectionClasses(num_rows)
        projections: list = [set() for _ in range(num_rows)]
        k = rng.randint(2, 4)
        for term in terms:
            expected = _candidate_is_k_anonymous(projections, masks[term], term, k)
            assert classes.k_anonymous_with(masks[term], k) == expected
            if expected:
                accepted.append(term)
                classes.split_on(masks[term])
                for row in range(num_rows):
                    if (masks[term] >> row) & 1:
                        projections[row].add(term)


class TestShortCircuitKm:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_search(self, seed):
        rng = random.Random(seed)
        terms = [f"t{i}" for i in range(12)]
        records = [
            frozenset(rng.sample(terms, rng.randint(1, 5))) for _ in range(40)
        ]
        k = rng.randint(2, 4)
        m = rng.randint(1, 3)
        assert is_km_anonymous(records, k, m) == (
            find_km_violation(records, k, m) is None
        )

    def test_short_circuit_detects_rare_pair(self):
        records = [frozenset({"a", "b"})] + [frozenset({"a"})] * 10 + [
            frozenset({"b"})
        ] * 10
        assert not is_km_anonymous(records, k=2, m=2)
        assert is_km_anonymous(records, k=2, m=1)

    def test_empty_and_trivial_inputs(self):
        assert is_km_anonymous([], k=3, m=2)
        assert is_km_anonymous([frozenset()] * 5, k=3, m=2)
        assert not is_km_anonymous([frozenset({"x"})], k=2, m=2)
