"""Unit tests for the k^m-anonymity machinery (repro.core.anonymity)."""

from __future__ import annotations

import pytest

from repro.core.anonymity import (
    combination_supports,
    find_all_km_violations,
    find_km_violation,
    is_k_anonymous,
    is_km_anonymous,
    validate_km_parameters,
)
from repro.exceptions import ParameterError
from tests.reference.anonymity import IncrementalChunkChecker


def records(*groups):
    return [frozenset(group) for group in groups]


class TestValidateParameters:
    @pytest.mark.parametrize("k,m", [(1, 1), (5, 2), (100, 4)])
    def test_valid_parameters(self, k, m):
        validate_km_parameters(k, m)  # should not raise

    @pytest.mark.parametrize("k,m", [(0, 2), (-1, 2), (2, 0), (2, -3)])
    def test_invalid_parameters(self, k, m):
        with pytest.raises(ParameterError):
            validate_km_parameters(k, m)

    def test_non_integer_parameters(self):
        with pytest.raises(ParameterError):
            validate_km_parameters(2.5, 2)


class TestCombinationSupports:
    def test_counts_singletons(self):
        counts = combination_supports(records({"a"}, {"a"}, {"b"}), m=1)
        assert counts[("a",)] == 2
        assert counts[("b",)] == 1

    def test_counts_pairs(self):
        counts = combination_supports(records({"a", "b"}, {"a", "b"}, {"a"}), m=2)
        assert counts[("a", "b")] == 2
        assert counts[("a",)] == 3

    def test_ignores_combinations_larger_than_m(self):
        counts = combination_supports(records({"a", "b", "c"}), m=2)
        assert ("a", "b", "c") not in counts
        assert counts[("a", "b")] == 1

    def test_empty_records_are_skipped(self):
        counts = combination_supports([frozenset(), frozenset({"a"})], m=2)
        assert counts[("a",)] == 1
        assert len(counts) == 1

    def test_absent_combination_not_reported(self):
        counts = combination_supports(records({"a"}, {"b"}), m=2)
        assert ("a", "b") not in counts


class TestIsKmAnonymous:
    def test_paper_chunk_c1_is_3_2_anonymous(self):
        # chunk C1 of cluster P1 in Figure 2b
        chunk = records(
            {"itunes", "flu", "madonna"},
            {"madonna", "flu"},
            {"itunes", "madonna"},
            {"itunes", "flu"},
            {"itunes", "flu", "madonna"},
        )
        assert is_km_anonymous(chunk, k=3, m=2)

    def test_paper_chunk_c2_is_3_2_anonymous(self):
        chunk = records({"audi a4", "sony tv"}, {"audi a4", "sony tv"}, {"audi a4", "sony tv"})
        assert is_km_anonymous(chunk, k=3, m=2)

    def test_rare_pair_violates(self):
        chunk = records({"a", "b"}, {"a"}, {"a"}, {"b"}, {"b"})
        assert not is_km_anonymous(chunk, k=2, m=2)

    def test_rare_singleton_violates(self):
        chunk = records({"a"}, {"a"}, {"b"})
        assert not is_km_anonymous(chunk, k=2, m=1)

    def test_empty_chunk_is_anonymous(self):
        assert is_km_anonymous([], k=5, m=2)

    def test_all_empty_subrecords_is_anonymous(self):
        assert is_km_anonymous([frozenset(), frozenset()], k=5, m=2)

    def test_k_equal_one_always_holds(self):
        chunk = records({"a", "b"}, {"c"})
        assert is_km_anonymous(chunk, k=1, m=3)

    def test_m_larger_than_records_only_checks_existing_sizes(self):
        chunk = records({"a"}, {"a"}, {"a"})
        assert is_km_anonymous(chunk, k=3, m=5)

    def test_duplicate_subrecords_count_separately(self):
        chunk = records({"a", "b"}) * 1 + records({"a", "b"}, {"a", "b"})
        assert is_km_anonymous(chunk, k=3, m=2)


class TestFindViolations:
    def test_returns_none_when_anonymous(self):
        assert find_km_violation(records({"a"}, {"a"}), k=2, m=2) is None

    def test_returns_worst_violation(self):
        chunk = records({"a", "b"}, {"a"}, {"a"}, {"b"})
        itemset, support = find_km_violation(chunk, k=3, m=2)
        assert itemset == ("a", "b")
        assert support == 1

    def test_find_all_violations_lists_every_offender(self):
        chunk = records({"a", "b"}, {"c"})
        violations = find_all_km_violations(chunk, k=2, m=2)
        assert ("a",) in violations
        assert ("a", "b") in violations
        assert ("c",) in violations

    def test_find_all_violations_empty_when_anonymous(self):
        chunk = records({"a"}, {"a"}, {"a"})
        assert find_all_km_violations(chunk, k=3, m=2) == {}


class TestIsKAnonymous:
    def test_identical_subrecords(self):
        assert is_k_anonymous(records({"a", "b"}, {"a", "b"}, {"a", "b"}), k=3)

    def test_distinct_subrecord_below_k(self):
        assert not is_k_anonymous(records({"a", "b"}, {"a", "b"}, {"a"}), k=2)

    def test_empty_subrecords_ignored(self):
        assert is_k_anonymous([frozenset(), frozenset({"a"}), frozenset({"a"})], k=2)

    def test_k_anonymous_implies_km_anonymous_for_these_records(self):
        chunk = records({"a", "b"}, {"a", "b"}, {"a", "b"})
        assert is_k_anonymous(chunk, k=3)
        assert is_km_anonymous(chunk, k=3, m=2)


class TestIncrementalChunkChecker:
    def test_accepts_frequent_term(self):
        checker = IncrementalChunkChecker(records({"a"}, {"a"}, {"a"}), k=3, m=2)
        assert checker.try_add("a")
        assert checker.accepted_terms == frozenset({"a"})

    def test_rejects_rare_term(self):
        checker = IncrementalChunkChecker(records({"a"}, {"a"}, {"b"}), k=2, m=2)
        assert not checker.try_add("b")
        assert checker.accepted_terms == frozenset()

    def test_rejects_term_creating_rare_pair(self):
        cluster = records({"a", "b"}, {"a"}, {"a"}, {"b"}, {"b"})
        checker = IncrementalChunkChecker(cluster, k=2, m=2)
        assert checker.try_add("a")
        # "b" alone is frequent, but the pair (a, b) appears only once
        assert not checker.try_add("b")

    def test_incremental_matches_full_check(self):
        cluster = records(
            {"a", "b", "c"}, {"a", "b"}, {"a", "c"}, {"a", "b", "c"}, {"b", "c"}
        )
        checker = IncrementalChunkChecker(cluster, k=2, m=2)
        accepted = [t for t in ["a", "b", "c"] if checker.try_add(t)]
        projections = [r & frozenset(accepted) for r in cluster]
        assert is_km_anonymous([p for p in projections if p], k=2, m=2)

    def test_projections_track_accepted_terms(self):
        cluster = records({"a", "b"}, {"a"}, {"a", "b"})
        checker = IncrementalChunkChecker(cluster, k=2, m=2)
        checker.try_add("a")
        checker.try_add("b")
        assert checker.projections() == [
            frozenset({"a", "b"}),
            frozenset({"a"}),
            frozenset({"a", "b"}),
        ]

    def test_adding_same_term_twice_is_idempotent(self):
        checker = IncrementalChunkChecker(records({"a"}, {"a"}), k=2, m=2)
        assert checker.try_add("a")
        assert checker.try_add("a")
        assert checker.accepted_terms == frozenset({"a"})

    def test_would_remain_anonymous_does_not_mutate(self):
        checker = IncrementalChunkChecker(records({"a"}, {"a"}), k=2, m=2)
        assert checker.would_remain_anonymous("a")
        assert checker.accepted_terms == frozenset()

    def test_reset_clears_state(self):
        checker = IncrementalChunkChecker(records({"a"}, {"a"}), k=2, m=2)
        checker.try_add("a")
        checker.reset()
        assert checker.accepted_terms == frozenset()
        assert all(p == frozenset() for p in checker.projections())

    def test_invalid_parameters_raise(self):
        with pytest.raises(ParameterError):
            IncrementalChunkChecker(records({"a"}), k=0, m=2)
