"""Unit tests for the transactional dataset substrate (repro.core.dataset)."""

from __future__ import annotations

import pytest

from repro.core.dataset import (
    DatasetStats,
    TransactionDataset,
    jaccard_similarity,
    normalize_record,
)
from repro.exceptions import DatasetError


class TestNormalizeRecord:
    def test_converts_terms_to_strings(self):
        assert normalize_record([1, 2, 3]) == frozenset({"1", "2", "3"})

    def test_deduplicates_terms(self):
        assert normalize_record(["a", "a", "b"]) == frozenset({"a", "b"})

    def test_empty_record_rejected_by_default(self):
        with pytest.raises(DatasetError):
            normalize_record([])

    def test_empty_record_allowed_when_requested(self):
        assert normalize_record([], allow_empty=True) == frozenset()

    def test_non_iterable_record_rejected(self):
        with pytest.raises(DatasetError):
            normalize_record(42)


class TestConstructionAndContainer:
    def test_len_counts_records(self, paper_dataset):
        assert len(paper_dataset) == 10

    def test_iteration_yields_frozensets(self, paper_dataset):
        assert all(isinstance(record, frozenset) for record in paper_dataset)

    def test_indexing_returns_record(self, tiny_dataset):
        assert tiny_dataset[0] == frozenset({"a", "b"})

    def test_slicing_returns_dataset(self, tiny_dataset):
        subset = tiny_dataset[:2]
        assert isinstance(subset, TransactionDataset)
        assert len(subset) == 2

    def test_duplicate_records_are_preserved(self):
        dataset = TransactionDataset([{"x"}, {"x"}])
        assert len(dataset) == 2

    def test_equality_is_order_sensitive(self):
        a = TransactionDataset([{"x"}, {"y"}])
        b = TransactionDataset([{"y"}, {"x"}])
        assert a != b
        assert a == TransactionDataset([{"x"}, {"y"}])

    def test_records_property_is_immutable_copy(self, tiny_dataset):
        records = tiny_dataset.records
        assert isinstance(records, tuple)
        assert len(records) == len(tiny_dataset)

    def test_empty_record_in_input_raises(self):
        with pytest.raises(DatasetError):
            TransactionDataset([{"a"}, set()])

    def test_normal_records_are_stored_as_given(self):
        """Records the readers already normalized are not rebuilt."""
        record = frozenset({"a", "b"})
        dataset = TransactionDataset([record, ["a", 1]])
        assert dataset[0] is record
        assert dataset[1] == frozenset({"a", "1"})

    @pytest.mark.parametrize("record", [frozenset(), 42, None])
    def test_empty_or_non_iterable_record_raises(self, record):
        with pytest.raises(DatasetError):
            TransactionDataset([frozenset({"a"}), record])

    def test_allow_empty_accepts_empty_frozenset(self):
        dataset = TransactionDataset([frozenset(), frozenset({"a"})], allow_empty=True)
        assert list(dataset) == [frozenset(), frozenset({"a"})]

    def test_repr_mentions_size_and_domain(self, tiny_dataset):
        assert "n=6" in repr(tiny_dataset)


class TestDomainAndSupports:
    def test_domain_is_union_of_terms(self, tiny_dataset):
        assert tiny_dataset.domain == frozenset({"a", "b", "c", "d"})

    def test_term_supports_counts_records(self, tiny_dataset):
        supports = tiny_dataset.term_supports()
        assert supports["a"] == 5
        assert supports["b"] == 5
        assert supports["c"] == 3
        assert supports["d"] == 1

    def test_term_supports_returns_copy(self, tiny_dataset):
        supports = tiny_dataset.term_supports()
        supports["a"] = 999
        assert tiny_dataset.term_supports()["a"] == 5

    def test_support_of_pair(self, tiny_dataset):
        assert tiny_dataset.support({"a", "b"}) == 4

    def test_support_of_missing_combination_is_zero(self, tiny_dataset):
        assert tiny_dataset.support({"c", "d"}) == 0

    def test_support_of_empty_itemset_is_dataset_size(self, tiny_dataset):
        assert tiny_dataset.support(set()) == len(tiny_dataset)

    def test_support_of_unknown_term_is_zero(self, tiny_dataset):
        assert tiny_dataset.support({"zzz"}) == 0

    def test_terms_by_support_descending(self, tiny_dataset):
        ordered = tiny_dataset.terms_by_support()
        assert ordered[0] in {"a", "b"}
        assert ordered[-1] == "d"

    def test_terms_by_support_ascending(self, tiny_dataset):
        ordered = tiny_dataset.terms_by_support(descending=False)
        assert ordered[0] == "d"

    def test_most_frequent_term(self, tiny_dataset):
        assert tiny_dataset.most_frequent_term() == "a"  # tie a/b broken alphabetically

    def test_most_frequent_term_with_exclusion(self, tiny_dataset):
        assert tiny_dataset.most_frequent_term(exclude={"a"}) == "b"

    def test_most_frequent_term_all_excluded(self, tiny_dataset):
        assert tiny_dataset.most_frequent_term(exclude=tiny_dataset.domain) is None


class TestStats:
    def test_stats_match_paper_format(self, paper_dataset):
        stats = paper_dataset.stats()
        assert stats.num_records == 10
        assert stats.domain_size == 12
        assert stats.max_record_size == 6
        assert stats.avg_record_size == pytest.approx(4.4, abs=0.01)

    def test_stats_of_empty_dataset(self):
        assert TransactionDataset([]).stats() == DatasetStats(0, 0, 0, 0.0)

    def test_stats_row_rendering(self, paper_dataset):
        row = paper_dataset.stats().as_row()
        assert "|D|=10" in row and "|T|=12" in row


class TestTransformations:
    def test_project_keeps_only_given_terms(self, tiny_dataset):
        projected = tiny_dataset.project({"a"})
        assert projected.domain == frozenset({"a"})
        assert len(projected) == len(tiny_dataset)

    def test_project_keeps_empty_projections(self, tiny_dataset):
        projected = tiny_dataset.project({"d"})
        assert sum(1 for record in projected if not record) == 5

    def test_split_on_term_partitions_records(self, tiny_dataset):
        with_a, without_a = tiny_dataset.split_on_term("a")
        assert len(with_a) == 5
        assert len(without_a) == 1
        assert all("a" in record for record in with_a)
        assert all("a" not in record for record in without_a)

    def test_split_preserves_total(self, paper_dataset):
        with_term, without_term = paper_dataset.split_on_term("madonna")
        assert len(with_term) + len(without_term) == len(paper_dataset)

    def test_filter_records(self, tiny_dataset):
        filtered = tiny_dataset.filter_records(lambda r: "d" in r)
        assert len(filtered) == 1

    def test_sample_is_deterministic_given_seed(self, paper_dataset):
        assert paper_dataset.sample(4, seed=1) == paper_dataset.sample(4, seed=1)

    def test_sample_larger_than_dataset_returns_all(self, tiny_dataset):
        assert len(tiny_dataset.sample(100, seed=0)) == len(tiny_dataset)

    def test_shuffled_preserves_multiset_of_records(self, paper_dataset):
        shuffled = paper_dataset.shuffled(seed=3)
        assert sorted(map(sorted, shuffled)) == sorted(map(sorted, paper_dataset))

    def test_concat_appends_records(self, tiny_dataset):
        combined = tiny_dataset.concat(tiny_dataset)
        assert len(combined) == 2 * len(tiny_dataset)

    def test_without_terms_drops_empty_records(self):
        dataset = TransactionDataset([{"a"}, {"a", "b"}])
        reduced = dataset.without_terms({"a"})
        assert len(reduced) == 1
        assert reduced[0] == frozenset({"b"})

    def test_non_empty_filters_empty_projections(self, tiny_dataset):
        projected = tiny_dataset.project({"d"})
        assert len(projected.non_empty()) == 1

    def test_to_lists_round_trip(self, paper_dataset):
        rebuilt = TransactionDataset.from_lists(paper_dataset.to_lists())
        assert rebuilt == paper_dataset

    def test_to_lists_sorts_terms(self, tiny_dataset):
        for row in tiny_dataset.to_lists():
            assert row == sorted(row)


class TestJaccard:
    def test_identical_records(self):
        assert jaccard_similarity({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint_records(self):
        assert jaccard_similarity({"a"}, {"b"}) == 0.0

    def test_partial_overlap(self):
        assert jaccard_similarity({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert jaccard_similarity(set(), set()) == 1.0
