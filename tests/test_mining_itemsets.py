"""Unit tests for the itemset utilities (repro.mining.itemsets)."""

from __future__ import annotations

import pytest

from repro.core.dataset import TransactionDataset
from repro.exceptions import MiningError
from repro.mining.itemsets import (
    canonical,
    itemset_supports,
    pair_supports,
    top_k_itemset_set,
    top_k_itemsets,
)


class TestCanonical:
    def test_sorts_and_stringifies(self):
        assert canonical({"b", "a"}) == ("a", "b")
        assert canonical([2, 1]) == ("1", "2")

    def test_empty_itemset(self):
        assert canonical([]) == ()


class TestItemsetSupports:
    def test_counts_singletons_and_pairs(self, tiny_dataset):
        counts = itemset_supports(tiny_dataset, max_size=2)
        assert counts[("a",)] == 5
        assert counts[("a", "b")] == 4
        assert counts[("b", "c")] == 2

    def test_max_size_limits_enumeration(self, tiny_dataset):
        counts = itemset_supports(tiny_dataset, max_size=1)
        assert all(len(itemset) == 1 for itemset in counts)

    def test_triples_counted_when_requested(self, tiny_dataset):
        counts = itemset_supports(tiny_dataset, max_size=3)
        assert counts[("a", "b", "c")] == 1

    def test_restrict_to_projects_records(self, tiny_dataset):
        counts = itemset_supports(tiny_dataset, max_size=2, restrict_to={"a", "b"})
        assert ("a", "b") in counts
        assert all(set(itemset) <= {"a", "b"} for itemset in counts)

    def test_invalid_max_size_rejected(self, tiny_dataset):
        with pytest.raises(MiningError):
            itemset_supports(tiny_dataset, max_size=0)

    def test_empty_dataset(self):
        assert itemset_supports(TransactionDataset([]), max_size=2) == {}

    def test_singleton_supports_are_exact(self, tiny_dataset):
        counts = itemset_supports(tiny_dataset, max_size=1)
        assert counts == {(term,): s for term, s in tiny_dataset.term_supports().items()}

    def test_every_pair_support_is_exact(self, tiny_dataset):
        counts = itemset_supports(tiny_dataset, max_size=2)
        pairs = {itemset: s for itemset, s in counts.items() if len(itemset) == 2}
        assert pairs
        for itemset, support in pairs.items():
            assert support == tiny_dataset.support(itemset)

    def test_supports_match_dataset_support(self, paper_dataset):
        counts = itemset_supports(paper_dataset, max_size=2)
        for itemset, support in list(counts.items())[:20]:
            assert support == paper_dataset.support(itemset)


class TestPairSupports:
    def test_includes_zero_support_pairs(self, tiny_dataset):
        pairs = pair_supports(tiny_dataset, ["c", "d"])
        assert pairs[("c", "d")] == 0

    def test_counts_existing_pairs(self, tiny_dataset):
        pairs = pair_supports(tiny_dataset, ["a", "b", "c"])
        assert pairs[("a", "b")] == 4
        assert pairs[("a", "c")] == 2

    def test_number_of_pairs_is_n_choose_2(self, paper_dataset):
        terms = list(paper_dataset.domain)[:6]
        pairs = pair_supports(paper_dataset, terms)
        assert len(pairs) == 15

    def test_single_term_has_no_pairs(self, tiny_dataset):
        assert pair_supports(tiny_dataset, ["a"]) == {}


class TestTopKItemsets:
    def test_returns_requested_count(self, paper_dataset):
        top = top_k_itemsets(paper_dataset, top_k=5, max_size=2)
        assert len(top) == 5

    def test_ordered_by_support(self, paper_dataset):
        top = top_k_itemsets(paper_dataset, top_k=10, max_size=2)
        supports = [support for _itemset, support in top]
        assert supports == sorted(supports, reverse=True)

    def test_most_frequent_singleton_is_first(self, paper_dataset):
        top = top_k_itemsets(paper_dataset, top_k=1, max_size=2)
        assert top[0][0] == ("madonna",)
        assert top[0][1] == 8

    def test_ties_broken_deterministically(self, tiny_dataset):
        first = top_k_itemsets(tiny_dataset, top_k=8, max_size=2)
        second = top_k_itemsets(tiny_dataset, top_k=8, max_size=2)
        assert first == second

    def test_min_support_filters(self, tiny_dataset):
        top = top_k_itemsets(tiny_dataset, top_k=100, max_size=2, min_support=4)
        assert all(support >= 4 for _itemset, support in top)

    def test_invalid_top_k_rejected(self, tiny_dataset):
        with pytest.raises(MiningError):
            top_k_itemsets(tiny_dataset, top_k=0)

    def test_empty_dataset_returns_empty(self):
        assert top_k_itemsets(TransactionDataset([]), top_k=3) == []

    def test_high_min_support_returns_nothing(self, tiny_dataset):
        assert top_k_itemsets(tiny_dataset, top_k=10, min_support=100) == []

    def test_top_k_itemset_set_matches_itemsets(self, paper_dataset):
        as_list = top_k_itemsets(paper_dataset, top_k=7, max_size=2)
        as_set = top_k_itemset_set(paper_dataset, top_k=7, max_size=2)
        assert as_set == {itemset for itemset, _support in as_list}
