"""Unit tests for the Apriori miner, the oracle of :mod:`repro.mining.itemsets`."""

from __future__ import annotations

import pytest

from repro.core.dataset import TransactionDataset
from repro.exceptions import MiningError
from repro.mining.itemsets import itemset_supports, top_k_itemsets
from tests.reference.apriori import mine_frequent_itemsets, mine_top_k


class TestMineFrequentItemsets:
    def test_singletons_above_threshold(self, tiny_dataset):
        frequent = mine_frequent_itemsets(tiny_dataset, min_support=3)
        assert frequent[("a",)] == 5
        assert frequent[("c",)] == 3
        assert ("d",) not in frequent

    def test_pairs_above_threshold(self, tiny_dataset):
        frequent = mine_frequent_itemsets(tiny_dataset, min_support=3)
        assert frequent[("a", "b")] == 4
        assert ("a", "c") not in frequent  # support 2

    @pytest.mark.parametrize(
        "fixture,min_support,max_size",
        [
            ("paper_dataset", 1, 6),
            ("paper_dataset", 2, 2),
            ("paper_dataset", 3, 6),
            ("paper_dataset", 4, 6),
            ("skewed_dataset", 6, 3),
            ("tiny_dataset", 1, 3),
        ],
    )
    def test_matches_exhaustive_enumeration(self, fixture, min_support, max_size, request):
        dataset = request.getfixturevalue(fixture)
        frequent = mine_frequent_itemsets(dataset, min_support, max_size=max_size)
        exhaustive = {
            itemset: support
            for itemset, support in itemset_supports(dataset, max_size=max_size).items()
            if support >= min_support
        }
        assert frequent == exhaustive

    def test_max_size_caps_result(self, paper_dataset):
        frequent = mine_frequent_itemsets(paper_dataset, min_support=2, max_size=2)
        assert all(len(itemset) <= 2 for itemset in frequent)

    def test_min_support_one_returns_everything_present(self, tiny_dataset):
        frequent = mine_frequent_itemsets(tiny_dataset, min_support=1, max_size=2)
        assert ("d",) in frequent
        assert ("a", "d") in frequent

    def test_empty_dataset(self):
        assert mine_frequent_itemsets(TransactionDataset([]), min_support=1) == {}

    def test_invalid_min_support_rejected(self, tiny_dataset):
        with pytest.raises(MiningError):
            mine_frequent_itemsets(tiny_dataset, min_support=0)

    def test_invalid_max_size_rejected(self, tiny_dataset):
        with pytest.raises(MiningError):
            mine_frequent_itemsets(tiny_dataset, min_support=1, max_size=0)

    def test_apriori_property_holds(self, skewed_dataset):
        """Every subset of a frequent itemset must itself be frequent."""
        from itertools import combinations

        frequent = mine_frequent_itemsets(skewed_dataset, min_support=5, max_size=3)
        for itemset in frequent:
            for size in range(1, len(itemset)):
                for subset in combinations(itemset, size):
                    assert subset in frequent


class TestMineTopK:
    def test_returns_k_results_when_available(self, paper_dataset):
        top = mine_top_k(paper_dataset, top_k=10, max_size=2)
        assert len(top) == 10

    def test_ordering_is_deterministic_and_descending(self, skewed_dataset):
        top = mine_top_k(skewed_dataset, top_k=20, max_size=2)
        supports = [support for _itemset, support in top]
        assert supports == sorted(supports, reverse=True)
        assert top == mine_top_k(skewed_dataset, top_k=20, max_size=2)

    @pytest.mark.parametrize(
        "fixture,top_k,max_size",
        [("paper_dataset", 15, 2), ("paper_dataset", 12, 3), ("skewed_dataset", 20, 3)],
    )
    def test_agrees_with_exhaustive_top_k(self, fixture, top_k, max_size, request):
        dataset = request.getfixturevalue(fixture)
        assert mine_top_k(dataset, top_k=top_k, max_size=max_size) == top_k_itemsets(
            dataset, top_k=top_k, max_size=max_size
        )

    def test_empty_dataset_returns_empty_list(self):
        assert mine_top_k(TransactionDataset([]), top_k=5) == []

    def test_invalid_top_k_rejected(self, tiny_dataset):
        with pytest.raises(MiningError):
            mine_top_k(tiny_dataset, top_k=0)
