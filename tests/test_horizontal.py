"""Unit tests for HORPART (repro.core.horizontal)."""

from __future__ import annotations

import pytest

from repro.core.dataset import TransactionDataset
from repro.exceptions import ParameterError
from tests.conftest import make_uniform_dataset
from tests.reference.horizontal import horizontal_partition, partition_sizes


class TestHorizontalPartition:
    def test_empty_dataset_yields_no_clusters(self):
        assert horizontal_partition(TransactionDataset([])) == []

    def test_small_dataset_is_single_cluster(self, tiny_dataset):
        clusters = horizontal_partition(tiny_dataset, max_cluster_size=10)
        assert len(clusters) == 1
        assert len(clusters[0]) == len(tiny_dataset)

    def test_every_cluster_respects_size_bound_on_uniform_data(self):
        dataset = make_uniform_dataset(200, domain=50, record_length=4, seed=1)
        clusters = horizontal_partition(dataset, max_cluster_size=20)
        assert all(size <= 20 for size in partition_sizes(clusters))

    def test_partition_is_a_permutation_of_the_input(self, paper_dataset):
        clusters = horizontal_partition(paper_dataset, max_cluster_size=4)
        scattered = [record for cluster in clusters for record in cluster]
        assert sorted(map(sorted, scattered)) == sorted(map(sorted, paper_dataset))

    def test_partition_preserves_record_count(self):
        dataset = make_uniform_dataset(137, domain=30, record_length=5, seed=2)
        clusters = horizontal_partition(dataset, max_cluster_size=16)
        assert sum(partition_sizes(clusters)) == 137

    def test_similar_records_land_in_the_same_cluster(self):
        # two well-separated groups sharing no terms
        group_a = [{"a", f"x{i}"} for i in range(10)]
        group_b = [{"b", f"y{i}"} for i in range(10)]
        dataset = TransactionDataset(group_a + group_b)
        clusters = horizontal_partition(dataset, max_cluster_size=12)
        for cluster in clusters:
            has_a = any("a" in record for record in cluster)
            has_b = any("b" in record for record in cluster)
            assert not (has_a and has_b)

    def test_duplicate_heavy_dataset_terminates(self):
        # all records identical: the split term never separates anything
        dataset = TransactionDataset([{"a", "b"}] * 50)
        clusters = horizontal_partition(dataset, max_cluster_size=10)
        assert sum(partition_sizes(clusters)) == 50
        assert all(size <= 10 for size in partition_sizes(clusters))

    def test_single_term_records_terminate(self):
        dataset = TransactionDataset([{"only"}] * 33)
        clusters = horizontal_partition(dataset, max_cluster_size=8)
        assert sum(partition_sizes(clusters)) == 33

    def test_invalid_cluster_size_rejected(self, tiny_dataset):
        with pytest.raises(ParameterError):
            horizontal_partition(tiny_dataset, max_cluster_size=1)

    def test_deterministic_output(self, paper_dataset):
        first = horizontal_partition(paper_dataset, max_cluster_size=4)
        second = horizontal_partition(paper_dataset, max_cluster_size=4)
        assert [sorted(map(sorted, c)) for c in first] == [
            sorted(map(sorted, c)) for c in second
        ]

    def test_paper_dataset_splits_on_most_frequent_term(self, paper_dataset):
        # "madonna" is the most frequent term (8/10 records); the first split
        # separates the two madonna-free records from the rest.
        clusters = horizontal_partition(paper_dataset, max_cluster_size=9)
        cluster_with_r4 = next(
            c for c in clusters if any(r == frozenset({"itunes", "flu", "viagra"}) for r in c)
        )
        assert all("madonna" not in record for record in cluster_with_r4)

    def test_large_cluster_bound_keeps_everything_together(self, paper_dataset):
        clusters = horizontal_partition(paper_dataset, max_cluster_size=100)
        assert len(clusters) == 1

    def test_cluster_records_share_terms_more_than_random(self):
        dataset = make_uniform_dataset(100, domain=20, record_length=5, seed=3)
        clusters = horizontal_partition(dataset, max_cluster_size=10)
        # every multi-record cluster should have at least one term shared by
        # a majority of its records (that is what splitting on frequent terms buys)
        for cluster in clusters:
            if len(cluster) < 4:
                continue
            supports = cluster.term_supports()
            assert max(supports.values()) >= len(cluster) // 2
