"""Unit tests for the baseline anonymization methods (repro.baselines)."""

from __future__ import annotations

import pytest

from repro.baselines.apriori_anonymization import (
    AprioriAnonymizer,
    anonymize_with_generalization,
)
from repro.baselines.diffpart import DiffPart, publish_with_diffpart
from repro.baselines.suppression import GlobalSuppressor, anonymize_with_suppression
from repro.core.dataset import TransactionDataset
from repro.exceptions import ParameterError
from repro.mining.hierarchy import GeneralizationHierarchy
from repro.mining.itemsets import itemset_supports
from tests.conftest import make_uniform_dataset


def assert_km_anonymous_dataset(dataset: TransactionDataset, k: int, m: int) -> None:
    """Every combination of up to m published terms must have support >= k."""
    counts = itemset_supports(dataset, max_size=m)
    violating = {itemset: s for itemset, s in counts.items() if s < k}
    assert not violating, f"violating combinations: {violating}"


class TestAprioriAnonymizer:
    def test_output_is_km_anonymous(self, skewed_dataset):
        result = anonymize_with_generalization(skewed_dataset, k=3, m=2, fanout=3)
        assert_km_anonymous_dataset(result.dataset, k=3, m=2)

    def test_paper_dataset_generalization(self, paper_dataset):
        result = anonymize_with_generalization(paper_dataset, k=3, m=2, fanout=3)
        assert_km_anonymous_dataset(result.dataset, k=3, m=2)

    def test_record_count_preserved(self, skewed_dataset):
        result = anonymize_with_generalization(skewed_dataset, k=3, m=2)
        assert len(result.dataset) == len(skewed_dataset)

    def test_cut_covers_whole_domain(self, skewed_dataset):
        result = anonymize_with_generalization(skewed_dataset, k=3, m=2)
        assert set(result.cut) == set(skewed_dataset.domain)

    def test_cut_nodes_are_ancestors_of_their_terms(self, skewed_dataset):
        result = anonymize_with_generalization(skewed_dataset, k=3, m=2)
        for term, node in result.cut.items():
            assert result.hierarchy.is_ancestor(node, term)

    def test_ncp_grows_with_k(self, skewed_dataset):
        loose = anonymize_with_generalization(skewed_dataset, k=2, m=2, fanout=4)
        strict = anonymize_with_generalization(skewed_dataset, k=8, m=2, fanout=4)
        assert strict.ncp() >= loose.ncp()

    def test_already_anonymous_dataset_is_untouched(self):
        dataset = TransactionDataset([{"a", "b"}] * 6)
        result = anonymize_with_generalization(dataset, k=3, m=2)
        assert result.ncp() == 0.0
        assert result.dataset == dataset

    def test_accepts_external_hierarchy(self, skewed_dataset):
        hierarchy = GeneralizationHierarchy.balanced(skewed_dataset.domain, fanout=5)
        result = AprioriAnonymizer(k=3, m=2, hierarchy=hierarchy).anonymize(skewed_dataset)
        assert result.hierarchy is hierarchy

    def test_invalid_parameters_rejected(self, skewed_dataset):
        with pytest.raises(ParameterError):
            AprioriAnonymizer(k=0, m=2).anonymize(skewed_dataset)

    def test_generalization_levels_reports_cut(self, skewed_dataset):
        result = anonymize_with_generalization(skewed_dataset, k=4, m=2)
        levels = result.generalization_levels()
        assert sum(levels.values()) == len(skewed_dataset.domain)


class TestDiffPart:
    def test_publishes_only_original_terms(self, skewed_dataset):
        result = publish_with_diffpart(skewed_dataset, epsilon=1.0, seed=0)
        assert result.dataset.domain <= skewed_dataset.domain

    def test_deterministic_given_seed(self, skewed_dataset):
        a = publish_with_diffpart(skewed_dataset, epsilon=1.0, seed=5)
        b = publish_with_diffpart(skewed_dataset, epsilon=1.0, seed=5)
        assert a.dataset == b.dataset

    def test_different_seeds_differ(self, skewed_dataset):
        a = publish_with_diffpart(skewed_dataset, epsilon=1.0, seed=1)
        b = publish_with_diffpart(skewed_dataset, epsilon=1.0, seed=2)
        assert a.dataset != b.dataset or a.partitions_published != b.partitions_published

    def test_suppresses_infrequent_terms(self):
        dataset = make_uniform_dataset(150, domain=80, record_length=3, seed=9)
        result = publish_with_diffpart(dataset, epsilon=0.5, seed=0)
        # differential privacy on sparse data loses a large part of the domain
        assert len(result.dataset.domain) < len(dataset.domain)

    def test_higher_epsilon_preserves_no_less_of_the_domain_on_average(self, skewed_dataset):
        low = publish_with_diffpart(skewed_dataset, epsilon=0.25, seed=3)
        high = publish_with_diffpart(skewed_dataset, epsilon=2.0, seed=3)
        assert len(high.dataset.domain) >= len(low.dataset.domain) - 3

    def test_partition_counters_are_consistent(self, skewed_dataset):
        result = publish_with_diffpart(skewed_dataset, epsilon=1.0, seed=0)
        assert result.partitions_published >= 0
        assert result.partitions_pruned >= 0
        assert result.epsilon == 1.0

    def test_invalid_epsilon_rejected(self, skewed_dataset):
        with pytest.raises(ParameterError):
            DiffPart(epsilon=0.0)
        with pytest.raises(ParameterError):
            DiffPart(epsilon=-1.0)

    def test_empty_output_possible_on_tiny_data_without_error(self):
        dataset = TransactionDataset([{"a"}, {"b"}, {"c"}])
        result = publish_with_diffpart(dataset, epsilon=0.1, seed=0)
        assert len(result.dataset) >= 0  # must not raise


class TestGlobalSuppressor:
    def test_output_is_km_anonymous(self, skewed_dataset):
        result = anonymize_with_suppression(skewed_dataset, k=3, m=2)
        assert_km_anonymous_dataset(result.dataset, k=3, m=2)

    def test_paper_dataset_suppression(self, paper_dataset):
        result = anonymize_with_suppression(paper_dataset, k=3, m=2)
        assert_km_anonymous_dataset(result.dataset, k=3, m=2)

    def test_suppressed_terms_disjoint_from_published_domain(self, skewed_dataset):
        result = anonymize_with_suppression(skewed_dataset, k=3, m=2)
        assert not (result.suppressed_terms & result.dataset.domain)

    def test_term_loss_fraction_in_unit_interval(self, skewed_dataset):
        result = anonymize_with_suppression(skewed_dataset, k=3, m=2)
        assert 0.0 <= result.term_loss <= 1.0

    def test_already_anonymous_dataset_loses_nothing(self):
        dataset = TransactionDataset([{"a", "b"}] * 5)
        result = anonymize_with_suppression(dataset, k=3, m=2)
        assert result.suppressed_terms == frozenset()
        assert result.dataset == dataset

    def test_stricter_k_suppresses_no_fewer_terms(self, skewed_dataset):
        loose = anonymize_with_suppression(skewed_dataset, k=2, m=2)
        strict = anonymize_with_suppression(skewed_dataset, k=6, m=2)
        assert len(strict.suppressed_terms) >= len(loose.suppressed_terms)

    def test_suppression_loses_more_terms_than_disassociation_keeps(self, skewed_dataset):
        """The motivating claim: suppression destroys associations for far
        more terms than disassociation does."""
        from repro.core.engine import AnonymizationParams, Disassociator

        suppressed = anonymize_with_suppression(skewed_dataset, k=3, m=2)
        published = Disassociator(
            AnonymizationParams(k=3, m=2, max_cluster_size=12)
        ).anonymize(skewed_dataset)
        assert len(published.domain()) >= len(suppressed.dataset.domain)

    def test_invalid_parameters_rejected(self, skewed_dataset):
        with pytest.raises(ParameterError):
            GlobalSuppressor(k=0, m=2)
