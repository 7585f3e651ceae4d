"""Unit tests for the information-loss metrics (repro.metrics)."""

from __future__ import annotations

import pytest

from repro.core.dataset import TransactionDataset
from repro.core.engine import AnonymizationParams, Disassociator
from repro.exceptions import MiningError
from repro.metrics import (
    dataset_ncp,
    pair_relative_error,
    relative_error,
    relative_error_chunks,
    relative_error_generalized,
    relative_error_reconstructed,
    term_ncp,
    terms_in_rank_range,
    terms_lost,
    tkd_chunks,
    tkd_ml2,
    tkd_reconstructed,
    tlost,
    top_k_deviation,
)
from repro.mining.hierarchy import GeneralizationHierarchy


class TestTopKDeviation:
    def test_identical_datasets_have_zero_deviation(self, paper_dataset):
        assert top_k_deviation(paper_dataset, paper_dataset, top_k=20, max_size=2) == 0.0

    def test_disjoint_datasets_have_full_deviation(self):
        original = TransactionDataset([{"a", "b"}] * 5)
        other = TransactionDataset([{"x", "y"}] * 5)
        assert top_k_deviation(original, other, top_k=5, max_size=2) == 1.0

    def test_deviation_is_bounded(self, skewed_dataset, skewed_published):
        value = tkd_reconstructed(skewed_dataset, skewed_published, top_k=30, max_size=2)
        assert 0.0 <= value <= 1.0

    def test_chunk_variant_upper_bounds_reconstructed_variant(
        self, skewed_dataset, skewed_published
    ):
        """tKd-a only sees within-chunk associations, so it can only lose
        more of the top-K itemsets than a reconstruction does (paper 7a)."""
        tkd_a = tkd_chunks(skewed_dataset, skewed_published, top_k=30, max_size=2)
        tkd = tkd_reconstructed(skewed_dataset, skewed_published, top_k=30, max_size=2, seed=1)
        assert tkd <= tkd_a + 0.15  # small slack: reconstruction is randomized

    def test_empty_original_yields_zero(self):
        empty = TransactionDataset([])
        assert top_k_deviation(empty, empty, top_k=5) == 0.0

    def test_invalid_top_k_rejected(self, paper_dataset):
        with pytest.raises(MiningError):
            top_k_deviation(paper_dataset, paper_dataset, top_k=0)


class TestPairRelativeError:
    def test_exact_support_gives_zero(self):
        assert pair_relative_error(10, 10) == 0.0

    def test_both_zero_gives_zero(self):
        assert pair_relative_error(0, 0) == 0.0

    def test_lost_pair_gives_two(self):
        assert pair_relative_error(8, 0) == 2.0

    def test_invented_pair_gives_two(self):
        assert pair_relative_error(0, 8) == 2.0

    def test_symmetric(self):
        assert pair_relative_error(4, 6) == pair_relative_error(6, 4)

    def test_value_in_zero_two_range(self):
        for so, sp in [(1, 5), (5, 1), (3, 3), (100, 1)]:
            assert 0.0 <= pair_relative_error(so, sp) <= 2.0


class TestTermsInRankRange:
    def test_returns_requested_slice(self, skewed_dataset):
        terms = terms_in_rank_range(skewed_dataset, (0, 5))
        ordered = skewed_dataset.terms_by_support()
        assert terms == ordered[:5]

    def test_range_beyond_domain_is_shifted(self, tiny_dataset):
        terms = terms_in_rank_range(tiny_dataset, (100, 120))
        assert terms  # never empty for a non-empty dataset

    def test_invalid_range_rejected(self, tiny_dataset):
        with pytest.raises(MiningError):
            terms_in_rank_range(tiny_dataset, (5, 5))


class TestRelativeError:
    def test_identical_datasets_give_zero(self, skewed_dataset):
        assert relative_error(skewed_dataset, skewed_dataset, rank_range=(0, 8)) == 0.0

    def test_chunks_variant_bounded(self, skewed_dataset, skewed_published):
        value = relative_error_chunks(skewed_dataset, skewed_published, rank_range=(0, 8))
        assert 0.0 <= value <= 2.0

    def test_reconstructed_variant_bounded(self, skewed_dataset, skewed_published):
        value = relative_error_reconstructed(
            skewed_dataset, skewed_published, rank_range=(0, 8), seed=0
        )
        assert 0.0 <= value <= 2.0

    def test_averaging_reconstructions_is_deterministic_and_bounded(
        self, skewed_dataset, skewed_published
    ):
        """Averaging supports over reconstructions (paper, Figure 7d) stays in
        the metric's range and is reproducible given the seed.  (The paper's
        accuracy gain from averaging shows up at realistic dataset sizes and
        is exercised by the Figure 7d benchmark, not by this 60-record toy.)"""
        averaged_a = relative_error_reconstructed(
            skewed_dataset, skewed_published, rank_range=(5, 15), reconstructions=10, seed=3
        )
        averaged_b = relative_error_reconstructed(
            skewed_dataset, skewed_published, rank_range=(5, 15), reconstructions=10, seed=3
        )
        assert averaged_a == pytest.approx(averaged_b)
        assert 0.0 <= averaged_a <= 2.0

    def test_single_probe_term_gives_zero(self, skewed_dataset):
        assert relative_error(skewed_dataset, skewed_dataset, terms=["t0"]) == 0.0

    def test_explicit_terms_override_rank_range(self, skewed_dataset, skewed_published):
        value = relative_error_reconstructed(
            skewed_dataset, skewed_published, terms=["t0", "t1", "t2"], seed=0
        )
        assert 0.0 <= value <= 2.0


class TestRelativeErrorGeneralized:
    def test_untouched_cut_gives_zero(self, skewed_dataset):
        hierarchy = GeneralizationHierarchy.balanced(skewed_dataset.domain, fanout=4)
        identity_cut = {term: term for term in skewed_dataset.domain}
        value = relative_error_generalized(
            skewed_dataset, skewed_dataset, identity_cut, hierarchy, rank_range=(0, 6)
        )
        assert value == 0.0

    def test_generalized_cut_increases_error(self, skewed_dataset):
        from repro.baselines.apriori_anonymization import anonymize_with_generalization

        result = anonymize_with_generalization(skewed_dataset, k=5, m=2, fanout=3)
        value = relative_error_generalized(
            skewed_dataset,
            result.dataset,
            result.cut,
            result.hierarchy,
            rank_range=(0, 6),
        )
        assert 0.0 <= value <= 2.0


class TestTlost:
    def test_zero_when_every_frequent_term_is_in_a_chunk(self):
        dataset = TransactionDataset([{"a", "b"}] * 8)
        published = Disassociator(
            AnonymizationParams(k=3, m=2, max_cluster_size=8)
        ).anonymize(dataset)
        assert tlost(dataset, published) == 0.0

    def test_bounded_between_zero_and_one(self, skewed_dataset, skewed_published):
        assert 0.0 <= tlost(skewed_dataset, skewed_published) <= 1.0

    def test_terms_lost_are_frequent_and_chunkless(self, skewed_dataset, skewed_published):
        lost = terms_lost(skewed_dataset, skewed_published)
        supports = skewed_dataset.term_supports()
        chunk_terms = skewed_published.record_chunk_terms()
        for term in lost:
            assert supports[term] >= skewed_published.k
            assert term not in chunk_terms

    def test_empty_frequent_set_gives_zero(self):
        dataset = TransactionDataset([{"a"}, {"b"}, {"c"}, {"d"}])
        published = Disassociator(
            AnonymizationParams(k=3, m=2, max_cluster_size=4)
        ).anonymize(dataset)
        assert tlost(dataset, published) == 0.0


class TestTkdML2:
    def test_identical_datasets_give_zero(self, skewed_dataset):
        hierarchy = GeneralizationHierarchy.balanced(skewed_dataset.domain, fanout=4)
        assert tkd_ml2(skewed_dataset, skewed_dataset, hierarchy, top_k=20, max_size=2) == 0.0

    def test_generalized_dataset_preserves_some_ml_itemsets(self, skewed_dataset):
        from repro.baselines.apriori_anonymization import anonymize_with_generalization

        hierarchy = GeneralizationHierarchy.balanced(skewed_dataset.domain, fanout=4)
        result = anonymize_with_generalization(skewed_dataset, k=3, m=2, hierarchy=hierarchy)
        plain_tkd = top_k_deviation(skewed_dataset, result.dataset, top_k=20, max_size=2)
        ml2 = tkd_ml2(skewed_dataset, result.dataset, hierarchy, top_k=20, max_size=2)
        # multi-level mining must recover at least as much as leaf-level mining
        assert ml2 <= plain_tkd + 1e-9
        assert 0.0 <= ml2 <= 1.0

    def test_bounded_for_disassociation(self, skewed_dataset, skewed_published):
        from repro.metrics import tkd_ml2_disassociated

        hierarchy = GeneralizationHierarchy.balanced(skewed_dataset.domain, fanout=4)
        value = tkd_ml2_disassociated(
            skewed_dataset, skewed_published, hierarchy, top_k=20, max_size=2
        )
        assert 0.0 <= value <= 1.0


class TestNCP:
    def test_term_ncp_delegates_to_hierarchy(self, skewed_dataset):
        hierarchy = GeneralizationHierarchy.balanced(skewed_dataset.domain, fanout=4)
        assert term_ncp("t0", hierarchy) == 0.0
        assert term_ncp(hierarchy.root, hierarchy) == 1.0

    def test_dataset_ncp_zero_for_identity_cut(self, skewed_dataset):
        hierarchy = GeneralizationHierarchy.balanced(skewed_dataset.domain, fanout=4)
        cut = {term: term for term in skewed_dataset.domain}
        assert dataset_ncp(skewed_dataset, cut, hierarchy) == 0.0

    def test_dataset_ncp_one_for_root_cut(self, skewed_dataset):
        hierarchy = GeneralizationHierarchy.balanced(skewed_dataset.domain, fanout=4)
        cut = {term: hierarchy.root for term in skewed_dataset.domain}
        assert dataset_ncp(skewed_dataset, cut, hierarchy) == 1.0

    def test_dataset_ncp_monotone_in_generalization(self, skewed_dataset):
        hierarchy = GeneralizationHierarchy.balanced(skewed_dataset.domain, fanout=4)
        partial_cut = {
            term: hierarchy.parent(term) or term for term in skewed_dataset.domain
        }
        root_cut = {term: hierarchy.root for term in skewed_dataset.domain}
        partial = dataset_ncp(skewed_dataset, partial_cut, hierarchy)
        full = dataset_ncp(skewed_dataset, root_cut, hierarchy)
        assert 0.0 < partial <= full == 1.0
