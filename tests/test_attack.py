"""Tests for the adversary simulation (repro.analysis.attack)."""

from __future__ import annotations

import pytest

from repro.analysis.attack import (
    original_risk,
    published_candidates,
    published_risk,
    simulate_attack,
    vulnerable_combinations,
)
from repro.core.dataset import TransactionDataset
from repro.core.engine import AnonymizationParams, Disassociator
from repro.exceptions import ParameterError


class TestVulnerableCombinations:
    def test_paper_example_identifying_pair_is_listed(self, paper_dataset):
        vulnerable = vulnerable_combinations(paper_dataset, k=3, m=2)
        assert ("madonna", "viagra") in vulnerable
        assert vulnerable[("madonna", "viagra")] == 1

    def test_frequent_combinations_are_not_listed(self, paper_dataset):
        vulnerable = vulnerable_combinations(paper_dataset, k=3, m=2)
        assert ("madonna",) not in vulnerable

    def test_uniform_duplicates_have_no_vulnerable_combinations(self):
        dataset = TransactionDataset([{"a", "b"}] * 10)
        assert vulnerable_combinations(dataset, k=3, m=2) == {}

    def test_invalid_parameters_rejected(self, paper_dataset):
        with pytest.raises(ParameterError):
            vulnerable_combinations(paper_dataset, k=0, m=2)


class TestOriginalRisk:
    def test_paper_dataset_is_fully_exposed(self, paper_dataset):
        # every record of the running example contains some rare pair
        assert original_risk(paper_dataset, k=3, m=2) == 1.0

    def test_duplicated_records_have_zero_risk(self):
        dataset = TransactionDataset([{"a", "b"}] * 8)
        assert original_risk(dataset, k=3, m=2) == 0.0

    def test_risk_is_monotone_in_k(self, skewed_dataset):
        assert original_risk(skewed_dataset, k=2, m=2) <= original_risk(
            skewed_dataset, k=6, m=2
        )

    def test_risk_is_monotone_in_m(self, skewed_dataset):
        assert original_risk(skewed_dataset, k=3, m=1) <= original_risk(
            skewed_dataset, k=3, m=2
        )


class TestPublishedCandidates:
    def test_identifying_pair_no_longer_pins_a_single_record(self, paper_published):
        # The pair uniquely identified r2 in the original data.  After
        # disassociation it is either unreconstructable or admits at least k
        # candidates (here: viagra sits in a term chunk, so every record of
        # its cluster that can carry madonna is a candidate).
        candidates = published_candidates(paper_published, {"madonna", "viagra"})
        assert candidates == 0 or candidates >= paper_published.k

    def test_chunk_resident_pair_admits_at_least_k_candidates(self, paper_published):
        k = paper_published.k
        # pick a pair that lives inside one record chunk of the publication
        for chunk in paper_published.iter_record_chunks():
            if len(chunk.domain) >= 2:
                terms = sorted(chunk.domain)[:2]
                if chunk.support(terms) > 0:
                    assert published_candidates(paper_published, terms) >= k
                    return
        pytest.skip("no multi-term chunk in this publication")

    def test_unknown_terms_have_zero_candidates(self, paper_published):
        assert published_candidates(paper_published, {"not a term"}) == 0

    def test_term_chunk_terms_admit_whole_clusters(self, paper_published):
        only_terms = paper_published.term_chunk_only_terms()
        if not only_terms:
            pytest.skip("publication has no term-chunk-only terms")
        term = sorted(only_terms)[0]
        candidates = published_candidates(paper_published, {term})
        covering = [
            cluster.size
            for cluster in paper_published.clusters
            if term in cluster.domain()
        ]
        assert candidates == sum(covering)
        assert candidates >= paper_published.k


class TestPublishedRisk:
    def test_correct_publication_has_zero_risk(self, paper_dataset, paper_published):
        assert published_risk(paper_dataset, paper_published) == 0.0

    def test_skewed_publication_has_zero_risk(self, skewed_dataset, skewed_published):
        assert published_risk(skewed_dataset, skewed_published) == 0.0

    def test_singleton_background_is_also_safe(self, paper_dataset, paper_published):
        assert published_risk(paper_dataset, paper_published, m=1) == 0.0


class TestSimulateAttack:
    def test_report_contents(self, paper_dataset, paper_published):
        report = simulate_attack(paper_dataset, paper_published)
        assert report.k == 3 and report.m == 2
        assert report.original_at_risk == 1.0
        assert report.vulnerable_combinations > 0
        assert report.published_exposed_combinations == 0.0
        assert "identifiable" in report.summary()

    def test_end_to_end_on_fresh_data(self):
        records = [{"x", f"rare{i}"} for i in range(6)] + [{"x", "y"}] * 6
        dataset = TransactionDataset(records)
        published = Disassociator(
            AnonymizationParams(k=3, m=2, max_cluster_size=8)
        ).anonymize(dataset)
        report = simulate_attack(dataset, published)
        assert report.original_at_risk > 0.0
        assert report.published_exposed_combinations == 0.0
