"""End-to-end integration tests across modules.

Each test exercises a realistic workflow: generate data, anonymize it,
serialize / deserialize the publication, reconstruct worlds, evaluate the
information loss and compare with a baseline — i.e. the way a downstream
user would actually drive the library.
"""

from __future__ import annotations

import pytest

from repro.analysis.estimation import SupportEstimator
from repro.analysis.queries import rule_confidence, top_terms
from repro.baselines.diffpart import publish_with_diffpart
from repro.baselines.suppression import anonymize_with_suppression
from repro.core.clusters import DisassociatedDataset
from repro.core.engine import AnonymizationParams, Disassociator
from repro.core.reconstruct import Reconstructor, reconstruct
from repro.core.verification import audit, verify_km_anonymity
from repro.datasets.io import read_disassociated_json, write_disassociated_json
from repro.datasets.quest import generate_quest
from repro.datasets.real_proxies import load_proxy
from repro.metrics import tkd_reconstructed, tlost, top_k_deviation


@pytest.fixture(scope="module")
def quest_dataset():
    return generate_quest(num_transactions=600, domain_size=150, avg_transaction_size=6, seed=11)


@pytest.fixture(scope="module")
def quest_published(quest_dataset):
    params = AnonymizationParams(k=4, m=2, max_cluster_size=25)
    return Disassociator(params).anonymize(quest_dataset)


class TestQuestWorkflow:
    def test_publication_is_audited_clean(self, quest_published):
        assert audit(quest_published).ok

    def test_serialization_round_trip_preserves_guarantee(self, quest_published, tmp_path):
        path = tmp_path / "published.json"
        write_disassociated_json(quest_published, path)
        loaded = read_disassociated_json(path)
        verify_km_anonymity(loaded)
        assert loaded.total_records() == quest_published.total_records()

    def test_reconstruction_statistics_are_close_to_original(self, quest_dataset, quest_published):
        world = reconstruct(quest_published, seed=0)
        original_top = [term for term, _s in top_terms(quest_dataset, count=10)]
        world_top = [term for term, _s in top_terms(world, count=10)]
        overlap = len(set(original_top) & set(world_top))
        assert overlap >= 7

    def test_tkd_on_reconstruction_is_low(self, quest_dataset, quest_published):
        value = tkd_reconstructed(quest_dataset, quest_published, top_k=50, max_size=2, seed=1)
        assert value <= 0.35

    def test_tlost_is_moderate(self, quest_dataset, quest_published):
        assert tlost(quest_dataset, quest_published) <= 0.6

    def test_support_estimates_bracket_reality(self, quest_dataset, quest_published):
        estimator = SupportEstimator(quest_published, seed=2)
        frequent_terms = quest_dataset.terms_by_support()[:10]
        for term in frequent_terms:
            actual = quest_dataset.support({term})
            assert estimator.lower_bound({term}) <= actual
            assert estimator.expected_support({term}) <= actual + 1e-6

    def test_rule_confidence_is_answerable_on_reconstruction(self, quest_dataset, quest_published):
        world = reconstruct(quest_published, seed=3)
        a, b = quest_dataset.terms_by_support()[:2]
        original = rule_confidence(quest_dataset, {a}, {b})
        approximated = rule_confidence(world, {a}, {b})
        if original is not None and approximated is not None:
            assert abs(original - approximated) <= 0.5


class TestProxyWorkflow:
    @pytest.fixture(scope="class")
    def proxy(self):
        return load_proxy("WV1", scale=0.004, seed=5, domain_scale=0.1)

    def test_anonymize_verify_and_measure(self, proxy):
        published = Disassociator(
            AnonymizationParams(k=5, m=2, max_cluster_size=30)
        ).anonymize(proxy)
        assert audit(published).ok
        assert published.total_records() == len(proxy)
        deviation = tkd_reconstructed(proxy, published, top_k=50, max_size=2, seed=0)
        assert 0.0 <= deviation <= 1.0

    def test_disassociation_beats_diffpart_on_tkd(self, proxy):
        """The headline comparison of Figure 11a, at test scale."""
        published = Disassociator(
            AnonymizationParams(k=5, m=2, max_cluster_size=30)
        ).anonymize(proxy)
        disassociation_tkd = tkd_reconstructed(proxy, published, top_k=50, max_size=2, seed=0)
        diffpart = publish_with_diffpart(proxy, epsilon=1.0, seed=0)
        diffpart_tkd = top_k_deviation(proxy, diffpart.dataset, top_k=50, max_size=2)
        assert disassociation_tkd < diffpart_tkd

    def test_disassociation_preserves_more_terms_than_suppression(self, proxy):
        sample = proxy.sample(250, seed=1)
        published = Disassociator(
            AnonymizationParams(k=5, m=2, max_cluster_size=30)
        ).anonymize(sample)
        suppressed = anonymize_with_suppression(sample, k=5, m=2)
        assert len(published.domain()) >= len(suppressed.dataset.domain)


class TestMultipleReconstructions:
    def test_reconstructions_are_distinct_but_consistent(self, quest_published):
        reconstructor = Reconstructor(quest_published, seed=9)
        worlds = reconstructor.reconstruct_many(3)
        sizes = {len(world) for world in worlds}
        assert sizes == {quest_published.total_records()}
        serialized = {tuple(sorted(map(tuple, world.to_lists()))) for world in worlds}
        assert len(serialized) > 1

    def test_deserialized_publication_reconstructs_identically(self, quest_published, tmp_path):
        path = tmp_path / "p.json"
        write_disassociated_json(quest_published, path)
        loaded = read_disassociated_json(path)
        a = reconstruct(quest_published, seed=13)
        b = reconstruct(loaded, seed=13)
        # same seed, same structure: identical multiset of records
        assert sorted(map(sorted, a)) == sorted(map(sorted, b))

    def test_publication_dict_is_json_serializable(self, quest_published):
        import json

        payload = json.dumps(quest_published.to_dict())
        assert DisassociatedDataset.from_dict(json.loads(payload)).k == quest_published.k
