"""Unit tests for the refining step (repro.core.refine)."""

from __future__ import annotations

import pytest

from repro.core.anonymity import is_km_anonymous
from repro.core.clusters import JointCluster, SimpleCluster, TermChunk
from repro.core.dataset import TransactionDataset
from repro.core.refine import refine, try_merge, virtual_term_chunk
from repro.exceptions import RefinementError
from tests.reference.refine import build_shared_chunks, merge_criterion
from tests.reference.vertical import vertical_partition


@pytest.fixture
def paper_clusters(paper_dataset):
    """The two VERPART clusters of Figure 2b (P1 = r1-r5, P2 = r6-r10)."""
    records = list(paper_dataset)
    p1 = vertical_partition(TransactionDataset(records[:5]), k=3, m=2, label="P1").cluster
    p2 = vertical_partition(TransactionDataset(records[5:]), k=3, m=2, label="P2").cluster
    return p1, p2


class TestVirtualTermChunk:
    def test_simple_cluster_returns_own_term_chunk(self, paper_clusters):
        p1, _p2 = paper_clusters
        assert virtual_term_chunk(p1) == frozenset(p1.term_chunk.terms)

    def test_joint_cluster_unions_leaf_term_chunks(self, paper_clusters):
        p1, p2 = paper_clusters
        joint = JointCluster([p1, p2])
        assert virtual_term_chunk(joint) == frozenset(p1.term_chunk.terms) | frozenset(
            p2.term_chunk.terms
        )


class TestBuildSharedChunks:
    def test_paper_refining_terms_form_a_shared_chunk(self, paper_clusters):
        p1, p2 = paper_clusters
        refining = frozenset({"ikea", "ruby"})
        restricted = p1.record_chunk_terms() | p2.record_chunk_terms()
        chunks, placed = build_shared_chunks([p1, p2], refining, restricted, k=3, m=2)
        assert placed == refining
        assert len(chunks) >= 1
        all_terms = set()
        for chunk in chunks:
            all_terms.update(chunk.domain)
            assert is_km_anonymous(chunk.subrecords, k=3, m=2)
        assert all_terms == {"ikea", "ruby"}

    def test_shared_chunk_supports_match_figure3(self, paper_clusters):
        p1, p2 = paper_clusters
        refining = frozenset({"ikea", "ruby"})
        restricted = p1.record_chunk_terms() | p2.record_chunk_terms()
        chunks, _placed = build_shared_chunks([p1, p2], refining, restricted, k=3, m=2)
        supports = {}
        for chunk in chunks:
            supports.update(chunk.term_supports())
        assert supports["ikea"] == 4
        assert supports["ruby"] == 4

    def test_contributions_sum_to_subrecord_count(self, paper_clusters):
        p1, p2 = paper_clusters
        refining = frozenset({"ikea", "ruby"})
        chunks, _placed = build_shared_chunks([p1, p2], refining, frozenset(), k=3, m=2)
        for chunk in chunks:
            assert sum(chunk.contributions.values()) == len(chunk.subrecords)

    def test_unliftable_terms_are_left_out(self, paper_clusters):
        p1, p2 = paper_clusters
        # viagra appears in only 2 records overall: cannot form a 3-anonymous chunk
        refining = frozenset({"viagra"})
        chunks, placed = build_shared_chunks([p1, p2], refining, frozenset(), k=3, m=2)
        assert placed == frozenset()
        assert chunks == []

    def test_restricted_terms_force_plain_k_anonymity(self):
        # term "x" is restricted (appears in a descendant record chunk); the
        # shared chunk may only be published if its sub-records are k-anonymous
        left = SimpleCluster(
            size=3,
            record_chunks=[],
            term_chunk=TermChunk({"x", "o"}),
            label="L",
            original_records=[{"x", "o"}, {"x"}, {"o"}],
        )
        right = SimpleCluster(
            size=3,
            record_chunks=[],
            term_chunk=TermChunk({"x", "o"}),
            label="R",
            original_records=[{"x", "o"}, {"x", "o"}, {"o"}],
        )
        chunks, placed = build_shared_chunks(
            [left, right], frozenset({"x", "o"}), frozenset({"x"}), k=3, m=2
        )
        for chunk in chunks:
            if chunk.domain & {"x"}:
                from repro.core.anonymity import is_k_anonymous

                assert is_k_anonymous(chunk.subrecords, k=3)
        # at minimum the unrestricted term "o" (support 6 >= 3) is liftable
        assert "o" in placed


class TestMergeCriterion:
    def test_paper_example_satisfies_equation_1(self, paper_clusters):
        p1, p2 = paper_clusters
        refining = frozenset({"ikea", "ruby"})
        restricted = p1.record_chunk_terms() | p2.record_chunk_terms()
        chunks, placed = build_shared_chunks([p1, p2], refining, restricted, k=3, m=2)
        # paper: (4 + 4) / 10 >= (2 + 2) / 10
        assert merge_criterion(chunks, placed, [p1, p2], joint_size=10)

    def test_empty_refining_terms_reject_merge(self, paper_clusters):
        p1, p2 = paper_clusters
        assert not merge_criterion([], frozenset(), [p1, p2], joint_size=10)

    def test_zero_joint_size_rejects_merge(self, paper_clusters):
        p1, p2 = paper_clusters
        assert not merge_criterion([], frozenset({"ikea"}), [p1, p2], joint_size=0)


class TestTryMerge:
    def test_merges_paper_clusters(self, paper_clusters):
        p1, p2 = paper_clusters
        outcome = try_merge(p1, p2, k=3, m=2)
        assert outcome.joint is not None
        assert {"ikea", "ruby"} <= set(outcome.refining_terms)

    def test_lifted_terms_leave_member_term_chunks(self, paper_clusters):
        p1, p2 = paper_clusters
        outcome = try_merge(p1, p2, k=3, m=2)
        for term in outcome.refining_terms:
            assert term not in p1.term_chunk
            assert term not in p2.term_chunk

    def test_rejects_clusters_with_no_common_term_chunk_terms(self):
        a = SimpleCluster(2, [], TermChunk({"p"}), label="A", original_records=[{"p"}, {"p"}])
        b = SimpleCluster(2, [], TermChunk({"q"}), label="B", original_records=[{"q"}, {"q"}])
        outcome = try_merge(a, b, k=2, m=2)
        assert outcome.joint is None
        assert "common" in outcome.reason

    def test_rejects_when_join_would_exceed_size_cap(self, paper_clusters):
        p1, p2 = paper_clusters
        outcome = try_merge(p1, p2, k=3, m=2, max_join_size=6)
        assert outcome.joint is None
        assert "max_join_size" in outcome.reason

    def test_requires_original_records(self):
        a = SimpleCluster(2, [], TermChunk({"p"}), label="A")
        b = SimpleCluster(2, [], TermChunk({"p"}), label="B")
        with pytest.raises(RefinementError):
            try_merge(a, b, k=2, m=2)


class TestRefine:
    def test_paper_clusters_are_joined(self, paper_clusters):
        p1, p2 = paper_clusters
        refined = refine([p1, p2], k=3, m=2)
        assert len(refined) == 1
        assert isinstance(refined[0], JointCluster)

    def test_single_cluster_is_returned_unchanged(self, paper_clusters):
        p1, _p2 = paper_clusters
        assert refine([p1], k=3, m=2) == [p1]

    def test_total_size_is_preserved(self, paper_clusters):
        p1, p2 = paper_clusters
        refined = refine([p1, p2], k=3, m=2)
        assert sum(cluster.size for cluster in refined) == 10

    def test_refine_without_common_terms_keeps_clusters_separate(self):
        a = SimpleCluster(2, [], TermChunk({"p"}), label="A", original_records=[{"p"}, {"p"}])
        b = SimpleCluster(2, [], TermChunk({"q"}), label="B", original_records=[{"q"}, {"q"}])
        refined = refine([a, b], k=2, m=2)
        assert len(refined) == 2

    def test_refine_terminates_on_many_identical_clusters(self):
        clusters = []
        for index in range(8):
            clusters.append(
                SimpleCluster(
                    3,
                    [],
                    TermChunk({"common"}),
                    label=f"C{index}",
                    original_records=[{"common"}, {"common"}, {"common"}],
                )
            )
        refined = refine(clusters, k=2, m=2, max_passes=10)
        assert sum(cluster.size for cluster in refined) == 24
