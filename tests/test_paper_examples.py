"""Tests that re-enact the paper's worked examples (Figures 2-5, Example 1).

These tests pin the library's behaviour to the concrete numbers printed in
the paper, which is the strongest form of reproduction available for the
algorithmic part of the work.
"""

from __future__ import annotations

import pytest

from repro.core.anonymity import is_k_anonymous, is_km_anonymous
from repro.core.clusters import JointCluster, RecordChunk, SharedChunk, SimpleCluster, TermChunk
from repro.core.dataset import TransactionDataset
from repro.core.reconstruct import reconstruct
from repro.core.verification import audit
from repro.core.vertical import satisfies_lemma2
from tests.conftest import EXAMPLE1_RECORDS, PAPER_RECORDS
from tests.reference.refine import build_shared_chunks, merge_criterion
from tests.reference.vertical import vertical_partition


class TestFigure2:
    """Figure 2: the running example (query log of 10 users)."""

    def test_identifying_pair_exists_in_original(self, paper_dataset):
        # John knows Jane searched for madonna and viagra: only r2 matches.
        assert paper_dataset.support({"madonna", "viagra"}) == 1

    def test_vertical_partition_of_p1_matches_paper(self):
        p1 = TransactionDataset(PAPER_RECORDS[:5])
        cluster = vertical_partition(p1, k=3, m=2, label="P1").cluster
        domains = {frozenset(chunk.domain) for chunk in cluster.record_chunks}
        assert frozenset({"itunes", "flu", "madonna"}) in domains
        assert frozenset({"audi a4", "sony tv"}) in domains
        assert cluster.term_chunk.terms == frozenset({"ikea", "viagra", "ruby"})

    def test_vertical_partition_of_p2_matches_paper(self):
        p2 = TransactionDataset(PAPER_RECORDS[5:])
        cluster = vertical_partition(p2, k=3, m=2, label="P2").cluster
        domains = {frozenset(chunk.domain) for chunk in cluster.record_chunks}
        assert frozenset({"iphone sdk", "digital camera", "madonna"}) in domains
        assert cluster.term_chunk.terms == frozenset(
            {"panic disorder", "playboy", "ikea", "ruby"}
        )

    def test_published_c1_subrecords_match_figure_2b(self):
        p1 = TransactionDataset(PAPER_RECORDS[:5])
        cluster = vertical_partition(p1, k=3, m=2).cluster
        c1 = next(
            chunk
            for chunk in cluster.record_chunks
            if chunk.domain == frozenset({"itunes", "flu", "madonna"})
        )
        expected = sorted(
            map(
                sorted,
                [
                    {"itunes", "flu", "madonna"},
                    {"madonna", "flu"},
                    {"itunes", "madonna"},
                    {"itunes", "flu"},
                    {"itunes", "flu", "madonna"},
                ],
            )
        )
        assert sorted(map(sorted, c1.subrecords)) == expected

    def test_anonymized_dataset_hides_the_identifying_pair(self, paper_published):
        # after disassociation no chunk associates madonna with viagra
        assert paper_published.lower_bound_support({"madonna", "viagra"}) == 0

    def test_guarantee_holds_for_k3_m2(self, paper_published):
        assert paper_published.k == 3 and paper_published.m == 2
        assert audit(paper_published).ok


class TestFigure3:
    """Figure 3: the joint cluster with a shared chunk over {ikea, ruby}."""

    def _clusters(self):
        p1 = vertical_partition(TransactionDataset(PAPER_RECORDS[:5]), k=3, m=2, label="P1").cluster
        p2 = vertical_partition(TransactionDataset(PAPER_RECORDS[5:]), k=3, m=2, label="P2").cluster
        return p1, p2

    def test_shared_chunk_over_ikea_ruby_is_km_anonymous(self):
        p1, p2 = self._clusters()
        chunks, placed = build_shared_chunks(
            [p1, p2],
            frozenset({"ikea", "ruby"}),
            p1.record_chunk_terms() | p2.record_chunk_terms(),
            k=3,
            m=2,
        )
        assert placed == frozenset({"ikea", "ruby"})
        for chunk in chunks:
            assert is_km_anonymous(chunk.subrecords, k=3, m=2)

    def test_equation1_numbers_match_paper(self):
        # paper: (s(ruby) + s(ikea)) / |Jnew| = (4+4)/10 >= (2+2)/10
        p1, p2 = self._clusters()
        chunks, placed = build_shared_chunks(
            [p1, p2], frozenset({"ikea", "ruby"}), frozenset(), k=3, m=2
        )
        supports = {}
        for chunk in chunks:
            supports.update(chunk.term_supports())
        assert supports["ikea"] + supports["ruby"] == 8
        assert merge_criterion(chunks, placed, [p1, p2], joint_size=10)


class TestFigure4AndExample1:
    """Figure 4 / Example 1: chunk-level anonymity is not sufficient."""

    def test_both_chunks_are_3_2_anonymous(self):
        c1 = [frozenset({"a"})] * 3
        c2 = [frozenset({"b", "c"})] * 3
        assert is_km_anonymous(c1, k=3, m=2)
        assert is_km_anonymous(c2, k=3, m=2)

    def test_but_lemma2_rejects_the_publication(self):
        cluster = SimpleCluster(
            size=5,
            record_chunks=[
                RecordChunk({"a"}, [{"a"}] * 3),
                RecordChunk({"b", "c"}, [{"b", "c"}] * 3),
            ],
            term_chunk=TermChunk(),
            label="example1",
        )
        assert not satisfies_lemma2(cluster, k=3, m=2)

    def test_verpart_on_example1_produces_a_safe_cluster(self):
        cluster = vertical_partition(TransactionDataset(EXAMPLE1_RECORDS), k=3, m=2).cluster
        assert satisfies_lemma2(cluster, k=3, m=2)
        for chunk in cluster.record_chunks:
            assert is_km_anonymous(chunk.subrecords, k=3, m=2)

    def test_reconstruction_of_safe_example1_has_five_records(self):
        from repro.core.clusters import DisassociatedDataset

        cluster = vertical_partition(TransactionDataset(EXAMPLE1_RECORDS), k=3, m=2).cluster
        published = DisassociatedDataset([cluster], k=3, m=2)
        world = reconstruct(published, seed=0)
        assert len(world) == 5
        assert all(record for record in world)


class TestFigure5:
    """Figure 5: unsafe vs safe shared chunks (Property 1)."""

    def _leaf(self, label, records, term_chunk):
        chunks = []
        from collections import Counter

        counts = Counter()
        for record in records:
            counts.update(record)
        frequent = {t for t, c in counts.items() if c >= 3 and t not in term_chunk}
        if frequent:
            chunks.append(RecordChunk(frequent, [set(r) & frequent for r in records]))
        return SimpleCluster(
            len(records), chunks, TermChunk(term_chunk), label=label, original_records=records
        )

    def test_unsafe_shared_chunk_of_figure_5a_violates_property1(self):
        # shared chunk {a,o} with sub-records {a,o},{a,o},{a},{o},... where "a"
        # also lives in the first cluster's record chunk: not k-anonymous.
        shared = SharedChunk(
            {"a", "o"}, [{"a", "o"}, {"a", "o"}, {"a"}, {"o"}], {"1st": 4}
        )
        assert not is_k_anonymous(shared.subrecords, k=3)

    def test_safe_shared_chunk_of_figure_5b_satisfies_property1(self):
        shared = SharedChunk({"a", "o"}, [{"a"}, {"a"}, {"a"}, {"o"}, {"o"}, {"o"}], {"1st": 6})
        assert is_k_anonymous(shared.subrecords, k=3)
        assert is_km_anonymous(shared.subrecords, k=3, m=2)

    def test_audit_flags_the_unsafe_joint_cluster(self):
        first = self._leaf(
            "1st",
            [
                {"e", "a", "x"},
                {"e", "a", "x"},
                {"e", "a", "x"},
                {"a", "o"},
                {"a", "o"},
                {"a"},
                {"o"},
            ],
            term_chunk=set(),
        )
        second = self._leaf("2nd", [{"b"}, {"b"}, {"b"}], term_chunk=set())
        unsafe_shared = SharedChunk(
            {"a", "o"}, [{"a", "o"}, {"a", "o"}, {"a"}, {"o"}], {"1st": 4}
        )
        joint = JointCluster([first, second], [unsafe_shared], label="J-unsafe")
        from repro.core.clusters import DisassociatedDataset

        published = DisassociatedDataset([joint], k=3, m=2)
        report = audit(published)
        assert not report.ok


class TestAdversaryView:
    """Guarantee 1 from the adversary's perspective on the pipeline output.

    The published chunks must never associate an m-term combination with
    fewer than k records: either the combination is not observable inside
    any single chunk (its members were disassociated, lower bound 0) or it
    appears at least k times (Lemma 1).
    """

    def test_every_published_pair_association_is_k_supported(self, paper_published):
        from itertools import combinations

        k = paper_published.k
        for chunk in paper_published.iter_record_chunks():
            pair_counts = {}
            for subrecord in chunk.subrecords:
                for pair in combinations(sorted(subrecord), 2):
                    pair_counts[pair] = pair_counts.get(pair, 0) + 1
            for pair, count in pair_counts.items():
                assert count >= k, f"pair {pair} associated only {count} < {k} times"

    def test_identifying_background_knowledge_is_disassociated(
        self, paper_dataset, paper_published
    ):
        """Every pair that uniquely identified a record in the original data
        (support < k) must be unobservable in the published chunks."""
        from itertools import combinations

        k = paper_published.k
        for record in paper_dataset:
            for pair in combinations(sorted(record), 2):
                if paper_dataset.support(pair) < k:
                    bound = paper_published.lower_bound_support(pair)
                    assert bound == 0 or bound >= k

    def test_original_dataset_is_hidden_among_reconstructions(
        self, paper_dataset, paper_published
    ):
        """The published data must not betray the original world: the
        identifying pair is unobservable in the chunks and the sampled
        reconstructions are not copies of the original dataset."""
        rare_pair = {"madonna", "viagra"}
        assert paper_dataset.support(rare_pair) == 1
        assert paper_published.lower_bound_support(rare_pair) == 0
        worlds = [reconstruct(paper_published, seed=seed) for seed in range(5)]
        original_multiset = sorted(map(sorted, paper_dataset))
        differing = sum(
            1 for world in worlds if sorted(map(sorted, world)) != original_multiset
        )
        assert differing >= 1
