"""Unit tests for VERPART and the Lemma-2 enforcement (repro.core.vertical)."""

from __future__ import annotations

import pytest

from repro.core.anonymity import is_km_anonymous
from repro.core.dataset import TransactionDataset
from repro.core.vertical import (
    _MaskCoverage,
    demote_for_lemma2,
    satisfies_lemma2,
    subrecord_bound,
    vertical_partition_fast,
)
from repro.core.vocab import EncodedCluster
from repro.exceptions import ParameterError
from tests.reference.vertical import _RecordCoverage, vertical_partition


@pytest.fixture
def p1_records() -> TransactionDataset:
    """Cluster P1 of the paper (records r1-r5)."""
    return TransactionDataset(
        [
            {"itunes", "flu", "madonna", "ikea", "ruby"},
            {"madonna", "flu", "viagra", "ruby", "audi a4", "sony tv"},
            {"itunes", "madonna", "audi a4", "ikea", "sony tv"},
            {"itunes", "flu", "viagra"},
            {"itunes", "flu", "madonna", "audi a4", "sony tv"},
        ]
    )


class TestVerticalPartition:
    def test_rare_terms_go_to_term_chunk(self, p1_records):
        result = vertical_partition(p1_records, k=3, m=2)
        term_chunk = result.cluster.term_chunk.terms
        # ikea, viagra and ruby have support 2 < 3 in P1 (paper, Figure 2b)
        assert {"ikea", "viagra", "ruby"} <= term_chunk

    def test_frequent_terms_form_km_anonymous_chunks(self, p1_records):
        result = vertical_partition(p1_records, k=3, m=2)
        for chunk in result.cluster.record_chunks:
            assert is_km_anonymous(chunk.subrecords, k=3, m=2)

    def test_paper_p1_chunk_domains(self, p1_records):
        result = vertical_partition(p1_records, k=3, m=2)
        domains = {frozenset(chunk.domain) for chunk in result.cluster.record_chunks}
        assert frozenset({"itunes", "flu", "madonna"}) in domains
        assert frozenset({"audi a4", "sony tv"}) in domains

    def test_cluster_size_is_published(self, p1_records):
        result = vertical_partition(p1_records, k=3, m=2)
        assert result.cluster.size == 5

    def test_chunk_domains_are_disjoint(self, p1_records):
        result = vertical_partition(p1_records, k=3, m=2)
        seen: set = set()
        for chunk in result.cluster.record_chunks:
            assert not (chunk.domain & seen)
            seen.update(chunk.domain)
        assert not (seen & result.cluster.term_chunk.terms)

    def test_domains_are_jointly_exhaustive(self, p1_records):
        result = vertical_partition(p1_records, k=3, m=2)
        covered = set(result.cluster.term_chunk.terms)
        for chunk in result.cluster.record_chunks:
            covered.update(chunk.domain)
        assert covered == set(p1_records.domain)

    def test_original_records_attached_for_refinement(self, p1_records):
        result = vertical_partition(p1_records, k=3, m=2)
        originals = result.cluster.original_records
        assert originals is not None
        assert sorted(map(sorted, originals)) == sorted(map(sorted, p1_records))

    def test_k_larger_than_cluster_puts_everything_in_term_chunk(self, p1_records):
        result = vertical_partition(p1_records, k=10, m=2)
        assert not result.cluster.record_chunks
        assert result.cluster.term_chunk.terms == frozenset(p1_records.domain)

    def test_k_equals_one_keeps_all_terms_in_record_chunks(self, p1_records):
        result = vertical_partition(p1_records, k=1, m=2)
        assert result.cluster.term_chunk.terms == frozenset()

    def test_invalid_parameters_rejected(self, p1_records):
        with pytest.raises(ParameterError):
            vertical_partition(p1_records, k=0, m=2)

    def test_label_is_propagated(self, p1_records):
        result = vertical_partition(p1_records, k=3, m=2, label="cluster-7")
        assert result.cluster.label == "cluster-7"

    def test_m_of_three_still_produces_anonymous_chunks(self, p1_records):
        result = vertical_partition(p1_records, k=2, m=3)
        for chunk in result.cluster.record_chunks:
            assert is_km_anonymous(chunk.subrecords, k=2, m=3)

    def test_all_identical_records_single_chunk(self):
        records = TransactionDataset([{"x", "y", "z"}] * 6)
        result = vertical_partition(records, k=3, m=2)
        assert len(result.cluster.record_chunks) == 1
        assert result.cluster.record_chunks[0].domain == frozenset({"x", "y", "z"})


class TestLemma2:
    def test_subrecord_bound_formula(self):
        # size + k * (min(m, v) - 1)
        assert subrecord_bound(size=5, k=3, m=2, num_chunks=2) == 5 + 3
        assert subrecord_bound(size=5, k=3, m=2, num_chunks=1) == 5
        assert subrecord_bound(size=5, k=3, m=4, num_chunks=3) == 5 + 3 * 2
        assert subrecord_bound(size=5, k=3, m=2, num_chunks=0) == 0

    def test_example1_without_enforcement_violates_lemma2(self, example1_cluster):
        result = vertical_partition(example1_cluster, k=3, m=2, enforce_lemma2=False)
        cluster = result.cluster
        # chunks {a} and {b,c} are each 3^2-anonymous, but only 3+3=6 < 5+3
        # sub-records exist and the term chunk is empty: Example 1 of the paper
        if len(cluster.record_chunks) >= 2 and len(cluster.term_chunk) == 0:
            assert not satisfies_lemma2(cluster, k=3, m=2)

    def test_example1_with_enforcement_satisfies_lemma2(self, example1_cluster):
        result = vertical_partition(example1_cluster, k=3, m=2)
        assert satisfies_lemma2(result.cluster, k=3, m=2)

    def test_enforcement_demotes_terms_to_term_chunk(self, example1_cluster):
        result = vertical_partition(example1_cluster, k=3, m=2)
        # enforcing Lemma 2 on Example 1 requires a non-empty term chunk
        assert len(result.cluster.term_chunk) > 0
        assert result.demoted_terms <= frozenset({"a", "b", "c"})

    def test_non_empty_term_chunk_always_satisfies_lemma2(self, p1_records):
        result = vertical_partition(p1_records, k=3, m=2)
        assert len(result.cluster.term_chunk) > 0
        assert satisfies_lemma2(result.cluster, k=3, m=2)

    def test_demoted_terms_empty_when_bound_already_met(self, p1_records):
        result = vertical_partition(p1_records, k=3, m=2)
        assert result.demoted_terms == frozenset()

    def test_single_chunk_cluster_satisfies_lemma2(self):
        records = TransactionDataset([{"x", "y"}] * 4)
        result = vertical_partition(records, k=2, m=2)
        assert satisfies_lemma2(result.cluster, k=2, m=2)


class TestIncrementalDemotion:
    """The Lemma-2 demotion loop over incremental coverage trackers."""

    RECORDS = [
        frozenset({"x"}),
        frozenset({"x"}),
        frozenset({"x"}),
        frozenset({"y"}),
        frozenset({"y"}),
        frozenset({"y"}),
    ]
    DOMAINS = [frozenset({"x"}), frozenset({"y"})]
    SUPPORTS = {"x": 3, "y": 3}

    def test_default_mode_stops_after_first_demotion(self):
        coverage = _RecordCoverage(self.RECORDS, self.DOMAINS)
        demoted = demote_for_lemma2(coverage, self.SUPPORTS, k=3, m=2, size=6)
        # one demoted term repopulates the term chunk, which satisfies Lemma 2
        assert demoted == {"x"}
        assert coverage.domains_frozen() == [frozenset({"y"})]

    def test_mask_coverage_matches_record_coverage(self):
        cluster = EncodedCluster(self.RECORDS)
        record_cov = _RecordCoverage(self.RECORDS, self.DOMAINS)
        mask_cov = _MaskCoverage(cluster.masks, self.DOMAINS)
        demoted_rec = demote_for_lemma2(record_cov, self.SUPPORTS, k=3, m=2, size=6)
        demoted_mask = demote_for_lemma2(mask_cov, self.SUPPORTS, k=3, m=2, size=6)
        assert demoted_rec == demoted_mask
        assert record_cov.domains_frozen() == mask_cov.domains_frozen()

    def test_coverage_totals_track_incremental_updates(self):
        records = [frozenset({"a", "b"}), frozenset({"a"}), frozenset({"c"})]
        domains = [frozenset({"a", "b"}), frozenset({"c"})]
        coverage = _RecordCoverage(records, domains)
        assert coverage.total() == 3
        coverage.remove_term("a")
        assert coverage.total() == 2  # {b} covers one record, {c} one
        coverage.remove_term("b")
        assert coverage.total() == 1
        assert coverage.num_domains() == 1

    def test_fast_path_demotes_same_terms_as_reference(self, example1_cluster):
        reference = vertical_partition(example1_cluster, k=3, m=2)
        fast = vertical_partition_fast(list(example1_cluster), k=3, m=2)
        assert reference.demoted_terms == fast.demoted_terms
        assert reference.cluster.to_dict() == fast.cluster.to_dict()
