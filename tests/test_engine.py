"""Unit and integration tests for the end-to-end engine (repro.core.engine)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.dataset import TransactionDataset
from repro.core.engine import AnonymizationParams, Disassociator
from repro.core.verification import audit
from repro.exceptions import ParameterError
from tests.conftest import make_uniform_dataset

#: The paper's running example is published at k=3, m=2 in clusters of <= 6.
PAPER_PARAMS = AnonymizationParams(k=3, m=2, max_cluster_size=6)


class TestAnonymizationParams:
    def test_defaults_match_paper(self):
        params = AnonymizationParams()
        assert params.k == 5 and params.m == 2

    @pytest.mark.parametrize("kwargs", [
        {"k": 0},
        {"m": 0},
        {"max_cluster_size": 1},
        {"k": 10, "max_cluster_size": 10},
        {"max_cluster_size": 30, "max_join_size": 10},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            AnonymizationParams(**kwargs)

    def test_sensitive_terms_normalized_to_strings(self):
        params = AnonymizationParams(sensitive_terms={1, "x"})
        assert params.sensitive_terms == frozenset({"1", "x"})

    def test_params_are_frozen(self):
        params = AnonymizationParams()
        with pytest.raises(AttributeError):
            params.k = 10


class TestDisassociator:
    def test_output_is_km_anonymous(self, paper_dataset):
        published = Disassociator(PAPER_PARAMS).anonymize(paper_dataset)
        assert audit(published).ok

    def test_total_records_preserved(self, paper_dataset):
        published = Disassociator(PAPER_PARAMS).anonymize(paper_dataset)
        assert published.total_records() == len(paper_dataset)

    def test_all_original_terms_published(self, paper_dataset):
        published = Disassociator(PAPER_PARAMS).anonymize(paper_dataset)
        assert published.domain() == paper_dataset.domain

    def test_parameters_recorded_on_output(self, paper_dataset):
        published = Disassociator(PAPER_PARAMS).anonymize(paper_dataset)
        assert published.k == 3 and published.m == 2

    def test_report_is_filled(self, paper_dataset):
        engine = Disassociator(AnonymizationParams(k=3, m=2, max_cluster_size=6))
        engine.anonymize(paper_dataset)
        report = engine.last_report
        assert report.num_records == 10
        assert report.num_clusters >= 1
        assert report.total_seconds >= 0

    def test_refine_disabled_produces_only_simple_clusters(self, paper_dataset):
        from repro.core.clusters import SimpleCluster

        published = Disassociator(
            replace(PAPER_PARAMS, refine=False)
        ).anonymize(paper_dataset)
        assert all(isinstance(c, SimpleCluster) for c in published.clusters)
        assert audit(published).ok

    def test_higher_k_pushes_more_terms_to_term_chunks(self):
        dataset = make_uniform_dataset(80, domain=25, record_length=5, seed=11)
        loose = Disassociator(
            AnonymizationParams(k=2, m=2, max_cluster_size=20)
        ).anonymize(dataset)
        strict = Disassociator(
            AnonymizationParams(k=8, m=2, max_cluster_size=20)
        ).anonymize(dataset)
        assert len(strict.record_chunk_terms()) <= len(loose.record_chunk_terms())

    def test_m_of_one_reduces_to_per_term_threshold(self, paper_dataset):
        published = Disassociator(
            AnonymizationParams(k=3, m=1, max_cluster_size=12)
        ).anonymize(paper_dataset)
        assert audit(published).ok

    def test_single_record_dataset(self):
        published = Disassociator(
            AnonymizationParams(k=2, m=2, max_cluster_size=5)
        ).anonymize(TransactionDataset([{"a", "b"}]))
        assert published.total_records() == 1
        # a single record can never reach support 2: everything is disassociated
        assert published.record_chunk_terms() == frozenset()
        assert audit(published).ok

    def test_duplicate_records_dataset(self):
        published = Disassociator(
            AnonymizationParams(k=3, m=2, max_cluster_size=6)
        ).anonymize(TransactionDataset([{"a", "b"}] * 10))
        assert audit(published).ok
        assert published.lower_bound_support({"a", "b"}) >= 3

    def test_uniform_dataset_end_to_end(self):
        dataset = make_uniform_dataset(120, domain=40, record_length=4, seed=5)
        published = Disassociator(
            AnonymizationParams(k=4, m=2, max_cluster_size=25)
        ).anonymize(dataset)
        assert audit(published).ok
        assert published.total_records() == 120


class TestPipelineAPI:
    def test_default_pipeline_phases_in_order(self):
        from repro.core.engine import Pipeline

        pipeline = Disassociator().build_pipeline()
        assert isinstance(pipeline, Pipeline)
        assert [phase.name for phase in pipeline.phases] == [
            "horizontal",
            "vertical",
            "refine",
            "verify",
        ]

    def test_custom_phase_is_timed_into_report(self, paper_dataset):
        from repro.core.engine import DEFAULT_PHASES, Pipeline

        class CountingPhase:
            name = "refine"  # accounts into refine_seconds
            calls = 0

            def run(self, ctx):
                CountingPhase.calls += 1

        class CustomDisassociator(Disassociator):
            def build_pipeline(self):
                phases = [phase() for phase in DEFAULT_PHASES]
                phases.insert(3, CountingPhase())
                return Pipeline(phases)

        engine = CustomDisassociator(AnonymizationParams(k=3, m=2, max_cluster_size=6))
        engine.anonymize(paper_dataset)
        assert CountingPhase.calls == 1
        assert engine.last_report.refine_seconds >= 0

    def test_report_includes_encode_decode_time(self, paper_dataset):
        engine = Disassociator(AnonymizationParams(k=3, m=2, max_cluster_size=6))
        engine.anonymize(paper_dataset)
        report = engine.last_report
        assert report.encode_seconds >= 0
        assert report.decode_seconds >= 0
        timings = report.phase_timings()
        assert set(timings) == {
            "horizontal_seconds",
            "vertical_seconds",
            "refine_seconds",
            "verify_seconds",
            "encode_seconds",
            "decode_seconds",
            "total_seconds",
        }


class TestReattachSensitive:
    def test_duplicates_consumed_in_dataset_order(self):
        from repro.core.engine import _reattach_sensitive

        # Two records share the non-sensitive projection {a} but carry
        # different sensitive terms: FIFO matching must hand them back in
        # dataset order, not reversed.
        dataset = TransactionDataset([{"a", "s1"}, {"a", "s2"}, {"b"}])
        partitions = [TransactionDataset([{"a"}, {"a"}]), TransactionDataset([{"b"}])]
        restored = _reattach_sensitive(dataset, partitions, frozenset({"s1", "s2"}))
        assert list(restored[0]) == [frozenset({"a", "s1"}), frozenset({"a", "s2"})]
        assert list(restored[1]) == [frozenset({"b"})]

    def test_multiplicities_preserved_with_duplicate_records(self):
        from collections import Counter

        from repro.core.engine import _reattach_sensitive

        dataset = TransactionDataset(
            [{"a", "s1"}, {"a", "s2"}, {"a", "s1"}, {"a"}, {"c", "s2"}]
        )
        partitions = [
            TransactionDataset([{"a"}, {"a"}]),
            TransactionDataset([{"a"}, {"a"}, {"c"}]),
        ]
        restored = _reattach_sensitive(dataset, partitions, frozenset({"s1", "s2"}))
        flattened = Counter(r for part in restored for r in part)
        assert flattened == Counter(iter(dataset))

    def test_end_to_end_with_duplicate_sensitive_records(self):
        dataset = TransactionDataset(
            [{"x", "s"}, {"x"}, {"x", "s"}, {"x"}, {"x", "s"}, {"x"}]
        )
        published = Disassociator(
            AnonymizationParams(
                k=2,
                m=2,
                max_cluster_size=4,
                sensitive_terms={"s"},
            )
        ).anonymize(dataset)
        assert published.total_records() == 6
        assert "s" in published.domain()
        assert audit(published).ok


class TestSensitiveTerms:
    def test_sensitive_terms_never_appear_in_record_chunks(self, paper_dataset):
        sensitive = {"viagra", "panic disorder"}
        published = Disassociator(
            replace(PAPER_PARAMS, sensitive_terms=sensitive)
        ).anonymize(paper_dataset)
        assert not (published.record_chunk_terms() & sensitive)

    def test_sensitive_terms_still_published_in_term_chunks(self, paper_dataset):
        sensitive = {"viagra", "panic disorder"}
        published = Disassociator(
            replace(PAPER_PARAMS, sensitive_terms=sensitive)
        ).anonymize(paper_dataset)
        assert sensitive <= set(published.domain())

    def test_sensitive_output_still_km_anonymous(self, paper_dataset):
        published = Disassociator(
            replace(PAPER_PARAMS, sensitive_terms={"madonna"})
        ).anonymize(paper_dataset)
        assert audit(published).ok

    def test_record_count_preserved_with_sensitive_terms(self, paper_dataset):
        published = Disassociator(
            replace(PAPER_PARAMS, sensitive_terms={"madonna"})
        ).anonymize(paper_dataset)
        assert published.total_records() == len(paper_dataset)

    def test_all_sensitive_record_is_preserved(self):
        dataset = TransactionDataset([{"s"}, {"s", "x"}, {"x"}, {"x", "s"}])
        published = Disassociator(
            AnonymizationParams(k=2, m=2, max_cluster_size=3, sensitive_terms={"s"})
        ).anonymize(dataset)
        assert published.total_records() == 4
        assert "s" in published.domain()
