"""Unit tests for dataset I/O, the Quest generator and the real-data proxies."""

from __future__ import annotations

import json

import pytest

from repro.core.dataset import TransactionDataset
from repro.datasets.io import (
    read_dataset_json,
    read_disassociated_json,
    read_transactions,
    write_dataset_json,
    write_disassociated_json,
    write_transactions,
)
from repro.datasets.quest import QuestConfig, QuestGenerator, generate_quest
from repro.datasets.real_proxies import (
    PROFILES,
    available_datasets,
    load_proxy,
    profile_of,
)
from repro.exceptions import DatasetFormatError, ParameterError


class TestTransactionFileIO:
    def test_round_trip(self, paper_dataset, tmp_path):
        path = tmp_path / "data.txt"
        write_transactions(paper_dataset, path, delimiter="|")
        loaded = read_transactions(path, delimiter="|")
        assert sorted(map(sorted, loaded)) == sorted(map(sorted, paper_dataset))

    def test_default_delimiter_is_whitespace(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("a b c\nb c\n")
        loaded = read_transactions(path)
        assert len(loaded) == 2
        assert loaded[0] == frozenset({"a", "b", "c"})

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("a b\n\n\nc d\n")
        assert len(read_transactions(path)) == 2

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            read_transactions(tmp_path / "missing.txt")


class TestJsonIO:
    def test_dataset_round_trip(self, paper_dataset, tmp_path):
        path = tmp_path / "data.json"
        write_dataset_json(paper_dataset, path)
        assert read_dataset_json(path) == TransactionDataset(paper_dataset.to_lists())

    def test_dataset_json_is_sorted_lists(self, tiny_dataset, tmp_path):
        path = tmp_path / "data.json"
        write_dataset_json(tiny_dataset, path)
        payload = json.loads(path.read_text())
        assert isinstance(payload, list)
        assert all(row == sorted(row) for row in payload)

    def test_non_list_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a list"}')
        with pytest.raises(DatasetFormatError):
            read_dataset_json(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{invalid")
        with pytest.raises(DatasetFormatError):
            read_dataset_json(path)

    def test_published_round_trip(self, paper_published, tmp_path):
        path = tmp_path / "published.json"
        write_disassociated_json(paper_published, path)
        loaded = read_disassociated_json(path)
        assert loaded.k == paper_published.k
        assert loaded.total_records() == paper_published.total_records()
        assert loaded.domain() == paper_published.domain()

    def test_json_writers_emit_canonical_compact_bytes(
        self, paper_dataset, paper_published, tmp_path
    ):
        canonical = {"sort_keys": True, "separators": (",", ":")}
        published_path = tmp_path / "published.json"
        write_disassociated_json(paper_published, published_path)
        assert published_path.read_bytes() == json.dumps(
            paper_published.to_dict(), **canonical
        ).encode("utf-8")
        loaded = read_disassociated_json(published_path)
        assert loaded.to_dict() == paper_published.to_dict()
        dataset_path = tmp_path / "data.json"
        write_dataset_json(paper_dataset, dataset_path)
        assert dataset_path.read_bytes() == json.dumps(
            paper_dataset.to_lists(), **canonical
        ).encode("utf-8")

    def test_published_missing_file_raises(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            read_disassociated_json(tmp_path / "missing.json")


class TestQuestGenerator:
    def test_record_count_matches_config(self):
        dataset = generate_quest(num_transactions=300, domain_size=100, seed=0)
        assert len(dataset) == 300

    def test_domain_within_configured_bound(self):
        dataset = generate_quest(num_transactions=300, domain_size=100, seed=0)
        assert len(dataset.domain) <= 100

    def test_average_length_is_close_to_target(self):
        dataset = generate_quest(
            num_transactions=500, domain_size=200, avg_transaction_size=8.0, seed=1
        )
        assert 4.0 <= dataset.stats().avg_record_size <= 14.0

    def test_deterministic_given_seed(self):
        a = generate_quest(num_transactions=100, domain_size=50, seed=3)
        b = generate_quest(num_transactions=100, domain_size=50, seed=3)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_quest(num_transactions=100, domain_size=50, seed=3)
        b = generate_quest(num_transactions=100, domain_size=50, seed=4)
        assert a != b

    def test_skewed_supports(self):
        dataset = generate_quest(num_transactions=500, domain_size=300, seed=2)
        supports = sorted(dataset.term_supports().values(), reverse=True)
        # the head of the distribution is much heavier than the tail
        assert supports[0] >= 5 * supports[-1]

    def test_no_empty_records(self):
        dataset = generate_quest(num_transactions=200, domain_size=50, seed=5)
        assert all(record for record in dataset)

    def test_invalid_config_rejected(self):
        with pytest.raises(ParameterError):
            QuestConfig(num_transactions=0)
        with pytest.raises(ParameterError):
            QuestConfig(domain_size=1)
        with pytest.raises(ParameterError):
            QuestConfig(correlation=1.5)
        with pytest.raises(ParameterError):
            QuestConfig(corruption_mean=1.0)

    def test_config_and_overrides_are_mutually_exclusive(self):
        with pytest.raises(ParameterError):
            QuestGenerator(QuestConfig(), num_transactions=10)


class TestRealProxies:
    def test_available_datasets(self):
        assert available_datasets() == ["POS", "WV1", "WV2"]

    def test_profiles_match_figure6(self):
        assert PROFILES["POS"].num_records == 515_597
        assert PROFILES["POS"].domain_size == 1_657
        assert PROFILES["WV1"].avg_record_size == 2.5
        assert PROFILES["WV2"].domain_size == 3_340

    def test_profile_of_is_case_insensitive(self):
        assert profile_of("pos").name == "POS"

    def test_unknown_profile_rejected(self):
        with pytest.raises(ParameterError):
            load_proxy("NETFLIX")
        with pytest.raises(ParameterError):
            profile_of("NETFLIX")

    def test_scaled_record_count(self):
        dataset = load_proxy("WV1", scale=0.01, seed=0)
        expected = round(PROFILES["WV1"].num_records * 0.01)
        assert abs(len(dataset) - expected) <= 1

    def test_record_lengths_respect_profile_maximum(self):
        dataset = load_proxy("WV1", scale=0.01, seed=0)
        assert dataset.stats().max_record_size <= PROFILES["WV1"].max_record_size

    def test_average_length_roughly_matches_profile(self):
        dataset = load_proxy("POS", scale=0.005, seed=0)
        profile = PROFILES["POS"]
        assert profile.avg_record_size * 0.5 <= dataset.stats().avg_record_size
        assert dataset.stats().avg_record_size <= profile.avg_record_size * 1.8

    def test_domain_scale_shrinks_domain(self):
        full = load_proxy("WV2", scale=0.01, seed=0)
        small = load_proxy("WV2", scale=0.01, seed=0, domain_scale=0.1)
        assert len(small.domain) < len(full.domain)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ParameterError):
            load_proxy("POS", scale=0.0)
        with pytest.raises(ParameterError):
            load_proxy("POS", scale=1.5)
        with pytest.raises(ParameterError):
            load_proxy("POS", domain_scale=0.0)

    def test_deterministic_given_seed(self):
        assert load_proxy("WV1", scale=0.005, seed=2) == load_proxy("WV1", scale=0.005, seed=2)

    def test_supports_are_skewed(self):
        dataset = load_proxy("POS", scale=0.005, seed=0)
        supports = sorted(dataset.term_supports().values(), reverse=True)
        assert supports[0] >= 10 * supports[-1]
