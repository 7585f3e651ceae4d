"""Round-trip tests for the streaming I/O layer (``repro.datasets.io``).

Every on-disk format must satisfy: write -> streaming read -> identical
records, in order.  The sharded pipelines read their input through these
readers, so a malformed record must be refused with the file and line,
never coerced into a different one.
"""

from __future__ import annotations

import pytest

from repro.core.dataset import TransactionDataset
from repro.datasets.io import (
    iter_jsonl,
    iter_records,
    iter_transactions,
    read_jsonl,
    read_records,
    sniff_format,
    write_dataset_json,
    write_jsonl,
    write_transactions,
)
from repro.exceptions import DatasetFormatError


@pytest.fixture
def records():
    return [
        frozenset({"a", "b"}),
        frozenset({"c"}),
        frozenset({"a", "b"}),  # duplicate: bag semantics must survive
        frozenset({"x y", "z"}),  # term with a space (JSONL only)
    ]


class TestJsonlRoundTrip:
    def test_write_then_streaming_read_is_identity(self, records, tmp_path):
        path = tmp_path / "data.jsonl"
        assert write_jsonl(records, path) == len(records)
        assert list(iter_jsonl(path)) == records

    def test_read_jsonl_returns_dataset(self, records, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(records, path)
        dataset = read_jsonl(path)
        assert isinstance(dataset, TransactionDataset)
        assert list(dataset) == records

    def test_invalid_json_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('["a"]\nnot json\n')
        with pytest.raises(DatasetFormatError, match=":2"):
            list(iter_jsonl(path))

    def test_non_list_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"a": 1}\n')
        with pytest.raises(DatasetFormatError, match="expected a non-empty JSON list"):
            list(iter_jsonl(path))

    def test_empty_record_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[]\n")
        with pytest.raises(DatasetFormatError):
            list(iter_jsonl(path))

    @pytest.mark.parametrize(
        "line",
        ["[1, 2]", '["a", 2]', "[null]", '[["q"]]', '[""]', '["a", true]', '[{"a": 1}]'],
        ids=["ints", "mixed-int", "null", "nested-list", "empty-string", "bool", "object"],
    )
    def test_non_string_term_rejected_with_file_and_line(self, line, tmp_path):
        """A term that is not a non-empty string is refused, not coerced
        (``1`` would otherwise merge with the real term ``"1"``)."""
        path = tmp_path / "bad.jsonl"
        path.write_text('["1", "2"]\n\n' + line + "\n")
        with pytest.raises(DatasetFormatError, match="not a non-empty string") as excinfo:
            list(iter_jsonl(path))
        assert f"{path}:3:" in str(excinfo.value)


class TestTransactionsStreaming:
    def test_write_then_streaming_read_is_identity(self, tmp_path):
        records = [frozenset({"a", "b"}), frozenset({"c"}), frozenset({"a", "b"})]
        path = tmp_path / "data.txt"
        write_transactions(TransactionDataset(records), path)
        assert list(iter_transactions(path)) == records

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("a b\n\n\nc\n")
        assert list(iter_transactions(path)) == [frozenset({"a", "b"}), frozenset({"c"})]


class TestFormatDispatch:
    @pytest.mark.parametrize(
        "name, expected",
        [("d.jsonl", "jsonl"), ("d.ndjson", "jsonl"), ("d.json", "json"), ("d.txt", "transactions"), ("d.dat", "transactions")],
    )
    def test_sniff_format(self, name, expected):
        assert sniff_format(name) == expected

    def test_iter_records_auto_on_each_format(self, records, tmp_path):
        jsonl = tmp_path / "d.jsonl"
        write_jsonl(records, jsonl)
        assert list(iter_records(jsonl)) == records

        plain = [r for r in records if all(" " not in t for t in r)]
        txt = tmp_path / "d.txt"
        write_transactions(TransactionDataset(plain), txt)
        assert list(iter_records(txt)) == plain

        jsonp = tmp_path / "d.json"
        write_dataset_json(TransactionDataset(records), jsonp)
        assert list(iter_records(jsonp)) == records

    def test_read_records_matches_iter_records(self, records, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(records, path)
        assert list(read_records(path)) == list(iter_records(path))

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="unknown record format"):
            list(iter_records(tmp_path / "d.txt", format="parquet"))

