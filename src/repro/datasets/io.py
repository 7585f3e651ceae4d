"""Reading and writing transaction datasets and disassociated publications.

Three on-disk formats are supported:

* **transaction files** -- one record per line, terms separated by a
  delimiter (space by default), the format used by the classic market-basket
  datasets (POS/WV1/WV2 were distributed this way);
* **JSONL** -- one JSON list of non-empty string terms per line; an
  interchange format the streaming subsystem (:mod:`repro.stream`) reads
  record-by-record without parsing the whole file;
* **JSON** -- for both plain datasets and disassociated publications
  (clusters, chunks and parameters), used by the CLI and the examples.

Every ``read_*`` function has a streaming ``iter_*`` counterpart that yields
one record (``frozenset`` of terms) at a time without materializing the
dataset, so arbitrarily large files can be processed under a fixed memory
bound.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import Union

from repro.core.clusters import DisassociatedDataset, canonical_json, paused_gc
from repro.core.dataset import Record, TransactionDataset
from repro.exceptions import DatasetFormatError

PathLike = Union[str, Path]

#: On-disk record formats understood by :func:`iter_records` /
#: :func:`read_records`.  ``"auto"`` sniffs from the file extension
#: (``.jsonl``/``.ndjson`` -> jsonl, ``.json`` -> json, anything else ->
#: transactions).
RECORD_FORMATS = ("auto", "transactions", "jsonl", "json")


# --------------------------------------------------------------------------- #
# transaction (one line per record) format
# --------------------------------------------------------------------------- #
def iter_transactions(path: PathLike, delimiter: str = None) -> Iterator[Record]:
    """Stream a transaction file one record at a time (constant memory).

    Blank lines are skipped; a line with no terms after splitting raises
    :class:`~repro.exceptions.DatasetFormatError` (empty records are not
    meaningful in set-valued data).
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                terms = [t for t in line.split(delimiter) if t]
                if not terms:
                    raise DatasetFormatError(
                        f"{path}:{line_number}: record has no terms"
                    )
                yield frozenset(terms)
    except OSError as exc:
        raise DatasetFormatError(f"cannot read transaction file {path}: {exc}") from exc


def read_transactions(path: PathLike, delimiter: str = None) -> TransactionDataset:
    """Read a transaction file: one record per line, delimiter-separated terms."""
    return TransactionDataset(iter_transactions(path, delimiter=delimiter))


def write_transactions(
    dataset: TransactionDataset, path: PathLike, delimiter: str = " "
) -> None:
    """Write a dataset as a transaction file (terms sorted within each record)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for record in dataset:
            handle.write(delimiter.join(sorted(record)) + "\n")


# --------------------------------------------------------------------------- #
# JSONL (one JSON record per line) format
# --------------------------------------------------------------------------- #
def iter_jsonl(path: PathLike) -> Iterator[Record]:
    """Stream a JSONL dataset one record at a time (constant memory).

    Each non-blank line must be a non-empty JSON list of non-empty
    strings; anything else -- including numbers, ``null``, nested lists
    and ``""`` terms, which would otherwise be coerced to strings that
    collide with real terms -- raises
    :class:`~repro.exceptions.DatasetFormatError` naming the file and line.
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    terms = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DatasetFormatError(
                        f"{path}:{line_number}: invalid JSON record: {exc}"
                    ) from exc
                if not isinstance(terms, list) or not terms:
                    raise DatasetFormatError(
                        f"{path}:{line_number}: expected a non-empty JSON list of terms"
                    )
                for term in terms:
                    if not isinstance(term, str) or not term:
                        raise DatasetFormatError(
                            f"{path}:{line_number}: term {term!r} is not a "
                            "non-empty string"
                        )
                yield frozenset(terms)
    except OSError as exc:
        raise DatasetFormatError(f"cannot read JSONL file {path}: {exc}") from exc


def read_jsonl(path: PathLike) -> TransactionDataset:
    """Read a JSONL dataset (one JSON list of terms per line)."""
    return TransactionDataset(iter_jsonl(path))


def write_jsonl(records: Iterable[Iterable], path: PathLike) -> int:
    """Write records as JSONL (terms sorted within each record); returns the count.

    Accepts any iterable of records (including a generator or a
    :class:`TransactionDataset`), so arbitrarily large streams can be spooled
    to disk without being materialized.
    """
    count = 0
    with Path(path).open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(sorted(str(t) for t in record)) + "\n")
            count += 1
    return count


# --------------------------------------------------------------------------- #
# format dispatch
# --------------------------------------------------------------------------- #
def sniff_format(path: PathLike) -> str:
    """Guess the record format of ``path`` from its extension."""
    suffix = Path(path).suffix.lower()
    if suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    if suffix == ".json":
        return "json"
    return "transactions"


def iter_records(
    path: PathLike, format: str = "auto", delimiter: str = None
) -> Iterator[Record]:
    """Stream the records of a dataset file in any supported format.

    ``transactions`` and ``jsonl`` stream with constant memory; ``json``
    (a single JSON array) necessarily parses the whole file first.
    """
    if format not in RECORD_FORMATS:
        raise DatasetFormatError(
            f"unknown record format {format!r}; expected one of {RECORD_FORMATS}"
        )
    if format == "auto":
        format = sniff_format(path)
    if format == "jsonl":
        return iter_jsonl(path)
    if format == "json":
        return iter(read_dataset_json(path))
    return iter_transactions(path, delimiter=delimiter)


def read_records(path: PathLike, format: str = "auto", delimiter: str = None) -> TransactionDataset:
    """Read a whole dataset file in any supported format."""
    return TransactionDataset(iter_records(path, format=format, delimiter=delimiter))


# --------------------------------------------------------------------------- #
# JSON formats
# --------------------------------------------------------------------------- #
def read_dataset_json(path: PathLike) -> TransactionDataset:
    """Read a plain dataset stored as a JSON list of term lists."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DatasetFormatError(f"cannot read dataset JSON {path}: {exc}") from exc
    if not isinstance(payload, list):
        raise DatasetFormatError(f"{path}: expected a JSON list of records")
    return TransactionDataset.from_lists(payload)


def write_dataset_json(dataset: TransactionDataset, path: PathLike) -> None:
    """Write a plain dataset as a JSON list of sorted term lists."""
    Path(path).write_text(canonical_json(dataset.to_lists()), encoding="utf-8")


def read_disassociated_json(path: PathLike) -> DisassociatedDataset:
    """Read a disassociated publication from its JSON form."""
    path = Path(path)
    try:
        # The parsed tree is retained whole: collections would rescan it
        # and free nothing.
        with paused_gc():
            payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DatasetFormatError(f"cannot read published JSON {path}: {exc}") from exc
    return DisassociatedDataset.from_dict(payload)


def write_disassociated_json(published: DisassociatedDataset, path: PathLike) -> None:
    """Write a publication as canonical JSON, part by part (``canonical_parts``)."""
    with Path(path).open("w", encoding="utf-8") as out:
        out.writelines(published.canonical_parts())
