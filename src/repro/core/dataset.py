"""Transactional (set-valued) dataset substrate.

The paper operates on *sparse multidimensional data*: a collection ``D`` of
records, each record being a set of terms drawn from a huge domain ``T``
(web-search queries, purchased products, clicked URLs...).  This module
provides the in-memory representation used throughout the library:

* :class:`TransactionDataset` -- an ordered collection of records
  (``frozenset`` of terms) with cached supports, projections, splits and
  summary statistics.
* helper functions for term supports and record similarity.

The class is deliberately simple and immutable-ish: all transformation
methods return new datasets, the underlying record list is never mutated in
place.  This keeps the anonymization pipeline easy to reason about and test.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import DatasetError

Term = str
Record = frozenset


def normalize_record(record: Iterable, allow_empty: bool = False) -> Record:
    """Convert an iterable of terms into a canonical record (``frozenset``).

    Terms are converted to strings so that datasets read from files and
    datasets built from Python literals compare equal.

    Args:
        record: iterable of hashable terms.
        allow_empty: if ``False`` (default) an empty record raises
            :class:`~repro.exceptions.DatasetError`.

    Returns:
        The record as a ``frozenset`` of string terms.
    """
    try:
        terms = frozenset(str(t) for t in record)
    except TypeError as exc:  # record is not iterable
        raise DatasetError(f"record {record!r} is not an iterable of terms") from exc
    if not terms and not allow_empty:
        raise DatasetError("empty records are not allowed in a transaction dataset")
    return terms


def ensure_record(record, allow_empty: bool = False) -> Record:
    """:func:`normalize_record`, skipped when the record is already normal.

    A normalized record is a non-empty ``frozenset`` of ``str`` terms (what
    the dataset readers yield); verifying that costs no allocations, so hot
    streaming paths avoid rebuilding every record while non-normalized
    inputs (lists, sets of ints, ...) still normalize identically.
    """
    if isinstance(record, frozenset) and record and all(type(t) is str for t in record):
        return record
    return normalize_record(record, allow_empty=allow_empty)


@dataclass(frozen=True)
class DatasetStats:
    """Summary statistics of a transactional dataset (paper, Figure 6)."""

    num_records: int
    domain_size: int
    max_record_size: int
    avg_record_size: float

    def as_row(self) -> str:
        """Render the statistics as a single human-readable table row."""
        return (
            f"|D|={self.num_records}  |T|={self.domain_size}  "
            f"max rec.={self.max_record_size}  avg rec.={self.avg_record_size:.2f}"
        )


class TransactionDataset:
    """A collection of set-valued records over a term domain.

    The dataset is ordered (records keep their insertion order and are
    addressable by index), supports duplicate records (bag semantics at the
    dataset level) and exposes exact term/itemset supports.

    Args:
        records: iterable of records; each record is any iterable of terms.
        allow_empty: whether empty records are tolerated (used internally by
            chunk projections; public datasets should keep the default).
    """

    def __init__(self, records: Iterable[Iterable], allow_empty: bool = False):
        # Records the readers already normalized are kept as they are.
        self._records: list[Record] = [
            ensure_record(r, allow_empty=allow_empty) for r in records
        ]
        self._allow_empty = allow_empty
        self._support_cache: Optional[Counter] = None
        self._domain_cache: Optional[frozenset] = None

    # ------------------------------------------------------------------ #
    # basic container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TransactionDataset(self._records[index], allow_empty=self._allow_empty)
        return self._records[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransactionDataset):
            return NotImplemented
        return self._records == other._records

    def __repr__(self) -> str:
        return f"TransactionDataset(n={len(self)}, |T|={len(self.domain)})"

    @property
    def records(self) -> Sequence[Record]:
        """The records as an immutable sequence (do not mutate)."""
        return tuple(self._records)

    # ------------------------------------------------------------------ #
    # domain and supports
    # ------------------------------------------------------------------ #
    @property
    def domain(self) -> frozenset:
        """The set of distinct terms appearing in the dataset."""
        if self._domain_cache is None:
            domain = set()
            for record in self._records:
                domain.update(record)
            self._domain_cache = frozenset(domain)
        return self._domain_cache

    def term_supports(self) -> Counter:
        """Return a Counter mapping each term to its support (record count)."""
        if self._support_cache is None:
            counts: Counter = Counter()
            for record in self._records:
                counts.update(record)
            self._support_cache = counts
        return Counter(self._support_cache)

    def support(self, itemset: Iterable) -> int:
        """Exact support of an itemset: number of records containing all terms."""
        items = frozenset(str(t) for t in itemset)
        if not items:
            return len(self._records)
        if len(items) == 1:
            (term,) = items
            return self.term_supports().get(term, 0)
        return sum(1 for record in self._records if items <= record)

    def terms_by_support(self, descending: bool = True) -> list[Term]:
        """Domain terms ordered by support (ties broken lexicographically)."""
        supports = self.term_supports()
        return sorted(supports, key=lambda t: (-supports[t], t) if descending else (supports[t], t))

    def most_frequent_term(self, exclude: Iterable = ()) -> Optional[Term]:
        """The most frequent term not in ``exclude`` or ``None`` if all excluded."""
        excluded = frozenset(str(t) for t in exclude)
        supports = self.term_supports()
        best_term, best_support = None, -1
        for term, count in supports.items():
            if term in excluded:
                continue
            if count > best_support or (count == best_support and (best_term is None or term < best_term)):
                best_term, best_support = term, count
        return best_term

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def stats(self) -> DatasetStats:
        """Summary statistics in the format of the paper's Figure 6."""
        if not self._records:
            return DatasetStats(0, 0, 0, 0.0)
        sizes = [len(r) for r in self._records]
        return DatasetStats(
            num_records=len(self._records),
            domain_size=len(self.domain),
            max_record_size=max(sizes),
            avg_record_size=sum(sizes) / len(sizes),
        )

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def project(self, terms: Iterable, allow_empty: bool = True) -> "TransactionDataset":
        """Project every record onto ``terms`` (used to build chunks).

        Empty projections are kept by default because chunk semantics need
        to know how many records project to the empty set.
        """
        keep = frozenset(str(t) for t in terms)
        return TransactionDataset(
            (record & keep for record in self._records), allow_empty=allow_empty
        )

    def filter_records(self, predicate) -> "TransactionDataset":
        """Dataset with only the records for which ``predicate(record)`` holds."""
        return TransactionDataset(
            (r for r in self._records if predicate(r)), allow_empty=self._allow_empty
        )

    def split_on_term(self, term: Term) -> tuple["TransactionDataset", "TransactionDataset"]:
        """Split into (records containing ``term``, records not containing it).

        This is the primitive used by HORPART.
        """
        term = str(term)
        with_term, without_term = [], []
        for record in self._records:
            (with_term if term in record else without_term).append(record)
        return (
            TransactionDataset(with_term, allow_empty=self._allow_empty),
            TransactionDataset(without_term, allow_empty=self._allow_empty),
        )

    def sample(self, n: int, seed: Optional[int] = None) -> "TransactionDataset":
        """Uniform random sample (without replacement) of ``n`` records."""
        if n >= len(self._records):
            return TransactionDataset(self._records, allow_empty=self._allow_empty)
        rng = random.Random(seed)
        return TransactionDataset(
            rng.sample(self._records, n), allow_empty=self._allow_empty
        )

    def shuffled(self, seed: Optional[int] = None) -> "TransactionDataset":
        """A copy of the dataset with record order shuffled."""
        rng = random.Random(seed)
        records = list(self._records)
        rng.shuffle(records)
        return TransactionDataset(records, allow_empty=self._allow_empty)

    def concat(self, other: "TransactionDataset") -> "TransactionDataset":
        """Concatenate two datasets (bag union of records)."""
        return TransactionDataset(
            list(self._records) + list(other._records),
            allow_empty=self._allow_empty or other._allow_empty,
        )

    def without_terms(self, terms: Iterable) -> "TransactionDataset":
        """Remove ``terms`` from every record, dropping records left empty."""
        drop = frozenset(str(t) for t in terms)
        remaining = (record - drop for record in self._records)
        return TransactionDataset((r for r in remaining if r), allow_empty=False)

    def non_empty(self) -> "TransactionDataset":
        """Dataset containing only the non-empty records."""
        return TransactionDataset((r for r in self._records if r), allow_empty=False)

    def to_lists(self) -> list[list[Term]]:
        """Records as sorted lists of terms (stable, JSON-friendly)."""
        return [sorted(record) for record in self._records]

    @classmethod
    def from_lists(cls, rows: Iterable[Iterable], allow_empty: bool = False) -> "TransactionDataset":
        """Build a dataset from an iterable of term lists (inverse of :meth:`to_lists`)."""
        return cls(rows, allow_empty=allow_empty)


def jaccard_similarity(a: Iterable, b: Iterable) -> float:
    """Jaccard coefficient of two records; 1.0 when both are empty."""
    set_a, set_b = frozenset(a), frozenset(b)
    if not set_a and not set_b:
        return 1.0
    union = set_a | set_b
    return len(set_a & set_b) / len(union)
