"""The record-scanning chunk checker: the oracle of the bitset checker.

VERPART and REFINE grow chunk domains with
:class:`repro.core.anonymity.BitsetChunkChecker` (AND + popcount per term
combination).  :class:`IncrementalChunkChecker` answers the same question
by recounting the combinations of the candidate term over every record;
the reference VERPART (:mod:`tests.reference.vertical`) runs on it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from itertools import combinations

from repro.core.anonymity import validate_km_parameters


class IncrementalChunkChecker:
    """Incrementally grow a chunk term-set while preserving k^m-anonymity.

    ``VERPART`` repeatedly asks "if I add term *t* to the current chunk
    domain, does the projected chunk stay k^m-anonymous?".  Re-enumerating
    every combination after each candidate is wasteful; since combinations
    not involving *t* were already validated, only combinations containing
    *t* need to be checked.

    The checker is handed the cluster's records once.  ``try_add(term)``
    evaluates the candidate and, when accepted, updates the internal
    projections; ``accepted_terms`` is the chunk domain built so far.

    Args:
        records: the cluster's records (bag of term sets).
        k, m: the anonymity parameters.
    """

    def __init__(self, records: Sequence[frozenset], k: int, m: int):
        validate_km_parameters(k, m)
        self._records = [frozenset(r) for r in records]
        self._k = k
        self._m = m
        self._accepted: set = set()
        # projection of each record onto the accepted terms, kept in sync
        self._projections: list[frozenset] = [frozenset() for _ in self._records]

    @property
    def accepted_terms(self) -> frozenset:
        """Terms accepted into the chunk domain so far."""
        return frozenset(self._accepted)

    def projections(self) -> list[frozenset]:
        """Current record projections onto the accepted terms (includes empties)."""
        return list(self._projections)

    def would_remain_anonymous(self, term) -> bool:
        """Check whether adding ``term`` keeps the chunk k^m-anonymous.

        Only combinations that contain ``term`` are (re-)counted: every
        combination not involving the new term has the same support as
        before the addition, and those were already verified.
        """
        term = str(term)
        if term in self._accepted:
            return True
        counts: Counter = Counter()
        for record, projection in zip(self._records, self._projections):
            if term not in record:
                continue
            other_terms = sorted(projection)
            # combinations made of `term` plus up to m-1 already-accepted terms
            counts[(term,)] += 1
            max_extra = min(self._m - 1, len(other_terms))
            for size in range(1, max_extra + 1):
                for extra in combinations(other_terms, size):
                    counts[tuple(sorted((term,) + extra))] += 1
        return all(count >= self._k for count in counts.values())

    def try_add(self, term) -> bool:
        """Add ``term`` to the chunk domain if the chunk stays k^m-anonymous.

        Returns ``True`` when the term was accepted.
        """
        term = str(term)
        if not self.would_remain_anonymous(term):
            return False
        self._accepted.add(term)
        self._projections = [
            projection | {term} if term in record else projection
            for record, projection in zip(self._records, self._projections)
        ]
        return True

    def reset(self) -> None:
        """Discard the accepted terms and start a fresh chunk domain."""
        self._accepted.clear()
        self._projections = [frozenset() for _ in self._records]
