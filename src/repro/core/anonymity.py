"""k^m-anonymity machinery for collections of sub-records.

A *chunk* in the disassociation model is a bag of sub-records (sets of
terms) over a small domain.  A chunk is **k^m-anonymous** when every
combination of at most ``m`` terms that appears in at least one sub-record
appears in at least ``k`` sub-records (Section 3 of the paper).  Likewise a
chunk is **k-anonymous** when every distinct non-empty sub-record appears at
least ``k`` times (needed by Property 1 for shared chunks).

This module implements these checks on plain collections of
``frozenset``-like records so it can be reused by

* ``VERPART`` (incrementally, while growing the term set of a chunk),
* the published-dataset verifier (:mod:`repro.core.verification`),
* the generalization / suppression baselines, and
* tests and property-based tests.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from itertools import combinations
from typing import Optional

from repro.exceptions import ParameterError


def validate_km_parameters(k: int, m: int) -> None:
    """Raise :class:`~repro.exceptions.ParameterError` unless ``k>=1`` and ``m>=1``."""
    if not isinstance(k, int) or k < 1:
        raise ParameterError(f"k must be a positive integer, got {k!r}")
    if not isinstance(m, int) or m < 1:
        raise ParameterError(f"m must be a positive integer, got {m!r}")


def combination_supports(records: Iterable[frozenset], m: int) -> Counter:
    """Support of every term combination of size 1..m appearing in ``records``.

    Only combinations that actually occur inside some record are counted;
    absent combinations implicitly have support 0 (which never violates
    k^m-anonymity).

    Returns:
        Counter mapping ``tuple(sorted(combo))`` -> support.
    """
    counts: Counter = Counter()
    for record in records:
        if not record:
            continue
        terms = sorted(record)
        top = min(m, len(terms))
        for size in range(1, top + 1):
            counts.update(combinations(terms, size))
    return counts


def is_km_anonymous(records: Sequence[frozenset], k: int, m: int) -> bool:
    """True when every occurring combination of up to ``m`` terms has support >= k.

    Short-circuits on the first sub-``k`` combination: terms are interned
    onto row bitmasks and occurring combinations are enumerated depth-first
    (AND + popcount each), pruning every subtree rooted at a non-occurring
    combination.  Unlike :func:`find_km_violation` -- the exhaustive path,
    kept for diagnostics -- no full support Counter is ever built, so a
    violating chunk is rejected as soon as one bad combination is seen.
    """
    validate_km_parameters(k, m)
    masks: dict = {}
    for row, record in enumerate(records):
        bit = 1 << row
        for term in record:
            masks[term] = masks.get(term, 0) | bit
    return _masks_are_km_anonymous(list(masks.values()), -1, 0, m, k)


def _masks_are_km_anonymous(
    masks: Sequence[int], base: int, start: int, depth: int, k: int
) -> bool:
    """DFS over term masks: every occurring combination extending ``base``
    (up to ``depth`` more terms) must keep support >= k."""
    for index in range(start, len(masks)):
        intersection = base & masks[index]
        if not intersection:
            continue
        if intersection.bit_count() < k:
            return False
        if depth > 1 and not _masks_are_km_anonymous(
            masks, intersection, index + 1, depth - 1, k
        ):
            return False
    return True


def km_anonymous_batch(
    chunks: Sequence[Sequence[frozenset]], k: int, m: int
) -> list[bool]:
    """:func:`is_km_anonymous` verdicts for many chunks, in order.

    The published-dataset auditor collects every chunk of a publication
    first and asks for all verdicts in one call.
    """
    validate_km_parameters(k, m)
    return [is_km_anonymous(records, k, m) for records in chunks]


def find_km_violation(
    records: Sequence[frozenset], k: int, m: int
) -> Optional[tuple[tuple, int]]:
    """Return a violating ``(itemset, support)`` pair or ``None`` if k^m-anonymous.

    A violation is a combination of at most ``m`` terms that appears in at
    least one record but in fewer than ``k`` records.
    """
    validate_km_parameters(k, m)
    counts = combination_supports(records, m)
    worst: Optional[tuple[tuple, int]] = None
    for combo, support in counts.items():
        if support < k and (worst is None or support < worst[1]):
            worst = (combo, support)
    return worst


def find_all_km_violations(records: Sequence[frozenset], k: int, m: int) -> dict:
    """All violating combinations mapped to their supports (diagnostics/tests)."""
    validate_km_parameters(k, m)
    counts = combination_supports(records, m)
    return {combo: s for combo, s in counts.items() if s < k}


def is_k_anonymous(records: Sequence[frozenset], k: int) -> bool:
    """True when every distinct non-empty sub-record occurs at least ``k`` times.

    This is plain k-anonymity over sub-records, required by Property 1 for
    shared chunks whose terms also appear in descendant record chunks.
    """
    validate_km_parameters(k, 1)
    counts = Counter(r for r in records if r)
    return all(count >= k for count in counts.values())


class BitsetChunkChecker:
    """Incrementally grow a chunk domain over term *bitmasks*.

    VERPART and REFINE ask "does the chunk stay k^m-anonymous if term *t*
    joins its domain?" once per candidate.  Each term is represented by an
    int bitmask over the cluster's rows (bit ``i`` set when row ``i``
    contains the term), so the support of an m-term combination is
    ``(mask_1 & ... & mask_m).bit_count()``.  Candidate evaluation only
    enumerates combinations that involve the new term, walking the accepted
    terms depth-first and pruning whole subtrees as soon as an AND becomes
    empty -- the cost is bounded by the number of *occurring* combinations,
    each checked with one AND and one popcount instead of a record scan.

    Accepts any hashable term keys (string terms or int ids); decisions are
    identical to the record-scanning checker of the reference VERPART
    (``tests/reference/anonymity.py``) because combination supports are.

    Args:
        masks: mapping from term to its row bitmask.
        k, m: the anonymity parameters.
        share_masks: adopt ``masks`` without the defensive copy.  The
            checker never mutates it; hot callers that own the dict (and
            build one checker per selection round) pass ``True``.
    """

    def __init__(self, masks, k: int, m: int, share_masks: bool = False):
        validate_km_parameters(k, m)
        self._masks = masks if share_masks else dict(masks)
        self._k = k
        self._m = m
        self._accepted: list = []          # insertion order (for DFS)
        self._accepted_set: set = set()

    @property
    def accepted_terms(self) -> frozenset:
        """Terms accepted into the chunk domain so far."""
        return frozenset(self._accepted_set)

    def would_remain_anonymous(self, term) -> bool:
        """Check whether adding ``term`` keeps the chunk k^m-anonymous."""
        if term in self._accepted_set:
            return True
        mask = self._masks.get(term, 0)
        if mask.bit_count() < self._k:
            return False
        if self._m == 1:
            return True
        return self._combinations_ok(mask, 0, self._m - 1)

    def _combinations_ok(self, base_mask: int, start: int, depth: int) -> bool:
        """DFS over accepted terms: every occurring combination that extends
        ``base_mask`` must keep support >= k.  An empty AND prunes the whole
        subtree (supersets of a non-occurring combination never occur)."""
        masks = self._masks
        accepted = self._accepted
        k = self._k
        for index in range(start, len(accepted)):
            intersection = base_mask & masks[accepted[index]]
            if not intersection:
                continue
            if intersection.bit_count() < k:
                return False
            if depth > 1 and not self._combinations_ok(intersection, index + 1, depth - 1):
                return False
        return True

    def try_add(self, term) -> bool:
        """Add ``term`` to the chunk domain if the chunk stays k^m-anonymous."""
        if not self.would_remain_anonymous(term):
            return False
        self.add(term)
        return True

    def add(self, term) -> None:
        """Add ``term`` unconditionally (caller already validated the candidate)."""
        if term not in self._accepted_set:
            self._accepted.append(term)
            self._accepted_set.add(term)

    def remove(self, term) -> None:
        """Remove an accepted term from the chunk domain (no-op if absent).

        Removal never breaks k^m-anonymity: the supports of the remaining
        combinations are untouched, so no rebuild or re-validation is
        needed.  REFINE's hold-back loop uses this to shrink an accepted
        shared-chunk domain incrementally instead of re-running the whole
        greedy selection.
        """
        if term in self._accepted_set:
            self._accepted_set.discard(term)
            self._accepted.remove(term)

    def reset(self) -> None:
        """Discard the accepted terms and start a fresh chunk domain."""
        self._accepted.clear()
        self._accepted_set.clear()
