"""Vertical partitioning (Algorithm VERPART, paper Section 4) and the
Lemma-2 validity enforcement (paper Section 5).

VERPART takes one cluster (a small bag of records) and splits its term
domain into

* record-chunk domains ``T_1 .. T_v`` such that every projected chunk is
  k^m-anonymous, and
* the term-chunk domain ``T_T`` holding all terms with cluster support
  below ``k`` (and any terms demoted by the Lemma-2 check).

The greedy strategy follows the paper: terms are considered in decreasing
support order; a term joins the current chunk domain if the projected chunk
stays k^m-anonymous, otherwise it is left for a later chunk.

Lemma 2 requires that the published cluster admits at least one *valid*
reconstruction of its declared size for every m-term combination; this is
guaranteed when the term chunk is non-empty or when the total number of
published sub-records is at least ``size + k*(h-1)`` with
``h = min(m, v)``.  When the condition fails, the least frequent
record-chunk terms are demoted to the term chunk until it holds (the paper
notes this fallback is always feasible).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.anonymity import BitsetChunkChecker, validate_km_parameters
from repro.core.clusters import RecordChunk, SimpleCluster, TermChunk, _as_record
from repro.core.vocab import EncodedCluster, register_cluster_masks


@dataclass
class VerticalPartitionResult:
    """Outcome of vertically partitioning one cluster.

    Attributes:
        cluster: the published :class:`SimpleCluster`.
        demoted_terms: terms moved from record chunks to the term chunk by
            the Lemma-2 enforcement (useful for diagnostics and ablations).
    """

    cluster: SimpleCluster
    demoted_terms: frozenset = field(default_factory=frozenset)


def vertical_partition_fast(
    records,
    k: int,
    m: int,
    label: str = "P",
    enforce_lemma2: bool = True,
) -> VerticalPartitionResult:
    """Bitset VERPART (identical output to the record-scanning oracle).

    The cluster is interned onto an :class:`~repro.core.vocab.EncodedCluster`
    (term -> row bitmask), combination supports become AND + popcount, and
    the Lemma-2 demotion loop updates only the affected chunk domain instead
    of rescanning every record.  Greedy decisions and tie-breaks mirror the
    reference implementation (``tests/reference/vertical.py``) exactly, so
    both produce the same cluster.

    Args:
        records: the cluster's records (any iterable of term sets).
        k, m: anonymity parameters.
        label: stable cluster label used downstream.
        enforce_lemma2: when ``True`` (default) enforce the Lemma-2 bound.
    """
    validate_km_parameters(k, m)
    record_list = [_as_record(r) for r in records]
    masks = EncodedCluster(record_list).masks
    supports = {term: mask.bit_count() for term, mask in masks.items()}

    term_chunk_terms = {t for t, s in supports.items() if s < k}
    remaining = sorted(
        (t for t in supports if t not in term_chunk_terms),
        key=lambda t: (-supports[t], t),
    )

    chunk_domains: list[frozenset] = []
    checker = BitsetChunkChecker(masks, k, m, share_masks=True)
    while remaining:
        checker.reset()
        accepted: list[str] = []
        skipped: list[str] = []
        for term in remaining:
            if checker.try_add(term):
                accepted.append(term)
            else:
                skipped.append(term)
        if not accepted:
            term_chunk_terms.update(remaining)
            break
        chunk_domains.append(frozenset(accepted))
        remaining = skipped

    demoted: set = set()
    if enforce_lemma2 and not term_chunk_terms:
        coverage = _MaskCoverage(masks, chunk_domains)
        demoted = demote_for_lemma2(coverage, supports, k, m, len(record_list))
        term_chunk_terms.update(demoted)
        chunk_domains = coverage.domains_frozen()
    else:
        chunk_domains = [d for d in chunk_domains if d]

    record_chunks = [_project_chunk(record_list, domain) for domain in chunk_domains]
    record_chunks = [chunk for chunk in record_chunks if len(chunk) > 0 and chunk.domain]
    cluster = SimpleCluster._from_normalized(
        size=len(record_list),
        record_chunks=record_chunks,
        term_chunk=TermChunk(term_chunk_terms),
        label=label,
        original_records=record_list,
    )
    # Hand the term bitmasks this phase already built to downstream
    # consumers (REFINE's shared-chunk builder) through the weak per-cluster
    # cache, so the leaf is never re-encoded.
    register_cluster_masks(cluster, masks, len(record_list))
    return VerticalPartitionResult(cluster=cluster, demoted_terms=frozenset(demoted))


def _project_chunk(records: Sequence[frozenset], domain: frozenset) -> RecordChunk:
    """Project the cluster records onto ``domain``; empty projections are dropped."""
    return RecordChunk(domain, (record & domain for record in records))


def subrecord_bound(size: int, k: int, m: int, num_chunks: int) -> int:
    """The Lemma-2 lower bound on the number of published sub-records.

    ``size + k*(h-1)`` with ``h = min(m, v)``; with a single chunk the bound
    degenerates to ``size`` (one sub-record per record suffices).
    """
    if num_chunks == 0:
        return 0
    h = min(m, num_chunks)
    return size + k * (h - 1)


def satisfies_lemma2(cluster: SimpleCluster, k: int, m: int) -> bool:
    """Check the Lemma-2 validity condition on a published simple cluster."""
    if len(cluster.term_chunk) > 0:
        return True
    if not cluster.record_chunks:
        # no chunks at all: the cluster publishes nothing but its size, which
        # can only happen for empty clusters
        return cluster.size == 0
    needed = subrecord_bound(cluster.size, k, m, len(cluster.record_chunks))
    return cluster.total_subrecords() >= needed


class _MaskCoverage:
    """Per-domain sub-record totals over term bitmasks, updated incrementally.

    The records covered by a domain (the published sub-records of that
    chunk) are the OR of its term masks; a demotion re-ORs only the masks
    of the victim's domain.
    """

    def __init__(self, masks: dict, chunk_domains: Sequence[frozenset]):
        self._masks = masks
        self._domains: list[set] = [set(d) for d in chunk_domains]
        self._or_masks: list[int] = [self._or_of(d) for d in self._domains]

    def _or_of(self, domain) -> int:
        mask = 0
        for term in domain:
            mask |= self._masks.get(term, 0)
        return mask

    def num_domains(self) -> int:
        return sum(1 for d in self._domains if d)

    def total(self) -> int:
        return sum(
            or_mask.bit_count()
            for domain, or_mask in zip(self._domains, self._or_masks)
            if domain
        )

    def assigned_terms(self) -> list:
        return [t for d in self._domains if d for t in d]

    def remove_term(self, victim) -> None:
        for index, domain in enumerate(self._domains):
            if victim in domain:
                domain.discard(victim)
                self._or_masks[index] = self._or_of(domain)

    def domains_frozen(self) -> list[frozenset]:
        return [frozenset(d) for d in self._domains if d]


def demote_for_lemma2(
    coverage,
    supports,
    k: int,
    m: int,
    size: int,
    until_bound: bool = False,
) -> set:
    """Demote least frequent record-chunk terms until Lemma 2 holds.

    Operates on a coverage tracker (:class:`_MaskCoverage`, or the
    record-scanning one of the reference VERPART) so each demotion only
    updates the affected domain.  With the default ``until_bound=False``
    the loop stops after the first demotion (the demoted term repopulates
    the term chunk, which already satisfies Lemma 2); ``until_bound=True``
    keeps demoting until the sub-record bound itself is met (only tests
    that exercise consecutive demotions pass it).

    Returns the set of demoted terms; ``coverage`` is updated in place.
    """
    demoted: set = set()
    while True:
        if demoted and not until_bound:
            break  # a non-empty term chunk always satisfies Lemma 2
        num_domains = coverage.num_domains()
        if num_domains == 0:
            break
        if coverage.total() >= subrecord_bound(size, k, m, num_domains):
            break
        # Demote the least frequent term currently assigned to a record chunk.
        victim = min(coverage.assigned_terms(), key=lambda t: (supports[t], t))
        demoted.add(victim)
        coverage.remove_term(victim)
    return demoted
