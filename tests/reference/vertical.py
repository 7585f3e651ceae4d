"""VERPART over string records: the oracle of the bitset VERPART.

The engine runs :func:`repro.core.vertical.vertical_partition_fast` over
term bitmasks.  This transcription of the paper's Algorithm VERPART grows
chunk domains with the record-scanning
:class:`~tests.reference.anonymity.IncrementalChunkChecker` and enforces
Lemma 2 over a record-scanning coverage tracker.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.anonymity import validate_km_parameters
from repro.core.clusters import SimpleCluster, TermChunk
from repro.core.dataset import TransactionDataset
from repro.core.vertical import (
    VerticalPartitionResult,
    _project_chunk,
    demote_for_lemma2,
)
from tests.reference.anonymity import IncrementalChunkChecker


def vertical_partition(
    records: TransactionDataset,
    k: int,
    m: int,
    label: str = "P",
    enforce_lemma2: bool = True,
) -> VerticalPartitionResult:
    """Vertically partition one cluster into record chunks and a term chunk.

    The engine runs :func:`~repro.core.vertical.vertical_partition_fast`;
    this record-scanning formulation is the reference it is tested against.

    Args:
        records: the cluster's records (output of HORPART).
        k, m: anonymity parameters.
        label: stable cluster label used downstream (refining, reconstruction).
        enforce_lemma2: when ``True`` (default) the Lemma-2 sub-record bound
            is enforced by demoting terms if necessary.  Disabling it is
            only useful for ablation experiments and tests that reproduce
            Example 1 of the paper.

    Returns:
        A :class:`VerticalPartitionResult` whose ``cluster`` is
        k^m-anonymous (and Lemma-2 valid unless disabled).
    """
    validate_km_parameters(k, m)
    record_list = [frozenset(r) for r in records]
    supports = records.term_supports()

    # Step 1: terms with support < k can never appear in a k^m-anonymous
    # record chunk (their singleton combination already violates the bound),
    # so they go straight to the term chunk.
    term_chunk_terms = {t for t, s in supports.items() if s < k}
    remaining = [t for t in records.terms_by_support(descending=True) if t not in term_chunk_terms]

    # Step 2: greedily grow chunk domains.
    chunk_domains: list[frozenset] = []
    while remaining:
        checker = IncrementalChunkChecker(record_list, k, m)
        accepted: list[str] = []
        skipped: list[str] = []
        for term in remaining:
            if checker.try_add(term):
                accepted.append(term)
            else:
                skipped.append(term)
        if not accepted:
            # Cannot happen per the paper's argument (a singleton chunk of a
            # term with support >= k is always k^m-anonymous), but guard
            # against pathological inputs: demote everything left.
            term_chunk_terms.update(remaining)
            break
        chunk_domains.append(frozenset(accepted))
        remaining = skipped

    demoted: set = set()
    if enforce_lemma2:
        chunk_domains, extra = _enforce_lemma2(
            record_list, chunk_domains, term_chunk_terms, supports, k, m, len(record_list)
        )
        demoted = extra
        term_chunk_terms.update(extra)

    record_chunks = [
        _project_chunk(record_list, domain) for domain in chunk_domains
    ]
    # drop chunks that became empty after demotions
    record_chunks = [chunk for chunk in record_chunks if len(chunk) > 0 and chunk.domain]

    cluster = SimpleCluster(
        size=len(record_list),
        record_chunks=record_chunks,
        term_chunk=TermChunk(term_chunk_terms),
        label=label,
        original_records=record_list,
    )
    return VerticalPartitionResult(cluster=cluster, demoted_terms=frozenset(demoted))



class _RecordCoverage:
    """Per-domain sub-record totals over plain record sets, updated incrementally.

    ``covered[i]`` is the number of records whose projection onto domain ``i``
    is non-empty (i.e. the number of published sub-records of that chunk).
    Demoting a term only re-counts the single domain it belonged to, instead
    of rescanning every record for every domain on each demotion.
    """

    def __init__(self, records: Sequence[frozenset], chunk_domains: Sequence[frozenset]):
        self._records = records
        self._domains: list[set] = [set(d) for d in chunk_domains]
        self._covered: list[int] = [
            sum(1 for record in records if record & domain) for domain in self._domains
        ]

    def num_domains(self) -> int:
        return sum(1 for d in self._domains if d)

    def total(self) -> int:
        return sum(c for d, c in zip(self._domains, self._covered) if d)

    def assigned_terms(self) -> list:
        return [t for d in self._domains if d for t in d]

    def remove_term(self, victim) -> None:
        for index, domain in enumerate(self._domains):
            if victim in domain:
                domain.discard(victim)
                self._covered[index] = (
                    sum(1 for record in self._records if record & domain)
                    if domain
                    else 0
                )

    def domains_frozen(self) -> list[frozenset]:
        return [frozenset(d) for d in self._domains if d]



def _enforce_lemma2(
    records: Sequence[frozenset],
    chunk_domains: list[frozenset],
    term_chunk_terms: set,
    supports,
    k: int,
    m: int,
    size: int,
) -> tuple[list[frozenset], set]:
    """Demote the least frequent record-chunk terms until Lemma 2 holds.

    Returns the possibly shrunk chunk domains and the set of demoted terms.
    """
    if term_chunk_terms:
        return [d for d in chunk_domains if d], set()
    coverage = _RecordCoverage(records, chunk_domains)
    demoted = demote_for_lemma2(coverage, supports, k, m, size)
    return coverage.domains_frozen(), demoted
