"""REFINE over string records: the oracle of the incremental bitset REFINE.

:func:`repro.core.refine.refine` memoizes rejected pairs, caches term
bitmasks per cluster and selects shared-chunk domains with AND + popcount.
:func:`_refine_reference` is the formulation it must match bit for bit:
every pass re-attempts every adjacent pair from scratch, and every attempt
(:func:`try_merge`) re-projects every leaf record onto the candidate
terms (:func:`build_shared_chunks`) and evaluates Equation 1 on the
materialized chunks (:func:`merge_criterion`).  The reference engine plugs
it in through :meth:`repro.core.engine.RefinePhase.merge`.

The Lemma-2 hold-back helpers and the cluster walks are shared with the
production module, so the oracle checks the driver, the chunk selection
and Equation 1, not those.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from typing import Optional

from repro.core.anonymity import is_k_anonymous, is_km_anonymous, validate_km_parameters
from repro.core.clusters import Cluster, JointCluster, SharedChunk, SimpleCluster, TermChunk
from repro.core.refine import (
    MergeOutcome,
    _hold_back_terms,
    _leaves_needing_a_term,
    _leaves_with_originals,
    virtual_term_chunk,
)


def build_shared_chunks(
    leaves: Sequence[SimpleCluster],
    refining_terms: frozenset,
    restricted_terms: frozenset,
    k: int,
    m: int,
) -> tuple[list[SharedChunk], frozenset]:
    """Greedily build shared chunks over ``refining_terms``.

    Each leaf contributes the projection of its original records onto the
    part of the refining terms that lies in *its own* term chunk (so a
    record never contributes the same association to both a record chunk and
    a shared chunk).

    Args:
        leaves: the simple clusters under the prospective joint cluster.
        refining_terms: candidate terms to lift out of the term chunks.
        restricted_terms: the ``T^r`` of Property 1 (terms appearing in
            record or shared chunks of the descendant clusters); a shared
            chunk touching any of them must be k-anonymous.
        k, m: anonymity parameters.

    Returns:
        ``(shared_chunks, placed_terms)`` where ``placed_terms`` are the
        refining terms that actually made it into a shared chunk (the rest
        stay in the term chunks).
    """
    validate_km_parameters(k, m)
    per_leaf_sources: list[tuple[SimpleCluster, list[frozenset]]] = []
    for leaf in leaves:
        liftable = leaf.term_chunk.terms & refining_terms
        originals = leaf.original_records or []
        per_leaf_sources.append(
            (leaf, [record & liftable for record in originals])
        )

    rows = [record for _leaf, records in per_leaf_sources for record in records]
    domains = _select_domains_reference(rows, refining_terms, restricted_terms, k, m)

    shared_chunks: list[SharedChunk] = []
    placed: set = set()
    for domain in domains:
        subrecords: list[frozenset] = []
        contributions: dict = {}
        for leaf, records in per_leaf_sources:
            leaf_subrecords = [record & domain for record in records]
            non_empty = [p for p in leaf_subrecords if p]
            contributions[leaf.label] = len(non_empty)
            subrecords.extend(non_empty)
        shared_chunks.append(SharedChunk(domain, subrecords, contributions))
        placed.update(domain)
    return shared_chunks, frozenset(placed)


def _select_domains_reference(
    rows: Sequence[frozenset],
    refining_terms: frozenset,
    restricted_terms: frozenset,
    k: int,
    m: int,
) -> list[frozenset]:
    """Reference greedy domain selection: full re-projection per candidate."""
    supports: Counter = Counter()
    for projection in rows:
        supports.update(projection)

    remaining = sorted(
        (t for t in refining_terms if supports[t] > 0),
        key=lambda t: (-supports[t], t),
    )

    domains: list[frozenset] = []
    while remaining:
        accepted: list[str] = []
        skipped: list[str] = []
        for term in remaining:
            candidate = frozenset(accepted) | {term}
            projections = [record & candidate for record in rows]
            non_empty = [p for p in projections if p]
            anonymous = is_km_anonymous(non_empty, k, m)
            if anonymous and candidate & restricted_terms:
                anonymous = is_k_anonymous(non_empty, k)
            if anonymous:
                accepted.append(term)
            else:
                skipped.append(term)
        if not accepted:
            break
        domains.append(frozenset(accepted))
        remaining = skipped
    return domains


def _candidate_is_k_anonymous(
    row_projections: Sequence[set], term_mask: int, term, k: int
) -> bool:
    """k-anonymity of the row projections if ``term`` were accepted.

    Every distinct non-empty projection (current accepted terms, plus
    ``term`` for the rows whose bit is set in ``term_mask``) must occur at
    least ``k`` times.  The oracle of
    :meth:`repro.core.refine._ProjectionClasses.k_anonymous_with`.
    """
    counts: Counter = Counter()
    for row_index, projection in enumerate(row_projections):
        if (term_mask >> row_index) & 1:
            counts[frozenset(projection) | {term}] += 1
        elif projection:
            counts[frozenset(projection)] += 1
    return all(count >= k for count in counts.values())


def merge_criterion(
    shared_chunks: Sequence[SharedChunk],
    refining_terms: frozenset,
    leaves: Sequence[SimpleCluster],
    joint_size: int,
) -> bool:
    """Equation 1 of the paper: accept the merge when lifting the refining
    terms into shared chunks attributes them to records at least as
    confidently as leaving them in the member term chunks.

    The left-hand side is the total support of the refining terms inside the
    new shared chunks divided by the joint-cluster size; the right-hand side
    is the number of refining-term occurrences in the member term chunks
    divided by the total size of the members that contain them.
    """
    if joint_size == 0 or not refining_terms:
        return False
    lhs_numerator = 0
    for chunk in shared_chunks:
        chunk_supports = chunk.term_supports()
        lhs_numerator += sum(chunk_supports.get(t, 0) for t in refining_terms)
    lhs = lhs_numerator / joint_size

    rhs_numerator = 0
    rhs_denominator = 0
    for leaf in leaves:
        present = leaf.term_chunk.terms & refining_terms
        if present:
            rhs_numerator += len(present)
            rhs_denominator += leaf.size
    if rhs_denominator == 0:
        return False
    rhs = rhs_numerator / rhs_denominator
    return lhs >= rhs


def _build_chunks_reference(
    leaves: Sequence[SimpleCluster],
    refining_candidates: frozenset,
    restricted: frozenset,
    k: int,
    m: int,
) -> tuple[list[SharedChunk], frozenset, str]:
    """Reference shared-chunk construction with the Lemma-2 hold-back loop."""
    shared_chunks: list[SharedChunk] = []
    placed: frozenset = frozenset()
    while refining_candidates:
        shared_chunks, placed = build_shared_chunks(
            leaves, refining_candidates, restricted, k, m
        )
        if not shared_chunks or not placed:
            return [], frozenset(), "no k^m-anonymous shared chunk could be built"
        at_risk = _leaves_needing_a_term(leaves, placed, k, m)
        if not at_risk:
            return shared_chunks, placed, ""
        held_back = _hold_back_terms(at_risk, placed)
        refining_candidates = refining_candidates - held_back
    return [], frozenset(), "every refining term is needed by a leaf's term chunk"


def try_merge(
    left: Cluster,
    right: Cluster,
    k: int,
    m: int,
    max_join_size: Optional[int] = None,
    excluded_terms: frozenset = frozenset(),
) -> MergeOutcome:
    """Attempt to merge two clusters into a joint cluster (string chunks).

    The same gates as :func:`repro.core.refine.try_merge` (join-size cap,
    common term-chunk terms), then record-scanning shared chunks, Equation
    1 on the materialized chunks, and the lift of the placed terms out of
    the member term chunks.
    """
    if max_join_size is not None and left.size + right.size > max_join_size:
        return MergeOutcome(None, reason="joint cluster would exceed max_join_size")
    refining_candidates = (
        virtual_term_chunk(left) & virtual_term_chunk(right)
    ) - excluded_terms
    if not refining_candidates:
        return MergeOutcome(None, reason="no common term-chunk terms")

    leaves = _leaves_with_originals(left) + _leaves_with_originals(right)
    restricted = left.record_chunk_terms() | right.record_chunk_terms()
    shared_chunks, placed, failure = _build_chunks_reference(
        leaves, refining_candidates, restricted, k, m
    )
    if failure:
        return MergeOutcome(None, reason=failure)
    if not merge_criterion(shared_chunks, placed, leaves, left.size + right.size):
        return MergeOutcome(None, reason="Equation-1 criterion rejected the merge")

    for leaf in leaves:
        terms = leaf.term_chunk.terms
        if terms & placed:
            leaf.term_chunk = TermChunk(terms - placed)
    joint = JointCluster(
        children=[left, right],
        shared_chunks=shared_chunks,
        label=f"J[{left.label}+{right.label}]",
    )
    return MergeOutcome(joint, refining_terms=placed)


def _ordering_key(cluster: Cluster, tcs: Counter) -> tuple:
    """Ordering key for REFINE: the (virtual) term chunk rendered as a tuple of
    terms sorted by descending term-chunk support, compared lexicographically."""
    ordered = sorted(virtual_term_chunk(cluster), key=lambda t: (-tcs[t], t))
    # Clusters with empty term chunks sort last: they have nothing to refine.
    return (len(ordered) == 0, tuple(ordered))


def _refine_reference(
    clusters: Sequence[Cluster],
    k: int,
    m: int,
    max_passes: int = 50,
    max_join_size: Optional[int] = 240,
    excluded_terms: frozenset = frozenset(),
) -> list[Cluster]:
    """The reference REFINE driver: every pass re-attempts every adjacent pair.

    No memoization, no mask cache, no bitsets -- the pre-optimization
    formulation, preserved as the oracle :func:`repro.core.refine.refine`
    is tested against.
    """
    current: list[Cluster] = list(clusters)
    for _pass in range(max_passes):
        if len(current) < 2:
            break
        # term-chunk support of each term across the current clusters
        tcs: Counter = Counter()
        for cluster in current:
            tcs.update(virtual_term_chunk(cluster))
        ordered = sorted(current, key=lambda c: _ordering_key(c, tcs))

        merged: list[Cluster] = []
        changed = False
        index = 0
        while index < len(ordered):
            if index + 1 < len(ordered):
                outcome = try_merge(
                    ordered[index],
                    ordered[index + 1],
                    k,
                    m,
                    max_join_size=max_join_size,
                    excluded_terms=excluded_terms,
                )
                if outcome.joint is not None:
                    merged.append(outcome.joint)
                    changed = True
                    index += 2
                    continue
            merged.append(ordered[index])
            index += 1
        current = merged
        if not changed:
            break
    return current
