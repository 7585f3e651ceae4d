"""Refining step (Algorithm REFINE, paper Sections 3-5).

Vertical partitioning may banish a term to the term chunks of several
clusters even though its *global* support is healthy (the paper's example:
``ikea`` and ``ruby`` are rare inside ``P1`` and inside ``P2`` but frequent
across the two).  The refining step recovers some of this lost information
by merging clusters into **joint clusters** with **shared chunks** built
from such terms, provided that

* the shared chunks respect Property 1 (k^m-anonymous, and plainly
  k-anonymous whenever a shared term also appears in a record or shared
  chunk of a descendant cluster), and
* the merge improves utility according to the Equation-1 criterion.

REFINE repeatedly orders the clusters by the contents of their (virtual)
term chunks and merges adjacent pairs until no merge is applied.

:func:`refine` runs the incremental, cache-aware driver over term
bitmasks, with **bit-for-bit identical output** to the paper's string
formulation (every pass re-attempts every adjacent pair and re-projects
every record; the oracle in ``tests/reference/refine.py`` that the
equivalence suite holds this module to):

* rejected merge attempts are **memoized** (:class:`MergeMemo`) keyed by
  the pair's ``(identity, virtual-term-chunk)`` fingerprints -- a failed
  attempt never mutates its inputs and a successful merge consumes both
  members, so later passes can skip every pair whose fingerprints did not
  change;
* per-leaf term bitmasks are built **once per refine call**
  (:class:`_JointMaskBuilder` + the driver's mask cache) instead of
  re-encoding every leaf's records on every attempt and every hold-back
  iteration, and the hold-back loop shrinks an accepted shared-chunk
  domain via :meth:`BitsetChunkChecker.remove` when a full re-selection is
  provably identical.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from repro.core.anonymity import BitsetChunkChecker, validate_km_parameters
from repro.core.clusters import Cluster, JointCluster, SharedChunk, SimpleCluster, TermChunk
from repro.core.vocab import SubrecordArena, cluster_masks, iter_mask_bits
from repro.exceptions import RefinementError


@dataclass
class MergeOutcome:
    """Result of attempting to merge two clusters.

    Attributes:
        joint: the new joint cluster, or ``None`` when the merge was rejected.
        refining_terms: the terms that were lifted into shared chunks.
        reason: human-readable explanation when the merge was rejected.
    """

    joint: Optional[JointCluster]
    refining_terms: frozenset = frozenset()
    reason: str = ""


@dataclass
class RefineStats:
    """Per-run REFINE counters (surfaced on the engine report and benchmarks).

    Attributes:
        passes: merge passes executed.
        pairs_considered: adjacent pairs visited by the merge walks.
        merges_attempted: full merge attempts evaluated.
        merges_applied: attempts that produced a joint cluster.
        skipped_by_memo: pairs skipped because an identical attempt was
            already rejected in an earlier pass.
        prefiltered: pairs rejected by the cheap pre-checks (disjoint
            virtual term chunks, ``max_join_size``) without building chunks.
    """

    passes: int = 0
    pairs_considered: int = 0
    merges_attempted: int = 0
    merges_applied: int = 0
    skipped_by_memo: int = 0
    prefiltered: int = 0

    def as_dict(self) -> dict:
        """The counters as a plain dict (machine-readable perf output)."""
        return {
            "passes": self.passes,
            "pairs_considered": self.pairs_considered,
            "merges_attempted": self.merges_attempted,
            "merges_applied": self.merges_applied,
            "skipped_by_memo": self.skipped_by_memo,
            "prefiltered": self.prefiltered,
        }


# --------------------------------------------------------------------------- #
# helpers on (simple | joint) clusters
# --------------------------------------------------------------------------- #
def virtual_term_chunk(cluster: Cluster) -> frozenset:
    """Union of the term chunks of the cluster's leaf simple clusters.

    For a simple cluster this is just its own term chunk; for joint clusters
    it is the "virtual term chunk" REFINE attaches before ordering.
    """
    if isinstance(cluster, SimpleCluster):
        return frozenset(cluster.term_chunk.terms)
    return cluster.term_chunk_terms()


def cluster_size(cluster: Cluster) -> int:
    """Number of original records represented by a (simple or joint) cluster."""
    return cluster.size


def _leaves_with_originals(cluster: Cluster) -> list[SimpleCluster]:
    leaves = cluster.leaves()
    for leaf in leaves:
        if leaf.original_records is None:
            raise RefinementError(
                f"cluster {leaf.label!r} has no original records attached; "
                "refinement requires clusters produced by vertical_partition"
            )
    return leaves


def _liftable_supports(cluster: Cluster, cache: Optional[dict]) -> dict:
    """Total liftable support of each of the cluster's term-chunk terms.

    For every term in a leaf's term chunk this sums the term's support over
    that leaf's original records; because the joint row axis concatenates
    the leaves, a refining term's *joint* support is exactly
    ``supports_left[t] + supports_right[t]``.  The dict is immutable for a
    surviving top-level cluster (only successful merges touch term chunks,
    and they consume both members), so the driver caches it per cluster and
    merge attempts decide term eligibility with two dict lookups instead of
    assembling joint masks.
    """
    if cache is not None:
        entry = cache.get(id(cluster))
        if entry is not None:
            return entry
    supports: dict = {}
    for leaf in cluster.leaves():
        masks, _num_rows = cluster_masks(leaf)
        for term in leaf.term_chunk.terms:
            mask = masks.get(term)
            if mask:
                supports[term] = supports.get(term, 0) + mask.bit_count()
    if cache is not None:
        cache[id(cluster)] = supports
    return supports


# --------------------------------------------------------------------------- #
# rejected-attempt memoization
# --------------------------------------------------------------------------- #
class MergeMemo:
    """Remembers rejected merge attempts between cluster pairs.

    A pair is keyed by both members' **state fingerprints**: the cluster's
    identity plus its current virtual term chunk.  A rejected attempt never
    mutates its inputs, so as long as both fingerprints are unchanged the
    attempt would be rejected again and can be skipped.  A *successful*
    merge lifts terms out of the members' leaf term chunks, which changes
    the virtual term chunk of every cluster built on those leaves -- stale
    rejections therefore miss automatically (memo invalidation).
    """

    __slots__ = ("_rejected",)

    def __init__(self):
        self._rejected: set = set()

    def __len__(self) -> int:
        return len(self._rejected)

    @staticmethod
    def _fingerprint(cluster: Cluster, vtc_map: Optional[dict]) -> tuple:
        if vtc_map is not None:
            vtc = vtc_map.get(id(cluster))
            if vtc is not None:
                return (id(cluster), vtc)
        return (id(cluster), virtual_term_chunk(cluster))

    @classmethod
    def _key(cls, left: Cluster, right: Cluster, vtc_map: Optional[dict]) -> tuple:
        a = cls._fingerprint(left, vtc_map)
        b = cls._fingerprint(right, vtc_map)
        # Rejection is symmetric in the pair (chunk selection only depends on
        # row/term multisets), so normalize the key on the identity part.
        return (a, b) if a[0] <= b[0] else (b, a)

    def is_rejected(
        self, left: Cluster, right: Cluster, vtc_map: Optional[dict] = None
    ) -> bool:
        """True when this exact pair state was already rejected."""
        return self._key(left, right, vtc_map) in self._rejected

    def record_rejection(
        self, left: Cluster, right: Cluster, vtc_map: Optional[dict] = None
    ) -> None:
        """Record a rejected attempt for the pair's current fingerprints."""
        self._rejected.add(self._key(left, right, vtc_map))


# --------------------------------------------------------------------------- #
# shared-chunk construction
# --------------------------------------------------------------------------- #
class _ProjectionClasses:
    """Distinct-projection row classes as bitmasks (Property-1 k-anonymity).

    Rows with identical projections onto the accepted terms form one class;
    a class is represented by the bitmask of its rows, and rows whose
    projection is still empty live in a separate (uncounted) pool.  Adding
    a term splits every class on the term's mask, so the k-anonymity check
    for a candidate is one AND + popcount per class instead of rebuilding a
    Counter of frozenset projections over every row.
    """

    __slots__ = ("_classes", "_empty")

    def __init__(self, num_rows: int, accepted_masks=()):
        self._classes: list[int] = []
        self._empty = (1 << num_rows) - 1
        for mask in accepted_masks:
            self.split_on(mask)

    def split_on(self, term_mask: int) -> None:
        """Refine the classes after a term is accepted into the domain."""
        split: list[int] = []
        for rows in self._classes:
            inside = rows & term_mask
            outside = rows ^ inside
            if inside:
                split.append(inside)
            if outside:
                split.append(outside)
        fresh = self._empty & term_mask
        if fresh:
            split.append(fresh)
            self._empty ^= fresh
        self._classes = split

    def k_anonymous_with(self, term_mask: int, k: int) -> bool:
        """Would every non-empty projection still occur >= k times if the
        term were accepted?  (Exactly the reference check: each class splits
        into rows gaining the term and rows keeping their projection, and
        empty-projection rows gaining the term form one new class.)"""
        for rows in self._classes:
            inside = rows & term_mask
            if inside and inside.bit_count() < k:
                return False
            outside = rows ^ inside
            if outside and outside.bit_count() < k:
                return False
        fresh = self._empty & term_mask
        if fresh and fresh.bit_count() < k:
            return False
        return True


class _JointMaskBuilder:
    """Bitmask view of a prospective joint cluster's liftable rows.

    Per-leaf term masks (term -> bitmask over the leaf's original records)
    come from the weak per-cluster cache (:func:`repro.core.vocab.cluster_masks`,
    warmed by VERPART), and every merge attempt assembles joint masks by
    shifting the leaf masks onto a shared row axis.  This replaces the
    per-attempt (and per-hold-back-iteration) re-encoding of every leaf's
    records.
    """

    __slots__ = ("_sources", "num_rows", "_arena")

    def __init__(
        self,
        leaves: Sequence[SimpleCluster],
        arena: Optional[SubrecordArena] = None,
    ):
        self._sources: list[tuple[SimpleCluster, dict, int]] = []
        self._arena = arena
        offset = 0
        for leaf in leaves:
            masks, num_rows = cluster_masks(leaf)
            self._sources.append((leaf, masks, offset))
            offset += num_rows
        self.num_rows = offset

    def joint_masks(self, candidates) -> dict:
        """Joint row bitmasks of the candidate terms.

        A leaf contributes a term's rows only when the term lies in *its
        own* term chunk (so a record never feeds the same association into
        both a record chunk and a shared chunk).
        """
        joint: dict = {}
        for leaf, masks, offset in self._sources:
            for term in leaf.term_chunk.terms & candidates:
                mask = masks.get(term)
                if mask:
                    joint[term] = joint.get(term, 0) | (mask << offset)
        return joint

    def build_chunks(
        self, domains: Sequence[frozenset]
    ) -> tuple[list[SharedChunk], frozenset]:
        """Materialize the shared chunks for the selected domains.

        Sub-records are reassembled from the cached leaf masks in original
        record order, with per-leaf contribution counts in leaf order --
        exactly what projecting every record would produce.  When the
        builder carries a :class:`~repro.core.vocab.SubrecordArena` (the
        driver threads one per refine call), leaves assemble
        one *interned* sub-record per distinct row pattern instead of one
        fresh frozenset per row -- the arena canonical instances are reused
        across merge attempts and passes.  The produced sub-records are
        identical on every path.
        """
        arena = self._arena
        shared_chunks: list[SharedChunk] = []
        placed: set = set()
        for domain in domains:
            subrecords: list[frozenset] = []
            contributions: dict = {}
            for leaf, masks, _offset in self._sources:
                term_masks = []
                or_mask = 0
                for term in domain & leaf.term_chunk.terms:
                    mask = masks.get(term, 0)
                    if mask:
                        term_masks.append((term, mask))
                        or_mask |= mask
                count = or_mask.bit_count()
                contributions[leaf.label] = count
                # iter_mask_bits yields rows in increasing order, i.e. the
                # leaf's original record order.
                if len(term_masks) == 1:
                    # One liftable term: every sub-record is the same
                    # singleton (shared, like the projections would be).
                    subrecords.extend([frozenset((term_masks[0][0],))] * count)
                elif arena is not None:
                    subrecords.extend(
                        arena.subrecords_for(term_masks, or_mask, count)
                    )
                else:
                    subrecords.extend(
                        frozenset(t for t, mask in term_masks if (mask >> row) & 1)
                        for row in iter_mask_bits(or_mask)
                    )
            shared_chunks.append(
                SharedChunk._from_normalized(domain, subrecords, contributions)
            )
            placed.update(domain)
        return shared_chunks, frozenset(placed)


def _select_domains_from_masks(
    masks: dict,
    num_rows: int,
    supports: dict,
    restricted_terms: frozenset,
    k: int,
    m: int,
) -> tuple[list[frozenset], Optional[BitsetChunkChecker], bool]:
    """Greedy shared-chunk domain selection over prebuilt joint masks.

    Identical decisions to the reference selector: candidates are taken in
    decreasing joint-support order, a candidate joins the current domain
    when the chunk stays k^m-anonymous (plus plainly k-anonymous once the
    domain touches ``restricted_terms``), and skipped candidates seed the
    next domain.

    Returns ``(domains, last_checker, single_round)``; ``single_round`` is
    ``True`` when the very first round accepted every eligible candidate
    (one domain, nothing skipped), the precondition of the hold-back fast
    path.
    """
    # A term with joint support < k can never join any domain (its
    # singleton combination is already sub-k); dropping such terms here
    # skips their per-round re-evaluation without changing a single
    # accept/skip decision.
    remaining = sorted(
        (t for t in supports if supports[t] >= k),
        key=lambda t: (-supports[t], t),
    )
    num_candidates = len(remaining)

    # The m <= 2 case (the paper's default) inlines the k^m check to a
    # local loop over the accepted masks: every remaining term already has
    # singleton support >= k, so only the pairwise AND + popcounts are
    # left.  m >= 3 keeps the checker's pruned DFS.  Decisions are
    # identical in both shapes.
    fast_pairs = m <= 2
    domains: list[frozenset] = []
    checker: Optional[BitsetChunkChecker] = None
    while remaining:
        if not fast_pairs:
            if checker is None:
                checker = BitsetChunkChecker(masks, k, m, share_masks=True)
            else:
                checker.reset()
        # Distinct-projection row classes feed the Property-1 k-anonymity
        # check; they are materialized only when a candidate actually
        # touches `restricted_terms` (most pairs never do).
        classes: Optional[_ProjectionClasses] = None
        accepted: list = []
        accepted_masks: list = []
        skipped: list = []
        touches_restricted = False
        for term in remaining:
            mask = masks[term]
            if fast_pairs:
                ok = True
                if m == 2:
                    for prior in accepted_masks:
                        intersection = mask & prior
                        if intersection and intersection.bit_count() < k:
                            ok = False
                            break
            else:
                ok = checker.would_remain_anonymous(term)
            if ok and (touches_restricted or term in restricted_terms):
                if classes is None:
                    classes = _ProjectionClasses(num_rows, accepted_masks)
                ok = classes.k_anonymous_with(mask, k)
            if not ok:
                skipped.append(term)
                continue
            accepted.append(term)
            accepted_masks.append(mask)
            if not fast_pairs:
                checker.add(term)
            if term in restricted_terms:
                touches_restricted = True
            if classes is not None:
                classes.split_on(mask)
        if not accepted:
            break
        domains.append(frozenset(accepted))
        remaining = skipped
    single_round = len(domains) == 1 and len(domains[0]) == num_candidates
    if single_round and checker is None:
        # The hold-back fast path shrinks the accepted domain through the
        # checker; synthesize one for the inlined m <= 2 rounds.
        checker = BitsetChunkChecker(masks, k, m, share_masks=True)
        for term in domains[0]:
            checker.add(term)
    return domains, checker, single_round


# --------------------------------------------------------------------------- #
# merging a pair of clusters
# --------------------------------------------------------------------------- #
def try_merge(
    left: Cluster,
    right: Cluster,
    k: int,
    m: int,
    max_join_size: Optional[int] = None,
    excluded_terms: frozenset = frozenset(),
    support_cache: Optional[dict] = None,
    _refining_candidates: Optional[frozenset] = None,
    _leaves: Optional[list] = None,
    _restricted_parts: Optional[tuple] = None,
    _pair_masks: Optional[tuple] = None,
    _arena: Optional[SubrecordArena] = None,
) -> MergeOutcome:
    """Attempt to merge two clusters into a joint cluster.

    The refining terms are the terms shared by the two (virtual) term
    chunks.  The merge is applied only when at least one shared chunk can be
    built, the Equation-1 criterion holds, and every leaf cluster still
    satisfies Lemma 2 after the lifted terms leave its term chunk.
    ``max_join_size`` caps the size (in original records) of the resulting
    joint cluster: building shared chunks re-projects every leaf's records,
    so unbounded joint growth would make refinement quadratic in the dataset
    size while adding little utility (Equation 1's left-hand side shrinks as
    the joint grows).  ``excluded_terms`` are never lifted (used for
    sensitive terms, which must stay in term chunks for l-diversity).
    ``support_cache`` optionally shares per-cluster liftable supports
    across attempts (the driver passes one per refine call).
    """
    if max_join_size is not None and (
        cluster_size(left) + cluster_size(right) > max_join_size
    ):
        return MergeOutcome(None, reason="joint cluster would exceed max_join_size")
    # `_refining_candidates` lets the driver hand over the intersection it
    # already computed from its per-cluster virtual-term-chunk cache.
    refining_candidates = _refining_candidates
    if refining_candidates is None:
        refining_candidates = (
            virtual_term_chunk(left) & virtual_term_chunk(right)
        ) - excluded_terms
    if not refining_candidates:
        return MergeOutcome(None, reason="no common term-chunk terms")

    joint_size = cluster_size(left) + cluster_size(right)
    leaves = _leaves if _leaves is not None else (
        _leaves_with_originals(left) + _leaves_with_originals(right)
    )

    restricted = (
        _restricted_parts[0] | _restricted_parts[1]
        if _restricted_parts is not None
        else left.record_chunk_terms() | right.record_chunk_terms()
    )
    # Eligibility first: a refining term's joint support is the sum of the
    # members' liftable supports, so terms that cannot reach k -- and pairs
    # with no eligible term at all -- are rejected from two cached dicts
    # before any joint mask is assembled.
    supports_left = _liftable_supports(left, support_cache)
    supports_right = _liftable_supports(right, support_cache)
    eligible_supports = {}
    get_left = supports_left.get
    get_right = supports_right.get
    for term in refining_candidates:
        support = get_left(term, 0) + get_right(term, 0)
        if support >= k:
            eligible_supports[term] = support
    if not eligible_supports:
        return MergeOutcome(None, reason="no k^m-anonymous shared chunk could be built")
    if _pair_masks is not None:
        # Cluster-level masks from the driver: the pair's joint masks are
        # two dict probes and a shift per eligible term, and the
        # eligibility sums double as the selection supports.
        (masks_left, rows_left), (masks_right, rows_right) = _pair_masks
        pair_masks = {
            term: masks_left.get(term, 0) | (masks_right.get(term, 0) << rows_left)
            for term in eligible_supports
        }
        num_rows = rows_left + rows_right
    else:
        pair_masks = None
        num_rows = None
    eligible = frozenset(eligible_supports)
    # Domains are selected first and the Equation-1 criterion is evaluated
    # straight from the joint-support popcounts; the shared chunks are
    # materialized only for accepted merges (rejected attempts never pay
    # for sub-record assembly).
    domains, placed, supports, failure = _select_chunks_bitset(
        leaves, eligible, restricted, k, m,
        masks=pair_masks, num_rows=num_rows,
        supports=eligible_supports if pair_masks is not None else None,
    )
    if failure:
        return MergeOutcome(None, reason=failure)
    if not _criterion_from_supports(supports, placed, leaves, joint_size):
        return MergeOutcome(None, reason="Equation-1 criterion rejected the merge")
    shared_chunks, placed = _JointMaskBuilder(leaves, arena=_arena).build_chunks(
        domains
    )

    # The lifted terms leave the member term chunks.
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


def _select_chunks_bitset(
    leaves: Sequence[SimpleCluster],
    refining_candidates: frozenset,
    restricted: frozenset,
    k: int,
    m: int,
    masks: Optional[dict] = None,
    num_rows: Optional[int] = None,
    supports: Optional[dict] = None,
) -> tuple[list[frozenset], frozenset, dict, str]:
    """Shared-chunk domain selection with the Lemma-2 hold-back loop (bitsets).

    Terms whose lifting would leave a leaf with an empty term chunk it
    cannot afford (Lemma 2) are held back and the selection repeats; the
    paper's fallback applies, so the loop terminates.  When the previous
    selection accepted *every* eligible candidate into a single domain, a
    re-selection over the shrunken candidate set provably accepts exactly
    the previous domain minus the held-back terms (k^m-anonymity is
    monotone under a smaller accepted set, and sub-record k-anonymity is
    preserved under projection onto fewer terms) -- so the domain is
    shrunk in place via :meth:`BitsetChunkChecker.remove` instead of
    re-running the greedy selection.

    ``masks`` / ``num_rows`` / ``supports`` may be handed in prebuilt (the
    driver derives them from its per-cluster caches); otherwise they are
    assembled from the leaves once.  The masks are never rebuilt across
    hold-back iterations: liftability cannot change mid-attempt, so a
    shrunken candidate set only restricts which keys the selection reads.

    Returns ``(domains, placed, supports, failure_reason)``; the caller
    materializes the chunks only when the merge is actually accepted.
    """
    if masks is None:
        builder = _JointMaskBuilder(leaves)
        masks = builder.joint_masks(refining_candidates)
        num_rows = builder.num_rows
        supports = {term: mask.bit_count() for term, mask in masks.items()}
    domains: list[frozenset] = []
    checker: Optional[BitsetChunkChecker] = None
    single_round = False
    have_selection = False
    round_supports = supports
    while refining_candidates:
        if have_selection and single_round and checker is not None:
            accepted = checker.accepted_terms
            domains = [accepted] if accepted else []
        else:
            if have_selection:  # hold-back re-selection over fewer terms
                round_supports = {
                    term: supports[term]
                    for term in refining_candidates
                    if term in supports
                }
            domains, checker, single_round = _select_domains_from_masks(
                masks, num_rows, round_supports, restricted, k, m
            )
            have_selection = True
        placed = frozenset().union(*domains) if domains else frozenset()
        if not placed:
            return [], frozenset(), supports, (
                "no k^m-anonymous shared chunk could be built"
            )
        at_risk = _leaves_needing_a_term(leaves, placed, k, m)
        if not at_risk:
            return domains, placed, supports, ""
        held_back = _hold_back_terms(at_risk, placed)
        refining_candidates = refining_candidates - held_back
        if single_round and checker is not None:
            for term in held_back:
                checker.remove(term)
    return [], frozenset(), supports, (
        "every refining term is needed by a leaf's term chunk"
    )


def _criterion_from_supports(
    supports: dict,
    placed: frozenset,
    leaves: Sequence[SimpleCluster],
    joint_size: int,
) -> bool:
    """Equation 1 evaluated from the joint-support popcounts.

    A placed term's support inside its shared chunk equals its joint mask's
    popcount (the chunk's sub-records are exactly the rows whose projection
    is non-empty), so Equation 1's left-hand side -- the placed terms'
    total support inside the shared chunks over the joint size -- is the
    sum of the placed supports: no chunk materialization needed.  The
    right-hand side is the number of placed-term occurrences in the member
    term chunks over the total size of the members that hold them.
    """
    if joint_size == 0 or not placed:
        return False
    lhs = sum(supports.get(term, 0) for term in placed) / joint_size

    rhs_numerator = 0
    rhs_denominator = 0
    for leaf in leaves:
        present = leaf.term_chunk.terms & placed
        if present:
            rhs_numerator += len(present)
            rhs_denominator += leaf.size
    if rhs_denominator == 0:
        return False
    return lhs >= rhs_numerator / rhs_denominator


def _leaves_needing_a_term(
    leaves: Sequence[SimpleCluster], placed: frozenset, k: int, m: int
) -> list[SimpleCluster]:
    """Leaves that would violate Lemma 2 if ``placed`` left their term chunks.

    A leaf is at risk when lifting empties its term chunk and its record
    chunks alone do not reach the Lemma-2 sub-record bound (paper, Lemma 2:
    a non-empty term chunk or enough sub-records).
    """
    from repro.core.vertical import subrecord_bound

    at_risk: list[SimpleCluster] = []
    for leaf in leaves:
        remaining = leaf.term_chunk.terms - placed
        if remaining:
            continue
        if not leaf.record_chunks:
            if leaf.size > 0:
                at_risk.append(leaf)
            continue
        needed = subrecord_bound(leaf.size, k, m, len(leaf.record_chunks))
        if leaf.total_subrecords() < needed:
            at_risk.append(leaf)
    return at_risk


def _hold_back_terms(at_risk: Sequence[SimpleCluster], placed: frozenset) -> frozenset:
    """For every at-risk leaf, pick one of its term-chunk terms to keep local.

    The held-back terms are removed from the refining candidates so the
    leaf's term chunk stays non-empty after the merge.  Choosing the
    lexicographically smallest term keeps the procedure deterministic.
    """
    held: set = set()
    for leaf in at_risk:
        liftable = sorted(leaf.term_chunk.terms & placed)
        if liftable:
            held.add(liftable[0])
    # Guard against a pathological empty selection (cannot happen when the
    # leaf was flagged because of `placed`, but keeps the caller's loop safe).
    return frozenset(held) if held else frozenset(placed and {sorted(placed)[0]})


# --------------------------------------------------------------------------- #
# the REFINE driver
# --------------------------------------------------------------------------- #
def _ordering_key_ranked(terms: frozenset, rank: dict) -> tuple:
    """REFINE's ordering key for a cluster's (virtual) term chunk.

    The key renders the terms as a tuple sorted by descending term-chunk
    support (``tcs``), compared lexicographically; clusters with empty
    term chunks sort last, since they have nothing to refine.  ``rank``
    orders every term by ``(-tcs[term], term)`` once per pass, so each
    cluster's terms sort on a single C-level int lookup instead of a
    tuple-building lambda; the produced key still holds the string terms,
    so cross-cluster comparisons are unchanged.
    """
    ordered = sorted(terms, key=rank.__getitem__)
    return (len(ordered) == 0, tuple(ordered))


def _repair_key_ranked(key: tuple, touched: frozenset, rank: dict) -> tuple:
    """Rebuild a cached ordering key after some of its terms moved rank.

    Terms whose support did not change keep their pairwise ``(-tcs,
    term)`` comparator values, so the cached tuple minus the touched
    terms is still sorted under the new ranks; each touched term
    re-enters at its new rank through one binary search instead of the
    whole cluster re-sorting.  Produces the exact tuple
    :func:`_ordering_key_ranked` would.
    """
    kept = [term for term in key[1] if term not in touched]
    get = rank.__getitem__
    for term in sorted(touched, key=get):
        insort(kept, term, key=get)
    return (not kept, tuple(kept))


def _prefilter(
    left: Cluster,
    right: Cluster,
    vtc_left: frozenset,
    vtc_right: frozenset,
    max_join_size: Optional[int],
    excluded_terms: frozenset,
) -> tuple[Optional[str], frozenset]:
    """Cheap rejection checks mirroring ``try_merge``'s first two gates.

    Returns ``(reason, refining_candidates)``; the walk hands the
    candidates on to :func:`try_merge` so it does not recompute them.
    """
    candidates = (vtc_left & vtc_right) - excluded_terms
    if not candidates:
        return "no common term-chunk terms", candidates
    if max_join_size is not None and left.size + right.size > max_join_size:
        return "joint cluster would exceed max_join_size", candidates
    return None, candidates


class _LazyJointMasks:
    """Joint liftable masks of a merged pair, combined on first probe.

    ``register_joint`` used to combine both members' mask dicts eagerly --
    O(|terms|) shifts per applied merge even though later attempts probe
    only the few terms shared with the next partner's term chunk.  This
    view defers the combine to ``get`` and memoizes per term; chaining
    views over earlier views walks the merge tree, but each level is two
    dict probes and the memo flattens repeated paths.  Placed terms
    resolve to 0 (they left every member term chunk), mirroring their
    absence from the eager dict; callers only probe refining candidates,
    which never include placed terms.
    """

    __slots__ = ("_left", "_right", "_shift", "_placed", "_memo")

    def __init__(self, left, right, shift: int, placed: frozenset):
        self._left = left
        self._right = right
        self._shift = shift
        self._placed = placed
        self._memo: dict = {}

    def get(self, term, default=0):
        mask = self._memo.get(term)
        if mask is None:
            if term in self._placed:
                mask = 0
            else:
                mask = self._left.get(term, 0) | (
                    self._right.get(term, 0) << self._shift
                )
            self._memo[term] = mask
        return mask if mask else default


class _DriverState:
    """Per-refine-call caches over the surviving top-level clusters.

    Everything here is immutable for a surviving cluster (only successful
    merges mutate state, and they consume both members), keyed by object
    identity -- the result tree keeps every input cluster alive, so ids are
    stable for the duration of the call.  When a merge is applied, the
    joint's entries derive from its members in O(|terms|) instead of
    re-walking its leaves.
    """

    __slots__ = ("vtcs", "keys", "supports", "leaves", "restricted", "masks", "arena")

    def __init__(self, arena: Optional[SubrecordArena] = None):
        self.vtcs: dict = {}        # id -> virtual term chunk
        self.keys: dict = {}        # id -> ordering key
        self.supports: dict = {}    # id -> liftable supports (term -> count)
        self.leaves: dict = {}      # id -> validated leaf list
        self.restricted: dict = {}  # id -> record/shared-chunk terms
        self.masks: dict = {}       # id -> (liftable masks over own rows, num_rows)
        self.arena = arena if arena is not None else SubrecordArena()

    def seed(self, cluster: Cluster) -> None:
        """Fill the walk-derived entries for a not-yet-seen cluster."""
        cid = id(cluster)
        if cid not in self.vtcs:
            self.vtcs[cid] = virtual_term_chunk(cluster)
        if cid not in self.leaves:
            self.leaves[cid] = _leaves_with_originals(cluster)
        if cid not in self.restricted:
            self.restricted[cid] = cluster.record_chunk_terms()
        if cid not in self.masks:
            builder = _JointMaskBuilder(self.leaves[cid])
            self.masks[cid] = (
                builder.joint_masks(self.vtcs[cid]),
                builder.num_rows,
            )

    def register_joint(
        self, joint: JointCluster, left: Cluster, right: Cluster, placed: frozenset
    ) -> None:
        """Derive the joint's entries from its members (no leaf walks).

        The joint's leaves are the members' concatenated; its virtual term
        chunk is the members' union minus the lifted terms; its restricted
        set gains exactly the new shared-chunk domains (the placed terms);
        its liftable supports are the members' sums minus the placed terms
        (leaf masks are fixed, and the placed terms left every term chunk).
        """
        lid, rid = id(left), id(right)
        jid = id(joint)
        self.leaves[jid] = self.leaves[lid] + self.leaves[rid]
        self.vtcs[jid] = (self.vtcs[lid] | self.vtcs[rid]) - placed
        self.restricted[jid] = self.restricted[lid] | self.restricted[rid] | placed
        masks_left, rows_left = self.masks[lid]
        masks_right, rows_right = self.masks[rid]
        self.masks[jid] = (
            _LazyJointMasks(masks_left, masks_right, rows_left, placed),
            rows_left + rows_right,
        )
        joint_supports = dict(_liftable_supports(left, self.supports))
        get = joint_supports.get
        for term, support in _liftable_supports(right, self.supports).items():
            joint_supports[term] = get(term, 0) + support
        for term in placed:
            joint_supports.pop(term, None)
        self.supports[jid] = joint_supports


def _merge_pass(
    ordered: Sequence[Cluster],
    state: _DriverState,
    memo: MergeMemo,
    k: int,
    m: int,
    max_join_size: Optional[int],
    excluded_terms: frozenset,
    stats: RefineStats,
    tcs: Optional[Counter] = None,
) -> tuple[list[Cluster], bool, set]:
    """One greedy adjacent-pair walk.

    ``tcs`` is the global term-chunk support Counter, updated in place for
    every applied merge so the driver never recounts it from scratch
    between passes.

    Returns ``(merged, changed, changed_terms)``; ``changed_terms`` are the
    terms whose global term-chunk support moved this pass (the shared terms
    of every applied pair), which is exactly the invalidation set for the
    cross-pass ordering-key cache.
    """
    vtcs = state.vtcs
    merged: list[Cluster] = []
    changed = False
    changed_terms: set = set()
    index = 0
    last = len(ordered) - 1
    while index < len(ordered):
        if index < last:
            left, right = ordered[index], ordered[index + 1]
            stats.pairs_considered += 1
            joint: Optional[JointCluster] = None
            placed: frozenset = frozenset()
            if memo.is_rejected(left, right, vtcs):
                stats.skipped_by_memo += 1
            else:
                reason, candidates = _prefilter(
                    left, right, vtcs[id(left)], vtcs[id(right)],
                    max_join_size, excluded_terms,
                )
                if reason is not None:
                    stats.prefiltered += 1
                    memo.record_rejection(left, right, vtcs)
                else:
                    stats.merges_attempted += 1
                    outcome = try_merge(
                        left,
                        right,
                        k,
                        m,
                        max_join_size=max_join_size,
                        excluded_terms=excluded_terms,
                        support_cache=state.supports,
                        _refining_candidates=candidates,
                        _leaves=state.leaves[id(left)] + state.leaves[id(right)],
                        _restricted_parts=(
                            state.restricted[id(left)],
                            state.restricted[id(right)],
                        ),
                        _pair_masks=(state.masks[id(left)], state.masks[id(right)]),
                        _arena=state.arena,
                    )
                    if outcome.joint is not None:
                        joint = outcome.joint
                        placed = outcome.refining_terms
                    else:
                        memo.record_rejection(left, right, vtcs)
            if joint is not None:
                # Global supports only move for terms both members shared
                # (lifted terms drop out, duplicated counts collapse).
                shared = vtcs[id(left)] & vtcs[id(right)]
                changed_terms |= shared
                if tcs is not None:
                    # Incremental term-chunk supports: a shared term's count
                    # drops by one (two member contributions collapse into
                    # the joint's), and by two when it was lifted out
                    # entirely (placed terms leave every term chunk).
                    # Zero-count entries are pruned so the per-pass rank
                    # sort only sees live terms.
                    for term in shared:
                        tcs[term] -= 2 if term in placed else 1
                        if tcs[term] <= 0:
                            del tcs[term]
                state.register_joint(joint, left, right, placed)
                merged.append(joint)
                stats.merges_applied += 1
                changed = True
                index += 2
                continue
        merged.append(ordered[index])
        index += 1
    return merged, changed, changed_terms


def refine(
    clusters: Sequence[Cluster],
    k: int,
    m: int,
    max_passes: int = 50,
    max_join_size: Optional[int] = 240,
    excluded_terms: frozenset = frozenset(),
    stats: Optional[RefineStats] = None,
    arena: Optional[SubrecordArena] = None,
) -> list[Cluster]:
    """Algorithm REFINE: iteratively merge adjacent cluster pairs.

    Args:
        clusters: k^m-anonymous clusters (typically the VERPART output).
        k, m: anonymity parameters.
        max_passes: safety cap on the number of merge passes (the algorithm
            terminates on its own because each pass either merges clusters,
            strictly reducing their number, or stops).
        max_join_size: cap on the number of original records per joint
            cluster (``None`` disables the cap); see :func:`try_merge`.
        excluded_terms: terms that must never be lifted into shared chunks
            (sensitive terms stay in term chunks for l-diversity).
        stats: optional :class:`RefineStats` filled with the run's counters.
        arena: optionally, a shared :class:`~repro.core.vocab.SubrecordArena`
            to intern shared-chunk sub-records into (the engine hands over
            the vocabulary's arena so interned instances survive across
            windows); a private one is created when omitted.

    Returns:
        The refined list of clusters (joint clusters replace merged pairs).
    """
    validate_km_parameters(k, m)
    excluded_terms = frozenset(str(t) for t in excluded_terms)
    if stats is None:
        stats = RefineStats()

    current: list[Cluster] = list(clusters)
    memo = MergeMemo()
    # Per-cluster caches surviving across passes.  A surviving top-level
    # cluster is never mutated (only successful merges touch leaf term
    # chunks, and they consume both members), so its virtual term chunk,
    # leaves, restricted terms and liftable supports are stable; its
    # *ordering key* additionally depends on the global term-chunk
    # supports, which only move for the terms shared by merged pairs --
    # keys are recomputed exactly for clusters touching those.
    state = _DriverState(arena=arena)
    vtcs = state.vtcs
    key_cache = state.keys
    changed_terms: Optional[set] = None  # None = first pass, compute all
    tcs: Optional[Counter] = None        # maintained incrementally across passes
    for _pass in range(max_passes):
        if len(current) < 2:
            break
        stats.passes += 1
        for cluster in current:
            if id(cluster) not in vtcs:
                state.seed(cluster)
        if tcs is None:
            tcs = Counter()
            for cluster in current:
                tcs.update(vtcs[id(cluster)])
        rank = {
            term: position
            for position, term in enumerate(
                sorted(tcs, key=lambda t: (-tcs[t], t))
            )
        }
        for cluster in current:
            cid = id(cluster)
            if cid not in key_cache or changed_terms is None:
                key_cache[cid] = _ordering_key_ranked(vtcs[cid], rank)
            else:
                touched = vtcs[cid] & changed_terms
                if touched:
                    key_cache[cid] = _repair_key_ranked(
                        key_cache[cid], touched, rank
                    )
        ordered = sorted(current, key=lambda c: key_cache[id(c)])
        current, changed, changed_terms = _merge_pass(
            ordered, state, memo, k, m, max_join_size,
            excluded_terms, stats, tcs=tcs,
        )
        if not changed:
            break
    return current
