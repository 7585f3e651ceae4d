"""Global verification of a sharded publication, with demotion repair.

**The shard-boundary verification rule.**  Disassociation's k^m-anonymity
guarantee is *per cluster*: each record chunk must be k^m-anonymous on its
own, wherever the cluster came from.  Merging independently anonymized
shards therefore cannot weaken the guarantee of any individual cluster --
but the sharded path introduces boundaries the single-pass engine never
has: records are cut into shards by the planner and into bounded-memory
windows inside each shard, so a cluster is built from a *window's* view of
the data, and a routing or windowing defect (a duplicated record batch,
truncated window, a planner that is not a partition of the stream) would
surface as a cluster whose chunks are not actually k^m-anonymous.

The global pass therefore re-audits the *merged* dataset from scratch with
the same independent auditor the single-pass engine uses
(:func:`repro.core.verification.audit`) and repairs any violation by
**demotion**: a term implicated in a violating itemset is removed from the
record (or shared) chunks of the offending cluster and moved to the term
chunk of the leaf clusters that actually contain it, hiding its supports
and co-occurrences.  This is exactly VERPART's own fallback (terms whose
combinations cannot be published safely live in the term chunk), applied
post hoc:

* demotion never *adds* information -- a term chunk publishes presence
  only, and the term was already published as present;
* demotion strictly shrinks the set of record-chunk terms, so the
  repair loop terminates (in the worst case every term is demoted and the
  publication is trivially k^m-anonymous);
* the repaired dataset passes the same audit as a single-pass run, so
  downstream consumers (metrics, reconstruction) need no sharding
  awareness.

Because the audit has no cross-cluster condition, the run tail
(:func:`repro.stream.executor.publish_merged`) first audits each window
on its own and runs this global pass only when some window fails: a
merge whose windows all pass is exactly what the pass would return
unchanged.

Clusters that fail the structural conditions (Lemma 2 / Property 1) rather
than a chunk-support condition are repaired coarsely: every record-chunk
term of the offending cluster is demoted.  These conditions cannot be
violated by boundary effects alone and indicate a deeper defect, so the
repair is deliberately maximal (and counted separately in the summary).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.clusters import (
    Cluster,
    DisassociatedDataset,
    JointCluster,
    RecordChunk,
    SharedChunk,
    SimpleCluster,
    TermChunk,
)
from repro.core.verification import audit

#: Safety valve: the repair loop shrinks the term set every round, so this
#: is only reachable if demotion itself is buggy.
MAX_REPAIR_ROUNDS = 100


@dataclass
class BoundaryRepairSummary:
    """What the global verification pass did to make the merge auditable.

    Attributes:
        rounds: number of audit-and-demote rounds run (0 = clean first audit).
        demoted_terms: record-chunk terms demoted per offending cluster label.
        structural_repairs: labels of clusters repaired for Lemma-2 /
            Property-1 violations (coarse full demotion).
    """

    rounds: int = 0
    demoted_terms: dict = field(default_factory=dict)
    structural_repairs: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when the first global audit already passed."""
        return self.rounds == 0

    def total_demoted(self) -> int:
        """Total number of (cluster, term) demotions applied."""
        return sum(len(terms) for terms in self.demoted_terms.values())


def verify_and_repair(
    published: DisassociatedDataset,
) -> tuple[DisassociatedDataset, BoundaryRepairSummary]:
    """Globally re-audit a merged publication, demoting boundary violators.

    Returns the (possibly rebuilt) dataset and a summary of the repairs.
    The returned dataset always passes :func:`repro.core.verification.audit`.
    """
    summary = BoundaryRepairSummary()
    for _ in range(MAX_REPAIR_ROUNDS):
        report = audit(published)
        if report.ok:
            return published, summary
        summary.rounds += 1
        offenders: dict[str, set] = {}
        for label, itemset, _support in report.chunk_violations:
            offenders.setdefault(label, set()).update(itemset)
        structural = set(report.lemma2_violations) | set(report.property1_violations)
        summary.structural_repairs.extend(sorted(structural))
        clusters = [
            _repair_cluster(cluster, offenders, structural, summary)
            for cluster in published.clusters
        ]
        published = DisassociatedDataset(clusters, k=published.k, m=published.m)
    raise AssertionError(
        "boundary repair did not converge; demotion failed to shrink the domain"
    )


def _repair_cluster(
    cluster: Cluster,
    offenders: dict[str, set],
    structural: set,
    summary: BoundaryRepairSummary,
) -> Cluster:
    if isinstance(cluster, JointCluster):
        return _repair_joint(cluster, offenders, structural, summary)
    return _repair_simple(cluster, offenders, structural, summary)


def _repair_simple(
    cluster: SimpleCluster,
    offenders: dict[str, set],
    structural: set,
    summary: BoundaryRepairSummary,
) -> SimpleCluster:
    demote = set(offenders.get(cluster.label, ()))
    if cluster.label in structural:
        demote.update(cluster.record_chunk_terms())
    if not demote:
        return cluster
    summary.demoted_terms.setdefault(cluster.label, set()).update(demote)
    return demote_terms(cluster, demote)


def _repair_joint(
    cluster: JointCluster,
    offenders: dict[str, set],
    structural: set,
    summary: BoundaryRepairSummary,
) -> JointCluster:
    demote = set(offenders.get(cluster.label, ()))
    if cluster.label in structural:
        for chunk in cluster.shared_chunks:
            demote.update(chunk.domain)
    children = [
        _repair_cluster(child, offenders, structural, summary)
        for child in cluster.children
    ]
    if not demote:
        return JointCluster(children, cluster.shared_chunks, label=cluster.label)
    summary.demoted_terms.setdefault(cluster.label, set()).update(demote)
    # Shrink the shared chunks; the demoted terms fall back to the term
    # chunks of the leaves that actually contain them (presence only).
    shared = []
    for chunk in cluster.shared_chunks:
        kept_domain = chunk.domain - demote
        if not kept_domain:
            continue
        shared.append(_shrink_shared_chunk(chunk, kept_domain))
    children = [_absorb_into_term_chunks(child, demote) for child in children]
    return JointCluster(children, shared, label=cluster.label)


def _shrink_shared_chunk(chunk: SharedChunk, kept_domain: frozenset) -> SharedChunk:
    """Project a shared chunk onto a shrunk domain, keeping contributions exact.

    The chunk's sub-record list is sliced per contributing cluster (in
    contribution order), so when a projection becomes empty and is dropped,
    the contribution of the cluster owning that position must be
    decremented -- otherwise reconstruction sees ``sum(contributions) !=
    len(subrecords)`` and silently loses the per-cluster attribution.
    """
    if not chunk.contributions:
        return SharedChunk(
            kept_domain, (sr & kept_domain for sr in chunk.subrecords), {}
        )
    subrecords: list[frozenset] = []
    contributions: dict = {}
    position = 0
    for label, count in chunk.contributions.items():
        kept = 0
        for subrecord in chunk.subrecords[position : position + count]:
            shrunk = subrecord & kept_domain
            if shrunk:
                subrecords.append(shrunk)
                kept += 1
        position += count
        if kept:
            contributions[label] = kept
    return SharedChunk(kept_domain, subrecords, contributions)


def demote_terms(cluster: SimpleCluster, demote: set) -> SimpleCluster:
    """Move ``demote`` terms from a cluster's record chunks to its term chunk.

    Chunks left with an empty domain disappear; sub-records are re-projected
    onto the shrunk domain (empty projections are dropped by
    :class:`~repro.core.clusters.RecordChunk` itself).
    """
    new_chunks = []
    present = set()
    for chunk in cluster.record_chunks:
        overlap = chunk.domain & demote
        if not overlap:
            new_chunks.append(chunk)
            continue
        present.update(overlap)
        kept = chunk.domain - overlap
        if kept:
            new_chunks.append(
                RecordChunk(kept, (sr - overlap for sr in chunk.subrecords))
            )
    return SimpleCluster(
        size=cluster.size,
        record_chunks=new_chunks,
        term_chunk=TermChunk(cluster.term_chunk.terms | present),
        label=cluster.label,
        original_records=cluster.original_records,
    )


def _absorb_into_term_chunks(cluster: Cluster, demoted: set) -> Cluster:
    """Add demoted shared-chunk terms to the term chunks of containing leaves.

    Membership is decided from the leaf's private original records when
    available (the in-process pipeline always attaches them); a leaf whose
    records are unknown conservatively absorbs every demoted term, keeping
    the repair sound (the term *was* published as present in the joint
    cluster) at a small utility cost.
    """
    if isinstance(cluster, JointCluster):
        return JointCluster(
            [_absorb_into_term_chunks(child, demoted) for child in cluster.children],
            cluster.shared_chunks,
            label=cluster.label,
        )
    originals = cluster.original_records
    if originals is None:
        absorbed = set(demoted)
    else:
        absorbed = {t for t in demoted if any(t in record for record in originals)}
    if not absorbed:
        return cluster
    return SimpleCluster(
        size=cluster.size,
        record_chunks=cluster.record_chunks,
        term_chunk=TermChunk(cluster.term_chunk.terms | absorbed),
        label=cluster.label,
        original_records=originals,
    )
