"""Independent verification of a published (disassociated) dataset.

The anonymization algorithm is proven correct in the paper (Section 5), but
a production library should never rely on "proven by construction" alone:
this module re-checks a :class:`~repro.core.clusters.DisassociatedDataset`
against the three properties the proof relies on:

1. every record chunk is k^m-anonymous (Lemma 1 / definition of vertical
   partitioning),
2. every simple cluster satisfies the Lemma-2 sub-record bound (or has a
   non-empty term chunk), and
3. every shared chunk satisfies Property 1 (k-anonymous when it contains a
   term that also appears in a record or shared chunk of a descendant
   cluster, k^m-anonymous otherwise).

``verify_km_anonymity`` raises :class:`AnonymityViolationError` on the first
violation, while ``audit`` returns a full report for diagnostics and tests.

The chunk checks run through
:func:`repro.core.anonymity.km_anonymous_batch`: the auditor first walks the
cluster tree collecting every record/shared chunk, then asks for all
k^m verdicts in one call.  The exhaustive Counter-based search runs only
per failing chunk, to describe the violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.anonymity import (
    find_km_violation,
    is_k_anonymous,
    km_anonymous_batch,
    validate_km_parameters,
)
from repro.core.clusters import (
    Cluster,
    DisassociatedDataset,
    JointCluster,
    SimpleCluster,
    paused_gc,
)
from repro.core.vertical import satisfies_lemma2
from repro.exceptions import AnonymityViolationError


@dataclass
class AuditReport:
    """Outcome of auditing a published dataset.

    Attributes:
        ok: ``True`` when no violation was found.
        chunk_violations: list of ``(cluster_label, itemset, support)`` for
            record or shared chunks that are not k^m-anonymous.
        lemma2_violations: labels of simple clusters violating Lemma 2.
        property1_violations: labels of joint clusters with an unsafe shared
            chunk.
    """

    ok: bool = True
    chunk_violations: list = field(default_factory=list)
    lemma2_violations: list = field(default_factory=list)
    property1_violations: list = field(default_factory=list)

    def summary(self) -> str:
        """One-line human readable summary of the audit."""
        if self.ok:
            return "audit passed: all chunks k^m-anonymous, Lemma 2 and Property 1 hold"
        return (
            f"audit failed: {len(self.chunk_violations)} chunk violation(s), "
            f"{len(self.lemma2_violations)} Lemma-2 violation(s), "
            f"{len(self.property1_violations)} Property-1 violation(s)"
        )


def _collect_simple_cluster(
    cluster: SimpleCluster, k: int, m: int, report: AuditReport, chunk_jobs: list
) -> None:
    for chunk in cluster.record_chunks:
        chunk_jobs.append((cluster.label, chunk.subrecords))
    if not satisfies_lemma2(cluster, k, m):
        report.ok = False
        report.lemma2_violations.append(cluster.label)


def _collect_joint_cluster(
    cluster: JointCluster, k: int, m: int, report: AuditReport, chunk_jobs: list
) -> None:
    # T^r: terms in record or shared chunks of the *children* of this joint
    # cluster (Property 1 is stated over the clusters forming J).
    restricted: set = set()
    for child in cluster.children:
        restricted.update(child.record_chunk_terms())
    for chunk in cluster.shared_chunks:
        chunk_jobs.append((cluster.label, chunk.subrecords))
        if chunk.domain & restricted and not is_k_anonymous(chunk.subrecords, k):
            report.ok = False
            report.property1_violations.append(cluster.label)
    for child in cluster.children:
        _collect_cluster(child, k, m, report, chunk_jobs)


def _collect_cluster(
    cluster: Cluster, k: int, m: int, report: AuditReport, chunk_jobs: list
) -> None:
    if isinstance(cluster, JointCluster):
        _collect_joint_cluster(cluster, k, m, report, chunk_jobs)
    else:
        _collect_simple_cluster(cluster, k, m, report, chunk_jobs)


def _audit_chunk_jobs(chunk_jobs: list, k: int, m: int, report: AuditReport) -> None:
    # One batched verdict sweep over every collected chunk; the exhaustive
    # Counter-based search runs only when a violation exists, to report the
    # worst offending itemset for diagnostics.
    verdicts = km_anonymous_batch([subrecords for _, subrecords in chunk_jobs], k, m)
    for (label, subrecords), anonymous in zip(chunk_jobs, verdicts):
        if anonymous:
            continue
        violation = find_km_violation(subrecords, k, m)
        if violation is not None:
            itemset, support = violation
            report.ok = False
            report.chunk_violations.append((label, itemset, support))


def audit(
    published: DisassociatedDataset, k: Optional[int] = None, m: Optional[int] = None
) -> AuditReport:
    """Audit a published dataset against the paper's anonymity conditions.

    Args:
        published: the disassociated dataset.
        k, m: override the parameters stored in the dataset (defaults to the
            dataset's own ``k`` and ``m``).

    Returns:
        An :class:`AuditReport`; ``report.ok`` is ``True`` when the dataset
        satisfies all conditions.
    """
    k = published.k if k is None else k
    m = published.m if m is None else m
    validate_km_parameters(k, m)
    report = AuditReport()
    chunk_jobs: list = []
    # Every collected chunk is retained until the verdicts are in, and
    # the sweep's garbage is acyclic: collections would free nothing.
    with paused_gc():
        for cluster in published.clusters:
            _collect_cluster(cluster, k, m, report, chunk_jobs)
        _audit_chunk_jobs(chunk_jobs, k, m, report)
    return report


def verify_km_anonymity(
    published: DisassociatedDataset, k: Optional[int] = None, m: Optional[int] = None
) -> None:
    """Raise :class:`AnonymityViolationError` unless the dataset passes :func:`audit`."""
    report = audit(published, k, m)
    if report.ok:
        return
    if report.chunk_violations:
        label, itemset, support = report.chunk_violations[0]
        raise AnonymityViolationError(
            f"cluster {label!r}: itemset {itemset!r} has support {support} < k",
            itemset=itemset,
            support=support,
        )
    if report.lemma2_violations:
        raise AnonymityViolationError(
            f"cluster {report.lemma2_violations[0]!r} violates the Lemma-2 sub-record bound"
        )
    raise AnonymityViolationError(
        f"joint cluster {report.property1_violations[0]!r} has a shared chunk violating Property 1"
    )
