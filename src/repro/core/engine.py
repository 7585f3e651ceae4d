"""End-to-end disassociation engine (the paper's anonymization algorithm).

The engine is a pluggable :class:`Pipeline` of phase objects, each
implementing the small :class:`Phase` protocol (``name`` + ``run(ctx)``):

* :class:`HorizontalPhase` -- HORPART.  The dataset is interned onto an
  :class:`~repro.core.vocab.EncodedDataset` first and split via posting
  lists; records are decoded back at the phase boundary.
* :class:`VerticalPhase` -- VERPART per cluster, over int bitmasks.
* :class:`RefinePhase` -- REFINE (the incremental driver) with bitset
  shared-chunk construction.
* :class:`VerifyPhase` -- publishes the dataset and re-audits it.

Phases communicate through a :class:`PipelineContext`; the pipeline times
every phase into the :class:`AnonymizationReport`.  :class:`Disassociator`
builds the default pipeline; replace :meth:`Disassociator.build_pipeline`
(or construct a :class:`Pipeline` directly) to insert, drop or reorder
phases.  Parameters are grouped in :class:`AnonymizationParams`, validated
once, and recorded on the output.

There is one execution core.  The string transcription of the algorithm
(:func:`~repro.core.horizontal.horizontal_partition`,
:func:`~repro.core.vertical.vertical_partition` and the reference REFINE
driver) is kept as the equivalence oracle only: the test suite plugs it in
through :meth:`Disassociator.build_pipeline` and checks that both publish
identical datasets.

For datasets too large for one pass, :class:`ShardedPipeline` (re-exported
here from :mod:`repro.stream`) runs this same pipeline per bounded-memory
window inside each shard of a streamed input, then merges and globally
re-verifies; see :mod:`repro.stream` for the streaming semantics.

Typical usage::

    from repro import Disassociator, AnonymizationParams, TransactionDataset

    dataset = TransactionDataset([...])
    params = AnonymizationParams(k=5, m=2)
    published = Disassociator(params).anonymize(dataset)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Protocol, Sequence

from repro import faults
from repro.core import deadline
from repro.core.clusters import Cluster, DisassociatedDataset, JointCluster, SimpleCluster
from repro.core.dataset import TransactionDataset
from repro.core.horizontal import DEFAULT_MAX_CLUSTER_SIZE, horizontal_partition_indices
from repro.core.refine import RefineStats, refine
from repro.core.verification import verify_km_anonymity
from repro.core.vertical import VerticalPartitionResult, vertical_partition_fast
from repro.core.vocab import EncodedDataset, Vocabulary, discard_cluster_masks
from repro.exceptions import EngineClosedError, ParameterError

@dataclass(frozen=True)
class AnonymizationParams:
    """Parameters of the disassociation algorithm.

    Attributes:
        k: minimum number of candidate records an adversary must face.
        m: maximum background knowledge (number of known terms per record).
        max_cluster_size: HORPART cluster-size bound.
        refine: whether to run the REFINE step (disable for ablations).
        max_join_size: cap (in original records) on the size of the joint
            clusters created by REFINE; defaults to ``8 * max_cluster_size``
            when left as ``None``.
        sensitive_terms: optional set of terms to treat as sensitive; they
            are excluded from horizontal-partitioning decisions and forced
            into term chunks, which yields cluster-size l-diversity for them
            (paper, Section 5, "Diversity").
        verify: re-audit the published dataset before returning it.
    """

    k: int = 5
    m: int = 2
    max_cluster_size: int = DEFAULT_MAX_CLUSTER_SIZE
    refine: bool = True
    max_join_size: Optional[int] = None
    sensitive_terms: frozenset = field(default_factory=frozenset)
    verify: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        if self.m < 1:
            raise ParameterError(f"m must be >= 1, got {self.m}")
        if self.max_cluster_size < 2:
            raise ParameterError(
                f"max_cluster_size must be >= 2, got {self.max_cluster_size}"
            )
        if self.max_cluster_size <= self.k:
            raise ParameterError(
                "max_cluster_size must be greater than k "
                f"(got max_cluster_size={self.max_cluster_size}, k={self.k})"
            )
        if self.max_join_size is not None and self.max_join_size < self.max_cluster_size:
            raise ParameterError(
                "max_join_size must be at least max_cluster_size "
                f"(got max_join_size={self.max_join_size}, "
                f"max_cluster_size={self.max_cluster_size})"
            )
        object.__setattr__(
            self, "sensitive_terms", frozenset(str(t) for t in self.sensitive_terms)
        )


@dataclass
class AnonymizationReport:
    """Timings and structural statistics of one anonymization run.

    Phase timings are wall-clock seconds per pipeline phase.
    ``encode_seconds`` / ``decode_seconds`` break out the time spent moving
    between the string and interned representations; both are sub-intervals
    of ``horizontal_seconds`` (the phase that owns the boundary).

    The ``refine_*`` counters expose the REFINE driver's per-pass work
    (see :class:`~repro.core.refine.RefineStats`).
    """

    num_records: int = 0
    num_clusters: int = 0
    num_joint_clusters: int = 0
    num_record_chunks: int = 0
    num_shared_chunks: int = 0
    term_chunk_terms: int = 0
    horizontal_seconds: float = 0.0
    vertical_seconds: float = 0.0
    refine_seconds: float = 0.0
    verify_seconds: float = 0.0
    encode_seconds: float = 0.0
    decode_seconds: float = 0.0
    refine_passes: int = 0
    refine_pairs_considered: int = 0
    refine_merges_attempted: int = 0
    refine_merges_applied: int = 0
    refine_merges_skipped_memo: int = 0
    refine_pairs_prefiltered: int = 0

    @property
    def total_seconds(self) -> float:
        """Total anonymization time across the pipeline phases."""
        return (
            self.horizontal_seconds
            + self.vertical_seconds
            + self.refine_seconds
            + self.verify_seconds
        )

    def phase_timings(self) -> dict:
        """Phase timings as a plain dict (machine-readable perf output)."""
        return {
            "horizontal_seconds": self.horizontal_seconds,
            "vertical_seconds": self.vertical_seconds,
            "refine_seconds": self.refine_seconds,
            "verify_seconds": self.verify_seconds,
            "encode_seconds": self.encode_seconds,
            "decode_seconds": self.decode_seconds,
            "total_seconds": self.total_seconds,
        }

    def counters(self) -> dict:
        """Work counters as a plain dict (machine-readable perf output)."""
        return {
            "refine_passes": self.refine_passes,
            "refine_pairs_considered": self.refine_pairs_considered,
            "refine_merges_attempted": self.refine_merges_attempted,
            "refine_merges_applied": self.refine_merges_applied,
            "refine_merges_skipped_memo": self.refine_merges_skipped_memo,
            "refine_pairs_prefiltered": self.refine_pairs_prefiltered,
        }


@dataclass
class PipelineContext:
    """Mutable state threaded through the pipeline phases.

    Attributes:
        params, report: the run's configuration and its timing/stat sink.
        dataset: the original input dataset (with sensitive terms).
        working: the dataset the clustering phases operate on (sensitive
            terms stripped; identical to ``dataset`` otherwise).
        partitions: HORPART output -- one record sequence per cluster.
        clusters: VERPART output -- one :class:`SimpleCluster` per partition.
        refined: REFINE output -- simple and/or joint clusters.
        published: the final :class:`DisassociatedDataset`.
        vocabulary: optional pre-warmed interning table the horizontal
            phase encodes onto (shared across stream windows); ``None``
            interns from scratch.
    """

    params: AnonymizationParams
    report: AnonymizationReport
    dataset: TransactionDataset
    working: TransactionDataset
    partitions: Optional[list] = None
    clusters: list[SimpleCluster] = field(default_factory=list)
    refined: Optional[list[Cluster]] = None
    published: Optional[DisassociatedDataset] = None
    vocabulary: Optional[Vocabulary] = None

    def publish(self) -> DisassociatedDataset:
        """Build (once) and return the published dataset."""
        if self.published is None:
            clusters = self.refined if self.refined is not None else list(self.clusters)
            self.published = DisassociatedDataset(
                clusters, k=self.params.k, m=self.params.m
            )
        return self.published


class Phase(Protocol):
    """One pipeline stage: a named object transforming the shared context."""

    name: str

    def run(self, ctx: PipelineContext) -> None:
        """Advance ``ctx``; phase wall time lands in ``report.<name>_seconds``."""
        ...


class Pipeline:
    """An ordered list of phases run against one :class:`PipelineContext`.

    The pipeline times every phase into ``ctx.report.<name>_seconds`` (when
    the report has such a field), so custom phases named e.g. ``"refine"``
    transparently account into the standard report.
    """

    def __init__(self, phases: Sequence[Phase]):
        self.phases: list[Phase] = list(phases)

    def __repr__(self) -> str:
        return f"Pipeline({[phase.name for phase in self.phases]})"

    def run(self, ctx: PipelineContext) -> PipelineContext:
        """Run every phase in order, timing each into the context's report.

        Before each phase the pipeline visits the ``engine.<phase>`` fault
        injection point and checks the ambient request deadline, so an
        expired deadline (or an armed test fault) aborts at a phase
        boundary with the context still internally consistent.
        """
        for phase in self.phases:
            faults.check(f"engine.{phase.name}")
            deadline.check(f"engine.{phase.name}")
            start = time.perf_counter()
            phase.run(ctx)
            elapsed = time.perf_counter() - start
            attr = f"{phase.name}_seconds"
            if hasattr(ctx.report, attr):
                setattr(ctx.report, attr, getattr(ctx.report, attr) + elapsed)
        return ctx


class HorizontalPhase:
    """HORPART: cluster the working records into bounded-size partitions."""

    name = "horizontal"

    def run(self, ctx: PipelineContext) -> None:
        """Fill ``ctx.partitions`` with bounded-size record groups (HORPART)."""
        ctx.partitions = self.partition(ctx)
        sensitive = ctx.params.sensitive_terms
        if sensitive:
            # Re-attach sensitive terms to the records of each partition so
            # the vertical step can place them in term chunks.
            ctx.partitions = _reattach_sensitive(ctx.dataset, ctx.partitions, sensitive)

    def partition(self, ctx: PipelineContext) -> list:
        """HORPART over the interned working records (posting-list splits)."""
        report = ctx.report
        start = time.perf_counter()
        encoded = EncodedDataset.from_dataset(ctx.working, vocab=ctx.vocabulary)
        report.encode_seconds += time.perf_counter() - start
        index_parts = horizontal_partition_indices(encoded, ctx.params.max_cluster_size)
        start = time.perf_counter()
        records = list(ctx.working)
        partitions = [[records[i] for i in part] for part in index_parts]
        report.decode_seconds += time.perf_counter() - start
        return partitions


class VerticalPhase:
    """VERPART: split every partition into record chunks and a term chunk.

    Cluster labels (``P0..Pn``) follow partition order.
    """

    name = "vertical"

    def run(self, ctx: PipelineContext) -> None:
        """Fill ``ctx.clusters`` with one published cluster per partition."""
        params = ctx.params
        clusters: list[SimpleCluster] = []
        for index, part in enumerate(ctx.partitions or []):
            cluster = self.partition(part, params.k, params.m, f"P{index}").cluster
            if params.sensitive_terms:
                cluster = _force_sensitive_to_term_chunk(cluster, params.sensitive_terms)
            clusters.append(cluster)
        ctx.clusters = clusters

    def partition(self, part, k: int, m: int, label: str) -> VerticalPartitionResult:
        """VERPART of one partition over int term bitmasks."""
        return vertical_partition_fast(part, k, m, label=label)


class RefinePhase:
    """REFINE: merge clusters into joint clusters with shared chunks.

    Runs the incremental driver (rejected-pair memo, shared mask cache);
    the driver's counters land on the report.
    """

    name = "refine"

    def run(self, ctx: PipelineContext) -> None:
        """Fill ``ctx.refined`` with the merged clusters; release mask caches."""
        params = ctx.params
        try:
            if params.refine and len(ctx.clusters) > 1:
                join_cap = params.max_join_size
                if join_cap is None:
                    join_cap = 8 * params.max_cluster_size
                ctx.refined = self.merge(ctx, join_cap)
            else:
                ctx.refined = list(ctx.clusters)
        finally:
            # The per-cluster term masks VERPART registered are only read
            # up to this point; publishing keeps the cluster objects (and
            # with them any cache entries) alive, so release the masks
            # here to keep resident memory bounded -- notably for the
            # streaming path, which accumulates every window's clusters.
            for cluster in ctx.clusters:
                for leaf in cluster.leaves():
                    discard_cluster_masks(leaf)

    def merge(self, ctx: PipelineContext, max_join_size: int) -> list[Cluster]:
        """Run the REFINE driver over ``ctx.clusters``; fill the report counters."""
        params, report = ctx.params, ctx.report
        stats = RefineStats()
        refined = refine(
            ctx.clusters,
            params.k,
            params.m,
            max_join_size=max_join_size,
            excluded_terms=params.sensitive_terms,
            stats=stats,
            arena=(
                ctx.vocabulary.subrecord_arena()
                if ctx.vocabulary is not None
                else None
            ),
        )
        report.refine_passes = stats.passes
        report.refine_pairs_considered = stats.pairs_considered
        report.refine_merges_attempted = stats.merges_attempted
        report.refine_merges_applied = stats.merges_applied
        report.refine_merges_skipped_memo = stats.skipped_by_memo
        report.refine_pairs_prefiltered = stats.prefiltered
        return refined


class VerifyPhase:
    """Publish the dataset and independently re-audit it (when enabled)."""

    name = "verify"

    def run(self, ctx: PipelineContext) -> None:
        """Publish ``ctx.published`` and re-audit it when ``params.verify``."""
        published = ctx.publish()
        if ctx.params.verify:
            verify_km_anonymity(published)


#: The phases of the standard disassociation pipeline, in order.
DEFAULT_PHASES = (HorizontalPhase, VerticalPhase, RefinePhase, VerifyPhase)


class Disassociator:
    """Anonymizes transaction datasets with the disassociation transformation.

    Args:
        params: the anonymization parameters; defaults to ``k=5, m=2`` as in
            the paper's experiments.
        vocabulary: optional :class:`~repro.core.vocab.Vocabulary` the
            horizontal phase interns onto (instead of a fresh table
            per call).  Interning is append-only and id-insensitive
            decisions break ties on the decoded string, so reuse never
            changes the output; the streaming executor hands one
            shard-lifetime vocabulary to every window of a shard.  The
            attribute is plain and may be swapped between ``anonymize``
            calls.
    """

    def __init__(
        self,
        params: Optional[AnonymizationParams] = None,
        *,
        vocabulary: Optional[Vocabulary] = None,
    ):
        self.params = params if params is not None else AnonymizationParams()
        self.last_report: Optional[AnonymizationReport] = None
        self.vocabulary = vocabulary
        self._closed = False

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (the engine is retired)."""
        return self._closed

    def close(self) -> None:
        """Retire the engine; a later :meth:`anonymize` raises.

        Raises:
            EngineClosedError: on a double close.  Engines are shared by
                other components (the service layer, the streaming
                executor), so a second ``close()`` is a lifecycle bug worth
                surfacing rather than silently absorbing.
        """
        if self._closed:
            raise EngineClosedError(
                "Disassociator.close() called twice; the engine was already closed"
            )
        self._closed = True

    def __enter__(self) -> "Disassociator":
        return self

    def __exit__(self, *exc_info) -> None:
        # Tolerate an explicit close() inside the ``with`` body: the context
        # manager guarantees cleanup, it does not insist on performing it.
        if not self._closed:
            self.close()

    def build_pipeline(self) -> Pipeline:
        """The default pipeline; override to add, drop or reorder phases."""
        return Pipeline([phase() for phase in DEFAULT_PHASES])

    def anonymize(self, dataset: TransactionDataset) -> DisassociatedDataset:
        """Run the full pipeline and return the published dataset.

        Raises:
            AnonymityViolationError: if ``params.verify`` is set and the
                produced dataset fails the independent audit (this would
                indicate a library bug, not a user error).
            EngineClosedError: if the engine was already :meth:`close`\\ d.
        """
        if self._closed:
            raise EngineClosedError(
                "Disassociator.anonymize() called on a closed engine; "
                "create a new Disassociator (or do not close this one)"
            )
        params = self.params
        report = AnonymizationReport(num_records=len(dataset))
        self.last_report = report
        sensitive = params.sensitive_terms

        working = dataset
        if sensitive:
            # Sensitive terms are hidden from the clustering heuristic so
            # clusters are formed on quasi-identifying content only.
            working = TransactionDataset(
                (record - sensitive or record for record in dataset), allow_empty=False
            )

        ctx = PipelineContext(
            params=params,
            report=report,
            dataset=dataset,
            working=working,
            vocabulary=self.vocabulary,
        )
        self.build_pipeline().run(ctx)
        published = ctx.publish()
        for name, value in zip(REPORT_STATS, cluster_stats(published)):
            setattr(report, name, value)
        return published

# ------------------------------------------------------------------ #
# sensitive-term (l-diversity) support
# ------------------------------------------------------------------ #
def _reattach_sensitive(dataset, partitions, sensitive) -> list[TransactionDataset]:
    """Map partitioned records back to their original (sensitive-bearing) form.

    Records are matched on their non-sensitive projection; duplicates are
    consumed in (dataset) order so multiplicities are preserved.
    """
    pool: dict[frozenset, list[frozenset]] = {}
    for record in dataset:
        key = frozenset(record - sensitive) or frozenset(record)
        pool.setdefault(key, []).append(frozenset(record))
    # Consume each key's duplicates front-to-back (FIFO): reversing once
    # here lets the loop below pop from the end in original order.
    for candidates in pool.values():
        candidates.reverse()
    restored = []
    for partition in partitions:
        records = []
        for record in partition:
            candidates = pool.get(frozenset(record), [])
            records.append(candidates.pop() if candidates else frozenset(record))
        restored.append(TransactionDataset(records, allow_empty=False))
    return restored


def _force_sensitive_to_term_chunk(
    cluster: SimpleCluster, sensitive: frozenset
) -> SimpleCluster:
    """Move any sensitive term that slipped into a record chunk to the term chunk."""
    from repro.core.clusters import RecordChunk, TermChunk

    moved: set = set()
    new_chunks = []
    for chunk in cluster.record_chunks:
        overlap = chunk.domain & sensitive
        if not overlap:
            new_chunks.append(chunk)
            continue
        moved.update(overlap)
        reduced_domain = chunk.domain - overlap
        if reduced_domain:
            new_chunks.append(
                RecordChunk(reduced_domain, (sr - overlap for sr in chunk.subrecords))
            )
    present_sensitive = set()
    if cluster.original_records is not None:
        for record in cluster.original_records:
            present_sensitive.update(record & sensitive)
    new_term_chunk = TermChunk(cluster.term_chunk.terms | moved | present_sensitive)
    return SimpleCluster(
        size=cluster.size,
        record_chunks=new_chunks,
        term_chunk=new_term_chunk,
        label=cluster.label,
        original_records=cluster.original_records,
    )


#: The cluster statistics of a report, in :func:`cluster_stats` order.
REPORT_STATS = (
    "num_clusters",
    "num_joint_clusters",
    "num_record_chunks",
    "num_shared_chunks",
    "term_chunk_terms",
)


def cluster_stats(published: DisassociatedDataset) -> tuple:
    """The publication's :data:`REPORT_STATS` values, in that order.

    Every statistic is a sum over top-level clusters, so the statistics
    of a concatenation of publications are the element-wise sums.
    """
    leaves = published.simple_clusters()
    return (
        len(leaves),
        sum(1 for cluster in published.clusters if isinstance(cluster, JointCluster)),
        sum(len(leaf.record_chunks) for leaf in leaves),
        sum(1 for cluster in published.clusters for _ in cluster.iter_shared_chunks()),
        sum(len(leaf.term_chunk) for leaf in leaves),
    )


def __getattr__(name: str):
    # Lazy re-exports from repro.stream: the streaming subsystem builds on
    # this module, so a top-level import here would be circular.
    if name in ("ShardedPipeline", "StreamParams"):
        from repro import stream

        return getattr(stream, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

