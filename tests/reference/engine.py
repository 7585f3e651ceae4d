"""The string reference engine: the oracle the production engine is held to.

The library runs one execution core (interned terms, int bitmasks, the
incremental REFINE driver).  The original string transcription of the
paper's algorithm is kept as its end-to-end oracle:
:func:`~tests.reference.horizontal.horizontal_partition`,
:func:`~tests.reference.vertical.vertical_partition` (over the
record-scanning :class:`~tests.reference.anonymity.IncrementalChunkChecker`)
and the reference REFINE driver with record-scanning shared-chunk
selection (:func:`~tests.reference.refine._refine_reference`).

It is plugged in through the pipeline extension point, not a parameter:
:class:`ReferenceDisassociator` is a :class:`~repro.core.engine.Disassociator`
whose :meth:`build_pipeline` swaps the three clustering phases for their
reference counterparts and keeps :class:`~repro.core.engine.VerifyPhase`.
The sensitive-term handling is inherited from the production phases, so
the two engines differ only in the algorithm implementations.  One class
serves every oracle use::

    ReferenceDisassociator(params).anonymize(dataset)            # batch
    ShardedPipeline(params, stream,
                    window_engine=ReferenceDisassociator(params))  # stream

:func:`reference_cold_run` is the oracle of the sharded paths: a cold
sharded run computed in memory, with no shard store.  Cold runs and
deltas share the store's routing and windowing, so comparing one with the
other alone would compare the code with itself.
"""
from __future__ import annotations

from dataclasses import replace

from repro.core.clusters import Cluster, DisassociatedDataset, JointCluster, SimpleCluster
from repro.core.dataset import TransactionDataset, ensure_record
from repro.core.engine import (
    AnonymizationParams,
    Disassociator,
    HorizontalPhase,
    Pipeline,
    PipelineContext,
    RefinePhase,
    VerifyPhase,
    VerticalPhase,
)
from repro.core.vertical import VerticalPartitionResult
from repro.core.vocab import Vocabulary
from repro.stream import StreamParams, build_planner, relabel_cluster, verify_and_repair
from tests.reference.horizontal import horizontal_partition
from tests.reference.refine import _refine_reference
from tests.reference.vertical import vertical_partition


class ReferenceHorizontalPhase(HorizontalPhase):
    """HORPART over string records (no interning)."""

    def partition(self, ctx: PipelineContext) -> list:
        """Split the working records with the string HORPART."""
        return horizontal_partition(ctx.working, ctx.params.max_cluster_size)


class ReferenceVerticalPhase(VerticalPhase):
    """VERPART with the record-scanning chunk checker."""

    def partition(self, part, k: int, m: int, label: str) -> VerticalPartitionResult:
        """Split one partition with the string VERPART."""
        if not isinstance(part, TransactionDataset):
            part = TransactionDataset(part)
        return vertical_partition(part, k, m, label=label)


class ReferenceRefinePhase(RefinePhase):
    """The reference REFINE driver with record-scanning chunk selection."""

    def merge(self, ctx: PipelineContext, max_join_size: int) -> list[Cluster]:
        """Re-attempt every adjacent pair each pass (no memo, no masks)."""
        params = ctx.params
        return _refine_reference(
            ctx.clusters,
            params.k,
            params.m,
            max_join_size=max_join_size,
            excluded_terms=params.sensitive_terms,
        )


class ReferenceDisassociator(Disassociator):
    """A :class:`~repro.core.engine.Disassociator` running the string oracle."""

    def build_pipeline(self) -> Pipeline:
        """The reference clustering phases followed by the production verify."""
        return Pipeline(
            [
                ReferenceHorizontalPhase(),
                ReferenceVerticalPhase(),
                ReferenceRefinePhase(),
                VerifyPhase(),
            ]
        )


def _strip(cluster: Cluster) -> Cluster:
    """The cluster tree without its private original records."""
    if isinstance(cluster, JointCluster):
        return JointCluster(
            [_strip(child) for child in cluster.children],
            cluster.shared_chunks,
            label=cluster.label,
        )
    return SimpleCluster(
        size=cluster.size,
        record_chunks=cluster.record_chunks,
        term_chunk=cluster.term_chunk,
        label=cluster.label,
    )


def reference_cold_run(
    params: AnonymizationParams,
    stream: StreamParams,
    records,
    engine_class=Disassociator,
) -> DisassociatedDataset:
    """What a cold sharded run publishes, computed in memory.

    Routes every record with :func:`~repro.stream.build_planner` over the
    first ``max_records_in_memory`` records (hash routing needs no
    sample), cuts each shard's records in arrival order into windows of
    ``max_records_in_memory``, runs ``engine_class`` (``verify`` off, one
    :class:`~repro.core.vocab.Vocabulary` per shard) on every window,
    relabels the windows' clusters ``S<shard>W<window>.``, repairs the
    concatenation with :func:`~repro.stream.verify_and_repair` and strips
    the private records.
    """
    records = [ensure_record(record) for record in records]
    bound = stream.max_records_in_memory
    sample = records[:bound] if stream.strategy != "hash" else []
    planner = build_planner(stream.strategy, stream.shards, sample)
    shards: list = [[] for _ in range(stream.shards)]
    for record in records:
        shards[planner.shard_of(record)].append(record)
    engine = engine_class(replace(params, verify=False))
    clusters = []
    for shard, shard_records in enumerate(shards):
        engine.vocabulary = Vocabulary()
        for window, start in enumerate(range(0, len(shard_records), bound)):
            published = engine.anonymize(
                TransactionDataset(shard_records[start : start + bound])
            )
            clusters.extend(
                relabel_cluster(cluster, f"S{shard}W{window}.")
                for cluster in published.clusters
            )
    engine.close()
    repaired, _ = verify_and_repair(
        DisassociatedDataset(clusters, k=params.k, m=params.m)
    )
    return DisassociatedDataset(
        [_strip(cluster) for cluster in repaired.clusters], k=params.k, m=params.m
    )
