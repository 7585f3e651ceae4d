"""The string reference engine: the oracle the production engine is held to.

The library runs one execution core (interned terms, int bitmasks, the
incremental REFINE driver).  The original string transcription of the
paper's algorithm is kept as its end-to-end oracle:
:func:`~repro.core.horizontal.horizontal_partition`,
:func:`~repro.core.vertical.vertical_partition` (over the record-scanning
:class:`~repro.core.anonymity.IncrementalChunkChecker`) and the reference
REFINE driver with record-scanning shared-chunk selection
(:func:`~repro.core.refine._refine_reference` with ``use_bitsets=False``).

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
"""

from __future__ import annotations

from repro.core.clusters import Cluster
from repro.core.dataset import TransactionDataset
from repro.core.engine import (
    Disassociator,
    HorizontalPhase,
    Pipeline,
    PipelineContext,
    RefinePhase,
    VerifyPhase,
    VerticalPhase,
)
from repro.core.horizontal import horizontal_partition
from repro.core.refine import _refine_reference
from repro.core.vertical import VerticalPartitionResult, vertical_partition


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
            use_bitsets=False,
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
