"""Core disassociation machinery: the paper's primary contribution.

Sub-modules:

* :mod:`repro.core.dataset` -- transactional dataset substrate.
* :mod:`repro.core.anonymity` -- k^m-anonymity checks.
* :mod:`repro.core.clusters` -- published-data model (chunks, clusters).
* :mod:`repro.core.horizontal` -- Algorithm HORPART.
* :mod:`repro.core.vertical` -- Algorithm VERPART + Lemma-2 enforcement.
* :mod:`repro.core.refine` -- Algorithm REFINE (joint clusters, Equation 1).
* :mod:`repro.core.verification` -- independent audit of published data.
* :mod:`repro.core.reconstruct` -- reconstruction of possible originals.
* :mod:`repro.core.engine` -- the end-to-end :class:`Disassociator`.
"""

from repro.core.anonymity import (
    combination_supports,
    find_all_km_violations,
    find_km_violation,
    is_k_anonymous,
    is_km_anonymous,
)
from repro.core.clusters import (
    DisassociatedDataset,
    JointCluster,
    RecordChunk,
    SharedChunk,
    SimpleCluster,
    TermChunk,
)
from repro.core.dataset import DatasetStats, TransactionDataset, jaccard_similarity
from repro.core.engine import (
    AnonymizationParams,
    AnonymizationReport,
    Disassociator,
    HorizontalPhase,
    Pipeline,
    PipelineContext,
    RefinePhase,
    VerifyPhase,
    VerticalPhase,
)
from repro.core.horizontal import horizontal_partition_indices
from repro.core.reconstruct import Reconstructor, reconstruct
from repro.core.refine import refine
from repro.core.verification import AuditReport, audit, verify_km_anonymity
from repro.core.vertical import satisfies_lemma2, vertical_partition_fast
from repro.core.vocab import EncodedCluster, EncodedDataset, Vocabulary

__all__ = [
    "AnonymizationParams",
    "AnonymizationReport",
    "AuditReport",
    "DatasetStats",
    "DisassociatedDataset",
    "Disassociator",
    "JointCluster",
    "RecordChunk",
    "Reconstructor",
    "SharedChunk",
    "SimpleCluster",
    "TermChunk",
    "TransactionDataset",
    "EncodedCluster",
    "EncodedDataset",
    "HorizontalPhase",
    "Pipeline",
    "PipelineContext",
    "RefinePhase",
    "VerifyPhase",
    "VerticalPhase",
    "Vocabulary",
    "audit",
    "combination_supports",
    "find_all_km_violations",
    "find_km_violation",
    "horizontal_partition_indices",
    "is_k_anonymous",
    "is_km_anonymous",
    "jaccard_similarity",
    "reconstruct",
    "Reconstructor",
    "refine",
    "satisfies_lemma2",
    "verify_km_anonymity",
    "vertical_partition_fast",
]
