"""repro -- reproduction of "Privacy Preservation by Disassociation" (VLDB 2012).

The package provides:

* the **disassociation** anonymization transformation for sparse set-valued
  data with a k^m-anonymity guarantee (:class:`Disassociator`),
* **reconstruction** of plausible original datasets
  (:class:`Reconstructor`),
* the paper's **baselines** (generalization-based Apriori anonymization,
  DiffPart differential privacy, global suppression) under
  :mod:`repro.baselines`,
* the **information-loss metrics** tKd, tKd-ML2, re and tlost under
  :mod:`repro.metrics`,
* **dataset generators** (IBM-Quest-style synthetic data and proxies for the
  POS / WV1 / WV2 datasets) under :mod:`repro.datasets`, and
* the **experiment harness** regenerating every figure of the paper under
  :mod:`repro.experiments` (driven by the ``benchmarks/`` suite).

Quickstart::

    from repro import AnonymizationService, ServiceConfig, TransactionDataset, reconstruct

    data = TransactionDataset([
        {"new york", "air tickets", "hotels"},
        {"new york", "air tickets", "museums"},
        ...
    ])
    with AnonymizationService(ServiceConfig(k=3, m=2)) as service:
        published = service.run(data).publication
    sample_world = reconstruct(published, seed=0)

The long-lived :class:`AnonymizationService` (:mod:`repro.service`) is
the recommended entry point; a one-off call can use
``Disassociator(AnonymizationParams(...)).anonymize(dataset)`` directly.
"""

from repro.core import (
    AnonymizationParams,
    AnonymizationReport,
    AuditReport,
    DisassociatedDataset,
    Disassociator,
    EncodedCluster,
    EncodedDataset,
    JointCluster,
    Pipeline,
    PipelineContext,
    RecordChunk,
    Reconstructor,
    SharedChunk,
    SimpleCluster,
    TermChunk,
    TransactionDataset,
    Vocabulary,
    audit,
    reconstruct,
    verify_km_anonymity,
)
from repro.stream import ShardedPipeline, StreamParams
from repro.service import (
    AnonymizationRequest,
    AnonymizationService,
    Job,
    PublicationResult,
    ServiceConfig,
    anonymization_service,
)
from repro.exceptions import (
    AnonymityViolationError,
    DatasetError,
    DatasetFormatError,
    EngineClosedError,
    HierarchyError,
    MiningError,
    ParameterError,
    ReconstructionError,
    ReproError,
    RefinementError,
    ServiceClosedError,
    ServiceError,
    ServiceSaturatedError,
)

__version__ = "1.1.0"

__all__ = [
    "AnonymizationParams",
    "AnonymizationReport",
    "AnonymizationRequest",
    "AnonymizationService",
    "AnonymityViolationError",
    "AuditReport",
    "DatasetError",
    "DatasetFormatError",
    "DisassociatedDataset",
    "Disassociator",
    "EncodedCluster",
    "EncodedDataset",
    "EngineClosedError",
    "HierarchyError",
    "Job",
    "JointCluster",
    "MiningError",
    "ParameterError",
    "Pipeline",
    "PipelineContext",
    "PublicationResult",
    "Vocabulary",
    "ReconstructionError",
    "RecordChunk",
    "Reconstructor",
    "RefinementError",
    "ReproError",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceError",
    "ServiceSaturatedError",
    "SharedChunk",
    "ShardedPipeline",
    "SimpleCluster",
    "StreamParams",
    "TermChunk",
    "TransactionDataset",
    "anonymization_service",
    "audit",
    "reconstruct",
    "verify_km_anonymity",
    "__version__",
]
