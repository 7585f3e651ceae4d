"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError`, so callers can
catch a single base class.  Each subclass documents the situation it signals
and carries enough context (in its message and, where useful, attributes) to
diagnose the problem without reading library internals.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class DatasetError(ReproError):
    """Raised when a transactional dataset is malformed or cannot be built.

    Typical causes: empty records where they are not allowed, records that
    are not iterables of hashable terms, or a parse failure while reading a
    transaction file.
    """


class DatasetFormatError(DatasetError):
    """Raised when a serialized dataset (file or JSON blob) cannot be parsed."""


class ParameterError(ReproError):
    """Raised when anonymization parameters are invalid.

    Examples: ``k < 1``, ``m < 1``, a ``max_cluster_size`` smaller than
    ``k``, or a negative privacy budget for DiffPart.
    """


class AnonymityViolationError(ReproError):
    """Raised when a published dataset fails its anonymity guarantee.

    Carries the offending itemset and its support so that tests and callers
    can report precisely which combination breaks k^m-anonymity.
    """

    def __init__(self, message: str, itemset=None, support=None):
        super().__init__(message)
        self.itemset = tuple(sorted(itemset)) if itemset is not None else None
        self.support = support


class RefinementError(ReproError):
    """Raised when the refining step produces an inconsistent joint cluster."""


class ReconstructionError(ReproError):
    """Raised when a disassociated dataset cannot be reconstructed.

    This indicates corrupted published data (e.g. a record chunk with more
    sub-records than the declared cluster size).
    """


class HierarchyError(ReproError):
    """Raised for malformed generalization hierarchies (cycles, orphans,
    terms missing from the hierarchy domain)."""


class MiningError(ReproError):
    """Raised when frequent-itemset mining receives invalid input
    (e.g. a non-positive ``top_k`` or a negative minimum support)."""


class CheckpointError(ReproError):
    """Raised when durable run state cannot be used.

    The base of :class:`StoreError`, and raised directly for a malformed
    private cluster payload (:mod:`repro.core.codec`).  Callers guarding
    durable state with ``except CheckpointError`` catch both; the HTTP
    front door maps both to ``409`` (kind ``checkpoint_conflict``).
    """


class StoreError(CheckpointError):
    """Raised when a persistent shard store cannot be used.

    The incremental substrate (:mod:`repro.stream.store`) refuses to touch
    a store that would corrupt the publication: an unreadable or
    wrong-version database, a store created under different
    output-affecting parameters, a delta that deletes a record the store
    does not hold, or a delta that would change the shard plan fingerprint
    (re-anonymizing only dirty shards under a different routing would
    silently diverge from a cold run).  Subclasses
    :class:`CheckpointError`, the base of every durable-state error.
    """


class DeadlineExceededError(ReproError):
    """Raised when a request exceeds its execution deadline.

    Checked between pipeline phases (and at job dequeue in the service
    layer), so a deadline aborts a run at the next phase boundary instead
    of mid-phase.  ``where`` names the checkpoint that observed the expiry
    (e.g. ``"engine.refine"``); ``budget`` is the deadline in seconds.
    """

    def __init__(self, message: str, *, where: str = "", budget: float = 0.0):
        super().__init__(message)
        self.where = where
        self.budget = budget


class FaultInjected(ReproError):
    """Raised by an armed :class:`repro.faults.FaultPlan` at an injection point.

    Only the deterministic fault-injection harness (:mod:`repro.faults`)
    raises this; production code never does.  ``point`` names the injection
    point that fired and ``hit`` the 1-based arrival count that triggered
    it.  ``transient`` marks the fault as retryable by the service layer's
    retry policy, which is what the resilience test suite relies on.
    """

    def __init__(self, point: str, hit: int, *, transient: bool = True):
        super().__init__(f"injected fault at {point!r} (hit {hit})")
        self.point = point
        self.hit = hit
        self.transient = transient


class EngineClosedError(ReproError):
    """Raised when a closed :class:`~repro.core.engine.Disassociator` is used.

    Signals a lifecycle bug in the caller: either ``close()`` was called
    twice, or ``anonymize()`` was invoked after the engine was retired.
    """


class ServiceError(ReproError):
    """Base class for errors raised by the :mod:`repro.service` layer."""


class ServiceClosedError(ServiceError):
    """Raised when a request is issued to (or the lifecycle of) a closed
    :class:`~repro.service.AnonymizationService` is violated: ``run()`` /
    ``submit()`` after ``close()``, or a double ``close()``."""


class ServiceSaturatedError(ServiceError):
    """Raised by non-blocking :meth:`~repro.service.AnonymizationService.submit`
    when the bounded job queue is full (the service is saturated)."""


class RetriesExhaustedError(ServiceError):
    """Raised when a request keeps failing transiently through every retry.

    The service retried the request per its
    :class:`~repro.service.RetryPolicy` (injected transient faults are
    retryable; parameter and dataset errors are not)
    and every attempt failed.  The last transient failure is chained as
    ``__cause__``; ``attempts`` records how many executions were tried.
    """

    def __init__(self, message: str, *, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts
