"""The service's uniform request and result model.

One :class:`AnonymizationRequest` covers every input shape the library
accepts -- an in-memory :class:`~repro.core.dataset.TransactionDataset`,
any (possibly unbounded) iterable of records, or a dataset file path --
and every execution mode: ``"batch"`` (the in-memory
:class:`~repro.core.engine.Pipeline`), ``"stream"`` (the bounded-memory
:class:`~repro.stream.ShardedPipeline`) or ``"auto"`` (route on input type
and the configured memory threshold; see
:meth:`~repro.service.AnonymizationService.run`).

Every execution returns a :class:`PublicationResult`: the publication plus
the run's report, with the expensive derived artifacts (dict/JSON
serialization, information-loss metrics) computed lazily and cached.  A
delta run's result already carries the publication's JSON text, which
the HTTP front door sends as is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.core.clusters import DisassociatedDataset, paused_gc
from repro.core.dataset import TransactionDataset
from repro.exceptions import ParameterError
from repro.service.config import ServiceConfig, check_seconds

PathLike = Union[str, Path]

#: Execution modes a request may ask for.
MODES = ("auto", "batch", "stream", "delta")


@dataclass(frozen=True)
class AnonymizationRequest:
    """One unit of work for the :class:`~repro.service.AnonymizationService`.

    Attributes:
        source: the input -- a :class:`TransactionDataset`, a dataset file
            path (``str`` / :class:`~pathlib.Path`; format sniffed from the
            extension unless ``format`` says otherwise), or any iterable of
            records.
        mode: ``"auto"`` (default) routes on input type and the service's
            memory threshold; ``"batch"`` forces the in-memory pipeline
            (materializing the input if needed); ``"stream"`` forces the
            sharded streaming pipeline; ``"delta"`` applies the request as
            an incremental mutation of the configured persistent store
            (``source`` holds the records to append, ``delete`` the
            records to remove; requires the service's ``store_dir``).
        format: file-format hint for path sources (``"auto"`` sniffs from
            the extension; see :mod:`repro.datasets.io`).
        delimiter: term delimiter for transaction-file sources.
        overrides: per-request :class:`ServiceConfig` field overrides
            (e.g. ``{"k": 10}``); validated against the service's config
            when the request executes.
        tag: optional caller-chosen label, echoed on the result (useful for
            correlating submitted jobs with their callers).
        deadline: execution budget in seconds for this request, overriding
            the service's ``default_deadline``.  The clock starts when the
            request enters the service (queue wait counts) and expiry
            aborts at the next pipeline phase boundary with
            :class:`~repro.exceptions.DeadlineExceededError`.
        delete: records to remove from the persistent store (the earliest
            surviving occurrence of each), applied together with the
            appends in ``source`` as one atomic delta.  Only meaningful
            with ``mode="delta"``: a source of records/dataset/path, or
            ``None`` when the delta only deletes.
        delta_id: optional client-supplied idempotency token for
            ``mode="delta"``: the store commits a mutation at most once
            per token, so re-submitting the same delta with the same
            token after a crash (or timeout of unknown outcome) cannot
            double-apply it.  Omitted, the service generates one per
            request -- its own transparent retries stay idempotent, but
            a *re-submitted* request counts as a new delta.  Must be
            unique per logical delta.
    """

    source: Union[TransactionDataset, PathLike, Any] = None
    mode: str = "auto"
    format: str = "auto"
    delimiter: Optional[str] = None
    overrides: Mapping = field(default_factory=dict)
    tag: Optional[str] = None
    deadline: Optional[float] = None
    delete: Union[TransactionDataset, PathLike, Any] = None
    delta_id: Optional[str] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.deadline is not None:
            check_seconds("deadline", self.deadline)
        if self.delete is not None and self.mode != "delta":
            raise ParameterError(
                'delete requires mode="delta": only incremental runs over a '
                "persistent store can remove records"
            )
        if self.delta_id is not None:
            if self.mode != "delta":
                raise ParameterError(
                    'delta_id requires mode="delta": it is the idempotency '
                    "token of one incremental mutation"
                )
            if not isinstance(self.delta_id, str) or not self.delta_id:
                raise ParameterError(
                    f"delta_id must be a non-empty string, got {self.delta_id!r}"
                )
        if self.source is None and self.mode != "delta":
            raise ParameterError(
                "source is required (only a delta request may omit it, "
                "meaning an empty append)"
            )
        if not isinstance(self.overrides, Mapping):
            raise ParameterError(
                f"overrides must be a mapping of ServiceConfig fields, "
                f"got {self.overrides!r}"
            )
        overrides = dict(self.overrides)
        # Fail fast on misspelled knobs and mistyped values (ranges and
        # cross-field invariants are validated when the merged
        # ServiceConfig is built at execution).
        ServiceConfig.validate_keys(overrides, what="override keys")
        ServiceConfig.validate_values(overrides)
        object.__setattr__(self, "overrides", overrides)

    @property
    def is_path(self) -> bool:
        """Whether the source is a dataset file path."""
        return isinstance(self.source, (str, Path))

    @property
    def is_dataset(self) -> bool:
        """Whether the source is an in-memory :class:`TransactionDataset`."""
        return isinstance(self.source, TransactionDataset)


class PublicationResult:
    """A publication plus its run report, with lazy derived artifacts.

    Attributes:
        publication: the published :class:`DisassociatedDataset`.
        report: the run's report --
            :class:`~repro.core.engine.AnonymizationReport` for batch runs,
            :class:`~repro.stream.IncrementalReport` for streamed and
            delta ones.
        mode: the mode the request was actually routed to (``"batch"``,
            ``"stream"`` or ``"delta"`` -- never ``"auto"``).
        config: the (override-merged) :class:`ServiceConfig` of the run.
        original: the original dataset, when the run materialized it in
            memory (batch runs); ``None`` for streamed inputs.  Used as the
            default reference of :meth:`metrics`.
        tag: the request's tag, echoed back.
    """

    def __init__(
        self,
        publication: DisassociatedDataset,
        report,
        mode: str,
        config: ServiceConfig,
        original: Optional[TransactionDataset] = None,
        tag: Optional[str] = None,
        text: Optional[str] = None,
    ):
        self.publication = publication
        self.report = report
        self.mode = mode
        self.config = config
        self.original = original
        self.tag = tag
        self._text: Optional[str] = text
        self._dict_cache: Optional[dict] = None
        self._metrics_cache: dict = {}

    def __repr__(self) -> str:
        return (
            f"PublicationResult(mode={self.mode!r}, "
            f"clusters={len(self.publication)}, tag={self.tag!r})"
        )

    def to_dict(self) -> dict:
        """The publication's serialized form (computed once, then cached).

        Parsed from the run's publication text when it has one (delta
        runs), else built from the publication.
        """
        if self._dict_cache is None:
            if self._text is None:
                self._dict_cache = self.publication.to_dict()
            else:
                with paused_gc():
                    self._dict_cache = json.loads(self._text)
        return self._dict_cache

    def to_json(self) -> str:
        """The publication as compact JSON text (computed once, then cached).

        A delta run's text is spliced from its windows' stored products, so
        no cluster object is built or serialized for it; other runs
        encode :meth:`to_dict`.  Either way ``json.loads`` of it equals
        :meth:`to_dict`.
        """
        if self._text is None:
            self._text = json.dumps(self.to_dict(), separators=(",", ":"))
        return self._text

    def save(self, path: PathLike) -> Path:
        """Write the publication as JSON; returns the written path."""
        from repro.datasets.io import write_disassociated_json

        path = Path(path)
        write_disassociated_json(self.publication, path)
        return path

    def save_store(self, path: PathLike):
        """Persist the publication as an indexed, queryable store.

        Builds (or atomically replaces) a
        :class:`~repro.pubstore.PublicationStore` under ``path`` and
        returns it **open**, so the caller can query immediately or
        ``close()`` it for later ``repro query`` / HTTP ``/query`` use.
        The serialized form cached by :meth:`to_dict` is reused, so
        saving both JSON and a store serializes the publication once.
        """
        from repro.pubstore import PublicationStore
        from repro.pubstore.schema import cluster_digests

        digests, _ = cluster_digests(self.to_dict())
        return PublicationStore.from_publication(self.publication, path, digests=digests)

    def metrics(
        self,
        original: Optional[TransactionDataset] = None,
        *,
        top_k: int = 100,
        max_itemset_size: int = 3,
        re_range: tuple = (60, 80),
        seed: int = 0,
        reconstructions: int = 1,
    ) -> dict:
        """The paper's information-loss metrics for this publication.

        ``original`` defaults to the dataset the request materialized
        (batch runs over in-memory inputs); streamed runs must pass it
        explicitly.  Results are cached per argument combination -- the
        metrics involve reconstruction and itemset mining, which dwarf the
        anonymization itself at small scales.
        """
        if original is None:
            original = self.original
        if original is None:
            raise ParameterError(
                "metrics() needs the original dataset; this result was produced "
                "from a streamed source, so pass metrics(original=...)"
            )
        # The cached entry keeps a strong reference to its original dataset
        # and is matched by identity: an id() alone could be reused by a
        # different dataset once the first one is garbage-collected.
        key = (top_k, max_itemset_size, re_range, seed, reconstructions)
        cached = self._metrics_cache.get(key)
        if cached is not None and cached[0] is original:
            return cached[1]
        # Imported lazily: the experiment harness sits above the service
        # layer in the dependency order.
        from repro.experiments.harness import ExperimentConfig, evaluate

        eval_config = ExperimentConfig(
            k=self.config.k,
            m=self.config.m,
            top_k=top_k,
            max_itemset_size=max_itemset_size,
            re_range=re_range,
            seed=seed,
        )
        metrics = evaluate(
            original, self.publication, eval_config, reconstructions=reconstructions
        )
        self._metrics_cache[key] = (original, metrics)
        return metrics

    def summary(self) -> str:
        """One-line human readable summary of the run (mode-appropriate)."""
        if hasattr(self.report, "summary"):
            return self.report.summary()
        report = self.report
        return (
            f"anonymized {report.num_records} records into "
            f"{report.num_clusters} clusters "
            f"({report.num_record_chunks} record chunks, "
            f"{report.num_shared_chunks} shared chunks) "
            f"in {report.total_seconds:.2f}s"
        )
