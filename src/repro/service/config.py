"""One validated configuration for every way of running the anonymizer.

Before the service layer existed the same knobs were spread over three
overlapping dataclasses -- :class:`~repro.core.engine.AnonymizationParams`
(the engine), :class:`~repro.stream.StreamParams` (the sharded streaming
executor) and the anonymization half of
:class:`~repro.experiments.harness.ExperimentConfig` (the experiment
drivers) -- and every entry point re-assembled its own combination.
:class:`ServiceConfig` is the superset: one frozen, validated dataclass
that projects onto the legacy parameter objects (:meth:`engine_params`,
:meth:`stream_params`) so the engine and executor underneath keep their
exact semantics, plus loaders for the two ways a long-lived service is
configured in practice -- a parsed config file (:meth:`from_dict`) and
process environment variables (:meth:`from_env`).

Validation is delegated to the legacy parameter classes: constructing a
``ServiceConfig`` builds (and discards) an ``AnonymizationParams`` and a
``StreamParams``, so every invariant those classes enforce (``k >= 1``,
``max_cluster_size > k``, a known shard strategy, ...) holds here too and raises
the same :class:`~repro.exceptions.ParameterError`.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable
from dataclasses import dataclass, field, fields, replace
from numbers import Integral, Real
from typing import Mapping, Optional

from repro.core.engine import AnonymizationParams, DEFAULT_MAX_CLUSTER_SIZE
from repro.exceptions import ParameterError
from repro.stream.executor import (
    DEFAULT_MAX_RECORDS_IN_MEMORY,
    DEFAULT_SHARDS,
    StreamParams,
)

#: Environment prefix recognized by :meth:`ServiceConfig.from_env`.
ENV_PREFIX = "REPRO_SERVICE_"

#: ``from_env`` spellings accepted for boolean fields.
_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off"})


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for transient request failures.

    The service re-executes a request that failed *transiently* (an
    injected transient fault -- never parameter or dataset errors) up to
    ``attempts`` total executions, sleeping
    ``backoff * multiplier**(n-1)`` seconds (capped at ``max_backoff``)
    after the ``n``-th failure.  Retries never sleep past a request's
    deadline, and a request whose source cannot be safely re-read (a plain
    iterable, already partially consumed) is never retried.

    ``attempts=1`` disables retry entirely.
    """

    attempts: int = 2
    backoff: float = 0.05
    multiplier: float = 2.0
    max_backoff: float = 2.0

    def __post_init__(self):
        if not isinstance(self.attempts, int) or self.attempts < 1:
            raise ParameterError(
                f"retry attempts must be a positive integer, got {self.attempts!r}"
            )
        if self.backoff < 0:
            raise ParameterError(f"retry backoff must be >= 0, got {self.backoff}")
        if self.multiplier < 1.0:
            raise ParameterError(
                f"retry multiplier must be >= 1, got {self.multiplier}"
            )
        if self.max_backoff < 0:
            raise ParameterError(
                f"retry max_backoff must be >= 0, got {self.max_backoff}"
            )

    def delay(self, failed_attempts: int) -> float:
        """Seconds to sleep after the ``failed_attempts``-th failure (1-based)."""
        return min(
            self.backoff * self.multiplier ** (max(failed_attempts, 1) - 1),
            self.max_backoff,
        )

    def to_dict(self) -> dict:
        """JSON-safe dict form; round-trips through :meth:`from_dict`."""
        return {
            "attempts": self.attempts,
            "backoff": self.backoff,
            "multiplier": self.multiplier,
            "max_backoff": self.max_backoff,
        }

    def to_text(self) -> str:
        """The env-variable syntax; round-trips through :meth:`from_text`."""
        return (
            f"attempts={self.attempts},backoff={self.backoff},"
            f"multiplier={self.multiplier},max_backoff={self.max_backoff}"
        )

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RetryPolicy":
        """Build a policy from a mapping; unknown keys raise."""
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ParameterError(
                f"unknown RetryPolicy keys: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        return cls(**dict(payload))

    @classmethod
    def from_text(cls, text: str) -> "RetryPolicy":
        """Parse ``"attempts=3,backoff=0.1,..."`` (the env-variable syntax)."""
        values: dict = {}
        for raw in text.split(","):
            token = raw.strip()
            if not token:
                continue
            name, sep, value = token.partition("=")
            name = name.strip()
            if not sep:
                raise ParameterError(
                    f"malformed retry token {token!r}: expected name=value"
                )
            try:
                values[name] = int(value) if name == "attempts" else float(value)
            except ValueError:
                raise ParameterError(
                    f"malformed retry value in {token!r}"
                ) from None
        return cls.from_dict(values)


@dataclass(frozen=True)
class ServiceConfig:
    """Every knob of the anonymization service, validated once.

    Attributes:
        k, m: the anonymity parameters (paper defaults: ``k=5, m=2``).
        max_cluster_size: HORPART cluster-size bound.
        refine: whether to run the REFINE step.
        max_join_size: REFINE joint-cluster size cap (``None`` defaults to
            ``8 * max_cluster_size`` inside the engine).
        sensitive_terms: terms forced into term chunks (l-diversity).
        verify: independently re-audit each publication before returning.
        shards: shard count for requests routed to the streaming pipeline.
        max_records_in_memory: streaming bound on resident records.
        shard_strategy: streaming record routing (``hash`` / ``horpart``).
        spill_dir: where streamed runs create their throwaway shard store
            (``None``: the system temporary directory).
        store_dir: directory of the persistent incremental shard store
            (:mod:`repro.stream.store`).  Required by ``"delta"`` requests;
            like ``spill_dir``, the location is the store's identity, not a
            fingerprinted parameter.  ``None`` (default): delta requests
            are rejected.
        pubstore_dir: directory of the indexed publication store
            (:mod:`repro.pubstore`).  Required by
            :meth:`~repro.service.AnonymizationService.query` and the HTTP
            ``/query`` endpoints; delta requests additionally refresh the
            store's indexes on every publish (generation-stamped against
            the shard store).  ``None`` (default): query requests are
            rejected.
        auto_stream_threshold: record count above which an ``"auto"``
            request is routed to the streaming pipeline instead of the
            in-memory one; ``None`` uses ``max_records_in_memory``.
        default_deadline: execution budget in seconds applied to every
            request that does not set its own
            :attr:`~repro.service.request.AnonymizationRequest.deadline`.
            The clock starts when the request enters the service (queue
            wait counts), and expiry aborts at the next pipeline phase
            boundary with
            :class:`~repro.exceptions.DeadlineExceededError`.  ``None``
            (default): no deadline.
        retry: the :class:`RetryPolicy` for transient request failures
            (injected transient faults).
        max_pending: bound on the service's job queue (``submit`` blocks --
            or raises, when non-blocking -- once this many jobs wait).
        workers: service worker threads draining the job queue.  Each
            worker owns its own warm engine; all workers share the
            service-lifetime vocabulary behind an interning lock, so
            results stay bit-for-bit identical to a single-worker service.
            The pipeline is pure Python and its threads share one
            interpreter lock, so more workers overlap requests that wait
            on I/O (stores, files), not CPU-bound anonymization (see
            ``docs/OPERATIONS.md``).
    """

    k: int = 5
    m: int = 2
    max_cluster_size: int = DEFAULT_MAX_CLUSTER_SIZE
    refine: bool = True
    max_join_size: Optional[int] = None
    sensitive_terms: frozenset = field(default_factory=frozenset)
    verify: bool = True
    shards: int = DEFAULT_SHARDS
    max_records_in_memory: int = DEFAULT_MAX_RECORDS_IN_MEMORY
    shard_strategy: str = "hash"
    spill_dir: Optional[str] = None
    store_dir: Optional[str] = None
    pubstore_dir: Optional[str] = None
    auto_stream_threshold: Optional[int] = None
    default_deadline: Optional[float] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    max_pending: int = 32
    workers: int = 1

    def __post_init__(self):
        self.validate_values(
            {spec.name: getattr(self, spec.name) for spec in fields(self)}
        )
        object.__setattr__(
            self, "sensitive_terms", frozenset(str(t) for t in self.sensitive_terms)
        )
        if self.spill_dir is not None:
            object.__setattr__(self, "spill_dir", str(self.spill_dir))
        if self.store_dir is not None:
            object.__setattr__(self, "store_dir", str(self.store_dir))
        if self.pubstore_dir is not None:
            object.__setattr__(self, "pubstore_dir", str(self.pubstore_dir))
        # Accept the retry policy in any of its serialized shapes, so
        # from_dict/from_env round-trip without the caller pre-parsing.
        if isinstance(self.retry, str):
            object.__setattr__(self, "retry", RetryPolicy.from_text(self.retry))
        elif isinstance(self.retry, Mapping):
            object.__setattr__(self, "retry", RetryPolicy.from_dict(self.retry))
        elif not isinstance(self.retry, RetryPolicy):
            raise ParameterError(
                f"retry must be a RetryPolicy (or its dict/text form), "
                f"got {self.retry!r}"
            )
        # Delegate the cross-field invariants to the legacy parameter
        # classes: building them validates them.
        self.engine_params()
        self.stream_params()
        # Enforced by ShardedPipeline (not StreamParams), so repeat it here
        # to keep the config fail-fast: a window smaller than the HORPART
        # bound would silently tighten the clustering.
        if self.max_records_in_memory < self.max_cluster_size:
            raise ParameterError(
                "max_records_in_memory must be at least max_cluster_size "
                f"(got {self.max_records_in_memory} < {self.max_cluster_size})"
            )
        if self.auto_stream_threshold is not None and self.auto_stream_threshold < 1:
            raise ParameterError(
                f"auto_stream_threshold must be >= 1, got {self.auto_stream_threshold}"
            )
        if self.max_pending < 1:
            raise ParameterError(
                f"max_pending must be a positive integer, got {self.max_pending!r}"
            )
        if self.workers < 1:
            raise ParameterError(
                f"workers must be a positive integer, got {self.workers!r}"
            )

    # -- projections onto the legacy parameter objects ------------------- #
    def engine_params(self, **overrides) -> AnonymizationParams:
        """The :class:`AnonymizationParams` slice of this configuration."""
        values = dict(
            k=self.k,
            m=self.m,
            max_cluster_size=self.max_cluster_size,
            refine=self.refine,
            max_join_size=self.max_join_size,
            sensitive_terms=self.sensitive_terms,
            verify=self.verify,
        )
        values.update(overrides)
        return AnonymizationParams(**values)

    def stream_params(self, **overrides) -> StreamParams:
        """The :class:`StreamParams` slice of this configuration."""
        values = dict(
            shards=self.shards,
            max_records_in_memory=self.max_records_in_memory,
            strategy=self.shard_strategy,
            spill_dir=self.spill_dir,
            store_dir=self.store_dir,
            pubstore_dir=self.pubstore_dir,
        )
        values.update(overrides)
        return StreamParams(**values)

    @property
    def stream_threshold(self) -> int:
        """Record count beyond which ``"auto"`` requests stream."""
        if self.auto_stream_threshold is not None:
            return self.auto_stream_threshold
        return self.max_records_in_memory

    def with_overrides(self, **overrides) -> "ServiceConfig":
        """A copy of the configuration with some fields replaced."""
        return replace(self, **overrides)

    # -- serialization ---------------------------------------------------- #
    def to_dict(self) -> dict:
        """JSON-safe dict form; round-trips through :meth:`from_dict`."""
        payload = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, frozenset):
                value = sorted(value)
            elif isinstance(value, RetryPolicy):
                # The compact text form: JSON-safe, ``str()``-stable, and
                # accepted verbatim by from_dict/from_env/__post_init__.
                value = value.to_text()
            payload[spec.name] = value
        return payload

    @staticmethod
    def validate_values(values: Mapping) -> None:
        """Refuse a field value of the wrong type (shared by requests).

        Each value must have its field's type: a ``bool`` is not an
        integer, a string is not a number or a term collection.  A wrong
        type raises :class:`~repro.exceptions.ParameterError` naming the
        field, before any engine or store sees the value; ranges are
        checked when the configuration is built.
        """
        for name, value in values.items():
            if name in _INT_FIELDS or (
                name in _OPTIONAL_INT_FIELDS and value is not None
            ):
                if isinstance(value, bool) or not isinstance(value, Integral):
                    raise ParameterError(f"{name} must be an integer, got {value!r}")
            elif name in _BOOL_FIELDS:
                if not isinstance(value, bool):
                    raise ParameterError(f"{name} must be a boolean, got {value!r}")
            elif name in _OPTIONAL_FLOAT_FIELDS:
                if value is not None:
                    check_seconds(name, value)
            elif name == "shard_strategy":
                if not isinstance(value, str):
                    raise ParameterError(f"{name} must be a string, got {value!r}")
            elif name in _OPTIONAL_STR_FIELDS:
                if value is not None and not isinstance(value, (str, os.PathLike)):
                    raise ParameterError(f"{name} must be a path, got {value!r}")
            elif name == "sensitive_terms":
                if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
                    raise ParameterError(
                        f"sensitive_terms must be a collection of terms, got {value!r}"
                    )

    @classmethod
    def validate_keys(cls, keys, *, what: str = "keys") -> None:
        """Reject unknown field names (shared by ``from_dict`` and requests).

        A misspelled knob silently falling back to its default is the
        classic production config bug, so every entry point that accepts
        field names by string fails fast through this check.
        """
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(keys) - known)
        if unknown:
            raise ParameterError(
                f"unknown ServiceConfig {what}: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ServiceConfig":
        """Build a configuration from a mapping (e.g. a parsed config file).

        Unknown keys raise :class:`~repro.exceptions.ParameterError` --- a
        misspelled knob silently falling back to its default is the classic
        production config bug.
        """
        cls.validate_keys(payload)
        values = dict(payload)
        if "sensitive_terms" in values and values["sensitive_terms"] is not None:
            values["sensitive_terms"] = frozenset(
                str(t) for t in values["sensitive_terms"]
            )
        return cls(**values)

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None, prefix: str = ENV_PREFIX
    ) -> "ServiceConfig":
        """Build a configuration from ``REPRO_SERVICE_*`` environment variables.

        Every dataclass field maps to ``<prefix><FIELD_NAME>`` (upper case):
        ``REPRO_SERVICE_K=10``, ``REPRO_SERVICE_SHARD_STRATEGY=horpart``,
        ``REPRO_SERVICE_SENSITIVE_TERMS=aids,flu`` (comma separated), ...
        Booleans accept ``1/0``, ``true/false``, ``yes/no``, ``on/off``;
        optional fields accept the empty string or ``none`` for ``None``.
        Unset variables keep their defaults; a malformed value -- or a
        prefixed variable naming no known field (a misspelled knob
        silently keeping its default is the classic production config
        bug) -- raises :class:`~repro.exceptions.ParameterError` naming
        the variable.
        """
        if environ is None:
            environ = os.environ
        found = {
            key[len(prefix):].lower(): raw
            for key, raw in environ.items()
            if key.startswith(prefix)
        }
        cls.validate_keys(found, what=f"environment variables (via {prefix}*)")
        return cls(
            **{name: _parse_env_value(name, raw) for name, raw in found.items()}
        )


#: ``from_env`` parsers per field: how each raw string becomes a value.
_INT_FIELDS = frozenset(
    {
        "k",
        "m",
        "max_cluster_size",
        "shards",
        "max_records_in_memory",
        "max_pending",
        "workers",
    }
)
_OPTIONAL_INT_FIELDS = frozenset({"max_join_size", "auto_stream_threshold"})
_BOOL_FIELDS = frozenset({"refine", "verify"})
_OPTIONAL_FLOAT_FIELDS = frozenset({"default_deadline"})
_OPTIONAL_STR_FIELDS = frozenset({"spill_dir", "store_dir", "pubstore_dir"})


def check_seconds(name: str, value) -> None:
    """Refuse anything but a finite, positive number of seconds."""
    if (
        isinstance(value, bool)
        or not isinstance(value, Real)
        or not math.isfinite(value)
        or value <= 0
    ):
        raise ParameterError(
            f"{name} must be a finite positive number of seconds, got {value!r}"
        )


def _parse_env_value(name: str, raw: str):
    """Parse one ``REPRO_SERVICE_*`` value into its field's type."""
    text = raw.strip()
    if name in _BOOL_FIELDS:
        lowered = text.lower()
        if lowered in _TRUE:
            return True
        if lowered in _FALSE:
            return False
        raise ParameterError(
            f"{ENV_PREFIX}{name.upper()}: expected a boolean "
            f"(1/0, true/false, yes/no, on/off), got {raw!r}"
        )
    if name in _OPTIONAL_FLOAT_FIELDS:
        if text.lower() in ("", "none"):
            return None
        try:
            return float(text)
        except ValueError:
            raise ParameterError(
                f"{ENV_PREFIX}{name.upper()}: expected a number of seconds, "
                f"got {raw!r}"
            ) from None
    if name == "retry":
        # "attempts=3,backoff=0.1" -- RetryPolicy's text form.
        return RetryPolicy.from_text(text)
    if name in _INT_FIELDS or name in _OPTIONAL_INT_FIELDS:
        if name in _OPTIONAL_INT_FIELDS and text.lower() in ("", "none"):
            return None
        try:
            return int(text)
        except ValueError:
            raise ParameterError(
                f"{ENV_PREFIX}{name.upper()}: expected an integer, got {raw!r}"
            ) from None
    if name == "sensitive_terms":
        return frozenset(t.strip() for t in text.split(",") if t.strip())
    if name in _OPTIONAL_STR_FIELDS and text.lower() in ("", "none"):
        return None
    return text
