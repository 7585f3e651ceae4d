"""Deterministic fault injection for crash/recovery testing.

Production code is threaded with named **injection points** -- cheap
``faults.check("stream.merge")`` calls at the places a real deployment can
die: between engine phases, around the streaming window / merge /
repair steps, in the shard and publication stores, and in the service layer's
request execution.  With no plan armed a check is a single attribute read;
tests and CI arm a :class:`FaultPlan` to make a *specific* arrival of a
*specific* point raise :class:`~repro.exceptions.FaultInjected`, so
"crash exactly during the third window of shard 1" is a deterministic,
repeatable scenario instead of a race.

Triggers:

* **Nth hit** -- ``FaultSpec(point, hit=3)`` fires on the third arrival at
  the point (1-based) and never again;
* **seeded random** -- ``FaultSpec(point, probability=0.2)`` fires with
  probability 0.2 per arrival, from a :class:`random.Random` seeded by the
  plan seed and the point name (CRC32, not ``hash()`` -- stable across
  processes and ``PYTHONHASHSEED``);
* **environment** -- ``REPRO_FAULTS="stream.merge:1,engine.refine:2"``
  arms a plan at import time (``point:N`` for Nth-hit,
  ``point@0.5`` for probability; ``REPRO_FAULTS_SEED`` seeds the random
  triggers), which is how the CI fault matrix drives the resilience suite
  without code changes.

Known injection points (kept in :data:`INJECTION_POINTS` so tests can
enumerate "crash at every point"):

========================  ====================================================
``engine.horizontal``     before HORPART (per engine run)
``engine.vertical``       before VERPART
``engine.refine``         before REFINE
``engine.verify``         before the publication re-audit
``stream.window``         before each window's engine run
``stream.merge``          before the merge phase
``stream.verify``         before the global boundary repair
``service.execute``       at the start of each request execution attempt
``store.open``            before a persistent shard store is opened/created
``store.validate``        before the store's fingerprint/plan validation
``store.mutate``          before a delta's records mutation is committed
                          (a cold run's streamed insert is one such mutation)
``store.compact``         before the store is compacted (``VACUUM``)
``pubstore.open``         before a publication store is opened/created
``pubstore.build``        at an index (re)build's start and again before its
                          commit (a mid-build crash must roll back cleanly)
``pubstore.query``        before each publication-store query op
========================  ====================================================

Typical test usage::

    from repro import faults

    plan = faults.FaultPlan.from_text("stream.window:2")
    with faults.active(plan):
        with pytest.raises(FaultInjected):
            pipeline.run(append=records, delta_id="load")  # dies in window 2
    recovered = pipeline.run(append=records, delta_id="load")
"""

from __future__ import annotations

import os
import random
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from repro.exceptions import FaultInjected, ParameterError

#: Environment variable arming a fault plan at import time.
ENV_VAR = "REPRO_FAULTS"

#: Environment variable seeding the plan's probabilistic triggers.
ENV_SEED_VAR = "REPRO_FAULTS_SEED"

#: Every injection point threaded through the library (see module doc).
INJECTION_POINTS = (
    "engine.horizontal",
    "engine.vertical",
    "engine.refine",
    "engine.verify",
    "stream.window",
    "stream.merge",
    "stream.verify",
    "service.execute",
    "store.open",
    "store.validate",
    "store.mutate",
    "store.compact",
    "pubstore.open",
    "pubstore.build",
    "pubstore.query",
)


@dataclass(frozen=True)
class FaultSpec:
    """One trigger: fire at a named injection point on a condition.

    ``point`` must be one of :data:`INJECTION_POINTS`: a misspelled point
    would arm a trigger that never fires.  Exactly one of ``hit`` (fire
    on the Nth arrival, 1-based) and
    ``probability`` (fire per arrival with this probability, from the
    plan's seeded generator) must be set.  ``transient`` is carried onto
    the raised :class:`~repro.exceptions.FaultInjected` and decides whether
    the service retry policy treats the fault as retryable.
    """

    point: str
    hit: Optional[int] = None
    probability: Optional[float] = None
    transient: bool = True

    def __post_init__(self):
        if self.point not in INJECTION_POINTS:
            raise ParameterError(
                f"unknown fault injection point {self.point!r}; known points: "
                + ", ".join(INJECTION_POINTS)
            )
        if (self.hit is None) == (self.probability is None):
            raise ParameterError(
                "FaultSpec needs exactly one trigger: hit=N or probability=p "
                f"(got hit={self.hit!r}, probability={self.probability!r})"
            )
        if self.hit is not None and self.hit < 1:
            raise ParameterError(f"hit must be >= 1 (1-based), got {self.hit}")
        if self.probability is not None and not 0.0 < self.probability <= 1.0:
            raise ParameterError(
                f"probability must be in (0, 1], got {self.probability}"
            )


class FaultPlan:
    """A set of armed :class:`FaultSpec` triggers with per-point hit counters.

    Thread-safe: the service layer calls :meth:`check` from worker threads.
    Counters survive a fired trigger, so ``hits()`` tells a test exactly
    how far a run progressed before (and after) the injected crash.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0):
        self.seed = int(seed)
        self._specs: dict[str, list[FaultSpec]] = {}
        for spec in specs:
            self._specs.setdefault(spec.point, []).append(spec)
        self._hits: dict[str, int] = {}
        self._lock = threading.Lock()
        # One generator per probabilistic point, seeded by (plan seed,
        # CRC32 of the point name): deterministic across processes, unlike
        # str.__hash__ under randomized hashing.
        self._rngs = {
            point: random.Random(self.seed ^ zlib.crc32(point.encode("utf-8")))
            for point, point_specs in self._specs.items()
            if any(spec.probability is not None for spec in point_specs)
        }

    @classmethod
    def from_text(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse ``"point:N,point@p"`` (the ``$REPRO_FAULTS`` syntax)."""
        specs = []
        for raw in text.split(","):
            token = raw.strip()
            if not token:
                continue
            try:
                if "@" in token:
                    point, _, value = token.partition("@")
                    specs.append(FaultSpec(point.strip(), probability=float(value)))
                elif ":" in token:
                    point, _, value = token.partition(":")
                    specs.append(FaultSpec(point.strip(), hit=int(value)))
                else:
                    specs.append(FaultSpec(token, hit=1))
            except ValueError:
                raise ParameterError(
                    f"malformed fault trigger {token!r}: expected 'point:N' "
                    "(Nth hit) or 'point@p' (probability)"
                ) from None
        return cls(specs, seed=seed)

    def points(self) -> list[str]:
        """The injection points this plan has triggers for (sorted)."""
        return sorted(self._specs)

    def hits(self, point: str) -> int:
        """How many times ``point`` has been reached under this plan."""
        with self._lock:
            return self._hits.get(point, 0)

    def reset(self) -> None:
        """Zero every hit counter (triggers re-arm from the first arrival)."""
        with self._lock:
            self._hits.clear()

    def describe(self) -> dict:
        """JSON-safe summary of the armed triggers and observed hits."""
        with self._lock:
            return {
                "seed": self.seed,
                "triggers": {
                    point: [
                        {
                            "hit": spec.hit,
                            "probability": spec.probability,
                            "transient": spec.transient,
                        }
                        for spec in specs
                    ]
                    for point, specs in sorted(self._specs.items())
                },
                "hits": dict(sorted(self._hits.items())),
            }

    def check(self, point: str) -> None:
        """Count one arrival at ``point``; raise if a trigger fires."""
        specs = self._specs.get(point)
        if specs is None:
            return
        with self._lock:
            count = self._hits.get(point, 0) + 1
            self._hits[point] = count
            for spec in specs:
                if spec.hit is not None:
                    if spec.hit == count:
                        raise FaultInjected(point, count, transient=spec.transient)
                elif self._rngs[point].random() < spec.probability:
                    raise FaultInjected(point, count, transient=spec.transient)


def plan_from_env(environ: Optional[Mapping[str, str]] = None) -> Optional[FaultPlan]:
    """The plan armed by ``$REPRO_FAULTS``, or ``None`` when unset/empty."""
    if environ is None:
        environ = os.environ
    text = environ.get(ENV_VAR, "").strip()
    if not text:
        return None
    seed = int(environ.get(ENV_SEED_VAR, "0") or "0")
    return FaultPlan.from_text(text, seed=seed)


#: The armed plan; ``None`` keeps every check a no-op.  Seeded from the
#: environment at import so CI can drive the harness without code changes.
_active: Optional[FaultPlan] = plan_from_env()


def install(plan: Optional[FaultPlan]) -> None:
    """Arm ``plan`` process-wide (``None`` disarms)."""
    global _active
    _active = plan


def clear() -> None:
    """Disarm any active plan."""
    install(None)


def active_plan() -> Optional[FaultPlan]:
    """The currently armed plan, or ``None``."""
    return _active


@contextmanager
def active(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for the duration of the ``with`` block."""
    previous = _active
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


def check(point: str) -> None:
    """Injection point: no-op unless an armed plan has a trigger for it."""
    plan = _active
    if plan is not None:
        plan.check(point)
