"""Cooperative request deadlines, propagated through a context variable.

A :class:`Deadline` is a wall-clock budget anchored at creation time.  The
service layer opens a :func:`scope` around each request's execution and the
pipeline layers call :func:`check` at phase boundaries (between HORPART /
VERPART / REFINE / VERIFY in the engine, between the window / merge /
repair steps of a sharded run, and every ``max_records_in_memory``
records of a streamed store insert).  A request that blows
its budget therefore aborts at the *next* boundary with
:class:`~repro.exceptions.DeadlineExceededError` rather than being killed
mid-phase -- committed store state stays consistent and the engine pool
stays healthy.

The context variable makes the deadline flow through nested calls (service
-> engine -> streaming executor) without threading a parameter through
every signature, and keeps concurrent requests on different worker threads
isolated from each other.  When no scope is open, :func:`check` is a
single context-variable read and a ``None`` test.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

from repro.exceptions import DeadlineExceededError


class Deadline:
    """A wall-clock budget of ``seconds``, anchored when constructed.

    ``anchor`` (a ``time.monotonic`` instant) can be supplied to start the
    clock earlier than construction -- the service anchors a request's
    deadline at *enqueue* time so queue wait counts against the budget.
    """

    __slots__ = ("budget", "expires_at")

    def __init__(self, seconds: float, *, anchor: Optional[float] = None):
        if seconds <= 0:
            raise ValueError(f"deadline must be positive, got {seconds}")
        self.budget = float(seconds)
        start = time.monotonic() if anchor is None else anchor
        self.expires_at = start + self.budget

    def remaining(self) -> float:
        """Seconds left before expiry (negative once expired)."""
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        """Whether the budget is already spent."""
        return self.remaining() <= 0.0

    def check(self, where: str = "") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        overrun = -self.remaining()
        if overrun >= 0.0:
            suffix = f" at {where!r}" if where else ""
            raise DeadlineExceededError(
                f"deadline of {self.budget:g}s exceeded by {overrun:.3f}s{suffix}",
                where=where,
                budget=self.budget,
            )

    def __repr__(self) -> str:
        return f"Deadline(budget={self.budget:g}, remaining={self.remaining():.3f})"


_current: ContextVar[Optional[Deadline]] = ContextVar("repro_deadline", default=None)


def current() -> Optional[Deadline]:
    """The deadline governing the calling context, or ``None``."""
    return _current.get()


@contextmanager
def scope(deadline: Optional[Deadline]) -> Iterator[Optional[Deadline]]:
    """Install ``deadline`` for the ``with`` block (``None`` is a no-op)."""
    if deadline is None:
        yield None
        return
    token = _current.set(deadline)
    try:
        yield deadline
    finally:
        _current.reset(token)


def check(where: str = "") -> None:
    """Phase-boundary check: raise if the context's deadline has expired."""
    deadline = _current.get()
    if deadline is not None:
        deadline.check(where)
