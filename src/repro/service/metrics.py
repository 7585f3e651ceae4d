"""Request-level observability for the anonymization service.

The service records, for every request it executes (synchronous ``run()``
calls and queued ``submit()`` jobs alike):

* end-to-end **request latency** and, for queued jobs, the **queue wait**
  (enqueue -> execution start), both into fixed-bucket
  :class:`LatencyHistogram`\\ s with exact tail percentiles over a bounded
  window of recent observations;
* **per-phase wall time** (horizontal / vertical / refine / verify for
  batch runs, plan / shard / anonymize / merge / verify for streamed
  ones), accumulated from each run's report;
* **worker utilization**: per-worker busy seconds against the service's
  own lifetime, plus in-flight and saturation counters;
* **failure accounting**: transient retries, deadline expiries and
  exhausted retry budgets (the ``failures`` section of the snapshot), so
  an operator can tell a saturated service from a failing one at a
  glance.

Everything is aggregated in one :class:`ServiceMetrics` object behind a
single lock -- observation is a few dict updates, orders of magnitude
cheaper than the requests being measured -- and snapshotted by
:meth:`ServiceMetrics.snapshot`, which backs both
:meth:`AnonymizationService.stats() <repro.service.AnonymizationService.stats>`
and the HTTP front door's ``GET /stats`` endpoint (same payload on both
paths, by construction).
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import deque
from typing import Optional

#: Histogram bucket upper bounds in seconds (log-ish scale, heads for the
#: millisecond-to-minute range an anonymization request can span).  The
#: implicit final bucket is ``+Inf``.
DEFAULT_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    120.0,
    300.0,
)

#: Recent observations kept per histogram for exact percentile estimates.
DEFAULT_WINDOW = 1024


class LatencyHistogram:
    """Fixed-bucket latency histogram with exact windowed percentiles.

    Bucket counts are cumulative-friendly (each bucket counts observations
    ``<= bound``, Prometheus style) and never reset; percentiles are
    computed exactly over the last :data:`DEFAULT_WINDOW` observations, so
    ``p99`` reflects recent traffic instead of the whole deployment
    lifetime.  Not thread-safe by itself -- :class:`ServiceMetrics` guards
    every histogram with its one lock.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max", "_window")

    def __init__(self, bounds=DEFAULT_BUCKETS, window: int = DEFAULT_WINDOW):
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._window: deque = deque(maxlen=window)

    def observe(self, seconds: float) -> None:
        """Record one latency observation."""
        self.counts[bisect.bisect_left(self.bounds, seconds)] += 1
        self.count += 1
        self.sum += seconds
        if self.min is None or seconds < self.min:
            self.min = seconds
        if self.max is None or seconds > self.max:
            self.max = seconds
        self._window.append(seconds)

    def percentile(self, quantile: float) -> Optional[float]:
        """Exact ``quantile`` (0..1) over the recent-observation window."""
        if not self._window:
            return None
        ordered = sorted(self._window)
        index = min(len(ordered) - 1, max(0, round(quantile * (len(ordered) - 1))))
        return ordered[index]

    def snapshot(self) -> dict:
        """JSON-safe summary: count/sum/min/mean/max, p50/p90/p99, buckets."""
        mean = (self.sum / self.count) if self.count else None
        buckets = {}
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            cumulative += bucket_count
            buckets[f"le_{bound:g}"] = cumulative
        buckets["le_inf"] = cumulative + self.counts[-1]
        return {
            "count": self.count,
            "sum_seconds": self.sum,
            "min_seconds": self.min,
            "mean_seconds": mean,
            "max_seconds": self.max,
            "p50_seconds": self.percentile(0.50),
            "p90_seconds": self.percentile(0.90),
            "p99_seconds": self.percentile(0.99),
            "buckets": buckets,
        }


class ServiceMetrics:
    """Aggregated request/queue/worker metrics for one service instance.

    One lock guards all mutation; :meth:`snapshot` produces the JSON-safe
    dict embedded into ``service.stats()`` (and therefore ``GET /stats``).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._started_at = time.monotonic()
        self.request_latency = LatencyHistogram()
        self.queue_wait = LatencyHistogram()
        self._requests_completed = 0
        self._requests_failed = 0
        self._in_flight = 0
        self._by_mode = {"batch": 0, "stream": 0}
        self._jobs_submitted = 0
        self._jobs_cancelled = 0
        self._rejected_saturated = 0
        self._retries = 0
        self._deadline_exceeded = 0
        self._retries_exhausted = 0
        self._queries = 0
        self.query_latency = LatencyHistogram()
        self._phase_seconds: dict[str, float] = {}
        self._worker_busy: dict[str, float] = {}

    # -- recording ------------------------------------------------------- #
    def request_started(self) -> None:
        """A request entered execution (sync call or dequeued job)."""
        with self._lock:
            self._in_flight += 1

    def request_finished(
        self,
        *,
        seconds: float,
        mode: Optional[str],
        error: bool,
        queue_wait: Optional[float] = None,
        worker: Optional[str] = None,
        phase_timings: Optional[dict] = None,
    ) -> None:
        """A request left execution; fold its latency/phases/attribution in."""
        with self._lock:
            self._in_flight -= 1
            if error:
                self._requests_failed += 1
            else:
                self._requests_completed += 1
                if mode in self._by_mode:
                    self._by_mode[mode] += 1
            self.request_latency.observe(seconds)
            if queue_wait is not None:
                self.queue_wait.observe(queue_wait)
            if worker is not None:
                self._worker_busy[worker] = self._worker_busy.get(worker, 0.0) + seconds
            if phase_timings:
                for phase, value in phase_timings.items():
                    if phase == "total_seconds":
                        continue
                    self._phase_seconds[phase] = (
                        self._phase_seconds.get(phase, 0.0) + value
                    )

    def job_submitted(self) -> None:
        """A job was accepted onto the queue."""
        with self._lock:
            self._jobs_submitted += 1

    def job_cancelled(self) -> None:
        """A queued job was cancelled before running (caller or shutdown)."""
        with self._lock:
            self._jobs_cancelled += 1

    def submit_rejected(self) -> None:
        """A non-blocking (or timed-out) submit hit the full queue."""
        with self._lock:
            self._rejected_saturated += 1

    def request_retried(self) -> None:
        """A transiently-failed request was re-executed under the retry policy."""
        with self._lock:
            self._retries += 1

    def deadline_exceeded(self) -> None:
        """A request was aborted because its deadline expired."""
        with self._lock:
            self._deadline_exceeded += 1

    def retries_exhausted(self) -> None:
        """A request kept failing transiently through its last allowed attempt."""
        with self._lock:
            self._retries_exhausted += 1

    def query_finished(self, seconds: float) -> None:
        """A publication-store query finished (success or failure)."""
        with self._lock:
            self._queries += 1
            self.query_latency.observe(seconds)

    # -- reading ---------------------------------------------------------- #
    @property
    def requests_completed(self) -> int:
        """Requests that finished successfully (both entry paths)."""
        with self._lock:
            return self._requests_completed

    def snapshot(self, *, workers_configured: int, workers_started: int) -> dict:
        """JSON-safe metrics payload for ``stats()`` / ``GET /stats``."""
        with self._lock:
            elapsed = max(time.monotonic() - self._started_at, 1e-9)
            busy = dict(sorted(self._worker_busy.items()))
            utilization = {
                name: min(1.0, seconds / elapsed) for name, seconds in busy.items()
            }
            return {
                "uptime_seconds": elapsed,
                "requests": {
                    "completed": self._requests_completed,
                    "failed": self._requests_failed,
                    "in_flight": self._in_flight,
                    "by_mode": dict(self._by_mode),
                },
                "jobs": {
                    "submitted": self._jobs_submitted,
                    "cancelled": self._jobs_cancelled,
                    "rejected_saturated": self._rejected_saturated,
                },
                "failures": {
                    "retries": self._retries,
                    "deadline_exceeded": self._deadline_exceeded,
                    "retries_exhausted": self._retries_exhausted,
                },
                "latency": {
                    "request_seconds": self.request_latency.snapshot(),
                    "queue_wait_seconds": self.queue_wait.snapshot(),
                    "query_seconds": self.query_latency.snapshot(),
                },
                "queries": {
                    "served": self._queries,
                },
                "phases": {
                    "seconds": dict(sorted(self._phase_seconds.items())),
                },
                "workers": {
                    "configured": workers_configured,
                    "started": workers_started,
                    "busy_seconds": busy,
                    "utilization": utilization,
                },
            }
