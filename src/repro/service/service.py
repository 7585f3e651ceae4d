"""The long-lived anonymization service facade.

:class:`AnonymizationService` owns, for its whole lifetime, the warm state
that every one-shot entry point used to rebuild per call:

* a pool of warm :class:`~repro.core.engine.Disassociator` engines (one
  per configured service worker), and
* one service-lifetime :class:`~repro.core.vocab.Vocabulary`, so the
  encode phase of back-to-back batch requests only interns terms it has
  never seen (interning is append-only and output-invariant -- the same
  property the streaming executor relies on per shard); with more than
  one worker the vocabulary is made thread-safe
  (:meth:`~repro.core.vocab.Vocabulary.make_shared`) so concurrent
  encoders intern behind one lock.

Requests (:class:`~repro.service.request.AnonymizationRequest`) auto-route
to the in-memory pipeline or the sharded streaming pipeline on input type
and the configured memory threshold; both paths return the same
:class:`~repro.service.request.PublicationResult`.

Concurrency model: :meth:`run` executes synchronously in the caller's
thread on a checked-out engine; :meth:`submit` enqueues onto a bounded
FIFO queue drained by ``config.workers`` worker threads, each executing on
its own engine.  Up to ``workers`` requests execute concurrently (sync
callers compete with queue workers for the same engine pool).  Every
individual request is deterministic: the vocabulary the requests share is
output-invariant by construction, so neither the interleaving nor the
number of workers can change any publication -- an N-worker service is
bit-for-bit equivalent to a sequential one (equivalence-tested).

Every request -- sync or queued -- is measured into
:class:`~repro.service.metrics.ServiceMetrics` (latency histograms, queue
wait, per-phase time, worker utilization), surfaced by :meth:`stats` and
the HTTP front door's ``GET /stats`` (see :mod:`repro.service.http`).
"""

from __future__ import annotations

import queue
import sqlite3
import threading
import time
import uuid
from concurrent.futures import CancelledError, Future
from dataclasses import fields
from itertools import chain, islice
from pathlib import Path
from typing import Iterator, Optional

from repro import faults
from repro.core import deadline as deadline_mod
from repro.core.dataset import TransactionDataset
from repro.core.engine import Disassociator
from repro.core.vocab import Vocabulary
from repro.datasets.io import iter_records
from repro.exceptions import (
    DeadlineExceededError,
    FaultInjected,
    ParameterError,
    RetriesExhaustedError,
    ServiceClosedError,
    ServiceSaturatedError,
    StoreError,
)
from repro.service.config import ServiceConfig
from repro.service.metrics import ServiceMetrics
from repro.service.request import AnonymizationRequest, PublicationResult
from repro.stream.executor import ShardedPipeline
from repro.stream.store import IncrementalPipeline

#: Queue item telling a worker thread to exit.
_SENTINEL = object()

#: Keyword arguments of run()/submit() that configure the request itself;
#: every other keyword is treated as a per-request ServiceConfig override.
_REQUEST_FIELDS = tuple(
    spec.name for spec in fields(AnonymizationRequest) if spec.name != "source"
)


class Job:
    """A submitted request's future result.

    Thin, read-only wrapper over :class:`concurrent.futures.Future` that
    keeps the originating request attached and translates a shutdown
    cancellation into :class:`~repro.exceptions.ServiceClosedError`.
    """

    def __init__(self, request: AnonymizationRequest):
        self.request = request
        self._future: Future = Future()
        self._cancelled_by_service = False
        self._enqueued_at = time.monotonic()

    def __repr__(self) -> str:
        return f"Job({self.request.mode!r}, {self.state()}, tag={self.request.tag!r})"

    def done(self) -> bool:
        """Whether the job finished (successfully, with an error, or cancelled)."""
        return self._future.done()

    def cancelled(self) -> bool:
        """Whether the job was cancelled before it ran."""
        return self._future.cancelled()

    def running(self) -> bool:
        """Whether the job is currently executing on a worker."""
        return self._future.running()

    def state(self) -> str:
        """The job's lifecycle state: ``pending/running/done/failed/cancelled``.

        Non-blocking; the HTTP front door serializes this into
        ``GET /jobs/<id>`` responses.
        """
        future = self._future
        if future.cancelled():
            return "cancelled"
        if future.done():
            return "failed" if future.exception() is not None else "done"
        if future.running():
            return "running"
        return "pending"

    def cancel(self) -> bool:
        """Try to cancel the job; only possible while it is still queued."""
        return self._future.cancel()

    def result(self, timeout: Optional[float] = None) -> PublicationResult:
        """Block for (and return) the job's :class:`PublicationResult`.

        Raises whatever the execution raised.  A job cancelled by a
        non-draining service shutdown raises
        :class:`~repro.exceptions.ServiceClosedError`; one the caller
        cancelled via :meth:`cancel` raises the plain
        :class:`concurrent.futures.CancelledError`.
        """
        try:
            return self._future.result(timeout)
        except CancelledError:
            if not self._cancelled_by_service:
                raise
            raise ServiceClosedError(
                "job was cancelled by service shutdown before it ran"
            ) from None

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """The exception the job raised, or ``None`` (blocks like ``result``)."""
        try:
            return self._future.exception(timeout)
        except CancelledError:
            if not self._cancelled_by_service:
                raise
            return ServiceClosedError(
                "job was cancelled by service shutdown before it ran"
            )


class AnonymizationService:
    """Warm, long-lived facade over the batch and streaming pipelines.

    Args:
        config: the service's :class:`ServiceConfig`; defaults match the
            paper's parameters (``k=5, m=2``).  ``config.workers`` sizes
            the worker pool: that many queued jobs (and sync callers)
            execute concurrently, each on its own warm engine.

    Use as a context manager (or call :meth:`close`) so the engines and
    the job-queue workers are shut down deterministically::

        with AnonymizationService(ServiceConfig(k=5, m=2, workers=2)) as service:
            result = service.run(dataset)                 # sync
            job = service.submit(AnonymizationRequest(other_dataset))
            ...
            later = job.result()
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config if config is not None else ServiceConfig()
        self._vocabulary = Vocabulary()
        if self.config.workers > 1:
            # Concurrent encoders intern behind one lock; single-worker
            # services keep the lock-free path (execution is serialized by
            # the engine pool there).
            self._vocabulary.make_shared()
        self._engines = [
            Disassociator(self.config.engine_params(), vocabulary=self._vocabulary)
            for _ in range(self.config.workers)
        ]
        #: The first engine, kept as an attribute for introspection/tests.
        self._engine = self._engines[0]
        #: Idle engines, checked out per executing request.  LIFO: reuse
        #: the most recently warmed engine while traffic is light.
        self._idle: "queue.LifoQueue" = queue.LifoQueue()
        for engine in self._engines:
            self._idle.put(engine)
        self._state_lock = threading.Lock()  # guards closed flag + worker spawn
        self._queue: "queue.Queue" = queue.Queue(maxsize=self.config.max_pending)
        self._workers: list[threading.Thread] = []
        self._metrics = ServiceMetrics()
        #: Idle publication-store read handles, checked out per query.
        #: LIFO like the engines: one warm handle (and page cache) serves
        #: sequential traffic, and the pool only ever holds as many
        #: handles as queries once ran at the same time.
        self._readers: "queue.LifoQueue" = queue.LifoQueue()
        self._closed = False

    # -- lifecycle ------------------------------------------------------- #
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def __enter__(self) -> "AnonymizationService":
        return self

    def __exit__(self, *exc_info) -> None:
        if not self._closed:
            self.close()

    def close(self, drain: bool = True) -> None:
        """Shut the service down.

        With ``drain=True`` (default) every already-submitted job is
        executed before the workers exit; with ``drain=False`` queued jobs
        are cancelled (their ``result()`` raises
        :class:`~repro.exceptions.ServiceClosedError`) and only jobs
        already executing finish.  Either way every engine is closed --
        waiting for in-flight synchronous :meth:`run` calls to return their
        engines first -- as is every pooled publication-store read handle
        (a query still running closes its handle when it finishes), and
        later ``run`` / ``submit`` / ``query`` / ``close`` calls raise
        :class:`~repro.exceptions.ServiceClosedError`.
        """
        with self._state_lock:
            if self._closed:
                raise ServiceClosedError(
                    "AnonymizationService.close() called twice; "
                    "the service was already closed"
                )
            self._closed = True
            workers = list(self._workers)
        if workers:
            if not drain:
                self._cancel_pending()
            for _ in workers:
                self._queue.put(_SENTINEL)
            for worker in workers:
                worker.join()
        # Anything that raced into the queue behind the sentinels would
        # otherwise wait forever; fail it explicitly.
        self._cancel_pending()
        # Collect every engine before closing: a blocking get waits for
        # in-flight executions (sync runs included) to check theirs back in.
        for _ in self._engines:
            self._idle.get()
        for engine in self._engines:
            engine.close()
        while True:
            try:
                self._readers.get_nowait().close()
            except queue.Empty:
                break

    def _cancel_pending(self) -> None:
        """Cancel every job still sitting in the queue (non-blocking)."""
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is not _SENTINEL:
                item._cancelled_by_service = True
                if item._future.cancel():
                    self._metrics.job_cancelled()
            self._queue.task_done()

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosedError(
                "AnonymizationService is closed; create a new service"
            )

    # -- introspection --------------------------------------------------- #
    def stats(self) -> dict:
        """Warm-state and request-metrics snapshot (JSON-safe).

        The same payload regardless of how requests arrived (sync
        :meth:`run`, queued :meth:`submit`, or the HTTP front door, which
        serves this dict verbatim on ``GET /stats``):

        * top-level legacy keys: ``requests_served``, ``vocabulary_terms``,
          ``pending_jobs``, ``closed``;
        * ``queue``: current depth and capacity (``max_pending``);
        * ``workers``: configured vs started counts, per-worker busy
          seconds and utilization;
        * ``requests`` / ``jobs`` / ``latency`` / ``phases`` from
          :class:`~repro.service.metrics.ServiceMetrics` -- request and
          queue-wait histograms with p50/p90/p99, per-phase accumulated
          seconds, saturation and cancellation counters.

        Every request increments ``requests_served`` exactly once, on the
        entry path that executed it -- auto-routing a request to the
        streaming pipeline (whose windows borrow a warm engine) does not
        double-count.
        """
        with self._state_lock:
            started = len(self._workers)
        payload = self._metrics.snapshot(
            workers_configured=self.config.workers, workers_started=started
        )
        depth = self._queue.qsize()
        payload["queue"] = {"depth": depth, "capacity": self.config.max_pending}
        payload["requests_served"] = payload["requests"]["completed"]
        payload["vocabulary_terms"] = len(self._vocabulary)
        payload["pending_jobs"] = depth
        payload["closed"] = self._closed
        return payload

    # -- entry points ----------------------------------------------------- #
    def run(self, request, **kwargs) -> PublicationResult:
        """Execute a request synchronously and return its result.

        ``request`` is an :class:`AnonymizationRequest` (no keyword
        arguments allowed then), or any request *source* -- dataset, file
        path, iterable -- with the request's fields (``mode``, ``format``,
        ``delimiter``, ``tag``, ``overrides``) given as keyword arguments.

        Executes on the caller's thread, on an engine checked out from the
        warm pool (waiting for one when all ``config.workers`` engines are
        busy).
        """
        request = self._coerce(request, kwargs)
        engine = self._checkout_engine()
        try:
            return self._execute(request, engine, worker="caller")
        finally:
            self._idle.put(engine)

    def query(self, op: str, params: Optional[dict] = None) -> dict:
        """Run one analytics query against the configured publication store.

        ``op`` names a :class:`~repro.pubstore.QueryEngine` operation
        (``top_terms``, ``cooccurrence_count``, ``containment_ratio``,
        ``rule_confidence``, ``frequent_pairs``, ``lower_bound``,
        ``expected_support``, ``reconstructed_support``, ``describe``);
        ``params`` carries its parameters.  Answers come from the indexed
        store under ``config.pubstore_dir`` -- bit-for-bit what the
        in-memory ``analysis`` helpers would compute over the same
        publication.  Queries execute on the caller's thread (they are
        index lookups, not anonymization runs) on a read handle checked
        out of the service's pool, so they never contend with the engine
        pool and skip the store open; the configured
        ``default_deadline`` still applies.  Each query reads one
        committed snapshot, so a concurrent refresh is seen either
        wholly or not at all, and the next query sees it.  A handle
        whose store file was deleted or replaced is reopened, and one
        whose query failed in the store is closed, not pooled.

        Raises :class:`~repro.exceptions.ParameterError` for a missing
        ``pubstore_dir`` or a malformed op/parameters, and
        :class:`~repro.exceptions.StoreError` for an unbuilt, missing or
        foreign store (the HTTP front door maps these to 400 and 409).
        Reads create nothing: a missing store directory stays absent.
        """
        self._check_open()
        if self.config.pubstore_dir is None:
            raise ParameterError(
                "query requires ServiceConfig.pubstore_dir: point it at a "
                "directory populated by PublicationResult.save_store or by "
                "an incremental run with pubstore_dir set"
            )
        from repro.pubstore import QueryEngine

        budget = self.config.default_deadline
        query_deadline = deadline_mod.Deadline(budget) if budget is not None else None
        start = time.perf_counter()
        try:
            with deadline_mod.scope(query_deadline):
                store = self._checkout_reader()
                failed = False
                try:
                    with store.read_transaction():
                        return QueryEngine(store).execute(op, params)
                except (sqlite3.Error, StoreError):
                    failed = True
                    raise
                finally:
                    self._return_reader(store, failed)
        finally:
            self._metrics.query_finished(time.perf_counter() - start)

    def _checkout_reader(self):
        """Borrow a current read handle on the publication store, or open one."""
        from repro.pubstore import PublicationStore

        while True:
            try:
                store = self._readers.get_nowait()
            except queue.Empty:
                return PublicationStore.reader(self.config.pubstore_dir)
            if not store.replaced():
                return store
            store.close()

    def _return_reader(self, store, failed: bool) -> None:
        """Pool a handle after its query; close it if it failed or we closed."""
        with self._state_lock:
            if not failed and not self._closed:
                self._readers.put(store)
                return
        store.close()

    def submit(
        self,
        request,
        *,
        block: bool = True,
        timeout: Optional[float] = None,
        **kwargs,
    ) -> Job:
        """Enqueue a request and return a :class:`Job` future.

        Jobs are picked up FIFO by ``config.workers`` worker threads, each
        executing on its own warm engine; results are deterministic per
        request regardless of the worker count or interleaving.  The queue
        is bounded at ``config.max_pending``: a blocking submit waits for
        space (up to ``timeout``), a non-blocking one raises
        :class:`~repro.exceptions.ServiceSaturatedError` when full.
        """
        request = self._coerce(request, kwargs)
        with self._state_lock:
            self._check_open()
            if not self._workers:
                for index in range(self.config.workers):
                    worker = threading.Thread(
                        target=self._worker_loop,
                        args=(f"worker-{index}",),
                        name=f"repro-anonymization-service-{index}",
                        daemon=True,
                    )
                    worker.start()
                    self._workers.append(worker)
        job = Job(request)
        self._enqueue(job, block, timeout)
        self._metrics.job_submitted()
        if self._closed:
            # close() finished while we were blocked on a full queue; the
            # workers are gone, so the job would never run.
            job._cancelled_by_service = True
            if job.cancel():
                self._metrics.job_cancelled()
                raise ServiceClosedError(
                    "AnonymizationService was closed while the submit was "
                    "waiting for queue space"
                )
            job._cancelled_by_service = False
        return job

    def _checkout_engine(self) -> Disassociator:
        """Borrow an idle engine, waking up if the service closes meanwhile."""
        while True:
            self._check_open()
            try:
                return self._idle.get(timeout=0.05)
            except queue.Empty:
                continue

    def _enqueue(self, job: Job, block: bool, timeout: Optional[float]) -> None:
        """Put a job on the bounded queue, waking up if the service closes.

        A blocking put is sliced into short waits so a submitter stuck on a
        full queue notices a concurrent :meth:`close` instead of blocking
        forever against workers that are shutting down.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            self._check_open()
            if not block:
                slice_timeout = None
            elif deadline is None:
                slice_timeout = 0.05
            else:
                slice_timeout = min(0.05, deadline - time.monotonic())
            try:
                if block and slice_timeout is not None and slice_timeout > 0:
                    job._enqueued_at = time.monotonic()
                    self._queue.put(job, block=True, timeout=slice_timeout)
                else:
                    job._enqueued_at = time.monotonic()
                    self._queue.put_nowait(job)
                return
            except queue.Full:
                if not block or (deadline is not None and time.monotonic() >= deadline):
                    self._metrics.submit_rejected()
                    raise ServiceSaturatedError(
                        f"job queue is full ({self.config.max_pending} pending); "
                        "retry, raise max_pending, or use a blocking submit"
                    ) from None

    @staticmethod
    def _coerce(request, kwargs) -> AnonymizationRequest:
        """Normalize ``run``/``submit`` input into an :class:`AnonymizationRequest`."""
        if isinstance(request, AnonymizationRequest):
            if kwargs:
                raise ParameterError(
                    "keyword arguments are not allowed when passing an "
                    f"AnonymizationRequest (got {sorted(kwargs)})"
                )
            return request
        request_fields = {
            name: kwargs.pop(name) for name in _REQUEST_FIELDS if name in kwargs
        }
        if kwargs:  # remaining keywords are per-request config overrides
            overrides = dict(request_fields.get("overrides", {}))
            overrides.update(kwargs)
            request_fields["overrides"] = overrides
        return AnonymizationRequest(request, **request_fields)

    # -- execution -------------------------------------------------------- #
    def _worker_loop(self, name: str) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is _SENTINEL:
                    return
                if not item._future.set_running_or_notify_cancel():
                    self._metrics.job_cancelled()
                    continue
                queue_wait = time.monotonic() - item._enqueued_at
                engine = self._idle.get()
                try:
                    try:
                        result = self._execute(
                            item.request, engine, worker=name, queue_wait=queue_wait
                        )
                    except BaseException as exc:
                        item._future.set_exception(exc)
                    else:
                        item._future.set_result(result)
                finally:
                    self._idle.put(engine)
            finally:
                self._queue.task_done()

    def _execute(
        self,
        request: AnonymizationRequest,
        engine: Disassociator,
        *,
        worker: str,
        queue_wait: Optional[float] = None,
    ) -> PublicationResult:
        config = self.config
        if request.overrides:
            config = config.with_overrides(**request.overrides)
        self._metrics.request_started()
        start = time.perf_counter()
        # One idempotency token per *request* (not per attempt): a delta
        # whose mutation committed before a transient crash is not
        # re-applied by the retry -- the store recognizes the token and the
        # retry only finishes windows and publication.  A client-supplied
        # delta_id extends the same guarantee across request boundaries
        # (crash recovery, at-most-once re-submission).
        state: dict = {
            "mode": None,
            "report": None,
            "delta_id": request.delta_id or uuid.uuid4().hex,
        }
        error = True
        try:
            result = self._execute_with_retry(
                request, config, engine, queue_wait=queue_wait, state=state
            )
            error = False
            return result
        except DeadlineExceededError:
            self._metrics.deadline_exceeded()
            raise
        finally:
            report = state["report"]
            self._metrics.request_finished(
                seconds=time.perf_counter() - start,
                mode=state["mode"],
                error=error,
                queue_wait=queue_wait,
                worker=worker,
                phase_timings=report.phase_timings() if report is not None else None,
            )

    def _execute_with_retry(
        self,
        request: AnonymizationRequest,
        config: ServiceConfig,
        engine: Disassociator,
        *,
        queue_wait: Optional[float],
        state: dict,
    ) -> PublicationResult:
        """Run the request under its deadline and the service retry policy.

        The deadline is anchored at *enqueue* time (queue wait spends
        budget), enforced here at dequeue and then cooperatively at every
        pipeline phase boundary through the ambient
        :mod:`repro.core.deadline` scope.  Transient failures -- injected
        faults marked transient -- are retried with exponential backoff,
        but only when the request's source can be re-read from
        scratch (a file path or an in-memory dataset; a half-consumed
        iterable cannot be safely replayed).  The final transient failure
        surfaces as :class:`RetriesExhaustedError` with the cause chained.
        """
        policy = config.retry
        budget = (
            request.deadline
            if request.deadline is not None
            else config.default_deadline
        )
        request_deadline = None
        if budget is not None:
            anchor = time.monotonic() - (queue_wait or 0.0)
            request_deadline = deadline_mod.Deadline(budget, anchor=anchor)
            # Enforced at dequeue: a job that already overstayed its budget
            # in the queue fails immediately instead of burning a worker.
            request_deadline.check("service.dequeue")
        failed_attempts = 0
        while True:
            try:
                faults.check("service.execute")
                with deadline_mod.scope(request_deadline):
                    return self._execute_once(request, config, engine, state)
            except FaultInjected as exc:
                failed_attempts += 1
                if not exc.transient or not self._replayable(request):
                    raise
                if failed_attempts >= policy.attempts:
                    self._metrics.retries_exhausted()
                    raise RetriesExhaustedError(
                        f"request failed transiently {failed_attempts} time(s); "
                        f"retry policy allows {policy.attempts} attempt(s) "
                        f"({exc})",
                        attempts=failed_attempts,
                    ) from exc
                delay = policy.delay(failed_attempts)
                if request_deadline is not None:
                    # Sleeping past the deadline would turn a retryable
                    # blip into a guaranteed deadline failure; expire now
                    # if no budget is left for another attempt.
                    request_deadline.check("service.retry")
                    delay = min(delay, max(request_deadline.remaining(), 0.0))
                self._metrics.request_retried()
                if delay > 0:
                    time.sleep(delay)

    def _execute_once(
        self,
        request: AnonymizationRequest,
        config: ServiceConfig,
        engine: Disassociator,
        state: dict,
    ) -> PublicationResult:
        """One routing + execution attempt (state carries mode/report out)."""
        state["mode"], state["report"] = None, None
        if request.mode == "delta":
            state["mode"] = "delta"
            published, report = self._run_delta(request, config, engine, state)
            state["report"] = report
            return PublicationResult(
                published, report, "delta", config, tag=request.tag
            )
        mode, stream_source, dataset = self._route(request, config)
        state["mode"] = mode
        if mode == "batch":
            published, report = self._run_batch(dataset, config, engine)
            state["report"] = report
            return PublicationResult(
                published, report, "batch", config, original=dataset, tag=request.tag
            )
        published, report = self._run_stream(stream_source, config, engine)
        state["report"] = report
        return PublicationResult(published, report, "stream", config, tag=request.tag)

    @staticmethod
    def _replayable(request: AnonymizationRequest) -> bool:
        """Whether the request's input can be re-read for a retry.

        Paths are re-opened, and datasets and in-memory sequences (e.g.
        the record lists the HTTP front door posts) re-iterated from
        scratch; a plain one-shot iterable may already be partially
        consumed by the failed attempt, so replaying it would silently
        anonymize a truncated stream.  A delta request must replay both
        its append source and its delete list (``None`` -- an empty side
        of the delta -- is trivially replayable).
        """

        def safe(value) -> bool:
            return value is None or isinstance(
                value, (str, Path, TransactionDataset, list, tuple)
            )

        return safe(request.source) and safe(request.delete)

    def _route(self, request: AnonymizationRequest, config: ServiceConfig):
        """Decide batch vs stream; returns ``(mode, stream_source, dataset)``.

        Datasets route on their (known) length; paths and iterables are
        peeked up to ``stream_threshold + 1`` records -- inputs that fit
        under the threshold run in memory, larger ones stream without ever
        materializing more than the peeked prefix.
        """
        if request.is_dataset:
            dataset = request.source
            if request.mode == "stream" or (
                request.mode == "auto" and len(dataset) > config.stream_threshold
            ):
                return "stream", iter(dataset), None
            return "batch", None, dataset
        if request.is_path:
            records: Iterator = iter_records(
                request.source, format=request.format, delimiter=request.delimiter
            )
        else:
            records = iter(request.source)
        if request.mode == "batch":
            return "batch", None, TransactionDataset(records)
        if request.mode == "stream":
            return "stream", records, None
        threshold = config.stream_threshold
        head = list(islice(records, threshold + 1))
        if len(head) <= threshold:
            return "batch", None, TransactionDataset(head)
        return "stream", chain(head, records), None

    def _run_batch(
        self, dataset: TransactionDataset, config: ServiceConfig, engine: Disassociator
    ):
        engine.params = config.engine_params()
        engine.vocabulary = self._vocabulary
        published = engine.anonymize(dataset)
        return published, engine.last_report

    def _run_stream(self, records, config: ServiceConfig, engine: Disassociator):
        pipeline = ShardedPipeline(
            config.engine_params(), config.stream_params(), window_engine=engine
        )
        published = pipeline.run(records)
        return published, pipeline.last_report

    def _run_delta(
        self,
        request: AnonymizationRequest,
        config: ServiceConfig,
        engine: Disassociator,
        state: dict,
    ):
        """Apply the request as one delta of the persistent shard store.

        Appends come from ``request.source`` (``None``: none), deletes from
        ``request.delete``; both accept the same shapes as any request
        source.  The recomputed windows run on the service's warm engine,
        exactly like streamed requests, and the request-scoped ``delta_id`` makes transparent
        retries of a transiently failed delta apply the mutation at most
        once.  The store keeps every window's audited product, so windows
        an earlier delta (or an earlier process) already published are not
        decoded, audited or serialized again.
        """
        pipeline = IncrementalPipeline(
            config.engine_params(),
            config.stream_params(),
            window_engine=engine,
        )
        published = pipeline.run(
            append=self._delta_records(request.source, request),
            delete=self._delta_records(request.delete, request),
            delta_id=state["delta_id"],
        )
        return published, pipeline.last_report

    @staticmethod
    def _delta_records(source, request: AnonymizationRequest):
        """One side of a delta as a record source (``None``: empty).

        Nothing is copied: a list or a dataset is iterated as it is, and
        a path is opened afresh on every attempt -- which is what lets a
        retry replay it -- and read as the pipeline consumes it.
        """
        if source is None:
            return ()
        if isinstance(source, (str, Path)):
            return iter_records(
                source, format=request.format, delimiter=request.delimiter
            )
        return source


def anonymization_service(**config_fields) -> AnonymizationService:
    """Convenience constructor: ``anonymization_service(k=5, workers=2, ...)``."""
    return AnonymizationService(ServiceConfig(**config_fields))
