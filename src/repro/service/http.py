"""HTTP front door for the anonymization service (``repro serve``).

A small, dependency-free production entry point built on the stdlib
:class:`http.server.ThreadingHTTPServer`: one
:class:`~repro.service.AnonymizationService` behind a JSON-over-HTTP
surface.  Connection threads only parse requests and wait on futures; all
anonymization work happens on the service's worker pool, so the bounded
job queue -- not the socket listener -- is the backpressure point.

Endpoints:

* ``POST /anonymize`` -- body ``{"records": [[...], ...], "mode": "auto",
  "overrides": {...}, "tag": "...", "async": false}``.  Synchronous by
  default (the response carries the publication); ``"async": true``
  submits a job and answers ``202`` with a ``job_id`` to poll.  Both
  shapes go through the service's bounded queue, so a saturated service
  answers ``429`` (with ``Retry-After``) instead of queueing unboundedly,
  and a closed/draining one answers ``503``.
* ``GET /jobs/<id>`` -- job state (``pending/running/done/failed/
  cancelled``); a finished job's response carries the publication.
* ``GET /stats`` -- :meth:`AnonymizationService.stats` verbatim: request
  and queue-wait latency histograms, per-phase seconds, queue depth,
  worker utilization.
* ``GET /query`` / ``POST /query`` -- analysis queries answered from the
  configured :class:`~repro.pubstore.PublicationStore` indexes
  (``pubstore_dir``) without touching the anonymization workers.  The GET
  shape is query-string driven: ``?op=top_terms&count=5``,
  ``?op=cooccurrence_count&term=a&term=b`` (``term``, ``antecedent`` and
  ``consequent`` repeat; ``count``, ``min_support``, ``reconstructions``
  and ``seed`` are integers).  The POST shape carries the same fields as
  a JSON body: ``{"op": "frequent_pairs", "min_support": 10}``.  Both
  answer :meth:`QueryEngine.execute <repro.pubstore.QueryEngine.execute>`'s
  payload verbatim; a service without ``pubstore_dir`` answers ``400``,
  a store that has not been built yet ``409`` (kind
  ``checkpoint_conflict``).
* ``GET /healthz`` -- liveness: ``200`` while the service accepts work,
  ``503`` once it is closed.

Error mapping: every error body is ``{"error": <message>, "kind":
<machine-readable kind>}``.  Malformed JSON / unknown knobs / invalid
records (every record must be a non-empty array of non-empty strings;
the message names the offending index) answer ``400`` (kind
``bad_request``); unknown paths ``404``;
wrong methods ``405``; oversize bodies ``413`` (kind ``too_large``);
queue saturation ``429`` with ``Retry-After`` (kind ``saturated``); a
closed service ``503`` (kind ``closed``); a request whose transient
failures outlived its retry budget ``503`` with ``Retry-After`` (kind
``retries_exhausted``); an expired request deadline ``504`` (kind
``deadline_exceeded``); anything unexpected ``500`` (kind ``internal``).
``POST /anonymize`` additionally accepts ``"deadline"`` (seconds budget
for this request); a body key outside the documented set answers ``400``
naming it.  With ``"mode": "delta"`` the body
mutates the service's persistent shard store instead: ``"records"``
(alias ``"append"``) holds the records to append, ``"delete"`` the
records to remove, either side may be empty or absent (an empty delta
answers with the current publication, assembled from the stored window
snapshots), ``"delta_id"`` optionally carries
a client idempotency token (re-POSTing the same delta with the same
token after a crash or ambiguous timeout never double-applies it), and
a request conflicting with the store's durable identity (wrong
parameters, plan drift, deleting an absent record, a reused token with
different contents) answers ``409`` (kind ``checkpoint_conflict``).

Responses are compact JSON (no optional whitespace), written with the
headers in one send on a ``TCP_NODELAY`` socket.  A publication
response's ``"publication"`` value is the result's
:meth:`~repro.service.request.PublicationResult.to_json` text spliced in
as is -- for a delta, its stored window products' text, with no object built --
so it parses to exactly ``service.run(...).to_dict()`` (bit-for-bit;
covered by the test suite and the throughput benchmark).
"""

from __future__ import annotations

import io
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import count
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.exceptions import (
    CheckpointError,
    DatasetError,
    DeadlineExceededError,
    ParameterError,
    ReproError,
    RetriesExhaustedError,
    ServiceClosedError,
    ServiceSaturatedError,
)
from repro.service.service import AnonymizationService, Job

#: Default bind address of ``repro serve``.
DEFAULT_HOST = "127.0.0.1"

#: Default port of ``repro serve``.
DEFAULT_PORT = 8350

#: Hard cap on request bodies (a dataset larger than this should be
#: streamed from a file or object store, not POSTed inline).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Keys a ``POST /anonymize`` body may carry; any other key is refused
#: (a misspelled or retired field must not be silently ignored).
_ANONYMIZE_KEYS = frozenset(
    {
        "mode",
        "records",
        "append",
        "delete",
        "delta_id",
        "async",
        "overrides",
        "tag",
        "deadline",
    }
)

#: Finished jobs retained for ``GET /jobs/<id>`` before the oldest are
#: evicted (pending/running jobs are never evicted).
MAX_RETAINED_JOBS = 1024


def classify_error(exc: BaseException) -> tuple:
    """Map a service exception to ``(status, kind, extra headers)``.

    One mapping shared by the synchronous ``POST /anonymize`` path and the
    failed-job payloads of ``GET /jobs/<id>``, so a failure reports the
    same machine-readable ``kind`` whether the caller waited inline or
    polled.  Order matters: the specific service failures are subclasses
    of :class:`ReproError` and must be matched first.
    """
    if isinstance(exc, DeadlineExceededError):
        return 504, "deadline_exceeded", ()
    if isinstance(exc, RetriesExhaustedError):
        return 503, "retries_exhausted", (("Retry-After", "1"),)
    if isinstance(exc, ServiceSaturatedError):
        return 429, "saturated", (("Retry-After", "1"),)
    if isinstance(exc, ServiceClosedError):
        return 503, "closed", ()
    if isinstance(exc, CheckpointError):
        # Covers StoreError too: the request conflicts with the durable
        # state on disk (mismatched fingerprint, plan drift, a delete of a
        # record the store does not hold) -- the classic 409, not a 400:
        # the same body can be perfectly valid against another store.
        return 409, "checkpoint_conflict", ()
    if isinstance(exc, (ParameterError, DatasetError)):
        return 400, "bad_request", ()
    return 500, "internal", ()


class _JobRegistry:
    """Id-addressed store of submitted jobs with bounded retention."""

    def __init__(self, max_retained: int = MAX_RETAINED_JOBS):
        self._jobs: dict[str, Job] = {}
        self._ids = count(1)
        self._lock = threading.Lock()
        self._max_retained = max_retained

    def add(self, job: Job) -> str:
        """Register a job; returns its id and evicts old finished jobs."""
        with self._lock:
            job_id = f"job-{next(self._ids)}"
            self._jobs[job_id] = job
            if len(self._jobs) > self._max_retained:
                # Insertion order == submission order: drop the oldest
                # *finished* jobs first; live jobs always stay addressable.
                for key in list(self._jobs):
                    if len(self._jobs) <= self._max_retained:
                        break
                    if self._jobs[key].done():
                        del self._jobs[key]
            return job_id

    def get(self, job_id: str) -> Optional[Job]:
        """The job with ``job_id``, or ``None``."""
        with self._lock:
            return self._jobs.get(job_id)


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes one HTTP connection onto the bound service (see module doc)."""

    #: Set by :class:`ServiceHTTPServer` on the handler subclass it builds.
    service: AnonymizationService
    registry: _JobRegistry
    quiet: bool = True
    max_body_bytes: int = MAX_BODY_BYTES

    protocol_version = "HTTP/1.1"
    #: ``TCP_NODELAY`` on every accepted connection: a keep-alive client's
    #: delayed ACK must never hold back the next response.
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------- #
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Suppress per-request stderr lines unless the server is verbose."""
        if not self.quiet:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send_json(self, status: int, payload: dict, headers=()) -> None:
        self._send_body(status, _compact(payload).encode("utf-8"), headers)

    def _send_publication(self, envelope: dict, result) -> None:
        """Answer ``200`` with ``envelope`` plus a last ``"publication"`` key.

        The publication is :meth:`PublicationResult.to_json
        <repro.service.request.PublicationResult.to_json>`'s text, spliced
        in as is: a delta's response builds no object for it.
        """
        head = _compact(envelope)[:-1]
        body = f'{head},"publication":{result.to_json()}}}'.encode("utf-8")
        self._send_body(200, body)

    def _send_body(self, status: int, body: bytes, headers=()) -> None:
        """Send the status line, headers and ``body`` in one write."""
        wfile, self.wfile = self.wfile, io.BytesIO()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in headers:
                self.send_header(name, value)
            self.end_headers()
            head = self.wfile.getvalue()
        finally:
            self.wfile = wfile
        self.wfile.write(head + body)

    def _read_json_body(self) -> dict:
        length = self.headers.get("Content-Length")
        if length is None:
            raise _HttpError(411, "Content-Length is required")
        try:
            length = int(length)
        except ValueError:
            raise _HttpError(400, f"malformed Content-Length: {length!r}") from None
        if length > self.max_body_bytes:
            raise _HttpError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self.max_body_bytes}-byte cap; stream large datasets from "
                "a file instead of POSTing inline",
                kind="too_large",
            )
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return payload

    # -- routing --------------------------------------------------------- #
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        """Serve ``/healthz``, ``/stats`` and ``/jobs/<id>``."""
        try:
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            if path == "/healthz":
                self._handle_healthz()
            elif path == "/stats":
                self._send_json(200, self.service.stats())
            elif path == "/query":
                self._handle_query_get()
            elif path.startswith("/jobs/"):
                self._handle_job(path[len("/jobs/"):])
            elif path in ("/anonymize",):
                self._send_json(
                    405,
                    {"error": "POST /anonymize", "kind": "method_not_allowed"},
                    headers=[("Allow", "POST")],
                )
            else:
                self._send_json(
                    404, {"error": f"unknown path {path!r}", "kind": "not_found"}
                )
        except _HttpError as exc:
            self._send_json(exc.status, {"error": exc.message, "kind": exc.kind})
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as exc:  # pragma: no cover - defensive 500
            self._send_json(
                500, {"error": f"internal error: {exc}", "kind": "internal"}
            )

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler naming)
        """Serve ``POST /anonymize`` (sync and async job submission)."""
        try:
            path = self.path.split("?", 1)[0].rstrip("/")
            if path == "/anonymize":
                self._handle_anonymize(self._read_json_body())
            elif path == "/query":
                self._handle_query_post(self._read_json_body())
            else:
                self._send_json(
                    404, {"error": f"unknown path {path!r}", "kind": "not_found"}
                )
        except _HttpError as exc:
            self._send_json(exc.status, {"error": exc.message, "kind": exc.kind})
        except BrokenPipeError:
            pass
        except Exception as exc:  # pragma: no cover - defensive 500
            self._send_json(
                500, {"error": f"internal error: {exc}", "kind": "internal"}
            )

    # -- endpoints ------------------------------------------------------- #
    #: ``GET /query`` parameters parsed as integers.
    _QUERY_INT_PARAMS = ("count", "min_support", "reconstructions", "seed")

    #: ``GET /query`` parameters that repeat to form term lists (the
    #: singular ``term`` feeds the engine's ``terms`` parameter).
    _QUERY_TERM_PARAMS = ("term", "antecedent", "consequent")

    def _handle_query_get(self) -> None:
        query = urlsplit(self.path).query
        fields = parse_qs(query, keep_blank_values=True)
        ops = fields.pop("op", None)
        if not ops or len(ops) != 1:
            raise _HttpError(400, 'exactly one "op" query parameter is required')
        params: dict = {}
        for name in self._QUERY_TERM_PARAMS:
            values = fields.pop(name, None)
            if values is not None:
                params["terms" if name == "term" else name] = values
        for name in self._QUERY_INT_PARAMS:
            values = fields.pop(name, None)
            if values is None:
                continue
            if len(values) != 1:
                raise _HttpError(400, f'"{name}" must appear at most once')
            try:
                params[name] = int(values[0])
            except ValueError:
                raise _HttpError(
                    400, f'"{name}" must be an integer, got {values[0]!r}'
                ) from None
        if fields:
            unknown = ", ".join(sorted(fields))
            raise _HttpError(400, f"unknown query parameters: {unknown}")
        self._run_query(ops[0], params)

    def _handle_query_post(self, payload: dict) -> None:
        op = payload.pop("op", None)
        if not isinstance(op, str):
            raise _HttpError(400, 'body must carry a string "op"')
        self._run_query(op, payload)

    def _run_query(self, op: str, params: dict) -> None:
        try:
            result = self.service.query(op, params)
        except ReproError as exc:
            status, kind, headers = classify_error(exc)
            self._send_json(
                status, {"error": str(exc), "kind": kind}, headers=headers
            )
            return
        self._send_json(200, result)

    def _handle_healthz(self) -> None:
        if self.service.closed:
            self._send_json(503, {"status": "closed"})
            return
        self._send_json(
            200, {"status": "ok", "workers": self.service.config.workers}
        )

    def _handle_job(self, job_id: str) -> None:
        job = self.registry.get(job_id)
        if job is None:
            self._send_json(404, {"error": f"unknown job {job_id!r}"})
            return
        state = job.state()
        payload: dict = {"job_id": job_id, "state": state, "tag": job.request.tag}
        if state == "done":
            result = job.result(timeout=0)
            payload["mode"] = result.mode
            payload["summary"] = result.summary()
            self._send_publication(payload, result)
            return
        if state == "failed":
            exc = job.exception(timeout=0)
            _, kind, _ = classify_error(exc)
            payload["error"] = str(exc)
            payload["kind"] = kind
        elif state == "cancelled":
            payload["error"] = "job was cancelled before it ran"
            payload["kind"] = "cancelled"
        self._send_json(200, payload)

    def _handle_anonymize(self, payload: dict) -> None:
        unknown = sorted(set(payload) - _ANONYMIZE_KEYS)
        if unknown:
            raise _HttpError(
                400,
                f"unknown /anonymize body keys: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(_ANONYMIZE_KEYS))})",
            )
        mode = payload.get("mode", "auto")
        delta_id = payload.get("delta_id")
        if mode == "delta":
            # Delta bodies mutate the configured store: "records" (alias
            # "append") holds the appends and "delete" the removals; either
            # side may be absent, and an entirely empty delta is the no-op
            # fast path, assembled from the stored window snapshots.  "delta_id"
            # is the client's idempotency token -- re-POSTing the same
            # delta with the same token never double-applies it.
            append_key = "records" if "records" in payload else "append"
            records = payload.get(append_key)
            delete = payload.get("delete")
            for name, value in ((append_key, records), ("delete", delete)):
                if value is not None:
                    _check_records(name, value)
            if delta_id is not None and not isinstance(delta_id, str):
                raise _HttpError(400, '"delta_id" must be a string')
        else:
            # "append" and "delete" only mean something to a delta; dropping
            # them silently would answer 200 for a mutation never applied.
            for key in ("append", "delete"):
                if key in payload:
                    raise _HttpError(
                        400,
                        f'"{key}" requires "mode": "delta" (got mode {mode!r}): '
                        "only incremental runs over a persistent store take "
                        "appends and deletes",
                    )
            records = payload.get("records")
            delete = None
            if not isinstance(records, list) or not records:
                raise _HttpError(
                    400, 'body must carry a non-empty "records" list of term arrays'
                )
            _check_records("records", records)
        run_async = bool(payload.get("async", False))
        request_fields = {
            "mode": mode,
            "overrides": payload.get("overrides") or {},
            "tag": payload.get("tag"),
            "deadline": payload.get("deadline"),
            "delete": delete,
            "delta_id": delta_id,
        }
        try:
            # Non-blocking submit on both shapes: a full job queue answers
            # 429 immediately instead of parking connection threads, and
            # the queue-wait of every HTTP request lands in the metrics.
            job = self.service.submit(records, block=False, **request_fields)
        except ReproError as exc:
            status, kind, headers = classify_error(exc)
            self._send_json(
                status, {"error": str(exc), "kind": kind}, headers=headers
            )
            return
        if run_async:
            job_id = self.registry.add(job)
            self._send_json(
                202,
                {"job_id": job_id, "state": job.state(), "href": f"/jobs/{job_id}"},
            )
            return
        try:
            result = job.result()
        except ReproError as exc:
            status, kind, headers = classify_error(exc)
            self._send_json(
                status, {"error": str(exc), "kind": kind}, headers=headers
            )
            return
        self._send_publication(
            {"mode": result.mode, "tag": result.tag, "summary": result.summary()},
            result,
        )


def _check_records(name: str, records) -> None:
    """Refuse a body's record list unless it is a list of term arrays.

    Every record must be a non-empty array of non-empty strings -- the
    JSONL reader's contract.  A number, ``null``, nested array or ``""``
    would otherwise be coerced into a term that collides with real ones,
    and a bare string would be split into its characters.
    """
    if not isinstance(records, list):
        raise _HttpError(400, f'"{name}" must be a list of term arrays')
    for index, record in enumerate(records):
        if not isinstance(record, list) or not record:
            raise _HttpError(400, f'"{name}"[{index}] is not a non-empty array of terms')
        for term in record:
            if not isinstance(term, str) or not term:
                raise _HttpError(
                    400,
                    f'"{name}"[{index}]: term {term!r} is not a non-empty string',
                )


def _compact(payload: dict) -> str:
    """A response body's JSON text, without optional whitespace."""
    return json.dumps(payload, separators=(",", ":"))


class _HttpError(Exception):
    """Internal control-flow error carrying an HTTP status + message + kind."""

    def __init__(self, status: int, message: str, kind: str = "bad_request"):
        super().__init__(message)
        self.status = status
        self.message = message
        self.kind = kind


class ServiceHTTPServer:
    """The ``repro serve`` server: a service bound to a threading HTTP listener.

    Args:
        service: the (open) :class:`AnonymizationService` to serve.
        host, port: bind address; ``port=0`` picks a free port (read it
            back from :attr:`port` -- the test suite does this).
        own_service: when true (default), :meth:`close` also closes the
            service; pass ``False`` to share an externally-managed service.
        quiet: suppress the stdlib per-request log lines.
        max_body_bytes: cap on ``POST`` bodies (``413`` above it); defaults
            to :data:`MAX_BODY_BYTES`.

    Use :meth:`serve_forever` to block (the CLI does), or :meth:`start`
    to serve from a background thread::

        service = AnonymizationService(config)
        server = ServiceHTTPServer(service, port=8350)
        server.start()
        ...
        server.close(drain=True)   # stop listening, drain jobs, close service
    """

    def __init__(
        self,
        service: AnonymizationService,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        own_service: bool = True,
        quiet: bool = True,
        max_body_bytes: int = MAX_BODY_BYTES,
    ):
        self.service = service
        self.own_service = own_service
        registry = _JobRegistry()
        handler = type(
            "_BoundServiceRequestHandler",
            (_ServiceRequestHandler,),
            {
                "service": service,
                "registry": registry,
                "quiet": quiet,
                "max_body_bytes": int(max_body_bytes),
            },
        )
        self.registry = registry
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    @property
    def host(self) -> str:
        """The bound host."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the bound listener."""
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve requests on the caller's thread until :meth:`close`."""
        self._httpd.serve_forever(poll_interval=0.1)

    def start(self) -> "ServiceHTTPServer":
        """Serve requests from a daemon background thread; returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever, name="repro-serve-http", daemon=True
            )
            self._thread.start()
        return self

    def close(self, drain: bool = True) -> None:
        """Graceful shutdown: stop listening, then drain (or cancel) jobs.

        The listener stops accepting connections first, so no new work can
        arrive; then the service is closed with the given ``drain``
        semantics (when this server owns it): ``drain=True`` finishes every
        queued job -- in-flight ``GET /jobs`` pollers see them complete --
        while ``drain=False`` cancels whatever has not started.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if self.own_service and not self.service.closed:
            self.service.close(drain=drain)


def serve(
    config=None,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    **server_kwargs,
) -> ServiceHTTPServer:
    """Build a service for ``config`` and start serving it in the background.

    Convenience for embedding; the CLI drives :class:`ServiceHTTPServer`
    directly so it can block on the caller's thread.
    """
    service = AnonymizationService(config)
    return ServiceHTTPServer(service, host, port, **server_kwargs).start()
