"""Span recorder the benchmark installs, from outside, in the process under test.

Nothing under ``src/`` knows about it: :func:`install` replaces public
entry points with timing wrappers at the attribute each caller resolves
(a class attribute for methods, the importing module's global for
functions such as ``repro.stream.executor.verify_and_repair``).

A span records its name, start, end (``time.monotonic``, which on Linux is
the system-wide ``CLOCK_MONOTONIC``, so the load generator's clock and the
server's agree), parent span and operation id.  Operations are opened by
the caller: an HTTP request carries ``X-Bench-Op`` / ``X-Bench-Trace``
headers, a CLI run gets them from the environment.  Work done on a
service worker thread is linked to the request that queued it when its
``Job`` is created.  Spans are kept in memory and written out once, by
:meth:`Recorder.dump`, when the process is shut down.

A generator (``iter_jsonl``) cannot be one span: its work interleaves with
the consumer.  Each ``next()`` is timed instead; the total is recorded as
one ``gen`` entry and charged to the span that was current at each call,
so the consumer's self time excludes it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time

#: Operation-id and trace-flag headers a load generator sends.
OP_HEADER = "X-Bench-Op"
TRACE_HEADER = "X-Bench-Trace"


class Recorder:
    """Thread-safe in-memory span store with per-thread span stacks."""

    def __init__(self):
        self.spans: list = []
        self.gens: list = []
        self.missing: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._links: dict = {}
        self._lock = threading.Lock()

    # -- context ----------------------------------------------------------- #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """The innermost open span of this thread (a dict), or ``None``."""
        stack = self._stack()
        return stack[-1] if stack else None

    def link(self, key) -> None:
        """Remember this thread's context for work another thread runs for ``key``."""
        span = self.current()
        if span is not None:
            with self._lock:
                self._links[key] = (span, time.monotonic())

    def _take_link(self, key):
        with self._lock:
            return self._links.pop(key, None)

    # -- spans ------------------------------------------------------------- #
    def call(self, name, fn, args, kwargs, *, parent=None, op=None, hook=None, attrs=None):
        """Run ``fn`` inside a span; untraced contexts call straight through."""
        if parent is None and op is None:
            parent = self.current()
            if parent is None:
                return fn(*args, **kwargs)
            op = parent["op"]
        span = {
            "id": next(self._ids),
            "parent": parent["id"] if parent is not None else None,
            "op": op,
            "name": name,
            "gen_s": 0.0,
            "attrs": dict(attrs or {}),
        }
        state = self._hook(hook.before, args, kwargs) if hook is not None else None
        stack = self._stack()
        stack.append(span)
        span["start"] = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.monotonic()
            stack.pop()
            with self._lock:
                self.spans.append(span)
        if hook is not None:
            span["attrs"].update(self._hook(hook.after, state, result, args) or {})
        return result

    def _hook(self, method, *args):
        # Hooks only read; one that breaks (a report field renamed by a
        # later change, no /proc) must never change the program's behaviour.
        try:
            return method(*args)
        except Exception as exc:  # recorded, reported as a missing wrapper
            with self._lock:
                self.missing.append(f"{type(method.__self__).__name__}: {exc!r}")
            return None

    def dump(self, path: str) -> None:
        """Write every recorded span out (once, at shutdown)."""
        with self._lock:
            payload = {"spans": self.spans, "gens": self.gens, "missing": self.missing}
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)


class _TimedIterator:
    """Times every ``next()`` of a wrapped generator (see module doc)."""

    def __init__(self, recorder: Recorder, name: str, inner, op):
        self._recorder, self._inner = recorder, inner
        self._entry = {"name": name, "op": op, "busy_s": 0.0, "items": 0}
        with recorder._lock:
            recorder.gens.append(self._entry)

    def __iter__(self):
        return self

    def __next__(self):
        start = time.monotonic()
        try:
            item = next(self._inner)
        finally:
            elapsed = time.monotonic() - start
            self._entry["busy_s"] += elapsed
            consumer = self._recorder.current()
            if consumer is not None:
                consumer["gen_s"] += elapsed
        self._entry["items"] += 1
        return item


# --------------------------------------------------------------------------- #
# hooks: read-only attributes recorded after a call returns
# --------------------------------------------------------------------------- #
class _Hook:
    def before(self, args, kwargs):
        return None

    def after(self, state, result, args) -> dict:
        return {}


class _EngineHook(_Hook):
    COUNTERS = (
        "refine_merges_attempted",
        "refine_merges_applied",
        "refine_merges_skipped_memo",
        "refine_pairs_prefiltered",
    )

    def after(self, state, result, args):
        counters = args[0].last_report.counters()
        return {name: counters.get(name, 0) for name in self.COUNTERS}


class _ShardedHook(_Hook):
    def after(self, state, result, args):
        report = args[0].last_report
        return {
            "plan_seconds": report.plan_seconds,
            "merge_seconds": report.merge_seconds,
            "peak_resident_records": report.peak_resident_records,
        }


def _written_bytes() -> int:
    """Bytes this process has passed to ``write()`` so far (``/proc/self/io``)."""
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


class _IncrementalHook(_Hook):
    def before(self, args, kwargs):
        append = kwargs.get("append", args[1] if len(args) > 1 else ())
        delete = kwargs.get("delete", args[2] if len(args) > 2 else ())
        user = len(json.dumps([sorted(r) for r in append])) + len(
            json.dumps([sorted(r) for r in delete])
        )
        return user, _written_bytes()

    def after(self, state, result, args):
        user, written = state if state is not None else (0, _written_bytes())
        counters = args[0].last_report.counters()
        return {
            "windows_reused": counters["windows_reused"],
            "windows_recomputed": counters["windows_recomputed"],
            "user_bytes": user,
            "written_bytes": _written_bytes() - written,
        }


class _BoundaryHook(_Hook):
    def after(self, state, result, args):
        summary = result[1]
        return {"rounds": summary.rounds, "demotions": summary.total_demoted()}


class _PubstoreBuildHook(_Hook):
    def after(self, state, result, args):
        store = args[0]
        size = sum(
            os.path.getsize(str(store.path) + suffix)
            for suffix in ("", "-wal")
            if os.path.exists(str(store.path) + suffix)
        )
        return {"file_bytes": size, "records": store.total_records}


# --------------------------------------------------------------------------- #
# installation
# --------------------------------------------------------------------------- #
#: (module, attribute path, span name, hook).  Methods are patched on their
#: class, functions in the module whose global the caller resolves.
TARGETS = (
    ("repro.service.service", "AnonymizationService.query", "service.query", None),
    ("repro.core.engine", "Disassociator.anonymize", "engine.anonymize", _EngineHook()),
    ("repro.core.engine", "HorizontalPhase.run", "engine.horizontal", None),
    ("repro.core.engine", "VerticalPhase.run", "engine.vertical", None),
    ("repro.core.engine", "RefinePhase.run", "engine.refine", None),
    ("repro.core.engine", "VerifyPhase.run", "engine.verify", None),
    ("repro.core.vocab", "EncodedDataset.from_dataset", "engine.encode", None),
    ("repro.stream.executor", "ShardedPipeline.run", "stream.run", _ShardedHook()),
    ("repro.stream.executor", "ShardedPipeline._plan_and_spill", "stream.plan_shard", None),
    ("repro.stream.executor", "ShardedPipeline._anonymize_shards", "stream.windows", None),
    ("repro.stream.store", "IncrementalPipeline.run", "stream.run", _IncrementalHook()),
    ("repro.stream.store", "IncrementalPipeline._reconcile_windows", "stream.windows", None),
    ("repro.stream.executor", "verify_and_repair", "boundary.verify_repair", _BoundaryHook()),
    ("repro.stream.store", "verify_and_repair", "boundary.verify_repair", _BoundaryHook()),
    ("repro.stream.executor", "append_jsonl", "io.spill", None),
    ("repro.stream.store", "ShardStore.__init__", "store.open", None),
    ("repro.stream.store", "ShardStore.apply_delta", "store.apply_delta", None),
    ("repro.stream.store", "ShardStore.window_texts", "store.window_read", None),
    ("repro.stream.store", "ShardStore.get_window", "store.window_read", None),
    ("repro.stream.store", "ShardStore.put_window", "store.window_write", None),
    ("repro.stream.store", "ShardStore.put_publication", "store.publication_write", None),
    ("repro.stream.store", "cluster_from_payload", "clusters.from_dict", None),
    ("repro.stream.store", "cluster_to_payload", "clusters.to_dict", None),
    ("repro.pubstore.store", "PublicationStore.build", "pubstore.build", _PubstoreBuildHook()),
    ("repro.pubstore.store", "PublicationStore.support", "pubstore.support", None),
    ("repro.pubstore.engine", "QueryEngine.execute", "pubstore.execute", None),
    ("repro.core.clusters", "DisassociatedDataset.to_dict", "clusters.to_dict", None),
    ("repro.core.clusters", "DisassociatedDataset.from_dict", "clusters.from_dict", None),
    ("repro.service.request", "PublicationResult.save", "cli.save", None),
)

#: Generators timed per ``next()`` (see :class:`_TimedIterator`).
GENERATORS = (
    ("repro.datasets.io", "iter_jsonl", "io.read"),
    ("repro.stream.executor", "iter_jsonl", "io.read"),
)


def _resolve(module_name: str, path: str):
    """``(owner, attribute name, raw attribute)`` or ``None`` when absent."""
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if raw is None:
        return None
    return owner, name, raw


def _patch(recorder, target, make_wrapper):
    module_name, path = target[0], target[1]
    resolved = _resolve(module_name, path)
    if resolved is None:
        recorder.missing.append(f"{module_name}.{path}")
        return
    owner, name, raw = resolved
    if isinstance(raw, classmethod):
        setattr(owner, name, classmethod(make_wrapper(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(owner, name, staticmethod(make_wrapper(raw.__func__)))
    else:
        setattr(owner, name, make_wrapper(raw))


def install() -> Recorder:
    """Wrap every target in :data:`TARGETS`, :data:`GENERATORS` and the HTTP/service seams.

    Returns the new :class:`Recorder` the wrappers record into.
    """
    recorder = Recorder()
    for module_name, path, span_name, hook in TARGETS:

        def make(fn, span_name=span_name, hook=hook):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return recorder.call(span_name, fn, args, kwargs, hook=hook)

            return wrapper

        _patch(recorder, (module_name, path), make)

    for module_name, path, span_name in GENERATORS:

        def make_gen(fn, span_name=span_name):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                current = recorder.current()
                if current is None:
                    return inner
                return _TimedIterator(recorder, span_name, iter(inner), current["op"])

            return wrapper

        _patch(recorder, (module_name, path), make_gen)

    # HTTP requests open an operation from the load generator's headers.
    def make_handler(fn):
        @functools.wraps(fn)
        def wrapper(handler):
            op = handler.headers.get(OP_HEADER)
            if op is None or handler.headers.get(TRACE_HEADER) != "1":
                return fn(handler)
            return recorder.call("http.request", fn, (handler,), {}, op=op)

        return wrapper

    for method in ("do_GET", "do_POST"):
        _patch(recorder, ("repro.service.http", f"_ServiceRequestHandler.{method}"), make_handler)

    # A queued job runs on a worker thread: link it to the request thread
    # when the Job is created (before it is enqueued), pick it up there.
    def make_job_init(fn):
        @functools.wraps(fn)
        def wrapper(job, request, *args, **kwargs):
            fn(job, request, *args, **kwargs)
            recorder.link(id(request))

        return wrapper

    def make_execute(fn):
        @functools.wraps(fn)
        def wrapper(service, request, *args, **kwargs):
            linked = recorder._take_link(id(request))
            if linked is None:
                return recorder.call("service.execute", fn, (service, request) + args, kwargs)
            parent, queued_at = linked
            return recorder.call(
                "service.execute",
                fn,
                (service, request) + args,
                kwargs,
                parent=parent,
                op=parent["op"],
                attrs={"queued_at": queued_at},
            )

        return wrapper

    _patch(recorder, ("repro.service.service", "Job.__init__"), make_job_init)
    _patch(recorder, ("repro.service.service", "AnonymizationService._execute"), make_execute)
    return recorder
