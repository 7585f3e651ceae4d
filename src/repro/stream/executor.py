"""Sharded streaming execution of the disassociation pipeline.

:class:`ShardedPipeline` anonymizes datasets too large for one
:class:`~repro.core.engine.Pipeline` pass, under a hard bound on resident
records (``max_records_in_memory``).  A run is one build of a throwaway
:class:`~repro.stream.store.ShardStore` in a temporary directory, removed
afterwards whether or not the run failed:

1. **route**  -- stream every record into the store's one mutation
   transaction, routed to its shard (a ``horpart`` plan is built from the
   first ``max_records_in_memory`` records, :mod:`repro.stream.planner`);
2. **window** -- for each shard in order, read its records back in
   arrival-order windows of at most ``max_records_in_memory`` records and
   run the existing engine on each window;
3. **merge**  -- concatenate the per-window cluster lists with
   deterministic relabeling (``S<shard>W<window>.<label>``), so the merged
   publication is identical for any interleaving and shared-chunk
   contribution keys stay consistent for reconstruction;
4. **verify** -- audit every window's clusters with the independent
   auditor (the guarantee is per cluster, so the windows' verdicts are
   the merged dataset's); if one fails, run the global boundary pass
   (:mod:`repro.stream.boundary`) over the merged dataset and demote
   boundary-violating terms until the audit passes.

Shards are processed *sequentially* by design: running shards concurrently
would multiply resident records by the number of shards and void the memory
bound.

The durable counterpart is the long-lived store's
:class:`~repro.stream.store.IncrementalPipeline`: it runs the same steps
over a store that outlives the run, re-anonymizes only the windows a delta
changed, and finishes an interrupted build on re-run.  A cold run is
simply re-run instead.  Both pipelines share this module's run tail
(:func:`publish_merged`, which delta runs give a :class:`WindowMemo` of
audited window products) and window-engine handling
(:func:`window_engine_for`).  Every step visits a :mod:`repro.faults`
injection point and checks the ambient request deadline
(:mod:`repro.core.deadline`), so a run cancels cooperatively.

**Scope of the memory bound.**  ``max_records_in_memory`` bounds the
*original-record working set*: the planner sample and the window each
engine run operates on.  That is where disassociation's superlinear costs
live (HORPART/VERPART/REFINE over a window), so it is the bound that makes
window size -- not dataset size -- the complexity driver.  The *output*
(published clusters accumulated by merge and walked by the global verify)
necessarily grows with the dataset, as it does for any API that returns
the publication; private per-record data is stripped from the returned
clusters so they hold only what would be serialized.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from repro import faults
from repro.core.clusters import (
    Cluster,
    DisassociatedDataset,
    JointCluster,
    RecordChunk,
    SharedChunk,
    SimpleCluster,
    TermChunk,
    paused_gc,
)
from repro.core import deadline
from repro.core.codec import cluster_from_payload
from repro.core.dataset import TransactionDataset
from repro.core.engine import AnonymizationParams, Disassociator, _fill_report
from repro.core.verification import audit
from repro.datasets.io import iter_records
from repro.exceptions import ParameterError
from repro.pubstore.schema import cluster_digests, top_digest
from repro.stream.boundary import BoundaryRepairSummary, verify_and_repair
from repro.stream.planner import STRATEGIES

PathLike = Union[str, Path]

#: Default number of shards; matches the acceptance benchmark.
DEFAULT_SHARDS = 4

#: Default bound on resident records; small enough that even the benchmark
#: datasets need several windows per shard.
DEFAULT_MAX_RECORDS_IN_MEMORY = 2000


@dataclass(frozen=True)
class StreamParams:
    """Parameters of the sharded streaming execution.

    Attributes:
        shards: number of shards records are routed into.
        max_records_in_memory: hard bound on the original-record working
            set (planner sample and per-window datasets respect it); the
            accumulated output clusters are proportional to the dataset,
            like any returned publication (see the module docstring).
        strategy: shard routing strategy (``hash`` or ``horpart``).
        spill_dir: where :class:`ShardedPipeline` creates its throwaway
            store: a new temporary directory under this path (created if
            needed), removed after the run.  ``None`` (default): under the
            system's temporary directory.  Nothing in it outlives the run:
            crash recovery goes through ``store_dir``.
        store_dir: directory of the persistent incremental shard store
            (:mod:`repro.stream.store`).  Ignored by :class:`ShardedPipeline`
            itself; it configures where
            :class:`~repro.stream.store.IncrementalPipeline` keeps the
            long-lived store that delta runs (record appends/deletes)
            re-anonymize incrementally, and that an interrupted build
            recovers from.  Like ``spill_dir``, the location is the
            store's identity, not part of its parameter fingerprint.
        pubstore_dir: directory of the indexed publication store
            (:mod:`repro.pubstore`).  When set,
            :class:`~repro.stream.store.IncrementalPipeline` refreshes the
            store's indexes on every delta publish, stamped with the shard
            store's generation so the queryable snapshot is never ahead of
            or behind the publication it serves.  Like ``store_dir``, the
            location is the store's identity, not part of its parameter
            fingerprint.
    """

    shards: int = DEFAULT_SHARDS
    max_records_in_memory: int = DEFAULT_MAX_RECORDS_IN_MEMORY
    strategy: str = "hash"
    spill_dir: Optional[PathLike] = None
    store_dir: Optional[PathLike] = None
    pubstore_dir: Optional[PathLike] = None

    def __post_init__(self):
        if self.shards < 1:
            raise ParameterError(f"shards must be >= 1, got {self.shards}")
        if self.max_records_in_memory < 2:
            raise ParameterError(
                f"max_records_in_memory must be >= 2, got {self.max_records_in_memory}"
            )
        if self.strategy not in STRATEGIES:
            raise ParameterError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )


@contextmanager
def window_engine_for(
    params: AnonymizationParams, borrowed: Optional[Disassociator] = None
) -> Iterator[Disassociator]:
    """The engine a run executes its windows on (``verify`` off).

    Without ``borrowed`` a private engine is built and closed afterwards.
    A caller-owned (typically warm) engine is borrowed instead: its
    parameters are swapped for the run and its parameters and vocabulary
    restored afterwards; it is never closed.
    """
    window_params = replace(params, verify=False)
    if borrowed is None:
        engine = Disassociator(window_params)
        try:
            yield engine
        finally:
            engine.close()
        return
    saved_params, saved_vocabulary = borrowed.params, borrowed.vocabulary
    borrowed.params = window_params
    try:
        yield borrowed
    finally:
        borrowed.params = saved_params
        borrowed.vocabulary = saved_vocabulary


@dataclass
class Window:
    """One engine window's relabeled private clusters, as the run tail sees them.

    Attributes:
        clusters: the private clusters when the run holds them in memory
            (windows the engine just ran); ``None`` to decode them from
            ``snapshot`` on demand.
        snapshot: the window's stored payload text
            (:func:`~repro.core.codec.cluster_to_payload` list), or
            ``None`` for a cold run's in-memory windows.
        digest: the content digest of ``snapshot``'s exact text; the key
            under which a :class:`WindowMemo` keeps the window's product.
            ``None``: never memoized.
    """

    clusters: Optional[list] = None
    snapshot: Optional[str] = None
    digest: Optional[str] = None

    @classmethod
    def stored(cls, snapshot: str, clusters: Optional[list] = None) -> "Window":
        """A window read from (or just written to) a store, digest computed."""
        digest = hashlib.blake2b(snapshot.encode("utf-8"), digest_size=16)
        return cls(clusters, snapshot, digest.hexdigest())

    def private_clusters(self) -> list:
        """The in-memory private clusters, else a fresh decode of the snapshot."""
        if self.clusters is not None:
            return self.clusters
        with paused_gc():
            return [cluster_from_payload(item) for item in json.loads(self.snapshot)]


@dataclass(frozen=True)
class WindowProduct:
    """What one window contributes to a publication.

    Disassociation's guarantee is per top-level cluster (see
    :mod:`repro.stream.boundary`), so a window's audit verdict, its
    public clusters and their serialized forms depend on the window's
    clusters and ``(k, m)`` alone.

    Attributes:
        ok: whether the window's clusters pass
            :func:`~repro.core.verification.audit` on their own.
        public: the clusters without their private original records.
        fragments: the compact JSON text of ``public``'s ``to_dict``
            forms (``None`` unless asked).  Text, not dicts: every run
            parses its own payload from it, so no caller ever holds an
            object the memo keeps.
        digests: the publication store's top-level digests of those
            forms (``None`` unless asked).
    """

    ok: bool
    public: list
    fragments: Optional[str] = None
    digests: Optional[list] = None


def _window_product(
    clusters: list, k: int, m: int, *, serialize: bool
) -> tuple[WindowProduct, Optional[list]]:
    """Audit, strip and (with ``serialize``) serialize one window's clusters.

    Returns the product and, with ``serialize``, the ``to_dict`` forms its
    JSON text was encoded from -- fresh objects the memo never holds.
    """
    ok = audit(DisassociatedDataset(clusters, k=k, m=m)).ok
    public = [_without_private_records(cluster) for cluster in clusters]
    if not serialize:
        return WindowProduct(ok, public), None
    forms = [cluster.to_dict() for cluster in public]
    digests = [top_digest(form) for form in forms]
    text = json.dumps(forms, separators=(",", ":"))
    return WindowProduct(ok, public, text, digests), forms


class WindowMemo:
    """Process-lived products of the windows of the latest publication.

    Maps ``(window digest, k, m)`` to the :class:`WindowProduct` of a
    window whose audit passed.  The key is the digest of the window's
    snapshot bytes, computed when the window is built or read and never
    trusted from storage, so a snapshot that changed on disk misses and
    is audited again.  :func:`publish_merged` replaces the contents after
    every run with the products of the publication it assembled, which
    bounds the memo by one publication without a size knob.  Thread-safe:
    a service lends one memo to the pipelines of all its workers.  Runs
    over different stores replace each other's products; that costs
    the next run its hits, never its correctness, because a product
    depends only on the key.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._products: dict = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._products)

    def get(self, key: tuple) -> Optional[WindowProduct]:
        """The product memoized under ``key``, or ``None``."""
        with self._lock:
            return self._products.get(key)

    def replace(self, products: dict) -> None:
        """Keep exactly ``products`` (key -> :class:`WindowProduct`)."""
        with self._lock:
            self._products = products


class MergedPublication(NamedTuple):
    """The run tail's result (see :func:`publish_merged`)."""

    #: The published dataset.
    published: DisassociatedDataset
    #: ``published.to_dict()`` (memoized runs only, else ``None``).
    payload: Optional[dict]
    #: The top-level digests of ``payload`` (memoized runs only).
    digests: Optional[list]


def publish_merged(
    windows: list,
    params: AnonymizationParams,
    report,
    memo: Optional[WindowMemo] = None,
) -> MergedPublication:
    """The shared run tail: merge, global boundary repair, strip, report.

    ``windows`` are the relabeled per-window :class:`Window` s in shard
    and window order; relabeling already made labels unique, so the
    merge is a concatenation.  The guarantee is audited per window: each
    window yields a :class:`WindowProduct` (its verdict and public
    clusters), served from ``memo`` when it holds the window's digest.
    When every window passes, the publication is the concatenation of
    the products -- exactly what a global audit with nothing to repair
    publishes.  Otherwise the global boundary repair runs over every
    window's private clusters (decoded afresh from their snapshots; the
    repair's demotions consult the private original records), and its
    stripped result is published.  Fills ``report``'s ``merge_seconds``,
    ``verify_seconds``, ``repair`` and cluster statistics.

    With a ``memo`` the result also carries the ``to_dict`` payload and
    the publication store's top-level digests, and the memo keeps the
    passing products of this publication afterwards.  The returned
    publication and payload are the caller's own copies: mutating them
    never reaches the memo.  Without a memo (a cold run) nothing is
    serialized or digested here.
    """
    faults.check("stream.merge")
    deadline.check("stream.merge")
    faults.check("stream.verify")
    deadline.check("stream.verify")
    start = time.perf_counter()
    k, m = params.k, params.m
    # (memo key, product, to_dict forms this run built or None) per window.
    entries = []
    # Products are retained and the audit's garbage is acyclic, so the
    # collector would only rescan the growing live set here.
    with paused_gc():
        for window in windows:
            key = None if memo is None else (window.digest, k, m)
            product, forms = None if key is None else memo.get(key), None
            if product is None:
                product, forms = _window_product(
                    window.private_clusters(), k, m, serialize=memo is not None
                )
            entries.append((key, product, forms))
    payload = digests = None
    if all(product.ok for _, product, _ in entries):
        report.repair = BoundaryRepairSummary()
        verified = time.perf_counter()
        public = [cluster for _, product, _ in entries for cluster in product.public]
        if memo is not None:
            # The caller gets its own objects: fresh cluster copies, and
            # each window's forms as this run built them or parsed afresh
            # from the memoized text.
            with paused_gc():
                public = [_public_copy(cluster) for cluster in public]
                clusters: list = []
                for _, product, forms in entries:
                    clusters.extend(
                        forms if forms is not None else json.loads(product.fragments)
                    )
            payload = {"k": k, "m": m, "clusters": clusters}
            digests = [d for _, product, _ in entries for d in product.digests]
        published = DisassociatedDataset(public, k=k, m=m)
    else:
        merged = DisassociatedDataset(
            [c for window in windows for c in window.private_clusters()], k=k, m=m
        )
        merged, report.repair = verify_and_repair(merged)
        published = DisassociatedDataset(
            [_public_copy(cluster) for cluster in merged.clusters], k=k, m=m
        )
        verified = time.perf_counter()
        if memo is not None:
            payload = published.to_dict()
            digests, _ = cluster_digests(payload)
    if memo is not None:
        memo.replace({key: product for key, product, _ in entries if product.ok})
    report.verify_seconds = verified - start
    report.merge_seconds = time.perf_counter() - verified
    _fill_report(report, published)
    return MergedPublication(published, payload, digests)


class ShardedPipeline:
    """Bounded-memory sharded counterpart of :class:`~repro.core.engine.Pipeline`.

    Args:
        params: the anonymization parameters applied inside every window
            (``verify`` is handled globally by the boundary pass, not per
            window).
        stream: the sharding/memory parameters.

    ``max_records_in_memory`` must be at least ``params.max_cluster_size``:
    a window smaller than the HORPART bound would silently tighten the
    clustering and change the output semantics.

    ``window_engine`` optionally injects a caller-owned (typically warm)
    :class:`~repro.core.engine.Disassociator` to run the windows on --- the
    service layer passes its long-lived engine.  The pipeline temporarily
    swaps the engine's parameters/vocabulary for the run and restores
    them; it never closes an injected engine.  Without it, the pipeline
    owns a private engine per run.
    """

    def __init__(
        self,
        params: Optional[AnonymizationParams] = None,
        stream: Optional[StreamParams] = None,
        *,
        window_engine: Optional[Disassociator] = None,
    ):
        self.params = params if params is not None else AnonymizationParams()
        self.stream = stream if stream is not None else StreamParams()
        if self.stream.max_records_in_memory < self.params.max_cluster_size:
            raise ParameterError(
                "max_records_in_memory must be at least max_cluster_size "
                f"(got {self.stream.max_records_in_memory} < "
                f"{self.params.max_cluster_size})"
            )
        self.window_engine = window_engine
        self.last_report = None

    # -- public entry points ------------------------------------------- #
    def anonymize_file(
        self, path: PathLike, format: str = "auto", delimiter: Optional[str] = None
    ) -> DisassociatedDataset:
        """Stream a dataset file through the sharded pipeline."""
        return self.run(iter_records(path, format=format, delimiter=delimiter))

    def anonymize(self, dataset: TransactionDataset) -> DisassociatedDataset:
        """Anonymize an in-memory dataset through the sharded path.

        Mostly useful for equivalence testing and benchmarks; the point of
        the subsystem is :meth:`anonymize_file` / :meth:`run` on streams
        that never fit in memory.
        """
        return self.run(iter(dataset))

    def run(self, records: Iterable[Iterable]) -> DisassociatedDataset:
        """Anonymize a one-shot stream of records through a throwaway store.

        The records stream into a fresh
        :class:`~repro.stream.store.ShardStore` in a new temporary
        directory (under ``spill_dir`` when set), every window is computed
        and the publication is assembled without a memo.  The directory is
        removed afterwards, whether or not the run failed; ``store_dir``
        and ``pubstore_dir`` are ignored.
        """
        # Imported here: the store module builds on this one.
        from repro.stream.store import IncrementalPipeline

        parent = self.stream.spill_dir
        if parent is not None:
            Path(parent).mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="repro-shards-", dir=parent) as tmp:
            pipeline = IncrementalPipeline(
                self.params,
                replace(self.stream, store_dir=tmp, pubstore_dir=None),
                window_engine=self.window_engine,
            )
            self.last_report = pipeline._new_report()
            return pipeline._publish_stream(records, self.last_report)

def _without_private_records(cluster: Cluster) -> Cluster:
    """The cluster tree without the private original records.

    Shares the chunks with ``cluster``; see :func:`_public_copy` for a
    copy that shares nothing mutable.
    """
    if isinstance(cluster, JointCluster):
        return JointCluster(
            [_without_private_records(child) for child in cluster.children],
            cluster.shared_chunks,
            label=cluster.label,
        )
    if cluster.original_records is None:
        return cluster
    return SimpleCluster(
        size=cluster.size,
        record_chunks=cluster.record_chunks,
        term_chunk=cluster.term_chunk,
        label=cluster.label,
    )


def _public_copy(cluster: Cluster) -> Cluster:
    """A copy of the cluster tree without the private original records.

    Every cluster, chunk, list and dict of the copy is its own; only the
    immutable term sets are shared, so mutating the copy never reaches
    the original.
    """
    if isinstance(cluster, JointCluster):
        return JointCluster(
            [_public_copy(child) for child in cluster.children],
            [
                SharedChunk._from_normalized(
                    chunk.domain, list(chunk.subrecords), dict(chunk.contributions)
                )
                for chunk in cluster.shared_chunks
            ],
            label=cluster.label,
        )
    return SimpleCluster._from_normalized(
        cluster.size,
        [
            RecordChunk._from_normalized(chunk.domain, list(chunk.subrecords))
            for chunk in cluster.record_chunks
        ],
        TermChunk(cluster.term_chunk.terms),
        cluster.label,
        None,
    )


def relabel_cluster(cluster: Cluster, prefix: str) -> Cluster:
    """Prefix every label in a cluster tree (deterministic merge identity).

    Shared-chunk contribution keys reference member-cluster labels, so they
    are rewritten with the same prefix -- reconstruction keeps slicing the
    shared sub-records per contributing cluster correctly after the merge.
    """
    if isinstance(cluster, JointCluster):
        children = [relabel_cluster(child, prefix) for child in cluster.children]
        shared = [
            SharedChunk(
                chunk.domain,
                chunk.subrecords,
                {f"{prefix}{label}": count for label, count in chunk.contributions.items()},
            )
            for chunk in cluster.shared_chunks
        ]
        return JointCluster(children, shared, label=f"{prefix}{cluster.label}")
    return SimpleCluster(
        size=cluster.size,
        record_chunks=cluster.record_chunks,
        term_chunk=cluster.term_chunk,
        label=f"{prefix}{cluster.label}",
        original_records=cluster.original_records,
    )
