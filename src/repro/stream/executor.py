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
(:func:`publish_merged`, which a store-backed run hands the audited
window products its store keeps) and window-engine handling
(:func:`window_engine_for`).  Every step visits a :mod:`repro.faults`
injection point and checks the ambient request deadline
(:mod:`repro.core.deadline`), so a run cancels cooperatively.

**Scope of the memory bound.**  ``max_records_in_memory`` bounds the
records each engine run operates on: the planner sample and one window.
That is where disassociation's superlinear costs live
(HORPART/VERPART/REFINE over a window), so window size -- not dataset
size -- is the complexity driver.  What else a run holds depends on the
path:

* a cold run keeps every window's relabeled clusters, original records
  included, until its tail audits, merges and strips them, so its
  resident clusters grow with the dataset;
* a store-backed run turns each window it computes or reads into its
  :class:`WindowProduct` as soon as the window's audit passes, keeping
  no snapshot text, so it holds the cluster objects of one window at a
  time; the text of the publication still grows with the dataset, as it
  does for any API that returns the publication, and so does a boundary
  repair, which re-reads and decodes every window.
"""

from __future__ import annotations

import json
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Union

from repro import faults
from repro.core.clusters import (
    Cluster,
    DisassociatedDataset,
    JointCluster,
    SharedChunk,
    SimpleCluster,
    cluster_from_dict,
    paused_gc,
)
from repro.core import deadline
from repro.core.codec import cluster_from_payload
from repro.core.dataset import TransactionDataset
from repro.core.engine import (
    REPORT_STATS,
    AnonymizationParams,
    Disassociator,
    _fill_report,
    cluster_stats,
)
from repro.core.verification import audit
from repro.datasets.io import iter_records
from repro.exceptions import ParameterError
from repro.pubstore.schema import top_digest
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
        max_records_in_memory: hard bound on the records each engine run
            operates on (the planner sample and every window respect
            it); what a run holds besides is path-dependent (see the
            module docstring).
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
    """One engine window as the run tail sees it.

    Attributes:
        clusters: a cold run's relabeled private clusters; ``None`` for a
            stored window.
        product: a stored window's :class:`WindowProduct`; ``None`` when
            the window failed its audit (or is a cold run's).
        snapshot: a stored window's reader of its snapshot text (its
            :func:`~repro.core.codec.cluster_to_payload` list), called
            only when a boundary repair must decode every window.
    """

    clusters: Optional[list] = None
    product: Optional["WindowProduct"] = None
    snapshot: Optional[Callable[[], str]] = None


def decode_snapshot(snapshot: str) -> list:
    """The private clusters of one stored window snapshot's text."""
    with paused_gc():
        return [cluster_from_payload(item) for item in json.loads(snapshot)]


@dataclass(frozen=True)
class WindowProduct:
    """What one window contributes to a publication.

    Disassociation's guarantee is per top-level cluster (see
    :mod:`repro.stream.boundary`), so a window's audit verdict, the text
    of its public clusters and their statistics depend on the window's
    clusters and ``(k, m)`` alone, and a publication whose windows all
    pass is the concatenation of their products.  Only a window whose
    clusters pass :func:`~repro.core.verification.audit` on their own
    has a product, so a product is its window's verdict.  It holds only
    strings, integers and tuples of them: no caller can hold (or mutate)
    an object the store keeps, and the collector has nothing in it to
    scan.

    Attributes:
        fragments: the compact JSON text of the public clusters'
            ``to_dict`` forms, comma-separated -- the inside of a JSON
            array, so a publication's text is its windows' fragments
            spliced together.
        digests: the publication store's top-level digests of those
            forms, one per top-level cluster.
        records: the number of original records the clusters represent.
        stats: the clusters' :data:`~repro.core.engine.REPORT_STATS`.
    """

    fragments: str
    digests: tuple
    records: int
    stats: tuple


def window_product(clusters: list, k: int, m: int) -> Optional[WindowProduct]:
    """Audit one window's private clusters and serialize their public form.

    Returns ``None`` when the window fails its audit: a failing window
    has no product, and the run tail falls back to the boundary repair.
    """
    if not audit(DisassociatedDataset(clusters, k=k, m=m)).ok:
        return None
    return _public_product(clusters, k, m)


def _public_product(clusters: list, k: int, m: int) -> WindowProduct:
    """The product of private clusters already known to pass their audit."""
    public = [_without_private_records(cluster) for cluster in clusters]
    forms = [cluster.to_dict() for cluster in public]
    return WindowProduct(
        json.dumps(forms, separators=(",", ":"))[1:-1],
        tuple(top_digest(form) for form in forms),
        sum(cluster.size for cluster in public),
        cluster_stats(DisassociatedDataset(public, k=k, m=m)),
    )


class TextPublication(DisassociatedDataset):
    """A publication held as its compact JSON text: a store-backed run's result.

    The text (:attr:`text`) is the windows' product fragments spliced
    together -- byte for byte ``json.dumps(to_dict(), separators=(",",
    ":"))`` of the same publication -- so a caller that only forwards it
    (the HTTP layer) never builds a cluster object.  The clusters are
    decoded from the text on first access of :attr:`clusters`; until
    then :meth:`to_dict` parses the text, and ``len()`` and
    :meth:`total_records` answer from the products.
    :meth:`forms_at` (the publication store's refresh) parses a window's
    fragments only when one of its clusters is asked for, one window at
    a time.

    Args:
        k, m: the anonymity parameters.
        products: the :class:`WindowProduct` of every window, in
            publication order.
    """

    def __init__(self, k: int, m: int, products: list):
        self.k, self.m = int(k), int(m)
        self._products = products
        self._clusters: Optional[list] = None
        self._text: Optional[str] = None

    @property
    def text(self) -> str:
        """The publication's compact JSON text, spliced on first access."""
        if self._text is None:
            fragments = ",".join(p.fragments for p in self._products if p.fragments)
            self._text = f'{{"k":{self.k},"m":{self.m},"clusters":[{fragments}]}}'
        return self._text

    @property
    def clusters(self) -> list:
        """The top-level clusters, decoded from :attr:`text` on first access."""
        if self._clusters is None:
            with paused_gc():
                forms = json.loads(self.text)["clusters"]
                self._clusters = [cluster_from_dict(form) for form in forms]
        return self._clusters

    @clusters.setter
    def clusters(self, value) -> None:
        """Replace the clusters (:attr:`text` keeps the published form)."""
        self._clusters = list(value)

    @property
    def digests(self) -> list:
        """The publication store's top-level digests, in publication order."""
        return [digest for product in self._products for digest in product.digests]

    def __len__(self) -> int:
        if self._clusters is not None:
            return len(self._clusters)
        return sum(len(product.digests) for product in self._products)

    def total_records(self) -> int:
        """Number of original records represented by the publication."""
        if self._clusters is not None:
            return super().total_records()
        return sum(product.records for product in self._products)

    def to_dict(self) -> dict:
        """A fresh parse of :attr:`text` (or of the decoded clusters)."""
        if self._clusters is not None:
            return super().to_dict()
        with paused_gc():
            return json.loads(self.text)

    def forms_at(self, positions: Iterable[int]) -> Iterator[dict]:
        """The ``to_dict`` forms of the top-level clusters at ascending ``positions``."""
        if self._clusters is not None:
            yield from super().forms_at(positions)
            return
        products = iter(self._products)
        first = end = 0
        forms: list = []
        for position in positions:
            if position >= end:
                while position >= end:
                    product = next(products)
                    first, end = end, end + len(product.digests)
                forms = json.loads(f"[{product.fragments}]")
            yield forms[position - first]


def publish_merged(
    windows: list, params: AnonymizationParams, report
) -> DisassociatedDataset:
    """The shared run tail: merge, global boundary repair, strip, report.

    ``windows`` are the relabeled per-window :class:`Window` s in shard
    and window order, all of them a cold run's or all of them stored;
    relabeling already made labels unique, so the merge is a
    concatenation.  The guarantee is audited per window: a stored window
    arrives audited (with its product, or ``None`` when it failed), and a
    cold run's windows are audited here.  When every window passes, the
    publication is the concatenation of the windows' public clusters --
    exactly what a global audit with nothing to repair publishes.
    Otherwise the global boundary repair runs over every window's private
    clusters (stored ones decoded afresh from their snapshots), and its
    stripped result is published.  Fills ``report``'s ``merge_seconds``,
    ``verify_seconds`` (added to whatever auditing the caller already
    timed), ``repair`` and cluster statistics.

    Stored windows publish a :class:`TextPublication` spliced from their
    products (after a repair, from the repaired publication's one
    product), so no cluster object is built when they all pass.
    """
    faults.check("stream.merge")
    deadline.check("stream.merge")
    faults.check("stream.verify")
    deadline.check("stream.verify")
    start = time.perf_counter()
    k, m = params.k, params.m
    stored = all(window.clusters is None for window in windows)
    if stored:
        products = [window.product for window in windows]
        passed = all(product is not None for product in products)
    else:
        verdicts, public = [], []
        # The public clusters are retained and the audit's garbage is
        # acyclic, so the collector would only rescan the growing live set
        # (0.15-0.3 s of a 100k-record run's tail).
        with paused_gc():
            for window in windows:
                clusters = window.clusters
                verdicts.append(audit(DisassociatedDataset(clusters, k=k, m=m)).ok)
                public.extend(_without_private_records(c) for c in clusters)
        passed = all(verdicts)
    if passed:
        report.repair = BoundaryRepairSummary()
    else:
        private = (
            decode_snapshot(window.snapshot()) if stored else window.clusters
            for window in windows
        )
        merged = DisassociatedDataset([c for cs in private for c in cs], k=k, m=m)
        merged, report.repair = verify_and_repair(merged)
        if stored:
            products = [_public_product(merged.clusters, k, m)]
        else:
            public = [_without_private_records(c) for c in merged.clusters]
    verified = time.perf_counter()
    if stored:
        published = TextPublication(k, m, products)
        stats = [product.stats for product in products]
        for name, value in zip(REPORT_STATS, map(sum, zip(*stats))):
            setattr(report, name, value)
    else:
        published = DisassociatedDataset(public, k=k, m=m)
        _fill_report(report, published)
    report.verify_seconds += verified - start
    report.merge_seconds = time.perf_counter() - verified
    return published


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
        and the publication is assembled from their clusters.  The
        directory is removed afterwards, whether or not the run failed; ``store_dir``
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
    """The cluster tree without the private original records (chunks shared)."""
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
