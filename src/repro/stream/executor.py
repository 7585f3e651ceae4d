"""Sharded streaming execution of the disassociation pipeline.

:class:`ShardedPipeline` anonymizes datasets too large for one
:class:`~repro.core.engine.Pipeline` pass, under a hard bound on resident
records (``max_records_in_memory``).  One streaming pass over the input:

1. **plan**   -- buffer the first ``max_records_in_memory`` records as a
   sample and build the shard planner from it (:mod:`repro.stream.planner`);
2. **shard**  -- route every record (sample first, then the rest of the
   stream) to its shard's JSONL spill file, through write buffers that are
   flushed whenever the total buffered count reaches the memory bound;
3. **anonymize** -- for each shard in order, read the spill file back in
   windows of at most ``max_records_in_memory`` records and run the
   existing engine on each window;
4. **merge**  -- concatenate the per-window cluster lists with
   deterministic relabeling (``S<shard>W<window>.<label>``), so the merged
   publication is identical for any interleaving and shared-chunk
   contribution keys stay consistent for reconstruction;
5. **verify** -- run the global boundary pass
   (:mod:`repro.stream.boundary`): re-audit the merged dataset across shard
   boundaries and demote boundary-violating terms until the independent
   audit passes.

Shards are processed *sequentially* by design: running shards concurrently
would multiply resident records by the number of shards and void the memory
bound.  Multi-host sharding (one shard per host) is the natural next step
and only needs the spill files shipped.

**Checkpointed runs.**  With an explicit ``spill_dir`` the run is
checkpointed by default (see :mod:`repro.stream.checkpoint`): a durable
``manifest.json`` records the plan and the spill completion, and each
shard's relabeled cluster list is snapshotted once the shard finishes.
After a crash, ``run(resume=True)`` (or ``repro anonymize --resume``)
skips every completed shard, re-runs only the interrupted one from its
spill file, and re-merges -- producing a publication bit-for-bit identical
to an uninterrupted run, because shards share no state (each gets a fresh
vocabulary) and merge/verify are deterministic functions of the per-shard
cluster lists.  The streaming phases double as cooperative cancellation
points: each visits a :mod:`repro.faults` injection point and checks the
ambient request deadline (:mod:`repro.core.deadline`).

**Scope of the memory bound.**  ``max_records_in_memory`` bounds the
*original-record working set*: the planner sample, the spill buffers and
the window each engine run operates on.  That is where disassociation's
superlinear costs live (HORPART/VERPART/REFINE over a window), so it is
the bound that makes window size -- not dataset size -- the complexity
driver.  The *output* (published clusters accumulated by merge and walked
by the global verify) necessarily grows with the dataset, as it does for
any API that returns the publication; private per-record data is stripped
from the returned clusters so they hold only what would be serialized.
"""

from __future__ import annotations

import gc
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro import faults
from repro.core.clusters import (
    Cluster,
    DisassociatedDataset,
    JointCluster,
    SharedChunk,
    SimpleCluster,
)
from repro.core import deadline
from repro.core.dataset import Record, TransactionDataset, ensure_record
from repro.core.engine import AnonymizationParams, Disassociator, _fill_report
from repro.core.vocab import Vocabulary
from repro.datasets.io import append_jsonl, iter_batches, iter_jsonl, iter_records
from repro.exceptions import CheckpointError, ParameterError
from repro.stream.boundary import BoundaryRepairSummary, verify_and_repair
from repro.stream.checkpoint import (
    RunManifest,
    load_shard_snapshot,
    run_fingerprint,
    serialize_shard_snapshot,
    snapshot_path,
    spill_path,
    write_atomic_blob,
)
from repro.stream.planner import STRATEGIES, build_planner

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
            set (planner sample, spill buffers and per-window datasets all
            respect it); the accumulated output clusters are proportional
            to the dataset, like any returned publication (see the module
            docstring).
        strategy: shard routing strategy (``hash`` or ``horpart``).
        spill_dir: directory for the shard spill files.  ``None`` (default)
            uses a temporary directory removed after the run; an explicit
            path is created if needed and the spill files are left in place
            for inspection.
        reuse_vocabulary: share one shard-lifetime
            :class:`~repro.core.vocab.Vocabulary` across a shard's windows
            (encoded backend), so later windows only intern terms they have
            not seen yet instead of re-interning from scratch.  Interning
            is append-only and id-insensitive decisions tie-break on the
            decoded string, so the published output is identical with and
            without reuse (covered by the vocabulary tests); disable only
            to bound the interning table by window instead of by shard.
        checkpoint: whether the run writes the durable manifest and
            per-shard snapshots that make ``resume=True`` possible
            (:mod:`repro.stream.checkpoint`).  ``None`` (default) enables
            checkpointing exactly when ``spill_dir`` is set -- durable
            spills imply a durable run.  ``False`` keeps an explicit
            ``spill_dir`` manifest-free (e.g. to measure checkpoint
            overhead); ``True`` without a ``spill_dir`` is rejected, since
            a checkpoint inside an auto-removed temporary directory could
            never be resumed.
        store_dir: directory of the persistent incremental shard store
            (:mod:`repro.stream.store`).  Ignored by :class:`ShardedPipeline`
            itself; it configures where
            :class:`~repro.stream.store.IncrementalPipeline` keeps the
            long-lived store that delta runs (record appends/deletes)
            re-anonymize incrementally.  Like ``spill_dir``, the location
            is the store's identity, not part of its parameter fingerprint.
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
    reuse_vocabulary: bool = True
    checkpoint: Optional[bool] = None
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
        if self.checkpoint and self.spill_dir is None:
            raise ParameterError(
                "checkpoint=True requires an explicit spill_dir: a manifest "
                "in an auto-removed temporary directory cannot be resumed"
            )

    @property
    def checkpoint_enabled(self) -> bool:
        """Effective checkpoint switch (``None`` means 'iff spill_dir set')."""
        if self.checkpoint is None:
            return self.spill_dir is not None
        return bool(self.checkpoint)


@dataclass
class ShardedReport:
    """Timings and structural statistics of one sharded streaming run.

    Mirrors :class:`~repro.core.engine.AnonymizationReport` (same cluster
    statistics, filled by the same helper) and adds the streaming-specific
    quantities: per-shard record counts, window counts, the observed peak
    of the original-record working set (always <=
    ``max_records_in_memory``; output clusters are accounted separately --
    see the module docstring) and what the global boundary pass had to
    repair.
    """

    num_records: int = 0
    num_shards: int = 0
    shard_records: list = field(default_factory=list)
    shard_windows: list = field(default_factory=list)
    peak_resident_records: int = 0
    max_records_in_memory: int = 0
    strategy: str = "hash"
    checkpoint: bool = False
    resumed: bool = False
    shards_skipped: int = 0
    planner: dict = field(default_factory=dict)
    num_clusters: int = 0
    num_joint_clusters: int = 0
    num_record_chunks: int = 0
    num_shared_chunks: int = 0
    term_chunk_terms: int = 0
    repair: BoundaryRepairSummary = field(default_factory=BoundaryRepairSummary)
    plan_seconds: float = 0.0
    shard_seconds: float = 0.0
    anonymize_seconds: float = 0.0
    checkpoint_seconds: float = 0.0
    merge_seconds: float = 0.0
    verify_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Total wall time across the streaming phases."""
        return (
            self.plan_seconds
            + self.shard_seconds
            + self.anonymize_seconds
            + self.checkpoint_seconds
            + self.merge_seconds
            + self.verify_seconds
        )

    def phase_timings(self) -> dict:
        """Phase timings as a plain dict (machine-readable perf output)."""
        return {
            "plan_seconds": self.plan_seconds,
            "shard_seconds": self.shard_seconds,
            "anonymize_seconds": self.anonymize_seconds,
            "checkpoint_seconds": self.checkpoint_seconds,
            "merge_seconds": self.merge_seconds,
            "verify_seconds": self.verify_seconds,
            "total_seconds": self.total_seconds,
        }

    def summary(self) -> str:
        """One-line human readable summary of the run."""
        resumed = (
            f", resumed ({self.shards_skipped} shard(s) from checkpoint)"
            if self.resumed
            else ""
        )
        return (
            f"sharded run: {self.num_records} records over {self.num_shards} shard(s) "
            f"({self.strategy}), {sum(self.shard_windows)} window(s), "
            f"peak resident {self.peak_resident_records}/{self.max_records_in_memory} "
            f"records, {self.num_clusters} clusters, "
            f"{self.repair.total_demoted()} boundary demotion(s) "
            f"in {self.total_seconds:.2f}s{resumed}"
        )


class _ShardSpiller:
    """Buffered writer of per-shard JSONL spill files.

    Records accumulate in per-shard buffers; whenever the total buffered
    count reaches ``buffer_bound`` every buffer is flushed (appended to its
    shard file), so resident records never exceed the bound regardless of
    routing skew.
    """

    def __init__(self, directory: Path, shards: int, buffer_bound: int):
        self.paths = [spill_path(directory, index) for index in range(shards)]
        # Start from empty files: append_jsonl would otherwise extend stale
        # spills of a previous run in a user-provided spill_dir.
        for path in self.paths:
            path.write_text("", encoding="utf-8")
        self.buffers: list[list[Record]] = [[] for _ in range(shards)]
        self.buffer_bound = buffer_bound
        self.buffered = 0
        self.counts = [0] * shards
        self.peak_buffered = 0

    def add(self, shard: int, record: Record) -> None:
        self.buffers[shard].append(record)
        self.buffered += 1
        self.peak_buffered = max(self.peak_buffered, self.buffered)
        if self.buffered >= self.buffer_bound:
            self.flush()

    def flush(self) -> None:
        faults.check("stream.spill")
        deadline.check("stream.spill")
        for shard, buffer in enumerate(self.buffers):
            if buffer:
                self.counts[shard] += append_jsonl(buffer, self.paths[shard])
                buffer.clear()
        self.buffered = 0


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
    owns a private engine per run (the historical behavior).
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
        self.last_report: Optional[ShardedReport] = None

    # -- public entry points ------------------------------------------- #
    def anonymize_file(
        self,
        path: PathLike,
        format: str = "auto",
        delimiter: Optional[str] = None,
        *,
        resume: bool = False,
    ) -> DisassociatedDataset:
        """Stream a dataset file through the sharded pipeline.

        With ``resume=True`` (checkpointed runs only) a usable manifest in
        ``spill_dir`` takes over and the file is not re-read; without one
        the run transparently restarts from the file.
        """
        return self.run(iter_records(path, format=format, delimiter=delimiter), resume=resume)

    def anonymize(self, dataset: TransactionDataset) -> DisassociatedDataset:
        """Anonymize an in-memory dataset through the sharded path.

        Mostly useful for equivalence testing and benchmarks; the point of
        the subsystem is :meth:`anonymize_file` / :meth:`run` on streams
        that never fit in memory.
        """
        return self.run(iter(dataset))

    def run(
        self,
        records: Optional[Iterator[Iterable]] = None,
        *,
        resume: bool = False,
    ) -> DisassociatedDataset:
        """Run the five streaming phases over an iterator of records.

        ``resume=True`` (requires a checkpointed run: explicit ``spill_dir``
        with checkpointing enabled) picks up after a crash: completed
        shards load from their snapshots, the interrupted shard re-runs
        from its spill file, and merge + global verification re-execute, so
        the result is identical to an uninterrupted run.  ``records`` is
        then optional -- it is consumed only if the manifest shows the
        spill phase never completed (the run restarts from scratch); with
        no manifest at all and no ``records``, :class:`CheckpointError` is
        raised.
        """
        if resume and not self.stream.checkpoint_enabled:
            raise ParameterError(
                "resume=True requires a checkpointed run: set "
                "StreamParams.spill_dir (and leave checkpointing enabled)"
            )
        if records is None and not resume:
            raise ParameterError("records are required when not resuming")
        report = ShardedReport(
            num_shards=self.stream.shards,
            max_records_in_memory=self.stream.max_records_in_memory,
            strategy=self.stream.strategy,
            checkpoint=self.stream.checkpoint_enabled,
        )
        self.last_report = report
        if self.stream.spill_dir is None:
            with tempfile.TemporaryDirectory(prefix="repro-shards-") as tmp:
                return self._run(records, Path(tmp), report, resume=False)
        spill_dir = Path(self.stream.spill_dir)
        spill_dir.mkdir(parents=True, exist_ok=True)
        return self._run(records, spill_dir, report, resume=resume)

    # -- phases --------------------------------------------------------- #
    def _load_resume_manifest(
        self, spill_dir: Path, fingerprint: dict, records_available: bool
    ) -> Optional[RunManifest]:
        """The manifest to resume from, or ``None`` to restart from records.

        A missing manifest or an incomplete spill phase means the durable
        state cannot seed a run: with the original records at hand the run
        transparently restarts from scratch; without them resuming is
        impossible and :class:`CheckpointError` says so.  A manifest written
        under different output-affecting parameters is always an error --
        silently splicing its snapshots into this run would publish a
        Frankenstein dataset.
        """
        manifest = RunManifest.load(spill_dir)
        if manifest is not None:
            if manifest.num_shards != self.stream.shards or not manifest.matches(
                fingerprint
            ):
                raise CheckpointError(
                    f"run manifest in {spill_dir} was written under different "
                    "parameters; refusing to resume (rerun without --resume, "
                    "or restore the original parameters)"
                )
            if not manifest.spill_complete:
                manifest = None
        if manifest is None and not records_available:
            raise CheckpointError(
                f"no resumable run in {spill_dir}: no complete spill manifest "
                "found and no input records were provided"
            )
        return manifest

    def _run(
        self,
        records: Optional[Iterator[Iterable]],
        spill_dir: Path,
        report: ShardedReport,
        *,
        resume: bool,
    ) -> DisassociatedDataset:
        bound = self.stream.max_records_in_memory
        checkpointing = self.stream.checkpoint_enabled
        fingerprint = run_fingerprint(self.params, self.stream) if checkpointing else {}

        manifest: Optional[RunManifest] = None
        if resume:
            manifest = self._load_resume_manifest(
                spill_dir, fingerprint, records_available=records is not None
            )
        report.resumed = manifest is not None

        if manifest is None:
            manifest = self._plan_and_spill(records, spill_dir, report, fingerprint)
        else:
            # Plan + spill already durable: adopt their recorded outcome.
            report.planner = dict(manifest.planner)
            report.shard_records = list(manifest.shard_records)
            report.num_records = manifest.num_records

        clusters = self._anonymize_shards(spill_dir, report, manifest)

        # merge: one publication; relabeling already made labels unique.
        faults.check("stream.merge")
        deadline.check("stream.merge")
        start = time.perf_counter()
        merged = DisassociatedDataset(clusters, k=self.params.k, m=self.params.m)
        report.merge_seconds = time.perf_counter() - start

        # verify: global audit across shard boundaries, demotion repair.
        # Private original records (needed by the repair's demotion
        # decisions) are dropped afterwards: the returned publication holds
        # only what would be serialized.
        faults.check("stream.verify")
        deadline.check("stream.verify")
        start = time.perf_counter()
        merged, report.repair = verify_and_repair(merged)
        merged = DisassociatedDataset(
            [_without_private_records(cluster) for cluster in merged.clusters],
            k=merged.k,
            m=merged.m,
        )
        report.verify_seconds = time.perf_counter() - start

        _fill_report(report, merged)
        return merged

    def _plan_and_spill(
        self,
        records: Iterator[Iterable],
        spill_dir: Path,
        report: ShardedReport,
        fingerprint: dict,
    ) -> Optional[RunManifest]:
        """Phases 1+2 (plan, shard); returns the durable manifest if any.

        On checkpointed runs any stale manifest is removed *before* the
        spill files are truncated, and the new manifest (with
        ``spill_complete=True``) is written only after the final flush --
        so a crash anywhere in between leaves no manifest and a resume
        restarts from the original records instead of trusting half-written
        spills (or a previous run's snapshots).
        """
        checkpointing = self.stream.checkpoint_enabled
        if checkpointing:
            RunManifest.invalidate(spill_dir)

        # plan: sample the stream head (only when the strategy needs one;
        # hash routing is data-oblivious and streams straight through).
        faults.check("stream.plan")
        deadline.check("stream.plan")
        start = time.perf_counter()
        records = iter(records)
        sample: list[Record] = []
        if self.stream.strategy != "hash":
            for record in records:
                sample.append(ensure_record(record))
                if len(sample) >= self.stream.max_records_in_memory:
                    break
        planner = build_planner(self.stream.strategy, self.stream.shards, sample)
        report.planner = planner.describe()
        report.peak_resident_records = max(report.peak_resident_records, len(sample))
        report.plan_seconds = time.perf_counter() - start

        # shard: route the sample, then the rest of the stream, to spills.
        # The sample is drained record-by-record as it is routed, so sample
        # remainder + spill buffers together never exceed the memory bound.
        start = time.perf_counter()
        spiller = _ShardSpiller(
            spill_dir, self.stream.shards, self.stream.max_records_in_memory
        )
        sample.reverse()
        while sample:
            record = sample.pop()
            spiller.add(planner.shard_of(record), record)
        for record in records:
            record = ensure_record(record)
            spiller.add(planner.shard_of(record), record)
        spiller.flush()
        report.shard_records = list(spiller.counts)
        report.num_records = sum(spiller.counts)
        report.peak_resident_records = max(
            report.peak_resident_records, spiller.peak_buffered
        )
        report.shard_seconds = time.perf_counter() - start

        if not checkpointing:
            return None
        manifest = RunManifest(
            fingerprint=fingerprint,
            num_shards=self.stream.shards,
            planner=report.planner,
            num_records=report.num_records,
            shard_records=report.shard_records,
            spill_complete=True,
        )
        start = time.perf_counter()
        manifest.save(spill_dir)
        report.checkpoint_seconds += time.perf_counter() - start
        return manifest

    def _anonymize_shards(
        self,
        spill_dir: Path,
        report: ShardedReport,
        manifest: Optional[RunManifest],
    ) -> list[Cluster]:
        """Phase 3: per-shard windowed engine runs (+ snapshots/skip).

        With a manifest, shards whose snapshot already exists load it
        instead of re-running, and every live shard publishes its own
        snapshot the moment it finishes -- the atomic rename that makes
        the snapshot visible *is* the durable completion marker, so no
        per-shard manifest rewrite is needed and a crash mid-checkpoint
        only repeats that one shard's work.  The writes are synchronous
        on purpose: a background
        writer thread was measured *slower* end-to-end (serialization is
        pure Python and fights the window compute for the GIL, and the
        fsyncs it could overlap cost ~1-2 ms each), while the synchronous
        cost is tracked in ``report.checkpoint_seconds`` and the
        resilience benchmark gates the end-to-end overhead.
        """
        bound = self.stream.max_records_in_memory
        start = time.perf_counter()
        checkpoint_seconds = 0.0
        window_params = replace(self.params, verify=False)
        clusters: list[Cluster] = []
        report.shard_windows = [0] * self.stream.shards
        reuse_vocab = (
            self.stream.reuse_vocabulary and window_params.backend == "encoded"
        )
        spill_paths = [
            spill_path(spill_dir, index) for index in range(self.stream.shards)
        ]
        borrowed = self.window_engine
        if borrowed is not None:
            # Caller-owned warm engine: borrow it for the run, restore its
            # parameters and vocabulary afterwards, and never close it.
            engine = borrowed
            saved_params, saved_vocabulary = engine.params, engine.vocabulary
            engine.params = window_params
        else:
            engine = Disassociator(window_params)
        try:
            for shard, path in enumerate(spill_paths):
                if manifest is not None and snapshot_path(spill_dir, shard).exists():
                    # Completed before the crash: the atomically published
                    # snapshot *is* the durable completion marker.
                    snapshot, windows = load_shard_snapshot(spill_dir, shard)
                    clusters.extend(snapshot)
                    report.shard_windows[shard] = windows
                    report.shards_skipped += 1
                    continue
                # One interning table per shard: every window of the shard
                # encodes onto it, so only first-seen terms pay the intern
                # cost (ids are append-only; relabeling keys are untouched).
                engine.vocabulary = Vocabulary() if reuse_vocab else None
                shard_clusters: list[Cluster] = []
                # Spill-order positions of each distinct record, so the
                # snapshot can reference original records by index instead
                # of re-serializing them (they are already durable in the
                # spill file).
                record_index: dict = {}
                records_seen = 0
                for window, batch in enumerate(iter_batches(iter_jsonl(path), bound)):
                    faults.check("stream.window")
                    deadline.check("stream.window")
                    report.peak_resident_records = max(
                        report.peak_resident_records, len(batch)
                    )
                    report.shard_windows[shard] += 1
                    dataset = TransactionDataset(batch)
                    published = engine.anonymize(dataset)
                    if manifest is not None:
                        index_start = time.perf_counter()
                        for record in dataset:
                            record_index.setdefault(record, []).append(records_seen)
                            records_seen += 1
                        checkpoint_seconds += time.perf_counter() - index_start
                    prefix = f"S{shard}W{window}."
                    shard_clusters.extend(
                        relabel_cluster(cluster, prefix)
                        for cluster in published.clusters
                    )
                if manifest is not None:
                    faults.check("stream.checkpoint")
                    deadline.check("stream.checkpoint")
                    checkpoint_start = time.perf_counter()
                    # Snapshot serialization allocates one short burst of
                    # containers that all die by refcount; pausing the
                    # cyclic collector keeps that burst from triggering
                    # full-heap collections mid-checkpoint (measured at
                    # 2-3x the serialization cost itself).
                    gc_was_enabled = gc.isenabled()
                    gc.disable()
                    try:
                        write_atomic_blob(
                            snapshot_path(spill_dir, shard),
                            serialize_shard_snapshot(
                                shard,
                                shard_clusters,
                                record_index,
                                report.shard_windows[shard],
                            ),
                        )
                    finally:
                        if gc_was_enabled:
                            gc.enable()
                    checkpoint_seconds += time.perf_counter() - checkpoint_start
                clusters.extend(shard_clusters)
        finally:
            if borrowed is None:
                engine.close()
            else:
                borrowed.params = saved_params
                borrowed.vocabulary = saved_vocabulary
        report.checkpoint_seconds += checkpoint_seconds
        report.anonymize_seconds = time.perf_counter() - start - checkpoint_seconds
        return clusters


def _without_private_records(cluster: Cluster) -> Cluster:
    """A copy of the cluster tree without the private original records."""
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


def anonymize_stream(
    source: Union[PathLike, TransactionDataset, Iterable[Iterable]],
    k: int = 5,
    m: int = 2,
    shards: int = DEFAULT_SHARDS,
    max_records_in_memory: int = DEFAULT_MAX_RECORDS_IN_MEMORY,
    strategy: str = "hash",
    **engine_params,
) -> DisassociatedDataset:
    """Functional one-call interface to the sharded streaming pipeline.

    ``source`` may be a dataset file path (format sniffed from the
    extension), a :class:`TransactionDataset` or any iterable of records.
    Extra keyword arguments go to :class:`AnonymizationParams`.

    .. deprecated:: 1.1
        Compatibility shim over :class:`repro.service.AnonymizationService`
        (a ``mode="stream"`` request); output is bit-for-bit identical.
    """
    import warnings

    warnings.warn(
        "anonymize_stream() is a one-shot compatibility shim; use "
        "repro.service.AnonymizationService with a mode='stream' request",
        DeprecationWarning,
        stacklevel=2,
    )
    # Imported lazily: the service layer builds on this module.
    from repro.service import AnonymizationRequest, AnonymizationService, ServiceConfig

    config = ServiceConfig(
        k=k,
        m=m,
        shards=shards,
        max_records_in_memory=max_records_in_memory,
        shard_strategy=strategy,
        **engine_params,
    )
    with AnonymizationService(config) as service:
        return service.run(AnonymizationRequest(source, mode="stream")).publication
