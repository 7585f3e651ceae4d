"""Shard store and incremental (delta) re-anonymization.

The one record substrate of sharded runs.  A cold
:class:`~repro.stream.executor.ShardedPipeline` run builds a throwaway
store and discards it; a long-lived store is the durable path -- an
incremental substrate that is also how an interrupted run recovers:

* :class:`ShardStore` -- a single-file SQLite database (stdlib
  :mod:`sqlite3`, no extra dependencies) under ``store_dir`` holding the
  run's identity (parameter fingerprint + shard plan), every routed record
  in arrival order, and one relabeled cluster snapshot per *engine
  window* with its audited public form (``window_products``); the
  publication is the concatenation of the window products, so it is
  never stored a second time;
* :class:`IncrementalPipeline` -- accepts record appends/deletes, routes
  them with the stored plan, re-anonymizes and audits **only the windows
  whose content changed** (plus any stored window without a product for
  its snapshot bytes; falling back to the global boundary repair when
  one fails), and publishes a dataset **bit-for-bit identical** to a cold
  :class:`~repro.stream.executor.ShardedPipeline` run over the mutated
  dataset.

Why per-*window* (not per-shard) granularity: a shard's windows are
consecutive batches of ``max_records_in_memory`` records in arrival
order, so an append only ever changes the shard's *last* (partial)
window, while hash routing would scatter a 1% append across *all* shards
and dirty every one of them.  Keying reuse on the window's record
content keeps the recompute set proportional to the delta, not to the
shard fan-out.

Bit-for-bit identity argument (each step is individually covered by the
existing equivalence suites):

1. the mutated logical sequence is the original arrival order minus each
   deleted record's earliest occurrence, plus appends at the end --
   exactly the dataset a cold run would consume;
2. routing is stable: hash routing is content-based, and ``horpart``
   routing re-validates the stored plan against the mutated sequence's
   sample prefix on every delta (a changed plan is *rejected* with
   :class:`~repro.exceptions.StoreError` rather than silently diverging);
3. per-shard arrival order of surviving records is preserved, so window
   boundaries and contents match the cold run's windows; a window
   with unchanged content produces unchanged clusters (vocabulary reuse
   is output-invariant, so re-running an isolated window with a fresh
   vocabulary is equivalent -- the vocabulary suite's reuse-equivalence
   test);
4. window labels (``S<shard>W<window>.``) depend only on shard and
   window index, and merge + global boundary repair + private-record
   stripping are deterministic functions of the per-window cluster
   lists (the crash-recovery suite's identity property).

Durability: every mutation is one atomic SQLite transaction (records,
plan, generation and the delta's idempotency token commit together), each
recomputed window commits independently, and the ``published_generation``
meta slot commits last, once the window snapshots are reconciled and
published at that generation.  A crash at any instant leaves a
consistent store; the next :meth:`IncrementalPipeline.run` -- with the
same ``delta_id`` or with no delta at all -- reconciles the stale windows
by fingerprint and completes the publication.  Faults and
deadlines are honored at every phase boundary (``store.open``,
``store.validate``, ``store.mutate``, ``store.compact``, plus the
streaming ``stream.window`` / ``stream.merge`` / ``stream.verify``
points), so the fault-injection harness drives delta runs exactly like
cold ones.

Concurrency: incremental runs are mutually exclusive per store.  Every
:meth:`IncrementalPipeline.run` (and :meth:`~IncrementalPipeline.compact`)
holds an advisory lock -- a write transaction on the sibling
``store.lock`` SQLite file -- for its whole duration, which serializes
concurrent deltas both across threads of one process (a multi-worker
service) and across processes (two services sharing a ``store_dir``).
SQLite releases the lock automatically when its holder exits or crashes,
so there are no stale locks to clean up.  A run that cannot acquire the
lock within its timeout fails with :class:`~repro.exceptions.StoreError`
and the store unmutated; idempotency tokens live in their own table
(``applied_deltas``), so interleaved deltas can never clobber each
other's tokens.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sqlite3
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Optional, Union

from repro import faults
from repro.core import deadline
from repro.core.clusters import DisassociatedDataset, paused_gc
from repro.core.codec import cluster_to_payload
from repro.core.dataset import TransactionDataset, ensure_record, normalize_record
from repro.core.engine import AnonymizationParams, Disassociator
from repro.core.vocab import Vocabulary
from repro.exceptions import ParameterError, StoreError
from repro.storage import LOCK_TIMEOUT, SQLiteStore
from repro.stream.boundary import BoundaryRepairSummary
from repro.stream.executor import (
    StreamParams,
    TextPublication,
    Window,
    WindowProduct,
    decode_snapshot,
    publish_merged,
    relabel_cluster,
    window_engine_for,
    window_product,
)
from repro.stream.planner import HashShardPlanner, HorpartShardPlanner, build_planner

PathLike = Union[str, Path]

#: File name of the SQLite database inside ``store_dir``.
STORE_NAME = "store.sqlite"

#: Store schema version; bump on any incompatible change.
STORE_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS records (
    seq    INTEGER PRIMARY KEY,
    shard  INTEGER NOT NULL,
    record TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_records_shard ON records (shard, seq);
CREATE INDEX IF NOT EXISTS idx_records_content ON records (record);
CREATE TABLE IF NOT EXISTS windows (
    shard       INTEGER NOT NULL,
    win         INTEGER NOT NULL,
    fingerprint TEXT NOT NULL,
    num_records INTEGER NOT NULL,
    clusters    TEXT NOT NULL,
    PRIMARY KEY (shard, win)
);
CREATE TABLE IF NOT EXISTS window_products (
    shard     INTEGER NOT NULL,
    win       INTEGER NOT NULL,
    digest    TEXT NOT NULL,
    fragments TEXT NOT NULL,
    digests   TEXT NOT NULL,
    records   INTEGER NOT NULL,
    stats     TEXT NOT NULL,
    PRIMARY KEY (shard, win)
);
CREATE TABLE IF NOT EXISTS applied_deltas (
    delta_id   TEXT PRIMARY KEY,
    generation INTEGER NOT NULL,
    digest     TEXT NOT NULL
);
"""


#: Stream fields excluded from the fingerprint: the directories are the
#: stores' identity, not part of it.
_EXCLUDED_STREAM_FIELDS = frozenset({"spill_dir", "store_dir", "pubstore_dir"})

#: Fingerprint keys of retired parameters.  Earlier releases stored these
#: output-neutral knobs in every shard store and publication-store source
#: stamp: a kernel crossover, the execution-core switch (its ``"string"``
#: core published the same bytes) and the vocabulary-reuse switch
#: (shard-lifetime interning is now always on).
_RETIRED_FINGERPRINT_KEYS = frozenset(
    {"params.packed_min_rows", "params.backend", "stream.reuse_vocabulary"}
)


def _json_safe(value):
    """Coerce a parameter value to its JSON round-trip form."""
    if isinstance(value, (frozenset, set)):
        return sorted(_json_safe(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, Path):
        return str(value)
    return value


def run_fingerprint(params: AnonymizationParams, stream: StreamParams) -> dict:
    """Fingerprint of the output-affecting run parameters (JSON-safe).

    Covers every field of :class:`~repro.core.engine.AnonymizationParams`
    and every field of :class:`~repro.stream.executor.StreamParams` except
    the store, publication-store and spill directories.  A store written
    under a different fingerprint is refused instead of silently splicing
    incompatible window snapshots into one publication.
    """
    fingerprint = {}
    for fld in dataclasses.fields(params):
        fingerprint[f"params.{fld.name}"] = _json_safe(getattr(params, fld.name))
    for fld in dataclasses.fields(stream):
        if fld.name not in _EXCLUDED_STREAM_FIELDS:
            fingerprint[f"stream.{fld.name}"] = _json_safe(getattr(stream, fld.name))
    return fingerprint


def fingerprint_matches(stored, fingerprint: dict) -> bool:
    """Whether a fingerprint read back from disk names the same run.

    ``stored`` comes from a shard store or a publication store's source
    stamp; keys of retired, output-neutral knobs are dropped from it
    before it is compared with the current ``fingerprint``, so stores
    written by earlier releases stay usable.
    """
    if not isinstance(stored, dict):
        return False
    current = {
        key: value
        for key, value in stored.items()
        if key not in _RETIRED_FINGERPRINT_KEYS
    }
    return current == fingerprint


def record_text(record: frozenset) -> str:
    """The store's canonical text of one normalized record.

    The sorted term list as JSON -- the same line
    :func:`repro.datasets.io.write_jsonl` writes -- so a record reads back
    as exactly the record that was stored.
    """
    return json.dumps(sorted(record))


def window_fingerprint(texts: list) -> str:
    """Content fingerprint of ordered texts (a window's records, or its snapshot)."""
    digest = hashlib.blake2b(digest_size=16)
    for text in texts:
        digest.update(text.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def delta_digest(append: list, delete: list) -> str:
    """Content fingerprint of one delta (ordered appends, then deletes).

    Stored with the delta's idempotency token so a replay is recognized
    only when it carries the *same* mutation -- reusing a ``delta_id``
    for a different delta is a caller bug and is refused instead of
    silently dropping the new mutation.
    """
    digest = hashlib.blake2b(digest_size=16)
    for record in append:
        digest.update(record_text(record).encode("utf-8"))
        digest.update(b"\n")
    digest.update(b"--\n")
    for record in delete:
        digest.update(record_text(record).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def store_path(store_dir: PathLike) -> Path:
    """Location of the store database inside ``store_dir``."""
    return Path(store_dir) / STORE_NAME


def _routed(records: Iterable, planner, bound: int):
    """``(shard, text)`` insert rows; checks the deadline every ``bound`` rows."""
    for count, record in enumerate(records, 1):
        if count % bound == 0:
            deadline.check("store.mutate")
        yield planner.shard_of(record), record_text(record)


class ShardStore(SQLiteStore):
    """The persistent substrate of incremental anonymization runs.

    One SQLite file per store directory, holding five tables:

    ======================  ================================================
    ``meta``                schema version, parameter fingerprint, shard
                            plan, mutation generation, the generation the
                            windows were last published at, last applied
                            ``delta_id``
    ``records``             every routed record: global arrival order
                            (``seq``), owning shard, canonical text
    ``windows``             one relabeled cluster snapshot per engine
                            window, keyed by ``(shard, window)`` with the
                            window's content fingerprint; in shard and
                            window order they are the publication
    ``window_products``     each passing window's public form, keyed like
                            ``windows`` and stamped with the digest of
                            the snapshot it was derived from
    ``applied_deltas``      the idempotency token and content digest of
                            every committed delta
    ======================  ================================================

    All methods raise :class:`~repro.exceptions.StoreError` on an
    unusable database.  Use as a context manager (or call :meth:`close`).

    ``exclusive=True`` additionally acquires the store's advisory lock
    (a write transaction on the sibling ``store.lock`` file) and holds it
    until :meth:`close`, serializing whole runs against every other
    exclusive opener -- other threads and other processes alike.  All
    mutating entry points (:class:`IncrementalPipeline` runs, compaction)
    open exclusively; plain opens are for read-only inspection.
    """

    DB_NAME = STORE_NAME
    LOCK_NAME = "store.lock"
    SCHEMA = _SCHEMA
    OPEN_POINT = "store.open"
    KIND = "shard store"
    DIR_KIND = "store"
    LOCK_BUSY = (
        "another run holds the lock on shard store {path} (waited "
        "{timeout:.1f}s); incremental runs serialize per store -- retry "
        "once the other delta finishes"
    )

    def __init__(
        self,
        store_dir: PathLike,
        *,
        exclusive: bool = False,
        lock_timeout: float = LOCK_TIMEOUT,
    ):
        """Open (creating if needed) the store under ``store_dir``.

        Defined on this class, not only inherited, so the open -- the
        wait for the advisory lock included -- stays one entry point
        that tracers and profilers can time per store.
        """
        super().__init__(store_dir, exclusive=exclusive, lock_timeout=lock_timeout)

    @property
    def initialized(self) -> bool:
        """Whether the store has been initialized (version + fingerprint)."""
        return self._meta("version") is not None

    def initialize(self, fingerprint: dict) -> None:
        """Record the store's identity; one atomic commit."""
        with self._write():
            self._set_meta("version", str(STORE_VERSION))
            self._set_meta("fingerprint", json.dumps(fingerprint, sort_keys=True))
            self._set_meta("generation", "0")

    def validate(self, fingerprint: dict) -> None:
        """Refuse a store written under a different identity.

        Version and parameter-fingerprint mismatches raise
        :class:`StoreError`: splicing snapshots computed under different
        output-affecting parameters into one publication would corrupt it.
        """
        faults.check("store.validate")
        deadline.check("store.validate")
        version = self._meta("version")
        if version != str(STORE_VERSION):
            raise StoreError(
                f"shard store {self.path} has version {version!r}, "
                f"this library reads version {STORE_VERSION}"
            )
        stored = self._meta("fingerprint")
        try:
            stored = json.loads(stored) if stored is not None else None
        except ValueError as exc:
            raise StoreError(f"malformed fingerprint in {self.path}: {exc}") from exc
        if not fingerprint_matches(stored, fingerprint):
            raise StoreError(
                f"shard store {self.path} was created under different "
                "output-affecting parameters; refusing the delta (use a fresh "
                "store_dir, or restore the original parameters)"
            )

    @property
    def generation(self) -> int:
        """Mutation counter: bumped by every committed delta."""
        value = self._meta("generation")
        return 0 if value is None else int(value)

    @property
    def applied_delta(self) -> Optional[str]:
        """The ``delta_id`` of the most recent committed mutation (reporting).

        Idempotency checks go through :meth:`applied_digest` (the
        ``applied_deltas`` table keeps *every* token, so interleaved
        deltas cannot clobber each other's); this meta slot only names
        the latest one for operators.
        """
        return self._meta("applied_delta")

    def applied_digest(self, delta_id: str) -> Optional[str]:
        """The content digest committed under ``delta_id``, or ``None``.

        ``None`` means no mutation with this token has ever committed;
        a digest means the token's delta is already durable (compare it
        against the replay's own digest before skipping the mutation).
        """
        row = self._db.execute(
            "SELECT digest FROM applied_deltas WHERE delta_id = ?", (delta_id,)
        ).fetchone()
        return None if row is None else row[0]

    def plan(self) -> Optional[dict]:
        """The stored shard plan (``planner.describe()`` form), or ``None``."""
        raw = self._meta("plan")
        if raw is None:
            return None
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise StoreError(f"malformed shard plan in {self.path}: {exc}") from exc

    # -- records ----------------------------------------------------------- #
    def num_records(self) -> int:
        """Total records currently held."""
        return int(self._db.execute("SELECT COUNT(*) FROM records").fetchone()[0])

    def shard_counts(self, shards: int) -> list:
        """Per-shard record counts (length ``shards``)."""
        counts = [0] * shards
        for shard, count in self._db.execute(
            "SELECT shard, COUNT(*) FROM records GROUP BY shard"
        ):
            counts[shard] = count
        return counts

    def window_texts(self, shard: int, after_seq: int, limit: int) -> list:
        """Up to ``limit`` of the shard's record ``(seq, text)`` rows after ``after_seq``.

        Fetched eagerly (one bounded batch) so no read cursor stays open
        across the window commits interleaved with the scan.
        """
        return self._db.execute(
            "SELECT seq, record FROM records WHERE shard = ? AND seq > ? "
            "ORDER BY seq LIMIT ?",
            (shard, after_seq, limit),
        ).fetchall()

    def sample_texts(self, limit: int) -> list:
        """The first ``limit`` record texts in global arrival order.

        This is the prefix a cold run's planner would sample, used to
        re-validate a ``horpart`` plan after every mutation.
        """
        return [
            row[0]
            for row in self._db.execute(
                "SELECT record FROM records ORDER BY seq LIMIT ?", (limit,)
            )
        ]

    # -- mutation ----------------------------------------------------------- #
    def apply_delta(
        self,
        append: Iterable,
        delete: list,
        planner,
        *,
        stream: StreamParams,
        delta_id: Optional[str] = None,
        digest: Optional[str] = None,
    ):
        """Apply one delta atomically; returns the planner in effect.

        ``append`` is an iterable and ``delete`` a list of normalized
        records.  ``append`` is consumed once, as it is inserted, so only
        a sample-based plan's sample (its first ``max_records_in_memory``
        records) is ever held; the ambient deadline is checked every
        ``max_records_in_memory`` inserted records.  Deletes remove the
        *earliest* surviving occurrence of each record (a
        record the store does not hold raises :class:`StoreError` and the
        whole delta rolls back).  Appends are routed with ``planner`` (the
        stored plan) and land after every existing record, preserving
        arrival order.  For sample-based strategies the plan is
        re-derived from the mutated sequence's sample prefix inside the
        same transaction -- a delta that would change the plan rolls back
        with :class:`StoreError`, because re-anonymizing only dirty
        windows under a different routing would diverge from a cold run.

        On a fresh store the plan is derived from the appended records'
        prefix and recorded; ``delta_id`` (when given, with the delta's
        ``digest``) is recorded in the ``applied_deltas`` table in the
        same commit, making retries of the same delta idempotent.
        """
        faults.check("store.mutate")
        deadline.check("store.mutate")
        with self._write():
            for record in delete:
                text = record_text(record)
                row = self._db.execute(
                    "SELECT seq FROM records WHERE record = ? ORDER BY seq LIMIT 1",
                    (text,),
                ).fetchone()
                if row is None:
                    raise StoreError(
                        f"delta deletes a record the store does not hold: {text}"
                    )
                self._db.execute("DELETE FROM records WHERE seq = ?", (row[0],))
            bound = stream.max_records_in_memory
            records = iter(append)
            if stream.strategy != "hash" and self._meta("plan") is None:
                # Fresh store: no plan can exist without records (sample-based
                # plans are recorded in the same commit as the first records),
                # so the sequence prefix a cold run would sample is exactly
                # the append prefix.  Derive the routing plan from it before
                # any record is placed.
                sample = list(islice(records, bound))
                planner = build_planner(stream.strategy, stream.shards, sample)
                records = chain(sample, records)
            self._db.executemany(
                "INSERT INTO records (shard, record) VALUES (?, ?)",
                _routed(records, planner, bound),
            )
            planner = self._reconcile_plan(planner, stream)
            generation = self.generation + 1
            self._set_meta("generation", str(generation))
            if delta_id is not None:
                self._set_meta("applied_delta", delta_id)
                self._db.execute(
                    "INSERT OR REPLACE INTO applied_deltas "
                    "(delta_id, generation, digest) VALUES (?, ?, ?)",
                    (delta_id, generation, digest if digest is not None else ""),
                )
        return planner

    def _reconcile_plan(self, planner, stream: StreamParams):
        """Validate (or first record) the plan against the mutated sequence."""
        if stream.strategy == "hash":
            # Data-oblivious: the plan can never drift; record it once.
            if self._meta("plan") is None:
                self._set_meta("plan", json.dumps(planner.describe(), sort_keys=True))
            return planner
        sample = [
            normalize_record(json.loads(text))
            for text in self.sample_texts(stream.max_records_in_memory)
        ]
        derived = build_planner(stream.strategy, stream.shards, sample)
        stored = self._meta("plan")
        if stored is None:
            self._set_meta("plan", json.dumps(derived.describe(), sort_keys=True))
            return derived
        if json.loads(stored) != derived.describe():
            raise StoreError(
                "delta would change the shard plan fingerprint (the sample "
                "prefix now yields different split terms); incremental "
                "re-anonymization under a drifted plan would diverge from a "
                "cold run -- rebuild the store from scratch in a fresh "
                "store_dir instead"
            )
        return derived

    # -- windows ------------------------------------------------------------ #
    def get_window(self, shard: int, win: int) -> Optional[tuple]:
        """A window's stored ``(fingerprint, clusters_json, product)``, or ``None``.

        ``product`` is ``None`` unless the stored product was derived from
        exactly the snapshot text read here (its digest matches), so a
        snapshot rewritten on disk is audited again.
        """
        row = self._db.execute(
            "SELECT w.fingerprint, w.clusters, p.digest, p.fragments, p.digests, "
            "p.records, p.stats FROM windows AS w LEFT JOIN window_products AS p "
            "USING (shard, win) WHERE shard = ? AND win = ?",
            (shard, win),
        ).fetchone()
        if row is None:
            return None
        fingerprint, clusters, digest, fragments, digests, records, stats = row
        if digest != window_fingerprint([clusters]):
            return fingerprint, clusters, None
        digests, stats = tuple(json.loads(digests)), tuple(json.loads(stats))
        return fingerprint, clusters, WindowProduct(fragments, digests, records, stats)

    def put_window(
        self,
        shard: int,
        win: int,
        fingerprint: str,
        num_records: int,
        clusters: str,
        product: Optional[WindowProduct],
    ) -> None:
        """Durably replace one window snapshot and its product (one commit).

        ``product`` is ``None`` for a window that failed its audit.
        """
        with self._write() as db:
            db.execute(
                "INSERT OR REPLACE INTO windows "
                "(shard, win, fingerprint, num_records, clusters) "
                "VALUES (?, ?, ?, ?, ?)",
                (shard, win, fingerprint, num_records, clusters),
            )
            if product is not None:
                self._put_product(shard, win, clusters, product)

    def put_product(
        self, shard: int, win: int, clusters: str, product: WindowProduct
    ) -> None:
        """Record the product of an already stored snapshot (one commit)."""
        with self._write():
            self._put_product(shard, win, clusters, product)

    def _put_product(
        self, shard: int, win: int, clusters: str, product: WindowProduct
    ) -> None:
        self._db.execute(
            "INSERT OR REPLACE INTO window_products VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                shard,
                win,
                window_fingerprint([clusters]),
                product.fragments,
                json.dumps(product.digests),
                product.records,
                json.dumps(product.stats),
            ),
        )

    def drop_windows_from(self, shard: int, win: int) -> int:
        """Delete the shard's window snapshots and products at indices ``>= win``.

        Deletes shrink a shard's record sequence, so trailing windows of
        an earlier run can outlive the records that produced them; the
        reconcile pass prunes them the moment the true window count is
        known.  Returns the number of snapshots dropped.
        """
        with self._write() as db:
            db.execute(
                "DELETE FROM window_products WHERE shard = ? AND win >= ?", (shard, win)
            )
            cursor = db.execute(
                "DELETE FROM windows WHERE shard = ? AND win >= ?", (shard, win)
            )
        return cursor.rowcount

    # -- publication --------------------------------------------------------- #
    @property
    def published_generation(self) -> Optional[int]:
        """The generation the window snapshots were last published at.

        ``None`` until a run publishes.  Equal to :attr:`generation` when
        every window snapshot is current, so the publication can be
        assembled from the snapshots without re-reading any record.
        """
        value = self._meta("published_generation")
        return None if value is None else int(value)

    def mark_published(self, generation: int) -> None:
        """Record that the window snapshots publish ``generation`` (one commit).

        Also drops the whole-publication table that stores written by
        earlier releases kept; the windows are the publication now.
        """
        with self._write() as db:
            self._set_meta("published_generation", str(generation))
            db.execute("DROP TABLE IF EXISTS publication")

    def _make_throwaway(self) -> None:
        """Tune a fresh store that is removed after one run.

        Durability buys it nothing, so commits write no journal file and
        never sync (a rollback still works: the journal is kept in
        memory).  Nothing is ever deleted from it, so the index that only
        delete lookups use is dropped; it costs much of the insert.
        """
        self._db.execute("PRAGMA journal_mode=MEMORY").fetchone()
        self._db.execute("PRAGMA synchronous=OFF")
        self._db.execute("DROP INDEX idx_records_content")

    # -- maintenance ---------------------------------------------------------- #
    def compact(self) -> None:
        """Reclaim the space of deleted rows (SQLite ``VACUUM``).

        Deletes and window rewrites leave free pages in the database file;
        compaction rewrites it tight.  Safe at any point between runs --
        it changes the file layout, never the contents.
        """
        faults.check("store.compact")
        deadline.check("store.compact")
        try:
            self._db.execute("VACUUM")
        except sqlite3.Error as exc:
            raise StoreError(f"cannot compact shard store {self.path}: {exc}") from exc


@dataclass
class IncrementalReport:
    """Timings and structural statistics of one sharded run.

    The report of both pipelines: a cold
    :class:`~repro.stream.executor.ShardedPipeline` run reports an
    initialized store with every record appended and every window
    recomputed.  Carries the cluster statistics of
    :class:`~repro.core.engine.AnonymizationReport` (filled by the same
    helper), per-shard record and window counts, the observed peak of the
    original-record working set (the planner sample and each window;
    never above ``max_records_in_memory``), what the global boundary
    pass had to repair, how many records the delta appended/deleted,
    how many windows were reused from the store versus re-anonymized,
    and whether the run was a no-op: every window snapshot was already
    current, so the publication was assembled from them without reading
    a record.
    """

    num_records: int = 0
    num_shards: int = 0
    shard_records: list = field(default_factory=list)
    shard_windows: list = field(default_factory=list)
    peak_resident_records: int = 0
    max_records_in_memory: int = 0
    strategy: str = "hash"
    initialized: bool = False
    noop: bool = False
    delta_replayed: bool = False
    appended: int = 0
    deleted: int = 0
    windows_reused: int = 0
    windows_recomputed: int = 0
    planner: dict = field(default_factory=dict)
    num_clusters: int = 0
    num_joint_clusters: int = 0
    num_record_chunks: int = 0
    num_shared_chunks: int = 0
    term_chunk_terms: int = 0
    repair: BoundaryRepairSummary = field(default_factory=BoundaryRepairSummary)
    open_seconds: float = 0.0
    validate_seconds: float = 0.0
    mutate_seconds: float = 0.0
    anonymize_seconds: float = 0.0
    store_seconds: float = 0.0
    merge_seconds: float = 0.0
    verify_seconds: float = 0.0
    pubstore_seconds: float = 0.0
    pubstore_refreshed: bool = False
    pubstore_tops_written: int = 0
    pubstore_tops_kept: int = 0

    @property
    def total_seconds(self) -> float:
        """Total wall time across the incremental phases."""
        return (
            self.open_seconds
            + self.validate_seconds
            + self.mutate_seconds
            + self.anonymize_seconds
            + self.store_seconds
            + self.merge_seconds
            + self.verify_seconds
            + self.pubstore_seconds
        )

    def phase_timings(self) -> dict:
        """Phase timings as a plain dict (machine-readable perf output)."""
        return {
            "open_seconds": self.open_seconds,
            "validate_seconds": self.validate_seconds,
            "mutate_seconds": self.mutate_seconds,
            "anonymize_seconds": self.anonymize_seconds,
            "store_seconds": self.store_seconds,
            "merge_seconds": self.merge_seconds,
            "verify_seconds": self.verify_seconds,
            "pubstore_seconds": self.pubstore_seconds,
            "total_seconds": self.total_seconds,
        }

    def counters(self) -> dict:
        """Work counters of the run (gated by the perf-regression suite)."""
        return {
            "appended": self.appended,
            "deleted": self.deleted,
            "windows_reused": self.windows_reused,
            "windows_recomputed": self.windows_recomputed,
            "pubstore_tops_written": self.pubstore_tops_written,
            "pubstore_tops_kept": self.pubstore_tops_kept,
        }

    def summary(self) -> str:
        """One-line human readable summary of the run."""
        pubstore = (
            f", pubstore {self.pubstore_tops_written} top-level cluster(s) "
            f"written / {self.pubstore_tops_kept} kept"
            if self.pubstore_refreshed
            else ""
        )
        if self.noop:
            return (
                f"sharded run: no-op, publication of {self.num_records} "
                f"record(s) served from the store "
                f"({self.num_clusters} clusters){pubstore} in {self.total_seconds:.2f}s"
            )
        kind = "initialized" if self.initialized else "delta"
        return (
            f"sharded run ({kind}): {self.num_records} records over "
            f"{self.num_shards} shard(s) ({self.strategy}), "
            f"+{self.appended}/-{self.deleted} record(s), "
            f"{self.windows_recomputed} window(s) recomputed / "
            f"{self.windows_reused} reused, peak resident "
            f"{self.peak_resident_records}/{self.max_records_in_memory} records, "
            f"{self.num_clusters} clusters, "
            f"{self.repair.total_demoted()} boundary demotion(s)"
            f"{pubstore} in {self.total_seconds:.2f}s"
        )


class IncrementalPipeline:
    """Delta-aware counterpart of :class:`~repro.stream.executor.ShardedPipeline`.

    Args:
        params: the anonymization parameters applied inside every window
            (``verify`` is handled globally by the boundary pass).
        stream: the sharding/memory parameters; ``stream.store_dir`` is
            required -- it names the persistent store this pipeline
            maintains.
        window_engine: optionally a caller-owned (typically warm)
            :class:`~repro.core.engine.Disassociator` to run recomputed
            windows on; the service layer passes its long-lived engine.
            Borrowed engines get their parameters/vocabulary restored and
            are never closed.

    :meth:`run` handles both the initial build (an empty store appends the
    whole dataset) and every later delta uniformly, and always returns the
    full publication of the mutated dataset -- bit-for-bit what a cold
    :class:`ShardedPipeline` run over it would publish.  A fresh pipeline
    (a restarted service, a CLI delta) is as warm as a long-lived one:
    every window's audited product lives in the store.
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
        if self.stream.store_dir is None:
            raise ParameterError(
                "IncrementalPipeline requires StreamParams.store_dir: the "
                "persistent shard store is what delta runs are incremental over"
            )
        if self.stream.max_records_in_memory < self.params.max_cluster_size:
            raise ParameterError(
                "max_records_in_memory must be at least max_cluster_size "
                f"(got {self.stream.max_records_in_memory} < "
                f"{self.params.max_cluster_size})"
            )
        self.window_engine = window_engine
        self.last_report: Optional[IncrementalReport] = None

    # -- public entry points ------------------------------------------- #
    def run(
        self,
        append: Iterable[Iterable] = (),
        delete: Iterable[Iterable] = (),
        *,
        delta_id: Optional[str] = None,
    ) -> TextPublication:
        """Apply a delta and return the full (mutated) publication.

        ``append`` records land after every existing record; ``delete``
        removes the earliest surviving occurrence of each given record
        (a record the store does not hold raises
        :class:`~repro.exceptions.StoreError` and nothing is mutated).
        An empty delta on an up-to-date store is a no-op fast path: the
        publication is assembled from the stored window snapshots, with no
        record scan and no engine run.  The publication is a
        :class:`~repro.stream.executor.TextPublication`: its compact JSON
        ``text`` is spliced from the window products (callers that
        serialize the publication, like the HTTP response, send it as
        is), its clusters decoded on first access only.

        ``delta_id`` is an optional idempotency token: a mutation is
        committed at most once per token, so the service layer (or an
        operator re-running a crashed CLI delta with ``--delta-id``) can
        retry a failed delta without double-applying it -- the retry
        skips the (already durable) mutation and finishes the window
        reconciliation and publication instead.  Tokens must be unique
        per logical delta: replaying a known token with *different*
        append/delete contents raises :class:`StoreError`.

        The run holds the store's advisory lock for its whole duration;
        concurrent runs over the same store serialize behind it (one
        that waits longer than the lock timeout fails with
        :class:`StoreError` and can simply be retried).
        """
        report = self.last_report = self._new_report()
        start = time.perf_counter()
        # Exclusive: one run per store at a time.  Concurrent deltas (other
        # service workers, other processes on the same store_dir) queue on
        # the advisory lock instead of tearing each other's reconcile scans.
        store = ShardStore(self.stream.store_dir, exclusive=True)
        report.open_seconds = time.perf_counter() - start
        try:
            return self._run(store, list(append), list(delete), delta_id, report)
        finally:
            store.close()

    def compact(self) -> None:
        """Compact the pipeline's store (see :meth:`ShardStore.compact`)."""
        with ShardStore(self.stream.store_dir, exclusive=True) as store:
            store.compact()

    # -- phases --------------------------------------------------------- #
    def _new_report(self) -> IncrementalReport:
        return IncrementalReport(
            num_shards=self.stream.shards,
            max_records_in_memory=self.stream.max_records_in_memory,
            strategy=self.stream.strategy,
        )

    def _publish_stream(
        self, records: Iterable[Iterable], report: IncrementalReport
    ) -> DisassociatedDataset:
        """Build a fresh, throwaway store from one-shot ``records`` and publish it.

        The cold path of :class:`~repro.stream.executor.ShardedPipeline`,
        which owns ``stream.store_dir`` and removes it afterwards.  The
        records stream into the one mutation transaction; every window is
        computed, no product is written and no publication store is
        refreshed -- nothing of this store outlives the run.
        """
        start = time.perf_counter()
        with ShardStore(self.stream.store_dir) as store:
            store._make_throwaway()
            report.open_seconds = time.perf_counter() - start
            start = time.perf_counter()
            store.initialize(run_fingerprint(self.params, self.stream))
            report.initialized = True
            report.validate_seconds = time.perf_counter() - start
            start = time.perf_counter()
            planner = store.apply_delta(
                (ensure_record(record) for record in records),
                [],
                self._planner(store),
                stream=self.stream,
            )
            report.planner = planner.describe()
            report.mutate_seconds = time.perf_counter() - start
            self._count_records(store, report, sampled=True)
            report.appended = report.num_records
            windows = self._reconcile_windows(store, report, persist=False)
        return publish_merged(windows, self.params, report)

    def _count_records(
        self, store: ShardStore, report: IncrementalReport, *, sampled: bool
    ) -> None:
        """Fill the record counts; ``sampled``: the mutation read the plan's sample."""
        report.num_records = store.num_records()
        report.shard_records = store.shard_counts(self.stream.shards)
        if sampled and self.stream.strategy != "hash":
            report.peak_resident_records = min(
                report.num_records, self.stream.max_records_in_memory
            )

    def _run(
        self,
        store: ShardStore,
        append: list,
        delete: list,
        delta_id: Optional[str],
        report: IncrementalReport,
    ) -> TextPublication:
        fingerprint = run_fingerprint(self.params, self.stream)
        start = time.perf_counter()
        if store.initialized:
            store.validate(fingerprint)
        else:
            if delete:
                raise StoreError(
                    "cannot delete from an uninitialized store: nothing has "
                    "been appended yet"
                )
            store.initialize(fingerprint)
            report.initialized = True
        report.validate_seconds = time.perf_counter() - start

        append = [ensure_record(record) for record in append]
        delete = [ensure_record(record) for record in delete]
        planner = self._planner(store)
        start = time.perf_counter()
        applied = None
        if (append or delete) and delta_id is not None:
            applied = store.applied_digest(delta_id)
        if applied is not None:
            # A previous attempt committed this exact delta before dying;
            # re-applying it would double-mutate.  Fall through to the
            # reconcile pass, which finishes whatever that attempt left.
            # A token reused for *different* content is a caller bug --
            # refuse it rather than silently dropping the new mutation.
            if applied != delta_digest(append, delete):
                raise StoreError(
                    f"delta_id {delta_id!r} was already applied to "
                    f"{store.path} with different contents; idempotency "
                    "tokens must be unique per logical delta"
                )
            report.delta_replayed = True
        elif append or delete:
            planner = store.apply_delta(
                append,
                delete,
                planner,
                stream=self.stream,
                delta_id=delta_id,
                digest=delta_digest(append, delete) if delta_id is not None else None,
            )
            report.appended, report.deleted = len(append), len(delete)
        report.planner = planner.describe()
        report.mutate_seconds = time.perf_counter() - start

        self._count_records(
            store, report, sampled=bool(report.appended or report.deleted)
        )

        generation = store.generation
        if store.published_generation == generation:
            # No-op fast path: every window snapshot is current (covers
            # both an empty delta and the idempotent replay of a fully
            # completed one).  No record scan, no engine: the publication
            # is assembled from the stored windows.
            report.noop = True
            report.shard_windows = [0] * self.stream.shards
            windows = self._stored_windows(store)
        else:
            windows = self._reconcile_windows(store, report)
        published = publish_merged(windows, self.params, report)
        del windows
        if not report.noop:
            start = time.perf_counter()
            store.mark_published(generation)
            report.store_seconds += time.perf_counter() - start
        # A crash between the publication and the pubstore refresh leaves
        # the pubstore one generation behind; the next run (a no-op when
        # nothing else changed) heals it.
        self._refresh_pubstore(published, generation, fingerprint, report)
        return published

    def _refresh_pubstore(
        self,
        published: TextPublication,
        generation: int,
        fingerprint: dict,
        report: IncrementalReport,
    ) -> None:
        """Bring the queryable publication store in step with this run.

        No-op unless ``stream.pubstore_dir`` is configured.  The pubstore
        snapshot is stamped with the shard store's generation and this
        run's parameter fingerprint; a snapshot of this schema version
        that already carries both is current and is left untouched (the
        common no-op delta), while any mismatch -- a fresh delta, a crash
        between the publication and the previous refresh, a store
        written by an older schema version, or a directory that belonged
        to a different run -- triggers one atomic refresh, which rewrites
        only the top-level clusters that changed.  The shard
        store's advisory lock is still held here, so refreshes serialize
        with the runs that produce them.
        """
        if self.stream.pubstore_dir is None:
            return
        from repro.pubstore import PublicationStore

        start = time.perf_counter()
        with PublicationStore(self.stream.pubstore_dir, exclusive=True) as pub:
            if not (
                pub.current
                and pub.generation == generation
                and fingerprint_matches(pub.source, fingerprint)
            ):
                written, kept = pub.build(
                    published,
                    generation=generation,
                    digests=published.digests,
                    source=fingerprint,
                )
                report.pubstore_refreshed = True
                report.pubstore_tops_written = written
                report.pubstore_tops_kept = kept
        report.pubstore_seconds += time.perf_counter() - start

    def _planner(self, store: ShardStore):
        """The routing planner in effect for this run."""
        if self.stream.strategy == "hash":
            return HashShardPlanner(self.stream.shards)
        plan = store.plan()
        if plan is None:
            # Fresh store: derived from the appended prefix inside the
            # mutation transaction; route with an empty-sample planner
            # until then (apply_delta replaces it before any record of a
            # sample-based strategy is inserted).
            return _PrefixRoutingPlanner(self.stream)
        if plan.get("strategy") != self.stream.strategy:
            raise StoreError(
                f"store plan strategy {plan.get('strategy')!r} does not match "
                f"the configured {self.stream.strategy!r}"
            )
        return HorpartShardPlanner(self.stream.shards, plan.get("split_terms", []))

    def _stored_windows(self, store: ShardStore) -> list[Window]:
        """Every stored window, in shard and window order."""
        windows: list[Window] = []
        for shard in range(self.stream.shards):
            win = 0
            while (stored := store.get_window(shard, win)) is not None:
                windows.append(self._stored_window(store, shard, win, stored))
                win += 1
        return windows

    def _stored_window(
        self, store: ShardStore, shard: int, win: int, stored: tuple
    ) -> Window:
        """A stored window (its :meth:`ShardStore.get_window` row) for the run tail.

        A window without a valid product (a store written before products
        were kept, or a snapshot rewritten on disk) is audited here, and
        its product written back when it passes.  The snapshot text is not
        kept: a boundary repair re-reads it.
        """
        _, snapshot, product = stored
        if product is None:
            with paused_gc():
                product = window_product(
                    decode_snapshot(snapshot), self.params.k, self.params.m
                )
            if product is not None:
                store.put_product(shard, win, snapshot, product)
        return Window(product=product, snapshot=partial(_snapshot, store, shard, win))

    def _reconcile_windows(
        self, store: ShardStore, report: IncrementalReport, *, persist: bool = True
    ) -> list[Window]:
        """Bring every window snapshot up to date, reusing unchanged windows.

        Walks every shard's records in arrival order in bounded batches of
        ``max_records_in_memory`` (a cold run's windows), fingerprints
        each batch, and only runs the
        engine on windows whose fingerprint is absent or stale.  A
        recomputed window is audited and commits its snapshot and
        :class:`~repro.stream.executor.WindowProduct` together,
        independently of the other windows, so a crash mid-reconcile
        repeats at most one window; the run keeps its product only, so it
        holds the cluster objects of one window at a time.  Reused windows
        are taken as their stored products (:meth:`_stored_window`).
        ``persist=False`` (a throwaway store) keeps the recomputed
        windows' clusters in memory instead: no snapshot or product is
        encoded or written, since no later run reads one.
        """
        bound = self.stream.max_records_in_memory
        windows: list[Window] = []
        report.shard_windows = [0] * self.stream.shards
        k, m = self.params.k, self.params.m
        start = time.perf_counter()
        store_seconds = verify_seconds = 0.0
        with window_engine_for(self.params, self.window_engine) as engine:
            for shard in range(self.stream.shards):
                # One interning table per shard (lazy: only shards that
                # actually recompute a window pay for it); reuse across
                # the shard's recomputed windows mirrors the cold
                # executor and is output-invariant.
                shard_vocab: Optional[Vocabulary] = None
                after_seq, win = -1, 0
                while True:
                    rows = store.window_texts(shard, after_seq, bound)
                    if not rows:
                        break
                    after_seq = rows[-1][0]
                    report.peak_resident_records = max(
                        report.peak_resident_records, len(rows)
                    )
                    texts = [row[1] for row in rows]
                    fingerprint = window_fingerprint(texts)
                    stored = store.get_window(shard, win)
                    if stored is not None and stored[0] == fingerprint:
                        windows.append(self._stored_window(store, shard, win, stored))
                        report.windows_reused += 1
                    else:
                        faults.check("stream.window")
                        deadline.check("stream.window")
                        if shard_vocab is None:
                            shard_vocab = Vocabulary()
                        engine.vocabulary = shard_vocab
                        # Stored texts are canonical: sorted non-empty strings.
                        batch = [frozenset(json.loads(t)) for t in texts]
                        published = engine.anonymize(
                            TransactionDataset(batch)
                        )
                        prefix = f"S{shard}W{win}."
                        relabeled = [
                            relabel_cluster(cluster, prefix)
                            for cluster in published.clusters
                        ]
                        report.windows_recomputed += 1
                        if not persist:
                            windows.append(Window(relabeled))
                        else:
                            store_start = time.perf_counter()
                            # GC pauses are scoped to the snapshot encoding
                            # and the audit -- whose garbage is acyclic --
                            # never across engine.anonymize, whose cyclic
                            # garbage must stay collectable on large builds.
                            with paused_gc():
                                snapshot = json.dumps(
                                    [cluster_to_payload(c) for c in relabeled],
                                    separators=(",", ":"),
                                )
                                verify_start = time.perf_counter()
                                product = window_product(relabeled, k, m)
                            verified = time.perf_counter()
                            store.put_window(
                                shard, win, fingerprint, len(texts), snapshot, product
                            )
                            verify_seconds += verified - verify_start
                            store_seconds += (
                                verify_start - store_start + time.perf_counter() - verified
                            )
                            # The window's published form is final once it
                            # passes its audit: the run keeps its product only.
                            windows.append(
                                Window(
                                    product=product,
                                    snapshot=partial(_snapshot, store, shard, win),
                                )
                            )
                    win += 1
                    if len(rows) < bound:
                        break
                report.shard_windows[shard] = win
                store.drop_windows_from(shard, win)
        report.store_seconds += store_seconds
        report.verify_seconds += verify_seconds
        report.anonymize_seconds = (
            time.perf_counter() - start - store_seconds - verify_seconds
        )
        return windows


def _snapshot(store: ShardStore, shard: int, win: int) -> str:
    """Re-read one window's snapshot text (a boundary repair decodes it)."""
    return store.get_window(shard, win)[1]


class _PrefixRoutingPlanner:
    """Placeholder planner for a fresh sample-based store.

    Never routes a record: on a fresh store :meth:`ShardStore.apply_delta`
    derives the real planner from the appended prefix *before* inserting
    any record (sample-based strategies only).  Reaching :meth:`shard_of`
    would mean a record was routed before the plan existed -- a logic
    error, surfaced loudly.
    """

    def __init__(self, stream: StreamParams):
        self.stream = stream

    def shard_of(self, record):  # pragma: no cover - defensive
        """Refuse to route: the plan must be derived first."""
        raise StoreError(
            "internal error: record routed before the shard plan was derived"
        )

    def describe(self) -> dict:
        """Describe the not-yet-derived plan."""
        return {"strategy": self.stream.strategy, "shards": self.stream.shards}
