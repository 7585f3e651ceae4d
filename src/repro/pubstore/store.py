"""The persistent, indexed publication store.

:class:`PublicationStore` is a single-file stdlib-SQLite database on the
same substrate as :class:`~repro.stream.ShardStore`
(:class:`repro.storage.SQLiteStore`: WAL journaling, explicit
transaction boundaries, an advisory writer lock) with a versioned schema
and a fingerprint-validated identity, holding one disassociated
publication in fully indexed form
(see :mod:`repro.pubstore.schema` for the layout).  It serves two purposes:

* **queries without scans** -- ``top_terms``, itemset supports,
  frequent pairs and the :class:`~repro.analysis.SupportEstimator`
  bounds answer from the inverted indexes and per-term aggregates, so
  repeated analyst queries cost index lookups instead of a pass over
  every published chunk;
* **faithful reload** -- :meth:`load_publication` rebuilds the exact
  :class:`~repro.core.clusters.DisassociatedDataset` (same cluster
  tree, same chunk and sub-record order, same contribution order), so
  anything the indexes cannot answer falls back to the in-memory path
  with bit-for-bit identical results.

Durability mirrors the shard store: a refresh is **one** atomic
transaction -- the rows of vanished top-level clusters out, the rows of
new ones in, aggregates adjusted, meta restamped, commit -- so a crash
mid-refresh rolls back to the previous consistent snapshot and the next
refresh simply runs again.  A refresh costs in proportion to the
top-level clusters that changed, not to the publication.  The
``generation`` meta slot is stamped by the builder
(:class:`~repro.stream.IncrementalPipeline` passes the shard store's
generation), which is what keeps a pubstore from ever being ahead of or
behind the publication it indexes.  Faults and
deadlines are honored at the ``pubstore.open`` / ``pubstore.build`` /
``pubstore.query`` phase boundaries, so the resilience harness drives
this store like every other subsystem.
"""

from __future__ import annotations

import json
import sqlite3
from collections import defaultdict
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro import faults
from repro.core import deadline
from repro.core.clusters import (
    DisassociatedDataset,
    JointCluster,
    RecordChunk,
    SharedChunk,
    SimpleCluster,
    TermChunk,
    paused_gc,
)
from repro.exceptions import ParameterError, StoreError
from repro.pubstore.schema import (
    DATA_TABLES,
    PUBSTORE_LOCK_NAME,
    PUBSTORE_NAME,
    PUBSTORE_VERSION,
    _SCHEMA,
    cluster_digests,
    digests_fingerprint,
    publication_fingerprint,
)
from repro.pubstore.writer import (
    DELETE_GONE,
    RowBuilder,
    Stats,
    merge_stats,
    removed_stats,
)
from repro.storage import LOCK_TIMEOUT, SQLiteStore

PathLike = Union[str, Path]

#: Top-level clusters a refresh builds and inserts the rows of at a time,
#: inside its one transaction: a first build holds one batch's rows and
#: decoded clusters, not the whole publication's.
REFRESH_BATCH = 64


class BuildStats(NamedTuple):
    """What one :meth:`PublicationStore.build` wrote and kept."""

    #: Top-level clusters whose rows the refresh wrote.
    tops_written: int
    #: Top-level clusters whose rows the refresh left in place.
    tops_kept: int


def _marks(values: Sequence) -> str:
    """A ``?,?,...`` placeholder list sized to ``values``."""
    return ",".join("?" * len(values))


class PublicationStore(SQLiteStore):
    """One publication, persisted and indexed, in a single SQLite file.

    Open is cheap (schema is idempotent); writes go through
    :meth:`build`, which refreshes the snapshot atomically.  All
    methods raise :class:`~repro.exceptions.StoreError` on an unusable
    or foreign database.  Use as a context manager (or call
    :meth:`close`).

    ``exclusive=True`` acquires an advisory writer lock (a write
    transaction on the sibling ``publication.lock`` file) held until
    :meth:`close`, serializing refreshes across threads and processes;
    read-only query opens stay lock-free.  :meth:`reader` opens an
    existing store for queries without creating or touching anything.
    """

    DB_NAME = PUBSTORE_NAME
    LOCK_NAME = PUBSTORE_LOCK_NAME
    SCHEMA = _SCHEMA
    OPEN_POINT = "pubstore.open"
    KIND = "publication store"
    DIR_KIND = "publication store"
    LOCK_BUSY = (
        "another writer holds the lock on publication store {path} "
        "(waited {timeout:.1f}s); refreshes serialize per store"
    )

    @classmethod
    def reader(cls, store_dir: PathLike) -> "PublicationStore":
        """Open the store under ``store_dir`` for queries only.

        Connects to the existing database file and runs nothing else --
        no directory or file is created, no pragma or schema statement
        runs -- so a read of a missing store leaves the path absent and
        raises the same "holds no publication"
        :class:`~repro.exceptions.StoreError` as a read of an unbuilt
        one.  The handle may move between threads (one query at a time)
        and sees every refresh committed after its read transactions
        begin; :meth:`replaced` tells when the path now names another
        file.  Visits the ``pubstore.open`` fault/deadline point.
        """
        return cls(store_dir, create=False)

    @contextmanager
    def read_transaction(self) -> Iterator["PublicationStore"]:
        """Run a block of reads against one committed snapshot.

        A query runs several statements (every op first reads the meta
        header; :meth:`intersection_support` reads the term ids, their
        statistics, then the postings), and they must not straddle a
        refresh's commit: a refresh deletes the rows of the top-level
        clusters it replaced and restamps the header, so a later
        statement could disagree with an earlier one.  Inside this block every read sees the snapshot that
        was current at its first statement (WAL readers never block the
        writer, nor it them).
        """
        self._db.execute("BEGIN")
        try:
            yield self
        finally:
            self._db.execute("COMMIT")

    # -- meta ------------------------------------------------------------ #
    def _meta_int(self, key: str) -> int:
        value = self._meta(key)
        if value is None:
            raise StoreError(
                f"publication store {self.path} has no {key!r} metadata; "
                "the store was never built"
            )
        return int(value)

    @property
    def initialized(self) -> bool:
        """Whether a publication has ever been committed into this store."""
        return self._meta("built") == "1"

    @property
    def current(self) -> bool:
        """Whether the store holds a publication in this library's schema version.

        A built store of another version is stale: reads refuse it and
        the next :meth:`build` rebuilds it from empty.
        """
        return self.initialized and self._meta("version") == str(PUBSTORE_VERSION)

    @property
    def generation(self) -> int:
        """The generation stamp the current snapshot was built from."""
        value = self._meta("generation")
        return 0 if value is None else int(value)

    @property
    def fingerprint(self) -> Optional[str]:
        """Content fingerprint of the stored publication's canonical JSON."""
        return self._meta("fingerprint")

    @property
    def source(self) -> Optional[dict]:
        """The identity of the pipeline run that built the snapshot, if any.

        :class:`~repro.stream.IncrementalPipeline` stamps its run
        fingerprint here so a refresh can tell "same publication, new
        generation" apart from "someone pointed ``pubstore_dir`` at a
        store built from a different run".
        """
        raw = self._meta("source")
        if raw is None:
            return None
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise StoreError(f"malformed source in {self.path}: {exc}") from exc

    @property
    def k(self) -> int:
        """The ``k`` the stored publication guarantees."""
        return self._meta_int("k")

    @property
    def m(self) -> int:
        """The ``m`` the stored publication guarantees."""
        return self._meta_int("m")

    @property
    def total_records(self) -> int:
        """Number of original records represented by the publication."""
        return self._meta_int("total_records")

    @property
    def total_subrecords(self) -> int:
        """Number of published sub-records across all chunks."""
        return self._meta_int("total_subrecords")

    @property
    def chunk_rows(self) -> int:
        """Size of the publication's chunk dataset.

        Sub-records plus one singleton row per term-chunk term --
        exactly ``len(published.chunk_dataset())``, the denominator of
        ``containment_ratio``.
        """
        return self._meta_int("chunk_rows")

    def describe(self) -> dict:
        """Operator-facing snapshot of the store's identity and totals."""
        self._require_built()
        return {
            "path": str(self.path),
            "version": int(self._meta("version") or 0),
            "generation": self.generation,
            "fingerprint": self.fingerprint,
            "k": self.k,
            "m": self.m,
            "total_records": self.total_records,
            "total_subrecords": self.total_subrecords,
            "chunk_rows": self.chunk_rows,
        }

    # -- build ----------------------------------------------------------- #
    @classmethod
    def from_publication(
        cls,
        published: DisassociatedDataset,
        store_dir: PathLike,
        *,
        generation: int = 0,
        digests: Optional[List[str]] = None,
        source: Optional[dict] = None,
        lock_timeout: float = LOCK_TIMEOUT,
    ) -> "PublicationStore":
        """Build a store for ``published`` under ``store_dir`` and return it open."""
        store = cls(store_dir, exclusive=True, lock_timeout=lock_timeout)
        try:
            store.build(
                published, generation=generation, digests=digests, source=source
            )
        except BaseException:
            store.close()
            raise
        return store

    def build(
        self,
        published: DisassociatedDataset,
        *,
        generation: int = 0,
        digests: Optional[List[str]] = None,
        source: Optional[dict] = None,
    ) -> BuildStats:
        """Bring the store in step with ``published`` as one atomic snapshot.

        A publication is a list of independent top-level clusters, so the
        store diffs it against the current snapshot instead of
        rebuilding: top-level clusters whose digest (see
        :func:`~repro.pubstore.schema.cluster_digests`) is already stored
        keep their rows, vanished ones are deleted, new ones are written,
        and the aggregates are adjusted by the difference.  An unbuilt
        store, one of another schema version, or one built from a
        different ``source`` diffs against nothing.

        The whole refresh -- deletes, inserts, positions, meta header --
        commits as a single transaction: a crash at any instant leaves
        the *previous* committed snapshot (or an unbuilt store) behind,
        never a half index.  ``digests`` may pass the top-level cluster
        digests a caller already holds (``digests[i]`` the
        :func:`~repro.pubstore.schema.top_digest` of
        ``published.clusters[i].to_dict()``), so the publication is not
        serialized again; without them they are computed here.
        ``generation`` and ``source`` stamp which upstream state the
        snapshot reflects.  Returns how many top-level clusters were
        written and kept.
        """
        faults.check("pubstore.build")
        deadline.check("pubstore.build")
        forms_at = published.forms_at
        if digests is None:
            payload = published.to_dict()
            digests, fingerprint = cluster_digests(payload)

            def forms_at(positions):
                """The forms the digest pass already built."""
                return (payload["clusters"][position] for position in positions)

        else:
            if len(digests) != len(published):
                raise ParameterError(
                    f"{len(digests)} digest(s) given for "
                    f"{len(published)} top-level cluster(s)"
                )
            fingerprint = digests_fingerprint(
                digests, {"k": published.k, "m": published.m}
            )
        encoded_source = json.dumps(source, sort_keys=True)
        with self._write():
            with paused_gc():
                stats = self._refresh(forms_at, digests, encoded_source)
            self._set_meta("version", str(PUBSTORE_VERSION))
            self._set_meta("fingerprint", fingerprint)
            self._set_meta("generation", str(int(generation)))
            self._set_meta("source", encoded_source)
            self._set_meta("k", str(published.k))
            self._set_meta("m", str(published.m))
            self._set_meta("total_records", str(published.total_records()))
            self._set_meta("built", "1")
            # A second injection point *inside* the transaction: the
            # crash-during-refresh test arms it to prove a mid-refresh
            # death rolls back to the previous consistent snapshot.
            faults.check("pubstore.build")
        return stats

    def _refresh(self, forms_at, digests: List[str], source: str) -> BuildStats:
        """Diff-and-apply a publication inside the open write transaction.

        ``forms_at(positions)`` yields the ``to_dict`` forms of the
        publication's top-level clusters at ascending positions; only
        the clusters the store lacks are asked for.

        Also restamps the sub-record and chunk-row totals, adjusted by
        the rows the refresh deleted and wrote (no table is counted).
        """
        db = self._db
        stored: Dict[str, List[int]] = defaultdict(list)
        subrecords = singletons = 0
        if self.current and self._meta("source") == source:
            for top, digest in db.execute("SELECT id, digest FROM tops ORDER BY id"):
                stored[digest].append(top)
            subrecords = self._meta_int("total_subrecords")
            singletons = self._meta_int("chunk_rows") - subrecords
        else:
            for table in DATA_TABLES:
                db.execute(f"DELETE FROM {table}")
        positions: List[Tuple[int, int, str]] = []
        fresh: List[int] = []
        for position, digest in enumerate(digests):
            matches = stored.get(digest)
            if matches:
                positions.append((matches.pop(0), position, digest))
            else:
                fresh.append(position)
        gone = [top for tops in stored.values() for top in tops]

        term_ids: Dict[str, int] = dict(db.execute("SELECT term, id FROM terms"))
        next_ids = [
            db.execute(f"SELECT COALESCE(MAX(id), 0) + 1 FROM {table}").fetchone()[0]
            for table in ("terms", "clusters", "chunks", "subrecords")
        ]
        removed, gone_pairs = Stats(), []
        if gone:
            db.execute("CREATE TEMP TABLE IF NOT EXISTS gone_tops (id INTEGER PRIMARY KEY)")
            db.execute("DELETE FROM gone_tops")
            db.executemany("INSERT INTO gone_tops (id) VALUES (?)", ((top,) for top in gone))
            term_names = {tid: term for term, tid in term_ids.items()}
            removed, gone_pairs = removed_stats(db, term_names)
            deleted = {table: db.execute(sql).rowcount for table, sql in DELETE_GONE.items()}
            subrecords -= deleted["subrecords"]
            singletons -= deleted["term_chunks"]
            db.executemany(
                "DELETE FROM cluster_terms WHERE term = ? AND top = ?", gone_pairs
            )
        builder = RowBuilder(term_ids, next_ids)
        new_tops = zip(fresh, forms_at(fresh))
        while batch := list(islice(new_tops, REFRESH_BATCH)):
            deadline.check("pubstore.build")
            for position, form in batch:
                builder.add(position, form)
            builder.flush(db)
        merge_stats(
            db, builder.stats, removed, range(builder.first_new_term, builder.next_term)
        )
        subrecords += builder.subrecords_written
        singletons += sum(builder.stats.term_chunk_count.values())
        self._set_meta("total_subrecords", str(subrecords))
        self._set_meta("chunk_rows", str(subrecords + singletons))
        if gone_pairs:
            # Terms of the gone clusters that no top-level cluster holds now.
            gone_terms = json.dumps(sorted({tid for tid, _ in gone_pairs}))
            for table, column in (("term_stats", "term"), ("terms", "id")):
                db.execute(
                    f"DELETE FROM {table} WHERE {column} IN"
                    " (SELECT value FROM json_each(?)) AND NOT EXISTS"
                    f" (SELECT 1 FROM cluster_terms c WHERE c.term = {table}.{column})",
                    (gone_terms,),
                )
        positions.extend(
            (top, position, digests[position])
            for top, position in zip(builder.top_ids, fresh)
        )
        db.execute("DELETE FROM tops")
        db.executemany(
            "INSERT INTO tops (id, pos, digest) VALUES (?, ?, ?)", sorted(positions)
        )
        return BuildStats(tops_written=len(fresh), tops_kept=len(digests) - len(fresh))

    # -- validation ------------------------------------------------------ #
    def _require_built(self) -> None:
        """Refuse a store of another schema version, or an unbuilt one.

        A version-1 store has no ``tops`` table; read through this
        version's queries it would silently look empty.  A reader's file
        that is not a publication store at all (no ``meta`` table, not
        a database) is refused the same way.
        """
        try:
            version = self._meta("version")
            built = self.initialized
        except sqlite3.Error as exc:
            raise StoreError(
                f"cannot read publication store {self.path}: {exc}"
            ) from exc
        if version is not None and version != str(PUBSTORE_VERSION):
            raise StoreError(
                f"publication store {self.path} has version {version!r}, "
                f"this library reads version {PUBSTORE_VERSION}"
            )
        if not built:
            raise self._missing_error()

    def _missing_error(self) -> StoreError:
        """The error for a store with no publication, built or not on disk."""
        return StoreError(
            f"publication store {self.path} holds no publication; "
            "build it first (PublicationResult.save_store, "
            "PublicationStore.from_publication, or an incremental run "
            "with pubstore_dir set)"
        )

    def validate(self) -> None:
        """Refuse a store this library version cannot read, or an unbuilt one."""
        faults.check("pubstore.query")
        deadline.check("pubstore.query")
        self._require_built()

    # -- term lookups ---------------------------------------------------- #
    def term_ids(self, terms: Iterable[str]) -> Dict[str, int]:
        """Map known terms to their interned ids (unknown terms are absent)."""
        wanted = sorted({str(term) for term in terms})
        if not wanted:
            return {}
        rows = self._db.execute(
            f"SELECT term, id FROM terms WHERE term IN ({_marks(wanted)})", wanted
        ).fetchall()
        return dict(rows)

    # -- aggregate queries ----------------------------------------------- #
    def top_terms(self, count: int = 10) -> List[Tuple[str, int]]:
        """The ``count`` most supported terms from the per-term aggregates.

        Same ordering contract as :func:`repro.analysis.top_terms`:
        support descending, then term ascending (SQLite's default BINARY
        collation on UTF-8 text sorts exactly like Python's ``str``
        comparison, code point by code point).
        """
        self._require_built()
        rows = self._db.execute(
            "SELECT t.term, s.total FROM term_stats s"
            " JOIN terms t ON t.id = s.term"
            " ORDER BY s.total DESC, t.term ASC LIMIT ?",
            (max(0, int(count)),),
        ).fetchall()
        return [(term, support) for term, support in rows]

    def support(self, itemset: Iterable) -> int:
        """Support of ``itemset`` in the publication's chunk dataset.

        Matches ``published.chunk_dataset().support(itemset)`` case for
        case: the empty itemset counts every chunk-dataset row, a single
        term reads the per-term aggregate, a pair reads the per-pair
        aggregate, and a larger itemset intersects the term->sub-record
        postings (:meth:`intersection_support`).  ``pair_stats`` counts
        exactly the sub-records holding both terms, and term-chunk rows
        are singletons, so the pair aggregate *is* the pair's support.
        """
        self._require_built()
        items = sorted({str(term) for term in itemset})
        if not items:
            return self.chunk_rows
        if len(items) == 1:
            row = self._db.execute(
                "SELECT s.total FROM terms t JOIN term_stats s ON s.term = t.id"
                " WHERE t.term = ?",
                items,
            ).fetchone()
        elif len(items) == 2:
            # Pair rows are oriented by term string; an unknown term makes
            # its id NULL, which matches no row, exactly like an absent pair.
            row = self._db.execute(
                "SELECT support FROM pair_stats"
                " WHERE a = (SELECT id FROM terms WHERE term = ?)"
                " AND b = (SELECT id FROM terms WHERE term = ?)",
                items,
            ).fetchone()
        else:
            return self.intersection_support(items)
        return 0 if row is None else int(row[0])

    def intersection_support(self, itemset: Iterable) -> int:
        """Sub-records containing every term of ``itemset`` (two or more terms).

        Intersects the posting lists rarest-first: scans the shortest
        list and point-looks-up the rest on the ``(term, subrecord)``
        primary key.  :meth:`support` takes this path for three or more
        terms; for two it must agree with the pair aggregate.
        """
        items = {str(term) for term in itemset}
        if len(items) < 2:
            raise ParameterError(
                f"intersection_support needs two or more terms, got {sorted(items)}"
            )
        ids = self.term_ids(items)
        if len(ids) < len(items):
            return 0
        wanted = sorted(ids.values())
        stats = dict(
            self._db.execute(
                f"SELECT term, chunk_support FROM term_stats"
                f" WHERE term IN ({_marks(wanted)})",
                wanted,
            ).fetchall()
        )
        ordered = sorted(wanted, key=lambda tid: (stats.get(tid, 0), tid))
        # CROSS JOIN pins the rarest-first join order against the planner.
        joins = " ".join(
            f"CROSS JOIN postings p{i}"
            f" ON p{i}.subrecord = p0.subrecord AND p{i}.term = ?"
            for i in range(1, len(ordered))
        )
        row = self._db.execute(
            f"SELECT COUNT(*) FROM postings p0 {joins} WHERE p0.term = ?",
            (*ordered[1:], ordered[0]),
        ).fetchone()
        return int(row[0])

    def lower_bound_support(self, itemset: Iterable) -> int:
        """Provable lower bound on the original support of ``itemset``.

        Identical to
        :meth:`~repro.core.clusters.DisassociatedDataset.lower_bound_support`:
        for non-empty itemsets it coincides with chunk-dataset
        :meth:`support`; the empty itemset counts published sub-records
        only (term-chunk terms contribute no sub-record).
        """
        self._require_built()
        items = frozenset(str(term) for term in itemset)
        if not items:
            return self.total_subrecords
        return self.support(items)

    def pairs_with_min_support(
        self, min_support: int
    ) -> List[Tuple[Tuple[str, str], int]]:
        """All term pairs whose chunk-dataset support is >= ``min_support``.

        Unordered; :class:`~repro.pubstore.QueryEngine` applies the
        oracle's ``(-support, pair)`` sort.
        """
        self._require_built()
        rows = self._db.execute(
            "SELECT ta.term, tb.term, p.support FROM pair_stats p"
            " JOIN terms ta ON ta.id = p.a JOIN terms tb ON tb.id = p.b"
            " WHERE p.support >= ?",
            (int(min_support),),
        ).fetchall()
        return [((a, b), support) for a, b, support in rows]

    # -- expected-support navigation ------------------------------------- #
    def expected_factors(
        self, terms: Sequence[str]
    ) -> List[Tuple[int, int, int, Optional[int]]]:
        """The factors of ``expected_support(terms)``, in one grouped statement.

        ``terms`` are distinct strings.  Returns one ``(pos, size,
        uncovered, matching)`` row per chunk whose domain meets the
        itemset, for every top-level cluster whose full domain covers all
        of ``terms``: ``pos`` and ``size`` are the cluster's publication
        position and record count, ``uncovered`` how many of the terms no
        chunk domain of the cluster holds (they sit in its term chunks),
        and ``matching`` how many of the chunk's sub-records contain the
        chunk's part of the itemset.  Rows come in publication order, then
        in the estimator's enumeration order (``eord``: shared chunks in
        pre-order, then leaf record chunks), so the caller multiplies the
        factors exactly like the in-memory oracle.  A covering cluster
        none of whose chunks meets the itemset gives one row with
        ``matching`` ``None``.  An unknown term leaves no cluster covering
        the itemset, so there are no rows.
        """
        return self._db.execute(
            f"WITH want(term) AS (SELECT id FROM terms WHERE term IN ({_marks(terms)})),"
            " cand(top) AS (SELECT top FROM cluster_terms WHERE term IN want"
            " GROUP BY top HAVING COUNT(*) = ?),"
            " parts(top, chunk, width) AS (SELECT ct.top, ct.chunk, COUNT(*)"
            " FROM cand CROSS JOIN chunk_terms ct"
            " ON ct.top = cand.top AND ct.term IN want GROUP BY ct.top, ct.chunk)"
            " SELECT t.pos, cl.size,"
            " (SELECT COUNT(*) FROM want w WHERE NOT EXISTS (SELECT 1 FROM chunk_terms u"
            " WHERE u.top = cand.top AND u.term = w.term)),"
            # One part term: count its postings; several: the sub-records
            # holding all of them.
            " CASE WHEN parts.width = 1 THEN (SELECT COUNT(*) FROM postings p"
            " WHERE p.chunk = parts.chunk AND p.term IN want)"
            " WHEN parts.width > 1 THEN (SELECT COUNT(*) FROM (SELECT 1 FROM postings p"
            " WHERE p.chunk = parts.chunk AND p.term IN want"
            " GROUP BY p.subrecord HAVING COUNT(*) = parts.width)) END"
            " FROM cand CROSS JOIN tops t ON t.id = cand.top"
            " CROSS JOIN clusters cl ON cl.id = cand.top"
            " LEFT JOIN parts ON parts.top = cand.top"
            " LEFT JOIN chunks c ON c.id = parts.chunk"
            " ORDER BY t.pos, c.eord",
            (*terms, len(terms)),
        ).fetchall()

    # -- faithful reload -------------------------------------------------- #
    def load_publication(self) -> DisassociatedDataset:
        """Rebuild the exact stored publication.

        The reload preserves every load-bearing order -- top-level
        cluster list, child order inside joints, chunk order inside
        clusters, sub-record order inside chunks, contribution order
        inside shared chunks -- so ``load_publication().to_dict()`` is
        identical to the original publication's ``to_dict()`` and every
        in-memory analysis over the reload matches the original
        bit-for-bit.
        """
        self._require_built()
        db = self._db
        with paused_gc():
            terms: Dict[int, str] = dict(db.execute("SELECT id, term FROM terms"))
            sub_terms: Dict[int, List[str]] = defaultdict(list)
            for tid, subrecord in db.execute("SELECT term, subrecord FROM postings"):
                sub_terms[subrecord].append(terms[tid])
            chunk_subs: Dict[int, List[FrozenSet[str]]] = defaultdict(list)
            for sid, chunk in db.execute(
                "SELECT id, chunk FROM subrecords ORDER BY chunk, ord"
            ):
                chunk_subs[chunk].append(frozenset(sub_terms.get(sid, ())))
            chunk_domain: Dict[int, Set[str]] = defaultdict(set)
            for tid, chunk in db.execute("SELECT term, chunk FROM chunk_terms"):
                chunk_domain[chunk].add(terms[tid])
            contribs: Dict[int, Dict[str, int]] = defaultdict(dict)
            for chunk, label, count in db.execute(
                "SELECT chunk, label, count FROM contributions ORDER BY chunk, ord"
            ):
                contribs[chunk][label] = int(count)
            chunks_by_cluster: Dict[int, List[RecordChunk]] = defaultdict(list)
            for chunk_id, cluster, kind in db.execute(
                "SELECT id, cluster, kind FROM chunks ORDER BY cluster, ord"
            ):
                domain = frozenset(chunk_domain.get(chunk_id, ()))
                subrecords = chunk_subs.get(chunk_id, [])
                if kind == "shared":
                    built: RecordChunk = SharedChunk._from_normalized(
                        domain, subrecords, contribs.get(chunk_id, {})
                    )
                else:
                    built = RecordChunk._from_normalized(domain, subrecords)
                chunks_by_cluster[cluster].append(built)
            term_chunk_terms: Dict[int, Set[str]] = defaultdict(set)
            for tid, cluster in db.execute("SELECT term, cluster FROM term_chunks"):
                term_chunk_terms[cluster].add(terms[tid])
            cluster_rows = db.execute(
                "SELECT id, parent, ord, kind, label, size FROM clusters ORDER BY id"
            ).fetchall()
            children_of: Dict[Optional[int], List[Tuple[int, int]]] = defaultdict(list)
            built_clusters: Dict[int, Union[SimpleCluster, JointCluster]] = {}
            # Ids are pre-order inside each top-level cluster, so every
            # child id exceeds its parent's and a reverse walk always
            # finds children already built.
            for cid, parent, ord_, kind, label, size in reversed(cluster_rows):
                if kind == "joint":
                    children = [
                        built_clusters[child_id]
                        for _, child_id in sorted(children_of.get(cid, []))
                    ]
                    built_clusters[cid] = JointCluster(
                        children, chunks_by_cluster.get(cid, []), label=label
                    )
                else:
                    built_clusters[cid] = SimpleCluster._from_normalized(
                        int(size),
                        chunks_by_cluster.get(cid, []),
                        TermChunk(frozenset(term_chunk_terms.get(cid, ()))),
                        label,
                        None,
                    )
                children_of[parent].append((ord_, cid))
            tops = [
                built_clusters[cid]
                for (cid,) in db.execute("SELECT id FROM tops ORDER BY pos")
            ]
            return DisassociatedDataset(tops, k=self.k, m=self.m)

    def verify_against(self, published: DisassociatedDataset) -> bool:
        """Whether the stored fingerprint matches ``published``'s content."""
        self._require_built()
        return self.fingerprint == publication_fingerprint(published.to_dict())


__all__ = ["BuildStats", "PublicationStore", "LOCK_TIMEOUT"]
