"""Decompose top-level clusters into the store's relational rows.

The writer walks a sequence of top-level clusters once and produces
every table's rows, including the two orderings the query engine
depends on:

* ``ord`` -- the chunk's position inside its owning cluster, used by
  :meth:`PublicationStore.load_publication` to rebuild the exact tree;
* ``eord`` -- the position in the enumeration order
  :meth:`~repro.analysis.SupportEstimator.expected_support` visits the
  top-level cluster's chunks in (all shared chunks in pre-order, then
  every leaf's record chunks).  Persisting it lets the store-backed
  estimator multiply its per-chunk probabilities in exactly the same
  order as the in-memory oracle, keeping the floats bit-for-bit equal.

The per-term and per-pair contributions to ``term_stats`` and
``pair_stats`` are accumulated during the same walk.  A refresh writes
only the top-level clusters a publication gained, so the walk starts
from the store's interned terms and from ids past the store's current
maxima, and :func:`removed_stats` prices the clusters it lost with the
same counting rules so the aggregates can be adjusted in place.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import combinations
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.clusters import JointCluster, RecordChunk

if TYPE_CHECKING:  # pragma: no cover - typing only
    import sqlite3


class Stats:
    """Per-term and per-pair contributions of some top-level clusters.

    ``pair_counts`` is keyed by ``(a, b)`` term ids ordered by term
    *string*, the orientation ``pair_stats`` stores.
    """

    def __init__(self) -> None:
        self.chunk_support: Counter = Counter()
        self.term_chunk_count: Counter = Counter()
        self.pair_counts: Counter = Counter()

    def add_subrecord(self, ids: Sequence[int]) -> None:
        """Count one sub-record whose term ids are ordered by term string."""
        support, pairs = self.chunk_support, self.pair_counts
        for tid in ids:
            support[tid] += 1
        for pair in combinations(ids, 2):
            pairs[pair] += 1


class _RowBuilder:
    """Accumulates every table's rows during one walk over top-level clusters."""

    def __init__(self, term_ids: Dict[str, int], next_ids: Sequence[int]) -> None:
        self.term_ids = term_ids
        self.new_terms: List[Tuple[int, str]] = []
        self.top_ids: List[int] = []
        self.cluster_rows: List[tuple] = []
        self.chunk_rows: List[list] = []
        self.chunk_term_rows: List[tuple] = []
        self.subrecord_rows: List[tuple] = []
        self.posting_rows: List[tuple] = []
        self.term_chunk_rows: List[tuple] = []
        self.contribution_rows: List[tuple] = []
        self.stats = Stats()
        self.cluster_term_pairs: set = set()
        # eord assignment: per top-level cluster, shared chunks (walk
        # order == iter_shared_chunks pre-order) then record chunks
        # (walk order == leaves() DFS order).
        self.shared_by_top: Dict[int, List[int]] = defaultdict(list)
        self.record_by_top: Dict[int, List[int]] = defaultdict(list)
        (
            self._next_term,
            self._next_cluster,
            self._next_chunk,
            self._next_subrecord,
        ) = next_ids

    def term_id(self, term: str) -> int:
        """Intern ``term`` and return its id."""
        tid = self.term_ids.get(term)
        if tid is None:
            tid = self._next_term
            self._next_term += 1
            self.term_ids[term] = tid
            self.new_terms.append((tid, term))
        return tid

    def add_chunk(
        self, chunk: RecordChunk, owner: int, top: int, ord_: int, kind: str
    ) -> int:
        """Emit one record/shared chunk's rows; returns the chunk id."""
        chunk_id = self._next_chunk
        self._next_chunk += 1
        # eord is assigned after the walk; keep a mutable placeholder.
        self.chunk_rows.append([chunk_id, owner, top, ord_, 0, kind])
        for term in chunk.domain:
            tid = self.term_id(term)
            self.chunk_term_rows.append((tid, chunk_id, top))
            self.cluster_term_pairs.add((tid, top))
        for position, subrecord in enumerate(chunk.subrecords):
            subrecord_id = self._next_subrecord
            self._next_subrecord += 1
            self.subrecord_rows.append((subrecord_id, chunk_id, position))
            ids = [self.term_id(term) for term in sorted(subrecord)]
            for tid in ids:
                self.posting_rows.append((tid, subrecord_id, chunk_id))
            self.stats.add_subrecord(ids)
        contributions = getattr(chunk, "contributions", None)
        if contributions:
            for position, (label, count) in enumerate(contributions.items()):
                self.contribution_rows.append(
                    (chunk_id, position, str(label), int(count))
                )
        return chunk_id

    def walk(self, cluster, parent: Optional[int], top: Optional[int], ord_: int) -> int:
        """Emit ``cluster``'s subtree in pre-order; returns its cluster id."""
        cluster_id = self._next_cluster
        self._next_cluster += 1
        my_top = top if top is not None else cluster_id
        if isinstance(cluster, JointCluster):
            self.cluster_rows.append(
                (cluster_id, parent, my_top, ord_, "joint", cluster.label, cluster.size)
            )
            for position, chunk in enumerate(cluster.shared_chunks):
                chunk_id = self.add_chunk(chunk, cluster_id, my_top, position, "shared")
                self.shared_by_top[my_top].append(chunk_id)
            for position, child in enumerate(cluster.children):
                self.walk(child, cluster_id, my_top, position)
        else:
            self.cluster_rows.append(
                (cluster_id, parent, my_top, ord_, "simple", cluster.label, cluster.size)
            )
            for position, chunk in enumerate(cluster.record_chunks):
                chunk_id = self.add_chunk(chunk, cluster_id, my_top, position, "record")
                self.record_by_top[my_top].append(chunk_id)
            for term in cluster.term_chunk.terms:
                tid = self.term_id(term)
                self.term_chunk_rows.append((tid, cluster_id, my_top))
                self.stats.term_chunk_count[tid] += 1
                self.cluster_term_pairs.add((tid, my_top))
        return cluster_id

    def assign_eord(self) -> None:
        """Stamp each chunk's estimation ordinal (shared first, then record)."""
        eord_of: Dict[int, int] = {}
        tops = set(self.shared_by_top) | set(self.record_by_top)
        for top in tops:
            ordered = self.shared_by_top.get(top, []) + self.record_by_top.get(top, [])
            for position, chunk_id in enumerate(ordered):
                eord_of[chunk_id] = position
        for row in self.chunk_rows:
            row[4] = eord_of[row[0]]


def build_rows(
    clusters: Iterable[Tuple[int, object]],
    *,
    term_ids: Dict[str, int],
    next_ids: Sequence[int],
) -> _RowBuilder:
    """Walk ``(position, top-level cluster)`` pairs and return every table's rows.

    ``term_ids`` (updated in place) maps the terms already interned in
    the store to their ids; ``next_ids`` are the first free term,
    cluster, chunk and sub-record ids.  Inside each top-level cluster
    the ids are assigned in pre-order.
    """
    builder = _RowBuilder(term_ids, next_ids)
    for position, cluster in clusters:
        builder.top_ids.append(builder.walk(cluster, None, None, position))
    builder.assign_eord()
    return builder


def insert_rows(db: "sqlite3.Connection", builder: _RowBuilder) -> None:
    """Bulk-insert the builder's structural rows (everything but the aggregates).

    Must be called inside an open transaction: the caller (the store)
    owns BEGIN/COMMIT so a crash mid-refresh rolls back to the previous
    consistent snapshot instead of leaving half an index behind.
    """
    db.executemany("INSERT INTO terms (id, term) VALUES (?, ?)", builder.new_terms)
    db.executemany(
        "INSERT INTO clusters (id, parent, top, ord, kind, label, size)"
        " VALUES (?, ?, ?, ?, ?, ?, ?)",
        builder.cluster_rows,
    )
    db.executemany(
        "INSERT INTO chunks (id, cluster, top, ord, eord, kind)"
        " VALUES (?, ?, ?, ?, ?, ?)",
        builder.chunk_rows,
    )
    db.executemany(
        "INSERT INTO chunk_terms (term, chunk, top) VALUES (?, ?, ?)",
        builder.chunk_term_rows,
    )
    db.executemany(
        "INSERT INTO subrecords (id, chunk, ord) VALUES (?, ?, ?)",
        builder.subrecord_rows,
    )
    db.executemany(
        "INSERT INTO postings (term, subrecord, chunk) VALUES (?, ?, ?)",
        builder.posting_rows,
    )
    db.executemany(
        "INSERT INTO term_chunks (term, cluster, top) VALUES (?, ?, ?)",
        builder.term_chunk_rows,
    )
    db.executemany(
        "INSERT INTO cluster_terms (term, top) VALUES (?, ?)",
        sorted(builder.cluster_term_pairs),
    )
    db.executemany(
        "INSERT INTO contributions (chunk, ord, label, count) VALUES (?, ?, ?, ?)",
        builder.contribution_rows,
    )


def removed_stats(
    db: "sqlite3.Connection", term_names: Dict[int, str]
) -> Tuple[Stats, List[Tuple[int, int]]]:
    """Contributions of the top-level clusters listed in ``temp.gone_tops``.

    Returns the clusters' :class:`Stats`, counted exactly like the
    writer counts them, and their ``(term, top)`` full-domain pairs.
    """
    stats = Stats()
    subrecords: Dict[int, List[int]] = defaultdict(list)
    for subrecord, tid in db.execute(
        "SELECT p.subrecord, p.term FROM gone_tops g"
        " JOIN chunks c ON c.top = g.id JOIN postings p ON p.chunk = c.id"
    ):
        subrecords[subrecord].append(tid)
    for ids in subrecords.values():
        ids.sort(key=term_names.__getitem__)
        stats.add_subrecord(ids)
    stats.term_chunk_count.update(
        dict(
            db.execute(
                "SELECT t.term, COUNT(*) FROM gone_tops g"
                " JOIN term_chunks t ON t.top = g.id GROUP BY t.term"
            )
        )
    )
    pairs = db.execute(
        "SELECT ct.term, ct.top FROM gone_tops g JOIN chunk_terms ct ON ct.top = g.id"
        " UNION SELECT t.term, t.top FROM gone_tops g JOIN term_chunks t ON t.top = g.id"
    ).fetchall()
    return stats, pairs


#: Deletes the rows of the top-level clusters listed in ``temp.gone_tops``,
#: children before the chunks and clusters they hang off.
DELETE_GONE = (
    "DELETE FROM postings WHERE chunk IN"
    " (SELECT c.id FROM gone_tops g JOIN chunks c ON c.top = g.id)",
    "DELETE FROM subrecords WHERE chunk IN"
    " (SELECT c.id FROM gone_tops g JOIN chunks c ON c.top = g.id)",
    "DELETE FROM contributions WHERE chunk IN"
    " (SELECT c.id FROM gone_tops g JOIN chunks c ON c.top = g.id)",
    "DELETE FROM chunk_terms WHERE top IN (SELECT id FROM gone_tops)",
    "DELETE FROM term_chunks WHERE top IN (SELECT id FROM gone_tops)",
    "DELETE FROM chunks WHERE top IN (SELECT id FROM gone_tops)",
    "DELETE FROM clusters WHERE top IN (SELECT id FROM gone_tops)",
)


def merge_stats(
    db: "sqlite3.Connection", added: Stats, removed: Stats, new_terms: Iterable[int]
) -> None:
    """Adjust ``term_stats``/``pair_stats`` by ``added - removed``.

    Every id in ``new_terms`` gets a ``term_stats`` row even when its
    net contribution is zero (a term seen only in a chunk domain), like
    a fresh build.  Pair rows that reach zero are deleted.
    """
    chunk_support = Counter(added.chunk_support)
    chunk_support.subtract(removed.chunk_support)
    term_chunk_count = Counter(added.term_chunk_count)
    term_chunk_count.subtract(removed.term_chunk_count)
    touched = set(chunk_support) | set(term_chunk_count) | set(new_terms)
    db.executemany(
        "INSERT INTO term_stats (term, chunk_support, term_chunk_count, total)"
        " VALUES (?, ?, ?, ?) ON CONFLICT (term) DO UPDATE SET"
        " chunk_support = chunk_support + excluded.chunk_support,"
        " term_chunk_count = term_chunk_count + excluded.term_chunk_count,"
        " total = total + excluded.total",
        (
            (
                tid,
                chunk_support[tid],
                term_chunk_count[tid],
                chunk_support[tid] + term_chunk_count[tid],
            )
            for tid in sorted(touched)
        ),
    )
    pairs = Counter(added.pair_counts)
    pairs.subtract(removed.pair_counts)
    db.executemany(
        "INSERT INTO pair_stats (a, b, support) VALUES (?, ?, ?)"
        " ON CONFLICT (a, b) DO UPDATE SET support = support + excluded.support",
        ((a, b, delta) for (a, b), delta in sorted(pairs.items()) if delta),
    )
    if removed.pair_counts:
        db.execute("DELETE FROM pair_stats WHERE support = 0")


__all__ = ["DELETE_GONE", "Stats", "build_rows", "insert_rows", "merge_stats", "removed_stats"]
