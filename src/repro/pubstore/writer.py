"""Decompose top-level clusters into the store's relational rows.

The writer walks the ``to_dict`` forms of a sequence of top-level
clusters once and produces every table's rows, including the two
orderings the query engine depends on:

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


class RowBuilder:
    """Builds and inserts every table's rows, a batch of top-level clusters at a time.

    ``term_ids`` (updated in place) maps the terms already interned in
    the store to their ids; ``next_ids`` are the first free term,
    cluster, chunk and sub-record ids.  Inside each top-level cluster
    the ids are assigned in pre-order.  :meth:`add` walks the ``to_dict``
    form of one top-level cluster into the pending rows and :meth:`flush`
    inserts them; the
    ids, :attr:`top_ids` and the aggregate :attr:`stats` carry across
    flushes, so the rows of many batches equal those of one.
    """

    def __init__(self, term_ids: Dict[str, int], next_ids: Sequence[int]) -> None:
        self.term_ids = term_ids
        self.top_ids: List[int] = []
        self.stats = Stats()
        self.subrecords_written = 0
        (
            self.first_new_term,
            self._next_cluster,
            self._next_chunk,
            self._next_subrecord,
        ) = next_ids
        self.next_term = self.first_new_term
        self._clear()

    def _clear(self) -> None:
        """Drop the pending rows (after a flush)."""
        self.new_terms: List[Tuple[int, str]] = []
        self.cluster_rows: List[tuple] = []
        self.chunk_rows: List[list] = []
        self.chunk_term_rows: List[tuple] = []
        self.subrecord_rows: List[tuple] = []
        self.posting_rows: List[tuple] = []
        self.term_chunk_rows: List[tuple] = []
        self.contribution_rows: List[tuple] = []
        self.cluster_term_pairs: set = set()
        # eord assignment: per top-level cluster, shared chunks (walk
        # order == iter_shared_chunks pre-order) then record chunks
        # (walk order == leaves() DFS order).
        self.shared_by_top: Dict[int, List[int]] = defaultdict(list)
        self.record_by_top: Dict[int, List[int]] = defaultdict(list)

    def term_id(self, term: str) -> int:
        """Intern ``term`` and return its id."""
        tid = self.term_ids.get(term)
        if tid is None:
            tid = self.next_term
            self.next_term += 1
            self.term_ids[term] = tid
            self.new_terms.append((tid, term))
        return tid

    def add_chunk(self, chunk: dict, owner: int, top: int, ord_: int, kind: str) -> int:
        """Emit one record/shared chunk form's rows; returns the chunk id."""
        chunk_id = self._next_chunk
        self._next_chunk += 1
        # eord is assigned at the flush; keep a mutable placeholder.
        self.chunk_rows.append([chunk_id, owner, top, ord_, 0, kind])
        for term in chunk["domain"]:
            tid = self.term_id(term)
            self.chunk_term_rows.append((tid, chunk_id, top))
            self.cluster_term_pairs.add((tid, top))
        for position, subrecord in enumerate(chunk["subrecords"]):
            subrecord_id = self._next_subrecord
            self._next_subrecord += 1
            self.subrecord_rows.append((subrecord_id, chunk_id, position))
            # A form lists a sub-record's terms sorted: the pair orientation.
            ids = [self.term_id(term) for term in subrecord]
            for tid in ids:
                self.posting_rows.append((tid, subrecord_id, chunk_id))
            self.stats.add_subrecord(ids)
        for position, (label, count) in enumerate(chunk.get("contributions", ())):
            self.contribution_rows.append((chunk_id, position, str(label), int(count)))
        return chunk_id

    def walk(self, form: dict, parent: Optional[int], top: Optional[int], ord_: int) -> tuple:
        """Emit a cluster form's subtree in pre-order; returns its ``(id, size)``."""
        cluster_id = self._next_cluster
        self._next_cluster += 1
        my_top = top if top is not None else cluster_id
        if form["type"] == "joint":
            row = [cluster_id, parent, my_top, ord_, "joint", form["label"], 0]
            self.cluster_rows.append(row)
            for position, chunk in enumerate(form["shared_chunks"]):
                chunk_id = self.add_chunk(chunk, cluster_id, my_top, position, "shared")
                self.shared_by_top[my_top].append(chunk_id)
            for position, child in enumerate(form["children"]):
                row[6] += self.walk(child, cluster_id, my_top, position)[1]
            return cluster_id, row[6]
        self.cluster_rows.append(
            (cluster_id, parent, my_top, ord_, "simple", form["label"], form["size"])
        )
        for position, chunk in enumerate(form["record_chunks"]):
            chunk_id = self.add_chunk(chunk, cluster_id, my_top, position, "record")
            self.record_by_top[my_top].append(chunk_id)
        for term in form["term_chunk"]["terms"]:
            tid = self.term_id(term)
            self.term_chunk_rows.append((tid, cluster_id, my_top))
            self.stats.term_chunk_count[tid] += 1
            self.cluster_term_pairs.add((tid, my_top))
        return cluster_id, form["size"]

    def add(self, position: int, form: dict) -> None:
        """Walk the ``to_dict`` form of the top-level cluster at ``position``."""
        self.top_ids.append(self.walk(form, None, None, position)[0])

    def flush(self, db: "sqlite3.Connection") -> None:
        """Stamp the pending chunks' ``eord`` and bulk-insert the pending rows.

        Inserts everything but the aggregates (see :func:`merge_stats`).
        Must be called inside an open transaction: the caller (the store)
        owns BEGIN/COMMIT so a crash mid-refresh rolls back to the
        previous consistent snapshot instead of leaving half an index
        behind.
        """
        eord_of: Dict[int, int] = {}
        for top in set(self.shared_by_top) | set(self.record_by_top):
            ordered = self.shared_by_top.get(top, []) + self.record_by_top.get(top, [])
            for position, chunk_id in enumerate(ordered):
                eord_of[chunk_id] = position
        for row in self.chunk_rows:
            row[4] = eord_of[row[0]]
        db.executemany("INSERT INTO terms (id, term) VALUES (?, ?)", self.new_terms)
        db.executemany(
            "INSERT INTO clusters (id, parent, top, ord, kind, label, size)"
            " VALUES (?, ?, ?, ?, ?, ?, ?)",
            self.cluster_rows,
        )
        db.executemany(
            "INSERT INTO chunks (id, cluster, top, ord, eord, kind)"
            " VALUES (?, ?, ?, ?, ?, ?)",
            self.chunk_rows,
        )
        db.executemany(
            "INSERT INTO chunk_terms (term, chunk, top) VALUES (?, ?, ?)",
            self.chunk_term_rows,
        )
        db.executemany(
            "INSERT INTO subrecords (id, chunk, ord) VALUES (?, ?, ?)",
            self.subrecord_rows,
        )
        self.subrecords_written += len(self.subrecord_rows)
        db.executemany(
            "INSERT INTO postings (term, subrecord, chunk) VALUES (?, ?, ?)",
            self.posting_rows,
        )
        db.executemany(
            "INSERT INTO term_chunks (term, cluster, top) VALUES (?, ?, ?)",
            self.term_chunk_rows,
        )
        db.executemany(
            "INSERT INTO cluster_terms (term, top) VALUES (?, ?)",
            sorted(self.cluster_term_pairs),
        )
        db.executemany(
            "INSERT INTO contributions (chunk, ord, label, count) VALUES (?, ?, ?, ?)",
            self.contribution_rows,
        )
        self._clear()


def removed_stats(
    db: "sqlite3.Connection", term_names: Dict[int, str]
) -> Tuple[Stats, List[Tuple[int, int]]]:
    """Contributions of the top-level clusters listed in ``temp.gone_tops``.

    Every statement starts from ``gone_tops`` (``CROSS JOIN`` pins the
    order against the planner), so it reads the rows of the gone
    clusters only, never a whole table.  Returns the clusters' :class:`Stats`, counted exactly like the
    writer counts them, and their ``(term, top)`` full-domain pairs.
    """
    stats = Stats()
    subrecords: Dict[int, List[int]] = defaultdict(list)
    for subrecord, tid in db.execute(
        "SELECT p.subrecord, p.term FROM gone_tops g"
        " CROSS JOIN chunks c ON c.top = g.id CROSS JOIN postings p ON p.chunk = c.id"
    ):
        subrecords[subrecord].append(tid)
    for ids in subrecords.values():
        ids.sort(key=term_names.__getitem__)
        stats.add_subrecord(ids)
    stats.term_chunk_count.update(
        dict(
            db.execute(
                "SELECT t.term, COUNT(*) FROM gone_tops g"
                " CROSS JOIN term_chunks t ON t.top = g.id GROUP BY t.term"
            )
        )
    )
    pairs = db.execute(
        "SELECT ct.term, ct.top FROM gone_tops g"
        " CROSS JOIN chunk_terms ct ON ct.top = g.id"
        " UNION SELECT t.term, t.top FROM gone_tops g"
        " CROSS JOIN term_chunks t ON t.top = g.id"
    ).fetchall()
    return stats, pairs


#: Deletes the rows of the top-level clusters listed in ``temp.gone_tops``,
#: children before the chunks and clusters they hang off; keyed by table.
DELETE_GONE = {
    "postings": "DELETE FROM postings WHERE chunk IN"
    " (SELECT c.id FROM gone_tops g CROSS JOIN chunks c ON c.top = g.id)",
    "subrecords": "DELETE FROM subrecords WHERE chunk IN"
    " (SELECT c.id FROM gone_tops g CROSS JOIN chunks c ON c.top = g.id)",
    "contributions": "DELETE FROM contributions WHERE chunk IN"
    " (SELECT c.id FROM gone_tops g CROSS JOIN chunks c ON c.top = g.id)",
    "chunk_terms": "DELETE FROM chunk_terms WHERE top IN (SELECT id FROM gone_tops)",
    "term_chunks": "DELETE FROM term_chunks WHERE top IN (SELECT id FROM gone_tops)",
    "chunks": "DELETE FROM chunks WHERE top IN (SELECT id FROM gone_tops)",
    "clusters": "DELETE FROM clusters WHERE top IN (SELECT id FROM gone_tops)",
}


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


__all__ = ["DELETE_GONE", "RowBuilder", "Stats", "merge_stats", "removed_stats"]
