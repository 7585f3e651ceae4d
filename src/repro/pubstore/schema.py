"""SQLite schema for the indexed publication store.

One publication per store file.  The schema decomposes a
:class:`~repro.core.clusters.DisassociatedDataset` into relational form
*plus* the inverted indexes and aggregates that let the analyst queries
in :mod:`repro.analysis` answer without scanning the publication:

``meta``
    Key/value header: schema version, publication fingerprint,
    generation stamp, ``k``/``m``, and the record totals the query
    engine needs as constants (``total_records``, ``chunk_rows``,
    ``total_subrecords``).
``terms``
    Interned term strings; every other table refers to terms by id.
``tops``
    One row per top-level cluster: its id, its position (``pos``) in the
    publication's cluster list, and the digest of its canonical JSON.  A
    refresh matches digests to find the top-level clusters a new
    publication kept, so it rewrites only the ones that changed.
``clusters``
    The cluster tree (simple and joint), with each row carrying its
    top-level ancestor (``top``) so per-cluster work never walks the
    tree at query time.  Ids are pre-order *inside* one top-level
    cluster; across top-level clusters they only reflect insertion
    order, so publication order comes from ``tops.pos``.
``chunks``
    Record and shared chunks with two orderings: ``ord`` (position in
    the owning cluster, used to reload the publication faithfully) and
    ``eord`` (the enumeration order
    :meth:`~repro.analysis.SupportEstimator.expected_support` visits
    chunks in, used to reproduce its float products bit-for-bit).
    ``(top, eord)`` indexes a top-level cluster's chunks in that order.
``chunk_terms``
    Chunk domains; the ``(term, chunk)`` primary key is the term->chunk
    inverted index.
``subrecords`` / ``postings``
    Subrecord identities and the term->subrecord inverted index that
    answers itemset-support queries with an index intersection.
``term_chunks``
    Term-chunk membership per simple cluster (``T``-chunk terms).
``cluster_terms``
    Full-domain term -> top-level cluster map, used to prune
    ``expected_support`` to the clusters whose domain covers the
    itemset.
``term_stats`` / ``pair_stats``
    Per-term and per-pair support aggregates: ``top_terms`` and
    ``frequent_pairs`` answer from these alone.
``contributions``
    Ordered shared-chunk contribution lists (the reconstruction
    slicing order is load-bearing, so the order is persisted).
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.core.clusters import canonical_json

#: File name of the publication store inside its directory.
PUBSTORE_NAME = "publication.sqlite"

#: Sibling file used as the advisory writer lock.
PUBSTORE_LOCK_NAME = "publication.lock"

#: Bumped whenever the schema below changes shape; a store written by a
#: different version is refused rather than silently misread.
PUBSTORE_VERSION = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
) WITHOUT ROWID;

CREATE TABLE IF NOT EXISTS terms (
    id   INTEGER PRIMARY KEY,
    term TEXT NOT NULL UNIQUE
);

CREATE TABLE IF NOT EXISTS tops (
    id     INTEGER PRIMARY KEY,
    pos    INTEGER NOT NULL,
    digest TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS clusters (
    id     INTEGER PRIMARY KEY,
    parent INTEGER,
    top    INTEGER NOT NULL,
    ord    INTEGER NOT NULL,
    kind   TEXT NOT NULL,
    label  TEXT NOT NULL,
    size   INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_clusters_top ON clusters (top);

CREATE TABLE IF NOT EXISTS chunks (
    id      INTEGER PRIMARY KEY,
    cluster INTEGER NOT NULL,
    top     INTEGER NOT NULL,
    ord     INTEGER NOT NULL,
    eord    INTEGER NOT NULL,
    kind    TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_chunks_top ON chunks (top, eord);

CREATE TABLE IF NOT EXISTS chunk_terms (
    term  INTEGER NOT NULL,
    chunk INTEGER NOT NULL,
    top   INTEGER NOT NULL,
    PRIMARY KEY (term, chunk)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_chunk_terms_top ON chunk_terms (top, term);

CREATE TABLE IF NOT EXISTS subrecords (
    id    INTEGER PRIMARY KEY,
    chunk INTEGER NOT NULL,
    ord   INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_subrecords_chunk ON subrecords (chunk, ord);

CREATE TABLE IF NOT EXISTS postings (
    term      INTEGER NOT NULL,
    subrecord INTEGER NOT NULL,
    chunk     INTEGER NOT NULL,
    PRIMARY KEY (term, subrecord)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_postings_chunk ON postings (chunk, term, subrecord);

CREATE TABLE IF NOT EXISTS term_chunks (
    term    INTEGER NOT NULL,
    cluster INTEGER NOT NULL,
    top     INTEGER NOT NULL,
    PRIMARY KEY (term, cluster)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_term_chunks_top ON term_chunks (top, term);

CREATE TABLE IF NOT EXISTS cluster_terms (
    term INTEGER NOT NULL,
    top  INTEGER NOT NULL,
    PRIMARY KEY (term, top)
) WITHOUT ROWID;

CREATE TABLE IF NOT EXISTS term_stats (
    term             INTEGER PRIMARY KEY,
    chunk_support    INTEGER NOT NULL,
    term_chunk_count INTEGER NOT NULL,
    total            INTEGER NOT NULL
);

CREATE TABLE IF NOT EXISTS pair_stats (
    a       INTEGER NOT NULL,
    b       INTEGER NOT NULL,
    support INTEGER NOT NULL,
    PRIMARY KEY (a, b)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_pair_stats_support ON pair_stats (support);

CREATE TABLE IF NOT EXISTS contributions (
    chunk INTEGER NOT NULL,
    ord   INTEGER NOT NULL,
    label TEXT NOT NULL,
    count INTEGER NOT NULL,
    PRIMARY KEY (chunk, ord)
) WITHOUT ROWID;

-- Indexes of earlier releases that no statement reads; a writer open
-- drops them from a store that still has them.
DROP INDEX IF EXISTS idx_clusters_parent;
DROP INDEX IF EXISTS idx_chunks_cluster;
DROP INDEX IF EXISTS idx_chunk_terms_chunk;
DROP INDEX IF EXISTS idx_term_chunks_cluster;
"""

#: Every data table a refresh clears when it has no snapshot to diff
#: against (``meta`` is restamped, never cleared).
DATA_TABLES = (
    "tops",
    "terms",
    "clusters",
    "chunks",
    "chunk_terms",
    "subrecords",
    "postings",
    "term_chunks",
    "cluster_terms",
    "term_stats",
    "pair_stats",
    "contributions",
)


def pubstore_path(store_dir: Union[str, Path]) -> Path:
    """Return the SQLite file path for a publication store directory."""
    return Path(store_dir) / PUBSTORE_NAME


def _digest(value: Any) -> str:
    """Hash the canonical JSON encoding (sorted keys, compact separators)."""
    return hashlib.blake2b(canonical_json(value).encode("utf-8"), digest_size=16).hexdigest()


def top_digest(cluster: Dict[str, Any]) -> str:
    """Digest of one top-level cluster's ``to_dict`` form (its ``tops`` key)."""
    return _digest(cluster)


def digests_fingerprint(digests: List[str], header: Dict[str, Any]) -> str:
    """Publication fingerprint from its ordered top-level cluster digests.

    ``header`` is the payload without its ``"clusters"`` key (``k`` and
    ``m`` for a ``to_dict`` payload).
    """
    return _digest({"clusters": digests, "header": header})


def cluster_digests(payload: Dict[str, Any]) -> Tuple[List[str], str]:
    """Digest every top-level cluster of a ``to_dict`` payload.

    Returns ``(digests, fingerprint)``: ``digests[i]`` is the
    :func:`top_digest` of ``payload["clusters"][i]``, and ``fingerprint``
    is the :func:`digests_fingerprint` of those digests and the payload's
    other keys, so the publication is encoded once for both.
    """
    digests = [top_digest(cluster) for cluster in payload.get("clusters", [])]
    header = {key: value for key, value in payload.items() if key != "clusters"}
    return digests, digests_fingerprint(digests, header)


def publication_fingerprint(payload: Dict[str, Any]) -> str:
    """Fingerprint a publication's serialized form (``to_dict`` payload).

    Built on :func:`cluster_digests`, so logically identical publications
    fingerprint identically regardless of how the payload dict was
    assembled.
    """
    return cluster_digests(payload)[1]
