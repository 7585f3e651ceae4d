"""Persistent, indexed publication store (the queryable-output subsystem).

The sixth subsystem of the reproduction: once a disassociated
publication exists -- from a batch run, a sharded streaming run or an
incremental delta -- this package persists it into a single-file SQLite
database with term->chunk and chunk->cluster inverted indexes and
per-term support aggregates, so the analyst queries from
:mod:`repro.analysis` answer from index lookups instead of re-scanning
the whole publication per query.

* :class:`PublicationStore` -- the store itself (WAL, versioned schema,
  fingerprint-validated, atomic generation-stamped refreshes that
  rewrite only the top-level clusters a publication changed).
* :class:`QueryEngine` -- one query surface over either a live
  publication (the bit-for-bit equivalence oracle) or a store.
* :class:`StoreSupportEstimator` -- the store-backed twin of
  :class:`repro.analysis.SupportEstimator`.
* :func:`publication_fingerprint` / :func:`pubstore_path` -- identity
  and layout helpers shared with the incremental pipeline.
"""

from repro.pubstore.engine import QUERY_OPS, QueryEngine
from repro.pubstore.estimation import StoreSupportEstimator
from repro.pubstore.schema import (
    PUBSTORE_NAME,
    PUBSTORE_VERSION,
    publication_fingerprint,
    pubstore_path,
)
from repro.pubstore.store import PublicationStore

__all__ = [
    "PUBSTORE_NAME",
    "PUBSTORE_VERSION",
    "PublicationStore",
    "QUERY_OPS",
    "QueryEngine",
    "StoreSupportEstimator",
    "publication_fingerprint",
    "pubstore_path",
]
