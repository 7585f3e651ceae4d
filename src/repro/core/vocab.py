"""Interned-term execution core: integer vocabulary and encoded datasets.

The disassociation pipeline is dominated by set operations over string
terms.  This module provides the *encoded* substrate the hot paths run on:

* :class:`Vocabulary` -- a deterministic str<->int interning table.  Term
  ids are assigned in first-seen order; ties between equally frequent terms
  are still broken on the *string* form so the encoded pipeline reproduces
  the string pipeline bit-for-bit.
* :class:`EncodedDataset` -- records stored as ``frozenset`` of int ids
  plus per-term posting lists (term id -> set of record indices).  HORPART
  splits become posting-list membership tests instead of dataset copies.
* :class:`EncodedCluster` -- the per-cluster bitmask view used by VERPART:
  each term maps to an int bitmask over the cluster's rows, so the support
  of an m-term combination is a single ``&`` + ``bit_count()``.

Everything decodes back to the string-based containers at the publication
boundary (:mod:`repro.core.clusters`), keeping the public API and the
serialized format unchanged.
"""

from __future__ import annotations

import weakref
from collections import Counter
from collections.abc import Iterable, Sequence
from typing import Any, Optional

from repro.core.dataset import TransactionDataset


class SubrecordArena:
    """Interning table for shared-chunk sub-records (term frozensets).

    REFINE's chunk materialization used to build one fresh ``frozenset``
    per published sub-record row, per merge attempt -- the dominant
    allocation of the phase at default cluster sizes, because joint
    clusters rebuild the same sub-records every time they merge again.
    The arena interns each distinct sub-record once: content-equal
    sub-records share a single canonical instance with a dense int id
    (``0..len-1``, int32-sized in practice), and the hot path resolves a
    row *pattern* (tuple of terms) to its canonical instance with one
    dict probe instead of a frozenset construction.

    :meth:`subrecords_for` is the REFINE kernel: it splits a leaf's
    covered rows into identical-pattern classes with O(terms x classes)
    small-int ANDs, interns one sub-record per class, and expands back to
    per-row sub-records in original record order -- exactly what
    projecting every record would produce, with allocations proportional
    to the *distinct* patterns instead of the rows.
    """

    __slots__ = ("_by_pattern", "_ids", "_table")

    def __init__(self):
        self._by_pattern: dict[tuple, frozenset] = {}
        self._ids: dict[frozenset, int] = {}
        self._table: list[frozenset] = []

    def __len__(self) -> int:
        return len(self._table)

    def __repr__(self) -> str:
        return f"SubrecordArena(|S|={len(self._table)})"

    def intern(self, subrecord: Iterable) -> int:
        """Return the dense id of ``subrecord``, interning it on first sight."""
        subrecord = frozenset(subrecord)
        sid = self._ids.get(subrecord)
        if sid is None:
            sid = len(self._table)
            self._ids[subrecord] = sid
            self._table.append(subrecord)
        return sid

    def id_of(self, subrecord: Iterable) -> Optional[int]:
        """The id of ``subrecord`` or ``None`` when it was never interned."""
        return self._ids.get(frozenset(subrecord))

    def subrecord(self, sid: int) -> frozenset:
        """The canonical sub-record instance for id ``sid``."""
        return self._table[sid]

    def _interned(self, pattern: tuple) -> frozenset:
        """Canonical instance for a term-tuple row pattern (one dict probe hot)."""
        sub = self._by_pattern.get(pattern)
        if sub is None:
            sub = self._table[self.intern(pattern)]
            self._by_pattern[pattern] = sub
        return sub

    def subrecords_for(
        self, term_masks: Sequence[tuple], or_mask: int, count: int
    ) -> list[frozenset]:
        """Interned sub-records of the rows covered by ``or_mask``.

        ``term_masks`` are ``(term, row_bitmask)`` pairs; every covered row
        yields the frozenset of terms whose mask contains it, in increasing
        row order.  Rows are first partitioned into identical-pattern
        classes (rows sharing the exact same term subset), so only one
        canonical sub-record is resolved per class.
        """
        classes: list[tuple[int, tuple]] = [(or_mask, ())]
        for term, mask in term_masks:
            split: list[tuple[int, tuple]] = []
            for rows, pattern in classes:
                inside = rows & mask
                if inside:
                    split.append((inside, pattern + (term,)))
                    rows ^= inside
                if rows:
                    split.append((rows, pattern))
            classes = split
        if len(classes) == 1:
            return [self._interned(classes[0][1])] * count
        ordered: list[tuple[int, frozenset]] = []
        for rows, pattern in classes:
            sub = self._interned(pattern)
            for row in iter_mask_bits(rows):
                ordered.append((row, sub))
        ordered.sort(key=lambda entry: entry[0])
        return [sub for _row, sub in ordered]


class Vocabulary:
    """Deterministic str<->int interning table.

    Ids are dense (``0..len-1``) and assigned in first-seen order, which
    makes encoded artifacts reproducible for a fixed input ordering.
    """

    __slots__ = ("_ids", "_terms", "_subrecord_arena", "_lock", "_thread_arenas")

    def __init__(self, terms: Iterable[str] = ()):
        self._ids: dict[str, int] = {}
        self._terms: list[str] = []
        self._subrecord_arena: Optional[SubrecordArena] = None
        #: Interning lock, present only on shared vocabularies (see
        #: :meth:`make_shared`); ``None`` keeps single-threaded interning
        #: lock-free.
        self._lock: Optional[Any] = None
        self._thread_arenas: Optional[Any] = None
        for term in terms:
            self.intern(term)

    def make_shared(self) -> "Vocabulary":
        """Make this vocabulary safe to share across concurrent encoders.

        Installs an interning lock -- :meth:`intern`, :meth:`encode_terms`
        and the inlined loop of :meth:`EncodedDataset.from_dataset` hold it
        while assigning ids -- and switches :meth:`subrecord_arena` to one
        arena *per thread* (arena interning only canonicalizes content-equal
        sub-records, so per-thread arenas never change any output; a shared
        one would need a lock inside REFINE's hot loop).

        Interning stays append-only and id-insensitive decisions still break
        ties on the decoded string, so concurrent interleavings cannot
        change any publication -- the same output-invariance the streaming
        executor relies on.  The service layer calls this once at
        construction when it runs more than one worker.  Idempotent.
        """
        import threading

        if self._lock is None:
            self._lock = threading.RLock()
            self._thread_arenas = threading.local()
        return self

    @property
    def lock(self):
        """The interning lock of a shared vocabulary, or ``None``."""
        return self._lock

    def subrecord_arena(self) -> SubrecordArena:
        """The vocabulary-lifetime sub-record arena, created on first use.

        REFINE interns shared-chunk sub-records here so canonical
        instances are reused across merge attempts -- and, because the
        streaming executor keeps one vocabulary per shard, across windows.
        On a shared vocabulary (:meth:`make_shared`) the arena is
        per-thread instead, so concurrent REFINE phases never contend.
        """
        if self._lock is not None:
            arenas = self._thread_arenas
            arena = getattr(arenas, "arena", None)
            if arena is None:
                arena = arenas.arena = SubrecordArena()
            return arena
        if self._subrecord_arena is None:
            self._subrecord_arena = SubrecordArena()
        return self._subrecord_arena

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term) -> bool:
        return str(term) in self._ids

    def __repr__(self) -> str:
        return f"Vocabulary(|T|={len(self._terms)})"

    def intern(self, term) -> int:
        """Return the id of ``term``, assigning a fresh one on first sight."""
        term = str(term)
        tid = self._ids.get(term)
        if tid is None:
            if self._lock is not None:
                with self._lock:
                    return self._intern_locked(term)
            tid = len(self._terms)
            self._ids[term] = tid
            self._terms.append(term)
        return tid

    def _intern_locked(self, term: str) -> int:
        """Assign (or find) an id while already holding the interning lock."""
        tid = self._ids.get(term)
        if tid is None:
            tid = len(self._terms)
            self._ids[term] = tid
            self._terms.append(term)
        return tid

    def id_of(self, term) -> Optional[int]:
        """The id of ``term`` or ``None`` when it was never interned."""
        return self._ids.get(str(term))

    def decode(self, tid: int) -> str:
        """The string form of term id ``tid``."""
        return self._terms[tid]

    @property
    def terms(self) -> list[str]:
        """All interned terms, ordered by id (do not mutate)."""
        return list(self._terms)

    def encode_terms(self, terms: Iterable) -> frozenset:
        """Encode an iterable of terms into a ``frozenset`` of ids (interning)."""
        return frozenset(self.intern(t) for t in terms)

    def decode_terms(self, ids: Iterable[int]) -> frozenset:
        """Decode a collection of term ids back into string terms."""
        decode = self._terms
        return frozenset(decode[tid] for tid in ids)


class EncodedDataset:
    """A transaction dataset interned onto integer term ids.

    Stores records as ``frozenset`` of int ids (positionally aligned with
    the source dataset) and an inverted index (posting sets) mapping each
    term id to the indices of the records containing it.  The posting sets
    turn HORPART's ``split_on_term`` into O(1) membership tests and term
    supports within a part into simple Counter updates over small ints.
    """

    __slots__ = ("vocab", "records", "_postings")

    def __init__(self, vocab: Vocabulary, records: list[frozenset]):
        self.vocab = vocab
        self.records = records
        self._postings: Optional[dict[int, set[int]]] = None

    @classmethod
    def from_dataset(
        cls, dataset: TransactionDataset, vocab: Optional[Vocabulary] = None
    ) -> "EncodedDataset":
        """Encode a :class:`TransactionDataset` (or any record sequence).

        The interning loop is inlined (one dict probe per already-seen term
        instead of a method call + ``str`` coercion): encoding sits on the
        pipeline's hot boundary and runs once per input record.

        ``vocab`` optionally reuses an existing (possibly pre-warmed)
        :class:`Vocabulary` instead of interning from scratch -- the
        streaming executor hands one shard-lifetime vocabulary to every
        window so repeated terms keep their ids.  Interning is append-only,
        and every id-sensitive decision downstream breaks ties on the
        *decoded string*, so a pre-warmed vocabulary never changes the
        output.
        """
        if vocab is None:
            vocab = Vocabulary()
        ids = vocab._ids
        terms = vocab._terms
        locked = vocab._lock is not None
        records = []
        append = records.append
        for record in dataset:
            encoded = []
            for term in record:
                tid = ids.get(term)
                if tid is None:
                    if locked:
                        # Shared vocabulary (service worker pool): misses
                        # take the interning lock; hits stay lock-free
                        # (dict reads are safe against concurrent inserts).
                        tid = vocab.intern(term)
                    else:
                        term = str(term)
                        tid = ids.get(term)
                        if tid is None:
                            tid = len(terms)
                            ids[term] = tid
                            terms.append(term)
                encoded.append(tid)
            append(frozenset(encoded))
        return cls(vocab, records)

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"EncodedDataset(n={len(self.records)}, |T|={len(self.vocab)})"

    @property
    def postings(self) -> dict[int, set[int]]:
        """Posting sets: term id -> set of indices of records containing it."""
        if self._postings is None:
            postings: dict[int, set[int]] = {}
            for index, record in enumerate(self.records):
                for tid in record:
                    bucket = postings.get(tid)
                    if bucket is None:
                        postings[tid] = {index}
                    else:
                        bucket.add(index)
            self._postings = postings
        return self._postings

    def supports_in(self, indices: Sequence[int]) -> Counter:
        """Term supports restricted to the records at ``indices``."""
        counts: Counter = Counter()
        records = self.records
        for index in indices:
            counts.update(records[index])
        return counts

    def most_frequent_in(
        self, indices: Sequence[int], exclude: frozenset = frozenset()
    ) -> Optional[int]:
        """Most frequent term id within ``indices`` (ties broken on the string).

        Mirrors :meth:`TransactionDataset.most_frequent_term` exactly so the
        encoded HORPART reproduces the string HORPART's split decisions.
        """
        counts = self.supports_in(indices)
        best_support = -1
        candidates: list[int] = []
        for tid, count in counts.items():
            if tid in exclude:
                continue
            if count > best_support:
                best_support = count
                candidates = [tid]
            elif count == best_support:
                candidates.append(tid)
        if not candidates:
            return None
        decode = self.vocab.decode
        return min(candidates, key=decode)

    def split_indices(
        self, indices: Sequence[int], tid: int
    ) -> tuple[list[int], list[int]]:
        """Split ``indices`` into (containing ``tid``, not containing it).

        Record order is preserved on both sides (HORPART's primitive).
        """
        posting = self.postings.get(tid, set())
        with_term: list[int] = []
        without_term: list[int] = []
        for index in indices:
            (with_term if index in posting else without_term).append(index)
        return with_term, without_term


class EncodedCluster:
    """Bitmask view of one cluster: term -> int bitmask over the rows.

    Bit ``i`` of ``masks[term]`` is set when row ``i`` contains the term, so

    * the support of a term is ``masks[term].bit_count()`` and
    * the support of an m-term combination is the popcount of the AND of
      the member masks.

    Keys are the original *string* terms: the cluster is its own local
    interning scope (clusters are small), which keeps the view independent
    of any global vocabulary.
    """

    __slots__ = ("records", "masks")

    def __init__(self, records: Sequence[frozenset]):
        self.records: list[frozenset] = [frozenset(r) for r in records]
        masks: dict[str, int] = {}
        for row, record in enumerate(self.records):
            bit = 1 << row
            for term in record:
                masks[term] = masks.get(term, 0) | bit
        self.masks = masks

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"EncodedCluster(rows={len(self.records)}, |T|={len(self.masks)})"

    def support(self, term) -> int:
        """Support of a single term within the cluster."""
        return self.masks.get(str(term), 0).bit_count()

    def combination_support(self, terms: Iterable) -> int:
        """Support of an itemset within the cluster (popcount of AND-ed masks)."""
        mask = -1
        for term in terms:
            mask &= self.masks.get(str(term), 0)
            if not mask:
                return 0
        if mask == -1:  # empty itemset: every row matches
            return len(self.records)
        return mask.bit_count()

    def covered_rows(self, terms: Iterable) -> int:
        """Number of rows containing at least one of ``terms`` (OR of masks)."""
        mask = 0
        for term in terms:
            mask |= self.masks.get(str(term), 0)
        return mask.bit_count()


def iter_mask_bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


#: Per-cluster term-mask cache: cluster object -> (masks, num_rows).  Weak
#: keys tie each entry's lifetime to its cluster, so REFINE re-uses the
#: bitmasks VERPART already built for a leaf (and streaming windows inherit
#: warm caches engine-wide) without any explicit invalidation: a cluster's
#: original records never change after construction.
_CLUSTER_MASKS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def register_cluster_masks(cluster, masks: dict, num_rows: int) -> None:
    """Attach already-built term masks to a cluster object (weakly keyed)."""
    _CLUSTER_MASKS[cluster] = (masks, num_rows)


def cluster_masks(cluster) -> tuple[dict, int]:
    """The cluster's term masks over its original records, built once.

    ``cluster.original_records`` is only read on a cache miss (the property
    copies the record list, so a hit must not touch it).
    """
    entry = _CLUSTER_MASKS.get(cluster)
    if entry is None:
        rows = cluster.original_records or []
        entry = (EncodedCluster(rows).masks, len(rows))
        _CLUSTER_MASKS[cluster] = entry
    return entry


def discard_cluster_masks(cluster) -> None:
    """Drop the cached term masks for ``cluster`` (no-op when absent).

    The masks are only read between VERPART (which registers them) and the
    end of REFINE; publishing keeps the cluster objects alive, so without
    an explicit release the masks would stay resident for the lifetime of
    the published dataset -- the engine discards them once the refine
    phase is over.
    """
    _CLUSTER_MASKS.pop(cluster, None)
