"""Data model of a disassociated (published) dataset.

The published output of disassociation (paper, Section 3) is a set of
*clusters*.  A **simple cluster** publishes

* its original size ``|P|`` (number of original records),
* zero or more k^m-anonymous **record chunks**: bags of non-empty
  sub-records, each chunk over its own disjoint term domain, and
* exactly one **term chunk**: a plain set of terms whose multiplicities and
  co-occurrences are hidden.

The refining step may combine clusters into **joint clusters**, which add
k^m-anonymous (or k-anonymous, see Property 1) **shared chunks** built from
terms that were rare within each member cluster but frequent across them.

These classes are pure containers: the construction logic lives in
:mod:`repro.core.horizontal`, :mod:`repro.core.vertical` and
:mod:`repro.core.refine`; verification lives in
:mod:`repro.core.verification`.  Everything is JSON-serializable through
``to_dict`` / ``from_dict`` so published datasets can be exchanged as files.
"""

from __future__ import annotations

import gc
import threading
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from typing import Optional, Union

from repro.exceptions import DatasetFormatError
from repro.core.dataset import TransactionDataset

#: Guards the process-wide pause depth below (the collector itself is
#: process-global, so overlapping pauses from concurrent service workers
#: must coordinate through one counter).
_GC_PAUSE_LOCK = threading.Lock()
_gc_pause_depth = 0
_gc_reenable = False


@contextmanager
def paused_gc():
    """Pause the cyclic garbage collector for a bulk (de)serialization.

    Turning a large publication into (or out of) its dictionary form
    allocates millions of container objects that are all retained until
    the operation finishes, so every generational collection triggered by
    the allocation count rescans a strictly growing live tree and frees
    nothing -- on a ~100k-record publication that multiplies the
    serialization cost by roughly 10x.

    Reentrant and thread-safe: overlapping sections (nested calls, or
    concurrent service workers) share one process-wide pause depth -- the
    first section in disables the collector, the last one out re-enables
    it, and an application-level ``gc.disable()`` already in effect when
    the first section enters is respected (never undone here).
    """
    global _gc_pause_depth, _gc_reenable
    with _GC_PAUSE_LOCK:
        if _gc_pause_depth == 0:
            _gc_reenable = gc.isenabled()
            if _gc_reenable:
                gc.disable()
        _gc_pause_depth += 1
    try:
        yield
    finally:
        with _GC_PAUSE_LOCK:
            _gc_pause_depth -= 1
            if _gc_pause_depth == 0 and _gc_reenable:
                gc.enable()


def _as_record(terms: Iterable) -> frozenset:
    # Fast paths: the hot constructors (chunk materialization in VERPART and
    # REFINE) already hand over frozensets of strings -- share them instead
    # of rebuilding term by term -- and deserialization hands over the JSON
    # parser's lists, whose elements are strings unless a caller handed in
    # something exotic.
    kind = type(terms)
    if kind is frozenset or kind is list:
        for t in terms:
            if type(t) is not str:
                break
        else:
            return terms if kind is frozenset else frozenset(terms)
    return frozenset(str(t) for t in terms)


class RecordChunk:
    """A bag of non-empty sub-records over a dedicated term domain.

    Args:
        domain: the terms this chunk is responsible for (``T_i`` in the paper).
        subrecords: the non-empty projections of the cluster's records onto
            ``domain``; empty projections are dropped (they carry no
            information and are not published).
    """

    def __init__(self, domain: Iterable, subrecords: Iterable[Iterable]):
        self.domain: frozenset = _as_record(domain)
        self.subrecords: list[frozenset] = [
            record for record in map(_as_record, subrecords) if record
        ]

    @classmethod
    def _from_normalized(
        cls, domain: frozenset, subrecords: list
    ) -> "RecordChunk":
        """Construct without re-validating already-normalized content.

        VERPART's chunk materialization projects guaranteed
        ``frozenset``-of-``str`` records onto a guaranteed
        ``frozenset``-of-``str`` domain, so the public constructor's
        per-term coercion would be pure overhead on the phase's hottest
        allocation.  Private: ``subrecords`` MUST already be non-empty
        normalized frozensets.
        """
        chunk = cls.__new__(cls)
        chunk.domain = domain
        chunk.subrecords = subrecords
        return chunk

    def __len__(self) -> int:
        return len(self.subrecords)

    def __iter__(self) -> Iterator[frozenset]:
        return iter(self.subrecords)

    def __repr__(self) -> str:
        return f"RecordChunk(|T|={len(self.domain)}, |C|={len(self.subrecords)})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecordChunk):
            return NotImplemented
        return self.domain == other.domain and sorted(
            map(sorted, self.subrecords)
        ) == sorted(map(sorted, other.subrecords))

    def term_supports(self) -> Counter:
        """Support of each term within this chunk."""
        counts: Counter = Counter()
        for subrecord in self.subrecords:
            counts.update(subrecord)
        return counts

    def support(self, itemset: Iterable) -> int:
        """Support of an itemset inside this chunk (0 if it spans other domains)."""
        items = _as_record(itemset)
        if not items <= self.domain:
            return 0
        return sum(1 for sr in self.subrecords if items <= sr)

    def to_dict(self) -> dict:
        """JSON-ready payload (sorted domain and sub-records; stable output)."""
        return {
            "domain": sorted(self.domain),
            "subrecords": [sorted(sr) for sr in self.subrecords],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RecordChunk":
        """Rebuild a record chunk from its :meth:`to_dict` payload."""
        try:
            return cls(payload["domain"], payload["subrecords"])
        except (KeyError, TypeError) as exc:
            raise DatasetFormatError(f"malformed record chunk: {payload!r}") from exc


class SharedChunk(RecordChunk):
    """A record chunk shared by the member clusters of a joint cluster.

    Structurally identical to :class:`RecordChunk`; it additionally records
    how many sub-records were contributed by each member cluster (needed for
    reconstruction, where a shared sub-record must be attached to a record
    of the contributing cluster).
    """

    def __init__(
        self,
        domain: Iterable,
        subrecords: Iterable[Iterable],
        contributions: Optional[dict] = None,
    ):
        super().__init__(domain, subrecords)
        # cluster-label -> number of (possibly empty) projections contributed
        self.contributions: dict = dict(contributions or {})

    @classmethod
    def _from_normalized(
        cls, domain: frozenset, subrecords: list, contributions: dict
    ) -> "SharedChunk":
        """Construct without re-validating already-normalized content.

        The REFINE chunk builder produces non-empty ``frozenset``-of-``str``
        sub-records directly, so the public constructor's per-term coercion
        would be pure overhead on the hottest allocation of the refine
        phase.  Private: inputs MUST already satisfy the constructor's
        invariants.
        """
        chunk = cls.__new__(cls)
        chunk.domain = domain
        chunk.subrecords = subrecords
        chunk.contributions = contributions
        return chunk

    def to_dict(self) -> dict:
        """JSON-ready payload; adds the ordered per-cluster contributions."""
        payload = super().to_dict()
        # Contributions are serialized as an ordered list of [label, count]
        # pairs: the order matters because the chunk's sub-record list is
        # sliced per contributing cluster in that order at reconstruction time.
        payload["contributions"] = [
            [str(label), int(count)] for label, count in self.contributions.items()
        ]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SharedChunk":
        """Rebuild a shared chunk (and its contributions) from :meth:`to_dict`."""
        try:
            raw = payload.get("contributions") or []
            if isinstance(raw, dict):
                contributions = {str(k): int(v) for k, v in raw.items()}
            else:
                contributions = {str(label): int(count) for label, count in raw}
            return cls(payload["domain"], payload["subrecords"], contributions)
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetFormatError(f"malformed shared chunk: {payload!r}") from exc


class TermChunk:
    """The term chunk ``C_T`` of a cluster: a plain set of terms.

    Only term *presence* is published; supports and co-occurrences of these
    terms inside the cluster are hidden.
    """

    def __init__(self, terms: Iterable = ()):
        self.terms: frozenset = _as_record(terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[str]:
        return iter(self.terms)

    def __contains__(self, term) -> bool:
        return str(term) in self.terms

    def __repr__(self) -> str:
        return f"TermChunk({sorted(self.terms)})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, TermChunk):
            return NotImplemented
        return self.terms == other.terms

    def to_dict(self) -> dict:
        """JSON-ready payload (sorted term list)."""
        return {"terms": sorted(self.terms)}

    @classmethod
    def from_dict(cls, payload: dict) -> "TermChunk":
        """Rebuild a term chunk from its :meth:`to_dict` payload."""
        try:
            return cls(payload["terms"])
        except (KeyError, TypeError) as exc:
            raise DatasetFormatError(f"malformed term chunk: {payload!r}") from exc


class SimpleCluster:
    """A published simple cluster: record chunks + one term chunk + its size.

    Args:
        size: number of original records in the cluster (published, see the
            discussion after vertical partitioning in Section 3).
        record_chunks: the k^m-anonymous record chunks.
        term_chunk: the (possibly empty) term chunk.
        label: stable identifier used by shared chunks and reconstruction.
        original_records: the cluster's original records.  Kept privately by
            the anonymizer (never serialized) because the refining step needs
            them to build shared chunks; consumers of published data never
            see them.
    """

    def __init__(
        self,
        size: int,
        record_chunks: Sequence[RecordChunk],
        term_chunk: TermChunk,
        label: Optional[str] = None,
        original_records: Optional[Sequence[frozenset]] = None,
    ):
        self.size = int(size)
        self.record_chunks: list[RecordChunk] = list(record_chunks)
        self.term_chunk: TermChunk = term_chunk
        self.label: str = label if label is not None else f"P{id(self):x}"
        self._original_records: Optional[list[frozenset]] = (
            [_as_record(r) for r in original_records] if original_records is not None else None
        )

    @classmethod
    def _from_normalized(
        cls,
        size: int,
        record_chunks: list,
        term_chunk: TermChunk,
        label: str,
        original_records: list,
    ) -> "SimpleCluster":
        """Construct without re-normalizing ``original_records``.

        VERPART materializes clusters from records it already passed
        through :func:`_as_record`, so the public constructor's per-record
        coercion would rescan every term of every record a second time.
        Private: ``original_records`` MUST already be normalized
        frozensets and ``record_chunks`` a plain list.
        """
        cluster = cls.__new__(cls)
        cluster.size = int(size)
        cluster.record_chunks = record_chunks
        cluster.term_chunk = term_chunk
        cluster.label = label
        cluster._original_records = original_records
        return cluster

    def __repr__(self) -> str:
        return (
            f"SimpleCluster(label={self.label!r}, size={self.size}, "
            f"chunks={len(self.record_chunks)}, |CT|={len(self.term_chunk)})"
        )

    # -- structural accessors ------------------------------------------ #
    @property
    def original_records(self) -> Optional[list[frozenset]]:
        """The private original records (``None`` for deserialized clusters)."""
        return None if self._original_records is None else list(self._original_records)

    def record_chunk_terms(self) -> frozenset:
        """Union of the record-chunk domains of this cluster."""
        terms: set = set()
        for chunk in self.record_chunks:
            terms.update(chunk.domain)
        return frozenset(terms)

    def domain(self) -> frozenset:
        """All terms published by this cluster (record chunks + term chunk)."""
        return self.record_chunk_terms() | self.term_chunk.terms

    def total_subrecords(self) -> int:
        """Total number of published sub-records across record chunks (Lemma 2)."""
        return sum(len(chunk) for chunk in self.record_chunks)

    def leaves(self) -> list["SimpleCluster"]:
        """The simple clusters under this cluster: itself."""
        return [self]

    def iter_shared_chunks(self) -> Iterator[SharedChunk]:
        """Shared chunks in this subtree: none for a simple cluster."""
        return iter(())

    def to_dict(self) -> dict:
        """JSON-ready payload (type tag, label, size and chunks)."""
        return {
            "type": "simple",
            "label": self.label,
            "size": self.size,
            "record_chunks": [chunk.to_dict() for chunk in self.record_chunks],
            "term_chunk": self.term_chunk.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SimpleCluster":
        """Rebuild a simple cluster from its :meth:`to_dict` payload."""
        try:
            return cls(
                size=payload["size"],
                record_chunks=[RecordChunk.from_dict(c) for c in payload["record_chunks"]],
                term_chunk=TermChunk.from_dict(payload["term_chunk"]),
                label=payload.get("label"),
            )
        except (KeyError, TypeError) as exc:
            raise DatasetFormatError(f"malformed simple cluster: {payload!r}") from exc


class JointCluster:
    """A joint cluster: child clusters plus shared chunks over refining terms.

    The children may themselves be joint clusters (Section 3, recursive
    generalization of joint clusters); the leaves are always simple
    clusters.
    """

    def __init__(
        self,
        children: Sequence[Union[SimpleCluster, "JointCluster"]],
        shared_chunks: Sequence[SharedChunk] = (),
        label: Optional[str] = None,
    ):
        self.children: list[Union[SimpleCluster, JointCluster]] = list(children)
        self.shared_chunks: list[SharedChunk] = list(shared_chunks)
        self.label: str = label if label is not None else f"J{id(self):x}"
        # The child list is fixed at construction (REFINE builds a fresh
        # joint per merge), so the leaf walk and record count are computed
        # once on first use -- they sit on REFINE's per-attempt hot path.
        self._leaves_cache: Optional[list[SimpleCluster]] = None
        self._size_cache: Optional[int] = None

    def __repr__(self) -> str:
        return (
            f"JointCluster(label={self.label!r}, children={len(self.children)}, "
            f"shared_chunks={len(self.shared_chunks)}, size={self.size})"
        )

    @property
    def size(self) -> int:
        """Total number of original records across all leaf clusters."""
        size = self._size_cache
        if size is None:
            self._size_cache = size = sum(leaf.size for leaf in self.leaves())
        return size

    def leaves(self) -> list[SimpleCluster]:
        """The simple clusters at the leaves of this joint cluster."""
        cached = self._leaves_cache
        if cached is None:
            cached = []
            for child in self.children:
                cached.extend(child.leaves())
            self._leaves_cache = cached
        return list(cached)

    def iter_shared_chunks(self) -> Iterator[SharedChunk]:
        """All shared chunks in this joint cluster's subtree (own first)."""
        yield from self.shared_chunks
        for child in self.children:
            yield from child.iter_shared_chunks()

    def record_chunk_terms(self) -> frozenset:
        """Terms appearing in record or shared chunks of the subtree (``T^r``)."""
        terms: set = set()
        for leaf in self.leaves():
            terms.update(leaf.record_chunk_terms())
        for chunk in self.iter_shared_chunks():
            terms.update(chunk.domain)
        return frozenset(terms)

    def term_chunk_terms(self) -> frozenset:
        """Union of the leaf term chunks that are still published as term chunks."""
        terms: set = set()
        for leaf in self.leaves():
            terms.update(leaf.term_chunk.terms)
        return frozenset(terms)

    def domain(self) -> frozenset:
        """All terms published by the joint cluster."""
        return self.record_chunk_terms() | self.term_chunk_terms()

    def to_dict(self) -> dict:
        """JSON-ready payload (children and shared chunks, recursively)."""
        return {
            "type": "joint",
            "label": self.label,
            "children": [child.to_dict() for child in self.children],
            "shared_chunks": [chunk.to_dict() for chunk in self.shared_chunks],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JointCluster":
        """Rebuild a joint cluster tree from its :meth:`to_dict` payload."""
        try:
            children = [cluster_from_dict(c) for c in payload["children"]]
            shared = [SharedChunk.from_dict(c) for c in payload.get("shared_chunks", [])]
            return cls(children, shared, label=payload.get("label"))
        except (KeyError, TypeError) as exc:
            raise DatasetFormatError(f"malformed joint cluster: {payload!r}") from exc


Cluster = Union[SimpleCluster, JointCluster]


def cluster_from_dict(payload: dict) -> Cluster:
    """Deserialize a simple or joint cluster from its dictionary form."""
    kind = payload.get("type")
    if kind == "simple":
        return SimpleCluster.from_dict(payload)
    if kind == "joint":
        return JointCluster.from_dict(payload)
    raise DatasetFormatError(f"unknown cluster type: {kind!r}")


class DisassociatedDataset:
    """The published result of disassociation: a list of top-level clusters.

    Args:
        clusters: simple and/or joint clusters.
        k, m: the anonymity parameters the dataset was built for (published
            alongside the data so analysts know the guarantee).
    """

    def __init__(self, clusters: Sequence[Cluster], k: int, m: int):
        self.clusters: list[Cluster] = list(clusters)
        self.k = int(k)
        self.m = int(m)

    def __repr__(self) -> str:
        return (
            f"DisassociatedDataset(clusters={len(self)}, "
            f"records={self.total_records()}, k={self.k}, m={self.m})"
        )

    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self) -> Iterator[Cluster]:
        return iter(self.clusters)

    def forms_at(self, positions: Iterable[int]) -> Iterator[dict]:
        """The ``to_dict`` forms of the top-level clusters at ascending ``positions``."""
        clusters = self.clusters
        return (clusters[position].to_dict() for position in positions)

    # -- structural accessors ------------------------------------------ #
    def simple_clusters(self) -> list[SimpleCluster]:
        """All leaf (simple) clusters of the published dataset."""
        result: list[SimpleCluster] = []
        for cluster in self.clusters:
            result.extend(cluster.leaves())
        return result

    def total_records(self) -> int:
        """Number of original records represented by the published dataset."""
        return sum(cluster.size if isinstance(cluster, JointCluster) else cluster.size
                   for cluster in self.clusters)

    def domain(self) -> frozenset:
        """All terms appearing anywhere in the published dataset."""
        terms: set = set()
        for cluster in self.clusters:
            terms.update(cluster.domain())
        return frozenset(terms)

    def record_chunk_terms(self) -> frozenset:
        """Terms that appear in at least one record or shared chunk."""
        terms: set = set()
        for cluster in self.clusters:
            terms.update(cluster.record_chunk_terms())
        return frozenset(terms)

    def term_chunk_only_terms(self) -> frozenset:
        """Terms that appear only in term chunks (their associations are lost)."""
        in_chunks = self.record_chunk_terms()
        only: set = set()
        for leaf in self.simple_clusters():
            only.update(t for t in leaf.term_chunk.terms if t not in in_chunks)
        return frozenset(only)

    def iter_record_chunks(self) -> Iterator[RecordChunk]:
        """All record chunks and shared chunks of the published dataset."""
        for leaf in self.simple_clusters():
            yield from leaf.record_chunks
        for cluster in self.clusters:
            yield from cluster.iter_shared_chunks()

    # -- analyst-facing helpers ----------------------------------------- #
    def lower_bound_support(self, itemset: Iterable) -> int:
        """Guaranteed lower bound of an itemset's support in the original data.

        Counts appearances of the itemset inside individual record/shared
        chunks (an itemset fully contained in one chunk is certain to exist
        that many times in the original cluster) and adds one for every term
        chunk containing a single-term itemset (Section 6).
        """
        items = frozenset(str(t) for t in itemset)
        bound = sum(chunk.support(items) for chunk in self.iter_record_chunks())
        if len(items) == 1:
            (term,) = items
            bound += sum(1 for leaf in self.simple_clusters() if term in leaf.term_chunk)
        return bound

    def chunk_dataset(self) -> TransactionDataset:
        """All published sub-records as one transaction dataset.

        Used by the ``*-a`` variants of the metrics, which only rely on
        associations that are certain to exist in the original data.
        """
        subrecords = [sr for chunk in self.iter_record_chunks() for sr in chunk.subrecords]
        # each term-chunk term is certain to appear at least once in its cluster
        for leaf in self.simple_clusters():
            subrecords.extend(frozenset({t}) for t in leaf.term_chunk.terms)
        return TransactionDataset(subrecords, allow_empty=False)

    # -- serialization --------------------------------------------------- #
    def to_dict(self) -> dict:
        """JSON-ready payload of the whole publication (parameters + clusters)."""
        with paused_gc():
            return {
                "k": self.k,
                "m": self.m,
                "clusters": [cluster.to_dict() for cluster in self.clusters],
            }

    @classmethod
    def from_dict(cls, payload: dict) -> "DisassociatedDataset":
        """Rebuild a published dataset from its :meth:`to_dict` payload."""
        try:
            with paused_gc():
                clusters = [cluster_from_dict(c) for c in payload["clusters"]]
            return cls(clusters, k=payload["k"], m=payload["m"])
        except (KeyError, TypeError) as exc:
            raise DatasetFormatError(f"malformed disassociated dataset: {payload!r}") from exc
