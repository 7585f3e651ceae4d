"""Private cluster payload codec for durable per-window snapshots.

The shard store (:mod:`repro.stream.store`) keeps one relabeled cluster
list per engine window.  Its payload extends the public cluster
serialization (:meth:`~repro.core.clusters.SimpleCluster.to_dict`) with
each simple cluster's private original records: the global boundary
repair that runs after the merge consults them to decide which demoted
terms each leaf absorbs, so dropping them (as the public form
deliberately does) would make a run over stored windows repair more
conservatively than a cold run and break bit-for-bit output identity.

Term sets are compacted to joined strings and chunk contents are written
unsorted.  Both are payload-internal encodings: payloads live only inside
an operator's store and are never part of the published output.
"""

from __future__ import annotations

from repro.core.clusters import (
    Cluster,
    JointCluster,
    RecordChunk,
    SharedChunk,
    SimpleCluster,
    TermChunk,
)
from repro.exceptions import CheckpointError

#: Separator for the compact term-set form.  A term set is written as one
#: joined string instead of a JSON list: far fewer objects to build and
#: encode per window snapshot, and a plain space needs no JSON escaping.
#: A set whose terms themselves contain the separator falls back to the
#: list form (detected by a separator count mismatch), so the format is
#: never ambiguous.
_TERMS_SEP = " "


def _terms_payload(terms):
    """One term set as a joined string (or a list when unrepresentable)."""
    joined = _TERMS_SEP.join(terms)
    if joined.count(_TERMS_SEP) != len(terms) - 1:
        return list(terms)  # a term contains the separator (or the set is empty)
    return joined


def _terms_from_payload(value):
    """Invert :func:`_terms_payload` (accepts both forms)."""
    return value.split(_TERMS_SEP) if isinstance(value, str) else value


def _chunk_payload(chunk) -> dict:
    """Payload form of a record/shared chunk, without the sorted lists.

    The public :meth:`to_dict` sorts every term list for stable published
    output, but chunk contents are ``frozenset``s -- deserialization
    normalizes them straight back into sets, erasing their order -- so
    for a private payload the sorting is pure CPU.  Only *list* order
    survives the round trip (sub-record sequence, contribution slices),
    and that is preserved verbatim here exactly as in :meth:`to_dict`.
    """
    payload = {
        "domain": _terms_payload(chunk.domain),
        "subrecords": [_terms_payload(subrecord) for subrecord in chunk.subrecords],
    }
    if isinstance(chunk, SharedChunk):
        payload["contributions"] = [
            [str(label), int(count)] for label, count in chunk.contributions.items()
        ]
    return payload


def _chunk_from_payload(payload: dict):
    """Rebuild a record/shared chunk from its :func:`_chunk_payload` form."""
    domain = _terms_from_payload(payload["domain"])
    subrecords = [_terms_from_payload(sr) for sr in payload["subrecords"]]
    raw = payload.get("contributions")
    if raw is None:
        return RecordChunk(domain, subrecords)
    return SharedChunk(
        domain, subrecords, {str(label): int(count) for label, count in raw}
    )


def cluster_to_payload(cluster: Cluster) -> dict:
    """Serialize a cluster tree, private original records included.

    Extends the public :meth:`to_dict` schema with each simple cluster's
    ``original_records`` (when present); see the module docstring for why
    the post-merge boundary repair needs them.  Term lists are written
    unsorted (see :func:`_chunk_payload`); the reconstructed clusters are
    identical either way.
    """
    if isinstance(cluster, JointCluster):
        return {
            "type": "joint",
            "label": cluster.label,
            "children": [cluster_to_payload(child) for child in cluster.children],
            "shared_chunks": [
                _chunk_payload(chunk) for chunk in cluster.shared_chunks
            ],
        }
    payload = {
        "type": "simple",
        "label": cluster.label,
        "size": cluster.size,
        "record_chunks": [_chunk_payload(chunk) for chunk in cluster.record_chunks],
        "term_chunk": {"terms": _terms_payload(cluster.term_chunk.terms)},
    }
    if cluster.original_records is not None:
        payload["original_records"] = [
            _terms_payload(record) for record in cluster.original_records
        ]
    return payload


def cluster_from_payload(payload: dict) -> Cluster:
    """Rebuild a cluster tree from its :func:`cluster_to_payload` form.

    A malformed payload raises :class:`~repro.exceptions.CheckpointError`.
    """
    try:
        kind = payload["type"]
        if kind == "joint":
            return JointCluster(
                [cluster_from_payload(child) for child in payload["children"]],
                [_chunk_from_payload(c) for c in payload.get("shared_chunks", [])],
                label=payload.get("label"),
            )
        if kind != "simple":
            raise CheckpointError(f"unknown cluster type in payload: {kind!r}")
        raw = payload.get("original_records")
        return SimpleCluster(
            size=payload["size"],
            record_chunks=[_chunk_from_payload(c) for c in payload["record_chunks"]],
            term_chunk=TermChunk(_terms_from_payload(payload["term_chunk"]["terms"])),
            label=payload.get("label"),
            original_records=(
                None if raw is None else [_terms_from_payload(r) for r in raw]
            ),
        )
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"malformed cluster payload: {exc}") from exc
