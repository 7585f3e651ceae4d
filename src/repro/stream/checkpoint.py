"""Durable run state for checkpointed sharded streaming runs.

A checkpointed :class:`~repro.stream.executor.ShardedPipeline` run keeps,
next to its shard spill files in ``spill_dir``:

* ``manifest.json`` -- the :class:`RunManifest`: format version, a
  fingerprint of the output-affecting parameters, the planner description,
  per-shard record counts and whether the spill phase completed;
* ``shard-NNNN.clusters.json`` -- one snapshot per completed shard: the
  shard's relabeled cluster list, serialized by :func:`cluster_to_payload`.

Every write is atomic and durable (temp file + flush + fsync +
``os.replace``, then a directory fsync), so a crash at any instant leaves
either the previous file or the new one -- never a torn one.  Because the
snapshot only appears under its final name once fully durable, its very
*existence* is the per-shard completion marker: a resume re-runs exactly
the shards whose snapshot is absent, and no separate progress record has
to be kept in sync with it.  A fresh (non-resume) run deletes the
manifest and every snapshot before touching the spills, so stale
snapshots can never be adopted by a later run.

Snapshots extend the public cluster serialization
(:meth:`~repro.core.clusters.SimpleCluster.to_dict`) with each simple
cluster's private original records.  The global boundary repair that
runs after the merge consults those records to decide which demoted terms
each leaf absorbs; dropping them (as the public form deliberately does)
would make a resumed run repair more conservatively than an uninterrupted
one and break bit-for-bit output identity.  Because those records are
already durable in the shard's spill file, the snapshot normally stores
only their spill-order *indices* (``original_record_indices``) and the
loader re-reads the spill to resolve them; term sets are compacted to
joined strings.  Both are snapshot-internal encodings -- snapshots live
only in the operator's ``spill_dir`` and are not part of the published
output.

The parameter fingerprint covers every field of
:class:`~repro.core.engine.AnonymizationParams` and every field of
:class:`~repro.stream.executor.StreamParams` except the checkpoint switch
and the spill/store directories themselves.  Anything differing raises
:class:`~repro.exceptions.CheckpointError` instead of silently splicing
incompatible partial results into one publication.  Fingerprints written
by earlier releases can carry keys of since-retired, output-neutral
knobs; :func:`fingerprint_matches` ignores those, so their checkpoints
and stores stay usable.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.core.clusters import (
    Cluster,
    JointCluster,
    RecordChunk,
    SharedChunk,
    SimpleCluster,
    TermChunk,
    paused_gc,
)
from repro.datasets.io import iter_jsonl
from repro.exceptions import CheckpointError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.engine import AnonymizationParams
    from repro.stream.executor import StreamParams

#: Manifest file name inside ``spill_dir``.
MANIFEST_NAME = "manifest.json"

#: Manifest format version; bump on any incompatible schema change.
MANIFEST_VERSION = 1

#: Stream fields excluded from the fingerprint (the directories are the
#: checkpoint's/store's identity, not part of it; the switch toggles
#: durability).
_EXCLUDED_STREAM_FIELDS = frozenset(
    {"spill_dir", "checkpoint", "store_dir", "pubstore_dir"}
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


def run_fingerprint(params: "AnonymizationParams", stream: "StreamParams") -> dict:
    """Fingerprint of the output-affecting run parameters (JSON-safe)."""
    fingerprint = {}
    for fld in dataclasses.fields(params):
        fingerprint[f"params.{fld.name}"] = _json_safe(getattr(params, fld.name))
    for fld in dataclasses.fields(stream):
        if fld.name not in _EXCLUDED_STREAM_FIELDS:
            fingerprint[f"stream.{fld.name}"] = _json_safe(getattr(stream, fld.name))
    return fingerprint


#: Fingerprint keys of retired parameters.  Earlier releases stored
#: ``packed_min_rows`` (an output-neutral kernel crossover) in every shard
#: store, checkpoint manifest and publication-store source stamp.
_RETIRED_FINGERPRINT_KEYS = frozenset({"params.packed_min_rows"})


def fingerprint_matches(stored, fingerprint: dict) -> bool:
    """Whether a fingerprint read back from disk names the same run.

    ``stored`` comes from a shard store, a checkpoint manifest or a
    publication store's source stamp; retired keys are dropped from it
    before it is compared with the current ``fingerprint``.
    """
    if not isinstance(stored, dict):
        return False
    current = {
        key: value
        for key, value in stored.items()
        if key not in _RETIRED_FINGERPRINT_KEYS
    }
    return current == fingerprint


def _write_atomic(path: Path, payload: dict) -> None:
    """Durably replace ``path`` with ``payload`` as JSON (atomic rename).

    Serializes to one bytes blob first: a single ``write()`` is several
    times faster than ``json.dump``'s many small writes through the text
    layer, and checkpoint writes sit on the critical path of every shard.
    """
    write_atomic_blob(path, json.dumps(payload, separators=(",", ":")).encode("utf-8"))


def write_atomic_blob(path: Path, blob: bytes) -> None:
    """Durably replace ``path`` with ``blob`` (atomic rename + fsyncs).

    Split out from :func:`_write_atomic` so pre-serialized payloads can be
    written off the compute thread: everything in here releases the GIL
    (plain syscalls), unlike the serialization.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir open
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - platform without dir fsync
        pass
    finally:
        os.close(dir_fd)


@dataclass
class RunManifest:
    """Durable identity + spill state of one checkpointed sharded run.

    ``spill_complete`` guards the spill files: until the full input stream
    has been routed, the per-shard JSONL files are partial and a resume
    must restart from the original records.  Per-shard completion is not
    recorded here -- a shard is done exactly when its (atomically
    published) snapshot file exists, see the module docstring.
    """

    fingerprint: dict
    num_shards: int
    version: int = MANIFEST_VERSION
    planner: dict = field(default_factory=dict)
    num_records: int = 0
    shard_records: list = field(default_factory=list)
    spill_complete: bool = False

    # -- persistence ----------------------------------------------------- #
    @staticmethod
    def path(spill_dir: Path) -> Path:
        """Location of the manifest inside ``spill_dir``."""
        return Path(spill_dir) / MANIFEST_NAME

    def to_payload(self) -> dict:
        """JSON payload of the manifest's current state."""
        return {
            "version": self.version,
            "fingerprint": self.fingerprint,
            "num_shards": self.num_shards,
            "planner": self.planner,
            "num_records": self.num_records,
            "shard_records": list(self.shard_records),
            "spill_complete": self.spill_complete,
        }

    def save(self, spill_dir: Path) -> None:
        """Durably write the manifest (atomic replace + fsync)."""
        _write_atomic(self.path(spill_dir), self.to_payload())

    @classmethod
    def load(cls, spill_dir: Path) -> Optional["RunManifest"]:
        """Read the manifest from ``spill_dir``.

        Returns ``None`` when no manifest exists (nothing was checkpointed
        there); raises :class:`CheckpointError` for a manifest that exists
        but cannot be trusted (unparseable, wrong schema version, or
        malformed fields) -- resuming over it would corrupt the output.
        """
        path = cls.path(spill_dir)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise CheckpointError(f"cannot read run manifest {path}: {exc}") from exc
        try:
            payload = json.loads(text)
            version = int(payload["version"])
            if version != MANIFEST_VERSION:
                raise CheckpointError(
                    f"run manifest {path} has version {version}, "
                    f"this library reads version {MANIFEST_VERSION}"
                )
            manifest = cls(
                fingerprint=dict(payload["fingerprint"]),
                num_shards=int(payload["num_shards"]),
                version=version,
                planner=dict(payload.get("planner") or {}),
                num_records=int(payload.get("num_records", 0)),
                shard_records=[int(n) for n in payload.get("shard_records", [])],
                spill_complete=bool(payload.get("spill_complete", False)),
            )
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed run manifest {path}: {exc}") from exc
        return manifest

    @classmethod
    def invalidate(cls, spill_dir: Path) -> None:
        """Remove the manifest and every snapshot (start of a fresh run).

        A fresh run truncates the spill files, so checkpoint state from an
        earlier run would otherwise describe snapshots that no longer
        match the spills.  The manifest goes first: a crash mid-cleanup
        then resumes from the original records (no manifest), never from
        the leftover snapshots -- which are ignored without a manifest and
        removed here before the new one is written.
        """
        spill_dir = Path(spill_dir)
        try:
            cls.path(spill_dir).unlink()
        except FileNotFoundError:
            pass
        for snapshot in spill_dir.glob("shard-*.clusters.json"):
            try:
                snapshot.unlink()
            except FileNotFoundError:  # pragma: no cover - concurrent cleanup
                pass

    # -- queries --------------------------------------------------------- #
    def matches(self, fingerprint: dict) -> bool:
        """Whether this manifest was written under the same parameters."""
        return fingerprint_matches(self.fingerprint, fingerprint)


# -- shard publication snapshots ----------------------------------------- #
def snapshot_path(spill_dir: Path, shard: int) -> Path:
    """Location of one shard's cluster snapshot inside ``spill_dir``."""
    return Path(spill_dir) / f"shard-{shard:04d}.clusters.json"


def spill_path(spill_dir: Path, shard: int) -> Path:
    """Location of one shard's spilled records inside ``spill_dir``."""
    return Path(spill_dir) / f"shard-{shard:04d}.jsonl"


#: Separator for the compact term-set form in snapshots.  A term set is
#: written as one joined string instead of a JSON list: far fewer objects
#: to build and encode on the per-shard checkpoint critical path, and a
#: plain space needs no JSON escaping.  A set whose terms themselves
#: contain the separator falls back to the list form (detected by a
#: separator count mismatch), so the format is never ambiguous.
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
    """Snapshot form of a record/shared chunk, without the sorted lists.

    The public :meth:`to_dict` sorts every term list for stable published
    output, but chunk contents are ``frozenset``s -- deserialization
    normalizes them straight back into sets, erasing their order -- so
    for a snapshot (private to ``spill_dir``, read only by
    :func:`cluster_from_payload`) the sorting is pure CPU on the
    per-shard checkpoint critical path.  Only *list* order survives the
    round trip (sub-record sequence, contribution slices), and that is
    preserved verbatim here exactly as in :meth:`to_dict`.
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


def cluster_to_payload(cluster: Cluster, record_index: Optional[dict] = None) -> dict:
    """Serialize a cluster tree for a checkpoint snapshot.

    Extends the public :meth:`to_dict` schema with each simple cluster's
    private ``original_records`` (when present): the post-merge boundary
    repair needs them, so a snapshot without them would change the output
    of a resumed run (see the module docstring).  Term lists are written
    unsorted (see :func:`_chunk_payload`); the reconstructed clusters are
    identical either way.

    ``record_index`` (term set -> unconsumed positions in the shard's
    spill file) enables the compact form: the original records are
    already durable in the spill, so each cluster stores only its
    records' *indices* (``original_record_indices``) instead of
    re-serializing the term sets.  Equal records are interchangeable --
    which copy's index a cluster takes cannot matter, they are the same
    term set.  A record missing from the index falls back to the inline
    form for that cluster, so the snapshot is always self-consistent.
    """
    if isinstance(cluster, JointCluster):
        return {
            "type": "joint",
            "label": cluster.label,
            "children": [
                cluster_to_payload(child, record_index) for child in cluster.children
            ],
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
    originals = cluster.original_records
    if originals is not None:
        if record_index is not None:
            try:
                payload["original_record_indices"] = [
                    record_index[record].pop() for record in originals
                ]
                return payload
            except (KeyError, IndexError):
                pass  # record not spilled as-is: store this cluster inline
        payload["original_records"] = [_terms_payload(record) for record in originals]
    return payload


def cluster_from_payload(payload: dict, records: Optional[list] = None) -> Cluster:
    """Rebuild a cluster tree from its :func:`cluster_to_payload` form.

    ``records`` is the shard's spill content in file order, required to
    resolve the compact ``original_record_indices`` form.
    """
    try:
        kind = payload["type"]
        if kind == "joint":
            return JointCluster(
                [cluster_from_payload(child, records) for child in payload["children"]],
                [_chunk_from_payload(c) for c in payload.get("shared_chunks", [])],
                label=payload.get("label"),
            )
        if kind != "simple":
            raise CheckpointError(f"unknown cluster type in snapshot: {kind!r}")
        indices = payload.get("original_record_indices")
        if indices is not None:
            if records is None:
                raise CheckpointError(
                    "cluster snapshot references spill records by index "
                    "but no spill records were provided"
                )
            originals = [records[index] for index in indices]
        else:
            raw = payload.get("original_records")
            originals = (
                None
                if raw is None
                else [_terms_from_payload(record) for record in raw]
            )
        return SimpleCluster(
            size=payload["size"],
            record_chunks=[_chunk_from_payload(c) for c in payload["record_chunks"]],
            term_chunk=TermChunk(_terms_from_payload(payload["term_chunk"]["terms"])),
            label=payload.get("label"),
            original_records=originals,
        )
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"malformed cluster snapshot payload: {exc}") from exc


def serialize_shard_snapshot(
    shard: int,
    clusters: list,
    record_index: Optional[dict] = None,
    windows: int = 0,
) -> bytes:
    """One shard's snapshot as a single JSON blob.

    With a ``record_index`` (see :func:`cluster_to_payload`) the snapshot
    stores spill-file indices instead of the original term sets and marks
    itself ``records_from_spill`` so the loader knows to read them back.
    ``windows`` records how many engine windows produced the shard (pure
    reporting; it travels with the snapshot because the manifest is not
    rewritten per shard).
    """
    with paused_gc():
        payload = {
            "shard": shard,
            "windows": windows,
            "records_from_spill": record_index is not None,
            "clusters": [
                cluster_to_payload(cluster, record_index) for cluster in clusters
            ],
        }
        return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def save_shard_snapshot(
    spill_dir: Path,
    shard: int,
    clusters: list,
    record_index: Optional[dict] = None,
    windows: int = 0,
) -> Path:
    """Durably write one shard's relabeled publication snapshot."""
    path = snapshot_path(spill_dir, shard)
    write_atomic_blob(
        path, serialize_shard_snapshot(shard, clusters, record_index, windows)
    )
    return path


def load_shard_snapshot(spill_dir: Path, shard: int) -> tuple[list, int]:
    """Read one shard's snapshot back as ``(clusters, window count)``.

    A snapshot marked ``records_from_spill`` re-reads the shard's spill
    file (guaranteed complete by ``spill_complete`` before any shard
    runs) to resolve its original-record indices.
    """
    path = snapshot_path(spill_dir, shard)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        if int(payload["shard"]) != shard:
            raise CheckpointError(
                f"snapshot {path} records shard {payload['shard']}, expected {shard}"
            )
        records = None
        if payload.get("records_from_spill"):
            records = list(iter_jsonl(spill_path(spill_dir, shard)))
        with paused_gc():
            clusters = [
                cluster_from_payload(entry, records) for entry in payload["clusters"]
            ]
        return clusters, int(payload.get("windows", 0))
    except CheckpointError:
        raise
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed shard snapshot {path}: {exc}") from exc
