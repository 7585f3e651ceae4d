"""Sharded streaming anonymization: bounded-memory disassociation at scale.

The disassociation transform is embarrassingly partitionable after HORPART
(each cluster is anonymized independently), so datasets too large for one
:class:`~repro.core.engine.Pipeline` pass are handled by sharding the
stream and anonymizing each shard in bounded-memory windows:

* :mod:`repro.stream.planner`  -- record-to-shard routing (content hash or
  HORPART-guided split-term bitmask);
* :mod:`repro.stream.executor` -- :class:`ShardedPipeline`: spill, window,
  anonymize, merge;
* :mod:`repro.stream.boundary` -- the global verification pass that
  re-audits the merged publication across shard boundaries and demotes
  boundary-violating terms (the shard-boundary verification rule is
  documented in that module's docstring);
* :mod:`repro.stream.checkpoint` -- the durable :class:`RunManifest` and
  per-shard publication snapshots behind checkpointed runs, so
  ``ShardedPipeline.run(resume=True)`` restarts only the shard a crash
  interrupted and still publishes bit-for-bit identical output;
* :mod:`repro.stream.store` -- the persistent :class:`ShardStore` (one
  SQLite file) and :class:`IncrementalPipeline`: long-lived delta runs
  that append/delete records and re-anonymize only the windows whose
  content changed, publishing bit-for-bit what a cold run over the
  mutated dataset would.

Typical usage::

    from repro.stream import ShardedPipeline, StreamParams
    from repro import AnonymizationParams

    pipeline = ShardedPipeline(
        AnonymizationParams(k=5, m=2),
        StreamParams(shards=8, max_records_in_memory=10_000),
    )
    published = pipeline.anonymize_file("huge.jsonl")
    print(pipeline.last_report.summary())
"""

from repro.stream.boundary import (
    BoundaryRepairSummary,
    demote_terms,
    verify_and_repair,
)
from repro.stream.checkpoint import (
    MANIFEST_VERSION,
    RunManifest,
    load_shard_snapshot,
    run_fingerprint,
    save_shard_snapshot,
    snapshot_path,
)
from repro.stream.executor import (
    DEFAULT_MAX_RECORDS_IN_MEMORY,
    DEFAULT_SHARDS,
    ShardedPipeline,
    ShardedReport,
    StreamParams,
    anonymize_stream,
    relabel_cluster,
)
from repro.stream.planner import (
    STRATEGIES,
    HashShardPlanner,
    HorpartShardPlanner,
    ShardPlanner,
    build_planner,
    record_fingerprint,
)
from repro.stream.store import (
    STORE_VERSION,
    IncrementalPipeline,
    IncrementalReport,
    ShardStore,
    store_path,
)

__all__ = [
    "DEFAULT_MAX_RECORDS_IN_MEMORY",
    "DEFAULT_SHARDS",
    "MANIFEST_VERSION",
    "STORE_VERSION",
    "STRATEGIES",
    "BoundaryRepairSummary",
    "HashShardPlanner",
    "HorpartShardPlanner",
    "IncrementalPipeline",
    "IncrementalReport",
    "RunManifest",
    "ShardPlanner",
    "ShardStore",
    "ShardedPipeline",
    "ShardedReport",
    "StreamParams",
    "anonymize_stream",
    "build_planner",
    "demote_terms",
    "load_shard_snapshot",
    "record_fingerprint",
    "relabel_cluster",
    "run_fingerprint",
    "save_shard_snapshot",
    "snapshot_path",
    "store_path",
    "verify_and_repair",
]
