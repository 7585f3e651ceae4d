"""Sharded streaming anonymization: bounded-memory disassociation at scale.

The disassociation transform is embarrassingly partitionable after HORPART
(each cluster is anonymized independently), so datasets too large for one
:class:`~repro.core.engine.Pipeline` pass are handled by sharding the
stream and anonymizing each shard in bounded-memory windows:

* :mod:`repro.stream.planner`  -- record-to-shard routing (content hash or
  HORPART-guided split-term bitmask);
* :mod:`repro.stream.executor` -- :class:`ShardedPipeline`: route, window,
  anonymize, merge, verify -- a cold run over a throwaway shard store;
* :mod:`repro.stream.boundary` -- the global verification pass that
  re-audits the merged publication across shard boundaries and demotes
  boundary-violating terms (the shard-boundary verification rule is
  documented in that module's docstring);
* :mod:`repro.stream.store` -- the :class:`ShardStore` (one SQLite file,
  the record substrate of every sharded run) and
  :class:`IncrementalPipeline`: long-lived delta runs
  that append/delete records and re-anonymize only the windows whose
  content changed, publishing bit-for-bit what a cold run over the
  mutated dataset would.  It is the one recoverable path: a build or
  delta interrupted at any point finishes when re-run (same
  ``delta_id``, or no delta at all).

:class:`ShardedPipeline` runs are cold and keep no durable state: their
store is removed when the run ends.  Both pipelines report an
:class:`IncrementalReport` and return a :class:`TextPublication`.

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
from repro.stream.executor import (
    DEFAULT_MAX_RECORDS_IN_MEMORY,
    DEFAULT_SHARDS,
    ShardedPipeline,
    StreamParams,
    TextPublication,
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
    run_fingerprint,
    store_path,
)

__all__ = [
    "DEFAULT_MAX_RECORDS_IN_MEMORY",
    "DEFAULT_SHARDS",
    "STORE_VERSION",
    "STRATEGIES",
    "BoundaryRepairSummary",
    "HashShardPlanner",
    "HorpartShardPlanner",
    "IncrementalPipeline",
    "IncrementalReport",
    "ShardPlanner",
    "ShardStore",
    "ShardedPipeline",
    "StreamParams",
    "TextPublication",
    "build_planner",
    "demote_terms",
    "record_fingerprint",
    "relabel_cluster",
    "run_fingerprint",
    "store_path",
    "verify_and_repair",
]
