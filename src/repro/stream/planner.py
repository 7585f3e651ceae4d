"""Shard planning: assigning streamed records to bounded-memory shards.

A :class:`ShardPlanner` maps each record to a shard id in ``[0, shards)``.
Routing must be

* **stateless and deterministic** -- the same record always lands on the
  same shard, across runs, processes and hosts (so a re-run of a crashed
  job reproduces the same shards, and a delta routes like a cold run), and
* **cheap** -- it sits on the hot path of the single streaming pass.

Two strategies are provided:

* :class:`HashShardPlanner` -- a content hash of the (sorted) record.
  Perfectly balanced in expectation and needs no knowledge of the data,
  but scatters similar records across shards, which costs utility: HORPART
  inside each shard sees a uniform slice of the dataset instead of a
  neighbourhood.

* :class:`HorpartShardPlanner` -- mirrors HORPART's split decisions using
  a bounded sample of the stream.  HORPART recursively splits on the most
  frequent unused term; the top levels of that recursion tree are decided
  by the globally most frequent terms.  The planner takes the ``B`` most
  frequent terms of the sample (``B ~ log2(shards) + 1``) and routes each
  record by the bitmask of which of those terms it contains -- records
  agreeing on all top split terms (i.e. records HORPART would keep
  together longest) land on the same shard.  Records containing none of
  the split terms fall back to hash routing so the tail of the
  distribution still spreads across shards.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from collections.abc import Iterable, Sequence
from typing import Optional

from repro.core.dataset import ensure_record
from repro.exceptions import ParameterError

#: Shard-routing strategies understood by :func:`build_planner`.
STRATEGIES = ("hash", "horpart")


def record_fingerprint(record: Iterable) -> int:
    """Stable content hash of a record (independent of ``PYTHONHASHSEED``).

    Terms are sorted and joined with an unlikely separator before hashing,
    so logically equal records always fingerprint identically.
    """
    canonical = "\x1f".join(sorted(str(t) for t in record))
    return int.from_bytes(
        hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashShardPlanner:
    """Route records by a stable content hash: balanced, data-oblivious."""

    name = "hash"

    def __init__(self, shards: int):
        if shards < 1:
            raise ParameterError(f"shards must be >= 1, got {shards}")
        self.shards = shards

    def shard_of(self, record: Iterable) -> int:
        """The shard id of ``record`` in ``[0, shards)``."""
        return record_fingerprint(record) % self.shards

    def describe(self) -> dict:
        """Machine-readable description (for reports and benchmarks)."""
        return {"strategy": self.name, "shards": self.shards}


class HorpartShardPlanner:
    """Route records by their membership pattern over HORPART's top split terms.

    Built from a bounded sample of the stream (the planner never sees more
    records than the streaming memory budget allows).  See the module
    docstring for the rationale.
    """

    name = "horpart"

    def __init__(self, shards: int, split_terms: Sequence[str]):
        if shards < 1:
            raise ParameterError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.split_terms: tuple[str, ...] = tuple(str(t) for t in split_terms)
        self._fallback = HashShardPlanner(shards)

    @classmethod
    def from_sample(
        cls, shards: int, sample: Iterable[Iterable], num_terms: Optional[int] = None
    ) -> "HorpartShardPlanner":
        """Build the planner from a sample of records.

        ``num_terms`` defaults to ``ceil(log2(shards)) + 1`` -- one more
        level than strictly needed to address ``shards`` leaves, so the
        bitmask space is at least twice the shard count and the modulo
        folds fine-grained neighbourhoods instead of splitting coarse ones.
        """
        supports: Counter = Counter()
        for record in sample:
            supports.update(str(t) for t in record)
        if num_terms is None:
            num_terms = max(1, math.ceil(math.log2(max(2, shards))) + 1)
        # Ties broken lexicographically so the planner is deterministic.
        top = sorted(supports.items(), key=lambda item: (-item[1], item[0]))
        return cls(shards, [term for term, _ in top[:num_terms]])

    def shard_of(self, record: Iterable) -> int:
        """The shard id of ``record`` in ``[0, shards)``.

        Records are normalized first (a no-op for reader output), so the
        same logical record always routes the same way regardless of its
        container or term types.
        """
        terms = ensure_record(record)
        mask = 0
        for bit, term in enumerate(self.split_terms):
            if term in terms:
                mask |= 1 << bit
        if mask == 0:
            # None of the split terms: the record carries no routing signal,
            # spread the tail uniformly instead of piling it onto shard 0.
            return self._fallback.shard_of(terms)
        return mask % self.shards

    def describe(self) -> dict:
        """Machine-readable description (for reports and benchmarks)."""
        return {
            "strategy": self.name,
            "shards": self.shards,
            "split_terms": list(self.split_terms),
        }


def build_planner(
    strategy: str, shards: int, sample: Iterable[Iterable] = ()
) -> "ShardPlanner":
    """Build the planner for ``strategy`` (``hash`` needs no sample)."""
    if strategy == "hash":
        return HashShardPlanner(shards)
    if strategy == "horpart":
        return HorpartShardPlanner.from_sample(shards, sample)
    raise ParameterError(
        f"unknown shard strategy {strategy!r}; expected one of {STRATEGIES}"
    )


# Structural alias: anything with shard_of/describe and a ``shards`` attribute.
ShardPlanner = HashShardPlanner | HorpartShardPlanner
