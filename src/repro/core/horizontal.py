"""Horizontal partitioning (Algorithm HORPART, paper Section 4).

HORPART groups similar records together into clusters of bounded size so
that vertical partitioning can be applied to each cluster independently.
The heuristic recursively splits the dataset on its most frequent
not-yet-used term: records containing the term go to one side, the rest to
the other.  Recursion stops as soon as a part is smaller than
``max_cluster_size`` (or no unused term remains).

The procedure is equivalent to a quicksort-like recursion and runs in
O(|D|^2) in the worst case, but is effectively linearithmic on realistic
data (each split touches every record once and the recursion depth is
bounded by the number of distinct frequent terms).
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.core.vocab import EncodedDataset
from repro.exceptions import ParameterError

#: Default maximum number of records per cluster.  Small clusters keep the
#: vertical-partitioning cost bounded; the paper regulates cluster size for
#: the same reason (Section 4, complexity discussion).
DEFAULT_MAX_CLUSTER_SIZE = 30


def horizontal_partition_indices(
    encoded: EncodedDataset,
    max_cluster_size: int = DEFAULT_MAX_CLUSTER_SIZE,
) -> list[list[int]]:
    """HORPART over an :class:`~repro.core.vocab.EncodedDataset`.

    Identical split decisions and output ordering as the record-at-a-time
    formulation (the oracle in ``tests/reference/horizontal.py``), with two
    structural optimizations over it:

    * **zero-recount splits** -- every tree node carries the exact term
      supports of its part, derived from its parent by a split delta (the
      smaller side is counted while it is being partitioned, the larger
      side is obtained by subtraction), so ``most_frequent_term`` never
      rescans the part's records;
    * **single-allocation split** -- the records live in one shared index
      array; a split is a stable in-place partition of the node's range
      through one scratch buffer allocated once per call, instead of two
      fresh per-side lists at every node.

    Returns:
        List of clusters as index lists; their concatenation is a
        permutation of ``range(len(encoded))``.
    """
    if max_cluster_size < 2:
        raise ParameterError(
            f"max_cluster_size must be at least 2, got {max_cluster_size}"
        )
    total = len(encoded)
    if total == 0:
        return []
    records = encoded.records
    decode = encoded.vocab.decode
    indices = list(range(total))
    scratch = [0] * total

    clusters: list[list[int]] = []
    # Node = (lo, hi, ignore, counts); counts is the part's exact term
    # supports, or None when the node is small enough to be emitted (or is
    # the root, which is counted on first use).
    stack: list[tuple[int, int, frozenset, Optional[dict]]] = [
        (0, total, frozenset(), None)
    ]
    while stack:
        lo, hi, ignore, counts = stack.pop()
        size = hi - lo
        if size == 0:
            continue
        if size < max_cluster_size:
            clusters.append(indices[lo:hi])
            continue
        if counts is None:
            counts = {}
            for position in range(lo, hi):
                for tid in records[indices[position]]:
                    counts[tid] = counts.get(tid, 0) + 1
        split_term = _most_frequent(counts, ignore, decode)
        if split_term is None:
            clusters.extend(
                indices[start : min(start + max_cluster_size, hi)]
                for start in range(lo, hi, max_cluster_size)
            )
            continue
        num_with = counts[split_term]
        if num_with == size:
            # The split term appears in all of the records; using it again
            # would loop forever, so just mark it ignored and retry.
            stack.append((lo, hi, ignore | {split_term}, counts))
            continue

        # Stable in-place partition of [lo, hi): with-side first (exactly
        # `num_with` records, known from the maintained supports), then the
        # without-side, both in original order.  Membership is a direct
        # record test (no inverted index needed).  The smaller side's term
        # supports are counted during the same sweep; the larger side's are
        # derived by subtracting the delta from the node's counts.
        # Children below the cluster-size bound are emitted without ever
        # consulting their supports, so when both sides end up below it the
        # counting sweep is skipped entirely.
        num_without = size - num_with
        counts_needed = (
            num_with >= max_cluster_size or num_without >= max_cluster_size
        )
        count_with_side = counts_needed and num_with <= num_without
        count_without_side = counts_needed and not count_with_side
        side_counts: Counter = Counter()
        count_record = side_counts.update  # C-level element counting
        write_with = lo
        write_without = lo + num_with
        for position in range(lo, hi):
            index = indices[position]
            if split_term in records[index]:
                scratch[write_with] = index
                write_with += 1
                if count_with_side:
                    count_record(records[index])
            else:
                scratch[write_without] = index
                write_without += 1
                if count_without_side:
                    count_record(records[index])
        indices[lo:hi] = scratch[lo:hi]

        if counts_needed:
            with_counts, without_counts = _split_counts(
                counts, side_counts, count_with_side
            )
            if num_without < max_cluster_size:
                without_counts = None
            if num_with < max_cluster_size:
                with_counts = None
        else:
            with_counts = without_counts = None
        stack.append((lo + num_with, hi, ignore, without_counts))
        stack.append((lo, lo + num_with, ignore | {split_term}, with_counts))
    return clusters


def _most_frequent(counts: dict, exclude: frozenset, decode) -> Optional[int]:
    """Most frequent term id in a supports dict (ties broken on the string).

    Mirrors :meth:`EncodedDataset.most_frequent_in` exactly, minus the
    record scan: the supports are already maintained by the split deltas.
    """
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
    if len(candidates) == 1:
        return candidates[0]
    return min(candidates, key=decode)


def _split_counts(
    counts: dict, side_counts: dict, counted_with_side: bool
) -> tuple[dict, dict]:
    """Derive both children's supports from the parent's and one side's.

    The uncounted side is ``parent - counted side`` with zero entries
    stripped (a zero-support term is simply absent from a part).
    """
    remainder: dict = {}
    get = side_counts.get
    for tid, count in counts.items():
        rest = count - get(tid, 0)
        if rest:
            remainder[tid] = rest
    if counted_with_side:
        return side_counts, remainder
    return remainder, side_counts
