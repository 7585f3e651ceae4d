"""HORPART over string records: the oracle of the encoded HORPART.

The engine runs :func:`repro.core.horizontal.horizontal_partition_indices`
over interned records; this record-at-a-time transcription of the paper's
Algorithm HORPART is what the equivalence suite holds it to.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.dataset import TransactionDataset
from repro.core.horizontal import DEFAULT_MAX_CLUSTER_SIZE
from repro.exceptions import ParameterError


def horizontal_partition(
    dataset: TransactionDataset,
    max_cluster_size: int = DEFAULT_MAX_CLUSTER_SIZE,
) -> list[TransactionDataset]:
    """Partition ``dataset`` into clusters of at most ``max_cluster_size`` records.

    This is Algorithm HORPART.  The split term at each level is the most
    frequent term among those not already used on the path from the root
    (the ``ignore`` set of the paper); records containing the split term go
    to the left part, the rest to the right part.  The engine runs
    :func:`~repro.core.horizontal.horizontal_partition_indices`; this
    string formulation is the reference it is tested against.

    Args:
        dataset: the original transaction dataset.
        max_cluster_size: the maximum number of records per cluster; must be
            at least 2.

    Returns:
        List of clusters (as :class:`TransactionDataset`); their
        concatenation is a permutation of the input records.  An empty
        input yields an empty list.
    """
    if max_cluster_size < 2:
        raise ParameterError(
            f"max_cluster_size must be at least 2, got {max_cluster_size}"
        )
    if len(dataset) == 0:
        return []

    clusters: list[TransactionDataset] = []
    # Explicit stack instead of recursion: real datasets can produce deep
    # partitioning trees (one level per frequent term) and Python's default
    # recursion limit is easy to hit.
    stack: list[tuple[TransactionDataset, frozenset]] = [(dataset, frozenset())]
    while stack:
        part, ignore = stack.pop()
        if len(part) == 0:
            continue
        if len(part) < max_cluster_size:
            clusters.append(part)
            continue
        split_term = part.most_frequent_term(exclude=ignore)
        if split_term is None:
            # Every term was already used for splitting on this path.  The
            # remaining records are indistinguishable for the heuristic, so
            # we cut them into chunks of max_cluster_size records.
            clusters.extend(_chop(part, max_cluster_size))
            continue
        with_term, without_term = part.split_on_term(split_term)
        if len(with_term) == 0 or len(without_term) == 0:
            # The split term appears in all (or none) of the records; using
            # it again would loop forever, so just mark it ignored and retry.
            stack.append((part, ignore | {split_term}))
            continue
        stack.append((without_term, ignore))
        stack.append((with_term, ignore | {split_term}))
    return clusters



def _chop(dataset: TransactionDataset, max_cluster_size: int) -> list[TransactionDataset]:
    """Cut a dataset into consecutive pieces of at most ``max_cluster_size`` records."""
    pieces = []
    records = list(dataset)
    for start in range(0, len(records), max_cluster_size):
        pieces.append(TransactionDataset(records[start : start + max_cluster_size]))
    return pieces


def partition_sizes(clusters: Sequence[TransactionDataset]) -> list[int]:
    """Sizes of the produced clusters (convenience for tests and diagnostics)."""
    return [len(cluster) for cluster in clusters]
