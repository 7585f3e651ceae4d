"""Apriori frequent-itemset mining (Agrawal & Srikant style): the itemset oracle.

The metrics count itemsets with :mod:`repro.mining.itemsets` (exhaustive
enumeration of small itemsets, top-K by sorting).  This level-wise Apriori,
with the classic candidate-generation + pruning steps, reaches the same
supports by a different route, so the test suite holds the production
module to it.  It is exact and deterministic.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from itertools import combinations
from typing import Optional

from repro.core.dataset import TransactionDataset
from repro.exceptions import MiningError


def _frequent_singletons(dataset: TransactionDataset, min_support: int) -> dict:
    counts = dataset.term_supports()
    return {
        (term,): support for term, support in counts.items() if support >= min_support
    }


def _generate_candidates(frequent: Iterable[tuple], size: int) -> set[tuple]:
    """Join step: combine frequent (size-1)-itemsets sharing a prefix, then prune."""
    frequent_set = set(frequent)
    candidates: set[tuple] = set()
    ordered = sorted(frequent_set)
    for i, left in enumerate(ordered):
        for right in ordered[i + 1 :]:
            if left[: size - 2] != right[: size - 2]:
                break
            candidate = tuple(sorted(set(left) | set(right)))
            if len(candidate) != size:
                continue
            # prune: every (size-1)-subset must be frequent
            if all(
                tuple(sorted(subset)) in frequent_set
                for subset in combinations(candidate, size - 1)
            ):
                candidates.add(candidate)
    return candidates


def mine_frequent_itemsets(
    dataset: TransactionDataset,
    min_support: int,
    max_size: Optional[int] = None,
) -> dict[tuple, int]:
    """All itemsets with support >= ``min_support`` (absolute count).

    Args:
        dataset: the transaction dataset.
        min_support: absolute minimum support (number of records).
        max_size: optional cap on itemset cardinality.

    Returns:
        Dict mapping canonical itemsets (sorted tuples) to supports.
    """
    if min_support < 1:
        raise MiningError(f"min_support must be >= 1, got {min_support}")
    if max_size is not None and max_size < 1:
        raise MiningError(f"max_size must be >= 1, got {max_size}")

    result: dict[tuple, int] = {}
    current = _frequent_singletons(dataset, min_support)
    size = 1
    while current:
        result.update(current)
        size += 1
        if max_size is not None and size > max_size:
            break
        candidates = _generate_candidates(current.keys(), size)
        if not candidates:
            break
        counts: Counter = Counter()
        candidate_by_first: dict[str, list[tuple]] = {}
        for candidate in candidates:
            candidate_by_first.setdefault(candidate[0], []).append(candidate)
        for record in dataset:
            if len(record) < size:
                continue
            for candidate in candidates:
                if all(term in record for term in candidate):
                    counts[candidate] += 1
        current = {
            candidate: support
            for candidate, support in counts.items()
            if support >= min_support
        }
    return result


def mine_top_k(
    dataset: TransactionDataset,
    top_k: int,
    max_size: int = 3,
) -> list[tuple[tuple, int]]:
    """The ``top_k`` most frequent itemsets of size up to ``max_size``.

    Apriori needs an absolute support threshold, so the threshold is lowered
    geometrically until at least ``top_k`` itemsets are frequent (or the
    threshold reaches 1).  Deterministic tie-breaking matches
    :func:`repro.mining.itemsets.top_k_itemsets`.
    """
    if top_k < 1:
        raise MiningError(f"top_k must be >= 1, got {top_k}")
    if len(dataset) == 0:
        return []
    threshold = max(1, len(dataset) // 10)
    while True:
        frequent = mine_frequent_itemsets(dataset, threshold, max_size=max_size)
        if len(frequent) >= top_k or threshold == 1:
            break
        threshold = max(1, threshold // 2)
    ranked = sorted(frequent.items(), key=lambda pair: (-pair[1], len(pair[0]), pair[0]))
    return ranked[:top_k]
