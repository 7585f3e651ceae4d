"""Frequent-itemset mining substrate and generalization hierarchies.

* :mod:`repro.mining.itemsets` -- exhaustive small-itemset supports, top-K
  (what the tKd and relative-error metrics count with; its oracle, a
  level-wise Apriori miner, is the test suite's ``tests/reference/apriori.py``).
* :mod:`repro.mining.hierarchy` -- balanced generalization hierarchies,
  NCP cost, multi-level (ML) transaction expansion.
"""

from repro.mining.hierarchy import GeneralizationHierarchy, expand_with_ancestors
from repro.mining.itemsets import (
    canonical,
    itemset_supports,
    pair_supports,
    top_k_itemset_set,
    top_k_itemsets,
)

__all__ = [
    "GeneralizationHierarchy",
    "canonical",
    "expand_with_ancestors",
    "itemset_supports",
    "pair_supports",
    "top_k_itemset_set",
    "top_k_itemsets",
]
