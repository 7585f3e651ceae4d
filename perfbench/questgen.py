"""Seeded Quest-style basket generator owned by the benchmark.

The benchmark makes its own inputs so that a change to the program's
generator (``repro.datasets.quest``) can never change what is measured.
The model is the same Quest model the paper's synthetic experiments use:

1. a pool of potential frequent itemsets with Poisson sizes, where each
   itemset inherits a share of its predecessor's items and draws the rest
   from a Zipf-skewed item popularity;
2. exponential itemset weights and a per-itemset corruption level;
3. each record picks itemsets by weight, dropping corrupted items, until
   its Poisson target length is reached.

Only the standard library is used (``random.Random`` with cumulative
weights), which makes 100k records take about a second instead of the
ten the numpy-per-draw reference generator needs.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from itertools import accumulate


#: Model constants shared by every workload: mean pattern size, pattern
#: pool size, share of a pattern inherited from its predecessor, mean
#: corruption level and the Zipf exponent of item popularity.
AVG_PATTERN = 4.0
PATTERNS = 2000
CORRELATION = 0.25
CORRUPTION_MEAN = 0.5
ZIPF = 1.1


def _poisson(rng: random.Random, mean: float) -> int:
    # Knuth's method; the means used here are small (<= 10).
    limit = math.exp(-mean)
    count, product = 0, rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count


def quest_records(count: int, *, domain: int, avg_length: float, seed) -> list:
    """``count`` records as sorted lists of ``"i<id>"`` terms, fixed by ``seed``."""
    rng = random.Random(seed)
    popularity = list(accumulate(1.0 / (rank**ZIPF) for rank in range(1, domain + 1)))
    pop_total = popularity[-1]

    def popular_term() -> str:
        return f"i{bisect_right(popularity, rng.random() * pop_total)}"

    pool: list = []
    previous: list = []
    for _ in range(PATTERNS):
        size = max(1, _poisson(rng, AVG_PATTERN))
        inherited = rng.sample(previous, round(CORRELATION * min(size, len(previous))))
        fresh: set = set(inherited)
        while len(fresh) < size:
            fresh.add(popular_term())
        pattern = inherited + sorted(fresh - set(inherited))
        pool.append(pattern)
        previous = pattern
    weights = list(accumulate(rng.expovariate(1.0) for _ in pool))
    weight_total = weights[-1]
    keep = [1.0 - min(0.95, max(0.0, rng.gauss(CORRUPTION_MEAN, 0.1))) for _ in pool]

    records = []
    for _ in range(count):
        target = max(1, _poisson(rng, avg_length))
        record: set = set()
        attempts = 0
        while len(record) < target and attempts < 10 * target:
            attempts += 1
            index = min(bisect_right(weights, rng.random() * weight_total), len(pool) - 1)
            pattern, keep_probability = pool[index], keep[index]
            kept = [term for term in pattern if rng.random() < keep_probability]
            record.update(kept or (pattern[rng.randrange(len(pattern))],))
        records.append(sorted(record))
    return records


def top_terms(records: list, count: int) -> list:
    """The ``count`` most frequent terms of ``records`` (ties by term)."""
    support: dict = {}
    for record in records:
        for term in record:
            support[term] = support.get(term, 0) + 1
    return [term for term, _ in sorted(support.items(), key=lambda kv: (-kv[1], kv[0]))[:count]]
