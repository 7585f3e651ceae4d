"""Store-backed support estimation with oracle-identical arithmetic.

:class:`StoreSupportEstimator` mirrors the public surface of
:class:`repro.analysis.SupportEstimator` -- ``lower_bound``,
``expected_support``, ``reconstructed_support`` -- but answers from a
:class:`~repro.pubstore.PublicationStore`'s indexes instead of walking
the publication object graph.

Bit-for-bit parity is a design constraint, not an aspiration, so the
float arithmetic replays the oracle exactly:

* one statement per query reads every factor
  (:meth:`~repro.pubstore.PublicationStore.expected_factors`);
* candidate clusters are visited in publication order (``tops.pos``);
  clusters whose domain does not cover the itemset contribute an exact
  ``0.0`` in the oracle, so skipping them leaves the running sum
  unchanged (``x + 0.0 == x`` for every finite ``x``);
* inside a cluster, the per-chunk ``matching / size`` factors multiply
  in the persisted enumeration order (``eord``), the same order the
  oracle's chunk loop visits; where the oracle stops at a ``0.0``
  product, the store multiplies on, and ``0.0`` times a finite factor
  stays ``0.0``;
* uncovered term-chunk terms each contribute the same ``1.0 / size``
  factor, so their iteration order cannot change the product.

``reconstructed_support`` is inherently a whole-publication operation
(it samples full reconstructions), so it delegates to the in-memory
estimator over :meth:`~repro.pubstore.PublicationStore.load_publication`
-- the faithful reload makes a seeded store-backed estimate identical
to the in-memory one.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Iterable, Optional

from repro.analysis.estimation import SupportEstimator
from repro.pubstore.store import PublicationStore


class StoreSupportEstimator:
    """Itemset-support estimates answered from a publication store."""

    def __init__(self, store: PublicationStore, seed: Optional[int] = None):
        self._store = store
        self._seed = seed
        self._inner: Optional[SupportEstimator] = None

    def _in_memory(self) -> SupportEstimator:
        """The in-memory estimator over the faithful reload (built once)."""
        if self._inner is None:
            self._inner = SupportEstimator(
                self._store.load_publication(), seed=self._seed
            )
        return self._inner

    def lower_bound(self, itemset: Iterable) -> int:
        """Provable lower bound on the itemset's original support."""
        return self._store.lower_bound_support(itemset)

    def expected_support(self, itemset: Iterable) -> float:
        """Expected original support under per-cluster independence."""
        store = self._store
        items = sorted({str(term) for term in itemset})
        if not items:
            return float(store.total_records)
        total = 0.0
        rows = store.expected_factors(items)
        for _, group in groupby(rows, key=itemgetter(0)):
            factors = list(group)
            _, size, uncovered, _ = factors[0]
            if size == 0:
                continue
            probability = 1.0
            for *_, matching in factors:
                if matching is not None:
                    probability *= matching / size
            # A term no chunk domain holds sits in a term chunk (the
            # cluster's full domain covers the itemset): the oracle's
            # minimum support, 1/size.
            for _ in range(uncovered):
                probability *= 1.0 / size
            total += probability * size
        return total

    def reconstructed_support(
        self, itemset: Iterable, reconstructions: int = 5
    ) -> float:
        """Average support over sampled reconstructions (seed-deterministic)."""
        return self._in_memory().reconstructed_support(
            itemset, reconstructions=reconstructions
        )


__all__ = ["StoreSupportEstimator"]
