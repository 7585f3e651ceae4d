"""Store-backed support estimation with oracle-identical arithmetic.

:class:`StoreSupportEstimator` mirrors the public surface of
:class:`repro.analysis.SupportEstimator` -- ``lower_bound``,
``expected_support``, ``reconstructed_support`` -- but answers from a
:class:`~repro.pubstore.PublicationStore`'s indexes instead of walking
the publication object graph.

Bit-for-bit parity is a design constraint, not an aspiration, so the
float arithmetic replays the oracle exactly:

* candidate clusters are visited in publication order (``tops.pos``);
  clusters whose domain does not cover the itemset contribute an exact
  ``0.0`` in the oracle, so skipping them leaves the running sum
  unchanged (``x + 0.0 == x`` for every finite ``x``);
* inside a cluster, the per-chunk ``matching / size`` factors multiply
  in the persisted enumeration order (``eord``), the same order the
  oracle's chunk loop visits;
* uncovered term-chunk terms each contribute the same ``1.0 / size``
  factor, so their iteration order cannot change the product.

``reconstructed_support`` is inherently a whole-publication operation
(it samples full reconstructions), so it delegates to the in-memory
estimator over :meth:`~repro.pubstore.PublicationStore.load_publication`
-- the faithful reload makes a seeded store-backed estimate identical
to the in-memory one.
"""

from __future__ import annotations

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
        items = frozenset(str(term) for term in itemset)
        if not items:
            return float(store.total_records)
        ids = store.term_ids(items)
        if len(ids) < len(items):
            # A term outside the published domain: no cluster's domain
            # covers the itemset, so every oracle summand is 0.0.
            return 0.0
        wanted = sorted(ids.values())
        total = 0.0
        for top in store.candidate_tops(wanted, len(wanted)):
            total += self._expected_in_top(top, wanted)
        return total

    def _expected_in_top(self, top: int, term_ids: list) -> float:
        """One top-level cluster's expected contribution (oracle arithmetic)."""
        store = self._store
        size = store.top_size(top)
        if size == 0:
            return 0.0
        probability = 1.0
        covered: set = set()
        for chunk, part in store.chunk_parts(top, term_ids):
            covered.update(part)
            matching = store.matching_count(chunk, part)
            probability *= matching / size
            if probability == 0.0:
                return 0.0
        uncovered = set(term_ids) - covered
        if uncovered:
            present = store.term_chunk_present(top, uncovered)
            if present != uncovered:
                # candidate_tops guaranteed full-domain coverage, so a
                # term missing from both record chunks and term chunks
                # cannot happen for a consistent store; mirror the
                # oracle's "not published here" result regardless.
                return 0.0
            for _ in uncovered:
                probability *= 1.0 / size
        return probability * size

    def reconstructed_support(
        self, itemset: Iterable, reconstructions: int = 5
    ) -> float:
        """Average support over sampled reconstructions (seed-deterministic)."""
        return self._in_memory().reconstructed_support(
            itemset, reconstructions=reconstructions
        )


__all__ = ["StoreSupportEstimator"]
