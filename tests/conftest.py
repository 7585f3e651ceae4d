"""Shared fixtures for the test suite.

The fixtures mirror the paper's running examples (Figures 2-5) plus a few
synthetic datasets of controlled shape, so individual tests stay short and
readable.
"""

from __future__ import annotations

import random

import pytest

from repro.core.dataset import TransactionDataset
from repro.core.engine import AnonymizationParams, Disassociator

# --------------------------------------------------------------------------- #
# the paper's Figure 2a dataset (10 web-search histories)
# --------------------------------------------------------------------------- #
PAPER_RECORDS = [
    {"itunes", "flu", "madonna", "ikea", "ruby"},
    {"madonna", "flu", "viagra", "ruby", "audi a4", "sony tv"},
    {"itunes", "madonna", "audi a4", "ikea", "sony tv"},
    {"itunes", "flu", "viagra"},
    {"itunes", "flu", "madonna", "audi a4", "sony tv"},
    {"madonna", "digital camera", "panic disorder", "playboy"},
    {"iphone sdk", "madonna", "ikea", "ruby"},
    {"iphone sdk", "digital camera", "madonna", "playboy"},
    {"iphone sdk", "digital camera", "panic disorder"},
    {"iphone sdk", "digital camera", "madonna", "ikea", "ruby"},
]

# the paper's Figure 4a cluster (Example 1: Lemma 2 violation without the bound)
EXAMPLE1_RECORDS = [
    {"a"},
    {"a"},
    {"b", "c"},
    {"b", "c"},
    {"a", "b", "c"},
]


@pytest.fixture
def paper_dataset() -> TransactionDataset:
    """The 10-record query log of Figure 2a."""
    return TransactionDataset(PAPER_RECORDS)


@pytest.fixture
def example1_cluster() -> TransactionDataset:
    """The 5-record cluster of Figure 4a (Example 1)."""
    return TransactionDataset(EXAMPLE1_RECORDS)


@pytest.fixture
def paper_published(paper_dataset):
    """The paper dataset disassociated with k=3, m=2 (two HORPART clusters)."""
    params = AnonymizationParams(k=3, m=2, max_cluster_size=6)
    return Disassociator(params).anonymize(paper_dataset)


@pytest.fixture
def tiny_dataset() -> TransactionDataset:
    """A 6-record dataset with one dominant pair and a rare tail term."""
    return TransactionDataset(
        [
            {"a", "b"},
            {"a", "b"},
            {"a", "b", "c"},
            {"a", "c"},
            {"b", "c"},
            {"a", "b", "d"},
        ]
    )


@pytest.fixture
def skewed_dataset() -> TransactionDataset:
    """A 60-record synthetic dataset with Zipf-ish term frequencies.

    Deterministic (seeded) so supports are stable across test runs.
    """
    rng = random.Random(42)
    vocabulary = [f"t{i}" for i in range(30)]
    weights = [1.0 / (i + 1) for i in range(30)]
    records = []
    for _ in range(60):
        length = rng.randint(2, 6)
        record = set()
        while len(record) < length:
            record.add(rng.choices(vocabulary, weights=weights, k=1)[0])
        records.append(record)
    return TransactionDataset(records)


@pytest.fixture
def skewed_published(skewed_dataset):
    """The skewed dataset disassociated with the default parameters (k=3)."""
    params = AnonymizationParams(k=3, m=2, max_cluster_size=12)
    return Disassociator(params).anonymize(skewed_dataset)


def make_uniform_dataset(num_records: int, domain: int, record_length: int, seed: int = 0):
    """Helper used by several test modules: uniform-random records."""
    rng = random.Random(seed)
    vocabulary = [f"u{i}" for i in range(domain)]
    records = []
    for _ in range(num_records):
        records.append(rng.sample(vocabulary, min(record_length, domain)))
    return TransactionDataset(records)


# --------------------------------------------------------------------------- #
# the paper-shaped synthetic workloads shared by the resilience, vocabulary
# and incremental suites
# --------------------------------------------------------------------------- #

#: The three workload families every cross-cutting suite exercises.
WORKLOAD_NAMES = ("quest", "zipf", "clickstream")


def make_workload(
    name: str,
    *,
    records: int,
    domain: int,
    avg_len: float,
    seed: int,
    sections: int | None = None,
) -> TransactionDataset:
    """One seeded paper-shaped workload: ``quest``/``zipf``/``clickstream``.

    A single dispatch point for the synthetic generators, so every suite
    builds its workloads through the same seeded calls instead of each
    re-spelling the generator keyword soup.  ``records``/``domain`` map to
    transactions/items (quest, zipf) or sessions/pages (clickstream);
    ``sections`` only applies to clickstream (``None`` keeps the
    generator's default).
    """
    # Imported here so importing conftest stays cheap for suites that
    # never touch the synthetic generators.
    from repro.datasets.quest import generate_quest
    from repro.datasets.scenarios import generate_clickstream, generate_zipf_basket

    if name == "quest":
        return generate_quest(
            num_transactions=records,
            domain_size=domain,
            avg_transaction_size=avg_len,
            seed=seed,
        )
    if name == "zipf":
        return generate_zipf_basket(
            num_transactions=records,
            domain_size=domain,
            avg_basket_size=avg_len,
            seed=seed,
        )
    if name == "clickstream":
        kwargs = {} if sections is None else {"num_sections": sections}
        return generate_clickstream(
            num_sessions=records,
            num_pages=domain,
            avg_session_length=avg_len,
            seed=seed,
            **kwargs,
        )
    raise ValueError(f"unknown workload {name!r} (known: {WORKLOAD_NAMES})")
