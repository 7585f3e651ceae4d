"""Synthetic scenario generators beyond the paper's QUEST workload.

Two workload shapes the streaming/sharded path must handle well:

* **Zipf market-basket** (:func:`generate_zipf_basket`) -- independent item
  draws from a heavily skewed (Zipf) catalogue, the classic e-commerce
  basket shape: a tiny head of items in almost every basket, a huge tail of
  items bought once.  Unlike QUEST there is no planted itemset structure,
  so co-occurrence above the head is essentially random -- the adversarial
  case for VERPART (rare combinations everywhere).

* **Session click-stream** (:func:`generate_clickstream`) -- each record is
  one user session over a site of ``num_pages`` pages organised into
  sections.  A session picks a home section, walks mostly within it
  (locality) and occasionally jumps to another section.  Sessions from the
  same section are near-duplicates of each other while sessions from
  different sections are nearly disjoint -- the best case for HORPART-style
  routing and the workload where hash sharding visibly loses utility.

Both generators are fully deterministic given the seed and return plain
:class:`~repro.core.dataset.TransactionDataset` objects, so they slot into
the CLI (``repro generate --profile ZIPF|CLICKSTREAM``), the experiment
harness and the benchmarks exactly like QUEST.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.dataset import TransactionDataset
from repro.exceptions import ParameterError


@dataclass(frozen=True)
class ZipfBasketConfig:
    """Parameters of the Zipf market-basket generator.

    Attributes:
        num_transactions: number of baskets to generate (|D|).
        domain_size: catalogue size (|T|).
        avg_basket_size: mean basket length (Poisson mean, min 1).
        zipf_exponent: skew of item popularity; 1.0-1.5 covers the range
            observed in retail data (higher = heavier head).
        seed: PRNG seed.
    """

    num_transactions: int = 10_000
    domain_size: int = 2_000
    avg_basket_size: float = 8.0
    zipf_exponent: float = 1.2
    seed: Optional[int] = 0

    def __post_init__(self):
        if self.num_transactions < 1:
            raise ParameterError("num_transactions must be positive")
        if self.domain_size < 2:
            raise ParameterError("domain_size must be at least 2")
        if self.avg_basket_size < 1:
            raise ParameterError("avg_basket_size must be at least 1")
        if self.zipf_exponent <= 0:
            raise ParameterError("zipf_exponent must be positive")


def generate_zipf_basket(
    num_transactions: int = 10_000,
    domain_size: int = 2_000,
    avg_basket_size: float = 8.0,
    zipf_exponent: float = 1.2,
    seed: Optional[int] = 0,
) -> TransactionDataset:
    """Generate a skewed market-basket dataset with independent item draws."""
    config = ZipfBasketConfig(
        num_transactions=num_transactions,
        domain_size=domain_size,
        avg_basket_size=avg_basket_size,
        zipf_exponent=zipf_exponent,
        seed=seed,
    )
    import numpy as np  # imported on use: the CLI lists the scenarios without it

    rng = np.random.default_rng(config.seed)
    ranks = np.arange(1, config.domain_size + 1, dtype=float)
    popularity = 1.0 / np.power(ranks, config.zipf_exponent)
    popularity /= popularity.sum()

    records = []
    for _ in range(config.num_transactions):
        target = max(1, rng.poisson(config.avg_basket_size))
        # Draw with replacement and dedupe: cheaper than replace=False on a
        # large catalogue, and duplicate draws (head items) collapse exactly
        # like repeat purchases of the same SKU in one basket.
        draws = rng.choice(config.domain_size, size=2 * target, p=popularity)
        basket = {f"sku{int(item)}" for item in draws[:target]}
        for item in draws[target:]:
            if len(basket) >= target:
                break
            basket.add(f"sku{int(item)}")
        records.append(frozenset(basket))
    return TransactionDataset(records)


@dataclass(frozen=True)
class ClickstreamConfig:
    """Parameters of the session click-stream generator.

    Attributes:
        num_sessions: number of sessions (records) to generate.
        num_pages: number of distinct pages on the site (|T|).
        num_sections: number of site sections the pages are split into;
            sessions have strong locality within one section.
        avg_session_length: mean number of distinct pages per session.
        jump_probability: per-click probability of leaving the home section.
        zipf_exponent: within-section page-popularity skew (landing pages
            dominate).
        seed: PRNG seed.
    """

    num_sessions: int = 10_000
    num_pages: int = 2_000
    num_sections: int = 20
    avg_session_length: float = 6.0
    jump_probability: float = 0.15
    zipf_exponent: float = 1.3
    seed: Optional[int] = 0

    def __post_init__(self):
        if self.num_sessions < 1:
            raise ParameterError("num_sessions must be positive")
        if self.num_pages < 2:
            raise ParameterError("num_pages must be at least 2")
        if not 1 <= self.num_sections <= self.num_pages:
            raise ParameterError("num_sections must be in [1, num_pages]")
        if self.avg_session_length < 1:
            raise ParameterError("avg_session_length must be at least 1")
        if not 0.0 <= self.jump_probability <= 1.0:
            raise ParameterError("jump_probability must be in [0, 1]")
        if self.zipf_exponent <= 0:
            raise ParameterError("zipf_exponent must be positive")


def generate_clickstream(
    num_sessions: int = 10_000,
    num_pages: int = 2_000,
    num_sections: int = 20,
    avg_session_length: float = 6.0,
    jump_probability: float = 0.15,
    seed: Optional[int] = 0,
    **extra,
) -> TransactionDataset:
    """Generate a session click-stream dataset with per-section locality."""
    config = ClickstreamConfig(
        num_sessions=num_sessions,
        num_pages=num_pages,
        num_sections=num_sections,
        avg_session_length=avg_session_length,
        jump_probability=jump_probability,
        seed=seed,
        **extra,
    )
    import numpy as np  # imported on use: the CLI lists the scenarios without it

    rng = np.random.default_rng(config.seed)
    pages_per_section = config.num_pages // config.num_sections

    # Within-section popularity: the section's landing pages dominate.
    ranks = np.arange(1, pages_per_section + 1, dtype=float)
    in_section = 1.0 / np.power(ranks, config.zipf_exponent)
    in_section /= in_section.sum()

    # Section traffic itself is skewed: a few sections get most sessions.
    section_ranks = np.arange(1, config.num_sections + 1, dtype=float)
    section_popularity = 1.0 / section_ranks
    section_popularity /= section_popularity.sum()

    records = []
    for _ in range(config.num_sessions):
        home = int(rng.choice(config.num_sections, p=section_popularity))
        target = max(1, rng.poisson(config.avg_session_length))
        session: set = set()
        attempts = 0
        while len(session) < target and attempts < 10 * target:
            attempts += 1
            if config.num_sections > 1 and rng.random() < config.jump_probability:
                section = int(rng.integers(config.num_sections))
            else:
                section = home
            offset = int(rng.choice(pages_per_section, p=in_section))
            session.add(f"page{section * pages_per_section + offset}")
        if not session:
            session.add(f"page{home * pages_per_section}")
        records.append(frozenset(session))
    return TransactionDataset(records)


#: Scenario name -> generator, for the CLI and the benchmarks.
SCENARIOS = {
    "ZIPF": generate_zipf_basket,
    "CLICKSTREAM": generate_clickstream,
}
