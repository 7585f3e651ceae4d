"""Synthetic proxies for the paper's real datasets (POS, WV1, WV2).

The paper evaluates on three real datasets introduced by Zheng, Kohavi &
Mason (KDD 2001) whose published summary statistics are (Figure 6):

============ ========= ======= ============= =============
 dataset        |D|      |T|    max rec. size  avg rec. size
============ ========= ======= ============= =============
 POS          515,597    1,657      164           6.5
 WV1           59,602      497      267           2.5
 WV2           77,512    3,340      161           5.0
============ ========= ======= ============= =============

The original files are not redistributable and the build environment has no
network access, so this module generates synthetic datasets that match those
statistics: Zipf-distributed term popularity (retail and click-stream logs
are strongly skewed), truncated-geometric record lengths calibrated to the
published mean and maximum, and the published domain size.  A ``scale``
parameter shrinks |D| (default 1/20) so that the full experiment grid runs
on a laptop; the domain is kept at its original size because the |D|/|T|
ratio is exactly what drives the differences the paper observes between the
three datasets (Section 7.2).

The substitution is recorded in DESIGN.md: every conclusion we draw depends
on the *shape* of the data (sparsity, skew, record length, |D|/|T| ratio),
not on the identity of individual SKUs or URLs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.dataset import TransactionDataset
from repro.exceptions import ParameterError


@dataclass(frozen=True)
class RealDatasetProfile:
    """Published statistics of one of the paper's real datasets."""

    name: str
    num_records: int
    domain_size: int
    max_record_size: int
    avg_record_size: float
    zipf_exponent: float


#: Profiles copied from Figure 6 of the paper.  The Zipf exponents were
#: chosen so the generated support distributions exhibit the long tail the
#: paper relies on (WV1 is the densest, WV2 the sparsest).
PROFILES: dict[str, RealDatasetProfile] = {
    "POS": RealDatasetProfile("POS", 515_597, 1_657, 164, 6.5, 1.05),
    "WV1": RealDatasetProfile("WV1", 59_602, 497, 267, 2.5, 1.0),
    "WV2": RealDatasetProfile("WV2", 77_512, 3_340, 161, 5.0, 1.1),
}

#: Default down-scaling of |D| so the whole experiment grid runs in minutes.
DEFAULT_SCALE = 1 / 20


def available_datasets() -> list[str]:
    """Names of the real-dataset proxies that can be generated."""
    return sorted(PROFILES)


def load_proxy(
    name: str,
    scale: float = DEFAULT_SCALE,
    seed: Optional[int] = 0,
    domain_scale: Optional[float] = None,
) -> TransactionDataset:
    """Generate the synthetic proxy of one of the paper's real datasets.

    Args:
        name: ``"POS"``, ``"WV1"`` or ``"WV2"`` (case-insensitive).
        scale: fraction of the original record count to generate (default
            1/20; pass 1.0 for full size).
        seed: PRNG seed.
        domain_scale: optional fraction of the original domain size; by
            default the full domain is kept so the |D|/|T| ratio scales with
            ``scale`` exactly as the record count does.

    Returns:
        A :class:`TransactionDataset` whose record-length distribution,
        domain size and skew match the published statistics.
    """
    profile = PROFILES.get(str(name).upper())
    if profile is None:
        raise ParameterError(
            f"unknown real dataset {name!r}; available: {available_datasets()}"
        )
    if not 0 < scale <= 1:
        raise ParameterError(f"scale must be in (0, 1], got {scale}")
    num_records = max(100, int(round(profile.num_records * scale)))
    domain_size = profile.domain_size
    if domain_scale is not None:
        if not 0 < domain_scale <= 1:
            raise ParameterError(f"domain_scale must be in (0, 1], got {domain_scale}")
        domain_size = max(10, int(round(profile.domain_size * domain_scale)))
    return _generate(profile, num_records, domain_size, seed)


def _generate(
    profile: RealDatasetProfile,
    num_records: int,
    domain_size: int,
    seed: Optional[int],
) -> TransactionDataset:
    import numpy as np  # imported on use: the CLI lists the profiles without it

    rng = np.random.default_rng(seed)

    # Zipf-like item popularity over the (scaled) domain.
    ranks = np.arange(1, domain_size + 1, dtype=float)
    popularity = 1.0 / np.power(ranks, profile.zipf_exponent)
    popularity /= popularity.sum()
    items = np.array([f"{profile.name.lower()}_t{i}" for i in range(domain_size)])

    # Record lengths: geometric distribution calibrated to the published mean,
    # truncated at the published maximum, and at least 1.
    mean_length = profile.avg_record_size
    p = 1.0 / mean_length
    lengths = rng.geometric(p, size=num_records)
    lengths = np.clip(lengths, 1, profile.max_record_size)

    records = []
    for length in lengths:
        # Sampling without replacement from a skewed distribution: draw a
        # slightly larger batch with replacement and deduplicate, which is
        # much faster than np.random.choice(replace=False) with probabilities.
        want = int(length)
        draw = rng.choice(domain_size, size=min(domain_size, want * 3), p=popularity)
        unique = list(dict.fromkeys(draw.tolist()))[:want]
        if not unique:
            unique = [int(rng.integers(domain_size))]
        records.append(frozenset(items[i] for i in unique))
    return TransactionDataset(records)


def profile_of(name: str) -> RealDatasetProfile:
    """The published statistics of a real dataset (raises for unknown names)."""
    profile = PROFILES.get(str(name).upper())
    if profile is None:
        raise ParameterError(
            f"unknown real dataset {name!r}; available: {available_datasets()}"
        )
    return profile
