"""Shared infrastructure of the experiment drivers (Figures 7-11).

Every ``figureXX`` module exposes ``run_*`` functions that take an
:class:`ExperimentConfig`, run the corresponding experiment and return plain
rows (lists of dicts) that the benchmark harness prints next to the paper's
reported series.  The configuration controls the *scale* of the runs: the
paper's datasets (hundreds of thousands to millions of records, C++
implementation) are scaled down so that the full grid executes in minutes of
pure Python, while preserving the dataset *shape* (skew, record length,
|D|/|T| ratio) that the paper's conclusions depend on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.clusters import DisassociatedDataset
from repro.core.dataset import TransactionDataset
from repro.datasets.real_proxies import load_proxy
from repro.service import AnonymizationRequest, AnonymizationService, ServiceConfig
from repro.metrics import (
    relative_error_chunks,
    relative_error_reconstructed,
    tkd_chunks,
    tkd_reconstructed,
    tlost,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiment drivers.

    Attributes:
        k, m: anonymity parameters (paper default: k=5, m=2).
        max_cluster_size: HORPART bound.
        top_k: number of top frequent itemsets compared by tKd (the paper
            uses 1000 on full-size data; the scaled default is 100).
        max_itemset_size: maximum itemset size considered by tKd.
        re_range: frequency-rank window probed by the re metric.
        scale: fraction of the real datasets' record counts to generate.
        domain_scale: fraction of the real datasets' domain sizes to keep;
            scaling the domain along with the record count keeps the
            |D|/|T| ratio (the quantity the paper identifies as the driver
            of the re results) in a realistic regime at laptop scale.
        seed: seed shared by data generation and reconstruction.
        datasets: which real-dataset proxies to use.
        stream: route runs through the sharded streaming pipeline
            (:class:`~repro.stream.ShardedPipeline`) instead of the
            single-pass engine.
        shards: number of shards in streaming mode.
        max_records_in_memory: streaming memory bound; ``None`` uses the
            subsystem default.
        shard_strategy: record routing in streaming mode (``hash`` /
            ``horpart``).
    """

    k: int = 5
    m: int = 2
    max_cluster_size: int = 30
    top_k: int = 100
    max_itemset_size: int = 3
    re_range: tuple = (60, 80)
    scale: float = 0.01
    domain_scale: float = 0.2
    seed: int = 7
    datasets: tuple = ("POS", "WV1", "WV2")
    stream: bool = False
    shards: int = 4
    max_records_in_memory: Optional[int] = None
    shard_strategy: str = "hash"

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """A copy of the configuration with some fields replaced."""
        return replace(self, **overrides)

    def to_service_config(self, **overrides) -> "ServiceConfig":
        """Project the anonymization slice onto a :class:`ServiceConfig`.

        The experiment-only knobs (``top_k``, ``scale``, ``seed``, ...)
        stay here; everything the engine or streaming executor consumes is
        forwarded, so the drivers run through the same service facade as
        production callers.
        """
        values = dict(
            k=self.k,
            m=self.m,
            max_cluster_size=self.max_cluster_size,
            shards=self.shards,
            shard_strategy=self.shard_strategy,
        )
        # A None bound means "subsystem default": leave the key out and
        # let ServiceConfig's own field default supply it.
        if self.max_records_in_memory is not None:
            values["max_records_in_memory"] = self.max_records_in_memory
        values.update(overrides)
        return ServiceConfig(**values)


#: Configuration used by the benchmark suite: small enough for CI, large
#: enough that the paper's qualitative shapes are visible.
BENCH_CONFIG = ExperimentConfig()

#: Even smaller configuration for unit/integration tests.
TEST_CONFIG = ExperimentConfig(
    scale=0.002, domain_scale=0.05, top_k=50, max_cluster_size=20, re_range=(20, 35)
)


@dataclass
class DisassociationRun:
    """One anonymization run and its evaluation."""

    dataset_name: str
    original: TransactionDataset
    published: DisassociatedDataset
    seconds: float
    metrics: dict = field(default_factory=dict)


def load_dataset(name: str, config: ExperimentConfig) -> TransactionDataset:
    """Load the proxy of one of the paper's real datasets at the configured scale."""
    return load_proxy(
        name, scale=config.scale, seed=config.seed, domain_scale=config.domain_scale
    )


def disassociate(
    dataset: TransactionDataset,
    config: ExperimentConfig,
    k: Optional[int] = None,
    refine: bool = True,
    report_sink: Optional[list] = None,
) -> tuple[DisassociatedDataset, float]:
    """Run the disassociation pipeline, returning the publication and wall-clock time.

    When ``report_sink`` is given, the run's
    :class:`~repro.core.engine.AnonymizationReport` (phase timings) is
    appended to it, so perf benchmarks can emit machine-readable timings
    without changing the return contract.
    """
    service_config = config.to_service_config(
        k=config.k if k is None else k, refine=refine, verify=False
    )
    request = AnonymizationRequest(
        dataset, mode="stream" if config.stream else "batch"
    )
    with AnonymizationService(service_config) as service:
        start = time.perf_counter()
        result = service.run(request)
        elapsed = time.perf_counter() - start
    if report_sink is not None:
        report_sink.append(result.report)
    return result.publication, elapsed


def evaluate(
    original: TransactionDataset,
    published: DisassociatedDataset,
    config: ExperimentConfig,
    reconstructions: int = 1,
) -> dict:
    """Compute the paper's information-loss metrics for one publication.

    Returns a dict with keys ``tkd_a``, ``tkd``, ``re_a``, ``re`` and
    ``tlost`` (Figure 7a's five bars).
    """
    return {
        "tkd_a": tkd_chunks(
            original, published, top_k=config.top_k, max_size=config.max_itemset_size
        ),
        "tkd": tkd_reconstructed(
            original,
            published,
            top_k=config.top_k,
            max_size=config.max_itemset_size,
            seed=config.seed,
        ),
        "re_a": relative_error_chunks(original, published, rank_range=config.re_range),
        "re": relative_error_reconstructed(
            original,
            published,
            rank_range=config.re_range,
            reconstructions=reconstructions,
            seed=config.seed,
        ),
        "tlost": tlost(original, published),
    }


def run_dataset(
    name: str, config: ExperimentConfig, k: Optional[int] = None, refine: bool = True
) -> DisassociationRun:
    """Load a proxy dataset, disassociate it and evaluate the publication."""
    original = load_dataset(name, config)
    published, seconds = disassociate(original, config, k=k, refine=refine)
    metrics = evaluate(original, published, config)
    return DisassociationRun(
        dataset_name=name,
        original=original,
        published=published,
        seconds=seconds,
        metrics=metrics,
    )


def format_table(rows: list[dict], columns: Optional[list[str]] = None) -> str:
    """Render result rows as a fixed-width text table (for bench output)."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(_fmt(row.get(column))) for row in rows))
        for column in columns
    }
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    separator = "  ".join("-" * widths[column] for column in columns)
    lines = [header, separator]
    for row in rows:
        lines.append(
            "  ".join(_fmt(row.get(column)).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
