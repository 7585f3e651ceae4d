"""Dataset substrate: file I/O, synthetic generation and real-data proxies.

* :mod:`repro.datasets.io` -- transaction-file, JSONL and JSON
  readers/writers, plus the streaming ``iter_*`` readers that feed
  :mod:`repro.stream`.
* :mod:`repro.datasets.quest` -- IBM Quest-style synthetic generator.
* :mod:`repro.datasets.scenarios` -- Zipf market-basket and session
  click-stream scenario generators.
* :mod:`repro.datasets.real_proxies` -- statistical proxies of the POS /
  WV1 / WV2 datasets used in the paper's evaluation.
"""

from repro.datasets.io import (
    iter_jsonl,
    iter_records,
    iter_transactions,
    read_dataset_json,
    read_disassociated_json,
    read_jsonl,
    read_records,
    read_transactions,
    sniff_format,
    write_dataset_json,
    write_disassociated_json,
    write_jsonl,
    write_transactions,
)
from repro.datasets.real_proxies import (
    DEFAULT_SCALE,
    PROFILES,
    RealDatasetProfile,
    available_datasets,
    load_proxy,
    profile_of,
)
from repro.datasets.scenarios import (
    SCENARIOS,
    ClickstreamConfig,
    ZipfBasketConfig,
    generate_clickstream,
    generate_zipf_basket,
)


def __getattr__(name: str):
    # The generators import numpy on use and the Quest module on access,
    # so start-up (the CLI) never loads it.
    if name in ("QuestConfig", "QuestGenerator", "generate_quest"):
        from repro.datasets import quest

        return getattr(quest, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DEFAULT_SCALE",
    "PROFILES",
    "SCENARIOS",
    "ClickstreamConfig",
    "QuestConfig",
    "QuestGenerator",
    "RealDatasetProfile",
    "ZipfBasketConfig",
    "available_datasets",
    "generate_clickstream",
    "generate_quest",
    "generate_zipf_basket",
    "iter_jsonl",
    "iter_records",
    "iter_transactions",
    "load_proxy",
    "profile_of",
    "read_dataset_json",
    "read_disassociated_json",
    "read_jsonl",
    "read_records",
    "read_transactions",
    "sniff_format",
    "write_dataset_json",
    "write_disassociated_json",
    "write_jsonl",
    "write_transactions",
]
