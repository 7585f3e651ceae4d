"""Scenario: publishing a web-search query log with sensitive terms.

This is the workload that motivates the paper's introduction: a search
engine wants to share per-user query-term sets with analysts.  Terms cannot
be generalized (the query strings *are* the value) and most terms cannot be
classified as sensitive or non-sensitive up front — but a handful (health
conditions, adult content) are known to be sensitive and should additionally
get l-diversity protection.

The example:

1. builds a synthetic query log with a realistic skewed vocabulary,
2. anonymizes it with disassociation, marking the known sensitive terms,
3. shows that sensitive terms never appear in record or shared chunks
   (so they cannot be linked to any quasi-identifying combination), and
4. round-trips the publication through JSON, the way it would be shared.

Run with::

    python examples/query_log_anonymization.py
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

from repro import AnonymizationParams, Disassociator, TransactionDataset, audit
from repro.datasets.io import read_disassociated_json, write_disassociated_json

SENSITIVE_TERMS = {"hiv test", "depression", "bankruptcy", "gambling help"}

COMMON_QUERIES = [
    "weather", "news", "maps", "youtube", "facebook", "recipes", "football",
    "flights", "hotels", "netflix", "amazon", "iphone", "android", "python",
    "java", "translate", "pizza delivery", "car insurance", "bank login",
    "online banking", "music", "movies", "weather tomorrow", "train times",
]


def build_query_log(num_users: int = 400, seed: int = 7) -> TransactionDataset:
    """Synthesize a query log: common queries with a Zipf-ish skew, plus a
    small fraction of users issuing sensitive queries."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) for rank in range(len(COMMON_QUERIES))]
    records = []
    for _ in range(num_users):
        history = set()
        for _ in range(rng.randint(2, 8)):
            history.add(rng.choices(COMMON_QUERIES, weights=weights, k=1)[0])
        if rng.random() < 0.08:
            history.add(rng.choice(sorted(SENSITIVE_TERMS)))
        records.append(history)
    return TransactionDataset(records)


def main() -> None:
    log = build_query_log()
    print(f"query log: {log.stats().as_row()}")
    print(f"sensitive queries present: {sorted(log.domain & SENSITIVE_TERMS)}\n")

    params = AnonymizationParams(
        k=5, m=2, max_cluster_size=30, sensitive_terms=frozenset(SENSITIVE_TERMS)
    )
    engine = Disassociator(params)
    published = engine.anonymize(log)
    report = engine.last_report
    print(
        f"anonymized {report.num_records} users into {report.num_clusters} clusters "
        f"({report.num_record_chunks} record chunks, {report.num_shared_chunks} shared chunks)"
    )
    print(f"audit: {audit(published).summary()}")

    # sensitive terms are only ever published inside term chunks, so no
    # combination of quasi-identifying queries can be linked to them with
    # probability better than 1/|cluster|
    linked = published.record_chunk_terms() & SENSITIVE_TERMS
    print(f"sensitive terms linked to other queries: {sorted(linked) or 'none'}")
    for leaf in published.simple_clusters():
        overlap = leaf.term_chunk.terms & SENSITIVE_TERMS
        if overlap:
            print(
                f"  cluster {leaf.label}: sensitive {sorted(overlap)} hidden among "
                f"{leaf.size} users (association probability <= {1 / leaf.size:.2f})"
            )

    # share the publication as JSON and re-load it, as a data consumer would
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "query_log.published.json"
        write_disassociated_json(published, path)
        loaded = read_disassociated_json(path)
        print(
            f"\nround-tripped publication: {len(path.read_text()) // 1024} KiB of JSON, "
            f"{loaded.total_records()} users, k={loaded.k}, m={loaded.m}"
        )


if __name__ == "__main__":
    main()
