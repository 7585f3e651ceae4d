"""Quickstart: disassociate a small web-search query log.

Runs the paper's running example (Figure 2): ten users' query histories are
anonymized with k=3, m=2, the published structure is printed, the anonymity
guarantee is independently audited, and one possible original dataset is
reconstructed for analysis.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    AnonymizationService,
    ServiceConfig,
    TransactionDataset,
    audit,
    reconstruct,
)

QUERY_LOG = [
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


def main() -> None:
    dataset = TransactionDataset(QUERY_LOG)
    print(f"original dataset: {dataset.stats().as_row()}")
    print(
        "identifying combination {madonna, viagra} matches "
        f"{dataset.support({'madonna', 'viagra'})} record(s) -> identity disclosure risk\n"
    )

    # --- anonymize -------------------------------------------------------
    # The service facade is the production entry point: it keeps the worker
    # pool, engines and vocabulary warm across requests.  (A one-off
    # ``Disassociator(AnonymizationParams(k=3, m=2)).anonymize(dataset)``
    # produces bit-for-bit the same publication.)
    with AnonymizationService(ServiceConfig(k=3, m=2, max_cluster_size=6)) as service:
        published = service.run(dataset).publication
    print(f"published: {published}")
    for leaf in published.simple_clusters():
        print(f"\ncluster {leaf.label} (|P| = {leaf.size})")
        for index, chunk in enumerate(leaf.record_chunks, start=1):
            print(f"  record chunk C{index} over {sorted(chunk.domain)}:")
            for subrecord in chunk.subrecords:
                print(f"    {sorted(subrecord)}")
        print(f"  term chunk: {sorted(leaf.term_chunk.terms)}")
    for cluster in published.clusters:
        for shared in cluster.iter_shared_chunks():
            print(f"\nshared chunk over {sorted(shared.domain)}: "
                  f"{[sorted(s) for s in shared.subrecords]}")

    # --- verify the guarantee -------------------------------------------
    report = audit(published)
    print(f"\naudit: {report.summary()}")
    print(
        "the identifying pair is no longer observable: lower-bound support of "
        f"{{madonna, viagra}} = {published.lower_bound_support({'madonna', 'viagra'})}"
    )

    # --- reconstruct a possible original dataset -------------------------
    world = reconstruct(published, seed=0)
    print(f"\none reconstructed world ({len(world)} records):")
    for record in world.to_lists():
        print(f"  {record}")


if __name__ == "__main__":
    main()
