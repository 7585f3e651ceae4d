"""Scenario: releasing a retail transaction log for market-basket analysis.

A retailer wants to let an external analyst mine frequent itemsets and
association rules from its sales log (the POS-style workload of the paper's
evaluation) without exposing any customer's identifiable basket.  The
example compares what the analyst can still learn after

* disassociation (this paper),
* DiffPart differential privacy (Chen et al. 2011), and
* global suppression,

mirroring the paper's Figure 11 comparison at laptop scale.

Run with::

    python examples/market_basket_analysis.py
"""

from __future__ import annotations

from repro import AnonymizationParams, Disassociator, reconstruct
from repro.analysis.queries import top_terms
from repro.baselines.diffpart import publish_with_diffpart
from repro.baselines.suppression import anonymize_with_suppression
from repro.datasets.real_proxies import load_proxy
from repro.metrics import relative_error, relative_error_reconstructed, top_k_deviation, tkd_reconstructed
from repro.mining.itemsets import top_k_itemsets


def main() -> None:
    # a scaled-down POS-style sales log (see DESIGN.md for the proxy details)
    sales = load_proxy("POS", scale=0.004, seed=3, domain_scale=0.15)
    print(f"sales log: {sales.stats().as_row()}\n")

    print("top products in the original log:")
    for product, support in top_terms(sales, count=5):
        print(f"  {product:12s} {support}")

    # ------------------------------------------------------------------ #
    # disassociation
    # ------------------------------------------------------------------ #
    published = Disassociator(
        AnonymizationParams(k=5, m=2, max_cluster_size=30)
    ).anonymize(sales)
    world = reconstruct(published, seed=1)
    disassociation_tkd = tkd_reconstructed(sales, published, top_k=100, max_size=2, seed=1)
    disassociation_re = relative_error_reconstructed(sales, published, rank_range=(0, 20), seed=1)

    print("\nfrequent pairs the analyst recovers from a reconstructed world:")
    top_itemsets = top_k_itemsets(sales, top_k=40, max_size=2)
    original_pairs = [itemset for itemset, _s in top_itemsets if len(itemset) == 2][:5]
    for pair in original_pairs:
        print(
            f"  {pair}: original support {sales.support(pair)}, "
            f"reconstructed {world.support(pair)}"
        )

    # ------------------------------------------------------------------ #
    # baselines
    # ------------------------------------------------------------------ #
    diffpart = publish_with_diffpart(sales, epsilon=1.0, seed=3)
    diffpart_tkd = top_k_deviation(sales, diffpart.dataset, top_k=100, max_size=2)
    diffpart_re = relative_error(sales, diffpart.dataset, rank_range=(0, 20))

    sample = sales.sample(600, seed=0)
    suppressed = anonymize_with_suppression(sample, k=5, m=2)

    print("\ncomparison (lower is better):")
    print(f"  {'method':16s} {'tKd':>6s} {'re(top terms)':>14s}")
    print(f"  {'disassociation':16s} {disassociation_tkd:6.2f} {disassociation_re:14.2f}")
    print(f"  {'diffpart':16s} {diffpart_tkd:6.2f} {diffpart_re:14.2f}")
    print(
        f"  suppression keeps only {len(suppressed.dataset.domain)} of "
        f"{len(sample.domain)} products ({(1 - suppressed.term_loss) * 100:.0f}%) "
        f"with any associations at all"
    )

    print(
        "\nshape reproduced from the paper: disassociation preserves the frequent-"
        "itemset structure and pair supports almost intact, while differential "
        "privacy and suppression destroy most of the long tail."
    )


if __name__ == "__main__":
    main()
