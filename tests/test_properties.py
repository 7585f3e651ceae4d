"""Property-based tests (hypothesis) for the core invariants.

These tests generate random transactional datasets and check the paper's
structural invariants end to end:

* every published record/shared chunk is k^m-anonymous,
* the published dataset passes the independent audit,
* the cluster sizes sum to the original record count and no original term is
  dropped,
* reconstruction produces valid datasets of the right size,
* lower-bound supports never exceed the original supports,
* the production itemset counter agrees with the Apriori oracle.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.anonymity import combination_supports, is_km_anonymous
from repro.core.dataset import TransactionDataset
from repro.core.engine import AnonymizationParams, Disassociator
from repro.core.reconstruct import reconstruct
from repro.core.verification import audit
from repro.mining.itemsets import itemset_supports
from tests.reference import apriori

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
TERMS = [f"w{i}" for i in range(12)]

records_strategy = st.lists(
    st.sets(st.sampled_from(TERMS), min_size=1, max_size=5),
    min_size=1,
    max_size=40,
)

km_strategy = st.tuples(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=3))

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(records=records_strategy, km=km_strategy)
@SETTINGS
def test_pipeline_output_is_always_km_anonymous(records, km):
    k, m = km
    dataset = TransactionDataset(records)
    published = Disassociator(
        AnonymizationParams(k=k, m=m, max_cluster_size=max(k + 1, 10), verify=False)
    ).anonymize(dataset)
    report = audit(published)
    assert report.ok, report.summary()


@given(records=records_strategy, km=km_strategy)
@SETTINGS
def test_pipeline_preserves_records_and_terms(records, km):
    k, m = km
    dataset = TransactionDataset(records)
    published = Disassociator(
        AnonymizationParams(k=k, m=m, max_cluster_size=max(k + 1, 10), verify=False)
    ).anonymize(dataset)
    assert published.total_records() == len(dataset)
    assert published.domain() == dataset.domain


@given(records=records_strategy, km=km_strategy, seed=st.integers(min_value=0, max_value=10))
@SETTINGS
def test_reconstruction_yields_valid_world(records, km, seed):
    k, m = km
    dataset = TransactionDataset(records)
    published = Disassociator(
        AnonymizationParams(k=k, m=m, max_cluster_size=max(k + 1, 10), verify=False)
    ).anonymize(dataset)
    world = reconstruct(published, seed=seed)
    assert len(world) == len(dataset)
    assert all(record for record in world)
    assert world.domain <= dataset.domain


@given(records=records_strategy, km=km_strategy)
@SETTINGS
def test_lower_bounds_never_exceed_original_supports(records, km):
    k, m = km
    dataset = TransactionDataset(records)
    published = Disassociator(
        AnonymizationParams(k=k, m=m, max_cluster_size=max(k + 1, 10), verify=False)
    ).anonymize(dataset)
    for term in dataset.domain:
        assert published.lower_bound_support({term}) <= dataset.support({term})


@given(records=records_strategy, km=km_strategy)
@SETTINGS
def test_record_chunk_pairs_keep_exact_supports_at_least_k(records, km):
    """Lemma 1: any pair observable inside a chunk appears at least k times."""
    k, m = km
    dataset = TransactionDataset(records)
    published = Disassociator(
        AnonymizationParams(k=k, m=m, max_cluster_size=max(k + 1, 10), verify=False)
    ).anonymize(dataset)
    for chunk in published.iter_record_chunks():
        counts = combination_supports(chunk.subrecords, m)
        assert all(value >= k for value in counts.values())


@given(
    records=st.lists(
        st.sets(st.sampled_from(TERMS), min_size=1, max_size=4), min_size=1, max_size=25
    ),
    min_support=st.integers(min_value=1, max_value=6),
)
@SETTINGS
def test_itemset_supports_agree_with_apriori(records, min_support):
    dataset = TransactionDataset(records)
    frequent = {
        itemset: support
        for itemset, support in itemset_supports(dataset, 3).items()
        if support >= min_support
    }
    assert apriori.mine_frequent_itemsets(dataset, min_support, max_size=3) == frequent


@given(
    subrecords=st.lists(
        st.sets(st.sampled_from(TERMS[:6]), min_size=0, max_size=4), min_size=0, max_size=20
    ),
    km=km_strategy,
)
@SETTINGS
def test_km_anonymity_is_monotone_in_k(subrecords, km):
    """If a chunk is k-anonymous for combinations, it is also (k-1)^m-anonymous."""
    k, m = km
    chunk = [frozenset(s) for s in subrecords]
    if is_km_anonymous(chunk, k, m):
        assert is_km_anonymous(chunk, max(1, k - 1), m)


@given(
    subrecords=st.lists(
        st.sets(st.sampled_from(TERMS[:6]), min_size=0, max_size=4), min_size=0, max_size=20
    ),
    km=km_strategy,
)
@SETTINGS
def test_km_anonymity_is_monotone_in_m(subrecords, km):
    """k^m-anonymity for m implies k^(m-1)-anonymity (fewer combinations)."""
    k, m = km
    chunk = [frozenset(s) for s in subrecords]
    if is_km_anonymous(chunk, k, m) and m > 1:
        assert is_km_anonymous(chunk, k, m - 1)


@given(records=records_strategy, seed=st.integers(min_value=0, max_value=5))
@SETTINGS
def test_reconstruction_preserves_chunk_term_supports(records, seed):
    """Terms placed in record chunks keep their exact per-chunk supports in
    every reconstruction (each sub-record is placed exactly once)."""
    dataset = TransactionDataset(records)
    published = Disassociator(
        AnonymizationParams(k=2, m=2, max_cluster_size=10, verify=False)
    ).anonymize(dataset)
    world = reconstruct(published, seed=seed)
    world_supports = world.term_supports()
    for term in published.record_chunk_terms():
        chunk_total = sum(
            chunk.term_supports().get(term, 0) for chunk in published.iter_record_chunks()
        )
        assert world_supports[term] >= chunk_total
