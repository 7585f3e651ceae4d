"""Equivalence suite: the execution core vs the string reference engine.

The interned/bitset engine (:class:`~repro.core.engine.Disassociator`)
must produce *identical* published datasets to the pre-refactor string
pipeline (:class:`~tests.reference.engine.ReferenceDisassociator`), for
every phase individually and end to end, batch and streamed, and the
incremental REFINE driver (:func:`~repro.core.refine.refine`) must match
the reference driver (:func:`~tests.reference.refine._refine_reference`).
The bitset chunk checker and the sub-record assembly are held to the
record-scanning checker, the exhaustive violation search and the plain row
projection.  Each oracle runs on the paper-shaped
generators and on stress shapes: many small clusters, clusters past a
thousand rows, m=3 and sensitive terms.  These tests are the contract that
lets every future performance change swap internals without moving the
output.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.anonymity import (
    BitsetChunkChecker,
    find_km_violation,
    is_km_anonymous,
    km_anonymous_batch,
)
from repro.core.dataset import TransactionDataset
from repro.core.engine import AnonymizationParams, Disassociator
from repro.core.horizontal import horizontal_partition_indices
from repro.core.refine import refine
from repro.core.verification import verify_km_anonymity
from repro.core.vertical import vertical_partition_fast
from repro.core.vocab import EncodedDataset, SubrecordArena
from repro.stream import ShardedPipeline, StreamParams
from tests.conftest import PAPER_RECORDS, make_workload
from tests.reference.anonymity import IncrementalChunkChecker
from tests.reference.engine import ReferenceDisassociator
from tests.reference.horizontal import horizontal_partition
from tests.reference.refine import _refine_reference
from tests.reference.vertical import vertical_partition


def make_seeded_dataset(seed: int, num_records: int = 400) -> TransactionDataset:
    """Zipf-ish random dataset; duplicates and shared prefixes are common."""
    rng = random.Random(seed)
    vocabulary = [f"t{i}" for i in range(120)]
    weights = [1.0 / (i + 1) for i in range(120)]
    records = []
    for _ in range(num_records):
        length = rng.randint(1, 8)
        record = set()
        while len(record) < length:
            record.add(rng.choices(vocabulary, weights=weights, k=1)[0])
        records.append(record)
    return TransactionDataset(records)


#: Shapes away from the paper's defaults, as ``(seed, records, params)``:
#: many small clusters whose rows together pass a thousand, clusters of
#: over a thousand rows (a row mask spans many machine words), deeper
#: background knowledge (m=3), and sensitive terms kept out of clustering
#: and out of shared chunks.
SHAPES = {
    "many-small-clusters": (11, 1200, dict(k=5, m=2, max_cluster_size=30)),
    "large-clusters": (12, 2200, dict(k=5, m=2, max_cluster_size=2000)),
    "m3": (13, 400, dict(k=3, m=3, max_cluster_size=20)),
    "sensitive-terms": (
        14,
        600,
        dict(k=4, m=2, max_cluster_size=25, sensitive_terms={"t1", "t4", "t9"}),
    ),
}


#: The paper-shaped generators, small enough to run every phase against
#: its string reference.
SCENARIOS = ("quest", "zipf", "clickstream")


def _scenario_dataset(name: str, seed: int) -> TransactionDataset:
    if name == "clickstream":
        return make_workload(
            "clickstream", records=300, domain=120, avg_len=4.0, seed=seed, sections=5
        )
    return make_workload(name, records=300, domain=120, avg_len=5.0, seed=seed)


def _random_chunk(rng: random.Random, rows: int, domain: int = 26) -> list:
    return [
        frozenset(f"w{rng.randrange(domain)}" for _ in range(rng.randint(1, 6)))
        for _ in range(rows)
    ]


def _row_masks(records) -> dict:
    masks: dict = {}
    for row, record in enumerate(records):
        for term in record:
            masks[term] = masks.get(term, 0) | (1 << row)
    return masks


class TestPhaseEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_horizontal_partition_matches(self, seed):
        dataset = make_seeded_dataset(seed)
        reference = horizontal_partition(dataset, 25)
        encoded = EncodedDataset.from_dataset(dataset)
        index_parts = horizontal_partition_indices(encoded, 25)
        records = list(dataset)
        assert len(reference) == len(index_parts)
        for ref_part, idx_part in zip(reference, index_parts):
            assert list(ref_part) == [records[i] for i in idx_part]

    @pytest.mark.parametrize("seed,k,m", [(0, 3, 2), (1, 5, 2), (2, 2, 3), (3, 4, 1)])
    def test_vertical_partition_matches(self, seed, k, m):
        dataset = make_seeded_dataset(seed, num_records=150)
        for index, part in enumerate(horizontal_partition(dataset, 20)):
            reference = vertical_partition(part, k, m, label=f"P{index}")
            fast = vertical_partition_fast(list(part), k, m, label=f"P{index}")
            assert reference.cluster.to_dict() == fast.cluster.to_dict()
            assert reference.demoted_terms == fast.demoted_terms

    @pytest.mark.parametrize("seed", [0, 4])
    def test_refine_matches(self, seed):
        dataset = make_seeded_dataset(seed)

        def clusters():
            return [
                vertical_partition(part, 3, 2, label=f"P{i}").cluster
                for i, part in enumerate(horizontal_partition(dataset, 20))
            ]

        reference = _refine_reference(clusters(), 3, 2)
        fast = refine(clusters(), 3, 2)
        assert [c.to_dict() for c in reference] == [c.to_dict() for c in fast]

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_incremental_refine_matches_reference_driver(self, shape):
        seed, records, params = SHAPES[shape]
        dataset = make_seeded_dataset(seed, num_records=records)
        k, m, size = params["k"], params["m"], params["max_cluster_size"]
        excluded = frozenset(params.get("sensitive_terms", ()))

        def clusters():
            return [
                vertical_partition_fast(list(part), k, m, label=f"P{i}").cluster
                for i, part in enumerate(horizontal_partition(dataset, size))
            ]

        kwargs = dict(max_join_size=8 * size, excluded_terms=excluded)
        reference = _refine_reference(clusters(), k, m, **kwargs)
        fast = refine(clusters(), k, m, **kwargs)
        assert [c.to_dict() for c in reference] == [c.to_dict() for c in fast]

    @pytest.mark.parametrize("max_cluster_size", [10, 30])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_horizontal_partition_on_workloads(self, scenario, max_cluster_size):
        dataset = _scenario_dataset(scenario, seed=9)
        reference = horizontal_partition(dataset, max_cluster_size)
        index_parts = horizontal_partition_indices(
            EncodedDataset.from_dataset(dataset), max_cluster_size
        )
        records = list(dataset)
        assert [list(part) for part in reference] == [
            [records[i] for i in part] for part in index_parts
        ]

    @pytest.mark.parametrize("k,m", [(2, 2), (3, 2), (5, 2), (7, 2), (3, 3)])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_vertical_partition_on_workloads(self, scenario, k, m):
        dataset = _scenario_dataset(scenario, seed=k)
        for index, part in enumerate(horizontal_partition(dataset, 30)):
            reference = vertical_partition(part, k, m, label=f"P{index}")
            fast = vertical_partition_fast(list(part), k, m, label=f"P{index}")
            assert reference.cluster.to_dict() == fast.cluster.to_dict()
            assert reference.demoted_terms == fast.demoted_terms

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_incremental_refine_matches_reference_driver_on_workloads(
        self, scenario, m
    ):
        dataset = _scenario_dataset(scenario, seed=23)

        def clusters():
            return [
                vertical_partition_fast(list(part), 3, m, label=f"P{i}").cluster
                for i, part in enumerate(horizontal_partition(dataset, 30))
            ]

        reference = _refine_reference(clusters(), 3, m)
        fast = refine(clusters(), 3, m)
        assert [c.to_dict() for c in reference] == [c.to_dict() for c in fast]


class TestLargeChunks:
    """Chunks and clusters past a thousand rows, against the exhaustive
    references (string VERPART, the Counter-based violation search)."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_vertical_partition_of_one_large_cluster(self, m):
        records = _random_chunk(random.Random(m), 1100)
        reference = vertical_partition(TransactionDataset(records), 5, m, label="P0")
        fast = vertical_partition_fast(records, 5, m, label="P0")
        assert reference.cluster.to_dict() == fast.cluster.to_dict()
        assert reference.demoted_terms == fast.demoted_terms

    @pytest.mark.parametrize("m", [2, 3])
    def test_km_verdicts_match_exhaustive_search(self, m):
        rng = random.Random(40 + m)
        # One large chunk plus many small ones whose rows together pass 1024.
        chunks = [_random_chunk(rng, 1500)] + [
            _random_chunk(rng, rng.randint(1, 60), domain=12) for _ in range(40)
        ]
        verdicts = set()
        for k in (1, 2, 5, 40):
            expected = [find_km_violation(chunk, k, m) is None for chunk in chunks]
            assert km_anonymous_batch(chunks, k, m) == expected
            assert [is_km_anonymous(chunk, k, m) for chunk in chunks] == expected
            verdicts.update(expected)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("rows", [1, 2, 3, 37, 450, 2000])
    def test_vertical_partition_of_ragged_cluster_sizes(self, rows):
        # Singleton and tiny clusters next to thousand-row ones: the same
        # greedy selection must hold at every size.
        records = _random_chunk(random.Random(rows), rows)
        reference = vertical_partition(TransactionDataset(records), 5, 2, label="P0")
        fast = vertical_partition_fast(records, 5, 2, label="P0")
        assert reference.cluster.to_dict() == fast.cluster.to_dict()
        assert reference.demoted_terms == fast.demoted_terms


class TestChunkCheckers:
    """The bitset checker that VERPART and REFINE grow chunk domains with,
    against the record-scanning checker and the exhaustive violation search."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("rows", [20, 70, 200, 1100])
    def test_bitset_checker_matches_string_checker(self, rows, m):
        rng = random.Random(rows * 10 + m)
        for _trial in range(3 if rows > 500 else 8):
            records = _random_chunk(rng, rows, domain=rng.randint(10, 40))
            k = rng.randrange(2, 7)
            reference = IncrementalChunkChecker(records, k, m)
            bitset = BitsetChunkChecker(_row_masks(records), k, m)
            terms = sorted({term for record in records for term in record})
            rng.shuffle(terms)
            for term in terms:
                assert bitset.try_add(term) == reference.try_add(term)
            accepted = bitset.accepted_terms
            assert accepted == reference.accepted_terms
            projection = [record & accepted for record in records]
            assert find_km_violation([p for p in projection if p], k, m) is None
            # After removals, verdicts match a checker rebuilt on what is left.
            kept = sorted(accepted)[::2]
            for term in accepted - set(kept):
                bitset.remove(term)
            rebuilt = IncrementalChunkChecker(records, k, m)
            for term in kept:
                assert rebuilt.try_add(term)
            for term in terms:
                assert bitset.would_remain_anonymous(
                    term
                ) == rebuilt.would_remain_anonymous(term)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_is_km_anonymous_matches_exhaustive_search(self, m):
        rng = random.Random(m)
        verdicts = set()
        for _trial in range(25):
            records = _random_chunk(rng, rng.randrange(2, 60), domain=12)
            k = rng.randrange(1, 6)
            expected = find_km_violation(records, k, m) is None
            assert is_km_anonymous(records, k, m) == expected
            verdicts.add(expected)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_km_anonymous_batch_matches_exhaustive_search(self, k):
        rng = random.Random(31)
        chunks = [
            _random_chunk(rng, rng.randint(1, 60), domain=21) for _ in range(25)
        ]
        # A chunk repeated k times has every support a multiple of k.
        chunks += [chunk * k for chunk in chunks[:5]]
        expected = [find_km_violation(chunk, k, 2) is None for chunk in chunks]
        assert km_anonymous_batch(chunks, k, 2) == expected
        assert set(expected) == {True, False}


class TestSubrecordAssembly:
    """Interned sub-record assembly from term row masks, against the plain
    projection of each row onto the chunk domain."""

    @pytest.mark.parametrize("rows", [8, 64, 300, 1100])
    def test_subrecords_match_row_projection(self, rows):
        rng = random.Random(rows)
        arena = SubrecordArena()
        for _trial in range(10):
            domain = [f"t{i}" for i in range(rng.randrange(2, 12))]
            records = [
                frozenset(term for term in domain if rng.random() < 0.3)
                for _ in range(rows)
            ]
            term_masks = sorted(_row_masks(records).items())
            or_mask = 0
            for _term, mask in term_masks:
                or_mask |= mask
            covered = [record for record in records if record]
            assert arena.subrecords_for(term_masks, or_mask, len(covered)) == covered

    def test_empty_domain(self):
        assert SubrecordArena().subrecords_for([], 0, 0) == []


def _publish_both(dataset, **params) -> tuple:
    """``(reference, production)`` publications of one dataset."""
    return tuple(
        engine(AnonymizationParams(**params)).anonymize(dataset)
        for engine in (ReferenceDisassociator, Disassociator)
    )


class TestPipelineEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_backends_publish_identical_datasets(self, seed):
        dataset = make_seeded_dataset(seed)
        reference, production = _publish_both(dataset, k=4, m=2, max_cluster_size=25)
        assert reference.to_dict() == production.to_dict()
        verify_km_anonymity(production)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_backends_agree_on_stress_shapes(self, shape):
        seed, records, params = SHAPES[shape]
        dataset = make_seeded_dataset(seed, num_records=records)
        reference, production = _publish_both(dataset, **params)
        assert reference.to_dict() == production.to_dict()
        if shape == "large-clusters":
            assert max(leaf.size for leaf in production.simple_clusters()) >= 1024

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_backends_agree_on_workloads(self, scenario, m):
        dataset = _scenario_dataset(scenario, seed=21)
        reference, production = _publish_both(dataset, k=4, m=m, max_cluster_size=12)
        assert reference.to_dict() == production.to_dict()

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_backends_agree_with_sensitive_terms_on_workloads(self, scenario):
        dataset = _scenario_dataset(scenario, seed=22)
        supports = Counter(term for record in dataset for term in record)
        sensitive = {term for term, _count in supports.most_common(3)}
        reference, production = _publish_both(
            dataset, k=4, m=2, max_cluster_size=12, sensitive_terms=sensitive
        )
        assert reference.to_dict() == production.to_dict()

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_stream_backends_agree_on_workloads(self, scenario):
        dataset = _scenario_dataset(scenario, seed=31)
        params = AnonymizationParams(k=4, m=2, max_cluster_size=12)
        stream = StreamParams(shards=3, max_records_in_memory=120)
        outputs = [
            ShardedPipeline(params, stream, window_engine=engine)
            .anonymize(dataset)
            .to_dict()
            for engine in (ReferenceDisassociator(params), None)
        ]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("seed", [7, 8])
    def test_warm_engine_repeats_match_string_backend(self, seed):
        dataset = make_seeded_dataset(seed, num_records=500)
        serial = ReferenceDisassociator(
            AnonymizationParams(verify=False)
        ).anonymize(dataset)
        engine = Disassociator(AnonymizationParams(verify=False))
        first = engine.anonymize(dataset)
        assert engine.anonymize(dataset).to_dict() == first.to_dict()
        assert first.to_dict() == serial.to_dict()
        verify_km_anonymity(first)

    def test_paper_dataset_equivalence_with_sensitive_terms(self):
        dataset = TransactionDataset(PAPER_RECORDS)
        reference, production = _publish_both(
            dataset, k=3, m=2, max_cluster_size=6, sensitive_terms={"viagra"}
        )
        assert reference.to_dict() == production.to_dict()

    def test_reference_engine_never_reaches_the_production_core(self, monkeypatch):
        """The oracle must not share the implementations it is held to."""
        import repro.core.engine as engine_module

        def forbidden(*_args, **_kwargs):
            raise AssertionError("the reference engine called the production core")

        for name in ("horizontal_partition_indices", "vertical_partition_fast", "refine"):
            monkeypatch.setattr(engine_module, name, forbidden)
        params = AnonymizationParams(
            k=3, m=2, max_cluster_size=6, sensitive_terms={"viagra"}
        )
        published = ReferenceDisassociator(params).anonymize(
            TransactionDataset(PAPER_RECORDS)
        )
        assert len(published.simple_clusters()) > 1
        verify_km_anonymity(published)

    def test_reports_agree_on_structure(self):
        dataset = make_seeded_dataset(9)
        params = AnonymizationParams(verify=False)
        reference_engine = ReferenceDisassociator(params)
        production_engine = Disassociator(params)
        reference_engine.anonymize(dataset)
        production_engine.anonymize(dataset)
        fields = (
            "num_records",
            "num_clusters",
            "num_joint_clusters",
            "num_record_chunks",
            "num_shared_chunks",
            "term_chunk_terms",
        )
        for field in fields:
            assert getattr(reference_engine.last_report, field) == getattr(
                production_engine.last_report, field
            ), field
