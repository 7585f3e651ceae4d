"""Unit tests for the interned-term execution core (repro.core.vocab)."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.anonymity import BitsetChunkChecker, combination_supports
from repro.core.dataset import TransactionDataset
from repro.core.engine import AnonymizationParams, Disassociator
from repro.core.vocab import (
    EncodedCluster,
    EncodedDataset,
    SubrecordArena,
    Vocabulary,
    iter_mask_bits,
)
from repro.stream import ShardedPipeline, StreamParams
from tests.conftest import (
    PAPER_RECORDS,
    WORKLOAD_NAMES,
    make_uniform_dataset,
    make_workload,
)
from tests.reference.anonymity import IncrementalChunkChecker


class TestVocabulary:
    def test_intern_assigns_dense_first_seen_ids(self):
        vocab = Vocabulary()
        assert vocab.intern("b") == 0
        assert vocab.intern("a") == 1
        assert vocab.intern("b") == 0  # idempotent
        assert len(vocab) == 2

    def test_decode_roundtrip(self):
        vocab = Vocabulary(["x", "y", "z"])
        for term in ("x", "y", "z"):
            assert vocab.decode(vocab.intern(term)) == term

    def test_non_string_terms_are_normalized(self):
        vocab = Vocabulary()
        assert vocab.intern(7) == vocab.intern("7")
        assert "7" in vocab

    def test_id_of_missing_term_is_none(self):
        vocab = Vocabulary(["x"])
        assert vocab.id_of("missing") is None

    def test_encode_decode_terms(self):
        vocab = Vocabulary()
        ids = vocab.encode_terms({"a", "b", "c"})
        assert vocab.decode_terms(ids) == frozenset({"a", "b", "c"})


class TestEncodedDataset:
    def test_positional_alignment_with_source(self):
        dataset = TransactionDataset(PAPER_RECORDS)
        encoded = EncodedDataset.from_dataset(dataset)
        assert len(encoded) == len(dataset)
        for record, ids in zip(dataset, encoded.records):
            assert encoded.vocab.decode_terms(ids) == record

    def test_postings_invert_the_records(self):
        dataset = TransactionDataset(PAPER_RECORDS)
        encoded = EncodedDataset.from_dataset(dataset)
        for tid, indices in encoded.postings.items():
            term = encoded.vocab.decode(tid)
            assert indices == {i for i, r in enumerate(dataset) if term in r}

    def test_supports_match_dataset(self):
        dataset = make_uniform_dataset(50, domain=20, record_length=4, seed=3)
        encoded = EncodedDataset.from_dataset(dataset)
        counts = encoded.supports_in(range(len(encoded)))
        expected = dataset.term_supports()
        assert {encoded.vocab.decode(t): c for t, c in counts.items()} == dict(expected)

    def test_most_frequent_matches_dataset_tiebreak(self):
        dataset = TransactionDataset(PAPER_RECORDS)
        encoded = EncodedDataset.from_dataset(dataset)
        tid = encoded.most_frequent_in(range(len(encoded)))
        assert encoded.vocab.decode(tid) == dataset.most_frequent_term()

    def test_split_indices_preserves_order(self):
        dataset = TransactionDataset(PAPER_RECORDS)
        encoded = EncodedDataset.from_dataset(dataset)
        tid = encoded.vocab.id_of("madonna")
        with_term, without_term = encoded.split_indices(range(len(encoded)), tid)
        assert with_term == [i for i, r in enumerate(dataset) if "madonna" in r]
        assert without_term == [i for i, r in enumerate(dataset) if "madonna" not in r]


class TestEncodedCluster:
    def test_masks_encode_membership(self):
        cluster = EncodedCluster([{"a", "b"}, {"b"}, {"a"}])
        assert cluster.masks["a"] == 0b101
        assert cluster.masks["b"] == 0b011

    def test_supports_match_combination_supports(self):
        records = [frozenset(r) for r in PAPER_RECORDS]
        cluster = EncodedCluster(records)
        counts = combination_supports(records, 2)
        for combo, support in counts.items():
            assert cluster.combination_support(combo) == support

    def test_covered_rows_is_or_of_masks(self):
        cluster = EncodedCluster([{"a"}, {"b"}, {"c"}, {"a", "c"}])
        assert cluster.covered_rows({"a", "b"}) == 3
        assert cluster.covered_rows({"z"}) == 0

    def test_picklable_for_process_fanout(self):
        cluster = EncodedCluster([{"a", "b"}, {"b"}])
        clone = pickle.loads(pickle.dumps(cluster))
        assert clone.masks == cluster.masks


class TestIterMaskBits:
    @pytest.mark.parametrize("mask", [0, 1, 0b1010, 0b1111, 1 << 40 | 1])
    def test_matches_bit_positions(self, mask):
        assert list(iter_mask_bits(mask)) == [
            i for i in range(mask.bit_length()) if (mask >> i) & 1
        ]


class TestBitsetChunkChecker:
    @pytest.mark.parametrize("k,m", [(2, 1), (2, 2), (3, 2), (2, 3)])
    def test_decisions_match_string_checker(self, k, m):
        dataset = make_uniform_dataset(24, domain=12, record_length=5, seed=k * 10 + m)
        records = list(dataset)
        cluster = EncodedCluster(records)
        reference = IncrementalChunkChecker(records, k, m)
        bitset = BitsetChunkChecker(cluster.masks, k, m)
        for term in sorted(dataset.domain):
            assert bitset.try_add(term) == reference.try_add(term), term
        assert bitset.accepted_terms == reference.accepted_terms

    def test_reset_clears_state(self):
        cluster = EncodedCluster([{"a", "b"}] * 3)
        checker = BitsetChunkChecker(cluster.masks, 2, 2)
        assert checker.try_add("a")
        checker.reset()
        assert checker.accepted_terms == frozenset()


# --------------------------------------------------------------------------- #
# shard-lifetime vocabulary reuse
# --------------------------------------------------------------------------- #
def _scenario_dataset(name: str, seed: int) -> TransactionDataset:
    if name == "quest":
        return make_workload("quest", records=400, domain=120, avg_len=6.0, seed=seed)
    if name == "zipf":
        return make_workload("zipf", records=400, domain=150, avg_len=5.0, seed=seed)
    return make_workload(
        "clickstream", records=400, domain=150, avg_len=5.0, seed=seed, sections=6
    )


class _FreshVocabularyEngine(Disassociator):
    """An engine that ignores any shared vocabulary it is handed."""

    @property
    def vocabulary(self):
        return None

    @vocabulary.setter
    def vocabulary(self, _value):
        pass


class TestVocabularyReuse:
    def test_from_dataset_accepts_prewarmed_vocab(self):
        dataset = TransactionDataset([{"b", "a"}, {"c", "a"}])
        vocab = Vocabulary(["z", "a"])
        encoded = EncodedDataset.from_dataset(dataset, vocab=vocab)
        assert encoded.vocab is vocab
        assert vocab.id_of("z") == 0 and vocab.id_of("a") == 1
        assert {vocab.decode(tid) for tid in encoded.records[0]} == {"a", "b"}

    @pytest.mark.parametrize("scenario", WORKLOAD_NAMES)
    def test_stream_identical_with_and_without_reuse(self, scenario):
        dataset = _scenario_dataset(scenario, seed=31)
        params = AnonymizationParams(k=4, m=2, max_cluster_size=12)
        stream = StreamParams(shards=3, max_records_in_memory=120)
        outputs = [
            ShardedPipeline(params, stream, window_engine=engine)
            .anonymize(dataset)
            .to_dict()
            # The pipeline hands its engine one Vocabulary per shard; the
            # second engine drops it and interns every window from scratch.
            for engine in (Disassociator(params), _FreshVocabularyEngine(params))
        ]
        assert outputs[0] == outputs[1]

    def test_engine_reuses_vocabulary_across_calls(self):
        dataset = _scenario_dataset("quest", seed=8)
        vocab = Vocabulary()
        engine = Disassociator(
            AnonymizationParams(k=4, m=2, max_cluster_size=12), vocabulary=vocab
        )
        baseline = Disassociator(AnonymizationParams(k=4, m=2, max_cluster_size=12))
        first = engine.anonymize(dataset).to_dict()
        grown = len(vocab)
        assert grown > 0
        second = engine.anonymize(dataset).to_dict()
        assert len(vocab) == grown  # append-only: nothing re-interned
        assert first == second == baseline.anonymize(dataset).to_dict()


# --------------------------------------------------------------------------- #
# SubrecordArena
# --------------------------------------------------------------------------- #
class TestSubrecordArena:
    def test_interning_is_canonical(self):
        arena = SubrecordArena()
        first = arena.intern(("a", "b"))
        again = arena.intern(frozenset(("b", "a")))
        assert first == again
        assert len(arena) == 1
        assert arena.subrecord(first) == frozenset(("a", "b"))
        assert arena.id_of(("a", "b")) == first
        assert arena.id_of(("z",)) is None

    def test_subrecords_for_matches_projection(self):
        rng = random.Random(17)
        arena = SubrecordArena()
        for _ in range(50):
            rows = rng.randint(1, 40)
            terms = [f"t{i}" for i in range(rng.randint(1, 6))]
            term_masks = []
            row_sets: list[set] = [set() for _ in range(rows)]
            for term in terms:
                mask = 0
                for row in range(rows):
                    if rng.random() < 0.5:
                        mask |= 1 << row
                        row_sets[row].add(term)
                if mask:
                    term_masks.append((term, mask))
            or_mask = 0
            for _term, mask in term_masks:
                or_mask |= mask
            covered = [row for row in range(rows) if row_sets[row]]
            expected = [frozenset(row_sets[row]) for row in covered]
            got = arena.subrecords_for(term_masks, or_mask, len(covered))
            assert got == expected

    def test_subrecords_for_shares_instances(self):
        arena = SubrecordArena()
        # Three rows, all with the identical pattern {x, y}.
        term_masks = [("x", 0b111), ("y", 0b111)]
        subs = arena.subrecords_for(term_masks, 0b111, 3)
        assert len(subs) == 3
        assert subs[0] is subs[1] is subs[2]
        # The same pattern from a later call resolves to the same instance.
        again = arena.subrecords_for(term_masks, 0b111, 3)
        assert again[0] is subs[0]

    def test_vocabulary_arena_is_lazy_and_stable(self):
        vocab = Vocabulary()
        arena = vocab.subrecord_arena()
        assert isinstance(arena, SubrecordArena)
        assert vocab.subrecord_arena() is arena
