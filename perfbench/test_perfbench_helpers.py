"""Self-tests of the benchmark's own helpers (no program under test needed).

Run with ``python -m pytest perfbench -q`` from the root of the checkout.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchstats import FingerprintMismatch, check_comparable, percentile, spread  # noqa: E402
from benchtrace import Recorder, _TimedIterator  # noqa: E402
from layers import PER_LAYER, per_layer, self_times, union_length  # noqa: E402
from questgen import quest_records  # noqa: E402
from workloads import DigestLedger  # noqa: E402


# -- percentile with its sample count --------------------------------------- #
def test_percentile_reports_rank_and_samples_beyond():
    values = list(range(1, 101))  # 1..100
    p90 = percentile(values, 90)
    assert p90 == {"value": 90, "samples": 100, "beyond": 10}
    assert percentile(values, 50) == {"value": 50, "samples": 100, "beyond": 50}


def test_percentile_of_small_sample_is_the_max_with_nothing_beyond():
    assert percentile([3.0, 1.0, 2.0], 90) == {"value": 3.0, "samples": 3, "beyond": 0}
    assert percentile([7.0], 50) == {"value": 7.0, "samples": 1, "beyond": 0}


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_spread_matches_statistics_quantiles():
    stats = spread([10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0])
    assert stats["median"] == 14.5
    assert stats["q1"] == pytest.approx(11.75)
    assert stats["q3"] == pytest.approx(17.25)
    assert stats["iqr_share"] == pytest.approx(5.5 / 14.5)


# -- self time --------------------------------------------------------------- #
def _span(span_id, parent, start, end, gen_s=0.0):
    return {"id": span_id, "parent": parent, "op": "op", "name": f"s{span_id}", "start": start,
            "end": end, "gen_s": gen_s, "attrs": {}}  # fmt: skip


def test_union_length_merges_overlaps_and_ignores_empty():
    assert union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4
    assert union_length([]) == 0


def test_self_time_subtracts_children_once_even_when_they_overlap():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),  # overlaps the next child (another thread)
        _span(3, 1, 3.0, 5.0),
        _span(4, 2, 1.5, 2.0),  # grandchild: charged to span 2 only
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0)
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[3] == pytest.approx(2.0)
    assert own[4] == pytest.approx(0.5)


def test_self_time_clips_children_to_the_parent_and_subtracts_generator_time():
    spans = [_span(1, None, 0.0, 4.0, gen_s=1.0), _span(2, 1, 3.0, 6.0)]
    assert self_times(spans)[1] == pytest.approx(4.0 - 1.0 - 1.0)


def test_recorder_nests_spans_per_thread_and_charges_generator_time():
    recorder = Recorder()

    def slow_items():
        for item in range(3):
            time.sleep(0.01)
            yield item

    def consume():
        entry = recorder.current()
        assert entry is not None
        return list(_TimedIterator(recorder, "io.read", slow_items(), entry["op"]))

    def outer():
        return recorder.call("inner", consume, (), {})

    assert recorder.call("outer", outer, (), {}, op="op-1") == [0, 1, 2]
    assert recorder.call("untraced", lambda: 5, (), {}) == 5  # no operation open
    by_name = {span["name"]: span for span in recorder.spans}
    assert set(by_name) == {"outer", "inner"}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["inner"]["gen_s"] >= 0.03
    assert recorder.gens[0]["items"] == 3
    assert self_times(recorder.spans)[by_name["inner"]["id"]] < by_name["inner"]["gen_s"]


def test_recorder_links_work_queued_for_another_thread():
    recorder = Recorder()
    key = object()
    seen = {}

    def handler():
        recorder.link(id(key))

        def worker():
            parent, _ = recorder._take_link(id(key))
            seen["parent"] = parent["id"]

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()

    recorder.call("http.request", handler, (), {}, op="op-2")
    assert seen["parent"] == recorder.spans[0]["id"]


def test_per_layer_reports_every_metric_and_the_tracing_overhead():
    spans = [
        {"id": 1, "parent": None, "op": "a", "name": "http.request", "start": 0.0, "end": 1.0, "gen_s": 0.0, "attrs": {}},
        {"id": 2, "parent": 1, "op": "a", "name": "engine.refine", "start": 0.2, "end": 0.8, "gen_s": 0.0, "attrs": {}},
    ]
    ops = [
        {"id": "a", "kind": "delta", "start": -0.1, "end": 1.0, "traced": True, "bytes": 10},
        {"id": "b", "kind": "delta", "start": 2.0, "end": 3.0, "traced": False, "bytes": 10},
    ]
    metrics = per_layer({"spans": spans, "gens": []}, ops, "delta")
    assert set(metrics) == {name for name, *_ in PER_LAYER}
    assert metrics["http.self_s"] == pytest.approx(0.4)
    assert metrics["engine.refine_s"] == pytest.approx(0.6)
    assert metrics["trace.overhead_s"] == pytest.approx(0.1)
    assert metrics["trace.unattributed_share"] == pytest.approx(0.1 / 1.1)
    assert metrics["store.open_s"] == 0.0  # a layer this workload never enters


# -- fingerprint refusal ----------------------------------------------------- #
HOST = {"nproc": 2, "python": "3.11.7", "implementation": "CPython", "numpy": "2.4.6", "kernels": "numpy"}


def test_same_fingerprint_is_comparable():
    check_comparable(HOST, dict(HOST))


@pytest.mark.parametrize("key, value", [("nproc", 1), ("numpy", None), ("kernels", "python"), ("python", "3.12.1")])
def test_different_fingerprint_is_refused(key, value):
    with pytest.raises(FingerprintMismatch, match=key):
        check_comparable(HOST, {**HOST, key: value})


# -- cross-run digest ledger -------------------------------------------------- #
def test_digest_ledger_keeps_the_first_digest_and_compares_only_the_same_program(tmp_path):
    src = tmp_path / "src"
    (src / "repro").mkdir(parents=True)
    module = src / "repro" / "mod.py"
    module.write_text("A = 1\n")
    path = tmp_path / "digests.json"

    first = DigestLedger(path, src)
    assert first.agrees("w:1", "aaa")
    first.save()
    second = DigestLedger(path, src)
    assert not second.agrees("w:1", "bbb")  # same code, other bytes: a failure
    second.save()
    third = DigestLedger(path, src)
    assert third.agrees("w:1", "aaa")  # the mismatch did not become the baseline
    assert not third.agrees("w:1", "bbb")

    module.write_text("A = 2\n")
    assert DigestLedger(path, src).agrees("w:1", "bbb")  # another program: not compared


# -- inputs ------------------------------------------------------------------ #
def test_inputs_are_fixed_by_the_seed():
    first = quest_records(300, domain=200, avg_length=6, seed="7:base")
    assert first == quest_records(300, domain=200, avg_length=6, seed="7:base")
    assert first != quest_records(300, domain=200, avg_length=6, seed="8:base")
    assert all(record == sorted(set(record)) and record for record in first)
