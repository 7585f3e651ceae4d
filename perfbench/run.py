"""One benchmark of the system through its user entry points.

Run one workload (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-stream-100k --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs the same workload with span wrappers installed in the process
under test and reports the per-layer metrics instead.  Human-readable
detail goes first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every correctness check passed, 1 when one failed, 2 on a usage or
environment error.

Other modes::

    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --steadiness 10 --workload delta-query-100k --seconds 12 --report out.json
    python3 perfbench/run.py --compare before.json after.json
    python3 perfbench/run.py --describe

``--steadiness N`` repeats a workload on seeds 1..N in fresh processes,
reports each metric's median and quartiles, then reruns the held-out seed
(:data:`HELD_OUT_SEED`, never used for tuning) once.  ``--compare`` checks a
steadiness report against another, refusing reports taken under different
host fingerprints.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from benchstats import FingerprintMismatch, check_comparable, fingerprint, spread
from layers import PER_LAYER, breakdown, per_layer
from workloads import END_TO_END, WORKLOADS, Context, DigestLedger

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Seed reserved for confirming a claimed change; never tune against it.
HELD_OUT_SEED = 904_117

#: Each end-to-end metric's bound, the share of the parent's median by
#: which it may worsen before a change counts as a regression.
with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _handle:
    BOUNDS = {entry["name"]: entry["bound"] for entry in json.load(_handle)["end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process; returns the result object."""
    runner, main_kind, read_kind = WORKLOADS[name]
    state = ROOT / ".bench_work"
    work = state / f"{name}-{seed}-{'trace' if trace else 'timed'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = DigestLedger(state / "digests.json", ROOT / "src")
    ctx = Context(root=ROOT, seed=seed, seconds=seconds, trace=trace, work=work)
    try:
        outcome = runner(ctx, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ledger.save()

    if trace:
        metrics = per_layer(outcome.trace, outcome.ops, main_kind, read_kind, outcome.stats)
        units = {metric: unit for metric, unit, _better, _moves in PER_LAYER}
    else:
        metrics = outcome.metrics
        units = {metric: unit for metric, unit, _better in END_TO_END}
    print(f"workload {name} seed {seed}: {outcome.attempted} operations, {outcome.failed} failed")
    print(f"  error_rate {outcome.failed / max(1, outcome.attempted):.4f}")
    for key, value in sorted(outcome.details.items()):
        print(f"  {key} {value}")
    for ok, what in outcome.checks:
        if not ok:
            print(f"  CHECK FAILED: {what}")
    for metric, value in metrics.items():
        print(f"  {metric:36s} {value:14.6g} {units[metric]}")
    if trace:
        _print_breakdown(outcome, main_kind)
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()},
    }


def _print_breakdown(outcome, main_kind: str) -> None:
    """Where the median traced operation's time went, layer by layer."""
    if outcome.trace["missing"]:
        print(f"  tracing gaps (entry point absent or hook failed): {sorted(set(outcome.trace['missing']))}")
    traced = sorted(
        (op for op in outcome.ops if op["kind"] == main_kind and op["traced"]),
        key=lambda op: op["end"] - op["start"],
    )
    if not traced:
        return
    op = traced[len(traced) // 2]
    wall = op["end"] - op["start"]
    print(f"  breakdown of {op['id']} ({wall:.3f} s wall, self time per span):")
    attributed = 0.0
    for span, seconds in breakdown(outcome.trace, op["id"]):
        attributed += seconds
        print(f"    {span:28s} {seconds:9.4f} s {100 * seconds / wall:5.1f}%")
    print(f"    {'(unattributed)':28s} {wall - attributed:9.4f} s {100 * (wall - attributed) / wall:5.1f}%")


def steadiness(name: str, runs: int, seconds: float, trace: bool, report: str) -> int:
    """Repeat one workload on seeds 1..runs, then once on the held-out seed."""
    results = []
    for seed in list(range(1, runs + 1)) + [HELD_OUT_SEED]:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0",
        ]  # fmt: skip
        start = time.monotonic()
        proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"seed {seed} failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["seed"], result["wall_s"] = seed, time.monotonic() - start
        results.append(result)
        print(f"seed {seed}: {result['wall_s']:.1f} s", file=sys.stderr)
    tuned, held_out = results[:-1], results[-1]
    summary = {}
    print(f"{name}: {runs} runs of {seconds} s (IQR share = (q3 - q1) / median)")
    for metric, entry in tuned[0]["metrics"].items():
        values = [result["metrics"][metric]["value"] for result in tuned]
        stats = spread(values)
        stats["held_out"] = held_out["metrics"][metric]["value"]
        stats["unit"] = entry["unit"]
        summary[metric] = stats
        bound = BOUNDS.get(metric)
        flag = "" if bound is None or stats["iqr_share"] < bound / 3 else "  <-- spread >= bound/3"
        print(
            f"  {metric:34s} median {stats['median']:11.5g}  q1 {stats['q1']:11.5g}  "
            f"q3 {stats['q3']:11.5g}  iqr {100 * stats['iqr_share']:5.1f}%  "
            f"held-out {stats['held_out']:11.5g} {entry['unit']}{flag}"
        )
    if report:
        payload = {
            "workload": name,
            "seconds": seconds,
            "trace": trace,
            "fingerprint": fingerprint(str(ROOT / "src")),
            "metrics": summary,
            "runs": results,
        }
        Path(report).write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return 0 if all(result["correct"] for result in results) else 1


def compare(before_path: str, after_path: str) -> int:
    """Median change per metric between two steadiness reports of one workload."""
    before = json.loads(Path(before_path).read_text(encoding="utf-8"))
    after = json.loads(Path(after_path).read_text(encoding="utf-8"))
    try:
        check_comparable(before["fingerprint"], after["fingerprint"])
    except FingerprintMismatch as exc:
        print(f"refusing to compare: {exc}", file=sys.stderr)
        return 2
    if (before["workload"], before["seconds"]) != (after["workload"], after["seconds"]):
        print("refusing to compare: different workload or run length", file=sys.stderr)
        return 2
    worse = 0
    better_of = {metric: better for metric, _unit, better in END_TO_END}
    for metric, old in before["metrics"].items():
        new = after["metrics"].get(metric)
        if new is None or not old["median"]:
            continue
        change = (new["median"] - old["median"]) / abs(old["median"])
        if better_of.get(metric) == "higher":
            change = -change
        bound = BOUNDS.get(metric)
        verdict = ""
        if bound is not None and change > bound:
            verdict, worse = "  WORSE beyond bound", worse + 1
        print(f"  {metric:34s} {old['median']:11.5g} -> {new['median']:11.5g}  worse by {100 * change:+6.1f}%{verdict}")
    return 1 if worse else 0


def describe() -> None:
    """Print the metric registry: every metric, its unit and what it should move."""
    payload = {
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": BOUNDS.get(n)} for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b, "moves": m} for n, u, b, m in PER_LAYER],
        "workloads": sorted(WORKLOADS),
        "held_out_seed": HELD_OUT_SEED,
    }
    print(json.dumps(payload, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N")
    parser.add_argument("--report", default=None, help="steadiness: write the summary JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)

    if args.describe:
        describe()
        return 0
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.steadiness:
        return steadiness(args.workload, args.steadiness, args.seconds, bool(args.trace), args.report)

    print(f"fingerprint {json.dumps(fingerprint(str(ROOT / 'src')), sort_keys=True)}")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        correct = correct and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
