"""The workloads, each driving the program only through its entry points.

* ``cold-stream-100k`` -- the ``repro anonymize --stream`` CLI, cold;
* ``delta-query-100k`` -- one store-backed server taking 1% deltas, each
  followed by a batch of ``/query`` reads.

Each workload returns a :class:`Outcome`: its operation log, the
end-to-end metrics, the correctness verdict and, on traced runs, the spans
recorded inside the process under test.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import benchtrace
from benchstats import percentile
from questgen import quest_records, top_terms

HERE = Path(__file__).resolve().parent

#: The paper's default configuration, used by every workload.
PARAMS = {"k": 5, "m": 2, "max_cluster_size": 30}
STREAM = {"shards": 4, "max_records_in_memory": 2500}

#: End-to-end metrics: (name, unit, better).  Every workload reports all of
#: them, measured with tracing off; "the operation" is the workload's
#: write (a CLI run, a delta) and "a read" its read-only request
#: (``repro audit``, POST /query).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("cpu_s_per_op", "s", "lower"),
    ("op_latency_p50_s", "s", "lower"),
    ("records_per_s", "1/s", "higher"),
    ("read_latency_p50_s", "s", "lower"),
)


@dataclass
class Context:
    """Where and how one run executes."""

    root: Path
    seed: int
    seconds: float
    trace: bool
    work: Path

    @property
    def src(self) -> str:
        return str(self.root / "src")

    def env(self, **extra) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([self.src, str(HERE)])
        env.update(extra)
        return env


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    ops: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    trace: dict = field(default_factory=lambda: {"spans": [], "gens": [], "missing": []})
    stats: dict = None
    details: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        self.checks.append((bool(ok), what))
        return bool(ok)

    def add_trace(self, path: Path) -> None:
        if path.exists():
            payload = json.loads(path.read_text(encoding="utf-8"))
            for key in ("spans", "gens", "missing"):
                self.trace[key].extend(payload[key])

    @property
    def correct(self) -> bool:
        return all(ok for ok, _ in self.checks)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op["ok"])


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def publication_digest(publication: dict) -> str:
    """Digest of a publication's canonical JSON form."""
    canonical = json.dumps(publication, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class DigestLedger:
    """Publication digests of earlier runs in this checkout, keyed by input and code.

    A seed that comes back under the same benchmark and program sources
    must publish the same bytes; a mismatch is a correctness failure, not
    noise.  The first digest stored for a key stays: a run that disagrees
    with it fails and does not become the new baseline.
    """

    def __init__(self, path: Path, src: Path):
        self.path = path
        self.known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        self.seen: dict = {}
        # Keys carry the workload definition and the program's sources, so
        # only runs of the same code are compared: editing either must not
        # read as a changed output.
        version = hashlib.sha256()
        for name in ("workloads.py", "questgen.py"):
            version.update((HERE / name).read_bytes())
        for source in sorted(src.rglob("*.py")):
            version.update(source.relative_to(src).as_posix().encode("utf-8"))
            version.update(source.read_bytes())
        self.version = version.hexdigest()[:16]

    def agrees(self, key: str, digest: str) -> bool:
        key = f"{self.version}:{key}"
        self.seen.setdefault(key, digest)
        return self.known.get(key, digest) == digest

    def save(self) -> None:
        for key, digest in self.seen.items():
            self.known.setdefault(key, digest)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True), encoding="utf-8")
        tmp.replace(self.path)


def _proc_stat_cpu(pid: int) -> float:
    """User+system CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields_ = handle.read().rsplit(")", 1)[1].split()
    return (int(fields_[11]) + int(fields_[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Server:
    """A ``server_child.py`` process: the HTTP front door under test."""

    def __init__(self, ctx: Context, config: dict, trace_out: Path = None):
        self.ctx, self.config, self.trace_out = ctx, config, trace_out
        self.proc = None
        self.port = None

    def start(self) -> float:
        """Spawn and wait until ``/healthz`` answers; returns the seconds taken."""
        start = time.monotonic()
        command = [sys.executable, str(HERE / "server_child.py"), "--config", json.dumps(self.config)]
        if self.trace_out is not None:
            command += ["--trace-out", str(self.trace_out)]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.ctx.env(), text=True
        )
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server process exited before listening")
        self.port = json.loads(line)["port"]
        client = Client(self.port)
        try:
            status, _ = client.call("GET", "/healthz")
        finally:
            client.close()
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        return time.monotonic() - start

    def cpu_seconds(self) -> float:
        return _proc_stat_cpu(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return _proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Close stdin (the stop signal) and wait for the drain to finish."""
        if self.proc is None:
            return
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self.proc = None


class Client:
    """One keep-alive HTTP/1.1 connection of the load generator."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=170)

    def call(self, method: str, path: str, body: bytes = None, headers: dict = None):
        """``(status, body bytes)``; the connection is kept open."""
        self.conn.request(method, path, body=body, headers=headers or {})
        response = self.conn.getresponse()
        return response.status, response.read()

    def timed(self, ops: list, kind: str, op_id: str, traced: bool, method: str, path: str, body=None):
        """Issue one request as operation ``op_id``; appends its record to ``ops``."""
        headers = {benchtrace.OP_HEADER: op_id, benchtrace.TRACE_HEADER: "1" if traced else "0"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        start = time.monotonic()
        status, data = self.call(method, path, body, headers)
        end = time.monotonic()
        op = {
            "id": op_id,
            "kind": kind,
            "start": start,
            "end": end,
            "traced": traced,
            "ok": status == 200,
            "status": status,
            "bytes": len(data),
        }
        ops.append(op)
        return op, data

    def close(self) -> None:
        self.conn.close()


def _abba(index: int) -> bool:
    """Traced/untraced order A B B A, so each half sees both kinds of operation."""
    return index % 4 in (0, 3)


def _latency(ops, kind) -> list:
    return [op["end"] - op["start"] for op in ops if op["kind"] == kind and op["ok"]]


def _latency_metrics(outcome: Outcome, prefix: str, values: list) -> None:
    """Median (a bounded metric); p90 with its sample count (detail lines)."""
    p90 = percentile(values, 90)
    outcome.metrics[f"{prefix}_p50_s"] = median(values)
    outcome.details[f"{prefix}_p90_s"] = p90["value"]
    outcome.details[f"{prefix}_samples"] = p90["samples"]
    outcome.details[f"{prefix}_p90_beyond"] = p90["beyond"]
    if len(values) <= 8:
        outcome.details[f"{prefix}_values"] = [round(value, 4) for value in values]


def _audit(published, records: int) -> bool:
    """Independent k^m audit at the workload's k=5, m=2 plus a record count."""
    from repro.core.verification import audit

    return audit(published, k=PARAMS["k"], m=PARAMS["m"]).ok and published.total_records() == records


def _load(publication: dict):
    from repro.core.clusters import DisassociatedDataset

    return DisassociatedDataset.from_dict(publication)


def _spawn_wait(command, env):
    """Run a child to completion: ``(exit code, wall seconds, rusage, start)``."""
    start = time.monotonic()
    proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, end - start, usage, start


# --------------------------------------------------------------------------- #
# cold-stream-100k
# --------------------------------------------------------------------------- #
COLD_RECORDS = 100_000
#: Set-up is the CLI's start-up (interpreter plus the program's imports,
#: spawn to exit of ``repro --help``), which every cold run pays.  It is
#: sub-second: repeat it and report the median.
SETUP_REPEATS = 5
#: The read (``repro audit``, ~2 s) is short enough for one host stall to
#: move it 30%; its median over five filters such stalls.
AUDITS_PER_RUN = 5


def cold_stream(ctx: Context, ledger: DigestLedger) -> Outcome:
    """The streaming CLI over 100k records, run cold, then ``repro audit`` on its output."""
    outcome = Outcome()
    records = quest_records(COLD_RECORDS, domain=1500, avg_length=6, seed=f"{ctx.seed}:cold")
    source = ctx.work / "input.jsonl"
    with source.open("w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(record) + "\n" for record in records)
    del records

    setups = [_spawn_wait([sys.executable, "-m", "repro.cli", "--help"], ctx.env()) for _ in range(SETUP_REPEATS)]
    outcome.check(all(code == 0 for code, *_ in setups), "repro --help exited 0")
    outcome.metrics["setup_s"] = median(wall for _code, wall, *_ in setups)

    digests, cpu, rss = set(), [], []
    window_start = time.monotonic()
    i = 0
    # A traced run needs one traced and one untraced run to price tracing.
    while i < (2 if ctx.trace else 1) or time.monotonic() - window_start < ctx.seconds:
        output = ctx.work / f"published-{i}.json"
        args = [
            "anonymize", str(source), "--stream",
            "--shards", str(STREAM["shards"]),
            "--max-records-in-memory", str(STREAM["max_records_in_memory"]),
            "--k", str(PARAMS["k"]), "--m", str(PARAMS["m"]),
            "--max-cluster-size", str(PARAMS["max_cluster_size"]),
            "--output", str(output),
        ]  # fmt: skip
        op_id = f"cli-{i}"
        traced = ctx.trace and _abba(i)
        if traced:
            command = [sys.executable, str(HERE / "cli_child.py"), *args]
            env = ctx.env(REPRO_BENCH_OP=op_id, REPRO_BENCH_TRACE_OUT=str(ctx.work / f"spans-{i}.json"))
        else:
            command, env = [sys.executable, "-m", "repro.cli", *args], ctx.env()
        code, wall, usage, start = _spawn_wait(command, env)
        size = output.stat().st_size if output.exists() else 0
        outcome.ops.append(
            {"id": op_id, "kind": "cli", "start": start, "end": start + wall, "traced": traced, "ok": code == 0, "bytes": size}
        )
        cpu.append(usage.ru_utime + usage.ru_stime)
        rss.append(usage.ru_maxrss / 1024.0)
        if traced:
            outcome.add_trace(ctx.work / f"spans-{i}.json")
        if code == 0:
            raw = output.read_bytes()
            digests.add(hashlib.sha256(raw).hexdigest())
            if i == 0:
                header = json.loads(raw)
                outcome.check(
                    header["k"] == PARAMS["k"] and header["m"] == PARAMS["m"], "publication declares k=5, m=2"
                )
            for a in range(AUDITS_PER_RUN):
                code, wall, _, start = _spawn_wait([sys.executable, "-m", "repro.cli", "audit", str(output)], ctx.env())
                outcome.ops.append(
                    {"id": f"audit-{i}-{a}", "kind": "audit", "start": start, "end": start + wall, "traced": False, "ok": code == 0}
                )
            output.unlink()
        i += 1

    latencies = _latency(outcome.ops, "cli")
    outcome.check(all(op["ok"] for op in outcome.ops), "every CLI run and audit exited 0")
    outcome.check(len(digests) == 1, "every run published the same bytes")
    if len(digests) == 1:
        key = f"cold-stream-100k:{ctx.seed}"
        outcome.check(ledger.agrees(key, next(iter(digests))), "same bytes as earlier runs")
    _latency_metrics(outcome, "op_latency", latencies or [0.0])
    _latency_metrics(outcome, "read_latency", _latency(outcome.ops, "audit") or [0.0])
    outcome.metrics["records_per_s"] = COLD_RECORDS / median(latencies) if latencies else 0.0
    outcome.metrics["cpu_s_per_op"] = median(cpu)
    outcome.metrics["peak_rss_mb"] = max(rss)
    outcome.details["runs"] = len(latencies)
    return outcome


# --------------------------------------------------------------------------- #
# delta-query-100k
# --------------------------------------------------------------------------- #
BASE_RECORDS = 100_000
DELTA_RECORDS = 1000
DELTA_DELETES = 100
QUERY_TERMS = 40
#: Timed deltas per run: two steady-state deltas after the warm-up.  A
#: third would steady the median further but costs ~13 s a run, which the
#: benchmark's time budget across all workloads cannot afford.
MIN_DELTAS = 2
#: Answers checked against the in-memory oracle, per query op (distinct
#: queries only; the oracle's ``frequent_pairs`` alone takes ~1.4 s).
CHECKED_PER_OP = 3
#: One batch of reads after every delta: (op, count).
QUERY_MIX = (
    ("cooccurrence_count", 20),
    ("lower_bound", 10),
    ("expected_support", 10),
    ("top_terms", 5),
    ("frequent_pairs", 5),
)


def _query_batch(rng: random.Random, terms: list) -> list:
    batch = []
    for op, count in QUERY_MIX:
        for _ in range(count):
            if op == "cooccurrence_count":
                params = {"terms": rng.sample(terms, rng.randint(1, 3))}
            elif op in ("lower_bound", "expected_support"):
                params = {"terms": rng.sample(terms, 2)}
            elif op == "top_terms":
                params = {"count": 10}
            else:
                params = {"min_support": 2000}
            batch.append({"op": op, **params})
    rng.shuffle(batch)
    return batch


class _Sequence:
    """The store's logical record sequence, mutated exactly like the store.

    Appends go to the end; a delete removes the earliest surviving
    occurrence of the record.
    """

    def __init__(self, records: list):
        self.records = list(records)
        self.counts: dict = {}
        for record in self.records:
            key = tuple(record)
            self.counts[key] = self.counts.get(key, 0) + 1

    def append(self, records: list) -> None:
        self.records.extend(records)
        for record in records:
            key = tuple(record)
            self.counts[key] = self.counts.get(key, 0) + 1

    def unique(self, record) -> bool:
        return self.counts.get(tuple(record), 0) == 1

    def delete(self, records: list) -> None:
        for record in records:
            self.records.remove(record)
            self.counts[tuple(record)] -= 1


def delta_query(ctx: Context, ledger: DigestLedger) -> Outcome:
    """100k-record store over HTTP; 1% deltas, each followed by a batch of queries."""
    outcome = Outcome()
    base = quest_records(BASE_RECORDS, domain=1500, avg_length=6, seed=f"{ctx.seed}:base")
    terms = top_terms(base, QUERY_TERMS)
    sequence = _Sequence(base)
    config = {
        **PARAMS,
        **STREAM,
        "store_dir": str(ctx.work / "store"),
        "pubstore_dir": str(ctx.work / "pubstore"),
    }
    server = Server(ctx, config, ctx.work / "spans.json" if ctx.trace else None)
    body = json.dumps({"mode": "delta", "records": base, "delta_id": "base"}).encode("utf-8")
    del base
    deltas, moved, last_publication, last_answers = 0, 0, None, []
    try:
        start = time.monotonic()
        server.start()
        client = Client(server.port)
        op, data = client.timed(outcome.ops, "load", "load", False, "POST", "/anonymize", body)
        outcome.metrics["setup_s"] = time.monotonic() - start
        del body
        outcome.check(op["ok"], "initial 100k load answered 200")

        recent = sequence.records[-DELTA_RECORDS:]

        def delta(kind: str, index, traced: bool):
            nonlocal recent
            append = quest_records(DELTA_RECORDS, domain=1500, avg_length=6, seed=f"{ctx.seed}:delta:{index}")
            # Deletes favour recent records: those of the previous append
            # (the tail of the load for the first delta), in tail windows.
            delete = [record for record in recent if sequence.unique(record)][:DELTA_DELETES]
            payload = {"mode": "delta", "records": append, "delete": delete, "delta_id": f"d{index}"}
            op, data = client.timed(
                outcome.ops, kind, f"{kind}-{index}", traced,
                "POST", "/anonymize", json.dumps(payload).encode("utf-8"),
            )  # fmt: skip
            sequence.delete(delete)
            sequence.append(append)
            recent = append
            return op, data, len(append) + len(delete)

        # The first delta after the load deletes from the load's tail and
        # recomputes more windows than the steady state; it is not timed.
        op, _, _ = delta("warmup", "w", False)
        outcome.check(op["ok"], "warm-up delta answered 200")

        rng = random.Random(f"{ctx.seed}:queries")
        cpu_start = server.cpu_seconds()
        window_start = time.monotonic()
        while deltas < MIN_DELTAS or time.monotonic() - window_start < ctx.seconds:
            op, data, count = delta("delta", deltas, ctx.trace and deltas % 2 == 0)
            moved += count
            if op["ok"]:
                last_publication = data
                outcome.check(
                    f" {len(sequence.records)} records over " in json.loads(data)["summary"],
                    f"delta {deltas} publishes {len(sequence.records)} records",
                )
            last_answers = []
            for q, query in enumerate(_query_batch(rng, terms)):
                op, data = client.timed(
                    outcome.ops, "query", f"query-{deltas}-{q}", ctx.trace and q % 2 == 0,
                    "POST", "/query", json.dumps(query).encode("utf-8"),
                )  # fmt: skip
                last_answers.append((query, json.loads(data) if op["ok"] else None))
            deltas += 1
        cpu = server.cpu_seconds() - cpu_start
        status, data = client.call("GET", "/stats")
        outcome.stats = json.loads(data) if status == 200 else None
        client.close()
        outcome.metrics["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        server.stop()
    outcome.add_trace(ctx.work / "spans.json")

    window_end = time.monotonic()
    delta_ops = [op for op in outcome.ops if op["kind"] == "delta" and op["ok"]]
    latencies = _latency(outcome.ops, "delta")
    _latency_metrics(outcome, "op_latency", latencies or [0.0])
    _latency_metrics(outcome, "read_latency", _latency(outcome.ops, "query") or [0.0])
    outcome.metrics["records_per_s"] = moved / sum(latencies) if latencies else 0.0
    outcome.metrics["cpu_s_per_op"] = cpu / max(1, len(delta_ops))
    outcome.check(all(op["ok"] for op in outcome.ops), "every request answered 200")
    outcome.details["deltas"] = deltas

    # Outside the timed window: the last publication against the oracles.
    # The cold recompute runs in a child process while this one audits.
    if last_publication is not None:
        mutated = ctx.work / "mutated.jsonl"
        with mutated.open("w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(record) + "\n" for record in sequence.records)
        oracle = subprocess.Popen(
            [sys.executable, "-c", "import sys, workloads; print(workloads.cold_oracle_digest(sys.argv[1]))", str(mutated)],
            env=ctx.env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        publication = json.loads(last_publication)["publication"]
        del last_publication
        digest = publication_digest(publication)
        published = _load(publication)
        del publication
        outcome.check(_audit(published, len(sequence.records)), "final publication: audit(k=5, m=2)")
        from repro.pubstore import QueryEngine

        engine = QueryEngine(published)
        checked: dict = {}
        for query, answer in last_answers:
            text = json.dumps(query, sort_keys=True)
            seen = checked.setdefault(query["op"], set())
            if text in seen or len(seen) >= CHECKED_PER_OP:
                continue
            seen.add(text)
            params = {key: value for key, value in query.items() if key != "op"}
            expected = engine.execute(query["op"], params)["result"]
            outcome.check(answer is not None and answer["result"] == expected, f"/query {query} == QueryEngine")
        del engine, published
        expected, _ = oracle.communicate(timeout=170)
        outcome.check(digest == expected.strip(), "final publication == cold ShardedPipeline")
        outcome.check(ledger.agrees(f"delta-query-100k:{ctx.seed}:{deltas}", digest), "same bytes as earlier runs")
    outcome.details["checks_s"] = round(time.monotonic() - window_end, 2)
    return outcome


def cold_oracle_digest(path: str) -> str:
    """Digest of a cold ``ShardedPipeline`` run over the records in a JSONL file."""
    from repro.core.engine import AnonymizationParams
    from repro.stream import ShardedPipeline, StreamParams

    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    published = ShardedPipeline(AnonymizationParams(**PARAMS), StreamParams(**STREAM)).run(iter(records))
    return publication_digest(published.to_dict())


#: Workload name -> (runner, kind of its main operation, kind of its read).
WORKLOADS = {
    "cold-stream-100k": (cold_stream, "cli", None),
    "delta-query-100k": (delta_query, "delta", "query"),
}
