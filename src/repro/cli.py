"""Command-line interface: ``repro`` (alias ``repro-anon``).

Sub-commands:

* ``anonymize``   -- disassociate a dataset file (transactions or JSONL) and
  write the published JSON (clusters, chunks, parameters).  With
  ``--stream`` the file is processed by the sharded streaming pipeline
  under a bounded memory budget (``--shards``,
  ``--max-records-in-memory``).  With ``--store-dir`` the run is a
  *delta* of a persistent incremental store: the input (or ``--append``)
  is appended, ``--delete`` records are removed, only the changed
  windows are re-anonymized, and the written publication is bit-for-bit
  what a cold run over the mutated dataset would produce.
* ``reconstruct`` -- sample a reconstructed dataset from a published JSON.
* ``evaluate``    -- compute the paper's information-loss metrics between an
  original transaction file and a published JSON.
* ``generate``    -- produce a synthetic dataset (Quest model, Zipf basket,
  click-stream, or a POS/WV1/WV2 proxy) as a transaction file.
* ``audit``       -- independently re-check the k^m-anonymity of a published
  JSON.
* ``query``       -- answer one analysis query (``top_terms``,
  ``cooccurrence_count``, ``frequent_pairs``, ``expected_support``, ...)
  from an indexed :class:`~repro.pubstore.PublicationStore` directory
  (``--store``) or, identically, from a published JSON (``--publication``).
* ``serve``       -- run the HTTP front door: a long-lived multi-worker
  :class:`~repro.service.AnonymizationService` behind ``POST /anonymize``,
  ``GET /jobs/<id>``, ``GET /stats``, ``GET /healthz`` and (with
  ``--pubstore-dir``) ``GET`` / ``POST /query`` (see
  ``docs/OPERATIONS.md`` for deployment guidance).

Examples::

    repro generate --profile POS --scale 0.01 --output pos.txt
    repro anonymize pos.txt --k 5 --m 2 --output pos.published.json
    repro anonymize huge.jsonl --stream --shards 8 \\
        --max-records-in-memory 20000 --output huge.published.json
    repro anonymize day1.txt --store-dir ./store --output pub.json
    repro anonymize day2.txt --store-dir ./store --delete churned.txt \\
        --output pub.json
    repro anonymize pos.txt --k 5 --m 2 --output pub.json --pubstore-dir ./pub
    repro query top_terms --store ./pub --count 10
    repro query expected_support --store ./pub --terms beer diapers
    repro evaluate pos.txt pos.published.json
    repro reconstruct pos.published.json --seed 3 --output world.txt
    repro serve --port 8350 --workers 2 --max-pending 64
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.core.reconstruct import Reconstructor
from repro.core.verification import audit
from repro.datasets.io import (
    read_disassociated_json,
    read_records,
    write_transactions,
)
from repro.datasets.real_proxies import available_datasets
from repro.datasets.scenarios import SCENARIOS
from repro.exceptions import ReproError
from repro.pubstore import QUERY_OPS
from repro.service import AnonymizationRequest, AnonymizationService, ServiceConfig
from repro.service.http import DEFAULT_HOST, DEFAULT_PORT, ServiceHTTPServer
from repro.stream import DEFAULT_MAX_RECORDS_IN_MEMORY, DEFAULT_SHARDS, STRATEGIES


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-anon",
        description="Disassociation-based k^m-anonymization for set-valued data",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    anonymize = subparsers.add_parser("anonymize", help="disassociate a dataset file")
    anonymize.add_argument(
        "input",
        nargs="?",
        default=None,
        help="dataset file (transactions or .jsonl, sniffed from extension); "
        "with --store-dir it holds the records to append, and may be "
        "omitted for a delete-only or no-op delta",
    )
    anonymize.add_argument("--output", required=True, help="published JSON path")
    anonymize.add_argument("--k", type=int, default=5)
    anonymize.add_argument("--m", type=int, default=2)
    anonymize.add_argument("--max-cluster-size", type=int, default=30)
    anonymize.add_argument("--no-refine", action="store_true", help="skip the REFINE step")
    anonymize.add_argument(
        "--stream",
        action="store_true",
        help="sharded streaming mode: bounded-memory anonymization of files "
        "too large for one pass, with a global cross-shard verification pass",
    )
    anonymize.add_argument(
        "--shards",
        type=int,
        default=DEFAULT_SHARDS,
        help=f"number of shards in --stream mode (default {DEFAULT_SHARDS})",
    )
    anonymize.add_argument(
        "--max-records-in-memory",
        type=int,
        default=DEFAULT_MAX_RECORDS_IN_MEMORY,
        help="bound on resident records in --stream mode: the planner "
        "sample and every per-shard window stay under this "
        f"(default {DEFAULT_MAX_RECORDS_IN_MEMORY})",
    )
    anonymize.add_argument(
        "--shard-strategy",
        choices=list(STRATEGIES),
        default="hash",
        help="record routing: 'hash' (balanced, data-oblivious) or 'horpart' "
        "(groups similar records per shard for better utility)",
    )
    anonymize.add_argument(
        "--spill-dir",
        default=None,
        help="where --stream creates its throwaway shard store of records, "
        "window snapshots and products (~26 MB per 100k records; default: the "
        "system temporary directory); removed after the run -- to make a run "
        "recoverable, use --store-dir with --delta-id",
    )
    anonymize.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="abort the run with an error if it exceeds this many seconds "
        "(checked at pipeline phase boundaries)",
    )
    anonymize.add_argument(
        "--store-dir",
        default=None,
        help="persistent incremental store directory: the run becomes a "
        "delta of the store (appending the input and/or applying "
        "--delete) and writes the full publication of the mutated "
        "dataset, bit-for-bit what a cold run over it would produce",
    )
    anonymize.add_argument(
        "--append",
        default=None,
        metavar="FILE",
        help="records to append to the store (alternative to the input "
        "positional; requires --store-dir)",
    )
    anonymize.add_argument(
        "--delete",
        default=None,
        metavar="FILE",
        help="records to delete from the store (earliest surviving "
        "occurrence of each; requires --store-dir)",
    )
    anonymize.add_argument(
        "--delta-id",
        default=None,
        metavar="TOKEN",
        help="idempotency token for the --store-dir delta: the store "
        "commits a mutation at most once per token, so re-running a "
        "crashed delta with the same --delta-id can never apply it "
        "twice (requires --store-dir; pick a fresh token per logical "
        "delta)",
    )
    anonymize.add_argument(
        "--pubstore-dir",
        default=None,
        metavar="DIR",
        help="also persist the publication as an indexed query store "
        "there (see 'repro query'); with --store-dir the incremental "
        "pipeline keeps the store's indexes in sync on every delta",
    )

    reconstruct = subparsers.add_parser(
        "reconstruct", help="sample a reconstructed dataset from a published JSON"
    )
    reconstruct.add_argument("input", help="published JSON path")
    reconstruct.add_argument("--output", required=True, help="transaction file to write")
    reconstruct.add_argument("--seed", type=int, default=0)

    evaluate = subparsers.add_parser(
        "evaluate", help="information-loss metrics of a publication"
    )
    evaluate.add_argument("original", help="original transaction file")
    evaluate.add_argument("published", help="published JSON path")
    evaluate.add_argument("--top-k", type=int, default=100)
    evaluate.add_argument("--seed", type=int, default=0)

    generate = subparsers.add_parser("generate", help="generate a synthetic dataset")
    generate.add_argument("--output", required=True, help="transaction file to write")
    generate.add_argument(
        "--profile",
        choices=available_datasets() + ["QUEST"] + sorted(SCENARIOS),
        default="QUEST",
        help="real-dataset proxy profile, QUEST for the generic generator, "
        "or a synthetic scenario (ZIPF market basket, CLICKSTREAM sessions)",
    )
    generate.add_argument("--records", type=int, default=5000)
    generate.add_argument("--domain", type=int, default=1000)
    generate.add_argument("--avg-length", type=float, default=10.0)
    generate.add_argument("--scale", type=float, default=0.01, help="proxy scale factor")
    generate.add_argument("--seed", type=int, default=0)

    audit_cmd = subparsers.add_parser("audit", help="re-check a published JSON")
    audit_cmd.add_argument("input", help="published JSON path")

    query = subparsers.add_parser(
        "query", help="answer an analysis query from a publication store"
    )
    query.add_argument(
        "op",
        choices=list(QUERY_OPS),
        help="the query operation (see repro.pubstore.QueryEngine)",
    )
    query.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="publication store directory (indexed; built by "
        "--pubstore-dir or PublicationResult.save_store)",
    )
    query.add_argument(
        "--publication",
        default=None,
        metavar="FILE",
        help="published JSON to answer from in memory instead of a store "
        "(same answers, bit for bit; no index build needed)",
    )
    query.add_argument(
        "--terms", nargs="+", default=None, metavar="TERM", help="itemset terms"
    )
    query.add_argument(
        "--antecedent",
        nargs="+",
        default=None,
        metavar="TERM",
        help="rule antecedent terms (rule_confidence)",
    )
    query.add_argument(
        "--consequent",
        nargs="+",
        default=None,
        metavar="TERM",
        help="rule consequent terms (rule_confidence)",
    )
    query.add_argument(
        "--count", type=int, default=None, help="result count for top_terms"
    )
    query.add_argument(
        "--min-support",
        type=int,
        default=None,
        help="support threshold for frequent_pairs",
    )
    query.add_argument(
        "--reconstructions",
        type=int,
        default=None,
        help="reconstructed worlds to average (reconstructed_support)",
    )
    query.add_argument(
        "--seed",
        type=int,
        default=None,
        help="random seed for reconstructed_support",
    )

    serve = subparsers.add_parser(
        "serve", help="serve anonymization requests over HTTP (the front door)"
    )
    serve.add_argument("--host", default=DEFAULT_HOST, help="bind address")
    serve.add_argument(
        "--port", type=int, default=DEFAULT_PORT, help="bind port (0 picks a free one)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="service worker threads (each with its own warm engine); "
        "defaults to $REPRO_SERVICE_WORKERS, then 1",
    )
    serve.add_argument("--k", type=int, default=None)
    serve.add_argument("--m", type=int, default=None)
    serve.add_argument("--max-cluster-size", type=int, default=None)
    serve.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="job-queue bound; beyond it POST /anonymize answers 429",
    )
    serve.add_argument(
        "--pubstore-dir",
        default=None,
        metavar="DIR",
        help="publication store directory answering GET/POST /query "
        "(defaults to $REPRO_SERVICE_PUBSTORE_DIR)",
    )
    serve.add_argument(
        "--no-drain",
        action="store_true",
        help="on shutdown, cancel queued jobs instead of draining them",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log one line per HTTP request"
    )
    return parser


def _cmd_anonymize(args) -> int:
    # The CLI is a one-request caller of the same service facade that
    # long-lived deployments hold open; --stream simply forces the routing
    # the service would otherwise decide from input size.
    if args.store_dir is None:
        if args.append or args.delete:
            print(
                "error: --append/--delete mutate a persistent store and "
                "require --store-dir",
                file=sys.stderr,
            )
            return 2
        if args.delta_id:
            print(
                "error: --delta-id is the idempotency token of a store "
                "delta and requires --store-dir",
                file=sys.stderr,
            )
            return 2
        if args.input is None:
            print("error: an input dataset file is required", file=sys.stderr)
            return 2
    elif args.input is not None and args.append is not None:
        print(
            "error: give the records to append either as the input "
            "positional or as --append, not both",
            file=sys.stderr,
        )
        return 2
    config = ServiceConfig(
        k=args.k,
        m=args.m,
        max_cluster_size=args.max_cluster_size,
        refine=not args.no_refine,
        shards=args.shards,
        max_records_in_memory=args.max_records_in_memory,
        shard_strategy=args.shard_strategy,
        spill_dir=args.spill_dir,
        store_dir=args.store_dir,
        pubstore_dir=args.pubstore_dir,
    )
    if args.store_dir is not None:
        request = AnonymizationRequest(
            args.input if args.input is not None else args.append,
            mode="delta",
            deadline=args.deadline,
            delete=args.delete,
            delta_id=args.delta_id,
        )
    else:
        request = AnonymizationRequest(
            args.input,
            mode="stream" if args.stream else "batch",
            deadline=args.deadline,
        )
    with AnonymizationService(config) as service:
        result = service.run(request)
    result.save(args.output)
    if args.pubstore_dir is not None and args.store_dir is None:
        # Delta runs already refreshed the store inside the pipeline
        # (generation-stamped); batch/stream runs persist it here.
        result.save_store(args.pubstore_dir).close()
    print(result.summary())
    return 0


def _cmd_reconstruct(args) -> int:
    published = read_disassociated_json(args.input)
    world = Reconstructor(published, seed=args.seed).reconstruct()
    write_transactions(world, args.output)
    print(f"wrote {len(world)} reconstructed records to {args.output}")
    return 0


def _cmd_evaluate(args) -> int:
    from repro.experiments.harness import ExperimentConfig, evaluate as evaluate_metrics

    original = read_records(args.original)
    published = read_disassociated_json(args.published)
    config = ExperimentConfig(
        k=published.k, m=published.m, top_k=args.top_k, seed=args.seed
    )
    metrics = evaluate_metrics(original, published, config)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def _cmd_generate(args) -> int:
    # The generators need numpy, which no other command loads.
    from repro.datasets.quest import generate_quest
    from repro.datasets.real_proxies import load_proxy

    if args.profile == "QUEST":
        dataset = generate_quest(
            num_transactions=args.records,
            domain_size=args.domain,
            avg_transaction_size=args.avg_length,
            seed=args.seed,
        )
    elif args.profile == "ZIPF":
        dataset = SCENARIOS["ZIPF"](
            num_transactions=args.records,
            domain_size=args.domain,
            avg_basket_size=args.avg_length,
            seed=args.seed,
        )
    elif args.profile == "CLICKSTREAM":
        dataset = SCENARIOS["CLICKSTREAM"](
            num_sessions=args.records,
            num_pages=args.domain,
            avg_session_length=args.avg_length,
            seed=args.seed,
        )
    else:
        dataset = load_proxy(args.profile, scale=args.scale, seed=args.seed)
    write_transactions(dataset, args.output)
    stats = dataset.stats()
    print(f"wrote {stats.num_records} records ({stats.as_row()}) to {args.output}")
    return 0


def _cmd_audit(args) -> int:
    published = read_disassociated_json(args.input)
    report = audit(published)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_query(args) -> int:
    from repro.pubstore import PublicationStore, QueryEngine

    if (args.store is None) == (args.publication is None):
        print(
            "error: give exactly one source: --store DIR (indexed) or "
            "--publication FILE (in-memory)",
            file=sys.stderr,
        )
        return 2
    params = {
        name: value
        for name, value in [
            ("terms", args.terms),
            ("antecedent", args.antecedent),
            ("consequent", args.consequent),
            ("count", args.count),
            ("min_support", args.min_support),
            ("reconstructions", args.reconstructions),
        ]
        if value is not None
    }
    if args.store is not None:
        with PublicationStore.reader(args.store) as store, store.read_transaction():
            payload = QueryEngine(store, seed=args.seed).execute(args.op, params)
    else:
        published = read_disassociated_json(args.publication)
        payload = QueryEngine(published, seed=args.seed).execute(args.op, params)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _serve_config(args) -> ServiceConfig:
    # Environment first (REPRO_SERVICE_*), explicit flags override: the
    # same precedence every 12-factor deployment expects.
    config = ServiceConfig.from_env()
    overrides = {
        name: value
        for name, value in [
            ("workers", args.workers),
            ("k", args.k),
            ("m", args.m),
            ("max_cluster_size", args.max_cluster_size),
            ("max_pending", args.max_pending),
            ("pubstore_dir", args.pubstore_dir),
        ]
        if value is not None
    }
    return config.with_overrides(**overrides) if overrides else config


def _cmd_serve(args) -> int:
    config = _serve_config(args)
    drain = not args.no_drain
    service = AnonymizationService(config)
    server = ServiceHTTPServer(
        service, args.host, args.port, quiet=not args.verbose
    )
    print(
        f"repro serve: listening on {server.url} "
        f"(workers={config.workers}, "
        f"max_pending={config.max_pending}, k={config.k}, m={config.m})"
    )
    endpoints = "POST /anonymize, GET /jobs/<id>, GET /stats, GET /healthz"
    if config.pubstore_dir is not None:
        endpoints += ", GET/POST /query"
    print(f"endpoints: {endpoints}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print(f"\nshutting down ({'draining' if drain else 'cancelling'} queued jobs)")
    finally:
        server.close(drain=drain)
    return 0


_COMMANDS = {
    "anonymize": _cmd_anonymize,
    "reconstruct": _cmd_reconstruct,
    "evaluate": _cmd_evaluate,
    "generate": _cmd_generate,
    "audit": _cmd_audit,
    "query": _cmd_query,
    "serve": _cmd_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-anon`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
