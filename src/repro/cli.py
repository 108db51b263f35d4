"""Command-line entry point.

``python -m repro <experiment>`` regenerates one of the paper's tables or
figures (``--scale paper`` for the paper's sizes); ``python -m repro plan``
is a deployment-planning helper: it compares every applicable mechanism on
your workload and reports the smallest privacy budget your population
supports; ``python -m repro protocol run`` executes a sharded collection
campaign through the streaming protocol engine and reports throughput and
accuracy; ``python -m repro strategy build|list|inspect|prune`` manages the
persistent strategy store (build = multi-restart optimization with
read-through caching; see docs/strategy-store.md); ``python -m repro
serve`` runs the always-on collection service, with ``repro report`` and
``repro query`` as its command-line client, and ``python -m repro edge``
runs an edge aggregator that folds reports near the clients and forwards
sealed partials to the root idempotently (see docs/serving.md).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

EXPERIMENTS = (
    "table1",
    "figure1",
    "figure2",
    "figure3a",
    "figure3b",
    "figure3c",
    "figure4",
)

#: Mechanisms offered by `plan` (strategy-matrix + additive families).
PLAN_MECHANISMS = (
    "Randomized Response",
    "Hadamard",
    "Hierarchical",
    "Fourier",
    "Matrix Mechanism (L1)",
    "Matrix Mechanism (L2)",
)


def build_parser() -> argparse.ArgumentParser:
    from repro._version import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce experiments from 'A workload-adaptive mechanism for "
            "linear queries under local differential privacy' (VLDB 2020)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subcommands = parser.add_subparsers(dest="command")

    run = subcommands.add_parser(
        "run", help="regenerate a paper table/figure"
    )
    run.add_argument("experiment", choices=EXPERIMENTS + ("all",))
    run.add_argument("--scale", choices=("ci", "paper"), default=None)

    plan = subcommands.add_parser(
        "plan", help="compare mechanisms and pick a privacy budget"
    )
    plan.add_argument(
        "--workload",
        default="Prefix",
        help="paper workload name (Histogram, Prefix, AllRange, "
        "AllMarginals, '3-Way Marginals', Parity)",
    )
    plan.add_argument("--domain", type=int, default=64, help="domain size n")
    plan.add_argument(
        "--users", type=float, default=100_000, help="population size N"
    )
    plan.add_argument(
        "--epsilon", type=float, default=1.0, help="candidate privacy budget"
    )
    plan.add_argument(
        "--alpha", type=float, default=0.01, help="normalized variance target"
    )
    plan.add_argument(
        "--iterations", type=int, default=500, help="optimizer iterations"
    )

    protocol = subcommands.add_parser(
        "protocol", help="run the shard-parallel protocol engine"
    )
    protocol_commands = protocol.add_subparsers(dest="protocol_command")
    protocol_run = protocol_commands.add_parser(
        "run", help="execute a sharded collection campaign"
    )
    protocol_run.add_argument(
        "--workload", default="Prefix", help="paper workload name"
    )
    protocol_run.add_argument("--domain", type=int, default=64, help="domain size n")
    protocol_run.add_argument(
        "--users", type=float, default=1_000_000, help="population size N"
    )
    protocol_run.add_argument(
        "--epsilon", type=float, default=1.0, help="privacy budget"
    )
    protocol_run.add_argument(
        "--mechanism",
        default="Hadamard",
        help="mechanism name (any strategy-matrix mechanism, or 'Optimized')",
    )
    protocol_run.add_argument(
        "--shards", type=int, default=1, help="number of population shards K"
    )
    protocol_run.add_argument(
        "--backend",
        choices=("serial", "thread"),
        default="serial",
        help="shard execution backend (thread: one thread per usable CPU)",
    )
    protocol_run.add_argument(
        "--seed", type=int, default=0, help="root seed (spawns one RNG per shard)"
    )
    protocol_run.add_argument(
        "--message-level",
        action="store_true",
        help="sample every user's report individually (fast=False path)",
    )
    protocol_run.add_argument(
        "--iterations", type=int, default=300, help="optimizer iterations"
    )
    protocol_run.add_argument(
        "--store",
        default=None,
        help="strategy-store directory; with --mechanism Optimized, "
        "strategies are read through (and written back to) the store",
    )

    strategy = subcommands.add_parser(
        "strategy", help="manage the persistent strategy store"
    )
    strategy_commands = strategy.add_subparsers(dest="strategy_command")

    build = strategy_commands.add_parser(
        "build",
        help="optimize a strategy (multi-restart) and persist it",
    )
    build.add_argument("--workload", default="Prefix", help="paper workload name")
    build.add_argument("--domain", type=int, default=64, help="domain size n")
    build.add_argument(
        "--epsilon", type=float, default=1.0, help="privacy budget"
    )
    build.add_argument(
        "--iterations", type=int, default=500, help="optimizer iterations"
    )
    build.add_argument("--seed", type=int, default=0, help="root restart seed")
    build.add_argument(
        "--restarts", type=int, default=1, help="best-of-K random restarts"
    )
    build.add_argument(
        "--num-outputs",
        type=int,
        default=None,
        help="strategy rows m (default 4n; dense mode only)",
    )
    build.add_argument(
        "--factored",
        action="store_true",
        help="Kronecker-factorized build over a product domain "
        "(per-attribute PGD; see docs/optimizer.md)",
    )
    build.add_argument(
        "--sizes",
        default=None,
        help="comma-separated attribute sizes of the product domain, e.g. "
        "64,64,16,16 (required with --factored; replaces --domain)",
    )
    build.add_argument(
        "--way",
        type=int,
        default=2,
        help="marginal order for the factored 'Marginals' workload",
    )
    build.add_argument(
        "--rounds",
        type=int,
        default=2,
        help="alternating-minimization passes (factored mode)",
    )
    build.add_argument("--store", default=None, help="store directory")

    listing = strategy_commands.add_parser(
        "list", help="list stored strategies"
    )
    listing.add_argument("--store", default=None, help="store directory")

    inspect = strategy_commands.add_parser(
        "inspect", help="show one entry's full provenance"
    )
    inspect.add_argument("entry", help="entry id (unique prefix accepted)")
    inspect.add_argument("--store", default=None, help="store directory")

    prune = strategy_commands.add_parser(
        "prune", help="evict least-recently-used entries"
    )
    prune.add_argument(
        "--keep", type=int, default=None, help="keep at most this many entries"
    )
    prune.add_argument(
        "--max-bytes", type=int, default=None, help="total payload byte budget"
    )
    prune.add_argument("--store", default=None, help="store directory")

    serve = subcommands.add_parser(
        "serve", help="run the always-on collection service"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8320, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for periodic atomic checkpoints (enables crash "
        "recovery; an existing checkpoint there is recovered on startup)",
    )
    serve.add_argument(
        "--checkpoint-interval",
        type=float,
        default=30.0,
        help="seconds between automatic checkpoints",
    )
    serve.add_argument(
        "--wal-dir",
        default=None,
        help="directory for the ingest write-ahead log (requires "
        "--checkpoint-dir): every accepted report is fsynced before its "
        "ack, checkpoints truncate the log, and recovery replays the "
        "suffix — a crash loses zero acked reports; with --workers it "
        "also enables self-healing worker supervision",
    )
    serve.add_argument(
        "--wal-segment-bytes",
        type=int,
        default=16 << 20,
        help="rotate WAL segments at this size",
    )
    serve.add_argument(
        "--worker-restart-limit",
        type=int,
        default=5,
        help="respawns allowed per supervised cluster worker before the "
        "pool degrades (only meaningful with --wal-dir and --workers)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="cluster worker processes K (0 = single-process service); "
        "report batches are dispatched across the workers and folds "
        "merge bit-identically to a serial pass",
    )
    serve.add_argument(
        "--transport",
        choices=("json", "binary", "both"),
        default="both",
        help="accepted ingest wire format(s) on /v1/report(s)",
    )
    serve.add_argument(
        "--store",
        default=None,
        help="strategy-store directory for mechanism 'store'/'Optimized' "
        "campaigns",
    )
    serve.add_argument(
        "--campaign",
        default=None,
        help="bootstrap one campaign at startup (skipped if it was "
        "recovered from a checkpoint)",
    )
    serve.add_argument("--workload", default="Histogram", help="paper workload")
    serve.add_argument("--domain", type=int, default=64, help="domain size n")
    serve.add_argument(
        "--epsilon", type=float, default=1.0, help="privacy budget"
    )
    serve.add_argument(
        "--mechanism",
        default="Hadamard",
        help="strategy source: a mechanism name, 'Optimized', or 'store'",
    )
    serve.add_argument(
        "--iterations", type=int, default=300, help="optimizer iterations"
    )
    serve.add_argument(
        "--log-format",
        choices=("text", "json"),
        default="text",
        help="structured log format on stderr (json = one object per line, "
        "trace-id correlated)",
    )
    serve.add_argument(
        "--no-tracing",
        action="store_true",
        help="disable span tracing (tracing is on by default; it never "
        "changes estimates either way)",
    )

    edge = subcommands.add_parser(
        "edge",
        help="run an edge aggregator: fold client reports locally, forward "
        "sealed partials to a root service idempotently",
    )
    edge.add_argument("--host", default="127.0.0.1", help="bind address")
    edge.add_argument(
        "--port", type=int, default=8321, help="bind port (0 = ephemeral)"
    )
    edge.add_argument(
        "--upstream-host",
        default="127.0.0.1",
        help="root collection service address",
    )
    edge.add_argument(
        "--upstream-port", type=int, default=8320, help="root service port"
    )
    edge.add_argument(
        "--edge-id",
        default=None,
        help="stable identity for the idempotency ledger (default: a fresh "
        "random id; reuse one to resume a restarted edge safely)",
    )
    edge.add_argument(
        "--campaigns",
        default=None,
        help="comma-separated campaign names to mirror (default: every "
        "campaign the root has at startup)",
    )
    edge.add_argument(
        "--forward-reports",
        type=int,
        default=50_000,
        help="seal and forward a partial once it holds this many reports",
    )
    edge.add_argument(
        "--forward-interval",
        type=float,
        default=1.0,
        help="seconds after which a non-empty partial forwards anyway",
    )
    edge.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds a graceful shutdown keeps retrying the final "
        "forwards before declaring the buffered reports lost",
    )
    edge.add_argument(
        "--log-format",
        choices=("text", "json"),
        default="text",
        help="structured log format on stderr",
    )
    edge.add_argument(
        "--no-tracing",
        action="store_true",
        help="disable span tracing",
    )

    metrics = subcommands.add_parser(
        "metrics", help="show a running service's telemetry snapshot"
    )
    metrics.add_argument("--host", default="127.0.0.1", help="service address")
    metrics.add_argument("--port", type=int, default=8320, help="service port")
    metrics.add_argument(
        "--format",
        choices=("summary", "json", "prometheus"),
        default="summary",
        help="summary = human-readable digest, json = the raw /v1/metrics "
        "document, prometheus = the text exposition",
    )
    metrics.add_argument(
        "--watch",
        action="store_true",
        help="refresh continuously until interrupted",
    )
    metrics.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes with --watch",
    )

    report = subcommands.add_parser(
        "report", help="randomize values locally and send them to a service"
    )
    report.add_argument("--host", default="127.0.0.1", help="service address")
    report.add_argument("--port", type=int, default=8320, help="service port")
    report.add_argument("--campaign", required=True, help="campaign name")
    report.add_argument(
        "--values",
        default=None,
        help="comma-separated raw values (randomized locally before sending)",
    )
    report.add_argument(
        "--simulate",
        type=int,
        default=None,
        help="simulate this many clients with Zipf-distributed values",
    )
    report.add_argument(
        "--seed", type=int, default=0, help="randomizer/simulation seed"
    )
    report.add_argument(
        "--batch-size", type=int, default=500, help="reports per HTTP batch"
    )
    report.add_argument(
        "--transport",
        choices=("json", "binary"),
        default="json",
        help="ingest wire format (binary = packed frames, ~5x less wire)",
    )

    query = subcommands.add_parser(
        "query", help="query a running service for live estimates"
    )
    query.add_argument("--host", default="127.0.0.1", help="service address")
    query.add_argument("--port", type=int, default=8320, help="service port")
    query.add_argument("--campaign", required=True, help="campaign name")
    query.add_argument(
        "--confidence", type=float, default=0.95, help="interval confidence"
    )
    query.add_argument(
        "--sync",
        action="store_true",
        help="accepted for compatibility: every acknowledged report is "
        "already counted",
    )
    query.add_argument(
        "--limit",
        type=int,
        default=16,
        help="print at most this many queries (0 = all)",
    )
    return parser


def _run_experiments(arguments) -> int:
    if arguments.scale is not None:
        os.environ["REPRO_SCALE"] = arguments.scale

    from repro import experiments

    selected = (
        EXPERIMENTS if arguments.experiment == "all" else (arguments.experiment,)
    )
    for name in selected:
        module = getattr(experiments, name)
        print(f"=== {name} (scale={experiments.current_scale().name}) ===")
        module.main()
        print()
    return 0


def _run_plan(arguments) -> int:
    from repro.analysis import epsilon_for_population
    from repro.exceptions import OptimizationError, ReproError
    from repro.experiments.reporting import format_table
    from repro.mechanisms import by_name
    from repro.optimization import OptimizedMechanism, OptimizerConfig
    from repro.workloads import by_name as workload_by_name

    workload = workload_by_name(arguments.workload, arguments.domain)
    mechanisms = [by_name(name) for name in PLAN_MECHANISMS]
    mechanisms.append(
        OptimizedMechanism(OptimizerConfig(num_iterations=arguments.iterations, seed=0))
    )
    print(
        f"workload {workload.name!r}, n = {workload.domain_size}, "
        f"p = {workload.num_queries} queries, N = {arguments.users:g} users, "
        f"alpha = {arguments.alpha:g}\n"
    )
    rows = []
    for mechanism in mechanisms:
        try:
            needed = mechanism.sample_complexity(
                workload, arguments.epsilon, arguments.alpha
            )
        except ReproError:
            rows.append([mechanism.name, "n/a", "n/a", "n/a"])
            continue
        try:
            min_epsilon = epsilon_for_population(
                mechanism, workload, arguments.users, arguments.alpha
            )
            epsilon_text = f"{min_epsilon:.3f}"
        except OptimizationError:
            epsilon_text = "> 10"
        feasible = "yes" if needed <= arguments.users else "NO"
        rows.append([mechanism.name, needed, feasible, epsilon_text])
    print(
        format_table(
            [
                "mechanism",
                f"samples @ eps={arguments.epsilon:g}",
                "feasible",
                "min epsilon for N",
            ],
            rows,
        )
    )
    return 0


def _run_protocol_engine(arguments) -> int:
    import numpy as np

    from repro.data import zipf_data
    from repro.experiments.runner import protocol_session
    from repro.mechanisms import by_name
    from repro.optimization import OptimizedMechanism, OptimizerConfig
    from repro.workloads import by_name as workload_by_name

    workload = workload_by_name(arguments.workload, arguments.domain)
    if arguments.mechanism == "Optimized":
        store = None
        if arguments.store is not None:
            from repro.store import StrategyStore

            store = StrategyStore(arguments.store)
        mechanism = OptimizedMechanism(
            OptimizerConfig(num_iterations=arguments.iterations, seed=0),
            store=store,
        )
    else:
        mechanism = by_name(arguments.mechanism)
    num_users = int(arguments.users)
    truth = zipf_data(arguments.domain, num_users, seed=arguments.seed)

    session = protocol_session(mechanism, workload, arguments.epsilon)
    start = time.perf_counter()
    result = session.run(
        truth,
        num_shards=arguments.shards,
        backend=arguments.backend,
        fast=not arguments.message_level,
        seed=arguments.seed,
    )
    elapsed = time.perf_counter() - start

    true_answers = workload.matvec(truth)
    error = np.abs(result.workload_estimates - true_answers)
    path = "message-level" if arguments.message_level else "fast"
    print(
        f"mechanism {mechanism.name!r} on workload {workload.name!r}: "
        f"n = {workload.domain_size}, m = {session.num_outputs} outputs, "
        f"eps = {session.epsilon:g}"
    )
    print(
        f"collected {result.num_users:,} reports over {arguments.shards} "
        f"shard(s) [{arguments.backend}, {path} path] in {elapsed:.3f} s "
        f"({result.num_users / max(elapsed, 1e-9):,.0f} users/sec)"
    )
    print(
        f"workload error: mean |err| = {error.mean():.2f} users, "
        f"max |err| = {error.max():.2f} users "
        f"(over {workload.num_queries} queries)"
    )
    return 0


def _open_store(path):
    from repro.store import StrategyStore

    return StrategyStore(path) if path is not None else StrategyStore()


def _format_age(seconds: float) -> str:
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7_200:
        return f"{seconds / 60:.0f}m"
    if seconds < 172_800:
        return f"{seconds / 3_600:.0f}h"
    return f"{seconds / 86_400:.0f}d"


def _factored_workload(name: str, sizes: tuple[int, ...], way: int):
    """Resolve a factored workload over a product domain by paper name."""
    import numpy as np

    from repro.workloads import all_product_marginals, k_way_product_marginals
    from repro.workloads.kron import KronWorkload

    lowered = name.lower()
    if lowered == "marginals":
        return k_way_product_marginals(sizes, way)
    if lowered == "allmarginals":
        return all_product_marginals(sizes)
    if lowered == "histogram":
        return KronWorkload(
            [np.eye(size) for size in sizes], name="KronHistogram"
        )
    if lowered == "prefix":
        return KronWorkload(
            [np.tril(np.ones((size, size))) for size in sizes],
            name="KronPrefix",
        )
    raise SystemExit(
        f"unknown factored workload {name!r}; expected Marginals, "
        "AllMarginals, Histogram, or Prefix"
    )


def _run_strategy_build(arguments) -> int:
    from repro.optimization import (
        FactoredOptimizerConfig,
        OptimizerConfig,
        multi_restart_optimize,
        multi_restart_optimize_factored,
    )
    from repro.store import key_for, key_for_factored
    from repro.workloads import by_name as workload_by_name

    if arguments.factored:
        if not arguments.sizes:
            raise SystemExit(
                "--factored needs --sizes (comma-separated attribute sizes, "
                "e.g. --sizes 64,64,16,16)"
            )
        if arguments.num_outputs is not None:
            raise SystemExit(
                "--num-outputs is ambiguous across factors; factored builds "
                "size each factor as m_i = 4 d_i"
            )
        try:
            sizes = tuple(int(part) for part in arguments.sizes.split(","))
        except ValueError:
            raise SystemExit(f"unparseable --sizes {arguments.sizes!r}")
        workload = _factored_workload(arguments.workload, sizes, arguments.way)
        config = FactoredOptimizerConfig(
            base=OptimizerConfig(
                num_iterations=arguments.iterations, seed=arguments.seed
            ),
            rounds=arguments.rounds,
        )
        optimize = multi_restart_optimize_factored
        key = key_for_factored(
            workload, arguments.epsilon, config, restarts=arguments.restarts
        )
        domain = f" ({' x '.join(str(size) for size in sizes)})"
        mode = " [factored]"
    else:
        workload = workload_by_name(arguments.workload, arguments.domain)
        config = OptimizerConfig(
            num_iterations=arguments.iterations,
            num_outputs=arguments.num_outputs,
            seed=arguments.seed,
            # The store persists the objective trajectory as provenance;
            # recording it costs one float per iteration.
            track_history=True,
        )
        optimize = multi_restart_optimize
        key = key_for(
            workload.gram(), arguments.epsilon, config, restarts=arguments.restarts
        )
        domain = ""
        mode = ""
    store = _open_store(arguments.store)
    start = time.perf_counter()
    report = optimize(
        workload,
        arguments.epsilon,
        config,
        restarts=arguments.restarts,
        store=store,
    )
    elapsed = time.perf_counter() - start
    strategy = report.result.strategy
    if arguments.factored:
        detail = f" ({report.result.rounds_run} round(s))"
        shape = "factors " + " x ".join(
            f"{m}x{d}" for m, d in zip(strategy.output_sizes, strategy.domain_sizes)
        )
    else:
        detail = " (+1 warm start)" if report.warm_started else ""
        shape = f"m = {strategy.num_outputs} outputs"
    print(
        f"workload {workload.name!r}, n = {workload.domain_size}{domain}, "
        f"eps = {arguments.epsilon:g}, K = {arguments.restarts} restart(s){mode}"
    )
    if report.store_hit:
        print(
            f"store HIT  entry {key.entry_id} in {elapsed:.3f} s "
            "(no PGD iterations run)"
        )
    else:
        objectives = ", ".join(f"{value:.6g}" for value in report.objectives)
        print(
            f"store MISS — built entry {key.entry_id} in {elapsed:.3f} s"
            f"{detail}; restart objectives: [{objectives}]"
        )
    print(
        f"objective L(Q) = {report.objective:.6g}, {shape}, "
        f"store {store.root} now holds {len(store)} entr"
        f"{'y' if len(store) == 1 else 'ies'}"
    )
    return 0


def _run_strategy_list(arguments) -> int:
    from repro.experiments.reporting import format_table

    store = _open_store(arguments.store)
    records = store.records()
    if not records:
        print(f"store {store.root} is empty")
        return 0
    now = time.time()
    rows = [
        [
            record.entry_id[:12],
            record.workload or "?",
            record.domain_size,
            f"{record.epsilon:g}",
            f"{record.objective:.6g}",
            record.iterations_run,
            f"{record.size_bytes / 1024:.1f}K",
            _format_age(now - record.last_used_at),
        ]
        for record in records
    ]
    print(f"store {store.root} — {len(records)} entr"
          f"{'y' if len(records) == 1 else 'ies'}\n")
    print(
        format_table(
            ["entry", "workload", "n", "eps", "objective", "iters",
             "size", "used"],
            rows,
        )
    )
    return 0


def _resolve_entry(store, prefix: str) -> str:
    matches = [
        record.entry_id
        for record in store.records()
        if record.entry_id.startswith(prefix)
    ]
    if not matches:
        raise SystemExit(f"no store entry matching {prefix!r}")
    if len(matches) > 1:
        raise SystemExit(
            f"ambiguous entry prefix {prefix!r} ({len(matches)} matches)"
        )
    return matches[0]


def _run_strategy_inspect(arguments) -> int:
    import json

    store = _open_store(arguments.store)
    entry_id = _resolve_entry(store, arguments.entry)
    print(json.dumps(store.provenance(entry_id), indent=2, sort_keys=True))
    return 0


def _run_strategy_prune(arguments) -> int:
    store = _open_store(arguments.store)
    before = len(store)
    evicted = store.prune(
        max_entries=arguments.keep, max_bytes=arguments.max_bytes
    )
    for record in evicted:
        print(
            f"evicted {record.entry_id[:12]}  {record.workload or '?'} "
            f"n={record.domain_size} eps={record.epsilon:g} "
            f"({record.size_bytes / 1024:.1f}K)"
        )
    print(f"pruned {len(evicted)} of {before} entries from {store.root}")
    return 0


def _run_serve(arguments) -> int:
    from repro.exceptions import ServiceError
    from repro.service import CollectionService, run_service
    from repro.telemetry import configure_logging

    configure_logging(arguments.log_format)
    store = None
    if arguments.store is not None:
        from repro.store import StrategyStore

        store = StrategyStore(arguments.store)
    try:
        service = CollectionService(
            checkpoint_dir=arguments.checkpoint_dir,
            checkpoint_interval=arguments.checkpoint_interval,
            store=store,
            cluster_workers=arguments.workers,
            transport=arguments.transport,
            tracing=not arguments.no_tracing,
            wal_dir=arguments.wal_dir,
            wal_segment_bytes=arguments.wal_segment_bytes,
            worker_restart_limit=arguments.worker_restart_limit,
        )
    except ServiceError as error:
        # e.g. a checkpoint that fails its checksums or holds a
        # multi-round campaign
        print(error, file=sys.stderr)
        return 2
    if arguments.campaign is not None and arguments.campaign not in service.manager:
        service.manager.create(
            arguments.campaign,
            workload=arguments.workload,
            domain_size=arguments.domain,
            epsilon=arguments.epsilon,
            mechanism=arguments.mechanism,
            iterations=arguments.iterations,
            store=store,
        )
        print(
            f"bootstrapped campaign {arguments.campaign!r} "
            f"({arguments.workload}, n = {arguments.domain}, "
            f"eps = {arguments.epsilon:g}, {arguments.mechanism})"
        )
    run_service(service, host=arguments.host, port=arguments.port)
    return 0


def _run_edge(arguments) -> int:
    from repro.exceptions import ServiceError
    from repro.service import EdgeAggregator, run_edge
    from repro.telemetry import configure_logging

    configure_logging(arguments.log_format)
    campaigns = None
    if arguments.campaigns is not None:
        campaigns = [
            name.strip()
            for name in arguments.campaigns.split(",")
            if name.strip()
        ]
    edge = EdgeAggregator(
        arguments.upstream_host,
        arguments.upstream_port,
        edge_id=arguments.edge_id,
        campaigns=campaigns,
        forward_reports=arguments.forward_reports,
        forward_interval=arguments.forward_interval,
        drain_timeout=arguments.drain_timeout,
        tracing=not arguments.no_tracing,
    )
    try:
        run_edge(edge, host=arguments.host, port=arguments.port)
    except (ServiceError, ConnectionError, OSError) as error:
        # Most commonly: the root is not up yet, so the startup mirror
        # fetch fails before the listener ever binds.
        print(f"edge failed to start: {error}", file=sys.stderr)
        return 1
    return 0


def _run_report(arguments) -> int:
    import numpy as np

    from repro.service import ServiceClient

    if (arguments.values is None) == (arguments.simulate is None):
        print("pass exactly one of --values or --simulate", file=sys.stderr)
        return 2
    client = ServiceClient(
        arguments.host, arguments.port, transport=arguments.transport
    )
    reporter = client.reporter(
        arguments.campaign,
        batch_size=arguments.batch_size,
        rng=np.random.default_rng(arguments.seed),
    )
    if arguments.values is not None:
        values = [int(v) for v in arguments.values.split(",") if v.strip()]
    else:
        from repro.data import zipf_data
        from repro.protocol import expand_users

        truth = zipf_data(
            reporter.strategy.domain_size, arguments.simulate, seed=arguments.seed
        )
        values = expand_users(truth)
    start = time.perf_counter()
    reporter.report_many(values)
    reporter.flush_all()
    elapsed = time.perf_counter() - start
    print(
        f"sent {reporter.reports_sent:,} locally-randomized reports to "
        f"campaign {arguments.campaign!r} in {elapsed:.3f} s "
        f"({reporter.reports_sent / max(elapsed, 1e-9):,.0f} reports/sec)"
    )
    client.close()
    return 0


def _render_metrics_summary(snapshot: dict) -> str:
    """A terminal digest of the /v1/metrics JSON document."""
    lines = [
        f"uptime {snapshot.get('uptime_seconds', 0.0):,.1f} s, "
        f"{snapshot.get('requests_served', 0):,} requests served, "
        f"{snapshot.get('total_reports', 0):,} reports total",
    ]
    ingest = snapshot.get("ingest", {})
    lines.append(
        f"ingest: {ingest.get('ingested', 0):,} folded, "
        f"{ingest.get('rejected_batches', 0):,} batches rejected"
    )
    lines.append(
        f"checkpoints: {snapshot.get('checkpoints_written', 0)} written, "
        f"{snapshot.get('checkpoint_failures', 0)} failed"
    )
    for name, row in sorted(snapshot.get("campaigns", {}).items()):
        lines.append(f"campaign {name!r}: {row.get('num_reports', 0):,} reports")
    telemetry = snapshot.get("telemetry", {})
    for family in ("repro_ingest_latency_seconds", "repro_http_request_seconds"):
        for key, row in sorted(telemetry.items()):
            if not key.startswith(family) or not isinstance(row, dict):
                continue
            if "p50" not in row:
                continue
            lines.append(
                f"{key}: count {row['count']:,}, "
                f"p50 {row['p50']:.6f} s, p95 {row['p95']:.6f} s, "
                f"p99 {row['p99']:.6f} s"
            )
    cluster = snapshot.get("cluster")
    if cluster:
        lines.append(
            f"cluster: {cluster['workers_alive']}/{cluster['num_workers']} "
            f"workers alive, {cluster['dispatched_reports']:,} reports "
            "dispatched"
        )
    return "\n".join(lines)


def _run_metrics(arguments) -> int:
    import json as json_module

    from repro.service import ServiceClient

    client = ServiceClient(arguments.host, arguments.port)
    try:
        while True:
            if arguments.format == "prometheus":
                output = client.prometheus_metrics().rstrip("\n")
            elif arguments.format == "json":
                output = json_module.dumps(
                    client.metrics(), indent=2, sort_keys=True
                )
            else:
                output = _render_metrics_summary(client.metrics())
            if arguments.watch:
                print("\x1b[2J\x1b[H", end="")
            print(output)
            if not arguments.watch:
                return 0
            time.sleep(arguments.interval)
    except KeyboardInterrupt:
        return 0
    except BrokenPipeError:
        # Downstream pager/head closed early; that is not an error.
        return 0
    finally:
        client.close()


def _run_query(arguments) -> int:
    from repro.experiments.reporting import format_table
    from repro.service import ServiceClient

    client = ServiceClient(arguments.host, arguments.port)
    answer = client.query(
        arguments.campaign,
        confidence=arguments.confidence,
        sync=arguments.sync,
    )
    client.close()
    estimates = answer["estimates"]
    shown = len(estimates) if arguments.limit == 0 else arguments.limit
    rows = [
        [
            index,
            f"{answer['estimates'][index]:.2f}",
            f"{answer['standard_errors'][index]:.2f}",
            f"[{answer['lower'][index]:.2f}, {answer['upper'][index]:.2f}]",
        ]
        for index in range(min(shown, len(estimates)))
    ]
    print(
        f"campaign {answer['campaign']!r}: {answer['num_reports']:,} reports, "
        f"{len(estimates)} queries, {answer['confidence']:.0%} intervals"
    )
    print(format_table(["query", "estimate", "stderr", "interval"], rows))
    if len(estimates) > len(rows):
        print(f"... ({len(estimates) - len(rows)} more queries; --limit 0 for all)")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Backwards-compatible shorthand: `python -m repro figure1` etc.
    if argv and argv[0] in EXPERIMENTS + ("all",):
        argv = ["run"] + argv
    arguments = build_parser().parse_args(argv)
    if arguments.command == "plan":
        return _run_plan(arguments)
    if arguments.command == "run":
        return _run_experiments(arguments)
    if arguments.command == "protocol":
        if arguments.protocol_command == "run":
            return _run_protocol_engine(arguments)
        print("usage: repro protocol run [options] (see `repro protocol run -h`)")
        return 2
    if arguments.command == "serve":
        return _run_serve(arguments)
    if arguments.command == "edge":
        return _run_edge(arguments)
    if arguments.command == "report":
        return _run_report(arguments)
    if arguments.command == "query":
        return _run_query(arguments)
    if arguments.command == "metrics":
        return _run_metrics(arguments)
    if arguments.command == "strategy":
        handlers = {
            "build": _run_strategy_build,
            "list": _run_strategy_list,
            "inspect": _run_strategy_inspect,
            "prune": _run_strategy_prune,
        }
        handler = handlers.get(arguments.strategy_command)
        if handler is not None:
            return handler(arguments)
        print(
            "usage: repro strategy {build|list|inspect|prune} [options] "
            "(see `repro strategy -h`)"
        )
        return 2
    build_parser().print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
