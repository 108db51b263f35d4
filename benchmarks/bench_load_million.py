"""Million-client load harness: flat ingest vs the two-tier edge topology.

Simulates ``--clients`` LDP clients reporting once each.  Client values
are zipfian over the domain (hot-key popularity skew), randomized *once*
into pre-computed report pools so the harness measures the collection
path, not the sampler.  Arrivals are bursty: the report stream is framed
into batched binary requests whose sizes follow a truncated zipf — many
small bursts, a heavy tail of large ones — shipped from
``--client-threads`` concurrent connections.

Each topology in ``--edges`` is timed end to end (first byte sent until
the root has counted every report, including edge drains):

* ``0`` — flat: every client reports straight to the root service.
* ``E >= 1`` — two-tier: clients spread across ``E``
  :class:`~repro.service.edge.EdgeAggregator` processes that fold locally
  and forward merged partials upstream.

For every topology the harness records reports/sec and the p50/p99 ingest
latency from the client-facing tier's telemetry registry (scraped over
``GET /v1/metrics``), and asserts the root's final estimate is
**bit-identical** to a serial single-accumulator fold of the same pool —
the monoid contract that makes the edge tier sound.  With
``--check-against`` it gates CI: reports/sec more than ``tolerance``
below a committed floor exits 1.

Run::

    PYTHONPATH=src python benchmarks/bench_load_million.py \
        --clients 1000000 --edges 0,2 --json load_million.json

    PYTHONPATH=src python benchmarks/bench_load_million.py \
        --clients 200000 --edges 0,1 \
        --check-against benchmarks/baselines/load_million.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

import numpy as np

from repro.mechanisms import hadamard_response
from repro.service import (
    CollectionService,
    EdgeAggregator,
    ServiceClient,
    ServiceThread,
)
from repro.protocol import ShardAccumulator

CAMPAIGN = "load"


def zipf_values(num_clients: int, domain: int, s: float, rng) -> np.ndarray:
    """Client values with zipf(s) popularity over the domain."""
    weights = 1.0 / np.arange(1, domain + 1, dtype=np.float64) ** s
    weights /= weights.sum()
    return rng.choice(domain, size=num_clients, p=weights)


def zipf_burst_sizes(total: int, cap: int, s: float, rng) -> list[int]:
    """Frame the stream into zipf-sized bursts (floor 64, capped at
    ``cap``), covering exactly ``total`` reports."""
    sizes: list[int] = []
    remaining = total
    while remaining > 0:
        size = min(int(rng.zipf(s)) * 64, cap, remaining)
        sizes.append(size)
        remaining -= size
    return sizes


def run_senders(targets, reports, burst_sizes, num_threads):
    """Ship the report stream as binary frames from ``num_threads``
    concurrent connections, round-robining threads across ``targets``
    (the client-facing tier: the root, or the edge fleet)."""
    bounds = np.cumsum([0] + burst_sizes)
    frames = [(bounds[i], bounds[i + 1]) for i in range(len(burst_sizes))]
    slices = [frames[i::num_threads] for i in range(num_threads)]
    errors: list[BaseException] = []

    def send(thread_index: int) -> None:
        host, port = targets[thread_index % len(targets)]
        sender = ServiceClient(host, port, transport="binary")
        try:
            for begin, end in slices[thread_index]:
                sender.send_reports(CAMPAIGN, reports[begin:end])
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)
        finally:
            sender.close()

    threads = [
        threading.Thread(target=send, args=(i,)) for i in range(num_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def scrape_latency(host: str, port: int) -> dict:
    """p50/p99 ingest latency (milliseconds) from a tier's telemetry
    registry, over the same /v1/metrics endpoint operators scrape."""
    client = ServiceClient(host, port)
    try:
        telemetry = client.metrics()["telemetry"]
    finally:
        client.close()
    histogram = telemetry["repro_ingest_latency_seconds"]
    if not histogram["count"]:
        return {"requests": 0, "p50_ms": 0.0, "p99_ms": 0.0}
    return {
        "requests": histogram["count"],
        "p50_ms": round(histogram["p50"] * 1e3, 3),
        "p99_ms": round(histogram["p99"] * 1e3, 3),
    }


def run_topology(
    num_edges: int, reports, burst_sizes, reference, arguments
) -> dict:
    """Time one topology end to end; returns its result row."""
    num_reports = reports.shape[0]
    service = CollectionService()
    root_thread = ServiceThread(service)
    root_host, root_port = root_thread.start()
    control = ServiceClient(root_host, root_port)
    control.create_campaign(
        CAMPAIGN,
        workload="Histogram",
        domain_size=arguments.domain,
        epsilon=arguments.epsilon,
        mechanism="Hadamard",
    )
    edges: list[tuple[EdgeAggregator, ServiceThread]] = []
    targets = [(root_host, root_port)]
    if num_edges:
        targets = []
        for index in range(num_edges):
            edge = EdgeAggregator(
                root_host,
                root_port,
                edge_id=f"bench-edge-{index}",
                forward_interval=0.25,
                forward_reports=arguments.forward_reports,
            )
            edge_thread = ServiceThread(edge)
            targets.append(edge_thread.start())
            edges.append((edge, edge_thread))
    label = f"edge-{num_edges}" if num_edges else "flat"
    try:
        start = time.perf_counter()
        run_senders(targets, reports, burst_sizes, arguments.client_threads)
        # Client-perceived ingest latency lives at the tier the clients
        # talk to, and edge registries die with their threads — so scrape
        # the edges now, before the drain stops them.
        tier_latencies = [scrape_latency(host, port) for host, port in targets]
        # Drain: edges cut + forward their final partials, then the root
        # sync-query barrier folds everything that is still in flight.
        for _, edge_thread in edges:
            edge_thread.stop()
        answer = control.query(CAMPAIGN, sync=True)
        elapsed = time.perf_counter() - start
        count_ok = answer["num_reports"] == num_reports
        estimate_ok = answer["estimates"] == reference["estimates"]
        root_latency = scrape_latency(root_host, root_port)
    finally:
        control.close()
        root_thread.stop()
    # Percentiles across edges do not merge exactly; report the slowest
    # edge (conservative) plus the per-tier detail.
    latency = {
        "requests": sum(entry["requests"] for entry in tier_latencies),
        "p50_ms": max(entry["p50_ms"] for entry in tier_latencies),
        "p99_ms": max(entry["p99_ms"] for entry in tier_latencies),
    }
    row = {
        "topology": label,
        "edges": num_edges,
        "transport": "binary",
        "clients": num_reports,
        "seconds": round(elapsed, 6),
        "reports_per_sec": round(num_reports / elapsed, 1),
        "count_ok": count_ok,
        "estimate_ok": estimate_ok,
        "latency": latency,
    }
    if num_edges:
        row["per_edge_latency"] = tier_latencies
        row["root_latency"] = root_latency
        row["edge_forwards"] = sum(e.forwards_applied for e, _ in edges)
        row["reports_lost"] = sum(e.reports_lost for e, _ in edges)
    return row


def check_against(results: dict, baseline_path: str) -> int:
    """Gate measured rows against committed floors; returns the number of
    rows regressing more than the allowed tolerance."""
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    tolerance = float(baseline.get("tolerance", 0.30))
    measured = {
        (row["clients"], row["edges"], row["transport"]): row[
            "reports_per_sec"
        ]
        for row in results["topologies"]
    }
    # One invocation runs one client count; baseline rows for other
    # counts gate other invocations (CI runs 200k, full runs 1M).
    relevant = [
        row
        for row in baseline["topologies"]
        if row["clients"] == results["clients"]
    ]
    if not relevant:
        print(
            f"check: baseline {baseline_path} has no floors for "
            f"clients={results['clients']:,}"
        )
        return 1
    failures = 0
    for row in relevant:
        key = (row["clients"], row["edges"], row["transport"])
        floor = float(row["reports_per_sec"]) * (1.0 - tolerance)
        got = measured.get(key)
        if got is None:
            print(f"check: MISSING  clients={key[0]} edges={key[1]} {key[2]}")
            failures += 1
            continue
        verdict = "ok" if got >= floor else "REGRESSION"
        if got < floor:
            failures += 1
        print(
            f"check: {verdict:>10}  clients={key[0]:>9,} edges={key[1]} "
            f"{key[2]:>6}: {got:>12,.0f} reports/sec "
            f"(floor {floor:,.0f} = baseline - {tolerance:.0%})"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--clients",
        type=float,
        default=1_000_000,
        help="simulated clients (one report each)",
    )
    parser.add_argument("--domain", type=int, default=64)
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument(
        "--edges",
        default="0,2",
        help="comma-separated edge counts to sweep (0 = flat topology)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=4096,
        help="largest binary frame (burst cap) in reports",
    )
    parser.add_argument(
        "--client-threads",
        type=int,
        default=4,
        help="concurrent sender connections per topology",
    )
    parser.add_argument(
        "--forward-reports",
        type=int,
        default=50_000,
        help="edge partial size trigger",
    )
    parser.add_argument(
        "--zipf",
        type=float,
        default=1.3,
        help="zipf exponent for value popularity and burst sizes",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default=None, help="write results here")
    parser.add_argument(
        "--check-against",
        default=None,
        help="baseline JSON of floors; exit 1 on a >tolerance regression",
    )
    arguments = parser.parse_args(argv)

    num_clients = int(arguments.clients)
    edge_counts = [int(v) for v in arguments.edges.split(",") if v.strip()]
    strategy = hadamard_response(arguments.domain, arguments.epsilon)

    # Pre-randomized report pool: sample every client's response once,
    # before any clock starts.
    rng = np.random.default_rng(arguments.seed)
    values = zipf_values(num_clients, arguments.domain, arguments.zipf, rng)
    reports = strategy.sample_responses(values, rng)
    burst_sizes = zipf_burst_sizes(
        num_clients, arguments.batch_size, arguments.zipf, rng
    )

    # Serial single-accumulator reference fold: the answer every topology
    # must reproduce bit for bit.
    serial = ShardAccumulator(strategy.num_outputs)
    serial.add_reports(reports)
    reference_service = CollectionService()
    reference_service.manager.create(
        CAMPAIGN,
        workload="Histogram",
        domain_size=arguments.domain,
        epsilon=arguments.epsilon,
        mechanism="Hadamard",
    )
    reference = reference_service.manager.query(
        CAMPAIGN, pending=[serial]
    ).to_json()

    cpu_count = os.cpu_count() or 1
    results = {
        "clients": num_clients,
        "domain_size": arguments.domain,
        "num_outputs": strategy.num_outputs,
        "epsilon": arguments.epsilon,
        "zipf": arguments.zipf,
        "batch_size": arguments.batch_size,
        "client_threads": arguments.client_threads,
        "requests": len(burst_sizes),
        "cpu_count": cpu_count,
        "topologies": [],
    }
    print(
        f"load harness: {num_clients:,} clients, n = {arguments.domain}, "
        f"m = {strategy.num_outputs} outputs, {len(burst_sizes):,} bursts "
        f"(zipf {arguments.zipf}, cap {arguments.batch_size}), "
        f"topologies {edge_counts}, {cpu_count} cpu core(s)"
    )

    failures = 0
    for num_edges in edge_counts:
        row = run_topology(
            num_edges, reports, burst_sizes, reference, arguments
        )
        results["topologies"].append(row)
        if not (row["count_ok"] and row["estimate_ok"]):
            failures += 1
        print(
            f"-- {row['topology']:>7}: {row['reports_per_sec']:>12,.0f} "
            f"reports/sec  p50 {row['latency']['p50_ms']:.2f} ms  "
            f"p99 {row['latency']['p99_ms']:.2f} ms  "
            f"[{'ok' if row['count_ok'] and row['estimate_ok'] else 'MISMATCH'}]"
        )

    if arguments.json:
        with open(arguments.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2)
        print(f"wrote {arguments.json}")

    if arguments.check_against:
        failures += check_against(results, arguments.check_against)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
