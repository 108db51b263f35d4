"""The two service workloads, driven over HTTP against ``repro serve``.

``ingest_durable``: binary report batches at a fixed rate into a WAL-backed
two-worker cluster, plus a freshness probe and a fixed set of checkpoint
cuts on the second connection.  ``query_mix``: a dashboard polling
``/v1/query`` at a fixed rate on a 3-Way Marginals campaign over n=1024
while JSON batches arrive at a modest fixed rate, single process.

One generator process, two threads, two connections.  Arrivals are open
loop: each operation is timed from the moment it was due, so a stall also
charges the operations queued behind it.  Report bodies are randomized
and encoded into a cycled pool before the server starts.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import procfs
import spans

#: Latency charged to an operation that failed or was refused: it misses
#: every latency limit.
FAILED_MS = 1e9


@dataclass(frozen=True)
class Campaign:
    name: str
    workload: str
    domain_size: int
    batch: int  # reports per request
    pool: int  # distinct pre-encoded request bodies, cycled


@dataclass(frozen=True)
class ServiceWorkload:
    workers: int  # repro serve --workers
    transport: str  # repro serve --transport, and the pool's encoding
    load: Campaign
    load_rate: float  # ingest requests per second
    side_rate: float  # probe cycles or dashboard queries per second
    probe: Campaign | None = None
    cuts: int = 0
    warmup: int = 20  # ingest requests before the timed window


INGEST_DURABLE = ServiceWorkload(
    workers=2,
    transport="binary",
    load=Campaign("load", "Histogram", 64, batch=256, pool=64),
    load_rate=100.0,
    side_rate=5.0,
    probe=Campaign("probe", "Histogram", 64, batch=16, pool=16),
    cuts=3,
)

QUERY_MIX = ServiceWorkload(
    workers=0,
    transport="json",
    load=Campaign("mix", "3-Way Marginals", 1024, batch=200, pool=64),
    load_rate=50.0,
    side_rate=2.0,
)


# -- inputs -------------------------------------------------------------------


@dataclass
class Pool:
    """Pre-randomized, pre-encoded request bodies for one campaign."""

    campaign: Campaign
    reports: list[np.ndarray]
    bodies: list[bytes]
    content_type: str


def make_pools(spec: ServiceWorkload, seed: int, manager) -> dict[str, Pool]:
    """Create each campaign locally (the reference the server must match)
    and randomize its pool against the local strategy: users follow a
    seeded Dirichlet distribution over the domain."""
    from repro.service.framing import FRAME_CONTENT_TYPE, encode_reports

    pools = {}
    rng = np.random.default_rng(seed)
    for campaign in (spec.load, spec.probe):
        if campaign is None:
            continue
        local = manager.create(
            campaign.name,
            workload=campaign.workload,
            domain_size=campaign.domain_size,
            epsilon=1.0,
            mechanism="Hadamard",
        )
        shares = rng.dirichlet(np.full(campaign.domain_size, 0.5))
        reports, bodies = [], []
        for _ in range(campaign.pool):
            users = rng.choice(campaign.domain_size, size=campaign.batch, p=shares)
            batch = local.session.strategy.sample_responses(users, rng)
            reports.append(batch)
            if spec.transport == "binary":
                bodies.append(encode_reports(campaign.name, batch))
            else:
                document = {"campaign": campaign.name, "reports": batch.tolist()}
                bodies.append(json.dumps(document).encode("utf-8"))
        content_type = (
            FRAME_CONTENT_TYPE if spec.transport == "binary" else "application/json"
        )
        pools[campaign.name] = Pool(campaign, reports, bodies, content_type)
    return pools


# -- the server process ---------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess on an ephemeral port with fresh
    checkpoint and WAL directories."""

    def __init__(self, root: Path, workdir: Path, spec: ServiceWorkload, trace_dir=None):
        workdir.mkdir(parents=True)
        arguments = [
            "serve",
            "--port", "0",
            "--checkpoint-dir", str(workdir / "checkpoints"),
            "--wal-dir", str(workdir / "wal"),
            # Cuts come from the generator at fixed offsets; the timer's
            # phase would differ from run to run.
            "--checkpoint-interval", "86400",
            "--workers", str(spec.workers),
            "--transport", spec.transport,
        ]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        if trace_dir is None:
            command = [sys.executable, "-m", "repro", *arguments]
        else:
            command = [sys.executable, str(root / "perfbench" / "traced_serve.py"), *arguments]
            env[spans.TRACE_ENV] = str(trace_dir)
        self.log_path = workdir / "server.log"
        self._log = open(self.log_path, "wb")
        self.launched = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        line, _ = procfs.wait_for_line(self.process, "listening on http://", 90.0)
        if line is None:
            self.stop()
            raise RuntimeError(f"server did not start; see {self.log_path}:\n{self.log_tail()}")
        self.listening = time.perf_counter()
        self.port = int(line.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def log_tail(self) -> str:
        return self.log_path.read_text(errors="replace")[-2000:]

    def tree(self) -> list[int]:
        return procfs.process_tree(self.process.pid)

    def stop(self) -> None:
        """Graceful SIGTERM (drain + final checkpoint); waits for every
        process of the tree to end."""
        tree = self.tree() if self.process.poll() is None else []
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and any(_alive(pid) for pid in tree[1:]):
            time.sleep(0.05)
        for pid in tree[1:]:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        self.process.stdout.close()
        self._log.close()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except OSError:
        return False


# -- the generator --------------------------------------------------------------


@dataclass
class Ledger:
    """Reports sent (before the request) and acked, per campaign, plus the
    pool index of every acked batch in ack order (for the reference)."""

    sent: dict[str, int] = field(default_factory=dict)
    acked: dict[str, int] = field(default_factory=dict)
    acked_batches: dict[str, list[int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    overcounts: int = 0
    errors: list[str] = field(default_factory=list)


class Generator:
    def __init__(self, host: str, port: int, pools: dict[str, Pool], trace_prefix: str):
        from repro.service.client import ServiceClient

        self.pools = pools
        self.ledger = Ledger()
        self.lock = threading.Lock()
        self.trace_prefix = trace_prefix
        self._sequence = 0
        self.client = ServiceClient(host, port, timeout=60.0, retries=0)
        self.side_client = ServiceClient(host, port, timeout=60.0, retries=0)
        self.ack_traces: list[tuple[str, str, float, float]] = []

    def _fail(self, error: Exception) -> None:
        with self.lock:
            self.ledger.failed += 1
            if len(self.ledger.errors) < 5:
                self.ledger.errors.append(f"{type(error).__name__}: {error}")

    def ingest(self, client, name: str, index: int) -> bool:
        """Send one pooled batch; returns whether it was acked."""
        pool = self.pools[name]
        slot = index % len(pool.bodies)
        count = pool.campaign.batch
        trace = None
        if self.trace_prefix:
            with self.lock:
                self._sequence += 1
                trace = f"{self.trace_prefix}{self._sequence:08x}"
        with self.lock:
            self.ledger.attempted += 1
            self.ledger.sent[name] = self.ledger.sent.get(name, 0) + count
        sent = time.perf_counter()
        try:
            reply = client._request(
                "POST",
                "/v1/reports",
                raw=pool.bodies[slot],
                content_type=pool.content_type,
                trace_id=trace,
            )
            if reply.get("accepted") != count:
                raise RuntimeError(f"ack for {reply.get('accepted')} of {count} reports")
        except Exception as error:  # noqa: BLE001 - counted as a failed operation
            self._fail(error)
            return False
        if trace is not None:
            self.ack_traces.append((name, trace, sent, time.perf_counter()))
        with self.lock:
            self.ledger.acked[name] = self.ledger.acked.get(name, 0) + count
            self.ledger.acked_batches.setdefault(name, []).append(slot)
        return True

    def query(self, client, name: str, sync: bool = False) -> dict | None:
        with self.lock:
            self.ledger.attempted += 1
        try:
            answer = client.query(name, sync=sync)
        except Exception as error:  # noqa: BLE001 - counted as a failed operation
            self._fail(error)
            return None
        with self.lock:
            sent = self.ledger.sent.get(name, 0)
        if answer["num_reports"] > sent:
            with self.lock:
                self.ledger.overcounts += 1
            self._fail(RuntimeError(f"{name}: answer counts {answer['num_reports']} > {sent} sent"))
            return None
        return answer

    def checkpoint(self, client) -> bool:
        with self.lock:
            self.ledger.attempted += 1
        try:
            client.checkpoint()
        except Exception as error:  # noqa: BLE001 - counted as a failed operation
            self._fail(error)
            return False
        return True

    def close(self) -> None:
        self.client.close()
        self.side_client.close()


def _wait_until(due: float) -> None:
    delay = due - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


@dataclass
class Window:
    start: float = 0.0
    end: float = 0.0
    acks: list[tuple[float, float, float]] = field(default_factory=list)  # due, sent, done
    side: list[tuple[float, float]] = field(default_factory=list)  # due|ack, done
    visible: list[tuple[float, float]] = field(default_factory=list)  # due, ms
    steal: list[tuple[float, float]] = field(default_factory=list)  # time, steal s


def _ingest_loop(generator: Generator, spec: ServiceWorkload, window: Window, seconds: float):
    index = 0
    while True:
        due = window.start + index / spec.load_rate
        if due >= window.start + seconds:
            window.steal.append((time.perf_counter(), procfs.steal_seconds()))
            return
        _wait_until(due)
        if index % int(spec.load_rate) == 0:
            window.steal.append((time.perf_counter(), procfs.steal_seconds()))
        sent = time.perf_counter()
        ok = generator.ingest(generator.client, spec.load.name, index)
        window.acks.append((due, sent, time.perf_counter() if ok else float("inf")))
        index += 1


def _probe_loop(generator: Generator, spec: ServiceWorkload, window: Window, seconds: float):
    """Freshness probe: a small batch to the probe campaign, then polls of
    ``/v1/query?sync=0`` until an answer counts it; checkpoint cuts at
    fixed offsets in between."""
    client = generator.side_client
    name = spec.probe.name
    cuts = [window.start + seconds * (k + 1) / (spec.cuts + 1) for k in range(spec.cuts)]
    # Half an ingest interval late, so a probe never shares its due time
    # with an ingest request.
    offset = 0.5 / spec.load_rate
    cycle = 0
    while True:
        due = window.start + offset + cycle / spec.side_rate
        if due >= window.start + seconds:
            return
        _wait_until(due)
        while cuts and cuts[0] <= time.perf_counter():
            cuts.pop(0)
            generator.checkpoint(client)
        if not generator.ingest(client, name, cycle):
            window.visible.append((due, FAILED_MS))
            cycle += 1
            continue
        acked_at = time.perf_counter()
        target = generator.ledger.acked[name]
        deadline = acked_at + 5.0
        while True:
            answer = generator.query(client, name)
            if answer is None or time.perf_counter() > deadline:
                window.visible.append((due, FAILED_MS))
                break
            if answer["num_reports"] >= target:
                window.visible.append((due, (time.perf_counter() - acked_at) * 1e3))
                break
        cycle += 1


def _dashboard_loop(generator: Generator, spec: ServiceWorkload, window: Window, seconds: float):
    client = generator.side_client
    query = 0
    while True:
        due = window.start + query / spec.side_rate
        if due >= window.start + seconds:
            return
        _wait_until(due)
        answer = generator.query(client, spec.load.name)
        window.side.append((due, time.perf_counter() if answer is not None else float("inf")))
        query += 1


def _warm_up(generator: Generator, spec: ServiceWorkload) -> None:
    for index in range(spec.warmup):
        generator.ingest(generator.client, spec.load.name, index)
    if spec.probe is not None:
        for index in range(3):
            generator.ingest(generator.side_client, spec.probe.name, index)
            generator.query(generator.side_client, spec.probe.name)
    else:
        for _ in range(2):
            generator.query(generator.side_client, spec.load.name)


def _create_campaigns(generator: Generator, spec: ServiceWorkload) -> float:
    """Returns the seconds the creates took."""
    started = time.perf_counter()
    for campaign in (spec.load, spec.probe):
        if campaign is not None:
            generator.client.create_campaign(
                campaign.name,
                workload=campaign.workload,
                domain_size=campaign.domain_size,
                epsilon=1.0,
                mechanism="Hadamard",
            )
    return time.perf_counter() - started


def _wal_stats(client) -> dict:
    return client.metrics().get("wal", {})


# -- one measured server lifetime -------------------------------------------------


@dataclass
class Measurement:
    setup_s: list[float]
    listen_s: float
    create_s: float
    window: Window
    cpu_s: float
    worker_cpu_s: float
    peak_rss_mb: float
    rss_coordinator_mb: float
    rss_workers_mb: float
    steal_s: float
    generator_cpu_s: float
    wal_before: dict
    wal_after: dict
    ledger: Ledger
    checks: dict
    objective: float
    ack_traces: list
    trace_dir: Path | None


def measure(
    root: Path,
    workdir: Path,
    spec: ServiceWorkload,
    seed: int,
    seconds: float,
    setups: int,
    trace_dir: Path | None = None,
) -> Measurement:
    """Set the server up ``setups`` times (all but the last torn down right
    after they are ready), then run the timed window on the last one and
    check its outputs."""
    from repro.service.campaigns import CampaignManager

    reference = CampaignManager()
    pools = make_pools(spec, seed, reference)
    setup_times = []
    server = generator = None
    try:
        for attempt in range(setups):
            last = attempt == setups - 1
            server = Server(root, workdir / f"server-{attempt}", spec, trace_dir if last else None)
            generator = Generator(
                "127.0.0.1", server.port, pools, f"{seed & 0xFFFFFFFF:08x}" if trace_dir and last else ""
            )
            create_s = _create_campaigns(generator, spec)
            _warm_up(generator, spec)
            setup_times.append(time.perf_counter() - server.launched)
            if not last:
                generator.close()
                server.stop()
        ledger = generator.ledger
        warm_failures = ledger.failed
        wal_before = _wal_stats(generator.side_client) if trace_dir else {}
        generator.ack_traces.clear()

        window = Window()
        tree = server.tree()
        cpu_before = {pid: procfs.cpu_seconds(pid) for pid in tree}
        steal_before = procfs.steal_seconds()
        own_before = os.times()
        window.start = time.perf_counter() + 0.05
        side_loop = _probe_loop if spec.probe is not None else _dashboard_loop
        side = threading.Thread(
            target=side_loop, args=(generator, spec, window, seconds), name="side"
        )
        side.start()
        _ingest_loop(generator, spec, window, seconds)
        side.join()
        window.end = time.perf_counter()
        own_after = os.times()
        steal_after = procfs.steal_seconds()
        cpu_after = {pid: procfs.cpu_seconds(pid) for pid in tree}
        workers = [pid for pid in tree if procfs.is_spawned_worker(pid)]
        cpu_delta = {pid: cpu_after[pid] - cpu_before[pid] for pid in tree}
        wal_after = _wal_stats(generator.side_client) if trace_dir else {}

        checks, answers = final_checks(generator, reference, pools)
        checks["warm_up_failures"] = warm_failures == 0
        rss = {pid: procfs.peak_rss_mib(pid) for pid in server.tree()}
        measurement = Measurement(
            setup_s=setup_times,
            listen_s=server.listening - server.launched,
            create_s=create_s,
            window=window,
            cpu_s=sum(cpu_delta.values()),
            worker_cpu_s=sum(cpu_delta[pid] for pid in workers),
            peak_rss_mb=sum(rss.values()),
            rss_coordinator_mb=rss.get(server.process.pid, 0.0),
            rss_workers_mb=sum(rss.get(pid, 0.0) for pid in workers),
            steal_s=steal_after - steal_before,
            generator_cpu_s=(own_after.user + own_after.system)
            - (own_before.user + own_before.system),
            wal_before=wal_before,
            wal_after=wal_after,
            ledger=ledger,
            checks=checks,
            objective=error_per_report(answers[spec.load.name]),
            ack_traces=list(generator.ack_traces),
            trace_dir=trace_dir,
        )
    finally:
        if generator is not None:
            generator.close()
        if server is not None:
            server.stop()
    return measurement


def final_checks(generator: Generator, reference, pools: dict[str, Pool]) -> tuple[dict, dict]:
    """The final ``sync=1`` answer of every campaign must count exactly the
    acked reports and equal, bit for bit, a serial fold of the same acked
    batches through the library.  Returns the checks and the answers."""
    checks, answers = {}, {}
    for name, pool in pools.items():
        answer = answers[name] = generator.query(generator.client, name, sync=True)
        acked = generator.ledger.acked.get(name, 0)
        checks[f"{name}.count"] = check_count(answer, acked)
        campaign = reference.get(name)
        campaign.accumulator = campaign.session.new_accumulator()
        for slot in generator.ledger.acked_batches.get(name, ()):
            campaign.accumulator.add_reports(pool.reports[slot])
        expected = reference.query(name).to_json()
        checks[f"{name}.estimates"] = check_estimates(answer, expected)
    checks["no_overcount"] = generator.ledger.overcounts == 0
    return checks, answers


def error_per_report(answer: dict | None) -> float:
    """Expected total squared error of the served workload answer, per
    report: the sum of the per-query variances the server reports, over
    the reports they count.  0 without an answer, when the run has already
    failed its checks."""
    if answer is None or not answer["num_reports"]:
        return 0.0
    errors = np.asarray(answer["standard_errors"], dtype=float)
    return float(errors @ errors) / answer["num_reports"]


def check_count(answer: dict | None, acked: int) -> bool:
    return answer is not None and answer["num_reports"] == acked


def check_estimates(answer: dict | None, expected: dict) -> bool:
    if answer is None:
        return False
    for key in ("estimates", "standard_errors"):
        got = np.asarray(answer[key], dtype=float)
        want = np.asarray(expected[key], dtype=float)
        if got.shape != want.shape or got.tobytes() != want.tobytes():
            return False
    return True
