#!/usr/bin/env python
"""Service smoke test for CI: real process, real sockets, real crash.

Drives the collection service exactly as a deployment would:

1. start ``repro serve`` as a subprocess on an **ephemeral port** (the
   server binds port 0 and the chosen port is parsed from its startup
   line, so parallel CI jobs can never collide) with a bootstrapped
   fixture campaign and a checkpoint directory;
2. push client-randomized reports through the SDK (the server never sees
   a raw value), over the JSON or binary transport per ``--transport``;
3. assert ``GET /v1/query`` answers within statistical tolerance of the
   known ground truth (every query inside 6 plug-in standard errors);
4. force a checkpoint, ``SIGKILL`` the server (a genuine crash — no
   graceful drain), restart on the same checkpoint directory, and assert
   the recovered estimates are **bit-identical** to the pre-kill answer;
5. verify the restarted service still ingests.

``--workers K`` runs the whole scenario against the multi-process
cluster tier (coordinator + K worker processes), including the SIGKILL
of the coordinator, which orphans and reaps the workers.

Exits non-zero on any failure, and removes its checkpoint directory
either way.  Run::

    PYTHONPATH=src python scripts/service_smoke.py
    PYTHONPATH=src python scripts/service_smoke.py --workers 2 --transport binary
"""

from __future__ import annotations

import argparse
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.data import zipf_data  # noqa: E402
from repro.protocol import expand_users  # noqa: E402
from repro.service import ServiceClient  # noqa: E402

DOMAIN = 32
EPSILON = 1.0
NUM_CLIENTS = 20_000
CAMPAIGN = "smoke"

_LISTENING = re.compile(r"listening on http://[\d.]+:(\d+)")


class Server:
    """One ``repro serve`` subprocess bound to an ephemeral port."""

    def __init__(self, checkpoint_dir: str, workers: int, transport: str):
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",  # ephemeral: the OS picks a free port, no collisions
                "--workers",
                str(workers),
                "--transport",
                transport,
                "--checkpoint-dir",
                checkpoint_dir,
                "--checkpoint-interval",
                "5",
                "--campaign",
                CAMPAIGN,
                "--workload",
                "Histogram",
                "--domain",
                str(DOMAIN),
                "--epsilon",
                str(EPSILON),
            ],
            cwd=REPO_ROOT,
            env={
                **__import__("os").environ,
                "PYTHONPATH": str(REPO_ROOT / "src"),
            },
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.lines: list[str] = []
        self.port: int | None = None
        self._bound = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.process.stdout:
            self.lines.append(line)
            match = _LISTENING.search(line)
            if match and self.port is None:
                self.port = int(match.group(1))
                self._bound.set()
        self._bound.set()  # EOF: unblock waiters even on startup failure

    def wait_ready(self, timeout: float = 60.0) -> int:
        deadline = time.time() + timeout
        self._bound.wait(timeout)
        if self.port is None:
            output = "".join(self.lines)
            self.process.kill()
            raise SystemExit(f"server never reported its port:\n{output}")
        while time.time() < deadline:
            try:
                ServiceClient("127.0.0.1", self.port, timeout=2.0).healthz()
                return self.port
            except Exception:
                if self.process.poll() is not None:
                    raise SystemExit(
                        "server died during startup:\n" + "".join(self.lines)
                    )
                time.sleep(0.1)
        raise SystemExit(f"server on :{self.port} never became healthy")


_PROM_COMMENT = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$")
_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? "
    r"(?:[+-]?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|Inf)|NaN)$"
)


def check_prometheus_scrape(
    client: ServiceClient, required_families: tuple[str, ...]
) -> None:
    """Scrape /v1/metrics?format=prometheus and fail on malformed lines,
    missing families, or a latency histogram with no observations."""
    text = client.prometheus_metrics()
    typed: set[str] = set()
    samples: dict[str, float] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#"):
            if not _PROM_COMMENT.match(line):
                raise SystemExit(
                    f"[smoke] FAIL: malformed exposition comment at line "
                    f"{number}: {line!r}"
                )
            _, kind, family = line.split(" ")[:3]
            if kind == "TYPE":
                typed.add(family)
            continue
        if not _PROM_SAMPLE.match(line):
            raise SystemExit(
                f"[smoke] FAIL: malformed exposition sample at line "
                f"{number}: {line!r}"
            )
        name = line.split("{")[0].split(" ")[0]
        samples[line.rsplit(" ", 1)[0]] = float(
            line.rsplit(" ", 1)[1].replace("Inf", "inf")
        )
        samples.setdefault(name, 0.0)
    for family in required_families:
        if family not in typed:
            raise SystemExit(
                f"[smoke] FAIL: exposition is missing a TYPE header for "
                f"required family {family!r}"
            )
        if not any(key.startswith(family) for key in samples):
            raise SystemExit(
                f"[smoke] FAIL: exposition has no samples for required "
                f"family {family!r}"
            )
    latency_count = next(
        (
            value
            for key, value in samples.items()
            if key.startswith("repro_ingest_latency_seconds_count")
        ),
        0.0,
    )
    if latency_count <= 0:
        raise SystemExit(
            "[smoke] FAIL: ingest latency histogram recorded no observations"
        )
    print(
        f"[smoke] prometheus scrape: {len(text.splitlines())} lines valid, "
        f"{len(typed)} families, ingest latency count {latency_count:g}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="cluster worker processes (0 = single-process service)",
    )
    parser.add_argument(
        "--transport",
        choices=("json", "binary"),
        default="json",
        help="ingest wire format the SDK ships reports over",
    )
    arguments = parser.parse_args()
    checkpoint_dir = tempfile.mkdtemp(prefix="repro-service-smoke-")
    try:
        return smoke(arguments, checkpoint_dir)
    finally:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)


def smoke(arguments, checkpoint_dir: str) -> int:
    server = Server(checkpoint_dir, arguments.workers, arguments.transport)
    try:
        port = server.wait_ready()
        print(
            f"[smoke] repro serve bound ephemeral port {port} "
            f"(workers={arguments.workers}, transport={arguments.transport}, "
            f"checkpoints {checkpoint_dir})"
        )
        client = ServiceClient("127.0.0.1", port, transport=arguments.transport)
        truth = zipf_data(DOMAIN, NUM_CLIENTS, seed=1)
        values = expand_users(truth)
        rng = np.random.default_rng(0)
        rng.shuffle(values)

        reporter = client.reporter(CAMPAIGN, batch_size=1000, rng=rng)
        start = time.perf_counter()
        reporter.report_many(values)
        reporter.flush_all()
        answer = client.query(CAMPAIGN, sync=True)
        elapsed = time.perf_counter() - start
        print(
            f"[smoke] ingested {answer['num_reports']:,} reports in "
            f"{elapsed:.2f} s ({answer['num_reports'] / elapsed:,.0f} "
            "reports/sec end-to-end)"
        )
        assert answer["num_reports"] == NUM_CLIENTS, answer["num_reports"]

        estimates = np.asarray(answer["estimates"])
        errors = np.abs(estimates - truth)
        sigma = np.asarray(answer["standard_errors"])
        worst = float((errors / sigma).max())
        print(
            f"[smoke] accuracy: mean |err| = {errors.mean():.1f} users, "
            f"worst query at {worst:.2f} sigma"
        )
        if worst > 6.0:
            print("[smoke] FAIL: estimate outside 6-sigma tolerance")
            return 1

        check_prometheus_scrape(
            client,
            required_families=(
                "repro_uptime_seconds",
                "repro_http_requests_total",
                "repro_ingest_latency_seconds",
                "repro_campaign_reports",
            ),
        )

        client.checkpoint()
        pre_kill = client.query(CAMPAIGN, sync=True)
        client.close()
        print("[smoke] SIGKILL the server (no graceful shutdown)")
        server.process.send_signal(signal.SIGKILL)
        server.process.wait(timeout=30)

        server2 = Server(checkpoint_dir, arguments.workers, arguments.transport)
        try:
            port2 = server2.wait_ready()
            print(f"[smoke] restarted on ephemeral port {port2}")
            client2 = ServiceClient(
                "127.0.0.1", port2, transport=arguments.transport
            )
            health = client2.healthz()
            assert health["recovered"], "server did not recover the checkpoint"
            post = client2.query(CAMPAIGN, sync=True)
            if post["estimates"] != pre_kill["estimates"]:
                print("[smoke] FAIL: recovered estimates not bit-identical")
                return 1
            if post["num_reports"] != pre_kill["num_reports"]:
                print("[smoke] FAIL: recovered report count drifted")
                return 1
            print(
                f"[smoke] recovery: {post['num_reports']:,} reports restored, "
                "estimates bit-identical"
            )
            client2.send_reports(CAMPAIGN, [0, 1, 2])
            after = client2.query(CAMPAIGN, sync=True)["num_reports"]
            assert after == NUM_CLIENTS + 3, after
            print("[smoke] recovered service still ingesting — PASS")
            client2.close()
        finally:
            server2.process.send_signal(signal.SIGTERM)
            try:
                server2.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server2.process.kill()
        return 0
    finally:
        if server.process.poll() is None:
            server.process.kill()


if __name__ == "__main__":
    sys.exit(main())
