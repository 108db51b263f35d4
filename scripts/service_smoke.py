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

``--adaptive`` runs the multi-round scenario instead: a 2-round adaptive
campaign ingests a round-1 cohort, checkpoints, keeps a copy of the
checkpoint directory, advances, and is SIGKILLed; putting the copy back
leaves the disk **between the round checkpoint and the persisted
strategy swap** — the narrowest recovery window.  The restarted service
must come back in round 1 with bit-identical estimates, replay the
advance to the identical selection and strategy, reject stale round-1
reports, and finish the campaign with the combined two-round answer
beating the round-1-only answer on worst-sub-workload error.

Exits non-zero on any failure.  Run::

    PYTHONPATH=src python scripts/service_smoke.py
    PYTHONPATH=src python scripts/service_smoke.py --workers 2 --transport binary
    PYTHONPATH=src python scripts/service_smoke.py --adaptive
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

    def __init__(
        self,
        checkpoint_dir: str,
        workers: int,
        transport: str,
        extra: tuple[str, ...] = (),
    ):
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
                # repeated options override the defaults above (argparse
                # keeps the last occurrence)
                *extra,
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


def worst_group_error(estimates, truth, num_reports: int) -> float:
    """Max over the two sub-workload halves of per-report RMS error."""
    error = np.asarray(estimates, dtype=float) - np.asarray(truth, dtype=float)
    half = DOMAIN // 2

    def rms(block):
        return float(np.sqrt(np.mean(block**2)))

    return max(rms(error[:half]), rms(error[half:])) / num_reports


def run_adaptive(transport: str) -> int:
    """The multi-round crash drill: SIGKILL inside the advance window."""
    checkpoint_dir = tempfile.mkdtemp(prefix="repro-adaptive-smoke-")
    adaptive_args = (
        "--epsilon", "2.0",
        "--adaptive", "2",
        "--adaptive-groups", "2",
        "--iterations", "100",
        # no periodic checkpoint may touch disk between the copy and the
        # kill below
        "--checkpoint-interval", "3600",
    )
    server = Server(checkpoint_dir, 0, transport, extra=adaptive_args)
    port = server.wait_ready()
    print(
        f"[smoke] adaptive serve bound ephemeral port {port} "
        f"(2 rounds, checkpoints {checkpoint_dir})"
    )
    try:
        client = ServiceClient("127.0.0.1", port, transport=transport)
        truth_r1 = zipf_data(DOMAIN, NUM_CLIENTS, seed=1)
        rng = np.random.default_rng(0)
        cohort_r1 = expand_users(truth_r1)
        rng.shuffle(cohort_r1)

        reporter = client.reporter(CAMPAIGN, batch_size=1000, rng=rng)
        assert reporter.round_id == 1, reporter.round_id
        reporter.report_many(cohort_r1)
        reporter.flush_all()
        round1 = client.query(CAMPAIGN, sync=True)
        assert round1["num_reports"] == NUM_CLIENTS, round1["num_reports"]
        assert round1["round"] == 1, round1["round"]
        round1_error = worst_group_error(
            round1["estimates"], truth_r1, NUM_CLIENTS
        )
        print(
            f"[smoke] round 1: {round1['num_reports']:,} reports, worst "
            f"sub-workload error {round1_error:.4f} users/report"
        )

        # a checkpoint now holds what the advance's own round checkpoint
        # writes; putting a copy of it back after the kill leaves the disk
        # in round 1 while memory had swapped to the round-2 strategy
        client.checkpoint()
        round_checkpoint = tempfile.mkdtemp(prefix="repro-adaptive-round-")
        shutil.copytree(checkpoint_dir, round_checkpoint, dirs_exist_ok=True)
        report = client.advance_campaign(CAMPAIGN)
        assert report["round"] == 2, report
        strategy = client.strategy(CAMPAIGN)
        client.close()
        print(
            f"[smoke] advanced to round 2 (selected sub-workload "
            f"{report['selected_group']}); SIGKILL, then the round "
            "checkpoint goes back on disk"
        )
        server.process.send_signal(signal.SIGKILL)
        server.process.wait(timeout=30)
        shutil.rmtree(checkpoint_dir)
        shutil.copytree(round_checkpoint, checkpoint_dir)

        server2 = Server(checkpoint_dir, 0, transport, extra=adaptive_args)
        port2 = server2.wait_ready()
        print(f"[smoke] restarted on ephemeral port {port2}")
        try:
            client2 = ServiceClient("127.0.0.1", port2, transport=transport)
            assert client2.healthz()["recovered"], "checkpoint not recovered"
            recovered = client2.query(CAMPAIGN, sync=True)
            if recovered["round"] != 1:
                print(f"[smoke] FAIL: recovered round {recovered['round']}")
                return 1
            if recovered["estimates"] != round1["estimates"]:
                print("[smoke] FAIL: recovered estimates not bit-identical")
                return 1
            print(
                f"[smoke] recovery: back in round 1, "
                f"{recovered['num_reports']:,} reports bit-identical"
            )

            replayed = client2.advance_campaign(CAMPAIGN)
            if replayed != report:
                print(
                    "[smoke] FAIL: replayed advance diverged:\n"
                    f"  crash run: {report}\n  replay:    {replayed}"
                )
                return 1
            if not np.array_equal(
                client2.strategy(CAMPAIGN).probabilities,
                strategy.probabilities,
            ):
                print("[smoke] FAIL: replayed round-2 strategy diverged")
                return 1
            print("[smoke] replayed advance: identical selection + strategy")

            try:
                client2.send_reports(CAMPAIGN, [0, 1], round_id=1)
            except Exception as error:
                assert "stale round" in str(error), error
                print("[smoke] stale round-1 reports rejected loudly")
            else:
                print("[smoke] FAIL: stale round-1 reports were accepted")
                return 1

            truth_r2 = zipf_data(DOMAIN, NUM_CLIENTS, seed=2)
            cohort_r2 = expand_users(truth_r2)
            rng.shuffle(cohort_r2)
            reporter2 = client2.reporter(CAMPAIGN, batch_size=1000, rng=rng)
            assert reporter2.round_id == 2, reporter2.round_id
            reporter2.report_many(cohort_r2)
            reporter2.flush_all()
            final = client2.query(CAMPAIGN, sync=True)
            assert final["num_reports"] == 2 * NUM_CLIENTS
            combined_error = worst_group_error(
                final["estimates"], truth_r1 + truth_r2, 2 * NUM_CLIENTS
            )
            ledger = client2.campaign(CAMPAIGN)["adaptive"]["ledger"]
            assert ledger["remaining_epsilon"] == 0.0, ledger
            check_prometheus_scrape(
                client2,
                required_families=(
                    "repro_uptime_seconds",
                    "repro_http_requests_total",
                    "repro_ingest_latency_seconds",
                    "repro_campaign_reports",
                    "repro_campaign_epsilon_spent",
                    "repro_campaign_epsilon_remaining",
                    "repro_campaign_ledger_info",
                ),
            )
            print(
                f"[smoke] round 2: {final['num_reports']:,} total reports, "
                f"worst sub-workload error {combined_error:.4f} users/report "
                f"(round 1 alone: {round1_error:.4f}), budget fully spent"
            )
            if combined_error >= round1_error:
                print("[smoke] FAIL: round 2 did not improve the worst group")
                return 1
            print("[smoke] adaptive campaign drill — PASS")
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
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="run the 2-round adaptive crash drill instead",
    )
    arguments = parser.parse_args()
    if arguments.adaptive:
        if arguments.workers:
            parser.error("--adaptive does not support cluster workers")
        return run_adaptive(arguments.transport)

    checkpoint_dir = tempfile.mkdtemp(prefix="repro-service-smoke-")
    server = Server(checkpoint_dir, arguments.workers, arguments.transport)
    port = server.wait_ready()
    print(
        f"[smoke] repro serve bound ephemeral port {port} "
        f"(workers={arguments.workers}, transport={arguments.transport}, "
        f"checkpoints {checkpoint_dir})"
    )
    try:
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
        port2 = server2.wait_ready()
        print(f"[smoke] restarted on ephemeral port {port2}")
        try:
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
