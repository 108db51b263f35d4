"""Multi-process scale-out tier for the collection service.

The server side of the paper's mechanism only ever *adds*: every report
folds into a response histogram, estimates are a linear function of the
folded sums (the factorization view), so aggregation parallelizes across
processes without changing a single bit of the answer.  This module is
that seam: a coordinator (the asyncio HTTP process) dispatches validated
report batches over :mod:`multiprocessing` pipes to ``K`` worker
processes, each folding through its own
:class:`~repro.service.ingest.IngestPipeline` into shard accumulators it
exclusively owns.  Queries and checkpoints pull per-worker snapshots back
through the version-tagged :meth:`ShardAccumulator.to_bytes` payloads and
merge them — a commutative-monoid merge of integer counts, so serial and
worker-pool folds are bit-identical.

Division of labor: the coordinator reads HTTP framing and routes on the
path + content type only; ingest *bodies* — JSON or binary frames — are
shipped to a worker verbatim, and the worker parses, validates, and folds
them, so the per-report decode cost lands on the worker's core and the
coordinator stays an almost pure switchboard.  A worker replies only after
folding, and validation failures travel back on the reply and surface as a
synchronous 400, exactly like the single-process path.  Dispatch is
pipelined: a sender thread and a reader thread per worker connection keep
any number of batches in flight (bounded by a per-worker semaphore), with
replies matched to awaiting handlers in FIFO order — the order the worker
necessarily answers in.  The same order means a snapshot or cut sent after
a batch's ack always includes that batch.

Failure semantics depend on whether the pool has a write-ahead log:

* **Without a WAL** (``wal=None``, the default) failures are deliberately
  loud: a worker that dies (crash, ``SIGKILL``) takes its un-checkpointed
  reports with it, so the pool marks itself degraded and every subsequent
  submit/snapshot/cut raises
  :class:`~repro.exceptions.ClusterDegradedError` instead of silently
  under-counting.  Recovery is a restart from the last coordinated
  checkpoint.
* **With a WAL** the pool is *self-healing*: every dispatched ingest body
  carries its WAL sequence, and the coordinator remembers which sequences
  each worker has folded since the last checkpoint *cut* (a checkpoint in
  WAL mode serializes and resets every worker's accumulators into
  the coordinator's recovery base — so a worker's live state is exactly
  the records routed to it since that cut).  When a worker dies, its
  pending dispatches fail internally and are re-routed to live workers,
  a supervisor task respawns the process under bounded exponential
  backoff, re-opens its campaigns, and replays its routed records from
  the WAL — bit-identical, because accumulator folds commute.  Only when
  a worker's restart budget is exhausted does the pool degrade loudly.

Workers are spawned (not forked) by default: the coordinator runs threads
and an event loop, and forking such a process can deadlock in numpy/BLAS
locks.  A spawned worker starts by importing this module, which loads
numpy but none of ``scipy.linalg``, ``scipy.special``, ``scipy.stats``
and ``scipy.optimize``: 385 modules and 42.5 MiB peak RSS on a 2-vCPU
Xeon VM.  Steady-state dispatch is a pickle over a pipe.
"""

from __future__ import annotations

import asyncio
import collections
import multiprocessing
import queue
import signal
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ClusterDegradedError, ReproError, ServiceError
from repro.protocol.engine import ShardAccumulator
from repro.service.framing import unpack_reports
from repro.service.ingest import (
    IngestPipeline,
    fold_frame_body,
    fold_json_body,
)
from repro.telemetry import MetricsRegistry, Tracer

#: Maximum dispatched-but-unanswered batches per worker; acquiring past it
#: awaits (backpressure), bounding pipe-buffer growth under overload.
MAX_INFLIGHT_PER_WORKER = 64

#: Sender-queue sentinel that tells the sender thread to exit.
_CLOSE = object()

#: How the worker processes are created.  ``spawn`` is the safe default
#: (see module docstring); ``fork`` is faster to start and fine for
#: short-lived single-threaded drivers.
DEFAULT_START_METHOD = "spawn"

#: Supervision defaults: how many times one worker may be respawned before
#: the pool gives up and degrades, and the exponential backoff between
#: respawn attempts (the same 0.25 s-doubling-to-5 s policy the edge
#: outbox uses for upstream retries).
DEFAULT_RESTART_LIMIT = 5
DEFAULT_RESTART_BACKOFF_BASE = 0.25
DEFAULT_RESTART_BACKOFF_CAP = 5.0


class _WorkerLost(Exception):
    """Internal: the worker handling a call died before replying.  Never
    escapes the pool — submit paths re-route to a live worker, control
    paths wait for the supervisor and retry."""


class _ShardSession:
    """Worker-side stand-in for a :class:`ProtocolSession`: a worker never
    reconstructs estimates, so it only needs the output alphabet size."""

    __slots__ = ("num_outputs",)

    def __init__(self, num_outputs: int) -> None:
        self.num_outputs = int(num_outputs)

    def new_accumulator(self) -> ShardAccumulator:
        return ShardAccumulator(self.num_outputs)


class _ShardCampaign:
    """Worker-side view of one campaign: its shard accumulator."""

    __slots__ = ("name", "session", "accumulator")

    def __init__(self, name: str, num_outputs: int) -> None:
        self.name = name
        self.session = _ShardSession(num_outputs)
        self.accumulator = self.session.new_accumulator()

    @property
    def num_reports(self) -> int:
        return self.accumulator.num_reports


class ShardManager:
    """The worker's campaign registry, duck-typed to what
    :class:`~repro.service.ingest.IngestPipeline` needs from a
    :class:`~repro.service.campaigns.CampaignManager` — strategies,
    operators, and query answering stay on the coordinator.

    Examples
    --------
    >>> manager = ShardManager()
    >>> manager.open("demo", num_outputs=4)
    >>> manager.get("demo").session.num_outputs
    4
    """

    def __init__(self) -> None:
        self._campaigns: dict[str, _ShardCampaign] = {}

    def open(self, name: str, num_outputs: int) -> None:
        existing = self._campaigns.get(name)
        if existing is not None:
            if existing.session.num_outputs != int(num_outputs):
                raise ServiceError(
                    f"campaign {name!r} already open over "
                    f"{existing.session.num_outputs} outputs, not {num_outputs}"
                )
            return
        self._campaigns[name] = _ShardCampaign(name, num_outputs)

    def get(self, name: str) -> _ShardCampaign:
        campaign = self._campaigns.get(name)
        if campaign is None:
            known = ", ".join(sorted(self._campaigns)) or "none"
            raise ServiceError(
                f"unknown campaign {name!r} (open on this worker: {known})"
            )
        return campaign

    def campaigns(self) -> list[_ShardCampaign]:
        return list(self._campaigns.values())

    def __len__(self) -> int:
        return len(self._campaigns)


def _worker_main(connection):
    """Entry point of one worker process (module-level so ``spawn`` can
    import it).  Shutdown is protocol-driven — ``("stop",)`` or pipe EOF —
    so terminal signals aimed at the process *group* (an operator's
    Ctrl-C) leave workers alive for the coordinator's graceful stop."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    try:
        asyncio.run(_worker_loop(connection))
    finally:
        connection.close()


async def _worker_loop(connection):
    manager = ShardManager()
    # Each worker owns its telemetry: only trace *ids* cross the pipe, and
    # the coordinator merges the histogram snapshots pulled via "stats".
    registry = MetricsRegistry()
    pipeline = IngestPipeline(manager, registry=registry, tracer=Tracer(registry))
    loop = asyncio.get_running_loop()
    while True:
        try:
            message = await loop.run_in_executor(None, connection.recv)
        except (EOFError, OSError):
            break  # coordinator is gone; nothing left to serve
        try:
            reply = ("ok", await _handle(message, manager, pipeline))
        except ReproError as error:
            # A validation/client fault: travels back as a 400.
            reply = ("err", f"{error}")
        except Exception as error:  # noqa: BLE001 - reply, don't die
            # An unexpected internal bug: tagged so the coordinator maps
            # it to a 500, exactly as the in-process path would.
            reply = ("fatal", f"{type(error).__name__}: {error}")
        try:
            connection.send(reply)
        except (BrokenPipeError, OSError):
            break
        if message[0] == "stop":
            break


async def _handle(message, manager: ShardManager, pipeline: IngestPipeline):
    op = message[0]
    if op == "json":
        _, payload, single, trace_id = message
        per_campaign = await fold_json_body(pipeline, payload, single, trace_id)
        return {"accepted": sum(per_campaign.values()), "campaigns": per_campaign}
    if op == "frames":
        _, payload, trace_id = message
        per_campaign = await fold_frame_body(pipeline, payload, trace_id)
        return {"accepted": sum(per_campaign.values()), "campaigns": per_campaign}
    if op == "reports":
        _, name, array = message
        return await pipeline.submit_reports(name, array)
    if op == "reports_packed":
        _, name, item_size, payload = message
        return await pipeline.submit_reports(
            name, unpack_reports(payload, item_size)
        )
    if op == "open":
        _, name, num_outputs = message
        manager.open(name, num_outputs)
        return None
    if op == "snapshot":
        _, only = message
        return {
            campaign.name: campaign.accumulator.to_bytes()
            for campaign in manager.campaigns()
            if campaign.num_reports and (only is None or campaign.name == only)
        }
    if op == "cut":
        # WAL-mode checkpoint: serialize *and reset* every accumulator in
        # one synchronous step (no await between, so nothing can interleave).
        # Afterwards this worker's live state is exactly the records routed
        # to it since this cut — the invariant that lets a respawn rebuild
        # it from checkpoint + WAL replay alone.
        payloads = {
            campaign.name: campaign.accumulator.to_bytes()
            for campaign in manager.campaigns()
            if campaign.num_reports
        }
        for campaign in manager.campaigns():
            if campaign.num_reports:
                campaign.accumulator = campaign.session.new_accumulator()
        return payloads
    if op == "stats":
        metrics = pipeline._metrics
        return {
            "ingest": pipeline.stats.to_json(),
            # Bucket snapshot travels as plain lists; the coordinator's
            # element-wise merge is commutative, so the cluster-wide
            # histogram is independent of worker order.
            "fold_seconds": None if metrics is None else metrics.fold_seconds.snapshot(),
            "campaigns": {
                campaign.name: campaign.num_reports
                for campaign in manager.campaigns()
            },
        }
    if op == "ping":
        return "pong"
    if op == "stop":
        return None
    raise ServiceError(f"unknown cluster op {op!r}")


def _replay_message(record) -> tuple:
    """The worker op tuple that re-folds one WAL ingest record.  Only body
    kinds that are dispatched to workers can appear in a worker's routed
    set; edge partials (kind 4) fold on the coordinator and never do."""
    from repro.service.wal import (
        KIND_FRAMES,
        KIND_JSON_BATCH,
        KIND_JSON_SINGLE,
    )

    if record.kind == KIND_JSON_SINGLE:
        return ("json", record.body, True, "")
    if record.kind == KIND_JSON_BATCH:
        return ("json", record.body, False, "")
    if record.kind == KIND_FRAMES:
        return ("frames", record.body, "")
    raise ServiceError(
        f"WAL record {record.sequence} (kind {record.kind}) is not a "
        "worker-dispatched body; cannot replay it to a worker"
    )



@dataclass
class _WorkerHandle:
    """Coordinator-side state for one worker process.

    The sender thread owns all writes to the pipe (fed by an unbounded
    queue; admission is bounded upstream by ``inflight``), the reader
    thread owns all reads and hands each reply to the event loop, which
    resolves the oldest pending future — FIFO, matching the order the
    single-loop worker necessarily answers in.

    Supervised (WAL-mode) pools walk ``state`` through
    ``up → down → restoring → up`` on each death/respawn; ``generation``
    increments per respawn so thread callbacks from a dead incarnation's
    reader can never touch the new incarnation's pending futures.
    ``routed`` is the set of WAL sequences this worker has folded since
    the last checkpoint cut — the exact replay set for a respawn.
    """

    index: int
    process: multiprocessing.process.BaseProcess
    connection: object
    inflight: asyncio.Semaphore
    send_queue: "queue.SimpleQueue" = field(default_factory=queue.SimpleQueue)
    pending: "collections.deque[asyncio.Future]" = field(
        default_factory=collections.deque
    )
    sender: threading.Thread | None = None
    reader: threading.Thread | None = None
    alive: bool = True
    fail_reason: str = ""
    dispatched_batches: int = 0
    dispatched_reports: int = 0
    state: str = "up"  # up | down | restoring | failed
    generation: int = 0
    restarts: int = 0
    supervising: bool = False
    routed: set = field(default_factory=set)


class WorkerPool:
    """Coordinator handle over ``K`` worker processes.

    All methods are coroutines meant to run on the service's event loop;
    the blocking pipe round trips run on executor threads, one in flight
    per worker (a per-worker lock serializes request/reply pairs while
    different workers proceed in parallel).

    Parameters
    ----------
    num_workers:
        Worker process count ``K``.
    start_method:
        ``multiprocessing`` start method; see :data:`DEFAULT_START_METHOD`.
    wal:
        Optional :class:`~repro.service.wal.WriteAheadLog`.  Enables
        supervision: dead workers are respawned and their shards rebuilt
        from checkpoint cuts + WAL replay (see the module docstring).
        Without it, a dead worker degrades the pool loudly, exactly the
        pre-WAL behavior.
    restart_limit:
        Respawns allowed per worker before the pool degrades.
    restart_backoff_base, restart_backoff_cap:
        Exponential backoff between respawn attempts, in seconds.
    """

    def __init__(
        self,
        num_workers: int,
        *,
        start_method: str = DEFAULT_START_METHOD,
        wal=None,
        restart_limit: int = DEFAULT_RESTART_LIMIT,
        restart_backoff_base: float = DEFAULT_RESTART_BACKOFF_BASE,
        restart_backoff_cap: float = DEFAULT_RESTART_BACKOFF_CAP,
    ) -> None:
        if num_workers < 1:
            raise ServiceError(f"need >= 1 cluster worker, got {num_workers}")
        if restart_limit < 0:
            raise ServiceError(f"restart_limit must be >= 0, got {restart_limit}")
        self.num_workers = num_workers
        self.wal = wal
        self.restart_limit = restart_limit
        self.restart_backoff_base = restart_backoff_base
        self.restart_backoff_cap = restart_backoff_cap
        self._context = multiprocessing.get_context(start_method)
        self._workers: list[_WorkerHandle] = []
        self._cursor = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self.accepted_reports: dict[str, int] = {}
        #: Campaigns opened on the workers (name -> num_outputs), so a
        #: respawned worker can be given the same registry before replay.
        self._campaign_specs: dict[str, int] = {}
        self._supervisors: set[asyncio.Task] = set()
        self._state_event: asyncio.Event = asyncio.Event()
        self._stopping = False

    @property
    def supervised(self) -> bool:
        """Whether dead workers are respawned (requires a WAL to rebuild
        their shards from)."""
        return self.wal is not None

    # -- lifecycle ---------------------------------------------------------

    def _spawn_process(self, index: int):
        """Spawn one worker process; returns ``(process, parent_pipe_end)``."""
        parent_end, child_end = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(child_end,),
            name=f"repro-cluster-{index}",
            daemon=True,
        )
        process.start()
        # The parent must drop its copy of the child's pipe end, or a
        # dead worker would never read as EOF.
        child_end.close()
        return process, parent_end

    def _wire_worker(self, worker: _WorkerHandle) -> None:
        """Start the sender/reader thread pair for the worker's *current*
        process + connection.  The threads capture the connection, queue,
        and generation as arguments — never read them off the handle — so
        a respawn can swap the handle's plumbing without racing them."""
        generation = worker.generation
        worker.sender = threading.Thread(
            target=self._sender_loop,
            args=(worker.connection, worker.send_queue),
            name=f"repro-cluster-send-{worker.index}.{generation}",
            daemon=True,
        )
        worker.reader = threading.Thread(
            target=self._reader_loop,
            args=(worker, worker.connection, generation),
            name=f"repro-cluster-read-{worker.index}.{generation}",
            daemon=True,
        )
        worker.sender.start()
        worker.reader.start()

    async def start(self) -> None:
        """Spawn the worker processes and wait until each answers a ping
        (so an import failure in a worker surfaces here, not on the first
        report)."""
        if self._workers:
            raise ServiceError("worker pool already started")
        self._loop = asyncio.get_running_loop()
        self._stopping = False
        for index in range(self.num_workers):
            process, parent_end = self._spawn_process(index)
            worker = _WorkerHandle(
                index=index,
                process=process,
                connection=parent_end,
                inflight=asyncio.Semaphore(MAX_INFLIGHT_PER_WORKER),
            )
            self._wire_worker(worker)
            self._workers.append(worker)
        try:
            await asyncio.gather(
                *(self._call(worker, ("ping",)) for worker in self._workers)
            )
        except (ServiceError, _WorkerLost) as error:
            # One worker failed to come up (import error, broken spawn
            # environment): don't leak the ones that did.
            await self.stop(graceful=False)
            if isinstance(error, _WorkerLost):
                raise ServiceError(f"cluster worker failed to start: {error}")
            raise

    async def stop(self, *, graceful: bool = True) -> None:
        """Shut the workers down.

        ``graceful=False`` is the crash path: workers are killed outright
        (they ignore SIGTERM by design), losing whatever was not yet
        checkpointed — exactly what a machine failure would lose.
        """
        self._stopping = True
        for task in list(self._supervisors):
            task.cancel()
        if self._supervisors:
            await asyncio.gather(*self._supervisors, return_exceptions=True)
            self._supervisors.clear()
        if graceful:
            for worker in self._workers:
                if worker.alive:
                    try:
                        await self._call(worker, ("stop",))
                    except (ServiceError, _WorkerLost, ClusterDegradedError):
                        pass  # died mid-shutdown; reaped below
        for worker in self._workers:
            if graceful:
                await asyncio.to_thread(worker.process.join, 10)
            if worker.process.is_alive():
                worker.process.kill()
                await asyncio.to_thread(worker.process.join, 10)
            worker.alive = False
            worker.send_queue.put(_CLOSE)
            worker.connection.close()  # unblocks the reader thread
        for worker in self._workers:
            for thread in (worker.sender, worker.reader):
                if thread is not None:
                    await asyncio.to_thread(thread.join, 10)
        self._workers = []

    @property
    def started(self) -> bool:
        return bool(self._workers)

    @property
    def workers_alive(self) -> int:
        return sum(
            1
            for worker in self._workers
            if worker.alive and worker.process.is_alive()
        )

    def worker_pids(self) -> list[int]:
        """The worker process ids (tests aim their SIGKILLs with this)."""
        return [worker.process.pid for worker in self._workers]

    # -- plumbing ----------------------------------------------------------

    def _sender_loop(self, connection, send_queue) -> None:
        while True:
            message = send_queue.get()
            if message is _CLOSE:
                return
            try:
                connection.send(message)
            except (
                BrokenPipeError,
                ConnectionResetError,
                OSError,
                ValueError,
            ):
                # The reader thread sees the same death as an EOF and
                # fails the pending futures; just stop writing.
                return

    def _reader_loop(self, worker: _WorkerHandle, connection, generation: int) -> None:
        while True:
            try:
                reply = connection.recv()
            except (EOFError, BrokenPipeError, ConnectionResetError, OSError):
                self._from_thread(self._worker_died, worker, generation)
                return
            self._from_thread(self._deliver, worker, generation, reply)

    def _from_thread(self, callback, *args) -> None:
        try:
            self._loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:
            pass  # loop already closed (shutdown race)

    def _deliver(self, worker: _WorkerHandle, generation: int, reply) -> None:
        if generation != worker.generation:
            return  # late reply from a dead incarnation
        if worker.pending:
            future = worker.pending.popleft()
            if not future.done():
                future.set_result(reply)

    def _pulse(self) -> None:
        """Wake everything waiting on a worker state change."""
        event, self._state_event = self._state_event, asyncio.Event()
        event.set()

    def _worker_died(self, worker: _WorkerHandle, generation: int | None = None) -> None:
        if generation is not None and generation != worker.generation:
            return  # a dead incarnation's reader reporting an old death
        if not worker.alive:
            return
        worker.alive = False
        if not self.supervised:
            worker.state = "failed"
            worker.fail_reason = (
                f"cluster worker {worker.index} (pid {worker.process.pid}) died; "
                "reports since the last checkpoint are lost — restart the "
                "service to recover from it"
            )
            while worker.pending:
                future = worker.pending.popleft()
                if not future.done():
                    future.set_exception(ClusterDegradedError(worker.fail_reason))
            return
        worker.state = "down"
        worker.fail_reason = (
            f"cluster worker {worker.index} (pid {worker.process.pid}) died"
        )
        # Unanswered dispatches re-route: the dead worker's memory is
        # discarded wholesale (its rebuilt state is checkpoint cut + WAL
        # replay of *successfully routed* records only), so re-sending an
        # unacknowledged op to another worker cannot double-count.
        while worker.pending:
            future = worker.pending.popleft()
            if not future.done():
                future.set_exception(_WorkerLost(worker.fail_reason))
        # Unblock the old sender thread; the respawn builds a fresh queue.
        worker.send_queue.put(_CLOSE)
        self._pulse()
        if not worker.supervising and not self._stopping:
            worker.supervising = True
            task = asyncio.create_task(
                self._supervise(worker),
                name=f"repro-cluster-supervise-{worker.index}",
            )
            self._supervisors.add(task)
            task.add_done_callback(self._supervisors.discard)

    async def _supervise(self, worker: _WorkerHandle) -> None:
        """Respawn one dead worker under backoff + budget, rebuild its
        shards (campaign registry + WAL replay of its routed records), and
        return it to service.  Loops if the respawn itself dies."""
        try:
            while True:
                if worker.restarts >= self.restart_limit:
                    worker.state = "failed"
                    worker.fail_reason = (
                        f"cluster worker {worker.index} exceeded its restart "
                        f"budget ({self.restart_limit}); pool degraded — "
                        "restart the service to recover from the last "
                        "checkpoint + WAL"
                    )
                    self._pulse()
                    return
                backoff = min(
                    self.restart_backoff_cap,
                    self.restart_backoff_base * (2**worker.restarts),
                )
                worker.restarts += 1
                await asyncio.sleep(backoff)
                try:
                    await self._respawn(worker)
                except _WorkerLost:
                    continue  # died again mid-restore; next attempt
                except asyncio.CancelledError:
                    raise
                except Exception as error:  # noqa: BLE001 - keep supervising
                    worker.fail_reason = (
                        f"cluster worker {worker.index} respawn failed: {error}"
                    )
                    continue
                return
        finally:
            worker.supervising = False

    async def _respawn(self, worker: _WorkerHandle) -> None:
        """One respawn attempt: new process, fresh plumbing, campaign
        registry, WAL replay of the worker's routed records."""
        # Reap the dead incarnation first.
        if worker.process.is_alive():
            worker.process.kill()
        await asyncio.to_thread(worker.process.join, 10)
        try:
            worker.connection.close()
        except OSError:
            pass
        process, parent_end = self._spawn_process(worker.index)
        # Swap the plumbing in place.  In-flight users of the old handle
        # already failed with _WorkerLost; the generation bump makes any
        # straggling thread callback a no-op.
        worker.generation += 1
        worker.process = process
        worker.connection = parent_end
        worker.send_queue = queue.SimpleQueue()
        worker.pending = collections.deque()
        worker.inflight = asyncio.Semaphore(MAX_INFLIGHT_PER_WORKER)
        self._wire_worker(worker)
        # Alive so _call works, but still state="down": the worker must
        # not become a dispatch target before its campaign registry is
        # re-opened, or a fresh ingest op would bounce with a spurious
        # unknown-campaign 400 (and tombstone a perfectly good record).
        worker.alive = True
        try:
            await self._call(worker, ("ping",))
            for name, num_outputs in self._campaign_specs.items():
                await self._call(worker, ("open", name, num_outputs))
            # Registry restored: routable again (fresh ops interleaving
            # with the replay below are fine — folds commute, and their
            # sequences join ``routed`` like any other dispatch).
            worker.state = "restoring"
            self._pulse()
            if worker.routed:
                records = await asyncio.to_thread(
                    self.wal.read_records, sequences=set(worker.routed)
                )
                for record in records:
                    await self._call(worker, _replay_message(record))
                self.wal.replayed_records_total += len(records)
        except Exception:
            worker.state = "down"
            worker.alive = False
            self._pulse()
            raise
        worker.state = "up"
        worker.fail_reason = ""
        self._pulse()

    async def _call(self, worker: _WorkerHandle, message):
        """One pipelined request/reply exchange with a worker.

        Any number of calls may be in flight per worker (up to the
        semaphore bound); replies resolve in send order.
        """
        async with worker.inflight:
            if not worker.alive:
                if self.supervised and worker.state != "failed":
                    raise _WorkerLost(worker.fail_reason or "worker is down")
                raise ClusterDegradedError(
                    worker.fail_reason or "worker pool is not running"
                )
            future = self._loop.create_future()
            # Append + enqueue with no await in between: the pending
            # order must match the pipe's send order.
            worker.pending.append(future)
            worker.send_queue.put(message)
            reply = await future
        status, value = reply
        if status == "err":
            raise ServiceError(value)
        if status == "fatal":
            # Not a ReproError, so the HTTP layer's defense-in-depth
            # handler answers 500, matching the in-process behavior.
            raise RuntimeError(f"cluster worker internal error: {value}")
        return value

    def _check_states(self) -> None:
        """Notice silently-exited processes (no EOF seen yet) and hand
        them to the death path."""
        for worker in self._workers:
            if worker.alive and not worker.process.is_alive():
                self._worker_died(worker, worker.generation)

    def _ensure_healthy(self) -> None:
        """Refuse to operate degraded: a dead worker means lost reports,
        and serving queries or accepting ingest over a silent gap would
        turn a crash into a wrong answer.  (Supervised pools degrade only
        once a restart budget is exhausted; a merely-down worker is the
        supervisor's problem, not the caller's.)"""
        if not self._workers:
            raise ServiceError("worker pool is not running")
        self._check_states()
        for worker in self._workers:
            if worker.state == "failed" or (
                not self.supervised and not worker.alive
            ):
                raise ClusterDegradedError(worker.fail_reason)

    @property
    def health(self) -> str:
        """``healthy`` / ``recovering`` / ``degraded`` (supervised pools);
        an unsupervised pool is ``healthy`` or ``degraded`` only."""
        if not self._workers:
            return "degraded"
        self._check_states()
        if any(
            worker.state == "failed" or (not self.supervised and not worker.alive)
            for worker in self._workers
        ):
            return "degraded"
        if any(worker.state != "up" for worker in self._workers):
            return "recovering"
        return "healthy"

    @property
    def restarts_total(self) -> int:
        """Worker respawns attempted over the pool's lifetime."""
        return sum(worker.restarts for worker in self._workers)

    async def _pick_worker(self) -> _WorkerHandle:
        """Next dispatch target, round-robin over live workers.  While
        every worker is down (all mid-respawn) this *waits* instead of
        failing — the ingest request rides out the blip; it only raises
        once the pool is actually degraded."""
        while True:
            self._ensure_healthy()
            live = [w for w in self._workers if w.state in ("up", "restoring")]
            if live:
                worker = live[self._cursor % len(live)]
                self._cursor += 1
                return worker
            await self._state_event.wait()

    async def _await_all_up(self) -> None:
        """Wait until every worker is ``up`` (degraded raises).  Control
        ops — snapshot, cut — need the whole pool, not a quorum:
        a missing worker's records would silently vanish from the fold."""
        while True:
            self._ensure_healthy()
            if all(worker.state == "up" for worker in self._workers):
                return
            await self._state_event.wait()

    def _next_worker(self) -> _WorkerHandle:
        worker = self._workers[self._cursor % len(self._workers)]
        self._cursor += 1
        return worker

    def _count_accepted(self, worker: _WorkerHandle, campaigns: dict[str, int]):
        worker.dispatched_batches += 1
        worker.dispatched_reports += sum(campaigns.values())
        for name, count in campaigns.items():
            self.accepted_reports[name] = (
                self.accepted_reports.get(name, 0) + count
            )

    async def _dispatch(self, message: tuple, wal_seq: int | None):
        """Route one ingest op to a worker and await its reply.

        Unsupervised pools keep the historical behavior exactly: pick the
        round-robin worker, fail loudly if any worker is dead.  Supervised
        pools re-route on a mid-flight worker death (safe — the dead
        worker's rebuilt state excludes unacknowledged ops) and record the
        op's WAL sequence in the folding worker's ``routed`` set once it
        acknowledges.
        """
        if not self.supervised:
            self._ensure_healthy()
            worker = self._next_worker()
            return worker, await self._call(worker, message)
        while True:
            worker = await self._pick_worker()
            try:
                reply = await self._call(worker, message)
            except _WorkerLost:
                continue  # re-route; the supervisor owns the corpse
            if wal_seq is not None:
                worker.routed.add(wal_seq)
            return worker, reply

    async def _broadcast(self, message: tuple) -> list:
        """Send one op to every worker and collect the replies.  In
        supervised mode this waits out worker deaths and re-issues the op
        to the whole (restored) pool until a fully-live round answers —
        sound because every broadcast op (open/snapshot) is idempotent."""
        if not self.supervised:
            self._ensure_healthy()
            return await asyncio.gather(
                *(self._call(worker, message) for worker in self._workers)
            )
        while True:
            await self._await_all_up()
            replies = await asyncio.gather(
                *(self._call(worker, message) for worker in self._workers),
                return_exceptions=True,
            )
            for reply in replies:
                if isinstance(reply, BaseException) and not isinstance(
                    reply, _WorkerLost
                ):
                    raise reply
            if not any(isinstance(reply, _WorkerLost) for reply in replies):
                return list(replies)

    # -- campaign + data plane ---------------------------------------------

    async def open_campaign(self, name: str, num_outputs: int) -> None:
        """Open a campaign's shard accumulator on every worker (and in the
        pool's registry, so a respawned worker re-opens it before replay)."""
        self._campaign_specs[name] = int(num_outputs)
        await self._broadcast(("open", name, int(num_outputs)))

    async def submit_json(
        self,
        payload: bytes,
        *,
        single: bool = False,
        trace_id: str = "",
        wal_seq: int | None = None,
    ) -> dict:
        """Dispatch one raw JSON ingest body; the worker parses, validates,
        and folds it (``single=True`` for the ``/v1/report`` shape).  The
        edge-minted trace id rides the op tuple so the worker's decode/fold
        spans join the coordinator's trace.
        Returns ``{"accepted": total, "campaigns": {name: count}}``."""
        worker, reply = await self._dispatch(
            ("json", payload, single, trace_id), wal_seq
        )
        self._count_accepted(worker, reply["campaigns"])
        return reply

    async def submit_frames(
        self, payload: bytes, *, trace_id: str = "", wal_seq: int | None = None
    ) -> dict:
        """Dispatch one raw binary-frame body; the worker decodes,
        validates, and folds every frame in it."""
        worker, reply = await self._dispatch(("frames", payload, trace_id), wal_seq)
        self._count_accepted(worker, reply["campaigns"])
        return reply

    def _require_unsupervised(self, operation: str) -> None:
        """The direct submit APIs below carry no WAL sequence, so their
        folds belong to no worker's ``routed`` set — a respawned worker's
        rebuilt shard (checkpoint cut + routed replay) would silently drop
        them, an under-count in the one mode that promises durability.
        Refuse up front instead; supervised ingest must go through
        :meth:`submit_json`/:meth:`submit_frames` with a ``wal_seq``."""
        if self.supervised:
            raise ServiceError(
                f"{operation} bypasses the write-ahead log and cannot be "
                "replayed after a worker respawn; on a supervised pool use "
                "submit_json/submit_frames with a WAL sequence instead"
            )

    async def submit_reports(self, campaign: str, reports: np.ndarray) -> int:
        """Dispatch one pre-validated ``int64`` report batch to a worker.
        Unsupervised pools only — see :meth:`_require_unsupervised`."""
        self._require_unsupervised("submit_reports")
        worker, accepted = await self._dispatch(
            ("reports", campaign, reports), None
        )
        self._count_accepted(worker, {campaign: accepted})
        return accepted

    async def submit_reports_packed(
        self, campaign: str, item_size: int, payload: bytes
    ) -> int:
        """Dispatch one packed report payload; the worker unpacks and
        validates it, keeping the coordinator off the decode path.
        Unsupervised pools only — see :meth:`_require_unsupervised`."""
        self._require_unsupervised("submit_reports_packed")
        worker, accepted = await self._dispatch(
            ("reports_packed", campaign, item_size, payload), None
        )
        self._count_accepted(worker, {campaign: accepted})
        return accepted

    async def snapshots(
        self, campaign: str | None = None
    ) -> dict[str, ShardAccumulator]:
        """Collect and merge every worker's accumulators via the tagged
        ``to_bytes`` payloads — all campaigns, or just ``campaign`` (the
        live-query path asks for one and skips serializing the rest).

        Counts are integers (exactly representable in float64) and merge
        is commutative, so the result is independent of worker count and
        merge order — the cluster-mode half of the bit-identical contract.
        """
        replies = await self._broadcast(("snapshot", campaign))
        merged: dict[str, ShardAccumulator] = {}
        for reply in replies:
            for name, payload in sorted(reply.items()):
                accumulator = ShardAccumulator.from_bytes(payload)
                existing = merged.get(name)
                merged[name] = (
                    accumulator if existing is None else existing.merge(accumulator)
                )
        return merged

    async def cut(self, apply) -> None:
        """WAL-mode checkpoint cut: serialize *and reset* every worker's
        accumulators, handing each worker's payload dict to
        ``apply(payloads)`` as soon as that worker acknowledges, then
        clearing its ``routed`` set — from that moment its live state is
        exactly the records routed to it afterwards.

        A worker that dies mid-cut is simply retried after its respawn:
        its routed set was *not* cleared, so the replayed state is its full
        pre-cut state, and the retried cut captures exactly what the first
        attempt would have.  ``apply`` runs per worker (not per round), so
        partial progress survives retries without double-folding.
        """
        remaining = set(range(len(self._workers)))
        while remaining:
            await self._await_all_up()
            for index in sorted(remaining):
                worker = self._workers[index]
                try:
                    payloads = await self._call(worker, ("cut",))
                except _WorkerLost:
                    break  # wait for the supervisor, then retry this worker
                apply(payloads)
                worker.routed.clear()
                remaining.discard(index)

    async def stats(self) -> dict:
        """Best-effort per-worker observability (never raises on a dead
        worker — metrics must stay readable while degraded)."""
        rows = []
        for worker in self._workers:
            row = {
                "index": worker.index,
                "pid": worker.process.pid,
                "alive": worker.alive and worker.process.is_alive(),
                "state": worker.state,
                "restarts": worker.restarts,
                "dispatched_batches": worker.dispatched_batches,
                "dispatched_reports": worker.dispatched_reports,
            }
            if row["alive"]:
                try:
                    row.update(await self._call(worker, ("stats",)))
                except (ServiceError, _WorkerLost, ClusterDegradedError):
                    row["alive"] = False
            rows.append(row)
        return {
            "num_workers": self.num_workers,
            "workers_alive": sum(1 for row in rows if row["alive"]),
            "health": self.health,
            "restarts_total": self.restarts_total,
            "dispatched_reports": sum(r["dispatched_reports"] for r in rows),
            "workers": rows,
        }
