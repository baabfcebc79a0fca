"""Executor backends for the parallel campaign scheduler.

This module is the seam between *scheduling* (which cell runs where,
retries, quarantine — the parent's job in :mod:`repro.core.parallel`)
and *execution* (how a worker process is spawned and spoken to — the
backend's job), the same dispatch abstraction DAVOS uses to run one
campaign on either a multicore PC or an SGE grid.

Two backends ship:

* :class:`MultiprocessingBackend` — forked workers (spawned where fork
  is unavailable), each with its own task queue, stop event and one-way
  result pipe.  Cheapest start-up, shares the parent's warm caches over
  fork.
* :class:`~repro.core.coordinator.SocketBackend` (``"socket"``) — a TCP
  coordinator whose workers may live on other hosts, speaking
  CRC-checked frames (:mod:`repro.core.wire`).

Both run the same :func:`worker_loop`; a worker is defined by the
messages it exchanges, not by how its process was made:

parent → worker   ``batch`` (list of :class:`CellTask`), ``None``
                  (shutdown), soft-cancel (per-worker stop flag)
worker → parent   ``("ready", wid)`` · ``("start", wid, index, golden)``
                  · ``("heartbeat", wid, index, ordinal)`` ·
                  ``("partial", wid, index, key, state)`` ·
                  ``("cell", wid, index, data, end)`` ·
                  ``("telemetry", wid, index|None, delta, events)`` ·
                  ``("incident", wid, data)`` ·
                  ``("fatal", wid, index, type, detail)`` ·
                  ``("stopped", wid)`` · ``("bye", wid)``

Heartbeats piggyback on the per-sample stop probe, so a worker that
stops heartbeating has by definition stopped making sample progress —
the scheduler's one watchdog, the per-worker lease, needs no second
channel.  The :class:`ResiliencePolicy` dataclass holds every tunable of
the resilience protocol layered on top (see DESIGN.md §10).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import queue as queue_module
import signal
import time
import traceback as traceback_module
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as wait_connections
from typing import Callable

from repro import obs
from repro.obs.metrics import subtract_snapshot

from repro.core.campaign import (
    CampaignConfig,
    CellCheckpoint,
    CellTask,
    golden_run,
    run_cell_range,
)
from repro.core.chaos import ChaosSpec
from repro.cpu.config import CoreConfig
from repro.errors import CampaignInterrupted, InjectionIncident
from repro.workloads import get_workload

#: The names ``--backend`` accepts.
BACKEND_NAMES: tuple[str, ...] = ("multiprocessing", "socket")


@dataclass(frozen=True)
class ResiliencePolicy:
    """Every tunable of the executor fabric's failure handling.

    The fabric has one watchdog, the per-worker **lease** (DESIGN.md
    §10): a worker that owes the parent a message — it was spawned and
    has not yet sent ``ready``, or it holds dispatched cells — must send
    one before its lease runs out, and any message renews it.  The lease
    is ``lease_factor`` times the predicted wall time of *one sample*
    (heartbeats arrive once per sample), never less than
    ``lease_floor`` seconds; until a completed cell calibrates the
    golden-cycles-per-second rate it is just ``lease_floor``.  A worker
    that stays silent past its lease is killed (a socket worker is
    disconnected) and its cells go through the ordinary retry path.
    """

    heartbeat_interval: float = 0.5
    max_attempts: int = 3
    retry_base_delay: float = 0.25
    retry_max_delay: float = 30.0
    retry_jitter: float = 0.25
    restarts_per_worker: int = 2
    degrade_to_serial: bool = True
    lease_factor: float = 16.0
    lease_floor: float = 60.0

    def validate(self) -> None:
        """Reject self-contradictory knob combinations loudly.

        The CLI funnels user-supplied overrides through here so a typo'd
        ``--heartbeat-interval 0`` fails at argument time, not as a
        mysterious mid-campaign reclaim storm.
        """
        from repro.errors import ConfigError

        positive = {
            "heartbeat_interval": self.heartbeat_interval,
            "retry_base_delay": self.retry_base_delay,
            "retry_max_delay": self.retry_max_delay,
            "lease_factor": self.lease_factor,
            "lease_floor": self.lease_floor,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigError(f"{name} must be > 0 (got {value})")
        if self.retry_jitter < 0:
            raise ConfigError(
                f"retry_jitter must be >= 0 (got {self.retry_jitter})"
            )
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1 (got {self.max_attempts})"
            )
        if self.restarts_per_worker < 0:
            raise ConfigError(
                f"restarts_per_worker must be >= 0 "
                f"(got {self.restarts_per_worker})"
            )
        if self.retry_max_delay < self.retry_base_delay:
            raise ConfigError(
                f"retry_max_delay ({self.retry_max_delay}) must be >= "
                f"retry_base_delay ({self.retry_base_delay})"
            )
        if self.heartbeat_interval >= self.lease_floor:
            raise ConfigError(
                f"heartbeat_interval ({self.heartbeat_interval}) must be "
                f"below lease_floor ({self.lease_floor}) — every live "
                f"worker would outlive its lease between heartbeats"
            )

    def lease(self, sample_wall: float | None) -> float:
        """Lease seconds for a worker whose samples are predicted to take
        *sample_wall* seconds each (``None``: not yet calibrated)."""
        if sample_wall is None:
            return self.lease_floor
        return max(self.lease_floor, self.lease_factor * sample_wall)

    def backoff(self, cell_key: str, attempt: int) -> float:
        """Exponential backoff with deterministic jitter.

        The jitter fraction is drawn from a hash of (cell key, attempt),
        so two schedulers retrying the same cell spread out identically —
        reproducible schedules, no thundering herd.
        """
        base = min(
            self.retry_max_delay,
            self.retry_base_delay * (2 ** max(0, attempt - 1)),
        )
        digest = hashlib.sha256(f"{cell_key}:{attempt}".encode()).digest()
        return base * (1.0 + self.retry_jitter * digest[0] / 255.0)


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to run cell batches, picklable."""

    config: CampaignConfig
    core_cfg: CoreConfig
    supervised: bool
    strict: bool
    watchdog: bool
    checkpoint_every: int | None
    telemetry_enabled: bool
    verify: bool
    prune: bool = False
    heartbeat_interval: float = 0.5
    chaos: ChaosSpec | None = None


# ---------------------------------------------------------------------------
# The shared worker loop (backend-independent)
# ---------------------------------------------------------------------------


class _SendJournal:
    """Worker-side incident journal: forwards every record to the parent."""

    def __init__(self, send: Callable, worker_id: int) -> None:
        self._send = send
        self._worker_id = worker_id
        self.incidents: list = []  # Supervisor reads len() nowhere, kept for shape

    def append(self, incident) -> None:
        self._send(("incident", self._worker_id, incident.as_dict()))


class _TelemetryShipper:
    """Worker-side telemetry outbox: per-cell metric deltas + trace events.

    After every finished cell the worker snapshots its local registry,
    ships the delta since the previous snapshot (tagged with the cell's
    canonical index, so the parent can merge in canonical cell order) and
    drains its trace buffer into the same message.  Worker-scoped
    activity between cells ships with ``index=None`` at batch boundaries
    and shutdown.
    """

    def __init__(self, send: Callable, worker_id: int, telemetry) -> None:
        self._send = send
        self._worker_id = worker_id
        self._telemetry = telemetry
        self._base = (
            telemetry.metrics.as_dict() if telemetry is not None else None
        )

    def ship(self, index: int | None = None) -> None:
        if self._telemetry is None:
            return
        snapshot = self._telemetry.metrics.as_dict()
        delta = subtract_snapshot(snapshot, self._base)
        self._base = snapshot
        events = self._telemetry.tracer.drain()
        if index is None and not events and not any(
            delta[kind] for kind in ("counters", "histograms")
        ):
            return
        self._send(("telemetry", self._worker_id, index, delta, events))


def _make_probe(
    task: CellTask,
    spec: WorkerSpec,
    send: Callable,
    worker_id: int,
    stop_flag: Callable[[], bool],
) -> Callable[[], bool]:
    """The per-sample stop probe: chaos hook + heartbeat + stop check.

    Probed once before every sample by :func:`run_cell_range`; *ordinal*
    counts probes within this dispatch (it restarts at 0 on every
    dispatch: a rescheduled cell, or an adaptive wave's next range).  Chaos events fire
    before the heartbeat, so an ordinal-0 kill dies as silently as a
    real startup segfault.
    """
    state = {"ordinal": -1, "beat": time.monotonic()}
    chaos = spec.chaos

    def probe() -> bool:
        state["ordinal"] += 1
        if chaos is not None:
            chaos.worker_event(
                task.workload, task.component, task.cardinality,
                state["ordinal"],
            )
        now = time.monotonic()
        if now - state["beat"] >= spec.heartbeat_interval:
            send(("heartbeat", worker_id, task.index, state["ordinal"]))
            state["beat"] = now
        return stop_flag()

    return probe


def worker_loop(
    worker_id: int,
    spec: WorkerSpec,
    recv_batch: Callable[[float], object],
    send: Callable[[tuple], None],
    stop_flag: Callable[[], bool],
) -> None:
    """Backend-independent worker body: batches in, messages out.

    *recv_batch* blocks up to its timeout and raises ``queue.Empty`` on
    expiry; it returns a list of :class:`CellTask` or ``None`` for
    shutdown.  *stop_flag* is the soft-cancel probe — polled between
    samples, so a cancelled worker flushes one final mid-cell checkpoint
    before exiting.  SIGINT/SIGTERM are ignored here: shutdown is the
    parent's job, delivered through the stop flag (a worker that goes
    silent instead outlives its lease and is killed).
    """
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, signal.SIG_IGN)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    # Fresh per-worker telemetry: anything inherited over fork belongs to
    # the parent and must not be double-reported from here.
    obs.disable()
    tel = obs.enable() if spec.telemetry_enabled else None
    shipper = _TelemetryShipper(send, worker_id, tel)
    supervisor = None
    if spec.supervised:
        from repro.core.supervisor import Supervisor

        supervisor = Supervisor(
            journal=_SendJournal(send, worker_id),
            max_incidents=None,  # the parent enforces the global budget
            strict=spec.strict,
            watchdog=spec.watchdog,
        )
    send(("ready", worker_id))
    while True:
        wait_begin = time.perf_counter() if tel is not None else 0.0
        try:
            batch = recv_batch(60.0)
        except queue_module.Empty:
            if stop_flag():  # pragma: no cover - parent gave up
                return
            continue  # pragma: no cover - parent merely busy
        if tel is not None:
            tel.metrics.histogram("time.worker.task_wait").observe(
                time.perf_counter() - wait_begin
            )
        if batch is None:
            shipper.ship()
            send(("bye", worker_id))
            return
        with obs.span("worker-batch", worker=worker_id, cells=len(batch)):
            for task in batch:
                if stop_flag():
                    shipper.ship()
                    send(("stopped", worker_id))
                    return
                # Golden cycles are the lease currency: computed (or
                # cache-served) before the cell so the parent can size
                # this worker's lease from the very first heartbeat.
                try:
                    golden_cycles = golden_run(
                        get_workload(task.workload), spec.core_cfg,
                        cores=spec.config.cores,
                    ).cycles
                except Exception as exc:  # noqa: BLE001 - surface, don't hang
                    shipper.ship()
                    send(("fatal", worker_id, task.index,
                          type(exc).__name__,
                          f"{exc}\n{traceback_module.format_exc()}"))
                    return
                send(("start", worker_id, task.index, golden_cycles))
                probe = _make_probe(task, spec, send, worker_id, stop_flag)
                try:
                    cell, end = run_cell_range(
                        task.workload, task.component, task.cardinality,
                        spec.config, spec.core_cfg, samples=task.samples,
                        start=(
                            CellCheckpoint.from_dict(task.partial)
                            if task.partial is not None else None
                        ),
                        supervisor=supervisor,
                        # Checkpoints stream to the parent, the single
                        # real-store writer.
                        save=lambda checkpoint: send((
                            "partial", worker_id, task.index, task.cell_key,
                            checkpoint.as_dict(),
                        )),
                        checkpoint_every=spec.checkpoint_every,
                        stop=probe,
                        verify=spec.verify,
                        prune=spec.prune,
                    )
                except CampaignInterrupted:
                    shipper.ship()
                    send(("stopped", worker_id))
                    return
                except InjectionIncident as exc:
                    # --strict escalation: the incident itself was already
                    # forwarded by the send journal; tell the parent to
                    # abort.
                    shipper.ship()
                    send(("fatal", worker_id, task.index,
                          type(exc).__name__, str(exc)))
                    return
                except Exception as exc:  # noqa: BLE001 - must not hang the pool
                    shipper.ship()
                    send(("fatal", worker_id, task.index, type(exc).__name__,
                          f"{exc}\n{traceback_module.format_exc()}"))
                    return
                # Telemetry first, completion second: messages from one
                # worker arrive in order, so the parent still holds the
                # cell as pending when its metric delta arrives.
                shipper.ship(task.index)
                send(("cell", worker_id, task.index, cell.as_dict(),
                      end.as_dict()))
        shipper.ship()
        send(("ready", worker_id))


# ---------------------------------------------------------------------------
# Backend interface
# ---------------------------------------------------------------------------


class WorkerHandle:
    """Parent-side view of one worker, whatever its transport."""

    worker_id: int

    def send(self, batch: list[CellTask] | None) -> None:
        """Dispatch a task batch (or ``None`` = shut down politely)."""
        raise NotImplementedError

    def soft_cancel(self) -> None:
        """Ask the worker to stop at the next sample boundary."""
        raise NotImplementedError

    def kill(self) -> None:
        """Terminate the worker immediately (SIGKILL-hard)."""
        raise NotImplementedError

    def alive(self) -> bool:
        raise NotImplementedError

    def exitcode(self) -> int | None:
        raise NotImplementedError

    def pid(self) -> int | None:
        raise NotImplementedError

    def join(self, timeout: float) -> None:
        raise NotImplementedError


class ExecutorBackend:
    """Spawns workers and multiplexes their message streams.

    The scheduler sees exactly this surface: ``spawn()`` a worker,
    ``recv()`` the next message from any worker (``None`` on timeout),
    ``close()`` when done.  Everything else — transport, serialisation,
    process lifecycle — is the backend's private business, which is what
    lets the socket backend span hosts without touching the scheduler.
    """

    def spawn(self) -> WorkerHandle:
        raise NotImplementedError

    def recv(self, timeout: float) -> tuple | None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Multiprocessing backend (task queues, result pipes, fork/spawn)
# ---------------------------------------------------------------------------


def _context() -> multiprocessing.context.BaseContext:
    """Fork when the platform offers it (cheap, inherits warm caches);
    spawn otherwise.  Determinism is identical either way — workers
    re-derive everything from the cell seed."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _mp_worker_main(
    worker_id: int, spec: WorkerSpec, task_queue, result_pipe, stop_event
) -> None:
    def send(message: tuple) -> None:
        try:
            result_pipe.send(message)
        except OSError:  # BrokenPipeError included: the parent is gone
            os._exit(0)

    worker_loop(
        worker_id, spec,
        recv_batch=lambda timeout: task_queue.get(timeout=timeout),
        send=send,
        stop_flag=stop_event.is_set,
    )


class _MpHandle(WorkerHandle):
    def __init__(self, worker_id, proc, task_queue, stop_event) -> None:
        self.worker_id = worker_id
        self._proc = proc
        self._task_queue = task_queue
        self._stop_event = stop_event
        self.pipe_closed = False

    def send(self, batch) -> None:
        try:
            self._task_queue.put(batch)
        except (ValueError, OSError):  # pragma: no cover - queue torn down
            pass

    def soft_cancel(self) -> None:
        self._stop_event.set()

    def kill(self) -> None:
        if self._proc.is_alive():
            self._proc.kill()

    def alive(self) -> bool:
        return not self.pipe_closed and self._proc.is_alive()

    def exitcode(self) -> int | None:
        return self._proc.exitcode

    def pid(self) -> int | None:
        return self._proc.pid

    def join(self, timeout: float) -> None:
        self._proc.join(timeout=timeout)


class MultiprocessingBackend(ExecutorBackend):
    """Forked (or spawned) local workers behind the backend seam.

    Each worker gets its own task queue, stop event and one-way result
    pipe; nothing is shared between workers.  A private pipe keeps each
    worker's messages in FIFO order (lost-result detection and
    "telemetry before cell" rely on it), and a worker that dies
    mid-write — a chaos kill, a SIGKILL, an OOM — can tear only its own
    stream.  A torn or closed pipe counts as that worker's death.
    """

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.ctx = _context()
        self._next_id = 0
        self._pipes: dict = {}  # read end → handle
        self._inbox: deque[tuple] = deque()

    def spawn(self) -> _MpHandle:
        worker_id = self._next_id
        self._next_id += 1
        task_queue = self.ctx.Queue()
        stop_event = self.ctx.Event()
        reader, writer = self.ctx.Pipe(duplex=False)
        proc = self.ctx.Process(
            target=_mp_worker_main,
            args=(worker_id, self.spec, task_queue, writer, stop_event),
            daemon=True,
        )
        proc.start()
        # Only the worker may hold the write end, or its death would
        # never read as EOF.
        writer.close()
        handle = _MpHandle(worker_id, proc, task_queue, stop_event)
        self._pipes[reader] = handle
        return handle

    def _read(self, reader) -> None:
        try:
            self._inbox.append(reader.recv())
        except (EOFError, OSError, pickle.UnpicklingError):
            self._pipes.pop(reader).pipe_closed = True
            reader.close()

    def recv(self, timeout: float) -> tuple | None:
        deadline = time.monotonic() + timeout
        while not self._inbox:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            if not self._pipes:
                time.sleep(remaining)
                return None
            for reader in wait_connections(list(self._pipes), remaining):
                self._read(reader)
        return self._inbox.popleft()

    def close(self) -> None:
        for reader in self._pipes:
            reader.close()
        self._pipes.clear()


def create_backend(
    name: str, spec: WorkerSpec, options: dict | None = None
) -> ExecutorBackend:
    """Instantiate a backend by name (see :data:`BACKEND_NAMES`).

    *options* are backend-specific constructor keywords (the socket
    backend's listen address, accept timeout, autospawn switch...); the
    multiprocessing backend accepts none.
    """
    if name == "multiprocessing":
        return MultiprocessingBackend(spec, **(options or {}))
    if name == "socket":
        from repro.core.coordinator import SocketBackend

        return SocketBackend(spec, **(options or {}))
    raise ValueError(
        f"unknown executor backend {name!r} "
        f"(available: {', '.join(BACKEND_NAMES)})"
    )
