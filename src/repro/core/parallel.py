"""Parallel campaign execution: resilient cell scheduler, deterministic merge.

The campaign grid (15 workloads × 6 components × 3 cardinalities in the
paper's setup) is embarrassingly parallel at cell granularity: every cell
seeds its own fault generator and injection-cycle RNG from
``f"{seed}:{workload}:{component}:{cardinality}"``, so no cell's outcome
depends on any other cell's execution, and a parallel run is bit-identical
to the serial one *by construction* — the scheduler only has to merge
results back into the canonical ``config.cells()`` order.

Architecture (one parent, N workers behind a pluggable backend):

* **Two execution backends.**  The scheduler speaks to workers only
  through the :class:`~repro.core.executor.ExecutorBackend` seam — the
  local multiprocessing pool and the TCP socket coordinator
  (:mod:`repro.core.coordinator`) are interchangeable behind the same
  two methods (``spawn``/``recv``).
* **Sharding with workload affinity.**  Cells are grouped by workload and
  groups are handed to workers whole, so a worker builds the expensive
  :class:`~repro.core.campaign.CheckpointedWorkload` snapshot set once per
  workload instead of once per cell.
* **Single-writer store.**  Workers never touch the
  :class:`~repro.core.campaign.CampaignStore`; they stream ``CellResult``s
  and mid-cell checkpoints to the parent, which is the only process
  appending to the store journal and the incident journal.
* **One watchdog: the per-worker lease.**  A worker owes the parent a
  message while it has been spawned but not yet sent ``ready``, and
  while it holds dispatched cells; idle workers owe nothing.  Workers
  heartbeat from the per-sample stop probe, and any message renews the
  lease, which is ``lease_factor`` × the predicted wall time of one
  sample (calibrated from golden-run cycles, floored at
  ``lease_floor``).  A worker that stays silent past its lease — hung,
  livelocked, or on the far side of a partition — is killed (a socket
  worker is disconnected), one ``lease-expired`` record is journalled
  per cell it held, its death is counted as a ``worker-hang`` incident,
  and each of its cells is rescheduled once from its last streamed
  checkpoint.  A late duplicate result from the old owner is suppressed
  by the first-canonical-result-wins rule.  See DESIGN.md §10.
* **Bounded retry with backoff.**  Every reschedule (crash, hang, lost
  result) is journalled as a structured ``retry`` incident — attempt
  number, backoff delay, cause — and re-dispatched after an exponential
  backoff with deterministic jitter.  A cell that fails
  ``max_attempts`` times is **quarantined** as a ``poison-cell``
  incident: its last streamed checkpoint becomes its (short) result, the
  missing samples count as lost, and the campaign survives — aborting
  only under ``--strict``/``--max-incidents``.
* **Graceful degradation.**  Worker deaths beyond the restart budget stop
  the respawning: the pool shrinks, and when it reaches zero the parent
  finishes the remaining (non-quarantined) cells serially in-process —
  a failing backend degrades a campaign's speed, never its answer.
* **Incident forwarding, telemetry streaming, ordered progress, graceful
  Ctrl-C/SIGTERM** — unchanged from the original engine: the parent
  enforces the global ``--max-incidents``/``--strict`` budget, merges
  per-cell metric deltas in canonical order, fires the progress callback
  in canonical order, and on SIGINT/SIGTERM drains final checkpoints so
  ``--resume`` continues bit-identically.

The deterministic chaos harness (:mod:`repro.core.chaos`,
``repro-campaign chaos``) injects worker kills, stalls, dropped and
duplicated messages and torn checkpoint writes into this fabric
and asserts the byte-identical-to-serial guarantee survives all of it.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from pathlib import Path

from repro import obs

from repro.core.campaign import (
    DEFAULT_CHECKPOINT_EVERY,
    CampaignConfig,
    CampaignResult,
    CampaignStore,
    CellCheckpoint,
    CellResult,
    ProgressFn,
    golden_run,
    run_cell,
)
from repro.core.avf import ClassCounts
from repro.core.chaos import ChaosSpec
from repro.core.executor import (
    CellTask,
    ExecutorBackend,
    ResiliencePolicy,
    WorkerHandle,
    WorkerSpec,
    create_backend,
)
from repro.cpu.config import DEFAULT_CONFIG, CoreConfig
from repro.errors import (
    CampaignInterrupted,
    IncidentBudgetExceeded,
    InjectionIncident,
    WorkerCrash,
)
from repro.workloads import get_workload

#: How long the parent waits on the backend before running its lease /
#: retry tick.  Small enough that a crashed worker is noticed promptly,
#: large enough not to busy-wait.
_POLL_INTERVAL = 0.1


def _affinity_batches(tasks: list[CellTask], jobs: int) -> list[list[CellTask]]:
    """Group tasks by workload, splitting large groups to feed all workers.

    Whole-workload batches maximise checkpoint-cache reuse; splitting only
    kicks in when there are fewer workloads than workers, and the split
    halves still share a workload.
    """
    by_workload: dict[str, list[CellTask]] = {}
    for task in tasks:
        by_workload.setdefault(task.workload, []).append(task)
    batches = list(by_workload.values())
    while len(batches) < min(jobs, len(tasks)):
        largest = max(range(len(batches)), key=lambda i: len(batches[i]))
        if len(batches[largest]) < 2:
            break
        group = batches.pop(largest)
        half = len(group) // 2
        batches.insert(largest, group[half:])
        batches.insert(largest, group[:half])
    # Longest batches first: better tail latency under dynamic dispatch.
    batches.sort(key=len, reverse=True)
    return batches


class _RateModel:
    """Golden-cycles-per-second rate, calibrated from completed cells.

    A cell's simulation budget is proportional to ``golden_cycles ×
    samples``; each completed cell's budget over its wall time is one
    observed rate, and the model keeps the slowest one seen (cells that
    pruning made cheap must not shorten everyone's lease).  The
    predicted wall time of *one sample* of a cell — what the per-worker
    lease is sized from, since heartbeats arrive once per sample — is
    its golden cycles over that rate, independent of how many samples a
    cell has.
    """

    def __init__(self, samples: int) -> None:
        self._samples = max(1, samples)
        self._rate: float | None = None

    def record(self, golden_cycles: int | None, wall: float) -> None:
        if golden_cycles is None or wall <= 0:
            return
        rate = float(golden_cycles) * self._samples / wall
        self._rate = rate if self._rate is None else min(self._rate, rate)

    def sample_wall(self, golden_cycles: int | None) -> float | None:
        """Predicted wall seconds of one sample, or ``None``
        (uncalibrated, or the cell's golden run is not known yet)."""
        if self._rate is None or golden_cycles is None:
            return None
        return float(golden_cycles) / self._rate


class _Scheduler:
    """One campaign's resilient parent loop over an executor backend."""

    def __init__(
        self,
        config: CampaignConfig,
        jobs: int,
        progress: ProgressFn | None,
        store,
        core_cfg: CoreConfig,
        supervisor,
        checkpoint_every: int | None,
        resume: bool,
        verify: bool,
        prune: bool,
        backend_name: str,
        policy: ResiliencePolicy,
        chaos: ChaosSpec | None,
        backend_options: dict | None = None,
    ) -> None:
        self.config = config
        self.jobs = jobs
        self.progress = progress
        self.store = store
        self.core_cfg = core_cfg
        self.supervisor = supervisor
        self.checkpoint_every = checkpoint_every
        self.resume = resume
        self.verify = verify
        self.prune = prune
        self.backend_name = backend_name
        self.backend_options = backend_options
        self.policy = policy
        self.chaos = chaos

        self.cells = config.cells()
        self.total = len(self.cells)
        self.results: dict[int, CellResult] = {}
        self.keys: dict[int, str] = {}
        self.tasks: list[CellTask] = []
        for index, (workload, component, cardinality) in enumerate(self.cells):
            key = config.cell_key(workload, component, cardinality, core_cfg)
            self.keys[index] = key
            cached = store.get(key) if store is not None else None
            if cached is not None:
                self.results[index] = cached
                continue
            partial = None
            if store is not None and resume:
                checkpoint = store.get_partial(key)
                if checkpoint is not None:
                    partial = checkpoint.as_dict()
            self.tasks.append(CellTask(
                index=index, workload=workload, component=component,
                cardinality=cardinality, cell_key=key, partial=partial,
            ))

        # Supervisor-derived knobs (duck-typed, like the serial path).
        self.strict = bool(getattr(supervisor, "strict", False))
        self.watchdog = bool(getattr(supervisor, "watchdog", True))
        self.max_incidents = getattr(supervisor, "max_incidents", None)
        self.journal = getattr(supervisor, "journal", None)

        # Pool / dispatch state.
        self.backend: ExecutorBackend | None = None
        self.handles: dict[int, WorkerHandle] = {}
        self.assigned: dict[int, list[CellTask]] = {}
        self.retired: set[int] = set()
        self.idle: set[int] = set()
        self.batches: deque[list[CellTask]] = deque()
        self.retry_heap: list[tuple[float, int, list[CellTask]]] = []
        self._retry_seq = 0
        self.attempts: dict[int, int] = {}
        self.restarts = 0
        self.max_restarts = jobs * policy.restarts_per_worker
        self.degraded = False
        self.global_stop = False

        # Per-cell progress state.
        self.pending_done = {task.index for task in self.tasks}
        self.live_partials: dict[int, dict | None] = {
            task.index: task.partial for task in self.tasks
        }
        self.cell_golden: dict[int, int] = {}
        self.start_times: dict[int, float] = {}
        # The one watchdog: worker id → lease expiry, present exactly
        # while that worker owes us a message (spawned but not ready, or
        # holding dispatched cells).  Any message renews it for the
        # worker's current lease duration.
        self.leases: dict[int, float] = {}
        self.lease_durations: dict[int, float] = {}
        self.model = _RateModel(config.samples)

        # Accounting.
        self.emitted = 0
        self.total_incidents = 0
        self.lost_sample_incidents = 0
        self.abort_exc: Exception | None = None

        # Telemetry.
        self.parent_tel = obs.active()
        self.cell_deltas: dict[int, dict] = {}
        self.worker_deltas: list[dict] = []

        # Chaos (parent side): counters over droppable / duplicable
        # message streams.
        self._chaos_droppable = 0
        self._chaos_dupable = 0

    # -- small helpers -----------------------------------------------------

    def _counter(self, name: str, amount: int = 1) -> None:
        if self.parent_tel is not None and amount:
            self.parent_tel.metrics.counter(name).inc(amount)

    def _instant(self, name: str, **args) -> None:
        if self.parent_tel is not None:
            self.parent_tel.tracer.instant(name, **args)

    def _cell_label(self, index: int) -> str:
        workload, component, cardinality = self.cells[index]
        return f"{workload}/{component}/{cardinality}-bit"

    def _record_incident(self, incident) -> None:
        if self.journal is not None:
            self.journal.append(incident)
        if self.supervisor is not None:
            self.supervisor.incident_count += 1

    def _journal_only(self, incident) -> None:
        """Bookkeeping incidents (retries, degradation notes): journalled
        for the audit trail, never counted against the incident budget —
        the originating failure already was."""
        if self.journal is not None:
            self.journal.append(incident)

    def _fabric_incident(self, kind, index, error_type, message, details):
        from repro.core.supervisor import Incident

        workload, component, cardinality = (
            self.cells[index] if index is not None else ("-", "-", 0)
        )
        return Incident(
            kind=kind,
            workload=workload,
            component=component,
            cardinality=cardinality,
            cell_seed=(
                f"{self.config.seed}:{workload}:{component}:{cardinality}"
                if index is not None else ""
            ),
            sample_index=-1,
            inject_cycle=-1,
            mask=None,
            error_type=error_type,
            message=message,
            traceback="",
            details=details,
        )

    def _emit_progress(self) -> int:
        while self.emitted in self.results:
            if self.progress is not None:
                self.progress(
                    self.emitted + 1, self.total, self.results[self.emitted]
                )
            self.emitted += 1
        return self.emitted

    def _alive_ids(self) -> list[int]:
        return [
            wid for wid, handle in self.handles.items()
            if wid not in self.retired and handle.alive()
        ]

    def _budget_abort(self, last_message: str) -> None:
        if (
            self.max_incidents is not None
            and self.total_incidents > self.max_incidents
        ):
            self.abort_exc = IncidentBudgetExceeded(
                f"{self.total_incidents} incidents exceed the budget of "
                f"{self.max_incidents} (last: {last_message})"
            )

    # -- pool management ---------------------------------------------------

    def _spawn(self) -> None:
        try:
            handle = self.backend.spawn()
        except Exception as exc:  # noqa: BLE001 - backend failure → degrade
            self._mark_degraded(f"backend spawn failed: {exc}")
            return
        self.handles[handle.worker_id] = handle
        self.assigned[handle.worker_id] = []
        # Owes us "ready".
        self._grant_lease(handle.worker_id, None, time.monotonic())
        self._counter("exec.workers_spawned")

    def _mark_degraded(self, reason: str) -> None:
        if self.degraded:
            return
        self.degraded = True
        self._journal_only(self._fabric_incident(
            "degraded", None, "WorkerCrash",
            f"worker pool degraded — no further replacements will be "
            f"spawned ({reason}); remaining cells finish on the shrinking "
            f"pool, serially in-process if it empties",
            {"restarts": self.restarts, "reason": reason},
        ))
        if self.parent_tel is not None:
            self.parent_tel.metrics.gauge("exec.degraded").set_max(1.0)
        self._instant("degraded", reason=reason)

    def _replace_worker(self) -> None:
        if self.degraded or self.global_stop:
            return
        if self.restarts >= self.max_restarts:
            self._mark_degraded(
                f"restart budget of {self.max_restarts} exhausted"
            )
            return
        self.restarts += 1
        self._spawn()

    def _retire(self, worker_id: int) -> None:
        self.retired.add(worker_id)
        self.idle.discard(worker_id)
        self.leases.pop(worker_id, None)

    # -- failure handling --------------------------------------------------

    def _worker_death(self, worker_id: int, kind: str, cause: str) -> None:
        """A worker died (or was killed when its lease expired): journal,
        count, reschedule its in-flight cells, and replace it within
        budget."""
        handle = self.handles[worker_id]
        handle.kill()
        handle.join(timeout=1.0)  # reap, so exitcode is real in the record
        self._retire(worker_id)
        remaining = [
            task for task in self.assigned[worker_id]
            if task.index in self.pending_done
        ]
        self.assigned[worker_id] = []
        label = self._cell_label(remaining[0].index) if remaining else "idle"
        # The telemetry a worker accumulated since its last per-cell ship
        # dies with it — count the loss instead of silently absorbing it.
        lost_deltas = len(remaining)
        self._counter("exec.lost_deltas", lost_deltas)
        verb = (
            f"died with exit code {handle.exitcode()}" if kind == "worker-crash"
            else "went silent past its lease and was killed"
        )
        incident = self._fabric_incident(
            kind,
            remaining[0].index if remaining else None,
            "WorkerCrash" if kind == "worker-crash" else "WorkerHang",
            f"worker {worker_id} (pid {handle.pid()}) {verb} while running "
            f"{label}; {len(remaining)} cell(s) rescheduled"
            + (f"; {lost_deltas} telemetry delta(s) lost" if lost_deltas
               else ""),
            {"worker": worker_id, "exitcode": handle.exitcode(),
             "cause": cause, "lost_deltas": lost_deltas,
             "rescheduled": [task.index for task in remaining]},
        )
        self._record_incident(incident)
        self.total_incidents += 1
        self._counter("exec.incidents")
        self._counter("exec.incidents." + kind)
        self._instant(
            kind, worker=worker_id, exitcode=handle.exitcode(),
            rescheduled=len(remaining),
        )
        if self.strict:
            self.abort_exc = InjectionIncident(f"[strict] {incident.message}")
            return
        self._budget_abort(incident.message)
        if self.abort_exc is not None:
            return
        self._reschedule(remaining, cause=kind, worker=worker_id)
        self._replace_worker()

    def _reschedule(
        self, tasks: list[CellTask], cause: str, worker: int | None
    ) -> None:
        """Queue failed cells for retry with backoff; quarantine cells
        that exhausted their attempt budget.  Never silent: every retry
        is a journalled ``retry`` incident."""
        now = time.monotonic()
        for task in tasks:
            if self.abort_exc is not None:
                return
            index = task.index
            attempt = self.attempts.get(index, 0) + 1
            self.attempts[index] = attempt
            if attempt >= self.policy.max_attempts:
                self._quarantine(task, cause)
                continue
            delay = self.policy.backoff(task.cell_key, attempt)
            refreshed = CellTask(
                index=index, workload=task.workload,
                component=task.component, cardinality=task.cardinality,
                cell_key=task.cell_key,
                partial=self.live_partials.get(index),
                attempt=attempt,
            )
            heapq.heappush(
                self.retry_heap, (now + delay, self._retry_seq, [refreshed])
            )
            self._retry_seq += 1
            self._journal_only(self._fabric_incident(
                "retry", index, "Reschedule",
                f"attempt {attempt + 1} of {self._cell_label(index)} "
                f"scheduled after {delay:.3f}s backoff (cause: {cause})",
                {"attempt": attempt, "backoff": round(delay, 4),
                 "cause": cause, "worker": worker},
            ))
            self._counter("exec.retries")
            self._instant(
                "retry", cell=self._cell_label(index), attempt=attempt,
                backoff=round(delay, 4), cause=cause,
            )

    def _quarantine(self, task: CellTask, cause: str) -> None:
        """A poison cell: salvage its last checkpoint as a short result,
        count the missing samples as lost, and move on."""
        index = task.index
        counts = ClassCounts()
        done = 0
        golden = self.cell_golden.get(index)
        state = self.live_partials.get(index)
        if state is not None:
            try:
                checkpoint = CellCheckpoint.from_dict(state)
            except (KeyError, ValueError, TypeError):  # pragma: no cover
                checkpoint = None
            if checkpoint is not None:
                counts = checkpoint.counts
                done = checkpoint.samples_done
                golden = checkpoint.golden_cycles
        if golden is None:
            # Fault-free golden run in the parent: safe (the poison is in
            # the cell's *injections*) and cached.
            golden = golden_run(
                get_workload(task.workload), self.core_cfg
            ).cycles
        self.results[index] = CellResult(
            workload=task.workload, component=task.component,
            cardinality=task.cardinality, counts=counts,
            golden_cycles=golden,
        )
        lost = max(0, self.config.samples - done)
        self.lost_sample_incidents += lost
        attempts = self.attempts.get(index, 0)
        incident = self._fabric_incident(
            "poison-cell", index, "PoisonCell",
            f"cell {self._cell_label(index)} failed {attempts} "
            f"attempt(s) (last cause: {cause}) and was quarantined; "
            f"{done} sample(s) salvaged from its last checkpoint, "
            f"{lost} lost",
            {"attempts": attempts, "cause": cause,
             "samples_kept": done, "samples_lost": lost},
        )
        self._record_incident(incident)
        self.total_incidents += 1
        self._counter("exec.incidents")
        self._counter("exec.incidents.poison-cell")
        self._counter("exec.quarantined")
        self._instant(
            "poison-cell", cell=self._cell_label(index), attempts=attempts,
            lost=lost,
        )
        self.pending_done.discard(index)
        self._emit_progress()
        if self.strict:
            self.abort_exc = InjectionIncident(f"[strict] {incident.message}")
            return
        self._budget_abort(incident.message)

    # -- the lease: the fabric's one watchdog -------------------------------

    def _grant_lease(
        self, worker_id: int, golden_cycles: int | None, now: float
    ) -> None:
        """(Re)start *worker_id*'s lease, sized for a cell with
        *golden_cycles* (``None``: no cell yet, the floor applies)."""
        duration = self.policy.lease(self.model.sample_wall(golden_cycles))
        self.lease_durations[worker_id] = duration
        self.leases[worker_id] = now + duration

    def _expire_leases(self, now: float) -> None:
        for worker_id in [
            wid for wid, expiry in self.leases.items() if now > expiry
        ]:
            if self.abort_exc is not None:
                return
            self._expire_lease(worker_id, now)

    def _expire_lease(self, worker_id: int, now: float) -> None:
        """A worker that owed us a message stayed silent past its lease:
        kill it, journal one ``lease-expired`` record per cell it held,
        then count its death as a ``worker-hang`` — which reschedules
        each of those cells once through the ordinary retry path."""
        self.handles[worker_id].kill()
        duration = self.lease_durations[worker_id]
        silence = now - (self.leases[worker_id] - duration)
        for task in self.assigned[worker_id]:
            if task.index not in self.pending_done:
                continue
            self._journal_only(self._fabric_incident(
                "lease-expired", task.index, "LeaseExpired",
                f"lease of worker {worker_id} on "
                f"{self._cell_label(task.index)} expired after "
                f"{silence:.1f}s of silence (lease {duration:.1f}s); "
                f"the worker is killed and the cell rescheduled from "
                f"its last acked checkpoint",
                {"worker": worker_id, "age": round(silence, 3),
                 "lease": round(duration, 3)},
            ))
            self._counter("exec.lease_expired")
            self._instant(
                "lease-expired", cell=self._cell_label(task.index),
                worker=worker_id, age=round(silence, 3),
            )
        self._worker_death(worker_id, "worker-hang", "lease-expired")

    # -- dispatch ----------------------------------------------------------

    def _next_batch(self, now: float) -> list[CellTask] | None:
        if self.batches:
            return self.batches.popleft()
        if self.retry_heap and self.retry_heap[0][0] <= now:
            return heapq.heappop(self.retry_heap)[2]
        return None

    def _dispatch(self, worker_id: int) -> None:
        if self.global_stop or worker_id in self.retired:
            return
        batch = self._next_batch(time.monotonic())
        if batch is None:
            self.idle.add(worker_id)
            self.leases.pop(worker_id, None)  # idle workers owe nothing
            return
        batch = [
            task for task in batch if task.index in self.pending_done
        ]
        if not batch:
            self._dispatch(worker_id)
            return
        self.assigned[worker_id] = batch
        self.idle.discard(worker_id)
        self._grant_lease(
            worker_id, self.cell_golden.get(batch[0].index), time.monotonic()
        )
        self.handles[worker_id].send(batch)

    # -- liveness ----------------------------------------------------------

    def _reap_dead(self) -> None:
        for worker_id in list(self.handles):
            if worker_id in self.retired:
                continue
            if not self.handles[worker_id].alive():
                self._worker_death(worker_id, "worker-crash", "exit")
                if self.abort_exc is not None:
                    return

    def _tick(self, now: float) -> None:
        self._expire_leases(now)
        if self.abort_exc is not None:
            return
        # Due retries → idle workers.
        while (
            self.idle and self.retry_heap and self.retry_heap[0][0] <= now
        ):
            self._dispatch(self.idle.pop())

    # -- message handling --------------------------------------------------

    def _recv_with_chaos(self, timeout: float) -> list[tuple]:
        message = self.backend.recv(timeout)
        if message is None:
            return []
        if self.chaos is None:
            return [message]
        kind = message[0]
        copies = 1
        if kind in ("partial", "telemetry", "cell"):
            if self._chaos_droppable in self.chaos.drop_ordinals:
                self._chaos_droppable += 1
                self._counter("exec.chaos.dropped")
                return []
            self._chaos_droppable += 1
        if kind in ("cell", "partial"):
            if self._chaos_dupable in self.chaos.dup_ordinals:
                copies = 2
                self._counter("exec.chaos.duplicated")
            self._chaos_dupable += 1
        return [message] * copies

    def _handle(self, message: tuple) -> None:
        kind = message[0]
        worker_id = message[1]
        now = time.monotonic()
        if worker_id in self.leases:
            self.leases[worker_id] = now + self.lease_durations[worker_id]
        if kind == "ready":
            if worker_id in self.retired:
                return
            # Per-worker FIFO means every result of the finished batch
            # already arrived — anything still pending was lost in flight
            # (dropped message, torn transport) and must be re-executed.
            lost = [
                task for task in self.assigned[worker_id]
                if task.index in self.pending_done
                and not self.global_stop
            ]
            self.assigned[worker_id] = []
            if lost:
                self._counter("exec.lost_results", len(lost))
                self._reschedule(
                    lost, cause="lost-result", worker=worker_id
                )
                if self.abort_exc is not None:
                    return
            self._dispatch(worker_id)
        elif kind == "start":
            _, _, index, golden_cycles = message
            self.cell_golden[index] = golden_cycles
            self.start_times[index] = now
            if worker_id in self.leases:
                self._grant_lease(worker_id, golden_cycles, now)
        elif kind == "heartbeat":
            self._counter("exec.heartbeats")
        elif kind == "partial":
            _, _, index, key, state = message
            self.live_partials[index] = state
            if self.store is not None and index in self.pending_done:
                self.store.put_partial(key, CellCheckpoint.from_dict(state))
        elif kind == "cell":
            _, _, index, data = message
            if index not in self.pending_done:
                return  # duplicate from a reschedule
            cell = CellResult.from_dict(data)
            self.results[index] = cell
            self.pending_done.discard(index)
            self.live_partials.pop(index, None)
            started = self.start_times.pop(index, None)
            if started is not None:
                self.model.record(self.cell_golden.get(index), now - started)
            if self.store is not None:
                self.store.put(self.keys[index], cell)
            done = self._emit_progress()
            if self.parent_tel is not None:
                # Completed cells buffered waiting for an earlier cell —
                # how far ahead of canonical order the schedule ran.
                self.parent_tel.metrics.gauge(
                    "exec.scheduler.reorder_depth"
                ).set_max(float(len(self.results) - done))
        elif kind == "telemetry":
            _, _, index, delta, events = message
            if self.parent_tel is not None:
                if index is None:
                    self.worker_deltas.append(delta)
                elif index in self.pending_done:
                    # Keep the first completion's telemetry, like the
                    # first "cell" message; a raced duplicate is dropped
                    # with its cell.
                    self.cell_deltas[index] = delta
                self.parent_tel.tracer.adopt(events, tid=worker_id + 1)
        elif kind == "incident":
            _, _, data = message
            from repro.core.supervisor import Incident

            self._record_incident(Incident.from_dict(data))
            self.total_incidents += 1
            self.lost_sample_incidents += 1
            self._budget_abort("worker-contained incident")
        elif kind == "fatal":
            _, _, index, error_type, detail = message
            self._retire(worker_id)
            self.abort_exc = InjectionIncident(
                f"worker {worker_id} aborted on cell "
                f"{self._cell_label(index)}: {error_type}: {detail}"
            )
        elif kind == "stopped":
            self._retire(worker_id)
            if self.global_stop:
                return
            remaining = [
                task for task in self.assigned[worker_id]
                if task.index in self.pending_done
            ]
            self.assigned[worker_id] = []
            if remaining:
                self._reschedule(remaining, cause="stopped", worker=worker_id)
        elif kind == "bye":
            self._retire(worker_id)

    # -- degradation -------------------------------------------------------

    def _serial_fallback(self) -> None:
        """The pool is gone: finish the remaining cells in-process.

        Cells that already exhausted their attempt budget are quarantined
        first — a cell that killed every worker it touched must not take
        the parent down with it.
        """
        self._mark_degraded("no live workers remain")
        remaining = sorted(self.pending_done)
        self._instant("serial-fallback", cells=len(remaining))
        self._counter("exec.serial_fallback_cells", len(remaining))
        for index in remaining:
            if self.abort_exc is not None:
                return
            workload, component, cardinality = self.cells[index]
            task = CellTask(
                index=index, workload=workload, component=component,
                cardinality=cardinality, cell_key=self.keys[index],
                partial=self.live_partials.get(index),
                attempt=self.attempts.get(index, 0),
            )
            if self.attempts.get(index, 0) >= self.policy.max_attempts:
                self._quarantine(task, "degraded")
                continue
            before = (
                self.supervisor.incident_count
                if self.supervisor is not None else 0
            )
            # The store still holds the freshest streamed checkpoint, so
            # resume=True continues exactly where the dead worker left
            # off; live_partials may be newer only if a store-less run.
            if (
                self.store is None
                and task.partial is not None
            ):
                store_arg = _MemoryPartial(task.cell_key, task.partial)
            else:
                store_arg = self.store
            try:
                cell = run_cell(
                    workload, component, cardinality,
                    self.config, self.core_cfg,
                    supervisor=self.supervisor,
                    store=store_arg, cell_key=self.keys[index],
                    checkpoint_every=self.checkpoint_every, resume=True,
                    verify=self.verify, prune=self.prune,
                )
            except CampaignInterrupted:  # pragma: no cover - no stop hook
                return
            except InjectionIncident as exc:
                self.abort_exc = exc
                return
            if self.supervisor is not None:
                contained = self.supervisor.incident_count - before
                self.total_incidents += contained
                self.lost_sample_incidents += contained
            self.results[index] = cell
            self.pending_done.discard(index)
            self.live_partials.pop(index, None)
            if self.store is not None:
                self.store.put(self.keys[index], cell)
            self._emit_progress()

    # -- shutdown paths ----------------------------------------------------

    def _drain_for_checkpoints(self, timeout: float = 10.0) -> None:
        """Absorb in-flight messages while stopping workers wind down.

        Everything durable that arrives during the drain — final mid-cell
        checkpoints, cells that completed in the shutdown window — is
        written to the store, so an interrupted run loses at most the
        unsampled remainder of each worker's current injection.
        """
        deadline = time.monotonic() + timeout
        while self._alive_ids() and time.monotonic() < deadline:
            message = self.backend.recv(_POLL_INTERVAL)
            if message is None:
                continue
            kind = message[0]
            if kind == "partial":
                _, _, index, key, state = message
                self.live_partials[index] = state
                if self.store is not None and index in self.pending_done:
                    self.store.put_partial(
                        key, CellCheckpoint.from_dict(state)
                    )
            elif kind == "cell":
                _, _, index, data = message
                if self.store is not None and index in self.pending_done:
                    self.store.put(
                        self.keys[index], CellResult.from_dict(data)
                    )
                self.pending_done.discard(index)
            elif kind == "telemetry":
                _, worker_id, index, delta, events = message
                if self.parent_tel is not None:
                    if index is None:
                        self.worker_deltas.append(delta)
                    elif index in self.pending_done:
                        self.cell_deltas[index] = delta
                    self.parent_tel.tracer.adopt(events, tid=worker_id + 1)
            elif kind == "ready":
                worker_id = message[1]
                if worker_id not in self.retired:
                    self.handles[worker_id].send(None)
            elif kind in ("stopped", "bye"):
                self._retire(message[1])

    def _collect_leftover_telemetry(self) -> None:
        """Absorb telemetry still queued after every worker has exited.

        Deltas for cells that were already merged (raced duplicates from
        reschedules) are counted as ``exec.lost_deltas``
        rather than silently dropped — the serial/parallel ``sim.*``
        equality contract only holds for incident-free runs, and the
        counter is how an operator sees why.
        """
        while True:
            message = self.backend.recv(0.2)
            if message is None:
                return
            if message[0] != "telemetry":
                continue
            _, worker_id, index, delta, events = message
            if index is None:
                self.worker_deltas.append(delta)
            elif index in self.pending_done:
                self.cell_deltas[index] = delta
            else:
                self._counter("exec.lost_deltas")
            self.parent_tel.tracer.adopt(events, tid=worker_id + 1)

    def _shutdown(self) -> None:
        for worker_id, handle in self.handles.items():
            if worker_id in self.retired:
                continue
            handle.soft_cancel()
            handle.send(None)
        for handle in self.handles.values():
            handle.join(timeout=5.0)
        for handle in self.handles.values():
            if handle.alive():
                handle.kill()
                handle.join(timeout=1.0)
        if self.parent_tel is not None:
            self._collect_leftover_telemetry()
            # Canonical-order merge: same input order every run, and the
            # merge operators themselves are order-independent — either
            # property alone makes merged counters deterministic.
            for index in sorted(self.cell_deltas):
                self.parent_tel.metrics.merge_dict(self.cell_deltas[index])
            for delta in self.worker_deltas:
                self.parent_tel.metrics.merge_dict(delta)
        self.backend.close()

    # -- the main loop -----------------------------------------------------

    def run(self) -> CampaignResult:
        self._emit_progress()
        if not self.tasks:
            return CampaignResult(
                [self.results[i] for i in range(self.total)],
                incidents=self.lost_sample_incidents,
            )
        jobs = max(1, min(self.jobs, len(self.tasks)))
        batches = _affinity_batches(self.tasks, jobs)
        self.batches = deque(batches)
        self.max_restarts = jobs * self.policy.restarts_per_worker
        spec = WorkerSpec(
            config=self.config, core_cfg=self.core_cfg,
            supervised=self.supervisor is not None, strict=self.strict,
            watchdog=self.watchdog, checkpoint_every=self.checkpoint_every,
            telemetry_enabled=self.parent_tel is not None,
            verify=self.verify,
            prune=self.prune,
            heartbeat_interval=self.policy.heartbeat_interval,
            chaos=self.chaos,
        )
        self.backend = create_backend(
            self.backend_name, spec, self.backend_options
        )
        if self.parent_tel is not None:
            self.parent_tel.metrics.gauge("exec.scheduler.batches").set_max(
                len(batches)
            )
            self.parent_tel.metrics.counter(
                "exec.scheduler.cells_cached"
            ).inc(len(self.results))
        for _ in range(min(jobs, len(batches))):
            self._spawn()
        try:
            while self.pending_done and self.abort_exc is None:
                self._reap_dead()
                if self.abort_exc is not None:
                    break
                if not self._alive_ids():
                    if self.policy.degrade_to_serial and not self.global_stop:
                        self._serial_fallback()
                    elif self.abort_exc is None:
                        self.abort_exc = WorkerCrash(
                            f"all workers died ({self.restarts} restart(s) "
                            f"used of {self.max_restarts}) and serial "
                            f"degradation is disabled"
                        )
                    break
                for message in self._recv_with_chaos(_POLL_INTERVAL):
                    self._handle(message)
                    if self.abort_exc is not None:
                        break
                if self.abort_exc is None:
                    self._tick(time.monotonic())
        except KeyboardInterrupt:
            # Graceful drain (SIGINT and SIGTERM both land here): let
            # every worker finish its current sample, flush its final
            # mid-cell checkpoint, and exit; persist whatever arrives so
            # --resume continues bit-identically.
            self.global_stop = True
            for worker_id, handle in self.handles.items():
                if worker_id not in self.retired:
                    handle.soft_cancel()
            self._drain_for_checkpoints()
            if self.store is not None:
                self.store.compact()
            raise
        finally:
            self.global_stop = True
            self._shutdown()

        if self.abort_exc is not None:
            if self.store is not None:
                self.store.compact()
            raise self.abort_exc
        return CampaignResult(
            [self.results[i] for i in range(self.total)],
            incidents=self.lost_sample_incidents,
        )


class _MemoryPartial:
    """Minimal store stand-in for store-less serial fallback: serves the
    freshest streamed checkpoint so the fallback resumes instead of
    redoing the dead worker's samples."""

    def __init__(self, key: str, state: dict) -> None:
        self._key = key
        self._state = state

    def get_partial(self, key: str) -> CellCheckpoint | None:
        if key != self._key:
            return None
        try:
            return CellCheckpoint.from_dict(self._state)
        except (KeyError, ValueError, TypeError):  # pragma: no cover
            return None

    def put_partial(self, key: str, checkpoint: CellCheckpoint) -> None:
        self._state = checkpoint.as_dict()


def run_campaign_parallel(
    config: CampaignConfig,
    jobs: int,
    progress: ProgressFn | None = None,
    store: CampaignStore | None = None,
    core_cfg: CoreConfig = DEFAULT_CONFIG,
    *,
    supervisor=None,
    checkpoint_every: int | None = DEFAULT_CHECKPOINT_EVERY,
    resume: bool = True,
    verify: bool = False,
    prune: bool = False,
    backend: str = "multiprocessing",
    backend_options: dict | None = None,
    policy: ResiliencePolicy | None = None,
    chaos: ChaosSpec | None = None,
) -> CampaignResult:
    """Run a campaign across *jobs* workers behind an executor backend.

    Drop-in equivalent of the serial :func:`~repro.core.campaign.run_campaign`
    body: same store semantics (cached cells are served without
    simulation, new cells are persisted as they finish), same supervisor
    contract (*supervisor*'s journal receives every incident and its
    ``incident_count`` grows), same result — byte-identical JSON.

    *backend* selects the executor backend (``"multiprocessing"`` or
    ``"socket"``) and *backend_options* are passed to its constructor
    (e.g. ``{"host": ..., "port": ..., "autospawn": False}`` for a
    listening socket coordinator); *policy* tunes the resilience
    protocol; *chaos* injects deterministic faults into the fabric (see
    :mod:`repro.core.chaos`).
    """
    scheduler = _Scheduler(
        config, jobs, progress, store, core_cfg, supervisor,
        checkpoint_every, resume, verify, prune, backend,
        policy if policy is not None else ResiliencePolicy(), chaos,
        backend_options,
    )
    return scheduler.run()
