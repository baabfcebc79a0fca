"""Deterministic chaos harness for the parallel executor fabric.

The resilience protocol of :mod:`repro.core.parallel` (heartbeats, the
per-worker lease, retry with backoff, poison-cell quarantine,
degradation to a shrinking pool) is only trustworthy if it is *exercised* — a recovery
path that never runs is a recovery path that does not work.  This module
injects seeded faults into the fabric itself and asserts that the
campaign's headline guarantee survives every one of them: results and
the compacted :class:`~repro.core.campaign.CampaignStore` stay
**byte-identical to a serial run**.

Fault classes (one scenario each, composable):

* ``kill``  — a worker dies unannounced (``os._exit``) mid-cell, like a
  segfault or OOM kill; the cell must be rescheduled from its last
  streamed checkpoint.
* ``stall`` — a worker stops making progress mid-cell (sleeps through
  its heartbeat); its lease must expire, and the scheduler must kill it
  and reschedule its cells.
* ``drop``  — worker messages (checkpoints, telemetry, even completed
  cell results) vanish in flight; lost results must be detected and
  re-executed.
* ``dup``   — worker messages are delivered twice; duplicates must be
  discarded before the merge.
* ``torn``  — a mid-cell checkpoint append is torn halfway and the
  process "dies" at that exact point (:class:`~repro.errors.ChaosAbort`);
  a restart + ``--resume`` must recover bit-identically.
* ``poison`` — one cell kills every worker that touches it; after
  ``max_attempts`` tries it must be quarantined as an incident instead
  of sinking the campaign (and must abort it under ``--strict`` or a
  tight ``--max-incidents``).

Network fault classes (:data:`NET_SCENARIOS`, socket backend only —
they sever or corrupt a TCP transport that the multiprocessing backend
does not have):

* ``disconnect``   — a worker drops its connection mid-cell; the parent
  must reschedule from the last acked checkpoint while the worker
  rejoins.
* ``partition``    — the connection is severed *during* the checkpoint
  stream (after at least one mid-cell checkpoint was acked), so the
  resume provably continues from a mid-cell state.
* ``corrupt-frame`` — a worker emits a frame whose CRC lies; the codec
  must diagnose it, the parent must treat the stream as dead, and the
  campaign must still converge.
* ``stale-epoch``  — a disconnected worker rejoins claiming a bogus
  session epoch; the coordinator must reject it, and the worker's clean
  retry must be accepted.
* ``dup-deliver``  — result/checkpoint messages are delivered twice
  (the healed-partition double-send); duplicates must be suppressed by
  first-canonical-result-wins.

Worker-side network events fire through a transport hook the socket
worker registers around :func:`~repro.core.executor.worker_loop`
(:func:`set_transport_hook`); in non-socket runs the hook is absent and
the events are inert rather than vacuously "passed" — their flag is only
marked once a hook actually fired.

Worker-side events fire **once** across reschedules (flag files — the
same mechanism a real heisenbug's nondeterminism provides, made
deterministic), so every scenario converges.  Event placement is drawn
from a seeded RNG over the campaign grid: same seed, same chaos.

``repro-campaign chaos`` runs the full matrix; tests/test_chaos.py runs
it in-process.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ChaosAbort

#: Scenario names in canonical run order.
SCENARIOS = ("kill", "stall", "drop", "dup", "torn", "poison")

#: Network scenarios: require ``backend="socket"`` (there is no
#: transport to sever inside the in-process backends).
NET_SCENARIOS = (
    "disconnect", "partition", "corrupt-frame", "stale-epoch", "dup-deliver",
)

#: Exit code chaos kills die with — distinctive in incident journals.
CHAOS_EXIT_CODE = 64

#: The socket worker's registered transport saboteur (or ``None``).
#: Takes one argument, the event kind: ``"disconnect"`` severs the
#: connection, ``"corrupt"`` emits a bad-CRC frame.  Process-local by
#: design: each worker process registers its own.
_TRANSPORT_HOOK = {"fn": None}


def set_transport_hook(fn) -> None:
    """Register (or with ``None`` clear) the transport chaos hook."""
    _TRANSPORT_HOOK["fn"] = fn


@dataclass(frozen=True)
class ChaosEvent:
    """One worker-side fault: fires when a worker's stop probe reaches
    *ordinal* (the per-cell sample-probe counter) inside the given cell.

    ``kind`` is ``"kill"`` (hard ``os._exit``, no cleanup, no goodbye —
    exactly what a segfault looks like from the parent), ``"stall"``
    (sleep through the heartbeat interval, exactly what a livelock looks
    like), ``"disconnect"`` (sever the socket transport mid-cell) or
    ``"corrupt"`` (emit a frame whose CRC lies) — the last two act
    through the registered transport hook and are inert without one.
    *flag* (optional explicit path) marks the event as fired so the
    rescheduled cell does not re-trigger it.
    """

    kind: str
    workload: str
    component: str
    cardinality: int
    ordinal: int = 0
    duration: float = 0.0
    exit_code: int = CHAOS_EXIT_CODE
    flag: str | None = None


@dataclass(frozen=True)
class ChaosSpec:
    """A complete seeded chaos plan, picklable so workers can carry it.

    Worker-side: *events* (kills and stalls).  Parent-side:
    *drop_ordinals* / *dup_ordinals* index into the scheduler's stream of
    droppable (``partial``/``telemetry``/``cell``) and duplicable
    (``cell``/``partial``) worker messages; *torn_ordinals* index into the
    stream of parent-side checkpoint writes (see :class:`TornWriteStore`).
    *stale_rejoin* makes the socket worker's first reconnect claim a
    bogus session epoch (once, flag-file guarded), exercising the
    coordinator's stale-session rejection.
    """

    flag_dir: str = ""
    events: tuple[ChaosEvent, ...] = ()
    drop_ordinals: tuple[int, ...] = ()
    dup_ordinals: tuple[int, ...] = ()
    torn_ordinals: tuple[int, ...] = ()
    stale_rejoin: bool = False

    def _flag_path(self, index: int, event: ChaosEvent) -> Path:
        if event.flag is not None:
            return Path(event.flag)
        return Path(self.flag_dir) / f"chaos-event-{index}.fired"

    def worker_event(
        self, workload: str, component: str, cardinality: int, ordinal: int
    ) -> None:
        """Probe hook run by workers once per sample; may not return."""
        for index, event in enumerate(self.events):
            if (
                event.workload == workload
                and event.component == component
                and event.cardinality == cardinality
                and event.ordinal == ordinal
            ):
                flag = self._flag_path(index, event)
                if flag.exists():
                    continue
                if event.kind in ("disconnect", "corrupt"):
                    hook = _TRANSPORT_HOOK["fn"]
                    if hook is None:
                        # No transport to sabotage (not a socket worker):
                        # leave the flag unmarked so the event is armed,
                        # not silently "passed".
                        continue
                    try:
                        flag.parent.mkdir(parents=True, exist_ok=True)
                        flag.touch()
                    except OSError:  # pragma: no cover - flag dir vanished
                        continue
                    hook(event.kind)
                    continue
                try:
                    flag.parent.mkdir(parents=True, exist_ok=True)
                    flag.touch()
                except OSError:  # pragma: no cover - flag dir vanished
                    continue
                if event.kind == "kill":
                    os._exit(event.exit_code)
                elif event.kind == "stall":
                    time.sleep(event.duration)


class TornWriteStore:
    """Store proxy that tears a checkpoint append and "dies" on the spot.

    The *n*-th ``put_partial`` (for *n* in ``torn_ordinals``) writes the
    first half of its journal line — no newline, no trailing state — and
    raises :class:`~repro.errors.ChaosAbort`, simulating a process killed
    mid-``write``.  Everything after the torn line never happens, exactly
    like a real crash; the store's journal replay skips the torn final
    line on reload.  Flag files keep each tear one-shot across the
    restart, so the resumed run completes.
    """

    def __init__(self, store, spec: ChaosSpec) -> None:
        self._store = store
        self._spec = spec
        self._count = 0

    def __getattr__(self, name: str):
        return getattr(self._store, name)

    def __len__(self) -> int:
        return len(self._store)

    def put_partial(self, key: str, checkpoint) -> None:
        ordinal = self._count
        self._count += 1
        if ordinal in self._spec.torn_ordinals:
            flag = Path(self._spec.flag_dir) / f"chaos-torn-{ordinal}.fired"
            if not flag.exists():
                flag.parent.mkdir(parents=True, exist_ok=True)
                flag.touch()
                line = json.dumps(
                    {"op": "partial", "key": key,
                     "state": checkpoint.as_dict()}
                )
                # Close the store's own journal handle first so the torn
                # fragment lands after everything it already flushed.
                self._store.close()
                with self._store.journal_path.open("a") as journal:
                    journal.write(line[: max(1, len(line) // 2)])
                    journal.flush()
                raise ChaosAbort(
                    f"torn checkpoint append for cell {key} "
                    f"(write #{ordinal}) — simulated death mid-write"
                )
        self._store.put_partial(key, checkpoint)


def build_spec(
    scenario: str,
    config,
    seed: int,
    flag_dir: str | Path,
    *,
    max_attempts: int = 3,
    stall_duration: float = 120.0,
) -> ChaosSpec:
    """Seeded chaos plan for one scenario over *config*'s cell grid.

    Same (scenario, config, seed) → same plan.  *stall_duration* should
    comfortably exceed the resilience policy's lease, so the stalled
    worker is killed rather than outwaited (the kill cuts the sleep
    short, so a generous value costs nothing).
    """
    if scenario not in SCENARIOS + NET_SCENARIOS:
        raise ValueError(
            f"unknown chaos scenario {scenario!r} "
            f"(choose from {SCENARIOS + NET_SCENARIOS})"
        )
    rng = random.Random(f"chaos:{scenario}:{seed}")
    cells = config.cells()
    flag_dir = str(flag_dir)

    def pick_cell() -> tuple[str, str, int]:
        return cells[rng.randrange(len(cells))]

    def pick_ordinal() -> int:
        # Ordinal 0 fires before the first sample; later ordinals fire
        # mid-cell, after checkpoints may have been streamed.
        return rng.randrange(max(1, config.samples))

    events: list[ChaosEvent] = []
    drops: tuple[int, ...] = ()
    dups: tuple[int, ...] = ()
    torn: tuple[int, ...] = ()
    stale = False
    if scenario == "kill":
        for _ in range(2):
            workload, component, cardinality = pick_cell()
            events.append(ChaosEvent(
                "kill", workload, component, cardinality,
                ordinal=pick_ordinal(),
            ))
    elif scenario == "stall":
        workload, component, cardinality = pick_cell()
        events.append(ChaosEvent(
            "stall", workload, component, cardinality,
            ordinal=pick_ordinal(), duration=stall_duration,
        ))
    elif scenario == "drop":
        drops = tuple(sorted(rng.sample(range(16), k=3)))
    elif scenario == "dup":
        dups = tuple(sorted(rng.sample(range(16), k=3)))
    elif scenario == "torn":
        torn = (rng.randrange(3),)
    elif scenario == "poison":
        workload, component, cardinality = pick_cell()
        # Enough kills that every allowed attempt dies at sample zero:
        # the scheduler must quarantine, not converge.
        events.extend(
            ChaosEvent("kill", workload, component, cardinality, ordinal=0)
            for _ in range(max_attempts + 1)
        )
    elif scenario == "disconnect":
        workload, component, cardinality = pick_cell()
        events.append(ChaosEvent(
            "disconnect", workload, component, cardinality,
            ordinal=pick_ordinal(),
        ))
    elif scenario == "partition":
        # Sever *during* the checkpoint stream: ordinal ≥ 1 guarantees at
        # least one mid-cell checkpoint was acked before the cut, so the
        # reschedule provably resumes from a mid-cell state.
        workload, component, cardinality = pick_cell()
        ordinal = 1 + rng.randrange(max(1, config.samples - 1))
        events.append(ChaosEvent(
            "disconnect", workload, component, cardinality, ordinal=ordinal,
        ))
    elif scenario == "corrupt-frame":
        workload, component, cardinality = pick_cell()
        events.append(ChaosEvent(
            "corrupt", workload, component, cardinality,
            ordinal=pick_ordinal(),
        ))
    elif scenario == "stale-epoch":
        # Disconnect, then have the rejoin claim a bogus session epoch:
        # the coordinator must reject the stale join and accept the
        # clean retry.
        workload, component, cardinality = pick_cell()
        events.append(ChaosEvent(
            "disconnect", workload, component, cardinality,
            ordinal=pick_ordinal(),
        ))
        stale = True
    elif scenario == "dup-deliver":
        # Healed-partition double-send, injected parent-side so the
        # whole dedup path (not just the transport) is exercised.
        dups = tuple(sorted(rng.sample(range(16), k=3)))
    return ChaosSpec(
        flag_dir=flag_dir,
        events=tuple(events),
        drop_ordinals=drops,
        dup_ordinals=dups,
        torn_ordinals=torn,
        stale_rejoin=stale,
    )


def chaos_policy(**overrides):
    """The harness's resilience policy: tight timings, since chaos
    campaigns are small and the stall scenario should end in seconds,
    not minutes — a lease of ``max(3 s, 4 × one sample)`` tolerates as
    much silence as ordinary cell setup needs.  *overrides* replace
    individual knobs."""
    from repro.core.executor import ResiliencePolicy

    knobs = dict(
        heartbeat_interval=0.1,
        lease_factor=4.0,
        lease_floor=3.0,
        retry_base_delay=0.05,
        retry_max_delay=0.5,
    )
    knobs.update(overrides)
    return ResiliencePolicy(**knobs)


def poison_cell_of(spec: ChaosSpec) -> tuple[str, str, int] | None:
    """The (workload, component, cardinality) a poison spec targets."""
    if not spec.events:
        return None
    event = spec.events[0]
    return (event.workload, event.component, event.cardinality)


@dataclass
class ScenarioOutcome:
    """What one chaos scenario did and whether the guarantee held."""

    scenario: str
    ok: bool
    detail: str
    incidents: list = field(default_factory=list)
    restarts: int = 0

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "ok": self.ok,
            "detail": self.detail,
            "restarts": self.restarts,
            "incidents": [incident.as_dict() for incident in self.incidents],
        }


@dataclass
class ChaosReport:
    """The full matrix: per-scenario outcomes plus the reference bytes."""

    outcomes: list[ScenarioOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "outcomes": [outcome.as_dict() for outcome in self.outcomes],
        }


def _run_with_restarts(
    config,
    jobs: int,
    store_path: Path,
    spec: ChaosSpec,
    *,
    backend: str,
    policy,
    core_cfg,
    supervisor_factory,
    max_restarts: int = 8,
    checkpoint_every: int = 1,
):
    """Run a chaos campaign, restarting after every simulated death.

    Each :class:`~repro.errors.ChaosAbort` drops the in-memory store and
    reopens it from disk — journal replay, torn-line recovery and all —
    exactly as a freshly started process would, then resumes.  Returns
    ``(result, supervisor, restarts)``.  *checkpoint_every* defaults to
    every sample so chaos campaigns actually stream mid-cell checkpoints
    (the torn scenario tears one of those writes; kills and hangs resume
    from them).
    """
    from repro.core.campaign import CampaignStore
    from repro.core.parallel import run_campaign_parallel

    restarts = 0
    supervisor = supervisor_factory()
    while True:
        store = CampaignStore(store_path)
        wrapped = TornWriteStore(store, spec) if spec.torn_ordinals else store
        try:
            result = run_campaign_parallel(
                config, jobs=jobs, store=wrapped, core_cfg=core_cfg,
                supervisor=supervisor, resume=True,
                checkpoint_every=checkpoint_every,
                backend=backend, policy=policy, chaos=spec,
            )
            return result, supervisor, restarts
        except ChaosAbort:
            store.close()
            restarts += 1
            if restarts > max_restarts:  # pragma: no cover - plan is finite
                raise


def run_chaos(
    config,
    *,
    scenarios=SCENARIOS,
    jobs: int = 2,
    seed: int = 0,
    workdir: str | Path,
    backend: str = "multiprocessing",
    core_cfg=None,
    policy=None,
    progress=None,
) -> ChaosReport:
    """Run the chaos matrix and verify the byte-identity guarantee.

    For every scenario: run *config* under injected faults, then compare
    the result JSON and the compacted store byte-for-byte against a
    serial reference.  The ``poison`` scenario instead asserts the
    quarantine contract: the campaign completes (with a ``poison-cell``
    incident and a short cell) by default, and aborts under ``--strict``.
    Incident journals for each scenario are written under *workdir*.
    """
    from repro.core.campaign import (
        CampaignStore, run_campaign,
    )
    from repro.core.supervisor import IncidentJournal, Supervisor
    from repro.cpu.config import DEFAULT_CONFIG

    core_cfg = core_cfg if core_cfg is not None else DEFAULT_CONFIG
    for scenario in scenarios:
        if scenario in NET_SCENARIOS and backend != "socket":
            raise ValueError(
                f"chaos scenario {scenario!r} needs backend='socket' "
                f"(got {backend!r}): only a TCP transport can be severed"
            )
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if policy is None:
        policy = chaos_policy()

    # Serial reference: the bytes every scenario must reproduce.
    ref_store_path = workdir / "reference-store.json"
    ref_store = CampaignStore(ref_store_path)
    reference = run_campaign(config, store=ref_store, core_cfg=core_cfg)
    ref_store.compact()
    ref_store.close()
    reference_bytes = reference.to_json().encode()
    reference_store_bytes = ref_store_path.read_bytes()

    report = ChaosReport()
    for scenario in scenarios:
        if progress is not None:
            progress(scenario)
        scenario_dir = workdir / scenario
        scenario_dir.mkdir(parents=True, exist_ok=True)
        flag_dir = scenario_dir / "flags"
        flag_dir.mkdir(exist_ok=True)
        journal_path = scenario_dir / "incidents.jsonl"
        spec = build_spec(
            scenario, config, seed, flag_dir,
            max_attempts=policy.max_attempts,
        )
        store_path = scenario_dir / "store.json"

        def make_supervisor(strict: bool = False) -> Supervisor:
            return Supervisor(
                journal=IncidentJournal(journal_path), strict=strict,
            )

        if scenario == "poison":
            outcome = _poison_outcome(
                config, jobs, store_path, spec, backend=backend,
                policy=policy, core_cfg=core_cfg,
                make_supervisor=make_supervisor, flag_dir=flag_dir,
                reference_bytes=reference_bytes,
            )
        else:
            result, supervisor, restarts = _run_with_restarts(
                config, jobs, store_path, spec, backend=backend,
                policy=policy, core_cfg=core_cfg,
                supervisor_factory=make_supervisor,
            )
            chaos_store = CampaignStore(store_path)
            chaos_store.compact()
            chaos_store.close()
            failures = []
            if result.to_json().encode() != reference_bytes:
                failures.append("result JSON diverged from serial")
            if store_path.read_bytes() != reference_store_bytes:
                failures.append("compacted store diverged from serial")
            outcome = ScenarioOutcome(
                scenario=scenario,
                ok=not failures,
                detail="; ".join(failures) if failures else (
                    f"byte-identical to serial "
                    f"({len(supervisor.journal.incidents)} incident(s) "
                    f"journalled, {restarts} simulated restart(s))"
                ),
                incidents=list(supervisor.journal.incidents),
                restarts=restarts,
            )
        report.outcomes.append(outcome)
    return report


def _poison_outcome(
    config,
    jobs: int,
    store_path: Path,
    spec: ChaosSpec,
    *,
    backend: str,
    policy,
    core_cfg,
    make_supervisor,
    flag_dir: Path,
    reference_bytes: bytes,
) -> ScenarioOutcome:
    """The poison scenario: quarantine by default, abort under strict."""
    from repro.core.parallel import run_campaign_parallel
    from repro.errors import InjectionIncident

    failures = []
    supervisor = make_supervisor()
    result = run_campaign_parallel(
        config, jobs=jobs, store=None, core_cfg=core_cfg,
        supervisor=supervisor, backend=backend, policy=policy, chaos=spec,
    )
    kinds = [incident.kind for incident in supervisor.journal.incidents]
    if "poison-cell" not in kinds:
        failures.append(f"no poison-cell incident journalled (got {kinds})")
    target = poison_cell_of(spec)
    poisoned = result.cell(*target) if target is not None else None
    if poisoned is not None and poisoned.counts.total >= config.samples:
        failures.append(
            "quarantined cell unexpectedly holds a full sample set"
        )
    if result.to_json().encode() == reference_bytes:
        failures.append(
            "poisoned campaign matched the serial bytes — chaos never fired"
        )
    # Strict mode must abort on the first worker death instead.  Fresh
    # flags so the kills fire again.
    for flag in flag_dir.glob("chaos-event-*.fired"):
        flag.unlink()
    try:
        run_campaign_parallel(
            config, jobs=jobs, store=None, core_cfg=core_cfg,
            supervisor=make_supervisor(strict=True),
            backend=backend, policy=policy, chaos=spec,
        )
        failures.append("strict run completed despite a poison cell")
    except InjectionIncident:
        pass
    return ScenarioOutcome(
        scenario="poison",
        ok=not failures,
        detail="; ".join(failures) if failures else (
            "cell quarantined, campaign completed; strict run aborted"
        ),
        incidents=list(supervisor.journal.incidents),
    )
