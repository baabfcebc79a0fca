"""Traced run: per-layer metrics, timed from the benchmark's own files.

Nothing here adds a span inside ``src/``.  The calls into each layer are
wrapped from outside:

* :class:`TimedSupervisor` — a ``Supervisor`` subclass whose
  ``run_injection`` records a ``bench.injection`` span per sample;
* :class:`TimedStore` — a ``CampaignStore`` subclass timing ``put`` and
  accounting the journal each ``compact`` folds away;
* :func:`instrumented` — while active, the supervisor module hands out
  :class:`TimedSupervisor` (so forked pool workers build one too) and its
  ``run_one_injection`` also counts the cycles simulated after each flip;
* :func:`stage_shares` — ``cProfile`` over one golden run per program.

Everything else is read from the counters and ``time.phase.*``
histograms that :mod:`repro.obs` telemetry already emits; worker
telemetry (and the ``bench.injection`` spans) reaches the parent over the
executor's existing telemetry stream.
"""

from __future__ import annotations

import contextlib
import cProfile
import json
import math
import pstats
import statistics
import time
from pathlib import Path

from repro import obs
from repro.core import supervisor as supervisor_module
from repro.core.campaign import GOLDEN_MAX_CYCLES, CampaignStore, build_system
from repro.core.supervisor import Supervisor
from repro.cpu.config import DEFAULT_CONFIG
from repro.workloads import get_workload

import harness
from harness import BenchWorkload, Round, metric

#: Injections the traced phase times at least, per workload.
TRACED_INJECTIONS = 100

#: Pipeline stage -> the ``OutOfOrderCore`` method that implements it.
STAGES = {
    "fetch": "_fetch",
    "rename": "_rename_dispatch",
    "issue": "_issue",
    "writeback": "_writeback",
    "commit": "_commit",
}

PHASES = ("restore", "prefix", "faulty", "classify")
OUTCOMES = {
    "masked": "masked", "sdc": "sdc", "crash": "crash",
    "timeout": "timeout", "assert": "assertion",
}
MEM_COMPONENTS = ("l1d", "l1i", "l2", "dtlb", "itlb")

clock = time.perf_counter


class TimedSupervisor(Supervisor):
    """A real supervisor that also records one span per injection."""

    def run_injection(self, workload, component, *args, **kwargs):
        with obs.span("bench.injection", workload=workload.name,
                      component=component):
            return super().run_injection(workload, component, *args, **kwargs)


class TimedStore(CampaignStore):
    """A real store that times ``put`` and accounts its journal."""

    def __init__(self, *args, **kwargs) -> None:
        self.put_seconds: list[float] = []
        self.appends = 0
        self.journal_bytes = 0
        self._accounted = 0
        super().__init__(*args, **kwargs)

    def put(self, key, cell) -> None:
        start = clock()
        super().put(key, cell)
        self.put_seconds.append(clock() - start)

    def account_journal(self) -> None:
        """Count journal lines and bytes written since the last call."""
        if not self.journal_path.exists():
            return
        data = self.journal_path.read_bytes()
        self.appends += data.count(b"\n", self._accounted)
        self.journal_bytes += len(data) - self._accounted
        self._accounted = len(data)

    def compact(self) -> None:
        self.account_journal()
        super().compact()
        self._accounted = 0

    def close(self) -> None:
        self.account_journal()
        super().close()


def _counting(run_one_injection):
    """Wrap ``run_one_injection`` to count cycles simulated after the flip."""

    def counted(workload, component, generator, cardinality, inject_cycle,
                *args, **kwargs):
        tel = obs.active()
        pruned = tel.metrics.counter("sim.pruned.total").value if tel else 0
        outcome = run_one_injection(
            workload, component, generator, cardinality, inject_cycle,
            *args, **kwargs,
        )
        if tel is not None and tel.metrics.counter(
                "sim.pruned.total").value == pruned:
            result = outcome[1]
            tel.metrics.counter("bench.faulty_cycles").inc(
                max(0, result.cycles - inject_cycle)
            )
        return outcome

    return counted


@contextlib.contextmanager
def instrumented():
    """Telemetry on, and the supervisor module's two names wrapped."""
    real_cls = supervisor_module.Supervisor
    real_run = supervisor_module.run_one_injection
    telemetry = obs.enable()
    supervisor_module.Supervisor = TimedSupervisor
    supervisor_module.run_one_injection = _counting(real_run)
    try:
        yield telemetry
    finally:
        supervisor_module.Supervisor = real_cls
        supervisor_module.run_one_injection = real_run
        obs.disable()


def stage_shares(workload: BenchWorkload) -> dict[str, float]:
    """Share of profiled golden-run time spent in each pipeline stage."""
    profiler = cProfile.Profile()
    for name in workload.programs:
        system = build_system(get_workload(name), DEFAULT_CONFIG,
                              workload.cores)
        profiler.runcall(system.run, GOLDEN_MAX_CYCLES)
    stats = pstats.Stats(profiler)
    cumulative: dict[str, float] = {}
    for (filename, _, func), (_, _, _, total, _) in stats.stats.items():
        if Path(filename).parts[-2:] == ("cpu", "core.py"):
            cumulative[func] = cumulative.get(func, 0.0) + total
    return {stage: cumulative.get(func, 0.0) / stats.total_tt
            for stage, func in STAGES.items()}


def _durations_ms(telemetry, name: str) -> list[float]:
    return sorted(
        event["dur"] / 1000.0 for event in telemetry.tracer.events
        if event["name"] == name and event["ph"] == "X"
    )


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[-1] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def golden_layer_metrics(stats: dict[str, dict]) -> dict:
    """Modelled-design statistics of the golden runs (deterministic)."""
    cycles = sum(s["cycles"] for s in stats.values())
    instructions = sum(s["instructions"] for s in stats.values())
    mem: dict[str, int] = {}
    for s in stats.values():
        for name, value in s["mem"].items():
            # Per-core names carry a "c{k}." prefix; fold cores together.
            key = ".".join(name.split(".")[-2:])
            mem[key] = mem.get(key, 0) + value
    out = {"cpu.ipc": metric(instructions / cycles, "instr/cycle")}
    for component in MEM_COMPONENTS:
        hits = mem.get(f"{component}.hits", 0)
        misses = mem.get(f"{component}.misses", 0)
        out[f"mem.{component}.miss_rate"] = metric(
            misses / (hits + misses) if hits + misses else 0.0, "frac"
        )
    for event in ("invalidations", "interventions"):
        out[f"mem.bus.{event}"] = metric(mem.get(f"bus.{event}", 0), "count")
    return out


def traced_run(
    workload: BenchWorkload,
    seed: int,
    setup: dict[str, float],
    stats: dict[str, dict],
) -> tuple[list[Round], dict]:
    """Per-layer metrics of *workload*; returns (rounds, metrics).

    Round 0 runs once untraced and once traced, which gives the tracing
    overhead on identical work; the traced phase then continues until at
    least :data:`TRACED_INJECTIONS` samples were timed.  The returned
    rounds start with the untraced one.
    """
    count = max(1, math.ceil(TRACED_INJECTIONS / workload.samples_per_round))
    shares = stage_shares(workload)
    untraced = harness.run_round(workload, harness.round_seed(seed, 0))
    with instrumented() as telemetry:
        traced = [
            harness.run_round(workload, harness.round_seed(seed, index),
                              TimedSupervisor, TimedStore)
            for index in range(count)
        ]
    counters = {n: c.value for n, c in telemetry.metrics.counters.items()}
    histograms = telemetry.metrics.histograms

    def hist_sum(name: str) -> float:
        return histograms[name].sum if name in histograms else 0.0

    wall = sum(r.wall for r in traced)
    injection_ms = _durations_ms(telemetry, "bench.injection")
    injection_s = sum(injection_ms) / 1000.0
    jobs = workload.jobs
    busy = hist_sum("time.worker-batch") if jobs > 1 else hist_sum("time.cell")
    samples = counters.get("sim.samples", 0)
    put_ms = [s * 1000.0 for r in traced for s in r.store.put_seconds]
    faulty_cycles = counters.get("bench.faulty_cycles", 0)
    faulty_s = hist_sum("time.phase.faulty")
    prune = histograms.get("time.phase.prune")

    metrics = {
        "cpu.faulty_cycles": metric(faulty_cycles, "count"),
        "cpu.faulty_cycles_per_s": metric(
            faulty_cycles / faulty_s if faulty_s else 0.0, "cycles/s"),
    }
    for stage, share in shares.items():
        metrics[f"cpu.stage_share.{stage}"] = metric(share, "frac")
    for phase in PHASES:
        metrics[f"campaign.{phase}_share"] = metric(
            hist_sum(f"time.phase.{phase}") / injection_s
            if injection_s else 0.0, "frac")
    metrics.update({
        "campaign.injection_p50_ms": metric(
            statistics.median(injection_ms) if injection_ms else 0.0, "ms"),
        "campaign.injection_p90_ms": metric(_p90(injection_ms), "ms"),
        "campaign.injections_timed": metric(len(injection_ms), "count"),
        "campaign.checkpoint_build_s": metric(setup["checkpoints"], "s"),
        "liveness.build_s": metric(setup["liveness"], "s"),
        "minic.compile_s": metric(setup["compile"], "s"),
        "liveness.pruned_frac": metric(
            counters.get("sim.pruned.total", 0) / samples if samples else 0.0,
            "frac"),
        "liveness.decide_us": metric(
            prune.mean * 1e6 if prune is not None else 0.0, "us"),
        "fabric.worker_utilization": metric(busy / (wall * jobs), "frac"),
        "fabric.overhead_s": metric(
            (wall - hist_sum("time.cell") / jobs) / len(traced), "s"),
        "fabric.workers_spawned": metric(
            counters.get("exec.workers_spawned", 0), "count"),
        "fabric.retries": metric(counters.get("exec.retries", 0), "count"),
        "store.put_ms_p50": metric(
            statistics.median(put_ms) if put_ms else 0.0, "ms"),
        "store.appends": metric(sum(r.store.appends for r in traced), "count"),
        "store.journal_bytes": metric(
            sum(r.store.journal_bytes for r in traced), "bytes"),
        "supervisor.incidents": metric(
            sum(r.result.incidents for r in traced), "count"),
    })
    for name, field in OUTCOMES.items():
        metrics[f"campaign.outcome.{name}"] = metric(
            sum(getattr(cell.counts, field)
                for r in traced for cell in r.result.cells), "count")
    metrics.update(golden_layer_metrics(stats))
    metrics["obs.trace_overhead_frac"] = metric(
        traced[0].ref_wall / untraced.ref_wall - 1.0, "frac")

    out_dir = Path(harness.scratch_dir())
    stem = f"{workload.name}-seed{seed}"
    (out_dir / f"{stem}.trace.json").write_text(json.dumps(obs.chrome_trace(
        telemetry.tracer.events, dropped=telemetry.tracer.dropped)))
    telemetry.write(out_dir / f"{stem}.telemetry.json", include_trace=False)
    return [untraced, *traced], metrics
