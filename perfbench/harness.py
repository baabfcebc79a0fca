"""Campaign benchmark: one fault-injection campaign per workload.

Every measurement goes through the public entry point,
:func:`repro.core.campaign.run_campaign`, with a fresh
:class:`~repro.core.campaign.CampaignStore` in a temporary directory and
a real :class:`~repro.core.supervisor.Supervisor`.  A run has three parts:

1. **Set-up**, repeated :data:`SETUP_REPS` times from cold (fresh workload
   objects, empty golden/checkpoint/liveness LRUs): the golden run with
   its reference-output check, the golden-prefix checkpoints and, for
   pruned workloads, the liveness trace.  The last repetition leaves the
   caches warm for the timed phase, as a real campaign's first cell would.
2. **Golden throughput**: :data:`GOLDEN_REPS` fault-free simulations of
   each program on a freshly built machine (modelled caches start cold).
   Their simulated statistics are checked against ``expected.json``.
3. **Timed campaign**: campaign *rounds* of a fixed grid for at most
   ``seconds`` (at least one round).  Round 0 uses the benchmark seed as
   ``CampaignConfig.seed``; round *r* uses ``seed + r * ROUND_SEED_STRIDE``.

Host times are reported in *reference seconds*: every timed section runs
beside a :class:`HostProbe`, and its wall time is scaled by how fast the
host ran a fixed probe kernel meanwhile (see README.md, "Host noise").
The traced variant (:func:`measure` with ``trace=True``) replaces part 3
by the per-layer measurement of :mod:`layers`.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core import campaign as campaign_module
from repro.core import liveness as liveness_module
from repro.core.campaign import (
    GOLDEN_MAX_CYCLES,
    CampaignConfig,
    CampaignResult,
    CampaignStore,
    build_system,
    golden_run,
    run_campaign,
    run_cell,
)
from repro.core.liveness import liveness_for
from repro.core.supervisor import Supervisor
from repro.cpu.config import DEFAULT_CONFIG
from repro.cpu.system import COMPONENT_NAMES
from repro.kernel.status import RunStatus
from repro.obs import MetricsRegistry
from repro.workloads import get_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Everything a run leaves behind (temporary stores, traces, result
#: records) stays inside the checkout, under this git-ignored directory.
OUT_DIR = ROOT / ".perfbench_out"
EXPECTED_PATH = HERE / "expected.json"

#: The seed whose round-0 digests ``expected.json`` records.
DEFAULT_SEED = 0
#: Round *r* of a run uses ``seed + r * ROUND_SEED_STRIDE``, so rounds of
#: neighbouring seeds never coincide.
ROUND_SEED_STRIDE = 1_000_003

SETUP_REPS = 3
GOLDEN_REPS = 5

clock = time.perf_counter

#: Thread CPU seconds one probe kernel takes on the reference host (an
#: unloaded 2.1 GHz Xeon vCPU); a section's reference seconds are its wall
#: seconds times this over the probe time measured beside it.
PROBE_REFERENCE_S = 0.0006
PROBE_INTERVAL_S = 0.05


def _probe_kernel() -> int:
    """Fixed interpreter-bound work: dict, branch and integer traffic
    like the simulator's own inner loops, about 1 ms."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(3000):
        table[i & 255] = (table.get(i & 255, 0) + i) & 0xFFFFFFFF
        acc ^= table.get((i * 7) & 255, 0)
    return acc


class HostProbe:
    """Samples how fast the host runs Python beside a timed section.

    On a shared host the speed of the same work swings by half within
    seconds, so wall time alone cannot compare two commits.  A daemon
    thread times :func:`_probe_kernel` in thread CPU time every
    :data:`PROBE_INTERVAL_S` while the section runs (about 2% of one CPU,
    the kernel is shorter than the interpreter's switch interval, so it
    never holds the main thread up for long).  Pure-Python kernels only
    touch interpreter state, which a forked pool worker reinitialises, so
    the thread is safe to keep running across the executor's fork.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wall = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample_once(self) -> None:
        begin = time.thread_time()
        _probe_kernel()
        self.samples.append(time.thread_time() - begin)

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            self._sample_once()

    def __enter__(self) -> "HostProbe":
        gc.collect()  # every section starts from the same collector state
        self._thread.start()
        self._begin = clock()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = clock() - self._begin
        self._stop.set()
        self._thread.join()
        if not self.samples:  # a section shorter than one interval
            self._sample_once()

    @property
    def scale(self) -> float:
        """Reference seconds per wall second of the probed section."""
        return PROBE_REFERENCE_S / statistics.fmean(self.samples)


@dataclass(frozen=True)
class BenchWorkload:
    """One benchmark workload: a campaign grid plus how it is executed."""

    name: str
    programs: tuple[str, ...]
    cores: int = 1
    jobs: int = 1
    prune: bool = False
    #: Samples per cell in one round.
    samples: int = 1
    components: tuple[str, ...] = COMPONENT_NAMES
    cardinalities: tuple[int, ...] = (1, 2, 3)

    def config(self, seed: int) -> CampaignConfig:
        return CampaignConfig(
            workloads=self.programs,
            components=self.components,
            cardinalities=self.cardinalities,
            samples=self.samples,
            seed=seed,
            cores=self.cores,
        )

    @property
    def samples_per_round(self) -> int:
        return (
            len(self.programs) * len(self.components)
            * len(self.cardinalities) * self.samples
        )


# At most two programs per workload: the checkpoint and liveness LRUs hold
# two entries, so a third program would evict one and move set-up work
# into the timed phase.  ``exact`` stays runnable but is not declared in
# BENCHMARK.json (see README.md, "Workloads").
WORKLOADS = {
    w.name: w
    for w in (
        BenchWorkload("exact", ("sha", "dijkstra")),
        BenchWorkload(
            "pruned-jobs2", ("sha", "dijkstra"), jobs=2, prune=True,
            samples=6,
        ),
        BenchWorkload("smp2", ("qsort_p", "fft_p"), cores=2),
    )
}


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def scratch_dir() -> str:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return str(OUT_DIR)


# -- set-up -------------------------------------------------------------------


def clear_caches() -> None:
    """Forget every workload object and cached golden-run artifact."""
    get_workload.cache_clear()
    campaign_module._GOLDEN_CACHE.clear()
    campaign_module._CHECKPOINT_CACHE.clear()
    liveness_module._LIVENESS_CACHE.clear()


def set_up(workload: BenchWorkload) -> dict[str, float]:
    """One cold set-up of *workload*; reference seconds per part."""
    clear_caches()
    parts = {"compile": 0.0, "golden": 0.0, "checkpoints": 0.0,
             "liveness": 0.0}
    with HostProbe() as probe:
        for name in workload.programs:
            program = get_workload(name)
            start = clock()
            program.program()
            parts["compile"] += clock() - start
            start = clock()
            golden_run(program, DEFAULT_CONFIG, cores=workload.cores)
            parts["golden"] += clock() - start
            # A zero-sample cell fills the checkpoint LRU (single-core only).
            start = clock()
            run_cell(
                name, workload.components[0], workload.cardinalities[0],
                dataclasses.replace(
                    workload.config(DEFAULT_SEED), workloads=(name,),
                    samples=0,
                ),
            )
            parts["checkpoints"] += clock() - start
            if workload.prune:
                start = clock()
                liveness_for(program, DEFAULT_CONFIG)
                parts["liveness"] += clock() - start
    parts = {part: value * probe.scale for part, value in parts.items()}
    parts["total"] = probe.wall * probe.scale
    parts["total_wall"] = probe.wall
    return parts


def repeated_set_up(workload: BenchWorkload, reps: int) -> dict[str, float]:
    """Median of each set-up part over *reps* cold set-ups."""
    runs = [set_up(workload) for _ in range(reps)]
    return {part: statistics.median(run[part] for run in runs)
            for part in runs[0]}


# -- golden runs --------------------------------------------------------------


def golden_stats(system, result) -> dict:
    """The simulated statistics a simulator-only change must not move."""
    registry = MetricsRegistry()
    system.publish_metrics(registry, prefix="")
    return {
        "status": result.status.name,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "core": dict(result.stats),
        "mem": {name: c.value for name, c in sorted(registry.counters.items())},
    }


def golden_throughput(
    workload: BenchWorkload, reps: int
) -> tuple[float, dict[str, dict], bool]:
    """Simulated cycles per host second of the workload's golden runs.

    Each program runs *reps* times on a freshly built machine; the rate is
    the total simulated cycles over the total run time, in reference
    seconds.

    Returns the rate, the golden statistics per ``program@cores`` and
    whether every pass finished with the reference output and identical
    statistics.
    """
    cycles = 0
    wall = 0.0
    stats: dict[str, dict] = {}
    ok = True
    with HostProbe() as probe:
        for name in workload.programs:
            program = get_workload(name)
            key = f"{name}@{workload.cores}"
            for _ in range(reps):
                system = build_system(program, DEFAULT_CONFIG, workload.cores)
                start = clock()
                result = system.run(GOLDEN_MAX_CYCLES)
                wall += clock() - start
                cycles += result.cycles
                ok &= (result.status is RunStatus.FINISHED
                       and result.output == program.expected_output)
                current = golden_stats(system, result)
                ok &= stats.setdefault(key, current) == current
    return cycles / (wall * probe.scale), stats, ok


# -- campaign rounds ----------------------------------------------------------


@dataclass
class Round:
    """One supervised campaign over the workload's grid."""

    seed: int
    wall: float
    #: ``wall`` in reference seconds (see :class:`HostProbe`).
    ref_wall: float
    result: CampaignResult
    lost: dict[tuple[str, str, int], int]
    store: CampaignStore

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.result.to_json().encode()).hexdigest()

    @property
    def classified(self) -> int:
        return sum(cell.counts.total for cell in self.result.cells)

    def counts_consistent(self, samples: int) -> bool:
        """Each cell's counts sum to samples minus samples lost."""
        return all(
            cell.counts.total == samples - self.lost.get(
                (cell.workload, cell.component, cell.cardinality), 0)
            for cell in self.result.cells
        )


#: Incident kinds that cost one sample each (fabric incidents carry
#: ``sample_index == -1`` and lose none by themselves).
_SAMPLE_INCIDENTS = ("exception", "watchdog")


def run_round(
    workload: BenchWorkload,
    seed: int,
    supervisor_cls=Supervisor,
    store_cls=CampaignStore,
) -> Round:
    supervisor = supervisor_cls()
    with tempfile.TemporaryDirectory(dir=scratch_dir()) as tmp:
        store = store_cls(Path(tmp) / "store.json")
        try:
            with HostProbe() as probe:
                result = run_campaign(
                    workload.config(seed), store=store,
                    supervisor=supervisor, jobs=workload.jobs,
                    prune=workload.prune,
                )
        finally:
            store.close()
    lost: dict[tuple[str, str, int], int] = {}
    for incident in supervisor.journal.incidents:
        if incident.kind in _SAMPLE_INCIDENTS:
            key = (incident.workload, incident.component,
                   incident.cardinality)
            lost[key] = lost.get(key, 0) + 1
    return Round(seed, probe.wall, probe.wall * probe.scale, result, lost,
                 store)


def round_seed(seed: int, index: int) -> int:
    return seed + index * ROUND_SEED_STRIDE


def timed_rounds(
    workload: BenchWorkload, seed: int, seconds: float,
    supervisor_cls=Supervisor,
) -> list[Round]:
    """Rounds while another one of average length still ends within
    *seconds* of wall time (at least one)."""
    rounds: list[Round] = []
    elapsed = 0.0
    while True:
        rounds.append(run_round(
            workload, round_seed(seed, len(rounds)), supervisor_cls
        ))
        elapsed += rounds[-1].wall
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds


def check_rounds(
    workload: BenchWorkload, seed: int, rounds: list[Round], expected: dict
) -> list[str]:
    """The correctness gate over campaign rounds; returns the failures."""
    failures = []
    for r in rounds:
        if not r.counts_consistent(workload.samples):
            failures.append(
                f"round seed {r.seed}: cell counts do not sum to samples "
                f"minus samples lost"
            )
    recorded = expected.get("digests", {}).get(workload.name)
    if seed == DEFAULT_SEED and recorded is not None:
        if rounds[0].digest != recorded:
            failures.append(
                f"{workload.name}: round-0 result digest {rounds[0].digest} "
                f"!= recorded {recorded}"
            )
    return failures


def check_golden(stats: dict[str, dict], ok: bool, expected: dict) -> list[str]:
    failures = [] if ok else [
        "golden runs did not finish with the reference output, or their "
        "statistics differed between passes"
    ]
    recorded = expected.get("golden", {})
    for key, value in stats.items():
        if key in recorded and recorded[key] != value:
            failures.append(f"golden statistics of {key} differ from "
                            f"expected.json")
        elif key not in recorded:
            failures.append(f"no recorded golden statistics for {key}")
    return failures


# -- the whole run ------------------------------------------------------------


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def host_facts() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # a source checkout without git metadata
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(
    workload: BenchWorkload,
    seed: int,
    seconds: float,
    trace: bool = False,
    *,
    supervisor_cls=Supervisor,
) -> dict:
    """Run the benchmark once; returns the result record.

    The record holds ``correct``, ``attempted``, ``failed`` and
    ``metrics`` (end-to-end ones, or per-layer ones when *trace*), plus
    ``failures`` and ``digests`` for diagnosis.  *supervisor_cls* lets a
    test substitute a supervisor that loses samples.
    """
    expected = load_expected()
    setup = repeated_set_up(workload, SETUP_REPS)
    # The traced run reads only the golden statistics, not the rate.
    golden_rate, stats, golden_ok = golden_throughput(
        workload, 1 if trace else GOLDEN_REPS)
    failures = check_golden(stats, golden_ok, expected)
    if trace:
        import layers

        rounds, metrics = layers.traced_run(workload, seed, setup, stats)
    else:
        rounds = timed_rounds(workload, seed, seconds, supervisor_cls)
    failures += check_rounds(workload, seed, rounds, expected)
    if trace and rounds[1].digest != rounds[0].digest:
        failures.append("tracing changed the round-0 result")
    attempted = workload.samples_per_round * len(rounds)
    classified = sum(r.classified for r in rounds)
    raw = {
        "samples_per_s": classified / sum(r.wall for r in rounds),
        "setup_s": setup["total_wall"],
    }
    if not trace:
        metrics = {
            "samples_per_s": metric(
                classified / sum(r.ref_wall for r in rounds), "1/s"),
            "setup_s": metric(setup["total"], "s"),
            "golden_cycles_per_s": metric(golden_rate, "cycles/s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "samples_classified_frac": metric(classified / attempted, "frac"),
        }
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": attempted - classified,
        "metrics": metrics,
        "failures": failures,
        "raw_wall_time": raw,
        "rounds": len(rounds),
        "round_rates": [r.classified / r.ref_wall for r in rounds],
        "digests": [r.digest for r in rounds],
    }

