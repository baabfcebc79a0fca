"""CI-driven adaptive sampling: the Wilson interval as a stopping rule.

Fixed-budget campaigns (the paper's 2,000 samples/cell) spend the same
effort on a cell whose AVF is pinned down after 200 samples as on one
that genuinely needs every draw.  This driver turns the Wilson-interval
helper of :mod:`repro.core.sampling` from a reporting tool into the
campaign loop's stopping rule:

* **Phase A** runs every cell toward ``config.samples`` in waves of
  :data:`ADAPTIVE_BATCH` injections.  After each wave, any cell whose
  AVF confidence-interval half-width has dropped to ``ci_target`` stops
  early; its unspent budget is freed into a shared pool.
* **Phase B** reallocates the pool to the cells that finished their full
  budget still *above* the target — widest interval first, sized by
  :func:`~repro.core.sampling.required_additional_samples` — until the
  pool is exhausted or every cell meets the target.

Each wave is one call of the task runner exact campaigns use
(:func:`~repro.core.campaign.open_runner`: in-process serially, the
resilient scheduler of :mod:`repro.core.parallel` at ``jobs > 1``), and
each grant is a sample-range task taking a cell from *n* samples to
*n + g*.  A cell's first *n* samples do not depend on how it got there,
so an adaptive cell after *n* samples *is* the exact-replay cell with
``samples=n``.  Allocation reads only those counts, so ``--jobs N`` is
byte-identical to serial, and with ``ci_target=0`` (a half-width no
finite sample reaches) no cell stops, no budget moves, and the result
is byte-identical to the exact-replay campaign.

The same fact gives adaptive campaigns the store: a finished range is
stored under the exact-campaign key of ``samples=n + g`` (a cache hit
for that exact campaign too), and the cell's latest state is its one
checkpoint, under the cell's own key.  A rerun replays the allocation
from wave 0, serving every stored range without simulation — so each
wave's inputs come from stored results only — and resumes each cell's
first missing range from its checkpoint.  Supervision, the lease,
retries and quarantine come with the runner; a quarantined cell keeps
its salvaged counts and gets no further samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.avf import ClassCounts
from repro.core.campaign import (
    DEFAULT_CHECKPOINT_EVERY,
    CampaignConfig,
    CampaignResult,
    CampaignStore,
    CellCheckpoint,
    CellResult,
    CellTask,
    ProgressFn,
    SupervisorLike,
    open_runner,
)
from repro.core.sampling import required_additional_samples, wilson_half_width
from repro.errors import ConfigError
from repro import obs
from repro.cpu.config import DEFAULT_CONFIG, CoreConfig

#: Samples per cell per wave.  Small enough that early stopping reacts
#: within a few percent of the paper's 2,000-sample budget, large enough
#: that the per-wave overhead (one task per cell, one stored range and
#: end state per task) stays negligible against the simulations
#: themselves.
ADAPTIVE_BATCH = 25


@dataclass
class _CellState:
    index: int
    workload: str
    component: str
    cardinality: int
    key: str
    counts: ClassCounts = field(default_factory=ClassCounts)
    samples_done: int = 0
    golden_cycles: int = 0
    #: End state of the last range simulated in this run (``None`` after
    #: a store hit: the runner then looks for the store's checkpoint).
    state: CellCheckpoint | None = None
    simulated: bool = False
    early_stopped: bool = False
    #: No further grants: stopped early, or quarantined.
    closed: bool = False
    extra_granted: int = 0

    def label(self) -> str:
        return f"{self.workload}/{self.component}/{self.cardinality}-bit"

    def half_width(self, confidence: float) -> float:
        # Successes = non-masked outcomes, so the interval brackets the
        # AVF itself (1 − masked fraction) — the paper's reported number.
        return wilson_half_width(
            self.counts.total - self.counts.masked, self.counts.total,
            confidence,
        )

    def result(self) -> CellResult:
        return CellResult(
            workload=self.workload,
            component=self.component,
            cardinality=self.cardinality,
            counts=self.counts,
            golden_cycles=self.golden_cycles,
        )


@dataclass
class AdaptiveCellReport:
    """Per-cell accounting of one adaptive campaign."""

    workload: str
    component: str
    cardinality: int
    samples: int
    half_width: float
    early_stopped: bool
    extra_granted: int

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "component": self.component,
            "cardinality": self.cardinality,
            "samples": self.samples,
            "half_width": self.half_width,
            "early_stopped": self.early_stopped,
            "extra_granted": self.extra_granted,
        }


@dataclass
class AdaptiveReport:
    """An adaptive campaign's result plus its budget ledger."""

    result: CampaignResult
    cells: list[AdaptiveCellReport]
    baseline_samples: int
    spent_samples: int

    @property
    def saved_fraction(self) -> float:
        if self.baseline_samples == 0:
            return 0.0
        return 1.0 - self.spent_samples / self.baseline_samples


def run_campaign_adaptive(
    config: CampaignConfig,
    ci_target: float,
    confidence: float = 0.99,
    *,
    progress: ProgressFn | None = None,
    events=None,
    store: CampaignStore | None = None,
    core_cfg: CoreConfig = DEFAULT_CONFIG,
    supervisor: SupervisorLike | None = None,
    checkpoint_every: int | None = DEFAULT_CHECKPOINT_EVERY,
    resume: bool = True,
    jobs: int = 1,
    verify: bool = False,
    prune: bool = False,
    backend: str = "multiprocessing",
    backend_options: dict | None = None,
    policy=None,
) -> AdaptiveReport:
    """Run a campaign with CI-driven early stopping and reallocation.

    *ci_target* is the AVF confidence-interval half-width at which a cell
    may stop (0 disables both early stopping and reallocation, making the
    run byte-identical to :func:`~repro.core.campaign.run_campaign`).
    *events*, when given, receives human-readable one-liners about
    early stops and budget grants.  The keyword arguments after *events*
    mean what they mean for :func:`~repro.core.campaign.run_campaign`;
    the result is identical for every job count and backend, and a rerun
    on the same *store* serves every finished range without simulating
    it.
    """
    if ci_target < 0:
        raise ConfigError(f"ci_target must be >= 0: {ci_target}")
    tel = obs.active()
    cells = [
        _CellState(
            index=index, workload=w, component=c, cardinality=k,
            key=config.cell_key(w, c, k, core_cfg),
        )
        for index, (w, c, k) in enumerate(config.cells())
    ]
    total = len(cells)
    pool_budget = 0
    done = 0
    runner = open_runner(
        config, core_cfg, jobs=jobs, backend=backend,
        backend_options=backend_options, policy=policy,
        store=store, supervisor=supervisor,
        checkpoint_every=checkpoint_every, resume=resume, verify=verify,
        prune=prune, keep_state=True,
    )

    def on_result(index: int, result: CellResult, end) -> None:
        cell = cells[index]
        cell.counts = result.counts
        cell.golden_cycles = result.golden_cycles
        cell.state = end
        cell.simulated |= end is not None

    def execute_wave(grants: list[tuple[_CellState, int]]) -> None:
        runner.run([
            CellTask(
                cell.index, cell.workload, cell.component, cell.cardinality,
                cell.key,
                cell.state.as_dict() if cell.state is not None else None,
                cell.samples_done + count,
            )
            for cell, count in grants
        ], on_result)
        for cell, count in grants:
            cell.samples_done += count
            cell.closed |= cell.index in runner.quarantined

    def close(cell: _CellState) -> None:
        nonlocal done
        done += 1
        if tel is not None and cell.simulated:
            tel.metrics.counter("sim.cells").inc()
        if progress is not None:
            progress(done, total, cell.result())

    try:
        # -- Phase A: run toward the configured budget, stop early at the
        # target, free the unspent remainder into the pool.
        while True:
            grants = [
                (cell, min(ADAPTIVE_BATCH, config.samples - cell.samples_done))
                for cell in cells
                if not cell.closed and cell.samples_done < config.samples
            ]
            if not grants:
                break
            execute_wave(grants)
            for cell, _ in grants:
                if (
                    ci_target > 0
                    and not cell.closed
                    and cell.samples_done < config.samples
                    and cell.half_width(confidence) <= ci_target
                ):
                    freed = config.samples - cell.samples_done
                    pool_budget += freed
                    cell.early_stopped = cell.closed = True
                    if events is not None:
                        events(
                            f"[adaptive] {cell.label()} reached "
                            f"±{ci_target:g} after {cell.samples_done}/"
                            f"{config.samples} samples; {freed} freed"
                        )
                    close(cell)

        # -- Phase B: grant the freed pool to the widest intervals.
        while ci_target > 0 and pool_budget > 0:
            unmet = [
                cell for cell in cells
                if not cell.closed
                and cell.half_width(confidence) > ci_target
            ]
            if not unmet:
                break
            # Widest interval first; ties resolve by canonical cell order
            # (Python's sort is stable), keeping allocation deterministic.
            unmet.sort(key=lambda cell: -cell.half_width(confidence))
            grants = []
            for cell in unmet:
                if pool_budget <= 0:
                    break
                need = required_additional_samples(
                    cell.counts.total - cell.counts.masked,
                    cell.counts.total, ci_target, confidence,
                )
                grant = min(need, ADAPTIVE_BATCH, pool_budget)
                if grant > 0:
                    grants.append((cell, grant))
                    pool_budget -= grant
                    cell.extra_granted += grant
            if not grants:
                break
            if events is not None:
                granted = ", ".join(
                    f"{cell.label()}+{count}" for cell, count in grants
                )
                events(f"[adaptive] reallocating: {granted}")
            execute_wave(grants)
    finally:
        runner.close()

    for cell in cells:
        if not cell.early_stopped:
            close(cell)
    reports = []
    for cell in cells:
        half = cell.half_width(confidence)
        reports.append(AdaptiveCellReport(
            workload=cell.workload, component=cell.component,
            cardinality=cell.cardinality, samples=cell.samples_done,
            half_width=half, early_stopped=cell.early_stopped,
            extra_granted=cell.extra_granted,
        ))
        if tel is not None:
            tel.metrics.gauge("adaptive.ci." + cell.label()).set(half)
            tel.metrics.gauge(
                "adaptive.samples." + cell.label()
            ).set(cell.samples_done)
    result = CampaignResult(
        (cell.result() for cell in cells), incidents=runner.incidents,
    )
    spent = sum(cell.samples_done for cell in cells)
    return AdaptiveReport(
        result=result,
        cells=reports,
        baseline_samples=total * config.samples,
        spent_samples=spent,
    )
