"""Cross-core fault-propagation matrix for shared-L2 injections.

A flipped bit in the shared L2 is architecturally visible to *every* core
whose miss path reads through the corrupted line — not just the core that
wrote it.  This module measures that propagation directly: it runs the
same program twice on identically-constructed SMP machines (golden and
faulty), captures each core's committed-instruction trace, and reduces
the pair of traces per core to a verdict:

* ``observed``  — the core retired a different instruction stream or a
  different architectural effect after the injection point: the fault
  reached this core's architectural state.
* ``truncated`` — the core's trace is a clean prefix/extension of the
  golden one (typically the program crashed or timed out before this
  core finished): the fault changed how much the core ran, not what it
  computed while running.
* ``masked``    — the core's trace is bit-identical to golden: the fault
  was provably never consumed by this core.

The matrix is the SMP analogue of the single-core fault-effect
classifier, but keyed by *consuming core* instead of by terminal status —
it is what lets a test assert that a shared-L2 flip written by core 1 was
observed by core 0, which never executed the faulting access.

Determinism of the interleaver (see :mod:`repro.cpu.system`) is what makes
the comparison exact: golden and faulty runs retire identical per-core
traces up to the first architecturally-consumed corrupted byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.classify import TIMEOUT_FACTOR
from repro.core.faults import FaultMask
from repro.core.injector import inject
from repro.errors import ConfigError
from repro.isa.program import Program
from repro.kernel.status import RunResult
from repro.cpu.config import DEFAULT_CONFIG, CoreConfig
from repro.cpu.system import System

#: Fault-free cycle budget for the golden trace run.
GOLDEN_MAX_CYCLES = 50_000_000

#: Extra cycles granted to the faulty run beyond TIMEOUT_FACTOR x golden.
FAULTY_SLACK_CYCLES = 10_000

#: One committed instruction's architectural effects, per core:
#: (pc, raw encoding, arch dest, dest value, store paddr, size, data).
TraceEntry = tuple


@dataclass
class CorePropagation:
    """One core's row of the propagation matrix."""

    core: int
    verdict: str                    #: "observed" | "truncated" | "masked"
    golden_commits: int
    faulty_commits: int
    #: Index of the first differing trace entry ("observed" only).
    divergence_index: int | None = None
    #: pc of the first differing committed instruction ("observed" only).
    divergence_pc: int | None = None


@dataclass
class PropagationReport:
    """Golden-vs-faulty comparison of one shared-structure injection."""

    mask: FaultMask
    inject_cycle: int
    cores: int
    golden: RunResult
    faulty: RunResult
    matrix: list[CorePropagation] = field(default_factory=list)

    def observed_cores(self) -> list[int]:
        """Cores whose committed architectural state the fault reached."""
        return [row.core for row in self.matrix if row.verdict == "observed"]

    def masked_cores(self) -> list[int]:
        """Cores that provably never consumed the corrupted bits."""
        return [row.core for row in self.matrix if row.verdict == "masked"]

    def row(self, core: int) -> CorePropagation:
        return self.matrix[core]


def _attach_tracers(smp: System) -> list[list[TraceEntry]]:
    """Hook every core's commit stage into a per-core trace list.

    ``fresh_pipe`` carries the commit hook across worker respawns, so a
    core's trace spans every thread that ever ran on it.
    """
    traces: list[list[TraceEntry]] = [[] for _ in range(smp.ncores)]

    def hook_for(core_id: int):
        trace = traces[core_id]

        def on_commit(uop) -> None:
            pipe = smp.cores[core_id].pipe
            inst = uop.inst
            is_mem_write = inst.is_store or inst.is_amo
            trace.append((
                uop.pc,
                inst.raw,
                uop.arch_dest if uop.dest >= 0 else -1,
                pipe.prf.values[uop.dest] if uop.dest >= 0 else None,
                uop.paddr if is_mem_write else None,
                uop.mem_size if is_mem_write else None,
                uop.store_data if is_mem_write else None,
            ))

        return on_commit

    for k, bundle in enumerate(smp.cores):
        bundle.pipe.commit_hook = hook_for(k)
    return traces


def _judge(core: int, golden: list, faulty: list) -> CorePropagation:
    common = min(len(golden), len(faulty))
    for idx in range(common):
        if golden[idx] != faulty[idx]:
            return CorePropagation(
                core, "observed", len(golden), len(faulty),
                divergence_index=idx, divergence_pc=faulty[idx][0],
            )
    if len(golden) != len(faulty):
        return CorePropagation(core, "truncated", len(golden), len(faulty))
    return CorePropagation(core, "masked", len(golden), len(faulty))


def run_propagation(
    program: Program,
    mask,
    inject_cycle: int,
    core_cfg: CoreConfig = DEFAULT_CONFIG,
    cores: int = 2,
    max_cycles: int = GOLDEN_MAX_CYCLES,
) -> PropagationReport:
    """Build the cross-core propagation matrix for one injection.

    Runs *program* fault-free to capture per-core golden traces, then
    replays it on a fresh machine, injecting *mask* once the global clock
    reaches *inject_cycle*, and judges each core's faulty trace against
    its golden one.  The deterministic interleaver guarantees the two
    machines are bit-identical up to the injection instant.

    *mask* is either a :class:`FaultMask` or a callable
    ``mask(smp) -> FaultMask`` evaluated on the paused faulty machine at
    the injection instant — which is how a caller targets the L2 line
    that *actually holds* a given shared datum at that moment (e.g. via
    ``smp.l2.probe(paddr)``) instead of guessing cache geometry.
    """
    golden_smp = System(core_cfg, cores)
    golden_traces = _attach_tracers(golden_smp)
    golden_smp.load(program)
    golden = golden_smp.run(max_cycles)

    if inject_cycle >= golden.cycles:
        raise ConfigError(
            f"inject_cycle {inject_cycle} is at or beyond the golden run's "
            f"end ({golden.cycles} cycles) — the fault would strike a "
            f"finished machine"
        )

    faulty_smp = System(core_cfg, cores)
    faulty_traces = _attach_tracers(faulty_smp)
    faulty_smp.load(program)
    budget = TIMEOUT_FACTOR * golden.cycles + FAULTY_SLACK_CYCLES
    still_running = faulty_smp.run_until(inject_cycle, budget)
    if not still_running:
        raise ConfigError(
            f"faulty machine terminated before inject_cycle {inject_cycle} "
            f"— golden and faulty construction diverged"
        )
    if callable(mask):
        mask = mask(faulty_smp)
    inject(faulty_smp, mask)
    faulty = faulty_smp.run(budget)

    report = PropagationReport(
        mask=mask, inject_cycle=inject_cycle, cores=cores,
        golden=golden, faulty=faulty,
    )
    for k in range(cores):
        report.matrix.append(_judge(k, golden_traces[k], faulty_traces[k]))
    return report
