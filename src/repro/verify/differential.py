"""Differential execution: out-of-order system vs. ISA-level oracle.

Runs a program on both implementations at once and compares the
*committed architectural state* in lock step, one retired instruction at
a time:

* the retired-instruction stream itself (pc and encoding) — catches
  fetch, branch-resolution and squash bugs;
* every register writeback (architectural destination and value) —
  catches ALU, forwarding and renaming bugs;
* every retired memory store (physical address, size, data) — catches
  store-queue, translation and cache-write bugs;
* the terminal state (status, crash reason and pc, exception detail,
  exit code, syscall output, retired-instruction count) — catches
  precise-exception and syscall bugs.

Cycle counts are deliberately *not* compared: the oracle has no timing
model, and timing is exactly the freedom the out-of-order core is
allowed.

The comparison rides the core's commit hook, so a divergence surfaces as
:class:`~repro.errors.DivergenceError` at the first wrong commit — with
disassembly and the last few good commits as context — rather than as an
end-of-run state diff millions of instructions later.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import DivergenceError
from repro.isa.disasm import disassemble
from repro.isa.program import Program
from repro.kernel.status import RunResult
from repro.cpu.config import DEFAULT_CONFIG, CoreConfig
from repro.cpu.system import System
from repro.verify.invariants import InvariantChecker
from repro.verify.reference import (
    CommitRecord,
    ReferenceExecutor,
    SMPReferenceExecutor,
)

#: Generous fault-free cycle budget (same spirit as campaign golden runs).
DIFF_MAX_CYCLES = 50_000_000

#: Retired instructions kept as context around a divergence report.
CONTEXT_DEPTH = 8


@dataclass
class DifferentialReport:
    """Outcome of one clean differential run."""

    committed: int           #: retired instructions compared
    result: RunResult        #: the out-of-order system's terminal result
    reference: RunResult     #: the oracle's terminal result


def _describe(record: CommitRecord) -> str:
    return repr(record)


def _divergence(
    kind: str,
    detail: str,
    recent: deque,
    expected: CommitRecord | None = None,
    actual: CommitRecord | None = None,
) -> DivergenceError:
    lines = [f"divergence ({kind}): {detail}"]
    if expected is not None:
        lines.append(f"  oracle   : {_describe(expected)}")
    if actual is not None:
        lines.append(f"  ooo core : {_describe(actual)}")
    if recent:
        lines.append("  last commits in agreement:")
        lines.extend(f"    {_describe(rec)}" for rec in recent)
    return DivergenceError("\n".join(lines))


def _machine_record(core, uop, index: int) -> CommitRecord:
    """Build the machine-side commit record for one retired uop.

    An AMO is both a load (its register result is the old memory word) and
    a store (``uop.store_data`` holds the stored value at commit), so its
    record carries both effects, matching the oracle's.
    """
    inst = uop.inst
    is_mem_write = inst.is_store or inst.is_amo
    return CommitRecord(
        index, uop.pc, inst.raw,
        arch_dest=uop.arch_dest if uop.dest >= 0 else -1,
        value=core.prf.values[uop.dest] if uop.dest >= 0 else None,
        store_paddr=uop.paddr if is_mem_write else None,
        store_size=uop.mem_size if is_mem_write else None,
        store_data=uop.store_data if is_mem_write else None,
    )


def _compare_records(
    expected: CommitRecord,
    actual: CommitRecord,
    recent: deque,
    compared: list,
) -> None:
    if (expected.pc, expected.raw) != (actual.pc, actual.raw):
        raise _divergence(
            "instruction stream",
            f"retired instruction #{compared[0]} differs",
            recent, expected, actual,
        )
    if (expected.arch_dest, expected.value) != \
            (actual.arch_dest, actual.value):
        raise _divergence(
            "register writeback",
            f"instruction #{compared[0]} at 0x{actual.pc:08x} "
            f"({disassemble(actual.raw)}) wrote a different register "
            f"result",
            recent, expected, actual,
        )
    if expected.store_effect() != actual.store_effect():
        raise _divergence(
            "memory store",
            f"instruction #{compared[0]} at 0x{actual.pc:08x} "
            f"({disassemble(actual.raw)}) stored differently",
            recent, expected, actual,
        )
    compared[0] += 1
    recent.append(expected)


def _compare_terminal(result: RunResult, ref_result: RunResult, recent) -> None:
    mismatches = []
    for field_name in (
        "status", "crash_reason", "crash_pc", "detail",
        "exit_code", "output", "instructions",
    ):
        ours = getattr(result, field_name)
        theirs = getattr(ref_result, field_name)
        if ours != theirs:
            mismatches.append(f"{field_name}: core={ours!r} oracle={theirs!r}")
    if mismatches:
        raise _divergence("terminal state", "; ".join(mismatches), recent)


def run_differential(
    program: Program,
    core_cfg: CoreConfig = DEFAULT_CONFIG,
    max_cycles: int = DIFF_MAX_CYCLES,
    max_steps: int | None = None,
    audit: bool = False,
) -> DifferentialReport:
    """Run *program* on both implementations, comparing every commit.

    Raises :class:`~repro.errors.DivergenceError` at the first mismatch.
    With *audit* set, additionally runs the whole-system structural audit
    (cache/TLB consistency) on the final fault-free state.
    """
    reference = ReferenceExecutor(program, core_cfg)
    system = System(core_cfg)
    system.load(program)
    core = system.core

    recent: deque = deque(maxlen=CONTEXT_DEPTH)
    compared = [0]

    def on_commit(uop) -> None:
        actual = _machine_record(core, uop, compared[0])
        expected = reference.step()
        if expected is None:
            raise _divergence(
                "instruction stream",
                f"the core retired instruction #{compared[0]} but the "
                f"oracle's run already terminated "
                f"({reference.result.status.name} after "
                f"{reference.retired} instructions)",
                recent, actual=actual,
            )
        _compare_records(expected, actual, recent, compared)

    core.commit_hook = on_commit
    try:
        result = system.run(max_cycles, max_steps=max_steps)
    finally:
        core.commit_hook = None

    if reference.result is None:
        extra = reference.step()
        if extra is not None:
            raise _divergence(
                "instruction stream",
                f"the core terminated ({result.status.name} after "
                f"{compared[0]} retired instructions) but the oracle "
                f"still retires more",
                recent, expected=extra,
            )
    ref_result = reference.result
    assert ref_result is not None

    _compare_terminal(result, ref_result, recent)

    if audit:
        InvariantChecker().check_system(system)

    return DifferentialReport(
        committed=compared[0], result=result, reference=ref_result,
    )


def run_smp_differential(
    program: Program,
    core_cfg: CoreConfig = DEFAULT_CONFIG,
    cores: int = 2,
    max_cycles: int = DIFF_MAX_CYCLES,
    max_steps: int | None = None,
    audit: bool = False,
) -> DifferentialReport:
    """Run *program* on the N-core machine against the multi-core oracle.

    The oracle is *externally scheduled*: it replays the machine's observed
    per-core commit order (the sequential-consistency serialization the SMP
    system enforces), so every retired instruction on every core is
    compared exactly — for any program, racy or not.  Worker park events
    (HALT) are sequenced into the same stream so the oracle's idle-core
    bookkeeping, and hence its SPAWN placement, stays lock-step with the
    machine's.

    Raises :class:`~repro.errors.DivergenceError` at the first mismatch.
    With *audit* set, additionally audits the final SMP state (coherence
    ownership, per-core caches and TLBs).
    """
    reference = SMPReferenceExecutor(program, core_cfg, cores)
    smp = System(core_cfg, cores)
    smp.load(program)

    recent: deque = deque(maxlen=CONTEXT_DEPTH)
    compared = [0]
    #: ("commit", core, record) and ("park", core) events in machine order.
    events: list = []

    def hook_for(core_id: int):
        def on_commit(uop) -> None:
            pipe = smp.cores[core_id].pipe
            events.append(
                ("commit", core_id, _machine_record(pipe, uop, compared[0]))
            )
        return on_commit

    for k, bundle in enumerate(smp.cores):
        bundle.pipe.commit_hook = hook_for(k)
    smp.park_hook = lambda core_id: events.append(("park", core_id))

    def drain() -> None:
        while events:
            event = events.pop(0)
            if event[0] == "commit":
                _, core_id, actual = event
                expected = reference.step_core(core_id)
                if expected is None:
                    raise _divergence(
                        "instruction stream",
                        f"core {core_id} retired instruction "
                        f"#{compared[0]} but the oracle's core is "
                        f"terminated or parked",
                        recent, actual=actual,
                    )
                _compare_records(expected, actual, recent, compared)
            else:
                _, core_id = event
                extra = reference.step_core(core_id)
                if extra is not None or reference.contexts[core_id].running:
                    raise _divergence(
                        "thread lifecycle",
                        f"core {core_id} halted on the machine but the "
                        f"oracle's core did not",
                        recent, expected=extra,
                    )

    deadlock_window = core_cfg.deadlock_window
    steps = 0
    while smp.result is None:
        smp.step()
        steps += 1
        drain()
        if smp.result is not None:
            break
        if max_steps is not None and steps > max_steps:
            from repro.errors import WatchdogTimeout

            raise WatchdogTimeout(
                f"step watchdog: {steps} quanta executed at global cycle "
                f"{smp.cycle} — simulator livelock"
            )
        if (
            smp.cycle >= max_cycles
            or smp.cycle - smp.clock.last_commit_cycle > deadlock_window
        ):
            raise _divergence(
                "terminal state",
                f"machine did not terminate within {smp.cycle} cycles "
                f"(the oracle cannot be driven past a hang)",
                recent,
            )
    result = smp.result
    drain()

    # Consume the machine's terminal instruction on the oracle (it never
    # produced a commit record) and compare terminal states.
    if reference.result is None:
        extra = reference.step_core(smp.clock.result_core)
        if extra is not None:
            raise _divergence(
                "instruction stream",
                f"the machine terminated ({result.status.name} after "
                f"{compared[0]} retired instructions) but the oracle "
                f"still retires more on core {smp.clock.result_core}",
                recent, expected=extra,
            )
    ref_result = reference.result
    if ref_result is None:
        raise _divergence(
            "terminal state",
            f"machine ended with {result.status.name} but the oracle's "
            f"core {smp.clock.result_core} has not terminated",
            recent,
        )
    _compare_terminal(result, ref_result, recent)

    if audit:
        InvariantChecker().check_system(smp)

    return DifferentialReport(
        committed=compared[0], result=result, reference=ref_result,
    )


# -- cached workload-level verification ---------------------------------------
#
# The campaign layer calls these once per (workload, config) and once per
# Masked sample; both consume no RNG, so enabling --verify cannot perturb
# campaign statistics.

def _bounded_cache(maxsize: int):
    from repro.core.campaign import _BoundedCache

    return _BoundedCache(maxsize=maxsize)


_REFERENCE_CACHE = None
_VERIFIED_CACHE = None


def reference_run(
    workload, core_cfg: CoreConfig = DEFAULT_CONFIG, cores: int = 1
) -> RunResult:
    """The oracle's terminal result for a workload (cached).

    At *cores* > 1 the multi-core oracle runs its self-scheduled
    round-robin over the workload's parallel program: the workload
    contract (fixed task counts, join-before-read) makes the terminal
    output interleaving-independent, so this is comparable against any
    legal execution of the machine.  Cache keys stay unchanged for
    ``cores == 1``.
    """
    global _REFERENCE_CACHE
    if _REFERENCE_CACHE is None:
        _REFERENCE_CACHE = _bounded_cache(maxsize=16)
    key = (workload.name, core_cfg) if cores == 1 \
        else (workload.name, core_cfg, cores)
    cached = _REFERENCE_CACHE.get(key)
    if cached is not None:
        return cached
    if cores == 1:
        result = ReferenceExecutor(workload.program(), core_cfg).run()
    else:
        result = SMPReferenceExecutor(
            workload.program_for(cores), core_cfg, cores
        ).run()
    _REFERENCE_CACHE.put(key, result)
    return result


def verify_workload(
    workload, core_cfg: CoreConfig = DEFAULT_CONFIG, cores: int = 1
) -> None:
    """Full lock-step differential check of a workload's fault-free run.

    Cached per (workload, config): a --verify campaign pays for one
    differential run per cell configuration, not per sample.  Also
    cross-checks both implementations against the workload's pure-Python
    ``expected_output``, closing the triangle of three independent
    implementations.
    """
    global _VERIFIED_CACHE
    if _VERIFIED_CACHE is None:
        _VERIFIED_CACHE = _bounded_cache(maxsize=64)
    key = (workload.name, core_cfg) if cores == 1 \
        else (workload.name, core_cfg, cores)
    if _VERIFIED_CACHE.get(key):
        return
    if cores == 1:
        report = run_differential(workload.program(), core_cfg, audit=True)
    else:
        report = run_smp_differential(
            workload.program_for(cores), core_cfg, cores, audit=True
        )
    if report.result.output != workload.expected_output:
        raise DivergenceError(
            f"workload {workload.name}: both implementations agree but "
            f"their output differs from the pure-Python reference "
            f"(got {report.result.output!r}, "
            f"expected {workload.expected_output!r})"
        )
    _VERIFIED_CACHE.put(key, True)


def check_masked_run(
    workload,
    result: RunResult,
    core_cfg: CoreConfig = DEFAULT_CONFIG,
    cores: int = 1,
) -> None:
    """Assert a Masked injection outcome matches the oracle's architecture.

    A Masked classification claims the fault had *no architectural
    effect*; the observable architectural contract of a finished run is
    its syscall output and exit code, so those must equal the oracle's.
    (Internal state legitimately differs — a corrupted-but-dead cache
    line is still Masked.)
    """
    ref = reference_run(workload, core_cfg, cores)
    problems = []
    if result.output != ref.output:
        problems.append(
            f"output: got {result.output!r}, oracle {ref.output!r}"
        )
    if result.exit_code != ref.exit_code:
        problems.append(
            f"exit_code: got {result.exit_code}, oracle {ref.exit_code}"
        )
    if problems:
        raise DivergenceError(
            f"workload {workload.name}: run classified Masked but its "
            f"architectural state differs from the oracle — "
            + "; ".join(problems)
        )
