"""Full-system composition: cores + caches + TLBs + paging + kernel.

A :class:`System` owns one simulated machine of 1 to :data:`MAX_CORES`
cores and one loaded process.  It is single-use: build, load, run.  The
fault injector reaches the live hardware structures through
:meth:`System.injectable_targets`.

**One core** is the paper's machine: unprefixed component names, no
coherence bus, and ``run``/``run_until`` drive the pipeline's own loop.

**N cores** share one L2, page table, physical memory and kernel; each
core has private L1I/L1D/TLBs/pipeline named ``c{k}.``.  Per-core L1Ds
are kept coherent by a :class:`~repro.mem.coherence.CoherenceBus`
(invalidate-on-write, dirty owner tracking), so a flipped bit in a
*shared L2 line* is observed by every core whose miss path reads through
it — the cross-thread fault propagation mechanism the model exists to
measure.

*Deterministic interleaving.*  The :class:`_Interleaver` is conservative
time-stepping: each quantum steps, in core-index order, every running
pipeline whose local clock equals the global minimum.  A pipeline may jump
its local clock forward over provably idle cycles
(:meth:`~repro.cpu.core.OutOfOrderCore._skip_idle_cycles`); other cores
simply catch up over later quanta.  The interleaving is a pure function of
machine state, so multi-core golden runs replay bit-exactly — the property
the golden-run cache, checkpoints, the differential oracle and the
propagation matrix all rest on.

*Memory model.*  Sequential consistency, enforced at commit: every
pipeline runs with commit-time load revalidation
(:attr:`~repro.cpu.core.OutOfOrderCore.sc_replay_check`), so a load whose
location was remotely stored between execute and commit is squashed and
replayed.  Atomics serialize their pipeline and perform the read-modify-
write at commit through the coherent hierarchy.

*Thread model.*  Core 0 runs ``_start``; ``SPAWN`` starts a worker on an
idle core with a carved-out stack slice (see
:func:`~repro.kernel.syscalls.worker_sp`); a worker parks its core by
halting.  The program ends when core 0 ends; a worker crash ends the
program as that crash (tagged with the core id).
"""

from __future__ import annotations

from repro.errors import ConfigError, SimAssertion
from repro.isa.encoding import MASK32
from repro.isa.program import Program
from repro.kernel.loader import LoadedProcess, load_program
from repro.kernel.status import RunResult, RunStatus
from repro.kernel.syscalls import SPAWN_FAILED, Kernel, worker_sp
from repro.mem.cache import Cache
from repro.mem.coherence import CoherenceBus
from repro.mem.paging import PageTable
from repro.mem.physmem import PhysicalMemory
from repro.mem.sram import InjectableArray
from repro.mem.tlb import TLB
from repro.cpu.config import DEFAULT_CONFIG, CoreConfig
from repro.cpu.core import OutOfOrderCore

#: Stable component names used across injection, analysis and reporting.
COMPONENT_NAMES = ("l1d", "l1i", "l2", "regfile", "dtlb", "itlb")

#: Hard cap on the configurable core count (keeps worker stack slices and
#: campaign budgets sane; the paper's platforms are 1-8 cores).
MAX_CORES = 8


class CoreBundle:
    """One core's private state: L1 caches, TLBs, and the pipeline.

    A one-core :class:`System` builds exactly one bundle with an empty
    name *prefix*, so its component names ("l1d", "itlb", ...) — and hence
    every campaign cell key and telemetry counter — are the paper's.  An
    N-core system builds one bundle per core with a ``c{k}.`` prefix
    around one shared L2, which is what keys per-core cache/TLB telemetry
    by core id.
    """

    def __init__(
        self,
        cfg: CoreConfig,
        core_id: int,
        prefix: str,
        l2: Cache,
        page_table: PageTable,
        kernel: Kernel,
    ) -> None:
        self.core_id = core_id
        self.prefix = prefix
        self.l1i = Cache(
            prefix + "l1i", cfg.l1i_size, cfg.l1i_assoc, cfg.line_size,
            cfg.l1i_latency, l2,
        )
        self.l1d = Cache(
            prefix + "l1d", cfg.l1d_size, cfg.l1d_assoc, cfg.line_size,
            cfg.l1d_latency, l2,
        )
        self.itlb = TLB(prefix + "itlb", page_table, cfg.tlb_entries)
        self.dtlb = TLB(prefix + "dtlb", page_table, cfg.tlb_entries)
        self.pipe = OutOfOrderCore(
            cfg, self.l1i, self.l1d, self.itlb, self.dtlb, kernel
        )
        self.pipe.core_id = core_id

    def fresh_pipe(self, cfg: CoreConfig, kernel: Kernel) -> OutOfOrderCore:
        """Replace the pipeline for a (re)spawned worker, keeping the caches.

        Verification taps and the load-replay mode carry over so a
        respawned core stays under the same harness as the original.
        """
        pipe = OutOfOrderCore(
            cfg, self.l1i, self.l1d, self.itlb, self.dtlb, kernel
        )
        pipe.core_id = self.core_id
        pipe.sc_replay_check = self.pipe.sc_replay_check
        pipe.commit_hook = self.pipe.commit_hook
        pipe.invariant_checker = self.pipe.invariant_checker
        # Hardware counters belong to the core, not the thread: accumulate
        # across every thread that ever ran here.
        pipe.stats = self.pipe.stats
        self.pipe = pipe
        return pipe


class System:
    """One simulated machine instance of *ncores* cores."""

    def __init__(
        self, cfg: CoreConfig = DEFAULT_CONFIG, ncores: int = 1
    ) -> None:
        if not 1 <= ncores <= MAX_CORES:
            raise ConfigError(f"ncores must be in 1..{MAX_CORES}, got {ncores}")
        self.cfg = cfg
        self.ncores = ncores
        layout = cfg.layout
        self.mem = PhysicalMemory(layout.phys_size, cfg.mem_latency)
        self.l2 = Cache(
            "l2", cfg.l2_size, cfg.l2_assoc, cfg.line_size,
            cfg.l2_latency, self.mem,
        )
        self.page_table = PageTable(cfg.tlb_walk_latency)
        self.kernel = Kernel()
        self.cores = [
            CoreBundle(
                cfg, k, f"c{k}." if ncores > 1 else "", self.l2,
                self.page_table, self.kernel,
            )
            for k in range(ncores)
        ]
        # Core 0's structures under the paper's names: the whole machine
        # at N=1, the program's own core at N>1 (core 0's pipeline is
        # never respawned).
        core0 = self.cores[0]
        self.l1i = core0.l1i
        self.l1d = core0.l1d
        self.itlb = core0.itlb
        self.dtlb = core0.dtlb
        self.core = core0.pipe
        checker = None
        if cfg.check_invariants:
            from repro.verify.invariants import InvariantChecker

            checker = InvariantChecker()
        for bundle in self.cores:
            bundle.pipe.invariant_checker = checker
        self.bus: CoherenceBus | None = None
        #: What ``step``/``run``/``run_until`` drive: the pipeline itself
        #: on one core, the deterministic interleaver on N.
        self.clock: OutOfOrderCore | _Interleaver = self.core
        if ncores > 1:
            # SPAWN/NCORES route back here; on one core SPAWN fails.
            self.kernel.smp = self
            self.bus = CoherenceBus(self.l2)
            for bundle in self.cores:
                self.bus.attach(bundle.l1d)
                bundle.pipe.sc_replay_check = True
            self.clock = _Interleaver(self)
        #: Which cores currently execute a thread.  Core 0 is the program.
        self.running = [k == 0 for k in range(ncores)]
        #: Optional tap called with a core id when a worker parks (used by
        #: the SMP differential to keep the oracle's idle-core bookkeeping
        #: in lock step with the machine's).
        self.park_hook = None
        self.process: LoadedProcess | None = None

    # ------------------------------------------------------------------ setup

    def load(self, program: Program) -> LoadedProcess:
        """Load *program* and point core 0 at its entry."""
        self.process = load_program(
            program, self.mem, self.page_table, self.cfg.layout
        )
        self.core.reset(self.process.entry_pc, self.process.initial_sp)
        return self.process

    def start_core(self, entry: int, arg: int) -> int:
        """SPAWN: run *entry* with r0 = *arg* on the first idle core.

        Returns the worker's core id (the thread id), or ``SPAWN_FAILED``
        when every worker core is busy.
        """
        for k in range(1, self.ncores):
            if self.running[k]:
                continue
            bundle = self.cores[k]
            pipe = bundle.fresh_pipe(self.cfg, self.kernel)
            pipe.reset(
                entry & MASK32,
                worker_sp(self.cfg.layout, k, self.ncores),
            )
            pipe.prf.values[pipe.rename_map[0]] = arg & MASK32
            # The worker's clock starts at the spawn instant, so its first
            # step lands in the very next scheduling quantum.
            pipe.cycle = self.cycle + 1
            pipe.last_commit_cycle = pipe.cycle
            self.running[k] = True
            return k
        return SPAWN_FAILED

    # -------------------------------------------------------------- injection

    def injectable_targets(self) -> dict[str, InjectableArray]:
        """Fault-injection targets by component name.

        The six standard component names are the paper's targets on one
        core and alias *core 0's* private structures (plus the shared
        "l2") on N, so campaign cells mean the same thing at every core
        count; on N cores every core's private structures are also
        reachable under their ``c{k}.`` names for targeted experiments.
        """
        targets: dict[str, InjectableArray] = {
            "l1d": self.l1d,
            "l1i": self.l1i,
            "l2": self.l2,
            "regfile": self.core.prf,
            "dtlb": self.dtlb,
            "itlb": self.itlb,
        }
        if self.ncores > 1:
            for bundle in self.cores:
                for array in (bundle.l1d, bundle.l1i, bundle.dtlb,
                              bundle.itlb):
                    targets[array.name] = array
                targets[bundle.prefix + "regfile"] = bundle.pipe.prf
        return targets

    def publish_metrics(self, metrics, prefix: str = "sim.mem.") -> None:
        """Harvest cache/TLB hit-miss counters (plus bus stats on N cores).

        Called at most once per finished run; the totals are a pure
        function of the executed instruction stream, so sums over a
        campaign's injections are deterministic (``sim.*`` namespace).
        Per-core names carry their ``c{k}.`` prefix on N cores, which
        keys those counters by core id.
        """
        self.l2.stats.publish(metrics, prefix + self.l2.name)
        for bundle in self.cores:
            for cache in (bundle.l1d, bundle.l1i):
                cache.stats.publish(metrics, prefix + cache.name)
            for tlb in (bundle.itlb, bundle.dtlb):
                tlb.publish_stats(metrics, prefix + tlb.name)
        if self.bus is not None:
            self.bus.stats.publish(metrics, prefix + "bus")

    # -------------------------------------------------------------------- run

    def step(self) -> None:
        self.clock.step()

    @property
    def cycle(self) -> int:
        return self.clock.cycle

    @property
    def result(self) -> RunResult | None:
        return self.clock.result

    @property
    def finished(self) -> bool:
        return self.clock.result is not None

    def run(self, max_cycles: int, max_steps: int | None = None) -> RunResult:
        """Run to termination, converting simulator assertions to results.

        *max_steps* is the per-injection step-count watchdog (see
        :meth:`repro.cpu.core.OutOfOrderCore.run`); leave it ``None`` for
        trusted fault-free runs.
        """
        try:
            return self.clock.run(max_cycles, max_steps=max_steps)
        except SimAssertion as exc:
            self.clock._finish(RunStatus.SIM_ASSERT, detail=str(exc))
            return self.clock.result

    def run_until(
        self,
        target_cycle: int,
        max_cycles: int,
        max_steps: int | None = None,
    ) -> bool:
        """Advance to *target_cycle* (or termination).

        Returns True when the target cycle was reached with the program
        still running — i.e. an injection at this point is meaningful.
        *max_steps* bounds the number of steps like :meth:`run` does; a
        stuck cycle counter would otherwise keep this loop spinning forever
        since ``cycle < target_cycle`` never resolves.
        """
        clock = self.clock
        steps = 0
        try:
            while clock.result is None and clock.cycle < target_cycle:
                if clock.cycle >= max_cycles:
                    return False
                clock.step()
                steps += 1
                if max_steps is not None and steps > max_steps:
                    from repro.errors import WatchdogTimeout

                    raise WatchdogTimeout(
                        f"step watchdog: {steps} steps executed but the "
                        f"cycle counter is at {clock.cycle} (target "
                        f"{target_cycle}) — simulator livelock"
                    )
        except SimAssertion as exc:
            clock._finish(RunStatus.SIM_ASSERT, detail=str(exc))
            return False
        return clock.result is None


class _Interleaver:
    """The N-core machine's clock: one :meth:`step` is one quantum.

    It offers the pipeline's clock surface (``cycle``, ``result``,
    ``last_commit_cycle``, ``step``, ``_finish``), so it runs under the
    pipeline's own run loop.
    """

    run = OutOfOrderCore.run

    def __init__(self, system: System) -> None:
        self.system = system
        self.cfg = system.cfg
        self.cycle = 0
        self.result: RunResult | None = None
        #: Core whose terminal state ended the program (None for timeouts).
        self.result_core: int | None = None

    @property
    def last_commit_cycle(self) -> int:
        system = self.system
        return max(
            bundle.pipe.last_commit_cycle
            for k, bundle in enumerate(system.cores)
            if k == 0 or system.running[k]
        )

    def step(self) -> None:
        """Step every running pipeline sitting at the global minimum cycle,
        in core-index order, then resolve any terminal pipeline states."""
        system = self.system
        running = system.running
        active = [
            bundle.pipe
            for k, bundle in enumerate(system.cores)
            if running[k] and bundle.pipe.result is None
        ]
        if not active:
            # Core 0's terminal state was consumed in an earlier quantum;
            # nothing left to simulate.
            return
        floor = min(pipe.cycle for pipe in active)
        self.cycle = floor
        for pipe in active:
            if pipe.cycle == floor:
                pipe.step()
        self.cycle = min(pipe.cycle for pipe in active)
        for k, bundle in enumerate(system.cores):
            if not running[k]:
                continue
            result = bundle.pipe.result
            if result is None:
                continue
            if k == 0:
                self._finish(
                    result.status, result.crash_reason, result.crash_pc,
                    result.detail,
                )
                self.result_core = 0
                return
            if result.status is RunStatus.FINISHED:
                # Worker ran to completion: park the core for respawn.
                running[k] = False
                if system.park_hook is not None:
                    system.park_hook(k)
            else:
                self._finish(
                    result.status, result.crash_reason, result.crash_pc,
                    f"core {k}: {result.detail}" if result.detail
                    else f"core {k}",
                )
                self.result_core = k
                return

    def _finish(
        self,
        status: RunStatus,
        reason=None,
        pc: int | None = None,
        detail: str = "",
    ) -> None:
        stats: dict[str, int] = {}
        for bundle in self.system.cores:
            for key, value in bundle.pipe.stats.as_dict().items():
                stats[key] = stats.get(key, 0) + value
        kernel = self.system.kernel
        self.result = RunResult(
            status=status,
            cycles=self.cycle,
            instructions=stats.get("committed", 0),
            output=bytes(kernel.output),
            exit_code=kernel.exit_code or 0,
            crash_reason=reason,
            crash_pc=pc,
            detail=detail,
            stats=stats,
        )


def run_program(
    program: Program,
    cfg: CoreConfig = DEFAULT_CONFIG,
    max_cycles: int = 5_000_000,
    ncores: int = 1,
) -> RunResult:
    """Convenience one-shot: load and run *program* on a fresh machine."""
    system = System(cfg, ncores)
    system.load(program)
    return system.run(max_cycles)
