"""Microarchitectural invariant checks catch tampered state.

Each test runs a real workload partway, breaks one specific piece of
bookkeeping by hand, and asserts the corresponding invariant fires.  The
positive direction — a healthy platform passes every check on every step —
is covered both here (full susan_c run under ``check_invariants``) and by
the differential/fuzz suites.
"""

import dataclasses

import pytest

from repro.core.campaign import golden_run
from repro.core.generator import MultiBitFaultGenerator
from repro.cpu.config import DEFAULT_CONFIG
from repro.cpu.system import System
from repro.errors import InvariantViolation
from repro.kernel.status import RunStatus
from repro.verify.invariants import (
    InvariantChecker,
    check_mask_applied,
    snapshot_mask_bits,
    state_fingerprint,
)
from repro.workloads import get_workload

WORKLOAD = "susan_c"


def running_system(min_rob: int = 2) -> System:
    """A system stepped into the middle of susan_c with a busy pipeline."""
    system = System()
    system.load(get_workload(WORKLOAD).program())
    while len(system.core.rob) < min_rob and not system.finished:
        system.step()
    assert not system.finished
    return system


def test_healthy_system_passes_all_checks():
    system = running_system()
    checker = InvariantChecker()
    checker.check_core(system.core)
    checker.check_system(system)


def test_full_run_under_check_invariants_flag():
    cfg = dataclasses.replace(DEFAULT_CONFIG, check_invariants=True)
    system = System(cfg)
    assert system.core.invariant_checker is not None
    system.load(get_workload(WORKLOAD).program())
    golden = golden_run(get_workload(WORKLOAD))
    result = system.run(4 * golden.cycles)
    # Per-step checking changes nothing observable.
    assert result.status is RunStatus.FINISHED
    assert result.output == golden.output
    assert system.core.invariant_checker is not None  # survives the run


def test_plain_config_attaches_no_checker():
    assert System().core.invariant_checker is None


def test_rename_map_alias_detected():
    system = running_system()
    core = system.core
    core.rename_map[0] = core.rename_map[1]
    with pytest.raises(InvariantViolation, match="aliases"):
        InvariantChecker().check_core(core)


def test_free_list_duplicate_detected():
    system = running_system()
    core = system.core
    core.free_list.append(next(iter(core.free_list)))
    with pytest.raises(InvariantViolation, match="duplicate"):
        InvariantChecker().check_core(core)


def test_leaked_physical_register_detected():
    system = running_system()
    core = system.core
    core.free_list.pop()
    with pytest.raises(InvariantViolation, match="conservation"):
        InvariantChecker().check_core(core)


def test_double_ownership_detected():
    system = running_system()
    core = system.core
    core.free_list.append(core.rename_map[0])
    with pytest.raises(InvariantViolation, match="owned by both"):
        InvariantChecker().check_core(core)


def test_rob_out_of_order_detected():
    system = running_system(min_rob=2)
    rob = list(system.core.rob)
    rob[1].seq = rob[0].seq  # retirement order now ambiguous
    with pytest.raises(InvariantViolation, match="program order"):
        InvariantChecker().check_core(system.core)


def test_squashed_uop_in_rob_detected():
    system = running_system(min_rob=1)
    next(iter(system.core.rob)).squashed = True
    with pytest.raises(InvariantViolation, match="squashed"):
        InvariantChecker().check_core(system.core)


def test_stale_clean_cache_line_detected():
    system = running_system()
    # Warm lines exist by now; corrupt the first valid (clean) L1I line.
    lines = list(system.l1i.audit_lines())
    assert lines, "expected warm instruction lines"
    idx, _, dirty = lines[0]
    assert not dirty  # L1I never dirties lines
    system.l1i.flip_bit(idx, 0)
    with pytest.raises(InvariantViolation, match="clean line"):
        InvariantChecker().check_system(system)


def test_broken_lru_stack_detected():
    system = running_system()
    cache = system.l1d
    assert cache.assoc >= 2
    cache._lru[0][0] = cache._lru[0][1]
    with pytest.raises(InvariantViolation, match="LRU"):
        InvariantChecker().check_system(system)


def test_drifting_tlb_entry_detected():
    system = running_system()
    entries = list(system.itlb.audit_entries())
    assert entries, "expected warm ITLB entries"
    idx, _ = entries[0]
    system.itlb.flip_bit(idx, 5)  # lowest ppn bit: entry stays valid
    with pytest.raises(InvariantViolation, match="disagrees"):
        InvariantChecker().check_system(system)


def test_mask_application_accounting():
    system = running_system()
    target = system.injectable_targets()["l1d"]
    mask = MultiBitFaultGenerator(seed=7).generate(target, cardinality=3)
    before = snapshot_mask_bits(target, mask)
    for row, col in mask.bits:
        target.flip_bit(row, col)
    check_mask_applied(target, mask, before)  # all three toggled: passes
    # Undo one flip — the conservation check must notice the lost bit.
    row, col = mask.bits[1]
    target.flip_bit(row, col)
    with pytest.raises(InvariantViolation, match="did not flip"):
        check_mask_applied(target, mask, before)


def test_state_fingerprint_discriminates():
    a = running_system()
    b = running_system()
    assert state_fingerprint(a) == state_fingerprint(b)
    b.step()
    assert state_fingerprint(a) != state_fingerprint(b)
    # A single flipped SRAM bit anywhere must change the fingerprint.
    c = running_system()
    c.injectable_targets()["regfile"].flip_bit(0, 0)
    assert state_fingerprint(a) != state_fingerprint(c)


# -- SMP coherence invariants -------------------------------------------------


def running_smp(cores: int = 2, ready=None):
    """A multi-core system mid-run; by default with a dirty L1D line."""
    from repro.cpu.system import System
    from repro.workloads import get_workload

    if ready is None:
        ready = lambda smp: bool(smp.bus.owner)  # noqa: E731
    smp = System(ncores=cores)
    smp.load(get_workload("crc32_p").program_for(cores))
    for _ in range(2_000_000):
        smp.step()
        if smp.finished:  # pragma: no cover - budget far exceeds the run
            break
        if ready(smp):
            return smp
    raise AssertionError("never reached the requested SMP state")


def test_healthy_smp_passes_coherence_audit():
    smp = running_smp()
    InvariantChecker().check_system(smp)


def test_bus_owner_pointing_at_wrong_cache_detected():
    smp = running_smp()
    addr = next(iter(smp.bus.owner))
    owner = smp.bus.owner[addr]
    other = next(
        bundle.l1d for bundle in smp.cores if bundle.l1d is not owner
    )
    smp.bus.owner[addr] = other
    with pytest.raises(InvariantViolation, match="owner map"):
        InvariantChecker().check_system(smp)


def test_phantom_owner_entry_detected():
    smp = running_smp()
    # Claim dirty ownership of a line no cache holds dirty.
    smp.bus.owner[0x7FFF_FF80] = smp.cores[0].l1d
    with pytest.raises(InvariantViolation, match="owner map"):
        InvariantChecker().check_system(smp)


def test_unregistered_dirty_holder_detected():
    smp = running_smp()
    addr = next(iter(smp.bus.owner))
    del smp.bus.owner[addr]
    with pytest.raises(InvariantViolation, match="owner"):
        InvariantChecker().check_system(smp)


def test_corrupt_shared_l2_line_detected():
    smp = running_smp(ready=lambda smp: any(
        not dirty for _, _, dirty in smp.l2.audit_lines()
    ))
    lines = [
        (idx, dirty) for idx, _, dirty in smp.l2.audit_lines() if not dirty
    ]
    assert lines, "expected warm clean L2 lines"
    smp.l2.flip_bit(lines[0][0], 0)
    with pytest.raises(InvariantViolation, match="clean line"):
        InvariantChecker().check_system(smp)


def test_coherence_holds_across_random_interleavings():
    """Property fuzz: random multithreaded programs at 2-4 cores.

    Steps each program under the deterministic interleaver and audits the
    full coherence state (single-writer, clean agreement, owner map)
    every few quanta, from first spawn to termination.
    """
    from repro.cpu.system import System
    from repro.verify.fuzz import SMPProgramFuzzer

    checker = InvariantChecker()
    audits = 0
    for seed, cores in ((0, 2), (1, 3), (2, 4)):
        program = SMPProgramFuzzer(seed=seed, length=30, cores=cores).program()
        smp = System(ncores=cores)
        smp.load(program)
        for quantum in range(500_000):
            smp.step()
            if smp.finished:
                break
            if quantum % 50 == 0:
                checker.check_system(smp)
                audits += 1
        assert smp.finished, f"fuzz program {seed} did not terminate"
    assert audits > 10


def test_smp_fingerprint_discriminates():
    from repro.verify.invariants import state_fingerprint

    a = running_smp()
    b = running_smp()
    assert state_fingerprint(a) == state_fingerprint(b)
    b.step()
    assert state_fingerprint(a) != state_fingerprint(b)
    c = running_smp()
    c.injectable_targets()["c1.regfile"].flip_bit(0, 0)
    assert state_fingerprint(a) != state_fingerprint(c)
