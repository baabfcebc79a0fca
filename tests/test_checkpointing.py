"""Checkpointed injection must be bit-identical to direct simulation."""

import random

import pytest

from repro.core import campaign as campaign_module
from repro.core.campaign import (
    _checkpoints_for,
    golden_run,
    run_one_injection,
)
from repro.core.generator import MultiBitFaultGenerator
from repro.cpu.config import DEFAULT_CONFIG
from repro.kernel.status import RunStatus
from repro.workloads import get_workload

WORKLOAD = "susan_c"  # small and fast: 3,998 golden cycles


@pytest.fixture
def dense_checkpoints(monkeypatch):
    """The golden pass checkpoints every 512 cycles (7 on susan_c).

    Caches are emptied on both sides so no other test sees the denser
    set (results would be identical, only memory and speed differ).
    """

    def clear():
        campaign_module._GOLDEN_CACHE.clear()
        campaign_module._CHECKPOINT_CACHE.clear()

    clear()
    monkeypatch.setattr(campaign_module, "CHECKPOINT_INTERVAL", 512)
    yield lambda workload: _checkpoints_for(workload, DEFAULT_CONFIG)
    clear()


def test_snapshot_resumes_exactly(dense_checkpoints):
    workload = get_workload(WORKLOAD)
    golden = golden_run(workload)
    checkpoints = dense_checkpoints(workload)
    system = checkpoints.system_at(golden.cycles // 2)
    assert system.cycle <= golden.cycles // 2
    assert system.run_until(golden.cycles // 2, golden.cycles + 10)
    result = system.run(4 * golden.cycles)
    assert result.status is RunStatus.FINISHED
    assert result.cycles == golden.cycles
    assert result.output == golden.output


def test_snapshot_at_cycle_zero_is_fresh_system(dense_checkpoints):
    workload = get_workload(WORKLOAD)
    checkpoints = dense_checkpoints(workload)
    system = checkpoints.system_at(0)
    assert system.cycle == 0


def test_snapshots_are_isolated(dense_checkpoints):
    """Cloned systems must not share mutable state with the snapshot."""
    workload = get_workload(WORKLOAD)
    golden = golden_run(workload)
    checkpoints = dense_checkpoints(workload)
    cycle = golden.cycles // 2
    first = checkpoints.system_at(cycle)
    # Wreck the first clone thoroughly.
    first.core.prf.values[:] = [0] * len(first.core.prf.values)
    first.l1d.flip_bit(0, 0)
    first.dtlb.flip_bit(0, 5)
    # A second clone from the same snapshot must still run clean.
    second = checkpoints.system_at(cycle)
    second.run_until(cycle, golden.cycles + 10)
    result = second.run(4 * golden.cycles)
    assert result.status is RunStatus.FINISHED
    assert result.output == golden.output


def test_system_at_bisect_picks_latest_checkpoint_not_after(
    dense_checkpoints,
):
    workload = get_workload(WORKLOAD)
    golden = golden_run(workload)
    checkpoints = dense_checkpoints(workload)
    cycles = checkpoints._cycles
    assert cycles == sorted(cycles)
    # Exactly on a snapshot, between snapshots, before the first, past the
    # last: the chosen clone is always the latest checkpoint <= cycle.
    probes = (
        [cycles[0] - 1] + list(cycles)
        + [c + 1 for c in cycles] + [golden.cycles + 5]
    )
    for probe in probes:
        expected = max((c for c in cycles if c <= probe), default=None)
        system = checkpoints.system_at(probe)
        if expected is None:
            assert system.cycle == 0
        else:
            assert system.cycle == expected


def test_caches_are_keyed_by_config_value_and_bounded():
    from repro.cpu.config import CoreConfig

    workload = get_workload(WORKLOAD)
    # CoreConfig hashes by value: equal configs share one cache entry.
    assert hash(CoreConfig()) == hash(CoreConfig())
    first = golden_run(workload, CoreConfig())
    second = golden_run(workload, CoreConfig())
    assert first is second
    snaps_a = _checkpoints_for(workload, CoreConfig())
    snaps_b = _checkpoints_for(workload, CoreConfig())
    assert snaps_a is snaps_b
    # Both caches are LRU-bounded.
    assert len(campaign_module._GOLDEN_CACHE) \
        <= campaign_module.GOLDEN_CACHE_SIZE
    assert len(campaign_module._CHECKPOINT_CACHE) \
        <= campaign_module.CHECKPOINT_CACHE_SIZE


def test_bounded_cache_evicts_least_recently_used():
    from repro.core.campaign import _BoundedCache

    cache = _BoundedCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh a
    cache.put("c", 3)  # evicts b, the LRU entry
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert len(cache) == 2


def test_every_checkpoint_restores_to_fresh_run_state(dense_checkpoints):
    """Restoring any checkpoint equals simulating from scratch, bit for bit.

    The step function is a pure function of machine state, so the staged
    run that built the snapshots and a cold run to the same cycle must
    agree on *all* state — verified with the SHA-256 fingerprint over
    core, caches, TLBs, kernel and physical memory.
    """
    from repro.cpu.system import System
    from repro.verify.invariants import state_fingerprint

    workload = get_workload(WORKLOAD)
    golden = golden_run(workload)
    checkpoints = dense_checkpoints(workload)
    assert checkpoints._cycles, "expected at least one snapshot"
    for cycle in checkpoints._cycles:
        restored = checkpoints.system_at(cycle)
        assert restored.cycle == cycle
        fresh = System()
        fresh.load(workload.program())
        assert fresh.run_until(cycle, golden.cycles + 10)
        assert fresh.cycle == cycle
        assert state_fingerprint(restored) == state_fingerprint(fresh), (
            f"checkpoint at cycle {cycle} diverges from a fresh run"
        )


def test_checkpointed_injection_matches_direct(dense_checkpoints):
    workload = get_workload(WORKLOAD)
    golden = golden_run(workload)
    checkpoints = dense_checkpoints(workload)
    rng = random.Random(77)
    for trial in range(6):
        cycle = rng.randrange(golden.cycles)
        component = rng.choice(["l1d", "l1i", "itlb", "regfile"])
        direct = run_one_injection(
            workload, component,
            MultiBitFaultGenerator(seed=trial), 3, cycle,
        )
        fast = run_one_injection(
            workload, component,
            MultiBitFaultGenerator(seed=trial), 3, cycle,
            checkpoints=checkpoints,
        )
        assert direct[0] is fast[0]               # same fault class
        assert direct[2] == fast[2]               # same mask
        assert direct[1].cycles == fast[1].cycles  # same timing
        assert direct[1].output == fast[1].output  # same output
        assert direct[1].status == fast[1].status


def test_golden_pass_matches_a_plain_run(dense_checkpoints):
    """Checkpointing and continuing on copies leaves the golden run as is."""
    from repro.core.campaign import GOLDEN_MAX_CYCLES, build_system

    workload = get_workload(WORKLOAD)
    checkpoints = dense_checkpoints(workload)
    plain = build_system(workload, DEFAULT_CONFIG).run(GOLDEN_MAX_CYCLES)
    assert checkpoints.golden == plain
    assert golden_run(workload) is checkpoints.golden
    assert len(checkpoints._cycles) == 7


def test_one_simulation_fills_golden_and_checkpoint_caches(monkeypatch):
    """golden_run plus a zero-sample cell build exactly one machine."""
    from repro.core.campaign import CampaignConfig, build_system, run_cell

    built = []

    def counting_build(*args, **kwargs):
        built.append(args[0].name)
        return build_system(*args, **kwargs)

    campaign_module._GOLDEN_CACHE.clear()
    campaign_module._CHECKPOINT_CACHE.clear()
    monkeypatch.setattr(campaign_module, "build_system", counting_build)
    workload = get_workload(WORKLOAD)
    golden_run(workload)
    run_cell(WORKLOAD, "l1d", 1, CampaignConfig(
        workloads=(WORKLOAD,), components=("l1d",), cardinalities=(1,),
        samples=0,
    ))
    assert built == [WORKLOAD]
    assert campaign_module._CHECKPOINT_CACHE.get(
        (WORKLOAD, DEFAULT_CONFIG)
    ) is not None
