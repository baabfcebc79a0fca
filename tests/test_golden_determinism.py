"""Golden-run determinism across cold process boundaries.

Two fresh Python subprocesses — with *different* hash seeds, to flush out
any dict-ordering dependence — must produce bit-identical golden runs:
same cycle count, same retired instructions, same output bytes, same
stats, and the same SHA-256 fingerprint over the complete final machine
state.  Everything the campaign caches or compares downstream rests on
this property.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

SCRIPT = """
import json
from repro.core.campaign import golden_run
from repro.cpu.system import System
from repro.verify.invariants import state_fingerprint
from repro.workloads import get_workload

workload = get_workload("susan_c")
golden = golden_run(workload)
system = System()
system.load(workload.program())
system.run(4 * golden.cycles)
print(json.dumps({
    "cycles": golden.cycles,
    "instructions": golden.instructions,
    "output": golden.output.hex(),
    "exit_code": golden.exit_code,
    "stats": golden.stats,
    "fingerprint": state_fingerprint(system),
}, sort_keys=True))
"""


def _cold_run(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    return json.loads(proc.stdout)


def test_golden_run_is_bit_identical_across_cold_processes():
    first = _cold_run("0")
    second = _cold_run("1")
    assert first == second
    assert first["cycles"] > 0
    assert first["instructions"] > 0
    assert len(first["fingerprint"]) == 64


def test_in_process_golden_matches_subprocess():
    from repro.core.campaign import golden_run
    from repro.workloads import get_workload

    cold = _cold_run("2")
    warm = golden_run(get_workload("susan_c"))
    assert warm.cycles == cold["cycles"]
    assert warm.instructions == cold["instructions"]
    assert warm.output.hex() == cold["output"]
    assert warm.stats == cold["stats"]


SMP_SCRIPT = """
import json
from repro.core.campaign import golden_run
from repro.cpu.system import System
from repro.verify.invariants import state_fingerprint
from repro.workloads import get_workload

workload = get_workload("crc32_p")
golden = golden_run(workload, cores=2)
smp = System(ncores=2)
smp.load(workload.program_for(2))
smp.run(4 * golden.cycles)
print(json.dumps({
    "cycles": golden.cycles,
    "instructions": golden.instructions,
    "output": golden.output.hex(),
    "exit_code": golden.exit_code,
    "fingerprint": state_fingerprint(smp),
}, sort_keys=True))
"""


def _cold_smp_run(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-c", SMP_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    return json.loads(proc.stdout)


def test_multi_core_golden_run_is_bit_identical_across_cold_processes():
    """The deterministic interleaver holds across process boundaries too:
    two cold 2-core golden runs agree on the complete final machine state,
    not just the architectural output."""
    first = _cold_smp_run("0")
    second = _cold_smp_run("1")
    assert first == second
    assert first["cycles"] > 0
    assert len(first["fingerprint"]) == 64

    from repro.core.campaign import golden_run
    from repro.workloads import get_workload

    warm = golden_run(get_workload("crc32_p"), cores=2)
    assert warm.cycles == first["cycles"]
    assert warm.output.hex() == first["output"]
