"""Every golden run ends in exactly the recorded machine state.

``tests/data/golden_fingerprints.json`` holds, for the 15 serial
workloads at one core and the 5 parallel ports at two cores, the golden
cycle and instruction counts, the SHA-256 of the program output and the
:func:`~repro.verify.invariants.state_fingerprint` of the finished
machine.  The table was recorded before the one- and N-core machines were
merged into one class; any change to simulated behaviour — of the
pipeline, the memory hierarchy, the interleaver or the golden pass —
moves at least one row.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.campaign import GOLDEN_MAX_CYCLES, build_system
from repro.cpu.config import DEFAULT_CONFIG
from repro.kernel.status import RunStatus
from repro.verify.invariants import state_fingerprint
from repro.workloads import get_workload

TABLE = json.loads(
    (Path(__file__).parent / "data" / "golden_fingerprints.json").read_text()
)


def test_table_covers_every_workload():
    from repro.workloads import workload_names
    from repro.workloads.registry import parallel_workload_names

    assert [(row["workload"], row["cores"]) for row in TABLE] == (
        [(name, 1) for name in workload_names()]
        + [(name, 2) for name in parallel_workload_names()]
    )


@pytest.mark.parametrize(
    "row", TABLE, ids=[f"{row['workload']}@{row['cores']}" for row in TABLE]
)
def test_golden_run_matches_recorded_fingerprint(row):
    system = build_system(
        get_workload(row["workload"]), DEFAULT_CONFIG, row["cores"]
    )
    result = system.run(GOLDEN_MAX_CYCLES)
    assert result.status is RunStatus.FINISHED
    assert result.cycles == row["cycles"]
    assert result.instructions == row["instructions"]
    assert hashlib.sha256(result.output).hexdigest() == row["output_sha256"]
    assert state_fingerprint(system) == row["fingerprint"]
