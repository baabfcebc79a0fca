"""Re-record ``expected.json``: golden statistics and round-0 digests.

Run from the root of a source checkout, and only when a change is meant
to alter simulated results (the correctness gate exists to catch every
other such change)::

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402


def main() -> int:
    golden: dict[str, dict] = {}
    digests: dict[str, str] = {}
    for workload in harness.WORKLOADS.values():
        harness.set_up(workload)
        _, stats, ok = harness.golden_throughput(workload, reps=1)
        if not ok:
            print(f"{workload.name}: golden run failed", file=sys.stderr)
            return 1
        golden.update(stats)
        result = harness.run_round(workload, harness.DEFAULT_SEED)
        if not result.counts_consistent(workload.samples) or result.lost:
            print(f"{workload.name}: samples lost", file=sys.stderr)
            return 1
        digests[workload.name] = result.digest
        print(f"{workload.name}: {result.digest}")
    harness.EXPECTED_PATH.write_text(json.dumps({
        "default_seed": harness.DEFAULT_SEED,
        "digests": digests,
        "golden": golden,
    }, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
