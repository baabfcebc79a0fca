"""Campaign benchmark entry point.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload smp2 --seed 0 --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the host (cpus, Python version, git commit).  ``--trace 1``
reports the per-layer metrics instead of the end-to-end ones and writes
a Chrome trace under ``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {source}; run from "
              f"the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(harness.WORKLOADS)}")
    record = harness.measure(
        harness.WORKLOADS[args.workload], args.seed, args.seconds,
        trace=bool(args.trace),
    )
    host = harness.host_facts()
    (Path(harness.scratch_dir()) / (
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )).write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace, "host": host,
         **record}, indent=1, sort_keys=True) + "\n")
    for failure in record["failures"]:
        print(f"perfbench: correctness gate: {failure}", file=sys.stderr)
    print(json.dumps({"host": host, "workload": args.workload,
                      "seed": args.seed, "rounds": record["rounds"]}))
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}),
          flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
