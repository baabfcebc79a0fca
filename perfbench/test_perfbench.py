"""Tests of the campaign benchmark itself, at a tiny size.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import pytest

import harness
import layers
import run
from repro.core.supervisor import Supervisor

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())

#: Two injections per round on one program.
TINY = dataclasses.replace(
    harness.WORKLOADS["exact"], name="tiny", programs=("sha",),
    components=("regfile", "itlb"), cardinalities=(1,),
)
#: The pruned, two-worker execution path at four injections per round.
TINY_JOBS2 = dataclasses.replace(
    harness.WORKLOADS["pruned-jobs2"], name="tiny-jobs2", programs=("sha",),
    components=("regfile", "l2"), cardinalities=(1,), samples=2,
)


@pytest.fixture(autouse=True)
def _scratch(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(harness, "SETUP_REPS", 1)
    monkeypatch.setattr(harness, "GOLDEN_REPS", 1)


def _run_cli(monkeypatch, workload, trace: int) -> list[str]:
    """``run.main`` on *workload* in place of ``smp2``; stdout lines."""
    monkeypatch.setitem(harness.WORKLOADS, "smp2", workload)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "smp2", "--seed", "3",
                         "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    return out.getvalue().splitlines()


@pytest.mark.parametrize(
    "workload, trace, section",
    [(TINY, 0, "end_to_end"), (TINY_JOBS2, 1, "per_layer")],
    ids=["untraced-serial", "traced-jobs2"],
)
def test_printed_names_and_units_match_benchmark_json(
    monkeypatch, workload, trace, section
):
    monkeypatch.setattr(layers, "TRACED_INJECTIONS", 1)
    lines = _run_cli(monkeypatch, workload, trace)
    host = json.loads(lines[-2])["host"]
    assert set(host) == {"cpus", "python", "commit"}
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert printed == declared


def test_declared_workloads_are_benchmark_workloads():
    names = {w["name"] for w in BENCHMARK["workloads"]}
    assert names <= set(harness.WORKLOADS)


def test_two_runs_give_identical_digests():
    harness.set_up(TINY)
    first = harness.run_round(TINY, 5)
    second = harness.run_round(TINY, 5)
    assert first.classified == TINY.samples_per_round
    assert first.digest == second.digest


class _Boom:
    def generate(self, *args, **kwargs):
        raise RuntimeError("injected infrastructure failure")


class RaisingOnceSupervisor(Supervisor):
    """Loses exactly one sample to a contained incident."""

    raised = False

    def run_injection(self, workload, component, generator, *args, **kwargs):
        if not self.raised:
            self.raised = True
            generator = _Boom()
        return super().run_injection(
            workload, component, generator, *args, **kwargs
        )


def test_contained_incident_counts_as_lost_sample():
    record = harness.measure(
        TINY, seed=3, seconds=0, supervisor_cls=RaisingOnceSupervisor,
    )
    attempted = record["attempted"]
    assert record["correct"] is True
    assert record["failed"] == 1
    assert record["metrics"]["samples_classified_frac"]["value"] == (
        (attempted - 1) / attempted
    )


def test_gate_rejects_a_changed_digest_or_golden_statistic():
    harness.set_up(TINY)
    round_ = harness.run_round(TINY, harness.DEFAULT_SEED)
    expected = {"digests": {"tiny": "0" * 64}}
    assert harness.check_rounds(TINY, harness.DEFAULT_SEED, [round_],
                                expected)
    assert not harness.check_rounds(TINY, 7, [round_], expected)
    _, stats, ok = harness.golden_throughput(TINY, reps=1)
    recorded = harness.load_expected()
    assert not harness.check_golden(stats, ok, recorded)
    altered = json.loads(json.dumps(recorded))
    altered["golden"]["sha@1"]["cycles"] += 1
    assert harness.check_golden(stats, ok, altered)


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smp2",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
