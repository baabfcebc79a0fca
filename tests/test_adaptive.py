"""CI-driven adaptive sampling: degeneracy, early stopping, invariance.

The driver's contracts: ``ci_target=0`` reproduces the exact-replay
campaign byte-for-byte (no cell can ever meet a zero half-width, so no
budget moves); a loose target stops cells early and never spends more
than the configured budget; and allocation depends only on merged counts,
so any ``jobs`` value produces identical bytes.  Results match the
recorded reference table (tests/data/adaptive_reference.json), and waves
run on the campaign task runner, so adaptive campaigns are stored,
resume bit-identically after an interruption and survive worker kills.
"""

import dataclasses
import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro import obs
from repro.core import adaptive, campaign
from repro.core.adaptive import (
    ADAPTIVE_BATCH,
    AdaptiveReport,
    run_campaign_adaptive,
)
from repro.core.campaign import CampaignConfig, CampaignStore, run_campaign
from repro.core.chaos import ChaosEvent, ChaosSpec, chaos_policy
from repro.core.supervisor import IncidentJournal, Supervisor
from repro.errors import ConfigError


def _config(samples: int = 30, components=("regfile", "itlb")):
    return CampaignConfig(
        workloads=("crc32",), components=components, cardinalities=(1,),
        samples=samples, seed=7,
    )


def test_ci_target_zero_is_byte_identical_to_exact_replay():
    config = _config(samples=30)
    exact = run_campaign(config)
    adaptive = run_campaign_adaptive(config, ci_target=0.0)
    assert adaptive.result.to_json() == exact.to_json()
    assert adaptive.spent_samples == adaptive.baseline_samples
    assert not any(cell.early_stopped for cell in adaptive.cells)


def test_loose_target_stops_early_and_frees_budget():
    config = _config(samples=60)
    events = []
    report = run_campaign_adaptive(
        config, ci_target=0.5, events=events.append
    )
    assert isinstance(report, AdaptiveReport)
    # Every cell meets a +/-0.5 half-width within the first wave.
    for cell in report.cells:
        assert cell.early_stopped
        assert cell.samples == ADAPTIVE_BATCH
        assert cell.half_width <= 0.5
    assert report.spent_samples < report.baseline_samples
    assert report.saved_fraction > 0
    assert any("freed" in message for message in events)


def test_spent_never_exceeds_baseline():
    config = _config(samples=30)
    report = run_campaign_adaptive(config, ci_target=0.08)
    assert report.spent_samples <= report.baseline_samples
    total_counted = sum(
        cell.counts.total for cell in report.result.cells
    )
    assert total_counted == report.spent_samples


def test_jobs_do_not_change_bytes():
    config = _config(samples=30, components=("regfile",))
    serial = run_campaign_adaptive(config, ci_target=0.3)
    parallel = run_campaign_adaptive(config, ci_target=0.3, jobs=2)
    assert parallel.result.to_json() == serial.result.to_json()
    assert parallel.spent_samples == serial.spent_samples


def test_early_stop_prefix_matches_exact_replay_prefix():
    # An early-stopped cell's counts are the exact-replay cell's first n
    # samples — adaptive never changes the draw sequence, only its length.
    config = _config(samples=30, components=("regfile",))
    report = run_campaign_adaptive(config, ci_target=0.5)
    (cell,) = report.cells
    assert cell.early_stopped and cell.samples == ADAPTIVE_BATCH
    prefix_config = _config(samples=ADAPTIVE_BATCH, components=("regfile",))
    exact = run_campaign(prefix_config)
    assert (
        report.result.cell("crc32", "regfile", 1).counts
        == exact.cell("crc32", "regfile", 1).counts
    )


def test_progress_fires_once_per_cell_in_canonical_order():
    config = _config(samples=30)
    seen = []
    run_campaign_adaptive(
        config, ci_target=0.5,
        progress=lambda done, total, cell: seen.append(
            (done, total, cell.component)
        ),
    )
    assert [done for done, _, _ in seen] == [1, 2]
    assert all(total == 2 for _, total, _ in seen)
    assert [component for _, _, component in seen] == ["regfile", "itlb"]


def test_negative_ci_target_rejected():
    with pytest.raises(ConfigError):
        run_campaign_adaptive(_config(), ci_target=-0.1)


@pytest.mark.parametrize("jobs", [1, 2])
def test_two_core_ci_target_zero_is_byte_identical_to_exact_replay(jobs):
    # Waves run on the 2-core machine and restore its checkpoints, exactly
    # like the exact-replay cell does.
    config = CampaignConfig(
        workloads=("qsort_p",), components=("l2",), cardinalities=(1,),
        samples=4, seed=7, cores=2,
    )
    exact = run_campaign(config)
    adaptive = run_campaign_adaptive(config, ci_target=0.0, jobs=jobs)
    assert adaptive.result.to_json() == exact.to_json()
    assert adaptive.spent_samples == 4


# ---------------------------------------------------------------------------
# The reference table: adaptive bytes recorded before waves moved onto the
# campaign task runner.
# ---------------------------------------------------------------------------

REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "adaptive_reference.json").read_text()
)["entries"]
ENTRY = {entry["name"]: entry for entry in REFERENCE}


def _entry_config(entry) -> CampaignConfig:
    config = entry["config"]
    return CampaignConfig(
        workloads=tuple(config["workloads"]),
        components=tuple(config["components"]),
        cardinalities=tuple(config["cardinalities"]),
        samples=config["samples"], seed=config["seed"],
        cores=config["cores"],
    )


def _digest(report: AdaptiveReport) -> str:
    return hashlib.sha256(report.result.to_json().encode()).hexdigest()


def _assert_reference(entry, report: AdaptiveReport) -> None:
    assert _digest(report) == entry["result_sha256"]
    assert report.spent_samples == entry["spent_samples"]


def test_reference_table_covers_early_stop_phase_b_and_two_cores():
    assert any("reallocating" in e for e in ENTRY["phase-b"]["events"])
    assert not any("reallocating" in e for e in ENTRY["early-stop"]["events"])
    assert ENTRY["two-core"]["config"]["cores"] == 2


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(ENTRY))
def test_adaptive_matches_the_reference_table(name, jobs):
    entry = ENTRY[name]
    events = []
    report = run_campaign_adaptive(
        _entry_config(entry), entry["ci_target"], jobs=jobs,
        events=events.append,
    )
    _assert_reference(entry, report)
    assert events == entry["events"]


# ---------------------------------------------------------------------------
# Store, resume and chaos: adaptive waves run on the campaign task runner.
# ---------------------------------------------------------------------------


class _InterruptingStore:
    """A store that behaves like Ctrl-C once its *after*-th finished
    range and that range's end state are stored."""

    def __init__(self, store: CampaignStore, after: int) -> None:
        self._store = store
        self._after = after
        self.puts = 0
        self.fired = False

    def __getattr__(self, name):
        return getattr(self._store, name)

    def put(self, key, cell) -> None:
        self._store.put(key, cell)
        self.puts += 1

    def put_partial(self, key, checkpoint) -> None:
        self._store.put_partial(key, checkpoint)
        if self.puts == self._after and not self.fired:
            self.fired = True
            raise KeyboardInterrupt


def _simulated(run) -> int:
    """Samples *run* simulates (its ``sim.samples``), also when it raises."""
    telemetry = obs.enable()
    try:
        run()
    except KeyboardInterrupt:
        pass
    finally:
        obs.disable()
    return telemetry.metrics.counter("sim.samples").value


# The phase-b entry stores 4 ranges in wave 1, 2 in wave 2 (both Phase A)
# and 2 in its one Phase-B wave: interrupt after the 1st range (inside
# Phase A) or after the 7th (one of the two Phase-B ranges done).
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("after", [1, 7], ids=["phase-a", "mid-phase-b"])
def test_interrupted_adaptive_campaign_resumes_bit_identically(
    tmp_path, jobs, after
):
    entry = ENTRY["phase-b"]
    config = _entry_config(entry)
    path = tmp_path / "store.json"
    store = _InterruptingStore(CampaignStore(path), after)
    before = _simulated(lambda: run_campaign_adaptive(
        config, entry["ci_target"], jobs=jobs, store=store,
    ))
    assert store.fired
    store.close()
    if jobs == 1:  # in parallel, the drain may store one more range
        assert len(CampaignStore(path)) == after

    reports = []
    after_resume = _simulated(lambda: reports.append(run_campaign_adaptive(
        config, entry["ci_target"], jobs=jobs, store=CampaignStore(path),
    )))
    _assert_reference(entry, reports[0])
    # Stored ranges are served and every other range resumes from the
    # cell's checkpoint: no sample is simulated twice.
    assert before + after_resume == entry["spent_samples"]
    # One checkpoint per cell, at most: the cell's latest state.
    assert len(CampaignStore(path).partial_keys()) <= len(config.cells())


def test_resumed_adaptive_rerun_simulates_nothing(tmp_path, monkeypatch):
    entry = ENTRY["early-stop"]
    config = _entry_config(entry)
    store = CampaignStore(tmp_path / "store.json")
    first = run_campaign_adaptive(config, entry["ci_target"], store=store)
    _assert_reference(entry, first)

    def no_simulation(*args, **kwargs):
        raise AssertionError("a stored range was simulated again")

    monkeypatch.setattr(campaign, "run_cell_range", no_simulation)
    again = run_campaign_adaptive(config, entry["ci_target"], store=store)
    _assert_reference(entry, again)
    # Every cell stopped after one wave: its range is the exact campaign
    # with samples=ADAPTIVE_BATCH, whose cells are therefore all cached.
    exact = run_campaign(
        dataclasses.replace(config, samples=ADAPTIVE_BATCH), store=store,
    )
    assert exact.to_json() == first.result.to_json()


def test_adaptive_jobs2_survives_a_worker_kill(tmp_path, monkeypatch):
    entry = ENTRY["early-stop"]
    # The chaos plan reaches the scheduler run_campaign_adaptive opens.
    monkeypatch.setattr(adaptive, "open_runner", functools.partial(
        campaign.open_runner, chaos=ChaosSpec(events=(ChaosEvent(
            "kill", "stringsearch", "itlb", 1, ordinal=5,
            flag=str(tmp_path / "killed.flag"),
        ),)),
    ))
    supervisor = Supervisor(journal=IncidentJournal())
    report = run_campaign_adaptive(
        _entry_config(entry), entry["ci_target"], jobs=2,
        supervisor=supervisor, policy=chaos_policy(),
    )
    _assert_reference(entry, report)
    kinds = [incident.kind for incident in supervisor.journal.incidents]
    assert "worker-crash" in kinds and "retry" in kinds
