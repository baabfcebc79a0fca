"""CI-driven adaptive sampling: degeneracy, early stopping, invariance.

The driver's contracts: ``ci_target=0`` reproduces the exact-replay
campaign byte-for-byte (no cell can ever meet a zero half-width, so no
budget moves); a loose target stops cells early and never spends more
than the configured budget; and allocation depends only on merged counts,
so any ``jobs`` value produces identical bytes.
"""

import pytest

from repro.core.adaptive import (
    ADAPTIVE_BATCH,
    AdaptiveReport,
    run_campaign_adaptive,
)
from repro.core.campaign import CampaignConfig, run_campaign
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
