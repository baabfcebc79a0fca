"""Report renderers and the repro-campaign command-line interface."""

import json

import pytest

from repro import obs
from repro.core import report
from repro.core.avf import ClassCounts
from repro.core.campaign import CampaignResult, CellResult
from repro.core.cli import main
from repro.cpu.config import DEFAULT_CONFIG
from repro.obs import load_summary

WORKLOADS = ("alpha", "beta")
COMPONENTS = ("l1d", "l1i", "l2", "regfile", "dtlb", "itlb")


def synthetic_result():
    """A hand-built campaign result with known, distinct AVFs."""
    cells = []
    for wi, workload in enumerate(WORKLOADS):
        for ci, component in enumerate(COMPONENTS):
            for cardinality in (1, 2, 3):
                vulnerable = 5 * cardinality + ci + wi
                cells.append(CellResult(
                    workload=workload,
                    component=component,
                    cardinality=cardinality,
                    counts=ClassCounts(
                        masked=100 - vulnerable,
                        sdc=vulnerable // 2,
                        crash=vulnerable - vulnerable // 2,
                    ),
                    golden_cycles=1000 * (wi + 1),
                ))
    return CampaignResult(cells)


def test_format_table_alignment():
    text = report.format_table(["A", "BB"], [["1", "2"], ["333", "4"]])
    lines = text.splitlines()
    assert lines[0].startswith("A")
    assert "---" in lines[1]
    assert len(lines) == 4


def test_render_table1_contains_config():
    text = report.render_table1(DEFAULT_CONFIG)
    assert "Reorder buffer" in text and "40" in text
    assert "2/4/4" in text


def test_render_static_tables():
    assert "250nm" in report.render_table6()
    assert "106 x 10^-8" in report.render_table7()
    assert "4,194,304" in report.render_table8()


def test_render_table3():
    text = report.render_table3({"sha": 1234}, {"sha": 99})
    assert "1,234" in text and "sha" in text


def test_render_component_figure():
    text = report.render_component_figure(synthetic_result(), "l1d", "FIG. 1")
    assert "FIG. 1" in text
    assert "alpha" in text and "beta" in text
    assert "1-bit" in text and "3-bit" in text
    assert "AVF" in text


def test_render_table4_and_5():
    result = synthetic_result()
    table4 = report.render_table4(result)
    assert "L1D Cache" in table4 and "x" in table4
    table5 = report.render_table5(result)
    assert "Register File" in table5
    assert "+" in table5  # percentage increases present


def test_render_fig7_and_8():
    result = synthetic_result()
    fig7 = report.render_fig7(result)
    assert "22nm" in fig7 and "gap" in fig7
    fig8 = report.render_fig8(result)
    assert "FIT" in fig8 and "multi-bit" in fig8


def test_weighted_avf_increases_with_cardinality_in_synthetic():
    result = synthetic_result()
    for component in COMPONENTS:
        avfs = result.weighted_avf_by_cardinality(component)
        assert avfs[1] < avfs[2] < avfs[3]


# -- CLI -------------------------------------------------------------------------


def test_cli_static_artifacts(capsys):
    for artifact in ("table1", "table6", "table7", "table8"):
        assert main(["static", "--artifact", artifact]) == 0
    output = capsys.readouterr().out
    assert "TABLE VIII" in output


def test_cli_static_unknown_artifact():
    with pytest.raises(SystemExit):
        main(["static", "--artifact", "table99"])


def test_cli_report_round_trip(tmp_path, capsys):
    results = tmp_path / "results.json"
    results.write_text(synthetic_result().to_json())
    assert main(["report", "--results", str(results),
                 "--artifact", "table5"]) == 0
    assert "TABLE V" in capsys.readouterr().out
    assert main(["report", "--results", str(results),
                 "--artifact", "fig8"]) == 0
    assert "FIT" in capsys.readouterr().out


def test_cli_run_tiny_campaign(tmp_path, capsys):
    out = tmp_path / "campaign.json"
    code = main([
        "run", "--workloads", "stringsearch", "--components", "regfile",
        "--cardinalities", "1", "--samples", "2", "--seed", "5",
        "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["cells"]) == 1
    assert data["cells"][0]["counts"]["masked"] + sum(
        data["cells"][0]["counts"][k]
        for k in ("sdc", "crash", "timeout", "assertion")
    ) == 2


def test_cli_adaptive_runs_at_two_cores(tmp_path, capsys):
    out = tmp_path / "adaptive.json"
    code = main([
        "run", "--workloads", "qsort_p", "--components", "l2",
        "--cardinalities", "1", "--samples", "2", "--seed", "5",
        "--cores", "2", "--adaptive", "--ci-target", "0",
        "--out", str(out),
    ])
    assert code == 0
    (cell,) = json.loads(out.read_text())["cells"]
    assert sum(cell["counts"].values()) == 2


def test_cli_adaptive_store_then_resume_simulates_nothing(tmp_path, capsys):
    store = tmp_path / "store.json"
    run = [
        "run", "--workloads", "stringsearch", "--components", "regfile",
        "--cardinalities", "1", "--samples", "30", "--seed", "5",
        "--adaptive", "--ci-target", "0.3", "--store", str(store),
    ]
    assert main(run + ["--out", str(tmp_path / "first.json")]) == 0
    telemetry = tmp_path / "resumed.telemetry.json"
    try:
        assert main(run + [
            "--resume", "--telemetry", str(telemetry),
            "--out", str(tmp_path / "resumed.json"),
        ]) == 0
    finally:
        obs.disable()
    assert (tmp_path / "first.json").read_bytes() == \
        (tmp_path / "resumed.json").read_bytes()
    counters = load_summary(telemetry)["counters"]
    assert counters.get("sim.samples", 0) == 0


def test_cli_rejects_pruning_beyond_one_core(capsys):
    code = main([
        "run", "--workloads", "qsort_p", "--samples", "1", "--cores", "2",
        "--prune-masked",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "--prune-masked" in err and "coherence" in err


def test_cli_golden_prints_table3(capsys):
    assert main(["golden", "--workloads", "stringsearch"]) == 0
    output = capsys.readouterr().out
    assert "TABLE III" in output
    assert "stringsearch" in output


def test_cli_export_csv(tmp_path, capsys):
    results = tmp_path / "results.json"
    results.write_text(synthetic_result().to_json())
    assert main(["export", "--results", str(results), "--what", "cells"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("workload,component,cardinality")
    assert "alpha" in out
    assert main(["export", "--results", str(results), "--what", "fit"]) == 0
    out = capsys.readouterr().out
    assert "250nm" in out and "multibit_share" in out
