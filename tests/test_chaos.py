"""The chaos matrix: injected faults must not move a single byte.

These tests drive :func:`repro.core.chaos.run_chaos` in-process over a
small grid and assert the fabric's headline guarantee — results and the
compacted store byte-identical to a serial run — under worker kills,
stalls (recovered through lease expiry), dropped/duplicated messages
and torn checkpoint writes, plus the
quarantine contract for poison cells and the ``exec.lost_deltas``
telemetry accounting.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import obs
from repro.core.campaign import CampaignConfig
from repro.core.chaos import ChaosEvent, ChaosSpec, build_spec, run_chaos
from repro.core.executor import ResiliencePolicy
from repro.core.parallel import run_campaign_parallel
from repro.core.supervisor import IncidentJournal, Supervisor
from repro.errors import IncidentBudgetExceeded

CONFIG = CampaignConfig(
    workloads=("crc32",),
    components=("regfile", "itlb"),
    cardinalities=(1,),
    samples=3,
    seed=0,
)

#: The harness default with faster heartbeats and retries, so recovery
#: happens in test time.
POLICY = ResiliencePolicy(
    heartbeat_interval=0.05,
    lease_factor=4.0,
    lease_floor=3.0,
    retry_base_delay=0.02,
    retry_max_delay=0.2,
)


def _kinds(outcome):
    return [incident.kind for incident in outcome.incidents]


def test_chaos_matrix_is_byte_identical(tmp_path):
    report = run_chaos(
        CONFIG,
        scenarios=("kill", "drop", "dup", "torn"),
        jobs=2, seed=0, workdir=tmp_path, policy=POLICY,
    )
    by_name = {outcome.scenario: outcome for outcome in report.outcomes}
    assert report.ok, {
        name: outcome.detail for name, outcome in by_name.items()
    }
    # The kill scenario must have actually exercised the recovery path:
    # journalled crashes, journalled retries, nothing swept under the rug.
    kill_kinds = _kinds(by_name["kill"])
    assert "worker-crash" in kill_kinds
    assert "retry" in kill_kinds
    retry = next(
        incident for incident in by_name["kill"].incidents
        if incident.kind == "retry"
    )
    assert retry.details["attempt"] >= 1
    assert retry.details["cause"] == "worker-crash"
    assert retry.details["backoff"] > 0
    # The torn scenario must have died mid-write and restarted at least
    # once; recovery went through journal replay on a torn journal.
    assert by_name["torn"].restarts >= 1
    # Incident journals land on disk for the operator.
    assert (tmp_path / "kill" / "incidents.jsonl").exists()


def test_chaos_stall_escalates_and_stays_identical(tmp_path):
    """A stalled worker is caught by the lease, the one watchdog: the
    journal reads lease-expired, then worker-hang, then retry."""
    report = run_chaos(
        CONFIG, scenarios=("stall",), jobs=2, seed=0,
        workdir=tmp_path, policy=POLICY,
    )
    outcome = report.outcomes[0]
    assert outcome.ok, outcome.detail
    kinds = _kinds(outcome)
    assert "lease-expired" in kinds
    assert "worker-hang" in kinds  # the lease expired and the kill fired
    retry = next(
        incident for incident in outcome.incidents
        if incident.kind == "retry"
    )
    assert retry.details["cause"] == "worker-hang"
    assert (
        kinds.index("lease-expired")
        < kinds.index("worker-hang")
        < outcome.incidents.index(retry)
    )


def test_chaos_net_matrix_on_socket_backend_is_byte_identical(tmp_path):
    """The distributed failure modes: connection drop mid-cell, partition
    during the checkpoint stream, corrupted frame, stale-epoch rejoin and
    duplicate delivery — every one byte-identical to serial."""
    # Network faults surface as instant EOF, so lease expiry is not part
    # of these scenarios — and a tight lease would misread a fresh socket
    # worker's cold golden run under load as a stall.
    policy = ResiliencePolicy(
        heartbeat_interval=0.05,
        lease_floor=30.0,
        retry_base_delay=0.02,
        retry_max_delay=0.2,
    )
    report = run_chaos(
        CONFIG,
        scenarios=(
            "disconnect", "partition", "corrupt-frame", "stale-epoch",
            "dup-deliver",
        ),
        jobs=2, seed=0, workdir=tmp_path, policy=policy, backend="socket",
    )
    by_name = {outcome.scenario: outcome for outcome in report.outcomes}
    assert report.ok, {
        name: outcome.detail for name, outcome in by_name.items()
    }
    # A severed connection looks like a crash to the scheduler and must
    # have gone through the reschedule path, not been silently absorbed.
    for scenario in ("disconnect", "partition"):
        kinds = _kinds(by_name[scenario])
        assert "worker-crash" in kinds, (scenario, kinds)
        assert "retry" in kinds, (scenario, kinds)
    # The stale rejoin actually happened: the worker consumed its
    # one-shot marker, so the coordinator saw (and rejected) a join
    # claiming a dead session's epoch before the clean retry succeeded.
    stale_flag = (
        tmp_path / "stale-epoch" / "flags" / "chaos-stale-rejoin.fired"
    )
    assert stale_flag.exists()


def test_chaos_net_scenarios_refuse_non_socket_backends(tmp_path):
    with pytest.raises(ValueError, match="socket"):
        run_chaos(
            CONFIG, scenarios=("disconnect",), jobs=2, seed=0,
            workdir=tmp_path, policy=POLICY, backend="multiprocessing",
        )


def test_expired_lease_is_reclaimed_and_stays_byte_identical(tmp_path):
    """A worker that stops talking (hang- or partition-shaped silence)
    outlives its lease: it is killed, each cell it held is journalled as
    lease-expired and rescheduled from its last acked checkpoint — and
    the result bytes never move."""
    from repro.core.campaign import run_campaign

    serial = run_campaign(CONFIG)
    policy = ResiliencePolicy(
        heartbeat_interval=0.05,
        retry_base_delay=0.02,
        retry_max_delay=0.2,
        lease_factor=0.1,
        lease_floor=1.5,
    )
    spec = build_spec("stall", CONFIG, 0, tmp_path, stall_duration=30.0)
    supervisor = Supervisor(journal=IncidentJournal())
    result = run_campaign_parallel(
        CONFIG, jobs=2, supervisor=supervisor,
        policy=policy, chaos=spec,
    )
    kinds = [incident.kind for incident in supervisor.journal.incidents]
    assert "lease-expired" in kinds
    expired = next(
        incident for incident in supervisor.journal.incidents
        if incident.kind == "lease-expired"
    )
    assert expired.details["age"] >= policy.lease_floor
    assert expired.details["lease"] >= policy.lease_floor
    hang = next(
        incident for incident in supervisor.journal.incidents
        if incident.kind == "worker-hang"
    )
    assert hang.details["cause"] == "lease-expired"
    assert hang.details["worker"] == expired.details["worker"]
    retry = next(
        incident for incident in supervisor.journal.incidents
        if incident.kind == "retry"
        and incident.details["cause"] == "worker-hang"
    )
    assert retry.details["attempt"] >= 1
    # Lease-expired records are bookkeeping, like retries: journalled,
    # never counted against the incident budget — the worker-hang that
    # follows each expiry is what counts.
    assert supervisor.incident_count == kinds.count("worker-hang")
    assert result.to_json() == serial.to_json()


def test_chaos_poison_quarantines_then_strict_aborts(tmp_path):
    report = run_chaos(
        CONFIG, scenarios=("poison",), jobs=2, seed=0,
        workdir=tmp_path, policy=POLICY,
    )
    outcome = report.outcomes[0]
    assert outcome.ok, outcome.detail
    kinds = _kinds(outcome)
    assert "poison-cell" in kinds
    # Quarantine is noisy on purpose: each doomed attempt is journalled.
    assert kinds.count("worker-crash") == POLICY.max_attempts


def test_poison_cell_respects_incident_budget(tmp_path):
    spec = build_spec("poison", CONFIG, 0, tmp_path, max_attempts=2)
    supervisor = Supervisor(journal=IncidentJournal(), max_incidents=0)
    with pytest.raises(IncidentBudgetExceeded):
        run_campaign_parallel(
            CONFIG, jobs=2, supervisor=supervisor,
            policy=ResiliencePolicy(
                max_attempts=2, retry_base_delay=0.02, retry_max_delay=0.1,
            ),
            chaos=spec,
        )


def test_worker_death_counts_lost_telemetry_deltas(tmp_path):
    obs.disable()
    telemetry = obs.enable()
    try:
        supervisor = Supervisor(journal=IncidentJournal())
        run_campaign_parallel(
            CONFIG, jobs=2, supervisor=supervisor,
            chaos=ChaosSpec(events=(ChaosEvent(
                "kill", "crc32", "itlb", 1,
                flag=str(tmp_path / "crashed.flag"),
            ),)),
        )
        crash = supervisor.journal.incidents[0]
        assert crash.kind == "worker-crash"
        assert crash.details["lost_deltas"] >= 1
        assert "telemetry delta(s) lost" in crash.message
        counter = telemetry.metrics.counter("exec.lost_deltas")
        assert counter.value >= crash.details["lost_deltas"]
    finally:
        obs.disable()


def test_retry_incidents_render_in_incidents_cli(tmp_path):
    """Satellite contract: every reschedule is a structured incident an
    operator can pull out of ``repro-campaign incidents --json``."""
    import json

    journal_path = tmp_path / "incidents.jsonl"
    supervisor = Supervisor(journal=IncidentJournal(journal_path))
    run_campaign_parallel(
        CONFIG, jobs=2, supervisor=supervisor,
        chaos=ChaosSpec(events=(ChaosEvent(
            "kill", "crc32", "regfile", 1,
            flag=str(tmp_path / "crashed.flag"),
        ),)),
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parent.parent / "src"
    ) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-m", "repro.core.cli", "incidents",
         "--journal", str(journal_path), "--json"],
        env=env, capture_output=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr.decode()
    records = json.loads(out.stdout)
    retries = [r for r in records if r["kind"] == "retry"]
    assert retries and retries[0]["details"]["attempt"] == 1
    assert {r["kind"] for r in records} >= {"worker-crash", "retry"}


def test_incidents_cli_filters_by_type(tmp_path):
    """``incidents --type retry`` narrows both the table and the JSON
    feed to the requested kinds and says so in the summary line."""
    import json

    journal_path = tmp_path / "incidents.jsonl"
    supervisor = Supervisor(journal=IncidentJournal(journal_path))
    run_campaign_parallel(
        CONFIG, jobs=2, supervisor=supervisor,
        chaos=ChaosSpec(events=(ChaosEvent(
            "kill", "crc32", "regfile", 1,
            flag=str(tmp_path / "crashed.flag"),
        ),)),
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parent.parent / "src"
    ) + os.pathsep + env.get("PYTHONPATH", "")
    base = [sys.executable, "-m", "repro.core.cli", "incidents",
            "--journal", str(journal_path)]

    out = subprocess.run(
        base + ["--type", "retry", "--json"],
        env=env, capture_output=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr.decode()
    records = json.loads(out.stdout)
    assert records and {r["kind"] for r in records} == {"retry"}

    out = subprocess.run(
        base + ["--type", "retry,lease-expired,poison-cell"],
        env=env, capture_output=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr.decode()
    text = out.stdout.decode()
    assert "showing types" in text
    assert "worker-crash" not in text

    out = subprocess.run(
        base + ["--type", "gremlins"],
        env=env, capture_output=True, timeout=60,
    )
    assert out.returncode == 2
    assert "gremlins" in out.stderr.decode()


@pytest.mark.parametrize("backend", ["multiprocessing", "socket"])
def test_cli_sigterm_drains_and_resume_completes(tmp_path, backend):
    """SIGTERM is the operator's Ctrl-C: graceful drain, checkpoint
    flush, exit 143, and a later --resume lands on the reference bytes.

    The socket row is the satellite contract: a distributed coordinator
    drains its TCP workers exactly like local ones."""
    if os.name != "posix":  # pragma: no cover
        pytest.skip("signal delivery is POSIX-only")
    config_args = [
        "--workloads", "stringsearch",
        "--components", "regfile",
        "--cardinalities", "1",
        "--samples", "40",
        "--seed", "0",
        "--checkpoint-every", "2",
    ]
    store = tmp_path / "store.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parent.parent / "src"
    ) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.core.cli", "run", *config_args,
         "--jobs", "2", "--backend", backend, "--store", str(store),
         "--out", str(tmp_path / "ignored.json")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    time.sleep(2.0)
    proc.terminate()  # SIGTERM to the parent only, like a supervisor would
    proc.wait(timeout=60)
    if proc.returncode == 0:  # pragma: no cover - machine too fast
        pytest.skip("campaign finished before SIGTERM landed")
    assert proc.returncode == 143
    stderr = proc.stderr.read().decode()
    assert "SIGTERM" in stderr

    out = subprocess.run(
        [sys.executable, "-m", "repro.core.cli", "run", *config_args,
         "--jobs", "2", "--backend", backend, "--store", str(store),
         "--resume", "--out", str(tmp_path / "resumed.json")],
        env=env, capture_output=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr.decode()

    reference = subprocess.run(
        [sys.executable, "-m", "repro.core.cli", "run", *config_args,
         "--out", str(tmp_path / "reference.json")],
        env=env, capture_output=True, timeout=300,
    )
    assert reference.returncode == 0, reference.stderr.decode()
    assert (tmp_path / "resumed.json").read_bytes() == \
        (tmp_path / "reference.json").read_bytes()
