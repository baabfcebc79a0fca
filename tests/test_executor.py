"""Backend conformance and unit tests for the executor fabric.

Both :class:`~repro.core.executor.ExecutorBackend` implementations must
be interchangeable under the scheduler: same campaign, same bytes, same
crash containment.  The conformance tests below run each backend through
the scheduler and hold them to the serial reference; a fake backend
whose workers never speak pins the lease as the one watchdog; the unit
tests pin the frame protocol and the deterministic pieces of the
resilience policy.
"""

from __future__ import annotations

import io
import struct
import threading

import pytest

from repro.core import parallel
from repro.core.campaign import CampaignConfig, run_campaign
from repro.core.chaos import ChaosEvent, ChaosSpec
from repro.core.executor import (
    BACKEND_NAMES,
    ExecutorBackend,
    ResiliencePolicy,
    WorkerHandle,
    WorkerSpec,
    create_backend,
)
from repro.core.parallel import run_campaign_parallel
from repro.core.supervisor import IncidentJournal, Supervisor
from repro.core.wire import MAX_FRAME_BYTES, read_frame, write_frame
from repro.cpu.config import DEFAULT_CONFIG
from repro.errors import ConfigError

GRID = CampaignConfig(
    workloads=("crc32",),
    components=("regfile", "itlb"),
    cardinalities=(1, 2),
    samples=2,
    seed=0,
)


@pytest.fixture(scope="module")
def serial_reference():
    return run_campaign(GRID)


# ---------------------------------------------------------------------------
# Conformance: both backends (multiprocessing, socket) produce the
# serial bytes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_backend_matches_serial_byte_identically(backend, serial_reference):
    result = run_campaign_parallel(GRID, jobs=2, backend=backend)
    assert result.to_json() == serial_reference.to_json()


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_backend_contains_worker_crash(backend, serial_reference, tmp_path):
    supervisor = Supervisor(journal=IncidentJournal())
    result = run_campaign_parallel(
        GRID, jobs=2, backend=backend, supervisor=supervisor,
        chaos=ChaosSpec(events=(ChaosEvent(
            "kill", "crc32", "itlb", 2,
            flag=str(tmp_path / f"crashed-{backend}.flag"),
        ),)),
    )
    assert supervisor.incident_count == 1
    kinds = [incident.kind for incident in supervisor.journal.incidents]
    # One counted crash; every cell the dead worker held becomes a
    # bookkeeping retry record (how many it held depends on timing).
    assert kinds[0] == "worker-crash"
    assert set(kinds[1:]) == {"retry"}
    assert result.to_json() == serial_reference.to_json()


# ---------------------------------------------------------------------------
# The lease is the only watchdog: a worker that never says "ready"
# ---------------------------------------------------------------------------


class _SilentHandle(WorkerHandle):
    """A worker that was spawned and then never sends a single message."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.killed = False

    def send(self, batch) -> None:
        pass

    def soft_cancel(self) -> None:
        pass

    def kill(self) -> None:
        self.killed = True

    def alive(self) -> bool:
        return not self.killed

    def exitcode(self) -> int | None:
        return -9 if self.killed else None

    def pid(self) -> int | None:
        return None

    def join(self, timeout: float) -> None:
        pass


class _SilentFirstBackend(ExecutorBackend):
    """The first *silent* spawns never speak; later ones are real
    multiprocessing workers."""

    def __init__(self, spec: WorkerSpec, silent: int) -> None:
        self._real = create_backend("multiprocessing", spec)
        self._silent = silent
        self._next_id = 1000  # disjoint from the real backend's ids
        self.silent_handles: list[_SilentHandle] = []

    def spawn(self) -> WorkerHandle:
        if len(self.silent_handles) < self._silent:
            handle = _SilentHandle(self._next_id)
            self._next_id += 1
            self.silent_handles.append(handle)
            return handle
        return self._real.spawn()

    def recv(self, timeout: float) -> tuple | None:
        return self._real.recv(timeout)

    def close(self) -> None:
        self._real.close()


@pytest.mark.parametrize("silent", [1, 99], ids=["replaced", "degraded"])
def test_silent_worker_is_killed_when_its_lease_expires(
    silent, serial_reference, monkeypatch
):
    """A spawned worker that never sends ``ready`` owes the parent a
    message, so its lease expires: it is killed, counted as a
    ``worker-hang``, and either replaced by a real worker or — when
    every spawn is silent — the pool degrades to serial.  Either way the
    campaign finishes with the serial bytes instead of waiting forever.
    """
    backends: list[_SilentFirstBackend] = []

    def fake_create_backend(name, spec, options=None):
        backend = _SilentFirstBackend(spec, silent)
        backends.append(backend)
        return backend

    monkeypatch.setattr(parallel, "create_backend", fake_create_backend)
    supervisor = Supervisor(journal=IncidentJournal())
    outcome: dict = {}

    def run() -> None:
        try:
            outcome["result"] = run_campaign_parallel(
                GRID, jobs=2, supervisor=supervisor,
                policy=ResiliencePolicy(
                    heartbeat_interval=0.05, lease_floor=2.0,
                    retry_base_delay=0.02, retry_max_delay=0.1,
                ),
            )
        except Exception as exc:  # noqa: BLE001 - reported below
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=180)
    assert not thread.is_alive(), "campaign hung on a silent worker"
    assert "error" not in outcome, outcome.get("error")
    assert outcome["result"].to_json() == serial_reference.to_json()
    silent_handles = backends[0].silent_handles
    assert silent_handles and all(h.killed for h in silent_handles)
    hangs = [
        incident for incident in supervisor.journal.incidents
        if incident.kind == "worker-hang"
    ]
    assert len(hangs) == len(silent_handles)
    assert {h.details["cause"] for h in hangs} == {"lease-expired"}
    if silent == 99:
        kinds = [incident.kind for incident in supervisor.journal.incidents]
        assert "degraded" in kinds


def test_calibrated_lease_does_not_depend_on_samples_per_cell():
    """Heartbeats arrive once per sample, so the lease is sized from the
    predicted wall of ONE sample: 10- and 2,000-sample cells running at
    the same per-sample speed get the same lease."""
    policy = ResiliencePolicy(lease_factor=16.0, lease_floor=1.0)
    golden_cycles, sample_wall = 30_000, 0.4
    leases = []
    for samples in (10, 2000):
        config = CampaignConfig(
            workloads=("crc32",), components=("regfile",),
            cardinalities=(1,), samples=samples, seed=0,
        )
        scheduler = parallel._Scheduler(
            config, DEFAULT_CONFIG, jobs=2, policy=policy,
        )
        scheduler.model.record(
            golden_cycles, samples, samples * sample_wall
        )
        scheduler._grant_lease(0, golden_cycles, now=0.0)
        leases.append(scheduler.leases[0])
    assert leases[0] == leases[1] == pytest.approx(16.0 * sample_wall)
    # Uncalibrated, or no cell yet: the floor.
    assert policy.lease(None) == policy.lease_floor


def test_create_backend_rejects_unknown_name():
    spec = WorkerSpec(
        config=GRID, core_cfg=None, supervised=False, strict=False,
        watchdog=False, checkpoint_every=None, telemetry_enabled=False,
        verify=False,
    )
    with pytest.raises(ValueError, match="unknown executor backend"):
        create_backend("carrier-pigeon", spec)


# ---------------------------------------------------------------------------
# Frame protocol
# ---------------------------------------------------------------------------


def test_frame_roundtrip_preserves_messages():
    stream = io.BytesIO()
    messages = [
        ("ready", 3),
        ("heartbeat", 0, 7),
        ("cell", 1, 4, {"counts": [1, 2, 3]}, 0.25),
        ("bye", 2),
    ]
    for message in messages:
        write_frame(stream, message)
    stream.seek(0)
    assert [read_frame(stream) for _ in messages] == messages
    assert read_frame(stream) is None  # clean EOF


def test_torn_frame_reads_as_eof():
    stream = io.BytesIO()
    write_frame(stream, ("cell", 0, 0, {"x": 1}, 0.0))
    torn = stream.getvalue()[:-3]  # kill mid-payload
    assert read_frame(io.BytesIO(torn)) is None
    # Torn mid-header is EOF too, not a struct error.
    assert read_frame(io.BytesIO(torn[:2])) is None


def test_absurd_frame_length_reads_as_eof():
    header = struct.pack(">I", MAX_FRAME_BYTES + 1)
    assert read_frame(io.BytesIO(header + b"x" * 64)) is None


def test_garbage_payload_reads_as_eof():
    payload = b"not a pickle"
    stream = io.BytesIO(struct.pack(">I", len(payload)) + payload)
    assert read_frame(stream) is None


# ---------------------------------------------------------------------------
# Resilience policy units
# ---------------------------------------------------------------------------


def test_backoff_is_deterministic_per_cell_and_attempt():
    policy = ResiliencePolicy()
    first = policy.backoff("crc32/regfile/1", 1)
    assert first == policy.backoff("crc32/regfile/1", 1)
    # Different cells jitter differently (with overwhelming probability
    # over the cells used here), but stay within the jitter envelope.
    for attempt in (1, 2, 3):
        for key in ("crc32/regfile/1", "crc32/itlb/2", "stringsearch/l1d/4"):
            delay = policy.backoff(key, attempt)
            base = min(
                policy.retry_max_delay,
                policy.retry_base_delay * 2 ** (attempt - 1),
            )
            assert base <= delay <= base * (1 + policy.retry_jitter)


def test_backoff_grows_then_caps():
    policy = ResiliencePolicy(
        retry_base_delay=1.0, retry_max_delay=4.0, retry_jitter=0.0
    )
    delays = [policy.backoff("cell", attempt) for attempt in range(1, 6)]
    assert delays == [1.0, 2.0, 4.0, 4.0, 4.0]


def test_policy_defaults_validate():
    ResiliencePolicy().validate()


@pytest.mark.parametrize("overrides,fragment", [
    ({"heartbeat_interval": 0.0}, "heartbeat_interval"),
    ({"lease_factor": -1.0}, "lease_factor"),
    ({"lease_floor": 0.0}, "lease_floor"),
    ({"max_attempts": 0}, "max_attempts"),
    ({"retry_jitter": -0.1}, "retry_jitter"),
    ({"retry_base_delay": 5.0, "retry_max_delay": 1.0}, "retry_max_delay"),
    ({"heartbeat_interval": 1.0, "lease_floor": 1.0},
     "heartbeat_interval"),
])
def test_policy_validate_rejects_bad_knobs(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        ResiliencePolicy(**overrides).validate()
