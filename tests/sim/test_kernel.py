"""Analytical replay kernel: solvers, qualification, end-state parity.

The differential oracle (`tests/property/test_differential_oracle.py`)
proves result-level bit-identity against the event engine; these tests
pin the kernel's internals — the exact Lindley / link-chain solvers
against their scalar references, the fallback reasons `auto` records,
and the committed *device* end state (timelines, cursors, counters),
which the result JSON alone cannot see.
"""

import dataclasses

import numpy as np
import pytest

from repro.replay.session import replay_trace
from repro.sim.kernel import _solve_lindley, _solve_link_chain
from repro.storage.array import DiskArray
from repro.storage.hdd import HardDiskDrive
from repro.storage.raid import RaidLevel
from repro.storage.specs import SEAGATE_7200_12
from repro.storage.ssd import SolidStateDrive
from repro.trace.packed import PACKED_PACKAGE_DTYPE, PackedTrace, pack
from repro.trace.record import READ, WRITE, Bunch, IOPackage, Trace

from .oracles import chain_scalar, lindley_scalar

_NEG_INF = float("-inf")


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Force the construction-time telemetry gate off for this suite.

    The kernel defers to the event engine whenever instrumentation is
    on (instrumentation counts events), so forced ``engine="kernel"``
    runs here must build their sessions with the registry disabled even
    under a process-wide ``TRACER_TELEMETRY=1`` test run.
    """
    from repro.telemetry import get_registry, set_enabled

    prior = get_registry().enabled
    set_enabled(False)
    yield
    set_enabled(prior)


# ---------------------------------------------------------------------------
# Exact solvers vs their scalar references


def _regimes(rng, n):
    """Arrival patterns spanning idle, saturated, and bursty service."""
    submit = np.sort(rng.random(n) * 10.0)
    yield submit, rng.random(n) * 0.01          # mostly idle
    yield submit, rng.random(n) * 10.0          # fully busy
    yield submit, rng.random(n) * 0.5           # mixed
    burst = np.repeat(np.arange(n // 4 + 1) * 3.0, 4)[:n]
    yield burst, rng.random(n) * 0.4            # tied submits, idle gaps


class TestLindleySolver:
    @pytest.mark.parametrize("seed", [1, 7, 19, 83])
    @pytest.mark.parametrize("prev", [_NEG_INF, 2.5])
    def test_bit_identical_to_scalar_reference(self, seed, prev):
        rng = np.random.default_rng(seed)
        for submit, sv in _regimes(rng, 257):
            expect = lindley_scalar(submit, sv, prev)
            got = _solve_lindley(submit, sv, prev)
            assert np.array_equal(got, expect)

    def test_empty_and_singleton(self):
        empty = np.empty(0, dtype=np.float64)
        assert _solve_lindley(empty, empty).size == 0
        one_t = np.array([3.0])
        one_s = np.array([0.25])
        assert np.array_equal(
            _solve_lindley(one_t, one_s, 5.0),
            lindley_scalar(one_t, one_s, 5.0),
        )


class TestLinkChainSolver:
    @pytest.mark.parametrize("seed", [2, 11, 31])
    @pytest.mark.parametrize("prev", [_NEG_INF, 1.0])
    def test_bit_identical_to_scalar_reference(self, seed, prev):
        rng = np.random.default_rng(seed)
        c = 5e-5
        for t, p in _regimes(rng, 193):
            ed, el = chain_scalar(t, c, p * 1e-3, prev)
            gd, gl = _solve_link_chain(t, c, p * 1e-3, prev)
            assert np.array_equal(gd, ed)
            assert np.array_equal(gl, el)


# ---------------------------------------------------------------------------
# Qualification and fallback reasons


def _grid_trace(n=24, op=READ, fan=2):
    bunches = [
        Bunch(
            i / 32,
            [IOPackage(64 * (i * fan + j), 4096, op) for j in range(fan)],
        )
        for i in range(n)
    ]
    return Trace(bunches, label="kernel-unit")


def _hdd():
    spec = dataclasses.replace(SEAGATE_7200_12, capacity_bytes=16 * 1024 * 1024)
    return HardDiskDrive("k-hdd", spec)


def _ssd():
    return SolidStateDrive("k-ssd")


def _raid5():
    spec = dataclasses.replace(SEAGATE_7200_12, capacity_bytes=16 * 1024 * 1024)
    return DiskArray(
        [HardDiskDrive(f"k{i}", spec) for i in range(4)],
        RaidLevel.RAID5,
        name="k-raid5",
    )


class TestFallbackReasons:
    def test_object_trace_stays_event_driven(self):
        result = replay_trace(_grid_trace(), _hdd(), 1.0, engine="auto")
        assert result.metadata["engine"] == "event"
        assert "engine_fallback" in result.metadata

    def test_telemetry_blocks_the_kernel(self):
        from repro.telemetry import enabled_telemetry

        with enabled_telemetry():
            result = replay_trace(
                pack(_grid_trace()), _hdd(), 1.0, engine="auto"
            )
        assert result.metadata["engine"] == "event"
        assert "telemetry" in result.metadata["engine_fallback"]

    def test_faults_block_the_kernel(self):
        from repro.errors import ReplayError
        from repro.faults.schedule import FaultSchedule

        schedule = FaultSchedule.generate(
            3, duration=1.0, n_members=4, sector_error_count=1
        )
        with pytest.raises(ReplayError, match="does not qualify"):
            replay_trace(
                pack(_grid_trace()), _raid5(), 1.0,
                engine="kernel", faults=schedule,
            )

    def test_raid5_writes_take_the_kernel(self):
        result = replay_trace(
            pack(_grid_trace(op=WRITE)), _raid5(), 1.0, engine="auto"
        )
        assert result.metadata["engine"] == "kernel"
        assert "engine_fallback" not in result.metadata

    def test_degraded_raid5_reports_the_structural_reason(self):
        """Satellite: qualification checks run in a documented order —
        array-level structure before member probes — so a degraded
        RAID-5 with a *non-write* trace still names the degradation, not
        whichever member check happens to fire."""
        from repro.sim.kernel import _qualify_device

        device = _raid5()
        device.fail_disk(0)
        result = replay_trace(
            pack(_grid_trace(op=READ)), device, 1.0, engine="auto"
        )
        assert result.metadata["engine"] == "event"
        assert (
            result.metadata["engine_fallback"] == "array degraded or rebuilding"
        )
        # With a member perturbed *too*, the array-level reason wins —
        # structure is checked before any member probe.
        device.disks[2]._busy = True
        assert (
            _qualify_device(device)
            == "array degraded or rebuilding"
        )

    def test_member_reasons_report_in_disk_index_order(self):
        from repro.sim.kernel import _qualify_device

        device = _raid5()
        device.disks[1]._busy = True
        device.disks[3]._busy = True
        reason = _qualify_device(device)
        assert reason == "k1: device busy at replay start"

    def test_unsorted_timestamps_fall_back(self):
        packed = pack(_grid_trace())
        ts = packed.timestamps.copy()
        ts[2], ts[3] = ts[3], ts[2]
        shuffled = PackedTrace(
            ts, packed.offsets, packed.packages, label="x", validate=False
        )
        result = replay_trace(shuffled, _hdd(), 1.0, engine="auto")
        assert result.metadata["engine"] == "event"

    def test_kernel_runs_qualifying_cells(self):
        for factory in (_hdd, _ssd, _raid5):
            result = replay_trace(
                pack(_grid_trace()), factory(), 1.0, engine="kernel"
            )
            assert result.metadata["engine"] == "kernel"
            assert result.completed == 48

    def test_engine_validated_at_config(self):
        from repro.config import ReplayConfig

        with pytest.raises(Exception):
            ReplayConfig(engine="warp")


# ---------------------------------------------------------------------------
# Committed device end state: kernel ≡ event beyond the result JSON


def _queued_state(dev):
    state = {
        "completed": dev.completed_count,
        "high_water": dev.queued_high_water,
        "pushed": dev._queue.pushed_total,
        "popped": dev._queue.popped_total,
        "timeline": (
            list(dev.timeline._starts),
            list(dev.timeline._ends),
            list(dev.timeline._watts),
        ),
    }
    if isinstance(dev, HardDiskDrive):
        state["cursors"] = (
            dev._head_sector, dev._last_end_sector, dev._last_op,
            dev.seek_count,
        )
    else:
        state["cursors"] = (
            dev._last_read_end, dev._last_write_end, dev.random_write_count,
        )
    return state


def _end_state(dev):
    if isinstance(dev, DiskArray):
        return {
            "completed": dev.completed_count,
            "subios": dev.subio_count,
            "link_busy": dev._link_busy_until,
            "members": [_queued_state(m) for m in dev.disks],
        }
    return _queued_state(dev)


class TestDeviceEndStateParity:
    @pytest.mark.parametrize("factory", [_hdd, _ssd, _raid5])
    def test_end_state_bit_identical(self, factory):
        packed = pack(_grid_trace(n=40, fan=3))

        def run(engine):
            dev = factory()
            replay_trace(packed, dev, 1.0, engine=engine)
            return _end_state(dev)

        assert run("kernel") == run("event")

    @pytest.mark.parametrize("op", [WRITE, None])
    def test_raid5_write_end_state_bit_identical(self, op):
        """Two-phase RMW commits: member cursors, seek counts, queue
        counters, and power segments all match the event path exactly
        (``op=None`` interleaves reads and writes)."""
        if op is None:
            bunches = [
                Bunch(
                    i / 32,
                    [
                        IOPackage(
                            64 * (i * 3 + j), 4096,
                            WRITE if (i + j) % 2 else READ,
                        )
                        for j in range(3)
                    ],
                )
                for i in range(40)
            ]
            packed = pack(Trace(bunches, label="kernel-unit"))
        else:
            packed = pack(_grid_trace(n=40, op=op, fan=3))

        def run(engine):
            dev = _raid5()
            replay_trace(packed, dev, 1.0, engine=engine)
            return _end_state(dev)

        assert run("kernel") == run("event")


# ---------------------------------------------------------------------------
# One decline order: point replay and the grid report the same reason


def _raid1():
    spec = dataclasses.replace(SEAGATE_7200_12, capacity_bytes=16 * 1024 * 1024)
    return DiskArray(
        [HardDiskDrive(f"m{i}", spec) for i in range(2)],
        RaidLevel.RAID1,
        name="k-raid1",
    )


def _degraded_raid5():
    device = _raid5()
    device.fail_disk(0)
    return device


def _busy_member_raid5():
    device = _raid5()
    device.disks[1]._busy = True
    return device


def _jittery_hdd():
    spec = dataclasses.replace(SEAGATE_7200_12, capacity_bytes=16 * 1024 * 1024)
    return HardDiskDrive("k-hdd", spec, rotational_jitter=True, seed=3)


def _elevator_hdd():
    from repro.storage.queueing import ElevatorQueue

    spec = dataclasses.replace(SEAGATE_7200_12, capacity_bytes=16 * 1024 * 1024)
    return HardDiskDrive("k-hdd", spec, discipline=ElevatorQueue())


def _beyond_capacity_trace():
    far = _hdd().capacity_sectors
    bunches = [
        Bunch(i / 32, [IOPackage(far - 4 if i == 5 else 64 * i, 4096, READ)])
        for i in range(12)
    ]
    return pack(Trace(bunches, label="kernel-unit"))


def _unsorted_trace():
    packed = pack(_grid_trace())
    ts = packed.timestamps.copy()
    ts[2], ts[3] = ts[3], ts[2]
    return PackedTrace(ts, packed.offsets, packed.packages, label="x", validate=False)


DECLINES = {
    "object-trace": (_grid_trace, _hdd, False),
    "object-trace-telemetry": (_grid_trace, _hdd, True),
    "telemetry": (lambda: pack(_grid_trace()), _hdd, True),
    "degraded-raid5": (lambda: pack(_grid_trace()), _degraded_raid5, False),
    "raid1": (lambda: pack(_grid_trace()), _raid1, False),
    "jittery-hdd": (lambda: pack(_grid_trace()), _jittery_hdd, False),
    "busy-member": (lambda: pack(_grid_trace()), _busy_member_raid5, False),
    "non-fifo-queue": (lambda: pack(_grid_trace()), _elevator_hdd, False),
    "beyond-capacity": (_beyond_capacity_trace, _hdd, False),
    "unsorted-timestamps": (_unsorted_trace, _hdd, False),
}


@pytest.mark.parametrize("case", sorted(DECLINES))
def test_point_and_grid_decline_with_one_reason(case):
    """Every designed decline reads the same from point replay and from
    a one-cell grid: one qualification function, one decline order."""
    from repro.sim.engine import Simulator
    from repro.sim.grid import GridCell, evaluate_grid_cells
    from repro.sim.kernel import try_kernel_replay
    from repro.telemetry import set_enabled

    trace_fn, factory, telemetry = DECLINES[case]
    set_enabled(telemetry)
    outcome, point = try_kernel_replay(
        Simulator(), trace_fn(), factory(), sampling_cycle=1.0
    )
    grid = evaluate_grid_cells(trace_fn(), factory(), [GridCell(1.0, 1.0)])
    assert outcome is None and point is not None
    assert grid[0].result is None
    assert point == grid[0].unfused


# ---------------------------------------------------------------------------
# Warm devices: a second replay on state an earlier run left behind


def _mixed_write_trace(n, *, t0=0.0):
    bunches = [
        Bunch(
            t0 + i / 32,
            [
                IOPackage(64 * (i * 3 + j), 4096, WRITE if (i + j) % 2 else READ)
                for j in range(3)
            ],
        )
        for i in range(n)
    ]
    return pack(Trace(bunches, label="kernel-warm"))


def _capture_key(capture):
    return (
        capture.end,
        capture.finishes.tolist(),
        capture.responses.tolist(),
        [
            (m.name, m.starts.tolist(), m.ends.tolist(), m.watts.tolist(),
             m.base_watts)
            for m in capture.members
        ],
        capture.overhead_watts,
        capture.reads, capture.writes, capture.read_bytes, capture.write_bytes,
    )


def _result_key(result):
    payload = result.to_dict()
    payload["metadata"] = {
        k: v for k, v in payload["metadata"].items() if not k.startswith("engine")
    }
    return payload


class TestWarmDeviceParity:
    @pytest.mark.parametrize("factory", [_hdd, _ssd, _raid5])
    def test_second_run_on_a_warm_device(self, factory):
        """Point replay is the only closed-form path that starts from
        state an earlier run left: prior timeline segments, a busy link
        (``_link_busy_until``) and warm head / stream cursors.  A write
        run followed by a read run at load 0.7 on the same device and
        simulator must match the event engine in both results, both
        captures and the device end state."""
        from repro.replay.capture import CaptureSink
        from repro.replay.session import ReplaySession
        from repro.sim.engine import Simulator

        writes = _mixed_write_trace(40)
        reads = pack(_grid_trace(n=40, fan=3))

        def run(engine):
            dev = factory()
            sim = Simulator()
            keys = []
            for trace, load in ((writes, 1.0), (reads, 0.7)):
                sink = CaptureSink()
                result = ReplaySession(dev, engine=engine, capture=sink).run(
                    trace, load, sim=sim
                )
                assert result.metadata["engine"] == engine
                keys.append((_result_key(result), _capture_key(sink.capture)))
            return keys, _end_state(dev)

        assert run("kernel") == run("event")
