"""The two-phase RMW barrier fixpoint converges by construction.

``repro.sim.kernel._solve_two_phase`` iterates sub-stripe RAID-5 writes
(pre reads barriering post writes) to their exact fixpoint with no pass
cap: each pass's causal frontier — the earliest post arrival it changed
— must strictly advance, and every flight dispatched before it is final.
These tests pin that contract on the cells of the mixed-write
convergence matrix that once needed more than 32 passes, and on random
mixed-write traces.
"""

import dataclasses
import json
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.kernel as kernel
from repro.config import ReplayConfig
from repro.replay.session import replay_trace
from repro.sim.kernel import RMWFrontierError, _advance_frontier
from repro.storage.array import DiskArray, build_hdd_raid5
from repro.storage.hdd import HardDiskDrive
from repro.storage.raid import RaidLevel
from repro.storage.specs import SEAGATE_7200_12
from repro.trace.packed import PACKED_PACKAGE_DTYPE, PackedTrace
from repro.workload.parallel import run_grid

#: Declines the closed form keeps by design: arrival or completion ties
#: the event calendar breaks by schedule sequence numbers.
_DESIGNED = {"tied sub-I/O arrival times", "tied flight completion times"}


@pytest.fixture(autouse=True)
def _telemetry_off():
    """The kernel defers to the event engine while the telemetry
    registry is on; these tests are about the kernel, so keep it off
    even under a process-wide ``TRACER_TELEMETRY=1`` run."""
    from repro.telemetry import get_registry, set_enabled

    prior = get_registry().enabled
    set_enabled(False)
    yield
    set_enabled(prior)


def _mixed_trace(n_bunches: int, read_pct: int, seed: int) -> PackedTrace:
    """The convergence matrix's trace: three 64 KiB packages per bunch
    over a 2 GiB span, exponential gaps with mean 4 ms."""
    rng = np.random.default_rng(seed)
    offsets = np.arange(0, 3 * n_bunches + 1, 3, dtype=np.int64)
    packages = np.empty(3 * n_bunches, dtype=PACKED_PACKAGE_DTYPE)
    packages["sector"] = rng.integers(0, 1 << 22, packages.size)
    packages["nbytes"] = 65536
    packages["op"] = (rng.random(packages.size) * 100 >= read_pct).astype(np.int64)
    timestamps = np.cumsum(rng.exponential(0.004, n_bunches))
    return PackedTrace(timestamps, offsets, packages, label=f"mixed{read_pct}")


def _canon(result) -> str:
    payload = result.to_dict()
    payload["metadata"] = {
        k: v for k, v in payload["metadata"].items() if not k.startswith("engine")
    }
    return json.dumps(payload, sort_keys=True)


class _FrontierLog:
    """Wraps :func:`_advance_frontier` and keeps every pass's frontiers."""

    def __init__(self, monkeypatch):
        self.passes = []
        monkeypatch.setattr(kernel, "_advance_frontier", self)

    def __call__(self, prev, moved, old, new):
        front = _advance_frontier(prev, moved, old, new)
        self.passes.append((prev.copy(), front.copy()))
        return front


def test_stalled_frontier_raises():
    prev = np.array([1.0, 2.0])
    moved = np.array([[True, False], [False, False]])
    old = np.array([[0.75, 3.0], [2.5, 4.0]])
    new = np.array([[1.5, 3.0], [2.5, 4.0]])
    with pytest.raises(RMWFrontierError, match="row 0"):
        _advance_frontier(prev, moved, old, new)
    old[0, 0] = 1.25
    assert _advance_frontier(prev, moved, old, new).tolist() == [1.25, np.inf]


@pytest.mark.parametrize("load, scale", [(1.0, 0.5), (0.5, 0.8387)])
def test_formerly_stuck_cells_take_the_kernel(monkeypatch, load, scale):
    """The 5k-bunch, 60%-read, seed-12 trace on ``hdd-raid5x6``: these
    cells need more than 32 passes, which once sent them to the event
    engine.  They now fuse and match it bit for bit."""
    trace = _mixed_trace(5000, 60, seed=12)
    config = ReplayConfig(time_scale=scale)
    log = _FrontierLog(monkeypatch)
    fused = replay_trace(trace, build_hdd_raid5(6), load, config=config)
    assert fused.metadata["engine"] == "kernel"
    assert "engine_fallback" not in fused.metadata
    assert len(log.passes) > 32
    assert np.isinf(log.passes[-1][1]).all()
    event = replay_trace(
        trace, build_hdd_raid5(6), load, config=config, engine="event"
    )
    assert _canon(fused) == _canon(event)


def test_formerly_stuck_grid_cells_fuse():
    """A 2k-bunch stand-in whose load-0.5 cells at these scales need more
    than 32 passes: ``run_grid`` fuses all of them, each bit-identical
    to a per-point event replay."""
    trace = _mixed_trace(2000, 60, seed=12)
    scales = (0.7903, 0.8387, 0.8871)
    outcome = run_grid(
        {"t": trace}, {"d": partial(build_hdd_raid5, 6)},
        loads=(0.5,), time_scales=scales, parallel=False,
    )
    assert outcome.fused_cells == len(scales)
    assert outcome.fallback_reasons == {}
    for cell, scale in zip(outcome.cells, scales):
        event = replay_trace(
            trace, build_hdd_raid5(6), 0.5,
            config=ReplayConfig(time_scale=scale), engine="event",
        )
        assert _canon(cell.result) == _canon(event), cell.key


def _small_raid5(n_disks: int) -> DiskArray:
    spec = dataclasses.replace(SEAGATE_7200_12, capacity_bytes=64 * 1024 * 1024)
    return DiskArray(
        [HardDiskDrive(f"r{i}", spec) for i in range(n_disks)],
        RaidLevel.RAID5,
        name="rmw-raid5",
    )


@st.composite
def _rmw_cases(draw):
    n_bunches = draw(st.integers(min_value=4, max_value=200))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 5, n_bunches)
    offsets = np.zeros(n_bunches + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    packages = np.empty(int(offsets[-1]), dtype=PACKED_PACKAGE_DTYPE)
    packages["sector"] = rng.integers(0, 1 << 16, packages.size)
    packages["nbytes"] = rng.integers(1, 129, packages.size) * 512
    write_pct = draw(st.integers(min_value=10, max_value=100))
    packages["op"] = (rng.random(packages.size) * 100 < write_pct).astype(np.int64)
    gap = draw(st.sampled_from([2e-4, 1e-3, 4e-3]))
    timestamps = np.cumsum(rng.exponential(gap, n_bunches))
    trace = PackedTrace(timestamps, offsets, packages, label="rmw-random")
    n_disks = draw(st.integers(min_value=4, max_value=6))
    load = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    scale = draw(st.floats(min_value=0.25, max_value=2.0))
    return trace, n_disks, load, scale


@given(_rmw_cases())
@settings(max_examples=40, deadline=None)
def test_random_mixed_writes_converge_bit_identical(case):
    """No RMW replay declines for want of convergence: the kernel takes
    every cell (or a designed tie decline), matches the event engine bit
    for bit, and its frontier strictly advanced on every pass until
    every row converged."""
    trace, n_disks, load, scale = case
    config = ReplayConfig(time_scale=scale)
    with pytest.MonkeyPatch.context() as monkeypatch:
        log = _FrontierLog(monkeypatch)
        auto = replay_trace(trace, _small_raid5(n_disks), load, config=config)
    event = replay_trace(
        trace, _small_raid5(n_disks), load, config=config, engine="event"
    )
    if auto.metadata["engine"] != "kernel":
        assert auto.metadata["engine_fallback"] in _DESIGNED
    assert _canon(auto) == _canon(event)
    for prev, front in log.passes:
        assert (front > prev).all()
    if log.passes:
        assert np.isinf(log.passes[-1][1]).all()
