"""Grid-fused sweeps: batched solvers, per-cell bit-identity, fallback
parity.

The contract under test: every cell of a :func:`repro.workload.parallel
.run_grid` sweep is *bit-identical* to a hand-rolled per-point
:func:`~repro.replay.session.replay_trace` loop — fused cells against
forced ``engine="kernel"`` replay, declined cells against the same
``engine`` setting the grid was given (so fallback metadata matches a
serial sweep exactly).  The restart-mask solvers are additionally pinned,
as one flattened call over a stack of rows, against their per-row and
scalar references, including rows forced down the general path.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ReplayConfig
from repro.errors import ReplayError
from repro.replay.session import replay_trace
from repro.sim import grid as grid_mod
from repro.sim import kernel
from repro.sim.kernel import _row_restarts, _solve_lindley, _solve_link_chain
from repro.storage.array import DiskArray
from repro.storage.hdd import HardDiskDrive
from repro.storage.raid import RaidLevel
from repro.storage.specs import SEAGATE_7200_12
from repro.storage.ssd import SolidStateDrive
from repro.trace.packed import pack
from repro.trace.record import READ, WRITE, Bunch, IOPackage, Trace
from repro.workload.parallel import run_grid

from .oracles import chain_scalar, lindley_scalar

_NEG_INF = float("-inf")


@pytest.fixture(autouse=True)
def _telemetry_off():
    """The fused path declines whole planes whenever instrumentation is
    on; run this suite with the registry forced off so fusion happens
    even under a process-wide ``TRACER_TELEMETRY=1`` run."""
    from repro.telemetry import get_registry, set_enabled

    prior = get_registry().enabled
    set_enabled(False)
    yield
    set_enabled(prior)


# ---------------------------------------------------------------------------
# Restart-mask solvers: one flattened call vs per-row and scalar references


def _row_matrix(rng, n, n_rows):
    """(P, n) submit stacks with their service times, spanning idle,
    busy, mixed and tied regimes — time-scaled copies of one arrival
    pattern, every row restarting near t = 0, exactly the shape the grid
    feeds the solvers.  Service is one shared vector (single-phase
    members) or, last, one row per cell (the RMW fixpoint's per-order
    plans)."""
    base = np.sort(rng.random(n) * 10.0)
    base -= base[0] - 1e-3 * rng.random()
    scales = 0.25 + 2.0 * rng.random(n_rows)
    yield np.outer(scales, base), rng.random(n) * 0.01   # mostly idle rows
    yield np.outer(scales, base), rng.random(n) * 10.0   # fully busy rows
    yield np.outer(scales, base), rng.random(n) * 0.5    # mixed / general
    burst = np.repeat(np.arange(n // 4 + 1) * 3.0, 4)[:n]
    yield np.outer(scales, burst), rng.random(n) * 0.4   # tied submits
    yield np.outer(scales, base), rng.random((n_rows, n)) * 0.3  # per-row


def _flat(submit2d, sv):
    n_rows, n = submit2d.shape
    sv2d = np.broadcast_to(sv, submit2d.shape)
    return submit2d.ravel(), np.ascontiguousarray(sv2d).ravel(), sv2d, (
        _row_restarts(n_rows, n)
    )


@pytest.fixture
def scalar_calls(monkeypatch):
    """Record every call that reaches a solver's scalar fallback."""
    calls = []
    real = kernel._recurrence_scalar

    def counted(*args):
        calls.append("_recurrence_scalar")
        return real(*args)

    monkeypatch.setattr(kernel, "_recurrence_scalar", counted)
    return calls


class TestGridLindleySolver:
    @pytest.mark.parametrize("seed", [3, 17, 59])
    @pytest.mark.parametrize("prev", [_NEG_INF, 2.5])
    def test_rows_bit_identical_to_1d_solver(self, seed, prev, scalar_calls):
        rng = np.random.default_rng(seed)
        for submit2d, sv in _row_matrix(rng, 193, 9):
            submit, sv_flat, sv2d, restart = _flat(submit2d, sv)
            got = _solve_lindley(submit, sv_flat, prev, restart)
            assert np.array_equal(
                got, lindley_scalar(submit, sv_flat, prev, restart)
            )
            got = got.reshape(submit2d.shape)
            for i in range(submit2d.shape[0]):
                expect = lindley_scalar(submit2d[i], sv2d[i], prev)
                assert np.array_equal(got[i], expect), f"row {i}"
                assert np.array_equal(
                    _solve_lindley(submit2d[i], sv2d[i], prev), expect
                ), f"row {i}"
        assert scalar_calls == []

    def test_general_path_rows(self, scalar_calls):
        """Rows engineered to defeat both fast paths (idle gap in the
        middle, saturation elsewhere) must still match bit for bit —
        this exercises per-chain head guesses and refinement."""
        rng = np.random.default_rng(41)
        n = 128
        submit2d = np.cumsum(rng.random((7, n)) * 0.2, axis=1)
        submit2d[:, n // 2:] += 50.0  # idle restart mid-trace on every row
        sv = rng.random(n) * 0.3
        submit, sv_flat, _, restart = _flat(submit2d, sv)
        got = _solve_lindley(submit, sv_flat, 0.0, restart).reshape(7, n)
        for i in range(7):
            assert np.array_equal(
                got[i], lindley_scalar(submit2d[i], sv, 0.0)
            )
        assert scalar_calls == []

    def test_degenerate_shapes(self):
        empty = np.empty(0, dtype=np.float64)
        assert _solve_lindley(empty, empty, restart=_row_restarts(3, 0)).size == 0
        one = np.array([2.0, 0.5])
        got = _solve_lindley(one, np.array([0.25, 0.25]), 1.0, _row_restarts(2, 1))
        for i in range(2):
            assert np.array_equal(
                got[i:i + 1], _solve_lindley(one[i:i + 1], np.array([0.25]), 1.0)
            )

    @given(
        lens=st.lists(st.integers(1, 40), min_size=1, max_size=8),
        load=st.sampled_from([0.01, 0.3, 1.0, 30.0]),
        prev=st.sampled_from([_NEG_INF, 0.0, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_uneven_chains_property(self, lens, load, prev, seed):
        """Chains of any lengths, restarting at arbitrary positions, match
        the scalar reference chain by chain."""
        rng = np.random.default_rng(seed)
        submit = np.concatenate(
            [np.sort(rng.random(m) * m * 0.1) for m in lens]
        )
        sv = rng.random(submit.size) * load * 0.1
        restart = np.zeros(submit.size, dtype=bool)
        restart[np.cumsum([0] + lens[:-1])] = True
        got = _solve_lindley(submit, sv, prev, restart)
        at = 0
        for m in lens:
            expect = lindley_scalar(submit[at:at + m], sv[at:at + m], prev)
            assert np.array_equal(got[at:at + m], expect)
            at += m


class TestGridLinkChainSolver:
    @pytest.mark.parametrize("seed", [5, 23])
    @pytest.mark.parametrize("prev", [_NEG_INF, 1.0])
    def test_rows_bit_identical_to_1d_solver(self, seed, prev, scalar_calls):
        rng = np.random.default_rng(seed)
        c = 5e-5
        for t2d, p in _row_matrix(rng, 161, 8):
            t, p_flat, p2d, restart = _flat(t2d, p * 1e-3)
            gd, gl = _solve_link_chain(t, c, p_flat, prev, restart)
            sd, sl = chain_scalar(t, c, p_flat, prev, restart)
            assert np.array_equal(gd, sd)
            assert np.array_equal(gl, sl)
            gd, gl = gd.reshape(t2d.shape), gl.reshape(t2d.shape)
            for i in range(t2d.shape[0]):
                ed, el = chain_scalar(t2d[i], c, p2d[i], prev)
                assert np.array_equal(gd[i], ed), f"row {i}"
                assert np.array_equal(gl[i], el), f"row {i}"
                rd, rl = _solve_link_chain(t2d[i], c, p2d[i], prev)
                assert np.array_equal(rd, ed), f"row {i}"
                assert np.array_equal(rl, el), f"row {i}"
        assert scalar_calls == []

    def test_general_path_rows(self, scalar_calls):
        rng = np.random.default_rng(43)
        n = 96
        t2d = np.cumsum(rng.random((6, n)) * 1e-4, axis=1)
        t2d[:, n // 3:] += 2.0
        t2d[:, 2 * n // 3:] += 2.0
        p = rng.random(n) * 1e-3
        t, p_flat, _, restart = _flat(t2d, p)
        gd, gl = _solve_link_chain(t, 5e-5, p_flat, 0.0, restart)
        gd, gl = gd.reshape(6, n), gl.reshape(6, n)
        for i in range(6):
            ed, el = chain_scalar(t2d[i], 5e-5, p, 0.0)
            assert np.array_equal(gd[i], ed)
            assert np.array_equal(gl[i], el)
        assert scalar_calls == []


# ---------------------------------------------------------------------------
# Grid cells vs per-point replay


def _mixed_trace(n=48, fan=2, write_every=3):
    """Packed trace with interleaved reads and writes (RAID-0-safe)."""
    bunches = []
    for i in range(n):
        op = WRITE if i % write_every == 0 else READ
        bunches.append(
            Bunch(
                i / 40,
                [IOPackage(64 * (i * fan + j), 4096, op) for j in range(fan)],
            )
        )
    return pack(Trace(bunches, label="grid-mixed"))


def _read_trace(n=48, fan=2):
    return pack(
        Trace(
            [
                Bunch(
                    i / 40,
                    [
                        IOPackage(64 * (i * fan + j), 4096, READ)
                        for j in range(fan)
                    ],
                )
                for i in range(n)
            ],
            label="grid-read",
        )
    )


def _small_spec():
    return dataclasses.replace(
        SEAGATE_7200_12, capacity_bytes=16 * 1024 * 1024
    )


def _hdd():
    return HardDiskDrive("g-hdd", _small_spec())


def _ssd():
    return SolidStateDrive("g-ssd")


def _raid5():
    return DiskArray(
        [HardDiskDrive(f"g{i}", _small_spec()) for i in range(4)],
        RaidLevel.RAID5,
        name="g-raid5",
    )


def _raid0():
    return DiskArray(
        [HardDiskDrive(f"g{i}", _small_spec()) for i in range(4)],
        RaidLevel.RAID0,
        name="g-raid0",
    )


def _canon(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def _canon_engine_neutral(result) -> str:
    payload = result.to_dict()
    payload["metadata"] = {
        k: v
        for k, v in payload["metadata"].items()
        if not k.startswith("engine")
    }
    return json.dumps(payload, sort_keys=True)


LOADS = (0.5, 1.0)
SCALES = (1.0, 1.75)


class TestGridVsPerPointKernel:
    @pytest.mark.parametrize("factory", [_hdd, _ssd, _raid0, _raid5])
    def test_full_json_bit_identity(self, factory):
        trace = _read_trace()
        outcome = run_grid(
            {"t": trace}, {"d": factory}, loads=LOADS, time_scales=SCALES,
            engine="kernel", parallel=False,
        )
        assert outcome.fused_cells == len(outcome.cells) == 4
        for cell in outcome.cells:
            serial = replay_trace(
                trace, factory(), cell.load,
                config=ReplayConfig(time_scale=cell.time_scale),
                engine="kernel",
            )
            assert _canon(cell.result) == _canon(serial), cell.key

    @pytest.mark.parametrize("factory", [_raid0, _raid5])
    def test_mixed_ops_fuse(self, factory):
        trace = _mixed_trace()
        outcome = run_grid(
            {"t": trace}, {"d": factory}, loads=LOADS, time_scales=SCALES,
            engine="kernel", parallel=False,
        )
        assert outcome.fused_cells == 4
        for cell in outcome.cells:
            serial = replay_trace(
                trace, factory(), cell.load,
                config=ReplayConfig(time_scale=cell.time_scale),
                engine="kernel",
            )
            assert _canon(cell.result) == _canon(serial), cell.key

    def test_rmw_chunking_invariance(self, monkeypatch):
        """The RMW fixpoint's row batching must be chunk-size neutral: a
        tiny budget solves one cell per fixpoint, and not one bit of
        drift."""
        trace = _mixed_trace(write_every=2)
        big = run_grid(
            {"t": trace}, {"d": _raid5},
            loads=LOADS, time_scales=(1.0, 1.25, 1.5, 2.0),
            engine="kernel", parallel=False,
        )
        monkeypatch.setattr(grid_mod, "DEFAULT_CHUNK_BYTES", 4096)
        tiny = run_grid(
            {"t": trace}, {"d": _raid5},
            loads=LOADS, time_scales=(1.0, 1.25, 1.5, 2.0),
            engine="kernel", parallel=False,
        )
        assert big.fused_cells == tiny.fused_cells == 8
        assert [_canon(c.result) for c in big.cells] == [
            _canon(c.result) for c in tiny.cells
        ]

    def test_chunking_invariance(self, monkeypatch):
        """A pathologically small chunk budget splits the face into many
        slabs; results must not move by a single bit."""
        trace = _read_trace()
        big = run_grid(
            {"t": trace}, {"d": _raid5},
            loads=LOADS, time_scales=(1.0, 1.25, 1.5, 2.0),
            engine="kernel", parallel=False,
        )
        monkeypatch.setattr(grid_mod, "DEFAULT_CHUNK_BYTES", 4096)
        tiny = run_grid(
            {"t": trace}, {"d": _raid5},
            loads=LOADS, time_scales=(1.0, 1.25, 1.5, 2.0),
            engine="kernel", parallel=False,
        )
        assert [_canon(c.result) for c in big.cells] == [
            _canon(c.result) for c in tiny.cells
        ]

    def test_interval_frames_match_per_point_streaming(self):
        trace = _read_trace()
        outcome = run_grid(
            {"t": trace}, {"d": _raid5}, loads=(1.0,), time_scales=SCALES,
            engine="kernel", parallel=False, stream_interval=0.25,
        )
        for cell in outcome.cells:
            serial = replay_trace(
                trace, _raid5(), cell.load,
                config=ReplayConfig(time_scale=cell.time_scale),
                engine="kernel", stream_interval=0.25,
            )
            assert cell.result.metadata["interval_frames"] == \
                serial.metadata["interval_frames"], cell.key
            assert _canon(cell.result) == _canon(serial), cell.key


class TestGridVsEventEngine:
    """Sampled differential oracle: the fused kernel must agree with the
    event-driven engine on everything but the engine provenance keys."""

    @pytest.mark.parametrize(
        "factory,trace_fn",
        [(_hdd, _read_trace), (_raid5, _read_trace), (_raid5, _mixed_trace)],
    )
    def test_engine_neutral_equality(self, factory, trace_fn):
        trace = trace_fn()
        outcome = run_grid(
            {"t": trace}, {"d": factory}, loads=(1.0,), time_scales=(1.0, 1.75),
            engine="kernel", parallel=False,
        )
        for cell in outcome.cells:
            event = replay_trace(
                trace, factory(), cell.load,
                config=ReplayConfig(time_scale=cell.time_scale),
                engine="event",
            )
            assert _canon_engine_neutral(cell.result) == \
                _canon_engine_neutral(event), cell.key


class TestFallbackParity:
    def test_raid5_writes_fuse_with_zero_fallbacks(self):
        """Parity writes fuse via the two-phase RMW solver now: an
        ``engine="auto"`` sweep over a write-heavy matrix must record no
        fallback at all."""
        trace = _mixed_trace()
        outcome = run_grid(
            {"t": trace}, {"d": _raid5}, loads=LOADS, time_scales=SCALES,
            engine="auto", parallel=False,
        )
        assert outcome.fused_cells == 4
        assert outcome.engines == {"kernel": 4}
        assert outcome.fallback_reasons == {}

    def test_degraded_raid5_falls_back_with_per_point_metadata(self):
        """Degraded arrays decline fusion (reconstruction mutates
        planner state); every cell must re-run per point under the same
        ``engine="auto"`` — results *and* fallback metadata identical to
        a hand-rolled serial loop."""

        def degraded():
            dev = _raid5()
            dev.fail_disk(1)
            return dev

        trace = _mixed_trace()
        outcome = run_grid(
            {"t": trace}, {"d": degraded}, loads=LOADS, time_scales=SCALES,
            engine="auto", parallel=False,
        )
        assert outcome.fused_cells == 0
        assert outcome.engines == {"event": 4}
        assert set(outcome.fallback_reasons) == {
            c.key for c in outcome.cells
        }
        assert set(outcome.fallback_reasons.values()) == {
            "array degraded or rebuilding"
        }
        for cell in outcome.cells:
            serial = replay_trace(
                trace, degraded(), cell.load,
                config=ReplayConfig(time_scale=cell.time_scale),
                engine="auto",
            )
            assert _canon(cell.result) == _canon(serial), cell.key
            assert cell.fallback == serial.metadata["engine_fallback"]

    def test_forced_kernel_raises_where_per_point_would(self):
        def degraded():
            dev = _raid5()
            dev.fail_disk(1)
            return dev

        with pytest.raises(ReplayError, match="does not qualify"):
            run_grid(
                {"t": _mixed_trace()}, {"d": degraded},
                engine="kernel", parallel=False,
            )

    def test_object_trace_replays_per_point(self):
        obj = Trace(
            [Bunch(i / 40, [IOPackage(64 * i, 4096, READ)]) for i in range(8)],
            label="obj",
        )
        outcome = run_grid({"t": obj}, {"d": _hdd}, parallel=False)
        assert outcome.fused_cells == 0
        assert outcome.cells[0].engine == "event"
        serial = replay_trace(obj, _hdd(), 1.0, engine="auto")
        assert _canon(outcome.cells[0].result) == _canon(serial)

    def test_telemetry_declines_fusion(self):
        from repro.telemetry import enabled_telemetry

        with enabled_telemetry():
            outcome = run_grid(
                {"t": _read_trace()}, {"d": _hdd}, parallel=False
            )
        assert outcome.fused_cells == 0
        assert all(
            "telemetry" in reason
            for reason in outcome.fallback_reasons.values()
        )


class TestGridOutcomeShape:
    def test_row_major_order_and_lookup(self):
        traces = {"a": _read_trace(), "b": _read_trace(n=24)}
        outcome = run_grid(
            traces, {"hdd": _hdd, "raid": _raid5},
            loads=LOADS, time_scales=SCALES, parallel=False,
        )
        assert outcome.shape == (2, 2, 2, 2)
        assert len(outcome.cells) == 16
        expect = [
            (d, t, lo, ts)
            for d in ("hdd", "raid")
            for t in ("a", "b")
            for lo in LOADS
            for ts in SCALES
        ]
        got = [
            (c.device, c.trace, c.load, c.time_scale) for c in outcome.cells
        ]
        assert got == expect
        cell = outcome.cell("raid", "b", 0.5, 1.75)
        assert (cell.device, cell.trace) == ("raid", "b")
        with pytest.raises(KeyError):
            outcome.cell("raid", "b", 0.33)

    def test_engine_mix_counts_every_cell(self):
        outcome = run_grid(
            {"t": _read_trace()}, {"d": _raid5},
            loads=LOADS, time_scales=SCALES, parallel=False,
        )
        assert sum(outcome.engines.values()) == len(outcome.cells)
        assert outcome.engines == {"kernel": 4}
        assert outcome.fallback_reasons == {}

    def test_empty_trace_raises(self):
        with pytest.raises(ReplayError, match="empty trace"):
            run_grid(
                {"t": pack(Trace([], label="empty"))}, {"d": _hdd},
                parallel=False,
            )

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            run_grid({"t": _read_trace()}, {"d": _hdd}, loads=())

    def test_single_values_accepted_without_mappings(self):
        """A bare trace / bare factory (no dicts) sweeps one plane."""
        trace = _read_trace()
        outcome = run_grid(trace, _hdd, loads=(1.0,), parallel=False)
        assert outcome.traces == ("grid-read",)
        assert outcome.devices == ("device",)
        assert outcome.cells[0].engine == "kernel"


def _module_hdd():
    # Module-level for picklability across the pool boundary.
    return HardDiskDrive(
        "g-hdd",
        dataclasses.replace(SEAGATE_7200_12, capacity_bytes=16 * 1024 * 1024),
    )


class TestUnfusedPoolPath:
    def test_forced_pool_matches_serial(self):
        """``engine="event"`` skips fusion entirely; with ``parallel=True``
        the per-point remainder crosses the zero-copy pool path and must
        still come back bit-identical and in row-major order."""
        trace = _read_trace()
        pooled = run_grid(
            {"t": trace}, {"d": _module_hdd},
            loads=LOADS, time_scales=SCALES,
            engine="event", parallel=True, max_workers=2,
        )
        serial = run_grid(
            {"t": trace}, {"d": _module_hdd},
            loads=LOADS, time_scales=SCALES,
            engine="event", parallel=False,
        )
        assert pooled.fused_cells == serial.fused_cells == 0
        assert [c.key for c in pooled.cells] == [c.key for c in serial.cells]
        assert [_canon(c.result) for c in pooled.cells] == [
            _canon(c.result) for c in serial.cells
        ]
