"""Grid-fused analytical replay: one broadcast, many cells.

A parameter sweep evaluates the same trace against the same device
family at many ``(load, time_scale)`` points.  Per point, the analytical
kernel (:mod:`repro.sim.kernel`) already collapses the replay to closed
form — but a sweep would still re-derive everything per cell: the
filtered trace, the service-time plans, the sub-I/O expansion, the
per-disk sort.  None of that depends on *when* requests arrive, only on
*which* requests run against *which* factory-fresh device — and that is
shared by every cell that differs only in its time scale.

The kernel's pipeline already solves ``P`` dispatch rows at once; point
replay is its one-row case plus a commit to the live device.  This
module keeps only what is grid-specific:

* cells are grouped by load (same filtered row set), so the kernel's
  shared work (:func:`~repro.sim.kernel._prepare`: CSR columns, capacity
  checks, stripe expansion, per-disk sort, ``VectorService`` plans) runs
  once per group;
* each cell is one time-scaled row of the ``(P, n)`` arrival matrix the
  kernel solves (:func:`~repro.sim.kernel._solve`); the parameter axis
  is chunked (``DEFAULT_CHUNK_BYTES``) to bound peak memory;
* nothing is committed: per-cell outputs are assembled through the
  kernel's real samplers fed by
  :class:`~repro.power.model.FrozenTimeline` views of the solved rows,
  which integrate exactly as a committed
  :class:`~repro.power.model.PowerTimeline` does — provided the probe
  device is factory-fresh and no segment has zero length (a real
  timeline drops those), so no per-cell device is ever constructed or
  mutated.

**Bit-identity is inherited from the kernel's contract**: every cell's
:class:`~repro.replay.results.ReplayResult` equals what
``replay_trace(trace, factory(), load, config=replace(cfg,
time_scale=ts), engine="kernel")`` returns, field for field.  Any cell
the fusion cannot reproduce exactly (non-qualifying device, unsorted
scaled timestamps, tied flight completions, pathological sampling
cycles) is handed back to the caller with the reason, to be replayed
per point — where ``engine="auto"`` re-derives the identical
user-visible fallback metadata the event path records today.

The public sweep API wrapping this module is
:func:`repro.workload.parallel.run_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from ..config import ReplayConfig
from ..core.timescale import TimeScaler
from ..errors import ReplayError
from ..power.model import EnergyMeter, FrozenTimeline
from ..storage.array import DiskArray
from ..storage.base import StorageDevice
from ..trace.packed import PackedTrace
from .kernel import (
    _Fallback,
    _Rows,
    _decline,
    _outcome,
    _prepare,
    _qualify,
    _row,
    _row_bounds,
    _solve,
)

#: Default peak-memory budget for the batched solve; the parameter axis
#: is chunked so one chunk's working set stays under this many bytes.
DEFAULT_CHUNK_BYTES = 256 * 1024 * 1024

_EMPTY = np.empty(0, dtype=np.float64)
_CUM_SEED = np.zeros(1, dtype=np.float64)


@dataclass(frozen=True)
class GridCell:
    """One grid point within a (trace, device) plane."""

    load: float
    time_scale: float


@dataclass
class CellEval:
    """Fusion outcome for one cell.

    ``result`` is the bit-identical :class:`ReplayResult` when the cell
    was evaluated by the fused kernel; otherwise ``unfused`` names why
    the fusion handed the cell back (the caller replays it per point,
    which re-derives the user-visible fallback reason exactly as
    ``engine="auto"`` does).  ``capture`` is the cell's
    :class:`~repro.replay.capture.ReplayCapture` when requested —
    bit-identical to what a per-point replay would capture.
    """

    result: Optional[object]
    unfused: Optional[str]
    capture: Optional[object] = None


def _fresh_probe(device: StorageDevice) -> bool:
    """Whether every member timeline is factory-fresh — frozen views of
    the solved rows only integrate like a timeline that starts empty."""
    members = device.disks if isinstance(device, DiskArray) else [device]
    for member in members:
        timeline = member.timeline
        if (
            timeline.segment_count
            or len(timeline._base_times) > 1
            or timeline._base_times[0] != 0.0
        ):
            return False
    return True


def evaluate_grid_cells(
    trace,
    device: StorageDevice,
    cells: Sequence[GridCell],
    *,
    config: Optional[ReplayConfig] = None,
    stream_interval: Optional[float] = None,
    capture: bool = False,
) -> List[CellEval]:
    """Evaluate ``cells`` against ``device`` with the fused kernel.

    ``device`` is a *probe*: one factory-fresh instance standing in for
    the per-cell devices a serial sweep would build (its service models
    are consulted read-only; nothing is mutated).  Cells the fusion
    cannot reproduce bit-identically come back with ``unfused`` set and
    must be replayed per point by the caller.

    Raises :class:`ReplayError` exactly where the per-point path would
    raise for *every* cell (empty trace, a load that filters away all
    bunches).
    """
    cfg = config or ReplayConfig()
    cells = list(cells)
    if len(trace) == 0:
        raise ReplayError("cannot replay an empty trace")
    reason = _qualify(trace, device)
    if reason is None and not _fresh_probe(device):
        reason = "probe device not factory-fresh"
    if reason is not None:
        return [CellEval(None, reason) for _ in cells]

    from ..obslog import get_logger
    from ..replay.session import ReplaySession

    session = ReplaySession(device, config=cfg, stream_interval=stream_interval)
    slog = get_logger("replay.session")

    evals: List[CellEval] = [CellEval(None, "not evaluated") for _ in cells]
    # Group cells by load: every cell of a group replays the same
    # filtered row set, so all time-independent work is shared.
    groups: dict = {}
    for gi, cell in enumerate(cells):
        groups.setdefault(cell.load, []).append(gi)
    try:
        for load, indices in groups.items():
            _evaluate_group(
                trace, device, load, indices, cells, evals,
                session=session, slog=slog, cfg=cfg, capture=capture,
            )
    finally:
        session.config = cfg
    return evals


def _evaluate_group(
    trace: PackedTrace,
    device: StorageDevice,
    load: float,
    indices: List[int],
    cells: List[GridCell],
    evals: List[CellEval],
    *,
    session,
    slog,
    cfg: ReplayConfig,
    capture: bool = False,
) -> None:
    base = session.controller.apply(trace, load)
    if len(base) == 0:
        raise ReplayError(
            f"load proportion {load} left no bunches to replay"
        )
    try:
        plan = _prepare(base, device)
    except _Fallback as exc:
        for gi in indices:
            evals[gi] = CellEval(None, exc.reason)
        return

    totals = None
    if capture:
        from ..replay.capture import workload_totals

        # Workload totals are load-dependent but time-scale-invariant:
        # one computation covers every cell of the group.
        totals = workload_totals(base)

    members = plan.members
    base_watts = [m.timeline._base_watts[0] for m in members]
    overhead = (
        device.enclosure.non_disk_watts if isinstance(device, DiskArray) else None
    )
    n_bunches = len(base)
    total = plan.sector.size
    si = session.stream_interval
    cycle = float(cfg.sampling_cycle)

    # Chunk the parameter axis so the working set stays bounded.  Per
    # cell the solvers hold about nine rows over the sub-I/O axis (each
    # member's serving order, arrivals, starts, finishes, Watts and
    # excess prefix sums, the plan-order finishes, and the RMW
    # fixpoint's plan memo and pass arrivals), about ten over the
    # package axis (dispatch, link, flight finishes and completion-order
    # columns) and two over the bunch axis.
    per_cell = 8 * (9 * total + 10 * int(base.package_count) + 2 * n_bunches)
    step = max(1, int(DEFAULT_CHUNK_BYTES // per_cell))

    for at in range(0, len(indices), step):
        chunk = indices[at:at + step]
        manipulated = [
            TimeScaler(cells[gi].time_scale).apply(base)
            if cells[gi].time_scale != 1.0
            else base
            for gi in chunk
        ]
        times2d = np.stack(
            [0.0 + (m.timestamps - m.timestamps[0]) for m in manipulated]
        )
        rows = _solve(plan, times2d)
        reasons = rows.reasons
        # Positive scaling preserves order, but guard each cell anyway —
        # an unsorted row must fall back exactly like the per-point path.
        unsorted = np.any(np.diff(times2d, axis=1) < 0, axis=1)
        for i in np.flatnonzero(unsorted).tolist():
            reasons[i] = "unsorted bunch timestamps reorder dispatch"
        cums = _frozen_cums(rows, members, base_watts, reasons)

        # ---- Per-cell assembly through the real samplers. ----
        for i, gi in enumerate(chunk):
            m = manipulated[i]
            try:
                if reasons[i] is not None:
                    raise _Fallback(reasons[i])
                bounds = _row_bounds(0.0, float(rows.fin[i, -1]), cycle, si)
            except _Fallback as exc:
                evals[gi] = CellEval(None, exc.reason)
                continue
            # Members that served nothing keep empty columns: pure
            # baseline, like a fresh timeline.
            timelines = [
                FrozenTimeline(_EMPTY, _EMPTY, _EMPTY, _CUM_SEED, bw)
                if s is None
                else FrozenTimeline(
                    s.starts[i], s.fin[i], _row(s.watts, i), cum[i], bw
                )
                for s, cum, bw in zip(rows.schedules, cums, base_watts)
            ]
            source = (
                timelines[0] if overhead is None
                else EnergyMeter(timelines, overhead)
            )
            outcome = _outcome(rows, i, bounds, source, cycle)
            session.config = replace(cfg, time_scale=cells[gi].time_scale)
            slog.event(
                "start", time=0.0, trace=m.label, load=load,
                packages=m.package_count, streaming=si,
            )
            result = session._kernel_result(outcome, m, load, slog, 0.0)
            cell_capture = (
                _cell_capture(members, rows, i, base_watts, overhead, totals)
                if capture
                else None
            )
            evals[gi] = CellEval(result, None, cell_capture)


def _frozen_cums(
    rows: _Rows,
    members: list,
    base_watts: List[float],
    reasons: List[Optional[str]],
) -> list:
    """Each member's ``(P, k + 1)`` seeded excess prefix sums, the
    :class:`FrozenTimeline` column a committed timeline would build.

    Declines rows with a zero-length power segment, which the real
    timeline drops — desynchronising the frozen arrays.
    """
    cums = []
    for member, s, bw in zip(members, rows.schedules, base_watts):
        if s is None:
            cums.append(None)
            continue
        dur = s.fin - s.starts
        _decline(
            reasons, np.any(dur <= 0.0, axis=1),
            f"{member.name}: zero-length power segment",
        )
        excess = s.watts * dur - bw * dur
        cum = np.zeros((dur.shape[0], dur.shape[1] + 1), dtype=np.float64)
        np.cumsum(excess, axis=1, out=cum[:, 1:])
        cums.append(cum)
    return cums


def _cell_capture(
    members: list,
    rows: _Rows,
    i: int,
    base_watts: List[float],
    overhead_watts: Optional[float],
    totals,
):
    """Freeze one cell's replay record for the policy oracle.

    Rows are copied out of the chunk arrays so the capture does not pin
    the whole ``(P, k)`` batch in memory.  The values are bit-identical
    to what :class:`~repro.replay.capture.CaptureSink` snapshots after a
    per-point replay: members commit one segment per served request in
    member arrival order on every path.
    """
    from ..replay.capture import MemberProfile, ReplayCapture

    profiles = [
        MemberProfile(member.name, _EMPTY, _EMPTY, _EMPTY, bw)
        if s is None
        else MemberProfile(
            name=member.name,
            starts=np.array(s.starts[i], dtype=np.float64),
            ends=np.array(s.fin[i], dtype=np.float64),
            watts=np.array(_row(s.watts, i), dtype=np.float64),
            base_watts=bw,
        )
        for member, s, bw in zip(members, rows.schedules, base_watts)
    ]
    reads, writes, read_bytes, write_bytes = totals
    return ReplayCapture(
        end=float(rows.fin[i, -1]),
        finishes=np.array(rows.fin[i], dtype=np.float64),
        responses=np.array(rows.resp[i], dtype=np.float64),
        members=tuple(profiles),
        overhead_watts=overhead_watts,
        reads=reads,
        writes=writes,
        read_bytes=read_bytes,
        write_bytes=write_bytes,
    )
