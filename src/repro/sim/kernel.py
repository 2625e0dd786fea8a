"""Analytical (closed-form) replay kernel.

The event-driven replay path costs one heap pop per bunch dispatch plus
one per completion — for a 100k-bunch packed trace that is hundreds of
thousands of Python callbacks even though the *math* of a fault-free
FCFS replay is a handful of recurrences.  This module computes an entire
qualifying replay in bulk over the :class:`~repro.trace.packed.PackedTrace`
CSR arrays, as one pipeline over ``P`` dispatch rows:

1. **qualification** (:func:`_qualify`) — one decline order for point
   replay, the grid and the sweep-eligibility probe;
2. **shared work** (:func:`_prepare`) — CSR columns, capacity checks,
   RAID-0/5/JBOD flight expansion (bit-for-bit the
   :class:`~repro.storage.raid.RaidGeometry` loop) and each member's
   vectorised ``service_times`` plan;
3. **the ``(P, n)`` solve** (:func:`_solve`) — the array controller's
   link chain (``dispatch = max(arrival, link_busy) + overhead``), each
   member's FCFS queue (``finish_k = max(submit_k, finish_{k-1}) +
   service_k``) or the RAID-5 two-phase barrier fixpoint, flight
   completions, and the checks that decline rows the closed form cannot
   reproduce;
4. **per-row assembly** (:func:`_outcome`) — the sampled outputs,
   :class:`~repro.replay.monitor.PerfSample` series,
   :class:`~repro.power.analyzer.PowerAnalyzer` windows and
   :class:`~repro.telemetry.stream.IntervalFrame` series, fed by a power
   source.

Point replay (:func:`try_kernel_replay`) is that pipeline on one row plus
an explicit :func:`_commit` of the row's member schedules to the live
devices, which then serve as the power source; the grid
(:mod:`repro.sim.grid`) runs it on many rows against frozen views.

**Bit-identity is the contract.**  Every floating-point expression here
is ordered exactly as the event path orders it: seeded ``np.cumsum``
chains reproduce left-to-right scalar addition, ``np.maximum`` is a
selection (exact), window sums re-run the monitor's Python-float
accumulation over ``.tolist()`` slices, and the power analyzer /
interval recorder are fed through their *real* implementations after
the device timelines are committed.  Anything the closed form cannot
reproduce exactly — unsorted dispatch times, tied flight completions,
out-of-range requests (the event path raises mid-run), pathological
sampling cycles — declines the row *before any state is mutated* and
the caller falls back to the event engine.

Qualification rules are documented in ``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..errors import StorageIOError
from ..power.analyzer import PowerAnalyzer
from ..power.states import PowerState
from ..replay.monitor import PerfSample
from ..storage.array import DiskArray
from ..storage.base import (
    QueuedDevice,
    StorageDevice,
    VectorService,
    lag,
    sequence_starts,
)
from ..storage.hdd import HardDiskDrive
from ..storage.queueing import FIFOQueue
from ..storage.raid import FlightExpansion, RaidLevel, expand_flights
from ..storage.ssd import SolidStateDrive
from ..trace.packed import PackedTrace
from ..units import SECTOR_BYTES
from .engine import Simulator

#: Segmented-solver refinement passes before falling back to the exact
#: scalar loop (each pass only ever *adds* idle-start heads, so ten
#: passes resolve all but adversarial arrival patterns).  Like the
#: seed-wave cap below, this bounds cost only: the fallback is an exact
#: loop in this module, never the event engine.  The RMW barrier
#: fixpoint (:func:`_solve_two_phase`) has no cap at all — its causal
#: frontier strictly advances every pass.
_MAX_PASSES = 10

#: Sampling-window count cap: beyond this the closed-form window walk
#: costs more than the event path saves.
_MAX_WINDOWS = 2_000_000

_NEG_INF = float("-inf")
_EMPTY = np.empty(0, dtype=np.float64)


class _Fallback(Exception):
    """The configuration (or computed schedule) needs the event engine."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# Exact busy-run recurrence (FCFS queues and the controller link chain)
# ---------------------------------------------------------------------------
#
# Both recurrences the kernel solves have one shape: request ``k`` starts
# at ``max(t_k, busy_{k-1})`` and then adds the k-th entry of each of
# ``m`` addend columns in turn; the last partial sum is the new
# busy-until instant.  With one column (service seconds) this is a
# member's FCFS queue, ``f_k = max(s_k, f_{k-1}) + sv_k``; with two
# (controller overhead, link payload) it is the array's dispatch chain,
# ``d_k = max(t_k, l_{k-1}) + c; l_k = d_k + p_k``.  An optional
# ``restart`` mask concatenates independent chains end to end (one per
# dispatch row), each starting over from ``prev`` at its marked position.


def _row_restarts(n_rows: int, k: int) -> Optional[np.ndarray]:
    """Restart mask for ``n_rows`` length-``k`` rows flattened end to end
    (``None`` when there is only one chain)."""
    if n_rows <= 1 or k == 0:
        return None
    mask = np.zeros(n_rows * k, dtype=bool)
    mask[::k] = True
    return mask


def _idle_heads(arrival: np.ndarray, cost, starts: np.ndarray) -> np.ndarray:
    """Guess idle-start heads from arrival slack, chain by chain.

    An arrival minus the work queued ahead of it in its chain that
    reaches a new running maximum marks a likely idle restart.  Both
    the running work sum and the running maximum restart at every chain
    start: each chain's slack is lifted clear above every earlier
    chain's, so one ``maximum.accumulate`` serves all of them.  The guess
    only picks split positions — extra splits are bit-neutral and missed
    heads surface as violations — so rounding in the lift never changes
    a result.
    """
    ahead = np.concatenate(([0.0], np.cumsum(cost)[:-1]))
    approx = arrival - ahead
    if starts.size > 1:
        chain = np.repeat(
            np.arange(starts.size), np.diff(np.append(starts, arrival.size))
        )
        approx += ahead[starts][chain]
        approx += (approx.max() - approx.min() + 1.0) * chain
    is_head = approx >= np.maximum.accumulate(approx)
    is_head[starts] = True
    return is_head


def _recurrence_scalar(
    t: np.ndarray,
    cols: np.ndarray,
    prev: float,
    restart: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Reference solver: the event path's arithmetic, request by request."""
    m, n = cols.shape
    out = np.empty((n, m), dtype=np.float64)
    cur = prev
    fresh = sequence_starts(n, restart).tolist() if n else []
    for i, (ti, adds) in enumerate(zip(t.tolist(), cols.T.tolist())):
        if fresh[i]:
            cur = prev
        cur = ti if ti > cur else cur
        for j, add in enumerate(adds):
            cur = cur + add
            out[i, j] = cur
    return out.T


def _run_cumsum(seed: float, cols: np.ndarray) -> np.ndarray:
    """One busy run's partial sums from ``seed``: a single seeded cumsum
    whose element order ``seed, +cols[0][0], …, +cols[m-1][0],
    +cols[0][1], …`` is the scalar loop's left-to-right additions."""
    m, k = cols.shape
    arr = np.empty(m * k + 1, dtype=np.float64)
    arr[0] = seed
    for j in range(m):
        arr[1 + j::m] = cols[j]
    return np.cumsum(arr)[1:].reshape(k, m).T


def _eval_runs_loop(
    t: np.ndarray,
    cols: np.ndarray,
    heads: np.ndarray,
    prev: float,
    fresh: np.ndarray,
) -> np.ndarray:
    """Per-run evaluation, sequential over busy runs.

    Each run [a, b) starts at ``max(t[a], previous busy-until)`` (exact
    selection) and accumulates its addends by :func:`_run_cumsum`.  A
    ``fresh`` run starts a new chain, so its previous busy-until is
    ``prev``.
    """
    m, n = cols.shape
    out = np.empty((m, n), dtype=np.float64)
    cur = prev
    bounds = np.append(heads, n)
    for a, b, new in zip(
        bounds[:-1].tolist(), bounds[1:].tolist(), fresh.tolist()
    ):
        if new:
            cur = prev
        ta = t[a]
        out[:, a:b] = _run_cumsum(ta if ta > cur else cur, cols[:, a:b])
        cur = float(out[m - 1, b - 1])
    return out


#: Batched evaluation eligibility: below this many runs the per-run
#: loop's overhead is negligible (and it never needs seed-repair waves).
_BATCH_MIN_SEGMENTS = 64

#: Seed-repair waves before falling back to the sequential loop.  Each
#: wave finalises at least one more run of every chain of busy runs
#: that merge (a head whose arrival lands inside the previous run), so
#: only adversarially long merge chains hit the cap.
_MAX_SEED_WAVES = 40


def _run_blocks(heads: np.ndarray, lens: np.ndarray, n: int):
    """Group busy runs ``[heads[i], heads[i] + lens[i])`` by power-of-two
    length class.

    Yields ``(sel, idx, keep)`` per class: the runs' positions in
    ``heads``, a ``(runs, width)`` block of element indices (clipped to
    the array, so a short run reads past its end into whatever follows)
    and the mask of indices that belong to each run.  A row-wise cumsum
    over such a block performs, for every run, exactly the left-to-right
    additions of that run's own cumsum; the padding only extends rows
    past their ends and is never stored.  Padding stays under 2x, and
    the classes number at most ``log2(n) + 1``.
    """
    classes = np.frexp(lens.astype(np.float64))[1]
    for cls in np.unique(classes).tolist():
        sel = np.flatnonzero(classes == cls)
        ls = lens[sel]
        cols = np.arange(int(ls.max()))
        idx = np.minimum(heads[sel][:, None] + cols, n - 1)
        yield sel, idx, cols < ls[:, None]


def _eval_runs(
    t: np.ndarray,
    cols: np.ndarray,
    heads: np.ndarray,
    prev: float,
    fresh: np.ndarray,
) -> np.ndarray:
    """Evaluate the recurrence given idle-start positions ``heads``.

    Lightly loaded schedules split into tens of thousands of short busy
    runs, and a grid stack into at least one run per row; evaluating
    them one Python-loop iteration apiece dominates the solver.
    Instead, seed every run at its own ``t[a]`` (the true seed whenever
    the head is a genuine idle restart; ``max(t[a], prev)`` for a
    ``fresh`` chain start) and evaluate all of them at once, one
    row-wise interleaved cumsum per length class (:func:`_run_blocks`) —
    the per-run cumsum's exact additions, so the values are
    bit-identical.  Heads whose run actually merges with the previous
    one (``t[a]`` below the previous run's busy-until) are then
    re-seeded at ``max(t[a], previous busy-until)`` and re-evaluated —
    values only grow, and each wave finalises the next run of every
    merge chain, so the iteration reaches the sequential evaluation's
    unique answer; if a pathological chain outlives the wave cap, fall
    back to the sequential loop.
    """
    m, n = cols.shape
    if heads.size < _BATCH_MIN_SEGMENTS:
        return _eval_runs_loop(t, cols, heads, prev, fresh)
    lens = np.diff(np.append(heads, n))
    out = np.empty((m, n), dtype=np.float64)
    seed = t[heads].copy()
    seed[fresh] = np.maximum(seed[fresh], prev)

    def _runs(sel: np.ndarray) -> None:
        """(Re)evaluate the selected runs from their current seeds."""
        for rows, idx, keep in _run_blocks(heads[sel], lens[sel], n):
            block = np.empty((rows.size, m * idx.shape[1] + 1), dtype=np.float64)
            block[:, 0] = seed[sel[rows]]
            for j in range(m):
                block[:, 1 + j::m] = cols[j][idx]
            cs = np.cumsum(block, axis=1)
            at = idx[keep]
            for j in range(m):
                out[j][at] = cs[:, 1 + j::m][keep]

    _runs(np.arange(heads.size))
    linked = np.flatnonzero(~fresh)
    tails = heads[linked] - 1
    for _ in range(_MAX_SEED_WAVES):
        want = np.maximum(t[heads[linked]], out[m - 1][tails])
        moved = want != seed[linked]
        if not moved.any():
            return out
        stale = linked[moved]
        seed[stale] = want[moved]
        _runs(stale)
    return _eval_runs_loop(t, cols, heads, prev, fresh)


def _solve_chain(
    t: np.ndarray,
    cols: np.ndarray,
    prev: float = _NEG_INF,
    restart: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Every partial sum of the busy-run recurrence over ``cols``.

    ``cols`` is an ``(m, n)`` stack of addend columns; the result is the
    ``(m, n)`` stack of partial sums, its last row the busy-until
    instants.  Bit-identical to the scalar recurrence, chain by chain
    when ``restart`` marks several.  O(1)-pass fast paths cover the
    common regimes (the server never queues / a single chain's server
    never idles); otherwise idle-start heads are guessed from the
    arrival slack and refined until the evaluation is self-consistent,
    which by induction makes it exact.
    """
    m, n = cols.shape
    if n == 0:
        return np.empty((m, 0), dtype=np.float64)
    is_start = sequence_starts(n, restart)
    # Fully idle: every request starts at its own arrival.
    idle = np.empty((m, n), dtype=np.float64)
    np.add(t, cols[0], out=idle[0])
    for j in range(1, m):
        np.add(idle[j - 1], cols[j], out=idle[j])
    if bool(np.all(t >= lag(idle[m - 1], prev, is_start))):
        return idle
    starts = np.flatnonzero(is_start)
    # Fully busy: one seeded cumsum.  Worth a try on a single chain (a
    # point replay's queue is often saturated); a stack of chains is
    # rarely busy in every row, and the general path's first pass
    # already takes a busy chain's start as its only head.
    if starts.size == 1:
        busy = _run_cumsum(t[0] if t[0] > prev else prev, cols)
        if bool(np.all(t[1:] <= busy[m - 1, :-1])):
            return busy
    # General: guess heads from arrival slack, refine to fixpoint.
    is_head = _idle_heads(t, cols[0] if m == 1 else cols.sum(axis=0), starts)
    for _ in range(_MAX_PASSES):
        heads = np.flatnonzero(is_head)
        out = _eval_runs(t, cols, heads, prev, is_start[heads])
        viol = np.flatnonzero(t > lag(out[m - 1], np.inf, is_start))
        new = viol[~is_head[viol]]
        if new.size == 0:
            return out
        is_head[new] = True
    return _recurrence_scalar(t, cols, prev, is_start)


def _solve_lindley(
    submit: np.ndarray,
    sv: np.ndarray,
    prev: float = _NEG_INF,
    restart: Optional[np.ndarray] = None,
) -> np.ndarray:
    """FCFS finish times ``finish_k = max(submit_k, finish_{k-1}) + sv_k``."""
    return _solve_chain(submit, sv[None, :], prev, restart)[0]


def _solve_rows(submit2d: np.ndarray, sv: np.ndarray) -> np.ndarray:
    """Lindley finishes of every row of ``submit2d`` from an idle server.

    One flattened :func:`_solve_lindley` call with a restart at each row
    start; ``sv`` is one service vector shared by every row or a
    matching ``(P, k)`` matrix.
    """
    n_rows, k = submit2d.shape
    sv_flat = np.tile(sv, n_rows) if sv.ndim == 1 and n_rows > 1 else sv.ravel()
    return _solve_lindley(
        submit2d.ravel(), sv_flat, restart=_row_restarts(n_rows, k)
    ).reshape(n_rows, k)


def _solve_link_chain(
    t: np.ndarray,
    c: float,
    p: np.ndarray,
    prev: float,
    restart: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Dispatch/link-free times of the array controller chain.

    ``d_k = max(t_k, link_{k-1}) + c``; ``link_k = d_k + p_k`` — the
    arithmetic of :meth:`DiskArray.submit`, reproduced bit-for-bit, chain
    by chain when ``restart`` marks several.
    """
    cols = np.empty((2, t.size), dtype=np.float64)
    cols[0] = c
    cols[1] = p
    d, link = _solve_chain(t, cols, prev, restart)
    return d, link


# ---------------------------------------------------------------------------
# Qualification
# ---------------------------------------------------------------------------


def _qualify_member(dev: StorageDevice) -> Optional[str]:
    """None if ``dev`` is kernel-capable, else the human-readable reason."""
    if type(dev) is HardDiskDrive:
        if dev.rotational_jitter:
            return "hdd rotational jitter draws per request"
        if dev.state is not PowerState.IDLE:
            return f"hdd power state {dev.state.value}"
    elif type(dev) is SolidStateDrive:
        pass
    else:
        return f"device model {type(dev).__name__} has no kernel contract"
    if dev._busy:
        return "device busy at replay start"
    if type(dev._queue) is not FIFOQueue:
        return f"queue discipline {type(dev._queue).__name__}"
    if len(dev._queue):
        return "device queue not empty at replay start"
    if "_finish" in dev.__dict__:
        return "telemetry-instrumented device"
    return None


def _structure_reason(device: StorageDevice) -> Optional[str]:
    """Why the target's structure rules the kernel out (``None`` if not).

    Array-level structure only — subclass, empty enclosure, degraded
    state, RAID level — plus device models without a kernel contract.
    These hold whatever the process-wide telemetry setting, so
    :func:`_qualify` checks them before the telemetry registry: a
    degraded array reports "array degraded or rebuilding" with telemetry
    on or off.
    """
    if isinstance(device, DiskArray):
        if type(device) is not DiskArray:
            return f"array subclass {type(device).__name__}"
        if device.geometry is None:
            return "array has no disks installed"
        if device.failed_disk is not None or device.rebuilding:
            return "array degraded or rebuilding"
        level = device.geometry.level
        if level not in (RaidLevel.JBOD, RaidLevel.RAID0, RaidLevel.RAID5):
            # RAID-1/10 round-robin mirror reads through planner state.
            return f"raid level {level.value} mutates planner state"
        return None
    if not isinstance(device, QueuedDevice):
        return f"device model {type(device).__name__} has no kernel contract"
    return None


def _qualify_device(device: StorageDevice) -> Optional[str]:
    """None if the target device qualifies for the analytical kernel.

    Checks run in a documented, deterministic order so the recorded
    fallback reason is stable when several apply: array-level structure
    first (:func:`_structure_reason`: subclass, empty enclosure,
    degraded state, RAID level), then instrumentation, then the member
    disks in disk-index order.  A RAID-5 array that cannot take the
    kernel for a structural reason therefore reports *that* reason —
    never whichever member check happens to fire first (see
    ``tests/sim/test_kernel.py``).
    """
    reason = _structure_reason(device)
    if reason is not None:
        return reason
    if isinstance(device, DiskArray):
        if "_plan" in device.__dict__:
            return "telemetry-instrumented array"
        for disk in device.disks:
            reason = _qualify_member(disk)
            if reason is not None:
                return f"{disk.name}: {reason}"
        return None
    reason = _qualify_member(device)
    if reason is not None:
        return f"{device.name}: {reason}"
    return None


def _qualify(trace, device: StorageDevice) -> Optional[str]:
    """Why replaying ``trace`` on ``device`` cannot take the closed form.

    The one decline order every closed-form entry point shares — point
    replay, the grid and the sweep-eligibility probe: device structure,
    then the process-wide telemetry registry, then the trace layout,
    then the device's instrumentation and members
    (:func:`_qualify_device`).
    """
    from ..telemetry import get_registry

    reason = _structure_reason(device)
    if reason is not None:
        return reason
    if get_registry().enabled:
        return "telemetry registry enabled"
    if not isinstance(trace, PackedTrace):
        return "object-trace replay"
    return _qualify_device(device)


# ---------------------------------------------------------------------------
# Shared work: columns, capacity, flight expansion, service plans
# ---------------------------------------------------------------------------


def _noop() -> None:
    return None


def _row(a: np.ndarray, i: int) -> np.ndarray:
    """Row ``i`` of a per-row ``(P, k)`` column, or a shared ``(k,)`` one."""
    return a[i] if a.ndim == 2 else a


def _end_sectors(sectors: np.ndarray, nbytes: np.ndarray) -> np.ndarray:
    return sectors + -(-nbytes // SECTOR_BYTES)


def _columns(trace: PackedTrace) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    pk = trace.packages
    sectors = pk["sector"].astype(np.int64, copy=False)
    nbytes = pk["nbytes"].astype(np.int64, copy=False)
    ops = pk["op"].astype(np.int64)
    if sectors.size == 0:
        raise _Fallback("trace has no packages")
    if bool(np.any(nbytes <= 0)) or bool(np.any(sectors < 0)):
        raise _Fallback("invalid package geometry")
    return sectors, nbytes, ops


def _service_plan(
    dev: QueuedDevice,
    sectors: np.ndarray,
    nbytes: np.ndarray,
    ops: np.ndarray,
) -> VectorService:
    """``dev.service_times`` with model refusals turned into fallbacks."""
    try:
        return dev.service_times(sectors, nbytes, ops)  # type: ignore[attr-defined]
    except StorageIOError as exc:
        raise _Fallback(str(exc))


def _disk_rows(sub_disk: np.ndarray, n_disks: int) -> List[np.ndarray]:
    """Each member's sub-I/O indices in plan order — the member queue's
    arrival order whenever every sub-I/O is issued at dispatch."""
    order = np.argsort(sub_disk, kind="stable")
    cuts = np.searchsorted(
        sub_disk[order], np.arange(n_disks + 1, dtype=np.int64)
    ).tolist()
    return [order[cuts[di]:cuts[di + 1]] for di in range(n_disks)]


@dataclass
class _Plan:
    """The work every dispatch row of one (trace, device) pair shares.

    ``sector``/``size`` are the sub-I/O columns the members serve (for a
    single queued device, the packages themselves); ``rows`` holds each
    member's sub-I/O indices in plan order, and ``services`` its
    single-phase service plan (``None`` for a member that serves
    nothing, and on the RMW path, where the serving order — hence the
    plan — varies per row).  ``exp`` is ``None`` for a single device.
    """

    device: StorageDevice
    members: List[QueuedDevice]
    reps: np.ndarray  # packages per bunch
    nbytes: np.ndarray  # package bytes, trace row order
    sector: np.ndarray
    size: np.ndarray
    rows: List[np.ndarray]
    services: List[Optional[VectorService]]
    exp: Optional[FlightExpansion]


def _prepare(trace: PackedTrace, device: StorageDevice) -> _Plan:
    """Everything about a replay that does not depend on *when* requests
    arrive; raises :class:`_Fallback` for a trace the closed form cannot
    take."""
    times = trace.timestamps - trace.timestamps[0]
    if times.size > 1 and bool(np.any(np.diff(times) < 0)):
        raise _Fallback("unsorted bunch timestamps reorder dispatch")
    sectors, nbytes, ops = _columns(trace)
    exp: Optional[FlightExpansion] = None
    if isinstance(device, DiskArray):
        geom = device.geometry
        assert geom is not None
        if int(_end_sectors(sectors, nbytes).max()) > geom.capacity_sectors:
            raise _Fallback("request beyond array capacity")
        exp = expand_flights(geom, sectors, nbytes, ops)
        members: List[QueuedDevice] = list(device.disks)  # type: ignore[arg-type]
        sector, size, op = exp.sector, exp.nbytes, exp.op
        rows = _disk_rows(exp.disk, len(members))
    else:
        members = [device]  # type: ignore[list-item]
        sector, size, op = sectors, nbytes, ops
        rows = [np.arange(sectors.size)]
    services: List[Optional[VectorService]] = []
    for member, r in zip(members, rows):
        if not r.size:
            services.append(None)
            continue
        if int(_end_sectors(sector[r], size[r]).max()) > member.capacity_sectors:
            raise _Fallback(f"{member.name}: request beyond capacity")
        services.append(
            None if exp is not None and exp.has_pre
            else _service_plan(member, sector[r], size[r], op[r])
        )
    return _Plan(
        device, members, np.diff(trace.offsets), nbytes, sector, size, rows,
        services, exp,
    )


# ---------------------------------------------------------------------------
# The (P, n) solve
# ---------------------------------------------------------------------------


@dataclass
class _Schedule:
    """One member's FCFS schedule, one row per dispatch row.

    Columns run in the member's serving (arrival) order: ``order`` holds
    the sub-I/O indices and ``watts`` the service plan's mean Watts —
    one ``(k,)`` row shared by every dispatch row on the single-phase
    path, ``(P, k)`` on the RMW path, where each row may serve in its
    own order — and ``submit``/``starts``/``fin`` the ``(P, k)``
    queue-entry, service-start and finish instants.  ``apply_state``
    commits the device cursor state of the most recently planned row —
    for a single row, the state its serving order leaves.
    """

    order: np.ndarray
    submit: np.ndarray
    fin: np.ndarray
    watts: np.ndarray
    apply_state: Callable[[], None] = _noop
    starts: np.ndarray = None  # type: ignore[assignment]  # set by _solve


def _decline(reasons: List[Optional[str]], bad: np.ndarray, reason: str) -> None:
    """Give ``reason`` to every row ``bad`` marks that has none yet."""
    for i in np.flatnonzero(bad).tolist():
        if reasons[i] is None:
            reasons[i] = reason


class RMWFrontierError(RuntimeError):
    """The RMW fixpoint's causal frontier failed to advance — an internal
    invariant of :func:`_solve_two_phase` broke (a bug, not a decline)."""


def _advance_frontier(
    prev: np.ndarray, moved: np.ndarray, old: np.ndarray, new: np.ndarray
) -> np.ndarray:
    """Each row's causal frontier after one RMW fixpoint pass.

    The frontier is the earliest post arrival the pass changed, over its
    old and new values (``inf`` once nothing moved).  Every flight
    dispatched before it is final, and the next pass can only move
    flights dispatched at or after it, whose posts land strictly later —
    so a live row's frontier must strictly advance.  If it does not, the
    solver's causality invariant broke: raise rather than decline.
    """
    front = np.where(moved, np.minimum(old, new), np.inf).min(axis=1)
    stalled = np.flatnonzero(front <= prev)
    if stalled.size:
        i = int(stalled[0])
        raise RMWFrontierError(
            f"rmw frontier stalled on row {i}: {front[i]!r} after {prev[i]!r}"
        )
    return front


def _serve_from_frontier(
    disk: QueuedDevice,
    rows: np.ndarray,
    s: _Schedule,
    seconds: np.ndarray,
    exp: FlightExpansion,
    arr: np.ndarray,
    sub_fin: np.ndarray,
    redo: np.ndarray,
    front: np.ndarray,
) -> Optional[VectorService]:
    """Re-serve one member's ``redo`` rows from their causal frontiers.

    A row's sub-I/Os arriving before its frontier ``front`` keep their
    serving positions, service seconds and finishes; only the tail
    arriving at or after it is re-sorted (stable, so plan order breaks
    ties exactly like the event calendar) and re-solved, seeded with
    the frozen prefix's last finish through a zero-service
    pseudo-request.  When the tail's order changed, the row's service
    plan is recomputed (service depends only on the request sequence,
    never on the clock); otherwise its plan is reused.  Updates
    ``s.order``, ``s.watts``, ``seconds`` and ``sub_fin`` in place and
    returns the new plan, if any.
    """
    k = rows.size
    total = exp.total
    n_redo = redo.size
    a2d = arr.reshape(-1).take((redo * total)[:, None] + rows)
    # Flat row-major positions, so each row's live sub-I/Os come in plan
    # order.  Every redo row has one: a moved post lands at or after the
    # frontier.
    live = np.flatnonzero(a2d >= front[redo, None])
    vals = a2d.reshape(-1).take(live)
    bounds = np.searchsorted(live, np.arange(n_redo + 1) * k)
    lo, ends = bounds[:-1], bounds[1:]
    cnt = ends - lo
    srt = np.empty(live.size, dtype=np.int64)
    for a, b in zip(lo.tolist(), ends.tolist()):
        srt[a:b] = a + np.argsort(vals[a:b], kind="stable")
    # Each tail entry's row (within ``redo``) and position in the tails.
    row = np.repeat(np.arange(n_redo), cnt)
    step = np.arange(live.size)
    tail = rows.take(live.take(srt) - row * k)
    # Flat positions of the tails in the (P, k) member matrices: row
    # ``redo[i]`` serves its tail at positions ``k - cnt[i]`` onward.
    at = ((redo + 1) * k - ends).take(row) + step
    order = s.order.reshape(-1)
    replan = np.logical_or.reduceat(order[at] != tail, lo)
    order[at] = tail
    svc = None
    if replan.any():
        rp = redo[replan]
        perm = s.order[rp].ravel()
        svc = disk.service_times(  # type: ignore[attr-defined]
            exp.sector.take(perm), exp.nbytes.take(perm), exp.op.take(perm),
            _row_restarts(rp.size, k),
        )
        seconds[rp] = svc.seconds.reshape(-1, k)
        s.watts[rp] = svc.watts.reshape(-1, k)
    # One flattened Lindley solve: each row's tail behind a pseudo-request
    # finishing at the frozen prefix's last finish (a fresh row seeds at
    # its first arrival, which leaves that arrival's start unchanged).
    body = step + row + 1
    lead = lo + np.arange(n_redo)
    submit = np.empty(live.size + n_redo, dtype=np.float64)
    sv = np.zeros(live.size + n_redo, dtype=np.float64)
    submit[body] = vals.take(srt)
    sv[body] = seconds.reshape(-1).take(at)
    prior = order.take(np.maximum(at.take(lo) - 1, 0))
    submit[lead] = np.where(
        cnt < k, sub_fin.reshape(-1).take(redo * total + prior), submit[lead + 1]
    )
    restart = np.zeros(submit.size, dtype=bool)
    restart[lead] = True
    fin = _solve_lindley(submit, sv, restart=restart)
    np.put(sub_fin, (redo * total).take(row) + tail, fin.take(body))
    return svc


def _solve_two_phase(
    plan: _Plan, dispatch: np.ndarray
) -> Tuple[np.ndarray, List[Optional[_Schedule]], List[Optional[str]]]:
    """Solve the per-flight two-phase (RMW) barrier to its exact fixpoint.

    The event path issues a flight's ``pre`` reads at its dispatch
    instant and its ``post`` writes the moment the last pre read
    completes (:meth:`DiskArray._pre_done` runs inside that completion
    callback).  Post arrivals therefore feed back into the member FIFO
    orders, which determine the order-dependent service times (seek
    chains, write-stream cursors), which determine the pre completion
    times — a fixpoint.  Iterate it: seed every post arrival at its
    flight's dispatch, then repeatedly (a) sort each disk's sub-I/Os by
    arrival (stable, so plan order breaks ties exactly like the event
    calendar: completion-issued posts carry lower flight indices than
    any dispatch tied with them, and a flight's pre block precedes its
    post block), (b) recompute that order's service plan and Lindley
    finishes, (c) reduce each flight's pre block to its barrier instant.

    **Convergence by construction.**  A flight's barrier depends only on
    member arrivals at or before its dispatch, and posts land strictly
    after their dispatch.  So if ``F`` is the earliest post arrival a
    pass changed (over old and new values), every flight dispatched
    before ``F`` is final, and the flight that sets the next pass's
    ``F`` was dispatched below it: each pass finalises at least one more
    flight, and the iteration stops after at most one pass per RMW
    flight plus one, at the event engine's schedule — the unique
    fixpoint, so the arrivals are bit-identical to the event path's.
    There is no pass cap; :func:`_advance_frontier` checks on every pass
    that each live row's frontier strictly advanced and raises
    :class:`RMWFrontierError` if not.

    The same frontier bounds each pass's work: the sub-I/Os a member
    receives before it keep their order, service and finishes, so only
    the tail from the frontier on is re-sorted and re-solved
    (:func:`_serve_from_frontier`).

    ``dispatch`` holds ``P`` independent rows of flight dispatch
    instants — one per grid cell; point replay passes one row.  Every
    pass solves all still-active rows of a member at once (one service
    plan and one Lindley solve, flattened with a restart per row), with
    three exact shortcuts: a row whose post arrivals at a member did not
    move keeps its finishes, a row whose serving *order* did not change
    reuses its service plan, and a converged row retires from the pass.

    Returns ``(sub_fin, schedules, reasons)``: ``(P, total)`` sub-I/O
    finish times in plan order, one :class:`_Schedule` per member
    (``None`` for a member that serves nothing), and per row the reason
    the closed form cannot reproduce it (``None`` when it can): a
    service-model refusal, or arrival ties the event calendar would
    break by schedule sequence numbers (two RMW barriers releasing at
    one instant).
    """
    exp = plan.exp
    assert exp is not None
    disk_rows = plan.rows
    n_rows = dispatch.shape[0]
    sub_flight = exp.sub_flight
    has_pre = exp.pre_counts > 0
    pre_flights = np.flatnonzero(has_pre)
    pre_idx = np.flatnonzero(exp.is_pre)
    pre_seg = np.concatenate(
        ([0], np.cumsum(exp.pre_counts[pre_flights])[:-1])
    ).astype(np.int64)
    post_mask = ~exp.is_pre & has_pre[sub_flight]
    post_idx = np.flatnonzero(post_mask)
    post_at = sub_flight[post_idx]
    # Flights whose post arrival lands in each member's queue.
    feeds = [sub_flight[rows[post_mask[rows]]] for rows in disk_rows]

    sub_fin = np.empty((n_rows, exp.total), dtype=np.float64)
    # Each member's serving order (-1 until first served, so the first
    # pass plans every row) and plan Watts, and its plan seconds.
    served: List[Optional[_Schedule]] = [
        _Schedule(
            np.full((n_rows, rows.size), -1, dtype=np.int64),
            _EMPTY,
            _EMPTY,
            np.empty((n_rows, rows.size), dtype=np.float64),
        )
        if rows.size
        else None
        for rows in disk_rows
    ]
    seconds = [
        np.empty((n_rows, rows.size), dtype=np.float64) for rows in disk_rows
    ]
    # Every sub-I/O's current arrival; posts start at their dispatch.
    arr = dispatch.take(sub_flight, axis=1)
    post = dispatch.copy()
    front = np.full(n_rows, _NEG_INF)
    act = np.arange(n_rows)
    # Which of the active rows' flights moved their post in the last pass.
    moved: Optional[np.ndarray] = None
    refusal: Optional[str] = None
    try:
        while act.size:
            for di, rows in enumerate(disk_rows):
                s = served[di]
                if s is None:
                    continue
                redo = (
                    act if moved is None
                    else act[moved[:, feeds[di]].any(axis=1)]
                )
                if not redo.size:
                    continue
                svc = _serve_from_frontier(
                    plan.members[di], rows, s, seconds[di], exp, arr, sub_fin,
                    redo, front,
                )
                if svc is not None:
                    s.apply_state = svc.apply_state
            new_post = dispatch[act]
            new_post[:, pre_flights] = np.maximum.reduceat(
                sub_fin[act].take(pre_idx, axis=1), pre_seg, axis=1
            )
            old = post[act]
            moved = new_post != old
            front[act] = _advance_frontier(front[act], moved, old, new_post)
            post[act] = new_post
            arr[act[:, None], post_idx] = new_post.take(post_at, axis=1)
            live = moved.any(axis=1)
            act, moved = act[live], moved[live]
    except StorageIOError as exc:
        refusal = str(exc)
    reasons: List[Optional[str]] = [None] * n_rows
    for i in act.tolist():
        reasons[i] = refusal
    cell = np.arange(n_rows)[:, None]
    for s in served:
        if s is not None:
            s.submit = arr[cell, s.order]
            s.fin = sub_fin[cell, s.order]

    # Arrival ties the event calendar breaks by sequence number cannot
    # be reproduced: equal instants at one disk are only deterministic
    # within a flight (plan order) or between a completion-issued post
    # and a later flight's dispatch (completions outrank dispatch
    # events) — which stable plan-order sorting already encodes.
    for s in served:
        if s is None or s.order.shape[1] < 2:
            continue
        fl = sub_flight[s.order]
        pm = post_mask[s.order]
        tied = s.submit[:, 1:] == s.submit[:, :-1]
        cross = fl[:, 1:] != fl[:, :-1]
        benign = pm[:, :-1] & ~pm[:, 1:]
        _decline(
            reasons, np.any(tied & cross & ~benign, axis=1),
            "tied sub-I/O arrival times",
        )
    return sub_fin, served, reasons


@dataclass
class _Rows:
    """``P`` solved dispatch rows.

    ``fin``/``resp``/``nbytes`` are in *completion-event order* (the
    order the monitor saw completions on the event path; ``nbytes`` is
    one shared row for a single device, which completes in trace order);
    ``schedules`` holds one :class:`_Schedule` per member (``None`` for
    one that serves nothing); ``link_end`` the array link's final
    busy-until per row; ``reasons`` why each row cannot be reproduced
    exactly (``None`` when it can).
    """

    fin: np.ndarray
    resp: np.ndarray
    nbytes: np.ndarray
    schedules: List[Optional[_Schedule]]
    link_end: Optional[np.ndarray]
    reasons: List[Optional[str]]


def _flight_completions(
    sub_fin2d: np.ndarray,
    flight_offsets: np.ndarray,
    submit2d: np.ndarray,
    nbytes: np.ndarray,
    reasons: List[Optional[str]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce sub-I/O finishes to completion-event-order flight columns.

    A flight completes when its last sub-I/O finishes; tied flight
    completions cannot be reproduced (the monitor's accumulation order
    would depend on event sequence numbers) and decline the row.
    """
    fl_fin2d = np.maximum.reduceat(sub_fin2d, flight_offsets[:-1], axis=1)
    if fl_fin2d.shape[1] > 1:
        srt = np.sort(fl_fin2d, axis=1)
        _decline(
            reasons, np.any(srt[:, 1:] == srt[:, :-1], axis=1),
            "tied flight completion times",
        )
    comp_order2d = np.argsort(fl_fin2d, axis=1, kind="stable")
    fin_ev2d = np.take_along_axis(fl_fin2d, comp_order2d, axis=1)
    resp_ev2d = np.take_along_axis(fl_fin2d - submit2d, comp_order2d, axis=1)
    return fin_ev2d, resp_ev2d, nbytes[comp_order2d]


def _solve(plan: _Plan, times2d: np.ndarray) -> _Rows:
    """Solve ``P`` rows of bunch dispatch instants ``times2d`` at once.

    The link chain is one flattened solve with a restart per row.  On
    the single-phase path every row serves each member in plan order,
    so each member's shared service plan feeds one flattened Lindley
    solve; with RMW barriers the rows go through the two-phase fixpoint
    (:func:`_solve_two_phase`) as its P rows.  Per member, in disk
    order, a row declines on a non-monotone completion schedule or when
    the member's power timeline already extends past the row's first
    service start (the event path would raise mid-run appending to it);
    then on tied flight completions.
    """
    n_rows = times2d.shape[0]
    submit2d = np.repeat(times2d, plan.reps, axis=1)
    device, exp = plan.device, plan.exp
    reasons: List[Optional[str]] = [None] * n_rows
    link_end = None
    if exp is None:
        svc = plan.services[0]
        assert svc is not None
        fin2d = _solve_rows(submit2d, svc.seconds)
        schedules: List[Optional[_Schedule]] = [
            _Schedule(plan.rows[0], submit2d, fin2d, svc.watts, svc.apply_state)
        ]
    else:
        assert isinstance(device, DiskArray)
        n_pkgs = submit2d.shape[1]
        payload = plan.nbytes / device.enclosure.link_rate
        d_flat, l_flat = _solve_link_chain(
            submit2d.ravel(), device.enclosure.controller_overhead,
            np.tile(payload, n_rows), device._link_busy_until,
            _row_restarts(n_rows, n_pkgs),
        )
        d2d = d_flat.reshape(n_rows, n_pkgs)
        link_end = l_flat.reshape(n_rows, n_pkgs)[:, -1]
        if exp.has_pre:
            sub_fin2d, schedules, reasons = _solve_two_phase(plan, d2d)
        else:
            arrivals2d = d2d.take(exp.sub_flight, axis=1)
            sub_fin2d = np.empty((n_rows, exp.total), dtype=np.float64)
            schedules = []
            for rows, svc in zip(plan.rows, plan.services):
                if svc is None:
                    schedules.append(None)
                    continue
                a2d = arrivals2d.take(rows, axis=1)
                fin2d = _solve_rows(a2d, svc.seconds)
                sub_fin2d[:, rows] = fin2d
                schedules.append(
                    _Schedule(rows, a2d, fin2d, svc.watts, svc.apply_state)
                )
    lead = np.full((n_rows, 1), _NEG_INF)
    for member, s in zip(plan.members, schedules):
        if s is None:
            continue
        s.starts = np.maximum(
            s.submit, np.concatenate((lead, s.fin[:, :-1]), axis=1)
        )
        _decline(
            reasons, np.any(s.fin[:, 1:] < s.fin[:, :-1], axis=1),
            f"{member.name}: non-monotone completion schedule",
        )
        ends = member.timeline._ends
        if ends:
            _decline(
                reasons, s.starts[:, 0] < ends[-1] - 1e-12,
                f"{member.name}: power timeline extends past replay start",
            )
    if exp is None:
        # Single-server FIFO completes in row order (finish events are
        # scheduled in serving order, ties resolve by sequence), so the
        # monitor saw completions exactly in row order.
        fin, resp, nbytes = fin2d, fin2d - submit2d, plan.nbytes
    else:
        fin, resp, nbytes = _flight_completions(
            sub_fin2d, exp.flight_offsets, submit2d, plan.nbytes, reasons
        )
    return _Rows(fin, resp, nbytes, schedules, link_end, reasons)


def _queue_instants(
    schedules: List[Optional[_Schedule]], i: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Row ``i``'s queue-entry and queue-exit instants, merged across
    members and sorted (interval-frame queue depths)."""
    pushes = []
    pops = []
    for s in schedules:
        if s is None:
            continue
        submit, starts = s.submit[i], s.starts[i]
        queued = starts > submit
        if bool(np.any(queued)):
            pushes.append(submit[queued])
            pops.append(starts[queued])
    push = np.sort(np.concatenate(pushes)) if pushes else _EMPTY
    pop = np.sort(np.concatenate(pops)) if pops else _EMPTY
    return push, pop


def _commit(plan: _Plan, rows: _Rows) -> None:
    """Apply row 0's schedule to the live devices.

    Every device, queue and power-timeline mutation the event path would
    have made: each serving member's timeline segments, service-model
    cursor state, completion count, head hint, queue counters and
    high-water mark, then the array's counters and link busy-until.
    Infallible — :func:`_solve` declined every row it could not commit.
    """
    for member, s in zip(plan.members, rows.schedules):
        if s is None:
            continue
        submit, starts, fin = s.submit[0], s.starts[0], s.fin[0]
        order = _row(s.order, 0)
        member.timeline.extend_segments(starts, fin, _row(s.watts, 0))
        s.apply_state()
        member.completed_count += int(order.size)
        last = order[-1]
        member._head_hint = int(_end_sectors(plan.sector[last], plan.size[last]))
        queued = starts > submit
        push, pop = submit[queued], starts[queued]
        member._queue.pushed_total += int(push.size)
        member._queue.popped_total += int(push.size)
        if push.size:
            ranks = np.arange(1, push.size + 1, dtype=np.int64)
            high = int((ranks - np.searchsorted(pop, push, side="right")).max())
            if high > member.queued_high_water:
                member.queued_high_water = high
    if plan.exp is not None:
        device = plan.device
        assert isinstance(device, DiskArray) and rows.link_end is not None
        device.completed_count += int(plan.nbytes.size)
        device.subio_count += plan.exp.total
        device._link_busy_until = float(rows.link_end[0])


# ---------------------------------------------------------------------------
# Per-row assembly through the real samplers
# ---------------------------------------------------------------------------


def _tick_boundaries(t0: float, t_end: float, cycle: float) -> List[float]:
    """Fired sampling-tick instants, reproducing the event chain.

    Boundaries accumulate as Python floats (``b += cycle``) exactly like
    the rescheduling tick events; a tick landing at or after the final
    completion never fires (completions carry priority 0, ticks 10/11,
    and the run loop exits on the final completion).
    """
    bounds = [t0]
    b = t0
    while True:
        nb = b + cycle
        if nb >= t_end:
            break
        if nb <= b:
            raise _Fallback("sampling cycle vanishes below float resolution")
        bounds.append(nb)
        b = nb
        if len(bounds) > _MAX_WINDOWS:
            raise _Fallback("too many sampling windows for the kernel")
    return bounds


def _row_bounds(
    t0: float, end: float, cycle: float, stream_interval: float
) -> Tuple[List[float], Optional[List[float]]]:
    """A row's monitor ticks and, when streaming, its frame ticks."""
    frames = (
        _tick_boundaries(t0, end, stream_interval)
        if stream_interval > 0
        else None
    )
    return _tick_boundaries(t0, end, cycle), frames


def _window_cuts(bounds: List[float], fin: np.ndarray) -> np.ndarray:
    """Completion-array cut indices per window (boundary ties close the
    window: completion events outrank sampling ticks at equal times)."""
    edges = np.asarray(bounds[1:], dtype=np.float64)
    mid = np.searchsorted(fin, edges, side="right")
    return np.concatenate(([0], mid, [fin.size])).astype(np.int64)


def _perf_series(
    bounds: List[float],
    end: float,
    fin: np.ndarray,
    resp: np.ndarray,
    nbytes: np.ndarray,
) -> List[PerfSample]:
    cuts = _window_cuts(bounds, fin)
    resp_list = resp.tolist()
    byte_prefix = np.concatenate(([0], np.cumsum(nbytes)))
    starts = bounds
    ends = bounds[1:] + [end]
    samples: List[PerfSample] = []
    for i in range(len(starts)):
        a, b = int(cuts[i]), int(cuts[i + 1])
        s, e = starts[i], ends[i]
        cnt = b - a
        if e <= s and not cnt:
            continue  # the monitor's forced close flushes counts only
        samples.append(
            PerfSample(
                start=float(s),
                end=float(e),
                completed=int(cnt),
                total_bytes=int(byte_prefix[b] - byte_prefix[a]),
                total_response=float(sum(resp_list[a:b])),
            )
        )
    return samples


def _frame_series(
    bounds: List[float],
    end: float,
    fin: np.ndarray,
    resp: np.ndarray,
    nbytes: np.ndarray,
    push: np.ndarray,
    pop: np.ndarray,
    power_source,
) -> list:
    from ..telemetry.flightrec import get_flight_recorder
    from ..telemetry.registry import DEFAULT_TIME_BUCKETS
    from ..telemetry.stream import IntervalFrame

    buckets = tuple(float(b) for b in DEFAULT_TIME_BUCKETS)
    barr = np.asarray(buckets, dtype=np.float64)
    cuts = _window_cuts(bounds, fin)
    resp_list = resp.tolist()
    byte_prefix = np.concatenate(([0], np.cumsum(nbytes)))
    starts = bounds
    ends = bounds[1:] + [end]
    energies = power_source.energy_windows(
        np.asarray(starts, dtype=np.float64), np.asarray(ends, dtype=np.float64)
    ).tolist()
    flightrec = get_flight_recorder()
    frames = []
    for i in range(len(starts)):
        a, b = int(cuts[i]), int(cuts[i + 1])
        s, e = starts[i], ends[i]
        cnt = b - a
        if e <= s and not cnt:
            continue
        if cnt:
            counts = np.bincount(
                np.searchsorted(barr, resp[a:b], side="right"),
                minlength=barr.size + 1,
            )
        else:
            counts = np.zeros(barr.size + 1, dtype=np.int64)
        depth = int(
            np.searchsorted(push, e, side="right")
            - np.searchsorted(pop, e, side="right")
        )
        frame = IntervalFrame(
            index=len(frames),
            start=float(s),
            end=float(e),
            completed=int(cnt),
            total_bytes=int(byte_prefix[b] - byte_prefix[a]),
            response_sum=float(sum(resp_list[a:b])),
            energy_joules=energies[i],
            queue_depth=depth,
            latency_buckets=buckets,
            latency_counts=tuple(int(x) for x in counts),
        )
        frames.append(frame)
        flightrec.record(
            "stream.interval", frame.end,
            index=frame.index, completed=frame.completed,
            queue_depth=frame.queue_depth,
        )
    return frames


@dataclass
class KernelOutcome:
    """Everything the session needs to assemble a ``ReplayResult``."""

    end: float
    perf_samples: List[PerfSample]
    analyzer: PowerAnalyzer
    frames: list
    completed: int
    total_bytes: int
    total_response: float
    #: Per-request finish / response times in completion-event order —
    #: the same values the event-path monitor would have observed.
    finishes: Optional[np.ndarray] = None
    responses: Optional[np.ndarray] = None


def _outcome(
    rows: _Rows,
    i: int,
    bounds: Tuple[List[float], Optional[List[float]]],
    source,
    sampling_cycle: float,
    sensor=None,
) -> KernelOutcome:
    """Row ``i``'s sampled outputs, with ``source`` (a committed device,
    or a frozen view of the row) as the power source."""
    mon_bounds, frame_bounds = bounds
    fin, resp, nbytes = rows.fin[i], rows.resp[i], _row(rows.nbytes, i)
    end = float(fin[-1])
    perf_samples = _perf_series(mon_bounds, end, fin, resp, nbytes)
    analyzer = PowerAnalyzer(source, sampling_cycle=sampling_cycle, sensor=sensor)
    analyzer.record_windows(mon_bounds, end)
    frames = []
    if frame_bounds is not None:
        push, pop = _queue_instants(rows.schedules, i)
        frames = _frame_series(
            frame_bounds, end, fin, resp, nbytes, push, pop, source
        )
    return KernelOutcome(
        end=end,
        perf_samples=perf_samples,
        analyzer=analyzer,
        frames=frames,
        completed=sum(s.completed for s in perf_samples) + 0,
        total_bytes=sum(s.total_bytes for s in perf_samples) + 0,
        total_response=sum(s.total_response for s in perf_samples) + 0.0,
        finishes=fin,
        responses=resp,
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def try_kernel_replay(
    sim: Simulator,
    trace,
    device: StorageDevice,
    *,
    sampling_cycle: float,
    sensor=None,
    stream_interval: float = 0.0,
) -> Tuple[Optional[KernelOutcome], Optional[str]]:
    """Attempt the closed-form replay of ``trace`` against ``device``.

    The pipeline on one dispatch row starting at ``sim.now``, then
    :func:`_commit`.  Returns ``(outcome, None)`` on success — with all
    device, queue, and power-timeline state committed and the simulation
    clock advanced to the final completion — or ``(None, reason)`` when
    the configuration does not qualify, in which case *nothing* has been
    mutated and the caller must run the event engine.
    """
    reason = _qualify(trace, device)
    if reason is None and sim.pending:
        reason = "simulator calendar not empty"
    if reason is not None:
        return None, reason

    t0 = sim.now
    cycle = float(sampling_cycle)
    try:
        plan = _prepare(trace, device)
        rows = _solve(plan, (t0 + (trace.timestamps - trace.timestamps[0]))[None])
        if rows.reasons[0] is not None:
            raise _Fallback(rows.reasons[0])
        bounds = _row_bounds(
            t0, float(rows.fin[0, -1]), cycle, float(stream_interval)
        )
    except _Fallback as exc:
        return None, exc.reason

    # ---- Commit: infallible from here on. ----
    _commit(plan, rows)
    source = device.meter if isinstance(device, DiskArray) else device
    outcome = _outcome(rows, 0, bounds, source, cycle, sensor)
    sim.advance_to(outcome.end)
    return outcome, None
