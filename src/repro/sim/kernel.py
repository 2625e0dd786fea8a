"""Analytical (closed-form) replay kernel.

The event-driven replay path costs one heap pop per bunch dispatch plus
one per completion — for a 100k-bunch packed trace that is hundreds of
thousands of Python callbacks even though the *math* of a fault-free
FCFS replay is a handful of recurrences.  This module computes an entire
qualifying replay in bulk over the :class:`~repro.trace.packed.PackedTrace`
CSR arrays:

* bunch dispatch times (vectorised rebase, identical to
  :meth:`ReplayEngine.start`),
* the array controller's link-serialisation chain
  (``dispatch = max(arrival, link_busy) + overhead``),
* RAID-0/5/JBOD chunk expansion in closed form (bit-for-bit the
  :class:`~repro.storage.raid.RaidGeometry` loop),
* per-device FCFS queue waits via a segmented Lindley recurrence
  (``finish_k = max(submit_k, finish_{k-1}) + service_k``),
* per-request service times and Watts from each device model's
  vectorised ``service_times`` mirror,
* and the sampled outputs — :class:`~repro.replay.monitor.PerfSample`
  series, :class:`~repro.power.analyzer.PowerAnalyzer` windows, latency
  histograms, and :class:`~repro.telemetry.stream.IntervalFrame` series.

**Bit-identity is the contract.**  Every floating-point expression here
is ordered exactly as the event path orders it: seeded ``np.cumsum``
chains reproduce left-to-right scalar addition, ``np.maximum`` is a
selection (exact), window sums re-run the monitor's Python-float
accumulation over ``.tolist()`` slices, and the power analyzer /
interval recorder are fed through their *real* implementations after
the device timelines are committed.  Anything the closed form cannot
reproduce exactly — unsorted dispatch times, tied flight completions,
out-of-range requests (the event path raises mid-run), pathological
sampling cycles — raises :class:`_Fallback` *before any state is
mutated* and the caller falls back to the event engine.

The public entry point is :func:`try_kernel_replay`; qualification rules
are documented in ``docs/performance.md``.
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
from ..trace.record import READ
from ..units import SECTOR_BYTES
from .engine import Simulator

#: Segmented-solver refinement passes before falling back to the exact
#: scalar loop (each pass only ever *adds* idle-start heads, so ten
#: passes resolve all but adversarial arrival patterns).
_MAX_PASSES = 10

#: Two-phase RMW barrier fixpoint passes.  Each pass propagates one more
#: level of the pre-read -> parity-write dependency chain, so congested
#: write queues need more passes than the segmented refinements above
#: (a saturated 600-package stripe mix takes ~11); the fixpoint itself
#: is unique, so the cap only decides fuse-vs-fallback, never the
#: numbers.
_MAX_RMW_PASSES = 32

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
# Exact FCFS queue solver (Lindley recurrence)
# ---------------------------------------------------------------------------
#
# Both chain solvers below take an optional ``restart`` mask: independent
# chains concatenated end to end (one per grid cell), each starting over
# from ``prev`` at its marked position.  Point replay is the one-chain
# case; the grid solves its ``(P, n)`` matrices as one flattened call.


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


def _lindley_scalar(
    submit: np.ndarray,
    sv: np.ndarray,
    prev: float,
    restart: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Reference solver: the event path's arithmetic, request by request."""
    out = np.empty(submit.size, dtype=np.float64)
    cur = prev
    fresh = sequence_starts(submit.size, restart).tolist() if submit.size else []
    for i, (t, s) in enumerate(zip(submit.tolist(), sv.tolist())):
        if fresh[i]:
            cur = prev
        start = t if t > cur else cur
        cur = start + s
        out[i] = cur
    return out


def _eval_lindley_segments_loop(
    submit: np.ndarray,
    sv: np.ndarray,
    heads: np.ndarray,
    prev: float,
    fresh: np.ndarray,
) -> np.ndarray:
    """Per-segment reference evaluation (sequential over busy runs).

    Each segment [a, b) is a busy run: its first request starts at
    ``max(submit[a], previous finish)`` (exact selection) and the rest
    chain by seeded cumulative sum — the same left-to-right additions
    the scalar loop performs.  A ``fresh`` segment starts a new chain,
    so its previous finish is ``prev``.
    """
    n = submit.size
    f = np.empty(n, dtype=np.float64)
    cur = prev
    bounds = np.append(heads, n)
    for a, b, new in zip(
        bounds[:-1].tolist(), bounds[1:].tolist(), fresh.tolist()
    ):
        if new:
            cur = prev
        sa = submit[a]
        seed = sa if sa > cur else cur
        f[a:b] = np.cumsum(np.concatenate(([seed], sv[a:b])))[1:]
        cur = float(f[b - 1])
    return f


#: Batched evaluation eligibility: below this many segments the
#: per-segment loop's overhead is negligible (and it never needs
#: seed-repair waves).
_BATCH_MIN_SEGMENTS = 64

#: Seed-repair waves before falling back to the sequential loop.  Each
#: wave finalises at least one more segment of every chain of busy runs
#: that merge (a head whose submit lands inside the previous run), so
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


def _eval_lindley_segments(
    submit: np.ndarray,
    sv: np.ndarray,
    heads: np.ndarray,
    prev: float,
    fresh: np.ndarray,
) -> np.ndarray:
    """Evaluate finish times given idle-start positions ``heads``.

    Lightly loaded schedules split into tens of thousands of short busy
    runs, and a grid stack into at least one run per row; evaluating
    them one Python-loop iteration apiece dominates the solver.
    Instead, seed every segment at its own ``submit[a]`` (the true seed
    whenever the head is a genuine idle restart; ``max(submit[a],
    prev)`` for a ``fresh`` chain start) and evaluate all of them at
    once, one row-wise cumsum per length class (:func:`_run_blocks`) —
    the per-segment cumsum's exact additions, so the values are
    bit-identical.  Heads whose run actually merges with the previous
    one (``submit[a]`` below the previous run's finish) are then
    re-seeded at ``max(submit[a], previous finish)`` and re-evaluated —
    values only grow, and each wave finalises the next segment of every
    merge chain, so the iteration reaches the sequential evaluation's
    unique answer; if a pathological chain outlives the wave cap, fall
    back to the sequential loop.
    """
    n = submit.size
    if heads.size < _BATCH_MIN_SEGMENTS:
        return _eval_lindley_segments_loop(submit, sv, heads, prev, fresh)
    lens = np.diff(np.append(heads, n))
    f = np.empty(n, dtype=np.float64)
    seed = submit[heads].copy()
    seed[fresh] = np.maximum(seed[fresh], prev)

    def _runs(sel: np.ndarray) -> None:
        """(Re)evaluate the selected segments from their current seeds."""
        for rows, idx, keep in _run_blocks(heads[sel], lens[sel], n):
            block = np.empty((rows.size, idx.shape[1] + 1), dtype=np.float64)
            block[:, 0] = seed[sel[rows]]
            block[:, 1:] = sv[idx]
            f[idx[keep]] = np.cumsum(block, axis=1)[:, 1:][keep]

    _runs(np.arange(heads.size))
    linked = np.flatnonzero(~fresh)
    tails = heads[linked] - 1
    for _ in range(_MAX_SEED_WAVES):
        want = np.maximum(submit[heads[linked]], f[tails])
        moved = want != seed[linked]
        if not moved.any():
            return f
        stale = linked[moved]
        seed[stale] = want[moved]
        _runs(stale)
    return _eval_lindley_segments_loop(submit, sv, heads, prev, fresh)


def _solve_lindley(
    submit: np.ndarray,
    sv: np.ndarray,
    prev: float = _NEG_INF,
    restart: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Finish times of ``finish_k = max(submit_k, finish_{k-1}) + sv_k``.

    Bit-identical to the scalar recurrence, chain by chain when
    ``restart`` marks several.  O(1)-pass fast paths cover the common
    regimes (server never queues / a single chain's server never
    idles); otherwise idle-start heads are guessed from the arrival
    slack and refined until the evaluation is self-consistent, which by
    induction makes it exact.
    """
    n = submit.size
    if n == 0:
        return submit.astype(np.float64)
    is_start = sequence_starts(n, restart)
    # Fully-idle: every request starts at its own submit time.
    f_idle = submit + sv
    if bool(np.all(submit >= lag(f_idle, prev, is_start))):
        return f_idle
    starts = np.flatnonzero(is_start)
    # Fully-busy: one seeded cumsum.  Worth a try on a single chain (a
    # point replay's queue is often saturated); a stack of chains is
    # rarely busy in every row, and the general path's first pass
    # already takes a busy chain's start as its only head.
    if starts.size == 1:
        s0 = submit[0]
        seed0 = s0 if s0 > prev else prev
        f_busy = np.cumsum(np.concatenate(([seed0], sv)))[1:]
        if bool(np.all(submit[1:] <= f_busy[:-1])):
            return f_busy
    # General: guess heads from arrival slack, refine to fixpoint.
    is_head = _idle_heads(submit, sv, starts)
    for _ in range(_MAX_PASSES):
        heads = np.flatnonzero(is_head)
        f = _eval_lindley_segments(submit, sv, heads, prev, is_start[heads])
        viol = np.flatnonzero(submit > lag(f, np.inf, is_start))
        new = viol[~is_head[viol]]
        if new.size == 0:
            return f
        is_head[new] = True
    return _lindley_scalar(submit, sv, prev, is_start)


def _solve_rows(submit2d: np.ndarray, sv: np.ndarray) -> np.ndarray:
    """Lindley finishes of every row of ``submit2d`` from an idle server.

    One flattened :func:`_solve_lindley` call with a restart at each row
    start; ``sv`` is one service vector shared by every row or a
    matching ``(P, k)`` matrix.
    """
    n_rows, k = submit2d.shape
    sv_flat = np.tile(sv, n_rows) if sv.ndim == 1 else sv.ravel()
    return _solve_lindley(
        submit2d.ravel(), sv_flat, restart=_row_restarts(n_rows, k)
    ).reshape(n_rows, k)


# ---------------------------------------------------------------------------
# Exact link-serialisation solver (controller dispatch chain)
# ---------------------------------------------------------------------------


def _chain_scalar(
    t: np.ndarray,
    c: float,
    p: np.ndarray,
    prev: float,
    restart: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    d = np.empty(t.size, dtype=np.float64)
    link = np.empty(t.size, dtype=np.float64)
    cur = prev
    fresh = sequence_starts(t.size, restart).tolist() if t.size else []
    for i, (ti, pi) in enumerate(zip(t.tolist(), p.tolist())):
        if fresh[i]:
            cur = prev
        disp = ti if ti > cur else cur
        disp = disp + c
        d[i] = disp
        cur = disp + pi
        link[i] = cur
    return d, link


def _eval_chain_segments_loop(
    t: np.ndarray,
    c: float,
    p: np.ndarray,
    heads: np.ndarray,
    prev: float,
    fresh: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-segment reference evaluation of the dispatch chain.

    A busy run interleaves the per-request overhead and payload additions
    into one cumulative sum — element order ``seed, +c, +p_0, +c, +p_1…``
    matches the event path's ``dispatch += overhead; link = dispatch +
    payload`` exactly.
    """
    n = t.size
    d = np.empty(n, dtype=np.float64)
    link = np.empty(n, dtype=np.float64)
    cur = prev
    bounds = np.append(heads, n)
    for a, b, new in zip(
        bounds[:-1].tolist(), bounds[1:].tolist(), fresh.tolist()
    ):
        if new:
            cur = prev
        ta = t[a]
        seed = ta if ta > cur else cur
        m = b - a
        arr = np.empty(2 * m + 1, dtype=np.float64)
        arr[0] = seed
        arr[1::2] = c
        arr[2::2] = p[a:b]
        cs = np.cumsum(arr)
        d[a:b] = cs[1::2]
        link[a:b] = cs[2::2]
        cur = float(link[b - 1])
    return d, link


def _eval_chain_segments(
    t: np.ndarray,
    c: float,
    p: np.ndarray,
    heads: np.ndarray,
    prev: float,
    fresh: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate the dispatch chain given idle-link positions ``heads``.

    Same batched scheme as :func:`_eval_lindley_segments` (which see):
    segments are seeded independently at their own submit times and
    evaluated together, one interleaved ``seed, +c, +p_0, +c, +p_1…``
    row-wise cumsum per length class — the per-segment cumsum's exact
    additions — then heads that actually merge with the previous busy
    run are re-seeded and re-evaluated until the evaluation is
    self-consistent.
    """
    n = t.size
    if heads.size < _BATCH_MIN_SEGMENTS:
        return _eval_chain_segments_loop(t, c, p, heads, prev, fresh)
    lens = np.diff(np.append(heads, n))
    d = np.empty(n, dtype=np.float64)
    link = np.empty(n, dtype=np.float64)
    seed = t[heads].copy()
    seed[fresh] = np.maximum(seed[fresh], prev)

    def _runs(sel: np.ndarray) -> None:
        for rows, idx, keep in _run_blocks(heads[sel], lens[sel], n):
            block = np.empty((rows.size, 2 * idx.shape[1] + 1), dtype=np.float64)
            block[:, 0] = seed[sel[rows]]
            block[:, 1::2] = c
            block[:, 2::2] = p[idx]
            cs = np.cumsum(block, axis=1)
            at = idx[keep]
            d[at] = cs[:, 1::2][keep]
            link[at] = cs[:, 2::2][keep]

    _runs(np.arange(heads.size))
    linked = np.flatnonzero(~fresh)
    tails = heads[linked] - 1
    for _ in range(_MAX_SEED_WAVES):
        want = np.maximum(t[heads[linked]], link[tails])
        moved = want != seed[linked]
        if not moved.any():
            return d, link
        stale = linked[moved]
        seed[stale] = want[moved]
        _runs(stale)
    return _eval_chain_segments_loop(t, c, p, heads, prev, fresh)


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
    n = t.size
    if n == 0:
        empty = t.astype(np.float64)
        return empty, empty
    is_start = sequence_starts(n, restart)
    d_idle = t + c
    l_idle = d_idle + p
    if bool(np.all(t >= lag(l_idle, prev, is_start))):
        return d_idle, l_idle
    starts = np.flatnonzero(is_start)
    if starts.size == 1:
        d_busy, l_busy = _eval_chain_segments_loop(
            t, c, p, starts, prev, np.ones(1, dtype=bool)
        )
        if bool(np.all(t[1:] <= l_busy[:-1])):
            return d_busy, l_busy
    is_head = _idle_heads(t, c + p, starts)
    for _ in range(_MAX_PASSES):
        heads = np.flatnonzero(is_head)
        d, link = _eval_chain_segments(t, c, p, heads, prev, is_start[heads])
        viol = np.flatnonzero(t > lag(link, np.inf, is_start))
        new = viol[~is_head[viol]]
        if new.size == 0:
            return d, link
        is_head[new] = True
    return _chain_scalar(t, c, p, prev, is_start)


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


def _qualify_device(device: StorageDevice, trace: PackedTrace) -> Optional[str]:
    """None if the target qualifies for the analytical kernel.

    Checks run in a documented, deterministic order so the recorded
    fallback reason is stable when several apply: array-level structure
    first (subclass, empty enclosure, instrumentation, degraded state,
    RAID level), then the member disks in disk-index order.  A RAID-5
    array that cannot take the kernel for a structural reason therefore
    reports *that* reason — never whichever member check happens to
    fire first (see ``tests/sim/test_kernel.py``).
    """
    if isinstance(device, DiskArray):
        if type(device) is not DiskArray:
            return f"array subclass {type(device).__name__}"
        if device.geometry is None:
            return "array has no disks installed"
        if "_plan" in device.__dict__:
            return "telemetry-instrumented array"
        if device.failed_disk is not None or device.rebuilding:
            return "array degraded or rebuilding"
        level = device.geometry.level
        if level not in (RaidLevel.JBOD, RaidLevel.RAID0, RaidLevel.RAID5):
            # RAID-1/10 round-robin mirror reads through planner state.
            return f"raid level {level.value} mutates planner state"
        for disk in device.disks:
            reason = _qualify_member(disk)
            if reason is not None:
                return f"{disk.name}: {reason}"
        return None
    if isinstance(device, QueuedDevice):
        reason = _qualify_member(device)
        if reason is not None:
            return f"{device.name}: {reason}"
        return None
    return f"device model {type(device).__name__} has no kernel contract"


# ---------------------------------------------------------------------------
# Schedule computation (pure — all mutations deferred to commit closures)
# ---------------------------------------------------------------------------


@dataclass
class _Computed:
    """A fully-solved replay schedule, ready to commit.

    ``fin``/``resp``/``nbytes`` are in *completion-event order* (the
    order the monitor saw completions on the event path); ``push`` /
    ``pop`` are the merged, sorted queue-entry and queue-exit instants
    across all members (for interval-frame queue depths).  ``commit``
    performs every device/timeline mutation the event path would have
    made — it must be infallible.
    """

    end: float
    fin: np.ndarray
    resp: np.ndarray
    nbytes: np.ndarray
    push: np.ndarray
    pop: np.ndarray
    commit: Callable[[], None]


def _dispatch_times(trace: PackedTrace, t0: float) -> np.ndarray:
    """Per-package submit instants — the packed engine's rebased bunch
    times, repeated across each bunch's rows."""
    times = t0 + (trace.timestamps - trace.timestamps[0])
    if times.size > 1 and bool(np.any(np.diff(times) < 0)):
        raise _Fallback("unsorted bunch timestamps reorder dispatch")
    return np.repeat(times, np.diff(trace.offsets))


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


def _check_timeline_clear(dev: QueuedDevice, first_start: float) -> None:
    """The event path appends segments after the timeline's last end;
    a stale timeline would make it raise mid-run — fall back instead."""
    ends = dev.timeline._ends
    if ends and first_start < ends[-1] - 1e-12:
        raise _Fallback(f"{dev.name}: power timeline extends past replay start")


def _service_plan(
    dev: QueuedDevice,
    sectors: np.ndarray,
    nbytes: np.ndarray,
    ops: np.ndarray,
    restart: Optional[np.ndarray] = None,
) -> VectorService:
    """``dev.service_times`` with model refusals turned into fallbacks."""
    try:
        return dev.service_times(sectors, nbytes, ops, restart)  # type: ignore[attr-defined]
    except StorageIOError as exc:
        raise _Fallback(str(exc))


def _serve_fifo(
    dev: QueuedDevice,
    submit: np.ndarray,
    sectors: np.ndarray,
    nbytes: np.ndarray,
    ops: np.ndarray,
    solved: Optional[Tuple[np.ndarray, np.ndarray, Callable[[], None]]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Callable[[], None]]:
    """Solve one member device's FCFS service sequence.

    ``solved`` hands in ``(fin, watts, apply_state)`` for a schedule the
    RMW fixpoint already solved; otherwise the service plan and the
    Lindley finishes are computed here.  Returns ``(fin, starts,
    push_times, pop_times, commit)``; commit applies the device-model
    cursor state, queue counters, completion count, head hint, and the
    power-timeline segments.
    """
    if solved is None:
        svc = _service_plan(dev, sectors, nbytes, ops)
        solved = (_solve_lindley(submit, svc.seconds), svc.watts, svc.apply_state)
    fin, watts, apply_model = solved
    if bool(np.any(np.diff(fin) < 0)):
        raise _Fallback(f"{dev.name}: non-monotone completion schedule")
    starts = np.maximum(submit, lag(fin, _NEG_INF))
    _check_timeline_clear(dev, float(starts[0]))
    queued = starts > submit
    push = submit[queued]
    pop = starts[queued]
    high = 0
    if push.size:
        ranks = np.arange(1, push.size + 1, dtype=np.int64)
        high = int((ranks - np.searchsorted(pop, push, side="right")).max())
    n = int(submit.size)
    n_queued = int(push.size)
    end_sectors = sectors + -(-nbytes // SECTOR_BYTES)
    if int(end_sectors.max()) > dev.capacity_sectors:
        raise _Fallback(f"{dev.name}: request beyond capacity")
    last_end = int(end_sectors[-1])

    def commit() -> None:
        dev.timeline.extend_segments(starts, fin, watts)
        apply_model()
        dev.completed_count += n
        dev._head_hint = last_end
        dev._queue.pushed_total += n_queued
        dev._queue.popped_total += n_queued
        if high > dev.queued_high_water:
            dev.queued_high_water = high

    return fin, starts, push, pop, commit


def _compute_single(
    trace: PackedTrace, device: QueuedDevice, t0: float
) -> _Computed:
    submit = _dispatch_times(trace, t0)
    sectors, nbytes, ops = _columns(trace)
    fin, _starts, push, pop, commit = _serve_fifo(
        device, submit, sectors, nbytes, ops
    )
    # Single-server FIFO completes in row order (finish events are
    # scheduled in serving order, ties resolve by sequence), so the
    # monitor saw completions exactly in row order.
    resp = fin - submit
    return _Computed(
        end=float(fin[-1]),
        fin=fin,
        resp=resp,
        nbytes=nbytes,
        push=push,
        pop=pop,
        commit=commit,
    )


def _disk_rows(sub_disk: np.ndarray, n_disks: int) -> List[np.ndarray]:
    """Each member's sub-I/O indices in plan order — the member queue's
    arrival order whenever every sub-I/O is issued at dispatch."""
    order = np.argsort(sub_disk, kind="stable")
    cuts = np.searchsorted(
        sub_disk[order], np.arange(n_disks + 1, dtype=np.int64)
    ).tolist()
    return [order[cuts[di]:cuts[di + 1]] for di in range(n_disks)]


def _noop() -> None:
    return None


@dataclass
class _Served:
    """One member's converged FCFS schedule, one row per dispatch row.

    Columns run in the member's serving (arrival) order: ``order`` holds
    the sub-I/O indices, ``submit``/``fin`` their queue-entry and finish
    instants, ``watts`` the service plan's mean Watts.  ``apply_state``
    commits the device cursor state of the most recently planned row —
    for a single row, the state its converged serving order leaves.
    """

    order: np.ndarray
    submit: np.ndarray
    fin: np.ndarray
    watts: np.ndarray
    apply_state: Callable[[], None] = _noop


def _solve_two_phase(
    device: DiskArray,
    exp: FlightExpansion,
    dispatch: np.ndarray,
) -> Tuple[np.ndarray, List[Optional[_Served]], List[Optional[str]]]:
    """Solve the per-flight two-phase (RMW) barrier to a verified fixpoint.

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
    Exact float convergence of the arrival vector means the evaluated
    schedule is self-consistent, and causality (service times are
    positive, posts issue strictly after their pre reads) makes the
    event engine's schedule the *unique* fixpoint — so the converged
    arrivals are bit-identical to the event path's.

    ``dispatch`` holds ``P`` independent rows of flight dispatch
    instants — one per grid cell; point replay passes one row.  Every
    pass solves all still-active rows of a member at once (one argsort,
    one service plan and one Lindley solve, flattened with a restart
    per row), with three exact shortcuts: a row whose post arrivals at
    a member did not move keeps its finishes, a row whose serving
    *order* did not change reuses its service plan (service depends
    only on the request sequence, never on the clock), and a converged
    row — a fixpoint of a deterministic map — retires from the pass.

    Returns ``(sub_fin, served, reasons)``: ``(P, total)`` sub-I/O
    finish times in plan order, one :class:`_Served` per member
    (``None`` for a member that serves nothing), and per row the reason
    the closed form cannot reproduce it (``None`` when it can): a
    service-model refusal, non-convergence, or arrival ties the event
    calendar would break by schedule sequence numbers (two RMW barriers
    releasing at one instant).
    """
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
    disk_rows = _disk_rows(exp.disk, len(device.disks))
    # Flights whose post arrival lands in each member's queue.
    feeds = [sub_flight[rows[post_mask[rows]]] for rows in disk_rows]

    sub_fin = np.empty((n_rows, exp.total), dtype=np.float64)
    # Each member's serving order and plan Watts; the arrival and finish
    # columns are gathered once the rows have converged.
    served: List[Optional[_Served]] = [
        _Served(
            np.zeros((n_rows, rows.size), dtype=np.int64),
            _EMPTY,
            _EMPTY,
            np.empty((n_rows, rows.size), dtype=np.float64),
        )
        if rows.size
        else None
        for rows in disk_rows
    ]
    base = dispatch.take(sub_flight, axis=1)
    post = dispatch.copy()
    act = np.arange(n_rows)
    # Active rows only: each member's current service seconds, and which
    # flights' post arrivals moved in the previous pass.
    seconds: List[Optional[np.ndarray]] = [None] * len(disk_rows)
    moved: Optional[np.ndarray] = None
    try:
        for _ in range(_MAX_RMW_PASSES):
            arr = base[act]
            arr[:, post_idx] = post[act].take(post_at, axis=1)
            for di, rows in enumerate(disk_rows):
                s = served[di]
                if s is None:
                    continue
                k = rows.size
                if moved is None:
                    redo = np.arange(act.size)
                else:
                    redo = np.flatnonzero(moved[:, feeds[di]].any(axis=1))
                    if not redo.size:
                        continue
                a2d = arr.take(rows, axis=1)[redo]
                srt = np.argsort(a2d, axis=1, kind="stable")
                perm = rows[srt]
                ri = act[redo]
                if moved is None:
                    seconds[di] = np.empty((act.size, k), dtype=np.float64)
                    replan = np.ones(redo.size, dtype=bool)
                else:
                    replan = (perm != s.order[ri]).any(axis=1)
                if replan.any():
                    pp = perm[replan].ravel()
                    svc = device.disks[di].service_times(
                        exp.sector.take(pp), exp.nbytes.take(pp),
                        exp.op.take(pp), _row_restarts(int(replan.sum()), k),
                    )
                    seconds[di][redo[replan]] = svc.seconds.reshape(-1, k)
                    s.watts[ri[replan]] = svc.watts.reshape(-1, k)
                    s.apply_state = svc.apply_state
                s.order[ri] = perm
                # Flat positions into the (redo, k) block: ``take`` on
                # flat indices beats 2-D fancy indexing.
                srt += np.arange(0, srt.size, k)[:, None]
                fin = _solve_rows(a2d.take(srt), seconds[di][redo])
                np.put(sub_fin, ri[:, None] * exp.total + perm, fin)
            new_post = dispatch[act]
            new_post[:, pre_flights] = np.maximum.reduceat(
                sub_fin[act].take(pre_idx, axis=1), pre_seg, axis=1
            )
            moved = new_post != post[act]
            post[act] = new_post
            live = moved.any(axis=1)
            act, moved = act[live], moved[live]
            seconds = [None if sec is None else sec[live] for sec in seconds]
            if not act.size:
                break
        stuck = "rmw barrier schedule did not converge"
    except StorageIOError as exc:
        stuck = str(exc)
    reasons: List[Optional[str]] = [None] * n_rows
    for i in act.tolist():
        reasons[i] = stuck
    base[:, post_idx] = post.take(post_at, axis=1)
    cell = np.arange(n_rows)[:, None]
    for s in served:
        if s is not None:
            s.submit = base[cell, s.order]
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
        bad = np.any(tied & cross & ~benign, axis=1)
        for i in np.flatnonzero(bad).tolist():
            if reasons[i] is None:
                reasons[i] = "tied sub-I/O arrival times"
    return sub_fin, served, reasons


def _compute_array(trace: PackedTrace, device: DiskArray, t0: float) -> _Computed:
    geom = device.geometry
    assert geom is not None
    submit = _dispatch_times(trace, t0)
    sectors, nbytes, ops = _columns(trace)
    end_sectors = sectors + -(-nbytes // SECTOR_BYTES)
    if int(end_sectors.max()) > geom.capacity_sectors:
        raise _Fallback("request beyond array capacity")

    # Controller dispatch: overhead plus host-link payload serialisation.
    overhead = device.enclosure.controller_overhead
    payload = nbytes / device.enclosure.link_rate
    dispatch, link = _solve_link_chain(
        submit, overhead, payload, device._link_busy_until
    )

    exp = expand_flights(geom, sectors, nbytes, ops)
    flight_offsets = exp.flight_offsets
    sub_sector, sub_nbytes, sub_op = exp.sector, exp.nbytes, exp.op
    total = exp.total
    commits: List[Callable[[], None]] = []
    pushes: List[np.ndarray] = []
    pops: List[np.ndarray] = []
    if exp.has_pre:
        # RAID-5 read-modify-write: post writes barrier on their pre
        # reads.  Solve the barrier fixpoint, then commit each member's
        # converged schedule as solved.
        sub_fin2d, served, reasons = _solve_two_phase(
            device, exp, dispatch[None, :]
        )
        if reasons[0] is not None:
            raise _Fallback(reasons[0])
        sub_fin = sub_fin2d[0]
        schedules = [
            (disk, s.order[0], s.submit[0], (s.fin[0], s.watts[0], s.apply_state))
            for disk, s in zip(device.disks, served)
            if s is not None
        ]
    else:
        # Per-disk FCFS service in flight/plan order — the member
        # queue's arrival order.
        arrivals = dispatch[exp.sub_flight]
        sub_fin = np.empty(total, dtype=np.float64)
        schedules = [
            (disk, rows, arrivals[rows], None)
            for disk, rows in zip(
                device.disks, _disk_rows(exp.disk, len(device.disks))
            )
            if rows.size
        ]
    for disk, rows, arrive, solved in schedules:
        fin, _starts, push, pop, commit = _serve_fifo(
            disk, arrive, sub_sector[rows], sub_nbytes[rows], sub_op[rows],
            solved,
        )
        sub_fin[rows] = fin
        commits.append(commit)
        if push.size:
            pushes.append(push)
            pops.append(pop)

    # A flight completes when its last sub-I/O finishes.  Tied flight
    # finish times would make the monitor's accumulation order depend
    # on event sequence numbers — the closed form cannot reproduce
    # that, so such schedules fall back.
    fl_fin = np.maximum.reduceat(sub_fin, flight_offsets[:-1])
    if np.unique(fl_fin).size != fl_fin.size:
        raise _Fallback("tied flight completion times")
    comp_order = np.argsort(fl_fin, kind="stable")
    fin_ev = fl_fin[comp_order]
    resp_ev = (fl_fin - submit)[comp_order]
    bytes_ev = nbytes[comp_order]

    push_all = (
        np.sort(np.concatenate(pushes))
        if pushes
        else np.empty(0, dtype=np.float64)
    )
    pop_all = (
        np.sort(np.concatenate(pops)) if pops else np.empty(0, dtype=np.float64)
    )
    n_flights = int(submit.size)
    link_end = float(link[-1])

    def commit() -> None:
        for one in commits:
            one()
        device.completed_count += n_flights
        device.subio_count += total
        device._link_busy_until = link_end

    return _Computed(
        end=float(fin_ev[-1]),
        fin=fin_ev,
        resp=resp_ev,
        nbytes=bytes_ev,
        push=push_all,
        pop=pop_all,
        commit=commit,
    )


# ---------------------------------------------------------------------------
# Sampled-output synthesis
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


def _window_cuts(bounds: List[float], fin: np.ndarray) -> np.ndarray:
    """Completion-array cut indices per window (boundary ties close the
    window: completion events outrank sampling ticks at equal times)."""
    edges = np.asarray(bounds[1:], dtype=np.float64)
    mid = np.searchsorted(fin, edges, side="right")
    return np.concatenate(([0], mid, [fin.size])).astype(np.int64)


def _perf_series(
    bounds: List[float], end: float, comp: _Computed
) -> List[PerfSample]:
    cuts = _window_cuts(bounds, comp.fin)
    resp_list = comp.resp.tolist()
    byte_prefix = np.concatenate(([0], np.cumsum(comp.nbytes)))
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


def _power_windows(
    analyzer: PowerAnalyzer, bounds: List[float], end: float
) -> None:
    """Replay the analyzer's sampling windows through its real
    ``_record_window`` (same sensor-read order, same energy queries)."""
    ends = bounds[1:] + [end]
    for a, b in zip(bounds, ends):
        analyzer._record_window(a, b)


def _frame_series(
    bounds: List[float],
    end: float,
    comp: _Computed,
    power_source,
) -> list:
    from ..telemetry.flightrec import get_flight_recorder
    from ..telemetry.registry import DEFAULT_TIME_BUCKETS
    from ..telemetry.stream import IntervalFrame

    buckets = tuple(float(b) for b in DEFAULT_TIME_BUCKETS)
    barr = np.asarray(buckets, dtype=np.float64)
    cuts = _window_cuts(bounds, comp.fin)
    resp_list = comp.resp.tolist()
    byte_prefix = np.concatenate(([0], np.cumsum(comp.nbytes)))
    starts = bounds
    ends = bounds[1:] + [end]
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
                np.searchsorted(barr, comp.resp[a:b], side="right"),
                minlength=barr.size + 1,
            )
        else:
            counts = np.zeros(barr.size + 1, dtype=np.int64)
        energy = (
            power_source.energy_between(s, e) if power_source is not None else 0.0
        )
        depth = int(
            np.searchsorted(comp.push, e, side="right")
            - np.searchsorted(comp.pop, e, side="right")
        )
        frame = IntervalFrame(
            index=len(frames),
            start=float(s),
            end=float(e),
            completed=int(cnt),
            total_bytes=int(byte_prefix[b] - byte_prefix[a]),
            response_sum=float(sum(resp_list[a:b])),
            energy_joules=float(energy),
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


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


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

    Returns ``(outcome, None)`` on success — with all device, queue,
    and power-timeline state committed and the simulation clock
    advanced to the final completion — or ``(None, reason)`` when the
    configuration does not qualify, in which case *nothing* has been
    mutated and the caller must run the event engine.
    """
    from ..telemetry import get_registry

    if get_registry().enabled:
        return None, "telemetry registry enabled"
    if not isinstance(trace, PackedTrace):
        return None, "object-trace replay"
    if sim.pending:
        return None, "simulator calendar not empty"
    reason = _qualify_device(device, trace)
    if reason is not None:
        return None, reason

    t0 = sim.now
    try:
        if isinstance(device, DiskArray):
            comp = _compute_array(trace, device, t0)
        else:
            comp = _compute_single(trace, device, t0)  # type: ignore[arg-type]
        mon_bounds = _tick_boundaries(t0, comp.end, float(sampling_cycle))
        frame_bounds = (
            _tick_boundaries(t0, comp.end, float(stream_interval))
            if stream_interval > 0
            else None
        )
    except _Fallback as exc:
        return None, exc.reason

    # ---- Commit: infallible from here on. ----
    comp.commit()
    perf_samples = _perf_series(mon_bounds, comp.end, comp)
    source = device.meter if isinstance(device, DiskArray) else device
    analyzer = PowerAnalyzer(
        source, sampling_cycle=float(sampling_cycle), sensor=sensor
    )
    _power_windows(analyzer, mon_bounds, comp.end)
    frames = (
        _frame_series(frame_bounds, comp.end, comp, source)
        if frame_bounds is not None
        else []
    )
    completed = sum(s.completed for s in perf_samples) + 0
    total_bytes = sum(s.total_bytes for s in perf_samples) + 0
    total_response = sum(s.total_response for s in perf_samples) + 0.0
    sim.advance_to(comp.end)
    return (
        KernelOutcome(
            end=comp.end,
            perf_samples=perf_samples,
            analyzer=analyzer,
            frames=frames,
            completed=completed,
            total_bytes=total_bytes,
            total_response=total_response,
            finishes=comp.fin,
            responses=comp.resp,
        ),
        None,
    )
