"""Power/energy accounting primitives.

:class:`PowerTimeline` is how every simulated device reports its power
draw: the device appends *busy segments* — ``(start, end, watts)`` — as
it serves requests, and time not covered by a segment is billed at a
(piecewise-constant) baseline power.  Queries integrate energy over
arbitrary windows, which is exactly the operation a sampling power meter
performs.

Segments must be appended in non-decreasing start order and must not
overlap (devices serve serially); this keeps queries O(log n) via
prefix sums, per the HPC guide's advice to precompute instead of
re-scanning.

Segment columns are ``array("d")`` buffers: appends and ``bisect``
queries cost about what lists cost, a bulk append is one memory copy,
and NumPy reads them without a copy.  :class:`FrozenTimeline` is the
one vectorized window integrator every energy source shares.
"""

from __future__ import annotations

import bisect
import math
from array import array
from typing import List

import numpy as np

from ..errors import PowerAnalyzerError


class PowerTimeline:
    """Append-only record of busy power segments over a baseline.

    Parameters
    ----------
    baseline_watts:
        Power drawn whenever no busy segment covers an instant (idle
        power).  Can be changed over time with :meth:`set_baseline`
        (used by spin-down policies).
    """

    def __init__(self, baseline_watts: float) -> None:
        if baseline_watts < 0:
            raise PowerAnalyzerError(
                f"baseline power must be >= 0, got {baseline_watts}"
            )
        # Busy segments, time-ordered and non-overlapping.
        self._starts = array("d")
        self._ends = array("d")
        self._watts = array("d")
        self._cum_excess = array("d", [0.0])  # prefix sums of (w - baseline)*dt
        # Baseline power changes: (time, watts); first entry covers -inf.
        self._base_times: List[float] = [0.0]
        self._base_watts: List[float] = [baseline_watts]

    @property
    def segment_count(self) -> int:
        return len(self._starts)

    def set_baseline(self, time: float, watts: float) -> None:
        """Change the baseline power from ``time`` onward."""
        if watts < 0:
            raise PowerAnalyzerError(f"baseline power must be >= 0, got {watts}")
        if time < self._base_times[-1]:
            raise PowerAnalyzerError(
                f"baseline change at {time} precedes previous at "
                f"{self._base_times[-1]}"
            )
        if time == self._base_times[-1]:
            self._base_watts[-1] = watts
        else:
            self._base_times.append(time)
            self._base_watts.append(watts)

    def _baseline_energy(self, t0: float, t1: float) -> float:
        """Integral of the piecewise-constant baseline over [t0, t1]."""
        times = self._base_times
        watts = self._base_watts
        if len(times) == 1:
            # The walk below in one step: ``0.0 + w * (t1 - t0)``.
            return watts[0] * (t1 - t0) if t0 < t1 else 0.0
        energy = 0.0
        # Index of the baseline level in force at t0.
        i = bisect.bisect_right(times, t0) - 1
        i = max(i, 0)
        cursor = t0
        while cursor < t1:
            seg_end = times[i + 1] if i + 1 < len(times) else t1
            upto = min(seg_end, t1)
            energy += watts[i] * (upto - cursor)
            cursor = upto
            i += 1
        return energy

    def baseline_watts_at(self, time: float) -> float:
        """Baseline (idle) power in force at ``time``."""
        i = bisect.bisect_right(self._base_times, time) - 1
        return self._base_watts[max(i, 0)]

    def add_segment(self, start: float, end: float, watts: float) -> None:
        """Append a busy segment drawing ``watts`` total during [start, end].

        ``watts`` is *total* device power during the segment (not an
        increment over idle); zero-length segments are ignored.
        """
        if end < start:
            raise PowerAnalyzerError(f"segment end {end} precedes start {start}")
        if watts < 0:
            raise PowerAnalyzerError(f"segment power must be >= 0, got {watts}")
        if end == start:
            return
        if self._starts and start < self._ends[-1] - 1e-12:
            raise PowerAnalyzerError(
                f"segment at {start} overlaps previous ending {self._ends[-1]}"
            )
        self._starts.append(start)
        self._ends.append(end)
        self._watts.append(watts)
        base = self._baseline_energy(start, end)
        excess = watts * (end - start) - base
        self._cum_excess.append(self._cum_excess[-1] + excess)

    def extend_segments(self, starts, ends, watts) -> None:
        """Bulk-append many busy segments (the analytical kernel's path).

        Semantically identical to calling :meth:`add_segment` once per
        row in order — same validation, same arithmetic (the prefix-sum
        chain is seeded with the current cumulative excess, so every
        float matches the sequential path bit for bit).  Requires a
        single-level baseline; timelines whose baseline has changed
        (spin-down) fall back to the per-segment loop.
        """
        starts = np.ascontiguousarray(starts, dtype=np.float64)
        ends = np.ascontiguousarray(ends, dtype=np.float64)
        watts = np.ascontiguousarray(watts, dtype=np.float64)
        if len(self._base_times) > 1:
            for s, e, w in zip(starts.tolist(), ends.tolist(), watts.tolist()):
                self.add_segment(s, e, w)
            return
        if starts.size == 0:
            return
        durations = ends - starts
        if np.any(durations < 0):
            i = int(np.argmax(durations < 0))
            raise PowerAnalyzerError(
                f"segment end {ends[i]} precedes start {starts[i]}"
            )
        if np.any(watts < 0):
            raise PowerAnalyzerError(
                f"segment power must be >= 0, got {watts[watts < 0][0]}"
            )
        keep = durations > 0  # zero-length segments are ignored
        if not keep.all():
            starts = starts[keep]
            ends = ends[keep]
            watts = watts[keep]
            durations = durations[keep]
            if starts.size == 0:
                return
        if self._starts and starts[0] < self._ends[-1] - 1e-12:
            raise PowerAnalyzerError(
                f"segment at {starts[0]} overlaps previous ending "
                f"{self._ends[-1]}"
            )
        if np.any(starts[1:] < ends[:-1] - 1e-12):
            i = int(np.argmax(starts[1:] < ends[:-1] - 1e-12)) + 1
            raise PowerAnalyzerError(
                f"segment at {starts[i]} overlaps previous ending {ends[i - 1]}"
            )
        # Single-level baseline: per-segment baseline energy is exactly
        # ``0.0 + base_watts * (end - start)`` — the one-iteration walk
        # _baseline_energy performs.
        base = self._base_watts[0] * durations
        excess = watts * durations - base
        cum = np.cumsum(np.concatenate(([self._cum_excess[-1]], excess)))
        self._starts.frombytes(starts.tobytes())
        self._ends.frombytes(ends.tobytes())
        self._watts.frombytes(watts.tobytes())
        self._cum_excess.frombytes(cum[1:].tobytes())

    def _excess_upto(self, t: float) -> float:
        """Cumulative excess energy of segments (or parts) before time t."""
        idx = bisect.bisect_right(self._starts, t)
        total = self._cum_excess[idx]
        # The segment at idx-1 may extend past t; subtract the tail.
        if idx > 0 and self._ends[idx - 1] > t:
            start = self._starts[idx - 1]
            end = self._ends[idx - 1]
            watts = self._watts[idx - 1]
            tail_base = self._baseline_energy(t, end)
            tail_excess = watts * (end - t) - tail_base
            total -= tail_excess
        return total

    def energy_between(self, t0: float, t1: float) -> float:
        """Energy in Joules consumed during [t0, t1]."""
        if t1 < t0:
            raise PowerAnalyzerError(f"window end {t1} precedes start {t0}")
        if t1 == t0:
            return 0.0
        base = self._baseline_energy(t0, t1)
        return base + self._excess_upto(t1) - self._excess_upto(t0)

    def energy_windows(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """Joules in each window ``[t0[i], t1[i]]``: elementwise
        :meth:`energy_between`, bit for bit, in one vectorized pass."""
        if np.any(t1 < t0):
            raise PowerAnalyzerError("a window end precedes its start")
        if len(self._base_times) > 1:
            return _scalar_windows(self, t0, t1)  # multi-level baseline
        # Transient zero-copy views: an exporting array cannot grow.
        return FrozenTimeline(
            *(np.frombuffer(c, dtype=np.float64) for c in (
                self._starts, self._ends, self._watts, self._cum_excess
            )),
            self._base_watts[0],
        ).energy_windows(t0, t1)

    def power_at(self, time: float) -> float:
        """Instantaneous Watts at ``time``: segment power if a busy
        segment covers the instant, the baseline otherwise."""
        idx = bisect.bisect_right(self._starts, time)
        if idx > 0 and self._ends[idx - 1] > time:
            return self._watts[idx - 1]
        return self.baseline_watts_at(time)

    def mean_power(self, t0: float, t1: float) -> float:
        """Average Watts over [t0, t1]."""
        if t1 <= t0:
            return self.baseline_watts_at(t0)
        if t1 - t0 < 16.0 * math.ulp(max(abs(t0), abs(t1), 1.0)):
            # The excess-energy difference in energy_between carries
            # ~1 ULP of the *cumulative* totals; divided by a window at
            # float resolution that is watts-scale noise (it can even
            # go negative).  The honest answer at that width is the
            # instantaneous power.
            return self.power_at(t0)
        return self.energy_between(t0, t1) / (t1 - t0)

    def busy_time(self, t0: float, t1: float) -> float:
        """Total busy-segment time overlapping [t0, t1] (utilisation)."""
        if not self._starts or t1 <= t0:
            return 0.0
        starts = np.asarray(self._starts)
        ends = np.asarray(self._ends)
        overlap = np.minimum(ends, t1) - np.maximum(starts, t0)
        return float(np.clip(overlap, 0.0, None).sum())


def _scalar_windows(source, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """``energy_windows`` as one ``energy_between`` call per window."""
    pairs = zip(t0.tolist(), t1.tolist())
    return np.array([source.energy_between(a, b) for a, b in pairs], dtype=float)


class FrozenTimeline:
    """Read-only timeline over NumPy segment columns (``cum``: prefix
    sums of each segment's excess over ``base_watts``, leading 0.0).

    :meth:`energy_windows` evaluates :meth:`PowerTimeline.energy_between`
    elementwise in the same operand order — ``searchsorted(side="right")``
    for ``bisect_right``, ``cum[idx]`` less the tail of a straddling
    segment, ``base + up(t1) - up(t0)``, 0.0 for an empty window — so
    each element equals the scalar query bit for bit.
    """

    __slots__ = ("starts", "ends", "watts", "cum", "base_watts")

    def __init__(self, starts, ends, watts, cum, base_watts: float) -> None:
        self.starts = starts
        self.ends = ends
        self.watts = watts
        self.cum = cum
        self.base_watts = base_watts

    def _excess_upto(self, t: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.starts, t, side="right")
        total = self.cum[idx]
        prev = idx - 1
        tail = idx > 0
        tail[tail] = self.ends[prev[tail]] > t[tail]
        if tail.any():
            i = prev[tail]
            span = self.ends[i] - t[tail]
            total[tail] -= self.watts[i] * span - self.base_watts * span
        return total

    def energy_windows(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """Joules in each window ``[t0[i], t1[i]]``."""
        upto = self._excess_upto(np.concatenate((t1, t0)))  # one pass
        energy = self.base_watts * (t1 - t0) + upto[:t1.size] - upto[t1.size:]
        energy[t1 == t0] = 0.0
        return energy

    def energy_between(self, t0: float, t1: float) -> float:
        return float(self.energy_windows(np.array([t0]), np.array([t1]))[0])


class EnergyMeter:
    """Aggregates several timelines plus a constant overhead into one view.

    A disk array's power is the sum of its disks' timelines plus the
    non-disk components (controller, fans, backplane) — Section VI-A.
    """

    def __init__(self, timelines: List[PowerTimeline], overhead_watts: float = 0.0):
        if overhead_watts < 0:
            raise PowerAnalyzerError(
                f"overhead power must be >= 0, got {overhead_watts}"
            )
        self.timelines = list(timelines)
        self.overhead_watts = float(overhead_watts)

    def energy_between(self, t0: float, t1: float) -> float:
        total = self.overhead_watts * (t1 - t0)
        for timeline in self.timelines:
            total += timeline.energy_between(t0, t1)
        return total

    def energy_windows(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """Elementwise :meth:`energy_between`: the same overhead term,
        then each member's windows added in member order."""
        total = self.overhead_watts * (t1 - t0)
        for timeline in self.timelines:
            total = total + timeline.energy_windows(t0, t1)
        return total

    def mean_power(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            return self.overhead_watts + sum(
                tl.mean_power(t0, t1) for tl in self.timelines
            )
        if t1 - t0 < 16.0 * math.ulp(max(abs(t0), abs(t1), 1.0)):
            # Same degenerate-window guard as PowerTimeline.mean_power.
            return self.overhead_watts + sum(
                tl.power_at(t0) for tl in self.timelines
            )
        return self.energy_between(t0, t1) / (t1 - t0)
