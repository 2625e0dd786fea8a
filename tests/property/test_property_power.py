"""Property-based tests: power timeline energy accounting."""

import bisect

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.energysaving.policy import PowerProgram
from repro.power.model import EnergyMeter, FrozenTimeline, PowerTimeline


@st.composite
def timelines(draw):
    baseline = draw(st.floats(min_value=0.0, max_value=50.0))
    tl = PowerTimeline(baseline)
    cursor = 0.0
    for _ in range(draw(st.integers(min_value=0, max_value=20))):
        gap = draw(st.floats(min_value=0.0, max_value=2.0))
        length = draw(st.floats(min_value=0.001, max_value=2.0))
        watts = draw(st.floats(min_value=0.0, max_value=100.0))
        tl.add_segment(cursor + gap, cursor + gap + length, watts)
        cursor += gap + length
    return tl, cursor, baseline


windows = st.floats(min_value=0.0, max_value=60.0)


class TestEnergyProperties:
    @given(timelines(), windows, windows)
    @settings(max_examples=150, deadline=None)
    def test_energy_non_negative(self, tl_info, a, b):
        tl, _, _ = tl_info
        t0, t1 = min(a, b), max(a, b)
        assert tl.energy_between(t0, t1) >= -1e-9

    @given(timelines(), windows, windows, windows)
    @settings(max_examples=150, deadline=None)
    def test_energy_additive_over_splits(self, tl_info, a, b, c):
        tl, _, _ = tl_info
        t0, t1, t2 = sorted([a, b, c])
        whole = tl.energy_between(t0, t2)
        parts = tl.energy_between(t0, t1) + tl.energy_between(t1, t2)
        assert abs(whole - parts) < 1e-6 * max(1.0, abs(whole))

    @given(timelines(), windows, windows)
    @settings(max_examples=150, deadline=None)
    def test_mean_power_within_envelope(self, tl_info, a, b):
        tl, _, baseline = tl_info
        t0, t1 = min(a, b), max(a, b)
        if t1 <= t0:
            return
        mean = tl.mean_power(t0, t1)
        assert mean >= -1e-9
        assert mean <= max(baseline, 100.0) + 1e-6

    def test_mean_power_over_epsilon_window_is_instantaneous(self):
        # Regression: a window at float resolution used to divide the
        # prefix-sum cancellation error (~1 ULP of the cumulative
        # excess) by ~2.2e-16, yielding watts-scale garbage (observed:
        # mean_power(0.0, 2.2e-16) == -1.0 on a 3 W baseline).  Such
        # windows now report the instantaneous power instead.
        import sys

        tl = PowerTimeline(3.0)
        tl.add_segment(0.0, 1.0, 7.0)
        eps = sys.float_info.epsilon
        assert tl.mean_power(0.0, eps) == 7.0  # inside the segment
        assert tl.mean_power(2.0, 2.0 + eps) == 3.0  # idle: baseline
        assert tl.power_at(0.5) == 7.0
        assert tl.power_at(1.5) == 3.0

    @given(timelines())
    @settings(max_examples=100, deadline=None)
    def test_busy_time_bounded_by_window(self, tl_info):
        tl, end, _ = tl_info
        window_end = end + 1.0
        busy = tl.busy_time(0.0, window_end)
        assert -1e-9 <= busy <= window_end + 1e-9


# ---------------------------------------------------------------------------
# Window integration: energy_windows == [energy_between(a, b) ...], bit for bit


def bits(values):
    """Exact float identity (``hex`` tells -0.0 from 0.0)."""
    return [float(v).hex() for v in values]


@st.composite
def segment_columns(draw, max_segments=12):
    """Sorted, non-overlapping busy segments (possibly none)."""
    starts, ends, watts = [], [], []
    cursor = draw(st.floats(min_value=-3.0, max_value=3.0))
    for _ in range(draw(st.integers(min_value=0, max_value=max_segments))):
        cursor += draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))  # gap
        length = draw(st.floats(min_value=1e-3, max_value=2.0))
        starts.append(cursor)
        ends.append(cursor + length)
        watts.append(draw(st.floats(min_value=0.0, max_value=100.0)))
        cursor += length
    return starts, ends, watts


@st.composite
def window_sets(draw, starts, ends):
    """Window pairs whose edges fall on segment edges, mid-segment,
    before the first and after the last segment, or anywhere; about a
    fifth are zero-length."""
    lo = min(starts, default=0.0) - 2.0
    hi = max(ends, default=0.0) + 2.0
    mids = [(s + e) / 2 for s, e in zip(starts, ends)]
    point = st.one_of(
        st.floats(min_value=lo, max_value=hi),
        st.sampled_from(starts + ends + mids + [lo, hi]),
    )
    t0s, t1s = [], []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        a = draw(point)
        b = a if draw(st.integers(0, 4)) == 0 else draw(point)
        t0s.append(min(a, b))
        t1s.append(max(a, b))
    return t0s, t1s


def _windows(t0s, t1s):
    return np.asarray(t0s, dtype=np.float64), np.asarray(t1s, dtype=np.float64)


def _scalar(source, t0s, t1s):
    return [source.energy_between(a, b) for a, b in zip(t0s, t1s)]


@st.composite
def timeline_case(draw):
    """A timeline filled per segment or in bulk, plus windows over it."""
    starts, ends, watts = draw(segment_columns())
    tl = PowerTimeline(draw(st.floats(min_value=0.0, max_value=50.0)))
    if draw(st.booleans()):
        tl.extend_segments(starts, ends, watts)
    else:
        for seg in zip(starts, ends, watts):
            tl.add_segment(*seg)
    return tl, draw(window_sets(starts, ends))


def _program_energy_upto(program, t):
    """The prefix-sum walk a policy program used before it became a
    zero-baseline timeline (the float reference for the no-change claim)."""
    starts = program.starts.tolist()
    idx = bisect.bisect_right(starts, t)
    total = float(program.cum[idx])
    if idx > 0 and float(program.ends[idx - 1]) > t:
        total -= float(program.watts[idx - 1]) * (float(program.ends[idx - 1]) - t)
    return total


class TestEnergyWindows:
    @given(timeline_case())
    @settings(max_examples=200, deadline=None)
    def test_timeline_windows_match_scalar(self, case):
        tl, (t0s, t1s) = case
        got = tl.energy_windows(*_windows(t0s, t1s))
        assert bits(got) == bits(_scalar(tl, t0s, t1s))

    @given(
        segment_columns(),
        st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=4),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_multi_level_baseline_windows_match_scalar(self, cols, levels, data):
        starts, ends, watts = cols
        tl = PowerTimeline(levels[0])
        changes = sorted(
            data.draw(st.floats(min_value=-4.0, max_value=30.0))
            for _ in levels[1:]
        )
        pending = list(zip(changes, levels[1:]))
        for seg in zip(starts, ends, watts):
            # Baseline changes land between segments (spin-down style).
            while pending and pending[0][0] <= seg[0]:
                tl.set_baseline(max(pending[0][0], tl._base_times[-1]), pending[0][1])
                pending.pop(0)
            tl.add_segment(*seg)
        t0s, t1s = data.draw(window_sets(starts, ends))
        got = tl.energy_windows(*_windows(t0s, t1s))
        assert bits(got) == bits(_scalar(tl, t0s, t1s))

    @given(timeline_case())
    @settings(max_examples=150, deadline=None)
    def test_frozen_columns_match_committed_timeline(self, case):
        # The grid integrates a cell from the batch columns without a
        # device; the answers are the committed timeline's.
        tl, (t0s, t1s) = case
        frozen = FrozenTimeline(
            np.array(tl._starts), np.array(tl._ends), np.array(tl._watts),
            np.array(tl._cum_excess), tl._base_watts[0],
        )
        got = frozen.energy_windows(*_windows(t0s, t1s))
        assert bits(got) == bits(_scalar(tl, t0s, t1s))
        assert bits(_scalar(frozen, t0s, t1s)) == bits(got)

    @given(st.lists(timeline_case(), min_size=1, max_size=4), st.floats(0.0, 80.0))
    @settings(max_examples=100, deadline=None)
    def test_meters_match_scalar_accumulation(self, cases, overhead):
        timelines = [tl for tl, _ in cases]
        t0s, t1s = cases[0][1]
        windows = _windows(t0s, t1s)
        meter = EnergyMeter(timelines, overhead)
        want = bits(_scalar(meter, t0s, t1s))
        assert bits(meter.energy_windows(*windows)) == want
        frozen = EnergyMeter(
            [
                FrozenTimeline(
                    np.array(tl._starts), np.array(tl._ends),
                    np.array(tl._watts), np.array(tl._cum_excess),
                    tl._base_watts[0],
                )
                for tl in timelines
            ],
            overhead,
        )
        assert bits(frozen.energy_windows(*windows)) == want

    @given(
        st.lists(segment_columns(), min_size=1, max_size=3),
        st.floats(0.0, 80.0),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_policy_programs_match_prefix_sum_walk(self, pieces, overhead, data):
        programs = [PowerProgram(*map(np.asarray, cols)) for cols in pieces]
        starts, ends, _ = pieces[0]
        t0s, t1s = data.draw(window_sets(starts, ends))
        want = []
        for a, b in zip(t0s, t1s):
            total = overhead * (b - a)
            for program in programs:
                total += (
                    0.0 if b == a
                    else _program_energy_upto(program, b)
                    - _program_energy_upto(program, a)
                )
            want.append(total)
        meter = EnergyMeter(programs, overhead)
        assert bits(meter.energy_windows(*_windows(t0s, t1s))) == bits(want)
        for program in programs:
            zero = PowerTimeline(0.0)
            zero.extend_segments(program.starts, program.ends, program.watts)
            assert bits(program.energy_windows(*_windows(t0s, t1s))) == bits(
                _scalar(zero, t0s, t1s)
            )

    def test_empty_timeline_and_no_windows(self):
        tl = PowerTimeline(4.0)
        got = tl.energy_windows(*_windows([-1.0, 0.0, 2.0], [-1.0, 3.0, 7.5]))
        assert bits(got) == bits([0.0, 12.0, 22.0])
        assert tl.energy_windows(*_windows([], [])).shape == (0,)
