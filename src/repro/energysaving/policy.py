"""Uniform analytic energy-policy protocol over frozen replay captures.

The event-driven models in this package (:class:`MAIDArray`,
:class:`DRPMArray`, :class:`PDCArray`, :class:`ERAIDArray`) simulate a
policy *during* a replay.  The search driver needs something different:
a way to re-score one finished replay under many policies without
re-replaying it.  This module provides that — a :class:`Policy`
protocol whose implementations are *pure functions* of a
:class:`~repro.replay.capture.ReplayCapture`:

``configure(device)``
    Bind the policy to a device family: extract per-member spec
    constants (idle/standby/spin-up power, transfer rates) from a
    factory-fresh probe instance.

``evaluate(capture, sampling_cycle=...)``
    Re-score one capture: rebuild each member's power draw as a
    piecewise-constant :class:`PowerProgram` (committed busy segments
    pass through untouched; idle gaps are rewritten by the policy),
    integrate it through the *real*
    :class:`~repro.power.analyzer.PowerAnalyzer` window walk, and
    apply the policy's wake-up penalties to the response distribution.

``power_state(t)`` / ``idle_transitions()``
    Inspect the last evaluation: total policy watts at instant ``t``
    and the ordered spin-down/spin-up (or speed-step) transitions.

Because a capture is bit-identical across the fused-grid, per-point
kernel, and event replay paths, and every policy here is deterministic
arithmetic over that capture, the policy metrics are bit-identical
across paths too — the property the differential oracle enforces.

Modeling notes (shared by all adapters):

* Penalty windows are evaluated against *array* arrival instants
  (``finishes - responses``); the capture carries no request→member
  mapping, so a policy that parks a member charges its wake-up penalty
  to any request arriving in the parked window.  This overestimates
  the latency cost slightly and never understates it.
* Tail gaps (after a member's last committed segment) park without a
  modeled wake-up, so they carry no penalty window.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReplayError
from ..power.analyzer import PowerAnalyzer
from ..power.model import EnergyMeter, FrozenTimeline

__all__ = [
    "Policy",
    "PolicyError",
    "Transition",
    "MemberSpec",
    "PowerProgram",
    "PolicyMetrics",
    "MemberBuild",
    "PolicyBuild",
    "AnalyticPolicy",
    "BaselinePolicy",
    "baseline_member_build",
    "spin_down_gap_build",
    "evaluate_policy",
]

_EMPTY = np.empty(0, dtype=np.float64)


class PolicyError(ReplayError):
    """A policy was used out of protocol order or on a bad target."""


@dataclass(frozen=True)
class Transition:
    """One policy-driven power-state change."""

    time: float
    member: str
    state: str


@dataclass(frozen=True)
class MemberSpec:
    """Spec constants one policy evaluation needs for one member."""

    name: str
    idle_watts: float
    standby_watts: Optional[float]
    spinup_time: float
    spinup_watts: float
    seek_watts: Optional[float]
    write_watts: float
    transfer_rate: float

    @property
    def can_spin_down(self) -> bool:
        return self.standby_watts is not None


def _member_spec(member) -> MemberSpec:
    spec = member.spec
    standby = getattr(spec, "standby_watts", None)
    rate = getattr(spec, "outer_rate", None)
    if rate is None:
        rate = spec.write_rate
    return MemberSpec(
        name=member.name,
        idle_watts=float(spec.idle_watts),
        standby_watts=float(standby) if standby is not None else None,
        spinup_time=float(getattr(spec, "spinup_time", 0.0)),
        spinup_watts=float(getattr(spec, "spinup_watts", spec.idle_watts)),
        seek_watts=(
            float(spec.seek_watts) if hasattr(spec, "seek_watts") else None
        ),
        write_watts=float(spec.write_watts),
        transfer_rate=float(rate),
    )


class PowerProgram(FrozenTimeline):
    """Piecewise-constant power over ``[0, end]`` with exact integrals.

    Segments must be sorted and non-overlapping; zero- and
    negative-length segments are dropped at construction (mirroring
    ``PowerTimeline.add_segment``).  Uncovered spans draw zero watts,
    so policies must emit explicit idle segments for awake gaps: a
    program is a zero-baseline timeline, whose window integrals round
    exactly as a bare prefix-sum difference would (``x - 0.0 == x`` and
    ``0.0 + x == x``).
    """

    __slots__ = ()

    def __init__(
        self, starts: np.ndarray, ends: np.ndarray, watts: np.ndarray
    ) -> None:
        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        watts = np.asarray(watts, dtype=np.float64)
        keep = ends > starts
        if not bool(np.all(keep)):
            starts, ends, watts = starts[keep], ends[keep], watts[keep]
        cum = np.concatenate((np.zeros(1), np.cumsum(watts * (ends - starts))))
        super().__init__(starts, ends, watts, cum, 0.0)

    @classmethod
    def concat(
        cls,
        pieces: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> "PowerProgram":
        """Build from segment groups, merge-sorted by start instant."""
        if not pieces:
            return cls(_EMPTY, _EMPTY, _EMPTY)
        starts = np.concatenate(
            [np.asarray(p[0], dtype=np.float64) for p in pieces]
        )
        ends = np.concatenate(
            [np.asarray(p[1], dtype=np.float64) for p in pieces]
        )
        watts = np.concatenate(
            [np.asarray(p[2], dtype=np.float64) for p in pieces]
        )
        order = np.argsort(starts, kind="stable")
        return cls(starts[order], ends[order], watts[order])

    def watts_at(self, t: float) -> float:
        idx = int(np.searchsorted(self.starts, t, side="right")) - 1
        if idx >= 0 and t < float(self.ends[idx]):
            return float(self.watts[idx])
        return 0.0

    @property
    def total_energy(self) -> float:
        return float(self.cum[-1])


@dataclass(frozen=True)
class PolicyMetrics:
    """Per-cell metrics one policy evaluation yields."""

    policy: str
    params: Dict[str, float]
    energy_joules: float
    mean_watts: float
    energy_per_io: float
    iops: float
    iops_per_watt: float
    mean_response: float
    p99_response: float
    transitions: int
    counters: Dict[str, float]
    energy_saving: Optional[float] = None
    response_penalty: Optional[float] = None

    def to_dict(self) -> dict:
        payload = {
            "policy": self.policy,
            "params": dict(sorted(self.params.items())),
            "energy_joules": self.energy_joules,
            "mean_watts": self.mean_watts,
            "energy_per_io": self.energy_per_io,
            "iops": self.iops,
            "iops_per_watt": self.iops_per_watt,
            "mean_response": self.mean_response,
            "p99_response": self.p99_response,
            "transitions": self.transitions,
            "counters": dict(sorted(self.counters.items())),
        }
        if self.energy_saving is not None:
            payload["energy_saving"] = self.energy_saving
        if self.response_penalty is not None:
            payload["response_penalty"] = self.response_penalty
        return payload


@dataclass
class MemberBuild:
    """One member's policy rewrite: its program plus bookkeeping."""

    program: PowerProgram
    #: (times, state) transition groups for this member.
    transitions: List[Tuple[np.ndarray, str]] = field(default_factory=list)
    #: Sorted, non-overlapping penalty windows ``(starts, ends, seconds)``.
    windows: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    counters: Dict[str, float] = field(default_factory=dict)


@dataclass
class PolicyBuild:
    """Everything :meth:`AnalyticPolicy.evaluate` integrates."""

    members: List[MemberBuild]
    #: Extra constant-power sources (migration, redirected service).
    extras: List[PowerProgram] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)


def _gap_bounds(profile, end: float) -> Tuple[np.ndarray, np.ndarray]:
    """Positive idle gaps of one member over ``[0, end]``."""
    gs = np.concatenate((np.zeros(1), profile.ends))
    ge = np.concatenate((profile.starts, np.asarray([end])))
    keep = ge > gs
    return gs[keep], ge[keep]


def idle_gap_segments(
    gs: np.ndarray, ge: np.ndarray, idle_watts: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    return gs, ge, np.full(gs.shape, idle_watts)


def busy_segments(profile) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    return profile.starts, profile.ends, profile.watts


def baseline_member_build(
    spec: MemberSpec, profile, gs: np.ndarray, ge: np.ndarray
) -> MemberBuild:
    """Always-on rewrite: committed segments plus idle gaps."""
    return MemberBuild(
        PowerProgram.concat(
            [busy_segments(profile), idle_gap_segments(gs, ge, spec.idle_watts)]
        )
    )


def spin_down_gap_build(
    spec: MemberSpec,
    profile,
    gs: np.ndarray,
    ge: np.ndarray,
    end: float,
    idle_timeout: float,
) -> MemberBuild:
    """MAID-style gap rewrite with a break-even gate, shared with PDC.

    A gap sleeps only when doing so cannot cost energy:

    * interior gaps need room for the timeout *and* the spin-up ramp,
      and must satisfy ``standby·(L−τ−s) + spinup_w·s ≤ idle·(L−τ)``;
    * the tail gap only needs ``L > τ`` (no ramp — nothing wakes it).

    With the gate, per-gap energy is non-decreasing in the timeout τ:
    while asleep it is ``idle·τ + standby·(L−τ−s) + spinup_w·s`` (slope
    ``idle − standby > 0``) and the gate flips to the constant
    ``idle·L`` exactly when the sleeping branch would exceed it — the
    monotonicity invariant the property tier asserts.
    """
    if not spec.can_spin_down or gs.size == 0:
        return MemberBuild(
            PowerProgram.concat(
                [busy_segments(profile),
                 idle_gap_segments(gs, ge, spec.idle_watts)]
            )
        )
    tau = float(idle_timeout)
    idle = spec.idle_watts
    standby = spec.standby_watts
    ramp = spec.spinup_time
    ramp_watts = spec.spinup_watts
    length = ge - gs
    interior = ge < end
    fits = (length > tau) & (length - tau >= ramp)
    breakeven = (
        standby * (length - tau - ramp) + ramp_watts * ramp
        <= idle * (length - tau)
    )
    sleep_interior = interior & fits & breakeven
    sleep_tail = (~interior) & (length > tau)
    awake = ~(sleep_interior | sleep_tail)

    i0, i1 = gs[sleep_interior], ge[sleep_interior]
    t0, t1 = gs[sleep_tail], ge[sleep_tail]
    program = PowerProgram.concat(
        [
            busy_segments(profile),
            idle_gap_segments(gs[awake], ge[awake], idle),
            (i0, i0 + tau, np.full(i0.shape, idle)),
            (i0 + tau, i1 - ramp, np.full(i0.shape, standby)),
            (i1 - ramp, i1, np.full(i0.shape, ramp_watts)),
            (t0, t0 + tau, np.full(t0.shape, idle)),
            (t0 + tau, t1, np.full(t0.shape, standby)),
        ]
    )
    windows = None
    if i0.size:
        windows = (i0 + tau, i1, np.full(i0.shape, ramp))
    transitions = []
    if i0.size:
        transitions.append((i0 + tau, "standby"))
        transitions.append((i1 - ramp, "spinup"))
    if t0.size:
        transitions.append((t0 + tau, "standby"))
    sleep_seconds = float(
        np.sum(ge[sleep_interior] - gs[sleep_interior] - tau - ramp)
        + np.sum(ge[sleep_tail] - gs[sleep_tail] - tau)
    )
    return MemberBuild(
        program,
        transitions=transitions,
        windows=windows,
        counters={
            "spin_downs": float(i0.size + t0.size),
            "sleep_seconds": sleep_seconds,
        },
    )


class AnalyticPolicy:
    """Base class implementing the :class:`Policy` protocol plumbing.

    Subclasses implement :meth:`_build` — pure segment rewriting — and
    inherit configuration, integration, penalty application, and the
    ``power_state`` / ``idle_transitions`` views.
    """

    name = "policy"

    def __init__(self) -> None:
        self._members: Optional[Tuple[MemberSpec, ...]] = None
        self._last_build: Optional[PolicyBuild] = None
        self._last_overhead: float = 0.0
        self._last_end: float = 0.0

    @property
    def params(self) -> Dict[str, float]:
        return {}

    # -- protocol --------------------------------------------------
    def configure(self, device) -> None:
        """Bind spec constants from a factory-fresh probe ``device``."""
        disks = getattr(device, "disks", None)
        members = list(disks) if disks is not None else [device]
        if not members:
            raise PolicyError(f"policy {self.name!r}: device has no members")
        self._members = tuple(_member_spec(m) for m in members)
        self._last_build = None

    def power_state(self, t: float) -> float:
        """Total watts the policy draws at instant ``t`` (last eval)."""
        build = self._require_build()
        total = self._last_overhead if 0.0 <= t < self._last_end else 0.0
        for member in build.members:
            total += member.program.watts_at(t)
        for extra in build.extras:
            total += extra.watts_at(t)
        return total

    def idle_transitions(self) -> List[Transition]:
        """Ordered power-state transitions from the last evaluation."""
        build = self._require_build()
        out: List[Transition] = []
        assert self._members is not None
        for spec, member in zip(self._members, build.members):
            for times, state in member.transitions:
                out.extend(
                    Transition(float(t), spec.name, state) for t in times
                )
        out.sort(key=lambda tr: (tr.time, tr.member, tr.state))
        return out

    # -- evaluation ------------------------------------------------
    def evaluate(self, capture, *, sampling_cycle: float = 1.0) -> PolicyMetrics:
        """Re-score ``capture`` under this policy."""
        from ..sim.kernel import _Fallback, _tick_boundaries

        if self._members is None:
            raise PolicyError(
                f"policy {self.name!r} used before configure(device)"
            )
        if len(self._members) != len(capture.members):
            raise PolicyError(
                f"policy {self.name!r} configured for {len(self._members)} "
                f"members but capture has {len(capture.members)}"
            )
        build = self._build(capture)
        overhead = (
            capture.overhead_watts if capture.overhead_watts is not None else 0.0
        )
        meter = EnergyMeter(
            [m.program for m in build.members] + build.extras, overhead
        )
        end = capture.end
        try:
            bounds = _tick_boundaries(0.0, end, float(sampling_cycle))
        except _Fallback as exc:
            raise PolicyError(
                f"policy {self.name!r}: cannot window capture: {exc.reason}"
            )
        analyzer = PowerAnalyzer(
            meter, sampling_cycle=float(sampling_cycle), sensor=None
        )
        analyzer.record_windows(bounds, end)
        energy = analyzer.total_energy
        mean_watts = analyzer.mean_watts

        responses = self._adjusted_responses(capture, build)
        n = responses.shape[0]
        mean_response = float(np.sum(responses) / n)
        rank = max(int(np.ceil(0.99 * n)) - 1, 0)
        p99 = float(np.partition(responses, rank)[rank])
        iops = n / end if end > 0 else 0.0
        counters = dict(build.counters)
        transitions = 0
        for member in build.members:
            transitions += sum(int(t.size) for t, _ in member.transitions)
            for key, value in member.counters.items():
                counters[key] = counters.get(key, 0.0) + value
        self._last_build = build
        self._last_overhead = overhead
        self._last_end = end
        return PolicyMetrics(
            policy=self.name,
            params=self.params,
            energy_joules=energy,
            mean_watts=mean_watts,
            energy_per_io=energy / n if n else 0.0,
            iops=iops,
            iops_per_watt=iops / mean_watts if mean_watts > 0 else 0.0,
            mean_response=mean_response,
            p99_response=p99,
            transitions=transitions,
            counters=counters,
        )

    # -- subclass hook ---------------------------------------------
    def _build(self, capture) -> PolicyBuild:
        raise NotImplementedError

    # -- helpers ---------------------------------------------------
    def _require_build(self) -> PolicyBuild:
        if self._last_build is None:
            raise PolicyError(
                f"policy {self.name!r} inspected before evaluate(capture)"
            )
        return self._last_build

    def _prepared(self, capture):
        """(spec, profile, gap_starts, gap_ends) per member."""
        assert self._members is not None
        out = []
        for spec, profile in zip(self._members, capture.members):
            gs, ge = _gap_bounds(profile, capture.end)
            out.append((spec, profile, gs, ge))
        return out

    @staticmethod
    def _adjusted_responses(capture, build: PolicyBuild) -> np.ndarray:
        arrivals = capture.arrivals()
        penalty = np.zeros(arrivals.shape, dtype=np.float64)
        for member in build.members:
            if member.windows is None:
                continue
            w0, w1, seconds = member.windows
            idx = np.searchsorted(w0, arrivals, side="right") - 1
            clamped = np.clip(idx, 0, w0.size - 1)
            hit = (idx >= 0) & (arrivals < w1[clamped])
            penalty = np.maximum(
                penalty, np.where(hit, seconds[clamped], 0.0)
            )
        return capture.responses + penalty


class BaselinePolicy(AnalyticPolicy):
    """Always-on reference: committed segments plus idle gaps."""

    name = "baseline"

    def _build(self, capture) -> PolicyBuild:
        members = [
            baseline_member_build(spec, profile, gs, ge)
            for spec, profile, gs, ge in self._prepared(capture)
        ]
        return PolicyBuild(members)


def evaluate_policy(
    policy: AnalyticPolicy,
    capture,
    *,
    sampling_cycle: float = 1.0,
    baseline: Optional[PolicyMetrics] = None,
) -> PolicyMetrics:
    """Evaluate ``policy`` on ``capture``; annotate savings vs baseline."""
    metrics = policy.evaluate(capture, sampling_cycle=sampling_cycle)
    if baseline is None:
        return metrics
    saving = (
        1.0 - metrics.energy_joules / baseline.energy_joules
        if baseline.energy_joules > 0
        else 0.0
    )
    penalty = (
        metrics.mean_response / baseline.mean_response - 1.0
        if baseline.mean_response > 0
        else 0.0
    )
    return replace(metrics, energy_saving=saving, response_penalty=penalty)


#: The protocol name the docs reference; any object with ``name``,
#: ``params``, ``configure``, ``evaluate``, ``power_state`` and
#: ``idle_transitions`` satisfies it.
Policy = AnalyticPolicy
