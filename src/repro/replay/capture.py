"""Replay captures: the frozen observable record a policy oracle consumes.

A :class:`ReplayCapture` is everything an *analytic* energy policy needs
to re-score a finished replay — per-member busy segments (exactly the
raw ``PowerTimeline`` segments the replay committed), per-request
response/finish times in completion-event order, and the integer
workload totals.  All three replay paths (event engine, per-point
kernel, fused grid) can produce one, and by the kernel contract the
arrays are bit-identical across paths for qualifying cells.  That is
what makes the policy post-pass an *oracle*: the same pure function
over the same bits yields the same metrics, no matter which engine
produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..trace.record import READ

__all__ = ["MemberProfile", "ReplayCapture", "CaptureSink", "workload_totals"]


@dataclass(frozen=True)
class MemberProfile:
    """One device's committed busy segments plus its baseline draw."""

    name: str
    starts: np.ndarray
    ends: np.ndarray
    watts: np.ndarray
    base_watts: float

    @property
    def busy_seconds(self) -> float:
        return float(np.sum(self.ends - self.starts))


@dataclass(frozen=True)
class ReplayCapture:
    """Frozen record of one replay, sufficient for policy re-scoring."""

    end: float
    finishes: np.ndarray
    responses: np.ndarray
    members: Tuple[MemberProfile, ...]
    #: Enclosure overhead watts for arrays; ``None`` for bare devices.
    overhead_watts: Optional[float]
    reads: int
    writes: int
    read_bytes: int
    write_bytes: int

    @property
    def completed(self) -> int:
        return int(self.finishes.shape[0])

    def arrivals(self) -> np.ndarray:
        """Request arrival instants, reconstructed identically on every
        path as ``finishes - responses`` (never from submit times)."""
        return self.finishes - self.responses


class CaptureSink:
    """Mutable receptacle a session fills with the run's capture.

    The event path streams completions into it via :meth:`observe`;
    both paths call :meth:`finish` once with the member snapshot.
    """

    def __init__(self) -> None:
        self.capture: Optional[ReplayCapture] = None
        self._fin: List[float] = []
        self._resp: List[float] = []
        self._reads = 0
        self._writes = 0
        self._read_bytes = 0
        self._write_bytes = 0

    # -- event-path streaming --------------------------------------
    def observe(self, completion) -> None:
        self._fin.append(float(completion.finish_time))
        self._resp.append(float(completion.response_time))
        package = completion.package
        if package.op == READ:
            self._reads += 1
            self._read_bytes += int(package.nbytes)
        else:
            self._writes += 1
            self._write_bytes += int(package.nbytes)

    def observed_totals(self) -> Tuple[int, int, int, int]:
        return (self._reads, self._writes, self._read_bytes, self._write_bytes)

    def observed_series(self) -> Tuple[np.ndarray, np.ndarray]:
        return (
            np.asarray(self._fin, dtype=np.float64),
            np.asarray(self._resp, dtype=np.float64),
        )

    # -- shared assembly -------------------------------------------
    def finish(
        self,
        device,
        *,
        end: float,
        finishes: np.ndarray,
        responses: np.ndarray,
        totals: Tuple[int, int, int, int],
    ) -> ReplayCapture:
        members = snapshot_members(device)
        meter = getattr(device, "meter", None)
        overhead = float(meter.overhead_watts) if meter is not None else None
        reads, writes, read_bytes, write_bytes = totals
        self.capture = ReplayCapture(
            end=float(end),
            finishes=np.asarray(finishes, dtype=np.float64),
            responses=np.asarray(responses, dtype=np.float64),
            members=members,
            overhead_watts=overhead,
            reads=reads,
            writes=writes,
            read_bytes=read_bytes,
            write_bytes=write_bytes,
        )
        return self.capture


def snapshot_members(device) -> Tuple[MemberProfile, ...]:
    """Copy each member's committed timeline out of ``device``."""
    disks = getattr(device, "disks", None)
    members = list(disks) if disks is not None else [device]
    profiles = []
    for member in members:
        timeline = member.timeline
        profiles.append(
            MemberProfile(
                name=member.name,
                starts=np.array(timeline._starts, dtype=np.float64),
                ends=np.array(timeline._ends, dtype=np.float64),
                watts=np.array(timeline._watts, dtype=np.float64),
                base_watts=float(timeline._base_watts[0]),
            )
        )
    return tuple(profiles)


def workload_totals(packed) -> Tuple[int, int, int, int]:
    """(reads, writes, read_bytes, write_bytes) from packed columns."""
    ops = packed.packages["op"]
    nbytes = packed.packages["nbytes"]
    is_read = ops == READ
    return (
        int(np.count_nonzero(is_read)),
        int(ops.shape[0] - np.count_nonzero(is_read)),
        int(nbytes[is_read].sum()),
        int(nbytes[~is_read].sum()),
    )
