"""Mechanical hard-disk model.

Service time decomposes into the classic components (Ruemmler & Wilkes):

* **command overhead** — firmware processing, always paid;
* **seek** — ``settle + coeff * sqrt(distance_fraction)`` when the head
  must move; zero when the request continues sequentially from the last
  one (streaming);
* **rotational latency** — expected half-revolution after any seek;
  zero while streaming (the head is already following the track);
* **turnaround** — switching between reads and writes interrupts
  streaming: the write path must flush / the head re-settles.  This is
  the mechanism behind the paper's U-shaped throughput vs. read-ratio
  curve at low random ratios (Fig. 11);
* **transfer** — request bytes over the zoned media rate.

Power: each phase draws the phase power from the spec; the request's
mean power is the time-weighted blend, recorded as one busy segment.

The drive also implements standby/spin-up transitions (used by the
energy-saving policy extensions, idle in the baseline experiments).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..errors import StorageConfigError, StorageIOError
from ..power.states import PowerState
from ..rng import make_rng
from ..trace.record import IOPackage, WRITE
from ..units import SECTOR_BYTES
from .base import QueuedDevice, VectorService, lag, sequence_starts
from .specs import HDDSpec, SEAGATE_7200_12


class HardDiskDrive(QueuedDevice):
    """One simulated mechanical disk.

    Parameters
    ----------
    spec:
        Mechanical/power parameters (default: the paper's Seagate
        7200.12 500 GB).
    rotational_jitter:
        When ``True``, rotational latency is sampled uniformly in
        [0, rotation_time) from a seeded stream instead of using the
        expected value.  Default off: deterministic expected-value
        latencies keep replay results exactly reproducible.
    seed:
        Seed for the jitter stream.
    """

    def __init__(
        self,
        name: str = "hdd0",
        spec: HDDSpec = SEAGATE_7200_12,
        rotational_jitter: bool = False,
        seed: Optional[int] = None,
        discipline=None,
    ) -> None:
        super().__init__(name, idle_watts=spec.idle_watts, discipline=discipline)
        self.spec = spec
        self.rotational_jitter = rotational_jitter
        self._rng = make_rng(seed)
        self._head_sector = 0
        self._last_end_sector: Optional[int] = None
        self._last_op: Optional[int] = None
        self._transition_until = 0.0
        self.state = PowerState.IDLE
        self.seek_count = 0

    @property
    def capacity_sectors(self) -> int:
        return self.spec.capacity_sectors

    # -- Service model ---------------------------------------------------

    def _seek_time(self, target_sector: int) -> float:
        distance = abs(target_sector - self._head_sector)
        if distance == 0:
            return 0.0
        frac = distance / max(self.capacity_sectors, 1)
        return self.spec.settle_time + self.spec.seek_coefficient * math.sqrt(frac)

    def _rotational_latency(self) -> float:
        if self.rotational_jitter:
            return float(self._rng.uniform(0.0, self.spec.rotation_time))
        return self.spec.mean_rotational_latency

    def _service(self, package: IOPackage, start_time: float) -> Tuple[float, float]:
        if not self.state.ready:
            raise StorageIOError(
                f"{self.name}: request while {self.state.value}; spin up first"
            )
        spec = self.spec
        # Streaming is an *address* property: the drive's track buffer /
        # write cache keeps the head on track across read/write switches
        # (the paper disabled the controller cache, not the drives').
        # Switching op type still pays the electronics turnaround.
        sequential = (
            self._last_end_sector is not None
            and package.sector == self._last_end_sector
        )
        turnaround = 0.0
        if self._last_op is not None and package.op != self._last_op:
            turnaround = (
                spec.read_to_write_turnaround
                if package.is_write
                else spec.write_to_read_turnaround
            )

        if sequential:
            seek = 0.0
            rotation = 0.0
        else:
            seek = self._seek_time(package.sector)
            rotation = self._rotational_latency()
            if package.is_write and spec.write_cache:
                # Write-back cached writes destage in sorted order; their
                # effective positioning cost is a fraction of a cold seek.
                seek *= spec.destage_seek_factor
                rotation *= spec.destage_seek_factor
            if seek > 0:
                self.seek_count += 1

        transfer = package.nbytes / spec.transfer_rate_at(package.sector)
        total = spec.command_overhead + turnaround + seek + rotation + transfer

        # Time-weighted mean power across the phases.  Command overhead and
        # turnaround are electronics-bound: billed at rotate-wait power.
        xfer_watts = spec.write_watts if package.is_write else spec.read_watts
        energy = (
            (spec.command_overhead + turnaround + rotation) * spec.rotate_wait_watts
            + seek * spec.seek_watts
            + transfer * xfer_watts
        )
        mean_watts = energy / total if total > 0 else spec.idle_watts

        self._head_sector = package.end_sector
        self._last_end_sector = package.end_sector
        self._last_op = package.op
        return total, mean_watts

    def service_times(self, sectors, nbytes, ops, restart=None) -> VectorService:
        """Vectorized mirror of :meth:`_service` for the analytical kernel.

        Computes service seconds and mean Watts for serving the given
        rows back-to-back in order, starting from the drive's current
        head/streaming state.  ``restart`` (an optional boolean mask)
        splits the rows into independent sequences concatenated end to
        end — a marked row starts over from the drive's current state —
        so one call plans many candidate serving orders, one per grid
        cell.  Every expression is evaluated in the same order as the
        scalar path, so each sequence is bit-identical to planning it
        alone.  Pure: call ``apply_state()`` on the returned plan to
        commit the head cursor, streaming context, and ``seek_count``
        the last sequence leaves behind.
        """
        if not self.state.ready:
            raise StorageIOError(
                f"{self.name}: request while {self.state.value}; spin up first"
            )
        if self.rotational_jitter:
            raise StorageIOError(
                f"{self.name}: vectorized service requires deterministic "
                f"rotational latency (rotational_jitter draws per request)"
            )
        spec = self.spec
        sectors = np.asarray(sectors, dtype=np.int64)
        nbytes = np.asarray(nbytes, dtype=np.int64)
        ops = np.asarray(ops, dtype=np.int64)
        n = sectors.shape[0]
        if n == 0:
            empty = np.empty(0, dtype=np.float64)
            return VectorService(empty, empty, lambda: None)
        end_sectors = sectors + -(-nbytes // SECTOR_BYTES)
        is_write = ops == WRITE
        first = sequence_starts(n, restart)

        # Streaming: previous request's end sector (each sequence's first
        # row uses the drive's cursor; None means no streaming context).
        prev_end = lag(
            end_sectors,
            self._last_end_sector if self._last_end_sector is not None else -1,
            first,
        )
        sequential = sectors == prev_end
        if self._last_end_sector is None:
            sequential[first] = False

        # Turnaround on op-type switches (paid even while streaming).
        prev_op = lag(ops, self._last_op if self._last_op is not None else -1, first)
        switched = ops != prev_op
        if self._last_op is None:
            switched[first] = False
        # Per-op constants are looked up (index 1 = write) and masks are
        # applied by multiplying with booleans: exact on these
        # non-negative values (x * 1.0 == x, x * 0.0 == 0.0) and free of
        # the data-dependent branches a masked select costs.
        op_at = is_write.astype(np.intp)
        turnaround = np.array(
            [spec.write_to_read_turnaround, spec.read_to_write_turnaround]
        ).take(op_at)
        turnaround *= switched

        # Seek from the head position, which the scalar path always
        # leaves at the previous request's end sector.  The arithmetic
        # runs in place, in the scalar path's operand order up to
        # commutation (which IEEE arithmetic makes exact).
        head = lag(end_sectors, self._head_sector, first)
        distance = sectors - head
        np.abs(distance, out=distance)
        seek = distance / max(self.capacity_sectors, 1)
        np.sqrt(seek, out=seek)
        seek *= spec.seek_coefficient
        seek += spec.settle_time
        rotation = np.full(2, spec.mean_rotational_latency)
        if spec.write_cache:
            # Write-back destaging: a fraction of a cold positioning cost.
            seek *= np.array([1.0, spec.destage_seek_factor]).take(op_at)
            rotation[1] *= spec.destage_seek_factor
        rotation = rotation.take(op_at)
        positioned = ~sequential
        seek *= positioned & (distance != 0)
        rotation *= positioned
        tail = int(np.flatnonzero(first)[-1])
        seeks = int(np.count_nonzero(seek[tail:] > 0))

        rate = sectors / max(spec.capacity_sectors, 1)
        np.maximum(rate, 0.0, out=rate)
        np.minimum(rate, 1.0, out=rate)
        rate *= spec.outer_rate - spec.inner_rate
        np.subtract(spec.outer_rate, rate, out=rate)
        transfer = nbytes / rate
        total = turnaround + spec.command_overhead
        busy = total + seek
        busy += rotation
        busy += transfer

        # Energy: (overhead + turnaround + rotation) at rotate-wait power,
        # seek at seek power, transfer at the op's power.
        total += rotation
        total *= spec.rotate_wait_watts
        seek *= spec.seek_watts
        total += seek
        xfer = np.array([spec.read_watts, spec.write_watts]).take(op_at)
        xfer *= transfer
        total += xfer
        mean_watts = np.full(n, spec.idle_watts)
        np.divide(total, busy, out=mean_watts, where=busy > 0)
        total = busy

        last_end = int(end_sectors[-1])
        last_op = int(ops[-1])

        def apply_state() -> None:
            self._head_sector = last_end
            self._last_end_sector = last_end
            self._last_op = last_op
            self.seek_count += seeks

        return VectorService(total, mean_watts, apply_state)

    # -- Spin-down support (energy-saving extensions) ---------------------

    def spin_down(self) -> float:
        """Enter standby.  Returns the transition time.

        Only legal when the drive is idle with an empty queue; policies
        are responsible for checking.
        """
        sim = self._require_sim()
        if self._busy or self._queue:
            raise StorageIOError(f"{self.name}: cannot spin down while busy")
        if self.state == PowerState.STANDBY:
            return 0.0
        t = sim.now
        self.timeline.add_segment(t, t + self.spec.spindown_time, self.spec.idle_watts)
        self.timeline.set_baseline(t + self.spec.spindown_time, self.spec.standby_watts)
        self.state = PowerState.STANDBY
        self._transition_until = t + self.spec.spindown_time
        self._last_end_sector = None  # streaming context is lost
        self._last_op = None
        return self.spec.spindown_time

    def spin_up(self) -> float:
        """Leave standby.  Returns the transition time (~seconds).

        The caller must delay I/O submission by the returned time; the
        energy cost of the spin-up burst is recorded here.
        """
        sim = self._require_sim()
        if self.state != PowerState.STANDBY:
            return 0.0
        # A spin-up requested before the spin-down transition finished
        # begins when the platters have actually stopped.
        t = max(sim.now, getattr(self, "_transition_until", sim.now))
        self.timeline.set_baseline(t, self.spec.idle_watts)
        self.timeline.add_segment(t, t + self.spec.spinup_time, self.spec.spinup_watts)
        self.state = PowerState.SPINNING_UP
        ready_at = t + self.spec.spinup_time
        self._transition_until = ready_at

        def _ready() -> None:
            self.state = PowerState.IDLE

        sim.schedule(ready_at, _ready, priority=-1)
        return ready_at - sim.now
