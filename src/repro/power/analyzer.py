"""The sampling power analyzer.

Wraps one measured target (anything exposing ``energy_between``) behind
the interface of the paper's power analyzer: arm it, let it sample every
cycle (default 1 s), stop it, and read back the per-cycle records of
current, voltage, and power (Section III-A1 lists exactly these fields
in the database records).

The analyzer lives on the simulation clock: it schedules its own sampling
events, so replay sessions get synchronised performance/power records
without any polling loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol

import numpy as np

from ..errors import PowerAnalyzerError
from ..sim.engine import Simulator
from .sensor import HallSensor, SensorSpec, IDEAL_SENSOR


class EnergySource(Protocol):
    """Anything whose energy can be integrated over a window."""

    def energy_between(self, t0: float, t1: float) -> float: ...

    def energy_windows(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class PowerSample:
    """One sampling cycle's record."""

    start: float
    end: float
    amperes: float
    volts: float
    watts: float
    """Power as the meter reports it (amperes × volts, after sensor error)."""
    true_watts: float
    """Ground-truth mean power over the cycle (simulation only)."""
    energy_joules: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class PowerAnalyzer:
    """Sampled power measurement of one target.

    Parameters
    ----------
    source:
        The measured device (a :class:`~repro.power.model.PowerTimeline`
        or :class:`~repro.power.model.EnergyMeter`).
    sampling_cycle:
        Seconds per sample; the paper's default is 1 s.
    sensor:
        Optional imperfect sensor; default is ideal (exact readings).
    """

    def __init__(
        self,
        source: EnergySource,
        sampling_cycle: float = 1.0,
        sensor: Optional[HallSensor] = None,
    ) -> None:
        if sampling_cycle <= 0:
            raise PowerAnalyzerError(
                f"sampling_cycle must be > 0, got {sampling_cycle}"
            )
        self.source = source
        self.sampling_cycle = float(sampling_cycle)
        self.sensor = sensor if sensor is not None else HallSensor(IDEAL_SENSOR)
        self.samples: List[PowerSample] = []
        self._armed = False
        self._start_time: float | None = None
        self._sim: Simulator | None = None
        self._pending_event = None

    def start(self, sim: Simulator) -> None:
        """Arm the analyzer; first sample completes one cycle from now."""
        if self._armed:
            raise PowerAnalyzerError("analyzer already started")
        self._armed = True
        self._sim = sim
        self._start_time = sim.now
        self.samples = []
        self._schedule_next(sim.now)

    def _schedule_next(self, cycle_start: float) -> None:
        assert self._sim is not None
        self._pending_event = self._sim.schedule(
            cycle_start + self.sampling_cycle, self._take_sample, cycle_start,
            priority=10,
        )

    def _take_sample(self, cycle_start: float) -> None:
        assert self._sim is not None
        now = self._sim.now
        self._record_window(cycle_start, now)
        if self._armed:
            self._schedule_next(now)

    def _record_window(self, t0: float, t1: float) -> None:
        if t1 > t0:
            self._append_sample(t0, t1, self.source.energy_between(t0, t1))

    def record_windows(self, bounds: List[float], end: float) -> None:
        """:meth:`_record_window` over ``[bounds[i], bounds[i + 1]]`` and
        ``[bounds[-1], end]`` in order, with all energies from one
        ``energy_windows`` call; the sensor reads in window order."""
        ends = bounds[1:] + [end]
        energies = self.source.energy_windows(
            np.asarray(bounds, dtype=float), np.asarray(ends, dtype=float)
        ).tolist()
        for t0, t1, energy in zip(bounds, ends, energies):
            if t1 > t0:
                self._append_sample(t0, t1, energy)

    def _append_sample(self, t0: float, t1: float, energy: float) -> None:
        true_watts = energy / (t1 - t0)
        amps, volts = self.sensor.read(true_watts)
        self.samples.append(
            PowerSample(
                start=t0,
                end=t1,
                amperes=amps,
                volts=volts,
                watts=amps * volts,
                true_watts=true_watts,
                energy_joules=energy,
            )
        )

    def stop(self) -> None:
        """Disarm; a final partial-cycle sample is recorded if non-empty."""
        if not self._armed:
            raise PowerAnalyzerError("analyzer not started")
        self._armed = False
        if self._pending_event is not None:
            # Record the partial window between the last full cycle and now.
            assert self._sim is not None
            cycle_start = self._pending_event.args[0]
            self._pending_event.cancel()
            self._pending_event = None
            if self._sim.now > cycle_start:
                self._record_window(cycle_start, self._sim.now)

    # -- Aggregates ------------------------------------------------------

    @property
    def total_energy(self) -> float:
        """Joules across all recorded samples."""
        return sum(s.energy_joules for s in self.samples)

    @property
    def mean_watts(self) -> float:
        """Time-weighted mean reported power across samples."""
        total_t = sum(s.duration for s in self.samples)
        if total_t == 0:
            return 0.0
        return sum(s.watts * s.duration for s in self.samples) / total_t

    @property
    def mean_true_watts(self) -> float:
        """Time-weighted mean ground-truth power across samples."""
        total_t = sum(s.duration for s in self.samples)
        if total_t == 0:
            return 0.0
        return sum(s.true_watts * s.duration for s in self.samples) / total_t
