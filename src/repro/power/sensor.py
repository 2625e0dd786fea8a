"""Hall-effect current sensor model.

The paper's power analyzer "uses a magnetic loop to enclose the 220 V AC
power supply ... measures current values by analyzing magnetic changes"
(Section V-A).  Real Hall loops have a gain (calibration) error, a DC
offset, and sample noise.  The simulated sensor converts true power into
the current/voltage pair the meter would report, applying those
imperfections, so the analyzer pipeline processes realistic readings —
and so experiments can quantify how measurement error propagates into the
efficiency metrics (an ablation the real paper could not run).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PowerAnalyzerError
from ..rng import make_rng


@dataclass(frozen=True)
class SensorSpec:
    """Imperfection parameters of a Hall-effect current probe.

    Parameters
    ----------
    gain_error:
        Multiplicative calibration error, e.g. ``0.01`` reads 1 % high.
    offset_amperes:
        Additive DC offset on the current reading.
    noise_amperes:
        Standard deviation of zero-mean Gaussian sample noise.
    supply_voltage:
        Nominal supply voltage (the paper's array runs on 220 V AC).
    voltage_ripple:
        Relative std-dev of the voltage reading (mains fluctuation).
    """

    gain_error: float = 0.0
    offset_amperes: float = 0.0
    noise_amperes: float = 0.0
    supply_voltage: float = 220.0
    voltage_ripple: float = 0.0

    def __post_init__(self) -> None:
        if self.supply_voltage <= 0:
            raise PowerAnalyzerError(
                f"supply voltage must be > 0, got {self.supply_voltage}"
            )
        if self.noise_amperes < 0 or self.voltage_ripple < 0:
            raise PowerAnalyzerError("noise parameters must be >= 0")


IDEAL_SENSOR = SensorSpec()


class HallSensor:
    """Convert true power draw into (current, voltage) meter readings."""

    def __init__(self, spec: SensorSpec = IDEAL_SENSOR, seed: int | None = None):
        self.spec = spec
        # Only a noisy sensor draws; an exact one never builds a generator.
        noisy = spec.noise_amperes or spec.voltage_ripple
        self._rng = make_rng(seed) if noisy else None

    def read(self, true_watts: float) -> tuple:
        """One sample: returns ``(amperes, volts)`` as the meter sees them.

        The true current is ``P / V_nominal``; the reading applies gain,
        offset, and noise.  Negative readings clamp to zero (a real meter
        rectifies).
        """
        if true_watts < 0:
            raise PowerAnalyzerError(f"true power must be >= 0, got {true_watts}")
        spec = self.spec
        true_amps = true_watts / spec.supply_voltage
        amps = true_amps * (1.0 + spec.gain_error) + spec.offset_amperes
        if spec.noise_amperes:
            amps += self._rng.normal(0.0, spec.noise_amperes)
        volts = spec.supply_voltage
        if spec.voltage_ripple:
            volts *= 1.0 + self._rng.normal(0.0, spec.voltage_ripple)
        return max(amps, 0.0), max(volts, 0.0)

    def power_from_reading(self, amperes: float, volts: float) -> float:
        """Apparent power implied by a reading (what the meter reports)."""
        return amperes * volts
