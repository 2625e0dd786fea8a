"""Hall-effect sensor model tests."""

import numpy as np
import pytest

from repro.errors import PowerAnalyzerError
from repro.power.sensor import HallSensor, IDEAL_SENSOR, SensorSpec


class TestIdealSensor:
    def test_exact_reading(self):
        sensor = HallSensor(IDEAL_SENSOR)
        amps, volts = sensor.read(220.0)
        assert volts == 220.0
        assert amps == pytest.approx(1.0)
        assert sensor.power_from_reading(amps, volts) == pytest.approx(220.0)

    def test_zero_power(self):
        amps, volts = HallSensor().read(0.0)
        assert amps == 0.0

    def test_negative_power_rejected(self):
        with pytest.raises(PowerAnalyzerError):
            HallSensor().read(-5.0)


class TestImperfections:
    def test_gain_error(self):
        sensor = HallSensor(SensorSpec(gain_error=0.02))
        amps, volts = sensor.read(220.0)
        assert amps * volts == pytest.approx(220.0 * 1.02)

    def test_offset(self):
        sensor = HallSensor(SensorSpec(offset_amperes=0.1))
        amps, _ = sensor.read(0.0)
        assert amps == pytest.approx(0.1)

    def test_noise_is_seeded(self):
        spec = SensorSpec(noise_amperes=0.05)
        a = [HallSensor(spec, seed=1).read(100.0)[0] for _ in range(1)]
        b = [HallSensor(spec, seed=1).read(100.0)[0] for _ in range(1)]
        assert a == b

    def test_noise_zero_mean(self):
        sensor = HallSensor(SensorSpec(noise_amperes=0.02), seed=7)
        readings = np.array([sensor.read(220.0)[0] for _ in range(2000)])
        assert readings.mean() == pytest.approx(1.0, abs=0.005)
        assert readings.std() == pytest.approx(0.02, rel=0.15)

    def test_readings_clamped_non_negative(self):
        sensor = HallSensor(
            SensorSpec(noise_amperes=1.0, offset_amperes=-10.0), seed=2
        )
        amps, volts = sensor.read(1.0)
        assert amps >= 0.0

    def test_voltage_ripple(self):
        sensor = HallSensor(SensorSpec(voltage_ripple=0.01), seed=3)
        volts = np.array([sensor.read(100.0)[1] for _ in range(1000)])
        assert volts.mean() == pytest.approx(220.0, rel=0.005)
        assert volts.std() > 0


class TestSpecValidation:
    def test_bad_voltage(self):
        with pytest.raises(PowerAnalyzerError):
            SensorSpec(supply_voltage=0.0)

    def test_negative_noise(self):
        with pytest.raises(PowerAnalyzerError):
            SensorSpec(noise_amperes=-0.1)


class TestLazyGenerator:
    """Only a noisy sensor builds a random generator."""

    @pytest.mark.parametrize(
        "spec", [IDEAL_SENSOR, SensorSpec(gain_error=0.02, offset_amperes=0.1)]
    )
    def test_noiseless_sensor_builds_no_generator(self, spec):
        sensor = HallSensor(spec, seed=5)
        assert sensor._rng is None
        for watts in (0.0, 1.5, 220.0, 980.25):
            amps = watts / spec.supply_voltage
            amps = amps * (1.0 + spec.gain_error) + spec.offset_amperes
            assert sensor.read(watts) == (max(amps, 0.0), spec.supply_voltage)

    @pytest.mark.parametrize(
        "spec",
        [
            SensorSpec(noise_amperes=0.05),
            SensorSpec(voltage_ripple=0.01),
            SensorSpec(noise_amperes=0.05, voltage_ripple=0.01, gain_error=0.01),
        ],
    )
    def test_seeded_noisy_sequence_is_unchanged(self, spec):
        # The draws a noisy sensor makes: one current-noise value, then
        # one ripple value, per reading, from the seeded generator.
        rng = np.random.default_rng(9)
        sensor = HallSensor(spec, seed=9)
        for watts in (10.0, 220.0, 0.5, 640.0):
            amps = watts / spec.supply_voltage * (1.0 + spec.gain_error)
            amps += spec.offset_amperes
            if spec.noise_amperes:
                amps += rng.normal(0.0, spec.noise_amperes)
            volts = spec.supply_voltage
            if spec.voltage_ripple:
                volts *= 1.0 + rng.normal(0.0, spec.voltage_ripple)
            assert sensor.read(watts) == (max(amps, 0.0), max(volts, 0.0))
