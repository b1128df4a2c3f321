import dataclasses

import numpy as np
import pytest

from nvphonon import dynamics, phonon
from nvphonon.core import (
    CONSTANTS,
    TWO_PI,
    AngularRate,
    EnergyMeV,
    TemperatureK,
    TimeTrace,
    ValidationError,
    rate_from_linear_mhz,
    rate_value,
    thermal_energy,
)


def test_constants_values():
    assert CONSTANTS.hbar == pytest.approx(6.582119569e-4, rel=1e-12)
    assert CONSTANTS.kb == pytest.approx(8.617333262e-2, rel=1e-12)
    assert CONSTANTS.alpha == 25.9


def test_constants_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        CONSTANTS.alpha = 30.0


def test_rate_from_linear_mhz_value():
    # 13.2 MHz in angular rad/ns: 2*pi * 13.2e-3
    assert rate_from_linear_mhz(13.2).value == 0.08293804605477054


def test_rate_round_trip():
    rate = rate_from_linear_mhz(159.154943)
    assert rate.value == pytest.approx(1.0, rel=1e-9)
    assert rate.linear_mhz == pytest.approx(159.154943, rel=1e-14)


def test_rate_float_protocol():
    rate = AngularRate(0.25)
    assert float(rate) == 0.25
    assert rate_value(rate) == 0.25
    assert rate_value(0.25) == 0.25


def test_negative_rate_rejected_unless_fitted():
    with pytest.raises(ValidationError):
        AngularRate(-0.1)
    assert AngularRate(-0.1, fitted=True).value == -0.1


def test_rate_rejects_non_finite():
    with pytest.raises(ValidationError):
        AngularRate(np.inf)
    with pytest.raises(ValidationError):
        AngularRate(np.nan)


def test_energy_ghz_round_trip():
    energy = EnergyMeV.from_ghz(10.0)
    # E = hbar * 2 pi f, 10 GHz = 10 cycles/ns
    assert energy.value == pytest.approx(CONSTANTS.hbar * TWO_PI * 10.0,
                                         rel=1e-14)
    assert energy.ghz == pytest.approx(10.0, rel=1e-12)


def test_energy_rejects_negative():
    with pytest.raises(ValidationError):
        EnergyMeV(-1.0)


def test_thermal_energy():
    assert thermal_energy(TemperatureK(20.0)).value == pytest.approx(
        1.7234666524, rel=1e-12)
    assert thermal_energy(20.0).value == thermal_energy(
        TemperatureK(20.0)).value


def test_temperature_rejects_negative():
    with pytest.raises(ValidationError):
        TemperatureK(-0.5)


def _simple_trace(**kwargs):
    times = np.arange(5, dtype=float)
    values = np.array([5, 4, 3, 2, 1], dtype=float)
    return TimeTrace(times, values, **kwargs)


def test_trace_basics():
    trace = _simple_trace()
    assert len(trace) == 5
    assert trace.values[0] == 5.0
    # arrays are frozen
    with pytest.raises(ValueError):
        trace.values[0] = 99.0


def test_trace_requires_increasing_times():
    with pytest.raises(ValidationError):
        TimeTrace(np.array([0.0, 1.0, 1.0]), np.zeros(3))
    with pytest.raises(ValidationError):
        TimeTrace(np.array([0.0, 2.0, 1.0]), np.zeros(3))


def test_trace_rejects_empty():
    with pytest.raises(ValidationError):
        TimeTrace(np.array([]), np.array([]))


def test_trace_counts_must_be_nonnegative():
    times = np.arange(3, dtype=float)
    with pytest.raises(ValidationError):
        TimeTrace(times, np.array([4, -1, 2]))
    # negative values are fine once a background has been subtracted
    trace = TimeTrace(times, np.array([4.0, -1.0, 2.0]),
                      background_subtracted=True)
    assert trace.values[1] == -1.0


def test_trace_uncertainty_shape_checked():
    times = np.arange(3, dtype=float)
    with pytest.raises(ValidationError):
        TimeTrace(times, np.ones(3), uncertainty=np.ones(2))


TIMES = np.arange(4, dtype=float)
NOT_FINITE = "trace times must be finite"
NOT_INCREASING = "trace times must be strictly increasing"


@pytest.mark.parametrize("times, values, kwargs, message", [
    ([np.nan, 1.0, 2.0, 3.0], np.ones(4), {}, NOT_FINITE),
    ([0.0, 1.0, np.nan, 3.0], np.ones(4), {}, NOT_FINITE),
    ([0.0, 1.0, 2.0, np.nan], np.ones(4), {}, NOT_FINITE),
    ([-np.inf, 1.0, 2.0, 3.0], np.ones(4), {}, NOT_FINITE),
    ([0.0, 1.0, 2.0, np.inf], np.ones(4), {}, NOT_FINITE),
    ([np.inf, 1.0, 2.0, 3.0], np.ones(4), {}, NOT_FINITE),
    ([0.0, np.inf, np.inf, 3.0], np.ones(4), {}, NOT_FINITE),
    ([0.0, 1.0, 1.0, 3.0], np.ones(4), {}, NOT_INCREASING),
    ([0.0, 2.0, 1.0, 3.0], np.ones(4), {}, NOT_INCREASING),
    (TIMES, [1.0, np.nan, 1.0, 1.0], {}, "trace values must be finite"),
    (TIMES, [1.0, 1.0, np.inf, 1.0], {}, "trace values must be finite"),
    (TIMES, np.array([4, -1, 2, 0]), {},
     "count traces must be >= 0 before subtraction"),
    (TIMES, np.ones(4), dict(uncertainty=np.ones(3)),
     "uncertainty must match times in length"),
    (TIMES, np.ones(4), dict(uncertainty=[1.0, np.nan, 1.0, 1.0]),
     "uncertainty must be finite and >= 0"),
    (TIMES, np.ones(4), dict(uncertainty=[1.0, 1.0, -0.5, 1.0]),
     "uncertainty must be finite and >= 0"),
], ids=["nan-time-first", "nan-time-middle", "nan-time-last",
        "-inf-time-first", "inf-time-last", "inf-time-first", "inf-times-middle",
        "repeated-time", "decreasing-time", "nan-value", "inf-value",
        "negative-counts", "uncertainty-shape", "nan-uncertainty",
        "negative-uncertainty"])
def test_trace_refusals(times, values, kwargs, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        TimeTrace(np.asarray(times, dtype=float), values, **kwargs)


@pytest.mark.parametrize("values", [np.array([4, -1, 2, 0]),
                                    np.array([4.0, -1.0, 2.0, 0.0])],
                         ids=["counts", "floats"])
def test_trace_keeps_negative_subtracted_values(values):
    trace = TimeTrace(TIMES, values, background_subtracted=True)
    np.testing.assert_array_equal(trace.values, values)


def test_trace_window():
    trace = _simple_trace()
    cut = trace.window(1.0, 2.0)
    np.testing.assert_array_equal(cut.times, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(cut.values, [4.0, 3.0, 2.0])
    with pytest.raises(ValidationError):
        trace.window(10.0, 5.0)
    # a NaN bound selects no sample, whatever sorted search would give
    for start, length in ((0.0, np.nan), (-np.inf, np.inf), (np.nan, 2.0)):
        with pytest.raises(ValidationError, match="^window selects no samples$"):
            trace.window(start, length)
    whole = trace.window(-1e300, np.inf)
    np.testing.assert_array_equal(whole.times, trace.times)


def test_trace_metadata_carried():
    trace = _simple_trace(temperature=5.0, channel="bright")
    assert trace.temperature == 5.0
    assert trace.channel == "bright"


@pytest.mark.parametrize("build", [
    lambda: dynamics.ThreeLevelModel(gamma_rad_x=AngularRate(-0.1, fitted=True)),
    lambda: phonon.PhononCoupling(eta=AngularRate(-1.0, fitted=True)),
    lambda: phonon.SpinOrbit(lambda_par=AngularRate(-5.0, fitted=True)),
], ids=["three_level_rate", "phonon_eta", "spin_orbit_lambda"])
def test_physical_rates_refuse_signed_fit_outputs(build):
    # a fitted rate may be negative, but a model's physical rates may not
    with pytest.raises(ValidationError, match="physical rate must be >= 0"):
        build()
