import dataclasses

import numpy as np
import pytest

from nvphonon import dynamics, phonon, synth
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


# ---------------------------------------------------------------------------
# traces the package makes


def _assert_same_trace(made, public):
    """Every field of made equals public's: arrays bit for bit, with their
    dtype, layout and read-only flags; the other fields by value and type."""
    for field in dataclasses.fields(TimeTrace):
        ours, theirs = getattr(made, field.name), getattr(public, field.name)
        if isinstance(theirs, np.ndarray):
            assert isinstance(ours, np.ndarray), field.name
            assert ours.dtype == theirs.dtype, field.name
            assert ours.shape == theirs.shape, field.name
            assert ours.tobytes() == theirs.tobytes(), field.name
            assert ours.flags.c_contiguous == theirs.flags.c_contiguous, field.name
            assert not ours.flags.writeable and not theirs.flags.writeable
            # nor can the array be written through a view's base
            assert ours.base is None or not ours.base.flags.writeable, field.name
        else:
            assert type(ours) is type(theirs) and ours == theirs, field.name


def _check_made_trace(made):
    # dataclasses.replace builds the public TimeTrace of the same fields,
    # copied and checked
    _assert_same_trace(made, dataclasses.replace(made))


def _evolved_traces(seed, times):
    """The traces of one evolve_rates call on a seeded rate model, those of
    one evolve_lindblad call on a seeded driven model (populations, then
    the coherence) and that call's EvolutionResult."""
    rng = np.random.default_rng(seed)
    rates = dynamics.build_a12_model(*rng.uniform(0.01, 0.3, 3))
    populations = dynamics.evolve_rates(rates, rng.dirichlet([1.0, 1.0]), times)
    r = rng.uniform(0.0, 0.3, 6)
    model = dynamics.ThreeLevelModel(
        gamma_rad_x=r[0], gamma_rad_y=r[1], gamma_mix_xy=r[2],
        gamma_mix_yx=r[3], gamma_t2=r[4], rabi=10.0 * r[5],
        detuning=rng.uniform(-1.0, 1.0))
    result = dynamics.evolve_lindblad(model, dynamics.DensityMatrix3.pure("g"),
                                      times)
    return (list(populations.values()),
            list(result.populations.values()) + [result.coherence], result)


_MADE_GRIDS = {"lattice": np.arange(0.0, 200.1, 2.0),
               "arange-0.05": np.arange(0.0, 40.0, 0.05),
               "geomspace": np.geomspace(0.01, 200.0, 50)}


@pytest.mark.parametrize("grid", sorted(_MADE_GRIDS))
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_evolved_traces_match_the_public_constructor(seed, grid):
    times = _MADE_GRIDS[grid].copy()
    rate, lindblad, result = _evolved_traces(seed, times)
    traces = rate + lindblad
    kept = [(trace.times.copy(), trace.values.copy()) for trace in traces]
    for trace in traces:
        _check_made_trace(trace)
    # each call makes one copy of the times, which its result also holds
    assert all(trace.times is rate[0].times for trace in rate)
    assert all(trace.times is result.times for trace in lindblad)
    times[:] = -1.0  # the caller's array is not the traces'
    for trace, (t, v) in zip(traces, kept):
        np.testing.assert_array_equal(trace.times, t)
        np.testing.assert_array_equal(trace.values, v)


def test_window_matches_the_public_constructor():
    spec = synth.ExperimentSpec(model="exponential", params=dict(rate=0.12),
                                pulse_edge=0.0, background_rate=3.0,
                                total_counts=5e4, seed=13)
    signal, background = synth.generate_background_pair(spec)
    signal = dataclasses.replace(signal, temperature=14.0, channel="A1")
    clean = synth.subtract_background(signal, background)
    window = clean.window(5.0, 30.0)
    _check_made_trace(window)
    # the window carries every field of the trace it was cut from
    first, end = 20, 20 + len(window)
    _assert_same_trace(window, TimeTrace(
        clean.times[first:end], clean.values[first:end],
        uncertainty=clean.uncertainty[first:end], temperature=14.0, channel="A1",
        background_subtracted=True, clamped_bins=clean.clamped_bins))


def test_package_made_traces_are_not_checked_again(monkeypatch):
    calls = []
    post_init = TimeTrace.__post_init__

    def counting_post_init(self):
        calls.append(type(self))
        post_init(self)

    monkeypatch.setattr(TimeTrace, "__post_init__", counting_post_init)
    _evolved_traces(3, _MADE_GRIDS["arange-0.05"])
    assert calls == []
    _simple_trace()  # the public constructor does run it
    assert calls == [TimeTrace]
