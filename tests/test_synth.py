import dataclasses
import hashlib
import sys

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from nvphonon import closedform, estimate, phonon, synth
from nvphonon.core import TimeTrace, ValidationError, rate_from_linear_mhz
from nvphonon.synth import ExperimentSpec, ModelError

GAMMA_RAD = rate_from_linear_mhz(13.2)
GAMMA_MIX_WARM = rate_from_linear_mhz(18.5)
GAMMA_ISC = rate_from_linear_mhz(16.0)


def _spec(**overrides):
    fields = dict(model="exponential", params=dict(rate=0.12),
                  bin_width=0.25, span=120.0, total_counts=1e5,
                  background_rate=0.0, pulse_edge=0.0, seed=7)
    fields.update(overrides)
    return ExperimentSpec(**fields)


# ---------------------------------------------------------------------------
# model registry


def test_model_names_registered():
    assert set(synth.MODEL_NAMES) == {"constant", "exponential",
                                      "depolarization", "a12", "rabi",
                                      "lindblad"}


def test_unknown_model_rejected():
    with pytest.raises(ModelError):
        synth.model_intensity("fourier", {})


def test_unknown_parameter_rejected():
    with pytest.raises(ModelError):
        synth.model_intensity("exponential", dict(rate=0.1, typo=1.0))


@pytest.mark.parametrize("name, params, message", [
    # unknown names are refused before missing ones
    ("a12", dict(zeta=1.0, alpha=2.0), r"unknown model parameters \['alpha', 'zeta'\]"),
    ("constant", dict(rate=0.1), r"unknown model parameters \['rate'\]"),
    # the first missing parameter in the builder's order
    ("a12", {}, "model parameter 'gamma_rad' is required"),
    ("a12", dict(gamma_rad=0.1, gamma_mix=0.1, gamma_isc=0.1),
     "model parameter 'branch' is required"),
    ("rabi", dict(tau_rabi=9.0), "model parameter 'omega' is required"),
    ("rabi", dict(omega=0.5, amplitude=2.0), "model parameter 'tau_rabi' is required"),
    ("depolarization", dict(gamma_mix=0.1), "model parameter 'gamma_rad' is required"),
])
def test_model_parameter_errors(name, params, message):
    with pytest.raises(ModelError, match=message):
        synth.model_intensity(name, params)


def test_intensity_zero_before_time_origin():
    intensity = synth.model_intensity("exponential", dict(rate=0.1))
    values = intensity(np.array([-5.0, -0.1, 0.0, 1.0]))
    assert values[0] == 0.0
    assert values[1] == 0.0
    assert values[3] > 0.0


def test_exponential_model_shape():
    intensity = synth.model_intensity("exponential", dict(rate=0.2))
    t = np.linspace(0.0, 30.0, 31)
    np.testing.assert_allclose(intensity(t), np.exp(-0.2 * t), rtol=1e-12)


def test_depolarization_model_channels_and_pulse():
    params = dict(gamma_rad=GAMMA_RAD.value, gamma_mix=GAMMA_MIX_WARM.value,
                  amplitude=0.9, epsilon=0.1, t0=5.0)
    t = np.linspace(0.0, 40.0, 81)
    bright = synth.model_intensity("depolarization",
                                   dict(params, channel="bright"))(t)
    dark = synth.model_intensity("depolarization",
                                 dict(params, channel="dark"))(t)
    # neither channel emits before the pulse arrives
    assert np.all(bright[t < 5.0] == 0.0)
    assert np.all(dark[t < 5.0] == 0.0)
    expected_b, expected_d = closedform.observed_polarized_intensity(
        0.9, 0.1, 5.0, GAMMA_RAD.value, GAMMA_MIX_WARM.value, t[t >= 5.0])
    np.testing.assert_allclose(bright[t >= 5.0], expected_b, rtol=1e-12)
    np.testing.assert_allclose(dark[t >= 5.0], expected_d, rtol=1e-12)
    with pytest.raises(ModelError):
        synth.model_intensity("depolarization",
                              dict(params, channel="sideways"))


def test_a12_model_branches():
    params = dict(gamma_rad=GAMMA_RAD.value, gamma_mix=GAMMA_MIX_WARM.value,
                  gamma_isc=GAMMA_ISC.value)
    t = np.linspace(0.0, 60.0, 121)
    a1 = synth.model_intensity("a12", dict(params, branch="A1"))(t)
    expected = closedform.fluorescence_a12(GAMMA_RAD.value,
                                           GAMMA_MIX_WARM.value,
                                           GAMMA_ISC.value, "A1", t)
    np.testing.assert_allclose(a1, expected, rtol=1e-12)
    with pytest.raises(ModelError):
        synth.model_intensity("a12", dict(params, branch="A3"))


def test_rabi_model_matches_closed_form():
    params = dict(omega=0.5, tau_rabi=9.0, amplitude=1.2, phi=0.1,
                  t0=0.3, gamma_isc_x=0.002)
    t = np.linspace(0.0, 50.0, 101)
    values = synth.model_intensity("rabi", params)(t)
    expected = closedform.rabi_fit_model(t, 1.2, 0.5, 0.1, 0.3, 9.0, 0.002)
    np.testing.assert_allclose(values, np.clip(expected, 0.0, None),
                               rtol=1e-12)


def test_lindblad_model_observables():
    params = dict(gamma_rad_x=GAMMA_RAD.value, gamma_rad_y=GAMMA_RAD.value,
                  gamma_mix_xy=GAMMA_MIX_WARM.value,
                  gamma_mix_yx=GAMMA_MIX_WARM.value,
                  gamma_t2=0.0, gamma_isc_x=0.0, rabi=0.0, detuning=0.0)
    t = np.linspace(0.0, 30.0, 31)
    fluor = synth.model_intensity("lindblad", params)(t)
    x_only = synth.model_intensity("lindblad",
                                   dict(params, observable="x"))(t)
    y_only = synth.model_intensity("lindblad",
                                   dict(params, observable="y"))(t)
    np.testing.assert_allclose(fluor, x_only + y_only, atol=1e-10)
    with pytest.raises(ModelError):
        synth.model_intensity("lindblad", dict(params, observable="z"))


# ---------------------------------------------------------------------------
# count generation


def test_generate_is_deterministic():
    first = synth.generate(_spec())
    second = synth.generate(_spec())
    np.testing.assert_array_equal(first.values, second.values)
    third = synth.generate(_spec(seed=8))
    assert np.any(third.values != first.values)


def test_generate_a12_counts_are_pinned():
    # recorded before fluorescence_a12 evaluated its two exponentials as
    # arrays of curves: seeded histograms keep their bits
    digest = hashlib.sha256()
    for branch in ("A1", "A2"):
        for gamma_mix in (0.0, 1e-7, 0.02, 0.3):
            spec = _spec(model="a12", params=dict(
                gamma_rad=GAMMA_RAD.value, gamma_mix=gamma_mix,
                gamma_isc=GAMMA_ISC.value, branch=branch),
                total_counts=1e6, background_rate=0.5, pulse_edge=0.4, seed=17)
            digest.update(synth.generate(spec).values.astype("<f8").tobytes())
    assert digest.hexdigest() == (
        "2fd1c03dd7bb4e474458805510530a88a44fe8bfbfff2509ccc4dafd2cc8d5d2")


def test_generate_lindblad_counts_are_pinned():
    # recorded while evolve_lindblad stepped sample to sample: seeded
    # histograms keep their bits
    driven = dict(gamma_rad_x=GAMMA_RAD.value, gamma_rad_y=GAMMA_RAD.value,
                  gamma_t2=rate_from_linear_mhz(10.0).value,
                  rabi=rate_from_linear_mhz(100.0).value)
    mixing = dict(gamma_rad_x=GAMMA_RAD.value, gamma_rad_y=GAMMA_RAD.value,
                  gamma_mix_xy=GAMMA_MIX_WARM.value,
                  gamma_mix_yx=0.5 * GAMMA_MIX_WARM.value)
    sink = dict(gamma_rad_x=GAMMA_RAD.value, gamma_isc_x=GAMMA_ISC.value)
    digest = hashlib.sha256()
    for params in (driven, mixing, sink):
        for seed in range(20):
            spec = _spec(model="lindblad", params=params, total_counts=1e6,
                         pulse_edge=2.0, seed=seed)
            digest.update(synth.generate(spec).values.astype("<f8").tobytes())
    assert digest.hexdigest() == (
        "649198b555cd9c8c109b22198499b32a2f635cbdd595b463cc8a1e37326b9a40")


def test_generate_counts_are_nonnegative_integers():
    trace = synth.generate(_spec())
    assert trace.values.dtype == np.int64
    assert np.all(trace.values >= 0)
    assert len(trace) == int(round(120.0 / 0.25))
    # bin centers sit mid-bin
    assert trace.times[0] == pytest.approx(0.125)
    assert trace.times[-1] == pytest.approx(119.875)


def test_generate_total_counts_scale():
    trace = synth.generate(_spec(total_counts=4e5))
    # Poisson total: within 5 sigma of the target
    assert abs(trace.values.sum() - 4e5) < 5.0 * np.sqrt(4e5)


def test_generate_background_only():
    spec = _spec(total_counts=0.0, background_rate=3.0, span=50.0)
    trace = synth.generate(spec)
    n = len(trace)
    assert abs(trace.values.mean() - 3.0) < 5.0 * np.sqrt(3.0 / n)


def test_generate_ensemble_mean_converges():
    n_seeds = 256
    accum = None
    for seed in range(n_seeds):
        trace = synth.generate(_spec(seed=seed, span=40.0))
        accum = trace.values if accum is None else accum + trace.values
    mean = accum / n_seeds
    _, expected = synth._expected_signal(_spec(span=40.0))
    busy = expected > 100.0
    assert busy.any()
    rel = np.abs(mean[busy] - expected[busy]) / expected[busy]
    assert rel.max() < 5.0 / np.sqrt(n_seeds)


def test_pulse_edge_smooths_the_rise():
    spec_sharp = _spec(model="depolarization",
                       params=dict(gamma_rad=GAMMA_RAD.value,
                                   gamma_mix=0.0, t0=5.0),
                       pulse_edge=0.0)
    spec_soft = _spec(model="depolarization",
                      params=dict(gamma_rad=GAMMA_RAD.value,
                                  gamma_mix=0.0, t0=5.0),
                      pulse_edge=2.0)
    centers, sharp = synth._expected_signal(spec_sharp)
    _, soft = synth._expected_signal(spec_soft)
    before = centers < 4.0
    assert sharp[before].sum() == 0.0
    assert soft[before].sum() > 0.0
    # normalization is preserved
    assert sharp.sum() == pytest.approx(soft.sum(), rel=1e-9)


@pytest.mark.parametrize("edge", [0.0, 2.0, 7.5])
def test_sample_count_includes_pulse_edge_padding(edge, monkeypatch):
    evaluated = []
    model_intensity = synth.model_intensity

    def recording(name, params):
        intensity = model_intensity(name, params)
        return lambda t: evaluated.append(len(t)) or intensity(t)

    terms = []
    convolve = np.convolve

    def counting(a, v, mode):
        terms.append(len(a) * len(v))
        return convolve(a, v, mode)

    monkeypatch.setattr(synth, "model_intensity", recording)
    monkeypatch.setattr(np, "convolve", counting)
    spec = _spec(pulse_edge=edge)
    synth.generate(spec)
    assert evaluated == [synth.sample_count(spec)]
    assert sum(terms) == synth.convolution_terms(spec)


def test_vanishing_model_rejected():
    spec = _spec(model="depolarization",
                 params=dict(gamma_rad=GAMMA_RAD.value, gamma_mix=0.0,
                             t0=500.0))
    with pytest.raises(ModelError):
        synth.generate(spec)


def test_spec_validation():
    with pytest.raises(ValidationError):
        _spec(bin_width=0.0)
    with pytest.raises(ValidationError):
        _spec(span=-1.0)
    with pytest.raises(ValidationError):
        _spec(total_counts=-5.0)
    with pytest.raises(ValidationError):
        _spec(background_rate=-0.1)
    for name in ("bin_width", "span", "total_counts", "background_rate",
                 "pulse_edge"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="must be finite"):
                _spec(**{name: value})
    # numpy's generator takes non-negative integer seeds only
    for seed in (-1, 1.5, "7"):
        with pytest.raises(ValidationError, match="non-negative integer"):
            _spec(seed=seed)
    assert _spec(seed=np.int64(3)).seed == 3


@pytest.mark.parametrize("bin_width", [5e-324, 1e-320, 2.0**-1023])
def test_subnormal_bin_width_is_refused(bin_width):
    # a subnormal width would round neighbouring bin centres
    # (j + 1/2) bin_width together: the spec refuses it by the field's name
    with pytest.raises(ValidationError, match=r"^bin_width must be at least "
                       r"2\.22507e-308 ns \(a normal float\), got "):
        _spec(bin_width=bin_width, span=20 * bin_width)
    assert _spec(bin_width=2.0**-1022, span=2.0**-1018).bin_width == 2.0**-1022


@pytest.mark.parametrize("generator", [synth.generate, synth.generate_background_pair])
@pytest.mark.parametrize("fields, message", [
    # span / bin_width overflows to inf samples
    (dict(model="constant", params={}, span=1e308, bin_width=1e-10),
     "synthetic histogram would hold inf samples (limit 10000000)"),
    # 41 248 samples, inside the limit, but 40 769 kernel taps each
    (dict(pulse_edge=3000.0),
     "a 3000 ns pulse edge would cost 1.68e+09 convolution terms (limit 1e+09)"),
], ids=["samples", "convolution"])
def test_oversized_spec_is_refused_unbuilt(generator, fields, message):
    with pytest.raises(ValidationError) as refused:
        generator(_spec(**fields))
    assert type(refused.value) is ValidationError
    assert str(refused.value) == message


@pytest.mark.parametrize("generator", [synth.generate, synth.generate_background_pair])
def test_generate_refuses_bin_means_beyond_the_poisson_limit(generator):
    # numpy draws Poisson means up to int64 max - 10 sqrt(int64 max) ~ 9.2e18
    limit = synth._POISSON_MEAN_MAX
    assert np.random.default_rng(0).poisson(limit) > 0
    with pytest.raises(ValueError, match="lam value too large"):
        np.random.default_rng(0).poisson(np.nextafter(limit, np.inf))
    generator(_spec(total_counts=0.0, background_rate=limit))
    for spec in (_spec(total_counts=0.0, background_rate=np.nextafter(limit, np.inf)),
                 _spec(total_counts=1e300), _spec(background_rate=1e300)):
        with pytest.raises(ValidationError, match="a bin would expect"):
            generator(spec)


def test_generate_matches_windowed_pipeline():
    # counts made from the branch model fit back to the branch rate
    spec = _spec(model="a12",
                 params=dict(gamma_rad=GAMMA_RAD.value,
                             gamma_mix=GAMMA_MIX_WARM.value,
                             gamma_isc=GAMMA_ISC.value, branch="A1"),
                 total_counts=2e6, seed=3)
    trace = synth.generate(spec)
    fit = estimate.fit_exponential_window(trace,
                                          estimate.FitWindow(4.0, 115.0))
    eff_a1, _ = phonon.effective_isc_rates(GAMMA_RAD, GAMMA_ISC,
                                           GAMMA_MIX_WARM)
    measured = fit["rate"] - GAMMA_RAD.value
    assert measured == pytest.approx(eff_a1.value,
                                     abs=3.0 * fit.sigma_of("rate"))


def _model_params(model, span):
    """Parameters of each model with rates of a few per span, or at most
    1e50 rad/ns, where the closed forms' products of rates stay finite."""
    r = min(1.0 / span, 1e50)
    return {
        "constant": {},
        "exponential": dict(rate=2.0 * r),
        "depolarization": dict(gamma_rad=r, gamma_mix=0.5 * r, t0=0.1 * span),
        "a12": dict(gamma_rad=r, gamma_mix=0.5 * r, gamma_isc=0.7 * r, branch="A1"),
        "rabi": dict(omega=20.0 * r, tau_rabi=0.5 * span),
        "lindblad": dict(gamma_rad_x=r, gamma_rad_y=r, gamma_mix_xy=0.3 * r,
                         rabi=5.0 * r),
    }[model]


def _assert_same_trace(trace, other):
    for field in dataclasses.fields(TimeTrace):
        value, expected = getattr(trace, field.name), getattr(other, field.name)
        if isinstance(expected, np.ndarray):
            assert value.dtype == expected.dtype
            assert value.tobytes() == expected.tobytes()
        else:
            assert value == expected


@settings(max_examples=120, deadline=None)
@given(model=st.sampled_from(synth.MODEL_NAMES),
       bin_width=st.one_of(st.just(sys.float_info.min),
                           st.floats(sys.float_info.min, 1e300)),
       bins=st.integers(1, 2048), edge_bins=st.floats(0.0, 8.0),
       total_counts=st.floats(0.0, 1e7), background_rate=st.floats(0.0, 50.0),
       seed=st.integers(0, 2**32 - 1))
@example(model="a12", bin_width=0.25, bins=480, edge_bins=8.0,
         total_counts=1e6, background_rate=2.0, seed=0)
@example(model="constant", bin_width=sys.float_info.min, bins=2048, edge_bins=0.0,
         total_counts=1e6, background_rate=0.0, seed=1)
# an edge far narrower than a bin, and one whose sigma underflows to 0
@example(model="exponential", bin_width=1.0, bins=1, edge_bins=4e-275,
         total_counts=0.0, background_rate=0.0, seed=0)
@example(model="exponential", bin_width=sys.float_info.min, bins=3,
         edge_bins=2.5e-16, total_counts=1e3, background_rate=0.0, seed=0)
def test_generated_traces_are_checked_read_only_and_uncopied(
        model, bin_width, bins, edge_bins, total_counts, background_rate, seed):
    # generate hands the arrays it builds to its traces without a copy:
    # each trace is the one the constructor makes of its arrays, holds
    # read-only arrays, and shares its bin centres, but no counts, with
    # the other of its pair
    span = bins * bin_width
    spec = ExperimentSpec(model=model, params=_model_params(model, span),
                          bin_width=bin_width, span=span,
                          total_counts=total_counts,
                          background_rate=background_rate,
                          pulse_edge=edge_bins * bin_width, seed=seed)
    try:
        synth._expected_signal(spec)
    except ValidationError:  # a model that vanishes or overflows on this grid
        reject()
    trace = synth.generate(spec)
    pair = synth.generate_background_pair(spec)
    for made in (trace, *pair):
        _assert_same_trace(made, TimeTrace(made.times, made.values))
        assert not made.times.flags.writeable and not made.values.flags.writeable
        assert made.values.dtype == np.int64 and len(made) == bins
    _assert_same_trace(trace, pair[0])
    assert np.shares_memory(pair[0].times, pair[1].times)
    assert not np.shares_memory(pair[0].values, pair[1].values)


# ---------------------------------------------------------------------------
# background handling


def test_background_pair_and_subtraction():
    spec = _spec(background_rate=4.0, total_counts=5e4, span=60.0)
    signal, background = synth.generate_background_pair(spec)
    np.testing.assert_array_equal(signal.times, background.times)
    clean = synth.subtract_background(signal, background)
    assert clean.background_subtracted
    assert np.all(clean.values >= 0.0)
    assert clean.uncertainty is not None
    np.testing.assert_allclose(
        clean.uncertainty,
        np.sqrt(np.maximum(signal.values + background.values, 1.0)))
    # the pair is reproducible as a unit
    again_signal, again_background = synth.generate_background_pair(spec)
    np.testing.assert_array_equal(signal.values, again_signal.values)
    np.testing.assert_array_equal(background.values, again_background.values)


def test_subtraction_mean_recovers_signal():
    spec = _spec(background_rate=6.0, total_counts=2e5, span=40.0)
    _, expected = synth._expected_signal(spec)
    accum = np.zeros_like(expected)
    n_seeds = 64
    for seed in range(n_seeds):
        signal, background = synth.generate_background_pair(
            _spec(background_rate=6.0, total_counts=2e5, span=40.0,
                  seed=seed))
        accum += synth.subtract_background(signal, background).values
    mean = accum / n_seeds
    busy = expected > 200.0
    rel = np.abs(mean[busy] - expected[busy]) / expected[busy]
    assert rel.max() < 5.0 / np.sqrt(n_seeds)


def test_subtract_identical_traces_clamps_everything():
    trace = synth.generate(_spec())
    clean = synth.subtract_background(trace, trace)
    assert np.all(clean.values == 0.0)
    assert clean.clamped_bins == len(trace)


def test_subtract_requires_matching_bins():
    a = synth.generate(_spec())
    b = synth.generate(_spec(span=60.0))
    with pytest.raises(ValidationError):
        synth.subtract_background(a, b)


def test_reject_before():
    trace = synth.generate(_spec(bin_width=0.1, span=50.0))
    kept = synth.reject_before(trace, 3.3)
    assert len(kept) == len(trace) - 33
    assert kept.times[0] == pytest.approx(3.35)
    with pytest.raises(ValidationError):
        synth.reject_before(trace, 1e6)
