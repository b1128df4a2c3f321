import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nvphonon import closedform, estimate, phonon, synth, verify
from nvphonon.core import (
    TWO_PI,
    AngularRate,
    TimeTrace,
    ValidationError,
    rate_from_linear_mhz,
)
from nvphonon.estimate import FitWindow

GAMMA_RAD = rate_from_linear_mhz(13.2)
GAMMA_MIX_COLD = rate_from_linear_mhz(0.08)
GAMMA_MIX_WARM = rate_from_linear_mhz(18.5)
GAMMA_ISC = rate_from_linear_mhz(16.0)


# ---------------------------------------------------------------------------
# generic least squares


def _exp_trace(amplitude=40.0, rate=0.09, n=200, dt=0.5):
    t = dt * np.arange(n) + 0.5 * dt
    return TimeTrace(t, amplitude * np.exp(-rate * t))


def test_nlls_recovers_noiseless_exponential():
    trace = _exp_trace()
    model = lambda t, amplitude, rate: amplitude * np.exp(-rate * t)
    fit = estimate.nlls(model, trace, {"amplitude": 10.0, "rate": 0.2})
    assert fit.converged
    assert fit["amplitude"] == pytest.approx(40.0, rel=1e-8)
    assert fit["rate"] == pytest.approx(0.09, rel=1e-8)


def test_nlls_matches_weighted_polyfit():
    # straight line: the normal equations have a closed form
    rng = np.random.default_rng(55)
    t = np.linspace(0.0, 10.0, 40)
    y = 3.0 - 0.4 * t + rng.normal(0.0, 0.05, size=40)
    sigma = np.full(40, 0.05)
    trace = TimeTrace(t, y, uncertainty=sigma, background_subtracted=True)
    model = lambda tt, offset, slope: offset + slope * tt
    fit = estimate.nlls(model, trace, {"offset": 0.0, "slope": 0.0},
                        weights="provided")
    expected = np.polyfit(t, y, 1, w=1.0 / sigma)
    assert fit["slope"] == pytest.approx(expected[0], rel=1e-9)
    assert fit["offset"] == pytest.approx(expected[1], rel=1e-9)


def test_nlls_improves_on_the_start():
    trace = _exp_trace()
    model = lambda t, amplitude, rate: amplitude * np.exp(-rate * t)
    start = {"amplitude": 25.0, "rate": 0.15}
    chi2_init = float(np.sum((trace.values
                              - model(trace.times, **start)) ** 2))
    fit = estimate.nlls(model, trace, start)
    assert fit.chi2 <= chi2_init


def test_nlls_scale_invariance():
    # multiplying the data by a constant must not move the rate
    t = np.arange(0.0, 50.0, 0.5)
    base = TimeTrace(t, 2.5 * np.exp(-0.11 * t))
    big = TimeTrace(t, 2.5e6 * np.exp(-0.11 * t))
    model = lambda tt, amplitude, rate: amplitude * np.exp(-rate * tt)
    fit_a = estimate.nlls(model, base, {"amplitude": 1.0, "rate": 0.2})
    fit_b = estimate.nlls(model, big, {"amplitude": 1e6, "rate": 0.2})
    assert fit_a["rate"] == pytest.approx(fit_b["rate"], abs=1e-9)


def test_nlls_weight_validation():
    trace = _exp_trace(n=10)
    model = lambda t, a: a * np.ones_like(t)
    with pytest.raises(ValidationError):
        estimate.nlls(model, trace, {"a": 1.0}, weights="unknown")
    with pytest.raises(ValidationError):
        estimate.nlls(model, trace, {"a": 1.0}, weights="provided")
    with pytest.raises(ValidationError):
        estimate.nlls(model, trace, {"a": 1.0}, weights=-np.ones(10))
    with pytest.raises(ValidationError):
        estimate.nlls(model, trace, {"a": 1.0}, weights=np.ones(3))


def test_nlls_accepts_explicit_weight_array():
    trace = _exp_trace()
    model = lambda t, amplitude, rate: amplitude * np.exp(-rate * t)
    start = {"amplitude": 10.0, "rate": 0.2}
    explicit = estimate.nlls(model, trace, start, weights=np.ones(len(trace)))
    uniform = estimate.nlls(model, trace, start)
    assert explicit.converged
    for name in ("amplitude", "rate"):
        assert explicit[name] == pytest.approx(uniform[name], rel=1e-12)


def test_nlls_requires_excess_data():
    trace = TimeTrace(np.array([0.0, 1.0]), np.array([2.0, 1.0]))
    model = lambda t, a, b: a * np.exp(-b * t)
    with pytest.raises(ValidationError):
        estimate.nlls(model, trace, {"a": 2.0, "b": 1.0})


def test_fit_result_accessors():
    trace = _exp_trace()
    model = lambda t, amplitude, rate: amplitude * np.exp(-rate * t)
    fit = estimate.nlls(model, trace, {"amplitude": 10.0, "rate": 0.2})
    assert set(fit.params) == {"amplitude", "rate"}
    lo, hi = fit.ci95["rate"]
    assert lo <= fit["rate"] <= hi
    assert fit.sigma_of("rate") >= 0.0
    extended = fit.with_derived(note=3)
    assert extended.derived["note"] == 3
    # every other field is carried over; the original is not touched
    for name in ("names", "values", "sigma", "covariance", "chi2", "dof",
                 "converged", "iterations"):
        assert getattr(extended, name) is getattr(fit, name)
    assert fit.derived == {}
    again = extended.with_derived(other=4)
    assert again.derived == {"note": 3, "other": 4}
    assert extended.derived == {"note": 3}
    with pytest.raises(KeyError):
        fit["missing"]


# ---------------------------------------------------------------------------
# windowed exponential


def test_window_fit_noiseless():
    t = np.arange(0.0, 120.0, 0.25) + 0.125
    values = 5.0 * np.exp(-GAMMA_RAD.value * t)
    fit = estimate.fit_exponential_window(TimeTrace(t, values),
                                          FitWindow(4.0, 115.0))
    assert fit["rate"] == pytest.approx(GAMMA_RAD.value, rel=1e-10)
    assert fit["amplitude"] == pytest.approx(5.0, rel=1e-10)


def test_window_fit_branch_excess():
    # mixing shares the crossing between the branches, so the windowed
    # A1 rate keeps only part of the bare crossing rate
    t = np.arange(0.0, 120.0, 0.25) + 0.125
    signal = closedform.fluorescence_a12(GAMMA_RAD.value,
                                         GAMMA_MIX_WARM.value,
                                         GAMMA_ISC.value, "A1", t)
    fit = estimate.fit_exponential_window(TimeTrace(t, signal),
                                          FitWindow(4.0, 115.0))
    excess = fit["rate"] - GAMMA_RAD.value
    assert 0.3 * GAMMA_ISC.value < excess < 0.9 * GAMMA_ISC.value
    # the two branches bracket the crossing rate from either side
    signal_a2 = closedform.fluorescence_a12(GAMMA_RAD.value,
                                            GAMMA_MIX_WARM.value,
                                            GAMMA_ISC.value, "A2", t)
    fit_a2 = estimate.fit_exponential_window(TimeTrace(t, signal_a2),
                                             FitWindow(4.0, 115.0))
    assert 0.0 < fit_a2["rate"] - GAMMA_RAD.value < excess


def test_window_fit_input_checks():
    t = np.arange(0.0, 10.0, 1.0)
    trace = TimeTrace(t, np.exp(-0.1 * t))
    with pytest.raises(ValidationError):
        estimate.fit_exponential_window(trace, FitWindow(0.0, 1.5))
    flat = TimeTrace(t, np.zeros_like(t))
    with pytest.raises(ValidationError):
        estimate.fit_exponential_window(flat, FitWindow(0.0, 9.0))


def test_window_fit_poisson_ci_calibration():
    # 95% intervals on Poisson count data should cover the truth in at
    # least 90% of repeats (deterministic seed set)
    window = FitWindow(4.0, 115.0)
    rate_true = rate_from_linear_mhz(29.2).value
    hits = 0
    n_try = 60
    for seed in range(n_try):
        spec = synth.ExperimentSpec(model="exponential",
                                    params=dict(rate=rate_true),
                                    bin_width=0.25, span=120.0,
                                    total_counts=2e5, background_rate=0.0,
                                    pulse_edge=0.0, seed=seed)
        fit = estimate.fit_exponential_window(synth.generate(spec), window,
                                              weights="poisson")
        lo, hi = fit.ci95["rate"]
        hits += (lo <= rate_true <= hi)
    assert hits >= 0.9 * n_try


def _nlls_window_fit(trace, window, weights="uniform"):
    """The Levenberg-Marquardt route to fit_exponential_window's fit: nlls
    on A exp(-rate t), started from log-linear regression."""
    sub = trace.window(window.start, window.length)
    positive = sub.values > 0
    slope, intercept = np.polyfit(sub.times[positive],
                                  np.log(sub.values[positive]), 1)
    model = lambda tt, amplitude, rate: amplitude * np.exp(-rate * tt)
    return estimate.nlls(model, sub, {"amplitude": np.exp(intercept),
                                      "rate": -slope}, weights=weights)


@pytest.mark.parametrize("weights", ["uniform", "poisson", "provided", "array"])
@pytest.mark.parametrize("model, params", [
    ("a12", dict(gamma_rad=GAMMA_RAD.value, gamma_mix=GAMMA_MIX_COLD.value,
                 gamma_isc=GAMMA_ISC.value, branch="A1")),
    ("exponential", dict(rate=rate_from_linear_mhz(29.2).value)),
])
def test_window_fit_matches_nlls(model, params, weights):
    window = FitWindow(4.0, 115.0)
    for seed in range(3):
        spec = synth.ExperimentSpec(model=model, params=params, bin_width=0.25,
                                    span=120.0, total_counts=2e5,
                                    background_rate=0.0, pulse_edge=0.0,
                                    seed=seed)
        counts = synth.generate(spec)
        trace = TimeTrace(counts.times, counts.values,
                          uncertainty=np.sqrt(np.maximum(counts.values, 1.0)))
        scheme = weights
        if weights == "array":
            scheme = np.random.default_rng(seed).uniform(
                0.5, 2.0, len(trace.window(window.start, window.length)))
        fit = estimate.fit_exponential_window(trace, window, weights=scheme)
        oracle = _nlls_window_fit(trace, window, weights=scheme)
        assert fit.converged and oracle.converged
        assert fit["rate"] == pytest.approx(oracle["rate"], rel=1e-6)
        assert fit.sigma_of("rate") == pytest.approx(oracle.sigma_of("rate"),
                                                     rel=1e-4)
        assert fit["amplitude"] == pytest.approx(oracle["amplitude"], rel=1e-6)
        assert fit.dof == oracle.dof
        assert fit.chi2 == pytest.approx(oracle.chi2, rel=1e-6)


def test_window_fit_fast_decay_over_background():
    # the background-dominated tail makes the profile non-concave between
    # the start and the optimum: the ascent must still reach the optimum
    window = FitWindow(4.0, 115.0)
    for seed in range(4):
        spec = synth.ExperimentSpec(model="exponential", params=dict(rate=1.0),
                                    bin_width=0.25, span=120.0, total_counts=1e4,
                                    background_rate=0.5, pulse_edge=0.0,
                                    seed=seed)
        trace = synth.generate(spec)
        fit = estimate.fit_exponential_window(trace, window, weights="poisson")
        oracle = _nlls_window_fit(trace, window, weights="poisson")
        assert fit.converged
        assert fit["rate"] == pytest.approx(oracle["rate"], rel=1e-6)


def test_window_fit_does_not_stop_on_the_fast_plateau():
    # a Levenberg-Marquardt window fit of this curve walked to k -> inf
    # (rate 2840 rad/ns, sigma 2e148) and reported convergence
    t = 0.25 * np.arange(121)
    curve = closedform.fluorescence_a12(0.0829, 1e-5, 6.0, "A1", t)
    fit = estimate.fit_exponential_window(TimeTrace(t, curve),
                                          FitWindow(0.0, 30.0))
    # the least-squares optimum from near the truth, by the LM route
    model = lambda tt, amplitude, rate: amplitude * np.exp(-rate * tt)
    oracle = estimate.nlls(model, TimeTrace(t, curve),
                           {"amplitude": 1.0, "rate": 6.0})
    assert fit.converged
    assert fit["rate"] == pytest.approx(oracle["rate"], rel=1e-6)
    # the slow branch's 2e-6 weight holds the optimum 4e-6 below
    # gamma_rad + gamma_a1 = 6.0829 rad/ns
    assert fit["rate"] == pytest.approx(6.0829, rel=1e-5)
    assert np.isfinite(fit.sigma_of("rate"))
    assert fit.sigma_of("rate") < 1e-3 * fit["rate"]


def test_window_fit_zero_weights_are_an_error():
    trace = _exp_trace()
    with pytest.raises(ValidationError, match="non-finite"):
        estimate.fit_exponential_window(trace, FitWindow(0.0, 100.0),
                                        weights=np.zeros(len(trace)))


def test_window_fit_iteration_cap():
    spec = synth.ExperimentSpec(model="exponential",
                                params=dict(rate=GAMMA_RAD.value),
                                bin_width=0.25, span=120.0, total_counts=1e6,
                                background_rate=0.0, pulse_edge=0.0, seed=5)
    trace = synth.generate(spec)
    window = FitWindow(4.0, 115.0)
    capped = estimate.fit_exponential_window(trace, window, max_iter=1)
    assert not capped.converged and capped.iterations == 1
    full = estimate.fit_exponential_window(trace, window)
    assert full.converged and 1 <= full.iterations <= 200


@settings(max_examples=60, deadline=None)
@given(tail=st.floats(30.0, 1e3), decays=st.floats(0.3, 8.0),
       scale=st.floats(0.05, 20.0), seed=st.integers(0, 2**32 - 1),
       weights=st.sampled_from(["uniform", "poisson"]))
def test_window_fit_is_invariant_under_count_rescaling(tail, decays, scale, seed,
                                                       weights):
    # counts c y: the rate stays. Uniform weights scale chi^2 by c^2 and
    # the rate column of the Jacobian by c, so sigma_rate stays; Poisson
    # weights 1/max(y, 1) scale by 1/c where every bin is >= 1, so
    # sigma_rate scales by 1/sqrt(c). The amplitude scales by c.
    window = FitWindow(4.0, 115.0)
    t = 0.25 * np.arange(480) + 0.125
    rate = decays / window.length
    counts = np.random.default_rng(seed).poisson(
        tail * np.exp(rate * (window.stop - t))).astype(float)
    fit, scaled = (estimate.fit_exponential_window(TimeTrace(t, c * counts),
                                                   window, weights=weights)
                   for c in (1.0, scale))
    if weights == "poisson":
        inside = (t >= window.start) & (t <= window.stop)
        for result, c in ((fit, 1.0), (scaled, scale)):
            model = result["amplitude"] * np.exp(-result["rate"] * t[inside])
            assume(min(model.min(), (c * counts[inside]).min()) >= 1.0)
    assert fit.converged and scaled.converged
    assert scaled["rate"] == pytest.approx(fit["rate"], rel=1e-9)
    assert scaled["amplitude"] == pytest.approx(scale * fit["amplitude"], rel=1e-9)
    power = 0.0 if weights == "uniform" else -0.5
    assert scaled.sigma_of("rate") == pytest.approx(
        scale**power * fit.sigma_of("rate"), rel=1e-9)


# ---------------------------------------------------------------------------
# driven oscillation


def _rabi_truth():
    return dict(amplitude=1.3, omega=TWO_PI * 80e-3, phi=0.3, t0=0.5,
                tau_rabi=9.0, gamma_isc_x=rate_from_linear_mhz(0.62).value)


def _rabi_trace(shift=0.0):
    t = np.arange(0.0, 60.0, 0.05)
    y = closedform.rabi_fit_model(t, **_rabi_truth())
    return TimeTrace(t + shift, y)


def test_rabi_fit_noiseless_recovery():
    fit = estimate.fit_rabi_trace(_rabi_trace())
    assert fit.converged
    for name, value in _rabi_truth().items():
        assert fit[name] == pytest.approx(value, rel=1e-6), name


def test_rabi_fit_time_shift_covariance():
    fit = estimate.fit_rabi_trace(_rabi_trace())
    shifted = estimate.fit_rabi_trace(_rabi_trace(shift=5.0))
    assert shifted["t0"] - fit["t0"] == pytest.approx(5.0, abs=1e-6)
    assert shifted["omega"] == pytest.approx(fit["omega"], rel=1e-9)
    assert shifted["tau_rabi"] == pytest.approx(fit["tau_rabi"], rel=1e-9)


def test_rabi_fit_derived_decoherence():
    fit = estimate.fit_rabi_trace(_rabi_trace(), gamma_rad=GAMMA_RAD)
    expected = closedform.additional_decoherence(9.0, GAMMA_RAD)
    assert fit.derived["gamma_add"].value == pytest.approx(expected.value,
                                                           rel=1e-5)


def test_rabi_fit_rejects_period_alias():
    trace = _rabi_trace()
    with pytest.raises(ValidationError):
        estimate.fit_rabi_trace(trace, init={"omega": 3.0 * TWO_PI * 80e-3})


def test_rabi_fit_needs_enough_samples():
    t = np.arange(0.0, 0.3, 0.05)
    trace = TimeTrace(t, np.ones_like(t))
    with pytest.raises(ValidationError):
        estimate.fit_rabi_trace(trace)


def test_rabi_fit_lindblad_envelope():
    # drive the three-level model hard and recover the known
    # ensemble-envelope decay time 1/tau = 3/4 gr + (gm + gt2)/2
    from nvphonon.dynamics import DensityMatrix3, ThreeLevelModel, \
        evolve_lindblad
    gt2 = rate_from_linear_mhz(4.0)
    model = ThreeLevelModel(rabi=TWO_PI * 0.3, detuning=0.0,
                            gamma_rad_x=GAMMA_RAD, gamma_rad_y=GAMMA_RAD,
                            gamma_mix_xy=0.0, gamma_mix_yx=0.0,
                            gamma_isc_x=0.0, gamma_t2=gt2)
    t = np.arange(0.0, 40.0, 0.02)
    result = evolve_lindblad(model, DensityMatrix3.pure("g"), t)
    signal = (result.populations["x"].values
              + result.populations["y"].values)
    fit = estimate.fit_rabi_trace(TimeTrace(t, signal))
    tau_expected = 1.0 / (0.75 * GAMMA_RAD.value + 0.5 * gt2.value)
    assert fit["tau_rabi"] == pytest.approx(tau_expected, rel=0.05)


def _rabi_counts(seed):
    spec = synth.ExperimentSpec(model="rabi", params=_rabi_truth(),
                                bin_width=0.1, span=60.0, total_counts=2e5,
                                pulse_edge=0.0, seed=seed)
    return synth.generate(spec)


@pytest.mark.parametrize("weights", ["uniform", "poisson"])
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_rabi_fit_matches_difference_jacobian_route(monkeypatch, weights, seed):
    # the exact-Jacobian fit and nlls (forward differences), from the
    # same start, reach the same optimum and sigmas
    starts = []
    least_squares = estimate._least_squares

    def capture(predict, y, weights, init, names, **kwargs):
        starts.append(dict(zip(names, init)))
        return least_squares(predict, y, weights, init, names, **kwargs)

    monkeypatch.setattr(estimate, "_least_squares", capture)
    trace = _rabi_counts(seed)
    fit = estimate.fit_rabi_trace(trace, weights=weights)
    oracle = estimate.nlls(closedform.rabi_fit_model, trace, starts[0],
                           weights=weights)
    assert fit.converged and oracle.converged
    assert fit.names == oracle.names
    assert np.all(np.abs(fit.values - oracle.values) <= 1e-3 * oracle.sigma)
    np.testing.assert_allclose(fit.sigma, oracle.sigma, rtol=1e-3)


def test_rabi_fit_bounds_a_vanishing_crossing_rate():
    # the verify check's noiseless trace has no crossing loss, so
    # gamma_isc_x fits to ~0, where a relative difference step vanishes
    trace, _ = verify._lindblad_envelope_case()
    fit = estimate.fit_rabi_trace(trace)
    assert fit.converged
    assert abs(fit["gamma_isc_x"]) < 1e-9
    assert np.isfinite(fit.sigma_of("gamma_isc_x"))
    assert fit.sigma_of("gamma_isc_x") < 1.0


def test_rabi_fit_model_calls(monkeypatch):
    # one model evaluation per Gauss-Newton step and none for derivatives
    calls = []
    model = estimate.rabi_fit_model

    def counted(*args):
        calls.append(args[1:])
        return model(*args)

    monkeypatch.setattr(estimate, "rabi_fit_model", counted)
    trace, expected = verify._lindblad_envelope_case()
    fit = estimate.fit_rabi_trace(trace)
    assert fit["tau_rabi"] == pytest.approx(expected, rel=0.02)
    assert 1 <= len(calls) <= 12


# ---------------------------------------------------------------------------
# T^5 law


def _t5_points(a_mhz=2.0e-5, t0=4.4, c_mhz=0.08, sigma_mhz=0.05):
    pts = []
    for temp in (5.0, 9.0, 13.0, 17.0, 21.0, 25.0):
        rate = phonon.mixing_rate_fitform(
            rate_from_linear_mhz(a_mhz), t0, rate_from_linear_mhz(c_mhz),
            temp)
        pts.append((temp, rate,
                    rate_from_linear_mhz(sigma_mhz, fitted=True)))
    return pts


def test_t5_fit_noiseless_recovery():
    fit = estimate.fit_t5(_t5_points())
    assert fit.converged
    assert fit["a"] == pytest.approx(rate_from_linear_mhz(2.0e-5).value,
                                     rel=1e-6)
    assert fit["t0"] == pytest.approx(4.4, abs=1e-4)
    assert fit["c"] == pytest.approx(rate_from_linear_mhz(0.08).value,
                                     rel=1e-6)


def test_t5_fit_input_checks():
    pts = _t5_points()
    with pytest.raises(ValidationError):
        estimate.fit_t5(pts[:3])
    narrow = [(14.0 + 0.1 * i, r, s) for i, (_, r, s) in enumerate(pts)]
    with pytest.raises(ValidationError):
        estimate.fit_t5(narrow)
    bad_sigma = [(T, r, AngularRate(0.0)) for T, r, _ in pts]
    with pytest.raises(ValidationError):
        estimate.fit_t5(bad_sigma)


@pytest.mark.parametrize("field", [1, 2], ids=["rate", "sigma"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_t5_fit_rejects_non_finite_points(field, bad):
    pts = [list(p) for p in _t5_points()]
    pts[2][field] = bad
    with pytest.raises(ValidationError, match="finite"):
        estimate.fit_t5(pts)


def test_t5_fit_flat_data_flags_unbounded_offset():
    # without any T dependence the offset is unconstrained; its variance
    # must be reported as effectively infinite rather than a small number
    pts = [(T, rate_from_linear_mhz(0.5, fitted=True),
            rate_from_linear_mhz(0.01, fitted=True))
           for T in (5.0, 12.0, 18.0, 25.0)]
    fit = estimate.fit_t5(pts)
    assert (not fit.converged) or fit.sigma_of("t0") > 1e100


def test_t5_confidence_band():
    fit = estimate.fit_t5(_t5_points())
    temps = np.linspace(5.0, 25.0, 21)
    center, lower, upper = estimate.t5_confidence_band(fit, temps)
    assert center.shape == temps.shape
    assert np.all(lower <= center)
    assert np.all(center <= upper)
    truth = [phonon.mixing_rate_fitform(
        rate_from_linear_mhz(2.0e-5), 4.4, rate_from_linear_mhz(0.08),
        t).value for t in temps]
    np.testing.assert_allclose(center, truth, rtol=1e-5)
    # the band covers the generating curve on the sampled range
    assert np.all((truth >= lower - 1e-15) & (truth <= upper + 1e-15))


# ---------------------------------------------------------------------------
# polarization-resolved joint fit


def _depol_traces(channels=("H", "V"), amplitude=0.9, epsilon=0.1,
                  t0=-3.6):
    t = np.arange(0.0, 80.0, 0.5) + 0.25
    traces = []
    for temp, gm in ((5.0, GAMMA_MIX_COLD), (20.0, GAMMA_MIX_WARM)):
        bright, dark = closedform.observed_polarized_intensity(
            amplitude, epsilon, t0, GAMMA_RAD.value, gm.value, t)
        bright = np.where(t < t0, 0.0, bright)
        dark = np.where(t < t0, 0.0, dark)
        traces.append(TimeTrace(t, bright, temperature=temp,
                                channel=channels[0]))
        traces.append(TimeTrace(t, dark, temperature=temp,
                                channel=channels[1]))
    return traces


def test_depolarization_fit_noiseless_recovery():
    fit = estimate.fit_depolarization(
        _depol_traces(), gamma_mix_cold=GAMMA_MIX_COLD,
        gamma_mix_warm=GAMMA_MIX_WARM, gamma_rad=GAMMA_RAD)
    assert fit.converged
    assert fit["amplitude"] == pytest.approx(0.9, rel=1e-8)
    assert fit["t0"] == pytest.approx(-3.6, abs=1e-8)
    assert fit["epsilon"] == pytest.approx(0.1, abs=1e-8)
    assert fit.derived["bright_channel"] == "H"


def test_depolarization_fit_accepts_explicit_weight_array():
    traces = _depol_traces()
    n = sum(len(tr) for tr in traces)
    fit = estimate.fit_depolarization(
        traces, gamma_mix_cold=GAMMA_MIX_COLD, gamma_mix_warm=GAMMA_MIX_WARM,
        gamma_rad=GAMMA_RAD, weights=np.ones(n))
    assert fit.converged
    assert fit["epsilon"] == pytest.approx(0.1, abs=1e-8)
    assert fit["t0"] == pytest.approx(-3.6, abs=1e-8)


def test_depolarization_fit_label_symmetry():
    swapped = estimate.fit_depolarization(
        _depol_traces(channels=("V", "H")),
        gamma_mix_cold=GAMMA_MIX_COLD, gamma_mix_warm=GAMMA_MIX_WARM,
        gamma_rad=GAMMA_RAD)
    assert swapped["epsilon"] == pytest.approx(0.1, abs=1e-8)
    assert swapped.derived["bright_channel"] == "V"


def test_depolarization_fit_pure_polarization():
    fit = estimate.fit_depolarization(
        _depol_traces(epsilon=0.0), gamma_mix_cold=GAMMA_MIX_COLD,
        gamma_mix_warm=GAMMA_MIX_WARM, gamma_rad=GAMMA_RAD)
    assert abs(fit["epsilon"]) < 1e-6


def test_depolarization_fit_needs_consistent_labels():
    traces = _depol_traces()
    # make the bright channel disagree between the two temperatures
    warm_bright, warm_dark = traces[2], traces[3]
    traces[2] = TimeTrace(warm_bright.times, warm_dark.values,
                          temperature=20.0, channel="H")
    traces[3] = TimeTrace(warm_dark.times, warm_bright.values,
                          temperature=20.0, channel="V")
    with pytest.raises(ValidationError):
        estimate.fit_depolarization(traces,
                                    gamma_mix_cold=GAMMA_MIX_COLD,
                                    gamma_mix_warm=GAMMA_MIX_WARM,
                                    gamma_rad=GAMMA_RAD)


def test_depolarization_fit_shape_checks():
    traces = _depol_traces()
    with pytest.raises(ValidationError):
        estimate.fit_depolarization(traces[:3],
                                    gamma_mix_cold=GAMMA_MIX_COLD,
                                    gamma_mix_warm=GAMMA_MIX_WARM,
                                    gamma_rad=GAMMA_RAD)
    missing = [TimeTrace(tr.times, tr.values) for tr in traces]
    with pytest.raises(ValidationError):
        estimate.fit_depolarization(missing,
                                    gamma_mix_cold=GAMMA_MIX_COLD,
                                    gamma_mix_warm=GAMMA_MIX_WARM,
                                    gamma_rad=GAMMA_RAD)


# ---------------------------------------------------------------------------
# windowed forward model

TO_MHZ = 1e3 / TWO_PI
# no mixing, then the clamped empirical law across the criterion-5 range
FORWARD_MIXES = [0.0] + [phonon.MIXING_FIT_DEFAULT.clamped(temp).value
                         for temp in np.linspace(5.0, 26.0, 8)]


def test_effective_rates_sequence_matches_scalar():
    a1, a2 = estimate.effective_isc_rates(GAMMA_RAD, GAMMA_ISC, FORWARD_MIXES)
    assert a1.shape == a2.shape == (len(FORWARD_MIXES),)
    for gm, rate_a1, rate_a2 in zip(FORWARD_MIXES, a1, a2):
        eff_a1, eff_a2 = estimate.effective_isc_rates(GAMMA_RAD, GAMMA_ISC, gm)
        assert eff_a1.fitted and eff_a2.fitted
        np.testing.assert_allclose([rate_a1, rate_a2], [eff_a1.value, eff_a2.value],
                                   rtol=1e-12, atol=1e-12 * GAMMA_RAD.value)


def test_effective_rates_solve_long_sequences_in_blocks(monkeypatch):
    whole = estimate.effective_isc_rates(GAMMA_RAD, GAMMA_ISC, FORWARD_MIXES)
    # three mixing rates (six 461-sample curves) per solve
    monkeypatch.setattr(estimate, "_FORWARD_BLOCK_SAMPLES", 6 * 461)
    blocked = estimate.effective_isc_rates(GAMMA_RAD, GAMMA_ISC, FORWARD_MIXES)
    np.testing.assert_allclose(blocked, whole, rtol=1e-12,
                               atol=1e-12 * GAMMA_RAD.value)


@pytest.mark.parametrize("gamma_a1", [0.01, 0.03, 0.1, 0.3])
def test_effective_rates_match_window_fit(gamma_a1):
    # the Levenberg-Marquardt fit of each noiseless branch curve is an
    # independent route to the same least-squares rate
    t = 4.0 + 0.25 * np.arange(461)
    gr = GAMMA_RAD.value
    a1, a2 = estimate.effective_isc_rates(gr, gamma_a1, FORWARD_MIXES)
    for gm, rate_a1, rate_a2 in zip(FORWARD_MIXES, a1, a2):
        for branch, rate in (("A1", rate_a1), ("A2", rate_a2)):
            curve = closedform.fluorescence_a12(gr, gm, gamma_a1, branch, t)
            fit = _nlls_window_fit(TimeTrace(t, curve), FitWindow(4.0, 115.0))
            assert abs(rate - (fit["rate"] - gr)) * TO_MHZ <= 1e-5


@settings(max_examples=50, deadline=None)
@given(amplitude=st.floats(1e-6, 1e6),
       decays=st.floats(0.05, 50.0),
       delay=st.floats(0.0, 20.0),
       dt=st.floats(0.01, 2.0),
       n=st.integers(3, 400))
def test_windowed_rate_of_pure_exponential(amplitude, decays, delay, dt, n):
    # decays = k * window span and delay = k * window start, in 1/k units
    rate = decays / ((n - 1) * dt)
    t = delay / rate + dt * np.arange(n)
    y = amplitude * np.exp(-rate * t)
    fitted, steps, converged = estimate._windowed_rates(y[None, :], t)
    assert converged and 1 <= steps <= estimate._NEWTON_MAX_ITER
    assert fitted.shape == (1,)
    assert abs(fitted[0] - rate) <= 1e-12 * rate


@pytest.mark.parametrize("kwargs, message", [
    (dict(gamma_a1=GAMMA_ISC, window_length=0.3),
     "window must contain at least 3 samples"),
    # gamma_a1 = 6283 rad/ns without mixing underflows the whole A1 curve
    (dict(gamma_a1=6283.0), "need >= 2 positive samples to initialize the rate"),
    # refused before any sample is built
    (dict(gamma_a1=GAMMA_ISC, window_length=1e18),
     r"forward-model window would hold 4e\+18 samples"),
])
def test_effective_rates_refuse_unfittable_windows(kwargs, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=message):
            estimate.effective_isc_rates(GAMMA_RAD, gamma_mix=0.0, **kwargs)


@pytest.mark.parametrize("factor", [0.1, 0.5, 1.0, 2.0, 10.0])
@pytest.mark.parametrize("gamma_a1", [0.01, 0.1, 0.3])
def test_effective_rates_warm_start_matches_cold_solve(factor, gamma_a1):
    # started from windowed rates `factor` times the cold solve's (1.0:
    # the cold output itself), every curve reaches the same rate
    gr = GAMMA_RAD.value
    cold = np.stack(estimate.effective_isc_rates(gr, gamma_a1, FORWARD_MIXES))
    start = factor * (cold + gr) - gr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warm = np.stack(estimate.effective_isc_rates(gr, gamma_a1, FORWARD_MIXES,
                                                     start=tuple(start)))
        pair = estimate.effective_isc_rates(
            gr, gamma_a1, FORWARD_MIXES[-1], start=tuple(start[:, -1]))
    np.testing.assert_allclose(warm, cold, rtol=1e-12, atol=1e-12 * gr)
    np.testing.assert_allclose([rate.value for rate in pair], cold[:, -1],
                               rtol=1e-12, atol=1e-12 * gr)


@pytest.mark.parametrize("start", [
    (np.zeros(3), np.zeros(3)),           # one rate short per branch
    np.zeros(len(FORWARD_MIXES)),         # one branch only
    ("fast", "slow"),
])
def test_effective_rates_refuse_malformed_start(start):
    with pytest.raises(ValidationError, match="start must be"):
        estimate.effective_isc_rates(GAMMA_RAD, GAMMA_ISC, FORWARD_MIXES,
                                     start=start)


def test_effective_rates_refuse_non_finite_start():
    start = np.zeros((2, len(FORWARD_MIXES)))
    start[1, 2] = np.nan
    with pytest.raises(ValidationError, match="non-finite starting rate"):
        estimate.effective_isc_rates(GAMMA_RAD, GAMMA_ISC, FORWARD_MIXES,
                                     start=start)


# ---------------------------------------------------------------------------
# direct crossing rate from windowed branch rates


def _gamma_a1_points(ga1=GAMMA_ISC, sigma_mhz=0.05):
    points = []
    for temp in (6.0, 12.0, 18.0, 24.0):
        gm = phonon.MIXING_FIT_DEFAULT.clamped(temp)
        eff_a1, eff_a2 = phonon.effective_isc_rates(GAMMA_RAD, ga1, gm)
        sigma = rate_from_linear_mhz(sigma_mhz, fitted=True)
        points.append((temp, eff_a1, sigma, "A1"))
        points.append((temp, eff_a2, sigma, "A2"))
    return points


def test_gamma_a1_fit_noiseless_recovery():
    fit = estimate.fit_gamma_a1(_gamma_a1_points(),
                                phonon.MIXING_FIT_DEFAULT, GAMMA_RAD)
    assert fit.converged
    assert fit["gamma_a1"] == pytest.approx(GAMMA_ISC.value, rel=1e-8)
    assert fit.names == ("gamma_a1",)


# as acceptance criterion 5 writes them, so its seeds give the same bits
CRITERION_GAMMA_RAD = TWO_PI * 13.2e-3
CRITERION_GAMMA_ISC = TWO_PI * 16.0e-3
CRITERION_TEMPERATURES = np.linspace(5.0, 26.0, 8)


def _criterion5_points(seed):
    points = []
    for k, temp in enumerate(CRITERION_TEMPERATURES):
        gm = phonon.MIXING_FIT_DEFAULT.clamped(temp)
        for j, branch in enumerate(("A1", "A2")):
            spec = synth.ExperimentSpec(
                model="a12", params=dict(gamma_rad=CRITERION_GAMMA_RAD,
                                         gamma_mix=gm,
                                         gamma_isc=CRITERION_GAMMA_ISC,
                                         branch=branch),
                bin_width=0.25, span=120.0, total_counts=1e6,
                background_rate=0.0, pulse_edge=0.0, seed=seed * 100 + 2 * k + j)
            fit = estimate.fit_exponential_window(synth.generate(spec),
                                                  FitWindow(4.0, 115.0))
            points.append((temp, fit["rate"] - CRITERION_GAMMA_RAD,
                           fit.sigma_of("rate"), branch))
    return points


@pytest.mark.parametrize("gamma_a1", [0.03, 0.1, 0.3])
def test_gamma_a1_jacobian_matches_central_difference(monkeypatch, gamma_a1):
    captured = {}
    least_squares = estimate._least_squares

    def capture(predict, *args, jacobian=None, **kwargs):
        captured.update(predict=predict, jacobian=jacobian)
        return least_squares(predict, *args, jacobian=jacobian, **kwargs)

    monkeypatch.setattr(estimate, "_least_squares", capture)
    # points at every criterion-5 temperature, A1 then A2
    estimate.fit_gamma_a1(_criterion5_points(0), phonon.MIXING_FIT_DEFAULT,
                          CRITERION_GAMMA_RAD)
    mixes = [phonon.MIXING_FIT_DEFAULT.clamped(temp).value
             for temp in CRITERION_TEMPERATURES]
    theta = np.array([gamma_a1])
    implicit = captured["jacobian"](theta, captured["predict"](theta))[:, 0]
    step = 1e-4 * gamma_a1
    upper, lower = (np.stack(estimate.effective_isc_rates(
        CRITERION_GAMMA_RAD, gamma_a1 + sign * step, mixes)).T.ravel()
        for sign in (1.0, -1.0))
    central = (upper - lower) / (2.0 * step)
    np.testing.assert_allclose(implicit, central, rtol=1e-5)


def test_gamma_a1_fit_forward_model_calls(monkeypatch):
    # one forward-model call per trial Gamma_A1 and none for derivatives
    calls = []
    forward = estimate.effective_isc_rates

    def counted(*args, **kwargs):
        calls.append(args[1])
        return forward(*args, **kwargs)

    monkeypatch.setattr(estimate, "effective_isc_rates", counted)
    per_fit = []
    for seed in range(10):
        points = _criterion5_points(seed)
        del calls[:]
        fit = estimate.fit_gamma_a1(points, phonon.MIXING_FIT_DEFAULT,
                                    CRITERION_GAMMA_RAD)
        assert fit.converged
        assert abs(fit["gamma_a1"] * TO_MHZ - 16.0) <= 0.6
        per_fit.append(len(calls))
    assert np.mean(per_fit) <= 7
    # a step that raises chi^2 only by the forward model's rounding ends
    # the fit instead of being retried at growing damping (7 calls)
    assert max(per_fit) <= 5


def test_gamma_a1_fit_warm_starts_forward_solves(monkeypatch):
    # each forward solve starts from the windowed rates of the previous
    # trial Gamma_A1: fewer Newton steps than the 4 a log-linear start takes
    steps = []
    windowed = estimate._windowed_rates

    def counted(*args, **kwargs):
        rates, taken, converged = windowed(*args, **kwargs)
        steps.append(taken)
        return rates, taken, converged

    for seed in range(10):
        points = _criterion5_points(seed)
        with monkeypatch.context() as patch:
            patch.setattr(estimate, "_windowed_rates", counted)
            fit = estimate.fit_gamma_a1(points, phonon.MIXING_FIT_DEFAULT,
                                        CRITERION_GAMMA_RAD)
        assert fit.converged
    assert np.mean(steps) <= 3


@pytest.mark.parametrize("factor", [0.1, 10.0])
def test_gamma_a1_fit_converges_from_distant_init(factor):
    points = _criterion5_points(0)
    reference = estimate.fit_gamma_a1(points, phonon.MIXING_FIT_DEFAULT,
                                      CRITERION_GAMMA_RAD)
    fit = estimate.fit_gamma_a1(points, phonon.MIXING_FIT_DEFAULT,
                                CRITERION_GAMMA_RAD,
                                init=factor * CRITERION_GAMMA_ISC)
    assert fit.converged
    assert fit["gamma_a1"] == pytest.approx(reference["gamma_a1"], rel=1e-6)


def test_gamma_a1_fit_weighted_mean_limit():
    # with no mixing the A1 prediction is gamma_a1 itself, so equal
    # sigmas reduce the fit to the plain mean of the A1 samples
    form = phonon.MixingFitForm(a=AngularRate(0.0), t0_k=4.4,
                                c=AngularRate(0.0))
    sigma = rate_from_linear_mhz(0.1, fitted=True)
    points = [
        (5.0, rate_from_linear_mhz(15.9), sigma, "A1"),
        (20.0, rate_from_linear_mhz(16.1), sigma, "A1"),
    ]
    fit = estimate.fit_gamma_a1(points, form, GAMMA_RAD)
    assert fit["gamma_a1"] == pytest.approx(
        rate_from_linear_mhz(16.0).value, rel=1e-6)


def test_gamma_a1_fit_input_checks():
    points = _gamma_a1_points()
    bad_branch = [(6.0, rate_from_linear_mhz(16.0),
                   rate_from_linear_mhz(0.1, fitted=True), "B1")]
    with pytest.raises(ValidationError):
        estimate.fit_gamma_a1(bad_branch, phonon.MIXING_FIT_DEFAULT,
                              GAMMA_RAD)
    bad_sigma = [(T, r, AngularRate(0.0), b) for T, r, _, b in points]
    with pytest.raises(ValidationError):
        estimate.fit_gamma_a1(bad_sigma, phonon.MIXING_FIT_DEFAULT,
                              GAMMA_RAD)


@pytest.mark.parametrize("field", [1, 2], ids=["rate", "sigma"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gamma_a1_fit_rejects_non_finite_points(field, bad):
    points = [list(p) for p in _gamma_a1_points()]
    points[3][field] = bad
    with pytest.raises(ValidationError, match="finite"):
        estimate.fit_gamma_a1(points, phonon.MIXING_FIT_DEFAULT, GAMMA_RAD)


# ---------------------------------------------------------------------------
# ensembles


def test_ensemble_spread():
    rng = np.random.default_rng(61)
    draws = rng.normal(5.0, 0.3, size=64)
    mean, spread = estimate.ensemble_spread(draws)
    assert mean == pytest.approx(draws.mean(), rel=1e-12)
    assert spread == pytest.approx(2.0 * draws.std(ddof=1), rel=1e-12)
    with pytest.raises(ValidationError):
        estimate.ensemble_spread([1.0])
