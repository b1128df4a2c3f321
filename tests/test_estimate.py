import numpy as np
import pytest

from nvphonon import closedform, estimate, phonon, synth
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
