import dataclasses
import functools
import hashlib
import itertools
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

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


def test_weight_array_of_the_wrong_length_names_both_counts():
    # one weight per trace sample, where the window fit needs one per sample
    # inside its window
    trace = TimeTrace(0.25 * np.arange(480) + 0.125, np.exp(-0.08 * np.arange(480.0)))
    with pytest.raises(ValidationError) as err:
        estimate.fit_exponential_window(trace, estimate.DEFAULT_WINDOW,
                                        weights=np.ones(480))
    assert str(err.value) == (
        "480 weights for 460 samples in the window 4 <= t <= 119 ns; an "
        "explicit weight array needs one weight per sample")
    model = lambda t, a: a * np.ones_like(t)
    with pytest.raises(ValidationError) as err:
        estimate.nlls(model, trace, {"a": 1.0}, weights=np.ones(460))
    assert str(err.value).startswith("460 weights for 480 data points; ")
    with pytest.raises(ValidationError) as err:
        estimate.nlls(model, trace, {"a": 1.0}, weights=np.ones((480, 1)))
    assert str(err.value).startswith("weights of shape (480, 1) for 480 data points; ")


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


def _eigh_covariance(jac, weights, chi2, dof, scale):
    """`estimate._covariance` as it was written before one-parameter fits
    skipped eigh: every normal matrix through np.linalg.eigh."""
    wjac = jac * np.sqrt(weights)[:, None]
    norms = np.sqrt((wjac * wjac).sum(axis=0))
    norms = np.where(norms > 0.0, norms, 1.0)
    scaled = wjac / norms
    vals, vecs = np.linalg.eigh(scaled.T @ scaled)
    floor = max(float(vals.max()), 0.0) * estimate._RANK_RTOL
    inv_vals = np.array([1.0 / val if val > floor else estimate._HUGE_VARIANCE
                         for val in vals.tolist()])
    cov = (vecs * inv_vals) @ vecs.T / (norms[:, None] * norms)
    return cov * (chi2 / dof) if scale and dof > 0 else cov


def _lapack_decrement(normal, grad, diag):
    """`estimate._decrement` through np.linalg.solve, lstsq where singular."""
    scale = np.sqrt(diag)
    g = grad / scale
    scaled = normal / np.outer(scale, scale)
    try:
        return float(g @ np.linalg.solve(scaled, g))
    except np.linalg.LinAlgError:
        return float(g @ np.linalg.lstsq(scaled, g, rcond=None)[0])


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_PIVOTS = st.one_of(st.floats(5e-324, 1e300), st.floats(-1e300, -5e-324))


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(pivot=_PIVOTS, rhs=_FINITE, diag=st.floats(5e-324, 1e300),
       column=st.lists(st.floats(-1e150, 1e150), min_size=2, max_size=6),
       weight=st.floats(0.0, 1e10), chi2=st.floats(0.0, 1e10))
# a quotient beyond the float range is inf, as dgesv gives it, without a warning
@example(pivot=5e-324, rhs=1.0, diag=5e-324, column=[1e-300, 0.0], weight=1.0,
         chi2=1.0)
@example(pivot=-1e300, rhs=-1e300, diag=1e300, column=[1e150, -1e150],
         weight=1e10, chi2=0.0)
def test_one_parameter_systems_keep_lapack_bits(pivot, rhs, diag, column, weight,
                                                chi2):
    # a 1x1 system with a nonzero pivot is one division, which warns of no
    # overflow, as dgesv does not; the step, the Newton decrement and the
    # covariance keep the bits of LAPACK's solve and eigh (compared under
    # one np.errstate: their own scaling may overflow, on both sides alike)
    matrix, b, diag = np.array([[pivot]]), np.array([rhs]), np.array([diag])
    assert estimate._solve(matrix, b).tobytes() == np.linalg.solve(matrix, b).tobytes()
    jac = np.array(column)[:, None]
    weights = np.full(len(column), weight)
    dof = len(column) - 1
    with np.errstate(all="ignore"):
        assert (estimate._decrement(matrix, b, diag).hex()
                == _lapack_decrement(matrix, b, diag).hex())
        for scale in (False, True):
            assert (estimate._covariance(jac, weights, chi2, dof, scale).tobytes()
                    == _eigh_covariance(jac, weights, chi2, dof, scale).tobytes())
    # a zero pivot still takes lstsq's least-norm answer, warning of nothing
    zero = np.array([[0.0]])
    assert (estimate._solve(zero, b).tobytes()
            == np.linalg.lstsq(zero, b, rcond=None)[0].tobytes())
    with np.errstate(all="ignore"):
        assert (estimate._decrement(zero, b, diag).hex()
                == _lapack_decrement(zero, b, diag).hex())


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
    # counts are >= 0: a background-subtracted trace is no Poisson sample
    subtracted = TimeTrace(t, 5.0 - t, background_subtracted=True)
    with pytest.raises(ValidationError, match=r"^weights='poisson' fits counts, "
                       r"which are >= 0; the window 0 <= t <= 9 ns holds -4$"):
        estimate.fit_exponential_window(subtracted, FitWindow(0.0, 9.0),
                                        weights="poisson")


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


def _poisson_mle(trace, window):
    """The Poisson maximum-likelihood fit of A exp(-rate t) to the counts y
    inside the window, found without the library's solver: the rate is the
    root of the profiled score sum(y) (mean_e - mean_y) by brentq, mean_e
    and mean_y the means of tau = t - t[0] under e = exp(-rate tau) and y;
    the amplitude is sum(y)/sum(exp(-rate t)); the covariance is the
    inverse Fisher information sum(J J^T/mu) of mu = A exp(-rate t) and
    chi2 is Pearson's sum((y - mu)^2/mu)."""
    sub = trace.window(window.start, window.length)
    t, y = sub.times, np.asarray(sub.values, dtype=float)
    tau = t - t[0]
    mean_y = y @ tau / y.sum()

    def score(k):
        e = np.exp(-k * tau)
        return y.sum() * (e @ tau / e.sum() - mean_y)

    rate = brentq(score, -10.0 / (tau[-1] - mean_y), 10.0 / mean_y, xtol=1e-15)
    amplitude = y.sum() / np.exp(-rate * t).sum()
    mu = amplitude * np.exp(-rate * t)
    jac = np.array([mu / amplitude, -t * mu])
    cov = np.linalg.inv((jac / mu) @ jac.T)
    return estimate.FitResult(names=("amplitude", "rate"),
                              values=np.array([amplitude, rate]),
                              sigma=np.sqrt(cov.diagonal()), covariance=cov,
                              chi2=float(((y - mu) ** 2 / mu).sum()),
                              dof=len(t) - 2, converged=True, iterations=0)


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
        oracle = (_poisson_mle(trace, window) if weights == "poisson"
                  else _nlls_window_fit(trace, window, weights=scheme))
        assert fit.converged and oracle.converged
        assert fit["rate"] == pytest.approx(oracle["rate"], rel=1e-6)
        assert fit.sigma_of("rate") == pytest.approx(oracle.sigma_of("rate"),
                                                     rel=1e-4)
        assert fit["amplitude"] == pytest.approx(oracle["amplitude"], rel=1e-6)
        assert fit.dof == oracle.dof
        assert fit.chi2 == pytest.approx(oracle.chi2, rel=1e-6)


def test_window_fit_fast_decay_over_background():
    # the background-dominated tail makes the least-squares profile
    # non-concave between the start and the optimum under the weights
    # 1/max(y, 1): the ascent must still reach the optimum. The Poisson
    # likelihood is concave in the rate, and its fit reaches its maximum
    window = FitWindow(4.0, 115.0)
    for seed in range(4):
        spec = synth.ExperimentSpec(model="exponential", params=dict(rate=1.0),
                                    bin_width=0.25, span=120.0, total_counts=1e4,
                                    background_rate=0.5, pulse_edge=0.0,
                                    seed=seed)
        trace = synth.generate(spec)
        counts = trace.window(window.start, window.length).values
        weights = 1.0 / np.maximum(counts, 1.0)
        fit = estimate.fit_exponential_window(trace, window, weights=weights)
        oracle = _nlls_window_fit(trace, window, weights=weights)
        assert fit.converged
        assert fit["rate"] == pytest.approx(oracle["rate"], rel=1e-6)
        fit = estimate.fit_exponential_window(trace, window, weights="poisson")
        assert fit.converged
        assert fit["rate"] == pytest.approx(_poisson_mle(trace, window)["rate"],
                                            rel=1e-6)


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
    numpy_cap = estimate.fit_exponential_window(trace, window, max_iter=np.int64(1))
    assert numpy_cap.values.tobytes() == capped.values.tobytes()


# every fit with an iteration cap, called with the cap given
CAPPED_FITS = {
    "window": lambda cap: estimate.fit_exponential_window(
        _exp_trace(), FitWindow(0.0, 100.0), max_iter=cap),
    "nlls": lambda cap: estimate.nlls(
        lambda t, a, k: a * np.exp(-k * t), _exp_trace(),
        {"a": 30.0, "k": 0.1}, max_iter=cap),
    "rabi": lambda cap: estimate.fit_rabi_trace(_rabi_trace(), max_iter=cap),
    "t5": lambda cap: estimate.fit_t5(_t5_points(), max_iter=cap),
    "depolarization": lambda cap: estimate.fit_depolarization(
        _depol_traces(), GAMMA_MIX_COLD, GAMMA_MIX_WARM, GAMMA_RAD,
        max_iter=cap),
    "gamma_a1": lambda cap: estimate.fit_gamma_a1(
        _gamma_a1_points(), phonon.MIXING_FIT_DEFAULT, GAMMA_RAD,
        max_iter=cap),
}


@pytest.mark.parametrize("cap", [0, -1, 1.5, 2.0, "3", True, None])
@pytest.mark.parametrize("fit", list(CAPPED_FITS))
def test_fits_refuse_a_malformed_iteration_cap(fit, cap):
    with pytest.raises(ValidationError,
                       match=rf"^max_iter must be an integer >= 1, got {cap!r}$"):
        CAPPED_FITS[fit](cap)


# float.hex of (amplitude, rate, sigma_amplitude, sigma_rate, chi2) and the
# Newton steps of one seeded window fit with background, per weighting
WINDOW_FIT_BITS = {
    "uniform": ("0x1.1e3132c15985fp+13", "0x1.73c64596e6e47p-3",
                "0x1.43ba1eaa7d559p+4", "0x1.3d86db564f4c6p-12",
                "0x1.0ce3c2cb2699cp+16", 3),
    "poisson": ("0x1.1270e332a65a3p+13", "0x1.6a0ed5929a861p-3",
                "0x1.bc29b3e02bd87p+5", "0x1.2827e3e413298p-11",
                "0x1.f61b2c45a44b7p+20", 5),
    "provided": ("0x1.1d93eeeb1d25ep+13", "0x1.7338f653d92d0p-3",
                 "0x1.d2e204671730ap+5", "0x1.30a4c9dfffc91p-11",
                 "0x1.405a1b6debcd1p+8", 6),
    "array": ("0x1.1d5a786ddc653p+13", "0x1.72eacffb3db4dp-3",
              "0x1.8b115c66ddf52p+0", "0x1.7781d9d020c34p-16",
              "0x1.57e1a9d997125p+16", 3),
}


def _seeded_window_fit(weights):
    """One seeded window fit with background under a weighting scheme
    ("array": seeded weights in [0.5, 2])."""
    spec = synth.ExperimentSpec(model="exponential", params=dict(rate=0.18),
                                bin_width=0.25, span=120.0, total_counts=2e5,
                                background_rate=0.5, pulse_edge=0.0, seed=3)
    counts = synth.generate(spec)
    trace = TimeTrace(counts.times, counts.values,
                      uncertainty=np.sqrt(np.maximum(counts.values, 1.0)))
    window = FitWindow(4.0, 115.0)
    scheme = weights
    if weights == "array":
        scheme = np.random.default_rng(3).uniform(
            0.5, 2.0, len(trace.window(window.start, window.length)))
    return estimate.fit_exponential_window(trace, window, weights=scheme)


@pytest.mark.parametrize("weights", list(WINDOW_FIT_BITS))
def test_window_fit_bits_are_pinned(weights):
    fit = _seeded_window_fit(weights)
    assert fit.converged
    assert (fit["amplitude"].hex(), fit["rate"].hex(),
            fit.sigma_of("amplitude").hex(), fit.sigma_of("rate").hex(),
            fit.chi2.hex(), fit.iterations) == WINDOW_FIT_BITS[weights]


def _hex_digest(rows):
    """sha256 of rows of floats (by float.hex) and other scalars (by str)."""
    digest = hashlib.sha256()
    for row in rows:
        digest.update(" ".join(value.hex() if isinstance(value, float)
                               else str(value) for value in row).encode())
        digest.update(b"\n")
    return digest.hexdigest()


# digests of (amplitude, rate, sigma_amplitude, sigma_rate, chi2, Newton
# steps, converged) of the 160 window fits of criterion-5 seeds 0-9
CRITERION5_WINDOW_FIT_DIGESTS = {
    "uniform": "745f8fdce92ab10b0dbd5201b30d8b7025a98dee49408a1b86f201fb429ef803",
    "poisson": "5eedb59d266567952d608ad57375df30b38e8193b341f082d0f695540ca2f3a2",
}


@functools.cache
def _criterion5_window_fits(weights):
    """The 160 window fits of criterion-5 seeds 0-9 under a weighting."""
    return tuple(estimate.fit_exponential_window(trace, estimate.DEFAULT_WINDOW,
                                                 weights=weights)
                 for seed in range(10) for trace in _criterion5_traces(seed))


@pytest.mark.parametrize("weights", list(CRITERION5_WINDOW_FIT_DIGESTS))
def test_criterion5_window_fit_bits_are_pinned(weights):
    rows = [(fit["amplitude"], fit["rate"],
             fit.sigma_of("amplitude"), fit.sigma_of("rate"),
             fit.chi2, fit.iterations, fit.converged)
            for fit in _criterion5_window_fits(weights)]
    assert _hex_digest(rows) == CRITERION5_WINDOW_FIT_DIGESTS[weights]


def test_window_fit_poisson_is_the_likelihood_maximum():
    # the 14 K A1 curves of criterion-5 seeds 0-9, whose window tails
    # expect < 1 count a bin: the Poisson fit's rate is the independent
    # likelihood maximum's within 1e-6 sigma
    fits = _criterion5_window_fits("poisson")
    for seed in range(10):
        trace = _criterion5_traces(seed)[6]
        assert (trace.temperature, trace.channel) == (14.0, "A1")
        mle = _poisson_mle(trace, estimate.DEFAULT_WINDOW)
        gap = fits[16 * seed + 6]["rate"] - mle["rate"]
        assert abs(gap) <= 1e-6 * mle.sigma_of("rate")


def _fit_value_rows(fits):
    """(amplitude, rate, chi2, Newton steps, converged) of each fit."""
    return [(fit["amplitude"], fit["rate"], fit.chi2, fit.iterations,
             fit.converged) for fit in fits]


# digests of the fits above without their sigmas: the covariance is taken
# after the solve, and no fitted value depends on it
WINDOW_FIT_VALUE_DIGESTS = {
    "criterion5 uniform":
        "cfd79dc6eed11b7eab04b6c89db0715e6cceda013e6be12c2da88721f0af7d72",
    "criterion5 poisson":
        "4ccf1f458b54a0b7f16b530d92848ecda150af94f0a3c3b94785ba1d44585766",
    "seeded": "9e9ba69453bbd82902f097b372ae1e13cdc1c731e6140321a37b52ea941dfc86",
}


@pytest.mark.parametrize("fits", list(WINDOW_FIT_VALUE_DIGESTS))
def test_window_fit_values_are_pinned(fits):
    if fits == "seeded":
        rows = _fit_value_rows(map(_seeded_window_fit, WINDOW_FIT_BITS))
    else:
        rows = _fit_value_rows(_criterion5_window_fits(fits.split()[1]))
    assert _hex_digest(rows) == WINDOW_FIT_VALUE_DIGESTS[fits]


def test_window_fit_with_an_underflowing_amplitude_column():
    # the fitted rate, ~ln(1e6) per ns, makes exp(-rate t) underflow from
    # the window start t0 = 100 ns on: the amplitude's Jacobian column is
    # 0, so the amplitude gets the unbounded variance and the rate stays
    # bounded
    t = np.arange(200.0)
    y = np.zeros(200)
    y[100], y[101] = 1e6, 1.0
    fit = estimate.fit_exponential_window(TimeTrace(t, y), FitWindow(100.0, 50.0))
    assert fit.converged
    assert [sigma.hex() for sigma in fit.sigma.tolist()] == [
        "0x1.76e1a8c9d4d1bp+475", "0x1.9bc1f78373dbap-50"]
    cov = fit.covariance
    assert cov[0, 0] == estimate._HUGE_VARIANCE * (fit.chi2 / fit.dof)
    assert cov[0, 1] == cov[1, 0] == 0.0
    assert 0.0 < cov[1, 1] < 1e-20


def test_window_fit_refuses_an_overflowing_amplitude_column():
    # a rising trace fitted late in its span: the fitted rate, -0.9 per ns,
    # puts exp(-rate t), the amplitude's Jacobian column, beyond the float
    # range from the window start t0 = 800 ns on
    t = np.arange(1000.0)
    trace = TimeTrace(t, np.exp(0.9 * (t - 800.0)) + 1.0)
    with pytest.raises(ValidationError,
                       match=r"window starting at 800 ns.* rate -0\.9 rad/ns"):
        estimate.fit_exponential_window(trace, FitWindow(800.0, 100.0))


def _two_column_cases():
    """Degenerate and seeded random two-column Jacobians, as parameters
    (d_amplitude, d_rate, weights or None, factor)."""
    t = np.linspace(4.0, 119.0, 50)
    e = np.exp(-0.1 * t)
    w = np.random.default_rng(8).uniform(0.5, 2.0, len(t))
    # a unit vector orthogonal to e: tilting -3e by 1e-7 rad towards it
    # leaves a smallest eigenvalue ~3e-15 of the largest, below the 1e-12 rule
    r = np.sin(t) - (np.sin(t) @ e) / (e @ e) * e
    tilt = 3e-7 * np.linalg.norm(e) * r / np.linalg.norm(r)
    cases = [
        pytest.param(np.zeros_like(t), -t * e, None, 0.7,
                     id="zero amplitude column"),
        pytest.param(e, np.zeros_like(t), w, 1.0, id="zero rate column"),
        pytest.param(np.zeros_like(t), np.zeros_like(t), None, 2.5,
                     id="both columns zero"),
        pytest.param(e, -3.0 * e, w, 1.0, id="collinear"),
        pytest.param(e, -3.0 * e + tilt, None, 1.0, id="nearly collinear"),
        pytest.param(1e-3 * e, 1e3 * e, None, 0.3, id="collinear, unequal scales"),
        pytest.param(e, -1e18 * t * e, w, 1.0, id="1e18 scale mismatch"),
    ]
    rng = np.random.default_rng(21)
    for i in range(40):
        columns = rng.normal(size=(2, len(t))) * 10.0 ** rng.uniform(-10, 10, (2, 1))
        weights = rng.uniform(0.1, 3.0, len(t)) if i % 2 else None
        cases.append(pytest.param(*columns, weights, float(rng.uniform(0.1, 10)),
                                  id=f"random {i}"))
    return cases


@pytest.mark.parametrize("d_amplitude, d_rate, weights, factor",
                         _two_column_cases())
def test_window_covariance_matches_the_eigendecomposition(
        d_amplitude, d_rate, weights, factor):
    # the closed form against _covariance (eigh of the same column-scaled
    # normal matrix, the same rank rule) as the oracle: the unbounded
    # entries equal, all others within 1e-13 of their scale
    ((cov, _),) = estimate._window_covariances(
        d_amplitude[None, :], d_rate[None, :],
        None if weights is None else weights[None, :], [factor], 1, scale=True)
    oracle = estimate._covariance(
        np.array([d_amplitude, d_rate]).T,
        np.ones(len(d_amplitude)) if weights is None else weights,
        factor, 1, scale=True)
    unbounded = np.abs(oracle) >= 1e200
    assert (np.abs(cov) >= 1e200).tolist() == unbounded.tolist()
    exact = np.abs(oracle) == estimate._HUGE_VARIANCE * factor
    assert cov[exact].tolist() == oracle[exact].tolist()
    root = np.sqrt(np.abs(oracle.diagonal()))
    assert np.all(np.abs(cov - oracle) <= 1e-13 * np.outer(root, root))
    assert cov[0, 1] == cov[1, 0]


def _float_sqrt(q):
    """The square root of a positive Fraction, to well under an ulp."""
    root = math.isqrt(q.numerator * (1 << 400) // q.denominator)
    return float(Fraction(root, 1 << 200))


def _ulps(x, exact):
    return abs(x - exact) / math.ulp(exact)


def test_window_fit_sigma_matches_exact_rationals(monkeypatch):
    # the sigmas of the 32 fits of criterion-5 seed 0 (uniform and Poisson
    # weights) against those computed from the same Jacobian, weights and
    # chi^2 factor in exact rationals: within 16 ulp, and no further off
    # in median or max than _covariance's eigendecomposition of the same
    seen = []
    real = estimate._window_covariances

    def spy(d_amplitude, d_rate, w, chi2, dof, scale):
        seen.append((d_amplitude, d_rate, w, chi2[0] / dof if scale else 1.0))
        return real(d_amplitude, d_rate, w, chi2, dof, scale)

    monkeypatch.setattr(estimate, "_window_covariances", spy)
    sigmas = [estimate.fit_exponential_window(trace, estimate.DEFAULT_WINDOW,
                                              weights=weights).sigma
              for weights in ("uniform", "poisson")
              for trace in _criterion5_traces(0)]
    closed_form, eigh = [], []
    for sigma, (d_amplitude, d_rate, w, factor) in zip(sigmas, seen):
        weights = np.ones(d_amplitude.shape[1]) if w is None else w[0]
        exact_w = list(map(Fraction, weights.tolist()))
        a, r = (list(map(Fraction, column[0].tolist()))
                for column in (d_amplitude, d_rate))
        aa = sum(x * x * v for x, v in zip(a, exact_w))
        ab = sum(x * y * v for x, y, v in zip(a, r, exact_w))
        rr = sum(y * y * v for y, v in zip(r, exact_w))
        scale = Fraction(factor) / (aa * rr - ab * ab)
        exact = _float_sqrt(rr * scale), _float_sqrt(aa * scale)
        oracle = estimate._covariance(np.array([d_amplitude[0], d_rate[0]]).T,
                                      weights, factor, 1, scale=True)
        for i in range(2):
            closed_form.append(_ulps(float(sigma[i]), exact[i]))
            eigh.append(_ulps(math.sqrt(oracle[i, i]), exact[i]))
    assert len(closed_form) == 64
    assert max(closed_form) <= 16
    assert np.median(closed_form) <= np.median(eigh)
    assert max(closed_form) <= max(eigh)


@pytest.mark.filterwarnings("error")
@settings(max_examples=60, deadline=None)
@given(tail=st.floats(30.0, 1e3), decays=st.floats(0.3, 8.0),
       scale=st.floats(0.05, 20.0), seed=st.integers(0, 2**32 - 1),
       weights=st.sampled_from(["uniform", "poisson"]))
# counts far outside 1e+-150, whose squares overflow or underflow unless
# the solve and the sums are taken on rescaled rows
@example(tail=30.0, decays=8.0, scale=1e300, seed=0, weights="uniform")
@example(tail=30.0, decays=8.0, scale=1e300, seed=0, weights="poisson")
@example(tail=30.0, decays=8.0, scale=2.0**500, seed=0, weights="uniform")
@example(tail=30.0, decays=8.0, scale=1e152, seed=0, weights="uniform")
@example(tail=30.0, decays=8.0, scale=1e250, seed=0, weights="uniform")
@example(tail=30.0, decays=8.0, scale=1e-160, seed=0, weights="uniform")
@example(tail=30.0, decays=8.0, scale=1e-200, seed=0, weights="uniform")
def test_window_fit_is_invariant_under_count_rescaling(tail, decays, scale, seed,
                                                       weights):
    # counts c y: the rate stays. Uniform weights scale chi^2 by c^2 and
    # the rate column of the Jacobian by c, so sigma_rate stays; the
    # Poisson fit's Fisher weights 1/model scale by 1/c, so sigma_rate
    # scales by 1/sqrt(c). The amplitude scales by c, and its sigma by c
    # and sqrt(c), also where its variance leaves the float range (counts
    # near 1e-200 or 1e250). No floating-point warning is raised.
    window = FitWindow(4.0, 115.0)
    t = 0.25 * np.arange(480) + 0.125
    rate = decays / window.length
    counts = np.random.default_rng(seed).poisson(
        tail * np.exp(rate * (window.stop - t))).astype(float)
    fit, scaled = (estimate.fit_exponential_window(TimeTrace(t, c * counts),
                                                   window, weights=weights)
                   for c in (1.0, scale))
    assert fit.converged and scaled.converged
    assert scaled["rate"] == pytest.approx(fit["rate"], rel=1e-9)
    assert scaled["amplitude"] == pytest.approx(scale * fit["amplitude"], rel=1e-9)
    power = 0.0 if weights == "uniform" else -0.5
    assert scaled.sigma_of("rate") == pytest.approx(
        scale**power * fit.sigma_of("rate"), rel=1e-9)
    assert scaled.sigma_of("amplitude") == pytest.approx(
        scale ** (1.0 + power) * fit.sigma_of("amplitude"), rel=1e-9)
    # chi^2 scales as the amplitude's variance, where it stays a normal float
    chi2 = fit.chi2 * scale ** (1.0 + power) * scale ** (1.0 + power)
    if sys.float_info.min <= chi2 < math.inf:
        assert scaled.chi2 == pytest.approx(chi2, rel=1e-9)


@pytest.mark.parametrize("weights", ["uniform", "poisson"])
def test_window_fit_rescales_no_row_within_range(weights):
    # fitted beside the same counts x1e300, which the fit takes at a power
    # of two, a row of plain counts keeps the bits it has beside a plain row
    # (a batch of one row sums in another order)
    t = 0.25 * np.arange(480) + 0.125
    counts = np.random.default_rng(0).poisson(
        30.0 * np.exp(8.0 / 115.0 * (119.0 - t))).astype(float)
    sub = TimeTrace(t, counts).window(4.0, 115.0)

    def fits(y):
        w = None if weights == "uniform" else 1.0 / np.maximum(y, 1.0)
        return estimate._fit_windows(sub.times, y, w, weights, 200)

    alone, _ = fits(np.array([sub.values, sub.values]))
    plain, scaled = fits(np.array([sub.values, 1e300 * sub.values]))
    for name in ("values", "sigma", "covariance"):
        assert getattr(plain, name).tobytes() == getattr(alone, name).tobytes()
    assert (plain.chi2, plain.iterations) == (alone.chi2, alone.iterations)
    assert scaled["rate"] == pytest.approx(alone["rate"], rel=1e-9)


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


def test_t5_fit_refuses_unknown_init_names():
    # "T0" is not "t0": a misspelled start must not be dropped silently
    with pytest.raises(ValidationError,
                       match=r"unknown init parameters \['T0', 'bogus'\]"):
        estimate.fit_t5(_t5_points(), init={"T0": 3.0, "bogus": 1})
    fit = estimate.fit_t5(_t5_points(), init={"t0": 4.0}, max_iter=1)
    assert fit.iterations == 1 and fit["t0"] != estimate.fit_t5(
        _t5_points(), max_iter=1)["t0"]


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


def test_depolarization_fit_refuses_unknown_init_names():
    with pytest.raises(ValidationError,
                       match=r"unknown init parameters \['eps'\]"):
        estimate.fit_depolarization(
            _depol_traces(), gamma_mix_cold=GAMMA_MIX_COLD,
            gamma_mix_warm=GAMMA_MIX_WARM, gamma_rad=GAMMA_RAD,
            init={"epsilon": 0.2, "eps": 0.2})


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


def test_effective_rates_wide_solve_matches_scalar_calls():
    # 1000 mixing rates, 2000 curves in one solve, from no mixing to 5 rad/ns
    mixes = np.concatenate([[0.0], np.geomspace(1e-9, 5.0, 999)])
    a1, a2, d_a1, d_a2 = estimate.effective_isc_rates(GAMMA_RAD, GAMMA_ISC, mixes,
                                                      slopes=True)
    pairs = np.array([[rate.value if i < 2 else rate for i, rate in enumerate(
        estimate.effective_isc_rates(GAMMA_RAD, GAMMA_ISC, gm, slopes=True))]
        for gm in mixes])
    np.testing.assert_allclose(np.stack([a1, a2]), pairs[:, :2].T, rtol=1e-12,
                               atol=1e-12 * GAMMA_RAD.value)
    # the slopes come from each solve's last profile, one Newton step before
    # its rates, and a row of the wide solve steps on until every row is done
    np.testing.assert_allclose(np.stack([d_a1, d_a2]), pairs[:, 2:].T, rtol=1e-8)


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
    (dict(gamma_a1=GAMMA_ISC, window=FitWindow(4.0, 0.3)),
     "window must contain at least 3 samples"),
    # gamma_a1 = 6283 rad/ns without mixing underflows the whole A1 curve
    (dict(gamma_a1=6283.0), "need >= 2 positive samples to initialize the rate"),
    # refused before any sample is built
    (dict(gamma_a1=GAMMA_ISC, window=FitWindow(4.0, 1e18)),
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


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_effective_rates_slopes_keep_the_rates(warm):
    # slopes=True builds the curves in the same array pass as slopes=False,
    # so the same start gives the same bits
    gr = GAMMA_RAD.value
    start = (estimate.effective_isc_rates(gr, 0.9 * GAMMA_ISC.value, FORWARD_MIXES)
             if warm else None)
    plain = estimate.effective_isc_rates(gr, GAMMA_ISC, FORWARD_MIXES, start=start)
    a1, a2, d_a1, d_a2 = estimate.effective_isc_rates(
        gr, GAMMA_ISC, FORWARD_MIXES, start=start, slopes=True)
    assert a1.tobytes() == plain[0].tobytes()
    assert a2.tobytes() == plain[1].tobytes()
    assert d_a1.shape == d_a2.shape == (len(FORWARD_MIXES),)


@pytest.mark.parametrize("gamma_a1", [0.03, 0.1, 0.3])
def test_effective_rates_slopes_match_central_difference(gamma_a1):
    gr = GAMMA_RAD.value
    _, _, d_a1, d_a2 = estimate.effective_isc_rates(gr, gamma_a1, FORWARD_MIXES,
                                                    slopes=True)
    step = 1e-4 * gamma_a1
    upper, lower = (np.stack(estimate.effective_isc_rates(
        gr, gamma_a1 + sign * step, FORWARD_MIXES)) for sign in (1.0, -1.0))
    np.testing.assert_allclose(np.stack([d_a1, d_a2]),
                               (upper - lower) / (2.0 * step), rtol=1e-5)


def test_effective_rates_scalar_slopes_are_floats():
    gr = GAMMA_RAD.value
    pair = estimate.effective_isc_rates(gr, GAMMA_ISC, FORWARD_MIXES[3], slopes=True)
    whole = estimate.effective_isc_rates(gr, GAMMA_ISC, FORWARD_MIXES, slopes=True)
    assert [type(value) for value in pair] == [AngularRate, AngularRate, float, float]
    assert pair[0].fitted and pair[1].fitted
    np.testing.assert_allclose([pair[0].value, pair[1].value],
                               [column[3] for column in whole[:2]], rtol=1e-12)
    # the slopes come from each solve's last profile, one Newton step within
    # tolerance before its rates, and the two solves step differently: 2.9e-9
    # relative at most over 25 Gamma_A1 from 0.003 to 3 rad/ns, cold and warm
    np.testing.assert_allclose(pair[2:], [column[3] for column in whole[2:]],
                               rtol=1e-8)


# digests of the windowed rates (slopes=False) at the criterion-5
# temperatures, from the sequence call and from one scalar call per mixing
# rate, solved cold or started from the rates at 0.9 Gamma_A1; recorded when
# the moments became closed-form, which moved the rates of the sampled
# solve by at most 1.9e-15 (|rate| + Gamma_rad)
FORWARD_RATE_DIGESTS = {
    (0.03, "cold"): "719942ad1ce9f87c8fadc89ecdb8196cea816916780ddfe5cd752bb15afcdd49",
    (0.03, "warm"): "8d1f218623fe504818a519f5c4a445070a6fadf4be5d584d7c263cbf8cc7db1d",
    (0.1, "cold"): "3bfe72540b89657e17b9c75d2088eed210da3812f398d19d0af477f9c5c08a8a",
    (0.1, "warm"): "14a5642deb182aefaaaf8e7063d98171afb3fd9b3ce40dc1475bd76e60dae452",
    (0.3, "cold"): "8814a798b49862c56351d4284a8faa68cb255d8e752babba8adddb3ba821bf4f",
    (0.3, "warm"): "fc6217d6078072da5dc1d307613dfe0efa96c1052004e218bc72fe8e1547b5ae",
}


@pytest.mark.parametrize("gamma_a1, start", list(FORWARD_RATE_DIGESTS))
def test_effective_rates_bits_are_pinned(gamma_a1, start):
    gr = CRITERION_GAMMA_RAD
    mixes = FORWARD_MIXES[1:]
    warm = (np.stack(estimate.effective_isc_rates(gr, 0.9 * gamma_a1, mixes))
            if start == "warm" else None)
    rows = [tuple(branch.tolist()) for branch in
            estimate.effective_isc_rates(gr, gamma_a1, mixes, start=warm)]
    for i, mix in enumerate(mixes):
        pair = estimate.effective_isc_rates(
            gr, gamma_a1, mix, start=None if warm is None else warm[:, i])
        rows.append(tuple(rate.value for rate in pair))
    assert _hex_digest(rows) == FORWARD_RATE_DIGESTS[gamma_a1, start]


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


@pytest.mark.parametrize("n", [3, 4, 7, 20, 461, 4000])
def test_geometric_moments_match_summed_series(n):
    # every z regime: 0, the Bernoulli series below n z = _SERIES_MAX and
    # the closed form above it, either side of that switch, up to r^n
    # underflowing; the oracle sums each term, exp(-z j) to half an ulp
    z = np.concatenate([[0.0], np.geomspace(1e-9, 40.0, 60),
                        estimate._SERIES_MAX / n * np.array([1 - 1e-9, 1 + 1e-9])])
    sums, means, variances = estimate._geometric_moments(-z, n)
    for z_i, got in zip(z.tolist(), zip(sums.tolist(), means.tolist(),
                                         variances.tolist())):
        terms = [math.exp(-z_i * j) for j in range(n)]
        total = math.fsum(terms)
        mean = math.fsum(j * term for j, term in enumerate(terms)) / total
        var = math.fsum((j - mean) ** 2 * term
                        for j, term in enumerate(terms)) / total
        assert got[0] == pytest.approx(total, rel=1e-15)
        assert got[1] == pytest.approx(mean, rel=1e-14)
        assert got[2] == pytest.approx(var, rel=1e-12)


def _sampled_forward_rates(gamma_rad, gamma_a1, mixes, window):
    """The forward model's (A1, A2) rates from sampled curves, the oracle of
    its closed-form moments: `_windowed_rates` on `_a12_curves` sampled
    every _FORWARD_DT across the window, from the log-linear start."""
    dt = estimate._FORWARD_DT
    times = window.start + dt * np.arange(int(round(window.length / dt)) + 1)
    times = times[times <= window.stop]
    modes = closedform._a12_modes(gamma_rad, np.asarray(mixes)[:, None], gamma_a1,
                                  np.array([True, False]))
    curves = closedform._a12_curves(modes, times).reshape(-1, len(times))
    rates, _, converged = estimate._windowed_rates(curves, times)
    assert converged
    return rates.reshape(-1, 2).T - gamma_rad


@settings(max_examples=200, deadline=None)
@given(gr=st.floats(0.01, 0.3), ga1=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
       mix=st.sampled_from(["zero", "tiny", "half", "any"]),
       any_mix=st.floats(0.0, 5.0), start=st.floats(0.0, 20.0),
       length=st.floats(2.0 * estimate._FORWARD_DT, 300.0))
@example(gr=GAMMA_RAD.value, ga1=GAMMA_ISC.value, mix="any", any_mix=0.02,
         start=4.0, length=115.0)
# a window of 3.16 ns holds 13 samples, not round(3.16/0.25) + 1 = 14
@example(gr=GAMMA_RAD.value, ga1=GAMMA_ISC.value, mix="any", any_mix=0.02,
         start=4.0, length=3.16)
@example(gr=0.3, ga1=0.5, mix="any", any_mix=5.0, start=0.0, length=0.5)
def test_effective_rates_match_sampled_curves(gr, ga1, mix, any_mix, start, length):
    gm = {"zero": 0.0, "tiny": 1e-9, "half": 0.5 * ga1, "any": any_mix}[mix]
    window = FitWindow(start, length)
    a1, a2 = estimate.effective_isc_rates(gr, ga1, [gm], window)
    expected = _sampled_forward_rates(gr, ga1, [gm], window)
    for got, want in zip((a1[0], a2[0]), expected[:, 0].tolist()):
        assert abs(got - want) <= 1e-12 * (abs(want) + gr)


@pytest.mark.parametrize("args, kwargs, expected", [
    # a flat curve: every rate 0, every moment at x = 0
    ((0.0, 0.0, 0.0), {}, (0.0, 0.0)),
    ((1e-12, 0.0, 0.0), {}, (0.0, 0.0)),
    ((1e-12, GAMMA_ISC.value, FORWARD_MIXES[:4]), {}, None),
    # started from negative rates, so that e grows across the window
    ((GAMMA_RAD.value, GAMMA_ISC.value, FORWARD_MIXES[3]),
     dict(start=(-GAMMA_RAD.value - 0.05, -GAMMA_RAD.value - 1.0)), None),
    # a window that starts before the pulse
    ((GAMMA_RAD.value, GAMMA_ISC.value, FORWARD_MIXES[3]),
     dict(window=FitWindow(-20.0, 115.0)), None),
], ids=["flat", "gamma-rad-1e-12-flat", "gamma-rad-1e-12", "negative-start",
        "negative-window-start"])
def test_effective_rates_edge_inputs(args, kwargs, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = estimate.effective_isc_rates(*args, **kwargs)
    got = np.array([np.asarray(getattr(rate, "value", rate)) for rate in got])
    if expected is not None:
        assert got.tolist() == list(expected)
        return
    gamma_rad, gamma_a1, mixes = args
    window = kwargs.get("window", estimate.DEFAULT_WINDOW)
    want = _sampled_forward_rates(gamma_rad, gamma_a1, np.atleast_1d(mixes),
                                  window).reshape(got.shape)
    # both carry ~1e-17 rad/ns of rounding at any Gamma_rad, on the scale
    # |rate| + 1/span of the Newton solve's tolerance
    assert np.all(np.abs(got - want)
                  <= 1e-12 * (np.abs(want) + gamma_rad + 1.0 / window.length))


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


def _criterion5_traces(seed):
    """The 16 count traces of one criterion-5 seed, each labelled with its
    temperature and branch, A1 then A2 at each temperature."""
    traces = []
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
            traces.append(dataclasses.replace(synth.generate(spec),
                                              temperature=temp, channel=branch))
    return traces


def _criterion5_points(seed):
    return estimate.fit_gamma_a1_traces(
        _criterion5_traces(seed), phonon.MIXING_FIT_DEFAULT,
        CRITERION_GAMMA_RAD).derived["points"]


def test_gamma_a1_traces_match_the_window_fit_chain():
    # the entry point against the chain it replaces: one window fit per
    # trace, then fit_gamma_a1. The batched solve sums in another order, so
    # windowed rates and sigmas agree to rounding (9.7e-15 and 1.4e-14
    # relative at most on these seeds), and Gamma_A1 within fit_gamma_a1's
    # own stopping tolerance (4.6e-8 MHz at most)
    for seed in range(100):
        traces = _criterion5_traces(seed)
        chain = []
        for trace in traces:
            fit = estimate.fit_exponential_window(trace, estimate.DEFAULT_WINDOW)
            chain.append((trace.temperature, fit["rate"] - CRITERION_GAMMA_RAD,
                          fit.sigma_of("rate"), trace.channel))
        expected = estimate.fit_gamma_a1(chain, phonon.MIXING_FIT_DEFAULT,
                                         CRITERION_GAMMA_RAD)
        result = estimate.fit_gamma_a1_traces(traces, phonon.MIXING_FIT_DEFAULT,
                                              CRITERION_GAMMA_RAD)
        points = result.derived["points"]
        assert [(p[0], p[3]) for p in points] == [(p[0], p[3]) for p in chain]
        # relative to the windowed rate, of which gamma_eff is the excess
        np.testing.assert_allclose(
            np.array([p[1] for p in points]) + CRITERION_GAMMA_RAD,
            np.array([p[1] for p in chain]) + CRITERION_GAMMA_RAD, rtol=1e-12)
        np.testing.assert_allclose([p[2] for p in points],
                                   [p[2] for p in chain], rtol=1e-12)
        assert result.converged
        assert abs(result["gamma_a1"] - expected["gamma_a1"]) * TO_MHZ <= 1e-7


def _gamma_a1_rows(result):
    """(Gamma_A1, sigma, chi2, iterations, converged) of a fit_gamma_a1 result."""
    return [(result["gamma_a1"], result.sigma_of("gamma_a1"), result.chi2,
             result.iterations, result.converged)]


# digests of the global fits of criterion-5 seeds 0-9: fit_gamma_a1 on the
# points of one window fit per trace, and fit_gamma_a1_traces (the batched
# window fits) with its derived (temperature, gamma_eff, sigma, branch) points
GAMMA_A1_FIT_DIGESTS = {
    "window-fit points":
        "24aa31cccaba5602e8d6178011536c82be527dfe86f6738c6235f463513c0577",
    "traces": "c6711895f3b6cb9c39b6c7ca1a3233f7ba5b36d52f56e68bb9d3d80a0e4ac7f8",
}


@pytest.mark.parametrize("path", list(GAMMA_A1_FIT_DIGESTS))
def test_gamma_a1_fit_results_are_pinned(path):
    rows = []
    fits = _criterion5_window_fits("uniform")
    for seed in range(10):
        if path == "traces":
            result = estimate.fit_gamma_a1_traces(
                _criterion5_traces(seed), phonon.MIXING_FIT_DEFAULT,
                CRITERION_GAMMA_RAD)
            rows += _gamma_a1_rows(result) + result.derived["points"]
            continue
        points = [(float(temp), fit["rate"] - CRITERION_GAMMA_RAD,
                   fit.sigma_of("rate"), branch)
                  for fit, (temp, branch) in zip(
                      fits[16 * seed:16 * seed + 16],
                      itertools.product(CRITERION_TEMPERATURES.tolist(),
                                        ("A1", "A2")))]
        rows += _gamma_a1_rows(estimate.fit_gamma_a1(
            points, phonon.MIXING_FIT_DEFAULT, CRITERION_GAMMA_RAD))
    assert _hex_digest(rows) == GAMMA_A1_FIT_DIGESTS[path]


def _labelled_traces(**changes):
    """Two window-fittable traces at 5 and 20 K, the second with changes."""
    t = np.arange(0.0, 120.0, 0.25) + 0.125
    first = TimeTrace(t, 1e4 * np.exp(-0.2 * t), temperature=5.0, channel="A1")
    second = TimeTrace(t, 1e4 * np.exp(-0.1 * t), temperature=20.0,
                       channel="A2")
    return [first, dataclasses.replace(second, **changes)]


@pytest.mark.parametrize("changes, message", [
    (dict(temperature=None), "each trace needs temperature and channel metadata"),
    (dict(channel=None), "each trace needs temperature and channel metadata"),
    (dict(times=np.arange(0.0, 120.0, 0.25) + 0.1), "different bin grids"),
    (dict(channel="B1"), "branch must be 'A1' or 'A2', got 'B1'"),
], ids=["no-temperature", "no-channel", "bin-grid", "branch"])
def test_gamma_a1_traces_refusals(changes, message):
    with pytest.raises(ValidationError, match=message):
        estimate.fit_gamma_a1_traces(_labelled_traces(**changes),
                                     phonon.MIXING_FIT_DEFAULT, GAMMA_RAD)


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
    # one forward-model call per trial Gamma_A1, whose one evaluation of the
    # modes gives the rates and the Jacobian's slopes
    calls, passes = [], []
    forward, modes = estimate.effective_isc_rates, estimate._a12_modes

    def counted(*args, **kwargs):
        calls.append(args[1])
        return forward(*args, **kwargs)

    def counted_modes(*args, **kwargs):
        passes.append(1)
        return modes(*args, **kwargs)

    monkeypatch.setattr(estimate, "effective_isc_rates", counted)
    monkeypatch.setattr(estimate, "_a12_modes", counted_modes)
    per_fit = []
    for seed in range(10):
        points = _criterion5_points(seed)
        del calls[:], passes[:]
        fit = estimate.fit_gamma_a1(points, phonon.MIXING_FIT_DEFAULT,
                                    CRITERION_GAMMA_RAD)
        assert fit.converged
        assert abs(fit["gamma_a1"] * TO_MHZ - 16.0) <= 0.6
        assert len(passes) == len(calls)
        per_fit.append(len(calls))
    # 3.1 calls a fit on these seeds, 4 at most: two accepted steps, then
    # the Newton decrement ends the fit without a call to confirm a third
    assert np.mean(per_fit) <= 3.3
    assert max(per_fit) <= 4


def test_gamma_a1_fit_warm_starts_forward_solves(monkeypatch):
    # each forward solve after the first starts from the first-order
    # prediction of the previous trial's rates and slopes: 1.48 Newton steps
    # a solve on these seeds, where the cold start from the modes of the
    # first takes 3 (1.97 a solve overall)
    steps, starts = [], []
    forward_rates, newton = estimate._forward_rates, estimate._newton

    def counted_rates(modes, t0, n, start, slopes):
        starts.append(start)
        return forward_rates(modes, t0, n, start, slopes)

    def counted_newton(*args):
        solved = newton(*args)
        steps.append(solved[1])
        return solved

    for seed in range(10):
        points = _criterion5_points(seed)
        with monkeypatch.context() as patch:
            patch.setattr(estimate, "_forward_rates", counted_rates)
            patch.setattr(estimate, "_newton", counted_newton)
            fit = estimate.fit_gamma_a1(points, phonon.MIXING_FIT_DEFAULT,
                                        CRITERION_GAMMA_RAD)
        assert fit.converged
    assert len(steps) == len(starts)
    first = [start is None for start in starts]
    assert sum(first) == 10 and first[0]
    assert max(np.array(steps)[first]) <= 3
    assert np.mean(steps) <= 2.0


def _decrement_stop(fit, chi2_at=None):
    """Run fit(); where the Newton decrement ended its last descent, return
    chi^2 there and at the Gauss-Newton step it declined, else None.
    chi2_at(theta, y, weights), where given, evaluates both chi^2 (exactly,
    say) in place of the fit's floats."""
    runs = []
    minimize = estimate._minimize

    def capture(predict, jacobian, y, weights, *args):
        out = minimize(predict, jacobian, y, weights, *args)
        runs.append((predict, y, weights, out))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimate, "_minimize", capture)
        fit()
    predict, y, weights, (theta, f, chi2, converged, _, jac) = runs[-1]
    if jac is None:  # ended on an accepted step, not on the decrement
        return None
    grad = jac.T @ (weights * (y - f))
    normal = (jac * weights[:, None]).T @ jac
    decrement = estimate._decrement(normal, grad, np.diag(normal).copy())
    if not (converged and 0.0 <= decrement <= estimate._CHI2_RTOL * chi2):
        return None
    declined = theta + np.linalg.solve(normal, grad)
    if chi2_at is not None:
        return chi2_at(theta, y, weights), chi2_at(declined, y, weights)
    residual = y - predict(declined)
    return chi2, float(np.sum(weights * residual * residual))


# The decrement predicts the declined step's chi^2 drop to within chi^2's
# rounding, which is up to 6.4e-13 of chi^2 for fit_gamma_a1's forward model
# (300 criterion-5 seeds); the allowance adds 1e-12 for it to the 1e-12 the
# decrement admits.
DECLINED_DROP_RTOL = estimate._CHI2_RTOL + 1e-12


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(100, 10_000))
def test_gamma_a1_fit_decrement_declines_only_rounding(seed):
    # where the decrement ends the fit, the step it does not evaluate could
    # have lowered chi^2 by no more than the stopping tolerance and rounding
    points = _criterion5_points(seed)
    stop = _decrement_stop(lambda: estimate.fit_gamma_a1(
        points, phonon.MIXING_FIT_DEFAULT, CRITERION_GAMMA_RAD))
    assume(stop is not None)
    chi2, declined = stop
    assert chi2 - declined <= DECLINED_DROP_RTOL * chi2


def _t5_chi2_exact(temps):
    """chi^2 of a (T - t0)^5 + c at (a, t0, c) in exact rationals, on the
    ascending temperatures temps."""
    def chi2_at(theta, y, weights):
        a, t0, c = map(Fraction, theta.tolist())
        return sum(Fraction(w) * (Fraction(v) - a * (Fraction(temp) - t0) ** 5
                                  - c) ** 2
                   for temp, v, w in zip(temps, y.tolist(), weights.tolist()))
    return chi2_at


# seeds 809 and 34597: chi^2 evaluated in floats reads a drop 3.0e-12 and
# 2.8e-12 of chi^2 at the declined step, where the exact drop is 9.9e-13
# and 6.5e-13, the decrement's prediction; the polynomial model lets the
# test take both chi^2 exactly, so rounding does not enter the comparison
@settings(max_examples=30, deadline=None)
@example(seed=809)
@example(seed=34597)
@given(seed=st.integers(0, 2**32 - 1))
def test_t5_fit_decrement_declines_only_rounding(seed):
    noise = np.random.default_rng(seed).normal(0.0, 0.05, size=6)
    points = [(temp, rate.value + rate_from_linear_mhz(dev, fitted=True).value,
               sigma) for (temp, rate, sigma), dev in zip(_t5_points(), noise)]
    stop = _decrement_stop(lambda: estimate.fit_t5(points),
                           _t5_chi2_exact([temp for temp, _, _ in points]))
    assume(stop is not None)
    chi2, declined = stop
    assert chi2 - declined <= DECLINED_DROP_RTOL * chi2


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
