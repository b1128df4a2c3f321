"""Nonlinear least-squares estimation of physical rates from count traces,
and the windowed forward model that the crossing-rate fit inverts.

Every fit runs through `_least_squares`: a damped Gauss-Newton iteration
(Levenberg-style lambda adaptation) with a forward-difference Jacobian
that accepts only steps lowering chi^2. Weighting schemes: "uniform"
(covariance scaled by reduced chi^2, as unit weights carry no absolute
scale), "provided" (1/sigma^2 from the data's uncertainties), an explicit
weight array, or "poisson": 1/max(y, 1), then two refits weighted by
1/max(model, 1), which removes at first order the bias toward downward
fluctuations that weights from observed counts cause. Rank-deficient
directions get effectively unbounded variances rather than being hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .closedform import (
    additional_decoherence,
    depolarization_populations,
    fluorescence_a12,
    rabi_fit_model,
)
from .core import (AngularRate, TimeTrace, ValidationError, rate_value,
                   temperature_value)

_JACOBIAN_REL_STEP = 1e-6
_HUGE_VARIANCE = 1e300


@dataclass(frozen=True)
class FitWindow:
    """A fit window [start, start + length] in ns."""

    start: float
    length: float

    def __post_init__(self):
        if not (np.isfinite(self.start) and np.isfinite(self.length)):
            raise ValidationError("window bounds must be finite")
        if self.length <= 0:
            raise ValidationError("window length must be > 0")

    @property
    def stop(self):
        return self.start + self.length


@dataclass(frozen=True)
class FitResult:
    """Named parameter estimates with linearized uncertainties.

    ci95 entries are value +/- 1.96 sigma. `derived` carries quantities
    computed from the fitted parameters (e.g. rates obtained by
    subtracting a known radiative rate).
    """

    names: tuple
    values: np.ndarray
    sigma: np.ndarray
    covariance: np.ndarray
    chi2: float
    dof: int
    converged: bool
    iterations: int
    derived: dict = field(default_factory=dict)

    def _index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(name) from None

    def __getitem__(self, name):
        return float(self.values[self._index(name)])

    def sigma_of(self, name):
        return float(self.sigma[self._index(name)])

    @property
    def params(self):
        return dict(zip(self.names, (float(v) for v in self.values)))

    @property
    def ci95(self):
        out = {}
        for i, name in enumerate(self.names):
            half = 1.96 * self.sigma[i]
            out[name] = (float(self.values[i] - half), float(self.values[i] + half))
        return out

    def with_derived(self, **extra):
        """Copy of this result with additional derived quantities."""
        return replace(self, derived={**self.derived, **extra})


def _resolve_weights(weights, values, uncertainty):
    """Weight array of a weighting scheme (see the module docstring)."""
    if isinstance(weights, str):
        if weights == "uniform":
            return np.ones_like(values)
        if weights == "poisson":
            return 1.0 / np.maximum(values, 1.0)
        if weights == "provided":
            if uncertainty is None:
                raise ValidationError("weights='provided' requires trace uncertainty")
            sigma = np.asarray(uncertainty, dtype=float)
            if np.any(sigma <= 0):
                raise ValidationError("provided uncertainties must be > 0")
            return 1.0 / sigma**2
        raise ValidationError(f"unknown weighting scheme {weights!r}")
    w = np.asarray(weights, dtype=float)
    if w.shape != np.shape(values) or np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValidationError("weight array must be finite, >= 0, matching data length")
    return w


def _jacobian(predict, theta, f0):
    jac = np.empty((len(f0), len(theta)))
    for j in range(len(theta)):
        step = _JACOBIAN_REL_STEP * (abs(theta[j]) if theta[j] != 0.0 else 1.0)
        probe = theta.copy()
        probe[j] += step
        jac[:, j] = (predict(probe) - f0) / step
    return jac


def _covariance(jac, weights, chi2, dof, scale):
    # column-scale first so the rank test sees collinearity, not unit
    # mismatches between parameters (their scales differ by many decades)
    wjac = jac * np.sqrt(weights)[:, None]
    norms = np.sqrt(np.sum(wjac * wjac, axis=0))
    norms = np.where(norms > 0.0, norms, 1.0)
    scaled = wjac / norms
    normal = scaled.T @ scaled
    vals, vecs = np.linalg.eigh(normal)
    top = float(np.max(vals)) if len(vals) else 0.0
    rank_tol = max(top, 0.0) * 1e-12
    inv_vals = np.where(vals > rank_tol, 1.0 / np.where(vals > rank_tol, vals, 1.0),
                        _HUGE_VARIANCE)
    cov = (vecs * inv_vals) @ vecs.T / np.outer(norms, norms)
    if scale and dof > 0:
        cov = cov * (chi2 / dof)
    return cov


def _minimize(predict, y, weights, theta, f, max_iter):
    """Damped Gauss-Newton descent of sum(w * (y - predict(theta))^2) from
    theta, with f = predict(theta); returns the same pair at the end, chi2,
    whether it converged and the iteration count."""
    def chi2_of(residual):
        return float(np.sum(weights * residual * residual))

    r = y - f
    chi2 = chi2_of(r)
    y_scale = max(float(np.sum(weights * y * y)), 1e-300)
    lam = 1e-3
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        jac = _jacobian(predict, theta, f)
        grad = jac.T @ (weights * r)
        normal = (jac * weights[:, None]).T @ jac
        diag = np.diag(normal).copy()
        diag_floor = max(float(np.max(diag)), 1e-300)
        diag = np.where(diag > 0, diag, diag_floor)

        accepted = False
        while lam <= 1e14:
            try:
                step = np.linalg.solve(normal + lam * np.diag(diag), grad)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(normal + lam * np.diag(diag), grad,
                                           rcond=None)
            theta_try = theta + step
            f_try = predict(theta_try)
            if np.all(np.isfinite(f_try)):
                r_try = y - f_try
                chi2_try = chi2_of(r_try)
                if math.isfinite(chi2_try) and chi2_try <= chi2:
                    accepted = True
                    break
            lam *= 10.0
        if not accepted:
            break

        drop = chi2 - chi2_try
        rel_step = float(np.max(np.abs(step) / (np.abs(theta_try) + 1e-300)))
        theta, f, r, chi2 = theta_try, f_try, r_try, chi2_try
        lam = max(lam * 0.3, 1e-12)
        if (drop <= 1e-13 * max(chi2, 1e-300)
                or rel_step < 1e-10
                or chi2 <= 1e-28 * y_scale):
            converged = True
            break
    return theta, f, chi2, converged, iterations


def _least_squares(predict, y, weights, init, names, max_iter=200,
                   uncertainty=None):
    """Fit predict(theta) to y under a weighting scheme (module docstring)."""
    y = np.asarray(y, dtype=float)
    w = _resolve_weights(weights, y, uncertainty)
    theta = np.array(init, dtype=float)
    n_points, n_params = len(y), len(theta)
    if n_points <= n_params:
        raise ValidationError(
            f"{n_points} points cannot constrain {n_params} parameters"
        )
    scheme = weights if isinstance(weights, str) else "array"
    f = predict(theta)
    for refit in range(3 if scheme == "poisson" else 1):
        if refit:  # reweight counts by the previous fit's expectation
            w = 1.0 / np.maximum(f, 1.0)
        theta, f, chi2, converged, iterations = _minimize(
            predict, y, w, theta, f, max_iter)

    dof = n_points - n_params
    cov = _covariance(_jacobian(predict, theta, f), w, chi2, dof,
                      scale=scheme == "uniform")
    sigma = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return FitResult(
        names=tuple(names),
        values=theta,
        sigma=sigma,
        covariance=cov,
        chi2=chi2,
        dof=dof,
        converged=converged,
        iterations=iterations,
    )


def nlls(model, data, init, weights="uniform", max_iter=200):
    """Fit model(t, *params) to a TimeTrace.

    Parameters
    ----------
    model : callable(times, *params) -> values
    data : TimeTrace
    init : dict of name -> starting value; the key order defines the
        parameter vector.
    weights : "uniform", "poisson" or "provided" (from the trace's
        uncertainty; see the module docstring), or an explicit array.
    """
    names = tuple(init)
    times = data.times

    def predict(theta):
        return np.asarray(model(times, *theta), dtype=float)

    return _least_squares(predict, data.values, weights,
                          [float(init[name]) for name in names], names,
                          max_iter=max_iter, uncertainty=data.uncertainty)


def fit_exponential_window(trace, window, weights="uniform", max_iter=200):
    """Fit A exp(-rate t) to the samples inside `window`.

    Initialized by log-linear regression on the positive samples in the
    window. Times are absolute (not window-relative), so `rate` is
    directly comparable across windows.
    """
    sub = trace.window(window.start, window.length)
    if len(sub) < 3:
        raise ValidationError("window must contain at least 3 samples")
    t = sub.times
    y = np.asarray(sub.values, dtype=float)
    positive = y > 0
    if np.count_nonzero(positive) < 2:
        raise ValidationError("need >= 2 positive samples to initialize the rate")
    slope, intercept = np.polyfit(t[positive], np.log(y[positive]), 1)
    init = {"amplitude": math.exp(intercept), "rate": -slope}
    model = lambda tt, amplitude, rate: amplitude * np.exp(-rate * tt)
    return nlls(model, sub, init, weights=weights, max_iter=max_iter)


def _fft_frequency_estimate(times, values):
    """Dominant oscillation angular frequency and phase from an FFT."""
    diffs = np.diff(times)
    dt = float(np.mean(diffs))
    if np.max(np.abs(diffs - dt)) > 1e-6 * dt:
        raise ValidationError("frequency initialization needs uniform sampling")
    detrended = values - np.mean(values)
    spectrum = np.fft.rfft(detrended)
    freqs = np.fft.rfftfreq(len(values), d=dt)
    if len(spectrum) < 3:
        raise ValidationError("trace too short for frequency estimation")
    k = 1 + int(np.argmax(np.abs(spectrum[1:])))
    # parabolic refinement on the log magnitude
    if 1 <= k < len(spectrum) - 1:
        mags = np.abs(spectrum[k - 1:k + 2])
        if np.all(mags > 0):
            la, lb, lc = np.log(mags)
            denom = la - 2 * lb + lc
            if denom < 0:
                shift = 0.5 * (la - lc) / denom
                shift = float(np.clip(shift, -0.5, 0.5))
                freq = freqs[k] + shift * (freqs[1] - freqs[0])
                return 2.0 * math.pi * freq, float(-np.angle(spectrum[k]))
    return 2.0 * math.pi * freqs[k], float(-np.angle(spectrum[k]))


def _envelope_decay_guess(times, values):
    """Crude oscillation-envelope decay time from early vs mid amplitude."""
    span = times[-1] - times[0]
    n = len(values)
    plateau = float(np.median(values[-max(3, n // 4):]))
    osc = np.abs(values - plateau)
    n_early = max(3, n // 5)
    early = float(np.mean(osc[:n_early]))
    mid_lo, mid_hi = int(0.4 * n), max(int(0.6 * n), int(0.4 * n) + 3)
    mid = float(np.mean(osc[mid_lo:mid_hi]))
    if early > 0 and mid > 0 and early > 1.05 * mid:
        t_early = float(np.mean(times[:n_early]))
        t_mid = float(np.mean(times[mid_lo:mid_hi]))
        return max((t_mid - t_early) / math.log(early / mid), span / 50.0), plateau
    return span / 3.0, plateau


def fit_rabi_trace(trace, init=None, gamma_rad=None, weights="uniform",
                   max_iter=200):
    """Fit the driven-fluorescence form to an oscillating trace.

    f(t) = amplitude [cos(omega t - phi) exp(-(t - t0)/tau_rabi) + 1]
           exp(-gamma_isc_x t / 2)

    The oscillation frequency is initialized from the trace's FFT peak;
    a user-supplied omega must agree with that estimate within 50% (this
    guards against fitting at an alias of the true period). When
    gamma_rad is given, the additional decoherence rate implied by the
    fitted tau_rabi is reported in `derived` (rad/ns).
    """
    times = trace.times
    values = np.asarray(trace.values, dtype=float)
    if len(values) < 8:
        raise ValidationError("rabi fit needs at least 8 samples")
    omega_fft, phi_fft = _fft_frequency_estimate(times, values)
    if omega_fft <= 0:
        raise ValidationError("no oscillation found by the FFT initializer")
    tau_guess, plateau = _envelope_decay_guess(times, values)

    defaults = {
        "amplitude": plateau if plateau > 0 else float(np.mean(values)),
        "omega": omega_fft,
        "phi": phi_fft,
        "t0": 0.0,
        "tau_rabi": tau_guess,
        "gamma_isc_x": 0.0,
    }
    if init:
        unknown = set(init) - set(defaults)
        if unknown:
            raise ValidationError(f"unknown init parameters {sorted(unknown)}")
        if "omega" in init:
            omega_init = float(init["omega"])
            if abs(omega_init - omega_fft) > 0.5 * omega_fft:
                raise ValidationError(
                    f"init omega {omega_init:.4g} rad/ns differs from the "
                    f"FFT estimate {omega_fft:.4g} rad/ns by more than 50%; "
                    "refusing a likely period alias"
                )
        defaults.update({k: float(v) for k, v in init.items()})

    result = nlls(rabi_fit_model, trace, defaults, weights=weights,
                  max_iter=max_iter)
    tau_fit = result["tau_rabi"]
    if gamma_rad is not None and tau_fit > 0:
        return result.with_derived(gamma_add=additional_decoherence(tau_fit, gamma_rad))
    return result


def _rate_points(points):
    """Temperatures, rates, 1/sigma^2 weights and the remaining fields of
    (temperature_K, rate, sigma, *rest) points; rates and sigmas in rad/ns
    (AngularRate accepted) must be finite, and sigmas > 0."""
    temps, rates, sigmas, rest = [], [], [], []
    for temperature, rate, sigma, *more in points:
        temps.append(temperature_value(temperature))
        rates.append(rate_value(rate))
        sigmas.append(rate_value(sigma))
        rest.append(tuple(more))
    sigmas = np.array(sigmas)
    if np.any(sigmas <= 0):
        raise ValidationError("point sigmas must be > 0")
    return np.array(temps), np.array(rates), 1.0 / sigmas**2, rest


def fit_t5(points, init=None, max_iter=200):
    """Fit the empirical mixing law a (T - t0)^5 + c to rate samples.

    points: iterable of (temperature_K, rate, sigma) with rate and sigma
    in rad/ns (AngularRate accepted); sigma must be > 0. Needs at least
    4 points spanning at least 10 K.
    """
    temps, rates, weights, _ = _rate_points(points)
    if len(temps) < 4:
        raise ValidationError("t5 fit needs at least 4 points")
    if temps.max() - temps.min() < 10.0:
        raise ValidationError("t5 fit needs points spanning at least 10 K")
    order = np.argsort(temps)
    temps, rates, weights = temps[order], rates[order], weights[order]

    defaults = {
        "a": (rates[-1] - rates[0]) / max((temps[-1] - temps[0] + 0.5) ** 5, 1e-300),
        "t0": temps[0] - 0.5,
        "c": rates[0],
    }
    if init:
        defaults.update({k: float(v) for k, v in init.items()})

    def predict(theta):
        a, t0, c = theta
        return a * (temps - t0) ** 5 + c

    return _least_squares(predict, rates, weights,
                          [defaults["a"], defaults["t0"], defaults["c"]],
                          ("a", "t0", "c"), max_iter=max_iter)


def t5_confidence_band(result, temperatures):
    """Linearized 95% confidence band of a fit_t5 result on a grid."""
    temps = np.asarray(temperatures, dtype=float)
    a, t0, c = (result["a"], result["t0"], result["c"])
    mean = a * (temps - t0) ** 5 + c
    grad = np.stack([
        (temps - t0) ** 5,
        -5.0 * a * (temps - t0) ** 4,
        np.ones_like(temps),
    ], axis=1)
    var = np.einsum("ij,jk,ik->i", grad, result.covariance, grad)
    half = 1.96 * np.sqrt(np.clip(var, 0.0, None))
    return mean, mean - half, mean + half


def _early_brightness(trace):
    n = max(3, len(trace) // 4)
    return float(np.mean(np.asarray(trace.values[:n], dtype=float)))


def fit_depolarization(traces, gamma_mix_cold, gamma_mix_warm, gamma_rad,
                       weights="uniform", init=None, max_iter=200):
    """Joint fit of (amplitude, t0, epsilon) to four polarized traces.

    Expects two polarization channels at each of two temperatures, all on
    a common intensity normalization (the shared amplitude is meaningless
    otherwise). The mixing rate at the lower temperature is
    gamma_mix_cold, at the higher gamma_mix_warm; gamma_rad is shared.
    Which channel is bright is decided from the data (early-time
    brightness), so relabeling the channels swaps the reported assignment
    but not the fitted values; epsilon is the leakage fraction under the
    convention epsilon <= 1/2.
    """
    traces = list(traces)
    if len(traces) != 4:
        raise ValidationError("depolarization fit takes exactly 4 traces")
    for trace in traces:
        if trace.temperature is None or trace.channel is None:
            raise ValidationError("each trace needs temperature and channel metadata")
    temps = sorted({trace.temperature for trace in traces})
    if len(temps) != 2:
        raise ValidationError("expected exactly 2 distinct temperatures")
    by_temp = {T: [tr for tr in traces if tr.temperature == T] for T in temps}
    bright_channels = set()
    for T, pair in by_temp.items():
        if len(pair) != 2 or pair[0].channel == pair[1].channel:
            raise ValidationError(
                f"need exactly 2 distinct channels at {T} K"
            )
        bright = max(pair, key=_early_brightness)
        bright_channels.add(bright.channel)
    if len(bright_channels) != 1:
        raise ValidationError(
            "inconsistent channel/temperature labeling: the bright channel "
            "differs between temperatures"
        )
    bright_channel = bright_channels.pop()

    gm = {temps[0]: rate_value(gamma_mix_cold), temps[1]: rate_value(gamma_mix_warm)}
    gr = rate_value(gamma_rad)

    values = np.concatenate([np.asarray(tr.values, dtype=float) for tr in traces])
    uncert = None
    if all(tr.uncertainty is not None for tr in traces):
        uncert = np.concatenate([tr.uncertainty for tr in traces])

    def predict(theta):
        amplitude, t0, epsilon = theta
        parts = []
        for tr in traces:
            tau = tr.times - t0
            rho_b, rho_d = depolarization_populations(gr, gm[tr.temperature], tau)
            if tr.channel == bright_channel:
                model = (1.0 - epsilon) * rho_b + epsilon * rho_d
            else:
                model = (1.0 - epsilon) * rho_d + epsilon * rho_b
            # no signal before the pulse, matching the synthetic model
            parts.append(amplitude * np.where(tau < 0.0, 0.0, model))
        return np.concatenate(parts)

    # start t0 at the brightest bin: at or just after the pulse, which
    # keeps the search away from the mirrored local minimum at -t0
    brightest = max(traces, key=_early_brightness)
    t0_guess = float(brightest.times[int(np.argmax(brightest.values))])
    defaults = {"amplitude": 2.0 * float(np.max(values)), "t0": t0_guess,
                "epsilon": 0.05}
    if init:
        defaults.update({k: float(v) for k, v in init.items()})
    result = _least_squares(predict, values, weights,
                            [defaults["amplitude"], defaults["t0"],
                             defaults["epsilon"]],
                            ("amplitude", "t0", "epsilon"),
                            max_iter=max_iter, uncertainty=uncert)
    return result.with_derived(bright_channel=bright_channel)


def effective_isc_rates(gamma_rad, gamma_a1, gamma_mix,
                        window_start=4.0, window_length=115.0, dt=0.25):
    """Windowed single-exponential rates of the two-branch fluorescence.

    Simulates the noiseless two-branch decay for each initial branch,
    fits A exp(-Gamma t) over the same window used on measured traces,
    and subtracts the radiative rate. This is the forward model mapping
    (Gamma_a1, Gamma_mix(T)) to the crossing rates a windowed lifetime
    fit reports; the second branch's own crossing is taken as zero.

    Returns (rate_a1_branch, rate_a2_branch) as fitted AngularRates.
    """
    gr = rate_value(gamma_rad)
    ga1 = rate_value(gamma_a1)
    gm = rate_value(gamma_mix)
    if window_length <= 0 or dt <= 0:
        raise ValidationError("window_length and dt must be > 0")
    n = int(round(window_length / dt))
    times = window_start + dt * np.arange(n + 1)
    window = FitWindow(start=window_start, length=window_length)
    out = []
    for branch in ("A1", "A2"):
        intensity = fluorescence_a12(gr, gm, ga1, branch, times)
        trace = TimeTrace(times, intensity)
        fit = fit_exponential_window(trace, window)
        out.append(AngularRate(fit["rate"] - gr, fitted=True))
    return tuple(out)


def fit_gamma_a1(points, mix_model, gamma_rad, window_start=4.0,
                 window_length=115.0, dt=0.25, init=None, max_iter=100):
    """Chi-square fit of the direct crossing rate to windowed branch rates.

    points: iterable of (temperature_K, gamma_eff, sigma, branch) where
    gamma_eff is the windowed single-exponential rate minus the radiative
    rate for that branch ("A1" or "A2") and sigma its uncertainty
    (rad/ns). mix_model maps temperature to the mixing rate (e.g. the
    clamped empirical T^5 law). The forward model, effective_isc_rates,
    re-runs the same windowed analysis on noiseless two-branch decays.
    """
    temps, rates, weights, rest = _rate_points(points)
    branches = [branch for (branch,) in rest]
    for branch in branches:
        if branch not in ("A1", "A2"):
            raise ValidationError(f"branch must be 'A1' or 'A2', got {branch!r}")
    if len(branches) < 2:
        raise ValidationError("gamma_a1 fit needs at least 2 points")
    gr = rate_value(gamma_rad)
    lookup = [(T, 0 if branch == "A1" else 1)
              for T, branch in zip(temps.tolist(), branches)]
    unique_temps = sorted({T for T, _ in lookup})
    # accept either a callable T -> rate or a fit-form bundle
    mix_fn = getattr(mix_model, "clamped", mix_model)
    mix_by_temp = {T: rate_value(mix_fn(T)) for T in unique_temps}

    def predict(theta):
        ga1 = float(theta[0])
        eff = {
            T: effective_isc_rates(gr, ga1, mix_by_temp[T],
                                   window_start=window_start,
                                   window_length=window_length, dt=dt)
            for T in unique_temps
        }
        return np.array([eff[T][index].value for T, index in lookup])

    a1_rates = [g for g, branch in zip(rates, branches) if branch == "A1"]
    default_init = max(a1_rates) if a1_rates else max(rates.max(), 1e-3)
    ga1_0 = float(init) if init is not None else max(float(default_init), 1e-3)
    return _least_squares(predict, rates, weights, [ga1_0], ("gamma_a1",),
                          max_iter=max_iter)


def ensemble_spread(values):
    """(mean, two_sigma) of an ensemble of repeated fit outputs."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise ValidationError("ensemble spread needs at least 2 values")
    return float(np.mean(arr)), float(2.0 * np.std(arr, ddof=1))
