"""Nonlinear least-squares estimation of physical rates from count traces,
and the windowed forward model that the crossing-rate fit inverts.

Weighting schemes, shared by every fit: "uniform" (covariance scaled by
reduced chi^2, as unit weights carry no absolute scale), "provided"
(1/sigma^2 from the data's uncertainties), an explicit weight array, or
"poisson": 1/max(y, 1), then two refits weighted by 1/max(model, 1),
which removes at first order the bias toward downward fluctuations that
weights from observed counts cause. Rank-deficient directions get
effectively unbounded variances rather than being hidden.

Windowed single-exponential fits, of measured traces
(`fit_exponential_window`) and of the noiseless forward model
(`effective_isc_rates`) alike, run through one variable-projection
solve, `_windowed_rates`: the amplitude is eliminated and Newton steps
act on the rate alone, for any number of curves at once. The forward
model builds all its curves in one array evaluation of the two-branch
closed form, and its solve can start from the rates of an earlier call
(`start=`), which `fit_gamma_a1` passes from one trial Gamma_a1 to the
next. Every other fit runs through `_least_squares`: a damped
Gauss-Newton iteration (Levenberg-style lambda adaptation) that accepts
only steps lowering chi^2, and stops as converged at a step that raises
chi^2 by rounding only. Its Jacobian is exact for `fit_gamma_a1` (the
implicit derivative of the windowed rates), `fit_rabi_trace` (the closed form
`rabi_fit_model_jacobian`) and `fit_t5`; `nlls`, for user models, and
`fit_depolarization`, whose model has a kink at the pulse, take forward
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .closedform import (
    _a12_curves,
    _a12_modes,
    additional_decoherence,
    depolarization_populations,
    rabi_fit_model,
    rabi_fit_model_jacobian,
)
from .core import AngularRate, ValidationError, rate_value, temperature_value

_JACOBIAN_REL_STEP = 1e-6
_HUGE_VARIANCE = 1e300
# projected Newton solve of the windowed forward model (_windowed_rates)
_NEWTON_RTOL = 1e-9
# a step lowering S1^2/S2 by less than this share is taken as rounding:
# the objective carries ~1e-15 relative noise, while the steps it could
# not resolve above that are still up to 1e-8 of the rate
_PROFILE_RTOL = 1e-12
_NEWTON_MAX_ITER = 30
# a Gauss-Newton step raising chi^2 by less than this share ends the fit:
# a model evaluated by iterative solves (fit_gamma_a1's forward model)
# puts ~1e-13 relative rounding noise on chi^2
_CHI2_RTOL = 1e-12
_FORWARD_BLOCK_SAMPLES = 1 << 20   # curve samples per solve (8 MB a copy)
# the `crosses` flags of `_a12_modes` for the branches "A1" and "A2"
_BRANCHES_A1_A2 = np.array([True, False])


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
    norms = np.sqrt((wjac * wjac).sum(axis=0))
    norms = np.where(norms > 0.0, norms, 1.0)
    scaled = wjac / norms
    normal = scaled.T @ scaled
    vals, vecs = np.linalg.eigh(normal)
    top = float(vals.max()) if len(vals) else 0.0
    full_rank = vals > max(top, 0.0) * 1e-12
    inv_vals = np.where(full_rank, 1.0 / np.where(full_rank, vals, 1.0),
                        _HUGE_VARIANCE)
    cov = (vecs * inv_vals) @ vecs.T / (norms[:, None] * norms)
    if scale and dof > 0:
        cov = cov * (chi2 / dof)
    return cov


def _fit_result(names, values, jac, weights, chi2, scheme, converged,
                iterations):
    """FitResult at values, with the covariance of the model Jacobian jac
    (points x parameters) under a weighting scheme's final weights."""
    dof = len(weights) - len(values)
    cov = _covariance(jac, weights, chi2, dof, scale=scheme == "uniform")
    return FitResult(
        names=tuple(names),
        values=values,
        sigma=np.sqrt(np.maximum(cov.diagonal(), 0.0)),
        covariance=cov,
        chi2=chi2,
        dof=dof,
        converged=converged,
        iterations=iterations,
    )


def _passes(scheme):
    """Fits a weighting scheme runs: "poisson" refits twice, reweighted by
    1/max(model, 1)."""
    return 3 if scheme == "poisson" else 1


def _minimize(predict, jacobian, y, weights, theta, f, max_iter):
    """Damped Gauss-Newton descent of sum(w * (y - predict(theta))^2) from
    theta, with f = predict(theta) and jacobian(theta, f) its derivative;
    returns the same pair at the end, chi2, whether it converged, the
    iteration count and the Jacobian at the end (None if not taken
    there)."""
    def chi2_of(residual):
        return float(np.sum(weights * residual * residual))

    r = y - f
    chi2 = chi2_of(r)
    y_scale = max(float(np.sum(weights * y * y)), 1e-300)
    lam = 1e-3
    converged = False
    iterations = 0
    jac = None

    for iterations in range(1, max_iter + 1):
        jac = jacobian(theta, f)
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
            rel_step = float(np.max(np.abs(step) / (np.abs(theta_try) + 1e-300)))
            if rel_step < 1e-10:
                # converged: evaluating a step this small could only accept
                # it, or reject it on rounding noise in chi^2 and retry
                converged = True
                break
            f_try = predict(theta_try)
            if np.all(np.isfinite(f_try)):
                r_try = y - f_try
                chi2_try = chi2_of(r_try)
                if math.isfinite(chi2_try) and chi2_try <= chi2:
                    accepted = True
                    break
                if math.isfinite(chi2_try) and chi2_try <= chi2 * (1.0 + _CHI2_RTOL):
                    # chi^2 rose by rounding only: theta is the optimum,
                    # and smaller steps would be rejected the same way
                    converged = True
                    break
            lam *= 10.0
        if converged or not accepted:
            break

        drop = chi2 - chi2_try
        theta, f, r, chi2, jac = theta_try, f_try, r_try, chi2_try, None
        lam = max(lam * 0.3, 1e-12)
        if drop <= 1e-13 * max(chi2, 1e-300) or chi2 <= 1e-28 * y_scale:
            converged = True
            break
    return theta, f, chi2, converged, iterations, jac


def _least_squares(predict, y, weights, init, names, max_iter=200,
                   uncertainty=None, jacobian=None):
    """Fit predict(theta) to y under a weighting scheme (module docstring).

    jacobian(theta, f), given f = predict(theta), returns the model's
    derivative (points x parameters); forward differences by default.
    """
    y = np.asarray(y, dtype=float)
    w = _resolve_weights(weights, y, uncertainty)
    theta = np.array(init, dtype=float)
    n_points, n_params = len(y), len(theta)
    if n_points <= n_params:
        raise ValidationError(
            f"{n_points} points cannot constrain {n_params} parameters"
        )
    if jacobian is None:
        jacobian = lambda theta, f: _jacobian(predict, theta, f)
    scheme = weights if isinstance(weights, str) else "array"
    f = predict(theta)
    for refit in range(_passes(scheme)):
        if refit:  # reweight counts by the previous fit's expectation
            w = 1.0 / np.maximum(f, 1.0)
        theta, f, chi2, converged, iterations, jac = _minimize(
            predict, jacobian, y, w, theta, f, max_iter)
    if jac is None:
        jac = jacobian(theta, f)
    return _fit_result(names, theta, jac, w, chi2, scheme, converged,
                       iterations)


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

    The least-squares fit under a weighting scheme (module docstring),
    solved by `_windowed_rates` from log-linear regression on the
    window's positive samples ("poisson" refits start from the previous
    rate); the amplitude is the projection
    sum(w y e)/sum(w e^2), e = exp(-rate t). max_iter caps the Newton
    steps of each solve ("poisson" runs three); `iterations` reports the
    Newton steps of the last solve, and a solve stopped by the cap gives
    converged=False. Times are absolute (not window-relative), so `rate`
    is directly comparable across windows.
    """
    sub = trace.window(window.start, window.length)
    t = sub.times
    y = np.asarray(sub.values, dtype=float)
    w = _resolve_weights(weights, y, sub.uncertainty)
    scheme = weights if isinstance(weights, str) else "array"
    rates = None
    for refit in range(_passes(scheme)):
        if refit:  # reweight counts by the previous fit's expectation
            w = 1.0 / np.maximum(model, 1.0)
        rates, iterations, converged = _windowed_rates(
            y[None, :], t, w, max_iter, start=rates)
        rate = float(rates[0])
        decay = np.exp(-rate * (t - t[0]))
        w_decay = w * decay
        model = decay * ((w_decay @ y) / (w_decay @ decay))
    with np.errstate(over="ignore"):
        amplitude = float(model[0] * np.exp(rate * t[0]))
    residual = y - model
    jac = np.array([decay * math.exp(-rate * t[0]), -t * model]).T
    return _fit_result(("amplitude", "rate"), np.array([amplitude, rate]), jac,
                       w, float(w * residual @ residual), scheme, converged,
                       iterations)


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

    The fit runs `_least_squares` with the exact derivative of the form,
    `rabi_fit_model_jacobian`, so each Gauss-Newton step evaluates the
    model once and a parameter whose optimum is near 0 (gamma_isc_x on a
    trace without crossing loss) keeps a finite sigma.
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

    names = tuple(defaults)
    result = _least_squares(
        lambda theta: rabi_fit_model(times, *theta), values, weights,
        [defaults[name] for name in names], names, max_iter=max_iter,
        uncertainty=trace.uncertainty,
        jacobian=lambda theta, f: rabi_fit_model_jacobian(times, *theta))
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


def _t5_gradient(temps, a, t0):
    """Derivative of a (T - t0)^5 + c with respect to (a, t0, c), one
    row per temperature."""
    shifted = temps - t0
    return np.stack([shifted**5, -5.0 * a * shifted**4, np.ones_like(temps)],
                    axis=1)


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

    return _least_squares(
        predict, rates, weights, [defaults["a"], defaults["t0"], defaults["c"]],
        ("a", "t0", "c"), max_iter=max_iter,
        jacobian=lambda theta, f: _t5_gradient(temps, theta[0], theta[1]))


def t5_confidence_band(result, temperatures):
    """Linearized 95% confidence band of a fit_t5 result on a grid."""
    temps = np.asarray(temperatures, dtype=float)
    a, t0, c = (result["a"], result["t0"], result["c"])
    mean = a * (temps - t0) ** 5 + c
    grad = _t5_gradient(temps, a, t0)
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

    The Jacobian is taken by forward differences: the model is 0 before
    the pulse, so its derivative in t0 jumps where t - t0 = 0.
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


def _moments(weights, powers):
    """Total, mean and variance of tau under each row of weights; the
    columns of powers are 1, tau and tau^2."""
    total, first, second = (weights @ powers).T
    mean = first / total
    return total, mean, second / total - mean * mean


def _decays(k, tau):
    """exp(-k tau) for each rate k (rows), scaled to a maximum of 1."""
    return np.exp(np.minimum(k, 0.0)[:, None] * tau[-1] - k[:, None] * tau)


def _profile(wy, w, k, tau, powers):
    """The projected objective S1^2/S2 of `_windowed_rates` at the rates
    k, with h' = mean_ee - mean_ye and h'' = var_ye - 2 var_ee."""
    e = _decays(k, tau)
    s_ye, mean_ye, var_ye = _moments(wy * e, powers)
    s_ee, mean_ee, var_ee = _moments(w * e * e, powers)
    return s_ye * s_ye / s_ee, mean_ee - mean_ye, var_ye - 2.0 * var_ee


def _windowed_rates(y, t, weights=None, max_iter=_NEWTON_MAX_ITER,
                    start=None):
    """Rate k of the least-squares fit of A exp(-k t) to each row of y
    (curves x samples) on the common sample times t, with per-sample
    weights broadcasting against y (uniform when None).

    The amplitude is projected out (Golub & Pereyra 1973): at fixed k it
    is S1/S2 with S1 = sum(w y e), S2 = sum(w e^2), e = exp(-k t),
    leaving the residual sum(w y^2) - S1^2/S2, so k maximizes
    h(k) = ln |S1| - ln(S2)/2. Newton steps on k alone start from the
    rates `start`, or else from the log-linear regression of the
    positive samples weighted by w y^2; h' and h'' are differences of
    means and variances of t under the weights w y e and w e^2. A step
    that would lower S1^2/S2 beyond rounding is halved, and where h is
    not concave the step goes uphill by the rate's own size. h is
    unchanged by shifting t or rescaling e, so t is measured from the
    window start and e is scaled to a maximum of 1.

    Returns (k, steps, converged): the Newton steps taken, at most
    max_iter, and whether the last one was within tolerance for every
    curve. A non-finite start or step (all-zero weights, say) raises
    ValidationError.
    """
    if len(t) < 3:
        raise ValidationError("window must contain at least 3 samples")
    positive = y > 0
    if (positive.sum(axis=1) < 2).any():
        raise ValidationError("need >= 2 positive samples to initialize the rate")
    tau = t - t[0]
    w = 1.0 if weights is None else weights
    wy = w * y
    powers = np.stack([np.ones_like(tau), tau, tau * tau], axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if start is None:
            # log-linear regression weighted by w y^2: to first order in
            # the relative residuals the same objective as the least squares
            scaled = np.where(positive, y / np.max(y, axis=1, keepdims=True), 0.0)
            start_weights = w * scaled * scaled
            logs = np.log(np.where(positive, y, 1.0))
            dtau = tau - (start_weights @ tau / start_weights.sum(axis=1))[:, None]
            k = (-(start_weights * dtau * logs).sum(axis=1)
                 / (start_weights * dtau * dtau).sum(axis=1))
        else:
            k = np.asarray(start, dtype=float)
        if not np.isfinite(k).all():
            raise ValidationError("windowed fit has a non-finite starting rate")
        tolerance = _NEWTON_RTOL * (np.abs(k) + 1.0 / tau[-1])
        objective, slope, curvature = _profile(wy, w, k, tau, powers)
        for steps in range(1, max_iter + 1):
            # Newton ascent k -= h'/h'' where h is concave, else a step
            # the size of the rate uphill; a zero h' is a stationary point
            # even where e^2 underflows beyond the first sample and h'' = 0
            uphill = np.sign(slope) * (np.abs(k) + 1.0 / tau[-1])
            step = np.where(slope == 0.0, 0.0,
                            np.where(curvature < 0.0, -slope / curvature, uphill))
            if not np.isfinite(step).all():
                raise ValidationError("windowed fit took a non-finite Newton step")
            if (np.abs(step) <= tolerance).all():
                return k + step, steps, True
            # halve the steps that would lower the objective
            while True:
                trial = _profile(wy, w, k + step, tau, powers)
                lower = (~(trial[0] >= objective * (1.0 - _PROFILE_RTOL))
                         & (np.abs(step) > tolerance))
                if not lower.any():
                    break
                step = np.where(lower, 0.5 * step, step)
            k = k + step
            objective, slope, curvature = trial
    return k, max_iter, False


def _windowed_rate_slopes(y, dy, t, k):
    """Derivatives dk/dp of the uniform-weight rates k that
    `_windowed_rates` fitted to the curves y, given dy = dy/dp.

    At the optimum h'(k; y) = mean_ee - mean_ye = 0, so by the implicit
    function theorem dk/dp = (d mean_ye/dp) / h''(k), with
    d mean_ye/dp = sum(dy e (t - mean_ye)) / sum(y e): one pass over the
    moments, no Newton steps.
    """
    tau = t - t[0]
    powers = np.stack([np.ones_like(tau), tau, tau * tau], axis=1)
    e = _decays(k, tau)
    _, mean_ye, var_ye = _moments(y * e, powers)
    _, _, var_ee = _moments(e * e, powers)
    dye = dy * e
    d_mean_ye = (dye @ tau - mean_ye * dye.sum(axis=1)) / (y * e).sum(axis=1)
    return d_mean_ye / (var_ye - 2.0 * var_ee)


def _forward_times(window_start, window_length, dt):
    """Sample times of the forward model: every dt across the window."""
    window = FitWindow(start=window_start, length=window_length)
    if not (math.isfinite(dt) and dt > 0):
        raise ValidationError("dt must be finite and > 0")
    n_samples = window.length / dt + 1.0
    # a solve block holds at least the two curves of one mixing rate
    if not n_samples <= _FORWARD_BLOCK_SAMPLES // 2:
        raise ValidationError(
            f"forward-model window would hold {n_samples:.3g} samples "
            f"(limit {_FORWARD_BLOCK_SAMPLES // 2})")
    times = window.start + dt * np.arange(int(round(window.length / dt)) + 1)
    return times[times <= window.stop]


def effective_isc_rates(gamma_rad, gamma_a1, gamma_mix,
                        window_start=4.0, window_length=115.0, dt=0.25,
                        start=None):
    """Windowed single-exponential rates of the two-branch fluorescence.

    Samples the noiseless two-branch decay for each initial branch every
    dt over the same window used on measured traces, fits A exp(-Gamma t)
    to every curve in one projected Newton solve (`_windowed_rates`), and
    subtracts the radiative rate. This is the forward model mapping
    (Gamma_a1, Gamma_mix(T)) to the crossing rates a windowed lifetime
    fit reports; the second branch's own crossing is taken as zero.

    For a single mixing rate, returns (rate_a1_branch, rate_a2_branch)
    as fitted AngularRates. For a 1-d sequence of mixing rates, returns
    two float arrays (rad/ns) with one entry per mixing rate.

    start, the (a1, a2) pair an earlier call returned for the same mixing
    rates, starts the Newton solve from those rates instead of the
    log-linear regression of each curve; near the earlier Gamma_a1 that
    saves steps, and the solve converges to the same rates either way.
    """
    gr = rate_value(gamma_rad)
    ga1 = rate_value(gamma_a1)
    scalar = isinstance(gamma_mix, AngularRate) or np.ndim(gamma_mix) == 0
    if not scalar and np.ndim(gamma_mix) != 1:
        raise ValidationError("gamma_mix must be a rate or a 1-d sequence of rates")
    mixes = np.array([rate_value(gamma_mix)] if scalar
                     else [rate_value(g) for g in gamma_mix])
    if not mixes.size:
        raise ValidationError("gamma_mix sequence is empty")
    times = _forward_times(window_start, window_length, dt)
    if start is not None:
        shape = (2,) if scalar else (2, len(mixes))
        try:
            start = np.asarray(start, dtype=float)
            valid = start.shape == shape
        except (TypeError, ValueError):
            valid = False
        if not valid:
            raise ValidationError(
                f"start must be the (a1, a2) rates of shape {shape} that an "
                "earlier call returned for the same mixing rates")
        # branches interleaved like the curves, A1 then A2 per mixing rate
        start = start.reshape(2, -1).T.ravel() + gr

    def solve(i, j):
        # curves ordered (mixing rate, branch): A1 then A2 for each rate
        modes = _a12_modes(gr, mixes[i:j, None], ga1, _BRANCHES_A1_A2)
        curves = _a12_curves(modes, times).reshape(-1, len(times))
        rates, _, converged = _windowed_rates(
            curves, times, start=None if start is None else start[2 * i:2 * j])
        if not converged:
            raise ValidationError(
                f"windowed rate did not converge in {_NEWTON_MAX_ITER} Newton steps")
        return rates

    # long mixing sequences are solved in blocks of bounded memory
    per_block = _FORWARD_BLOCK_SAMPLES // (2 * len(times))
    rates = np.concatenate([solve(i, i + per_block)
                            for i in range(0, len(mixes), per_block)]) - gr
    a1, a2 = rates[0::2], rates[1::2]
    if scalar:
        return AngularRate(a1[0], fitted=True), AngularRate(a2[0], fitted=True)
    return a1, a2


def fit_gamma_a1(points, mix_model, gamma_rad, window_start=4.0,
                 window_length=115.0, dt=0.25, init=None, max_iter=100):
    """Chi-square fit of the direct crossing rate to windowed branch rates.

    points: iterable of (temperature_K, gamma_eff, sigma, branch) where
    gamma_eff is the windowed single-exponential rate minus the radiative
    rate for that branch ("A1" or "A2") and sigma its uncertainty
    (rad/ns). mix_model maps temperature to the mixing rate (e.g. the
    clamped empirical T^5 law). The forward model, effective_isc_rates,
    re-runs the same windowed analysis on noiseless two-branch decays,
    once per trial Gamma_a1, each solve started from the rates of the
    previous trial; the fit's Jacobian is the implicit derivative of
    those windowed rates, which needs no further call.
    """
    temps, rates, weights, rest = _rate_points(points)
    branches = [branch for (branch,) in rest]
    for branch in branches:
        if branch not in ("A1", "A2"):
            raise ValidationError(f"branch must be 'A1' or 'A2', got {branch!r}")
    if len(branches) < 2:
        raise ValidationError("gamma_a1 fit needs at least 2 points")
    gr = rate_value(gamma_rad)
    unique_temps, temp_index = np.unique(temps, return_inverse=True)
    branch_index = np.array([0 if branch == "A1" else 1 for branch in branches])
    # accept either a callable T -> rate or a fit-form bundle
    mix_fn = getattr(mix_model, "clamped", mix_model)
    mixes = [rate_value(mix_fn(T)) for T in unique_temps.tolist()]
    point_mixes = np.array(mixes)[temp_index]
    times = _forward_times(window_start, window_length, dt)
    previous = None

    def predict(theta):
        # one forward-model call covers every temperature and branch
        nonlocal previous
        previous = effective_isc_rates(gr, float(theta[0]), mixes,
                                       window_start=window_start,
                                       window_length=window_length, dt=dt,
                                       start=previous)
        return np.stack(previous)[branch_index, temp_index]

    def jacobian(theta, f):
        # implicit derivative of the windowed rates f + gr that
        # predict(theta) returned: no forward-model call
        curves, slopes = _a12_curves(
            _a12_modes(gr, point_mixes, float(theta[0]), branch_index == 0),
            times, slopes=True)
        return _windowed_rate_slopes(curves, slopes, times, f + gr)[:, None]

    a1_rates = [g for g, branch in zip(rates, branches) if branch == "A1"]
    default_init = max(a1_rates) if a1_rates else max(rates.max(), 1e-3)
    ga1_0 = float(init) if init is not None else max(float(default_init), 1e-3)
    return _least_squares(predict, rates, weights, [ga1_0], ("gamma_a1",),
                          max_iter=max_iter, jacobian=jacobian)


def ensemble_spread(values):
    """(mean, two_sigma) of an ensemble of repeated fit outputs."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise ValidationError("ensemble spread needs at least 2 values")
    return float(np.mean(arr)), float(2.0 * np.std(arr, ddof=1))
