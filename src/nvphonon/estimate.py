"""Nonlinear least-squares estimation of physical rates from count traces,
and the windowed forward model that the crossing-rate fit inverts.

Weighting schemes, shared by every fit: "uniform" (covariance scaled by
reduced chi^2, as unit weights carry no absolute scale), "provided"
(1/sigma^2 from the data's uncertainties), an explicit weight array, or
"poisson", for counts. A window fit (`fit_exponential_window`) takes
"poisson" as the Poisson maximum likelihood, solved once with the
amplitude profiled out; its chi2 is Pearson's, sum((y - model)^2/model),
and its sigmas come from the Fisher information, unscaled. `nlls`,
`fit_rabi_trace` and `fit_depolarization` still fit 1/max(y, 1), then
refit twice weighted by 1/max(model, 1), which removes at first order the
bias toward downward fluctuations that weights from observed counts
cause, but is not the likelihood. Rank-deficient directions get
effectively unbounded variances rather than being hidden.

Windowed single-exponential fits, of measured traces
(`fit_exponential_window`) and of the noiseless forward model
(`effective_isc_rates`) alike, are variable-projection solves: the
amplitude is eliminated and Newton steps act on the rate alone, for any
number of curves at once, under one step control (`_newton`) on Python
floats (a one-row fit would otherwise pay ~30 numpy calls on length-1
arrays a step), one pass over the rows a step. The data side
(`_windowed_rates`) evaluates its profile from the samples: one exp and
two moment products over all curves. The
data side's results (projected amplitude, Jacobian, covariance) come
from `_fit_windows`, for one trace or for the many that
`fit_gamma_a1_traces`, the lifetime analysis from traces to Gamma_a1,
fits in one solve. Their covariances (`_window_covariances`) are the
closed-form inverses of the column-scaled 2x2 normal matrices, from three
weighted sums over all rows, under the rank rule by which `_covariance`
treats the p parameters of the other fits through an eigendecomposition.
Both sides, and `fit_gamma_a1` between them, take the fit window as one
`FitWindow` (`window=`), so data and model are fitted over the same
window. The forward model samples nothing: its curves are two
exponentials on a uniform grid, so every sum of its fit is a truncated
geometric series, and `_forward_rates` evaluates the profile from their
closed-form moments, ~40 array operations on one (3, curves) array
whatever the window's length, within 5e-15 (|rate| + Gamma_rad) of the
sampled solve on windows of 20 samples or more. It
starts cold from the modes of the two-branch closed form, or from given
rates (`start=`), and gives the rates' Gamma_a1 slopes from the moments
of its last profile (`slopes=True`). `fit_gamma_a1` makes one forward
call per trial Gamma_a1:
its slopes are the fit's Jacobian and start the next trial from the
first-order prediction of its rates. Every other fit runs through
`_least_squares`: a damped Gauss-Newton iteration (Levenberg-style
lambda adaptation) that accepts only steps lowering chi^2, and stops as
converged at a step that raises chi^2 by rounding only. Its Jacobian is
exact for `fit_gamma_a1` (the implicit derivative of the windowed
rates), `fit_rabi_trace` (the closed form `rabi_fit_model_jacobian`) and
`fit_t5`, which therefore also stop, before evaluating a step, once the
Newton decrement shows it could lower chi^2 by rounding only; `nlls`,
for user models, and `fit_depolarization`, whose model has a kink at the
pulse, take forward differences.

Cost. What is left of the lifetime chain is per-call overhead, which the
window fit keeps to one build of its window's (1, tau, tau^2) columns and
one np.errstate for its solve and its result, ~15 array operations
for the log-linear start, one exp and two moment products a profile
evaluation (3.1 a criterion-5 fit) and one pass over the rows a Newton
step (`_windowed_rates`' cost model); a one-parameter Gauss-Newton
system (`fit_gamma_a1`'s) takes one division (`_solve`) and no
eigendecomposition (`_covariance`). In a traced `gamma_a1_recovery` item
of the benchmark (16 histograms, 16 window fits, one `fit_gamma_a1` with
3 forward calls; ~4.2 ms on a 2-CPU virtual machine) the window fits
take ~47% of the time, `synth.generate` ~27% (its generators, Poisson
draws and count checks: the 16 expected histograms come from synth's
memo, and the a12 closed form is no longer sampled), the forward calls
~14% and `fit_gamma_a1`'s own Gauss-Newton steps ~6%.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .closedform import (
    _a12_modes,
    additional_decoherence,
    depolarization_populations,
    rabi_fit_model,
    rabi_fit_model_jacobian,
)
from .core import AngularRate, ValidationError, rate_value, temperature_value

_JACOBIAN_REL_STEP = 1e-6
_HUGE_VARIANCE = 1e300
# an eigenvalue of a column-scaled normal matrix at or below this share of
# the largest is a rank-deficient direction, given _HUGE_VARIANCE
_RANK_RTOL = 1e-12
# projected Newton solve of the windowed forward model (_windowed_rates)
_NEWTON_RTOL = 1e-9
# a step lowering S1^2/S2 by less than this share is taken as rounding:
# the objective carries ~1e-15 relative noise, while the steps it could
# not resolve above that are still up to 1e-8 of the rate
_PROFILE_RTOL = 1e-12
_NEWTON_MAX_ITER = 30
_WINDOW_FIT_MAX_ITER = 200         # Newton steps of a data-side window fit
# a window fit solves a row, and takes its chi^2 and normal sums, at a
# power-of-two scale where its largest |y| lies beyond 2^+-this
# (_fit_windows)
_UNSCALED_EXPONENT = 256
# a Gauss-Newton step raising chi^2 by less than this share ends the fit:
# a model evaluated by iterative solves (fit_gamma_a1's forward model)
# puts ~1e-13 relative rounding noise on chi^2
_CHI2_RTOL = 1e-12
_FORWARD_DT = 0.25                 # ns between forward-model samples
_FORWARD_MAX_SAMPLES = 1 << 19     # samples a forward-model window may hold
# _geometric_moments: below this n z, the mean and variance of a truncated
# geometric series come from the Bernoulli series of phi(y) = 1/expm1(y)
# - 1/y + 1/2 and psi(y) = 1/(4 sinh^2(y/2)) - 1/y^2, coefficients of y2^i
_SERIES_MAX = 0.25
_PHI_SERIES = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
               -691 / 1307674368000)
_PSI_SERIES = (-1 / 12, 1 / 240, -1 / 6048, 1 / 172800, -1 / 5322240,
               7601 / 1307674368000)


@dataclass(frozen=True)
class FitWindow:
    """A fit window [start, start + length] in ns; by default the window of
    the lifetime analysis, from 4 ns after the pulse for 115 ns."""

    start: float = 4.0
    length: float = 115.0

    def __post_init__(self):
        if not (np.isfinite(self.start) and np.isfinite(self.length)):
            raise ValidationError("window bounds must be finite")
        if self.length <= 0:
            raise ValidationError("window length must be > 0")

    @property
    def stop(self):
        return self.start + self.length


DEFAULT_WINDOW = FitWindow()


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


def _resolve_weights(weights, values, uncertainty, samples="data points"):
    """Weight array of a weighting scheme (see the module docstring); an
    explicit array of another shape than values is refused naming both
    counts, values' as `samples`."""
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
    if w.shape != np.shape(values):
        given = f"{w.size} weights" if w.ndim == 1 else f"weights of shape {w.shape}"
        raise ValidationError(f"{given} for {len(values)} {samples}; an explicit "
                              "weight array needs one weight per sample")
    if (w < 0).any() or not np.isfinite(w).all():
        raise ValidationError("weight array must be finite and >= 0")
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
    """Covariance of the parameters of a fit with Jacobian jac (points x
    parameters) under weights: the inverse of the normal matrix of the
    columns scaled to unit norm, with _HUGE_VARIANCE along each
    eigenvector whose eigenvalue is at or below _RANK_RTOL of the largest,
    then unscaled, and times chi2/dof where scale is set."""
    # column-scale first so the rank test sees collinearity, not unit
    # mismatches between parameters (their scales differ by many decades)
    wjac = jac * np.sqrt(weights)[:, None]
    norms = np.sqrt((wjac * wjac).sum(axis=0))
    norms = np.where(norms > 0.0, norms, 1.0)
    scaled = wjac / norms
    normal = scaled.T @ scaled
    if len(normal) == 1:
        # eigh's own answer for one parameter (LAPACK dsyevd returns a 1x1
        # matrix's entry and the vector 1 unchanged), without its call
        vals, vecs = normal[0], np.ones((1, 1))
    else:
        vals, vecs = np.linalg.eigh(normal)
    top = float(vals.max()) if len(vals) else 0.0
    floor = max(top, 0.0) * _RANK_RTOL
    inv_vals = np.array([1.0 / val if val > floor else _HUGE_VARIANCE
                         for val in vals.tolist()])
    cov = (vecs * inv_vals) @ vecs.T / (norms[:, None] * norms)
    if scale and dof > 0:
        cov = cov * (chi2 / dof)
    return cov


def _passes(scheme):
    """Fits a weighting scheme runs: "poisson" refits twice, reweighted by
    1/max(model, 1)."""
    return 3 if scheme == "poisson" else 1


def _minimize(predict, jacobian, y, weights, theta, f, max_iter, exact):
    """Damped Gauss-Newton descent of sum(w * (y - predict(theta))^2) from
    theta, with f = predict(theta) and jacobian(theta, f) its derivative;
    returns the same pair at the end, chi2, whether it converged, the
    iteration count and the Jacobian at the end (None if not taken
    there).

    With an exact Jacobian (exact=True) the descent also stops, before
    evaluating the step, where the Newton decrement g^T N^-1 g, the chi^2
    drop the undamped Gauss-Newton step predicts (Boyd & Vandenberghe
    2004, 9.5.1), is at most _CHI2_RTOL chi^2. A forward-difference
    Jacobian is only good to ~1e-8, too coarse for the decrement to see
    a step of that size.
    """
    def chi2_of(residual):
        return float((weights * residual * residual).sum())

    r = y - f
    chi2 = chi2_of(r)
    y_scale = max(float((weights * y * y).sum()), 1e-300)
    lam = 1e-3
    converged = False
    iterations = 0
    jac = None

    for iterations in range(1, max_iter + 1):
        jac = jacobian(theta, f)
        grad = jac.T @ (weights * r)
        normal = (jac * weights[:, None]).T @ jac
        diag = normal.diagonal().copy()
        diag_floor = max(float(diag.max()), 1e-300)
        diag = np.where(diag > 0, diag, diag_floor)
        if exact and 0.0 <= _decrement(normal, grad, diag) <= _CHI2_RTOL * chi2:
            converged = True
            break

        accepted = False
        while lam <= 1e14:
            step = _solve(normal + lam * np.diag(diag), grad)
            theta_try = theta + step
            rel_step = float((np.abs(step) / (np.abs(theta_try) + 1e-300)).max())
            if rel_step < 1e-10:
                # converged: evaluating a step this small could only accept
                # it, or reject it on rounding noise in chi^2 and retry
                converged = True
                break
            f_try = predict(theta_try)
            if np.isfinite(f_try).all():
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


def _decrement(normal, grad, diag):
    """The Newton decrement g^T N^-1 g of a Gauss-Newton step, solved with
    N scaled to a unit diagonal by diag (N's positive diagonal), so that
    parameters whose scales differ by many decades do not ruin it."""
    scale = np.sqrt(diag)
    g = grad / scale
    return float(g @ _solve(normal / np.outer(scale, scale), g))


def _solve(matrix, rhs):
    """matrix^-1 rhs by np.linalg.solve, or by lstsq where it is singular.
    A 1x1 system with a nonzero pivot takes one division on Python floats,
    the bits LAPACK's dgesv gives it (OpenBLAS's back substitution divides
    by the pivot) at a fraction of the cost of its call; like dgesv, the
    division warns of no overflow."""
    if matrix.shape == (1, 1):
        pivot = matrix.item()
        if pivot != 0.0:
            return np.array([rhs.item() / pivot])
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(matrix, rhs, rcond=None)[0]


def _require_max_iter(max_iter):
    """Refuse an iteration cap that is not an integer >= 1."""
    if (isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral)
            or max_iter < 1):
        raise ValidationError(f"max_iter must be an integer >= 1, got {max_iter!r}")


def _least_squares(predict, y, weights, init, names, max_iter=200,
                   uncertainty=None, jacobian=None):
    """Fit predict(theta) to y under a weighting scheme (module docstring),
    in at most max_iter Gauss-Newton iterations a pass.

    jacobian(theta, f), given f = predict(theta), returns the model's exact
    derivative (points x parameters), which also lets the descent stop on
    the Newton decrement (`_minimize`); forward differences by default.
    """
    _require_max_iter(max_iter)
    y = np.asarray(y, dtype=float)
    w = _resolve_weights(weights, y, uncertainty)
    theta = np.array(init, dtype=float)
    n_points, n_params = len(y), len(theta)
    if n_points <= n_params:
        raise ValidationError(
            f"{n_points} points cannot constrain {n_params} parameters"
        )
    exact = jacobian is not None
    if not exact:
        jacobian = lambda theta, f: _jacobian(predict, theta, f)
    scheme = weights if isinstance(weights, str) else "array"
    f = predict(theta)
    for refit in range(_passes(scheme)):
        if refit:  # reweight counts by the previous fit's expectation
            w = 1.0 / np.maximum(f, 1.0)
        theta, f, chi2, converged, iterations, jac = _minimize(
            predict, jacobian, y, w, theta, f, max_iter, exact)
    if jac is None:
        jac = jacobian(theta, f)
    dof = n_points - n_params
    cov = _covariance(jac, w, chi2, dof, scale=scheme == "uniform")
    return FitResult(
        names=tuple(names),
        values=theta,
        sigma=np.sqrt(np.maximum(cov.diagonal(), 0.0)),
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


def _fit_windows(t, y, w, scheme, max_iter):
    """FitResults of A exp(-rate t) fitted to each row of y (windows x
    samples) on the common sample times t, one per row, from the initial
    weights w (shaped like y, or None for the uniform weights) of a
    weighting scheme ("array" for explicit weights); see
    `fit_exponential_window`. Every row runs through one `_window_rates`
    solve, whose Newton steps and convergence each result reports: the
    least squares under w, or for "poisson" the likelihood, w then
    serving the solve's start only; the likelihood's amplitude is
    sum(y)/sum(e), and its rows then take w = 1/model. The covariances
    and sigmas come from one `_window_covariances` call: the closed-form
    inverse of each row's column-scaled 2x2 normal matrix, batched over
    rows, under the rank rule of `_covariance`.

    The window's tau and (1, tau, tau^2) columns are built once, for the
    solve and the result, and numpy's floating-point warnings are
    silenced once for the whole fit. A row whose largest |y|, m 2^e,
    lies beyond 2^+-_UNSCALED_EXPONENT is fitted as the row c y, c =
    2^-2(e//2) (its sums, near y^2 and beyond, would leave the float
    range): its rate is the same, its amplitude and chi^2 are those of c
    y divided by c, and by c^2 (by c for Pearson's chi^2), and its
    covariance that of c y with the amplitude's entries times g and the
    rate's times g c, g = 1/c under uniform weights (whose chi^2/dof
    scales by c^2), 1/sqrt(c) under "poisson" (whose weights 1/model
    scale by 1/c) and 1 under fixed weights. Every other row keeps its
    bits."""
    tau, powers = _window_powers(t)
    poisson = scheme == "poisson"
    scale = [1.0] * len(y)
    for row, peak in enumerate(np.abs(y).max(axis=1).tolist()):
        exponent = math.frexp(peak)[1]
        if abs(exponent) > _UNSCALED_EXPONENT:
            scale[row] = math.ldexp(1.0, exponent // 2 * -2)
    rescaled = scale.count(1.0) < len(scale)
    if rescaled:
        y = y * np.array(scale)[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rates, iterations, converged = _window_rates(y, tau, powers, w, max_iter,
                                                     None, poisson)
        decay = np.multiply.outer(-rates, tau)
        np.exp(decay, out=decay)
        if poisson:
            # the likelihood's amplitude, then the weights under which the
            # normal matrix is its Fisher information and chi^2 Pearson's,
            # finite where an expectation falls below the normal range
            model = decay * (y.sum(axis=1) / decay.sum(axis=1))[:, None]
            w = 1.0 / np.maximum(model, sys.float_info.min)
        else:
            w_decay = _weighted(w, decay)
            model = decay * (np.vecdot(w_decay, y)
                             / np.vecdot(w_decay, decay))[:, None]
        amplitudes = (model[:, 0] * np.exp(rates * t[0])).tolist()
        residual = y - model
        chi2 = np.vecdot(_weighted(w, residual), residual).tolist()
        d_rate = -t * model
        rates = rates.tolist()
        dof = len(t) - 2
        t0 = float(t[0])
        # the model's derivatives in the amplitude, exp(-rate t), and the rate
        try:
            d_amplitude = decay * np.array([[math.exp(-rate * t0)] for rate in rates])
        except OverflowError:
            rate = max(rates, key=lambda rate: -rate * t0)
            raise ValidationError(
                f"window starting at {t0:g} ns: the fitted rate {rate:.6g} rad/ns "
                "puts the amplitude column exp(-rate t) beyond the float range"
            ) from None
        covariances = _window_covariances(d_amplitude, d_rate, w, chi2, dof,
                                          scale=scheme == "uniform")
        for row, c in enumerate(scale if rescaled else ()):
            if c != 1.0:
                g = {"uniform": 1.0 / c, "poisson": 1.0 / math.sqrt(c)}.get(scheme, 1.0)
                factors = np.array([g, g * c])
                cov, sigma = covariances[row]
                covariances[row] = cov * np.outer(factors, factors), sigma * factors
                amplitudes[row] /= c
                chi2[row] = chi2[row] / c if poisson else chi2[row] / c / c
    return [FitResult(names=("amplitude", "rate"),
                      values=np.array([amplitude, rate]),
                      sigma=sigma, covariance=cov, chi2=chi2_row, dof=dof,
                      converged=converged, iterations=iterations)
            for amplitude, rate, chi2_row, (cov, sigma)
            in zip(amplitudes, rates, chi2, covariances)]


def _window_covariances(d_amplitude, d_rate, w, chi2, dof, scale):
    """`_covariance` of a two-parameter fit, for every row of the Jacobian
    columns d_amplitude and d_rate (rows x samples) under the weights w
    (None for uniform), with that row's entry of the list chi2.

    Three weighted sums over all rows give each row's normal matrix. Per
    row, on Python floats: the columns scaled to unit norm (a zero column
    kept at 0) give [[a, b], [b, c]], whose eigenvalues are
    top = (a + c)/2 + hypot((a - c)/2, b) and det/top, det = ac - b^2
    (Golub & Van Loan, Matrix Computations, 8.5). Where det/top exceeds
    _RANK_RTOL top, the matrix is inverted directly; otherwise the
    inverse is v v^T / top along top's unit eigenvector v plus an
    unbounded variance (_HUGE_VARIANCE) along the direction u orthogonal
    to it, and _HUGE_VARIANCE in place of 1/top where top = 0 (two zero
    columns).

    Returns one (covariance, sigma) pair a row: sigma is the root of the
    covariance's diagonal, p_ii factor/n_i^2 for the inverse p and the
    column norms n, and sqrt(p_ii factor)/n_i where that variance leaves
    the normal range, in which it would lose its digits, or all of them,
    before the root is taken.
    """
    w_amplitude = _weighted(w, d_amplitude)
    sums = (np.vecdot(w_amplitude, d_amplitude).tolist(),
            np.vecdot(w_amplitude, d_rate).tolist(),
            np.vecdot(_weighted(w, d_rate), d_rate).tolist())
    covariances = []
    for aa, ab, bb, chi2_row in zip(*sums, chi2):
        factor = chi2_row / dof if scale else 1.0
        n0, n1 = math.sqrt(aa) or 1.0, math.sqrt(bb) or 1.0
        a, b, c = aa / (n0 * n0), ab / (n0 * n1), bb / (n1 * n1)
        top = 0.5 * (a + c) + math.hypot(0.5 * (a - c), b)
        det = a * c - b * b
        if det > _RANK_RTOL * top * top:
            p00, p01, p11 = c / det, -b / det, a / det
        else:
            # top's eigenvector from the better conditioned of its two forms
            x, y = (b, top - a) if abs(top - a) >= abs(top - c) else (top - c, b)
            norm = math.hypot(x, y)
            x, y = (x / norm, y / norm) if norm > 0.0 else (1.0, 0.0)
            inv_top = 1.0 / top if top > 0.0 else _HUGE_VARIANCE
            p00 = x * x * inv_top + y * y * _HUGE_VARIANCE
            p01 = x * y * inv_top - x * y * _HUGE_VARIANCE
            p11 = y * y * inv_top + x * x * _HUGE_VARIANCE
        off = p01 / (n0 * n1) * factor
        variances = p00 / (n0 * n0) * factor, p11 / (n1 * n1) * factor
        sigma = [math.sqrt(var) if sys.float_info.min <= var < math.inf
                 else math.sqrt(p * factor) / n
                 for var, p, n in zip(variances, (p00, p11), (n0, n1))]
        covariances.append((np.array([[variances[0], off], [off, variances[1]]]),
                            np.array(sigma)))
    return covariances


def fit_exponential_window(trace, window, weights="uniform",
                           max_iter=_WINDOW_FIT_MAX_ITER):
    """Fit A exp(-rate t) to the samples inside `window`, a FitWindow (the
    lifetime analysis uses DEFAULT_WINDOW, as the forward model does).

    The least-squares fit under a weighting scheme (module docstring),
    solved by `_windowed_rates` from log-linear regression on the
    window's positive samples; the amplitude is the projection
    sum(w y e)/sum(w e^2), e = exp(-rate t). Under "poisson" the fit is
    instead the Poisson maximum likelihood of the counts y, one Newton
    solve on the rate from the same start (with w = 1/max(y, 1)), the
    amplitude sum(y)/sum(e); chi2 is Pearson's sum((y - model)^2/model)
    and the covariance the inverse Fisher information, not scaled by
    chi^2: it takes each sample's variance as its expectation, as for
    raw counts. A window holding a negative sample is refused under
    "poisson". max_iter caps the Newton steps; `iterations` reports them,
    and a solve stopped by the cap gives converged=False. Times are
    absolute (not window-relative), so `rate` is directly comparable
    across windows. A cap that is not an integer >= 1 raises
    ValidationError.

    weights: "uniform", "poisson", "provided" (from the trace's
    uncertainty inside the window) or an explicit array with one finite
    entry >= 0 per sample inside the window, start <= t <= start +
    length, not per sample of the trace. The rate, the amplitude and
    their sigmas hold for counts scaled anywhere within ~1e+-300, under
    every weighting (`_fit_windows`, `_window_covariances`); chi2 and the
    amplitude's variance, which scale with the counts squared, overflow
    to inf or underflow to 0 where their own values leave the float
    range.
    """
    _require_max_iter(max_iter)
    sub = trace.window(window.start, window.length)
    y = np.asarray(sub.values, dtype=float)[None, :]
    scheme = weights if isinstance(weights, str) else "array"
    if scheme == "uniform":  # unit weights multiply nothing: the fit takes None
        return _fit_windows(sub.times, y, None, scheme, max_iter)[0]
    where = f"the window {window.start:g} <= t <= {window.stop:g} ns"
    if scheme == "poisson" and (y < 0.0).any():
        raise ValidationError(f"weights='poisson' fits counts, which are >= 0; "
                              f"{where} holds {y.min():g}")
    w = _resolve_weights(weights, y[0], sub.uncertainty, f"samples in {where}")
    return _fit_windows(sub.times, y, w[None, :], scheme, max_iter)[0]


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


def _start(defaults, init):
    """A fit's default starting values, overridden by the user's init
    (a dict of parameter name -> value), refusing names it does not fit."""
    if init:
        unknown = set(init) - set(defaults)
        if unknown:
            raise ValidationError(f"unknown init parameters {sorted(unknown)}")
        defaults.update({k: float(v) for k, v in init.items()})
    return defaults


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

    start = _start({
        "amplitude": plateau if plateau > 0 else float(np.mean(values)),
        "omega": omega_fft,
        "phi": phi_fft,
        "t0": 0.0,
        "tau_rabi": tau_guess,
        "gamma_isc_x": 0.0,
    }, init)
    if abs(start["omega"] - omega_fft) > 0.5 * omega_fft:
        raise ValidationError(
            f"init omega {start['omega']:.4g} rad/ns differs from the "
            f"FFT estimate {omega_fft:.4g} rad/ns by more than 50%; "
            "refusing a likely period alias"
        )

    result = _least_squares(
        lambda theta: rabi_fit_model(times, *theta), values, weights,
        list(start.values()), tuple(start), max_iter=max_iter,
        uncertainty=trace.uncertainty,
        jacobian=lambda theta, f: rabi_fit_model_jacobian(times, *theta))
    tau_fit = result["tau_rabi"]
    if gamma_rad is not None and tau_fit > 0:
        return result.with_derived(gamma_add=additional_decoherence(tau_fit, gamma_rad))
    return result


def _rate_points(points):
    """Temperatures, rates, 1/sigma^2 weights and the remaining fields of
    (temperature_K, rate, sigma, *rest) points; rates and sigmas in rad/ns
    (AngularRate accepted) must be finite, and sigmas > 0. The fields
    convert by float() and are tested as arrays; a refused point goes
    through temperature_value and rate_value, for their message."""
    temps, rates, sigmas, rest = [], [], [], []
    for temperature, rate, sigma, *more in points:
        temps.append(temperature)
        rates.append(rate)
        sigmas.append(sigma)
        rest.append(tuple(more))
    temps, rates, sigmas = (np.fromiter(map(float, column), float, len(column))
                            for column in (temps, rates, sigmas))
    if not (np.isfinite(rates).all() and np.isfinite(sigmas).all()
            and np.isfinite(temps).all() and temps.min(initial=0.0) >= 0.0):
        for temperature, rate, sigma in zip(temps.tolist(), rates.tolist(),
                                            sigmas.tolist()):
            temperature_value(temperature)
            rate_value(rate)
            rate_value(sigma)
    if (sigmas <= 0).any():
        raise ValidationError("point sigmas must be > 0")
    return temps, rates, 1.0 / sigmas**2, rest


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

    start = _start({
        "a": (rates[-1] - rates[0]) / max((temps[-1] - temps[0] + 0.5) ** 5, 1e-300),
        "t0": temps[0] - 0.5,
        "c": rates[0],
    }, init)

    def predict(theta):
        a, t0, c = theta
        return a * (temps - t0) ** 5 + c

    return _least_squares(
        predict, rates, weights, list(start.values()), tuple(start),
        max_iter=max_iter,
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


def _require_labels(traces):
    """Refuse traces without temperature or channel metadata."""
    for trace in traces:
        if trace.temperature is None or trace.channel is None:
            raise ValidationError("each trace needs temperature and channel metadata")


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
    _require_labels(traces)
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
    start = _start({"amplitude": 2.0 * float(np.max(values)), "t0": t0_guess,
                    "epsilon": 0.05}, init)
    result = _least_squares(predict, values, weights, list(start.values()),
                            tuple(start), max_iter=max_iter,
                            uncertainty=uncert)
    return result.with_derived(bright_channel=bright_channel)


def _decays(k, minus_tau):
    """exp(-k tau) for each rate of the list k (rows), from -tau: exp((-k)
    tau) where no rate is negative, and otherwise scaled to a maximum of 1
    by exp(min(k, 0) tau_last), which leaves the other rows' bits."""
    e = np.multiply.outer(k, minus_tau)
    if min(k) < 0.0:
        e += np.minimum(k, 0.0)[:, None] * -minus_tau[-1]
    return np.exp(e, out=e)


def _profile_terms(s_ye, f_ye, q_ye, s_ee, f_ee, q_ee):
    """S1^2/S2, h' = mean_ee - mean_ye and h'' = var_ye - 2 var_ee from the
    sums of w y e and w e^2 times 1, tau and tau^2; floats or arrays."""
    mean_ye = f_ye / s_ye
    mean_ee = f_ee / s_ee
    var_ye = q_ye / s_ye - mean_ye * mean_ye
    var_ee = q_ee / s_ee - mean_ee * mean_ee
    return s_ye * s_ye / s_ee, mean_ee - mean_ye, var_ye - 2.0 * var_ee


def _weighted(w, x):
    """w x, or x itself for w = None, the uniform weights."""
    return x if w is None else w * x


def _profile(wy, w, k, minus_tau, powers):
    """S1^2/S2, h' and h'' of `_windowed_rates` at the rates of the list k,
    one float triple a rate, from the decays e and the sums of w y e and
    w e^2 times 1, tau and tau^2."""
    e = _decays(k, minus_tau)
    ye = (wy * e) @ powers
    ee = (_weighted(w, e) * e) @ powers
    try:
        return [_profile_terms(*row_ye, *row_ee)
                for row_ye, row_ee in zip(ye.tolist(), ee.tolist())]
    except ZeroDivisionError:  # numpy's inf or nan, as on arrays
        return list(zip(*(part.tolist()
                          for part in _profile_terms(*ye.T, *ee.T))))


def _poisson_profile(mean_y, k, minus_tau, powers):
    """exp(l/N) up to a constant factor, l'/N and l''/N of
    `_window_rates`' Poisson solve at the rates of the list k, one float
    triple a rate, for counts y with N = sum(y) and mean_y the mean of tau
    under y, one a row.

    With the amplitude A = N/sum(e) profiled out, e = exp(-k tau), the log
    likelihood of A e is l(k) = -N ln sum(e) - k sum(y tau) + const, and
    l'/N = mean_e - mean_y and l''/N = -var_e < 0, the mean and variance of
    tau under the weights e, from one moment product (Baker & Cousins,
    NIM 221, 437 (1984)). exp(-k mean_y)/sum(e), exp(l/N) up to that
    factor, is the positive objective rising with l that `_newton`'s
    halving test compares. e is scaled to a maximum of 1 (`_decays`),
    which divides it by exp(-min(k, 0) tau_last), so the objective takes
    exp(min(k, 0) tau_last - k mean_y) over the scaled sum, an exponent
    <= 0 for counts >= 0.
    """
    e = _decays(k, minus_tau)
    span = -minus_tau[-1].item()
    out = []
    for rate, mean, (s, f, q) in zip(k, mean_y, (e @ powers).tolist()):
        mean_e = f / s
        out.append((math.exp(min(rate, 0.0) * span - rate * mean) / s,
                    mean_e - mean, mean_e * mean_e - q / s))
    return out


def _window_powers(t):
    """tau = t - t[0] of a window's sample times t, and its powers 1, tau
    and tau^2 as the columns of a (samples x 3) array; a window of fewer
    than 3 samples is refused."""
    if len(t) < 3:
        raise ValidationError("window must contain at least 3 samples")
    tau = t - t[0]
    powers = np.empty((len(t), 3))
    powers[:, 0] = 1.0
    powers[:, 1] = tau
    np.multiply(tau, tau, out=powers[:, 2])
    return tau, powers


def _windowed_rates(y, t, weights=None, max_iter=_NEWTON_MAX_ITER,
                    start=None):
    """Rate k of the least-squares fit of A exp(-k t) to each row of y
    (curves x samples) on the common sample times t, with per-sample
    weights broadcasting against y (uniform when None).

    The amplitude is projected out (Golub & Pereyra 1973): at fixed k it
    is S1/S2 with S1 = sum(w y e), S2 = sum(w e^2), e = exp(-k t),
    leaving the residual sum(w y^2) - S1^2/S2, so k maximizes
    h(k) = ln |S1| - ln(S2)/2. Newton steps on k alone (`_newton`) start
    from the rates `start`, or else from the log-linear regression of the
    positive samples weighted by w y^2; h' and h'' are differences of
    means and variances of t under the weights w y e and w e^2. h is
    unchanged by shifting t or rescaling e, so t is measured from the
    window start and e is scaled to a maximum of 1 where a rate is
    negative.

    Cost model: a fit pays once for the window's (1, tau, tau^2) columns
    (`_window_powers`, which `_fit_windows` shares between its solve and
    its result) and for its start, ~15 array operations; then each
    evaluation of the profile is array work over all rows at once, one
    exp and two (rows x samples) @ (samples x 3) moment products, and
    each Newton step one pass over the rows on Python floats (`_newton`).
    A criterion-5 window fit takes 3.1 evaluations, and the 16 of a
    `gamma_a1_recovery` item ~40% of its time (module docstring). The two
    products must stay two: one (2 rows x samples) @ (samples x 3)
    product in their place sums in another order on OpenBLAS, which
    changed the bits in 300 of 300 random windows of 20-500 samples.
    The forward model (`effective_isc_rates`) takes the same steps on
    moments in closed form and samples nothing; this sampled solve stays
    its test oracle.

    Returns (k, steps, converged): the Newton steps taken, at most
    max_iter, and whether the last one was within tolerance for every
    curve. A non-finite start or step (all-zero weights, say) raises
    ValidationError.
    """
    tau, powers = _window_powers(t)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _window_rates(y, tau, powers, weights, max_iter, start)


def _window_rates(y, tau, powers, w, max_iter, start, poisson=False):
    """`_windowed_rates` on the window's tau and powers (`_window_powers`),
    under the caller's np.errstate; with `poisson`, the rates that maximize
    the Poisson likelihood of the counts y (`_poisson_profile`), started as
    the least squares under w start."""
    positive = y > 0
    if (positive.sum(axis=1) < 2).any():
        raise ValidationError("need >= 2 positive samples to initialize the rate")
    if start is None:
        # log-linear regression weighted by w y^2: to first order in the
        # relative residuals the same objective as the least squares
        scaled = np.where(positive, y / y.max(axis=1, keepdims=True), 0.0)
        start_weights = _weighted(w, scaled) * scaled
        logs = np.log(np.where(positive, y, 1.0))
        dtau = tau - (start_weights @ tau / start_weights.sum(axis=1))[:, None]
        weighted_dtau = start_weights * dtau
        try:
            k = [-covariance / variance for covariance, variance
                 in zip((weighted_dtau * logs).sum(axis=1).tolist(),
                        (weighted_dtau * dtau).sum(axis=1).tolist())]
        except ZeroDivisionError:  # numpy's inf or nan, as on arrays
            k = [math.nan]
    else:
        k = np.asarray(start, dtype=float).tolist()
    _require_finite_start(k)
    minus_tau = -tau
    if poisson:
        mean_y = (y @ tau / y.sum(axis=1)).tolist()
        profile = lambda rates: _poisson_profile(mean_y, rates, minus_tau, powers)
    else:
        wy = _weighted(w, y)
        profile = lambda rates: _profile(wy, w, rates, minus_tau, powers)
    return _newton(profile, k, 1.0 / tau[-1].item(), max_iter)


def _require_finite_start(k):
    """Refuse a list of starting rates that holds a non-finite one."""
    if not all(map(math.isfinite, k)):
        raise ValidationError("windowed fit has a non-finite starting rate")


def _newton(profile, k, inverse_span, max_iter):
    """Newton ascent of each row's projected objective h from the rates of
    the list k, per row on Python floats, for the sampled solve
    (`_windowed_rates`), the Poisson likelihood (`_poisson_profile`) and
    the forward model's moments alike: profile(rates) gives a positive
    objective rising with h (S1^2/S2 of the least squares), h' and h'' at
    a list of rates, one float triple a rate, and 1/inverse_span is the
    window's span.

    Each step is one pass over the rows: the step -h'/h'' where h is
    concave, else a step uphill by the rate's own size plus inverse_span
    (a zero h' is a stationary point even where e^2 underflows beyond the
    first sample and h'' = 0); a non-finite step is refused, and the
    trial rates are taken. A step that would lower the objective beyond
    rounding is halved. +, -, * and / give the same IEEE results on
    floats as numpy's elementwise operations, so the steps have the bits
    they would have on arrays. Returns (k, steps, converged) as
    `_windowed_rates` does.
    """
    tolerance = [_NEWTON_RTOL * (abs(rate) + inverse_span) for rate in k]
    current = profile(k)
    for steps in range(1, max_iter + 1):
        step, trial_k, within = [], [], True
        for rate, (_, slope, curvature), tol in zip(k, current, tolerance):
            if curvature < 0.0 and slope != 0.0:
                d = -slope / curvature
            elif slope > 0.0:
                d = abs(rate) + inverse_span
            elif slope < 0.0:
                d = -(abs(rate) + inverse_span)
            else:  # a stationary point, or a NaN h'
                d = 0.0 if slope == 0.0 else math.nan
            if not abs(d) < math.inf:
                raise ValidationError("windowed fit took a non-finite Newton step")
            within = within and abs(d) <= tol
            step.append(d)
            trial_k.append(rate + d)
        if within:
            return np.array(trial_k), steps, True
        # halve the steps that would lower the objective
        while True:
            trial = profile(trial_k)
            halved = False
            for i, (trial_row, row, tol) in enumerate(zip(trial, current,
                                                          tolerance)):
                d = step[i]
                if (not trial_row[0] >= row[0] * (1.0 - _PROFILE_RTOL)
                        and abs(d) > tol):
                    step[i] = d = 0.5 * d
                    trial_k[i] = k[i] + d
                    halved = True
            if not halved:
                break
        k, current = trial_k, trial
    return np.array(k), max_iter, False


def _series(coefficients, y2):
    """sum_i c_i y2^i by Horner's rule."""
    out = coefficients[-1]
    for coefficient in coefficients[-2::-1]:
        out = out * y2 + coefficient
    return out


def _geometric_moments(minus_z, n):
    """Sum, mean and variance of j = 0..n-1 under the weights r^j,
    r = exp(-z), for every entry of the array minus_z = -z <= 0 (z = 0
    counts as 1e-100).

    With u = -expm1(-z) and v = -expm1(-n z) the sum is v/u, the mean
    r/u - n r^n/v and the variance r/u^2 - n^2 r^n/v^2; none divides by
    r^n, which underflows. Where n z < _SERIES_MAX the two terms of each
    nearly cancel, and the mean and variance come from
    (n - 1)/2 + phi(z) - n phi(n z) and psi(z) - n^2 psi(n z) instead,
    phi(y) = 1/expm1(y) - 1/y + 1/2 and psi(y) = 1/(4 sinh^2(y/2)) - 1/y^2
    being their Bernoulli series (_PHI_SERIES and _PSI_SERIES in y^2).
    """
    minus_z = np.minimum(minus_z, -1e-100)
    minus_nz = n * minus_z
    e1, en = np.expm1(minus_z), np.expm1(minus_nz)
    inverse_u, n_over_v = 1.0 / e1, n / en  # -1/u and -n/v
    r_u = np.exp(minus_z) * inverse_u       # -r/u
    n_rn_v = np.exp(minus_nz) * n_over_v    # -n r^n/v
    mean = n_rn_v - r_u
    var = r_u * inverse_u - n_rn_v * n_over_v
    small = minus_nz > -_SERIES_MAX
    if small.any():
        z, nz = -minus_z[small], -minus_nz[small]
        mean[small] = (0.5 * (n - 1) + z * _series(_PHI_SERIES, z * z)
                       - n * nz * _series(_PHI_SERIES, nz * nz))
        var[small] = (_series(_PSI_SERIES, z * z)
                      - n * n * _series(_PSI_SERIES, nz * nz))
    return en / e1, mean, var


def _forward_rates(modes, t0, n, start, slopes):
    """Windowed rates of the curves sum_m w_m exp(-K_m t), whose weights,
    rates and Gamma_isc derivatives `modes` holds as `_a12_modes` returns
    them, each of shape (2 modes, rows), fitted on the n samples
    t0 + j _FORWARD_DT; and, with `slopes`, their Gamma_isc derivatives
    (else None). The Newton steps (`_newton`) start from the rates
    `start`, or else from the modes.

    Per curve, S1 = sum(y e), S2 = sum(e^2) and their means and variances
    of tau are mixtures of truncated geometric series in x = K_m + k and
    in 2k (`_geometric_moments`, on one (3, rows) array a profile
    evaluation): with a_m = w_m exp(-K_m t0) and mass_m = a_m times the
    sum of the series in x_m, S1 = sum mass_m, mean_ye = sum p_m mean_m
    and var_ye = sum p_m var_m + p_0 p_1 (mean_0 - mean_1)^2,
    p_m = mass_m/S1. A negative x is reflected (j -> n - 1 - j), with e
    scaled to a maximum of 1 as the sampled solve scales it. The cold
    start solves the stationarity of the fit for continuous, untruncated
    samples, sum_m a_m (k - K_m)/(K_m + k)^2 = 0, by two fixed-point steps
    k <- sum o_m K_m / sum o_m, o_m = a_m/(K_m + k)^2, from the slow
    rate: 3 Newton steps on the criterion-5 designs.

    The slopes are the implicit derivatives dk = (d mean_ye)/h'' (at the
    optimum h' = mean_ee - mean_ye = 0), from the profile of the last
    Newton step, one step within tolerance before the rates. With y's
    derivative sum_m (dw_m - w_m dK_m t) exp(-K_m t), d mean_ye =
    sum_m q_m (mean_m - mean_ye) - dK_m p_m (var_m + mean_m (mean_m -
    mean_ye)), q_m the mass of (dw_m - w_m dK_m t0) exp(-K_m t0) over S1.
    At Gamma_isc = 0 and Gamma_mix -> 0 the weight derivatives are
    +/-1/(4 Gamma_mix) and multiply the gap between two modes' moments
    whose rates differ by 2 Gamma_mix, resolved to ~1e-16 relative, so the
    slope's error grows like 1e-16/(Gamma_mix span): 1e-6 at
    Gamma_mix = 1e-12, and 0.5 where the limit is 1 at 1e-90, as with
    sampled curves. `fit_gamma_a1` takes slopes at Gamma_a1 > 0, where
    the weights are well conditioned.
    """
    weight, rate, d_weight, d_rate = modes
    decay = np.exp(-t0 * rate)
    amplitude = weight * decay
    # the curves decay, so the fit has the two positive samples it needs
    # where a curve is positive at its first two
    second = (amplitude * np.exp(-_FORWARD_DT * rate)).sum(axis=0)
    if not (np.minimum(amplitude.sum(axis=0), second) > 0.0).all():
        raise ValidationError("need >= 2 positive samples to initialize the rate")
    if start is None:
        # two fixed-point steps from the slow rate towards the stationary
        # rate of continuous, untruncated samples
        k = rate[0]
        for _ in range(2):
            shares = amplitude * (rate[::-1] + k) ** 2
            total = shares.sum(axis=0)
            k = rate[0] + np.divide(shares[1] * (rate[1] - rate[0]), total,
                                    out=np.zeros_like(total), where=total != 0.0)
    else:
        k = start
    k = k.tolist()
    _require_finite_start(k)
    rate_dt = _FORWARD_DT * rate
    x = np.empty((3, rate.shape[1]))
    last = None

    def profile(rates):
        nonlocal last
        k_dt = np.array(rates, dtype=float) * _FORWARD_DT
        np.add(rate_dt, k_dt, out=x[:2])
        np.add(k_dt, k_dt, out=x[2])
        sums, mean, var = _geometric_moments(-np.abs(x), n)
        if x.min() < 0.0:
            mean = np.where(x < 0.0, (n - 1) - mean, mean)
            sums[:2] *= np.exp((n - 1) * (np.minimum(k_dt, 0.0)
                                          - np.minimum(x[:2], 0.0)))
        mass = amplitude * sums[:2]
        s_ye = mass[0] + mass[1]
        p = mass / s_ye
        mean_ye = p[0] * mean[0] + p[1] * mean[1]
        gap = mean[0] - mean[1]
        var_ye = p[0] * var[0] + p[1] * var[1] + p[0] * p[1] * gap * gap
        curvature = _FORWARD_DT * _FORWARD_DT * (var_ye - 2.0 * var[2])
        last = sums, mean, var, s_ye, p, mean_ye, curvature
        return list(zip((s_ye * s_ye / sums[2]).tolist(),
                        (_FORWARD_DT * (mean[2] - mean_ye)).tolist(),
                        curvature.tolist()))

    k, _, converged = _newton(profile, k, 1.0 / ((n - 1) * _FORWARD_DT),
                              _NEWTON_MAX_ITER)
    if not converged:
        raise ValidationError(
            f"windowed rate did not converge in {_NEWTON_MAX_ITER} Newton steps")
    if not slopes:
        return k, None
    sums, mean, var, s_ye, p, mean_ye, curvature = last
    q = (d_weight - t0 * weight * d_rate) * decay * sums[:2] / s_ye
    centred = mean[:2] - mean_ye
    d_mean_ye = (q * centred - _FORWARD_DT * d_rate * p
                 * (var[:2] + mean[:2] * centred)).sum(axis=0)
    return k, _FORWARD_DT * d_mean_ye / curvature


def _forward_samples(window):
    """Number of forward-model samples: every _FORWARD_DT across the
    window from its start, as many as fall inside it."""
    n_samples = window.length / _FORWARD_DT + 1.0
    if not n_samples <= _FORWARD_MAX_SAMPLES:
        raise ValidationError(
            f"forward-model window would hold {n_samples:.3g} samples "
            f"(limit {_FORWARD_MAX_SAMPLES})")
    last = int(round(window.length / _FORWARD_DT))
    return last + (window.start + _FORWARD_DT * last <= window.stop)


def effective_isc_rates(gamma_rad, gamma_a1, gamma_mix, window=DEFAULT_WINDOW,
                        start=None, slopes=False):
    """Windowed single-exponential rates of the two-branch fluorescence.

    The noiseless two-branch decay of each initial branch, sampled every
    _FORWARD_DT (0.25 ns) across `window`, the FitWindow that
    `fit_exponential_window` applies to measured traces, is fitted with
    A exp(-Gamma t), and the radiative rate is subtracted. This is the
    forward model mapping (Gamma_a1, Gamma_mix(T)) to the crossing rates a
    windowed lifetime fit reports; the second branch's own crossing is
    taken as zero.

    No curve is sampled: each is two exponentials (`_a12_modes`), so the
    sums of the fit are truncated geometric series, and `_forward_rates`
    takes the Newton steps of the sampled solve (`_newton`) on their
    closed-form moments. A profile evaluation costs ~40 array operations
    on one (3, curves) array, whatever the window's length, and the
    step control ~1 us a curve on Python floats. The rates agree with the
    sampled solve (`_windowed_rates` on `closedform._a12_curves`) within
    2.5e-15 (|rate| + Gamma_rad) on DEFAULT_WINDOW and 1.3e-13 on windows
    of fewer than 20 samples, whose fit amplifies the moments' rounding.

    For a single mixing rate, returns (rate_a1_branch, rate_a2_branch)
    as fitted AngularRates. For a 1-d sequence of mixing rates, returns
    two float arrays (rad/ns) with one entry per mixing rate.

    start, the (a1, a2) pair an earlier call returned for the same mixing
    rates (or a prediction of it), starts the Newton solve from those rates
    instead of the cold start from the modes (`_forward_rates`); near the
    earlier Gamma_a1 that saves steps, and the solve converges to the same
    rates either way.

    slopes=True also returns the derivatives of both rates with respect to
    Gamma_a1, (a1, a2, d_a1, d_a2), the derivatives as floats for a single
    mixing rate and as arrays otherwise: the implicit derivative of each
    windowed rate, taken at the solve's last profile, one Newton step
    within tolerance before the returned rates, so a rate's slope can
    differ by ~1e-9 relative with the start and with the other mixing
    rates solved with it (a scalar call against a sequence call, say).
    The rates are the same bits either way.
    """
    gr = rate_value(gamma_rad)
    ga1 = rate_value(gamma_a1)
    # one conversion and one finiteness test for every mixing rate (an
    # AngularRate converts by its __float__)
    mixes = np.array(gamma_mix, dtype=float)
    scalar = mixes.ndim == 0
    if mixes.ndim > 1:
        raise ValidationError("gamma_mix must be a rate or a 1-d sequence of rates")
    mixes = mixes.reshape(-1)
    if not mixes.size:
        raise ValidationError("gamma_mix sequence is empty")
    if not np.isfinite(mixes).all():
        for mix in mixes.tolist():  # refused as rate_value refuses it
            rate_value(mix)
    n = _forward_samples(window)
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
    if n < 3:
        raise ValidationError("window must contain at least 3 samples")
    # curves ordered (mixing rate, branch): A1 (crossing) then A2 for each
    crosses = np.zeros(2 * len(mixes), dtype=bool)
    crosses[::2] = True
    modes = _a12_modes(gr, np.repeat(mixes, 2), ga1, crosses)
    rates, rate_slopes = _forward_rates(modes, window.start, n, start, slopes)
    rows = (rates - gr,) if rate_slopes is None else (rates - gr, rate_slopes)
    # rates, then slopes, each as its A1 and A2 entries
    out = [branch for row in rows for branch in row.reshape(-1, 2).T]
    if scalar:
        return (AngularRate(out[0][0], fitted=True),
                AngularRate(out[1][0], fitted=True),
                *(float(slope[0]) for slope in out[2:]))
    return tuple(out)


def fit_gamma_a1(points, mix_model, gamma_rad, window=DEFAULT_WINDOW, init=None,
                 max_iter=100):
    """Chi-square fit of the direct crossing rate to windowed branch rates.

    points: iterable of (temperature_K, gamma_eff, sigma, branch) where
    gamma_eff is the windowed single-exponential rate minus the radiative
    rate for that branch ("A1" or "A2") and sigma its uncertainty
    (rad/ns). mix_model maps temperature to the mixing rate (e.g. the
    clamped empirical T^5 law). The forward model, effective_isc_rates,
    re-runs the same windowed analysis, over `window` (the FitWindow the
    points' rates were fitted in), on noiseless two-branch decays, in
    exactly one call per trial Gamma_a1. That call also returns the
    rates' Gamma_a1 slopes (slopes=True), which give the fit's Jacobian
    at the trial and start the next trial's solve from the first-order
    prediction rates + slopes (Gamma_a1' - Gamma_a1). The exact Jacobian
    lets the fit stop on the Newton decrement, without a last call that
    would only confirm a step below chi^2's rounding.

    The forward model fits its windows under uniform weights, so the
    points' rates must be uniform-weight window fits too, as
    `fit_gamma_a1_traces` makes them: rates from Poisson or provided
    weights miss Gamma_a1 by tens of sigma.
    """
    temps, rates, weights, rest = _rate_points(points)
    branches = [branch for (branch,) in rest]
    for branch in branches:
        if branch not in ("A1", "A2"):
            raise ValidationError(f"branch must be 'A1' or 'A2', got {branch!r}")
    if len(branches) < 2:
        raise ValidationError("gamma_a1 fit needs at least 2 points")
    gr = rate_value(gamma_rad)
    # each point's temperature as an index into the sorted distinct ones
    unique_temps = sorted(set(temps.tolist()))
    index = {temperature: i for i, temperature in enumerate(unique_temps)}
    temp_index = np.array([index[temperature] for temperature in temps.tolist()])
    branch_index = np.array([0 if branch == "A1" else 1 for branch in branches])
    # accept either a callable T -> rate or a fit-form bundle
    mix_fn = getattr(mix_model, "clamped", mix_model)
    # checked once here: each forward call takes the array in one test
    mixes = np.array([rate_value(mix_fn(T)) for T in unique_temps])
    # the last forward call: its Gamma_a1, then (a1, a2) rates and slopes
    last = None

    def predict(theta):
        # one forward-model call covers every temperature and branch
        nonlocal last
        ga1 = float(theta[0])
        start = None if last is None else last[1] + last[2] * (ga1 - last[0])
        out = np.array(effective_isc_rates(gr, ga1, mixes, window, start=start,
                                           slopes=True))
        last = ga1, out[:2], out[2:]
        return last[1][branch_index, temp_index]

    def jacobian(theta, f):
        # the slopes of the forward call at theta, which _minimize takes
        # only where it has just evaluated predict
        if last[0] != float(theta[0]):
            predict(theta)
        return last[2][branch_index, temp_index][:, None]

    a1_rates = [g for g, branch in zip(rates, branches) if branch == "A1"]
    default_init = max(a1_rates) if a1_rates else max(rates.max(), 1e-3)
    ga1_0 = float(init) if init is not None else max(float(default_init), 1e-3)
    return _least_squares(predict, rates, weights, [ga1_0], ("gamma_a1",),
                          max_iter=max_iter, jacobian=jacobian)


def fit_gamma_a1_traces(traces, mix_model, gamma_rad):
    """The lifetime analysis from count traces to the direct crossing rate.

    Each TimeTrace carries its temperature (K) in `temperature` and its
    initial branch ("A1" or "A2") in `channel`. Every trace is fitted with
    a single exponential over DEFAULT_WINDOW under uniform weights, as
    `fit_exponential_window` fits one, all in one batched solve; the
    windows must therefore fall on one bin grid. The windowed rates minus
    gamma_rad, with their sigmas, then go to `fit_gamma_a1`, whose result
    is returned with those (temperature, gamma_eff, sigma, branch) points
    in derived["points"] (rad/ns).
    """
    traces = list(traces)
    if not traces:
        raise ValidationError("no traces to fit")
    _require_labels(traces)
    subs = [trace.window(DEFAULT_WINDOW.start, DEFAULT_WINDOW.length)
            for trace in traces]
    t = subs[0].times
    if not all(np.array_equal(sub.times, t) for sub in subs):
        raise ValidationError("the traces' windows fall on different bin grids")
    y = np.array([sub.values for sub in subs], dtype=float)
    fits = _fit_windows(t, y, None, "uniform", _WINDOW_FIT_MAX_ITER)
    gr = rate_value(gamma_rad)
    points = [(trace.temperature, fit["rate"] - gr, fit.sigma_of("rate"),
               trace.channel) for trace, fit in zip(traces, fits)]
    return fit_gamma_a1(points, mix_model, gamma_rad).with_derived(points=points)


def ensemble_spread(values):
    """(mean, two_sigma) of an ensemble of repeated fit outputs."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise ValidationError("ensemble spread needs at least 2 values")
    return float(np.mean(arr)), float(2.0 * np.std(arr, ddof=1))
