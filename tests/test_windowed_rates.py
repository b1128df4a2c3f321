"""The projected Newton solve of windowed rates, `estimate._windowed_rates`,
against an oracle: the solve as it was when every step was taken on
arrays of rows, with row masks for the step choice and the halving.

The two must agree bit for bit, in the rates, in the Newton steps taken
and in convergence, and must refuse the same inputs with the same
message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvphonon import estimate
from nvphonon.core import ValidationError
from nvphonon.estimate import _NEWTON_MAX_ITER, _NEWTON_RTOL, _PROFILE_RTOL

# ---------------------------------------------------------------------------
# the oracle: the array-at-a-time solve, verbatim


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
            step = -slope / curvature
            other = ~(curvature < 0.0) | (slope == 0.0)
            if np.count_nonzero(other):
                step[other] = np.where(
                    slope[other] == 0.0, 0.0,
                    np.sign(slope[other]) * (np.abs(k[other]) + 1.0 / tau[-1]))
            if np.count_nonzero(np.isfinite(step)) < len(step):
                raise ValidationError("windowed fit took a non-finite Newton step")
            if np.count_nonzero(np.abs(step) > tolerance) == 0:
                return k + step, steps, True
            # halve the steps that would lower the objective
            while True:
                trial = _profile(wy, w, k + step, tau, powers)
                lower = (~(trial[0] >= objective * (1.0 - _PROFILE_RTOL))
                         & (np.abs(step) > tolerance))
                if not np.count_nonzero(lower):
                    break
                step = np.where(lower, 0.5 * step, step)
            k = k + step
            objective, slope, curvature = trial
    return k, max_iter, False


# ---------------------------------------------------------------------------
# differential test


def _outcome(solve, *args, **kwargs):
    """Bytes of the rates with the steps and convergence, or the refusal."""
    try:
        k, steps, converged = solve(*args, **kwargs)
    except ValidationError as error:
        return "refused", str(error)
    return k.dtype.str, k.shape, k.tobytes(), steps, converged


@st.composite
def _problems(draw):
    """Noisy exponential windows, 1-20 rows on one time grid, with their
    weights (None or an array with some zeros), start rates (None, near
    the truth or far off, now and then non-finite) and a step cap."""
    rows = draw(st.integers(1, 20))
    n = draw(st.integers(3, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dt = draw(st.floats(0.05, 2.0))
    t = draw(st.floats(0.0, 10.0)) + dt * np.arange(n)
    span = t[-1] - t[0]
    decays = rng.uniform(0.05, draw(st.sampled_from([3.0, 30.0])), rows)
    rates = decays / span
    amplitude = 10.0 ** rng.uniform(1.0, draw(st.sampled_from([2.0, 6.0])),
                                    rows)
    mean = amplitude[:, None] * np.exp(-rates[:, None] * (t - t[0]))
    y = rng.poisson(mean).astype(float)
    if rng.uniform() < 0.1:  # a row too sparse to start from
        y[rng.integers(rows), 1:] = 0.0
    if draw(st.booleans()):  # background subtracted: some samples < 0
        y -= rng.uniform(0.0, 2.0, y.shape)
    weights = None
    if draw(st.booleans()):
        weights = rng.uniform(0.0, 2.0, y.shape)
        weights[rng.uniform(size=y.shape) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
        if rng.uniform() < 0.1:
            weights[rng.integers(rows)] = 0.0
    start = None
    if draw(st.booleans()):
        start = rates * rng.uniform(0.1, draw(st.sampled_from([1.5, 10.0])), rows)
        if rng.uniform() < 0.1:
            start[rng.integers(rows)] = np.nan
    max_iter = draw(st.integers(1, 30))
    return y, t, weights, max_iter, start


@settings(max_examples=300, deadline=None)
@given(problem=_problems())
def test_windowed_rates_match_the_array_oracle(problem):
    y, t, weights, max_iter, start = problem
    assert (_outcome(estimate._windowed_rates, y, t, weights, max_iter,
                     start=start)
            == _outcome(_windowed_rates, y, t, weights, max_iter, start=start))



@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_wide_solves_match_the_array_oracle(weighted, warm):
    # 600 two-exponential curves on the forward model's 461 samples, wider
    # than the examples above: the per-row step control holds its bits
    rng = np.random.default_rng(5)
    t = 4.0 + 0.25 * np.arange(461)
    fast, slow = rng.uniform(0.05, 0.5, (2, 600, 1))
    y = np.exp(-fast * t) + rng.uniform(0.0, 1.0, (600, 1)) * np.exp(-slow * t)
    weights = rng.uniform(0.5, 2.0, y.shape) if weighted else None
    start = None
    if warm:
        start = estimate._windowed_rates(y, t, weights)[0] * rng.uniform(
            0.99, 1.01, 600)
    assert (_outcome(estimate._windowed_rates, y, t, weights, start=start)
            == _outcome(_windowed_rates, y, t, weights, start=start))
