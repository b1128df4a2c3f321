"""Closed-form solutions for the driven and undriven excited-state manifold.

All expressions describe a ground state |g> and the two orbital excited
branches |x>, |y> with radiative decay Gamma_rad, phonon-induced orbital
mixing Gamma_mix (x->y and y->x), pure orbital dephasing Gamma_t2, and
intersystem crossing into the dark singlet manifold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AngularRate, ValidationError, rate_value


@dataclass(frozen=True)
class EnvelopeParams:
    """Rates entering the strong-drive oscillation envelope of a g-x drive.

    gamma_rad_x, gamma_rad_y: radiative decay of the two branches.
    gamma_mix_xy: mixing out of the driven branch (x -> y).
    gamma_mix_yx: mixing back (y -> x).
    gamma_t2: pure orbital dephasing of the driven transition.
    Each is an AngularRate or a float in rad/ns.
    """

    gamma_rad_x: AngularRate
    gamma_rad_y: AngularRate
    gamma_mix_xy: AngularRate
    gamma_mix_yx: AngularRate
    gamma_t2: AngularRate


def _envelope_terms(gr_x, gr_y, m_xy, m_yx, gt2):
    """(tau_rabi, tau_2, A, B) of envelope_timescales from its five rates
    in rad/ns, each a float or an array; arrays give arrays, element for
    element the bits of the float form. Refuses the whole call if any
    element has 2 Gamma_rad,y + Gamma_mix,xy + 2 Gamma_mix,yx <= 0."""
    denom = 2.0 * gr_y + m_xy + 2.0 * m_yx
    if np.any(denom <= 0.0):
        raise ValidationError(
            "envelope offset amplitudes are undefined when "
            "2*gamma_rad_y + gamma_mix_xy + 2*gamma_mix_yx = 0"
        )
    with np.errstate(divide="ignore"):
        tau_rabi = np.divide(1.0, 0.75 * gr_x + 0.5 * (m_xy + gt2))
    return (tau_rabi, 1.0 / (0.5 * denom), -m_xy / denom,
            2.0 * (gr_y + m_xy + m_yx) / denom)


def envelope_timescales(params):
    """Return (tau_rabi, tau_2, A, B) for the strong-drive envelope.

    tau_rabi is the decay time of the oscillating term, tau_2 the decay
    time of the transient offset, and A, B the transient and steady
    offset amplitudes (A + B = 1). An undamped drive,
    3/4 Gamma_rad,x + (Gamma_mix,xy + Gamma_t2)/2 = 0, has tau_rabi = inf.
    """
    terms = _envelope_terms(rate_value(params.gamma_rad_x),
                            rate_value(params.gamma_rad_y),
                            rate_value(params.gamma_mix_xy),
                            rate_value(params.gamma_mix_yx),
                            rate_value(params.gamma_t2))
    return tuple(map(float, terms))


def rabi_envelope(params, t):
    """Oscillation envelope g(t) = (exp(-t/tau_rabi) + A exp(-t/tau_2) + B)/2.

    Normalized so g(0) = 1; the fluorescence extrema of a strongly driven
    g-x transition follow this curve. An undamped drive (tau_rabi = inf)
    gives (1 + A exp(-t/tau_2) + B)/2.
    """
    tau_rabi, tau_2, amp_a, amp_b = envelope_timescales(params)
    t = np.asarray(t, dtype=float)
    return 0.5 * (np.exp(-t / tau_rabi) + amp_a * np.exp(-t / tau_2) + amp_b)


def additional_decoherence(tau_rabi, gamma_rad):
    """Decoherence beyond radiative decay from a fitted envelope time.

    Gamma_add = Gamma_mix + Gamma_t2 = 2 (1/tau_rabi - 3/4 Gamma_rad).
    The result is a fitted quantity and may be negative within noise.
    """
    tau_rabi = float(tau_rabi)
    if tau_rabi <= 0.0:
        raise ValidationError("tau_rabi must be > 0")
    return AngularRate(2.0 * (1.0 / tau_rabi - 0.75 * rate_value(gamma_rad)), fitted=True)


def depolarization_populations(gamma_rad, gamma_mix, t):
    """Populations (rho_b, rho_d) after polarized excitation of one branch.

    rho_b is the initially populated (bright) branch, rho_d the other:
    rho_b = exp(-Gamma_rad t) (1 + exp(-2 Gamma_mix t)) / 2,
    rho_d = exp(-Gamma_rad t) (1 - exp(-2 Gamma_mix t)) / 2.
    Symmetric mixing at equal radiative rates is assumed.
    """
    gr = rate_value(gamma_rad)
    gm = rate_value(gamma_mix)
    t = np.asarray(t, dtype=float)
    decay = np.exp(-gr * t)
    swap = np.exp(-2.0 * gm * t)
    return 0.5 * decay * (1.0 + swap), 0.5 * decay * (1.0 - swap)


def observed_polarized_intensity(amplitude, epsilon, t0, gamma_rad, gamma_mix, t):
    """Observed (bright, dark) channel intensities with polarization leakage.

    A fraction epsilon of each channel's light is detected in the other
    channel; t0 shifts the time origin to the excitation pulse:
    I_bright = amplitude [(1-eps) rho_b(t-t0) + eps rho_d(t-t0)] and the
    dark channel with the roles swapped. Their sum is a pure radiative
    exponential regardless of mixing. The closed forms are evaluated as
    written even for t < t0; callers window or clamp the pre-pulse
    region themselves.
    """
    epsilon = float(epsilon)
    if not 0.0 <= epsilon <= 0.5:
        raise ValidationError("leakage fraction must lie in [0, 1/2]")
    amplitude = float(amplitude)
    if amplitude <= 0.0:
        raise ValidationError("amplitude must be > 0")
    tau = np.asarray(t, dtype=float) - float(t0)
    rho_b, rho_d = depolarization_populations(gamma_rad, gamma_mix, tau)
    bright = amplitude * ((1.0 - epsilon) * rho_b + epsilon * rho_d)
    dark = amplitude * ((1.0 - epsilon) * rho_d + epsilon * rho_b)
    return bright, dark


def isc_envelope_ex(tau_rabi, gamma_isc_x, t):
    """Strong-drive envelope with crossing loss from the driven branch.

    g(t) = (exp(-t/tau_rabi) + 1)/2 * exp(-Gamma_isc_x t / 2); the factor
    1/2 in the exponent reflects that the drive keeps half the population
    in the state subject to crossing.
    """
    tau_rabi = float(tau_rabi)
    if tau_rabi <= 0.0:
        raise ValidationError("tau_rabi must be > 0")
    gi = rate_value(gamma_isc_x)
    t = np.asarray(t, dtype=float)
    return 0.5 * (np.exp(-t / tau_rabi) + 1.0) * np.exp(-0.5 * gi * t)


def rabi_fit_model(t, amplitude, omega, phi, t0, tau_rabi, gamma_isc_x):
    """Fit form for a driven fluorescence trace.

    f(t) = amplitude [cos(omega t - phi) exp(-(t - t0)/tau_rabi) + 1]
           * exp(-gamma_isc_x t / 2)
    """
    t = np.asarray(t, dtype=float)
    osc = np.cos(omega * t - phi) * np.exp(-(t - t0) / tau_rabi)
    return amplitude * (osc + 1.0) * np.exp(-0.5 * gamma_isc_x * t)


def rabi_fit_model_jacobian(t, amplitude, omega, phi, t0, tau_rabi, gamma_isc_x):
    """Derivative of rabi_fit_model: (points x 6), columns in signature order.

    With c = cos(omega t - phi), s = sin(omega t - phi),
    D = exp(-(t - t0)/tau_rabi) and E = exp(-gamma_isc_x t / 2) the
    columns are (c D + 1) E, -t A E s D, A E s D, A E c D / tau_rabi,
    A E c D (t - t0)/tau_rabi^2 and -(t/2) f.
    """
    t = np.asarray(t, dtype=float)
    phase = omega * t - phi
    decay = np.exp(-(t - t0) / tau_rabi)
    loss = np.exp(-0.5 * gamma_isc_x * t)
    cos_decay = np.cos(phase) * decay
    d_amplitude = (cos_decay + 1.0) * loss
    sine = amplitude * loss * np.sin(phase) * decay
    cosine = amplitude * loss * cos_decay
    return np.stack([d_amplitude, -t * sine, sine, cosine / tau_rabi,
                     cosine * (t - t0) / tau_rabi**2,
                     -0.5 * t * amplitude * d_amplitude], axis=1)


def _check_branch(branch):
    if branch not in ("A1", "A2"):
        raise ValidationError(f"branch must be 'A1' or 'A2', got {branch!r}")


def _a12_modes(gamma_rad, gamma_mix, gamma_isc, crosses):
    """The two exponentials of fluorescence_a12 and their derivatives with
    respect to Gamma_isc, for every curve at once.

    gamma_mix (a float or an array, rad/ns) and crosses (True for the
    branch "A1" that crosses, False for "A2"; a bool or a bool array)
    broadcast to the shape of the curves; gamma_rad and gamma_isc are
    shared floats. Returns (weight, rate, d weight, d rate), each
    broadcasting to (2, *curves): the slow mode, then the fast one. The
    rates and their derivatives do not depend on the branch, so they keep
    the shape of gamma_mix.
    """
    # a numpy scalar keeps a single curve's arithmetic with the bool
    # `degenerate` below in fast scalar operations
    gamma_isc = np.float64(gamma_isc)
    two_gm = 2.0 * gamma_mix
    gamma_prime = np.hypot(gamma_isc, two_gm)
    # Gamma' = 0 (no mixing, no crossing) takes the weights and derivatives
    # of Gamma_mix = 0 at Gamma_isc = 1: one mode of weight 1, whose rate
    # moves with Gamma_isc on the branch that crosses, and no division by 0.
    # So does a Gamma' below 1e-100 rad/ns, whose cube would underflow.
    degenerate = gamma_prime < 1e-100
    gp = gamma_prime + degenerate
    gi = gamma_isc + degenerate
    # c = (2 Gamma_mix - g)/Gamma' with g = +/-Gamma_isc for "A1"/"A2"; the
    # larger weight (1 + |c|)/2 is a/(2 Gamma'), and the smaller one,
    # (1 - |c|)/2 = (1 - c^2)/(2 (1 + |c|)) = 2 Gamma_mix g/(Gamma' a), is
    # computed without cancellation
    sign = 2.0 * crosses - 1.0
    g = sign * gi
    a = gp + np.maximum(two_gm, g) - np.minimum(two_gm, g)
    weights = np.array([a / (2.0 * gp), two_gm * g / (gp * a)])
    # dc/dGamma_isc = -/+2 Gamma_mix (2 Gamma_mix + g)/Gamma'^3; the slow
    # weight gains dc/2, and the rates m -/+ Gamma'/2, with
    # m = Gamma_rad + Gamma_mix + Gamma_isc/2, move by 1/2 -/+ d_split
    d_weight = 0.5 * sign * (two_gm * (two_gm + g) / (gp * gp * gp))
    mid = gamma_rad + gamma_mix + 0.5 * gamma_isc
    half = 0.5 * gamma_prime
    d_split = 0.5 * gi / gp
    return (np.where(two_gm >= g, weights, weights[::-1]),
            np.array([mid - half, mid + half]),
            np.array([-d_weight, d_weight]),
            np.array([0.5 - d_split, 0.5 + d_split]))


def _a12_curves(modes, t):
    """fluorescence_a12 for every curve of the modes `_a12_modes` returned,
    at the times t: shape (*curves, *t.shape)."""
    t = np.asarray(t, dtype=float)
    along_t = (...,) + (None,) * t.ndim
    w, k = modes[0][along_t], modes[1][along_t]
    decays = np.exp(-k * t)
    return w[0] * decays[0] + w[1] * decays[1]


def fluorescence_a12(gamma_rad, gamma_mix, gamma_isc, branch, t):
    """Fluorescence after populating one orbital branch, with crossing
    from only the first branch.

    I(t) = exp(-(Gamma_rad + Gamma_mix + Gamma_isc/2) t)
           [ (2 Gamma_mix -/+ Gamma_isc)/Gamma' sinh(Gamma' t / 2)
             + cosh(Gamma' t / 2) ],
    Gamma' = sqrt(Gamma_isc^2 + 4 Gamma_mix^2); the minus sign applies to
    the branch that crosses ("A1"), the plus sign to the other ("A2").

    Evaluated as the equivalent pair of exponentials
    w_slow exp(-(m - Gamma'/2) t) + w_fast exp(-(m + Gamma'/2) t) with
    m = Gamma_rad + Gamma_mix + Gamma_isc/2 and w = (1 +/- c)/2,
    c = (2 Gamma_mix -/+ Gamma_isc)/Gamma'. The naive sinh/cosh form
    cancels catastrophically at large Gamma' t; here the near-zero
    weight is instead computed from Gamma'^2 - (2 Gamma_mix -/+
    Gamma_isc)^2 = +/- 4 Gamma_mix Gamma_isc, so the single-exponential
    reductions at Gamma_mix = 0 or Gamma_isc = 0 are exact and the
    Gamma' -> 0 limit needs no series switch.
    """
    _check_branch(branch)
    return _a12_curves(_a12_modes(rate_value(gamma_rad), rate_value(gamma_mix),
                                  rate_value(gamma_isc), branch == "A1"), t)


def isc_rate_from_lifetime(tau, gamma_rad):
    """Crossing rate from a fitted fluorescence lifetime: 1/tau - Gamma_rad."""
    tau = float(tau)
    if tau <= 0.0:
        raise ValidationError("lifetime must be > 0")
    return AngularRate(1.0 / tau - rate_value(gamma_rad), fitted=True)
