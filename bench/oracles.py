"""Independent oracles, run outside the timed region.

Each recomputes a program output with scipy and numpy alone, by a method
the program does not use: matrix exponentials instead of Runge-Kutta
stepping, adaptive Gauss-Kronrod quadrature instead of composite
Simpson, and scipy's trust-region least squares instead of the
package's Levenberg-Marquardt core.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.optimize import least_squares

HBAR_MEV_NS = 6.582119569e-4   # CODATA hbar in meV ns


def rate_populations(matrix, p0, times):
    """p(t) = expm(t M) p0 at each sample time, shape (len(times), n)."""
    matrix = np.asarray(matrix, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    return np.array([expm(t * matrix) @ p0 for t in times])


def a12_matrix(gamma_rad, gamma_mix, gamma_isc):
    """Two-branch generator: shared radiative loss, symmetric mixing,
    crossing out of the first branch only."""
    return np.array([[-(gamma_rad + gamma_isc + gamma_mix), gamma_mix],
                     [gamma_mix, -(gamma_rad + gamma_mix)]])


def max_relative_error(result, reference):
    result = np.asarray(result, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return float(np.max(np.abs(result - reference)
                        / np.maximum(np.abs(reference), 1e-300)))


def crossing_ratio(energies, values, eta, cutoff, delta):
    """(2/pi) hbar eta integral_0^min(delta, cutoff) w F(delta - w) dw / F(delta),
    with F the linear interpolation of the overlap table (zero outside)."""
    def overlap(energy):
        return np.interp(energy, energies, values, left=0.0, right=0.0)

    upper = min(delta, cutoff)
    knots = [delta - e for e in energies if 0.0 < delta - e < upper]
    integral, _ = quad(lambda w: w * overlap(delta - w), 0.0, upper,
                       points=knots or None, limit=2 * len(knots) + 100,
                       epsabs=0.0, epsrel=1e-12)
    return (2.0 / math.pi) * HBAR_MEV_NS * eta * integral / float(overlap(delta))


def effective_isc_rates(gamma_rad, gamma_a1, gamma_mix,
                        window_start=4.0, window_length=115.0, dt=0.25):
    """Windowed single-exponential rates minus gamma_rad for both branches.

    The two-branch decay comes from expm of the rate generator, and
    A exp(-rate t) is fitted by scipy's least_squares over the window.
    """
    n = int(round(window_length / dt))
    times = window_start + dt * np.arange(n + 1)
    step = expm(dt * a12_matrix(gamma_rad, gamma_mix, gamma_a1))
    start = expm(window_start * a12_matrix(gamma_rad, gamma_mix, gamma_a1))
    rates = []
    for p0 in ((1.0, 0.0), (0.0, 1.0)):
        p = start @ np.array(p0)
        intensity = np.empty(len(times))
        for k in range(len(times)):
            intensity[k] = p.sum()
            p = step @ p
        slope, intercept = np.polyfit(times, np.log(intensity), 1)
        fit = least_squares(
            lambda theta: theta[0] * np.exp(-theta[1] * times) - intensity,
            x0=[math.exp(intercept), -slope], method="trf",
            xtol=1e-15, ftol=1e-15, gtol=1e-15)
        rates.append(float(fit.x[1]) - gamma_rad)
    return tuple(rates)
