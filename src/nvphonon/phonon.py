"""Phonon-driven rates: the two-phonon orbital mixing law, the spectral
density of linear orbital-phonon coupling, and golden-rule crossing rates
from the excited-state branches into the singlet manifold.

The crossing rate out of the branch that couples directly is

    Gamma_a1 = 4 pi hbar lambda_perp^2 F(Delta),

with lambda_perp the transverse spin-orbit coupling and F the phonon
sideband overlap function of the singlet acceptor, evaluated at the
triplet-singlet energy gap Delta. The other branch crosses only through
one-phonon-assisted processes,

    Gamma_e12 = (2/pi) hbar eta Gamma_a1
                * integral_0^min(Delta, Omega) w F(Delta - w) / F(Delta) dw,

where eta w^3 is the phonon spectral density and Omega an acoustic
cutoff. Their ratio is independent of lambda_perp, which is what makes a
measured ratio a constraint on Delta.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    AngularRate,
    EnergyMeV,
    ValidationError,
    energy_value,
    rate_value,
    temperature_value,
)

# The windowed forward model lives in `estimate`, beside the fit that inverts
# it; the package namespace, the tests and the benchmark's span tracer
# (bench/tracer.py) still resolve it as `phonon.effective_isc_rates`.
from .estimate import effective_isc_rates  # noqa: F401


class OverlapSupportError(ValidationError):
    """The overlap function vanishes where the model needs to divide by it."""


# fitted to low-strain NV orbital dynamics; see README for sources
ETA_DEFAULT = AngularRate.from_linear_mhz(44.0)          # per meV^3
GAMMA_RAD_DEFAULT = AngularRate.from_linear_mhz(13.2)


def mixing_rate_t5(eta, temperature):
    """Two-phonon orbital mixing rate (64/pi) hbar alpha eta^2 (kB T)^5.

    Valid in the low-temperature limit where the thermal energy sits well
    below the acoustic cutoff.
    """
    eta_v = rate_value(eta)
    t_v = temperature_value(temperature)
    c = core.CONSTANTS
    return AngularRate((64.0 / math.pi) * c.hbar * c.alpha * eta_v**2 * (c.kb * t_v) ** 5)


def coefficient_from_eta(eta):
    """Map eta to the T^5 prefactor A = (64/pi) hbar alpha eta^2 kB^5."""
    eta_v = rate_value(eta)
    c = core.CONSTANTS
    return AngularRate((64.0 / math.pi) * c.hbar * c.alpha * eta_v**2 * c.kb**5)


def eta_from_coefficient(coefficient):
    """Invert coefficient_from_eta (A in rad/ns per K^5)."""
    a_v = rate_value(coefficient)
    c = core.CONSTANTS
    scale = (64.0 / math.pi) * c.hbar * c.alpha * c.kb**5
    return AngularRate(math.sqrt(a_v / scale))


def mixing_rate_fitform(a, t0, c, temperature):
    """Empirical mixing law A (T - T0)^5 + C, signed.

    This is the form fitted directly to decoherence-vs-temperature data;
    below T0, and for negative C, the value can be negative, so the
    result carries fitted=True. Use mixing_rate_fitform_clamped when a
    physical (nonnegative) rate is needed.
    """
    a_v = float(a) if not isinstance(a, AngularRate) else a.value
    c_v = float(c) if not isinstance(c, AngularRate) else c.value
    t_v = temperature_value(temperature)
    return AngularRate(a_v * (t_v - float(t0)) ** 5 + c_v, fitted=True)


def mixing_rate_fitform_clamped(a, t0, c, temperature):
    """max(A (T - T0)^5 + C, 0) as a physical rate."""
    return AngularRate(max(mixing_rate_fitform(a, t0, c, temperature).value, 0.0))


@dataclass(frozen=True)
class MixingFitForm:
    """Bundled coefficients of the empirical mixing law."""

    a: AngularRate
    t0_k: float
    c: AngularRate

    def evaluate(self, temperature):
        return mixing_rate_fitform(self.a, self.t0_k, self.c, temperature)

    def clamped(self, temperature):
        return mixing_rate_fitform_clamped(self.a, self.t0_k, self.c, temperature)


MIXING_FIT_DEFAULT = MixingFitForm(
    a=AngularRate.from_linear_mhz(2.0e-5, fitted=True),
    t0_k=4.4,
    c=AngularRate.from_linear_mhz(0.08, fitted=True),
)


@dataclass(frozen=True)
class PhononCoupling:
    """Linear orbital-phonon coupling: spectral density J(w) = eta w^3 up
    to an acoustic cutoff (cutoff=None means no cutoff)."""

    eta: AngularRate
    cutoff: EnergyMeV | None = None

    def __post_init__(self):
        eta = self.eta if isinstance(self.eta, AngularRate) else AngularRate(float(self.eta))
        object.__setattr__(self, "eta", eta)
        if self.cutoff is not None:
            object.__setattr__(self, "cutoff", EnergyMeV(energy_value(self.cutoff)))


def spectral_density(coupling, omega):
    """J(w) = eta w^3 for w <= cutoff, zero above."""
    w = energy_value(omega)
    if coupling.cutoff is not None and w > coupling.cutoff.value:
        return AngularRate(0.0)
    return AngularRate(coupling.eta.value * w**3)


@dataclass(frozen=True)
class SpinOrbit:
    """Excited-state spin-orbit couplings: the axial component and the
    transverse-to-axial ratio."""

    lambda_par: AngularRate = AngularRate.from_linear_mhz(5330.0)
    perp_ratio: float = 1.2
    perp_ratio_sigma: float = 0.2

    def __post_init__(self):
        lam = self.lambda_par
        if not isinstance(lam, AngularRate):
            lam = AngularRate(float(lam))
        object.__setattr__(self, "lambda_par", lam)
        if not (self.perp_ratio > 0 and np.isfinite(self.perp_ratio)):
            raise ValidationError("perp_ratio must be finite and > 0")

    @property
    def lambda_perp(self):
        return AngularRate(self.lambda_par.value * self.perp_ratio)


@dataclass(frozen=True)
class OverlapTable:
    """Tabulated phonon sideband overlap function F(E) in 1/meV.

    Piecewise-linear interpolation between knots; zero outside the
    tabulated support.
    """

    energies: np.ndarray
    values: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        f = np.asarray(self.values, dtype=float)
        if e.ndim != 1 or f.ndim != 1 or len(e) != len(f) or len(e) < 2:
            raise ValidationError("overlap table needs >= 2 (energy, value) rows")
        if not np.all(np.isfinite(e)) or not np.all(np.isfinite(f)):
            raise ValidationError("overlap table entries must be finite")
        if np.any(e < 0):
            raise ValidationError("overlap energies must be >= 0 meV")
        if not np.all(np.diff(e) > 0):
            raise ValidationError("overlap energies must be strictly increasing")
        if np.any(f < 0):
            raise ValidationError("overlap values must be >= 0")
        e = e.copy(); e.setflags(write=False)
        f = f.copy(); f.setflags(write=False)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "values", f)

    def interpolate(self, energy):
        """F(E), vectorized; zero outside the tabulated range."""
        e = np.asarray(energy, dtype=float)
        return np.interp(e, self.energies, self.values, left=0.0, right=0.0)

    def integral(self):
        """Trapezoid integral of F over its support."""
        return float(np.trapezoid(self.values, self.energies))

    @classmethod
    def from_csv(cls, path, provenance=None):
        """Read an `energy_mev,f_per_mev` table (`#` lines are comments);
        read errors and bad rows raise ValidationError naming the path."""
        energies, values = [], []
        try:
            with open(path, "r", encoding="utf-8") as handle:
                reader = csv.reader(handle)
                rows = (row for row in reader
                        if row and not row[0].lstrip().startswith("#"))
                if [h.strip() for h in next(rows, [])] != ["energy_mev", "f_per_mev"]:
                    raise ValidationError(f"{path}: expected header 'energy_mev,f_per_mev'")
                for row in rows:
                    try:
                        energy, value = (float(cell) for cell in row)
                    except ValueError as exc:
                        raise ValidationError(f"{path}, line {reader.line_num}: expected "
                                              f"2 numbers, got {row!r}") from exc
                    energies.append(energy)
                    values.append(value)
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ValidationError(f"cannot read overlap table {path}: {reason}") from exc
        return cls(np.array(energies), np.array(values),
                   provenance=provenance if provenance is not None else str(path))

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("energy_mev,f_per_mev\n")
            for e, f in zip(self.energies, self.values):
                handle.write(f"{e:.17g},{f:.17g}\n")

    @classmethod
    def synthetic_default(cls, mode_energy=64.0, width=25.0, weight=3.5,
                          n_peaks=9, grid_step=0.5):
        """Qualitative stand-in sideband: a Poisson-weighted progression of
        Gaussian peaks at multiples of a quasi-local mode energy,
        normalized to unit integral. Clearly labeled synthetic; not a
        measured overlap function.
        """
        top = (n_peaks - 1) * mode_energy + 4.0 * width
        energies = np.arange(0.0, top + grid_step / 2, grid_step)
        values = np.zeros_like(energies)
        for n in range(n_peaks):
            w = math.exp(-weight) * weight**n / math.factorial(n)
            values += w * np.exp(-((energies - n * mode_energy) ** 2) / (2.0 * width**2))
        norm = np.trapezoid(values, energies)
        return cls(energies, values / norm, provenance="synthetic-default")


def isc_rate_a1(spin_orbit, overlap, delta):
    """Direct crossing rate 4 pi hbar lambda_perp^2 F(Delta)."""
    d = energy_value(delta)
    f_at_delta = float(overlap.interpolate(d))
    lam = spin_orbit.lambda_perp.value
    return AngularRate(4.0 * math.pi * core.CONSTANTS.hbar * lam**2 * f_at_delta)


def _simpson_uniform(fn, lower, upper, step):
    """Composite Simpson rule on a uniform grid with step <= `step`."""
    span = upper - lower
    n = max(2, 2 * int(math.ceil(span / (2.0 * step) - 1e-12)))
    x = np.linspace(lower, upper, n + 1)
    y = fn(x)
    h = span / n
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return h / 3.0 * float(np.dot(weights, y))


def _phonon_weighted_overlap(overlap, delta, upper, step):
    """integral_0^upper w * F(delta - w) dw by composite Simpson."""
    return _simpson_uniform(lambda w: w * overlap.interpolate(delta - w),
                            0.0, upper, step)


def crossing_ratio(coupling, overlap, delta, step=0.1, unbounded=False):
    """Predicted Gamma_e12 / Gamma_a1 at gap delta.

    (2/pi) hbar eta integral_0^min(delta, cutoff) w F(delta-w)/F(delta) dw;
    independent of the spin-orbit coupling by construction. With
    unbounded=True the cutoff is ignored (the Omega -> infinity upper
    bound used for exclusion arguments).
    """
    d = energy_value(delta)
    if d <= 0.0:
        return 0.0
    f_at_delta = float(overlap.interpolate(d))
    if f_at_delta <= 0.0:
        raise OverlapSupportError(
            f"overlap function vanishes at delta = {d} meV; the branch "
            "ratio is undefined there"
        )
    if unbounded or coupling.cutoff is None:
        upper = d
    else:
        upper = min(d, coupling.cutoff.value)
    if upper <= 0.0:
        return 0.0
    integral = _phonon_weighted_overlap(overlap, d, upper, step)
    return (2.0 / math.pi) * core.CONSTANTS.hbar * coupling.eta.value * integral / f_at_delta


def isc_rate_e12(coupling, gamma_a1, overlap, delta, step=0.1):
    """One-phonon-assisted crossing rate of the non-coupled branch."""
    ga1 = rate_value(gamma_a1)
    return AngularRate(ga1 * crossing_ratio(coupling, overlap, delta, step=step))


@dataclass(frozen=True)
class RatioScanResult:
    """Per-gap predicted branch ratios and an optional exclusion region."""

    deltas: np.ndarray
    ratios: np.ndarray              # with the coupling's cutoff
    ratios_unbounded: np.ndarray    # cutoff ignored (upper bound)
    excluded: np.ndarray | None = None
    boundary_delta: float | None = None
    boundary_contiguous: bool | None = None


def ratio_scan(coupling, overlap, deltas, measured_ratio=None, measured_sigma=0.0,
               step=0.1):
    """Scan the predicted branch ratio over candidate gaps.

    If a measured ratio (with one-sigma uncertainty) is given, gaps whose
    cutoff-free upper bound falls below the measured lower bound are
    excluded. The exclusion region is checked for contiguity from the
    low-gap end; boundary_delta is the largest excluded gap when it is.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or len(deltas) == 0:
        raise ValidationError("deltas must be a nonempty 1-d array")
    ratios = np.array([crossing_ratio(coupling, overlap, d, step=step) for d in deltas])
    upper = np.array([crossing_ratio(coupling, overlap, d, step=step, unbounded=True)
                      for d in deltas])
    if measured_ratio is None:
        return RatioScanResult(deltas, ratios, upper)
    lower_bound = float(measured_ratio) - float(measured_sigma)
    excluded = upper < lower_bound
    if not np.any(excluded):
        return RatioScanResult(deltas, ratios, upper, excluded, None, True)
    idx = np.nonzero(excluded)[0]
    contiguous = bool(idx[0] == 0 and np.all(np.diff(idx) == 1))
    boundary = float(deltas[idx[-1]]) if contiguous else None
    return RatioScanResult(deltas, ratios, upper, excluded, boundary, contiguous)

