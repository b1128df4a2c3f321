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
measured ratio a constraint on Delta. F is a piecewise-linear table, so
the integral is evaluated exactly, for every gap of a scan in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    AngularRate,
    EnergyMeV,
    ValidationError,
    csv_columns,
    energy_value,
    rate_value,
    read_csv_rows,
    read_plain_csv,
    temperature_value,
    write_csv_columns,
)

# The windowed forward model lives in `estimate`, beside the fit that inverts
# it; the package namespace, the tests and the benchmark's span tracer
# (bench/tracer.py) still resolve it as `phonon.effective_isc_rates`.
from .estimate import effective_isc_rates  # noqa: F401


class OverlapSupportError(ValidationError):
    """The overlap function vanishes where the model needs to divide by it."""


# fitted to low-strain NV orbital dynamics; see README for sources
ETA_DEFAULT = AngularRate.from_linear_mhz(44.0)          # per meV^3


def _law_value(evaluate, law, where, *inputs):
    """evaluate() of a rate law in Python floats, whose ** raises on
    overflow and whose * overflows to inf; either is refused, naming the
    law and its inputs by the format string `where`."""
    try:
        value = evaluate()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError(f"{law} overflows at " + where.format(*inputs))
    return value


def mixing_rate_t5(eta, temperature):
    """Two-phonon orbital mixing rate (64/pi) hbar alpha eta^2 (kB T)^5.

    Valid in the low-temperature limit where the thermal energy sits well
    below the acoustic cutoff.
    """
    eta_v = rate_value(eta)
    t_v = temperature_value(temperature)
    c = core.CONSTANTS
    return AngularRate(_law_value(
        lambda: (64.0 / math.pi) * c.hbar * c.alpha * eta_v**2 * (c.kb * t_v) ** 5,
        "mixing law", "T = {:g} K, eta = {:g} rad/ns", t_v, eta_v))


def coefficient_from_eta(eta):
    """Map eta to the T^5 prefactor A = (64/pi) hbar alpha eta^2 kB^5."""
    eta_v = rate_value(eta)
    c = core.CONSTANTS
    return AngularRate(_law_value(
        lambda: (64.0 / math.pi) * c.hbar * c.alpha * eta_v**2 * c.kb**5,
        "mixing law", "eta = {:g} rad/ns", eta_v))


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
    return AngularRate(_law_value(lambda: a_v * (t_v - float(t0)) ** 5 + c_v,
                                  "mixing law", "T = {:g} K", t_v), fitted=True)


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
        object.__setattr__(self, "eta", AngularRate(rate_value(self.eta)))
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

    def __post_init__(self):
        object.__setattr__(self, "lambda_par", AngularRate(rate_value(self.lambda_par)))
        if not (self.perp_ratio > 0 and np.isfinite(self.perp_ratio)):
            raise ValidationError("perp_ratio must be finite and > 0")

    @property
    def lambda_perp(self):
        return AngularRate(self.lambda_par.value * self.perp_ratio)


_OVERLAP_HEADER = ["energy_mev", "f_per_mev"]
# the synthetic sideband's mean phonon number, peak count and grid step (meV)
_SIDEBAND_WEIGHT = 3.5
_SIDEBAND_PEAKS = 9
_SIDEBAND_STEP = 0.5


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
        # the slopes and the cumulative tables `_crossing_integral` reads:
        # C0 = integral of F and H = integral of C0, each exact per segment,
        # summed up from the first knot and (the *_up twins) down from the last
        h = np.diff(e)
        with np.errstate(over="ignore", invalid="ignore"):
            area = 0.5 * h * (f[:-1] + f[1:])
            bend = h**2 * (2.0 * f[:-1] + f[1:]) / 6.0  # integral of C0 - C0(e_k)
            c0 = np.concatenate([[0.0], np.cumsum(area)])
            hc = np.concatenate([[0.0], np.cumsum(h * c0[:-1] + bend)])
            c0_up = np.concatenate([-np.cumsum(area[::-1])[::-1], [0.0]])
            hc_up = np.concatenate([-np.cumsum((h * c0_up[:-1] + bend)[::-1])[::-1],
                                    [0.0]])
            slope = np.diff(f) / h
        if not all(np.isfinite(table).all() for table in (c0, hc, c0_up, hc_up, slope)):
            raise ValidationError("overlap table's slopes or cumulative integrals overflow")
        for name, table in (("energies", e.copy()), ("values", f.copy()),
                            ("_slope", slope), ("_c0", c0), ("_hc", hc),
                            ("_c0_up", c0_up), ("_hc_up", hc_up)):
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    def interpolate(self, energy):
        """F(E), vectorized; zero outside the tabulated range."""
        e = np.asarray(energy, dtype=float)
        return np.interp(e, self.energies, self.values, left=0.0, right=0.0)

    def integral(self):
        """Trapezoid integral of F over its support."""
        return float(np.trapezoid(self.values, self.energies))

    @classmethod
    def from_csv(cls, path, provenance=None):
        """Read an `energy_mev,f_per_mev` table.

        A plain file (the header on the first line, two numbers on every
        other; see core.read_plain_csv) is read in one np.loadtxt call.
        Any other file is read row by row under the CSV rules of `core`,
        as a trace is: an unreadable file or a bad row raises
        CsvFormatError naming the path and, for a row, its line. A table
        the constructor refuses raises ValidationError naming the path.
        """
        energies, values = _read_overlap_file(path)
        try:
            return cls(energies, values,
                       provenance=provenance if provenance is not None else str(path))
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc

    def to_csv(self, path):
        """Write the table as `energy_mev,f_per_mev` rows through
        core.write_csv_columns (%.17g, CRLF line ends), so from_csv reads
        back the same bits; an unwritable path raises ValidationError
        naming it."""
        write_csv_columns(path, _OVERLAP_HEADER, [self.energies, self.values],
                          ["%.17g", "%.17g"])

    @classmethod
    def synthetic_default(cls, mode_energy=64.0, width=25.0):
        """Qualitative stand-in sideband: a progression of Gaussian peaks at
        the first _SIDEBAND_PEAKS multiples of a quasi-local mode energy,
        Poisson-weighted with mean _SIDEBAND_WEIGHT, sampled every
        _SIDEBAND_STEP meV and normalized to unit integral. Clearly labeled
        synthetic; not a measured overlap function.
        """
        top = (_SIDEBAND_PEAKS - 1) * mode_energy + 4.0 * width
        energies = np.arange(0.0, top + _SIDEBAND_STEP / 2, _SIDEBAND_STEP)
        values = np.zeros_like(energies)
        for n in range(_SIDEBAND_PEAKS):
            w = (math.exp(-_SIDEBAND_WEIGHT) * _SIDEBAND_WEIGHT**n
                 / math.factorial(n))
            values += w * np.exp(-((energies - n * mode_energy) ** 2) / (2.0 * width**2))
        norm = np.trapezoid(values, energies)
        return cls(energies, values / norm, provenance="synthetic-default")


def _read_overlap_rows(path):
    """(energies, values) of an overlap table CSV, read one row at a time
    (core.read_csv_rows)."""
    energies, values = csv_columns(path, read_csv_rows(path), {0: float, 1: float},
                                   _OVERLAP_HEADER)
    return np.array(energies), np.array(values)


def _read_overlap_file(path):
    """(energies, values) of an overlap table CSV: a plain file in one
    np.loadtxt call, any other through _read_overlap_rows."""
    plain = read_plain_csv(
        path, lambda header: [float, float] if header == _OVERLAP_HEADER else None)
    if plain is None:
        return _read_overlap_rows(path)
    return plain[1]["f0"], plain[1]["f1"]


def _gaps(delta):
    """delta, a gap or an array of gaps, as a float array (0-d for a
    scalar), each gap checked as energy_value checks one."""
    d = np.asarray(energy_value(delta) if np.ndim(delta) == 0 else delta, dtype=float)
    bad = ~np.isfinite(d) | (d < 0.0)
    if bad.any():
        energy_value(d[bad][0])  # raises core's message for the first bad gap
    return d


def isc_rate_a1(spin_orbit, overlap, delta):
    """Direct crossing rate 4 pi hbar lambda_perp^2 F(Delta): an AngularRate
    at a scalar gap, or floats in rad/ns at each gap of an array."""
    f_at_delta = overlap.interpolate(_gaps(delta))
    lam = spin_orbit.lambda_perp.value
    scale = _law_value(lambda: 4.0 * math.pi * core.CONSTANTS.hbar * lam**2,
                       "crossing rate", "lambda_perp = {:g} rad/ns", lam)
    rate = scale * f_at_delta
    return AngularRate(float(rate)) if rate.ndim == 0 else rate


def _crossing_integral(overlap, delta, span):
    """integral_{delta-span}^{delta} (delta - u) F(u) du, elementwise and
    exact for the piecewise-linear F.

    With C0(x) = integral_{-inf}^x F and H(x) = integral_{-inf}^x C0, both
    cumulative over the knots and exact on each segment, the integral is
    H(delta) - H(a) - span C0(a) at a = delta - span. That difference keeps
    the rounding of the running sums, which would swamp a short span's
    small integral in F's upper tail. The identity holds as well for C0
    and H less any linear function, so gaps above the median of F read
    tables summed down from the top end instead (C0 - C0(+inf) and its
    integral from +inf). The table builds all four once.
    """
    e, f, slope = overlap.energies, overlap.values, overlap._slope
    x = np.stack([delta, delta - span])
    # F vanishes off the support: clip into it, then carry C0 on linearly
    inside = np.clip(x, e[0], e[-1])
    k = np.clip(np.searchsorted(e, inside, side="right") - 1, 0, len(e) - 2)
    tau = inside - e[k]

    def integral(c0, hc):
        c0_x = c0[k] + tau * (f[k] + 0.5 * slope[k] * tau)
        h_x = (hc[k] + tau * c0[k] + tau**2 * (0.5 * f[k] + slope[k] * tau / 6.0)
               + (x - inside) * c0_x)
        return h_x[0] - h_x[1] - span * c0_x[1]

    c0 = overlap._c0
    return np.where(c0[k[0]] <= 0.5 * c0[-1], integral(c0, overlap._hc),
                    integral(overlap._c0_up, overlap._hc_up))


def crossing_ratio(coupling, overlap, delta, unbounded=False):
    """Predicted Gamma_e12 / Gamma_a1 at gap delta, or at each gap of an
    array of gaps (a float for a scalar gap).

    (2/pi) hbar eta integral_0^min(delta, cutoff) w F(delta-w)/F(delta) dw,
    integrated exactly for the piecewise-linear overlap table;
    independent of the spin-orbit coupling by construction. With
    unbounded=True the cutoff is ignored (the Omega -> infinity upper
    bound used for exclusion arguments). A zero gap gives 0; a gap where
    F vanishes raises OverlapSupportError.
    """
    d = _gaps(delta)
    positive = d > 0.0
    f_at_delta = overlap.interpolate(d)
    vanishing = positive & (f_at_delta <= 0.0)
    if vanishing.any():
        raise OverlapSupportError(
            f"overlap function vanishes at delta = {float(d[vanishing][0])} "
            "meV; the branch ratio is undefined there"
        )
    if unbounded or coupling.cutoff is None:
        span = d
    else:
        span = np.minimum(d, coupling.cutoff.value)
    integral = _crossing_integral(overlap, d, span)
    # a zero gap has a zero span and so an exactly zero integral
    ratio = ((2.0 / math.pi) * core.CONSTANTS.hbar * coupling.eta.value * integral
             / np.where(positive, f_at_delta, 1.0))
    return float(ratio) if ratio.ndim == 0 else ratio


def isc_rate_e12(coupling, gamma_a1, overlap, delta):
    """One-phonon-assisted crossing rate of the non-coupled branch."""
    ga1 = rate_value(gamma_a1)
    return AngularRate(ga1 * crossing_ratio(coupling, overlap, delta))


@dataclass(frozen=True)
class RatioScanResult:
    """Per-gap predicted branch ratios and an optional exclusion region."""

    deltas: np.ndarray
    ratios: np.ndarray              # with the coupling's cutoff
    ratios_unbounded: np.ndarray    # cutoff ignored (upper bound)
    excluded: np.ndarray | None = None
    boundary_delta: float | None = None
    boundary_contiguous: bool | None = None


def ratio_scan(coupling, overlap, deltas, measured_ratio=None, measured_sigma=0.0):
    """Scan the predicted branch ratio over candidate gaps.

    If a measured ratio (with one-sigma uncertainty) is given, gaps whose
    cutoff-free upper bound falls below the measured lower bound are
    excluded. The exclusion region is checked for contiguity from the
    low-gap end; boundary_delta is the largest excluded gap when it is.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or len(deltas) == 0:
        raise ValidationError("deltas must be a nonempty 1-d array")
    ratios = crossing_ratio(coupling, overlap, deltas)
    upper = crossing_ratio(coupling, overlap, deltas, unbounded=True)
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

