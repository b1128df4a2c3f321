"""Canonical units, physical constants, the photon-count trace container,
and the one-call reader of plain CSV tables (traces, overlap tables).

Unit conventions used throughout the package:

* rates and angular frequencies: rad/ns, displayed as "2 pi x f MHz"
  (a rate quoted as f MHz corresponds to 2*pi*f*1e-3 rad/ns); the factor
  lives here alone: `rate_from_linear_mhz` turns a quoted value into an
  AngularRate, and `to_linear_mhz` turns rad/ns, a float or an array,
  back into MHz
* time: ns
* energy: meV
* temperature: K
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

# value quoted as "f MHz" -> rad/ns
_MHZ_TO_RAD_NS = TWO_PI * 1e-3


class NvphononError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(NvphononError):
    """A value violates a physical or structural precondition."""


@dataclass(frozen=True)
class Constants:
    """Physical constants in canonical units.

    hbar is in meV ns, kb in meV/K. alpha is the dimensionless integral
    coefficient of the two-phonon (Raman) mixing rate for a linear
    spectral density in each phonon branch.
    """

    hbar: float = 6.582119569e-4
    kb: float = 8.617333262e-2
    alpha: float = 25.9


CONSTANTS = Constants()


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class AngularRate:
    """A rate or angular frequency in rad/ns.

    Physical rates (radiative decay, mixing, crossing) are nonnegative.
    Quantities extracted by a fit may legitimately come out negative
    (e.g. an additional-decoherence sample consistent with zero); those
    carry fitted=True.
    """

    value: float
    fitted: bool = False

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        _require_finite("AngularRate", self.value)
        if not self.fitted and self.value < 0.0:
            raise ValidationError(
                f"physical rate must be >= 0, got {self.value} rad/ns "
                "(use fitted=True for signed fit outputs)"
            )

    @classmethod
    def from_linear_mhz(cls, mhz, fitted=False):
        return cls(float(mhz) * _MHZ_TO_RAD_NS, fitted=fitted)

    @property
    def linear_mhz(self):
        """The rate expressed as f in '2 pi x f MHz'."""
        return to_linear_mhz(self.value)

    def __float__(self):
        return self.value


def rate_from_linear_mhz(mhz, fitted=False):
    """Build an AngularRate from a frequency quoted in MHz (as 2 pi x f)."""
    return AngularRate.from_linear_mhz(mhz, fitted=fitted)


def to_linear_mhz(rate):
    """A rate in rad/ns, a float or an array, as f in '2 pi x f MHz'."""
    return rate / _MHZ_TO_RAD_NS


def rate_value(rate):
    """Accept an AngularRate or a bare float in rad/ns and return the float."""
    if isinstance(rate, AngularRate):
        return rate.value
    value = float(rate)
    _require_finite("rate", value)
    return value


@dataclass(frozen=True)
class EnergyMeV:
    """An energy in meV. Phonon energies and splittings are nonnegative."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        _require_finite("EnergyMeV", self.value)
        if self.value < 0.0:
            raise ValidationError(f"energy must be >= 0 meV, got {self.value}")

    @classmethod
    def from_ghz(cls, ghz):
        """Convert a frequency in GHz to an energy via E = hbar * (2 pi f)."""
        return cls(CONSTANTS.hbar * TWO_PI * float(ghz))

    @property
    def ghz(self):
        return self.value / (CONSTANTS.hbar * TWO_PI)

    def __float__(self):
        return self.value


def energy_value(energy):
    """Accept an EnergyMeV or a bare float in meV and return the float."""
    if isinstance(energy, EnergyMeV):
        return energy.value
    value = float(energy)
    _require_finite("energy", value)
    if value < 0.0:
        raise ValidationError(f"energy must be >= 0 meV, got {value}")
    return value


@dataclass(frozen=True)
class TemperatureK:
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        _require_finite("TemperatureK", self.value)
        if self.value < 0.0:
            raise ValidationError(f"temperature must be >= 0 K, got {self.value}")

    def __float__(self):
        return self.value


def temperature_value(temperature):
    if isinstance(temperature, TemperatureK):
        return temperature.value
    value = float(temperature)
    _require_finite("temperature", value)
    if value < 0.0:
        raise ValidationError(f"temperature must be >= 0 K, got {value}")
    return value


def thermal_energy(temperature):
    """kB * T as an EnergyMeV."""
    return EnergyMeV(CONSTANTS.kb * temperature_value(temperature))


def read_plain_csv(path, dtypes):
    """Read a plain CSV table in one np.loadtxt call: (the header's stripped
    cells, a structured array with one field f0, f1, ... per column), or
    None where a row-by-row reader must take the file.

    Plain means the file is UTF-8, the header is its first line and holds
    no quote, no line is longer than csv.reader's field limit, and every
    data line holds exactly one number per column. `dtypes(header)` gives
    each column's dtype, or None to decline the header; it may also raise
    to refuse a bad header before any row is parsed. Anything else (comment
    rows, quoted cells, forms only float()/int() read, any loadtxt error)
    gives None, so that the row reader reads the file or names its bad
    line. comments=None keeps numpy from cutting a row at a '#'.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().split("\n")
    except (OSError, ValueError):  # ValueError: not UTF-8
        return None
    if '"' in lines[0] or max(map(len, lines)) > csv.field_size_limit():
        return None
    header = [cell.strip() for cell in lines[0].split(",")]
    types = dtypes(header)
    if types is None:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on no data rows
            table = np.loadtxt(lines, dtype=[(f"f{i}", t) for i, t in enumerate(types)],
                               delimiter=",", comments=None, skiprows=1, ndmin=1)
    except (ValueError, Warning):
        return None
    return header, table


def _read_only(arr):
    arr = np.array(arr, copy=True)
    arr.setflags(write=False)
    return arr


def _check_finite_values(values):
    """Refuse float trace values that hold a nan or an inf."""
    if not np.isfinite(values).all():
        raise ValidationError("trace values must be finite")


@dataclass(frozen=True)
class TimeTrace:
    """A sampled time trace: photon counts per bin or normalized intensity.

    Parameters
    ----------
    times : array
        Sample times in ns (bin centers for histogrammed counts),
        strictly increasing.
    values : array
        Counts (nonnegative integers before background subtraction) or
        intensity samples.
    uncertainty : array, optional
        One-sigma uncertainty per sample.
    temperature : float, optional
        Sample temperature in K.
    channel : str, optional
        Polarization channel label (e.g. "x" or "y"); a lifetime trace
        carries its initial branch here, "A1" or "A2"
        (`estimate.fit_gamma_a1_traces` reads it).
    background_subtracted : bool
        Whether a background trace has already been subtracted.
    clamped_bins : int
        Number of bins clamped to zero during background subtraction.

    The constructor copies its arrays, marks them read-only and checks
    them. Traces the package makes from arrays it has just checked (the
    evolvers' populations and coherence, and windows) are checked once,
    where their arrays are made, and share those read-only arrays without
    a second copy.
    """

    times: np.ndarray
    values: np.ndarray
    uncertainty: np.ndarray | None = None
    temperature: float | None = None
    channel: str | None = None
    background_subtracted: bool = False
    clamped_bins: int = 0

    def __post_init__(self):
        times = _read_only(np.asarray(self.times, dtype=float))
        values = np.asarray(self.values)
        if times.ndim != 1 or values.ndim != 1 or len(times) != len(values):
            raise ValidationError("times and values must be 1-d arrays of equal length")
        if len(times) == 0:
            raise ValidationError("empty trace")
        # strictly increasing times between finite endpoints are all finite
        # (a comparison with nan is false), so isfinite runs only to choose
        # the message of a refusal
        if not ((times[1:] > times[:-1]).all() and math.isfinite(times[0])
                and math.isfinite(times[-1])):
            if not np.isfinite(times).all():
                raise ValidationError("trace times must be finite")
            raise ValidationError("trace times must be strictly increasing")
        if values.dtype.kind in "iu":  # integer counts
            if not self.background_subtracted and values.min() < 0:
                raise ValidationError("count traces must be >= 0 before subtraction")
        else:
            _check_finite_values(np.asarray(values, dtype=float))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", _read_only(values))
        if self.uncertainty is not None:
            sigma = _read_only(np.asarray(self.uncertainty, dtype=float))
            if sigma.shape != times.shape:
                raise ValidationError("uncertainty must match times in length")
            if not np.all(np.isfinite(sigma)) or np.any(sigma < 0):
                raise ValidationError("uncertainty must be finite and >= 0")
            object.__setattr__(self, "uncertainty", sigma)

    def __len__(self):
        return len(self.times)

    @classmethod
    def _made(cls, times, values, like=None, uncertainty=None):
        """A trace of arrays the package made and checked: the arrays are
        marked read-only, neither copied nor checked again. The other
        fields are those of the trace `like`, or else the class defaults."""
        trace = object.__new__(cls)
        if like is not None:
            vars(trace).update(vars(like))
        vars(trace).update(times=times, values=values, uncertainty=uncertainty)
        for array in (times, values, uncertainty):
            if array is not None:
                array.setflags(write=False)
        return trace

    def window(self, start, length):
        """Return the sub-trace with start <= t <= start + length.

        The sub-trace holds read-only views of this trace's arrays; a
        contiguous slice of a validated trace is valid, so it is not
        checked again.
        """
        if length <= 0:
            raise ValidationError("window length must be > 0")
        # times are sorted, so the samples in the window are one slice
        stop = start + length
        first = int(self.times.searchsorted(start, side="left"))
        end = int(self.times.searchsorted(stop, side="right"))
        if not (first < end and stop >= start):  # a NaN bound selects none
            raise ValidationError("window selects no samples")
        sigma = self.uncertainty
        return self._made(self.times[first:end], self.values[first:end], like=self,
                          uncertainty=None if sigma is None else sigma[first:end])
