"""Canonical units, physical constants, the photon-count trace container,
and the CSV layer every table file goes through (traces, points, overlap
tables, sweep tables and fit reports).

Unit conventions used throughout the package:

* rates and angular frequencies: rad/ns, displayed as "2 pi x f MHz"
  (a rate quoted as f MHz corresponds to 2*pi*f*1e-3 rad/ns); the factor
  lives here alone: `rate_from_linear_mhz` turns a quoted value into an
  AngularRate, and `to_linear_mhz` turns rad/ns, a float or an array,
  back into MHz
* time: ns
* energy: meV
* temperature: K

CSV rules shared by every table, read or written (each caller keeps only
its header and its column converters):

* reading: UTF-8, `csv.reader` (quoted cells; LF, CR or CRLF line ends),
  blank rows and rows whose first cell starts with `#` skipped, cells
  stripped of whitespace, the first row left the header
  (`read_csv_rows`); then every data row as wide as the header, each kept
  column through its converter (`csv_columns`). A plain file takes one
  np.loadtxt call instead (`read_plain_csv`) and falls back to the rows.
* errors: one `CsvFormatError`, worded ``path:line: ...`` (line the
  physical line, as csv.reader counts it) or ``cannot read path: ...``.
* writing: the header through csv.writer, then the rows in blocks of one
  %-format each ('%.17g' floats round-trip bit for bit), CRLF line ends
  (`write_csv_columns`); an unwritable path is a ValidationError naming it.
"""

from __future__ import annotations

import contextlib
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


class CsvFormatError(ValidationError):
    """A CSV file that cannot be read, or a row or cell that breaks its
    table's format."""


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


def read_csv_rows(path):
    """The rows of a CSV table, one (line, stripped cells) pair each, the
    header first: csv.reader over the UTF-8 text, blank rows and rows whose
    first cell starts with '#' skipped, line the physical line a row ends
    on. A file that cannot be opened or decoded, a row csv.reader refuses
    (a cell over csv.field_size_limit(), say) and a file with no header
    row raise CsvFormatError."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            try:
                rows = [(reader.line_num, [cell.strip() for cell in row])
                        for row in reader
                        if row and not row[0].lstrip().startswith("#")]
            except csv.Error as exc:
                raise CsvFormatError(f"{path}:{reader.line_num}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise CsvFormatError(f"cannot read {path}: {reason}") from exc
    if not rows:
        raise CsvFormatError(f"{path}:{reader.line_num + 1}: no header row")
    return rows


def csv_columns(path, rows, converters, header=None):
    """The columns of the data rows below rows[0], the header, as
    read_csv_rows gives them: one list for each column index of
    `converters`, {index: converter}, in that order, each cell converted by
    its column's converter. With `header` given, the header must be that
    list. A header that is not, a row of another width than the header
    and a cell its converter refuses (ValueError or ValidationError) raise
    CsvFormatError naming the line; no data rows give empty columns."""
    header_line, names = rows[0]
    if header is not None and names != list(header):
        raise CsvFormatError(f"{path}:{header_line}: expected header "
                             f"{','.join(header)}, got {','.join(names)}")
    columns = {index: [] for index in converters}
    for line, row in rows[1:]:
        if len(row) != len(names):
            raise CsvFormatError(
                f"{path}:{line}: expected {len(names)} fields, got {len(row)}")
        for index, convert in converters.items():
            try:
                columns[index].append(convert(row[index]))
            except (ValueError, ValidationError) as exc:
                raise CsvFormatError(f"{path}:{line}: bad {names[index]} "
                                     f"{row[index]!r}: {exc}") from exc
    return list(columns.values())


@contextlib.contextmanager
def _csv_output(path):
    """A new output file opened for CSV; failing to open or write it is an
    input error naming the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle
    except OSError as exc:
        raise ValidationError(
            f"cannot write {path}: {exc.strerror or exc}") from exc


# Rows formatted per write, so a table at the synth.MAX_SAMPLES cap is
# written in bounded memory rather than as one string.
_ROWS_PER_WRITE = 1 << 16


def write_csv_columns(path, header, columns, formats):
    """Write equal-length columns as a CSV: the header row as csv.writer
    writes it, then the rows in blocks of _ROWS_PER_WRITE, each block one
    %-format of the row format repeated over its cells in row order
    ('%.17g' for floats, '%d' for counts, '%s' for text, csv.writer's CRLF
    line end): the same format applied to each cell as one % per row
    would. Text cells are written as they are, unquoted."""
    columns = [np.asarray(column) for column in columns]
    if any(len(column) != len(columns[0]) for column in columns):
        raise ValueError("columns differ in length")
    line = ",".join(formats) + "\r\n"
    width = len(columns)
    with _csv_output(path) as handle:
        csv.writer(handle).writerow(header)
        for start in range(0, len(columns[0]), _ROWS_PER_WRITE):
            rows = min(_ROWS_PER_WRITE, len(columns[0]) - start)
            cells = [None] * (rows * width)
            for j, column in enumerate(columns):
                cells[j::width] = column[start:start + rows].tolist()
            handle.write((line * rows) % tuple(cells))


def _read_only(arr):
    arr = np.array(arr, copy=True)
    arr.setflags(write=False)
    return arr


def _check_finite_values(values):
    """Refuse float trace values that hold a nan or an inf."""
    if not np.isfinite(values).all():
        raise ValidationError("trace values must be finite")


def _check_trace_arrays(times, values, background_subtracted=False):
    """Refuse the arrays of a trace that `TimeTrace` refuses: times, a float
    array, that are not 1-d, finite and strictly increasing, or values
    that differ from them in length, float values that are not finite,
    and integer counts below 0 before background subtraction."""
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
        if not background_subtracted and values.min() < 0:
            raise ValidationError("count traces must be >= 0 before subtraction")
    else:
        _check_finite_values(np.asarray(values, dtype=float))


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
    evolvers' populations and coherence, windows, and the histograms of
    `synth.generate` and `synth.generate_background_pair`) are checked
    once, where their arrays are made, and share those read-only arrays
    without a second copy.
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
        _check_trace_arrays(times, values, self.background_subtracted)
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
