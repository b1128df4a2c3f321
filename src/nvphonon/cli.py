"""Command-line interface: simulate, fit, sweep, verify.

Exit codes: 0 success, 1 verification failure, 2 invalid input or
config (an output file that cannot be written included), 3 model
construction error, 4 fit non-convergence (the report is still written,
flagged converged=false).

Config files are plain ``key = value`` lines with ``#`` comments.
Every key must appear in the registry below; unknown keys are rejected
with their line number. Rates are given in linear MHz (the 2pi factor
is applied internally), times in ns, energies in meV.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import math
import sys
import warnings

import numpy as np

from . import closedform, dynamics, estimate, phonon, synth, verify
from .core import (AngularRate, EnergyMeV, TimeTrace, ValidationError,
                   rate_from_linear_mhz)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_MODEL = 3
EXIT_NO_CONVERGENCE = 4

# Most samples a time grid, sweep grid or synthetic histogram may hold (80 MB
# per float64 column); larger requests are input errors, refused unallocated.
MAX_SAMPLES = 10_000_000
# Most multiply-adds the pulse-edge convolution of a synthetic histogram may
# cost. np.convolve's work grows as samples x kernel taps, so a wide edge over
# fine bins is slow well inside MAX_SAMPLES (a 3000 ns edge on 0.25 ns bins,
# 1.7e9 terms, took 1.3 s on a 2-CPU host); 1e9 still admits 1 ps bins
# under a 2 ns edge (8.6e8).
MAX_CONVOLUTION_TERMS = 1_000_000_000


class ConfigError(ValidationError):
    """Malformed config file or rejected key/value."""


class TraceFormatError(ValidationError):
    """Malformed trace or points CSV."""


def _fmt(x):
    return format(float(x), ".17g")


def _check_sample_count(count, what):
    if not count <= MAX_SAMPLES:  # count is a float and may be inf
        raise ConfigError(f"{what} would hold {count:.3g} samples "
                          f"(limit {MAX_SAMPLES})")


# ---------------------------------------------------------------------------
# config registry

def _conv_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _conv_nonneg_float(text):
    value = _conv_float(text)
    if value < 0.0:
        raise ValueError("must be >= 0")
    return value


def _conv_pos_float(text):
    value = _conv_float(text)
    if value <= 0.0:
        raise ValueError("must be > 0")
    return value


def _conv_pos_int(text):
    value = int(text)
    if value <= 0:
        raise ValueError("must be a positive integer")
    return value


def _conv_nonneg_int(text):
    value = int(text)
    if value < 0:
        raise ValueError("must be a non-negative integer")
    return value


def _conv_rate_mhz(text):
    return rate_from_linear_mhz(_conv_float(text))


def _conv_signed_rate_mhz(text):
    # detunings and fit-form offsets may be negative
    return _conv_float(text) * 2.0e-3 * math.pi


def _conv_str(text):
    return text


def _conv_choice(*options):
    def convert(text):
        if text not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return text
    return convert


# key -> (converter, description); descriptions surface in error text
CONFIG_KEYS = {
    # model semantics (names, branches) are checked by the builders so
    # that a bad choice exits 3 (model error) rather than 2 (config)
    "model.name": (_conv_str, f"signal model: {', '.join(synth.MODEL_NAMES)}"),
    "model.branch": (_conv_str, "intersystem branch: A1, A2 or both"),
    "model.channel": (_conv_str, "polarization channel: bright, dark or both"),
    "model.observable": (_conv_str,
                         "three-level observable: fluorescence, x, y or g"),
    "model.rate_mhz": (_conv_rate_mhz, "plain exponential decay rate"),
    "model.amplitude": (_conv_pos_float, "overall scale"),
    "model.epsilon": (_conv_nonneg_float, "polarization leakage, 0..0.5"),
    "model.phi": (_conv_float, "oscillation phase, rad"),
    "model.t0_ns": (_conv_float, "time offset"),
    "model.tau_rabi_ns": (_conv_pos_float, "envelope decay time"),
    "rates.gamma_rad_mhz": (_conv_rate_mhz, "radiative decay of |x>"),
    "rates.gamma_rad_y_mhz": (_conv_rate_mhz, "radiative decay of |y>"),
    "rates.gamma_mix_mhz": (_conv_rate_mhz, "orbital mixing x->y"),
    "rates.gamma_mix_yx_mhz": (_conv_rate_mhz, "orbital mixing y->x"),
    "rates.gamma_t2_mhz": (_conv_rate_mhz, "extra pure dephasing"),
    "rates.gamma_isc_mhz": (_conv_rate_mhz, "branch-selective crossing rate"),
    "rates.gamma_isc_x_mhz": (_conv_rate_mhz, "crossing out of |x>"),
    "rates.rabi_mhz": (_conv_rate_mhz, "optical drive frequency"),
    "rates.detuning_mhz": (_conv_signed_rate_mhz, "drive detuning (signed)"),
    "rates.gamma_a1_mhz": (_conv_rate_mhz, "crossing rate from the upper branch"),
    "grid.start_ns": (_conv_nonneg_float, "first sample time"),
    "grid.span_ns": (_conv_pos_float, "sampled duration"),
    "grid.step_ns": (_conv_pos_float, "sample spacing"),
    "window.start_ns": (_conv_nonneg_float, "fit window start"),
    "window.length_ns": (_conv_pos_float, "fit window length"),
    "fit.max_iter": (_conv_pos_int, "iteration cap"),
    "fit.weights": (_conv_choice("uniform", "poisson", "provided"),
                    "residual weighting"),
    "phonon.eta_mhz_per_mev3": (_conv_rate_mhz, "spectral density scale"),
    "phonon.cutoff_mev": (_conv_pos_float, "spectral density cutoff"),
    "phonon.delta_mev": (_conv_nonneg_float, "crossing gap"),
    "phonon.lambda_par_ghz": (_conv_pos_float, "axial spin-orbit splitting"),
    "phonon.lambda_perp_ratio": (_conv_pos_float, "transverse/axial ratio"),
    "t5.a_mhz_per_k5": (_conv_signed_rate_mhz, "fit-form T^5 coefficient"),
    "t5.t0_k": (_conv_float, "fit-form temperature offset"),
    "t5.c_mhz": (_conv_signed_rate_mhz, "fit-form residual rate"),
    "synth.total_counts": (_conv_pos_float, "expected photons in the trace"),
    "synth.background_per_bin": (_conv_nonneg_float, "flat background level"),
    "synth.bin_ns": (_conv_pos_float, "histogram bin width"),
    "synth.span_ns": (_conv_pos_float, "histogram span"),
    "synth.pulse_edge_ns": (_conv_nonneg_float, "excitation edge FWHM"),
    "synth.seed": (_conv_nonneg_int, "photon noise seed"),
    "files.overlap_table": (_conv_str, "vibrational overlap CSV path"),
    "trace.background": (_conv_str, "background trace CSV path"),
    "trace.reject_before_ns": (_conv_float, "drop bins before this time"),
    "trace.column": (_conv_str, "value column for multi-column traces"),
    "trace.normalization": (_conv_pos_float, "divide loaded counts by this"),
    "depol.temp_cold_k": (_conv_pos_float, "cold trace temperature"),
    "depol.temp_warm_k": (_conv_pos_float, "warm trace temperature"),
    "depol.gamma_mix_cold_mhz": (_conv_rate_mhz, "mixing rate at the cold point"),
    "depol.gamma_mix_warm_mhz": (_conv_rate_mhz, "mixing rate at the warm point"),
    "sweep.axis": (_conv_choice("T", "delta"), "sweep variable"),
    "sweep.lo": (_conv_float, "sweep start"),
    "sweep.hi": (_conv_float, "sweep end"),
    "sweep.step": (_conv_pos_float, "sweep spacing"),
}


def parse_config(path):
    """Read a ``key = value`` config file into a plain dict.

    Raises ConfigError naming the offending line for unknown keys,
    duplicate keys, missing '=' separators, or rejected values.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cfg = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in cfg:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        converter, description = CONFIG_KEYS[key]
        try:
            cfg[key] = converter(value)
        except (ValueError, ValidationError) as exc:
            raise ConfigError(
                f"{path}:{lineno}: bad value for {key} ({description}): {exc}"
            ) from exc
    return cfg


def _require(cfg, key, context):
    if key not in cfg:
        raise ConfigError(f"missing config key {key!r} (required for {context})")
    return cfg[key]


# ---------------------------------------------------------------------------
# trace CSV I/O

def _read_csv_rows(path):
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            raw_rows = list(csv.reader(handle))
    except OSError as exc:
        raise TraceFormatError(f"cannot read {path}: {exc}") from exc
    rows = []
    for lineno, row in enumerate(raw_rows, start=1):
        if not row or row[0].lstrip().startswith("#"):
            continue
        rows.append((lineno, [cell.strip() for cell in row]))
    if not rows:
        raise TraceFormatError(f"{path}: no data rows")
    return rows


def _trace_layout(path, header_line, header, column):
    """Check a trace header; returns (index of the value column, is_counts)."""
    if not header or header[0] != "time_ns":
        raise TraceFormatError(
            f"{path}:{header_line}: first column must be 'time_ns'")
    value_names = header[1:]
    if not value_names:
        raise TraceFormatError(f"{path}:{header_line}: no value column")
    if column is None:
        if len(value_names) > 1:
            raise TraceFormatError(
                f"{path}:{header_line}: {len(value_names)} value columns; "
                f"pick one with trace.column (available: {', '.join(value_names)})")
        column = value_names[0]
    if column not in value_names:
        raise TraceFormatError(
            f"{path}:{header_line}: no column {column!r} "
            f"(available: {', '.join(value_names)})")
    return 1 + value_names.index(column), _is_counts(column)


def _is_counts(name):
    return name == "counts" or name.startswith("counts_")


_INT64 = np.iinfo(np.int64)


def _parse_trace_rows(path, column=None):
    """Parse a trace CSV one row at a time; returns (times, values, is_counts).

    Reads every form csv.reader and float()/int() accept: comment and
    blank rows, a header below them, quoted cells, '1_0' and Unicode
    digits. Only the time and the selected column are converted. The
    first bad row is named by its line.
    """
    rows = _read_csv_rows(path)
    header_line, header = rows[0]
    index, is_counts = _trace_layout(path, header_line, header, column)
    times = []
    values = []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise TraceFormatError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            times.append(float(row[0]))
        except ValueError as exc:
            raise TraceFormatError(f"{path}:{lineno}: bad time {row[0]!r}") from exc
        try:
            value = int(row[index]) if is_counts else float(row[index])
        except ValueError as exc:
            raise TraceFormatError(
                f"{path}:{lineno}: bad {'count' if is_counts else 'value'} "
                f"{row[index]!r}") from exc
        if is_counts and not _INT64.min <= value <= _INT64.max:
            raise TraceFormatError(
                f"{path}:{lineno}: count {row[index]!r} outside the int64 range")
        values.append(value)
    if len(times) < 1:
        raise TraceFormatError(f"{path}: header only, no samples")
    dtype = np.int64 if is_counts else float
    return np.asarray(times, dtype=float), np.asarray(values, dtype=dtype), is_counts


def _parse_trace_bulk(path, column=None):
    """Parse a plain trace CSV in one np.loadtxt call; None where it cannot.

    Plain means the header is the first line and holds no quote, no line
    is longer than csv.reader's field limit, and every data line holds
    exactly one number per column: float64 for time and value columns,
    int64 for counts columns. Anything else (comment rows, quoted cells,
    forms only float()/int() read, any error) is left to _parse_trace_rows,
    which reads it or names the bad line. comments=None keeps numpy from
    cutting a row at a '#'.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().split("\n")
    except (OSError, ValueError):  # ValueError: not UTF-8
        return None
    header = [cell.strip() for cell in lines[0].split(",")]
    if ('"' in lines[0] or header[0] != "time_ns"
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    index, is_counts = _trace_layout(path, 1, header, column)
    dtype = [(f"f{i}", np.int64 if i and _is_counts(name) else np.float64)
             for i, name in enumerate(header)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on no data rows
            table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                               skiprows=1, ndmin=1)
    except (ValueError, Warning):
        return None
    return (np.ascontiguousarray(table["f0"]),
            np.ascontiguousarray(table[f"f{index}"]), is_counts)


def _read_trace_file(path, column=None):
    """Parse a trace CSV; returns (times, values, is_counts)."""
    return _parse_trace_bulk(path, column) or _parse_trace_rows(path, column)


def load_trace(path, background_path=None, reject_before=None, column=None,
               temperature=None, channel=None):
    """Load a photon trace CSV into a TimeTrace.

    The header starts with time_ns; a file with several value columns
    needs ``column``. Counts columns (``counts``, ``counts_*``) are parsed
    as int64 and any other column as float64. A plain file (header on the
    first line, one number per column on every row) is parsed in one
    np.loadtxt call; other files (comment or blank rows, quoted cells,
    numbers only float()/int() read) are read row by row, and a malformed
    file is a TraceFormatError naming its line. Files write_trace_csv
    wrote come back bit for bit.

    An optional background trace (same binning) is subtracted with
    clamping at zero; a warning with the clamped-bin count goes to
    stderr. ``reject_before`` drops early bins before any fitting.
    """
    times, values, is_counts = _read_trace_file(path, column=column)
    try:
        trace = TimeTrace(times, values, temperature=temperature, channel=channel)
    except ValidationError as exc:
        raise TraceFormatError(f"{path}: {exc}") from exc
    if background_path is not None:
        bg_times, bg_values, bg_counts = _read_trace_file(background_path,
                                                          column=column)
        if bg_counts != is_counts:
            raise TraceFormatError(
                f"{background_path}: column type differs from {path}")
        try:
            background = TimeTrace(bg_times, bg_values)
            trace = synth.subtract_background(trace, background)
        except ValidationError as exc:
            raise TraceFormatError(
                f"{path} / {background_path}: {exc}") from exc
        if trace.clamped_bins:
            print(f"warning: background subtraction clamped "
                  f"{trace.clamped_bins} bins at zero", file=sys.stderr)
    if reject_before is not None:
        try:
            trace = synth.reject_before(trace, reject_before)
        except ValidationError as exc:
            raise TraceFormatError(f"{path}: {exc}") from exc
    return trace


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


# Rows formatted per write, so a table at the MAX_SAMPLES cap is written in
# bounded memory rather than as one string.
_ROWS_PER_WRITE = 1 << 16


def _write_columns(path, header, columns, formats):
    """Write equal-length columns as a CSV: the header row as csv.writer
    writes it, then each row with one %-format over its cells ('%.17g' for
    floats, '%d' for counts) and csv.writer's CRLF line end."""
    columns = [np.asarray(column) for column in columns]
    if any(len(column) != len(columns[0]) for column in columns):
        raise ValueError("columns differ in length")
    line = ",".join(formats) + "\r\n"
    with _csv_output(path) as handle:
        csv.writer(handle).writerow(header)
        for start in range(0, len(columns[0]), _ROWS_PER_WRITE):
            cells = [column[start:start + _ROWS_PER_WRITE].tolist()
                     for column in columns]
            handle.write("".join([line % row for row in zip(*cells)]))


def write_trace_csv(path, times, columns, counts=False):
    """Write a trace CSV (time_ns plus one column per named series).

    Floats are rendered with %.17g, so a load_trace round trip returns
    the same bits; counts columns are written as bare integers. Lines end
    in CRLF. An unwritable path is a ValidationError naming it.
    """
    names = list(columns)
    _write_columns(path, ["time_ns"] + names,
                   [times] + [columns[name] for name in names],
                   ["%.17g"] + ["%d" if counts else "%.17g"] * len(names))


def _read_points_file(path, expected_header):
    """Parse a small points CSV with an exact header; `*_mhz` columns become
    fitted AngularRates."""
    rows = _read_csv_rows(path)
    header_line, header = rows[0]
    if header != list(expected_header):
        raise TraceFormatError(
            f"{path}:{header_line}: expected header "
            f"{','.join(expected_header)}, got {','.join(header)}")
    points = []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise TraceFormatError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        parsed = []
        for name, cell in zip(header, row):
            if name == "branch":
                if cell not in ("A1", "A2"):
                    raise TraceFormatError(
                        f"{path}:{lineno}: branch must be A1 or A2, got {cell!r}")
                parsed.append(cell)
            else:
                try:
                    value = float(cell)
                    parsed.append(rate_from_linear_mhz(value, fitted=True)
                                  if name.endswith("_mhz") else value)
                except (ValueError, ValidationError) as exc:
                    raise TraceFormatError(
                        f"{path}:{lineno}: bad value {cell!r} for {name}") from exc
        points.append(tuple(parsed))
    if not points:
        raise TraceFormatError(f"{path}: header only, no points")
    return points


# ---------------------------------------------------------------------------
# simulate

_RATE_PARAM_KEYS = {
    # model param -> config key holding it, per model
    "exponential": {"rate": "model.rate_mhz"},
    "depolarization": {"gamma_rad": "rates.gamma_rad_mhz",
                       "gamma_mix": "rates.gamma_mix_mhz"},
    "a12": {"gamma_rad": "rates.gamma_rad_mhz",
            "gamma_mix": "rates.gamma_mix_mhz",
            "gamma_isc": "rates.gamma_isc_mhz"},
}


def _model_params(cfg, name):
    """Translate config keys into a synth model parameter dict."""
    params = {}
    if name == "constant":
        return params
    if name in _RATE_PARAM_KEYS:
        for param, key in _RATE_PARAM_KEYS[name].items():
            params[param] = _require(cfg, key, f"model {name}").value
    if name == "depolarization":
        params["channel"] = cfg.get("model.channel", "bright")
        params["amplitude"] = cfg.get("model.amplitude", 1.0)
        params["epsilon"] = cfg.get("model.epsilon", 0.0)
        params["t0"] = cfg.get("model.t0_ns", 0.0)
    elif name == "a12":
        params["branch"] = cfg.get("model.branch", "A1")
    elif name == "rabi":
        params["omega"] = _require(cfg, "rates.rabi_mhz", "model rabi").value
        params["tau_rabi"] = _require(cfg, "model.tau_rabi_ns", "model rabi")
        params["amplitude"] = cfg.get("model.amplitude", 1.0)
        params["phi"] = cfg.get("model.phi", 0.0)
        params["t0"] = cfg.get("model.t0_ns", 0.0)
        params["gamma_isc_x"] = cfg.get("rates.gamma_isc_x_mhz",
                                        AngularRate(0.0)).value
    elif name == "lindblad":
        grx = _require(cfg, "rates.gamma_rad_mhz", "model lindblad")
        params["gamma_rad_x"] = grx.value
        params["gamma_rad_y"] = cfg.get("rates.gamma_rad_y_mhz", grx).value
        mix = cfg.get("rates.gamma_mix_mhz", AngularRate(0.0))
        params["gamma_mix_xy"] = mix.value
        params["gamma_mix_yx"] = cfg.get("rates.gamma_mix_yx_mhz", mix).value
        params["gamma_t2"] = cfg.get("rates.gamma_t2_mhz", AngularRate(0.0)).value
        params["gamma_isc_x"] = cfg.get("rates.gamma_isc_x_mhz",
                                        AngularRate(0.0)).value
        params["rabi"] = cfg.get("rates.rabi_mhz", AngularRate(0.0)).value
        params["detuning"] = cfg.get("rates.detuning_mhz", 0.0)
        params["observable"] = cfg.get("model.observable", "fluorescence")
    return params


def _simulate_columns(cfg, name):
    """Column label -> model params, honoring branch/channel 'both'."""
    base = _model_params(cfg, name)
    if name == "a12" and cfg.get("model.branch", "A1") == "both":
        return {"intensity_a1": dict(base, branch="A1"),
                "intensity_a2": dict(base, branch="A2")}
    if name == "depolarization" and cfg.get("model.channel", "bright") == "both":
        return {"intensity_bright": dict(base, channel="bright"),
                "intensity_dark": dict(base, channel="dark")}
    return {"intensity": base}


def cmd_simulate(args):
    if args.config is None:
        raise ConfigError("simulate requires --config")
    if args.out is None:
        raise ConfigError("simulate requires --out")
    cfg = parse_config(args.config)
    name = _require(cfg, "model.name", "simulate")
    columns = _simulate_columns(cfg, name)
    if "synth.total_counts" in cfg:
        if len(columns) > 1:
            raise ConfigError(
                "photon-count output supports a single branch/channel")
        seed = args.seed if args.seed is not None else cfg.get("synth.seed", 0)
        spec = synth.ExperimentSpec(
            model=name,
            params=next(iter(columns.values())),
            bin_width=cfg.get("synth.bin_ns", 0.25),
            span=cfg.get("synth.span_ns", 120.0),
            total_counts=cfg["synth.total_counts"],
            background_rate=cfg.get("synth.background_per_bin", 0.0),
            pulse_edge=cfg.get("synth.pulse_edge_ns", 2.0),
            seed=seed,
        )
        _check_sample_count(synth.sample_count(spec), "synthetic histogram")
        terms = synth.convolution_terms(spec)
        if not terms <= MAX_CONVOLUTION_TERMS:
            raise ConfigError(
                f"a {spec.pulse_edge:g} ns pulse edge would cost {terms:.3g} "
                f"convolution terms (limit {MAX_CONVOLUTION_TERMS:.3g})")
        trace = synth.generate(spec)
        write_trace_csv(args.out, trace.times, {"counts": trace.values},
                        counts=True)
        print(f"simulate: wrote {len(trace)} count bins ({name}, seed {seed}) "
              f"to {args.out}")
        return EXIT_OK
    start = cfg.get("grid.start_ns", 0.0)
    span = cfg.get("grid.span_ns", 120.0)
    step = cfg.get("grid.step_ns", 0.25)
    _check_sample_count(span / step + 1.0, "time grid")
    n = int(math.floor(span / step + 1e-9))
    times = start + step * np.arange(n + 1)
    series = {label: synth.model_intensity(name, params)(times)
              for label, params in columns.items()}
    write_trace_csv(args.out, times, series)
    print(f"simulate: wrote {len(times)} noiseless samples ({name}) "
          f"to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit

def _print_fit_report(procedure, result, unit_map):
    """Text report: one parameter per line, rates shown in MHz."""
    print(f"fit: procedure {procedure}")
    print(f"  converged: {'yes' if result.converged else 'NO'} "
          f"({result.iterations} iterations)")
    dof = max(result.dof, 1)
    print(f"  chi2/dof: {result.chi2:.6g} / {result.dof} "
          f"= {result.chi2 / dof:.4g}")
    intervals = result.ci95
    for name, value, sigma in zip(result.names, result.values, result.sigma):
        lo, hi = intervals[name]
        scale, unit = unit_map.get(name, (1.0, ""))
        suffix = f" {unit}" if unit else ""
        print(f"  {name} = {value * scale:.8g}{suffix}  "
              f"(sigma {sigma * scale:.3g}, 95% CI "
              f"[{lo * scale:.8g}, {hi * scale:.8g}])")
    for key, value in result.derived.items():
        if isinstance(value, AngularRate):
            print(f"  {key} = {value.linear_mhz:.8g} MHz")
        else:
            print(f"  {key} = {value}")


def _write_fit_csv(path, result, unit_map):
    with _csv_output(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["parameter", "value", "sigma", "ci95_lo", "ci95_hi",
                         "unit", "converged"])
        flag = "true" if result.converged else "false"
        intervals = result.ci95
        for name, value, sigma in zip(result.names, result.values, result.sigma):
            lo, hi = intervals[name]
            scale, unit = unit_map.get(name, (1.0, ""))
            writer.writerow([name, _fmt(value * scale), _fmt(sigma * scale),
                             _fmt(lo * scale), _fmt(hi * scale),
                             unit or "1", flag])


_TO_MHZ = 1e3 / (2.0 * math.pi)


def _fit_rabi(args, cfg, inputs):
    if len(inputs) != 1:
        raise ConfigError("procedure rabi takes exactly one trace")
    trace = _load_cfg_trace(cfg, inputs[0])
    gamma_rad = cfg.get("rates.gamma_rad_mhz")
    result = estimate.fit_rabi_trace(trace, gamma_rad=gamma_rad,
                                     weights=cfg.get("fit.weights", "uniform"),
                                     max_iter=cfg.get("fit.max_iter", 200))
    units = {"omega": (_TO_MHZ, "MHz"), "gamma_isc_x": (_TO_MHZ, "MHz"),
             "tau_rabi": (1.0, "ns"), "t0": (1.0, "ns"), "phi": (1.0, "rad")}
    return result, units


def _fit_exp_window(args, cfg, inputs):
    if len(inputs) != 1:
        raise ConfigError("procedure exp-window takes exactly one trace")
    trace = _load_cfg_trace(cfg, inputs[0])
    window = estimate.FitWindow(cfg.get("window.start_ns", 4.0),
                                cfg.get("window.length_ns", 115.0))
    result = estimate.fit_exponential_window(
        trace, window, weights=cfg.get("fit.weights", "uniform"),
        max_iter=cfg.get("fit.max_iter", 200))
    if "rates.gamma_rad_mhz" in cfg:
        gr = cfg["rates.gamma_rad_mhz"]
        result = result.with_derived(
            gamma_isc=AngularRate(result["rate"] - gr.value, fitted=True))
    units = {"rate": (_TO_MHZ, "MHz"), "amplitude": (1.0, "")}
    return result, units


def _fit_t5(args, cfg, inputs):
    if len(inputs) != 1:
        raise ConfigError("procedure t5 takes exactly one points CSV")
    points = _read_points_file(
        inputs[0], ("temperature_k", "gamma_add_mhz", "sigma_mhz"))
    result = estimate.fit_t5(points, max_iter=cfg.get("fit.max_iter", 200))
    units = {"a": (_TO_MHZ, "MHz/K^5"), "t0": (1.0, "K"), "c": (_TO_MHZ, "MHz")}
    return result, units


def _fit_depol(args, cfg, inputs):
    if len(inputs) != 4:
        raise ConfigError(
            "procedure depol takes four traces: cold-a cold-b warm-a warm-b")
    t_cold = _require(cfg, "depol.temp_cold_k", "depol")
    t_warm = _require(cfg, "depol.temp_warm_k", "depol")
    if not t_cold < t_warm:
        raise ConfigError("depol.temp_cold_k must be below depol.temp_warm_k")
    labels = [(t_cold, "a"), (t_cold, "b"), (t_warm, "a"), (t_warm, "b")]
    norm = cfg.get("trace.normalization", 1.0)
    traces = []
    for path, (temp, channel) in zip(inputs, labels):
        trace = _load_cfg_trace(cfg, path, temperature=temp, channel=channel)
        if norm != 1.0:
            trace = dataclasses.replace(
                trace, values=trace.values / norm,
                uncertainty=(None if trace.uncertainty is None
                             else trace.uncertainty / norm))
        traces.append(trace)
    result = estimate.fit_depolarization(
        traces,
        gamma_mix_cold=_require(cfg, "depol.gamma_mix_cold_mhz", "depol"),
        gamma_mix_warm=_require(cfg, "depol.gamma_mix_warm_mhz", "depol"),
        gamma_rad=_require(cfg, "rates.gamma_rad_mhz", "depol"),
        weights=cfg.get("fit.weights", "uniform"),
        max_iter=cfg.get("fit.max_iter", 200))
    units = {"amplitude": (1.0, ""), "t0": (1.0, "ns"), "epsilon": (1.0, "")}
    return result, units


def _fit_gamma_a1(args, cfg, inputs):
    if len(inputs) != 1:
        raise ConfigError("procedure gamma-a1 takes exactly one points CSV")
    points = _read_points_file(
        inputs[0], ("temperature_k", "gamma_eff_mhz", "sigma_mhz", "branch"))
    mix_model = phonon.MixingFitForm(
        a=_require(cfg, "t5.a_mhz_per_k5", "gamma-a1"),
        t0_k=_require(cfg, "t5.t0_k", "gamma-a1"),
        c=_require(cfg, "t5.c_mhz", "gamma-a1"))
    result = estimate.fit_gamma_a1(
        points, mix_model,
        gamma_rad=_require(cfg, "rates.gamma_rad_mhz", "gamma-a1"),
        window_start=cfg.get("window.start_ns", 4.0),
        window_length=cfg.get("window.length_ns", 115.0),
        max_iter=cfg.get("fit.max_iter", 100))
    units = {"gamma_a1": (_TO_MHZ, "MHz")}
    return result, units


_FIT_PROCEDURES = {
    "rabi": _fit_rabi,
    "exp-window": _fit_exp_window,
    "t5": _fit_t5,
    "depol": _fit_depol,
    "gamma-a1": _fit_gamma_a1,
}


def _load_cfg_trace(cfg, path, temperature=None, channel=None):
    return load_trace(path,
                      background_path=cfg.get("trace.background"),
                      reject_before=cfg.get("trace.reject_before_ns"),
                      column=cfg.get("trace.column"),
                      temperature=temperature, channel=channel)


def cmd_fit(args):
    if args.procedure is None:
        raise ConfigError("fit requires --procedure "
                          f"({', '.join(sorted(_FIT_PROCEDURES))})")
    if args.procedure not in _FIT_PROCEDURES:
        raise ConfigError(f"unknown procedure {args.procedure!r} "
                          f"(choose from {', '.join(sorted(_FIT_PROCEDURES))})")
    if not args.inputs:
        raise ConfigError("fit requires at least one input file")
    cfg = parse_config(args.config) if args.config else {}
    result, units = _FIT_PROCEDURES[args.procedure](args, cfg, args.inputs)
    _print_fit_report(args.procedure, result, units)
    if args.out:
        _write_fit_csv(args.out, result, units)
        print(f"fit: parameters written to {args.out}")
    if not result.converged:
        print("fit: did not converge within the iteration cap", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep

def _parse_sweep_spec(text):
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError("--sweep expects AXIS:LO:HI:STEP")
    axis = parts[0]
    if axis not in ("T", "delta"):
        raise ConfigError(f"unknown sweep axis {axis!r} (use T or delta)")
    try:
        lo, hi, step = (_conv_float(p) for p in parts[1:])
    except ValueError as exc:
        raise ConfigError(f"bad sweep bounds in {text!r}: {exc}") from exc
    return axis, lo, hi, step


def _sweep_grid(lo, hi, step):
    if step <= 0.0:
        raise ConfigError("sweep step must be > 0")
    if hi < lo:
        raise ConfigError("sweep upper bound below lower bound")
    _check_sample_count((hi - lo) / step + 1.0, "sweep grid")
    n = int(math.floor((hi - lo) / step + 1e-9))
    return lo + step * np.arange(n + 1)


def cmd_sweep(args):
    cfg = parse_config(args.config) if args.config else {}
    if args.sweep:
        axis, lo, hi, step = _parse_sweep_spec(args.sweep)
    else:
        axis = _require(cfg, "sweep.axis", "sweep")
        lo = _require(cfg, "sweep.lo", "sweep")
        hi = _require(cfg, "sweep.hi", "sweep")
        step = _require(cfg, "sweep.step", "sweep")
    if args.out is None:
        raise ConfigError("sweep requires --out")
    grid = _sweep_grid(lo, hi, step)
    if axis == "T":
        return _sweep_temperature(cfg, grid, args.out)
    return _sweep_delta(cfg, grid, args.out)


def _sweep_temperature(cfg, grid, out):
    """Effective branch rates versus temperature."""
    gamma_rad = _require(cfg, "rates.gamma_rad_mhz", "sweep over T")
    gamma_a1 = _require(cfg, "rates.gamma_a1_mhz", "sweep over T")
    if "t5.a_mhz_per_k5" in cfg:
        form = phonon.MixingFitForm(a=_require(cfg, "t5.a_mhz_per_k5", "sweep"),
                                    t0_k=_require(cfg, "t5.t0_k", "sweep"),
                                    c=_require(cfg, "t5.c_mhz", "sweep"))
        mixing = form.clamped
    else:
        eta = cfg.get("phonon.eta_mhz_per_mev3", phonon.ETA_DEFAULT)
        mixing = lambda temp: phonon.mixing_rate_t5(eta, temp)
    window_start = cfg.get("window.start_ns", 4.0)
    window_length = cfg.get("window.length_ns", 115.0)
    if np.any(grid <= 0.0):
        raise ConfigError("temperature sweep requires T > 0")
    mixes = [mixing(float(temp)).value for temp in grid]
    # one forward-model call covers the whole grid
    eff_a1, eff_a2 = phonon.effective_isc_rates(
        gamma_rad, gamma_a1, mixes,
        window_start=window_start, window_length=window_length)
    columns = (("gamma_mix_mhz", mixes), ("gamma_eff_a1_mhz", eff_a1),
               ("gamma_eff_a2_mhz", eff_a2))
    rows = {name: [AngularRate(rate, fitted=True).linear_mhz for rate in rates]
            for name, rates in columns}
    _write_table(out, "temperature_k", grid, rows)
    print(f"sweep: wrote {len(grid)} temperature points to {out}")
    return EXIT_OK


def _sweep_delta(cfg, grid, out):
    """Crossing rates versus energy gap on an overlap table."""
    if "files.overlap_table" in cfg:
        table = phonon.OverlapTable.from_csv(cfg["files.overlap_table"])
    else:
        table = phonon.OverlapTable.synthetic_default()
    so = phonon.SpinOrbit(
        lambda_par=rate_from_linear_mhz(
            1e3 * cfg.get("phonon.lambda_par_ghz", 5.33)),
        perp_ratio=cfg.get("phonon.lambda_perp_ratio", 1.2))
    cutoff = cfg.get("phonon.cutoff_mev")
    coupling = phonon.PhononCoupling(
        eta=cfg.get("phonon.eta_mhz_per_mev3", phonon.ETA_DEFAULT),
        cutoff=None if cutoff is None else EnergyMeV(cutoff))
    rows = {"f_per_mev": [], "gamma_a1_mhz": [], "gamma_e12_mhz": [],
            "ratio": []}
    for delta in grid:
        f_value = table.interpolate(float(delta))
        ga1 = phonon.isc_rate_a1(so, table, float(delta))
        if f_value > 0.0:
            ratio = phonon.crossing_ratio(coupling, table, float(delta))
        else:
            ratio = 0.0
        rows["f_per_mev"].append(f_value)
        rows["gamma_a1_mhz"].append(ga1.linear_mhz)
        rows["gamma_e12_mhz"].append(ga1.linear_mhz * ratio)
        rows["ratio"].append(ratio)
    _write_table(out, "delta_mev", grid, rows)
    print(f"sweep: wrote {len(grid)} gap points to {out}")
    return EXIT_OK


def _write_table(path, axis_name, axis, rows):
    _write_columns(path, [axis_name] + list(rows), [axis] + list(rows.values()),
                   ["%.17g"] * (1 + len(rows)))


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args):
    results = verify.run_checks()
    failed = 0
    for name, passed, detail in results:
        if passed:
            print(f"PASS {name}: {detail}")
        else:
            failed += 1
            print(f"FAIL {name}: {detail}")
    print(f"verify: {len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# entry points

def build_parser():
    parser = argparse.ArgumentParser(
        prog="nvphonon",
        description="Simulate and fit orbital dynamics of optically "
                    "excited defect spins.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="evaluate a signal model, "
                           "noiseless or with photon counting noise")
    p_sim.add_argument("--config", required=True, help="key = value file")
    p_sim.add_argument("--out", required=True, help="output trace CSV")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override synth.seed for count generation")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="run an estimation procedure on "
                           "trace or points files")
    p_fit.add_argument("--procedure", required=True,
                       help=", ".join(sorted(_FIT_PROCEDURES)))
    p_fit.add_argument("--config", default=None, help="key = value file")
    p_fit.add_argument("--out", default=None, help="parameter CSV")
    p_fit.add_argument("inputs", nargs="+", help="input CSV files")
    p_fit.set_defaults(func=cmd_fit)

    p_sweep = sub.add_parser("sweep", help="tabulate model predictions "
                             "along a parameter axis")
    p_sweep.add_argument("--sweep", default=None, metavar="AXIS:LO:HI:STEP",
                         help="axis T or delta with bounds and step")
    p_sweep.add_argument("--config", default=None, help="key = value file")
    p_sweep.add_argument("--out", required=True, help="output table CSV")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the built-in "
                              "self-consistency checks")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (synth.ModelError, phonon.OverlapSupportError,
            dynamics.IntegrationError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
