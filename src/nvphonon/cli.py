"""Command-line interface: simulate, fit, sweep, verify.

Exit codes: 0 success, 1 verification failure, 2 invalid input or
config (an output file that cannot be written included), 3 model
construction error, 4 fit non-convergence (the report is still written,
flagged converged=false), 5 internal error: any other exception, reported
as one ``internal error: <Type>: <message>`` line instead of a traceback.

Config files are plain ``key = value`` lines with ``#`` comments.
Every key must appear in the registry below; unknown keys are rejected
with their line number. Rates are given in linear MHz and converted to
rad/ns by `core` (so are the MHz columns of reports and tables), times
in ns, energies in meV. A key left unset is not passed on, so the
library function or dataclass it configures applies its own default;
the CLI's own defaults are the noiseless time grid (``grid.*``), the
a12 branch (A1), the lindblad y-branch rates (those of x) and
``trace.normalization`` (1).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

import numpy as np

from . import dynamics, estimate, phonon, synth, verify
from .core import (AngularRate, CsvFormatError, TimeTrace, ValidationError,
                   csv_columns, rate_from_linear_mhz, read_csv_rows,
                   read_plain_csv, temperature_value, to_linear_mhz,
                   write_csv_columns)
from .synth import MAX_SAMPLES

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_MODEL = 3
EXIT_NO_CONVERGENCE = 4
EXIT_INTERNAL = 5


class ConfigError(ValidationError):
    """Malformed config file or rejected key/value."""


def _grid(start, span, step, what):
    """start + k step for k = 0 .. floor(span / step), refused unallocated
    when it would hold more than MAX_SAMPLES samples."""
    count = span / step + 1.0
    if not count <= MAX_SAMPLES:  # count is a float and may be inf
        raise ConfigError(f"{what} would hold {count:.3g} samples "
                          f"(limit {MAX_SAMPLES})")
    n = int(math.floor(span / step + 1e-9))
    return start + step * np.arange(n + 1)


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
    return rate_from_linear_mhz(_conv_float(text), fitted=True)


def _conv_rate_ghz(text):
    return rate_from_linear_mhz(1e3 * _conv_pos_float(text))


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
    "phonon.lambda_par_ghz": (_conv_rate_ghz, "axial spin-orbit splitting"),
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
    except (OSError, UnicodeDecodeError) as exc:
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


def _options(cfg, **keys):
    """Keyword arguments from config keys, given as argument="key" pairs:
    only the keys that are set, so the callee's defaults fill the rest."""
    return {arg: cfg[key] for arg, key in keys.items() if key in cfg}


# ---------------------------------------------------------------------------
# trace CSV I/O

def _trace_layout(path, header_line, header, column):
    """Check a trace header; returns (index of the value column, is_counts)."""
    if not header or header[0] != "time_ns":
        raise CsvFormatError(
            f"{path}:{header_line}: first column must be 'time_ns'")
    value_names = header[1:]
    if not value_names:
        raise CsvFormatError(f"{path}:{header_line}: no value column")
    if column is None:
        if len(value_names) > 1:
            raise CsvFormatError(
                f"{path}:{header_line}: {len(value_names)} value columns; "
                f"pick one with trace.column (available: {', '.join(value_names)})")
        column = value_names[0]
    if column not in value_names:
        raise CsvFormatError(
            f"{path}:{header_line}: no column {column!r} "
            f"(available: {', '.join(value_names)})")
    return 1 + value_names.index(column), _is_counts(column)


def _is_counts(name):
    return name == "counts" or name.startswith("counts_")


_INT64 = np.iinfo(np.int64)


def _count(cell):
    """A counts cell as an int64 count."""
    value = int(cell)
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError("outside the int64 range")
    return value


def _parse_trace_rows(path, column=None):
    """Parse a trace CSV one row at a time; returns (times, values, is_counts).

    Reads every form core.read_csv_rows and float()/int() accept: comment
    and blank rows, a header below them, quoted cells, '1_0' and Unicode
    digits. Only the time and the selected column are converted. The
    first bad row is named by its line.
    """
    rows = read_csv_rows(path)
    index, is_counts = _trace_layout(path, *rows[0], column)
    times, values = csv_columns(path, rows,
                                {0: float, index: _count if is_counts else float})
    dtype = np.int64 if is_counts else float
    return np.asarray(times, dtype=float), np.asarray(values, dtype=dtype), is_counts


def _parse_trace_bulk(path, column=None):
    """Parse a plain trace CSV (see core.read_plain_csv) in one np.loadtxt
    call, float64 for time and value columns and int64 for counts columns;
    None where it cannot, and _parse_trace_rows reads the file or names its
    bad line. A plain header is checked before any row is parsed."""
    def dtypes(header):
        if header[0] != "time_ns":
            return None
        _trace_layout(path, 1, header, column)
        return [np.int64 if i and _is_counts(name) else np.float64
                for i, name in enumerate(header)]

    plain = read_plain_csv(path, dtypes)
    if plain is None:
        return None
    header, table = plain
    index, is_counts = _trace_layout(path, 1, header, column)
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
    numbers only float()/int() read) are read row by row under the CSV
    rules of `core`, and an unreadable or malformed file is a
    CsvFormatError naming it and, for a bad row, its line. A trace the
    TimeTrace constructor refuses is a ValidationError naming the file.
    Files write_trace_csv wrote come back bit for bit.

    An optional background trace (same binning) is subtracted with
    clamping at zero; a warning with the clamped-bin count goes to
    stderr. ``reject_before`` drops early bins before any fitting.
    """
    times, values, is_counts = _read_trace_file(path, column=column)
    try:
        trace = TimeTrace(times, values, temperature=temperature, channel=channel)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    if background_path is not None:
        bg_times, bg_values, bg_counts = _read_trace_file(background_path,
                                                          column=column)
        if bg_counts != is_counts:
            raise ValidationError(
                f"{background_path}: column type differs from {path}")
        try:
            background = TimeTrace(bg_times, bg_values)
            trace = synth.subtract_background(trace, background)
        except ValidationError as exc:
            raise ValidationError(
                f"{path} / {background_path}: {exc}") from exc
        if trace.clamped_bins:
            print(f"warning: background subtraction clamped "
                  f"{trace.clamped_bins} bins at zero", file=sys.stderr)
    if reject_before is not None:
        try:
            trace = synth.reject_before(trace, reject_before)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    return trace


def write_trace_csv(path, times, columns, counts=False):
    """Write a trace CSV (time_ns plus one column per named series).

    Floats are rendered with %.17g, so a load_trace round trip returns
    the same bits; counts columns are written as bare integers. Lines end
    in CRLF. An unwritable path is a ValidationError naming it.
    """
    names = list(columns)
    write_csv_columns(path, ["time_ns"] + names,
                      [times] + [columns[name] for name in names],
                      ["%.17g"] + ["%d" if counts else "%.17g"] * len(names))


def _branch(cell):
    if cell not in ("A1", "A2"):
        raise ValueError("must be A1 or A2")
    return cell


def _fitted_rate_mhz(cell):
    return rate_from_linear_mhz(float(cell), fitted=True)


def _sigma_mhz(cell):
    return rate_from_linear_mhz(_conv_pos_float(cell), fitted=True)


# points-file column -> converter of its cells; any other is a rate in MHz
_POINT_COLUMNS = {"temperature_k": temperature_value, "sigma_mhz": _sigma_mhz,
                  "branch": _branch}


def _read_points_file(path, header):
    """Parse a small points CSV with an exact header into one tuple a row;
    `temperature_k` is a finite temperature >= 0 K, `sigma_mhz` a fitted
    AngularRate > 0, any other `*_mhz` column a fitted AngularRate and a
    `branch` column A1 or A2."""
    rows = read_csv_rows(path)
    converters = {j: _POINT_COLUMNS.get(name, _fitted_rate_mhz)
                  for j, name in enumerate(header)}
    points = list(zip(*csv_columns(path, rows, converters, header)))
    if not points:
        raise CsvFormatError(f"{path}:{rows[0][0]}: header only, no points")
    return points


# ---------------------------------------------------------------------------
# simulate

# model -> {synth model parameter: the config key that sets it}
_MODEL_KEYS = {
    "exponential": {"rate": "model.rate_mhz"},
    "depolarization": {"gamma_rad": "rates.gamma_rad_mhz",
                       "gamma_mix": "rates.gamma_mix_mhz",
                       "channel": "model.channel", "amplitude": "model.amplitude",
                       "epsilon": "model.epsilon", "t0": "model.t0_ns"},
    "a12": {"gamma_rad": "rates.gamma_rad_mhz", "gamma_mix": "rates.gamma_mix_mhz",
            "gamma_isc": "rates.gamma_isc_mhz", "branch": "model.branch"},
    "rabi": {"omega": "rates.rabi_mhz", "tau_rabi": "model.tau_rabi_ns",
             "amplitude": "model.amplitude", "phi": "model.phi",
             "t0": "model.t0_ns", "gamma_isc_x": "rates.gamma_isc_x_mhz"},
    "lindblad": {"gamma_rad_x": "rates.gamma_rad_mhz",
                 "gamma_rad_y": "rates.gamma_rad_y_mhz",
                 "gamma_mix_xy": "rates.gamma_mix_mhz",
                 "gamma_mix_yx": "rates.gamma_mix_yx_mhz",
                 "gamma_t2": "rates.gamma_t2_mhz",
                 "gamma_isc_x": "rates.gamma_isc_x_mhz",
                 "rabi": "rates.rabi_mhz", "detuning": "rates.detuning_mhz",
                 "observable": "model.observable"},
}
# the keys a model cannot do without, checked in this order
_MODEL_REQUIRED_KEYS = {
    "exponential": ("model.rate_mhz",),
    "depolarization": ("rates.gamma_rad_mhz", "rates.gamma_mix_mhz"),
    "a12": ("rates.gamma_rad_mhz", "rates.gamma_mix_mhz", "rates.gamma_isc_mhz"),
    "rabi": ("rates.rabi_mhz", "model.tau_rabi_ns"),
    "lindblad": ("rates.gamma_rad_mhz",),
}


def _model_params(cfg, name):
    """Translate config keys into a synth model parameter dict."""
    for key in _MODEL_REQUIRED_KEYS.get(name, ()):
        _require(cfg, key, f"model {name}")
    params = _options(cfg, **_MODEL_KEYS.get(name, {}))
    if name == "a12":
        params.setdefault("branch", "A1")
    elif name == "lindblad":
        # the y branch mirrors x unless set
        params.setdefault("gamma_rad_y", params["gamma_rad_x"])
        if "gamma_mix_xy" in params:
            params.setdefault("gamma_mix_yx", params["gamma_mix_xy"])
    return params


def _simulate_columns(cfg, name):
    """Column label -> model params, honoring branch/channel 'both'."""
    base = _model_params(cfg, name)
    if name == "a12" and base["branch"] == "both":
        return {"intensity_a1": dict(base, branch="A1"),
                "intensity_a2": dict(base, branch="A2")}
    if name == "depolarization" and base.get("channel") == "both":
        return {"intensity_bright": dict(base, channel="bright"),
                "intensity_dark": dict(base, channel="dark")}
    return {"intensity": base}


def cmd_simulate(args):
    cfg = parse_config(args.config)
    name = _require(cfg, "model.name", "simulate")
    columns = _simulate_columns(cfg, name)
    if "synth.total_counts" in cfg:
        if len(columns) > 1:
            raise ConfigError(
                "photon-count output supports a single branch/channel")
        spec = synth.ExperimentSpec(
            model=name, params=next(iter(columns.values())),
            **_options(cfg, bin_width="synth.bin_ns", span="synth.span_ns",
                       total_counts="synth.total_counts",
                       background_rate="synth.background_per_bin",
                       pulse_edge="synth.pulse_edge_ns", seed="synth.seed"))
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
        trace = synth.generate(spec)
        write_trace_csv(args.out, trace.times, {"counts": trace.values},
                        counts=True)
        print(f"simulate: wrote {len(trace)} count bins ({name}, seed "
              f"{spec.seed}) to {args.out}")
        return EXIT_OK
    times = _grid(cfg.get("grid.start_ns", 0.0), cfg.get("grid.span_ns", 120.0),
                  cfg.get("grid.step_ns", 0.25), "time grid")
    series = {label: synth.model_intensity(name, params)(times)
              for label, params in columns.items()}
    write_trace_csv(args.out, times, series)
    print(f"simulate: wrote {len(times)} noiseless samples ({name}) "
          f"to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit

def _report_rows(result, units):
    """(name, value, sigma, ci95 lo, ci95 hi, unit) per fitted parameter,
    rates (a unit starting with MHz) converted from rad/ns."""
    intervals = result.ci95
    for name, value, sigma in zip(result.names, result.values, result.sigma):
        unit = units.get(name, "")
        convert = to_linear_mhz if unit.startswith("MHz") else float
        yield (name, *map(convert, (value, sigma, *intervals[name])), unit)


def _print_fit_report(procedure, result, units):
    """Text report: one parameter per line, rates shown in MHz."""
    print(f"fit: procedure {procedure}")
    print(f"  converged: {'yes' if result.converged else 'NO'} "
          f"({result.iterations} iterations)")
    dof = max(result.dof, 1)
    print(f"  chi2/dof: {result.chi2:.6g} / {result.dof} "
          f"= {result.chi2 / dof:.4g}")
    for name, value, sigma, lo, hi, unit in _report_rows(result, units):
        suffix = f" {unit}" if unit else ""
        print(f"  {name} = {value:.8g}{suffix}  "
              f"(sigma {sigma:.3g}, 95% CI [{lo:.8g}, {hi:.8g}])")
    for key, value in result.derived.items():
        if isinstance(value, AngularRate):
            print(f"  {key} = {value.linear_mhz:.8g} MHz")
        else:
            print(f"  {key} = {value}")


def _write_fit_csv(path, result, units):
    flag = "true" if result.converged else "false"
    rows = [(name, *numbers, unit or "1", flag)
            for name, *numbers, unit in _report_rows(result, units)]
    write_csv_columns(path, ["parameter", "value", "sigma", "ci95_lo", "ci95_hi",
                             "unit", "converged"],
                      list(zip(*rows)), ["%s"] + ["%.17g"] * 4 + ["%s", "%s"])


def _t5_form(cfg, context):
    """The empirical T^5 mixing law from the t5.* keys, all required."""
    return phonon.MixingFitForm(a=_require(cfg, "t5.a_mhz_per_k5", context),
                                t0_k=_require(cfg, "t5.t0_k", context),
                                c=_require(cfg, "t5.c_mhz", context))


def _fit_rabi(cfg, inputs):
    return estimate.fit_rabi_trace(
        _load_cfg_trace(cfg, inputs[0]),
        **_options(cfg, gamma_rad="rates.gamma_rad_mhz", weights="fit.weights",
                   max_iter="fit.max_iter"))


def _window(cfg):
    """The lifetime fit window from the window.* keys, the library's
    default where unset."""
    return estimate.FitWindow(**_options(cfg, start="window.start_ns",
                                         length="window.length_ns"))


def _fit_exp_window(cfg, inputs):
    result = estimate.fit_exponential_window(
        _load_cfg_trace(cfg, inputs[0]), _window(cfg),
        **_options(cfg, weights="fit.weights", max_iter="fit.max_iter"))
    if "rates.gamma_rad_mhz" in cfg:
        gr = cfg["rates.gamma_rad_mhz"]
        result = result.with_derived(
            gamma_isc=AngularRate(result["rate"] - gr.value, fitted=True))
    return result


def _fit_t5(cfg, inputs):
    points = _read_points_file(
        inputs[0], ("temperature_k", "gamma_add_mhz", "sigma_mhz"))
    return estimate.fit_t5(points, **_options(cfg, max_iter="fit.max_iter"))


def _fit_depol(cfg, inputs):
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
    return estimate.fit_depolarization(
        traces,
        gamma_mix_cold=_require(cfg, "depol.gamma_mix_cold_mhz", "depol"),
        gamma_mix_warm=_require(cfg, "depol.gamma_mix_warm_mhz", "depol"),
        gamma_rad=_require(cfg, "rates.gamma_rad_mhz", "depol"),
        **_options(cfg, weights="fit.weights", max_iter="fit.max_iter"))


def _fit_gamma_a1(cfg, inputs):
    weights = cfg.get("fit.weights", "uniform")
    if weights != "uniform":
        raise ConfigError(f"fit.weights = {weights}: gamma-a1 needs window rates "
                          "fitted under uniform weights, as its forward model fits them")
    points = _read_points_file(
        inputs[0], ("temperature_k", "gamma_eff_mhz", "sigma_mhz", "branch"))
    return estimate.fit_gamma_a1(
        points, _t5_form(cfg, "gamma-a1"),
        gamma_rad=_require(cfg, "rates.gamma_rad_mhz", "gamma-a1"),
        window=_window(cfg), **_options(cfg, max_iter="fit.max_iter"))


# procedure -> (runner, number of inputs, what the inputs are, parameter units)
_FIT_PROCEDURES = {
    "rabi": (_fit_rabi, 1, "exactly one trace",
             {"omega": "MHz", "gamma_isc_x": "MHz", "tau_rabi": "ns",
              "t0": "ns", "phi": "rad"}),
    "exp-window": (_fit_exp_window, 1, "exactly one trace", {"rate": "MHz"}),
    "t5": (_fit_t5, 1, "exactly one points CSV",
           {"a": "MHz/K^5", "t0": "K", "c": "MHz"}),
    "depol": (_fit_depol, 4, "four traces: cold-a cold-b warm-a warm-b",
              {"t0": "ns"}),
    "gamma-a1": (_fit_gamma_a1, 1, "exactly one points CSV",
                 {"gamma_a1": "MHz"}),
}


def _load_cfg_trace(cfg, path, **labels):
    return load_trace(path, **labels,
                      **_options(cfg, background_path="trace.background",
                                 reject_before="trace.reject_before_ns",
                                 column="trace.column"))


def cmd_fit(args):
    if args.procedure not in _FIT_PROCEDURES:
        raise ConfigError(f"unknown procedure {args.procedure!r} "
                          f"(choose from {', '.join(sorted(_FIT_PROCEDURES))})")
    runner, n_inputs, described, units = _FIT_PROCEDURES[args.procedure]
    if len(args.inputs) != n_inputs:
        raise ConfigError(f"procedure {args.procedure} takes {described}")
    cfg = parse_config(args.config) if args.config else {}
    result = runner(cfg, args.inputs)
    _print_fit_report(args.procedure, result, units)
    if args.out:
        _write_fit_csv(args.out, result, units)
        print(f"fit: parameters written to {args.out}")
    if not result.converged:
        print(f"fit: did not converge (stopped after {result.iterations} iterations)",
              file=sys.stderr)
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
    return _grid(lo, hi - lo, step, "sweep grid")


def cmd_sweep(args):
    cfg = parse_config(args.config) if args.config else {}
    if args.sweep:
        axis, lo, hi, step = _parse_sweep_spec(args.sweep)
    else:
        axis = _require(cfg, "sweep.axis", "sweep")
        lo = _require(cfg, "sweep.lo", "sweep")
        hi = _require(cfg, "sweep.hi", "sweep")
        step = _require(cfg, "sweep.step", "sweep")
    grid = _sweep_grid(lo, hi, step)
    if axis == "T":
        return _sweep_temperature(cfg, grid, args.out)
    return _sweep_delta(cfg, grid, args.out)


def _sweep_temperature(cfg, grid, out):
    """Effective branch rates versus temperature."""
    gamma_rad = _require(cfg, "rates.gamma_rad_mhz", "sweep over T")
    gamma_a1 = _require(cfg, "rates.gamma_a1_mhz", "sweep over T")
    if "t5.a_mhz_per_k5" in cfg:
        mixing = _t5_form(cfg, "sweep").clamped
    else:
        eta = cfg.get("phonon.eta_mhz_per_mev3", phonon.ETA_DEFAULT)
        mixing = lambda temp: phonon.mixing_rate_t5(eta, temp)
    if np.any(grid <= 0.0):
        raise ConfigError("temperature sweep requires T > 0")
    mixes = [mixing(float(temp)).value for temp in grid]
    # one forward-model call covers the whole grid
    eff_a1, eff_a2 = phonon.effective_isc_rates(gamma_rad, gamma_a1, mixes,
                                                _window(cfg))
    rows = {name: to_linear_mhz(np.asarray(rates)) for name, rates in (
        ("gamma_mix_mhz", mixes), ("gamma_eff_a1_mhz", eff_a1),
        ("gamma_eff_a2_mhz", eff_a2))}
    _write_table(out, "temperature_k", grid, rows)
    print(f"sweep: wrote {len(grid)} temperature points to {out}")
    return EXIT_OK


def _sweep_delta(cfg, grid, out):
    """Crossing rates versus energy gap on an overlap table."""
    if "files.overlap_table" in cfg:
        table = phonon.OverlapTable.from_csv(cfg["files.overlap_table"])
    else:
        table = phonon.OverlapTable.synthetic_default()
    so = phonon.SpinOrbit(**_options(cfg, lambda_par="phonon.lambda_par_ghz",
                                     perp_ratio="phonon.lambda_perp_ratio"))
    coupling = phonon.PhononCoupling(
        eta=cfg.get("phonon.eta_mhz_per_mev3", phonon.ETA_DEFAULT),
        **_options(cfg, cutoff="phonon.cutoff_mev"))
    f_values = table.interpolate(grid)
    gamma_a1_mhz = to_linear_mhz(phonon.isc_rate_a1(so, table, grid))
    # the ratio is undefined where F vanishes; those rows report 0
    ratios = np.zeros_like(grid)
    supported = f_values > 0.0
    ratios[supported] = phonon.crossing_ratio(coupling, table, grid[supported])
    rows = {"f_per_mev": f_values, "gamma_a1_mhz": gamma_a1_mhz,
            "gamma_e12_mhz": gamma_a1_mhz * ratios, "ratio": ratios}
    _write_table(out, "delta_mev", grid, rows)
    print(f"sweep: wrote {len(grid)} gap points to {out}")
    return EXIT_OK


def _write_table(path, axis_name, axis, rows):
    write_csv_columns(path, [axis_name] + list(rows), [axis] + list(rows.values()),
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
    """The argument parser. Each subcommand's func looks its cmd_* function
    up when called, so that a parser built once serves a patched module."""
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
    p_sim.set_defaults(func=lambda args: cmd_simulate(args))

    p_fit = sub.add_parser("fit", help="run an estimation procedure on "
                           "trace or points files")
    p_fit.add_argument("--procedure", required=True,
                       help=", ".join(sorted(_FIT_PROCEDURES)))
    p_fit.add_argument("--config", default=None, help="key = value file")
    p_fit.add_argument("--out", default=None, help="parameter CSV")
    p_fit.add_argument("inputs", nargs="+", help="input CSV files")
    p_fit.set_defaults(func=lambda args: cmd_fit(args))

    p_sweep = sub.add_parser("sweep", help="tabulate model predictions "
                             "along a parameter axis")
    p_sweep.add_argument("--sweep", default=None, metavar="AXIS:LO:HI:STEP",
                         help="axis T or delta with bounds and step")
    p_sweep.add_argument("--config", default=None, help="key = value file")
    p_sweep.add_argument("--out", required=True, help="output table CSV")
    p_sweep.set_defaults(func=lambda args: cmd_sweep(args))

    p_verify = sub.add_parser("verify", help="run the built-in "
                              "self-consistency checks")
    p_verify.set_defaults(func=lambda args: cmd_verify(args))
    return parser


# built by the first main() call, not at import, and reused by later calls
_session_parser = functools.cache(build_parser)


def main(argv=None):
    args = _session_parser().parse_args(argv)
    try:
        return args.func(args)
    except (synth.ModelError, phonon.OverlapSupportError,
            dynamics.IntegrationError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # a defect of this program, not of the input: still one line
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
