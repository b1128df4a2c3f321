import ast
import csv
import functools
import hashlib
import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvphonon import cli, closedform, estimate, phonon, synth, verify
from nvphonon.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_MODEL,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_VERIFY,
    ConfigError,
    load_trace,
    parse_config,
    write_trace_csv,
)
from nvphonon.core import (CsvFormatError, EnergyMeV, TimeTrace, rate_from_linear_mhz,
                           to_linear_mhz)

GAMMA_RAD = rate_from_linear_mhz(13.2)
GAMMA_MIX_WARM = rate_from_linear_mhz(18.5)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_basics(tmp_path):
    path = _write(tmp_path / "run.cfg", """
# comment line
model.name = exponential
model.rate_mhz = 29.2

grid.span_ns = 60.0   # trailing comment
""")
    cfg = parse_config(path)
    assert cfg["model.name"] == "exponential"
    assert cfg["model.rate_mhz"].linear_mhz == pytest.approx(29.2)
    assert cfg["grid.span_ns"] == 60.0


def test_parse_config_unknown_key_cites_line(tmp_path):
    path = _write(tmp_path / "run.cfg",
                  "model.name = exponential\nmodel.ratee_mhz = 1\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert ":2" in str(err.value)
    assert "ratee" in str(err.value)


def test_parse_config_rejects_duplicates(tmp_path):
    path = _write(tmp_path / "run.cfg",
                  "grid.span_ns = 1\ngrid.span_ns = 2\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_parse_config_requires_assignment(tmp_path):
    path = _write(tmp_path / "run.cfg", "model.name exponential\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert ":1" in str(err.value)


def test_parse_config_validates_values(tmp_path):
    path = _write(tmp_path / "run.cfg", "model.rate_mhz = fast\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert ":1" in str(err.value)
    negative = _write(tmp_path / "neg.cfg", "model.rate_mhz = -2\n")
    with pytest.raises(ConfigError):
        parse_config(negative)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
# config values by converter, as text the converter accepts
_CONFIG_TEXTS = {
    cli._conv_float: _FINITE.map(repr),
    cli._conv_signed_rate_mhz: _FINITE.map(repr),
    cli._conv_nonneg_float: st.floats(min_value=0.0, allow_infinity=False).map(repr),
    cli._conv_rate_mhz: st.floats(min_value=0.0, allow_infinity=False).map(repr),
    cli._conv_pos_float: _POSITIVE.map(repr),
    cli._conv_rate_ghz: _POSITIVE.map(repr),
    cli._conv_pos_int: st.integers(1, 10**12).map(str),
    cli._conv_nonneg_int: st.integers(0, 10**12).map(str),
    # no comment mark, no line break, no whitespace at either end
    cli._conv_str: st.text(st.characters(codec="utf-8", exclude_characters="#\n\r"),
                           max_size=10).map(str.strip),
}
_SPACES = st.sampled_from(["", " ", "  ", "\t", " \t "])
_COMMENT = st.text(st.characters(codec="utf-8", exclude_characters="\n\r"), max_size=10)
# nothing, a blank line or a comment line
_FILLER = st.one_of(st.just([]), _SPACES.map(lambda pad: [pad]),
                    _COMMENT.map(lambda text: [" # " + text]))


def _config_text(converter):
    if converter in _CONFIG_TEXTS:
        return _CONFIG_TEXTS[converter]
    # a _conv_choice converter: one of the options it closes over
    return st.sampled_from(inspect.getclosurevars(converter).nonlocals["options"])


@st.composite
def _configs(draw):
    """Config file lines setting a random subset of the keys, in random
    order and spacing among blank and comment lines; the dict the
    converters make of them; and the index of one key's line."""
    keys = draw(st.lists(st.sampled_from(sorted(cli.CONFIG_KEYS)), min_size=1,
                         max_size=len(cli.CONFIG_KEYS), unique=True))
    lines, expected = [], {}
    for key in keys:
        converter = cli.CONFIG_KEYS[key][0]
        text = draw(_config_text(converter))
        lines += draw(_FILLER)
        lines.append(f"{draw(_SPACES)}{key}{draw(_SPACES)}={draw(_SPACES)}{text}"
                     f"{draw(_SPACES)}")
        expected[key] = converter(text)
    lines += draw(_FILLER)
    chosen = draw(st.sampled_from([i for i, line in enumerate(lines)
                                   if "=" in line.split("#")[0]]))
    return lines, expected, chosen


@settings(max_examples=60, deadline=None)
@given(config=_configs(), data=st.data())
def test_parse_config_round_trip(tmp_path_factory, config, data):
    lines, expected, chosen = config
    path = tmp_path_factory.getbasetemp() / "round_trip.cfg"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert parse_config(str(path)) == expected
    # the same key set again on any later line is refused, naming that line
    at = data.draw(st.integers(chosen + 1, len(lines)))
    key = lines[chosen].split("=")[0].strip()
    lines.insert(at, lines[chosen])
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(ConfigError, match=f":{at + 1}: duplicate key '{key}'"):
        parse_config(str(path))


def _cli_syntax():
    return ast.parse(inspect.getsource(cli))


def test_every_config_key_is_read_by_a_command():
    tree = _cli_syntax()
    registry = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.Assign)
                    and [target.id for target in node.targets] == ["CONFIG_KEYS"])
    inside = {id(node) for node in ast.walk(registry)}
    named = {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and id(node) not in inside}
    assert sorted(set(cli.CONFIG_KEYS) - named) == []


def test_forwarded_config_keys_reach_a_parameter_of_their_callee():
    # every `callee(..., **_options(cfg, arg="key"))`: a misspelt key or
    # argument would silently leave the callee's default in place
    forwards = []
    calls = [node for node in ast.walk(_cli_syntax()) if isinstance(node, ast.Call)]
    for node in calls:
        for keyword in node.keywords:
            value = keyword.value
            if (keyword.arg is None and isinstance(value, ast.Call)
                    and getattr(value.func, "id", None) == "_options"):
                name, *attrs = ast.unparse(node.func).split(".")
                callee = functools.reduce(getattr, attrs, getattr(cli, name))
                forwards.append((callee, {k.arg: k.value.value for k in value.keywords
                                          if k.arg is not None}))
    assert len(forwards) >= 10
    for callee, keys in forwards:
        parameters = inspect.signature(callee).parameters
        for arg, key in keys.items():
            assert key in cli.CONFIG_KEYS, key
            assert arg in parameters, (callee, arg)


@pytest.mark.parametrize("name", sorted(cli._MODEL_KEYS))
def test_model_keys_reach_parameters_the_model_accepts(name):
    keys = cli._MODEL_KEYS[name]
    # lindblad takes a crossing loss only with a dark third level
    text = {"model.branch": "A2", "model.channel": "dark",
            "model.observable": "x", "rates.gamma_isc_x_mhz": "0"}
    cfg = {key: cli.CONFIG_KEYS[key][0](text.get(key, "0.25"))
           for key in keys.values()}
    params = cli._model_params(cfg, name)
    assert set(params) == set(keys)
    # synth refuses a parameter its model does not take
    assert np.all(np.isfinite(synth.model_intensity(name, params)(
        np.linspace(0.0, 5.0, 6))))


@pytest.mark.parametrize("name", synth.MODEL_NAMES)
def test_required_model_parameters_come_from_required_keys(name):
    # with only its required keys set, the CLI still hands the builder every
    # parameter it requires: otherwise a missing key would exit 3 ("model
    # error") where the CLI promises exit 2 naming the key
    cfg = {key: cli.CONFIG_KEYS[key][0]("0.25")
           for key in cli._MODEL_REQUIRED_KEYS.get(name, ())}
    params = cli._model_params(cfg, name)
    required = [key for key, parameter in synth._MODEL_PARAMETERS[name].items()
                if parameter.default is parameter.empty]
    assert sorted(set(required) - set(params)) == []


# ---------------------------------------------------------------------------
# trace io


def test_trace_csv_round_trip(tmp_path):
    times = 0.25 * np.arange(8) + 0.125
    values = np.array([0, 3, 17, 9, 4, 2, 1, 0], dtype=np.int64)
    path = tmp_path / "counts.csv"
    write_trace_csv(path, times, {"counts": values}, counts=True)
    trace = load_trace(str(path))
    np.testing.assert_array_equal(trace.times, times)
    np.testing.assert_array_equal(trace.values, values)


def test_load_trace_checks_header(tmp_path):
    path = _write(tmp_path / "bad.csv", "t,counts\n0.0,1\n")
    with pytest.raises(CsvFormatError):
        load_trace(str(path))


def test_load_trace_cites_bad_row(tmp_path):
    path = _write(tmp_path / "bad.csv",
                  "time_ns,counts\n0.0,1\n0.5,oops\n")
    with pytest.raises(CsvFormatError) as err:
        load_trace(str(path))
    assert ":3" in str(err.value)


@pytest.mark.parametrize("cell", ["99999999999999999999", "-9223372036854775809"])
def test_fit_count_beyond_int64_cites_line(tmp_path, capsys, cell):
    path = _write(tmp_path / "big.csv", f"time_ns,counts\n0.5,5\n1.5,{cell}\n")
    assert cli.main(["fit", "--procedure", "exp-window", path]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"error: {path}:3: bad counts {cell!r}: outside the int64 range\n"


# a byte that is not UTF-8, in a trace, a points file and a config file
@pytest.mark.parametrize("text, argv", [
    (b"time_ns,counts\n0.5,\xff\n", ["fit", "--procedure", "exp-window"]),
    (b"temperature_k,gamma_add_mhz,sigma_mhz\n5,0.1,\xff\n",
     ["fit", "--procedure", "t5"]),
    (b"model.name = \xff\n", ["simulate", "--out", "OUT", "--config"]),
], ids=["trace", "points", "config"])
def test_non_utf8_input_is_input_error(tmp_path, capsys, text, argv):
    path = tmp_path / "input"
    path.write_bytes(text)
    argv = [str(tmp_path / "x.csv") if arg == "OUT" else arg for arg in argv]
    assert cli.main(argv + [str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and err.count("\n") == 1
    assert str(path) in err


def test_fit_oversized_cell_cites_line(tmp_path, capsys):
    # csv.reader refuses a cell over its field size limit
    path = _write(tmp_path / "long.csv",
                  f"time_ns,counts\n0.5,{'1' * (csv.field_size_limit() + 1)}\n")
    assert cli.main(["fit", "--procedure", "exp-window", path]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == (f"error: {path}:2: field larger than field limit "
                   f"({csv.field_size_limit()})\n")


@pytest.mark.parametrize("background, message", [
    ("-1e308", "trace values must be finite"),          # s - b overflows
    ("1e308", "uncertainty must be finite and >= 0"),   # s + b overflows
])
def test_background_overflow_is_one_line_input_error(tmp_path, capsys,
                                                     background, message):
    rows = "".join(f"{t},VALUE\n" for t in (0.5, 1.5, 2.5, 3.5))
    signal = _write(tmp_path / "signal.csv",
                    "time_ns,intensity\n" + rows.replace("VALUE", "1e308"))
    bg = _write(tmp_path / "background.csv",
                "time_ns,intensity\n" + rows.replace("VALUE", background))
    cfg = _write(tmp_path / "fit.cfg", f"trace.background = {bg}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would raise here
        code = cli.main(["fit", "--procedure", "exp-window", "--config", cfg,
                         signal])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {signal} / {bg}: {message}\n"


def test_fit_window_with_an_overflowing_amplitude_column_is_input_error(
        tmp_path, capsys):
    # fitted late in a rising trace, the rate -0.9 per ns puts the
    # amplitude's Jacobian column exp(-rate t) beyond the float range
    t = np.arange(1000.0)
    y = np.exp(0.9 * (t - 800.0)) + 1.0
    trace = _write(tmp_path / "rising.csv", "time_ns,intensity\n" + "".join(
        f"{time!r},{value!r}\n" for time, value in zip(t.tolist(), y.tolist())))
    cfg = _write(tmp_path / "fit.cfg",
                 "window.start_ns = 800\nwindow.length_ns = 100\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["fit", "--procedure", "exp-window", "--config", cfg,
                         trace])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "window starting at 800 ns" in err and "rate -0.9 rad/ns" in err


def test_load_trace_multicolumn_needs_selection(tmp_path):
    path = _write(tmp_path / "two.csv",
                  "time_ns,intensity_a1,intensity_a2\n0.0,1.0,1.0\n")
    with pytest.raises(CsvFormatError):
        load_trace(str(path))
    trace = load_trace(str(path), column="intensity_a2")
    assert trace.values[0] == 1.0


def test_load_trace_reject_before(tmp_path):
    path = _write(tmp_path / "counts.csv",
                  "time_ns,counts\n0.5,5\n1.5,4\n2.5,3\n3.5,2\n")
    trace = load_trace(str(path), reject_before=2.0)
    assert len(trace) == 2
    assert trace.times[0] == 2.5


def test_load_trace_background_warning(tmp_path, capsys):
    signal = _write(tmp_path / "signal.csv",
                    "time_ns,counts\n0.5,5\n1.5,4\n2.5,3\n")
    background = _write(tmp_path / "background.csv",
                        "time_ns,counts\n0.5,5\n1.5,1\n2.5,9\n")
    trace = load_trace(signal, background_path=background)
    assert trace.background_subtracted
    np.testing.assert_array_equal(trace.values, [0.0, 3.0, 0.0])
    assert "clamped" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_depolarization_golden(tmp_path):
    cfg = _write(tmp_path / "sim.cfg", """
model.name = depolarization
model.channel = bright
model.amplitude = 0.9
model.epsilon = 0.1
model.t0_ns = -3.6
rates.gamma_rad_mhz = 13.2
rates.gamma_mix_mhz = 18.5
grid.span_ns = 40.0
grid.step_ns = 0.5
""")
    out = tmp_path / "trace.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) \
        == EXIT_OK
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["time_ns", "intensity"]
    times = np.array([float(r[0]) for r in rows[1:]])
    values = np.array([float(r[1]) for r in rows[1:]])
    bright, _ = closedform.observed_polarized_intensity(
        0.9, 0.1, -3.6, GAMMA_RAD.value, GAMMA_MIX_WARM.value, times)
    expected = np.clip(np.where(times < -3.6, 0.0, bright), 0.0, None)
    # %.17g output reproduces the doubles bit for bit
    np.testing.assert_array_equal(values, expected)


def test_simulate_both_branches_ordered(tmp_path):
    cfg = _write(tmp_path / "sim.cfg", """
model.name = a12
model.branch = both
rates.gamma_rad_mhz = 13.2
rates.gamma_mix_mhz = 18.5
rates.gamma_isc_mhz = 16.0
grid.span_ns = 60.0
grid.step_ns = 0.25
""")
    out = tmp_path / "branches.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) \
        == EXIT_OK
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["time_ns", "intensity_a1", "intensity_a2"]
    a1 = np.array([float(r[1]) for r in rows[1:]])
    a2 = np.array([float(r[2]) for r in rows[1:]])
    assert np.all(a1 <= a2 + 1e-15)


def test_simulate_counts_deterministic(tmp_path):
    cfg = _write(tmp_path / "sim.cfg", """
model.name = exponential
model.rate_mhz = 29.2
synth.total_counts = 100000
synth.bin_ns = 0.25
synth.span_ns = 60.0
synth.seed = 11
""")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out_a)]) \
        == EXIT_OK
    assert cli.main(["simulate", "--config", cfg, "--out", str(out_b)]) \
        == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()
    # the seed flag overrides the config
    out_c = tmp_path / "c.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out_c),
                     "--seed", "12"]) == EXIT_OK
    assert out_c.read_bytes() != out_a.read_bytes()
    trace = load_trace(str(out_a))
    assert np.all(trace.values >= 0)


def test_simulate_missing_key_is_input_error(tmp_path):
    cfg = _write(tmp_path / "sim.cfg", "model.name = exponential\n")
    out = tmp_path / "x.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) \
        == EXIT_INPUT


@pytest.mark.parametrize("name, key", [
    ("exponential", "model.rate_mhz"), ("depolarization", "rates.gamma_rad_mhz"),
    ("a12", "rates.gamma_rad_mhz"), ("rabi", "rates.rabi_mhz"),
    ("lindblad", "rates.gamma_rad_mhz")])
def test_simulate_missing_model_key_names_it(tmp_path, capsys, name, key):
    cfg = _write(tmp_path / "sim.cfg", f"model.name = {name}\nsynth.total_counts = 1e4\n")
    assert cli.main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: missing config key {key!r} (required for model {name})\n")


def _assert_one_line_input_error(cfg, out, capsys):
    code = cli.main(["simulate", "--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert err.startswith("error:") and err.count("\n") == 1
    assert "must be finite" in err
    assert not out.exists()


def test_simulate_nan_step_is_input_error(tmp_path, capsys):
    cfg = _write(tmp_path / "sim.cfg", """
model.name = exponential
model.rate_mhz = 29.2
grid.span_ns = 60.0
grid.step_ns = nan
""")
    _assert_one_line_input_error(cfg, tmp_path / "x.csv", capsys)


def test_simulate_infinite_counts_is_input_error(tmp_path, capsys):
    cfg = _write(tmp_path / "sim.cfg", """
model.name = exponential
model.rate_mhz = 29.2
synth.total_counts = inf
synth.bin_ns = 0.25
synth.span_ns = 60.0
""")
    _assert_one_line_input_error(cfg, tmp_path / "x.csv", capsys)


def test_simulate_pulse_edge_padding_counts_toward_the_cap(tmp_path, capsys,
                                                          monkeypatch):
    # 480 bins, but 4 sigma of a 1e15 ns pulse edge pads them by ~3e16 bins
    monkeypatch.setattr(synth, "generate",
                        lambda spec: pytest.fail("the histogram was built"))
    cfg = _write(tmp_path / "sim.cfg", """
model.name = exponential
model.rate_mhz = 29.2
synth.total_counts = 1e6
synth.bin_ns = 0.25
synth.span_ns = 120
synth.pulse_edge_ns = 1e15
""")
    out = tmp_path / "x.csv"
    _assert_sweep_input_error(["simulate", "--config", cfg, "--out", str(out)],
                              capsys, "synthetic histogram would hold 1.36e+16")
    assert not out.exists()


def test_simulate_wide_pulse_edge_is_refused_unbuilt(tmp_path, capsys,
                                                    monkeypatch):
    # 41 248 samples, inside MAX_SAMPLES, but 40 769 kernel taps each
    monkeypatch.setattr(synth, "generate",
                        lambda spec: pytest.fail("the histogram was built"))
    cfg = _write(tmp_path / "sim.cfg", """
model.name = exponential
model.rate_mhz = 29.2
synth.total_counts = 1e6
synth.bin_ns = 0.25
synth.span_ns = 120
synth.pulse_edge_ns = 3000
""")
    out = tmp_path / "x.csv"
    _assert_sweep_input_error(["simulate", "--config", cfg, "--out", str(out)],
                              capsys, "a 3000 ns pulse edge would cost 1.68e+09 "
                              "convolution terms (limit 1e+09)")
    assert not out.exists()


def test_simulate_negative_seed_is_input_error(tmp_path, capsys):
    cfg = _write(tmp_path / "sim.cfg", """
model.name = exponential
model.rate_mhz = 29.2
synth.total_counts = 1e4
""")
    out = tmp_path / "x.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out),
                     "--seed", "-1"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == "error: seed must be a non-negative integer, got -1\n"
    assert not out.exists()


def test_simulate_huge_background_is_input_error(tmp_path, capsys):
    cfg = _write(tmp_path / "sim.cfg", """
model.name = exponential
model.rate_mhz = 29.2
synth.total_counts = 1e4
synth.background_per_bin = 1e300
""")
    out = tmp_path / "x.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: a bin would expect 1e+300 counts")
    assert err.count("\n") == 1
    assert not out.exists()


def test_simulate_bad_branch_is_model_error(tmp_path):
    cfg = _write(tmp_path / "sim.cfg", """
model.name = a12
model.branch = A3
rates.gamma_rad_mhz = 13.2
rates.gamma_mix_mhz = 18.5
rates.gamma_isc_mhz = 16.0
""")
    out = tmp_path / "x.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) \
        == EXIT_MODEL


def test_unexpected_exception_is_one_line_internal_error(monkeypatch, capsys):
    # an exception outside the documented error classes is a defect, but
    # still ends with one stderr line and its own exit code, not a traceback
    def broken(args):
        raise RuntimeError("lost a step")

    monkeypatch.setattr(cli, "cmd_verify", broken)
    assert cli.main(["verify"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: lost a step\n"


# ---------------------------------------------------------------------------
# fit


def _count_trace_file(tmp_path, seed=5):
    spec = synth.ExperimentSpec(model="exponential",
                                params=dict(rate=GAMMA_RAD.value),
                                bin_width=0.25, span=120.0,
                                total_counts=1e6, background_rate=0.0,
                                pulse_edge=0.0, seed=seed)
    trace = synth.generate(spec)
    path = tmp_path / "counts.csv"
    write_trace_csv(path, trace.times, {"counts": trace.values},
                    counts=True)
    return path, trace


def test_fit_exp_window_report(tmp_path, capsys):
    trace_path, _ = _count_trace_file(tmp_path)
    cfg = _write(tmp_path / "fit.cfg", """
rates.gamma_rad_mhz = 13.2
fit.weights = poisson
window.start_ns = 4.0
window.length_ns = 115.0
""")
    out = tmp_path / "params.csv"
    code = cli.main(["fit", "--procedure", "exp-window", "--config", cfg,
                     "--out", str(out), str(trace_path)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "converged: yes" in stdout
    assert "gamma_isc" in stdout
    with open(out, newline="") as handle:
        rows = {r[0]: r for r in csv.reader(handle)}
    assert rows["parameter"][1] == "value"
    rate_mhz = float(rows["rate"][1])
    sigma_mhz = float(rows["rate"][2])
    assert rows["rate"][5] == "MHz"
    assert rows["rate"][6] == "true"
    assert abs(rate_mhz - 13.2) < 4.0 * sigma_mhz
    lo, hi = float(rows["rate"][3]), float(rows["rate"][4])
    assert lo < rate_mhz < hi


def test_fit_rabi_pipeline(tmp_path):
    t = np.arange(0.0, 60.0, 0.05)
    y = closedform.rabi_fit_model(t, 1.3, 0.5, 0.3, 0.5, 9.0, 0.002)
    path = tmp_path / "rabi.csv"
    write_trace_csv(path, t, {"intensity": y})
    out = tmp_path / "params.csv"
    code = cli.main(["fit", "--procedure", "rabi", "--out", str(out),
                     str(path)])
    assert code == EXIT_OK
    with open(out, newline="") as handle:
        rows = {r[0]: r for r in csv.reader(handle)}
    assert float(rows["tau_rabi"][1]) == pytest.approx(9.0, rel=1e-6)
    # omega reported in MHz
    assert float(rows["omega"][1]) == pytest.approx(0.5e3 / (2 * np.pi),
                                                    rel=1e-6)


def test_fit_t5_matches_library(tmp_path):
    points = tmp_path / "points.csv"
    lines = ["temperature_k,gamma_add_mhz,sigma_mhz"]
    triples = []
    for temp in (5.0, 9.0, 14.0, 19.0, 24.0):
        rate = phonon.mixing_rate_fitform(
            rate_from_linear_mhz(2.0e-5), 4.4, rate_from_linear_mhz(0.08),
            temp)
        lines.append(f"{temp},{rate.linear_mhz!r},0.05")
        triples.append((temp, rate,
                        rate_from_linear_mhz(0.05, fitted=True)))
    points.write_text("\n".join(lines) + "\n")
    out = tmp_path / "params.csv"
    assert cli.main(["fit", "--procedure", "t5", "--out", str(out),
                     str(points)]) == EXIT_OK
    library = estimate.fit_t5(triples)
    with open(out, newline="") as handle:
        rows = {r[0]: r for r in csv.reader(handle)}
    assert float(rows["t0"][1]) == pytest.approx(library["t0"], rel=1e-9)
    assert float(rows["a"][1]) == pytest.approx(
        library["a"] * 1e3 / (2 * np.pi), rel=1e-9)


def test_fit_depol_pipeline(tmp_path):
    t = np.arange(0.0, 80.0, 0.5) + 0.25
    scale = 5e4
    rng = np.random.default_rng(17)
    names = []
    for label, temp, gm in (("cold", 5.0, rate_from_linear_mhz(0.08)),
                            ("warm", 20.0, GAMMA_MIX_WARM)):
        bright, dark = closedform.observed_polarized_intensity(
            0.9, 0.1, -3.6, GAMMA_RAD.value, gm.value, t)
        for channel, values in (("a", bright), ("b", dark)):
            counts = rng.poisson(values * scale)
            path = tmp_path / f"{label}_{channel}.csv"
            write_trace_csv(path, t, {"counts": counts}, counts=True)
            names.append(str(path))
    cfg = _write(tmp_path / "fit.cfg", f"""
rates.gamma_rad_mhz = 13.2
depol.temp_cold_k = 5.0
depol.temp_warm_k = 20.0
depol.gamma_mix_cold_mhz = 0.08
depol.gamma_mix_warm_mhz = 18.5
trace.normalization = {scale}
""")
    out = tmp_path / "params.csv"
    code = cli.main(["fit", "--procedure", "depol", "--config", cfg,
                     "--out", str(out)] + names)
    assert code == EXIT_OK
    with open(out, newline="") as handle:
        rows = {r[0]: r for r in csv.reader(handle)}
    assert float(rows["epsilon"][1]) == pytest.approx(0.1, abs=0.01)
    assert float(rows["t0"][1]) == pytest.approx(-3.6, abs=0.2)


def test_fit_depol_normalization_keeps_clamped_bins(tmp_path, monkeypatch):
    t = np.arange(0.0, 80.0, 0.5) + 0.25
    rng = np.random.default_rng(17)
    names = []
    for label, gm in (("cold", rate_from_linear_mhz(0.08)),
                      ("warm", GAMMA_MIX_WARM)):
        bright, dark = closedform.observed_polarized_intensity(
            0.9, 0.1, -3.6, GAMMA_RAD.value, gm.value, t)
        for channel, values in (("a", bright), ("b", dark)):
            path = tmp_path / f"{label}_{channel}.csv"
            write_trace_csv(path, t, {"counts": rng.poisson(values * 5e4)},
                            counts=True)
            names.append(str(path))
    # a background above the signal in the last three bins clamps them
    background = np.zeros(len(t), dtype=np.int64)
    background[-3:] = 10**9
    bg_path = tmp_path / "background.csv"
    write_trace_csv(bg_path, t, {"counts": background}, counts=True)
    cfg = _write(tmp_path / "fit.cfg", f"""
rates.gamma_rad_mhz = 13.2
depol.temp_cold_k = 5.0
depol.temp_warm_k = 20.0
depol.gamma_mix_cold_mhz = 0.08
depol.gamma_mix_warm_mhz = 18.5
trace.background = {bg_path}
trace.normalization = 5e4
""")
    seen = []
    real_fit = estimate.fit_depolarization

    def spy(traces, **kwargs):
        seen.extend(traces)
        return real_fit(traces, **kwargs)

    monkeypatch.setattr(estimate, "fit_depolarization", spy)
    code = cli.main(["fit", "--procedure", "depol", "--config", cfg,
                     "--out", str(tmp_path / "params.csv")] + names)
    assert code == EXIT_OK
    assert [tr.clamped_bins for tr in seen] == [3, 3, 3, 3]
    assert [tr.channel for tr in seen] == ["a", "b", "a", "b"]
    assert all(tr.background_subtracted for tr in seen)
    assert float(np.max(seen[0].values)) < 1.0


def test_fit_gamma_a1_round_trip(tmp_path):
    points = tmp_path / "points.csv"
    lines = ["temperature_k,gamma_eff_mhz,sigma_mhz,branch"]
    for temp in (6.0, 12.0, 18.0, 24.0):
        gm = phonon.MIXING_FIT_DEFAULT.clamped(temp)
        eff_a1, eff_a2 = phonon.effective_isc_rates(
            GAMMA_RAD, rate_from_linear_mhz(16.0), gm)
        lines.append(f"{temp},{eff_a1.linear_mhz!r},0.05,A1")
        lines.append(f"{temp},{eff_a2.linear_mhz!r},0.05,A2")
    points.write_text("\n".join(lines) + "\n")
    cfg = _write(tmp_path / "fit.cfg", """
rates.gamma_rad_mhz = 13.2
t5.a_mhz_per_k5 = 2.0e-5
t5.t0_k = 4.4
t5.c_mhz = 0.08
""")
    out = tmp_path / "params.csv"
    assert cli.main(["fit", "--procedure", "gamma-a1", "--config", cfg,
                     "--out", str(out), str(points)]) == EXIT_OK
    with open(out, newline="") as handle:
        rows = {r[0]: r for r in csv.reader(handle)}
    assert float(rows["gamma_a1"][1]) == pytest.approx(16.0, abs=1e-6)


def test_fit_malformed_input_is_input_error(tmp_path):
    path = _write(tmp_path / "bad.csv", "time_ns,counts\n0.0,not_a_count\n")
    assert cli.main(["fit", "--procedure", "exp-window", str(path)]) \
        == EXIT_INPUT


def test_fit_non_finite_point_cites_line(tmp_path, capsys):
    path = _write(tmp_path / "points.csv", "temperature_k,gamma_add_mhz,sigma_mhz\n"
                  "5,0.1,0.05\n9,0.2,nan\n14,0.3,0.05\n19,0.4,0.05\n")
    assert cli.main(["fit", "--procedure", "t5", path]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{path}:3" in err and "sigma_mhz" in err


@pytest.mark.parametrize("procedure, row, cell, message", [
    ("t5", "nan,0.2,0.05", "temperature_k 'nan'",
     "temperature must be finite, got nan"),
    ("t5", "-3,0.2,0.05", "temperature_k '-3'", "temperature must be >= 0 K, got -3.0"),
    ("t5", "9,0.2,0", "sigma_mhz '0'", "must be > 0"),
    ("gamma-a1", "nan,0.2,0.05,A2", "temperature_k 'nan'",
     "temperature must be finite, got nan"),
    ("gamma-a1", "-3,0.2,0.05,A2", "temperature_k '-3'",
     "temperature must be >= 0 K, got -3.0"),
    ("gamma-a1", "9,0.2,-0.2,A2", "sigma_mhz '-0.2'", "must be > 0"),
])
def test_fit_refused_point_cell_cites_file_and_line(tmp_path, capsys, procedure,
                                                     row, cell, message):
    # cells the reader accepts but the fit refuses are refused by the reader
    header = {"t5": "temperature_k,gamma_add_mhz,sigma_mhz",
              "gamma-a1": "temperature_k,gamma_eff_mhz,sigma_mhz,branch"}[procedure]
    first = {"t5": "5,0.1,0.05", "gamma-a1": "5,0.1,0.05,A1"}[procedure]
    path = _write(tmp_path / "points.csv", f"{header}\n{first}\n{row}\n")
    # the config gamma-a1 needs, so that only the point can be refused
    cfg = _write(tmp_path / "fit.cfg", "rates.gamma_rad_mhz = 13.2\n"
                 "t5.a_mhz_per_k5 = 2.0e-5\nt5.t0_k = 4.4\nt5.c_mhz = 0.08\n")
    assert cli.main(["fit", "--procedure", procedure, "--config", cfg,
                     path]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {path}:3: bad {cell}: {message}\n"


@pytest.mark.parametrize("procedure, count, message", [
    ("rabi", 2, "exactly one trace"), ("exp-window", 2, "exactly one trace"),
    ("t5", 2, "exactly one points CSV"), ("gamma-a1", 3, "exactly one points CSV"),
    ("depol", 3, "four traces: cold-a cold-b warm-a warm-b"),
    ("depol", 5, "four traces: cold-a cold-b warm-a warm-b")])
def test_fit_wrong_input_count_is_input_error(tmp_path, capsys, procedure,
                                              count, message):
    inputs = [_write(tmp_path / f"in{k}.csv", "time_ns,counts\n0.5,1\n")
              for k in range(count)]
    assert cli.main(["fit", "--procedure", procedure] + inputs) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: procedure {procedure} takes {message}\n")


def test_fit_report_rates_are_linear_mhz_of_the_fit(tmp_path):
    trace_path, _ = _count_trace_file(tmp_path)
    out = tmp_path / "params.csv"
    assert cli.main(["fit", "--procedure", "exp-window", "--out", str(out),
                     str(trace_path)]) == EXIT_OK
    result = estimate.fit_exponential_window(load_trace(str(trace_path)),
                                             estimate.FitWindow())
    with open(out, newline="") as handle:
        rows = {r[0]: r for r in csv.reader(handle)}
    for name in result.names:
        lo, hi = result.ci95[name]
        numbers = [result[name], result.sigma_of(name), lo, hi]
        if rows[name][5] == "MHz":
            numbers = [to_linear_mhz(x) for x in numbers]
        assert [float(x) for x in rows[name][1:5]] == numbers
    assert rows["rate"][5] == "MHz" and rows["amplitude"][5] == "1"


def test_fit_unknown_procedure_is_input_error(tmp_path):
    path = _write(tmp_path / "x.csv", "time_ns,counts\n0.5,1\n")
    assert cli.main(["fit", "--procedure", "wavelet", str(path)]) \
        == EXIT_INPUT


def test_fit_iteration_cap_reports_no_convergence(tmp_path, capsys):
    trace_path, _ = _count_trace_file(tmp_path)
    cfg = _write(tmp_path / "fit.cfg", "fit.max_iter = 1\n")
    out = tmp_path / "params.csv"
    code = cli.main(["fit", "--procedure", "exp-window", "--config", cfg,
                     "--out", str(out), str(trace_path)])
    assert code == EXIT_NO_CONVERGENCE
    # the report is still written, flagged as unconverged
    with open(out, newline="") as handle:
        rows = {r[0]: r for r in csv.reader(handle)}
    assert rows["rate"][6] == "false"
    assert "did not converge" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_temperature_t5_scaling(tmp_path):
    cfg = _write(tmp_path / "sweep.cfg", """
rates.gamma_rad_mhz = 13.2
rates.gamma_a1_mhz = 16.0
""")
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--sweep", "T:5:20:5", "--config", cfg,
                     "--out", str(out)]) == EXIT_OK
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["temperature_k", "gamma_mix_mhz",
                       "gamma_eff_a1_mhz", "gamma_eff_a2_mhz"]
    table = {float(r[0]): [float(x) for x in r[1:]] for r in rows[1:]}
    assert set(table) == {5.0, 10.0, 15.0, 20.0}
    # default eta mixing follows the fifth power
    assert table[20.0][0] / table[10.0][0] == pytest.approx(32.0, rel=1e-9)
    # branch rates approach each other as mixing grows
    gap_cold = table[5.0][1] - table[5.0][2]
    gap_warm = table[20.0][1] - table[20.0][2]
    assert gap_warm < gap_cold


def test_sweep_temperature_matches_scalar_forward_model(tmp_path):
    cfg = _write(tmp_path / "sweep.cfg", """
rates.gamma_rad_mhz = 13.2
rates.gamma_a1_mhz = 16.0
t5.a_mhz_per_k5 = 2e-5
t5.t0_k = 4.4
t5.c_mhz = 0.08
""")
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--sweep", "T:5:26:3", "--config", cfg,
                     "--out", str(out)]) == EXIT_OK
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["temperature_k", "gamma_mix_mhz",
                       "gamma_eff_a1_mhz", "gamma_eff_a2_mhz"]
    assert len(rows) == 9
    # the config holds the numbers of the library's mixing law, and the
    # table is one library forward-model call over the grid, bit for bit
    table = np.array([[float(x) for x in row] for row in rows[1:]])
    mixes = [phonon.MIXING_FIT_DEFAULT.clamped(temp).value for temp in table[:, 0]]
    eff_a1, eff_a2 = phonon.effective_isc_rates(
        GAMMA_RAD, rate_from_linear_mhz(16.0), mixes)
    np.testing.assert_array_equal(
        table[:, 1:], to_linear_mhz(np.array([mixes, eff_a1, eff_a2])).T)


def test_sweep_delta_ratio_ignores_spin_orbit(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    cfg_b = _write(tmp_path / "b.cfg", "phonon.lambda_perp_ratio = 2.4\n")
    assert cli.main(["sweep", "--sweep", "delta:20:200:20",
                     "--out", str(out_a)]) == EXIT_OK
    assert cli.main(["sweep", "--sweep", "delta:20:200:20",
                     "--config", cfg_b, "--out", str(out_b)]) == EXIT_OK
    with open(out_a, newline="") as handle:
        rows_a = list(csv.reader(handle))
    with open(out_b, newline="") as handle:
        rows_b = list(csv.reader(handle))
    assert rows_a[0] == ["delta_mev", "f_per_mev", "gamma_a1_mhz",
                         "gamma_e12_mhz", "ratio"]
    ratio_col = rows_a[0].index("ratio")
    ga1_col = rows_a[0].index("gamma_a1_mhz")
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        # branch ratio is a pure phonon quantity
        assert row_a[ratio_col] == row_b[ratio_col]
        # the rates themselves scale with the coupling
        assert float(row_b[ga1_col]) == pytest.approx(
            4.0 * float(row_a[ga1_col]), rel=1e-9)


def test_sweep_rejects_bad_axis(tmp_path):
    out = tmp_path / "x.csv"
    assert cli.main(["sweep", "--sweep", "pressure:0:1:0.1",
                     "--out", str(out)]) == EXIT_INPUT
    assert cli.main(["sweep", "--sweep", "T:20:5:1",
                     "--out", str(out)]) == EXIT_INPUT


def _assert_sweep_input_error(argv, capsys, message):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


def test_sweep_temperature_short_window_is_input_error(tmp_path, capsys):
    # 0.3 ns holds two 0.25 ns forward-model samples
    cfg = _write(tmp_path / "sweep.cfg", """
rates.gamma_rad_mhz = 13.2
rates.gamma_a1_mhz = 16.0
window.length_ns = 0.3
""")
    _assert_sweep_input_error(
        ["sweep", "--config", cfg, "--sweep", "T:5:26:3",
         "--out", str(tmp_path / "x.csv")], capsys,
        "window must contain at least 3 samples")


T5_KEYS = "t5.a_mhz_per_k5 = 2e-5\nt5.t0_k = 4.4\nt5.c_mhz = 0.08\n"


@pytest.mark.parametrize("extra, sweep, message", [
    ("", "T:1e70:1e70:1", "mixing law overflows at T = 1e+70 K, eta = "),
    (T5_KEYS, "T:1e70:1e70:1", "mixing law overflows at T = 1e+70 K"),
    ("phonon.eta_mhz_per_mev3 = 1e300\n", "T:5:26:3",
     "mixing law overflows at T = 5 K, eta = 6.28319e+297 rad/ns"),
], ids=["eta-law-T", "fit-form-T", "eta"])
def test_sweep_temperature_mixing_overflow_is_input_error(tmp_path, capsys,
                                                          extra, sweep, message):
    cfg = _write(tmp_path / "sweep.cfg",
                 "rates.gamma_rad_mhz = 13.2\nrates.gamma_a1_mhz = 16\n" + extra)
    out = tmp_path / "x.csv"
    _assert_sweep_input_error(["sweep", "--config", cfg, "--sweep", sweep,
                               "--out", str(out)], capsys, message)
    assert not out.exists()


def test_sweep_delta_off_the_overlap_support_writes_zero_rows(tmp_path):
    table = _write(tmp_path / "table.csv", "energy_mev,f_per_mev\n10,0.2\n100,0.1\n")
    cfg = _write(tmp_path / "sweep.cfg", f"files.overlap_table = {table}\n"
                 "phonon.cutoff_mev = 30\n")
    out = tmp_path / "delta.csv"
    assert cli.main(["sweep", "--sweep", "delta:0:150:25", "--config", cfg,
                     "--out", str(out)]) == EXIT_OK
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    delta, f_value, gamma_a1, gamma_e12, ratio = rows.T
    off = (delta < 10.0) | (delta > 100.0)
    assert delta[off].tolist() == [0.0, 125.0, 150.0]
    assert not (f_value[off].any() or gamma_a1[off].any()
                or gamma_e12[off].any() or ratio[off].any())
    overlap = phonon.OverlapTable.from_csv(table)
    coupling = phonon.PhononCoupling(eta=phonon.ETA_DEFAULT,
                                     cutoff=EnergyMeV(30.0))
    for d, a1, r in zip(delta[~off], gamma_a1[~off], ratio[~off]):
        assert a1 == phonon.isc_rate_a1(phonon.SpinOrbit(), overlap, d).linear_mhz
        assert r == phonon.crossing_ratio(coupling, overlap, d)


def test_sweep_delta_below_zero_is_input_error(tmp_path, capsys):
    # isc_rate_a1 checks every gap of the grid, as crossing_ratio does
    out = tmp_path / "x.csv"
    _assert_sweep_input_error(["sweep", "--sweep", "delta:-50:100:50",
                               "--out", str(out)], capsys,
                              "energy must be >= 0 meV, got -50.0")
    assert not out.exists()


def test_sweep_missing_overlap_table_is_input_error(tmp_path, capsys):
    missing = tmp_path / "absent.csv"
    cfg = _write(tmp_path / "sweep.cfg", f"files.overlap_table = {missing}\n")
    _assert_sweep_input_error(
        ["sweep", "--config", cfg, "--sweep", "delta:100:200:50",
         "--out", str(tmp_path / "x.csv")], capsys, str(missing))


def test_sweep_bad_overlap_cell_is_input_error(tmp_path, capsys):
    table = _write(tmp_path / "table.csv", "energy_mev,f_per_mev\n0,abc\n")
    cfg = _write(tmp_path / "sweep.cfg", f"files.overlap_table = {table}\n")
    _assert_sweep_input_error(
        ["sweep", "--config", cfg, "--sweep", "delta:100:200:50",
         "--out", str(tmp_path / "x.csv")], capsys, f"{table}:2: bad f_per_mev 'abc'")


def test_sweep_oversized_overlap_cell_is_input_error(tmp_path, capsys):
    table = _write(tmp_path / "table.csv", "energy_mev,f_per_mev\n"
                   f"0,{'1' * (csv.field_size_limit() + 1)}\n")
    cfg = _write(tmp_path / "sweep.cfg", f"files.overlap_table = {table}\n")
    _assert_sweep_input_error(
        ["sweep", "--config", cfg, "--sweep", "delta:100:200:50",
         "--out", str(tmp_path / "x.csv")], capsys,
        f"{table}:2: field larger than field limit")


@pytest.mark.parametrize("rows, message", [
    ("", "overlap table needs >= 2 (energy, value) rows"),
    ("0,1\n", "overlap table needs >= 2 (energy, value) rows"),
    ("1,1\n0,1\n", "overlap energies must be strictly increasing"),
    ("-1,1\n0,1\n", "overlap energies must be >= 0 meV"),
    ("0,-1\n1,1\n", "overlap values must be >= 0"),
    ("0,nan\n1,1\n", "overlap table entries must be finite"),
    # finite entries whose cumulative integrals overflow
    ("0,0\n100,1e308\n500,1e308\n",
     "overlap table's slopes or cumulative integrals overflow"),
], ids=["header-only", "one-row", "decreasing", "negative-energy",
        "negative-value", "nan", "overflow"])
def test_sweep_refused_overlap_table_names_its_file(tmp_path, capsys, rows,
                                                    message):
    table = _write(tmp_path / "table.csv", "energy_mev,f_per_mev\n" + rows)
    cfg = _write(tmp_path / "sweep.cfg", f"files.overlap_table = {table}\n")
    out = tmp_path / "x.csv"
    assert cli.main(["sweep", "--config", cfg, "--sweep", "delta:100:400:50",
                     "--out", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"error: {table}: {message}\n"
    assert not out.exists()


def test_sample_cap_refuses_oversized_grids(tmp_path, capsys):
    # each request is refused by the size check, before numpy sees it
    out = str(tmp_path / "x.csv")
    _assert_sweep_input_error(["sweep", "--sweep", "T:1:1e9:1e-9", "--out", out],
                              capsys, "sweep grid")
    _assert_sweep_input_error(["sweep", "--sweep", "delta:0:1e300:1e-300",
                               "--out", out], capsys, "sweep grid")
    grid = _write(tmp_path / "grid.cfg", """
model.name = exponential
model.rate_mhz = 29.2
grid.span_ns = 1e9
grid.step_ns = 1e-9
""")
    _assert_sweep_input_error(["simulate", "--config", grid, "--out", out],
                              capsys, "time grid")
    histogram = _write(tmp_path / "synth.cfg", """
model.name = exponential
model.rate_mhz = 29.2
synth.total_counts = 1000
synth.span_ns = 1e9
synth.bin_ns = 1e-9
""")
    _assert_sweep_input_error(["simulate", "--config", histogram, "--out", out],
                              capsys, "synthetic histogram")
    assert not (tmp_path / "x.csv").exists()


def test_simulate_subnormal_bin_width_is_input_error(tmp_path, capsys):
    # bin centres 5e-324 ns apart would round together; the refusal names
    # the spec's field
    out = str(tmp_path / "x.csv")
    cfg = _write(tmp_path / "synth.cfg", """
model.name = exponential
model.rate_mhz = 29.2
synth.total_counts = 1000
synth.span_ns = 1e-322
synth.bin_ns = 5e-324
""")
    _assert_sweep_input_error(["simulate", "--config", cfg, "--out", out],
                              capsys, "bin_width must be at least")
    assert not (tmp_path / "x.csv").exists()


def test_sample_cap_boundary(monkeypatch):
    monkeypatch.setattr(cli, "MAX_SAMPLES", 5)
    assert len(cli._sweep_grid(1.0, 5.0, 1.0)) == 5
    with pytest.raises(ConfigError, match="limit 5"):
        cli._sweep_grid(1.0, 6.0, 1.0)


# ---------------------------------------------------------------------------
# unwritable outputs


@pytest.mark.parametrize("command", ["simulate", "fit", "sweep"])
def test_unwritable_output_is_input_error(tmp_path, capsys, command):
    out = str(tmp_path / "missing" / "x.csv")
    if command == "simulate":
        cfg = _write(tmp_path / "sim.cfg",
                     "model.name = exponential\nmodel.rate_mhz = 29.2\n")
        argv = ["simulate", "--config", cfg, "--out", out]
    elif command == "fit":
        trace_path, _ = _count_trace_file(tmp_path)
        argv = ["fit", "--procedure", "exp-window", "--out", out, str(trace_path)]
    else:
        argv = ["sweep", "--sweep", "delta:100:200:50", "--out", out]
    capsys.readouterr()
    _assert_sweep_input_error(argv, capsys, f"cannot write {out}")


# ---------------------------------------------------------------------------
# one parser per process: no option carries over between main() calls


@pytest.mark.parametrize("full, bare", [
    (["simulate", "--config", "a", "--out", "b", "--seed", "3"],
     ["simulate", "--config", "c", "--out", "d"]),
    (["fit", "--procedure", "rabi", "--config", "a", "--out", "b", "x", "y"],
     ["fit", "--procedure", "t5", "z"]),
    (["sweep", "--sweep", "T:1:2:1", "--config", "a", "--out", "b"],
     ["sweep", "--out", "c"]),
    (["fit", "--procedure", "t5", "--out", "b", "z"], ["verify"]),
])
def test_reused_parser_parses_like_a_fresh_one(full, bare):
    def parsed(parser, argv):
        return {key: value for key, value in vars(parser.parse_args(argv)).items()
                if key != "func"}

    cli._session_parser().parse_args(full)
    assert parsed(cli._session_parser(), bare) == parsed(cli.build_parser(), bare)


@pytest.mark.parametrize("command, argv", [
    ("cmd_simulate", ["simulate", "--config", "a", "--out", "b"]),
    ("cmd_fit", ["fit", "--procedure", "t5", "z"]),
    ("cmd_sweep", ["sweep", "--out", "c"]),
    ("cmd_verify", ["verify"]),
])
def test_built_parser_calls_the_patched_command(monkeypatch, command, argv):
    # the parser outlives a monkeypatch, so its funcs look commands up late
    cli._session_parser()
    seen = []
    monkeypatch.setattr(cli, command, lambda args: seen.append(args) or 17)
    assert cli.main(argv) == 17
    assert [args.command for args in seen] == [argv[0]]


def test_consecutive_fits_share_no_out_file(tmp_path, capsys):
    trace_path, _ = _count_trace_file(tmp_path)
    out = tmp_path / "fit.csv"
    fit = ["fit", "--procedure", "exp-window"]
    assert cli.main(fit + ["--out", str(out), str(trace_path)]) == EXIT_OK
    first = capsys.readouterr().out
    out.unlink()
    assert cli.main(fit + [str(trace_path)]) == EXIT_OK
    second = capsys.readouterr().out
    assert not out.exists()
    assert first == second + f"fit: parameters written to {out}\n"


def test_sweep_after_a_sweep_flag_reads_its_config(tmp_path, capsys):
    delta = tmp_path / "delta.csv"
    assert cli.main(["sweep", "--sweep", "delta:380:480:5",
                     "--out", str(delta)]) == EXIT_OK
    cfg = _write(tmp_path / "sweep.cfg", """
rates.gamma_rad_mhz = 13.2
rates.gamma_a1_mhz = 16.0
sweep.axis = T
sweep.lo = 5
sweep.hi = 26
sweep.step = 3
""")
    table = tmp_path / "t.csv"
    assert cli.main(["sweep", "--config", cfg, "--out", str(table)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        f"sweep: wrote 21 gap points to {delta}",
        f"sweep: wrote 8 temperature points to {table}"]
    header, *rows = table.read_text(encoding="utf-8").splitlines()
    assert header.startswith("temperature_k,")
    assert [float(row.split(",")[0]) for row in rows] == list(range(5, 27, 3))


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_and_is_deterministic(capsys):
    assert cli.main(["verify"]) == EXIT_OK
    first = capsys.readouterr().out
    assert cli.main(["verify"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    assert "checks passed" in first
    assert "FAIL" not in first


def test_verify_output_is_pinned(capsys):
    # recorded before the envelope identities were evaluated on arrays and
    # before _propagate read remainder-free grids straight off the lattice;
    # the forward model's closed-form moments changed the window_fit line
    # only, its no-mixing errors 4.1e-16 rel, 2.8e-17 abs -> 1.4e-16, 0.0
    assert cli.main(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b0d3bb210f235c9e0aa8d6d911e0e1a0fef8370e6ee5cf3bee8007ba8f52913f")


def test_envelope_identities_detail_matches_the_per_draw_loop():
    # the check as it was written before it evaluated its 200 draws as
    # arrays: one EnvelopeParams and scalar closed form per draw
    draws = np.random.default_rng(12345).random(1000).reshape(200, 5)
    rates = 0.126 * draws[:, :4]
    gr_ys = 1e-3 + (0.126 - 1e-3) * draws[:, 4]
    worst_sum = worst_g0 = worst_sym = 0.0
    for (gr_x, gt2, m_xy, m_yx), gr_y in zip(rates.tolist(), gr_ys.tolist()):
        params = closedform.EnvelopeParams(gr_x, gr_y, m_xy, m_yx, gt2)
        _, _, amp_a, amp_b = closedform.envelope_timescales(params)
        worst_sum = max(worst_sum, abs(amp_a + amp_b - 1.0))
        worst_g0 = max(worst_g0, abs(float(closedform.rabi_envelope(params, 0.0)) - 1.0))
        sym = closedform.EnvelopeParams(gr_x, max(gr_x, 1e-6), m_xy, m_xy, gt2)
        _, _, amp_a_s, _ = closedform.envelope_timescales(sym)
        worst_sym = max(worst_sym, abs(amp_a_s) - 1.0 / 3.0)
    detail = (f"A+B-1 {worst_sum:.1e}, g(0)-1 {worst_g0:.1e}, "
              f"|A|-1/3 {worst_sym:.1e}")
    assert verify.check_envelope_identities() == (True, detail)


def test_verify_catches_a_broken_envelope(monkeypatch, capsys):
    # B off by 1e-9 breaks A + B = 1 and g(0) = 1
    terms = closedform._envelope_terms

    def shifted(*rates):
        tau_rabi, tau_2, amp_a, amp_b = terms(*rates)
        return tau_rabi, tau_2, amp_a, amp_b + 1e-9

    monkeypatch.setattr(closedform, "_envelope_terms", shifted)
    assert cli.main(["verify"]) == EXIT_VERIFY
    out = capsys.readouterr().out
    assert "FAIL envelope_identities" in out
    assert "verify: 12/13 checks passed" in out


def test_verify_catches_perturbed_constant(monkeypatch, capsys):
    import nvphonon.core as core
    # a wrong emission-angle factor must trip the coefficient check
    broken = core.Constants(hbar=core.CONSTANTS.hbar,
                            kb=core.CONSTANTS.kb, alpha=20.0)
    monkeypatch.setattr(core, "CONSTANTS", broken)
    assert cli.main(["verify"]) == EXIT_VERIFY
    out = capsys.readouterr().out
    assert "FAIL t5_coefficient" in out
