import csv

import numpy as np
import pytest

from nvphonon import cli, closedform, estimate, phonon, synth, verify
from nvphonon.cli import (
    EXIT_INPUT,
    EXIT_MODEL,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_VERIFY,
    ConfigError,
    TraceFormatError,
    load_trace,
    parse_config,
    write_trace_csv,
)
from nvphonon.core import TimeTrace, rate_from_linear_mhz

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
    with pytest.raises(TraceFormatError):
        load_trace(str(path))


def test_load_trace_cites_bad_row(tmp_path):
    path = _write(tmp_path / "bad.csv",
                  "time_ns,counts\n0.0,1\n0.5,oops\n")
    with pytest.raises(TraceFormatError) as err:
        load_trace(str(path))
    assert ":3" in str(err.value)


@pytest.mark.parametrize("cell", ["99999999999999999999", "-9223372036854775809"])
def test_fit_count_beyond_int64_cites_line(tmp_path, capsys, cell):
    path = _write(tmp_path / "big.csv", f"time_ns,counts\n0.5,5\n1.5,{cell}\n")
    assert cli.main(["fit", "--procedure", "exp-window", path]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"error: {path}:3: count {cell!r} outside the int64 range\n"


def test_load_trace_multicolumn_needs_selection(tmp_path):
    path = _write(tmp_path / "two.csv",
                  "time_ns,intensity_a1,intensity_a2\n0.0,1.0,1.0\n")
    with pytest.raises(TraceFormatError):
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
    form = phonon.MixingFitForm(a=rate_from_linear_mhz(2e-5), t0_k=4.4,
                                c=rate_from_linear_mhz(0.08))
    for row in rows[1:]:
        temp, mix, a1, a2 = (float(x) for x in row)
        gm = form.clamped(temp)
        eff_a1, eff_a2 = phonon.effective_isc_rates(
            GAMMA_RAD, rate_from_linear_mhz(16.0), gm)
        np.testing.assert_allclose(
            [mix, a1, a2], [gm.linear_mhz, eff_a1.linear_mhz, eff_a2.linear_mhz],
            rtol=1e-12)


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
         "--out", str(tmp_path / "x.csv")], capsys, f"{table}, line 2")


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
# verify


def test_verify_passes_and_is_deterministic(capsys):
    assert cli.main(["verify"]) == EXIT_OK
    first = capsys.readouterr().out
    assert cli.main(["verify"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    assert "checks passed" in first
    assert "FAIL" not in first


def test_verify_catches_perturbed_constant(monkeypatch, capsys):
    import nvphonon.core as core
    # a wrong emission-angle factor must trip the coefficient check
    broken = core.Constants(hbar=core.CONSTANTS.hbar,
                            kb=core.CONSTANTS.kb, alpha=20.0)
    monkeypatch.setattr(core, "CONSTANTS", broken)
    assert cli.main(["verify"]) == EXIT_VERIFY
    out = capsys.readouterr().out
    assert "FAIL t5_coefficient" in out
