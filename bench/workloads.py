"""The benchmark's workloads.

Every workload drives the package only through its public functions. A
workload is built from the run's seed (input generation), then its
`item(index)` is timed repeatedly; `check(index, output)` and `finish()`
verify the outputs outside the timed region and return a list of
problems, empty when everything is correct.
"""

import contextlib
import io
import math
from pathlib import Path

import numpy as np

import oracles
from nvphonon import cli, dynamics, estimate, phonon, synth, verify
from nvphonon.core import TWO_PI, rate_from_linear_mhz
from nvphonon.estimate import FitWindow

TO_MHZ = 1e3 / TWO_PI
GAMMA_RAD_MHZ = 13.2
GAMMA_ISC_MHZ = 16.0
# as acceptance criterion 5 writes them, so its seeds give the same bits
GAMMA_RAD = TWO_PI * 13.2e-3
GAMMA_ISC = TWO_PI * 16.0e-3
TEMPERATURES = np.linspace(5.0, 26.0, 8)
WINDOW = FitWindow(start=4.0, length=115.0)
TOLERANCE_MHZ = 0.6          # the paper's recovery criterion
MIN_HIT_SHARE = 0.95
CRITERION_SEEDS = 100
# criterion-5 seeds of the deterministic result guard (gamma_a1_rmse_mhz)
ANCHOR_SEEDS = range(8)


def count_problems(calls, expected):
    """Span counts of one traced item that differ from `expected`."""
    return [f"{calls.get(name, 0)} {name} spans per item, expected {count}"
            for name, count in expected.items() if calls.get(name, 0) != count]


def recover_gamma_a1(criterion_seed):
    """Acceptance criterion 5 for one seed: 8 temperatures x 2 branches of
    10^6-count histograms, windowed fits, then the global Gamma_A1 fit."""
    points = []
    for k, temperature in enumerate(TEMPERATURES):
        gamma_mix = phonon.MIXING_FIT_DEFAULT.clamped(temperature)
        for j, branch in enumerate(("A1", "A2")):
            spec = synth.ExperimentSpec(
                model="a12",
                params=dict(gamma_rad=GAMMA_RAD, gamma_mix=gamma_mix,
                            gamma_isc=GAMMA_ISC, branch=branch),
                bin_width=0.25, span=120.0, total_counts=1_000_000.0,
                background_rate=0.0, pulse_edge=0.0,
                seed=criterion_seed * 100 + 2 * k + j)
            fit = estimate.fit_exponential_window(synth.generate(spec), WINDOW)
            points.append((temperature, fit["rate"] - GAMMA_RAD,
                           fit.sigma_of("rate"), branch))
    return estimate.fit_gamma_a1(points, phonon.MIXING_FIT_DEFAULT, GAMMA_RAD)


def anchor_rmse_mhz():
    """RMS deviation of the recovered Gamma_A1/2pi from the injected value
    over ANCHOR_SEEDS, and the seeds recovered outside the tolerance."""
    errors = {seed: recover_gamma_a1(seed)["gamma_a1"] * TO_MHZ - GAMMA_ISC_MHZ
              for seed in ANCHOR_SEEDS}
    misses = [seed for seed, error in errors.items() if abs(error) > TOLERANCE_MHZ]
    rmse = math.sqrt(sum(error * error for error in errors.values()) / len(errors))
    return rmse, misses


class GammaA1Recovery:
    """One item is one of criterion 5's seeds 0-99, in an order drawn from
    the run seed. Seeds differ in work (the global fit's iterations), so
    drawing every run's items from the same hundred keeps runs alike."""

    def __init__(self, seed, workdir):
        self.order = [int(s) for s in np.random.default_rng(seed).permutation(CRITERION_SEEDS)]
        self.recovered = {}

    def seed_of(self, index):
        return self.order[index % len(self.order)]

    def item(self, index):
        return recover_gamma_a1(self.seed_of(index))

    @staticmethod
    def check_spans(calls):
        """Tracer self-test on one item's span counts {span name: calls}."""
        problems = count_problems(calls, {"synth.generate": 16, "estimate.fit_gamma_a1": 1})
        if not calls.get("phonon.effective_isc_rates"):
            problems.append("no phonon.effective_isc_rates spans")
        # every forward-model evaluation makes its two branch fits through
        # the traced function, or (a fit-free forward model) none does
        nested = calls.get("estimate.fit_exponential_window", 0) - 16
        if nested not in (0, 2 * calls.get("phonon.effective_isc_rates", 0)):
            problems.append(f"{nested} nested estimate.fit_exponential_window spans for "
                            f"{calls.get('phonon.effective_isc_rates', 0)} "
                            "phonon.effective_isc_rates spans")
        return problems

    def check(self, index, result):
        gamma_a1_mhz = result["gamma_a1"] * TO_MHZ
        self.recovered[index] = gamma_a1_mhz
        if not result.converged:
            return [f"criterion-5 seed {self.seed_of(index)}: fit_gamma_a1 did not converge"]
        return []

    def finish(self):
        problems = []
        errors = [abs(value - GAMMA_ISC_MHZ) for value in self.recovered.values()]
        hits = sum(error <= TOLERANCE_MHZ for error in errors)
        if hits < MIN_HIT_SHARE * len(errors):
            problems.append(f"only {hits}/{len(errors)} seeds within "
                            f"+/-{TOLERANCE_MHZ} MHz")
        # the windowed forward model at the first recovered Gamma_A1
        gamma_a1 = next(iter(self.recovered.values())) / TO_MHZ
        for temperature in TEMPERATURES:
            gamma_mix = phonon.MIXING_FIT_DEFAULT.clamped(temperature).value
            got = phonon.effective_isc_rates(GAMMA_RAD, gamma_a1, gamma_mix)
            want = oracles.effective_isc_rates(GAMMA_RAD, gamma_a1, gamma_mix)
            for branch, rate, expected in zip(("A1", "A2"), got, want):
                if abs(rate.value - expected) > 1e-6 * (GAMMA_RAD + gamma_a1):
                    problems.append(
                        f"effective_isc_rates {branch} at {temperature:.1f} K: "
                        f"{rate.value * TO_MHZ:.9f} MHz, oracle {expected * TO_MHZ:.9f} MHz")
        return problems


class VerifySuite:
    """One item is one `verify.run_checks()` pass."""

    expected_checks = 13

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)

    def item(self, index):
        return verify.run_checks()

    def check_spans(self, calls):
        checks = sum(count for name, count in calls.items() if name.startswith("verify."))
        return count_problems({"verify checks": checks, **calls}, {
            "verify checks": self.expected_checks,
            "dynamics.evolve_rates": 12, "dynamics.evolve_lindblad": 3})

    def check(self, index, results):
        failed = [f"{name}: {detail}" for name, passed, detail in results if not passed]
        if len(results) != self.expected_checks:
            failed.append(f"{len(results)} checks ran, expected {self.expected_checks}")
        return [f"verify pass {index}: {problem}" for problem in failed]

    def finish(self):
        # evolve_rates against expm(t M) p0 on seeded two-branch and
        # depolarization generators
        times = np.arange(0.0, 200.1, 2.0)
        worst = 0.0
        for gamma_rad, gamma_mix, gamma_isc in self.rng.uniform(0.0, 0.126, (4, 3)):
            for matrix, labels in (
                    (oracles.a12_matrix(gamma_rad, gamma_mix, gamma_isc), ("A1", "A2")),
                    (oracles.a12_matrix(gamma_rad, gamma_mix, 0.0), ("b", "d"))):
                model = dynamics.RateMatrixModel(matrix, labels=labels)
                for p0 in ((1.0, 0.0), (0.0, 1.0)):
                    pops = dynamics.evolve_rates(model, np.array(p0), times)
                    got = np.stack([pops[label].values for label in labels], axis=1)
                    worst = max(worst, oracles.max_relative_error(
                        got, oracles.rate_populations(matrix, p0, times)))
        if worst > 1e-8:
            return [f"evolve_rates differs from expm by {worst:.2e} relative"]
        return []


SIMULATE_CFG = f"""\
model.name = a12
model.branch = A1
rates.gamma_rad_mhz = {GAMMA_RAD_MHZ}
rates.gamma_mix_mhz = 0
rates.gamma_isc_mhz = {GAMMA_ISC_MHZ}
synth.total_counts = 1e6
synth.bin_ns = 0.01
synth.span_ns = 120
synth.pulse_edge_ns = 0
"""
# Poisson weights: with uniform weights the reported rate sigma is about a
# third of the actual scatter on count data (see CHANGES.md), so a 5-sigma
# check would fail on some seeds
FIT_CFG = f"""\
window.start_ns = 4
window.length_ns = 115
fit.weights = poisson
rates.gamma_rad_mhz = {GAMMA_RAD_MHZ}
"""
T_SWEEP_CFG = f"""\
rates.gamma_rad_mhz = {GAMMA_RAD_MHZ}
rates.gamma_a1_mhz = {GAMMA_ISC_MHZ}
t5.a_mhz_per_k5 = 2e-5
t5.t0_k = 4.4
t5.c_mhz = 0.08
"""
ETA_MHZ = 44.0
CUTOFF_MEV = 93.0


def _overlap_table(rng):
    """A seeded Poisson-weighted progression of Gaussian sideband peaks."""
    mode, width, weight = 64.0 + rng.uniform(-4.0, 4.0), 25.0 + rng.uniform(-3.0, 3.0), 3.5
    energies = np.arange(0.0, 700.25, 0.5)
    values = sum(math.exp(-weight) * weight**n / math.factorial(n)
                 * np.exp(-((energies - n * mode) ** 2) / (2.0 * width**2))
                 for n in range(9))
    return energies, values / np.trapezoid(values, energies)


def _read_table(path):
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        rows = np.loadtxt(handle, delimiter=",", ndmin=2)
    return {name: rows[:, i] for i, name in enumerate(header)}


class CliBatch:
    """One item is one in-process `cli.main` session: simulate a fine-binned
    count histogram, fit it back, sweep the gap, sweep T."""

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.base = 1000 * seed
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.paths = {name: self.dir / name for name in (
            "simulate.cfg", "fit.cfg", "delta.cfg", "t.cfg", "overlap.csv",
            "trace.csv", "fit.csv", "delta.csv", "t.csv")}
        self.energies, self.values = _overlap_table(rng)
        with open(self.paths["overlap.csv"], "w", encoding="utf-8") as handle:
            handle.write("energy_mev,f_per_mev\n")
            handle.writelines(f"{e:.17g},{f:.17g}\n"
                              for e, f in zip(self.energies, self.values))
        self.paths["simulate.cfg"].write_text(SIMULATE_CFG, encoding="utf-8")
        self.paths["fit.cfg"].write_text(FIT_CFG, encoding="utf-8")
        self.paths["t.cfg"].write_text(T_SWEEP_CFG, encoding="utf-8")
        self.paths["delta.cfg"].write_text(
            f"phonon.eta_mhz_per_mev3 = {ETA_MHZ}\nphonon.cutoff_mev = {CUTOFF_MEV}\n"
            f"files.overlap_table = {self.paths['overlap.csv']}\n", encoding="utf-8")
        gap_lo = 380.0 + round(float(rng.uniform(0.0, 20.0)), 3)
        p = {name: str(path) for name, path in self.paths.items()}
        self.sessions = (
            ["simulate", "--config", p["simulate.cfg"], "--out", p["trace.csv"], "--seed"],
            ["fit", "--procedure", "exp-window", "--config", p["fit.cfg"],
             "--out", p["fit.csv"], p["trace.csv"]],
            ["sweep", "--config", p["delta.cfg"],
             "--sweep", f"delta:{gap_lo}:{gap_lo + 120.0}:0.5", "--out", p["delta.csv"]],
            ["sweep", "--config", p["t.cfg"], "--sweep", "T:5:26:3", "--out", p["t.csv"]],
        )

    def item(self, index):
        simulate, *rest = self.sessions
        codes = []
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main(simulate + [str(self.base + index)]))
            for argv in rest:
                codes.append(cli.main(argv))
        return codes

    @staticmethod
    def check_spans(calls):
        return count_problems(calls, {"synth.generate": 1, "cli.write_trace_csv": 1,
                                      "cli.load_trace": 1, "cli.parse_config": 4})

    def check(self, index, codes):
        problems = [f"session {index}: call {k} exited {code}"
                    for k, code in enumerate(codes) if code != 0]
        if problems:
            return problems
        seed = self.base + index
        spec = synth.ExperimentSpec(
            model="a12",
            params=dict(gamma_rad=rate_from_linear_mhz(GAMMA_RAD_MHZ).value,
                        gamma_mix=0.0,
                        gamma_isc=rate_from_linear_mhz(GAMMA_ISC_MHZ).value,
                        branch="A1"),
            bin_width=0.01, span=120.0, total_counts=1e6, background_rate=0.0,
            pulse_edge=0.0, seed=seed)
        written = synth.generate(spec).values
        on_disk = _read_table(self.paths["trace.csv"])["counts"]
        loaded = cli.load_trace(str(self.paths["trace.csv"])).values
        if not (np.array_equal(on_disk, written) and np.array_equal(loaded, written)):
            problems.append(f"session {index}: counts read back differ from those written")
        with open(self.paths["fit.csv"], encoding="utf-8") as handle:
            rows = {line.split(",")[0]: line.split(",") for line in handle}
        rate, sigma = float(rows["rate"][1]), float(rows["rate"][2])
        injected = GAMMA_RAD_MHZ + GAMMA_ISC_MHZ
        if not abs(rate - injected) <= 5.0 * sigma:
            problems.append(f"session {index}: exp-window rate {rate:.4f} +/- "
                            f"{sigma:.4f} MHz, injected {injected} MHz")
        table = _read_table(self.paths["t.csv"])
        a1, a2 = table["gamma_eff_a1_mhz"], table["gamma_eff_a2_mhz"]
        if not (np.all(a2 >= 0.0) and np.all(a2 <= a1) and np.all(a1 <= GAMMA_ISC_MHZ)):
            problems.append(f"session {index}: T-sweep rows break 0 <= A2 <= A1 <= Gamma_A1")
        return problems

    def finish(self):
        table = _read_table(self.paths["delta.csv"])
        eta = ETA_MHZ / TO_MHZ
        worst = 0.0
        for delta, ratio in zip(table["delta_mev"], table["ratio"]):
            expected = oracles.crossing_ratio(self.energies, self.values, eta,
                                              CUTOFF_MEV, float(delta))
            worst = max(worst, abs(ratio - expected) / expected)
        if worst > 1e-5:
            return [f"swept ratios differ from the quad oracle by {worst:.2e} relative"]
        return []


WORKLOADS = {
    "gamma_a1_recovery": GammaA1Recovery,
    "verify_suite": VerifySuite,
    "cli_batch": CliBatch,
}
