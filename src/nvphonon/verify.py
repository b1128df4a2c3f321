"""Fast self-consistency checks runnable from the command line.

Each check is deterministic (fixed seeds), runs in at most a few
seconds, and cross-validates one piece of the package against an
independent formulation: closed forms against the integrators, unit
conversions against frozen constants, the closed-form crossing integral
against Gauss-Legendre quadrature.
"""

from __future__ import annotations

import math

import numpy as np

from . import closedform, core, dynamics, estimate, phonon, synth
from .core import TimeTrace, rate_from_linear_mhz


def _rel_err(result, reference, floor=1e-12):
    result = np.asarray(result, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return float(np.max(np.abs(result - reference)
                        / np.maximum(np.abs(reference), floor)))


def check_unit_round_trips():
    worst = 0.0
    for mhz in (0.5, 13.2, 44.0, 159.154943, 5330.0):
        rate = rate_from_linear_mhz(mhz)
        worst = max(worst, abs(rate.linear_mhz - mhz) / mhz)
    unit_rate = rate_from_linear_mhz(1e3 / (2.0 * math.pi))
    worst = max(worst, abs(unit_rate.value - 1.0))
    for ghz in (5.33, 470.4):
        energy = core.EnergyMeV.from_ghz(ghz)
        worst = max(worst, abs(energy.ghz - ghz) / ghz)
    worst = max(worst, abs(core.thermal_energy(20.0).value
                           - 20.0 * core.CONSTANTS.kb))
    return worst <= 1e-12, f"max relative error {worst:.2e}"


def check_t5_coefficient():
    if core.CONSTANTS.alpha != 25.9:
        return False, f"alpha = {core.CONSTANTS.alpha}, expected 25.9"
    coeff = phonon.coefficient_from_eta(rate_from_linear_mhz(44.0))
    expected = rate_from_linear_mhz(2.0e-5).value
    rel = abs(coeff.value - expected) / expected
    return rel <= 0.02, (
        f"A/2pi = {coeff.linear_mhz:.4e} MHz/K^5 vs 2.0e-5 (rel {rel:.3f})"
    )


def check_envelope_identities():
    # 200 rounds of uniform(0, 0.126, size=4) then uniform(1e-3, 0.126),
    # drawn at once and scaled as Generator.uniform scales them
    draws = np.random.default_rng(12345).random(1000).reshape(200, 5)
    gr_x, gt2, m_xy, m_yx = 0.126 * draws[:, :4].T
    gr_y = 1e-3 + (0.126 - 1e-3) * draws[:, 4]
    _, _, amp_a, amp_b = closedform._envelope_terms(gr_x, gr_y, m_xy, m_yx, gt2)
    worst_sum = float(np.max(np.abs(amp_a + amp_b - 1.0)))
    # rabi_envelope at t = 0: both exponentials are exp(-0.0) = 1 exactly
    worst_g0 = float(np.max(np.abs(0.5 * (1.0 + amp_a + amp_b) - 1.0)))
    # symmetric mixing bounds |A| by 1/3; the worst excess, floored at 0
    _, _, amp_a_s, _ = closedform._envelope_terms(
        gr_x, np.maximum(gr_x, 1e-6), m_xy, m_xy, gt2)
    worst_sym = max(0.0, float(np.max(np.abs(amp_a_s) - 1.0 / 3.0)))
    ok = worst_sum <= 1e-12 and worst_g0 <= 1e-12 and worst_sym <= 1e-12
    return ok, (f"A+B-1 {worst_sum:.1e}, g(0)-1 {worst_g0:.1e}, "
                f"|A|-1/3 {worst_sym:.1e}")


def check_a12_reductions():
    t = np.linspace(0.0, 150.0, 151)
    gr, gm, gi = 0.0829, 0.0, 0.1005
    a1 = closedform.fluorescence_a12(gr, gm, gi, "A1", t)
    a2 = closedform.fluorescence_a12(gr, gm, gi, "A2", t)
    err = _rel_err(a1, np.exp(-(gr + gi) * t))
    err = max(err, _rel_err(a2, np.exp(-gr * t)))
    both = closedform.fluorescence_a12(gr, 0.05, 0.0, "A1", t)
    err = max(err, _rel_err(both, np.exp(-gr * t)))
    # continuity of the Gamma' -> 0 limit (true difference is O(eps t))
    near = closedform.fluorescence_a12(gr, 1e-12, 1e-12, "A1", t)
    at = closedform.fluorescence_a12(gr, 0.0, 0.0, "A1", t)
    cont = float(np.max(np.abs(near - at)))
    ok = err <= 1e-12 and cont <= 1e-9
    return ok, f"reduction rel err {err:.1e}, limit continuity {cont:.1e}"


def check_depolarization_oracle():
    t = np.arange(0.0, 200.1, 2.0)
    worst = 0.0
    rng = np.random.default_rng(7)
    cases = [(0.0829, 0.0)] + [tuple(rng.uniform(0.0, 0.126, 2)) for _ in range(3)]
    for gr, gm in cases:
        matrix = np.array([[-(gr + gm), gm], [gm, -(gr + gm)]])
        model = dynamics.RateMatrixModel(matrix, labels=("b", "d"))
        pops = dynamics.evolve_rates(model, np.array([1.0, 0.0]), t)
        rho_b, rho_d = closedform.depolarization_populations(gr, gm, t)
        worst = max(worst, _rel_err(pops["b"].values, rho_b))
        worst = max(worst, _rel_err(pops["d"].values, rho_d))
    return worst <= 1e-8, f"max relative error {worst:.2e}"


def check_a12_oracle():
    t = np.arange(0.0, 200.1, 2.0)
    worst = 0.0
    rng = np.random.default_rng(11)
    for _ in range(4):
        gr, gm, gi = rng.uniform(0.0, 0.126, 3)
        model = dynamics.build_a12_model(gr, gm, gi)
        for branch, p0 in (("A1", [1.0, 0.0]), ("A2", [0.0, 1.0])):
            pops = dynamics.evolve_rates(model, np.array(p0), t)
            total = pops["A1"].values + pops["A2"].values
            closed = closedform.fluorescence_a12(gr, gm, gi, branch, t)
            worst = max(worst, _rel_err(total, closed))
    return worst <= 1e-8, f"max relative error {worst:.2e}"


def check_lindblad_decay():
    gr = rate_from_linear_mhz(13.2)
    model = dynamics.ThreeLevelModel(gamma_rad_x=gr)
    t = np.arange(0.0, 100.1, 1.0)
    t = np.sort(np.append(t, 1.0 / gr.value))
    result = dynamics.evolve_lindblad(model, dynamics.DensityMatrix3.pure("x"), t)
    pop = result.populations["x"].values
    err = _rel_err(pop, np.exp(-gr.value * t))
    at_tau = pop[np.argmin(np.abs(t - 1.0 / gr.value))]
    e_err = abs(at_tau - math.exp(-1.0))
    ok = err <= 1e-9 and e_err <= 1e-6
    return ok, f"decay rel err {err:.1e}, pop(1/Gamma)-1/e = {e_err:.1e}"


def check_lindblad_unitary():
    omega = rate_from_linear_mhz(100.0)
    model = dynamics.ThreeLevelModel(rabi=omega)
    t = np.arange(0.0, 50.01, 0.5)
    result = dynamics.evolve_lindblad(model, dynamics.DensityMatrix3.pure("g"), t)
    expected = np.sin(0.5 * omega.value * t) ** 2
    err = float(np.max(np.abs(result.populations["x"].values - expected)))
    return err <= 1e-8, f"max abs error {err:.2e}"


def _lindblad_envelope_case():
    """The noiseless strongly driven fluorescence trace that
    check_lindblad_envelope fits, and its standard-result envelope time
    tau_rabi = 1/(3/4 Gamma_rad + Gamma_t2/2)."""
    gr = rate_from_linear_mhz(13.2)
    gt2 = rate_from_linear_mhz(10.0)
    model = dynamics.ThreeLevelModel(gamma_rad_x=gr, gamma_rad_y=gr,
                                     gamma_t2=gt2, rabi=rate_from_linear_mhz(300.0))
    t = np.arange(0.0, 40.0, 0.05)
    result = dynamics.evolve_lindblad(model, dynamics.DensityMatrix3.pure("g"), t)
    signal = result.populations["x"].values + result.populations["y"].values
    return TimeTrace(t, signal), 1.0 / (0.75 * gr.value + 0.5 * gt2.value)


def check_lindblad_envelope():
    trace, expected = _lindblad_envelope_case()
    fit = estimate.fit_rabi_trace(trace)
    rel = abs(fit["tau_rabi"] - expected) / expected
    return rel <= 0.02, f"tau_rabi off by {rel:.3%} (standard-result check)"


def check_t5_fitform():
    a = rate_from_linear_mhz(2.0e-5, fitted=True)
    c = rate_from_linear_mhz(0.08, fitted=True)
    cold = phonon.mixing_rate_fitform(a, 4.4, c, 5.0).linear_mhz
    warm = phonon.mixing_rate_fitform(a, 4.4, c, 20.0).linear_mhz
    eta = rate_from_linear_mhz(44.0)
    ratio = (phonon.mixing_rate_t5(eta, 10.0).value
             / phonon.mixing_rate_t5(eta, 5.0).value)
    ok = (abs(cold - 0.08) <= 0.005 and abs(warm - 18.5) <= 0.1
          and abs(ratio - 32.0) <= 1e-9)
    return ok, f"5 K: {cold:.4f} MHz, 20 K: {warm:.3f} MHz, doubling x{ratio:.1f}"


def _crossing_ratio_oracle(coupling, table, delta, upper):
    """(2/pi) hbar eta integral_0^upper w F(delta - w) dw / F(delta) by
    2-point Gauss-Legendre between the table's knots, exact for the
    quadratic integrand, summed with math.fsum."""
    cuts = delta - table.energies
    edges = np.unique(np.concatenate(
        [[0.0, upper], cuts[(cuts > 0.0) & (cuts < upper)]]))
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    terms = []
    for w in (mid - half / math.sqrt(3.0), mid + half / math.sqrt(3.0)):
        terms.extend(half * w * table.interpolate(delta - w))
    return ((2.0 / math.pi) * core.CONSTANTS.hbar * coupling.eta.value
            * math.fsum(terms) / float(table.interpolate(delta)))


def check_isc_quadrature():
    table = phonon.OverlapTable.synthetic_default()
    coupling = phonon.PhononCoupling(eta=rate_from_linear_mhz(44.0),
                                     cutoff=core.EnergyMeV(93.0))
    so = phonon.SpinOrbit()
    delta = 430.0
    ratio = phonon.crossing_ratio(coupling, table, delta)
    unbounded = phonon.crossing_ratio(coupling, table, delta, unbounded=True)
    oracle = max(
        _rel_err(ratio, _crossing_ratio_oracle(coupling, table, delta, 93.0)),
        _rel_err(unbounded, _crossing_ratio_oracle(coupling, table, delta, delta)))
    lower_cut = phonon.PhononCoupling(eta=coupling.eta, cutoff=core.EnergyMeV(74.0))
    monotone = (phonon.crossing_ratio(lower_cut, table, delta)
                <= ratio + 1e-15)
    ga1 = phonon.isc_rate_a1(so, table, delta)
    ge = phonon.isc_rate_e12(coupling, ga1, table, delta)
    so2 = phonon.SpinOrbit(lambda_par=so.lambda_par, perp_ratio=2.0 * so.perp_ratio)
    ga1_2 = phonon.isc_rate_a1(so2, table, delta)
    ge_2 = phonon.isc_rate_e12(coupling, ga1_2, table, delta)
    invariance = abs(ge.value / ga1.value - ge_2.value / ga1_2.value) / (ge.value / ga1.value)
    ok = oracle <= 1e-12 and monotone and invariance <= 1e-12
    return ok, (f"oracle rel err {oracle:.1e}, cutoff monotone {monotone}, "
                f"ratio invariance {invariance:.1e}")


def check_synth_determinism():
    spec = synth.ExperimentSpec(model="a12",
                                params={"gamma_rad": 0.0829, "gamma_mix": 0.02,
                                        "gamma_isc": 0.1, "branch": "A1"},
                                total_counts=2e5, seed=42)
    first = synth.generate(spec)
    # the second trace draws from an expected signal computed afresh in an
    # emptied memo, not from the memo's copy of the first's
    synth._memo_signal.cache_clear()
    second = synth.generate(spec)
    identical = np.array_equal(first.values, second.values)
    nonneg = bool(np.all(first.values >= 0))
    return identical and nonneg, f"bit identical {identical}, counts >= 0 {nonneg}"


def check_window_fit():
    gr = rate_from_linear_mhz(13.2).value
    ga1 = rate_from_linear_mhz(16.0).value
    t = 4.0 + 0.25 * np.arange(461)
    trace = TimeTrace(t, 0.7 * np.exp(-(gr + ga1) * t))
    fit = estimate.fit_exponential_window(trace, estimate.FitWindow(4.0, 115.0))
    err = abs(fit["rate"] - (gr + ga1)) / (gr + ga1)
    pair = phonon.effective_isc_rates(gr, ga1, 0.0)
    exact = abs(pair[0].value - ga1) / ga1
    zero = abs(pair[1].value)
    ok = err <= 1e-9 and exact <= 1e-9 and zero <= 1e-10
    return ok, (f"pure-exp rate err {err:.1e}, no-mixing branch rates "
                f"({exact:.1e} rel, {zero:.1e} abs)")


CHECKS = (
    ("unit_round_trips", check_unit_round_trips),
    ("t5_coefficient", check_t5_coefficient),
    ("envelope_identities", check_envelope_identities),
    ("a12_reductions", check_a12_reductions),
    ("depolarization_oracle", check_depolarization_oracle),
    ("a12_oracle", check_a12_oracle),
    ("lindblad_decay", check_lindblad_decay),
    ("lindblad_unitary", check_lindblad_unitary),
    ("lindblad_envelope", check_lindblad_envelope),
    ("t5_fitform", check_t5_fitform),
    ("isc_quadrature", check_isc_quadrature),
    ("synth_determinism", check_synth_determinism),
    ("window_fit", check_window_fit),
)


def run_checks():
    """Run every check; returns a list of (name, passed, detail)."""
    results = []
    for name, fn in CHECKS:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(passed), detail))
    return results
