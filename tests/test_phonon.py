import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nvphonon import phonon
from nvphonon.core import (
    TWO_PI,
    AngularRate,
    EnergyMeV,
    ValidationError,
    rate_from_linear_mhz,
)
from nvphonon.phonon import (
    ETA_DEFAULT,
    MIXING_FIT_DEFAULT,
    MixingFitForm,
    OverlapSupportError,
    OverlapTable,
    PhononCoupling,
    SpinOrbit,
)

GAMMA_RAD = rate_from_linear_mhz(13.2)
GAMMA_A1 = rate_from_linear_mhz(16.0)


# ---------------------------------------------------------------------------
# two-phonon mixing


def test_mixing_rate_vanishes_at_zero():
    assert phonon.mixing_rate_t5(ETA_DEFAULT, 0.0).value == 0.0


def test_mixing_rate_fifth_power_scaling():
    low = phonon.mixing_rate_t5(ETA_DEFAULT, 10.0).value
    high = phonon.mixing_rate_t5(ETA_DEFAULT, 20.0).value
    assert high / low == pytest.approx(32.0, rel=1e-12)


def test_mixing_rate_monotone_in_temperature_and_coupling():
    temps = np.linspace(1.0, 30.0, 30)
    rates = [phonon.mixing_rate_t5(ETA_DEFAULT, t).value for t in temps]
    assert np.all(np.diff(rates) > 0)
    doubled = phonon.mixing_rate_t5(AngularRate(2 * ETA_DEFAULT.value), 15.0)
    assert doubled.value > phonon.mixing_rate_t5(ETA_DEFAULT, 15.0).value


def test_coefficient_from_default_coupling():
    coeff = phonon.coefficient_from_eta(ETA_DEFAULT)
    assert coeff.linear_mhz == pytest.approx(2.0074525962228568e-05,
                                             rel=1e-12)
    # about 2.0e-5 MHz / K^5
    assert coeff.linear_mhz == pytest.approx(2.0e-5, rel=0.02)


def test_coefficient_quadratic_in_eta():
    single = phonon.coefficient_from_eta(ETA_DEFAULT)
    double = phonon.coefficient_from_eta(AngularRate(2 * ETA_DEFAULT.value))
    assert double.value / single.value == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("law, message", [
    (lambda: phonon.coefficient_from_eta(AngularRate(1e200)),
     "mixing law overflows at eta = 1e+200 rad/ns"),
    # (kB T)^5 stays finite, eta^2 (kB T)^5 does not: an inf, not a raise
    (lambda: phonon.mixing_rate_t5(AngularRate(1e150), 1e30),
     "mixing law overflows at T = 1e+30 K, eta = 1e+150 rad/ns"),
    (lambda: MIXING_FIT_DEFAULT.clamped(1e70),
     "mixing law overflows at T = 1e+70 K"),
], ids=["coefficient", "t5-product", "fit-form"])
def test_mixing_law_overflow_names_its_inputs(law, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        law()


def test_eta_coefficient_round_trip():
    coeff = phonon.coefficient_from_eta(ETA_DEFAULT)
    eta = phonon.eta_from_coefficient(coeff)
    assert eta.value == pytest.approx(ETA_DEFAULT.value, rel=1e-12)
    # the published coefficient maps back near the published coupling
    eta_pub = phonon.eta_from_coefficient(rate_from_linear_mhz(2.0e-5))
    assert eta_pub.linear_mhz == pytest.approx(44.0, abs=0.5)


def test_mixing_fitform_reference_values():
    a = rate_from_linear_mhz(2.0e-5)
    c = rate_from_linear_mhz(0.08)
    cold = phonon.mixing_rate_fitform(a, 4.4, c, 5.0)
    warm = phonon.mixing_rate_fitform(a, 4.4, c, 20.0)
    assert cold.linear_mhz == pytest.approx(0.0800015552, rel=1e-10)
    assert warm.linear_mhz == pytest.approx(18.557915955200002, rel=1e-10)
    # at T = t0 only the residual survives
    assert phonon.mixing_rate_fitform(a, 4.4, c, 4.4).value == c.value


def test_mixing_fitform_clamp():
    a = rate_from_linear_mhz(2.0e-5)
    signed = phonon.mixing_rate_fitform(a, 4.4, AngularRate(0.0), 2.0)
    assert signed.value < 0.0
    clamped = phonon.mixing_rate_fitform_clamped(a, 4.4, AngularRate(0.0),
                                                 2.0)
    assert clamped.value == 0.0


def test_mixing_fitform_bundle():
    form = MixingFitForm(a=rate_from_linear_mhz(2.0e-5), t0_k=4.4,
                         c=rate_from_linear_mhz(0.08))
    assert form.evaluate(20.0).value == pytest.approx(
        phonon.mixing_rate_fitform(form.a, 4.4, form.c, 20.0).value,
        rel=1e-14)
    assert form.clamped(20.0).value == form.evaluate(20.0).value
    assert MIXING_FIT_DEFAULT.t0_k == 4.4
    assert MIXING_FIT_DEFAULT.c.linear_mhz == pytest.approx(0.08, rel=1e-12)


# ---------------------------------------------------------------------------
# spectral density and spin-orbit


def test_spectral_density_cubic():
    coupling = PhononCoupling(eta=ETA_DEFAULT)
    j1 = phonon.spectral_density(coupling, 10.0).value
    j2 = phonon.spectral_density(coupling, 20.0).value
    assert j2 / j1 == pytest.approx(8.0, rel=1e-12)
    assert phonon.spectral_density(coupling, 0.0).value == 0.0


def test_spectral_density_cutoff():
    coupling = PhononCoupling(eta=ETA_DEFAULT, cutoff=EnergyMeV(93.0))
    assert phonon.spectral_density(coupling, 92.9).value > 0.0
    assert phonon.spectral_density(coupling, 93.1).value == 0.0


def test_spin_orbit_defaults():
    so = SpinOrbit()
    assert so.lambda_par.linear_mhz == pytest.approx(5330.0, rel=1e-12)
    assert so.lambda_perp.value == pytest.approx(1.2 * so.lambda_par.value,
                                                 rel=1e-12)
    with pytest.raises(ValidationError):
        SpinOrbit(perp_ratio=-0.5)


# ---------------------------------------------------------------------------
# overlap tables


def test_overlap_table_validation():
    with pytest.raises(ValidationError):
        OverlapTable(np.array([1.0]), np.array([0.5]))
    with pytest.raises(ValidationError):
        OverlapTable(np.array([2.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValidationError):
        OverlapTable(np.array([0.0, 1.0]), np.array([-0.1, 0.5]))


def test_overlap_table_refuses_overflowing_integrals():
    # every entry is finite, but the area under F is not
    with pytest.raises(ValidationError, match="cumulative integrals overflow"):
        OverlapTable(np.array([0.0, 100.0, 500.0]), np.array([0.0, 1e308, 1e308]))
    # a table just inside the range is kept
    table = OverlapTable(np.array([0.0, 1.0]), np.array([1e300, 1e300]))
    assert table.integral() == 1e300


def test_overlap_table_interpolation():
    table = OverlapTable(np.array([0.0, 10.0]), np.array([0.0, 1.0]))
    assert table.interpolate(5.0) == pytest.approx(0.5)
    # zero outside the tabulated support
    assert table.interpolate(-1.0) == 0.0
    assert table.interpolate(11.0) == 0.0


def test_overlap_table_integral():
    table = OverlapTable(np.array([0.0, 10.0]), np.array([1.0, 1.0]))
    assert table.integral() == pytest.approx(10.0, rel=1e-14)


def test_overlap_table_csv_round_trip(tmp_path):
    table = OverlapTable.synthetic_default()
    path = tmp_path / "overlap.csv"
    table.to_csv(path)
    back = OverlapTable.from_csv(path)
    np.testing.assert_array_equal(back.energies, table.energies)
    np.testing.assert_array_equal(back.values, table.values)


def test_overlap_table_to_csv_names_an_unwritable_path(tmp_path):
    path = tmp_path / "missing" / "overlap.csv"
    with pytest.raises(ValidationError, match=f"^cannot write {re.escape(str(path))}: "):
        OverlapTable.synthetic_default().to_csv(path)
    assert not path.parent.exists()


def test_overlap_table_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("energy,f\n0.0,0.5\n1.0,0.5\n")
    with pytest.raises(ValidationError):
        OverlapTable.from_csv(path)


def test_synthetic_default_table():
    table = OverlapTable.synthetic_default()
    assert table.provenance == "synthetic-default"
    assert abs(table.integral() - 1.0) < 1e-9
    assert table.energies[-1] >= 500.0


# ---------------------------------------------------------------------------
# crossing rates


def _flat_table(value=7.5e-3):
    return OverlapTable(np.array([0.0, 1000.0]),
                        np.array([value, value]))


def test_isc_rate_a1_reference_value():
    rate = phonon.isc_rate_a1(SpinOrbit(), _flat_table(), 500.0)
    assert rate.linear_mhz == pytest.approx(15.945335930266717, rel=1e-12)
    assert rate.linear_mhz == pytest.approx(16.0, abs=0.5)


def test_isc_rate_a1_scales_with_coupling_squared():
    table = _flat_table()
    base = phonon.isc_rate_a1(SpinOrbit(), table, 400.0)
    strong = phonon.isc_rate_a1(SpinOrbit(perp_ratio=2.4), table, 400.0)
    assert strong.value / base.value == pytest.approx(4.0, rel=1e-12)


def test_isc_rate_a1_zero_off_support():
    table = OverlapTable(np.array([0.0, 100.0]), np.array([0.1, 0.1]))
    assert phonon.isc_rate_a1(SpinOrbit(), table, 200.0).value == 0.0


def test_isc_rate_a1_of_an_array_is_its_scalar_rates():
    # one float in rad/ns per gap, the bits of the scalar call's value;
    # a bad gap anywhere in the array is refused with energy_value's message
    table = OverlapTable(np.array([10.0, 60.0, 100.0]), np.array([0.2, 0.35, 0.1]))
    deltas = np.array([0.0, 12.5, 37.0, 60.0, 99.9, 140.0])
    rates = phonon.isc_rate_a1(SpinOrbit(perp_ratio=1.7), table, deltas)
    assert isinstance(rates, np.ndarray)
    assert rates.tolist() == [
        phonon.isc_rate_a1(SpinOrbit(perp_ratio=1.7), table, d).value
        for d in deltas]
    for bad, message in ((-1.0, "energy must be >= 0 meV, got -1.0"),
                         (np.nan, "energy must be finite")):
        with pytest.raises(ValidationError, match=message):
            phonon.isc_rate_a1(SpinOrbit(), table, np.array([5.0, bad]))


def test_crossing_ratio_zero_gap():
    coupling = PhononCoupling(eta=ETA_DEFAULT)
    assert phonon.crossing_ratio(coupling, _flat_table(), 0.0) == 0.0


def test_crossing_ratio_requires_support():
    coupling = PhononCoupling(eta=ETA_DEFAULT)
    table = OverlapTable(np.array([0.0, 100.0]), np.array([0.1, 0.1]))
    with pytest.raises(OverlapSupportError):
        phonon.crossing_ratio(coupling, table, 200.0)


def test_crossing_ratio_monotone_in_cutoff():
    table = _flat_table()
    values = []
    for cutoff in (50.0, 93.0, 150.0):
        coupling = PhononCoupling(eta=ETA_DEFAULT,
                                  cutoff=EnergyMeV(cutoff))
        values.append(phonon.crossing_ratio(coupling, table, 120.0))
    assert values[0] < values[1] < values[2]
    unbounded = phonon.crossing_ratio(PhononCoupling(eta=ETA_DEFAULT),
                                      table, 120.0)
    assert values[2] <= unbounded


def _quad_ratio(coupling, table, delta, upper):
    """The branch ratio by adaptive quadrature, with the table's knots as
    breakpoints so each piece of the integrand is a quadratic."""
    knots = [delta - e for e in table.energies if 0.0 < delta - e < upper]
    integral, _ = quad(lambda w: w * table.interpolate(delta - w), 0.0, upper,
                       points=knots or None, limit=2 * len(knots) + 100,
                       epsabs=0.0, epsrel=1e-13)
    return ((2.0 / math.pi) * phonon.core.CONSTANTS.hbar * coupling.eta.value
            * integral / float(table.interpolate(delta)))


def test_crossing_ratio_matches_quad_oracle():
    coupling = PhononCoupling(eta=ETA_DEFAULT, cutoff=EnergyMeV(93.0))
    table = OverlapTable.synthetic_default()
    ratio = phonon.crossing_ratio(coupling, table, 60.0)
    expected = _quad_ratio(coupling, table, 60.0, 60.0)
    assert abs(ratio - expected) / expected <= 1e-12


@pytest.mark.parametrize("cutoff", [10.0, 30.0])
def test_crossing_ratio_keeps_digits_in_the_tail(cutoff):
    # short spans where F is ~1e-4 of its peak: sums run up from the low
    # end lose ~1e-9 here to cancellation
    coupling = PhononCoupling(eta=ETA_DEFAULT, cutoff=EnergyMeV(cutoff))
    table = OverlapTable.synthetic_default()
    deltas = np.arange(560.0, 601.0, 4.0)
    ratios = phonon.crossing_ratio(coupling, table, deltas)
    expected = [_quad_ratio(coupling, table, d, cutoff) for d in deltas]
    np.testing.assert_allclose(ratios, expected, rtol=1e-12, atol=0.0)


@st.composite
def _overlap_tables(draw):
    """2-40 unevenly spaced knots with values in [0.05, 1], except that
    either end may be zero and so may one other knot: F never vanishes
    over a whole segment with mass on both sides, where cumulative sums
    lose a short span's tiny integral to rounding."""
    n = draw(st.integers(2, 40))
    spacings = draw(st.lists(st.floats(0.5, 20.0), min_size=n - 1, max_size=n - 1))
    energies = draw(st.floats(0.0, 50.0)) + np.concatenate([[0.0], np.cumsum(spacings)])
    end_value = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
    values = np.array([draw(end_value)]
                      + draw(st.lists(st.floats(0.05, 1.0), min_size=n - 2,
                                      max_size=n - 2))
                      + [draw(end_value)])
    zero = draw(st.none() | st.integers(0, n - 1))
    if zero is not None:
        values[zero] = 0.0
    return OverlapTable(energies, values)


@settings(max_examples=60, deadline=None)
@given(table=_overlap_tables(),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
       cutoff=st.one_of(st.none(), st.floats(5.0, 1000.0)))
def test_crossing_ratio_array_matches_quad_and_scalar_calls(table, fractions, cutoff):
    e = table.energies
    deltas = e[0] + np.array(fractions) * (e[-1] - e[0])
    # clear of underflow, and off the slivers at a zero knot, where the
    # oracle's delta - w rounds away the integrand
    f = table.interpolate(deltas)
    deltas = deltas[(deltas >= 1e-6) & (f > 0.0) & (f >= 1e-3 * table.values.max())]
    assume(len(deltas) > 0)
    coupling = PhononCoupling(eta=ETA_DEFAULT,
                              cutoff=None if cutoff is None else EnergyMeV(cutoff))
    ratios = phonon.crossing_ratio(coupling, table, deltas)
    for delta, ratio in zip(deltas, ratios):
        upper = delta if cutoff is None else min(delta, cutoff)
        expected = _quad_ratio(coupling, table, delta, upper)
        assert abs(ratio - expected) <= 1e-9 * expected
        assert phonon.crossing_ratio(coupling, table, float(delta)) == ratio


def test_isc_rate_e12_linear_in_gamma_a1_and_eta():
    coupling = PhononCoupling(eta=ETA_DEFAULT, cutoff=EnergyMeV(93.0))
    table = _flat_table()
    base = phonon.isc_rate_e12(coupling, GAMMA_A1, table, 80.0)
    double_rate = phonon.isc_rate_e12(
        coupling, AngularRate(2 * GAMMA_A1.value), table, 80.0)
    assert double_rate.value / base.value == pytest.approx(2.0, rel=1e-12)
    strong = PhononCoupling(eta=AngularRate(2 * ETA_DEFAULT.value),
                            cutoff=EnergyMeV(93.0))
    double_eta = phonon.isc_rate_e12(strong, GAMMA_A1, table, 80.0)
    assert double_eta.value / base.value == pytest.approx(2.0, rel=1e-12)


def test_ratio_scan_exclusion():
    coupling = PhononCoupling(eta=ETA_DEFAULT, cutoff=EnergyMeV(93.0))
    table = OverlapTable.synthetic_default()
    deltas = np.linspace(5.0, 300.0, 60)
    # a tight measured bound excludes the small-gap region where the
    # predicted ratio is large
    scan = phonon.ratio_scan(coupling, table, deltas,
                             measured_ratio=0.01, measured_sigma=0.005)
    assert scan.excluded.any()
    assert not scan.excluded.all()
    assert scan.boundary_delta is not None
    assert scan.boundary_contiguous
    # excluded gaps are the small ones
    assert scan.deltas[scan.excluded].max() < scan.deltas[~scan.excluded].min()


def test_ratio_scan_lambda_independent():
    # the branch ratio never touches the spin-orbit scale
    coupling = PhononCoupling(eta=ETA_DEFAULT, cutoff=EnergyMeV(93.0))
    table = OverlapTable.synthetic_default()
    deltas = np.linspace(10.0, 200.0, 20)
    first = phonon.ratio_scan(coupling, table, deltas)
    second = phonon.ratio_scan(coupling, table, deltas)
    np.testing.assert_array_equal(first.ratios, second.ratios)
    ga1 = phonon.isc_rate_a1(SpinOrbit(), table, 100.0)
    ga1_big = phonon.isc_rate_a1(SpinOrbit(perp_ratio=2.4), table, 100.0)
    r = phonon.isc_rate_e12(coupling, ga1, table, 100.0).value / ga1.value
    r_big = phonon.isc_rate_e12(coupling, ga1_big, table,
                                100.0).value / ga1_big.value
    assert r == pytest.approx(r_big, rel=1e-15)


def test_ratio_scan_refuses_bad_gaps():
    coupling = PhononCoupling(eta=ETA_DEFAULT, cutoff=EnergyMeV(93.0))
    table = OverlapTable(np.array([0.0, 100.0]), np.array([0.1, 0.1]))
    for bad, message in ((np.nan, "finite"), (-5.0, ">= 0 meV")):
        with pytest.raises(ValidationError, match=message):
            phonon.ratio_scan(coupling, table, [10.0, bad, 50.0])
    with pytest.raises(OverlapSupportError, match="delta = 150.0 meV"):
        phonon.ratio_scan(coupling, table, [10.0, 150.0, 200.0])


# ---------------------------------------------------------------------------
# effective window rates


def test_effective_rates_without_mixing():
    eff_a1, eff_a2 = phonon.effective_isc_rates(GAMMA_RAD, GAMMA_A1, 0.0)
    assert eff_a1.value == pytest.approx(GAMMA_A1.value, rel=1e-9)
    assert eff_a2.value == pytest.approx(0.0, abs=1e-12)


def test_effective_rates_merge_under_fast_mixing():
    fast = rate_from_linear_mhz(1000.0)
    eff_a1, eff_a2 = phonon.effective_isc_rates(GAMMA_RAD, GAMMA_A1, fast)
    assert eff_a1.linear_mhz == pytest.approx(8.0, rel=0.02)
    assert eff_a2.linear_mhz == pytest.approx(8.0, rel=0.02)
    assert eff_a1.linear_mhz == pytest.approx(7.968000511983638, rel=1e-9)


def test_effective_rates_ordered_and_bounded():
    rng = np.random.default_rng(41)
    for _ in range(5):
        gm = AngularRate(rng.uniform(0.0, 0.5))
        eff_a1, eff_a2 = phonon.effective_isc_rates(GAMMA_RAD, GAMMA_A1, gm)
        assert eff_a2.value <= eff_a1.value + 1e-12
        assert -1e-9 <= eff_a2.value
        assert eff_a1.value <= GAMMA_A1.value * (1.0 + 1e-6)
