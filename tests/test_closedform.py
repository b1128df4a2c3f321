import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from nvphonon import closedform
from nvphonon.core import TWO_PI, ValidationError, rate_from_linear_mhz
from nvphonon.closedform import EnvelopeParams

GAMMA_RAD = rate_from_linear_mhz(13.2).value
GAMMA_MIX_COLD = rate_from_linear_mhz(0.08).value
GAMMA_MIX_WARM = rate_from_linear_mhz(18.5).value
GAMMA_ISC = rate_from_linear_mhz(16.0).value


def _random_params(rng):
    grx, gry, gmxy, gmyx, gt2 = rng.uniform(0.0, 0.2, size=5)
    return EnvelopeParams(gamma_rad_x=grx, gamma_rad_y=gry,
                          gamma_mix_xy=gmxy, gamma_mix_yx=gmyx,
                          gamma_t2=gt2)


def test_envelope_weights_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(200):
        params = _random_params(rng)
        _, _, weight_a, weight_b = closedform.envelope_timescales(params)
        assert weight_a + weight_b == pytest.approx(1.0, abs=1e-12)


def test_envelope_starts_at_one_and_stays_in_unit_interval():
    rng = np.random.default_rng(12)
    t = np.linspace(0.0, 80.0, 400)
    for _ in range(50):
        params = _random_params(rng)
        env = closedform.rabi_envelope(params, t)
        assert env[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(env > 0.0)
        assert np.all(env <= 1.0 + 1e-12)


# radiative rates are > 0; mixing and dephasing may vanish (rad/ns)
_radiative = st.floats(1e-3, 1.0)
_optional_rate = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(rates=st.tuples(_radiative, _radiative, _optional_rate, _optional_rate,
                       _optional_rate))
def test_envelope_identities_hold_for_any_rates(rates):
    params = EnvelopeParams(*rates)
    _, _, weight_a, weight_b = closedform.envelope_timescales(params)
    assert weight_a + weight_b == pytest.approx(1.0, abs=1e-12)
    assert closedform.rabi_envelope(params, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_envelope_weight_bounded_for_symmetric_mixing():
    rng = np.random.default_rng(13)
    for _ in range(200):
        grx, gry, gm, gt2 = rng.uniform(0.0, 0.2, size=4)
        params = EnvelopeParams(gamma_rad_x=grx, gamma_rad_y=gry,
                                gamma_mix_xy=gm, gamma_mix_yx=gm,
                                gamma_t2=gt2)
        _, _, weight_a, _ = closedform.envelope_timescales(params)
        assert abs(weight_a) <= 1.0 / 3.0 + 1e-12


def test_envelope_no_mixing_reduction():
    # without mixing the envelope is (1 + exp(-t/tau'))/2 with
    # 1/tau' = 3/4 gamma_rad + gamma_t2 / 2
    params = EnvelopeParams(gamma_rad_x=GAMMA_RAD, gamma_rad_y=GAMMA_RAD,
                            gamma_mix_xy=0.0, gamma_mix_yx=0.0,
                            gamma_t2=0.04)
    t = np.linspace(0.0, 60.0, 121)
    env = closedform.rabi_envelope(params, t)
    expected = 0.5 * (1.0 + np.exp(-(0.75 * GAMMA_RAD + 0.02) * t))
    np.testing.assert_allclose(env, expected, rtol=1e-12)


def test_envelope_requires_decay():
    params = EnvelopeParams(gamma_rad_x=0.1, gamma_rad_y=0.0,
                            gamma_mix_xy=0.0, gamma_mix_yx=0.0,
                            gamma_t2=0.0)
    with pytest.raises(ValidationError):
        closedform.envelope_timescales(params)


def test_additional_decoherence_zero_for_pure_radiative():
    tau = 4.0 / (3.0 * GAMMA_RAD)
    extra = closedform.additional_decoherence(tau, GAMMA_RAD)
    assert abs(extra.value) < 1e-15


def test_additional_decoherence_inverse_of_decay_time():
    # build tau from known gamma_mix + gamma_t2, then invert
    gamma_sum = 0.123
    tau = 1.0 / (0.75 * GAMMA_RAD + 0.5 * gamma_sum)
    extra = closedform.additional_decoherence(tau, GAMMA_RAD)
    assert extra.value == pytest.approx(gamma_sum, rel=1e-12)


def test_additional_decoherence_lifetime_example():
    # tau = 16.08 ns with gamma_rad = 2pi x 13.2 MHz is radiative-limited
    extra = closedform.additional_decoherence(16.08, GAMMA_RAD)
    assert abs(extra.linear_mhz) < 0.01


def test_additional_decoherence_rejects_nonpositive_tau():
    with pytest.raises(ValidationError):
        closedform.additional_decoherence(0.0, GAMMA_RAD)
    with pytest.raises(ValidationError):
        closedform.additional_decoherence(-3.0, GAMMA_RAD)


def test_depolarization_initial_condition():
    rho_b, rho_d = closedform.depolarization_populations(
        GAMMA_RAD, GAMMA_MIX_WARM, np.array([0.0]))
    assert rho_b[0] == pytest.approx(1.0, abs=1e-14)
    assert rho_d[0] == pytest.approx(0.0, abs=1e-14)


def test_depolarization_without_mixing():
    t = np.linspace(0.0, 50.0, 101)
    rho_b, rho_d = closedform.depolarization_populations(GAMMA_RAD, 0.0, t)
    np.testing.assert_allclose(rho_b, np.exp(-GAMMA_RAD * t), rtol=1e-12)
    np.testing.assert_array_equal(rho_d, np.zeros_like(t))


def test_depolarization_matches_matrix_exponential():
    rho_b, rho_d = closedform.depolarization_populations(
        GAMMA_RAD, GAMMA_MIX_WARM, np.array([7.3]))
    assert rho_b[0] == pytest.approx(0.32291744236533004, rel=1e-12)
    assert rho_d[0] == pytest.approx(0.22291254171274963, rel=1e-12)
    # independent oracle at random rates
    rng = np.random.default_rng(21)
    for _ in range(20):
        gr, gm = rng.uniform(0.0, 0.3, size=2)
        t = rng.uniform(0.0, 40.0)
        gen = np.array([[-(gr + gm), gm], [gm, -(gr + gm)]])
        expected = expm(gen * t) @ np.array([1.0, 0.0])
        rho_b, rho_d = closedform.depolarization_populations(
            gr, gm, np.array([t]))
        assert rho_b[0] == pytest.approx(expected[0], rel=1e-10, abs=1e-13)
        assert rho_d[0] == pytest.approx(expected[1], rel=1e-10, abs=1e-13)


def test_observed_intensity_sum_rule():
    # bright + dark decays radiatively, mixing only redistributes
    t = np.linspace(-2.0, 60.0, 200)
    bright, dark = closedform.observed_polarized_intensity(
        0.90, 0.10, -3.6, GAMMA_RAD, GAMMA_MIX_WARM, t)
    np.testing.assert_allclose(bright + dark,
                               0.90 * np.exp(-GAMMA_RAD * (t + 3.6)),
                               rtol=1e-12)


@settings(max_examples=200, deadline=None)
@given(amplitude=st.floats(1e-3, 1e6), epsilon=st.floats(0.0, 0.5),
       t0=st.floats(-10.0, 10.0), gamma_rad=_radiative, gamma_mix=_optional_rate)
def test_observed_intensity_sum_is_radiative_for_any_parameters(
        amplitude, epsilon, t0, gamma_rad, gamma_mix):
    # after the pulse, where the closed form describes the populations
    tau = np.linspace(0.0, 60.0, 121)
    bright, dark = closedform.observed_polarized_intensity(
        amplitude, epsilon, t0, gamma_rad, gamma_mix, t0 + tau)
    np.testing.assert_allclose(bright + dark,
                               amplitude * np.exp(-gamma_rad * tau),
                               rtol=1e-12)


def test_observed_intensity_frozen_points():
    bright5, dark5 = closedform.observed_polarized_intensity(
        0.90, 0.10, -3.6, GAMMA_RAD, GAMMA_MIX_COLD, np.array([10.0]))
    assert bright5[0] == pytest.approx(0.2606095600640459, rel=1e-12)
    assert dark5[0] == pytest.approx(0.030714814904694073, rel=1e-12)
    bright20, dark20 = closedform.observed_polarized_intensity(
        0.90, 0.10, -3.6, GAMMA_RAD, GAMMA_MIX_WARM, np.array([10.0]))
    assert bright20[0] == pytest.approx(0.1505976567543483, rel=1e-12)
    assert dark20[0] == pytest.approx(0.14072671821439162, rel=1e-12)


def test_observed_intensity_epsilon_zero_matches_populations():
    t = np.linspace(0.0, 40.0, 81)
    bright, dark = closedform.observed_polarized_intensity(
        1.0, 0.0, 0.0, GAMMA_RAD, GAMMA_MIX_WARM, t)
    rho_b, rho_d = closedform.depolarization_populations(
        GAMMA_RAD, GAMMA_MIX_WARM, t)
    np.testing.assert_allclose(bright, rho_b, rtol=1e-14)
    np.testing.assert_allclose(dark, rho_d, rtol=1e-14)


def test_observed_intensity_extends_before_pulse():
    # the closed form back-extrapolates for t < t0; clamping is the
    # caller's job
    bright, _ = closedform.observed_polarized_intensity(
        1.0, 0.0, 5.0, GAMMA_RAD, 0.0, np.array([2.0]))
    assert bright[0] == pytest.approx(np.exp(-GAMMA_RAD * (2.0 - 5.0)),
                                      rel=1e-12)
    assert bright[0] > 1.0


def test_observed_intensity_epsilon_bounds():
    t = np.array([1.0])
    with pytest.raises(ValidationError):
        closedform.observed_polarized_intensity(
            1.0, -0.01, 0.0, GAMMA_RAD, 0.0, t)
    with pytest.raises(ValidationError):
        closedform.observed_polarized_intensity(
            1.0, 0.6, 0.0, GAMMA_RAD, 0.0, t)


def test_isc_envelope_reduces_without_crossing():
    t = np.linspace(0.0, 60.0, 61)
    env = closedform.isc_envelope_ex(9.0, 0.0, t)
    np.testing.assert_allclose(env, 0.5 * (1.0 + np.exp(-t / 9.0)),
                               rtol=1e-14)


@pytest.mark.parametrize("tau_rabi", [0.0, -9.0])
def test_isc_envelope_refuses_a_non_positive_tau_rabi(tau_rabi):
    with pytest.raises(ValidationError, match="^tau_rabi must be > 0$"):
        closedform.isc_envelope_ex(tau_rabi, 0.0, np.linspace(0.0, 60.0, 61))


def test_isc_envelope_suppression_factor():
    gamma_x = rate_from_linear_mhz(0.62).value
    plain = closedform.isc_envelope_ex(9.0, 0.0, np.array([60.0]))
    crossed = closedform.isc_envelope_ex(9.0, gamma_x, np.array([60.0]))
    ratio = crossed[0] / plain[0]
    assert ratio == pytest.approx(np.exp(-0.5 * gamma_x * 60.0), rel=1e-14)
    assert ratio == pytest.approx(0.8897032963605099, rel=1e-12)


def test_rabi_fit_model_envelope_at_extrema():
    # at cos = +1 the oscillation touches amplitude * 2 * envelope
    omega = TWO_PI * 80e-3
    gamma_x = rate_from_linear_mhz(0.62).value
    peaks = TWO_PI * np.arange(1, 5) / omega
    value = closedform.rabi_fit_model(peaks, 1.3, omega, 0.0, 0.0, 9.0,
                                      gamma_x)
    envelope = closedform.isc_envelope_ex(9.0, gamma_x, peaks)
    np.testing.assert_allclose(value, 2.6 * envelope, rtol=1e-12)


def test_rabi_fit_model_one_period_value():
    omega = TWO_PI * 80e-3
    period = TWO_PI / omega
    value = closedform.rabi_fit_model(np.array([period]), 1.0, omega,
                                      0.0, 0.0, 9.0, 0.0)
    assert value[0] == pytest.approx(np.exp(-period / 9.0) + 1.0, rel=1e-12)


def test_rabi_fit_model_plateau():
    # oscillation dies out, leaving the amplitude plateau
    omega = TWO_PI * 80e-3
    value = closedform.rabi_fit_model(np.array([300.0]), 1.3, omega,
                                      0.4, 0.5, 9.0, 0.0)
    assert value[0] == pytest.approx(1.3, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(amplitude=st.floats(1e-2, 1e6), omega=st.floats(0.05, 5.0),
       phi=st.floats(-np.pi, np.pi), t0=st.floats(-2.0, 2.0),
       tau_rabi=st.floats(2.0, 50.0),
       gamma_isc_x=st.one_of(st.just(0.0), st.floats(0.0, 0.2)))
@example(amplitude=1.3, omega=TWO_PI * 80e-3, phi=0.3, t0=1.5, tau_rabi=9.0,
         gamma_isc_x=0.0)
def test_rabi_fit_model_jacobian_matches_central_differences(
        amplitude, omega, phi, t0, tau_rabi, gamma_isc_x):
    # each column agrees with a central difference to 1e-6 of its largest
    # entry; the box keeps exp(-(t - t0)/tau_rabi) >= 1/e at t = 0, so no
    # column falls to the rounding noise of the differences
    t = np.linspace(0.0, 40.0, 161)
    theta = np.array([amplitude, omega, phi, t0, tau_rabi, gamma_isc_x])
    exact = closedform.rabi_fit_model_jacobian(t, *theta)
    assert exact.shape == (len(t), 6)
    for j in range(6):
        step = 1e-6 * max(abs(theta[j]), 1.0)
        upper, lower = theta.copy(), theta.copy()
        upper[j] += step
        lower[j] -= step
        central = (closedform.rabi_fit_model(t, *upper)
                   - closedform.rabi_fit_model(t, *lower)) / (2.0 * step)
        scale = np.abs(exact[:, j]).max()
        assert np.abs(exact[:, j] - central).max() <= 1e-6 * scale, j


def test_fluorescence_a12_initial_and_order():
    t = np.linspace(0.0, 120.0, 481)
    bright_a1 = closedform.fluorescence_a12(GAMMA_RAD, GAMMA_MIX_WARM,
                                            GAMMA_ISC, "A1", t)
    bright_a2 = closedform.fluorescence_a12(GAMMA_RAD, GAMMA_MIX_WARM,
                                            GAMMA_ISC, "A2", t)
    assert bright_a1[0] == 1.0
    assert bright_a2[0] == 1.0
    # the branch that feeds the crossing decays faster
    assert np.all(bright_a1[1:] < bright_a2[1:])


def test_fluorescence_a12_no_crossing_reduction():
    t = np.linspace(0.0, 80.0, 161)
    for branch in ("A1", "A2"):
        signal = closedform.fluorescence_a12(GAMMA_RAD, GAMMA_MIX_WARM,
                                             0.0, branch, t)
        np.testing.assert_allclose(signal, np.exp(-GAMMA_RAD * t),
                                   rtol=1e-12)


def test_fluorescence_a12_no_mixing_reduction():
    t = np.linspace(0.0, 80.0, 161)
    a1 = closedform.fluorescence_a12(GAMMA_RAD, 0.0, GAMMA_ISC, "A1", t)
    a2 = closedform.fluorescence_a12(GAMMA_RAD, 0.0, GAMMA_ISC, "A2", t)
    np.testing.assert_allclose(a1, np.exp(-(GAMMA_RAD + GAMMA_ISC) * t),
                               rtol=1e-12)
    np.testing.assert_allclose(a2, np.exp(-GAMMA_RAD * t), rtol=1e-12)


def test_fluorescence_a12_matches_matrix_exponential():
    value = closedform.fluorescence_a12(GAMMA_RAD, GAMMA_MIX_WARM,
                                        GAMMA_ISC, "A1", np.array([11.0]))
    assert value[0] == pytest.approx(0.20081149879471338, rel=1e-11)
    rng = np.random.default_rng(22)
    for _ in range(20):
        gr, gm, gi = rng.uniform(0.0, 0.3, size=3)
        t = rng.uniform(0.0, 40.0)
        gen = np.array([[-(gr + gi + gm), gm], [gm, -(gr + gm)]])
        for branch, start in (("A1", [1.0, 0.0]), ("A2", [0.0, 1.0])):
            expected = (expm(gen * t) @ np.array(start)).sum()
            value = closedform.fluorescence_a12(gr, gm, gi, branch,
                                                np.array([t]))
            assert value[0] == pytest.approx(expected, rel=1e-9, abs=1e-13)


def _modes_slope(modes, t):
    """The Gamma_isc derivative of the curves of `_a12_modes`' modes at the
    times t: each exponential w exp(-k t) contributes (dw - t w dk) exp(-k t)."""
    w, k, dw, dk = (part[..., None] for part in modes)
    return ((dw[0] - w[0] * dk[0] * t) * np.exp(-k[0] * t)
            + (dw[1] - w[1] * dk[1] * t) * np.exp(-k[1] * t))


def _a12_slope(gr, gm, gi, branch, t):
    """The Gamma_isc derivative of one fluorescence_a12 curve."""
    return _modes_slope(closedform._a12_modes(gr, gm, gi, branch == "A1"), t)


def test_a12_isc_slope_matches_matrix_exponential():
    # d/dgi expm(G t) is the upper-right block of expm([[G, dG], [0, G]] t)
    rng = np.random.default_rng(23)
    rates = [tuple(rng.uniform(0.0, 0.3, size=3)) for _ in range(20)]
    rates += [(GAMMA_RAD, 0.0, GAMMA_ISC), (GAMMA_RAD, GAMMA_MIX_WARM, 0.0),
              (GAMMA_RAD, 0.0, 0.0), (GAMMA_RAD, 1e-5, 6.0)]
    d_gen = np.array([[-1.0, 0.0], [0.0, 0.0]])
    for gr, gm, gi in rates:
        gen = np.array([[-(gr + gi + gm), gm], [gm, -(gr + gm)]])
        block = np.block([[gen, d_gen], [np.zeros((2, 2)), gen]])
        for t in (0.0, 3.0, 20.0, 60.0):
            slope = expm(block * t)[:2, 2:]
            for branch, start in (("A1", [1.0, 0.0]), ("A2", [0.0, 1.0])):
                expected = (slope @ np.array(start)).sum()
                value = _a12_slope(gr, gm, gi, branch, np.array([t]))
                assert value[0] == pytest.approx(
                    expected, abs=1e-12 * (1.0 + t) * np.exp(-gr * t))


def test_fluorescence_a12_degenerate_splitting_is_continuous():
    # gamma' -> 0 corner: both branches approach exp(-(gr + gm + gi/2) t)
    t = np.linspace(0.0, 30.0, 31)
    tiny = closedform.fluorescence_a12(GAMMA_RAD, 1e-13, 2e-13, "A1", t)
    zero = closedform.fluorescence_a12(GAMMA_RAD, 0.0, 0.0, "A1", t)
    np.testing.assert_allclose(tiny, zero, rtol=1e-9)


def test_fluorescence_a12_weight_of_a_huge_splitting_is_zero_without_a_warning():
    # Gamma' a overflows once Gamma_mix nears 1e298 rad/ns; the fast weight
    # 2 Gamma_mix g/(Gamma' a) it divides is the 0 it tends to
    gamma_mix = TWO_PI * 1e297
    (weights, _), _ = closedform._a12_exponentials(0.0829, gamma_mix, 0.1, True)
    assert weights.tolist() == [1.0, 0.0]
    curve = closedform.fluorescence_a12(0.0829, gamma_mix, 0.1, "A1",
                                        np.linspace(0.0, 10.0, 5))
    assert np.isfinite(curve).all()


def test_fluorescence_a12_rejects_unknown_branch():
    with pytest.raises(ValidationError, match="got 'A3'"):
        closedform.fluorescence_a12(GAMMA_RAD, 0.0, 0.0, "A3",
                                    np.array([1.0]))


def test_undamped_envelope_has_infinite_tau_rabi():
    # 3/4 Gamma_rad,x + (Gamma_mix,xy + Gamma_t2)/2 = 0: the oscillation
    # never decays, and the envelope keeps only the offset's transient
    params = EnvelopeParams(0.0, 0.1, 0.0, 0.0, 0.0)
    tau_rabi, tau_2, amp_a, amp_b = closedform.envelope_timescales(params)
    assert tau_rabi == np.inf
    assert (tau_2, amp_a, amp_b) == (10.0, 0.0, 1.0)
    t = np.linspace(0.0, 50.0, 11)
    np.testing.assert_array_equal(closedform.rabi_envelope(params, t),
                                  0.5 * (1.0 + amp_a * np.exp(-t / tau_2) + amp_b))
    terms = closedform._envelope_terms(np.array([0.0, 0.1]), 0.1, 0.0, 0.0,
                                       np.array([0.0, 0.2]))
    assert terms[0].tolist() == [np.inf, 1.0 / (0.75 * 0.1 + 0.5 * 0.2)]


def _verify_draws():
    """The 200 rate sets of verify.check_envelope_identities, (gr_x, gr_y,
    m_xy, m_yx, gt2) as columns."""
    draws = np.random.default_rng(12345).random(1000).reshape(200, 5)
    gr_x, gt2, m_xy, m_yx = 0.126 * draws[:, :4].T
    return gr_x, 1e-3 + (0.126 - 1e-3) * draws[:, 4], m_xy, m_yx, gt2


def test_envelope_array_form_matches_scalar_form():
    gr_x, gr_y, m_xy, m_yx, gt2 = _verify_draws()
    for rates in ((gr_x, gr_y, m_xy, m_yx, gt2),
                  (gr_x, np.maximum(gr_x, 1e-6), m_xy, m_xy, gt2)):
        arrays = closedform._envelope_terms(*rates)
        for i, row in enumerate(zip(*(rate.tolist() for rate in rates))):
            scalar = closedform.envelope_timescales(EnvelopeParams(*row))
            assert [x.hex() for x in scalar] == [
                float(term[i]).hex() for term in arrays]


def test_envelope_array_form_refuses_one_undefined_element():
    gr_x, gr_y, m_xy, m_yx, gt2 = _verify_draws()
    gr_y, m_xy, m_yx = gr_y.copy(), m_xy.copy(), m_yx.copy()
    gr_y[57] = m_xy[57] = m_yx[57] = 0.0
    with pytest.raises(ValidationError, match="envelope offset amplitudes are "
                       "undefined when 2\\*gamma_rad_y"):
        closedform._envelope_terms(gr_x, gr_y, m_xy, m_yx, gt2)


# (Gamma_mix, Gamma_isc): Gamma' = 0, Gamma_mix = 0, Gamma_isc = 0,
# 2 Gamma_mix = Gamma_isc, Gamma_mix ~ 1e-7, either side of the split,
# and Gamma' -> 0
A12_GRID = [(0.0, 0.0), (0.0, GAMMA_ISC), (0.1, 0.0), (0.5 * GAMMA_ISC, GAMMA_ISC),
            (1e-7, GAMMA_ISC), (0.02, GAMMA_ISC), (0.3, GAMMA_ISC),
            (2e-13, 1e-13)]


def test_fluorescence_a12_output_bytes_are_pinned():
    # recorded before the two exponentials were evaluated as arrays of
    # curves; seeded synthetic traces are built from these bits
    t = 0.25 * np.arange(-4, 481)
    digest = hashlib.sha256()
    for branch in ("A1", "A2"):
        for gm, gi in A12_GRID:
            curve = closedform.fluorescence_a12(GAMMA_RAD, gm, gi, branch, t)
            digest.update(curve.astype("<f8").tobytes())
    assert digest.hexdigest() == (
        "c6741bef6f45117f9d42d8abef3a8d7ec5d8a92c6c6dfb2eb3ff5254a7d201f6")


_rates = st.one_of(st.just(0.0), st.floats(0.0, 0.5))


@settings(max_examples=100, deadline=None)
@given(gr=st.floats(0.01, 0.3), gi=_rates,
       mixes=st.lists(st.one_of(_rates, st.floats(1e-9, 1e-5)), min_size=1,
                      max_size=6),
       half=st.booleans())
@example(gr=GAMMA_RAD, gi=GAMMA_ISC, mixes=[0.0, 1e-7, 0.02], half=True)
@example(gr=GAMMA_RAD, gi=0.0, mixes=[0.0, 0.1], half=False)
def test_a12_array_evaluation_matches_single_curves(gr, gi, mixes, half):
    # every curve at once, both in the forward model's layout (mixing rate
    # x branch) and in one branch per curve, against single curves
    if half:
        mixes = mixes + [0.5 * gi]
    t = np.linspace(0.0, 120.0, 97)
    mixes = np.array(mixes)
    modes = closedform._a12_modes(gr, mixes[:, None], gi, np.array([True, False]))
    curves, slopes = closedform._a12_curves(modes, t), _modes_slope(modes, t)
    branches = ["A1", "A2"] * len(mixes)
    modes = closedform._a12_modes(gr, np.repeat(mixes, 2), gi,
                                  np.array(branches) == "A1")
    per_point = closedform._a12_curves(modes, t), _modes_slope(modes, t)
    assert curves.shape == slopes.shape == (len(mixes), 2, len(t))
    for i, (gm, branch) in enumerate(zip(np.repeat(mixes, 2), branches)):
        curve = closedform.fluorescence_a12(gr, gm, gi, branch, t)
        slope = _a12_slope(gr, gm, gi, branch, t)
        for got_curve, got_slope in ((curves[i // 2, i % 2], slopes[i // 2, i % 2]),
                                     (per_point[0][i], per_point[1][i])):
            np.testing.assert_array_equal(got_curve, curve)
            np.testing.assert_allclose(got_slope, slope, rtol=1e-15, atol=0.0)


def test_isc_rate_from_lifetime():
    rate = closedform.isc_rate_from_lifetime(5.449, GAMMA_RAD)
    assert rate.linear_mhz == pytest.approx(16.0, abs=0.1)
    # round trip through the lifetime
    tau = 1.0 / (GAMMA_ISC + GAMMA_RAD)
    back = closedform.isc_rate_from_lifetime(tau, GAMMA_RAD)
    assert back.value == pytest.approx(GAMMA_ISC, rel=1e-12)
    # radiative-limited lifetime gives no crossing
    assert abs(closedform.isc_rate_from_lifetime(
        1.0 / GAMMA_RAD, GAMMA_RAD).value) < 1e-12


def test_isc_rate_from_lifetime_rejects_nonpositive():
    with pytest.raises(ValidationError):
        closedform.isc_rate_from_lifetime(0.0, GAMMA_RAD)
