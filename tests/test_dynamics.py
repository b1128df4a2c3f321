import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

from nvphonon import closedform, dynamics
from nvphonon.core import TWO_PI, TimeTrace, ValidationError, rate_from_linear_mhz
from nvphonon.dynamics import (
    DensityMatrix3,
    IntegrationError,
    RateMatrixModel,
    ThreeLevelModel,
    build_a12_model,
    evolve_lindblad,
    evolve_rates,
)

GAMMA_RAD = rate_from_linear_mhz(13.2)
GAMMA_MIX_WARM = rate_from_linear_mhz(18.5)
GAMMA_ISC = rate_from_linear_mhz(16.0)


def _decay_model(**overrides):
    fields = dict(rabi=0.0, detuning=0.0,
                  gamma_rad_x=GAMMA_RAD, gamma_rad_y=GAMMA_RAD,
                  gamma_mix_xy=0.0, gamma_mix_yx=0.0,
                  gamma_isc_x=0.0, gamma_t2=0.0)
    fields.update(overrides)
    return ThreeLevelModel(**fields)


def test_pure_radiative_decay():
    model = _decay_model()
    lifetime = 1.0 / GAMMA_RAD.value
    result = evolve_lindblad(model, DensityMatrix3.pure("x"),
                             np.array([0.0, lifetime]))
    pop_x = result.populations["x"].values
    pop_g = result.populations["g"].values
    assert pop_x[0] == pytest.approx(1.0, abs=1e-12)
    assert pop_x[1] == pytest.approx(np.exp(-1.0), abs=1e-6)
    assert pop_g[1] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-6)


def test_unitary_rabi_oscillation():
    model = ThreeLevelModel(rabi=TWO_PI * 0.1, detuning=0.0,
                            gamma_rad_x=0.0, gamma_rad_y=0.0,
                            gamma_mix_xy=0.0, gamma_mix_yx=0.0,
                            gamma_isc_x=0.0, gamma_t2=0.0)
    t = np.linspace(0.0, 30.0, 61)
    result = evolve_lindblad(model, DensityMatrix3.pure("g"), t)
    expected = np.sin(0.5 * TWO_PI * 0.1 * t) ** 2
    np.testing.assert_allclose(result.populations["x"].values, expected,
                               atol=1e-8)


def test_detuned_drive_population_cap():
    # two-level Rabi formula caps the excited population at
    # omega^2 / (omega^2 + delta^2)
    omega = TWO_PI * 0.1
    model = ThreeLevelModel(rabi=omega, detuning=3.0 * omega,
                            gamma_rad_x=0.0, gamma_rad_y=0.0,
                            gamma_mix_xy=0.0, gamma_mix_yx=0.0,
                            gamma_isc_x=0.0, gamma_t2=0.0)
    t = np.linspace(0.0, 40.0, 2001)
    result = evolve_lindblad(model, DensityMatrix3.pure("g"), t)
    peak = result.populations["x"].values.max()
    assert peak == pytest.approx(0.1, abs=2e-3)


def test_mixing_matches_closed_form():
    model = _decay_model(gamma_mix_xy=GAMMA_MIX_WARM,
                         gamma_mix_yx=GAMMA_MIX_WARM)
    t = np.linspace(0.0, 60.0, 121)
    result = evolve_lindblad(model, DensityMatrix3.pure("x"), t)
    rho_b, rho_d = closedform.depolarization_populations(
        GAMMA_RAD.value, GAMMA_MIX_WARM.value, t)
    np.testing.assert_allclose(result.populations["x"].values, rho_b,
                               atol=1e-12)
    np.testing.assert_allclose(result.populations["y"].values, rho_d,
                               atol=1e-12)


def test_trace_preserved_with_sink():
    model = _decay_model(gamma_rad_y=0.0, gamma_isc_x=GAMMA_ISC)
    t = np.linspace(0.0, 40.0, 81)
    result = evolve_lindblad(model, DensityMatrix3.pure("x"), t)
    total = sum(result.populations[k].values for k in ("g", "x", "dark"))
    np.testing.assert_allclose(total, np.ones_like(t), atol=1e-9)
    assert result.populations["dark"].values[-1] > 0.5


def test_sink_requires_quiet_y_level():
    with pytest.raises(ValidationError):
        _decay_model(gamma_isc_x=GAMMA_ISC)


def test_coherence_reported():
    model = _decay_model(rabi=TWO_PI * 0.05)
    t = np.linspace(0.0, 20.0, 41)
    result = evolve_lindblad(model, DensityMatrix3.pure("g"), t)
    assert result.coherence.values[0] == pytest.approx(0.0, abs=1e-12)
    assert result.coherence.values.max() > 0.01


def test_driven_mixing_dephased_trace_and_positivity():
    model = _decay_model(gamma_mix_xy=GAMMA_MIX_WARM,
                         gamma_mix_yx=GAMMA_MIX_WARM,
                         rabi=TWO_PI * 0.05, gamma_t2=0.02)
    t = np.linspace(0.0, 30.0, 31)
    result = evolve_lindblad(model, DensityMatrix3.pure("g"), t)
    pops = {key: result.populations[key].values for key in ("g", "x", "y")}
    # no loss channel: the populations keep summing to one
    total = pops["g"] + pops["x"] + pops["y"]
    np.testing.assert_allclose(total, np.ones_like(t), atol=1e-12)
    for values in pops.values():
        assert np.all(values >= 0.0) and np.all(values <= 1.0 + 1e-12)
    # positivity of the g-x block: |rho_gx|^2 <= rho_gg rho_xx
    gap = pops["g"] * pops["x"] - result.coherence.values ** 2
    assert np.all(gap >= -1e-12)
    assert result.coherence.values.max() > 0.01


def test_times_validated():
    model = _decay_model()
    rho0 = DensityMatrix3.pure("x")
    with pytest.raises(ValidationError):
        evolve_lindblad(model, rho0, np.array([1.0, 0.5]))
    with pytest.raises(ValidationError):
        evolve_lindblad(model, rho0, np.array([-1.0, 0.5]))


def test_fast_drive_on_two_samples_is_exact():
    # 500 MHz drive: 20 Rabi cycles between the only two samples
    omega = rate_from_linear_mhz(500.0)
    model = ThreeLevelModel(rabi=omega)
    t = np.array([0.0, 40.0])
    result = evolve_lindblad(model, DensityMatrix3.pure("g"), t)
    expected = np.sin(0.5 * omega.value * t) ** 2
    np.testing.assert_allclose(result.populations["x"].values, expected,
                               rtol=0.0, atol=1e-12)


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        DensityMatrix3(np.diag([0.5, 0.5, 0.5]))
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 0] = 1.0
    bad[0, 1] = 0.3
    with pytest.raises(ValidationError):
        DensityMatrix3(bad)
    with pytest.raises(ValidationError):
        DensityMatrix3.from_populations(0.7, 0.6, -0.3)
    rho = DensityMatrix3.from_populations(0.2, 0.5, 0.3)
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_pure_state_labels():
    for label, index in (("g", 0), ("x", 1), ("y", 2)):
        rho = DensityMatrix3.pure(label)
        assert rho.matrix[index, index] == 1.0
        checked = DensityMatrix3(rho.matrix)
        assert rho.matrix.tobytes() == checked.matrix.tobytes()
        assert rho.matrix.dtype == checked.matrix.dtype
        assert not rho.matrix.flags.writeable
    for index in (0, 1, 2, np.int64(1), np.uint8(2)):
        assert DensityMatrix3.pure(index).matrix[index, index] == 1.0
    assert DensityMatrix3.pure("dark").matrix.tobytes() == \
        DensityMatrix3.pure(2).matrix.tobytes()


@pytest.mark.parametrize("level", [
    "z", "G", "", -1, -3, 3, 1.5, 1.0, True, False, np.bool_(True),
    np.array(1), np.array([1]), [1], np.array([0, 1]), slice(0, 1),
    slice(0, 2), None,
], ids=repr)
def test_pure_state_refuses_anything_but_a_level(level):
    # a negative, sequence or slice index would set some diagonal entry,
    # and 3 or 1.5 would fail inside numpy: each is refused by name
    with pytest.raises(ValidationError) as refused:
        DensityMatrix3.pure(level)
    assert str(refused.value) == (
        "level must be 0, 1, 2 or a label 'g', 'x', 'y' or 'dark', "
        f"got {level!r}")


def test_rate_matrix_validation():
    # columns must not create probability
    with pytest.raises(ValidationError):
        RateMatrixModel(np.array([[0.1, 0.0], [0.0, -0.1]]),
                        ("a", "b"))
    with pytest.raises(ValidationError):
        RateMatrixModel(np.array([[-0.1, -0.05], [0.1, 0.0]]),
                        ("a", "b"))


def _with(matrix, index, value):
    matrix = np.array(matrix, dtype=complex)
    matrix[index] = value
    return matrix


_HALF = np.diag([0.5, 0.5, 0.0])

# inputs each constructor refuses, with the message of the first test that
# fails; inputs with several faults get the earliest one
_BAD_INPUTS = {
    "rho-2x2": (lambda: DensityMatrix3(np.eye(2)), "density matrix must be 3x3"),
    "rho-nan-2x2": (lambda: DensityMatrix3(np.full((2, 2), np.nan)),
                    "density matrix must be 3x3"),
    "rho-nan-real": (lambda: DensityMatrix3(_with(_HALF, (0, 0), np.nan)),
                     "density matrix must be finite"),
    "rho-nan-imag": (lambda: DensityMatrix3(_with(_HALF, (0, 0), complex(0.5, np.nan))),
                     "density matrix must be finite"),
    "rho-inf-imag": (lambda: DensityMatrix3(_with(_HALF, (0, 1), complex(0.0, np.inf))),
                     "density matrix must be finite"),
    "rho-nan-and-not-hermitian": (
        lambda: DensityMatrix3(_with(_with(_HALF, (0, 1), 0.3), (2, 2), np.nan)),
        "density matrix must be finite"),
    "rho-not-hermitian": (lambda: DensityMatrix3(_with(_HALF, (0, 1), 0.1)),
                          "density matrix must be hermitian"),
    "rho-trace": (lambda: DensityMatrix3(np.diag([0.5, 0.5, 0.5])),
                  "density matrix trace must be 1"),
    "rho-population": (lambda: DensityMatrix3(np.diag([1.5, -0.5, 0.0])),
                       "populations must lie in [0, 1]"),
    "rates-1d": (lambda: RateMatrixModel(np.array([1.0])), "rate matrix must be square"),
    "rates-2x3": (lambda: RateMatrixModel(np.zeros((2, 3))), "rate matrix must be square"),
    "rates-nan": (lambda: RateMatrixModel(np.array([[np.nan, 0.0], [0.0, -0.1]])),
                  "rate matrix must be finite"),
    "rates-negative-transfer": (
        lambda: RateMatrixModel(np.array([[-0.1, -0.05], [0.1, 0.05]])),
        "off-diagonal transfer rates must be >= 0"),
    "rates-gain": (lambda: RateMatrixModel(np.array([[0.1, 0.0], [0.0, -0.1]])),
                   "columns must sum to <= 0 (no probability gain)"),
    "rates-labels": (lambda: RateMatrixModel(-np.eye(2), ("a",)),
                     "one label per level required"),
    "p0-shape": (lambda: evolve_rates(build_a12_model(0.1, 0.05, 0.08),
                                      [1.0, 0.0, 0.0], [0.0, 1.0]),
                 "p0 must have shape (2,)"),
    "p0-nan": (lambda: evolve_rates(build_a12_model(0.1, 0.05, 0.08),
                                    [np.nan, 0.0], [0.0, 1.0]),
               "initial populations must be finite and >= 0"),
    "p0-negative": (lambda: evolve_rates(build_a12_model(0.1, 0.05, 0.08),
                                         [1.0, -0.5], [0.0, 1.0]),
                    "initial populations must be finite and >= 0"),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_states_models_and_initial_populations_refuse_with_their_message(case):
    build, message = _BAD_INPUTS[case]
    with pytest.raises(ValidationError) as info:
        build()
    assert type(info.value) is ValidationError
    assert str(info.value) == message


def test_rate_evolution_against_expm():
    rng = np.random.default_rng(31)
    for _ in range(10):
        gr, gm, gi = rng.uniform(0.01, 0.3, size=3)
        model = build_a12_model(gr, gm, gi)
        t = np.linspace(0.0, 50.0, 26)
        pops = evolve_rates(model, np.array([1.0, 0.0]), t)
        gen = np.array([[-(gr + gi + gm), gm], [gm, -(gr + gm)]])
        for i, ti in enumerate(t):
            expected = expm(gen * ti) @ np.array([1.0, 0.0])
            assert pops["A1"].values[i] == pytest.approx(
                expected[0], rel=1e-8, abs=1e-12)
            assert pops["A2"].values[i] == pytest.approx(
                expected[1], rel=1e-8, abs=1e-12)


_GRIDS = {
    "arange-0.05": np.arange(0.0, 40.0, 0.05),
    "arange-0.01": np.arange(0.0, 40.0, 0.01),
    "late-start": np.arange(3.7, 40.0, 0.05),
    "off-grid-point": np.sort(np.append(np.arange(0.0, 100.1, 1.0),
                                        1.0 / GAMMA_RAD.value)),
    "geomspace": np.geomspace(0.01, 200.0, 50),
    "one-sample": np.array([7.3]),
    "two-samples": np.array([1.5, 41.5]),
}

_LINDBLAD_MODELS = {
    "driven": _decay_model(gamma_mix_xy=GAMMA_MIX_WARM,
                           gamma_mix_yx=0.5 * GAMMA_MIX_WARM.value,
                           gamma_t2=rate_from_linear_mhz(10.0),
                           rabi=rate_from_linear_mhz(300.0), detuning=0.2),
    "sink": _decay_model(gamma_rad_y=0.0, gamma_isc_x=GAMMA_ISC,
                         rabi=rate_from_linear_mhz(50.0)),
}


def _expm_states(matrix, y0, times):
    """The oracle: exp(t_i M) y0 by one expm per sample."""
    return np.stack([expm(t * matrix) @ y0 for t in times])


@pytest.mark.parametrize("grid", sorted(_GRIDS))
@pytest.mark.parametrize("name", sorted(_LINDBLAD_MODELS))
def test_lindblad_populations_match_expm_per_sample(name, grid):
    model, t = _LINDBLAD_MODELS[name], _GRIDS[grid]
    rho0 = DensityMatrix3.pure("g")
    result = evolve_lindblad(model, rho0, t)
    states = _expm_states(dynamics._lindblad_superoperator(model),
                          rho0.matrix.reshape(9), t).reshape(len(t), 3, 3)
    for idx, label in enumerate(model.labels):
        np.testing.assert_allclose(result.populations[label].values,
                                   states[:, idx, idx].real,
                                   rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("grid", sorted(_GRIDS))
def test_rate_populations_match_expm_per_sample(grid):
    model = build_a12_model(GAMMA_RAD, GAMMA_MIX_WARM, GAMMA_ISC)
    t = _GRIDS[grid]
    p0 = np.array([0.3, 0.7])
    pops = evolve_rates(model, p0, t)
    expected = _expm_states(model.matrix, p0, t)
    for idx, label in enumerate(model.labels):
        np.testing.assert_allclose(pops[label].values, expected[:, idx],
                                   rtol=1e-10, atol=0.0)


def _random_generator(rng, kind):
    """A random rate matrix (2 to 5 levels, some with loss) or a random
    Lindblad generator (sink mode one time in three)."""
    if kind == "rate":
        n = rng.integers(2, 6)
        matrix = rng.uniform(0.0, 1.0, (n, n))
        np.fill_diagonal(matrix, 0.0)
        loss = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.5)
        return matrix - np.diag(matrix.sum(axis=0) + loss)
    r = rng.uniform(0.0, 1.0, 8) * (rng.uniform(size=8) < 0.7)
    if rng.uniform() < 1.0 / 3.0:
        r[1:4], r[5] = 0.0, r[5] + 0.1
    else:
        r[5] = 0.0
    return dynamics._lindblad_superoperator(ThreeLevelModel(
        gamma_rad_x=r[0], gamma_rad_y=r[1], gamma_mix_xy=r[2],
        gamma_mix_yx=r[3], gamma_t2=r[4], gamma_isc_x=r[5],
        rabi=5.0 * r[6], detuning=4.0 * (r[7] - 0.5)))


@pytest.mark.parametrize("kind", ["rate", "lindblad"])
def test_propagator_matches_expm(kind):
    # h ||M||_1 from 1e-6 to 1e3: no squaring up to 0.5, then up to 10;
    # each squaring can double the rounding of the one before, so the
    # tolerance of the chain entry exp(h' M) is 16 eps max(1, h' ||M||_1)
    # (the largest error seen over 800 such generators was 3.7 eps
    # max(1, h ||M||_1) for the last entry)
    rng = np.random.default_rng(17 if kind == "rate" else 18)
    for scale in np.geomspace(1e-6, 1e3, 91):
        matrix = _random_generator(rng, kind)
        norm1 = float(np.abs(matrix).sum(axis=0).max())
        h = scale / norm1
        chain = dynamics._propagator(matrix, h, norm1)
        squarings = len(chain) - 1
        assert math.ldexp(scale, -squarings) < 1.0
        for j, entry in enumerate(chain):
            level = math.ldexp(h, j - squarings)
            np.testing.assert_allclose(
                entry, expm(level * matrix), rtol=0.0,
                atol=16 * np.finfo(float).eps * max(1.0, level * norm1))


def test_propagation_refuses_an_overflowing_span():
    # t ||M||_1 = inf would sum the Taylor series forever; at 1.2e308,
    # just below the overflow, the propagator takes 1024 squarings
    model = build_a12_model(1.0, 1.0, 1.0)
    p0 = np.array([1.0, 0.0])
    for times in ([1e308], [0.0, 1e308]):
        with pytest.raises(ValidationError, match="overflows"):
            evolve_rates(model, p0, times)
    pops = evolve_rates(model, p0, [0.0, 3e307])
    assert pops["A1"].values.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("times", [np.geomspace(1e-3, 1e6, 40),
                                   np.array([0.0, 1e-9, 1e6])],
                         ids=["geomspace", "far-apart"])
def test_wide_grid_builds_no_span_sized_lattice(monkeypatch, times):
    # span / smallest spacing is ~1e15 here: the propagation must build
    # two propagators and O(n) lattice states, and still be exact
    propagators, lattices = [], []
    propagator, lattice = dynamics._propagator, dynamics._lattice

    def counting_propagator(matrix, h, norm1):
        propagators.append(h)
        return propagator(matrix, h, norm1)

    def counting_lattice(start, step, count):
        lattices.append(count)
        return lattice(start, step, count)

    monkeypatch.setattr(dynamics, "_propagator", counting_propagator)
    monkeypatch.setattr(dynamics, "_lattice", counting_lattice)
    n = len(times)

    exchange = RateMatrixModel(np.array([[-0.2, 0.1], [0.2, -0.1]]),
                               ("up", "down"))
    p0 = np.array([0.9, 0.1])
    pops = evolve_rates(exchange, p0, times)
    expected = _expm_states(exchange.matrix, p0, times)
    for idx, label in enumerate(exchange.labels):
        np.testing.assert_allclose(pops[label].values, expected[:, idx],
                                   rtol=1e-10, atol=0.0)
    assert len(propagators) <= 2 and sum(lattices) <= 2 * n + 1

    propagators.clear()
    lattices.clear()
    model = _LINDBLAD_MODELS["driven"]
    gen = dynamics._lindblad_superoperator(model)
    rho0 = DensityMatrix3.pure("g")
    result = evolve_lindblad(model, rho0, times)
    states = _expm_states(gen, rho0.matrix.reshape(9),
                          times).reshape(n, 3, 3)
    # at t ||M||_1 ~ 5e6 any squaring scheme, expm included, keeps the
    # stationary populations only to about t ||M||_1 u (~1e-9; both sit
    # within 1e-10 of the null vector of M)
    atol = np.finfo(float).eps * times[-1] * np.abs(gen).sum(axis=0).max()
    for idx, label in enumerate(model.labels):
        np.testing.assert_allclose(result.populations[label].values,
                                   states[:, idx, idx].real,
                                   rtol=0.0, atol=atol)
    assert len(propagators) <= 2 and sum(lattices) <= 2 * n + 1


# on the lattice (every r_i = 0, from t = 0 and from a later start), near
# it (arange's last-bit offsets) and far off it (every remainder distinct)
_PINNED_GRIDS = {
    "on-lattice": np.arange(0.0, 200.1, 2.0),
    "late-start": np.arange(3.0, 203.0, 2.0),
    "arange": np.arange(0.0, 40.0, 0.05),
    "geomspace": np.geomspace(0.01, 200.0, 50),
}

# sha256 of the states, as float.hex, of a rate and a Lindblad generator;
# the geomspace digests were recorded when samples far off the lattice
# began to walk the step's squaring chain, which moved those states by at
# most 1.3e-15 of the largest state entry (6.6e-16 relative in norm)
_PROPAGATED_STATE_DIGESTS = {
    "on-lattice": "01700ef36519c116c039816cc42f55c84e2d92f9d7a7eace6e22af73cd37a489",
    "late-start": "7014e01ae49a8ea0ff2f94eb91b6e1b018b11527f350747c74082ea4dd6b440d",
    "arange": "cc237d345783ffcefaa59e00e0190718c4890c2e5d5e7de076548c1500479a06",
    "geomspace": "6366ca2eab87c0a62dae608c057f1ca201d10287bc0324e50a2349271806a5f3",
}


@pytest.mark.parametrize("grid", list(_PINNED_GRIDS))
def test_propagated_states_are_pinned(grid):
    # recorded before _propagate read remainder-free grids straight off the
    # lattice, one digest per grid so that a change to one way of moving a
    # sample shows which grids it touches
    digest = hashlib.sha256()
    rates = build_a12_model(GAMMA_RAD, GAMMA_MIX_WARM, GAMMA_ISC).matrix
    lindblad = dynamics._lindblad_superoperator(_LINDBLAD_MODELS["driven"])
    for matrix, y0 in ((rates, np.array([0.3, 0.7])),
                       (lindblad, DensityMatrix3.pure("g").matrix.reshape(9))):
        states = dynamics._propagate(matrix, y0, _PINNED_GRIDS[grid])
        digest.update(" ".join(map(float.hex, states.view(float).ravel().tolist()))
                      .encode())
    assert digest.hexdigest() == _PROPAGATED_STATE_DIGESTS[grid]


@pytest.mark.parametrize("kind", ["rate", "lindblad"])
def test_lattice_grid_builds_one_propagator(monkeypatch, kind):
    # a grid with no remainder from t = 0 needs the lattice step alone:
    # one propagator, whose Taylor series is the only one summed
    calls = []
    propagator, taylor = dynamics._propagator, dynamics._taylor

    def counting_propagator(matrix, h, norm1):
        calls.append("propagator")
        return propagator(matrix, h, norm1)

    def counting_taylor(matrix, rest, states, norm1):
        calls.append("taylor")
        return taylor(matrix, rest, states, norm1)

    monkeypatch.setattr(dynamics, "_propagator", counting_propagator)
    monkeypatch.setattr(dynamics, "_taylor", counting_taylor)
    t = np.arange(0.0, 200.1, 2.0)
    if kind == "rate":
        evolve_rates(build_a12_model(GAMMA_RAD, GAMMA_MIX_WARM, GAMMA_ISC),
                     np.array([1.0, 0.0]), t)
    else:
        evolve_lindblad(_LINDBLAD_MODELS["driven"], DensityMatrix3.pure("g"), t)
    assert sorted(calls) == ["propagator", "taylor"]


@pytest.mark.parametrize("kind", ["rate", "lindblad"])
def test_random_grid_builds_two_propagators(monkeypatch, kind):
    # every sample sits off the lattice at its own remainder, and all of
    # them walk the step's squaring chain: the step's propagator and the
    # late start's are the only two built, and the states stay exact
    propagators = []
    propagator = dynamics._propagator

    def counting_propagator(matrix, h, norm1):
        propagators.append(h)
        return propagator(matrix, h, norm1)

    monkeypatch.setattr(dynamics, "_propagator", counting_propagator)
    t = np.sort(np.random.default_rng(26).uniform(0.0, 120.0, 300))
    if kind == "rate":
        model = build_a12_model(GAMMA_RAD, GAMMA_MIX_WARM, GAMMA_ISC)
        pops = evolve_rates(model, np.array([0.3, 0.7]), t)
        expected = _expm_states(model.matrix, np.array([0.3, 0.7]), t)
    else:
        model = _LINDBLAD_MODELS["driven"]
        pops = evolve_lindblad(model, DensityMatrix3.pure("g"), t).populations
        expected = _expm_states(dynamics._lindblad_superoperator(model),
                                DensityMatrix3.pure("g").matrix.reshape(9), t)
        expected = np.diagonal(expected.reshape(len(t), 3, 3), axis1=1, axis2=2).real
    assert len(propagators) == 2
    for idx, label in enumerate(model.labels):
        np.testing.assert_allclose(pops[label].values, expected[:, idx],
                                   rtol=0.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(rates=st.tuples(*[st.floats(1e-3, 0.3)] * 3),
       branch=st.sampled_from(("A1", "A2")),
       start=st.floats(0.0, 5.0),
       steps=st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=30))
def test_rate_evolution_matches_closed_form_on_irregular_grid(
        rates, branch, start, steps):
    # nearly every spacing differs, so most samples sit off the lattice
    # and walk the digits of their own remainder along the step's chain
    t = start + np.concatenate([[0.0], np.cumsum(steps)])
    assume(np.all(np.diff(t) > 0.0))
    gr, gm, gi = rates
    p0 = np.array([1.0, 0.0] if branch == "A1" else [0.0, 1.0])
    pops = evolve_rates(build_a12_model(gr, gm, gi), p0, t)
    total = pops["A1"].values + pops["A2"].values
    closed = closedform.fluorescence_a12(gr, gm, gi, branch, t)
    np.testing.assert_allclose(total, closed, rtol=1e-12, atol=0.0)


def test_negative_population_is_reported(monkeypatch):
    model = build_a12_model(0.1, 0.05, 0.08)
    t = np.array([0.0, 1.0])
    monkeypatch.setattr(dynamics, "_propagate",
                        lambda matrix, y0, times: np.array([[1.0, 0.0],
                                                            [1.0, -1e-6]]))
    with pytest.raises(IntegrationError):
        evolve_rates(model, np.array([1.0, 0.0]), t)


# times that _validate_times refuses, with the exception each evolver
# raises; the finiteness test comes before the start and order tests
_BAD_TIMES = {
    "2-d": (np.zeros((2, 2)), "times must be a nonempty 1-d array"),
    "empty": (np.array([]), "times must be a nonempty 1-d array"),
    "nan": (np.array([0.0, np.nan, 2.0]), "times must be finite"),
    "negative-start": (np.array([-1.0, 0.5, 2.0]), "times must start at or after 0"),
    "repeated": (np.array([0.0, 1.0, 1.0]), "times must be strictly increasing"),
    "decreasing": (np.array([0.0, 2.0, 1.0]), "times must be strictly increasing"),
    "nan-and-negative-start": (np.array([-1.0, np.nan, 2.0]), "times must be finite"),
}


def _evolve(kind, times):
    if kind == "rate":
        return evolve_rates(build_a12_model(0.1, 0.05, 0.08),
                            np.array([1.0, 0.0]), times)
    return evolve_lindblad(_LINDBLAD_MODELS["driven"], DensityMatrix3.pure("g"),
                           times)


@pytest.mark.parametrize("case", sorted(_BAD_TIMES))
@pytest.mark.parametrize("kind", ["rate", "lindblad"])
def test_malformed_times_are_refused_with_their_message(kind, case):
    times, message = _BAD_TIMES[case]
    with pytest.raises(ValidationError) as info:
        _evolve(kind, times)
    assert type(info.value) is ValidationError
    assert str(info.value) == message


_NEGATIVE = "population went significantly negative"
_NOT_FINITE = "trace values must be finite"

# (first label's column, second label's column) at t = 0, 1, 2, and the
# exception the per-label check raises first
_BAD_POPULATIONS = {
    "negative-first": ([1.0, -1e-6, 0.5], [0.0, 0.5, 0.5], IntegrationError, _NEGATIVE),
    "negative-later": ([1.0, 0.5, 0.5], [0.0, 0.5, -1e-6], IntegrationError, _NEGATIVE),
    "nan-first": ([1.0, np.nan, 0.5], [0.0, 0.5, 0.5], ValidationError, _NOT_FINITE),
    "nan-later": ([1.0, 0.5, 0.5], [0.0, np.nan, 0.5], ValidationError, _NOT_FINITE),
    "inf-first": ([1.0, np.inf, 0.5], [0.0, 0.5, 0.5], ValidationError, _NOT_FINITE),
    "minus-inf-later": ([1.0, 0.5, 0.5], [0.0, -np.inf, 0.5], IntegrationError,
                        _NEGATIVE),
    "nan-and-negative-in-one-column": ([1.0, np.nan, -1e-6], [0.0, 0.5, 0.5],
                                       ValidationError, _NOT_FINITE),
    "nan-first-negative-later": ([1.0, np.nan, 0.5], [0.0, 0.5, -1e-6],
                                 ValidationError, _NOT_FINITE),
    "negative-first-nan-later": ([1.0, -1e-6, 0.5], [0.0, np.nan, 0.5],
                                 IntegrationError, _NEGATIVE),
    "within-tolerance": ([1.0, -1e-10, 0.5], [0.0, 0.5, 0.5], None, None),
}


@pytest.mark.parametrize("case", sorted(_BAD_POPULATIONS))
@pytest.mark.parametrize("kind", ["rate", "lindblad"])
def test_bad_populations_are_refused_with_their_message(monkeypatch, kind, case):
    # the propagated states are replaced, as in
    # test_negative_population_is_reported; in the Lindblad case the two
    # columns are the x and y populations, with g at 0
    first, later, error, message = _BAD_POPULATIONS[case]
    if kind == "rate":
        states = np.column_stack([first, later])
    else:
        states = np.zeros((3, 9))
        states[:, 4], states[:, 8] = first, later
    monkeypatch.setattr(dynamics, "_propagate", lambda matrix, y0, times: states)
    if error is None:
        _evolve(kind, np.array([0.0, 1.0, 2.0]))
        return
    with pytest.raises(ValidationError) as info:
        _evolve(kind, np.array([0.0, 1.0, 2.0]))
    assert type(info.value) is error
    assert str(info.value) == message


def test_non_finite_coherence_is_refused(monkeypatch):
    states = np.zeros((2, 9))
    states[:, 0] = 1.0
    states[1, 1] = np.nan
    monkeypatch.setattr(dynamics, "_propagate", lambda matrix, y0, times: states)
    with pytest.raises(ValidationError) as info:
        _evolve("lindblad", np.array([0.0, 1.0]))
    assert type(info.value) is ValidationError
    assert str(info.value) == _NOT_FINITE


def _populations_per_label(times, columns, labels):
    """The per-label loop _populations replaced, one public TimeTrace a
    label: the oracle of its refusals and values."""
    out = {}
    for idx, label in enumerate(labels):
        values = columns[:, idx]
        if np.min(values) < -1e-9:
            raise IntegrationError("population went significantly negative")
        out[label] = TimeTrace(times, np.clip(values, 0.0, None))
    return out


def _outcome(populate, times, columns, labels):
    try:
        traces = populate(times, columns, labels)
    except ValidationError as exc:
        return type(exc), str(exc)
    return {label: (trace.values.dtype, trace.values.tobytes())
            for label, trace in traces.items()}


_POPULATION = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, -1e-6, -1e-9, -1e-10, -0.0, 0.0]),
    st.floats(-1e-8, 1.0))


@settings(max_examples=300, deadline=None)
@given(columns=hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 4)),
                          elements=_POPULATION))
def test_populations_refuse_like_the_per_label_loop(columns):
    # one pass over all columns raises what the loop raised first, and
    # otherwise gives its values bit for bit
    times = np.arange(len(columns), dtype=float)
    labels = tuple("abcd"[:columns.shape[1]])
    assert (_outcome(dynamics._populations, times, columns, labels)
            == _outcome(_populations_per_label, times, columns, labels))


def test_result_times_are_the_traces_read_only_copy():
    times = np.arange(0.0, 10.0, 1.0)
    result = evolve_lindblad(_LINDBLAD_MODELS["driven"], DensityMatrix3.pure("g"),
                             times)
    times[3] = -5.0
    assert result.times[3] == 3.0
    assert not result.times.flags.writeable
    assert result.times is result.populations["x"].times


_EVOLVED_TRACE_DIGESTS = {
    "on-lattice": "59545f9661cd604c5c2a0056abc3e4ae4ea24ec8734c91bae84546607be6da49",
    "late-start": "03f1abe9645763d8663bc2a70e5258ca84a567e8697d53f74c174f7e0f8e33f6",
    "arange": "a8af385d13d45cf59fd167ba9310155dfc76caf4ae6c5ed7853aa22a8e93ef38",
    "geomspace": "c86563378d603388b77555ba4b0fce78cabdd1c5f906df849af88a80044da548",
}


@pytest.mark.parametrize("grid", list(_PINNED_GRIDS))
def test_evolved_traces_are_pinned(grid):
    # the population and coherence traces, times and values as float.hex,
    # of the models and grids of test_propagated_states_are_pinned
    digest = hashlib.sha256()

    def update(trace):
        for array in (trace.times, trace.values):
            digest.update(" ".join(map(float.hex, array.tolist())).encode())

    rates = build_a12_model(GAMMA_RAD, GAMMA_MIX_WARM, GAMMA_ISC)
    times = _PINNED_GRIDS[grid]
    pops = evolve_rates(rates, np.array([0.3, 0.7]), times)
    for label in rates.labels:
        update(pops[label])
    model = _LINDBLAD_MODELS["driven"]
    result = evolve_lindblad(model, DensityMatrix3.pure("g"), times)
    for label in model.labels:
        update(result.populations[label])
    update(result.coherence)
    assert digest.hexdigest() == _EVOLVED_TRACE_DIGESTS[grid]


def test_rate_evolution_conserves_without_loss():
    # pure exchange keeps the total fixed
    gen = np.array([[-0.2, 0.1], [0.2, -0.1]])
    model = RateMatrixModel(gen, ("up", "down"))
    t = np.linspace(0.0, 80.0, 9)
    pops = evolve_rates(model, np.array([0.9, 0.1]), t)
    total = pops["up"].values + pops["down"].values
    np.testing.assert_allclose(total, np.ones_like(t), atol=1e-10)
    # long-time balance: p_up/p_down -> 0.1/0.2
    assert pops["up"].values[-1] == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_rate_evolution_shape_checks():
    model = build_a12_model(0.1, 0.05, 0.08)
    with pytest.raises(ValidationError):
        evolve_rates(model, np.array([1.0, 0.0, 0.0]),
                     np.array([0.0, 1.0]))
    with pytest.raises(ValidationError):
        evolve_rates(model, np.array([1.2, -0.2]), np.array([0.0, 1.0]))


def test_build_a12_model_structure():
    model = build_a12_model(GAMMA_RAD.value, GAMMA_MIX_WARM.value,
                            GAMMA_ISC.value)
    assert model.labels == ("A1", "A2")
    gen = model.matrix
    assert gen[0, 1] == pytest.approx(GAMMA_MIX_WARM.value)
    assert gen[1, 0] == pytest.approx(GAMMA_MIX_WARM.value)
    # column sums give the loss out of each branch
    assert -gen[:, 0].sum() == pytest.approx(GAMMA_RAD.value
                                             + GAMMA_ISC.value, rel=1e-12)
    assert -gen[:, 1].sum() == pytest.approx(GAMMA_RAD.value, rel=1e-12)
