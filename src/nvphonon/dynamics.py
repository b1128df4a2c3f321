"""Numerical evolution of the three-level optical system and of classical
rate-equation models.

The three-level system is the ground state |g> and the orbital excited
branches |x>, |y> in the rotating frame of a resonant (or detuned) optical
drive on g-x. Dissipation enters through Lindblad jump operators:

* radiative decay     |g><x| at gamma_rad_x, |g><y| at gamma_rad_y
* orbital mixing      |y><x| at gamma_mix_xy, |x><y| at gamma_mix_yx
* pure dephasing      sqrt(gamma_t2/2) (|x><x| - |g><g|), which damps the
  g-x coherence at gamma_t2 on top of the population contribution
* crossing loss       |dark><x| at gamma_isc_x; in that mode the third
  level is a non-radiative sink and mixing must be zero

The Lindblad generator is the sum of constant unit generators
(_GENERATORS), one per model field, weighted by the field values; it
takes about 5 us to build.

Both evolvers propagate exactly. The generator M is constant in time, so
the state at time t is exp(t M) y0. The sample states are read off a
lattice of the most common sample spacing delta, whose states
exp(k delta M) y(t_0) come from O(log n) block products of propagator
powers; a sample off the lattice is moved on from a lattice state by
its remainder (see _propagate). _taylor computes every exponential:
applied to the identity and squared for a propagator (_propagator), or
to the states for what is left of a remainder. A call builds one
propagator for the lattice step and one more when the grid starts after
0, whatever the grid; one takes 40-90 us (9x9 Lindblad) or 35-55 us (2x2
rates), rising with h ||M||_1, on one core of a 2-CPU virtual machine.
An off-lattice sample takes one masked batched product per squaring
level of the step that its remainder needs, and then one Taylor call
moves every such sample at once. Any grid therefore costs one or two
propagators and O(log n) interpreted steps, plus one per squaring level
off the lattice, whatever its length. The propagation never uses the
closed forms, so it is an independent check on them.

Each array is checked once, where it is made: _validate_times checks and
copies the sample times, _populations checks every level's populations
and evolve_lindblad the coherence. The traces an evolver returns share
that read-only copy of the times, which is also EvolutionResult.times,
and are not copied or checked again.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .core import (AngularRate, TimeTrace, ValidationError, _check_finite_values,
                   rate_value)


class IntegrationError(ValidationError):
    """Raised when a propagated population goes significantly negative."""


_LABELS_DEFAULT = ("g", "x", "y")
_LABELS_SINK = ("g", "x", "dark")


@dataclass(frozen=True)
class ThreeLevelModel:
    """Drive and dissipation rates of the g/x/y system (all in rad/ns).

    rabi is the on-resonance Rabi frequency of the g-x drive and detuning
    its (signed) detuning; both default to zero drive. When gamma_isc_x
    is nonzero the third level acts as a dark sink fed from |x> and
    gamma_rad_y, gamma_mix_xy, gamma_mix_yx must all be zero.
    """

    gamma_rad_x: AngularRate = AngularRate(0.0)
    gamma_rad_y: AngularRate = AngularRate(0.0)
    gamma_mix_xy: AngularRate = AngularRate(0.0)
    gamma_mix_yx: AngularRate = AngularRate(0.0)
    gamma_t2: AngularRate = AngularRate(0.0)
    gamma_isc_x: AngularRate = AngularRate(0.0)
    rabi: AngularRate = AngularRate(0.0)
    detuning: float = 0.0

    def __post_init__(self):
        for field in fields(self):
            if field.name != "detuning":
                rate = AngularRate(rate_value(getattr(self, field.name)))
                object.__setattr__(self, field.name, rate)
        object.__setattr__(self, "detuning", float(self.detuning))
        if not np.isfinite(self.detuning):
            raise ValidationError("detuning must be finite")
        if self.gamma_isc_x.value > 0.0:
            if (self.gamma_mix_xy.value != 0.0 or self.gamma_mix_yx.value != 0.0
                    or self.gamma_rad_y.value != 0.0):
                raise ValidationError(
                    "with crossing loss enabled the third level is a dark sink: "
                    "gamma_rad_y, gamma_mix_xy and gamma_mix_yx must be zero"
                )

    @property
    def labels(self):
        return _LABELS_SINK if self.gamma_isc_x.value > 0.0 else _LABELS_DEFAULT


@dataclass(frozen=True)
class DensityMatrix3:
    """A validated 3x3 density matrix in the (g, x, y) basis."""

    matrix: np.ndarray

    def __post_init__(self):
        rho = np.array(self.matrix, dtype=complex)
        if rho.shape != (3, 3):
            raise ValidationError("density matrix must be 3x3")
        if not np.isfinite(rho).all():  # both parts of each entry
            raise ValidationError("density matrix must be finite")
        if np.abs(rho - rho.conj().T).max() > 1e-12:
            raise ValidationError("density matrix must be hermitian")
        if abs(rho.trace().real - 1.0) > 1e-9:
            raise ValidationError("density matrix trace must be 1")
        diag = rho.diagonal().real
        if (diag < -1e-9).any() or (diag > 1.0 + 1e-9).any():
            raise ValidationError("populations must lie in [0, 1]")
        rho.setflags(write=False)
        object.__setattr__(self, "matrix", rho)

    @classmethod
    def pure(cls, level):
        """Pure state in level 0, 1 or 2 (an integer, not a bool) or label
        'g'/'x'/'y'/'dark'; anything else raises ValidationError."""
        if isinstance(level, str):
            index = {"g": 0, "x": 1, "y": 2, "dark": 2}.get(level)
        elif (isinstance(level, numbers.Integral) and not isinstance(level, bool)
                and 0 <= level <= 2):
            index = int(level)
        else:
            index = None
        if index is None:
            raise ValidationError(
                f"level must be 0, 1, 2 or a label 'g', 'x', 'y' or 'dark', "
                f"got {level!r}")
        rho = np.zeros((3, 3), dtype=complex)
        rho[index, index] = 1.0
        return cls(rho)

    @classmethod
    def from_populations(cls, p_g, p_x, p_y):
        return cls(np.diag([p_g, p_x, p_y]).astype(complex))


@dataclass(frozen=True)
class EvolutionResult:
    """Populations per level and the g-x coherence magnitude over time."""

    times: np.ndarray
    populations: dict
    coherence: TimeTrace


def _validate_times(times):
    """The sample times as one float64 copy, checked: a nonempty 1-d array,
    finite, starting at or after 0 and strictly increasing (refused in
    that order). The copy is shared by the propagation, every trace of the
    result, which marks it read-only, and EvolutionResult.times."""
    times = np.array(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValidationError("times must be a nonempty 1-d array")
    if not np.isfinite(times).all():
        raise ValidationError("times must be finite")
    if times[0] < 0.0:
        raise ValidationError("times must start at or after 0")
    if not (times[1:] > times[:-1]).all():
        raise ValidationError("times must be strictly increasing")
    return times


# largest |r| ||M||_1 that _propagate moves by a Taylor series
_TAYLOR_REACH = 2.0**-10


def _propagator(matrix, h, norm1):
    """The squaring chain [exp((h/2^s) M), ..., exp((h/2) M), exp(hM)]:
    its first entry by _taylor, with s the fewest squarings that bring
    h ||M||_1 / 2^s below 1, where at most 18 terms, falling factorially,
    keep it within a few ulp; each later entry the square of the one
    before."""
    reach = float(h) * norm1
    if not math.isfinite(reach):
        raise ValidationError("t ||M||_1 overflows: times too long for the rates")
    squarings = max(0, math.frexp(reach)[1])
    identity = np.eye(len(matrix), dtype=matrix.dtype)
    chain = [_taylor(matrix, math.ldexp(h, -squarings), identity, norm1).T]
    for _ in range(squarings):
        chain.append(chain[-1] @ chain[-1])
    return chain


def _lattice(start, step, count):
    """The states step^k start for k < count, one row each, by blocked
    doubling: rows [s, 2s) are step^s times rows [0, s), with step^s by
    squaring, so ceil(log2(count)) block products fill the lattice."""
    states = np.empty((count, len(start)), dtype=step.dtype)
    states[0] = start
    power = step
    filled = 1
    while filled < count:
        block = min(filled, count - filled)
        states[filled:filled + block] = states[:block] @ power.T
        filled += block
        if filled < count:
            power = power @ power
    return states


def _taylor(matrix, rest, states, norm1):
    """exp(r_i M) applied to row i of states by its Taylor series, where
    rest is one r for every row or a column of one r_i per row; summed
    until the next term is below 2^-56 of the state for the largest
    |r_i| ||M||_1 (a handful of terms at _TAYLOR_REACH, one or two for the
    last-bit offsets of an arange grid, 18 at norm 1)."""
    reach = float(np.max(np.abs(rest))) * norm1
    total = states.copy()
    term = states
    order, bound = 0, 1.0
    while bound * reach / (order + 1) > 2.0**-56:
        order += 1
        bound *= reach / order
        term = term @ matrix.T
        term *= rest / order
        total += term
    return total


def _propagate(matrix, y0, times):
    """States exp(t_i M) y0 at each sample time, read off a lattice.

    The lattice starts at y(t_0) = exp(t_0 M) y0 and steps by delta, the
    most common sample spacing, but at least span/(2n), so it never holds
    more than 2n + 1 states. Sample i is lattice state k_i moved on by its
    remainder r_i = t_i - t_0 - k_i delta, k_i = rint((t_i - t_0)/delta).
    Where |r_i| ||M||_1 exceeds _TAYLOR_REACH, k_i is rounded down instead
    (r_i >= 0), because stepping back through a dissipative generator
    amplifies its decayed modes. Every sample off the lattice then moves
    the same way: for each binary digit delta/2^j, j = 1..s, of its
    remainder, by the entry exp((delta/2^j) M) of the step's squaring
    chain (one masked product per level), and then by one Taylor series
    for what is left, under delta/2^s. A remainder within _TAYLOR_REACH
    takes no digit, since delta ||M||_1 / 2^s >= 1/2, so it takes the
    series alone. A call thus builds at most two propagators, the step's
    and the start's, whatever the grid. A grid whose gaps all equal the
    first takes that gap as delta without counting spacings, and a grid
    with no remainder (every t_i - t_0 a multiple of delta, as in an arange
    of a step exact in binary) is the lattice rows k_i as they are.
    """
    norm1 = float(np.abs(matrix).sum(axis=0).max())
    start = np.array(y0, dtype=matrix.dtype)
    if times[0] > 0.0:
        start = _propagator(matrix, times[0], norm1)[-1] @ start
    if len(times) == 1:
        return start[np.newaxis]
    elapsed = times - times[0]
    gaps = np.diff(times)
    if (gaps == gaps[0]).all():
        delta = gaps[0]
    else:
        spacings, counts = np.unique(gaps, return_counts=True)
        delta = spacings[np.argmax(counts)]
    delta = max(delta, elapsed[-1] / (2 * len(times)))
    steps = np.rint(elapsed / delta)
    rest = elapsed - steps * delta
    off_lattice = rest.any()
    if off_lattice:
        far = np.abs(rest) * norm1 > _TAYLOR_REACH
        steps[far] = np.floor(elapsed[far] / delta)
        rest[far] = elapsed[far] - steps[far] * delta
    steps = steps.astype(np.intp)
    chain = _propagator(matrix, delta, norm1)
    states = _lattice(start, chain[-1], int(steps.max()) + 1)[steps]
    if not off_lattice:
        return states
    for j, power in enumerate(chain[-2::-1], 1):
        digit = rest >= math.ldexp(delta, -j)
        states[digit] = states[digit] @ power.T
        # delta/2^j <= r < 2 delta/2^j here, so this is exact (Sterbenz)
        rest[digit] -= math.ldexp(delta, -j)
    moved = rest != 0.0
    states[moved] = _taylor(matrix, rest[moved, np.newaxis], states[moved], norm1)
    return states


def _unit_generator(ham=None, jump=None):
    """The 9x9 generator, on the row-stacked density matrix, of the
    Hamiltonian ham or of the Lindblad dissipator of jump at unit rate."""
    eye = np.eye(3)
    # row-stacked vec: vec(A rho B) = (A kron B^T) vec(rho)
    if ham is not None:
        return -1j * (np.kron(ham, eye) - np.kron(eye, ham.T))
    jj = jump.T @ jump
    return np.kron(jump, jump) - 0.5 * (np.kron(jj, eye) + np.kron(eye, jj.T))


def _unit(i, j):
    out = np.zeros((3, 3))
    out[i, j] = 1.0
    return out


# d(generator)/d(field) for each field of ThreeLevelModel: the generator is
# their sum weighted by the field values, and the jumps are real
_GENERATORS = {
    "gamma_rad_x": _unit_generator(jump=_unit(0, 1)),
    "gamma_rad_y": _unit_generator(jump=_unit(0, 2)),
    "gamma_mix_xy": _unit_generator(jump=_unit(2, 1)),
    "gamma_mix_yx": _unit_generator(jump=_unit(1, 2)),
    "gamma_t2": 0.5 * _unit_generator(jump=_unit(1, 1) - _unit(0, 0)),
    "gamma_isc_x": _unit_generator(jump=_unit(2, 1)),
    "rabi": _unit_generator(ham=0.5 * (_unit(0, 1) + _unit(1, 0))),
    "detuning": _unit_generator(ham=-_unit(1, 1)),
}
_GENERATOR_TABLE = np.stack([g.reshape(9 * 9) for g in _GENERATORS.values()])


def _lindblad_superoperator(model):
    """The 9x9 generator acting on the row-stacked density matrix."""
    theta = [rate_value(getattr(model, name)) for name in _GENERATORS]
    return (np.array(theta) @ _GENERATOR_TABLE).reshape(9, 9)


def _populations(times, columns, labels):
    """The columns of populations as one TimeTrace per label, clipped at 0.

    Label by label, a column below -1e-9 is an IntegrationError and one
    holding a nan or an inf a ValidationError. The traces share times
    (checked by _validate_times) and the rows of one read-only clipped
    array.
    """
    below = columns.min(axis=0) < -1e-9  # a nan minimum is not below
    for column, is_below in zip(columns.T, below):
        if is_below:
            raise IntegrationError("population went significantly negative")
        _check_finite_values(column)
    rows = np.clip(columns.T, 0.0, None, order="C")
    rows.setflags(write=False)
    return {label: TimeTrace._made(times, row) for label, row in zip(labels, rows)}


def evolve_lindblad(model, rho0, times):
    """Evolve the three-level master equation and report populations.

    Parameters
    ----------
    model : ThreeLevelModel
    rho0 : DensityMatrix3 or 3x3 array
    times : array of sample times in ns, strictly increasing, >= 0

    Returns
    -------
    EvolutionResult with one population TimeTrace per level label and a
    TimeTrace of the g-x coherence magnitude.
    """
    times = _validate_times(times)
    if not isinstance(rho0, DensityMatrix3):
        rho0 = DensityMatrix3(rho0)
    gen = _lindblad_superoperator(model)
    y0 = rho0.matrix.reshape(9)
    states = _propagate(gen, y0, times)
    rho_t = states.reshape(len(times), 3, 3)
    populations = _populations(times, np.diagonal(rho_t, axis1=1, axis2=2).real,
                               model.labels)
    coherence = np.abs(rho_t[:, 0, 1])
    _check_finite_values(coherence)
    return EvolutionResult(times=times, populations=populations,
                           coherence=TimeTrace._made(times, coherence))


@dataclass(frozen=True)
class RateMatrixModel:
    """A classical rate-equation generator dp/dt = M p.

    Off-diagonal entries are transfer rates (>= 0); loss channels sit on
    the diagonal, so every column sums to <= 0.
    """

    matrix: np.ndarray
    labels: tuple = ()

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("rate matrix must be square")
        if not np.isfinite(m).all():
            raise ValidationError("rate matrix must be finite")
        off = m - np.diag(m.diagonal())
        if (off < -1e-12).any():
            raise ValidationError("off-diagonal transfer rates must be >= 0")
        if (m.sum(axis=0) > 1e-9).any():
            raise ValidationError("columns must sum to <= 0 (no probability gain)")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        labels = tuple(self.labels) if self.labels else tuple(
            f"s{i}" for i in range(m.shape[0])
        )
        if len(labels) != m.shape[0]:
            raise ValidationError("one label per level required")
        object.__setattr__(self, "labels", labels)

    @property
    def n(self):
        return self.matrix.shape[0]


def build_a12_model(gamma_rad, gamma_mix, gamma_isc):
    """Two-branch model: shared radiative decay, symmetric mixing, and
    crossing loss from the first branch only."""
    gr = rate_value(gamma_rad)
    gm = rate_value(gamma_mix)
    gi = rate_value(gamma_isc)
    matrix = np.array([
        [-(gr + gi + gm), gm],
        [gm, -(gr + gm)],
    ])
    return RateMatrixModel(matrix, labels=("A1", "A2"))


def evolve_rates(model, p0, times):
    """Propagate dp/dt = M p and return one population TimeTrace per level."""
    times = _validate_times(times)
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (model.n,):
        raise ValidationError(f"p0 must have shape ({model.n},)")
    if not np.isfinite(p0).all() or (p0 < 0).any():
        raise ValidationError("initial populations must be finite and >= 0")
    return _populations(times, _propagate(model.matrix, p0, times), model.labels)
