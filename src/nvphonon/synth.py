"""Synthetic photon-count experiments.

Counts are drawn per time bin from a Poisson distribution whose mean is
the (optionally pulse-edge-smoothed) model intensity, normalized so the
whole trace is expected to hold `total_counts` counts, plus a flat
background. The random stream is numpy's default PCG64 generator seeded
from the spec, so identical specs produce bit-identical traces.

Each model is built by a `_build_<model>` function whose keyword
arguments are the model's parameters: their names and defaults are
declared there once, and a parameter without a default is required.
`model_intensity` refuses unknown or missing names from those signatures.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import closedform, dynamics
from .core import TimeTrace, ValidationError, rate_value


class ModelError(ValidationError):
    """Unknown forward model name or inconsistent model parameters."""


# Most samples a time grid, sweep grid or synthetic histogram may hold (80 MB
# per float64 column); larger requests are refused unallocated.
MAX_SAMPLES = 10_000_000
# Most multiply-adds the pulse-edge convolution of a synthetic histogram may
# cost. np.convolve's work grows as samples x kernel taps, so a wide edge over
# fine bins is slow well inside MAX_SAMPLES (a 3000 ns edge on 0.25 ns bins,
# 1.7e9 terms, took 1.3 s on a 2-CPU host); 1e9 still admits 1 ps bins
# under a 2 ns edge (8.6e8).
MAX_CONVOLUTION_TERMS = 1_000_000_000

# The largest Poisson mean numpy draws from; a larger one is refused.
_POISSON_MEAN_MAX = (np.iinfo(np.int64).max
                     - 10.0 * np.sqrt(np.iinfo(np.int64).max))


def _build_constant():
    return lambda t: np.ones_like(np.asarray(t, dtype=float))


def _build_exponential(*, rate):
    rate = rate_value(rate)
    return lambda t: np.exp(-rate * np.asarray(t, dtype=float))


def _build_depolarization(*, gamma_rad, gamma_mix, channel="bright",
                          amplitude=1.0, epsilon=0.0, t0=0.0):
    gr = rate_value(gamma_rad)
    gm = rate_value(gamma_mix)
    if channel not in ("bright", "dark"):
        raise ModelError("depolarization channel must be 'bright' or 'dark'")
    amplitude = float(amplitude)
    epsilon = float(epsilon)
    t0 = float(t0)

    def intensity(t):
        t = np.asarray(t, dtype=float)
        bright, dark = closedform.observed_polarized_intensity(
            amplitude, epsilon, t0, gr, gm, t)
        chosen = bright if channel == "bright" else dark
        # no light before the excitation pulse; the closed form
        # back-extrapolates there
        return np.where(t < t0, 0.0, chosen)

    return intensity


def _build_a12(*, gamma_rad, gamma_mix, gamma_isc, branch):
    gr = rate_value(gamma_rad)
    gm = rate_value(gamma_mix)
    gi = rate_value(gamma_isc)
    if branch not in ("A1", "A2"):
        raise ModelError("a12 branch must be 'A1' or 'A2'")
    return lambda t: closedform.fluorescence_a12(gr, gm, gi, branch,
                                                 np.asarray(t, dtype=float))


def _build_rabi(*, amplitude=1.0, omega, phi=0.0, t0=0.0, tau_rabi,
                gamma_isc_x=0.0):
    amplitude = float(amplitude)
    omega = rate_value(omega)
    phi = float(phi)
    t0 = float(t0)
    tau_rabi = float(tau_rabi)
    gi = rate_value(gamma_isc_x)
    return lambda t: closedform.rabi_fit_model(
        np.asarray(t, dtype=float), amplitude, omega, phi, t0, tau_rabi, gi)


def _build_lindblad(*, gamma_rad_x=0.0, gamma_rad_y=0.0, gamma_mix_xy=0.0,
                    gamma_mix_yx=0.0, gamma_t2=0.0, gamma_isc_x=0.0, rabi=0.0,
                    detuning=0.0, observable="fluorescence"):
    model = dynamics.ThreeLevelModel(
        gamma_rad_x=gamma_rad_x, gamma_rad_y=gamma_rad_y,
        gamma_mix_xy=gamma_mix_xy, gamma_mix_yx=gamma_mix_yx,
        gamma_t2=gamma_t2, gamma_isc_x=gamma_isc_x, rabi=rabi,
        detuning=detuning)
    if observable not in ("fluorescence", "x", "y", "g"):
        raise ModelError("lindblad observable must be fluorescence, x, y or g")
    rho0 = dynamics.DensityMatrix3.pure("g" if model.rabi.value > 0 else "x")

    def intensity(t):
        t = np.asarray(t, dtype=float)
        result = dynamics.evolve_lindblad(model, rho0, t)
        labels = model.labels
        if observable == "fluorescence":
            out = result.populations[labels[1]].values.copy()
            if model.gamma_isc_x.value == 0.0:
                out = out + result.populations[labels[2]].values
            return out
        key = {"g": labels[0], "x": labels[1], "y": labels[2]}[observable]
        return result.populations[key].values.copy()

    return intensity


_MODEL_BUILDERS = {
    "constant": _build_constant,
    "exponential": _build_exponential,
    "depolarization": _build_depolarization,
    "a12": _build_a12,
    "rabi": _build_rabi,
    "lindblad": _build_lindblad,
}

MODEL_NAMES = tuple(sorted(_MODEL_BUILDERS))

# model -> its parameters, read once from the builder's keyword arguments
_MODEL_PARAMETERS = {name: inspect.signature(build).parameters
                     for name, build in _MODEL_BUILDERS.items()}


def model_intensity(name, params):
    """Build the named noiseless intensity model I(t); I(t < 0) = 0.

    params holds the model's parameters by name: the keyword arguments
    of its builder, those without a default being required.
    """
    if name not in _MODEL_BUILDERS:
        raise ModelError(
            f"unknown model {name!r}; known models: {sorted(_MODEL_BUILDERS)}"
        )
    parameters = _MODEL_PARAMETERS[name]
    unknown = set(params) - set(parameters)
    if unknown:
        raise ModelError(f"unknown model parameters {sorted(unknown)}")
    for key, parameter in parameters.items():
        if parameter.default is parameter.empty and key not in params:
            raise ModelError(f"model parameter {key!r} is required")
    base = _MODEL_BUILDERS[name](**params)

    def intensity(t):
        t = np.asarray(t, dtype=float)
        after = t >= 0.0
        if t.ndim == 1 and t.size and after.all():
            # a grid after the pulse: base gets the samples it would get
            # through the mask, without the copy
            return np.clip(base(t), 0.0, None)
        out = np.zeros_like(t)
        if after.any():
            out[after] = base(t[after])
        return np.clip(out, 0.0, None)

    return intensity


@dataclass(frozen=True)
class ExperimentSpec:
    """Parameters of one synthetic acquisition.

    pulse_edge is the FWHM (ns) of the Gaussian the ideal intensity is
    convolved with to mimic finite excitation pulse edges; 0 disables it.
    total_counts is the expected total over the whole span (background
    excluded); background_rate is the expected background per bin. seed
    seeds numpy's generator, so it is a non-negative integer. A spec whose
    histogram would exceed MAX_SAMPLES samples or MAX_CONVOLUTION_TERMS
    convolution terms is refused.
    """

    model: str
    params: dict = field(default_factory=dict)
    bin_width: float = 0.25
    span: float = 120.0
    total_counts: float = 1_000_000.0
    background_rate: float = 0.0
    pulse_edge: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.bin_width < math.inf and 0 < self.span < math.inf):
            raise ValidationError("bin_width and span must be finite and > 0")
        if self.span < self.bin_width:
            raise ValidationError("span must cover at least one bin")
        if not (0 <= self.total_counts < math.inf
                and 0 <= self.background_rate < math.inf):
            raise ValidationError("counts must be finite and >= 0")
        if not 0 <= self.pulse_edge < math.inf:
            raise ValidationError("pulse_edge must be finite and >= 0")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValidationError(
                f"seed must be a non-negative integer, got {self.seed!r}")
        count = sample_count(self)
        if not count <= MAX_SAMPLES:  # count is a float and may be inf
            raise ValidationError(f"synthetic histogram would hold {count:.3g} "
                                  f"samples (limit {MAX_SAMPLES})")
        terms = convolution_terms(self)
        if not terms <= MAX_CONVOLUTION_TERMS:
            raise ValidationError(
                f"a {self.pulse_edge:g} ns pulse edge would cost {terms:.3g} "
                f"convolution terms (limit {MAX_CONVOLUTION_TERMS:.3g})")


def _bin_centers(spec):
    n_bins = int(round(spec.span / spec.bin_width))
    return (np.arange(n_bins) + 0.5) * spec.bin_width


def _pulse_edge(spec):
    """Sigma of the Gaussian pulse edge (pulse_edge is its FWHM) and the
    bins of padding, 4 sigma, on each side (a float, inf for an absurd
    spec)."""
    sigma = spec.pulse_edge / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    return sigma, float(np.ceil(4.0 * sigma / spec.bin_width))


def sample_count(spec):
    """Samples of the model intensity that `generate` evaluates: the bins
    plus the pulse-edge padding on both sides. A float, so a size check
    can refuse a spec before anything is built."""
    return spec.span / spec.bin_width + 2.0 * _pulse_edge(spec)[1]


def convolution_terms(spec):
    """Multiply-adds of the pulse-edge convolution in `generate`: the
    samples times the kernel's taps (2 pad + 1), 0 without an edge. A
    float, like sample_count, so a work check can refuse a spec first."""
    if spec.pulse_edge <= 0.0:
        return 0.0
    return sample_count(spec) * (2.0 * _pulse_edge(spec)[1] + 1.0)


def _expected_signal(spec):
    intensity = model_intensity(spec.model, spec.params)
    centers = _bin_centers(spec)
    if spec.pulse_edge > 0.0:
        sigma, pad = _pulse_edge(spec)
        pad = int(pad)
        offsets = np.arange(-pad, pad + 1) * spec.bin_width
        kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
        kernel /= kernel.sum()
        extended = np.concatenate([
            centers[0] + offsets[:pad],
            centers,
            centers[-1] + offsets[pad + 1:],
        ])
        smooth = np.convolve(intensity(extended), kernel, mode="same")
        values = smooth[pad:len(smooth) - pad]
    else:
        values = intensity(centers)
    values = np.clip(values, 0.0, None)
    total = values.sum()
    if spec.total_counts > 0 and total <= 0:
        raise ModelError("model intensity vanishes over the whole span")
    if total > 0:
        values = values / total * spec.total_counts
    if not values.max() + spec.background_rate <= _POISSON_MEAN_MAX:
        raise ValidationError(
            f"a bin would expect {values.max() + spec.background_rate:.3g} "
            f"counts (limit {_POISSON_MEAN_MAX:.3g})")
    return centers, values


def generate(spec):
    """Draw one synthetic count trace. Identical specs give identical bits."""
    centers, expected = _expected_signal(spec)
    rng = np.random.default_rng(spec.seed)
    counts = rng.poisson(expected + spec.background_rate)
    return TimeTrace(centers, counts.astype(np.int64, copy=False))


def generate_background_pair(spec):
    """Draw a (signal+background, background-only) pair of traces.

    Both traces come from one generator seeded by the spec, so the pair
    is reproducible as a unit.
    """
    centers, expected = _expected_signal(spec)
    rng = np.random.default_rng(spec.seed)
    signal = rng.poisson(expected + spec.background_rate)
    background = rng.poisson(np.full_like(expected, spec.background_rate))
    return (
        TimeTrace(centers, signal.astype(np.int64)),
        TimeTrace(centers, background.astype(np.int64)),
    )


def subtract_background(signal, background):
    """Bin-wise background subtraction, clamped at zero.

    Returns the subtracted trace; differences are clamped at 0 and the
    bins left sitting at that floor (difference <= 0) are counted in the
    trace's clamped_bins field. The per-bin uncertainty is
    sqrt(signal + background) with a floor of 1.
    """
    if len(signal) != len(background) or np.max(
            np.abs(signal.times - background.times)) > 1e-9:
        raise ValidationError("signal and background binning do not match")
    s = np.asarray(signal.values, dtype=float)
    b = np.asarray(background.values, dtype=float)
    # an overflow to inf is the constructor's to refuse, not numpy's to warn of
    with np.errstate(over="ignore"):
        diff = s - b
        total = s + b
    clamped = int(np.count_nonzero(diff <= 0.0))
    sigma = np.sqrt(np.maximum(total, 1.0))
    return TimeTrace(
        signal.times,
        np.clip(diff, 0.0, None),
        uncertainty=sigma,
        temperature=signal.temperature,
        channel=signal.channel,
        background_subtracted=True,
        clamped_bins=clamped,
    )


def reject_before(trace, t_reject):
    """Drop the bins whose centers fall before t_reject (pulse rejection)."""
    mask = trace.times >= float(t_reject)
    if not np.any(mask):
        raise ValidationError("rejection window removes every bin")
    sigma = trace.uncertainty[mask] if trace.uncertainty is not None else None
    return TimeTrace(
        trace.times[mask], trace.values[mask], uncertainty=sigma,
        temperature=trace.temperature, channel=trace.channel,
        background_subtracted=trace.background_subtracted,
        clamped_bins=trace.clamped_bins,
    )
