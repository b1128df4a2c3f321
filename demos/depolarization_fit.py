"""Joint fit of polarized fluorescence at two temperatures.

Synthesizes photon-count traces for both polarization channels at a cold
and a warm operating point, where orbital mixing is slow and fast
respectively, then fits the shared amplitude, the excitation-pulse time
origin, and the polarization leakage in one weighted least-squares pass
over all four traces.

Run: python3 demos/depolarization_fit.py
"""

import numpy as np

from nvphonon import closedform
from nvphonon.core import TimeTrace, rate_from_linear_mhz
from nvphonon.estimate import fit_depolarization

GAMMA_RAD = rate_from_linear_mhz(13.2)
GM_COLD = rate_from_linear_mhz(0.08)
GM_WARM = rate_from_linear_mhz(18.5)

TRUE_AMPLITUDE = 0.90
TRUE_T0 = -3.6
TRUE_EPSILON = 0.10

# expected peak-bin counts; all four traces share this normalization so
# the joint amplitude is meaningful
COUNT_SCALE = 2.0e4


def main():
    times = np.arange(480) * 0.25 + 0.125
    rng = np.random.default_rng(404)
    traces = []
    print("synthetic polarized traces (0.25 ns bins over 120 ns):")
    for temp, gm in ((5.0, GM_COLD), (20.0, GM_WARM)):
        bright, dark = closedform.observed_polarized_intensity(
            TRUE_AMPLITUDE, TRUE_EPSILON, TRUE_T0, GAMMA_RAD, gm, times)
        for channel, curve in (("H", bright), ("V", dark)):
            counts = rng.poisson(COUNT_SCALE * curve)
            traces.append(TimeTrace(times, counts, temperature=temp,
                                    channel=channel))
            print(f"  {temp:4.0f} K channel {channel}: "
                  f"{int(counts.sum()):>8d} photons")

    result = fit_depolarization(traces, GM_COLD, GM_WARM, GAMMA_RAD,
                                weights="poisson")
    ci = result.ci95
    amp = result["amplitude"] / COUNT_SCALE
    amp_ci = tuple(v / COUNT_SCALE for v in ci["amplitude"])
    print(f"\nbright channel identified from the data: "
          f"{result.derived['bright_channel']}")
    print("joint fit (95% intervals):")
    print(f"  amplitude = {amp:.4f}  [{amp_ci[0]:.4f}, {amp_ci[1]:.4f}]"
          f"   truth {TRUE_AMPLITUDE}")
    print(f"  t0        = {result['t0']:.3f} ns  "
          f"[{ci['t0'][0]:.3f}, {ci['t0'][1]:.3f}]   truth {TRUE_T0}")
    print(f"  epsilon   = {result['epsilon']:.4f}  "
          f"[{ci['epsilon'][0]:.4f}, {ci['epsilon'][1]:.4f}]"
          f"   truth {TRUE_EPSILON}")
    print(f"  chi2/dof  = {result.chi2 / result.dof:.3f}  "
          f"(converged: {result.converged})")
    print("\nthe cold channels stay split for the whole window while the")
    print("warm pair collapses onto the common radiative decay within a few")
    print("nanoseconds; the pulse origin is pinned by that contrast")


if __name__ == "__main__":
    main()
