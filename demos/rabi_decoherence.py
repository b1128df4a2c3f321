"""Extract the orbital mixing rate from driven-oscillation damping.

Simulates resonantly driven fluorescence with the full master equation
at several temperatures, fits the damped-oscillation form to each trace,
and converts the fitted envelope time into the decoherence rate beyond
radiative decay. Those rates are then fitted with the empirical
a (T - T0)^5 + c law and mapped back to the orbital-phonon coupling.

Run: python3 demos/rabi_decoherence.py
"""

import numpy as np

from nvphonon import dynamics, phonon
from nvphonon.core import TimeTrace, rate_from_linear_mhz, to_linear_mhz
from nvphonon.estimate import fit_rabi_trace, fit_t5

GAMMA_RAD = rate_from_linear_mhz(13.2)
OMEGA = rate_from_linear_mhz(80.0)


def simulate_trace(gamma_mix):
    model = dynamics.ThreeLevelModel(rabi=OMEGA,
                                     gamma_rad_x=GAMMA_RAD,
                                     gamma_rad_y=GAMMA_RAD,
                                     gamma_mix_xy=gamma_mix,
                                     gamma_mix_yx=gamma_mix)
    times = np.arange(0.0, 60.0, 0.05)
    result = dynamics.evolve_lindblad(model, dynamics.DensityMatrix3.pure("g"),
                                      times)
    fluor = result.populations["x"].values + result.populations["y"].values
    return TimeTrace(times, fluor)


def main():
    temperatures = [5.0, 8.0, 11.0, 14.0, 17.0, 20.0]
    print("driven-oscillation damping vs temperature")
    print("cw drive 80 MHz (2pi), radiative rate 13.2 MHz (2pi)\n")
    print(f"{'T (K)':>6} {'mix in (MHz)':>13} {'tau fit (ns)':>13} "
          f"{'mix out (MHz)':>14}")
    points = []
    # nominal per-point uncertainty for the law fit; the traces are
    # noiseless so only the relative weighting matters
    sigma = rate_from_linear_mhz(0.2)
    for temp in temperatures:
        gm = phonon.MIXING_FIT_DEFAULT.clamped(temp)
        fit = fit_rabi_trace(simulate_trace(gm), gamma_rad=GAMMA_RAD)
        gamma_add = fit.derived["gamma_add"]
        print(f"{temp:6.1f} {gm.linear_mhz:13.3f} "
              f"{fit['tau_rabi']:13.2f} {gamma_add.linear_mhz:14.3f}")
        points.append((temp, gamma_add, sigma))
    law = fit_t5(points)
    a_mhz = to_linear_mhz(law["a"])
    c_mhz = to_linear_mhz(law["c"])
    print("\nfitted a (T - T0)^5 + c law:")
    print(f"  a  = {a_mhz:.3e} MHz/K^5   (injected 2.0e-05)")
    print(f"  T0 = {law['t0']:.2f} K          (injected 4.40)")
    print(f"  c  = {c_mhz:.4f} MHz       (injected 0.0800)")
    eta = phonon.eta_from_coefficient(law["a"])
    print(f"\nimplied orbital-phonon coupling eta = "
          f"{eta.linear_mhz:.1f} MHz/meV^3 (2pi units; injected 44.0)")
    print("\nthe single-envelope fit form absorbs part of the slowly decaying")
    print("background, so the per-point rates run high where mixing is fast;")
    print("the law fit averages that out and lands within a few percent")


if __name__ == "__main__":
    main()
