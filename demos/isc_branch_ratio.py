"""Phonon-assisted branch ratio scan over the singlet-triplet gap.

The direct crossing rate of the coupled branch is proportional to the
vibrational overlap F at the gap energy; the other branch crosses only
with one-phonon assistance, so the ratio of the two rates follows from
an integral over F weighted by the phonon spectral density. Scanning
candidate gaps and comparing the cutoff-free upper bound of that ratio
with a measured value excludes the low-gap region.

NOTE: the overlap table used here is the package's synthetic stand-in
(a smooth one-phonon progression), not a measured spectral function, so
the boundary printed below illustrates the method rather than any
physical gap determination. Supply a measured table via
OverlapTable.from_csv to run the scan on real data.

Run: python3 demos/isc_branch_ratio.py
"""

import numpy as np

from nvphonon import phonon

MEASURED_RATIO = 0.5
MEASURED_SIGMA = 0.1


def main():
    overlap = phonon.OverlapTable.synthetic_default()
    coupling = phonon.PhononCoupling(eta=phonon.ETA_DEFAULT, cutoff=93.0)
    spin_orbit = phonon.SpinOrbit()

    print("synthetic vibrational overlap, acoustic cutoff 93 meV")
    lam_mhz = spin_orbit.lambda_perp.linear_mhz
    print(f"transverse spin-orbit coupling {lam_mhz / 1e3:.2f} GHz (2pi)\n")

    deltas = np.arange(20.0, 461.0, 20.0)
    scan = phonon.ratio_scan(coupling, overlap, deltas,
                             measured_ratio=MEASURED_RATIO,
                             measured_sigma=MEASURED_SIGMA)
    print(f"{'gap (meV)':>10} {'F (1/meV)':>11} {'Gamma_A1 (MHz)':>15} "
          f"{'ratio':>8} {'no cutoff':>10} {'excluded':>9}")
    for i, delta in enumerate(deltas):
        ga1 = phonon.isc_rate_a1(spin_orbit, overlap, delta)
        flag = "yes" if scan.excluded[i] else ""
        print(f"{delta:10.0f} {overlap.interpolate(delta):11.4e} "
              f"{ga1.linear_mhz:15.2f} {scan.ratios[i]:8.3f} "
              f"{scan.ratios_unbounded[i]:10.3f} {flag:>9}")

    print(f"\nmeasured branch ratio {MEASURED_RATIO} +/- {MEASURED_SIGMA}:")
    print("gaps whose cutoff-free upper bound stays below the measured")
    print("lower bound cannot host the crossing, whatever the cutoff")
    if scan.boundary_delta is not None:
        print(f"excluded region is contiguous from the low-gap end up to "
              f"{scan.boundary_delta:.0f} meV (on the synthetic overlap)")
    else:
        print("no contiguous low-gap exclusion region for these inputs")


if __name__ == "__main__":
    main()
