#!/usr/bin/env python3
"""Where the impurity levels sit relative to the band.

A ring of 2N+1 sites carries a cosine band of width 4J centred on the site
energy omega.  Two identical impurity levels placed below the band bottom
hybridise with it weakly; to second order each level is pushed down, and
the pair splits into an even/odd doublet.  Everything later in the package
(forces, decay rates, thermal averages) lives inside that splitting, so
this script just pins down the geography: band edges, the gap, and the two
bound levels from both the finite k-sum and its closed form.
"""

import numpy as np

from chaincp import (
    SymmetricSystem,
    brillouin_modes,
    dispersion,
    symmetric_spectrum_closed,
    symmetric_spectrum_ksum,
    validate_regime,
)


def main():
    sys_ = SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, N=200)

    print("chain: omega = {:.3f}, J = {:.3f}, {} sites".format(
        sys_.omega, sys_.J, sys_.num_sites))
    print("band: [{:.3f}, {:.3f}], width {:.3f}".format(
        sys_.band_bottom, sys_.band_top, 4 * sys_.J))
    print("impurity level eps0 = {:.3f}, gap to band bottom = {:.3f}".format(
        sys_.eps0, sys_.gap))
    print("band parameter a = 2J/delta = {:.3f}".format(sys_.a))

    report = validate_regime(sys_)
    print("coupling/gap ratio = {:.4f} (weak-coupling ok: {})".format(
        report.coupling_ratio, report.weak_coupling))

    print("\ndispersion samples:")
    modes = brillouin_modes(sys_)
    for idx in np.linspace(0, modes.size - 1, 7).astype(int):
        k = modes[idx]
        print("  k = {:+.4f}   Omega_k = {:.6f}".format(k, dispersion(sys_, float(k))))

    R = 1
    print("\nbound doublet below the band (separation R = {}):".format(R))
    # the spectra are offsets from the impurity level; add it back to print
    # the absolute levels next to the band edges
    e_plus, e_minus = (sys_.eps0 + e for e in symmetric_spectrum_closed(sys_, R))
    k_plus, k_minus = (sys_.eps0 + e for e in symmetric_spectrum_ksum(sys_, R))
    print("              closed form        finite k-sum")
    print("  E+ (even)   {:.12f}   {:.12f}".format(e_plus, k_plus))
    print("  E- (odd)    {:.12f}   {:.12f}".format(e_minus, k_minus))
    print("  splitting   {:.3e}       {:.3e}".format(e_minus - e_plus, k_minus - k_plus))
    print("\nboth levels sit below the band bottom {:.3f}; the even one is"
          " lower, and the splitting is the interaction energy scale."
          .format(sys_.band_bottom))


if __name__ == "__main__":
    main()
