#!/usr/bin/env python3
"""Temperature switches the force off.

One electron, Boltzmann-distributed over the doublet and the band.  At
T = 0 it occupies the even bound state and the full static force acts.
Warming it first mixes in the odd partner, whose interaction energy has
the opposite sign, and then spills weight into the band, which does not
care about R at all; both effects bleed the force away.  Longer chains
offer more band states and drain the doublet faster at the same T.
"""

import math

from chaincp import SymmetricSystem, ecp_force, thermal_ensemble, thermal_force, thermal_table


def main():
    sys_ = SymmetricSystem(delta=-1.0, J=0.3, lam=0.1, N=100)

    print("where the electron sits (N = 100, R = 1):")
    print("    T       even      odd       band")
    for temp in (0.0, 0.01, 0.05, 0.1, 0.5, 1.0):
        w = thermal_ensemble(sys_, temp, 1).weights
        print("  {:5.2f}   {:.5f}   {:.5f}   {:.5f}".format(
            temp, w[0], w[1], math.fsum(w[2:])))

    print("\nthermal force vs separation (lambda = 0.1):")
    header = "   R    f(T=0)          f(T=0.1)        f(T=1)"
    for n in (100, 400):
        print("\nN = {}".format(n))
        print(header)
        sys_n = SymmetricSystem(delta=-1.0, J=0.3, lam=0.1, N=n)
        # one table: the band streamed once per T, then each (T, R) row in O(1)
        temps, seps = (0.0, 0.1, 1.0), range(1, 9)
        force = {(row.T, row.R): row.force for row in thermal_table(sys_n, temps, seps)}
        for r in seps:
            print("  {:2d}   {: .6e}   {: .6e}   {: .6e}".format(
                r, *(force[t, r] for t in temps)))

    cold = thermal_force(sys_, 1e-9, 3)
    static = ecp_force(sys_, 3)
    print("\ncold limit check at R = 3: f(T=1e-9) = {: .6e}".format(cold))
    print("                            f_static  = {: .6e}".format(static))
    print("relative gap {:.1e}; T -> 0 hands back the ground-state force."
          .format(abs(cold - static) / abs(static)))
    print("\nnote the T = 0 column does not depend on N, while at T > 0 the")
    print("longer chain weakens the force: band entropy, not energetics.")


if __name__ == "__main__":
    main()
