#!/usr/bin/env python3
"""Three independent routes to the same interaction energy.

The closed form is only trustworthy because two estimators with unrelated
error budgets land on it: an arbitrary-precision momentum integral (the
infinite-chain limit, exact to quadrature tolerance) and the exact ground
energy of the full single-electron problem, the root of a secular equation
on the finite ring in real space (finite chain, exact in the coupling).  The integral is
a brutal cancellation at large R, nine orders between integrand scale and
answer by R = 20, which is why it runs in extended precision rather than
float64.
"""

from chaincp import SymmetricSystem, cp_energy, cp_energy_ed, cp_energy_quadrature


def main():
    sys_ = SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, N=400)
    print("closed form vs quadrature vs finite-ring secular equation")
    print("(delta = -1, J = 0.3, lambda = 0.01, N = 400)\n")
    print("   R     closed          quadrature     quad rel     ED             ED rel")
    # each oracle sweeps R = 1..20 in one call: one grid, one single-impurity solve
    separations = range(1, 21)
    quads = cp_energy_quadrature(sys_, separations)
    eds = cp_energy_ed(sys_, separations)
    for r in (1, 2, 3, 5, 8, 12, 20):
        closed = cp_energy(sys_, r)
        quad, ed = quads[r - 1], eds[r - 1]
        print("  {:2d}   {: .6e}   {: .6e}   {:.1e}   {: .6e}   {:.1e}".format(
            r, closed, quad, abs(quad - closed) / abs(closed),
            ed, abs(ed - closed) / abs(closed)))

    print("\nquadrature agrees to ~1e-15 at every R; the secular equation")
    print("carries its honest fourth-order systematics at the 1e-3 level.  Neither")
    print("shares algebra with the closed form: the quadrature works in momentum")
    print("space, the secular equation in real space, solving for the shift of")
    print("the even level from the single-impurity level directly.")


if __name__ == "__main__":
    main()
