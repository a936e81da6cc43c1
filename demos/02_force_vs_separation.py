#!/usr/bin/env python3
"""The Casimir-Polder force between the two impurities.

The separation-dependent part of the ground-state energy decays like q**R
with q = (sqrt(1 - a**2) - 1)/a, and the discrete force f(R) =
-(E(R+1) - E(R)) is negative: the impurities attract.  Increasing the
hopping widens the band, moves the band edge closer to the impurity level,
and makes the interaction both stronger and longer-ranged.
"""

from chaincp import SymmetricSystem, force_curve


def main():
    print("force vs separation at delta = -1, lambda = 0.01\n")
    for J in (0.3, 0.4):
        sys_ = SymmetricSystem(delta=-1.0, J=J, lam=0.01, N=200)
        print("J = {:.2f}  (a = {:+.2f})".format(J, sys_.a))
        print("   R      E_cp(R)         f(R)          |f| ratio")
        prev = None
        for rec in force_curve(sys_, range(1, 11)):
            ratio = "" if prev is None else "{:.4f}".format(abs(rec.force) / abs(prev))
            print("  {:2d}   {: .6e}   {: .6e}   {}".format(
                rec.R, rec.energy, rec.force, ratio))
            prev = rec.force
        print()

    print("the |f| ratio column is constant: a pure exponential in R, with")
    print("the wider band (J = 0.4) decaying more slowly and pulling harder.")


if __name__ == "__main__":
    main()
