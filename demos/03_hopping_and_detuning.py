#!/usr/bin/env python3
"""How the force responds to the band width and the level depth.

Two knobs control the interaction strength: the hopping J (band width) and
the detuning delta of the impurity level below the band centre.  Widening
the band strengthens the force; burying the level deeper weakens it.  Both
trends are strict, and both follow from the same closed form through the
band parameter a = 2J/delta.
"""

from chaincp import SymmetricSystem, ecp_force


def main():
    print("force at R = 1 while the hopping grows (delta = -1, lambda = 0.01)")
    print("    J        a         f(1)")
    step = (0.45 - 0.05) / 8
    for J in [0.05 + i * step for i in range(8)] + [0.45]:
        sys_ = SymmetricSystem(delta=-1.0, J=J, lam=0.01, N=200)
        print("  {:.3f}   {:+.3f}   {: .6e}".format(J, sys_.a, ecp_force(sys_, 1)))

    print("\nforce at R = 1 while the level sinks (J = 0.6, lambda = 0.01)")
    print("   delta      a         f(1)")
    for delta in (-1.5, -2.0, -2.5, -3.0, -4.0):
        sys_ = SymmetricSystem(delta=delta, J=0.6, lam=0.01, N=200)
        print("  {:+.2f}    {:+.3f}   {: .6e}".format(delta, sys_.a, ecp_force(sys_, 1)))

    print("\nsame physics both ways: what matters is how close the level sits")
    print("to the band edge, i.e. how close |a| comes to 1.")


if __name__ == "__main__":
    main()
