#!/usr/bin/env python3
"""Decay rate, interaction range, and the continuum approximation.

The force falls off as exp(-Gamma R) with Gamma = ln(1/q) set purely by the
band parameter a.  Near the band edge (a -> -1) the range Rc = 1/Gamma
diverges and a continuum description with decay constant
b = sqrt((omega - 2J - eps0)/J) takes over; deep below the band the lattice
remembers its spacing and the two rates part ways.
"""

from chaincp import SymmetricSystem, continuum_decay_constant, decay_profile


def main():
    print("lattice decay rate vs continuum decay constant (delta = -1)")
    print("     a        J       Gamma        b       rel gap     Rc")
    step = (0.98 - 0.30) / 8
    for a in [-0.98 + i * step for i in range(8)] + [-0.30]:
        J = -a / 2.0
        sys_ = SymmetricSystem(delta=-1.0, J=J, lam=0.01, N=200)
        prof = decay_profile(sys_)
        b = continuum_decay_constant(sys_)
        gap = abs(b - prof.gamma) / prof.gamma
        print("  {:+.3f}   {:.3f}   {:.5f}   {:.5f}   {:6.2%}   {:7.3f}".format(
            a, J, prof.gamma, b, gap, prof.rc))

    print("\nthe continuum b tracks Gamma to a percent near the edge and")
    print("overshoots by tens of percent once the level sits deep below the")
    print("band; the edge distance over 4J is the small parameter.")

    print("\ninteraction range near the edge:")
    for a in (-0.9, -0.99, -0.999):
        sys_ = SymmetricSystem(delta=-1.0, J=-a / 2.0, lam=0.001, N=200)
        print("  a = {:+.3f}: Rc = {:8.2f} sites".format(a, decay_profile(sys_).rc))


if __name__ == "__main__":
    main()
