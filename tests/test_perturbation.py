import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chaincp.errors import RegimeViolation
from chaincp.lattice import SymmetricSystem, brillouin_modes, dispersion
from chaincp.perturbation import (
    band_energies,
    symmetric_spectrum_closed,
    symmetric_spectrum_ksum,
)


def brute_coefficients(sys_, R):
    """Direct complex-sum evaluation of the second-order coefficients.

    Returns the level shift, the band-mediated hopping and the per-mode band
    back-action.  Plain Python floats and cmath, no shared code with the
    implementation under test beyond the system object.  The band is built
    in absolute energies from ``omega``, so the offsets the package computes
    from ``delta`` are checked against a second route.
    """
    ns = 2 * sys_.N + 1
    shift = 0.0
    hop12 = 0.0 + 0.0j
    band = []
    g = sys_.lam / math.sqrt(ns)
    for n in range(-sys_.N, sys_.N + 1):
        k = 2.0 * math.pi * n / ns
        energy = sys_.omega - 2.0 * sys_.J * math.cos(k)
        shift += g * g / (sys_.eps0 - energy)
        hop12 += g * g * cmath.exp(-1j * k * R) / (sys_.eps0 - energy)
        band.append(2.0 * g * g / (energy - sys_.eps0))
    return shift, hop12, np.array(band)


def test_level_shifts_are_negative_below_band():
    # every denominator eps0 - Omega_k is negative there, so both doublet
    # levels sit below the bare level, at negative offsets from it
    sys_ = SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, N=20)
    e_plus, e_minus = symmetric_spectrum_ksum(sys_, 1)
    assert e_plus < 0.0 and e_minus < 0.0
    # and the band is pushed up in compensation
    bare = np.array([dispersion(sys_, k) for k in brillouin_modes(sys_)]) - sys_.eps0
    assert np.all(np.asarray(band_energies(sys_)) > bare)


def with_band_parameter(a):
    """A system whose band parameter ``2 J / delta`` is ``a``, at ``delta = -1``."""
    return SymmetricSystem(delta=-1.0, J=-a / 2.0, lam=0.01, N=10)


def test_geometric_ratio_values():
    assert with_band_parameter(0.0).q == 0.0
    assert with_band_parameter(-0.6).q == pytest.approx(1.0 / 3.0, rel=1e-15, abs=0)
    # matches the textbook form where that form is well conditioned
    for a in (-0.9, -0.5, -0.2):
        naive = (math.sqrt(1.0 - a * a) - 1.0) / a
        assert with_band_parameter(a).q == pytest.approx(naive, rel=1e-14, abs=0)


def test_geometric_ratio_stays_in_unit_interval():
    grid = np.linspace(-0.999, 0.0, 200)
    values = [with_band_parameter(float(a)).q for a in grid]
    assert all(0.0 <= q < 1.0 for q in values)
    # q grows with |a|
    assert all(q1 > q2 for q1, q2 in zip(values, values[1:]) if q2 != 0.0)


@pytest.mark.parametrize("a", [0.5, -1.0, -1.5])
def test_geometric_ratio_domain(a):
    # q exists only for a in (-1, 0]: a level at or inside the band, or a
    # detuning above the band centre, leaves no system to take it from
    J = 0.3
    with pytest.raises(RegimeViolation, match="is not below the band bottom"):
        SymmetricSystem(delta=2.0 * J / a, J=J, lam=0.01, N=10)


def test_closed_spectrum_frozen_values():
    sys_ = SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, N=200)
    # offsets from eps0: lam^2 / (delta sqrt(1 - a^2)) (1 +- q) with q = 1/3
    e_plus, e_minus = symmetric_spectrum_closed(sys_, 1)
    assert e_plus == pytest.approx(-1.6666666666666666e-4, rel=1e-14, abs=0)
    assert e_minus == pytest.approx(-8.333333333333333e-5, rel=1e-14, abs=0)
    assert e_plus < e_minus


def test_closed_spectrum_flat_band_degenerate():
    sys_ = SymmetricSystem(delta=-1.0, J=0.0, lam=0.01, N=10)
    e_plus, e_minus = symmetric_spectrum_closed(sys_, 3)
    assert e_plus == e_minus == pytest.approx(-1e-4, rel=1e-15, abs=0)


def test_closed_spectrum_degenerate_at_large_separation():
    sys_ = SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, N=100)
    e_plus, e_minus = symmetric_spectrum_closed(sys_, 40)
    assert abs(e_plus - e_minus) < 1e-15


@pytest.mark.parametrize("R", [1, 2, 5])
def test_effective_coefficients_match_direct_sum(R):
    # the second-order coefficients behind the k-sum spectrum (level shift,
    # band-mediated hopping, band back-action) against the direct sums: the
    # doublet sits at shift +- |hop12| from eps0, the band at bare + back-action
    sys_ = SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, N=25)
    e_plus, e_minus = symmetric_spectrum_ksum(sys_, R)
    shift, hop12, band_shift = brute_coefficients(sys_, R)
    centre = shift
    split = abs(hop12)
    assert e_plus == pytest.approx(centre - split, rel=1e-13, abs=0)
    assert e_minus == pytest.approx(centre + split, rel=1e-13, abs=0)
    # the odd-in-k part cancels pairwise across +-k
    assert abs(hop12.imag) < 1e-20
    bare = np.array([dispersion(sys_, k) for k in brillouin_modes(sys_)]) - sys_.eps0
    assert_allclose(band_energies(sys_), bare + band_shift, rtol=1e-13)


def test_ksum_spectrum_matches_two_level_diagonalisation():
    # the doublet from the k-sums must sit at shift +- |hop12| from eps0
    sys_ = SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, N=60)
    e_plus, e_minus = symmetric_spectrum_ksum(sys_, 2)
    shift, hop12, _ = brute_coefficients(sys_, 2)
    centre = shift
    split = abs(hop12)
    assert e_plus == pytest.approx(centre - split, rel=1e-13, abs=0)
    assert e_minus == pytest.approx(centre + split, rel=1e-13, abs=0)
    assert len(band_energies(sys_)) == sys_.num_sites


def test_ksum_converges_to_closed_form():
    # ring images die off geometrically, so doubling N must shrink the gap;
    # past N ~ 10 the images drop below double precision, hence tiny chains
    errors = []
    for n in (2, 4, 8):
        sys_ = SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, N=n)
        e_plus, _ = symmetric_spectrum_closed(sys_, 2)
        ksum_plus, _ = symmetric_spectrum_ksum(sys_, 2)
        errors.append(abs(ksum_plus - e_plus))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-10


def test_ksum_large_chain_agrees_with_closed_form():
    sys_ = SymmetricSystem(delta=-1.0, J=0.4, lam=0.01, N=2000)
    e_plus, e_minus = symmetric_spectrum_closed(sys_, 3)
    ksum_plus, ksum_minus = symmetric_spectrum_ksum(sys_, 3)
    assert ksum_plus == pytest.approx(e_plus, rel=1e-10, abs=0)
    assert ksum_minus == pytest.approx(e_minus, rel=1e-10, abs=0)

