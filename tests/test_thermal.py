import math

import numpy as np
import pytest

from chaincp.casimir import ecp_force
from chaincp.lattice import SymmetricSystem
from chaincp.perturbation import symmetric_spectrum_closed
from chaincp.thermal import (
    TemperatureForce,
    _growth_violations,
    force_vs_temperature,
    thermal_energy,
    thermal_ensemble,
    thermal_force,
)


def fig_system(delta=-1.0, J=0.3, lam=0.1, N=100):
    """Thermal-figure parameters: stronger coupling, modest chain."""
    return SymmetricSystem.from_detuning(delta=delta, J=J, lam=lam, N=N)


def brute_average(sys_, T, R):
    """Plain-float Boltzmann average over the explicit level list."""
    e_plus, e_minus = symmetric_spectrum_closed(sys_, R)
    levels = [e_plus, e_minus]
    ns = sys_.chain.num_sites
    gsq = sys_.lam ** 2 / ns
    for n in range(-sys_.chain.N, sys_.chain.N + 1):
        energy = sys_.chain.omega - 2.0 * sys_.chain.J * math.cos(2.0 * math.pi * n / ns)
        levels.append(energy + 2.0 * gsq / (energy - sys_.eps0))
    beta = 1.0 / T
    weights = [math.exp(-beta * e) for e in levels]
    z = sum(weights)
    return sum(w * e for w, e in zip(weights, levels)) / z


def test_zero_temperature_recovers_the_ground_level():
    sys_ = fig_system(N=60)
    e_plus, _ = symmetric_spectrum_closed(sys_, 1)
    assert thermal_energy(sys_, 0.0, 1) == e_plus


def test_zero_temperature_force_matches_the_ground_state_force():
    sys_ = fig_system()
    # the ground-level difference reproduces the T = 0 force up to the
    # cancellation of the R-independent offset (~1e-12 relative here)
    assert thermal_force(sys_, 0.0, 1) == pytest.approx(ecp_force(sys_, 1), rel=1e-9)


def test_infinite_temperature_is_the_uniform_average():
    sys_ = fig_system(N=40)
    ens = thermal_ensemble(sys_, math.inf, 1)
    expected = np.full(ens.energies.size, 1.0 / ens.energies.size)
    assert np.allclose(ens.weights, expected, rtol=0, atol=1e-15)
    assert ens.z == pytest.approx(ens.energies.size, rel=1e-12)
    mean = math.fsum(ens.energies) / ens.energies.size
    assert thermal_energy(sys_, math.inf, 1) == pytest.approx(mean, rel=1e-12)


def test_infinite_temperature_force_vanishes():
    sys_ = fig_system(N=60)
    assert abs(thermal_force(sys_, math.inf, 2)) < 1e-12


@pytest.mark.parametrize("T", [0.05, 0.5, 2.0])
def test_thermal_energy_matches_direct_average(T):
    sys_ = fig_system(N=30)
    assert thermal_energy(sys_, T, 2) == pytest.approx(brute_average(sys_, T, 2), rel=1e-12)


def test_weights_are_a_distribution():
    sys_ = fig_system(N=50)
    for temp in (0.0, 0.01, 0.3, 5.0, math.inf):
        ens = thermal_ensemble(sys_, temp, 1)
        assert np.all(ens.weights >= 0.0)
        assert math.fsum(ens.weights) == pytest.approx(1.0, rel=1e-13)


def test_zero_temperature_weights_concentrate():
    ens = thermal_ensemble(fig_system(N=30), 0.0, 1)
    assert ens.weights[0] == 1.0
    assert np.all(ens.weights[1:] == 0.0)


def test_flat_band_doublet_shares_weight_at_zero_temperature():
    # J = 0 leaves the doublet exactly degenerate
    ens = thermal_ensemble(fig_system(J=0.0, N=30), 0.0, 1)
    assert ens.weights[0] == ens.weights[1] == 0.5


def test_spectrum_ordering():
    ens = thermal_ensemble(fig_system(N=50), 0.2, 1)
    energies = ens.energies
    assert energies[0] < energies[1] < energies[2:].min()


def test_negative_temperature_rejected():
    with pytest.raises(ValueError):
        thermal_ensemble(fig_system(), -0.1, 1)


def test_ground_population_falls_with_temperature():
    sys_ = fig_system(N=50)
    temps = np.geomspace(1e-3, 1.0, 15)
    populations = [thermal_ensemble(sys_, float(t), 1).weights[0] for t in temps]
    assert all(p2 < p1 for p1, p2 in zip(populations, populations[1:]))


def test_odd_doublet_share_grows_with_temperature():
    # within the doublet, heating moves weight onto the odd partner; the
    # absolute odd population is not monotonic (the band drains both), so
    # the clean statement is about the doublet-internal share
    sys_ = fig_system(N=50)
    temps = np.geomspace(1e-3, 1.0, 15)
    shares = []
    for t in temps:
        w = thermal_ensemble(sys_, float(t), 1).weights
        shares.append(w[1] / (w[0] + w[1]))
    assert all(s2 > s1 for s1, s2 in zip(shares, shares[1:]))


def test_force_weakens_with_temperature_pointwise():
    for n in (100, 200):
        sys_ = fig_system(N=n)
        for r in range(1, 9):
            f_cold = thermal_force(sys_, 0.0, r)
            f_warm = thermal_force(sys_, 0.1, r)
            f_hot = thermal_force(sys_, 1.0, r)
            assert abs(f_cold) >= abs(f_warm) >= abs(f_hot)


def test_low_temperature_limit_reaches_the_static_force():
    sys_ = fig_system(N=100)
    # the force at R rides on the splitting at R + 1; kT = 1e-6 resolves
    # that splitting out to R = 5 here, and past there the limit genuinely
    # needs a colder ensemble (1e-9 covers R = 1..10 with room to spare)
    for r in range(1, 6):
        assert thermal_force(sys_, 1e-6, r) == pytest.approx(ecp_force(sys_, r), rel=1e-6)
    for r in range(1, 11):
        assert thermal_force(sys_, 1e-9, r) == pytest.approx(ecp_force(sys_, r), rel=1e-6)


def test_decoupled_impurities_feel_no_thermal_force():
    sys_ = fig_system(lam=0.0, N=40)
    for temp in (0.0, 0.1, 1.0, math.inf):
        assert thermal_force(sys_, temp, 3) == 0.0


def test_force_vs_temperature_sweep():
    sys_ = fig_system(N=100)
    sweep = force_vs_temperature(sys_, 2, (0.0, 0.1, 1.0))
    assert [rec.T for rec in sweep.records] == [0.0, 0.1, 1.0]
    for rec in sweep.records:
        assert rec.force == thermal_force(sys_, rec.T, 2)
    assert sweep.violations == ()


def test_growth_checker_flags_each_rise_beyond_noise():
    records = [TemperatureForce(0.0, -1e-3), TemperatureForce(0.1, -2e-3),
               TemperatureForce(0.2, -2e-3 - 5e-16), TemperatureForce(1.0, 3e-3)]
    found = _growth_violations(records)
    # 1e-3 -> 2e-3 and 2e-3 -> 3e-3 grew; the 5e-16 step is noise
    assert len(found) == 2
    assert "at T=0 " in found[0] and "at T=0.1" in found[0]
    assert "at T=0.2 " in found[1] and "at T=1" in found[1]
    assert _growth_violations(records[:1]) == ()


def test_force_vs_temperature_validates_the_grid():
    sys_ = fig_system()
    with pytest.raises(ValueError):
        force_vs_temperature(sys_, 1, (0.1, 0.0))
    with pytest.raises(ValueError):
        force_vs_temperature(sys_, 1, (-0.1, 0.2))


def test_band_dilution_weakens_the_warm_force():
    # more band states at the same temperature means less weight on the
    # doublet, so the finite-T force falls with chain length while the
    # T = 0 force does not move at all
    f_small = thermal_force(fig_system(N=100), 1.0, 1)
    f_large = thermal_force(fig_system(N=400), 1.0, 1)
    assert abs(f_large) < abs(f_small)
    assert thermal_force(fig_system(N=100), 0.0, 1) == \
        pytest.approx(thermal_force(fig_system(N=400), 0.0, 1), rel=1e-12)
