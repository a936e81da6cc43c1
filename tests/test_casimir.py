import math

import numpy as np
import pytest
from mpmath import mp

from chaincp import casimir
from chaincp.casimir import (
    continuum_decay_constant,
    cp_energy,
    decay_profile,
    ecp_force,
    force_curve,
)
from chaincp.errors import RegimeViolation
from chaincp.lattice import SymmetricSystem, _edge_safe_root
from chaincp.perturbation import symmetric_spectrum_closed


def fig_system(delta=-1.0, J=0.3, lam=0.01, N=200):
    return SymmetricSystem(delta=delta, J=J, lam=lam, N=N)


def test_cp_energy_frozen_values():
    # hand-evaluated: a = -0.6, q = 1/3, prefactor lam^2/(delta sqrt(1-a^2))
    sys_ = fig_system()
    assert cp_energy(sys_, 1) == pytest.approx(-4.166666666666667e-05, rel=1e-12, abs=0)
    assert cp_energy(sys_, 2) == pytest.approx(-1.388888888888889e-05, rel=1e-12, abs=0)
    assert ecp_force(sys_, 1) == pytest.approx(-2.777777777777778e-05, rel=1e-12, abs=0)


def test_cp_energy_frozen_value_other_detuning():
    sys_ = fig_system(delta=-2.0, J=0.6)
    assert ecp_force(sys_, 1) == pytest.approx(-1.3888888888888889e-05, rel=1e-12, abs=0)


def test_energy_and_force_are_negative():
    sys_ = fig_system(J=0.4)
    for r in range(1, 30):
        assert cp_energy(sys_, r) < 0.0
        assert ecp_force(sys_, r) < 0.0


def test_force_is_the_energy_times_one_minus_q(monkeypatch):
    # -(E(R + 1) - E(R)) = E(R) (1 - q) in exact arithmetic; the product is the
    # one that keeps its digits as q -> 1, and force_curve's rows are the same
    # floats as ecp_force at one energy a row
    sys_ = fig_system(J=0.35)
    one_minus_q = _edge_safe_root(sys_)[1]
    for r in (1, 4, 9):
        assert ecp_force(sys_, r) == cp_energy(sys_, r) * one_minus_q
        assert ecp_force(sys_, r) == pytest.approx(-(cp_energy(sys_, r + 1) - cp_energy(sys_, r)),
                                                   rel=1e-14, abs=0.0)
    calls = []
    monkeypatch.setattr(casimir, "cp_energy", lambda s, r: calls.append(r) or cp_energy(s, r))
    rows = force_curve(sys_, range(3, 12))
    assert calls == list(range(3, 12))
    assert [rec.force for rec in rows] == [ecp_force(sys_, r) for r in range(3, 12)]


def test_energy_decays_geometrically():
    sys_ = fig_system()
    ratio = 1.0 / 3.0  # q at a = -0.6
    for r in range(1, 25):
        ratio_r = cp_energy(sys_, r + 1) / cp_energy(sys_, r)
        assert ratio_r == pytest.approx(ratio, rel=1e-12, abs=0)


def test_coupling_scaling_is_exactly_quadratic():
    # doubling lam multiplies lam**2 by exactly 4, a power of two, so the
    # computed energies must scale with no rounding at all
    weak = fig_system(lam=0.01)
    strong = fig_system(lam=0.02)
    for r in (1, 3, 7):
        assert cp_energy(strong, r) == 4.0 * cp_energy(weak, r)
        assert ecp_force(strong, r) == 4.0 * ecp_force(weak, r)


def test_separation_validation():
    sys_ = fig_system()
    with pytest.raises(ValueError):
        cp_energy(sys_, 0)
    with pytest.raises(TypeError):
        cp_energy(sys_, 2.0)


def test_force_curve_matches_pointwise():
    sys_ = fig_system(J=0.4)
    rows = force_curve(sys_, range(2, 9))
    assert [rec.R for rec in rows] == list(range(2, 9))
    for rec in rows:
        assert rec.energy == cp_energy(sys_, rec.R)
        assert rec.force == ecp_force(sys_, rec.R)


def test_force_curve_range_validation():
    sys_ = fig_system(N=20)
    with pytest.raises(ValueError):
        force_curve(sys_, range(5, 4))
    with pytest.raises(ValueError):
        force_curve(sys_, range(1, 21))  # force at 20 needs the energy at 21 > N
    with pytest.raises(ValueError):
        force_curve(sys_, range(0, 6))


def test_decay_profile_reproduces_the_force():
    sys_ = fig_system(J=0.4)
    prof = decay_profile(sys_)
    for r in range(1, 20):
        modelled = prof.amplitude * math.exp(-prof.gamma * r)
        assert ecp_force(sys_, r) == pytest.approx(modelled, rel=1e-10, abs=0)


def test_decay_profile_frozen_rate():
    prof = decay_profile(fig_system())
    assert prof.gamma == pytest.approx(math.log(3.0), rel=1e-14, abs=0)
    assert prof.rc == pytest.approx(1.0 / math.log(3.0), rel=1e-14, abs=0)
    assert prof.amplitude < 0.0


def test_decay_profile_flat_band_limit():
    prof = decay_profile(fig_system(J=0.0))
    assert prof.gamma == math.inf
    assert prof.rc == 0.0
    assert math.isfinite(prof.amplitude)
    # amplitude * exp(-inf * R) is still exactly zero
    assert prof.amplitude * math.exp(-prof.gamma * 1) == 0.0


def test_flat_band_has_no_interaction():
    sys_ = fig_system(J=0.0)
    for r in (1, 2, 10):
        assert cp_energy(sys_, r) == 0.0
        assert ecp_force(sys_, r) == 0.0


def test_force_grows_with_hopping():
    for r in (1, 2, 5):
        forces = [abs(ecp_force(fig_system(J=float(j)), r))
                  for j in np.linspace(0.01, 0.49, 25)]
        assert all(f2 > f1 for f1, f2 in zip(forces, forces[1:]))


def test_force_shrinks_with_detuning():
    for r in (1, 2, 5):
        forces = [abs(ecp_force(fig_system(delta=float(d)), r))
                  for d in np.linspace(-0.7, -3.0, 25)]
        assert all(f2 < f1 for f1, f2 in zip(forces, forces[1:]))


def test_decay_rate_falls_towards_the_band_edge():
    gammas = [decay_profile(fig_system(J=-float(a) / 2.0, N=50)).gamma
              for a in np.linspace(-0.99, -0.01, 100)]
    assert all(g2 > g1 for g1, g2 in zip(gammas, gammas[1:]))


def test_continuum_decay_constant_frozen_value():
    # edge distance 0.1, J = 0.45: b = sqrt(2)/3
    sys_ = fig_system(J=0.45)
    assert continuum_decay_constant(sys_) == pytest.approx(0.4714045207910317, rel=1e-14, abs=0)


def test_continuum_needs_a_dispersive_band():
    with pytest.raises(RegimeViolation, match="continuum approximation needs J > 0"):
        continuum_decay_constant(fig_system(J=0.0))


def test_continuum_tracks_the_lattice_result_near_the_edge():
    # a = -0.9 is close enough to the band edge for the continuum law
    # -(lam^2 / (2 J b)) exp(-b R) to follow the lattice energy
    sys_ = fig_system(J=0.45)
    b = continuum_decay_constant(sys_)
    for r in (1, 2, 4):
        exact = cp_energy(sys_, r)
        approx = -(sys_.lam ** 2 / (2.0 * sys_.J * b)) * math.exp(-b * r)
        assert approx == pytest.approx(exact, rel=0.1, abs=0)
    # deep below the band it parts ways with the true decay rate
    far = fig_system(J=0.3)
    b_far = continuum_decay_constant(far)
    gamma_far = decay_profile(far).gamma
    assert abs(b_far - gamma_far) / gamma_far > 0.04


#: Default detuning-sweep points whose ``eps0 - (eps0 - delta)`` round trip at
#: ``eps0 = 1`` does not give ``delta`` back.
UNROUNDTRIPPED = [-1.9000000000000001, -1.8, -1.5000000000000002,
                  -1.4000000000000001, -1.3, -1.0000000000000002]


@pytest.mark.parametrize("delta", UNROUNDTRIPPED)
def test_closed_forms_do_not_depend_on_where_zero_is(delta):
    # only delta, J and lam enter the closed forms, so moving the impurity
    # level and the band together must not move a single bit
    def closed_forms(eps0):
        sys_ = SymmetricSystem(delta=delta, J=0.3, lam=0.01, N=200, eps0=eps0)
        assert sys_.delta == delta
        return ([cp_energy(sys_, r) for r in range(1, 11)],
                force_curve(sys_, range(1, 11)), decay_profile(sys_))

    at_one = closed_forms(1.0)
    assert closed_forms(0.0) == at_one
    assert closed_forms(1e6) == at_one


def closed_form_60_digits(sys_, R):
    """``E_cp(R)`` in 60 digits from the system's floats, with ``q`` from ``acosh``."""
    with mp.workdps(60):
        lam, delta, J = mp.mpf(sys_.lam), mp.mpf(sys_.delta), mp.mpf(sys_.J)
        a = 2 * J / delta
        q = mp.exp(-mp.acosh(1 / abs(a)))
        return lam ** 2 / delta * q ** R / mp.sqrt(1 - a * a)


def test_cp_energy_keeps_its_digits_at_the_band_edge():
    sys_ = fig_system(J=(1 - 1e-9) / 2)
    assert cp_energy(sys_, 1) == pytest.approx(float(closed_form_60_digits(sys_, 1)),
                                                 rel=1e-12, abs=0.0)


def test_force_keeps_its_digits_at_the_band_edge():
    sys_ = fig_system(J=(1 - 1e-12) / 2)
    with mp.workdps(60):
        exact = -(closed_form_60_digits(sys_, 2) - closed_form_60_digits(sys_, 1))
    assert ecp_force(sys_, 1) == pytest.approx(float(exact), rel=1e-12, abs=0.0)


#: Band parameters from a = -0.998 to -0.1, then up to the band edge at 1 + a = 1e-12.
EDGE_GRID = ([-0.998 + i * (0.898 / 59) for i in range(60)]
             + [-(1.0 - 10.0 ** -k) for k in range(3, 13)])


def test_closed_forms_are_accurate_across_the_band_up_to_its_edge():
    # energy, force and both doublet levels at R = 1..29, and the amplitude,
    # decay rate and range, each within 4 (R + 1) ulp of 60-digit values from
    # the system's floats
    worst = dict.fromkeys(("energy", "force", "even level", "odd level", "amplitude", "gamma",
                           "rc"), 0.0)
    for a in EDGE_GRID:
        sys_ = SymmetricSystem(delta=-1.0, J=-a / 2.0, lam=0.01, N=200)
        with mp.workdps(60):
            lam_sq, delta = mp.mpf(sys_.lam) ** 2, mp.mpf(sys_.delta)
            a_exact = 2 * mp.mpf(sys_.J) / delta
            root = mp.sqrt(1 - a_exact ** 2)
            q = (root - 1) / a_exact
            amplitude = lam_sq / delta * (1 - q) / root
            profile = decay_profile(sys_)
            cases = [("amplitude", 0, profile.amplitude, amplitude),
                     ("gamma", 0, profile.gamma, -mp.log(q)), ("rc", 0, profile.rc, -1 / mp.log(q))]
            for r in range(1, 30):
                energy = lam_sq / delta * q ** r / root
                e_plus, e_minus = symmetric_spectrum_closed(sys_, r)
                cases += [("energy", r, cp_energy(sys_, r), energy),
                          ("force", r, ecp_force(sys_, r), energy * (1 - q)),
                          ("even level", r, e_plus, lam_sq / (delta * root) * (1 + q ** r)),
                          ("odd level", r, e_minus, lam_sq / (delta * root) * (1 - q ** r))]
            for name, r, value, exact in cases:
                err = float(abs(value - exact) / abs(exact)) / ((r + 1) * 2.0 ** -52)
                worst[name] = max(worst[name], err)
    assert max(worst.values()) <= 4.0, worst


#: Separations per band parameter, up to where ``E_cp`` is still a normal float.
DECAY_GRID = {-0.6: (1, 2, 10, 100, 300, 600), -0.9: (1, 10, 100, 300, 1000),
              -0.999: (1, 10, 100, 1000, 3000, 10000),
              -0.99999: (1, 10, 100, 1000, 3000, 10000, 20000)}


@pytest.mark.parametrize("a", sorted(DECAY_GRID))
def test_closed_forms_carry_the_error_of_their_decay_not_of_R(a):
    # q ** R would amplify the rounding of q R times: 2029 ulp at a = -0.999,
    # R = 10000, against Gamma R = 447.  Each energy, force and even level is
    # within (Gamma R + 2) ulp of 50-digit values from the system's floats,
    # Gamma = -log q, the digits the answer's own decay costs
    sys_ = SymmetricSystem(delta=-1.0, J=-a / 2.0, lam=0.01, N=20001)
    with mp.workdps(50):
        lam_sq, delta = mp.mpf(sys_.lam) ** 2, mp.mpf(sys_.delta)
        a_exact = 2 * mp.mpf(sys_.J) / delta
        root = mp.sqrt(1 - a_exact ** 2)
        q = (root - 1) / a_exact
        gamma = float(-mp.log(q))
        for r in DECAY_GRID[a]:
            energy = lam_sq / delta * q ** r / root
            rel = (gamma * r + 2.0) * 2.0 ** -52
            assert cp_energy(sys_, r) == pytest.approx(float(energy), rel=rel, abs=0), r
            assert ecp_force(sys_, r) == pytest.approx(float(energy * (1 - q)), rel=rel, abs=0), r
            even = lam_sq / (delta * root) * (1 + q ** r)
            assert symmetric_spectrum_closed(sys_, r)[0] == pytest.approx(float(even), rel=rel,
                                                                          abs=0), r
