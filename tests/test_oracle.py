import ast
import csv
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from dense_reference import (
    dense_ground_energy,
    dense_hamiltonian,
    scalar_ground_energy,
    symmetric_hamiltonian,
)
from mpmath import mp
from numpy.testing import assert_allclose
from test_lattice import full_elimination

import chaincp
from chaincp import _ring, oracle, thermal
from chaincp._ring import _even_shift, _impurity_level, _ring_column
from chaincp.casimir import cp_energy
from chaincp.cli import main as cli_main
from chaincp.errors import ConvergenceError, RegimeViolation
from chaincp.lattice import (
    SymmetricSystem,
    brillouin_modes,
    dispersion,
)
from chaincp.oracle import (
    ED_TOL,
    cp_energy_ed,
    cp_energy_quadrature,
)
from chaincp.perturbation import symmetric_spectrum_ksum


def fig_system(delta=-1.0, J=0.3, lam=0.01, N=200):
    return SymmetricSystem(delta=delta, J=J, lam=lam, N=N)


def table_rows(path):
    return list(csv.DictReader(line for line in path.read_text().splitlines()
                               if not line.startswith("#")))


def ring(N):
    """A ring with site energy 2.0 and hopping 0.3; its impurity is not used."""
    return SymmetricSystem(delta=-1.0, J=0.3, lam=0.0, N=N)


def test_matrix_shape_and_symmetry():
    h = dense_hamiltonian(ring(6), 0.9, 1.1, 0.01, 0.02, 3)
    assert h.shape == (15, 15)
    assert np.array_equal(h, h.T)


def test_matrix_entries():
    h = dense_hamiltonian(ring(4), 0.9, 1.1, 0.01, 0.02, 2)
    site0 = 2 + 4
    assert h[0, 0] == 0.9 and h[1, 1] == 1.1
    assert h[0, site0] == 0.01          # impurity 1 onto site 0
    assert h[1, site0 + 2] == 0.02      # impurity 2 onto site R
    assert h[0, 1] == 0.0               # no direct impurity-impurity term
    # chain diagonal and hopping, including the periodic bond
    assert np.all(np.diag(h)[2:] == 2.0)
    for j in range(2, h.shape[0] - 1):
        assert h[j, j + 1] in (-0.3, 0.0, 0.01, 0.02)
    assert h[2, h.shape[0] - 1] == -0.3
    # each chain row couples to exactly two neighbours
    chain_block = h[2:, 2:]
    assert np.all((chain_block == -0.3).sum(axis=0) == 2)


def test_decoupled_impurities_leave_the_chain_spectrum_alone():
    chain = ring(25)
    energies = np.linalg.eigvalsh(dense_hamiltonian(chain, 1.0, 1.0, 0.0, 0.0, 5))
    band = np.sort([dispersion(chain, k) for k in brillouin_modes(chain)])
    expected = np.sort(np.concatenate(([1.0, 1.0], band)))
    assert_allclose(energies, expected, atol=1e-12)


def test_three_site_ring_eigenvalues():
    # N = 1: ring eigenvalues are omega - 2J and a double omega + J
    energies = np.linalg.eigvalsh(dense_hamiltonian(ring(1), 1.0, 1.0, 0.0, 0.0, 1))
    assert_allclose(energies, [1.0, 1.0, 1.4, 2.3, 2.3], atol=1e-13)


def test_diagonalisation_is_deterministic():
    # a fresh but equal system, solved from scratch, must give the same bits
    sys_ = fig_system(N=40)
    values = cp_energy_ed(sys_, range(1, 4))
    again = cp_energy_ed(fig_system(N=40), range(1, 4))
    assert values == again


def test_exactly_two_levels_bind_below_the_band():
    sys_ = fig_system(N=40)
    energies = np.linalg.eigvalsh(symmetric_hamiltonian(sys_, 4))
    below = energies < sys_.band_bottom
    assert below.sum() == 2


def test_ground_state_lives_on_the_even_combination():
    sys_ = fig_system(N=60)
    energies, vectors = np.linalg.eigh(symmetric_hamiltonian(sys_, 2))
    assert abs(vectors[0, 0] + vectors[1, 0]) / math.sqrt(2.0) > 0.999
    assert energies[1] - energies[0] > 0.0


@pytest.mark.parametrize("J,lam", [(0.3, 0.01), (0.495, 0.1), (0.3, 0.0), (0.0, 0.01)],
                         ids=["weak", "near-edge-strong", "decoupled", "flat-band"])
def test_secular_ground_energy_matches_dense_eigvalsh(J, lam):
    worst = 0.0
    for n in range(1, 51):
        sys_ = fig_system(J=J, lam=lam, N=n)
        x1, column = _impurity_level(sys_)
        for r in range(1, n + 1):
            dense = dense_ground_energy(sys_, r)
            # the ground level is the single-impurity level plus the even shift,
            # both offsets from the bare level
            ground = sys_.eps0 + x1 + _even_shift(sys_, x1, column, r)
            worst = max(worst, abs(ground - dense) / abs(dense))
    assert worst <= 1e-14


EDGE_SYSTEM = fig_system(J=0.499, lam=0.001, N=400)


# At a = -0.998 the levels are ~3e-5, so the check needs abs = 0: approx's
# default abs = 1e-12 would allow ~3e-8 relative there.
@pytest.mark.parametrize("sys_", [fig_system(N=400), EDGE_SYSTEM], ids=["a=-0.6", "a=-0.998"])
def test_real_space_level_matches_the_mode_sum_bisection(sys_):
    # the ring column in real space against the secular equation summed over
    # the 801 ring modes in momentum space, bisected down to adjacent floats
    x1, column = _impurity_level(sys_)
    for r in range(1, 101):
        ground = x1 + _even_shift(sys_, x1, column, r)
        assert ground == pytest.approx(scalar_ground_energy(sys_, r), rel=1e-14, abs=0.0), r


def mp_secular_shifts(sys_, seps):
    """``x(R) - x1`` at 50 digits, each level a secant root of its mode-sum secular equation.

    The secant starts at the dense matrix's lowest eigenvalue; the single
    level ``x1`` is that of a matrix whose second impurity is decoupled.
    """
    with mp.workdps(50):
        m = sys_.num_sites
        lam_sq = mp.mpf(sys_.lam) ** 2
        cosines = [mp.cos(2 * mp.pi * n / m) for n in range(-sys_.N, sys_.N + 1)]

        def level(weights, dense):
            def secular(x):
                return x - lam_sq / m * mp.fsum(
                    w / (x + sys_.delta + 2 * sys_.J * c) for w, c in zip(weights, cosines))
            seed = mp.mpf(dense - sys_.eps0)
            return mp.findroot(secular, (seed, seed * (1 + mp.mpf("1e-9"))))

        single = np.linalg.eigvalsh(dense_hamiltonian(sys_, sys_.eps0, sys_.eps0,
                                                      sys_.lam, 0.0, 1))[0]
        x1 = level([1] * m, single)
        shifts = []
        for r in seps:
            weights = [1 + mp.cos(2 * mp.pi * n * r / m) for n in range(-sys_.N, sys_.N + 1)]
            shifts.append(float(level(weights, dense_ground_energy(sys_, r)) - x1))
    return shifts


def test_real_space_level_keeps_its_digits_at_the_band_edge():
    # the shifts themselves, far below an ulp of the level, against 50 digits;
    # ratios carried as themselves near 1 left them 3.3e-14 and 3.7e-13 off
    for J, lam in [(0.499, 0.001), (0.4999, 1e-4)]:
        sys_ = fig_system(J=J, lam=lam, N=100)
        x1, column = _impurity_level(sys_)
        for r, exact in enumerate(mp_secular_shifts(sys_, range(1, 11)), start=1):
            shift = _even_shift(sys_, x1, column, r)
            assert shift == pytest.approx(exact, rel=1e-14, abs=0.0), (J, lam, r)


@pytest.mark.parametrize("J,lam", [(0.3, 0.01), (0.45, 0.1)])
def test_ed_matches_fifty_digit_secular_roots(J, lam):
    sys_ = fig_system(J=J, lam=lam, N=40)
    seps = range(1, 11)
    with warnings.catch_warnings():
        # lam / gap = 1 at J = 0.45: the systematic warning is about the closed form
        warnings.simplefilter("ignore", UserWarning)
        values = cp_energy_ed(sys_, seps)
    for value, exact in zip(values, mp_secular_shifts(sys_, seps)):
        assert value == pytest.approx(exact, rel=1e-13, abs=0)


def test_ed_fixed_point_that_alternates_between_two_floats_returns(monkeypatch):
    # at a = -0.998 and N = 100 the shift at R = 33 ends alternating between
    # two floats 2.1e-21 (1.1e-15 of the shift) apart: a step that no longer
    # shrinks ends it
    iterates = []
    real_fixed_point = _ring._fixed_point

    def recording(update, x, where):
        return real_fixed_point(lambda y: iterates.append(update(y)) or iterates[-1], x, where)

    monkeypatch.setattr(_ring, "_fixed_point", recording)
    sys_ = fig_system(J=0.499, lam=0.001, N=100)
    x1, column = _impurity_level(sys_)
    iterates.clear()
    value = _even_shift(sys_, x1, column, 33)
    assert iterates[-1] == iterates[-3] != iterates[-2]
    assert math.isfinite(value)
    assert value == pytest.approx(cp_energy(sys_, 33), rel=0.05, abs=0)


def test_ed_non_finite_iterate_is_a_convergence_error(monkeypatch):
    # the constructor refuses a NaN coupling, so plant one past it to reach
    # the fixed point's own check
    sys_ = fig_system(N=40)
    object.__setattr__(sys_, "lam", math.nan)
    with pytest.raises(ConvergenceError, match=r"reached nan at the single-impurity level, N=40$"):
        cp_energy_ed(sys_, range(1, 2))
    # a ring column poisoned past site 2 spoils every shift but not the level
    real_column = _ring._ring_column

    def poisoned(sys_, x, stop=math.inf):
        column = real_column(sys_, x, stop)
        if len(column) > 3:
            column[3] = math.nan
        return column

    monkeypatch.setattr(_ring, "_ring_column", poisoned)
    with pytest.raises(ConvergenceError, match=r"reached nan at R=1, N=40$"):
        cp_energy_ed(fig_system(N=40), range(1, 3))


def test_ed_step_cap_is_a_convergence_error(monkeypatch):
    monkeypatch.setattr(_ring, "MAX_STEPS", 2)
    with pytest.raises(ConvergenceError, match=r"did not settle in 2 steps"):
        cp_energy_ed(fig_system(N=40), range(1, 2))


@pytest.mark.parametrize("N", [40, 400, 20000])
def test_ed_sweep_gives_the_floats_of_single_calls(N):
    sys_ = fig_system(N=N)
    assert cp_energy_ed(sys_, range(1, 6)) == tuple(
        cp_energy_ed(sys_, range(r, r + 1))[0] for r in range(1, 6))


@pytest.mark.parametrize("J,lam,N,seps,past", [
    (0.3, 0.01, 40, range(1, 11), False), (0.3, 0.01, 400, range(1, 11), False),
    (0.3, 0.01, 4000, range(1, 11), False), (0.3, 0.01, 20000, range(1, 11), False),
    # a = -0.998 underflows only far past N; J = 1e-5 past n ~ 65
    (0.499, 1e-4, 20000, range(1, 11), False), (1e-5, 0.01, 400, range(1, 11), False),
    # separations past the cut, whose shift and hopping are exactly zero
    (0.3, 1e-3, 4000, range(900, 903), True), (1e-5, 0.01, 400, range(70, 72), True),
], ids=["N=40", "N=400", "N=4000", "N=20000", "a=-0.998", "J=1e-5", "past-the-cut",
        "J=1e-5-past-the-cut"])
def test_ed_and_ksum_give_the_floats_of_the_uncut_column(J, lam, N, seps, past, monkeypatch):
    sys_ = fig_system(J=J, lam=lam, N=N)

    def floats():
        # the ED shifts, then each separation's k-sum doublet
        doublets = [symmetric_spectrum_ksum(sys_, r) for r in seps]
        return list(cp_energy_ed(sys_, seps)), doublets

    shifts, doublets = floats()
    monkeypatch.setattr(_ring, "_ring_column", full_elimination)
    uncut_shifts, uncut_doublets = floats()
    assert list(map(float.hex, shifts)) == list(map(float.hex, uncut_shifts))
    assert doublets == uncut_doublets
    assert (len(_ring_column(sys_, 0.0)) <= seps[0]) == past
    if past:
        assert shifts == [0.0] * len(seps)
        assert all(plus == minus for plus, minus in doublets)


def test_ed_rejects_ranges_it_cannot_sweep():
    sys_ = fig_system(N=40)
    for bad in (range(3, 3), range(1, 9, 2), range(-1, 3), range(0, 3), range(1, 12)):
        with pytest.raises(ValueError):
            cp_energy_ed(sys_, bad)
    with pytest.raises(TypeError):
        cp_energy_ed(sys_, 1.0)


def test_ed_sweep_warns_for_each_separation():
    # lam / gap = 0.25 puts every separation over the ED_TOL systematic bound
    sys_ = fig_system(lam=0.1, N=80)
    with pytest.warns(UserWarning) as swept:
        cp_energy_ed(sys_, range(1, 4))
    with pytest.warns(UserWarning) as single:
        for r in range(1, 4):
            cp_energy_ed(sys_, range(r, r + 1))
    assert len(swept) == 3
    assert [str(w.message) for w in swept] == [str(w.message) for w in single]


def test_ed_reaches_chains_too_large_for_a_dense_matrix():
    # the dense matrix would be 40003^2 doubles, about 12.8 GB
    sys_ = fig_system(N=20000)
    for r, ed in zip(range(1, 6), cp_energy_ed(sys_, range(1, 6))):
        closed = cp_energy(sys_, r)
        assert abs(ed - closed) / abs(closed) < ED_TOL


def test_oracle_check_runs_at_large_n(tmp_path):
    out = tmp_path / "oracle.csv"
    code = cli_main(["--mode", "oracle-check", "--N", "20000", "--rmax", "10",
                     "--output", str(out)])
    assert code == 0


def test_ed_energy_matches_closed_form():
    sys_ = fig_system(N=200)
    for r, ed in zip(range(1, 4), cp_energy_ed(sys_, range(1, 4))):
        closed = cp_energy(sys_, r)
        assert abs(ed - closed) / abs(closed) < 1e-2


def test_ed_systematics_shrink_with_chain_length():
    # the N-dependent part of the estimate is the ring image, geometric in
    # N; past that it settles onto its (N-independent) fourth-order floor
    values = [cp_energy_ed(fig_system(N=n), range(2, 3))[0] for n in (8, 16, 32, 64)]
    drifts = [abs(v2 - v1) for v1, v2 in zip(values, values[1:])]
    assert drifts[0] > drifts[1] > drifts[2]
    assert drifts[2] < 1e-10


def test_ed_separation_cap():
    sys_ = fig_system(N=40)
    with pytest.raises(ValueError):
        cp_energy_ed(sys_, range(11, 12))  # N // 4 = 10


def test_ed_scaling_is_quadratic_up_to_fourth_order():
    # doubling the coupling must quadruple the second-order energy; the
    # diagonalisation keeps all orders, so allow twice the fourth-order
    # fraction (lam/gap)^2 of the stronger coupling as slack
    (weak,) = cp_energy_ed(fig_system(lam=0.01, N=120), range(2, 3))
    (strong,) = cp_energy_ed(fig_system(lam=0.02, N=120), range(2, 3))
    slack = 2.0 * (0.02 / 0.4) ** 2
    assert abs(strong / weak - 4.0) / 4.0 < slack


def test_ed_warns_when_systematics_bite():
    # lam / gap = 0.25: fourth-order term (lam/gap)^2 > ED_TOL
    sys_ = fig_system(lam=0.1, N=80)
    with pytest.warns(UserWarning):
        cp_energy_ed(sys_, range(1, 2))


def test_ed_warns_whenever_its_estimate_exceeds_the_check_tolerance():
    # near the band edge the ED is 1.28% off the closed form at R = 1: the
    # ring image (q0^(M - 2R) + q0^M) / (1 - q0^M) puts the estimate at ~1.6%
    sys_ = SymmetricSystem(-1.0, 0.49999, 1e-6, 400)
    closed = cp_energy(sys_, 1)
    with pytest.warns(UserWarning, match=r"~1\.6% .* at R=1, N=400"):
        (ed,) = cp_energy_ed(sys_, range(1, 2))
    assert abs(ed - closed) / abs(closed) > ED_TOL


@pytest.mark.parametrize("J,R", [(0.3, 1), (0.3, 5), (0.4, 3), (0.45, 2)])
def test_quadrature_matches_closed_form(J, R):
    sys_ = fig_system(J=J)
    (value,) = cp_energy_quadrature(sys_, range(R, R + 1))
    assert value == pytest.approx(cp_energy(sys_, R), rel=1e-12, abs=0)


def test_quadrature_survives_deep_cancellation():
    # at R = 20 the integrand's mean is nine orders above the answer; a
    # float64 accumulation would be stuck near 1e-7 relative error
    sys_ = fig_system(J=0.3)
    (value,) = cp_energy_quadrature(sys_, range(20, 21))
    assert value == pytest.approx(cp_energy(sys_, 20), rel=1e-12, abs=0)


def test_quadrature_point_budget(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_POINTS", 64)
    sys_ = fig_system(J=0.3)
    with pytest.raises(ConvergenceError, match=r"^trapezoid refinement reached 64 points at R=1 "):
        cp_energy_quadrature(sys_, range(1, 2))


def test_quadrature_rejects_flat_band_and_bad_separation():
    with pytest.raises(RegimeViolation, match=r"^quadrature needs a dispersive band \(J > 0\)"):
        cp_energy_quadrature(fig_system(J=0.0), range(1, 2))
    with pytest.raises(ValueError, match="separation must be >= 1, got R=-1"):
        cp_energy_quadrature(fig_system(), range(-1, 0))


def test_quadrature_refinement_evaluates_each_node_once(monkeypatch):
    # a = -0.6, R = 1 converges on the 128-point grid.  Folded onto [0, pi],
    # its 64-point level has 33 nodes and the refinement adds 32 midpoints,
    # so mp.cos runs 33 + 32 times
    sys_ = fig_system(J=0.3)
    calls = {"cos": [], "sin": []}
    for name, seen in calls.items():
        real = getattr(mp, name)
        monkeypatch.setattr(mp, name, lambda x, real=real, seen=seen: seen.append(x) or real(x))
    (value,) = cp_energy_quadrature(sys_, range(1, 2))
    monkeypatch.undo()
    assert len(calls["cos"]) == 65
    assert calls["sin"] == []

    # the fold must give the sum over every node of [-pi, pi)
    with mp.workdps(40):
        nodes = [-mp.pi + j * 2 * mp.pi / 128 for j in range(128)]
        direct = mp.mpf(sys_.lam) ** 2 / 128 * mp.fsum(
            mp.cos(k) / (sys_.delta + 2 * sys_.J * mp.cos(k)) for k in nodes)
    assert value == pytest.approx(float(direct), rel=1e-15, abs=0)


@pytest.mark.parametrize("separations", [1, 5, range(3, 9), range(1, 11)])
def test_quadrature_calls_cos_once_per_node_for_any_window(monkeypatch, separations):
    # every phase cos(R k) is read off the grid's own node cosines, so each
    # window at a = -0.6 costs the 65 nodes of [0, pi] on the 128-point grid
    calls = []
    real = mp.cos
    monkeypatch.setattr(mp, "cos", lambda x: calls.append(x) or real(x))
    # a lone R as its one-point window
    if not isinstance(separations, range):
        separations = range(separations, separations + 1)
    cp_energy_quadrature(fig_system(J=0.3), separations)
    monkeypatch.undo()
    assert len(calls) == 65


@pytest.mark.parametrize("J,separations", [(0.3, range(1, 21)), (0.3, range(3, 9)),
                                           (0.495, range(1, 21)), (1e-5, range(1, 11))],
                         ids=["a=-0.6", "a=-0.6-R3..8", "a=-0.99", "J=1e-5"])
def test_quadrature_sweep_gives_the_floats_of_single_calls(J, separations):
    sys_ = fig_system(J=J)
    assert cp_energy_quadrature(sys_, separations) == tuple(
        cp_energy_quadrature(sys_, range(r, r + 1))[0] for r in separations)


def test_quadrature_sweep_keeps_each_separations_first_converged_estimate(monkeypatch):
    # at a loose tolerance small R settle grids before R = 20 does, on an
    # estimate that later refinements would still move in its last bits
    monkeypatch.setattr(oracle, "REFINEMENT_TOL", 1e-6)
    sys_ = fig_system(J=0.495)
    sweep = cp_energy_quadrature(sys_, range(1, 21))
    assert sweep == tuple(cp_energy_quadrature(sys_, range(r, r + 1))[0] for r in range(1, 21))


def test_quadrature_keeps_its_digits_at_tiny_hopping():
    # q ~ 1e-5, so E_cp(10) ~ 1e-54 sits 50 digits below the integrand
    sys_ = fig_system(J=1e-5)
    for r, value in zip(range(6, 11), cp_energy_quadrature(sys_, range(6, 11))):
        assert value == pytest.approx(cp_energy(sys_, r), rel=1e-12, abs=0)


def test_oracle_check_at_tiny_hopping_stops_its_precision_at_the_smallest_subnormal(
        tmp_path, monkeypatch):
    # q ~ 1e-300, so E_cp(100) cancels 30000 digits; but lam^2 / gap = 1e-4 is
    # only 320 digits above the smallest subnormal, so 40 + 320 - 5 digits
    # resolve every float64 answer, and every one past R = 1 rounds to zero
    used = []
    real = mp.workdps
    monkeypatch.setattr(mp, "workdps", lambda dps: used.append(dps) or real(dps))
    out = tmp_path / "oracle.csv"
    assert cli_main(["--mode", "oracle-check", "--J", "1e-300", "--N", "400", "--rmax", "100",
                     "--output", str(out)]) == 0
    monkeypatch.undo()
    assert used == [355]
    rows = table_rows(out)
    assert len(rows) == 100
    assert all(row["quad_ok"] == "1" for row in rows)
    assert float(rows[0]["quadrature"]) != 0.0
    # a zero takes the sign of lam^2 / delta, as the closed form's does
    assert [row["quadrature"] for row in rows[1:]] == ["-0"] * 99


def test_quadrature_sweep_names_the_separations_left_unconverged(monkeypatch):
    # a 64-point grid agreeing with the 128-point one settles R <= 14 only:
    # from R = 15 on, 64 points are not past 4R + 4
    monkeypatch.setattr(oracle, "MAX_POINTS", 128)
    with pytest.raises(ConvergenceError, match=r"at R=15, 16, 17, 18, 19, 20 without"):
        cp_energy_quadrature(fig_system(J=0.3), range(1, 21))


def test_quadrature_does_not_converge_on_an_alias():
    # a = -0.4: the 64- and 128-point rules both fold R = 150 onto
    # |150 - 128| = 22 and agree, on E_cp(22) instead of E_cp(150)
    sys_ = fig_system(J=0.2, lam=0.05, N=1000)
    (value,) = cp_energy_quadrature(sys_, range(150, 151))
    assert value == pytest.approx(cp_energy(sys_, 150), rel=1e-12, abs=0)
    seps = range(140, 161)
    for r, value in zip(seps, cp_energy_quadrature(sys_, seps)):
        assert value == pytest.approx(cp_energy(sys_, r), rel=1e-12, abs=0)


def test_oracle_check_far_separations_have_the_quadrature_ok(tmp_path, capsys):
    # the run exits 4 on its ed cells alone, and they are right: the level
    # sits at x1, not 0, which shifts the decay rate by a fourth-order
    # amount the closed form drops, exp(-140 * 0.00297) = 0.66 at R = 140
    out = tmp_path / "oracle.csv"
    code = cli_main(["--mode", "oracle-check", "--delta=-1", "--J", "0.2", "--lambda",
                     "0.05", "--N", "1000", "--rmin", "140", "--rmax", "160",
                     "--output", str(out)])
    notes = [line for line in capsys.readouterr().err.splitlines() if "rate shift" in line]
    assert len(notes) == 21
    assert all(line.startswith("chaincp: warning: ED estimate") for line in notes)
    assert code == 4
    rows = table_rows(out)
    assert len(rows) == 21
    assert all(row["quad_ok"] == "1" for row in rows)
    assert float(rows[0]["ed"]) / float(rows[0]["closed"]) == pytest.approx(0.66, abs=0.01)


def test_quadrature_rejects_ranges_it_cannot_sweep():
    sys_ = fig_system()
    for bad in (range(3, 3), range(1, 9, 2), range(-1, 3)):
        with pytest.raises(ValueError):
            cp_energy_quadrature(sys_, bad)
    with pytest.raises(TypeError):
        cp_energy_quadrature(sys_, 1.0)


def test_oracle_check_makes_at_most_five_trig_calls_per_node(monkeypatch, tmp_path):
    # R = 1..10 on a = -0.6 settles on the 128-point grid: 65 nodes of [0, pi],
    # one cosine each; one quadrature call per separation used to cost 3 per
    # node per R, 3840 in all
    calls = []
    for name in ("cos", "sin"):
        real = getattr(mp, name)
        monkeypatch.setattr(mp, name, lambda x, real=real: calls.append(x) or real(x))
    code = cli_main(["--mode", "oracle-check", "--N", "40", "--rmax", "10",
                     "--output", str(tmp_path / "oracle.csv")])
    monkeypatch.undo()
    assert code == 0
    assert len(calls) == 65


def test_oracle_check_at_tiny_hopping_finishes_with_the_quadrature_ok(tmp_path):
    # E_cp of 1e-19 .. 1e-54 lies far below an ulp of the level; the ED
    # solves for the shift itself, so both columns pass, fast
    out = tmp_path / "oracle.csv"
    start = time.perf_counter()
    code = cli_main(["--mode", "oracle-check", "--J", "1e-5", "--N", "40", "--rmax", "10",
                     "--output", str(out)])
    assert time.perf_counter() - start < 5.0
    assert code == 0
    rows = table_rows(out)
    assert len(rows) == 10
    assert all(row["quad_ok"] == row["ed_ok"] == "1" for row in rows)


def test_oracle_check_survives_a_closed_form_that_underflows(tmp_path):
    # from R = 64 on, E_cp ~ 1e-4 * 1e-5**R is below the smallest subnormal:
    # every estimate gives 0.0 there, which is a match, not a division by zero
    out = tmp_path / "oracle.csv"
    code = cli_main(["--mode", "oracle-check", "--J", "1e-5", "--N", "264", "--rmax", "66",
                     "--output", str(out)])
    assert code == 0
    rows = table_rows(out)
    assert [float(row[key]) for row in rows[-3:] for key in ("closed", "quadrature", "ed")] == [
        0.0] * 9
    assert all(row["quad_ok"] == row["ed_ok"] == "1" for row in rows)


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh Python run with ``args``, importing this checkout; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(chaincp.__file__).parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def _fresh_lines(code: str) -> list[str]:
    """The stdout lines of ``code`` run in a fresh Python importing this checkout."""
    return _fresh_python("-c", code).stdout.splitlines()


# prints the modules that ``import chaincp`` (or the line after it) adds, so
# whatever site preloads cannot hide one
_ADDED = ("print(sorted(m for m in set(sys.modules) - before"
          " if m.startswith('chaincp') or m in {'dataclasses', 'inspect', 'numpy', 'mpmath'}))")


def test_importing_the_package_leaves_mpmath_unloaded():
    # numpy and mpmath both load on the first call that needs them, and the
    # records are NamedTuples and a slotted class, so dataclasses (with the
    # inspect it drags in) never loads; no submodule loads until a name is used,
    # and the version lives in the package's own file
    lines = _fresh_lines(f"import sys; before = set(sys.modules); import chaincp; {_ADDED}")
    assert lines == [str(["chaincp"])]


def test_a_bare_import_and_the_cli_never_load_the_name_table():
    # the table of public names compiles on the first public chaincp.<name>,
    # never in the import itself; the console script, `python -m chaincp.cli`
    # and `from chaincp import cli` load submodules, which the package's own
    # hook imports without the table
    lines = _fresh_lines("import sys, chaincp; "
                         "print(sorted({'_HOMES', '_HOME_OF'} & set(vars(chaincp)))); "
                         "from chaincp.cli import entry; "
                         "print('chaincp._namespace' in sys.modules)")
    assert lines == ["[]", "False"]
    lines = _fresh_lines("import sys, chaincp; from chaincp import cli; "
                         "print(chaincp.lattice is sys.modules['chaincp.lattice'], "
                         "'chaincp._namespace' in sys.modules)")
    assert lines == ["True False"]
    # `python -m chaincp.cli --help`, then the modules it left loaded
    lines = _fresh_lines("import runpy, sys; sys.argv = ['chaincp', '--help']\n"
                         "try:\n"
                         "    runpy.run_module('chaincp.cli', run_name='__main__', alter_sys=True)\n"
                         "except SystemExit:\n"
                         "    pass\n"
                         "print('chaincp.thermal' in sys.modules, 'chaincp._namespace' in sys.modules)")
    assert lines[-1] == "True False"


def test_the_package_names_every_submodule():
    package = Path(chaincp.__file__).parent
    files = {path.stem for path in package.glob("*.py")} - {"__init__"}
    assert set(chaincp._SUBMODULES) == files
    assert set(chaincp._namespace._HOMES) <= set(chaincp._SUBMODULES)
    assert set(dir(chaincp)) >= set(chaincp._SUBMODULES)


def test_a_closed_form_name_loads_only_its_home_modules():
    lines = _fresh_lines("import sys, chaincp; before = set(sys.modules); "
                         f"chaincp.cp_energy; {_ADDED}")
    assert lines == [str(["chaincp._namespace", "chaincp.casimir", "chaincp.errors",
                          "chaincp.lattice"])]


def test_the_lazy_namespace_is_complete_and_rejects_unknown_names():
    lines = _fresh_lines(
        "import sys, chaincp; before = set(sys.modules); "
        "print(hasattr(chaincp, 'no_such_name'), sorted(set(sys.modules) - before)); "
        "names = {}; exec('from chaincp import *', names); "
        "print(sorted(set(names) - {'__builtins__'}) == sorted(chaincp.__all__)); "
        "print(set(dir(chaincp)) >= set(chaincp.__all__))")
    assert lines == ["False ['chaincp._namespace']", "True", "True"]
    assert len(chaincp.__all__) == 26


def imported_names(module):
    """Every module and name that ``module``'s source imports, split at the dots."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
            names.add(getattr(node, "module", None) or "")
    return {part for name in names for part in name.split(".")}


def test_oracle_imports_nothing_from_the_closed_forms():
    # the oracles must share no algebra with what they check
    parts = imported_names(oracle)
    assert "lattice" in parts
    assert not parts & {"casimir", "perturbation"}


def test_thermal_imports_nothing_from_the_closed_forms():
    # the thermal layer is a model of the finite ring: its doublet, the ring
    # column's mean and half-splittings, must not fall back on the N -> inf
    # closed forms, which drop the ring image
    parts = imported_names(thermal)
    assert "_doublet_halves" in parts
    assert not parts & {"symmetric_spectrum_closed", "_edge_safe_root", "casimir"}


def test_package_has_no_assert_statements():
    # checks must survive python -O, which strips asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(chaincp.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
