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

import chaincp
from chaincp import oracle
from chaincp.casimir import cp_energy
from chaincp.cli import ED_TOL
from chaincp.cli import main as cli_main
from chaincp.errors import ConvergenceError, InvalidRegime, NonConvergence
from chaincp.lattice import SymmetricSystem, brillouin_modes, dispersion
from chaincp.oracle import _even_shift, _impurity_level, cp_energy_ed, cp_energy_quadrature


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
    band = np.sort(dispersion(chain, brillouin_modes(chain)))
    expected = np.sort(np.concatenate(([1.0, 1.0], band)))
    assert_allclose(energies, expected, atol=1e-12)


def test_three_site_ring_eigenvalues():
    # N = 1: ring eigenvalues are omega - 2J and a double omega + J
    energies = np.linalg.eigvalsh(dense_hamiltonian(ring(1), 1.0, 1.0, 0.0, 0.0, 1))
    assert_allclose(energies, [1.0, 1.0, 1.4, 2.3, 2.3], atol=1e-13)


def test_diagonalisation_is_deterministic():
    # a fresh but equal system, solved from scratch, must give the same bits
    sys_ = fig_system(N=40)
    values = [cp_energy_ed(sys_, r) for r in (1, 2, 3)]
    again = [cp_energy_ed(fig_system(N=40), r) for r in (1, 2, 3)]
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


@pytest.mark.parametrize("sys_", [fig_system(N=400), fig_system(J=0.499, lam=0.001, N=400)],
                         ids=["a=-0.6", "a=-0.998"])
def test_real_space_level_matches_the_mode_sum_bisection(sys_):
    # the ring column in real space against the secular equation summed over
    # the 801 ring modes in momentum space, bisected down to adjacent floats
    x1, column = _impurity_level(sys_)
    for r in range(1, 101):
        ground = x1 + _even_shift(sys_, x1, column, r)
        assert ground == pytest.approx(scalar_ground_energy(sys_, r), rel=1e-14)


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


@pytest.mark.parametrize("J,lam", [(0.3, 0.01), (0.45, 0.1)])
def test_ed_matches_fifty_digit_secular_roots(J, lam):
    sys_ = fig_system(J=J, lam=lam, N=40)
    seps = range(1, 11)
    with warnings.catch_warnings():
        # lam / gap = 1 at J = 0.45: the systematic warning is about the closed form
        warnings.simplefilter("ignore", UserWarning)
        values = cp_energy_ed(sys_, seps)
    for value, exact in zip(values, mp_secular_shifts(sys_, seps)):
        assert value == pytest.approx(exact, rel=1e-13)


def test_ed_fixed_point_that_alternates_between_two_floats_returns(monkeypatch):
    # at a = -0.998 the shift at R = 45 ends alternating between two floats
    # 1.8e-19 (2e-13 of the shift) apart: a step that no longer shrinks ends it
    iterates = []
    real_fixed_point = oracle._fixed_point

    def recording(update, x, where):
        return real_fixed_point(lambda y: iterates.append(update(y)) or iterates[-1], x, where)

    monkeypatch.setattr(oracle, "_fixed_point", recording)
    sys_ = fig_system(J=0.499, lam=0.001, N=400)
    x1, column = _impurity_level(sys_)
    iterates.clear()
    value = _even_shift(sys_, x1, column, 45)
    assert iterates[-1] == iterates[-3] != iterates[-2]
    assert math.isfinite(value)
    assert value == pytest.approx(cp_energy(sys_, 45), rel=0.05)


def test_ed_non_finite_iterate_is_a_convergence_error(monkeypatch):
    # the constructor refuses a NaN coupling, so plant one past it to reach
    # the fixed point's own check
    sys_ = fig_system(N=40)
    object.__setattr__(sys_, "lam", math.nan)
    with pytest.raises(ConvergenceError, match=r"reached nan at the single-impurity level, N=40$"):
        cp_energy_ed(sys_, 1)
    # a ring column poisoned past site 2 spoils every shift but not the level
    real_column = oracle._ring_column

    def poisoned(sys_, x):
        column = real_column(sys_, x)
        column[3] = math.nan
        return column

    monkeypatch.setattr(oracle, "_ring_column", poisoned)
    with pytest.raises(ConvergenceError, match=r"reached nan at R=1, N=40$"):
        cp_energy_ed(fig_system(N=40), range(1, 3))


def test_ed_step_cap_is_a_convergence_error(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_STEPS", 2)
    with pytest.raises(ConvergenceError, match=r"did not settle in 2 steps"):
        cp_energy_ed(fig_system(N=40), 1)


@pytest.mark.parametrize("N", [40, 400, 20000])
def test_ed_sweep_gives_the_floats_of_single_calls(N):
    sys_ = fig_system(N=N)
    assert cp_energy_ed(sys_, range(1, 6)) == tuple(cp_energy_ed(sys_, r) for r in range(1, 6))


def test_ed_rejects_ranges_it_cannot_sweep():
    sys_ = fig_system(N=40)
    for bad in (range(3, 3), range(1, 9, 2), range(-1, 3), range(0, 3), range(1, 12)):
        with pytest.raises(ValueError):
            cp_energy_ed(sys_, bad)
    with pytest.raises(TypeError):
        cp_energy_ed(sys_, 1.0)


def test_ed_sweep_warns_for_each_separation():
    # lam / gap = 0.25 puts every separation over the 5% systematic bound
    sys_ = fig_system(lam=0.1, N=80)
    with pytest.warns(UserWarning) as swept:
        cp_energy_ed(sys_, range(1, 4))
    with pytest.warns(UserWarning) as single:
        for r in range(1, 4):
            cp_energy_ed(sys_, r)
    assert len(swept) == 3
    assert [str(w.message) for w in swept] == [str(w.message) for w in single]


def test_ed_reaches_chains_too_large_for_a_dense_matrix():
    # the dense matrix would be 40003^2 doubles, about 12.8 GB
    sys_ = fig_system(N=20000)
    for r in range(1, 6):
        closed = cp_energy(sys_, r)
        assert abs(cp_energy_ed(sys_, r) - closed) / abs(closed) < ED_TOL


def test_oracle_check_runs_at_large_n(tmp_path):
    out = tmp_path / "oracle.csv"
    code = cli_main(["--mode", "oracle-check", "--N", "20000", "--rmax", "10",
                     "--output", str(out)])
    assert code == 0


def test_ed_energy_matches_closed_form():
    sys_ = fig_system(N=200)
    for r in (1, 2, 3):
        ed = cp_energy_ed(sys_, r)
        closed = cp_energy(sys_, r)
        assert abs(ed - closed) / abs(closed) < 1e-2


def test_ed_systematics_shrink_with_chain_length():
    # the N-dependent part of the estimate is the ring image, geometric in
    # N; past that it settles onto its (N-independent) fourth-order floor
    values = [cp_energy_ed(fig_system(N=n), 2) for n in (8, 16, 32, 64)]
    drifts = [abs(v2 - v1) for v1, v2 in zip(values, values[1:])]
    assert drifts[0] > drifts[1] > drifts[2]
    assert drifts[2] < 1e-10


def test_ed_separation_cap():
    sys_ = fig_system(N=40)
    with pytest.raises(ValueError):
        cp_energy_ed(sys_, 11)  # N // 4 = 10


def test_ed_scaling_is_quadratic_up_to_fourth_order():
    # doubling the coupling must quadruple the second-order energy; the
    # diagonalisation keeps all orders, so allow twice the fourth-order
    # fraction (lam/gap)^2 of the stronger coupling as slack
    weak = cp_energy_ed(fig_system(lam=0.01, N=120), 2)
    strong = cp_energy_ed(fig_system(lam=0.02, N=120), 2)
    slack = 2.0 * (0.02 / 0.4) ** 2
    assert abs(strong / weak - 4.0) / 4.0 < slack


def test_ed_warns_when_systematics_bite():
    # lam / gap = 0.25: fourth-order term (lam/gap)^2 > 5%
    sys_ = fig_system(lam=0.1, N=80)
    with pytest.warns(UserWarning):
        cp_energy_ed(sys_, 1)


@pytest.mark.parametrize("J,R", [(0.3, 1), (0.3, 5), (0.4, 3), (0.45, 2)])
def test_quadrature_matches_closed_form(J, R):
    sys_ = fig_system(J=J)
    assert cp_energy_quadrature(sys_, R) == pytest.approx(cp_energy(sys_, R), rel=1e-12)


def test_quadrature_survives_deep_cancellation():
    # at R = 20 the integrand's mean is nine orders above the answer; a
    # float64 accumulation would be stuck near 1e-7 relative error
    sys_ = fig_system(J=0.3)
    assert cp_energy_quadrature(sys_, 20) == pytest.approx(cp_energy(sys_, 20), rel=1e-12)


def test_quadrature_at_zero_separation_gives_the_shift_scale():
    # R = 0 closes the integral to lam^2 / (delta sqrt(1 - a^2))
    sys_ = fig_system(J=0.3)
    expected = sys_.lam ** 2 / (sys_.delta * math.sqrt(1.0 - sys_.a ** 2))
    assert cp_energy_quadrature(sys_, 0) == pytest.approx(expected, rel=1e-12)


def test_quadrature_point_budget(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_POINTS", 64)
    sys_ = fig_system(J=0.3)
    with pytest.raises(NonConvergence):
        cp_energy_quadrature(sys_, 1)


def test_quadrature_rejects_flat_band_and_bad_separation():
    with pytest.raises(InvalidRegime):
        cp_energy_quadrature(fig_system(J=0.0), 1)
    with pytest.raises(ValueError):
        cp_energy_quadrature(fig_system(), -1)


def test_quadrature_refinement_evaluates_each_node_once(monkeypatch):
    # a = -0.6, R = 1 converges on the 128-point grid.  Folded onto [0, pi],
    # its 64-point level has 33 nodes and the refinement adds 32 midpoints;
    # each level also makes one drift check, so mp.cos runs 33 + 32 + 2 times
    sys_ = fig_system(J=0.3)
    calls = {"cos": [], "sin": []}
    for name, seen in calls.items():
        real = getattr(mp, name)
        monkeypatch.setattr(mp, name, lambda x, real=real, seen=seen: seen.append(x) or real(x))
    value = cp_energy_quadrature(sys_, 1)
    monkeypatch.undo()
    assert len(calls["cos"]) == 67
    assert calls["sin"] == []

    # the fold must give the sum over every node of [-pi, pi)
    with mp.workdps(40):
        nodes = [-mp.pi + j * 2 * mp.pi / 128 for j in range(128)]
        direct = mp.mpf(sys_.lam) ** 2 / 128 * mp.fsum(
            mp.cos(k) / (sys_.delta + 2 * sys_.J * mp.cos(k)) for k in nodes)
    assert value == pytest.approx(float(direct), rel=1e-15)


def test_quadrature_recurrence_drift_is_a_convergence_error(monkeypatch, tmp_path):
    # every node lies in [0, pi], so only the drift check's direct cos(rmax k)
    # reaches past 4; a cosine that is wrong there no longer matches the recurrence
    real_cos = mp.cos
    monkeypatch.setattr(mp, "cos", lambda x: real_cos(x) + (x > 4) * mp.mpf("1e-3"))
    with pytest.raises(ConvergenceError, match="cosine recurrence drifted"):
        cp_energy_quadrature(fig_system(), range(1, 3))
    code = cli_main(["--mode", "oracle-check", "--N", "40", "--rmax", "2",
                     "--output", str(tmp_path / "oracle.csv")])
    assert code == 4


def test_quadrature_drift_check_is_relative_to_the_value(monkeypatch):
    # E_cp(10) ~ 1e-54 at J = 1e-5: the recurrence turns a 1e-30 error in
    # cos k into a drift that is tiny in absolute terms but 1e20 times the value
    real_cos = mp.cos
    monkeypatch.setattr(mp, "cos", lambda x: real_cos(x) + mp.mpf(1e-30))
    with pytest.raises(ConvergenceError, match="cosine recurrence drifted"):
        cp_energy_quadrature(fig_system(J=1e-5), range(1, 11))


@pytest.mark.parametrize("J,separations", [(0.3, range(0, 21)), (0.495, range(1, 21)),
                                           (1e-5, range(1, 11))],
                         ids=["a=-0.6", "a=-0.99", "J=1e-5"])
def test_quadrature_sweep_gives_the_floats_of_single_calls(J, separations):
    sys_ = fig_system(J=J)
    assert cp_energy_quadrature(sys_, separations) == tuple(
        cp_energy_quadrature(sys_, r) for r in separations)


def test_quadrature_sweep_keeps_each_separations_first_converged_estimate(monkeypatch):
    # at a loose tolerance small R settle grids before R = 20 does, on an
    # estimate that later refinements would still move in its last bits
    monkeypatch.setattr(oracle, "REFINEMENT_TOL", 1e-6)
    sys_ = fig_system(J=0.495)
    sweep = cp_energy_quadrature(sys_, range(1, 21))
    assert sweep == tuple(cp_energy_quadrature(sys_, r) for r in range(1, 21))


def test_quadrature_keeps_its_digits_at_tiny_hopping():
    # q ~ 1e-5, so E_cp(10) ~ 1e-54 sits 50 digits below the integrand
    sys_ = fig_system(J=1e-5)
    for r, value in zip(range(6, 11), cp_energy_quadrature(sys_, range(6, 11))):
        assert value == pytest.approx(cp_energy(sys_, r), rel=1e-12)


def test_quadrature_sweep_names_the_separations_left_unconverged(monkeypatch):
    # a 64-point grid agreeing with the 128-point one settles R <= 14 only:
    # from R = 15 on, 64 points are not past 4R + 4
    monkeypatch.setattr(oracle, "MAX_POINTS", 128)
    with pytest.raises(NonConvergence, match=r"at R=15, 16, 17, 18, 19, 20 without"):
        cp_energy_quadrature(fig_system(J=0.3), range(1, 21))


def test_quadrature_does_not_converge_on_an_alias():
    # a = -0.4: the 64- and 128-point rules both fold R = 150 onto
    # |150 - 128| = 22 and agree, on E_cp(22) instead of E_cp(150)
    sys_ = fig_system(J=0.2, lam=0.05, N=1000)
    assert cp_energy_quadrature(sys_, 150) == pytest.approx(cp_energy(sys_, 150), rel=1e-12)
    seps = range(140, 161)
    for r, value in zip(seps, cp_energy_quadrature(sys_, seps)):
        assert value == pytest.approx(cp_energy(sys_, r), rel=1e-12)


def test_oracle_check_far_separations_have_the_quadrature_ok(tmp_path):
    # the run exits 4 on its ed cells alone, and they are right: the level
    # sits at x1, not 0, which shifts the decay rate by a fourth-order
    # amount the closed form drops, exp(-140 * 0.00297) = 0.66 at R = 140
    out = tmp_path / "oracle.csv"
    with pytest.warns(UserWarning, match="rate shift") as caught:
        code = cli_main(["--mode", "oracle-check", "--delta=-1", "--J", "0.2", "--lambda",
                         "0.05", "--N", "1000", "--rmin", "140", "--rmax", "160",
                         "--output", str(out)])
    assert len(caught) == 21
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
    # R = 1..10 on a = -0.6 settles on the 128-point grid: 65 nodes of [0, pi]
    # and one drift check per level; one quadrature call per separation used
    # to cost 3 per node per R, 3840 in all
    calls = []
    for name in ("cos", "sin"):
        real = getattr(mp, name)
        monkeypatch.setattr(mp, name, lambda x, real=real: calls.append(x) or real(x))
    code = cli_main(["--mode", "oracle-check", "--N", "40", "--rmax", "10",
                     "--output", str(tmp_path / "oracle.csv")])
    monkeypatch.undo()
    assert code == 0
    assert len(calls) == 67


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


def test_importing_the_package_leaves_mpmath_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(chaincp.__file__).parents[1]), env.get("PYTHONPATH")]))
    # only what the import adds counts, so whatever site preloads cannot hide it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import chaincp; "
         "print(sorted({'dataclasses', 'inspect', 'numpy', 'mpmath'}"
         " & (set(sys.modules) - before)))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # numpy and mpmath both load on the first call that needs them, and the
    # records are NamedTuples and a slotted class, so dataclasses (with the
    # inspect it drags in) never loads
    assert proc.stdout.strip() == "[]"


def test_oracle_imports_nothing_from_the_closed_forms():
    # the oracles must share no algebra with what they check
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
            names.add(getattr(node, "module", None) or "")
    parts = {part for name in names for part in name.split(".")}
    assert "lattice" in parts
    assert not parts & {"casimir", "perturbation"}


def test_package_has_no_assert_statements():
    # checks must survive python -O, which strips asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(chaincp.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
