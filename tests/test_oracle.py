import ast
import csv
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from dense_reference import dense_ground_energy, dense_hamiltonian, symmetric_hamiltonian
from mpmath import mp
from numpy.testing import assert_allclose

import chaincp
from chaincp import oracle
from chaincp.casimir import cp_energy
from chaincp.cli import ED_TOL
from chaincp.cli import main as cli_main
from chaincp.errors import ConvergenceError, InvalidRegime, NonConvergence
from chaincp.lattice import ChainParams, SymmetricSystem, brillouin_modes, dispersion
from chaincp.oracle import _ground_energy, cp_energy_ed, cp_energy_quadrature


def fig_system(delta=-1.0, J=0.3, lam=0.01, N=200):
    return SymmetricSystem.from_detuning(delta=delta, J=J, lam=lam, N=N)


def table_rows(path):
    return list(csv.DictReader(line for line in path.read_text().splitlines()
                               if not line.startswith("#")))


def test_matrix_shape_and_symmetry():
    chain = ChainParams(omega=2.0, J=0.3, N=6)
    h = dense_hamiltonian(chain, 0.9, 1.1, 0.01, 0.02, 3)
    assert h.shape == (15, 15)
    assert np.array_equal(h, h.T)


def test_matrix_entries():
    chain = ChainParams(omega=2.0, J=0.3, N=4)
    h = dense_hamiltonian(chain, 0.9, 1.1, 0.01, 0.02, 2)
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
    chain = ChainParams(omega=2.0, J=0.3, N=25)
    energies = np.linalg.eigvalsh(dense_hamiltonian(chain, 1.0, 1.0, 0.0, 0.0, 5))
    ring = np.sort(dispersion(chain, brillouin_modes(chain)))
    expected = np.sort(np.concatenate(([1.0, 1.0], ring)))
    assert_allclose(energies, expected, atol=1e-12)


def test_three_site_ring_eigenvalues():
    # N = 1: ring eigenvalues are omega - 2J and a double omega + J
    chain = ChainParams(omega=2.0, J=0.3, N=1)
    energies = np.linalg.eigvalsh(dense_hamiltonian(chain, 1.0, 1.0, 0.0, 0.0, 1))
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
    below = energies < sys_.chain.band_bottom
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
        for r in range(1, n + 1):
            dense = dense_ground_energy(sys_, r)
            worst = max(worst, abs(_ground_energy(sys_, r) - dense) / abs(dense))
    assert worst <= 1e-14


def test_ed_bracket_failure_is_a_convergence_error():
    with pytest.raises(ConvergenceError, match="does not change sign"):
        cp_energy_ed(fig_system(lam=math.nan, N=40), 1)


def test_reference_energy_is_solved_once_per_call(monkeypatch):
    solved = []

    def counting(sys_, r):
        solved.append(r)
        return _ground_energy(sys_, r)

    monkeypatch.setattr(oracle, "_ground_energy", counting)
    cp_energy_ed(fig_system(N=48), range(1, 6))
    assert solved == [24, 1, 2, 3, 4, 5]


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


def test_quadrature_point_budget():
    sys_ = fig_system(J=0.3)
    with pytest.raises(NonConvergence):
        cp_energy_quadrature(sys_, 1, max_points=64)


def test_quadrature_rejects_flat_band_and_bad_separation():
    with pytest.raises(InvalidRegime):
        cp_energy_quadrature(fig_system(J=0.0), 1)
    with pytest.raises(ValueError):
        cp_energy_quadrature(fig_system(), -1)


def test_quadrature_refinement_evaluates_each_node_once(monkeypatch):
    # a = -0.6, R = 1 converges on the 128-point grid: its 64 midpoints are
    # added to the 64 nodes already summed, and the odd part still sees
    # every node of [-pi, pi)
    sys_ = fig_system(J=0.3)
    sin_calls = []
    real_sin = mp.sin
    monkeypatch.setattr(mp, "sin", lambda x: sin_calls.append(x) or real_sin(x))
    value = cp_energy_quadrature(sys_, 1)
    monkeypatch.undo()
    assert len(sin_calls) == 128

    with mp.workdps(40):
        nodes = [-mp.pi + j * 2 * mp.pi / 128 for j in range(128)]
        direct = mp.mpf(sys_.lam) ** 2 / 128 * mp.fsum(
            mp.cos(k) / (sys_.delta + 2 * sys_.chain.J * mp.cos(k)) for k in nodes)
    assert value == pytest.approx(float(direct), rel=1e-15)


def test_quadrature_odd_part_residual_is_a_convergence_error(monkeypatch, tmp_path):
    # a sine that no longer cancels between k and -k leaves an imaginary part
    monkeypatch.setattr(mp, "sin", lambda x: mp.mpf(1))
    with pytest.raises(ConvergenceError, match="odd part"):
        cp_energy_quadrature(fig_system(), 1)
    code = cli_main(["--mode", "oracle-check", "--N", "40", "--rmax", "2",
                     "--output", str(tmp_path / "oracle.csv")])
    assert code == 4


def test_quadrature_odd_part_check_is_relative_to_the_value(monkeypatch):
    # E_cp(10) ~ 1e-54 at J = 1e-5: an imaginary residual of 1e-34 is tiny in
    # absolute terms but 1e20 times the value
    real_sin = mp.sin
    monkeypatch.setattr(mp, "sin", lambda x: real_sin(x) + mp.mpf(1e-30))
    with pytest.raises(ConvergenceError, match="odd part"):
        cp_energy_quadrature(fig_system(J=1e-5), 10)


@pytest.mark.parametrize("J,separations", [(0.3, range(0, 21)), (0.495, range(1, 21)),
                                           (1e-5, range(1, 11))],
                         ids=["a=-0.6", "a=-0.99", "J=1e-5"])
def test_quadrature_sweep_gives_the_floats_of_single_calls(J, separations):
    sys_ = fig_system(J=J)
    assert cp_energy_quadrature(sys_, separations) == tuple(
        cp_energy_quadrature(sys_, r) for r in separations)


def test_quadrature_sweep_keeps_each_separations_first_converged_estimate():
    # at a loose tolerance small R settle grids before R = 20 does, on an
    # estimate that later refinements would still move in its last bits
    sys_ = fig_system(J=0.495)
    sweep = cp_energy_quadrature(sys_, range(1, 21), rel_tol=1e-6)
    assert sweep == tuple(cp_energy_quadrature(sys_, r, rel_tol=1e-6) for r in range(1, 21))


def test_quadrature_keeps_its_digits_at_tiny_hopping():
    # q ~ 1e-5, so E_cp(10) ~ 1e-54 sits 50 digits below the integrand
    sys_ = fig_system(J=1e-5)
    for r, value in zip(range(6, 11), cp_energy_quadrature(sys_, range(6, 11))):
        assert value == pytest.approx(cp_energy(sys_, r), rel=1e-12)


def test_quadrature_sweep_names_the_separations_left_unconverged():
    # on a = -0.6 the 128-point grid settles R <= 18 only
    with pytest.raises(NonConvergence, match=r"at R=19, 20 without"):
        cp_energy_quadrature(fig_system(J=0.3), range(1, 21), max_points=128)


def test_quadrature_rejects_ranges_it_cannot_sweep():
    sys_ = fig_system()
    for bad in (range(3, 3), range(1, 9, 2), range(-1, 3)):
        with pytest.raises(ValueError):
            cp_energy_quadrature(sys_, bad)
    with pytest.raises(TypeError):
        cp_energy_quadrature(sys_, 1.0)


def test_oracle_check_makes_at_most_five_trig_calls_per_node(monkeypatch, tmp_path):
    # R = 1..10 on a = -0.6 settles on the 128-point grid; one quadrature
    # call per separation used to cost 3 per node per R, 3840 in all
    calls = []
    for name in ("cos", "sin"):
        real = getattr(mp, name)
        monkeypatch.setattr(mp, name, lambda x, real=real: calls.append(x) or real(x))
    code = cli_main(["--mode", "oracle-check", "--N", "40", "--rmax", "10",
                     "--output", str(tmp_path / "oracle.csv")])
    monkeypatch.undo()
    assert code == 0
    assert 0 < len(calls) <= 5 * 128


def test_oracle_check_at_tiny_hopping_finishes_with_the_quadrature_ok(tmp_path):
    # E_cp of 1e-19 .. 1e-54 lies below the float64 difference the ED
    # estimate is made of, so its column fails and the run exits 4, fast
    out = tmp_path / "oracle.csv"
    start = time.perf_counter()
    code = cli_main(["--mode", "oracle-check", "--J", "1e-5", "--N", "40", "--rmax", "10",
                     "--output", str(out)])
    assert time.perf_counter() - start < 5.0
    assert code == 4
    rows = table_rows(out)
    assert len(rows) == 10
    assert all(row["quad_ok"] == "1" for row in rows)
    assert any(row["ed_ok"] == "0" for row in rows)


def test_oracle_check_survives_a_closed_form_that_underflows(tmp_path):
    # from R = 64 on, E_cp ~ 1e-4 * 1e-5**R is below the smallest subnormal:
    # closed form and quadrature both give 0.0, which is a match, not a
    # division by zero
    out = tmp_path / "oracle.csv"
    code = cli_main(["--mode", "oracle-check", "--J", "1e-5", "--N", "264", "--rmax", "66",
                     "--output", str(out)])
    assert code == 4
    rows = table_rows(out)
    assert [float(row["closed"]) for row in rows[-3:]] == [0.0, 0.0, 0.0]
    assert all(row["quad_ok"] == "1" for row in rows)


def test_importing_the_package_leaves_mpmath_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(chaincp.__file__).parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, chaincp; print('mpmath' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_package_has_no_assert_statements():
    # checks must survive python -O, which strips asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(chaincp.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
