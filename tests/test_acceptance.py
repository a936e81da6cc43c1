"""Acceptance checks.

Each test pins one headline guarantee of the package at its stated
tolerance and prints a single PASS/FAIL line (visible with ``pytest -s``,
and mirrored by the verbose test name either way).  Tolerances are fixed
here on purpose; loosening them is a contract change, not a test fix.
"""

import json
import math

import numpy as np
from dense_reference import symmetric_hamiltonian

from chaincp.casimir import (
    continuum_decay_constant,
    cp_energy,
    decay_profile,
    ecp_force,
)
from chaincp.cli import main as cli_main
from chaincp.lattice import SymmetricSystem
from chaincp.oracle import cp_energy_quadrature
from chaincp.perturbation import symmetric_spectrum_closed, symmetric_spectrum_ksum
from chaincp.thermal import thermal_force


def system(delta=-1.0, J=0.3, lam=0.01, N=200):
    return SymmetricSystem.from_detuning(delta=delta, J=J, lam=lam, N=N)


def report(tag, ok, detail):
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def test_01_closed_form_matches_arbitrary_precision_quadrature():
    # relative agreement better than 1e-9 for both hoppings out to R = 20
    worst = 0.0
    for j in (0.3, 0.4):
        sys_ = system(J=j)
        for r in range(1, 21):
            closed = cp_energy(sys_, r)
            quad = cp_energy_quadrature(sys_, r)
            worst = max(worst, abs(quad - closed) / abs(closed))
    report("closed form vs quadrature", worst < 1e-9, f"worst rel err {worst:.3e}")


def test_02_closed_form_matches_finite_ksum_at_large_n():
    worst = 0.0
    for j in (0.3, 0.4):
        for r in (1, 2, 5):
            sys_ = system(J=j, N=2000)
            e_plus, e_minus = symmetric_spectrum_closed(sys_, r)
            spectrum = symmetric_spectrum_ksum(sys_, r)
            worst = max(worst,
                        abs(spectrum.e_plus - e_plus) / abs(e_plus),
                        abs(spectrum.e_minus - e_minus) / abs(e_minus))
    report("closed form vs k-sum (N=2000)", worst < 1e-8, f"worst rel err {worst:.3e}")


def test_03_exact_diagonalisation_confirms_doublet_splitting():
    sys_ = system(N=400)
    energies, vectors = np.linalg.eigh(symmetric_hamiltonian(sys_, 1))
    splitting = energies[1] - energies[0]
    rel = abs(splitting - 8.3333e-5) / 8.3333e-5
    overlap = abs(vectors[0, 0] + vectors[1, 0]) / math.sqrt(2.0)
    ok = rel < 0.01 and overlap > 0.999
    report("diagonalisation doublet splitting", ok,
           f"splitting rel err {rel:.3e}, even overlap {overlap:.6f}")


def test_04_force_decay_rate_from_regression():
    sys_ = system()  # a = -0.6, so the rate must be ln 3
    rs = np.arange(1, 16)
    logs = [math.log(abs(ecp_force(sys_, int(r)))) for r in rs]
    slope = np.polyfit(rs, logs, 1)[0]
    err = abs(slope + math.log(3.0))
    report("decay rate from regression", err < 1e-8, f"|slope + ln 3| = {err:.3e}")


def test_05_monotonicity_suite():
    stronger_with_hopping = all(
        all(f2 > f1 for f1, f2 in zip(forces, forces[1:]))
        for forces in (
            [abs(ecp_force(system(J=float(j)), r)) for j in np.linspace(0.01, 0.49, 25)]
            for r in (1, 2, 5)
        )
    )
    weaker_with_detuning = all(
        all(f2 < f1 for f1, f2 in zip(forces, forces[1:]))
        for forces in (
            [abs(ecp_force(system(delta=float(d)), r)) for d in np.linspace(-0.7, -3.0, 25)]
            for r in (1, 2, 5)
        )
    )
    gammas = [decay_profile(system(J=-float(a) / 2.0)).gamma
              for a in np.linspace(-0.99, -0.01, 100)]
    rate_rises_off_the_edge = all(g2 > g1 for g1, g2 in zip(gammas, gammas[1:]))
    ok = stronger_with_hopping and weaker_with_detuning and rate_rises_off_the_edge
    report("monotonicity suite", ok,
           f"J-grid {stronger_with_hopping}, delta-grid {weaker_with_detuning}, "
           f"a-grid {rate_rises_off_the_edge}")


def test_06_continuum_limit_validity_window():
    near = system(J=0.45)   # a = -0.9, just below the edge
    gap_near = abs(continuum_decay_constant(near) - decay_profile(near).gamma) \
        / decay_profile(near).gamma
    far = system(J=0.3)     # a = -0.6, deep below the band
    gap_far = abs(continuum_decay_constant(far) - decay_profile(far).gamma) \
        / decay_profile(far).gamma
    ok = gap_near < 0.02 and gap_far > 0.04
    report("continuum validity window", ok,
           f"near-edge gap {gap_near:.4f} (< 0.02), deep gap {gap_far:.4f} (> 0.04)")


def test_07_thermal_force_limits_and_ordering():
    # cold limit: the force at R rides on the splitting at R + 1, and
    # kT = 1e-6 stays 13.8 e-foldings below that splitting out to R = 5 at
    # these parameters; past there the splitting sinks under kT and the
    # static force genuinely stops being the limit
    sys_ = SymmetricSystem.from_detuning(delta=-1.0, J=0.3, lam=0.1, N=100)
    worst = max(
        abs(thermal_force(sys_, 1e-6, r) - ecp_force(sys_, r)) / abs(ecp_force(sys_, r))
        for r in range(1, 6)
    )
    cold_limit_ok = worst < 1e-6

    ordered = True
    for n in (100, 200, 400):
        sys_n = SymmetricSystem.from_detuning(delta=-1.0, J=0.3, lam=0.1, N=n)
        for r in range(1, 9):
            f0 = abs(thermal_force(sys_n, 0.0, r))
            f1 = abs(thermal_force(sys_n, 0.1, r))
            f2 = abs(thermal_force(sys_n, 1.0, r))
            ordered = ordered and f0 >= f1 >= f2
    ok = cold_limit_ok and ordered
    report("thermal cold limit and ordering", ok,
           f"cold-limit worst rel err {worst:.3e}, |f| ordering {ordered}")


def test_08_degenerate_limits_are_exact():
    flat = system(J=0.0)
    flat_ok = (cp_energy(flat, 3) == 0.0 and ecp_force(flat, 3) == 0.0
               and decay_profile(flat).gamma == math.inf)

    decoupled = system(lam=0.0, N=50)
    energies = np.linalg.eigvalsh(symmetric_hamiltonian(decoupled, 1))
    ring = np.sort(decoupled.chain.omega
                   - 2.0 * decoupled.chain.J
                   * np.cos(2.0 * np.pi * np.arange(-50, 51) / 101))
    expected = np.sort(np.concatenate(([1.0, 1.0], ring)))
    decoupling_dev = float(np.max(np.abs(energies - expected)))
    decoupled_ok = decoupling_dev < 1e-12

    ok = flat_ok and decoupled_ok
    report("degenerate limits", ok,
           f"flat band exact {flat_ok}, decoupling max dev {decoupling_dev:.3e}")


def test_09_cli_output_is_deterministic_and_exact(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = cli_main(["--preset", "fig2", "--output", str(a)])
    code_b = cli_main(["--preset", "fig2", "--output", str(b)])
    identical = code_a == code_b == 0 and a.read_bytes() == b.read_bytes()

    j = tmp_path / "a.json"
    code_j = cli_main(["--preset", "fig2", "--format", "json", "--output", str(j)])
    doc = json.loads(j.read_text())
    exact = code_j == 0
    for row in doc["rows"]:
        sys_ = system(J=row[0], delta=row[1])
        exact = exact and row[3] == cp_energy(sys_, int(row[2])) \
            and row[4] == ecp_force(sys_, int(row[2]))

    ok = identical and exact
    report("CLI determinism and round trip", ok,
           f"byte-identical {identical}, JSON rows exact {exact}")
