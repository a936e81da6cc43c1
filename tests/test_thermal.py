import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import dense_reference
import numpy as np
import pytest
from mpmath import mp, mpf

import chaincp
from chaincp import _ring, perturbation, thermal
from chaincp._ring import _doublet_halves, _ring_column, _ring_entry
from chaincp.casimir import ecp_force
from chaincp.cli import CANCEL_EPS, main
from chaincp.lattice import SymmetricSystem, brillouin_modes, dispersion
from chaincp.perturbation import band_energies, symmetric_spectrum_ksum
from chaincp.thermal import (
    ThermalRow,
    _growth_violations,
    thermal_energy,
    thermal_ensemble,
    thermal_force,
    thermal_table,
)


def fig_system(delta=-1.0, J=0.3, lam=0.1, N=100):
    """Thermal-figure parameters: stronger coupling, modest chain."""
    return SymmetricSystem(delta=delta, J=J, lam=lam, N=N)


def brute_average(sys_, T, R):
    """Plain-float Boltzmann average over the explicit level list, from ``eps0``.

    The band comes from ``omega`` in absolute energies, minus ``eps0``.
    """
    e_plus, e_minus = symmetric_spectrum_ksum(sys_, R)
    levels = [e_plus, e_minus]
    ns = sys_.num_sites
    gsq = sys_.lam ** 2 / ns
    for n in range(-sys_.N, sys_.N + 1):
        offset = sys_.omega - 2.0 * sys_.J * math.cos(2.0 * math.pi * n / ns) - sys_.eps0
        levels.append(offset + 2.0 * gsq / offset)
    beta = 1.0 / T
    weights = [math.exp(-beta * e) for e in levels]
    z = sum(weights)
    return sum(w * e for w, e in zip(weights, levels)) / z


def test_zero_temperature_recovers_the_ground_level():
    sys_ = fig_system(N=60)
    m, (h,) = _doublet_halves(sys_, range(1, 2))
    assert thermal_energy(sys_, 0.0, 1) == m - h
    # the spectrum's doublets are the kernel's m -+ h to the bit, at every R
    seps = range(1, sys_.N + 1)
    m, halves = _doublet_halves(sys_, seps)
    assert [symmetric_spectrum_ksum(sys_, r) for r in seps] == [(m - h, m + h) for h in halves]


def test_zero_temperature_force_matches_the_ground_state_force():
    # at T = 0 the force is the ring's h_{R+1} - h_R, which the closed form
    # approximates up to the ring image, far below 1e-11 at N = 200
    for lam in (0.1, 0.01):
        sys_ = fig_system(lam=lam, N=200)
        for row in thermal_table(sys_, (0.0,), range(1, 9)):
            assert row.force == pytest.approx(ecp_force(sys_, row.R), rel=1e-11, abs=0)


def test_zero_temperature_force_keeps_its_digits_at_large_separation():
    # the force is a difference of two half-splittings ~lam^2 q^R, never of two
    # energies ~lam^2/|delta|, so it keeps its digits as it falls
    sys_ = fig_system(N=200)
    for row in thermal_table(sys_, (0.0,), range(15, 31)):
        # abs=0: approx's default 1e-12 floor would pass every force here (< 2e-9)
        assert row.force == pytest.approx(ecp_force(sys_, row.R), rel=1e-9, abs=0), row.R


def test_infinite_temperature_is_the_uniform_average():
    sys_ = fig_system(N=40)
    ens = thermal_ensemble(sys_, math.inf, 1)
    size = len(ens.energies)
    assert np.allclose(ens.weights, np.full(size, 1.0 / size), rtol=0, atol=1e-15)
    mean = math.fsum(ens.energies) / size
    assert thermal_energy(sys_, math.inf, 1) == pytest.approx(mean, rel=1e-12, abs=0)


@pytest.mark.parametrize("T", [0.0, 0.1, math.inf])
def test_ensemble_average_is_the_thermal_energy(T):
    # the same levels; at T = 0 the same one, else weighted and summed in
    # another order, a few ulp apart
    sys_ = fig_system(N=40)
    ens = thermal_ensemble(sys_, T, 2)
    average = math.fsum(w * e for w, e in zip(ens.weights, ens.energies))
    if T == 0:
        assert average == thermal_energy(sys_, T, 2)
    assert average == pytest.approx(thermal_energy(sys_, T, 2), rel=CANCEL_EPS, abs=0)


def test_infinite_temperature_force_vanishes():
    sys_ = fig_system(N=60)
    assert abs(thermal_force(sys_, math.inf, 2)) < 1e-12


@pytest.mark.parametrize("T", [0.05, 0.5, 2.0])
def test_thermal_energy_matches_direct_average(T):
    sys_ = fig_system(N=30)
    assert thermal_energy(sys_, T, 2) == pytest.approx(brute_average(sys_, T, 2), rel=1e-12, abs=0)


def test_weights_are_a_distribution():
    sys_ = fig_system(N=50)
    for temp in (0.0, 0.01, 0.3, 5.0, math.inf):
        ens = thermal_ensemble(sys_, temp, 1)
        assert np.all(np.asarray(ens.weights) >= 0.0)
        assert math.fsum(ens.weights) == pytest.approx(1.0, rel=1e-13, abs=0)


def test_zero_temperature_weights_concentrate():
    ens = thermal_ensemble(fig_system(N=30), 0.0, 1)
    assert ens.weights[0] == 1.0
    assert np.all(np.asarray(ens.weights[1:]) == 0.0)


def test_flat_band_doublet_shares_weight_at_zero_temperature():
    # J = 0 leaves the doublet exactly degenerate
    ens = thermal_ensemble(fig_system(J=0.0, N=30), 0.0, 1)
    assert ens.weights[0] == ens.weights[1] == 0.5


def test_spectrum_ordering():
    ens = thermal_ensemble(fig_system(N=50), 0.2, 1)
    energies = ens.energies
    assert energies[0] < energies[1] < min(energies[2:])


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
        assert thermal_force(sys_, 1e-6, r) == pytest.approx(ecp_force(sys_, r), rel=1e-6, abs=0)
    for r in range(1, 11):
        assert thermal_force(sys_, 1e-9, r) == pytest.approx(ecp_force(sys_, r), rel=1e-6, abs=0)


def test_decoupled_impurities_feel_no_thermal_force():
    sys_ = fig_system(lam=0.0, N=40)
    for temp in (0.0, 0.1, 1.0, math.inf):
        assert thermal_force(sys_, temp, 3) == 0.0


def test_force_vs_temperature_sweep():
    # a temperature sweep at one R is the table over the one-R range
    sys_ = fig_system(N=100)
    rows = thermal_table(sys_, (0.0, 0.1, 1.0), range(2, 3))
    assert [row.T for row in rows] == [0.0, 0.1, 1.0]
    for row in rows:
        assert row.force == thermal_force(sys_, row.T, 2)
    assert _growth_violations(rows) == ()


def test_force_can_grow_below_the_doublet_splitting():
    # fig5 at N = 100: the doublet at R = 2 is split less than at R = 1, so
    # its odd level fills first and |f_T(1)| rises until T passes the splitting
    rows = thermal_table(fig_system(N=100), (0.0, 0.001, 0.003, 0.01), range(1, 2))
    forces = [abs(row.force) for row in rows]
    assert forces == pytest.approx([0.002778, 0.002938, 0.003078, 0.001450], abs=5e-7)
    found = _growth_violations(rows)
    assert len(found) == 2
    assert "at T=0 " in found[0] and "at T=0.001" in found[0]
    assert "at T=0.001 " in found[1] and "at T=0.003" in found[1]


def test_tiny_temperature_below_zero_energy_raises_no_warning():
    # a level below zero at T = 1e-300: exp(-E_min / T) is far beyond float
    # range, and nothing may compute it
    sys_ = SymmetricSystem(delta=-1.0, J=0.3, lam=0.1, N=50, eps0=-1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = thermal_table(sys_, (0.0, 1e-300, 1e-3), range(1, 6))
    assert all(math.isfinite(row.energy) and math.isfinite(row.force) for row in rows)


def thermal_sweep_with_warnings_as_errors(*args):
    """``chaincp --mode thermal-sweep`` under ``python -W error``, table to stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(chaincp.__file__).parents[1]), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "chaincp.cli", "--mode", "thermal-sweep",
         *args, "-o", "-"],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_thermal_sweep_survives_python_warnings_as_errors(tmp_path):
    proc = thermal_sweep_with_warnings_as_errors(
        "--eps0", "-1", "--temperatures", "0,1e-300,1e-3", "--N", "50", "--rmax", "5",
        "--lambda", "0.1")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("T", [1e-310, 5e-324])
def test_subnormal_temperature_is_the_zero_temperature_limit(T):
    # 1 / T overflows to inf here, which is the T = 0 limit, not a NaN
    sys_ = fig_system(N=20)
    rows = thermal_table(sys_, (0.0, T), range(1, 4))
    ground, cold = rows[:3], rows[3:]
    assert [(r.energy, r.force) for r in cold] == [(r.energy, r.force) for r in ground]


def test_subnormal_temperatures_survive_python_warnings_as_errors():
    proc = thermal_sweep_with_warnings_as_errors(
        "--N", "20", "--rmax", "2", "--temperatures", "0,5e-324,1e-310")
    assert proc.returncode == 0, proc.stderr
    assert "nan" not in proc.stdout


def rows_at(energy, forces, temps=(0.0, 0.1, 0.2, 1.0)):
    """Thermal rows at one separation, all with the same energy."""
    return [ThermalRow(T=t, R=1, energy=energy, force=f) for t, f in zip(temps, forces)]


def test_growth_checker_flags_each_rise_beyond_noise():
    records = rows_at(1.0, (-1e-3, -2e-3, -2e-3 - 5e-16, 3e-3))
    found = _growth_violations(records)
    # 1e-3 -> 2e-3 and 2e-3 -> 3e-3 grew; the 5e-16 step is noise
    assert len(found) == 2
    assert "at T=0 " in found[0] and "at T=0.1" in found[0]
    assert "at T=0.2 " in found[1] and "at T=1" in found[1]
    assert _growth_violations(records[:1]) == ()
    # forces far below an ulp of the energy still grow: fig5 at N = 100 and
    # T = 1 has |f_T| < 2e-16 from R = 11 on, next to energies ~0.8
    tiny = _growth_violations(rows_at(0.8, (-1e-20, -2e-20, -2e-20 * (1 + 1e-13))))
    assert len(tiny) == 1 and "at T=0 " in tiny[0] and "at T=0.1" in tiny[0]


@pytest.mark.parametrize("scale,grows", [(1e3, False), (1e-3, True)])
def test_growth_noise_scales_with_the_energies(scale, grows):
    # Energies and forces of size `scale` scale together, and so does the
    # noise: growth within FORCE_RTOL of the force is noise.  An absolute
    # 1e-15 would flag the 1e-13 step on a force of 1 (noise ~1e-12) and miss
    # the 1e-16 step on a force of 1e-6 (noise ~1e-18).
    step = 1e-13 if scale > 1 else 1e-16
    force = -1e-3 * scale
    found = _growth_violations(rows_at(scale, (force, force - step), temps=(0.0, 0.1)))
    assert len(found) == (1 if grows else 0)


def test_force_vs_temperature_validates_the_grid(tmp_path):
    # the table refuses a negative temperature, and so the CLI; an unsorted
    # grid runs, its rows in the order given
    out = tmp_path / "thermal.csv"
    argv = ["--mode", "thermal-sweep", "--N", "20", "--rmax", "2", "--output", str(out)]
    assert main([*argv, "--temperatures=-0.1,0.2"]) == 2
    with pytest.raises(ValueError):
        thermal_table(fig_system(), (-0.1, 0.2), range(1, 2))
    assert main([*argv, "--temperatures=0.1,0"]) == 0
    lines = [line.split(",") for line in out.read_text().splitlines()
             if not line.startswith("#")][1:]
    assert [(float(t), int(r)) for t, _, r, _, _ in lines] == \
        [(0.1, 1), (0.1, 2), (0.0, 1), (0.0, 2)]


def test_thermal_sweep_keeps_the_ring_image(tmp_path):
    # the doublet comes from the same ring of 2N + 1 sites as the band, so at
    # T = 0 the force is the ring's own h_{R+1} - h_R, h_R = lam^2 g_R; the
    # N -> inf doublet is 0.14%, 1.25% and 12.5% off it at R = 17, 18 and 19
    out = tmp_path / "thermal.csv"
    assert main(["--mode", "thermal-sweep", "--N", "20", "--rmin", "17", "--rmax", "19",
                 "--temperatures", "0", "--output", str(out)]) == 0
    lines = [line.split(",") for line in out.read_text().splitlines()
             if not line.startswith("#")][1:]
    sys_ = SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, N=20)
    column, lam_sq = _ring_column(sys_, 0.0), sys_.lam ** 2
    assert [(int(r), float(force)) for _, _, r, _, force in lines] == \
        [(r, lam_sq * _ring_entry(column, r + 1) - lam_sq * _ring_entry(column, r))
         for r in range(17, 20)]


def test_band_dilution_weakens_the_warm_force():
    # more band states at the same temperature means less weight on the
    # doublet, so the finite-T force falls with chain length while the
    # T = 0 force does not move at all
    f_small = thermal_force(fig_system(N=100), 1.0, 1)
    f_large = thermal_force(fig_system(N=400), 1.0, 1)
    assert abs(f_large) < abs(f_small)
    assert thermal_force(fig_system(N=100), 0.0, 1) == \
        pytest.approx(thermal_force(fig_system(N=400), 0.0, 1), rel=1e-12, abs=0)


def test_table_rows_match_the_single_point_functions_bit_for_bit():
    sys_ = fig_system(N=40)
    temps = (0.0, 0.05, 1.0, math.inf)
    rows = thermal_table(sys_, temps, range(2, 7))
    assert [(row.T, row.R) for row in rows] == [(t, r) for t in temps for r in range(2, 7)]
    for row in rows:
        energy_next = thermal_energy(sys_, row.T, row.R + 1)
        assert row.energy == thermal_energy(sys_, row.T, row.R)
        assert row.force == thermal_force(sys_, row.T, row.R)
        # the force is the energies' difference, taken where it does not cancel:
        # the two differ by no more than the rounding of the difference
        assert abs(row.force + (energy_next - row.energy)) <= CANCEL_EPS * abs(row.energy)


def test_table_checks_its_grid():
    sys_ = fig_system(N=10)
    with pytest.raises(ValueError, match="R <= 9, got R=10"):
        thermal_table(sys_, (0.0,), range(1, 11))
    with pytest.raises(ValueError, match="non-empty range"):
        thermal_table(sys_, (0.0,), range(3, 3))
    with pytest.raises(ValueError):
        thermal_table(sys_, (0.0,), range(0, 3))
    with pytest.raises(ValueError, match="non-negative"):
        thermal_table(sys_, (0.0, -1.0), range(1, 3))


@pytest.mark.parametrize("call", [
    lambda s: thermal_energy(s, math.nan, 1),
    lambda s: thermal_force(s, math.nan, 1),
    lambda s: thermal_ensemble(s, math.nan, 1),
    lambda s: thermal_table(s, (0.0, math.nan), range(1, 3)),
    lambda s: _growth_violations(thermal_table(s, [0.0, math.nan, 0.1], range(1, 2))),
], ids=["energy", "force", "ensemble", "table", "sweep"])
def test_nan_temperature_is_refused(call):
    with pytest.raises(ValueError, match="non-negative"):
        call(fig_system(N=20))


def test_infinite_temperature_stays_legal_in_the_table():
    sys_ = fig_system(N=20)
    (row,) = thermal_table(sys_, (math.inf,), range(2, 3))
    assert row.force == thermal_force(sys_, math.inf, 2)
    assert abs(row.force) < 1e-12


def test_thermal_sweep_builds_each_band_and_ensemble_once(tmp_path, monkeypatch):
    # one ring column per chain; per (chain, T), one walk of the band for both
    # of its sums, and never an explicit band, spectrum or ensemble
    columns, sums, walks = Counter(), Counter(), Counter()

    def counting(counter, fn, key):
        def wrapper(*args, **kwargs):
            counter[key(*args)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def forbidden(*args):
        raise AssertionError("the thermal kernel built an explicit band or spectrum")

    monkeypatch.setattr(_ring, "_ring_column",
                        counting(columns, _ring._ring_column,
                                 lambda sys_, *_, **kw: sys_.N))
    monkeypatch.setattr(thermal, "_band_sums",
                        counting(sums, thermal._band_sums, lambda sys_, m, beta: (sys_.N, beta)))
    monkeypatch.setattr(perturbation, "_band_runs",
                        counting(walks, perturbation._band_runs, lambda sys_, m: sys_.N))
    for name in ("band_energies", "thermal_ensemble"):
        monkeypatch.setattr(thermal, name, forbidden)
    monkeypatch.setattr(perturbation, "symmetric_spectrum_ksum", forbidden)
    out = tmp_path / "thermal.csv"
    assert main(["--mode", "thermal-sweep", "--n-values", "50,100", "--lambda", "0.1",
                 "--temperatures", "0,0.1,1", "--rmin", "1", "--rmax", "8",
                 "--output", str(out)]) == 0
    assert columns == {50: 1, 100: 1}
    # T = 0 needs no band: only T = 0.1 and T = 1 sum it, walking it once each
    assert sums == {(n, beta): 1 for n in (50, 100) for beta in (10.0, 1.0)}
    assert walks == {50: 2, 100: 2}

    # the library table at one R gives the same floats, bit for bit
    lines = [line.split(",") for line in out.read_text().splitlines()
             if not line.startswith("#")][1:]
    for n in (50, 100):
        sys_ = fig_system(N=n)
        for r in (1, 5, 8):
            cli = [(float(t), float(force)) for t, nn, rr, _, force in lines
                   if int(nn) == n and int(rr) == r]
            rows = thermal_table(sys_, (0.0, 0.1, 1.0), range(r, r + 1))
            assert [(row.T, row.force) for row in rows] == cli


def mp_energies(sys_, T, seps):
    """``E_T(R)`` for ``R`` in ``seps``, a 60-digit Boltzmann average over the float levels.

    The levels are the doublet ``m -+ h_R`` (``m = -lam^2 g_0``, ``h_R = lam^2
    g_R``, floats read off the ring column) and the band of ``band_energies``;
    only the arithmetic is exact.  The band's terms are summed once per ``T``.
    """
    column, lam_sq = _ring_column(sys_, 0.0), sys_.lam ** 2
    with mp.workdps(60):
        m = mpf(-lam_sq * column[0])
        halves = {r: mpf(lam_sq * _ring_entry(column, r)) for r in seps}
        if T == 0:
            return {r: m - h for r, h in halves.items()}
        beta = 1 / mpf(T)
        band = [mpf(b) for b in band_energies(sys_)]
        weights = [mp.exp(-beta * (b - m)) for b in band]
        z = mp.fsum(weights)
        s = mp.fsum((b - m) * w for b, w in zip(band, weights))
        return {r: m + (h * (mp.exp(-beta * h) - mp.exp(beta * h)) + s)
                / (mp.exp(beta * h) + mp.exp(-beta * h) + z) for r, h in halves.items()}


@pytest.mark.parametrize("n", [100, 1000, 4000])
def test_forces_match_a_sixty_digit_average_at_fig5_parameters(n):
    # differencing two float energies made 33-43 of these 120 forces zero or
    # positive; every one is attractive, to 1e-12 of the exact average
    sys_ = fig_system(N=n)
    temps = (0.0, 0.01, 0.1, 1.0)
    rows = thermal_table(sys_, temps, range(1, 31))
    for t in temps:
        exact = mp_energies(sys_, t, range(1, 32))
        with mp.workdps(60):
            for row in (row for row in rows if row.T == t):
                assert row.force < 0.0, (t, row.R)
                force = float(exact[row.R] - exact[row.R + 1])
                assert row.force == pytest.approx(force, rel=1e-12, abs=0), (t, row.R)
                assert row.energy == pytest.approx(float(exact[row.R]), rel=1e-12, abs=0)


def _hex(values):
    return [float(v).hex() for v in values]


#: ``(delta, J, lam)``: fig5, the band edge, a wide band, a near-flat band.
BAND_PARAMETERS = [(-1.0, 0.3, 0.1), (-1.0, 0.499, 0.01), (-2.0, 0.6, 0.01), (-1.0, 1e-5, 0.01)]


@pytest.mark.parametrize("delta,J,lam", BAND_PARAMETERS, ids=["fig5", "edge", "wide", "flat"])
def test_the_band_is_the_numpy_band_bit_for_bit(delta, J, lam):
    # modes, dispersion and shifted levels, one mode at a time with math,
    # against the vectorised numpy expressions of tests/dense_reference.py
    for n in (1, 2, 3, 5, 10, 50, 100, 400, 1000, 4000, 20000):
        sys_ = SymmetricSystem(delta=delta, J=J, lam=lam, N=n)
        modes = brillouin_modes(sys_)
        expected = dense_reference.ring_modes(sys_)
        assert _hex(modes) == _hex(expected), n
        assert _hex(dispersion(sys_, k) for k in modes) == \
            _hex(dense_reference.ring_dispersion(sys_, expected)), n
        assert _hex(band_energies(sys_)) == _hex(dense_reference.shifted_band(sys_)), n


@pytest.mark.parametrize("delta,J,lam", BAND_PARAMETERS, ids=["fig5", "edge", "wide", "flat"])
def test_the_ensemble_is_the_numpy_ensemble(delta, J, lam):
    # the same levels bit for bit; math.exp against numpy's exp, a few 1e-16 apart
    for n in (1, 10, 400, 4000):
        sys_ = SymmetricSystem(delta=delta, J=J, lam=lam, N=n)
        for temp in (0.01, 0.1, 1.0, math.inf):
            ens = thermal_ensemble(sys_, temp, 1)
            energies, weights = dense_reference.ensemble(sys_, temp, 1)
            assert _hex(ens.energies) == _hex(energies), (n, temp)
            assert ens.weights == pytest.approx(weights.tolist(), rel=1e-15, abs=0), (n, temp)


def two_walk_sums(sys_, m, beta):
    """``(Z, S)`` as one ``math.fsum`` each, over a band walked once per sum, mode by mode.

    The levels are the band rule's float expression, written out here: mode 0
    counts once and every other mode twice.
    """
    delta, width, ns = sys_.delta, 2.0 * sys_.J, sys_.num_sites
    shift = 2.0 * (sys_.lam ** 2 / ns)

    def walk():
        for n in range(sys_.N + 1):
            offset = -(delta + width * math.cos(2.0 * math.pi * n / ns))
            yield (2.0 if n else 1.0), offset + shift / offset - m

    z = math.fsum(k * math.exp(-beta * x) for k, x in walk())
    s = math.fsum(k * x * math.exp(-beta * x) for k, x in walk())
    return z, s


RUN = perturbation._RUN


@pytest.mark.parametrize("N", [1, RUN - 1, RUN, RUN + 1, 2 * RUN, 4000])
@pytest.mark.parametrize("J,lam", [(0.3, 0.1), (0.499, 0.0005)], ids=["a=-0.6", "a=-0.998"])
def test_one_walk_gives_the_two_sums_of_two_walks_bit_for_bit(N, J, lam):
    # the runs' exact carry rounds once, at the end, as one fsum over every term
    # does: the same floats at every run boundary, and from a subnormal T whose
    # 1 / T is finite (every weight 0.0) up to T = inf (every weight 1.0)
    sys_ = fig_system(J=J, lam=lam, N=N)
    m, _ = _doublet_halves(sys_, range(1, 2))
    for T in (1e-308, 1e-3, 0.01, 1.0, math.inf):
        beta = 1.0 / T
        got, want = thermal._band_sums(sys_, m, beta), two_walk_sums(sys_, m, beta)
        assert _hex(got) == _hex(want), (T, got, want)


def carried(terms, run):
    """``_exact`` carried over runs of ``run`` terms, then one ``fsum``, as ``_band_sums`` does."""
    parts = []
    for start in range(0, len(terms), run):
        parts = thermal._exact(parts + terms[start:start + run])
    return math.fsum(parts)


def hard_lists():
    rng = random.Random(7)
    wide = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300, 300) for _ in range(300)]
    tiny = math.ulp(0.0)
    return {
        "huge and tiny": [1e300, 1e-300, -1e300, 1e-300, 3.0, 1e300, -1e300],
        "wide mix": wide,
        "subnormals": [tiny] * 7 + [-3 * tiny, 2.0 ** -1070, 2.0 ** -1022, -tiny],
        "cancelling": wide + [-x for x in reversed(wide)],
        "half-way": [1.0, 2.0 ** -53, 2.0 ** -106],
        "half-way, even": [1.0, 2.0 ** -53, 2.0 ** -105, -2.0 ** -105],
        "empty": [],
    }


@pytest.mark.parametrize("name", hard_lists())
def test_the_carry_keeps_the_exact_sum(name):
    terms = hard_lists()[name]
    parts = thermal._exact(list(terms))
    # the parts sum exactly to the terms, each part rounding what the ones
    # before it leave over, and rounding them again gives fsum's float
    assert sum(map(Fraction, parts)) == sum(map(Fraction, terms))
    assert all(abs(b) < abs(a) for a, b in zip(parts, parts[1:]))
    assert math.fsum(parts).hex() == math.fsum(terms).hex()
    for run in (1, 2, 3, 64):
        assert carried(terms, run).hex() == math.fsum(terms).hex(), run


@pytest.mark.parametrize("beta,levels", [
    # past mode 0, each run adds about half an ulp of Z = 1 (weights 2^-63) and
    # then exactly half an ulp of S = 1 (weights 1.0): a carry rounded at
    # each run would round every run's share away, or up, ties to even
    (1.0, [0.0] + [63 * math.log(2.0)] * (3 * RUN)),
    (0.0, [1.0] + [2.0 ** -63] * (3 * RUN)),
], ids=["Z", "S"])
def test_the_band_sums_carry_every_run_exactly(monkeypatch, beta, levels):
    def runs(sys_, m):
        yield 1.0, levels[:1]
        for start in range(1, len(levels), RUN):
            yield 2.0, levels[start:start + RUN]

    monkeypatch.setattr(perturbation, "_band_runs", runs)
    terms = [(k, x, math.exp(-beta * x)) for k, run in runs(None, 0.0) for x in run]
    want = (math.fsum(k * e for k, _, e in terms), math.fsum(k * x * e for k, x, e in terms))
    assert _hex(thermal._band_sums(fig_system(), 0.0, beta)) == _hex(want)


def test_the_carry_stops_at_a_sum_that_is_not_finite():
    assert thermal._exact([math.inf, 1.0]) == [math.inf]
    (nan,) = thermal._exact([math.nan, 1.0])
    assert math.isnan(nan)


@pytest.mark.parametrize("J,lam", [(0.3, 0.1), (0.5 * (1 - 1e-9), 1e-11)],
                         ids=["fig5", "band-edge"])
def test_thermal_table_memory_does_not_grow_with_the_chain(J, lam):
    # the band is streamed, never held: a list or an array of 2N + 1 levels
    # would add ~0.3 MB or more between these two chains.  At the band edge
    # no ring ratio repeats, so the column keeps only the ratios it reads
    peaks = []
    for n in (2000, 20000):
        sys_ = fig_system(J=J, lam=lam, N=n)
        tracemalloc.start()
        try:
            thermal_table(sys_, (0.0, 0.1), range(1, 31))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 1024, peaks
