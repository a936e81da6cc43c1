import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import chaincp
from chaincp import thermal
from chaincp.casimir import ecp_force
from chaincp.cli import main
from chaincp.lattice import SymmetricSystem
from chaincp.perturbation import symmetric_spectrum_closed
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
    e_plus, e_minus = symmetric_spectrum_closed(sys_, R)
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
    e_plus, _ = symmetric_spectrum_closed(sys_, 1)
    assert thermal_energy(sys_, 0.0, 1) == e_plus


def test_zero_temperature_force_matches_the_ground_state_force():
    # the ground-level difference reproduces the T = 0 force up to the
    # cancellation of the R-independent shift lam^2 / (delta sqrt(1 - a^2)),
    # which the levels carry as offsets from eps0 rather than on top of it
    # (worst case ~1.3e-12 relative here; ~2.5e-9 in absolute energies)
    for lam in (0.1, 0.01):
        sys_ = fig_system(lam=lam, N=200)
        for row in thermal_table(sys_, (0.0,), range(1, 9)):
            assert row.force == pytest.approx(ecp_force(sys_, row.R), rel=1e-11)


def test_infinite_temperature_is_the_uniform_average():
    sys_ = fig_system(N=40)
    ens = thermal_ensemble(sys_, math.inf, 1)
    expected = np.full(ens.energies.size, 1.0 / ens.energies.size)
    assert np.allclose(ens.weights, expected, rtol=0, atol=1e-15)
    mean = math.fsum(ens.energies) / ens.energies.size
    assert thermal_energy(sys_, math.inf, 1) == pytest.approx(mean, rel=1e-12)


@pytest.mark.parametrize("T", [0.0, 0.1, math.inf])
def test_ensemble_average_is_the_thermal_energy(T):
    sys_ = fig_system(N=40)
    ens = thermal_ensemble(sys_, T, 2)
    assert math.fsum((ens.weights * ens.energies).tolist()) == thermal_energy(sys_, T, 2)


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


@pytest.mark.parametrize("scale,grows", [(1e3, False), (1e-3, True)])
def test_growth_noise_scales_with_the_energies(scale, grows):
    # A force is a difference of two energies of size `scale`, so only
    # growth beyond a few ulp of `scale` is real.  An absolute 1e-15 would
    # flag the 1e-13 step at scale 1e3 (noise: 4 eps * 1e3 ~ 9e-13) and miss
    # the 1e-16 step at scale 1e-3 (real: 4 eps * 1e-3 ~ 9e-19).
    step = 1e-13 if scale > 1 else 1e-16
    force = -1e-3 * scale
    found = _growth_violations(rows_at(scale, (force, force - step), temps=(0.0, 0.1)))
    assert len(found) == (1 if grows else 0)


def test_force_vs_temperature_validates_the_grid(tmp_path):
    # the CLI refuses an unsorted or negative grid; the table refuses a
    # negative temperature on its own
    out = str(tmp_path / "thermal.csv")
    for temps in ("0.1,0", "-0.1,0.2"):
        assert main(["--mode", "thermal-sweep", "--N", "20", "--rmax", "2",
                     f"--temperatures={temps}", "--output", out]) == 2
    with pytest.raises(ValueError):
        thermal_table(fig_system(), (-0.1, 0.2), range(1, 2))


def test_band_dilution_weakens_the_warm_force():
    # more band states at the same temperature means less weight on the
    # doublet, so the finite-T force falls with chain length while the
    # T = 0 force does not move at all
    f_small = thermal_force(fig_system(N=100), 1.0, 1)
    f_large = thermal_force(fig_system(N=400), 1.0, 1)
    assert abs(f_large) < abs(f_small)
    assert thermal_force(fig_system(N=100), 0.0, 1) == \
        pytest.approx(thermal_force(fig_system(N=400), 0.0, 1), rel=1e-12)


def test_table_rows_match_the_single_point_functions_bit_for_bit():
    sys_ = fig_system(N=40)
    temps = (0.0, 0.05, 1.0, math.inf)
    rows = thermal_table(sys_, temps, range(2, 7))
    assert [(row.T, row.R) for row in rows] == [(t, r) for t in temps for r in range(2, 7)]
    for row in rows:
        assert row.energy == thermal_energy(sys_, row.T, row.R)
        assert row.force == thermal_force(sys_, row.T, row.R)
        assert row.force == -(thermal_energy(sys_, row.T, row.R + 1) - row.energy)


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
    bands, spectra = Counter(), Counter()

    def counting(counter, fn):
        def wrapper(sys_, *args):
            counter[sys_.N] += 1
            return fn(sys_, *args)
        return wrapper

    monkeypatch.setattr(thermal, "band_energies", counting(bands, thermal.band_energies))
    monkeypatch.setattr(thermal, "symmetric_spectrum_closed",
                        counting(spectra, thermal.symmetric_spectrum_closed))
    out = tmp_path / "thermal.csv"
    assert main(["--mode", "thermal-sweep", "--n-values", "50,100", "--lambda", "0.1",
                 "--temperatures", "0,0.1,1", "--rmin", "1", "--rmax", "8",
                 "--output", str(out)]) == 0
    # one band per chain; one ensemble per (T, R) for R = 1..9
    assert bands == {50: 1, 100: 1}
    assert spectra == {50: 3 * 9, 100: 3 * 9}

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
