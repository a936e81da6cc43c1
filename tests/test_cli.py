import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chaincp.oracle
from chaincp.casimir import cp_energy, ecp_force
from chaincp.cli import _KEYS, PRESETS, ConfigError, _linspace, load_config, main
from chaincp.lattice import SymmetricSystem


def run_cli(args):
    return main(list(args))


def read_csv(path):
    meta, columns, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


# ---------------------------------------------------------------- config


def test_defaults_resolve():
    cfg = load_config(["--mode", "force-sweep"])
    assert cfg["mode"] == "force-sweep"
    assert cfg["format"] == "csv"
    assert cfg["eps0"] == 1.0 and cfg["delta"] == -1.0
    assert cfg["J"] == 0.3 and cfg["lambda"] == 0.01
    assert cfg["N"] == 200 and cfg["rmin"] == 1 and cfg["rmax"] == 10
    assert cfg["omega"] == 2.0


def test_preset_sets_everything():
    cfg = load_config(["--preset", "fig5"])
    assert cfg["mode"] == "thermal-sweep"
    assert cfg["lambda"] == 0.1
    assert cfg["temperatures"] == (0.0, 0.1, 1.0)
    assert cfg["n_values"] == (100, 200, 400)
    assert cfg["rmax"] == 8


def test_flags_override_preset():
    cfg = load_config(["--preset", "fig2", "--rmax", "15", "--lambda", "0.02"])
    assert cfg["rmax"] == 15
    assert cfg["lambda"] == 0.02
    assert cfg["j_values"] == (0.3, 0.4)  # untouched preset series


def test_scalar_flag_supersedes_preset_series():
    cfg = load_config(["--preset", "fig2", "--J", "0.25"])
    assert cfg["J"] == 0.25
    assert cfg["j_values"] is None


def test_config_file_layering(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("# comment line\n\nmode = force-sweep\nJ = 0.35\nrmax = 12\n")
    cfg = load_config(["--config", str(conf)])
    assert cfg["mode"] == "force-sweep"
    assert cfg["J"] == 0.35
    assert cfg["rmax"] == 12
    # flags still win over the file
    cfg2 = load_config(["--config", str(conf), "--rmax", "6"])
    assert cfg2["rmax"] == 6
    assert dict(cfg2["sources"])["rmax"] == "flag"
    assert dict(cfg2["sources"])["J"] == "file"


def test_a_key_declared_once_reaches_the_resolved_mapping(monkeypatch):
    # _KEYS is the only declaration: a new key gets its flag and its entry
    monkeypatch.setitem(_KEYS, "extra_steps", (int, 7))
    cfg = load_config(["--mode", "force-sweep", "--extra-steps", "9"])
    assert cfg["extra_steps"] == 9
    assert set(_KEYS) | {"preset", "sources"} == set(cfg)
    with pytest.raises(TypeError):
        cfg["J"] = 0.1  # read-only


def test_config_file_unknown_key_points_at_the_line(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("mode = force-sweep\nJ = 0.3\nbogus = 1\n")
    with pytest.raises(ConfigError, match=r":3:.*bogus"):
        load_config(["--config", str(conf)])


def test_config_file_rejects_duplicates_and_presets(tmp_path):
    dup = tmp_path / "dup.conf"
    dup.write_text("J = 0.3\nJ = 0.4\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(["--config", str(dup), "--mode", "force-sweep"])
    pre = tmp_path / "pre.conf"
    pre.write_text("preset = fig2\n")
    with pytest.raises(ConfigError, match="preset"):
        load_config(["--config", str(pre)])


def test_bad_values_are_config_errors():
    with pytest.raises(ConfigError):
        load_config(["--mode", "force-sweep", "--J", "fast"])
    with pytest.raises(ConfigError):
        load_config(["--mode", "force-sweep", "--rmax", "0"])
    with pytest.raises(ConfigError):
        load_config(["--mode", "force-sweep", "--temperatures", "1,0.1"])
    with pytest.raises(ConfigError):
        load_config([])  # no mode anywhere


#: ``(argv, flag-value pairs, exit code)``: every numeric key whose value
#: argparse would otherwise take for a flag, spelled ``-5e-1`` or ``-1.5,-2``.
NEGATIVE_VALUES = [
    (["--mode", "force-sweep", "--J", "0.2", "--rmax", "2"], [("--delta", "-5e-1")], 0),
    (["--mode", "force-sweep", "--rmax", "2"], [("--eps0", "-2e0"), ("--omega", "-1e0")], 0),
    (["--mode", "force-sweep", "--rmax", "2"], [("--lambda", "-1e-2")], 0),
    (["--mode", "decay-profile", "--asteps", "5"], [("--amin", "-9e-1"), ("--amax", "-1e-1")], 0),
    (["--mode", "detuning-sweep", "--dsteps", "4"], [("--dmin", "-2.5e0"), ("--dmax", "-1e0")], 0),
    (["--mode", "force-sweep", "--rmax", "5"], [("--delta-values", "-1.5,-2")], 0),
    # still a number, so still refused by the same check as the = spelling
    (["--mode", "force-sweep"], [("--delta", "-inf")], 2),
    (["--mode", "force-sweep"], [("--delta", "-nan")], 2),
    # not a number: argparse still finds no value
    (["--mode", "force-sweep"], [("--delta", "-5e-1x")], 2),
    (["--mode", "force-sweep"], [("--delta-values", "-1.5,-two")], 2),
]


@pytest.mark.parametrize("argv,pairs,code", NEGATIVE_VALUES,
                         ids=[" ".join(f"{f} {v}" for f, v in p) for _, p, _ in NEGATIVE_VALUES])
def test_a_negative_value_after_a_space_reads_as_after_an_equals_sign(argv, pairs, code, capsys):
    def written(tokens):
        status = run_cli(argv + tokens + ["--output", "-"])
        return status, capsys.readouterr().out

    spaced = written([token for pair in pairs for token in pair])
    joined = written([f"{flag}={value}" for flag, value in pairs])
    assert spaced == joined
    assert spaced[0] == code


#: A detuning far below 1 in magnitude, where ``1 - (1 - delta)`` keeps only
#: seven of its digits.
TINY_DETUNING = ["--mode", "force-sweep", "--delta=-1e-10", "--J", "3e-11",
                 "--lambda", "1e-13", "--rmax", "3"]


def energy_and_force_cells(argv, path):
    assert run_cli(argv + ["--output", str(path)]) == 0
    _, columns, rows = read_csv(path)
    return [(row[columns.index("energy")], row[columns.index("force")]) for row in rows]


def test_a_tiny_detuning_keeps_every_digit(tmp_path):
    from mpmath import mp

    cells = energy_and_force_cells(TINY_DETUNING, tmp_path / "out.csv")
    with mp.workdps(60):
        delta, lam = mp.mpf(-1e-10), mp.mpf(1e-13)
        a = 2 * mp.mpf(3e-11) / delta
        q = (mp.sqrt(1 - a * a) - 1) / a
        for r, (energy, _) in enumerate(cells, 1):
            exact = lam ** 2 / delta * q ** r / mp.sqrt(1 - a * a)
            assert abs(float(energy) - exact) <= 1e-14 * abs(exact)


def test_a_tiny_detuning_gives_the_same_cells_at_any_eps0(tmp_path):
    at_one = energy_and_force_cells(TINY_DETUNING + ["--eps0", "1"], tmp_path / "one.csv")
    assert energy_and_force_cells(TINY_DETUNING + ["--eps0", "0"], tmp_path / "zero.csv") == at_one


def test_omega_is_an_alias_for_the_detuning():
    cfg = load_config(["--mode", "force-sweep", "--omega", "1.8"])
    assert cfg["delta"] == pytest.approx(-0.8)
    # consistent pair is accepted
    cfg2 = load_config(["--mode", "force-sweep", "--omega", "2.0", "--delta", "-1.0"])
    assert cfg2["delta"] == -1.0
    with pytest.raises(ConfigError, match="contradicts"):
        load_config(["--mode", "force-sweep", "--omega", "1.8", "--delta", "-1.0"])


def test_omega_consistency_forgives_input_rounding_at_large_magnitude():
    # eps0 - omega misses -1.3 by 1.1e-9 here, which is input rounding only
    cfg = load_config(["--mode", "force-sweep", "--eps0", "12345678.9",
                       "--omega", "12345680.2", "--delta=-1.3"])
    assert cfg["delta"] == pytest.approx(-1.3, rel=1e-8)


def test_omega_consistency_catches_contradictions_at_small_magnitude():
    # off by a factor of 2, however small the numbers
    with pytest.raises(ConfigError, match="contradicts"):
        load_config(["--mode", "force-sweep", "--eps0", "1e-15",
                     "--omega", "2e-15", "--delta=-2e-15"])


# ---------------------------------------------------------------- running


def test_force_sweep_writes_deterministic_csv(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["--preset", "fig2", "--output", str(out1)]) == 0
    assert run_cli(["--preset", "fig2", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_force_sweep_rows_round_trip_exactly(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(["--preset", "fig2", "--output", str(out)]) == 0
    meta, columns, rows = read_csv(out)
    assert meta["mode"] == "force-sweep"
    assert meta["preset"] == "fig2"
    assert columns == ["J", "delta", "R", "energy", "force", "abs_force"]
    assert len(rows) == 2 * 10  # two hoppings, R = 1..10
    for row in rows:
        j, delta = float(row[0]), float(row[1])
        r = int(row[2])
        sys_ = SymmetricSystem(delta=delta, J=j, lam=0.01, N=200)
        # %.17g survives the float -> text -> float trip bit for bit
        assert float(row[3]) == cp_energy(sys_, r)
        assert float(row[4]) == ecp_force(sys_, r)
        assert float(row[5]) == abs(ecp_force(sys_, r))


def test_json_round_trip(tmp_path):
    out = tmp_path / "sweep.json"
    assert run_cli(["--preset", "fig2", "--format", "json", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["columns"][0] == "J"
    assert doc["meta"]["preset"] == "fig2"
    assert len(doc["rows"]) == 20
    first = doc["rows"][0]
    sys_ = SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, N=200)
    assert first[3] == cp_energy(sys_, 1)
    assert first[4] == ecp_force(sys_, 1)


def test_json_with_an_infinite_cell_is_strict_json(capsys):
    # a = 0 is a flat band: gamma is inf, which JSON cannot spell as a number
    argv = ["--mode", "decay-profile", "--amax", "0", "--asteps", "2", "-o", "-"]
    assert run_cli(argv + ["--format", "json"]) == 0

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
    gamma = doc["columns"].index("gamma")
    assert doc["rows"][-1][gamma] == "inf"
    assert isinstance(doc["rows"][0][gamma], float)
    # the same spelling as the CSV cell
    assert run_cli(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1].split(",")[gamma] == "inf"


def test_output_to_stdout(capsys):
    assert run_cli(["--mode", "dispersion-dump", "--N", "5", "--output", "-"]) == 0
    lines = capsys.readouterr().out.splitlines()
    data = [line for line in lines if not line.startswith("#")]
    assert data[0] == "k,energy"
    assert len(data) == 1 + 11


def test_output_destination_does_not_change_the_bytes(tmp_path, monkeypatch, capsys):
    # the default path, stdout and an explicit path all get the same table
    monkeypatch.setenv("CHAINCP_OUTDIR", str(tmp_path))
    assert run_cli(["--preset", "fig2"]) == 0
    default = (tmp_path / "fig2.csv").read_bytes()
    capsys.readouterr()
    assert run_cli(["--preset", "fig2", "-o", "-"]) == 0
    streamed = capsys.readouterr().out.encode("ascii")
    out = tmp_path / "named.csv"
    assert run_cli(["--preset", "fig2", "--output", str(out)]) == 0
    assert streamed == out.read_bytes() == default


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("CHAINCP_OUTDIR", str(tmp_path / "results"))
    assert run_cli(["--preset", "fig2"]) == 0
    assert (tmp_path / "results" / "fig2.csv").exists()
    # an explicit path ignores the environment
    out = tmp_path / "direct.csv"
    assert run_cli(["--preset", "fig2", "--output", str(out)]) == 0
    assert out.exists()


def test_thermal_sweep_row_count(tmp_path):
    out = tmp_path / "thermal.csv"
    assert run_cli(["--preset", "fig5", "--output", str(out)]) == 0
    meta, columns, rows = read_csv(out)
    assert columns == ["T", "N", "R", "energy", "force"]
    assert len(rows) == 3 * 3 * 8  # three sizes, three temperatures, R = 1..8


def test_hopping_sweep_row_count(tmp_path):
    out = tmp_path / "hop.csv"
    assert run_cli(["--mode", "hopping-sweep", "--jsteps", "7", "--output", str(out)]) == 0
    _, columns, rows = read_csv(out)
    assert columns == ["J", "R", "energy", "force", "abs_force"]
    assert len(rows) == 7


def test_decay_profile_grid(tmp_path):
    out = tmp_path / "decay.csv"
    assert run_cli(["--preset", "fig4", "--output", str(out)]) == 0
    _, columns, rows = read_csv(out)
    assert columns == ["a", "J", "gamma", "rc", "amplitude"]
    assert len(rows) == 100
    gammas = [float(row[2]) for row in rows]
    assert all(g2 > g1 for g1, g2 in zip(gammas, gammas[1:]))


def test_oracle_check_passes_and_reports(tmp_path):
    out = tmp_path / "oracle.csv"
    assert run_cli(["--mode", "oracle-check", "--N", "120", "--rmax", "3",
                    "--output", str(out)]) == 0
    _, columns, rows = read_csv(out)
    assert columns[:3] == ["R", "closed", "quadrature"]
    assert [row[4] for row in rows] == ["1", "1", "1"]   # quad_ok
    assert [row[7] for row in rows] == ["1", "1", "1"]   # ed_ok


# ------------------------------------------------------------- exit codes


def test_exit_code_2_for_config_problems(tmp_path):
    assert run_cli(["--mode", "no-such-mode"]) == 2       # argparse choice
    assert run_cli([]) == 2                               # missing mode
    conf = tmp_path / "bad.conf"
    conf.write_text("nonsense = 1\n")
    assert run_cli(["--config", str(conf)]) == 2


@pytest.mark.parametrize("mode", ["force-sweep", "thermal-sweep"])
def test_exit_code_2_when_the_chain_has_no_room_for_a_force(mode, tmp_path, capsys):
    # the force at R needs R + 1 <= N, so N = 1 leaves no separation at all
    assert run_cli(["--mode", mode, "--N", "1", "--rmax", "1",
                    "--output", str(tmp_path / "never.csv")]) == 2
    assert capsys.readouterr().err == (
        "chaincp: config error: no separation fits: the upper bound 0 is below the lower bound 1\n")


def test_exit_code_3_outside_the_regime():
    # coupling half the gap: perturbation theory has no business here
    assert run_cli(["--mode", "force-sweep", "--lambda", "0.3"]) == 3
    # impurity level inside the band
    assert run_cli(["--mode", "force-sweep", "--delta", "-0.5"]) == 3


def test_exit_code_2_when_the_chain_does_not_fit_in_memory(tmp_path, monkeypatch, capsys):
    # the ring's modes are the first array a thermal sweep allocates; a real
    # N = 3e9 would ask numpy for tens of GB, so the allocation fails here by hand
    def arange(*args, **kwargs):
        raise MemoryError("Unable to allocate 44.7 GiB for an array with shape (6000000001,)")

    monkeypatch.setattr(np, "arange", arange)
    assert run_cli(["--mode", "thermal-sweep", "--N", "3000000000", "--rmax", "2",
                    "--output", str(tmp_path / "never.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("chaincp: config error: Unable to allocate") and err.count("\n") == 1
    assert "Traceback" not in err and not (tmp_path / "never.csv").exists()


def test_oracle_check_without_coupling_is_a_regime_violation(tmp_path, capsys):
    # every closed-form value is 0, so there is no relative error to report
    assert run_cli(["--mode", "oracle-check", "--lambda", "0",
                    "--output", str(tmp_path / "oracle.csv")]) == 3
    assert "interaction is identically zero" in capsys.readouterr().err


FLOAT_KEYS = [key for key, (kind, _) in _KEYS.items() if kind in (float, (float,))]


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_nan_is_a_config_error_for_every_float_key(key, tmp_path):
    value = "0,nan,0.1" if key == "temperatures" else "nan"
    flag = "--" + key.replace("_", "-")
    assert run_cli(["--mode", "force-sweep", flag, value,
                    "--output", str(tmp_path / "out.csv")]) == 2


def test_nan_in_a_config_file_is_a_config_error(tmp_path):
    conf = tmp_path / "nan.conf"
    conf.write_text("mode = force-sweep\nJ = NaN\n")
    with pytest.raises(ConfigError, match="NaN"):
        load_config(["--config", str(conf)])


def test_infinite_temperature_is_accepted(tmp_path):
    out = tmp_path / "hot.csv"
    assert run_cli(["--mode", "thermal-sweep", "--N", "20", "--rmax", "2",
                    "--temperatures", "0,inf", "--output", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert [row[0] for row in rows][-1] == "inf"


def _numpy_loaded(argv, tmp_path) -> bool:
    """Whether a fresh ``chaincp`` process loads numpy to run ``argv``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(chaincp.__file__).parents[1]), env.get("PYTHONPATH")]))
    code = ("import sys; from chaincp.cli import main; code = main(sys.argv[1:]); "
            "print(code, 'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, *argv, "--output", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    status, loaded = proc.stdout.split()
    assert status == "0", proc.stderr
    return loaded == "True"


def test_closed_form_and_oracle_modes_never_load_numpy(tmp_path):
    for argv in (["--preset", "fig2"], ["--preset", "fig3"], ["--preset", "fig4"],
                 ["--mode", "hopping-sweep"], ["--mode", "detuning-sweep"],
                 ["--mode", "oracle-check", "--N", "40", "--rmax", "2"]):
        assert not _numpy_loaded(argv, tmp_path), argv
    # the guard is not vacuous: the thermal mode's arrays do load it
    assert _numpy_loaded(["--preset", "fig5", "--n-values", "20"], tmp_path)


def _hex(points):
    return [float(x).hex() for x in points]


def test_linspace_matches_numpy_on_the_cli_grids():
    grids = [(_KEYS[lo][1], _KEYS[hi][1], _KEYS[n][1])
             for lo, hi, n in (("jmin", "jmax", "jsteps"), ("dmin", "dmax", "dsteps"),
                               ("amin", "amax", "asteps"))]
    fig4 = PRESETS["fig4"]
    grids.append((fig4["amin"], fig4["amax"], fig4["asteps"]))
    for lo, hi, n in grids:
        assert _hex(_linspace(lo, hi, n)) == _hex(np.linspace(lo, hi, n))


@pytest.mark.parametrize("lo,hi,n", [
    (-0.5, -0.5, 5),                  # a step of 0: amin == amax
    (0.48, 0.02, 24),                 # reversed bounds
    (0.0, -0.0, 3), (-0.0, 0.0, 3), (-0.0, -0.0, 4), (-0.0, 1.0, 2),
    (0.0, 5e-324, 3),                 # subnormal: the step underflows to 0
    (-5e-324, 5e-324, 7), (2.2250738585072014e-308, 0.0, 9), (-1e-310, -3e-310, 5),
    (-1.0, -1.0 + 2.0 ** -52, 11),    # a step below one ulp of the bounds
])
def test_linspace_matches_numpy_at_the_edges(lo, hi, n):
    assert _hex(_linspace(lo, hi, n)) == _hex(np.linspace(lo, hi, n))


@pytest.mark.parametrize("lo,hi,n", [(-1e308, 1e308, 5), (1e308, -1e308, 2)])
def test_linspace_matches_numpy_when_the_span_overflows(lo, hi, n):
    # hi - lo is inf, so the first point is 0 * inf + lo = nan, as in numpy
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.linspace(lo, hi, n)
    assert _hex(_linspace(lo, hi, n)) == _hex(expected)


def test_linspace_matches_numpy_on_random_grids():
    rng = random.Random(20140222)

    def bound():
        return rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 10.0) * 10.0 ** rng.randint(-12, 12)

    for _ in range(1000):
        lo, hi = bound(), bound()
        if rng.random() < 0.1:
            hi = lo
        n = rng.randint(2, 300)
        assert _hex(_linspace(lo, hi, n)) == _hex(np.linspace(lo, hi, n)), (lo, hi, n)


def test_exit_code_4_when_refinement_is_starved(tmp_path, monkeypatch):
    monkeypatch.setattr(chaincp.oracle, "MAX_POINTS", 64)
    out = tmp_path / "never.csv"
    assert run_cli(["--mode", "oracle-check", "--N", "64", "--rmax", "2",
                    "--output", str(out)]) == 4


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "chaincp.cli", "--preset", "fig2", "--output", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
    assert "wrote" in proc.stderr
