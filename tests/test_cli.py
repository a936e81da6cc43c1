import json
import math
import subprocess
import sys

import pytest

from chaincp.casimir import cp_energy, ecp_force
from chaincp.cli import _KEYS, ConfigError, PRESETS, load_config, main
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
    assert cfg.mode == "force-sweep"
    assert cfg.fmt == "csv"
    assert cfg.eps0 == 1.0 and cfg.delta == -1.0
    assert cfg.J == 0.3 and cfg.lam == 0.01
    assert cfg.N == 200 and cfg.rmin == 1 and cfg.rmax == 10
    assert cfg.omega == 2.0


def test_preset_sets_everything():
    cfg = load_config(["--preset", "fig5"])
    assert cfg.mode == "thermal-sweep"
    assert cfg.lam == 0.1
    assert cfg.temperatures == (0.0, 0.1, 1.0)
    assert cfg.n_values == (100, 200, 400)
    assert cfg.rmax == 8


def test_flags_override_preset():
    cfg = load_config(["--preset", "fig2", "--rmax", "15", "--lambda", "0.02"])
    assert cfg.rmax == 15
    assert cfg.lam == 0.02
    assert cfg.j_values == (0.3, 0.4)  # untouched preset series


def test_scalar_flag_supersedes_preset_series():
    cfg = load_config(["--preset", "fig2", "--J", "0.25"])
    assert cfg.J == 0.25
    assert cfg.j_values is None


def test_config_file_layering(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("# comment line\n\nmode = force-sweep\nJ = 0.35\nrmax = 12\n")
    cfg = load_config(["--config", str(conf)])
    assert cfg.mode == "force-sweep"
    assert cfg.J == 0.35
    assert cfg.rmax == 12
    # flags still win over the file
    cfg2 = load_config(["--config", str(conf), "--rmax", "6"])
    assert cfg2.rmax == 6
    assert dict(cfg2.sources)["rmax"] == "flag"
    assert dict(cfg2.sources)["J"] == "file"


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


def test_omega_is_an_alias_for_the_detuning():
    cfg = load_config(["--mode", "force-sweep", "--omega", "1.8"])
    assert cfg.delta == pytest.approx(-0.8)
    # consistent pair is accepted
    cfg2 = load_config(["--mode", "force-sweep", "--omega", "2.0", "--delta", "-1.0"])
    assert cfg2.delta == -1.0
    with pytest.raises(ConfigError, match="contradicts"):
        load_config(["--mode", "force-sweep", "--omega", "1.8", "--delta", "-1.0"])


def test_omega_consistency_forgives_input_rounding_at_large_magnitude():
    # eps0 - omega misses -1.3 by 1.1e-9 here, which is input rounding only
    cfg = load_config(["--mode", "force-sweep", "--eps0", "12345678.9",
                       "--omega", "12345680.2", "--delta=-1.3"])
    assert cfg.delta == pytest.approx(-1.3, rel=1e-8)


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
        sys_ = SymmetricSystem.from_detuning(delta=delta, J=j, lam=0.01, N=200)
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
    sys_ = SymmetricSystem.from_detuning(delta=-1.0, J=0.3, lam=0.01, N=200)
    assert first[3] == cp_energy(sys_, 1)
    assert first[4] == ecp_force(sys_, 1)


def test_output_to_stdout(capsys):
    assert run_cli(["--mode", "dispersion-dump", "--N", "5", "--output", "-"]) == 0
    lines = capsys.readouterr().out.splitlines()
    data = [line for line in lines if not line.startswith("#")]
    assert data[0] == "k,energy"
    assert len(data) == 1 + 11


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


def test_exit_code_3_outside_the_regime():
    # coupling half the gap: perturbation theory has no business here
    assert run_cli(["--mode", "force-sweep", "--lambda", "0.3"]) == 3
    # impurity level inside the band
    assert run_cli(["--mode", "force-sweep", "--delta", "-0.5"]) == 3


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


def test_exit_code_4_when_refinement_is_starved(tmp_path):
    out = tmp_path / "never.csv"
    assert run_cli(["--mode", "oracle-check", "--N", "64", "--rmax", "2",
                    "--max-points", "64", "--output", str(out)]) == 4


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "chaincp.cli", "--preset", "fig2", "--output", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
    assert "wrote" in proc.stderr
