import importlib.util
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chaincp.oracle
from chaincp.casimir import cp_energy, ecp_force
from chaincp import cli
from chaincp.cli import (_KEYS, _RIVALS, MAX_MODES, MODES, PRESETS, ConfigError, _flag,
                         _linspace, load_config, main)
from chaincp.errors import ConvergenceError, RegimeViolation
from chaincp.lattice import SymmetricSystem, require_valid_regime
from chaincp.thermal import _growth_violations, thermal_table


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


def test_bad_values_are_config_errors(capsys):
    with pytest.raises(ConfigError):
        load_config(["--mode", "force-sweep", "--J", "fast"])
    with pytest.raises(ConfigError):
        load_config([])  # no mode anywhere
    # a value's range is checked by the code that reads it, so only in a mode that reads it;
    # an empty separation window is named by its ends
    assert run_cli(["--mode", "force-sweep", "--rmax", "0", "--output", "-"]) == 2
    assert run_cli(["--mode", "thermal-sweep", "--temperatures", "1,-0.1", "--output", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("chaincp: config error: ") == 2
    assert err.splitlines()[0] == ("chaincp: config error: separations must be a non-empty "
                                   "range with step 1, got R from 1 to 0")


#: ``(argv, flag-value pairs, exit code)``: every numeric key with a value
#: that starts with ``-`` like a flag, spelled ``-5e-1`` or ``-1.5,-2``.
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
    # not a number: refused after a space as after an equals sign
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


#: ``name -> (exit code, argv tails)``: every tail after ``--mode
#: dispersion-dump --N 5`` writes the same stdout and exits with the code.
ARGV_GRAMMAR = {
    "prefix": (0, [["--lambda", "0.02", "-o", "-"], ["--lam", "0.02", "-o", "-"],
                   ["--lam=0.02", "-o", "-"]]),
    "output": (0, [["-o", "-"], ["-o-"], ["-o=-"], ["--output=-"], ["--out", "-"]]),
    "last-wins": (0, [["--J", "0.2", "--J", "0.25", "-o", "-"], ["--J", "0.25", "-o", "-"]]),
    "help": (0, [["-h"], ["--help"]]),
    "ambiguous": (2, [["--d", "1"]]),
    "no-value": (2, [["--J"]]),
    "positional": (2, [["extra"]]),
    "unknown-flag": (2, [["--bogus", "1"]]),
    "unknown-preset": (2, [["--preset", "fig9"]]),
    "unknown-mode": (2, [["--mode", "nope"]]),
    "end-of-flags": (2, [["--", "-o", "-"]]),
}


@pytest.mark.parametrize("code,tails", ARGV_GRAMMAR.values(), ids=list(ARGV_GRAMMAR))
def test_every_spelling_of_a_command_line_reads_alike(code, tails, tmp_path, monkeypatch, capsys):
    # a table that missed stdout would land in the default output directory
    monkeypatch.setenv("CHAINCP_OUTDIR", str(tmp_path))
    written = []
    for tail in tails:
        status = run_cli(["--mode", "dispersion-dump", "--N", "5"] + tail)
        written.append((status, capsys.readouterr().out))
    assert written == [(code, written[0][1])] * len(tails)
    assert not list(tmp_path.iterdir())
    out = written[0][1]
    if code == 2:
        assert out == ""
    elif tails[0][0] == "-h":
        # the line after the usage line states the precedence and every rival pair
        order = out.splitlines()[1]
        assert order.startswith("  defaults < preset < config file < flags; ")
        assert all("/".join(pair) in order for pair in _RIVALS)
        # the --mode entry lists each mode with the keys it reads
        assert re.search(r"^ +thermal-sweep +eps0 delta omega J lambda N rmin rmax "
                         r"temperatures n_values$", out, re.M)
        for flag in [_flag(key) for key in _KEYS] + ["--preset", "--config"]:
            assert re.search(re.escape(flag) + r"(?![\w-])", out), flag
    else:
        assert out.startswith("# generator = chaincp")


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
    # 1.0 - 1.8 is exact (Sterbenz) and is the float -0.8
    assert cfg["delta"] == -0.8
    # consistent pair is accepted
    cfg2 = load_config(["--mode", "force-sweep", "--omega", "2.0", "--delta", "-1.0"])
    assert cfg2["delta"] == -1.0
    with pytest.raises(ConfigError, match="contradicts"):
        load_config(["--mode", "force-sweep", "--omega", "1.8", "--delta", "-1.0"])


def test_omega_consistency_forgives_input_rounding_at_large_magnitude():
    # eps0 - omega misses -1.3 by 1.1e-9 here, which is input rounding only
    cfg = load_config(["--mode", "force-sweep", "--eps0", "12345678.9",
                       "--omega", "12345680.2", "--delta=-1.3"])
    assert cfg["delta"] == pytest.approx(-1.3, rel=1e-8, abs=0)


def test_omega_consistency_catches_contradictions_at_small_magnitude():
    # off by a factor of 2, however small the numbers
    with pytest.raises(ConfigError, match="contradicts"):
        load_config(["--mode", "force-sweep", "--eps0", "1e-15",
                     "--omega", "2e-15", "--delta=-2e-15"])


def test_an_omega_flag_beats_a_preset_delta(tmp_path):
    # fig2 sets delta = -1; the flag's omega = 3 means delta = -2, and flags win
    cfg = load_config(["--preset", "fig2", "--omega", "3"])
    assert (cfg["delta"], cfg["omega"]) == (-2.0, 3.0)
    assert ("delta", "flag") in cfg["sources"]
    assert run_cli(["--preset", "fig2", "--omega", "3", "-o", str(tmp_path / "fig2.csv")]) == 0
    assert read_csv(tmp_path / "fig2.csv")[0]["delta"] == "-2"
    # and, like --delta, it supersedes fig3's delta_values sweep
    cfg = load_config(["--preset", "fig3", "--omega", "3"])
    assert (cfg["delta"], cfg["delta_values"]) == (-2.0, None)


def test_a_delta_flag_beats_a_file_omega(tmp_path):
    conf = tmp_path / "omega.conf"
    conf.write_text("mode = force-sweep\nomega = 3\n")
    cfg = load_config(["--config", str(conf), "--delta", "-1"])
    assert (cfg["delta"], cfg["omega"]) == (-1.0, 2.0)
    assert ("delta", "flag") in cfg["sources"]
    # from one layer, the two must still agree
    conf.write_text("mode = force-sweep\nomega = 3\ndelta = -1\n")
    with pytest.raises(ConfigError, match="contradicts"):
        load_config(["--config", str(conf)])


#: ``name -> (argv, config file text, resolved keys, table's (J, delta, N))``:
#: a key from a later layer drops its rival from an earlier layer.
RIVAL_OVERRIDES = {
    "file-J-drops-fig2-j_values": (
        ["--preset", "fig2"], "J = 0.25\n", {"J": 0.25, "j_values": None}, [(0.25, -1.0, 200)]),
    "file-N-drops-fig5-n_values": (
        ["--preset", "fig5"], "N = 50\n", {"N": 50, "n_values": None}, [(0.3, -1.0, 50)]),
    "file-omega-drops-fig3-delta_values": (
        ["--preset", "fig3"], "omega = 3\n",
        {"delta": -2.0, "omega": 3.0, "delta_values": None}, [(0.6, -2.0, 200)]),
    "flag-j_values-drops-fig3-delta_values": (
        ["--preset", "fig3", "--j-values", "0.3,0.4"], None,
        {"j_values": (0.3, 0.4), "delta_values": None}, [(0.3, -1.0, 200), (0.4, -1.0, 200)]),
}


def with_config(argv, text, tmp_path):
    """``argv``, plus a ``--config`` file that holds ``text`` unless it is None."""
    if text is None:
        return argv
    conf = tmp_path / "run.conf"
    conf.write_text(text)
    return argv + ["--config", str(conf)]


def table_points(path):
    """The distinct ``(J, delta, N)`` of a table: from its columns, else from its header."""
    meta, columns, rows = read_csv(path)
    return sorted({tuple(float(row[columns.index(key)]) if key in columns else float(meta[key])
                         for key in ("J", "delta", "N")) for row in rows})


@pytest.mark.parametrize("argv,text,resolved,points", RIVAL_OVERRIDES.values(),
                         ids=list(RIVAL_OVERRIDES))
def test_a_later_layer_drops_the_rival_of_an_earlier_one(argv, text, resolved, points, tmp_path):
    argv = with_config(argv, text, tmp_path) + ["--rmax", "2"]
    cfg = load_config(argv)
    assert {key: cfg[key] for key in resolved} == resolved
    assert run_cli(argv + ["--output", str(tmp_path / "out.csv")]) == 0
    assert table_points(tmp_path / "out.csv") == points


#: ``name -> (argv, config file text, the two keys, the layer that gives both)``.
RIVALS_IN_ONE_LAYER = {
    "flags-j_values-delta_values": (
        ["--mode", "force-sweep", "--j-values", "0.3,0.4", "--delta-values=-2,-3"], None,
        ("j_values", "delta_values"), "flag"),
    "flags-J-j_values": (
        ["--mode", "force-sweep", "--J", "0.25", "--j-values", "0.3,0.4"], None,
        ("J", "j_values"), "flag"),
    "file-omega-delta_values": (
        [], "mode = force-sweep\nomega = 3\ndelta_values = -2,-3\n",
        ("omega", "delta_values"), "file"),
}


@pytest.mark.parametrize("argv,text,keys,layer", RIVALS_IN_ONE_LAYER.values(),
                         ids=list(RIVALS_IN_ONE_LAYER))
def test_rival_keys_from_one_layer_exit_2_naming_both(argv, text, keys, layer, tmp_path, capsys):
    argv = with_config(argv, text, tmp_path)
    assert run_cli(argv + ["--output", str(tmp_path / "never.csv")]) == 2
    assert capsys.readouterr().err == (
        f"chaincp: config error: {keys[0]} and {keys[1]} both come from the {layer} layer\n")
    assert not (tmp_path / "never.csv").exists()


def test_no_preset_gives_both_keys_of_a_rival_pair():
    assert {key for pair in _RIVALS for key in pair} <= set(_KEYS)
    for name, values in PRESETS.items():
        for pair in _RIVALS:
            assert not set(pair) <= set(values), (name, pair)


#: ``preset -> keys``: each preset's header leaves out keys its mode did not
#: read, the scalars outranked by a set series among them.
UNREAD_BY_PRESETS = {"fig2": ("J",), "fig3": ("delta", "omega"),
                     "fig4": ("R", "rmin", "rmax", "temperatures"), "fig5": ("N",)}


@pytest.mark.parametrize("name,keys", UNREAD_BY_PRESETS.items(), ids=list(UNREAD_BY_PRESETS))
def test_a_header_leaves_out_the_keys_its_mode_did_not_read(name, keys, tmp_path, capsys):
    assert run_cli(["--preset", name, "--output", str(tmp_path / "out.csv")]) == 0
    meta = read_csv(tmp_path / "out.csv")[0]
    assert not set(keys) & set(meta)
    assert {"mode", "lambda", "eps0"} <= set(meta)
    assert "does not read" not in capsys.readouterr().err


def test_a_given_key_the_mode_does_not_read_is_noted(capsys):
    assert run_cli(["--mode", "force-sweep", "--R", "5", "--rmax", "3", "--output", "-"]) == 0
    out, err = capsys.readouterr()
    assert not [line for line in out.splitlines() if line.startswith("# R ")]
    assert "R<-flag" in out  # the overrides line still records it
    assert err == "chaincp: warning: force-sweep does not read R\n"


def test_no_preset_gives_a_key_its_mode_does_not_read():
    for name, values in PRESETS.items():
        assert set(values) - {"mode"} <= set(cli._MODES[values["mode"]][1]), name


#: A valid value for every key, unlike its default and each preset's.
OTHER_VALUES = {
    "eps0": "2", "omega": "2.5", "delta": "-1.5", "J": "0.25", "lambda": "0.02",
    "amin": "-0.5", "amax": "-0.2", "jmin": "0.1", "jmax": "0.2", "dmin": "-2", "dmax": "-1.5",
    "N": "60", "R": "3", "rmin": "2", "rmax": "4", "asteps": "3", "jsteps": "3", "dsteps": "3",
    "temperatures": "0,0.5", "j_values": "0.2,0.25", "delta_values": "-1.5,-2",
    "n_values": "60,80",
}


def run_with_other_value(mode, small, tmp_path, capsys):
    """``rows(key)``: the data lines and stderr of ``mode`` with ``key`` at its ``OTHER_VALUES``.

    The run comes from a file of the ``small`` flags, so that a flag may give
    a rival of one of its keys; ``rows(None)`` runs the file alone.
    """
    text = "".join(f"{flag[2:]} = {value}\n" for flag, value in zip(small[::2], small[1::2]))
    base = with_config(["--output", "-"], f"mode = {mode}\n{text}", tmp_path)

    def rows(key):
        extra = [] if key is None else [f"{_flag(key)}={OTHER_VALUES[key]}"]
        assert run_cli(base + extra) == 0
        out, err = capsys.readouterr()
        return [line for line in out.splitlines() if not line.startswith("#")], err

    return rows


@pytest.mark.parametrize("mode", MODES)
def test_a_key_outside_the_reads_of_a_mode_leaves_its_rows_alone(mode, tmp_path, capsys):
    # a reads table that left out a key its mode reads would fail here
    assert set(OTHER_VALUES) == set(_KEYS) - {"mode", "format", "output"}
    rows = run_with_other_value(mode, _SMALL_RUNS.get(mode, []), tmp_path, capsys)
    expected, _ = rows(None)
    unread = [key for key in OTHER_VALUES if key not in cli._MODES[mode][1]]
    assert unread
    for key in unread:
        got, err = rows(key)
        assert got == expected, key
        notes = [line for line in err.splitlines() if " does not read " in line]
        assert len(notes) == 1 and key in notes[0].split(" read ")[1].split(", "), (key, err)


#: Keys a mode reads that move none of its rows, each with its reason; the
#: header names them all the same.
HEADER_ONLY = {
    **{(mode, "eps0"): "its rows are offsets from eps0"
       for mode in ("force-sweep", "hopping-sweep", "detuning-sweep", "decay-profile",
                    "oracle-check")},
    **{(mode, "N"): "its closed forms are the infinite chain's, so N only bounds R"
       for mode in ("force-sweep", "hopping-sweep", "detuning-sweep")},
}


@pytest.mark.parametrize("mode", MODES)
def test_each_key_a_mode_reads_moves_a_row_or_is_header_only(mode, tmp_path, capsys):
    # the converse of the test above: a reads table that named a key its mode
    # never uses would fail here.  oracle-check's N moves its rows only through
    # the ring's images, which reach the last bits at N = 16, not at N = 40
    small = {**_SMALL_RUNS, "oracle-check": ["--N", "16", "--rmax", "2"]}.get(mode, [])
    rows = run_with_other_value(mode, small, tmp_path, capsys)
    expected, _ = rows(None)
    read = [key for key in cli._MODES[mode][1] if key in OTHER_VALUES]
    still = {key for key in read if rows(key)[0] == expected}
    named = {key for m, key in HEADER_ONLY if m == mode}
    assert still == named, {key: HEADER_ONLY.get((mode, key), "moves no row, yet is not named")
                            for key in still ^ named}


#: A value out of range for each key that has a range: each is refused by the
#: code that reads it, so only by a mode that reads the key.  A temperature is
#: refused wherever it stands in the list, and the list may come in any order.
BAD_VALUES = [("N", "0"), ("R", "0"), ("rmin", "0"), ("rmax", "0"), ("asteps", "1"),
              ("jsteps", "1"), ("dsteps", "1"), ("temperatures", "1,-0.1"),
              ("temperatures", "-0.1,0.2")]


@pytest.mark.parametrize("key,value", BAD_VALUES, ids=[f"{k}={v}" for k, v in BAD_VALUES])
@pytest.mark.parametrize("mode", MODES)
def test_a_bad_value_is_refused_only_by_a_mode_that_reads_it(mode, key, value, capsys):
    base = ["--mode", mode, *_SMALL_RUNS.get(mode, []), "--output", "-"]
    code = run_cli(base + [_flag(key), value])
    out, err = capsys.readouterr()
    if key in cli._MODES[mode][1]:
        assert code == 2 and out == ""
        assert err.splitlines()[-1].startswith("chaincp: config error: "), err
        return
    assert code == 0
    assert run_cli(base) == 0
    expected, plain = capsys.readouterr()
    assert [line for line in out.splitlines() if not line.startswith("#")] == \
        [line for line in expected.splitlines() if not line.startswith("#")]
    # the note follows whatever the run itself printed
    assert err == plain + f"chaincp: warning: {mode} does not read {key}\n"


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


def test_decay_profile_refuses_a_grid_point_above_zero_by_its_a(capsys):
    # the system refuses the derived hopping, and names the grid point it came from
    assert run_cli(["--mode", "decay-profile", "--amax", "0.5", "--output", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("chaincp: config error: hopping must be non-negative, "
                   "got J=-0.0016666666666666496 (a = 2 J / delta = 0.0033333333333332993)\n")


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
    assert run_cli(["--mode", "no-such-mode"]) == 2       # unknown mode
    assert run_cli([]) == 2                               # missing mode
    conf = tmp_path / "bad.conf"
    conf.write_text("nonsense = 1\n")
    assert run_cli(["--config", str(conf)]) == 2


def test_exit_code_2_for_an_unreadable_config_file(tmp_path, capsys):
    path = tmp_path / "missing.conf"
    assert run_cli(["--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"chaincp: config error: cannot read config file {path}: "
        f"[Errno 2] No such file or directory: {str(path)!r}\n")


def test_exit_code_2_for_a_config_line_without_equals(tmp_path, capsys):
    path = tmp_path / "bare.conf"
    path.write_text("# a comment\nmode force-sweep\n")
    assert run_cli(["--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"chaincp: config error: {path}:2: expected 'key = value', got 'mode force-sweep'\n")


def test_exit_code_2_for_an_unknown_format(tmp_path, capsys):
    out = tmp_path / "never.xml"
    assert run_cli(["--mode", "force-sweep", "--format", "xml", "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "chaincp: config error: unknown format 'xml'; choose csv or json\n")
    assert not out.exists()


def test_exit_code_2_when_the_output_cannot_be_written(tmp_path, capsys):
    # the output's parent directory is a regular file
    parent = tmp_path / "plain"
    parent.write_text("")
    assert run_cli(["--mode", "force-sweep", "--output", str(parent / "out.csv")]) == 2
    assert capsys.readouterr().err == (
        f"chaincp: i/o error: [Errno 17] File exists: {str(parent)!r}\n")


@pytest.mark.parametrize("error,code,kind", [
    (RegimeViolation, 3, "regime violation"),
    (ConvergenceError, 4, "convergence failure"),
    (ValueError, 2, "config error"),
    (ConfigError, 2, "config error"),
    (MemoryError, 2, "config error"),
    (OSError, 2, "i/o error"),
], ids=lambda value: value.__name__ if isinstance(value, type) else None)
def test_main_maps_each_error_to_one_exit_code(error, code, kind, monkeypatch, capsys):
    def failing(cfg):
        raise error("planted")

    monkeypatch.setattr(cli, "run", failing)
    assert main(["--mode", "force-sweep"]) == code
    assert capsys.readouterr().err == f"chaincp: {kind}: planted\n"


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


@pytest.mark.parametrize("series", [["--mode", "thermal-sweep", "--N", "3000000000"],
                                    ["--mode", "thermal-sweep", "--n-values", "20,5000000"],
                                    ["--mode", "dispersion-dump", "--N", "3000000000"]])
def test_exit_code_2_when_the_band_exceeds_the_mode_ceiling(series, tmp_path, monkeypatch, capsys):
    # modes are built one float at a time, so a huge N would run for hours, or
    # fill memory, instead of failing: above MAX_MODES it is refused up front,
    # before any chain is summed or any mode built
    def forbidden(*args):
        raise AssertionError("a mode was built above the ceiling")

    monkeypatch.setattr(cli, "brillouin_modes", forbidden)
    monkeypatch.setattr(cli, "thermal_table", forbidden)
    assert 2 * 5_000_000 + 1 > MAX_MODES
    assert run_cli([*series, "--rmax", "2", "--output", str(tmp_path / "never.csv")]) == 2
    err = capsys.readouterr().err
    work = {"thermal-sweep": "thermal-sweep streams at most 10000000 band modes per temperature",
            "dispersion-dump": "dispersion-dump writes at most 10000000 modes"}[series[1]]
    assert err.startswith(f"chaincp: config error: {work}; N=") and err.count("\n") == 1
    assert not (tmp_path / "never.csv").exists()


def test_an_oracle_window_past_the_ring_image_bound_runs_no_quadrature(monkeypatch, capsys):
    # the ED refuses rmax > N // 4 (here 10) before the quadrature is called
    def forbidden(*args):
        raise AssertionError("the quadrature ran on a refused window")

    monkeypatch.setattr(cli, "cp_energy_quadrature", forbidden)
    assert run_cli(["--mode", "oracle-check", "--N", "40", "--rmax", "11", "--output", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("chaincp: config error: ") and err.count("\n") == 1


def test_a_ratio_never_reads_as_the_threshold_it_crossed(capsys):
    # detuning-sweep's last default point, J = 0.3 at delta = -0.7, has ratio 0.10000000000000002
    assert run_cli(["--mode", "detuning-sweep", "--output", "-"]) == 0
    ratios = re.findall(r"coupling ratio (\S+) exceeds 0\.1;", capsys.readouterr().err)
    assert ratios and all(float(r) > 0.1 for r in ratios)
    # the gap is 0.5, so the ratio is 2 lambda: three ulp above 0.5 is refused, and says so
    lam = 0.25
    for _ in range(3):
        lam = math.nextafter(lam, 1.0)
    assert run_cli(["--mode", "force-sweep", "--J", "0.25", "--lambda", repr(lam),
                    "--output", "-"]) == 3
    ratio = re.search(r"\(coupling ratio (\S+)\)$", capsys.readouterr().err.strip())[1]
    assert float(ratio) > 0.5


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


def test_a_repeated_chain_gives_no_false_growth_warning(capsys):
    # two equal chains are two tables, each checked on its own
    assert run_cli(["--mode", "thermal-sweep", "--n-values", "20,20", "--rmax", "2",
                    "--lambda", "0.01", "--output", "-"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = [line for line in out.splitlines() if not line.startswith("#")][1:]
    assert rows[:len(rows) // 2] == rows[len(rows) // 2:]


def test_growth_notes_print_per_chain_after_its_regime_warning(capsys):
    temps, separations = (0.0, 1e-4, 1e-3), range(1, 4)
    expected = []
    for n in (20, 10):
        sys_ = SymmetricSystem(delta=-1.0, J=0.3, lam=0.1, N=n)
        expected += [f"chaincp: warning: {note}" for note in require_valid_regime(sys_).warnings]
        table = thermal_table(sys_, temps, separations)
        for r in separations:
            notes = _growth_violations([row for row in table if row.R == r])
            assert all(note.startswith(f"R={r}: ") for note in notes)
            expected += [f"chaincp: warning: at N={n}, {note}" for note in notes]
    assert sum("grew" in line for line in expected) >= 2
    # the notes follow R, then T, in whatever order the temperatures come
    for given in ("0,1e-4,1e-3", "1e-3,0,1e-4"):
        assert run_cli(["--mode", "thermal-sweep", "--n-values", "20,10", "--rmax", "3",
                        "--lambda", "0.1", "--temperatures", given, "--output", "-"]) == 0
        assert capsys.readouterr().err.splitlines() == expected, given


def _fresh_python(*args) -> subprocess.CompletedProcess:
    """A fresh Python process run with ``args``, importing this checkout's chaincp."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(chaincp.__file__).parents[1]), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def _numpy_loaded(runs, tmp_path, first="") -> list[bool]:
    """After each of ``runs``, in one fresh ``chaincp`` process, whether numpy is loaded.

    ``first`` is code the process runs before it imports the CLI.
    """
    code = (f"import sys, json; {first}from chaincp.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    print(main(argv), 'numpy' in sys.modules)")
    runs = [[*argv, "--output", str(tmp_path / f"out{i}")] for i, argv in enumerate(runs)]
    proc = _fresh_python("-c", code, json.dumps(runs))
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [status for status, _ in lines] == ["0"] * len(runs), proc.stderr
    return [loaded == "True" for _, loaded in lines]


#: Flags that keep each mode's run small.
_SMALL_RUNS = {"thermal-sweep": ["--N", "50", "--rmax", "2"],
               "oracle-check": ["--N", "40", "--rmax", "2"],
               "dispersion-dump": ["--N", "5"]}


def test_closed_form_and_oracle_modes_never_load_numpy(tmp_path):
    # every preset, every mode and a JSON table run without numpy
    runs = [["--preset", name] for name in PRESETS]
    runs += [["--mode", mode, *_SMALL_RUNS.get(mode, [])] for mode in MODES]
    runs.append(["--preset", "fig5", "--format", "json"])
    assert _numpy_loaded(runs, tmp_path) == [False] * len(runs)
    # the guard is not vacuous: once the process has imported numpy, it reads True
    assert _numpy_loaded(runs[-1:], tmp_path, first="import numpy; ") == [True]


def test_importing_the_cli_leaves_argparse_unloaded():
    # json loads only when a table is rendered as JSON
    proc = _fresh_python("-c", "import sys, chaincp.cli; "
                         "print(sorted({'argparse', 'json'} & set(sys.modules)))")
    assert proc.stdout.split() == ["[]"], proc.stderr


def test_importing_the_cli_loads_every_traced_module():
    # bench/tracing.py's Tracer.install looks each spanned module up in
    # sys.modules, so the CLI must import them all eagerly
    path = Path(__file__).parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # and patches each spanned attribute by name, so each must resolve there
    pairs = [f"{module}:{attribute}" for _, module, attribute in tracing.SPANNED]
    proc = _fresh_python("-c", "import sys, chaincp.cli; "
                         "pairs = [arg.split(':') for arg in sys.argv[1:]]; "
                         "print(sorted({m for m, _ in pairs} - set(sys.modules))); "
                         "print(sorted(f'{m}.{a}' for m, a in pairs "
                         "if not hasattr(sys.modules.get(m), a)))", *pairs)
    missing, unresolved = (proc.stdout.splitlines() + ["?", "?"])[:2]
    assert missing == "[]", (
        f"chaincp.cli no longer imports {missing}, which the bench tracer spans; " + proc.stderr)
    assert unresolved == "[]", (
        f"the bench tracer spans {unresolved}, which chaincp no longer has; " + proc.stderr)


def test_oracle_warnings_print_as_chaincp_notes(tmp_path):
    # the ED's systematic-error warnings reach stderr as notes, not as Python warnings
    proc = _fresh_python("-m", "chaincp.cli", "--mode", "oracle-check",
                         "--delta=-1", "--J", "0.2", "--lambda", "0.05", "--N", "1000",
                         "--rmin", "140", "--rmax", "142", "--output", str(tmp_path / "o.csv"))
    assert proc.returncode == 4, proc.stderr
    lines = proc.stderr.splitlines()
    assert sum("chaincp: warning: ED estimate" in line for line in lines) == 3
    assert all(line.startswith("chaincp: ") for line in lines), proc.stderr


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
