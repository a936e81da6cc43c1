"""Byte-for-byte regression of the CLI tables and exit codes.

Every table under ``golden/`` is the one the CLI wrote for the arguments
listed here, so a refactor that promises the same results must reproduce each
one exactly; ``golden/demos/`` holds each demo's stdout, which
``test_demos.py`` compares.  After a deliberate change of output, regenerate
them all from the root of the checkout with::

    PYTHONPATH=src python tests/test_golden.py

which prints, for each table it rewrites with new bytes, how many cells
changed and the largest relative move per column, and names each demo whose
stdout changed.
"""

import json
import math
from pathlib import Path

import pytest

from chaincp.casimir import force_curve
from chaincp.cli import CANCEL_EPS, main
from chaincp.lattice import SymmetricSystem

GOLDEN = Path(__file__).with_name("golden")

TABLES = {
    "fig2.csv": ["--preset", "fig2"],
    "fig2.json": ["--preset", "fig2", "--format", "json"],
    "fig3.csv": ["--preset", "fig3"],
    "fig4.csv": ["--preset", "fig4"],
    "fig5.csv": ["--preset", "fig5"],
    # large N and R, where forces fall to ~1e-17 beside energies ~1: any last-bit drift shows
    "thermal-large.csv": ["--preset", "fig5", "--n-values", "1000,4000",
                          "--temperatures", "0,0.01,1", "--rmax", "30"],
    "hopping-sweep.csv": ["--mode", "hopping-sweep"],
    "detuning-sweep.csv": ["--mode", "detuning-sweep"],
    "decay-profile.csv": ["--mode", "decay-profile"],
    "oracle-check.csv": ["--mode", "oracle-check", "--N", "40", "--rmax", "10"],
    # the only JSON table with bool cells
    "oracle-check.json": ["--mode", "oracle-check", "--N", "40", "--rmax", "10",
                          "--format", "json"],
    # a delta_values series in the header
    "delta-values.csv": ["--mode", "force-sweep", "--delta-values=-1.5,-2", "--rmax", "5"],
    # file-sourced overrides, with omega resolving the detuning through a file
    "hopping-file.csv": ["--config", str(GOLDEN / "hopping-file.conf")],
    "dispersion-dump.csv": ["--mode", "dispersion-dump", "--N", "5"],
}

EXIT_CODES = [
    ("hopping-sweep --R 300", 2),
    ("hopping-sweep --R 200", 2),
    ("thermal-sweep --N 10 --rmax 10", 2),
    ("force-sweep --N 10 --rmax 10", 2),
    ("oracle-check --J 0", 3),
    ("decay-profile --delta 0.5", 2),
    # the system refuses the band edge itself; any grid order runs
    ("decay-profile --amin=-1", 3),
    ("decay-profile --amin=-0.1 --amax=-0.9 --asteps 3", 0),
    ("thermal-sweep --temperatures 1,0.1 --N 20 --rmax 2", 0),
    ("dispersion-dump --N 3 --delta 0.5", 3),
    ("detuning-sweep --dmax -0.5", 3),
    ("hopping-sweep --R 199 --lambda 0.3", 3),
    # non-finite grid points and system parameters are configuration errors
    ("hopping-sweep --jmin inf", 2),
    ("detuning-sweep --dmin=-1e308 --dmax 1e308", 2),
    ("thermal-sweep --delta=-inf --N 5 --rmax 2", 2),
    # the ED secular equation runs in offsets from eps0: none of its digits
    # depend on where zero is
    ("oracle-check --N 40 --lambda 1e-3 --eps0 1e14", 0),
    ("oracle-check --delta=-1e-10 --J 3e-11 --lambda 1e-13 --rmax 3 --N 40", 0),
    # the gap and the band-edge rule are offsets from eps0 too: a detuning far
    # below an ulp of eps0, or an eps0 far above the gap, is still below the band
    ("force-sweep --delta=-1e-17 --J 3e-18 --lambda 1e-19 --rmax 3", 0),
    ("thermal-sweep --delta=-1e-17 --J 3e-18 --lambda 1e-19 --N 20 --rmax 3", 0),
    ("oracle-check --eps0 1e16 --N 40 --rmax 3", 0),
    # the ED solves for the shift itself, so E_cp ~ 1e-54 keeps its digits
    ("oracle-check --J 1e-5 --N 40 --rmax 10", 0),
    # q ~ 1e-300: the quadrature works at the digits that resolve the smallest
    # subnormal, not the 30000 that E_cp(100) cancels, and every cell past R = 1 is zero
    ("oracle-check --J 1e-300 --N 400 --rmax 100", 0),
    # the exact finite-ring shift keeps the coupling's shift of the decay rate,
    # 34% at R = 140, which the second-order closed form drops
    ("oracle-check --delta=-1 --J 0.2 --lambda 0.05 --N 1000 --rmin 140 --rmax 160", 4),
]


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_is_byte_identical(name, tmp_path):
    out = tmp_path / name
    assert main(TABLES[name] + ["--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_a_negative_series_needs_no_equals_sign(tmp_path):
    out = tmp_path / "delta-values.csv"
    argv = ["--mode", "force-sweep", "--delta-values", "-1.5,-2", "--rmax", "5"]
    assert main(argv + ["--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "delta-values.csv").read_bytes()


def test_the_round_trip_table_differs_only_in_its_six_unrounded_rows():
    # detuning-sweep.csv as computed at delta = 1 - (1 - delta): six of its
    # deltas come back one ulp off, and only their rows move, by a few ulp.
    # The kept table holds the cells of the closed forms' old root
    # sqrt(1 - a*a), so each of its cells is within rounding of today's, and
    # the round trip itself is recomputed with today's closed forms
    old, new = ((GOLDEN / name).read_text(encoding="ascii").splitlines()
                for name in ("detuning-sweep-roundtrip.csv", "detuning-sweep.csv"))
    assert len(old) == len(new)
    header = new.index("delta,R,energy,force,abs_force")
    assert old[:header + 1] == new[:header + 1]
    moved = []
    for o, n in zip(old[header + 1:], new[header + 1:]):
        o, n = o.split(","), n.split(",")
        assert o[:2] == n[:2] and n[1] == "1"
        for a, b in zip(map(float, o[2:]), map(float, n[2:])):
            assert abs(a - b) <= 1e-13 * abs(b)
        delta = float(n[0])
        row = force_curve(SymmetricSystem(1.0 - (1.0 - delta), 0.3, 0.01, 200), range(1, 2))[0]
        if [row.energy, row.force] != [float(n[2]), float(n[3])]:
            moved.append(n[0])
            assert row.energy == pytest.approx(float(n[2]), rel=1e-13, abs=0.0)
            assert row.force == pytest.approx(float(n[3]), rel=1e-13, abs=0.0)
    assert moved == ["-1.9000000000000001", "-1.8", "-1.5000000000000002",
                     "-1.4000000000000001", "-1.3", "-1.0000000000000002"]


def test_the_absolute_energy_table_differs_only_in_its_ed_cells():
    # oracle-check.csv as computed when the ED differenced absolute ground
    # energies of order eps0 = 1: each ed cell carried ~1e-16 of absolute
    # rounding, up to 1e-7 of E_cp(10) ~ 2e-9.  The ED now solves for the
    # shift from the single-impurity level itself; the old cells also carried
    # the closed form's error at their reference R = N // 2, ~1.3e-16, so the
    # largest move is 6.0e-8, at R = 10
    old, new = ((GOLDEN / name).read_text(encoding="ascii").splitlines()
                for name in ("oracle-check-absolute.csv", "oracle-check.csv"))
    assert len(old) == len(new)
    header = new.index("R,closed,quadrature,quad_rel_err,quad_ok,ed,ed_rel_err,ed_ok")
    assert old[:header + 1] == new[:header + 1]
    for o, n in zip(old[header + 1:], new[header + 1:]):
        o, n = o.split(","), n.split(",")
        assert o[:5] + o[7:] == n[:5] + n[7:]
        assert abs(float(o[5]) - float(n[5])) <= 1e-7 * abs(float(n[5]))
        # the relative error is a ratio, so the same tolerance bounds its move
        assert abs(float(o[6]) - float(n[6])) <= 1e-7


def test_the_absolute_thermal_tables_differ_only_by_rounding():
    # fig5.csv and thermal-large.csv as computed when the thermal levels were
    # absolute energies of order eps0 = 1: each energy moves by rounding, and
    # each force by at most the cancellation bound it carried
    for name in ("fig5", "thermal-large"):
        old, new = ((GOLDEN / f"{stem}.csv").read_text(encoding="ascii").splitlines()
                    for stem in (f"{name}-absolute", name))
        assert len(old) == len(new)
        header = new.index("T,N,R,energy,force")
        assert old[:header + 1] == new[:header + 1]
        for o, n in zip(old[header + 1:], new[header + 1:]):
            o, n = o.split(","), n.split(",")
            assert o[:3] == n[:3]
            energy = float(n[3])
            assert abs(float(o[3]) - energy) <= 4.5e-16 * abs(energy)
            assert abs(float(o[4]) - float(n[4])) <= CANCEL_EPS * abs(energy)


def cli_rows(tmp_path, argv):
    """The data rows of the CSV table ``chaincp argv`` writes, as column -> cell dicts."""
    out = tmp_path / "rows.csv"
    assert main(argv + ["--output", str(out)]) == 0
    lines = [line.split(",") for line in out.read_text(encoding="ascii").splitlines()
             if not line.startswith("#")]
    return [dict(zip(lines[0], line)) for line in lines[1:]]


#: One run per mode that computes energies, with every energy-valued key given.
SYSTEMS = {
    "oracle-check": ["--mode", "oracle-check", "--N", "40", "--rmax", "10"],
    "thermal-sweep": ["--mode", "thermal-sweep", "--N", "50", "--rmax", "8"],
    "force-sweep": ["--mode", "force-sweep", "--rmax", "8"],
}
ENERGIES = {"delta": -1.0, "J": 0.3, "lambda": 0.01, "temperatures": (0.0, 0.001, 0.01, 1.0)}


def energy_rows(tmp_path, mode, scale=1.0, eps0=1.0):
    """The rows of ``mode`` with every energy-valued key, ``eps0`` too, times ``scale``."""
    flags = []
    for key, value in {**ENERGIES, "eps0": eps0}.items():
        values = value if isinstance(value, tuple) else (value,)
        flags.append(f"--{key}={','.join(repr(scale * v) for v in values)}")
    return cli_rows(tmp_path, SYSTEMS[mode] + flags)


def test_oracle_check_rows_do_not_depend_on_where_zero_is(tmp_path):
    # every level is an offset from eps0: forces and oracle rows keep their
    # bytes wherever zero is, and a printed thermal energy is eps0 plus the
    # offset, added once
    for mode in SYSTEMS:
        at_zero = energy_rows(tmp_path, mode, eps0=0.0)
        assert at_zero
        for eps0 in (1.0, -3.0, 1e6, 1e14):
            shifted = energy_rows(tmp_path, mode, eps0=eps0)
            assert len(shifted) == len(at_zero)
            for old, new in zip(at_zero, shifted):
                old, new = dict(old), dict(new)
                if mode == "thermal-sweep":
                    assert float(new.pop("energy")) == eps0 + float(old.pop("energy"))
                assert new == old


@pytest.mark.parametrize("k", [-5, 3, 20])
@pytest.mark.parametrize("mode", sorted(SYSTEMS))
def test_every_energy_scales_bit_for_bit_with_the_energy_unit(mode, k, tmp_path):
    # binary floating point has no preferred unit of energy: scaling every
    # energy-valued input by a power of two scales every energy-valued cell
    # by the same power, exactly
    base = energy_rows(tmp_path, mode)
    scaled = energy_rows(tmp_path, mode, scale=2.0 ** k)
    assert len(scaled) == len(base) > 0
    for old, new in zip(base, scaled):
        for column in ("T", "J", "delta", "energy", "force", "abs_force",
                       "closed", "quadrature", "ed"):
            if column in old:
                assert float(new.pop(column)) == 2.0 ** k * float(old.pop(column))
        assert new == old


@pytest.mark.parametrize("args,code", EXIT_CODES, ids=[args for args, _ in EXIT_CODES])
def test_exit_code(args, code, tmp_path):
    argv = ["--mode"] + args.split() + ["--output", str(tmp_path / "out.csv")]
    assert main(argv) == code


def table_parts(text):
    """``(header, columns, rows)`` of a CSV or JSON table, every cell as its text."""
    if text.startswith("{"):
        table = json.loads(text)
        return table["meta"], table["columns"], [list(map(json.dumps, row)) for row in table["rows"]]
    header = [line for line in text.splitlines() if line.startswith("#")]
    columns, *rows = (line.split(",") for line in text.splitlines() if not line.startswith("#"))
    return header, columns, rows


def moves(old, new):
    """What regenerating a table moved: a header, rows, or cells and each column's largest move.

    A cell's move is ``|new - old| / |old|``: infinite off a zero, ``nan``
    for a cell that is not a number.
    """
    (old_header, columns, old_rows), (new_header, new_columns, new_rows) = map(
        table_parts, (old, new))
    found = ["header changed"] if old_header != new_header else []
    if columns != new_columns or len(old_rows) != len(new_rows):
        return ", ".join(found + [f"columns or row count changed: {len(old_rows)} -> "
                                  f"{len(new_rows)} rows"])
    largest, cells = {}, 0
    for old_row, new_row in zip(old_rows, new_rows):
        for column, a, b in zip(columns, old_row, new_row):
            if a == b:
                continue
            cells += 1
            try:
                a, b = float(a), float(b)
                move = abs(b - a) / abs(a) if a else math.inf
            except ValueError:
                move = math.nan
            largest[column] = max(largest.get(column, move), move, key=lambda m: (m == m, m))
    if cells:
        found.append(f"{cells} cells changed, largest relative move "
                     + ", ".join(f"{column} {move:.2g}" for column, move in largest.items()))
    return "; ".join(found)


def test_a_regeneration_report_names_every_move():
    old = "# J = 1\nR,energy,ok\n1,-2.0,True\n2,-1.0,True\n3,0.0,True\n"
    new = "# J = 2\nR,energy,ok\n1,-2.0,True\n2,-1.5,True\n3,1e-300,False\n"
    assert moves(old, new) == "header changed; 3 cells changed, largest relative move " \
                              "energy inf, ok nan"
    assert moves(old, old.replace("-1.0", "-1.25")) == \
        "1 cells changed, largest relative move energy 0.25"
    as_json = json.dumps({"meta": {}, "columns": ["R", "ok"], "rows": [[1, True]]})
    assert moves(as_json, as_json.replace("true", "false")) == \
        "1 cells changed, largest relative move ok nan"
    assert moves(old, old + "4,0.5,True\n") == "columns or row count changed: 3 -> 4 rows"


if __name__ == "__main__":
    from test_demos import DEMOS, GOLDEN_DEMOS, demo_stdout

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in TABLES.items():
        path = GOLDEN / name
        old = path.read_text(encoding="ascii") if path.exists() else None
        if main(argv + ["--output", str(path)]) != 0:
            raise SystemExit(f"chaincp {' '.join(argv)} failed")
        new = path.read_text(encoding="ascii")
        if old != new:
            print(f"{name}: {'new table' if old is None else moves(old, new)}")
    GOLDEN_DEMOS.mkdir(exist_ok=True)
    for demo in DEMOS:
        path = GOLDEN_DEMOS / f"{demo.stem}.txt"
        old, new = path.read_text(encoding="utf-8") if path.exists() else None, demo_stdout(demo)
        if old != new:
            print(f"demos/{path.name}: stdout changed")
        path.write_text(new, encoding="utf-8")
