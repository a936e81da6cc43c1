"""Byte-for-byte regression of the CLI tables and exit codes.

Every table under ``golden/`` is the one the CLI wrote for the arguments
listed here, so a refactor that promises the same results must reproduce each
one exactly; ``golden/demos/`` holds each demo's stdout, which
``test_demos.py`` compares.  After a deliberate change of output, regenerate
them all from the root of the checkout with::

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from chaincp.cli import main

GOLDEN = Path(__file__).with_name("golden")

TABLES = {
    "fig2.csv": ["--preset", "fig2"],
    "fig2.json": ["--preset", "fig2", "--format", "json"],
    "fig3.csv": ["--preset", "fig3"],
    "fig4.csv": ["--preset", "fig4"],
    "fig5.csv": ["--preset", "fig5"],
    # large N and R, where the T = 0 cancellation magnifies any last-bit drift
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
    ("dispersion-dump --N 3 --delta 0.5", 3),
    ("detuning-sweep --dmax -0.5", 3),
    ("hopping-sweep --R 199 --lambda 0.3", 3),
    # non-finite grid points and system parameters are configuration errors
    ("hopping-sweep --jmin inf", 2),
    ("detuning-sweep --dmin=-1e308 --dmax 1e308", 2),
    ("thermal-sweep --delta=-inf --N 5 --rmax 2", 2),
    # the ED secular equation runs in offsets from eps0: neither its bracket
    # nor its digits depend on where zero is
    ("oracle-check --N 40 --lambda 1e-3 --eps0 1e14", 0),
    ("oracle-check --delta=-1e-10 --J 3e-11 --lambda 1e-13 --rmax 3 --N 40", 0),
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
    # deltas came back one ulp off, and only their rows move, by a few ulp
    old, new = ((GOLDEN / name).read_text(encoding="ascii").splitlines()
                for name in ("detuning-sweep-roundtrip.csv", "detuning-sweep.csv"))
    assert len(old) == len(new)
    moved = [(o.split(","), n.split(",")) for o, n in zip(old, new) if o != n]
    assert [n[0] for _, n in moved] == ["-1.9000000000000001", "-1.8", "-1.5000000000000002",
                                        "-1.4000000000000001", "-1.3", "-1.0000000000000002"]
    for o, n in moved:
        assert o[:2] == n[:2]
        for a, b in zip(map(float, o[2:]), map(float, n[2:])):
            assert abs(a - b) <= 1e-13 * abs(b)


def test_the_absolute_energy_table_differs_only_in_its_ed_cells():
    # oracle-check.csv as computed when the ED differenced absolute ground
    # energies of order eps0 = 1: each ed cell carried ~1e-16 of absolute
    # rounding, up to 1e-7 of E_cp(10) ~ 2e-9 (the largest move is 9.9e-9)
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


def test_oracle_check_rows_do_not_depend_on_where_zero_is(tmp_path):
    def data_rows(eps0):
        out = tmp_path / f"oracle-{eps0}.csv"
        assert main(["--mode", "oracle-check", "--N", "40", "--rmax", "10", "--eps0", eps0,
                     "--output", str(out)]) == 0
        return [line for line in out.read_text(encoding="ascii").splitlines()
                if not line.startswith("#")]

    at_zero = data_rows("0")
    assert len(at_zero) == 11
    assert data_rows("1") == at_zero
    assert data_rows("1e6") == at_zero


@pytest.mark.parametrize("args,code", EXIT_CODES, ids=[args for args, _ in EXIT_CODES])
def test_exit_code(args, code, tmp_path):
    argv = ["--mode"] + args.split() + ["--output", str(tmp_path / "out.csv")]
    assert main(argv) == code


if __name__ == "__main__":
    from test_demos import DEMOS, GOLDEN_DEMOS, demo_stdout

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in TABLES.items():
        if main(argv + ["--output", str(GOLDEN / name)]) != 0:
            raise SystemExit(f"chaincp {' '.join(argv)} failed")
    GOLDEN_DEMOS.mkdir(exist_ok=True)
    for demo in DEMOS:
        (GOLDEN_DEMOS / f"{demo.stem}.txt").write_text(demo_stdout(demo), encoding="utf-8")
