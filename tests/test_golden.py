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
]


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_is_byte_identical(name, tmp_path):
    out = tmp_path / name
    assert main(TABLES[name] + ["--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


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
