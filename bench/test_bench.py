"""Smoke test of the benchmark at tiny sizes: that it runs and reports, not how fast."""

import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from chaincp import cli  # noqa: E402

CONFIG = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted(trace, section):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "oracle-ed", "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in CONFIG[section]}


def _result(tmp_path, table, text=None):
    out = tmp_path / f"{table['name']}.csv"
    if text is None:
        with redirect_stderr(io.StringIO()):
            assert cli.main(table["argv"] + ["--output", str(out)]) == 0
        text = out.read_text(encoding="ascii")
    rows = len(text.splitlines()) - 1 - sum(line.startswith("#") for line in text.splitlines())
    passes = [{"error": None, "codes": [0],
               "outputs": [{"sha256": hashlib.sha256(text.encode()).hexdigest(), "rows": rows}]}]
    return {"passes": passes, "texts": [text]}


def _edit_cell(text, row_matches, column, edit):
    """``text`` with ``edit`` applied to ``column`` of the one row ``row_matches`` picks."""
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    columns = lines[header].split(",")
    picked = [i for i in range(header + 1, len(lines))
              if row_matches(dict(zip(columns, map(float, lines[i].split(",")))))]
    assert len(picked) == 1
    cells = lines[picked[0]].split(",")
    j = columns.index(column)
    cells[j] = format(edit(float(cells[j])), ".17g")
    lines[picked[0]] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_corrupted_table_raises_bad_rows(tmp_path):
    table = run.build_tables("figures", 1.0, smoke=True)[0]
    clean = _result(tmp_path, table)
    verdict = run.judge([clean], [table])
    assert verdict["bad_rows"] == 0 and verdict["correct"]

    text = _edit_cell(clean["texts"][0], lambda row: row["R"] == 10 and row["J"] == 0.4,
                      "energy", lambda value: value * (1 + 1e-6))
    verdict = run.judge([_result(tmp_path, table, text)], [table])
    assert verdict["bad_rows"] == 1 and verdict["tolerated_bad_rows"] == 0
    assert not verdict["correct"]


def test_t0_thermal_force_tolerates_only_cancellation(tmp_path):
    table = run.build_tables("thermal", 1.0, smoke=True)[-1]
    clean = _result(tmp_path, table)
    verdict = run.judge([clean], [table])
    assert verdict["bad_rows"] == verdict["tolerated_bad_rows"] and verdict["correct"]
    last = lambda row: row["T"] == 0 and row["N"] == 50 and row["R"] == 12  # noqa: E731

    # At R=12 the force is ~1e-8: 5e-16 more is far outside 1e-9 relative, but
    # within the few-ulp error of differencing two energies of size ~1.
    nudged = _edit_cell(clean["texts"][0], last, "force", lambda value: value + 5e-16)
    verdict = run.judge([_result(tmp_path, table, nudged)], [table])
    assert verdict["bad_rows"] >= 1 and verdict["correct"]
    assert verdict["bad_rows"] == verdict["tolerated_bad_rows"]

    # The same error is a wrong answer on a table that does not expect the cancellation.
    strict = dict(table, expect=dict(table["expect"], t0_force_cancellation=False))
    verdict = run.judge([_result(tmp_path, table, nudged)], [strict])
    assert verdict["tolerated_bad_rows"] == 0 and not verdict["correct"]

    # A wrong sign is far outside the cancellation error, on any table.
    flipped = _edit_cell(clean["texts"][0], last, "force", lambda value: -value)
    verdict = run.judge([_result(tmp_path, table, flipped)], [table])
    assert verdict["bad_rows"] > verdict["tolerated_bad_rows"] and not verdict["correct"]
