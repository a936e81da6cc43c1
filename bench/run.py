"""Benchmark of the chaincp command line, end to end and module by module.

Usage, from the root of a chaincp checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Each workload is a list of CLI invocations (one *pass*) run back to back by a
single closed-loop client process (``worker.py``): no concurrency, each pass
starts when the previous one ends, numpy's default BLAS threads.  The seed
jitters only ``--lambda``, by up to 10% either way (seed 0 keeps each
workload's own value), so every output number changes but no work does.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``tracing.py``) next to an untraced run of the
same length.  Every pass is checked: exit code, row count, bytes identical
to the warm-up pass; every table is checked against ``reference.py``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a report
with the environment, the tail percentile and the failing rows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from reference import check_table, expected_rows  # noqa: E402

WHY = {
    "thermal": "fig5 at N=1000..4000 over six temperatures to R=30, after the fig2..fig5 "
               "presets: the thermal layer at large N and its T=0 cancellation",
    "oracle-ed": "oracle-check at N=400, rmax=10: dense diagonalisation is ~94% of the pass",
    # Interpreter-bound, so their pass times swing by ~40% between runs on a
    # shared host: not in BENCHMARK.json, but kept for traced per-call figures.
    "figures": "fig2..fig5 presets back to back: the everyday run and small-N thermal work",
    "oracle-quad": "oracle-check near the band edge (a=-0.99), N=100, rmax=20: "
                   "mpmath quadrature is most of the pass",
}

#: Fresh-process imports before and again after the timed loop, so that the
#: median spans the run; one more first probe (which may compile bytecode) is dropped.
SETUP_PROBES = 15
IMPORTTIME_PROBES = 5
WORKER_TIMEOUT_S = 150


def _table(name, argv, mode, lam, **expect):
    argv = argv + ["--lambda", repr(lam)]
    return {"name": name, "argv": argv,
            "expect": {"mode": mode, "lambda": lam, "eps0": 1.0, "rmin": 1, **expect}}


def build_tables(workload: str, factor: float, smoke: bool) -> list[dict]:
    """The CLI invocations of one pass, with what each table must contain."""
    if workload == "figures":
        return [
            _table("fig2", ["--preset", "fig2"], "force-sweep", 0.01 * factor,
                   series=[(0.3, -1.0), (0.4, -1.0)], rmax=10),
            _table("fig3", ["--preset", "fig3"], "force-sweep", 0.01 * factor,
                   series=[(0.6, -2.0), (0.6, -3.0)], rmax=10),
            _table("fig4", ["--preset", "fig4"], "decay-profile", 0.01 * factor,
                   delta=-1.0, amin=-0.99, amax=-0.01, asteps=100),
            _table("fig5", ["--preset", "fig5"], "thermal-sweep", 0.1 * factor,
                   delta=-1.0, J=0.3, n_values=(100, 200, 400),
                   temperatures=(0.0, 0.1, 1.0), rmax=8),
        ]
    if workload == "thermal":
        n_values = (50, 100) if smoke else (1000, 2000, 4000)
        temps = (0.0, 0.1) if smoke else (0.0, 0.01, 0.03, 0.1, 0.3, 1.0)
        rmax = 12 if smoke else 30
        argv = ["--preset", "fig5", "--n-values", ",".join(map(str, n_values)),
                "--temperatures", ",".join(f"{t:g}" for t in temps), "--rmax", str(rmax)]
        # The figure presets (~30 ms) lead the pass, so that their layers and
        # checks run in a workload steady enough to gate on.
        return build_tables("figures", factor, smoke) + [
            _table("thermal", argv, "thermal-sweep", 0.1 * factor, delta=-1.0, J=0.3,
                   n_values=n_values, temperatures=temps, rmax=rmax,
                   t0_force_cancellation=True)]
    if workload == "oracle-ed":
        n, rmax = (40, 10) if smoke else (400, 10)
        argv = ["--mode", "oracle-check", "--N", str(n), "--rmax", str(rmax)]
        return [_table("oracle-ed", argv, "oracle-check", 0.01 * factor,
                       delta=-1.0, J=0.3, rmax=rmax)]
    if workload == "oracle-quad":
        n, rmax = (40, 3) if smoke else (100, 20)
        argv = ["--mode", "oracle-check", "--J", "0.495", "--N", str(n), "--rmax", str(rmax)]
        return [_table("oracle-quad", argv, "oracle-check", 0.0003 * factor,
                       delta=-1.0, J=0.495, rmax=rmax)]
    raise ValueError(f"unknown workload {workload!r}")


def lambda_factor(seed: int) -> float:
    return 1.0 if seed == 0 else 1.0 + random.Random(seed).uniform(-0.1, 0.1)


# ---------------------------------------------------------------- processes

_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
          "t = time.perf_counter(); import chaincp; print(time.perf_counter() - t)")


class BenchError(RuntimeError):
    pass


def _python(args: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def import_seconds(probes: int) -> list[float]:
    """Seconds of ``import chaincp`` in each of ``probes`` fresh processes."""
    return [float(_python(["-c", _PROBE, str(ROOT / "src")]).stdout) for _ in range(probes)]


def importtime(probes: int) -> dict[str, float]:
    """Medians of ``python -X importtime`` figures for numpy, mpmath and chaincp."""
    samples: list[dict[str, float]] = []
    code = "import sys; sys.path.insert(0, sys.argv[1]); import chaincp"
    for _ in range(probes):
        stderr = _python(["-X", "importtime", "-c", code, str(ROOT / "src")]).stderr
        found = {"import.numpy.s": 0.0, "import.mpmath.s": 0.0, "import.chaincp.self_s": 0.0}
        for line in stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2].strip()
            if name in ("numpy", "mpmath"):
                found[f"import.{name}.s"] = cumulative_us / 1e6
            elif name == "chaincp" or name.startswith("chaincp."):
                found["import.chaincp.self_s"] += self_us / 1e6
        samples.append(found)
    samples = samples[1:]
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def run_worker(tables, seconds: float, trace: bool, work: Path) -> dict:
    out = work / ("traced" if trace else "plain")
    out.mkdir(parents=True)
    spec = {
        "src": str(ROOT / "src"),
        "tables": [{"argv": t["argv"] + ["--output", str(out / f"{t['name']}.csv")],
                    "output": str(out / f"{t['name']}.csv")} for t in tables],
        "seconds": seconds, "trace": trace,
        "result": str(out / "result.json"), "spans": str(out / "spans.json"),
    }
    (out / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    _python([str(BENCH / "worker.py"), str(out / "spec.json")])
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    result["texts"] = []
    for t in spec["tables"]:
        path = Path(t["output"])
        result["texts"].append(path.read_text(encoding="ascii") if path.exists() else "")
    return result


# ---------------------------------------------------------------- checking

def judge(results: list[dict], tables: list[dict]) -> dict:
    """Failed passes and accuracy of the tables across one or more workers."""
    want_rows = [expected_rows(t["expect"]) for t in tables]
    reference = [o["sha256"] for o in results[0]["passes"][0]["outputs"]]
    attempted = failed = 0
    errors: list[str] = []
    for result in results:
        for p in result["passes"]:
            attempted += 1
            reasons = []
            if p["error"]:
                reasons.append(p["error"])
            if p["codes"] != [0] * len(tables):
                reasons.append(f"exit codes {p['codes']}")
            if [o["rows"] for o in p["outputs"]] != want_rows:
                reasons.append(f"rows {[o['rows'] for o in p['outputs']]} != {want_rows}")
            if [o["sha256"] for o in p["outputs"]] != reference:
                reasons.append("bytes differ from the warm-up pass")
            if reasons:
                failed += 1
                errors.append("; ".join(reasons))
    checked = bad = tolerated = 0
    bad_detail: list[str] = []
    for table, text in zip(tables, results[0]["texts"]):
        check = check_table(text, table["expect"])
        checked += check.rows
        bad += len(check.bad)
        tolerated += check.tolerated
        for row, reasons in sorted(check.bad.items())[:5]:
            bad_detail.append(f"{table['name']} row {row}: {', '.join(reasons)}")
    # Every bad row but a tolerated T=0 thermal-force cancellation is a wrong answer.
    return {"correct": failed == 0 and bad == tolerated,
            "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
            "errors": errors[:5],
            "checked_rows": checked, "bad_rows": bad, "tolerated_bad_rows": tolerated,
            "bad_detail": bad_detail}


def tail(samples: list[float]) -> dict:
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    n = len(samples)
    if n < 11:
        return {"n": n, "percentile": None, "value": None}
    pct = math.floor(100 * (n - 10) / n)
    return {"n": n, "percentile": pct,
            "value": sorted(samples)[math.ceil(pct * n / 100) - 1]}


# ---------------------------------------------------------------- metrics

SPAN_METRICS = {
    "oracle.ed": ("calls", "s", "ms_per_call"),
    "oracle.eigh": ("calls", "s"),
    "oracle.quad": ("calls", "s", "ms_per_call"),
    "thermal.ensemble": ("calls", "s", "ms_per_call"),
    "thermal.energy": ("calls",),
    "thermal.force": ("calls",),
    "perturbation.band_energies": ("calls", "s"),
    "perturbation.spectrum_closed": ("calls",),
    "casimir.cp_energy": ("calls", "s"),
    "casimir.force_curve": ("s",),
    "casimir.decay_profile": ("s",),
    "lattice.validate_regime": ("calls", "s"),
    "cli.load_config": ("s",),
    "cli.run": ("self_s",),
}
COUNTERS = {"oracle.eigh.dim_max": "count", "oracle.eigh.bytes_computed": "B",
            "oracle.quad.trig_calls": "count", "lattice.system_builds": "count"}
UNITS = {"calls": "count", "s": "s", "self_s": "s", "ms_per_call": "ms"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "good_rows": "count", "ok_frac": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {f"{span}.{kind}": UNITS[kind]
             for span, kinds in SPAN_METRICS.items() for kind in kinds}
    units.update(COUNTERS)
    units.update({"cli.rows_out": "count", "cli.bytes_out": "B",
                  "import.numpy.s": "s", "import.mpmath.s": "s", "import.chaincp.self_s": "s",
                  "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
                  "trace.pass_iqr_s": "s", "trace.self_sum_s": "s", "trace.unattributed_s": "s",
                  "bad_rows": "count", "fail_frac": "ratio"})
    return units


def iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def layer_metrics(plain: dict, traced: dict, verdict: dict) -> tuple[dict, dict]:
    passes = traced["summaries"][1:]  # the warm-up pass is not timed

    def med(kind, name):
        return statistics.median(p[kind].get(name, 0) for p in passes)

    values: dict[str, float] = {}
    for span, kinds in SPAN_METRICS.items():
        for kind in kinds:
            if kind == "ms_per_call":
                calls = med("calls", span)
                values[f"{span}.{kind}"] = 1000 * med("s", span) / calls if calls else 0.0
            else:
                values[f"{span}.{kind}"] = med(kind, span)
    for name in COUNTERS:
        values[name] = med("counts", name)
    outputs = traced["passes"][0]["outputs"]
    values["cli.rows_out"] = sum(o["rows"] for o in outputs)
    values["cli.bytes_out"] = sum(o["bytes"] for o in outputs)

    traced_s = [p["s"] for p in traced["passes"][1:]]
    self_sums = [sum(v for k, v in p["self_s"].items() if k != "pass") for p in passes]
    values["trace.wall_s"] = statistics.median(traced_s)
    values["trace.untraced_wall_s"] = statistics.median(p["s"] for p in plain["passes"][1:])
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    values["trace.pass_iqr_s"] = iqr(traced_s) if len(traced_s) > 1 else 0.0
    values["trace.self_sum_s"] = statistics.median(self_sums)
    values["trace.unattributed_s"] = med("self_s", "pass")
    values["bad_rows"] = verdict["bad_rows"]
    values["fail_frac"] = verdict["fail_frac"]

    self_by_layer = {name: med("self_s", name)
                     for name in sorted({k for p in passes for k in p["self_s"]})}
    report = {
        "traced_passes": len(traced_s),
        "self_s_by_span": self_by_layer,
        "self_times_account_for_pass":
            abs(values["trace.wall_s"] - values["trace.self_sum_s"]) <= values["trace.pass_iqr_s"],
    }
    return values, report


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chaincp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and few probes: checks that the benchmark runs")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chaincp" / "__init__.py").is_file():
        print(f"bench: no chaincp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    factor = lambda_factor(args.seed)
    tables = build_tables(args.workload, factor, args.smoke)
    probes = (1, 2) if args.smoke else (SETUP_PROBES, IMPORTTIME_PROBES)

    try:
        if args.trace:
            plain = run_worker(tables, args.seconds / 2, False, work)
            traced = run_worker(tables, args.seconds / 2, True, work)
            verdict = judge([plain, traced], tables)
            values, extra = layer_metrics(plain, traced, verdict)
            values.update(importtime(probes[1]))
            units = per_layer_units()
            env = traced["env"]
        else:
            setup = import_seconds(1 + probes[0])[1:]
            plain = run_worker(tables, args.seconds, False, work)
            setup += import_seconds(probes[0]) + [plain["setup_s"]]
            verdict = judge([plain], tables)
            wall = [p["s"] for p in plain["passes"][1:]]
            values = {
                "wall_s": statistics.median(wall),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": plain["peak_rss_mb"],
                "good_rows": verdict["checked_rows"] - verdict["bad_rows"],
                "ok_frac": 1.0 - verdict["fail_frac"],
            }
            extra = {"wall_tail": tail(wall), "setup_samples": len(setup)}
            units = END_TO_END
            env = plain["env"]
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    env.update(git_commit=git_commit(), source_sha256=source_digest())
    report = {"report": {"workload": args.workload, "seed": args.seed, "lambda_factor": factor,
                         "smoke": args.smoke, "env": env, **verdict, **extra}}
    (work / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps(report))
    print(json.dumps({
        "correct": verdict["correct"],
        "attempted": verdict["attempted"], "failed": verdict["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
