"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a chaincp checkout::

    python3 bench/sweep.py --seeds 1-10 [--trace 0] [--out bench/baseline.json]

For every workload in ``BENCHMARK.json`` it runs ``run.py`` once per seed,
one run at a time, each ``run_seconds`` long.  It prints per metric the
median, the quartiles (``statistics.quantiles(n=4)``) and the spread
``(q3 - q1) / median``, next to the bound ``BENCHMARK.json`` sets.  A spread
above a third of its bound is flagged.  ``--out`` writes the
summary as JSON, with the environment of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 0,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"] + config["per_layer"]}
    summary: dict = {"seeds": parse_seeds(args.seeds), "trace": args.trace,
                     "seconds": config["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in config["workloads"]):
        runs = []
        for seed in summary["seeds"]:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            runs.append({"seed": seed, "report": json.loads(lines[-2])["report"],
                         "result": json.loads(lines[-1])})
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            stats = summarize([r["result"]["metrics"][name]["value"] for r in runs])
            metrics[name] = stats
            bound = bounds.get(name)
            flag = ""
            if bound is not None and stats["spread"] is not None and stats["spread"] > bound / 3:
                flag = "  <-- above a third of the bound"
            if args.trace == 0 or name.startswith("trace."):
                spread = "n/a" if stats["spread"] is None else f"{stats['spread']:.4f}"
                print(f"{workload:12s} {name:24s} median {stats['median']:.6g}  "
                      f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {spread}  "
                      f"bound {bound}{flag}")
        correct = all(r["result"]["correct"] for r in runs)
        print(f"{workload:12s} correct in every run: {correct}")
        summary["env"] = runs[0]["report"]["env"]
        summary["workloads"][workload] = {
            "correct": correct, "metrics": metrics,
            "bad_rows_by_seed": [[r["seed"], r["report"]["bad_rows"]] for r in runs],
        }
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
