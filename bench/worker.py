"""One closed-loop client: import chaincp, then run CLI passes back to back.

Started by ``run.py`` as a fresh process per workload, so that the import
time and peak memory it reports belong to that workload alone.  It reads a
JSON spec (``src``, ``tables`` of ``argv`` and ``output``, ``seconds``,
``trace``, ``result``, ``spans``) and writes a JSON result.  A pass is every
table's ``chaincp.cli.main(argv)`` in turn; the first pass is a warm-up and
is not timed.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked of the library itself."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import mpmath
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        vendor = "unknown"
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas": vendor,
        "blas_threads": _blas_threads(),
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
    }


def _data_rows(data: bytes) -> int:
    lines = [line for line in data.splitlines() if not line.startswith(b"#")]
    return max(len(lines) - 1, 0)


def run_pass(cli, tables, tracer, stderr) -> dict:
    for table in tables:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(table["output"])
    codes, error = [], None
    with contextlib.redirect_stderr(stderr), (tracer.root() if tracer else contextlib.nullcontext()):
        start = time.perf_counter()
        try:
            for table in tables:
                codes.append(cli.main(table["argv"]))
        except Exception as exc:  # a pass that raises is a failed pass, not a failed benchmark
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    outputs = []
    for table in tables:
        try:
            data = Path(table["output"]).read_bytes()
        except OSError:
            data = b""
        outputs.append({"sha256": hashlib.sha256(data).hexdigest(),
                        "bytes": len(data), "rows": _data_rows(data)})
    return {"s": seconds, "codes": codes, "error": error, "outputs": outputs}


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    start = time.perf_counter()
    import chaincp  # noqa: F401  (the import is what is timed)
    setup_s = time.perf_counter() - start
    from chaincp import cli

    env = environment()
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        print(f"worker: BLAS runs {env['blas_threads']} threads on {env['nproc']} cores",
              file=sys.stderr)
        return 3

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    warm_stderr = io.StringIO()
    passes = [run_pass(cli, spec["tables"], tracer, warm_stderr)]
    with open(os.devnull, "w", encoding="utf-8") as sink:
        loop_start = time.perf_counter()
        while time.perf_counter() - loop_start < spec["seconds"]:
            passes.append(run_pass(cli, spec["tables"], tracer, sink))
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": env,
        "warmup_stderr": warm_stderr.getvalue()[-2000:],
        "passes": passes,
    }
    if tracer is not None:
        tracer.restore()
        result["summaries"] = tracer.pass_summaries()
        first, end, _ = tracer.passes[-1]
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans[first:end], fh)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
