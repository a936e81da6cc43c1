"""Span recorder for the traced run, wrapped around chaincp from outside.

The package itself is not changed: :meth:`Tracer.install` replaces each
traced public function at every module attribute that refers to it (so the
names ``chaincp.cli`` and ``chaincp.thermal`` imported are wrapped too), plus
``numpy.linalg.eigh``, and restores the originals in :meth:`Tracer.restore`.
mpmath's ``mp.cos`` / ``mp.sin`` and ``SymmetricSystem`` construction are
only counted, because a span per call would cost more than the call.

Spans are kept in memory as ``[name, start, end, parent]`` and summarised
when the run ends.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

#: (span name, module, attribute) of every traced public function.
SPANNED = (
    ("cli.main", "chaincp.cli", "main"),
    ("cli.load_config", "chaincp.cli", "load_config"),
    ("cli.run", "chaincp.cli", "run"),
    ("oracle.ed", "chaincp.oracle", "cp_energy_ed"),
    ("oracle.quad", "chaincp.oracle", "cp_energy_quadrature"),
    ("thermal.ensemble", "chaincp.thermal", "thermal_ensemble"),
    ("thermal.energy", "chaincp.thermal", "thermal_energy"),
    ("thermal.force", "chaincp.thermal", "thermal_force"),
    ("perturbation.band_energies", "chaincp.perturbation", "band_energies"),
    ("perturbation.spectrum_closed", "chaincp.perturbation", "symmetric_spectrum_closed"),
    ("casimir.cp_energy", "chaincp.casimir", "cp_energy"),
    ("casimir.force_curve", "chaincp.casimir", "force_curve"),
    ("casimir.decay_profile", "chaincp.casimir", "decay_profile"),
    ("lattice.validate_regime", "chaincp.lattice", "validate_regime"),
)
ROOT = "pass"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.passes: list[tuple[int, int, Counter]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name, fn, on_call=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_eigh(self, args) -> None:
        dim = len(args[0])
        self.counts["oracle.eigh.bytes_computed"] += 8 * dim * dim
        self.counts["oracle.eigh.dim_max"] = max(self.counts["oracle.eigh.dim_max"], dim)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy
        from mpmath import mp

        from chaincp.lattice import SymmetricSystem

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "chaincp" or n.startswith("chaincp.")]
        for name, modname, attr in SPANNED:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._span(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        self._patch(numpy.linalg, "eigh",
                    self._span("oracle.eigh", numpy.linalg.eigh, self._count_eigh))
        for trig in ("cos", "sin"):
            self._patch(mp, trig, self._counter("oracle.quad.trig_calls", getattr(mp, trig)))
        self._patch(SymmetricSystem, "__post_init__",
                    self._counter("lattice.system_builds", SymmetricSystem.__post_init__))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def root(self):
        """Record one pass as a root span, with the counters it accumulated."""
        first = len(self.spans)
        self.counts.clear()
        self.spans.append([ROOT, time.perf_counter(), 0.0, -1])
        self._stack.append(first)
        try:
            yield
        finally:
            self.spans[first][2] = time.perf_counter()
            self._stack.pop()
            self.passes.append((first, len(self.spans), Counter(self.counts)))

    def pass_summaries(self) -> list[dict]:
        """Per pass: calls, inclusive and self seconds per span name, and counters."""
        out = []
        for first, end, counts in self.passes:
            child = [0.0] * (end - first)
            for name, start, stop, parent in self.spans[first + 1:end]:
                child[parent - first] += stop - start
            calls: Counter = Counter()
            incl: Counter = Counter()
            self_s: Counter = Counter()
            for offset, (name, start, stop, _) in enumerate(self.spans[first:end]):
                calls[name] += 1
                incl[name] += stop - start
                self_s[name] += stop - start - child[offset]
            out.append({"calls": calls, "s": incl, "self_s": self_s, "counts": counts})
        return out
