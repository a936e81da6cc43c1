"""Command-line front end.

One executable, ``chaincp``, with a ``--mode`` switch.  Parameters resolve in
a fixed precedence order: built-in defaults, then a ``--preset``, then a
``--config`` file of ``key = value`` lines, then command-line flags.  Every
run writes a single deterministic table (CSV with ``# key = value`` header
lines, or the same content as JSON), so repeated runs with the same inputs
are byte-identical.

Exit codes: 0 success; 2 configuration or usage problems; 3 parameters
outside the validity regime; 4 convergence or cross-check failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from types import MappingProxyType

from ._version import __version__
from .casimir import cp_energy, decay_profile, force_curve
from .errors import ConvergenceError, InvalidRegime, RegimeViolation
from .lattice import SymmetricSystem, brillouin_modes, dispersion, require_valid_regime
from .oracle import MAX_POINTS, cp_energy_ed, cp_energy_quadrature
from .thermal import CANCEL_EPS, ThermalRow, _growth_violations, thermal_table

#: Environment variable consulted for the default output directory; it has
#: no other effect, and an explicit --output always wins.
OUTDIR_ENV = "CHAINCP_OUTDIR"

#: oracle-check tolerances: quadrature must match the closed form to float
#: accuracy, diagonalisation carries percent-level fourth-order systematics.
QUAD_TOL = 1e-9
ED_TOL = 1e-2

PRESETS: dict[str, dict] = {
    # force vs separation for two hoppings at fixed detuning
    "fig2": {"mode": "force-sweep", "lambda": 0.01, "delta": -1.0, "eps0": 1.0,
             "N": 200, "rmin": 1, "rmax": 10, "j_values": (0.3, 0.4)},
    # force vs separation for two detunings at fixed hopping
    "fig3": {"mode": "force-sweep", "lambda": 0.01, "eps0": 1.0, "J": 0.6,
             "N": 200, "rmin": 1, "rmax": 10, "delta_values": (-2.0, -3.0)},
    # decay rate and range across the band parameter
    "fig4": {"mode": "decay-profile", "delta": -1.0, "eps0": 1.0, "lambda": 0.01,
             "amin": -0.99, "amax": -0.01, "asteps": 100},
    # thermal force for three temperatures and three chain lengths
    "fig5": {"mode": "thermal-sweep", "lambda": 0.1, "delta": -1.0, "eps0": 1.0,
             "J": 0.3, "temperatures": (0.0, 0.1, 1.0), "n_values": (100, 200, 400),
             "rmin": 1, "rmax": 8},
}


class ConfigError(ValueError):
    """Bad flag, file, or value; maps to exit code 2."""


#: Every configuration key, as ``key -> (type, default)``.  A ``(float,)``
#: or ``(int,)`` type is a comma-separated list.  Keys other than ``str`` ones
#: get a ``--key`` flag (``_`` spelled ``-``), in this order.
_KEYS: dict[str, tuple] = {
    "mode": (str, None), "format": (str, "csv"), "output": (str, None),
    "eps0": (float, 1.0), "omega": (float, None), "delta": (float, -1.0),
    "J": (float, 0.3), "lambda": (float, 0.01),
    "amin": (float, -0.99), "amax": (float, -0.01),
    "jmin": (float, 0.02), "jmax": (float, 0.48),
    "dmin": (float, -3.0), "dmax": (float, -0.7),
    "N": (int, 200), "R": (int, 1), "rmin": (int, 1), "rmax": (int, 10),
    "asteps": (int, 100), "jsteps": (int, 24), "dsteps": (int, 24),
    "temperatures": ((float,), (0.0, 0.1, 1.0)),
    "j_values": ((float,), None), "delta_values": ((float,), None),
    "n_values": ((int,), None),
}


def _coerce(key: str, raw) -> object:
    """Parse a raw (usually string) value into the type the key expects.

    NaN is refused for every numeric key: it compares false with everything,
    so it would slip past every range check downstream.
    """
    if not isinstance(raw, str):
        return raw
    kind = _KEYS[key][0]
    text = raw.strip()
    if kind is str:
        return text
    parse, parts = (kind[0], text.split(",")) if isinstance(kind, tuple) else (kind, [text])
    try:
        values = tuple(parse(part) for part in parts)
    except ValueError:
        raise ConfigError(f"cannot parse value {raw!r} for key {key!r}") from None
    if any(math.isnan(v) for v in values):
        raise ConfigError(f"NaN is not a valid value for key {key!r}")
    return values if isinstance(kind, tuple) else values[0]


def _parse_config_file(path: str) -> dict[str, object]:
    """Read ``key = value`` lines; ``#`` starts a comment line."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc

    values: dict[str, object] = {}
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, _, raw = text.partition("=")
        key = key.strip()
        if key == "preset":
            raise ConfigError(f"{path}:{lineno}: a preset can only be chosen on the command line")
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def _flag(key: str) -> str:
    return f"--{key.replace('_', '-')}"


def _is_number_list(text: str) -> bool:
    try:
        for part in text.split(","):
            float(part)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list[str]) -> list[str]:
    """``argv`` with each numeric flag and a negative value after it joined by ``=``.

    argparse reads a token that starts with ``-`` as a flag unless it looks
    like ``-1`` or ``-.5``, so ``--delta -5e-1`` or ``--delta-values -1.5,-2``
    would lack a value.  Joined, they parse exactly as their ``=`` spelling;
    a flag may be abbreviated, as argparse allows.  A value that is not a
    number is left alone, and still exits 2.
    """
    numeric = [_flag(key) for key, (kind, _) in _KEYS.items() if kind is not str]
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if (token.startswith("-") and _is_number_list(token) and len(prev) > 2
                and "=" not in prev and any(flag.startswith(prev) for flag in numeric)):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaincp",
        description="Casimir-Polder energies and forces for two impurities on a tight-binding chain.",
    )
    parser.add_argument("--mode", choices=MODES, help="what to compute")
    parser.add_argument("--preset", choices=sorted(PRESETS), help="named parameter set")
    parser.add_argument("--config", metavar="PATH", help="file of 'key = value' lines")
    parser.add_argument("--format", dest="format", choices=FORMATS, help="output format (default csv)")
    parser.add_argument("-o", "--output", metavar="PATH",
                        help="output file, '-' for stdout (default <mode>.<format> "
                             f"in the current dir or ${OUTDIR_ENV})")
    for key, (kind, _) in _KEYS.items():
        flag = _flag(key)
        if isinstance(kind, tuple):
            parser.add_argument(flag, dest=key, metavar="A,B,...", help=f"{key} (comma separated)")
        elif kind is not str:
            parser.add_argument(flag, dest=key, metavar="X" if kind is float else "K",
                                help=f"{key} ({kind.__name__})")
    return parser


def load_config(argv: list[str] | None = None) -> MappingProxyType:
    """Resolve defaults, preset, config file, and flags into one read-only mapping.

    The mapping holds every ``_KEYS`` key under its own name (``"lambda"``,
    ``"format"``), with ``"omega"`` recomputed as ``eps0 - delta``; plus
    ``"preset"`` (the preset's name or ``None``) and ``"sources"``, the
    sorted ``(key, "preset" | "file" | "flag")`` pairs of every key a
    preset, the file or a flag set, except ``output``: where a table goes
    does not change its bytes.

    Raises
    ------
    ConfigError
        For unknown keys, malformed values, inconsistent or out-of-range
        parameters.
    """
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_join_negative_values(argv))

    merged = {key: default for key, (_, default) in _KEYS.items()}
    sources: dict[str, str] = {}

    if args.preset is not None:
        for key, value in PRESETS[args.preset].items():
            merged[key] = value
            sources[key] = "preset"

    if args.config is not None:
        for key, value in _parse_config_file(args.config).items():
            merged[key] = value
            sources[key] = "file"

    flag_keys = set()
    for key in _KEYS:
        raw = getattr(args, key, None)
        if raw is not None:
            merged[key] = _coerce(key, raw)
            sources[key] = "flag"
            flag_keys.add(key)

    # A scalar given on the command line supersedes a series the preset or
    # file would have swept over (--J against fig2's j_values, say).
    for scalar, series in (("J", "j_values"), ("delta", "delta_values"), ("N", "n_values")):
        if scalar in flag_keys and series not in flag_keys:
            merged[series] = None

    # omega is an alternative way to state the detuning; eps0 - omega is
    # exact only to a few ulp of the largest magnitude involved.
    if merged["omega"] is not None:
        implied = merged["eps0"] - merged["omega"]
        scale = max(abs(merged["eps0"]), abs(merged["omega"]), abs(merged["delta"]))
        if "delta" in sources and abs(implied - merged["delta"]) > CANCEL_EPS * scale:
            raise ConfigError(
                f"omega={merged['omega']} implies delta={implied}, "
                f"which contradicts delta={merged['delta']}"
            )
        merged["delta"] = implied
        sources["delta"] = sources.get("omega", "flag")
    merged["omega"] = merged["eps0"] - merged["delta"]

    if merged["mode"] is None:
        raise ConfigError("no mode: pass --mode or a --preset that sets one")
    if merged["mode"] not in MODES:
        raise ConfigError(f"unknown mode {merged['mode']!r}; choose from {', '.join(MODES)}")
    if merged["format"] not in FORMATS:
        raise ConfigError(f"unknown format {merged['format']!r}; choose {' or '.join(FORMATS)}")

    for key, low in (("N", 1), ("R", 1), ("rmin", 1),
                     ("asteps", 2), ("jsteps", 2), ("dsteps", 2)):
        if merged[key] < low:
            raise ConfigError(f"{key} must be >= {low}, got {merged[key]}")
    if merged["rmax"] < merged["rmin"]:
        raise ConfigError(f"rmax={merged['rmax']} is below rmin={merged['rmin']}")
    temps = merged["temperatures"]
    if any(t < 0 for t in temps):
        raise ConfigError("temperatures must be non-negative")
    if list(temps) != sorted(temps):
        raise ConfigError("temperatures must be sorted ascending")

    sources.pop("output", None)
    return MappingProxyType({**merged, "preset": args.preset,
                             "sources": tuple(sorted(sources.items()))})


def _system(cfg: MappingProxyType, **overrides) -> SymmetricSystem:
    """The configured system, with ``delta``, ``J`` or ``N`` overridden."""
    params = {"delta": cfg["delta"], "J": cfg["J"], "lam": cfg["lambda"], "N": cfg["N"],
              "eps0": cfg["eps0"]}
    return SymmetricSystem(**{**params, **overrides})


def _gated_system(cfg: MappingProxyType, **overrides) -> SymmetricSystem:
    """:func:`_system` passed through the regime gate, its warnings printed."""
    sys_ = _system(cfg, **overrides)
    for note in require_valid_regime(sys_).warnings:
        _warn(note)
    return sys_


def _warn(note: str) -> None:
    print(f"chaincp: warning: {note}", file=sys.stderr)


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


#: Header keys in their order; the series are skipped when unset.
_META_KEYS = ("eps0", "delta", "omega", "J", "lambda", "N", "R", "rmin", "rmax",
              "temperatures", "n_values", "j_values", "delta_values")

#: Header keys only one mode reads, after the common ones.
_MODE_META_KEYS = {
    "decay-profile": ("amin", "amax", "asteps"),
    "hopping-sweep": ("jmin", "jmax", "jsteps"),
    "detuning-sweep": ("dmin", "dmax", "dsteps"),
    "oracle-check": ("quad_tol", "ed_tol", "max_points"),
}


def _meta(cfg: MappingProxyType) -> list[tuple[str, str]]:
    values = {**cfg, "quad_tol": QUAD_TOL, "ed_tol": ED_TOL, "max_points": MAX_POINTS}
    pairs = [("generator", f"chaincp {__version__}"), ("mode", cfg["mode"]),
             ("preset", cfg["preset"] or "none")]
    pairs += [(key, _fmt(values[key]))
              for key in _META_KEYS + _MODE_META_KEYS.get(cfg["mode"], ())
              if values[key] is not None]
    overrides = " ".join(f"{k}<-{v}" for k, v in cfg["sources"])
    pairs.append(("overrides", overrides or "none"))
    return pairs


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """``n >= 2`` evenly spaced points from ``lo`` to ``hi``, bit for bit as ``numpy.linspace``.

    Point ``i`` is ``i * step + lo``, or ``i / (n - 1) * (hi - lo) + lo`` when
    the step underflows to zero, and the last point is ``hi`` itself.
    """
    lo, hi = float(lo), float(hi)
    div = n - 1
    delta = hi - lo
    step = delta / div
    if step == 0:
        return [i / div * delta + lo for i in range(div)] + [hi]
    return [i * step + lo for i in range(div)] + [hi]


def _grid(cfg: MappingProxyType, prefix: str) -> list[float]:
    """The ``<prefix>min .. <prefix>max`` grid of ``<prefix>steps`` points, each finite."""
    keys = (f"{prefix}min", f"{prefix}max", f"{prefix}steps")
    grid = _linspace(*(cfg[key] for key in keys))
    if not all(math.isfinite(x) for x in grid):
        raise ConfigError(f"{', '.join(keys)} give a grid point that is not finite")
    return grid


def _sweep_grid(cfg: MappingProxyType):
    """Leading columns, ``(J, delta)`` series and separations of a force sweep."""
    if cfg["mode"] == "hopping-sweep":
        series = [(j, cfg["delta"]) for j in _grid(cfg, "j")]
        return ("J",), series, range(cfg["R"], cfg["R"] + 1)
    if cfg["mode"] == "detuning-sweep":
        series = [(cfg["J"], d) for d in _grid(cfg, "d")]
        return ("delta",), series, range(cfg["R"], cfg["R"] + 1)
    if cfg["delta_values"] is not None:
        series = [(cfg["J"], d) for d in cfg["delta_values"]]
    else:
        series = [(j, cfg["delta"]) for j in (cfg["j_values"] or (cfg["J"],))]
    return ("J", "delta"), series, range(cfg["rmin"], cfg["rmax"] + 1)


def _run_sweep(cfg: MappingProxyType):
    lead, series, separations = _sweep_grid(cfg)
    rows = []
    for j, d in series:
        sys_ = _gated_system(cfg, J=j, delta=d)
        point = {"J": float(j), "delta": float(d)}
        for rec in force_curve(sys_, separations):
            rows.append((*(point[c] for c in lead), rec.R, rec.energy, rec.force, abs(rec.force)))
    return lead + ("R", "energy", "force", "abs_force"), rows, 0


def _run_decay_profile(cfg: MappingProxyType):
    # Decay rate and range depend only on the band parameter, not on the
    # coupling, so this mode skips the weak-coupling gate; near the band
    # edge the amplitude column is the only thing to take with salt.
    columns = ("a", "J", "gamma", "rc", "amplitude")
    if not -1.0 < cfg["amin"] <= cfg["amax"] <= 0.0:
        raise ConfigError(f"need -1 < amin <= amax <= 0, got [{cfg['amin']}, {cfg['amax']}]")
    rows = []
    for a in _grid(cfg, "a"):
        j_a = a * cfg["delta"] / 2.0
        sys_ = _system(cfg, J=j_a)
        prof = decay_profile(sys_)
        rows.append((a, j_a, prof.gamma, prof.rc, prof.amplitude))
    return columns, rows, 0


def _run_thermal_sweep(cfg: MappingProxyType):
    columns = ("T", "N", "R", "energy", "force")
    rows = []
    by_nr: dict[tuple[int, int], list[ThermalRow]] = {}
    separations = range(cfg["rmin"], cfg["rmax"] + 1)
    for n in cfg["n_values"] or (cfg["N"],):
        sys_ = _gated_system(cfg, N=int(n))
        for row in thermal_table(sys_, cfg["temperatures"], separations):
            # the one place a level measured from eps0 is printed as an absolute energy
            rows.append((row.T, int(n), row.R, sys_.eps0 + row.energy, row.force))
            by_nr.setdefault((int(n), row.R), []).append(row)
    # |f_T| falls with temperature once T exceeds the doublet splitting at R;
    # below that it can grow, so any growth is reported, not refused.
    for (n, r), seq in sorted(by_nr.items()):
        for note in _growth_violations(seq):
            _warn(f"at N={n}, R={r}: {note}")
    return columns, rows, 0


def _relative_error(value: float, closed: float) -> float:
    # a closed form that underflowed to 0.0 is matched only by an exact 0.0
    if closed == 0.0:
        return 0.0 if value == 0.0 else math.inf
    return abs(value - closed) / abs(closed)


def _run_oracle_check(cfg: MappingProxyType):
    columns = ("R", "closed", "quadrature", "quad_rel_err", "quad_ok",
               "ed", "ed_rel_err", "ed_ok")
    if cfg["rmax"] > cfg["N"] // 4:
        raise ConfigError(
            f"oracle-check needs rmax <= N//4 to keep ring images out of the "
            f"diagonalisation estimate; got rmax={cfg['rmax']}, N={cfg['N']}"
        )
    sys_ = _gated_system(cfg)
    if sys_.lam == 0.0:
        raise InvalidRegime("oracle-check needs lambda != 0; for lambda = 0 the "
                            "interaction is identically zero")
    separations = range(cfg["rmin"], cfg["rmax"] + 1)
    quads = cp_energy_quadrature(sys_, separations)
    eds = cp_energy_ed(sys_, separations)
    rows = []
    all_ok = True
    for r, quad, ed in zip(separations, quads, eds):
        closed = cp_energy(sys_, r)
        quad_rel = _relative_error(quad, closed)
        ed_rel = _relative_error(ed, closed)
        quad_ok = quad_rel < QUAD_TOL
        ed_ok = ed_rel < ED_TOL
        all_ok = all_ok and quad_ok and ed_ok
        rows.append((r, closed, quad, quad_rel, quad_ok, ed, ed_rel, ed_ok))
    return columns, rows, 0 if all_ok else 4


def _run_dispersion_dump(cfg: MappingProxyType):
    columns = ("k", "energy")
    sys_ = _system(cfg)
    modes = brillouin_modes(sys_)
    energies = dispersion(sys_, modes)
    rows = [(float(k), float(e)) for k, e in zip(modes, energies)]
    return columns, rows, 0


#: Every mode and its runner; ``--mode`` offers them in this order.
_RUNNERS = {
    "force-sweep": _run_sweep,
    "hopping-sweep": _run_sweep,
    "detuning-sweep": _run_sweep,
    "decay-profile": _run_decay_profile,
    "thermal-sweep": _run_thermal_sweep,
    "oracle-check": _run_oracle_check,
    "dispersion-dump": _run_dispersion_dump,
}


def _render_csv(meta, columns, rows) -> str:
    lines = [f"# {key} = {value}" for key, value in meta]
    lines.append(",".join(columns))
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _render_json(meta, columns, rows) -> str:
    # JSON has no inf or nan, so those cells are strings, spelled as in the CSV
    doc = {
        "meta": dict(meta),
        "columns": list(columns),
        "rows": [[_fmt(c) if isinstance(c, float) and not math.isfinite(c) else c
                  for c in row] for row in rows],
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


#: Every output format and its renderer.
_RENDERERS = {"csv": _render_csv, "json": _render_json}

MODES = tuple(_RUNNERS)
FORMATS = tuple(_RENDERERS)


def _output_path(cfg: MappingProxyType) -> str:
    if cfg["output"] is not None:
        return cfg["output"]
    outdir = os.environ.get(OUTDIR_ENV, ".")
    return os.path.join(outdir, f"{cfg['preset'] or cfg['mode']}.{cfg['format']}")


def run(cfg: MappingProxyType) -> int:
    """Execute one resolved configuration; returns the exit code."""
    columns, rows, code = _RUNNERS[cfg["mode"]](cfg)
    text = _RENDERERS[cfg["format"]](_meta(cfg), columns, rows)
    path = _output_path(cfg)
    if path == "-":
        sys.stdout.write(text)
    else:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        print(f"chaincp: wrote {path} ({len(rows)} rows)", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        return run(load_config(argv))
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)
    except RegimeViolation as exc:
        print(f"chaincp: regime violation: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"chaincp: convergence failure: {exc}", file=sys.stderr)
        return 4
    # an N too large to allocate is a configuration error; numpy's message names the array
    except (ConfigError, ValueError, MemoryError) as exc:
        print(f"chaincp: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"chaincp: i/o error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
