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
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .casimir import cp_energy, decay_profile, force_curve
from .errors import ConvergenceError, InvalidRegime, RegimeViolation
from .lattice import SymmetricSystem, brillouin_modes, dispersion, require_valid_regime
from .oracle import cp_energy_ed, cp_energy_quadrature
from .thermal import CANCEL_EPS, ThermalRow, _growth_violations, thermal_table

MODES = (
    "force-sweep",
    "hopping-sweep",
    "detuning-sweep",
    "decay-profile",
    "thermal-sweep",
    "oracle-check",
    "dispersion-dump",
)

FORMATS = ("csv", "json")

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
    "max_points": (int, 2 ** 22),
    "temperatures": ((float,), (0.0, 0.1, 1.0)),
    "j_values": ((float,), None), "delta_values": ((float,), None),
    "n_values": ((int,), None),
}

#: RunConfig fields spelled differently from their key.
_FIELDS = {"format": "fmt", "lambda": "lam"}


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


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters for one CLI run."""

    mode: str
    fmt: str
    output: str | None
    preset: str | None
    eps0: float
    delta: float
    J: float
    lam: float
    N: int
    R: int
    rmin: int
    rmax: int
    temperatures: tuple[float, ...]
    n_values: tuple[int, ...] | None
    j_values: tuple[float, ...] | None
    delta_values: tuple[float, ...] | None
    amin: float
    amax: float
    asteps: int
    jmin: float
    jmax: float
    jsteps: int
    dmin: float
    dmax: float
    dsteps: int
    max_points: int
    sources: tuple[tuple[str, str], ...]

    @property
    def omega(self) -> float:
        return self.eps0 - self.delta


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
        flag = f"--{key.replace('_', '-')}"
        if isinstance(kind, tuple):
            parser.add_argument(flag, dest=key, metavar="A,B,...", help=f"{key} (comma separated)")
        elif kind is not str:
            parser.add_argument(flag, dest=key, metavar="X" if kind is float else "K",
                                help=f"{key} ({kind.__name__})")
    return parser


def load_config(argv: list[str] | None = None) -> RunConfig:
    """Resolve defaults, preset, config file, and flags into a RunConfig.

    Raises
    ------
    ConfigError
        For unknown keys, malformed values, inconsistent or out-of-range
        parameters.
    """
    args = _build_parser().parse_args(argv)

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

    if merged["mode"] is None:
        raise ConfigError("no mode: pass --mode or a --preset that sets one")
    if merged["mode"] not in MODES:
        raise ConfigError(f"unknown mode {merged['mode']!r}; choose from {', '.join(MODES)}")
    if merged["format"] not in FORMATS:
        raise ConfigError(f"unknown format {merged['format']!r}; choose csv or json")

    for key, low in (("N", 1), ("R", 1), ("rmin", 1), ("max_points", 64),
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

    return RunConfig(
        preset=args.preset,
        sources=tuple(sorted(sources.items())),
        **{_FIELDS.get(key, key): merged[key] for key in _KEYS if key != "omega"},
    )


def _system(cfg: RunConfig, **overrides) -> SymmetricSystem:
    """The configured system, with ``delta``, ``J`` or ``N`` overridden."""
    params = {"delta": cfg.delta, "J": cfg.J, "lam": cfg.lam, "N": cfg.N, "eps0": cfg.eps0}
    return SymmetricSystem.from_detuning(**{**params, **overrides})


def _gated_system(cfg: RunConfig, **overrides) -> SymmetricSystem:
    """:func:`_system` passed through the regime gate, its warnings printed."""
    sys_ = _system(cfg, **overrides)
    for note in require_valid_regime(sys_).warnings:
        _warn(note)
    return sys_


def _warn(note: str) -> None:
    print(f"chaincp: warning: {note}", file=sys.stderr)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _meta(cfg: RunConfig) -> list[tuple[str, str]]:
    pairs = [
        ("generator", f"chaincp {__version__}"),
        ("mode", cfg.mode),
        ("preset", cfg.preset or "none"),
        ("eps0", _fmt(cfg.eps0)),
        ("delta", _fmt(cfg.delta)),
        ("omega", _fmt(cfg.omega)),
        ("J", _fmt(cfg.J)),
        ("lambda", _fmt(cfg.lam)),
        ("N", _fmt(cfg.N)),
        ("R", _fmt(cfg.R)),
        ("rmin", _fmt(cfg.rmin)),
        ("rmax", _fmt(cfg.rmax)),
        ("temperatures", ",".join(_fmt(t) for t in cfg.temperatures)),
    ]
    for key in ("n_values", "j_values", "delta_values"):
        values = getattr(cfg, key)
        if values is not None:
            pairs.append((key, ",".join(_fmt(v) for v in values)))
    if cfg.mode == "decay-profile":
        pairs += [("amin", _fmt(cfg.amin)), ("amax", _fmt(cfg.amax)), ("asteps", _fmt(cfg.asteps))]
    if cfg.mode == "hopping-sweep":
        pairs += [("jmin", _fmt(cfg.jmin)), ("jmax", _fmt(cfg.jmax)), ("jsteps", _fmt(cfg.jsteps))]
    if cfg.mode == "detuning-sweep":
        pairs += [("dmin", _fmt(cfg.dmin)), ("dmax", _fmt(cfg.dmax)), ("dsteps", _fmt(cfg.dsteps))]
    if cfg.mode == "oracle-check":
        pairs += [("quad_tol", _fmt(QUAD_TOL)), ("ed_tol", _fmt(ED_TOL)),
                  ("max_points", _fmt(cfg.max_points))]
    overrides = " ".join(f"{k}<-{v}" for k, v in cfg.sources)
    pairs.append(("overrides", overrides or "none"))
    return pairs


def _sweep_grid(cfg: RunConfig):
    """Leading columns, ``(J, delta)`` series and ``R`` range of a force sweep."""
    if cfg.mode == "hopping-sweep":
        series = [(float(j), cfg.delta) for j in np.linspace(cfg.jmin, cfg.jmax, cfg.jsteps)]
        return ("J",), series, cfg.R, cfg.R
    if cfg.mode == "detuning-sweep":
        series = [(cfg.J, float(d)) for d in np.linspace(cfg.dmin, cfg.dmax, cfg.dsteps)]
        return ("delta",), series, cfg.R, cfg.R
    if cfg.delta_values is not None:
        series = [(cfg.J, d) for d in cfg.delta_values]
    else:
        series = [(j, cfg.delta) for j in (cfg.j_values or (cfg.J,))]
    return ("J", "delta"), series, cfg.rmin, cfg.rmax


def _run_sweep(cfg: RunConfig):
    lead, series, rmin, rmax = _sweep_grid(cfg)
    rows = []
    for j, d in series:
        sys_ = _gated_system(cfg, J=j, delta=d)
        point = {"J": float(j), "delta": float(d)}
        for rec in force_curve(sys_, rmin, rmax):
            rows.append((*(point[c] for c in lead), rec.R, rec.energy, rec.force, abs(rec.force)))
    return lead + ("R", "energy", "force", "abs_force"), rows, 0


def _run_decay_profile(cfg: RunConfig):
    # Decay rate and range depend only on the band parameter, not on the
    # coupling, so this mode skips the weak-coupling gate; near the band
    # edge the amplitude column is the only thing to take with salt.
    columns = ("a", "J", "gamma", "rc", "amplitude")
    if not -1.0 < cfg.amin <= cfg.amax <= 0.0:
        raise ConfigError(f"need -1 < amin <= amax <= 0, got [{cfg.amin}, {cfg.amax}]")
    rows = []
    for a in np.linspace(cfg.amin, cfg.amax, cfg.asteps):
        j_a = float(a) * cfg.delta / 2.0
        sys_ = _system(cfg, J=j_a)
        prof = decay_profile(sys_)
        rows.append((float(a), j_a, prof.gamma, prof.rc, prof.amplitude))
    return columns, rows, 0


def _run_thermal_sweep(cfg: RunConfig):
    columns = ("T", "N", "R", "energy", "force")
    rows = []
    by_nr: dict[tuple[int, int], list[ThermalRow]] = {}
    for n in cfg.n_values or (cfg.N,):
        sys_ = _gated_system(cfg, N=int(n))
        for row in thermal_table(sys_, cfg.temperatures, cfg.rmin, cfg.rmax):
            rows.append((row.T, int(n), row.R, row.energy, row.force))
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


def _run_oracle_check(cfg: RunConfig):
    columns = ("R", "closed", "quadrature", "quad_rel_err", "quad_ok",
               "ed", "ed_rel_err", "ed_ok")
    if cfg.rmax > cfg.N // 4:
        raise ConfigError(
            f"oracle-check needs rmax <= N//4 to keep ring images out of the "
            f"diagonalisation estimate; got rmax={cfg.rmax}, N={cfg.N}"
        )
    sys_ = _gated_system(cfg)
    if sys_.lam == 0.0:
        raise InvalidRegime("oracle-check needs lambda != 0; for lambda = 0 the "
                            "interaction is identically zero")
    separations = range(cfg.rmin, cfg.rmax + 1)
    quads = cp_energy_quadrature(sys_, separations, max_points=cfg.max_points)
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


def _run_dispersion_dump(cfg: RunConfig):
    columns = ("k", "energy")
    chain = _system(cfg).chain
    modes = brillouin_modes(chain)
    energies = dispersion(chain, modes)
    rows = [(float(k), float(e)) for k, e in zip(modes, energies)]
    return columns, rows, 0


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
    doc = {
        "meta": dict(meta),
        "columns": list(columns),
        "rows": [[bool(c) if isinstance(c, (bool, np.bool_)) else
                  int(c) if isinstance(c, (int, np.integer)) else float(c)
                  for c in row] for row in rows],
    }
    return json.dumps(doc, indent=2) + "\n"


def _output_path(cfg: RunConfig) -> str:
    if cfg.output is not None:
        return cfg.output
    outdir = os.environ.get(OUTDIR_ENV, ".")
    return os.path.join(outdir, f"{cfg.preset or cfg.mode}.{cfg.fmt}")


def run(cfg: RunConfig) -> int:
    """Execute one resolved configuration; returns the exit code."""
    columns, rows, code = _RUNNERS[cfg.mode](cfg)
    text = (_render_csv if cfg.fmt == "csv" else _render_json)(_meta(cfg), columns, rows)
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
        cfg = load_config(argv)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"chaincp: config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except RegimeViolation as exc:
        print(f"chaincp: regime violation: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"chaincp: convergence failure: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, ValueError) as exc:
        print(f"chaincp: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"chaincp: i/o error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
