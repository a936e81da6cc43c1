"""Command-line front end.

One executable, ``chaincp``, with a ``--mode`` switch; ``_MODES`` gives each
mode its runner and the keys it reads.  Parameters resolve as built-in
defaults, then a ``--preset``, then a ``--config`` file of ``key = value``
lines, then flags; of two keys that state one quantity (``_RIVALS``), the later
layer's wins.  Every run writes one deterministic table, CSV with ``# key =
value`` header lines of the keys the mode read or the same content as JSON,
byte-identical for the same inputs.  Each value is checked by the code that
reads it; a key given but not read by the mode is noted, never checked.

Exit codes: 0 success; 2 configuration or usage problems; 3 parameters
outside the validity regime; 4 convergence or cross-check failures.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from types import MappingProxyType

from ._version import __version__
from .casimir import cp_energy, decay_profile, force_curve
from .errors import ConvergenceError, InvalidRegime, RegimeViolation
from .lattice import SymmetricSystem, brillouin_modes, dispersion, require_valid_regime
from .oracle import ED_TOL, MAX_POINTS, QUAD_TOL, cp_energy_ed, cp_energy_quadrature
from .thermal import _growth_violations, thermal_table

#: How far rounding can move a difference of two floats, in units of the
#: larger: a few ulp in each of the two terms.  It bounds the omega/delta
#: agreement.
CANCEL_EPS = 4 * math.ulp(1.0)

#: The most ring modes, ``2N + 1``, that ``thermal-sweep`` streams per
#: temperature and ``dispersion-dump`` writes: ten million, a few seconds a
#: temperature.  Modes are built one float at a time, so a longer ring would
#: run for hours or fill memory; both modes refuse it up front.  The library
#: takes any ring.
MAX_MODES = 10 ** 7

#: Environment variable consulted for the default output directory; it has
#: no other effect, and an explicit --output always wins.
OUTDIR_ENV = "CHAINCP_OUTDIR"

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
#: or ``(int,)`` type is a comma-separated list.  Each key gets a ``--key``
#: flag (``_`` spelled ``-``), listed by ``--help`` in this order.
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

#: Pairs of keys that state one quantity or one sweep's axis: a layer's key
#: drops its rival from earlier layers (``load_config``).
_RIVALS = (("omega", "delta"), ("omega", "delta_values"), ("delta", "delta_values"),
           ("J", "j_values"), ("N", "n_values"), ("j_values", "delta_values"))


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


def _parse_config_file(path: str) -> dict[str, str]:
    """Read ``key = value`` lines, values raw; ``#`` starts a comment line."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc

    values: dict[str, str] = {}
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
        values[key] = raw
    return values


def _flag(key: str) -> str:
    return f"--{key.replace('_', '-')}"


def _read_flags(argv: list[str]) -> dict[str, str]:
    """``argv`` as ``key -> raw value``; of a repeated flag, the last one wins.

    The flags are ``--preset``, ``--config``, ``--help`` and one ``--key``
    per ``_KEYS`` key; any prefix that names one flag alone stands for it,
    ``-o`` for ``--output`` and ``-h`` for ``--help``.  A value follows its
    flag after ``=`` (or straight after ``-o``) or is the next token, whatever
    it looks like, so ``--delta -5e-1`` reads as ``--delta=-5e-1``.
    ``--help`` prints every flag and raises ``SystemExit(0)``.
    """
    flags = {_flag(key): key for key in (*_KEYS, "preset", "config", "help")}
    values = {}
    tokens = iter(argv)
    for token in tokens:
        token = {"-h": "--help", "-o": "--output"}.get(token, token)
        if token.startswith("-o"):  # -oPATH or -o=PATH
            token = "--output=" + token[2:].removeprefix("=")
        name, eq, raw = token.partition("=")
        if name[:2] != "--" or name == "--":
            raise ConfigError(f"unexpected argument {token!r}: every value follows its flag")
        matches = [name] if name in flags else [flag for flag in flags if flag.startswith(name)]
        if len(matches) != 1:
            raise ConfigError(f"ambiguous flag {name}: {', '.join(matches)}" if matches
                              else f"unknown flag {name}")
        key = flags[matches[0]]
        if key == "help":
            sys.stdout.write(_help())
            raise SystemExit(0)
        if not eq:
            raw = next(tokens, None)
            if raw is None:
                raise ConfigError(f"{matches[0]} needs a value")
        values[key] = raw
    return values


def _help() -> str:
    """The ``--help`` text: every flag and what it takes."""
    takes = {"help": "print this list and exit; also -h", "preset": "|".join(PRESETS),
             "config": "PATH of 'key = value' lines",
             "mode": "MODE, which reads the keys after it:" + "".join(
                 f"\n{'':20}{mode:<16}{' '.join(key for key in reads if key in _KEYS)}"
                 for mode, (_, reads) in _MODES.items()),
             "format": "|".join(FORMATS) + " (default csv)",
             "output": f"PATH, - for stdout (default <preset or mode>.<format> in ${OUTDIR_ENV} "
                       "or .); also -o"}
    lines = ["usage: chaincp [--flag VALUE | --flag=VALUE]...  (a prefix naming one flag will do)",
             "  defaults < preset < config file < flags; a key drops its rival of earlier layers "
             f"({', '.join(map('/'.join, _RIVALS))}); one layer gives both only of omega/delta"]
    for key in ("help", "preset", "config", *_KEYS):
        kind = _KEYS.get(key, (str,))[0]
        plain = f"{kind[0].__name__}s A,B,..." if isinstance(kind, tuple) else kind.__name__
        lines.append(f"  {_flag(key):<16}{takes.get(key, plain)}")
    return "\n".join(lines) + "\n"


def load_config(argv: list[str] | None = None) -> MappingProxyType:
    """Resolve defaults, preset, config file, and flags into one read-only mapping.

    Each layer's keys override earlier layers' and drop their ``_RIVALS`` there
    (a dropped series or ``omega`` is unset, a dropped scalar unread); one layer
    gives one key of a pair, or ``omega`` with a ``delta`` that agrees.

    The mapping holds every ``_KEYS`` key under its own name (``"lambda"``,
    ``"format"``), with ``"omega"`` recomputed as ``eps0 - delta``; plus
    ``"preset"`` (the preset's name or ``None``) and ``"sources"``, the
    sorted ``(key, "preset" | "file" | "flag")`` pairs of every key a
    preset, the file or a flag set, except ``output``: where a table goes
    does not change its bytes.

    Raises
    ------
    ConfigError
        For unknown or ambiguous flags, unknown keys, malformed or NaN values,
        rival keys from one layer, an ``omega`` that contradicts ``delta``, an
        unknown mode or format; never for a range, which the value's reader checks.
    SystemExit
        With code 0, once ``--help`` has printed every flag.
    """
    argv = sys.argv[1:] if argv is None else argv
    flags = _read_flags(argv)
    preset, path = flags.pop("preset", None), flags.pop("config", None)
    if preset not in (None, *PRESETS):
        raise ConfigError(f"unknown preset {preset!r}; choose from {', '.join(PRESETS)}")

    merged = {key: default for key, (_, default) in _KEYS.items()}
    sources: dict[str, str] = {}
    layers = (("preset", PRESETS.get(preset, {})),
              ("file", _parse_config_file(path) if path is not None else {}),
              ("flag", flags))
    for source, values in layers:
        for pair in _RIVALS:
            given = [key for key in pair if key in values]
            if len(given) == 2 and pair != ("omega", "delta"):
                raise ConfigError(f"{pair[0]} and {pair[1]} both come from the {source} layer")
            rival = pair[pair[0] in values]  # the other key, if this layer gives one
            if len(given) == 1 and _KEYS[rival][1] is None:  # a series or omega
                merged[rival] = None
        for key, raw in values.items():
            merged[key] = _coerce(key, raw)
            sources[key] = source

    # omega, if still set, is from delta's layer or a later one; from one layer the two
    # must agree, to a few ulp of the largest magnitude, as eps0 - omega is exact to no more
    if merged["omega"] is not None:
        implied = merged["eps0"] - merged["omega"]
        tol = CANCEL_EPS * max(abs(merged["eps0"]), abs(merged["omega"]), abs(merged["delta"]))
        if sources.get("delta") == sources["omega"] and abs(implied - merged["delta"]) > tol:
            raise ConfigError(f"omega={merged['omega']} implies delta={implied}, "
                              f"which contradicts delta={merged['delta']}")
        merged["delta"], sources["delta"] = implied, sources["omega"]
    merged["omega"] = merged["eps0"] - merged["delta"]

    if merged["mode"] is None:
        raise ConfigError("no mode: pass --mode or a --preset that sets one")
    if merged["mode"] not in MODES:
        raise ConfigError(f"unknown mode {merged['mode']!r}; choose from {', '.join(MODES)}")
    if merged["format"] not in FORMATS:
        raise ConfigError(f"unknown format {merged['format']!r}; choose {' or '.join(FORMATS)}")

    sources.pop("output", None)
    return MappingProxyType({**merged, "preset": preset,
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


def _meta(cfg: MappingProxyType, reads: tuple[str, ...]) -> list[tuple[str, str]]:
    """The header: the keys the mode reads, less unset series and the scalars they outrank."""
    values = {**cfg, "quad_tol": QUAD_TOL, "ed_tol": ED_TOL, "max_points": MAX_POINTS}
    outranked = {a for a, b in _RIVALS if b in reads and isinstance(cfg[b], tuple)}
    pairs = [("generator", f"chaincp {__version__}"), ("mode", cfg["mode"]),
             ("preset", cfg["preset"] or "none")]
    pairs += [(key, _fmt(values[key])) for key in reads
              if values[key] is not None and key not in outranked]
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
    """The ``<prefix>min .. <prefix>max`` grid of ``<prefix>steps >= 2`` points, each finite."""
    keys = (f"{prefix}min", f"{prefix}max", f"{prefix}steps")
    if cfg[keys[2]] < 2:
        raise ConfigError(f"{keys[2]} must be >= 2, got {cfg[keys[2]]}")
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
    series = [(j, d) for j in cfg["j_values"] or (cfg["J"],)
              for d in cfg["delta_values"] or (cfg["delta"],)]
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
    # edge the amplitude column is the only thing to take with salt.  The
    # decay law is the infinite chain's, so no row depends on N.
    columns = ("a", "J", "gamma", "rc", "amplitude")
    if not -1.0 < cfg["amin"] <= cfg["amax"] <= 0.0:
        raise ConfigError(f"need -1 < amin <= amax <= 0, got [{cfg['amin']}, {cfg['amax']}]")
    rows = []
    for a in _grid(cfg, "a"):
        j_a = a * cfg["delta"] / 2.0
        sys_ = _system(cfg, J=j_a, N=1)
        prof = decay_profile(sys_)
        rows.append((a, j_a, prof.gamma, prof.rc, prof.amplitude))
    return columns, rows, 0


def _refuse_long_rings(chains, work: str) -> None:
    """Refuse a ring of more than :data:`MAX_MODES` modes, before any mode is built."""
    for n in chains:
        if 2 * n + 1 > MAX_MODES:
            raise ConfigError(f"{work}; N={n} has 2N + 1 = {2 * n + 1}")


def _run_thermal_sweep(cfg: MappingProxyType):
    columns = ("T", "N", "R", "energy", "force")
    # the growth check below compares neighbouring temperatures
    if list(cfg["temperatures"]) != sorted(cfg["temperatures"]):
        raise ConfigError("temperatures must be sorted ascending")
    rows = []
    separations = range(cfg["rmin"], cfg["rmax"] + 1)
    chains = cfg["n_values"] or (cfg["N"],)
    _refuse_long_rings(chains, f"thermal-sweep streams at most {MAX_MODES} band modes per "
                               "temperature")
    for n in chains:
        sys_ = _gated_system(cfg, N=n)
        table = thermal_table(sys_, cfg["temperatures"], separations)
        # the one place a level measured from eps0 is printed as an absolute energy
        rows += [(row.T, n, row.R, sys_.eps0 + row.energy, row.force) for row in table]
        # |f_T| falls with T once T exceeds the doublet splitting at R; below that it can
        # grow, so growth is reported, not refused.  Rows run over R within each T.
        for i, r in enumerate(separations):
            for note in _growth_violations(table[i::len(separations)]):
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
    sys_ = _gated_system(cfg)
    if sys_.lam == 0.0:
        raise InvalidRegime("oracle-check needs lambda != 0; for lambda = 0 the "
                            "interaction is identically zero")
    separations = range(cfg["rmin"], cfg["rmax"] + 1)
    # the oracles warn of their own systematic error; each warning prints as a note.
    # The ED goes first: it refuses a window past N // 4 before any quadrature runs
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eds = cp_energy_ed(sys_, separations)
        quads = cp_energy_quadrature(sys_, separations)
    for note in caught:
        _warn(str(note.message))
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
    _refuse_long_rings((cfg["N"],), f"dispersion-dump writes at most {MAX_MODES} modes")
    sys_ = _system(cfg, lam=0.0)  # the bare band: no row depends on the coupling
    rows = [(k, dispersion(sys_, k)) for k in brillouin_modes(sys_)]
    return columns, rows, 0


#: Every mode in ``--mode``'s order: its runner and the keys it reads, in header
#: order.  A key is read when its value reaches the computation, from the
#: configuration or as a :func:`_system` field that the runner does not override.
_MODES = {mode: (runner, tuple(reads.split())) for mode, runner, reads in (
    ("force-sweep", _run_sweep, "eps0 delta omega J lambda N rmin rmax j_values delta_values"),
    ("hopping-sweep", _run_sweep, "eps0 delta omega lambda N R jmin jmax jsteps"),
    ("detuning-sweep", _run_sweep, "eps0 J lambda N R dmin dmax dsteps"),
    ("decay-profile", _run_decay_profile, "eps0 delta omega lambda amin amax asteps"),
    ("thermal-sweep", _run_thermal_sweep,
     "eps0 delta omega J lambda N rmin rmax temperatures n_values"),
    ("oracle-check", _run_oracle_check,
     "eps0 delta omega J lambda N rmin rmax quad_tol ed_tol max_points"),
    ("dispersion-dump", _run_dispersion_dump, "eps0 delta omega J N"),
)}


def _render_csv(meta, columns, rows) -> str:
    lines = [f"# {key} = {value}" for key, value in meta]
    lines.append(",".join(columns))
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _render_json(meta, columns, rows) -> str:
    # imported here so that CSV runs never pay for it
    import json

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

MODES = tuple(_MODES)
FORMATS = tuple(_RENDERERS)


def _output_path(cfg: MappingProxyType) -> str:
    if cfg["output"] is not None:
        return cfg["output"]
    outdir = os.environ.get(OUTDIR_ENV, ".")
    return os.path.join(outdir, f"{cfg['preset'] or cfg['mode']}.{cfg['format']}")


def run(cfg: MappingProxyType) -> int:
    """Execute one resolved configuration; returns the exit code."""
    runner, reads = _MODES[cfg["mode"]]
    columns, rows, code = runner(cfg)
    # noted only once the table is built, so that a refused run prints its error alone
    if unread := [key for key, _ in cfg["sources"] if key not in (*reads, "mode", "format")]:
        _warn(f"{cfg['mode']} does not read {', '.join(unread)}")
    text = _RENDERERS[cfg["format"]](_meta(cfg, reads), columns, rows)
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
    except SystemExit:  # --help printed the flags
        return 0
    except RegimeViolation as exc:
        print(f"chaincp: regime violation: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"chaincp: convergence failure: {exc}", file=sys.stderr)
        return 4
    # a table too large for memory, even below the mode ceiling, is a configuration error
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
