"""Independent accuracy check of the tables the chaincp CLI writes.

Every closed-form column is recomputed here in 40-digit mpmath from the
benchmark's own statement of the parameters.  The decay ratio comes from
``gamma = arccosh(1 / |a|)`` and ``q = exp(-gamma)``, which shares no algebra
with the package's ``geometric_ratio`` (``-a / (sqrt(1 - a^2) + 1)``).  The
oracle columns are judged by recomputing the CLI's relative errors from the
value columns, not by trusting its ``*_ok`` flags.

A row is *bad* when any of its checks fails.  On tables whose ``expect`` sets
``t0_force_cancellation`` (the large-N ``thermal`` workload), a bad row is
*tolerated* when its only failure is a zero-temperature thermal force that is
off by no more than the cancellation can explain: that column is a difference
of two O(1) ensemble energies, so it may be wrong by a few units in the last
place of ``E_T(R)``, ``CANCEL_EPS * |E_T(R)|``, however small the force is.
Such rows are counted, not hidden.  Any larger error, and any T=0 force error
on other tables, is a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from mpmath import mp, mpf

#: Relative tolerance for every closed-form column.
RTOL = 1e-9
#: The CLI's own oracle-check tolerances, restated.
QUAD_TOL = 1e-9
ED_TOL = 1e-2
DPS = 40
#: Absolute error allowed in a T=0 thermal force, in units of ``|E_T(R)|``:
#: four machine epsilons, i.e. a few ulp in each of the two energies differenced.
#: Measured errors at seeds 0-12 stay below 0.5 epsilon.
CANCEL_EPS = 4 * 2.0**-52
#: The reason a tolerated row carries, and nothing else.
CANCELLATION = "thermal force at T=0 within cancellation error"

COLUMNS = {
    "force-sweep": ("J", "delta", "R", "energy", "force", "abs_force"),
    "decay-profile": ("a", "J", "gamma", "rc", "amplitude"),
    "thermal-sweep": ("T", "N", "R", "energy", "force"),
    "oracle-check": ("R", "closed", "quadrature", "quad_rel_err", "quad_ok",
                     "ed", "ed_rel_err", "ed_ok"),
}


@dataclass
class TableCheck:
    """Outcome of checking one table: row count and the bad rows' reasons."""

    rows: int = 0
    bad: dict[int, list[str]] = field(default_factory=dict)
    tolerated: int = 0

    def fail(self, row: int, reason: str) -> None:
        self.bad.setdefault(row, []).append(reason)


def parse_csv(text: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Split a CLI CSV table into its ``# key = value`` header, columns and rows."""
    meta: dict[str, str] = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition(" = ")
        meta[key] = value
        i += 1
    if i == len(lines):
        return meta, [], []
    return meta, lines[i].split(","), [line.split(",") for line in lines[i + 1:]]


def _decay(a):
    """``(q, sqrt(1 - a^2))`` for ``a`` in ``(-1, 0)``, via the hyperbolic angle."""
    gamma = mp.acosh(1 / abs(a))
    return mp.exp(-gamma), mp.sqrt(1 - a * a)


def cp_energy_ref(lam, delta, J, R):
    """``(lam^2 / delta) q^R / sqrt(1 - a^2)`` with ``a = 2 J / delta``."""
    lam, delta, J = mpf(lam), mpf(delta), mpf(J)
    q, root = _decay(2 * J / delta)
    return lam * lam / delta * q ** R / root


def _rel_ok(cell: str, ref, tol: float) -> bool:
    try:
        value = mpf(float(cell))
    except ValueError:
        return False
    if ref == 0:
        return value == 0
    return abs(value - ref) <= tol * abs(ref)


def _expected_keys(expect: dict) -> list[tuple]:
    mode = expect["mode"]
    rs = range(expect.get("rmin", 1), expect.get("rmax", 0) + 1)
    if mode == "force-sweep":
        return [(j, d, r) for j, d in expect["series"] for r in rs]
    if mode == "decay-profile":
        return [(i,) for i in range(expect["asteps"])]
    if mode == "thermal-sweep":
        return [(t, n, r) for n in expect["n_values"] for t in expect["temperatures"] for r in rs]
    if mode == "oracle-check":
        return [(r,) for r in rs]
    raise ValueError(f"no check for mode {mode!r}")


def expected_rows(expect: dict) -> int:
    """How many data rows the table described by ``expect`` must have."""
    return len(_expected_keys(expect))


def check_table(text: str, expect: dict) -> TableCheck:
    """Check a CSV table against the benchmark's own statement of its inputs.

    ``expect`` holds ``mode``, ``lambda``, ``eps0`` and the mode's grid:
    ``series`` of ``(J, delta)`` for force sweeps; ``delta``, ``amin``,
    ``amax``, ``asteps`` for decay profiles; ``delta``, ``J``, ``n_values``,
    ``temperatures`` for thermal sweeps; ``delta`` and ``J`` for oracle
    checks; ``rmin`` and ``rmax`` wherever a separation runs.
    """
    meta, columns, rows = parse_csv(text)
    keys = _expected_keys(expect)
    result = TableCheck(rows=max(len(rows), len(keys)))
    mode = expect["mode"]
    header_ok = (
        meta.get("mode") == mode
        and _float(meta.get("lambda")) == expect["lambda"]
        and _float(meta.get("eps0")) == expect["eps0"]
        and tuple(columns) == COLUMNS[mode]
    )
    for i in range(result.rows):
        if not header_ok:
            result.fail(i, "header or columns differ from the inputs")
        elif i >= len(rows) or i >= len(keys) or len(rows[i]) != len(columns):
            result.fail(i, "row missing, extra or malformed")
        else:
            with mp.workdps(DPS):
                _CHECKERS[mode](result, i, dict(zip(columns, rows[i])), keys[i], expect)
    result.tolerated = sum(1 for reasons in result.bad.values() if reasons == [CANCELLATION])
    return result


def _float(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _keys_match(result, i, row, names, values) -> bool:
    if all(_float(row[n]) == v for n, v in zip(names, values)):
        return True
    result.fail(i, f"key columns {names} differ from {values}")
    return False


def _check_force_sweep(result, i, row, key, expect):
    J, delta, R = key
    if not _keys_match(result, i, row, ("J", "delta", "R"), key):
        return
    energy = cp_energy_ref(expect["lambda"], delta, J, R)
    force = energy - cp_energy_ref(expect["lambda"], delta, J, R + 1)
    if not _rel_ok(row["energy"], energy, RTOL):
        result.fail(i, "energy")
    if not _rel_ok(row["force"], force, RTOL):
        result.fail(i, "force")
    if _float(row["abs_force"]) != abs(_float(row["force"])):
        result.fail(i, "abs_force is not |force|")


def _check_decay_profile(result, i, row, key, expect):
    (idx,) = key
    amin, amax, steps = mpf(expect["amin"]), mpf(expect["amax"]), expect["asteps"]
    a = amin + (amax - amin) * idx / (steps - 1)
    lam, delta = mpf(expect["lambda"]), mpf(expect["delta"])
    q, root = _decay(a)
    gamma = -mp.log(q)
    checks = {
        "a": a,
        "J": a * delta / 2,
        "gamma": gamma,
        "rc": 1 / gamma,
        "amplitude": -(lam * lam / delta) * (q - 1) / root,
    }
    for name, ref in checks.items():
        if not _rel_ok(row[name], ref, RTOL):
            result.fail(i, name)


def _check_thermal_sweep(result, i, row, key, expect):
    T, n, R = key
    if not _keys_match(result, i, row, ("T", "N", "R"), key):
        return
    if T != 0:
        # No closed form above zero temperature; the values must at least be numbers.
        for name in ("energy", "force"):
            value = _float(row[name])
            if value is None or not mp.isfinite(value):
                result.fail(i, f"{name} is not finite")
        return
    lam, delta, J = mpf(expect["lambda"]), mpf(expect["delta"]), mpf(expect["J"])
    q, root = _decay(2 * J / delta)
    base = lam * lam / (delta * root)
    energy = mpf(expect["eps0"]) + base * (1 + q ** R)
    force = base * q ** R * (1 - q)
    if not _rel_ok(row["energy"], energy, RTOL):
        result.fail(i, "thermal energy at T=0")
    if _rel_ok(row["force"], force, RTOL):
        return
    value = _float(row["force"])
    if (expect.get("t0_force_cancellation") and value is not None
            and abs(mpf(value) - force) <= CANCEL_EPS * abs(energy)):
        result.fail(i, CANCELLATION)
    else:
        result.fail(i, "thermal force at T=0")


def _check_oracle(result, i, row, key, expect):
    (R,) = key
    if not _keys_match(result, i, row, ("R",), key):
        return
    closed = _float(row["closed"])
    if closed is None or not _rel_ok(row["closed"],
                                     cp_energy_ref(expect["lambda"], expect["delta"],
                                                   expect["J"], R), RTOL):
        result.fail(i, "closed")
        return
    for name, tol in (("quadrature", QUAD_TOL), ("ed", ED_TOL)):
        value = _float(row[name])
        if value is None:
            result.fail(i, f"{name} is not a number")
            continue
        rel = abs(mpf(value) - closed) / abs(mpf(closed))
        prefix = "quad" if name == "quadrature" else "ed"
        if not rel < tol:
            result.fail(i, f"{name} off the closed form by {mp.nstr(rel, 3)}")
        if row[f"{prefix}_ok"] != ("1" if rel < tol else "0"):
            result.fail(i, f"{prefix}_ok flag disagrees with the values")
        if not _rel_ok(row[f"{prefix}_rel_err"], rel, 1e-9):
            result.fail(i, f"{prefix}_rel_err disagrees with the values")


_CHECKERS = {
    "force-sweep": _check_force_sweep,
    "decay-profile": _check_decay_profile,
    "thermal-sweep": _check_thermal_sweep,
    "oracle-check": _check_oracle,
}
