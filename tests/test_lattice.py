import ast
import copy
import importlib
import itertools
import math
import operator
import pickle
import pkgutil
import tokenize
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp
from numpy.testing import assert_allclose

import chaincp
from chaincp.casimir import cp_energy, force_curve
from chaincp._ring import _ring_column, _ring_entry
from chaincp.errors import RegimeViolation
from chaincp.lattice import (
    SymmetricSystem,
    _edge_safe_root,
    _separation,
    _separations,
    brillouin_modes,
    dispersion,
    require_valid_regime,
    validate_regime,
)
from chaincp.oracle import cp_energy_ed, cp_energy_quadrature
from chaincp.perturbation import symmetric_spectrum_closed, symmetric_spectrum_ksum
from chaincp.thermal import thermal_energy, thermal_ensemble, thermal_force, thermal_table


def ring(N, J=0.3):
    """Level 1.0 under a band centred on 2.0."""
    return SymmetricSystem(delta=-1.0, J=J, lam=0.01, N=N)


def test_chain_band_edges():
    sys_ = ring(10)
    assert sys_.num_sites == 21
    # 2.0 -+ 0.6 rounds to the floats 1.4 and 2.6
    assert sys_.band_bottom == 1.4
    assert sys_.band_top == 2.6
    # the gap is an offset from the level, read off delta and J alone
    assert sys_.gap == -(sys_.delta + 2 * sys_.J) == 0.4


@pytest.mark.parametrize("bad", [{"J": -0.1, "N": 5}, {"J": 0.3, "N": 0}])
def test_chain_rejects_bad_parameters(bad):
    with pytest.raises(ValueError):
        SymmetricSystem(delta=-1.0, lam=0.01, **bad)


def test_chain_rejects_non_integer_length():
    with pytest.raises(TypeError):
        ring(5.0)


@pytest.mark.parametrize("params", [
    {"delta": -math.inf}, {"delta": math.nan}, {"J": math.inf}, {"J": math.nan},
    {"lam": math.inf}, {"lam": math.nan}, {"eps0": math.inf}, {"eps0": -math.inf},
    {"eps0": math.nan},
    # finite inputs whose band centre or band top overflows
    {"eps0": 1e308, "delta": -1e308}, {"eps0": 1e308, "delta": -7e307, "J": 2e307},
], ids=repr)
def test_system_refuses_non_finite_parameters(params):
    with pytest.raises(ValueError, match="must be finite"):
        SymmetricSystem(**{"delta": -1.0, "J": 0.3, "lam": 0.01, "N": 5, **params})


def test_system_is_an_immutable_value():
    sys_ = SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, N=10)
    assert sys_ == SymmetricSystem(-1.0, 0.3, 0.01, 10, eps0=1.0)
    assert hash(sys_) == hash(SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, N=10))
    assert sys_ != SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, N=11)
    assert sys_ != (-1.0, 0.3, 0.01, 10, 1.0, 2.0, -0.6, sys_.q)
    for name in ("delta", "q", "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(sys_, name, 0.0)
    for name in ("delta", "q"):
        with pytest.raises(AttributeError):
            delattr(sys_, name)
    assert sys_.delta == -1.0 and sys_.q == 1 / 3
    # copies and pickles are rebuilt through the constructor's checks
    assert copy.copy(sys_) == pickle.loads(pickle.dumps(sys_)) == sys_


def test_system_repr_lists_every_field():
    assert repr(SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, N=10)) == (
        "SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, N=10, eps0=1.0,"
        " omega=2.0, a=-0.6, q=0.3333333333333333)")


def test_a_wrapped_post_init_sees_every_construction(monkeypatch):
    # a tracer counts system builds by wrapping the class's __post_init__
    builds = []
    original = SymmetricSystem.__post_init__

    def counting(self):
        builds.append(self.N)
        original(self)

    monkeypatch.setattr(SymmetricSystem, "__post_init__", counting)
    ring(10)
    SymmetricSystem(-1.0, 0.3, 0.01, 20)
    copy.copy(ring(30))
    with pytest.raises(RegimeViolation, match="is not below the band bottom"):
        SymmetricSystem(delta=-0.5, J=0.3, lam=0.01, N=40)
    assert builds == [10, 20, 30, 30, 40]


@pytest.mark.parametrize("J,N,x,dps", [(0.3, 100, 0.0, 80), (0.3, 100, -1e-4, 80),
                                        (0.495, 60, 0.0, 60), (1e-5, 40, 0.0, 240),
                                        (0.499, 100, -2e-5, 60), (0.4999, 100, -2e-6, 60)],
                         ids=["a=-0.6", "below-the-level", "a=-0.99", "J=1e-5", "a=-0.998",
                              "a=-0.9998"])
def test_ring_column_matches_high_precision_mode_sums(J, N, x, dps):
    # g_n = -(1/M) sum_k cos(kn) / (x + delta + 2J cos k), summed in momentum
    # space with enough digits for the q^n that cancel (g_40 ~ 1e-200 at J = 1e-5);
    # at the band edge, x a hundredth of the gap below the level, the ratios
    # carried as themselves were up to 4.5e-13 off
    sys_ = SymmetricSystem(delta=-1.0, J=J, lam=0.01, N=N)
    column = _ring_column(sys_, x)
    m = sys_.num_sites
    with mp.workdps(dps):
        cosines = [mp.cos(2 * mp.pi * j / m) for j in range(m)]
        inverse = [1 / (mp.mpf(x) + sys_.delta + 2 * J * c) for c in cosines]
        for n, value in enumerate(column):
            exact = -mp.fsum(cosines[j * n % m] * inverse[j] for j in range(m)) / m
            assert abs(value - exact) <= 2e-14 * abs(exact), n


def full_ratios(sys_, x):
    """``[g_0, c_1, .., c_N]``, the ring eliminated site by site with no early exit.

    As in the column, a ratio from 1/2 up is carried as ``u = 1 - c``.
    """
    J, N, d, e = sys_.J, sys_.N, -(x + sys_.delta), sys_.gap - x
    ratios = [1.0] * (N + 2)  # the mirror's c_{N+1} = 1 closes the top
    u, edge = 0.0, True
    for n in range(N, 0, -1):
        if edge and (u_n := (e + J * u) / (e + J + J * u)) <= 0.5:
            u, ratios[n] = u_n, 1.0 - u_n
        else:
            edge = False
            ratios[n] = J / (d - J * ratios[n + 1])
    ratios[0] = 1.0 / (e + 2.0 * J * u) if edge else 1.0 / (d - 2.0 * J * ratios[1])
    return ratios[:N + 1]


def full_elimination(sys_, x, stop=math.inf):
    """The ring column over all ``N + 1`` entries, or below ``stop``, with no early exit and no cut.

    This is the uncut reference that every test of the cut column compares with.
    """
    column = itertools.accumulate(full_ratios(sys_, x), operator.mul)
    return list(itertools.islice(column, min(sys_.N + 1, stop)))


@pytest.mark.parametrize("J,N", [(0.3, 400), (0.499, 400), (1e-5, 40), (0.0, 5), (0.3, 1),
                                 (0.3, 2000), (1e-5, 400)])
def test_ring_column_early_exit_gives_the_floats_of_the_full_elimination(J, N):
    # once a ratio repeats, every lower one is the same float: filling them in
    # must give what eliminating site by site gives, and every entry the cut
    # drops is one the full elimination underflows to 0.0
    sys_ = SymmetricSystem(delta=-1.0, J=J, lam=0.01, N=N)
    full = full_elimination(sys_, -1e-4)
    column = _ring_column(sys_, -1e-4)
    assert column == full[:len(column)]
    assert all(g == 0.0 for g in full[len(column):])
    # the column underflows past n ~ 680 at a = -0.6 and n ~ 65 at J = 1e-5
    assert (len(column) < N + 1) == ((J, N) in {(0.0, 5), (0.3, 2000), (1e-5, 400)})
    assert _ring_entry(column, N) == full[N]
    # a caller that reads only g_0 and g_1 builds only those
    assert _ring_column(sys_, -1e-4, stop=2) == full[:2]


def test_ring_column_cut_drops_only_rounding_debris_above_a_half():
    # above a decay ratio of 1/2 the site-by-site product never reaches 0.0,
    # as 5e-324 * c rounds back to 5e-324.  Past the cut the bound g_0 c_N^n
    # is below 5e-324, and here the true g_n is below half of it, so the cut's
    # 0.0 is the correctly rounded value and the full elimination's is not
    sys_ = SymmetricSystem(delta=-1.0, J=0.45, lam=0.01, N=5000)
    full = full_elimination(sys_, 0.0)
    column = _ring_column(sys_, 0.0)
    n = len(column)
    assert column == full[:n] and n < 4000
    assert 0.0 < min(full[n:]) and max(full[n:]) < 64 * math.ulp(0.0)
    ratios = full_ratios(sys_, 0.0)
    assert max(ratios[1:]) == ratios[-1] > 0.5
    with mp.workdps(30):
        assert mp.mpf(column[0]) * mp.mpf(ratios[-1]) ** n < math.ulp(0.0)
        # the same elimination in 30 digits, from site N down to site 1
        d, J = -mp.mpf(sys_.delta), mp.mpf(sys_.J)
        exact = [J / (d - J)]
        for _ in range(sys_.N - 1):
            exact.append(J / (d - J * exact[-1]))
        g_n = 1 / (d - 2 * J * exact[-1]) * mp.fprod(exact[::-1][:n])
        assert g_n < mp.mpf(math.ulp(0.0)) / 2


@pytest.mark.parametrize("a", [-0.6, -0.9, -0.99, -0.99999])
def test_ring_column_error_grows_with_n_as_its_docstring_states(a):
    # the running product rounds once a site: against a 60-digit elimination,
    # every normal g_n is within (n + 1 / (1 - q)) units of 2^-52; g_R is
    # 636 units off at a = -0.9, R = 1000 and 5617 at a = -0.99999, R = 20000
    sys_ = SymmetricSystem(delta=-1.0, J=-a / 2.0, lam=0.01, N=20000)
    column = _ring_column(sys_, 0.0)
    settle = 1.0 / _edge_safe_root(sys_)[1]
    with mp.workdps(60):
        d, J = -mp.mpf(sys_.delta), mp.mpf(sys_.J)
        ratios = [J / (d - J)]
        for _ in range(sys_.N - 1):
            ratios.append(J / (d - J * ratios[-1]))
        exact = 1 / (d - 2 * J * ratios[-1])
        for n, g_n in enumerate(column):
            exact *= ratios[-n] if n else 1
            if g_n < 2.0 ** -1022:  # past the normal floats
                break
            assert abs(g_n - exact) <= (n + settle) * 2.0 ** -52 * exact, n


def test_brillouin_modes_cover_the_zone():
    modes = brillouin_modes(ring(6))
    assert type(modes) is tuple and len(modes) == 13
    modes = np.asarray(modes)
    assert modes[6] == 0.0
    # modes come in exact +-k pairs and stay inside (-pi, pi)
    assert np.array_equal(modes, -modes[::-1])
    assert np.all(np.abs(modes) < np.pi)
    spacing = np.diff(modes)
    assert_allclose(spacing, 2 * np.pi / 13, rtol=1e-14)


def test_dispersion_scalar_and_array_agree():
    sys_ = ring(8)
    # one float per call, mapped over the modes, against the array expression
    modes = brillouin_modes(sys_)
    scalar = [dispersion(sys_, k) for k in modes]
    assert_allclose(scalar, sys_.omega - 2.0 * sys_.J * np.cos(modes), rtol=1e-15)
    assert dispersion(sys_, 0.0) == sys_.band_bottom
    assert dispersion(sys_, np.pi) == pytest.approx(sys_.band_top, rel=1e-15, abs=0)


def test_symmetric_system_derived_quantities():
    sys_ = SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, N=50)
    assert sys_.delta == -1.0
    assert sys_.a == pytest.approx(-0.6, rel=1e-15, abs=0)
    assert sys_.q == pytest.approx(1.0 / 3.0, rel=1e-15, abs=0)
    assert sys_.omega == 2.0
    assert sys_.eps0 == 1.0
    assert sys_.lam == 0.01


def test_symmetric_system_flat_band_is_allowed():
    sys_ = SymmetricSystem(delta=-1.0, J=0.0, lam=0.01, N=10)
    assert sys_.a == 0.0
    assert sys_.q == 0.0


@pytest.mark.parametrize("delta,J", [
    (-0.5, 0.3),   # level inside the band (|a| > 1)
    (-0.6, 0.3),   # level exactly at the band bottom
    (0.5, 0.3),    # level above the band centre
])
def test_symmetric_system_rejects_levels_not_below_band(delta, J):
    with pytest.raises(RegimeViolation, match="is not below the band bottom"):
        SymmetricSystem(delta=delta, J=J, lam=0.01, N=10)


def test_symmetric_system_rejects_a_rounded_onto_the_band_edge():
    # the band bottom (0.91 + 0.5) - 0.5 rounds to one ulp above the level,
    # yet 2 J / delta is exactly -1
    eps0, delta, J = 0.91, -0.5, 0.25
    assert eps0 < (eps0 - delta) - 2 * J and 2 * J / delta == -1.0
    with pytest.raises(RegimeViolation, match="is not below the band bottom"):
        SymmetricSystem(delta=delta, J=J, lam=0.01, N=10, eps0=eps0)


def test_band_edge_error_is_raised_only_by_the_system():
    # the band-edge refusal is a RegimeViolation told apart by its message
    raises = [
        path.name
        for path in sorted(Path(chaincp.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and "is not below the band bottom" in ast.unparse(node)
    ]
    assert raises == ["lattice.py"]


def test_only_lattice_and_cli_read_the_impurity_level():
    # every energy is an offset from eps0: lattice fixes the origin, and the
    # CLI adds eps0 back where a table prints an absolute energy
    readers = set()
    for path in sorted(Path(chaincp.__file__).parent.glob("*.py")):
        with path.open("rb") as fh:
            tokens = [tok for tok in tokenize.tokenize(fh.readline)
                      if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE)]
        if any(tok.string == "." and nxt.string == "eps0" for tok, nxt in zip(tokens, tokens[1:])):
            readers.add(path.name)
    assert readers == {"lattice.py", "cli.py"}


def test_only_the_ring_module_builds_or_reads_a_ring_column():
    # a ring column's layout (cut where it underflows, 0.0 past the cut, shortened
    # by stop) is _ring's to know: no other module defines, imports or names
    # the column, its reader or the fixed point that solves on it
    private = {"_ring_column", "_ring_entry", "_fixed_point"}
    found = set()
    for path in sorted(Path(chaincp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, "name", None), getattr(node, "id", None),
                     getattr(node, "attr", None)}
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
            found.update((path.name, name) for name in names & private)
    assert {module for module, _ in found} == {"_ring.py"}
    assert {name for _, name in found} == private


@pytest.mark.parametrize("eps0", [0.0, 1.0, 1e14, 1e16])
def test_gap_and_coupling_ratio_do_not_depend_on_where_zero_is(eps0):
    sys_ = SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, N=50, eps0=eps0)
    assert sys_.gap == 0.4
    assert validate_regime(sys_).coupling_ratio == 0.01 / 0.4


#: The package's names in ``__all__`` order: the version, then each home
#: module's names in the order that module lists them.
PUBLIC_NAMES = [
    "__version__",
    "SymmetricSystem", "RegimeReport", "dispersion", "brillouin_modes", "validate_regime",
    "band_energies", "symmetric_spectrum_ksum", "symmetric_spectrum_closed",
    "ForceRecord", "DecayProfile", "cp_energy", "ecp_force", "force_curve", "decay_profile",
    "continuum_decay_constant",
    "cp_energy_ed", "cp_energy_quadrature",
    "ThermalEnsemble", "ThermalRow", "thermal_ensemble", "thermal_table", "thermal_energy",
    "thermal_force",
    "RegimeViolation", "ConvergenceError",
]


def test_public_surface_is_the_union_of_the_submodules_all():
    # every public module lists its names once, and the package re-exports
    # exactly those; the CLI is reached through its entry point, not imported
    modules = [importlib.import_module(f"chaincp.{info.name}")
               for info in pkgutil.iter_modules(chaincp.__path__)
               if not info.name.startswith("_") and info.name != "cli"]
    expected = {"__version__"}.union(*(module.__all__ for module in modules))
    assert chaincp.__all__ == PUBLIC_NAMES
    assert len(chaincp.__all__) == len(set(chaincp.__all__))
    assert set(chaincp.__all__) == expected
    for module in modules:
        for name in module.__all__:
            assert getattr(chaincp, name) is getattr(module, name)


def test_symmetric_system_separation_bounds():
    # the system carries no separation; each function checks the one it is given
    with pytest.raises(TypeError):
        SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, R=1, N=10)
    sys_ = SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, N=10)
    for doublet in (symmetric_spectrum_closed, symmetric_spectrum_ksum):
        doublet(sys_, 10)
        with pytest.raises(ValueError):
            doublet(sys_, 11)
        with pytest.raises(ValueError):
            doublet(sys_, 0)
        with pytest.raises(TypeError):
            doublet(sys_, 1.0)


#: Each function that takes one separation, called at ``R``.
POINT_FUNCTIONS = {
    "cp_energy": cp_energy,
    "symmetric_spectrum_ksum": symmetric_spectrum_ksum,
    "symmetric_spectrum_closed": symmetric_spectrum_closed,
    "thermal_ensemble": lambda s, R: thermal_ensemble(s, 0.1, R),
    "thermal_energy": lambda s, R: thermal_energy(s, 0.1, R),
    "thermal_force": lambda s, R: thermal_force(s, 0.1, R),
}
#: Each function that takes a window of separations, called on ``R``.
WINDOW_FUNCTIONS = {
    "force_curve": force_curve,
    "cp_energy_ed": cp_energy_ed,
    "cp_energy_quadrature": cp_energy_quadrature,
    "thermal_table": lambda s, R: thermal_table(s, (0.1,), R),
}


@pytest.mark.parametrize("name", POINT_FUNCTIONS)
def test_a_point_function_refuses_a_window_by_naming_an_integer(name):
    sys_ = SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, N=200)
    POINT_FUNCTIONS[name](sys_, 2)
    with pytest.raises(TypeError) as exc:
        POINT_FUNCTIONS[name](sys_, range(1, 3))
    assert str(exc.value) == "separation must be an integer, got range(1, 3)"


@pytest.mark.parametrize("name", WINDOW_FUNCTIONS)
def test_a_window_function_refuses_an_integer_by_naming_a_range(name):
    sys_ = SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, N=200)
    assert len(WINDOW_FUNCTIONS[name](sys_, range(2, 3))) == 1
    with pytest.raises(TypeError) as exc:
        WINDOW_FUNCTIONS[name](sys_, 2)
    assert str(exc.value) == "separations must be a range, got 2"


def test_separation_gives_back_the_integer_it_checks():
    assert _separation(4, upper=4) == 4
    assert _separation(1) == 1


def test_separations_passes_a_valid_range_through():
    seps = range(2, 9)
    assert _separations(seps, upper=8) is seps


def test_separations_refuses_a_non_integer():
    # a lone separation that is not an integer; a window that is not a range
    with pytest.raises(TypeError, match="integer"):
        _separation(2.0)
    with pytest.raises(TypeError, match="range"):
        _separations(2.0)


@pytest.mark.parametrize("bad,match", [
    (range(3, 3), "non-empty range with step 1"),
    (range(1, 9, 2), "non-empty range with step 1"),
    (range(0, 3), "separation must be >= 1, got R=0"),
    (range(2, 12), "1 <= R <= 10, got R=11"),
    (11, "1 <= R <= 10, got R=11"),
    # a window with no room at all, as a force on a chain with N = 1 has:
    # given as (R, upper) since every other case keeps upper = 10
    ((range(1, 2), 0), "no separation fits: the upper bound 0 is below the lower bound 1"),
])
def test_separations_refuses_empty_strided_and_out_of_bounds_ranges(bad, match):
    # a lone separation goes through the point check, which states the same bounds
    R, upper = bad if isinstance(bad, tuple) else (bad, 10)
    check = _separations if isinstance(R, range) else _separation
    with pytest.raises(ValueError, match=match):
        check(R, upper=upper)


@pytest.mark.parametrize("sweep", [
    force_curve,
    lambda s, seps: thermal_table(s, (0.0,), seps),
    cp_energy_ed,
    cp_energy_quadrature,
], ids=["force_curve", "thermal_table", "cp_energy_ed", "cp_energy_quadrature"])
@pytest.mark.parametrize("bad,message", [
    # an empty window is named by its ends, a stride (only the library passes one) by its repr
    (range(3, 3), "separations must be a non-empty range with step 1, got R from 3 to 2"),
    (range(1, 9, 2), "separations must be a non-empty range with step 1, got range(1, 9, 2)"),
    # every sweep's floor is one lattice constant
    (range(0, 3), "separation must be >= 1, got R=0"),
], ids=["empty", "step-2", "from-0"])
def test_every_sweep_refuses_a_bad_range_with_one_message(sweep, bad, message):
    sys_ = SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, N=200)
    with pytest.raises(ValueError) as exc:
        sweep(sys_, bad)
    assert str(exc.value) == message


def regime_system(lam):
    """Level 1.0 under a band whose bottom is 1.4: the gap is 0.4."""
    return SymmetricSystem(delta=-1.0, J=0.3, lam=lam, N=50)


def test_validate_regime_weak_coupling_passes():
    report = validate_regime(regime_system(0.01))
    assert report.weak_coupling
    # gap is 0.4, so the ratio is 0.025
    assert report.coupling_ratio == pytest.approx(0.025, rel=1e-12, abs=0)
    assert report.warnings == ()


def test_validate_regime_warns_in_the_grey_zone():
    report = validate_regime(regime_system(0.08))  # ratio 0.2
    assert report.weak_coupling
    assert len(report.warnings) == 1
    assert "coupling ratio" in report.warnings[0]


def test_validate_regime_fails_for_strong_coupling():
    sys_ = regime_system(-0.3)  # ratio 0.75; the sign of lam does not matter
    report = validate_regime(sys_)
    assert report.coupling_ratio == pytest.approx(0.75, rel=1e-12, abs=0)
    assert not report.weak_coupling
    # three digits suffice where they do not read as the threshold
    with pytest.raises(RegimeViolation, match=r"coupling too strong \(coupling ratio 0\.75\)$"):
        require_valid_regime(sys_)
