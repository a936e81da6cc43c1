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
from chaincp.casimir import force_curve
from chaincp.errors import BandEdgeError, RegimeViolation
from chaincp.lattice import (
    SymmetricSystem,
    _ring_column,
    _separations,
    brillouin_modes,
    dispersion,
    require_valid_regime,
    validate_regime,
)
from chaincp.oracle import cp_energy_ed, cp_energy_quadrature
from chaincp.perturbation import symmetric_spectrum_closed
from chaincp.thermal import thermal_table


def ring(N, J=0.3):
    """Level 1.0 under a band centred on 2.0."""
    return SymmetricSystem(delta=-1.0, J=J, lam=0.01, N=N)


def test_chain_band_edges():
    sys_ = ring(10)
    assert sys_.num_sites == 21
    assert sys_.band_bottom == pytest.approx(1.4)
    assert sys_.band_top == pytest.approx(2.6)
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
    with pytest.raises(BandEdgeError):
        SymmetricSystem(delta=-0.5, J=0.3, lam=0.01, N=40)
    assert builds == [10, 20, 30, 30, 40]


@pytest.mark.parametrize("J,N,x,dps", [(0.3, 100, 0.0, 80), (0.3, 100, -1e-4, 80),
                                        (0.495, 60, 0.0, 60), (1e-5, 40, 0.0, 240)],
                         ids=["a=-0.6", "below-the-level", "a=-0.99", "J=1e-5"])
def test_ring_column_matches_high_precision_mode_sums(J, N, x, dps):
    # g_n = -(1/M) sum_k cos(kn) / (x + delta + 2J cos k), summed in momentum
    # space with enough digits for the q^n that cancel (g_40 ~ 1e-200 at J = 1e-5)
    sys_ = SymmetricSystem(delta=-1.0, J=J, lam=0.01, N=N)
    column = _ring_column(sys_, x)
    m = sys_.num_sites
    with mp.workdps(dps):
        cosines = [mp.cos(2 * mp.pi * j / m) for j in range(m)]
        inverse = [1 / (mp.mpf(x) + sys_.delta + 2 * J * c) for c in cosines]
        for n, value in enumerate(column):
            exact = -mp.fsum(cosines[j * n % m] * inverse[j] for j in range(m)) / m
            assert abs(value - exact) <= 2e-14 * abs(exact), n


@pytest.mark.parametrize("J,N", [(0.3, 400), (0.499, 400), (1e-5, 40), (0.0, 5), (0.3, 1)])
def test_ring_column_early_exit_gives_the_floats_of_the_full_elimination(J, N):
    # once a ratio repeats, every lower one is the same float: filling them in
    # must give what eliminating site by site gives
    sys_ = SymmetricSystem(delta=-1.0, J=J, lam=0.01, N=N)
    d = -(-1e-4 + sys_.delta)
    ratios = [0.0] * (N + 1)
    ratios[N] = J / (d - J)
    for n in range(N - 1, 0, -1):
        ratios[n] = J / (d - J * ratios[n + 1])
    ratios[0] = 1.0 / (d - 2.0 * J * ratios[1])
    assert _ring_column(sys_, -1e-4) == list(itertools.accumulate(ratios, operator.mul))


def test_brillouin_modes_cover_the_zone():
    modes = brillouin_modes(ring(6))
    assert modes.shape == (13,)
    assert modes[6] == 0.0
    # modes come in exact +-k pairs and stay inside (-pi, pi)
    assert np.array_equal(modes, -modes[::-1])
    assert np.all(np.abs(modes) < np.pi)
    spacing = np.diff(modes)
    assert_allclose(spacing, 2 * np.pi / 13, rtol=1e-14)


def test_dispersion_scalar_and_array_agree():
    sys_ = ring(8)
    modes = brillouin_modes(sys_)
    scalar = [dispersion(sys_, float(k)) for k in modes]
    assert_allclose(dispersion(sys_, modes), scalar, rtol=1e-15)
    assert dispersion(sys_, 0.0) == sys_.band_bottom
    assert dispersion(sys_, np.pi) == pytest.approx(sys_.band_top, rel=1e-15)


def test_symmetric_system_derived_quantities():
    sys_ = SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, N=50)
    assert sys_.delta == -1.0
    assert sys_.a == pytest.approx(-0.6, rel=1e-15)
    assert sys_.q == pytest.approx(1.0 / 3.0, rel=1e-15)
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
    with pytest.raises(BandEdgeError):
        SymmetricSystem(delta=delta, J=J, lam=0.01, N=10)


def test_symmetric_system_rejects_a_rounded_onto_the_band_edge():
    # the band bottom (0.91 + 0.5) - 0.5 rounds to one ulp above the level,
    # yet 2 J / delta is exactly -1
    eps0, delta, J = 0.91, -0.5, 0.25
    assert eps0 < (eps0 - delta) - 2 * J and 2 * J / delta == -1.0
    with pytest.raises(BandEdgeError):
        SymmetricSystem(delta=delta, J=J, lam=0.01, N=10, eps0=eps0)


def test_band_edge_error_is_raised_only_by_the_system():
    raises = [
        path.name
        for path in sorted(Path(chaincp.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and "BandEdgeError" in ast.unparse(node)
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


@pytest.mark.parametrize("eps0", [0.0, 1.0, 1e14, 1e16])
def test_gap_and_coupling_ratio_do_not_depend_on_where_zero_is(eps0):
    sys_ = SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, N=50, eps0=eps0)
    assert sys_.gap == 0.4
    assert validate_regime(sys_).coupling_ratio == 0.01 / 0.4


def test_public_surface_is_the_union_of_the_submodules_all():
    # every public module lists its names once, and the package re-exports
    # exactly those; the CLI is reached through its entry point, not imported
    modules = [importlib.import_module(f"chaincp.{info.name}")
               for info in pkgutil.iter_modules(chaincp.__path__)
               if not info.name.startswith("_") and info.name != "cli"]
    expected = {"__version__"}.union(*(module.__all__ for module in modules))
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
    symmetric_spectrum_closed(sys_, 10)
    with pytest.raises(ValueError):
        symmetric_spectrum_closed(sys_, 11)
    with pytest.raises(ValueError):
        symmetric_spectrum_closed(sys_, 0)
    with pytest.raises(TypeError):
        symmetric_spectrum_closed(sys_, 1.0)


def test_separations_turns_an_integer_into_a_one_point_range():
    assert _separations(4) == range(4, 5)
    assert _separations(0, lower=0) == range(0, 1)


def test_separations_passes_a_valid_range_through():
    seps = range(2, 9)
    assert _separations(seps, upper=8) is seps


def test_separations_refuses_a_non_integer():
    with pytest.raises(TypeError, match="integer"):
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
    R, upper = bad if isinstance(bad, tuple) else (bad, 10)
    with pytest.raises(ValueError, match=match):
        _separations(R, upper=upper)


@pytest.mark.parametrize("sweep", [
    force_curve,
    lambda s, seps: thermal_table(s, (0.0,), seps),
    cp_energy_ed,
    cp_energy_quadrature,
], ids=["force_curve", "thermal_table", "cp_energy_ed", "cp_energy_quadrature"])
@pytest.mark.parametrize("bad", [range(3, 3), range(1, 9, 2)], ids=["empty", "step-2"])
def test_every_sweep_refuses_a_bad_range_with_one_message(sweep, bad):
    sys_ = SymmetricSystem(delta=-1.0, J=0.3, lam=0.01, N=200)
    message = f"separations must be a non-empty range with step 1, got {bad!r}"
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
    assert report.coupling_ratio == pytest.approx(0.025, rel=1e-12)
    assert report.warnings == ()


def test_validate_regime_warns_in_the_grey_zone():
    report = validate_regime(regime_system(0.08))  # ratio 0.2
    assert report.weak_coupling
    assert len(report.warnings) == 1
    assert "coupling ratio" in report.warnings[0]


def test_validate_regime_fails_for_strong_coupling():
    sys_ = regime_system(-0.3)  # ratio 0.75; the sign of lam does not matter
    report = validate_regime(sys_)
    assert report.coupling_ratio == pytest.approx(0.75, rel=1e-12)
    assert not report.weak_coupling
    with pytest.raises(RegimeViolation, match="coupling too strong"):
        require_valid_regime(sys_)
