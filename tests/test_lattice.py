import ast
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import chaincp
from chaincp.errors import BandEdgeError, RegimeViolation
from chaincp.lattice import (
    ChainParams,
    ImpurityConfig,
    SymmetricSystem,
    brillouin_modes,
    dispersion,
    require_valid_regime,
    validate_regime,
)
from chaincp.perturbation import symmetric_spectrum_closed


def test_chain_band_edges():
    chain = ChainParams(omega=2.0, J=0.3, N=10)
    assert chain.num_sites == 21
    assert chain.band_bottom == pytest.approx(1.4)
    assert chain.band_top == pytest.approx(2.6)


@pytest.mark.parametrize("bad", [{"omega": 2.0, "J": -0.1, "N": 5},
                                 {"omega": 2.0, "J": 0.3, "N": 0}])
def test_chain_rejects_bad_parameters(bad):
    with pytest.raises(ValueError):
        ChainParams(**bad)


def test_chain_rejects_non_integer_length():
    with pytest.raises(TypeError):
        ChainParams(omega=2.0, J=0.3, N=5.0)


def test_brillouin_modes_cover_the_zone():
    chain = ChainParams(omega=2.0, J=0.3, N=6)
    modes = brillouin_modes(chain)
    assert modes.shape == (13,)
    assert modes[6] == 0.0
    # modes come in exact +-k pairs and stay inside (-pi, pi)
    assert np.array_equal(modes, -modes[::-1])
    assert np.all(np.abs(modes) < np.pi)
    spacing = np.diff(modes)
    assert_allclose(spacing, 2 * np.pi / 13, rtol=1e-14)


def test_dispersion_scalar_and_array_agree():
    chain = ChainParams(omega=2.0, J=0.3, N=8)
    modes = brillouin_modes(chain)
    scalar = [dispersion(chain, float(k)) for k in modes]
    assert_allclose(dispersion(chain, modes), scalar, rtol=1e-15)
    assert dispersion(chain, 0.0) == chain.band_bottom
    assert dispersion(chain, np.pi) == pytest.approx(chain.band_top, rel=1e-15)


def test_symmetric_system_derived_quantities():
    sys_ = SymmetricSystem.from_detuning(delta=-1.0, J=0.3, lam=0.01, N=50)
    assert sys_.delta == -1.0
    assert sys_.a == pytest.approx(-0.6, rel=1e-15)
    assert sys_.q == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert sys_.chain.omega == 2.0
    assert sys_.eps0 == 1.0
    imps = sys_.impurities
    assert imps.eps1 == imps.eps2 == 1.0
    assert imps.lambda0 == imps.lambda_r == 0.01


def test_symmetric_system_flat_band_is_allowed():
    sys_ = SymmetricSystem.from_detuning(delta=-1.0, J=0.0, lam=0.01, N=10)
    assert sys_.a == 0.0
    assert sys_.q == 0.0


@pytest.mark.parametrize("delta,J", [
    (-0.5, 0.3),   # level inside the band (|a| > 1)
    (-0.6, 0.3),   # level exactly at the band bottom
    (0.5, 0.3),    # level above the band centre
])
def test_symmetric_system_rejects_levels_not_below_band(delta, J):
    with pytest.raises(BandEdgeError):
        SymmetricSystem.from_detuning(delta=delta, J=J, lam=0.01, N=10)


def test_symmetric_system_rejects_a_rounded_onto_the_band_edge():
    # one ulp below the band bottom, yet 2 J / delta rounds to exactly -1
    chain = ChainParams(omega=1.0, J=0.25, N=10)
    eps0 = math.nextafter(chain.band_bottom, -math.inf)
    assert eps0 < chain.band_bottom and 2 * chain.J / (eps0 - chain.omega) == -1.0
    with pytest.raises(BandEdgeError):
        SymmetricSystem(chain=chain, eps0=eps0, lam=0.01)


def test_band_edge_error_is_raised_only_by_the_system():
    raises = [
        path.name
        for path in sorted(Path(chaincp.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and "BandEdgeError" in ast.unparse(node)
    ]
    assert raises == ["lattice.py"]


def test_symmetric_system_separation_bounds():
    # the system carries no separation; each function checks the one it is given
    with pytest.raises(TypeError):
        SymmetricSystem.from_detuning(delta=-1.0, J=0.3, lam=0.01, R=1, N=10)
    sys_ = SymmetricSystem.from_detuning(delta=-1.0, J=0.3, lam=0.01, N=10)
    symmetric_spectrum_closed(sys_, 10)
    with pytest.raises(ValueError):
        symmetric_spectrum_closed(sys_, 11)
    with pytest.raises(ValueError):
        symmetric_spectrum_closed(sys_, 0)
    with pytest.raises(TypeError):
        symmetric_spectrum_closed(sys_, 1.0)


def test_validate_regime_weak_coupling_passes():
    chain = ChainParams(omega=2.0, J=0.3, N=50)
    imps = ImpurityConfig(eps1=1.0, eps2=1.0, lambda0=0.01, lambda_r=0.01)
    report = validate_regime(chain, imps)
    assert report.ok
    assert report.below_band and report.weak_coupling
    # gap is 0.4, so the ratio is 0.025
    assert report.coupling_ratio == pytest.approx(0.025, rel=1e-12)
    assert report.warnings == ()


def test_validate_regime_warns_in_the_grey_zone():
    chain = ChainParams(omega=2.0, J=0.3, N=50)
    imps = ImpurityConfig(eps1=1.0, eps2=1.0, lambda0=0.08, lambda_r=0.08)
    report = validate_regime(chain, imps)  # ratio 0.2
    assert report.ok
    assert len(report.warnings) == 1
    assert "coupling ratio" in report.warnings[0]


def test_validate_regime_fails_for_strong_coupling():
    chain = ChainParams(omega=2.0, J=0.3, N=50)
    imps = ImpurityConfig(eps1=1.0, eps2=1.0, lambda0=0.3, lambda_r=0.01)
    report = validate_regime(chain, imps)  # ratio 0.75
    assert not report.ok
    assert not report.weak_coupling
    with pytest.raises(RegimeViolation):
        require_valid_regime(chain, imps)


def test_validate_regime_flags_levels_in_the_band():
    chain = ChainParams(omega=2.0, J=0.3, N=50)
    imps = ImpurityConfig(eps1=1.8, eps2=1.0, lambda0=0.01, lambda_r=0.01)
    report = validate_regime(chain, imps)
    assert not report.below_band
    assert report.coupling_ratio == math.inf
    assert not report.ok
