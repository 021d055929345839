import numpy as np
import pytest

from nelsonlab.grid import (
    Grid,
    ResolutionError,
    bump_hat,
    cosine_ramp,
    derivative_matrix,
    dft,
    gaussian_profile_hat,
    idft,
    inner,
    momentum_multiplier,
    norm,
    sobolev_norm,
)


def _delta(grid, index=0):
    """Unit-mass lattice delta at flat lattice index ``index`` (all Fourier modes equal)."""
    vals = np.zeros(grid.size, dtype=complex)
    vals[index] = 1.0 / grid.weight
    return vals


def _bump(grid, lam, x0=0.0):
    """The model's smeared bump at scale ``lam`` centred at the lattice point ``x0``, no ramp."""
    return idft(grid, bump_hat(grid, lam, (x0,), 0.0))


def test_axis_momenta_are_signed_half_lattice():
    g = Grid(1, 8, 2 * np.pi)
    assert sorted(g.axis_momenta()) == pytest.approx(list(range(-4, 4)))


def test_momenta_scale_with_box():
    g = Grid(1, 8, 4 * np.pi)
    assert sorted(g.axis_momenta()) == pytest.approx([0.5 * k for k in range(-4, 4)])


@pytest.mark.parametrize("dim,npts", [(1, 32), (2, 8), (3, 4)])
def test_dft_parseval(dim, npts):
    g = Grid(dim, npts, 2.5)
    rng = np.random.default_rng(7 + dim)
    u = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
    v = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
    lhs = inner(g, u, v)
    rhs = complex(np.vdot(dft(g, u), dft(g, v)) * g.dual_weight)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_dft_plane_wave_concentrates():
    g = Grid(1, 16, 2 * np.pi)
    xi = g.axis_momenta()
    k = 3
    u = np.exp(1j * xi[k] * g.axis_positions())
    uhat = dft(g, u)
    expect = np.zeros(g.size, dtype=complex)
    expect[k] = g.box
    np.testing.assert_allclose(uhat, expect, atol=1e-12)


def test_idft_roundtrip():
    g = Grid(2, 8, 1.0)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
    np.testing.assert_allclose(idft(g, dft(g, u)), u, atol=1e-12)


def test_derivative_matrix_diagonalizes_plane_waves():
    g = Grid(1, 16, 2 * np.pi)
    d = derivative_matrix(g)
    np.testing.assert_allclose(d, d.conj().T, atol=1e-12)
    xi = g.axis_momenta()
    for k in (0, 1, 5, 8):
        u = np.exp(1j * xi[k] * g.axis_positions())
        np.testing.assert_allclose(d @ u, xi[k] * u, atol=1e-10)


def test_momentum_multiplier_identity():
    g = Grid(1, 8, 3.0)
    np.testing.assert_allclose(momentum_multiplier(g, np.ones(8)), np.eye(8), atol=1e-12)


def test_momentum_multiplier_matches_transform_route():
    g = Grid(2, 4, 2 * np.pi)
    rng = np.random.default_rng(3)
    sym = rng.standard_normal(g.size)
    u = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
    a = momentum_multiplier(g, sym)
    np.testing.assert_allclose(a @ u, idft(g, sym * dft(g, u)), atol=1e-11)


def test_sobolev_norm_of_delta_closed_form():
    g = Grid(1, 32, 2 * np.pi)
    d = _delta(g)
    for s in (-2.0, -1.0, 0.0, 1.0):
        expect = np.sqrt(np.sum(g.xi_bracket() ** (2 * s)) * g.dual_weight)
        assert sobolev_norm(g, d, s) == pytest.approx(expect, rel=1e-12)


def test_cutoff_mass_and_positivity():
    g = Grid(1, 64, 2 * np.pi)
    rho = _bump(g, 2.0)
    mass = np.sum(rho).real * g.weight
    assert mass == pytest.approx(1.0, abs=1e-8)
    assert np.max(np.abs(rho.imag)) <= 1e-10
    assert np.min(rho.real) > -1e-12


def test_cutoff_fourier_side_matches_profile():
    g = Grid(1, 64, 2 * np.pi)
    xs = g.spacing  # a lattice point
    rho = _bump(g, 2.0, xs)
    xi = g.momentum_mesh()[:, 0]
    expect = gaussian_profile_hat(np.abs(xi) / 2.0) * np.exp(-1j * xi * xs)
    np.testing.assert_allclose(dft(g, rho), expect, atol=1e-12)


def test_model_cutoff_guard_accepts_exactly_the_resolved_range():
    g = Grid(1, 8, 2 * np.pi)  # pi * npts / box = 4
    g.check_cutoff(4.0)
    g.check_cutoff(1e-6)
    for lam in (0.0, -1.0, 4.001, np.nan, np.inf):
        with pytest.raises(ResolutionError, match="saturation"):
            g.check_cutoff(lam)


def test_delta_unit_mass_and_flat_spectrum():
    g = Grid(1, 16, 2 * np.pi)
    d = _delta(g, 3)
    assert np.sum(d).real * g.weight == pytest.approx(1.0, abs=1e-13)
    np.testing.assert_allclose(np.abs(dft(g, d)), np.ones(g.size), atol=1e-12)


def test_hs_distance_to_delta_decreases_along_cutoff_sweep():
    # negative-order Sobolev distance between the smeared bump and the delta
    # shrinks as the cutoff scale grows (frozen trend, guarded sweep)
    g = Grid(1, 256, 2 * np.pi)
    d = _delta(g)
    for s in (-1.6, -1.0):
        dists = [sobolev_norm(g, _bump(g, lam) - d, s) for lam in (1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(dists, dists[1:])), dists


def test_cosine_ramp_profile():
    r = np.array([0.0, 1.0, 1.5, 2.0, 3.0])
    chi = cosine_ramp(r, sigma=1.0)
    np.testing.assert_allclose(chi, [0.0, 0.0, 0.5, 1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(cosine_ramp(r, sigma=0.0), np.ones_like(r))


def test_lattice_function_inner_matches_weight():
    g = Grid(1, 8, 4.0)
    u = np.ones(8, dtype=complex)
    assert norm(g, u) == pytest.approx(2.0)  # sqrt(8 * (4/8)) = 2
    assert inner(g, u, u) == pytest.approx(4.0)
