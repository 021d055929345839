import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from nelsonlab.grid import Grid, derivative_matrix, momentum_multiplier
from nelsonlab.operators import SizeError, opnorm
from nelsonlab.psido import (
    EllipticityError,
    OrderFunction,
    Symbol,
    _axis_components,
    _chi_mesh,
    _column_table,
    _reordering_phase,
    _target_index,
    _translate_x,
    _translation_phase,
    adjoint_symbol,
    asymptotic_resum,
    calculus_peak_bytes,
    change_quantization,
    constant_symbol,
    cotlar_stein_bound,
    dequantize,
    ellipticity_margin,
    functional_calculus_check,
    measured_order,
    moyal,
    parametrix,
    poisson_residual,
    quantize,
    random_band_limited,
    schur_bound,
    xi_power_order,
)

G32 = Grid(1, 32, 2 * np.pi)
ORDERINGS = (0.0, 0.5, 1.0)


def _rand_symbol(grid, rng):
    vals = rng.standard_normal((grid.size,) * 2) + 1j * rng.standard_normal((grid.size,) * 2)
    return Symbol(grid, vals)


def _symbol(grid, values_x, values_xi, order=None):
    """Separable symbol a(x, xi) = values_x(x) * values_xi(xi); a scalar is a constant factor."""
    vx = np.broadcast_to(np.asarray(values_x, dtype=complex), (grid.size,))
    vk = np.broadcast_to(np.asarray(values_xi, dtype=complex), (grid.size,))
    return Symbol(grid, np.outer(vx, vk), order)


def _wave(grid, k):
    return np.exp(1j * grid.momentum_mesh()[k, 0] * grid.position_mesh()[:, 0])


# -- quantize ----------------------------------------------------------------


@pytest.mark.parametrize("t", [0.0, 0.4, 0.5, 1.0])
def test_quantize_constant_is_identity(t):
    q = quantize(constant_symbol(G32), t)
    np.testing.assert_allclose(q, np.eye(G32.size), atol=1e-12)


def test_quantize_momentum_symbol_acts_as_derivative():
    """a(x, xi) = xi applied to a plane wave multiplies by its momentum."""
    sym = _symbol(G32, 1.0, G32.momentum_mesh()[:, 0])
    q = quantize(sym, 1.0)
    for k in (0, 3, 17, 31):
        u = _wave(G32, k)
        np.testing.assert_allclose(q @ u, G32.momentum_mesh()[k, 0] * u, atol=1e-10)
    np.testing.assert_allclose(q, derivative_matrix(G32), atol=1e-12)


@pytest.mark.parametrize("t", [-0.1, 1.1])
def test_quantize_rejects_ordering_outside_unit_interval(t):
    with pytest.raises(ValueError, match="lie in"):
        quantize(constant_symbol(G32), t)


def test_ordering_extremes_factor_through_multiplication():
    """Left ordering gives g(x) D^2, right ordering gives D^2 g(x)."""
    x = G32.position_mesh()[:, 0]
    k = G32.momentum_mesh()[:, 0]
    g = 1.0 + 0.5 * np.cos(x) + 0.2 * np.sin(2 * x)
    sym = _symbol(G32, g, k**2)
    D = derivative_matrix(G32)
    gm = np.diag(g.astype(complex))
    assert np.max(np.abs(quantize(sym, 1.0) - gm @ D @ D)) < 1e-10
    assert np.max(np.abs(quantize(sym, 0.0) - D @ D @ gm)) < 1e-10


@pytest.mark.parametrize("t", ORDERINGS)
def test_symmetric_ordering_star_square_is_sandwiched_derivative(t):
    """The product symbol xi # g # xi quantizes to D g D at every ordering."""
    x = G32.position_mesh()[:, 0]
    g = 1.0 + 0.5 * np.cos(x) + 0.2 * np.sin(2 * x)
    xi = _symbol(G32, 1.0, G32.momentum_mesh()[:, 0])
    star = moyal(xi, moyal(_symbol(G32, g, 1.0), xi, t), t)
    D = derivative_matrix(G32)
    dgd = D @ np.diag(g.astype(complex)) @ D
    assert np.max(np.abs(quantize(star, t) - dgd)) < 1e-10


def test_weyl_of_metric_symbol_carries_curvature_correction():
    # On the inner band, Op_{1/2}(g xi^2) = D g D - g''/4; without the g''
    # term the same comparison is off at order one.
    x = G32.position_mesh()[:, 0]
    k = G32.momentum_mesh()[:, 0]
    g = 1.0 + 0.4 * np.cos(2 * x)
    gpp = -1.6 * np.cos(2 * x)
    w = quantize(_symbol(G32, g, k**2), 0.5)
    D = derivative_matrix(G32)
    dgd = D @ np.diag(g.astype(complex)) @ D
    proj = momentum_multiplier(G32, (np.abs(np.rint(k)) <= 8).astype(complex))
    corrected = dgd - 0.25 * np.diag(gpp.astype(complex))
    assert np.max(np.abs(proj @ (w - corrected) @ proj)) < 1e-10
    assert np.max(np.abs(proj @ (w - dgd) @ proj)) > 0.1


def test_weyl_of_real_band_limited_symbol_is_hermitian():
    rng = np.random.default_rng(20)
    for _ in range(5):
        sym = random_band_limited(G32, rng, real=True)
        q = quantize(sym, 0.5)
        assert np.max(np.abs(q - q.conj().T)) < 1e-10


def _loop_quantize(a, t):
    """Reference kernel built one displacement at a time, as a plain loop.

    Column n holds the displacement theta_n = x - y (signed per axis); its
    midpoint symbol is a moved back by (1-t)*theta_n in x, through the
    band-limited interpolant.
    """
    grid = a.grid
    S, L, d = grid.size, grid.npts, grid.dim
    V = a.values
    comp = np.stack(np.unravel_index(np.arange(S), grid.shape), axis=-1)
    signed = (comp + L // 2) % L - L // 2

    def flat(c):
        return np.ravel_multi_index(np.moveaxis(c % L, -1, 0), grid.shape)

    mom = grid.momentum_mesh()
    back = 1.0 - t
    c2 = np.fft.fftn(V.reshape(grid.shape + (S,)), axes=range(d)).reshape(S, S) / S
    out = np.zeros((S, S), dtype=complex)
    for n in range(S):
        theta = signed[n] * grid.spacing
        if back == 0.0 or n == 0:
            mid = V
        else:
            shifted = c2 * np.exp(-1j * back * (mom @ theta))[:, None]
            mid = np.fft.ifftn(shifted.reshape(grid.shape + (S,)), axes=range(d)).reshape(S, S) * S
        out[np.arange(S), flat(comp - comp[n])] = mid @ np.exp(1j * (mom @ theta)) / S
    return out


@pytest.mark.parametrize("dim, npts", [(1, 8), (1, 16), (2, 4), (3, 4)])
def test_quantize_matches_per_displacement_loop(dim, npts):
    grid = Grid(dim, npts, 2 * np.pi)
    sym = _rand_symbol(grid, np.random.default_rng(40 + dim * npts))
    for t in (0.0, 0.25, 0.5, 1.0):
        ref = _loop_quantize(sym, t)
        dev = np.max(np.abs(quantize(sym, t) - ref)) / np.max(np.abs(ref))
        assert dev <= 1e-13, (t, dev)


# -- dequantize and reordering ------------------------------------------------


@pytest.mark.parametrize("t", [0.0, 0.3, 0.5, 1.0])
def test_dequantize_inverts_quantize(t):
    rng = np.random.default_rng(23)
    sym = _rand_symbol(G32, rng)
    back = dequantize(G32, quantize(sym, t), t)
    np.testing.assert_allclose(back.values, sym.values, atol=1e-12)


@pytest.mark.parametrize("t", [0.5, 1.0])
def test_dequantize_inverts_quantize_to_roundoff_at_npts_256(t):
    # the column sums are FFTs over the xi axes, with no table of
    # e^{i xi . theta}; exp of the unreduced phase xi . theta (it reaches 402
    # here) would miss by ~2e-14
    grid = Grid(1, 256, 2 * np.pi)
    sym = _rand_symbol(grid, np.random.default_rng(25))
    back = dequantize(grid, quantize(sym, t), t)
    assert np.max(np.abs(back.values - sym.values)) / np.max(np.abs(sym.values)) <= 2e-15


@pytest.mark.parametrize("dim, npts", [(1, 16), (2, 8), (3, 4)])
def test_dequantize_matches_dft_matrix_product(dim, npts):
    # the column sums undone by a product with the conjugate DFT table, as a GEMM
    grid = Grid(dim, npts, 2 * np.pi)
    S = grid.size
    op = _rand_symbol(grid, np.random.default_rng(26 + dim)).values
    for t in (0.5, 1.0):
        cols = op[np.arange(S)[:, None], _target_index(grid)]
        if t != 1.0:
            cols = _translate_x(grid, cols, 1.0 - t)
        ref = cols @ np.conj(_column_table(grid)).T
        dev = np.max(np.abs(dequantize(grid, op, t).values - ref)) / np.max(np.abs(ref))
        assert dev <= 1e-13, (t, dev)


def test_grid_tables_are_read_only_and_shared_by_equal_grids():
    first = _column_table(Grid(2, 4, 2 * np.pi))
    assert _column_table(Grid(2, 4, 2 * np.pi)) is first
    assert _translation_phase(Grid(1, 8, 1.0), -0.5) is _translation_phase(Grid(1, 8, 1.0), -0.5)
    tables = (first, _target_index(G32), _axis_components(G32), _chi_mesh(G32), _reordering_phase(G32, 0.5))
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 1


def test_grid_table_cache_stays_bounded_over_many_orderings():
    rng = np.random.default_rng(27)
    sym = _rand_symbol(G32, rng)
    for t in np.linspace(0.0, 1.0, 41):
        q = quantize(sym, t)
        dequantize(G32, q, t)
        change_quantization(sym, t, 1.0 - t)
    builders = (_axis_components, _target_index, _column_table, _chi_mesh, _translation_phase, _reordering_phase)
    for build in builders:
        assert build.cache_info().currsize <= 1, build


def test_grid_tables_stay_consistent_across_threads():
    # threads that call the calculus share the cache; alternating grids and
    # orderings evict entries while other threads read them
    rng = np.random.default_rng(36)
    cases = [(_rand_symbol(g, rng), t) for g in (Grid(1, 16, 2 * np.pi), Grid(2, 4, 2 * np.pi)) for t in (0.0, 0.3)]

    def one(case):
        a, t = case
        return quantize(change_quantization(a, 1.0, t), t)

    expected = [one(case) for case in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(one, case) for _ in range(8) for case in cases]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for k, got in enumerate(results):
        assert np.array_equal(got, expected[k % len(cases)])


@pytest.mark.parametrize("t", [0.0, 0.5])
def test_dequantize_inverts_quantize_in_two_dimensions(t):
    grid = Grid(2, 8, 2 * np.pi)
    sym = _rand_symbol(grid, np.random.default_rng(24))
    back = dequantize(grid, quantize(sym, t), t)
    np.testing.assert_allclose(back.values, sym.values, atol=1e-12)


def test_dequantize_of_derivative_matrix_is_momentum_symbol():
    sym = dequantize(G32, derivative_matrix(G32), 1.0)
    expected = np.broadcast_to(G32.momentum_mesh()[:, 0][None, :], (32, 32))
    np.testing.assert_allclose(sym.values, expected, atol=1e-12)


def test_change_quantization_roundtrip_matrix_identity():
    rng = np.random.default_rng(24)
    sym = _rand_symbol(G32, rng)
    for t in (0.0, 0.5, 1.0):
        q = quantize(sym, t)
        for s in (0.0, 0.5, 1.0):
            moved = change_quantization(sym, t, s)
            assert np.max(np.abs(quantize(moved, s) - q)) < 1e-10
    same = change_quantization(sym, 0.5, 0.5)
    np.testing.assert_allclose(same.values, sym.values, atol=1e-14)


def test_change_quantization_group_law():
    rng = np.random.default_rng(25)
    sym = _rand_symbol(G32, rng)
    two_step = change_quantization(change_quantization(sym, 1.0, 0.3), 0.3, 0.0)
    one_step = change_quantization(sym, 1.0, 0.0)
    np.testing.assert_allclose(two_step.values, one_step.values, atol=1e-12)


def test_change_quantization_fixes_momentum_symbols():
    k = G32.momentum_mesh()[:, 0]
    sym = _symbol(G32, 1.0, np.exp(1j * k) / (1.0 + k**2))
    for t, s in ((1.0, 0.0), (0.5, 0.2)):
        moved = change_quantization(sym, t, s)
        np.testing.assert_allclose(moved.values, sym.values, atol=1e-13)


def test_reordering_offset_of_position_momentum_symbol():
    """x*xi ordered left vs right differs by the commutator, never a multiple
    of the identity: the commutator is traceless, so the continuum offset i
    survives only as the interior mean of the transform-recovered shift."""
    saw = G32.axis_positions().copy()
    saw[saw > np.pi] -= 2 * np.pi  # odd-symmetrized coordinate
    k = G32.momentum_mesh()[:, 0]
    sym = _symbol(G32, saw, k)
    m1 = quantize(sym, 1.0)
    m0 = quantize(sym, 0.0)
    D = derivative_matrix(G32)
    comm = np.diag(saw.astype(complex)) @ D - D @ np.diag(saw.astype(complex))
    np.testing.assert_allclose(m1 - m0, comm, atol=1e-12)
    np.testing.assert_allclose(np.diag(m1 - m0), np.zeros(32), atol=1e-14)
    offset = change_quantization(sym, 1.0, 0.0).values - sym.values
    inner = np.abs(np.rint(np.fft.fftfreq(32) * 32)).astype(int) <= 8
    interior_mean = np.mean(offset[np.ix_(inner, inner)])
    assert abs(interior_mean - 1j) < 0.05


# -- adjoint and product -------------------------------------------------------


@pytest.mark.parametrize("t", [0.0, 0.3, 0.5, 1.0])
def test_adjoint_symbol_matrix_identity(t):
    rng = np.random.default_rng(26)
    sym = _rand_symbol(G32, rng)
    q = quantize(sym, t)
    assert np.max(np.abs(quantize(adjoint_symbol(sym, t), t) - q.conj().T)) < 1e-10


def test_adjoint_fixed_points():
    rng = np.random.default_rng(27)
    real_sym = random_band_limited(G32, rng, real=True)
    np.testing.assert_allclose(
        adjoint_symbol(real_sym, 0.5).values, real_sym.values, atol=1e-12
    )
    k = G32.momentum_mesh()[:, 0]
    mult = _symbol(G32, 1.0, np.exp(1j * k))
    for t in ORDERINGS:
        np.testing.assert_allclose(
            adjoint_symbol(mult, t).values, np.conj(mult.values), atol=1e-12
        )


@pytest.mark.parametrize("t", ORDERINGS)
def test_moyal_matrix_identity(t):
    rng = np.random.default_rng(28)
    a = _rand_symbol(G32, rng)
    b = _rand_symbol(G32, rng)
    qa = quantize(a, t)
    qb = quantize(b, t)
    assert np.max(np.abs(quantize(moyal(a, b, t), t) - qa @ qb)) < 1e-10


def test_moyal_composition_stays_at_roundoff_on_a_fine_grid():
    # the plane-wave table of the twisted product must come from the exact
    # integer phase: exp of the unreduced x . xi (up to ~800 at npts 256)
    # costs about two digits
    grid = Grid(1, 256, 2 * np.pi)
    rng = np.random.default_rng(7)
    a = random_band_limited(grid, rng)
    b = random_band_limited(grid, rng)
    composed = quantize(moyal(a, b, 1.0), 1.0)
    product = quantize(a, 1.0) @ quantize(b, 1.0)
    assert np.linalg.norm(composed - product, 2) < 1e-15


def test_moyal_momentum_symbols_multiply_pointwise():
    k = G32.momentum_mesh()[:, 0]
    a = _symbol(G32, 1.0, 1.0 / (1.0 + k**2))
    b = _symbol(G32, 1.0, np.cos(k))
    for t in (1.0, 0.5):
        prod = moyal(a, b, t)
        np.testing.assert_allclose(prod.values, a.values * b.values, atol=1e-13)


def test_moyal_with_unit_symbol_is_identity():
    rng = np.random.default_rng(29)
    b = _rand_symbol(G32, rng)
    prod = moyal(constant_symbol(G32), b, 0.5)
    np.testing.assert_allclose(prod.values, b.values, atol=1e-12)


def test_moyal_is_associative():
    rng = np.random.default_rng(30)
    a = _rand_symbol(G32, rng)
    b = random_band_limited(G32, rng)
    c = random_band_limited(G32, rng)
    lhs = moyal(moyal(a, b, 0.5), c, 0.5).values
    rhs = moyal(a, moyal(b, c, 0.5), 0.5).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_moyal_rejects_grid_mismatch():
    with pytest.raises(ValueError, match="grid"):
        moyal(constant_symbol(G32), constant_symbol(Grid(1, 16, 2 * np.pi)), 1.0)


def test_moyal_order_function_multiplies():
    k = G32.momentum_mesh()[:, 0]
    a = _symbol(G32, 1.0, 1.0 + k**2, xi_power_order(G32, 2))
    b = _symbol(G32, 1.0, np.sqrt(1.0 + k**2), xi_power_order(G32, 1))
    prod = moyal(a, b, 1.0)
    np.testing.assert_allclose(
        prod.order.table(G32.size),
        a.order.table(G32.size) * b.order.table(G32.size),
        rtol=1e-12,
    )


def test_poisson_leading_order_bounded_under_refinement():
    """The commutator symbol minus i{a, b} stays O(1) in the weighted sup
    norm as the momentum lattice doubles; slope fit stays inside 0.2."""
    results = {1.0: [], 0.5: []}
    for npts in (32, 64, 128):
        g = Grid(1, npts, 2 * np.pi)
        x = g.position_mesh()[:, 0]
        k = g.momentum_mesh()[:, 0]
        a = Symbol(g, np.outer(np.cos(x), np.exp(-(k**2) / 4.0)))
        b = Symbol(g, np.outer(np.sin(x), k * np.exp(-(k**2) / 6.0)))
        for t in results:
            results[t].append(poisson_residual(a, b, t))
    for t, vals in results.items():
        assert max(vals) < 0.7
        slope = np.polyfit(np.log2([32, 64, 128]), np.log2(vals), 1)[0]
        assert abs(slope) < 0.2
    # frozen values: t=1 -> 0.4649, t=1/2 -> 0.1661, both flat in L
    assert results[1.0][0] == pytest.approx(0.4649, abs=2e-4)
    assert results[0.5][0] == pytest.approx(0.1661, abs=2e-4)


# -- parametrix ----------------------------------------------------------------


def test_parametrix_constant_symbol():
    b, residuals = parametrix(constant_symbol(G32, 4.0), iterations=0)
    np.testing.assert_allclose(b.values, 0.25 * np.ones((32, 32)), atol=1e-13)
    assert residuals[0] < 1e-12


@pytest.mark.parametrize("m", [1, 2])
def test_parametrix_multiplier_family_is_exact(m):
    # x-independent elliptic symbols invert pointwise, so the residual starts
    # at roundoff and must not grow along the iteration.
    g = Grid(1, 64, 2 * np.pi)
    k = g.momentum_mesh()[:, 0]
    sym = _symbol(g, 1.0, (1.0 + k**2) ** (m / 2.0), xi_power_order(g, m))
    _, residuals = parametrix(sym, iterations=3)
    assert residuals[0] < 1e-12
    for prev, nxt in zip(residuals, residuals[1:]):
        assert nxt <= prev + 1e-13


def test_parametrix_modulated_bracket_squared_converges():
    """x-modulated order-2 elliptic symbol: three corrector terms buy two
    orders of magnitude."""
    g = Grid(1, 64, 2 * np.pi)
    x = g.position_mesh()[:, 0]
    k = g.momentum_mesh()[:, 0]
    sym = Symbol(g, np.outer(1.0 + 0.25 * np.sin(x), 1.0 + k**2), xi_power_order(g, 2))
    _, residuals = parametrix(sym, iterations=3)
    assert residuals[0] == pytest.approx(0.2474, rel=1e-2)
    assert residuals[3] == pytest.approx(1.836e-3, rel=1e-2)
    assert residuals[3] * 10.0 <= residuals[0]
    for prev, nxt in zip(residuals, residuals[1:]):
        assert nxt < prev


def test_parametrix_tracks_dense_inverse():
    g = Grid(1, 64, 2 * np.pi)
    x = g.position_mesh()[:, 0]
    k = g.momentum_mesh()[:, 0]
    sym = Symbol(g, np.outer(1.0 + 0.25 * np.sin(x), 1.0 + k**2), xi_power_order(g, 2))
    dense = np.linalg.inv(quantize(sym, 1.0))
    dists = []
    for its in range(4):
        b, _ = parametrix(sym, iterations=its)
        dists.append(np.linalg.norm(quantize(b, 1.0) - dense, 2))
    for prev, nxt in zip(dists, dists[1:]):
        assert nxt < prev


def test_parametrix_rejects_non_elliptic_symbol():
    k = G32.momentum_mesh()[:, 0]
    sym = _symbol(G32, 1.0, k**2, xi_power_order(G32, 2))  # vanishes at xi = 0
    with pytest.raises(EllipticityError, match="min |a|/M".replace("|", r"\|")):
        parametrix(sym)
    assert ellipticity_margin(sym) == 0.0


# -- order measurement and resummation -----------------------------------------


def test_measured_order_of_power_symbols():
    g = Grid(1, 128, 2 * np.pi)
    k = g.momentum_mesh()[:, 0]
    bracket = np.sqrt(1.0 + k**2)
    assert measured_order(_symbol(g, 1.0, bracket**2)) == pytest.approx(2.0, abs=0.2)
    assert measured_order(_symbol(g, 1.0, bracket)) == pytest.approx(1.0, abs=0.2)
    assert measured_order(_symbol(g, 1.0, np.ones(128))) == pytest.approx(0.0, abs=1e-12)


def test_measured_order_needs_enough_shells():
    g = Grid(1, 4, 2 * np.pi)
    with pytest.raises(ValueError, match="shells"):
        measured_order(_symbol(g, 1.0, np.ones(4)))


def test_resum_single_term_matches_outside_bump():
    g = Grid(1, 128, 2 * np.pi)
    k = g.momentum_mesh()[:, 0]
    a0 = _symbol(g, 1.0, np.sqrt(1.0 + k**2), xi_power_order(g, 1))
    total = asymptotic_resum(g, [(a0, 1.0)])
    eps0 = 8.0 / g.max_momentum()
    far = np.abs(k) >= 1.0 / eps0
    near = np.abs(k) <= 0.5 / eps0
    np.testing.assert_allclose(total.values[:, far], a0.values[:, far], atol=1e-14)
    np.testing.assert_allclose(total.values[:, near], 0.0, atol=1e-14)


def test_resum_two_term_remainder_order():
    # subtracting the leading term leaves a symbol of order <= 0; the shell
    # fit lands at -0.42 on this grid, well inside the 0.2 tolerance.
    g = Grid(1, 128, 2 * np.pi)
    x = g.position_mesh()[:, 0]
    k = g.momentum_mesh()[:, 0]
    a0 = _symbol(g, 1.0, np.sqrt(1.0 + k**2), xi_power_order(g, 1))
    a1 = Symbol(g, np.outer(np.cos(x), np.ones(128)), xi_power_order(g, 0))
    total = asymptotic_resum(g, [(a0, 1.0), (a1, 0.0)])
    remainder = Symbol(g, total.values - a0.values)
    assert measured_order(remainder) <= 0.2


def test_resum_rejects_non_decreasing_orders():
    k = G32.momentum_mesh()[:, 0]
    a = _symbol(G32, 1.0, np.ones(32))
    with pytest.raises(ValueError, match="strictly decreasing"):
        asymptotic_resum(G32, [(a, 1.0), (a, 1.0)])


def test_resum_of_empty_series_is_zero():
    total = asymptotic_resum(G32, [])
    np.testing.assert_allclose(total.values, 0.0, atol=0.0)


# -- functional calculus ---------------------------------------------------------


def test_functional_calculus_identity_and_constant_are_exact():
    k = G32.momentum_mesh()[:, 0]
    sym = _symbol(G32, 1.0, 1.0 + k**2, xi_power_order(G32, 2))
    ident = functional_calculus_check(sym, lambda v: v, 1.0)
    assert ident["operator_norm"] < 1e-12
    const = functional_calculus_check(sym, lambda v: 2.0 * np.ones_like(v), 0.0)
    assert const["operator_norm"] < 1e-12


def test_functional_calculus_sqrt_uniform_under_refinement():
    """sqrt of an order-2 symbol: the mismatch acts at order 0 and its
    H^s -> H^s norms are grid-size independent."""
    norms = []
    for npts in (32, 64, 128):
        g = Grid(1, npts, 2 * np.pi)
        x = g.position_mesh()[:, 0]
        k = g.momentum_mesh()[:, 0]
        vals = np.broadcast_to((1.0 + k**2)[None, :], (npts, npts)).copy()
        vals = vals + 0.25 * np.outer(np.sin(x), 1.0 + np.cos(k * (2 * np.pi / 8)))
        report = functional_calculus_check(Symbol(g, vals, xi_power_order(g, 2)), np.sqrt, 0.5)
        assert report["difference_order"] == pytest.approx(0.0)
        norms.append(report["sobolev_norms"])
    for s in (-1.0, 0.0, 1.0):
        column = [n[s] for n in norms]
        assert max(column) < 0.05
        assert max(column) / min(column) < 1.05


def test_functional_calculus_sqrt_tracks_symbol_on_plane_waves():
    g = Grid(1, 128, 2 * np.pi)
    k = g.momentum_mesh()[:, 0]
    sym = _symbol(g, 1.0, 1.0 + k**2, xi_power_order(g, 2))
    a = quantize(sym, 0.5)
    from nelsonlab.operators import hermitian_func

    root = hermitian_func(0.5 * (a + a.conj().T), np.sqrt)
    waves = np.exp(1j * np.outer(g.position_mesh()[:, 0], k)) / np.sqrt(128)
    along = np.real(np.sum(np.conj(waves) * (root @ waves), axis=0))
    target = np.sqrt(1.0 + k**2)
    assert np.max(np.abs(along - target) / target) < 0.05


def test_functional_calculus_rejects_complex_symbol():
    x = G32.position_mesh()[:, 0]
    bad = Symbol(G32, 1j * np.outer(np.cos(x), np.ones(32)))
    with pytest.raises(ValueError, match="must be real"):
        functional_calculus_check(bad, np.sqrt, 0.5, order_m=2.0)


def test_functional_calculus_requires_known_order():
    k = G32.momentum_mesh()[:, 0]
    sym = _symbol(G32, 1.0, 2.0 + k**2, OrderFunction("xi_sq+1", G32.xi_bracket() ** 2 + 1.0))
    with pytest.raises(ValueError, match="order_m"):
        functional_calculus_check(sym, np.sqrt, 0.5)


# -- norm estimators ---------------------------------------------------------------


def test_schur_bound_of_identity_kernel():
    op = quantize(constant_symbol(G32), 0.5)
    assert schur_bound(op) == pytest.approx(1.0, abs=1e-12)
    assert opnorm(op) == pytest.approx(1.0, abs=1e-12)


def test_schur_bound_dominates_spectral_norm():
    rng = np.random.default_rng(31)
    for _ in range(20):
        entries = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        op = entries * G32.weight
        assert schur_bound(op) >= opnorm(op) - 1e-10


def test_cotlar_stein_bound_on_disjoint_unitaries():
    rng = np.random.default_rng(32)
    blocks = []
    total = np.zeros((32, 32), dtype=complex)
    for i in range(4):
        u = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))[0]
        block = np.zeros((32, 32), dtype=complex)
        block[i * 8 : (i + 1) * 8, i * 8 : (i + 1) * 8] = u
        blocks.append(block)
        total += block
    assert cotlar_stein_bound(blocks) == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(total, 2) == pytest.approx(1.0, abs=1e-10)


def test_cotlar_stein_dominates_norm_of_sum():
    rng = np.random.default_rng(33)
    for _ in range(10):
        blocks = [rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)) for _ in range(3)]
        total = sum(blocks)
        assert cotlar_stein_bound(blocks) >= np.linalg.norm(total, 2) - 1e-10


def test_cotlar_stein_empty_list_is_zero():
    assert cotlar_stein_bound([]) == 0.0


# -- symbol metadata -----------------------------------------------------------------


def test_order_function_requires_positive_values():
    with pytest.raises(ValueError, match="positive"):
        OrderFunction("bad", np.array([1.0, 0.0, 1.0]))


def test_random_band_limited_support_and_normalization():
    rng = np.random.default_rng(34)
    sym = random_band_limited(G32, rng, band=5)
    assert np.max(np.abs(sym.values)) == pytest.approx(1.0, abs=1e-12)
    modes = np.fft.fftn(sym.values.reshape(G32.shape * 2))
    signed = np.abs(np.rint(np.fft.fftfreq(32) * 32)).astype(int)
    outside = (signed[:, None] > 5) | (signed[None, :] > 5)
    assert np.max(np.abs(modes[outside])) < 1e-9 * np.max(np.abs(modes))
    real_sym = random_band_limited(G32, rng, real=True)
    assert np.max(np.abs(real_sym.values.imag)) == 0.0
    with pytest.raises(ValueError, match="band"):
        random_band_limited(G32, rng, band=16)


def test_symbol_rejects_non_finite_values():
    vals = np.ones((32, 32), dtype=complex)
    vals[3, 3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        Symbol(G32, vals)


def test_calculus_peak_is_within_its_stated_bytes():
    # the parametrix on the 256-point lattice of the calculus workload, the
    # widest step of psido-calculus, from empty per-grid caches
    grid = Grid(1, 256, 2 * np.pi)
    x, k = grid.position_mesh()[:, 0], grid.momentum_mesh()[:, 0]
    sym = Symbol(grid, np.outer(1.0 + 0.3 * np.sin(x), 1.0 + k**2), xi_power_order(grid, 2))
    for table in (_axis_components, _target_index, _translation_phase, _column_table, _chi_mesh, _reordering_phase):
        table.cache_clear()
    tracemalloc.start()
    try:
        parametrix(sym, 1.0, iterations=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= calculus_peak_bytes(grid.size, 0) <= 4 * peak


def test_symbol_refuses_table_past_dense_guard():
    # the guard fires before the values are read, so no 8192 x 8192 table
    # exists; the calculus on it would hold 16 such complex tables
    with pytest.raises(SizeError, match="symbol calculus would hold 17179869184 bytes"):
        Symbol(Grid(1, 8192, 2 * np.pi), np.ones((1, 1)))
    with pytest.raises(SizeError, match="symbol calculus would hold 68719476736 bytes"):
        Symbol(Grid(2, 128, 2 * np.pi), np.ones((1, 1)))


# -- two-dimensional smoke -----------------------------------------------------------


def test_calculus_identities_in_two_dimensions():
    g = Grid(2, 4, 2 * np.pi)
    rng = np.random.default_rng(35)
    a = _rand_symbol(g, rng)
    b = _rand_symbol(g, rng)
    for t in ORDERINGS:
        qa = quantize(a, t)
        np.testing.assert_allclose(dequantize(g, qa, t).values, a.values, atol=1e-12)
        assert np.max(np.abs(quantize(moyal(a, b, t), t) - qa @ quantize(b, t))) < 1e-10
        assert np.max(np.abs(quantize(adjoint_symbol(a, t), t) - qa.conj().T)) < 1e-10
    np.testing.assert_allclose(quantize(constant_symbol(g), 0.5), np.eye(g.size), atol=1e-12)
