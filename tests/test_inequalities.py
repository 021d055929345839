import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nelsonlab.grid import Grid, gaussian_profile_hat
from nelsonlab.inequalities import (
    DomainError,
    PreconditionError,
    QuadratureError,
    RadialProfile,
    ScalingError,
    diagonal_divergence_demo,
    hardy_littlewood_check,
    integral_3d,
    integral_estimate_check,
    lattice_profile,
    log_fit,
    offset_decay_check,
    peetre_check,
    rearrange,
    subtracted_kernel,
    _adaptive_quad,
    _radial_quad,
    vacuum_energy_quadrature,
)

GRID = Grid(1, 128, 32.0)
SMALL = Grid(1, 16, 8.0)

# Frozen quadrature references (independent oracle, quad tolerance 1e-6).
PROP_R0 = {1.0: 0.523599, 2.0: 0.261799, 4.0: 0.130900, 8.0: 0.065450}
PROP_R1 = {1.0: 0.436332, 2.0: 0.245639, 4.0: 0.128456, 8.0: 0.065121}
CUTOFF_PREFACTORS = [0.33628585, 0.15855297, 0.05228344, 0.01454629]
DECAY_I = [6.542648, 3.568951, 1.860886, 0.949676, 0.479654]
DECAY_SLOPE = -0.9450
DECAY_PROXY = [23.98, 18.21, 6.65]
DEMO_UNSUB = [0.0048601, 0.0069463, 0.0091045, 0.0112877, 0.0134789]
DEMO_SUB = [-0.0009716, -0.0010263, -0.0010460, -0.0010525, -0.0010546]


def signed_positions(grid):
    half = 0.5 * grid.box
    return np.mod(grid.axis_positions() + half, grid.box) - half


nonneg_16 = st.lists(
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    min_size=16,
    max_size=16,
)
point_3d = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    min_size=3,
    max_size=3,
)


# -- rearrangement


@given(nonneg_16)
def test_rearrange_idempotent_and_equimeasurable(vals):
    prof = rearrange(lattice_profile(SMALL, vals))
    assert rearrange(prof) is prof
    assert np.all(np.diff(prof.values) <= 0.0)
    assert np.array_equal(np.sort(prof.values), np.sort(np.asarray(vals)))


@given(nonneg_16, nonneg_16)
def test_rearrange_order_preserving(base, bump):
    lo = np.asarray(base)
    hi = lo + np.asarray(bump)
    p_lo = rearrange(lattice_profile(SMALL, lo))
    p_hi = rearrange(lattice_profile(SMALL, hi))
    assert np.all(p_lo.values <= p_hi.values)


def test_rearrange_fixes_nonincreasing_profile():
    prof = RadialProfile(np.array([1.0, 2.0, 3.0]), np.array([3.0, 1.0, 1.0]), d=3)
    assert rearrange(prof) is prof


def test_rearrange_matches_closed_form_on_lattice():
    absx = np.abs(signed_positions(GRID))
    f = np.where(absx > 1.0, np.maximum(absx, 1.0) ** -1.5, 0.0)
    prof = rearrange(lattice_profile(GRID, f))
    h = GRID.spacing
    radii = np.sort(absx, kind="stable")
    closed = (radii + 1.0) ** -1.5
    local = np.maximum(
        np.abs((radii + h + 1.0) ** -1.5 - closed),
        np.abs((np.maximum(radii - h, 0.0) + 1.0) ** -1.5 - closed),
    )
    # the cut level set must fit inside the box
    mask = radii + 1.0 <= 0.5 * GRID.box - h
    assert int(mask.sum()) == 119
    dev = np.abs(prof.values - closed)
    assert np.all(dev[mask] <= 2.0 * local[mask] + 1e-12)


def test_rearrange_matches_closed_form_radial_3d():
    # cutoff aligned with a shell boundary makes the comparison exact
    radii = np.arange(1, 129) / 16.0
    prof = RadialProfile(radii, np.where(radii > 1.0, radii**-1.5, 0.0), d=3)
    star = rearrange(prof)
    support = star.values > 0.0
    closed = (star.radii[support] ** 3 + 1.0) ** -0.5
    assert np.max(np.abs(star.values[support] - closed)) < 1e-12


def test_rearrange_translate_of_symmetric_bump():
    xs = signed_positions(GRID)
    centered = np.exp(-0.5 * xs**2)
    shifted = np.roll(centered, 37)
    p0 = rearrange(lattice_profile(GRID, centered))
    p1 = rearrange(lattice_profile(GRID, shifted))
    assert np.array_equal(p0.values, p1.values)
    assert np.array_equal(p0.radii, p1.radii)


def test_rearrange_rejects_bad_input():
    vals = np.ones(GRID.size)
    vals[5] = -0.25
    with pytest.raises(DomainError, match="negative value"):
        rearrange(lattice_profile(GRID, vals))
    with pytest.raises(DomainError, match="real"):
        lattice_profile(GRID, np.full(GRID.size, 1.0 + 1.0j))
    with pytest.raises(DomainError, match="flat of length"):
        lattice_profile(GRID, np.ones(SMALL.size))
    with pytest.raises(DomainError, match="increasing"):
        RadialProfile(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(DomainError, match="dimension"):
        RadialProfile(np.array([1.0]), np.array([1.0]), d=2)


# -- Hardy-Littlewood


def test_hardy_littlewood_constant_and_equal_inputs():
    rng = np.random.default_rng(7)
    f = rng.random(GRID.size)
    g = np.full(GRID.size, 0.75)
    lhs, rhs = hardy_littlewood_check(GRID, f, g)
    assert abs(lhs - rhs) < 1e-12
    lhs, rhs = hardy_littlewood_check(GRID, f, f)
    assert abs(lhs - rhs) < 1e-12


def test_hardy_littlewood_fuzz_campaign():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        f = rng.random(GRID.size)
        g = rng.random(GRID.size)
        lhs, rhs = hardy_littlewood_check(GRID, f, g)
        assert lhs <= rhs + 1e-12


@given(nonneg_16, nonneg_16)
def test_hardy_littlewood_property(a, b):
    lhs, rhs = hardy_littlewood_check(SMALL, a, b)
    assert lhs <= rhs + 1e-12 * max(1.0, rhs)


def test_hardy_littlewood_rejects_mismatched_grids():
    # a function sampled on SMALL does not fit the points of GRID
    with pytest.raises(DomainError, match="flat of length"):
        hardy_littlewood_check(GRID, np.ones(GRID.size), np.ones(SMALL.size))


def test_hardy_littlewood_refuses_what_lattice_profile_refuses():
    negative = np.ones(GRID.size)
    negative[5] = -0.25
    for bad, match in ((negative, "negative value"), (np.full(GRID.size, 1.0 + 1.0j), "real")):
        with pytest.raises(DomainError, match=match):
            lattice_profile(GRID, bad)
        with pytest.raises(DomainError, match=match):
            hardy_littlewood_check(GRID, np.ones(GRID.size), bad)
    plane = Grid(2, 4, 2 * np.pi)
    with pytest.raises(DomainError, match="dim 1"):
        hardy_littlewood_check(plane, np.ones(plane.size), np.ones(plane.size))


# -- Peetre


def test_peetre_trivial_cases():
    x = np.array([[[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]])
    assert peetre_check([2.5, 0.0], x) == [0, 0]


def test_peetre_fuzz_campaign():
    rng = np.random.default_rng(5)
    samples = rng.normal(scale=4.0, size=(10**5, 2, 3))
    assert peetre_check((-4.0, -1.5, 0.5, 4.0), samples) == [0, 0, 0, 0]


@given(point_3d, point_3d, st.floats(min_value=-4.0, max_value=4.0))
def test_peetre_property(x, y, t):
    assert peetre_check([t], np.array([[x, y]])) == [0]


def test_peetre_rejects_bad_shape():
    with pytest.raises(DomainError, match="shape"):
        peetre_check([1.0], np.ones((4, 3)))


# -- weighted integral estimates


def test_omega_scaling_at_origin_matches_exact_value():
    for om, want in PROP_R0.items():
        value, bound = integral_estimate_check(0, 0, 4, 1, 0.0, om, 0.0, 0.0)
        assert abs(value - want) < 1e-5
        assert abs(value - np.pi / (6.0 * om)) < 1e-6
        assert value <= bound + 1e-12


def test_omega_scaling_off_origin_within_band():
    vals = {}
    for om in (1.0, 2.0, 4.0, 8.0):
        value, bound = integral_estimate_check(0, 0, 4, 1, 0.0, om, 1.0, 0.05)
        vals[om] = value
        assert abs(value - PROP_R1[om]) < 1e-5
        assert value <= bound + 1e-12
    for om in (1.0, 2.0, 4.0):
        ratio = vals[2.0 * om] / vals[om]
        assert 0.425 <= ratio <= 0.575


def test_scaling_guard_trips_without_slack():
    with pytest.raises(ScalingError, match="omega-scaling"):
        integral_estimate_check(0, 0, 4, 1, 0.0, 1.0, 1.0, 0.0)


def test_cutoff_suppresses_integral():
    bare, _ = integral_estimate_check(0, 0, 4, 1, 0.0, 1.0, 1.0, 0.05)
    cut, _ = integral_estimate_check(0, 0, 4, 1, 1.0, 1.0, 1.0, 0.05)
    assert cut < bare


def test_prefactor_decreases_along_cutoff_sweep():
    values = []
    for lam in (1.0, 4.0, 16.0, 64.0):
        value, bound = integral_estimate_check(0, 0, 4, 1, lam, 1.0, 1.0, 0.05)
        values.append(value)
        assert value <= bound + 1e-12
    assert np.max(np.abs(np.array(values) - CUTOFF_PREFACTORS)) < 1e-6
    assert values == sorted(values, reverse=True)


def test_estimate_preconditions():
    with pytest.raises(PreconditionError, match="window"):
        integral_estimate_check(0, 0, 1, 1, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(PreconditionError, match="omega"):
        integral_estimate_check(0, 0, 4, 1, 0.0, 0.0, 0.0, 0.0)
    # |Xi - xi'|^-sigma leaves |r - xi|^(2 - sigma) at r = xi, resolved for sigma <= 2.8
    integral_estimate_check(0, 2.8, 4, 1, 4.0, 1.0, 1.0, 0.05)
    with pytest.raises(PreconditionError, match="radial powers"):
        integral_estimate_check(0, 2.85, 4, 1, 4.0, 1.0, 1.0, 0.05)


def test_offset_decay_table():
    table = offset_decay_check(2.0, [4.0, 8.0, 16.0, 32.0, 64.0], 0.0)
    assert np.max(np.abs(table["integral"] - np.array(DECAY_I))) < 1e-5
    assert np.all(np.isfinite(table["integral"]))
    assert abs(table["slope"] - DECAY_SLOPE) < 1e-3
    assert table["slope"] <= table["decay_exponent"] + 0.1
    assert table["decay_exponent"] == -(2.0 - 1.0 - 0.05)


def test_offset_prefactor_decreases_with_cutoff():
    proxies = [offset_decay_check(2.0, [8.0], lam)["prefactor"] for lam in (1.0, 4.0, 16.0)]
    assert np.max(np.abs(np.array(proxies) - DECAY_PROXY)) < 1e-2
    assert proxies == sorted(proxies, reverse=True)
    assert np.isnan(offset_decay_check(2.0, [8.0], 0.0)["slope"])


def test_offset_decay_preconditions():
    for nu in (1.0, 3.0, 0.5):
        with pytest.raises(PreconditionError, match="nu"):
            offset_decay_check(nu, [4.0], 0.0)
    # within 0.04 of the window the radial powers pass what the quadrature resolves
    for nu, lam in ((1.03, 0.0), (1.03, 4.0), (2.97, 0.0)):
        with pytest.raises(PreconditionError, match="radial powers"):
            offset_decay_check(nu, [4.0], lam)
    with pytest.raises(PreconditionError, match="sweep"):
        offset_decay_check(2.0, [-1.0], 0.0)


def test_quadrature_tolerance_convergence():
    def F(r, s):
        return 1.0 / (r + s + 1.0) ** 4

    coarse = integral_3d(F, 1.0, tol=1e-6)
    fine = integral_3d(F, 1.0, tol=5e-7)
    assert abs(coarse - fine) < 5e-7


def test_estimate_at_the_origin_is_the_closed_form():
    # at xi = 0 the integral is 4 pi int r^2 / (2r + omega)^4 dr = pi / (6 omega)
    for om in (0.25, 1.0, 2.0, 3.7, 8.0, 100.0):
        value, _ = integral_estimate_check(0, 0, 4, 1, 0.0, om, 0.0, 0.0)
        assert value == pytest.approx(np.pi / (6.0 * om), rel=1e-12, abs=0.0)


def test_radial_quad_sums_panels_and_tails_per_row():
    # int_0^inf dr / (c^2 + r^2) = pi / (2 c), two rows split at different edges in one batch
    c = np.array([1.0, 2.0])

    def rad(r0, dr, k):
        return 1.0 / (c[k] ** 2 + (r0 + dr) ** 2)

    got = _radial_quad(rad, [[0.0, 1.0, 2.0], [0.0, 2.5, 3.5]], tol=1e-8)
    np.testing.assert_allclose(got, np.pi / (2.0 * c), rtol=1e-14)


def test_radial_quad_maps_singular_edges_away():
    # int_0^1 r^-0.96 dr + int_1^inf r^-1.04 dr = 25 + 25
    def ends(r0, dr, _):
        r = r0 + dr
        return np.where(r < 1.0, r, 1.0) ** -0.96 * np.where(r > 1.0, r, 1.0) ** -1.04

    assert _radial_quad(ends, [0.0, 1.0], powers=[-0.96, 0.0, -1.04])[0] == pytest.approx(50.0, rel=1e-12)

    # int_0^2 |r - 1|^-0.8 dr = 10, the distance to the singular edge exact in dr
    def inner(r0, dr, _):
        r = r0 + dr
        return np.where(r < 2.0, np.abs(np.where(r0 == 1.0, dr, r - 1.0)), np.inf) ** -0.8

    assert _radial_quad(inner, [0.0, 1.0, 2.0], powers=[0.0, -0.8, 0.0, -2.0])[0] == pytest.approx(10.0, rel=1e-12)


def test_adaptive_quad_raises_at_its_round_cap():
    # the halves of the panel at 0 never agree on 1/x
    with pytest.raises(QuadratureError, match="1 panels still above the target 1e-11 after 100 bisection rounds"):
        _adaptive_quad(lambda x, _: 1.0 / x, [0.0], [1.0], [0], 1)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")])
def test_adaptive_quad_refuses_a_tolerance_no_panel_can_meet(tol):
    # a nan or negative target was never met, and the open panels doubled every round
    def integrand(x, _):
        raise AssertionError("integrated past the refusal")

    with pytest.raises(ValueError, match="finite and positive"):
        _adaptive_quad(integrand, [0.0], [1.0], [0], 1, tol)


# -- scipy.integrate.quad as the oracle; the library itself never imports scipy

_QUAD = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 500}


def _quad_radial(f, edges):
    """int_0^inf f(r) dr by QUADPACK, split at ``edges``.

    The tail is integrated in units of its start a = edges[-1]: QAGI maps
    [1, inf) to (0, 1] at unit scale, so a decay on the scale of a (a
    Gaussian cutoff at a) stays resolved instead of crowding next to 0.
    """
    from scipy.integrate import quad

    pieces = [quad(f, a, b, **_QUAD)[0] for a, b in zip(edges[:-1], edges[1:])]
    start = edges[-1]
    return sum(pieces) + start * quad(lambda u: f(start * u), 1.0, np.inf, **_QUAD)[0]


def _quad_integral_3d(F, R, splits=()):
    """The (r, s) reduction of ``integral_3d``, nested QUADPACK calls on scalars."""
    from scipy.integrate import quad

    if R == 0.0:
        edge = 4.0 * max(splits) if splits else 16.0
        return _quad_radial(lambda r: 4.0 * np.pi * r * r * F(r, r), sorted({0.0, *splits, edge}))

    def rad(r):
        # s = lo + width * u: hi - lo would lose the width 2 min(r, R) to roundoff at r >> R
        lo, width = abs(r - R), 2.0 * min(r, R)
        cuts = sorted((p - lo) / width for p in (R / 2.0, R) if 0.0 < p - lo < width)
        return sum(
            quad(lambda u: 2.0 * np.pi * r * (width / R) * (lo + width * u) * F(r, lo + width * u), a, b, **_QUAD)[0]
            for a, b in zip([0.0, *cuts], [*cuts, 1.0])
        )

    return _quad_radial(rad, sorted({0.0, R / 2.0, R, 2.0 * R, *splits}))


def _high_pass(lam):
    return (lambda r: 1.0) if lam == 0.0 else (lambda r: 1.0 - gaussian_profile_hat(r / lam))


cutoffs = st.just(0.0) | st.floats(min_value=0.5, max_value=64.0)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.floats(min_value=0.1, max_value=20.0), st.just(0.0) | st.floats(min_value=1e-3, max_value=16.0), cutoffs)
def test_integral_3d_matches_quadpack(omega, xi, lam):
    zeta = _high_pass(lam)

    def F(r, s):
        return zeta(r) / (r + s + omega) ** 4

    splits = (lam,) if lam > 0.0 else ()
    assert integral_3d(F, xi, split_extra=splits) == pytest.approx(_quad_integral_3d(F, xi, splits), rel=1e-10)


def test_integral_3d_is_continuous_at_the_origin():
    # at |Xi| far below roundoff of r the inner interval keeps its width 2 min(r, R)
    def F(r, s):
        return 1.0 / (r + s + 1.0) ** 4

    at_zero = integral_3d(F, 0.0)
    for R in (1e-300, 1e-12, 1e-8):
        assert integral_3d(F, R) == pytest.approx(at_zero, rel=1e-12)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.floats(min_value=0.25, max_value=64.0), cutoffs)
def test_offset_decay_matches_quadpack(xi, lam):
    zeta = _high_pass(lam)

    def F(r, s):
        return zeta(r) * r**-2.0 / (s * s + 1.0)

    want = _quad_integral_3d(F, xi, (lam,) if lam > 0.0 else ())
    assert offset_decay_check(2.0, [xi], lam)["integral"][0] == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("nu", [1.05, 1.3, 2.7, 2.95])
def test_offset_decay_across_the_window_matches_quadpack(nu):
    # r^(2 - nu) at 0 and r^-nu at inf, which bisection alone resolves only near nu = 2
    xis = [0.5, 4.0]
    for lam in (0.0, 4.0):
        zeta = _high_pass(lam)

        def F(r, s):
            return zeta(r) * r**-nu / (s * s + 1.0)

        want = [_quad_integral_3d(F, xi, (lam,) if lam > 0.0 else ()) for xi in xis]
        np.testing.assert_allclose(offset_decay_check(nu, xis, lam)["integral"], want, rtol=1e-10)


@pytest.mark.parametrize("nu, sigma", [(1.5, 1.4), (0.0, 2.9), (2.9, 0.0)])
def test_estimate_near_the_window_matches_quadpack(nu, sigma):
    # at xi = 0 the radial integrand behaves like r^(2 - nu - sigma) = r^-0.9 at 0
    for lam in (0.0, 4.0):
        zeta = _high_pass(lam)

        def F(r, s):
            return zeta(r) * r**-nu * s**-sigma / (2.0 * r + 1.0) ** 4

        want = _quad_integral_3d(F, 0.0, (lam,) if lam > 0.0 else ())
        assert integral_estimate_check(nu, sigma, 4, 1, lam, 1.0, 0.0, 0.05)[0] == pytest.approx(want, rel=1e-10)


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.floats(min_value=0.5, max_value=128.0), st.floats(min_value=0.25, max_value=16.0))
def test_radial_sweeps_match_quadpack(lam, g_const):
    lams = np.array([lam, 2.0 * lam])
    demo = diagonal_divergence_demo(lams, g_const=g_const)
    prefactor = 0.5 * (2.0 * np.pi) ** -3 * 4.0 * np.pi
    for column, kernel, sign in (("unsubtracted", lambda h0: 1.0 / (h0 + 1.0), 1.0), ("subtracted", subtracted_kernel, -1.0)):
        for cut, got in zip(lams, demo[column]):

            def f(r):
                h0 = g_const * r * r
                return (h0 + 1.0) ** -0.5 * kernel(h0) * gaussian_profile_hat(r / cut) ** 2 * r * r

            assert got == pytest.approx(sign * prefactor * _quad_radial(f, [0.0, cut]), rel=1e-10)
    for d, sphere in ((1, 2.0), (3, 4.0 * np.pi)):

        def e(r):
            return (r * r + 1.0) ** -1.5 * gaussian_profile_hat(r / lam) ** 2 * r ** (d - 1)

        want = 0.5 * (2.0 * np.pi) ** -d * sphere * _quad_radial(e, [0.0, lam])
        assert vacuum_energy_quadrature([lam], d)[0] == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("d, g_const", [(3, 1.0), (1, 1.0), (3, 4.0)])
def test_vacuum_energy_quadrature_batch_is_bitwise_its_single_cutoffs(d, g_const):
    lams = [4.0, 8.0, 16.0, 32.0, 64.0]
    single = [vacuum_energy_quadrature([lam], d, g_const)[0] for lam in lams]
    assert np.array_equal(vacuum_energy_quadrature(lams, d, g_const), single)


# -- diagonal divergence demo


def test_diagonal_divergence_demo_columns():
    demo = diagonal_divergence_demo()
    assert np.max(np.abs(demo["unsubtracted"] - np.array(DEMO_UNSUB))) < 1e-6
    assert np.max(np.abs(demo["subtracted"] - np.array(DEMO_SUB))) < 1e-6
    assert np.all(np.diff(demo["unsubtracted"]) > 0.0)
    assert demo["log_r_squared"] >= 0.99
    assert demo["variation"] < 0.10
    sub = demo["subtracted"]
    assert abs(sub[-1] - sub[2]) / abs(sub[2]) < 0.10


def test_log_fit_recovers_slope_and_perfect_fit():
    xs = [4.0, 8.0, 16.0, 32.0]
    slope, r_squared = log_fit(xs, 3.0 * np.log(xs) + 1.0)
    assert slope == pytest.approx(3.0, abs=1e-12)
    assert r_squared == pytest.approx(1.0, abs=1e-12)


def test_diagonal_demo_needs_a_sweep():
    with pytest.raises(PreconditionError, match="sweep"):
        diagonal_divergence_demo(lams=[4.0])


@given(st.floats(min_value=0.0, max_value=1e9, allow_nan=False))
def test_subtracted_kernel_cancellation(h0):
    # the difference cancels to (h0 + 1)^-2, so round-off scales with the terms
    assert abs(subtracted_kernel(h0) - (h0 + 1.0) ** -2) <= 1e-15 / (h0 + 1.0)
