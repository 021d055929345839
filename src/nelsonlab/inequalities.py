"""Rearrangement inequalities and weighted singular-integral estimates.

Symmetric decreasing rearrangement is represented through radial step
profiles: ``radii[i]`` is the outer boundary of the i-th spherical shell,
``values[i]`` the function value on it.  Shell volumes are then exactly
recoverable from the radii, and rearranging acts by permuting the pairs
(value, volume) into non-increasing value order and re-deriving the radii
from cumulative volume.  A nonnegative function on a one-dimensional
periodic lattice enters by ordering its cells by distance to the origin
(``lattice_profile``).

The integral estimates target kernels F(|xi|, |Xi - xi|) on R^3: the
integrals reduce to an (r, s) double quadrature with measure 2*pi*r*s/|Xi|
on the inner variable, split at the singular radii and at the cutoff scale,
with integrable powers at the singular radii and a power-law tail mapped
away on (0, 1].  Every radial integral of the package runs on one vectorised
adaptive Gauss-Legendre rule (``_adaptive_quad``) to the absolute target
tol * 1e-5 per panel, on numpy alone.  Reported values are deterministic
for a fixed tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .grid import Grid, gaussian_profile_hat

TWO_PI = 2.0 * np.pi

# volume of the unit ball, indexed by dimension
_UNIT_BALL = {1: 2.0, 3: 4.0 * np.pi / 3.0}


class DomainError(ValueError):
    """Input data leaves the admissible domain (sign, shape, or grid)."""


class PreconditionError(ValueError):
    """Estimate exponents fall outside their convergence window."""


class ScalingError(ValueError):
    """A computed integral violates its predicted homogeneity in omega."""


@dataclass(frozen=True)
class RadialProfile:
    """Radial step function on R^d given by shell boundaries and values."""

    radii: np.ndarray
    values: np.ndarray
    d: int = 1

    def __post_init__(self) -> None:
        radii = np.asarray(self.radii, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)
        if self.d not in _UNIT_BALL:
            raise DomainError(f"dimension must be 1 or 3, got {self.d}")
        if radii.ndim != 1 or radii.shape != values.shape:
            raise DomainError(
                f"radii and values must be flat and matched, got {radii.shape} vs {values.shape}"
            )
        if radii.size == 0:
            raise DomainError("profile needs at least one shell")
        if not np.all(np.isfinite(radii)) or not np.all(np.isfinite(values)):
            raise DomainError("profile data must be finite")
        if radii[0] <= 0.0 or np.any(np.diff(radii) <= 0.0):
            raise DomainError("outer radii must be positive and strictly increasing")
        if np.any(values < 0.0):
            worst = int(np.argmin(values))
            raise DomainError(
                f"negative value {values[worst]:.6g} on the shell at radius {radii[worst]:.6g}"
            )

    @property
    def shell_volumes(self) -> np.ndarray:
        balls = _UNIT_BALL[self.d] * self.radii**self.d
        return np.diff(balls, prepend=0.0)


def _lattice_values(grid: Grid, values) -> np.ndarray:
    """The real parts of flat, real, nonnegative values on a one-dimensional
    lattice; anything else is refused."""
    if grid.dim != 1:
        raise DomainError(f"lattice rearrangement needs dim 1, got dim {grid.dim}")
    values = np.asarray(values)
    if values.shape != (grid.size,):
        raise DomainError(f"values must be flat of length {grid.size}, got {values.shape}")
    if not np.max(np.abs(values.imag)) <= 1e-10:
        raise DomainError("lattice values must be real")
    vals = values.real
    if np.any(vals < 0.0):
        worst = int(np.argmin(vals))
        raise DomainError(
            f"negative value {vals[worst]:.6g} at lattice point {grid.axis_positions()[worst]:.6g}"
        )
    return vals


def lattice_profile(grid: Grid, values) -> RadialProfile:
    """Radial profile of a function on a one-dimensional lattice: its flat
    values ordered by the distance |x| of their cells to the origin."""
    vals = _lattice_values(grid, values)
    half = 0.5 * grid.box
    signed = np.mod(grid.axis_positions() + half, grid.box) - half
    order = np.argsort(np.abs(signed), kind="stable")
    cumulative = np.arange(1, grid.size + 1) * grid.weight
    return RadialProfile(cumulative / _UNIT_BALL[1], vals[order], d=1)


def rearrange(profile: RadialProfile) -> RadialProfile:
    """Symmetric decreasing rearrangement as a radial step profile.

    Already non-increasing profiles are returned unchanged, so the map is
    exactly idempotent.  A profile from ``lattice_profile`` has equal cell
    volumes, so the result's values are an exact permutation of the
    lattice values.
    """
    if np.all(np.diff(profile.values) <= 0.0):
        return profile
    order = np.argsort(-profile.values, kind="stable")
    cumulative = np.cumsum(profile.shell_volumes[order])
    radii = (cumulative / _UNIT_BALL[profile.d]) ** (1.0 / profile.d)
    return RadialProfile(radii, profile.values[order], d=profile.d)


def hardy_littlewood_check(grid: Grid, f, g) -> tuple[float, float]:
    """Return (int f g, int f* g*) for nonnegative functions on a lattice.

    The lattice cells have equal volumes, so f* g* pairs the values of f and
    g sorted alike: no radial profile is needed."""
    vf = _lattice_values(grid, f)
    vg = _lattice_values(grid, g)
    lhs = grid.weight * float(vf @ vg)
    rhs = grid.weight * float(np.sort(vf)[::-1] @ np.sort(vg)[::-1])
    return lhs, rhs


def peetre_check(ts, samples: np.ndarray) -> list[int]:
    """Count violations of <x>^t <= 2^|t| <y>^t <x-y>^|t| over sample pairs, one count per t of ``ts``.

    ``samples`` has shape (n, 2, d) holding the pairs (x, y).  The brackets
    <x>, <y> and <x-y> are evaluated once for all t.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 3 or samples.shape[1] != 2:
        raise DomainError(f"samples must have shape (n, 2, d), got {samples.shape}")
    # one contiguous row per coordinate, so each bracket sums d rows
    x, y = np.ascontiguousarray(samples.transpose(1, 2, 0))

    def bracket(z: np.ndarray) -> np.ndarray:
        return np.sqrt(1.0 + np.sum(z * z, axis=0))

    bx, by, bxy = bracket(x), bracket(y), bracket(x - y)
    counts = []
    for t in ts:
        rhs = 2.0 ** abs(t) * by**t * bxy ** abs(t)
        counts.append(int(np.sum(bx**t > rhs * (1.0 + 1e-12))))
    return counts


class QuadratureError(ArithmeticError):
    """An adaptive quadrature left panels unconverged after its bisection cap."""


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 10-point Gauss-Legendre nodes and weights on [-1, 1], on first use:
    ``numpy.polynomial`` is loaded only by the runs that integrate."""
    return np.polynomial.legendre.leggauss(10)


_MAX_ROUNDS = 100
# quadrature tolerance -> absolute target per panel; QUADPACK ran these
# integrands to about 1e-12 relative, and the reference cells keep those digits
_ATOL_PER_TOL = 1e-5


def _adaptive_quad(f, lo, hi, owner, size: int, tol: float = 1e-6) -> np.ndarray:
    """Per-owner sums of int_lo^hi f(x, owner) dx over a batch of finite panels.

    ``f`` takes the nodes, shape (m, n), and the owner of each row, shape
    (m, 1), and returns the integrand there.  Every round compares each
    panel's Gauss-Legendre value with the sum over its two halves: a panel
    whose values agree to tol * _ATOL_PER_TOL, or to the roundoff of
    int |f|, adds the halves to its owner's total, the others are bisected.
    Panels left after ``_MAX_ROUNDS`` rounds raise ``QuadratureError``; a
    ``tol`` that is not finite and positive raises ``ValueError`` before the
    first round, since no panel could meet its target.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"quadrature tolerance must be finite and positive, got {tol}")
    atol = tol * _ATOL_PER_TOL
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    owner = np.asarray(owner, dtype=np.intp)

    nodes, weights = _gauss_legendre()

    def sums(a, b, owner):
        half = 0.5 * (b - a)[:, None]
        vals = f(0.5 * (a + b)[:, None] + half * nodes, owner[:, None]) * half
        return vals @ weights, np.abs(vals) @ weights

    total = np.zeros(size)
    whole = sums(lo, hi, owner)[0]
    for _ in range(_MAX_ROUNDS):
        mid = 0.5 * (lo + hi)
        halves, mass = sums(np.concatenate((lo, mid)), np.concatenate((mid, hi)), np.concatenate((owner, owner)))
        left, right = np.split(halves, 2)
        value = left + right
        done = np.abs(value - whole) <= np.maximum(atol, 64.0 * np.finfo(float).eps * np.sum(np.split(mass, 2), axis=0))
        total += np.bincount(owner[done], weights=value[done], minlength=size)
        open_ = ~done
        if not open_.any():
            return total
        lo, hi = np.concatenate((lo[open_], mid[open_])), np.concatenate((mid[open_], hi[open_]))
        whole = np.concatenate((left[open_], right[open_]))
        owner = np.concatenate((owner[open_], owner[open_]))
    raise QuadratureError(
        f"{int(open_.sum())} panels still above the target {atol:.3g} after {_MAX_ROUNDS} bisection rounds"
    )


def _radial_quad(rad, edges, tol: float = 1e-6, powers=None) -> np.ndarray:
    """int_0^inf rad dr for each row k of ``edges``, one batch.

    rad(r0, dr, k) is the integrand at r = r0 + dr, where r0 is the anchor
    of the node's panel, shape (m, 1), and dr its offset from it, exact
    however close r comes to a singular edge.  A row 0 = e_0 < e_1 < ... <
    e_last splits [0, inf) into panels and the tail beyond e_last.
    ``powers`` holds, for every column j, the power of |r - e_j| in rad near
    e_j and last the power of r as r -> inf; the default is a bounded
    integrand decaying like r^-2.  A panel whose end e_j has a power p < 0
    runs in u = (|r - e_j| / width)^(p + 1) and the tail in
    u = (r - e_last + 1)^(q + 1) with q = max(power at inf, -2), both over
    (0, 1]: an integrable singularity or a tail slower than r^-2 cancels
    against the Jacobian and leaves a bounded integrand.  No two singular
    edges may be adjacent.
    """
    edges = np.atleast_2d(np.asarray(edges, dtype=float))
    rows, n = edges.shape
    powers = np.append(np.zeros(n), -2.0) if powers is None else np.asarray(powers, dtype=float)
    at_right = powers[1:-1] < 0.0
    # every panel maps u in (0, 1] to r = anchor + scale * u^power - lift; the
    # tail last, from its anchor e_last on the unit scale
    left, right = edges[:, :-1], edges[:, 1:]
    anchor = np.column_stack((np.where(at_right, right, left), edges[:, -1])).ravel()
    scale = np.column_stack((np.where(at_right, left - right, right - left), np.ones(rows))).ravel()
    lift = np.tile(np.append(np.zeros(n - 1), 1.0), rows)
    end_power = np.append(np.minimum(np.where(at_right, powers[1:-1], powers[:-2]), 0.0), max(powers[-1], -2.0))
    power = np.tile(1.0 / (end_power + 1.0), rows)
    panel_row = np.repeat(np.arange(rows), n)

    def mapped(u, k):
        w = scale[k] * u ** power[k]
        return rad(anchor[k], w - lift[k], panel_row[k]) * (np.abs(power[k] * w) / u)

    per_panel = _adaptive_quad(mapped, np.zeros(power.size), np.ones(power.size), np.arange(power.size), power.size, tol)
    return np.bincount(panel_row, weights=per_panel, minlength=rows)


def integral_3d(F, R: float, split_extra=(), tol: float = 1e-6, powers=(0.0, 0.0, -2.0)) -> float:
    """int_{R^3} F(|xi|, |Xi - xi|) dxi with |Xi| = R.

    ``F`` must take arrays of r and s and return the array of its values:
    every quadrature node of a round enters in one call.  In the coordinates
    (r, s) = (|xi|, |Xi - xi|) the inner integral runs over s in
    [|r - R|, r + R] with measure 2*pi*r*s/R (R > 0), split at R/2 and R; at
    R = 0 the integrand is 4*pi*r^2 F(r, r).  The radial integral splits at
    R/2, R, 2R and any extra points.  ``powers`` are those of the radial
    integrand, about 4*pi*r^2 F, in r as r -> 0, in |r - R| as r -> R and in
    r as r -> inf; negative ones are mapped away (``_radial_quad``).  Each
    batch of outer nodes r takes its inner integrals as one batch of panels.

    Closer to -1 than the maps resolve in double precision, the powers raise
    ``PreconditionError``: within 0.04 at 0 and at inf, where the maps place
    nodes at radii whose squares overflow, and within 0.2 at R, where the
    inner integrals would need more bisection rounds than the cap.
    """
    at_zero, at_R, at_inf = powers
    if at_zero < -0.96 or at_inf > -1.04 or (R > 0.0 and at_R < -0.8):
        raise PreconditionError(
            f"radial powers {at_zero:.4g} at 0, {at_R:.4g} at R and {at_inf:.4g} at inf "
            "need at least -0.96, -0.8 and at most -1.04"
        )
    if R == 0.0:

        def rad(r0, dr, _):
            r = r0 + dr
            return 4.0 * np.pi * r * r * F(r, r)

        pts = sorted(p for p in split_extra if p > 0)
        edges = [0.0] + pts + [4.0 * pts[-1] if pts else 16.0]
        return float(_radial_quad(rad, edges, tol, [at_zero] + [0.0] * (len(edges) - 1) + [at_inf])[0])

    def rad(r0, dr, _):
        # s = lo + width * u over u in [0, 1], split where s passes R/2 and R; the
        # width 2 min(r, R) is exact where hi - lo would cancel (r << R), and lo
        # is the exact offset on the panels anchored at R
        r = r0 + dr
        flat = r.ravel()
        lo, width = np.abs(np.where(r0 == R, dr, r - R)).ravel(), 2.0 * np.minimum(flat, R)
        cuts = np.clip(R / 2.0 - lo, 0.0, width) / width, np.clip(R - lo, 0.0, width) / width
        a, b = np.concatenate((np.zeros(flat.size), *cuts)), np.concatenate((*cuts, np.ones(flat.size)))
        owner = np.tile(np.arange(flat.size), 3)
        keep = b > a

        scale = TWO_PI * flat * (width / R)  # width / R <= 2, also as R -> 0

        def ang(u, k):
            rk, s = flat[k], lo[k] + width[k] * u
            return scale[k] * s * F(rk, s)

        return _adaptive_quad(ang, a[keep], b[keep], owner[keep], flat.size, tol).reshape(r.shape)

    edges = sorted({0.0, R / 2.0, R, 2.0 * R, *[p for p in split_extra if p > 0]})
    edge_powers = [at_zero if e == 0.0 else at_R if e == R else 0.0 for e in edges]
    return float(_radial_quad(rad, edges, tol, edge_powers + [at_inf])[0])


def _high_pass(lam: float):
    """1 - profile_hat(r / lam), the mass removed below the cutoff."""
    if lam <= 0.0:
        return lambda r: 1.0
    return lambda r: 1.0 - gaussian_profile_hat(r / lam)


def integral_estimate_check(
    nu: float,
    sigma: float,
    alpha: float,
    gamma: float,
    lam: float,
    omega: float,
    xi: float,
    eps: float,
    tol: float = 1e-6,
) -> tuple[float, float]:
    """Weighted integral on R^3 against its homogeneous bound in omega.

    Evaluates I = int |xi'|^-nu |Xi - xi'|^-sigma zeta_lam(xi') /
    (|xi'|^gamma + |Xi - xi'|^gamma + omega)^alpha dxi' at |Xi| = xi and
    returns (I, C * omega^p * lam^-eps) with p = -alpha + (3 - nu -
    sigma)/gamma + eps and C fitted over {omega, 4 omega} so the bound
    dominates both evaluations.  At lam = 0 the quadrupled-omega value
    must match the predicted power within 15 percent.  Exponents within
    0.04 of the window's ends, or sigma > 2.8 at xi > 0, pass what the
    quadrature resolves and raise ``PreconditionError`` (``integral_3d``).
    """
    if not nu + sigma < 3 < nu + sigma + alpha * gamma:
        raise PreconditionError(
            f"dimension 3 outside the window ({nu + sigma}, {nu + sigma + alpha * gamma})"
        )
    if omega <= 0.0:
        raise PreconditionError(f"omega must be positive, got {omega}")
    zeta = _high_pass(lam)
    power = -alpha + (3 - nu - sigma) / gamma + eps
    lam_factor = lam ** (-eps) if lam > 0.0 else 1.0

    def kernel(om):
        def F(r, s):
            weight = zeta(r)
            if nu:
                weight = weight * r**-nu
            if sigma:
                weight = weight * s**-sigma
            return weight / (r**gamma + s**gamma + om) ** alpha

        return F

    splits = (lam,) if lam > 0.0 else ()
    # r^2 |xi'|^-nu near 0 (with |Xi - xi'|^-sigma too at xi = 0) and zeta_lam
    # adding r^2; |Xi - xi'|^-sigma integrated over s leaves |r - xi|^(2 - sigma);
    # the whole kernel decays like r^-(nu + sigma + alpha gamma)
    at_zero = 2.0 - nu - (sigma if xi == 0.0 else 0.0) + (2.0 if lam > 0.0 else 0.0)
    powers = (at_zero, 2.0 - sigma, 2.0 - nu - sigma - alpha * gamma)
    value = integral_3d(kernel(omega), xi, split_extra=splits, tol=tol, powers=powers)
    scaled = integral_3d(kernel(4.0 * omega), xi, split_extra=splits, tol=tol, powers=powers)
    predicted = 4.0**power
    if lam == 0.0 and abs(scaled / value / predicted - 1.0) > 0.15:
        raise ScalingError(
            f"omega-scaling off by {abs(scaled / value / predicted - 1.0):.1%}: "
            f"measured {scaled / value:.4f}, predicted {predicted:.4f}"
        )
    constant = max(
        value / (omega**power * lam_factor),
        scaled / ((4.0 * omega) ** power * lam_factor),
    )
    return value, constant * omega**power * lam_factor


def offset_decay_check(
    nu: float, xis, lam: float, eps: float = 0.05, tol: float = 1e-6
) -> dict:
    """Decay of int zeta_lam |xi'|^-nu / (|Xi - xi'|^2 + 1) dxi' in |Xi|.

    Sweeps |Xi| over ``xis``, fits the log-log slope, and reports the
    prefactor proxy max I(|Xi|) * |Xi|^(nu - 1 - eps).  The quadrature
    resolves nu from 1.04 to 2.96 (to 3 at lam > 0); closer to the ends of
    (1, 3) ``integral_3d`` raises ``PreconditionError``.
    """
    if not 1.0 < nu < 3.0:
        raise PreconditionError(f"nu must lie in (1, 3), got {nu}")
    xis = np.asarray(xis, dtype=float)
    if xis.ndim != 1 or xis.size == 0 or np.any(xis <= 0.0):
        raise PreconditionError("the |Xi| sweep must be positive")
    zeta = _high_pass(lam)

    def F(r, s):
        return zeta(r) * r**-nu / (s * s + 1.0)

    splits = (lam,) if lam > 0.0 else ()
    powers = (2.0 - nu + (2.0 if lam > 0.0 else 0.0), 0.0, -nu)
    integrals = np.array(
        [integral_3d(F, float(R), split_extra=splits, tol=tol, powers=powers) for R in xis]
    )
    if xis.size >= 2:
        slope = float(np.polyfit(np.log(xis), np.log(integrals), 1)[0])
    else:
        slope = float("nan")
    exponent = nu - 1.0 - eps
    return {
        "xi": xis,
        "integral": integrals,
        "slope": slope,
        "decay_exponent": -exponent,
        "prefactor": float(np.max(integrals * xis**exponent)),
    }


def log_fit(xs, values) -> tuple[float, float]:
    """Least-squares fit values ~ slope * log(xs) + c; returns (slope, R^2)."""
    xs, values = np.asarray(xs, dtype=float), np.asarray(values, dtype=float)
    design = np.vstack([np.log(xs), np.ones_like(xs)]).T
    coef, residual, *_ = np.linalg.lstsq(design, values, rcond=None)
    total = float(np.sum((values - values.mean()) ** 2))
    r_squared = 1.0 - float(residual[0]) / total if residual.size else 1.0
    return float(coef[0]), r_squared


def subtracted_kernel(h0):
    """(h0 + 2)/(h0 + 1)^2 - 1/(h0 + 1), the cancellation left after removing the vacuum term; equals
    (h0 + 1)^-2.  Over the common denominator the numerator is exactly 1 below h0 = 2^52: no eps * h0 loss."""
    h0 = np.asarray(h0, dtype=float)
    return ((h0 + 2.0) - (h0 + 1.0)) / (h0 + 1.0) ** 2


def vacuum_energy_quadrature(lams, d: int, g_const: float = 1.0) -> np.ndarray:
    """Leading symbol form of E_lam for constant coefficients and unit mass, one per cutoff of ``lams``.

    Radial quadrature of (h0+1)^{-1/2} / (K0+1) * gaussian_profile_hat(r/lam)^2
    with h0 = K0 = g_const * r^2, d in {1, 3}.  The integrand decays like
    r^{d-1-3}, so the d = 3 value grows logarithmically in lam.
    """
    if d not in (1, 3):
        raise ValueError("d must be 1 or 3")
    lams = np.asarray(lams, dtype=float)

    def integrand(r0, dr, k):
        r = r0 + dr
        h0 = g_const * r * r
        return (h0 + 1.0) ** -0.5 / (h0 + 1.0) * gaussian_profile_hat(r / lams[k]) ** 2 * r ** (d - 1)

    sphere = {1: 2.0, 3: 4.0 * np.pi}[d]
    # [0, lam] and the tail [lam, inf) of every cutoff, one batch
    edges = np.column_stack((np.zeros(lams.size), lams))
    return 0.5 * (2.0 * np.pi) ** -d * sphere * _radial_quad(integrand, edges)


def diagonal_divergence_demo(lams=(4.0, 8.0, 16.0, 32.0, 64.0), g_const: float = 4.0, tol: float = 1e-8) -> dict:
    """Constant-coefficient diagonal integrals under a growing cutoff.

    The bare column integrates (h0 + 1)^-1/2 / (h0 + 1) against the
    squared cutoff profile over R^3 with h0 = g_const * r^2 and grows
    like log lam; the subtracted column replaces the kernel by the
    cancellation of ``subtracted_kernel`` (with a sign flip) and stays
    bounded.  Returns the columns with the log-fit quality and the
    relative variation of the subtracted values, and ``g_const``.
    ``tol``, the absolute target of each panel, keeps the small subtracted
    column within a relative 1e-10 for lam in [0.5, 256] and g_const in [0.25, 16].
    """
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 1 or lams.size < 2 or np.any(lams <= 0.0):
        raise PreconditionError("the cutoff sweep needs at least two positive values")
    prefactor = 0.5 * TWO_PI**-3 * 4.0 * np.pi
    # [0, lam] and the tail [lam, inf) of every cutoff, one batch per kernel
    edges = np.column_stack((np.zeros(lams.size), lams))

    def sweep(kernel, sign):
        def f(r0, dr, k):
            r = r0 + dr
            h0 = g_const * r * r
            return (h0 + 1.0) ** -0.5 * kernel(h0) * gaussian_profile_hat(r / lams[k]) ** 2 * r * r

        return sign * prefactor * _radial_quad(f, edges, tol)

    unsub = sweep(lambda h0: 1.0 / (h0 + 1.0), 1.0)
    sub = sweep(subtracted_kernel, -1.0)
    slope, r_squared = log_fit(lams, unsub)
    variation = float((sub.max() - sub.min()) / np.max(np.abs(sub)))
    return {
        "lams": lams,
        "g_const": g_const,
        "unsubtracted": unsub,
        "subtracted": sub,
        "log_slope": slope,
        "log_r_squared": r_squared,
        "variation": variation,
    }
