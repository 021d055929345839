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
with power-law tails mapped to a finite interval.  Reported values are deterministic for a fixed tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def lattice_profile(grid: Grid, values) -> RadialProfile:
    """Radial profile of a function on a one-dimensional lattice: its flat
    values ordered by the distance |x| of their cells to the origin."""
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
    """Return (int f g, int f* g*) for nonnegative functions on a lattice."""
    fp = lattice_profile(grid, f)
    gp = lattice_profile(grid, g)
    lhs = grid.weight * float(np.real(f) @ np.real(g))
    rhs = grid.weight * float(
        np.sort(fp.values)[::-1] @ np.sort(gp.values)[::-1]
    )
    return lhs, rhs


def peetre_check(t: float, samples: np.ndarray) -> int:
    """Count violations of <x>^t <= 2^|t| <y>^t <x-y>^|t| over sample pairs.

    ``samples`` has shape (n, 2, d) holding the pairs (x, y).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 3 or samples.shape[1] != 2:
        raise DomainError(f"samples must have shape (n, 2, d), got {samples.shape}")
    x = samples[:, 0, :]
    y = samples[:, 1, :]

    def bracket(z: np.ndarray) -> np.ndarray:
        return np.sqrt(1.0 + np.sum(z * z, axis=1))

    lhs = bracket(x) ** t
    rhs = 2.0 ** abs(t) * bracket(y) ** t * bracket(x - y) ** abs(t)
    return int(np.sum(lhs > rhs * (1.0 + 1e-12)))


def _radial_quad(rad, edges, eps: float) -> float:
    """int_0^inf rad(r) dr: quad over consecutive ``edges``, then the tail
    beyond the last edge mapped to a finite interval through r -> 1/t."""
    from scipy.integrate import quad

    out = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = quad(rad, a, b, limit=400, epsabs=eps)
        out += val
    tail, _ = quad(
        lambda t: rad(1.0 / t) / (t * t), 1e-12, 1.0 / edges[-1], limit=400, epsabs=eps
    )
    return out + tail


def integral_3d(F, R: float, split_extra=(), tol: float = 1e-6) -> float:
    """int_{R^3} F(|xi|, |Xi - xi|) dxi with |Xi| = R.

    In the coordinates (r, s) = (|xi|, |Xi - xi|) the inner integral runs
    over s in [|r - R|, r + R] with measure 2*pi*r*s/R (R > 0); at R = 0
    the integrand is 4*pi*r^2 F(r, r).  The radial integral splits at R/2,
    R, 2R and any extra points (``_radial_quad``).
    """
    from scipy.integrate import quad

    eps = tol * 1e-2
    if R == 0.0:

        def rad(r):
            return 4.0 * np.pi * r * r * F(r, r)

        pts = sorted(p for p in split_extra if p > 0)
        edge = 4.0 * pts[-1] if pts else 16.0
        return _radial_quad(rad, [0.0] + pts + [edge], eps)

    def rad(r):
        def ang(s):
            return TWO_PI * r * s / R * F(r, s)

        lo, hi = abs(r - R), r + R
        cuts = [p for p in (R / 2.0, R) if lo < p < hi]
        out = 0.0
        for a, b in zip([lo] + sorted(cuts), sorted(cuts) + [hi]):
            if b > a:
                val, _ = quad(ang, a, b, limit=200, epsabs=eps)
                out += val
        return out

    edges = sorted({0.0, R / 2.0, R, 2.0 * R, *[p for p in split_extra if p > 0]})
    return _radial_quad(rad, edges, eps)


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
    must match the predicted power within 15 percent.
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
    value = integral_3d(kernel(omega), xi, split_extra=splits, tol=tol)
    scaled = integral_3d(kernel(4.0 * omega), xi, split_extra=splits, tol=tol)
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
    prefactor proxy max I(|Xi|) * |Xi|^(nu - 1 - eps).
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
    integrals = np.array(
        [integral_3d(F, float(R), split_extra=splits, tol=tol) for R in xis]
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
    """(h0 + 2)/(h0 + 1)^2 - 1/(h0 + 1), the cancellation left after
    removing the vacuum term; equals (h0 + 1)^-2."""
    h0 = np.asarray(h0, dtype=float)
    return (h0 + 2.0) / (h0 + 1.0) ** 2 - 1.0 / (h0 + 1.0)


def diagonal_divergence_demo(lams=(4.0, 8.0, 16.0, 32.0, 64.0), g_const: float = 4.0, tol: float = 1e-6) -> dict:
    """Constant-coefficient diagonal integrals under a growing cutoff.

    The bare column integrates (h0 + 1)^-1/2 / (h0 + 1) against the
    squared cutoff profile over R^3 with h0 = g_const * r^2 and grows
    like log lam; the subtracted column replaces the kernel by the
    cancellation of ``subtracted_kernel`` (with a sign flip) and stays
    bounded.  Returns the columns with the log-fit quality and the
    relative variation of the subtracted values.
    """
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 1 or lams.size < 2 or np.any(lams <= 0.0):
        raise PreconditionError("the cutoff sweep needs at least two positive values")
    from scipy.integrate import quad

    eps = tol * 1e-2
    prefactor = 0.5 * TWO_PI**-3 * 4.0 * np.pi

    def sweep(kernel, sign):
        out = []
        for lam in lams:

            def f(r):
                h0 = g_const * r * r
                return (
                    (h0 + 1.0) ** -0.5
                    * kernel(h0)
                    * gaussian_profile_hat(r / lam) ** 2
                    * r
                    * r
                )

            head, _ = quad(f, 0.0, lam, limit=300, epsabs=eps)
            tail, _ = quad(f, lam, np.inf, limit=300, epsabs=eps)
            out.append(sign * prefactor * (head + tail))
        return np.array(out)

    unsub = sweep(lambda h0: 1.0 / (h0 + 1.0), 1.0)
    sub = sweep(subtracted_kernel, -1.0)
    slope, r_squared = log_fit(lams, unsub)
    variation = float((sub.max() - sub.min()) / np.max(np.abs(sub)))
    return {
        "lams": lams,
        "unsubtracted": unsub,
        "subtracted": sub,
        "log_slope": slope,
        "log_r_squared": r_squared,
        "variation": variation,
    }
