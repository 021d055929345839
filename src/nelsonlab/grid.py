"""Periodic lattice grids and the discrete Fourier calculus on them.

Positions live on x_k = k * box / npts per axis, momenta on the signed FFT
lattice (2*pi/box) * {-npts/2, ..., npts/2 - 1}.  The transform pair is
normalized so that Parseval holds with quadrature weight (box/npts)^dim on the
position side and box^(-dim) on the momentum side; the (2*pi)^(-dim) of the
continuum momentum measure is absorbed into the dual weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ResolutionError(ValueError):
    """A requested scale is not resolved by the lattice."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice with ``npts`` points per axis on [0, box)^dim."""

    dim: int
    npts: int
    box: float

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.npts < 2 or self.npts & (self.npts - 1):
            raise ValueError(f"npts must be a power of two >= 2, got {self.npts}")
        if not 0 < self.box < np.inf:
            raise ValueError(f"box must be positive and finite, got {self.box}")

    @property
    def size(self) -> int:
        return self.npts**self.dim

    @property
    def spacing(self) -> float:
        return self.box / self.npts

    @property
    def weight(self) -> float:
        """Position-side quadrature weight."""
        return (self.box / self.npts) ** self.dim

    @property
    def dual_weight(self) -> float:
        """Momentum-side quadrature weight, (2*pi)^(-dim) included."""
        return self.box ** (-self.dim)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.npts,) * self.dim

    def axis_positions(self) -> np.ndarray:
        return np.arange(self.npts) * self.spacing

    def axis_momenta(self) -> np.ndarray:
        """Momenta in FFT order, values in (2*pi/box) * {-npts/2 .. npts/2-1}."""
        return 2.0 * np.pi / self.box * np.fft.fftfreq(self.npts, d=1.0 / self.npts)

    def position_mesh(self) -> np.ndarray:
        """Flattened (size, dim) array of lattice coordinates."""
        axes = np.meshgrid(*([self.axis_positions()] * self.dim), indexing="ij")
        return np.stack([a.ravel() for a in axes], axis=-1)

    def momentum_mesh(self) -> np.ndarray:
        """Flattened (size, dim) array of lattice momenta in FFT order."""
        axes = np.meshgrid(*([self.axis_momenta()] * self.dim), indexing="ij")
        return np.stack([a.ravel() for a in axes], axis=-1)

    def momentum_sq(self) -> np.ndarray:
        mesh = self.momentum_mesh()
        return np.einsum("kd,kd->k", mesh, mesh).real

    def xi_bracket(self) -> np.ndarray:
        """<xi> = sqrt(1 + |xi|^2) on the flattened momentum mesh."""
        return np.sqrt(1.0 + self.momentum_sq())

    def max_momentum(self) -> float:
        """Largest resolved momentum magnitude per axis, pi * npts / box."""
        return np.pi * self.npts / self.box

    def check_cutoff(self, lam: float) -> None:
        """Refuse a model cutoff outside (0, pi * npts / box], past which the profile saturates."""
        top = self.max_momentum()
        if not 0 < lam <= top * (1.0 + 1e-12):
            raise ResolutionError(
                f"cutoff lam={lam:g} outside (0, {top:g}]; past pi*npts/box the profile "
                f"reaches saturation on the lattice (npts={self.npts}, box={self.box:g})"
            )


def dft(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Position -> momentum transform; approximates the continuum integral."""
    shaped = np.asarray(values).reshape(grid.shape)
    return np.fft.fftn(shaped).ravel() * grid.weight


def idft(grid: Grid, values_hat: np.ndarray) -> np.ndarray:
    """Momentum -> position transform; a stack of rows transforms row by row."""
    arr = np.asarray(values_hat)
    shaped = arr.reshape(arr.shape[:-1] + grid.shape)
    axes = tuple(range(arr.ndim - 1, shaped.ndim))
    return np.fft.ifftn(shaped, axes=axes).reshape(arr.shape) / grid.weight


def inner(grid: Grid, u: np.ndarray, v: np.ndarray) -> complex:
    """Weighted position-side inner product, antilinear in the first slot."""
    return complex(np.vdot(u, v) * grid.weight)


def norm(grid: Grid, u: np.ndarray) -> float:
    return float(np.sqrt(np.vdot(u, u).real * grid.weight))


def sobolev_norm(grid: Grid, values: np.ndarray, s: float) -> float:
    """H^s norm via <xi>^s weights on the momentum side."""
    uhat = dft(grid, values)
    w = grid.xi_bracket() ** (2.0 * s)
    return float(np.sqrt(np.sum(w * np.abs(uhat) ** 2).real * grid.dual_weight))


def derivative_matrix(grid: Grid, axis: int = 0) -> np.ndarray:
    """Dense hermitian spectral derivative D = -i d/dx_axis."""
    if not 0 <= axis < grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {grid.dim}")
    mesh = grid.momentum_mesh()[:, axis]
    return momentum_multiplier(grid, mesh)


def momentum_multiplier(grid: Grid, symbol_values: np.ndarray) -> np.ndarray:
    """Dense matrix of the Fourier multiplier with the given mode values."""
    n = grid.size
    sym = np.asarray(symbol_values, dtype=complex)
    if sym.shape != (n,):
        raise ValueError("symbol_values must be flat over the momentum mesh")
    cols = np.fft.fftn(np.eye(n, dtype=complex).reshape(grid.shape * 2), axes=range(grid.dim))
    cols = cols.reshape(n, n)  # rows indexed by momentum, cols by source point
    out = np.fft.ifftn(
        (sym[:, None] * cols).reshape(grid.shape + (n,)), axes=range(grid.dim)
    )
    return out.reshape(n, n)


def gaussian_profile_hat(r: np.ndarray) -> np.ndarray:
    """Fourier transform of the unit Gaussian profile, value 1 at r = 0."""
    return np.exp(-0.5 * np.square(r))


def bump_hat(grid: Grid, lam: float, x0, sigma: float) -> np.ndarray:
    """Momentum side of the smeared bump at scale ``lam`` centered at ``x0``.

    gaussian_profile_hat(|xi|/lam) * ramp(|xi|, sigma) * exp(-i xi . x0) on
    the flattened momentum mesh.  ``x0`` is one point of ``grid.dim``
    coordinates or an (m, dim) stack of them, which gives one row per center.
    Refuses a ``lam`` that ``Grid.check_cutoff`` refuses.
    """
    grid.check_cutoff(lam)
    mesh = grid.momentum_mesh()
    r = np.sqrt(np.einsum("kd,kd->k", mesh, mesh))
    phase = np.exp(-1j * mesh @ np.asarray(x0, dtype=float).T).T
    return gaussian_profile_hat(r / lam) * cosine_ramp(r, sigma) * phase


def cosine_ramp(r: np.ndarray, sigma: float) -> np.ndarray:
    """Smooth infrared switch: 0 below sigma, 1 above 2*sigma.

    sigma = 0 returns identically 1.
    """
    r = np.asarray(r, dtype=float)
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0:
        return np.ones_like(r)
    out = np.zeros_like(r)
    out[r >= 2 * sigma] = 1.0
    mid = (r > sigma) & (r < 2 * sigma)
    out[mid] = 0.5 * (1.0 - np.cos(np.pi * (r[mid] - sigma) / sigma))
    return out
