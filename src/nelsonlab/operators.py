"""Dense operator matrices with space labels and hermiticity bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

HERMITIAN_TOL = 1e-10

# Largest side of a dense matrix (lattice size * Fock dimension, or lattice size
# for phase-space symbol tables) the library assembles.
MAX_DENSE_DIM = 4096


class SizeError(ValueError):
    """A dense assembly would exceed the memory guard."""


def check_dense_size(what: str, size: int, block: int = 1) -> None:
    """Refuse a dense matrix of side size * block above ``MAX_DENSE_DIM``."""
    if size * block > MAX_DENSE_DIM:
        raise SizeError(
            f"dense dimension guard: {what} of side {size} x {block} = {size * block} exceeds {MAX_DENSE_DIM}"
        )


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Square real or complex matrix acting on a labeled finite-dimensional space.

    float64 and complex128 matrices are kept as given, so a real operator
    stays real; any other dtype is cast to complex128.

    ``hermitian`` is three-valued: True (validated at construction), False,
    or None when unknown (products, generic sums).
    """

    mat: np.ndarray
    space: str = ""
    hermitian: bool | None = None

    def __post_init__(self) -> None:
        m = np.asarray(self.mat)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got {m.shape}")
        if m.dtype not in (np.float64, np.complex128):
            m = m.astype(complex)
        object.__setattr__(self, "mat", m)
        if self.hermitian is True:
            dev = float(np.max(np.abs(self.mat - self.mat.conj().T)))
            if dev > HERMITIAN_TOL:
                raise ValueError(f"declared hermitian but max deviation {dev:.3e}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix(self.mat.conj().T, self.space, self.hermitian)

    def norm(self) -> float:
        """Spectral norm."""
        return opnorm(self.mat)

    def _check_space(self, other: "OperatorMatrix") -> str:
        if self.space and other.space and self.space != other.space:
            raise ValueError(f"space mismatch: {self.space!r} vs {other.space!r}")
        return self.space or other.space

    def __matmul__(self, other):
        if isinstance(other, OperatorMatrix):
            return OperatorMatrix(self.mat @ other.mat, self._check_space(other))
        return self.mat @ other

    def __add__(self, other):
        if isinstance(other, OperatorMatrix):
            herm = True if (self.hermitian and other.hermitian) else None
            return OperatorMatrix(self.mat + other.mat, self._check_space(other), herm)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, OperatorMatrix):
            herm = True if (self.hermitian and other.hermitian) else None
            return OperatorMatrix(self.mat - other.mat, self._check_space(other), herm)
        return NotImplemented

    def shifted(self, scalar) -> "OperatorMatrix":
        """Add scalar * identity, keeping hermiticity for real shifts."""
        herm = self.hermitian if np.isreal(scalar) else None
        return replace(self, mat=self.mat + scalar * np.eye(self.dim), hermitian=herm)


def opnorm(mat: np.ndarray) -> float:
    """Spectral norm of a dense matrix: its largest singular value."""
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def psd_power(mat: np.ndarray, p: float, floor: float = 0.0) -> np.ndarray:
    """Matrix power of a hermitian positive-semidefinite matrix via eigh.

    Negative eigenvalues below -1e-10 * scale raise; tiny negatives clip to
    ``floor``.  Fractional powers of the zero eigenvalue are zero for p > 0.
    """
    w, v = np.linalg.eigh(np.asarray(mat))
    scale = max(float(np.max(np.abs(w))), 1.0)
    if np.min(w) < -1e-10 * scale:
        raise ValueError(f"matrix is not psd (min eigenvalue {np.min(w):.3e})")
    w = np.clip(w, floor, None)
    if p < 0 and np.any(w == 0.0):
        raise ValueError("negative power of a singular matrix")
    return (v * w**p) @ v.conj().T


def hermitian_func(mat: np.ndarray, fn) -> np.ndarray:
    """Apply a scalar function to a hermitian matrix through eigh."""
    w, v = np.linalg.eigh(np.asarray(mat))
    return (v * fn(w)) @ v.conj().T
