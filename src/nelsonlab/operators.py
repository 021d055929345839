"""Dense operators as numpy arrays: the size guard, the hermiticity check, and
spectral helpers (norm, psd powers, functions of hermitian matrices)."""

from __future__ import annotations

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


def check_hermitian(mat: np.ndarray) -> np.ndarray:
    """Return ``mat`` after refusing a deviation max|M - M*| above ``HERMITIAN_TOL``."""
    dev = float(np.max(np.abs(mat - mat.conj().T)))
    if dev > HERMITIAN_TOL:
        raise ValueError(f"declared hermitian but max deviation {dev:.3e}")
    return mat


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
