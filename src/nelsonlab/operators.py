"""Dense operators as numpy arrays: the memory guard, the hermiticity check, and
spectral helpers (norm, top and lowest eigenvalue, psd powers, functions of hermitian matrices)."""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-10

# Most bytes one guarded kernel may hold at once: 1 GiB.
MAX_BYTES = 1 << 30


class SizeError(ValueError):
    """A kernel would hold more than ``MAX_BYTES`` at once."""


class ConvergenceError(ArithmeticError):
    """An iterative solver reached its iteration cap above its tolerance."""


def check_bytes(what: str, nbytes: int) -> int:
    """Refuse the kernel ``what`` if its stated peak ``nbytes`` exceeds ``MAX_BYTES``; else return it."""
    if nbytes > MAX_BYTES:
        raise SizeError(f"memory guard: {what} would hold {nbytes} bytes ({nbytes / 2**30:.2f} GiB), above {MAX_BYTES}")
    return nbytes


def check_hermitian(mat: np.ndarray) -> np.ndarray:
    """Return ``mat`` after refusing a deviation max|M - M*| above ``HERMITIAN_TOL``."""
    dev = float(np.max(np.abs(mat - mat.conj().T)))
    if dev > HERMITIAN_TOL:
        raise ValueError(f"declared hermitian but max deviation {dev:.3e}")
    return mat


def opnorm(mat: np.ndarray) -> float:
    """Spectral norm of a dense matrix: its largest singular value."""
    return float(np.linalg.svd(mat, compute_uv=False)[0])


# relative bound on |lambda - theta| at which ``top_eigenvalue`` stops
_LANCZOS_RTOL = 1e-15
# seed of the generator that draws a start vector for ``top_eigenvalue`` and ``nelson.ground_state``:
# a structured one (all ones, a basis vector) can be orthogonal to the top
# eigenspace of a lattice-symmetric matrix
_LANCZOS_SEED = 0


def lanczos_peak_bytes(side: int, steps: int, itemsize: int) -> int:
    """Most bytes ``top_eigenvalue`` holds while its basis grows to ``steps`` vectors of side ``side``.

    Its basis doubles, up to its length, each time it fills, so the most it
    holds is the old and the new array of the last doubling; besides, it
    holds the tridiagonal T_k of the last step and its eigenvectors.  A run
    that restarts holds no more than its full basis, and no basis grows
    past the side.
    """
    steps = min(steps, side)
    grown = 1 << (steps - 1).bit_length()
    return (grown // 2 + min(side, grown)) * side * itemsize + 2 * steps**2 * 8


def top_eigenvalue(matvec, basis: int, start: np.ndarray) -> tuple[float, int, float]:
    """Largest eigenvalue of a Hermitian positive-semidefinite operator, by Lanczos in a basis of at most ``basis`` vectors.

    ``matvec`` is the function x -> A x, and the basis takes the dtype of
    the start vector ``start``.  Each step reorthogonalizes against the whole
    basis, twice.  With T_k the tridiagonal of k steps and theta_k, s_k its
    top eigenvalue and the last entry of its eigenvector,
    |lambda - theta_k| <= beta_k |s_k|, and the iteration stops once that
    bound is at most ``_LANCZOS_RTOL`` * theta_k.  It also stops, exactly, at
    beta_k = 0 (a zero matrix gives 0.0 after one step) or when the basis
    spans the space (k = side).  A basis that fills below the side without
    meeting the bound restarts from its top Ritz vector, whose Rayleigh
    quotient is theta_k, so theta never decreases in exact arithmetic; a
    restart cycle that leaves theta where it was ends the run with that
    theta and its bound.
    The memory is that of ``lanczos_peak_bytes`` at the steps taken, and at
    most at ``basis``; no path raises.

    Returns (theta, steps over all cycles, beta_k |s_k| / theta); every
    cycle but the last takes min(side, ``basis``) steps.
    """
    side = len(start)
    length = min(side, basis)
    vecs = np.empty((1, side), dtype=start.dtype)
    vecs[0] = start / np.linalg.norm(start)
    steps, last = 0, -np.inf
    while True:
        alphas, betas = np.zeros(length), np.zeros(length)
        for k in range(length):
            w = matvec(vecs[k])
            steps += 1
            alphas[k] = (vecs[k].conj() @ w).real
            for _ in range(2):
                w -= vecs[: k + 1].T @ (vecs[: k + 1].conj() @ w)
            betas[k] = np.linalg.norm(w)
            tri = np.zeros((k + 1, k + 1))
            tri.flat[:: k + 2] = alphas[: k + 1]
            tri.flat[1 :: k + 2] = tri.flat[k + 1 :: k + 2] = betas[:k]
            evals, evecs = np.linalg.eigh(tri)
            theta = float(evals[-1])
            bound = float(betas[k] * abs(evecs[-1, -1]))
            done = betas[k] == 0.0 or k + 1 == side or bound <= _LANCZOS_RTOL * theta
            if done or k + 1 == length:
                break
            if k + 1 == len(vecs):
                grown = np.empty((min(length, 2 * len(vecs)), side), dtype=vecs.dtype)
                grown[: k + 1] = vecs
                vecs = grown
            vecs[k + 1] = w / betas[k]
        if done or theta <= last:
            return theta, steps, bound / max(theta, np.finfo(float).tiny)
        last = theta
        ritz = vecs.T @ evecs[:, -1]
        vecs[0] = ritz / np.linalg.norm(ritz)


# bound on ||A x - theta x|| (unit x) at which ``lowest_eigenpair`` stops, and its iteration cap
LOBPCG_TOL = 1e-11
_LOBPCG_CAP = 200


def lowest_eigenpair(matvec, precondition, start: np.ndarray) -> tuple[float, np.ndarray, dict]:
    """Lowest eigenvalue of a real symmetric operator and its unit eigenvector, by LOBPCG with one vector.

    ``matvec`` is x -> A x and ``precondition`` r -> T r, T symmetric positive definite, best near
    (A - sigma)^{-1} for a sigma below the spectrum.  From the unit ``start``, each iteration takes
    theta = x^T A x and r = A x - theta x and moves x to the lowest Ritz vector of A on {x, T r, p},
    p the previous step (Knyazev, SIAM J. Sci. Comput. 23, 2001), orthonormalized through the
    eigenpairs of their Gram with directions below sqrt(eps) dropped.  A is applied to x and T r; A p
    follows p.  It stops at ||r|| <= ``LOBPCG_TOL``, where theta is off by at most ||r||^2 over the
    gap, and raises ``ConvergenceError`` after ``_LOBPCG_CAP`` iterations.  It holds a few vectors.

    Returns (theta, x, {"iterations", "residual": ||r||}).
    """
    x = start / np.linalg.norm(start)
    prev, prev_image = [], []
    for iteration in range(_LOBPCG_CAP + 1):
        ax = matvec(x)
        theta = float(x @ ax)
        r = ax - theta * x
        residual = float(np.linalg.norm(r))
        if residual <= LOBPCG_TOL:
            return theta, x, {"iterations": iteration, "residual": residual}
        w = precondition(r)
        w /= np.linalg.norm(w)
        trial, images = np.array([x, w, *prev]), np.array([ax, matvec(w), *prev_image])
        evals, evecs = np.linalg.eigh(trial @ trial.T)
        keep = evals > np.sqrt(np.finfo(float).eps) * evals[-1]
        basis = evecs[:, keep] / np.sqrt(evals[keep])
        ritz = basis.T @ (trial @ images.T) @ basis
        coeffs = basis @ np.linalg.eigh(0.5 * (ritz + ritz.T))[1][:, 0]
        step, image = coeffs[1:] @ trial[1:], coeffs[1:] @ images[1:]
        del trial, images  # before the next iteration stacks its own
        x = coeffs[0] * x + step
        x /= np.linalg.norm(x)
        size = np.linalg.norm(step)
        prev, prev_image = ([step / size], [image / size]) if size > 0.0 else ([], [])
    raise ConvergenceError(f"lowest_eigenpair: residual {residual:.3e} above {LOBPCG_TOL:.0e} after {_LOBPCG_CAP} iterations")


def psd_power(mat: np.ndarray, p: float) -> np.ndarray:
    """Matrix power of a hermitian positive-semidefinite matrix via eigh.

    Negative eigenvalues below -1e-10 * scale raise; tiny negatives clip to
    0.  Fractional powers of the zero eigenvalue are zero for p > 0.
    """
    w, v = np.linalg.eigh(np.asarray(mat))
    scale = max(float(np.max(np.abs(w))), 1.0)
    if np.min(w) < -1e-10 * scale:
        raise ValueError(f"matrix is not psd (min eigenvalue {np.min(w):.3e})")
    w = np.clip(w, 0.0, None)
    if p < 0 and np.any(w == 0.0):
        raise ValueError("negative power of a singular matrix")
    return (v * w**p) @ v.conj().T


def hermitian_func(mat: np.ndarray, fn) -> np.ndarray:
    """Apply a scalar function to a hermitian matrix through eigh."""
    w, v = np.linalg.eigh(np.asarray(mat))
    return (v * fn(w)) @ v.conj().T
