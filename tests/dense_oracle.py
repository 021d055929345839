"""Dense routes: the oracles of the sector-block library and of its Weyl rows.

The library forms no matrix of the whole tensor space for H0, A, H_lam,
E_lam(X) or H_ibc; these builders lay them out densely at the small sizes the
tests run.  Every matrix is X-major like the tensor: row X * fock_dim + o.

Nor does it form a Weyl operator: ``fock.weyl_rows`` sums its rows as a
Taylor series.  ``weyl`` here is the whole V(f) from one ``eigh`` of the
dense momentum matrix, with the dense field, the sector projector and the
static dressing identity built on it.
"""

import numpy as np

from nelsonlab.fock import annihilate, second_quantize
from nelsonlab.nelson import form_factor, free_shift, vacuum_energy
from nelsonlab.operators import check_hermitian, hermitian_func, opnorm, psd_power


def field(basis, f):
    """Phi(f) = (a*(f) + a(f)) / sqrt(2)."""
    a = annihilate(basis, f)
    return check_hermitian((a.conj().T + a) / np.sqrt(2.0))


def momentum(basis, f):
    """Pi(f) = i (a*(f) - a(f)) / sqrt(2) = Phi(i f)."""
    a = annihilate(basis, f)
    return check_hermitian(1j * (a.conj().T - a) / np.sqrt(2.0))


def weyl(basis, f):
    """V(f) = exp(i Pi(f)), unitary on the truncation."""
    return hermitian_func(momentum(basis, f), lambda w: np.exp(1j * w))


def sector_projector(basis, cap):
    diag = (basis.sector_totals() <= cap).astype(complex)
    return check_hermitian(np.diag(diag))


def gross_check_static(basis, omega, rho, sector_cap):
    """Residual of the exact dressing identity for a static source.

    Conjugating dGamma(omega) + Phi(omega^{-1/2} rho) by the Weyl operator of
    f = -omega^{-3/2} rho removes the field term and shifts the energy by
    -||omega^{-1} rho||^2 / 2.  Returns the residual norm on the sectors up to
    ``sector_cap``, a window that stays comparable across different caps.
    """
    omega = np.asarray(omega, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    f = -psd_power(omega, -1.5) @ rho
    ham = second_quantize(basis, omega) + field(basis, psd_power(omega, -0.5) @ rho)
    v = weyl(basis, f)
    shift = 0.5 * float(np.vdot(psd_power(omega, -1.0) @ rho, psd_power(omega, -1.0) @ rho).real)
    target = second_quantize(basis, omega) - shift * np.eye(basis.dim)
    p = sector_projector(basis, sector_cap)
    return opnorm(p @ (v @ ham @ v.conj().T - target) @ p)


def free_hamiltonian(model):
    """H0 = K x 1 + 1 x dGamma."""
    mat = np.kron(model.k, np.eye(model.fock_dim)) + np.diag(np.tile(model.occupation_energies, model.grid.size))
    return check_hermitian(mat)


def creation_family(model, lam):
    """A = blockdiag_X a*(v_{lam,X}): one scatter of the basis table ``FockBasis.creation_entries``."""
    size, fdim = model.grid.size, model.fock_dim
    rows, cols, modes, factors = model.basis.creation_entries
    x = np.arange(size)[:, None]
    coeffs = form_factor(model, lam)
    mat = np.zeros((size, fdim, size, fdim), dtype=coeffs.dtype)
    mat[x, rows, x, cols] = coeffs[:, modes] * factors
    return mat.reshape(model.dim, model.dim)


def scatter(model, *parts):
    """Dense tensor matrix of the sum of the block matrices ``parts``, added in order."""
    size, basis = model.grid.size, model.basis
    dtypes = {block.dtype for part in parts for block in part.values()}
    mat = np.zeros((size, basis.dim) * 2, dtype=np.result_type(np.float64, *dtypes))
    for part in parts:
        for (m, n), block in part.items():
            view = mat[:, basis.sector_slice(m), :, basis.sector_slice(n)]
            view += block.reshape(view.shape)
    return mat.reshape(model.dim, model.dim)


def split_blocks(model, mat):
    """The sector blocks of a dense tensor matrix, all of them kept."""
    rows = [model.basis.tensor_rows(model.grid.size, n, n) for n in range(model.basis.n_max + 1)]
    return {
        (m, n): mat[np.ix_(target, source)]
        for m, target in enumerate(rows)
        for n, source in enumerate(rows)
    }


def vacuum_energy_diagonal(model, lam):
    """E_lam(X) as the diagonal of its multiplication operator on the tensor space."""
    return np.kron(vacuum_energy(model, lam), np.ones(model.fock_dim))


def cutoff_hamiltonian(model, lam):
    """H_lam = H0 + A + A*, with H0 on the Fock diagonal and A + A* off it."""
    mat = creation_family(model, lam)
    mat += mat.conj().T
    mat += free_hamiltonian(model)
    return check_hermitian(mat)


def ibc_route(model, lam):
    """G from one dense solve against H0 + s, and H_ibc from dense products.

    Returns G and H_ibc = (1-G)*(H0+s)(1-G) + T + E_lam(X) - s with T = A*G.
    """
    s = free_shift(model)
    eye = np.eye(model.dim)
    h0s = free_hamiltonian(model) + s * eye
    a = creation_family(model, lam)
    g = -np.linalg.solve(h0s, a)
    h_ibc = (eye - g).conj().T @ h0s @ (eye - g) + a.conj().T @ g
    h_ibc += np.diag(vacuum_energy_diagonal(model, lam)) - s * eye
    return g, h_ibc
