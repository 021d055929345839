"""Interior-boundary-condition construction at finite truncation.

Everything revolves around G = -(H0 + s)^{-1} A with A the block-diagonal
creation family a*(v_{lam,X}).  The free part is shifted by s before
inversion so that its bottom sits at half the boson mass floor; the shift is
recorded and subtracted again in the assembled Hamiltonian, so no identity
depends on it.  At finite boson cap G is nilpotent, which makes the Neumann
inverse of 1 - G exact and the factorization identity an algebraic one.

The assembly works in boson-number sectors: sector n is the set of tensor
rows ``FockBasis.tensor_rows(size, n, n)``.  H0 + s is block diagonal, A and
G map sector n-1 into sector n only, and G^k maps n-k into n.  So A comes
from the creation ladder, H0 + s and G from the free spectrum without a
solve, and every product of the square, the Neumann series and its residual
runs over the nonzero sector blocks only.  G and the Neumann inverse exist
only as blocks; H_ibc is the one dense matrix ``scatter`` lays out.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .nelson import (
    AssembledModel,
    ModelSpec,
    check_tensor_size,
    creation_blocks,
    form_factor,
    vacuum_energy_operator,
)
from .operators import check_dense_size, check_hermitian, opnorm


def free_shift(model: AssembledModel) -> float:
    """Shift making H0 + s >= mass_floor / 2.

    The bottom of H0 is the bottom of K (zero-boson sector; every boson adds
    at least the mass floor), so the value is available at sizes where dense
    H0 is not.
    """
    return max(0.0, 0.5 * model.spec.mass_floor - float(model.k_evals[0]))


# ---------------------------------------------------------------------------
# sector blocks: a block matrix is a dict {(m, n): block} of the nonzero blocks
# that map sector n into sector m, X-major like the tensor; a missing block is zero.


def _block_product(left: dict, right: dict) -> dict:
    """Product of two block matrices, multiplying only their nonzero blocks."""
    out = {}
    for (m, k), lhs in left.items():
        for (j, n), rhs in right.items():
            if j == k:
                term = lhs @ rhs
                out[m, n] = out[m, n] + term if (m, n) in out else term
    return {key: block for key, block in out.items() if block.any()}


def _adjoint(blocks: dict) -> dict:
    return {(n, m): block.conj().T for (m, n), block in blocks.items()}


def scatter(model: AssembledModel, *parts: dict) -> np.ndarray:
    """Dense tensor matrix of the sum of the block matrices ``parts``, added in order."""
    size, basis = model.grid.size, model.basis
    dtypes = {block.dtype for part in parts for block in part.values()}
    mat = np.zeros((size, basis.dim) * 2, dtype=np.result_type(np.float64, *dtypes))
    for part in parts:
        for (m, n), block in part.items():
            view = mat[:, basis.sector_slice(m), :, basis.sector_slice(n)]
            view += block.reshape(view.shape)
    return mat.reshape(model.dim, model.dim)


def invert_one_minus_G(model: AssembledModel, g: dict) -> tuple[dict, dict]:
    """Neumann inverse of 1 - G, exact by nilpotency, as a block matrix.

    G raises the boson number by one, so G^(N_max + 1) vanishes on the
    truncation and the series stops after at most N_max + 1 products.  The
    metadata reports the number of terms and the norm of the first discarded
    power (the tail bound), exactly zero when nilpotency was reached; only a
    nonzero discarded power costs a norm.  The powers are products of the
    nonzero sector blocks of G: for the IBC G each power has a single block,
    and a G with no zero block runs the same series as the dense one.
    """
    n_max = model.basis.n_max
    sides = model.grid.size * np.diff(model.basis.sector_bounds)
    inverse = {(n, n): np.eye(side) for n, side in enumerate(sides)}
    power = g
    terms = 1
    tail = 0.0
    for _ in range(n_max + 1):
        if not power:
            break
        if terms > n_max:
            tail = opnorm(scatter(model, power))
            break
        for key, block in power.items():
            inverse[key] = inverse[key] + block if key in inverse else block
        terms += 1
        power = _block_product(power, g)
    return inverse, {"terms": terms, "tail_bound": tail}


@dataclass(frozen=True, eq=False)
class IbcOperators:
    """All pieces of one IBC assembly, built with a single recorded shift.

    ``g`` and ``inverse`` are the block matrices of G and of the Neumann
    inverse of 1 - G.  ``h_ibc`` is (1-G)*(H0+s)(1-G) + T + E_lam(X) - s and
    ``e_diag`` the diagonal of the vacuum energy E_lam(X) on the tensor
    space; the right side of the keystone identity is h_ibc - diag(e_diag).
    """

    shift: float
    g: dict
    e_diag: np.ndarray
    h_ibc: np.ndarray
    inverse: dict
    neumann_terms: int
    neumann_tail: float


def build_ibc(model: AssembledModel, lam: float) -> IbcOperators:
    """Assemble G, the Neumann inverse, and the IBC Hamiltonian.

    G = -(H0 + s)^{-1} a*(v_{lam,X}) maps sector n-1 into sector n, with
    s = ``free_shift(model)``, so H0 + s >= mass_floor / 2 > 0, and
    H_ibc = (1-G)*(H0+s)(1-G) + T + E_lam(X) - s equals H_lam + E_lam(X)
    exactly at finite truncation; T = a(v)G is formed only inside the sum.

    The blocks A_n from sector n-1 into n are ``creation_blocks``, scattered
    from ``FockBasis.ladder``.  On sector n, H0 + s is
    K x 1 + 1 x diag(E_o) + s = (Q_K x 1) diag(eps_i + E_o + s) (Q_K x 1)*,
    so the block of G is -(Q_K x 1)[((Q_K* x 1) A_n) / (eps_i + E_o + s)]:
    two rotations along X, no solve.  The square expands over the blocks as
    D - DG - (DG)* + G*(DG) + A*G with D = H0 + s, and each of its products
    is a product of sector blocks.
    """
    check_tensor_size(model.spec)
    s = free_shift(model)
    size, basis, q = model.grid.size, model.basis, model.k_evecs
    occ_energy, dims = model.occupation_energies, np.diff(basis.sector_bounds)
    a = creation_blocks(model, lam)
    g = {}
    for (n, _), block in a.items():
        denom = model.k_evals[:, None] + occ_energy[basis.sector_slice(n)] + s
        rotated = (q.conj().T @ block.reshape(size, -1)).reshape(denom.shape + (-1,))
        g[n, n - 1] = -(q @ (rotated / denom[:, :, None]).reshape(size, -1)).reshape(block.shape)
    d = {}
    for n, dim in enumerate(dims):
        energies = np.tile(occ_energy[basis.sector_slice(n)], size)
        d[n, n] = np.kron(model.k, np.eye(dim)) + np.diag(energies) + s * np.eye(size * dim)
    dg = _block_product(d, g)
    minus_dg = {key: -block for key, block in dg.items()}
    gdg = _block_product(_adjoint(g), dg)
    square = scatter(model, d, minus_dg, _adjoint(minus_dg), gdg, _block_product(_adjoint(a), g))
    e_diag = vacuum_energy_operator(model, lam)
    # square becomes H_ibc in place: (square + E) - s, summed in that order
    np.fill_diagonal(square, square.diagonal() + e_diag - s)
    inverse, meta = invert_one_minus_G(model, g)
    return IbcOperators(
        shift=s,
        g=g,
        e_diag=e_diag,
        h_ibc=check_hermitian(square),
        inverse=inverse,
        neumann_terms=meta["terms"],
        neumann_tail=meta["tail_bound"],
    )


def neumann_residual(model: AssembledModel, ops: IbcOperators) -> float:
    """Spectral norm of (1 - G) N - 1 for the Neumann inverse N of ``ops``.

    Formed blockwise as N - 1 - GN.  N has identity diagonal blocks and
    blocks m <- n only for m > n, and GN has blocks m <- n only for m > n, so
    the diagonal blocks, block row 0 and block column n_max of the residual
    are exactly zero; the norm is taken on the rectangle of block rows
    1..n_max by block columns 0..n_max-1, which carries all of it.
    """
    resid = {(m, n): b - np.eye(len(b)) if m == n else b for (m, n), b in ops.inverse.items()}
    for key, block in _block_product(ops.g, ops.inverse).items():
        resid[key] = resid.get(key, 0.0) - block
    sides = model.grid.size * np.diff(model.basis.sector_bounds)
    rect = [
        [resid.get((m, n), np.zeros((sides[m], sides[n]))) for n in range(len(sides) - 1)]
        for m in range(1, len(sides))
    ]
    return opnorm(np.block(rect))


def factorization_identity_check(
    model: AssembledModel, ops: IbcOperators, h_lam: np.ndarray
) -> float:
    """Relative residual of H_lam = (1-G)*(H0+s)(1-G) + T - s on safe sectors.

    Expanding the square, the cross terms -G*(H0+s) - (H0+s)G reproduce
    a(v) + a*(v) and T cancels G*(H0+s)G, so the identity is exact algebra;
    the residual only measures round-off.  Safe sectors keep total boson
    number <= N_max - 1.  ``h_lam`` is the cutoff Hamiltonian at the lam of
    ``ops``; the right side is h_ibc - E_lam(X), formed on those sectors only.
    """
    idx = model.basis.tensor_rows(model.grid.size, 0, model.basis.n_max - 1)
    sub = np.ix_(idx, idx)
    lhs = h_lam[sub]
    rhs = ops.h_ibc[sub] - np.diag(ops.e_diag[idx])
    return opnorm(lhs - rhs) / opnorm(lhs)


# ---------------------------------------------------------------------------
# domain regularity


def check_gram_size(spec: ModelSpec) -> None:
    """Refuse a model whose widest sector-step Gram matrix, of side
    size * dim(sector n_max - 1) = size * C(size + n_max - 2, n_max - 1), passes the guard."""
    sector = comb(spec.grid.size + spec.n_max - 2, spec.n_max - 1) if spec.n_max else 0
    check_dense_size("sector Gram matrix", spec.grid.size, sector)


def domain_regularity_norms(model: AssembledModel, lam: float, ps) -> dict:
    """||H0^p G_lam|| for each p, from the exact Gram matrix of each sector step.

    G = -(H0 + s)^{-1} A maps sector n-1 into sector n, so the norm is the
    largest of the step norms.  On sector n, H0 = (Q_K x 1) diag(eps_i + E_o)
    (Q_K x 1)*; the left factor (Q_K x 1) is unitary and is dropped, which
    leaves M = S_p (Q_K* x 1) A with S_p = (eps_i + E_o)^p / (eps_i + E_o + s)
    and the Gram matrix

        (M*M)[(y,a),(z,b)] = sum_o conj(C_y[o,a]) W_o[y,z] C_z[o,b],
        W_o = Q_K diag(S_p^2[:, o]) Q_K*,  C_y[o,a] = v_y[k] sqrt(occ_o[k]),

    a sum over the pairs of ladder entries a -> o, b -> o that share their
    target o.  The step norm is the square root of the top eigenvalue,
    clamped at zero so that zero coupling gives exactly 0.0.  Each step
    costs one Gram of side size * dim(sector n-1) and one dense ``eigvalsh``:
    no iterative solver, no start vector, and no dense tensor matrix.  The
    shift s enters only through the resolvent factor of G.  An exact
    power-of-two scale of the coefficients keeps their squares from underflowing.

    On the d = 1 tensor model the one-boson sector gives
    ||H0^p G_lam||^2 ~ int^lam k^{-1} k^{4p-4} dk: the norm stays bounded in
    lam for p < 1 and ||H0 G_lam||^2 grows like log lam (p = 1 is critical).
    The d = 3 threshold p = 1/2 belongs to the quadrature evaluators only.

    Returns the norm per p under "norms" and the step norms n = 1..N_max per
    p under "steps"; at p = 0 these are the sector norms ||G||_{n-1 -> n}.
    """
    check_gram_size(model.spec)
    ps = [float(p) for p in ps]
    size = model.grid.size
    basis = model.basis
    eps_k, q_k = model.k_evals, model.k_evecs
    s = free_shift(model)
    occ_energy = model.occupation_energies
    coeffs = form_factor(model, lam)
    # the clamp keeps 2**-exponent finite when the largest entry is subnormal
    exponent = max(int(np.frexp(np.max(np.abs(coeffs)))[1]), -1021)
    coeffs *= 2.0**-exponent
    steps = {p: [] for p in ps}
    for n, lad in enumerate(basis.ladder, start=1):
        n_src = basis.sector_bounds[n] - basis.sector_bounds[n - 1]
        base = eps_k[:, None] + occ_energy[basis.sector_slice(n)][None, :] + s
        c = coeffs[:, lad.modes] * lad.factors  # C_y of each ladder entry
        first, second = lad.shared_target_pairs
        outer = c[:, first].conj().T[:, :, None] * c[:, second].T[:, None, :]
        index = (lad.sources[first], slice(None), lad.sources[second], slice(None))
        for p in ps:
            weight = ((base - s) ** p / base) ** 2
            w = (q_k[None, :, :] * weight.T[:, None, :]) @ q_k.conj().T
            gram = np.zeros((n_src, size, n_src, size), dtype=np.result_type(outer, w))
            np.add.at(gram, index, outer * w[lad.targets[first]])
            top = np.linalg.eigvalsh(gram.reshape(n_src * size, n_src * size))[-1]
            steps[p].append(float(np.sqrt(max(0.0, top))) * 2.0**exponent)
    norms = {p: max(steps[p], default=0.0) for p in ps}
    return {"norms": norms, "steps": {p: np.array(steps[p]) for p in ps}, "shift": s}


def domain_regularity_experiment(models, lams, ps) -> dict:
    """Norm table along a combined (lam, grid) refinement, plus growth factors.

    ``models`` and ``lams`` run in lockstep over the refinement points.
    Growth factors compare consecutive refinement points per p; their product
    is the total growth over the sweep.  In the d = 1 tensor model the
    factors tend to 1 for every p < 1 and stay above 1 at the critical
    p = 1 (||H0 G_lam||^2 ~ log lam), so a growth separation compares a
    subcritical power against p = 1, not against the d = 3 threshold 1/2.
    """
    ps = [float(p) for p in ps]
    rows = []
    per_p: dict[float, list] = {p: [] for p in ps}
    for model, lam in zip(models, lams):
        result = domain_regularity_norms(model, lam, ps)
        for p in ps:
            value = result["norms"][p]
            rows.append(
                {
                    "npts": model.grid.npts,
                    "lam": float(lam),
                    "p": p,
                    "norm": value,
                    "shift": result["shift"],
                }
            )
            per_p[p].append(value)
    growth = {}
    for p in ps:
        vals = per_p[p]
        factors = [b / a for a, b in zip(vals[:-1], vals[1:])]
        growth[p] = {"factors": factors, "total": float(np.prod(factors))}
    return {"rows": rows, "growth": growth}
