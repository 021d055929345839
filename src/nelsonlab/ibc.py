"""Interior-boundary-condition construction at finite truncation.

Everything revolves around G = -(H0 + s)^{-1} A with A the block-diagonal
creation family a*(v_{lam,X}).  The free part is shifted by s before
inversion so that its bottom sits at half the boson mass floor; the shift
cancels from H_ibc = (1-G)*(H0+s)(1-G) + T + E_lam(X) - s, so no identity
depends on it.  At finite boson cap G is nilpotent, which makes the Neumann
inverse of 1 - G exact and the factorization identity an algebraic one.

The assembly works in boson-number sectors: sector n is the set of tensor
rows ``FockBasis.tensor_rows(size, n, n)``.  H0 + s is block diagonal, A and
G map sector n-1 into sector n only, and G^k maps n-k into n.  So A comes
from the creation ladder, G from the free spectrum without a solve, and the
defect H_ibc - (H_lam + E_lam), the Neumann series and its residual multiply
only the nonzero sector blocks.  The domain-regularity norms apply each
step's M*M through the creation ladder, in a bounded Lanczos basis, and form
no Gram.  No matrix of the whole tensor space is formed, and each kernel
refuses at entry if its stated peak passes ``operators.MAX_BYTES``.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .fock import sector_dims
from .nelson import (
    AssembledModel,
    SectorStep,
    creation_blocks,
    form_factor,
    lower_sectors,
    sector_layout,
)
from .operators import _LANCZOS_SEED, check_bytes, lanczos_peak_bytes, opnorm, top_eigenvalue


def free_shift(model: AssembledModel) -> float:
    """Shift making H0 + s >= mass_floor / 2.

    The bottom of H0 is the bottom of K (zero-boson sector; every boson adds
    at least the mass floor).
    """
    return max(0.0, 0.5 * model.spec.mass_floor - float(model.k_evals[0]))


# ---------------------------------------------------------------------------
# sector blocks, in the format of ``nelson.sector_layout``; only nonzero blocks are kept


def _block_sum(*parts: dict) -> dict:
    """Sum of block matrices, added in order; blocks that sum to zero are dropped."""
    out = {}
    for part in parts:
        for key, block in part.items():
            out[key] = out[key] + block if key in out else block
    return {key: block for key, block in out.items() if block.any()}


def _block_product(left: dict, right: dict) -> dict:
    """Product of two block matrices, multiplying only their nonzero blocks."""
    terms = ({(m, n): lhs @ rhs} for (m, k), lhs in left.items() for (j, n), rhs in right.items() if j == k)
    return _block_sum(*terms)


def _adjoint(blocks: dict) -> dict:
    return {(n, m): block.conj().T for (m, n), block in blocks.items()}


def _resolve_free(model: AssembledModel, s: float, a: dict) -> dict:
    """G = -(H0 + s)^{-1} A blockwise, from the free spectrum and without a solve.

    On sector m, H0 + s = (Q_K x 1) diag(eps_i + E_o + s) (Q_K x 1)*, so each
    block is -(Q_K x 1)[((Q_K* x 1) A) / (eps_i + E_o + s)]: two rotations along X.
    """
    size, basis, q = model.grid.size, model.basis, model.k_evecs
    g = {}
    for (m, n), block in a.items():
        denom = model.k_evals[:, None] + model.occupation_energies[basis.sector_slice(m)] + s
        rotated = (q.conj().T @ block.reshape(size, -1)).reshape(denom.shape + (-1,))
        rotated /= -denom[:, :, None]
        g[m, n] = (q @ rotated.reshape(size, -1)).reshape(block.shape)
    return g


def _defect(model: AssembledModel, s: float, a: dict, g: dict) -> dict:
    """R = -(DG + A) - (DG + A)* + G*DG + A*G for the block matrices A and G.

    D = H0 + s is applied to G, never replaced by -A: on sector m it is K
    along X (rows X-major) plus the diagonal E_o + s.
    """
    size, basis = model.grid.size, model.basis
    dg, cross = {}, {}
    for (m, n), block in g.items():
        dg[m, n] = (model.k @ block.reshape(size, -1)).reshape(block.shape)
        dg[m, n] += (np.tile(model.occupation_energies[basis.sector_slice(m)], size) + s)[:, None] * block
        cross[m, n] = dg[m, n] + a[m, n]
        cross[m, n] *= -1.0
    return _block_sum(cross, _adjoint(cross), _block_product(_adjoint(g), dg), _block_product(_adjoint(a), g))


def invert_one_minus_G(model: AssembledModel, g: dict) -> tuple[dict, dict]:
    """Neumann series S = G + G^2 + ... of the inverse 1 + S of 1 - G, exact by nilpotency.

    G raises the boson number by one, so G^(N_max + 1) vanishes on the
    truncation and the series stops after at most N_max + 1 products; the
    identity stays implicit.  The metadata reports the number of terms and
    the norm of the first discarded power (the tail bound), exactly zero when
    nilpotency was reached; only a nonzero discarded power costs a norm.  The
    powers are products of the nonzero sector blocks of G: for the IBC G each
    power has a single block, and a G with no zero block runs the same series
    as the dense one.
    """
    n_max = model.basis.n_max
    series = {}
    power = g
    terms = 1
    tail = 0.0
    for _ in range(n_max + 1):
        if not power:
            break
        if terms > n_max:
            tail = opnorm(sector_layout(model, power, range(n_max + 1), range(n_max + 1)))
            break
        series = _block_sum(series, power)
        terms += 1
        power = _block_product(power, g)
    return series, {"terms": terms, "tail_bound": tail}


@dataclass(frozen=True, eq=False)
class IbcOperators:
    """All pieces of one IBC assembly, built with a single recorded shift.

    ``a``, ``g`` and ``series`` are the block matrices of A, of G and of the
    Neumann series S (the inverse of 1 - G is 1 + S); ``defect`` is that of
    R = H_ibc - (H_lam + E_lam(X)), zero in exact arithmetic.
    """

    shift: float
    a: dict
    g: dict
    defect: dict
    series: dict
    neumann_terms: int
    neumann_tail: float


def ibc_peak_bytes(npts: int, n_max: int) -> int:
    """Most bytes ``build_ibc`` and its identity checks hold at once on a d = 1 lattice of ``npts`` points:
    A, G, DG and the defect a float64 block per step n-1 -> n, the Neumann series one per
    pair m > n, and ``neumann_residual`` block rows 1..n_max by columns 0..n_max-1."""
    sides = [npts * dim for dim in sector_dims(npts, n_max)]
    steps = sum(top * low for top, low in zip(sides[1:], sides[:-1]))
    pairs = sum(sides[m] * sides[n] for m in range(n_max + 1) for n in range(m))
    return 8 * (4 * steps + pairs + sum(sides[1:]) * sum(sides[:-1]))


def build_ibc(model: AssembledModel, lam: float) -> IbcOperators:
    """Assemble A, G, the Neumann series, and the defect of the IBC Hamiltonian.

    G = -(H0 + s)^{-1} a*(v_{lam,X}) maps sector n-1 into sector n, with
    s = ``free_shift(model)``, so H0 + s >= mass_floor / 2 > 0, and
    H_ibc = (1-G)*(H0+s)(1-G) + T + E_lam(X) - s equals H_lam + E_lam(X)
    exactly at finite truncation; T = a(v)G.  The blocks A_n from sector n-1
    into n are ``creation_blocks``.  With D = H0 + s the square is
    D - DG - (DG)* + G*DG and H_lam + E_lam(X) = D - s + A + A* + E_lam(X),
    so D, s and E_lam cancel from the defect R = H_ibc - (H_lam + E_lam(X)):
    R[n, n-1] = -(DG)_n - A_n and R[n-1, n-1] = G_n*(DG)_n + A_n*G_n.
    """
    check_bytes("build_ibc", ibc_peak_bytes(model.grid.size, model.basis.n_max))
    s = free_shift(model)
    a = creation_blocks(model, lam)
    g = _resolve_free(model, s, a)
    series, meta = invert_one_minus_G(model, g)
    return IbcOperators(
        shift=s,
        a=a,
        g=g,
        defect=_defect(model, s, a, g),
        series=series,
        neumann_terms=meta["terms"],
        neumann_tail=meta["tail_bound"],
    )


def neumann_residual(model: AssembledModel, ops: IbcOperators) -> float:
    """Spectral norm of (1 - G)(1 + S) - 1 = S - G - GS for the Neumann series S of ``ops``.

    S and GS have blocks m <- n only for m > n, so the norm is taken on the
    rectangle of block rows 1..n_max by block columns 0..n_max-1, which
    carries all of it; blocks that cancel to zero are dropped before the layout.
    """
    resid = dict(ops.series)
    for key, block in [*ops.g.items(), *_block_product(ops.g, ops.series).items()]:
        resid[key] = resid.get(key, 0.0) - block
    resid = {key: block for key, block in resid.items() if block.any()}
    n_max = model.basis.n_max
    return opnorm(sector_layout(model, resid, range(1, n_max + 1), range(n_max)))


def factorization_identity_check(model: AssembledModel, ops: IbcOperators) -> float:
    """||R|| / ||H_lam|| on the safe sectors 0..n_max-1 for the defect R of ``ops``.

    The identity H_ibc = H_lam + E_lam(X) is exact algebra, so this measures round-off.
    """
    safe = range(model.basis.n_max)
    h_lam = lower_sectors(model, ops.a, np.zeros(model.grid.size))
    return opnorm(sector_layout(model, ops.defect, safe, safe)) / opnorm(h_lam)


def defect_norm(ops: IbcOperators) -> float:
    """Frobenius norm of all blocks of the defect R of ``ops``.

    By Weyl's inequality it bounds max_i |lambda_i(H_ibc) - lambda_i(H_lam + E_lam)|.
    """
    return float(np.linalg.norm([np.linalg.norm(block) for block in ops.defect.values()]))


# ---------------------------------------------------------------------------
# domain regularity


# Lanczos basis length of each step norm.  The shipped configs take at most
# 164 steps (``configs/regularity-128.cfg`` at npts 128, p = 1), so they never
# restart, where 128 vectors would; a one-boson step at npts 512, p = 1 needs
# 379 steps in one basis and takes 596 with two restarts of this one.
_BASIS = 256


def _step_peak_bytes(npts: int, n_src: int, n_tgt: int, vectors: int) -> int:
    """Most bytes one sector step n-1 -> n holds with a Lanczos basis of ``vectors`` vectors, float64.

    Besides the basis (``lanczos_peak_bytes``) and the coefficient table
    (npts x npts), the ladder has npts * n_src entries, so its coefficients
    and the two gathers of one scatter are (npts, npts * n_src) each; the
    rotated vector, the weight and their temporaries are a few (npts, n_tgt).
    """
    side = npts * n_src
    return lanczos_peak_bytes(side, vectors, 8) + 8 * npts * (npts + 3 * side + 4 * n_tgt)


def regularity_peak_bytes(npts: int, n_max: int) -> int:
    """Most bytes ``domain_regularity_norms`` holds at once on a d = 1 lattice of ``npts`` points:
    the widest step with a full Lanczos basis of ``_BASIS`` vectors (``_step_peak_bytes``), or the
    three complex npts x npts tables of ``form_factor`` before the steps."""
    dims = sector_dims(npts, n_max)
    steps = (_step_peak_bytes(npts, src, tgt, min(_BASIS, npts * src)) for src, tgt in zip(dims[:-1], dims[1:]))
    return max([48 * npts**2, *steps])


def domain_regularity_norms(model: AssembledModel, lam: float, ps) -> dict:
    """||H0^p G_lam|| for each p, from the top eigenvalue of M*M on each sector step.

    G = -(H0 + s)^{-1} A maps sector n-1 into sector n, so the norm is the
    largest of the step norms.  On sector n, H0 = (Q_K x 1) diag(eps_i + E_o)
    (Q_K x 1)*; the left factor (Q_K x 1) is unitary and is dropped, which
    leaves M = S_p (Q_K* x 1) A with S_p = (eps_i + E_o)^p / (eps_i + E_o + s)
    and

        M*M x = A_n* (Q_K x 1) (S_p^2 * ((Q_K* x 1) A_n x)),

    two ladder scatters and two rotations along X (a ``SectorStep``).  The
    step norm is the square root of its top eigenvalue
    (``operators.top_eigenvalue`` in a basis of at most ``_BASIS`` vectors),
    clamped at zero so that zero coupling gives exactly 0.0.  The start
    vector is a standard normal draw seeded with ``_LANCZOS_SEED``, read in
    source-major order (a, y), as the Gram sum of ``nelson._step_gram`` lays
    out its rows.  A step holds the Lanczos basis and the apply's workspace, a few
    arrays of npts x (ladder entries), and nothing of the side squared
    (``regularity_peak_bytes``).  The shift s enters only through the
    resolvent factor of G.  An exact power-of-two scale of the coefficients
    keeps their squares from underflowing.

    On the d = 1 tensor model the one-boson sector gives
    ||H0^p G_lam||^2 ~ int^lam k^{-1} k^{4p-4} dk: the norm stays bounded in
    lam for p < 1 and ||H0 G_lam||^2 grows like log lam (p = 1 is critical).
    The d = 3 threshold p = 1/2 belongs to the quadrature evaluators only.

    Returns the norm per p under "norms" and the step norms n = 1..N_max per
    p under "steps"; at p = 0 these are the sector norms ||G||_{n-1 -> n}.
    "plans" holds each step's side and its stated peak bytes for the
    Lanczos basis it grew to (``_step_peak_bytes``), and under "lanczos" the
    steps, restarts and final relative residual bound of each p's top eigenvalue.
    """
    check_bytes("domain_regularity_norms", regularity_peak_bytes(model.grid.size, model.basis.n_max))
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
    plans = []
    for n, lad in enumerate(basis.ladder, start=1):
        n_src, n_tgt = (int(dim) for dim in np.diff(basis.sector_bounds[n - 1 : n + 2]))
        side = n_src * size
        length = min(_BASIS, side)
        # the seeded draw is source-major (a, y); the apply reads X-major (y, a)
        start = np.random.default_rng(_LANCZOS_SEED).standard_normal(side).reshape(n_src, size).T.ravel()
        base = eps_k[:, None] + occ_energy[basis.sector_slice(n)][None, :] + s
        step = SectorStep.of(lad, coeffs, q_k)
        records = []
        for p in ps:
            weight = ((base - s) ** p / base) ** 2
            top, taken, residual = top_eigenvalue(lambda x: step.couple(weight * step.couple_adjoint(x)), _BASIS, start)
            records.append({"p": p, "steps": taken, "restarts": (taken - 1) // length, "residual": residual})
            steps[p].append(float(np.sqrt(max(0.0, top))) * 2.0**exponent)
        vectors = min(length, max((r["steps"] for r in records), default=1))
        plans.append({"side": side, "peak_bytes": _step_peak_bytes(size, n_src, n_tgt, vectors), "lanczos": records})
    norms = {p: max(steps[p], default=0.0) for p in ps}
    return {"norms": norms, "steps": {p: np.array(steps[p]) for p in ps}, "shift": s, "plans": plans}


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
    rows, points = [], []
    per_p: dict[float, list] = {p: [] for p in ps}
    for model, lam in zip(models, lams):
        result = domain_regularity_norms(model, lam, ps)
        points.append({"npts": model.grid.npts, "lam": float(lam), "steps": result["plans"]})
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
    return {"rows": rows, "growth": growth, "points": points}
