"""Truncated bosonic Fock space over a finite mode set.

The basis enumerates occupation vectors sector by sector, vacuum first.
Annihilation is exact on the truncation and creation is its adjoint, so the
canonical commutation relations and all algebraic identities built from them
hold exactly on states whose sector stays far enough below the particle cap;
"safe sectors" are those at least two below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations_with_replacement
from math import comb, factorial

import numpy as np

from .operators import check_hermitian, psd_power


def sector_dims(n_modes: int, n_max: int) -> list[int]:
    """Number of occupation vectors with n bosons, for n = 0..n_max."""
    return [comb(n_modes + n - 1, n) for n in range(n_max + 1)]


def _compositions(total: int, parts: int) -> np.ndarray:
    """Occupation vectors summing to ``total``, one row each, first mode weakly first (no recursion)."""
    count = comb(parts + total - 1, total)
    picks = chain.from_iterable(combinations_with_replacement(range(parts), total))
    occ = np.zeros((count, parts), dtype=np.int64)
    for column in np.fromiter(picks, dtype=np.int64, count=count * total).reshape(count, total).T:
        occ[np.arange(count), column] += 1
    return occ


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque sortable key per row, equal exactly when the rows are."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()


def _run_heads(keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal keys."""
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


@dataclass(frozen=True, eq=False)
class SectorLadder:
    """Nonzero elements <o| a*_k |a> = sqrt(occ_o[k]) from sector n-1 to n.

    One entry per pair o = a + e_k, ordered by target; ``targets`` and
    ``sources`` are local indices within sectors n and n-1.
    """

    targets: np.ndarray
    sources: np.ndarray
    modes: np.ndarray
    factors: np.ndarray

    @cached_property
    def target_runs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """For j = 0, 1, ...: the targets whose run has a j-th entry, and those entries.

        Every target of the sector has a run, of one entry per occupied
        mode, so j = 0 lists them all.
        """
        heads = _run_heads(self.targets)
        lengths = np.diff(heads, append=len(self.targets))
        return [(np.flatnonzero(lengths > j), heads[lengths > j] + j) for j in range(lengths.max(initial=0))]

    @cached_property
    def by_source(self) -> tuple[np.ndarray, np.ndarray]:
        """The entries stable-sorted by source, and the first of each source's run in that order."""
        order = np.argsort(self.sources, kind="stable")
        return order, _run_heads(self.sources[order])


@dataclass(frozen=True, eq=False)
class FockBasis:
    n_modes: int
    n_max: int
    occupations: np.ndarray  # (dim, n_modes)
    sector_bounds: tuple[int, ...]  # sector n occupies rows [bounds[n], bounds[n+1])

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    @cached_property
    def index(self) -> dict:
        """Row of each occupation vector, keyed by its tuple."""
        return {tuple(row): i for i, row in enumerate(self.occupations.tolist())}

    def sector_slice(self, n: int) -> slice:
        return slice(self.sector_bounds[n], self.sector_bounds[n + 1])

    def sector_totals(self) -> np.ndarray:
        return self.occupations.sum(axis=1)

    def tensor_rows(self, copies: int, low: int, high: int) -> np.ndarray:
        """Rows of the states with low <= total boson number <= high.

        The rows index ``copies`` stacked Fock blocks, block-major: the
        X-major tensor index of a lattice with ``copies`` points.
        """
        totals = self.sector_totals()
        within = np.where((totals >= low) & (totals <= high))[0]
        return np.concatenate([xi * self.dim + within for xi in range(copies)])

    @cached_property
    def ladder(self) -> tuple[SectorLadder, ...]:
        """Creation ladder tables; entry n-1 couples sector n-1 to sector n."""
        occ = self.occupations
        tables = []
        for n in range(1, self.n_max + 1):
            upper = occ[self.sector_slice(n)]
            lower = occ[self.sector_slice(n - 1)]
            targets, modes = np.nonzero(upper)
            removed = upper[targets]
            removed[np.arange(len(targets)), modes] -= 1
            # find each occupation with one boson removed among the rows of
            # sector n-1, comparing whole rows as raw bytes
            keys = _row_keys(lower)
            order = np.argsort(keys)
            sources = order[np.searchsorted(keys[order], _row_keys(removed))]
            factors = np.sqrt(upper[targets, modes])
            tables.append(SectorLadder(targets, sources, modes, factors))
        return tuple(tables)

    @cached_property
    def creation_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Nonzero elements <row| a*_mode |col> = factor over the whole basis.

        The ``ladder`` tables with their sector offsets added, concatenated:
        a*(f) has entries f[modes] * factors at (rows, cols).
        """
        bounds = self.sector_bounds
        entries = [
            (bounds[n] + lad.targets, bounds[n - 1] + lad.sources, lad.modes, lad.factors)
            for n, lad in enumerate(self.ladder, start=1)
        ]
        empty = (np.zeros(0, dtype=np.int64),) * 3 + (np.zeros(0),)
        return tuple(np.concatenate(column) for column in zip(empty, *entries))

    @cached_property
    def ladder_runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries of a* (``creation_entries``) and of its transpose a, summed by the row they add to.

        Concatenates the (rows, cols) pairs of the creation entries with the
        swapped pairs and stable-sorts them by row: returns that order, the
        column each sorted entry reads and the first entry of each row's run.
        With n_max >= 1 every basis row has a run, so the runs are the rows.
        """
        rows, cols, _, _ = self.creation_entries
        adds_to = np.concatenate((rows, cols))
        order = np.argsort(adds_to, kind="stable")
        return order, np.concatenate((cols, rows))[order], _run_heads(adds_to[order])


def fock_basis(n_modes: int, n_max: int) -> FockBasis:
    if n_modes < 1 or n_max < 0:
        raise ValueError("need n_modes >= 1 and n_max >= 0")
    sectors = [_compositions(n, n_modes) for n in range(n_max + 1)]
    bounds = np.cumsum([0] + [len(sector) for sector in sectors])
    return FockBasis(n_modes, n_max, np.concatenate(sectors), tuple(int(b) for b in bounds))


def annihilate(basis: FockBasis, f: np.ndarray) -> np.ndarray:
    """a(f) for mode coefficients ``f``; antilinear in f."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (basis.n_modes,):
        raise ValueError(f"expected {basis.n_modes} mode coefficients")
    rows, cols, modes, factors = basis.creation_entries
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    mat[cols, rows] = np.conj(f)[modes] * factors
    return mat


def second_quantize(basis: FockBasis, h: np.ndarray) -> np.ndarray:
    """dGamma(h) for a one-particle matrix ``h`` on the modes."""
    h = np.asarray(h, dtype=complex)
    if h.shape != (basis.n_modes, basis.n_modes):
        raise ValueError("one-particle matrix has wrong shape")
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    occ = basis.occupations
    nz = [(j, k) for j in range(basis.n_modes) for k in range(basis.n_modes) if h[j, k] != 0]
    for s in range(basis.dim):
        state = occ[s]
        for j, k in nz:
            if state[k] == 0:
                continue
            if j == k:
                mat[s, s] += h[j, j] * state[j]
                continue
            target = state.copy()
            target[k] -= 1
            target[j] += 1
            t = basis.index[tuple(target)]
            mat[t, s] += h[j, k] * np.sqrt(state[k] * (state[j] + 1))
    return mat


def number_operator(basis: FockBasis) -> np.ndarray:
    return check_hermitian(np.diag(basis.sector_totals().astype(complex)))


def apply_ladder(basis: FockBasis, create: np.ndarray, annihilate: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """(a*(create) + a(annihilate)) applied to each row of ``vectors``, shape (k, dim).

    One gather of the ``ladder_runs`` entries and one ``np.add.reduceat``
    by row: no matrix of side dim is formed.  Pass zeros for a side that is
    not wanted.  Real coefficients and vectors give a real result.
    """
    create, annihilate = np.asarray(create), np.asarray(annihilate)
    if create.shape != (basis.n_modes,) or annihilate.shape != (basis.n_modes,):
        raise ValueError(f"expected {basis.n_modes} mode coefficients")
    _, _, modes, factors = basis.creation_entries
    order, reads, heads = basis.ladder_runs
    entries = np.concatenate((create[modes] * factors, np.conj(annihilate)[modes] * factors))[order]
    if not len(entries):  # n_max 0: no ladder
        return np.zeros(vectors.shape, dtype=np.result_type(entries, vectors))
    gathered = np.take(vectors, reads, axis=1) * entries
    return np.add.reduceat(gathered, heads, axis=1)


def apply_field(basis: FockBasis, f: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Phi(f) = (a*(f) + a(f)) / sqrt(2) applied to each row of ``vectors``, in complex arithmetic."""
    return np.true_divide(apply_ladder(basis, f, f, vectors), np.sqrt(2.0), dtype=complex)


# one step of ``weyl_rows``: the bound on the norm of its generator, and the
# size its first dropped Taylor term stays below
_STEP_NORM = 2.0
_TAYLOR_TAIL = 2.0**-53


def weyl_rows(basis: FockBasis, f: np.ndarray, rows) -> tuple[np.ndarray, int, int]:
    """Rows ``rows`` of V(f) = exp(i Pi(f)) without forming V(f): (V(f)[rows, :], steps, terms).

    V(f)[rows, :] is the complex conjugate of the rows (V(f)*[:, rows])^T:
    exp(G) applied to the unit vectors of ``rows`` (``apply_ladder``, one
    row each), G = -i Pi(f) = (a*(f) - a(f)) / sqrt(2).  On
    the truncation ||a(f)|| = sqrt(n_max) ||f||, so ||G|| <= sqrt(2 n_max) ||f||.
    The exponential is taken in ``steps`` equal steps, each of norm at most 2,
    and each step is a Taylor series of ``terms`` terms whose first dropped
    term is below 2^-53 (the terms peak at 2, so roundoff stays near 1e-15).
    A real f keeps the series real.
    """
    f = np.asarray(f)
    rows = np.asarray(rows)
    bound = np.sqrt(2.0 * basis.n_max) * float(np.linalg.norm(f))
    steps = max(1, int(np.ceil(bound / _STEP_NORM)))
    theta = bound / steps
    terms, dropped = 0, theta  # theta^(terms+1) / (terms+1)!
    while dropped > _TAYLOR_TAIL:
        terms += 1
        dropped *= theta / (terms + 1)
    g = f / (np.sqrt(2.0) * steps)
    x = np.zeros((len(rows), basis.dim), dtype=np.result_type(g, float))
    x[np.arange(len(rows)), rows] = 1.0
    for _ in range(steps):
        term = x
        for j in range(1, terms + 1):
            term = apply_ladder(basis, g, -g, term)
            term /= j
            x += term
    return x.conj(), steps, terms


def weyl_truncation_tolerance(n_max: int, sector_cap: int, f_norm: float) -> float:
    """Heuristic size of truncation effects of Weyl identities on sectors <= cap.

    Leakage must pass through the cut at the particle cap, which costs
    ||f||^(2K) / K! with K the sector headroom.
    """
    k = max(1, n_max - sector_cap)
    return float(np.exp(f_norm**2) * f_norm ** (2 * k) / factorial(k))


def conjugation_deviations(
    basis: FockBasis, freqs: np.ndarray, energies: np.ndarray, g: np.ndarray, u: np.ndarray, rows, w=None
) -> tuple[np.ndarray, np.ndarray]:
    """The (dGamma, field) deviations of the Weyl conjugation identities of V(g) on the rows s = ``rows``.

    With W = V(g)[s, :] (``weyl_rows``, or ``w`` when the caller has it) and
    h diagonal in the modes (per-mode ``freqs``, dGamma(h) = diag(``energies``)),
    each is an |s| x |s| array that vanishes on the safe sectors up to
    truncation effects (``weyl_truncation_tolerance``):

      dGamma: W dGamma(h) W* - (dGamma(h) + Phi(h g) + Re<h g, g> / 2)[s, s]
      field:  W Phi(u) W* - (Phi(u) + Re<u, g>)[s, s]

    Each operator M is applied to the rows of conj(W), W M W* = W (M applied
    to the rows of conj(W))^T, or to the unit vectors of s, whose image is
    M[:, s]^T: no matrix of side dim is formed.
    """
    if w is None:
        w, _, _ = weyl_rows(basis, g, rows)
    ident = np.eye(len(rows))
    units = np.zeros((len(rows), basis.dim))  # I[s, :]
    units[np.arange(len(rows)), rows] = 1.0
    w_bar = w.conj()
    conj = w @ (w_bar * energies).T
    pred = np.diag(energies[rows]) + apply_field(basis, freqs * g, units)[:, rows].T
    pred += 0.5 * np.vdot(freqs * g, g).real * ident
    dgamma_dev = conj - pred
    conj = w @ apply_field(basis, u, w_bar).T
    pred = apply_field(basis, u, units)[:, rows].T + np.vdot(u, g).real * ident
    return dgamma_dev, conj - pred


def dgamma_power(basis: FockBasis, h: np.ndarray, alpha: float) -> np.ndarray:
    """dGamma(h)^alpha for hermitian psd ``h`` (blockwise eigh)."""
    return check_hermitian(psd_power(second_quantize(basis, h), alpha))


# ---------------------------------------------------------------------------
# reference checks


def ac_estimate_report(
    basis: FockBasis,
    h: np.ndarray,
    f: np.ndarray,
    g: np.ndarray,
    psi: np.ndarray,
    alpha: float,
) -> dict:
    """Left and right sides of the annihilation-bound family.

    Requires h >= 1 hermitian on the modes and alpha >= 1/2.  The operators
    are dense arrays on the Fock basis; dGamma(h)^alpha and (N + 1)^{-1/2}
    pass ``check_hermitian``.  Returns pairs (lhs, rhs); each inequality
    asserts lhs <= rhs.
    """
    if alpha < 0.5:
        raise ValueError("alpha must be at least 1/2")
    h = np.asarray(h, dtype=complex)
    wmin = float(np.min(np.linalg.eigvalsh(h)))
    if wmin < 1.0 - 1e-12:
        raise ValueError(f"need h >= 1, got min eigenvalue {wmin}")
    psi = np.asarray(psi, dtype=complex)

    def vec_norm(x):
        return float(np.linalg.norm(x))

    dg_alpha = dgamma_power(basis, h, alpha)
    a_f = annihilate(basis, f)
    a_g = annihilate(basis, g)
    n_inv_half = check_hermitian(psd_power(number_operator(basis) + np.eye(basis.dim), -0.5))

    lhs_a = vec_norm(a_f @ psi)
    rhs_a = vec_norm(psd_power(h, -alpha) @ f) * vec_norm(dg_alpha @ psi)

    lhs_c = vec_norm(a_f.conj().T @ psi)
    rhs_c = rhs_a + vec_norm(f) * vec_norm(psi)

    lhs_p = vec_norm(n_inv_half @ (a_f @ (a_g @ psi)))
    rhs_p = (
        vec_norm(psd_power(h, -alpha / 2) @ f)
        * vec_norm(psd_power(h, -alpha / 2) @ g)
        * vec_norm(dg_alpha @ psi)
    )
    return {
        "annihilate": (lhs_a, rhs_a),
        "create": (lhs_c, rhs_c),
        "pair": (lhs_p, rhs_p),
    }
