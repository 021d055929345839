"""Phase-space calculus for operators on the periodic lattice.

A symbol is a complex tabulation a(x, xi) over the product of the position
lattice and the momentum lattice.  Quantization at ordering parameter
t in [0, 1] places the position argument at t*x + (1-t)*y.  Off-lattice
midpoints are evaluated through the symbol's band-limited trigonometric
interpolant in x, which makes quantization a bijection on tabulated symbols
and turns the composition, adjoint, and reordering rules into exact finite
sums.

Conventions: momenta carry the signed FFT-order values of
``Grid.axis_momenta``; displacement frequencies (the duals of xi) use the
nonpositive representative per axis.  Operator matrices act directly on flat
position samples, so the constant symbol 1 quantizes to the identity matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grid import Grid, cosine_ramp, momentum_multiplier
from .operators import HERMITIAN_TOL, check_bytes, hermitian_func, opnorm


class EllipticityError(ValueError):
    """The symbol has no positive lower bound against its order function."""


@dataclass(frozen=True)
class OrderFunction:
    """Positive weight M controlling symbol growth.

    ``values`` is tabulated over the flat momentum mesh (shape (size,)) or
    over the full phase-space lattice (shape (size, size)).
    """

    name: str
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if np.min(v) <= 0:
            raise ValueError(f"order function {self.name!r} must be strictly positive")

    def table(self, size: int) -> np.ndarray:
        """Values broadcast to the (x, xi) table shape."""
        if self.values.ndim == 1:
            return np.broadcast_to(self.values[None, :], (size, size))
        return self.values


def calculus_peak_bytes(size: int, symbols: int) -> int:
    """Most bytes the symbol calculus holds at once on a lattice of ``size`` points, in complex
    tables of its side: 16 (``parametrix``, its widest step, makes 14.5 from empty caches)
    and the ``symbols`` that the caller holds besides.  The psido-calculus runner states
    3, the most it holds at once: it peaks at 14 tables over its draws and at 17 in its
    parametrix, beside the caches that the draws' other orderings left."""
    return 16 * size**2 * (16 + symbols)


def xi_power_order(grid: Grid, m: float) -> OrderFunction:
    """The family <xi>^m."""
    return OrderFunction(f"xi^{m:g}", grid.xi_bracket() ** m)


@dataclass(frozen=True, eq=False)
class Symbol:
    """Tabulated phase-space symbol with an optional order function.

    ``values[j, k]`` is a(x_j, xi_k) with x flattened in C order and xi in
    FFT order.  Poisson brackets are computed by spectral differentiation.
    """

    grid: Grid
    values: np.ndarray
    order: OrderFunction | None = None

    def __post_init__(self) -> None:
        n = self.grid.size
        check_bytes("symbol calculus", calculus_peak_bytes(n, 0))
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (n, n):
            raise ValueError(f"values must have shape ({n}, {n}), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("symbol values must be finite")
        object.__setattr__(self, "values", v)

    def order_table(self) -> np.ndarray:
        if self.order is None:
            return np.ones((self.grid.size,) * 2)
        return self.order.table(self.grid.size)


def constant_symbol(grid: Grid, value: complex = 1.0) -> Symbol:
    return Symbol(grid, np.full((grid.size,) * 2, value, dtype=complex))


# -- internal index helpers ------------------------------------------------


def _grid_table(build):
    """Keep the last table ``build`` made, read-only, keyed on its arguments.

    One entry per builder holds about one grid's tables, so the cache stays
    bounded for any sequence of orderings and any grid side; equal grids
    hash alike and share the entry.
    """

    @functools.lru_cache(maxsize=1)
    @functools.wraps(build)
    def table(*key):
        out = build(*key)
        out.flags.writeable = False
        return out

    return table


@_grid_table
def _axis_components(grid: Grid) -> np.ndarray:
    """(size, dim) integer components of the flattened multi-index."""
    comps = np.unravel_index(np.arange(grid.size), grid.shape)
    return np.stack(comps, axis=-1)


@_grid_table
def _target_index(grid: Grid) -> np.ndarray:
    """TG[j, n] = flat index of (j - n) mod L, per axis."""
    comp = _axis_components(grid)
    diff = (comp[:, None, :] - comp[None, :, :]) % grid.npts
    return np.ravel_multi_index(np.moveaxis(diff, -1, 0), grid.shape)


def _signed(grid: Grid, comp: np.ndarray) -> np.ndarray:
    """Signed (FFT-order) representative of index components."""
    L = grid.npts
    return (comp + L // 2) % L - L // 2


@_grid_table
def _translation_phase(grid: Grid, shift: float) -> np.ndarray:
    """phase[xi, n] = exp(i * shift * xi . theta_n), theta_n the signed
    displacement of column n."""
    disp = _signed(grid, _axis_components(grid)) * grid.spacing
    return np.exp(1j * shift * (grid.momentum_mesh() @ disp.T))


@_grid_table
def _column_table(grid: Grid) -> np.ndarray:
    """E[x, xi] = exp(i x . xi) = w^(k . n), w = exp(2*pi*i/L), for the index
    components k and n: the plane-wave table of the twisted product in ``moyal``.

    It reads the L-th roots of unity at (k . n) mod L; the unreduced phase
    grows like pi * L / 2 and costs digits in exp.  The same table is the
    DFT matrix over the xi axes, which ``quantize`` and ``dequantize`` apply
    as FFTs instead.
    """
    L = grid.npts
    comp = _axis_components(grid)
    return np.exp(2j * np.pi / L * np.arange(L))[(comp @ comp.T) % L]


def _translate_x(grid: Grid, cols: np.ndarray, shift: float) -> np.ndarray:
    """Move column n of ``cols`` by shift * theta_n in x, through its x-spectrum."""
    S, d = grid.size, grid.dim
    spec = np.fft.fftn(cols.reshape(grid.shape + (S,)), axes=range(d)).reshape(S, S)
    spec *= _translation_phase(grid, shift)
    return np.fft.ifftn(spec.reshape(grid.shape + (S,)), axes=range(d)).reshape(S, S)


@_grid_table
def _chi_mesh(grid: Grid) -> np.ndarray:
    """Signed pairing between x-frequencies and xi-frequencies.

    chi[m, p] = (2*pi/L) * sum_axes mtilde_a * ptilde_a reproduces the phase
    the midpoint interpolant attaches to each phase-space mode, so the
    reordering multiplier exp(i*(s-t)*chi) is consistent with quantize.  The
    xi axis carries the flipped representative (+L/2 at the Nyquist mode):
    quantize pairs xi-mode p with displacement (-p) mod L, whose signed
    representative fixes the Nyquist mode instead of mirroring it.
    """
    L = grid.npts
    mtil = np.rint(np.fft.fftfreq(L) * L).astype(int)
    ptil = -mtil[(-np.arange(L)) % L]
    chi = np.zeros((grid.size, grid.size))
    mcomp = _axis_components(grid)
    for a in range(grid.dim):
        chi = chi + np.multiply.outer(mtil[mcomp[:, a]], ptil[mcomp[:, a]])
    return 2.0 * np.pi / L * chi


@_grid_table
def _reordering_phase(grid: Grid, shift: float) -> np.ndarray:
    """exp(i * shift * chi) on the phase-space lattice shape: the multiplier
    of ``change_quantization`` for shift = t_to - t_from."""
    return np.exp(1j * shift * _chi_mesh(grid)).reshape(grid.shape * 2)


def _phase_derivative(grid: Grid, values: np.ndarray, alpha: Sequence[int]) -> np.ndarray:
    """Spectral derivative d^alpha over the 2*dim phase axes."""
    d, L = grid.dim, grid.npts
    arr = values.reshape(grid.shape * 2)
    eta = grid.axis_momenta()
    theta = np.fft.fftfreq(L, d=1.0 / L) * grid.spacing
    for axis, p in enumerate(alpha):
        if p == 0:
            continue
        freq = eta if axis < d else theta
        mult = (1j * freq) ** p
        shape = [1] * 2 * d
        shape[axis] = L
        arr = np.fft.ifft(np.fft.fft(arr, axis=axis) * mult.reshape(shape), axis=axis)
    return arr.reshape(grid.size, grid.size)


# -- quantization ----------------------------------------------------------


def quantize(a: Symbol, t: float) -> np.ndarray:
    """Matrix of Op_t(a) acting on flat position samples.

    The kernel is K(x, y) = dual_weight * sum_xi e^{i<x-y, xi>} a(m, xi) with
    m = t*x + (1-t)*y, and the returned matrix already carries the position
    quadrature weight, so quantize(1) is the identity.  An off-lattice m is
    evaluated through the band-limited interpolant of a in x.

    Column n of the kernel (displacement theta_n = x - y) is the t = 1
    column sum_xi a(x, xi) e^{i xi . theta_n} / S with x moved back by
    (1-t) theta_n, and row x places it at y = x - n.  With xi = k and
    theta_n = n in index components, e^{i xi . theta_n} = e^{2 pi i k . n / L},
    so the column sums are one inverse FFT over the xi axes: S^2 log S work.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"ordering parameter t must lie in [0, 1], got {t}")
    grid = a.grid
    S, d = grid.size, grid.dim
    cols = np.fft.ifftn(a.values.reshape((S,) + grid.shape), axes=range(1, d + 1)).reshape(S, S)
    if t != 1.0:
        cols = _translate_x(grid, cols, t - 1.0)
    out = np.empty((S, S), dtype=complex)
    out[np.arange(S)[:, None], _target_index(grid)] = cols
    return out


def dequantize(grid: Grid, op, t: float) -> Symbol:
    """Inverse of quantization: the symbol with quantize(a, t) = op.

    The steps of ``quantize`` run backwards: gather the displacement columns,
    move x forward by (1-t) theta_n, and undo the column sums with the
    forward FFT over the displacement axes, the inverse of quantize's
    inverse FFT over the xi axes.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"ordering parameter t must lie in [0, 1], got {t}")
    A = np.asarray(op, dtype=complex)
    S, d = grid.size, grid.dim
    if A.shape != (S, S):
        raise ValueError(f"operator must be {S} x {S}")
    cols = A[np.arange(S)[:, None], _target_index(grid)]  # cols[x, n] = A[x, x - n]
    if t != 1.0:
        cols = _translate_x(grid, cols, 1.0 - t)
    vals = np.fft.fftn(cols.reshape((S,) + grid.shape), axes=range(1, d + 1)).reshape(S, S)
    return Symbol(grid, vals)


def change_quantization(a: Symbol, t_from: float, t_to: float) -> Symbol:
    """Symbol with Op_{t_to}(result) = Op_{t_from}(a), exactly on the lattice.

    At t_to == t_from that symbol is ``a`` itself.
    """
    if t_to == t_from:
        return a
    grid = a.grid
    c = np.fft.fftn(a.values.reshape(grid.shape * 2))
    c *= _reordering_phase(grid, t_to - t_from)
    vals = np.fft.ifftn(c).reshape(grid.size, grid.size)
    return Symbol(grid, vals, a.order)


def adjoint_symbol(a: Symbol, t: float) -> Symbol:
    """Symbol of the conjugate transpose: Op_t(result) = Op_t(a)^dagger."""
    a1 = change_quantization(a, t, 1.0)
    grid = a.grid
    S, d = grid.size, grid.dim
    c2 = np.fft.fftn(a1.values.reshape(grid.shape + (S,)), axes=range(d)).reshape(S, S) / S
    # gather[m, k'] = flat index of (k' - m) mod L, copied to C order: an
    # F-ordered h would move the last bits of the FFT below
    gather = _target_index(grid).T.copy()
    h = np.conj(c2)[np.arange(S)[:, None], gather]
    vals = np.fft.fftn(h.reshape(grid.shape + (S,)), axes=range(d)).reshape(S, S)
    return change_quantization(Symbol(grid, vals, a.order), 1.0, t)


def moyal(a: Symbol, b: Symbol, t: float = 1.0) -> Symbol:
    """Composition symbol: Op_t(moyal(a, b, t)) = Op_t(a) Op_t(b).

    Computed by the exact twisted product at t = 1 and conjugated to other
    orderings with change_quantization, so the identity holds to roundoff
    for arbitrary tabulated symbols.
    """
    if a.grid != b.grid:
        raise ValueError("symbols must share a grid")
    grid = a.grid
    a1 = change_quantization(a, t, 1.0).values if t != 1.0 else a.values
    b1 = change_quantization(b, t, 1.0).values if t != 1.0 else b.values
    S, d = grid.size, grid.dim
    # E[x, xi] = exp(i x . xi) is the symmetric table of the exact integer phase
    E = _column_table(grid)
    bhat = np.fft.fftn(b1.reshape(grid.shape + (S,)), axes=range(d)).reshape(S, S)
    # _target_index(grid)[k, k'] = flat index of (k - k') mod L
    G = bhat[_target_index(grid), np.arange(S)[None, :]]
    c1 = np.conj(E) * ((a1 * E) @ G) / S
    order = None
    if a.order is not None or b.order is not None:
        ta = a.order.table(S) if a.order is not None else np.ones((S, S))
        tb = b.order.table(S) if b.order is not None else np.ones((S, S))
        na = a.order.name if a.order is not None else "1"
        nb = b.order.name if b.order is not None else "1"
        order = OrderFunction(f"({na})*({nb})", ta * tb)
    prod = Symbol(grid, c1, order)
    if t != 1.0:
        prod = change_quantization(prod, 1.0, t)
        prod = Symbol(grid, prod.values, order)
    return prod


def poisson_bracket(a: Symbol, b: Symbol) -> Symbol:
    """{a, b} = sum_axes (d_x a d_xi b - d_xi a d_x b), spectrally."""
    if a.grid != b.grid:
        raise ValueError("symbols must share a grid")
    grid = a.grid
    d = grid.dim
    vals = np.zeros((grid.size,) * 2, dtype=complex)
    for ax in range(d):
        ex = tuple(1 if i == ax else 0 for i in range(2 * d))
        ek = tuple(1 if i == d + ax else 0 for i in range(2 * d))
        vals += _phase_derivative(grid, a.values, ex) * _phase_derivative(grid, b.values, ek)
        vals -= _phase_derivative(grid, a.values, ek) * _phase_derivative(grid, b.values, ex)
    return Symbol(grid, vals)


def poisson_residual(a: Symbol, b: Symbol, t: float = 1.0) -> float:
    """Weighted sup of (a#b - b#a) - i{a, b}.

    The weight is M_a * M_b * <xi>^-2, the order the leading Poisson term
    leaves behind; the standard-ordering expansion fixes the sign of the
    bracket used here.
    """
    grid = a.grid
    comm = moyal(a, b, t).values - moyal(b, a, t).values
    resid = comm - 1j * poisson_bracket(a, b).values
    weight = a.order_table() * b.order_table() * (grid.xi_bracket() ** -2)[None, :]
    return float(np.max(np.abs(resid) / weight))


# -- kernels and norm estimators --------------------------------------------


def schur_bound(op: np.ndarray) -> float:
    """max of the absolute row and column sums of the matrix; dominates the norm.

    The matrix of a kernel operator is K(x, y) * weight, so these are the
    weighted absolute kernel sums of the Schur test.
    """
    absk = np.abs(op)
    return float(max(absk.sum(axis=0).max(), absk.sum(axis=1).max()))


def cotlar_stein_bound(blocks: Sequence[np.ndarray]) -> float:
    """max of the two square-root cross-Gram row sums; dominates ||sum||."""
    if not blocks:
        return 0.0
    n = len(blocks)
    star = np.zeros((n, n))
    plain = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            star[i, j] = np.sqrt(opnorm(blocks[i].conj().T @ blocks[j]))
            plain[i, j] = np.sqrt(opnorm(blocks[i] @ blocks[j].conj().T))
    return float(max(star.sum(axis=1).max(), plain.sum(axis=1).max()))


# -- parametrix and resummation ---------------------------------------------


def ellipticity_margin(a: Symbol) -> float:
    """min |a| / M over phase space."""
    return float(np.min(np.abs(a.values) / a.order_table()))


def parametrix(a: Symbol, t: float = 1.0, iterations: int = 3):
    """Neumann parametrix b ~ (1/a) # (1 + r + r#r + ...), r = 1 - a#(1/a).

    Returns (b, residuals) where residuals[k] = ||quantize(a # b_k - 1, t)||
    for k = 0 .. iterations; the residuals are reported, never swallowed.
    """
    margin = ellipticity_margin(a)
    if margin <= 1e-14:
        raise EllipticityError(f"symbol is not elliptic: min |a|/M = {margin:.3e}")
    grid = a.grid
    inv_order = None
    if a.order is not None:
        inv_order = OrderFunction(f"1/({a.order.name})", 1.0 / a.order.table(grid.size))
    b0 = Symbol(grid, 1.0 / a.values, inv_order)
    one = constant_symbol(grid)
    r = Symbol(grid, one.values - moyal(a, b0, t).values)
    ident = np.eye(grid.size)
    series = one
    power = one
    residuals = []
    b = b0
    for k in range(iterations + 1):
        if k > 0:
            power = moyal(r, power, t)
            series = Symbol(grid, series.values + power.values)
            b = Symbol(grid, moyal(b0, series, t).values, inv_order)
        residuals.append(opnorm(quantize(moyal(a, b, t), t) - ident))
    return b, residuals


def measured_order(a: Symbol, min_shell: int = 1) -> float:
    """Slope of log2(sup |a|) against dyadic <xi> shells."""
    bracket = a.grid.xi_bracket()
    sup = np.max(np.abs(a.values), axis=0)
    shells = []
    tops = []
    s = min_shell
    while 2.0**s <= np.max(bracket):
        mask = (bracket >= 2.0**s) & (bracket < 2.0 ** (s + 1))
        if np.any(mask):
            top = float(np.max(sup[mask]))
            if top > 0:
                shells.append(s)
                tops.append(np.log2(top))
        s += 1
    if len(shells) < 2:
        raise ValueError("not enough momentum shells for an order fit")
    return float(np.polyfit(shells, tops, 1)[0])


def asymptotic_resum(
    grid: Grid,
    terms: Sequence[tuple[Symbol, float]],
    cutoffs: Sequence[float] | None = None,
) -> Symbol:
    """Borel-style sum of an asymptotic series of symbols.

    Each term a_j of order m_j (strictly decreasing) is switched on above
    momentum ~ 1/eps_j through 1 - chi(eps_j * |xi|) with a cosine bump chi;
    the default schedule halves eps_j at every order so later terms activate
    further out.  On a finite lattice, terms whose activation threshold
    exceeds the momentum range contribute nothing.
    """
    orders = [m for _, m in terms]
    if any(b >= a for a, b in zip(orders, orders[1:])):
        raise ValueError("orders must be strictly decreasing")
    if cutoffs is None:
        eps0 = 8.0 / grid.max_momentum()
        cutoffs = [eps0 * 2.0**-j for j in range(len(terms))]
    if len(cutoffs) != len(terms):
        raise ValueError("need one cutoff per term")
    radial = np.sqrt(grid.momentum_sq())
    total = np.zeros((grid.size,) * 2, dtype=complex)
    for (sym, _), eps in zip(terms, cutoffs):
        if sym.grid != grid:
            raise ValueError("all terms must live on the target grid")
        total += cosine_ramp(eps * radial, 0.5)[None, :] * sym.values
    order = terms[0][0].order if terms else None
    return Symbol(grid, total, order)


# -- functional calculus ----------------------------------------------------


def functional_calculus_check(
    a: Symbol,
    f: Callable[[np.ndarray], np.ndarray],
    p: float,
    order_m: float | None = None,
    s_values: Sequence[float] = (-1.0, 0.0, 1.0),
) -> dict:
    """Compare f of the Weyl matrix with the Weyl matrix of f of the symbol.

    For a real elliptic symbol of order m and f of order p the difference
    should act like an operator of order m*p - 1; the report carries the
    H^s -> H^{s - (m*p - 1)} norms so a caller can check they stay bounded
    under grid refinement.
    """
    grid = a.grid
    if order_m is None:
        name = a.order.name if a.order is not None else ""
        if not name.startswith("xi^"):
            raise ValueError("order_m is required unless the symbol uses the xi^m family")
        order_m = float(name[3:])
    A = quantize(a, 0.5)
    dev = float(np.max(np.abs(A - A.conj().T)))
    if dev > HERMITIAN_TOL:
        raise ValueError(
            f"Weyl matrix deviates from hermitian by {dev:.3e}; the symbol must be real"
        )
    herm = 0.5 * (A + A.conj().T)
    f_of_op = hermitian_func(herm, f)
    op_of_f = quantize(Symbol(grid, f(a.values.real).astype(complex)), 0.5)
    diff = f_of_op - op_of_f
    q = order_m * p - 1.0
    bracket = grid.xi_bracket()
    norms = {}
    for s in s_values:
        left = momentum_multiplier(grid, bracket ** (s - q))
        right = momentum_multiplier(grid, bracket ** (-s))
        norms[float(s)] = opnorm(left @ diff @ right)
    return {
        "difference_order": q,
        "weyl_deviation": dev,
        "operator_norm": opnorm(diff),
        "sobolev_norms": norms,
    }


# -- random test symbols -----------------------------------------------------


def random_band_limited(
    grid: Grid,
    rng: np.random.Generator,
    band: int | None = None,
    real: bool = False,
) -> Symbol:
    """Random symbol with phase-space Fourier support in the inner half-lattice.

    Band-limited symbols keep spectral derivatives alias-free, so they are
    the right probes for every derivative-based claim; sup |a| is normalized
    to 1.
    """
    L = grid.npts
    if band is None:
        band = L // 4
    if not 0 < band < L // 2:
        raise ValueError(f"band must lie in (0, {L // 2})")
    signed = np.rint(np.fft.fftfreq(L) * L).astype(int)
    keep = np.abs(signed) <= band
    mask1 = np.zeros(L, dtype=bool)
    mask1[keep] = True
    comp = _axis_components(grid)
    flat_mask = np.ones(grid.size, dtype=bool)
    for a in range(grid.dim):
        flat_mask &= mask1[comp[:, a]]
    full = np.outer(flat_mask, flat_mask)
    c = np.zeros((grid.size,) * 2, dtype=complex)
    n = int(full.sum())
    c[full] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    vals = np.fft.ifftn(c.reshape(grid.shape * 2)).reshape(grid.size, grid.size)
    if real:
        vals = vals.real.astype(complex)
    vals /= np.max(np.abs(vals))
    return Symbol(grid, vals)
