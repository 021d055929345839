"""Variable-coefficient particle-field model on the periodic lattice.

The particle coordinate X and the boson coordinate x share one Grid.  The
kinetic term is the divergence form K0 = Re(D g D) with D the hermitian
spectral derivative; the boson dispersion is omega = (K0 + mu^2)^{1/2} via
eigh.  Coupling enters through a smeared bump rho_{lam,X} built on the
Fourier side, so the interaction block at particle point X is
Phi(omega^{-1/2} rho_{lam,X}) on the Fock factor.

Scalar conventions used throughout:

  form factor      v_{lam,X} = omega^{-1/2} rho_{lam,X} / sqrt(2)   (enters a, a*)
  vacuum energy    E_lam(X) = (1/2) <omega^{-1/2} rho, (K+omega)^{-1} omega^{-1/2} rho>_w
  dressing         B_{lam,X} = -(K+omega)^{-1} omega^{-1/2} rho^sigma_{lam,X}

Each of these is evaluated for every particle point X at once and returned
with one row (or entry) per lattice point.  Full tensor assemblies are
pinned to d = 1; the d = 3 evaluators are the quadratures of ``inequalities``.

The model is real: K, omega and the bump rho_{lam,X} commute with complex
conjugation, so in the lattice basis and the real eigenmodes of h every
family above, H0, A and H_lam are float64 arrays.  ``form_factor_rho`` is
the one place where realness is checked; everything downstream inherits
the dtype of its data, and only the Weyl operators of the conjugation
check and the Schur resolvent of the cutoff sweep, (H + i)^{-1} through the
complement L + i - C diag(1/(d + i)) C^T on the sectors below the top one,
are complex.  That split serves the sweep's resolvent distances only: its
ground levels come from one eigensolver on the tensor apply of H_lam + E_lam,
preconditioned by the free resolvent (``ground_state``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import fock
from .grid import (
    Grid,
    bump_hat,
    derivative_matrix,
    idft,
    inner,
    norm as lattice_norm,
    sobolev_norm,
)
from .operators import _LANCZOS_SEED, check_bytes, check_hermitian, lanczos_peak_bytes, lowest_eigenpair, opnorm, top_eigenvalue
from .psido import dequantize


class ModelSpecError(ValueError):
    """A model ingredient violates its bounds at some lattice point."""


class SpectralError(ValueError):
    """A matrix that must be definite or invertible fails the check."""


def _as_lattice_array(grid: Grid, values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        arr = np.full(grid.size, float(arr))
    if arr.shape != (grid.size,):
        raise ModelSpecError(
            f"{name} must be scalar or flat of length {grid.size}, got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        bad = int(np.argmax(~np.isfinite(arr)))
        raise ModelSpecError(f"{name} is not finite at lattice point {bad}")
    return arr


@dataclass(frozen=True)
class ModelSpec:
    """Ingredients of the lattice model; one shared grid for X and x.

    ``g`` is the scalar coefficient of the divergence-form kinetic term per
    lattice point (isotropic; tensor assemblies are pinned to d = 1), ``mu``
    the boson mass function with a strictly positive floor, ``w`` the bounded
    particle potential.  Every lattice mode is a boson mode, so the mode
    count is ``grid.size``; ``n_max`` caps the total boson number.
    """

    grid: Grid
    g: np.ndarray
    mu: np.ndarray
    w: np.ndarray
    coupling: float = 1.0
    sigma: float = 0.0
    n_max: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "g", _as_lattice_array(self.grid, self.g, "g"))
        object.__setattr__(self, "mu", _as_lattice_array(self.grid, self.mu, "mass mu"))
        object.__setattr__(self, "w", _as_lattice_array(self.grid, self.w, "w"))
        if np.min(self.g) <= 0.0:
            bad = int(np.argmin(self.g))
            raise ModelSpecError(
                f"ellipticity violated: g = {self.g[bad]:.6g} at lattice point {bad}"
            )
        if np.min(self.mu) <= 0.0:
            bad = int(np.argmin(self.mu))
            raise ModelSpecError(
                f"mass floor violated: mu = {self.mu[bad]:.6g} at lattice point {bad}"
            )
        with np.errstate(over="ignore"):
            if not np.isfinite(np.max(self.mu) ** 2):
                raise ModelSpecError(f"mass mu = {np.max(self.mu):.6g} has no finite square")
        if not 0.0 <= self.sigma < np.inf:
            raise ModelSpecError(f"sigma must be finite and nonnegative, got {self.sigma}")
        if not np.isfinite(self.coupling):
            raise ModelSpecError(f"coupling must be finite, got {self.coupling}")
        tiny = np.finfo(float).tiny
        if 0.0 < abs(self.coupling) < tiny:
            raise ModelSpecError(
                f"coupling {self.coupling:.6g} is subnormal (below {tiny:.6g}) and has lost significant bits"
            )
        if self.n_max < 0:
            raise ModelSpecError("n_max must be nonnegative")

    @property
    def mass_floor(self) -> float:
        return float(np.min(self.mu))


def sinusoidal_spec(
    npts: int,
    box: float = 2.0 * np.pi,
    g_modulation: float = 0.3,
    w_amplitude: float = 0.2,
    mass: float = 1.0,
    coupling: float = 1.0,
    sigma: float = 0.0,
    n_max: int = 2,
) -> ModelSpec:
    """Bench family g = 1 + a sin(x), W = b cos(x), mu = const."""
    grid = Grid(1, npts, box)
    x = grid.position_mesh()[:, 0]
    return ModelSpec(
        grid=grid,
        g=1.0 + g_modulation * np.sin(x),
        mu=np.full(npts, mass),
        w=w_amplitude * np.cos(x),
        coupling=coupling,
        sigma=sigma,
        n_max=n_max,
    )


def divergence_form(grid: Grid, g: np.ndarray) -> np.ndarray:
    """Real symmetric part of sum_a D_a diag(g) D_a, summed over the axes from a = 0.

    D_a diag(g) D_a is hermitian up to the Nyquist column, whose unpaired
    mode makes the product complex for variable g; Re(.) projects back onto
    the symmetric divergence-form operator and is exact for constant g.
    """
    g = np.diag(np.asarray(g, dtype=complex))

    def axis_term(axis: int) -> np.ndarray:
        d = derivative_matrix(grid, axis)
        m = d @ g @ d
        return 0.5 * (m + m.conj().T).real

    return sum((axis_term(axis) for axis in range(1, grid.dim)), axis_term(0))


@dataclass(frozen=True, eq=False)
class AssembledModel:
    """Free pieces of the model: one-particle matrices, modes, and the free spectrum.

    The free spectrum is stored once: K = k_evecs diag(k_evals) k_evecs* and
    dGamma = diag(occupation_energies), so H0 = (Q_K x 1) diag(eps_i + E_o)
    (Q_K x 1)*.  No matrix of the tensor space is stored: every kernel reads
    H0 through this spectrum, sector by sector.
    """

    spec: ModelSpec
    k0: np.ndarray
    k: np.ndarray
    k_evals: np.ndarray
    k_evecs: np.ndarray
    h: np.ndarray
    h_evals: np.ndarray
    h_evecs: np.ndarray
    omega: np.ndarray
    mode_vectors: np.ndarray  # (grid.size, n_modes), orthonormal in the weighted inner product
    mode_freqs: np.ndarray
    basis: fock.FockBasis
    occupation_energies: np.ndarray

    @property
    def grid(self) -> Grid:
        return self.spec.grid

    @property
    def fock_dim(self) -> int:
        return self.basis.dim

    @property
    def dim(self) -> int:
        return self.grid.size * self.fock_dim

    def omega_power(self, p: float) -> np.ndarray:
        """omega^p through the stored eigendecomposition of h (p acts as p/2 on h)."""
        return (self.h_evecs * self.h_evals ** (0.5 * p)) @ self.h_evecs.T

    def project(self, u) -> np.ndarray:
        """Mode coefficients of a lattice vector, or one row of them per row of a stack.

        The modes span the lattice, so the coefficients lose nothing of ``u``.
        """
        return (self.mode_vectors.conj().T @ np.asarray(u).T * self.grid.weight).T

    def free_resolve(self, x: np.ndarray, z, sector: int | None = None) -> np.ndarray:
        """(H0 + z)^{-1} x for a real or complex z; x is X-major over the states of ``sector`` (all when None)
        and any columns.  H0 + z = (Q_K x 1) diag(eps_i + E_o + z) (Q_K x 1)^T: rotate along X, divide, rotate back."""
        occ = self.occupation_energies if sector is None else self.occupation_energies[self.basis.sector_slice(sector)]
        denom = self.k_evals[:, None] + occ + z
        size, q = len(denom), self.k_evecs
        rotated = (q.T @ x.reshape(size, -1)).astype(np.result_type(x, denom), copy=False).reshape(denom.shape + (-1,))
        rotated /= denom[:, :, None]
        return (q @ rotated.reshape(size, -1)).reshape(x.shape)


def free_shift(model: AssembledModel) -> float:
    """Shift making H0 + s >= mass_floor / 2: the bottom of H0 is that of K, and every boson adds the mass floor."""
    return max(0.0, 0.5 * model.spec.mass_floor - float(model.k_evals[0]))


def free_peak_bytes(npts: int, n_max: int) -> int:
    """Most bytes ``assemble_free`` holds at once on a d = 1 lattice of ``npts`` points: nine
    float64 matrices of side npts, the Fock occupation table twice and the top sector's picks."""
    dims = fock.sector_dims(npts, n_max)
    return 8 * (9 * npts**2 + 2 * sum(dims) * npts + dims[-1] * (n_max + 3))


def model_bytes(npts: int, n_max: int) -> int:
    """Bytes the arrays of an ``AssembledModel`` keep on a d = 1 lattice of ``npts`` points: seven float64
    matrices of side npts, six vectors of length npts (three spectra and the spec's g, mu, w), the Fock
    occupation table (int64) and the occupation energies; not the ladder tables kernels cache on the basis."""
    fdim = sum(fock.sector_dims(npts, n_max))
    return 8 * (7 * npts**2 + 6 * npts + fdim * (npts + 1))


def assemble_free(spec: ModelSpec) -> AssembledModel:
    """Build K and its spectrum, h, omega, the spectral modes, and dGamma.

    Boson modes are the eigenvectors of h, orthonormal in the weighted inner
    product, so dGamma acts diagonally with frequencies sqrt(eigenvalues of
    h); its diagonal, the occupation energies, is summed in mode order.
    """
    grid = spec.grid
    check_bytes("assemble_free", free_peak_bytes(grid.size, spec.n_max))
    k0 = divergence_form(grid, spec.g)
    k = k0 + np.diag(spec.w)
    k_evals, k_evecs = np.linalg.eigh(k)
    h = k0 + np.diag(spec.mu**2)
    h_evals, h_evecs = np.linalg.eigh(h)
    floor = spec.mass_floor**2
    if h_evals[0] < floor * (1.0 - 1e-10):
        raise SpectralError(
            f"h has eigenvalue {h_evals[0]:.6g} below the mass floor {floor:.6g}"
        )
    omega = (h_evecs * np.sqrt(h_evals)) @ h_evecs.T
    dev = np.max(np.abs(omega @ omega - h))
    if dev > 1e-10 * max(1.0, float(h_evals[-1])):
        raise SpectralError(f"omega^2 deviates from h by {dev:.3e}")

    mode_freqs = np.sqrt(h_evals)
    basis = fock.fock_basis(grid.size, spec.n_max)
    occupation_energies = np.zeros(basis.dim)
    for j, freq in enumerate(mode_freqs):
        occupation_energies += freq * basis.occupations[:, j]
    return AssembledModel(
        spec=spec,
        k0=k0,
        k=k,
        k_evals=k_evals,
        k_evecs=k_evecs,
        h=h,
        h_evals=h_evals,
        h_evecs=h_evecs,
        omega=omega,
        mode_vectors=h_evecs / np.sqrt(grid.weight),
        mode_freqs=mode_freqs,
        basis=basis,
        occupation_energies=occupation_energies,
    )


# ---------------------------------------------------------------------------
# coupling families: one row per particle point X


def form_factor_rho(model: AssembledModel, lam: float) -> np.ndarray:
    """Smeared coupling bumps rho_{lam,X}, one row per lattice point X.

    Built on the Fourier side as coupling * gaussian_profile_hat(|xi|/lam) *
    ramp(|xi|, spec.sigma) * exp(-i xi X).  ``lam`` may not exceed the largest
    resolved momentum (``Grid.check_cutoff``): beyond that the profile
    saturates on the lattice and larger cutoffs change nothing.

    The profile is even in xi and the unpaired Nyquist phase is real on
    lattice points, so rho is real in exact arithmetic.  This is the one
    realness check of the model: an imaginary part above roundoff raises
    ``SpectralError``, and the rows are returned as float64, which keeps
    every family, A, H_lam and the IBC operators built from them real.
    """
    grid = model.grid
    hat = bump_hat(grid, lam, grid.position_mesh(), model.spec.sigma)
    rho = model.spec.coupling * idft(grid, hat)
    imag = float(np.max(np.abs(rho.imag)))
    if imag > 1e-10 * max(1.0, float(np.max(np.abs(rho)))):
        raise SpectralError(f"coupling bump has imaginary part {imag:.3e}")
    return rho.real


def _omega_rho(model: AssembledModel, lam: float) -> np.ndarray:
    """omega^{-1/2} rho_{lam,X}, one row per lattice point X."""
    return form_factor_rho(model, lam) @ model.omega_power(-0.5).T


def form_factor(model: AssembledModel, lam: float) -> np.ndarray:
    """Mode coefficients of v_{lam,X} = omega^{-1/2} rho_{lam,X} / sqrt(2), one row per X."""
    return model.project(_omega_rho(model, lam) / np.sqrt(2.0))


def form_factor_split(
    model: AssembledModel, lam: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split v_X = u_X + u~_X by freezing the dispersion symbol at X.

    u_X applies the right-quantized symbol of omega^{-1/2} with its position
    argument frozen at X to the bump; u~_X is the residual.  Returns the rows
    u and u~, one per X on the lattice side, and the ratios ||u~_X|| / ||u_X||.
    """
    grid = model.grid
    symbol = dequantize(grid, model.omega_power(-0.5).astype(complex), 1.0)
    hat = model.spec.coupling * bump_hat(grid, lam, grid.position_mesh(), model.spec.sigma)
    u = idft(grid, symbol.values * hat) / np.sqrt(2.0)
    residual = _omega_rho(model, lam) / np.sqrt(2.0) - u
    return u, residual, np.linalg.norm(residual, axis=1) / np.linalg.norm(u, axis=1)


def creation_blocks(model: AssembledModel, lam: float, top: int | None = None) -> dict:
    """The nonzero boson-sector blocks of A = blockdiag_X a*(v_{lam,X}), into sectors 1..``top``.

    Returns {(n, n-1): A_n}: A_n maps sector n-1 into sector n, X-major like
    the tensor, and holds v_X[k] sqrt(occ_o[k]) per entry of
    ``FockBasis.ladder`` and point X.  ``top`` defaults to the boson cap;
    the top-sector split of the cutoff sweep stops one below it and applies
    the top step as a ``SectorStep`` instead.
    """
    size, basis = model.grid.size, model.basis
    dims = np.diff(basis.sector_bounds)
    coeffs = form_factor(model, lam)
    x = np.arange(size)[:, None]
    blocks = {}
    for n, lad in enumerate(basis.ladder[:top], start=1):
        entries = SectorStep.of(lad, coeffs, model.k_evecs).entries
        if not entries.any():
            continue
        block = np.zeros((size, dims[n], size, dims[n - 1]), dtype=entries.dtype)
        block[x, lad.targets, x, lad.sources] = entries
        blocks[n, n - 1] = block.reshape(size * dims[n], size * dims[n - 1])
    return blocks


@dataclass(frozen=True, eq=False)
class SectorStep:
    """The creation step from sector n-1 into the rotated coordinates of sector n: C = A_n^T (Q x 1).

    ``entries`` holds C_y of each entry of the step's ``ladder``, one row per
    X, and ``rotation`` is Q, real orthogonal.  C and C^T are a ladder scatter
    and a rotation along X, and C diag(w) C^T is the Gram of the step: neither A_n nor C is formed.
    """

    ladder: fock.SectorLadder
    entries: np.ndarray
    rotation: np.ndarray

    @classmethod
    def of(cls, ladder: fock.SectorLadder, coeffs: np.ndarray, rotation: np.ndarray) -> SectorStep:
        """The step with mode coefficients ``coeffs`` (one row per X): C_y = coeffs[:, modes] * factors."""
        return cls(ladder, coeffs[:, ladder.modes] * ladder.factors, rotation)

    @property
    def side(self) -> int:
        """The side of sector n-1, X-major."""
        return self.entries.shape[0] * len(self.ladder.by_source[1])

    def create(self, v: np.ndarray) -> np.ndarray:
        """A_n v: (size, dim n-1) -> (size, dim n), a scatter of the ladder entries summed by target:
        the first entry of every target's run, then its j-th entries in turn (``target_runs``)."""
        lad, c = self.ladder, self.entries
        (_, first), *rest = lad.target_runs
        out = c[:, first] * v[:, lad.sources[first]]
        for targets, entries in rest:
            out[:, targets] += c[:, entries] * v[:, lad.sources[entries]]
        return out

    def annihilate(self, u: np.ndarray) -> np.ndarray:
        """A_n^T u: (size, dim n) -> (size, dim n-1), summed by source."""
        order, heads = self.ladder.by_source
        return np.add.reduceat((self.entries * u[:, self.ladder.targets])[:, order], heads, axis=1)

    def couple(self, u: np.ndarray) -> np.ndarray:
        """C u for u in the rotated coordinates of sector n: a flat vector on sector n-1."""
        return self.annihilate(_real_times(self.rotation, u)).ravel()

    def couple_adjoint(self, v: np.ndarray) -> np.ndarray:
        """C^T v for a flat vector v on sector n-1, in the rotated coordinates of sector n."""
        return _real_times(self.rotation.T, self.create(v.reshape(len(self.rotation), -1)))

    def subtract_gram(self, mat: np.ndarray, weight: np.ndarray) -> None:
        """Subtract C diag(weight) C^T from the sector n-1 corner of ``mat`` (its last rows and columns), in place.

        One target o at a time: W_o = Q diag(weight[:, o]) Q^T, and C_y[i] W_o[y, z] C_z[j] is subtracted at
        the sources (a_i, a_j) of each pair of entries i, j in o's run (``target_runs``) in one fancy-indexed
        update.  The entries of a run raise different modes into o, so their sources are distinct and no index
        of the update repeats.  The weight is real or complex, and nothing of the step's side squared is formed.
        """
        lad, c, q = self.ladder, self.entries, self.rotation
        size, n_src = len(q), len(lad.by_source[1])
        # the corner is X-major (y, a, z, b), viewed here by source pair (a, b, y, z)
        corner = mat[-self.side :, -self.side :].reshape(size, n_src, size, n_src).transpose(1, 3, 0, 2)
        bounds = np.append(lad.target_runs[0][1], len(lad.targets))
        for o, (head, end) in enumerate(zip(bounds[:-1], bounds[1:])):
            a, c_o = lad.sources[head:end], c[:, head:end].T
            w = (q * weight[:, o]) @ q.T
            corner[a[:, None], a[None, :]] -= (c_o[:, None, :, None] * c_o[None, :, None, :]) * w


# ---------------------------------------------------------------------------
# vacuum energy and dressing


def _k_plus_omega(model: AssembledModel) -> np.ndarray:
    ko = model.k + model.omega
    if np.linalg.eigvalsh(ko)[0] <= 0.0:
        raise SpectralError("K + omega is not positive definite")
    return ko


def _dressing(model: AssembledModel, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows f_X = omega^{-1/2} rho_X and -(K+omega)^{-1} f_X: one check, one solve."""
    f = _omega_rho(model, lam)
    return f, -np.linalg.solve(_k_plus_omega(model), f.T).T


def vacuum_energy(model: AssembledModel, lam: float) -> np.ndarray:
    """Second-order energy shifts E_lam(X) = -(1/2) <omega^{-1/2} rho_X, B_X>, one per X."""
    f, b = _dressing(model, lam)
    return -0.5 * np.sum(f.conj() * b, axis=1).real * model.grid.weight


def gross_B(model: AssembledModel, lam: float) -> np.ndarray:
    """Dressing functions B_{lam,X} = -(K+omega)^{-1} omega^{-1/2} rho^sigma_{lam,X}.

    One real row per lattice point X: rho is real, and so are omega and K.
    """
    return _dressing(model, lam)[1]


def gross_bound_ratio(model: AssembledModel, lam: float) -> float:
    """||omega^{1/2} B_X|| / ||rho^sigma_X||_{H^-2} at X = 0; stability in lam is the point.

    The ratio ignores the coupling's scale and sign, so both rows are scaled by
    one exact power of two that keeps their squares from underflowing.
    """
    rho = form_factor_rho(model, lam)[0]
    scale = 2.0 ** -max(int(np.frexp(np.max(np.abs(rho)))[1]), -1021)
    num = lattice_norm(model.grid, model.omega_power(0.5) @ gross_B(model, lam)[0] * scale)
    return num / sobolev_norm(model.grid, rho * scale, -2.0)


def transformed_peak_bytes(npts: int, n_max: int) -> int:
    """Most bytes ``transformed_hamiltonian_check`` holds at once on a d = 1 lattice of ``npts`` points.

    Complex: the stack of W_X (npts |s| fdim), six (npts |s|)^2 blocks, eight
    coupling families and derivative matrices of side npts, and per X one
    ``fock.apply_ladder`` gather (two arrays of |s| x 2 n_max fdim at most:
    the ladder has at most n_max fdim entries) beside six (|s|, fdim)
    blocks; and 64 KiB of small arrays.  It grows like npts |s| fdim: no
    array of side fdim is formed.
    """
    fdim, safe = (sum(fock.sector_dims(npts, n)) for n in (n_max, max(0, n_max - 2)))
    side = npts * safe
    return 16 * (side * fdim + 6 * side**2 + 8 * npts**2 + (4 * n_max + 6) * safe * fdim) + (1 << 16)


def transformed_hamiltonian_check(
    model: AssembledModel, lam: float, b_family: np.ndarray | None = None
) -> dict:
    """Conjugate H_lam by the blockwise Weyl dressing and rebuild it termwise.

    The left side is U H_lam U* with U = blockdiag_X V(b_X), b_X the mode
    coefficients of B_{lam,X}.  The right side regroups into the free part,
    a shifted field term Phi(omega^{-1/2} rho + (K0+omega) B_X), the mixed
    first-order terms -sqrt2 a*(dB) g dX + sqrt2 dX g a(dB), the quadratic
    block g(X)(-a*a*/2 - aa/2 + a*a) in dB, and a scalar per X.  On the
    continuum all that survives of the difference is zero; on the lattice the
    commutator of the discrete derivative with the X-dependent dressing
    leaves a residual that does not tend to 0 while the derivative is
    spectral.  It sits on the Nyquist mode in X: at n_max 2 and lam 1 it
    falls from 0.0038 at npts 8 to 0.00086 at npts 256 and levels off.

    Both sides are compared on the safe rows only: s, the Fock states with
    boson number <= max(0, n_max - 2), at every X.  H_lam = K x 1 +
    blockdiag_X(dGamma + A_X + A_X^T) with A_X = a*(v_{lam,X}), so with
    W_X = V(b_X)[s, :] the left side is, block by block,

      (U H_lam U*)[X s, Y s] = K[X, Y] W_X W_Y* + delta_XY W_X (dGamma + A_X + A_X^T) W_X*,

    and every right-side term is a Fock block restricted to s x s before it
    is multiplied: (a* a*)[s, s] = a*[s, :] a*[:, s].  W_X comes from
    ``fock.weyl_rows``, a Taylor series through the creation ladder, and
    every other Fock factor is applied to the rows of W_X or to the unit
    vectors of s by ``fock.apply_ladder``: no array of side fock_dim and no
    matrix of the tensor side is formed (``transformed_peak_bytes``).  The
    Fock-only identities are ``fock.conjugation_deviations`` of each W_X.

    Pass ``b_family``, a real (size, size) array of lattice rows B_X, to
    override the dressing; zero or X-independent rows are the degenerate checks.
    A lattice of d > 1 raises ``ValueError``: the mixed terms differentiate along one axis.
    Returns a report dict; the headline entry is ``residual`` = safe-sector
    residual norm relative to the safe-sector norm of the left side, and
    ``weyl_steps`` and ``weyl_terms`` are the series' largest counts over X.
    """
    spec = model.spec
    if spec.grid.dim != 1:
        # the mixed terms differentiate the dressing along one axis
        raise ValueError(f"transformed_hamiltonian_check needs a d = 1 lattice, got d = {spec.grid.dim}")
    check_bytes("transformed_hamiltonian_check", transformed_peak_bytes(spec.grid.size, spec.n_max))
    grid = model.grid
    size = grid.size
    basis = model.basis
    pd = 1j * derivative_matrix(grid)
    omega = model.omega
    k = check_hermitian(model.k)

    smeared = _omega_rho(model, lam)
    if b_family is None:
        fam_b = gross_B(model, lam)
    else:
        fam_b = np.asarray(b_family, dtype=float)
        if fam_b.shape != (size, size):
            raise ValueError(f"b_family must have shape ({size}, {size})")
    fam_db = pd @ fam_b  # derivative along the family index X
    coeffs_b = model.project(fam_b)

    cap = max(0, basis.n_max - 2)
    safe = basis.tensor_rows(1, 0, cap)
    n_safe = len(safe)
    ident_s = np.eye(n_safe)
    units = np.zeros((n_safe, basis.dim))  # the unit vectors of s, one per row: I[s, :]
    units[np.arange(n_safe), safe] = 1.0
    energies = model.occupation_energies
    dgamma_s = np.diag(energies[safe])

    creators = form_factor(model, lam)
    # W_X = V(b_X)[s, :]: real for real b_X, as is the left side for real v_X
    dtype = np.result_type(coeffs_b, creators, float)
    weyls = np.empty((size, n_safe, basis.dim), dtype=dtype)
    steps = terms = 0
    for xi, b in enumerate(coeffs_b):
        weyls[xi], x_steps, x_terms = fock.weyl_rows(basis, b, safe)
        steps, terms = max(steps, x_steps), max(terms, x_terms)
    # K[X, Y] W_X W_Y*, one Y at a time: no conjugate copy of the whole stack
    flat = weyls.reshape(size * n_safe, basis.dim)
    lhs = np.empty((size, n_safe, size, n_safe), dtype=dtype)
    for yi in range(size):
        lhs[:, :, yi] = k[:, None, yi, None] * (flat @ weyls[yi].conj().T).reshape(size, n_safe, n_safe)
    del flat
    # the mixed terms are complex
    rhs = (k[:, None, :, None] * ident_s[None, :, None, :]).astype(complex)
    coeffs_db = model.project(fam_db)
    coeffs_u = model.project(smeared)
    shifted = model.project(smeared + fam_b @ (model.k0 + omega).T)
    freqs = model.mode_freqs
    zero = np.zeros(basis.n_modes)
    lowers = np.empty((size, n_safe, n_safe), dtype=complex)  # a(dB_X)[s, s]
    dev_dgamma, dev_field, tolerance = 0.0, 0.0, 0.0
    for xi in range(size):
        w, b = weyls[xi], coeffs_b[xi]
        # each operator M below acts on the columns of W_X*, the rows of conj(W_X):
        # W_X M W_X* = W_X (M applied to the rows of conj(W_X))^T
        w_bar = w.conj()
        dgamma_w = (w_bar * energies).T
        # A_X + A_X^T = a*(conj v_X) + a(v_X)
        v = creators[xi]
        lhs[xi, :, xi] += w @ (dgamma_w + fock.apply_ladder(basis, v.conj(), v, w_bar).T)
        # the quadratic block from a(dB)[:, s] and a*(dB)[:, s] = a(dB)[s, :]*,
        # each product restricted before it is formed
        into = fock.apply_ladder(basis, zero, coeffs_db[xi], units).T
        raised = fock.apply_ladder(basis, coeffs_db[xi], zero, units).T
        lowers[xi] = into[safe]
        quadratic = -0.5 * into.conj().T @ raised - 0.5 * raised.conj().T @ into + into.conj().T @ into
        b_x = fam_b[xi]
        scalar = (
            0.5 * inner(grid, b_x, omega @ b_x).real
            + inner(grid, b_x, smeared[xi]).real
            + 0.5 * spec.g[xi] * inner(grid, fam_db[xi], fam_db[xi]).real
        )
        # row i of M applied to the units is column s_i of M: M[:, s] is its transpose
        field_s = fock.apply_field(basis, shifted[xi], units)[:, safe].T
        rhs[xi, :, xi] += dgamma_s + field_s + spec.g[xi] * quadratic + scalar * ident_s

        # Fock-only conjugation identities, worst deviation over X
        dgamma_x, field_x = fock.conjugation_deviations(basis, freqs, energies, b, coeffs_u[xi], safe, w=w)
        dev_dgamma = max(dev_dgamma, float(np.abs(dgamma_x).max()))
        dev_field = max(dev_field, float(np.abs(field_x).max()))
        tolerance = max(
            tolerance,
            fock.weyl_truncation_tolerance(basis.n_max, cap, float(np.linalg.norm(b))),
        )
    # the mixed terms -sqrt2 (g pd)[X, Y] a*(dB_X) + sqrt2 (pd g)[X, Y] a(dB_Y)
    sqrt2 = np.sqrt(2.0)
    g_pd = spec.g[:, None] * pd
    pd_g = pd * spec.g[None, :]
    rhs -= sqrt2 * g_pd[:, None, :, None] * lowers.conj().transpose(0, 2, 1)[:, :, None, :]
    rhs += sqrt2 * pd_g[:, None, :, None] * lowers.transpose(1, 0, 2)[None]

    del weyls, w  # the stack is not read again
    side = size * n_safe
    lhs = lhs.reshape(side, side)
    # the difference overwrites rhs: no third array of the safe side
    residual_abs = opnorm(np.subtract(lhs, rhs.reshape(side, side), out=rhs.reshape(side, side)))
    scale = opnorm(lhs)
    return {
        "residual": residual_abs / scale,
        "residual_abs": residual_abs,
        "scale": scale,
        "fock_dgamma_dev": dev_dgamma,
        "fock_field_dev": dev_field,
        "fock_tolerance": tolerance,
        "b_norm_max": float(np.max(np.linalg.norm(coeffs_b, axis=1))),
        "safe_dim": side,
        "weyl_steps": steps,
        "weyl_terms": terms,
    }


# ---------------------------------------------------------------------------
# renormalization sweep


def _real_times(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """mat @ x for a real matrix and a real or complex 2-D array x.

    A complex x viewed as floats carries its real and imaginary parts side
    by side along its rows, so the product stays a real GEMM.
    """
    x = np.ascontiguousarray(x)
    return (mat @ x.view(float)).view(x.dtype)


@dataclass(frozen=True, eq=False)
class _TopSectorSplit:
    """(H + i)^{-1} for H = [[L, B], [B^T, D]] split at the top boson sector N = n_max; A_N and C are never formed.

    L, H on sectors 0..N-1 sector by sector (X-major within each), is not kept.  D = (K + diag E) x 1 + 1 x dGamma
    on sector N is diagonal, ``top`` d[i, o] = eps_i + E_o, in the coordinates (Q x 1)^T, Q the eigenvectors of
    K + diag E; B couples sector N only to sector N-1 through the top ``step`` C = A_N^T (Q x 1).  ``inverse`` is
    S^{-1}, S = L + i - C diag(1/(d + i)) C^T the Schur complement of H + i: the corner of (H + i)^{-1} on sectors
    0..N-1, so ||S^{-1}|| <= 1 and the inverse is well conditioned.  The Gram C diag(1/(d + i)) C^T is subtracted
    from L + i in place, one target of sector N at a time (``SectorStep.subtract_gram``).
    """

    step: SectorStep
    top: np.ndarray
    inverse: np.ndarray

    def resolve(self, x: np.ndarray) -> np.ndarray:
        """(H + i)^{-1} x, with x laid out as S's rows, then sector N X-major."""
        step, cut = self.step, len(self.inverse)
        edge = cut - step.side  # the first row of sector N-1
        inverse = 1.0 / (self.top + 1j)
        rotated = _real_times(step.rotation.T, x[cut:].reshape(self.top.shape))
        rhs = x[:cut].copy()
        rhs[edge:] -= step.couple(rotated * inverse)
        low = self.inverse @ rhs
        tail = step.couple_adjoint(low[edge:])
        return np.concatenate([low, _real_times(step.rotation, (rotated - tail) * inverse).ravel()])


def sector_layout(model: AssembledModel, blocks: dict, rows: range, cols: range) -> np.ndarray:
    """The block rows ``rows`` by block columns ``cols`` of a block matrix, laid out sector by sector.

    A block matrix is a dict {(m, n): block} of the blocks that map boson
    sector n into sector m, X-major like the tensor; a missing block is zero.
    """
    at = model.grid.size * np.asarray(model.basis.sector_bounds)  # first row of each sector
    top, left = at[rows.start], at[cols.start]
    dtype = np.result_type(np.float64, *(block.dtype for block in blocks.values()))
    out = np.zeros((at[rows.stop] - top, at[cols.stop] - left), dtype)
    for (m, n), block in blocks.items():
        if m in rows and n in cols:
            out[at[m] - top : at[m + 1] - top, at[n] - left : at[n + 1] - left] = block
    return out


def lower_sectors(model: AssembledModel, blocks: dict, energies: np.ndarray) -> np.ndarray:
    """H_lam + E_lam(X) on the sectors 0..n_max-1, laid out sector by sector.

    ``blocks`` is ``creation_blocks(model, lam)``; ``energies`` is
    E_lam(X), zeros for H_lam itself.
    """
    k = model.k + np.diag(energies)
    parts = dict(blocks) | {(n - 1, n): block.T for (n, _), block in blocks.items()}
    for n in range(model.basis.n_max):
        occ = model.occupation_energies[model.basis.sector_slice(n)]
        parts[n, n] = np.kron(k, np.eye(len(occ))) + np.diag(np.tile(occ, model.grid.size))
    low = range(model.basis.n_max)
    return sector_layout(model, parts, low, low)


def _split_top_sector(model: AssembledModel, lam: float, energies: np.ndarray) -> _TopSectorSplit:
    """Split H_lam + E_lam(X) at sector n_max, from the creation ladder and one E per X.

    ``energies`` is E_lam(X), zeros for H_lam itself.  L takes the creation
    blocks below the top sector; the top step stays a ladder scatter.  Only
    K + diag E (side grid.size) is diagonalized, and the one matrix inverted
    has the side of sectors 0..n_max-1.
    """
    basis = model.basis
    top = basis.n_max
    schur = lower_sectors(model, creation_blocks(model, lam, top - 1), energies).astype(complex)
    evals, q = np.linalg.eigh(model.k + np.diag(energies))
    d = evals[:, None] + model.occupation_energies[basis.sector_slice(top)]
    step = SectorStep.of(basis.ladder[top - 1], form_factor(model, lam), q)
    schur.flat[:: len(schur) + 1] += 1j
    step.subtract_gram(schur, 1.0 / (d + 1j))
    return _TopSectorSplit(step, d, np.linalg.inv(schur))


def hamiltonian_apply(model: AssembledModel, lam: float, energies: np.ndarray):
    """x -> (H_lam + E_lam(X)) x on flat X-major tensor vectors; ``energies`` is E_lam(X), zeros for H_lam.

    Viewed as (size, fock_dim), x meets K + diag E along X and the occupation energies, and each
    step's ``SectorStep`` scatters A_n and A_n^T between its sectors: no matrix of the tensor side is formed.
    """
    basis, k, coeffs = model.basis, model.k + np.diag(energies), form_factor(model, lam)
    steps = [SectorStep.of(lad, coeffs, model.k_evecs) for lad in basis.ladder]

    def apply(x: np.ndarray) -> np.ndarray:
        v = x.reshape(len(k), basis.dim)
        out = k @ v
        out += v * model.occupation_energies
        for n, step in enumerate(steps, start=1):
            low, high = basis.sector_slice(n - 1), basis.sector_slice(n)
            out[:, high] += step.create(v[:, low])
            out[:, low] += step.annihilate(v[:, high])
        return out.ravel()

    return apply


def ground_state(model: AssembledModel, lam: float, energies: np.ndarray) -> tuple[float, np.ndarray, dict]:
    """Lowest eigenvalue of H_lam + E_lam(X), its flat X-major unit eigenvector and the solver's record.

    ``operators.lowest_eigenpair`` applies ``hamiltonian_apply`` from a draw seeded with ``_LANCZOS_SEED``,
    preconditioned by (H0 + s)^{-1} (``AssembledModel.free_resolve``, s = ``free_shift``).
    """
    s, start = free_shift(model), np.random.default_rng(_LANCZOS_SEED).standard_normal(model.dim)
    return lowest_eigenpair(hamiltonian_apply(model, lam, energies), lambda r: model.free_resolve(r, s), start)


# Lanczos basis length of one resolvent distance: its stated memory (``renorm_peak_bytes``)
_DISTANCE_STEPS = 256


def _resolvent_distance(split_a: _TopSectorSplit, split_b: _TopSectorSplit, seed: int = 0) -> tuple[float, dict]:
    """||(H_a + i)^{-1} - (H_b + i)^{-1}|| for two real symmetric H split at the top sector.

    Lanczos (``operators.top_eigenvalue``) finds the top eigenvalue theta
    of the Hermitian Gram operator M* M, M = R_a - R_b, to machine
    precision; no resolvent is formed.  Each R = (H + i)^{-1} is applied
    through the inverse of its Schur complement and the ladder scatter of
    the top step (``_TopSectorSplit.resolve``), and R* x = conj(R conj x)
    since H is real, so one Gram application is four of them.  The start
    vector is drawn from a generator seeded with ``seed``: a constant one
    can be orthogonal to the top singular vector.  Its basis holds at most
    ``_DISTANCE_STEPS`` vectors.  Bitwise equal splits give exactly 0.

    Returns sqrt(theta) and the solver's record: the Gram applications
    (one per Lanczos step) and the Lanczos bound on ||G u - theta u|| / theta.
    """
    arrays = [(split.inverse, split.step.entries, split.step.rotation, split.top) for split in (split_a, split_b)]
    if all(np.array_equal(a, b) for a, b in zip(*arrays)):
        return 0.0, {"gram_applications": 0, "residual": 0.0}

    def gram(x: np.ndarray) -> np.ndarray:
        y = (split_a.resolve(x) - split_b.resolve(x)).conj()
        return (split_a.resolve(y) - split_b.resolve(y)).conj()

    rng = np.random.default_rng(seed)
    n = len(split_a.inverse) + split_a.top.size
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    theta, steps, residual = top_eigenvalue(gram, _DISTANCE_STEPS, start)
    return float(np.sqrt(max(theta, 0.0))), {"gram_applications": steps, "residual": residual}


def level_peak_bytes(npts: int, n_max: int) -> int:
    """Most bytes ``ground_state`` holds on a d = 1 lattice of ``npts`` points: 16 float64 tensor vectors, the
    entries C_y of every step (at most n per state of sector n), three gathers of the largest, K + diag E and 64 KiB."""
    dims = fock.sector_dims(npts, n_max)
    entries = [npts * n * dim for n, dim in enumerate(dims)]
    return 8 * (16 * npts * sum(dims) + sum(entries) + 3 * max(entries) + npts**2) + (1 << 16)


def renorm_peak_bytes(npts: int, n_max: int) -> int:
    """Most bytes ``renorm_convergence_experiment`` holds at once on a d = 1 lattice of ``npts`` points.

    With S the side of sectors 0..N-1 and T that of sector N (N = n_max >= 1), a split holds its
    complex Schur inverse (S^2 units of 16 bytes), Q, d and the top step's entries.  A sweep point
    takes its levels (``level_peak_bytes``) beside the two splits of the previous one, and its plain
    distance before it builds the subtracted split: so three splits are held beside a distance's
    Lanczos basis of side S + T (at most ``_DISTANCE_STEPS`` vectors), and two beside a build, which
    holds the complex Schur complement and three more of its size inside ``np.linalg.inv``.  The top
    step's Gram is subtracted from the complement in place, a few npts x npts arrays per target
    (``SectorStep.subtract_gram``), and the top step's ladder tables are counted once.  Nothing of
    side T x S is formed.
    """
    dims = fock.sector_dims(npts, n_max)
    low, top = npts * sum(dims[:-1]), npts * dims[-1]
    entries = n_max * top
    split = 16 * low**2 + 8 * (npts**2 + top + entries)
    build = 2 * split + 64 * low**2
    levels = 2 * split + level_peak_bytes(npts, n_max)
    distance = 3 * split + lanczos_peak_bytes(low + top, _DISTANCE_STEPS, 16) + 8 * 16 * (low + top)
    return 16 * entries + max(build, levels, distance)


def renorm_convergence_experiment(model: AssembledModel, lams) -> dict:
    """Ground levels and resolvent distances along a cutoff sweep, with and without E_lam.

    Per lam the level row holds the ground levels of H_lam and H_lam + E_lam(X) (``ground_state``); per
    consecutive pair the distance row holds D = ||(H + E + i)^{-1} - (H' + E' + i)^{-1}|| next to the
    unsubtracted one, from splits at the top boson sector (``_split_top_sector``, ``_resolvent_distance``)
    that the levels do not read.  No matrix of the tensor side is formed or diagonalized.  Of the previous
    point only its splits are kept, the plain one until the plain distance is taken.  Rows carry their solver
    records under ``solver``; ``dim`` is the tensor dimension, ``schur_dim`` the side of sectors 0..n_max-1
    and ``stage_s`` the seconds of the splits, levels and distances.
    """
    lams = [float(v) for v in lams]
    if len(lams) < 2:
        raise ValueError("need at least two sweep points")
    if model.basis.n_max < 1:
        raise ValueError("the top-sector split needs n_max >= 1")
    check_bytes("renorm_convergence_experiment", renorm_peak_bytes(model.grid.size, model.basis.n_max))
    stage_s = dict.fromkeys(("splits", "levels", "distances"), 0.0)

    def timed(stage: str, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        stage_s[stage] += time.perf_counter() - start
        return out

    levels, pairs = [], []
    prev_plain = prev_sub = None
    for lam in lams:
        zeros, energies = np.zeros(model.grid.size), vacuum_energy(model, lam)
        gs_plain, _, level_plain = timed("levels", ground_state, model, lam, zeros)
        gs_sub, _, level_sub = timed("levels", ground_state, model, lam, energies)
        solver = {"subtracted": level_sub, "unsubtracted": level_plain}
        levels.append({"lam": lam, "gs_plain": gs_plain, "gs_subtracted": gs_sub, "solver": solver})
        plain = timed("splits", _split_top_sector, model, lam, zeros)
        if prev_plain is not None:
            d_plain, solver_plain = timed("distances", _resolvent_distance, prev_plain, plain)
        # drop the previous plain split before the subtracted one is built: three splits at most
        prev_plain = None
        sub = timed("splits", _split_top_sector, model, lam, energies)
        if prev_sub is not None:
            d_sub, solver_sub = timed("distances", _resolvent_distance, prev_sub, sub)
            solver = {"subtracted": solver_sub, "unsubtracted": solver_plain}
            pairs.append({"lam": prev_lam, "lam_next": lam, "d_subtracted": d_sub, "d_unsubtracted": d_plain, "solver": solver})
        prev_lam, prev_plain, prev_sub = lam, plain, sub
    stage_s = {stage: round(seconds, 3) for stage, seconds in stage_s.items()}
    return {"dim": model.dim, "schur_dim": len(plain.inverse), "levels": levels, "pairs": pairs, "stage_s": stage_s}
