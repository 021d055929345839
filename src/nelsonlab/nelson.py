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
pinned to d = 1; the d = 3 evaluators are quadrature-only.

The model is real: K, omega and the bump rho_{lam,X} commute with complex
conjugation, so in the lattice basis and the real eigenmodes of h every
family above, H0, A and H_lam are float64 arrays.  ``form_factor_rho`` is
the one place where realness is checked; everything downstream inherits
the dtype of its data, and only the Weyl operators of the conjugation
check and the resolvents of the cutoff sweep are complex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import fock
from .grid import (
    Grid,
    bump_hat,
    derivative_matrix,
    gaussian_profile_hat,
    idft,
    inner,
    norm as lattice_norm,
    sobolev_norm,
)
from .operators import OperatorMatrix, SizeError, check_dense_size, opnorm  # noqa: F401 (SizeError re-exported)
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
    particle potential.  ``n_modes`` counts the boson modes kept (default:
    all of them); ``n_max`` caps the total boson number.
    """

    grid: Grid
    g: np.ndarray
    mu: np.ndarray
    w: np.ndarray
    coupling: float = 1.0
    sigma: float = 0.0
    n_max: int = 2
    n_modes: int | None = None

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
        if self.n_max < 0:
            raise ModelSpecError("n_max must be nonnegative")
        if self.n_modes is None:
            object.__setattr__(self, "n_modes", self.grid.size)
        if not 1 <= self.n_modes <= self.grid.size:
            raise ModelSpecError(
                f"n_modes must lie in [1, {self.grid.size}], got {self.n_modes}"
            )

    @property
    def mass_floor(self) -> float:
        return float(np.min(self.mu))

    @property
    def ellipticity_bounds(self) -> tuple[float, float]:
        return float(np.min(self.g)), float(np.max(self.g))


def sinusoidal_spec(
    npts: int,
    box: float = 2.0 * np.pi,
    g_modulation: float = 0.3,
    w_amplitude: float = 0.2,
    mass: float = 1.0,
    coupling: float = 1.0,
    sigma: float = 0.0,
    n_max: int = 2,
    n_modes: int | None = None,
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
        n_modes=n_modes,
    )


def check_tensor_size(spec: ModelSpec) -> None:
    """Refuse a model whose dense H0 (lattice x Fock space) exceeds the guard."""
    check_dense_size("H0", spec.grid.size, fock.fock_dim(spec.n_modes, spec.n_max))


def divergence_form(grid: Grid, g: np.ndarray) -> np.ndarray:
    """Real symmetric part of D diag(g) D.

    D diag(g) D is hermitian up to the Nyquist column, whose unpaired mode
    makes the product complex for variable g; Re(.) projects back onto the
    symmetric divergence-form operator and is exact for constant g.
    """
    d = derivative_matrix(grid)
    m = d @ np.diag(np.asarray(g, dtype=complex)) @ d
    return 0.5 * (m + m.conj().T).real


@dataclass(frozen=True, eq=False)
class AssembledModel:
    """Free pieces of the model: one-particle matrices, modes, and H0.

    The free spectrum is stored once: K = k_evecs diag(k_evals) k_evecs* and
    dGamma = diag(occupation_energies), so H0 = (Q_K x 1) diag(eps_i + E_o)
    (Q_K x 1)*.  The dense tensor H0 is built on first access and cached; its
    dimension is guarded so quadrature- and sector-level work on large grids
    never pays for it.
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
    modes: fock.ModeMap
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
        return self.grid.size * self.basis.dim

    @property
    def space(self) -> str:
        g = self.grid
        return f"tensor({g.dim},{g.npts},{g.box:g};{self.basis.space})"

    @property
    def h0(self) -> OperatorMatrix:
        """K x 1 + 1 x dGamma as a dense matrix (lazy, size-guarded)."""
        cached = getattr(self, "_h0", None)
        if cached is None:
            check_tensor_size(self.spec)
            mat = np.kron(self.k, np.eye(self.fock_dim)) + np.diag(
                np.tile(self.occupation_energies, self.grid.size)
            )
            cached = OperatorMatrix(mat, self.space, True)
            object.__setattr__(self, "_h0", cached)
        return cached

    def block(self, x_index: int) -> slice:
        """Rows of the Fock block attached to particle point ``x_index``."""
        f = self.basis.dim
        return slice(x_index * f, (x_index + 1) * f)

    def omega_power(self, p: float) -> np.ndarray:
        """omega^p through the stored eigendecomposition of h (p acts as p/2 on h)."""
        return (self.h_evecs * self.h_evals ** (0.5 * p)) @ self.h_evecs.T

    def project(self, u) -> np.ndarray:
        """Mode coefficients of a lattice vector, or one row of them per row of a stack.

        The dropped complement is the mode truncation of the model itself,
        not an error; use ``modes.project`` directly to see the residual.
        """
        coeffs, _ = self.modes.project(np.asarray(u).T)
        return coeffs.T


def assemble_free(spec: ModelSpec) -> AssembledModel:
    """Build K and its spectrum, h, omega, the spectral modes, and dGamma.

    Boson modes are the lowest ``n_modes`` eigenvectors of h, orthonormal in
    the weighted inner product, so dGamma acts diagonally with frequencies
    sqrt(eigenvalues of h); its diagonal, the occupation energies, is summed
    in mode order.
    """
    grid = spec.grid
    check_dense_size("one-particle matrix", grid.size)
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

    modes = fock.ModeMap(grid, h_evecs[:, : spec.n_modes] / np.sqrt(grid.weight))
    mode_freqs = np.sqrt(h_evals[: spec.n_modes])
    basis = fock.fock_basis(spec.n_modes, spec.n_max)
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
        modes=modes,
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


def creation_family(model: AssembledModel, lam: float) -> OperatorMatrix:
    """A = blockdiag_X a*(v_{lam,X}), the creation part of the interaction.

    The dense A of the cutoff Hamiltonian H0 + A + A*: one scatter of the
    basis table ``FockBasis.creation_entries`` fills every X block.  The IBC
    assembly scatters the sector blocks of A from ``FockBasis.ladder``.
    """
    check_tensor_size(model.spec)
    size, fdim = model.grid.size, model.fock_dim
    rows, cols, modes, factors = model.basis.creation_entries
    x = np.arange(size)[:, None]
    coeffs = form_factor(model, lam)
    mat = np.zeros((size, fdim, size, fdim), dtype=coeffs.dtype)
    mat[x, rows, x, cols] = coeffs[:, modes] * factors
    return OperatorMatrix(mat.reshape(model.dim, model.dim), model.space, False)


def assemble_cutoff_hamiltonian(model: AssembledModel, lam: float) -> OperatorMatrix:
    """H_lam = H0 + A + A*, i.e. H0 + blockdiag_X Phi(omega^{-1/2} rho_{lam,X}).

    H0 sits on the Fock diagonal and A + A* off it, so the sum is exact.
    """
    mat = creation_family(model, lam).mat
    mat += mat.conj().T
    mat += model.h0.mat
    return OperatorMatrix(mat, model.space, True)


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


def perturbation_energy_sum(model: AssembledModel, lam: float) -> np.ndarray:
    """E_lam(X) as an explicit sum over one-boson excitations, one per X.

    Diagonalizes K + omega and accumulates |amplitude|^2 / denominator, the
    textbook second-order expression; agrees with ``vacuum_energy`` to
    round-off and exists purely as an independent cross-check.
    """
    ko = _k_plus_omega(model)
    evals, evecs = np.linalg.eigh(ko)
    amps = _omega_rho(model, lam) @ evecs.conj() * model.grid.weight
    return 0.5 * np.sum(np.abs(amps) ** 2 / evals, axis=1) / model.grid.weight


def vacuum_energy_quadrature(lam: float, d: int, g_const: float = 1.0) -> float:
    """Leading symbol form of E_lam for constant coefficients and unit mass.

    Radial quadrature of (h0+1)^{-1/2} / (K0+1) * gaussian_profile_hat(r/lam)^2
    with h0 = K0 = g_const * r^2, d in {1, 3}.  The integrand decays like
    r^{d-1-3}, so the d = 3 value grows logarithmically in lam.
    """
    if d not in (1, 3):
        raise ValueError("d must be 1 or 3")

    def integrand(r: float) -> float:
        h0 = g_const * r * r
        return (h0 + 1.0) ** -0.5 / (h0 + 1.0) * gaussian_profile_hat(r / lam) ** 2 * r ** (d - 1)

    sphere = {1: 2.0, 3: 4.0 * np.pi}[d]
    head, _ = quad(integrand, 0.0, lam, limit=200)
    tail, _ = quad(integrand, lam, np.inf, limit=200)
    return 0.5 * (2.0 * np.pi) ** -d * sphere * (head + tail)


def vacuum_energy_operator(model: AssembledModel, lam: float) -> np.ndarray:
    """E_lam(X) as the diagonal of its multiplication operator on the tensor space."""
    return np.repeat(vacuum_energy(model, lam), model.fock_dim)


def gross_B(model: AssembledModel, lam: float) -> np.ndarray:
    """Dressing functions B_{lam,X} = -(K+omega)^{-1} omega^{-1/2} rho^sigma_{lam,X}.

    One real row per lattice point X: rho is real, and so are omega and K.
    """
    return _dressing(model, lam)[1]


def gross_bound_ratio(
    model: AssembledModel,
    lam: float,
    alpha: float = 0.5,
    s: float = -2.0,
) -> float:
    """||omega^alpha B_X|| / ||rho^sigma_X||_{H^s} at X = 0; stability in lam is the point.

    The ratio ignores the coupling's scale and sign, so both rows are scaled by
    one exact power of two that keeps their squares from underflowing.
    """
    rho = form_factor_rho(model, lam)[0]
    scale = 2.0 ** -max(int(np.frexp(np.max(np.abs(rho)))[1]), -1021)
    num = lattice_norm(model.grid, model.omega_power(alpha) @ gross_B(model, lam)[0] * scale)
    return num / sobolev_norm(model.grid, rho * scale, s)


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
    leaves a residual that shrinks under grid refinement.

    Pass ``b_family``, a real (size, size) array of lattice rows B_X, to
    override the dressing; zero or X-independent rows are the degenerate checks.
    Returns a report dict; the headline entry is ``residual`` = safe-sector
    residual norm relative to the safe-sector norm of the left side.
    """
    spec = model.spec
    grid = model.grid
    if spec.n_modes != grid.size:
        raise ModelSpecError("the conjugation check needs the full mode set")
    h0 = model.h0.mat  # size-guarded; built before any other dense work
    size = grid.size
    basis = model.basis
    fdim = basis.dim
    d = derivative_matrix(grid)
    pd = 1j * d
    omega = model.omega

    smeared = _omega_rho(model, lam)
    if b_family is None:
        fam_b = gross_B(model, lam)
    else:
        fam_b = np.asarray(b_family, dtype=float)
        if fam_b.shape != (size, size):
            raise ValueError(f"b_family must have shape ({size}, {size})")
    fam_db = pd @ fam_b  # derivative along the family index X
    coeffs_b = model.project(fam_b)
    # a(dB_X) per lattice point, shared by the diagonal and mixed terms
    aops = [fock.annihilate(basis, c).mat for c in model.project(fam_db)]

    ident_f = np.eye(fdim)
    # U is block diagonal, so (U H U*)[X, Y] = V_X H[X, Y] V_Y*: two batched
    # products over the (X, Y) Fock blocks
    weyls = np.stack([fock.weyl(basis, b).mat for b in coeffs_b])
    h_blocks = assemble_cutoff_hamiltonian(model, lam).mat.reshape(size, fdim, size, fdim)
    lhs = weyls[:, None] @ h_blocks.transpose(0, 2, 1, 3) @ weyls.conj().transpose(0, 2, 1)
    lhs = lhs.transpose(0, 2, 1, 3).reshape(model.dim, model.dim)

    rhs = h0.astype(complex)  # the Weyl operators are complex
    g_pd = np.diag(spec.g) @ pd
    pd_g = pd @ np.diag(spec.g)
    sqrt2 = np.sqrt(2.0)
    shifted = model.project(smeared + fam_b @ (model.k0 + omega).T)
    for xi in range(size):
        blk = model.block(xi)
        b_x = fam_b[xi]
        aop = aops[xi]
        cop = aop.conj().T
        rhs[blk, blk] += fock.field(basis, shifted[xi]).mat
        rhs[blk, blk] += spec.g[xi] * (-0.5 * cop @ cop - 0.5 * aop @ aop + cop @ aop)
        scalar = (
            0.5 * inner(grid, b_x, omega @ b_x).real
            + inner(grid, b_x, smeared[xi]).real
            + 0.5 * spec.g[xi] * inner(grid, fam_db[xi], fam_db[xi]).real
        )
        rhs[blk, blk] += scalar * ident_f
        for yi in range(size):
            blk_y = model.block(yi)
            rhs[blk, blk_y] += -sqrt2 * g_pd[xi, yi] * cop
            rhs[blk, blk_y] += sqrt2 * pd_g[xi, yi] * aops[yi]

    cap = max(0, basis.n_max - 2)
    safe = basis.tensor_rows(1, 0, cap)
    idx = basis.tensor_rows(size, 0, cap)
    sub = np.ix_(idx, idx)
    residual_abs = opnorm((lhs - rhs)[sub])
    scale = opnorm(lhs[sub])

    # Fock-only conjugation identities, worst deviation over X
    dev_dgamma, dev_field, tolerance = 0.0, 0.0, 0.0
    freqs = model.mode_freqs
    dgamma = np.diag(model.occupation_energies)
    coeffs_u = model.project(smeared)
    for xi in range(size):
        b = coeffs_b[xi]
        v = weyls[xi]
        conj = v @ dgamma @ v.conj().T
        pred = (
            dgamma
            + fock.field(basis, freqs * b).mat
            + 0.5 * np.dot(b, freqs * b).real * ident_f
        )
        dev_dgamma = max(
            dev_dgamma, float(np.abs((conj - pred)[np.ix_(safe, safe)]).max())
        )
        u = coeffs_u[xi]
        conj = v @ fock.field(basis, u).mat @ v.conj().T
        pred = fock.field(basis, u).mat + np.dot(b, u).real * ident_f
        dev_field = max(
            dev_field, float(np.abs((conj - pred)[np.ix_(safe, safe)]).max())
        )
        tolerance = max(
            tolerance,
            fock.weyl_truncation_tolerance(basis.n_max, cap, float(np.linalg.norm(b))),
        )
    return {
        "residual": residual_abs / scale,
        "residual_abs": residual_abs,
        "scale": scale,
        "fock_dgamma_dev": dev_dgamma,
        "fock_field_dev": dev_field,
        "fock_tolerance": tolerance,
        "b_norm_max": float(np.max(np.linalg.norm(coeffs_b, axis=1))),
    }


# ---------------------------------------------------------------------------
# renormalization sweep


def relative_bound_report(
    model: AssembledModel, lam: float, eps: float = 0.5, draws: int = 20, seed: int = 11
) -> dict:
    """Check ||Phi psi|| <= eps ||H0 psi|| + C_eps ||psi|| on random states.

    C_eps is assembled from the interaction data itself: the worst mode norms
    of omega^{-1/2} v (against the dGamma^{1/2} piece) and of v (against the
    constant), plus eps * |min W| to undo the potential shift.
    """
    phi_part = creation_family(model, lam).mat
    phi_part += phi_part.conj().T
    h0_mat = model.h0.mat
    v = form_factor(model, lam)
    v_bound = float(np.max(np.linalg.norm(v, axis=1)))
    v_half = float(np.max(np.linalg.norm(v / np.sqrt(model.mode_freqs), axis=1)))
    c_eps = eps * abs(float(np.min(model.spec.w))) + v_half**2 / eps + v_bound
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        psi = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
        psi /= np.linalg.norm(psi)
        lhs = float(np.linalg.norm(phi_part @ psi))
        rhs = eps * float(np.linalg.norm(h0_mat @ psi)) + c_eps
        worst = max(worst, lhs / rhs)
    return {"worst_ratio": worst, "c_eps": c_eps, "eps": eps, "draws": draws}


def _level_and_resolvent(mat: np.ndarray) -> tuple[float, np.ndarray]:
    """Ground level and (H + i)^{-1} of a real symmetric H from one real eigh.

    With H = V diag(w) V^T, (H + i)^{-1} = V diag(w / (w^2 + 1)) V^T
    - i V diag(1 / (w^2 + 1)) V^T: two real products fill the real and the
    imaginary part.
    """
    w, v = np.linalg.eigh(mat)
    denom = w * w + 1.0
    res = np.empty(mat.shape, dtype=complex)
    res.real = (v * (w / denom)) @ v.T
    res.imag = (v * (-1.0 / denom)) @ v.T
    return float(w[0]), res


def renorm_convergence_experiment(model: AssembledModel, lams) -> dict:
    """Resolvent-distance table along a cutoff sweep, with and without E_lam.

    For each lam the level row records the ground-state energies of H_lam
    and H_lam + E_lam(X); for each consecutive pair the distance row records
    D = ||(H + E + i)^{-1} - (H' + E' + i)^{-1}|| (largest singular value)
    next to the unsubtracted comparison.  Both the level and the resolvent
    of each Hamiltonian come from one real eigh, and only the resolvents of
    the previous sweep point are kept.
    """
    lams = [float(v) for v in lams]
    if len(lams) < 2:
        raise ValueError("need at least two sweep points")
    levels, pairs = [], []
    previous = None
    for lam in lams:
        h_mat = assemble_cutoff_hamiltonian(model, lam).mat
        gs_plain, r_plain = _level_and_resolvent(h_mat)
        np.fill_diagonal(h_mat, h_mat.diagonal() + vacuum_energy_operator(model, lam))
        gs_sub, r_sub = _level_and_resolvent(h_mat)
        levels.append({"lam": lam, "gs_plain": gs_plain, "gs_subtracted": gs_sub})
        if previous is not None:
            lam_prev, prev_plain, prev_sub = previous
            pairs.append(
                {
                    "lam": lam_prev,
                    "lam_next": lam,
                    "d_subtracted": opnorm(prev_sub - r_sub),
                    "d_unsubtracted": opnorm(prev_plain - r_plain),
                }
            )
        previous = (lam, r_plain, r_sub)
    return {"levels": levels, "pairs": pairs}
