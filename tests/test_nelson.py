import tracemalloc

import numpy as np
import pytest

from nelsonlab import fock, nelson, operators
from nelsonlab.fock import annihilate, second_quantize
from nelsonlab.grid import (
    Grid,
    ResolutionError,
    cosine_ramp,
    derivative_matrix,
    dft,
    gaussian_profile_hat,
    idft,
    inner,
)
from nelsonlab.nelson import (
    ModelSpec,
    ModelSpecError,
    SpectralError,
    assemble_free,
    divergence_form,
    form_factor,
    free_peak_bytes,
    form_factor_rho,
    form_factor_split,
    gross_B,
    gross_bound_ratio,
    renorm_convergence_experiment,
    renorm_peak_bytes,
    sinusoidal_spec,
    transformed_hamiltonian_check,
    transformed_peak_bytes,
    vacuum_energy,
)
from nelsonlab.inequalities import vacuum_energy_quadrature
from nelsonlab.operators import HERMITIAN_TOL, SizeError, check_hermitian, opnorm

from dense_oracle import (
    creation_family,
    cutoff_hamiltonian,
    field,
    free_hamiltonian,
    split_blocks,
    vacuum_energy_diagonal,
    weyl,
)

# Frozen reference values for the bench model g = 1 + 0.3 sin x, W = 0.2 cos x,
# mu = 1, box = 2*pi, coupling 1, gaussian profile, computed with independent
# dense constructions from the grid/fock primitives.
E_BENCH_L8 = {1.0: 0.0911081611, 2.0: 0.1116041409, 4.0: 0.1248298327}
GS_H2_L8 = -0.14171464567370637
H0_MIN_EIG_L8 = -0.020107436204734923
E3_QUAD = [0.023661, 0.038881, 0.055571, 0.072836, 0.090302]
GROSS_RATIOS_L32 = {2.0: 0.837517, 4.0: 0.830418, 8.0: 0.828245}
SPLIT_RATIOS_L32 = {0: 0.025433, 8: 0.001206}
TRANSFORMED_REL_L8 = 0.009039
TRANSFORMED_REL_L16 = 0.005087
RENORM_GS_PLAIN = {1.0: -0.117266, 2.0: -0.141715, 4.0: -0.156803}
RENORM_GS_SUB = {1.0: -0.017886, 2.0: -0.017310, 4.0: -0.017145}
RENORM_D_SUB = {(1.0, 2.0): 0.04778738, (2.0, 4.0): 0.02269296}
RENORM_D_UNSUB = {(1.0, 2.0): 0.06576849, (2.0, 4.0): 0.03357479}


@pytest.fixture(scope="module")
def bench8():
    return assemble_free(sinusoidal_spec(8))


@pytest.fixture(scope="module")
def bench8_n3():
    return assemble_free(sinusoidal_spec(8, n_max=3))


@pytest.fixture(scope="module")
def bench32():
    return assemble_free(sinusoidal_spec(32))


@pytest.fixture(scope="module")
def ramped32():
    return assemble_free(sinusoidal_spec(32, sigma=0.5))


# ---------------------------------------------------------------------------
# spec validation


def test_spec_broadcasts_scalars():
    grid = Grid(1, 8, 2 * np.pi)
    spec = ModelSpec(grid=grid, g=1.0, mu=1.0, w=0.0)
    assert spec.g.shape == (8,)
    assert spec.mass_floor == 1.0
    assert (float(np.min(spec.g)), float(np.max(spec.g))) == (1.0, 1.0)


def test_spec_names_offending_point_on_ellipticity_violation():
    grid = Grid(1, 8, 2 * np.pi)
    g = np.ones(8)
    g[5] = -0.2
    with pytest.raises(ModelSpecError, match="lattice point 5"):
        ModelSpec(grid=grid, g=g, mu=1.0, w=0.0)


def test_spec_names_offending_point_on_mass_floor_violation():
    grid = Grid(1, 8, 2 * np.pi)
    mu = np.ones(8)
    mu[3] = 0.0
    with pytest.raises(ModelSpecError, match="lattice point 3"):
        ModelSpec(grid=grid, g=1.0, mu=mu, w=0.0)


def test_spec_refuses_mass_without_finite_square():
    grid = Grid(1, 8, 2 * np.pi)
    mu = np.ones(8)
    mu[6] = 1e300
    with pytest.raises(ModelSpecError, match=r"mass mu = 1e\+300"):
        ModelSpec(grid=grid, g=1.0, mu=mu, w=0.0)


def test_spec_rejects_bad_mode_count_and_sigma():
    grid = Grid(1, 8, 2 * np.pi)
    with pytest.raises(ModelSpecError):
        ModelSpec(grid=grid, g=1.0, mu=1.0, w=0.0, sigma=-0.1)


# ---------------------------------------------------------------------------
# free assembly


def test_flat_dispersion_is_exact():
    grid = Grid(1, 8, 2 * np.pi)
    m0 = 0.75
    h = divergence_form(grid, np.ones(8)) + np.diag(np.full(8, m0**2))
    got = np.sort(np.linalg.eigvalsh(h))
    want = np.sort(grid.momentum_sq() + m0**2)
    assert np.max(np.abs(got - want)) < 1e-12


def test_divergence_form_is_real_symmetric_psd():
    grid = Grid(1, 8, 2 * np.pi)
    x = grid.position_mesh()[:, 0]
    k0 = divergence_form(grid, 1.0 + 0.3 * np.sin(x))
    assert k0.dtype == np.float64
    assert np.max(np.abs(k0 - k0.T)) == 0.0
    assert np.linalg.eigvalsh(k0)[0] > -1e-12


def test_divergence_form_sums_every_axis():
    # at d = 2 with constant g, K0 = g |k|^2: |k|^2 spans {0, 1, 2, 4, 5, 8} on 4 x 4 points
    grid = Grid(2, 4, 2 * np.pi)
    spec = ModelSpec(grid=grid, g=1.5, mu=1.0, w=0.0, n_max=1)
    model = assemble_free(spec)
    want = np.sort(1.5 * grid.momentum_sq())
    assert np.max(np.abs(np.linalg.eigvalsh(model.k) - want)) < 1e-12
    with pytest.raises(ValueError, match="d = 1 lattice"):
        transformed_hamiltonian_check(model, 2.0)


def test_variable_h_spectrum_within_ellipticity_window(bench8):
    ev = np.linalg.eigvalsh(bench8.h)
    ximax2 = bench8.grid.max_momentum() ** 2
    hi = float(np.max(bench8.spec.g))
    assert ev[0] >= bench8.spec.mass_floor**2 - 1e-12
    assert ev[-1] <= hi * ximax2 + np.max(bench8.spec.mu**2) + 1e-12
    assert abs(ev[0] - 1.0) < 1e-10 and abs(ev[-1] - 17.0) < 0.5


def test_omega_powers_consistent(bench8):
    m = bench8
    assert np.max(np.abs(m.omega @ m.omega - m.h)) < 1e-10
    half = m.omega_power(0.5)
    assert np.max(np.abs(half @ half - m.omega)) < 1e-10
    prod = m.omega_power(-0.5) @ m.omega_power(0.5)
    assert np.max(np.abs(prod - np.eye(8))) < 1e-10


@pytest.mark.parametrize("name", ["bench8", "bench8_n3"])
def test_free_spectrum_matches_dense_oracle(request, name):
    model = request.getfixturevalue(name)
    dense_dgamma = second_quantize(model.basis, np.diag(model.mode_freqs))
    assert np.array_equal(model.occupation_energies, np.diag(dense_dgamma).real)
    assert np.all(dense_dgamma == np.diag(np.diag(dense_dgamma)))
    old_h0 = np.kron(model.k, np.eye(model.fock_dim)) + np.kron(
        np.eye(model.grid.size), dense_dgamma
    )
    assert np.array_equal(free_hamiltonian(model), old_h0)
    q, eps = model.k_evecs, model.k_evals
    assert np.max(np.abs((q * eps) @ q.T - model.k)) < 1e-12
    assert np.all(np.diff(eps) >= 0.0)


def test_dgamma_kills_vacuum(bench8):
    dg = np.diag(bench8.occupation_energies)
    assert np.max(np.abs(dg[:, 0])) == 0.0


def test_h0_hermitian_and_bounded_by_potential_floor(bench8):
    h0 = free_hamiltonian(bench8)
    assert np.max(np.abs(h0 - h0.conj().T)) <= HERMITIAN_TOL
    ev0 = np.linalg.eigvalsh(h0)[0]
    assert abs(ev0 - H0_MIN_EIG_L8) < 1e-9
    assert ev0 >= np.min(bench8.spec.w) - 1e-12


def test_check_hermitian_refuses_twice_the_tolerance():
    mat = np.eye(3, dtype=complex)
    mat[0, 1] = 1e-15  # roundoff passes, and the matrix comes back
    assert check_hermitian(mat) is mat
    mat[0, 1] = 2.0 * HERMITIAN_TOL
    with pytest.raises(ValueError, match="declared hermitian but max deviation 2.000e-10"):
        check_hermitian(mat)


# ---------------------------------------------------------------------------
# bump family


def test_rho_guard_names_scales(bench8):
    with pytest.raises(ResolutionError, match="4"):
        form_factor_rho(bench8, 8.0)
    with pytest.raises(ValueError):
        form_factor_rho(bench8, -1.0)


def test_rho_is_real_with_unit_mass(bench8):
    rho = form_factor_rho(bench8, 2.0)[3]
    assert rho.dtype == np.float64
    mass = np.sum(rho) * bench8.grid.weight
    assert abs(mass - bench8.spec.coupling) < 1e-12


def test_rho_refuses_a_bump_with_an_imaginary_part(bench8, monkeypatch):
    def skewed(grid, values_hat):
        return idft(grid, values_hat) + 1e-6j

    monkeypatch.setattr(nelson, "idft", skewed)
    with pytest.raises(SpectralError, match="imaginary part 1.000e-06"):
        form_factor_rho(bench8, 2.0)


def test_tiny_lam_couples_only_zero_mode(bench8):
    rho = form_factor_rho(bench8, 0.05)[0]
    hat = dft(bench8.grid, rho)
    assert np.max(np.abs(hat[1:])) < 1e-14


def test_infrared_ramp_zeroes_low_modes(bench32):
    ramped = assemble_free(sinusoidal_spec(32, sigma=1.5))
    rho = form_factor_rho(ramped, 4.0)[0]
    hat = dft(ramped.grid, rho)
    assert abs(hat[0]) < 1e-14  # |xi| = 0 < sigma
    assert abs(hat[1]) < abs(dft(bench32.grid, form_factor_rho(bench32, 4.0)[0])[1])


def _per_point_oracle(model, lam):
    """rho_X, v_X, B_X and E_lam(X) evaluated one lattice point at a time.

    bump -> idft -> omega^{-1/2} -> project for the form factor, and one
    (K+omega) solve per point for the dressing and the vacuum energy.
    """
    grid, spec = model.grid, model.spec
    mesh = grid.momentum_mesh()
    r = np.sqrt(np.einsum("kd,kd->k", mesh, mesh))
    profile = gaussian_profile_hat(r / lam) * cosine_ramp(r, spec.sigma)
    om = model.omega_power(-0.5)
    ko = model.k + model.omega
    rhos, vs, bs, es = [], [], [], []
    for x0 in grid.position_mesh():
        rho = spec.coupling * idft(grid, profile * np.exp(-1j * mesh @ x0))
        f = om @ rho
        sol = np.linalg.solve(ko, f)
        rhos.append(rho)
        vs.append(model.project(f / np.sqrt(2.0)))
        bs.append(-sol)
        es.append(0.5 * inner(grid, f, sol).real)
    return {"rho": rhos, "v": vs, "b": bs, "e": es}


@pytest.mark.parametrize("name", ["bench8", "bench8_n3", "ramped32"])
@pytest.mark.parametrize("lam", [1.0, 4.0])
def test_families_match_per_point_oracle(request, name, lam):
    model = request.getfixturevalue(name)
    want = _per_point_oracle(model, lam)
    got = {
        "rho": form_factor_rho(model, lam),
        "v": form_factor(model, lam),
        "b": gross_B(model, lam),
        "e": vacuum_energy(model, lam),
    }
    for key, rows in got.items():
        ref = np.array(want[key])
        assert rows.shape == ref.shape, key
        assert np.max(np.abs(rows - ref)) <= 1e-14 * np.max(np.abs(ref)), key


@pytest.mark.parametrize("name", ["bench8", "bench8_n3"])
def test_creation_family_blocks_are_per_point_creators(request, name):
    model = request.getfixturevalue(name)
    mat = creation_family(model, 2.0)
    v = form_factor(model, 2.0)
    f = model.fock_dim
    for xi in range(model.grid.size):
        blk = slice(xi * f, (xi + 1) * f)
        assert np.array_equal(mat[blk, blk], annihilate(model.basis, v[xi]).conj().T)


# ---------------------------------------------------------------------------
# cutoff Hamiltonian and vacuum energy


def test_cutoff_hamiltonian_lowers_ground_state(bench8):
    h2 = cutoff_hamiltonian(bench8, 2.0)
    assert np.max(np.abs(h2 - h2.conj().T)) <= HERMITIAN_TOL
    gs = np.linalg.eigvalsh(h2)[0]
    assert abs(gs - GS_H2_L8) < 1e-9
    assert gs < np.linalg.eigvalsh(free_hamiltonian(bench8))[0]


@pytest.mark.parametrize("name", ["bench8", "bench8_n3"])
@pytest.mark.parametrize("lam", [1.0, 2.0, 4.0])
def test_cutoff_hamiltonian_matches_field_oracle(request, name, lam):
    # dense oracle: H0 plus the field Phi(sqrt2 v_{lam,X}) on each diagonal X block
    model = request.getfixturevalue(name)
    want = free_hamiltonian(model).astype(complex)
    v = form_factor(model, lam)
    f = model.fock_dim
    for xi in range(model.grid.size):
        blk = slice(xi * f, (xi + 1) * f)
        want[blk, blk] += field(model.basis, np.sqrt(2.0) * v[xi])
    got = cutoff_hamiltonian(model, lam)
    assert np.max(np.abs(got - want)) <= 1e-15


def test_vacuum_energy_matches_frozen_values(bench8):
    for lam, want in E_BENCH_L8.items():
        got = vacuum_energy(bench8, lam)[0]
        assert abs(got - want) < 1e-9
    vals = [E_BENCH_L8[lam] for lam in (1.0, 2.0, 4.0)]
    assert vals[0] < vals[1] < vals[2]


def _perturbation_energy_sum(model, lam):
    """E_lam(X) as an explicit sum over one-boson excitations, one per X.

    The oracle of ``vacuum_energy``: diagonalizes K + omega and accumulates
    |amplitude|^2 / denominator, the textbook second-order expression,
    instead of solving against K + omega.
    """
    evals, evecs = np.linalg.eigh(model.k + model.omega)
    f = form_factor_rho(model, lam) @ model.omega_power(-0.5).T
    amps = f @ evecs.conj() * model.grid.weight
    return 0.5 * np.sum(np.abs(amps) ** 2 / evals, axis=1) / model.grid.weight


def test_vacuum_energy_agrees_with_perturbation_sum(bench8):
    for lam in (1.0, 2.0, 4.0):
        diff = np.abs(vacuum_energy(bench8, lam) - _perturbation_energy_sum(bench8, lam))
        assert np.max(diff) < 1e-12


def test_vacuum_energy_zero_coupling(bench8):
    spec = sinusoidal_spec(8, coupling=0.0)
    model = assemble_free(spec)
    assert np.all(vacuum_energy(model, 2.0) == 0.0)


def test_vacuum_energy_positive_across_points(bench8):
    assert np.min(vacuum_energy(bench8, 2.0)) > 0.0


def test_quadrature_log_divergence_d3():
    lams = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    vals = vacuum_energy_quadrature(lams, 3)
    assert np.max(np.abs(vals - np.array(E3_QUAD))) < 5e-6
    design = np.vstack([np.log(lams), np.ones_like(lams)]).T
    coef, res, *_ = np.linalg.lstsq(design, vals, rcond=None)
    r2 = 1.0 - res[0] / np.sum((vals - vals.mean()) ** 2)
    assert r2 >= 0.99
    assert coef[0] > 0.0


def test_quadrature_matches_matrix_evaluator_d1():
    model = assemble_free(
        ModelSpec(grid=Grid(1, 64, 2 * np.pi), g=1.0, mu=1.0, w=0.0, n_max=0)
    )
    lams = (2.0, 4.0, 8.0)
    for lam, e_quad in zip(lams, vacuum_energy_quadrature(lams, 1)):
        e_mat = vacuum_energy(model, lam)[0]
        assert abs(e_mat / e_quad - 1.0) < 0.1


def test_vacuum_energy_needs_positive_k_plus_omega():
    spec = sinusoidal_spec(8, w_amplitude=0.0)
    spec = ModelSpec(
        grid=spec.grid, g=spec.g, mu=spec.mu, w=np.full(8, -10.0), n_max=2
    )
    model = assemble_free(spec)
    with pytest.raises(SpectralError):
        vacuum_energy(model, 2.0)


def test_vacuum_energy_operator_is_diagonal(bench8):
    diag = vacuum_energy_diagonal(bench8, 2.0)
    per_x = vacuum_energy(bench8, 2.0)
    assert diag.shape == (bench8.dim,)
    assert np.array_equal(diag, np.repeat(per_x, bench8.fock_dim))


# ---------------------------------------------------------------------------
# dressing


def test_gross_B_real_and_zero_for_zero_coupling(bench32):
    b = gross_B(assemble_free(sinusoidal_spec(32, sigma=0.5)), 4.0)
    assert b.dtype == np.float64 and b.shape == (32, 32)
    model0 = assemble_free(sinusoidal_spec(8, coupling=0.0))
    b0 = gross_B(model0, 2.0)
    assert np.max(np.abs(b0)) == 0.0


def test_gross_bound_ratio_stable_under_lam_doubling():
    ramped = assemble_free(sinusoidal_spec(32, sigma=0.5))
    ratios = {lam: gross_bound_ratio(ramped, lam) for lam in (2.0, 4.0, 8.0)}
    for lam, want in GROSS_RATIOS_L32.items():
        assert abs(ratios[lam] - want) < 1e-5
    spread = max(ratios.values()) / min(ratios.values())
    assert spread < 2.0


def test_gross_bound_ratio_ignores_the_coupling_scale():
    # unscaled, the squared norms underflow to 0 / 0 at coupling 1e-200
    ratios = {
        coupling: gross_bound_ratio(assemble_free(sinusoidal_spec(8, coupling=coupling)), 2.0)
        for coupling in (1.0, 1e-200, -1e-200)
    }
    for coupling in (1e-200, -1e-200):
        assert ratios[coupling] == pytest.approx(ratios[1.0], rel=1e-12)


def test_form_factor_split_small_residual(bench32):
    u, residual, ratios = form_factor_split(bench32, 4.0)
    rhos = form_factor_rho(bench32, 4.0)
    for xi, want in SPLIT_RATIOS_L32.items():
        recon = u[xi] + residual[xi]
        v = bench32.omega_power(-0.5) @ rhos[xi]
        assert np.max(np.abs(recon - v / np.sqrt(2.0))) < 1e-12
        assert abs(ratios[xi] - want) < 1e-5
        assert ratios[xi] < 0.3


# ---------------------------------------------------------------------------
# conjugation check


def test_transformed_check_trivial_dressings(bench8):
    rz = transformed_hamiltonian_check(bench8, 2.0, b_family=np.zeros((8, 8)))
    assert rz["residual_abs"] == 0.0
    constant = np.broadcast_to(gross_B(bench8, 2.0)[0], (8, 8))
    rc = transformed_hamiltonian_check(bench8, 2.0, b_family=constant)
    assert rc["residual_abs"] <= rc["fock_tolerance"]


def test_transformed_check_values_and_decay(bench8):
    r8 = transformed_hamiltonian_check(bench8, 2.0)
    assert abs(r8["residual"] - TRANSFORMED_REL_L8) < 1e-5
    assert r8["fock_dgamma_dev"] <= r8["fock_tolerance"]
    assert r8["fock_field_dev"] <= r8["fock_tolerance"]
    m16 = assemble_free(sinusoidal_spec(16))
    r16 = transformed_hamiltonian_check(m16, 2.0)
    assert abs(r16["residual"] - TRANSFORMED_REL_L16) < 1e-5
    assert r8["residual"] / r16["residual"] >= 1.5


def test_fock_conjugation_deviations_vanish_at_tiny_coupling():
    # the Weyl truncation tolerance underflows to 0 here, and the deviations
    # stay at roundoff, below the floor cli.FLOAT_FLOOR the gross-transform rows keep
    model = assemble_free(sinusoidal_spec(8, coupling=1e-200))
    for lam in (1.0, 2.0, 4.0):
        report = transformed_hamiltonian_check(model, lam)
        assert report["fock_tolerance"] == 0.0
        assert report["fock_dgamma_dev"] <= 1e-20 and report["fock_field_dev"] <= 1e-20


def _dense_transformed_oracle(model, lam, b_family=None):
    """The conjugation check on the whole tensor space, restricted afterwards.

    Forms the dense U H_lam U* from the oracle ``cutoff_hamiltonian`` and the
    Weyl operator of each X, and the right side termwise in an X x Y loop
    over full Fock blocks, then compares both on the safe rows.
    """
    spec, grid, basis = model.spec, model.grid, model.basis
    h0 = free_hamiltonian(model)
    size, fdim = grid.size, basis.dim
    pd = 1j * derivative_matrix(grid)
    omega = model.omega

    def block(xi):
        return slice(xi * fdim, (xi + 1) * fdim)

    smeared = nelson._omega_rho(model, lam)
    fam_b = gross_B(model, lam) if b_family is None else np.asarray(b_family, dtype=float)
    fam_db = pd @ fam_b
    coeffs_b = model.project(fam_b)
    aops = [annihilate(basis, c) for c in model.project(fam_db)]

    ident_f = np.eye(fdim)
    weyls = np.stack([weyl(basis, b) for b in coeffs_b])
    h_blocks = cutoff_hamiltonian(model, lam).reshape(size, fdim, size, fdim)
    lhs = weyls[:, None] @ h_blocks.transpose(0, 2, 1, 3) @ weyls.conj().transpose(0, 2, 1)
    lhs = lhs.transpose(0, 2, 1, 3).reshape(model.dim, model.dim)

    rhs = h0.astype(complex)
    g_pd = np.diag(spec.g) @ pd
    pd_g = pd @ np.diag(spec.g)
    sqrt2 = np.sqrt(2.0)
    shifted = model.project(smeared + fam_b @ (model.k0 + omega).T)
    for xi in range(size):
        blk = block(xi)
        b_x = fam_b[xi]
        aop = aops[xi]
        cop = aop.conj().T
        rhs[blk, blk] += field(basis, shifted[xi])
        rhs[blk, blk] += spec.g[xi] * (-0.5 * cop @ cop - 0.5 * aop @ aop + cop @ aop)
        scalar = (
            0.5 * inner(grid, b_x, omega @ b_x).real
            + inner(grid, b_x, smeared[xi]).real
            + 0.5 * spec.g[xi] * inner(grid, fam_db[xi], fam_db[xi]).real
        )
        rhs[blk, blk] += scalar * ident_f
        for yi in range(size):
            blk_y = block(yi)
            rhs[blk, blk_y] += -sqrt2 * g_pd[xi, yi] * cop
            rhs[blk, blk_y] += sqrt2 * pd_g[xi, yi] * aops[yi]

    cap = max(0, basis.n_max - 2)
    safe = basis.tensor_rows(1, 0, cap)
    idx = basis.tensor_rows(size, 0, cap)
    sub = np.ix_(idx, idx)
    residual_abs = opnorm((lhs - rhs)[sub])
    scale = opnorm(lhs[sub])

    dev_dgamma, dev_field, tolerance = 0.0, 0.0, 0.0
    freqs = model.mode_freqs
    dgamma = np.diag(model.occupation_energies)
    coeffs_u = model.project(smeared)
    for xi in range(size):
        b = coeffs_b[xi]
        v = weyls[xi]
        conj = v @ dgamma @ v.conj().T
        pred = dgamma + field(basis, freqs * b) + 0.5 * np.dot(b, freqs * b).real * ident_f
        dev_dgamma = max(dev_dgamma, float(np.abs((conj - pred)[np.ix_(safe, safe)]).max()))
        u = coeffs_u[xi]
        conj = v @ field(basis, u) @ v.conj().T
        pred = field(basis, u) + np.dot(b, u).real * ident_f
        dev_field = max(dev_field, float(np.abs((conj - pred)[np.ix_(safe, safe)]).max()))
        tolerance = max(
            tolerance, fock.weyl_truncation_tolerance(basis.n_max, cap, float(np.linalg.norm(b)))
        )
    return {
        "residual": residual_abs / scale,
        "residual_abs": residual_abs,
        "scale": scale,
        "fock_dgamma_dev": dev_dgamma,
        "fock_field_dev": dev_field,
        "fock_tolerance": tolerance,
        "b_norm_max": float(np.max(np.linalg.norm(coeffs_b, axis=1))),
        "safe_dim": len(idx),
    }


def _b_family(model, lam, family):
    """The ``b_family`` override of a test family: None for the gross dressing."""
    size = model.grid.size
    return {
        "dressing": None,
        "zero": np.zeros((size, size)),
        "constant": np.broadcast_to(gross_B(model, lam)[0], (size, size)),
    }[family]


@pytest.mark.parametrize("name", ["bench8", "bench8_n3"])
@pytest.mark.parametrize("lam", [1.0, 4.0])
@pytest.mark.parametrize("family", ["dressing", "zero", "constant"])
def test_transformed_check_matches_dense_oracle(request, name, lam, family):
    model = request.getfixturevalue(name)
    b_family = _b_family(model, lam, family)
    want = _dense_transformed_oracle(model, lam, b_family)
    got = transformed_hamiltonian_check(model, lam, b_family)
    # the residual is a difference of terms of norm ``scale``, so its roundoff
    # is relative to the scale: at a constant dressing it cancels to ~1e-5 of it
    floor = {"residual_abs": want["scale"], "residual": 1.0}
    # The dGamma deviation (up to 5.7e-4) is a difference of entries as large as
    # the safe energies (4.1 at n_max 3), so its roundoff is absolute: the
    # oracle's eigh-built V and the Taylor rows differ in it by up to 1.1e-15,
    # and the oracle is the one further from the extended-precision value
    # (test_dgamma_deviation_matches_extended_precision).  A zero dressing
    # leaves it exactly 0 on both routes.
    dgamma_abs = 0.0 if family == "zero" else 1e-14
    for key, value in want.items():
        atol = dgamma_abs if key == "fock_dgamma_dev" else 1e-12 * floor.get(key, 0.0)
        assert got[key] == pytest.approx(value, rel=1e-12, abs=atol), key


def _extended_dgamma_dev(model, fam_b):
    """``fock_dgamma_dev`` of real dressing rows, summed in ``np.longdouble``.

    From the same double inputs (mode coefficients, frequencies, occupation
    energies): rows s of V(b_X) = exp((a(b_X) - a*(b_X)) / sqrt2) by a Taylor
    series on the dense Fock generator, in steps of norm <= 1 with 25 terms
    each, and max |V dGamma V* - dGamma - Phi(freqs b_X) - <b_X, freqs b_X>/2|
    on s x s.
    """
    ext = np.longdouble
    basis = model.basis
    rows, cols, modes, factors = basis.creation_entries
    roots = np.sqrt(np.rint(factors**2).astype(ext))  # sqrt(n + 1) to extended precision
    sqrt2 = np.sqrt(ext(2))
    safe = basis.tensor_rows(1, 0, max(0, basis.n_max - 2))
    energies = model.occupation_energies.astype(ext)
    freqs = model.mode_freqs.astype(ext)

    def lower(f):
        mat = np.zeros((basis.dim, basis.dim), dtype=ext)
        mat[cols, rows] = f[modes] * roots
        return mat

    dev = ext(0)
    for b in model.project(fam_b).astype(ext):
        a = lower(b)
        generator = (a - a.T) / sqrt2
        steps = max(1, int(np.ceil(np.sqrt(2.0 * basis.n_max) * float(np.linalg.norm(b.astype(float))))))
        x = np.eye(basis.dim, dtype=ext)[safe]
        for _ in range(steps):
            term = x
            for j in range(1, 26):
                term = term @ generator / (j * steps)
                x = x + term
        a = lower(freqs * b)
        pred = np.diag(energies[safe]) + ((a + a.T) / sqrt2)[np.ix_(safe, safe)]
        pred += np.dot(b, freqs * b) / 2 * np.eye(len(safe), dtype=ext)
        dev = max(dev, np.abs((x * energies) @ x.T - pred).max())
    return float(dev)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is not extended precision here")
@pytest.mark.parametrize("name", ["bench8", "bench8_n3"])
@pytest.mark.parametrize("lam", [1.0, 4.0])
@pytest.mark.parametrize("family", ["dressing", "constant"])
def test_dgamma_deviation_matches_extended_precision(request, name, lam, family):
    # the Taylor rows put at most 3.4e-16 of roundoff into the deviation, where
    # the eigh-built dense oracle puts up to 1.5e-15
    model = request.getfixturevalue(name)
    b_family = _b_family(model, lam, family)
    fam_b = gross_B(model, lam) if b_family is None else b_family
    got = transformed_hamiltonian_check(model, lam, b_family)["fock_dgamma_dev"]
    assert got == pytest.approx(_extended_dgamma_dev(model, fam_b), rel=0.0, abs=1e-15)


def test_transformed_check_forms_no_tensor_matrix(bench8_n3):
    one_dense = 16 * bench8_n3.dim**2  # one complex array of side 1320: 27.9 MB
    tracemalloc.start()
    try:
        report = transformed_hamiltonian_check(bench8_n3, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < one_dense
    assert report["safe_dim"] == 72


def _traced_peak(fn) -> int:
    """The tracemalloc peak of ``fn()``: the bytes it allocated and held at once."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_assemble_free_peak_is_within_its_stated_bytes():
    # the largest model of configs/regularity-64.cfg
    spec = sinusoidal_spec(64)
    peak = _traced_peak(lambda: assemble_free(spec))
    assert peak <= free_peak_bytes(64, 2) <= 4 * peak


def test_transformed_check_peak_is_within_its_stated_bytes(bench8_n3):
    # n_max 3 of the dense-tensor workload
    peak = _traced_peak(lambda: transformed_hamiltonian_check(bench8_n3, 4.0))
    assert peak <= transformed_peak_bytes(8, 3) <= 4 * peak


def test_transformed_check_at_npts_16_forms_no_fock_matrix():
    # configs/gross-transform-16.cfg: fock_dim 969, so one complex Fock-side
    # matrix is 15.0 MB; the route holds the 17 safe rows of each W_X instead
    model = assemble_free(sinusoidal_spec(16, n_max=3))
    one_fock_matrix = 16 * model.fock_dim**2
    peak = _traced_peak(lambda: transformed_hamiltonian_check(model, 4.0))
    assert peak < one_fock_matrix
    assert peak <= transformed_peak_bytes(16, 3) <= 4 * peak


def test_renorm_peak_is_within_its_stated_bytes(bench8_n3):
    # n_max 3 of the dense-tensor workload, and n_max 1, where a distance's Lanczos
    # basis can hold no more vectors than its side of 72; the ladder is cached on
    # the basis, and numpy.random is imported on first use, so neither is kernel memory
    np.random.default_rng()
    for model in (bench8_n3, assemble_free(sinusoidal_spec(8, n_max=1))):
        model.basis.ladder
        peak = _traced_peak(lambda: renorm_convergence_experiment(model, [1.0, 2.0, 4.0]))
        assert peak <= renorm_peak_bytes(8, model.basis.n_max) <= 4 * peak


def test_size_guard_reports_dimensions():
    # at npts 64, n_max 3 the safe rows W_X alone are 64 x 65 x 47905 complex
    # entries (3.2 GB); the model itself is cheap
    model = assemble_free(sinusoidal_spec(64, n_max=3))
    with pytest.raises(SizeError, match="transformed_hamiltonian_check would hold 5747265824 bytes"):
        transformed_hamiltonian_check(model, 2.0)
    with pytest.raises(SizeError, match="assemble_free would hold 4405831434240 bytes"):
        assemble_free(sinusoidal_spec(8192))


def test_renorm_guard_refuses_before_the_ladder(monkeypatch):
    # at npts 64, n_max 2 the sectors below the top one have side 64 x 65 = 4160, so
    # three complex Schur inverses hold 0.77 GiB beside a distance's Lanczos basis of
    # side 141 440 (0.81 GiB); the model itself is cheap
    model = assemble_free(sinusoidal_spec(64))

    def forbidden(*args):
        raise AssertionError("read the ladder or the coupling past the guard")

    monkeypatch.setattr(fock.FockBasis, "ladder", property(forbidden))
    monkeypatch.setattr(nelson, "form_factor", forbidden)
    with pytest.raises(SizeError, match="renorm_convergence_experiment would hold 1706680320 bytes"):
        renorm_convergence_experiment(model, [1.0, 2.0])


# the stated peaks of a sweep whose splits kept L beside its Schur inverse, with
# the step Gram subtracted in place and no basis longer than its side
THREE_SPLIT_PEAK_BYTES = {(8, 1): 259072, (8, 3): 18798592, (16, 2): 21961728, (32, 2): 195715072, (64, 2): 2122014720}


def test_renorm_peak_drops_l_from_each_split():
    # a distance, beside three splits, sets the peak, and each split sheds L (S^2 float64)
    for (npts, n_max), before in THREE_SPLIT_PEAK_BYTES.items():
        low = npts * sum(fock.sector_dims(npts, n_max)[:-1])
        assert renorm_peak_bytes(npts, n_max) == before - 3 * 8 * low**2


def test_level_peak_is_within_its_stated_bytes():
    # the eigensolver and the tensor apply hold a few vectors of the tensor dimension
    for npts, n_max in ((8, 3), (16, 2), (32, 2)):
        model = assemble_free(sinusoidal_spec(npts, n_max=n_max))
        model.basis.ladder
        np.random.default_rng()
        peak = _traced_peak(lambda: nelson.ground_state(model, 2.0, np.zeros(npts)))
        assert peak <= nelson.level_peak_bytes(npts, n_max) <= 4 * peak
        assert nelson.level_peak_bytes(npts, n_max) - (1 << 16) <= 32 * 8 * model.dim


# ---------------------------------------------------------------------------
# renormalization sweep


@pytest.fixture(scope="module")
def renorm_table(bench8):
    return renorm_convergence_experiment(bench8, [1.0, 2.0, 4.0])


def test_renorm_table_matches_dense_oracle(bench8, renorm_table):
    # dense oracle: eigvalsh for the levels, inv(H + i) and opnorm for the distances
    eye = np.eye(bench8.dim)
    levels, resolvents = [], {}
    for lam in (1.0, 2.0, 4.0):
        h = cutoff_hamiltonian(bench8, lam)
        sub = h + np.diag(vacuum_energy_diagonal(bench8, lam))
        levels.append((np.linalg.eigvalsh(h)[0], np.linalg.eigvalsh(sub)[0]))
        resolvents[lam] = (np.linalg.inv(h + 1j * eye), np.linalg.inv(sub + 1j * eye))
    for row, (plain, sub) in zip(renorm_table["levels"], levels):
        assert abs(row["gs_plain"] - plain) <= 1e-12
        assert abs(row["gs_subtracted"] - sub) <= 1e-12
    assert len(renorm_table["levels"]) == 3 and len(renorm_table["pairs"]) == 2
    for row in renorm_table["pairs"]:
        (plain_a, sub_a), (plain_b, sub_b) = resolvents[row["lam"]], resolvents[row["lam_next"]]
        assert abs(row["d_unsubtracted"] - opnorm(plain_a - plain_b)) <= 1e-12
        assert abs(row["d_subtracted"] - opnorm(sub_a - sub_b)) <= 1e-12


def test_renorm_levels_match_frozen(renorm_table):
    for row in renorm_table["levels"]:
        assert abs(row["gs_plain"] - RENORM_GS_PLAIN[row["lam"]]) < 1e-6
        assert abs(row["gs_subtracted"] - RENORM_GS_SUB[row["lam"]]) < 1e-6


def test_renorm_distances_decrease_and_subtraction_helps(renorm_table):
    pairs = {(row["lam"], row["lam_next"]): row for row in renorm_table["pairs"]}
    for key, want in RENORM_D_SUB.items():
        assert abs(pairs[key]["d_subtracted"] - want) < 1e-6
    for key, want in RENORM_D_UNSUB.items():
        assert abs(pairs[key]["d_unsubtracted"] - want) < 1e-6
    assert pairs[(2.0, 4.0)]["d_subtracted"] < pairs[(1.0, 2.0)]["d_subtracted"]
    for key in pairs:
        assert pairs[key]["d_unsubtracted"] > pairs[key]["d_subtracted"]


def test_renorm_subtracted_ground_state_flatter(renorm_table):
    plain = [row["gs_plain"] for row in renorm_table["levels"]]
    sub = [row["gs_subtracted"] for row in renorm_table["levels"]]
    assert max(sub) - min(sub) < max(plain) - min(plain)


def test_renorm_lower_bound_stable(renorm_table):
    sub = {row["lam"]: row["gs_subtracted"] for row in renorm_table["levels"]}
    for a, b in [(1.0, 2.0), (2.0, 4.0)]:
        drop = (sub[a] - sub[b]) / abs(sub[a])
        assert drop <= 0.05


def test_renorm_distances_match_dense_svd_at_n_max_3(bench8_n3):
    # dense oracle at dim 1320: inv(H + i) and the full SVD of the difference
    report = renorm_convergence_experiment(bench8_n3, [1.0, 4.0])
    eye = np.eye(bench8_n3.dim)
    resolvents = {}
    for lam in (1.0, 4.0):
        h = cutoff_hamiltonian(bench8_n3, lam)
        sub = h + np.diag(vacuum_energy_diagonal(bench8_n3, lam))
        resolvents[lam] = (np.linalg.inv(h + 1j * eye), np.linalg.inv(sub + 1j * eye))
    (plain_a, sub_a), (plain_b, sub_b) = resolvents[1.0], resolvents[4.0]
    (row,) = report["pairs"]
    assert abs(row["d_unsubtracted"] - opnorm(plain_a - plain_b)) <= 1e-12
    assert abs(row["d_subtracted"] - opnorm(sub_a - sub_b)) <= 1e-12
    assert report["dim"] == 1320


def test_resolvent_distance_independent_of_start_vector(bench8):
    splits = [nelson._split_top_sector(bench8, lam, np.zeros(8)) for lam in (1.0, 2.0)]
    runs = [nelson._resolvent_distance(*splits, seed=seed) for seed in (0, 1, 2)]
    values = [value for value, _ in runs]
    assert max(values) - min(values) <= 1e-13 * values[0]
    for _, record in runs:
        assert record["gram_applications"] > 0
        assert record["residual"] < 1e-10
    assert nelson._resolvent_distance(splits[0], splits[0]) == (
        0.0,
        {"gram_applications": 0, "residual": 0.0},
    )


@pytest.mark.parametrize("npts", [4, 8])
@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_top_sector_kernel_matches_dense_oracle(npts, n_max):
    # dense oracle: eigvalsh for the levels, inv(H + i) and opnorm for the distances
    model = assemble_free(sinusoidal_spec(npts, n_max=n_max))
    report = renorm_convergence_experiment(model, [1.0, 2.0])
    assert report["schur_dim"] == npts * model.basis.sector_bounds[n_max]
    eye = np.eye(model.dim)
    resolvents = {}
    for lam, row in zip((1.0, 2.0), report["levels"]):
        h = cutoff_hamiltonian(model, lam)
        sub = h + np.diag(vacuum_energy_diagonal(model, lam))
        assert abs(row["gs_plain"] - np.linalg.eigvalsh(h)[0]) <= 1e-12
        assert abs(row["gs_subtracted"] - np.linalg.eigvalsh(sub)[0]) <= 1e-12
        for record in row["solver"].values():
            assert record["iterations"] >= 1 and record["residual"] <= operators.LOBPCG_TOL
        resolvents[lam] = (np.linalg.inv(h + 1j * eye), np.linalg.inv(sub + 1j * eye))
    (plain_a, sub_a), (plain_b, sub_b) = resolvents[1.0], resolvents[2.0]
    (row,) = report["pairs"]
    assert abs(row["d_unsubtracted"] - opnorm(plain_a - plain_b)) <= 1e-12
    assert abs(row["d_subtracted"] - opnorm(sub_a - sub_b)) <= 1e-12


@pytest.mark.parametrize("npts", [4, 8])
@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_step_gram_matches_dense_oracle(npts, n_max):
    # C diag(w) C^T with C = A_n^T (Q x 1) from the dense A, for each step n-1 -> n
    # and a real and a complex weight on the rotated sector n
    model = assemble_free(sinusoidal_spec(npts, n_max=n_max))
    blocks = split_blocks(model, creation_family(model, 2.0))
    coeffs, q = form_factor(model, 2.0), model.k_evecs
    dims = np.diff(model.basis.sector_bounds)
    rng = np.random.default_rng(10 * npts + n_max)
    for n, lad in enumerate(model.basis.ladder, start=1):
        step = nelson.SectorStep.of(lad, coeffs, q)
        dense_c = blocks[n, n - 1].T @ np.kron(q, np.eye(dims[n]))
        real = rng.uniform(0.5, 2.0, (npts, dims[n]))
        for weight in (real, 1.0 / (real + 1j)):
            want = (dense_c * weight.ravel()) @ dense_c.T
            got = np.zeros((step.side, step.side), dtype=weight.dtype)
            step.subtract_gram(got, weight)
            got = -got
            assert got.dtype == weight.dtype
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_step_gram_forms_nothing_of_the_step_side_squared():
    # the top step at npts 32, n_max 2 has side 32 x 32 = 1024, so one complex
    # array of its side squared is 16.8 MB; the Gram goes into the corner in place
    model = assemble_free(sinusoidal_spec(32, n_max=2))
    lad = model.basis.ladder[1]
    lad.target_runs, lad.by_source  # cached on the basis, not kernel memory
    step = nelson.SectorStep.of(lad, form_factor(model, 2.0), model.k_evecs)
    base = model.k_evals[:, None] + model.occupation_energies[model.basis.sector_slice(2)]
    weight = 1.0 / (base + 1j)
    mat = np.zeros((step.side + 32, step.side + 32), dtype=complex)
    peak = _traced_peak(lambda: step.subtract_gram(mat, weight))
    assert np.count_nonzero(mat[:32]) == np.count_nonzero(mat[:, :32]) == 0
    assert np.count_nonzero(mat[32:, 32:]) > 0
    assert peak < 16 * step.side**2


@pytest.mark.parametrize("npts", [4, 8])
@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_ladder_scatter_applies_the_dense_creation_block(npts, n_max):
    model = assemble_free(sinusoidal_spec(npts, n_max=n_max))
    blocks = split_blocks(model, creation_family(model, 2.0))
    coeffs = form_factor(model, 2.0)
    dims = np.diff(model.basis.sector_bounds)
    rng = np.random.default_rng(10 * npts + n_max)
    for n, lad in enumerate(model.basis.ladder, start=1):
        step = nelson.SectorStep.of(lad, coeffs, model.k_evecs)
        a_n = blocks[n, n - 1]
        v = rng.standard_normal((npts, dims[n - 1])) + 1j * rng.standard_normal((npts, dims[n - 1]))
        u = rng.standard_normal((npts, dims[n]))
        scale = np.abs(a_n).max()
        assert np.abs(step.create(v).ravel() - a_n @ v.ravel()).max() <= 1e-14 * scale
        assert np.abs(step.annihilate(u).ravel() - a_n.T @ u.ravel()).max() <= 1e-14 * scale


@pytest.mark.parametrize("npts", [4, 8])
@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_tensor_apply_matches_dense_oracle(npts, n_max):
    model = assemble_free(sinusoidal_spec(npts, n_max=n_max))
    dense = cutoff_hamiltonian(model, 2.0) + np.diag(vacuum_energy_diagonal(model, 2.0))
    apply = nelson.hamiltonian_apply(model, 2.0, vacuum_energy(model, 2.0))
    rng = np.random.default_rng(10 * npts + n_max)
    for x in rng.standard_normal((3, model.dim)):
        assert np.abs(apply(x) - dense @ x).max() <= 1e-13 * np.abs(dense).max() * np.abs(x).max()


@pytest.mark.parametrize("npts, n_max", [(4, 2), (8, 3)])
def test_free_resolve_matches_dense_inverse(npts, n_max):
    model = assemble_free(sinusoidal_spec(npts, n_max=n_max))
    x = np.random.default_rng(npts).standard_normal(model.dim)
    for z in (nelson.free_shift(model), 1j):
        want = np.linalg.inv(free_hamiltonian(model) + z * np.eye(model.dim)) @ x
        got = model.free_resolve(x, z)
        assert got.dtype == want.dtype
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_renorm_sweep_at_zero_coupling():
    # no coupling: H_lam is H0 at every lam and E_lam = 0, so every resolvent
    # distance is exactly 0 without a Gram application, and the level is min K
    model = assemble_free(sinusoidal_spec(8, coupling=0.0))
    report = renorm_convergence_experiment(model, [1.0, 2.0, 4.0])
    k_min = np.linalg.eigvalsh(model.k)[0]
    for row in report["levels"]:
        assert abs(row["gs_plain"] - k_min) <= 1e-15
        assert abs(row["gs_subtracted"] - k_min) <= 1e-15
    for row in report["pairs"]:
        assert row["d_subtracted"] == row["d_unsubtracted"] == 0.0
        for record in row["solver"].values():
            assert record == {"gram_applications": 0, "residual": 0.0}


def test_renorm_sweep_runs_no_solver_on_the_tensor_space(bench8_n3, monkeypatch):
    side = bench8_n3.dim

    def guarded(name, fn):
        def call(mat, *args, **kwargs):
            if np.shape(mat) == (side, side):
                raise AssertionError(f"{name} on a matrix of the tensor side {side}")
            return fn(mat, *args, **kwargs)

        return call

    for name in ("eigh", "eigvalsh", "svd", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, guarded(name, getattr(np.linalg, name)))
    report = renorm_convergence_experiment(bench8_n3, [1.0, 4.0])
    # the rows of perfbench/reference/dense-tensor/renorm-convergence.csv
    levels = [(row["gs_plain"], row["gs_subtracted"]) for row in report["levels"]]
    want = [(-0.117584930081, -0.0182041715876), (-0.157422604427, -0.0177618525955)]
    assert np.allclose(levels, want, rtol=1e-11, atol=0.0)
    (row,) = report["pairs"]
    assert abs(row["d_subtracted"] - 0.072017616394) <= 1e-12
    assert abs(row["d_unsubtracted"] - 0.100704928252) <= 1e-12
    assert (report["dim"], report["schur_dim"]) == (1320, 360)


def test_renorm_sweep_takes_no_dense_svd(bench8, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense SVD in the resolvent distances")

    monkeypatch.setattr(operators, "opnorm", forbidden)
    monkeypatch.setattr(nelson, "opnorm", forbidden)
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    report = renorm_convergence_experiment(bench8, [1.0, 2.0])
    (row,) = report["pairs"]
    assert abs(row["d_subtracted"] - RENORM_D_SUB[(1.0, 2.0)]) < 1e-6


def test_relative_bound_on_random_states(bench8, eps=0.5, draws=20, seed=11):
    # ||Phi psi|| <= eps ||H0 psi|| + C_eps ||psi|| on random states, on the dense
    # oracle.  C_eps is assembled from the interaction data itself: the worst
    # mode norms of omega^{-1/2} v (against the dGamma^{1/2} piece) and of v
    # (against the constant), plus eps * |min W| to undo the potential shift
    phi_part = creation_family(bench8, 2.0)
    phi_part += phi_part.conj().T
    h0 = free_hamiltonian(bench8)
    v = form_factor(bench8, 2.0)
    v_bound = float(np.max(np.linalg.norm(v, axis=1)))
    v_half = float(np.max(np.linalg.norm(v / np.sqrt(bench8.mode_freqs), axis=1)))
    c_eps = eps * abs(float(np.min(bench8.spec.w))) + v_half**2 / eps + v_bound
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        psi = rng.standard_normal(bench8.dim) + 1j * rng.standard_normal(bench8.dim)
        psi /= np.linalg.norm(psi)
        ratio = np.linalg.norm(phi_part @ psi) / (eps * np.linalg.norm(h0 @ psi) + c_eps)
        worst = max(worst, float(ratio))
    assert worst < 1.0
    assert abs(worst - 0.0511) < 1e-3


def test_form_factor_lam_zero_limit(bench8):
    # at lam -> 0 only the zero mode couples, so the form factor collapses
    # toward the projection of omega^{-1/2} applied to a constant
    v = form_factor(bench8, 0.05)[0]
    rho = form_factor_rho(bench8, 0.05)[0]
    const = np.full(8, np.mean(rho))
    want = bench8.project(bench8.omega_power(-0.5) @ const / np.sqrt(2.0))
    assert np.max(np.abs(v - want)) < 1e-12
