import numpy as np
import pytest

from nelsonlab import nelson
from nelsonlab.fock import annihilate, field, second_quantize
from nelsonlab.grid import (
    Grid,
    ResolutionError,
    cosine_ramp,
    dft,
    gaussian_profile_hat,
    idft,
    inner,
)
from nelsonlab.nelson import (
    ModelSpec,
    ModelSpecError,
    SizeError,
    SpectralError,
    assemble_cutoff_hamiltonian,
    assemble_free,
    creation_family,
    divergence_form,
    form_factor,
    form_factor_rho,
    form_factor_split,
    gross_B,
    gross_bound_ratio,
    perturbation_energy_sum,
    relative_bound_report,
    renorm_convergence_experiment,
    sinusoidal_spec,
    transformed_hamiltonian_check,
    vacuum_energy,
    vacuum_energy_operator,
    vacuum_energy_quadrature,
)
from nelsonlab.operators import opnorm

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
    assert spec.ellipticity_bounds == (1.0, 1.0)


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
        ModelSpec(grid=grid, g=1.0, mu=1.0, w=0.0, n_modes=9)
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


def test_variable_h_spectrum_within_ellipticity_window(bench8):
    ev = np.linalg.eigvalsh(bench8.h)
    ximax2 = bench8.grid.max_momentum() ** 2
    lo, hi = bench8.spec.ellipticity_bounds
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
    dense_dgamma = second_quantize(model.basis, np.diag(model.mode_freqs)).mat
    assert np.array_equal(model.occupation_energies, np.diag(dense_dgamma).real)
    assert np.all(dense_dgamma == np.diag(np.diag(dense_dgamma)))
    old_h0 = np.kron(model.k, np.eye(model.fock_dim)) + np.kron(
        np.eye(model.grid.size), dense_dgamma
    )
    assert np.array_equal(model.h0.mat, old_h0)
    q, eps = model.k_evecs, model.k_evals
    assert np.max(np.abs((q * eps) @ q.T - model.k)) < 1e-12
    assert np.all(np.diff(eps) >= 0.0)


def test_dgamma_kills_vacuum(bench8):
    dg = np.diag(bench8.occupation_energies)
    assert np.max(np.abs(dg[:, 0])) == 0.0


def test_h0_hermitian_and_bounded_by_potential_floor(bench8):
    assert bench8.h0.hermitian is True
    ev0 = np.linalg.eigvalsh(bench8.h0.mat)[0]
    assert abs(ev0 - H0_MIN_EIG_L8) < 1e-9
    assert ev0 >= np.min(bench8.spec.w) - 1e-12


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
        vs.append(model.modes.project(f / np.sqrt(2.0))[0])
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
    mat = creation_family(model, 2.0).mat
    v = form_factor(model, 2.0)
    for xi in range(model.grid.size):
        blk = model.block(xi)
        assert np.array_equal(mat[blk, blk], annihilate(model.basis, v[xi]).mat.conj().T)


# ---------------------------------------------------------------------------
# cutoff Hamiltonian and vacuum energy


def test_cutoff_hamiltonian_lowers_ground_state(bench8):
    h2 = assemble_cutoff_hamiltonian(bench8, 2.0)
    assert h2.hermitian is True
    gs = np.linalg.eigvalsh(h2.mat)[0]
    assert abs(gs - GS_H2_L8) < 1e-9
    assert gs < np.linalg.eigvalsh(bench8.h0.mat)[0]


@pytest.mark.parametrize("name", ["bench8", "bench8_n3"])
@pytest.mark.parametrize("lam", [1.0, 2.0, 4.0])
def test_cutoff_hamiltonian_matches_field_oracle(request, name, lam):
    # dense oracle: H0 plus the field Phi(sqrt2 v_{lam,X}) on each diagonal X block
    model = request.getfixturevalue(name)
    want = model.h0.mat.astype(complex)
    v = form_factor(model, lam)
    for xi in range(model.grid.size):
        blk = model.block(xi)
        want[blk, blk] += field(model.basis, np.sqrt(2.0) * v[xi]).mat
    got = assemble_cutoff_hamiltonian(model, lam).mat
    assert np.max(np.abs(got - want)) <= 1e-15


def test_vacuum_energy_matches_frozen_values(bench8):
    for lam, want in E_BENCH_L8.items():
        got = vacuum_energy(bench8, lam)[0]
        assert abs(got - want) < 1e-9
    vals = [E_BENCH_L8[lam] for lam in (1.0, 2.0, 4.0)]
    assert vals[0] < vals[1] < vals[2]


def test_vacuum_energy_agrees_with_perturbation_sum(bench8):
    for lam in (1.0, 2.0, 4.0):
        diff = np.abs(vacuum_energy(bench8, lam) - perturbation_energy_sum(bench8, lam))
        assert np.max(diff) < 1e-12


def test_vacuum_energy_zero_coupling(bench8):
    spec = sinusoidal_spec(8, coupling=0.0)
    model = assemble_free(spec)
    assert np.all(vacuum_energy(model, 2.0) == 0.0)


def test_vacuum_energy_positive_across_points(bench8):
    assert np.min(vacuum_energy(bench8, 2.0)) > 0.0


def test_quadrature_log_divergence_d3():
    lams = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    vals = np.array([vacuum_energy_quadrature(l, 3) for l in lams])
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
    for lam in (2.0, 4.0, 8.0):
        e_mat = vacuum_energy(model, lam)[0]
        e_quad = vacuum_energy_quadrature(lam, 1)
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
    diag = vacuum_energy_operator(bench8, 2.0)
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


def test_transformed_check_requires_full_modes():
    model = assemble_free(sinusoidal_spec(8, n_modes=4))
    with pytest.raises(ModelSpecError):
        transformed_hamiltonian_check(model, 2.0)


def test_size_guard_reports_dimensions(bench32):
    with pytest.raises(SizeError, match="17952"):
        bench32.h0
    with pytest.raises(SizeError, match="561"):
        assemble_cutoff_hamiltonian(bench32, 2.0)
    with pytest.raises(SizeError, match="17952"):
        creation_family(bench32, 2.0)
    with pytest.raises(SizeError, match="17952"):
        relative_bound_report(bench32, 2.0)


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
        h = assemble_cutoff_hamiltonian(bench8, lam).mat
        sub = h + np.diag(vacuum_energy_operator(bench8, lam))
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


def test_relative_bound_on_random_states(bench8):
    report = relative_bound_report(bench8, 2.0)
    assert report["worst_ratio"] < 1.0
    assert abs(report["worst_ratio"] - 0.0511) < 1e-3


def test_form_factor_lam_zero_limit(bench8):
    # at lam -> 0 only the zero mode couples, so the form factor collapses
    # toward the projection of omega^{-1/2} applied to a constant
    v = form_factor(bench8, 0.05)[0]
    rho = form_factor_rho(bench8, 0.05)[0]
    const = np.full(8, np.mean(rho))
    want = bench8.project(bench8.omega_power(-0.5) @ const / np.sqrt(2.0))
    assert np.max(np.abs(v - want)) < 1e-12
