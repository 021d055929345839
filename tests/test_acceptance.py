"""Headline guarantees of the library at desk scale, one test per claim.

Every tolerance here is pinned: a change in any of these numbers changes
what the package promises.  Each test stands alone and reads top to
bottom as the statement it checks.
"""

import numpy as np
import pytest

from nelsonlab import fock, ibc, inequalities, nelson, psido
from nelsonlab.cli import main as cli_main
from nelsonlab.grid import Grid
from nelsonlab.operators import opnorm

import dense_oracle


@pytest.fixture(scope="module")
def bench():
    # 8-point lattice, full mode set, two-boson truncation: dense everything
    return nelson.assemble_free(nelson.sinusoidal_spec(8))


def rand_vec(rng, n, scale=1.0):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def test_ibc_keystone_identity(bench):
    # H_lam equals (1-G)* (H0+s) (1-G) + T - s on safe sectors, to relative 1e-10
    safe = bench.basis.tensor_rows(bench.grid.size, 0, bench.basis.n_max - 1)
    sub = np.ix_(safe, safe)
    for lam in (1.0, 2.0, 4.0):
        ops = ibc.build_ibc(bench, lam)
        assert ibc.factorization_identity_check(bench, ops) <= 1e-10
        # the defect H_ibc - (H_lam + E_lam), laid out on the tensor space
        h_lam = dense_oracle.cutoff_hamiltonian(bench, lam)
        defect = dense_oracle.scatter(bench, ops.defect)
        assert opnorm(defect[sub]) / opnorm(h_lam[sub]) <= 1e-10


def test_ibc_spectral_equivalence(bench):
    # spectrum of the IBC assembly matches H_lam + E_lam(X) to 1e-9
    for lam in (1.0, 2.0, 4.0):
        ops = ibc.build_ibc(bench, lam)
        reference = (
            dense_oracle.cutoff_hamiltonian(bench, lam)
            + np.diag(dense_oracle.vacuum_energy_diagonal(bench, lam))
        )
        h_ibc = reference + dense_oracle.scatter(bench, ops.defect)
        gap = np.max(np.abs(np.linalg.eigvalsh(h_ibc) - np.linalg.eigvalsh(reference)))
        assert gap <= 1e-9


def test_fock_commutation_relations():
    # canonical commutators to 1e-12 on safe sectors, 20 random draws
    rng = np.random.default_rng(101)
    b = fock.fock_basis(3, 4)
    p = dense_oracle.sector_projector(b, b.n_max - 2)
    eye = np.eye(b.dim)

    def comm(x, y):
        return x @ y - y @ x

    def create(f):
        return fock.annihilate(b, f).conj().T

    for _ in range(20):
        f = rand_vec(rng, 3)
        g = rand_vec(rng, 3)
        h = rand_vec(rng, 9).reshape(3, 3)
        h = h + h.conj().T
        fg = np.vdot(f, g)
        residuals = (
            comm(fock.annihilate(b, f), create(g)) - fg * eye,
            comm(fock.second_quantize(b, h), create(f)) - create(h @ f),
            comm(fock.second_quantize(b, h), fock.annihilate(b, f)) + fock.annihilate(b, h @ f),
            comm(dense_oracle.field(b, f), dense_oracle.field(b, g)) - 1j * fg.imag * eye,
            comm(dense_oracle.momentum(b, f), dense_oracle.momentum(b, g)) - 1j * fg.imag * eye,
            comm(dense_oracle.field(b, f), dense_oracle.momentum(b, g)) - 1j * fg.real * eye,
        )
        for c in residuals:
            assert np.linalg.norm(p @ c @ p, 2) <= 1e-12


def test_weyl_conjugation_and_static_dressing():
    # conjugation shifts and the dressing identity: residual <= 1e-7 at every
    # truncation, non-increasing in the truncation up to the roundoff floor
    coupling = 0.3
    f = coupling * np.array([1.0 + 0.5j])
    g = coupling * np.array([0.6 - 0.8j])
    h = np.array([[1.4]])
    rho = coupling * np.array([0.8 + 0.3j])
    cap = 5
    series = {"field": [], "dgamma": [], "static": []}
    for n_max in (10, 20, 40):
        b = fock.fock_basis(1, n_max)
        p = dense_oracle.sector_projector(b, cap)
        v = dense_oracle.weyl(b, g)
        shift = complex(np.vdot(f, g).real)
        eye = np.eye(b.dim)
        series["field"].append(
            opnorm(p @ (v @ dense_oracle.field(b, f) @ v.conj().T - (dense_oracle.field(b, f) + shift * eye)) @ p)
        )
        target = fock.second_quantize(b, h) + dense_oracle.field(b, h @ g) + 0.5 * np.vdot(h @ g, g).real * eye
        series["dgamma"].append(opnorm(p @ (v @ fock.second_quantize(b, h) @ v.conj().T - target) @ p))
        series["static"].append(dense_oracle.gross_check_static(b, h, rho, sector_cap=cap))
    for name, resids in series.items():
        assert max(resids) <= 1e-7, name
        assert resids[1] <= resids[0] + 1e-12, name
        assert resids[2] <= resids[1] + 1e-12, name


def test_symbol_calculus_identities():
    # quantization round trip, composition, adjoint, reordering: 1e-10 over
    # 20 random band-limited symbols
    grid = Grid(1, 32, 2.0 * np.pi)
    rng = np.random.default_rng(7)
    symbols = [psido.random_band_limited(grid, rng) for _ in range(20)]
    for i, a in enumerate(symbols):
        b = symbols[(i + 1) % len(symbols)]
        qa = psido.quantize(a, 1.0)
        qb = psido.quantize(b, 1.0)
        assert np.max(np.abs(psido.dequantize(grid, qa, 1.0).values - a.values)) <= 1e-10
        assert np.linalg.norm(psido.quantize(psido.moyal(a, b, 1.0), 1.0) - qa @ qb, 2) <= 1e-10
        assert np.linalg.norm(psido.quantize(psido.adjoint_symbol(a, 1.0), 1.0) - qa.conj().T, 2) <= 1e-10
        assert (
            np.linalg.norm(psido.quantize(psido.change_quantization(a, 1.0, 0.5), 0.5) - qa, 2)
            <= 1e-10
        )


def test_parametrix_residual_gain():
    # three Neumann iterations cut the inversion residual at least 10x for an
    # elliptic bracket-order symbol at 64 points
    grid = Grid(1, 64, 2.0 * np.pi)
    k = grid.momentum_mesh()[:, 0]
    fiber = 1.0 + k**2
    flat = psido.Symbol(grid, np.outer(np.ones(grid.npts), fiber))
    _, exact = psido.parametrix(flat, 2.0, 1.0, iterations=3)
    # a coefficient independent of position inverts exactly at iteration zero,
    # so the gain is only visible once the symbol varies in x
    assert exact[0] <= 1e-12
    x = grid.position_mesh()[:, 0]
    modulated = psido.Symbol(grid, np.outer(1.0 + 0.25 * np.sin(x), fiber))
    _, resid = psido.parametrix(modulated, 2.0, 1.0, iterations=3)
    assert resid[3] * 10.0 <= resid[0]


def test_renormalization_resolvent_trend(bench):
    # with the vacuum-energy counterterm the resolvent sweep is Cauchy-like:
    # consecutive distances drop, and each sits below its unsubtracted twin
    report = nelson.renorm_convergence_experiment(bench, (1.0, 2.0, 4.0))
    pairs = report["pairs"]
    assert pairs[1]["d_subtracted"] < pairs[0]["d_subtracted"]
    for pair in pairs:
        assert pair["d_subtracted"] < pair["d_unsubtracted"]


def test_vacuum_energy_log_divergence():
    # the quadrature evaluator grows like ln(lam): linear fit with R^2 >= 0.99;
    # the subtracted diagonal integrand stays flat to 10% over the same sweep
    lams = (4.0, 8.0, 16.0, 32.0, 64.0)
    values = inequalities.vacuum_energy_quadrature(lams, 3)
    design = np.vstack([np.log(lams), np.ones(len(lams))]).T
    coef, residual, *_ = np.linalg.lstsq(design, values, rcond=None)
    r_squared = 1.0 - float(residual[0]) / float(np.sum((values - values.mean()) ** 2))
    assert coef[0] > 0.0
    assert r_squared >= 0.99
    demo = inequalities.diagonal_divergence_demo(lams, g_const=4.0)
    assert demo["log_r_squared"] >= 0.99
    assert demo["variation"] < 0.10


def test_domain_regularity_growth_separation():
    # the weighted norm ||H0^p G|| should grow visibly faster at the critical
    # power than at a subcritical one under combined grid and cutoff
    # refinement; the excess over a flat factor of 1 is the separation measure
    # (factors of a slowly divergent quantity cluster near 1).  One-boson
    # sector: ||H0^p G_lam||^2 ~ int^lam k^{-1} k^{4p-4} k^{d-1} dk, finite iff
    # p < (5-d)/4, so the tensor model (d = 1) is critical at p = 1, not 1/2.
    # A pair just below p = 1, e.g. (0.9, 1.0), separates only asymptotically
    # (~ lam^0.4 / log lam), so the reference stays at p = 0.4.
    models = [nelson.assemble_free(nelson.sinusoidal_spec(npts)) for npts in (8, 16, 32)]
    report = ibc.domain_regularity_experiment(models, (2.0, 4.0, 8.0), (0.4, 1.0))
    excess = {p: report["growth"][p]["factors"][-1] - 1.0 for p in (0.4, 1.0)}
    literal = report["growth"][1.0]["total"] / report["growth"][0.4]["total"]
    separation = excess[1.0] / excess[0.4]
    assert separation >= 2.0, (
        f"excess-growth separation {separation:.4f} below 2.0 "
        f"(growth-factor ratio {literal:.4f})"
    )


def test_rearrangement_and_weight_inequalities():
    grid = Grid(1, 128, 32.0)
    rng = np.random.default_rng(23)
    violations = 0
    for _ in range(1000):
        f = rng.random(grid.size)
        g = rng.random(grid.size)
        lhs, rhs = inequalities.hardy_littlewood_check(grid, f, g)
        violations += lhs > rhs + 1e-12
    assert violations == 0

    samples = rng.normal(scale=4.0, size=(100000, 2, 3))
    assert inequalities.peetre_check((-4.0, -1.5, 0.5, 4.0), samples) == [0, 0, 0, 0]

    # rearranged lattice power cutoff vs (|x| + lam)^{-p}, within twice the
    # local variation of the closed form per grid step
    half = 0.5 * grid.box
    signed = np.mod(grid.axis_positions() + half, grid.box) - half
    absx = np.abs(signed)
    f_cut = np.where(absx > 1.0, np.maximum(absx, 1.0) ** -1.5, 0.0)
    prof = inequalities.rearrange(inequalities.lattice_profile(grid, f_cut))
    radii = np.sort(absx, kind="stable")
    closed = (radii + 1.0) ** -1.5
    h = grid.spacing
    local = np.maximum(
        np.abs((radii + h + 1.0) ** -1.5 - closed),
        np.abs((np.maximum(radii - h, 0.0) + 1.0) ** -1.5 - closed),
    )
    mask = radii + 1.0 <= half - h
    assert np.all(np.abs(prof.values - closed)[mask] <= 2.0 * local[mask] + 1e-12)

    # mass-parameter scaling of the singular integral within 15% of predicted
    eps = 0.05
    vals = {}
    for om in (1.0, 2.0, 4.0, 8.0):
        value, bound = inequalities.integral_estimate_check(0, 0, 4, 1, 0.0, om, 1.0, eps)
        assert value <= bound + 1e-12
        vals[om] = value
    predicted = 2.0 ** (-4.0 + 3.0 + eps)
    for om in (1.0, 2.0, 4.0):
        assert abs(vals[2.0 * om] / vals[om] / predicted - 1.0) <= 0.15


def test_cli_reruns_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["--experiment", "weyl-identities", "--seed", "5", "--out", str(out_a)]) == 0
    assert cli_main(["--experiment", "weyl-identities", "--seed", "5", "--out", str(out_b)]) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
