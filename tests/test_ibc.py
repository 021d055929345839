import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nelsonlab import fock, ibc, nelson
from nelsonlab.ibc import (
    IbcOperators,
    build_ibc,
    defect_norm,
    domain_regularity_experiment,
    domain_regularity_norms,
    factorization_identity_check,
    ibc_peak_bytes,
    invert_one_minus_G,
    neumann_residual,
    regularity_peak_bytes,
)
from nelsonlab.nelson import (
    assemble_free,
    creation_blocks,
    form_factor,
    form_factor_rho,
    free_shift,
    sinusoidal_spec,
)
from nelsonlab.operators import HERMITIAN_TOL, SizeError

from dense_oracle import (
    creation_family,
    cutoff_hamiltonian,
    free_hamiltonian,
    ibc_route,
    scatter,
    split_blocks,
    vacuum_energy_diagonal,
)

# Frozen references for the bench model at L = 8, M = 8 (independent dense
# oracle; see test_nelson.py for the model constants).
SHIFT_L8 = 0.520107
SECTOR_NORMS_N3 = [0.21719684, 0.18441078, 0.16201206]
SECTOR_EXPONENT_N3 = 0.2635
G_TREND = {"d12": 0.047715, "d24": 0.030991}
G_POWERS_N2 = [0.2171968, 0.0394960, 0.0]
DOMREG_L8 = {0.0: 0.217197, 0.2: 0.227904, 0.4: 0.267159, 0.5: 0.296417}
DOMREG_L16 = {0.0: 0.224945, 0.2: 0.239879, 0.4: 0.288285, 0.5: 0.324917}


@pytest.fixture(scope="module")
def bench8():
    return assemble_free(sinusoidal_spec(8))


@pytest.fixture(scope="module")
def bench8_n3():
    return assemble_free(sinusoidal_spec(8, n_max=3))


@pytest.fixture(scope="module")
def free8():
    return assemble_free(sinusoidal_spec(8, coupling=0.0))


@pytest.fixture(scope="module")
def ops2(bench8):
    return build_ibc(bench8, 2.0)


@pytest.fixture(scope="module")
def ops2_n3(bench8_n3):
    return build_ibc(bench8_n3, 2.0)


def opnorm(mat):
    return float(np.linalg.norm(mat, 2))


def test_free_shift_value(bench8):
    assert abs(free_shift(bench8) - SHIFT_L8) < 1e-6


def test_zero_coupling_gives_zero_G():
    model = assemble_free(sinusoidal_spec(8, coupling=0.0))
    ops = build_ibc(model, 2.0)
    assert ops.g == {}
    series, meta = invert_one_minus_G(model, ops.g)
    assert series == {} and ops.series == {}  # the inverse is 1 exactly
    assert meta["terms"] == 1 and meta["tail_bound"] == 0.0
    assert ops.neumann_terms == 1 and ops.neumann_tail == 0.0
    assert neumann_residual(model, ops) == 0.0


@pytest.mark.parametrize("lam", [1.0, 4.0])
@pytest.mark.parametrize("model_name", ["bench8", "bench8_n3", "free8"])
def test_sector_blocks_match_dense_route(model_name, lam, request):
    # dense oracle: one solve against H0 + s, dense products, a dense inverse
    model = request.getfixturevalue(model_name)
    ops = build_ibc(model, lam)
    eye = np.eye(model.dim)
    g, h_ibc = ibc_route(model, lam)
    h_lam = cutoff_hamiltonian(model, lam)
    subtracted = h_lam + np.diag(vacuum_energy_diagonal(model, lam))
    defect = h_ibc - subtracted

    # both ibc-identity rows, against the same rows of the dense route
    idx = model.basis.tensor_rows(model.grid.size, 0, model.basis.n_max - 1)
    sub = np.ix_(idx, idx)
    keystone, mismatch = factorization_identity_check(model, ops), defect_norm(ops)
    assert abs(keystone - opnorm(defect[sub]) / opnorm(h_lam[sub])) <= 1e-12
    assert abs(mismatch - np.linalg.norm(defect)) <= 1e-12
    if model.spec.coupling == 0.0:
        # G and the defect are empty, and both rows read exactly 0
        assert ops.g == {} and ops.defect == {}
        assert keystone == 0.0 and mismatch == 0.0
        return

    def rel(value, reference):
        return np.max(np.abs(value - reference)) / np.max(np.abs(reference))

    g_mat, inverse = scatter(model, ops.g), eye + scatter(model, ops.series)
    assert rel(g_mat, g) < 1e-13
    assert rel(subtracted + scatter(model, ops.defect), h_ibc) < 1e-13
    scale = opnorm(h_lam)
    for key, block in split_blocks(model, defect).items():
        assert np.max(np.abs(ops.defect.get(key, 0.0) - block)) <= 1e-13 * scale, key
    assert rel(inverse, np.linalg.inv(eye - g)) < 1e-13
    dense_residual = opnorm((eye - g_mat) @ inverse - eye)
    assert abs(neumann_residual(model, ops) - dense_residual) < 1e-15

    # the defect applies H0 + s to G: off the exact G it follows the dense
    # H_ibc(G) - (H_lam + E) = (1-G)*(H0+s)(1-G) + A*G - (H0+s) - A - A*
    off = {key: 1.01 * block for key, block in ops.g.items()}
    g_off, a = scatter(model, off), scatter(model, ops.a)
    h0s = free_hamiltonian(model) + ops.shift * eye
    want = (eye - g_off).T @ h0s @ (eye - g_off) + a.T @ g_off - h0s - a - a.T
    got = scatter(model, ibc._defect(model, ops.shift, ops.a, off))
    assert np.max(np.abs(got - want)) <= 1e-13 * scale
    assert np.max(np.abs(got)) > 1e-6 * scale


def test_neumann_series_stops_at_the_boson_cap(bench8):
    # a G that is not nilpotent: the series stops after n_max + 1 products
    # and reports the norm of the first discarded power
    rng = np.random.default_rng(5)
    shape = (bench8.dim, bench8.dim)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    g *= 0.5 / opnorm(g)
    n_max = bench8.basis.n_max
    blocks = split_blocks(bench8, g)
    assert np.array_equal(scatter(bench8, blocks), g)
    series, meta = invert_one_minus_G(bench8, blocks)
    assert meta["terms"] == n_max + 1
    assert meta["tail_bound"] > 0.0
    tail = opnorm(np.linalg.matrix_power(g, n_max + 1))
    assert meta["tail_bound"] == pytest.approx(tail, rel=1e-12)
    partial = sum(np.linalg.matrix_power(g, k) for k in range(n_max + 1))
    assert np.max(np.abs(np.eye(bench8.dim) + scatter(bench8, series) - partial)) < 1e-14


def test_G_shifts_sectors_up_by_one(bench8):
    g = scatter(bench8, build_ibc(bench8, 2.0).g)
    basis = bench8.basis
    fdim = basis.dim
    totals = basis.sector_totals()
    size = bench8.grid.size
    for m in range(basis.n_max + 1):
        rows = np.concatenate(
            [xi * fdim + np.where(totals == m)[0] for xi in range(size)]
        )
        for n in range(basis.n_max + 1):
            if m == n + 1:
                continue
            cols = np.concatenate(
                [xi * fdim + np.where(totals == n)[0] for xi in range(size)]
            )
            assert np.max(np.abs(g[np.ix_(rows, cols)])) < 1e-15
    # the top sector's would-be image is outside the truncation
    top = np.concatenate(
        [xi * fdim + np.where(totals == basis.n_max)[0] for xi in range(size)]
    )
    assert np.max(np.abs(g[:, top])) < 1e-15


def test_sector_norms_decay_with_fitted_exponent(bench8_n3):
    # at p = 0 the Gram kernel's step norms are ||G||_{n-1 -> n}
    norms = domain_regularity_norms(bench8_n3, 2.0, [0.0])["steps"][0.0]
    assert np.max(np.abs(norms - np.array(SECTOR_NORMS_N3))) < 1e-7
    assert norms[0] > norms[1] > norms[2]
    # exponent p of the fit ||G||_{n-1 -> n} ~ C n^{-p}
    p = -np.polyfit(np.log([1.0, 2.0, 3.0]), np.log(norms), 1)[0]
    assert abs(p - SECTOR_EXPONENT_N3) < 1e-3
    assert p >= 0.15


def test_G_power_norms_decay_superlinearly(bench8_n3, ops2_n3):
    g = scatter(bench8_n3, ops2_n3.g)
    powers = [opnorm(np.linalg.matrix_power(g, k)) for k in (1, 2, 3)]
    incs = np.diff(np.log(powers))
    assert incs[1] < incs[0] < 0.0
    assert opnorm(np.linalg.matrix_power(g, 4)) == 0.0


def test_G_lam_trend_decreases(bench8):
    gs = {lam: scatter(bench8, build_ibc(bench8, lam).g) for lam in (1.0, 2.0, 4.0)}
    d12 = opnorm(gs[2.0] - gs[1.0])
    d24 = opnorm(gs[4.0] - gs[2.0])
    assert abs(d12 - G_TREND["d12"]) < 1e-6
    assert abs(d24 - G_TREND["d24"]) < 1e-6
    assert d24 < d12


def test_neumann_inverse_exact(bench8, ops2):
    assert ops2.neumann_terms <= bench8.basis.n_max + 1
    assert ops2.neumann_tail == 0.0
    g, inverse = scatter(bench8, ops2.g), np.eye(bench8.dim) + scatter(bench8, ops2.series)
    residual = opnorm((np.eye(bench8.dim) - g) @ inverse - np.eye(bench8.dim))
    assert residual < 1e-12
    dense = np.linalg.inv(np.eye(bench8.dim) - g)
    assert opnorm(inverse - dense) < 1e-12
    powers = [opnorm(np.linalg.matrix_power(g, k)) for k in (1, 2, 3)]
    assert abs(powers[0] - G_POWERS_N2[0]) < 1e-6
    assert abs(powers[1] - G_POWERS_N2[1]) < 1e-6
    assert powers[2] == 0.0


def keystone(model, lam):
    return factorization_identity_check(model, build_ibc(model, lam))


def test_keystone_identity(bench8):
    residuals = [keystone(bench8, lam) for lam in (1.0, 2.0, 4.0)]
    for res in residuals:
        assert res <= 1e-12
    # the identity is algebra: no lam dependence beyond round-off
    assert max(residuals) - min(residuals) < 1e-12


def test_keystone_zero_coupling():
    model = assemble_free(sinusoidal_spec(8, coupling=0.0))
    assert keystone(model, 2.0) < 1e-14


def test_build_ibc_reads_neither_dense_H0_nor_A():
    # the library has no dense H0 or A: A comes from the ladder, H0 + s from the spectrum
    model = assemble_free(sinusoidal_spec(8, n_max=3))
    ops = build_ibc(model, 2.0)
    assert neumann_residual(model, ops) < 1e-12
    assert factorization_identity_check(model, ops) < 1e-12
    assert sorted(ops.g) == [(1, 0), (2, 1), (3, 2)]


def test_build_ibc_guard_refuses_before_the_ladder(monkeypatch):
    # the top creation block alone, 64 x 2080 by 64 x 64 float64, is 4.1 GiB;
    # the model itself is cheap
    model = assemble_free(sinusoidal_spec(64))

    def forbidden(*args):
        raise AssertionError("read the ladder or the coupling past the guard")

    monkeypatch.setattr(fock.FockBasis, "ladder", property(forbidden))
    monkeypatch.setattr(ibc, "form_factor", forbidden)
    with pytest.raises(SizeError, match="build_ibc would hold 26455572480 bytes"):
        build_ibc(model, 2.0)


def test_ibc_matches_subtracted_hamiltonian(bench8, ops2):
    # H_ibc as the library holds it: H_lam + E_lam(X) plus the defect R
    reference = (
        cutoff_hamiltonian(bench8, 2.0)
        + np.diag(vacuum_energy_diagonal(bench8, 2.0))
    )
    h_ibc = reference + scatter(bench8, ops2.defect)
    assert np.max(np.abs(h_ibc - h_ibc.conj().T)) <= HERMITIAN_TOL
    e_ibc = np.linalg.eigvalsh(h_ibc)
    e_ref = np.linalg.eigvalsh(reference)
    assert np.max(np.abs(e_ibc - e_ref)) < 1e-9
    assert e_ibc[0] > -1.0


def test_ibc_resolvent_distances_decrease(bench8):
    hams = {lam: ibc_route(bench8, lam)[1] for lam in (1.0, 2.0, 4.0)}
    eye = np.eye(bench8.dim)

    def resolvent(mat):
        return np.linalg.inv(mat + 1j * eye)

    d12 = opnorm(resolvent(hams[1.0]) - resolvent(hams[2.0]))
    d24 = opnorm(resolvent(hams[2.0]) - resolvent(hams[4.0]))
    assert d24 < d12
    assert abs(d12 - 0.04778738) < 1e-6
    assert abs(d24 - 0.02269296) < 1e-6


def test_zero_coupling_ibc_reduces_to_free():
    model = assemble_free(sinusoidal_spec(8, coupling=0.0))
    assert build_ibc(model, 2.0).defect == {}
    assert np.max(np.abs(ibc_route(model, 2.0)[1] - free_hamiltonian(model))) < 1e-12


def dense_domain_norms(model, g, ps):
    """Dense oracle ||H0^p G|| = opnorm(hermitian_func(H0, clip(w, 0)**p) @ G).

    One eigh of the dense H0 serves every p.  The clip only touches the
    zero-boson sector, where H0 = K may dip below zero (to -0.020 on the
    bench model) and which G never reaches; each boson adds at least the
    mass 1 > |w_amplitude|.  Only the columns of the sectors below the cap
    enter: G maps the top sector out of the truncation, so they are zero.
    """
    w, v = np.linalg.eigh(free_hamiltonian(model))
    cols = model.basis.tensor_rows(model.grid.size, 0, model.basis.n_max - 1)
    vg = v.conj().T @ g[:, cols]
    return {p: opnorm(v @ (np.clip(w, 0.0, None)[:, None] ** p * vg)) for p in ps}


def test_domain_regularity_structured_matches_dense(bench8, ops2, bench8_n3, ops2_n3):
    ps = [0.0, 0.2, 0.5, 1.0]
    for model, ops in ((bench8, ops2), (bench8_n3, ops2_n3)):
        result = domain_regularity_norms(model, 2.0, ps)
        dense = dense_domain_norms(model, scatter(model, ops.g), ps)
        for p in ps:
            assert abs(result["norms"][p] - dense[p]) < 1e-10
        assert abs(result["shift"] - SHIFT_L8) < 1e-6


@pytest.mark.parametrize("npts", [4, 8])
@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_step_operator_applies_the_step_gram(npts, n_max):
    # M*M x = C (w * C^T x) through two ladder scatters and two rotations, as
    # domain_regularity_norms applies it, against the Gram of the same step
    # that the top-sector split subtracts
    model = assemble_free(sinusoidal_spec(npts, n_max=n_max))
    coeffs, q = form_factor(model, 2.0), model.k_evecs
    dims = np.diff(model.basis.sector_bounds)
    s = free_shift(model)
    rng = np.random.default_rng(10 * npts + n_max)
    for n, lad in enumerate(model.basis.ladder, start=1):
        side = npts * dims[n - 1]
        step = nelson.SectorStep.of(lad, coeffs, q)
        assert step.side == side
        base = model.k_evals[:, None] + model.occupation_energies[model.basis.sector_slice(n)] + s
        for p in (0.0, 0.5, 1.0):
            weight = ((base - s) ** p / base) ** 2
            gram = np.zeros((side, side))
            step.subtract_gram(gram, weight)
            gram = -gram
            for _ in range(3):
                x = rng.standard_normal(side)
                want = gram @ x
                assert np.abs(step.couple(weight * step.couple_adjoint(x)) - want).max() <= 1e-13 * np.abs(want).max()
        # couple is the adjoint of couple_adjoint on the complex vectors of the resolvent distance:
        # <C u, v> = <u, C^T v>, C real
        u = rng.standard_normal((npts, dims[n])) + 1j * rng.standard_normal((npts, dims[n]))
        v = rng.standard_normal(side) + 1j * rng.standard_normal(side)
        cu, ctv = step.couple(u), step.couple_adjoint(v)
        assert cu.shape == (side,) and ctv.shape == u.shape
        lhs, rhs = np.vdot(cu, v), np.vdot(u, ctv)
        assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(cu) * np.linalg.norm(v)


def _traced_regularity_peak(model, lam, ps):
    for lad in model.basis.ladder:
        lad.target_runs, lad.by_source  # cached on the basis, not kernel memory
    np.random.default_rng()  # numpy.random is imported on first use, not kernel memory
    tracemalloc.start()
    try:
        result = domain_regularity_norms(model, lam, ps)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_domain_regularity_peak_is_its_lanczos_basis_and_apply():
    result, peak = _traced_regularity_peak(assemble_free(sinusoidal_spec(32, n_max=2)), 8.0, [0.0, 0.5])
    plan = result["plans"][-1]
    # the widest step holds its Lanczos basis and the apply's workspace, a
    # quarter of one matrix of its side at most, and no Gram
    assert peak <= 0.25 * plan["side"] ** 2 * 8
    assert abs(peak - plan["peak_bytes"]) <= 0.25 * plan["peak_bytes"]


def test_domain_regularity_peak_is_within_its_stated_bytes():
    # the widest model of the regularity workload; the stated peak allows a
    # full basis of _BASIS vectors, where this one takes 32 steps at most
    peak = _traced_regularity_peak(assemble_free(sinusoidal_spec(32, n_max=2)), 8.0, [0.0, 0.2, 0.4, 0.5])[1]
    assert peak <= regularity_peak_bytes(32, 2) <= 4 * peak


def test_domain_regularity_peak_at_npts_64_is_within_its_stated_bytes():
    # the widest model of configs/regularity-64.cfg, whose p = 1 run takes 95 steps
    peak = _traced_regularity_peak(assemble_free(sinusoidal_spec(64, n_max=2)), 16.0, [0.0, 0.2, 0.4, 1.0])[1]
    assert peak <= regularity_peak_bytes(64, 2) <= 4 * peak


def test_build_ibc_peak_is_within_its_stated_bytes(bench8_n3):
    # n_max 3 of the dense-tensor workload, with the three identity checks of a run
    bench8_n3.basis.ladder  # cached on the basis, not kernel memory

    def run():
        ops = build_ibc(bench8_n3, 4.0)
        factorization_identity_check(bench8_n3, ops)
        neumann_residual(bench8_n3, ops)
        defect_norm(ops)

    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ibc_peak_bytes(8, 3) <= 4 * peak


def test_domain_regularity_takes_no_dense_eigensolver_on_a_gram(bench8_n3, monkeypatch):
    # the widest Gram, of the step 2 -> 3: side 8 x dim(sector 2) = 288;
    # Lanczos converges there in far fewer steps, so no tridiagonal reaches it
    bounds = bench8_n3.basis.sector_bounds
    side = bench8_n3.grid.size * (bounds[3] - bounds[2])

    def guarded(name, fn):
        def call(mat, *args, **kwargs):
            if side in np.shape(mat):
                raise AssertionError(f"{name} on a matrix of the Gram side {side}")
            return fn(mat, *args, **kwargs)

        return call

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, guarded(name, getattr(np.linalg, name)))
    result = domain_regularity_norms(bench8_n3, 2.0, [0.0, 0.5])
    assert result["plans"][-1]["side"] == side == 288
    assert np.max(np.abs(result["steps"][0.0] - np.array(SECTOR_NORMS_N3))) < 1e-7


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    coupling=st.one_of(st.just(0.0), st.floats(1e-3, 2.0), st.floats(-2.0, -1e-3)),
    g_modulation=st.floats(-0.95, 0.95),
    w_amplitude=st.floats(-0.95, 0.95),
    n_max=st.sampled_from([1, 2, 3]),
)
@example(coupling=0.0, g_modulation=0.3, w_amplitude=0.2, n_max=2)
@example(coupling=-1.5, g_modulation=-0.9, w_amplitude=0.9, n_max=2)
# unscaled, the squared coefficients in the Gram underflow at these couplings
@example(coupling=1e-160, g_modulation=0.3, w_amplitude=0.2, n_max=2)
@example(coupling=1e-200, g_modulation=0.3, w_amplitude=0.2, n_max=2)
def test_domain_regularity_matches_dense_on_random_models(
    coupling, g_modulation, w_amplitude, n_max
):
    spec = sinusoidal_spec(
        8,
        coupling=coupling,
        g_modulation=g_modulation,
        w_amplitude=w_amplitude,
        n_max=n_max,
    )
    model = assemble_free(spec)
    ps = [0.0, 0.2, 0.5, 1.0]
    fast = domain_regularity_norms(model, 2.0, ps)["norms"]
    # G alone; build_ibc would also form the defect and the Neumann inverse
    g = -np.linalg.solve(
        free_hamiltonian(model) + free_shift(model) * np.eye(model.dim),
        creation_family(model, 2.0),
    )
    dense = dense_domain_norms(model, g, ps)
    for p in ps:
        assert abs(fast[p] - dense[p]) <= 1e-10 * dense[p]


def test_domain_regularity_gram_guard_refuses_before_allocating(monkeypatch):
    # the step 6 -> 7 has side 16 x C(21, 6) = 868224: a full Lanczos basis of 256
    # such vectors, with the half it doubled from, is 2.5 GiB and the apply's
    # ladder workspace 0.4 GiB more; the model itself is cheap (Fock dim 245157)
    model = assemble_free(sinusoidal_spec(16, n_max=7))

    def forbidden(*args):
        raise AssertionError("built a ladder or coefficient table past the guard")

    monkeypatch.setattr(fock.FockBasis, "ladder", property(forbidden))
    monkeypatch.setattr(ibc, "form_factor", forbidden)
    with pytest.raises(SizeError, match="domain_regularity_norms would hold 3088951296 bytes"):
        domain_regularity_norms(model, 2.0, [0.5])


def test_domain_regularity_zero_coupling():
    model = assemble_free(sinusoidal_spec(8, coupling=0.0))
    result = domain_regularity_norms(model, 2.0, [0.0, 0.5])
    assert result["norms"][0.0] == 0.0
    assert result["norms"][0.5] == 0.0


def test_domain_regularity_table_and_growth():
    models = [assemble_free(sinusoidal_spec(npts)) for npts in (8, 16)]
    table = domain_regularity_experiment(models, [2.0, 4.0], [0.0, 0.2, 0.4, 0.5])
    by_point = {(row["npts"], row["p"]): row["norm"] for row in table["rows"]}
    for p, want in DOMREG_L8.items():
        assert abs(by_point[(8, p)] - want) < 1e-5
    for p, want in DOMREG_L16.items():
        assert abs(by_point[(16, p)] - want) < 1e-5
    # monotone in p at fixed grid
    for npts in (8, 16):
        row_vals = [by_point[(npts, p)] for p in (0.0, 0.2, 0.4, 0.5)]
        assert row_vals == sorted(row_vals)
    # steeper growth at higher p, step 8 -> 16
    factors = {p: table["growth"][p]["factors"][0] for p in (0.0, 0.2, 0.4, 0.5)}
    assert factors[0.5] > factors[0.4] > factors[0.2] > factors[0.0]


def test_creation_family_is_block_diagonal(bench8):
    a = creation_family(bench8, 2.0)
    fdim = bench8.fock_dim
    mat = a.copy()
    for xi in range(bench8.grid.size):
        blk = slice(xi * fdim, (xi + 1) * fdim)
        mat[blk, blk] = 0.0
    assert np.max(np.abs(mat)) == 0.0


def test_real_model_stays_float64(bench8_n3, ops2_n3):
    # a silent complex cast would make every dense LAPACK call about 4x dearer
    model = bench8_n3
    arrays = {
        "rho": form_factor_rho(model, 2.0),
        "v": form_factor(model, 2.0),
        "A": scatter(model, creation_blocks(model, 2.0)),
        "H_lam": cutoff_hamiltonian(model, 2.0),
        "H0": free_hamiltonian(model),
        "G": scatter(model, ops2_n3.g),
        "R": scatter(model, ops2_n3.defect),
        "series": scatter(model, ops2_n3.series),
    }
    for name, arr in arrays.items():
        assert arr.dtype == np.float64, name


def test_build_ibc_returns_consistent_bundle(bench8, ops2):
    assert isinstance(ops2, IbcOperators)
    t_mat = creation_family(bench8, 2.0).conj().T @ scatter(bench8, ops2.g)
    assert np.max(np.abs(t_mat - t_mat.conj().T)) <= HERMITIAN_TOL
    assert abs(ops2.shift - SHIFT_L8) < 1e-6
