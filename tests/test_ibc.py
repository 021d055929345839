import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nelsonlab import fock, ibc, nelson
from nelsonlab.ibc import (
    IbcOperators,
    build_ibc,
    domain_regularity_experiment,
    domain_regularity_norms,
    factorization_identity_check,
    free_shift,
    invert_one_minus_G,
    neumann_residual,
    scatter,
    sector_norm_exponent,
)
from nelsonlab.nelson import (
    AssembledModel,
    SizeError,
    SpectralError,
    assemble_cutoff_hamiltonian,
    assemble_free,
    creation_family,
    form_factor,
    form_factor_rho,
    sinusoidal_spec,
    vacuum_energy_operator,
)
from nelsonlab.operators import HERMITIAN_TOL

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
    inv, meta = invert_one_minus_G(model, ops.g)
    assert np.max(np.abs(scatter(model, inv) - np.eye(model.dim))) == 0.0
    assert meta["terms"] == 1 and meta["tail_bound"] == 0.0
    assert ops.neumann_terms == 1 and ops.neumann_tail == 0.0
    assert neumann_residual(model, ops) == 0.0


@pytest.mark.parametrize("lam", [1.0, 4.0])
@pytest.mark.parametrize("model_name", ["bench8", "bench8_n3"])
def test_sector_blocks_match_dense_route(model_name, lam, request):
    # dense oracle: one solve against H0 + s, dense products, a dense inverse
    model = request.getfixturevalue(model_name)
    ops = build_ibc(model, lam)
    eye = np.eye(model.dim)
    h0s = model.h0.mat + ops.shift * eye
    a = creation_family(model, lam).mat
    g = -np.linalg.solve(h0s, a)
    h_ibc = (eye - g).conj().T @ h0s @ (eye - g) + a.conj().T @ g
    h_ibc += np.diag(vacuum_energy_operator(model, lam)) - ops.shift * eye

    def rel(value, reference):
        return np.max(np.abs(value - reference)) / np.max(np.abs(reference))

    g_mat, inverse = scatter(model, ops.g), scatter(model, ops.inverse)
    assert rel(g_mat, g) < 1e-13
    assert rel(ops.h_ibc.mat, h_ibc) < 1e-13
    assert rel(inverse, np.linalg.inv(eye - g)) < 1e-13
    dense_residual = opnorm((eye - g_mat) @ inverse - eye)
    assert abs(neumann_residual(model, ops) - dense_residual) < 1e-15


def split_blocks(model, mat):
    """The sector blocks of a dense tensor matrix, all of them kept."""
    rows = [model.basis.tensor_rows(model.grid.size, n, n) for n in range(model.basis.n_max + 1)]
    return {
        (m, n): mat[np.ix_(target, source)]
        for m, target in enumerate(rows)
        for n, source in enumerate(rows)
    }


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
    inv, meta = invert_one_minus_G(bench8, blocks)
    assert meta["terms"] == n_max + 1
    assert meta["tail_bound"] > 0.0
    tail = opnorm(np.linalg.matrix_power(g, n_max + 1))
    assert meta["tail_bound"] == pytest.approx(tail, rel=1e-12)
    partial = sum(np.linalg.matrix_power(g, k) for k in range(n_max + 1))
    assert np.max(np.abs(scatter(bench8, inv) - partial)) < 1e-14


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
    p = sector_norm_exponent(norms)
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
    g, inverse = scatter(bench8, ops2.g), scatter(bench8, ops2.inverse)
    residual = opnorm((np.eye(bench8.dim) - g) @ inverse - np.eye(bench8.dim))
    assert residual < 1e-12
    dense = np.linalg.inv(np.eye(bench8.dim) - g)
    assert opnorm(inverse - dense) < 1e-12
    powers = [opnorm(np.linalg.matrix_power(g, k)) for k in (1, 2, 3)]
    assert abs(powers[0] - G_POWERS_N2[0]) < 1e-6
    assert abs(powers[1] - G_POWERS_N2[1]) < 1e-6
    assert powers[2] == 0.0


def keystone(model, lam):
    h_lam = assemble_cutoff_hamiltonian(model, lam)
    return factorization_identity_check(model, build_ibc(model, lam), h_lam)


def test_keystone_identity(bench8):
    residuals = [keystone(bench8, lam) for lam in (1.0, 2.0, 4.0)]
    for res in residuals:
        assert res <= 1e-12
    # the identity is algebra: no lam dependence beyond round-off
    assert max(residuals) - min(residuals) < 1e-12


def test_keystone_zero_coupling():
    model = assemble_free(sinusoidal_spec(8, coupling=0.0))
    assert keystone(model, 2.0) < 1e-14


def test_build_ibc_reads_neither_dense_H0_nor_A(monkeypatch):
    # fresh model: no cached H0; A and H0 + s come from the ladder and the spectrum
    model = assemble_free(sinusoidal_spec(8, n_max=3))

    def forbidden(*args):
        raise AssertionError("formed a dense H0 or A")

    monkeypatch.setattr(AssembledModel, "h0", property(forbidden))
    monkeypatch.setattr(nelson, "creation_family", forbidden)
    monkeypatch.setattr(ibc, "creation_family", forbidden, raising=False)
    ops = build_ibc(model, 2.0)
    assert neumann_residual(model, ops) < 1e-12
    assert sorted(ops.g) == [(1, 0), (2, 1), (3, 2)]


def test_build_ibc_guard_refuses_before_the_ladder(monkeypatch):
    # dense side 32 x fock_dim(32, 2) = 32 x 561 = 17952; the model itself is cheap
    model = assemble_free(sinusoidal_spec(32))

    def forbidden(*args):
        raise AssertionError("read the ladder or the coupling past the guard")

    monkeypatch.setattr(fock.FockBasis, "ladder", property(forbidden))
    monkeypatch.setattr(ibc, "form_factor", forbidden)
    with pytest.raises(SizeError, match="17952"):
        build_ibc(model, 2.0)


def test_singular_shift_raises_with_recorded_value(bench8):
    with pytest.raises(SpectralError, match="0.520107"):
        build_ibc(bench8, 2.0, shift=0.0)


def test_ibc_matches_subtracted_hamiltonian(bench8, ops2):
    assert ops2.h_ibc.hermitian is True
    reference = (
        assemble_cutoff_hamiltonian(bench8, 2.0).mat
        + np.diag(vacuum_energy_operator(bench8, 2.0))
    )
    e_ibc = np.linalg.eigvalsh(ops2.h_ibc.mat)
    e_ref = np.linalg.eigvalsh(reference)
    assert np.max(np.abs(e_ibc - e_ref)) < 1e-9
    assert e_ibc[0] > -1.0


def test_ibc_resolvent_distances_decrease(bench8):
    hams = {lam: build_ibc(bench8, lam).h_ibc.mat for lam in (1.0, 2.0, 4.0)}
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
    ops = build_ibc(model, 2.0)
    assert np.max(np.abs(ops.h_ibc.mat - model.h0.mat)) < 1e-12


def dense_domain_norms(model, g, ps):
    """Dense oracle ||H0^p G|| = opnorm(hermitian_func(H0, clip(w, 0)**p) @ G).

    One eigh of the dense H0 serves every p.  The clip only touches the
    zero-boson sector, where H0 = K may dip below zero (to -0.020 on the
    bench model) and which G never reaches; each boson adds at least the
    mass 1 > |w_amplitude|.  Only the columns of the sectors below the cap
    enter: G maps the top sector out of the truncation, so they are zero.
    """
    w, v = np.linalg.eigh(model.h0.mat)
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
    # G alone; build_ibc would also form T, E_lam and the Neumann inverse
    g = -np.linalg.solve(
        model.h0.mat + free_shift(model) * np.eye(model.dim),
        creation_family(model, 2.0).mat,
    )
    dense = dense_domain_norms(model, g, ps)
    for p in ps:
        assert abs(fast[p] - dense[p]) <= 1e-10 * dense[p]


def test_domain_regularity_gram_guard_refuses_before_allocating(monkeypatch):
    # Gram side 128 x C(33, 1) = 4224; the model itself is cheap (Fock dim 595)
    model = assemble_free(sinusoidal_spec(128, n_modes=33))

    def forbidden(*args):
        raise AssertionError("built a ladder or coefficient table past the guard")

    monkeypatch.setattr(fock.FockBasis, "ladder", property(forbidden))
    monkeypatch.setattr(ibc, "form_factor", forbidden)
    with pytest.raises(SizeError, match="4224"):
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
    mat = a.mat.copy()
    for xi in range(bench8.grid.size):
        blk = bench8.block(xi)
        mat[blk, blk] = 0.0
    assert np.max(np.abs(mat)) == 0.0


def test_real_model_stays_float64(bench8_n3, ops2_n3):
    # a silent complex cast would make every dense LAPACK call about 4x dearer
    model = bench8_n3
    arrays = {
        "rho": form_factor_rho(model, 2.0),
        "v": form_factor(model, 2.0),
        "A": creation_family(model, 2.0).mat,
        "H_lam": assemble_cutoff_hamiltonian(model, 2.0).mat,
        "H0": model.h0.mat,
        "G": scatter(model, ops2_n3.g),
        "H_ibc": ops2_n3.h_ibc.mat,
        "inverse": scatter(model, ops2_n3.inverse),
    }
    for name, arr in arrays.items():
        assert arr.dtype == np.float64, name


def test_build_ibc_returns_consistent_bundle(bench8, ops2):
    assert isinstance(ops2, IbcOperators)
    t_mat = creation_family(bench8, 2.0).mat.conj().T @ scatter(bench8, ops2.g)
    assert np.max(np.abs(t_mat - t_mat.conj().T)) <= HERMITIAN_TOL
    assert abs(ops2.shift - SHIFT_L8) < 1e-6
