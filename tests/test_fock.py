import numpy as np
import pytest

from nelsonlab.fock import (
    FockBasis,
    ac_estimate_report,
    annihilate,
    apply_field,
    apply_ladder,
    conjugation_deviations,
    dgamma_power,
    fock_basis,
    number_operator,
    second_quantize,
    sector_dims,
    weyl_rows,
    weyl_truncation_tolerance,
)
from nelsonlab.nelson import assemble_free, gross_B, sinusoidal_spec
from nelsonlab.operators import opnorm, psd_power

from dense_oracle import field, gross_check_static, momentum, sector_projector, weyl


def rand_vec(rng, n, scale=1.0):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _vacuum(basis):
    v = np.zeros(basis.dim, dtype=complex)
    v[0] = 1.0
    return v


@pytest.mark.parametrize(
    "m,n,dim", [(8, 2, 45), (8, 3, 165), (16, 2, 153), (1, 40, 41), (2, 2, 6)]
)
def test_dimensions(m, n, dim):
    assert sum(sector_dims(m, n)) == dim
    assert fock_basis(m, n).dim == dim


def _recursive_compositions(total, parts):
    """Occupation vectors summing to ``total``, first mode weakly first, by recursion on the modes."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _recursive_compositions(total - head, parts - 1):
            yield (head,) + rest


@pytest.mark.parametrize("m", range(1, 9))
def test_enumeration_matches_the_recursive_order(m):
    for n in range(5):
        want = [row for total in range(n + 1) for row in _recursive_compositions(total, m)]
        assert fock_basis(m, n).occupations.tolist() == [list(row) for row in want]


def test_enumeration_builds_past_the_recursion_limit():
    # one mode per recursion level would stop near 1000 modes
    b = fock_basis(1024, 1)
    assert b.dim == 1025 and b.sector_bounds == (0, 1, 1025)
    assert np.array_equal(b.occupations[1:], np.eye(1024, dtype=np.int64))
    assert b.index[tuple(b.occupations[7])] == 7


def test_enumeration_vacuum_first_and_sector_sorted():
    b = fock_basis(3, 2)
    assert tuple(b.occupations[0]) == (0, 0, 0)
    totals = b.sector_totals()
    assert list(totals) == sorted(totals)
    assert b.sector_slice(1) == slice(1, 4)


def _tensor_oracle_annihilate(f):
    """a(f) on the M=2, N_max=2 truncation built from symmetric tensors."""
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    sym2 = {
        (2, 0): np.kron(e1, e1),
        (1, 1): (np.kron(e1, e2) + np.kron(e2, e1)) / np.sqrt(2),
        (0, 2): np.kron(e2, e2),
    }
    order2 = [(2, 0), (1, 1), (0, 2)]
    mat = np.zeros((6, 6), dtype=complex)
    # 1 -> 0 block: <f, psi>
    mat[0, 1] = np.conj(f[0])
    mat[0, 2] = np.conj(f[1])
    # 2 -> 1 block: sqrt(2) * contraction of the first tensor slot with f
    for col, occ in enumerate(order2):
        t = sym2[occ].reshape(2, 2)
        contracted = np.sqrt(2.0) * (np.conj(f) @ t)
        mat[1, 3 + col] = contracted[0]
        mat[2, 3 + col] = contracted[1]
    return mat


def test_annihilate_matches_symmetric_tensor_construction():
    rng = np.random.default_rng(5)
    b = fock_basis(2, 2)
    for _ in range(5):
        f = rand_vec(rng, 2)
        np.testing.assert_allclose(
            annihilate(b, f), _tensor_oracle_annihilate(f), atol=1e-13
        )


def test_annihilate_matches_occupation_loop():
    # oracle: the per-state occupation loop, one term per matrix entry
    rng = np.random.default_rng(11)
    b = fock_basis(4, 3)
    f = rand_vec(rng, 4)
    oracle = np.zeros((b.dim, b.dim), dtype=complex)
    for s, state in enumerate(b.occupations):
        for j in np.nonzero(state)[0]:
            target = state.copy()
            target[j] -= 1
            oracle[b.index[tuple(target)], s] += np.conj(f[j]) * np.sqrt(state[j])
    assert np.array_equal(annihilate(b, f), oracle)


def test_sector_ladder_lists_every_creation_element():
    b = fock_basis(5, 3)
    assert len(b.ladder) == 3
    for n, lad in enumerate(b.ladder, start=1):
        upper = b.occupations[b.sector_slice(n)]
        lower = b.occupations[b.sector_slice(n - 1)]
        # one entry per occupied mode of each target
        assert len(lad.targets) == np.count_nonzero(upper)
        raised = lower[lad.sources].copy()
        raised[np.arange(len(lad.modes)), lad.modes] += 1
        assert np.array_equal(raised, upper[lad.targets])
        assert np.array_equal(lad.factors, np.sqrt(upper[lad.targets, lad.modes]))
        # each target's run raises different modes, so its sources are distinct
        bounds = np.append(lad.target_runs[0][1], len(lad.targets))
        for head, end in zip(bounds[:-1], bounds[1:]):
            assert len(np.unique(lad.sources[head:end])) == end - head


def test_annihilate_kills_vacuum():
    b = fock_basis(3, 2)
    f = np.array([1.0, 2.0, 3.0])
    assert np.linalg.norm(annihilate(b, f) @ _vacuum(b)) == 0.0


def test_ladder_amplitude_single_mode():
    b = fock_basis(1, 5)
    a = annihilate(b, np.array([1.0]))
    # <n-1| a |n> = sqrt(n)
    for n in range(1, 6):
        assert a[n - 1, n] == pytest.approx(np.sqrt(n))


def test_ccr_and_second_quantization_commutators():
    # canonical commutators hold to 1e-12 on sectors two below the cap
    rng = np.random.default_rng(42)
    b = fock_basis(3, 4)
    p = sector_projector(b, b.n_max - 2)
    eye = np.eye(b.dim)

    def comm(x, y):
        return x @ y - y @ x

    def create(f):
        return annihilate(b, f).conj().T

    for _ in range(20):
        f = rand_vec(rng, 3)
        g = rand_vec(rng, 3)
        h = rand_vec(rng, 9).reshape(3, 3)
        h = h + h.conj().T
        fg = np.vdot(f, g)

        c1 = comm(annihilate(b, f), create(g)) - fg * eye
        c2 = comm(second_quantize(b, h), create(f)) - create(h @ f)
        c3 = comm(second_quantize(b, h), annihilate(b, f)) + annihilate(b, h @ f)
        c4 = comm(field(b, f), field(b, g)) - 1j * fg.imag * eye
        c5 = comm(momentum(b, f), momentum(b, g)) - 1j * fg.imag * eye
        c6 = comm(field(b, f), momentum(b, g)) - 1j * fg.real * eye
        for c in (c1, c2, c3, c4, c5, c6):
            assert opnorm(p @ c @ p) <= 1e-12


def test_number_operator_is_dgamma_of_identity():
    b = fock_basis(3, 3)
    np.testing.assert_allclose(
        number_operator(b), second_quantize(b, np.eye(3)), atol=1e-13
    )


def test_dgamma_restricted_to_one_boson_is_the_one_particle_matrix():
    rng = np.random.default_rng(9)
    b = fock_basis(4, 2)
    h = rand_vec(rng, 16).reshape(4, 4)
    h = h + h.conj().T
    dg = second_quantize(b, h)
    s1 = b.sector_slice(1)
    np.testing.assert_allclose(dg[s1, s1], h, atol=1e-13)


def test_number_bound_by_dgamma_omega():
    # N <= dGamma(omega)/m whenever omega >= m
    rng = np.random.default_rng(10)
    b = fock_basis(3, 4)
    m = 0.7
    w = rng.uniform(m, 3.0, size=3)
    dg = second_quantize(b, np.diag(w))
    n = number_operator(b)
    for _ in range(10):
        psi = rand_vec(rng, b.dim)
        assert np.linalg.norm(n @ psi) <= np.linalg.norm(dg @ psi) / m + 1e-12


def test_weyl_unitary():
    rng = np.random.default_rng(11)
    b = fock_basis(2, 8)
    v = weyl(b, rand_vec(rng, 2, 0.7))
    np.testing.assert_allclose(v @ v.conj().T, np.eye(b.dim), atol=1e-12)


def test_weyl_product_phase_is_bch():
    # V(f) V(g) = exp(-i Im<f,g>/2) V(f+g) on safe sectors
    rng = np.random.default_rng(12)
    b = fock_basis(2, 30)
    p = sector_projector(b, 20)
    for _ in range(5):
        f = rand_vec(rng, 2, 0.25)
        g = rand_vec(rng, 2, 0.25)
        phase = np.exp(-0.5j * np.vdot(f, g).imag)
        resid = p @ (weyl(b, f) @ weyl(b, g) - phase * weyl(b, f + g)) @ p
        assert opnorm(resid) <= 1e-9


def test_weyl_conjugation_shifts_field():
    # V(g) Phi(f) V(g)* = Phi(f) + Re<f,g>
    b = fock_basis(1, 40)
    p = sector_projector(b, 30)
    f = np.array([0.5 + 0.2j])
    g = np.array([0.3 - 0.4j])
    v = weyl(b, g)
    shift = complex(np.vdot(f, g).real)
    resid = p @ (v @ field(b, f) @ v.conj().T - (field(b, f) + shift * np.eye(b.dim))) @ p
    assert opnorm(resid) <= 1e-7


def test_weyl_conjugation_shifts_dgamma():
    # V(g) dGamma(h) V(g)* = dGamma(h) + Phi(h g) + <h g, g>/2 for hermitian h
    b = fock_basis(1, 40)
    p = sector_projector(b, 30)
    h = np.array([[1.4]])
    g = np.array([0.5 + 0.2j])
    v = weyl(b, g)
    target = second_quantize(b, h) + field(b, h @ g) + 0.5 * np.vdot(h @ g, g).real * np.eye(b.dim)
    resid = p @ (v @ second_quantize(b, h) @ v.conj().T - target) @ p
    assert opnorm(resid) <= 1e-7


def test_ladder_application_matches_the_dense_operators():
    rng = np.random.default_rng(21)
    b = fock_basis(3, 4)
    f, g = rand_vec(rng, 3), rand_vec(rng, 3)
    x = rng.standard_normal((5, b.dim)) + 1j * rng.standard_normal((5, b.dim))
    dense = annihilate(b, f).conj().T + annihilate(b, g)  # a*(f) + a(g)
    np.testing.assert_allclose(apply_ladder(b, f, g, x), x @ dense.T, rtol=0, atol=1e-13)
    # a real vector under real coefficients stays real
    assert apply_ladder(b, f.real, g.real, x.real).dtype == np.float64
    # no ladder at n_max 0
    assert not apply_ladder(fock_basis(3, 0), f, g, np.ones((2, 1))).any()


def _largest_dressing_lam4():
    """The dense-tensor basis (npts 8, n_max 3) and its largest mode dressing b_X at lam 4."""
    model = assemble_free(sinusoidal_spec(8, n_max=3))
    coeffs = model.project(gross_B(model, 4.0))
    return model.basis, coeffs[np.argmax(np.linalg.norm(coeffs, axis=1))]


@pytest.mark.parametrize("case", ["dressing", "complex", "one-mode", "all-rows"])
def test_weyl_rows_match_the_dense_weyl_operator(case):
    rng = np.random.default_rng(22)
    if case == "dressing":
        b, f = _largest_dressing_lam4()
        rows = b.tensor_rows(1, 0, 1)
    elif case == "complex":
        b = fock_basis(8, 3)
        f = rand_vec(rng, 8, 0.2)
        rows = b.tensor_rows(1, 0, 1)
    elif case == "one-mode":
        # sqrt(2 n_max) ||f|| ~ 27: the series needs 14 steps
        b = fock_basis(1, 40)
        f = np.array([2.8 + 1.0j])
        rows = np.arange(0, 41, 4)
    else:
        b = fock_basis(3, 4)
        f = rand_vec(rng, 3, 0.4)
        rows = np.arange(b.dim)
    got, steps, terms = weyl_rows(b, f, rows)
    assert np.abs(got - weyl(b, f)[rows]).max() <= 1e-14
    if case == "one-mode":
        assert steps == 14
    assert 1 <= terms <= 30


def test_weyl_rows_of_zero_are_the_unit_rows():
    b = fock_basis(4, 3)
    rows = np.array([0, 3, 7])
    got, steps, terms = weyl_rows(b, np.zeros(4), rows)
    assert (steps, terms) == (1, 0)
    assert np.array_equal(got, np.eye(b.dim)[rows])


def _dense_deviations(b, freqs, g, u, rows):
    """Both conjugation deviations from the dense V(g), Phi and dGamma, restricted to rows x rows."""
    v = weyl(b, g)
    eye = np.eye(b.dim)
    dgamma = second_quantize(b, np.diag(freqs))
    pred = dgamma + field(b, freqs * g) + 0.5 * np.vdot(freqs * g, g).real * eye
    dgamma_dev = v @ dgamma @ v.conj().T - pred
    field_dev = v @ field(b, u) @ v.conj().T - (field(b, u) + np.vdot(u, g).real * eye)
    window = np.ix_(rows, rows)
    return dgamma_dev[window], field_dev[window]


@pytest.mark.parametrize(
    "n_modes, n_max, cap, kind",
    [(1, 10, 5, "complex"), (1, 20, 5, "complex"), (3, 5, 3, "real"), (3, 5, 3, "complex")],
)
def test_conjugation_deviations_match_the_dense_route(n_modes, n_max, cap, kind):
    rng = np.random.default_rng(23)
    b = fock_basis(n_modes, n_max)
    freqs = rng.uniform(0.5, 2.0, n_modes)
    g = rand_vec(rng, n_modes, 0.3)
    u = rand_vec(rng, n_modes, 0.5)
    if kind == "real":
        g = g.real
    rows = b.tensor_rows(1, 0, cap)
    got = conjugation_deviations(b, freqs, b.occupations @ freqs, g, u, rows)
    for mine, dense in zip(got, _dense_deviations(b, freqs, g, u, rows)):
        assert mine.shape == (len(rows), len(rows))
        np.testing.assert_allclose(mine, dense, rtol=0, atol=1e-13)


def test_apply_field_matches_the_dense_field():
    rng = np.random.default_rng(25)
    b = fock_basis(3, 4)
    f = rand_vec(rng, 3)
    x = rng.standard_normal((4, b.dim))
    got = apply_field(b, f, x)
    assert got.dtype == np.complex128
    np.testing.assert_allclose(got, x @ field(b, f).T, rtol=0, atol=1e-13)


def test_weyl_truncation_tolerance_shrinks_with_headroom():
    taus = [weyl_truncation_tolerance(n, n - 10, 0.5) for n in (10, 20, 40)]
    assert taus[0] > 0
    tol_seq = [weyl_truncation_tolerance(40, c, 0.5) for c in (38, 34, 30)]
    assert tol_seq[0] > tol_seq[1] > tol_seq[2]


def test_gross_check_static_small_residual_and_monotone():
    # dressing identity residual on a fixed sector window, non-increasing in the
    # cap until it hits the floating-point floor
    resids = [
        gross_check_static(
            fock_basis(1, n), np.array([[1.0]]), np.array([0.3]), sector_cap=5
        )
        for n in (10, 20, 40)
    ]
    assert resids[-1] <= 1e-7
    assert resids[1] <= resids[0] + 1e-13
    assert resids[2] <= resids[1] + 1e-13


def test_ac_estimates_hold():
    rng = np.random.default_rng(15)
    b = fock_basis(3, 4)
    violations = 0
    for _ in range(200):
        w = rng.uniform(1.0, 4.0, size=3)
        h = np.diag(w)
        f = rand_vec(rng, 3)
        g = rand_vec(rng, 3)
        psi = rand_vec(rng, b.dim)
        alpha = rng.choice([0.5, 0.75, 1.0])
        rep = ac_estimate_report(b, h, f, g, psi, alpha)
        for lhs, rhs in rep.values():
            if lhs > rhs * (1 + 1e-12) + 1e-12:
                violations += 1
    assert violations == 0


def test_ac_estimates_reject_bad_h():
    b = fock_basis(2, 2)
    with pytest.raises(ValueError):
        ac_estimate_report(
            b, np.diag([0.5, 2.0]), np.ones(2), np.ones(2), _vacuum(b), 0.5
        )


def test_field_bound_sqrt2():
    # ||Phi(f) psi|| <= sqrt(2) ||f|| ||(N+1)^{1/2} psi||
    rng = np.random.default_rng(16)
    b = fock_basis(2, 6)
    nplus = psd_power(number_operator(b) + np.eye(b.dim), 0.5)
    for _ in range(50):
        f = rand_vec(rng, 2)
        psi = rand_vec(rng, b.dim)
        lhs = np.linalg.norm(field(b, f) @ psi)
        rhs = np.sqrt(2) * np.linalg.norm(f) * np.linalg.norm(nplus @ psi)
        assert lhs <= rhs + 1e-12


def test_model_projection_round_trips_mode_coefficients():
    # the modes are orthonormal in the weighted inner product and span the lattice
    model = assemble_free(sinusoidal_spec(8))
    vecs = model.mode_vectors
    np.testing.assert_allclose(vecs.conj().T @ vecs * model.grid.weight, np.eye(8), atol=1e-12)
    rng = np.random.default_rng(17)
    coeffs_in = rand_vec(rng, 8)
    np.testing.assert_allclose(model.project(vecs @ coeffs_in), coeffs_in, atol=1e-12)
    # a stack of lattice vectors projects row by row and is rebuilt from its coefficients
    stack = rand_vec(rng, 24).reshape(3, 8)
    np.testing.assert_allclose(model.project(stack) @ vecs.T, stack, atol=1e-12)


def test_spectral_modes_diagonalize():
    # the model's boson modes are the eigenmodes of h, with frequencies sqrt(eig h)
    model = assemble_free(sinusoidal_spec(8))
    vecs = model.mode_vectors
    compressed = vecs.conj().T @ model.h @ vecs * model.grid.weight
    np.testing.assert_allclose(compressed, np.diag(model.mode_freqs**2), atol=1e-10)
