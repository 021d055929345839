import tracemalloc

import numpy as np
import pytest

from nelsonlab import operators
from nelsonlab.operators import _LANCZOS_SEED, top_eigenvalue


def top_of_matrix(mat: np.ndarray, basis: int) -> tuple[float, int, float]:
    """``top_eigenvalue`` of x -> mat @ x from a seeded standard normal start."""
    start = np.random.default_rng(_LANCZOS_SEED).standard_normal(len(mat))
    return top_eigenvalue(lambda x: mat @ x, basis, start)


def psd_with_spectrum(evals: np.ndarray, seed: int) -> np.ndarray:
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(evals), len(evals))))
    return (q * evals) @ q.T


def assert_top_matches_eigvalsh(mat: np.ndarray) -> int:
    # a basis as long as the side never restarts
    want = np.linalg.eigvalsh(mat)[-1]
    value, steps, residual = top_of_matrix(mat, len(mat))
    assert abs(value - want) <= 1e-14 * want
    assert residual <= 1e-15
    assert 1 <= steps <= len(mat)
    return steps


@pytest.mark.parametrize("side", [1, 2, 7, 64, 300])
def test_top_eigenvalue_matches_eigvalsh_on_random_psd(side):
    b = np.random.default_rng(side).standard_normal((side, side))
    assert_top_matches_eigvalsh(b @ b.T)


@pytest.mark.parametrize("multiplicity", [2, 3])
def test_top_eigenvalue_of_a_repeated_top(multiplicity):
    evals = np.random.default_rng(multiplicity).uniform(0.0, 1.0, 40)
    evals[:multiplicity] = 2.0
    assert_top_matches_eigvalsh(psd_with_spectrum(evals, multiplicity))


def test_top_eigenvalue_of_rank_one_and_rank_deficient_matrices():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(50)
    # the Krylov space of a rank-r matrix has dimension at most r + 1; the
    # residual of order eps * ||A|| left there by roundoff may take one more step
    assert assert_top_matches_eigvalsh(np.outer(u, u)) <= 3
    b = rng.standard_normal((80, 10))
    assert assert_top_matches_eigvalsh(b @ b.T) <= 12


def test_top_eigenvalue_of_a_top_clustered_spectrum_spans_the_space():
    # eigenvalues crowd toward the top, as in the p = 1 Gram of one-boson
    # steps: Lanczos stops exactly at k = side, past several doublings of its basis
    evals = 1.0 - 0.3 * (np.arange(300) / 300) ** 2
    assert assert_top_matches_eigvalsh(psd_with_spectrum(evals, 7)) == 300


def test_top_eigenvalue_of_the_lattice_laplacian():
    # periodic -Laplacian on 16 points: the constant vector is its null
    # vector, orthogonal to the alternating top mode of eigenvalue 4
    lap = 2.0 * np.eye(16) - np.roll(np.eye(16), 1, axis=0) - np.roll(np.eye(16), -1, axis=0)
    assert_top_matches_eigvalsh(lap)


def test_top_eigenvalue_of_zero_is_exactly_zero_in_one_step():
    assert top_of_matrix(np.zeros((30, 30)), 30) == (0.0, 1, 0.0)


def test_top_eigenvalue_does_not_depend_on_the_start_vector():
    # Q A Q^T has the spectrum of A, and the same seeded draw lies
    # differently against its eigenbasis: a different start vector for A
    b = np.random.default_rng(11).standard_normal((200, 200))
    mat = b @ b.T
    q, _ = np.linalg.qr(np.random.default_rng(12).standard_normal((200, 200)))
    first, second = top_of_matrix(mat, 200)[0], top_of_matrix(q @ mat @ q.T, 200)[0]
    assert abs(first - second) <= 1e-14 * first


@pytest.mark.parametrize("kind", ["rank 10 of side 1500", "top-clustered of side 300"])
def test_top_eigenvalue_memory_grows_with_the_steps_taken(kind):
    if kind.startswith("rank"):
        b = np.random.default_rng(3).standard_normal((1500, 10))
        mat = b @ b.T
    else:
        mat = psd_with_spectrum(1.0 - 0.3 * (np.arange(300) / 300) ** 2, 7)
    steps = top_of_matrix(mat, len(mat))[1]
    tracemalloc.start()
    try:
        top_of_matrix(mat, len(mat))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stated = operators.lanczos_peak_bytes(len(mat), steps, mat.itemsize)
    assert abs(peak - stated) <= 0.25 * stated
    if kind.startswith("rank"):
        # a dozen steps hold a dozen-odd basis vectors, not one per row of the matrix
        assert steps <= 12 and peak <= 0.05 * mat.nbytes


def test_top_eigenvalue_of_a_hermitian_operator_given_as_a_function():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80))
    mat = b @ b.conj().T
    start = rng.standard_normal(80) + 1j * rng.standard_normal(80)
    want = np.linalg.eigvalsh(mat)[-1]
    value, steps, residual = top_eigenvalue(lambda x: mat @ x, 80, start)
    assert abs(value - want) <= 1e-14 * want
    assert residual <= 1e-15 and 1 <= steps <= 80


def test_top_eigenvalue_restarts_in_a_bounded_basis():
    # the top-clustered spectrum needs all 100 steps in one basis; a basis of
    # 20 vectors restarts from its top Ritz vector until a cycle leaves theta
    # unchanged, and never holds more than its 20 vectors
    mat = psd_with_spectrum(1.0 - 0.3 * (np.arange(100) / 100) ** 2, 7)
    want = np.linalg.eigvalsh(mat)[-1]
    tracemalloc.start()
    try:
        value, steps, residual = top_of_matrix(mat, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(value - want) <= 1e-14 * want
    assert steps > 20 and residual >= 0.0
    assert peak <= operators.lanczos_peak_bytes(100, 20, 8)


def test_lowest_eigenpair_separates_a_pair_1e_6_apart():
    # the start lies mostly along the second eigenvector; T = (A - sigma)^{-1} with sigma
    # 1e-9 below the pair damps it by 1e-3 per iteration, and the Ritz step keeps the lowest
    rng = np.random.default_rng(3)
    q = np.linalg.qr(rng.standard_normal((60, 60)))[0]
    spectrum = np.concatenate(([1.0, 1.0 + 1e-6], np.linspace(2.0, 50.0, 58)))
    mat = (q * spectrum) @ q.T
    precondition = np.linalg.inv(mat - (1.0 - 1e-9) * np.eye(60))
    start = q[:, 1] + 1e-3 * q[:, 0] + 1e-2 * rng.standard_normal(60)
    value, vec, record = operators.lowest_eigenpair(lambda x: mat @ x, lambda r: precondition @ r, start)
    assert abs(value - 1.0) <= 1e-14
    assert abs(abs(vec @ q[:, 0]) - 1.0) <= 1e-12 and abs(np.linalg.norm(vec) - 1.0) <= 1e-15
    assert 1 <= record["iterations"] and record["residual"] <= operators.LOBPCG_TOL


def test_lowest_eigenpair_of_a_random_matrix_unpreconditioned():
    b = np.random.default_rng(5).standard_normal((60, 60))
    mat = b + b.T
    value, vec, record = operators.lowest_eigenpair(lambda x: mat @ x, lambda r: r, np.ones(60))
    evals, evecs = np.linalg.eigh(mat)
    assert abs(value - evals[0]) <= 1e-13 * abs(evals[0])
    assert abs(abs(vec @ evecs[:, 0]) - 1.0) <= 1e-12
    assert np.linalg.norm(mat @ vec - value * vec) == pytest.approx(record["residual"], rel=1e-3)


def test_lowest_eigenpair_raises_at_its_cap(monkeypatch):
    monkeypatch.setattr(operators, "_LOBPCG_CAP", 2)
    mat = np.diag(np.arange(1.0, 61.0))
    with pytest.raises(operators.ConvergenceError, match="after 2 iterations"):
        operators.lowest_eigenpair(lambda x: mat @ x, lambda r: r, np.ones(60))
