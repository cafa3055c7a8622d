import numpy as np
import pytest

from kamcocycle.arithmetics import PowerFn
from kamcocycle.sl2_algebra import (
    BoundViolation,
    EigenData,
    SingularOperator,
    alpha_of,
    eigen,
    lm_dense_solve,
    lm_inverse,
    lm_solve,
    lm_spectrum,
    operator_bound_check,
)

GOLDEN = np.array([1.0, 0.5 * (1.0 + np.sqrt(5.0))])


def random_traceless(rng, scale=1.0, real=True):
    a, b, c = rng.standard_normal(3) * scale
    M = np.array([[a, b], [c, -a]], dtype=complex)
    if not real:
        M = M + 1j * np.array(
            [[rng.standard_normal(), rng.standard_normal()],
             [rng.standard_normal(), -0.0]]) * scale
        M[1, 1] = -M[0, 0]
    return M


def test_eigen_diagonal():
    ed = eigen(np.array([[1.0, 0.0], [0.0, -1.0]]))
    assert ed.alpha == 1.0
    assert not ed.defective
    np.testing.assert_allclose(ed.P_inv @ np.diag([1.0, -1.0]).astype(complex) @ ed.P,
                               np.diag([1.0, -1.0]), atol=1e-14)


def test_eigen_rotation_generator():
    rho = 0.7
    A = np.array([[0.0, 1.0], [-rho ** 2, 0.0]])
    ed = eigen(A)
    # closed-form 2x2 oracle: eigenvalues of A are +-i*rho
    w = np.linalg.eigvals(A)
    assert ed.alpha == pytest.approx(1j * rho, rel=1e-14)
    assert sorted(w, key=lambda z: z.imag)[1] == pytest.approx(ed.alpha, rel=1e-12)


def test_eigen_nilpotent_defective():
    ed = eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert ed.defective
    assert ed.alpha == 0.0
    np.testing.assert_array_equal(ed.P, np.eye(2))


def test_eigen_reconstruction_and_determinism():
    rng = np.random.default_rng(17)
    for _ in range(200):
        A = random_traceless(rng)
        ed = eigen(A)
        if ed.defective:
            continue
        rec = ed.P @ np.diag([ed.alpha, -ed.alpha]) @ ed.P_inv
        assert np.abs(rec - A).max() <= 1e-10 * (1.0 + np.abs(A).max())
        ed2 = eigen(A.copy())
        assert ed2.alpha == ed.alpha
        assert np.array_equal(ed.P, ed2.P)


def test_eigen_branch_convention():
    assert alpha_of(np.array([[2.0, 0], [0, -2.0]])) == 2.0
    a = alpha_of(np.array([[0.0, 1.0], [-4.0, 0.0]]))
    assert a.real == 0.0 and a.imag > 0


def test_lm_inverse_diagonal_shift():
    # commutator oracle: [diag(a,-a), E] = 2a E, so L_m E = (d_m - 2a) E
    m = (1, 0)
    a = 0.3
    A = np.diag([a, -a]).astype(complex)
    E = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    M = lm_inverse(m, GOLDEN, A, E)
    d_m = 2j * np.pi * GOLDEN[0]
    np.testing.assert_allclose(M, E / (d_m - 2 * a), atol=1e-14)


def test_lm_inverse_zero_matrix():
    m = (0, 1)
    rhs = np.array([[0.5, -1.0], [2.0, -0.5]], dtype=complex)
    M = lm_inverse(m, GOLDEN, np.zeros((2, 2)), rhs)
    np.testing.assert_allclose(M, rhs / (2j * np.pi * GOLDEN[1]), atol=1e-15)


def test_lm_inverse_matches_dense_oracle():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 200:
        A = random_traceless(rng, scale=rng.uniform(0.01, 2.0),
                             real=bool(rng.integers(0, 2)))
        m = tuple(int(v) for v in rng.integers(-4, 5, size=2))
        if abs(m[0]) + abs(m[1]) == 0:
            continue
        rhs = random_traceless(rng, real=False)
        spec = lm_spectrum(m, GOLDEN, alpha_of(A))
        if min(abs(s) for s in spec) < 1e-6:
            continue
        fast = lm_inverse(m, GOLDEN, A, rhs)
        dense = lm_dense_solve(m, GOLDEN, A, rhs)
        scale = max(np.abs(dense).max(), 1e-30)
        assert np.abs(fast - dense).max() <= 1e-12 * scale
        assert abs(fast[0, 0] + fast[1, 1]) <= 1e-13 * (1 + np.abs(fast).max())
        checked += 1


def test_lm_inverse_defective_path():
    A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # nilpotent
    m = (1, -1)
    rhs = np.array([[1.0, 0.5], [0.25, -1.0]], dtype=complex)
    M = lm_inverse(m, GOLDEN, A, rhs)
    d_m = 2j * np.pi * (GOLDEN[0] - GOLDEN[1])
    resid = d_m * M - (A @ M - M @ A) - rhs
    # rhs has a trace part which the trace-free solve cannot reproduce
    resid = resid - np.trace(resid) / 2 * np.eye(2)
    assert np.abs(resid).max() < 1e-12


def test_lm_inverse_singular_signal():
    A = np.zeros((2, 2))
    with pytest.raises(SingularOperator):
        lm_inverse((1, 0), np.array([0.0, 1.0]), A, np.eye(2, dtype=complex))


def test_lm_solve_batch_matches_dense_oracle():
    rng = np.random.default_rng(29)
    for _ in range(20):
        A = random_traceless(rng, scale=rng.uniform(0.01, 2.0),
                             real=bool(rng.integers(0, 2)))
        ms = rng.integers(-4, 5, size=(40, 2))
        spec = lm_spectrum(ms, GOLDEN, alpha_of(A))
        ms = ms[np.abs(spec).min(axis=0) >= 1e-6]
        rhs = np.array([random_traceless(rng, real=False) for _ in ms])
        fast = lm_solve(ms, GOLDEN, A, rhs)
        assert fast.shape == rhs.shape
        # a mode's solution does not depend on the batch around it
        np.testing.assert_array_equal(
            fast, [lm_inverse(m, GOLDEN, A, r) for m, r in zip(ms, rhs)])
        for m, r, M in zip(ms, rhs, fast):
            dense = lm_dense_solve(m, GOLDEN, A, r)
            scale = max(np.abs(dense).max(), 1e-30)
            assert np.abs(M - dense).max() <= 1e-12 * scale


def test_lm_solve_empty_batch():
    A = np.array([[0.0, 1.0], [-2.0, 0.0]])
    out = lm_solve(np.zeros((0, 2), dtype=np.int64), GOLDEN, A, np.zeros((0, 2, 2)))
    assert out.shape == (0, 2, 2)


def test_lm_solve_names_singular_mode():
    omega = np.array([0.0, 1.0])
    ms = np.array([[0, 1], [1, 0], [0, 2]])
    rhs = np.array([np.eye(2)] * 3, dtype=complex)
    with pytest.raises(SingularOperator, match=r"m=\(1, 0\)"):
        lm_solve(ms, omega, np.zeros((2, 2)), rhs)


def test_lm_solve_defective_batch():
    A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # nilpotent
    ms = np.array([[1, -1], [2, 1], [0, 3]])
    rhs = np.array([[[1.0, 0.5], [0.25, -1.0]], [[0.0, 2.0], [-1.0, 0.0]],
                    [[0.5, 0.0], [1.0, -0.5]]], dtype=complex)
    out = lm_solve(ms, GOLDEN, A, rhs)
    assert out.shape == (3, 2, 2)
    for m, r, M in zip(ms, rhs, out):
        np.testing.assert_array_equal(M, lm_dense_solve(m, GOLDEN, A, r))


def test_lm_solve_zero_matrix_batch():
    ms = np.array([[0, 1], [1, 0], [-2, 3]])
    rhs = np.array([[[0.5, -1.0], [2.0, -0.5]], [[1.0, 0.0], [0.0, -1.0]],
                    [[0.0, 1j], [3.0, 0.0]]])
    out = lm_solve(ms, GOLDEN, np.diag([1e-13, -1e-13]), rhs)  # below DEFECT_TOL
    d_m = 2j * np.pi * (ms @ GOLDEN)
    np.testing.assert_allclose(out, rhs / d_m[:, None, None], atol=1e-15)


def test_operator_bound_diophantine():
    G = PowerFn(2.0)
    g = PowerFn(2.0)
    kappa = 0.2
    N = 12
    for m in [(1, 0), (0, 1), (2, -1), (-3, 5), (7, -4)]:
        measured = operator_bound_check(m, GOLDEN, np.zeros((2, 2)), kappa, G, g, N)
        mod = abs(m[0]) + abs(m[1])
        assert measured <= 4 * G.value(N) * g.value(mod) / kappa


def test_operator_bound_boundary_case():
    # alpha placed exactly at distance kappa/(4 G(N) g(|m|)) from i*pi*<m,omega>:
    # the binding spectrum element is d_m - 2*alpha with modulus twice that
    # distance, so the measured norm is half the certified bound.
    G = PowerFn(2.0)
    g = PowerFn(2.0)
    kappa, N = 1.0, 6
    m = (1, 0)
    mod = 1
    dist = kappa / (4 * G.value(N) * g.value(mod))
    beta = np.pi * GOLDEN[0] + dist
    A = np.array([[0.0, beta], [-beta, 0.0]])  # alpha = i*beta
    measured = operator_bound_check(m, GOLDEN, A, kappa, G, g, N)
    expected = 1.0 / (2.0 * dist)
    assert measured == pytest.approx(expected, rel=1e-12)
    assert measured == pytest.approx(0.5 * 4 * G.value(N) * g.value(mod) / kappa,
                                     rel=1e-12)


def test_operator_bound_large_alpha():
    # far from every resonance the 1/|d_m| branch dominates the measurement
    G = PowerFn(2.0)
    g = PowerFn(2.0)
    A = np.array([[5.0, 0.0], [0.0, -5.0]])
    measured = operator_bound_check((1, 0), GOLDEN, A, 0.5, G, g, 10)
    assert measured == pytest.approx(1.0 / (2 * np.pi * GOLDEN[0]), rel=1e-12)
    assert measured <= G.value(10) / 0.5


def test_operator_bound_violation_raises():
    G = PowerFn(2.0)
    g = PowerFn(2.0)
    beta = np.pi * GOLDEN[0] + 1e-9  # essentially resonant
    A = np.array([[0.0, beta], [-beta, 0.0]])
    with pytest.raises(BoundViolation):
        operator_bound_check((1, 0), GOLDEN, A, 1.0, G, g, 6)
