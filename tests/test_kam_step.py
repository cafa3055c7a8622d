import math

import numpy as np
import pytest

from kamcocycle import kam_step, sl2_algebra
from kamcocycle.arithmetics import PowerFn, check_nr_alpha, l1_ball
from kamcocycle.kam_step import (
    MultipleResonances,
    PreconditionFailure,
    ResonanceReport,
    StepContext,
    conjugation_residual,
    eliminate_resonance,
    find_resonance,
    solve_homological,
    step_nonresonant,
    step_resonant,
)
from kamcocycle.sl2_algebra import BoundViolation, DefectiveConstantPart, eigen
from kamcocycle.torus_fourier import TorusMap, op_norm_2x2

GOLDEN = np.array([1.0, 0.5 * (1.0 + np.sqrt(5.0))])
G2 = PowerFn(2.0)


def make_ctx(kappa=1.0, C_prime=10.0):
    return StepContext(omega=GOLDEN, kappa=kappa, G=G2, g=G2, C_prime=C_prime)


def resonance_of(A, N, ctx):
    # the report the driver hands a step: the scan of A's eigenvalue at N
    return find_resonance(eigen(A).alpha, ctx.omega, ctx.kappa, ctx.G, ctx.g, N)


def rotation_like(beta):
    return np.array([[0.0, beta], [-beta, 0.0]])


def small_real_map(d=2, eps=1e-9, modes=((2, 0), (2, 2)), seed=0):
    rng = np.random.default_rng(seed)
    entries = []
    for hk in modes:
        a, b, c = rng.standard_normal(3)
        M = eps * np.array([[a, b], [c, -a]], dtype=complex)
        entries.append((hk, 0.5 * M))
        entries.append((tuple(-np.array(hk)), 0.5 * np.conj(M)))
    return TorusMap.from_modes(d, entries, reality=True)


# -- find_resonance ----------------------------------------------------------

def test_find_resonance_exact_hit():
    m0 = (1, 0)
    alpha = 1j * math.pi * float(np.dot(m0, GOLDEN))
    rep = find_resonance(alpha, GOLDEN, 1.0, G2, G2, N=2)
    assert rep.m == m0
    assert abs(rep.alpha_shifted) < 1e-14


def test_find_resonance_real_alpha_far():
    rep = find_resonance(0.5 + 0.0j, GOLDEN, 1.0, G2, G2, N=10)
    assert rep.m is None
    assert rep.margin >= 0.5  # distance to the imaginary axis is at least Re


def test_find_resonance_uniqueness_bruteforce():
    # randomized: scan the whole ball by brute force and compare the count
    # of violators against the report
    rng = np.random.default_rng(77)
    kappa = 1.0
    for _ in range(100):
        N = int(rng.integers(2, 9))
        if rng.uniform() < 0.5:
            m = tuple(int(v) for v in rng.integers(-2, 3, size=2))
            if abs(m[0]) + abs(m[1]) == 0 or abs(m[0]) + abs(m[1]) > N:
                continue
            alpha = 1j * (math.pi * float(np.dot(m, GOLDEN)) + rng.normal(scale=1e-4))
        else:
            alpha = complex(rng.normal(scale=0.1), rng.uniform(0, 8))
        pts = l1_ball(N, 2)
        pts = pts[np.abs(pts).sum(axis=1) > 0]
        dist = np.abs(alpha - 1j * math.pi * (pts @ GOLDEN))
        thr = kappa / (4.0 * G2.value(N) * G2.value(np.abs(pts).sum(axis=1).astype(float)))
        violators = pts[dist < thr]
        assert len(violators) <= 1
        rep = find_resonance(alpha, GOLDEN, kappa, G2, G2, N)
        if len(violators) == 0:
            assert rep.m is None
        else:
            assert rep.m == tuple(violators[0])
            shifted_ok = check_nr_alpha(rep.alpha_shifted, GOLDEN,
                                        kappa / G2.value(N), G2, N)
            assert shifted_ok.ok


def test_find_resonance_tie_raises():
    # rationally dependent frequencies put two lattice points at the same
    # distance, an inconsistent configuration
    omega = np.array([1.0, 1.0])
    alpha = 1j * math.pi * 1.0
    with pytest.raises(MultipleResonances):
        find_resonance(alpha, omega, 1.0, G2, G2, N=3)


# -- eliminate_resonance ------------------------------------------------------

def test_eliminate_exchange_relation_coefficients():
    beta = math.pi * GOLDEN[0]
    A = rotation_like(beta)  # alpha = i beta resonant at m = (1, 0)
    m = (1, 0)
    Phi, Atilde, Phi_inv = eliminate_resonance(A, m, GOLDEN)
    # exchange relation coefficient by coefficient
    d = Phi.dir_derivative(GOLDEN)
    cA = TorusMap.constant(A, 2)
    cAt = TorusMap.constant(Atilde, 2)
    resid = d - (cA.mul(Phi) - Phi.mul(cAt))
    assert resid.weighted_norm(0.3) < 1e-12
    assert abs(Atilde).max() < 1e-12  # exact resonance: shifted part vanishes


def test_eliminate_det_one_and_inverse():
    beta = math.pi * (GOLDEN[0] + GOLDEN[1])
    A = rotation_like(beta)
    Phi, _, Phi_inv = eliminate_resonance(A, (1, 1), GOLDEN)
    rng = np.random.default_rng(3)
    thetas = rng.uniform(0, 2, size=(100, 2))
    vals = Phi.eval(thetas)
    dets = vals[:, 0, 0] * vals[:, 1, 1] - vals[:, 0, 1] * vals[:, 1, 0]
    np.testing.assert_allclose(dets, 1.0, atol=1e-12)
    resid = Phi.mul(Phi_inv) - TorusMap.identity(2)
    assert resid.weighted_norm(0.4) < 1e-12
    assert Phi.reality and Phi.is_real()
    assert Phi.lattice == "half"


def test_eliminate_defective_rejected():
    with pytest.raises(DefectiveConstantPart):
        eliminate_resonance(np.array([[0.0, 1.0], [0.0, 0.0]]), (1, 0), GOLDEN)


# -- solve_homological --------------------------------------------------------

def test_homological_zero_rhs():
    F = TorusMap.constant(np.array([[1e-8, 0], [0, -1e-8]]), 2)
    X = solve_homological(rotation_like(0.9), F, 4, GOLDEN, 1.0, G2, G2, 0.99, 0.3)
    assert X.n_modes == 0


def test_homological_single_mode_zero_A():
    hk = (2, 0)
    M = np.array([[0.0, 1e-6], [1e-6, 0.0]], dtype=complex)
    F = TorusMap.from_modes(2, [(hk, M)])
    a_prime = 0.9
    X = solve_homological(np.zeros((2, 2)), F, 3, GOLDEN, 1.0, G2, G2, a_prime, 0.2)
    expected = a_prime * M / (2j * math.pi * GOLDEN[0])
    np.testing.assert_allclose(X.coeff(hk), expected, atol=1e-20)


def test_homological_bound_violation_on_inflated_kappa():
    # the certified size bound scales with 1/kappa; a kappa far above the
    # true non-resonance constant of alpha makes it fail
    F = small_real_map(eps=1e-9, seed=5)
    X = solve_homological(rotation_like(0.77), F, 5, GOLDEN, 1.0, G2, G2, 0.99, 0.3)
    assert X.n_modes > 0
    with pytest.raises(BoundViolation):
        solve_homological(rotation_like(0.77), F, 5, GOLDEN, 1e6, G2, G2, 0.99, 0.3)


def test_homological_residual_random_instances():
    rng = np.random.default_rng(2024)
    count = 0
    while count < 100:
        beta = rng.uniform(0.3, 2.5)
        A = rotation_like(beta) if rng.uniform() < 0.7 else np.array(
            [[beta, 0.1 * beta], [0.0, -beta]])
        alpha = eigen(A).alpha
        N = int(rng.integers(2, 7))
        if not check_nr_alpha(alpha, GOLDEN, 1.0 / (4 * G2.value(N)), G2, N).ok:
            continue
        F = small_real_map(eps=10 ** rng.uniform(-10, -6), seed=count,
                           modes=((2, 0), (0, 2), (2, -2), (4, 2)))
        a_prime = rng.uniform(0.9, 1.0)
        r_prime = rng.uniform(0.05, 0.3)
        X = solve_homological(A, F, N, GOLDEN, 1.0, G2, G2, a_prime, r_prime)
        cA = TorusMap.constant(A, 2)
        F0 = TorusMap.constant(F.coeff((0, 0)), 2)
        rhs = (F.truncate(N) - F0).scale(a_prime)
        resid = X.dir_derivative(GOLDEN) - (cA.mul(X) - X.mul(cA)) - rhs
        assert resid.weighted_norm(r_prime) <= 1e-12 * F.weighted_norm(r_prime)
        assert X.reality
        count += 1


# -- non-resonant step --------------------------------------------------------

def test_step_nonresonant_zero_perturbation():
    ctx = make_ctx()
    A = rotation_like(0.77)
    F = TorusMap.zero(2)
    out = step_nonresonant(A, F, 0.5, 0.4, 3, 1.0 - 1.0 / 196, ctx, resonance_of(A, 3, ctx))
    np.testing.assert_allclose(out.A_next, A)
    assert out.F_next.n_modes == 0
    assert out.Z_step.n_modes == 1
    assert out.residual_norm < 1e-14
    assert out.contraction_observed == 0.0


def test_step_nonresonant_constant_perturbation():
    ctx = make_ctx()
    A = rotation_like(0.77)
    eps = 1e-9
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    F = TorusMap.constant(eps * M, 2)
    a_prime = 1.0 - 1.0 / 200.0
    out = step_nonresonant(A, F, 0.5, 0.3, 5, a_prime, ctx, resonance_of(A, 5, ctx))
    np.testing.assert_allclose(out.A_next, A + a_prime * eps * M, rtol=1e-12)
    np.testing.assert_allclose(out.F_next.coeff((0, 0)), (1 - a_prime) * eps * M,
                               rtol=1e-10)
    assert out.contraction_observed == pytest.approx(1 - a_prime, rel=1e-9)
    assert out.x_norm == 0.0


def test_step_nonresonant_strict_precondition_failure():
    # failed preconditions are recorded, not raised, and the contraction
    # is then not asserted
    ctx = make_ctx()
    A = rotation_like(0.77)
    F = small_real_map(eps=1e-3)  # far too large for petitesse3
    out = step_nonresonant(A, F, 0.5, 0.499, 5, 1.0 - 1.0 / 196, ctx,
                           resonance_of(A, 5, ctx))
    ok, lhs, rhs = out.preconditions["petitesse3"]
    assert not ok and lhs > rhs
    assert not out.preconditions["N_gap"][0]  # e^{-2 pi 5 (0.001)} > 1/196


def test_step_nonresonant_contraction_and_residual():
    ctx = make_ctx()
    A = rotation_like(0.77)
    F = small_real_map(eps=1e-9, seed=5)
    a_prime = 1.0 - 1.0 / 200.0
    r, r_prime, N = 0.5, 0.33, 5
    # both preconditions hold: 2 G g eps <= kappa (1-a')/2 and the gap
    assert 2 * G2.value(N) * G2.value(N) * F.weighted_norm(r) <= (1 - a_prime) / 2
    assert math.exp(-2 * math.pi * N * (r - r_prime)) <= 1 - a_prime
    out = step_nonresonant(A, F, r, r_prime, N, a_prime, ctx, resonance_of(A, N, ctx))
    assert out.contraction_observed <= math.sqrt(1 - a_prime)
    debt = out.F_next.truncation_debt + out.Z_step.truncation_debt
    assert out.residual_norm <= 1e-10 * (1 + F.weighted_norm(r)) + debt
    assert out.Z_step.is_real()
    assert out.F_next.is_real()


def test_step_nonresonant_decomposes_twice(monkeypatch):
    # one eigendecomposition serves the mode solve, one gives alpha of A'
    ctx = make_ctx()
    A = rotation_like(0.77)
    F = small_real_map(eps=1e-9, seed=5)
    report = resonance_of(A, 5, ctx)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return eigen(*args, **kwargs)

    monkeypatch.setattr(kam_step, "eigen", counted)
    monkeypatch.setattr(sl2_algebra, "eigen", counted)
    step_nonresonant(A, F, 0.5, 0.33, 5, 1.0 - 1.0 / 200.0, ctx, report)
    assert len(calls) == 2


# -- resonant step ------------------------------------------------------------

def test_step_resonant_exact_resonance_no_perturbation():
    ctx = make_ctx()
    beta = math.pi * GOLDEN[0]
    A = rotation_like(beta)
    F = TorusMap.zero(2)
    out = step_resonant(A, F, 1.0, 2, 1.0 - 1.0 / 196, 2.0, ctx, resonance_of(A, 2, ctx))
    assert out.resonant and out.m == (1, 0)
    assert abs(out.alpha_next) < 1e-12
    np.testing.assert_allclose(out.A_next, 0.0, atol=1e-12)
    assert out.F_next.n_modes == 0
    # Z is exactly Phi
    Phi, _, _ = eliminate_resonance(A, (1, 0), GOLDEN)
    assert (out.Z_step - Phi).weighted_norm(0.1) < 1e-13
    assert out.residual_norm < 1e-12


def test_step_resonant_conjugation_lattice_and_residual():
    ctx = make_ctx()
    delta = 1e-3
    beta = math.pi * GOLDEN[0] + delta
    A = rotation_like(beta)
    F = small_real_map(eps=1e-12, seed=11, modes=((2, 0), (0, 2)))
    assert 2 * (G2.value(2) * G2.value(2)) ** 2 * F.weighted_norm(1.0) \
        <= 0.5 * (1.0 / 196) ** 2  # petitesse holds for this instance
    out = step_resonant(A, F, 1.0, 2, 1.0 - 1.0 / 196, 2.0, ctx, resonance_of(A, 2, ctx))
    assert out.resonant and out.m == (1, 0)
    assert out.alpha_next == pytest.approx(1j * delta, abs=1e-6)
    # conjugated perturbation is back on the integer lattice
    assert out.F_next.lattice == "integer"
    assert out.Z_step.lattice == "half"
    debt = out.F_next.truncation_debt + out.Z_step.truncation_debt
    assert out.residual_norm <= 1e-10 * (1 + F.weighted_norm(1.0)) + debt
    assert out.contraction_observed <= 1.0 - (1.0 - 1.0 / 196)
    # reality and unimodularity of the step conjugation
    assert out.Z_step.is_real()
    assert out.Z_step.max_imag_on_grid(100) < 1e-11
    rng = np.random.default_rng(8)
    thetas = rng.uniform(0, 2, size=(100, 2))
    vals = out.Z_step.eval(thetas)
    dets = vals[:, 0, 0] * vals[:, 1, 1] - vals[:, 0, 1] * vals[:, 1, 0]
    np.testing.assert_allclose(dets.real, 1.0, atol=1e-10)


def test_step_resonant_requires_resonance():
    ctx = make_ctx()
    A = rotation_like(0.5)  # far from every i pi <m, omega>
    with pytest.raises(PreconditionFailure):
        step_resonant(A, TorusMap.zero(2), 1.0, 2, 1.0 - 1.0 / 196, 2.0, ctx,
                      resonance_of(A, 2, ctx))


def test_conjugation_residual_oracle_detects_tampering():
    ctx = make_ctx()
    A = rotation_like(0.77)
    F = small_real_map(eps=1e-9, seed=21)
    out = step_nonresonant(A, F, 0.5, 0.33, 5, 1.0 - 1.0 / 200, ctx, resonance_of(A, 5, ctx))
    good = conjugation_residual(A, F, out.Z_step, out.A_next, out.F_next,
                                GOLDEN, out.r_next)
    assert good == pytest.approx(out.residual_norm)
    bad = conjugation_residual(A, F, out.Z_step, out.A_next,
                               out.F_next.scale(2.0), GOLDEN, out.r_next)
    assert bad > 1e3 * max(good, 1e-300)


def test_find_resonance_large_order_windowed():
    # resonance far out in the lattice, found through the windowed scan
    m0 = (100, -62)
    gap = float(np.dot(m0, GOLDEN))
    alpha = 1j * math.pi * gap
    rep = find_resonance(alpha, GOLDEN, 1.0, G2, G2, N=5000)
    assert rep.m == m0
    assert abs(rep.alpha_shifted) < 1e-12
    # and a clean alpha stays clean at the same order
    clean = find_resonance(0.5j, GOLDEN, 1.0, G2, G2, N=5000)
    assert clean.m is None
    # just past the exact ball: alpha on the (1, 0) resonance is reported,
    # a clean alpha is not
    near = find_resonance(1j * (math.pi * GOLDEN[0] + 1e-9), GOLDEN, 1.0, G2, G2, N=14)
    assert near.m == (1, 0)
    assert find_resonance(0.5j, GOLDEN, 1.0, G2, G2, N=20).m is None


def test_step_nonresonant_defective_constant_part():
    # near-nilpotent A: eigen-data is flagged defective, the homological
    # solve runs through the dense entrywise path, and the step still
    # closes the conjugation identity
    ctx = make_ctx()
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    F = small_real_map(eps=1e-9, seed=31)
    out = step_nonresonant(A, F, 0.5, 0.33, 5, 1.0 - 1.0 / 200, ctx, resonance_of(A, 5, ctx))
    assert out.residual_norm <= 1e-10 * (1 + F.weighted_norm(0.5))
    assert out.contraction_observed <= math.sqrt(1.0 / 200)
    assert abs(eigen(A).alpha) < 1e-10


def test_phi_norm_within_recorded_bound():
    ctx = make_ctx()
    beta = math.pi * GOLDEN[0] + 1e-3
    A = rotation_like(beta)
    F = small_real_map(eps=1e-12, seed=11, modes=((2, 0), (0, 2)))
    out = step_resonant(A, F, 1.0, 2, 1.0 - 1.0 / 196, 2.0, ctx, resonance_of(A, 2, ctx))
    # |Phi^{+-1}|_{r'} <= 2 cond(P) e^{pi N r'} with P the eigenbasis of A
    Phi, _, Phi_inv = eliminate_resonance(A, out.m, GOLDEN)
    ed = eigen(A)
    cond = op_norm_2x2(ed.P) * op_norm_2x2(ed.P_inv)
    bound = 2.0 * cond * math.exp(math.pi * 2 * out.r_next)
    assert Phi.weighted_norm(out.r_next) <= bound * (1 + 1e-12)
    assert Phi_inv.weighted_norm(out.r_next) <= bound * (1 + 1e-12)


def test_f_next_matches_series_expansion():
    # independent route: the remainder can also be written as
    #   e^{-X}(F - a' F^N) + e^{-X} F (e^X - I) + a'(e^{-X} - I) F^(0)
    #   - e^{-X} sum_{k>=2} (1/k!) sum_{l<k} X^l (a' F^N - a' F^(0)) X^{k-1-l}
    # which must agree with the identity-based construction up to the
    # exponential tails
    from kamcocycle.torus_fourier import exp_series_tail

    ctx = make_ctx()
    rng = np.random.default_rng(909)
    for trial in range(10):
        beta = rng.uniform(0.4, 2.0)
        A = rotation_like(beta)
        F = small_real_map(eps=10 ** rng.uniform(-11, -9.5), seed=100 + trial,
                           modes=((2, 0), (0, 2), (2, 2)))
        r, r_prime, N = 0.5, 0.33, 5
        a_prime = 1.0 - 1.0 / 200.0
        out = step_nonresonant(A, F, r, r_prime, N, a_prime, ctx, resonance_of(A, N, ctx))

        from kamcocycle.kam_step import solve_homological
        X = solve_homological(A, F, N, GOLDEN, ctx.kappa, G2, G2, a_prime, r_prime)
        P, Q, _ = exp_series_tail(X, r_prime)
        I = TorusMap.identity(2)
        eXm = I + Q
        FN = F.truncate(N)
        F0 = TorusMap.constant(F.coeff((0, 0)), 2)
        R = (FN - F0).scale(a_prime)
        s1 = eXm.mul(F - FN.scale(a_prime))
        s2 = eXm.mul(F.mul(P))
        s3 = Q.mul(F0.scale(a_prime))
        # powers of X for the double sum
        K = 6
        powers = [I]
        for _ in range(K):
            powers.append(powers[-1].mul(X))
        s4 = TorusMap.zero(2)
        for k in range(2, K + 1):
            inner = TorusMap.zero(2)
            for l in range(k):
                inner = inner + powers[l].mul(R).mul(powers[k - 1 - l])
            s4 = s4 + inner.scale(1.0 / math.factorial(k))
        series = s1 + s2 + s3 - eXm.mul(s4)
        diff = (series - out.F_next).weighted_norm(r_prime)
        assert diff <= 1e-10 * F.weighted_norm(r), (trial, diff)


def test_conjugation_identity_finite_difference_oracle():
    # independent grid oracle: approximate the flow derivative of Z by a
    # central difference along omega and compare against (A + F) Z - Z (A' + F')
    # evaluated pointwise, with no Fourier-coefficient algebra involved
    ctx = make_ctx()
    A = rotation_like(0.77)
    F = small_real_map(eps=1e-9, seed=77)
    out = step_nonresonant(A, F, 0.5, 0.33, 5, 1.0 - 1.0 / 200, ctx, resonance_of(A, 5, ctx))
    Z = out.Z_step
    rng = np.random.default_rng(12)
    thetas = rng.uniform(0, 2, size=(50, 2))
    eta = 1e-6
    d_fd = (Z.eval(thetas + eta * GOLDEN) - Z.eval(thetas - eta * GOLDEN)) / (2 * eta)
    lhs = d_fd
    sys_in = TorusMap.constant(A, 2).add(F).eval(thetas)
    sys_out = TorusMap.constant(out.A_next, 2).add(out.F_next).eval(thetas)
    rhs = np.einsum("sab,sbc->sac", sys_in, Z.eval(thetas)) \
        - np.einsum("sab,sbc->sac", Z.eval(thetas), sys_out)
    assert np.abs(lhs - rhs).max() < 1e-8

    # same oracle for the resonance-eliminating rotation
    beta = math.pi * GOLDEN[0]
    Ar = rotation_like(beta)
    Phi, Atilde, _ = eliminate_resonance(Ar, (1, 0), GOLDEN)
    d_fd = (Phi.eval(thetas + eta * GOLDEN) - Phi.eval(thetas - eta * GOLDEN)) \
        / (2 * eta)
    rhs = np.einsum("ab,sbc->sac", Ar.astype(complex), Phi.eval(thetas)) \
        - np.einsum("sab,bc->sac", Phi.eval(thetas), Atilde)
    assert np.abs(d_fd - rhs).max() < 1e-8
