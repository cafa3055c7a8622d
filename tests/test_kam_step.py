import dataclasses
import math

import numpy as np
import pytest
from oracles import is_real, max_imag_on_grid

from kamcocycle import kam_step, sl2_algebra
from kamcocycle.arithmetics import PowerFn, check_nr_alpha, l1_ball
from kamcocycle.kam_driver import KamSchedule, strip_after
from kamcocycle.kam_step import (
    MultipleResonances,
    conjugation_residual,
    eliminate_resonance,
    find_resonance,
    residual_floor,
    solve_homological,
    step_nonresonant,
    step_resonant,
)
from kamcocycle.sl2_algebra import BoundViolation, DefectiveConstantPart, eigen, shifted_alpha
from kamcocycle.torus_fourier import TorusMap

GOLDEN = np.array([1.0, 0.5 * (1.0 + np.sqrt(5.0))])
G2 = PowerFn(2.0)


def schedule_of(a):
    # the KamSchedule fields a step reads; c0 only enters the resonant step's
    # petitesse2, since the driver hands each step its strip r'
    return KamSchedule(kappa=1.0, G=G2, g=G2, r0=1.0, n0=0, a=a, c0=2.0, eps0=1.0)


def resonance_of(A, N):
    # the resonance the driver hands a resonant step: the scan of A's
    # eigenvalue at N
    return find_resonance(eigen(A).alpha, GOLDEN, 1.0, G2, G2, N)


def nonresonant_step(A, F, r, r_prime, N, a=1.0 - 1.0 / 200):
    return step_nonresonant(A, F, r, r_prime, N, schedule_of(a), GOLDEN)


def resonant_step(A, F, r=1.0, N=2):
    # a resonant step as run makes it, from strip r to the driver's r'
    sched = schedule_of(1.0 - 1.0 / 196)
    return step_resonant(A, F, r, strip_after(sched, r, N, True), N, sched, GOLDEN,
                         resonance_of(A, N))


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
    m = find_resonance(alpha, GOLDEN, 1.0, G2, G2, N=2)
    assert m == m0
    assert abs(shifted_alpha(alpha, m, GOLDEN)) < 1e-14


def test_find_resonance_real_alpha_far():
    # the distance to the imaginary axis is at least Re alpha = 0.5
    assert find_resonance(0.5 + 0.0j, GOLDEN, 1.0, G2, G2, N=10) is None


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
        m = find_resonance(alpha, GOLDEN, kappa, G2, G2, N)
        if len(violators) == 0:
            assert m is None
        else:
            assert m == tuple(violators[0])
            shifted_ok = check_nr_alpha(shifted_alpha(alpha, m, GOLDEN), GOLDEN,
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
    assert Phi.reality and is_real(Phi)
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
    A = rotation_like(0.77)
    F = TorusMap.zero(2)
    out = nonresonant_step(A, F, 0.5, 0.4, 3, 1.0 - 1.0 / 196)
    np.testing.assert_allclose(out.A_next, A)
    assert out.F_next.n_modes == 0
    assert out.Z_step.n_modes == 1
    assert out.residual_norm < 1e-14
    assert out.contraction_observed == 0.0


def test_step_nonresonant_constant_perturbation():
    A = rotation_like(0.77)
    eps = 1e-9
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    F = TorusMap.constant(eps * M, 2)
    a_prime = 1.0 - 1.0 / 200.0
    out = nonresonant_step(A, F, 0.5, 0.3, 5, a_prime)
    np.testing.assert_allclose(out.A_next, A + a_prime * eps * M, rtol=1e-12)
    np.testing.assert_allclose(out.F_next.coeff((0, 0)), (1 - a_prime) * eps * M,
                               rtol=1e-10)
    assert out.contraction_observed == pytest.approx(1 - a_prime, rel=1e-9)
    # a constant F leaves nothing for X to solve
    assert solve_homological(A, F, 5, GOLDEN, 1.0, G2, G2, a_prime, 0.3).n_modes == 0


def test_step_nonresonant_contraction_and_residual():
    A = rotation_like(0.77)
    F = small_real_map(eps=1e-9, seed=5)
    a_prime = 1.0 - 1.0 / 200.0
    r, r_prime, N = 0.5, 0.33, 5
    # both preconditions hold: 2 G g eps <= kappa (1-a')/2 and the gap
    assert 2 * G2.value(N) * G2.value(N) * F.weighted_norm(r) <= (1 - a_prime) / 2
    assert math.exp(-2 * math.pi * N * (r - r_prime)) <= 1 - a_prime
    out = nonresonant_step(A, F, r, r_prime, N, a_prime)
    assert out.contraction_observed <= math.sqrt(1 - a_prime)
    assert out.residual_norm <= 1e-10 * (1 + F.weighted_norm(r))
    assert is_real(out.Z_step)
    assert is_real(out.F_next)


@pytest.mark.parametrize("eps", [1e-9, 1e-40])
def test_residual_floor_leaves_a_lost_P_outside(eps):
    # the floor is the step's own rounding, not a share of |A|: a Z that lost
    # its P leaves a residual of about |F|, far above the floor at any |F|
    A = rotation_like(0.77)
    F = small_real_map(eps=eps, seed=5)
    r, r_prime, N = 0.5, 0.33, 5
    out = nonresonant_step(A, F, r, r_prime, N)
    assert out.residual_norm <= out.residual_floor
    identity = TorusMap.identity(2)
    lost = conjugation_residual(A, F, identity, out.A_next, out.F_next, GOLDEN, r_prime)
    f_norm = F.weighted_norm(r_prime)
    floor = residual_floor(A, F, identity, out.A_next, out.F_next, r_prime, f_norm,
                           out.F_next.weighted_norm(r_prime))
    assert lost > 0.5 * f_norm and floor < 1e-9 * f_norm


def test_step_nonresonant_decomposes_once(monkeypatch):
    # the mode solve needs no eigen-data of A; one eigen call gives alpha of A'
    A = rotation_like(0.77)
    F = small_real_map(eps=1e-9, seed=5)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return eigen(*args, **kwargs)

    monkeypatch.setattr(kam_step, "eigen", counted)
    monkeypatch.setattr(sl2_algebra, "eigen", counted)
    step_nonresonant(A, F, 0.5, 0.33, 5, schedule_of(1.0 - 1.0 / 200.0), GOLDEN)
    assert len(calls) == 1


# -- resonant step ------------------------------------------------------------

def test_step_resonant_exact_resonance_no_perturbation():
    beta = math.pi * GOLDEN[0]
    A = rotation_like(beta)
    F = TorusMap.zero(2)
    assert resonance_of(A, 2) == (1, 0)
    out = resonant_step(A, F)
    assert abs(out.alpha_next) < 1e-12
    np.testing.assert_allclose(out.A_next, 0.0, atol=1e-12)
    assert out.F_next.n_modes == 0
    # Z is exactly Phi
    Phi, _, _ = eliminate_resonance(A, (1, 0), GOLDEN)
    assert (out.Z_step - Phi).weighted_norm(0.1) < 1e-13
    assert out.residual_norm < 1e-12


def test_step_resonant_conjugation_lattice_and_residual():
    delta = 1e-3
    beta = math.pi * GOLDEN[0] + delta
    A = rotation_like(beta)
    F = small_real_map(eps=1e-12, seed=11, modes=((2, 0), (0, 2)))
    assert 2 * (G2.value(2) * G2.value(2)) ** 2 * F.weighted_norm(1.0) \
        <= 0.5 * (1.0 / 196) ** 2  # petitesse holds for this instance
    assert resonance_of(A, 2) == (1, 0)
    out = resonant_step(A, F)
    assert out.alpha_next == pytest.approx(1j * delta, abs=1e-6)
    # conjugated perturbation is back on the integer lattice
    assert out.F_next.lattice == "integer"
    assert out.Z_step.lattice == "half"
    assert out.residual_norm <= 1e-10 * (1 + F.weighted_norm(1.0))
    assert out.contraction_observed <= 1.0 - (1.0 - 1.0 / 196)
    # reality and unimodularity of the step conjugation
    assert is_real(out.Z_step)
    assert max_imag_on_grid(out.Z_step, 100) < 1e-11
    rng = np.random.default_rng(8)
    thetas = rng.uniform(0, 2, size=(100, 2))
    vals = out.Z_step.eval(thetas)
    dets = vals[:, 0, 0] * vals[:, 1, 1] - vals[:, 0, 1] * vals[:, 1, 0]
    np.testing.assert_allclose(dets.real, 1.0, atol=1e-10)


def test_conjugation_residual_oracle_detects_tampering():
    A = rotation_like(0.77)
    F = small_real_map(eps=1e-9, seed=21)
    out = nonresonant_step(A, F, 0.5, 0.33, 5)
    good = conjugation_residual(A, F, out.Z_step, out.A_next, out.F_next, GOLDEN, 0.33)
    assert good == pytest.approx(out.residual_norm)
    bad = conjugation_residual(A, F, out.Z_step, out.A_next,
                               out.F_next.scale(2.0), GOLDEN, 0.33)
    assert bad > 1e3 * max(good, 1e-300)


def test_find_resonance_large_order_windowed():
    # resonance far out in the lattice, found through the windowed scan
    m0 = (100, -62)
    gap = float(np.dot(m0, GOLDEN))
    alpha = 1j * math.pi * gap
    m = find_resonance(alpha, GOLDEN, 1.0, G2, G2, N=5000)
    assert m == m0
    assert abs(shifted_alpha(alpha, m, GOLDEN)) < 1e-12
    # and a clean alpha stays clean at the same order
    assert find_resonance(0.5j, GOLDEN, 1.0, G2, G2, N=5000) is None
    # just past the exact ball: alpha on the (1, 0) resonance is reported,
    # a clean alpha is not
    near = find_resonance(1j * (math.pi * GOLDEN[0] + 1e-9), GOLDEN, 1.0, G2, G2, N=14)
    assert near == (1, 0)
    assert find_resonance(0.5j, GOLDEN, 1.0, G2, G2, N=20) is None


def test_step_nonresonant_defective_constant_part():
    # near-nilpotent A: eigen-data is flagged defective, the homological
    # solve takes the same closed form as for any A, and the step still
    # closes the conjugation identity
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    F = small_real_map(eps=1e-9, seed=31)
    out = nonresonant_step(A, F, 0.5, 0.33, 5)
    assert out.residual_norm <= 1e-10 * (1 + F.weighted_norm(0.5))
    assert out.contraction_observed <= math.sqrt(1.0 / 200)
    assert abs(eigen(A).alpha) < 1e-10


def test_phi_norm_within_recorded_bound():
    beta = math.pi * GOLDEN[0] + 1e-3
    A = rotation_like(beta)
    F = small_real_map(eps=1e-12, seed=11, modes=((2, 0), (0, 2)))
    out = resonant_step(A, F)
    # |Phi^{+-1}|_{r'} <= 2 cond(P) e^{pi N r'} with P the eigenbasis of A
    Phi, _, Phi_inv = eliminate_resonance(A, resonance_of(A, 2), GOLDEN)
    cond = np.linalg.cond(np.linalg.eig(A).eigenvectors)
    r_prime = strip_after(schedule_of(1.0 - 1.0 / 196), 1.0, 2, True)
    bound = 2.0 * cond * math.exp(math.pi * 2 * r_prime)
    assert Phi.weighted_norm(r_prime) <= bound * (1 + 1e-12)
    assert Phi_inv.weighted_norm(r_prime) <= bound * (1 + 1e-12)


def test_f_next_matches_series_expansion():
    # independent route: the remainder can also be written as
    #   e^{-X}(F - a' F^N) + e^{-X} F (e^X - I) + a'(e^{-X} - I) F^(0)
    #   - e^{-X} sum_{k>=2} (1/k!) sum_{l<k} X^l (a' F^N - a' F^(0)) X^{k-1-l}
    # which must agree with the identity-based construction up to the
    # exponential tails
    from kamcocycle.torus_fourier import exp_series_tail

    rng = np.random.default_rng(909)
    for trial in range(10):
        beta = rng.uniform(0.4, 2.0)
        A = rotation_like(beta)
        F = small_real_map(eps=10 ** rng.uniform(-11, -9.5), seed=100 + trial,
                           modes=((2, 0), (0, 2), (2, 2)))
        r, r_prime, N = 0.5, 0.33, 5
        a_prime = 1.0 - 1.0 / 200.0
        out = nonresonant_step(A, F, r, r_prime, N, a_prime)

        from kamcocycle.kam_step import solve_homological
        X = solve_homological(A, F, N, GOLDEN, 1.0, G2, G2, a_prime, r_prime)
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
    A = rotation_like(0.77)
    F = small_real_map(eps=1e-9, seed=77)
    out = nonresonant_step(A, F, 0.5, 0.33, 5)
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


# -- the contraction gates ----------------------------------------------------

def _uncontracted(monkeypatch, eps):
    # the conjugation returns an F' with |F'|_{r'} = |F|_r = eps: a step whose
    # contraction is 1, far above either gate's limit
    real = kam_step._conjugate

    def conjugate(*args):
        A_next, _, Z = real(*args)
        return A_next, TorusMap.constant(np.array([[0.0, eps], [eps, 0.0]]), 2), Z

    monkeypatch.setattr(kam_step, "_conjugate", conjugate)


def _gate_ids(fails):
    return f"{fails}-fails" if fails else "armed"


@pytest.mark.parametrize("fails", [None, "petitesse3", "N_gap"], ids=_gate_ids)
def test_nonresonant_contraction_gate(monkeypatch, fails):
    # the gate is armed by 2 G(N) g(N) eps <= kappa (1-a')/2 and
    # e^{-2 pi N (r - r')} <= 1 - a'; with both holding an uncontracted
    # step raises, and with either failing the same step returns
    A = rotation_like(0.77)
    F = small_real_map(eps=1e-9, seed=5)
    a_prime = 1.0 - 1.0 / 200.0
    sched = schedule_of(a_prime)
    r, r_prime, N = 0.5, 0.33, 5
    if fails == "petitesse3":
        sched = dataclasses.replace(sched, kappa=1e-3)
    if fails == "N_gap":
        r_prime = 0.49
    eps = F.weighted_norm(r)
    holds = (2 * G2.value(N) * G2.value(N) * eps <= sched.kappa * (1 - a_prime) / 2,
             math.exp(-2 * math.pi * N * (r - r_prime)) <= 1 - a_prime)
    assert holds == (fails != "petitesse3", fails != "N_gap")
    _uncontracted(monkeypatch, eps)
    if fails is None:
        with pytest.raises(BoundViolation, match=r"contraction .* exceeds sqrt\(1-a'\)"):
            step_nonresonant(A, F, r, r_prime, N, sched, GOLDEN)
    else:
        out = step_nonresonant(A, F, r, r_prime, N, sched, GOLDEN)
        assert out.contraction_observed == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("fails", [None, "petitesse", "petitesse2", "strip_width"],
                         ids=_gate_ids)
def test_resonant_contraction_gate(monkeypatch, fails):
    # the gate is armed by 2 (G g)(N)^2 eps <= (1-a)^2 kappa^2 / 2,
    # e C' (G g)(N+1)^{-c0} <= 1 - a and r > 2 log (G g)(N) / (pi N); with all
    # three holding an uncontracted step raises, with any failing it returns
    A = rotation_like(math.pi * GOLDEN[0] + 1e-3)
    F = small_real_map(eps=1e-12, seed=11, modes=((2, 0), (0, 2)))
    sched = schedule_of(1.0 - 1.0 / 196)
    r, N = 1.0, 2
    if fails == "petitesse":
        sched = dataclasses.replace(sched, kappa=1e-3)
    if fails == "petitesse2":
        sched = dataclasses.replace(sched, C_prime=100.0)
    if fails == "strip_width":
        r = 0.85
    eps, gg, a = F.weighted_norm(r), G2.value(N) ** 2, sched.a
    holds = (2 * gg ** 2 * eps <= 0.5 * (1 - a) ** 2 * sched.kappa ** 2,
             math.e * sched.C_prime * G2.value(N + 1) ** (-2 * sched.c0) <= 1 - a,
             r > 2 * math.log(gg) / (math.pi * N))
    assert holds == (fails != "petitesse", fails != "petitesse2", fails != "strip_width")
    _uncontracted(monkeypatch, eps)
    r_prime, m = strip_after(sched, r, N, True), resonance_of(A, N)
    if fails is None:
        with pytest.raises(BoundViolation, match=r"resonant contraction .* exceeds 1-a"):
            step_resonant(A, F, r, r_prime, N, sched, GOLDEN, m)
    else:
        out = step_resonant(A, F, r, r_prime, N, sched, GOLDEN, m)
        assert out.contraction_observed == pytest.approx(1.0, rel=1e-12)
