import math

import numpy as np
import pytest

from kamcocycle.arithmetics import PowerFn, check_nr_alpha
from kamcocycle.rotation_number import (
    StepTooLarge,
    rho_of_constant,
    rotation_number,
    verify_additivity,
    winding_rate,
)
from kamcocycle.torus_fourier import TorusMap

GOLDEN = np.array([1.0, 0.5 * (1.0 + np.sqrt(5.0))])


def constant_system(M):
    return TorusMap.constant(np.asarray(M, dtype=float), 2)


def test_constant_rotation_recovered():
    rho0 = 0.7
    sys_map = constant_system([[0.0, rho0], [-rho0, 0.0]])
    est = rotation_number(sys_map, GOLDEN, T=200.0, h=0.02)
    assert est.rho == pytest.approx(rho0, abs=est.error_estimate)
    # a constant generator winds exactly: only the step error remains
    assert est.rho == pytest.approx(rho0, abs=1e-9)
    assert est.error_estimate < 0.05


def test_constant_hyperbolic_zero():
    sys_map = constant_system([[0.8, 0.0], [0.0, -0.8]])
    est = rotation_number(sys_map, GOLDEN, T=500.0, h=0.02,
                          phi0=np.array([1.0, 0.4]))
    assert est.rho <= 2.0 * math.pi / 250.0  # argument converges: winding -> 0


def test_schrodinger_constant_rho_sqrt_E():
    E = 2.25
    sys_map = constant_system([[0.0, -E], [1.0, 0.0]])
    est = rotation_number(sys_map, GOLDEN, T=400.0, h=0.01)
    assert est.rho == pytest.approx(math.sqrt(E), abs=5e-3)
    assert rho_of_constant([[0.0, -E], [1.0, 0.0]]) == pytest.approx(math.sqrt(E))


def test_independence_of_initial_data():
    rng = np.random.default_rng(3)
    beta = 1.3
    F = TorusMap.from_modes(
        2,
        [((2, 0), 0.05 * np.array([[0.0, 1.0], [1.0, 0.0]])),
         ((-2, 0), 0.05 * np.array([[0.0, 1.0], [1.0, 0.0]]))],
        reality=True)
    sys_map = constant_system([[0.0, beta], [-beta, 0.0]]).add(F)
    estimates = []
    for _ in range(5):
        theta0 = rng.uniform(0, 2, size=2)
        phi = rng.standard_normal(2)
        est = rotation_number(sys_map, GOLDEN, theta0=theta0, phi0=phi,
                              T=400.0, h=0.02)
        estimates.append(est)
    base = estimates[0]
    for other in estimates[1:]:
        tol = 2.0 * (base.error_estimate + other.error_estimate) + 1e-9
        assert abs(other.rho - base.rho) <= tol


def test_order_four_convergence():
    rho0 = 1.1
    sys_map = constant_system([[0.0, rho0], [-rho0, 0.0]])
    T = 64.0
    hs = [0.2, 0.1, 0.05, 0.025]
    errs = [abs(abs(winding_rate(sys_map, GOLDEN, np.zeros(2),
                                 np.array([1.0, 0.0]), T, h)) - rho0)
            for h in hs]
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert all(3.5 <= r <= 4.5 for r in rates), (errs, rates)


def test_step_rejection_and_too_large():
    # enormous rotation rate: h = 0.5 turns by ~ 25 rad per step; the block
    # integrator must refine, and gives up after 10 halvings only if still
    # too coarse (here refinement succeeds)
    sys_map = constant_system([[0.0, 50.0], [-50.0, 0.0]])
    rate = winding_rate(sys_map, GOLDEN, np.zeros(2), np.array([1.0, 0.0]),
                        T=4.0, h=0.5)
    assert abs(rate) == pytest.approx(50.0, rel=2e-2)
    huge = constant_system([[0.0, 1e6], [-1e6, 0.0]])
    with pytest.raises(StepTooLarge):
        winding_rate(huge, GOLDEN, np.zeros(2), np.array([1.0, 0.0]),
                     T=4.0, h=0.5)


def test_conjugation_shifts_rho_by_half_resonance():
    # winding of the resonance-eliminating conjugation: rho changes by
    # exactly pi <m, omega> when passing to the shifted system
    from kamcocycle.kam_step import eliminate_resonance
    delta = 0.2
    beta = math.pi * GOLDEN[0] + delta
    A = np.array([[0.0, beta], [-beta, 0.0]])
    Phi, Atilde, Phi_inv = eliminate_resonance(A, (1, 0), GOLDEN)
    rho_full = rotation_number(constant_system(A), GOLDEN, T=400.0, h=0.01)
    Atilde_r = np.real(Atilde)
    rho_shift = rho_of_constant(Atilde_r)
    assert rho_full.rho - rho_shift == pytest.approx(
        math.pi * GOLDEN[0], abs=2 * rho_full.error_estimate + 1e-4)


class _FakeRec:
    def __init__(self, m, eps):
        self.m = m
        self.eps_bound = eps


class _FakeTrace:
    def __init__(self, recs):
        self.records = recs


def test_verify_additivity_no_resonance():
    beta = 1.7
    B = [[0.0, beta], [-beta, 0.0]]
    trace = _FakeTrace([_FakeRec((0, 0), 1e-10), _FakeRec((0, 0), 1e-12)])
    est = rotation_number(constant_system(B), GOLDEN, T=400.0, h=0.01)
    rep = verify_additivity(est.rho, B, trace, GOLDEN,
                            tol=2 * est.error_estimate)
    assert rep.ok and rep.matched_sign == 1
    assert rep.rotation_sum == 0.0


def test_verify_additivity_with_offset():
    # one recorded resonance at m0: rho_full = rho(B) + pi <m0, omega>
    m0 = (1, 0)
    delta = 0.15
    B = [[0.0, delta], [-delta, 0.0]]
    rho_full = delta + math.pi * GOLDEN[0]
    trace = _FakeTrace([_FakeRec(m0, 1e-10)])
    rep = verify_additivity(rho_full, B, trace, GOLDEN, tol=1e-8)
    assert rep.ok
    assert rep.rotation_sum == pytest.approx(math.pi * GOLDEN[0])
    # hyperbolic final part contributes zero
    reph = verify_additivity(math.pi * GOLDEN[0], [[0.3, 0.0], [0.0, -0.3]],
                             trace, GOLDEN, tol=1e-8)
    assert reph.ok and reph.rho_constant == 0.0
    # a global orientation flip is tolerated and reported
    repf = verify_additivity(rho_full, B, _FakeTrace([_FakeRec((-1, 0), 1e-10)]),
                             GOLDEN, tol=1e-8)
    assert repf.ok and repf.matched_sign == -1


def test_check_rho_arithmetic():
    g = PowerFn(2.0)
    rho = math.pi * (GOLDEN[0] + GOLDEN[1])
    rep = check_nr_alpha(1j * rho, GOLDEN, 0.1, g, N=6)
    assert not rep.ok and rep.m in [(1, 1)]
    assert check_nr_alpha(11.0j, GOLDEN, 0.05, g, N=4).ok
    oks = [check_nr_alpha(1j * (rho + 0.05), GOLDEN, k, g, N=6).ok
           for k in (1e-4, 0.05, 0.5, 5.0)]
    for earlier, later in zip(oks, oks[1:]):
        assert earlier or not later
