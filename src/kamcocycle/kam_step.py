"""One step of the KAM scheme.

A step conjugates the system A + F (A constant trace-zero, F a small torus
map) to A' + F' with |F'| contracted.  When an eigenvalue of A is too close
to i*pi*<m, omega> for some 0 < |m| <= N the resonance is first removed by
the double-torus rotation Phi built from the spectral projectors of A; the
remaining correction solves the linearized equation mode by mode and enters
through exp(X).

F' is not taken from a series expansion: it is defined by solving the
conjugation identity

    d_omega Z = (A + F) Z - Z (A' + F')

for F' in the truncated Fourier algebra, which makes the per-step residual
structural (limited only by the exponential's certified tail and support
capping).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arithmetics import ApproxFn, check_nr_alpha, scan_min_weighted_distance
from .errors import KamFailure
from .sl2_algebra import (
    CERT_SLACK,
    BoundViolation,
    DefectiveConstantPart,
    eigen,
    lm_solve,
    shifted_alpha,
    spectral_projectors,
)
from .torus_fourier import TorusMap, exp_series_tail, op_norms, project_traceless

ROUNDING_UNITS = 16.0  # units of 2^-52 in residual_floor; runs so far use a third of one


class MultipleResonances(KamFailure):
    """Two distinct resonance violators tied; the (kappa, G, g) inputs are
    inconsistent, since a valid configuration admits at most one."""


@dataclass
class StepOutput:
    A_next: np.ndarray
    F_next: TorusMap
    Z_step: TorusMap
    residual_norm: float
    residual_floor: float
    contraction_observed: float
    alpha_next: complex


def conjugation_residual(A, F: TorusMap, Z: TorusMap, A_next, F_next: TorusMap,
                         omega, r: float) -> float:
    """|d_omega Z - (A + F) Z + Z (A_next + F_next)|_r of the stored
    coefficients, the step oracle."""
    d = Z.d
    lhs = Z.dir_derivative(omega)
    sys_in = TorusMap.constant(np.asarray(A, dtype=complex), d).add(F)
    sys_out = TorusMap.constant(np.asarray(A_next, dtype=complex), d).add(F_next)
    resid = lhs - sys_in.mul(Z) + Z.mul(sys_out)
    return resid.weighted_norm(r)


def residual_floor(A, F: TorusMap, Z: TorusMap, A_next, F_next: TorusMap, r: float,
                   f_norm: float, f_next_norm: float) -> float:
    """The float floor of conjugation_residual at strip r, where f_norm and
    f_next_norm bound |F|_r and |F'|_r.

    With W = Z - I the residual is d_omega W - (A W - W A') - F - F W + F'
    + W F' + (A' - A), each term rounded at a few units u = 2^-52 of its
    size: u ((1 + |A| + |A'| + |F| + |F'|) |W|_r + |F| + |F'|).  Its constant
    block adds the small pieces F^(0), F'^(0) and A W^(0) to matrices of size
    |A|, and A' = A + a' F^(0) is such a sum too; each of those rounds by at
    most u |A| or by the piece itself, whichever is less.  The floor is
    ROUNDING_UNITS times the sum of both parts.  It does not shrink with
    |F| near a resonance, where |W| is large, nor on a resonant step, where
    Z = Phi exp(X) has no constant block and W^(0) = -I.
    """
    blocks = np.stack([A, A_next, F.constant_block(), F_next.constant_block(),
                       Z.constant_block() - np.eye(2)])
    a, a_next, f0, f0_next, w0 = op_norms(blocks.astype(complex))
    a_norm = a + a_next
    w_norm = Z.wave_norm(r) + w0
    products = (1.0 + a_norm + f_norm + f_next_norm) * w_norm + f_norm + f_next_norm
    pieces = f0 + f0_next + a_norm * w0
    return ROUNDING_UNITS * (2.0 ** -52 * products + min(2.0 ** -52 * a_norm, pieces))


def closeness_radius(kappa: float, G: ApproxFn, N: int) -> float:
    """kappa / (4 G(N)): how close to i pi <m, omega> a resonance at order N
    puts alpha, and how close it leaves the shifted eigenvalue."""
    return kappa / (4.0 * float(G.value(N)))


def find_resonance(alpha: complex, omega, kappa: float, G: ApproxFn, g: ApproxFn,
                   N: int) -> tuple | None:
    """The (unique) resonance m of alpha among 0 < |m| <= N, or None.

    alpha is resonant at m when |alpha - i pi <m, omega>| < kappa/(4 G(N) g(|m|)).
    When a resonance is found the shifted value alpha - i pi <m, omega> is
    verified to be non-resonant at the stronger level kappa / G(N).
    """
    omega = np.asarray(omega, dtype=float)
    alpha = complex(alpha)
    _, _, violators = scan_min_weighted_distance(
        omega, N, g.value, target=alpha.imag, scale=math.pi, re_off=alpha.real,
        thr=closeness_radius(kappa, G, N))
    if not violators:
        return None
    s0, m0 = violators[0]
    if len(violators) > 1:
        s1, m1 = violators[1]
        if m1 != m0 and s1 - s0 <= 1e-14 * max(1.0, s0):
            raise MultipleResonances(
                f"violators {m0} and {m1} tie at score {s0:.3e}")
    check = check_nr_alpha(shifted_alpha(alpha, m0, omega), omega,
                           kappa / float(G.value(N)), g, N)
    if not check.ok:
        raise BoundViolation(
            f"shifted eigenvalue not non-resonant at level kappa/G(N); "
            f"offender {check.m} at {check.value:.3e}")
    return m0


def eliminate_resonance(A, m, omega):
    """Remove the resonance at m from the constant part A.

    Returns (Phi, Atilde, Phi_inv) with Phi supported on the half lattice at
    +-m/2 and Atilde = (alpha_t / alpha) A where alpha_t = alpha - i pi <m, omega>.
    The exchange relation d_omega Phi = A Phi - Phi Atilde holds exactly in
    Fourier coefficients because the projector identities are algebraic.
    """
    A = np.asarray(A, dtype=float)
    omega = np.asarray(omega, dtype=float)
    m = np.asarray(m, dtype=np.int64)
    if not m.any():
        raise ValueError("resonance index m must be nonzero")
    ed = eigen(A)
    if ed.defective:
        raise DefectiveConstantPart(
            "constant part is near-nilpotent; treat as non-resonant with alpha = 0")
    alpha = ed.alpha
    alpha_t = shifted_alpha(alpha, m, omega)
    pi_plus, pi_minus = spectral_projectors(A, alpha)
    d = omega.shape[0]
    real = abs(alpha.real) == 0.0
    Phi = TorusMap.from_modes(d, [(tuple(m), pi_plus), (tuple(-m), pi_minus)],
                              reality=real)
    Phi_inv = TorusMap.from_modes(d, [(tuple(m), pi_minus), (tuple(-m), pi_plus)],
                                  reality=real)
    Atilde = (alpha_t / alpha) * A.astype(complex)
    return Phi, Atilde, Phi_inv


def solve_homological(Atilde, F: TorusMap, N: int, omega, kappa: float,
                      G: ApproxFn, g: ApproxFn, a_prime: float, r_prime: float) -> TorusMap:
    """Solve d_omega X = [Atilde, X] + a' F^N - a' F^(0) with X^(0) = 0.

    Mode by mode X^(m) = L_m^{-1}(a' F^(m)) for 0 < |m| <= N.  The certified
    size bound |X|_{r'} <= 4 a' G(N) g(N) |F^N|_{r'} / kappa is asserted:
    BoundViolation when it fails.
    """
    omega = np.asarray(omega, dtype=float)
    if F.lattice != "integer":
        raise ValueError("the homological equation lives on the integer lattice")
    B = np.asarray(Atilde, dtype=complex)
    FN = F.truncate(N)
    nonzero = FN.half_k.any(axis=1)
    hk = FN.half_k[nonzero]
    X = TorusMap(F.d, hk, lm_solve(hk // 2, omega, B, a_prime * FN.coeffs[nonzero]),
                 reality=F.reality and not B.imag.any())
    x_norm = X.weighted_norm(r_prime)
    bound = 4.0 * a_prime * float(G.value(N)) * float(g.value(N)) \
        * FN.weighted_norm(r_prime) / kappa
    if x_norm > bound * CERT_SLACK:
        raise BoundViolation(
            f"|X|_r' = {x_norm:.3e} exceeds 4 a' G(N) g(N) |F^N|_r'/kappa = {bound:.3e}")
    return X


def _realify(M: np.ndarray, what: str) -> np.ndarray:
    M = np.asarray(M)
    scale = 1.0 + float(np.abs(M).max())
    defect = float(np.abs(M.imag).max()) if np.iscomplexobj(M) else 0.0
    if defect > 1e-9 * scale:
        raise KamFailure(
            f"{what} has imaginary residue {defect:.3e}; the reduction left sl(2,R)")
    return np.ascontiguousarray(M.real, dtype=float)


def _conjugate(A, F: TorusMap, N: int, a_prime: float, r_prime: float,
               schedule, omega):
    """Conjugate A + F by Z = exp(X), the core of both steps.

    X solves the homological equation at a' (its size bound asserted),
    A' = A + a' F^(0), and F' is defined by the conjugation identity.
    Returns (A', F', Z).
    """
    X = solve_homological(A, F, N, omega, schedule.kappa, schedule.G, schedule.g,
                          a_prime, r_prime)
    P, Q, _ = exp_series_tail(X, r_prime)

    F0 = F.constant_block()
    A_next = project_traceless(_realify(A + a_prime * F0, "A'"))
    d = F.d
    cA = TorusMap.constant(A, d)
    # F' solves d_omega e^X = (A + F) e^X - e^X (A' + F').  Expanding
    # e^{+-X} = I + P (resp. I + Q) keeps every assembled term of size
    # O(|F|) or O(|X|); the leading A-size pieces cancel inside the bracket
    # A P - d_omega P + Q A through the homological equation, so the result
    # stays accurate relative to |F| at any scale.  The products skip the
    # pairs that cannot matter at r' (TorusMap.mul).
    dP = P.dir_derivative(omega)
    cAP = cA.mul(P, r_prime)
    FP = F.mul(P, r_prime)
    bracket = cAP - dP + Q.mul(cA, r_prime)
    F_next = (F - TorusMap.constant(a_prime * F0, d)) + bracket \
        + FP + Q.mul(F, r_prime) + Q.mul(cAP.add(FP), r_prime) - Q.mul(dP, r_prime)
    F_next = F_next.trace_projected()
    if F.reality:
        F_next = F_next.realified()
    F_next = F_next.cap_support(r_prime)
    Z = TorusMap.identity(d).add(P).cap_support(r_prime)
    return A_next, F_next, Z


def _measured(A, F: TorusMap, eps: float, r_prime: float, omega, A_next,
              F_next: TorusMap, Z_step: TorusMap) -> StepOutput:
    """The step's output with what is checked of it: the conjugation
    residual at r', its float floor, and the contraction |F'|_{r'} / eps,
    where eps = |F|_r."""
    residual = conjugation_residual(A, F, Z_step, A_next, F_next, omega, r_prime)
    f_next_norm = F_next.weighted_norm(r_prime)
    return StepOutput(
        A_next=A_next, F_next=F_next, Z_step=Z_step, residual_norm=residual,
        residual_floor=residual_floor(A, F, Z_step, A_next, F_next, r_prime, eps,
                                      f_next_norm),
        contraction_observed=f_next_norm / eps if eps > 0 else 0.0,
        alpha_next=eigen(A_next).alpha)


def step_nonresonant(A, F: TorusMap, r: float, r_prime: float, N: int, schedule,
                     omega) -> StepOutput:
    """Non-resonant step of the run's KamSchedule at order N, from strip r
    to r': A' = A + a' F^(0) with a' = schedule.a, Z = exp(X).

    The measured contraction is asserted against sqrt(1 - a') when the
    lemma's hypotheses hold: 2 G(N) g(N) eps <= kappa (1-a')/2 and the
    truncation gap e^{-2 pi N (r - r')} <= 1 - a'.

    The driver's r' (kam_driver.strip_after) spends c0 |log(1-a)| / (2 pi N),
    so e^{-2 pi N (r - r')} = (1-a)^{c0}, which exceeds 1 - a for every
    c0 < 1: the gap fails on every such step of a run, and the contraction
    assertion never fires there.
    """
    A = np.asarray(A, dtype=float)
    eps = F.weighted_norm(r)
    a_prime = schedule.a
    gg = float(schedule.G.value(N)) * float(schedule.g.value(N))
    armed = (2.0 * gg * eps <= schedule.kappa * (1.0 - a_prime) / 2.0
             and math.exp(-2.0 * math.pi * N * (r - r_prime)) <= 1.0 - a_prime)

    A_next, F_next, Z_step = _conjugate(A, F, N, a_prime, r_prime, schedule, omega)
    out = _measured(A, F, eps, r_prime, omega, A_next, F_next, Z_step)
    limit = math.sqrt(1.0 - a_prime)
    if armed and eps > 0 and out.contraction_observed > limit * CERT_SLACK:
        raise BoundViolation(
            f"contraction {out.contraction_observed:.3e} exceeds sqrt(1-a') = {limit:.3e}")
    return out


def step_resonant(A, F: TorusMap, r: float, r_prime: float, N: int, schedule,
                  omega, m) -> StepOutput:
    """Resonant step of the run's KamSchedule at order N, from strip r to r':
    eliminate the resonance at m with Phi, then conjugate the rotated system
    Atilde + F_t by exp(X) at a' = 1; Z = Phi exp(X).

    m is find_resonance's resonance of eigen(A).alpha at order N.  The
    driver checks the closeness of the shifted eigenvalue
    (kam_driver.item2_holds) before the step.

    The measured contraction is asserted against (1 - a) when the lemma's
    smallness hypotheses hold: 2 (G g)(N)^2 eps <= (1-a)^2 kappa^2 / 2,
    e C' (G g)(N+1)^{-c0} <= 1 - a and r > 2 log (G g)(N) / (pi N).
    """
    A = np.asarray(A, dtype=float)
    eps = F.weighted_norm(r)
    a = schedule.a
    gg_N = float(schedule.G.value(N)) * float(schedule.g.value(N))
    gg_N1 = float(schedule.G.value(N + 1)) * float(schedule.g.value(N + 1))
    armed = (2.0 * gg_N ** 2 * eps <= 0.5 * (1.0 - a) ** 2 * schedule.kappa ** 2
             and math.e * schedule.C_prime * gg_N1 ** (-schedule.c0) <= 1.0 - a
             and r > 2.0 * math.log(gg_N) / (math.pi * N))

    Phi, Atilde_c, Phi_inv = eliminate_resonance(A, m, omega)
    Atilde = project_traceless(_realify(Atilde_c, "Atilde"))
    F_t = Phi_inv.mul(F).mul(Phi)
    if F_t.lattice != "integer":
        raise KamFailure("conjugated perturbation left the integer lattice")
    if F.reality:
        F_t = F_t.realified()
    A_next, F_next, Z_x = _conjugate(Atilde, F_t, N, 1.0, r_prime, schedule, omega)
    out = _measured(A, F, eps, r_prime, omega, A_next, F_next,
                    Phi.mul(Z_x).cap_support(r_prime))
    if armed and eps > 0 and out.contraction_observed > (1.0 - a) * CERT_SLACK:
        raise BoundViolation(
            f"resonant contraction {out.contraction_observed:.3e} exceeds 1-a = {1.0 - a:.3e}")
    return out
