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
from dataclasses import dataclass, field

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
)
from .torus_fourier import TorusMap, exp_series_tail, project_traceless


class MultipleResonances(KamFailure):
    """Two distinct resonance violators tied; the (kappa, G, g) inputs are
    inconsistent, since a valid configuration admits at most one."""


class PreconditionFailure(KamFailure):
    def __init__(self, failed: list[str], details: dict):
        self.failed = failed
        self.details = details
        super().__init__("violated preconditions: " + ", ".join(failed))


@dataclass(frozen=True)
class ResonanceReport:
    m: tuple | None
    alpha_shifted: complex
    margin: float  # min over the scan of |alpha - i pi <m,omega>| * g(|m|)


@dataclass
class StepContext:
    """Arithmetic data shared by every step of a run."""

    omega: np.ndarray
    kappa: float
    G: ApproxFn
    g: ApproxFn
    C_prime: float = 10.0

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float)


@dataclass
class StepOutput:
    A_next: np.ndarray
    F_next: TorusMap
    Z_step: TorusMap
    r_next: float
    resonant: bool
    m: tuple | None
    residual_norm: float
    contraction_observed: float
    alpha_next: complex
    x_norm: float
    preconditions: dict = field(default_factory=dict)


def conjugation_residual(A, F: TorusMap, Z: TorusMap, A_next, F_next: TorusMap,
                         omega, r: float) -> float:
    """|d_omega Z - (A + F) Z + Z (A_next + F_next)|_r, the step oracle."""
    d = Z.d
    lhs = Z.dir_derivative(omega)
    sys_in = TorusMap.constant(np.asarray(A, dtype=complex), d).add(F)
    sys_out = TorusMap.constant(np.asarray(A_next, dtype=complex), d).add(F_next)
    resid = lhs - sys_in.mul(Z) + Z.mul(sys_out)
    return resid.weighted_norm(r)


def find_resonance(alpha: complex, omega, kappa: float, G: ApproxFn, g: ApproxFn,
                   N: int) -> ResonanceReport:
    """Locate the (unique) resonance of alpha among 0 < |m| <= N, if any.

    alpha is resonant at m when |alpha - i pi <m, omega>| < kappa/(4 G(N) g(|m|)).
    When a resonance is found the shifted value alpha - i pi <m, omega> is
    verified to be non-resonant at the stronger level kappa / G(N).
    """
    omega = np.asarray(omega, dtype=float)
    alpha = complex(alpha)
    kappa_eff = kappa / (4.0 * float(G.value(N)))
    score, best_m, violators = scan_min_weighted_distance(
        omega, N, g.value, target=alpha.imag, scale=math.pi, re_off=alpha.real,
        thr=kappa_eff)
    if not violators:
        return ResonanceReport(m=None, alpha_shifted=alpha, margin=score)
    if len(violators) > 1:
        s0, m0 = violators[0]
        s1, m1 = violators[1]
        if m1 != m0 and s1 - s0 <= 1e-14 * max(1.0, s0):
            raise MultipleResonances(
                f"violators {m0} and {m1} tie at score {s0:.3e}")
    s0, m0 = violators[0]
    shifted = shifted_alpha(alpha, m0, omega)
    check = check_nr_alpha(shifted, omega, kappa / float(G.value(N)), g, N)
    if not check.ok:
        raise BoundViolation(
            f"shifted eigenvalue not non-resonant at level kappa/G(N); "
            f"offender {check.m} at {check.value:.3e}")
    return ResonanceReport(m=m0, alpha_shifted=shifted, margin=s0)


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
    ratio = A.astype(complex) / alpha
    pi_plus = 0.5 * (np.eye(2, dtype=complex) + ratio)
    pi_minus = 0.5 * (np.eye(2, dtype=complex) - ratio)
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
               ctx: StepContext):
    """Conjugate A + F by Z = exp(X), the core of both steps.

    X solves the homological equation at a' (its size bound asserted),
    A' = A + a' F^(0), and F' is defined by the conjugation identity.
    Returns (A', F', Z, |X|_{r'}).
    """
    X = solve_homological(A, F, N, ctx.omega, ctx.kappa, ctx.G, ctx.g, a_prime, r_prime)
    P, Q, _ = exp_series_tail(X, r_prime)

    F0 = F.coeff(np.zeros(F.d, dtype=np.int64))
    A_next = project_traceless(_realify(A + a_prime * F0, "A'"))
    d = F.d
    cA = TorusMap.constant(A, d)
    # F' solves d_omega e^X = (A + F) e^X - e^X (A' + F').  Expanding
    # e^{+-X} = I + P (resp. I + Q) keeps every assembled term of size
    # O(|F|) or O(|X|); the leading A-size pieces cancel inside the bracket
    # A P - d_omega P + Q A through the homological equation, so the result
    # stays accurate relative to |F| at any scale.
    dP = P.dir_derivative(ctx.omega)
    cAP = cA.mul(P)
    FP = F.mul(P)
    bracket = cAP - dP + Q.mul(cA)
    F_next = (F - TorusMap.constant(a_prime * F0, d)) + bracket \
        + FP + Q.mul(F) + Q.mul(cAP.add(FP)) - Q.mul(dP)
    F_next = F_next.trace_projected()
    if F.reality:
        F_next = F_next.realified()
    F_next = F_next.cap_support(r_prime)
    Z = TorusMap.identity(d).add(P).cap_support(r_prime)
    return A_next, F_next, Z, X.weighted_norm(r_prime)


def step_nonresonant(A, F: TorusMap, r: float, r_prime: float, N: int,
                     a_prime: float, ctx: StepContext,
                     resonance: ResonanceReport) -> StepOutput:
    """Non-resonant step: A' = A + a' F^(0), Z = exp(X).

    resonance is find_resonance's report for eigen(A).alpha at order N; a
    report with a resonance is a PreconditionFailure.

    Preconditions (petitesse3) 2 G(N) g(N) eps <= kappa (1-a')/2 and the
    truncation gap e^{-2 pi N (r - r')} <= 1 - a' are recorded in
    out.preconditions, never raised.  The measured contraction is asserted
    against sqrt(1 - a') whenever every recorded precondition holds and
    a' < 1.

    The driver spends r - r' = c0 |log(1-a)| / (2 pi N) of strip width per
    non-resonant step, so e^{-2 pi N (r - r')} = (1-a)^{c0}, which exceeds
    1 - a for every c0 < 1: N_gap is recorded False on every such step of
    a run, and the contraction assertion never fires there.
    """
    A = np.asarray(A, dtype=float)
    eps = F.weighted_norm(r)
    if not 0.0 < r_prime <= r:
        raise PreconditionFailure(["strip"], {"r": r, "r_prime": r_prime})
    if resonance.m is not None:
        raise PreconditionFailure(
            ["nonresonant"], {"m": resonance.m, "margin": resonance.margin})
    pre = {}
    if a_prime < 1.0:
        gg = float(ctx.G.value(N)) * float(ctx.g.value(N))
        lhs3 = 2.0 * gg * eps
        rhs3 = ctx.kappa * (1.0 - a_prime) / 2.0
        pre["petitesse3"] = (lhs3 <= rhs3, lhs3, rhs3)
        lhs_gap = math.exp(-2.0 * math.pi * N * (r - r_prime))
        pre["N_gap"] = (lhs_gap <= 1.0 - a_prime, lhs_gap, 1.0 - a_prime)
    failed = [k for k, v in pre.items() if not v[0]]

    A_next, F_next, Z_step, x_norm = _conjugate(A, F, N, a_prime, r_prime, ctx)
    residual = conjugation_residual(A, F, Z_step, A_next, F_next, ctx.omega, r_prime)
    contraction = F_next.weighted_norm(r_prime) / eps if eps > 0 else 0.0
    if a_prime < 1.0 and not failed and eps > 0:
        limit = math.sqrt(1.0 - a_prime)
        if contraction > limit * CERT_SLACK:
            raise BoundViolation(
                f"contraction {contraction:.3e} exceeds sqrt(1-a') = {limit:.3e}")
    return StepOutput(
        A_next=A_next, F_next=F_next, Z_step=Z_step, r_next=r_prime,
        resonant=False, m=None, residual_norm=residual,
        contraction_observed=contraction,
        alpha_next=eigen(A_next).alpha, x_norm=x_norm,
        preconditions=pre,
    )


def step_resonant(A, F: TorusMap, r: float, N: int, a: float, c0: float,
                  ctx: StepContext, resonance: ResonanceReport) -> StepOutput:
    """Resonant step: eliminate the resonance with Phi, then conjugate the
    rotated system Atilde + F_t by exp(X) at a' = 1; Z = Phi exp(X).

    resonance is find_resonance's report for eigen(A).alpha at order N; a
    report without a resonance is a PreconditionFailure.

    r' = r/2 - c0 log((G g)(N+1)) / (4 pi N).  The smallness conditions
    (petitesse, petitesse2, strip_width) are recorded in out.preconditions,
    never raised; the measured contraction is asserted against (1 - a)
    when they all hold.
    """
    A = np.asarray(A, dtype=float)
    eps = F.weighted_norm(r)
    if resonance.m is None:
        raise PreconditionFailure(["resonant"], {"margin": resonance.margin})
    m = resonance.m
    gg_N = float(ctx.G.value(N)) * float(ctx.g.value(N))
    gg_N1 = float(ctx.G.value(N + 1)) * float(ctx.g.value(N + 1))
    pre = {}
    lhs_p = 2.0 * gg_N ** 2 * eps
    rhs_p = 0.5 * (1.0 - a) ** 2 * ctx.kappa ** 2
    pre["petitesse"] = (lhs_p <= rhs_p, lhs_p, rhs_p)
    lhs_p2 = math.e * ctx.C_prime * gg_N1 ** (-c0)
    pre["petitesse2"] = (lhs_p2 <= 1.0 - a, lhs_p2, 1.0 - a)
    rhs_r = 2.0 * math.log(gg_N) / (math.pi * N)
    pre["strip_width"] = (r > rhs_r, r, rhs_r)
    failed = [k for k, v in pre.items() if not v[0]]
    r_prime = 0.5 * r - c0 * math.log(gg_N1) / (4.0 * math.pi * N)
    if r_prime <= 0:
        raise PreconditionFailure(["positive_strip"], {"r_prime": r_prime})

    Phi, Atilde_c, Phi_inv = eliminate_resonance(A, m, ctx.omega)
    alpha_t = resonance.alpha_shifted
    if abs(alpha_t) >= ctx.kappa / (4.0 * float(ctx.G.value(N))) * CERT_SLACK:
        raise BoundViolation("shifted eigenvalue escaped the kappa/(4G(N)) disc")
    Atilde = project_traceless(_realify(Atilde_c, "Atilde"))
    F_t = Phi_inv.mul(F).mul(Phi)
    if F_t.lattice != "integer":
        raise KamFailure("conjugated perturbation left the integer lattice")
    if F.reality:
        F_t = F_t.realified()
    A_next, F_next, Z_x, x_norm = _conjugate(Atilde, F_t, N, 1.0, r_prime, ctx)
    Z_step = Phi.mul(Z_x).cap_support(r_prime)

    residual = conjugation_residual(A, F, Z_step, A_next, F_next, ctx.omega, r_prime)
    contraction = F_next.weighted_norm(r_prime) / eps if eps > 0 else 0.0
    if not failed and eps > 0 and contraction > (1.0 - a) * CERT_SLACK:
        raise BoundViolation(
            f"resonant contraction {contraction:.3e} exceeds 1-a = {1.0 - a:.3e}")
    return StepOutput(
        A_next=A_next, F_next=F_next, Z_step=Z_step, r_next=r_prime,
        resonant=True, m=m, residual_norm=residual,
        contraction_observed=contraction,
        alpha_next=eigen(A_next).alpha, x_norm=x_norm,
        preconditions=pre,
    )
