"""Trace-zero 2x2 matrices: eigen-data and the mode operator L_m.

For a constant trace-zero matrix B and an integer frequency m, the operator

    L_m : M -> 2*i*pi*<m, omega> M - [B, M]

acts on trace-zero matrices with spectrum {2*i*pi*<m,omega>,
2*i*pi*<m,omega> +- 2*alpha} where +-alpha are the eigenvalues of B.
Inversion is done in the eigenbasis of ad(B) whenever B is diagonalizable
and falls back to a dense 4-dimensional entrywise solve otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import KamFailure
from .torus_fourier import op_norm_2x2, project_traceless


class SingularOperator(KamFailure):
    """A spectrum element of L_m is numerically zero."""


class BoundViolation(KamFailure):
    """A certified inequality failed on inputs that were supposed to satisfy it."""


class DefectiveConstantPart(KamFailure):
    """The constant part is (near-)nilpotent and cannot be diagonalized."""


SPECTRUM_FLOOR = 1e-300
CERT_SLACK = 1.0 + 1e-9  # relative rounding allowance of every certified inequality
# |alpha| below DEFECT_TOL (1 + ||A||) flags A as defective; a constant part
# with ||A|| below it is treated as zero by the mode solve
DEFECT_TOL = 1e-12


def check_sl2(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if abs(A[0, 0] + A[1, 1]) >= 1e-12 * (1.0 + op_norm_2x2(A)):
        raise ValueError(f"matrix is not trace-free: trace={A[0, 0] + A[1, 1]:.3e}")
    return A


def sqrt_branch(z: complex) -> complex:
    """Square root with Re >= 0, and Im >= 0 on the imaginary axis."""
    w = np.sqrt(complex(z))
    if w.real < 0 or (w.real == 0 and w.imag < 0):
        w = -w
    return w


def alpha_of(A) -> complex:
    """Eigenvalue +alpha of a trace-zero matrix, alpha = sqrt(-det A)."""
    A = np.asarray(A, dtype=complex)
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    return sqrt_branch(-det)


@dataclass(frozen=True)
class EigenData:
    alpha: complex
    P: np.ndarray
    P_inv: np.ndarray
    defective: bool


def eigen(A) -> EigenData:
    """Eigen-decomposition A = P diag(alpha, -alpha) P^{-1}, ||P|| = 1.

    The defective flag is raised when |alpha| < DEFECT_TOL * (1 + ||A||);
    in that case P is the identity and the caller must not diagonalize.
    """
    A = np.asarray(A, dtype=complex)
    alpha = alpha_of(A)
    norm_a = op_norm_2x2(A)
    if abs(alpha) < DEFECT_TOL * (1.0 + norm_a):
        return EigenData(alpha=alpha, P=np.eye(2, dtype=complex),
                         P_inv=np.eye(2, dtype=complex), defective=True)
    a, b = A[0, 0], A[0, 1]
    c = A[1, 0]
    # eigenvector for +alpha: (A - alpha I) v = 0; two closed forms, pick the
    # better conditioned one (deterministic).
    v1a = np.array([b, alpha - a])
    v1b = np.array([alpha + a, c])
    v1 = v1a if np.abs(v1a).sum() >= np.abs(v1b).sum() else v1b
    v2a = np.array([b, -alpha - a])
    v2b = np.array([-alpha + a, c])
    v2 = v2a if np.abs(v2a).sum() >= np.abs(v2b).sum() else v2b
    v1 = v1 / np.linalg.norm(v1)
    v2 = v2 / np.linalg.norm(v2)
    P = np.column_stack([v1, v2])
    detP = P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]
    if abs(detP) < 1e-14:
        return EigenData(alpha=alpha, P=np.eye(2, dtype=complex),
                         P_inv=np.eye(2, dtype=complex), defective=True)
    P = P / op_norm_2x2(P)
    detP = P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]
    P_inv = np.array([[P[1, 1], -P[0, 1]], [-P[1, 0], P[0, 0]]]) / detP
    return EigenData(alpha=alpha, P=P, P_inv=P_inv, defective=False)


def resonance_shift(m, omega) -> float:
    """pi <m, omega>: the resonance rotation at m moves alpha by -i times this."""
    return math.pi * float(np.dot(m, omega))


def shifted_alpha(alpha: complex, m, omega) -> complex:
    """alpha - i pi <m, omega>, the eigenvalue after the resonance rotation at m."""
    return alpha - 1j * resonance_shift(m, omega)


def lm_spectrum(m, omega, alpha: complex):
    """The spectrum (d_m, d_m - 2 alpha, d_m + 2 alpha) of L_m, d_m = 2 i pi <m, omega>.

    m is one mode (d,) or a stack of modes (n, d); each element then has
    the matching shape, a scalar or an (n,) array.  Each <m, omega> is a
    one-mode dot product (vecdot; a matrix-vector product rounds
    differently), so a mode's solution does not depend on its batch.
    """
    dm = 2j * math.pi * np.vecdot(np.asarray(m, dtype=float), np.asarray(omega, dtype=float))
    return dm, dm - 2.0 * alpha, dm + 2.0 * alpha


def lm_dense_solve(m, omega, Atilde, rhs) -> np.ndarray:
    """Entrywise 4x4 linear solves of 2*i*pi*<m,omega> M - [B, M] = rhs.

    m is one mode (d,) with one 2x2 rhs, or a stack of modes (n, d) with the
    (n, 2, 2) stack of right-hand sides; the solutions have the shape of
    rhs.  d_m is lm_spectrum's, so a mode's solution does not depend on its
    batch.
    """
    B = np.asarray(Atilde, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    dm = np.reshape(lm_spectrum(m, omega, 0.0)[0], (-1, 1, 1))
    I2 = np.eye(2, dtype=complex)
    L = dm * np.eye(4) - (np.kron(B, I2) - np.kron(I2, B.T))
    try:
        sol = np.linalg.solve(L, rhs.reshape(-1, 4, 1))
    except np.linalg.LinAlgError as exc:
        raise SingularOperator(str(exc)) from exc
    return project_traceless(sol.reshape(rhs.shape))


def lm_solve(ms, omega, Atilde, rhs) -> np.ndarray:
    """Solve 2*i*pi*<m,omega> M - [Atilde, M] = rhs for trace-zero M, per mode.

    ms is an (n, d) stack of modes and rhs the (n, 2, 2) stack of right-hand
    sides; the (n, 2, 2) solutions are returned.  One eigendecomposition of
    Atilde serves the whole stack; a defective Atilde is solved by the dense
    entrywise systems.  Raises SingularOperator naming the first mode with a
    spectrum element that is numerically zero.
    """
    B = np.asarray(Atilde, dtype=complex)
    omega = np.asarray(omega, dtype=float)
    ms = np.asarray(ms).reshape(-1, omega.size)
    rhs = np.asarray(rhs, dtype=complex).reshape(-1, 2, 2)
    ed = eigen(B)
    spectrum = lm_spectrum(ms, omega, ed.alpha)
    singular = np.flatnonzero(np.abs(spectrum).min(axis=0) < SPECTRUM_FLOOR)
    if singular.size:
        raise SingularOperator(f"spectrum element below {SPECTRUM_FLOOR:g} "
                               f"for m={tuple(ms[singular[0]].tolist())}")
    dm, dm_minus, dm_plus = spectrum
    if op_norm_2x2(B) < DEFECT_TOL:
        return project_traceless(rhs / dm[:, None, None])
    if ed.defective:
        return lm_dense_solve(ms, omega, B, rhs)
    R = ed.P_inv @ rhs @ ed.P
    Mp = np.empty_like(R)
    Mp[:, 0, 0] = (R[:, 0, 0] - R[:, 1, 1]) / (2.0 * dm)
    Mp[:, 1, 1] = -Mp[:, 0, 0]
    Mp[:, 0, 1] = R[:, 0, 1] / dm_minus
    Mp[:, 1, 0] = R[:, 1, 0] / dm_plus
    return project_traceless(ed.P @ Mp @ ed.P_inv)


def lm_inverse(m, omega, Atilde, rhs) -> np.ndarray:
    """Solve 2*i*pi*<m,omega> M - [Atilde, M] = rhs for one mode m: lm_solve
    on a batch of one."""
    return lm_solve(m, omega, Atilde, rhs)[0]


def operator_bound_check(m, omega, Atilde, kappa: float, G, g, N: int) -> float:
    """Measured ||L_m^{-1}|| against the certified bound 4 G(N) g(|m|) / kappa.

    The measured value is the largest reciprocal modulus over the three
    spectrum elements.  Raises BoundViolation when it exceeds the bound,
    which signals inconsistent arithmetic-condition inputs.
    """
    B = np.asarray(Atilde, dtype=complex)
    alpha = alpha_of(B)
    spectrum = lm_spectrum(m, omega, alpha)
    if min(abs(s) for s in spectrum) < SPECTRUM_FLOOR:
        raise SingularOperator("singular mode operator")
    measured = max(1.0 / abs(s) for s in spectrum)
    mod = float(np.abs(np.asarray(m)).sum())
    bound = 4.0 * float(G.value(N)) * float(g.value(mod)) / kappa
    if measured > bound * CERT_SLACK:
        raise BoundViolation(
            f"||L_m^-1|| = {measured:.6e} exceeds 4 G(N) g(|m|)/kappa = {bound:.6e}")
    return measured
