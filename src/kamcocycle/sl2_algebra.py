"""Trace-zero 2x2 matrices: eigen-data, spectral projectors and the mode
operator L_m.

For a constant trace-zero matrix B and an integer frequency m, the operator

    L_m : M -> d_m M - [B, M],   d_m = 2*i*pi*<m, omega>,

has spectrum {d_m, d_m - 2*alpha, d_m + 2*alpha}, +-alpha the eigenvalues of
B.  Cayley-Hamilton (B^2 = alpha^2 I) gives ad(B)^3 = 4 alpha^2 ad(B) for
every trace-zero B, so L_m^{-1} is a polynomial in ad(B):

    L_m^{-1} R = R/d_m + [B, R]/((d_m - 2 alpha)(d_m + 2 alpha))
                 + [B, [B, R]]/(d_m (d_m - 2 alpha)(d_m + 2 alpha)),

one formula for diagonalizable, defective and zero B alike.  When B is
diagonalizable its spectral projectors pi_+- = (I +- B/alpha)/2 build the
resonance rotation Phi (kam_step.eliminate_resonance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import KamFailure
from .torus_fourier import op_norm_2x2, pairing, project_traceless


class SingularOperator(KamFailure):
    """A spectrum element of L_m is numerically zero."""


class BoundViolation(KamFailure):
    """A certified inequality failed on inputs that were supposed to satisfy it."""


class DefectiveConstantPart(KamFailure):
    """The constant part is (near-)nilpotent and cannot be diagonalized."""


SPECTRUM_FLOOR = 1e-300
CERT_SLACK = 1.0 + 1e-9  # relative rounding allowance of every certified inequality
# |alpha| below DEFECT_TOL (1 + ||A||) flags A as defective (eigen)
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
    defective: bool


def eigen(A) -> EigenData:
    """The eigenvalue +alpha of A (alpha_of) and whether A is defective:
    |alpha| < DEFECT_TOL * (1 + ||A||), where the caller must not use its
    spectral projectors."""
    A = np.asarray(A, dtype=complex)
    alpha = alpha_of(A)
    return EigenData(alpha=alpha,
                     defective=bool(abs(alpha) < DEFECT_TOL * (1.0 + op_norm_2x2(A))))


def spectral_projectors(A, alpha: complex) -> tuple[np.ndarray, np.ndarray]:
    """pi_+- = (I +- A/alpha)/2, the projectors onto the +-alpha eigenlines
    of a trace-zero A with eigenvalue alpha != 0.

    pi_+ + pi_- = I, pi_+- pi_+- = pi_+- (A^2 = alpha^2 I) and
    A = alpha (pi_+ - pi_-).
    """
    ratio = np.asarray(A, dtype=complex) / alpha
    I2 = np.eye(2, dtype=complex)
    return 0.5 * (I2 + ratio), 0.5 * (I2 - ratio)


def resonance_shift(m, omega) -> float:
    """pi <m, omega>: the resonance rotation at m moves alpha by -i times this."""
    return math.pi * float(pairing(m, omega))


def shifted_alpha(alpha: complex, m, omega) -> complex:
    """alpha - i pi <m, omega>, the eigenvalue after the resonance rotation at m."""
    return alpha - 1j * resonance_shift(m, omega)


def lm_spectrum(m, omega, alpha: complex):
    """The spectrum (d_m, d_m - 2 alpha, d_m + 2 alpha) of L_m, d_m = 2 i pi <m, omega>.

    m is one mode (d,) or a stack of modes (n, d); each element then has
    the matching shape, a scalar or an (n,) array.  <m, omega> is
    torus_fourier.pairing, the one TorusMap.dir_derivative applies, so X
    is solved against the d_m that d_omega applies to it.
    """
    dm = 2j * math.pi * pairing(m, omega)
    return dm, dm - 2.0 * alpha, dm + 2.0 * alpha


def lm_dense_solve(m, omega, Atilde, rhs) -> np.ndarray:
    """Entrywise 4x4 linear solves of 2*i*pi*<m,omega> M - [B, M] = rhs at
    lm_spectrum's d_m: the tests' oracle for lm_solve.

    m is one mode (d,) with one 2x2 rhs, or a stack of modes (n, d) with the
    (n, 2, 2) stack of right-hand sides; the solutions have the shape of rhs.
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
    sides; the (n, 2, 2) solutions are returned.  Every Atilde takes the
    module's closed form, divided by one spectrum element at a time so that
    no product of small divisors is formed; only d_m^2 - 4 alpha^2 enters,
    so the branch of alpha does not matter.  Raises SingularOperator naming
    the first mode with a spectrum element that is numerically zero.
    """
    B = np.asarray(Atilde, dtype=complex)
    omega = np.asarray(omega, dtype=float)
    ms = np.asarray(ms).reshape(-1, omega.size)
    rhs = np.asarray(rhs, dtype=complex).reshape(-1, 2, 2)
    spectrum = lm_spectrum(ms, omega, alpha_of(B))
    singular = np.flatnonzero(np.abs(spectrum).min(axis=0) < SPECTRUM_FLOOR)
    if singular.size:
        raise SingularOperator(f"spectrum element below {SPECTRUM_FLOOR:g} "
                               f"for m={tuple(ms[singular[0]].tolist())}")
    dm, dm_minus, dm_plus = (s[:, None, None] for s in spectrum)
    adR = B @ rhs - rhs @ B
    ad2R = B @ adR - adR @ B
    return project_traceless(rhs / dm + adR / dm_minus / dm_plus
                             + ad2R / dm / dm_minus / dm_plus)


def lm_inverse(m, omega, Atilde, rhs) -> np.ndarray:
    """Solve 2*i*pi*<m,omega> M - [Atilde, M] = rhs for one mode m: lm_solve
    on a batch of one."""
    return lm_solve(m, omega, Atilde, rhs)[0]
