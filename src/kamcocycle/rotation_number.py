"""Rotation number of a quasi-periodic linear system by direct integration.

The system v' = M(theta0 + t omega) v is integrated with a one-step
fourth-order method; the winding rate is the accumulated continuous
argument of v (as a point of R^2 ~ C) divided by the horizon.  Step
matrices are built in vectorized blocks and composed with a prefix scan,
so the per-step work is a handful of 2x2 products written out entry by
entry; the angle is unwrapped blockwise with rejection and local halving
whenever a single step would turn by more than pi/2.

The reported rho is the absolute winding rate: a constant elliptic matrix
with eigenvalues +-i*beta yields rho = |beta|, matching the convention
rho(constant) = |Im alpha| used by the additivity check (which therefore
compares both global signs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import KamFailure
from .sl2_algebra import alpha_of, resonance_shift
from .torus_fourier import TorusMap, op_norms

CHUNK = 2048
MAX_HALVINGS = 10


class StepTooLarge(KamFailure):
    """A single step turns the phase by more than pi even after refinement."""


@dataclass(frozen=True)
class RotationEstimate:
    rho: float
    T: float
    h: float
    error_estimate: float


def _eval_system(Asys: TorusMap, omega, theta0, times) -> np.ndarray:
    thetas = theta0[None, :] + times[:, None] * omega[None, :]
    vals = Asys.eval(thetas)
    return np.ascontiguousarray(vals.real)


def _rk4_step_matrices(A0, Am, A1, h) -> np.ndarray:
    """One-step propagators I + h/6 (K1 + 2K2 + 2K3 + K4) for each step.

    A0, Am, A1 are the system matrices at the left node, midpoint and right
    node of every step in the block.
    """
    n = A0.shape[0]
    eye = np.broadcast_to(np.eye(2), (n, 2, 2))
    K1 = A0
    K2 = Am @ (eye + (0.5 * h) * K1)
    K3 = Am @ (eye + (0.5 * h) * K2)
    K4 = A1 @ (eye + h * K3)
    return eye + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)


def _prefix_products(mats: np.ndarray) -> np.ndarray:
    """Inclusive scan S_k = M_k @ ... @ M_0 by doubling.

    The four entries are kept as separate contiguous arrays, and each product
    entry is written out as a_r0 b_0c + a_r1 b_1c.
    """
    s00, s01, s10, s11 = (mats[:, r, c].copy() for r in (0, 1) for c in (0, 1))
    step = 1
    n = mats.shape[0]
    while step < n:
        a00, a01, a10, a11 = s00[step:], s01[step:], s10[step:], s11[step:]
        b00, b01, b10, b11 = s00[:-step], s01[:-step], s10[:-step], s11[:-step]
        s00[step:], s01[step:], s10[step:], s11[step:] = (
            a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)
        step *= 2
    return np.stack([s00, s01, s10, s11], axis=1).reshape(-1, 2, 2)


def _integrate_block(Asys, omega, theta0, t0, v0, n_steps, h, depth=0):
    """Advance n_steps of size h from (t0, v0).

    Returns (v_end, total angle increment).  When any single step turns the
    argument by more than pi/2 the whole block is redone at half the step,
    up to MAX_HALVINGS times.
    """
    times = t0 + h * np.arange(n_steps + 1)
    mids = times[:-1] + 0.5 * h
    nodes = _eval_system(Asys, omega, theta0, times)
    midvals = _eval_system(Asys, omega, theta0, mids)
    # a-priori phase-speed guard: |d arg v / dt| <= ||M||, and a turn past
    # pi/2 in one step could alias to a small measured delta
    speed = max(float(op_norms(nodes).max()), float(op_norms(midvals).max()))
    if speed * h > 0.5 * math.pi:
        if depth >= MAX_HALVINGS:
            raise StepTooLarge(
                f"rotation number: phase speed {speed:.3e} needs h below "
                f"{0.5 * math.pi / speed:.3e}, unreachable from h = {h:.3e} "
                f"within {MAX_HALVINGS} halvings")
        return _integrate_block(Asys, omega, theta0, t0, v0, 2 * n_steps,
                                0.5 * h, depth + 1)
    mats = _rk4_step_matrices(nodes[:-1], midvals, nodes[1:], h)
    S = _prefix_products(mats)
    vs = np.concatenate([v0[None, :], S @ v0])
    angles = np.arctan2(vs[:, 1], vs[:, 0])
    deltas = np.diff(angles)
    deltas = (deltas + math.pi) % (2.0 * math.pi) - math.pi
    if np.abs(deltas).max(initial=0.0) > 0.5 * math.pi:
        if depth >= MAX_HALVINGS:
            raise StepTooLarge(
                f"rotation number: phase turns by {np.abs(deltas).max():.3f} rad "
                f"in one step at h = {h:.3e} after {depth} halvings")
        return _integrate_block(Asys, omega, theta0, t0, v0, 2 * n_steps,
                                0.5 * h, depth + 1)
    v_end = vs[-1]
    norm = float(np.hypot(v_end[0], v_end[1]))
    if norm == 0.0 or not math.isfinite(norm):
        raise KamFailure("rotation number: trajectory norm left the representable range")
    return v_end / norm, float(deltas.sum())


def winding_rate(Asys: TorusMap, omega, theta0, phi0, T: float, h: float) -> float:
    """Signed winding rate Arg(v(T))/T of v' = Asys(theta0 + t omega) v."""
    omega = np.asarray(omega, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    v = np.asarray(phi0, dtype=float)
    v = v / np.hypot(v[0], v[1])
    n_total = max(1, int(round(T / h)))
    T_eff = n_total * h
    total = 0.0
    done = 0
    while done < n_total:
        block = min(CHUNK, n_total - done)
        v, inc = _integrate_block(Asys, omega, theta0, done * h, v, block, h)
        total += inc
        done += block
    return total / T_eff


def rotation_number(Asys: TorusMap, omega, theta0=None, phi0=None,
                    T: float = 1e4, h: float = 1e-2) -> RotationEstimate:
    """Rotation number with an error estimate.

    The estimate combines the discretization comparison (h against h/2),
    a horizon comparison (T against T/2 at the finer step), and the
    intrinsic final-phase ambiguity 2 pi / T of any finite-horizon winding
    measurement, which usually dominates.
    """
    omega = np.asarray(omega, dtype=float)
    if theta0 is None:
        theta0 = np.zeros_like(omega)
    if phi0 is None:
        phi0 = np.array([1.0, 0.0])
    rate_h = winding_rate(Asys, omega, theta0, phi0, T, h)
    rate_h2 = winding_rate(Asys, omega, theta0, phi0, T, 0.5 * h)
    rate_half_T = winding_rate(Asys, omega, theta0, phi0, 0.5 * T, 0.5 * h)
    rho_h = abs(rate_h)
    rho = abs(rate_h2)
    err = abs(rho_h - rho) + abs(rho - abs(rate_half_T)) + 2.0 * math.pi / T
    return RotationEstimate(rho=rho, T=T, h=h, error_estimate=err)


def rho_of_constant(B) -> float:
    """Rotation number of a constant trace-zero system: |Im alpha|."""
    return abs(alpha_of(np.asarray(B, dtype=float)).imag)


@dataclass(frozen=True)
class AdditivityReport:
    ok: bool
    matched_sign: int
    defect: float
    allowance: float
    rho_constant: float
    rotation_sum: float


def verify_additivity(rho_full: float, B_final, trace, omega,
                      tol: float) -> AdditivityReport:
    """Check rho(A + F) = rho(B) + pi * sum_j <m_j, omega> along a run.

    The comparison allows tol plus the eigenvalue-drift budget
    sum_j sqrt(eps_j) accumulated over the recorded steps, and tolerates a
    global orientation flip (the measured rho is unsigned); the matched
    sign is reported.
    """
    omega = np.asarray(omega, dtype=float)
    rho_b = rho_of_constant(B_final)
    rot_sum = 0.0
    drift = 0.0
    for rec in trace.records:
        rot_sum += resonance_shift(rec.m, omega)
        drift += math.sqrt(rec.eps_bound)
    allowance = tol + drift
    # the integrator reports |winding| and |Im alpha| forgets the
    # orientation of the reduced rotation, so both orientations of the
    # constant part are tried and the matching one is reported
    defect_plus = abs(rho_full - abs(rho_b + rot_sum))
    defect_minus = abs(rho_full - abs(-rho_b + rot_sum))
    if defect_plus <= defect_minus:
        sign, defect = 1, defect_plus
    else:
        sign, defect = -1, defect_minus
    return AdditivityReport(ok=bool(defect <= allowance), matched_sign=sign,
                            defect=defect, allowance=allowance,
                            rho_constant=rho_b, rotation_sum=rot_sum)

