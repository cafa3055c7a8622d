"""Rotation number of a quasi-periodic linear system by direct integration.

The system v' = M(theta0 + t omega) v is integrated with the classical
fourth-order Runge-Kutta method; the winding rate is the accumulated
continuous argument of v (as a point of R^2 ~ C) divided by the horizon.

One pass serves every step size.  M is evaluated once per window on a grid
of spacing q, and a run of stride s steps by 2 s q, reading its nodes and
midpoints off that grid.  rotation_number samples at q = h/4: the h run
takes every other sample, the h/2 run every sample, and the T/2 rate is a
checkpoint of the h/2 run, where that run's segments end.  In a segment the
RK4 propagators are written out entry by entry, and a two-level scan
(doubling inside groups of GROUP steps, then a sequential pass over the
group totals) yields the state vectors; the angle is unwrapped per step.

Two guards ask a segment for a smaller step: the a-priori phase speed
||M|| h above pi/2, and a measured turn past pi/2 in one step.  The segment
is then redone as a run of half the step on a grid of its own, evaluated
afresh, and so on up to MAX_HALVINGS times, after which StepTooLarge is
raised.

The reported rho is the absolute winding rate: a constant elliptic matrix
with eigenvalues +-i*beta yields rho = |beta|, matching the convention
rho(constant) = |Im alpha| used by the additivity check (which therefore
compares both global signs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import KamFailure
from .sl2_algebra import alpha_of, resonance_shift
from .torus_fourier import TorusMap, op_norms

CHUNK = 1024  # steps of the coarsest run per window
GROUP = 64  # steps per group of the two-level scan
MAX_HALVINGS = 10


class StepTooLarge(KamFailure):
    """A single step turns the phase by more than pi even after refinement."""


@dataclass(frozen=True)
class RotationEstimate:
    rho: float
    T: float
    h: float
    error_estimate: float


def _mul(a, b):
    """2x2 products a @ b of entry arrays of shape (2, 2, ...).

    Entry (r, c) is written out as a_r0 b_0c + a_r1 b_1c, broadcast over the
    four entries at once.
    """
    out = a[:, :1] * b[:1]
    out += a[:, 1:] * b[1:]
    return out


def _shifted_identity(c, K):
    """I + c K for entry arrays of shape (2, 2, n)."""
    out = c * K
    out[0, 0] += 1.0
    out[1, 1] += 1.0
    return out


def _rk4_propagators(A0, Am, A1, h):
    """One-step propagators I + h/6 (K1 + 2K2 + 2K3 + K4), entry by entry.

    A0, Am, A1 are the entry arrays (2, 2, n) of the system at the left
    node, midpoint and right node of every step.
    """
    K2 = _mul(Am, _shifted_identity(0.5 * h, A0))
    K3 = _mul(Am, _shifted_identity(0.5 * h, K2))
    K4 = _mul(A1, _shifted_identity(h, K3))
    return _shifted_identity(h / 6.0, A0 + 2.0 * K2 + 2.0 * K3 + K4)


def _states(P, v0):
    """Coordinates (2, n + 1) of v_k = P_{k-1} ... P_0 v0 for k = 0..n.

    Doubling gives the products inside each group of GROUP steps; a
    sequential pass over the group totals carries v0 from group to group.
    """
    n = P.shape[-1]
    groups = -(-n // GROUP)
    pad = np.broadcast_to(np.eye(2)[:, :, None], (2, 2, groups * GROUP - n))
    s = np.concatenate([P, pad], axis=-1).reshape(2, 2, groups, GROUP)
    step = 1
    while step < min(GROUP, n):
        s[..., step:] = _mul(s[..., step:], s[..., :-step])
        step *= 2
    x, y = float(v0[0]), float(v0[1])
    starts = []
    for t00, t01, t10, t11 in zip(*s[..., -1].reshape(4, groups).tolist()):
        starts.append((x, y))
        x, y = t00 * x + t01 * y, t10 * x + t11 * y
    w = np.array(starts).T[:, :, None]
    v = s[:, 0] * w[0] + s[:, 1] * w[1]
    return np.concatenate([v0[:, None], v.reshape(2, -1)[:, :n]], axis=1)


def _advance(vals, speed, v0, h, depth):
    """RK4 steps of size h with nodes vals[..., ::2] and midpoints vals[..., 1::2].

    vals holds the system's entry arrays (2, 2, 2n + 1), and speed is the
    largest operator norm among them.  Returns (unit end state, angle
    increment), or None when a guard asks for half the step.
    """
    # a-priori phase-speed guard: |d arg v / dt| <= ||M||, and a turn past
    # pi/2 in one step could alias to a small measured delta
    if speed * h > 0.5 * math.pi:
        if depth >= MAX_HALVINGS:
            raise StepTooLarge(
                f"rotation number: phase speed {speed:.3e} needs h below "
                f"{0.5 * math.pi / speed:.3e}, unreachable from h = {h:.3e} "
                f"within {MAX_HALVINGS} halvings")
        return None
    nodes = vals[..., ::2]
    vs = _states(_rk4_propagators(nodes[..., :-1], vals[..., 1::2], nodes[..., 1:], h), v0)
    deltas = np.diff(np.arctan2(vs[1], vs[0]))
    deltas -= (2.0 * math.pi) * np.rint(deltas / (2.0 * math.pi))
    turn = np.abs(deltas).max(initial=0.0)
    if turn > 0.5 * math.pi:
        if depth >= MAX_HALVINGS:
            raise StepTooLarge(
                f"rotation number: phase turns by {turn:.3f} rad "
                f"in one step at h = {h:.3e} after {depth} halvings")
        return None
    v_end = vs[:, -1]
    norm = float(np.hypot(v_end[0], v_end[1]))
    if norm == 0.0 or not math.isfinite(norm):
        raise KamFailure("rotation number: trajectory norm left the representable range")
    return v_end / norm, float(deltas.sum())


def _samples(Asys, omega, theta0, times):
    """Entry arrays (2, 2, n) of the system at theta0 + t omega, and the
    operator norm of each sample."""
    # built as (d, n) and transposed: a broadcast with an inner axis of
    # length d is several times slower
    vals = Asys.eval((theta0[:, None] + omega[:, None] * times).T).real
    return np.ascontiguousarray(vals.transpose(1, 2, 0)), op_norms(vals)


@dataclass
class _Run:
    """An RK4 run of step 2 * stride * q on a grid of spacing q.

    angles maps each checkpoint (a step count) to the angle accumulated
    over that many steps.
    """
    stride: int
    checkpoints: tuple
    v: np.ndarray
    done: int = 0
    angle: float = 0.0
    angles: dict = field(default_factory=dict)


def _wind(Asys, omega, theta0, q, runs, t0=0.0, depth=0):
    """Advance every run from t0 to its last checkpoint over one sample grid.

    The grid t0 + i q is evaluated a window of CHUNK steps of the coarsest
    run at a time.  Each run advances through a window in segments that end
    at its checkpoints; a segment whose guard trips is redone as one run of
    half the step, on a grid of its own, one halving deeper.
    """
    n_samples = max(2 * r.stride * r.checkpoints[-1] for r in runs)
    width = 2 * CHUNK * max(r.stride for r in runs)
    for start in range(0, n_samples, width):
        stop = min(start + width, n_samples)
        vals, norms = _samples(Asys, omega, theta0, t0 + q * np.arange(start, stop + 1))
        for run in runs:
            s = run.stride
            h = 2 * s * q
            end = min(stop // (2 * s), run.checkpoints[-1])
            while run.done < end:
                k0 = run.done
                k1 = min(end, next(c for c in run.checkpoints if c > k0))
                seg = slice(2 * s * k0 - start, 2 * s * k1 - start + 1, s)
                out = _advance(vals[..., seg], float(norms[seg].max()), run.v, h, depth)
                if out is None:
                    fine = _Run(1, (2 * (k1 - k0),), run.v)
                    _wind(Asys, omega, theta0, 0.25 * h, [fine], t0 + k0 * h, depth + 1)
                    out = fine.v, fine.angle
                run.v, increment = out
                run.angle += increment
                run.done = k1
                if k1 in run.checkpoints:
                    run.angles[k1] = run.angle


def _winding_rates(Asys, omega, theta0, phi0, q, plan):
    """Signed winding rates of RK4 runs that share the sample grid i q.

    plan lists (stride, step counts) per run; the rate at a count n of a
    run of step h = 2 stride q is its angle after n steps over n h.
    """
    omega = np.asarray(omega, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    v = np.asarray(phi0, dtype=float)
    v = v / np.hypot(v[0], v[1])
    runs = [_Run(stride, tuple(sorted(set(counts))), v) for stride, counts in plan]
    _wind(Asys, omega, theta0, q, runs)
    return [[run.angles[n] / (n * (2 * run.stride * q)) for n in counts]
            for run, (_, counts) in zip(runs, plan)]


def _step_count(T, h):
    if T < h:
        raise ValueError(f"horizon T = {T!r} is shorter than one step h = {h!r}")
    return int(round(T / h))


def winding_rate(Asys: TorusMap, omega, theta0, phi0, T: float, h: float) -> float:
    """Signed winding rate Arg(v(T))/T of v' = Asys(theta0 + t omega) v;
    ValueError when T < h."""
    return _winding_rates(Asys, omega, theta0, phi0, 0.5 * h,
                          [(1, [_step_count(T, h)])])[0][0]


def rotation_number(Asys: TorusMap, omega, theta0=None, phi0=None,
                    T: float = 1e4, h: float = 1e-2) -> RotationEstimate:
    """Rotation number with an error estimate.

    The estimate combines the discretization comparison (h against h/2),
    a horizon comparison (T against T/2 at the finer step), and the
    intrinsic final-phase ambiguity 2 pi / T of any finite-horizon winding
    measurement, which usually dominates.  One pass gives all three rates:
    the h and h/2 runs share one grid of spacing h/4, and the T/2 rate is
    the h/2 run read after round(T/h) steps.  ValueError when T < h.
    """
    omega = np.asarray(omega, dtype=float)
    if theta0 is None:
        theta0 = np.zeros_like(omega)
    if phi0 is None:
        phi0 = np.array([1.0, 0.0])
    half = 0.5 * h
    [rate_h], [rate_half_T, rate_h2] = _winding_rates(
        Asys, omega, theta0, phi0, 0.25 * h,
        [(2, [_step_count(T, h)]), (1, [_step_count(0.5 * T, half), _step_count(T, half)])])
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


def verify_additivity(rho_full: float, B_final, trace, omega, schedule,
                      tol: float) -> AdditivityReport:
    """Check rho(A + F) = rho(B) + pi * sum_j <m_j, omega> along a run.

    The comparison allows tol plus the eigenvalue-drift budget
    sum_j sqrt(eps_j), the schedule's ladder over the recorded steps, and
    tolerates a global orientation flip (the measured rho is unsigned); the
    matched sign is reported.
    """
    omega = np.asarray(omega, dtype=float)
    rho_b = rho_of_constant(B_final)
    rot_sum = 0.0
    drift = 0.0
    for rec in trace.records:
        rot_sum += resonance_shift(rec.m, omega)
        drift += math.sqrt(schedule.eps_n(rec.n))
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

