"""Rotation number of a quasi-periodic linear system by direct integration.

The system v' = M(theta0 + t omega) v is integrated with the classical
fourth-order Runge-Kutta method; the winding rate is the accumulated
continuous argument of v (as a point of R^2 ~ C) divided by the horizon.

One pass serves every step size.  M is sampled once per window of CHUNK
steps of the coarsest run on a grid of spacing q, and a run of stride s
steps by 2 s q, reading its nodes and midpoints off that grid.
rotation_number samples at q = h/4: the h run takes every other sample,
the h/2 run every sample, and the T/2 rate is a checkpoint of the h/2 run,
where that run's segments end.  A pass builds one phase table, the cos and
sin of q j pi <k, omega> for every mode k and every sample j of a block of
BLOCK steps; a window is sampled block by block, each block turning the
coefficients to its start once and reading its samples off the table as
two real matrix products, so the table stays narrow while a window is long.
In a segment the RK4 propagators are written out entry by entry into work
arrays kept for the pass, and a work-efficient scan yields the state
vectors: an upsweep of pairwise products to the totals of groups of GROUP
steps, a sequential pass over the group totals that keeps the carried
state in range by exact powers of two, and a downsweep of matrix-vector
products, about one product of each kind per step.  The angle is unwrapped
per step.

Two guards ask a segment for a smaller step: the a-priori phase speed
bound times h above pi/2, and a measured turn past pi/2 in one step.  The
bound is sum_k ||c_k|| over the Fourier coefficients, once per pass; it is
at least sup_theta ||M(theta)||, the largest phase speed.  The segment is
then redone as a run of half the step on a grid of its own, evaluated
afresh, and so on up to MAX_HALVINGS times, after which StepTooLarge is
raised.

The reported rho is the absolute winding rate: a constant elliptic matrix
with eigenvalues +-i*beta yields rho = |beta|, matching the convention
rho(constant) = |Im alpha| used by the additivity check (which therefore
compares both global signs).  winding_rate, a single run, is not used by
rotation_number, but stays public: the benchmark's tracer wraps it
(bench/tracing.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import KamFailure
from .sl2_algebra import alpha_of, resonance_shift
from .torus_fourier import TorusMap, op_norms

CHUNK = 4096  # steps of the coarsest run per window
BLOCK = 1024  # steps of the coarsest run per block of the phase table
GROUP = 64  # steps per group of the state scan, a power of two
MAX_HALVINGS = 10
_TINY, _HUGE = 2.0 ** -256, 2.0 ** 256  # range of the scan's carried state


class StepTooLarge(KamFailure):
    """A single step turns the phase by more than pi even after refinement."""


@dataclass(frozen=True)
class RotationEstimate:
    rho: float
    T: float
    h: float
    error_estimate: float


def _mul(a, b, out, tmp):
    """2x2 products a @ b of entry arrays of shape (2, 2, ...), into out.

    Entry (r, c) is written out as a_r0 b_0c + a_r1 b_1c, broadcast over the
    four entries at once; tmp is work space of out's shape.
    """
    np.multiply(a[:, :1], b[:1], out=out)
    np.multiply(a[:, 1:], b[1:], out=tmp)
    out += tmp
    return out


def _shifted_identity(c, K, out):
    """I + c K for entry arrays of shape (2, 2, n), into out."""
    np.multiply(K, c, out=out)
    out[0, 0] += 1.0
    out[1, 1] += 1.0
    return out


def _rk4_propagators(A0, Am, A1, h, work):
    """One-step propagators I + h/6 (K1 + 2K2 + 2K3 + K4), entry by entry.

    A0, Am, A1 are the entry arrays (2, 2, n) of the system at the left
    node, midpoint and right node of every step; work holds four arrays of
    their shape, and the propagators are written into work[0].
    """
    out, x, K, tmp = work
    _mul(Am, _shifted_identity(0.5 * h, A0, x), K, tmp)
    np.multiply(K, 2.0, out=out)
    out += A0
    _mul(Am, _shifted_identity(0.5 * h, K, x), K, tmp)
    np.multiply(K, 2.0, out=tmp)
    out += tmp
    _mul(A1, _shifted_identity(h, K, x), K, tmp)
    out += K
    return _shifted_identity(h / 6.0, out, out)


def _states(P, v0):
    """Coordinates (2, n + 1) of v_k = P_{k-1} ... P_0 v0 for k = 0..n, up to
    a power of two per group.

    A work-efficient scan over groups of GROUP steps: an upsweep of pairwise
    products builds the totals of blocks of 2, 4, ..., GROUP steps, a
    sequential pass over the group totals carries v0 from group to group,
    and a downsweep hands each block's start state to its right half, one
    matrix-vector product per block.  The pass rescales the carried state by
    a power of two whenever its size leaves [2^-256, 2^256], so a hyperbolic
    system's growth over a long segment cannot overflow; the scaling is
    exact and changes no argument.
    """
    n = P.shape[-1]
    groups = -(-n // GROUP)
    pad = np.broadcast_to(np.eye(2)[:, :, None], (2, 2, groups * GROUP - n))
    level = np.concatenate([P, pad], axis=-1).reshape(2, 2, groups, GROUP)
    lefts = []
    while level.shape[-1] > 1:
        left = level[..., ::2]
        lefts.append(left)
        right = level[..., 1::2]
        level = _mul(right, left, np.empty(right.shape), np.empty(right.shape))
    x, y = float(v0[0]), float(v0[1])
    starts = []
    for t00, t01, t10, t11 in zip(*level.reshape(4, groups).tolist()):
        starts.append((x, y))
        x, y = t00 * x + t01 * y, t10 * x + t11 * y
        size = abs(x) + abs(y)
        if not _TINY < size < _HUGE:
            # an exact rescaling keeps the carried state's argument and the
            # downsweep's products of up to GROUP steps in the float range
            e = math.frexp(size)[1]
            x, y = math.ldexp(x, -e), math.ldexp(y, -e)
    v = np.array(starts).T[:, :, None]
    for left in reversed(lefts):
        # the start states of the left halves, then of the right halves
        down = np.empty(left.shape[1:-1] + (2 * left.shape[-1],))
        down[..., ::2] = v
        right = down[..., 1::2]
        np.multiply(left[:, 0], v[0], out=right)
        right += left[:, 1] * v[1]
        v = down
    out = np.empty((2, n + 1))
    out[:, :n] = v.reshape(2, -1)[:, :n]
    out[:, n] = x, y
    return out


def _advance(vals, speed, v0, h, depth, work):
    """RK4 steps of size h with nodes vals[..., ::2] and midpoints vals[..., 1::2].

    vals holds the system's entry arrays (2, 2, 2n + 1), and speed bounds
    the operator norm of every sample: the pass gives sum_k ||c_k||, at
    least sup_theta ||M(theta)||.  Returns (unit end state, angle
    increment), or None when a guard asks for half the step.  work holds
    four entry arrays of at least n steps each.
    """
    # a-priori phase-speed guard: |d arg v / dt| <= ||M|| <= speed, and a
    # turn past pi/2 in one step could alias to a small measured delta
    if speed * h > 0.5 * math.pi:
        if depth >= MAX_HALVINGS:
            raise StepTooLarge(
                f"rotation number: phase speed {speed:.3e} needs h below "
                f"{0.5 * math.pi / speed:.3e}, unreachable from h = {h:.3e} "
                f"within {MAX_HALVINGS} halvings")
        return None
    nodes = vals[..., ::2]
    P = _rk4_propagators(nodes[..., :-1], vals[..., 1::2], nodes[..., 1:], h,
                         work[..., :nodes.shape[-1] - 1])
    vs = _states(P, v0)
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


def _phase_tables(Asys, omega, q, m):
    """cos and sin of q j pi <k, omega> for every mode k and j = 0..m,
    shape (modes, m + 1)."""
    phase = np.outer(math.pi * (Asys.half_k @ omega), q * np.arange(m + 1))
    return np.cos(phase), np.sin(phase)


def _samples(Asys, theta, cos_t, sin_t, out):
    """Write the entries (4, n) of the real part of the system at theta + q j
    omega, j < n, into out.

    The coefficients are turned to theta once; the phase tables advance them
    along the block, as two real matrix products.
    """
    n = out.shape[-1]
    w = Asys.coeffs.reshape(-1, 4).T * np.exp(1j * math.pi * (Asys.half_k @ theta))
    np.matmul(w.real, cos_t[:, :n], out=out)
    out -= w.imag @ sin_t[:, :n]


def _speed_bound(Asys):
    """sum_k ||c_k||, at least sup_theta ||M(theta)|| and so at least the
    operator norm of every real sample."""
    return float(op_norms(Asys.coeffs).sum())


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

    The grid t0 + i q is sampled a window of CHUNK steps of the coarsest
    run at a time, each window block by block off one phase table of BLOCK
    steps for the whole pass.  Each run advances through a window in
    segments that end at its checkpoints; a segment whose guard trips is
    redone as one run of half the step, on a grid of its own, one halving
    deeper.
    """
    n_samples = max(2 * r.stride * r.checkpoints[-1] for r in runs)
    stride = max(r.stride for r in runs)
    width, block = 2 * CHUNK * stride, 2 * min(BLOCK, CHUNK) * stride
    cos_t, sin_t = _phase_tables(Asys, omega, q, min(block, n_samples))
    speed = _speed_bound(Asys)
    buf = np.empty((4, min(width, n_samples) + 1))
    work = np.empty((4, 2, 2, min(width, n_samples) // (2 * min(r.stride for r in runs))))
    for start in range(0, n_samples, width):
        stop = min(start + width, n_samples)
        # each block writes its samples through its end, which the next
        # block overwrites with its own first sample
        for b in range(start, stop, block):
            _samples(Asys, theta0 + (t0 + q * b) * omega, cos_t, sin_t,
                     buf[:, b - start:min(b + block, stop) - start + 1])
        vals = buf[:, :stop - start + 1].reshape(2, 2, -1)
        for run in runs:
            s = run.stride
            h = 2 * s * q
            end = min(stop // (2 * s), run.checkpoints[-1])
            while run.done < end:
                k0 = run.done
                k1 = min(end, next(c for c in run.checkpoints if c > k0))
                seg = slice(2 * s * k0 - start, 2 * s * k1 - start + 1, s)
                out = _advance(vals[..., seg], speed, run.v, h, depth, work)
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

