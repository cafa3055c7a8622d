"""Approximation functions and non-resonance scans.

An approximation function quantifies small-divisor bounds: a frequency
vector omega is non-resonant at level (kappa, G) when
|<m, omega>| >= kappa / G(|m|) for every nonzero integer vector m, and a
complex number alpha is non-resonant relative to omega at level
(kappa', g) up to order N when |alpha - i*pi*<m, omega>| >= kappa'/g(|m|)
for 0 < |m| <= N.  Both checks reduce to minimizing a weighted distance
over an l1 ball of lattice points.  At d <= 2 the ball is scanned
literally up to order SMALL_BALL; past it, each slice of the lattice
contributes only the few points whose pairing <m, omega> lies nearest the
target, which is complete for violations, and a certified floor bounds
every point left out, so the reported minimum is a lower bound over the
whole ball.  At d >= 3 the ball is scanned literally, up to
FULL_SCAN_LIMIT points.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np
from scipy import integrate

FULL_SCAN_LIMIT = 2_000_000
SMALL_BALL = 8

NrReport = namedtuple("NrReport", ["ok", "m", "value"])


class DivergentIntegral(Exception):
    """The requested Brjuno-type tail integral diverges."""


class ScanOrderTooLarge(ValueError):
    """No lattice scan reaches the requested order in this dimension."""


# ---------------------------------------------------------------------------
# approximation functions
# ---------------------------------------------------------------------------

class ApproxFn:
    """Positive increasing function on [1, inf) with f(1) >= 1."""

    kind = "abstract"

    def value(self, t):
        return np.exp(self.log_value(t))

    def log_value(self, t):
        raise NotImplementedError

    def log_inverse(self, logx: float) -> float:
        if logx <= float(self.log_value(1.0)):
            return 1.0
        lo, hi = 0.0, 1.0  # bisection in u = log t
        while float(self.log_value(math.exp(hi))) < logx:
            hi *= 2.0
            if hi > 1e6:
                raise OverflowError("inverse argument out of range")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(self.log_value(math.exp(mid))) < logx:
                lo = mid
            else:
                hi = mid
        return math.exp(hi)

    def spec(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.spec()})"


class PowerFn(ApproxFn):
    """t -> t^mu."""

    kind = "power"

    def __init__(self, mu: float):
        if mu <= 0:
            raise ValueError("exponent must be positive")
        self.mu = float(mu)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if self.mu == 2.0:
            return t * t
        if self.mu == 1.0:
            return +t
        if self.mu == 4.0:
            s = t * t
            return s * s
        return t ** self.mu

    def log_value(self, t):
        return self.mu * np.log(t)

    def log_inverse(self, logx: float) -> float:
        return max(1.0, math.exp(logx / self.mu))

    def spec(self):
        return {"kind": "power", "mu": self.mu}


class ExpPowFn(ApproxFn):
    """t -> exp(t^alpha), alpha in (0, 1]."""

    kind = "exppow"

    def __init__(self, alpha: float):
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = float(alpha)

    def log_value(self, t):
        return np.asarray(t, dtype=float) ** self.alpha

    def log_inverse(self, logx: float) -> float:
        return max(1.0, logx ** (1.0 / self.alpha))

    def spec(self):
        return {"kind": "exppow", "alpha": self.alpha}


class ExpLogFn(ApproxFn):
    """t -> exp(t / max(log t, delta)^delta), delta > 1.

    The raw expression t / (log t)^delta decreases on (1, e^delta); clamping
    the logarithm at delta keeps the function strictly increasing on [1, inf)
    while matching the asymptotic behaviour.
    """

    kind = "explog"

    def __init__(self, delta: float):
        if delta <= 1:
            raise ValueError("delta must exceed 1")
        self.delta = float(delta)

    def log_value(self, t):
        t = np.asarray(t, dtype=float)
        denom = np.maximum(np.log(np.maximum(t, 1.0)), self.delta) ** self.delta
        return t / denom

    def log_inverse(self, logx: float) -> float:
        if logx <= float(self.log_value(1.0)):
            return 1.0
        breakpoint_ = math.exp(self.delta)
        if logx <= breakpoint_ / self.delta ** self.delta:
            return logx * self.delta ** self.delta
        return super().log_inverse(logx)

    def spec(self):
        return {"kind": "explog", "delta": self.delta}


class TabulatedFn(ApproxFn):
    """Nondecreasing step function on integers, constant outside the table.

    Produced by fit_G; diagnostics only (it is not strictly increasing, so
    the KAM schedule never consumes it).
    """

    kind = "tabulated"

    def __init__(self, ts, vals, argmins=None):
        self.ts = np.asarray(ts, dtype=float)
        self.vals = np.asarray(vals, dtype=float)
        if np.any(np.diff(self.vals) < 0):
            raise ValueError("tabulated values must be nondecreasing")
        self.argmins = argmins

    def value(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.ts, t, side="right") - 1, 0, len(self.ts) - 1)
        return self.vals[idx] if t.ndim else float(self.vals[int(idx)])

    def log_value(self, t):
        return np.log(self.value(t))

    def log_inverse(self, logx: float) -> float:
        i = np.searchsorted(self.vals, math.exp(logx), side="left")
        if i >= len(self.ts):
            return float(self.ts[-1])
        return float(self.ts[i])

    def spec(self):
        return {"kind": "tabulated", "ts": self.ts.tolist(), "vals": self.vals.tolist()}


class ProductFn(ApproxFn):
    """Pointwise product of two approximation functions (e.g. G*g)."""

    kind = "product"

    def __init__(self, f: ApproxFn, g: ApproxFn):
        self.f = f
        self.g = g

    def log_value(self, t):
        return self.f.log_value(t) + self.g.log_value(t)

    def spec(self):
        return {"kind": "product", "f": self.f.spec(), "g": self.g.spec()}


def approxfn_from_spec(obj: dict) -> ApproxFn:
    kind = obj["kind"]
    if kind == "power":
        return PowerFn(obj["mu"])
    if kind == "exppow":
        return ExpPowFn(obj["alpha"])
    if kind == "explog":
        return ExpLogFn(obj["delta"])
    if kind == "tabulated":
        return TabulatedFn(obj["ts"], obj["vals"])
    if kind == "product":
        return ProductFn(approxfn_from_spec(obj["f"]), approxfn_from_spec(obj["g"]))
    raise ValueError(f"unknown approximation function kind: {kind!r}")


# ---------------------------------------------------------------------------
# lattice scans
# ---------------------------------------------------------------------------

def l1_ball(N: int, d: int) -> np.ndarray:
    """All integer points with l1 norm <= N (brute-force oracle helper)."""
    if d == 1:
        return np.arange(-N, N + 1, dtype=np.int64)[:, None]
    rows = []
    for m1 in range(-N, N + 1):
        rest = l1_ball(N - abs(m1), d - 1)
        first = np.full((rest.shape[0], 1), m1, dtype=np.int64)
        rows.append(np.hstack([first, rest]))
    return np.vstack(rows)


def l1_ball_size(N: int, d: int) -> int:
    if d == 1:
        return 2 * N + 1
    if d == 2:
        return 2 * N * N + 2 * N + 1
    if d == 3:
        return (4 * N ** 3 + 6 * N * N + 8 * N + 3) // 3
    return (2 * N + 1) ** d


def check_scan_order(N: int, d: int) -> None:
    """Raise ScanOrderTooLarge when no scan reaches order N in dimension d.

    d <= 2 has a windowed scan at every order; past d = 2 only the
    exhaustive l1 ball exists, and it is capped at FULL_SCAN_LIMIT points.
    """
    if d > 2 and l1_ball_size(N, d) > FULL_SCAN_LIMIT:
        raise ScanOrderTooLarge(
            f"the l1 ball of order {N} in d = {d} exceeds the "
            f"{FULL_SCAN_LIMIT:,}-point exhaustive scan")


def _score_points(points, omega, weight_fn, target, scale, re_off):
    pairing = points.astype(float) @ omega
    gap = target - scale * pairing
    dist = np.hypot(re_off, gap)
    mod = np.abs(points).sum(axis=1).astype(float)
    return dist * np.asarray(weight_fn(mod), dtype=float)


def _lex_min(points, scores):
    """Index of the smallest score; ties broken by lexicographic point order."""
    best = np.min(scores)
    tied = np.flatnonzero(scores <= best)
    if len(tied) == 1:
        return int(tied[0])
    rows = points[tied]
    order = np.lexsort(rows.T[::-1])
    return int(tied[order[0]])


class _ScanState:
    def __init__(self, thr):
        self.thr = thr
        self.best_score = math.inf
        self.best_m = None
        self.violators = []

    def update(self, points, scores):
        if points.shape[0] == 0:
            return
        i = _lex_min(points, scores)
        self.offer(float(scores[i]), tuple(int(v) for v in points[i]))
        if self.thr is not None:
            bad = scores < self.thr
            for j in np.flatnonzero(bad):
                self.violators.append((float(scores[j]), tuple(int(v) for v in points[j])))

    def offer(self, score: float, m: tuple):
        if score < self.best_score or (
            score == self.best_score and self.best_m is not None and m < self.best_m
        ):
            self.best_score = score
            self.best_m = m

    def apply_floor(self, floor: float):
        # unscanned modes are certified above the floor; the reported value
        # becomes a lower bound over the full range (possibly below the
        # score of the reported argmin)
        if floor < self.best_score:
            self.best_score = floor


def scan_min_weighted_distance(omega, N, weight_fn, target=0.0, scale=1.0,
                               re_off=0.0, thr=None):
    """Minimize hypot(re_off, target - scale*<m, omega>) * weight(|m|).

    Scans 0 < |m| <= N.  The l1 ball is scanned exhaustively up to order
    SMALL_BALL at d <= 2, where _slice_scan covers the higher orders, and
    up to N at d >= 3 (ValueError past FULL_SCAN_LIMIT points).  Complete
    for scores below thr.  Returns (min_score, argmin_m, violators sorted
    by score then lex order).
    """
    omega = np.asarray(omega, dtype=float)
    d = omega.shape[0]
    N = int(N)
    if N < 1:
        return math.inf, None, []
    check_scan_order(N, d)
    state = _ScanState(thr)
    nb = min(N, SMALL_BALL) if d <= 2 else N
    pts = l1_ball(nb, d)
    pts = pts[np.abs(pts).sum(axis=1) > 0]
    state.update(pts, _score_points(pts, omega, weight_fn, target, scale, re_off))
    if nb < N:
        _slice_scan(state, omega, N, weight_fn, target, scale, re_off, thr, nb)
    state.violators.sort()
    return state.best_score, state.best_m, state.violators


def _slice_scan(state, omega, N, weight_fn, target, scale, re_off, thr, lo_mod):
    """Orders lo_mod < |m| <= N at d <= 2: a window of candidates per
    slice, and a certified floor for everything else.

    The slices run over the coordinate m_i of the smaller frequency (a
    single slice at d = 1); in each, the candidates are the integers m_j
    within width of the point t where <m, omega> meets the target.  A
    candidate left out lies at least width + 1/2 lattice spacings off the
    target line, so it scores at least the floor.  With thr <= spacing the
    nearest candidate alone (width 0) is complete for violations, since
    the floor spacing * weight(lo_mod + 1) is >= thr; a wider violation
    window gets width >= thr / (2 spacing) + 3/2, so the floor is >= thr +
    3 spacing.  The floor also caps the reported minimum, making it a
    certified lower bound over the whole range.
    """
    d = omega.shape[0]
    j = int(np.argmax(np.abs(omega)))
    wj = omega[j]
    wi = omega[1 - j] if d == 2 else 0.0
    spacing = 0.5 * scale * abs(wj)
    u = 0.0 if thr is None else thr / (2.0 * spacing)
    if u > 0.5:
        width = min(int(math.ceil(u + 0.5)) + 1, 64)
        floor = width * 2.0 * spacing * float(weight_fn(float(lo_mod + 1)))
    else:
        width = 0
        floor = spacing * float(weight_fn(float(lo_mod + 1)))

    def point(mi, mj):
        return (mj,) if d == 1 else ((mi, mj) if j == 1 else (mj, mi))

    cprime = target / scale
    mi_max = 0 if d == 1 else min(N, int((N + 0.5 + abs(cprime) / abs(wj))
                                         / (1.0 + abs(wi / wj))) + 2 + width)
    re2 = re_off * re_off
    k2 = (scale * wj) ** 2
    thr2 = None if thr is None else thr * thr
    chunk = 1 << 20
    best = math.inf
    best_m = None
    for lo in range(-mi_max, mi_max + 1, chunk):
        hi = min(lo + chunk - 1, mi_max)
        mi = np.arange(lo, hi + 1, dtype=np.float64)
        t = (cprime - mi * wi) / wj
        base = np.rint(t)
        for off in range(-width, width + 1):
            mj = base + off if off else base
            s2 = t - mj
            np.square(s2, out=s2)
            s2 *= k2
            s2 += re2
            mod = np.abs(mi)
            mod += np.abs(mj)
            w = np.asarray(weight_fn(mod), dtype=np.float64)
            np.square(w, out=w)
            s2 *= w
            s2[(mod <= lo_mod) | (mod > N)] = np.inf
            k = int(np.argmin(s2))
            if s2[k] < best:
                best = float(s2[k])
                best_m = point(lo + k, int(mj[k]))
            if thr2 is not None and float(s2[k]) < thr2:
                for vi in np.flatnonzero(s2 < thr2):
                    state.violators.append(
                        (math.sqrt(float(s2[vi])), point(lo + int(vi), int(mj[vi]))))
    if best_m is not None:
        state.offer(math.sqrt(best), best_m)
    state.apply_floor(floor)


# ---------------------------------------------------------------------------
# non-resonance checks and fitting
# ---------------------------------------------------------------------------

def check_nr_omega(omega, kappa: float, G: ApproxFn, N: int) -> NrReport:
    """Is |<m, omega>| >= kappa / G(|m|) for all 0 < |m| <= N?

    Returns the verdict with the minimizing m and min |<m,omega>|*G(|m|).
    N = 0 is vacuous.
    """
    if N < 1:
        return NrReport(True, None, math.inf)
    score, m, _ = scan_min_weighted_distance(omega, N, G.value, thr=kappa)
    return NrReport(bool(score >= kappa), m, score)


def check_nr_alpha(alpha: complex, omega, kappa_prime: float, g: ApproxFn,
                   N: int) -> NrReport:
    """Is |alpha - i*pi*<m, omega>| >= kappa'/g(|m|) for all 0 < |m| <= N?"""
    if N < 1:
        return NrReport(True, None, math.inf)
    alpha = complex(alpha)
    score, m, _ = scan_min_weighted_distance(
        omega, N, g.value, target=alpha.imag, scale=math.pi,
        re_off=alpha.real, thr=kappa_prime)
    return NrReport(bool(score >= kappa_prime), m, score)


def check_nr_rho(rho: float, omega, kappa_prime: float, g: ApproxFn,
                 N: int) -> NrReport:
    """Real-line variant: |rho - pi*<m, omega>| >= kappa'/g(|m|)."""
    if N < 1:
        return NrReport(True, None, math.inf)
    score, m, _ = scan_min_weighted_distance(
        omega, N, g.value, target=float(rho), scale=math.pi, thr=kappa_prime)
    return NrReport(bool(score >= kappa_prime), m, score)


def fit_G(omega, N_max: int) -> tuple[float, TabulatedFn]:
    """Empirical (kappa, G): kappa = min_i |omega_i|,
    G(N) = max_{0<|m|<=N} kappa / |<m, omega>|.

    The returned step function carries the per-order minimizing m in its
    ``argmins`` attribute.  Values are inflated by 1e-12 relative so the
    reconstructed inequality survives round-off.
    """
    omega = np.asarray(omega, dtype=float)
    if N_max < 1:
        raise ValueError("N_max must be at least 1")
    kappa = float(np.min(np.abs(omega)))
    d = omega.shape[0]
    if l1_ball_size(N_max, d) > FULL_SCAN_LIMIT:
        raise ValueError("N_max too large for the tabulating scan")
    pts = l1_ball(N_max, d)
    mod = np.abs(pts).sum(axis=1)
    keep = mod > 0
    pts, mod = pts[keep], mod[keep]
    pairing = np.abs(pts.astype(float) @ omega)
    vals = np.empty(N_max, dtype=float)
    argmins = []
    best = math.inf
    best_m = None
    for n in range(1, N_max + 1):
        shell = mod == n
        if np.any(shell):
            sub = np.flatnonzero(shell)
            k = sub[np.argmin(pairing[sub])]
            if pairing[k] < best:
                best = pairing[k]
                best_m = tuple(int(v) for v in pts[k])
        if best == 0.0:
            raise ArithmeticError(
                f"frequencies are rationally dependent: <m, omega> = 0 at m = {best_m}")
        vals[n - 1] = kappa / best * (1.0 + 1e-12)
        argmins.append(best_m)
    return kappa, TabulatedFn(np.arange(1, N_max + 1), vals, argmins=argmins)


def fit_kappa(omega, G: ApproxFn, N_max: int) -> float:
    """Largest kappa with |<m, omega>| >= kappa/G(|m|) up to order N_max."""
    score, _, _ = scan_min_weighted_distance(omega, N_max, G.value, thr=None)
    return float(score)


# ---------------------------------------------------------------------------
# Brjuno-Russmann tail integrals
# ---------------------------------------------------------------------------

def _log_power_tail(lower: float, s: float) -> float:
    # integral of log(t)/t^s over [lower, inf)
    return lower ** (1.0 - s) * (math.log(lower) / (s - 1.0) + 1.0 / (s - 1.0) ** 2)


def tail_integral(f: ApproxFn, lower: float, exponent: float) -> float:
    """Integral of log f(t) / t^exponent over [lower, inf).

    Closed forms for the built-in kinds; the one quadrature piece carries a
    relative error below 1e-8.  Raises DivergentIntegral when the integral
    provably diverges.
    """
    if lower < 1.0:
        raise ValueError("lower limit must be >= 1")
    if exponent <= 1.0:
        raise ValueError("exponent must exceed 1")
    s = float(exponent)
    if isinstance(f, ProductFn):
        return tail_integral(f.f, lower, s) + tail_integral(f.g, lower, s)
    if isinstance(f, PowerFn):
        return f.mu * _log_power_tail(lower, s)
    if isinstance(f, ExpPowFn):
        if f.alpha >= s - 1.0:
            raise DivergentIntegral(
                f"exp(t^{f.alpha}) tail with exponent {s} diverges")
        return lower ** (f.alpha - s + 1.0) / (s - 1.0 - f.alpha)
    if isinstance(f, ExpLogFn):
        return _explog_tail(f.delta, lower, s)
    if isinstance(f, TabulatedFn):
        return _tabulated_tail(f, lower, s)
    raise TypeError(f"no tail integral rule for {type(f).__name__}")


def _explog_tail(delta: float, lower: float, s: float) -> float:
    if s < 2.0:
        raise DivergentIntegral(
            f"exp(t/log^{delta} t) tail with exponent {s} < 2 diverges")
    T = math.exp(delta)
    total = 0.0
    a = lower
    if a < T:
        # linear region: log f = t / delta^delta
        if s == 2.0:
            total += math.log(T / a) / delta ** delta
        else:
            total += (a ** (2.0 - s) - T ** (2.0 - s)) / ((s - 2.0) * delta ** delta)
        a = T
    if s == 2.0:
        total += math.log(a) ** (1.0 - delta) / (delta - 1.0)
        return total
    # substitute u = log t: integral of e^{(2-s)u} / u^delta over [log a, inf)
    val, err = integrate.quad(
        lambda u: math.exp((2.0 - s) * u) * u ** (-delta),
        math.log(a), np.inf, epsabs=0.0, epsrel=1e-11, limit=200)
    if val > 0 and err > 1e-8 * val:
        raise ArithmeticError("quadrature error above the certified bound")
    return total + val


def _tabulated_tail(f: TabulatedFn, lower: float, s: float) -> float:
    def seg(a: float, b: float) -> float:
        return (a ** (1.0 - s) - b ** (1.0 - s)) / (s - 1.0)

    total = 0.0
    ts, vals = f.ts, f.vals
    edges = np.concatenate([ts, [math.inf]])
    for i in range(len(ts)):
        a = max(lower, float(edges[i]))
        b = float(edges[i + 1])
        if b <= lower:
            continue
        logv = math.log(vals[i])
        if math.isinf(b):
            total += logv * a ** (1.0 - s) / (s - 1.0)
        else:
            total += logv * seg(a, b)
    if lower < ts[0]:
        total += math.log(vals[0]) * seg(lower, float(ts[0]))
    return total


# ---------------------------------------------------------------------------
# boundedness of g(t^2)/G(t)
# ---------------------------------------------------------------------------

def ratio_bounded(g: ApproxFn, G: ApproxFn, t_min: float = 1.0,
                  t_max: float = 1e6, samples: int = 512) -> tuple[bool, float]:
    """Decide whether t -> g(t^2)/G(t) is bounded on [t_min, inf).

    Built-in kind pairs are decided analytically; the returned estimate is
    the supremum over log-spaced samples of [t_min, t_max] (inf when the
    sampled log-ratio overflows).
    """
    if not 1.0 <= t_min < t_max:
        raise ValueError("need 1 <= t_min < t_max")
    bounded = _ratio_bounded_decision(g, G)
    ts = np.exp(np.linspace(math.log(t_min), math.log(t_max), samples))
    log_ratio = np.asarray(g.log_value(ts * ts), dtype=float) - np.asarray(
        G.log_value(ts), dtype=float)
    peak = float(np.max(log_ratio))
    sup_estimate = math.inf if peak > 709.0 else math.exp(peak)
    return bounded, sup_estimate


def _ratio_bounded_decision(g: ApproxFn, G: ApproxFn) -> bool:
    if isinstance(g, TabulatedFn):
        return True
    if isinstance(G, TabulatedFn):
        return False
    if isinstance(g, PowerFn):
        if isinstance(G, PowerFn):
            return 2.0 * g.mu <= G.mu
        return True  # polynomial against exponential-type growth
    if isinstance(g, ExpPowFn):
        if isinstance(G, PowerFn):
            return False
        if isinstance(G, ExpPowFn):
            return 2.0 * g.alpha <= G.alpha
        if isinstance(G, ExpLogFn):
            # g(t^2) = exp(t^{2 alpha}) versus exp(t / log^delta t)
            return 2.0 * g.alpha < 1.0
    if isinstance(g, ExpLogFn):
        return False  # g(t^2) grows like exp(t^2 / polylog), faster than any G here
    # generic monotone comparison at large arguments
    t_probe = np.array([1e6, 1e7, 1e8])
    diff = np.asarray(g.log_value(t_probe ** 2)) - np.asarray(G.log_value(t_probe))
    return bool(diff[-1] <= diff[0] and diff[-1] <= max(diff[0], 0.0) + 1e-9)
