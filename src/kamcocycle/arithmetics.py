"""Approximation functions and non-resonance scans.

An approximation function quantifies small-divisor bounds: a frequency
vector omega is non-resonant at level (kappa, G) when
|<m, omega>| >= kappa / G(|m|) for every nonzero integer vector m, and a
complex number alpha is non-resonant relative to omega at level
(kappa', g) up to order N when |alpha - i*pi*<m, omega>| >= kappa'/g(|m|)
for 0 < |m| <= N.  Both checks reduce to minimizing a weighted distance
over an l1 ball of lattice points.  At d <= 2 the inputs are floats, hence
dyadic rationals, and the gap target - scale <m, omega> is taken exactly
as an integer over a power of two: every candidate is scored from its
exact integer remainder, so only the float of the gap, the hypot and the
weight round.  The ball is scanned literally up to order SMALL_BALL; past
it, each slice of the lattice contributes only the few points nearest the
target, which is complete for violations, and a certified floor bounds
every point left out, so the reported minimum is a lower bound over the
whole ball.  The slices whose candidates can still matter are found by
exact integer arithmetic, band by band, so a d <= 2 scan to order N costs
O(log N log D + hits), D the common denominator.  At d >= 3 the ball is
scanned literally in floating point, up to FULL_SCAN_LIMIT points.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

import numpy as np

from .errors import KamFailure

FULL_SCAN_LIMIT = 2_000_000
# the largest order any scan or schedule takes: past it |m| and N leave the
# exact integer range of a float
MAX_ORDER = 2 ** 52
SMALL_BALL = 8

NrReport = namedtuple("NrReport", ["ok", "m", "value"])


class DivergentIntegral(KamFailure):
    """The requested Brjuno-type tail integral diverges."""


class ScanOrderTooLarge(KamFailure):
    """No lattice scan reaches the requested order in this dimension."""


# ---------------------------------------------------------------------------
# approximation functions
# ---------------------------------------------------------------------------

class ApproxFn:
    """Positive increasing function on [1, inf) with f(1) >= 1."""

    def value(self, t):
        return np.exp(self.log_value(t))

    def log_value(self, t):
        raise NotImplementedError

    def log_inverse(self, logx: float) -> float:
        if logx <= float(self.log_value(1.0)):
            return 1.0
        lo, hi = 0.0, 1.0  # bisection in u = log t
        top = math.log(np.finfo(float).max)  # exp(u) overflows past it
        while float(self.log_value(math.exp(hi))) < logx:
            if hi == top:
                raise KamFailure("inverse argument out of range")
            hi = min(2.0 * hi, top)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:  # adjacent floats: a fixed point of the loop
                break
            if float(self.log_value(math.exp(mid))) < logx:
                lo = mid
            else:
                hi = mid
        return math.exp(hi)


class PowerFn(ApproxFn):
    """t -> t^mu."""

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


class ExpPowFn(ApproxFn):
    """t -> exp(t^alpha), alpha in (0, 1]."""

    def __init__(self, alpha: float):
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = float(alpha)

    def log_value(self, t):
        return np.asarray(t, dtype=float) ** self.alpha

    def log_inverse(self, logx: float) -> float:
        return max(1.0, logx ** (1.0 / self.alpha))


class ExpLogFn(ApproxFn):
    """t -> exp(t / max(log t, delta)^delta), delta > 1.

    The raw expression t / (log t)^delta decreases on (1, e^delta); clamping
    the logarithm at delta keeps the function strictly increasing on [1, inf)
    while matching the asymptotic behaviour.
    """

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


class TabulatedFn:
    """fit_G's table: the step function t -> vals[i] on [ts[i], ts[i + 1]),
    constant outside the table, with the minimizing m of each order.

    Not an ApproxFn: it is not strictly increasing, so no schedule, tail
    integral or ratio test takes it.
    """

    def __init__(self, ts, vals, argmins):
        self.ts = np.asarray(ts, dtype=float)
        self.vals = np.asarray(vals, dtype=float)
        self.argmins = argmins

    def value(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.ts, t, side="right") - 1, 0, len(self.ts) - 1)
        return self.vals[idx] if t.ndim else float(self.vals[int(idx)])


class ProductFn(ApproxFn):
    """Pointwise product of two approximation functions (e.g. G*g)."""

    def __init__(self, f: ApproxFn, g: ApproxFn):
        self.f = f
        self.g = g

    def log_value(self, t):
        return self.f.log_value(t) + self.g.log_value(t)


def _parameter(obj: dict, name: str) -> float:
    v = obj[name]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{name} {v!r} is not a number")
    return v


def approxfn_from_spec(obj: dict) -> ApproxFn:
    """Parse a config's G or g: power, exppow, explog, or a product of these,
    each parameter a JSON number (not a boolean)."""
    kind = obj["kind"]
    if kind == "power":
        return PowerFn(_parameter(obj, "mu"))
    if kind == "exppow":
        return ExpPowFn(_parameter(obj, "alpha"))
    if kind == "explog":
        return ExpLogFn(_parameter(obj, "delta"))
    if kind == "product":
        return ProductFn(approxfn_from_spec(obj["f"]), approxfn_from_spec(obj["g"]))
    raise ValueError(f"unknown approximation function kind: {kind!r}")


# ---------------------------------------------------------------------------
# lattice scans
# ---------------------------------------------------------------------------

def l1_ball(N: int, d: int) -> np.ndarray:
    """All integer points with l1 norm <= N, in lexicographic order."""
    first = np.arange(-N, N + 1, dtype=np.int64)
    if d == 1:
        return first[:, None]
    rest = [l1_ball(N - abs(m1), d - 1) for m1 in range(-N, N + 1)]
    return np.column_stack([np.repeat(first, [len(r) for r in rest]), np.vstack(rest)])


def _punctured(pts):
    return pts[np.abs(pts).sum(axis=1) > 0]


# the exact part of every d <= 2 scan past order SMALL_BALL
_SMALL_BALLS = [_punctured(l1_ball(SMALL_BALL, d)) for d in (1, 2)]
for _ball in _SMALL_BALLS:
    _ball.flags.writeable = False


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

    No scan passes MAX_ORDER.  Below it d <= 2 has a windowed scan at every
    order; past d = 2 only the exhaustive l1 ball exists, and it is capped
    at FULL_SCAN_LIMIT points.
    """
    if N > MAX_ORDER:
        raise ScanOrderTooLarge(f"order {N} exceeds the exact integer range 2^52")
    if d > 2 and l1_ball_size(N, d) > FULL_SCAN_LIMIT:
        raise ScanOrderTooLarge(
            f"the l1 ball of order {N} in d = {d} exceeds the "
            f"{FULL_SCAN_LIMIT:,}-point exhaustive scan")


def _integer_form(omega, target, scale):
    """(T, SW, D): the integers with target - scale <m, omega> = (T - <m, SW>) / D
    exactly, D a power of two (the float inputs are dyadic rationals)."""
    sn, sd = float(scale).as_integer_ratio()
    ratios = [float(target).as_integer_ratio()] + [
        (sn * wn, sd * wd) for wn, wd in (float(w).as_integer_ratio() for w in omega)]
    D = max(den for _, den in ratios)
    T, *SW = (num * (D // den) for num, den in ratios)
    return T, SW, D


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

    def update(self, points, dist, w):
        """Score dist * w; a violator has dist < thr / w.  A weight that
        overflows to inf leaves its points unscored (inf) and never violating."""
        with np.errstate(invalid="ignore"):
            scores = dist * w
        scores[np.isnan(scores)] = np.inf  # 0 * inf
        i = _lex_min(points, scores)
        self.offer(float(scores[i]), tuple(int(v) for v in points[i]))
        if self.thr is not None:
            bad = dist < self.thr / w
            self.violators.extend(zip(scores[bad].tolist(), map(tuple, points[bad].tolist())))

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
    up to N at d >= 3 (ScanOrderTooLarge past FULL_SCAN_LIMIT points).  A
    violator has hypot(...) < thr / weight(|m|); the scan is complete for
    them.  Returns (min_score, argmin_m, violators sorted by score then lex
    order).

    At d <= 2 every score is taken from the exact integer remainder of the
    gap (_integer_form), so only the float of the gap, the hypot, the
    weight and their product round: the score lies within a relative 2^-50
    of hypot(re_off, gap) * w, gap the exact target - scale <m, omega> of
    the float inputs and w the float weight(|m|).  At d >= 3 the gap is the
    float pairing.
    """
    omega = np.asarray(omega, dtype=float)
    d = omega.shape[0]
    N = int(N)
    if N < 1:
        return math.inf, None, []
    check_scan_order(N, d)
    state = _ScanState(thr)
    if d <= 2:
        nb = min(N, SMALL_BALL)
        pts = _SMALL_BALLS[d - 1] if nb == SMALL_BALL else _punctured(l1_ball(nb, d))
        T, SW, D = form = _integer_form(omega, target, scale)
        gaps = ((T - pts.astype(object) @ np.array(SW, dtype=object)) / D).astype(float)
    else:
        nb = N
        pts = _punctured(l1_ball(N, d))
        gaps = target - scale * (pts.astype(float) @ omega)
    mod = np.abs(pts).sum(axis=1).astype(float)
    state.update(pts, np.hypot(re_off, gaps), np.asarray(weight_fn(mod), dtype=float))
    if nb < N:
        _slice_scan(state, omega, form, N, weight_fn, target, scale, re_off, thr, nb)
    state.violators.sort()
    return state.best_score, state.best_m, state.violators


def _slice_scan(state, omega, form, N, weight_fn, target, scale, re_off, thr,
                lo_mod):
    """Orders lo_mod < |m| <= N at d <= 2: a window of candidates per
    slice, and a certified floor for everything else.

    The slices run over the coordinate m_i of the smaller frequency (a
    single slice at d = 1).  With the integer form (T, SW, D) of the gap,
    slice m_i holds the candidates m_j within width of the one that leaves
    the smallest remainder R = T - SW_i m_i - SW_j m_j, and each scores
    from hypot(re_off, R / D) exactly like the exhaustive ball.  A
    candidate left out lies at least width + 1/2 lattice spacings off the
    target line, so it scores at least the floor.  With thr <= spacing the
    nearest candidate alone (width 0) is complete for violations, since the
    floor spacing * weight(lo_mod + 1) is >= thr; a wider violation window
    gets width >= thr / (2 spacing) + 3/2, so the floor is >= thr + 3
    spacing.  The floor also caps the reported minimum, making it a
    certified lower bound over the whole range.

    The slices are not visited one by one.  They come in bands lo <= |m_i|
    <= hi (slice 0, then hi = 2 lo - 1), whose candidates weigh at least
    w_lo = weight(max(lo, lo_mod + 1)).  A candidate of the band can still
    score at most the best so far, or violate, only if its remainder |R| is
    at most the window W of _band_window.  Below half the modulus A = |SW_j|
    only a slice's nearest candidate can pass, so the band's slices with
    dist(T - SW_i m_i, A Z) <= W, found exactly by _window_hits, are scored
    and the others cannot change the result; a window of half the modulus
    or more holds every slice.  This costs O(log N log A + hits), the
    result is that of scoring every slice, and exact ties go to the
    lexicographically smaller m.
    """
    T, SW, D = form
    d = omega.shape[0]
    j = int(np.argmax(np.abs(omega)))
    wj = omega[j]
    wi = omega[1 - j] if d == 2 else 0.0
    P = SW[1 - j] if d == 2 else 0
    A, sign = abs(SW[j]), (1 if SW[j] > 0 else -1)
    h = A // 2
    spacing = 0.5 * scale * abs(wj)
    u = 0.0 if thr is None else thr / (2.0 * spacing)
    if u > 0.5:
        width = min(int(math.ceil(u + 0.5)) + 1, 64)
        floor = width * 2.0 * spacing * float(weight_fn(float(lo_mod + 1)))
    else:
        width = 0
        floor = spacing * float(weight_fn(float(lo_mod + 1)))
    cprime = target / scale
    mi_max = 0 if d == 1 else min(N, int((N + 0.5 + abs(cprime) / abs(wj))
                                         / (1.0 + abs(wi / wj))) + 2 + width)
    cols = [1] if d == 1 else [0, 1] if j == 1 else [1, 0]  # (m_i, m_j) -> m

    def score(slices, W):
        # the candidates with remainder at most W, 2^16 slices at a time
        slices = iter(slices)
        while batch := list(itertools.islice(slices, 1 << 16)):
            mis, mjs, gaps = [], [], []
            for mi in batch:
                X = T - P * mi
                y = (X + h) // A  # X - A y is the smallest remainder
                for k in range(max(y - width, -((W - X) // A)),
                               min(y + width, (X + W) // A) + 1):
                    mis.append(mi)
                    mjs.append(sign * k)
                    gaps.append((X - A * k) / D)
            pts = np.array([mis, mjs], dtype=np.int64).T[:, cols]
            mod = np.abs(pts).sum(axis=1)
            keep = (mod > lo_mod) & (mod <= N)
            if keep.any():
                state.update(pts[keep], np.hypot(re_off, np.array(gaps)[keep]),
                             np.asarray(weight_fn(mod[keep].astype(float)), dtype=float))

    lo = 0
    while lo <= mi_max:
        hi = min(max(2 * lo - 1, lo), mi_max)
        w_lo = float(weight_fn(float(max(lo, lo_mod + 1))))
        W = min(_band_window(state, w_lo, re_off, thr, D), (width + 1) * A)
        if W >= 0:
            for a, b in ((-hi, -lo), (lo, hi)) if lo else ((0, 0),):
                score(_window_hits(T, P, A, a, b - a + 1, W), W)
        lo = hi + 1
    state.apply_floor(floor)


def _band_window(state, w_lo, re_off, thr, D):
    """A bound W on the remainder |R| of every candidate of weight >= w_lo
    that can still score at most state.best_score or violate thr: -1 if
    none can, inf if all can.

    Such a candidate has dist * w_lo <= best or dist < thr / w_lo, dist =
    hypot(re_off, R / D), two tests monotone in |R|.  W starts from the
    float estimate sqrt(y^2 - re_off^2) D, y the largest dist they admit,
    rounded up by one ulp, and steps up until the remainder W + 1 fails
    both tests, so no candidate past W passes them.
    """
    lim = -math.inf if thr is None else thr / w_lo

    def matters(r):
        dist = float(np.hypot(re_off, r / D))
        return dist * w_lo <= state.best_score or dist < lim

    if not matters(0):
        return -1
    y, re = max(state.best_score / w_lo, lim), abs(re_off)
    gap = math.sqrt(max(y - re, 0.0)) * math.sqrt(y + re)
    if gap == math.inf:
        return math.inf
    gn, gd = math.nextafter(gap, math.inf).as_integer_ratio()
    W = gn * D // gd
    step = max(1, W >> 52)
    while matters(W + 1):
        W, step = W + step, 2 * step
    return W


def _window_hits(C, P, D, start, n, W):
    """Yield the integers x in [start, start + n) with dist(C - P x, D Z)
    <= W, ascending.

    Each hit, and the end, costs one _first_hit descent; a window of half
    of D or more holds every x.
    """
    if W >= D // 2:
        yield from range(start, start + n)
        return
    a = -P % D
    b = (C - P * start + W) % D  # dist <= W iff (a y + b) % D <= 2 W, x = start + y
    y = 0
    while y < n:
        step = _first_hit(a, b, D, 2 * W, n - y)
        if step is None:
            return
        y += step
        yield start + y
        y += 1
        b = (b + a * (step + 1)) % D


def _first_hit(a, b, m, w, n):
    """Smallest y in [0, n) with (a y + b) % m <= w, or None (n >= 1,
    0 <= a, b, w < m).

    Values below w occur only just after a y + b wraps past a multiple k m
    of m, at y = ceil((k m - b) / a) with value (b - k m) % a, so the
    smallest k is the same problem with modulus a, over the k whose wrap
    falls before n.  Reflecting a > m/2 to m - a (v <= w iff (w - v) % m
    <= w) at least halves the modulus at every level, and the window
    shrinks by the factor a / m: O(min(log m, log n)) levels, like
    Euclid's algorithm.
    """
    levels = []
    while b > w:
        if 2 * a > m:
            a, b = m - a, (w - b) % m
        n = (a * (n - 1) + b) // m  # wraps k = 1..n fall before the end
        if n == 0:
            return None
        levels.append((a, b, m))
        if w + 1 >= a:
            break  # the first wrap lands at or below w
        a, b, m = -m % a, (b - m) % a, a
    y = 0  # the smallest k - 1 of the level above
    for a, b, m in reversed(levels):
        y = ((y + 1) * m - b + a - 1) // a
    return y


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


def fit_G(omega, N_max: int) -> tuple[float, TabulatedFn]:
    """Empirical (kappa, G): kappa = min_i |omega_i|,
    G(N) = max_{0<|m|<=N} kappa / |<m, omega>|.

    The returned step function carries the per-order minimizing m in its
    ``argmins`` attribute.  Values are inflated by 1e-12 relative so the
    reconstructed inequality survives round-off.
    """
    omega = np.asarray(omega, dtype=float)
    if N_max < 1:
        raise KamFailure("N_max must be at least 1")
    kappa = float(np.min(np.abs(omega)))
    d = omega.shape[0]
    if l1_ball_size(N_max, d) > FULL_SCAN_LIMIT:
        raise ScanOrderTooLarge("N_max too large for the tabulating scan")
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
            raise KamFailure(
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
    """Integral of log f(t) / t^exponent over [lower, inf), in closed form.

    Raises DivergentIntegral when the integral diverges.  An explog tail is
    evaluated at exponent 2 only: it diverges below 2, and above 2 no
    caller needs it (ValueError).
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
    raise TypeError(f"no tail integral rule for {type(f).__name__}")


def _explog_tail(delta: float, lower: float, s: float) -> float:
    if s < 2.0:
        raise DivergentIntegral(
            f"exp(t/log^{delta} t) tail with exponent {s} < 2 diverges")
    if s > 2.0:
        raise ValueError("an explog tail is evaluated at exponent 2 only")
    T = math.exp(delta)
    total = 0.0
    a = lower
    if a < T:
        # linear region: log f = t / delta^delta
        total += math.log(T / a) / delta ** delta
        a = T
    return total + math.log(a) ** (1.0 - delta) / (delta - 1.0)


# ---------------------------------------------------------------------------
# boundedness of g(t^2)/G(t)
# ---------------------------------------------------------------------------

# the sampled range [t_min, RATIO_T_MAX] of ratio_bounded's estimate
RATIO_T_MAX = 1e6
RATIO_SAMPLES = 512


def ratio_bounded(g: ApproxFn, G: ApproxFn, t_min: float = 1.0) -> tuple[bool, float]:
    """Decide whether t -> g(t^2)/G(t) is bounded on [t_min, inf).

    Built-in kind pairs are decided analytically; the returned estimate is
    the supremum over RATIO_SAMPLES log-spaced samples of [t_min,
    RATIO_T_MAX] (inf when the sampled log-ratio overflows).
    """
    if not 1.0 <= t_min < RATIO_T_MAX:
        raise ValueError("need 1 <= t_min < RATIO_T_MAX")
    bounded = _ratio_bounded_decision(g, G)
    ts = np.exp(np.linspace(math.log(t_min), math.log(RATIO_T_MAX), RATIO_SAMPLES))
    log_ratio = np.asarray(g.log_value(ts * ts), dtype=float) - np.asarray(
        G.log_value(ts), dtype=float)
    peak = float(np.max(log_ratio))
    sup_estimate = math.inf if peak > 709.0 else math.exp(peak)
    return bounded, sup_estimate


def _ratio_bounded_decision(g: ApproxFn, G: ApproxFn) -> bool:
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
