import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from kamcocycle import arithmetics
from kamcocycle.arithmetics import (
    SMALL_BALL,
    DivergentIntegral,
    ExpLogFn,
    ExpPowFn,
    PowerFn,
    ProductFn,
    TabulatedFn,
    approxfn_from_spec,
    check_nr_alpha,
    check_nr_omega,
    fit_G,
    fit_kappa,
    l1_ball,
    ratio_bounded,
    scan_min_weighted_distance,
    tail_integral,
)
from kamcocycle.errors import KamFailure

GOLDEN = np.array([1.0, 0.5 * (1.0 + np.sqrt(5.0))])


# -- approximation functions ------------------------------------------------

def test_approxfn_basics_and_inverse_roundtrip():
    fns = [PowerFn(2.0), PowerFn(3.5), ExpPowFn(0.5), ExpPowFn(0.9), ExpLogFn(2.0),
           ProductFn(PowerFn(2.0), PowerFn(2.0))]
    for f in fns:
        assert f.value(1.0) >= 1.0
        ts = np.exp(np.linspace(0, math.log(1e6), 40))
        lv = np.asarray(f.log_value(ts))
        assert np.all(np.diff(lv) > 0), f"not increasing: {f}"
        for t in [1.0, 2.0, 17.3, 1e3, 1e6]:
            logx = float(f.log_value(t))
            back = f.log_inverse(logx)
            assert back == pytest.approx(t, rel=1e-9)


def bisection_200(f, logx):
    """The inverse by 200 bisection steps in u = log t, never stopping early."""
    if logx <= float(f.log_value(1.0)):
        return 1.0
    lo, hi = 0.0, 1.0
    while float(f.log_value(math.exp(hi))) < logx:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(f.log_value(math.exp(mid))) < logx:
            lo = mid
        else:
            hi = mid
    return math.exp(hi)


@pytest.mark.parametrize("f, t_min", [
    (ProductFn(PowerFn(2.0), PowerFn(2.0)), 1.0),
    (ProductFn(PowerFn(2.0), ExpPowFn(0.5)), 1.0),
    (ProductFn(PowerFn(1.5), ExpLogFn(2.0)), math.exp(2.0)),  # past the breakpoint
    (ProductFn(ExpPowFn(0.3), PowerFn(4.0)), 1.0),
])
def test_log_inverse_equals_200_step_bisection(f, t_min):
    # the bisection stops once the bracket is two adjacent floats, a fixed
    # point of its loop, so the result is that of all 200 steps
    rng = np.random.default_rng(11)
    lo = float(f.log_value(t_min))
    for logx in lo + np.exp(rng.uniform(-8.0, 6.0, 300)):
        assert f.log_inverse(float(logx)) == bisection_200(f, float(logx))


def test_log_inverse_stays_in_the_float_range():
    # the bracket stops doubling where exp(u) would overflow: an inverse
    # below the largest float is found, one past it is a KamFailure
    f = ProductFn(PowerFn(0.5), PowerFn(0.5))  # log f(t) = log t
    assert f.log_inverse(690.0) == pytest.approx(math.exp(690.0), rel=1e-12)
    with pytest.raises(KamFailure, match="out of range"):
        f.log_inverse(710.0)


def test_explog_monotone_near_origin():
    f = ExpLogFn(1.5)
    ts = np.linspace(1.0, 30.0, 500)
    vals = f.value(ts)
    assert np.all(np.diff(vals) > 0)
    assert f.value(1.0) >= 1.0


def test_approxfn_spec_roundtrip():
    specs = [({"kind": "power", "mu": 2.5}, PowerFn(2.5)),
             ({"kind": "exppow", "alpha": 0.3}, ExpPowFn(0.3)),
             ({"kind": "explog", "delta": 3}, ExpLogFn(3.0)),
             ({"kind": "product", "f": {"kind": "power", "mu": 2},
               "g": {"kind": "exppow", "alpha": 0.5}},
              ProductFn(PowerFn(2.0), ExpPowFn(0.5)))]
    for spec, f in specs:
        g = approxfn_from_spec(spec)
        assert type(g) is type(f)
        for t in [1.0, 7.0, 1e4]:
            assert float(g.log_value(t)) == float(f.log_value(t))


# -- NR scans -----------------------------------------------------------------

def brute_min(omega, N, weight, target=0.0, scale=1.0, re_off=0.0):
    pts = l1_ball(N, len(omega))
    pts = pts[np.abs(pts).sum(axis=1) > 0]
    pairing = pts @ omega
    dist = np.hypot(re_off, target - scale * pairing)
    scores = dist * weight(np.abs(pts).sum(axis=1).astype(float))
    i = np.argmin(scores)
    return scores[i], tuple(pts[i])


def test_l1_ball_lexicographic():
    for d, orders in ((1, range(6)), (2, range(12)), (3, range(5))):
        for N in orders:
            box = itertools.product(range(-N, N + 1), repeat=d)
            expected = [p for p in box if sum(abs(v) for v in p) <= N]
            ball = l1_ball(N, d)
            assert ball.dtype == np.int64 and [tuple(p) for p in ball.tolist()] == expected


def test_check_nr_omega_golden():
    rep = check_nr_omega(GOLDEN, kappa=0.2, G=PowerFn(2.0), N=50)
    assert rep.ok
    score, _ = brute_min(GOLDEN, 50, PowerFn(2.0).value)
    assert rep.value == pytest.approx(score, rel=1e-12)


def test_check_nr_omega_rational_dependence():
    rep = check_nr_omega(np.array([1.0, 0.5]), kappa=1e-6, G=PowerFn(2.0), N=5)
    assert not rep.ok
    assert rep.m in [(1, -2), (-1, 2)]
    assert rep.value == 0.0


def test_check_nr_omega_vacuous():
    rep = check_nr_omega(GOLDEN, kappa=1.0, G=PowerFn(2.0), N=0)
    assert rep.ok and rep.m is None


def test_scan_matches_bruteforce_random():
    rng = np.random.default_rng(101)
    g = PowerFn(2.0)
    for _ in range(40):
        omega = np.array([1.0, rng.uniform(1.1, 2.5)])
        alpha = complex(rng.normal(scale=0.2), rng.uniform(0, 6))
        N = int(rng.integers(2, 9))
        score, m, _ = scan_min_weighted_distance(
            omega, N, g.value, target=alpha.imag, scale=math.pi, re_off=alpha.real,
            thr=0.5)
        bscore, _ = brute_min(omega, N, g.value, target=alpha.imag,
                              scale=math.pi, re_off=alpha.real)
        assert score == pytest.approx(bscore, rel=1e-12)


def test_windowed_scan_agrees_with_bruteforce():
    # force the windowed path with a large N and compare violation verdicts
    g = PowerFn(2.0)
    target = math.pi * (2 * GOLDEN[0] + GOLDEN[1])
    alpha = 1j * (target + 1e-9)
    repN = check_nr_alpha(alpha, GOLDEN, 1e-6, g, N=1500)
    assert not repN.ok
    assert repN.m in [(2, 1)]
    # non-resonant alpha stays non-resonant in the windowed regime
    rep2 = check_nr_alpha(0.5 + 0.0j, GOLDEN, 0.2, g, N=1500)
    assert rep2.ok


@pytest.mark.parametrize("d", [1, 2])
def test_slice_scan_matches_bruteforce_random(d):
    # past SMALL_BALL the scan visits a window of candidates per slice and
    # caps its minimum with a certified floor; against the full l1 ball it
    # must find the same violators and verdict, and report a minimum no
    # larger than the true one (equal to it unless the floor binds).  Slow
    # weights put the floor within reach of thr and of the true minimum.
    rng = np.random.default_rng(7 + d)
    windows = set()
    resonant = floored = 0
    for case in range(90):
        g = PowerFn(float(rng.choice([0.25, 1.0, 2.0])))
        if d == 2:
            omega = np.array([1.0, rng.uniform(1.1, 2.5)])
        else:
            omega = np.array([rng.uniform(0.5, 2.5)])
        N = int(rng.integers(SMALL_BALL + 1, 301))
        spacing = 0.5 * math.pi * np.abs(omega).max()
        thr = spacing * 10.0 ** rng.uniform(-3.0, 1.0)
        kind = case % 3
        if kind == 0:
            # put alpha near a lattice point past the exact ball
            m0 = rng.integers(-N // 2, N // 2 + 1, size=d)
            mod0 = max(int(np.abs(m0).sum()), 1)
            off = thr / float(g.value(mod0)) * rng.uniform(0.0, 1.5)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            alpha = complex(off * math.cos(phase),
                            math.pi * float(m0 @ omega) + off * math.sin(phase))
        elif kind == 1:
            alpha = complex(rng.normal(scale=0.2), rng.uniform(0.0, 6.0))
        else:
            # large real part, target line past the exact ball: a lower-order
            # neighbour of a slice's nearest candidate often holds the minimum
            alpha = complex(spacing * rng.uniform(3.0, 20.0), rng.uniform(80.0, 200.0))
        target, re_off = alpha.imag, alpha.real
        score, _, violators = scan_min_weighted_distance(
            omega, N, g.value, target=target, scale=math.pi, re_off=re_off, thr=thr)
        pts = l1_ball(N, d)
        pts = pts[np.abs(pts).sum(axis=1) > 0]
        bscores = np.hypot(re_off, target - math.pi * (pts @ omega)) \
            * g.value(np.abs(pts).sum(axis=1).astype(float))
        bmin = float(bscores.min())
        assert {m for _, m in violators} == \
            {tuple(int(v) for v in p) for p in pts[bscores < thr]}
        assert (score >= thr) == (bmin >= thr)
        # a few ulps of the pairing's cancellation, weighted at order N
        tol = 1e-15 * (abs(target) + math.pi * N * np.abs(omega).max()) \
            * float(g.value(N))
        assert score <= bmin + tol
        u = thr / (2.0 * spacing)
        width = 0 if u <= 0.5 else min(math.ceil(u + 0.5) + 1, 64)
        floor = (2 * width if width else 1) * spacing * float(g.value(SMALL_BALL + 1))
        if bmin < floor:
            assert score == pytest.approx(bmin, abs=tol)
        windows.add(width > 0)
        resonant += bool(violators)
        floored += bmin >= floor
    assert windows == {False, True}
    assert resonant >= 5 and floored >= 5


def test_slice_scan_floor_covers_skipped_minimum():
    # t = 11.6 puts m = 12 nearest the target, but with re_off = 8 and
    # g = t^(1/4) the skipped neighbour m = 11 scores lower (14.97 against
    # 15.07): the reported minimum is the floor 0.5 pi g(9), below both
    g = PowerFn(0.25)
    omega = np.array([1.0])
    target = math.pi * 11.6
    score, m, _ = scan_min_weighted_distance(omega, 20, g.value, target=target,
                                             scale=math.pi, re_off=8.0)
    bscore, bm = brute_min(omega, 20, g.value, target=target, scale=math.pi, re_off=8.0)
    assert bm == (11,) and m == (12,)
    assert score == 0.5 * math.pi * float(g.value(9.0)) < bscore


def _linear_slice_scan(state, omega, form, N, weight_fn, target, scale, re_off, thr,
                       lo_mod):
    # test-only exact linear copy of _slice_scan: no band and no window.
    # Every slice -mi_max..mi_max gets its nearest m_j and its remainder
    # R = T - SW_i m_i - SW_j m_j in Python ints (object arrays), and every
    # candidate is scored from its own remainder
    T, SW, D = form
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
    cprime = target / scale
    mi_max = 0 if d == 1 else min(N, int((N + 0.5 + abs(cprime) / abs(wj))
                                         / (1.0 + abs(wi / wj))) + 2 + width)
    P, A, sign = (SW[1 - j] if d == 2 else 0), abs(SW[j]), (1 if SW[j] > 0 else -1)
    for lo in range(-mi_max, mi_max + 1, 1 << 16):
        mi = np.arange(lo, min(lo + (1 << 16), mi_max + 1))
        X = T - P * mi.astype(object)  # Python ints
        near = (X + A // 2) // A  # the m_j (times sign) of the smallest remainder
        R = X - A * near
        near = near.astype(np.int64)
        for off in range(-width, width + 1):
            mj = sign * (near + off)
            pts = np.column_stack([mj] if d == 1 else [mi, mj] if j == 1 else [mj, mi])
            mod = np.abs(pts).sum(axis=1)
            keep = (mod > lo_mod) & (mod <= N)
            if keep.any():
                gaps = (R[keep] - off * A).astype(float) / D  # D a power of two
                state.update(pts[keep], np.hypot(re_off, gaps),
                             np.asarray(weight_fn(mod[keep].astype(float)), dtype=float))
    state.apply_floor(floor)


def _scan_cases(d, rng):
    weights = [PowerFn(0.25), PowerFn(1.0), PowerFn(2.0), PowerFn(4.0), ExpPowFn(0.5)]
    for case in range(40):
        g = weights[case % 5]
        u = rng.uniform(1.1, 2.5)
        omega = np.array([u]) if d == 1 else \
            np.array([1.0, u]) if case % 2 else np.array([u, -1.0])
        N = int(10.0 ** rng.uniform(1.0, 6.0)) if case % 10 else 10 ** 6 - case
        spacing = 0.5 * math.pi * np.abs(omega).max()
        kind = case % 4
        if kind == 0:
            # check_nr_omega: score(m) = score(-m) ties at target 0
            target, scale, re_off, thr = 0.0, 1.0, 0.0, 10.0 ** rng.uniform(-6.0, 0.0)
        elif kind == 1:
            # check_nr_alpha below spacing (width 0)
            target, scale = rng.uniform(0.0, 60.0), math.pi
            re_off, thr = abs(rng.normal(scale=0.05)), spacing * 10.0 ** rng.uniform(-4.0, 0.0)
        elif kind == 2:
            # a rotation number's check above spacing (width 3 or 4)
            target, scale = rng.uniform(0.0, 60.0), math.pi
            re_off, thr = 0.0, spacing * 10.0 ** rng.uniform(0.0, 0.5)
        else:
            # large real part, target line past the exact ball: the floor
            # binds for slow weights
            target, scale = rng.uniform(80.0, 200.0), math.pi
            re_off, thr = spacing * rng.uniform(3.0, 20.0), spacing * rng.uniform(0.1, 1.0)
        yield g, omega, N, target, scale, re_off, thr
    if d == 2:
        # rational omega: every other slice hits exactly, far more than the
        # equidistributed estimate, and every hit is a violator
        yield PowerFn(2.0), np.array([1.0, 0.5]), 30000, 0.0, 1.0, 0.0, 1e-9


@pytest.mark.parametrize("d", [1, 2])
def test_slice_scan_matches_linear_scan_copy(d, monkeypatch):
    # the band-enumerating scan returns exactly what scoring every slice
    # returns: value, argmin and violators, bit for bit
    calls = {"enumerated": 0, "hits": 0}
    window_hits = arithmetics._window_hits

    def counting_window_hits(*args):
        hits = list(window_hits(*args))
        calls["enumerated"] += 1
        calls["hits"] += len(hits)
        return hits

    monkeypatch.setattr(arithmetics, "_window_hits", counting_window_hits)
    floored = ties = 0
    for g, omega, N, target, scale, re_off, thr in _scan_cases(d, np.random.default_rng(2024 + d)):
        args = (omega, N, g.value)
        kw = dict(target=target, scale=scale, re_off=re_off, thr=thr)
        with np.errstate(over="ignore", invalid="ignore"):
            score, m, violators = scan_min_weighted_distance(*args, **kw)
            with monkeypatch.context() as mp:
                mp.setattr(arithmetics, "_slice_scan", _linear_slice_scan)
                lscore, lm, lviolators = scan_min_weighted_distance(*args, **kw)
        assert (score, m, violators) == (lscore, lm, lviolators), (omega, N, target)
        mod = sum(abs(v) for v in m)
        own = math.hypot(re_off, target - scale * float(np.dot(m, omega))) \
            * float(g.value(float(mod)))
        floored += score < 0.999 * own
        ties += target == 0.0 and mod > SMALL_BALL
    if d == 2:
        assert calls["enumerated"] >= 50 and calls["hits"] >= 5
        assert floored >= 3 and ties >= 3


def test_slice_scan_keeps_violators_beside_overflowed_weight():
    # omega = (1, 1/2): every even slice m_i meets the target 0 exactly.  An
    # exact hit scores 0 and violates whatever its weight, up to |m| = 708;
    # past |m| = 709 the weight exp(|m|) itself overflows, and d * w = 0 *
    # inf is no score, in the scan as in the brute force (a squared weight
    # used to drop every hit past |m| = 354)
    omega, g, N, thr = np.array([1.0, 0.5]), ExpPowFn(1.0), 800, 1e-3
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, violators = scan_min_weighted_distance(omega, N, g.value, thr=thr)
        pts = l1_ball(N, 2)
        pts = pts[np.abs(pts).sum(axis=1) > 0]
        scores = np.abs(pts @ omega) * g.value(np.abs(pts).sum(axis=1).astype(float))
    assert {m for _, m in violators} == {tuple(int(v) for v in p) for p in pts[scores < thr]}
    assert max(abs(m[0]) + abs(m[1]) for _, m in violators) == 708


def _brute_window_hits(C, P, D, start, n, W):
    return [x for x in range(start, start + n)
            if min((C - P * x) % D, (P * x - C) % D) <= W]


def test_window_hits_match_bruteforce():
    rng = np.random.default_rng(17)
    for case in range(300):
        if case % 2:
            # any modulus and window, ranges longer than a period
            D = int(rng.integers(2, 400))
            P, C = int(rng.integers(-2 * D, 2 * D)), int(rng.integers(-2 * D, 2 * D))
            W = int(rng.integers(0, D))
            start, n = int(rng.integers(-1000, 1000)), int(rng.integers(1, 3 * D))
        else:
            # the dyadic quotients of float frequencies and targets
            ratio = 1.0 / GOLDEN[1] if case % 4 else rng.uniform(1.1, 2.5) / 1.0
            c = rng.uniform(-50.0, 50.0) / (GOLDEN[1] if case % 4 else 1.0)
            (pn, pd), (cn, cd) = ratio.as_integer_ratio(), c.as_integer_ratio()
            D = max(pd, cd)
            P, C = pn * (D // pd), cn * (D // cd)
            W = int(rng.uniform(0.0, 0.05) * D)
            start = int(rng.integers(-10 ** 9, 10 ** 9))
            n = int(rng.integers(1, 2000))
        assert list(arithmetics._window_hits(C, P, D, start, n, W)) == \
            _brute_window_hits(C, P, D, start, n, W), (C, P, D, start, n, W)


def test_first_hit_matches_bruteforce():
    rng = np.random.default_rng(19)
    for _ in range(2000):
        m = int(rng.integers(1, 300))
        a, b, w = (int(v) for v in rng.integers(0, m, size=3))
        n = int(rng.integers(1, 2 * m))
        hits = [y for y in range(n) if (a * y + b) % m <= w]
        assert arithmetics._first_hit(a, b, m, w, n) == (hits[0] if hits else None)
    # a multiplier next to the modulus: reflected to 1, not subtracted 2^60 times
    m = 2 ** 60
    assert arithmetics._first_hit(m - 1, m - 1, m, 0, m) == m - 1
    assert arithmetics._first_hit(m - 1, m - 1, m, 0, m - 1) is None


def _exact_score(m, omega, weight_fn, target, scale, re_off):
    # the square of hypot(re_off, target - scale <m, omega>) * weight(|m|),
    # in exact rationals on the float inputs
    gap = Fraction(target) - Fraction(scale) * sum(
        mk * Fraction(float(w)) for mk, w in zip(m, omega))
    w = Fraction(float(weight_fn(float(sum(abs(v) for v in m)))))
    return (Fraction(re_off) ** 2 + gap ** 2) * w * w


def test_scan_rescans_step_50_of_the_deep_ladder():
    # step 50 of the golden-mean Schrodinger ladder (kappa = 1, G = g = t^2,
    # alpha = 2.5 i): its float score put m = (-77089219, 47643758) at 0.0,
    # ulp(t) being wider than the true gap, and the run stopped at a false
    # resonance.  Exactly, that m lies 6.2e-10 off the target line
    N, g = 125_438_947, PowerFn(2.0)
    thr = 1.0 / (4.0 * float(g.value(N)))
    _, _, violators = scan_min_weighted_distance(
        GOLDEN, N, g.value, target=2.5, scale=math.pi, re_off=-0.0, thr=thr)
    assert violators == []
    assert _exact_score((-77089219, 47643758), GOLDEN, g.value, 2.5, math.pi, 0.0) \
        > Fraction(thr) ** 2


def test_scan_scores_within_rounding_bound():
    # every d <= 2 score is hypot(re_off, gap) * weight(|m|) of the exact
    # gap of the float inputs, to a relative 2^-50: checked on the violators
    # of targets placed next to a lattice point far past the exact ball
    rng = np.random.default_rng(31)
    g = PowerFn(1.0)
    checked = 0
    for case in range(30):
        omega = GOLDEN if case % 2 else np.array([rng.uniform(0.5, 2.5)])
        N = int(10.0 ** rng.uniform(3.0, 9.0))
        m0 = [int(rng.integers(N // 8, N // 3)) * int(rng.choice([-1, 1]))
              for _ in omega]
        re_off = 0.0 if case % 3 else float(rng.uniform(0.0, 1e-9))
        target = math.pi * float(np.dot(m0, omega)) + float(rng.normal(scale=1e-9))
        d0 = math.sqrt(_exact_score(m0, omega, lambda t: 1.0, target, math.pi, re_off))
        thr = 3.0 * d0 * float(g.value(float(sum(abs(v) for v in m0))))
        _, _, violators = scan_min_weighted_distance(
            omega, N, g.value, target=target, scale=math.pi, re_off=re_off, thr=thr)
        assert tuple(m0) in {m for _, m in violators}
        for score, m in violators[:50]:
            exact = _exact_score(m, omega, g.value, target, math.pi, re_off)
            assert (Fraction(score) * (1 - Fraction(1, 2 ** 50))) ** 2 <= exact \
                <= (Fraction(score) * (1 + Fraction(1, 2 ** 50))) ** 2, (case, m)
            checked += 1
    assert checked >= 30


def test_check_nr_alpha_examples():
    g = PowerFn(2.0)
    assert check_nr_alpha(0.0j, GOLDEN, 0.05, g, N=20).ok
    m0 = (2, -1)
    alpha = 1j * math.pi * (m0 @ GOLDEN)
    rep = check_nr_alpha(alpha, GOLDEN, 0.05, g, N=20)
    assert not rep.ok and rep.m == m0 and rep.value < 1e-12
    assert check_nr_alpha(50.0 + 0.3j, GOLDEN, 1.0, g, N=10).ok


def test_check_nr_alpha_monotone_in_kappa():
    g = PowerFn(2.0)
    alpha = 0.4 + 1.1j
    oks = [check_nr_alpha(alpha, GOLDEN, k, g, N=15).ok for k in (1e-4, 1e-2, 0.3, 2.0)]
    for earlier, later in zip(oks, oks[1:]):
        assert earlier or not later  # once false, stays false as kappa' grows


def test_check_nr_rho():
    # a rotation number rho is checked as the eigenvalue i rho
    g = PowerFn(2.0)
    rho = math.pi * (GOLDEN[0] + GOLDEN[1])
    assert not check_nr_alpha(1j * rho, GOLDEN, 0.1, g, N=5).ok
    assert check_nr_alpha(10.0j, GOLDEN, 0.05, g, N=3).ok


def test_fit_G_golden():
    kappa, G = fit_G(GOLDEN, N_max=30)
    assert kappa == 1.0
    for N in range(1, 31):
        assert check_nr_omega(GOLDEN, kappa, G, N).ok
    vals = G.value(np.arange(1, 31).astype(float))
    assert np.all(np.diff(vals) >= 0)
    assert G.value(30.0) >= G.value(1.0)
    # first order: best divisor among |m|=1 is min(|omega_1|, |omega_2|) = 1
    assert G.value(1.0) == pytest.approx(1.0)


def test_fit_G_single_frequency():
    kappa, G = fit_G(np.array([0.7]), N_max=10)
    assert kappa == pytest.approx(0.7)
    np.testing.assert_allclose(G.value(np.arange(1, 11).astype(float)), 1.0)


def test_fit_kappa_matches_bruteforce():
    G = PowerFn(2.0)
    kappa = fit_kappa(GOLDEN, G, N_max=200)
    score, _ = brute_min(GOLDEN, 200, G.value)
    assert kappa == pytest.approx(score, rel=1e-12)
    assert kappa == pytest.approx(1.0)  # attained at m = (1, 0)


# -- tail integrals -----------------------------------------------------------

def test_tail_integral_power_analytic():
    # oracle: integral of log t / t^2 over [1, inf) equals 1
    for mu in (1.0, 2.0, 4.0):
        assert tail_integral(PowerFn(mu), 1.0, 2.0) == pytest.approx(mu, rel=1e-12)
    # shifted lower endpoint against numerical quadrature
    from scipy.integrate import quad
    val, _ = quad(lambda t: 3.0 * math.log(t) / t ** 2.5, 5.0, np.inf)
    assert tail_integral(PowerFn(3.0), 5.0, 2.5) == pytest.approx(val, rel=1e-9)


def test_tail_integral_exppow():
    assert tail_integral(ExpPowFn(0.5), 1.0, 2.0) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(DivergentIntegral):
        tail_integral(ExpPowFn(1.0), 1.0, 2.0)
    with pytest.raises(DivergentIntegral):
        tail_integral(ExpPowFn(0.6), 1.0, 1.5)


def test_tail_integral_explog():
    # oracle via u = log t, where the integrand decays cleanly
    from scipy.integrate import quad
    delta = 2.0
    f = ExpLogFn(delta)

    def oracle(lower, s):
        # log f(e^u) = e^u / max(u, delta)^delta, so the u-integrand is
        # e^{(2-s)u} / max(u, delta)^delta
        return quad(
            lambda u: math.exp((2.0 - s) * u) / max(u, delta) ** delta,
            math.log(lower), np.inf, limit=400)[0]

    assert tail_integral(f, 1.0, 2.0) == pytest.approx(oracle(1.0, 2.0), rel=1e-7)
    assert tail_integral(f, 2.0, 2.0) == pytest.approx(oracle(2.0, 2.0), rel=1e-7)
    with pytest.raises(ValueError):  # no caller evaluates it past exponent 2
        tail_integral(f, 2.0, 3.0)
    with pytest.raises(DivergentIntegral):
        tail_integral(f, 1.0, 1.5)


def test_tail_integral_product_and_tabulated():
    P = ProductFn(PowerFn(2.0), PowerFn(2.0))
    assert tail_integral(P, 1.0, 2.0) == pytest.approx(4.0, rel=1e-12)
    # fit_G's table is no approximation function: no tail integral takes it
    with pytest.raises(TypeError):
        tail_integral(TabulatedFn([1, 2, 3], [1.0, 4.0, 9.0], [None] * 3), 1.0, 2.0)


# -- ratio boundedness --------------------------------------------------------

def test_ratio_bounded_powers():
    bounded, sup = ratio_bounded(PowerFn(1.0), PowerFn(2.0))
    assert bounded and sup == pytest.approx(1.0)
    bounded2, _ = ratio_bounded(PowerFn(2.0), PowerFn(2.0))
    assert not bounded2


def test_ratio_bounded_exppow_pair():
    bounded, sup = ratio_bounded(ExpPowFn(0.4), ExpPowFn(0.9))
    assert bounded
    # exponent t^{0.8} - t^{0.9} is maximal at t = 1 on [1, inf)
    assert sup == pytest.approx(1.0)
    bounded2, sup2 = ratio_bounded(ExpPowFn(0.6), ExpPowFn(0.9))
    assert not bounded2
    assert sup2 > 1e10


def test_ratio_bounded_explog_case():
    assert ratio_bounded(ExpPowFn(0.3), ExpLogFn(2.0))[0]
    assert not ratio_bounded(ExpPowFn(0.7), ExpLogFn(2.0))[0]


def test_check_nr_omega_three_frequencies():
    omega = np.array([1.0, math.sqrt(2.0), math.sqrt(3.0)])
    rep = check_nr_omega(omega, 0.05, PowerFn(3.0), N=8)
    assert rep.ok
    bs, bm = brute_min(omega, 8, PowerFn(3.0).value)
    assert rep.value == pytest.approx(bs, rel=1e-12)
    dep = check_nr_omega(np.array([1.0, 2.0, 0.25]), 1e-9, PowerFn(3.0), N=6)
    assert not dep.ok and dep.value == 0.0
