import math

import numpy as np
import pytest

from kamcocycle import rotation_number as rotation_number_module
from kamcocycle.arithmetics import PowerFn, check_nr_alpha
from kamcocycle.rotation_number import (
    StepTooLarge,
    rho_of_constant,
    rotation_number,
    verify_additivity,
    winding_rate,
)
from kamcocycle.torus_fourier import TorusMap, op_norm_2x2

GOLDEN = np.array([1.0, 0.5 * (1.0 + np.sqrt(5.0))])


def constant_system(M):
    return TorusMap.constant(np.asarray(M, dtype=float), 2)


def test_constant_rotation_recovered():
    rho0 = 0.7
    sys_map = constant_system([[0.0, rho0], [-rho0, 0.0]])
    est = rotation_number(sys_map, GOLDEN, T=200.0, h=0.02)
    assert est.rho == pytest.approx(rho0, abs=est.error_estimate)
    # a constant generator winds exactly: only the step error remains
    assert est.rho == pytest.approx(rho0, abs=1e-9)
    assert est.error_estimate < 0.05


def test_constant_hyperbolic_zero():
    sys_map = constant_system([[0.8, 0.0], [0.0, -0.8]])
    est = rotation_number(sys_map, GOLDEN, T=500.0, h=0.02,
                          phi0=np.array([1.0, 0.4]))
    assert est.rho <= 2.0 * math.pi / 250.0  # argument converges: winding -> 0


def test_schrodinger_constant_rho_sqrt_E():
    E = 2.25
    sys_map = constant_system([[0.0, -E], [1.0, 0.0]])
    est = rotation_number(sys_map, GOLDEN, T=400.0, h=0.01)
    assert est.rho == pytest.approx(math.sqrt(E), abs=5e-3)
    assert rho_of_constant([[0.0, -E], [1.0, 0.0]]) == pytest.approx(math.sqrt(E))


def test_independence_of_initial_data():
    rng = np.random.default_rng(3)
    beta = 1.3
    F = TorusMap.from_modes(
        2,
        [((2, 0), 0.05 * np.array([[0.0, 1.0], [1.0, 0.0]])),
         ((-2, 0), 0.05 * np.array([[0.0, 1.0], [1.0, 0.0]]))],
        reality=True)
    sys_map = constant_system([[0.0, beta], [-beta, 0.0]]).add(F)
    estimates = []
    for _ in range(5):
        theta0 = rng.uniform(0, 2, size=2)
        phi = rng.standard_normal(2)
        est = rotation_number(sys_map, GOLDEN, theta0=theta0, phi0=phi,
                              T=400.0, h=0.02)
        estimates.append(est)
    base = estimates[0]
    for other in estimates[1:]:
        tol = 2.0 * (base.error_estimate + other.error_estimate) + 1e-9
        assert abs(other.rho - base.rho) <= tol


def test_order_four_convergence():
    rho0 = 1.1
    sys_map = constant_system([[0.0, rho0], [-rho0, 0.0]])
    T = 64.0
    hs = [0.2, 0.1, 0.05, 0.025]
    errs = [abs(abs(winding_rate(sys_map, GOLDEN, np.zeros(2),
                                 np.array([1.0, 0.0]), T, h)) - rho0)
            for h in hs]
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert all(3.5 <= r <= 4.5 for r in rates), (errs, rates)


def test_step_rejection_and_too_large():
    # enormous rotation rate: h = 0.5 turns by ~ 25 rad per step; the block
    # integrator must refine, and gives up after 10 halvings only if still
    # too coarse (here refinement succeeds)
    sys_map = constant_system([[0.0, 50.0], [-50.0, 0.0]])
    rate = winding_rate(sys_map, GOLDEN, np.zeros(2), np.array([1.0, 0.0]),
                        T=4.0, h=0.5)
    assert abs(rate) == pytest.approx(50.0, rel=2e-2)
    huge = constant_system([[0.0, 1e6], [-1e6, 0.0]])
    with pytest.raises(StepTooLarge):
        winding_rate(huge, GOLDEN, np.zeros(2), np.array([1.0, 0.0]),
                     T=4.0, h=0.5)


def test_horizon_shorter_than_one_step_raises():
    # the horizon would be one step of h, not T, while the report gave T
    sys_map = constant_system([[0.0, 0.7], [-0.7, 0.0]])
    with pytest.raises(ValueError, match="shorter than one step"):
        rotation_number(sys_map, GOLDEN, T=1.0, h=5.0)
    with pytest.raises(ValueError, match="shorter than one step"):
        winding_rate(sys_map, GOLDEN, np.zeros(2), np.array([1.0, 0.0]), T=1.0, h=5.0)
    assert rotation_number(sys_map, GOLDEN, T=5.0, h=5.0).T == 5.0


def test_conjugation_shifts_rho_by_half_resonance():
    # winding of the resonance-eliminating conjugation: rho changes by
    # exactly pi <m, omega> when passing to the shifted system
    from kamcocycle.kam_step import eliminate_resonance
    delta = 0.2
    beta = math.pi * GOLDEN[0] + delta
    A = np.array([[0.0, beta], [-beta, 0.0]])
    Phi, Atilde, Phi_inv = eliminate_resonance(A, (1, 0), GOLDEN)
    rho_full = rotation_number(constant_system(A), GOLDEN, T=400.0, h=0.01)
    Atilde_r = np.real(Atilde)
    rho_shift = rho_of_constant(Atilde_r)
    assert rho_full.rho - rho_shift == pytest.approx(
        math.pi * GOLDEN[0], abs=2 * rho_full.error_estimate + 1e-4)


def sequential_angles(sys_map, omega, theta0, phi0, h, n):
    """Accumulated angle after each of n RK4 steps of size h.

    The reference integrator: one step at a time on the state vector, each
    step evaluating the system at its two nodes and its midpoint.
    """
    v = np.asarray(phi0, dtype=float) / math.hypot(*phi0)
    angles = [0.0]
    for k in range(n):
        A0, Am, A1 = sys_map.eval(theta0 + np.outer([k, k + 0.5, k + 1.0], h * omega)).real
        K1 = A0 @ v
        K2 = Am @ (v + 0.5 * h * K1)
        K3 = Am @ (v + 0.5 * h * K2)
        K4 = A1 @ (v + h * K3)
        w = v + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
        turn = (math.atan2(w[1], w[0]) - math.atan2(v[1], v[0]) + math.pi) % (2 * math.pi) - math.pi
        assert abs(turn) <= 0.5 * math.pi
        angles.append(angles[-1] + turn)
        v = w / math.hypot(*w)
    return angles


def oracle_rates(sys_map, omega, theta0, phi0, T, h, h_run_step=None):
    """The h, h/2 and T/2 rates of rotation_number, integrated sequentially.

    h_run_step is the step the h run actually takes (h/2 when its guard
    trips at h); its rate is still taken over round(T/h) steps of h.
    """
    n_h, n_h2, n_half = round(T / h), round(2 * T / h), round(T / h)
    sub = h_run_step or h
    rate_h = sequential_angles(sys_map, omega, theta0, phi0, sub,
                               round(n_h * h / sub))[-1] / (n_h * h)
    fine = sequential_angles(sys_map, omega, theta0, phi0, 0.5 * h, n_h2)
    return rate_h, fine[n_h2] / (n_h2 * 0.5 * h), fine[n_half] / (n_half * 0.5 * h)


def perturbed_rotation(beta, c):
    F = TorusMap.from_modes(
        2,
        [((2, 0), c * np.array([[0.3, 1.0], [0.5, -0.3]])),
         ((-2, 0), c * np.array([[0.3, 1.0], [0.5, -0.3]])),
         ((1, 1), c * np.array([[0.0, 0.4], [-0.2, 0.0]])),
         ((-1, -1), c * np.array([[0.0, 0.4], [-0.2, 0.0]]))],
        reality=True)
    return constant_system([[0.0, beta], [-beta, 0.0]]).add(F)


def assert_matches_oracle(sys_map, theta0, phi0, T, h, oracle):
    rate_h, rate_h2, rate_half_T = oracle
    est = rotation_number(sys_map, GOLDEN, theta0=theta0, phi0=phi0, T=T, h=h)
    err = (abs(abs(rate_h) - abs(rate_h2)) + abs(abs(rate_h2) - abs(rate_half_T))
           + 2.0 * math.pi / T)
    assert est.rho == pytest.approx(abs(rate_h2), abs=1e-12)
    assert est.error_estimate == pytest.approx(err, abs=1e-12)
    for rate, (T_run, h_run) in zip(oracle, [(T, h), (T, 0.5 * h), (0.5 * T, 0.5 * h)]):
        assert winding_rate(sys_map, GOLDEN, theta0, phi0, T_run, h_run) == pytest.approx(
            rate, abs=1e-12)


def assert_matches_oracle_at(T):
    sys_map = perturbed_rotation(1.3, 0.4)
    theta0, phi0, h = np.array([0.3, 1.1]), np.array([0.6, -0.8]), 0.1
    oracle = oracle_rates(sys_map, GOLDEN, theta0, phi0, T, h)
    # the three rates differ well beyond the tolerance, so a swapped or
    # misplaced rate cannot pass
    assert min(abs(a - b) for a, b in zip(oracle, oracle[1:] + oracle[:1])) > 1e-8
    assert_matches_oracle(sys_map, theta0, phi0, T, h, oracle)


@pytest.mark.parametrize("chunk", [2048, 7, rotation_number_module.CHUNK])
@pytest.mark.parametrize("T", [20.0, 20.3])
def test_rates_match_sequential_oracle(monkeypatch, chunk, T):
    # round(T/h) is 200 (even) or 203 (odd), so the T/2 checkpoint of the
    # h/2 run falls on a step of the h run or between two; CHUNK = 7 puts it
    # inside a window, with many windows and groups shorter than GROUP
    monkeypatch.setattr(rotation_number_module, "CHUNK", chunk)
    assert_matches_oracle_at(T)


@pytest.mark.parametrize("chunk, block", [(7, 2), (2048, 16)])
@pytest.mark.parametrize("T", [20.0, 20.3])
def test_windows_of_several_table_blocks_match_oracle(monkeypatch, chunk, block, T):
    # a window of 7 steps of the h run is 28 samples, read off blocks of 8,
    # 8, 8 and 4; one window of 2048 steps holds the whole pass of 800
    # samples, in 12 blocks of 64 and one of 32
    monkeypatch.setattr(rotation_number_module, "CHUNK", chunk)
    monkeypatch.setattr(rotation_number_module, "BLOCK", block)
    assert_matches_oracle_at(T)


def test_guard_fallback_matches_oracle(monkeypatch):
    # ||A + F|| lies in [1.9, 2.3]: the phase-speed guard trips at h = 1
    # on every segment of the h run and never at h/2, so the h run is redone
    # at h/2 on a grid of its own; round(2T/h) = 121 is odd, so the h/2 run
    # ends half a step of h after the h run
    sys_map = perturbed_rotation(2.0, 0.1)
    theta0, phi0, T, h = np.array([0.0, 0.4]), np.array([1.0, 0.0]), 60.3, 1.0
    depths = []
    real_wind = rotation_number_module._wind

    def spy(Asys, omega, theta0, q, runs, t0=0.0, depth=0):
        depths.append(depth)
        return real_wind(Asys, omega, theta0, q, runs, t0, depth)

    monkeypatch.setattr(rotation_number_module, "_wind", spy)
    oracle = oracle_rates(sys_map, GOLDEN, theta0, phi0, T, h, h_run_step=0.5 * h)
    assert_matches_oracle(sys_map, theta0, phi0, T, h, oracle)
    assert max(depths) == 1


def test_guard_fallback_off_the_origin_matches_oracle(monkeypatch):
    # the map and steps of the test above, in windows of 7 steps of the h
    # run: each window's segment is redone on a grid of its own that starts
    # at t0 = k0 h, up to 56 for the last full window
    monkeypatch.setattr(rotation_number_module, "CHUNK", 7)
    sys_map = perturbed_rotation(2.0, 0.1)
    theta0, phi0, T, h = np.array([0.0, 0.4]), np.array([1.0, 0.0]), 60.3, 1.0
    starts = []
    real_wind = rotation_number_module._wind

    def spy(Asys, omega, theta0, q, runs, t0=0.0, depth=0):
        if depth:
            starts.append(t0)
        return real_wind(Asys, omega, theta0, q, runs, t0, depth)

    monkeypatch.setattr(rotation_number_module, "_wind", spy)
    oracle = oracle_rates(sys_map, GOLDEN, theta0, phi0, T, h, h_run_step=0.5 * h)
    assert_matches_oracle(sys_map, theta0, phi0, T, h, oracle)
    assert 56.0 in starts


@pytest.mark.parametrize("n", [1, 63, 64, 65, 1000, 2048])
def test_states_match_a_step_by_step_loop(n):
    # the upsweep halves each level, so a group must be a power of two
    group = rotation_number_module.GROUP
    assert group > 0 and group & (group - 1) == 0
    rng = np.random.default_rng(n)
    turn = rng.uniform(-0.3, 0.3, n)
    P = (np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
         + 1e-3 * rng.standard_normal((2, 2, n)))
    v0 = np.array([0.6, -0.8])
    loop = [v0]
    for k in range(n):
        loop.append(P[:, :, k] @ loop[-1])
    loop = np.array(loop).T
    got = rotation_number_module._states(P, v0)
    assert got.shape == (2, n + 1)
    assert np.array_equal(got[:, 0], v0)
    scale = np.hypot(loop[0], loop[1])
    assert np.all(np.hypot(*(got - loop)) <= 1e-13 * scale)


def real_map_to_order_six(seed):
    rng = np.random.default_rng(seed)
    entries = [((0, 0), np.array([[0.0, 1.3], [-1.3, 0.0]]))]
    for k1 in range(7):
        for k2 in range(-6, 7):
            if 0 < abs(k1) + abs(k2) <= 6 and (k1, k2) > (0, 0):
                M = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) \
                    * math.exp(-abs(k1) - abs(k2))
                entries += [((2 * k1, 2 * k2), M), ((-2 * k1, -2 * k2), np.conj(M))]
    return TorusMap.from_modes(2, entries, reality=True)


# a table block of the h and h/2 runs of rotation_number at h = 0.01, in
# samples of h/4, and the start of the block that ends at t = 4000
TABLE_BLOCK = 4 * rotation_number_module.BLOCK
LAST_BLOCK = round(4000 / 0.0025) - TABLE_BLOCK


@pytest.mark.parametrize("t0, start", [(0.0, 0), (0.0, LAST_BLOCK), (1234.5675, TABLE_BLOCK)])
def test_table_samples_match_eval(t0, start):
    # a block of samples as _wind reads it off the phase table: at the
    # origin, ending at t = 4000, and on the grid of a fallback run that
    # starts at t0
    Asys = real_map_to_order_six(5)
    theta0, q, n = np.array([0.3, 1.1]), 0.0025, TABLE_BLOCK + 1
    cos_t, sin_t = rotation_number_module._phase_tables(Asys, GOLDEN, q, n - 1)
    vals = np.empty((4, n))
    rotation_number_module._samples(Asys, theta0 + (t0 + q * start) * GOLDEN, cos_t, sin_t, vals)
    times = t0 + q * np.arange(start, start + n)
    ref = Asys.eval((theta0[:, None] + GOLDEN[:, None] * times).T).real
    # each side rounds the phase pi <k, theta> to within about an ulp of its
    # size, and an entry sums those errors over the modes' coefficients
    far = (theta0[:, None] + GOLDEN[:, None] * times[[0, -1]]).T
    phase = math.pi * np.abs(far @ Asys.half_k.T).max()
    tol = 2.0 ** -52 * phase * np.abs(Asys.coeffs).max(axis=(1, 2)).sum()
    assert np.abs(vals.T.reshape(n, 2, 2) - ref).max() <= tol


def test_speed_bound_covers_every_sample():
    # the phase-speed guard's bound sum_k ||c_k|| against the operator norm
    # of the real system over one window of the h run at h = 0.01 and at
    # random points
    Asys = real_map_to_order_six(5)
    bound = rotation_number_module._speed_bound(Asys)
    theta0, q = np.array([0.3, 1.1]), 0.0025
    times = q * np.arange(4 * rotation_number_module.CHUNK + 1)
    window = (theta0[:, None] + GOLDEN[:, None] * times).T
    scattered = np.random.default_rng(8).uniform(0.0, 2.0, size=(1000, 2))
    for thetas in (window, scattered):
        assert np.linalg.norm(Asys.eval(thetas).real, 2, axis=(1, 2)).max() <= bound
    A = np.array([[0.3, 1.7], [-2.2, -0.3]])
    assert rotation_number_module._speed_bound(constant_system(A)) == op_norm_2x2(A)


@pytest.mark.parametrize("lam", [20.0, 75.0, 150.0])
def test_hyperbolic_growth_stays_in_range(lam):
    # the state grows by e^{lam t}: e^{75 * 10.24} over a window of 1,024
    # steps of h = 0.01 already passes the float range, while lam h stays
    # below the speed guard's pi/2, and an overflow warning fails the test;
    # the state converges to the unstable axis, so the angle turns by
    # atan(0.8 / 0.6) in all
    sys_map = constant_system([[lam, 0.0], [0.0, -lam]])
    T = 100.0
    est = rotation_number(sys_map, GOLDEN, phi0=np.array([0.6, -0.8]), T=T, h=0.01)
    assert est.rho == pytest.approx(math.atan2(0.8, 0.6) / T, rel=1e-9)


class _FakeRec:
    def __init__(self, n, m):
        self.n = n
        self.m = m


class _FakeTrace:
    def __init__(self, recs):
        self.records = recs


class _Ladder:
    """A schedule's eps_n, from a list."""

    def __init__(self, eps):
        self.eps = eps

    def eps_n(self, n):
        return self.eps[n]


def test_verify_additivity_no_resonance():
    beta = 1.7
    B = [[0.0, beta], [-beta, 0.0]]
    trace = _FakeTrace([_FakeRec(0, (0, 0)), _FakeRec(1, (0, 0))])
    est = rotation_number(constant_system(B), GOLDEN, T=400.0, h=0.01)
    rep = verify_additivity(est.rho, B, trace, GOLDEN, _Ladder([1e-10, 1e-12]),
                            tol=2 * est.error_estimate)
    assert rep.ok and rep.matched_sign == 1
    assert rep.rotation_sum == 0.0


def test_verify_additivity_with_offset():
    # one recorded resonance at m0: rho_full = rho(B) + pi <m0, omega>
    m0 = (1, 0)
    delta = 0.15
    B = [[0.0, delta], [-delta, 0.0]]
    rho_full = delta + math.pi * GOLDEN[0]
    trace = _FakeTrace([_FakeRec(0, m0)])
    ladder = _Ladder([1e-10])
    rep = verify_additivity(rho_full, B, trace, GOLDEN, ladder, tol=1e-8)
    assert rep.ok
    assert rep.rotation_sum == pytest.approx(math.pi * GOLDEN[0])
    # hyperbolic final part contributes zero
    reph = verify_additivity(math.pi * GOLDEN[0], [[0.3, 0.0], [0.0, -0.3]],
                             trace, GOLDEN, ladder, tol=1e-8)
    assert reph.ok and reph.rho_constant == 0.0
    # a global orientation flip is tolerated and reported
    repf = verify_additivity(rho_full, B, _FakeTrace([_FakeRec(0, (-1, 0))]),
                             GOLDEN, ladder, tol=1e-8)
    assert repf.ok and repf.matched_sign == -1


def test_check_rho_arithmetic():
    g = PowerFn(2.0)
    rho = math.pi * (GOLDEN[0] + GOLDEN[1])
    rep = check_nr_alpha(1j * rho, GOLDEN, 0.1, g, N=6)
    assert not rep.ok and rep.m in [(1, 1)]
    assert check_nr_alpha(11.0j, GOLDEN, 0.05, g, N=4).ok
    oks = [check_nr_alpha(1j * (rho + 0.05), GOLDEN, k, g, N=6).ok
           for k in (1e-4, 0.05, 0.5, 5.0)]
    for earlier, later in zip(oks, oks[1:]):
        assert earlier or not later
