import dataclasses
import math

import numpy as np
import pytest

from kamcocycle import kam_step, torus_fourier
from kamcocycle.arithmetics import (
    DivergentIntegral,
    ExpPowFn,
    PowerFn,
    ProductFn,
    tail_integral,
)
from kamcocycle.cli import build_schrodinger
from kamcocycle.kam_driver import (
    RunTrace,
    ScheduleViolation,
    StepRecord,
    a_bar_of,
    check_condepsilon,
    item4_holds,
    make_schedule,
    resonance_budget_check,
    rn_lower_bound,
    run,
    sequence_N,
    smallness_explicit,
    step_residual_holds,
    strip_after,
)
from kamcocycle.torus_fourier import TorusMap

GOLDEN = np.array([1.0, 0.5 * (1.0 + np.sqrt(5.0))])
G2 = PowerFn(2.0)


def golden_schedule(eps0=1e-10, r0=0.5, n0=0, kappa=1.0):
    return make_schedule(kappa, None, G2, G2, r0, n0, eps0)


def schrodinger_instance(eps=1e-10, E=6.25, r0=0.5, mode=(1, 1)):
    c = eps / (2.0 * math.exp(2.0 * math.pi * sum(abs(v) for v in mode) * r0))
    return build_schrodinger(E, 0.0, [(mode, c)], d=2)


# -- schedule construction ----------------------------------------------------

def test_schedule_constants():
    sched = golden_schedule()
    # (G g)(2) = 16, so a_bar = min(1/196, 1/256) = 1/256
    assert a_bar_of(G2, G2) == pytest.approx(1.0 / 256.0)
    assert sched.a == pytest.approx(1.0 - 1.0 / 256.0)
    # n0 = 0: the sup term is empty and c0 = r0 / 4^3
    assert sched.c0 == pytest.approx(0.5 / 64.0)


def test_schedule_c0_with_n0():
    sched = make_schedule(1.0, None, G2, G2, 0.5, 2, 1e-10)
    sup = max(math.log(ProductFn(G2, G2).value(t + 1.0)) / t
              for t in np.linspace(1.0, 2.0, 4097))
    assert sched.c0 == pytest.approx(0.5 / (4.0 ** 5 * (sup + 1.0)), rel=1e-6)


def test_sequence_N_frozen_example():
    # (G g)(t) = t^4, kappa = 1, 1 - a = 1/196, eps0 = 1e-20:
    # N_0 = floor(((1/196) / (2e-10))^(1/4)) = floor(71.07) = 71.
    # (a = 1 - 1/196 sits below the admissible floor 1 - 1/256 enforced
    # by make_schedule for this G*g, so the schedule is built directly.)
    from kamcocycle.kam_driver import KamSchedule
    sched = KamSchedule(kappa=1.0, G=G2, g=G2, r0=0.5, n0=0,
                        a=1.0 - 1.0 / 196.0, c0=0.5 / 64.0, eps0=1e-20)
    assert sequence_N(sched, 0) == 71
    assert math.floor(((1.0 / 196.0) / 2e-10) ** 0.25) == 71


def test_sequence_N_monotone_and_bracketing():
    sched = golden_schedule()
    rng = np.random.default_rng(4)
    prev = 0
    for n in range(0, 40, 3):
        N = sequence_N(sched, n)
        assert N >= prev
        prev = N
        log_bound = sched.log_n_bound(n)
        Gg = sched.Gg
        assert 2.0 * float(Gg.log_value(float(N))) <= log_bound
        assert 2.0 * float(Gg.log_value(float(N + 1))) > log_bound
    for _ in range(10):
        n = int(rng.integers(0, 60))
        N = sequence_N(sched, n)
        log_bound = sched.log_n_bound(n)
        assert 2.0 * float(sched.Gg.log_value(float(N))) <= log_bound \
            < 2.0 * float(sched.Gg.log_value(float(N + 1)))


def test_sequence_N_existence_guard():
    sched = golden_schedule(eps0=1.0)
    with pytest.raises(ScheduleViolation):
        sequence_N(sched, 0)


def test_sequence_N_past_the_float_range():
    # log (G g)(t) = log t: at step 528 the bound asks for (G g)(N) near
    # e^691, an order past the exact integer range, and a schedule failure
    # (not an overflow of the inverse)
    half = PowerFn(0.5)
    sched = make_schedule(1.0, None, half, half, 0.5, 0, 1.0)
    assert 0.5 * sched.log_n_bound(528) > 690.0
    with pytest.raises(ScheduleViolation, match="exact integer range"):
        sequence_N(sched, 528)


# -- runs ---------------------------------------------------------------------

def test_run_zero_perturbation():
    sched = golden_schedule()
    A = np.array([[0.0, 2.5], [-2.5, 0.0]])
    trace, cert = run(A, TorusMap.zero(2), GOLDEN, sched)
    assert cert.status == "Reduced"
    assert cert.steps == 0
    assert cert.residual == 0.0
    np.testing.assert_array_equal(cert.B, A)
    assert cert.Z.n_modes == 1


def test_run_schrodinger_short():
    A, F = schrodinger_instance()
    sched = golden_schedule(eps0=F.weighted_norm(0.5))
    trace, cert = run(A, F, GOLDEN, sched, max_steps=30)
    assert cert.status == "Reduced"
    assert cert.resonances_after_n0 == 0
    assert all(not r.resonant for r in trace.records)
    assert all(r.f_norm <= r.eps_bound * (1 + 1e-12) for r in trace.records)
    assert all(r.contraction <= math.sqrt(1 - sched.a) for r in trace.records)
    assert resonance_budget_check(trace, sched)["item6_ok"]
    assert cert.r_final >= sched.r0 / 4.0
    assert cert.residual <= cert.residual_budget + cert.cert_tol
    # deterministic replay, bitwise
    trace2, cert2 = run(A, F, GOLDEN, sched, max_steps=30)
    assert cert2.residual == cert.residual
    assert all(a.f_norm == b.f_norm and a.alpha == b.alpha
               for a, b in zip(trace.records, trace2.records))


def test_run_schedule_violation_surfaces():
    A, F = schrodinger_instance()
    sched = golden_schedule(eps0=F.weighted_norm(0.5) / 100.0)  # |F| > eps0
    with pytest.raises(ScheduleViolation):
        run(A, F, GOLDEN, sched)


def resonant_instance(delta=1e-3):
    # alpha_0 = i (pi <e1, omega> + delta), resonant at m = (1, 0)
    beta = math.pi * GOLDEN[0] + delta
    A = np.array([[0.0, beta], [-beta, 0.0]])
    _, F = schrodinger_instance(eps=1e-10, r0=0.5)
    return A, F, golden_schedule(eps0=F.weighted_norm(0.5), r0=0.5)


def test_run_with_constructed_resonance():
    # the first step removes the resonance at m = (1, 0), later steps stay
    # non-resonant
    delta = 1e-3
    A, F, sched = resonant_instance(delta)
    trace, cert = run(A, F, GOLDEN, sched, max_steps=30)
    assert trace.records[0].resonant
    assert trace.records[0].m == (1, 0)
    assert resonance_budget_check(trace, sched)["item2_ok"]
    assert all(not r.resonant for r in trace.records[1:])
    assert cert.rotation_sum == pytest.approx(math.pi * GOLDEN[0])
    assert cert.status == "Reduced"
    assert cert.resonances_after_n0 == 1
    # the eliminated eigenvalue reappears as the final rotation part
    from kamcocycle.sl2_algebra import alpha_of
    assert abs(alpha_of(cert.B)) == pytest.approx(delta, rel=0.05)


def test_run_strip_exhausted_is_one_schedule_violation():
    # run computes r' for both kinds of step and checks it once: a c0 that
    # spends the strip ends a non-resonant run at the step that would cross
    # 0, and a resonant run at its resonant step 0, with one ScheduleViolation
    A, F = schrodinger_instance()
    sched = golden_schedule(eps0=F.weighted_norm(0.5))
    trace, _ = run(A, F, GOLDEN, sched, max_steps=3)
    l0, l1, l2 = (-strip_after(sched, 0.0, rec.N_n, False) for rec in trace.records)
    wide = dataclasses.replace(sched, c0=sched.c0 * sched.r0 / (l0 + l1 + 0.5 * l2))
    with pytest.raises(ScheduleViolation, match="strip width exhausted") as exc:
        run(A, F, GOLDEN, wide)
    assert exc.value.step == 2

    beta = math.pi * GOLDEN[0] + 1e-3
    A = np.array([[0.0, beta], [-beta, 0.0]])
    wide = dataclasses.replace(sched, c0=100.0)
    assert strip_after(wide, sched.r0, sequence_N(wide, 0), True) <= 0
    with pytest.raises(ScheduleViolation, match="strip width exhausted") as exc:
        run(A, F, GOLDEN, wide)
    assert exc.value.step == 0


def test_run_trace_csv_roundtrip(tmp_path):
    A, F = schrodinger_instance()
    sched = golden_schedule(eps0=F.weighted_norm(0.5))
    trace, _ = run(A, F, GOLDEN, sched, max_steps=8, cert_tol=1e-40)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    back = RunTrace.from_csv(path, omega=GOLDEN)
    assert len(back.records) == len(trace.records)
    for a, b in zip(trace.records, back.records):
        assert (a.n, a.N_n, a.resonant, a.m) == (b.n, b.N_n, b.resonant, b.m)
        assert a.f_norm == b.f_norm and a.alpha == b.alpha
        assert a.r_n == b.r_n and a.residual == b.residual


def test_trace_row_is_the_whole_record(tmp_path):
    # a StepRecord holds what trace.csv writes and nothing more: read back,
    # the rows of a run through one resonance equal the records in memory
    A, F, sched = resonant_instance()
    trace, _ = run(A, F, GOLDEN, sched, max_steps=6, cert_tol=1e-100)
    assert trace.records[0].resonant and len(trace.records) == 6
    trace.to_csv(tmp_path / "trace.csv")
    back = RunTrace.from_csv(tmp_path / "trace.csv", omega=GOLDEN)
    assert len(back.records) == len(trace.records)
    for a, b in zip(trace.records, back.records):
        assert a == b, (a, b)


# -- certified bounds and formulas ---------------------------------------------

def test_rn_lower_bound_power():
    # power-law G*g needs c0 near 1 for a representable eps0 that meets
    # both smallness conditions, hence the wide strip; eps0 = 1e-6 / 2^64
    # is the first of 1e-6 / 2^k that does
    sched = make_schedule(1.0, None, G2, G2, 64.0, 0, 5.421010862427522e-26)
    bound = rn_lower_bound(sched)
    assert bound >= sched.r0 / 4.0 ** (sched.n0 + 1)
    # analytic cross-check of the integral piece
    N0 = sequence_N(sched, 0)
    integral = tail_integral(sched.Gg, float(N0), 2.0)
    expected = sched.r0 + math.log(float(sched.Gg.value(float(N0)))) / (math.pi * N0) \
        - integral / math.pi
    assert bound == pytest.approx(expected, rel=1e-12)


def test_rn_lower_bound_exppow():
    g = ExpPowFn(0.4)
    # eps0 = 1e-8 / 2^149, the first of 1e-8 / 2^k meeting both smallness
    # conditions
    sched = make_schedule(1.0, None, ExpPowFn(0.5), g, 30.0, 0, 1.401298464324817e-53)
    bound = rn_lower_bound(sched)
    assert math.isfinite(bound)
    assert bound >= sched.r0 / 4.0


def test_rn_lower_bound_divergent():
    sched = make_schedule(1.0, None, ExpPowFn(1.0), PowerFn(2.0), 0.5, 0, 1e-10)
    with pytest.raises(DivergentIntegral):
        rn_lower_bound(sched)


def test_smallness_explicit_dioph_formula():
    # (r0 / (4^{n0+3} (mu+mu')))^{4 (mu+mu')} kappa
    eps = smallness_explicit(("dioph", 4.0), 1.0, 0.5, 0, 1.0 - 1.0 / 196)
    assert eps == pytest.approx((0.5 / (64.0 * 4.0)) ** 16, rel=1e-12)


def test_smallness_explicit_exp_formula():
    kappa, r0, n0 = 1.0, 0.5, 0
    alpha = 0.5
    eps = smallness_explicit(("exp", alpha, 0.3), kappa, r0, n0, 1.0 - 1.0 / 196)
    q = 2.0 * 4.0 ** (n0 + 2) / (r0 * (1 - alpha))
    assert eps == pytest.approx(kappa / 4.0 * math.exp(-2.0 * q), rel=1e-12)


def test_smallness_explicit_passes_condepsilon():
    a = 1.0 - 1.0 / 196.0
    for r0 in (0.25, 0.5, 1.0):
        for n0 in (0, 1, 2):
            eps_d = smallness_explicit(("dioph", 4.0), 1.0, r0, n0, a)
            ok, integral, budget = check_condepsilon(G2, G2, 1.0, r0, n0, a, eps_d)
            assert ok, f"dioph failed at r0={r0} n0={n0}: {integral} > {budget}"


def test_exp_smallness_gap():
    # the closed-form exponential threshold is NOT sufficient for the
    # integral condition everywhere: at moderate strips with n0 = 0 the
    # permitted eps0 is too large and the inversion point lands too low
    # (the reduction behind the formula silently needs n0 >= 3 to absorb
    # the (1-a)^{(n0-3)/2} factor).  Pin the honest verdict.
    a = 1.0 - 1.0 / 196.0
    eps_e = smallness_explicit(("exp", 0.5, 0.3), 1.0, 3.0, 0, a)
    assert eps_e > 0
    ok, integral, budget = check_condepsilon(ExpPowFn(0.5), ExpPowFn(0.3),
                                             1.0, 3.0, 0, a, eps_e)
    assert not ok and integral > budget


def test_smallness_explicit_explog_representable():
    eps = smallness_explicit(("explog", 3.0, 0.1), 1.0, 8.0, 0, 1.0 - 1.0 / 196)
    assert eps > 0


# -- budget audit ---------------------------------------------------------------

def test_budget_check_nonresonant_trace():
    A, F = schrodinger_instance()
    sched = golden_schedule(eps0=F.weighted_norm(0.5))
    trace, _ = run(A, F, GOLDEN, sched, max_steps=15)
    report = resonance_budget_check(trace, sched)
    assert report["cumulative_m_ok"]
    assert report["item2_ok"] and report["item6_ok"]
    assert report["interlacing_ok"]
    assert report["resonances_after_n0"] == 0
    # g = G = Power(2) has unbounded g(t^2)/G(t): the kappa' route is off
    assert not report["ratio_bounded"]


def test_budget_check_with_resonance():
    delta = 1e-3
    beta = math.pi * GOLDEN[0] + delta
    A = np.array([[0.0, beta], [-beta, 0.0]])
    _, F = schrodinger_instance(eps=1e-10)
    sched = golden_schedule(eps0=F.weighted_norm(0.5))
    trace, cert = run(A, F, GOLDEN, sched, max_steps=20)
    rep = resonance_budget_check(trace, sched)
    assert rep["cumulative_m_ok"]  # sum |m_j| = 1 <= N_n^2 throughout
    assert rep["interlacing_ok"]
    # bounded-ratio configuration: g = Power(1), G = Power(2)
    sched2 = make_schedule(1.0, 3.0, G2, PowerFn(1.0), 0.5, 0, 1e-10)
    rep2 = resonance_budget_check(trace, sched2, rho_target=beta)
    assert rep2["ratio_bounded"]
    assert rep2["kappa_prime_condition"] is not None


def test_item4_holds_fails_only_on_a_measured_excess():
    sched = golden_schedule()
    eps1 = sched.eps_n(1)
    assert item4_holds(sched, 1, eps1) and item4_holds(sched, 1, eps1 * (1.0 + 5e-10))
    assert not item4_holds(sched, 1, eps1 * (1.0 + 2e-9))
    assert item4_holds(sched, 1, float("nan"))  # the check fails on '>' only


def test_budget_check_recomputes_items_2_and_6_from_rows(tmp_path):
    # rows read back from trace.csv carry no verdicts: the check must derive
    # closeness and drift from alpha, m and N_n, as run does
    beta = math.pi * GOLDEN[0] + 1e-3
    A = np.array([[0.0, beta], [-beta, 0.0]])
    _, F = schrodinger_instance(eps=1e-10)
    sched = golden_schedule(eps0=F.weighted_norm(0.5))
    trace, _ = run(A, F, GOLDEN, sched, max_steps=4, cert_tol=1e-100)
    assert trace.records[0].resonant and len(trace.records) >= 3
    trace.to_csv(tmp_path / "trace.csv")
    rows = RunTrace.from_csv(tmp_path / "trace.csv", omega=GOLDEN)
    rep = resonance_budget_check(rows, sched)
    assert rep["item2_ok"] and rep["item6_ok"]
    rows.records[0].alpha += 0.1j  # off the resonance: closeness and drift fail
    rep = resonance_budget_check(rows, sched)
    assert not rep["item2_ok"] and not rep["item6_ok"]
    rows = RunTrace.from_csv(tmp_path / "trace.csv", omega=GOLDEN)
    rows.records[2].alpha += 1e-3  # one entry value drifts past sqrt(eps_1)
    rep = resonance_budget_check(rows, sched)
    assert rep["item2_ok"] and not rep["item6_ok"]


def test_budget_check_rho_hypothesis_at_full_order():
    # rho = pi <m0, omega> exactly in float, at m0 = (-b, b) of order 1.2e7,
    # past 1e7 but within the trace's largest N_n; every m of order <= 1e7
    # scores at least 0.01 against kappa' = 1e-3
    b = 6_000_000
    omega = np.array([1.0, 1.0 + 2.0 ** -30])
    c = b * 2.0 ** -30
    rho = math.pi * c
    assert rho / math.pi == c and -b + b * omega[1] == c
    records = [StepRecord(n=n, r_n=0.5, N_n=N, eps_bound=1e-10, f_norm=1e-10,
                          resonant=False, m=(0, 0), alpha=0.0j, residual=0.0,
                          contraction=0.0)
               for n, N in enumerate((10 ** 6, 2 * 10 ** 7))]
    sched = make_schedule(1.0, 1e-3, G2, G2, 0.5, 0, 1e-10)
    rep = resonance_budget_check(RunTrace(records, omega), sched, rho_target=rho)
    assert rep["rho_hypothesis"] is False
    assert rep["rho_worst_offender"] == (-b, b)


def test_run_single_frequency():
    # d = 1: a lone frequency cannot resonate with itself, so the whole
    # run is non-resonant
    omega = np.array([0.5 * (1.0 + math.sqrt(5.0))])
    c = 1e-10 / (2.0 * math.exp(2.0 * math.pi * 0.5))
    A, F = build_schrodinger(4.0, 0.0, [((1,), c)], d=1)
    sched = make_schedule(omega[0], None, G2, G2, 0.5, 0, F.weighted_norm(0.5))
    trace, cert = run(A, F, omega, sched, max_steps=20)
    assert cert.status == "Reduced"
    assert all(not r.resonant for r in trace.records)


def test_run_global_residual_budget():
    # the global residual is measured once, after the last step: the
    # certificate of a run cut after k steps keeps it within k step shares
    A, F = schrodinger_instance()
    sched = golden_schedule(eps0=F.weighted_norm(0.5))
    f0 = F.weighted_norm(0.5)
    steps = run(A, F, GOLDEN, sched, max_steps=30)[1].steps
    assert steps >= 5
    for k in range(steps + 1):
        trace, cert = run(A, F, GOLDEN, sched, max_steps=k)
        assert cert.steps == len(trace.records) == k
        budget = k * 1e-10 * (1.0 + f0)
        assert cert.residual_budget == budget
        assert cert.residual <= budget + cert.f_final_norm
        if k == 0:
            assert cert.residual == cert.f_final_norm


def test_step_residual_holds_is_relative_above_the_float_floor():
    # 1e-13 is far inside the absolute allowance 1e-10 (1 + |F|), but it is
    # all of |F|: a step's residual must stay below 1e-12 |F| above its floor
    assert not step_residual_holds(1e-13, 1e-13, 0.0)
    assert step_residual_holds(1e-26, 1e-13, 0.0)
    assert step_residual_holds(0.0, 0.0, 0.0)
    # a residual at the step's own rounding floor passes whatever |F| is
    assert step_residual_holds(2.1e-15, 4.6e-13, 1e-14)
    assert not step_residual_holds(2.1e-15, 4.6e-13, 1e-15)
    # the absolute allowance stays
    assert not step_residual_holds(3e-10, 1.0, 1.0)


@pytest.mark.parametrize("cap", [30, 20])
def test_mode_cap_drop_stays_in_the_step_allowance(monkeypatch, cap):
    # a run forced past the mode cap: nothing books what the cap drops, so a
    # drop must stay inside the step residual's allowance, which measures the
    # stored coefficients.  A cap of 30 does, and Z is far smaller than the
    # uncapped product of the steps' exp(X) = I + P; a cap of 20 leaves a
    # step residual of 2.5e-23 at |F|_r = 3.4e-15 and fails step 0
    modes = [((m1, m2), 1e-11 * math.exp(-4 * math.pi * (abs(m1) + abs(m2))) * (1 + 0.1 * m2))
             for m1 in range(4) for m2 in range(-3, 4)
             if 0 < abs(m1) + abs(m2) <= 3 and (m1 > 0 or m2 > 0)]
    A, F = build_schrodinger(6.25, 0.0, modes, d=2)
    sched = golden_schedule()
    assert run(A, F, GOLDEN, sched, cert_tol=1e-26)[1].Z.n_modes > 30
    monkeypatch.setattr(torus_fourier, "DEFAULT_MODE_CAP", cap)
    if cap == 20:
        failed = "step residual .* exceeds its allowance"
        with pytest.raises(ScheduleViolation, match=failed) as exc:
            run(A, F, GOLDEN, sched, cert_tol=1e-26)
        assert exc.value.step == 0
        return
    Ps = []
    exp_series_tail = kam_step.exp_series_tail

    def spy(X, r):
        out = exp_series_tail(X, r)
        Ps.append(out[0])
        return out

    monkeypatch.setattr(kam_step, "exp_series_tail", spy)
    trace, cert = run(A, F, GOLDEN, sched, cert_tol=1e-26)
    assert cert.status == "Reduced" and cert.Z.n_modes <= 32
    I = TorusMap.identity(2)
    exact = I
    for P in Ps:
        exact = exact.mul(I.add(P))
    assert exact.n_modes > 10 * cert.Z.n_modes
