"""Driving loop of the KAM scheme and its schedule bookkeeping.

The schedule fixes, once and for all, the contraction constant a, the loss
constant c0, the error ladder eps_n = (1-a)^{n/2} eps_0 and the truncation
orders N_n (the largest integer with (G g)(N_n)^2 <= (1-a)^2 kappa^2 / (4
eps_n)).  The driver then alternates non-resonant and resonant steps, checks
the per-step certified inequalities, accumulates the conjugation Z and emits
a trace plus a reducibility certificate.

Most bookkeeping runs in the log domain: the ladder reaches values far below
1e-300 well before float underflow would corrupt comparisons.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .arithmetics import (
    MAX_ORDER,
    ApproxFn,
    ProductFn,
    check_nr_alpha,
    ratio_bounded,
    tail_integral,
)
from .errors import KamFailure
from .kam_step import (
    StepContext,
    conjugation_residual,
    find_resonance,
    step_nonresonant,
    step_resonant,
)
from .sl2_algebra import CERT_SLACK, eigen, resonance_shift, shifted_alpha
from .torus_fourier import TorusMap

LOG_EPS_FLOOR = math.log(1e-300)
STEP_RESIDUAL_TOL = 1e-10  # per-step share of the global residual budget


class ScheduleViolation(KamFailure):
    """A measured quantity broke the schedule's certified inequality."""


@dataclass
class KamSchedule:
    kappa: float
    G: ApproxFn
    g: ApproxFn
    r0: float
    n0: int
    a: float
    a_bar: float
    c0: float
    eps0: float
    C_prime: float = 10.0
    kappa_prime: float | None = None

    @property
    def Gg(self) -> ProductFn:
        return ProductFn(self.G, self.g)

    def log_eps(self, n: int) -> float:
        return math.log(self.eps0) + 0.5 * n * math.log1p(-self.a)

    def eps_n(self, n: int) -> float:
        le = self.log_eps(n)
        return math.exp(le) if le > -745.0 else 0.0

    def log_n_bound(self, n: int) -> float:
        """log of (1-a)^2 kappa^2 / (4 eps_n), the bound on (G g)(N_n)^2."""
        return 2.0 * (math.log1p(-self.a) + math.log(self.kappa) - math.log(2.0)) \
            - self.log_eps(n)


def a_bar_of(G: ApproxFn, g: ApproxFn) -> float:
    """a_bar = min(1/14^2, 1/(G g)(2)^2); the contraction a lies in [1 - a_bar, 1)."""
    return min(1.0 / 14.0 ** 2, 1.0 / float(ProductFn(G, g).value(2.0)) ** 2)


def _c0_of(G: ApproxFn, g: ApproxFn, r0: float, n0: int) -> float:
    sup = 0.0
    if n0 >= 1:
        ts = np.linspace(1.0, float(n0), 4097) if n0 > 1 else np.array([1.0])
        Gg = ProductFn(G, g)
        sup = float(np.max(np.asarray(Gg.log_value(ts + 1.0)) / ts))
    return r0 / (4.0 ** (n0 + 3) * (sup + 1.0))


def check_condepsilon(G: ApproxFn, g: ApproxFn, kappa: float, r0: float,
                      n0: int, a: float, eps0: float) -> tuple[bool, float, float]:
    """Evaluate the integral smallness condition for eps0.

    The lower endpoint is (G g)^{-1}(kappa / (2 (1-a)^{(n0-5)/4} sqrt(eps0)));
    the tail integral of log(G g)(t)/t^2 from there must not exceed
    r0 / 4^{n0+2}.  Returns (ok, integral, budget).
    """
    Gg = ProductFn(G, g)
    log_arg = (math.log(kappa) - math.log(2.0)
               - 0.25 * (n0 - 5) * math.log1p(-a) - 0.5 * math.log(eps0))
    lower = Gg.log_inverse(log_arg) if log_arg > float(Gg.log_value(1.0)) else 1.0
    integral = tail_integral(Gg, max(lower, 1.0), 2.0)
    budget = r0 / 4.0 ** (n0 + 2)
    return integral <= budget, integral, budget


def make_schedule(kappa: float, kappa_prime: float | None, G: ApproxFn,
                  g: ApproxFn, r0: float, n0: int, eps0: float,
                  a: float | None = None, C_prime: float = 10.0) -> KamSchedule:
    """Fix the iteration constants a (default 1 - a_bar) and c0 for eps0.

    eps0 is adopted as given: the smallness conditions are premises of the
    theorem, not of the run, which certifies itself from its residuals, its
    ladder and its scans.
    """
    if min(kappa, r0, eps0) <= 0:
        raise ValueError("kappa, r0 and eps0 must be positive")
    a_bar = a_bar_of(G, g)
    if a is None:
        a = 1.0 - a_bar
    if not 1.0 - a_bar <= a < 1.0:
        raise ValueError(f"a = {a} outside [1 - a_bar, 1) with a_bar = {a_bar:.3e}")
    return KamSchedule(kappa=kappa, G=G, g=g, r0=r0, n0=n0, a=a, a_bar=a_bar,
                       c0=_c0_of(G, g, r0, n0), eps0=float(eps0), C_prime=C_prime,
                       kappa_prime=kappa_prime)


def sequence_N(schedule: KamSchedule, n: int) -> int:
    """Largest integer N with (G g)(N)^2 <= (1-a)^2 kappa^2 / (4 eps_n)."""
    log_bound = schedule.log_n_bound(n)
    Gg = schedule.Gg
    if 2.0 * float(Gg.log_value(1.0)) + 1.0 > log_bound:
        raise ScheduleViolation(
            f"eps_{n} too large for any truncation order to exist", step=n)
    N = int(Gg.log_inverse(0.5 * log_bound))
    if N > MAX_ORDER:
        raise ScheduleViolation("truncation order exceeds the exact integer range", step=n)
    while 2.0 * float(Gg.log_value(N + 1.0)) <= log_bound:
        N += 1
    while N > 1 and 2.0 * float(Gg.log_value(float(N))) > log_bound:
        N -= 1
    return N


def item2_holds(schedule: KamSchedule, alpha: complex, m, omega, N: int) -> bool:
    """Closeness at a resonant step: |alpha - i pi <m, omega>| <= kappa/(4 G(N))."""
    thr = schedule.kappa / (4.0 * float(schedule.G.value(N)))
    return bool(abs(shifted_alpha(alpha, m, omega)) <= thr * CERT_SLACK)


def item4_holds(schedule: KamSchedule, n: int, f_norm: float) -> bool:
    """The ladder bound |F_n|_{r_n} <= eps_n; only a measured excess fails it."""
    return not f_norm > schedule.eps_n(n) * CERT_SLACK


def step_residual_holds(residual: float, f_norm: float) -> bool:
    """A step's residual is within STEP_RESIDUAL_TOL (1 + |F_n|); only an excess fails."""
    return not residual > STEP_RESIDUAL_TOL * (1.0 + f_norm)


def item6_holds(schedule: KamSchedule, prev: "StepRecord", alpha: complex, omega) -> bool:
    """Eigenvalue drift: the entry value alpha moves at most sqrt(eps_{n-1})
    from the previous step's value shifted by its resonance (if any)."""
    return bool(abs(shifted_alpha(prev.alpha, prev.m, omega) - alpha)
                <= math.exp(0.5 * schedule.log_eps(prev.n)) * CERT_SLACK)


@dataclass
class StepRecord:
    n: int
    r_n: float
    N_n: int
    eps_bound: float
    f_norm: float
    resonant: bool
    m: tuple
    alpha: complex
    residual: float
    contraction: float
    r_next: float = 0.0
    x_norm: float = 0.0
    debt: float = 0.0
    item2_ok: bool | None = None
    item6_ok: bool | None = None
    margin: float = 0.0
    preconditions: dict = field(default_factory=dict)

    CSV_FIELDS = ["n", "r_n", "N_n", "eps_bound", "F_norm", "resonant", "m",
                  "alpha_re", "alpha_im", "residual", "contraction"]

    def csv_row(self) -> list:
        return [self.n, repr(float(self.r_n)), self.N_n,
                repr(float(self.eps_bound)), repr(float(self.f_norm)),
                int(self.resonant), ";".join(str(int(v)) for v in self.m),
                repr(float(self.alpha.real)), repr(float(self.alpha.imag)),
                repr(float(self.residual)), repr(float(self.contraction))]

    @classmethod
    def from_csv_row(cls, row: dict) -> "StepRecord":
        return cls(
            n=int(row["n"]), r_n=float(row["r_n"]), N_n=int(row["N_n"]),
            eps_bound=float(row["eps_bound"]), f_norm=float(row["F_norm"]),
            resonant=bool(int(row["resonant"])),
            m=tuple(int(v) for v in row["m"].split(";")),
            alpha=complex(float(row["alpha_re"]), float(row["alpha_im"])),
            residual=float(row["residual"]),
            contraction=float(row["contraction"]))


@dataclass
class RunTrace:
    records: list
    omega: np.ndarray

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(StepRecord.CSV_FIELDS)
            for rec in self.records:
                w.writerow(rec.csv_row())

    @classmethod
    def from_csv(cls, path, omega=None) -> "RunTrace":
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        recs = [StepRecord.from_csv_row(r) for r in rows]
        return cls(records=recs, omega=omega)


@dataclass
class Certificate:
    status: str
    status_detail: str
    B: np.ndarray
    Z: TorusMap
    r_final: float
    residual: float
    rotation_sum: float
    steps: int
    resonances_after_n0: int
    f_final_norm: float
    residual_budget: float
    cert_tol: float
    truncation_debt: float

    def to_json_obj(self) -> dict:
        return {
            "status": self.status,
            "status_detail": self.status_detail,
            "B": np.asarray(self.B).tolist(),
            "Z": self.Z.to_json_obj(),
            "r_final": self.r_final,
            "residual": self.residual,
            "rotation_sum": self.rotation_sum,
            "steps": self.steps,
            "resonances_after_n0": self.resonances_after_n0,
            "f_final_norm": self.f_final_norm,
            "residual_budget": self.residual_budget,
            "cert_tol": self.cert_tol,
            "truncation_debt": self.truncation_debt,
        }


def run(A, F: TorusMap, omega, schedule: KamSchedule, max_steps: int = 200,
        cert_tol: float | None = None) -> tuple[RunTrace, Certificate]:
    """Iterate KAM steps until the perturbation falls below cert_tol.

    Raises ScheduleViolation when a measured |F_n| exceeds its ladder bound
    eps_n, and a KamFailure that escapes step n leaves with step = n.  The
    conjugation Z_n is accumulated on the double torus, and the global
    residual of the final Z against the original system is measured once,
    after the last step (0 when no step ran).
    """
    omega = np.asarray(omega, dtype=float)
    A = np.asarray(A, dtype=float)
    if cert_tol is None:
        cert_tol = max(1e-14 * schedule.eps0, 1e-250)
    ctx = StepContext(omega=omega, kappa=schedule.kappa, G=schedule.G,
                      g=schedule.g, C_prime=schedule.C_prime)
    d = F.d
    Z = TorusMap.identity(d)
    A_n, F_n, r_n = A, F, schedule.r0
    alpha_n = eigen(A_n).alpha
    f0_norm = F.weighted_norm(schedule.r0)
    records: list[StepRecord] = []
    resonances_after_n0 = 0
    rotation_sum = 0.0
    terminated = None

    try:
        for n in range(max_steps):
            f_norm = F_n.weighted_norm(r_n)
            eps_n = schedule.eps_n(n)
            if not item4_holds(schedule, n, f_norm):
                raise ScheduleViolation(
                    f"|F|_r = {f_norm:.6e} exceeds eps_n = {eps_n:.6e}")
            if f_norm <= cert_tol:
                terminated = "converged"
                break
            N_n = sequence_N(schedule, n)
            rep = find_resonance(alpha_n, omega, schedule.kappa, schedule.G,
                                 schedule.g, N_n)
            if rep.m is None:
                r_next = r_n - schedule.c0 * abs(math.log1p(-schedule.a)) \
                    / (2.0 * math.pi * N_n)
                if r_next <= 0:
                    raise ScheduleViolation("strip width exhausted")
                out = step_nonresonant(A_n, F_n, r_n, r_next, N_n, schedule.a,
                                       ctx, rep)
            else:
                if n >= schedule.n0:
                    resonances_after_n0 += 1
                out = step_resonant(A_n, F_n, r_n, N_n, schedule.a, schedule.c0,
                                    ctx, rep)
                rotation_sum += resonance_shift(rep.m, omega)
            item2_ok = item2_holds(schedule, alpha_n, rep.m, omega, N_n) if out.resonant else None
            item6_ok = item6_holds(schedule, records[-1], alpha_n, omega) if records else None
            Z = Z.mul(out.Z_step).cap_support(out.r_next)
            records.append(StepRecord(
                n=n, r_n=r_n, N_n=N_n, eps_bound=eps_n, f_norm=f_norm,
                resonant=out.resonant, m=out.m if out.m is not None else (0,) * d,
                alpha=alpha_n, residual=out.residual_norm,
                contraction=out.contraction_observed, r_next=out.r_next,
                x_norm=out.x_norm, debt=Z.truncation_debt + out.F_next.truncation_debt,
                item2_ok=item2_ok, item6_ok=item6_ok, margin=rep.margin,
                preconditions=out.preconditions))
            A_n, F_n, r_n, alpha_n = out.A_next, out.F_next, out.r_next, out.alpha_next
    except KamFailure as exc:
        exc.step = n
        raise

    global_residual = conjugation_residual(A, F, Z, A_n, F_n, omega, r_n) if records else 0.0
    f_final = F_n.weighted_norm(r_n)
    debt = Z.truncation_debt + F_n.truncation_debt
    budget = len(records) * STEP_RESIDUAL_TOL * (1.0 + f0_norm) + debt
    residual = global_residual + f_final
    r_floor = schedule.r0 / 4.0 ** (schedule.n0 + 1)
    if terminated == "converged" or f_final <= cert_tol:
        if global_residual <= budget and r_n >= r_floor * (1.0 - 1e-12):
            status, detail = "Reduced", ""
        elif global_residual > budget:
            status, detail = "Stalled", "residual-budget-exceeded"
        else:
            status, detail = "Stalled", "strip-width-below-floor"
    else:
        status, detail = "Stalled", "max-steps"
    trace = RunTrace(records=records, omega=omega)
    cert = Certificate(
        status=status, status_detail=detail, B=A_n, Z=Z, r_final=r_n,
        residual=residual, rotation_sum=rotation_sum, steps=len(records),
        resonances_after_n0=resonances_after_n0, f_final_norm=f_final,
        residual_budget=budget, cert_tol=cert_tol, truncation_debt=debt)
    return trace, cert


def rn_lower_bound(schedule: KamSchedule) -> float:
    """Certified lower bound on lim r_n when no late resonances occur.

    Evaluates r0/4^{n0} + log((G g)(N_{n0}))/(pi N_{n0})
    - (1/pi) * integral_{N_{n0}}^inf log(G g)(t)/t^2 dt; the caller compares
    it with the floor r0 / 4^{n0+1}.  Raises DivergentIntegral when the
    product G*g is not of Brjuno-Russmann type.
    """
    N0 = sequence_N(schedule, schedule.n0)
    Gg = schedule.Gg
    integral = tail_integral(Gg, float(max(N0, 1)), 2.0)
    bound = schedule.r0 / 4.0 ** schedule.n0 \
        + float(Gg.log_value(float(max(N0, 1)))) / (math.pi * N0) \
        - integral / math.pi
    return bound


def smallness_explicit(case: tuple, kappa: float, r0: float, n0: int,
                       a: float) -> float:
    """Closed-form admissible eps0 for the three standard function classes.

    case is ("dioph", mu_plus_mu_prime), ("exp", alpha, alpha_prime) with
    both exponents below 1, or ("explog", delta, alpha).  The explog value
    routinely underflows to 0.0 for small r0; callers should treat that as
    "no representable eps0".
    """
    kind = case[0]
    if kind == "dioph":
        musum = float(case[1])
        if musum <= 2:
            raise ValueError("mu + mu' must exceed 2")
        return (r0 / (4.0 ** (n0 + 3) * musum)) ** (4.0 * musum) * kappa
    if kind == "exp":
        alpha = max(float(case[1]), float(case[2]))
        if alpha >= 1:
            raise ValueError("exponents must be below 1")
        q = 2.0 * 4.0 ** (n0 + 2) / (r0 * (1.0 - alpha))
        log_eps = math.log(kappa / 4.0) - 2.0 * q ** (alpha / (1.0 - alpha))
        return math.exp(log_eps) if log_eps > -745.0 else 0.0
    if kind == "explog":
        delta, alpha = float(case[1]), float(case[2])
        if delta <= 1 or alpha >= 1:
            raise ValueError("need delta > 1 and alpha < 1")
        q = (4.0 ** (n0 + 3) / (r0 * (delta - 1.0) * (1.0 - alpha))) \
            ** (1.0 / ((delta - 1.0) * (1.0 - alpha)))
        if q > 700.0:
            return 0.0
        T = math.exp(q)
        log_gg = T / max(math.log(T), delta) ** delta + T ** alpha
        log_eps = math.log(kappa / 4.0) - 2.0 * log_gg
        return math.exp(log_eps) if log_eps > -745.0 else 0.0
    raise ValueError(f"unknown smallness case {case!r}")


def brjuno_sum_threshold(kappa: float, r0: float, n0: int, a: float,
                         G: ApproxFn, g: ApproxFn) -> float:
    """eps0 from the Brjuno-sum expression.

    exp(-r0/4^{n0} - |log(kappa/(2(1-a)^{n0}))| - 2 * integral of
    log(g G)(t)/t^2 over [1, inf)).  Raises DivergentIntegral when the sum
    is infinite.  The value is a convenience threshold; whether it actually
    passes the integral smallness condition is parameter-dependent and
    should be checked with check_condepsilon.
    """
    integral = tail_integral(ProductFn(G, g), 1.0, 2.0)
    exponent = -r0 / 4.0 ** n0 \
        - abs(math.log(kappa / 2.0) - n0 * math.log1p(-a)) - 2.0 * integral
    return math.exp(exponent) if exponent > -745.0 else 0.0


def resonance_budget_check(trace: RunTrace, schedule: KamSchedule,
                           rho_target: float | None = None) -> dict:
    """Post-hoc audit of the resonance bookkeeping along a trace.

    Verifies the cumulative bound sum_{j<=n} |m_j| <= N_n^2, the closeness
    inequality at every resonant step and the eigenvalue drift inequality
    (both recomputed from the rows with run's item2_holds and item6_holds), the
    strict growth of truncation orders between resonances, and (when
    kappa' and a measured rotation number are supplied) the hypothesis
    kappa' > kappa * sup g(t^2)/G(t) together with its consequence that no
    resonance occurs past n0.
    """
    recs = trace.records
    cum = 0
    sum_ok = True
    item2_ok = True
    resonant_orders = []
    late_resonances = 0
    for rec in recs:
        mod = sum(abs(v) for v in rec.m)
        cum += mod
        if cum > rec.N_n ** 2:
            sum_ok = False
        if rec.resonant:
            resonant_orders.append(rec.N_n)
            if rec.n >= schedule.n0:
                late_resonances += 1
            item2_ok &= item2_holds(schedule, rec.alpha, rec.m, trace.omega, rec.N_n)
    item6_ok = all(item6_holds(schedule, prev, rec.alpha, trace.omega)
                   for prev, rec in zip(recs, recs[1:]))
    interlacing_ok = all(b > a for a, b in zip(resonant_orders, resonant_orders[1:]))
    bounded, sup_est = ratio_bounded(schedule.g, schedule.G, t_min=max(schedule.n0, 1.0))
    report = {
        "cumulative_m_ok": sum_ok,
        "item2_ok": item2_ok,
        "item6_ok": item6_ok,
        "interlacing_ok": interlacing_ok,
        "resonances_after_n0": late_resonances,
        "ratio_bounded": bounded,
        "ratio_sup_estimate": sup_est,
        "kappa_prime_condition": None,
        "kappa_prime_consistent": None,
        "rho_hypothesis": None,
    }
    if schedule.kappa_prime is not None and bounded and math.isfinite(sup_est):
        cond = schedule.kappa_prime > schedule.kappa * sup_est
        report["kappa_prime_condition"] = cond
        report["kappa_prime_consistent"] = (not cond) or late_resonances == 0
    if rho_target is not None and schedule.kappa_prime is not None and recs:
        rep = check_nr_alpha(1j * rho_target, trace.omega, schedule.kappa_prime,
                             schedule.g, max(r.N_n for r in recs))
        report["rho_hypothesis"] = bool(rep.ok)
        report["rho_worst_offender"] = rep.m
    return report
