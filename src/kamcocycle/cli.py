"""Command-line harness: configs in, traces/certificates/reports out.

Subcommands:

  run          execute the KAM iteration for a JSON config (or a batch)
  check-arith  scan the arithmetic conditions of a config
  audit        re-verify a finished trace against its config
  rotnum       measure the rotation number of the configured system

All data files are deterministic (no timestamps); provenance lives in a
sidecar run_meta.json.  Exit codes: 0 success/Reduced, 1 config error,
2 Stalled, 3 precondition or certified-bound failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import datetime
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .arithmetics import (
    ApproxFn,
    DivergentIntegral,
    ScanOrderTooLarge,
    approxfn_from_spec,
    check_nr_omega,
    check_scan_order,
    fit_G,
    fit_kappa,
    ratio_bounded,
    tail_integral,
)
from .kam_driver import (
    KamSchedule,
    NoFeasibleEpsilon,
    RunTrace,
    ScheduleViolation,
    a_bar_of,
    brjuno_sum_threshold,
    item2_holds,
    item6_holds,
    make_schedule,
    resonance_budget_check,
    run,
    sequence_N,
    smallness_explicit,
)
from .kam_step import MultipleResonances, PreconditionFailure
from .rotation_number import rotation_number, verify_additivity
from .sl2_algebra import BoundViolation, SingularOperator, check_sl2
from .torus_fourier import TorusMap


class ConfigError(Exception):
    def __init__(self, fieldname: str, message: str):
        self.fieldname = fieldname
        super().__init__(f"config field '{fieldname}': {message}")


_KNOWN_FIELDS = {
    "omega", "kappa", "kappa_prime", "G", "g", "r0", "n0", "eps0", "a",
    "C_prime", "A", "E", "V", "F", "max_steps", "cert_tol", "fit_N", "name",
}
_DEFAULTS = {
    "kappa_prime": None, "a": None, "C_prime": 10.0, "E": None, "V": None,
    "F": None, "max_steps": 200, "cert_tol": None, "fit_N": 200, "name": "run",
}


@dataclass
class RunConfig:
    omega: np.ndarray
    kappa: float | str
    G: dict
    g: dict
    r0: float
    n0: int
    eps0: float | str
    A: list | str
    kappa_prime: float | None = None
    a: float | None = None
    C_prime: float = 10.0
    E: float | None = None
    V: dict | None = None
    F: dict | None = None
    max_steps: int = 200
    cert_tol: float | None = None
    fit_N: int = 200
    name: str = "run"
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_obj(cls, obj: dict) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        unknown = set(obj) - _KNOWN_FIELDS
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown field")
        for req in ("omega", "kappa", "G", "g", "r0", "n0", "eps0", "A"):
            if req not in obj:
                raise ConfigError(req, "missing required field")
        omega = np.asarray(obj["omega"], dtype=float)
        if omega.ndim != 1 or omega.size < 1:
            raise ConfigError("omega", "must be a nonempty vector")
        kappa = obj["kappa"]
        if not (kappa == "fit" or (isinstance(kappa, (int, float)) and kappa > 0)):
            raise ConfigError("kappa", "must be a positive number or 'fit'")
        eps0 = obj["eps0"]
        if not (eps0 in ("auto:dioph", "auto:brjuno-sum")
                or (isinstance(eps0, (int, float)) and eps0 > 0)):
            raise ConfigError("eps0", "must be positive or 'auto:dioph'/'auto:brjuno-sum'")
        A = obj["A"]
        if A == "schrodinger":
            if "E" not in obj or "V" not in obj:
                raise ConfigError("E", "the schrodinger preset requires E and V")
        elif not (isinstance(A, list) and np.asarray(A, dtype=float).shape == (2, 2)):
            raise ConfigError("A", "must be a 2x2 matrix or 'schrodinger'")
        for fn_field in ("G", "g"):
            try:
                approxfn_from_spec(obj[fn_field])
            except Exception as exc:
                raise ConfigError(fn_field, str(exc)) from exc
        kwargs = {k: obj[k] for k in _KNOWN_FIELDS if k in obj}
        kwargs["omega"] = omega
        merged = dict(_DEFAULTS)
        merged.update(kwargs)
        return cls(raw=dict(obj), **merged)

    def to_obj(self) -> dict:
        out = {
            "omega": [float(v) for v in self.omega],
            "kappa": self.kappa, "G": self.G, "g": self.g, "r0": self.r0,
            "n0": self.n0, "eps0": self.eps0, "A": self.A,
        }
        for k, default in _DEFAULTS.items():
            v = getattr(self, k)
            if v != default:
                out[k] = v
        return out

    # -- derived objects ---------------------------------------------------

    def approx_fns(self) -> tuple[ApproxFn, ApproxFn]:
        return approxfn_from_spec(self.G), approxfn_from_spec(self.g)

    def resolve_kappa(self, G: ApproxFn) -> float:
        if self.kappa == "fit":
            # d <= 2 is windowed past the exhaustive ball, d >= 3 is not
            try:
                check_scan_order(self.fit_N, self.omega.size)
            except ValueError as exc:
                raise ConfigError("fit_N", str(exc)) from exc
            return fit_kappa(self.omega, G, self.fit_N)
        return float(self.kappa)

    def system(self) -> tuple[np.ndarray, TorusMap]:
        d = self.omega.size
        if self.A == "schrodinger":
            v0 = float(self.V.get("v0", 0.0))
            modes = [(tuple(int(x) for x in mode["m"]), float(mode["c"]))
                     for mode in self.V.get("modes", [])]
            return build_schrodinger(float(self.E), v0, modes, d)
        A = check_sl2(np.asarray(self.A, dtype=float))
        if self.F is None:
            return A, TorusMap.zero(d)
        return A, TorusMap.from_json_obj({"d": d, **self.F})

    def schedule(self) -> KamSchedule:
        G, g = self.approx_fns()
        kappa = self.resolve_kappa(G)
        a = self.a
        a_val = a if a is not None else 1.0 - a_bar_of(G, g)
        eps0 = self.eps0
        if eps0 == "auto:dioph":
            if not (G.kind == "power" and g.kind == "power"):
                raise ConfigError("eps0", "auto:dioph needs power-law G and g")
            eps0 = smallness_explicit(("dioph", G.mu + g.mu), kappa,
                                      self.r0, self.n0, a_val)
        elif eps0 == "auto:brjuno-sum":
            eps0 = brjuno_sum_threshold(kappa, self.r0, self.n0, a_val, G, g)
        return make_schedule(kappa, self.kappa_prime, G, g, self.r0, self.n0,
                             float(eps0), a=a, C_prime=self.C_prime,
                             require_feasible=False)


def build_schrodinger(E: float, v0: float, modes: list, d: int):
    """Cocycle of the stationary quasi-periodic Schrodinger equation.

    The potential is V(theta) = v0 + sum_j 2 c_j cos(2 pi <m_j, theta>);
    the constant part carries the mean, the perturbation the oscillation:

        A = [[0, v0 - E], [1, 0]],   F = [[0, V - v0], [0, 0]].
    """
    A = np.array([[0.0, v0 - E], [1.0, 0.0]])
    entries = []
    for m, c in modes:
        M = np.array([[0.0, c], [0.0, 0.0]], dtype=complex)
        hk = tuple(2 * int(x) for x in m)
        entries.append((hk, M))
        entries.append((tuple(-v for v in hk), M))
    F = TorusMap.from_modes(d, entries, reality=True) if entries else TorusMap.zero(d)
    return A, F


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_json(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"error: {path}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr)
        return None


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_meta(out_dir: Path, name: str) -> None:
    meta = {"tool": "kamcocycle", "version": __version__,
            "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat()}
    _write_json(out_dir / f"{name}_meta.json", meta)


_FAILURES = (PreconditionFailure, ScheduleViolation, NoFeasibleEpsilon,
             MultipleResonances, SingularOperator, BoundViolation,
             DivergentIntegral, ArithmeticError, ScanOrderTooLarge)


def _run_single(config_path: str, out_dir: str | None) -> int:
    path = Path(config_path)
    obj = _load_json(path)
    if obj is None:
        return 1
    try:
        cfg = RunConfig.from_obj(obj)
        A, F = cfg.system()
        schedule = cfg.schedule()
    except ConfigError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 1
    out = Path(out_dir) if out_dir else path.parent
    out.mkdir(parents=True, exist_ok=True)
    try:
        trace, cert = run(A, F, cfg.omega, schedule, max_steps=cfg.max_steps,
                          cert_tol=cfg.cert_tol)
    except _FAILURES as exc:
        _write_json(out / "certificate.json",
                    {"status": "PreconditionFailure", "status_detail": str(exc)})
        _write_meta(out, "run")
        print(f"{cfg.name}: PreconditionFailure: {exc}", file=sys.stderr)
        return 3
    trace.to_csv(out / "trace.csv")
    (out / "certificate.json").write_text(
        json.dumps(cert.to_json_obj(), sort_keys=True, indent=2) + "\n")
    _write_meta(out, "run")
    print(f"{cfg.name}: {cert.status} steps={cert.steps} "
          f"residual={cert.residual:.3e} r_final={cert.r_final:.6f}")
    return 0 if cert.status == "Reduced" else 2


def cmd_run(args) -> int:
    obj = _load_json(Path(args.config))
    if obj is None:
        return 1
    if isinstance(obj, dict) and "batch" in obj:
        paths = obj["batch"]
        base = Path(args.config).parent
        jobs = max(1, args.jobs)
        resolved = [str(base / p) for p in paths]
        # per-config output directories keep batch members from clobbering
        # each other's trace/certificate files
        outs = [str((Path(args.out) if args.out else Path(p).parent)
                    / f"{Path(p).stem}_out") for p in resolved]
        if jobs == 1:
            codes = [_run_single(p, o) for p, o in zip(resolved, outs)]
        else:
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                codes = list(pool.map(_run_single, resolved, outs))
        return max(codes) if codes else 0
    return _run_single(args.config, args.out)


def cmd_check_arith(args) -> int:
    path = Path(args.config)
    obj = _load_json(path)
    if obj is None:
        return 1
    try:
        cfg = RunConfig.from_obj(obj)
        G, g = cfg.approx_fns()
        kappa = cfg.resolve_kappa(G)
    except ConfigError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 1
    N = args.N
    try:
        check_scan_order(N, cfg.omega.size)
    except ValueError as exc:
        print(f"error: --N: {exc}", file=sys.stderr)
        return 1
    omega_rep = check_nr_omega(cfg.omega, kappa, G, N)
    report = {
        "kappa": kappa,
        "omega_nr_ok": bool(omega_rep.ok),
        "omega_worst_m": list(omega_rep.m) if omega_rep.m else None,
        "omega_margin": omega_rep.value,
    }
    for label, fn, s in (("G_tail_2", G, 2.0), ("g_tail_2", g, 2.0),
                         ("g_tail_3_2", g, 1.5)):
        try:
            report[label] = tail_integral(fn, 1.0, s)
        except DivergentIntegral:
            report[label] = "divergent"
    bounded, sup_est = ratio_bounded(g, G, t_min=max(cfg.n0, 1.0))
    report["ratio_bounded"] = bool(bounded)
    report["ratio_sup_estimate"] = sup_est if math.isfinite(sup_est) else "inf"
    fit_n = min(N, cfg.fit_N)
    out = Path(args.out) if args.out else path.parent
    out.mkdir(parents=True, exist_ok=True)
    try:
        kappa_fit, G_fit = fit_G(cfg.omega, fit_n)
        report["fit_kappa"] = kappa_fit
        with open(out / "g_table.csv", "w") as fh:
            fh.write("N,G_N,argmin_m\n")
            for i in range(fit_n):
                m = G_fit.argmins[i]
                fh.write(f"{i + 1},{G_fit.vals[i]!r},{';'.join(str(v) for v in m)}\n")
    except (ArithmeticError, ValueError) as exc:
        # rational dependence, or an order past the tabulating scan
        report["fit_kappa"] = None
        report["fit_error"] = str(exc)
    # the ratio condition constrains the (g, G) pairing for the
    # rotation-number route; it is reported but does not gate the exit,
    # which covers the frequency arithmetic only
    passing = (report["omega_nr_ok"] and report["G_tail_2"] != "divergent"
               and report["g_tail_2"] != "divergent")
    report["pass"] = bool(passing)
    _write_json(out / "arith_report.json", report)
    print(json.dumps(report, sort_keys=True))
    return 0 if passing else 1


def cmd_audit(args) -> int:
    cfg_obj = _load_json(Path(args.config))
    if cfg_obj is None:
        return 1
    try:
        cfg = RunConfig.from_obj(cfg_obj)
        schedule = cfg.schedule()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        trace = RunTrace.from_csv(args.trace, omega=cfg.omega)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: malformed trace {args.trace}: {exc}", file=sys.stderr)
        return 1
    item4_ok = True
    n_ok = True
    residual_ok = True
    prev = None
    for rec in trace.records:
        if rec.f_norm > schedule.eps_n(rec.n) * (1.0 + 1e-9):
            item4_ok = False
        if rec.N_n != sequence_N(schedule, rec.n):
            n_ok = False
        if rec.residual > 1e-10 * (1.0 + rec.f_norm):
            residual_ok = False
        if rec.resonant:
            rec.item2_ok = item2_holds(schedule, rec.alpha, rec.m, cfg.omega, rec.N_n)
        if prev is not None:
            shifted = prev.alpha - 1j * math.pi * float(np.dot(prev.m, cfg.omega))
            rec.item6_ok = item6_holds(shifted, rec.alpha, schedule.log_eps(prev.n))
        prev = rec
    budget = resonance_budget_check(trace, schedule)
    report = {
        "item4_f_norm_ok": item4_ok,
        "truncation_orders_ok": n_ok,
        "residuals_ok": residual_ok,
        "budget": budget,
    }
    has_resonance = any(r.resonant for r in trace.records)
    if has_resonance:
        A, F = cfg.system()
        est = rotation_number(TorusMap.constant(A, cfg.omega.size).add(F),
                              cfg.omega, T=args.T, h=args.h)
        add = verify_additivity(est.rho, _final_B(trace, cfg.omega), trace, cfg.omega,
                                tol=2.0 * est.error_estimate)
        report["rho_measured"] = est.rho
        report["rho_error_estimate"] = est.error_estimate
        report["additivity_ok"] = add.ok
        report["additivity_defect"] = add.defect
        report["additivity_sign"] = add.matched_sign
    verdicts = [item4_ok, n_ok, residual_ok, budget["cumulative_m_ok"],
                budget["item2_ok"], budget["item6_ok"], budget["interlacing_ok"]]
    if has_resonance:
        verdicts.append(report["additivity_ok"])
    report["pass"] = bool(all(verdicts))
    out = Path(args.out) if args.out else Path(args.trace).parent
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "audit_report.json", report)
    print(json.dumps(report, sort_keys=True))
    return 0 if report["pass"] else 1


def _final_B(trace: RunTrace, omega) -> np.ndarray:
    # the audit has no certificate at hand: reconstruct the final constant
    # part's eigenvalue from the last entry value shifted by that step's
    # resonance; the sqrt(eps) drift this ignores is inside the additivity
    # allowance anyway
    last = trace.records[-1]
    shifted = last.alpha - 1j * math.pi * float(np.dot(last.m, omega))
    beta = abs(shifted.imag)
    return np.array([[0.0, beta], [-beta, 0.0]])


def cmd_rotnum(args) -> int:
    obj = _load_json(Path(args.config))
    if obj is None:
        return 1
    try:
        cfg = RunConfig.from_obj(obj)
        A, F = cfg.system()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    est = rotation_number(TorusMap.constant(A, cfg.omega.size).add(F),
                          cfg.omega, T=args.T, h=args.h)
    out = {"rho": est.rho, "T": est.T, "h": est.h,
           "error_estimate": est.error_estimate}
    print(json.dumps(out, sort_keys=True))
    if args.out:
        _write_json(Path(args.out), out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kamcocycle",
        description="KAM reduction of quasi-periodic sl(2,R) cocycles")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the KAM iteration")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.set_defaults(func=cmd_run)

    p_arith = sub.add_parser("check-arith", help="arithmetic condition scan")
    p_arith.add_argument("--config", required=True)
    p_arith.add_argument("--N", type=int, required=True)
    p_arith.add_argument("--out", default=None)
    p_arith.set_defaults(func=cmd_check_arith)

    p_audit = sub.add_parser("audit", help="re-verify a finished trace")
    p_audit.add_argument("--trace", required=True)
    p_audit.add_argument("--config", required=True)
    p_audit.add_argument("--out", default=None)
    p_audit.add_argument("--T", type=float, default=4000.0)
    p_audit.add_argument("--h", type=float, default=0.01)
    p_audit.set_defaults(func=cmd_audit)

    p_rot = sub.add_parser("rotnum", help="measure the rotation number")
    p_rot.add_argument("--config", required=True)
    p_rot.add_argument("--T", type=float, default=1e4)
    p_rot.add_argument("--h", type=float, default=1e-2)
    p_rot.add_argument("--out", default=None)
    p_rot.set_defaults(func=cmd_rotnum)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
