"""Command-line harness: configs in, traces/certificates/reports out.

Subcommands:

  run          execute the KAM iteration for a JSON config (or a batch)
  check-arith  scan the arithmetic conditions of a config
  audit        re-verify a finished trace against its config
  rotnum       measure the rotation number of the configured system

All data files are deterministic (no timestamps); provenance lives in the
sidecars run_meta.json and audit_meta.json.  Exit codes: 0 success/Reduced,
1 input error, 2 Stalled, 3 a failed certified condition (KamFailure),
4 internal error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import datetime
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .arithmetics import (
    ApproxFn,
    DivergentIntegral,
    PowerFn,
    ScanOrderTooLarge,
    approxfn_from_spec,
    check_nr_omega,
    check_scan_order,
    fit_G,
    fit_kappa,
    ratio_bounded,
    tail_integral,
)
from .errors import KamFailure
from .kam_driver import (
    KamSchedule,
    RunTrace,
    a_bar_of,
    item4_holds,
    make_schedule,
    resonance_budget_check,
    run,
    schedule_columns_hold,
    sequence_N,
    smallness_explicit,
    step_residual_holds,
)
from .rotation_number import rotation_number, verify_additivity
from .sl2_algebra import check_sl2, shifted_alpha
from .torus_fourier import TorusMap


class InputError(Exception):
    """Input that cannot be used: an unreadable or malformed file, or a bad option."""


class ConfigError(InputError):
    def __init__(self, fieldname: str, message: str):
        self.fieldname = fieldname
        super().__init__(f"config field '{fieldname}': {message}")


_REQUIRED = ("omega", "kappa", "G", "g", "r0", "n0", "eps0", "A")
_DEFAULTS = {
    "kappa_prime": None, "a": None, "C_prime": 10.0, "E": None, "V": None,
    "F": None, "max_steps": 200, "cert_tol": None, "fit_N": 200, "name": "run",
}
# the loss constant c0 divides by 4.0 ** (n0 + 3), a float up to n0 = 508
_N0_MAX = 508


def _is_json(v, kind: str) -> bool:
    # a JSON number or integer; a JSON boolean is neither
    types = int if kind == "integer" else (int, float)
    return isinstance(v, types) and not isinstance(v, bool)


def _typed(v, kind: str, what: str):
    # a V entry of the given JSON kind, as a float for a number
    if not _is_json(v, kind):
        raise ValueError(f"{what} {v!r} is not a JSON {kind}")
    return float(v) if kind == "number" else v


@contextlib.contextmanager
def _field(name: str):
    # a value that cannot be built into what its field describes
    try:
        yield
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError,
            KamFailure) as exc:
        raise ConfigError(name, str(exc)) from exc


def _number(obj: dict, name: str, must: str, kind: str = "number",
            above: float | None = None, null: bool = False):
    """The float (or int, for kind "integer") of a number field, greater
    than above when above is given; None for a null where null is allowed."""
    v = obj[name]
    if null and v is None:
        return None
    if not (_is_json(v, kind) and (above is None or v > above)):
        raise ConfigError(name, must)
    with _field(name):  # an integer too large for a float
        return float(v) if kind == "number" else v


@dataclass
class RunConfig:
    """A config with every field built into what it describes."""

    omega: np.ndarray
    kappa: float | str
    G: ApproxFn
    g: ApproxFn
    r0: float
    n0: int
    eps0: float | str
    A: np.ndarray
    F: TorusMap
    kappa_prime: float | None
    a: float | None
    C_prime: float
    max_steps: int
    cert_tol: float | None
    fit_N: int
    name: str

    @classmethod
    def from_obj(cls, obj: dict) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        unknown = set(obj) - set(_REQUIRED) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown field")
        for req in _REQUIRED:
            if req not in obj:
                raise ConfigError(req, "missing required field")
        for name in sorted(obj):
            # json reads NaN, Infinity and 1e400, and no field takes them
            with _field(name):
                json.dumps(obj[name], allow_nan=False)
        o = {**_DEFAULTS, **obj}
        with _field("omega"):
            omega = np.asarray(o["omega"], dtype=float)
        if omega.ndim != 1 or omega.size < 1 or not omega.any():
            raise ConfigError("omega", "must be a nonempty vector with a nonzero entry")
        d = omega.size
        kappa = "fit" if o["kappa"] == "fit" else _number(
            o, "kappa", "must be a positive number or 'fit'", above=0)
        eps0 = o["eps0"] if o["eps0"] == "auto:dioph" else _number(
            o, "eps0", "must be positive or 'auto:dioph'", above=0)
        n0 = _number(o, "n0", "must be a non-negative integer", "integer", above=-1)
        if n0 > _N0_MAX:
            raise ConfigError("n0", f"must be at most {_N0_MAX}: 4^(n0 + 3) in the "
                              "loss constant c0 leaves the float range")
        if o["A"] == "schrodinger":
            if "E" not in obj or "V" not in obj:
                raise ConfigError("E", "the schrodinger preset requires E and V")
            E = _number(o, "E", "must be a number")
            with _field("V"):
                modes = [(tuple(_typed(x, "integer", "mode index") for x in mode["m"]),
                          _typed(mode["c"], "number", "coefficient c"))
                         for mode in o["V"].get("modes", [])]
                v0 = _typed(o["V"].get("v0", 0.0), "number", "v0")
                A, F = build_schrodinger(E, v0, modes, d)
        elif isinstance(o["A"], list):
            with _field("A"):
                A = check_sl2(np.asarray(o["A"], dtype=float))
            with _field("F"):
                F = (TorusMap.zero(d) if o["F"] is None
                     else TorusMap.from_json_obj(o["F"], d))
        else:
            raise ConfigError("A", "must be a 2x2 matrix or 'schrodinger'")
        with _field("G"):
            G = approxfn_from_spec(o["G"])
        with _field("g"):
            g = approxfn_from_spec(o["g"])
        return cls(
            omega=omega, kappa=kappa, G=G, g=g, n0=n0, eps0=eps0, A=A, F=F,
            r0=_number(o, "r0", "must be a positive number", above=0),
            kappa_prime=_number(o, "kappa_prime", "must be a positive number or null",
                                above=0, null=True),
            a=_number(o, "a", "must be a number or null", null=True),
            C_prime=_number(o, "C_prime", "must be a positive number", above=0),
            max_steps=_number(o, "max_steps", "must be a non-negative integer", "integer",
                              above=-1),
            cert_tol=_number(o, "cert_tol", "must be a number or null", null=True),
            fit_N=_number(o, "fit_N", "must be a positive integer", "integer", above=0),
            name=o["name"])

    def resolve_kappa(self) -> float:
        if self.kappa != "fit":
            return self.kappa
        # no scan passes 2^52, nor, at d >= 3, the exhaustive ball
        try:
            check_scan_order(self.fit_N, self.omega.size)
        except ScanOrderTooLarge as exc:
            raise ConfigError("fit_N", str(exc)) from exc
        kappa = fit_kappa(self.omega, self.G, self.fit_N)
        if not kappa > 0:
            raise ConfigError("kappa", f"the fitted kappa is {kappa!r}: <m, omega> = 0 "
                              f"for some 0 < |m| <= fit_N = {self.fit_N}")
        return kappa

    def schedule(self) -> KamSchedule:
        G, g = self.G, self.g
        kappa = self.resolve_kappa()
        a = self.a
        a_val = a if a is not None else 1.0 - a_bar_of(G, g)
        eps0 = self.eps0
        if eps0 == "auto:dioph" and not (isinstance(G, PowerFn) and isinstance(g, PowerFn)):
            raise ConfigError("eps0", "auto:dioph needs power-law G and g")
        try:
            if eps0 == "auto:dioph":
                eps0 = smallness_explicit(("dioph", G.mu + g.mu), kappa,
                                          self.r0, self.n0, a_val)
        except ValueError as exc:
            raise ConfigError("eps0", f"{self.eps0}: {exc}") from exc
        if not eps0 > 0:
            raise ConfigError("eps0", f"{self.eps0} underflows to {eps0!r}")
        try:
            return make_schedule(kappa, self.kappa_prime, G, g, self.r0, self.n0,
                                 eps0, a=a, C_prime=self.C_prime)
        except ValueError as exc:  # kappa, r0, eps0 and C_prime are positive by now
            raise ConfigError("a", str(exc)) from exc


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
    F = TorusMap.from_modes(d, entries, reality=True)
    return A, F


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_json(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_meta(out_dir: Path, name: str, **fields) -> None:
    meta = {"tool": "kamcocycle", "version": __version__,
            "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(), **fields}
    _write_json(out_dir / f"{name}_meta.json", meta)


def _run_single(config_path: str, out_dir: str | None) -> int:
    # a batch goes on past a failed member, and a failed run leaves a certificate
    path = Path(config_path)
    try:
        cfg = RunConfig.from_obj(_load_json(path))
        schedule = cfg.schedule()
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(out_dir) if out_dir else path.parent
    out.mkdir(parents=True, exist_ok=True)
    try:
        trace, cert = run(cfg.A, cfg.F, cfg.omega, schedule, max_steps=cfg.max_steps,
                          cert_tol=cfg.cert_tol)
    except KamFailure as exc:
        detail = f"{type(exc).__name__} at step {exc.step}: {exc}"
        _write_json(out / "certificate.json",
                    {"status": "PreconditionFailure", "status_detail": detail})
        _write_meta(out, "run")
        print(f"{cfg.name}: PreconditionFailure: {detail}", file=sys.stderr)
        return 3
    trace.to_csv(out / "trace.csv")
    _write_json(out / "certificate.json", cert.to_json_obj())
    _write_meta(out, "run")
    print(f"{cfg.name}: {cert.status} steps={cert.steps} "
          f"residual={cert.residual:.3e} r_final={cert.r_final:.6f}")
    return 0 if cert.status == "Reduced" else 2


def cmd_run(args) -> int:
    obj = _load_json(Path(args.config))
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
    cfg = RunConfig.from_obj(_load_json(path))
    G, g = cfg.G, cfg.g
    kappa = cfg.resolve_kappa()
    N = args.N
    try:
        check_scan_order(N, cfg.omega.size)
    except ScanOrderTooLarge as exc:
        raise InputError(f"--N: {exc}") from exc
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
    except KamFailure as exc:
        # rational dependence, or an order outside the tabulating scan
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


def _check_horizon(args) -> None:
    """--T and --h of audit and rotnum: positive finite numbers, with at
    least one step of h and at most 2^52 steps of h/2 (the exact integer
    range of a float)."""
    for flag, value in (("--T", args.T), ("--h", args.h)):
        if not (math.isfinite(value) and value > 0.0):
            raise InputError(f"{flag} must be a positive finite number, got {value!r}")
    if args.T < args.h:
        raise InputError(f"--T {args.T!r} is shorter than one step of --h {args.h!r}")
    if not args.T / (0.5 * args.h) <= 2.0 ** 52:
        raise InputError(f"--T {args.T!r} / --h {args.h!r} needs more than 2^52 steps")


def cmd_audit(args) -> int:
    _check_horizon(args)
    cfg = RunConfig.from_obj(_load_json(Path(args.config)))
    schedule = cfg.schedule()
    try:
        trace = RunTrace.from_csv(args.trace, omega=cfg.omega)
    except (OSError, ValueError, csv.Error) as exc:
        raise InputError(f"malformed trace {args.trace}: {exc}") from exc
    recs = trace.records
    columns_ok = schedule_columns_hold(schedule, recs)
    item4_ok = all(item4_holds(schedule, r.n, r.f_norm) for r in recs)
    n_ok = all(r.N_n == sequence_N(schedule, r.n) for r in recs)
    residual_ok = all(step_residual_holds(r.residual, r.f_norm, r.residual_floor) for r in recs)
    est = rho_s = None
    if any(r.resonant for r in recs):
        t0 = time.perf_counter()
        est = _measure_rho(cfg, args.T, args.h)
        rho_s = time.perf_counter() - t0
    budget = resonance_budget_check(trace, schedule, rho_target=est.rho if est else None)
    report = {
        "schedule_columns_ok": columns_ok,
        "item4_f_norm_ok": item4_ok,
        "truncation_orders_ok": n_ok,
        "residuals_ok": residual_ok,
        "budget": budget,
    }
    if est is not None:
        add = verify_additivity(est.rho, _final_B(trace, cfg.omega), trace, cfg.omega,
                                schedule, tol=2.0 * est.error_estimate)
        report["rho_measured"] = est.rho
        report["rho_error_estimate"] = est.error_estimate
        report["additivity_ok"] = add.ok
        report["additivity_defect"] = add.defect
        report["additivity_sign"] = add.matched_sign
    verdicts = [columns_ok, item4_ok, n_ok, residual_ok, budget["cumulative_m_ok"],
                budget["item2_ok"], budget["item6_ok"], budget["interlacing_ok"]]
    if est is not None:
        verdicts.append(report["additivity_ok"])
    report["pass"] = bool(all(verdicts))
    out = Path(args.out) if args.out else Path(args.trace).parent
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "audit_report.json", report)
    # the wall time of the integration is not data: it goes in the sidecar
    _write_meta(out, "audit", rho_s=rho_s)
    print(json.dumps(report, sort_keys=True))
    return 0 if report["pass"] else 1


def _final_B(trace: RunTrace, omega) -> np.ndarray:
    # the audit has no certificate at hand: reconstruct the final constant
    # part's eigenvalue from the last entry value shifted by that step's
    # resonance; the sqrt(eps) drift this ignores is inside the additivity
    # allowance anyway
    last = trace.records[-1]
    beta = abs(shifted_alpha(last.alpha, last.m, omega).imag)
    return np.array([[0.0, beta], [-beta, 0.0]])


def _measure_rho(cfg: RunConfig, T: float, h: float):
    """rotation_number of the configured system A + F."""
    return rotation_number(TorusMap.constant(cfg.A, cfg.omega.size).add(cfg.F), cfg.omega,
                           T=T, h=h)


def cmd_rotnum(args) -> int:
    _check_horizon(args)
    cfg = RunConfig.from_obj(_load_json(Path(args.config)))
    est = _measure_rho(cfg, args.T, args.h)
    out = {"rho": est.rho, "T": est.T, "h": est.h,
           "error_estimate": est.error_estimate}
    print(json.dumps(out, sort_keys=True))
    if args.out:
        _write_json(Path(args.out), out)
    return 0


def _fix_heap_thresholds() -> None:
    """Fix glibc's malloc thresholds for this process.

    TorusMap.mul allocates about 1 MB of temporaries per block of products.
    Under glibc's adaptive thresholds, whether each block's freed heap top
    goes back to the OS, to be faulted in again by the next block, turns on
    the heap layout of the moment, which any edit of the program can shift:
    on the benchmark's `resonant` run that is 50k or 170k page faults, and
    up to 40% of `run`.  Fixed, heap chunks up to 1 MB and a free heap top
    up to 8 MB stay resident.  A C library without mallopt is left as it is.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's malloc.h
    mallopt(m_mmap_threshold, 1 << 20)
    mallopt(m_trim_threshold, 8 << 20)


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
    _fix_heap_thresholds()
    # the one exit map: bad input exits 1, a failed certified condition 3,
    # anything else is a defect of the program
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KamFailure as exc:
        at = "" if exc.step is None else f"step {exc.step}: "
        print(f"error: {at}{exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
