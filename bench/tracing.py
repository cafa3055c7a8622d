"""In-memory span tracing of kamcocycle's layers, from outside the program.

install() wraps the public functions of each module that the per-layer
metrics need.  A name that a module imports with ``from ... import`` is
replaced in every kamcocycle module that holds it, so the wrapper sees
every call whichever module makes it; TorusMap and output methods are
wrapped on their classes.  A span records name, start, end, parent and a
small per-call payload; self time is a span's duration minus the time
covered by its direct children.

Usage (inside a process that has imported kamcocycle.cli):

    tracer = tracing.install()
    ...                          # run the CLI
    metrics = tracing.layer_metrics(tracer.spans)
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, payload]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, payload=None):
        """Return fn wrapped in a span; payload(bound_args, result) -> value."""
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if payload is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = _perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = _perf()
                stack.pop()
            if payload is not None:
                span[4] = payload(sig.bind(*args, **kwargs).arguments, out)
            return out

        return wrapper


def _scan_payload(a, out):
    return (int(a["N"]), int(a.get("N_lo", 0)))


def _mul_payload(a, out):
    n1, n2 = a["self"].n_modes, a["other"].n_modes
    return (n1 * n2, max(n1, n2))


def _exp_payload(a, out):
    return a["X"].n_modes > 0


def _cap_payload(a, out):
    return a["self"].n_modes - out.n_modes


def _run_payload(a, out):
    trace, cert = out
    return (cert.steps, cert.Z.n_modes)


def _winding_payload(a, out):
    return max(1, int(round(a["T"] / a["h"])))


# (defining module, attribute, span name, payload); a function re-exported
# under another module keeps its span name unless _RENAMED says otherwise
_FUNCTIONS = [
    ("arithmetics", "scan_min_weighted_distance", "arithmetics.scan", _scan_payload),
    ("arithmetics", "fit_kappa", "arithmetics.fit_kappa", None),
    ("torus_fourier", "exp_series_tail", "torus_fourier.exp_series", _exp_payload),
    ("sl2_algebra", "lm_inverse", "sl2_algebra.lm_inverse", None),
    ("sl2_algebra", "eigen", "sl2_algebra.eigen", None),
    ("sl2_algebra", "lm_dense_solve", "sl2_algebra.lm_dense_solve", None),
    ("kam_step", "find_resonance", "kam_step.find_resonance", None),
    ("kam_step", "solve_homological", "kam_step.solve_homological", None),
    ("kam_step", "step_nonresonant", "kam_step.step_nonresonant", None),
    ("kam_step", "step_resonant", "kam_step.step_resonant", None),
    ("kam_step", "eliminate_resonance", "kam_step.eliminate_resonance", None),
    ("kam_step", "conjugation_residual", "kam_step.step_residual", None),
    ("kam_driver", "run", "kam_driver.run", _run_payload),
    ("kam_driver", "make_schedule", "kam_driver.make_schedule", None),
    ("kam_driver", "resonance_budget_check", "kam_driver.budget_check", None),
    ("rotation_number", "winding_rate", "rotation_number.winding_rate", _winding_payload),
    ("rotation_number", "verify_additivity", "rotation_number.verify_additivity", None),
    ("cli", "cmd_run", "cli.run", None),
    ("cli", "cmd_audit", "cli.audit", None),
]

# the same function called from another module means another layer: the
# kam_driver's conjugation residual is the global one, kam_step's is per step
_RENAMED = {("kam_driver", "conjugation_residual"): "kam_driver.global_residual"}

_METHODS = [
    ("torus_fourier", "TorusMap", "mul", "torus_fourier.mul", _mul_payload),
    ("torus_fourier", "TorusMap", "cap_support", "torus_fourier.cap_support", _cap_payload),
    ("torus_fourier", "TorusMap", "weighted_norm", "torus_fourier.weighted_norm", None),
    ("torus_fourier", "TorusMap", "eval", "torus_fourier.eval", None),
    ("kam_driver", "RunTrace", "to_csv", "cli.output", None),
    ("kam_driver", "Certificate", "to_json_obj", "cli.output", None),
]


def install() -> Tracer:
    """Wrap the layer functions of the imported kamcocycle package."""
    tracer = Tracer()
    mods = {name.split(".", 1)[1]: mod for name, mod in list(sys.modules.items())
            if name.startswith("kamcocycle.") and mod is not None}
    mods["__init__"] = sys.modules["kamcocycle"]
    for modname, attr, span, payload in _FUNCTIONS:
        original = getattr(mods[modname], attr)
        wrapped = {}
        for holder_name, holder in mods.items():
            if getattr(holder, attr, None) is original:
                name = _RENAMED.get((holder_name, attr), span)
                if name not in wrapped:
                    wrapped[name] = tracer.wrap(name, original, payload)
                setattr(holder, attr, wrapped[name])
    for modname, cls, attr, span, payload in _METHODS:
        klass = getattr(mods[modname], cls)
        setattr(klass, attr, tracer.wrap(span, getattr(klass, attr), payload))
    return tracer


def _aggregate(spans):
    """Per span name: calls, summed self time, inclusive time, payloads."""
    n = len(spans)
    child_time = [0.0] * n
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    payloads = defaultdict(list)
    for i, s in enumerate(spans):
        name, dur = s[0], s[2] - s[1]
        calls[name] += 1
        self_s[name] += dur - child_time[i]
        # inclusive time counts outermost spans of a name only, so nested
        # calls of the same layer are not added twice
        p = s[3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            incl_s[name] += dur
        if s[4] is not None:
            payloads[name].append(s[4])
    return calls, self_s, incl_s, payloads


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics by name, as {name: (value, unit)}."""
    calls, self_s, incl_s, pay = _aggregate(spans)
    scans = pay["arithmetics.scan"]
    orders = sum(N - lo for N, lo in scans if N > lo)
    muls = pay["torus_fourier.mul"]
    products = sum(p for p, _ in muls)
    # exp_series_tail sums one term per mul it makes, plus X itself
    exp_terms = 0
    exp_idx = {i for i, s in enumerate(spans) if s[0] == "torus_fourier.exp_series"}
    for i in exp_idx:
        exp_terms += 1 if spans[i][4] else 0
    for s in spans:
        if s[0] == "torus_fourier.mul" and s[3] in exp_idx:
            exp_terms += 1
    runs = pay["kam_driver.run"]
    winding_steps = sum(pay["rotation_number.winding_rate"])
    m = {
        "arithmetics.scan.calls": (calls["arithmetics.scan"], "count"),
        "arithmetics.scan.self_s": (self_s["arithmetics.scan"], "s"),
        "arithmetics.scan.max_N": (max((N for N, _ in scans), default=0), "count"),
        "arithmetics.scan.orders": (orders, "count"),
        "arithmetics.scan.orders_per_s": (_rate(orders, self_s["arithmetics.scan"]), "1/s"),
        "arithmetics.fit_kappa.s": (incl_s["arithmetics.fit_kappa"], "s"),
        "torus_fourier.mul.calls": (calls["torus_fourier.mul"], "count"),
        "torus_fourier.mul.self_s": (self_s["torus_fourier.mul"], "s"),
        "torus_fourier.mul.block_products": (products, "count"),
        "torus_fourier.mul.products_per_s": (_rate(products, self_s["torus_fourier.mul"]), "1/s"),
        "torus_fourier.mul.max_modes": (max((k for _, k in muls), default=0), "count"),
        "torus_fourier.exp_series.s": (incl_s["torus_fourier.exp_series"], "s"),
        "torus_fourier.exp_series.terms": (exp_terms, "count"),
        "torus_fourier.cap_support.self_s": (self_s["torus_fourier.cap_support"], "s"),
        "torus_fourier.cap_support.modes_dropped": (sum(pay["torus_fourier.cap_support"]), "count"),
        "torus_fourier.weighted_norm.self_s": (self_s["torus_fourier.weighted_norm"], "s"),
        "torus_fourier.eval.self_s": (self_s["torus_fourier.eval"], "s"),
        "sl2_algebra.lm_inverse.calls": (calls["sl2_algebra.lm_inverse"], "count"),
        "sl2_algebra.lm_inverse.self_s": (self_s["sl2_algebra.lm_inverse"], "s"),
        "sl2_algebra.eigen.calls": (calls["sl2_algebra.eigen"], "count"),
        "sl2_algebra.eigen.self_s": (self_s["sl2_algebra.eigen"], "s"),
        "sl2_algebra.lm_dense_solve.calls": (calls["sl2_algebra.lm_dense_solve"], "count"),
        "kam_step.find_resonance.calls": (calls["kam_step.find_resonance"], "count"),
        "kam_step.find_resonance.self_s": (self_s["kam_step.find_resonance"], "s"),
        "kam_step.solve_homological.s": (incl_s["kam_step.solve_homological"], "s"),
        "kam_step.step_nonresonant.self_s": (self_s["kam_step.step_nonresonant"], "s"),
        "kam_step.step_resonant.self_s": (self_s["kam_step.step_resonant"], "s"),
        "kam_step.eliminate_resonance.s": (incl_s["kam_step.eliminate_resonance"], "s"),
        "kam_step.step_residual.s": (incl_s["kam_step.step_residual"], "s"),
        "kam_step.resonances": (calls["kam_step.step_resonant"], "count"),
        "kam_driver.steps": (sum(s for s, _ in runs), "count"),
        "kam_driver.run.self_s": (self_s["kam_driver.run"], "s"),
        "kam_driver.global_residual.s": (incl_s["kam_driver.global_residual"], "s"),
        "kam_driver.z_modes": (max((z for _, z in runs), default=0), "count"),
        "kam_driver.make_schedule.s": (incl_s["kam_driver.make_schedule"], "s"),
        "kam_driver.budget_check.s": (incl_s["kam_driver.budget_check"], "s"),
        "rotation_number.winding_rate.calls": (calls["rotation_number.winding_rate"], "count"),
        "rotation_number.winding_rate.self_s": (self_s["rotation_number.winding_rate"], "s"),
        "rotation_number.integrator_steps": (winding_steps, "count"),
        "rotation_number.steps_per_s": (
            _rate(winding_steps, incl_s["rotation_number.winding_rate"]), "1/s"),
        "rotation_number.verify_additivity.s": (incl_s["rotation_number.verify_additivity"], "s"),
        "cli.run.self_s": (self_s["cli.run"], "s"),
        "cli.audit.s": (incl_s["cli.audit"], "s"),
        "cli.output.s": (incl_s["cli.output"], "s"),
    }
    return m


def top_self(spans, k: int = 8) -> list[tuple[str, float]]:
    """The k span names with the largest summed self time."""
    _, self_s, _, _ = _aggregate(spans)
    return sorted(self_s.items(), key=lambda kv: -kv[1])[:k]
