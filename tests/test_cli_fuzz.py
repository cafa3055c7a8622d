"""Derandomized fuzz of the command line over small configs.

About half the configs drawn here carry one wrong-typed, out-of-range or
non-finite field.  A config that RunConfig.from_obj rejects must exit 1 from
every subcommand.  On any other config each subcommand must end with a
documented exit code, never a traceback or an internal error (4), and every
run that ends Stalled (2) or in a failed precondition (3) must leave a
certificate.
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kamcocycle.cli import ConfigError, RunConfig, main

IRRATIONALS = (math.sqrt(2.0), 0.5 * (1.0 + math.sqrt(5.0)), math.sqrt(3.0), 0.5, math.pi)
FUNCTIONS = st.sampled_from([
    {"kind": "power", "mu": 1.0}, {"kind": "power", "mu": 2.0},
    {"kind": "power", "mu": 4.0}, {"kind": "exppow", "alpha": 0.5},
    {"kind": "exppow", "alpha": 1.0}, {"kind": "explog", "delta": 2.0},
])
MAX_EXAMPLES = 60
WRONG_TYPED = [("omega", ["x", 1.0]), ("kappa_prime", "x"), ("kappa_prime", -1.0),
               ("omega", [math.nan, 1.0]), ("kappa", math.inf), ("eps0", math.inf),
               ("kappa", 10 ** 400), ("n0", 600), ("fit_N", 10 ** 30),
               ("G", {"kind": "tabulated", "ts": [1, 2], "vals": [1.0, 2.0]}),
               ("G", {"kind": "power", "mu": True}), ("V", {"v0": "0.0"}),
               ("V", {"modes": [{"m": [1, 1], "c": "9.33e-14"}]})]


LADDER = {"omega": [1.0, IRRATIONALS[1]], "kappa": "fit", "G": {"kind": "power", "mu": 2.0},
          "g": {"kind": "power", "mu": 2.0}, "r0": 0.5, "n0": 0, "eps0": 1e-10,
          "max_steps": 3, "A": "schrodinger", "E": 6.25,
          "V": {"v0": 0.0, "modes": [{"m": [1, 1], "c": 1e-14}]}}


def each_wrong_typed(test):
    # the draws need not hit every entry of WRONG_TYPED: each also runs on LADDER
    for name, value in WRONG_TYPED:
        test = example(cfg=dict(LADDER, **{name: value}), arith_N=10)(test)
    return test


@st.composite
def configs(draw):
    d = draw(st.integers(1, 3))
    omega = [1.0] + [draw(st.sampled_from([1.0, -1.0])) * draw(st.sampled_from(IRRATIONALS))
                     for _ in range(d - 1)]
    m = [draw(st.integers(-1, 1)) for _ in range(d)]
    if not any(m):
        m[0] = 1
    c = draw(st.sampled_from([1e-14, 1e-10, 1e-4]))
    cfg = {
        "omega": omega,
        "kappa": draw(st.sampled_from(["fit", 0.01, 1.0])),
        "G": draw(FUNCTIONS),
        "g": draw(FUNCTIONS),
        "r0": draw(st.sampled_from([0.1, 0.5, 1.0])),
        "n0": draw(st.integers(0, 2)),
        "eps0": draw(st.sampled_from([1e-20, 1e-10, 1e-3, "auto:dioph", "auto:brjuno-sum"])),
        "max_steps": draw(st.integers(0, 3)),
        "fit_N": draw(st.integers(1, 50)),
        "a": draw(st.sampled_from([None, 0.5, 0.9, 0.99, 0.999999])),
        "kappa_prime": draw(st.sampled_from([None, 0.01, 1.0])),
    }
    if draw(st.booleans()):
        cfg.update(A="schrodinger", E=draw(st.sampled_from([0.5, 6.25])),
                   V={"v0": 0.0, "modes": [{"m": m, "c": c}]})
        wrong = [("V", "x"), ("V", {"v0": "x"}), ("V", {"modes": [{"m": m}]}),
                 ("V", {"modes": [{"m": m, "c": math.nan}]}), ("E", math.inf)]
    else:
        beta = draw(st.sampled_from([math.pi + 1e-3, 1.5]))
        pair = [{"half_k": [s * 2 * v for v in m], "re": [[0.0, c], [c, 0.0]],
                 "im": [[0.0, 0.0], [0.0, 0.0]]} for s in (1, -1)]
        cfg.update(A=[[0.0, beta], [-beta, 0.0]], F={"reality_flag": True, "modes": pair})
        far = dict(pair[0], half_k=[2 ** 40] * d)  # past the packable range once d > 1
        wrong = [("A", [[0.0, "x"], [-beta, 0.0]]), ("F", "x"), ("F", {"modes": [far]}),
                 ("A", [[0.0, math.nan], [-beta, 0.0]])]
    if draw(st.booleans()):
        name, value = draw(st.sampled_from(WRONG_TYPED + wrong))
        cfg[name] = value
    return cfg


@settings(derandomize=True, max_examples=MAX_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=configs(), arith_N=st.integers(1, 200))
@each_wrong_typed
def test_cli_ends_with_documented_exit_code(cfg, arith_N):
    try:
        RunConfig.from_obj(cfg)
        codes = (0, 1, 2, 3)
    except ConfigError:
        codes = (1,)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp / "out"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code in codes
        if code in (2, 3):
            assert (out / "certificate.json").exists()
        if (out / "trace.csv").exists():
            assert main(["audit", "--trace", str(out / "trace.csv"), "--config", str(path),
                         "--T", "20", "--h", "0.05"]) in codes
        assert main(["check-arith", "--config", str(path), "--N", str(arith_N),
                     "--out", str(tmp / "arith")]) in codes
        assert main(["rotnum", "--config", str(path), "--T", "20",
                     "--h", "0.05"]) in codes
