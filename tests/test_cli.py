import importlib
import importlib.util
import json
import math
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import is_real

import kamcocycle
from kamcocycle import arithmetics, cli, kam_driver, kam_step, torus_fourier
from kamcocycle.cli import ConfigError, InputError, RunConfig, build_schrodinger, main
from kamcocycle.errors import KamFailure
from kamcocycle.kam_driver import RunTrace
from kamcocycle.torus_fourier import TorusMap

GOLDEN = [1.0, 0.5 * (1.0 + math.sqrt(5.0))]


def base_config(**overrides):
    cfg = {
        "omega": GOLDEN,
        "kappa": 1.0,
        "G": {"kind": "power", "mu": 2.0},
        "g": {"kind": "power", "mu": 2.0},
        "r0": 0.5,
        "n0": 0,
        "eps0": 1e-10,
        "A": "schrodinger",
        "E": 6.25,
        "V": {"v0": 0.0,
              "modes": [{"m": [1, 1], "c": 1e-10 / (2 * math.exp(2 * math.pi))}]},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# -- config parsing -----------------------------------------------------------

def test_config_rejects_unknown_field():
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_obj(base_config(frobnicate=1))
    assert "frobnicate" in str(exc.value)


def test_config_rejects_missing_and_bad_fields():
    bad = base_config()
    del bad["omega"]
    with pytest.raises(ConfigError):
        RunConfig.from_obj(bad)
    with pytest.raises(ConfigError):
        RunConfig.from_obj(base_config(kappa=-1.0))
    with pytest.raises(ConfigError):
        RunConfig.from_obj(base_config(eps0="auto:nonsense"))
    with pytest.raises(ConfigError):
        RunConfig.from_obj(base_config(G={"kind": "power", "mu": -2}))


def test_schrodinger_preset_shape():
    A, F = build_schrodinger(2.0, 0.5, [((1, 0), 1e-3)], d=2)
    np.testing.assert_allclose(A, [[0.0, 0.5 - 2.0], [1.0, 0.0]])
    assert F.n_modes == 2
    np.testing.assert_allclose(F.coeff((2, 0)), [[0.0, 1e-3], [0.0, 0.0]])
    assert is_real(F)


# -- run command ---------------------------------------------------------------

def test_cmd_run_zero_perturbation(tmp_path, capsys):
    cfg = base_config(A=[[0.0, 2.5], [-2.5, 0.0]], eps0=1e-8)
    for k in ("E", "V"):
        cfg.pop(k, None)
    path = write_config(tmp_path, cfg)
    code = main(["run", "--config", str(path)])
    assert code == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["status"] == "Reduced"
    assert cert["residual"] == 0.0
    assert (tmp_path / "trace.csv").exists()


def test_cmd_run_schrodinger_and_determinism(tmp_path):
    path = write_config(tmp_path, base_config())
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["run", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(path), "--out", str(out2)]) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "certificate.json").read_bytes() == \
        (out2 / "certificate.json").read_bytes()
    cert = json.loads((out1 / "certificate.json").read_text())
    assert cert["status"] == "Reduced"
    assert cert["resonances_after_n0"] == 0


def test_pair_skip_leaves_the_multimode_outputs_unchanged(tmp_path, monkeypatch):
    # the benchmark's multimode input, seed 1: its products skip most pairs,
    # none of which moves a byte of the trace or the certificate
    spec = importlib.util.spec_from_file_location(
        "bench_gen_inputs", Path(__file__).resolve().parents[1] / "bench" / "gen_inputs.py")
    gen_inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_inputs)
    gen_inputs.generate("multimode", 1, tmp_path)
    config = str(tmp_path / "config.json")
    kept_pairs, taken = torus_fourier._kept_pairs, []

    def spy(a, b, r):
        keep, pairs = kept_pairs(a, b, r)
        taken.append(keep is not None)
        return keep, pairs

    monkeypatch.setattr(torus_fourier, "_kept_pairs", spy)
    assert main(["run", "--config", config, "--out", str(tmp_path / "skip")]) == 0
    assert any(taken)
    monkeypatch.setattr(torus_fourier, "PAIR_REL", 0.0)
    taken.clear()
    assert main(["run", "--config", config, "--out", str(tmp_path / "exact")]) == 0
    assert not any(taken)
    for name in ("trace.csv", "certificate.json"):
        assert (tmp_path / "skip" / name).read_bytes() == (tmp_path / "exact" / name).read_bytes()


def test_cmd_run_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ not json }")
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "bad.json:1" in err


def test_cmd_run_auto_dioph_matches_formula(tmp_path):
    from kamcocycle.kam_driver import smallness_explicit
    # the explicit threshold is ~4.5e-44, so the perturbation must sit below
    cfg = base_config(
        eps0="auto:dioph",
        V={"v0": 0.0,
           "modes": [{"m": [1, 1], "c": 1e-45 / (2 * math.exp(2 * math.pi))}]})
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path)]) == 0
    parsed = RunConfig.from_obj(cfg)
    sched = parsed.schedule()
    expected = smallness_explicit(("dioph", 4.0), 1.0, 0.5, 0, sched.a)
    assert sched.eps0 == pytest.approx(expected, rel=1e-12)
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["status"] == "Reduced"


def test_cmd_run_stalled_exit_code(tmp_path):
    cfg = base_config(max_steps=3, cert_tol=1e-200)
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path)]) == 2
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["status"] == "Stalled"


def test_cmd_run_precondition_exit_code(tmp_path):
    # eps0 below the actual |F|_r0 makes the run violate the ladder at entry
    cfg = base_config(eps0=1e-13)
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path)]) == 3
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["status"] == "PreconditionFailure"


def test_cmd_run_fit_kappa_beyond_exhaustive_ball_d3(tmp_path, capsys):
    # at d = 3 only the exhaustive ball exists; fit_N = 200 exceeds it
    cfg = base_config(kappa="fit", omega=[1.0, math.sqrt(2.0), math.sqrt(3.0)],
                      V={"v0": 0.0, "modes": [{"m": [1, 1, 0], "c": 1e-12}]})
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().count("\n") == 0 and "fit_N" in err


def test_cmd_run_order_beyond_exhaustive_ball_d3(tmp_path, capsys):
    # N_n grows past the d = 3 exhaustive ball mid-run (at N = 151): the
    # scan's refusal is a precondition failure, not a traceback
    cfg = base_config(kappa=0.01, omega=[1.0, math.sqrt(2.0), math.sqrt(3.0)],
                      V={"v0": 0.0, "modes": [{"m": [1, 1, 0], "c": 1e-40}]},
                      cert_tol=1e-200)
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["status"] == "PreconditionFailure"
    assert "order 151 in d = 3" in cert["status_detail"]


def test_cmd_run_batch_jobs(tmp_path):
    p1 = write_config(tmp_path, base_config(name="one"), "one.json")
    p2 = write_config(tmp_path, base_config(name="two"), "two.json")
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps({"batch": ["one.json", "two.json"]}))
    assert main(["run", "--config", str(batch), "--jobs", "2"]) == 0
    # per-config outputs, no shared files
    one = json.loads((tmp_path / "one_out" / "certificate.json").read_text())
    two = json.loads((tmp_path / "two_out" / "certificate.json").read_text())
    assert one["status"] == "Reduced" and two["status"] == "Reduced"
    assert (tmp_path / "one_out" / "trace.csv").read_bytes() == \
        (tmp_path / "two_out" / "trace.csv").read_bytes()


# -- check-arith ----------------------------------------------------------------

def test_cmd_check_arith_golden(tmp_path, capsys):
    path = write_config(tmp_path, base_config(kappa=0.2))
    assert main(["check-arith", "--config", str(path), "--N", "30"]) == 0
    report = json.loads((tmp_path / "arith_report.json").read_text())
    assert report["omega_nr_ok"]
    assert report["G_tail_2"] == pytest.approx(2.0)
    assert not report["ratio_bounded"]  # g = G = t^2 fails the square test
    table = (tmp_path / "g_table.csv").read_text().splitlines()
    assert table[0] == "N,G_N,argmin_m"
    assert len(table) == 31


def test_cmd_check_arith_failures(tmp_path):
    rational = base_config(omega=[1.0, 0.5], kappa=0.3)
    path = write_config(tmp_path, rational, "rat.json")
    assert main(["check-arith", "--config", str(path), "--N", "10"]) == 1
    # a fitted kappa of 0 is a config error, not a passing kappa
    fitted = write_config(tmp_path, base_config(omega=[1.0, 0.5], kappa="fit"), "fit.json")
    assert main(["check-arith", "--config", str(fitted), "--N", "10"]) == 1
    divergent = base_config(g={"kind": "exppow", "alpha": 1.0})
    path2 = write_config(tmp_path, divergent, "div.json")
    assert main(["check-arith", "--config", str(path2), "--N", "10"]) == 1
    report = json.loads((tmp_path / "arith_report.json").read_text())
    assert report["g_tail_2"] == "divergent"


def test_cmd_check_arith_fit_order_beyond_tabulating_scan(tmp_path, capsys):
    # l1_ball_size(1000, 2) is past the tabulating scan of fit_G
    ladder = base_config(kappa="fit", cert_tol=1e-130, name="ladder", fit_N=1000)
    path = write_config(tmp_path, ladder)
    assert main(["check-arith", "--config", str(path), "--N", "1000"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "arith_report.json").read_text())
    assert report["fit_kappa"] is None
    assert "too large" in report["fit_error"]


@pytest.mark.parametrize("changes, N, name", [
    ({"kappa": 0.2}, 10 ** 30, "--N"),
    ({"kappa": "fit", "fit_N": 10 ** 30}, 10, "config field 'fit_N'"),
], ids=["N", "fit_N"])
def test_cmd_check_arith_order_past_exact_range(tmp_path, capsys, changes, N, name):
    # no scan reaches past 2^52, where the order leaves the exact integer range
    path = write_config(tmp_path, base_config(**changes))
    assert main(["check-arith", "--config", str(path), "--N", str(N)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {name}: ")
    assert not (tmp_path / "arith_report.json").exists()


def test_cmd_check_arith_order_beyond_exhaustive_ball_d3(tmp_path, capsys):
    # at d = 3 only the exhaustive ball exists; l1_ball_size(120, 3) exceeds it
    cfg = base_config(kappa=0.01, omega=[1.0, math.sqrt(2.0), math.sqrt(3.0)],
                      V={"v0": 0.0, "modes": [{"m": [1, 1, 0], "c": 1e-12}]})
    path = write_config(tmp_path, cfg)
    assert main(["check-arith", "--config", str(path), "--N", "120"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().count("\n") == 0 and "--N" in err
    assert not (tmp_path / "arith_report.json").exists()


_POWER_1 = {"kind": "power", "mu": 1.0}
_SCHEDULE_ERRORS = {
    "fitted-kappa-zero": ({"omega": [1.0, 0.5]}, "kappa"),
    "dioph-mu-sum-2": ({"eps0": "auto:dioph", "G": _POWER_1, "g": _POWER_1}, "eps0"),
    "auto-brjuno-sum": ({"eps0": "auto:brjuno-sum"}, "eps0"),
    "negative-r0": ({"r0": -0.5}, "r0"),
    "a-below-range": ({"a": 0.5}, "a"),
    "zero-C_prime": ({"C_prime": 0}, "C_prime"),
    "zero-fit_N": ({"fit_N": 0}, "fit_N"),
    "fit_N-past-exact-range": ({"fit_N": 10 ** 30}, "fit_N"),
    # fields that from_obj types: a wrong JSON type is a config error too
    "string-n0": ({"n0": "x"}, "n0"),
    "fractional-n0": ({"n0": 1.5}, "n0"),
    "negative-n0": ({"n0": -1}, "n0"),
    "string-max_steps": ({"max_steps": "x"}, "max_steps"),
    "negative-max_steps": ({"max_steps": -1}, "max_steps"),
    "string-a": ({"a": "x"}, "a"),
    "bool-cert_tol": ({"cert_tol": True}, "cert_tol"),
    "string-cert_tol": ({"cert_tol": "x"}, "cert_tol"),
    "bool-kappa": ({"kappa": True}, "kappa"),
    "bool-eps0": ({"eps0": True}, "eps0"),
    "string-E": ({"E": "x"}, "E"),
    "null-E": ({"E": None}, "E"),
}


@pytest.mark.parametrize("command", ["run", "audit"])
@pytest.mark.parametrize("case", sorted(_SCHEDULE_ERRORS))
def test_schedule_config_errors_exit_1(tmp_path, capsys, case, command):
    # each config passes from_obj or fails it with a ConfigError; none may
    # end in a traceback while its schedule is built
    changes, fieldname = _SCHEDULE_ERRORS[case]
    cfg = base_config(kappa="fit", cert_tol=1e-130, name="ladder", max_steps=3)
    path = write_config(tmp_path, dict(cfg, **changes))
    argv = {"run": ["run", "--config", str(path)],
            "audit": ["audit", "--trace", str(tmp_path / "trace.csv"),
                      "--config", str(path)]}[command]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"config field '{fieldname}': " in err[0]
    assert not (tmp_path / "certificate.json").exists()


def _mode(half_k):
    return {"half_k": half_k, "re": [[0.0, 1e-14], [1e-14, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}


_MATRIX = {"A": [[0.0, 1.5], [-1.5, 0.0]], "F": {"modes": [_mode([2, 0]), _mode([-2, 0])]}}
_WRONG_TYPES = {
    "string-omega": ({"omega": ["x", 1.0]}, "omega"),
    "string-V": ({"V": "x"}, "V"),
    "string-v0": ({"V": {"v0": "x"}}, "V"),
    # a number written as a JSON string, or a boolean where a number belongs
    "string-number-v0": ({"V": {"v0": "0.0"}}, "V"),
    "string-number-c": ({"V": {"modes": [{"m": [1, 1], "c": "9.33e-14"}]}}, "V"),
    "bool-mu": ({"G": {"kind": "power", "mu": True}}, "G"),
    "fractional-V-index": ({"V": {"modes": [{"m": [1.5, 1], "c": 1e-14}]}}, "V"),
    "string-A-entry": (dict(_MATRIX, A=[[0.0, "x"], [-1.5, 0.0]]), "A"),
    "A-with-trace": (dict(_MATRIX, A=[[1.0, 1.5], [-1.5, 0.0]]), "A"),
    "string-F": (dict(_MATRIX, F="x"), "F"),
    "F-index-past-packing": (dict(_MATRIX, F={"modes": [_mode([2 ** 40, 0])]}), "F"),
    "F-index-past-int64": (dict(_MATRIX, F={"modes": [_mode([2 ** 70, 0])]}), "F"),
    "string-kappa_prime": ({"kappa_prime": "x"}, "kappa_prime"),
    "zero-kappa_prime": ({"kappa_prime": 0.0}, "kappa_prime"),
    # json reads NaN and Infinity: a non-finite number is a config error
    # wherever it sits, and so is a frequency vector with no nonzero entry
    "nan-omega": ({"omega": [math.nan, 1.0]}, "omega"),
    "inf-omega": ({"omega": [math.inf, 1.0]}, "omega"),
    "zero-omega": ({"omega": [0.0, 0.0]}, "omega"),
    "inf-kappa": ({"kappa": math.inf}, "kappa"),
    "nan-E": ({"E": math.nan}, "E"),
    "inf-E": ({"E": math.inf}, "E"),
    "inf-eps0": ({"eps0": math.inf}, "eps0"),
    "nan-V-coefficient": ({"V": {"modes": [{"m": [1, 1], "c": math.nan}]}}, "V"),
    # json reads an integer of any size: one past the float range is a
    # config error of its own field
    "bigint-kappa": ({"kappa": 10 ** 400}, "kappa"),
    "bigint-E": ({"E": 10 ** 400}, "E"),
    "bigint-V-coefficient": ({"V": {"modes": [{"m": [1, 1], "c": 10 ** 400}]}}, "V"),
    # 4^(n0 + 3) leaves the float range, and n0 = 1e6 passes ratio_bounded's t_max
    "n0-past-float-range": ({"n0": 600}, "n0"),
    "n0-past-ratio-range": ({"n0": 10 ** 6}, "n0"),
    # fit_G's diagnostic output, not a schedule input
    "tabulated-G": ({"G": {"kind": "tabulated", "ts": [1, 2], "vals": [1.0, 2.0]}}, "G"),
    "tabulated-in-product": ({"g": {"kind": "product", "f": {"kind": "power", "mu": 1.0},
                                    "g": {"kind": "tabulated", "ts": [], "vals": []}}}, "g"),
}


@pytest.mark.parametrize("command", ["run", "check-arith", "audit", "rotnum"])
@pytest.mark.parametrize("case", sorted(_WRONG_TYPES))
def test_wrong_typed_config_fields_exit_1(tmp_path, capsys, case, command):
    # a value that cannot be built into what its field describes is a config
    # error of every command, reported in one line
    changes, fieldname = _WRONG_TYPES[case]
    cfg = base_config(kappa="fit", cert_tol=1e-130, name="ladder", max_steps=3)
    path = write_config(tmp_path, dict(cfg, **changes))
    argv = {"run": ["run"], "check-arith": ["check-arith", "--N", "10"],
            "audit": ["audit", "--trace", str(tmp_path / "trace.csv")],
            "rotnum": ["rotnum", "--T", "20"]}[command]
    assert main(argv + ["--config", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config field '{fieldname}': ")
    assert not (tmp_path / "certificate.json").exists()


def _counting(monkeypatch, module, name):
    real, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("command", ["run", "audit", "rotnum"])
def test_commands_build_the_system_once(tmp_path, monkeypatch, command):
    # a resonance at step 0, so that audit measures the rotation number
    cfg = base_config(E=(math.pi + 1e-3) ** 2,
                      V={"v0": 0.0, "modes": [{"m": [1, 0], "c": 1e-14}]})
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path)]) == 0
    calls = _counting(monkeypatch, cli, "build_schrodinger")
    argv = {"run": ["run"], "rotnum": ["rotnum", "--T", "20"],
            "audit": ["audit", "--trace", str(tmp_path / "trace.csv"), "--T", "200",
                      "--h", "0.02"]}[command]
    assert main(argv + ["--config", str(path)]) == 0
    assert len(calls) == 1


def test_check_arith_builds_each_function_once(tmp_path, monkeypatch):
    path = write_config(tmp_path, base_config(kappa="fit"))
    calls = _counting(monkeypatch, cli, "approxfn_from_spec")
    assert main(["check-arith", "--config", str(path), "--N", "10"]) in (0, 1)
    assert len(calls) == 2


# -- the exit map -----------------------------------------------------------------

def _exception_classes():
    # every exception class defined in a kamcocycle module
    for info in pkgutil.iter_modules(kamcocycle.__path__):
        module = importlib.import_module(f"kamcocycle.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                yield obj


_FAILURE_CLASSES = sorted((c for c in _exception_classes() if issubclass(c, KamFailure)),
                   key=lambda c: c.__name__)


def test_failure_taxonomy_is_closed():
    # a new exception class is either bad input (exit 1) or a failed
    # certified condition (exit 3); nothing in between
    classes = list(_exception_classes())
    assert all(issubclass(c, (InputError, KamFailure)) for c in classes), classes
    assert len(_FAILURE_CLASSES) == 9  # KamFailure and its eight subclasses


def test_readme_exit_3_row_names_every_failure_class():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    row = next(line for line in readme.splitlines() if line.startswith("| `3` |"))
    cause = row.split(" | ")[1]
    assert set(re.findall(r"`(\w+)`", cause)) == {c.__name__ for c in _FAILURE_CLASSES}


def _fail_at_step_1(monkeypatch, exc):
    # the driver scans for a resonance once per step: fail the second scan
    real, calls = kam_driver.find_resonance, []

    def find_resonance(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(kam_driver, "find_resonance", find_resonance)


@pytest.mark.parametrize("cls", _FAILURE_CLASSES, ids=lambda c: c.__name__)
def test_every_failure_exits_3_with_certificate(tmp_path, capsys, monkeypatch, cls):
    exc = cls("forced")
    _fail_at_step_1(monkeypatch, exc)
    path = write_config(tmp_path, base_config())
    assert main(["run", "--config", str(path)]) == 3
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["status"] == "PreconditionFailure"
    assert cert["status_detail"] == f"{cls.__name__} at step 1: {exc}"
    assert "Traceback" not in capsys.readouterr().err


def test_non_finite_coefficient_exits_3_with_certificate(tmp_path, monkeypatch):
    # a NaN that the mode solve hands back fails the step that made it
    real = kam_step.lm_solve

    def lm_solve(*args, **kwargs):
        out = real(*args, **kwargs)
        out[:, 0, 1] = math.nan
        return out

    monkeypatch.setattr(kam_step, "lm_solve", lm_solve)
    path = write_config(tmp_path, base_config())
    assert main(["run", "--config", str(path)]) == 3
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["status"] == "PreconditionFailure"
    assert cert["status_detail"] == "KamFailure at step 0: non-finite Fourier coefficient"


def test_step_that_lost_P_exits_3_with_certificate(tmp_path, monkeypatch):
    # a step whose Z_step = I + P lost P has a residual of about |F|: inside
    # the absolute allowance, outside the relative one
    conjugate = kam_step._conjugate

    def lost_P(*args):
        A_next, F_next, Z = conjugate(*args)
        return A_next, F_next, TorusMap.identity(Z.d)

    monkeypatch.setattr(kam_step, "_conjugate", lost_P)
    path = write_config(tmp_path, base_config())
    assert main(["run", "--config", str(path)]) == 3
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["status"] == "PreconditionFailure"
    detail = re.fullmatch(r"ScheduleViolation at step 0: step residual (\S+) exceeds "
                          r"its allowance at \|F\|_r = (\S+)", cert["status_detail"])
    residual, f_norm = map(float, detail.groups())
    assert 0.5 * f_norm < residual <= 1e-10 * (1.0 + f_norm)


def test_resonance_outside_the_closeness_disc_fails_before_the_step(tmp_path, monkeypatch):
    # run gates a resonant step with item2_holds: a resonance whose shifted
    # eigenvalue lies outside kappa/(4 G(N)) ends the run before the step
    def far_resonance(alpha, omega, kappa, G, g, N):
        return (1, 0)

    def step_resonant(*args):
        raise AssertionError("the resonant step ran")

    monkeypatch.setattr(kam_driver, "find_resonance", far_resonance)
    monkeypatch.setattr(kam_driver, "step_resonant", step_resonant)
    path = write_config(tmp_path, base_config())
    assert main(["run", "--config", str(path)]) == 3
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert == {"status": "PreconditionFailure",
                    "status_detail": "BoundViolation at step 0: "
                                     "shifted eigenvalue escaped the kappa/(4G(N)) disc"}


def test_huge_perturbation_has_a_finite_norm():
    # entries above about 1.3e154 square past the float range; |F|_r does not
    c = 1e160
    cfg = base_config(eps0=1e200, V={"v0": 0.0, "modes": [{"m": [1, 1], "c": c}]})
    F = RunConfig.from_obj(cfg).F
    assert F.weighted_norm(0.5) == pytest.approx(2.0 * c * math.exp(2.0 * math.pi), rel=1e-13)


def test_eps0_without_a_truncation_order_exits_3_before_cert_tol(tmp_path):
    # no truncation order exists for eps0 = 1e200; the default cert_tol,
    # 1e-14 eps0, lies above |F_0|_r = 1.07e163, and the run must not end
    # Reduced after no step
    cfg = base_config(eps0=1e200, V={"v0": 0.0, "modes": [{"m": [1, 1], "c": 1e160}]})
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path)]) == 3
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert == {"status": "PreconditionFailure",
                    "status_detail": "ScheduleViolation at step 0: "
                                     "eps_0 too large for any truncation order to exist"}


def test_internal_error_exits_4(tmp_path, capsys, monkeypatch):
    # a builtin arithmetic error is a defect of the program, not a certified
    # failure: no certificate, one line naming it
    _fail_at_step_1(monkeypatch, ZeroDivisionError("float division by zero"))
    path = write_config(tmp_path, base_config())
    assert main(["run", "--config", str(path)]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["internal error: ZeroDivisionError: float division by zero"]
    assert not (tmp_path / "certificate.json").exists()


def test_check_arith_order_zero_reports_fit_error(tmp_path):
    path = write_config(tmp_path, base_config(kappa=0.2))
    assert main(["check-arith", "--config", str(path), "--N", "0"]) == 0
    report = json.loads((tmp_path / "arith_report.json").read_text())
    assert report["fit_kappa"] is None
    assert report["fit_error"] == "N_max must be at least 1"


# -- audit -----------------------------------------------------------------------

def test_cmd_audit_clean_run(tmp_path):
    path = write_config(tmp_path, base_config())
    assert main(["run", "--config", str(path)]) == 0
    assert main(["audit", "--trace", str(tmp_path / "trace.csv"),
                 "--config", str(path)]) == 0
    report = json.loads((tmp_path / "audit_report.json").read_text())
    assert report["pass"] and report["item4_f_norm_ok"] and report["schedule_columns_ok"]
    assert report["budget"]["cumulative_m_ok"]


def test_cmd_audit_detects_tampering(tmp_path):
    path = write_config(tmp_path, base_config())
    assert main(["run", "--config", str(path)]) == 0
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    parts = trace[1].split(",")
    parts[4] = "1.0"  # corrupt the measured |F_0|
    trace[1] = ",".join(parts)
    tampered = tmp_path / "tampered.csv"
    tampered.write_text("\n".join(trace) + "\n")
    assert main(["audit", "--trace", str(tampered), "--config", str(path)]) == 1
    report = json.loads((tmp_path / "audit_report.json").read_text())
    assert not report["item4_f_norm_ok"]


def test_cmd_audit_checks_the_relative_step_residual(tmp_path):
    # a row whose residual is a millionth of its |F_n|: inside 1e-10 (1 + |F_n|),
    # outside 1e-12 |F_n| plus the row's float floor
    path = write_config(tmp_path, base_config())
    assert main(["run", "--config", str(path)]) == 0
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    parts = trace[1].split(",")
    parts[9] = repr(1e-6 * float(parts[4]))
    trace[1] = ",".join(parts)
    tampered = tmp_path / "tampered.csv"
    tampered.write_text("\n".join(trace) + "\n")
    assert main(["audit", "--trace", str(tampered), "--config", str(path)]) == 1
    report = json.loads((tmp_path / "audit_report.json").read_text())
    assert not report["residuals_ok"] and report["item4_f_norm_ok"]


@pytest.mark.parametrize("cert_tol, steps", [(1e-200, 79), (1e-240, 96)])
def test_deep_ladder_reduces_and_passes_audit(tmp_path, cert_tol, steps):
    # the weighted prune keeps the blocks below 1e-162 that used to vanish
    # unbooked and stall |F|_r near 3.4e-133
    path = write_config(tmp_path, base_config(kappa="fit", cert_tol=cert_tol))
    assert main(["run", "--config", str(path)]) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert (cert["status"], cert["steps"]) == ("Reduced", steps)
    assert cert["f_final_norm"] <= cert_tol
    assert main(["audit", "--trace", str(tmp_path / "trace.csv"),
                 "--config", str(path)]) == 0


def _near_resonant_config():
    # sqrt(E) is 5e-4 above pi <(4, 4), omega>, the resonance of the mode
    # (4, 4) of V: the steps' Z are large, and |A| is about 1e3
    j = 4
    E = (math.pi * j * (1.0 + GOLDEN[1]) + 5e-4) ** 2
    c = 1e-14 / (2.0 * math.exp(2.0 * math.pi * j))
    return base_config(E=E, V={"v0": 0.0, "modes": [{"m": [j, j], "c": c}]})


def _constant_block_config():
    # A' = A + a' F^(0) rounds at about 2^-52 |A|, which is more than
    # 1e-12 |F| once |F| is below about 2e-4 |A|
    s = 1e-14

    def mode(half_k, M):
        return {"half_k": half_k, "re": M, "im": [[0.0, 0.0], [0.0, 0.0]]}

    wave, diag = [[0.0, s], [s, 0.0]], [[s, 0.0], [0.0, -s]]
    F = {"reality_flag": True,
         "modes": [mode([0, 0], [[s, 0.3 * s], [0.7 * s, -s]]),
                   mode([2, 0], wave), mode([-2, 0], wave),
                   mode([2, 2], diag), mode([-2, -2], diag)]}
    cfg = base_config(A=[[0.0, 1.5], [-1.5, 0.0]], F=F)
    for k in ("E", "V"):
        cfg.pop(k)
    return cfg


@pytest.mark.parametrize("make", [_near_resonant_config, _constant_block_config])
def test_correct_steps_pass_at_their_float_floor(tmp_path, make):
    # rounding leaves more than 1e-12 |F_n| in these steps' residuals; the
    # steps' own floor covers it, in run and in audit
    path = write_config(tmp_path, make())
    assert main(["run", "--config", str(path)]) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["status"] == "Reduced"
    rows = RunTrace.from_csv(tmp_path / "trace.csv").records
    assert max(r.residual / r.f_norm for r in rows) > 1e-12
    assert all(r.residual <= r.residual_floor for r in rows)
    assert main(["audit", "--trace", str(tmp_path / "trace.csv"),
                 "--config", str(path)]) == 0


def test_config_F_requires_the_reality_flag(tmp_path, capsys):
    F = dict(_MATRIX["F"])
    path = write_config(tmp_path, base_config(**dict(_MATRIX, F=F)))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config field 'F': reality_flag must be given as true or false" in err
    assert not (tmp_path / "certificate.json").exists()
    F["reality_flag"] = True
    path = write_config(tmp_path, base_config(**dict(_MATRIX, F=F)))
    assert main(["run", "--config", str(path)]) == 0


@pytest.mark.parametrize("F, key", [
    ({"reality_flag": True, "mode": _MATRIX["F"]["modes"]}, "mode"),
    # an F copied from an older certificate's Z
    (dict(_MATRIX["F"], reality_flag=True, truncation_debt=1e-300, debt_r=1e6), "debt_r"),
    ({"reality_flag": True, "modes": [dict(_mode([2, 0]), Re=[[0.0, 1.0], [1.0, 0.0]])]},
     "Re"),
    # the dimension is omega's: a 3-D F under a 2-D omega
    (dict(_MATRIX["F"], reality_flag=True, d=3), "d"),
], ids=["mode", "debt", "mode-key", "d"])
def test_config_F_rejects_unknown_keys(tmp_path, capsys, F, key):
    path = write_config(tmp_path, base_config(**dict(_MATRIX, F=F)))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"config field 'F': unknown key '{key}'" in err
    assert not (tmp_path / "certificate.json").exists()


def resonant_config():
    delta = 1e-3
    beta = math.pi * GOLDEN[0] + delta
    cfg = base_config(A=[[0.0, beta], [-beta, 0.0]],
                      F={"reality_flag": True, "modes": [
                          {"half_k": [2, 0],
                           "re": [[0.0, 1e-14], [1e-14, 0.0]],
                           "im": [[0.0, 0.0], [0.0, 0.0]]},
                          {"half_k": [-2, 0],
                           "re": [[0.0, 1e-14], [1e-14, 0.0]],
                           "im": [[0.0, 0.0], [0.0, 0.0]]}]})
    for k in ("E", "V"):
        cfg.pop(k, None)
    return cfg


def test_cmd_audit_resonant_run(tmp_path):
    path = write_config(tmp_path, resonant_config())
    assert main(["run", "--config", str(path)]) == 0
    assert main(["audit", "--trace", str(tmp_path / "trace.csv"),
                 "--config", str(path), "--T", "2000"]) == 0
    report = json.loads((tmp_path / "audit_report.json").read_text())
    assert report["additivity_ok"]
    assert report["budget"]["resonances_after_n0"] == 1


def test_cmd_audit_times_the_integration_in_a_sidecar(tmp_path):
    # audit_report.json stays deterministic; the wall time of the
    # rotation-number measurement goes in audit_meta.json, null when the
    # trace has no resonant step and nothing is integrated
    path = write_config(tmp_path, resonant_config())
    assert main(["run", "--config", str(path)]) == 0
    reports = []
    for _ in range(2):
        assert main(["audit", "--trace", str(tmp_path / "trace.csv"), "--config", str(path),
                     "--T", "200", "--h", "0.02"]) == 0
        reports.append((tmp_path / "audit_report.json").read_bytes())
        meta = json.loads((tmp_path / "audit_meta.json").read_text())
        assert sorted(meta) == ["rho_s", "tool", "version", "written_at"]
        assert isinstance(meta["rho_s"], float) and meta["rho_s"] > 0.0
    assert reports[0] == reports[1] and b"rho_s" not in reports[0]
    plain = tmp_path / "plain"
    plain.mkdir()
    path = write_config(plain, base_config())
    assert main(["run", "--config", str(path)]) == 0
    assert main(["audit", "--trace", str(plain / "trace.csv"), "--config", str(path)]) == 0
    assert json.loads((plain / "audit_meta.json").read_text())["rho_s"] is None


def test_cmd_audit_reports_rho_hypothesis(tmp_path):
    # the measured rotation number reaches the kappa' hypothesis; it is
    # reported, and does not gate the verdict
    path = write_config(tmp_path, dict(resonant_config(), kappa_prime=1.0))
    assert main(["run", "--config", str(path)]) == 0
    main(["audit", "--trace", str(tmp_path / "trace.csv"), "--config", str(path),
          "--T", "200", "--h", "0.02"])
    report = json.loads((tmp_path / "audit_report.json").read_text())
    assert isinstance(report["budget"]["rho_hypothesis"], bool)


def test_cmd_audit_integrator_step_too_large(tmp_path, capsys):
    # h = 5000 stays too coarse after every halving: exit 3, one error line
    path = write_config(tmp_path, resonant_config())
    assert main(["run", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main(["audit", "--trace", str(tmp_path / "trace.csv"),
                 "--config", str(path), "--T", "40000", "--h", "5000"]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: rotation number")
    assert not (tmp_path / "audit_report.json").exists()


def test_cmd_audit_infeasible_schedule_exit_3(tmp_path, capsys):
    # eps0 = 1e-3 leaves step 0 without a truncation order: run and audit
    # both exit 3, audit with one error line naming the step
    cfg = base_config(kappa="fit", cert_tol=1e-130, name="ladder", max_steps=3)
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path)]) == 2
    bad = write_config(tmp_path, dict(cfg, eps0=1e-3), "bad.json")
    capsys.readouterr()
    assert main(["audit", "--trace", str(tmp_path / "trace.csv"),
                 "--config", str(bad)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "step 0" in err[0]
    assert not (tmp_path / "audit_report.json").exists()
    out = tmp_path / "bad_out"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 3
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["status"] == "PreconditionFailure"


def test_cmd_audit_malformed_trace(tmp_path):
    path = write_config(tmp_path, base_config())
    bad = tmp_path / "junk.csv"
    bad.write_text("not,a,trace\n1,2,3\n")
    assert main(["audit", "--trace", str(bad), "--config", str(path)]) == 1


_HEADER = ",".join(kam_driver.StepRecord.CSV_FIELDS)


@pytest.mark.parametrize("text", [
    _HEADER + "\n5,0.2\n",  # a row cut short
    _HEADER + "\n" + ",".join(["0"] * 13) + "\n",  # a row with an extra field
    "n,r_n\n",  # a foreign header with no rows
    "",  # no header at all
    _HEADER + "\n" + "0" * 200_000 + "\n",  # past the csv reader's field size limit
], ids=["short-row", "extra-field", "foreign-header", "empty", "huge-field"])
def test_cmd_audit_malformed_trace_exits_1(tmp_path, capsys, text):
    path = write_config(tmp_path, base_config())
    bad = tmp_path / "junk.csv"
    bad.write_text(text)
    capsys.readouterr()
    assert main(["audit", "--trace", str(bad), "--config", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: malformed trace {bad}")
    assert not (tmp_path / "audit_report.json").exists()


def test_cmd_audit_zero_row_trace(tmp_path):
    # a trace with the header and no rows is well formed: nothing to fail
    path = write_config(tmp_path, base_config())
    trace = tmp_path / "trace.csv"
    trace.write_text(_HEADER + "\n")
    assert main(["audit", "--trace", str(trace), "--config", str(path)]) == 0
    report = json.loads((tmp_path / "audit_report.json").read_text())
    assert report["pass"] and report["schedule_columns_ok"]


@pytest.mark.parametrize("column,value", [(3, "0.01"), (1, "0.9")], ids=["eps_bound", "r_n"])
def test_cmd_audit_checks_the_schedule_columns(resonant_run, tmp_path, column, value):
    # every eps_bound set to 0.01 would widen the additivity allowance by
    # 0.1 rad a row, and every r_n set to 0.9 claims a strip the schedule
    # never had; the audit recomputes both from the schedule
    path, trace = resonant_run
    lines = trace.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        row[column] = value
    tampered = tmp_path / "tampered.csv"
    tampered.write_text("\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n")
    assert main(["audit", "--trace", str(tampered), "--config", str(path),
                 "--out", str(tmp_path), "--T", "200", "--h", "0.02"]) == 1
    report = json.loads((tmp_path / "audit_report.json").read_text())
    assert not report["schedule_columns_ok"]
    assert report["item4_f_norm_ok"] and report["truncation_orders_ok"]
    assert report["residuals_ok"] and report["additivity_ok"]


# -- rotnum ----------------------------------------------------------------------

def test_cmd_rotnum(tmp_path, capsys):
    cfg = base_config(A=[[0.0, 1.5], [-1.5, 0.0]], eps0=1e-8)
    for k in ("E", "V"):
        cfg.pop(k, None)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "rho.json"
    assert main(["rotnum", "--config", str(path), "--T", "200", "--h", "0.02",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["rho"] == pytest.approx(1.5, abs=data["error_estimate"])
    assert data["T"] == 200.0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed == data


def test_cmd_rotnum_step_too_large(tmp_path, capsys):
    path = write_config(tmp_path, resonant_config())
    out = tmp_path / "rho.json"
    assert main(["rotnum", "--config", str(path), "--T", "40000", "--h", "5000",
                 "--out", str(out)]) == 3
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: rotation number")
    assert "StepTooLarge" not in captured.err and captured.out == ""
    assert not out.exists()


@pytest.fixture(scope="module")
def resonant_run(tmp_path_factory):
    # a run with a resonance, so that audit integrates with its --T and --h
    tmp = tmp_path_factory.mktemp("resonant")
    path = write_config(tmp, resonant_config())
    assert main(["run", "--config", str(path)]) == 0
    return path, tmp / "trace.csv"


_BAD_HORIZONS = [((flag, value), f"error: {flag} must be a positive finite") for flag, value in [
    ("--h", "0"), ("--T", "0"), ("--h", "nan"), ("--T", "nan"), ("--T", "inf"),
    ("--h", "inf"), ("--T", "-5"), ("--h", "-0.01")]] + [
    # T / h overflows to inf, an OverflowError at int(round(T / h))
    (("--T", "1e300", "--h", "1e-10"), "error: --T 1e+300 / --h 1e-10 needs more than 2^52 steps"),
    # a horizon shorter than one step would be measured over a step of h
    (("--T", "1", "--h", "5"), "error: --T 1.0 is shorter than one step of --h 5.0")]


@pytest.mark.parametrize("command", ["audit", "rotnum"])
@pytest.mark.parametrize("flags,message", _BAD_HORIZONS,
                         ids=[" ".join(flags) for flags, _ in _BAD_HORIZONS])
def test_bad_horizon_exit_1(resonant_run, tmp_path, capsys, command, flags, message):
    # a zero, negative or non-finite horizon or step is bad input, not a
    # division by zero or overflow (exit 4) nor a one-step measurement with
    # a negative error bar (exit 0)
    path, trace = resonant_run
    argv = {"audit": ["audit", "--trace", str(trace), "--out", str(tmp_path)],
            "rotnum": ["rotnum", "--out", str(tmp_path / "rho.json")]}[command]
    capsys.readouterr()
    assert main(argv + ["--config", str(path), "--T", "20", "--h", "0.05", *flags]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(message)
    assert captured.out == "" and not any(tmp_path.iterdir())


# -- import set --------------------------------------------------------------------

def test_cli_import_loads_no_scipy():
    # every CLI process pays for what `import kamcocycle.cli` loads, and the
    # package needs no scipy
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import kamcocycle.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, str(src)], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_bench_tracing_targets_resolve():
    # `bench/run.py --trace 1` wraps these functions and methods by name: a
    # deleted or renamed one must fail here, not in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def module(name):
        return importlib.import_module(f"kamcocycle.{name}")

    for modname, attr, *_ in tracing._FUNCTIONS:
        assert callable(getattr(module(modname), attr, None)), (modname, attr)
    for modname, attr in tracing._RENAMED:
        assert callable(getattr(module(modname), attr, None)), (modname, attr)
    for modname, cls, attr, *_ in tracing._METHODS:
        assert callable(getattr(getattr(module(modname), cls, None), attr, None)), \
            (modname, cls, attr)


_SCIPY_BLOCKED = """
import json, sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
sys.path.insert(0, sys.argv[1])
import kamcocycle
from kamcocycle.arithmetics import (DivergentIntegral, ExpLogFn, approxfn_from_spec,
                                    tail_integral)
from kamcocycle.cli import main
values = {}
for name, f in json.loads(sys.argv[4]).items():
    for s in (2.0, 1.5):
        try:
            values[f"{name} {s}"] = tail_integral(approxfn_from_spec(f), 1.0, s)
        except DivergentIntegral:
            values[f"{name} {s}"] = "divergent"
try:
    tail_integral(ExpLogFn(2.0), 1.0, 3.0)
    sys.exit("an explog tail past exponent 2 was evaluated")
except ValueError:
    pass
print(json.dumps(values))
sys.exit(main(["check-arith", "--config", sys.argv[2], "--N", "10", "--out", sys.argv[3]]))
"""
_KINDS = {"power": {"kind": "power", "mu": 2.0}, "exppow": {"kind": "exppow", "alpha": 0.5},
          "explog": {"kind": "explog", "delta": 2.0},
          "product": {"kind": "product", "f": {"kind": "power", "mu": 2.0},
                      "g": {"kind": "explog", "delta": 2.0}}}


def test_package_and_check_arith_run_without_scipy(tmp_path):
    # scipy is a test dependency only: with it blocked, the package imports,
    # every kind's tail integral at the exponents the commands use is the
    # same, and check-arith on an explog config ends without a traceback
    explog = _KINDS["explog"]
    path = write_config(tmp_path, base_config(G=explog, g=explog))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _SCIPY_BLOCKED, str(src), str(path),
                           str(tmp_path / "arith"), json.dumps(_KINDS)],
                          capture_output=True, text=True)
    assert proc.returncode in (0, 1) and "Traceback" not in proc.stderr, proc.stderr
    values = json.loads(proc.stdout.splitlines()[0])
    for name, f in _KINDS.items():
        for s in (2.0, 1.5):
            try:
                want = arithmetics.tail_integral(cli.approxfn_from_spec(f), 1.0, s)
            except arithmetics.DivergentIntegral:
                want = "divergent"
            assert values[f"{name} {s}"] == want
    report = json.loads((tmp_path / "arith" / "arith_report.json").read_text())
    assert report["G_tail_2"] == values["explog 2.0"]
    assert report["g_tail_3_2"] == "divergent"

