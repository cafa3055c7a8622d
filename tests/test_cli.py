import json
import math

import numpy as np
import pytest

from kamcocycle.cli import ConfigError, RunConfig, build_schrodinger, main

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

def test_config_roundtrip_normalization():
    cfg = RunConfig.from_obj(base_config())
    again = RunConfig.from_obj(cfg.to_obj())
    assert again.to_obj() == cfg.to_obj()


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
    assert F.is_real()


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


# -- audit -----------------------------------------------------------------------

def test_cmd_audit_clean_run(tmp_path):
    path = write_config(tmp_path, base_config())
    assert main(["run", "--config", str(path)]) == 0
    assert main(["audit", "--trace", str(tmp_path / "trace.csv"),
                 "--config", str(path)]) == 0
    report = json.loads((tmp_path / "audit_report.json").read_text())
    assert report["pass"] and report["item4_f_norm_ok"]
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


def test_cmd_audit_resonant_run(tmp_path):
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
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path)]) == 0
    assert main(["audit", "--trace", str(tmp_path / "trace.csv"),
                 "--config", str(path), "--T", "2000"]) == 0
    report = json.loads((tmp_path / "audit_report.json").read_text())
    assert report["additivity_ok"]
    assert report["budget"]["resonances_after_n0"] == 1


def test_cmd_audit_malformed_trace(tmp_path):
    path = write_config(tmp_path, base_config())
    bad = tmp_path / "junk.csv"
    bad.write_text("not,a,trace\n1,2,3\n")
    assert main(["audit", "--trace", str(bad), "--config", str(path)]) == 1


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
