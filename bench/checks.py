"""Independent checks of one run's outputs, with the benchmark's own numpy.

Nothing here calls kamcocycle: the schedule is recomputed from closed
forms, lattice questions are answered by brute-force enumeration of the l1
ball, and the conjugation identity is evaluated pointwise from the raw
Fourier coefficients of certificate.json and the config.

check_outputs() returns a list of (check name, ok, detail) tuples.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

# largest truncation order whose l1 ball (2N^2 + 2N + 1 points at d = 2) is
# enumerated in full by the resonance check
BRUTE_N_MAX = 400
# sup|R| / sup|F| allowed at the sample points; Z = I, B = A scores 1
CONJ_RATIO_MAX = 0.1
# the eigenvalue of the constant part drifts by at most sum_n |F_n^(0)|,
# below sum_n eps_n = eps0 / (1 - 1/16) on the ladder
DRIFT_FACTOR = 2.0


def l1_ball(N: int) -> np.ndarray:
    """All m in Z^2 with 0 < |m_1| + |m_2| <= N."""
    m1 = np.arange(-N, N + 1, dtype=np.int64)
    width = N - np.abs(m1)
    counts = 2 * width + 1
    first = np.repeat(m1, counts)
    starts = np.repeat(-width, counts)
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    pts = np.stack([first, starts + offsets], axis=1)
    return pts[np.abs(pts).sum(axis=1) > 0]


def _power(spec: dict) -> float:
    if spec.get("kind") != "power":
        raise ValueError("the checks cover power-law G and g only")
    return float(spec["mu"])


def brute_kappa(omega: np.ndarray, mu_G: float, N: int) -> float:
    """min over 0 < |m| <= N of |<m, omega>| G(|m|)."""
    pts = l1_ball(N)
    mod = np.abs(pts).sum(axis=1).astype(float)
    return float(np.min(np.abs(pts @ omega) * mod ** mu_G))


def read_trace(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for r in rows:
        out.append({
            "n": int(r["n"]), "N_n": int(r["N_n"]), "F_norm": float(r["F_norm"]),
            "resonant": bool(int(r["resonant"])),
            "m": tuple(int(v) for v in r["m"].split(";")),
            "alpha": complex(float(r["alpha_re"]), float(r["alpha_im"])),
            "contraction": float(r["contraction"]),
        })
    return out


# -- the system and the conjugation, evaluated pointwise --------------------

def _fourier_eval(modes: list, theta: np.ndarray, omega: np.ndarray | None = None):
    """sum_k C_k e^{i pi <k, theta>} (k a half-integer index), and with omega
    also the derivative along the flow, sum_k i pi <k, omega> C_k e^{...}."""
    hk = np.array([m["half_k"] for m in modes], dtype=float)
    C = np.array([m["re"] for m in modes], dtype=float) \
        + 1j * np.array([m["im"] for m in modes], dtype=float)
    phases = np.exp(1j * math.pi * (theta @ hk.T))
    val = np.einsum("sk,kab->sab", phases, C)
    if omega is None:
        return val
    dval = np.einsum("sk,kab->sab", phases * (1j * math.pi * (hk @ omega)), C)
    return val, dval


def system(config: dict) -> tuple[np.ndarray, list]:
    """A and the Fourier modes of F, read from the config as written."""
    if config["A"] == "schrodinger":
        v0 = float(config["V"].get("v0", 0.0))
        A = np.array([[0.0, v0 - float(config["E"])], [1.0, 0.0]])
        modes = []
        for mode in config["V"]["modes"]:
            c = float(mode["c"])
            for s in (1, -1):
                modes.append({"half_k": [2 * s * v for v in mode["m"]],
                              "re": [[0.0, c], [0.0, 0.0]],
                              "im": [[0.0, 0.0], [0.0, 0.0]]})
        return A, modes
    A = np.array(config["A"], dtype=float)
    return A, (config.get("F") or {}).get("modes", [])


def _op_norms(M: np.ndarray) -> np.ndarray:
    return np.linalg.norm(M, ord=2, axis=(1, 2))


def conjugation_defect(config: dict, cert: dict, theta: np.ndarray) -> tuple[float, float]:
    """(sup|R|, sup|F|) at theta for R = d_omega Z - (A + F) Z + Z B.

    Z is split as I + P so that no term of size 1 cancels when Z has a
    zero mode near the identity:
        R = d_omega P - (A + F) P - F + P B + (B - A).
    """
    omega = np.asarray(config["omega"], dtype=float)
    A, f_modes = system(config)
    B = np.array(cert["B"], dtype=float)
    p_modes = [dict(m) for m in cert["Z"]["modes"]]
    zero = [m for m in p_modes if not any(m["half_k"])]
    if zero:
        zero[0]["re"] = (np.array(zero[0]["re"]) - np.eye(2)).tolist()
    else:
        p_modes.append({"half_k": [0] * omega.size, "re": (-np.eye(2)).tolist(),
                        "im": np.zeros((2, 2)).tolist()})
    P, dP = _fourier_eval(p_modes, theta, omega)
    F = _fourier_eval(f_modes, theta)
    R = dP - (A + F) @ P - F + P @ B + (B - A)
    return float(_op_norms(R).max()), float(_op_norms(F).max())


def _alpha_im(B: np.ndarray) -> float:
    """|Im alpha| for the eigenvalues +-alpha of a trace-zero B."""
    det = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
    return math.sqrt(det) if det > 0 else 0.0


# -- the checks --------------------------------------------------------------

def check_outputs(config: dict, theta: list, out: Path) -> list:
    """Every independent check on the outputs in `out`."""
    results = []

    def record(name, ok, detail=""):
        results.append((name, bool(ok), detail))

    cert = json.loads((out / "certificate.json").read_text())
    audit = json.loads((out / "audit_report.json").read_text())
    rows = read_trace(out / "trace.csv")
    omega = np.asarray(config["omega"], dtype=float)
    mu_G, mu_g = _power(config["G"]), _power(config["g"])
    eps0 = float(config["eps0"])

    record("status_reduced", cert["status"] == "Reduced", cert["status"])
    record("audit_pass", audit.get("pass") is True)
    record("steps_contiguous",
           [r["n"] for r in rows] == list(range(cert["steps"])) and rows,
           f"{len(rows)} rows, certificate says {cert['steps']}")

    # schedule from closed forms: a = 1 - 1/(G g)(2)^2 with 1/14^2 as cap
    one_minus_a = min(Fraction(1, 196), Fraction(1, 2 ** int(2 * (mu_G + mu_g))))
    kappa = brute_kappa(omega, mu_G, int(config.get("fit_N", 200)))
    exponent = 2.0 * (mu_G + mu_g)  # ((G g)(N))^2 = N^(2 (mu + mu'))
    if exponent != int(exponent):
        raise ValueError("closed-form truncation orders need integer exponents")
    exponent = int(exponent)
    # 1 - a is 1/q^2 for an integer q, so eps_n = (1-a)^{n/2} eps0 = eps0 / q^n
    # and the bracket below are exact rationals
    q = math.isqrt(one_minus_a.denominator)
    if one_minus_a != Fraction(1, q * q):
        raise ValueError("closed-form ladder needs 1 - a = 1/q^2")
    k2 = Fraction(kappa) ** 2
    bad_ladder, bad_N, bad_contr = [], [], []
    for r in rows:
        n = r["n"]
        eps_n = Fraction(eps0) / q ** n
        if r["F_norm"] > float(eps_n) * (1.0 + 1e-9):
            bad_ladder.append(n)
        X = one_minus_a ** 2 * k2 / (4 * eps_n)
        N = r["N_n"]
        if not (N ** exponent <= X < (N + 1) ** exponent):
            bad_N.append(n)
        limit = float(one_minus_a) if r["resonant"] else math.sqrt(float(one_minus_a))
        if r["contraction"] > limit:
            bad_contr.append(n)
    record("F_norm_ladder", not bad_ladder, f"rows over (1-a)^(n/2) eps0: {bad_ladder}")
    record("truncation_orders_exact", not bad_N, f"rows off the closed form: {bad_N}")
    record("contraction", not bad_contr, f"rows over the limit: {bad_contr}")

    # resonances against a brute-force l1 ball, where it is small enough
    checked, bad_res = 0, []
    for r in rows:
        N = r["N_n"]
        if N > BRUTE_N_MAX:
            continue
        pts = l1_ball(N)
        mod = np.abs(pts).sum(axis=1).astype(float)
        dist = np.abs(r["alpha"] - 1j * math.pi * (pts @ omega)) * mod ** mu_g
        thr = kappa / (4.0 * float(N) ** mu_G)
        violators = [tuple(int(v) for v in p) for p in pts[dist < thr]]
        expected = [r["m"]] if r["resonant"] else []
        if violators != expected:
            bad_res.append((r["n"], violators, expected))
        checked += 1
    record("resonances_bruteforce", checked > 0 and not bad_res,
           f"{checked} rows enumerated; mismatches {bad_res[:3]}")

    # conjugation identity at the seeded points of the double torus
    sup_r, sup_f = conjugation_defect(config, cert, np.asarray(theta, dtype=float))
    record("conjugation_identity", sup_r <= CONJ_RATIO_MAX * sup_f,
           f"sup|R| = {sup_r:.3e}, sup|F| = {sup_f:.3e}, ratio {sup_r / sup_f:.3e}")

    # the reduced constant part against closed forms
    B = np.array(cert["B"], dtype=float)
    tol = DRIFT_FACTOR * eps0
    if config["A"] == "schrodinger":
        target = math.sqrt(float(config["E"]) - float(config["V"].get("v0", 0.0)))
        got = _alpha_im(B)
        record("constant_part", abs(got - target) <= tol,
               f"|Im alpha(B)| = {got!r}, sqrt(E) = {target!r}")
    else:
        beta = float(config["A"][0][1])
        m0 = next(r["m"] for r in rows if r["resonant"])
        offset = math.pi * float(np.dot(m0, omega))
        got = _alpha_im(B)
        record("constant_part", abs(got - (beta - offset)) <= tol,
               f"|Im alpha(B)| = {got!r}, beta - pi<m,omega> = {beta - offset!r}")
        record("rotation_sum", abs(cert["rotation_sum"] - offset) <= 1e-12 * offset,
               f"{cert['rotation_sum']!r} vs {offset!r}")
        sup_f_bound = sum(np.linalg.norm(np.array(m["re"]) + 1j * np.array(m["im"]), 2)
                          for m in system(config)[1])
        allowance = audit["rho_error_estimate"] + sup_f_bound
        record("rho_measured", abs(audit["rho_measured"] - beta) <= allowance,
               f"|rho - beta| = {abs(audit['rho_measured'] - beta):.3e}, "
               f"allowed {allowance:.3e}")
    return results
