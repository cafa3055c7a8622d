"""Seeded input generator for the kamcocycle benchmark.

Writes one run config per workload, plus the sample points theta of the
conjugation check, into a directory.  The program only ever sees the
config JSON; the theta file is read by the benchmark's own checks.

All three workloads share golden-mean frequencies omega = (1, phi),
G = g = t^2, kappa = "fit", r0 = 0.5, n0 = 0 and |F|_{r0} = 1e-10:

  ladder     Schrodinger, E = 6.25, one cosine mode at m = (1, 1),
             cert_tol 1e-130 (about 50 non-resonant steps, N_n near 9e7)
  multimode  Schrodinger, E = 6.25, 42 cosine terms over 0 < |m| <= 6
             (84 Fourier modes), coefficients ~ e^{-4 pi |m|} with signs
             and sizes jittered from the seed, cert_tol 1e-26
  resonant   A = beta J with beta = pi + 1e-3 and the ladder's F as an
             explicit A/F config; one resonance at m = (1, 0) at step 0,
             cert_tol 1e-100
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("ladder", "multimode", "resonant")

GOLDEN = [1.0, 0.5 * (1.0 + math.sqrt(5.0))]
R0 = 0.5
EPS0 = 1e-10
E = 6.25
BETA = math.pi + 1e-3
N_THETA = 16
MULTIMODE_ORDER = 6
JITTER = 0.25

COMMON = {
    "omega": GOLDEN,
    "kappa": "fit",
    "G": {"kind": "power", "mu": 2.0},
    "g": {"kind": "power", "mu": 2.0},
    "r0": R0,
    "n0": 0,
    "eps0": EPS0,
}


def _single_mode_c() -> float:
    # modes at +-(1, 1) have l1 order 2: 2 c e^{2 pi * 2 * r0} = eps0
    return EPS0 / (2.0 * math.exp(2.0 * math.pi * 2.0 * R0))


def half_lattice(order: int) -> list[tuple[int, int]]:
    """One representative of each pair +-m with 0 < |m|_1 <= order."""
    out = []
    for m1 in range(0, order + 1):
        for m2 in range(-order, order + 1):
            if 0 < abs(m1) + abs(m2) <= order and (m1 > 0 or m2 > 0):
                out.append((m1, m2))
    return out


def multimode_modes(rng: np.random.Generator) -> list[dict]:
    ms = half_lattice(MULTIMODE_ORDER)
    signs = rng.choice([-1.0, 1.0], size=len(ms))
    sizes = 1.0 + JITTER * rng.uniform(-1.0, 1.0, size=len(ms))
    raw = [s * z * math.exp(-4.0 * math.pi * (abs(m[0]) + abs(m[1])))
           for m, s, z in zip(ms, signs, sizes)]
    # |F|_{r0} = sum_j 2 |c_j| e^{2 pi |m_j| r0}
    norm = sum(2.0 * abs(c) * math.exp(2.0 * math.pi * (abs(m[0]) + abs(m[1])) * R0)
               for m, c in zip(ms, raw))
    scale = EPS0 / norm
    return [{"m": list(m), "c": c * scale} for m, c in zip(ms, raw)]


def make_config(workload: str, rng: np.random.Generator) -> dict:
    if workload == "ladder":
        return {**COMMON, "name": "ladder", "A": "schrodinger", "E": E,
                "V": {"v0": 0.0, "modes": [{"m": [1, 1], "c": _single_mode_c()}]},
                "cert_tol": 1e-130}
    if workload == "multimode":
        return {**COMMON, "name": "multimode", "A": "schrodinger", "E": E,
                "V": {"v0": 0.0, "modes": multimode_modes(rng)},
                "cert_tol": 1e-26}
    if workload == "resonant":
        c = _single_mode_c()
        coeff = {"re": [[0.0, c], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        return {**COMMON, "name": "resonant",
                "A": [[0.0, BETA], [-BETA, 0.0]],
                "F": {"reality_flag": True,
                      "modes": [{"half_k": [2, 2], **coeff},
                                {"half_k": [-2, -2], **coeff}]},
                "cert_tol": 1e-100}
    raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write config.json and theta.json for one workload and seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    config = make_config(workload, rng)
    # sample points on the double torus [0, 2)^d, where half-integer modes
    # are periodic
    theta = rng.uniform(0.0, 2.0, size=(N_THETA, len(GOLDEN))).tolist()
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    (out / "theta.json").write_text(json.dumps(theta) + "\n")
    return config

