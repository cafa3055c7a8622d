"""Show that the output checks accept real outputs and reject tampered ones.

    python3 bench/selftest.py [--workload ladder] [--seed 1]

Runs each workload once through kamcocycle.cli.main (from ./src), then
applies bench/checks.py to the outputs as written and to three tampered
copies:

  identity_Z   certificate.json with Z replaced by the identity map
  N_plus_1     trace.csv with N_n + 1 on the last row
  B_shift      certificate.json with B[0][1] shifted by 1e-6

Exits 0 when the real outputs pass every check and each tampered copy
fails at least one.  Writes under bench/out/selftest/.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_outputs  # noqa: E402
from gen_inputs import WORKLOADS, generate  # noqa: E402


def _identity_z(out: Path) -> None:
    cert = json.loads((out / "certificate.json").read_text())
    d = cert["Z"]["d"]
    cert["Z"]["modes"] = [{"half_k": [0] * d, "re": [[1.0, 0.0], [0.0, 1.0]],
                           "im": [[0.0, 0.0], [0.0, 0.0]]}]
    (out / "certificate.json").write_text(json.dumps(cert, sort_keys=True, indent=2) + "\n")


def _n_plus_1(out: Path) -> None:
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("N_n")
    rows[-1][col] = str(int(rows[-1][col]) + 1)
    with open(out / "trace.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _b_shift(out: Path) -> None:
    cert = json.loads((out / "certificate.json").read_text())
    cert["B"][0][1] += 1e-6
    (out / "certificate.json").write_text(json.dumps(cert, sort_keys=True, indent=2) + "\n")


TAMPERS = {"identity_Z": _identity_z, "N_plus_1": _n_plus_1, "B_shift": _b_shift}


def selftest(workload: str, seed: int, base: Path, main) -> bool:
    work = base / workload
    shutil.rmtree(work, ignore_errors=True)
    config = generate(workload, seed, work / "inputs")
    theta = json.loads((work / "inputs" / "theta.json").read_text())
    cfg = str(work / "inputs" / "config.json")
    out = work / "real"
    with contextlib.redirect_stdout(io.StringIO()):
        codes = (main(["run", "--config", cfg, "--out", str(out)]),
                 main(["audit", "--trace", str(out / "trace.csv"), "--config", cfg]))
    if codes != (0, 0):
        print(f"{workload}: run/audit exit codes {codes}")
        return False
    failed = [name for name, ok, _ in check_outputs(config, theta, out) if not ok]
    good = not failed
    print(f"{workload} real outputs: {'accepted' if good else 'REJECTED by ' + ', '.join(failed)}")
    for tamper, apply in TAMPERS.items():
        copy = work / tamper
        shutil.copytree(out, copy)
        apply(copy)
        failed = [name for name, ok, _ in check_outputs(config, theta, copy)
                  if not ok]
        print(f"{workload} {tamper}: "
              + (f"rejected by {', '.join(failed)}" if failed else "NOT REJECTED"))
        good &= bool(failed)
    return good


def main() -> int:
    ap = argparse.ArgumentParser(description="tamper test of the benchmark's checks")
    ap.add_argument("--workload", choices=WORKLOADS, action="append")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from kamcocycle.cli import main as cli_main

    base = HERE / "out" / "selftest"
    results = [selftest(w, args.seed, base, cli_main) for w in args.workload or WORKLOADS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
