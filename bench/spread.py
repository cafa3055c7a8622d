"""Run the benchmark over several seeds and summarise its steadiness.

    python3 bench/spread.py --workload ladder --seeds 1-10 --out A.json
    python3 bench/spread.py --compare A.json B.json

The first form runs bench/run.py once per seed, with the run length from
BENCHMARK.json and --trace 0, one after another, and writes
every run's result plus, per end-to-end metric, the median, the quartiles
from statistics.quantiles(values, n=4) and their distance as a share of
the median.  The second form compares two such files metric by metric:
the change of the second median against the first, as a share of the
first, next to the metric's bound.  Run from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _spec() -> dict:
    return json.loads(Path("BENCHMARK.json").read_text())


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else float("nan")}
    return summary


def measure(workload: str, seeds: list[int], seconds: int) -> dict:
    runs = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(json.dumps({"seed": seed, "correct": result["correct"],
                          "attempted": result["attempted"], "failed": result["failed"],
                          **{k: v["value"] for k, v in result["metrics"].items()}}),
              flush=True)
    failed_share = {r["failed"] / r["attempted"] for r in runs}
    return {"workload": workload, "seconds": seconds, "runs": runs,
            "failed_shares": sorted(failed_share),
            "all_correct": all(r["correct"] for r in runs),
            "summary": summarise(runs) if len(runs) > 1 else {}}


def compare(first: dict, second: dict) -> bool:
    bounds = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}
    ok = first["failed_shares"] == second["failed_shares"]
    print(f"{first['workload']}: failed shares {first['failed_shares']} / "
          f"{second['failed_shares']}")
    for name, s1 in first["summary"].items():
        s2 = second["summary"][name]
        change = (s2["median"] - s1["median"]) / s1["median"]
        bound = bounds.get(name)
        within = bound is None or change <= bound
        spread_ok = bound is None or max(s1["spread"], s2["spread"]) <= bound
        ok &= within and spread_ok
        print(f"  {name}: median {s1['median']:.6g} -> {s2['median']:.6g} "
              f"({change:+.2%}), spreads {s1['spread']:.2%} / {s2['spread']:.2%}, "
              f"bound {bound}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description="multi-seed steadiness of the benchmark")
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2)
    args = ap.parse_args()
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        return 0 if compare(a, b) else 1
    result = measure(args.workload, _seeds(args.seeds), _spec()["run_seconds"])
    for name, s in result["summary"].items():
        print(f"{name}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
              f"spread {s['spread']:.2%}")
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0 if result["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
