"""kamcocycle benchmark: one workload, end to end, with output checks.

    python3 bench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  The inputs are generated from --seed into bench/out/<workload>/.
Each repetition runs in a fresh Python process (bench/child.py), one at a
time, with numpy's thread pools held to the cores this process may use;
it runs `run` and then `audit` on that run's outputs through
kamcocycle.cli.main.  The run first launches SETUP_PROBES processes that
only import kamcocycle.cli, so setup_s is a median over many launches.
A repetition starts while the run, plus half of the longest repetition
so far, is within --seconds (the first always starts), so runs last
--seconds on average.

After the timed repetitions every output is checked (bench/checks.py)
and trace.csv / certificate.json must be byte-identical across all
repetitions.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end medians (setup_s over the
probes and the repetitions; run_s, certify_s and peak_rss_mb over the
repetitions whose run and audit both exited 0).  The run is correct only
if every operation succeeded and every check passed.  With --trace 1 one
more repetition runs with every layer wrapped in spans (bench/tracing.py),
and the metrics are the per-layer numbers of that repetition plus
bench.trace_overhead_s, its run_s minus the untraced median.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_outputs  # noqa: E402
from gen_inputs import WORKLOADS, generate  # noqa: E402

CHILD_TIMEOUT_S = 150
# import-only launches per run; with the repetitions' own launches they
# give setup_s 5 to 7 samples.  Each costs about a second of the run, and
# more of them would leave fewer repetitions for the time metrics.
SETUP_PROBES = 3
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("certify_s", "s"),
              ("peak_rss_mb", "MB"))


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    return env


def _launch(args: list[str], result: Path) -> dict:
    """Run child.py with args; return its result JSON or raise."""
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result),
           "--launch", repr(time.monotonic()), *args]
    proc = subprocess.run(cmd, env=_child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result.read_text())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description="kamcocycle end-to-end benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "kamcocycle" / "cli.py").is_file():
        print("error: run from a kamcocycle checkout (src/kamcocycle/cli.py not found)",
              file=sys.stderr)
        return 2
    work = HERE / "out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    config = generate(args.workload, args.seed, inputs)
    theta = json.loads((inputs / "theta.json").read_text())
    cfg_path = str(inputs / "config.json")

    try:
        t_start = time.monotonic()
        probes = [_launch([], work / f"probe{i}.json")["setup_s"]
                  for i in range(SETUP_PROBES)]
        reps, longest = [], 0.0
        # a run overshoots or falls short of --seconds by at most half a
        # repetition, so many runs together take --seconds each on average
        while not reps or time.monotonic() - t_start + longest / 2 <= args.seconds:
            out = work / f"rep{len(reps)}"
            t0 = time.monotonic()
            reps.append(_launch(["--config", cfg_path, "--out", str(out)],
                                work / f"rep{len(reps)}.json") | {"out": out})
            longest = max(longest, time.monotonic() - t0)
        if args.trace:
            out = work / "traced"
            reps.append(_launch(["--config", cfg_path, "--out", str(out), "--trace", "1"],
                                work / "traced.json") | {"out": out, "traced": True})
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # two operations per repetition: run, then audit on its outputs
    attempted = 2 * len(reps)
    failed = sum((r["run_code"] != 0) + (r["audit_code"] != 0) for r in reps)
    ok_reps = [r for r in reps if r["run_code"] == 0 and r["audit_code"] == 0]
    # no operation of these workloads may fail, so a failure is an error
    correct = failed == 0
    if ok_reps:
        first = ok_reps[0]["out"]
        for name, ok, detail in check_outputs(config, theta, first):
            print(f"check {name}: {'ok' if ok else 'FAILED'} {detail}")
            correct &= ok
        digests = {(_sha256(r["out"] / "trace.csv"), _sha256(r["out"] / "certificate.json"))
                   for r in ok_reps}
        identical = len(digests) == 1
        print(f"check outputs_identical: {'ok' if identical else 'FAILED'} "
              f"{len(ok_reps)} repetitions")
        correct &= identical

    # times of failed repetitions would make a broken program read fast;
    # with no successful repetition the run is incorrect anyway
    untraced = [r for r in ok_reps if not r.get("traced")] or \
        [r for r in reps if not r.get("traced")]
    for i, r in enumerate(reps):
        print(f"rep {i}{' traced' if r.get('traced') else ''}: "
              + " ".join(f"{k}={r[k]!r}" for k, _ in END_TO_END)
              + f" run_code={r['run_code']} audit_code={r['audit_code']}")

    metrics = {}
    if args.trace:
        traced = reps[-1]
        for name, (value, unit) in traced["layers"].items():
            metrics[name] = {"value": value, "unit": unit}
        overhead = traced["run_s"] - statistics.median(r["run_s"] for r in untraced)
        metrics["bench.trace_overhead_s"] = {"value": overhead, "unit": "s"}
        print(f"traced: {traced['spans']} spans; largest self times: "
              + ", ".join(f"{n} {s:.3f}s" for n, s in traced["top_self"]))
    else:
        print("setup probes: " + " ".join(f"{v!r}" for v in probes))
        metrics["setup_s"] = {"value": statistics.median(
            probes + [r["setup_s"] for r in untraced]), "unit": "s"}
        for name, unit in END_TO_END[1:]:
            value = statistics.median(r[name] for r in untraced)
            metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
