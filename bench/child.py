"""One benchmark repetition, in a fresh Python process.

Measures how long the process takes to import kamcocycle.cli (numpy and
scipy included), then calls the CLI entry point in-process:

    main(["run", "--config", CONFIG, "--out", OUT])
    main(["audit", "--trace", OUT/trace.csv, "--config", CONFIG])

and writes the timings, exit codes and peak resident memory as JSON to
--result.  With --trace 1 the layer functions are wrapped in spans first
and the per-layer metrics are added.  Without --config the process only
imports kamcocycle.cli and writes setup_s: a set-up probe.  run.py
launches this script; --launch is a CLOCK_MONOTONIC reading taken just
before the launch.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _repetition(main, config: str, out: str, traced: bool) -> dict:
    tracer = None
    if traced:
        import tracing
        tracer = tracing.install()
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        t0 = time.perf_counter()
        run_code = main(["run", "--config", config, "--out", out])
        t1 = time.perf_counter()
        audit_code = None
        if run_code == 0:
            audit_code = main(["audit", "--trace", os.path.join(out, "trace.csv"),
                               "--config", config])
        t2 = time.perf_counter()
    result = {
        "run_s": t1 - t0,
        "certify_s": t2 - t0,
        "peak_rss_mb": _peak_rss_mb(),
        "run_code": run_code,
        "audit_code": audit_code,
        "stdout": captured.getvalue(),
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["top_self"] = tracing.top_self(tracer.spans)
        result["spans"] = len(tracer.spans)
    return result


def main_child() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--config")
    ap.add_argument("--out")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from kamcocycle.cli import main

    setup_s = time.monotonic() - args.launch
    result = {"setup_s": setup_s}
    if args.config is not None:
        result |= _repetition(main, args.config, args.out, bool(args.trace))
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main_child()
