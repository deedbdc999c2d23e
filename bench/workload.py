"""One workload process: set up, call run_experiment once, check its outputs.

Started by run.py with a fixed environment (see README.md).  The process
start time comes in as ``--t0`` (CLOCK_MONOTONIC, shared by all processes),
so ``setup_s`` covers the interpreter, the imports, and building and
validating the config.  With ``--setup-only`` the process stops there.
The result is written as JSON to ``--result``.

    python3 bench/workload.py --workload ltp-compare --out bench/out/x \
        --result bench/out/x.json --t0 "$(python3 -c 'import time; print(time.monotonic())')"
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import physproj
    from physproj.pipeline import load_config, run_experiment

    src = os.path.join(os.path.dirname(HERE), "src")
    if os.path.commonpath([os.path.abspath(physproj.__file__), src]) != src:
        raise SystemExit(f"physproj imported from {physproj.__file__}, not from {src}")

    overrides = dict(workloads.WORKLOADS[args.workload], out_dir=args.out)
    cfg = load_config(None, overrides)
    tracer = None
    entry = run_experiment
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        entry = tracer.install()

    start = time.monotonic()
    result = {"setup_s": start - args.t0}
    if not args.setup_only:
        entry(cfg)
        result["wall_s"] = time.monotonic() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.metrics()
            result["spans"] = tracer.spans()
        attempted, failed, problems = workloads.check(args.workload, cfg)
        result.update(attempted=attempted, failed=failed, problems=problems)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
