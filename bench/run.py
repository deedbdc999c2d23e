"""Benchmark entry point: time one workload end to end, or trace its layers.

    python3 bench/run.py --workload spring-many --seed 0 --seconds 20 --trace 0

Every experiment runs in a fresh process (bench/workload.py) with a fixed
environment: BLAS and OpenMP pools pinned to one thread, a fixed
PYTHONHASHSEED, and physproj imported from this checkout's src/.  A run

1. starts SETUP_SAMPLES processes that only set up, for ``setup_s``;
2. runs whole rounds of the workload, one process each, until ``--seconds``
   have passed (at least one round), for ``wall_s`` and ``peak_rss_mb``;
3. with ``--trace 1``, runs one more round with every layer traced and
   reports the per-layer metrics instead, plus the tracing overhead.

Each round's outputs are checked (bench/workloads.py).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Metric names, units and directions come from BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 9
DEADLINE_S = 170.0  # the whole run, all processes included

ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


class Runner:
    def __init__(self, workload: str, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.env = dict(os.environ, **ENV, PYTHONPATH=os.path.join(ROOT, "src"))
        self.dir = os.path.join(OUT, workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)

    def process(self, *flags: str) -> dict:
        """Run bench/workload.py once and return its result."""
        out = os.path.join(self.dir, "traced" if "--trace" in flags else "round")
        result_path = out + ".json"
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", self.workload]
        cmd += ["--out", out, "--result", result_path, *flags]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RuntimeError("out of time before the next process")
        t0 = time.monotonic()
        proc = subprocess.run(
            [*cmd, "--t0", repr(t0)], env=self.env, cwd=ROOT, timeout=timeout, capture_output=True, text=True
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        return result


def main() -> int:
    parser = argparse.ArgumentParser(description="Time or trace one physproj workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "physproj", "__init__.py")):
        return fail(f"no physproj sources under {os.path.join(ROOT, 'src')}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")

    runner = Runner(args.workload, deadline)
    try:
        setups = [runner.process("--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES)]
        rounds = []
        start = time.monotonic()
        while not rounds or time.monotonic() - start < args.seconds:
            rounds.append(runner.process())
        traced = runner.process("--trace") if args.trace else None
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    print(f"seed {args.seed}: the workload inputs do not depend on it (bench/README.md)")
    done = rounds + ([traced] if traced else [])
    problems = [p for r in done for p in r["problems"]]
    wall = statistics.median(r["wall_s"] for r in rounds)
    for i, r in enumerate(rounds, 1):
        print(f"round {i}: wall {r['wall_s']:.3f} s, setup {r['setup_s']:.3f} s, "
              f"peak rss {r['peak_rss_mb']:.1f} MB, {r['failed']}/{r['attempted']} failed")
    if traced is None:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        wanted = spec["end_to_end"]
    else:
        values = dict(traced["trace"])
        values["trace.wall_s"] = traced["wall_s"]
        values["trace.overhead_s"] = traced["wall_s"] - wall
        layer_sum = sum(v for k, v in values.items() if k.startswith("layer."))
        if abs(traced["wall_s"] - layer_sum) > abs(values["trace.overhead_s"]):
            problems.append(f"layer self times sum to {layer_sum:.3f} s, traced wall is {traced['wall_s']:.3f} s")
        with open(os.path.join(runner.dir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "spans": traced["spans"], "metrics": values}, fh, indent=1)
        wanted = spec["per_layer"]
        for m in wanted:
            print(f"{m['name']:<28} {values.get(m['name'], float('nan')):>14.6g} {m['unit']}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"no value for metrics {missing}")
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
