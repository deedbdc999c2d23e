"""Gate one benchmark run on the verdict line bench/run.py prints last.

    python3 bench/run.py --workload W ... | tail -n 1 | python3 .github/bench_gate.py W [METRIC ...]

run.py exits 0 even when a check fails, so this exits non-zero unless the
run is correct, its failure share is the one bench/README.md documents
(none, except the 4 stalled small-samples points of every 2,400
projections), and each METRIC named is positive.
"""

import json
import sys

workload, positive = sys.argv[1], sys.argv[2:]
r = json.load(sys.stdin)
allowed = 4 if workload == "small-samples" else 0
if r.get("correct") is not True:
    sys.exit(f"not correct: {r}")
failed, attempted = r["failed"], r["attempted"]
if failed * 2400 > allowed * attempted:
    sys.exit(f"{failed} of {attempted} operations failed, above {allowed} per 2,400: {r}")
for name in positive:
    if not r["metrics"][name]["value"] > 0:
        sys.exit(f"{name} is not positive: the tracer does not see the trainer: {r}")
