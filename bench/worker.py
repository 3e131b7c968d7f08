"""One benchmark pass in a fresh interpreter.

Usage: python3 bench/worker.py SPEC.json

SPEC.json holds {"kind": "smoke" | "pass", "workload", "seed", "work",
"result", "trace", "spans", "reps", "deadline"}. The worker imports
decilab from the checkout's src/, builds the workload inputs, notes the
monotonic time of its first timed call, then runs the workload pass and its
output checks `reps` times, or fewer once the monotonic `deadline` has
passed, and writes the result JSON with the duration of each repetition.
Set-up time is measured by the parent from the spawn to that first timed
call; the clock is CLOCK_MONOTONIC in both processes.
"""

import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy  # noqa: E402
import scipy  # noqa: E402

import decilab  # noqa: E402
import decilab.cli  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    if not Path(decilab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"decilab imported from {decilab.__file__}, not from {ROOT / 'src'}")
    work = Path(spec["work"])
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)  # relative 'out' keys in the configs resolve here

    if spec["kind"] == "smoke":
        p = workloads.run_smoke(work)
        result = {"versions": {
            "decilab": decilab.__version__, "numpy": numpy.__version__, "scipy": scipy.__version__}}
    else:
        tracer = tracing.Tracer().install() if spec["trace"] else None
        try:
            state = workloads.PREPARE[spec["workload"]](spec["seed"], work)
            p = workloads.Pass()
            t_ready = time.monotonic()
            walls = []
            while True:  # repetitions of the pass on the same inputs
                t0 = time.monotonic()
                workloads.RUN[spec["workload"]](state, p)
                walls.append(time.monotonic() - t0)
                if len(walls) >= spec["reps"] or time.monotonic() >= spec["deadline"]:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        result = {"t_ready": t_ready, "walls": walls}
        if tracer is not None:
            workers = int(os.environ.get("DECILAB_THREADS", "1"))
            result["layers"] = tracing.layer_metrics(tracer, workers)
            tracer.dump(spec["spans"])
    result.update(ops=[asdict(op) for op in p.ops], info=p.info, digests=p.digests,
                  output_bytes=p.output_bytes)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
