"""decilab benchmark: the entry point.

Usage (from the root of a checkout):

    python3 bench/run.py --workload mc_ladder|specdens_ar1|exact_audit \\
        --seed N --seconds S --trace 0|1

Every run first makes an untimed smoke pass over the six CLI subcommands.
With --trace 0 it then starts fresh child interpreters, each repeating the
workload pass up to REPS_PER_CHILD times, until S seconds have gone (at
least one pass), and reports the end-to-end metrics of BENCHMARK.json as
medians: wall time over the passes, set-up time and peak RSS over the
children. With --trace 1 it alternates untraced and traced passes (plus,
for mc_ladder, a traced pass at one thread) and reports the per-layer
metrics. The last line of stdout is the result JSON; the lines before it
record the environment and the spread of each metric. Results and spans
are written to .bench_out/ in the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from tracer import EXACT_SUFFIXES  # noqa: E402  (imports numpy, not decilab)

ROOT = BENCH.parent  # the checkout: src/, BENCHMARK.json and bench/
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 150.0
# Timed repetitions per untraced child: more timed work per run than one pass
# per child, while set-up is still sampled several times in a run.
REPS_PER_CHILD = 3
POLL_S = 0.01
# The replicate pool (DECILAB_THREADS) is the only parallelism: left to its
# defaults, OpenBLAS starts a thread per core that spins on the shared cores,
# which made the single-threaded passes slower and their times noisier.
BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Runner:
    """Spawns worker children for one benchmark run and collects their results."""

    def __init__(self, workload, seed, threads, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.count = 0
        self.env = dict(os.environ, DECILAB_THREADS=str(threads), **BLAS_ONE_THREAD)
        self.env.pop("PYTHONPATH", None)  # the worker puts the checkout's src/ first itself

    def spawn(self, kind, trace=False, threads=None, reps=1, deadline=0.0):
        """Run one worker to completion; returns its result dict with timings added."""
        self.count += 1
        tag = f"{self.count:03d}-{kind}{'-traced' if trace else ''}"
        spec = {
            "kind": kind, "workload": self.workload, "seed": self.seed, "trace": trace,
            "work": str(self.work / tag), "result": str(self.work / f"{tag}.result.json"),
            "spans": str(OUT / f"spans-{self.workload}-seed{self.seed}-{tag}.json"),
            "reps": reps, "deadline": deadline,
        }
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        env = self.env if threads is None else dict(self.env, DECILAB_THREADS=str(threads))
        with open(self.work / f"{tag}.log", "wb") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                                    cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
            try:
                status, usage = wait_child(proc, t_spawn + CHILD_TIMEOUT_S)
            except BaseException:  # e.g. KeyboardInterrupt: leave no child behind
                proc.kill()
                proc.wait()
                raise
        code = os.waitstatus_to_exitcode(status) if status is not None else None
        if code != 0:
            tail = (self.work / f"{tag}.log").read_text(errors="replace").strip().splitlines()[-3:]
            return {"ok": False, "ops": [{"name": f"worker.{kind}", "ok": False,
                                          "detail": f"exit {code}: {' | '.join(tail)}"}]}
        result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        result["ok"] = True
        if kind == "pass":
            result["setup_s"] = result["t_ready"] - t_spawn
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        return result


def wait_child(proc, deadline):
    """Reap the child with wait4 (for its own peak RSS); kill it past the deadline."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return status, usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None, usage
        time.sleep(POLL_S)


def spread(values):
    """(median, first quartile, third quartile) of the samples."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def environment(args, threads, versions, digests):
    return {
        **versions, "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "threads": threads, "blas_threads": 1, "seed": args.seed, "workload": args.workload, "trace": args.trace,
        "seconds": args.seconds, "config_digests": digests,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "decilab" / "__init__.py").is_file():
        print(f"bench: no decilab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"bench: unknown workload {args.workload!r}; choose from {', '.join(names)}", file=sys.stderr)
        return 2

    threads = min(2, len(os.sched_getaffinity(0)))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir()
    runner = Runner(args.workload, args.seed, threads, work)
    try:
        results = [runner.spawn("smoke")]
        untraced, traced, single = [], [], []
        deadline = time.monotonic() + args.seconds
        while not untraced or time.monotonic() < deadline:
            untraced.append(runner.spawn("pass", reps=1 if args.trace else REPS_PER_CHILD, deadline=deadline))
            if args.trace:
                traced.append(runner.spawn("pass", trace=True))
                if args.workload == "mc_ladder":
                    single.append(runner.spawn("pass", trace=True, threads=1))
        results += untraced + traced + single
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for r in results for op in r["ops"]]
    good = [r for r in untraced if r["ok"]]
    good_traced = [r for r in traced if r["ok"]]
    if not good or (args.trace and not good_traced):
        for op in [op for op in ops if not op["ok"]][:10]:
            print(f"FAILED {op['name']}: {op['detail']}", file=sys.stderr)
        print("bench: no pass completed; no metrics", file=sys.stderr)
        return 1

    digests = {}
    for r in results:
        digests.update(r.get("digests", {}))
    env = environment(args, threads, results[0].get("versions", {}), digests)

    samples = {}
    if not args.trace:
        samples["wall_s"] = [w for r in good for w in r["walls"]]
        for name in ("setup_s", "peak_rss_mb"):
            samples[name] = [r[name] for r in good]
        wanted = spec["end_to_end"]
    else:
        for r in good_traced:
            for name, value in r["layers"].items():
                samples.setdefault(name, []).append(value)
        wall = statistics.median(w for r in good for w in r["walls"])
        samples["trace.overhead_s"] = [statistics.median(w for r in good_traced for w in r["walls"]) - wall]
        samples["cli.output_bytes"] = [r["output_bytes"] for r in good_traced]
        samples["quadrature.bound_violations"] = [r["info"].get("bound_violations", 0) for r in good_traced]
        one = [r for r in single if r["ok"]]
        rep = statistics.median(r["layers"]["montecarlo.replicate_sums.total_s"] for r in good_traced)
        samples["montecarlo.parallel_speedup"] = (
            [statistics.median(r["layers"]["montecarlo.replicate_sums.total_s"] for r in one) / rep]
            if one and rep else [0.0])
        # Counts must repeat exactly from one traced pass to the next.
        first = good_traced[0]["layers"]
        ops += [{"name": "check.counts_repeat", "ok": r["layers"][name] == first[name], "detail": name}
                for r in good_traced[1:] for name in first if name.endswith(EXACT_SUFFIXES)]
        wanted = spec["per_layer"]
    failed = [op for op in ops if not op["ok"]]

    metrics = {}
    print("# env " + json.dumps(env, sort_keys=True))
    for m in wanted:
        if m["name"] not in samples:
            raise KeyError(f"metric {m['name']!r} of BENCHMARK.json is not measured")
        med, q1, q3 = spread(samples[m["name"]])
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        print(f"# {m['name']} = {med:.6g} {m['unit']} (q1 {q1:.6g}, q3 {q3:.6g}, {len(samples[m['name']])} samples)")
    info = {k: v for r in good for k, v in r.get("info", {}).items() if not k.endswith("_list")}
    print("# info " + json.dumps(info, sort_keys=True))
    for r in good[:1]:
        for line in r["info"].get("bound_violation_list", []):
            print(f"# bound violation: {line}")
    for op in failed[:10]:
        print(f"# FAILED {op['name']}: {op['detail']}")
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "result": result, "info": info,
                    "samples": {k: v for k, v in samples.items() if k in metrics}}, indent=1),
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
