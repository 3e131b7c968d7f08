"""Tests of the benchmark's tracer and of run.py.

Run from the root of a checkout:

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the repository's default test
collection; they test the benchmark, not decilab.
"""

import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import decilab  # noqa: E402
import decilab.cli  # noqa: E402
from decilab.simulate import NoiseSpec  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

FAMILY = {"type": "two_frequency", "order": 4, "gammas": "16 32"}
TINY = {
    "sweep": {"family": FAMILY, "run": {"n": 40, "replicates": 300}},
    "specdens": {"specdens": {"window_order": 4, "gammas": "16 64", "synth": "ar1", "phi": 0.5, "n": 4096}},
    "gamma": {"family": FAMILY},
}


def run_cli(tmp_path, command, sections, tag):
    cfg = tmp_path / f"{command}.ini"
    workloads.write_config(cfg, {"experiment": {"seed": 5}, **sections})
    out = tmp_path / tag
    assert decilab.cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def traced_work():
    """Replicates on a two-thread pool plus a Condition-C audit, traced."""
    family = decilab.two_frequency_demo_family(decilab.make_bspline_window(4), [16, 32])
    with tracing.Tracer() as tracer:
        decilab.replicate_sums(family, 1, 40, NoiseSpec("gaussian"), 300, 3, workers=2)
        decilab.check_condition_c(family)
    return tracer


def test_traced_outputs_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("DECILAB_THREADS", "2")
    for command, sections in TINY.items():
        plain = run_cli(tmp_path, command, sections, f"{command}-plain")
        with tracing.Tracer() as tracer:
            traced = run_cli(tmp_path, command, sections, f"{command}-traced")
        assert traced == plain, command
        assert any(s.name == "cli.main" for s in tracer.spans)


def test_originals_restored_after_tracing():
    modules = tracing.decilab_modules()
    before = {(name, attr): obj for name, mod in modules.items() for attr, obj in vars(mod).items()}
    tracer = tracing.Tracer().install()
    try:
        # Names bound by importing modules are patched too, not only the defining one.
        assert decilab.montecarlo.simulate_decimated is not before[("decilab.montecarlo", "simulate_decimated")]
        assert decilab.moments.eval_response is not before[("decilab.moments", "eval_response")]
        assert decilab.cli.make_bspline_window is not before[("decilab.cli", "make_bspline_window")]
    finally:
        tracer.uninstall()
    after = {(name, attr): obj for name, mod in modules.items() for attr, obj in vars(mod).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is obj for key, obj in before.items())


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [
        S(1, "parent", 0.0, 10.0, None, 1),
        S(2, "child", 1.0, 4.0, 1, 1),
        S(3, "child", 3.0, 6.0, 1, 2),   # overlaps span 2 on another thread
        S(4, "child", 9.0, 12.0, 1, 2),  # runs past the parent's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)


def test_self_time_bounded_and_pool_spans_parented():
    tracer = traced_work()
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    assert all(0.0 <= selfs[s.id] <= s.end - s.start for s in spans)
    by_id = {s.id: s for s in spans}
    (rep,) = [s for s in spans if s.name == "montecarlo.replicate_sums"]
    main = threading.main_thread().ident
    pooled = [s for s in spans if s.name == "simulate.simulate_decimated" and s.thread != main]
    assert pooled and all(s.parent == rep.id for s in pooled)
    for s in spans:
        if s.name == "simulate.noise_values":
            parent = by_id[s.parent]
            assert parent.name == "simulate.simulate_decimated" and parent.thread == s.thread


def test_counts_and_calls_repeat_exactly():
    first = tracing.layer_metrics(traced_work(), 2)
    second = tracing.layer_metrics(traced_work(), 2)
    exact = [k for k in first if k.endswith(tracing.EXACT_SUFFIXES)]
    assert all(first[k] == second[k] for k in exact)
    lengths = sum(k.length for k in
                  decilab.two_frequency_demo_family(decilab.make_bspline_window(4), [16, 32]).levels[1].kernels)
    assert first["simulate.simulate_decimated.gather_bytes_computed"] == 16 * 40 * lengths * 300
    assert first["simulate.simulate_decimated.calls"] == 300
    assert first["kernels.eval_response.phase_elements_computed"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc_ladder", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
