"""Span tracer that wraps the public functions of the decilab modules.

The tracer works from outside the package: it replaces every public
module-level function of each ``decilab.*`` module by a wrapper in every
module namespace that binds it (``montecarlo`` holds its own
``simulate_decimated``, ``moments`` its own ``eval_response``), and puts
the originals back on ``uninstall``. Each call records a span (name,
start, end, parent, thread) in memory; a call on a pool thread that has no
open span of its own takes the innermost span open on the main thread as
its parent, which is the ``replicate_sums`` span that submitted it. Counts
derived from call arguments (``COUNTERS``) are recorded at the same
boundaries.
"""

import functools
import inspect
import itertools
import json
import sys
import threading
import time
import tracemalloc
from collections import defaultdict, namedtuple

import numpy as np

Span = namedtuple("Span", "id name start end parent thread")

GATHER_BYTES_PER_ELEMENT = 16  # one int64 index plus one float64 value


def _kernel_lengths(family, level):
    return sum(k.length for k in family.levels[level].kernels)


# One count per function, derived from the bound call arguments (and the
# result): (key, function). Keys in MAX_KEYS keep the maximum, all others
# are summed. Names ending in "_computed" are sizes the arguments imply, not
# measured traffic.
COUNTERS = {
    "simulate.noise_values": ("draws", lambda a, r: max(0, int(a["hi"]) - int(a["lo"]))),
    "simulate.simulate_decimated": ("gather_bytes_computed", lambda a, r:
                                    GATHER_BYTES_PER_ELEMENT * int(a["n"]) * _kernel_lengths(a["family"], a["level"])),
    "simulate.simulate_linear_process": ("gather_bytes_computed", lambda a, r:
                                         GATHER_BYTES_PER_ELEMENT * int(a["n"]) * a["a"].length),
    "montecarlo.replicate_sums": ("replicates", lambda a, r: int(a["n_replicates"])),
    "kernels.eval_response": ("phase_elements_computed", lambda a, r: int(np.size(a["lam"])) * a["kernel"].length),
    "quadrature.gauss_legendre_panels": ("nodes", lambda a, r: int(a["panels"]) * int(a["nodes"])),
    "quadrature.folding_cutoff": ("max_aliases", lambda a, r: int(r[0])),
    "quadrature.decay_cutoff": ("max_cutoff", lambda a, r: float(r[0])),
}
MAX_KEYS = {"max_aliases", "max_cutoff", "traced_peak_mb"}

# Per-layer metrics that must repeat exactly from one traced pass to the next.
EXACT_SUFFIXES = (".calls", ".draws", ".replicates", ".nodes", ".max_aliases", ".max_cutoff", "_computed")

# Functions whose calls also record the tracemalloc peak (in MB) they reach.
MEMORY_TRACED = {"simulate.simulate_linear_process"}


def decilab_modules():
    """The imported decilab package and submodules, by name."""
    return {name: mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "decilab" or name.startswith("decilab."))}


def public_functions(modules):
    """{original function: 'module.name'} for each public function a decilab module defines."""
    found = {}
    for mod_name, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod_name:
                continue
            found[obj] = f"{mod_name.rsplit('.', 1)[-1]}.{attr}"
    return found


class Tracer:
    """In-memory spans and counts for the wrapped decilab functions."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = None
        self._patches = []
        self.names = []  # qualified names of the wrapped functions

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def _count(self, name, key, value):
        full = f"{name}.{key}"
        with self._lock:
            if key in MAX_KEYS:
                self.counts[full] = max(self.counts[full], value)
            else:
                self.counts[full] += value

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        track_memory = name in MEMORY_TRACED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            span_id = next(self._ids)
            stack.append(span_id)
            measure = track_memory and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if measure:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self._count(name, "traced_peak_mb", peak / 2 ** 20)
                stack.pop()
                with self._lock:
                    self.spans.append(Span(span_id, name, start, end, parent, threading.get_ident()))
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._count(name, counter[0], counter[1](bound.arguments, result))
            return result

        return traced

    def install(self):
        """Patch every binding of every public decilab function; returns self."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = decilab_modules()
        names = public_functions(modules)
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        self.names = sorted(names.values())
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        return self

    def uninstall(self):
        """Restore every binding install() replaced."""
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self, path):
        """Write the spans and counts recorded so far as JSON."""
        with self._lock:
            spans = [s._asdict() for s in self.spans]
            counts = dict(self.counts)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": counts}, fh)


def _covered(intervals, lo, hi):
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """{span id: duration minus the part of it its child spans cover}."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end) for s in spans}


def summarize(spans):
    """{name: {"calls", "self_s"}} aggregated over the spans."""
    selfs = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for s in spans:
        out[s.name]["calls"] += 1
        out[s.name]["self_s"] += selfs[s.id]
    return dict(out)


def layer_metrics(tracer, workers):
    """Per-layer figures of one traced pass, zero for layers it never entered.

    For every wrapped function: ``<name>.calls`` and ``<name>.self_s``; every
    count; ``simulate.noise_values.draws_per_s`` (draws per second of
    noise_values self time, summed over threads); ``montecarlo.thread_busy_frac``
    (simulate_decimated time inside replicate_sums over workers times the
    replicate_sums time); ``montecarlo.replicate_sums.total_s``.
    """
    spans = list(tracer.spans)
    out = {}
    for name in tracer.names:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for name, (key, _) in COUNTERS.items():
        out[f"{name}.{key}"] = 0
    for name in MEMORY_TRACED:
        out[f"{name}.traced_peak_mb"] = 0.0
    for name, row in summarize(spans).items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
    out.update(tracer.counts)

    noise_self = out["simulate.noise_values.self_s"]
    out["simulate.noise_values.draws_per_s"] = out["simulate.noise_values.draws"] / noise_self if noise_self else 0.0
    rep_ids = {s.id for s in spans if s.name == "montecarlo.replicate_sums"}
    rep_total = sum(s.end - s.start for s in spans if s.id in rep_ids)
    busy = sum(s.end - s.start for s in spans if s.name == "simulate.simulate_decimated" and s.parent in rep_ids)
    out["montecarlo.replicate_sums.total_s"] = rep_total
    out["montecarlo.thread_busy_frac"] = busy / (workers * rep_total) if rep_total else 0.0
    return out
