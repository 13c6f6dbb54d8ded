"""In-memory spans around degenstein's public entry points.

`install` prepares a timing wrapper for each traced function: module-level
functions in every `degenstein.*` module that holds them (so a call from
`eps_sweep` to `solve`, or from `de_giorgi_trace` to `energy_Y`, is seen),
and two methods on their classes.  `enable` swaps the wrappers in or the
originals back, so untraced bodies run the library untouched.  The wrappers
only time and count calls and read documented return values.

A span is (name, start, end, parent index, body id, info).  Spans stay in a
list until the run ends; `aggregate` turns them into per-layer figures.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
import sys
import time

# (module, attribute, span name)
FUNCTIONS = [
    ("degenstein.coeffs", "build_table", "coeffs.build_table"),
    ("degenstein.checker", "check_profile", "checker.check_profile"),
    ("degenstein.solver", "solve", "solver.solve"),
    ("degenstein.solver", "eps_sweep", "solver.eps_sweep"),
    ("degenstein.localization", "de_giorgi_trace", "localization.de_giorgi_trace"),
    ("degenstein.localization", "energy_Y", "localization.energy_Y"),
    ("degenstein.localization", "front_series", "localization.front_series"),
    ("degenstein.kinetic", "run_master", "kinetic.run_master"),
]
# (module, class, method, span name)
METHODS = [
    ("degenstein.coeffs", "CoefficientTable", "eval", "coeffs.eval"),
    ("degenstein.solver", "EpsProblem", "diffusivity", "solver.diffusivity"),
]


def _solve_info(trace):
    dts = trace.dt_history
    return {"n_steps": int(trace.n_steps), "cells": int(trace.fields[-1].size),
            "dt_min": float(dts.min()), "dt_max": float(dts.max())}


def _master_info(result):
    times, _ = result
    return {"steps": len(times) - 1}


INFO = {"solver.solve": _solve_info, "kinetic.run_master": _master_info}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.body = -1       # -1 while setting up, then the body index
        self._swaps = []     # (owner, attribute, original, wrapper)

    def span(self, name, start, end, info=None):
        """Record a span measured by the caller, such as a child process."""
        self.spans.append((name, start, end,
                           self.stack[-1] if self.stack else -1, self.body, info))

    def wrap(self, name, fn):
        spans, stack, info_of = self.spans, self.stack, INFO.get(name)
        clock = time.perf_counter

        # The slot is reserved on entry (children point at it) and filled
        # with a tuple on exit: tuples of numbers leave the cyclic garbage
        # collector alone, where hundreds of thousands of lists would not.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.body, None)
            if info_of is not None:
                spans[idx] = spans[idx][:5] + (info_of(result),)
            return result

        return traced

    def install(self):
        """Prepare the wrappers (tracing stays off); import degenstein first."""
        mods = [m for k, m in sys.modules.items()
                if k == "degenstein" or k.startswith("degenstein.")]
        for modname, attr, name in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self.wrap(name, orig)
            for mod in mods:
                for key, val in vars(mod).items():
                    if val is orig:
                        self._swaps.append((mod, key, orig, wrapped))
        for modname, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            orig = cls.__dict__[attr]
            self._swaps.append((cls, attr, orig, self.wrap(name, orig)))

    def enable(self, on: bool):
        for owner, attr, orig, wrapped in self._swaps:
            setattr(owner, attr, wrapped if on else orig)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def load_under(path, name, start, end, body):
    """A span measured here around another process, followed by the spans
    that process wrote with `Tracer.dump`, re-parented under it."""
    out = [(name, start, end, -1, body, None)]
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            out += [tuple(s[:3]) + (s[3] + 1 if s[3] >= 0 else 0, body, s[5])
                    for s in json.load(fh)]
    return out


def merge(span_lists):
    """Concatenate span lists, shifting parent indices."""
    out = []
    for spans in span_lists:
        base = len(out)
        out.extend(s[:3] + (s[3] + base if s[3] >= 0 else -1,) + s[4:]
                   for s in spans)
    return out


def percentile(values, q):
    """Nearest-rank percentile, q in [0, 100]."""
    v = sorted(values)
    if not v:
        return math.nan
    return v[max(0, math.ceil(q / 100.0 * len(v)) - 1)]


def _under(spans, i, name):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


# per-call medians reported as "<layer>_s"
CALL_TIMES = {
    "coeffs.build_table_s": "coeffs.build_table",
    "checker.check_profile_s": "checker.check_profile",
    "solver.eps_sweep_s": "solver.eps_sweep",
    "localization.de_giorgi_s": "localization.de_giorgi_trace",
    "localization.front_series_s": "localization.front_series",
    "kinetic.run_master_s": "kinetic.run_master",
    "cli.check_s": "cli.check",
    "cli.kinetic_compare_s": "cli.kinetic_compare",
    "cli.sweep_eps_s": "cli.sweep_eps",
}
# counts that must repeat exactly from body to body
COUNTS = ("solve_steps", "eval_calls_in_solve", "energy_Y_calls", "master_steps")


def aggregate(spans):
    """Per-layer figures from the spans of the traced bodies.

    Layer times are medians over calls; solver figures are totals over all
    traced solves; counts are per body, from the first body, and the body
    counts are returned for every body so a caller can check that they
    repeat.  Self time (a span minus its child spans) is per body.  A layer
    the workload never calls reads 0.
    """
    durs = {}
    tot = {"solve_t": 0.0, "steps": 0, "cell_steps": 0, "diff_t": 0.0,
           "eval_t": 0.0, "master_t": 0.0, "master_steps": 0}
    dt_min, dt_max = math.inf, 0.0
    diff_us = []
    counts = {}
    self_s = {}
    for i, (name, t0, t1, parent, body, info) in enumerate(spans):
        dur = t1 - t0
        durs.setdefault(name, []).append(dur)
        self_s[name] = self_s.get(name, 0.0) + dur
        if parent >= 0:
            self_s[spans[parent][0]] -= dur
        c = counts.setdefault(body, dict.fromkeys(COUNTS, 0))
        if name == "solver.solve":
            tot["solve_t"] += dur
            tot["steps"] += info["n_steps"]
            tot["cell_steps"] += info["n_steps"] * info["cells"]
            dt_min, dt_max = min(dt_min, info["dt_min"]), max(dt_max, info["dt_max"])
            c["solve_steps"] += info["n_steps"]
        elif name == "kinetic.run_master":
            tot["master_t"] += dur
            tot["master_steps"] += info["steps"]
            c["master_steps"] += info["steps"]
        elif name == "localization.energy_Y":
            c["energy_Y_calls"] += 1
        elif name in ("solver.diffusivity", "coeffs.eval") and \
                _under(spans, i, "solver.solve"):
            if name == "solver.diffusivity":
                tot["diff_t"] += dur
                diff_us.append(dur * 1e6)
            else:
                tot["eval_t"] += dur
                c["eval_calls_in_solve"] += 1
    body_counts = [counts[b] for b in sorted(counts) if b >= 0]
    first = body_counts[0] if body_counts else dict.fromkeys(COUNTS, 0)

    def share(x):
        return x / tot["solve_t"] if tot["solve_t"] else 0.0

    metrics = {key: statistics.median(durs[name]) if name in durs else 0.0
               for key, name in CALL_TIMES.items()}
    ey = [d * 1e3 for d in durs.get("localization.energy_Y", [])]
    metrics.update({
        "coeffs.eval_calls_per_step": (first["eval_calls_in_solve"] / first["solve_steps"]
                                       if first["solve_steps"] else 0.0),
        "coeffs.eval_share": share(tot["eval_t"]),
        "solver.us_per_step": 1e6 * tot["solve_t"] / tot["steps"] if tot["steps"] else 0.0,
        "solver.cell_steps_per_s": (tot["cell_steps"] / tot["solve_t"]
                                    if tot["solve_t"] else 0.0),
        "solver.diffusivity_us_p50": percentile(diff_us, 50) if diff_us else 0.0,
        "solver.diffusivity_us_p99": percentile(diff_us, 99) if diff_us else 0.0,
        "solver.diffusivity_share": share(tot["diff_t"]),
        "solver.self_share": share(tot["solve_t"] - tot["diff_t"]),
        "solver.n_steps": first["solve_steps"],
        "solver.dt_min": dt_min if tot["steps"] else 0.0,
        "solver.dt_max": dt_max,
        "localization.energy_Y_calls": first["energy_Y_calls"],
        "localization.energy_Y_ms": statistics.median(ey) if ey else 0.0,
        "kinetic.master_steps": first["master_steps"],
        "kinetic.us_per_step": (1e6 * tot["master_t"] / tot["master_steps"]
                                if tot["master_steps"] else 0.0),
    })
    samples = {k: len(durs.get(name, [])) for k, name in CALL_TIMES.items()}
    samples.update({"solver.diffusivity_us": len(diff_us),
                    "localization.energy_Y_ms": len(ey)})
    n_bodies = max(1, len(body_counts))
    self_per_body = {k: v / n_bodies for k, v in sorted(self_s.items())}
    return metrics, body_counts, samples, self_per_body
