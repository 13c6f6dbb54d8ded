"""One workload in a fresh interpreter; prints one JSON line of raw samples.

    python3 bench/child.py --workload desk --seed 0 --seconds 10 --trace 0
    python3 bench/child.py --workload desk --seed 0 --setup-only

`bench/run.py` starts this with PYTHONPATH pointing at the checkout's
`src`, one child at a time, and turns the samples into metrics.  The body
repeats while another one fits in `--seconds`.  Before every body and after
the last, a fixed probe (`host_probe`) is timed, so that `run.py` can give
the timings at a reference host speed.  With `--trace 1` the bodies
alternate untraced and traced, so the tracing overhead is measured in the
same process.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time

import tracer as tracing
import workloads

LAB_SETUP_REPEATS = 20   # per body
PROBE_SHARE = 0.1        # probing before a body, as a share of the last body


def _parse():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    return ap.parse_args()


def _check_library_origin(root):
    import degenstein
    src = os.path.join(os.path.realpath(root), "src") + os.sep
    if not os.path.realpath(degenstein.__file__).startswith(src):
        raise SystemExit(f"degenstein imported from {degenstein.__file__}, "
                         f"not from {src}")


def host_probe():
    """Seconds taken by fixed work that does not touch degenstein: a
    small-array numpy stencil and a pure-Python loop, the two kinds of work
    the workload bodies are made of.  Timed between bodies, it tracks the
    speed the shared host gives this process at that moment."""
    import numpy as np
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 801)
    for _ in range(1500):
        y = np.maximum(x, 1e-8)
        x = x + 1e-3 * (np.roll(y, 1) - 2.0 * y + np.roll(y, -1))
    s = 0
    for i in range(150_000):
        s += i * i
    return time.perf_counter() - t0


def probe_gap(last_wall):
    """Mean host_probe time over at least PROBE_SHARE of the last body's
    wall time, so that long bodies get as well bracketed as short ones."""
    times = [host_probe()]
    while sum(times) < PROBE_SHARE * last_wall:
        times.append(host_probe())
    return statistics.fmean(times)


def _lab_setup(lab):
    times = []
    for _ in range(LAB_SETUP_REPEATS):
        t0 = time.perf_counter()
        lab.setup()
        times.append(time.perf_counter() - t0)
    return times


def _setup(args, tracer):
    """Build the workload; returns (workload, [set-up seconds])."""
    if args.workload == "lab":
        lab = workloads.Lab(args.seed, args.size, args.root, args.work)
        return lab, _lab_setup(lab)
    w = workloads.IN_PROCESS[args.workload](args.seed, args.size)
    t0 = time.perf_counter()
    if tracer is not None:
        import degenstein  # noqa: F401  (the wrappers need the modules)
        tracer.install()
        tracer.enable(True)
    w.setup()
    setup_s = time.perf_counter() - t0
    _check_library_origin(args.root)
    return w, [setup_s]


def _lab_spans(lab, out, body):
    """One span per CLI process, with the spans the process wrote inside."""
    spans = [tracing.load_under(lab.span_files.pop(key), "cli." + key, 0.0,
                                wall, body)
             for key, wall in out.extra["cli_s"].items()]
    lab.span_files.clear()
    return spans


def _terminate(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the
    # running child before re-raising
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, _terminate)
    args = _parse()
    tracer = tracing.Tracer() if args.trace else None
    w, setup_s = _setup(args, tracer)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    is_lab = args.workload == "lab"
    walls, traced_walls, probes, units = [], [], [], []
    attempted = failed = 0
    errors, repeats, extras, span_lists = [], [], [], []
    accuracy = {}
    deadline = time.perf_counter() + args.seconds
    i = 0
    last_unit = 0.0
    while True:
        on = tracer is not None and i % 2 == 1
        if tracer is not None:
            tracer.body = i
            if not is_lab:
                tracer.enable(on)
        if is_lab:
            w.traced = on
            if i > 0:
                # set-up times sampled across the whole run, not in one burst
                setup_s += _lab_setup(w)
        probes.append(probe_gap(last_unit))
        # lab's timed units are its CLI processes, with probes between them
        inner = []
        kw = {"between": lambda last: inner.append(probe_gap(last))} if is_lab else {}
        t0 = time.perf_counter()
        try:
            out = w.body(**kw)
        except Exception as e:  # a raise counts as a failed operation
            out = workloads.Outcome()
            out.op(out.check(False, f"{type(e).__name__}: {e}"))
        wall = time.perf_counter() - t0
        body_units = list(out.extra.get("cli_s", {}).values()) if is_lab else []
        if len(body_units) == len(inner) + 1:
            probes.extend(inner)
            wall = sum(body_units)
        else:
            body_units = [wall]
        units.append(body_units)
        last_unit = body_units[-1]
        (traced_walls if on else walls).append(wall)
        attempted += out.attempted
        failed += out.failed
        errors.extend(out.errors)
        repeats.append(out.repeat)
        extras.append(out.extra)
        accuracy = accuracy or out.accuracy
        if on and is_lab:
            span_lists.extend(_lab_spans(w, out, i))
        i += 1
        # stop when one more body would end past the deadline
        if time.perf_counter() + wall > deadline and (tracer is None or i >= 2):
            break
    probes.append(probe_gap(last_unit))
    if tracer is not None:
        tracer.enable(False)

    import numpy
    import scipy
    versions = {"python": platform.python_version(),
                "numpy": numpy.__version__, "scipy": scipy.__version__}
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if is_lab
                               else resource.RUSAGE_SELF)
    result = {
        "setup_s": setup_s, "wall_s": walls, "traced_wall_s": traced_walls,
        "units_s": units, "probe_s": probes,
        "attempted": attempted, "failed": failed, "errors": errors[:10],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "repeat_ok": all(r == repeats[0] for r in repeats),
        "repeat": repeats[0], "extra": extras[0], "accuracy": accuracy,
        "versions": versions,
    }
    if tracer is not None:
        spans = tracing.merge([tracer.spans] + span_lists)
        layers, counts, samples, self_s = tracing.aggregate(spans)
        layers["solver.energy_residual"] = accuracy.get("energy_residual", 0.0)
        layers["kinetic.gap"] = accuracy.get("kinetic_gap", 0.0)
        if is_lab:
            layers["cli.artifact_bytes"] = extras[0]["artifact_bytes"]
            layers["kinetic.kernel_width"] = w.kernel_width()
        result.update(layers=layers, layer_counts=counts, layer_samples=samples,
                      self_s_per_body=self_s,
                      counts_repeat=all(c == counts[0] for c in counts))
        with open(os.path.join(args.work, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
