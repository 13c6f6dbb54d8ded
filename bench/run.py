"""The degenstein benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload desk --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout (the directory holding `src/`
and `BENCHMARK.json`).  Workloads are defined in `workloads.py`:
BENCHMARK.json lists `desk` and `lab`; `control` and `oracle-2d` run by
name too and are covered by the self-test, but are left out of
BENCHMARK.json because two workloads at its run length are what fit the
run budget steadily.

Every workload runs in a fresh child interpreter (`child.py`), one child at
a time.  With `--trace 0` the result holds the end-to-end metrics:

    setup_s      median set-up time: import degenstein plus table, grid and
                 problem construction, over one workload child and
                 SETUP_PROBES set-up-only children, half started before it
                 and half after (lab: config generation, repeated before
                 every body)
    wall_s       mean wall time of the workload body over the run, without
                 its fastest and slowest tenth (see `trimmed_mean`); lab's
                 body time is the sum of its CLI processes' wall times
    peak_rss_mb  peak resident set of the workload child (lab: of its
                 largest CLI process)

Both timings are given at a reference host speed.  On a shared host the
speed this process gets drifts by tens of percent from minute to minute, so
the child times a fixed probe (`child.host_probe`, numpy and Python work
that never touches degenstein) before every body and after the last.  Each
body time (lab: each CLI process's, with a probe between two processes) is
multiplied by PROBE_REF_S over the mean of the two probes around it, and
the set-up times by PROBE_REF_S over the run's mean probe time.  A change
in degenstein that leaves the probe alone moves the timings by its full
ratio; a change in the host's speed moves the probe with them.  The report
prints the raw times and the probe times as well.

With `--trace 1` it holds the per-layer metrics from a traced run: spans
around degenstein's public functions (`tracer.py`), an import probe timed
from outside, and the tracing overhead (traced minus untraced body time).

The lines before the last one report every metric with its median, the
highest percentile that has at least ten samples beyond it, and the sample
count, the failed checks and a run manifest.  The last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

The benchmark exits non-zero, printing no result, when the checkout has no
degenstein sources.  `python3 bench/selftest.py` is its own smoke test.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import BENCH_DIR, NAMES as WORKLOADS

SETUP_PROBES = 4          # set-up-only children besides the workload child
PROBE_REF_S = 0.06        # host_probe's usual time on the 2-vCPU Xeon host
                          # the benchmark was tuned on
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 170
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env(root):
    env = dict(os.environ)
    env.pop("DEGENSTEIN_THREADS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for key in THREAD_CAPS:
        env[key] = "1"
    return env


def run_child(argv, root, env):
    proc = subprocess.run([sys.executable] + argv, cwd=root, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"child {argv[:3]} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_probe(root, env):
    """cli.import_s from fresh `python -c "import degenstein"` processes,
    and the scipy share of the import from `-X importtime`."""
    walls = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import degenstein"], cwd=root,
                       env=env, check=True, timeout=60,
                       stdin=subprocess.DEVNULL)
        walls.append(time.perf_counter() - t0)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import degenstein"], cwd=root, env=env, check=True,
                          timeout=60, capture_output=True, text=True,
                          stdin=subprocess.DEVNULL)
    total = scipy = 0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(\S+)", line)
        if m:
            total += int(m.group(1))
            if m.group(2).split(".")[0] == "scipy":
                scipy += int(m.group(1))
    return walls, scipy / total if total else 0.0


def tail_stats(values):
    """(median, label, value) with the highest percentile that has at least
    ten samples above it, or no percentile when there are too few."""
    v = sorted(values)
    n = len(v)
    med = statistics.median(v) if v else math.nan
    if n < 11:
        return med, None, None
    return med, f"p{100.0 * (n - 10) / n:.0f}", v[n - 11]


def trimmed_mean(values, cut=0.1):
    """Mean without the fastest and slowest `cut` of the values.

    On a shared host the speed switches between levels that each last some
    seconds, so body times are multi-modal and their median jumps from one
    level to another between runs; a mean moves only with the share of the
    run spent at each level.  Trimming keeps single stalls out of it."""
    v = sorted(values)
    k = int(len(v) * cut)
    return statistics.fmean(v[k:len(v) - k])


def at_ref_speed(units, probes):
    """Body times at the reference host speed.  `units` holds the timed
    units of each body (lab: its CLI processes; otherwise the body), and
    `probes` the probe times around them in order; each unit is scaled by
    the probes just before and just after it."""
    bodies, j = [], 0
    for body in units:
        t = 0.0
        for u in body:
            t += u * 2.0 * PROBE_REF_S / (probes[j] + probes[j + 1])
            j += 1
        bodies.append(t)
    return bodies


def source_digest(root):
    h = hashlib.sha256()
    src = os.path.join(root, "src", "degenstein")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def manifest(root, env, args, versions):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True, timeout=10,
                                stdin=subprocess.DEVNULL).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "commit": commit, "src_sha256": source_digest(root),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "machine": platform.machine(), **versions,
        "child_env": {"DEGENSTEIN_THREADS": env.get("DEGENSTEIN_THREADS"),
                      "PYTHONPATH": "src",
                      **{k: env[k] for k in THREAD_CAPS}},
    }


def _line(name, values, unit):
    med, label, tail = tail_stats(values)
    extra = f"  {label} {tail:.6g}" if label else ""
    return (f"  {name:30s} median {med:.6g} {unit}{extra}  min {min(values):.6g}"
            f"  (n={len(values)})")


def measure(args, root, env, work):
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--root", root, "--work", work, "--size", args.size]
    child = os.path.join(BENCH_DIR, "child.py")
    if args.trace:
        import_walls, scipy_share = import_probe(root, env)
        res = run_child([child] + common + ["--seconds", str(args.seconds),
                                            "--trace", "1"], root, env)
        layers = dict(res["layers"])
        layers.setdefault("cli.artifact_bytes", 0)
        layers.setdefault("kinetic.kernel_width", 0)
        layers["cli.import_s"] = statistics.median(import_walls)
        layers["cli.import_scipy_share"] = scipy_share
        layers["trace.overhead_s"] = (statistics.median(res["traced_wall_s"])
                                      - statistics.median(res["wall_s"]))
        report = [_line("cli.import_s", import_walls, "s"),
                  _line("wall_s (untraced)", res["wall_s"], "s"),
                  _line("wall_s (traced)", res["traced_wall_s"], "s")]
        report += [f"  {k:30s} {v:.6g}" for k, v in sorted(layers.items())]
        report.append(f"  accuracy: {json.dumps(res['accuracy'])}")
        report.append(f"  samples per layer: {json.dumps(res['layer_samples'])}")
        report.append(f"  counts per body: {json.dumps(res['layer_counts'][:3])}")
        report += [f"  self time per body {k:28s} {v:.6g} s"
                   for k, v in res["self_s_per_body"].items()]
        ok = res["counts_repeat"]
        if not ok:
            report.append("  FAIL: per-body counts differ")
        return res, layers, report, ok

    def probes(n):
        # lab repeats its set-up inside the workload child
        if args.workload == "lab":
            return []
        return [t for _ in range(n) for t in run_child(
            [child] + common + ["--setup-only"], root, env)["setup_s"]]

    setups = probes(SETUP_PROBES // 2)
    res = run_child([child] + common + ["--seconds", str(args.seconds),
                                        "--trace", "0"], root, env)
    setups += res["setup_s"] + probes(SETUP_PROBES - SETUP_PROBES // 2)
    walls = at_ref_speed(res["units_s"], res["probe_s"])
    speed = PROBE_REF_S / trimmed_mean(res["probe_s"])
    metrics = {
        "setup_s": statistics.median(setups) * speed,
        "wall_s": trimmed_mean(walls),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    report = [_line("setup_s (raw)", setups, "s"),
              _line("wall_s (raw)", res["wall_s"], "s"),
              _line("host probe", res["probe_s"], "s"),
              f"  {'run speed factor':30s} {speed:.6g}",
              _line("setup_s (reference speed)", [t * speed for t in setups], "s"),
              _line("wall_s (reference speed)", walls, "s"),
              f"  {'wall_s (trimmed mean)':30s} {metrics['wall_s']:.6g} s",
              f"  {'peak_rss_mb':30s} {metrics['peak_rss_mb']:.6g} MB",
              f"  accuracy: {json.dumps(res['accuracy'])}",
              f"  fail_ratio {res['failed']}/{res['attempted']}",
              f"  repeated outputs: {json.dumps(res['repeat'])}",
              f"  first body: {json.dumps(res['extra'])}",
              "  wall_s samples: " + " ".join(f"{x:.4f}" for x in res["wall_s"]),
              "  probe samples: " + " ".join(f"{x:.4f}" for x in res["probe_s"])]
    if args.workload == "lab":
        for key in ("check", "kinetic_compare", "sweep_eps"):
            report.append(f"  cli.{key}_s (untraced) {res['extra']['cli_s'][key]:.6g} s")
    ok = res["repeat_ok"] and all(math.isfinite(v) for v in metrics.values())
    if not res["repeat_ok"]:
        report.append("  FAIL: outputs differ between bodies")
    return res, metrics, report, ok


def _terminate(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the
    # running child before re-raising
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is the self-test's smoke size")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "degenstein", "__init__.py")):
        print("bench: no src/degenstein here; run from the root of a "
              "degenstein checkout", file=sys.stderr)
        return 2
    env = child_env(root)
    work = os.path.join(root, ".bench_run", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        units = declared_units(root, args.trace)
        res, metrics, report, ok = measure(args, root, env, work)
        info = manifest(root, env, args, res["versions"])
        missing = set(units) - set(metrics)
        if missing:
            raise BenchError(f"declared metrics not measured: {sorted(missing)}")
    except (BenchError, subprocess.SubprocessError, OSError, ValueError,
            KeyError) as e:
        print(f"bench: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    print(f"degenstein benchmark: workload {args.workload} seed {args.seed} "
          f"trace {args.trace}")
    for line in report:
        print(line)
    for err in res["errors"]:
        print(f"  FAILED CHECK: {err}")
    print("manifest " + json.dumps(info, sort_keys=True))
    result = {
        "correct": bool(ok and res["failed"] == 0 and res["attempted"] > 0),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def declared_units(root, trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
