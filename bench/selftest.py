"""Fast self-test of the benchmark, at smoke size.

    python3 bench/selftest.py

Run from the root of the checkout.  It checks that BENCHMARK.json keeps to
its format; that every workload, untraced and traced, prints a correct
result whose metric names and units are exactly the ones BENCHMARK.json
declares; that the deterministic counts repeat exactly for one seed; and
that the benchmark refuses, printing no result, to run without sources.
Exits 0 when every check passes.
"""

import json
import os
import re
import shutil
import subprocess
import sys

from workloads import NAMES as WORKLOADS

ROOT = os.getcwd()
COUNTS = ("solver.n_steps", "coeffs.eval_calls_per_step",
          "localization.energy_Y_calls", "kinetic.master_steps",
          "kinetic.kernel_width", "cli.artifact_bytes")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int),
          "run_seconds is a whole number in [1, 60]")
    names = [w["name"] for w in spec["workloads"]] + \
        [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(all(NAME.match(n) for n in names) and len(names) == len(set(names)),
          "names are well formed and unique")
    check(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
              for w in spec["workloads"]), "workloads have a one-line why")
    check(all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
              for m in spec["end_to_end"]), "end-to-end bounds in (0, 0.25]")
    check(all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"]),
          "per-layer metrics have name, unit, better")
    check(all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
              for m in spec["end_to_end"] + spec["per_layer"]), "units and directions")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s present, in s, lower is better, with the largest bound")


def run(workload, seed, trace, cwd=ROOT):
    argv = [sys.executable, os.path.join(cwd, "bench", "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=170, stdin=subprocess.DEVNULL)


def result_of(proc, what):
    check(proc.returncode == 0, f"{what}: exit code 0")
    if proc.returncode != 0:
        print(proc.stderr[-2000:])
        return None
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
    check(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
          f"{what}: correct, nothing failed")
    return res


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_spec(spec)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in WORKLOADS:
        for trace in (0, 1):
            res = result_of(run(w, 0, trace), f"{w} trace {trace}")
            if res is None:
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == declared[trace], f"{w} trace {trace}: metric names and units")
            if trace:
                again = result_of(run(w, 0, 1), f"{w} trace 1 again")
                if again is not None:
                    same = all(res["metrics"][k]["value"] == again["metrics"][k]["value"]
                               for k in COUNTS)
                    check(same, f"{w}: counts repeat exactly for one seed")

    bare = os.path.join(ROOT, ".bench_run", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run("desk", 0, 0, cwd=bare)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "without sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
