"""The benchmark workloads: inputs from a seed, set-up, body, checks.

Seed 0 reproduces the acceptance battery's inputs exactly.  Any other seed
moves the hump centre by up to +-0.02 (each axis) and scales the hump height
(A0 for the 2-D oracle) by up to +-5%; every correctness check holds under
that jitter.

`desk`, `control` and `oracle-2d` run in this interpreter: `setup` imports
degenstein and builds the table, grid and problem, and `body` is the timed
solve plus its diagnostics.  `lab` launches cold `degenstein` CLI processes
one after another; its set-up is writing their JSON configs.

Library calls go through module attributes (`solver.solve`, not a bound
name), so the wrappers installed by `tracer.install` see them.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Sizes per workload; "tiny" is the self-test's smoke size.
DESK = {
    "full": dict(n=801, T=0.05, snapshots=33, n_max=6),
    "tiny": dict(n=201, T=0.005, snapshots=5, n_max=2),
}
CONTROL = {
    "full": dict(n=401, T=0.06, snapshots=61),
    "tiny": dict(n=101, T=0.06, snapshots=31),
}
ORACLE = {
    "full": dict(n=128, T=0.2, snapshots=5),
    "tiny": dict(n=32, T=0.02, snapshots=3),
}
LAB = {
    "full": dict(kin_n=1601, kin_dt=3.75e-5, kin_T=0.01, sweep_n=401,
                 sweep_T=0.05),
    "tiny": dict(kin_n=201, kin_dt=1.5e-4, kin_T=0.002, sweep_n=101,
                 sweep_T=0.01),
}

WATCH_X0 = (0.5,)
WATCH_R = 0.4
WATCH_RP = 0.2


def jitter(seed: int, n_axes: int = 1):
    """(centre offsets, height factor) for a seed; seed 0 is unjittered."""
    if seed == 0:
        return (0.0,) * n_axes, 1.0
    rng = random.Random(seed)
    offsets = tuple(rng.uniform(-0.02, 0.02) for _ in range(n_axes))
    return offsets, rng.uniform(0.95, 1.05)


class Outcome:
    """What one body produced: operations attempted and failed, the failure
    messages, the accuracy figures, and the values that must repeat exactly
    from body to body."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.accuracy = {}
        self.repeat = {}
        self.extra = {}

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.errors.append(what)
        return ok

    def op(self, checks_ok: bool) -> None:
        self.attempted += 1
        if not checks_ok:
            self.failed += 1


def _import_library():
    import numpy as np
    from degenstein import coeffs, localization, solver
    return np, coeffs, localization, solver


# ------------------------------------------------------------------ desk

class Desk:
    """Headline degenerate run: power beta=1 table, 801 cells, tent hump."""

    name = "desk"

    def __init__(self, seed: int, size: str):
        self.p = DESK[size]
        (dc,), dh = jitter(seed)
        self.center = (-0.6 + dc,)
        self.height = 0.2 * dh

    def setup(self):
        np, coeffs, localization, solver = _import_library()
        self.np, self.loc, self.solver = np, localization, solver
        self.tab = coeffs.build_table(coeffs.power_profile(1.0),
                                      coeffs.LambdaChoice(1.0),
                                      s_min=1e-8, K=256)
        self.grid = solver.GridSpec(extent=((-1.0, 1.0),), n=(self.p["n"],))
        self.prob = solver.EpsProblem(
            table=self.tab, eps=1e-6,
            g=solver.bump(self.center, 0.2, self.height), psi=1.0,
            omega_prime=(WATCH_X0, WATCH_R))
        self.cut = localization.CutoffFamily(x0=WATCH_X0, R=WATCH_R, Rp=WATCH_RP)
        self.pack = localization.ExponentPack.build(self.cut, N_dim=1,
                                                    table=self.tab)
        self.ball = self.grid.distance_to(WATCH_X0) <= WATCH_RP + 1e-12

    def body(self) -> Outcome:
        out = Outcome()
        loc = self.loc
        trace = self.solver.solve(self.prob, self.grid, self.p["T"],
                                  self.p["snapshots"])
        residual = self.solver.energy_identity_residual(trace)
        dgt = loc.de_giorgi_trace(trace, self.cut, self.pack, self.tab,
                                  n_max=self.p["n_max"])
        times, r_front, r_empty = loc.front_series(
            trace, x0_front=self.center, x0_empty=self.cut.x0)
        arrival = loc.time_to_threshold(trace, WATCH_X0, WATCH_RP)
        ball_max = max(float(f[self.ball].max()) for f in trace.fields)
        ok = all([
            out.check(ball_max <= self.prob.support_threshold,
                      f"ball max {ball_max:g} above the support threshold"),
            out.check(math.isinf(arrival), f"front reached the ball at {arrival:g}"),
            out.check(dgt.T_prime > 0.0, "certified horizon T' is 0"),
            out.check(bool(dgt.verdict["all_hold"]), "iteration inequality fails"),
            out.check(residual <= 5e-2, f"energy residual {residual:g} > 5e-2"),
        ])
        out.op(ok)
        out.accuracy = {"energy_residual": residual}
        out.extra = {"T_prime": dgt.T_prime, "r_front_final": float(r_front[-1])}
        out.repeat = {"n_steps": trace.n_steps, "energy_residual": residual,
                      "T_prime": dgt.T_prime, "Y": [float(y) for y in dgt.Y]}
        return out


# --------------------------------------------------------------- control

class Control:
    """Same hump on the non-degenerate constant table: the support fills
    the box and D == 1 sets the step count."""

    name = "control"

    def __init__(self, seed: int, size: str):
        self.p = CONTROL[size]
        (dc,), dh = jitter(seed)
        self.center = (-0.6 + dc,)
        self.height = 0.2 * dh

    def setup(self):
        np, coeffs, localization, solver = _import_library()
        self.np, self.loc, self.solver = np, localization, solver
        self.tab = coeffs.constant_table(M=1.0)
        self.grid = solver.GridSpec(extent=((-1.0, 1.0),), n=(self.p["n"],))
        self.prob = solver.EpsProblem(
            table=self.tab, eps=1e-8,
            g=solver.bump(self.center, 0.2, self.height), psi=1.0)
        self.interior = self.grid.interior_mask()

    def body(self) -> Outcome:
        out = Outcome()
        np = self.np
        trace = self.solver.solve(self.prob, self.grid, self.p["T"],
                                  self.p["snapshots"])
        residual = self.solver.energy_identity_residual(trace)
        arrival = self.loc.time_to_threshold(trace, WATCH_X0, WATCH_RP)
        thr = self.prob.support_threshold
        clean = np.array([float(f[self.interior].min()) > thr
                          for f in trace.fields])
        first = int(np.argmax(clean))
        fill = float(trace.times[first]) if clean[first] else math.inf
        ok = all([
            out.check(arrival < 0.03, f"arrival {arrival:g} not below 0.03"),
            out.check(bool(clean[first]), "interior not filled by T"),
            out.check(bool(np.all(clean[first:])), "support retreats"),
        ])
        out.op(ok)
        out.accuracy = {"energy_residual": residual}
        out.extra = {"arrival": arrival, "fill_time": fill}
        out.repeat = {"n_steps": trace.n_steps, "arrival": arrival,
                      "fill_time": fill, "energy_residual": residual}
        return out


# ------------------------------------------------------------- oracle-2d

class Oracle2D:
    """2-D separable solution of u_t = u lap u (the eps -> 0 limit for
    P(s) = s): u = A0 (R^2 - r^2)_+ / (1 + 4 A0 t) with A0 = R = 0.5."""

    name = "oracle-2d"
    R = 0.5

    def __init__(self, seed: int, size: str):
        self.p = ORACLE[size]
        offsets, dh = jitter(seed, n_axes=2)
        self.center = offsets
        self.A0 = 0.5 * dh

    def setup(self):
        np, coeffs, localization, solver = _import_library()
        self.np, self.solver = np, solver
        self.tab = coeffs.build_table(coeffs.power_profile(1.0),
                                      coeffs.LambdaChoice(1.0),
                                      s_min=1e-8, K=256)
        n = self.p["n"]
        self.grid = solver.GridSpec(extent=((-1.0, 1.0), (-1.0, 1.0)), n=(n, n))
        (cx, cy), A0, R = self.center, self.A0, self.R

        def g(x, y):
            return A0 * np.maximum(R * R - (x - cx) ** 2 - (y - cy) ** 2, 0.0)

        self.prob = solver.EpsProblem(table=self.tab, eps=1e-6, g=g, psi=1.0)
        self.g0 = self.grid.sample(g)

    def body(self) -> Outcome:
        out = Outcome()
        T = self.p["T"]
        trace = self.solver.solve(self.prob, self.grid, T, self.p["snapshots"])
        exact = self.g0 / (1.0 + 4.0 * self.A0 * T)
        num = trace.fields[-1] - self.prob.eps
        l1_rel = float(self.np.abs(num - exact).sum() / exact.sum())
        ok = out.check(l1_rel <= 0.03, f"oracle L1 error {l1_rel:g} > 0.03")
        out.op(ok)
        out.accuracy = {"oracle_l1_rel": l1_rel}
        out.repeat = {"n_steps": trace.n_steps, "oracle_l1_rel": l1_rel}
        return out


# -------------------------------------------------------------------- lab

KINETIC_CSV_HEADER = "x,master,pde"   # the README's stable CSV contract
KIN_TAU0 = 1.5e-4


class Lab:
    """Cold CLI processes in sequence: check, kinetic-compare, sweep-eps."""

    name = "lab"

    def __init__(self, seed: int, size: str, root: str, work: str):
        self.p = LAB[size]
        self.root, self.work = root, work
        self.traced = False      # launch the CLI through traced_cli.py
        (dk, ds), dh = jitter(seed, n_axes=2)
        self.kin_bump = {"center": [0.0 + dk], "radius": 0.3,
                         "height": 0.05 * dh, "shape": "cos2"}
        self.sweep_bump = {"center": [-0.6 + ds], "radius": 0.2,
                           "height": 0.2 * dh, "shape": "tent"}
        self.span_files = {}     # CLI key -> spans written by traced_cli.py

    def configs(self) -> dict:
        """The two JSON configs: criterion 6 refined to 1601 cells, and the
        README config with the criterion-7 floor ladder."""
        p = self.p
        base = {"profile": {"kind": "power", "beta": 1.0, "M": 1.0},
                "lambda": 1.0, "table": {"s_min": 1e-8, "K": 256},
                "eps": 1e-6, "psi": 1.0}
        kin = dict(base, grid={"extent": [[-1.0, 1.0]], "n": [p["kin_n"]]},
                   T=p["kin_T"], snapshots=2, bump=self.kin_bump,
                   kinetic={"tau0": KIN_TAU0, "a": 1.0, "dt": p["kin_dt"]})
        sweep = dict(base, grid={"extent": [[-1.0, 1.0]], "n": [p["sweep_n"]]},
                     T=p["sweep_T"], snapshots=33, bump=self.sweep_bump,
                     localization={"x0": list(WATCH_X0), "R": WATCH_R,
                                   "Rp": WATCH_RP},
                     eps_sweep=[1e-3 * 2.0 ** (-k) for k in range(5)])
        return {"kinetic": kin, "sweep": sweep}

    def kernel_width(self) -> int:
        """2K+1 offsets of the kinetic-compare kernel at the hump's peak,
        from the public support_radius (imports degenstein)."""
        import numpy as np
        from degenstein import kinetic, solver
        grid = solver.GridSpec(extent=((-1.0, 1.0),), n=(self.p["kin_n"],))
        b = self.kin_bump
        d0 = grid.sample(solver.bump(b["center"], b["radius"], b["height"],
                                     b["shape"]))
        kern = kinetic.power_family_kernel(beta=1.0, tau0=KIN_TAU0, a=1.0)
        radius = float(kern.support_radius(np.asarray([d0.max()]))[0])
        return 2 * math.ceil(radius / grid.h[0]) + 1

    def setup(self):
        os.makedirs(self.work, exist_ok=True)
        self.cfg_paths = {}
        for key, cfg in self.configs().items():
            path = os.path.join(self.work, f"{key}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh, indent=2, sort_keys=True)
            self.cfg_paths[key] = path

    def commands(self):
        return [
            ("check", ["check", "--example", "exp_zeta_slow"]),
            ("kinetic_compare", ["kinetic-compare", "--config",
                                 self.cfg_paths["kinetic"]]),
            ("sweep_eps", ["sweep-eps", "--config", self.cfg_paths["sweep"]]),
        ]

    def _launch(self, key: str, args: list, out_dir: str):
        if self.traced:
            spans = os.path.join(self.work, f"spans-{key}.json")
            if os.path.exists(spans):
                os.remove(spans)
            argv = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"),
                    spans]
            self.span_files[key] = spans
        else:
            argv = [sys.executable, "-m", "degenstein.cli"]
        argv += args + ["--out", out_dir, "--quiet"]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=self.root, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=150)
        return proc, time.perf_counter() - t0

    def body(self, between=None) -> Outcome:
        """Run the CLI processes one after another; `between`, if given, is
        called with the last process's wall time between two processes."""
        out = Outcome()
        out.extra = {"cli_s": {}, "artifact_bytes": 0}
        for n, (key, args) in enumerate(self.commands()):
            if n and between is not None:
                between(out.extra["cli_s"][prev])
            prev = key
            out_dir = os.path.join(self.work, f"out-{key}")
            shutil.rmtree(out_dir, ignore_errors=True)
            proc, wall = self._launch(key, args, out_dir)
            out.extra["cli_s"][key] = wall
            ok = out.check(proc.returncode == 0,
                           f"{key}: exit code {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-300:]}")
            if ok:
                ok = self._check_artifacts(key, out_dir, out)
            out.op(ok)
            out.extra["artifact_bytes"] += sum(
                os.path.getsize(os.path.join(out_dir, f))
                for f in os.listdir(out_dir)) if os.path.isdir(out_dir) else 0
        out.repeat = {"artifact_bytes": out.extra["artifact_bytes"],
                      "kinetic_gap": out.accuracy.get("kinetic_gap")}
        return out

    def _check_artifacts(self, key: str, out_dir: str, out: Outcome) -> bool:
        def load(name):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                return json.load(fh) if name.endswith(".json") else fh.readline().strip()
        try:
            if key == "check":
                return out.check("verdicts" in load("report.json"),
                                 "check: report.json has no verdicts")
            if key == "kinetic_compare":
                gap = float(load("kinetic.json")["l1_over_mass"])
                out.accuracy = {"kinetic_gap": gap}
                return all([
                    out.check(load("kinetic.csv") == KINETIC_CSV_HEADER,
                              "kinetic.csv header differs from the README"),
                    out.check(gap <= 0.05, f"kinetic gap {gap:g} > 0.05"),
                ])
            sweep = load("sweep.json")
            return out.check(sweep["cauchy_decreasing"] is True,
                             f"sweep gaps not decreasing: {sweep['l1_gaps']}")
        except (OSError, ValueError, KeyError) as e:
            return out.check(False, f"{key}: artifact missing or unreadable: {e!r}")


IN_PROCESS = {"desk": Desk, "control": Control, "oracle-2d": Oracle2D}
NAMES = ("desk", "control", "oracle-2d", "lab")
