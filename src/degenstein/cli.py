"""Experiment runner: JSON config in, CSV/JSON artifacts out.

Each subcommand is one row of `_SUBCOMMANDS`: its help text, its body,
whether it marches, the config blocks it needs and the profile kinds it
takes.  `main` runs every row through one pipeline of phases:

    config        load --config and check the blocks the subcommand needs,
                  or build the profile block of `check --example`
    write         create the output directory and remove an earlier run's
                  error.json from it
    coefficients  build the coefficient table
    solve         build the grid and the regularized problem (marching
                  subcommands only)

The body then runs its own phases and writes its artifacts: `check`
(assumption report), `table` (coefficient CSV), `solve` (snapshots + run
summary), `localize` (iteration diagnostics + front series),
`kinetic-compare` (master equation vs solver), `sweep-eps` (floor-ladder
Cauchy gaps).  Outputs are deterministic: same config, byte-identical
files.

Failures exit with a phase-specific code and drop error.json next to the
other artifacts:

    0 success; 1 unexpected; 2 config; 3 coefficients/checker;
    4 solver; 5 localization/geometry; 6 kinetic; 7 file I/O.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import coeffs, kinetic, localization
from . import checker as checker_mod
from . import solver as solver_mod
from .errors import ConfigError, DegensteinError

__all__ = ["ExperimentConfig", "main"]

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_COEFFS = 3
EXIT_SOLVER = 4
EXIT_LOCALIZATION = 5
EXIT_KINETIC = 6
EXIT_IO = 7

# the registry kinds, plus the two that build no named profile
PROFILE_KINDS = (*checker_mod.PROFILES, "custom", "constant")


class _PhaseFailure(Exception):
    def __init__(self, code: int, phase: str, err: BaseException):
        super().__init__(str(err))
        self.code = code
        self.phase = phase
        self.err = err


@contextlib.contextmanager
def _phase(code: int, phase: str):
    """Run the block as one pipeline phase: an OSError becomes a
    _PhaseFailure with exit 7, a package, value or runtime error one with
    code; an inner _PhaseFailure and anything else propagate unchanged."""
    try:
        yield
    except OSError as e:
        raise _PhaseFailure(EXIT_IO, phase, e) from e
    except (DegensteinError, ValueError, RuntimeError) as e:
        raise _PhaseFailure(code, phase, e) from e


# ----------------------------------------------------------------- config

def _require(d: dict, key: str, ctx: str):
    if key not in d:
        raise ConfigError(f"missing '{key}' in {ctx}")
    return d[key]


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An integer or a finite float: JSON's NaN and Infinity are not numbers
    a run can use."""
    return _is_integer(value) or (isinstance(value, float)
                                  and math.isfinite(value))


def _is_number_list(value) -> bool:
    return isinstance(value, list) and len(value) > 0 \
        and all(_is_number(v) for v in value)


_TYPE_CHECKS = {
    "number": _is_number,
    "integer": _is_integer,
    "string": lambda v: isinstance(v, str),
    "numbers": lambda v: _is_number(v) or _is_number_list(v),
    "snapshots": lambda v: _is_integer(v) or _is_number_list(v),
}


def _check_type(value, kind: str, what: str):
    """Raise ConfigError unless value has the JSON type kind, one of
    _TYPE_CHECKS (a 'number' is finite, 'numbers' is a number or a list of
    numbers, 'snapshots' an integer count or a list of times); a trailing
    '?' also admits null."""
    nullable = kind.endswith("?")
    if not ((nullable and value is None) or _TYPE_CHECKS[kind.rstrip("?")](value)):
        raise ConfigError(f"{what} must be of type {kind.rstrip('?')}, "
                          f"got {value!r}")
    return value


# JSON types of the optional fields of each config block, or for an
# enumerated string the tuple of the values it admits
_BLOCK_TYPES = {
    "profile": {"kind": "string", "M": "number", "beta": "number",
                "tail": "number?", "path": "string", "F0": "number",
                "h0": "number"},
    "bump": {"center": "numbers", "radius": "number", "height": "number",
             "shape": solver_mod.BUMP_SHAPES},
    "localization": {"x0": "numbers", "R": "number", "Rp": "number"},
    "exponents": {"C1": "number", "S": "number", "j": "number?"},
    "table": {"s_min": "number?", "K": "integer", "quad_tol": "number"},
    "kinetic": {"tau0": "number", "a": "number", "dt": "number",
                "shape": kinetic.KERNEL_SHAPES},
}


def _check_block(raw: dict, key: str):
    """raw[key] as a dict (None when absent or null), every present field
    type-checked and every enumerated string checked against its values."""
    block = raw.get(key)
    if block is None:
        return None
    if not isinstance(block, dict):
        raise ConfigError(f"'{key}' must be an object")
    for name, kind in _BLOCK_TYPES[key].items():
        if name not in block:
            continue
        if not isinstance(kind, tuple):
            _check_type(block[name], kind, f"{key}.{name}")
        elif block[name] not in kind:
            raise ConfigError(f"unknown {key}.{name} {block[name]!r}; "
                              f"expected one of {kind}")
    return block


@dataclass
class ExperimentConfig:
    """Validated run description; see README for the JSON schema.  The
    defaults are those of the optional config keys.  `check --example`
    builds a config of one profile block, with no grid."""

    profile: dict
    grid: Optional[dict]
    lam_choice: object = 1.0      # float Lambda or "auto"
    eps: float = 1e-6
    eps_sweep: Optional[list] = None
    bump: Optional[dict] = None
    psi: float = 1.0
    localization: Optional[dict] = None
    exponents: dict = dc_field(default_factory=dict)
    T: float = 0.05
    snapshots: object = 33
    table_opts: dict = dc_field(default_factory=dict)
    kinetic: dict = dc_field(default_factory=dict)
    out_dir: str = "out"

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        _require(raw, "profile", "config")
        prof = _check_block(raw, "profile")
        if prof is None or "kind" not in prof:
            raise ConfigError("profile must be an object with a 'kind'")
        if prof["kind"] not in PROFILE_KINDS:
            raise ConfigError(f"unknown profile kind '{prof['kind']}'")
        if prof["kind"] == "custom":
            _require(prof, "path", "profile")
        entry = checker_mod.PROFILES.get(prof["kind"])
        if entry is not None:
            # a beta other than the default 1 or a tail would be ignored
            if not entry.takes_beta and prof.get("beta", 1.0) != 1.0:
                raise ConfigError(f"profile kind '{prof['kind']}' takes no "
                                  f"beta, got {prof['beta']!r}")
            if not entry.takes_tail and prof.get("tail") is not None:
                raise ConfigError(f"profile kind '{prof['kind']}' takes no "
                                  f"tail, got {prof['tail']!r}")
        lam = raw.get("lambda", cls.lam_choice)
        if not (lam == "auto" or (_is_number(lam) and lam > 0)):
            raise ConfigError("lambda must be a positive number or 'auto'")
        grid = _require(raw, "grid", "config")
        if not isinstance(grid, dict):
            raise ConfigError("'grid' must be an object")
        extent = _require(grid, "extent", "grid")
        n = _require(grid, "n", "grid")
        if not (isinstance(extent, list) and isinstance(n, list)) \
                or len(extent) != len(n) or len(n) not in (1, 2):
            raise ConfigError("grid extent and n must both be lists of "
                              "length 1 or 2")
        for ab, m in zip(extent, n):
            if not (_is_number_list(ab) and len(ab) == 2):
                raise ConfigError(f"grid.extent entries must be [a, b] "
                                  f"pairs of numbers, got {ab!r}")
            _check_type(m, "integer", "grid.n entry")
        eps = float(_check_type(raw.get("eps", cls.eps), "number", "eps"))
        if eps <= 0:
            raise ConfigError("eps must be positive")
        T = float(_check_type(raw.get("T", cls.T), "number", "T"))
        if T <= 0:
            raise ConfigError("T must be positive")
        sweep = raw.get("eps_sweep")
        if sweep is not None:
            if not isinstance(sweep, list):
                raise ConfigError("eps_sweep must be a list of numbers")
            sweep = [float(_check_type(e, "number", "eps_sweep entry"))
                     for e in sweep]
            if len(sweep) < 2 or any(e <= 0 for e in sweep):
                raise ConfigError("eps_sweep needs >= 2 positive values")
        bump = _check_block(raw, "bump")
        if bump is not None:
            for key in ("center", "radius", "height"):
                _require(bump, key, "bump")
            if len(np.atleast_1d(bump["center"])) != len(n):
                raise ConfigError(f"bump.center must have {len(n)} "
                                  f"components, got {bump['center']!r}")
        loc = _check_block(raw, "localization")
        if loc is not None:
            for key in ("x0", "R", "Rp"):
                _require(loc, key, "localization")
            if len(np.atleast_1d(loc["x0"])) != len(n):
                raise ConfigError(f"localization.x0 must have {len(n)} "
                                  f"components, got {loc['x0']!r}")
        psi = float(_check_type(raw.get("psi", cls.psi), "number", "psi"))
        snapshots = _check_type(raw.get("snapshots", cls.snapshots),
                                "snapshots", "snapshots")
        out_dir = _check_type(raw.get("out_dir", cls.out_dir), "string",
                              "out_dir")
        return cls(
            profile=prof, lam_choice=lam, grid=grid, eps=eps,
            eps_sweep=sweep, bump=bump, psi=psi,
            localization=loc, exponents=_check_block(raw, "exponents") or {},
            T=T, snapshots=snapshots,
            table_opts=_check_block(raw, "table") or {},
            kinetic=_check_block(raw, "kinetic") or {},
            out_dir=out_dir,
        )

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
        return cls.from_dict(raw)


def _given(block: dict, **convert) -> dict:
    """The fields of block named in convert that are present and not null,
    each passed through its converter (None keeps the JSON value), so that
    the library call they go to supplies its own defaults."""
    return {k: block[k] if f is None else f(block[k])
            for k, f in convert.items() if block.get(k) is not None}


def _build_table(cfg: ExperimentConfig):
    """The coefficient table of the config's profile (auto Lambda
    resolved), or the nondegenerate control table for kind 'constant'.  The
    library's defaults fill every option the config leaves out; a null
    table.s_min is the profile's build floor."""
    block, opts = cfg.profile, cfg.table_opts
    if block["kind"] == "constant":
        return coeffs.constant_table(
            **_given(block, F0=float, h0=float, M=float),
            **_given(opts, s_min=float, K=int))
    entry = checker_mod.PROFILES.get(block["kind"])
    if entry is None:
        prof = checker_mod.custom_csv_profile(block["path"])
    else:
        prof = entry.make_profile(**_given(block, beta=float, M=float,
                                           tail=None))
    kwargs = _given(opts, s_min=None, K=int, quad_tol=float)
    if cfg.lam_choice == "auto":
        provisional = coeffs.build_table(prof, coeffs.LambdaChoice(1.0), **kwargs)
        A_est, _, _ = checker_mod.estimate_A_B(provisional)
        lam = coeffs.LambdaChoice.from_auto(A_est)
    else:
        lam = coeffs.LambdaChoice(float(cfg.lam_choice))
    return coeffs.build_table(prof, lam, **kwargs)


def _make_problem(cfg: ExperimentConfig, tab):
    """The grid and the regularized problem of a config."""
    grid = solver_mod.GridSpec(
        extent=tuple(tuple(float(v) for v in ab) for ab in cfg.grid["extent"]),
        n=tuple(int(m) for m in cfg.grid["n"]))
    g = 0.0
    if cfg.bump is not None:
        g = solver_mod.bump(**_given(cfg.bump, center=None, radius=float,
                                     height=float, shape=None))
    omega = None
    if cfg.localization is not None:
        omega = (tuple(float(v) for v in np.atleast_1d(cfg.localization["x0"])),
                 float(cfg.localization["R"]))
    return grid, solver_mod.EpsProblem(table=tab, eps=cfg.eps, g=g,
                                       psi=cfg.psi, omega_prime=omega)


# ----------------------------------------------------------------- writers

def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _write_csv(path: str, header: str, columns) -> None:
    data = np.column_stack(columns)
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")


def write_snapshots_csv(path: str, trace: solver_mod.SolveTrace) -> None:
    grid = trace.grid
    mesh = grid.meshgrid()
    rows_t, rows_x, rows_u = [], [], []
    for t, f in zip(trace.times, trace.fields):
        rows_t.append(np.full(f.size, t))
        rows_x.append(np.stack([m.ravel() for m in mesh], axis=1))
        rows_u.append(f.ravel())
    t_col = np.concatenate(rows_t)
    xy = np.concatenate(rows_x, axis=0)
    u_col = np.concatenate(rows_u)
    header = "t,x,u" if grid.dim == 1 else "t,x,y,u"
    _write_csv(path, header, [t_col] + [xy[:, k] for k in range(grid.dim)] + [u_col])


# -------------------------------------------------------------- subcommands
#
# A body takes (cfg, tab, grid, prob, out), grid and prob None for the
# subcommands that do not march, and returns (exit code, summary line).

def cmd_check(cfg, tab, grid, prob, out):
    with _phase(EXIT_COEFFS, "coefficients"):
        report = checker_mod.check_profile(tab)
    with _phase(EXIT_IO, "write"):
        report.to_json(os.path.join(out, "report.json"))
    return (EXIT_OK if report.all_pass() else EXIT_COEFFS,
            f"check: {'PASS' if report.all_pass() else 'FAIL'}  "
            f"A_est={report.A_est:.6g} B_est={report.B_est:.6g} "
            f"C1={report.C1_est:.6g}")


def cmd_table(cfg, tab, grid, prob, out):
    with _phase(EXIT_IO, "write"):
        tab.dump_csv(os.path.join(out, "table.csv"))
    return EXIT_OK, (f"table: {len(tab.s)} nodes on [{tab.s_min:g}, "
                     f"{tab.M:g}] -> {os.path.join(out, 'table.csv')}")


def cmd_solve(cfg, tab, grid, prob, out):
    with _phase(EXIT_SOLVER, "solve"):
        trace = solver_mod.solve(prob, grid, cfg.T, cfg.snapshots)
        residual = solver_mod.energy_identity_residual(trace)
    with _phase(EXIT_IO, "write"):
        write_snapshots_csv(os.path.join(out, "snapshots.csv"), trace)
        write_json(os.path.join(out, "run.json"), {
            "T": trace.T, "n_steps": trace.n_steps,
            "cell_updates": trace.cell_updates,
            "dt_min": float(trace.dt_history.min()),
            "dt_max": float(trace.dt_history.max()),
            "max_u_final": float(trace.max_u_history[-1]),
            "boundary_transient": trace.boundary_transient,
            "energy_residual": residual,
            "eps": prob.eps,
        })
    return EXIT_OK, (f"solve: {trace.n_steps} steps to T={trace.T:g}, "
                     f"energy residual {residual:.3e}")


def cmd_localize(cfg, tab, grid, prob, out):
    with _phase(EXIT_SOLVER, "solve"):
        trace = solver_mod.solve(prob, grid, cfg.T, cfg.snapshots)
    with _phase(EXIT_LOCALIZATION, "localization"):
        x0, R = prob.omega_prime
        cut = localization.CutoffFamily(
            x0=x0, R=R, Rp=float(cfg.localization["Rp"]))
        lam_val = None if tab.Lambda is not None else 1.0
        pack = localization.ExponentPack.build(
            cut, N_dim=grid.dim, table=tab, lam=lam_val,
            **_given(cfg.exponents, C1=float, S=float, j=None))
        dg = localization.de_giorgi_trace(trace, cut, pack, tab)
        times, r_front, r_empty = localization.front_series(
            trace, x0_front=cfg.bump["center"], x0_empty=cut.x0)
    with _phase(EXIT_IO, "write"):
        write_json(os.path.join(out, "degiorgi.json"), dg.to_dict())
        _write_csv(os.path.join(out, "front.csv"), "t,r_front,r_empty",
                   [times, r_front, r_empty])
        write_snapshots_csv(os.path.join(out, "snapshots.csv"), trace)
    return EXIT_OK, (f"localize: T'={dg.T_prime:.6g} (iteration "
                     f"{'holds' if dg.verdict['all_hold'] else 'fails'})")


def cmd_kinetic_compare(cfg, tab, grid, prob, out):
    with _phase(EXIT_SOLVER, "solve"):
        trace = solver_mod.solve(prob, grid, cfg.T, 2)
    with _phase(EXIT_KINETIC, "kinetic"):
        kin = cfg.kinetic
        tau0 = float(kin.get("tau0", 1.5e-4))
        kernel = kinetic.power_family_kernel(
            beta=tab.profile.params["beta"], tau0=tau0,
            **_given(kin, a=float, shape=None))
        d0 = grid.sample(prob.g)
        dt = float(kin.get("dt", tau0))
        _, master = kinetic.run_master(d0, grid, kernel, None, cfg.T, dt)
        pde = trace.fields[-1] - prob.eps
        vol = grid.cell_volume
        mass = float(d0.sum()) * vol
        l1 = float(np.abs(master - pde).sum()) * vol
    with _phase(EXIT_IO, "write"):
        x = grid.axis_centers(0)
        _write_csv(os.path.join(out, "kinetic.csv"), "x,master,pde",
                   [x, master, pde])
        write_json(os.path.join(out, "kinetic.json"), {
            "T": cfg.T, "dt": dt, "mass": mass, "l1_distance": l1,
            "l1_over_mass": l1 / mass if mass > 0 else 0.0,
        })
    return EXIT_OK, (f"kinetic-compare: L1/mass = {l1 / mass:.4%}"
                     if mass > 0 else "kinetic-compare: empty density")


def cmd_sweep_eps(cfg, tab, grid, prob, out):
    with _phase(EXIT_SOLVER, "solve"):
        result = solver_mod.eps_sweep(prob, grid, cfg.T, cfg.eps_sweep)
    cauchy = result.is_cauchy()     # None for one gap: no trend
    with _phase(EXIT_IO, "write"):
        write_json(os.path.join(out, "sweep.json"), {
            "eps": [float(e) for e in result.eps_values],
            "l1_gaps": [float(d) for d in result.distances],
            "n_steps": result.n_steps,
            "cauchy_decreasing": cauchy,
        })
    trend = ("one gap: no trend" if cauchy is None
             else "decreasing" if cauchy else "NOT decreasing")
    return EXIT_OK, (
        f"sweep-eps: gaps {['%.3e' % d for d in result.distances]} ({trend})")


class _Subcommand(NamedTuple):
    help: str
    body: Callable
    marches: bool                 # the pipeline builds the grid and problem
    needs: tuple = ()             # (config field, what its absence lacks)
    kinds: tuple = PROFILE_KINDS  # the profile kinds the body takes


_SUBCOMMANDS = {
    "check": _Subcommand("profile assumption report", cmd_check, False),
    "table": _Subcommand("write the coefficient table CSV", cmd_table, False),
    "solve": _Subcommand("run the regularized evolution", cmd_solve, True),
    "localize": _Subcommand(
        "iteration diagnostics + front series", cmd_localize, True,
        needs=(("localization", "a 'localization' block"),
               ("bump", "a 'bump' block"))),
    "kinetic-compare": _Subcommand(
        "master equation vs solver", cmd_kinetic_compare, True,
        needs=(("bump", "a 'bump' block"),), kinds=("power",)),
    "sweep-eps": _Subcommand(
        "floor-ladder Cauchy gaps", cmd_sweep_eps, True,
        needs=(("eps_sweep", "an 'eps_sweep' list"),)),
}


# ------------------------------------------------------------------- main

def _load_config(args) -> ExperimentConfig:
    """--example's profile block alone, or the --config file holding every
    block the subcommand needs."""
    name, command = args.command, _SUBCOMMANDS[args.command]
    example, beta = getattr(args, "example", None), getattr(args, "beta", None)
    if example is not None:
        if args.config:
            raise ConfigError("--example and --config exclude each other")
        block = {"kind": example}
        if beta is not None:
            if not checker_mod.PROFILES[example].takes_beta:
                raise ConfigError(f"--example {example} takes no --beta")
            block["beta"] = beta
        return ExperimentConfig(profile=block, grid=None, out_dir=".")
    if beta is not None:
        raise ConfigError("--beta needs --example")
    if not args.config:
        raise ConfigError("this subcommand needs --config")
    cfg = ExperimentConfig.from_file(args.config)
    for key, what in command.needs:
        if getattr(cfg, key) is None:
            raise ConfigError(f"{name} needs {what}")
    if cfg.profile["kind"] not in command.kinds:
        raise ConfigError(f"{name} supports {'/'.join(command.kinds)} "
                          f"profiles only")
    return cfg


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="degenstein",
        description="Numerical laboratory for degenerate Einstein-type "
                    "diffusion: coefficient tables, assumption checks, "
                    "regularized runs, localization diagnostics, and the "
                    "jump-process cross-check.")
    sp = ap.add_subparsers(dest="command", required=True)
    for name, command in _SUBCOMMANDS.items():
        p = sp.add_parser(name, help=command.help)
        p.add_argument("--config", help="path to the JSON experiment config")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--quiet", action="store_true", help="suppress chatter")
    p = sp.choices["check"]
    p.add_argument("--example", choices=tuple(checker_mod.PROFILES),
                   help="run a built-in catalog profile instead of a config")
    p.add_argument("--beta", type=float,
                   help="exponent for the " + "/".join(
                       k for k, e in checker_mod.PROFILES.items()
                       if e.takes_beta) + " examples")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = _SUBCOMMANDS[args.command]
    out = args.out or "."      # until the config names the directory
    try:
        with _phase(EXIT_CONFIG, "config"):
            cfg = _load_config(args)
        out = args.out or cfg.out_dir
        with _phase(EXIT_IO, "write"):
            os.makedirs(out, exist_ok=True)
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out, "error.json"))
        with _phase(EXIT_COEFFS, "coefficients"):
            tab = _build_table(cfg)
        grid = prob = None
        if command.marches:
            with _phase(EXIT_SOLVER, "solve"):
                grid, prob = _make_problem(cfg, tab)
        code, summary = command.body(cfg, tab, grid, prob, out)
        if not args.quiet:
            print(summary)
        return code
    except _PhaseFailure as pf:
        payload = {
            "error": type(pf.err).__name__,
            "message": str(pf.err),
            "phase": pf.phase,
            "exit_code": pf.code,
        }
        try:
            os.makedirs(out, exist_ok=True)
            write_json(os.path.join(out, "error.json"), payload)
        except OSError:
            pass
        if not args.quiet:
            print(f"error ({pf.phase}): {pf.err}", file=sys.stderr)
        return pf.code
    except Exception as e:  # pragma: no cover - tripwire
        if not args.quiet:
            print(f"unexpected error: {e}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
