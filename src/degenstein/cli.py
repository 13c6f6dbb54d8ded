"""Experiment runner: JSON config in, CSV/JSON artifacts out.

Each subcommand is one row of `_SUBCOMMANDS`: its help text, its body,
whether it marches, the config blocks it needs and the profile kinds it
takes.  `main` runs every row through one pipeline of phases:

    config        load --config, check every key against one schema (an
                  unknown key exits 2 like a missing or mistyped one) and
                  check that it holds the blocks the subcommand needs, or
                  build the profile block of `check --example`
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
    _PhaseFailure with exit 7, a package, value, runtime or arithmetic
    error one with code; an inner _PhaseFailure and anything else propagate
    unchanged."""
    try:
        yield
    except OSError as e:
        raise _PhaseFailure(EXIT_IO, phase, e) from e
    except (DegensteinError, ValueError, RuntimeError, ArithmeticError) as e:
        raise _PhaseFailure(code, phase, e) from e


# ----------------------------------------------------------------- config

def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An integer or a float within the finite float range: JSON's NaN and
    Infinity, and an integer literal too long for a float, are not numbers
    a run can use."""
    return (_is_integer(value) or isinstance(value, float)) \
        and abs(value) <= sys.float_info.max


# Every key a config may hold.  A dict is an object of those keys, a list
# of one schema a nonempty array of it, and a tuple admits a value that any
# of its schemas admits.  A function gives the values an enumerated key
# admits; it is called only when a config holds the key, so that importing
# this module runs neither the solver nor the kinetic module.  A string
# names a scalar type, "number" (finite), "integer" or "string", and a
# trailing "?" also admits null.  A null object or array is an absent one.
_POINT = ("number", ["number"])     # one number, or one per grid axis
_SCHEMA = {
    "profile": {"kind": lambda: PROFILE_KINDS, "M": "number",
                "beta": "number", "tail": "number?", "path": "string",
                "F0": "number", "h0": "number"},
    "grid": {"extent": [["number"]], "n": ["integer"]},
    "lambda": ("number", lambda: ("auto",)),
    "eps": "number", "T": "number", "psi": "number",
    "eps_sweep": ["number"],
    "snapshots": ("integer", ["number"]),
    "out_dir": "string",
    "bump": {"center": _POINT, "radius": "number", "height": "number",
             "shape": lambda: solver_mod.BUMP_SHAPES},
    "localization": {"x0": _POINT, "R": "number", "Rp": "number"},
    "exponents": {"C1": "number", "S": "number", "j": "number?"},
    "table": {"s_min": "number?", "K": "integer"},
    "kinetic": {"tau0": "number", "a": "number", "dt": "number",
                "shape": lambda: kinetic.KERNEL_SHAPES},
}
# the keys a config must hold, by path; a block's only when it is present
_REQUIRED = ("profile", "grid", "profile.kind", "grid.extent", "grid.n",
             "bump.center", "bump.radius", "bump.height", "localization.x0",
             "localization.R", "localization.Rp")


def _profile_reads(kind: str) -> tuple:
    """The profile keys besides kind that the table of kind is built from."""
    entry = checker_mod.PROFILES.get(kind)
    if entry is None:
        return {"custom": ("path",), "constant": ("F0", "h0", "M")}[kind]
    return ("M", *("beta",) * entry.takes_beta, *("tail",) * entry.takes_tail)


def _checked(value, schema, path: str = ""):
    """A copy of value, checked against schema, in which every number is a
    float unless its schema asks for an integer.  Raises ConfigError naming
    the key of an unknown key, a missing required one or a value the
    schema does not admit."""
    what = path or "config"
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{what} must be an object, got {value!r}")
        unknown = [key for key in value if key not in schema]
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in {what}")
        given = {key: v for key, v in value.items() if not (
            v is None and isinstance(schema[key], (dict, list)))}
        prefix = path and path + "."
        for key in schema:
            if key not in given and prefix + key in _REQUIRED:
                raise ConfigError(f"missing '{key}' in {what}")
        return {key: _checked(v, schema[key], prefix + key)
                for key, v in given.items()}
    if isinstance(schema, list):
        if not (isinstance(value, list) and value):
            raise ConfigError(f"{what} must be a nonempty list, got {value!r}")
        return [_checked(v, schema[0], f"{what}[{i}]")
                for i, v in enumerate(value)]
    if isinstance(schema, tuple):
        for alternative in schema:
            with contextlib.suppress(ConfigError):
                return _checked(value, alternative, path)
        raise ConfigError(f"{what} cannot be {value!r}")
    if callable(schema):
        if value not in schema():
            raise ConfigError(f"unknown {what} {value!r}; expected one of "
                              f"{schema()}")
        return value
    kind = schema.rstrip("?")
    if value is None and kind != schema:
        return None
    if kind == "number" and _is_number(value):
        return float(value)
    if (kind == "integer" and _is_integer(value)
            or kind == "string" and isinstance(value, str)):
        return value
    raise ConfigError(f"{what} must be of type {kind}, got {value!r}")


@dataclass
class ExperimentConfig:
    """Validated run description: a config checked against `_SCHEMA`,
    which the README documents.  The defaults are those of the optional
    config keys.  `check --example`
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
        """raw checked against _SCHEMA, then against the rules that tie one
        key to another or bound a value."""
        c = _checked(raw, _SCHEMA)
        cfg = cls(lam_choice=c.pop("lambda", cls.lam_choice),
                  table_opts=c.pop("table", {}), **c)
        prof, extent, n = cfg.profile, cfg.grid["extent"], cfg.grid["n"]
        kind = prof["kind"]
        if kind == "custom" and "path" not in prof:
            raise ConfigError("missing 'path' in profile")
        # any other key would be ignored, unless null or the default beta 1
        for key, value in prof.items():
            if key not in (*_profile_reads(kind), "kind") \
                    and value is not None and (key, value) != ("beta", 1.0):
                raise ConfigError(f"profile kind '{kind}' takes no {key}, "
                                  f"got {value!r}")
        if len(extent) != len(n) or len(n) > 2 \
                or any(len(ab) != 2 for ab in extent):
            raise ConfigError("grid extent and n must be lists of length 1 "
                              "or 2 alike, extent of [a, b] pairs")
        for block, key in (("bump", "center"), ("localization", "x0")):
            point = (getattr(cfg, block) or {}).get(key)
            if point is not None and len(np.atleast_1d(point)) != len(n):
                raise ConfigError(f"{block}.{key} must have {len(n)} "
                                  f"components, got {point!r}")
        if not (cfg.lam_choice == "auto" or cfg.lam_choice > 0):
            raise ConfigError("lambda must be a positive number or 'auto'")
        for key in ("eps", "T"):
            if getattr(cfg, key) <= 0:
                raise ConfigError(f"{key} must be positive")
        if cfg.eps_sweep is not None and (len(cfg.eps_sweep) < 2
                                          or min(cfg.eps_sweep) <= 0):
            raise ConfigError("eps_sweep needs >= 2 positive values")
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
        return cls.from_dict(raw)


def _given(block: dict, *names: str) -> dict:
    """The fields of block among names that are present and not null, so
    that the library call they go to supplies its own defaults."""
    return {k: block[k] for k in names if block.get(k) is not None}


def _build_table(cfg: ExperimentConfig):
    """The coefficient table of the config's profile (auto Lambda
    resolved), or the nondegenerate control table for kind 'constant'.  The
    library's defaults fill every option the config leaves out; a null
    table.s_min is the profile's build floor."""
    kind, opts = cfg.profile["kind"], cfg.table_opts
    given = _given(cfg.profile, *_profile_reads(kind))
    if kind == "constant":
        return coeffs.constant_table(**given, **_given(opts, "s_min", "K"))
    entry = checker_mod.PROFILES.get(kind)
    prof = (checker_mod.custom_csv_profile(**given) if entry is None
            else entry.make_profile(**given))
    kwargs = _given(opts, "s_min", "K")
    if cfg.lam_choice == "auto":
        provisional = coeffs.build_table(prof, coeffs.LambdaChoice(1.0), **kwargs)
        A_est, _, _ = checker_mod.estimate_A_B(provisional)
        lam = coeffs.LambdaChoice.from_auto(A_est)
    else:
        lam = coeffs.LambdaChoice(cfg.lam_choice)
    return coeffs.build_table(prof, lam, **kwargs)


def _make_problem(cfg: ExperimentConfig, tab):
    """The grid and the regularized problem of a config."""
    grid = solver_mod.GridSpec(extent=tuple(map(tuple, cfg.grid["extent"])),
                               n=tuple(cfg.grid["n"]))
    g = 0.0 if cfg.bump is None else solver_mod.bump(**cfg.bump)
    omega = None
    if cfg.localization is not None:
        omega = (tuple(np.atleast_1d(cfg.localization["x0"]).tolist()),
                 cfg.localization["R"])
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
    n_snap, cells = len(trace.fields), trace.fields[0].size
    mesh = [np.tile(m.ravel(), n_snap) for m in trace.grid.meshgrid()]
    _write_csv(path, "t,x,u" if trace.grid.dim == 1 else "t,x,y,u",
               [np.repeat(trace.times, cells), *mesh, trace.fields.ravel()])


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
        cut = localization.CutoffFamily(x0=x0, R=R,
                                        Rp=cfg.localization["Rp"])
        lam_val = None if tab.Lambda is not None else 1.0
        pack = localization.ExponentPack.build(
            cut, N_dim=grid.dim, table=tab, lam=lam_val, **cfg.exponents)
        dg = localization.de_giorgi_trace(trace, cut, pack, tab)
        front = localization.front_series(trace, cfg.bump["center"], cut.x0)
    with _phase(EXIT_IO, "write"):
        write_json(os.path.join(out, "degiorgi.json"), dg.to_dict())
        _write_csv(os.path.join(out, "front.csv"), "t,r_front,r_empty", front)
        write_snapshots_csv(os.path.join(out, "snapshots.csv"), trace)
    return EXIT_OK, (f"localize: T'={dg.T_prime:.6g} (iteration "
                     f"{'holds' if dg.verdict['all_hold'] else 'fails'})")


def cmd_kinetic_compare(cfg, tab, grid, prob, out):
    with _phase(EXIT_SOLVER, "solve"):
        trace = solver_mod.solve(prob, grid, cfg.T, 2)
    with _phase(EXIT_KINETIC, "kinetic"):
        kin = cfg.kinetic
        tau0 = kin.get("tau0", 1.5e-4)
        kernel = kinetic.power_family_kernel(
            beta=tab.profile.params["beta"], tau0=tau0,
            **_given(kin, "a", "shape"))
        d0 = grid.sample(prob.g)
        dt = kin.get("dt", tau0)
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
