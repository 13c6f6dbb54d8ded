"""Experiment runner: JSON config in, CSV/JSON artifacts out.

Subcommands map onto the library pipeline: `check` (assumption report),
`table` (coefficient CSV), `solve` (snapshots + run summary), `localize`
(iteration diagnostics + front series), `kinetic-compare` (master equation
vs solver), `sweep-eps` (floor-ladder Cauchy gaps).  Outputs are
deterministic: same config, byte-identical files.

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
from typing import Optional

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
    """Validated run description; see README for the JSON schema."""

    profile: dict
    lam_choice: object            # float Lambda or "auto"
    grid: dict
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
        lam = raw.get("lambda", 1.0)
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
        eps = float(_check_type(raw.get("eps", 1e-6), "number", "eps"))
        if eps <= 0:
            raise ConfigError("eps must be positive")
        T = float(_check_type(raw.get("T", 0.05), "number", "T"))
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
        psi = float(_check_type(raw.get("psi", 1.0), "number", "psi"))
        snapshots = _check_type(raw.get("snapshots", 33), "snapshots",
                                "snapshots")
        out_dir = _check_type(raw.get("out_dir", "out"), "string", "out_dir")
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
        except OSError as e:
            raise _PhaseFailure(EXIT_IO, "config", e) from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
        return cls.from_dict(raw)


def _make_profile(block: dict):
    if block["kind"] == "custom":
        return checker_mod.custom_csv_profile(block["path"])
    return checker_mod.PROFILES[block["kind"]].make_profile(
        beta=float(block.get("beta", 1.0)), M=float(block.get("M", 1.0)),
        tail=block.get("tail"))


def _build_table(cfg: ExperimentConfig):
    """Profile + table (+ auto Lambda resolution), or the nondegenerate
    control table for kind 'constant'."""
    block = cfg.profile
    opts = dict(cfg.table_opts)
    if block["kind"] == "constant":
        s_min = opts.get("s_min")   # null means the default, as for the others
        tab = coeffs.constant_table(
            F0=float(block.get("F0", 1.0)), h0=float(block.get("h0", 1.0)),
            M=float(block.get("M", 1.0)),
            s_min=1e-8 if s_min is None else float(s_min),
            K=int(opts.get("K", 64)))
        return None, tab
    prof = _make_profile(block)
    kwargs = {
        "s_min": opts.get("s_min"),
        "K": int(opts.get("K", 256)),
        "quad_tol": float(opts.get("quad_tol", 1e-8)),
    }
    if cfg.lam_choice == "auto":
        provisional = coeffs.build_table(prof, coeffs.LambdaChoice(1.0), **kwargs)
        A_est, _, _ = checker_mod.estimate_A_B(prof, provisional)
        lam = coeffs.LambdaChoice.from_auto(A_est)
    else:
        lam = coeffs.LambdaChoice(float(cfg.lam_choice))
    return prof, coeffs.build_table(prof, lam, **kwargs)


def _make_grid(cfg: ExperimentConfig) -> solver_mod.GridSpec:
    return solver_mod.GridSpec(
        extent=tuple(tuple(float(v) for v in ab) for ab in cfg.grid["extent"]),
        n=tuple(int(m) for m in cfg.grid["n"]))


def _make_problem(cfg: ExperimentConfig, tab, eps: Optional[float] = None):
    g = 0.0
    if cfg.bump is not None:
        g = solver_mod.bump(cfg.bump["center"], float(cfg.bump["radius"]),
                            float(cfg.bump["height"]),
                            shape=cfg.bump.get("shape", "tent"))
    omega = None
    if cfg.localization is not None:
        omega = (tuple(float(v) for v in np.atleast_1d(cfg.localization["x0"])),
                 float(cfg.localization["R"]))
    return solver_mod.EpsProblem(table=tab, eps=cfg.eps if eps is None else eps,
                                 g=g, psi=cfg.psi, omega_prime=omega)


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

def _out_dir(args, cfg: Optional[ExperimentConfig]) -> str:
    out = args.out or (cfg.out_dir if cfg is not None else ".")
    os.makedirs(out, exist_ok=True)
    args.resolved_out = out  # where main drops error.json if a phase fails
    return out


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _load_config(args) -> ExperimentConfig:
    if not getattr(args, "config", None):
        raise ConfigError("this subcommand needs --config")
    return ExperimentConfig.from_file(args.config)


def cmd_check(args) -> int:
    with _phase(EXIT_CONFIG, "config"):
        if args.example:
            entry = checker_mod.PROFILES[args.example]
            if args.beta is not None and not entry.takes_beta:
                raise ConfigError(f"--example {args.example} takes no --beta")
            prof = entry.make_profile(1.0 if args.beta is None else args.beta)
            cfg = None
        else:
            cfg = _load_config(args)
    out = _out_dir(args, cfg)
    with _phase(EXIT_COEFFS, "coefficients"):
        if cfg is not None:
            prof, tab = _build_table(cfg)
            if prof is None:
                raise ConfigError("the constant control table has no "
                                  "assumptions to check")
            lam = coeffs.LambdaChoice(tab.Lambda)
            report = checker_mod.check_profile(prof, lam, table=tab)
        else:
            report = entry.run(prof)
    with _phase(EXIT_IO, "write"):
        report.to_json(os.path.join(out, "report.json"))
    _say(args, f"check: {'PASS' if report.all_pass() else 'FAIL'}  "
               f"A_est={report.A_est:.6g} B_est={report.B_est:.6g} "
               f"C1={report.C1_est:.6g}")
    return EXIT_OK if report.all_pass() else EXIT_COEFFS


def cmd_table(args) -> int:
    with _phase(EXIT_CONFIG, "config"):
        cfg = _load_config(args)
    out = _out_dir(args, cfg)
    with _phase(EXIT_COEFFS, "coefficients"):
        _, tab = _build_table(cfg)
    with _phase(EXIT_IO, "write"):
        tab.dump_csv(os.path.join(out, "table.csv"))
    _say(args, f"table: {len(tab.s)} nodes on [{tab.s_min:g}, {tab.M:g}] "
               f"-> {os.path.join(out, 'table.csv')}")
    return EXIT_OK


def cmd_solve(args) -> int:
    with _phase(EXIT_CONFIG, "config"):
        cfg = _load_config(args)
    out = _out_dir(args, cfg)
    with _phase(EXIT_COEFFS, "coefficients"):
        _, tab = _build_table(cfg)
    with _phase(EXIT_SOLVER, "solve"):
        grid = _make_grid(cfg)
        prob = _make_problem(cfg, tab)
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
    _say(args, f"solve: {trace.n_steps} steps to T={trace.T:g}, "
               f"energy residual {residual:.3e}")
    return EXIT_OK


def cmd_localize(args) -> int:
    with _phase(EXIT_CONFIG, "config"):
        cfg = _load_config(args)
        if cfg.localization is None:
            raise ConfigError("localize needs a 'localization' block")
        if cfg.bump is None:
            raise ConfigError("localize needs a 'bump' block")
    out = _out_dir(args, cfg)
    with _phase(EXIT_COEFFS, "coefficients"):
        _, tab = _build_table(cfg)
    with _phase(EXIT_SOLVER, "solve"):
        grid = _make_grid(cfg)
        prob = _make_problem(cfg, tab)
        trace = solver_mod.solve(prob, grid, cfg.T, cfg.snapshots)
    with _phase(EXIT_LOCALIZATION, "localization"):
        loc = cfg.localization
        cut = localization.CutoffFamily(
            x0=tuple(float(v) for v in np.atleast_1d(loc["x0"])),
            R=float(loc["R"]), Rp=float(loc["Rp"]))
        lam_val = None if tab.Lambda is not None else 1.0
        pack = localization.ExponentPack.build(
            cut, N_dim=grid.dim, table=tab, lam=lam_val,
            C1=float(cfg.exponents.get("C1", 1.0)),
            S=float(cfg.exponents.get("S", 1.0)),
            j=cfg.exponents.get("j"))
        dg = localization.de_giorgi_trace(trace, cut, pack, tab)
        times, r_front, r_empty = localization.front_series(
            trace, x0_front=cfg.bump["center"], x0_empty=cut.x0)
    with _phase(EXIT_IO, "write"):
        write_json(os.path.join(out, "degiorgi.json"), dg.to_dict())
        _write_csv(os.path.join(out, "front.csv"), "t,r_front,r_empty",
                   [times, r_front, r_empty])
        write_snapshots_csv(os.path.join(out, "snapshots.csv"), trace)
    _say(args, f"localize: T'={dg.T_prime:.6g} "
               f"(iteration {'holds' if dg.verdict['all_hold'] else 'fails'})")
    return EXIT_OK


def cmd_kinetic_compare(args) -> int:
    with _phase(EXIT_CONFIG, "config"):
        cfg = _load_config(args)
        if cfg.bump is None:
            raise ConfigError("kinetic-compare needs a 'bump' block")
        kin = cfg.kinetic
        beta = float(cfg.profile.get("beta", 1.0))
        if cfg.profile["kind"] != "power":
            raise ConfigError("kinetic-compare supports power profiles only")
    out = _out_dir(args, cfg)
    with _phase(EXIT_COEFFS, "coefficients"):
        _, tab = _build_table(cfg)
    with _phase(EXIT_SOLVER, "solve"):
        grid = _make_grid(cfg)
        prob = _make_problem(cfg, tab)
        trace = solver_mod.solve(prob, grid, cfg.T, 2)
    with _phase(EXIT_KINETIC, "kinetic"):
        kernel = kinetic.power_family_kernel(
            beta=beta, tau0=float(kin.get("tau0", 1.5e-4)),
            a=float(kin.get("a", 1.0)),
            shape=kin.get("shape", "gaussian_truncated"))
        d0 = grid.sample(prob.g)
        dt = float(kin.get("dt", kin.get("tau0", 1.5e-4)))
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
    _say(args, f"kinetic-compare: L1/mass = {l1 / mass:.4%}" if mass > 0
         else "kinetic-compare: empty density")
    return EXIT_OK


def cmd_sweep_eps(args) -> int:
    with _phase(EXIT_CONFIG, "config"):
        cfg = _load_config(args)
        if not cfg.eps_sweep:
            raise ConfigError("sweep-eps needs an 'eps_sweep' list")
    out = _out_dir(args, cfg)
    with _phase(EXIT_COEFFS, "coefficients"):
        _, tab = _build_table(cfg)
    with _phase(EXIT_SOLVER, "solve"):
        grid = _make_grid(cfg)
        prob = _make_problem(cfg, tab)
        result = solver_mod.eps_sweep(prob, grid, cfg.T, cfg.eps_sweep)
    with _phase(EXIT_IO, "write"):
        write_json(os.path.join(out, "sweep.json"), {
            "eps": [float(e) for e in result.eps_values],
            "l1_gaps": [float(d) for d in result.distances],
            "n_steps": result.n_steps,
            "cauchy_decreasing": result.is_cauchy(),
        })
    _say(args, f"sweep-eps: gaps {['%.3e' % d for d in result.distances]} "
               f"({'decreasing' if result.is_cauchy() else 'NOT decreasing'})")
    return EXIT_OK


# ------------------------------------------------------------------- main

def _add_common(sub):
    sub.add_argument("--config", help="path to the JSON experiment config")
    sub.add_argument("--out", help="output directory (overrides config)")
    sub.add_argument("--quiet", action="store_true", help="suppress chatter")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="degenstein",
        description="Numerical laboratory for degenerate Einstein-type "
                    "diffusion: coefficient tables, assumption checks, "
                    "regularized runs, localization diagnostics, and the "
                    "jump-process cross-check.")
    sp = ap.add_subparsers(dest="command", required=True)

    p = sp.add_parser("check", help="profile assumption report")
    _add_common(p)
    p.add_argument("--example", choices=tuple(checker_mod.PROFILES),
                   help="run a built-in catalog profile instead of a config")
    p.add_argument("--beta", type=float, default=None,
                   help="exponent for the " + "/".join(
                       k for k, e in checker_mod.PROFILES.items()
                       if e.takes_beta) + " examples")
    p.set_defaults(func=cmd_check)

    p = sp.add_parser("table", help="write the coefficient table CSV")
    _add_common(p)
    p.set_defaults(func=cmd_table)

    p = sp.add_parser("solve", help="run the regularized evolution")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sp.add_parser("localize", help="iteration diagnostics + front series")
    _add_common(p)
    p.set_defaults(func=cmd_localize)

    p = sp.add_parser("kinetic-compare", help="master equation vs solver")
    _add_common(p)
    p.set_defaults(func=cmd_kinetic_compare)

    p = sp.add_parser("sweep-eps", help="floor-ladder Cauchy gaps")
    _add_common(p)
    p.set_defaults(func=cmd_sweep_eps)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except _PhaseFailure as pf:
        out = getattr(args, "resolved_out", None) or args.out or "."
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
        if not getattr(args, "quiet", False):
            print(f"error ({pf.phase}): {pf.err}", file=sys.stderr)
        return pf.code
    except Exception as e:  # pragma: no cover - tripwire
        if not getattr(args, "quiet", False):
            print(f"unexpected error: {e}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
