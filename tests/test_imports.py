"""The package's import contract.

`import degenstein` runs `errors` and `coeffs` and registers `checker`,
`solver`, `localization` and `kinetic` in sys.modules without running them;
the package re-exports their public names through its module __getattr__.
Each CLI subcommand runs only the modules it uses.  What a fresh process
has run is probed in a subprocess: this test process has run every module.
"""

import json
import os
import subprocess
import sys

import pytest

import degenstein

MODULES = ("checker", "coeffs", "errors", "kinetic", "localization", "solver")

# the names the package re-exports, by the module that defines them
REEXPORTS = {
    "errors": (
        "DegensteinError", "DomainError", "QuadratureError",
        "AssumptionError", "CflError", "RangeError", "GeometryError",
        "ResolutionError", "StepError", "ConfigError",
    ),
    "coeffs": (
        "COLUMNS", "DegeneracyProfile", "LambdaChoice", "CoefficientTable",
        "integral_I", "build_table", "power_profile", "exp_inv_profile",
        "exp_zeta_profile", "custom_profile", "constant_table",
    ),
    "checker": (
        "AssumptionReport", "CatalogEntry", "PROFILES", "check_A1",
        "estimate_A_B", "check_almost_decreasing", "check_profile",
    ),
    "solver": (
        "GridSpec", "EpsProblem", "SolveTrace", "SweepResult", "bump",
        "cfl_dt", "step_explicit", "solve", "grad_energy",
        "energy_identity_residual", "eps_sweep",
    ),
    "localization": (
        "CutoffFamily", "ExponentPack", "DeGiorgiTrace", "default_j",
        "lady_bound", "lady_threshold", "table_state_eval", "energy_Y",
        "de_giorgi_trace", "estimate_T_prime", "front_radius",
        "empty_radius", "front_series", "time_to_threshold",
    ),
    "kinetic": (
        "JumpKernel", "SinkTerm", "power_family_kernel", "kernel_moments",
        "master_step", "run_master",
    ),
}
NAMES = [(module, name) for module, names in REEXPORTS.items()
         for name in names]

# prints the degenstein modules registered and those that have run; a
# registered module that has not run is still of LazyLoader's class
REPORT = (
    "\nimport json, sys, types\n"
    "mods = {k[len('degenstein.'):]: m for k, m in sys.modules.items()\n"
    "        if k.startswith('degenstein.')}\n"
    "print(json.dumps({'registered': sorted(mods), 'run': sorted(\n"
    "    k for k, m in mods.items() if type(m) is types.ModuleType)}))\n"
)


def fresh_process(code: str) -> dict:
    """Run code in a new interpreter with this checkout's package first on
    the path; the registered and the run degenstein modules after it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(degenstein.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code + REPORT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestPackage:
    def test_import_registers_every_module_and_runs_two(self):
        mods = fresh_process("import degenstein")
        assert set(MODULES) <= set(mods["registered"])
        assert mods["run"] == ["coeffs", "errors"]

    def test_first_attribute_use_runs_the_module(self):
        mods = fresh_process("import degenstein\ndegenstein.GridSpec")
        assert mods["run"] == ["coeffs", "errors", "solver"]

    @pytest.mark.parametrize("module, name", NAMES)
    def test_reexport_resolves(self, module, name):
        defined = getattr(sys.modules[f"degenstein.{module}"], name)
        assert getattr(degenstein, name) is defined
        namespace = {}
        exec(f"from degenstein import {name}", namespace)
        assert namespace[name] is defined
        assert name in dir(degenstein)

    def test_all_lists_the_reexports(self):
        assert sorted(degenstein.__all__) == sorted(n for _, n in NAMES)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            degenstein.no_such_name
        with pytest.raises(ImportError):
            exec("from degenstein import no_such_name", {})


CONFIG = {
    "profile": {"kind": "power", "beta": 1.0, "M": 1.0},
    "lambda": 1.0,
    "table": {"s_min": 1e-8, "K": 64},
    "grid": {"extent": [[-1.0, 1.0]], "n": [81]},
    "eps": 1e-6,
    "eps_sweep": [1e-3, 5e-4, 2.5e-4],
    "bump": {"center": [0.0], "radius": 0.3, "height": 0.05,
             "shape": "cos2"},
    "psi": 1.0,
    "T": 0.002,
    "snapshots": 2,
    "kinetic": {"tau0": 1.5e-4, "a": 1.0, "dt": 1.5e-4},
}


class TestSubcommandModules:
    """Modules a fresh CLI process runs; the others stay registered only."""

    @pytest.mark.parametrize("argv, not_run", [
        (["check", "--example", "power"], {"solver", "localization", "kinetic"}),
        (["sweep-eps", "--config", "CONFIG"], {"localization", "kinetic"}),
        (["kinetic-compare", "--config", "CONFIG"], {"localization"}),
    ])
    def test_subcommand_runs_only_its_modules(self, tmp_path, argv, not_run):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(CONFIG))
        argv = [str(config) if a == "CONFIG" else a for a in argv]
        argv += ["--out", str(tmp_path / "out"), "--quiet"]
        mods = fresh_process("from degenstein.cli import main\n"
                             f"assert main({argv!r}) == 0")
        assert set(MODULES) <= set(mods["registered"])
        assert not not_run & set(mods["run"])
