"""Numerical laboratory for degenerate Einstein-type diffusion.

The pipeline: a degeneracy profile P fixes, through one improper integral,
the whole coefficient calculus (I, H, h, F, F', G); a checker estimates the
structural constants behind that calculus; a regularized explicit solver
evolves the quasilinear equation u_t = D(u) lap(u); localization tools
measure the cutoff energies driving finite-speed propagation; and a jump
process master equation cross-validates the continuum model.

`import degenstein` runs `errors` and `coeffs`, which every run needs for
its table.  It registers `checker`, `solver`, `localization` and `kinetic`
in `sys.modules` through `importlib.util.LazyLoader`: each is compiled and
run on the first use of one of its attributes, so a process runs only the
modules it touches.  The names re-exported here from those four modules
(`degenstein.solve`, `from degenstein import GridSpec`) resolve through the
module `__getattr__`.  An error raised while a lazy module runs therefore
surfaces at that first use, not at `import degenstein`; the module then
stays in `sys.modules` half run, so later uses see only the names bound
before the error.
"""

import importlib.util
import sys

from .errors import (
    DegensteinError, DomainError, QuadratureError, AssumptionError,
    CflError, RangeError, GeometryError, ResolutionError, StepError,
    ConfigError,
)
from .coeffs import (
    COLUMNS, DegeneracyProfile, LambdaChoice, CoefficientTable,
    integral_I, build_table, power_profile, exp_inv_profile,
    exp_zeta_profile, custom_profile, constant_table,
)

# the names re-exported from each lazily loaded module: its __all__
_LAZY = {
    "checker": (
        "AssumptionReport", "CatalogEntry", "PROFILES", "check_A1",
        "estimate_A_B", "check_almost_decreasing", "check_profile",
        "custom_csv_profile",
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
_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "DegensteinError", "DomainError", "QuadratureError", "AssumptionError",
    "CflError", "RangeError", "GeometryError", "ResolutionError",
    "StepError", "ConfigError",
    "COLUMNS", "DegeneracyProfile", "LambdaChoice", "CoefficientTable",
    "integral_I", "build_table", "power_profile", "exp_inv_profile",
    "exp_zeta_profile", "custom_profile", "constant_table",
    *_OWNER,
]

__version__ = "0.1.0"


def _register_lazy(name: str):
    """Put submodule `name` in sys.modules and on the package without
    running it; its first attribute access runs it."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


checker = _register_lazy("checker")
solver = _register_lazy("solver")
localization = _register_lazy("localization")
kinetic = _register_lazy("kinetic")


def __getattr__(name: str):
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *__all__})
