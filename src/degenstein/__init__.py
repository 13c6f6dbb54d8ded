"""Numerical laboratory for degenerate Einstein-type diffusion.

The pipeline: a degeneracy profile P fixes, through one improper integral,
the whole coefficient calculus (I, H, h, F, F', G); a checker estimates the
structural constants behind that calculus; a regularized explicit solver
evolves the quasilinear equation u_t = D(u) lap(u); localization tools
measure the cutoff energies driving finite-speed propagation; and a jump
process master equation cross-validates the continuum model.
"""

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
from .checker import (
    AssumptionReport, CatalogEntry, PROFILES, check_A1, estimate_A_B,
    check_almost_decreasing, check_profile,
)
from .solver import (
    GridSpec, EpsProblem, SolveTrace, SweepResult, bump, cfl_dt,
    step_explicit, solve, grad_energy, energy_identity_residual, eps_sweep,
)
from .localization import (
    CutoffFamily, ExponentPack, DeGiorgiTrace, default_j, lady_bound,
    lady_threshold, table_state_eval, energy_Y, de_giorgi_trace,
    estimate_T_prime, front_radius, empty_radius, front_series,
    time_to_threshold,
)
from .kinetic import (
    JumpKernel, SinkTerm, power_family_kernel, kernel_moments,
    master_step, run_master,
)

__version__ = "0.1.0"
