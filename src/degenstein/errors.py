"""Exception hierarchy shared by all degenstein modules.

Every failure mode that callers are expected to handle gets its own class.
The CLI's exit code for a failure comes from the pipeline phase it is raised
in (`cli._phase`), not from its class: a DomainError exits 3 while the table
is built and 4 while the solver runs.  These exceptions are for contract
violations at module boundaries; the package's one plain assert, after
the time loop of the solver's `_Kernel.march`, checks that every snapshot
was written.
"""

__all__ = [
    "DegensteinError",
    "DomainError",
    "QuadratureError",
    "AssumptionError",
    "CflError",
    "RangeError",
    "GeometryError",
    "ResolutionError",
    "StepError",
    "ConfigError",
]


class DegensteinError(Exception):
    """Base class for all package errors."""


class DomainError(DegensteinError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class QuadratureError(DegensteinError, RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class AssumptionError(DegensteinError, RuntimeError):
    """A structural assumption on the coefficient calculus is violated,
    e.g. the diffusion weight fails to be strictly increasing."""


class CflError(DegensteinError, RuntimeError):
    """Requested explicit time step violates the stability bound."""


class RangeError(DegensteinError, RuntimeError):
    """A field value left its admissible interval; clamping is never silent."""


class GeometryError(DegensteinError, ValueError):
    """Localization geometry (ball, cutoff) does not fit inside the grid."""


class ResolutionError(DegensteinError, ValueError):
    """Jump kernel narrower than the grid spacing; moments are meaningless."""


class StepError(DegensteinError, ValueError):
    """Kinetic time step exceeds the shortest waiting time on the grid."""


class ConfigError(DegensteinError, ValueError):
    """Experiment configuration failed validation."""
