"""Exception types shared across the package."""


class BrinkflowError(Exception):
    """Base class for all package errors."""


class ConfigError(BrinkflowError):
    """Invalid configuration, parameters, or grid setup."""


class DomainError(BrinkflowError):
    """Constitutive law evaluated outside its admissible density range."""


class SolverDiverged(BrinkflowError):
    """A linear solve missed its tolerance.

    CG exhausted its iteration budget, or a direct solve's measured residual
    stayed above tolerance (or non-finite) after one refinement step.

    Carries the final ``SolveReport`` as ``report`` and, when raised from a
    simulation run, the diagnostics records gathered so far as ``records``.
    """

    def __init__(self, message, report=None, records=None):
        super().__init__(message)
        self.report = report
        self.records = records


class CompatibilityError(BrinkflowError):
    """Right-hand side of a pure Neumann/periodic solve has nonzero mean."""


class CongestionOverflow(BrinkflowError):
    """A transport update tried to push a cell density to 1 with delta = 0.

    ``new_max_rho`` is the rejected maximum; ``records`` holds partial
    diagnostics when raised as a run failure.
    """

    def __init__(self, new_max_rho, records=None):
        super().__init__(f"density update rejected: max rho would reach {new_max_rho:.6g} >= 1")
        self.new_max_rho = new_max_rho
        self.records = records


class SweepDegenerate(BrinkflowError):
    """Fewer than three successful sweep rows; nothing can be fitted."""


class FitDegenerate(BrinkflowError):
    """Rate fit impossible: fewer than 3 points or nonpositive metric values."""


class Unclassifiable(BrinkflowError):
    """No classification rule fired; carries the measured evidence."""

    def __init__(self, message, evidence=None):
        super().__init__(message)
        self.evidence = evidence or {}
