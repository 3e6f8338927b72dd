"""Exception types shared across the package."""

__all__ = [
    "BrinkflowError",
    "ConfigError",
    "DomainError",
    "SolverDiverged",
    "CompatibilityError",
    "CongestionOverflow",
    "SweepDegenerate",
    "FitDegenerate",
    "Unclassifiable",
]


class BrinkflowError(Exception):
    """Base class for all package errors."""


class ConfigError(BrinkflowError):
    """Invalid configuration, parameters, or grid setup."""


class DomainError(BrinkflowError):
    """Constitutive law evaluated outside its admissible density range."""


class SolverDiverged(BrinkflowError):
    """A linear solve missed its tolerance.

    The inner CG of the 2D momentum solve exhausted its iteration budget,
    the momentum solve's measured residual stayed above tolerance (or
    non-finite) after one refinement step with a normwise backward error
    above 1e-12, which the message names, or an S or Poisson solve missed
    the tolerance.

    Carries the final ``SolveReport`` as ``report``, the first row of a
    block solve that missed the tolerance as ``row`` (else None) and, when
    raised from a simulation run, the records gathered so far as ``records``.
    """

    def __init__(self, message, report=None, records=None, row=None):
        super().__init__(message)
        self.report = report
        self.records = records
        self.row = row


class CompatibilityError(BrinkflowError):
    """Right-hand side of a pure Neumann/periodic solve has nonzero mean."""


class CongestionOverflow(BrinkflowError):
    """A density update with delta = 0 cannot keep clear of packing.

    Raised by ``advect_density`` when keeping every cell from closing more
    than half its gap 1 - rho would need a step below its floor.
    ``new_max_rho`` is the max rho of the update at the floor step ``dt``;
    ``records`` holds partial diagnostics when raised as a run failure.
    """

    def __init__(self, new_max_rho, dt, records=None):
        super().__init__(
            f"density update rejected: max rho would reach {new_max_rho:.12g} at the "
            f"smallest step {dt:.6g} (no cell may close over half its gap to 1 in a step)"
        )
        self.new_max_rho = new_max_rho
        self.dt = dt
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
