"""Finite-volume tools for soft-congestion Brinkman flow.

A transported density drives a semi-stationary velocity through singular
pressure and bulk-viscosity laws that blow up at the packing density.  The
package integrates the coupled system on periodic staggered grids, monitors
the exact discrete structure (effective-flux identity, energy balance,
congestion measures), and runs parameter sweeps that expose how the stiff
(epsilon -> 0) and truncation (delta -> 0) limits behave.
"""

from .errors import (
    BrinkflowError,
    CompatibilityError,
    CongestionOverflow,
    ConfigError,
    DomainError,
    FitDegenerate,
    SolverDiverged,
    SweepDegenerate,
    Unclassifiable,
)
from .laws import (
    LawParams,
    LawValues,
    RegimeTag,
    c_beta,
    constraint_residuals,
    evaluate_laws,
    pressure_derivative,
    regime,
)
from .grid import (
    FaceVectorField,
    Grid,
    ScalarField,
    cell_coords,
    curl,
    divergence,
    face_coords,
    gradient,
    integral,
    make_grid,
    mean_and_measure,
    read_snapshot,
    write_snapshot,
)
from .momentum import (
    SolveReport,
    apply_momentum_operator,
    compute_S,
    solve_momentum,
    solve_poisson_zero_mean,
)
from .transport import (
    SimState,
    advect_big_lambda,
    advect_density,
    stable_dt,
)
from .diagnostics import (
    CSV_COLUMNS,
    CongestionReport,
    DiagnosticsRecord,
    EnergyLedger,
    build_record,
    congestion_report,
    effective_flux_report,
    energy_report,
    poincare_constant,
)
from .harness import (
    SWEEP_METRICS,
    ClassificationResult,
    FitResult,
    RunConfig,
    SweepRow,
    SweepTable,
    build_scenario,
    classify_limit,
    fit_rate,
    load_config,
    parse_config,
    resolve_metric,
    run_simulation,
    sweep,
    write_diagnostics_csv,
    write_report,
)

__version__ = "0.1.0"

__all__ = [
    "BrinkflowError", "CompatibilityError", "CongestionOverflow", "ConfigError",
    "DomainError", "FitDegenerate", "SolverDiverged", "SweepDegenerate",
    "Unclassifiable",
    "LawParams", "LawValues", "RegimeTag", "c_beta", "constraint_residuals",
    "evaluate_laws", "pressure_derivative", "regime",
    "FaceVectorField", "Grid", "ScalarField", "cell_coords", "curl",
    "divergence", "face_coords", "gradient", "integral", "make_grid",
    "mean_and_measure", "read_snapshot", "write_snapshot",
    "SolveReport", "apply_momentum_operator", "compute_S",
    "solve_momentum", "solve_poisson_zero_mean",
    "SimState", "advect_big_lambda", "advect_density", "stable_dt",
    "CSV_COLUMNS", "CongestionReport", "DiagnosticsRecord", "EnergyLedger",
    "build_record", "congestion_report", "effective_flux_report",
    "energy_report", "poincare_constant",
    "SWEEP_METRICS", "ClassificationResult", "FitResult", "RunConfig",
    "SweepRow", "SweepTable", "build_scenario", "classify_limit", "fit_rate",
    "load_config", "parse_config", "resolve_metric", "run_simulation", "sweep",
    "write_diagnostics_csv", "write_report",
    "__version__",
]
