"""Per-step diagnostics, effective-flux residuals, and the energy ledger.

A ``DiagnosticsRecord`` gathers the per-step scalar columns written to
diagnostics.csv (fixed column order, see ``CSV_COLUMNS``) plus a few
in-memory extras consumed by ``energy_report`` and by tests.

Law-derived columns (L1_p, L1_lambda, L1_big_lam, excl_*, mp_residual) use
the pointwise law values at the current density: the algebraic identities the
regime classifier relies on (for instance rho*p = (beta-1)*big_lam when
beta = gamma+1) hold exactly for these, while the transported memory field
carries O(dx) scheme drift.  The transported field is monitored separately
through the drift extras.

The flux columns check the identity of the momentum solve that produced u.
The time loop solves with the pressure linearised in time, which turns the
bulk coefficient into c' = 2*mu + lam + dt*rho*p'(rho) (dt of that solve, 0
for the final record and for a plain ``solve_momentum``).  With the effective
viscous flux F = c' div u - p and S from ``compute_S``:

  flux_residual          = max |F - mean(F) - S|, at the solver tolerance;
  mean_relation_residual = |mean((c' - 2*mu) div u) - mean(p)
                            + sum((p + S)/c') / sum(1/c')|,
                           the defect of the mean of F recovered from
                           mean(div u) = 0.

Everything else (L1_lambda, dissipation and so the energy ledger) uses the
physical coefficient 2*mu + lam.

The congested-set quantities (measure above a threshold, max |div u| and the
rho*p = (beta-1)*big_lam residual on that set, and the exclusion sums) come
from one private helper, ``_congested_set``: ``build_record`` fills its
columns from it and ``congestion_report`` is a thin public wrapper around it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ScalarField, curl_array, div_array, mean_and_measure
from .laws import evaluate_laws
from .momentum import compute_S
# perfbench/tracing.py wraps this binding; keep it importable from here
from .momentum import solve_poisson_zero_mean  # noqa: F401

__all__ = [
    "CSV_COLUMNS",
    "DiagnosticsRecord",
    "build_record",
    "effective_flux_report",
    "CongestionReport",
    "congestion_report",
    "EnergyLedger",
    "energy_report",
    "poincare_constant",
]

CSV_COLUMNS = (
    "step", "t", "dt", "mass", "min_rho", "max_rho", "energy_H",
    "dissipation", "forcing_power", "flux_residual", "mean_relation_residual",
    "L1_p", "L1_lambda", "L1_big_lam", "excl_p", "excl_big_lam",
    "mp_residual", "meas_099", "meas_1md", "max_divu_congested",
)

CONGESTION_THETA = 0.99


@dataclass
class DiagnosticsRecord:
    step: int
    t: float
    dt: float
    mass: float
    min_rho: float
    max_rho: float
    energy_H: float
    dissipation: float
    forcing_power: float
    flux_residual: float
    mean_relation_residual: float
    L1_p: float
    L1_lambda: float
    L1_big_lam: float
    excl_p: float
    excl_big_lam: float
    mp_residual: float
    meas_099: float
    meas_1md: float
    max_divu_congested: float
    # in-memory extras (not serialized to diagnostics.csv)
    sum_divu2: float = 0.0
    sum_curl2: float = 0.0
    f_l2sq: float = 0.0
    big_lam_pde_l1: float = 0.0
    big_lam_drift_l1: float = 0.0
    momentum_iters: int = 0
    poisson_iters: int = 0

    def csv_values(self):
        return [getattr(self, name) for name in CSV_COLUMNS]


def _flux_pieces(rho, u, f, vals, params, divu, solve_dt=0.0):
    """Shared computation from the law values and div u: coef, F, S, residuals.

    coef = 2*mu + lam is the physical bulk coefficient; F and the residuals
    use the coefficient of the momentum solve, coef + solve_dt*rho*dp.
    """
    coef = 2.0 * params.mu + vals.lam
    bulk = vals.lam + solve_dt * rho.data * vals.dp
    total = 2.0 * params.mu + bulk
    F = total * divu - vals.p
    S, rep = compute_S(u, f, params)
    flux_residual = float(np.abs(F - F.mean() - S.data).max())
    mean_rel = float(abs(
        (bulk * divu).mean() - vals.p.mean()
        + ((vals.p + S.data) / total).sum() / (1.0 / total).sum()
    ))
    return coef, F, S, rep, flux_residual, mean_rel


def effective_flux_report(rho, u, f, params):
    """Effective viscous flux F = (2*mu+lam) div u - p and its residuals.

    Returns (F, S, flux_residual, mean_relation_residual) where
    flux_residual = max|F - mean(F) - S| and mean_relation_residual is the
    absolute defect of mean(lam*div u) = mean(p) - sum((p+S)*nu)/sum(nu).
    """
    vals = evaluate_laws(rho.data, params)
    divu = div_array(u.components, rho.grid.dx)
    _, F, S, _, flux_res, mean_rel = _flux_pieces(rho, u, f, vals, params, divu)
    return ScalarField(rho.grid, F), S, flux_res, mean_rel


@dataclass(frozen=True)
class CongestionReport:
    measure: float
    max_divu: float
    mp_residual: float
    excl_p: float
    excl_big_lam: float


def _congested_set(rho, divu, vals, params, theta):
    """Congested-set diagnostics from precomputed div u and law values."""
    vol = rho.grid.cell_volume
    mask = rho.data >= theta
    if mask.any():
        mp = float(np.abs(rho.data[mask] * vals.p[mask]
                          - (params.beta - 1.0) * vals.big_lam[mask]).max())
        mdv = float(np.abs(divu[mask]).max())
    else:
        mp = 0.0
        mdv = 0.0
    measure = float(np.count_nonzero(mask)) * vol
    gap = 1.0 - rho.data
    excl_p = float((gap * vals.p).sum()) * vol
    excl_bl = float((gap * vals.big_lam).sum()) * vol
    return CongestionReport(measure, mdv, mp, excl_p, excl_bl)


def congestion_report(rho, u, params, theta=CONGESTION_THETA):
    """Congested-set diagnostics above the density threshold theta.

    measure        : cells with rho >= theta, times cell volume
    max_divu       : max |div u| over that set (0 if empty)
    mp_residual    : max |rho*p - (beta-1)*big_lam| over that set (0 if empty);
                     an exact identity whenever beta = gamma + 1
    excl_p         : sum (1-rho) * p * cell volume (whole domain)
    excl_big_lam   : sum (1-rho) * big_lam * cell volume
    """
    divu = div_array(u.components, rho.grid.dx)
    return _congested_set(rho, divu, evaluate_laws(rho.data, params), params, theta)


def build_record(state, f, params, step=0, dt=0.0, momentum_iters=0, laws=None,
                 solve_dt=0.0, divu=None):
    """Assemble the full diagnostics record for the current state.

    ``laws`` optionally passes ``evaluate_laws(state.rho.data, params)``
    and ``divu`` the cell array ``div_array(state.u.components, dx)``
    when the caller already holds them; the record is the same either way.
    ``solve_dt`` is the dt at which the momentum solve linearised the
    pressure (0 for the exact semi-stationary solve): flux_residual and
    mean_relation_residual check the identity of that solve.
    Returns (record, S), S being the zero-mean flux part from ``compute_S``.
    """
    rho, u = state.rho, state.u
    grid = rho.grid
    vol = grid.cell_volume

    vals = laws if laws is not None else evaluate_laws(rho.data, params)
    if divu is None:
        divu = div_array(u.components, grid.dx)
    coef, F, S, poisson_rep, flux_res, mean_rel = _flux_pieces(
        rho, u, f, vals, params, divu, solve_dt
    )

    if grid.dim == 2:
        w = curl_array(u.components, grid.dx)
        sum_curl2 = float((w * w).sum()) * vol
    else:
        sum_curl2 = 0.0
    sum_divu2 = float((divu * divu).sum()) * vol
    drag2 = sum(float((c * c).sum()) for c in u.components) * vol
    dissipation = (
        float((coef * divu * divu).sum()) * vol
        + params.mu * sum_curl2
        + params.r * drag2
    )
    forcing = sum(
        float((fc * uc).sum()) for fc, uc in zip(f.components, u.components)
    ) * vol
    f_l2sq = sum(float((fc * fc).sum()) for fc in f.components) * vol

    cong = _congested_set(rho, divu, vals, params, CONGESTION_THETA)
    _, meas_1md = mean_and_measure(rho, 1.0 - params.delta)

    rec = DiagnosticsRecord(
        step=step,
        t=state.t,
        dt=dt,
        mass=float(rho.data.sum()) * vol,
        min_rho=float(rho.data.min()),
        max_rho=float(rho.data.max()),
        energy_H=float(vals.h.sum()) * vol,
        dissipation=dissipation,
        forcing_power=forcing,
        flux_residual=flux_res,
        mean_relation_residual=mean_rel,
        L1_p=float(np.abs(vals.p).sum()) * vol,
        L1_lambda=float(np.abs(vals.lam).sum()) * vol,
        L1_big_lam=float(np.abs(vals.big_lam).sum()) * vol,
        excl_p=cong.excl_p,
        excl_big_lam=cong.excl_big_lam,
        mp_residual=cong.mp_residual,
        meas_099=cong.measure,
        meas_1md=meas_1md,
        max_divu_congested=cong.max_divu,
        sum_divu2=sum_divu2,
        sum_curl2=sum_curl2,
        f_l2sq=f_l2sq,
        big_lam_pde_l1=float(np.abs(state.big_lam.data).sum()) * vol,
        big_lam_drift_l1=float(np.abs(state.big_lam.data - vals.big_lam).sum()) * vol,
        momentum_iters=momentum_iters,
        poisson_iters=poisson_rep.iterations,
    )
    return rec, S


# -- energy ledger ------------------------------------------------------------

@dataclass
class EnergyLedger:
    """Cumulative energy-balance bookkeeping along a trajectory.

    drift[n] = E(t_n) + sum_{m<n} dt_m * dissipation_m
               - E(t_0) - sum_{m<n} dt_m * forcing_m
    should vanish at first order in (dt + dx).  bound_lhs/bound_rhs evaluate
    the weaker a-priori inequality with reduced constants (3/2 mu on the
    divergence square, mu/2 on the curl square) against the right-hand side
    E_0 + (1+C)/(2 mu) * ||f||^2 accumulated in time, where C is the discrete
    Poincare constant of the grid.
    """

    t: np.ndarray
    energy: np.ndarray
    drift: np.ndarray
    step_drift: np.ndarray
    bound_lhs: np.ndarray
    bound_rhs: np.ndarray
    bound_holds: bool
    poincare_c: float

    @property
    def final_drift(self):
        return float(self.drift[-1])


def poincare_constant(grid):
    """Largest eigenvalue of (-Delta_h)^{-1} on the mean-zero subspace.

    This is the constant C in ||v - <v>||^2 <= C ||grad v||^2 on the grid.
    The smallest nonzero eigenvalue of -Delta_h is (4/dx^2) sin^2(pi/n) in 1D
    and, on the square torus, in 2D too (a mode along one axis), so
    C = 1 / ((4/dx^2) sin^2(pi/n)).
    """
    return 1.0 / ((4.0 / grid.dx**2) * float(np.sin(np.pi / grid.n)) ** 2)


def energy_report(records, params, grid):
    """Build the energy ledger from a recorded trajectory."""
    t = np.array([r.t for r in records])
    dt = np.array([r.dt for r in records])
    energy = np.array([r.energy_H for r in records])
    diss = np.array([r.dissipation for r in records])
    forc = np.array([r.forcing_power for r in records])
    f_l2 = np.array([r.f_l2sq for r in records])
    divu2 = np.array([r.sum_divu2 for r in records])
    curl2 = np.array([r.sum_curl2 for r in records])

    # sums over steps strictly before each record
    cum = lambda a: np.concatenate(([0.0], np.cumsum(a * dt)[:-1]))
    drift = energy + cum(diss) - energy[0] - cum(forc)

    step_drift = np.empty_like(drift)
    step_drift[:-1] = np.diff(energy) + dt[:-1] * (diss[:-1] - forc[:-1])
    step_drift[-1] = 0.0

    reduced_diss = diss - 0.5 * params.mu * (divu2 + curl2)
    C = poincare_constant(grid)
    bound_lhs = energy + cum(reduced_diss)
    bound_rhs = energy[0] + (1.0 + C) / (2.0 * params.mu) * cum(f_l2)
    ok = bool(np.all(bound_lhs <= bound_rhs + 1e-9 * (1.0 + np.abs(bound_rhs))))

    return EnergyLedger(
        t=t, energy=energy, drift=drift, step_drift=step_drift,
        bound_lhs=bound_lhs, bound_rhs=bound_rhs, bound_holds=ok,
        poincare_c=C,
    )
