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

The time loop builds its records K steps at a time.  A ``RecordBlock``
buffers the arrays each step already holds and, when flushed, computes each
column for all its steps with one numpy call, reducing along the grid axes,
and S with one ``compute_S`` call.  numpy's row-wise sums, means, maxima and
cumulative sums equal the 1D ones bit for bit, so a record does not depend
on K.  ``build_record`` is a one-step block; ``effective_flux_report`` and
``congestion_report`` are one-row calls of the block's two helpers, one for
the flux quantities (``_flux_rows``) and one for the congested set above a
threshold (``_congested_rows``: its measure, max |div u| and the
rho*p = (beta-1)*big_lam residual on it, and the exclusion sums).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverDiverged
from .grid import ScalarField, curl_array, div_array
from .laws import LawValues, evaluate_laws
from .momentum import compute_S, linearised_bulk
# perfbench/tracing.py wraps this binding; keep it importable from here
from .momentum import solve_poisson_zero_mean  # noqa: F401

__all__ = [
    "CSV_COLUMNS",
    "DiagnosticsRecord",
    "RecordBlock",
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


# The time loop's records are built K steps at a time, K = max(1,
# _BLOCK_CELLS // cells): a ``RecordBlock`` then buffers at most
# _BLOCK_CELLS floats (32 kB) per field, about 0.3 MB in all.
_BLOCK_CELLS = 4096

# the law values a record uses: all but nu
_RECORD_LAWS = ("p", "lam", "big_lam", "h", "dp")


def _law_rows(arrays):
    """The LawValues of a block from its ``_RECORD_LAWS`` arrays; nu is None."""
    return LawValues(nu=None, **dict(zip(_RECORD_LAWS, arrays)))


def _one_row(vals):
    """``vals`` as a block of one row: each field gains a leading axis."""
    return _law_rows(getattr(vals, name)[np.newaxis] for name in _RECORD_LAWS)


def _flux_rows(rho, u, f, vals, params, divu, solve_dt):
    """(F, S, S's report, flux_residual, mean_relation_residual) of each row.

    rho, divu and the ``vals`` fields are ``(K,) + grid.shape`` blocks, u a
    ``(K, dim) + grid.shape`` block and solve_dt a scalar or an array that
    broadcasts against them.  F and the residuals use the solve's bulk
    coefficient, 2*mu + linearised_bulk(vals, rho, solve_dt).
    """
    axes = tuple(range(1, rho.ndim))
    bulk = linearised_bulk(vals, rho, solve_dt)
    total = 2.0 * params.mu + bulk
    F = total * divu - vals.p
    S, report = compute_S(u, f, params)
    flux_residual = np.abs(F - F.mean(axis=axes, keepdims=True) - S).max(axis=axes)
    mean_rel = np.abs(
        (bulk * divu).mean(axis=axes) - vals.p.mean(axis=axes)
        + ((vals.p + S) / total).sum(axis=axes) / (1.0 / total).sum(axis=axes)
    )
    return F, S, report, flux_residual, mean_rel


def effective_flux_report(rho, u, f, params):
    """Effective viscous flux F = (2*mu+lam) div u - p and its residuals.

    Returns (F, S, flux_residual, mean_relation_residual) where
    flux_residual = max|F - mean(F) - S| and mean_relation_residual is the
    absolute defect of mean(lam*div u) = mean(p) - sum((p+S)*nu)/sum(nu).
    """
    grid = rho.grid
    divu = div_array(u.components, grid.dx)
    F, S, _, flux_res, mean_rel = _flux_rows(
        rho.data[np.newaxis], u.components[np.newaxis], f,
        _one_row(evaluate_laws(rho.data, params)), params, divu[np.newaxis], 0.0,
    )
    return (ScalarField(grid, F[0]), ScalarField._trusted(grid, S[0]),
            float(flux_res[0]), float(mean_rel[0]))


@dataclass(frozen=True)
class CongestionReport:
    measure: float
    max_divu: float
    mp_residual: float
    excl_p: float
    excl_big_lam: float


def _congested_rows(rho, divu, vals, params, theta, vol):
    """The ``CongestionReport`` fields of each row, as arrays, in field order."""
    axes = tuple(range(1, rho.ndim))
    mask = rho >= theta
    if mask.any():
        # the masked values are >= 0, so 0 stands for an empty set
        mp = np.where(mask, np.abs(rho * vals.p - (params.beta - 1.0) * vals.big_lam),
                      0.0).max(axis=axes)
        mdv = np.where(mask, np.abs(divu), 0.0).max(axis=axes)
    else:
        mp = mdv = np.zeros(len(rho))
    measure = mask.sum(axis=axes) * vol
    gap = 1.0 - rho
    excl_p = (gap * vals.p).sum(axis=axes) * vol
    excl_bl = (gap * vals.big_lam).sum(axis=axes) * vol
    return measure, mdv, mp, excl_p, excl_bl


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
    rows = _congested_rows(rho.data[np.newaxis], divu[np.newaxis],
                           _one_row(evaluate_laws(rho.data, params)), params, theta,
                           rho.grid.cell_volume)
    return CongestionReport(*(float(col[0]) for col in rows))


class RecordBlock:
    """The diagnostics inputs of up to K time steps, made into records at once.

    ``add`` copies one step's arrays (rho, u, the transported big_lam, div u
    and the law values) into preallocated ``(K,) + grid.shape`` buffers,
    K = max(1, _BLOCK_CELLS // cells) unless ``capacity`` is given.  With
    K = 1 it keeps views of them instead: the time loop never writes into
    the arrays of a state it has built.
    """

    def __init__(self, grid, f, params, capacity=None):
        self.grid, self.f, self.params = grid, f, params
        self.capacity = capacity or max(1, _BLOCK_CELLS // grid.n**grid.dim)
        self.size = 0
        self._arrays = None   # with K = 1, ``add`` sets views
        if self.capacity > 1:
            # rho, big_lam, divu, the law values, then u, in one allocation
            count = 3 + len(_RECORD_LAWS)
            store = np.empty((count + grid.dim, self.capacity) + grid.shape)
            self._arrays = [*store[:count], np.moveaxis(store[count:], 0, 1)]
        # step, t, dt, momentum_iters, solve_dt of each buffered step
        self._scalars = ([], [], [], [], [])
        self._f_l2sq = sum(float((fc * fc).sum()) for fc in f.components) * grid.cell_volume

    @property
    def full(self):
        return self.size == self.capacity

    def add(self, state, vals, divu, step, momentum_iters, solve_dt, dt=0.0):
        """Buffer one step: its state, ``vals = evaluate_laws(state.rho.data,
        params)`` and ``divu = div_array(state.u.components, dx)``."""
        arrays = (state.rho.data, state.big_lam.data, divu,
                  *(getattr(vals, name) for name in _RECORD_LAWS), state.u.components)
        if self.capacity == 1:
            self._arrays = [a[np.newaxis] for a in arrays]
        else:
            for buf, a in zip(self._arrays, arrays):
                buf[self.size] = a
        for col, value in zip(self._scalars, (step, state.t, dt, momentum_iters, solve_dt)):
            col.append(value)
        self.size += 1

    def set_dt(self, dt, records):
        """Set the dt of the latest step, which may already be in ``records``."""
        if self.size:
            self._scalars[2][-1] = dt
        else:
            records[-1].dt = dt

    def flush(self, records):
        """Append the records of the buffered steps to ``records``; empty the block.

        If a step's diagnostics raise, the block is redone one step at a
        time: the records of the steps before the failing one are appended
        and its exception is raised, a SolverDiverged carrying ``records``.
        """
        if not self.size:
            return
        size, self.size = self.size, 0
        try:
            records += self._records(0, size)[0]
        except Exception:
            for k in range(size):
                try:
                    records += self._records(k, k + 1)[0]
                except SolverDiverged as exc:
                    exc.records = records
                    raise
            raise   # every step alone succeeded: report the block's failure
        finally:
            for col in self._scalars:
                col.clear()
            if self.capacity == 1:
                self._arrays = None   # let the step's arrays go

    def _records(self, start, stop):
        """(records, S) of the buffered steps start..stop-1."""
        grid, f, params = self.grid, self.f, self.params
        vol = grid.cell_volume
        axes = tuple(range(1, grid.dim + 1))
        rho, big_lam, divu, *law_arrays, u = (a[start:stop] for a in self._arrays)
        vals = _law_rows(law_arrays)
        step, t, dt, momentum_iters, solve_dt = (col[start:stop] for col in self._scalars)
        rows = stop - start

        S, poisson_rep, flux_res, mean_rel = _flux_rows(
            rho, u, f, vals, params, divu,
            np.reshape(solve_dt, (rows,) + (1,) * grid.dim),
        )[1:]
        meas_099, max_divu, mp, excl_p, excl_bl = _congested_rows(
            rho, divu, vals, params, CONGESTION_THETA, vol)

        if grid.dim == 2:
            w = curl_array((u[:, 0], u[:, 1]), grid.dx)
            sum_curl2 = (w * w).sum(axis=axes) * vol
        else:
            sum_curl2 = np.zeros(rows)
        sum_divu2 = (divu * divu).sum(axis=axes) * vol
        # per component, then over the components in order
        comp_axes = tuple(a + 1 for a in axes)
        drag2 = (u * u).sum(axis=comp_axes).sum(axis=1) * vol
        dissipation = (
            ((2.0 * params.mu + vals.lam) * divu * divu).sum(axis=axes) * vol
            + params.mu * sum_curl2
            + params.r * drag2
        )
        forcing = (f.components * u).sum(axis=comp_axes).sum(axis=1) * vol

        columns = (   # in DiagnosticsRecord field order
            step, t, dt,
            rho.sum(axis=axes) * vol, rho.min(axis=axes), rho.max(axis=axes),
            vals.h.sum(axis=axes) * vol,
            dissipation, forcing, flux_res, mean_rel,
            np.abs(vals.p).sum(axis=axes) * vol,
            np.abs(vals.lam).sum(axis=axes) * vol,
            np.abs(vals.big_lam).sum(axis=axes) * vol,
            excl_p, excl_bl, mp, meas_099,
            (rho >= 1.0 - params.delta).sum(axis=axes) * vol,
            max_divu,
            sum_divu2, sum_curl2, [self._f_l2sq] * rows,
            np.abs(big_lam).sum(axis=axes) * vol,
            np.abs(big_lam - vals.big_lam).sum(axis=axes) * vol,
            momentum_iters, poisson_rep.rows,
        )
        columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        return [DiagnosticsRecord(*values) for values in zip(*columns)], S


def build_record(state, f, params, step=0, dt=0.0, momentum_iters=0, laws=None,
                 solve_dt=0.0, divu=None):
    """Assemble the full diagnostics record for the current state.

    ``laws`` optionally passes ``evaluate_laws(state.rho.data, params)``
    and ``divu`` the cell array ``div_array(state.u.components, dx)``
    when the caller already holds them; the record is the same either way.
    ``solve_dt`` is the dt at which the momentum solve linearised the
    pressure (0 for the exact semi-stationary solve): flux_residual and
    mean_relation_residual check the identity of that solve.  This is a
    one-step ``RecordBlock``.
    Returns (record, S), S being the zero-mean flux part from ``compute_S``.
    """
    grid = state.rho.grid
    vals = laws if laws is not None else evaluate_laws(state.rho.data, params)
    if divu is None:
        divu = div_array(state.u.components, grid.dx)
    block = RecordBlock(grid, f, params, capacity=1)
    block.add(state, vals, divu, step=step, momentum_iters=momentum_iters,
              solve_dt=solve_dt, dt=dt)
    (rec,), S = block._records(0, 1)
    return rec, ScalarField._trusted(grid, S[0])


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
