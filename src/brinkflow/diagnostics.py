"""Per-step diagnostics, effective-flux residuals, and the energy ledger.

A ``DiagnosticsRecord`` holds the per-step columns of diagnostics.csv, its
fields without a default in CSV order (``CSV_COLUMNS``), and in-memory extras
with defaults, consumed by ``energy_report`` and by tests.

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
takes each step once, complete with the dt it took, copies its arrays into
its own store and, when flushed, computes each column for all its steps
with one numpy call, reducing along the grid axes, and S with one
``compute_S`` call.  numpy's row-wise sums, means,
maxima and cumulative sums equal the 1D ones bit for bit, so a record does
not depend on K.  ``build_record`` is a one-step block, and the one way to
read a single state's diagnostics.  The block has two helpers, one for the
flux quantities (``_flux_rows``) and one for the congested set
{rho >= CONGESTION_THETA} (``_congested_rows``: its measure, max |div u|
and the rho*p = (beta-1)*big_lam residual on it, and the exclusion sums).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

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
    "build_record",
    "EnergyLedger",
    "energy_report",
    "poincare_constant",
]

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


CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord) if f.default is MISSING)

# Records are built K = max(1, _BLOCK_CELLS // cells) steps at a time (4 at
# 64^2), which spreads a flush's fixed cost: a ``RecordBlock`` buffers
# _BLOCK_CELLS floats (128 kB) per field, 8 + dim fields, about 1.3 MB.
_BLOCK_CELLS = 16384

_LAW_FIELDS = tuple(field.name for field in fields(LawValues))


def _flux_rows(rho, u, f, vals, params, divu, solve_dt):
    """(S, S's report, flux_residual, mean_relation_residual) of each row.

    rho, divu and the ``vals`` fields are ``(K,) + grid.shape`` blocks, u a
    ``(K, dim) + grid.shape`` block and solve_dt a scalar or an array that
    broadcasts against them.  The residuals take F with the solve's bulk
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
    return S, report, flux_residual, mean_rel


def _congested_rows(rho, divu, vals, params, vol):
    """(meas_099, max_divu_congested, mp_residual, excl_p, excl_big_lam) of
    each row, as arrays; the congested set is {rho >= CONGESTION_THETA}."""
    axes = tuple(range(1, rho.ndim))
    mask = rho >= CONGESTION_THETA
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


class RecordBlock:
    """The diagnostics inputs of up to K time steps, made into records at once.

    ``add`` takes one step whole, its dt included, and copies its arrays
    (rho, u, the transported big_lam, div u and every field of its
    LawValues) into preallocated ``(K,) + grid.shape`` buffers, K = max(1,
    _BLOCK_CELLS // cells): nothing changes a step after ``add``, a later
    write into its arrays included, nor its record once in ``records``.
    """

    def __init__(self, grid, f, params):
        self.grid, self.f, self.params = grid, f, params
        self.capacity = max(1, _BLOCK_CELLS // grid.n**grid.dim)
        # rho, big_lam, divu, the law values, then u, in one allocation
        count = 3 + len(_LAW_FIELDS)
        store = np.empty((count + grid.dim, self.capacity) + grid.shape)
        self._arrays = [*store[:count], np.moveaxis(store[count:], 0, 1)]
        # (step, t, dt, momentum_iters, solve_dt) of each buffered step
        self._steps = []
        self.records = []
        self._f_l2sq = sum(float((fc * fc).sum()) for fc in f.components) * grid.cell_volume

    @property
    def full(self):
        return len(self._steps) == self.capacity

    def add(self, state, vals, divu, dt, momentum_iters, solve_dt):
        """Buffer one step, complete: its state, ``vals =
        evaluate_laws(state.rho.data, params)``, ``divu =
        div_array(state.u.components, dx)`` and the dt it took."""
        arrays = (state.rho.data, state.big_lam.data, divu,
                  *(getattr(vals, name) for name in _LAW_FIELDS), state.u.components)
        for buf, a in zip(self._arrays, arrays):
            buf[len(self._steps)] = a
        self._steps.append((state.step_count, state.t, dt, momentum_iters, solve_dt))

    def flush(self):
        """Append the records of the buffered steps to ``records``; empty the block.

        When a row of the ``compute_S`` solve misses the tolerance, the
        records of the rows before it are appended and its SolverDiverged is
        raised carrying ``records``.  No other exception reaches here: a
        compatibility failure needs a mean of div(f - r*u) above 1e-10 of its
        maximum, and a periodic divergence telescopes to a zero mean.
        """
        if not self._steps:
            return
        try:
            self.records += self._records(0, len(self._steps))[0]
        except SolverDiverged as exc:
            if exc.row:
                self.records += self._records(0, exc.row)[0]
            exc.records = self.records
            raise
        finally:
            self._steps.clear()

    def _records(self, start, stop):
        """(records, S) of the buffered steps start..stop-1."""
        grid, f, params = self.grid, self.f, self.params
        vol = grid.cell_volume
        axes = tuple(range(1, grid.dim + 1))
        rho, big_lam, divu, *law_arrays, u = (a[start:stop] for a in self._arrays)
        vals = LawValues(*law_arrays)
        step, t, dt, momentum_iters, solve_dt = zip(*self._steps[start:stop])
        rows = stop - start

        S, poisson_rep, flux_res, mean_rel = _flux_rows(
            rho, u, f, vals, params, divu,
            np.reshape(solve_dt, (rows,) + (1,) * grid.dim),
        )
        meas_099, max_divu, mp, excl_p, excl_bl = _congested_rows(
            rho, divu, vals, params, vol)

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


def build_record(state, f, params, dt=0.0, momentum_iters=0, solve_dt=0.0):
    """Assemble the full diagnostics record for the current state, numbered
    ``state.step_count``.

    ``solve_dt`` is the dt at which the momentum solve linearised the
    pressure (0 for the exact semi-stationary solve): flux_residual and
    mean_relation_residual check the identity of that solve.  This is the
    first row of a ``RecordBlock``.
    Returns (record, S), S being the zero-mean flux part from ``compute_S``.
    """
    grid = state.rho.grid
    block = RecordBlock(grid, f, params)
    block.add(state, evaluate_laws(state.rho.data, params),
              div_array(state.u.components, grid.dx), dt=dt,
              momentum_iters=momentum_iters, solve_dt=solve_dt)
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
