"""Run configuration, scenarios, the time loop, sweeps, fits, classification.

Time loop (operator splitting per step):

  1. evaluate the laws at rho^n,
  2. pick dt = min(advective CFL cap cfl*dx/max(|u^{n-1}|, 1) of the
     previous velocity (u = 0 on the first step), snapshot_every, time
     remaining),
  3. solve the semi-stationary momentum system for u^n (directly in 1D,
     through the viscous flux in 2D) with the pressure linearised over dt
     (``solve_momentum(..., dt=dt)``), starting from the velocity
     extrapolated linearly in time, u^{n-1} + (tau_{n-1}/tau_{n-2}) *
     (u^{n-1} - u^{n-2}) with tau the steps actually taken (from u^{n-1}
     on the first two steps),
  4. lower dt to the CFL cap of u^n, without solving again, and advect
     rho with u^n once: with delta = 0 ``advect_density`` cuts dt so that
     no cell closes more than half its gap to packing, and raises
     CongestionOverflow when that cut would fall below its floor (dt *
     2**-20, and 1e-12), taking the floor as the step's dt,
  5. buffer the step, complete with the dt it took, for its diagnostics
     record in a ``RecordBlock``, which builds the records of K steps at
     once (S from one ``compute_S`` call) when it is full, before a
     snapshot is written, at t_end and before an exception leaves the loop;
     then write the step's snapshot, if one is due, and only then raise a
     congestion overflow, which ends the run,
  6. advect big_lam with u^n over the dt taken.

The pressure is linearly implicit (asymptotic preserving, after Degond, Hua
& Navoret, J. Comput. Phys. 230 (2011)).  Transport gives
rho^{n+1} = rho - dt*div(rho u); keeping its compression part
-dt*rho*div u, p(rho^{n+1}) ~ p - dt*rho*p'(rho)*div u.  Solving the momentum system with
p(rho^{n+1}) in place of p(rho^n) therefore only adds dt*rho*p' to the bulk
coefficient 2*mu + lam, and the same SPD solves take it unchanged.  An
explicit pressure would need dt <= (2*mu+lam)/(rho*p') for stability, a cap
that shrinks as eps -> 0; here that ratio is a coefficient instead.  Step 4
only lowers dt, so u^n is linearised at a dt at least as large as the one
taken, which adds damping and nothing else.  The final record (dt = 0)
holds the exact semi-stationary solve.

The law values of step 1 are the only evaluation in the step: the momentum
solve, the big_lam source -lam * div u and, through the block's copy of
them, the diagnostics record all reuse them.  Likewise div u^n is computed
once, after step 3, and feeds both the record and the big_lam source.  A
step enters the block once, complete, so no record changes once built; it
is built at the next flush, so a failure in it (a flux solve that stalls)
surfaces there.  The stalled solve names its row, the block builds the
records of the steps before it, and the run ends with those records, as at
a momentum stall, and no snapshot of a later step.

Fields are validated where the loop commits them: ``evaluate_laws`` checks
each new density and ``advect_big_lambda`` the new big_lam.  The velocity
and S are not checked again; the residual check of each solve fails on a
non-finite value.

Sweeps rerun one configuration while varying epsilon or delta; the table,
built by ``SweepTable.from_runs`` from each run's records, holds final-time and
max-over-time metrics per run and feeds log-log rate fits and the
limit-regime classifier.  Classification fits use final-time columns.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .diagnostics import CSV_COLUMNS, RecordBlock
# perfbench/tracing.py wraps this binding; keep it importable from here
from .diagnostics import build_record  # noqa: F401
from .errors import (
    CongestionOverflow,
    ConfigError,
    FitDegenerate,
    SolverDiverged,
    SweepDegenerate,
    Unclassifiable,
)
from .grid import (
    FaceVectorField,
    ScalarField,
    cell_coords,
    div_array,
    face_coords,
    make_grid,
    write_snapshot,
)
from .laws import LawParams, RegimeTag, evaluate_laws, limit_exponents, regime
# perfbench/tracing.py wraps this binding; keep it importable from here
from .laws import pressure_derivative  # noqa: F401
from .momentum import solve_momentum
from .transport import SimState, advect_big_lambda, advect_density, stable_dt

__all__ = [
    "RunConfig",
    "parse_config",
    "load_config",
    "build_scenario",
    "run_simulation",
    "SweepRow",
    "SweepTable",
    "sweep",
    "FitResult",
    "fit_rate",
    "resolve_metric",
    "ClassificationResult",
    "classify_limit",
    "write_diagnostics_csv",
    "write_report",
    "SWEEP_METRICS",
]

_TIME_EPS = 1e-12

SWEEP_METRICS = (
    "L1_p", "L1_big_lam", "excl_p", "excl_big_lam",
    "mp_residual", "meas_1md", "max_divu_congested",
)


# -- configuration ------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """One simulation's full parameter set (see README for the file format)."""

    dim: int
    n: int
    t_end: float
    epsilon: float
    gamma: float
    beta: float
    scenario: str
    length: float = 1.0
    cfl: float = 0.4
    delta: float = 0.0
    mu: float = 0.5
    r: float = 1.0
    snapshot_every: float = 0.0
    scenario_params: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in sorted(k for k, parse in _KEYS.items() if parse is float):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        for key, val in sorted(self.scenario_params.items()):
            if not math.isfinite(val):
                raise ConfigError(f"scenario.{key} must be finite, got {val}")
        if not (self.t_end > 0):
            raise ConfigError(f"t_end must be > 0, got {self.t_end}")
        if self.snapshot_every < 0:
            raise ConfigError(f"snapshot_every must be >= 0, got {self.snapshot_every}")
        if not (0.0 < self.cfl <= 1.0):
            raise ConfigError(f"cfl must lie in (0, 1], got {self.cfl}")

    def law_params(self):
        return LawParams(
            epsilon=self.epsilon, delta=self.delta, gamma=self.gamma,
            beta=self.beta, mu=self.mu, r=self.r,
        )

    def make_grid(self):
        return make_grid(self.dim, self.n, self.length)


# config-file key -> value parser, from the RunConfig annotations ("int",
# "float", "str" under postponed evaluation); scenario.<name> keys are
# parsed separately
_PARSERS = {"int": int, "float": float, "str": str}
_KEYS = {f.name: _PARSERS[f.type] for f in fields(RunConfig) if f.name != "scenario_params"}
_REQUIRED = [f.name for f in fields(RunConfig)
             if f.default is MISSING and f.default_factory is MISSING]


def parse_config(text):
    """Parse 'key = value' lines (# comments) into a RunConfig."""
    data = {}
    scen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not key or not val:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        try:
            if key.startswith("scenario."):
                scen[key[len("scenario."):]] = float(val)
            elif key in _KEYS:
                data[key] = _KEYS[key](val)
            else:
                raise ConfigError(f"line {lineno}: unknown config key '{key}'")
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for '{key}': {val!r}") from exc
    missing = [k for k in _REQUIRED if k not in data]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    return RunConfig(scenario_params=scen, **data)


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config(fh.read())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc


# -- scenarios ----------------------------------------------------------------

def _wrap_centered(x, center, length):
    """Signed periodic displacement from center, in [-length/2, length/2)."""
    return (x - center + 0.5 * length) % length - 0.5 * length


def _x_force(grid, fn):
    """Force fn(x) on the axis-0 faces, zero along the other axes."""
    comps = np.zeros((grid.dim,) + grid.shape)
    comps[0] = fn(face_coords(grid, 0)[0])
    return FaceVectorField(grid, comps)


def _scenario_equilibrium(grid, sp):
    return ScalarField.full(grid, sp["rho0"]), FaceVectorField.zeros(grid)


def _scenario_compression(grid, sp):
    k = 2.0 * np.pi / grid.length
    return (ScalarField.full(grid, sp["rho0"]),
            _x_force(grid, lambda x: sp["f0"] * np.sin(k * x)))


def _scenario_two_bump_merge(grid, sp):
    L = grid.length
    k = 2.0 * np.pi / L
    w = sp["width"] * L
    x = cell_coords(grid)[0]
    d1 = _wrap_centered(x, 0.3 * L, L)
    d2 = _wrap_centered(x, 0.7 * L, L)
    rho = sp["base"] + sp["amp"] * (np.exp(-((d1 / w) ** 2)) + np.exp(-((d2 / w) ** 2)))
    return ScalarField(grid, rho), _x_force(grid, lambda x: sp["f0"] * np.sin(k * x))


def _scenario_rotation_squeeze(grid, sp):
    if grid.dim != 2:
        raise ConfigError("rotation_squeeze requires dim = 2")
    f0, rot = sp["f0"], sp["rot"]
    k = 2.0 * np.pi / grid.length
    f = FaceVectorField.from_function(
        grid,
        lambda x, y: f0 * np.sin(k * x) - rot * np.sin(k * y),
        lambda x, y: f0 * np.sin(k * y) + rot * np.sin(k * x),
    )
    return ScalarField.full(grid, sp["rho0"]), f


def _scenario_spike(grid, sp):
    """Heavy-tailed forcing potential phi = amp*w^2/(d^2+w^2) centered at L/2.

    The equilibrium pressure inherits phi's Lorentzian tail, so congested
    level sets {rho >= 1-delta} scale like a power of delta over a wide
    range; used by the truncation sweep.
    """
    if grid.dim != 1:
        raise ConfigError("spike requires dim = 1")
    amp, w = sp["amp"], sp["width"]
    L = grid.length

    def force(x):
        s = _wrap_centered(x, 0.5 * L, L)
        return -2.0 * amp * w**2 * s / (s**2 + w**2) ** 2

    return ScalarField.full(grid, sp["rho0"]), _x_force(grid, force)


# scenario id -> (builder, parameter defaults); the defaults also name the
# parameters a config may set
_SCENARIOS = {
    "equilibrium": (_scenario_equilibrium, {"rho0": 0.3}),
    "compression": (_scenario_compression, {"rho0": 0.6, "f0": 5.0}),
    "two_bump_merge": (_scenario_two_bump_merge,
                       {"base": 0.3, "amp": 0.35, "width": 0.08, "f0": 5.0}),
    "rotation_squeeze": (_scenario_rotation_squeeze,
                         {"rho0": 0.5, "f0": 5.0, "rot": 2.0}),
    "spike": (_scenario_spike, {"rho0": 0.6, "amp": 1400.0, "width": 0.012}),
}


def build_scenario(config, grid):
    """Initial density and static force for the configured scenario."""
    if config.scenario not in _SCENARIOS:
        raise ConfigError(
            f"unknown scenario '{config.scenario}' "
            f"(available: {', '.join(sorted(_SCENARIOS))})"
        )
    builder, defaults = _SCENARIOS[config.scenario]
    unknown = set(config.scenario_params) - set(defaults)
    if unknown:
        raise ConfigError(
            f"unknown scenario parameters for '{config.scenario}': "
            f"{', '.join(sorted(unknown))}"
        )
    rho0, f = builder(grid, {**defaults, **config.scenario_params})
    if float(np.min(rho0.data)) < 0.0:
        raise ConfigError("initial density has negative cells")
    if float(np.max(rho0.data)) >= 1.0:
        raise ConfigError("initial density must stay strictly below the packing value 1")
    return rho0, f


# -- time loop ----------------------------------------------------------------

def _write_state_snapshots(outdir, state, grid):
    os.makedirs(outdir, exist_ok=True)
    tag = f"step{state.step_count:06d}"
    write_snapshot(os.path.join(outdir, f"{tag}_rho.txt"), "rho", grid,
                   state.rho.data, state.t)
    write_snapshot(os.path.join(outdir, f"{tag}_big_lam.txt"), "big_lam", grid,
                   state.big_lam.data, state.t)
    for a, comp in enumerate(state.u.components):
        write_snapshot(os.path.join(outdir, f"{tag}_u{a}.txt"), f"u{a}", grid,
                       comp, state.t)


def run_simulation(config, outdir=None):
    """Integrate one configuration to t_end.

    Returns (final SimState, list of DiagnosticsRecords).  Records are
    emitted once per step plus one final record (dt = 0) at t_end.  On
    solver stall or congestion overflow the exception is re-raised with the
    partial record list attached as ``exc.records``: the records of every
    step before the failing one (and, for a congestion overflow, that step's
    record too, with the floor step ``exc.dt`` as its dt).

    If ``outdir`` is given, the run creates it once the configuration and
    its scenario are valid, and writes ``outdir/diagnostics.csv``
    (``write_diagnostics_csv``) when it ends with at least one record: every
    record on success, the partial list when any exception ends it.  With
    config.snapshot_every > 0, field snapshots are written under
    ``outdir/snapshots`` as the run goes.
    """
    grid = config.make_grid()
    params = config.law_params()
    rho0, f = build_scenario(config, grid)
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)

    vals = evaluate_laws(rho0.data, params)
    state = SimState(
        t=0.0, rho=rho0, u=FaceVectorField.zeros(grid),
        big_lam=ScalarField(grid, np.array(vals.big_lam, copy=True)),
        step_count=0,
    )

    snap_dir = None
    next_snap = 0.0
    if outdir is not None and config.snapshot_every > 0.0:
        snap_dir = os.path.join(outdir, "snapshots")

    block = RecordBlock(grid, f, params)
    cap = stable_dt(state.u, grid, config.cfl)
    snap_cap = config.snapshot_every if config.snapshot_every > 0.0 else math.inf
    # u^{n-2} and the steps taken, tau_{n-2} and tau_{n-1}, for the start
    u_prev = None
    tau_prev = tau = 0.0
    try:
        while True:
            done = state.t >= config.t_end - _TIME_EPS
            dt = 0.0 if done else min(cap, snap_cap, config.t_end - state.t)
            u0 = state.u
            if state.step_count >= 2:
                u0 = FaceVectorField._trusted(
                    grid, u0.components + (tau / tau_prev) * (u0.components - u_prev))
            u, mrep = solve_momentum(state.rho, f, params, u0=u0, laws=vals, dt=dt)
            u_prev = state.u.components
            state.u = u
            divu = div_array(u.components, grid.dx)
            taken, overflow = 0.0, None
            if not done:
                cap = stable_dt(u, grid, config.cfl)
                try:
                    new_rho, taken = advect_density(state.rho, u, min(dt, cap), params)
                except CongestionOverflow as exc:
                    taken, overflow = exc.dt, exc
            block.add(state, vals, divu, dt=taken, momentum_iters=mrep.iterations,
                      solve_dt=dt)

            if snap_dir is not None and state.t >= next_snap - _TIME_EPS:
                block.flush()   # no snapshot after a failed record
                _write_state_snapshots(snap_dir, state, grid)
                next_snap += config.snapshot_every
            if overflow is not None:
                raise overflow
            if done:
                break

            tau_prev, tau = tau, taken
            if block.full:
                block.flush()

            new_big = advect_big_lambda(state.big_lam, u, divu, vals.lam, taken)
            state = SimState(
                t=state.t + taken, rho=new_rho, u=u, big_lam=new_big,
                step_count=state.step_count + 1,
            )
            vals = evaluate_laws(state.rho.data, params)
        block.flush()
    except Exception as exc:
        # an earlier step's failed record, raised by this flush, comes first
        block.flush()
        if isinstance(exc, (SolverDiverged, CongestionOverflow)):
            exc.records = block.records
        raise
    finally:
        if outdir is not None and block.records:
            write_diagnostics_csv(os.path.join(outdir, "diagnostics.csv"), block.records)

    return state, block.records


# -- CSV / report output -------------------------------------------------------

def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def write_diagnostics_csv(path, records):
    """The records as CSV, byte for byte what ``csv.writer`` writes with
    ``_fmt`` values: ``"%.17g"`` formats an int as ``_fmt`` does."""
    row = ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        fh.writelines(row % tuple(rec.csv_values()) for rec in records)


# -- sweeps ---------------------------------------------------------------------

@dataclass
class SweepRow:
    value: float
    status: str
    metrics: dict

    @property
    def ok(self):
        return self.status == "ok"


@dataclass
class SweepTable:
    """Aggregated per-run metrics for one parameter sweep.

    params holds the swept configuration's keys, scenario_params its
    scenario parameters.  ``save`` writes them as ``# key=value`` header
    lines and, after those, ``## scenario.<name>=<value>`` lines; ``load``
    reads both back.
    """

    axis: str
    rows: list
    params: dict
    scenario_params: dict = field(default_factory=dict)

    def ok_rows(self):
        return [r for r in self.rows if r.ok]

    def column(self, metric):
        """(axis values, metric values) over successful rows, which must all
        hold the value (a "nan" cell holds none): ConfigError otherwise."""
        col = resolve_metric(metric)
        rows = self.ok_rows()
        lacking = [r.value for r in rows if col not in r.metrics]
        if lacking:
            raise ConfigError(f"sweep table has no '{col}' value at {self.axis} = {lacking}")
        return (np.array([r.value for r in rows]),
                np.array([r.metrics[col] for r in rows]))

    def save(self, path):
        cols = []
        for name in SWEEP_METRICS:
            cols.extend([f"final_{name}", f"max_{name}"])
        with open(path, "w", newline="") as fh:
            fh.write(f"# axis={self.axis}\n")
            for key in sorted(self.params):
                val = self.params[key]
                fh.write(f"# {key}={val if isinstance(val, str) else _fmt(val)}\n")
            for key in sorted(self.scenario_params):
                fh.write(f"## scenario.{key}={_fmt(self.scenario_params[key])}\n")
            w = csv.writer(fh)
            w.writerow(["value", "status"] + cols)
            for row in self.rows:
                out = [_fmt(row.value), row.status]
                for c in cols:
                    out.append(_fmt(row.metrics[c]) if c in row.metrics else "nan")
                w.writerow(out)

    @classmethod
    def load(cls, path):
        """Read a table that ``save`` wrote; a malformed one raises ConfigError."""
        meta, scenario_params, body = {}, {}, []
        try:
            with open(path) as fh:
                lines = fh.readlines()
            for line in lines:
                if line.startswith("## scenario."):
                    key, _, val = line[len("## scenario."):].strip().partition("=")
                    scenario_params[key.strip()] = float(val)
                elif line.startswith("#"):
                    key, _, val = (part.strip() for part in line[1:].partition("="))
                    meta[key] = _KEYS.get(key, str)(val)   # as in a config file
                else:
                    body.append(line)
            rows = [SweepRow(float(rec.pop("value")), rec.pop("status"),   # nan: no value
                             {k: x for k, v in rec.items() if not math.isnan(x := float(v))})
                    for rec in csv.DictReader(body)]
        except KeyError as exc:
            raise ConfigError(f"sweep table {path} has no {exc} column") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"sweep table {path}: {exc}") from exc
        if "axis" not in meta:
            raise ConfigError(f"sweep table {path} is missing its '# axis=' header")
        axis = meta.pop("axis")
        return cls(axis=axis, rows=rows, params=meta, scenario_params=scenario_params)

    @classmethod
    def from_runs(cls, config, axis, runs):
        """The table of ``config`` swept along ``axis`` from its runs: (value,
        records, or the SolverDiverged or CongestionOverflow that ended the
        run) pairs.  Records give an "ok" row of their final and max-over-time
        metrics, a failure a "failed:<Error>" row with none."""
        rows = []
        for value, result in runs:
            if isinstance(result, (SolverDiverged, CongestionOverflow)):
                rows.append(SweepRow(value, f"failed:{type(result).__name__}", {}))
                continue
            metrics = {}
            for name in SWEEP_METRICS:
                metrics[f"final_{name}"] = getattr(result[-1], name)
                metrics[f"max_{name}"] = max(getattr(r, name) for r in result)
            rows.append(SweepRow(value, "ok", metrics))
        params = {key: getattr(config, key) for key in _KEYS if key != "snapshot_every"}
        return cls(axis=axis, rows=rows, params=params,
                   scenario_params=dict(config.scenario_params))


def sweep(config, axis, values, outdir=None):
    """Rerun ``config`` for each axis value; aggregate metrics per run.

    axis is "epsilon" or "delta"; values must be strictly decreasing.
    Failed runs (solver stall, congestion abort) become status
    "failed:<Error>" rows and are excluded from fits.  Raises SweepDegenerate
    (with the table attached) if fewer than 3 runs succeed.  With ``outdir``,
    run i writes its run directory ``outdir/run_<i>_<axis>_<value>`` and the
    table is saved as ``outdir/sweep.csv``.
    """
    if axis not in ("epsilon", "delta"):
        raise ConfigError(f"sweep axis must be 'epsilon' or 'delta', got '{axis}'")
    values = [float(v) for v in values]
    if len(values) < 2 or not all(b < a for a, b in zip(values, values[1:])):
        raise ConfigError("sweep values must be strictly decreasing")
    configs = [replace(config, **{axis: v}) for v in values]
    for cfg in configs:   # every row is valid before the first one runs
        cfg.law_params()
        cfg.make_grid()

    def runs():   # one run's records at a time, aggregated as they come
        for i, v in enumerate(values):
            rundir = None if outdir is None else os.path.join(outdir, f"run_{i:02d}_{axis}_{v:.6g}")
            try:
                _, result = run_simulation(configs[i], outdir=rundir)
            except (SolverDiverged, CongestionOverflow) as exc:
                result = exc
            yield v, result

    table = SweepTable.from_runs(config, axis, runs())
    if outdir is not None:
        table.save(os.path.join(outdir, "sweep.csv"))
    if len(table.ok_rows()) < 3:
        err = SweepDegenerate(
            f"only {len(table.ok_rows())} of {len(values)} sweep runs succeeded"
        )
        err.table = table
        raise err
    return table


# -- rate fitting and classification --------------------------------------------

def resolve_metric(metric):
    """Map a bare metric name to its final-time sweep column.

    Bare names resolve to their final_ column; an explicit final_/max_
    prefix selects the aggregate (note max_divu_congested is itself a bare
    metric name, so its columns are final_max_divu_congested and
    max_max_divu_congested).
    """
    if metric in SWEEP_METRICS:
        return f"final_{metric}"
    for prefix in ("final_", "max_"):
        if metric.startswith(prefix) and metric[len(prefix):] in SWEEP_METRICS:
            return metric
    raise ConfigError(f"unknown sweep metric '{metric}'")


@dataclass(frozen=True)
class FitResult:
    """Least-squares power-law fit metric ~ C * axis**slope (log-log OLS)."""

    slope: float
    log_intercept: float
    r_squared: float
    n_points: int


def fit_rate(table, metric, drop_nonpositive=False):
    """Fit the named metric against the sweep axis on log-log scales.

    Raises FitDegenerate when fewer than 3 usable points remain, when a
    value is not finite or nonpositive (a delta sweep may end at the exact
    laws, delta = 0), or when the axis takes a single value; pass
    drop_nonpositive=True to fit on the rows where both are positive
    instead, if at least 3 survive.
    """
    xs, ys = table.column(metric)
    if drop_nonpositive:
        keep = (xs > 0.0) & (ys > 0.0)
        xs, ys = xs[keep], ys[keep]
    if len(xs) < 3:
        raise FitDegenerate(
            f"need at least 3 positive points to fit '{metric}', have {len(xs)}"
        )
    for name, vals in ((f"axis '{table.axis}'", xs), (f"metric '{metric}'", ys)):
        if not np.all(np.isfinite(vals)):
            raise FitDegenerate(f"{name} has non-finite values; cannot fit a power law")
        if np.any(vals <= 0.0):
            raise FitDegenerate(
                f"{name} has nonpositive values; cannot fit a power law "
                "(retry with drop_nonpositive=True)"
            )
    if np.all(xs == xs[0]):
        raise FitDegenerate(f"axis '{table.axis}' takes a single value; cannot fit a slope")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    # a flat metric is fitted exactly; its ss_tot is round-off, not zero
    r2 = 1.0 if np.all(ly == ly[0]) else 1.0 - ss_res / ss_tot
    return FitResult(float(slope), float(intercept), r2, len(xs))


_SLOPE_TOL = 0.1


@dataclass(frozen=True)
class ClassificationResult:
    observed: RegimeTag
    expected: RegimeTag
    agrees: bool
    evidence: dict

    def summary(self):
        ev = ", ".join(
            f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in self.evidence.items()
        )
        return (
            f"observed={self.observed.value} expected={self.expected.value} "
            f"agrees={self.agrees} [{ev}]"
        )


def classify_limit(table, params):
    """Classify the stiff-limit regime from an epsilon-sweep table.

    Fits the slopes of L1_p, L1_big_lam, excl_p and excl_big_lam against
    epsilon (final-time columns, positive rows) and reads the regime whose
    column of laws.limit_exponents(params) lies closest to them, by the
    largest absolute deviation; a tie goes to laws.regime(params).  The
    verdict is Unclassifiable when the closest column lies more than 0.1
    away or a slope cannot be fitted.
    """
    if table.axis != "epsilon":
        raise ConfigError(f"classification requires an epsilon sweep, got axis '{table.axis}'")
    ok = table.ok_rows()
    if len(ok) < 3:
        raise SweepDegenerate(f"need at least 3 successful rows to classify, have {len(ok)}")

    columns = limit_exponents(params)
    expected = regime(params)
    slopes = {}
    for metric in columns[expected]:
        try:
            slopes[metric] = fit_rate(table, metric, drop_nonpositive=True).slope
        except FitDegenerate:
            slopes[metric] = math.nan   # np.max below keeps it: within no tolerance
    deviation = {tag: float(np.max([abs(slopes[m] - e) for m, e in columns[tag].items()]))
                 for tag in RegimeTag}
    observed = min(RegimeTag, key=lambda tag: (deviation[tag], tag is not expected))

    evidence = {
        **{f"slope_{m}": s for m, s in slopes.items()},
        "mp_residual_max": float(np.max(table.column("max_mp_residual")[1])),
        **{f"predicted_{m}": e for m, e in columns[expected].items()},
        "deviation": deviation[observed],
        "slope_tol": _SLOPE_TOL,
    }
    if not deviation[observed] <= _SLOPE_TOL:
        raise Unclassifiable(
            f"no regime's exponents lie within {_SLOPE_TOL} of the slopes; evidence: "
            + ", ".join(f"{k}={v}" for k, v in evidence.items()),
            evidence=evidence,
        )
    return ClassificationResult(observed, expected, observed is expected, evidence)


def write_report(path, table, classification=None, error=None):
    """Human-readable sweep summary: slopes per metric plus the verdict."""
    lines = [f"axis: {table.axis}"]
    lines.append(
        "parameters: " + ", ".join(f"{k}={v}" for k, v in sorted(table.params.items()))
    )
    ok = table.ok_rows()
    lines.append(f"runs: {len(table.rows)} total, {len(ok)} succeeded")
    for row in table.rows:
        lines.append(f"  {table.axis}={row.value:.6g}: {row.status}")
    for name in SWEEP_METRICS:
        try:
            fit = fit_rate(table, name, drop_nonpositive=True)
            lines.append(
                f"slope[{name}] = {fit.slope:.4f} "
                f"(r^2 = {fit.r_squared:.4f}, {fit.n_points} points)"
            )
        except (FitDegenerate, ConfigError) as exc:
            lines.append(f"slope[{name}] = unavailable ({exc})")
    if classification is not None:
        lines.append("classification: " + classification.summary())
    if error is not None:
        lines.append(f"classification failed: {error}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
