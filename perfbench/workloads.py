"""The benchmark's workloads: configurations, bodies and correctness checks.

Each body drives brinkflow through its public API (``run_simulation``,
``energy_report``) or through ``brinkflow.cli.main`` in-process, then checks
the outputs.  A body returns an ``Outcome``; failed checks are collected in
``Outcome.problems`` instead of raising, so the metrics are still reported.

The tracer in ``tracing.py`` patches the names this module imports
(``run_simulation``, ``energy_report``, ``cli_main``) the same way it patches
brinkflow's own modules, so keep calling them through these bindings.
"""

from __future__ import annotations

import contextlib
import dataclasses
import glob
import hashlib
import io
import os
from dataclasses import dataclass, field

import numpy as np

from brinkflow.cli import main as cli_main
from brinkflow.diagnostics import CSV_COLUMNS, energy_report
from brinkflow.harness import RunConfig, SweepTable, build_scenario, run_simulation
from brinkflow.laws import evaluate_laws

# Seed 0 runs exactly these configurations; other seeds scale rho0 and f0
# by independent factors drawn from [1 - _JITTER, 1 + _JITTER].  The step
# count of c1d_congested moves about four times as much as the inputs (a
# 2% jitter spreads it by 8%), so the jitter is kept small.
_BASE = {
    # Criterion 6: solver-bound 1D run, both CGs at about n/2 iterations.
    "c1d_congested": dict(
        dim=1, n=256, t_end=1.0, epsilon=1e-2, gamma=2.0, beta=3.0,
        scenario="compression", scenario_params={"rho0": 0.6, "f0": 600.0},
    ),
    # The only workload with the curl term and the 2D momentum solve.
    # f0 = 40 keeps the run short; at f0 = 300 it takes minutes.
    "c2d_rotation": dict(
        dim=2, n=64, t_end=0.3, epsilon=1e-2, gamma=2.0, beta=3.0,
        scenario="rotation_squeeze",
        scenario_params={"rho0": 0.6, "f0": 40.0, "rot": 20.0},
    ),
    # Criterion 8a at n = 64 through the CLI: many cheap steps, file I/O.
    # t_end = 0.5 instead of 1 halves every row's steps and keeps the
    # classification slopes; at t_end = 1 a traced run (two bodies) can take
    # minutes on a slow host.
    "sweep_eps_cli": dict(
        dim=1, n=64, t_end=0.5, epsilon=1e-1, gamma=3.0, beta=2.0,
        scenario="compression", scenario_params={"rho0": 0.6, "f0": 200.0},
    ),
}
NAMES = tuple(_BASE)
_JITTER = 0.005

SWEEP_VALUES = (1e-1, 1e-2, 1e-3, 1e-4)
SWEEP_EXPECTED = "PressureNoMemory"

MASS_DRIFT_TOL = 1e-12
FLUX_TOL = 1e-8
T_END_TOL = 1e-10


def make_config(name, seed):
    """The RunConfig of workload ``name`` for ``seed``."""
    base = dict(_BASE[name])
    params = dict(base.pop("scenario_params"))
    if seed != 0:
        rng = np.random.default_rng(seed)
        for key in ("rho0", "f0"):
            params[key] *= 1.0 + rng.uniform(-_JITTER, _JITTER)
    return RunConfig(scenario_params=params, **base)


def setup(name, seed):
    """Build the config, grid and scenario, as a run starts by doing."""
    cfg = make_config(name, seed)
    grid = cfg.make_grid()
    build_scenario(cfg, grid)
    return cfg


@dataclass
class Outcome:
    """What one execution of a workload body produced and what it checked.

    ``iters`` holds the (momentum, flux-Poisson) CG iteration totals when the
    body can see them without tracing, else None.  ``digest`` hashes the
    recorded trajectories, so two runs of one seed can be compared exactly.
    """

    steps: int = 0
    cells: int = 0
    iters: tuple | None = None
    digest: str = ""
    problems: list = field(default_factory=list)


def _columns(table):
    idx = {name: i for i, name in enumerate(CSV_COLUMNS)}
    return {name: table[:, idx[name]] for name in
            ("step", "t", "mass", "max_rho", "flux_residual")}


def _check_trajectory(label, table, params, t_end):
    """Checks shared by every run: t_end reached, rho < 1, mass, flux identity."""
    col = _columns(table)
    problems = []
    if abs(col["t"][-1] - t_end) > T_END_TOL:
        problems.append(f"{label}: stopped at t = {col['t'][-1]!r}, not {t_end}")
    max_rho = col["max_rho"]
    if np.any(max_rho >= 1.0):
        problems.append(f"{label}: max rho reached {max_rho.max()!r}")
        return problems
    mass = col["mass"]
    drift = float(np.max(np.abs(mass - mass[0]))) / mass[0]
    if drift > MASS_DRIFT_TOL:
        problems.append(f"{label}: relative mass drift {drift:.3e} > {MASS_DRIFT_TOL}")
    # Relative bound: the flux residual scales with the pressure it balances.
    bound = FLUX_TOL * (1.0 + evaluate_laws(max_rho, params).p)
    bad = np.nonzero(col["flux_residual"] > bound)[0]
    if bad.size:
        i = bad[0]
        problems.append(
            f"{label}: flux_residual {col['flux_residual'][i]:.3e} > "
            f"{bound[i]:.3e} at step {int(col['step'][i])} ({bad.size} steps)"
        )
    return problems


def _run_single(cfg, require_congested):
    state, records = run_simulation(cfg)
    ledger = energy_report(records, cfg.law_params(), cfg.make_grid())
    table = np.array([r.csv_values() for r in records], dtype=float)
    out = Outcome(
        steps=state.step_count,
        cells=cfg.n**cfg.dim,
        iters=(sum(r.momentum_iters for r in records),
               sum(r.poisson_iters for r in records)),
        digest=hashlib.sha256(table.tobytes()).hexdigest(),
        problems=_check_trajectory(cfg.scenario, table, cfg.law_params(), cfg.t_end),
    )
    if not ledger.bound_holds:
        out.problems.append("energy_report: a-priori energy bound violated")
    if require_congested and not records[-1].meas_099 > 0.0:
        out.problems.append("congested measure meas_099 is 0 at t_end")
    return out


def _config_text(cfg):
    """The ``key = value`` file ``brinkflow.harness.parse_config`` reads back."""
    lines = [f"{f.name} = {getattr(cfg, f.name)}"
             for f in dataclasses.fields(cfg) if f.name != "scenario_params"]
    lines += [f"scenario.{k} = {v}" for k, v in sorted(cfg.scenario_params.items())]
    return "\n".join(lines) + "\n"


def _cli(argv):
    """Run ``brinkflow <argv>`` in-process; returns (exit code, printed output)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue() + err.getvalue()


def _run_sweep(cfg, workdir):
    cfg_path = os.path.join(workdir, "run.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(_config_text(cfg))
    outdir = os.path.join(workdir, "sweep")
    table_path = os.path.join(outdir, "sweep.csv")
    values = ",".join(f"{v:g}" for v in SWEEP_VALUES)
    out = Outcome(cells=cfg.n**cfg.dim)

    code, text = _cli(["sweep", "--config", cfg_path, "--axis", "epsilon",
                       "--values", values, "--out", outdir, "--expect-theory"])
    if code != 0:
        out.problems.append(f"brinkflow sweep exited {code}: {text.strip()}")
    code, text = _cli(["fit", "--table", table_path, "--metric", "L1_big_lam"])
    if code != 0:
        out.problems.append(f"brinkflow fit exited {code}: {text.strip()}")
    code, text = _cli(["classify", "--table", table_path, "--expect-theory"])
    if code != 0 or f"observed={SWEEP_EXPECTED}" not in text:
        out.problems.append(f"brinkflow classify exited {code}: {text.strip()}")

    rows = SweepTable.load(table_path).rows
    ok = sum(row.ok for row in rows)
    if ok != len(SWEEP_VALUES):
        out.problems.append(f"{ok} of {len(SWEEP_VALUES)} sweep rows ok")

    digest = hashlib.sha256()
    with open(table_path, "rb") as fh:
        digest.update(fh.read())
    csv_paths = sorted(glob.glob(os.path.join(outdir, "run_*", "diagnostics.csv")))
    if len(csv_paths) != len(rows):
        out.problems.append(f"{len(csv_paths)} diagnostics.csv files for {len(rows)} rows")
    for row, path in zip(rows, csv_paths):
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(data)
        table = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2)
        params = dataclasses.replace(cfg.law_params(), epsilon=row.value)
        out.problems += _check_trajectory(
            f"sweep row epsilon={row.value:g}", table, params, cfg.t_end)
        out.steps += int(table[-1, CSV_COLUMNS.index("step")])
    out.digest = digest.hexdigest()
    return out


def run(name, cfg, workdir):
    """Execute the body of workload ``name`` once and check its outputs."""
    if name == "sweep_eps_cli":
        return _run_sweep(cfg, workdir)
    return _run_single(cfg, require_congested=name == "c1d_congested")
