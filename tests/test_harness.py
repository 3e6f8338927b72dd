"""Harness tests: config parsing, scenarios, the time loop, sweeps, rate
fits, and regime classification on synthetic tables."""

import csv
import dataclasses
import importlib
import importlib.util
import io
import math
import pkgutil
import types
from pathlib import Path

import numpy as np
import pytest

import brinkflow.cli
import brinkflow.diagnostics
import brinkflow.harness
import brinkflow.laws
import brinkflow.momentum

from brinkflow import (
    CSV_COLUMNS,
    CongestionOverflow,
    ConfigError,
    FitDegenerate,
    RegimeTag,
    RunConfig,
    SolveReport,
    SolverDiverged,
    SweepDegenerate,
    SweepRow,
    SweepTable,
    SWEEP_METRICS,
    Unclassifiable,
    build_scenario,
    classify_limit,
    compute_S,
    fit_rate,
    limit_exponents,
    load_config,
    parse_config,
    read_snapshot,
    resolve_metric,
    run_simulation,
    sweep,
    write_diagnostics_csv,
    write_report,
    write_snapshot,
)
from brinkflow.grid import face_coords

BASE_TEXT = """
# smoke configuration
dim = 1
n = 16
t_end = 0.05
epsilon = 1e-2
gamma = 2.0
beta = 3.0
scenario = equilibrium
scenario.rho0 = 0.3
"""


def test_parse_config_defaults_and_values():
    cfg = parse_config(BASE_TEXT)
    assert cfg.dim == 1 and cfg.n == 16
    assert cfg.t_end == 0.05 and cfg.epsilon == 1e-2
    assert cfg.scenario == "equilibrium"
    assert cfg.scenario_params == {"rho0": 0.3}
    # defaults
    assert cfg.length == 1.0 and cfg.cfl == 0.4 and cfg.delta == 0.0
    assert cfg.mu == 0.5 and cfg.r == 1.0 and cfg.snapshot_every == 0.0


def test_parse_config_all_optional_keys():
    text = BASE_TEXT + "length = 2.0\ncfl = 0.3\ndelta = 0.1\nmu = 0.7\nr = 2.0\nsnapshot_every = 0.01\n"
    cfg = parse_config(text)
    assert cfg.length == 2.0 and cfg.cfl == 0.3 and cfg.delta == 0.1
    assert cfg.mu == 0.7 and cfg.r == 2.0 and cfg.snapshot_every == 0.01


@pytest.mark.parametrize("mutation", [
    "bogus_key = 1",
    "n = sixteen",
    "just a line without equals",
    "t_end = -1.0",
    "snapshot_every = -0.5",
    "cfl = 0",
    "cfl = 1.5",
])
def test_parse_config_rejects(mutation):
    with pytest.raises(ConfigError):
        parse_config(BASE_TEXT + mutation + "\n")


@pytest.mark.parametrize("line", [
    "t_end = inf",
    "snapshot_every = nan",
    "length = inf",
    "epsilon = inf",
    "mu = inf",
    "r = inf",
    "gamma = nan",
    "cfl = -inf",
    "scenario.rho0 = nan",
])
def test_parse_config_rejects_non_finite(line):
    # t_end = inf used to be accepted, and the run never returned
    with pytest.raises(ConfigError, match="must be finite"):
        parse_config(BASE_TEXT + line + "\n")


def test_parse_config_missing_required():
    with pytest.raises(ConfigError, match="missing required"):
        parse_config("dim = 1\nn = 16\n")


def test_config_text_from_fields_round_trips():
    # a config file written field by field, as perfbench's sweep workload
    # writes one, parses back to the same RunConfig
    cfg = RunConfig(dim=2, n=24, t_end=0.25, epsilon=3e-3, gamma=2.5, beta=3.5,
                    scenario="rotation_squeeze", length=2.0, cfl=0.3, delta=0.05,
                    mu=0.7, r=1.5, snapshot_every=0.125,
                    scenario_params={"rho0": 0.45, "f0": 12.0, "rot": 3.0})
    lines = [f"{f.name} = {getattr(cfg, f.name)}"
             for f in dataclasses.fields(cfg) if f.name != "scenario_params"]
    lines += [f"scenario.{k} = {v}" for k, v in sorted(cfg.scenario_params.items())]
    assert parse_config("\n".join(lines) + "\n") == cfg


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_TEXT)
    assert load_config(path).n == 16


def test_build_scenario_validation():
    cfg = parse_config(BASE_TEXT)
    g = cfg.make_grid()
    with pytest.raises(ConfigError, match="unknown scenario '"):
        build_scenario(cfg.__class__(**{**cfg.__dict__, "scenario": "vortex"}), g)
    from dataclasses import replace
    with pytest.raises(ConfigError, match="unknown scenario parameters"):
        build_scenario(replace(cfg, scenario_params={"rho0": 0.3, "typo": 1.0}), g)
    with pytest.raises(ConfigError, match="packing"):
        build_scenario(replace(cfg, scenario_params={"rho0": 1.0}), g)
    with pytest.raises(ConfigError, match="negative"):
        build_scenario(replace(cfg, scenario_params={"rho0": -0.2}), g)
    # rotation_squeeze needs two dimensions
    with pytest.raises(ConfigError):
        build_scenario(replace(cfg, scenario="rotation_squeeze", scenario_params={}), g)


def test_scenario_profiles():
    from dataclasses import replace
    cfg = parse_config(BASE_TEXT)
    g = cfg.make_grid()
    rho0, f = build_scenario(cfg, g)
    assert float(np.min(rho0.data)) == 0.3 == float(np.max(rho0.data))
    assert f.max_abs() == 0.0

    comp = replace(cfg, scenario="compression",
                   scenario_params={"rho0": 0.5, "f0": 3.0})
    rho0, f = build_scenario(comp, g)
    x = face_coords(g, 0)[0]
    np.testing.assert_allclose(f.components[0], 3.0 * np.sin(2 * np.pi * x),
                               atol=1e-14)

    bumps = replace(cfg, scenario="two_bump_merge", scenario_params={})
    rho0, f = build_scenario(bumps, g)
    assert float(np.max(rho0.data)) < 1.0
    assert float(np.min(rho0.data)) > 0.0


# the scenario defaults the README documents, written out independently of
# the harness's table
README_SCENARIO_DEFAULTS = {
    "equilibrium": {"rho0": 0.3},
    "compression": {"rho0": 0.6, "f0": 5.0},
    "two_bump_merge": {"base": 0.3, "amp": 0.35, "width": 0.08, "f0": 5.0},
    "rotation_squeeze": {"rho0": 0.5, "f0": 5.0, "rot": 2.0},
    "spike": {"rho0": 0.6, "amp": 1400.0, "width": 0.012},
}


@pytest.mark.parametrize("scenario,dim", [
    ("equilibrium", 1), ("equilibrium", 2),
    ("compression", 1), ("compression", 2),
    ("two_bump_merge", 1), ("two_bump_merge", 2),
    ("rotation_squeeze", 2),
    ("spike", 1),
])
def test_scenario_defaults_equal_readme_values(scenario, dim):
    cfg = dataclasses.replace(parse_config(BASE_TEXT), dim=dim, scenario=scenario,
                              scenario_params={})
    g = cfg.make_grid()
    rho0, f = build_scenario(cfg, g)
    explicit = dataclasses.replace(
        cfg, scenario_params=dict(README_SCENARIO_DEFAULTS[scenario]))
    rho0_x, f_x = build_scenario(explicit, g)
    np.testing.assert_array_equal(rho0.data, rho0_x.data)
    assert len(f.components) == dim
    for a in range(dim):
        np.testing.assert_array_equal(f.components[a], f_x.components[a])


def test_spike_force_antisymmetric():
    from dataclasses import replace
    cfg = replace(parse_config(BASE_TEXT), n=64, scenario="spike",
                  scenario_params={"rho0": 0.6, "amp": 100.0, "width": 0.05})
    g = cfg.make_grid()
    _, f = build_scenario(cfg, g)
    fx = f.components[0]
    ic = g.n // 2   # face at the domain center
    assert fx[ic] == 0.0
    for j in range(1, 6):
        assert fx[ic + j] == pytest.approx(-fx[ic - j], rel=1e-13)
    # force pushes mass toward the center from both sides
    assert fx[ic - 2] > 0.0 > fx[ic + 2]


def test_equilibrium_run_is_static(tmp_path):
    cfg = parse_config(BASE_TEXT)
    state, records = run_simulation(cfg)
    assert state.t == pytest.approx(0.05, abs=1e-12)
    # uniform density: no pressure gradient, no force, so u stays exactly 0
    assert state.u.max_abs() == 0.0
    assert float(np.min(state.rho.data)) == 0.3 == float(np.max(state.rho.data))
    for rec in records:
        assert rec.max_rho == 0.3 and rec.min_rho == 0.3
        assert rec.dissipation == 0.0 and rec.forcing_power == 0.0
        assert rec.big_lam_drift_l1 == 0.0
    # dt controller: the reference-velocity cap cfl*dx binds for a still fluid
    assert records[0].dt == pytest.approx(cfg.cfl * cfg.make_grid().dx, rel=1e-12)
    assert records[-1].dt == 0.0
    assert records[-1].t == pytest.approx(0.05, abs=1e-12)


def test_run_is_deterministic(tmp_path):
    from dataclasses import replace
    cfg = replace(parse_config(BASE_TEXT), scenario="compression",
                  scenario_params={"rho0": 0.5, "f0": 5.0}, t_end=0.1, n=32)
    _, rec1 = run_simulation(cfg)
    _, rec2 = run_simulation(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_diagnostics_csv(p1, rec1)
    write_diagnostics_csv(p2, rec2)
    assert p1.read_bytes() == p2.read_bytes()


def test_diagnostics_csv_bytes_equal_csv_writer(tmp_path):
    # the one-template rows against csv.writer with _fmt values, on an int
    # step and the floats whose formatting could differ
    edge = [0.0, -0.0, 1e-300, 1.0 / 3.0, math.nan]
    rows = [[7] + (edge * 4)[:len(CSV_COLUMNS) - 1],
            [np.int64(8)] + (edge[::-1] * 4)[:len(CSV_COLUMNS) - 1]]
    records = [types.SimpleNamespace(csv_values=lambda row=row: list(row)) for row in rows]
    write_diagnostics_csv(tmp_path / "diagnostics.csv", records)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(CSV_COLUMNS)
    writer.writerows([brinkflow.harness._fmt(v) for v in row] for row in rows)
    assert (tmp_path / "diagnostics.csv").read_bytes() == expected.getvalue().encode()


RUN_DIR_CFG = RunConfig(dim=1, n=32, t_end=0.05, epsilon=1e-2, gamma=2.0, beta=3.0,
                        scenario="compression", scenario_params={"f0": 50.0})


def test_run_simulation_writes_run_directory(tmp_path):
    outdir = tmp_path / "a" / "b"
    _, records = run_simulation(RUN_DIR_CFG, outdir=str(outdir))
    assert len(records) >= 3
    write_diagnostics_csv(tmp_path / "expected.csv", records)
    assert (outdir / "diagnostics.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_run_simulation_writes_partial_records(tmp_path, stall_momentum):
    stall_momentum(2)
    with pytest.raises(SolverDiverged) as exc_info:
        run_simulation(RUN_DIR_CFG, outdir=str(tmp_path))
    records = exc_info.value.records
    assert len(records) == 2
    write_diagnostics_csv(tmp_path / "expected.csv", records)
    written = (tmp_path / "diagnostics.csv").read_bytes()
    assert written == (tmp_path / "expected.csv").read_bytes()
    assert len(written.splitlines()) == 3   # header + the 2 records


@pytest.mark.parametrize("cfg", [
    dataclasses.replace(parse_config(BASE_TEXT), snapshot_every=0.02),
    # an odd n: the eigenbasis solves hold for any n
    RunConfig(dim=2, n=15, t_end=0.1, epsilon=1e-2, gamma=2.0, beta=3.0,
              scenario="rotation_squeeze", snapshot_every=0.05),
], ids=["1d", "2d_odd_n"])
def test_snapshots_written(cfg, tmp_path):
    run_simulation(cfg, outdir=str(tmp_path))
    snaps = sorted((tmp_path / "snapshots").glob("*_rho.txt"))
    assert len(snaps) >= 3
    # velocity snapshots, one per component, accompany the density ones
    for name in ["rho", "big_lam"] + [f"u{a}" for a in range(cfg.dim)]:
        paths = sorted((tmp_path / "snapshots").glob(f"*_{name}.txt"))
        assert len(paths) == len(snaps)
        times = []
        for path in paths:
            values, meta = read_snapshot(path)
            assert values.shape == (cfg.n,) * cfg.dim
            times.append(meta["time"])
        assert times[0] == 0.0
        assert all(b > a for a, b in zip(times, times[1:]))


@pytest.mark.parametrize("cfg", [
    RunConfig(dim=1, n=64, t_end=0.1, epsilon=1e-2, gamma=2.0, beta=3.0,
              scenario="compression", scenario_params={"rho0": 0.6, "f0": 200.0}),
    RunConfig(dim=2, n=16, t_end=0.2, epsilon=1e-2, gamma=2.0, beta=3.0,
              scenario="rotation_squeeze",
              scenario_params={"rho0": 0.6, "f0": 100.0, "rot": 20.0}),
], ids=["1d_compression", "2d_rotation_squeeze"])
def test_snapshots_do_not_change_the_run(cfg, tmp_path, monkeypatch):
    # snapshots record the steps the physics picks: the records are the
    # same bits with or without them, and each snapshot lands at the first
    # step at or past a multiple of snapshot_every, one set per step at most
    written = []

    def recording(path, *args):
        written.append(Path(path).name)
        return write_snapshot(path, *args)

    monkeypatch.setattr(brinkflow.harness, "write_snapshot", recording)
    reference = None
    for every in (0.0, 0.001, 0.03):
        for outdir in (None, tmp_path / f"every_{every}"):
            written.clear()
            _, records = run_simulation(dataclasses.replace(cfg, snapshot_every=every),
                                        outdir=outdir)
            values = np.array([dataclasses.astuple(r) for r in records])
            if reference is None:
                reference = values
            assert values.shape == reference.shape
            assert values.tobytes() == reference.tobytes()
            if outdir is None or every == 0.0:
                assert written == []
                continue
            assert len(written) == len(set(written))
            due = sorted({next(r.step for r in records if r.t >= k * every - 1e-12)
                          for k in range(int(cfg.t_end / every + 1e-9) + 1)})
            assert [int(name[4:10]) for name in written if name.endswith("_rho.txt")] == due


def test_records_are_final_when_appended(tmp_path, monkeypatch):
    # a step enters its record block once, complete with the dt it took, so
    # what a flush appends (before each snapshot too) never changes later
    flush = brinkflow.diagnostics.RecordBlock.flush
    appended = []

    def copying(self):
        flush(self)
        appended.append([(r.step, r.dt) for r in self.records])

    monkeypatch.setattr(brinkflow.diagnostics.RecordBlock, "flush", copying)
    cfg = RunConfig(dim=1, n=64, t_end=0.1, epsilon=1e-2, gamma=2.0, beta=3.0,
                    scenario="compression", snapshot_every=0.02,
                    scenario_params={"f0": 50.0})
    _, records = run_simulation(cfg, outdir=str(tmp_path))
    final = [(r.step, r.dt) for r in records]
    assert len(appended) >= 6
    assert [copy for copy in appended if copy != final[:len(copy)]] == []


@pytest.mark.parametrize("cfg", [
    RunConfig(dim=1, n=32, t_end=0.05, epsilon=1e-2, gamma=2.0, beta=3.0,
              scenario="compression", scenario_params={"rho0": 0.6, "f0": 50.0}),
    RunConfig(dim=2, n=16, t_end=0.02, epsilon=1e-2, gamma=2.0, beta=3.0,
              scenario="rotation_squeeze",
              scenario_params={"rho0": 0.6, "f0": 40.0, "rot": 20.0}),
], ids=["1d_compression", "2d_rotation_squeeze"])
def test_laws_evaluated_once_per_step(cfg, monkeypatch):
    # the momentum solve (through its linearised pressure), the record and
    # the big_lam source share one evaluation of the laws per step
    calls = {"evaluate_laws": 0, "pressure_derivative": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (brinkflow.harness, brinkflow.diagnostics, brinkflow.momentum):
        monkeypatch.setattr(module, "evaluate_laws",
                            counting("evaluate_laws", brinkflow.laws.evaluate_laws))
    monkeypatch.setattr(brinkflow.harness, "pressure_derivative",
                        counting("pressure_derivative", brinkflow.laws.pressure_derivative))
    _, records = run_simulation(cfg)
    assert len(records) >= 3
    assert calls["evaluate_laws"] <= len(records) + 1
    assert calls["pressure_derivative"] == 0


def test_2d_momentum_solve_stays_fast():
    # the 2D momentum solve runs a few inner CG iterations per step (about 4
    # on this run); a fallback to Jacobi CG on the full vector operator
    # averages about 29 here and hundreds on larger grids
    cfg = RunConfig(dim=2, n=16, t_end=0.02, epsilon=1e-2, gamma=2.0, beta=3.0,
                    scenario="rotation_squeeze",
                    scenario_params={"rho0": 0.6, "f0": 40.0, "rot": 20.0})
    _, records = run_simulation(cfg)
    assert len(records) >= 3
    assert np.mean([r.momentum_iters for r in records]) <= 12


@pytest.mark.parametrize("gamma, beta, eps", [(3.0, 2.0, 1e-3), (2.0, 3.0, 1e-2)])
def test_2d_momentum_solve_runs_one_flux_cg(gamma, beta, eps, monkeypatch):
    # congested 2D runs whose momentum solves all meet the tolerance on
    # their first pass: one flux CG per solve, no refinement step
    calls = {"cg": 0, "solve": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(brinkflow.momentum, "_cg", counting("cg", brinkflow.momentum._cg))
    monkeypatch.setattr(brinkflow.harness, "solve_momentum",
                        counting("solve", brinkflow.harness.solve_momentum))
    cfg = RunConfig(dim=2, n=32, t_end=0.3, epsilon=eps, gamma=gamma, beta=beta,
                    scenario="rotation_squeeze",
                    scenario_params={"rho0": 0.6, "f0": 300.0, "rot": 20.0})
    _, records = run_simulation(cfg)
    assert calls["solve"] == len(records) > 50
    assert calls["cg"] == calls["solve"]


@pytest.mark.parametrize("gamma, beta", [(2.0, 3.0), (1.5, 3.0)])
def test_2d_run_at_eps_1e_6_reaches_its_end(gamma, beta, monkeypatch):
    # round-off alone keeps some momentum solves of these runs above the
    # relative residual 1e-10, refinement or not; accepted on their backward
    # error, the runs reach t_end with the flux identity intact
    reports = []

    def recording(*args, **kwargs):
        u, report = brinkflow.momentum.solve_momentum(*args, **kwargs)
        reports.append(report)
        return u, report

    monkeypatch.setattr(brinkflow.harness, "solve_momentum", recording)
    cfg = RunConfig(dim=2, n=32, t_end=0.5, epsilon=1e-6, gamma=gamma, beta=beta,
                    scenario="rotation_squeeze",
                    scenario_params={"rho0": 0.6, "f0": 300.0, "rot": 20.0})
    _, records = run_simulation(cfg)
    assert records[-1].t == 0.5
    assert any(rep.final_relative_residual > 1e-10 for rep in reports)
    max_rho = np.array([r.max_rho for r in records])
    bound = 1e-8 * (1.0 + brinkflow.laws.evaluate_laws(max_rho, cfg.law_params()).p)
    assert np.all(np.array([r.flux_residual for r in records]) <= bound)


def test_benchmark_tracer_bindings_exist():
    # perfbench/tracing.py wraps these module attributes by name; a binding
    # dropped from a module breaks every traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bench = types.SimpleNamespace(run_simulation=run_simulation,
                                  energy_report=brinkflow.diagnostics.energy_report,
                                  cli_main=brinkflow.cli.main)
    targets = tracing._targets(bench)
    assert targets
    for owner, attr, name, _ in targets:
        assert callable(getattr(owner, attr, None)), (attr, name)


def test_exported_names_resolve():
    # a stale __all__ entry only fails on "from <module> import *"
    modules = [brinkflow] + [importlib.import_module(f"brinkflow.{info.name}")
                             for info in pkgutil.iter_modules(brinkflow.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


def test_package_api_is_pinned():
    # the package re-exports each module's __all__; this list catches a
    # name added to or dropped from one of them
    names = [
        "BrinkflowError", "CSV_COLUMNS", "ClassificationResult",
        "CompatibilityError", "ConfigError", "CongestionOverflow",
        "DiagnosticsRecord", "DomainError", "EnergyLedger", "FaceVectorField",
        "FitDegenerate", "FitResult", "Grid", "LawParams", "LawValues",
        "RegimeTag", "RunConfig", "SWEEP_METRICS", "ScalarField", "SimState",
        "SolveReport", "SolverDiverged", "SweepDegenerate", "SweepRow",
        "SweepTable", "Unclassifiable", "__version__", "advect_big_lambda",
        "advect_density", "apply_momentum_operator", "build_record",
        "build_scenario", "c_beta", "cell_coords", "classify_limit",
        "compute_S", "constraint_residuals", "curl", "divergence",
        "energy_report", "evaluate_laws", "face_coords", "fit_rate",
        "gradient", "limit_exponents", "load_config", "make_grid",
        "parse_config", "poincare_constant", "pressure_derivative",
        "read_snapshot", "regime", "resolve_metric", "run_simulation",
        "solve_momentum",
        "solve_poisson_zero_mean", "stable_dt", "sweep",
        "write_diagnostics_csv", "write_report", "write_snapshot",
    ]
    assert len(names) == 61
    assert names == sorted(brinkflow.__all__)
    bound = {}
    exec("from brinkflow import *", bound)
    assert names == sorted(set(bound) - {"__builtins__"})


OVERFLOW_TEXT = """
dim = 1
n = 64
t_end = 1.0
epsilon = 1e-30
gamma = 2.0
beta = 3.0
scenario = compression
scenario.rho0 = 0.9999999999
scenario.f0 = 5.0
"""


def test_congestion_abort_attaches_records():
    # density starts within 1e-10 of packing and the laws are too weak to
    # stop the compression, so cutting the step by 2**20 cannot help
    cfg = parse_config(OVERFLOW_TEXT)
    with pytest.raises(CongestionOverflow) as exc_info:
        run_simulation(cfg)
    exc = exc_info.value
    assert exc.new_max_rho >= 1.0
    assert exc.records, "partial records should accompany the abort"
    assert exc.records[-1].dt > 0.0


def test_near_packing_compression_runs_to_the_end():
    # rho0 = 1 - 1e-13 puts the bulk coefficient of the 1D momentum solve
    # near 1e9 next to 2*mu = 1; the solve must stay accurate at that
    # contrast while the step cap keeps every cell short of packing
    cfg = parse_config(OVERFLOW_TEXT.replace("0.9999999999\n", "0.9999999999999\n"))
    _, records = run_simulation(cfg)
    assert records[-1].t == 1.0
    assert all(r.max_rho < 1.0 for r in records)
    assert max(r.flux_residual for r in records) < 1e-9


def test_solver_stall_attaches_records(stall_momentum):
    stall_momentum(2)
    with pytest.raises(SolverDiverged) as exc_info:
        run_simulation(parse_config(BASE_TEXT))
    records = exc_info.value.records
    assert [r.step for r in records] == [0, 1]
    assert all(r.dt > 0.0 for r in records)


FORCED_TEXT = """
dim = 1
n = 32
t_end = 0.2
epsilon = 1e-2
gamma = 2.0
beta = 3.0
scenario = compression
scenario.f0 = 50.0
"""


@pytest.mark.parametrize("block_cells", [1, 3 * 32, 4096], ids=["K1", "K3", "K128"])
def test_diagnostics_failure_attaches_earlier_records(block_cells, fail_diagnostics,
                                                      monkeypatch):
    # records are built in blocks of K steps; a failing flux solve at step 5
    # still yields exactly the records of steps 0-4, built from the rows
    # before the one the failed solve names
    monkeypatch.setattr(brinkflow.diagnostics, "_BLOCK_CELLS", block_cells)
    cfg = parse_config(FORCED_TEXT)
    reference = fail_diagnostics(cfg, 5)
    assert len(reference) > 8
    with pytest.raises(SolverDiverged, match="forced flux stall") as exc_info:
        run_simulation(cfg)
    records = exc_info.value.records
    assert [r.csv_values() for r in records] == [r.csv_values() for r in reference[:5]]


def test_diagnostics_failure_solves_the_flux_twice(fail_diagnostics, monkeypatch):
    # the failed block solve names its row, so the records of steps 0-4
    # take one more compute_S call, for the rows before it
    cfg = parse_config(FORCED_TEXT)
    fail_diagnostics(cfg, 5)
    failing = brinkflow.diagnostics.compute_S
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return failing(*args)

    monkeypatch.setattr(brinkflow.diagnostics, "compute_S", counting)
    with pytest.raises(SolverDiverged, match="forced flux stall") as exc_info:
        run_simulation(cfg)
    assert [r.step for r in exc_info.value.records] == [0, 1, 2, 3, 4]
    assert calls == 2


def test_earlier_diagnostics_failure_wins_over_later_stall(fail_diagnostics,
                                                           stall_momentum):
    # both failures sit in one pending block: the earlier step's comes first,
    # as it would were each record built in its own step
    cfg = parse_config(FORCED_TEXT)
    fail_diagnostics(cfg, 3)
    stall_momentum(6)
    with pytest.raises(SolverDiverged, match="forced flux stall") as exc_info:
        run_simulation(cfg)
    assert [r.step for r in exc_info.value.records] == [0, 1, 2]


# -- linearly implicit pressure ----------------------------------------------------

def _stiff_compression(epsilon):
    return RunConfig(dim=1, n=64, t_end=0.5, epsilon=epsilon, gamma=3.0, beta=2.0,
                     scenario="compression", scenario_params={"rho0": 0.6, "f0": 200.0})


_ROTATION_16 = RunConfig(dim=2, n=16, t_end=0.05, epsilon=1e-2, gamma=2.0, beta=3.0,
                         scenario="rotation_squeeze",
                         scenario_params={"rho0": 0.6, "f0": 40.0, "rot": 20.0})


def _counting_momentum(monkeypatch):
    """Wrap the time loop's momentum solve; returns the list of max |u|, one
    entry per call."""
    solve = brinkflow.harness.solve_momentum
    speeds = []

    def counting(*args, **kwargs):
        u, rep = solve(*args, **kwargs)
        speeds.append(u.max_abs())
        return u, rep

    monkeypatch.setattr(brinkflow.harness, "solve_momentum", counting)
    return speeds


def test_step_count_flat_as_epsilon_falls():
    # an explicit pressure needs dt <= (2*mu+lam)/(rho*p'), so its step
    # count grows about 3x per decade of eps (111 steps at eps = 1e-1,
    # 3,839 at eps = 1e-4); the linearly implicit pressure is held only by
    # the CFL cap
    steps = {eps: run_simulation(_stiff_compression(eps))[0].step_count
             for eps in (1e-1, 1e-4)}
    assert steps[1e-4] <= 2 * steps[1e-1]


def test_stiff_run_keeps_flux_identity():
    cfg = _stiff_compression(1e-4)
    _, records = run_simulation(cfg)
    params = cfg.law_params()
    for rec in records:
        bound = 1e-8 * (1.0 + brinkflow.laws.evaluate_laws(rec.max_rho, params).p)
        assert rec.flux_residual <= bound, rec.step
        assert rec.mean_relation_residual <= bound, rec.step


@pytest.mark.parametrize("gamma, beta, eps, f0", [
    (2.0, 3.0, 1e-2, 600.0), (3.0, 2.0, 1e-4, 200.0), (1.5, 3.0, 1e-3, 200.0),
])
def test_2d_path_replays_1d_compression(gamma, beta, eps, f0):
    # compression is invariant in y, so the 2D solves (flux-reduced CG and
    # eigenbasis S) must reproduce the 1D run: same steps, u_y = 0, rho constant
    # along y and equal to the 1D rho to round-off
    runs = {}
    for dim in (1, 2):
        cfg = RunConfig(dim=dim, n=32, t_end=0.5, epsilon=eps, gamma=gamma, beta=beta,
                        scenario="compression", scenario_params={"rho0": 0.6, "f0": f0})
        state, records = run_simulation(cfg)
        _, f = build_scenario(cfg, cfg.make_grid())
        s, _ = compute_S(state.u.components[np.newaxis], f, cfg.law_params())
        runs[dim] = state, records, s[0]
    (state1, records1, s1), (state2, records2, s2) = runs[1], runs[2]
    assert state2.step_count == state1.step_count
    assert np.all(state2.u.components[1] == 0.0)
    rho2 = state2.rho.data
    assert np.all(rho2 == rho2[:, :1])
    assert np.max(np.abs(rho2 - state1.rho.data[:, None])) <= 1e-13
    assert len(records2) == len(records1)
    assert max(abs(r2.dt - r1.dt) for r1, r2 in zip(records1, records2)) <= 1e-13
    assert np.max(np.abs(s2 - s1[:, None])) <= 1e-14 * np.max(np.abs(s1))


@pytest.mark.parametrize("cfg", [
    _stiff_compression(1e-3), _ROTATION_16,
], ids=["1d_compression", "2d_rotation_squeeze"])
def test_one_momentum_solve_per_record_and_cfl_of_own_velocity(cfg, monkeypatch):
    # dt is picked before the solve and only lowered after it: one solve per
    # record (the benchmark's traced iteration totals rely on it), and each
    # step obeys the CFL cap of the velocity it advects with
    speeds = _counting_momentum(monkeypatch)
    _, records = run_simulation(cfg)
    assert len(speeds) == len(records)
    dx = cfg.make_grid().dx
    for rec, speed in zip(records, speeds):
        assert rec.dt <= cfg.cfl * dx / max(speed, 1.0) * (1.0 + 1e-12), rec.step
    assert records[-1].dt == 0.0


def _recording_transport(monkeypatch):
    """Record (rho, dt offered, new rho, dt taken) of every density update
    of the time loop, leaving the updates as they are."""
    advect = brinkflow.harness.advect_density
    updates = []

    def recording(rho, u, dt, params):
        new, taken = advect(rho, u, dt, params)
        updates.append((rho.data.copy(), dt, new.data.copy(), taken))
        return new, taken

    monkeypatch.setattr(brinkflow.harness, "advect_density", recording)
    return updates


def test_gap_cap_keeps_every_update_within_half_the_gap(monkeypatch):
    # the eps = 1e-4 sweep row: at 130 steps it rejected 60 halving trials;
    # the cap takes 115 steps and never updates twice
    updates = _recording_transport(monkeypatch)
    state, records = run_simulation(_stiff_compression(1e-4))
    assert state.step_count == len(updates) == 115
    cut = 0
    for rho, offered, new, taken in updates:
        closed = (new - rho) / (1.0 - rho)
        assert np.all(closed <= 0.5 * (1.0 + 1e-12))
        if taken < offered:
            # a cut step closes exactly half the gap of its fastest cell
            assert float(np.max(closed)) == pytest.approx(0.5, rel=1e-12)
            cut += 1
    assert cut >= 1
    assert [r.dt for r in records[:-1]] == [taken for *_, taken in updates]


def test_momentum_start_extrapolates_the_steps_taken(monkeypatch):
    # each solve starts from u^{n-1} + (tau_{n-1}/tau_{n-2}) (u^{n-1} - u^{n-2}),
    # tau being the steps taken; the first two start from u^{n-1} (0 first)
    updates = _recording_transport(monkeypatch)
    solve = brinkflow.harness.solve_momentum
    starts, solved = [], []

    def recording(rho, f, params, u0=None, laws=None, dt=0.0):
        u, rep = solve(rho, f, params, u0=u0, laws=laws, dt=dt)
        starts.append(u0.components.copy())
        solved.append(u.components.copy())
        return u, rep

    monkeypatch.setattr(brinkflow.harness, "solve_momentum", recording)
    # at eps = 1e-4 the gap cap cuts steps 2 to 5
    _, records = run_simulation(dataclasses.replace(_ROTATION_16, epsilon=1e-4))
    taus = [r.dt for r in records]
    # a step cut by the gap cap enters tau as taken, and a later solve's
    # ratio uses it
    cut = [k for k, (_, offered, _, taken) in enumerate(updates) if taken < offered]
    assert cut and cut[0] + 2 < len(records)
    assert taus[:-1] == [taken for *_, taken in updates]
    assert len(starts) == len(records) >= 4 and taus[-1] == 0.0
    assert not np.any(starts[0])
    assert np.array_equal(starts[1], solved[0])
    for k in range(2, len(starts)):
        expected = solved[k - 1] + (taus[k - 1] / taus[k - 2]) * (solved[k - 1] - solved[k - 2])
        assert np.array_equal(starts[k], expected), k


def test_extrapolated_start_bounds_2d_momentum_cost():
    # a congesting 2D squeeze: started from u^{n-1}, 85 of its 93 solves
    # refine and the flux CGs take 1,060 iterations; the extrapolated start
    # takes 772, with the same steps
    cfg = RunConfig(dim=2, n=32, t_end=0.3, epsilon=1e-2, gamma=2.0, beta=3.0,
                    scenario="rotation_squeeze",
                    scenario_params={"rho0": 0.6, "f0": 300.0, "rot": 20.0})
    state, records = run_simulation(cfg)
    assert state.step_count == 92
    assert sum(r.momentum_iters for r in records) <= 900


def test_gap_cap_budget_exhausted_attaches_records():
    # within 1e-10 of packing a weak squeeze closes 70% of the gap at the
    # floor step cfl*dx/2**20: too much for the gap rule, yet below rho = 1
    cfg = dataclasses.replace(parse_config(OVERFLOW_TEXT),
                              scenario_params={"rho0": 0.9999999999, "f0": 0.15})
    with pytest.raises(CongestionOverflow) as exc_info:
        run_simulation(cfg)
    exc = exc_info.value
    assert exc.new_max_rho < 1.0
    assert [r.step for r in exc.records] == [0]
    assert exc.records[0].dt == exc.dt == cfg.cfl * cfg.make_grid().dx / 2**20


def synth_table(values, metric_fn, axis="epsilon", params=None):
    """Build an in-memory sweep table; metric_fn(value) -> dict of bare names."""
    rows = []
    for v in values:
        named = metric_fn(v)
        metrics = {}
        for name in SWEEP_METRICS:
            val = named.get(name, 1.0)
            metrics[f"final_{name}"] = val
            metrics[f"max_{name}"] = named.get("max_" + name, val)
        rows.append(SweepRow(v, "ok", metrics))
    return SweepTable(axis=axis, rows=rows,
                      params=params or {"gamma": 2.0, "beta": 3.0})


EPS4 = [1e-1, 1e-2, 1e-3, 1e-4]


def test_fit_rate_exact_power_law():
    table = synth_table(EPS4, lambda v: {"L1_p": 3.0 * v**0.7})
    fit = fit_rate(table, "L1_p")
    assert fit.slope == pytest.approx(0.7, abs=1e-12)
    assert fit.log_intercept == pytest.approx(np.log(3.0), abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 4


def test_fit_rate_noisy_power_law(rng):
    noisy = lambda v: {"L1_p": v ** (2.0 / 3.0) * (1.0 + 0.01 * rng.uniform(-1, 1))}
    table = synth_table(EPS4, noisy)
    fit = fit_rate(table, "L1_p")
    assert 0.6 <= fit.slope <= 0.73
    assert fit.r_squared > 0.999


def test_fit_rate_degenerate_cases():
    flat0 = synth_table(EPS4, lambda v: {"L1_p": 0.0})
    with pytest.raises(FitDegenerate):
        fit_rate(flat0, "L1_p")
    # dropping nonpositive points keeps the fit alive if 3 survive
    mixed = synth_table(EPS4, lambda v: {"L1_p": v if v < 5e-2 else 0.0})
    fit = fit_rate(mixed, "L1_p", drop_nonpositive=True)
    assert fit.n_points == 3 and fit.slope == pytest.approx(1.0, abs=1e-12)
    two = synth_table(EPS4[:2], lambda v: {"L1_p": v})
    with pytest.raises(FitDegenerate):
        fit_rate(two, "L1_p")
    # neither a repeated axis value nor an infinite metric gives a slope
    ys = iter([1.0, 2.0, 3.0])
    one_value = synth_table([1e-2] * 3, lambda v: {"L1_p": next(ys)})
    with pytest.raises(FitDegenerate, match="single value"):
        fit_rate(one_value, "L1_p")
    infinite = synth_table(EPS4, lambda v: {"L1_p": math.inf if v == 1e-3 else v})
    for drop in (False, True):
        with pytest.raises(FitDegenerate, match="non-finite"):
            fit_rate(infinite, "L1_p", drop_nonpositive=drop)


@pytest.mark.parametrize("value", [0.03195896916189038, 0.05084451944079279, 1.0])
def test_fit_rate_flat_metric_fits_exactly(value):
    # a metric that truncation leaves unchanged is a flat line, fitted
    # exactly, although the mean of its logs can differ from them in the
    # last bit (r^2 came out as -2.0 and -0.667 for the first two values)
    table = synth_table([1e-1, 5e-2, 2e-2], lambda v: {"L1_big_lam": value}, axis="delta")
    fit = fit_rate(table, "L1_big_lam")
    assert fit.r_squared == 1.0
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_nonpositive_axis_value():
    # a delta sweep may end at the exact laws, delta = 0, where log(axis)
    # is -inf; strict mode names the axis, drop mode fits the positive rows
    table = synth_table([1e-1, 5e-2, 2e-2, 0.0], lambda v: {"L1_p": 2.0 + v},
                        axis="delta")
    with pytest.raises(FitDegenerate, match="axis 'delta'"):
        fit_rate(table, "L1_p")
    fit = fit_rate(table, "L1_p", drop_nonpositive=True)
    expected = np.polyfit(np.log([1e-1, 5e-2, 2e-2]), np.log([2.1, 2.05, 2.02]), 1)
    assert fit.n_points == 3
    assert fit.slope == pytest.approx(expected[0], rel=1e-12)


def test_resolve_metric():
    assert resolve_metric("L1_p") == "final_L1_p"
    assert resolve_metric("final_L1_p") == "final_L1_p"
    assert resolve_metric("max_L1_p") == "max_L1_p"
    # bare name wins over aggregate-prefix parsing
    assert resolve_metric("max_divu_congested") == "final_max_divu_congested"
    assert resolve_metric("max_max_divu_congested") == "max_max_divu_congested"
    with pytest.raises(ConfigError):
        resolve_metric("enstrophy")


def table_of(gamma, beta, tag, **fixed):
    """A sweep table whose four classifier slopes are exactly the
    ``tag`` column of the (gamma, beta) exponent table; ``fixed`` metrics
    replace a power law by a constant."""
    column = limit_exponents(_params(gamma, beta))[tag]
    return synth_table(EPS4, lambda v: {**{m: v**e for m, e in column.items()}, **fixed},
                       params={"gamma": gamma, "beta": beta})


def test_classify_pressure_no_memory():
    table = table_of(3.0, 2.0, RegimeTag.PRESSURE_NO_MEMORY)
    res = classify_limit(table, _params(3.0, 2.0))
    assert res.observed is RegimeTag.PRESSURE_NO_MEMORY
    assert res.expected is RegimeTag.PRESSURE_NO_MEMORY
    assert res.agrees
    assert res.evidence["slope_L1_big_lam"] == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert res.evidence["predicted_L1_big_lam"] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert res.evidence["deviation"] < 1e-10
    assert "observed=PressureNoMemory" in res.summary()


def test_classify_memory_no_pressure():
    table = table_of(1.5, 3.0, RegimeTag.MEMORY_NO_PRESSURE)
    res = classify_limit(table, _params(1.5, 3.0))
    assert res.observed is RegimeTag.MEMORY_NO_PRESSURE
    assert res.agrees


def test_classify_memory_and_pressure():
    # at s = 0, or within regime()'s 1e-12 of it, the three columns are one:
    # the three-way tie goes to regime(), however far L1_p lies from 0
    for beta in (3.0, 3.0 + 1e-13):
        columns = limit_exponents(_params(2.0, beta))
        column = columns[RegimeTag.MEMORY_AND_PRESSURE]
        assert all(columns[tag] == column for tag in RegimeTag)
        table = synth_table(EPS4, lambda v: {**{m: v**e for m, e in column.items()},
                                             "L1_p": v**0.006})
        res = classify_limit(table, _params(2.0, beta))
        assert res.observed is RegimeTag.MEMORY_AND_PRESSURE and res.agrees, beta


def test_classify_tie_goes_to_the_expected_regime():
    # at (2.2, 3) PressureNoMemory and MemoryAndPressure both predict a flat
    # L1_p; an L1_p slope of 0.09 is the largest deviation from either, so
    # the two tie, and MemoryAndPressure comes first in RegimeTag
    columns = limit_exponents(_params(2.2, 3.0))
    pnm, mp = columns[RegimeTag.PRESSURE_NO_MEMORY], columns[RegimeTag.MEMORY_AND_PRESSURE]
    mid = {m: (pnm[m] + mp[m]) / 2 for m in pnm}
    table = synth_table(EPS4, lambda v: {**{m: v**e for m, e in mid.items()}, "L1_p": v**0.09})
    res = classify_limit(table, _params(2.2, 3.0))
    assert res.evidence["deviation"] == pytest.approx(0.09, abs=1e-10)
    assert res.observed is RegimeTag.PRESSURE_NO_MEMORY and res.agrees


@pytest.mark.parametrize("gamma, beta, tag", [
    (2.2, 3.0, RegimeTag.PRESSURE_NO_MEMORY),
    (2.0, 3.2, RegimeTag.MEMORY_NO_PRESSURE),
])
def test_classify_near_the_boundary(gamma, beta, tag):
    # |s| = 0.2: the decaying slope is 0.091, and the table still tells the
    # regime apart from MemoryAndPressure
    res = classify_limit(table_of(gamma, beta, tag), _params(gamma, beta))
    assert res.observed is tag and res.agrees


def test_classify_disagreement_is_reported():
    # at (2.2, 3) a flat L1_big_lam lies on the MemoryAndPressure column,
    # 0.09 from the PressureNoMemory column that regime() predicts
    table = table_of(2.2, 3.0, RegimeTag.MEMORY_AND_PRESSURE)
    res = classify_limit(table, _params(2.2, 3.0))
    assert res.observed is RegimeTag.MEMORY_AND_PRESSURE
    assert res.expected is RegimeTag.PRESSURE_NO_MEMORY
    assert not res.agrees


def test_classify_unclassifiable():
    table = synth_table(EPS4, lambda v: {"mp_residual": 1.0})
    with pytest.raises(Unclassifiable) as exc_info:
        classify_limit(table, _params(2.0, 3.0))
    ev = exc_info.value.evidence
    assert ev is not None and "slope_L1_p" in ev
    assert ev["deviation"] == pytest.approx(0.5, abs=1e-10) and ev["slope_tol"] == 0.1


def test_classify_zero_pressure_is_unclassifiable():
    # L1_p = 0 in every row leaves no pressure slope, and a missing slope
    # matches no column, however well the other three match
    table = table_of(3.0, 2.0, RegimeTag.PRESSURE_NO_MEMORY, L1_p=0.0)
    with pytest.raises(Unclassifiable) as exc_info:
        classify_limit(table, _params(3.0, 2.0))
    assert np.isnan(exc_info.value.evidence["slope_L1_p"])


def test_classify_2d_sweeps():
    # rotation_squeeze at n = 32: (2, 5) agrees, and the (2, 3.2) sweep read
    # with the parameters (2.2, 3) lies 0.12 from the nearest column
    def rotation(gamma, beta):
        return RunConfig(dim=2, n=32, t_end=1.0, epsilon=1e-1, gamma=gamma, beta=beta,
                         scenario="rotation_squeeze",
                         scenario_params={"rho0": 0.6, "f0": 300.0, "rot": 20.0})

    res = classify_limit(sweep(rotation(2.0, 5.0), "epsilon", EPS4), _params(2.0, 5.0))
    assert res.observed is RegimeTag.MEMORY_NO_PRESSURE and res.agrees
    with pytest.raises(Unclassifiable):
        classify_limit(sweep(rotation(2.0, 3.2), "epsilon", EPS4), _params(2.2, 3.0))


def test_classify_requires_epsilon_axis_and_rows():
    table = synth_table(EPS4, lambda v: {"L1_p": v}, axis="delta")
    with pytest.raises(ConfigError):
        classify_limit(table, _params(2.0, 3.0))
    small = synth_table(EPS4[:2], lambda v: {"L1_p": v})
    with pytest.raises(SweepDegenerate):
        classify_limit(small, _params(2.0, 3.0))


def _params(gamma, beta):
    from brinkflow import LawParams
    return LawParams(epsilon=1e-2, delta=0.0, gamma=gamma, beta=beta)


def test_sweep_table_roundtrip(tmp_path):
    table = synth_table(EPS4[:3], lambda v: {"L1_p": 2.0 * v})
    table.rows.append(SweepRow(1e-5, "failed:SolverDiverged", {}))
    table.params["scenario"] = "compression"
    path = tmp_path / "sweep.csv"
    table.save(path)
    back = SweepTable.load(path)
    assert back.axis == "epsilon"
    assert back.params["scenario"] == "compression"
    assert back.params["gamma"] == 2.0
    assert len(back.rows) == 4
    assert back.rows[-1].status == "failed:SolverDiverged"
    assert back.rows[-1].metrics == {}
    for a, b in zip(table.rows[:3], back.rows[:3]):
        assert b.value == a.value and b.ok
        for key, val in a.metrics.items():
            assert b.metrics[key] == val   # %.17g round-trips float64 exactly
    with pytest.raises(ConfigError):
        (tmp_path / "noheader.csv").write_text("value,status\n1.0,ok\n")
        SweepTable.load(tmp_path / "noheader.csv")


def test_sweep_runs_and_aggregates(tmp_path):
    cfg = parse_config(BASE_TEXT)
    table = sweep(cfg, "epsilon", [1e-2, 1e-3, 1e-4], outdir=str(tmp_path))
    assert [r.ok for r in table.rows] == [True, True, True]
    assert (tmp_path / "sweep.csv").exists()
    rundirs = sorted(tmp_path.glob("run_*"))
    assert len(rundirs) == 3
    for d in rundirs:
        assert (d / "diagnostics.csv").exists()
    # uniform density: L1_p is proportional to epsilon, slope exactly 1
    fit = fit_rate(table, "L1_p")
    assert fit.slope == pytest.approx(1.0, abs=1e-9)
    # the uniform density does not feel epsilon: every slope is 1, far from
    # every column of the exponent table
    with pytest.raises(Unclassifiable):
        classify_limit(table, cfg.law_params())


def test_from_runs_builds_the_sweep_table(tmp_path):
    # records in hand give the table, and the file, that sweep writes
    cfg = parse_config(BASE_TEXT)
    values = [1e-2, 1e-3, 1e-4]
    table = sweep(cfg, "epsilon", values, outdir=str(tmp_path / "sweep"))
    runs = [(v, run_simulation(dataclasses.replace(cfg, epsilon=v))[1]) for v in values]
    built = SweepTable.from_runs(cfg, "epsilon", runs)
    assert built == table
    built.save(tmp_path / "sweep.csv")
    assert ((tmp_path / "sweep.csv").read_bytes()
            == (tmp_path / "sweep" / "sweep.csv").read_bytes())
    stall = SolverDiverged("forced stall", report=SolveReport(1, 1.0, False))
    failed = SweepTable.from_runs(cfg, "epsilon", runs + [(1e-5, stall)])
    assert failed.rows == table.rows + [SweepRow(1e-5, "failed:SolverDiverged", {})]


def test_sweep_header_holds_config_keys(tmp_path):
    cfg = parse_config(BASE_TEXT)
    sweep(cfg, "epsilon", [1e-2, 1e-3, 1e-4], outdir=str(tmp_path))
    header = {}
    for line in (tmp_path / "sweep.csv").read_text().splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            header[key] = val
    assert header.pop("axis") == "epsilon"
    expected = {f.name for f in dataclasses.fields(RunConfig)} - {"scenario_params"}
    assert set(header) == expected
    assert header["scenario"] == "equilibrium" and header["n"] == "16"
    assert float(header["epsilon"]) == cfg.epsilon
    assert float(header["snapshot_every"]) == 0.0


def test_sweep_header_tells_snapshot_intervals_apart(tmp_path):
    # the header records the whole configuration, outputs included: two
    # sweeps that differ only in their snapshot interval (the same runs,
    # other snapshots on disk) must not have the same header
    cfg = parse_config(BASE_TEXT)
    heads = []
    for every in (0.0, 0.01):
        out = tmp_path / f"every_{every}"
        sweep(dataclasses.replace(cfg, snapshot_every=every), "epsilon", [1e-2, 1e-3, 1e-4],
              outdir=str(out))
        heads.append([line for line in (out / "sweep.csv").read_text().splitlines()
                      if line.startswith("#")])
    assert heads[0] != heads[1]
    assert "# snapshot_every=0.01" in heads[1]


def test_sweep_header_records_scenario_params(tmp_path):
    cfg = parse_config(BASE_TEXT)
    table = sweep(cfg, "epsilon", [1e-2, 1e-3, 1e-4], outdir=str(tmp_path))
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    head = [line for line in lines if line.startswith("#")]
    config_lines = [line for line in head if line.startswith("# ")]
    # the config lines come first, then one line per scenario parameter,
    # its value written to 17 digits like the config values
    assert head == config_lines + [f"## scenario.rho0={0.3:.17g}"]
    assert config_lines[0] == "# axis=epsilon"
    back = SweepTable.load(tmp_path / "sweep.csv")
    assert back.scenario_params == {"rho0": 0.3} == table.scenario_params
    assert back.params == table.params
    def evidence(t):   # uniform density: every slope is 1, so no regime
        with pytest.raises(Unclassifiable) as exc_info:
            classify_limit(t, cfg.law_params())
        return exc_info.value.evidence

    assert evidence(back) == evidence(table)
    assert fit_rate(back, "L1_p") == fit_rate(table, "L1_p")


def test_time_loop_calls_no_np_roll(monkeypatch):
    # the stencils and the upwind shift slice, and the tridiagonal solve
    # shifts nothing; np.roll costs microseconds of overhead per call in a
    # step of a few hundred
    calls = 0
    roll = np.roll

    def counting_roll(*args, **kwargs):
        nonlocal calls
        calls += 1
        return roll(*args, **kwargs)

    monkeypatch.setattr(np, "roll", counting_roll)
    run_simulation(parse_config(
        "dim = 1\nn = 32\nt_end = 0.02\nepsilon = 1e-2\ngamma = 2\nbeta = 3\n"
        "scenario = compression\nscenario.f0 = 50\n"))
    run_simulation(parse_config(
        "dim = 2\nn = 8\nt_end = 0.02\nepsilon = 1e-2\ngamma = 2\nbeta = 3\n"
        "scenario = rotation_squeeze\n"))
    assert calls == 0


@pytest.mark.parametrize("dim", [1, 2])
def test_time_loop_calls_no_np_stack(dim, monkeypatch):
    # face vectors keep one (dim, *grid.shape) layout from the solves to the
    # record, so the time loop never re-stacks components
    calls = 0
    stack = np.stack

    def counting_stack(*args, **kwargs):
        nonlocal calls
        calls += 1
        return stack(*args, **kwargs)

    monkeypatch.setattr(np, "stack", counting_stack)
    scenario = "compression\nscenario.f0 = 50" if dim == 1 else "rotation_squeeze"
    run_simulation(parse_config(
        f"dim = {dim}\nn = {32 if dim == 1 else 8}\nt_end = 0.02\nepsilon = 1e-2\n"
        f"gamma = 2\nbeta = 3\nscenario = {scenario}\n"))
    assert calls == 0


def test_sweep_validation_and_degenerate(tmp_path):
    cfg = parse_config(BASE_TEXT)
    with pytest.raises(ConfigError):
        sweep(cfg, "gamma", [3.0, 2.0])
    with pytest.raises(ConfigError):
        sweep(cfg, "epsilon", [1e-3, 1e-2])
    with pytest.raises(ConfigError):
        sweep(cfg, "epsilon", [1e-2])
    with pytest.raises(SweepDegenerate) as exc_info:
        sweep(cfg, "epsilon", [1e-2, 1e-3])
    assert len(exc_info.value.table.ok_rows()) == 2


@pytest.mark.parametrize("extra, values", [
    ("", [0.1, 0.01, 0.0]),
    ("", [0.1, 0.01, math.nan, 0.001]),
    ("scenario.f0 = 5.0\n", [0.1, 0.01, 0.001]),   # equilibrium has no f0
], ids=["zero_epsilon", "nan", "unknown_scenario_parameter"])
def test_sweep_validates_every_row_before_running(tmp_path, extra, values):
    # an invalid row fails the sweep before any row runs or writes
    with pytest.raises(ConfigError):
        sweep(parse_config(BASE_TEXT + extra), "epsilon", values, outdir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_sweep_records_failures(tmp_path):
    cfg = parse_config(OVERFLOW_TEXT)
    with pytest.raises(SweepDegenerate) as exc_info:
        sweep(cfg, "epsilon", [1e-29, 1e-30, 1e-31], outdir=str(tmp_path))
    table = exc_info.value.table
    assert all(r.status == "failed:CongestionOverflow" for r in table.rows)
    # the table is still written for post-mortems
    assert (tmp_path / "sweep.csv").exists()
    loaded = SweepTable.load(tmp_path / "sweep.csv")
    assert all(not r.ok for r in loaded.rows)


def test_sweep_records_solver_stall(tmp_path, stall_momentum):
    # the first run stalls after one step; the other runs complete
    stall_momentum(1)
    table = sweep(parse_config(BASE_TEXT), "epsilon", [1e-1, 1e-2, 1e-3, 1e-4],
                  outdir=str(tmp_path))
    assert [r.status for r in table.rows] == ["failed:SolverDiverged"] + ["ok"] * 3
    assert table.rows[0].metrics == {}
    partial = sorted(tmp_path.glob("run_00_*"))[0] / "diagnostics.csv"
    assert len(partial.read_text().splitlines()) == 2   # header + one record
    loaded = SweepTable.load(tmp_path / "sweep.csv")
    assert loaded.rows[0].status == "failed:SolverDiverged"


def test_write_report(tmp_path):
    table = table_of(3.0, 2.0, RegimeTag.PRESSURE_NO_MEMORY, mp_residual=1e-3)
    res = classify_limit(table, _params(3.0, 2.0))
    path = tmp_path / "report.txt"
    write_report(path, table, classification=res)
    text = path.read_text()
    assert "slope[L1_big_lam] = 0.6667" in text
    (line,) = [ln for ln in text.splitlines() if ln.startswith("classification: ")]
    assert "observed=PressureNoMemory expected=PressureNoMemory agrees=True" in line
    assert "slope_L1_big_lam=0.667" in line and "predicted_L1_big_lam=0.667" in line
    assert "slope_tol=0.1" in line and "threshold" not in line
    write_report(path, table, error="no rule fired")
    assert "classification failed: no rule fired" in path.read_text()
