"""Harness tests: config parsing, scenarios, the time loop, sweeps, rate
fits, and regime classification on synthetic tables."""

import dataclasses
import importlib
import importlib.util
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
    CongestionOverflow,
    ConfigError,
    FitDegenerate,
    RegimeTag,
    RunConfig,
    SolverDiverged,
    SweepDegenerate,
    SweepRow,
    SweepTable,
    SWEEP_METRICS,
    Unclassifiable,
    build_scenario,
    classify_limit,
    fit_rate,
    load_config,
    parse_config,
    read_snapshot,
    resolve_metric,
    run_simulation,
    sweep,
    write_diagnostics_csv,
    write_report,
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


def test_snapshots_written(tmp_path):
    from dataclasses import replace
    cfg = replace(parse_config(BASE_TEXT), snapshot_every=0.02)
    run_simulation(cfg, outdir=str(tmp_path))
    snaps = sorted((tmp_path / "snapshots").glob("*_rho.txt"))
    assert len(snaps) >= 3
    times = []
    for path in snaps:
        values, meta = read_snapshot(path)
        assert values.shape == (16,)
        times.append(meta["time"])
    assert times[0] == 0.0
    assert all(b > a for a, b in zip(times, times[1:]))
    # velocity snapshots accompany the density ones
    assert len(sorted((tmp_path / "snapshots").glob("*_u0.txt"))) == len(snaps)


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
    # stop the compression, so halving the step 20 times cannot help
    cfg = parse_config(OVERFLOW_TEXT)
    with pytest.raises(CongestionOverflow) as exc_info:
        run_simulation(cfg)
    exc = exc_info.value
    assert exc.new_max_rho >= 1.0
    assert exc.records, "partial records should accompany the abort"
    assert exc.records[-1].dt > 0.0


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
    # still yields exactly the records of steps 0-4, found by redoing the
    # block one step at a time
    monkeypatch.setattr(brinkflow.diagnostics, "_BLOCK_CELLS", block_cells)
    cfg = parse_config(FORCED_TEXT)
    reference = fail_diagnostics(cfg, 5)
    assert len(reference) > 8
    with pytest.raises(SolverDiverged, match="forced flux stall") as exc_info:
        run_simulation(cfg)
    records = exc_info.value.records
    assert [r.csv_values() for r in records] == [r.csv_values() for r in reference[:5]]


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


@pytest.mark.parametrize("cfg", [
    _stiff_compression(1e-3),
    RunConfig(dim=2, n=16, t_end=0.05, epsilon=1e-2, gamma=2.0, beta=3.0,
              scenario="rotation_squeeze",
              scenario_params={"rho0": 0.6, "f0": 40.0, "rot": 20.0}),
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


def _gap_closing_transport(monkeypatch, times):
    """Make the time loop's density update close 60% of the gap to packing in
    cell 0 on its first ``times`` calls (below rho = 1, so only the gap rule
    rejects it)."""
    advect = brinkflow.harness.advect_density
    calls = 0

    def closing(rho, u, dt, params):
        nonlocal calls
        calls += 1
        new = advect(rho, u, dt, params)
        if calls <= times:
            new.data[0] = rho.data[0] + 0.6 * (1.0 - rho.data[0])
        return new

    monkeypatch.setattr(brinkflow.harness, "advect_density", closing)


def test_gap_rejection_halves_dt(monkeypatch):
    cfg = parse_config(BASE_TEXT)
    _gap_closing_transport(monkeypatch, times=1)
    state, records = run_simulation(cfg)
    full = cfg.cfl * cfg.make_grid().dx
    assert records[0].dt == pytest.approx(0.5 * full, rel=1e-12)
    assert records[1].dt == pytest.approx(full, rel=1e-12)
    # the rejected update was not committed
    assert float(np.max(state.rho.data)) == 0.3


def test_gap_rejection_budget_exhausted_attaches_records(monkeypatch):
    cfg = parse_config(BASE_TEXT)
    _gap_closing_transport(monkeypatch, times=10**6)
    with pytest.raises(CongestionOverflow) as exc_info:
        run_simulation(cfg)
    exc = exc_info.value
    assert exc.new_max_rho < 1.0
    assert [r.step for r in exc.records] == [0]
    full = cfg.cfl * cfg.make_grid().dx
    assert exc.records[0].dt == pytest.approx(full / 2**20, rel=1e-12)


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


def test_resolve_metric():
    assert resolve_metric("L1_p") == "final_L1_p"
    assert resolve_metric("final_L1_p") == "final_L1_p"
    assert resolve_metric("max_L1_p") == "max_L1_p"
    # bare name wins over aggregate-prefix parsing
    assert resolve_metric("max_divu_congested") == "final_max_divu_congested"
    assert resolve_metric("max_max_divu_congested") == "max_max_divu_congested"
    with pytest.raises(ConfigError):
        resolve_metric("enstrophy")


def test_classify_pressure_no_memory():
    # memory decays, pressure survives; rule 1
    table = synth_table(
        EPS4, lambda v: {"L1_big_lam": v**0.7, "L1_p": 1.0, "mp_residual": 1e-3},
        params={"gamma": 3.0, "beta": 2.0})
    res = classify_limit(table, _params(3.0, 2.0))
    assert res.observed is RegimeTag.PRESSURE_NO_MEMORY
    assert res.expected is RegimeTag.PRESSURE_NO_MEMORY
    assert res.agrees
    assert res.evidence["slope_L1_big_lam"] == pytest.approx(0.7, abs=1e-10)
    assert "observed=PressureNoMemory" in res.summary()


def test_classify_memory_no_pressure():
    table = synth_table(EPS4, lambda v: {"L1_p": v**0.5, "L1_big_lam": 2.0})
    res = classify_limit(table, _params(1.5, 3.0))
    assert res.observed is RegimeTag.MEMORY_NO_PRESSURE
    assert res.agrees


def test_classify_memory_and_pressure():
    table = synth_table(
        EPS4,
        lambda v: {"L1_p": 1.0, "L1_big_lam": 0.5, "mp_residual": 1e-14,
                   "excl_p": v**0.5, "excl_big_lam": v**0.45})
    res = classify_limit(table, _params(2.0, 3.0))
    assert res.observed is RegimeTag.MEMORY_AND_PRESSURE
    assert res.agrees


def test_classify_rule_order():
    # when both the memory-decay rule and the joint-limit rule would fire,
    # the memory-decay rule is checked first
    table = synth_table(
        EPS4,
        lambda v: {"L1_big_lam": v**0.7, "L1_p": 1.0, "mp_residual": 0.0,
                   "excl_p": v**0.5, "excl_big_lam": v**0.6})
    res = classify_limit(table, _params(3.0, 2.0))
    assert res.observed is RegimeTag.PRESSURE_NO_MEMORY


def test_classify_disagreement_is_reported():
    table = synth_table(EPS4, lambda v: {"L1_big_lam": v**0.7, "L1_p": 1.0,
                                         "mp_residual": 1.0})
    res = classify_limit(table, _params(2.0, 3.0))
    assert res.observed is RegimeTag.PRESSURE_NO_MEMORY
    assert res.expected is RegimeTag.MEMORY_AND_PRESSURE
    assert not res.agrees


def test_classify_unclassifiable():
    table = synth_table(EPS4, lambda v: {"mp_residual": 1.0})
    with pytest.raises(Unclassifiable) as exc_info:
        classify_limit(table, _params(2.0, 3.0))
    ev = exc_info.value.evidence
    assert ev is not None and "slope_L1_p" in ev


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
    res = classify_limit(table, cfg.law_params())
    assert res.observed is RegimeTag.MEMORY_AND_PRESSURE


def test_sweep_header_holds_config_keys(tmp_path):
    cfg = parse_config(BASE_TEXT)
    sweep(cfg, "epsilon", [1e-2, 1e-3, 1e-4], outdir=str(tmp_path))
    header = {}
    for line in (tmp_path / "sweep.csv").read_text().splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            header[key] = val
    assert header.pop("axis") == "epsilon"
    expected = {f.name for f in dataclasses.fields(RunConfig)} - {
        "snapshot_every", "scenario_params"}
    assert set(header) == expected
    assert header["scenario"] == "equilibrium" and header["n"] == "16"
    assert float(header["epsilon"]) == cfg.epsilon


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
    params = cfg.law_params()
    assert (classify_limit(back, params).summary()
            == classify_limit(table, params).summary())
    assert fit_rate(back, "L1_p") == fit_rate(table, "L1_p")


def test_time_loop_calls_no_np_roll(monkeypatch):
    # the stencils, the upwind shift and the tridiagonal solve slice; np.roll
    # costs microseconds of overhead per call in a step of a few hundred
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
    table = synth_table(EPS4, lambda v: {"L1_big_lam": v**0.7, "L1_p": 1.0,
                                         "mp_residual": 1e-3})
    res = classify_limit(table, _params(3.0, 2.0))
    path = tmp_path / "report.txt"
    write_report(path, table, classification=res)
    text = path.read_text()
    assert "slope[L1_big_lam] = 0.7000" in text
    assert "observed=PressureNoMemory" in text
    write_report(path, table, error="no rule fired")
    assert "classification failed: no rule fired" in path.read_text()
