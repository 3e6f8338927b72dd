"""Diagnostics tests: effective flux residuals, the congested-set columns,
the Poincare constant, the energy ledger arithmetic and its per-step
closure."""

import hashlib

import numpy as np
import pytest

import brinkflow.diagnostics
from brinkflow import (
    CSV_COLUMNS,
    DiagnosticsRecord,
    FaceVectorField,
    LawParams,
    RunConfig,
    ScalarField,
    SimState,
    build_record,
    energy_report,
    evaluate_laws,
    make_grid,
    poincare_constant,
    run_simulation,
    solve_momentum,
)
from brinkflow.grid import cell_coords, div_array, face_coords, grad_array
from brinkflow.transport import _upwind_flux

PARAMS = LawParams(epsilon=1e-2, delta=0.0, gamma=2.0, beta=3.0, mu=0.5, r=1.0)


def smooth_field(grid, rng, lo, hi):
    # low-mode random profile, bounded into [lo, hi]
    xs = cell_coords(grid)
    total = np.zeros(grid.shape)
    for k in (1, 2, 3):
        for x in xs:
            total += rng.uniform(-1, 1) * np.sin(2 * np.pi * k * x / grid.length)
            total += rng.uniform(-1, 1) * np.cos(2 * np.pi * k * x / grid.length)
    total /= max(1.0, float(np.max(np.abs(total))))
    return lo + (hi - lo) * 0.5 * (1.0 + total)


def _record(rho, u, f=None, params=PARAMS):
    """(record, S) of ``build_record`` for the state (rho, u), its memory
    field at the law value; f defaults to zero."""
    g = rho.grid
    f = FaceVectorField.zeros(g) if f is None else f
    big_lam = ScalarField(g, evaluate_laws(rho.data, params).big_lam.copy())
    return build_record(SimState(t=0.0, rho=rho, u=u, big_lam=big_lam), f, params)


def test_csv_columns():
    # the columns are DiagnosticsRecord's fields without a default, in field
    # order, so the field order is the diagnostics.csv contract
    assert CSV_COLUMNS == (
        "step", "t", "dt", "mass", "min_rho", "max_rho", "energy_H",
        "dissipation", "forcing_power", "flux_residual", "mean_relation_residual",
        "L1_p", "L1_lambda", "L1_big_lam", "excl_p", "excl_big_lam",
        "mp_residual", "meas_099", "meas_1md", "max_divu_congested",
    )


def test_flux_residual_manufactured():
    # for the converged velocity, F - mean(F) - S is solver noise only
    g = make_grid(1, 256)
    x = cell_coords(g)[0]
    rho = ScalarField(g, 0.3 + 0.1 * np.sin(2 * np.pi * x))
    f = FaceVectorField(g, (np.sin(2 * np.pi * face_coords(g, 0)[0]),))
    u, _ = solve_momentum(rho, f, PARAMS)
    rec, S = _record(rho, u, f)
    assert rec.flux_residual <= 1e-8
    assert rec.mean_relation_residual <= 1e-8
    # the residual is that of F = (2 mu + lam) div u - p, formed here
    vals = evaluate_laws(rho.data, PARAMS)
    F = (2 * PARAMS.mu + vals.lam) * div_array(u.components, g.dx) - vals.p
    assert np.max(np.abs(F - F.mean() - S.data)) == rec.flux_residual


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
def test_flux_residual_random_smooth_states(dim, n, rng):
    g = make_grid(dim, n)
    for _ in range(5):
        rho = ScalarField(g, smooth_field(g, rng, 0.1, 0.8))
        f = FaceVectorField(g, tuple(smooth_field(g, rng, -1.0, 1.0)
                                     for _ in range(dim)))
        u, _ = solve_momentum(rho, f, PARAMS)
        rec, _ = _record(rho, u, f)
        assert rec.flux_residual <= 100 * 1e-10   # 100 * solver tolerance
        assert rec.mean_relation_residual <= 100 * 1e-10


def test_congestion_report_counting():
    # the congested set is {rho >= 0.99}: of the four cells near it, the one
    # at exactly 0.99 counts and the next float below does not
    g = make_grid(1, 8)
    data = np.array([0.5, 0.99, 0.995, 0.992, np.nextafter(0.99, 0.0), 0.5, 0.5, 0.5])
    rho = ScalarField(g, data)
    u = FaceVectorField(g, (np.arange(8.0),))
    rec, _ = _record(rho, u)
    assert rec.meas_099 == pytest.approx(3.0 / 8.0, rel=1e-15)
    # div u = (u[i+1]-u[i])/dx = 8 in every cell except the wrap cell
    assert rec.max_divu_congested == pytest.approx(8.0, rel=1e-13)
    # beta = gamma + 1 makes rho*p = (beta-1)*big_lam exact on the set
    assert rec.mp_residual <= 1e-12 * evaluate_laws(0.995, PARAMS).p
    vals = evaluate_laws(data, PARAMS)
    assert rec.excl_p == pytest.approx(
        float(np.sum((1 - data) * vals.p)) / 8.0, rel=1e-14)
    assert rec.excl_big_lam == pytest.approx(
        float(np.sum((1 - data) * vals.big_lam)) / 8.0, rel=1e-14)


def test_congestion_report_empty_set():
    g = make_grid(1, 8)
    rec, _ = _record(ScalarField.full(g, 0.5), FaceVectorField.zeros(g))
    assert rec.meas_099 == 0.0 and rec.max_divu_congested == 0.0
    assert rec.mp_residual == 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_precomputed_laws_give_identical_results(dim, rng):
    g = make_grid(dim, 16)
    rho = ScalarField(g, smooth_field(g, rng, 0.3, 0.98))
    f = FaceVectorField(g, tuple(rng.normal(size=g.shape) for _ in range(dim)))
    vals = evaluate_laws(rho.data, PARAMS)
    u, rep = solve_momentum(rho, f, PARAMS)
    u_pre, rep_pre = solve_momentum(rho, f, PARAMS, laws=vals)
    assert rep == rep_pre
    for a, b in zip(u.components, u_pre.components):
        assert np.array_equal(a, b)


def test_mp_identity_requires_beta_gamma_plus_one():
    g = make_grid(1, 8)
    rho = ScalarField.full(g, 0.995)
    u = FaceVectorField.zeros(g)
    ok, _ = _record(rho, u)
    assert ok.mp_residual <= 1e-10
    off = LawParams(epsilon=1e-2, delta=0.0, gamma=2.0, beta=2.5)
    bad, _ = _record(rho, u, params=off)
    assert bad.mp_residual > 1e-3


def test_exclusion_identity(rng):
    # (1-rho)*p = eps^(1/gamma) * rho * p^((gamma-1)/gamma) summed over cells
    g = make_grid(1, 32)
    data = rng.uniform(0.05, 0.95, g.shape)
    rho = ScalarField(g, data)
    rec, _ = _record(rho, FaceVectorField.zeros(g))
    p = evaluate_laws(data, PARAMS).p
    eps, gamma = PARAMS.epsilon, PARAMS.gamma
    rhs = float(np.sum(eps ** (1 / gamma) * data * p ** ((gamma - 1) / gamma))) / g.n
    assert rec.excl_p == pytest.approx(rhs, rel=1e-12)


def test_poincare_constant_1d_analytic():
    g = make_grid(1, 64)
    c = poincare_constant(g)
    exact = 1.0 / ((4.0 / g.dx**2) * np.sin(np.pi / g.n) ** 2)
    assert c == pytest.approx(exact, rel=1e-9)
    # frozen regression value
    assert c == pytest.approx(0.02535065077098811, rel=1e-10)


def test_poincare_constant_2d_matches_1d():
    # the lowest nonzero Laplacian eigenvalue on the square torus is the 1D one
    c1 = poincare_constant(make_grid(1, 16))
    c2 = poincare_constant(make_grid(2, 16))
    assert c2 == pytest.approx(c1, rel=1e-8)


def _rec(**kw):
    base = {name: 0.0 for name in CSV_COLUMNS}
    base.update(step=0, momentum_iters=0, poisson_iters=0,
                sum_divu2=0.0, sum_curl2=0.0, f_l2sq=0.0,
                big_lam_pde_l1=0.0, big_lam_drift_l1=0.0)
    base.update(kw)
    return DiagnosticsRecord(**base)


def test_energy_report_arithmetic():
    records = [
        _rec(t=0.0, dt=0.1, energy_H=1.00, dissipation=0.5, forcing_power=0.1),
        _rec(t=0.1, dt=0.1, energy_H=0.90, dissipation=0.4, forcing_power=0.2),
        _rec(t=0.2, dt=0.0, energy_H=0.85, dissipation=0.3, forcing_power=0.0),
    ]
    led = energy_report(records, PARAMS, make_grid(1, 8))
    np.testing.assert_allclose(led.drift, [0.0, -0.06, -0.09], atol=1e-14)
    assert led.final_drift == pytest.approx(-0.09, abs=1e-14)
    assert led.step_drift[0] == pytest.approx(-0.06, abs=1e-14)
    # zero forcing norm: the a-priori bound reduces to decay of the lhs
    assert led.bound_holds
    assert led.poincare_c > 0.0


def test_build_record_basic_quantities(rng):
    g = make_grid(1, 32)
    x = cell_coords(g)[0]
    rho = ScalarField(g, 0.4 + 0.2 * np.sin(2 * np.pi * x))
    f = FaceVectorField(g, (np.cos(2 * np.pi * face_coords(g, 0)[0]),))
    u, rep = solve_momentum(rho, f, PARAMS)
    vals = evaluate_laws(rho.data, PARAMS)
    state = SimState(t=0.25, rho=rho, u=u,
                     big_lam=ScalarField(g, vals.big_lam.copy()), step_count=7)
    rec, S = build_record(state, f, PARAMS, dt=0.01, momentum_iters=rep.iterations)
    assert rec.step == 7 and rec.t == 0.25 and rec.dt == 0.01
    assert rec.mass == pytest.approx(float(np.sum(rho.data)) / g.n, rel=1e-14)
    assert rec.min_rho == float(np.min(rho.data))
    assert rec.max_rho == float(np.max(rho.data))
    assert rec.energy_H == pytest.approx(float(np.sum(vals.h)) / g.n, rel=1e-14)
    assert rec.L1_p == pytest.approx(float(np.sum(np.abs(vals.p))) / g.n, rel=1e-14)
    assert rec.meas_099 == 0.0
    # big_lam initialized from the law: zero drift between PDE field and law
    assert rec.big_lam_drift_l1 == 0.0
    assert rec.momentum_iters == rep.iterations
    assert rec.dissipation > 0.0
    vals_list = rec.csv_values()
    assert len(vals_list) == 20
    assert vals_list[0] == 7 and vals_list[2] == 0.01
    assert S.data.shape == g.shape


# -- records built in blocks ------------------------------------------------------

@pytest.mark.parametrize("one_step", [True, False], ids=["K1", "default_K"])
def test_record_block_owns_its_data(one_step, rng, monkeypatch):
    # the block copies what ``add`` hands it: overwriting a step's arrays
    # before the flush leaves that step's record as it was
    g = make_grid(1, 64)
    if one_step:
        monkeypatch.setattr(brinkflow.diagnostics, "_BLOCK_CELLS", g.n**g.dim)
    rho = ScalarField(g, smooth_field(g, rng, 0.3, 0.98))
    f = FaceVectorField(g, (rng.normal(size=g.shape),))
    u, rep = solve_momentum(rho, f, PARAMS)
    big_lam = ScalarField(g, 0.9 * evaluate_laws(rho.data, PARAMS).big_lam)
    state = SimState(t=0.1, rho=rho, u=u, big_lam=big_lam, step_count=3)
    untouched = SimState(t=0.1, rho=ScalarField(g, rho.data.copy()),
                         u=FaceVectorField(g, (u.components[0].copy(),)),
                         big_lam=ScalarField(g, big_lam.data.copy()), step_count=3)
    expected, _ = build_record(untouched, f, PARAMS, dt=0.01,
                               momentum_iters=rep.iterations)

    block = brinkflow.diagnostics.RecordBlock(g, f, PARAMS)
    assert (block.capacity == 1) == one_step
    block.add(state, evaluate_laws(rho.data, PARAMS), div_array(u.components, g.dx),
              momentum_iters=rep.iterations, solve_dt=0.0, dt=0.01)
    for a in (rho.data, big_lam.data, *u.components):
        a[...] = 0.5
    block.flush()
    assert block.records == [expected]


_EXTRAS = ("sum_divu2", "sum_curl2", "f_l2sq", "big_lam_pde_l1", "big_lam_drift_l1",
           "momentum_iters", "poisson_iters")


def _records_digest(records):
    digest = hashlib.sha256()
    for rec in records:
        row = rec.csv_values() + [getattr(rec, name) for name in _EXTRAS]
        digest.update(np.array(row, dtype=float).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("cfg", [
    RunConfig(dim=1, n=64, t_end=1.6, epsilon=1e-2, gamma=2.0, beta=3.0,
              scenario="compression", scenario_params={"rho0": 0.6, "f0": 100.0}),
    # the truncated laws, and a congested set that forms (max rho 1.8)
    RunConfig(dim=1, n=128, t_end=0.35, epsilon=1e-2, gamma=2.0, beta=3.0, delta=0.05,
              scenario="spike", scenario_params={"rho0": 0.6, "amp": 4000.0, "width": 0.008}),
    # 256 cells: the default block holds 64 steps
    RunConfig(dim=2, n=16, t_end=1.0, epsilon=1e-2, gamma=2.0, beta=3.0,
              scenario="rotation_squeeze",
              scenario_params={"rho0": 0.6, "f0": 100.0, "rot": 20.0}),
], ids=["1d_compression", "1d_spike_delta", "2d_rotation_squeeze"])
def test_records_do_not_depend_on_block_size(cfg, monkeypatch):
    # the time loop builds its records K steps at a time; one step per
    # block, the default block and one block for the whole run give the
    # same records bit for bit
    _, records = run_simulation(cfg)
    cells = cfg.n**cfg.dim
    assert len(records) > brinkflow.diagnostics._BLOCK_CELLS // cells
    digests = {_records_digest(records)}
    for budget in (1, cells * (len(records) + 1)):
        monkeypatch.setattr(brinkflow.diagnostics, "_BLOCK_CELLS", budget)
        digests.add(_records_digest(run_simulation(cfg)[1]))
    assert len(digests) == 1


# -- the energy ledger, booked per step ---------------------------------------------

@pytest.mark.parametrize("cfg", [
    # criterion 7 at n = 64
    RunConfig(dim=1, n=64, t_end=1.0, epsilon=1e-2, gamma=2.0, beta=3.0,
              scenario="compression", scenario_params={"rho0": 0.6, "f0": 5.0}),
    RunConfig(dim=1, n=64, t_end=0.3, epsilon=1e-2, gamma=2.0, beta=3.0,
              scenario="compression", scenario_params={"rho0": 0.6, "f0": 600.0}),
    RunConfig(dim=2, n=16, t_end=0.2, epsilon=1e-2, gamma=2.0, beta=3.0,
              scenario="rotation_squeeze", scenario_params={"f0": 100.0, "rot": 20.0}),
], ids=["crit7", "congested", "2d"])
def test_energy_ledger_closes_per_step(cfg, monkeypatch):
    # with h' = (p + h)/rho, F_up the upwind flux of rho^n, dt the step taken
    # and dt_s the dt of the momentum solve, each step of the time loop
    # satisfies
    #   E^{n+1} - E^n + dt*diss - dt*forc = dt*D_up - dt*dt_s*L + sum(R) vol,
    # D_up = <grad h', F_up> + <p, div u> <= 0 the upwind dissipation,
    # L = sum(rho p' (div u)^2) vol >= 0 the damping of the linearised
    # pressure and R = h(rho^{n+1}) - h(rho^n) - h' (rho^{n+1} - rho^n) >= 0
    # the convexity remainder
    updates, solve_dts = [], []
    advect, solve = brinkflow.harness.advect_density, brinkflow.harness.solve_momentum

    def recording_density(rho, u, dt, params):
        new, taken = advect(rho, u, dt, params)
        updates.append((rho.data.copy(), u.components.copy(), new.data.copy(), taken))
        return new, taken

    def recording_solve(*args, **kwargs):
        solve_dts.append(kwargs["dt"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(brinkflow.harness, "advect_density", recording_density)
    monkeypatch.setattr(brinkflow.harness, "solve_momentum", recording_solve)
    _, records = run_simulation(cfg)
    assert len(updates) == len(records) - 1 == len(solve_dts) - 1 > 10
    params, grid = cfg.law_params(), cfg.make_grid()
    vol = grid.cell_volume
    split, bound = np.zeros(3), 0.0   # the parts and the closure bounds, summed
    for (rho, u, new_rho, dt), dt_s, rec, nxt in zip(updates, solve_dts, records,
                                                    records[1:]):
        assert rec.dt == dt
        vals, new_vals = evaluate_laws(rho, params), evaluate_laws(new_rho, params)
        slope = (vals.p + vals.h) / rho
        flux = [_upwind_flux(rho, c, a) for a, c in enumerate(u)]
        divu = div_array(u, grid.dx)
        d_up = ((grad_array(slope, grid.dx, grid.dim) * flux).sum()
                + (vals.p * divu).sum()) * vol
        lin = (rho * vals.dp * divu * divu).sum() * vol
        R = new_vals.h - vals.h - slope * (new_rho - rho)
        terms = np.array([dt * d_up, -dt * dt_s * lin, R.sum() * vol])
        lhs = nxt.energy_H - rec.energy_H + dt * (rec.dissipation - rec.forcing_power)
        scale = abs(rec.energy_H) + dt * (abs(rec.dissipation) + abs(rec.forcing_power))
        assert abs(lhs - terms.sum()) <= 1e-12 * scale, rec.step
        bound += 1e-12 * scale
        assert d_up <= 1e-12 * rec.dissipation, rec.step
        assert float(np.min(R)) >= -1e-13 * float(np.max(np.abs(vals.h))), rec.step
        split += terms
    ledger = energy_report(records, params, grid)
    # the ledger's drift is the sum of the three parts
    assert abs(split.sum() - ledger.final_drift) <= bound
