"""Diagnostics tests: effective flux residuals, congestion reports, the
Poincare constant, and the energy ledger arithmetic."""

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
    congestion_report,
    effective_flux_report,
    energy_report,
    evaluate_laws,
    make_grid,
    poincare_constant,
    run_simulation,
    solve_momentum,
)
from brinkflow.grid import cell_coords, div_array, face_coords

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


def test_csv_columns():
    assert len(CSV_COLUMNS) == 20
    assert CSV_COLUMNS[0] == "step" and CSV_COLUMNS[1] == "t"
    assert "flux_residual" in CSV_COLUMNS and "mp_residual" in CSV_COLUMNS


def test_flux_residual_manufactured():
    # for the converged velocity, F - mean(F) - S is solver noise only
    g = make_grid(1, 256)
    x = cell_coords(g)[0]
    rho = ScalarField(g, 0.3 + 0.1 * np.sin(2 * np.pi * x))
    f = FaceVectorField(g, (np.sin(2 * np.pi * face_coords(g, 0)[0]),))
    u, _ = solve_momentum(rho, f, PARAMS)
    F, S, flux_res, mean_rel = effective_flux_report(rho, u, f, PARAMS)
    assert flux_res <= 1e-8
    assert mean_rel <= 1e-8
    # F really is (2 mu + lam) div u - p
    vals = evaluate_laws(rho.data, PARAMS)
    divu = div_array(u.components, g.dx)
    np.testing.assert_allclose(F.data, (2 * PARAMS.mu + vals.lam) * divu - vals.p,
                               rtol=1e-12)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
def test_flux_residual_random_smooth_states(dim, n, rng):
    g = make_grid(dim, n)
    for _ in range(5):
        rho = ScalarField(g, smooth_field(g, rng, 0.1, 0.8))
        f = FaceVectorField(g, tuple(smooth_field(g, rng, -1.0, 1.0)
                                     for _ in range(dim)))
        u, _ = solve_momentum(rho, f, PARAMS)
        _, _, flux_res, mean_rel = effective_flux_report(rho, u, f, PARAMS)
        assert flux_res <= 100 * 1e-10   # 100 * solver tolerance
        assert mean_rel <= 100 * 1e-10


def test_congestion_report_counting():
    g = make_grid(1, 8)
    data = np.array([0.5, 0.5, 0.995, 0.992, 0.5, 0.5, 0.5, 0.5])
    rho = ScalarField(g, data)
    u = FaceVectorField(g, (np.arange(8.0),))
    rep = congestion_report(rho, u, PARAMS)
    assert rep.measure == pytest.approx(2.0 / 8.0, rel=1e-15)
    # div u = (u[i+1]-u[i])/dx = 8 in every cell except the wrap cell
    assert rep.max_divu == pytest.approx(8.0, rel=1e-13)
    # beta = gamma + 1 makes rho*p = (beta-1)*big_lam exact on the set
    assert rep.mp_residual <= 1e-12 * evaluate_laws(0.995, PARAMS).p
    vals = evaluate_laws(data, PARAMS)
    assert rep.excl_p == pytest.approx(
        float(np.sum((1 - data) * vals.p)) / 8.0, rel=1e-14)
    assert rep.excl_big_lam == pytest.approx(
        float(np.sum((1 - data) * vals.big_lam)) / 8.0, rel=1e-14)


def test_congestion_report_empty_set():
    g = make_grid(1, 8)
    rho = ScalarField.full(g, 0.5)
    rep = congestion_report(rho, FaceVectorField.zeros(g), PARAMS)
    assert rep.measure == 0.0 and rep.max_divu == 0.0 and rep.mp_residual == 0.0


def test_congestion_report_matches_build_record(rng):
    # one congested-set routine: the report and the record agree exactly
    g = make_grid(1, 64)
    data = rng.uniform(0.5, 0.98, g.shape)
    data[[3, 17, 40]] = [0.995, 0.992, 0.999]
    rho = ScalarField(g, data)
    u = FaceVectorField(g, (rng.normal(size=g.shape),))
    f = FaceVectorField(g, (rng.normal(size=g.shape),))
    big_lam = ScalarField(g, evaluate_laws(data, PARAMS).big_lam.copy())
    rec, _ = build_record(SimState(t=0.0, rho=rho, u=u, big_lam=big_lam), f, PARAMS)
    rep = congestion_report(rho, u, PARAMS)
    assert rep.measure == pytest.approx(3.0 / 64.0) and rep.max_divu > 0.0
    assert (rep.measure, rep.max_divu, rep.mp_residual, rep.excl_p, rep.excl_big_lam) == (
        rec.meas_099, rec.max_divu_congested, rec.mp_residual, rec.excl_p,
        rec.excl_big_lam)


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
    state = SimState(t=0.1, rho=rho, u=u, big_lam=ScalarField(g, 0.9 * vals.big_lam))
    rec, S = build_record(state, f, PARAMS, step=3, dt=0.01)
    rec_pre, S_pre = build_record(state, f, PARAMS, step=3, dt=0.01, laws=vals)
    assert rec == rec_pre
    assert np.array_equal(S.data, S_pre.data)


def test_mp_identity_requires_beta_gamma_plus_one():
    g = make_grid(1, 8)
    rho = ScalarField.full(g, 0.995)
    u = FaceVectorField.zeros(g)
    ok = congestion_report(rho, u, PARAMS)
    assert ok.mp_residual <= 1e-10
    off = LawParams(epsilon=1e-2, delta=0.0, gamma=2.0, beta=2.5)
    bad = congestion_report(rho, u, off)
    assert bad.mp_residual > 1e-3


def test_exclusion_identity(rng):
    # (1-rho)*p = eps^(1/gamma) * rho * p^((gamma-1)/gamma) summed over cells
    g = make_grid(1, 32)
    data = rng.uniform(0.05, 0.95, g.shape)
    rho = ScalarField(g, data)
    rep = congestion_report(rho, FaceVectorField.zeros(g), PARAMS)
    p = evaluate_laws(data, PARAMS).p
    eps, gamma = PARAMS.epsilon, PARAMS.gamma
    rhs = float(np.sum(eps ** (1 / gamma) * data * p ** ((gamma - 1) / gamma))) / g.n
    assert rep.excl_p == pytest.approx(rhs, rel=1e-12)


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
                     big_lam=ScalarField(g, vals.big_lam.copy()))
    rec, S = build_record(state, f, PARAMS, step=7, dt=0.01,
                          momentum_iters=rep.iterations)
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

_EXTRAS = ("sum_divu2", "sum_curl2", "f_l2sq", "big_lam_pde_l1", "big_lam_drift_l1",
           "momentum_iters", "poisson_iters")


def _records_digest(records):
    digest = hashlib.sha256()
    for rec in records:
        row = rec.csv_values() + [getattr(rec, name) for name in _EXTRAS]
        digest.update(np.array(row, dtype=float).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("cfg", [
    RunConfig(dim=1, n=64, t_end=0.4, epsilon=1e-2, gamma=2.0, beta=3.0,
              scenario="compression", scenario_params={"rho0": 0.6, "f0": 100.0}),
    # the truncated laws, and a congested set that forms (max rho 1.8)
    RunConfig(dim=1, n=128, t_end=0.05, epsilon=1e-2, gamma=2.0, beta=3.0, delta=0.05,
              scenario="spike", scenario_params={"rho0": 0.6, "amp": 4000.0, "width": 0.008}),
    # 256 cells: the default block holds 16 steps
    RunConfig(dim=2, n=16, t_end=0.2, epsilon=1e-2, gamma=2.0, beta=3.0,
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
