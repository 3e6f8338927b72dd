"""Upwind transport tests.

The conservative form gives two exact discrete facts worth pinning down:
mass is conserved to round-off for any velocity, and a uniform velocity with
dt = dx/|u| shifts the field by exactly one cell.  With delta = 0 the density
update also cuts its step so that no cell closes more than half its gap to
packing, and raises CongestionOverflow when that cut would fall below its
floor.  The drift of the transported memory field from big_lam(rho) is
booked exactly, step by step, by the upwind renormalisation defect and the
convexity remainder of big_lam.
"""

import numpy as np
import pytest

import brinkflow.harness
from brinkflow import (
    CongestionOverflow,
    FaceVectorField,
    LawParams,
    RunConfig,
    ScalarField,
    advect_big_lambda,
    advect_density,
    evaluate_laws,
    make_grid,
    run_simulation,
    stable_dt,
)
from brinkflow.grid import cell_coords
from brinkflow.transport import _flux_divergence, _upwind_flux

EXACT = LawParams(epsilon=1e-2, delta=0.0, gamma=2.0, beta=3.0)
TRUNC = LawParams(epsilon=1e-2, delta=0.2, gamma=2.0, beta=3.0)


def test_stable_dt():
    g = make_grid(1, 32)
    u = FaceVectorField(g, (np.full(g.shape, -2.0),))
    assert stable_dt(u, g, 0.4) == 0.4 * g.dx / 2.0
    # below the unit reference speed the step is capped at cfl * dx
    slow = FaceVectorField(g, (np.full(g.shape, 0.5),))
    assert stable_dt(slow, g, 0.4) == 0.4 * g.dx
    assert stable_dt(FaceVectorField.zeros(g), g, 0.4) == 0.4 * g.dx


def test_zero_velocity_leaves_density_unchanged(rng):
    g = make_grid(2, 16)
    rho = ScalarField(g, rng.uniform(0.1, 0.8, g.shape))
    new, dt = advect_density(rho, FaceVectorField.zeros(g), 0.01, EXACT)
    np.testing.assert_array_equal(new.data, rho.data)
    assert dt == 0.01


def test_unit_cfl_shifts_exactly_one_cell(rng):
    # dt = dx/u makes the upwind update new[i] = rho[i-1] identically; a
    # cell may close more than half its gap, so the laws are truncated (no
    # gap cap)
    g = make_grid(1, 32)
    rho = ScalarField(g, rng.uniform(0.1, 0.8, g.shape))
    c = 0.7
    u = FaceVectorField(g, (np.full(g.shape, c),))
    new, dt = advect_density(rho, u, g.dx / c, TRUNC)
    np.testing.assert_allclose(new.data, np.roll(rho.data, 1), rtol=1e-13)
    assert dt == g.dx / c


def _translation_error(n):
    g = make_grid(1, n)
    x = cell_coords(g)[0]
    rho0 = 0.45 + 0.25 * np.sin(2 * np.pi * x)
    u = FaceVectorField(g, (np.ones(g.shape),))
    t_end = 0.5
    dt = 0.4 * g.dx
    steps = int(np.ceil(t_end / dt))
    dt = t_end / steps
    rho = ScalarField(g, rho0)
    for _ in range(steps):
        rho, taken = advect_density(rho, u, dt, EXACT)
        assert taken == dt
    exact = 0.45 + 0.25 * np.sin(2 * np.pi * (x - t_end))
    return float(np.sum(np.abs(rho.data - exact))) * g.dx


def test_translation_first_order_convergence():
    e1, e2 = _translation_error(64), _translation_error(128)
    ratio = e1 / e2
    assert 1.5 <= ratio <= 2.4, ratio


@pytest.mark.parametrize("dim", [1, 2])
def test_mass_conservation(dim, rng):
    g = make_grid(dim, 16)
    rho = ScalarField(g, rng.uniform(0.1, 0.5, g.shape))
    u = FaceVectorField(g, tuple(rng.uniform(-1.0, 1.0, g.shape)
                                 for _ in range(dim)))
    mass0 = float(np.sum(rho.data))
    dt = 0.2 * g.dx / u.max_abs() / dim
    # truncated laws: compression may legitimately exceed rho = 1 here
    for _ in range(50):
        rho, _ = advect_density(rho, u, dt, TRUNC)
    assert abs(float(np.sum(rho.data)) - mass0) <= 1e-12 * mass0


def test_positivity_preserved(rng):
    for dim, cfl in ((1, 0.4), (2, 0.2)):
        g = make_grid(dim, 16)
        for _ in range(10):
            data = rng.uniform(0.0, 0.9, g.shape)
            data[tuple(0 for _ in range(dim))] = 0.0
            rho = ScalarField(g, data)
            u = FaceVectorField(g, tuple(rng.uniform(-1.0, 1.0, g.shape)
                                         for _ in range(dim)))
            dt = cfl * g.dx / u.max_abs()
            new, _ = advect_density(rho, u, dt, TRUNC)
            assert float(np.min(new.data)) >= -1e-15


def _converging(g):
    """Velocity +0.5 on faces 0..3 and -0.5 on the others: cell 3 (faces 3
    and 4) is compressed, cell 7 expands, every other cell is advected."""
    return FaceVectorField(g, (np.where(np.arange(g.n) <= 3, 0.5, -0.5),))


def test_gap_cap_closes_exactly_half_the_gap():
    g = make_grid(1, 8)
    data = np.full(g.shape, 0.6)
    data[3] = 0.95
    rho = ScalarField(g, data)
    u = _converging(g)
    # cell 3 gains R = 0.5*(rho_2 + rho_4)/dx per unit time, the only gain
    rate = 0.5 * (data[2] + data[4]) / g.dx
    dt_gap = 0.5 * (1.0 - data[3]) / rate
    dt = 0.1 * g.dx
    assert dt_gap < dt
    new, taken = advect_density(rho, u, dt, EXACT)
    assert taken == pytest.approx(dt_gap, rel=1e-14)
    assert new.data[3] - data[3] == pytest.approx(0.5 * (1.0 - data[3]), rel=1e-12)
    # the input field was not modified
    assert float(np.max(rho.data)) == 0.95
    # a step that closes less than half of every gap is taken as offered
    slow, taken = advect_density(rho, u, 0.5 * dt_gap, EXACT)
    assert taken == 0.5 * dt_gap
    assert slow.data[3] - data[3] == pytest.approx(0.25 * (1.0 - data[3]), rel=1e-12)
    # with a truncation there is no cap: the step commits a value above 1
    new, taken = advect_density(rho, u, dt, TRUNC)
    assert taken == dt
    assert float(np.max(new.data)) == pytest.approx(data[3] + dt * rate, rel=1e-12)
    assert float(np.max(new.data)) > 1.0


def test_congestion_overflow_raised_before_commit():
    # within 1e-10 of packing, halving cell 3's gap needs a step below the
    # floor dt * 2**-20 of the cap
    g = make_grid(1, 8)
    rho0 = 1.0 - 1e-10
    rho = ScalarField.full(g, rho0)
    u = _converging(g)
    dt = 0.1 * g.dx
    with pytest.raises(CongestionOverflow) as exc_info:
        advect_density(rho, u, dt, EXACT)
    exc = exc_info.value
    assert exc.dt == dt * 2.0**-20
    # the update at the floor: cell 3 gains 0.5*(rho_2 + rho_4)*dt/dx
    assert exc.new_max_rho - rho0 == pytest.approx(rho0 * exc.dt / g.dx, rel=1e-6)
    assert exc.new_max_rho > 1.0
    # the input field was not modified
    assert float(np.max(rho.data)) == rho0
    # with a truncation the same step commits a value above 1
    new, taken = advect_density(rho, u, dt, TRUNC)
    assert taken == dt
    assert float(np.max(new.data)) == pytest.approx(rho0 * (1.0 + dt / g.dx), rel=1e-12)


def test_big_lambda_source_arithmetic():
    g = make_grid(1, 16)
    big = ScalarField.full(g, 2.0)
    lam = ScalarField.full(g, 3.0)
    divu = ScalarField.full(g, 0.5)
    new = advect_big_lambda(big, FaceVectorField.zeros(g), divu.data, lam.data, 0.01)
    np.testing.assert_allclose(new.data, 2.0 - 0.01 * 1.5, rtol=1e-15)


def test_big_lambda_pure_transport_shift(rng):
    g = make_grid(1, 32)
    big = ScalarField(g, rng.uniform(0.5, 1.5, g.shape))
    c = 1.0
    u = FaceVectorField(g, (np.full(g.shape, c),))
    zero = ScalarField.zeros(g)
    new = advect_big_lambda(big, u, zero.data, zero.data, g.dx / c)
    np.testing.assert_allclose(new.data, np.roll(big.data, 1), rtol=1e-13)


@pytest.mark.parametrize("dim", [1, 2])
def test_upwind_flux_equals_roll_form(dim, rng):
    g = make_grid(dim, 10)
    cell = rng.uniform(0.1, 0.9, g.shape)
    for axis in range(dim):
        u = rng.standard_normal(g.shape)
        u[(0,) * dim] = 0.0   # the u >= 0 branch at a zero velocity
        ref = u * np.where(u >= 0.0, np.roll(cell, 1, axis=axis), cell)
        assert np.array_equal(_upwind_flux(cell, u, axis), ref)


@pytest.mark.parametrize("cfg", [
    RunConfig(dim=1, n=64, t_end=0.3, epsilon=1e-2, gamma=2.0, beta=3.0,
              scenario="compression", scenario_params={"f0": 600.0}),
    RunConfig(dim=2, n=16, t_end=0.2, epsilon=1e-2, gamma=2.0, beta=3.0,
              scenario="rotation_squeeze", scenario_params={"f0": 100.0, "rot": 20.0}),
], ids=["1d", "2d"])
def test_memory_drift_closes_per_step(cfg, monkeypatch):
    # with e = big_lam_transported - big_lam(rho) and big_lam' = (big_lam +
    # lam)/rho, each step of the time loop satisfies
    #   sum(e^{n+1} - e^n) vol = -dt sum(D) vol - sum(R) vol,
    # D = div(up(big_lam(rho^n)) u) - big_lam' div(up(rho^n) u) + lam div u
    # the upwind renormalisation defect and R = big_lam(rho^{n+1}) -
    # big_lam(rho^n) - big_lam' (rho^{n+1} - rho^n) >= 0 the convexity
    # remainder
    densities, memories = [], []
    advect, advect_big = brinkflow.harness.advect_density, brinkflow.harness.advect_big_lambda

    def recording_density(rho, u, dt, params):
        new, taken = advect(rho, u, dt, params)
        densities.append((rho.data.copy(), new.data.copy()))
        return new, taken

    def recording_memory(big_lam, u, divu, lam, dt):
        new = advect_big(big_lam, u, divu, lam, dt)
        memories.append((big_lam.data.copy(), u, divu.copy(), lam.copy(), dt,
                         new.data.copy()))
        return new

    monkeypatch.setattr(brinkflow.harness, "advect_density", recording_density)
    monkeypatch.setattr(brinkflow.harness, "advect_big_lambda", recording_memory)
    state, _ = run_simulation(cfg)
    assert len(densities) == len(memories) == state.step_count > 10
    params, vol = cfg.law_params(), cfg.make_grid().cell_volume
    for (rho, new_rho), (big, u, divu, lam, dt, new_big) in zip(densities, memories):
        assert float(np.min(rho)) > 0.0
        big_lam, new_big_lam = (evaluate_laws(r, params).big_lam for r in (rho, new_rho))
        slope = (big_lam + lam) / rho
        D = (_flux_divergence(big_lam, u) - slope * _flux_divergence(rho, u)
             + lam * divu)
        R = new_big_lam - big_lam - slope * (new_rho - rho)
        drift = ((new_big - new_big_lam) - (big - big_lam)).sum() * vol
        closure = drift + dt * D.sum() * vol + R.sum() * vol
        assert abs(closure) <= 1e-12 * np.abs(big_lam).sum() * vol
        assert float(np.min(R)) >= -1e-13 * float(np.max(np.abs(big_lam)))
