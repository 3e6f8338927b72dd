"""Upwind transport tests.

The conservative form gives two exact discrete facts worth pinning down:
mass is conserved to round-off for any velocity, and a uniform velocity with
dt = dx/|u| shifts the field by exactly one cell.
"""

import numpy as np
import pytest

from brinkflow import (
    CongestionOverflow,
    FaceVectorField,
    LawParams,
    ScalarField,
    advect_big_lambda,
    advect_density,
    make_grid,
    stable_dt,
)
from brinkflow.grid import cell_coords
from brinkflow.transport import _upwind_flux

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
    new = advect_density(rho, FaceVectorField.zeros(g), 0.01, EXACT)
    np.testing.assert_array_equal(new.data, rho.data)


def test_unit_cfl_shifts_exactly_one_cell(rng):
    # dt = dx/u makes the upwind update new[i] = rho[i-1] identically
    g = make_grid(1, 32)
    rho = ScalarField(g, rng.uniform(0.1, 0.8, g.shape))
    c = 0.7
    u = FaceVectorField(g, (np.full(g.shape, c),))
    new = advect_density(rho, u, g.dx / c, EXACT)
    np.testing.assert_allclose(new.data, np.roll(rho.data, 1), rtol=1e-13)


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
        rho = advect_density(rho, u, dt, EXACT)
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
        rho = advect_density(rho, u, dt, TRUNC)
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
            new = advect_density(rho, u, dt, TRUNC)
            assert float(np.min(new.data)) >= -1e-15


def test_congestion_overflow_raised_before_commit():
    # converging velocity (+ left half, - right half) compresses the interior
    g = make_grid(1, 8)
    rho = ScalarField.full(g, 0.95)
    uvals = np.where(np.arange(8) <= 3, 0.5, -0.5)
    u = FaceVectorField(g, (uvals,))
    dt = 0.1 * g.dx
    with pytest.raises(CongestionOverflow) as exc_info:
        advect_density(rho, u, dt, EXACT)
    # cell 3 gains 0.5*(rho_2 + rho_4)*dt/dx = 0.95*1.1
    assert exc_info.value.new_max_rho == pytest.approx(1.045, rel=1e-12)
    # the input field was not modified
    assert float(np.max(rho.data)) == 0.95
    # with a truncation the same step commits a value above 1
    new = advect_density(rho, u, dt, TRUNC)
    assert float(np.max(new.data)) == pytest.approx(1.045, rel=1e-12)


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
