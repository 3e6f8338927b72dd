"""Staggered-grid operator tests.

The discrete calculus identities (adjointness, div of the rotated curl,
curl of gradients) must hold to round-off: the solver and the effective-flux
diagnostic both rely on them exactly, not just to truncation order.
"""

import numpy as np
import pytest

from brinkflow import (
    ConfigError,
    FaceVectorField,
    Grid,
    ScalarField,
    cell_coords,
    curl,
    divergence,
    face_coords,
    gradient,
    make_grid,
    read_snapshot,
    write_snapshot,
)
from brinkflow.grid import curl_array, curl_t_array
from brinkflow.grid import div_array, grad_array, lower_neighbor, upper_neighbor


def random_scalar(grid, rng):
    return ScalarField(grid, rng.standard_normal(grid.shape))


def random_vector(grid, rng):
    return FaceVectorField(grid, tuple(rng.standard_normal(grid.shape)
                                       for _ in range(grid.dim)))


def test_make_grid_validation():
    g = make_grid(2, 8, length=2.0)
    assert g.dx == 0.25 and g.shape == (8, 8) and g.cell_volume == 0.0625
    with pytest.raises(ConfigError):
        make_grid(3, 8)
    with pytest.raises(ConfigError):
        make_grid(1, 3)
    with pytest.raises(ConfigError):
        make_grid(1, 8.5)
    with pytest.raises(ConfigError):
        make_grid(1, 8, length=0.0)


def test_field_shape_validation():
    g = make_grid(1, 8)
    with pytest.raises(ConfigError):
        ScalarField(g, np.zeros(7))
    with pytest.raises(ConfigError):
        FaceVectorField(g, (np.zeros(8), np.zeros(8)))
    with pytest.raises(ConfigError):
        FaceVectorField(g, (np.zeros(7),))
    g2 = make_grid(2, 8)
    with pytest.raises(ConfigError):   # ragged: not numpy's ValueError
        FaceVectorField(g2, (np.zeros((8, 8)), np.zeros((8, 7))))
    stacked = np.arange(8.0).reshape(1, 8)   # the (dim, n) layout itself
    assert np.array_equal(FaceVectorField(g, stacked).components, stacked)


def test_coordinate_layout():
    g = make_grid(1, 4, length=2.0)
    np.testing.assert_allclose(cell_coords(g)[0], [0.25, 0.75, 1.25, 1.75])
    np.testing.assert_allclose(face_coords(g, 0)[0], [0.0, 0.5, 1.0, 1.5])
    g2 = make_grid(2, 4, length=2.0)
    xf, yf = face_coords(g2, 1)
    # component 1 lives on y-faces: x at centers, y at edges
    assert xf[0, 0] == 0.25 and yf[0, 0] == 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_grad_div_adjointness(dim, rng):
    # <grad s, u> = -<s, div u> summed over the grid, exactly
    g = make_grid(dim, 16)
    for _ in range(5):
        s = random_scalar(g, rng)
        u = random_vector(g, rng)
        gs = gradient(s)
        lhs = sum(float(np.sum(gc * uc)) for gc, uc in zip(gs.components, u.components))
        rhs = -float(np.sum(s.data * divergence(u).data))
        assert lhs == pytest.approx(rhs, abs=1e-11)


def test_div_of_rotated_curl_vanishes(rng):
    g = make_grid(2, 16)
    for _ in range(5):
        w = rng.standard_normal(g.shape)
        u = FaceVectorField(g, curl_t_array(w, g.dx))
        assert float(np.max(np.abs(divergence(u).data))) <= 1e-12


def test_curl_of_gradient_vanishes(rng):
    g = make_grid(2, 16)
    for _ in range(5):
        s = random_scalar(g, rng)
        assert float(np.max(np.abs(curl(gradient(s)).data))) <= 1e-12


def test_curl_adjoint_pair(rng):
    # <curl u, w> at nodes = <u, curl^T w> at faces
    g = make_grid(2, 16)
    for _ in range(5):
        u = random_vector(g, rng)
        w = rng.standard_normal(g.shape)
        lhs = float(np.sum(curl_array(u.components, g.dx) * w))
        ct = curl_t_array(w, g.dx)
        rhs = sum(float(np.sum(a * b)) for a, b in zip(u.components, ct))
        assert lhs == pytest.approx(rhs, abs=1e-11)


def test_curl_in_one_dimension_is_zero(rng):
    g = make_grid(1, 16)
    u = random_vector(g, rng)
    assert float(np.max(np.abs(curl(u).data))) == 0.0


def _operator_error(n):
    # div/grad of a smooth periodic field vs the analytic result
    g = make_grid(1, n)
    k = 2 * np.pi
    s = ScalarField.from_function(g, lambda x: np.sin(k * x))
    grad_exact = k * np.cos(k * face_coords(g, 0)[0])
    err_g = float(np.max(np.abs(gradient(s).components[0] - grad_exact)))
    u = FaceVectorField.from_function(g, lambda x: np.sin(k * x))
    div_exact = k * np.cos(k * cell_coords(g)[0])
    err_d = float(np.max(np.abs(divergence(u).data - div_exact)))
    return err_g, err_d


def test_operator_convergence_second_order():
    eg1, ed1 = _operator_error(32)
    eg2, ed2 = _operator_error(64)
    assert np.log2(eg1 / eg2) > 1.9
    assert np.log2(ed1 / ed2) > 1.9


def test_curl_convergence_second_order():
    errs = []
    for n in (32, 64):
        g = make_grid(2, n)
        k = 2 * np.pi
        u = FaceVectorField.from_function(
            g, lambda x, y: -np.sin(k * y), lambda x, y: np.sin(k * x))
        # nodes sit at cell corners (i*dx, j*dx)
        e = np.arange(n) * g.dx
        xn, yn = np.meshgrid(e, e, indexing="ij")
        exact = k * np.cos(k * xn) + k * np.cos(k * yn)
        errs.append(float(np.max(np.abs(curl(u).data - exact))))
    assert np.log2(errs[0] / errs[1]) > 1.9


def test_snapshot_roundtrip(tmp_path):
    g = make_grid(1, 16, length=2.0)
    rng = np.random.default_rng(7)
    values = rng.uniform(0.1, 0.9, g.shape)
    path = tmp_path / "snap.txt"
    write_snapshot(path, "rho", g, values, 0.125)
    back, meta = read_snapshot(path)
    # %.17g output reproduces float64 exactly
    np.testing.assert_array_equal(back, values)
    assert meta["dim"] == 1 and meta["n"] == 16
    assert meta["length"] == 2.0 and meta["time"] == 0.125
    assert meta["field"] == "rho"


def test_snapshot_2d_shape(tmp_path):
    g = make_grid(2, 8)
    values = np.arange(64, dtype=float).reshape(8, 8) / 64.0
    path = tmp_path / "snap2.txt"
    write_snapshot(path, "u0", g, values, 1.0)
    back, meta = read_snapshot(path)
    np.testing.assert_array_equal(back, values)
    assert back.shape == (8, 8) and meta["field"] == "u0"


def test_snapshot_missing_header(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("# dim=1\n0.5\n")
    with pytest.raises(ConfigError):
        read_snapshot(path)


def test_snapshot_value_count_must_match_grid(tmp_path):
    path = tmp_path / "short.txt"
    write_snapshot(path, "rho", make_grid(2, 4), np.ones(15), 0.0)
    with pytest.raises(ConfigError, match="15 values"):
        read_snapshot(path)


def test_max_abs(rng):
    g = make_grid(2, 8)
    u = random_vector(g, rng)
    expected = max(float(np.max(np.abs(c))) for c in u.components)
    assert u.max_abs() == expected


@pytest.mark.parametrize("dim", [1, 2])
def test_stencils_equal_roll_form(dim, rng):
    # the stencils slice instead of calling np.roll, with the same operand
    # order, so they must agree with the roll form exactly, not to round-off
    g = make_grid(dim, 12)
    dx = g.dx
    s = rng.standard_normal(g.shape)
    comps = tuple(rng.standard_normal(g.shape) for _ in range(dim))
    ref_div = np.zeros(g.shape)
    for a, c in enumerate(comps):
        ref_div += np.roll(c, -1, axis=a) - c
    ref_div /= dx
    assert np.array_equal(div_array(comps, dx), ref_div)
    assert np.array_equal(div_array(np.stack(comps), dx), ref_div)
    for a, grad in enumerate(grad_array(s, dx, dim)):
        assert np.array_equal(grad, (s - np.roll(s, 1, axis=a)) / dx)
        assert np.array_equal(lower_neighbor(s, a), np.roll(s, 1, axis=a))
        assert np.array_equal(upper_neighbor(s, a), np.roll(s, -1, axis=a))
    if dim == 2:
        ux, uy = comps
        ref_curl = ((uy - np.roll(uy, 1, axis=0)) / dx
                    - (ux - np.roll(ux, 1, axis=1)) / dx)
        assert np.array_equal(curl_array(comps, dx), ref_curl)
        cx, cy = curl_t_array(s, dx)
        assert np.array_equal(cx, (np.roll(s, -1, axis=1) - s) / dx)
        assert np.array_equal(cy, -(np.roll(s, -1, axis=0) - s) / dx)
