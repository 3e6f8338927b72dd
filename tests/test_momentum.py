"""Momentum and Poisson solver tests.

Single Fourier modes are eigenvectors of the constant-coefficient discrete
operator, which gives closed-form discrete solutions: the solver must match
them to its own tolerance, not merely to truncation order.
"""

from dataclasses import replace

import numpy as np
import pytest

import brinkflow.momentum
from brinkflow import (
    CompatibilityError,
    FaceVectorField,
    LawParams,
    ScalarField,
    SolverDiverged,
    apply_momentum_operator,
    compute_S,
    divergence,
    evaluate_laws,
    face_coords,
    gradient,
    make_grid,
    solve_momentum,
    solve_poisson_zero_mean,
)
from brinkflow.grid import cell_coords, curl_array, curl_t_array, div_array

PARAMS = LawParams(epsilon=1e-2, delta=0.0, gamma=2.0, beta=3.0, mu=0.5, r=1.0)


def test_constant_force_gives_uniform_velocity():
    # uniform rho: grad p = 0, and a constant field has div u = curl u = 0,
    # so A u = r u and the answer is f / r.
    g = make_grid(1, 32)
    rho = ScalarField.full(g, 0.3)
    f = FaceVectorField(g, (np.full(g.shape, 2.5),))
    u, rep = solve_momentum(rho, f, PARAMS)
    assert rep.converged
    np.testing.assert_allclose(u.components[0], 2.5 / PARAMS.r, rtol=1e-10)


def test_single_mode_discrete_solution_1d():
    # rho = 0 removes the pressure term and makes the coefficient 2*mu; the
    # discrete eigenvalue of -d/dx (c d/dx) on mode k is c*kh^2 with
    # kh = 2 sin(k dx/2)/dx.
    g = make_grid(1, 64)
    k = 2 * np.pi
    x = face_coords(g, 0)[0]
    f = FaceVectorField(g, (np.sin(k * x),))
    rho = ScalarField.zeros(g)
    u, rep = solve_momentum(rho, f, PARAMS)
    kh = 2.0 * np.sin(k * g.dx / 2.0) / g.dx
    exact = np.sin(k * x) / (2.0 * PARAMS.mu * kh**2 + PARAMS.r)
    assert rep.converged
    np.testing.assert_allclose(u.components[0], exact, atol=1e-9)
    # an eigenvector of the preconditioned operator converges immediately
    assert rep.iterations <= 3


def test_single_mode_discrete_solution_2d_solenoidal():
    # u = (sin(2 pi y), 0) is divergence-free, so only the curl term and the
    # drag act on it; same shifted-eigenvalue formula with coefficient mu.
    g = make_grid(2, 32)
    k = 2 * np.pi
    y = face_coords(g, 0)[1]
    f = FaceVectorField(g, (np.sin(k * y), np.zeros(g.shape)))
    rho = ScalarField.zeros(g)
    u, rep = solve_momentum(rho, f, PARAMS)
    kh = 2.0 * np.sin(k * g.dx / 2.0) / g.dx
    exact = np.sin(k * y) / (PARAMS.mu * kh**2 + PARAMS.r)
    assert rep.converged
    np.testing.assert_allclose(u.components[0], exact, atol=1e-9)
    assert float(np.max(np.abs(u.components[1]))) <= 1e-9
    assert float(np.max(np.abs(divergence(u).data))) <= 1e-7


@pytest.mark.parametrize("dim", [1, 2])
def test_operator_symmetry_and_positivity(dim, rng):
    g = make_grid(dim, 12)
    lam = np.exp(rng.standard_normal(g.shape))
    coef = 2.0 * PARAMS.mu + lam
    mk = lambda: FaceVectorField(g, tuple(rng.standard_normal(g.shape)
                                          for _ in range(dim)))
    for _ in range(4):
        u, v = mk(), mk()
        au = apply_momentum_operator(u, coef, PARAMS.mu, PARAMS.r)
        av = apply_momentum_operator(v, coef, PARAMS.mu, PARAMS.r)
        dot = lambda a, b: sum(float(np.sum(x * y))
                               for x, y in zip(a.components, b.components))
        assert dot(au, v) == pytest.approx(dot(u, av), rel=1e-11, abs=1e-11)
        assert dot(au, u) > 0.0


def test_operator_energy_identity(rng):
    # <A u, u> = sum coef*(div u)^2 + mu*sum (curl u)^2 + r*sum |u|^2
    g = make_grid(2, 12)
    lam = np.abs(rng.standard_normal(g.shape))
    coef = 2.0 * PARAMS.mu + lam
    u = FaceVectorField(g, tuple(rng.standard_normal(g.shape) for _ in range(2)))
    au = apply_momentum_operator(u, coef, PARAMS.mu, PARAMS.r)
    lhs = sum(float(np.sum(a * b)) for a, b in zip(au.components, u.components))
    divu = divergence(u).data
    w = curl_array(u.components, g.dx)
    rhs = float(np.sum(coef * divu**2)) + PARAMS.mu * float(np.sum(w**2)) \
        + PARAMS.r * sum(float(np.sum(c**2)) for c in u.components)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_integrated_drag_balance(rng):
    # summing A u over all faces telescopes the difference terms away, so
    # r * sum(u) = sum(f - grad p) for the converged solution
    g = make_grid(1, 48)
    rho = ScalarField(g, 0.3 + 0.2 * np.sin(2 * np.pi * cell_coords(g)[0]))
    f = FaceVectorField(g, (rng.standard_normal(g.shape),))
    u, _ = solve_momentum(rho, f, PARAMS)
    from brinkflow import evaluate_laws
    gp = gradient(ScalarField(g, evaluate_laws(rho.data, PARAMS).p))
    lhs = PARAMS.r * float(np.sum(u.components[0]))
    rhs = float(np.sum(f.components[0] - gp.components[0]))
    assert lhs == pytest.approx(rhs, abs=1e-8 * max(1.0, abs(rhs)))


def test_warm_start_with_exact_solution(rng):
    g = make_grid(1, 32)
    rho = ScalarField(g, 0.2 + 0.1 * np.sin(2 * np.pi * cell_coords(g)[0]))
    f = FaceVectorField(g, (rng.standard_normal(g.shape),))
    u, rep = solve_momentum(rho, f, PARAMS)
    assert rep.converged and rep.iterations > 0
    _, rep2 = solve_momentum(rho, f, PARAMS, u0=u)
    assert rep2.converged and rep2.iterations == 0


def test_solver_diverged_carries_report(rng, monkeypatch):
    # cut the inner flux CG's iteration budget to 1
    cg = brinkflow.momentum._cg
    monkeypatch.setattr(brinkflow.momentum, "_cg",
                        lambda op, b, tol, max_iter, precond: cg(op, b, tol, 1, precond))
    g = make_grid(2, 16)
    rho = ScalarField(g, 0.5 + 0.3 * np.sin(2 * np.pi * cell_coords(g)[0]))
    f = FaceVectorField(g, tuple(rng.standard_normal(g.shape) for _ in range(2)))
    with pytest.raises(SolverDiverged) as exc_info:
        solve_momentum(rho, f, PARAMS)
    rep = exc_info.value.report
    assert rep is not None and not rep.converged and rep.iterations == 1


def test_poisson_recovers_manufactured_discrete_field(rng):
    # g = -div(grad s_exact) is computed with the package's own operators, so
    # the solve must reproduce s_exact to the CG tolerance.
    for dim in (1, 2):
        g = make_grid(dim, 24)
        s_exact = rng.standard_normal(g.shape)
        s_exact -= s_exact.mean()
        rhs = ScalarField(g, -divergence(gradient(ScalarField(g, s_exact))).data)
        s, rep = solve_poisson_zero_mean(rhs)
        assert rep.converged
        np.testing.assert_allclose(s.data, s_exact, atol=1e-7)


def test_poisson_continuum_mode():
    g = make_grid(1, 64)
    x = cell_coords(g)[0]
    s, rep = solve_poisson_zero_mean(ScalarField(g, np.cos(2 * np.pi * x)))
    assert rep.converged
    assert abs(float(np.mean(s.data))) <= 1e-13
    exact = np.cos(2 * np.pi * x) / (4 * np.pi**2)
    assert float(np.max(np.abs(s.data - exact))) <= 2e-4


def test_poisson_rejects_nonzero_mean():
    g = make_grid(1, 16)
    with pytest.raises(CompatibilityError):
        solve_poisson_zero_mean(ScalarField.full(g, 1.0))


def test_poisson_zero_rhs():
    g = make_grid(1, 16)
    s, rep = solve_poisson_zero_mean(ScalarField.zeros(g))
    assert rep.converged and rep.iterations == 0
    assert float(np.max(np.abs(s.data))) == 0.0


def test_compute_s_vanishes_when_force_balances_drag(rng):
    g = make_grid(1, 32)
    u = FaceVectorField(g, (rng.standard_normal(g.shape),))
    f = FaceVectorField(g, (PARAMS.r * u.components[0],))
    s, rep = compute_S(u, f, PARAMS)
    assert float(np.max(np.abs(s.data))) == 0.0
    assert rep.iterations == 0


def test_compute_s_continuum_mode():
    # with u = 0 and f = sin(2 pi x)/(2 pi), S solves -Lap S = div f, whose
    # continuum solution is cos(2 pi x)/(4 pi^2)
    g = make_grid(1, 64)
    x = face_coords(g, 0)[0]
    u = FaceVectorField.zeros(g)
    f = FaceVectorField(g, (np.sin(2 * np.pi * x) / (2 * np.pi),))
    s, rep = compute_S(u, f, PARAMS)
    assert rep.converged
    xc = cell_coords(g)[0]
    exact = np.cos(2 * np.pi * xc) / (4 * np.pi**2)
    assert float(np.max(np.abs(s.data - exact))) <= 2e-4


def test_compute_s_1d_prefix_sum_matches_fft_solve(rng):
    # in 1D S is a prefix sum; it must agree with the FFT solve of
    # -Lap S = div(f - r u) to round-off and have zero mean
    g = make_grid(1, 64)
    u = FaceVectorField(g, (rng.standard_normal(g.shape),))
    f = FaceVectorField(g, (50.0 * rng.standard_normal(g.shape),))
    s, rep = compute_S(u, f, PARAMS)
    assert rep.converged and rep.iterations == 1
    assert rep.final_relative_residual <= 1e-10
    rhs = ScalarField(g, div_array((f.components[0] - PARAMS.r * u.components[0],), g.dx))
    ref, _ = solve_poisson_zero_mean(rhs)
    scale = float(np.max(np.abs(ref.data)))
    assert float(np.max(np.abs(s.data - ref.data))) <= 1e-12 * scale
    assert abs(float(np.mean(s.data))) <= 1e-15 * scale


@pytest.mark.parametrize("dim", [1, 2])
def test_compute_s_rejects_incompatible_rhs(dim, rng, monkeypatch):
    # div of a periodic field has zero mean up to round-off, so an
    # incompatible right-hand side needs a broken divergence
    g = make_grid(dim, 8)
    u = FaceVectorField(g, tuple(rng.standard_normal(g.shape) for _ in range(dim)))
    f = FaceVectorField.zeros(g)
    div = brinkflow.momentum.div_array
    monkeypatch.setattr(brinkflow.momentum, "div_array",
                        lambda comps, dx: div(comps, dx) + 1.0)
    with pytest.raises(CompatibilityError):
        compute_S(u, f, PARAMS)


def _reference_cyclic_solve(coef, r, dx, b):
    """The cyclic Thomas solve written plainly, with np.roll and separate
    sweeps; the package's fused loops must reproduce it bit for bit."""
    n = coef.size
    dx2 = dx * dx
    off = (-coef / dx2).tolist()
    diag = ((coef + np.roll(coef, 1)) / dx2 + r).tolist()
    corner = off[n - 1]
    g = -diag[0]
    diag[0] -= g
    diag[n - 1] -= corner * corner / g
    d = [0.0] * n
    lo = [0.0] * n
    d[0] = diag[0]
    for i in range(1, n):
        lo[i - 1] = off[i - 1] / d[i - 1]
        d[i] = diag[i] - lo[i - 1] * off[i - 1]

    def solve_t(rhs):
        y = rhs.tolist()
        for i in range(1, n):
            y[i] -= lo[i - 1] * y[i - 1]
        y[n - 1] /= d[n - 1]
        for i in range(n - 2, -1, -1):
            y[i] = y[i] / d[i] - lo[i] * y[i + 1]
        return np.array(y)

    gw = np.zeros(n)
    gw[0] = g
    gw[n - 1] = corner
    z = solve_t(gw)
    w_last = corner / g
    z_scale = 1.0 + z[0] + w_last * z[n - 1]
    y = solve_t(b)
    return y - ((y[0] + w_last * y[n - 1]) / z_scale) * z


@pytest.mark.parametrize("n", [5, 64])
def test_cyclic_solver_equals_reference_loops(n, rng):
    coef = 2.0 * PARAMS.mu + evaluate_laws(rng.uniform(0.2, 0.99, n), PARAMS).lam
    b = rng.standard_normal(n)
    dx = 1.0 / n
    solve = brinkflow.momentum._cyclic_tridiagonal_solver(coef, PARAMS.r, dx)
    x = solve(b[None, :])
    assert x.shape == (1, n)
    assert np.array_equal(x[0], _reference_cyclic_solve(coef, PARAMS.r, dx, b))
    # a second (refinement) solve reuses the factors of the first
    b2 = rng.standard_normal(n)
    assert np.array_equal(solve(b2[None, :])[0], _reference_cyclic_solve(coef, PARAMS.r, dx, b2))


# -- direct solves against dense references -------------------------------------

def _dense(apply_col, size):
    """Assemble a linear operator column by column from its action."""
    eye = np.eye(size)
    return np.column_stack([apply_col(eye[j]) for j in range(size)])


def _congested_state(g, rng):
    # rho in [0.2, 0.99] makes coef = 2*mu + lam span about four decades
    data = rng.uniform(0.2, 0.99, g.shape)
    data[g.n // 2] = 0.99
    return ScalarField(g, data)


@pytest.mark.parametrize("n", [5, 48])
def test_momentum_1d_matches_dense_reference(n, rng):
    # n = 5 is the smallest cyclic system the grid allows
    g = make_grid(1, n)
    rho = _congested_state(g, rng)
    f = FaceVectorField(g, (rng.standard_normal(g.shape),))
    vals = evaluate_laws(rho.data, PARAMS)
    coef = 2.0 * PARAMS.mu + vals.lam
    A = _dense(lambda e: apply_momentum_operator(
        FaceVectorField(g, (e,)), coef, PARAMS.mu, PARAMS.r).components[0], n)
    b = f.components[0] - gradient(ScalarField(g, vals.p)).components[0]
    ref = np.linalg.solve(A, b)
    u, rep = solve_momentum(rho, f, PARAMS)
    assert rep.converged and rep.iterations == 1
    err = np.linalg.norm(u.components[0] - ref) / np.linalg.norm(ref)
    assert err <= 1e-9


def test_poisson_2d_matches_dense_reference(rng):
    g = make_grid(2, 10)
    size = g.n**2
    L = _dense(lambda e: -divergence(gradient(ScalarField(g, e.reshape(g.shape))))
               .data.ravel(), size)
    rhs = rng.standard_normal(size)
    rhs -= rhs.mean()
    # adding the projector onto constants makes L invertible without
    # changing its action on the mean-zero subspace
    ref = np.linalg.solve(L + np.full((size, size), 1.0 / size), rhs)
    s, rep = solve_poisson_zero_mean(ScalarField(g, rhs.reshape(g.shape)))
    assert rep.converged and rep.iterations == 1
    np.testing.assert_allclose(s.data.ravel(), ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


def test_momentum_1d_reported_residual_is_measured(rng):
    g = make_grid(1, 16)
    rho = ScalarField(g, rng.uniform(0.2, 0.95, g.shape))
    f = FaceVectorField(g, (rng.standard_normal(g.shape),))
    u, rep = solve_momentum(rho, f, PARAMS)
    vals = evaluate_laws(rho.data, PARAMS)
    au = apply_momentum_operator(u, 2.0 * PARAMS.mu + vals.lam, PARAMS.mu, PARAMS.r)
    b = f.components[0] - gradient(ScalarField(g, vals.p)).components[0]
    rel = np.linalg.norm(b - au.components[0]) / np.linalg.norm(b)
    assert 0.0 < rep.final_relative_residual <= 1e-10
    assert rep.final_relative_residual == pytest.approx(rel, rel=1e-6)


@pytest.mark.parametrize("dim", [1, 2])
def test_poisson_reported_residual_is_measured(dim, rng):
    g = make_grid(dim, 16)
    rhs = rng.standard_normal(g.shape)
    rhs -= rhs.mean()
    s, rep = solve_poisson_zero_mean(ScalarField(g, rhs))
    rel = np.linalg.norm(rhs + divergence(gradient(s)).data) / np.linalg.norm(rhs)
    assert 0.0 < rep.final_relative_residual <= 1e-10
    assert rep.final_relative_residual == pytest.approx(rel, rel=1e-6)


def test_direct_solve_refines_once_then_gives_up():
    # a factorization accurate to 1e-6 meets tol after one refinement step;
    # one that returns nothing useful is reported as unconverged
    from brinkflow.momentum import _direct
    A = np.array([[4.0, -1.0, -1.0], [-1.0, 4.0, -1.0], [-1.0, -1.0, 4.0]])
    b = np.array([1.0, 2.0, 3.0])
    inv = np.linalg.inv(A)
    _, rep = _direct(lambda v: A @ v, lambda v: (1.0 + 1e-6) * (inv @ v), b, None, 1e-10)
    assert rep.converged and rep.iterations == 1
    assert rep.final_relative_residual <= 1e-10
    _, rep = _direct(lambda v: A @ v, lambda v: 0.5 * (inv @ v), b, None, 1e-10)
    assert not rep.converged and rep.final_relative_residual > 1e-10
    _, rep = _direct(lambda v: A @ v, lambda v: np.full(3, np.nan), b, None, 1e-10)
    assert not rep.converged


# -- 2D momentum solve through the viscous flux ------------------------------------

def _momentum_system(g, rho, f, params):
    """Dense A and right-hand side b of the momentum system on the flat unknowns."""
    vals = evaluate_laws(rho.data, params)
    coef = 2.0 * params.mu + vals.lam
    size = g.n**g.dim

    def column(e):
        u = FaceVectorField(g, tuple(e[a * size:(a + 1) * size].reshape(g.shape)
                                     for a in range(g.dim)))
        au = apply_momentum_operator(u, coef, params.mu, params.r)
        return np.concatenate([c.ravel() for c in au.components])

    gp = gradient(ScalarField(g, vals.p)).components
    b = np.concatenate([(f.components[a] - gp[a]).ravel() for a in range(g.dim)])
    return _dense(column, g.dim * size), b


def _flat(u):
    return np.concatenate([c.ravel() for c in u.components])


def test_div_annihilates_curl_adjoint(rng):
    # div curl^T = 0 is what reduces the 2D system to the scalar flux equation
    for n in (4, 7, 16):
        g = make_grid(2, n)
        w = rng.standard_normal(g.shape)
        ct = curl_t_array(w, g.dx)
        scale = float(np.max(np.abs(ct[0]))) / g.dx
        assert float(np.max(np.abs(div_array(ct, g.dx)))) <= 1e-14 * scale


def test_momentum_2d_matches_dense_reference(rng):
    g = make_grid(2, 6)
    rho = _congested_state(g, rng)
    f = FaceVectorField(g, tuple(rng.standard_normal(g.shape) for _ in range(2)))
    A, b = _momentum_system(g, rho, f, PARAMS)
    ref = np.linalg.solve(A, b)
    u, rep = solve_momentum(rho, f, PARAMS)
    assert rep.converged and rep.iterations > 0
    err = np.linalg.norm(_flat(u) - ref) / np.linalg.norm(ref)
    assert err <= 1e-9


def test_momentum_2d_reported_residual_is_measured(rng):
    g = make_grid(2, 16)
    rho = ScalarField(g, rng.uniform(0.2, 0.95, g.shape))
    f = FaceVectorField(g, tuple(rng.standard_normal(g.shape) for _ in range(2)))
    u, rep = solve_momentum(rho, f, PARAMS)
    vals = evaluate_laws(rho.data, PARAMS)
    au = apply_momentum_operator(u, 2.0 * PARAMS.mu + vals.lam, PARAMS.mu, PARAMS.r)
    gp = gradient(ScalarField(g, vals.p)).components
    b = np.concatenate([(f.components[a] - gp[a]).ravel() for a in range(2)])
    rel = np.linalg.norm(b - _flat(au)) / np.linalg.norm(b)
    assert 0.0 < rep.final_relative_residual <= 1e-10
    assert rep.final_relative_residual == pytest.approx(rel, rel=1e-6)


def test_momentum_2d_warm_start_with_exact_solution(rng):
    g = make_grid(2, 16)
    rho = _congested_state(g, rng)
    f = FaceVectorField(g, tuple(rng.standard_normal(g.shape) for _ in range(2)))
    u, rep = solve_momentum(rho, f, PARAMS)
    assert rep.converged and rep.iterations > 0
    u2, rep2 = solve_momentum(rho, f, PARAMS, u0=u)
    assert rep2.converged and rep2.iterations == 0
    assert all(np.array_equal(a, b) for a, b in zip(u2.components, u.components))


def test_momentum_2d_iterations_independent_of_contrast(rng):
    # at eps = 1e-4 and rho up to 0.995 the coefficient 2*mu + lam spans
    # nearly three decades; it enters the flux equation only at zero order,
    # so the inner CG count stays small (Jacobi CG on A took hundreds)
    params = LawParams(epsilon=1e-4, delta=0.0, gamma=2.0, beta=3.0, mu=0.5, r=1.0)
    g = make_grid(2, 32)
    for _ in range(3):
        data = rng.uniform(0.2, 0.995, g.shape)
        data[g.n // 2] = 0.995
        rho = ScalarField(g, data)
        f = FaceVectorField(g, tuple(rng.standard_normal(g.shape) for _ in range(2)))
        _, rep = solve_momentum(rho, f, params)
        assert rep.converged and rep.final_relative_residual <= 1e-10
        assert 0 < rep.iterations <= 40


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 16)])
def test_solve_momentum_dt_equals_doctored_lam(dim, n, rng):
    # the linearised pressure as an extra bulk viscosity, written by hand
    # into lam, is the reference for solve_momentum's dt
    g = make_grid(dim, n)
    rho = _congested_state(g, rng)
    f = FaceVectorField(g, tuple(rng.standard_normal(g.shape) for _ in range(dim)))
    vals = evaluate_laws(rho.data, PARAMS)
    dt = 3e-3
    u, rep = solve_momentum(rho, f, PARAMS, laws=vals, dt=dt)
    ref, ref_rep = solve_momentum(
        rho, f, PARAMS, laws=replace(vals, lam=vals.lam + dt * rho.data * vals.dp))
    assert np.array_equal(u.components, ref.components)
    assert rep == ref_rep
    # dt = 0 is the exact solve, bit for bit
    u0, _ = solve_momentum(rho, f, PARAMS, laws=vals, dt=0.0)
    assert np.array_equal(u0.components, solve_momentum(rho, f, PARAMS)[0].components)
