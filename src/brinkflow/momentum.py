"""Semi-stationary momentum solve and pressure-free flux pieces.

The velocity is slaved to the density through the SPD system

    A u := -grad((2*mu + lam(rho)) * div u) + mu * curl^T(curl u) + r * u
         = f - grad(p(rho)),

discretized on the MAC grid so that A is symmetric positive definite
(<A u, u> = sum (2*mu+lam) (div u)^2 + mu (curl u)^2 + r |u|^2 over cells,
nodes, and faces).  In 1D, A = -(c u')' + r u is a cyclic tridiagonal
matrix and is solved directly in O(n): Thomas elimination on the matrix
without its corners, plus a Sherman-Morrison correction for them.  In 2D the
system is solved matrix-free by conjugate gradients with optional diagonal
(Jacobi) preconditioning.

``solve_poisson_zero_mean`` inverts -Delta_h on the mean-zero subspace with
the FFT, which diagonalizes the constant-coefficient periodic operator: mode
k has eigenvalue sum_axes (4/dx^2) sin^2(pi k_a/n).  ``compute_S`` produces
the zero-mean part of the effective viscous flux F = (2*mu+lam) div u - p
directly from force and drag: -Delta_h S = div(f - r*u), so F = mean(F) + S
holds exactly at the discrete level.

Every solve returns a ``SolveReport``.  A direct solve measures its residual
with one application of the operator and reports 1 iteration (0 for a zero
right-hand side or a warm start that already meets the tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CompatibilityError, ConfigError, SolverDiverged
from .grid import (
    FaceVectorField,
    ScalarField,
    curl_array,
    curl_t_array,
    div_array,
    grad_array,
)
from .laws import evaluate_laws

__all__ = [
    "SolverOptions",
    "SolveReport",
    "solve_momentum",
    "solve_poisson_zero_mean",
    "compute_S",
    "apply_momentum_operator",
]


@dataclass(frozen=True)
class SolverOptions:
    """Solver controls.

    tol            : relative residual target, in (0, 1e-4]; the 2D momentum
                     CG iterates to it, and a direct solve that misses it
                     takes one step of iterative refinement
    max_iter       : 2D momentum CG iteration budget; None means 50*n per
                     dimension
    preconditioner : 2D momentum CG preconditioner, "none" or "diagonal"
    """

    tol: float = 1e-10
    max_iter: int | None = None
    preconditioner: str = "diagonal"

    def __post_init__(self):
        if not (0.0 < self.tol <= 1e-4):
            raise ConfigError(f"tol must lie in (0, 1e-4], got {self.tol}")
        if self.max_iter is not None and self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.preconditioner not in ("none", "diagonal"):
            raise ConfigError(f"unknown preconditioner '{self.preconditioner}'")

    def iteration_budget(self, grid):
        if self.max_iter is not None:
            return self.max_iter
        return 50 * grid.n * grid.dim


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_relative_residual: float
    converged: bool


def _cg(apply_op, b, x0, tol, max_iter, precond=None):
    """Plain preconditioned CG on flat arrays; returns (x, report)."""
    x = x0.copy()
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), SolveReport(0, 0.0, True)

    r = b - apply_op(x)
    rel = float(np.linalg.norm(r)) / b_norm
    if rel <= tol:
        return x, SolveReport(0, rel, True)

    z = precond(r) if precond is not None else r
    p = z.copy()
    rz = float(np.dot(r, z))
    iters = 0
    for iters in range(1, max_iter + 1):
        Ap = apply_op(p)
        pAp = float(np.dot(p, Ap))
        if pAp <= 0.0:
            # SPD operator: this only happens on round-off collapse.
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rel = float(np.linalg.norm(r)) / b_norm
        if rel <= tol:
            return x, SolveReport(iters, rel, True)
        z = precond(r) if precond is not None else r
        rz_new = float(np.dot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, SolveReport(iters, rel, False)


def _direct(apply_op, solve, b, x0, tol):
    """Direct solve of A x = b with the early exits and report of ``_cg``.

    ``solve`` applies a factorization of A.  A warm start x0 is corrected
    by solving A d = b - A x0, so the round-off of the solve scales with
    that residual rather than with b.  The residual is measured with one application of
    ``apply_op``; when it misses ``tol``, one step of iterative refinement
    reuses the factorization.  The report is unconverged if the residual
    still misses ``tol`` or is not finite.
    """
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), SolveReport(0, 0.0, True)
    if x0 is None:
        x = solve(b)
    else:
        r0 = b - apply_op(x0)
        rel = float(np.linalg.norm(r0)) / b_norm
        if rel <= tol:
            return x0.copy(), SolveReport(0, rel, True)
        x = x0 + solve(r0)
    r = b - apply_op(x)
    rel = float(np.linalg.norm(r)) / b_norm
    if not rel <= tol:
        x = x + solve(r)
        rel = float(np.linalg.norm(b - apply_op(x))) / b_norm
    return x, SolveReport(1, rel, bool(rel <= tol))


def _check_converged(report, what):
    if not report.converged:
        raise SolverDiverged(
            f"{what} stalled at relative residual "
            f"{report.final_relative_residual:.3e} after {report.iterations} iterations",
            report=report,
        )


# -- momentum operator -------------------------------------------------------

def _apply_momentum_flat(flat, coef, mu, r, grid):
    comps = _unflatten(flat, grid)
    div = div_array(comps, grid.dx)
    out = grad_array(coef * div, grid.dx, grid.dim)
    out = [-g for g in out]
    if grid.dim == 2:
        w = curl_array(comps, grid.dx)
        ct = curl_t_array(w, grid.dx)
        out[0] += mu * ct[0]
        out[1] += mu * ct[1]
    for a in range(grid.dim):
        out[a] += r * comps[a]
    return _flatten(out)


def _flatten(comps):
    return np.concatenate([c.ravel() for c in comps])


def _unflatten(flat, grid):
    size = grid.n**grid.dim
    return tuple(
        flat[a * size:(a + 1) * size].reshape(grid.shape) for a in range(grid.dim)
    )


def apply_momentum_operator(u, coef, mu, r):
    """Apply A to a face vector field; coef is the cell array 2*mu + lam."""
    grid = u.grid
    flat = _apply_momentum_flat(_flatten(u.components), coef, mu, r, grid)
    return FaceVectorField(grid, _unflatten(flat, grid))


def _momentum_diagonal(coef, mu, r, grid):
    """Diagonal of A, per face component, for Jacobi preconditioning."""
    dx2 = grid.dx**2
    diags = []
    for a in range(grid.dim):
        d = (coef + np.roll(coef, 1, axis=a)) / dx2
        if grid.dim == 2:
            d = d + 2.0 * mu / dx2
        diags.append(d + r)
    return _flatten(diags)


def _cyclic_tridiagonal_solver(coef, r, dx):
    """Factor the 1D momentum operator; returns a solve for A x = b.

    Face i couples to faces i+1 and i-1 through the cells on either side:
    A[i,i] = (c_i + c_{i-1})/dx^2 + r and A[i,i+1] = A[i+1,i] = -c_i/dx^2,
    with the periodic corners A[0,n-1] = A[n-1,0] = -c_{n-1}/dx^2.  Following
    Numerical Recipes 2.7, A = T + g w w^T with g = -A[0,0] and
    w = (1, 0, ..., 0, A[n-1,0]/g), so T is tridiagonal and SPD (g < 0), and
    A^{-1} b = y - (w.y)/(1 + w.z) z with T y = b, T z = g w.  T = L D L^T
    is eliminated without pivoting; the sweeps run on Python floats, which is
    faster than numpy for this sequential recurrence.
    """
    n = coef.size
    dx2 = dx * dx
    off = (-coef / dx2).tolist()
    diag = ((coef + np.roll(coef, 1)) / dx2 + r).tolist()
    corner = off[n - 1]
    g = -diag[0]
    diag[0] -= g
    diag[n - 1] -= corner * corner / g

    # T = L D L^T: d holds D, lo the unit subdiagonal of L
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

    def solve(b):
        y = solve_t(b)
        return y - ((y[0] + w_last * y[n - 1]) / z_scale) * z

    return solve


def solve_momentum(rho, f, params, opts=SolverOptions(), u0=None, laws=None):
    """Solve A u = f - grad(p(rho)) for the velocity.

    rho : ScalarField (density), f : FaceVectorField (force).
    u0 optionally warm-starts the solve (directly in 1D, by CG in 2D); it
    is returned unchanged, with 0 iterations, when it already meets
    opts.tol.  ``laws`` optionally passes ``evaluate_laws(rho.data, params)``
    when the caller already holds it; the solution is the same either way.
    Returns (u, SolveReport); raises SolverDiverged when the tolerance is
    missed, with the report attached to the exception.
    """
    grid = rho.grid
    vals = laws if laws is not None else evaluate_laws(rho.data, params)
    coef = 2.0 * params.mu + vals.lam
    gp = grad_array(vals.p, grid.dx, grid.dim)
    b = _flatten([f.components[a] - gp[a] for a in range(grid.dim)])
    x0 = _flatten(u0.components) if u0 is not None else None

    def apply_op(v):
        return _apply_momentum_flat(v, coef, params.mu, params.r, grid)

    if grid.dim == 1:
        solve = _cyclic_tridiagonal_solver(coef, params.r, grid.dx)
        x, report = _direct(apply_op, solve, b, x0, opts.tol)
        _check_converged(report, "momentum direct solve")
    else:
        precond = None
        if opts.preconditioner == "diagonal":
            inv = 1.0 / _momentum_diagonal(coef, params.mu, params.r, grid)
            precond = lambda v: inv * v
        if x0 is None:
            x0 = np.zeros_like(b)
        x, report = _cg(apply_op, b, x0, opts.tol, opts.iteration_budget(grid),
                        precond=precond)
        _check_converged(report, "momentum CG")
    return FaceVectorField(grid, _unflatten(x, grid)), report


# -- Poisson on the mean-zero subspace ---------------------------------------

def _apply_neg_laplacian(s, grid):
    return -div_array(grad_array(s, grid.dx, grid.dim), grid.dx)


def solve_poisson_zero_mean(g, opts=SolverOptions()):
    """Solve -Delta_h s = g with mean(s) = 0 on the periodic grid, by FFT.

    Requires |mean(g)| <= 1e-10 * max|g| (solvability); raises
    CompatibilityError otherwise.  The mean of g is projected out before
    the solve.  Raises SolverDiverged if the residual misses opts.tol after
    one refinement step.
    """
    grid = g.grid
    data = g.data
    g_max = float(np.max(np.abs(data)))
    g_mean = float(np.mean(data))
    if g_max > 0.0 and abs(g_mean) > 1e-10 * g_max:
        raise CompatibilityError(
            f"poisson right-hand side has mean {g_mean:.3e} (max |g| = {g_max:.3e})"
        )

    axes = tuple(range(grid.dim))
    zero_mode = (0,) * grid.dim
    lam_1d = (4.0 / grid.dx**2) * np.sin(np.pi * np.arange(grid.n) / grid.n) ** 2
    # rfftn keeps modes 0..n//2 along the last axis
    symbol = lam_1d[: grid.n // 2 + 1]
    if grid.dim == 2:
        symbol = lam_1d[:, None] + symbol[None, :]
    symbol[zero_mode] = 1.0

    def solve(v):
        vh = np.fft.rfftn(v, axes=axes) / symbol
        vh[zero_mode] = 0.0
        return np.fft.irfftn(vh, s=grid.shape, axes=axes)

    b = data - g_mean
    x, report = _direct(lambda v: _apply_neg_laplacian(v, grid), solve, b, None, opts.tol)
    _check_converged(report, "poisson FFT solve")
    return ScalarField(grid, x - x.mean()), report


def compute_S(u, f, params, opts=SolverOptions()):
    """Zero-mean part of the effective viscous flux.

    S solves -Delta_h S = div(f - r*u) with mean(S) = 0, so that
    F = (2*mu + lam) div u - p satisfies F = mean(F) + S exactly (up to the
    solver tolerance).  Returns (S, SolveReport).
    """
    grid = u.grid
    comps = [f.components[a] - params.r * u.components[a] for a in range(grid.dim)]
    rhs = ScalarField(grid, div_array(tuple(comps), grid.dx))
    return solve_poisson_zero_mean(rhs, opts)
