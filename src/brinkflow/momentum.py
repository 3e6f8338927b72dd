"""Semi-stationary momentum solve and pressure-free flux pieces.

The velocity is slaved to the density through the SPD system

    A u := -grad((2*mu + lam(rho)) * div u) + mu * curl^T(curl u) + r * u
         = f - grad(p(rho)),

discretized on the MAC grid so that A is symmetric positive definite
(<A u, u> = sum (2*mu+lam) (div u)^2 + mu (curl u)^2 + r |u|^2 over cells,
nodes, and faces).  In 1D, A = -(c u')' + r u is a cyclic tridiagonal
matrix and is solved directly in O(n): Thomas elimination on the matrix
without its corners, plus a Sherman-Morrison correction for them.

In 2D the solve goes through the viscous part of the effective flux,
Fv = c div u with c = 2*mu + lam.  Write b = f - grad p and
H = mu curl^T curl + r, so that A u = H u - grad Fv.  Two exact MAC
identities, div curl^T = 0 and div grad = Delta_h, give div H = r div, and
A u = b splits into

    1. (-Delta_h + r/c) Fv = div b,   a scalar SPD system on the cells;
    2. u = H^{-1}(b + grad Fv) = H^{-1} b + grad(Fv) / r.

Step 1 is solved by conjugate gradients preconditioned with the FFT inverse
of -Delta_h + mean(r/c); the variable coefficient enters only at zero
order, so a few iterations suffice however large the contrast in c.  Each
CG runs to the relative tolerance 1e-3 * _TOL within 50 * n * dim
iterations.
H has constant coefficients, so step 2 is one exact FFT solve: on the
Fourier mode with grad symbol a, H^{-1} = P/r + (I - P)/(mu |a|^2 + r)
with P = a a^H / |a|^2 (and 1/r on the zero mode).

``solve_poisson_zero_mean`` inverts -Delta_h on the mean-zero subspace with
the FFT, which diagonalizes the constant-coefficient periodic operator: mode
k has eigenvalue sum_axes (4/dx^2) sin^2(pi k_a/n).  ``compute_S`` produces
the zero-mean part of the effective viscous flux F = (2*mu+lam) div u - p
directly from force and drag: -Delta_h S = div(f - r*u), so F = mean(F) + S
holds exactly at the discrete level.  In 2D it is that FFT solve.  In 1D
no solve is needed: grad S = r*u - f up to a constant, so S is the
zero-mean prefix sum of dx*(r*u - f - mean(r*u - f)).  ``compute_S`` also
takes a block of K velocities, which the time loop's diagnostics pass.

The solves take and return ``FaceVectorField.components`` as it is, and
``linearised_bulk`` adds the linearised pressure's dt*rho*p'(rho) to lam.

Every solve targets the fixed relative residual _TOL = 1e-10 and returns a
``SolveReport``.  A direct solve measures its residual with one application
of the operator and reports 1 iteration, and so does the 1D prefix sum
for S; the 2D momentum solve reports the total of its inner CG iterations.
Both report 0 for a zero right-hand side or a warm start that already
meets the tolerance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import CompatibilityError, SolverDiverged
from .grid import (
    FaceVectorField,
    ScalarField,
    curl_array,
    curl_t_array,
    div_array,
    grad_array,
    lower_neighbor,
)
from .laws import evaluate_laws

__all__ = [
    "SolveReport",
    "solve_momentum",
    "solve_poisson_zero_mean",
    "compute_S",
    "apply_momentum_operator",
    "linearised_bulk",
]


# relative residual every solve must reach; a direct solve that misses it
# takes one step of iterative refinement
_TOL = 1e-10


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_relative_residual: float
    converged: bool


def _cg(apply_op, b, tol, max_iter, precond):
    """Preconditioned CG from x = 0 on flat arrays; returns (x, report)."""
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), SolveReport(0, 0.0, True)

    x = np.zeros_like(b)
    r = b.copy()
    rel = 1.0
    z = precond(r)
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
        z = precond(r)
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

def linearised_bulk(laws, rho, dt):
    """lam + dt*rho*p'(rho) from ``laws = evaluate_laws(rho, params)``, the bulk
    viscosity with the pressure linearised over dt; exactly lam at dt = 0."""
    return laws.lam + dt * rho * laws.dp


def _apply_momentum(x, coef, mu, r, dx):
    """Apply A to a face vector array x; coef is the cell array 2*mu + lam."""
    out = -grad_array(coef * div_array(x, dx), dx, len(x))
    if len(x) == 2:
        out += mu * curl_t_array(curl_array(x, dx), dx)
    out += r * x
    return out


def apply_momentum_operator(u, coef, mu, r):
    """Apply A to a face vector field; coef is the cell array 2*mu + lam."""
    return FaceVectorField(u.grid, _apply_momentum(u.components, coef, mu, r, u.grid.dx))


@dataclass(frozen=True)
class _FourierSymbols:
    """Symbols of the periodic MAC operators on the ``rfftn`` modes of a grid.

    lap  : eigenvalues of -Delta_h, sum_axes (4/dx^2) sin^2(pi k_a/n), with
           the zero mode (eigenvalue 0) stored as 1 so that lap can divide
    unit : 2D only, a / |a| stacked on axis 0, a_j = (1 - exp(-2 pi i k_j/n))/dx
           being the symbol of grad_array; 0 on the zero mode.  The projector
           onto gradients is P = unit unit^H.
    """

    lap: np.ndarray
    unit: np.ndarray | None


@functools.lru_cache(maxsize=8)
def _fourier_symbols(dim, n, dx):
    """The grid's ``_FourierSymbols``, built once per (dim, n, dx); read-only."""
    zero_mode = (0,) * dim
    lam_1d = (4.0 / dx**2) * np.sin(np.pi * np.arange(n) / n) ** 2
    # rfftn keeps modes 0..n//2 along the last axis
    lap = lam_1d[: n // 2 + 1].copy()
    unit = None
    if dim == 2:
        lap = lam_1d[:, None] + lap[None, :]
        k0 = np.arange(n)[:, None]
        k1 = np.arange(n // 2 + 1)[None, :]
        norm = np.sqrt(lap)   # |a|, still 0 on the zero mode
        norm[zero_mode] = 1.0
        unit = np.array([(1.0 - np.exp(-2j * np.pi * k / n)) / dx / norm for k in (k0, k1)])
        unit.setflags(write=False)
    lap[zero_mode] = 1.0
    lap.setflags(write=False)
    return _FourierSymbols(lap, unit)


def _flux_reduced_solver(coef, mu, r, grid, inner_reports):
    """2D momentum solve through the viscous flux; returns a solve for A x = b.

    Each call solves (-Delta_h + r/c) Fv = div b by CG, preconditioned with
    the Fourier symbol of -Delta_h + mean(r/c), and returns
    H^{-1} b + grad(Fv)/r (see the module docstring).  The CG reports are
    appended to ``inner_reports``; one that misses its tolerance within
    50 * n * dim iterations raises SolverDiverged.  The CG tolerance is
    1e-3 * _TOL: the momentum residual of the result is
    grad((c/r) * flux residual), which the contrast in c amplifies.
    """
    sym = _fourier_symbols(grid.dim, grid.n, grid.dx)
    axes = (0, 1)
    shift = r / coef
    m = float(np.mean(shift))
    inv_h = 1.0 / (mu * sym.lap + r)
    inv_h[0, 0] = 1.0 / r
    proj_gain = 1.0 / r - inv_h   # 0 on the zero mode, where P = 0 too

    def flux_op(v):
        s = v.reshape(grid.shape)
        return (_apply_neg_laplacian(s, grid) + shift * s).ravel()

    inv_pre = 1.0 / (sym.lap + m)
    inv_pre[0, 0] = 1.0 / m

    def precond(v):
        vh = np.fft.rfftn(v.reshape(grid.shape), axes=axes) * inv_pre
        return np.fft.irfftn(vh, s=grid.shape, axes=axes).ravel()

    def solve(b):
        g = div_array(b, grid.dx).ravel()
        fv, rep = _cg(flux_op, g, 1e-3 * _TOL, 50 * grid.n * grid.dim, precond)
        inner_reports.append(rep)
        _check_converged(rep, "momentum flux CG")
        bh = np.fft.rfftn(b, axes=(1, 2))
        pb = proj_gain * (sym.unit[0].conj() * bh[0] + sym.unit[1].conj() * bh[1])
        x = np.fft.irfftn(inv_h * bh + sym.unit * pb, s=grid.shape, axes=(1, 2))
        x += grad_array(fv.reshape(grid.shape), grid.dx, grid.dim) / r
        return x

    return solve


def _cyclic_tridiagonal_solver(coef, r, dx):
    """Factor the 1D momentum operator; returns a solve for A x = b.

    Face i couples to faces i+1 and i-1 through the cells on either side:
    A[i,i] = (c_i + c_{i-1})/dx^2 + r and A[i,i+1] = A[i+1,i] = -c_i/dx^2,
    with the periodic corners A[0,n-1] = A[n-1,0] = -c_{n-1}/dx^2.  Following
    Numerical Recipes 2.7, A = T + g w w^T with g = -A[0,0] and
    w = (1, 0, ..., 0, A[n-1,0]/g), so T is tridiagonal and SPD (g < 0), and
    A^{-1} b = y - (w.y)/(1 + w.z) z with T y = b, T z = g w.  T = L D L^T
    is eliminated without pivoting.  The first solve runs the elimination
    and the forward sweeps of T z = g w and T y = b in one loop, then both
    backward sweeps in another; a later (refinement) solve reuses D, L and
    z.  The sweeps run on Python floats, which is faster than numpy for
    this sequential recurrence.
    """
    n = coef.size
    dx2 = dx * dx
    off = (-coef / dx2).tolist()
    diag = ((coef + lower_neighbor(coef, 0)) / dx2 + r).tolist()
    corner = off[n - 1]
    g = -diag[0]
    diag[0] -= g
    diag[n - 1] -= corner * corner / g
    w_last = corner / g

    # T = L D L^T: d holds D, lo the unit subdiagonal of L; z = T^{-1} g w,
    # with g w = (g, 0, ..., 0, corner).  The first solve fills all three.
    d = [0.0] * n
    lo = [0.0] * n
    z = [0.0] * n
    z[n - 1] = corner
    z_scale = None   # 1 + w.z, set by the first solve

    def factor_and_solve(y):
        """Factor T and overwrite the list y = rhs with T^{-1} rhs."""
        d_i = d[0] = diag[0]
        z_i = z[0] = g
        y_i = y[0]
        for i in range(1, n):
            o = off[i - 1]
            l_i = lo[i - 1] = o / d_i
            d_i = d[i] = diag[i] - l_i * o
            z_i = z[i] = z[i] - l_i * z_i
            y_i = y[i] = y[i] - l_i * y_i
        z_i = z[n - 1] = z_i / d_i
        y_i = y[n - 1] = y_i / d_i
        for i in range(n - 2, -1, -1):
            d_i = d[i]
            l_i = lo[i]
            z_i = z[i] = z[i] / d_i - l_i * z_i
            y_i = y[i] = y[i] / d_i - l_i * y_i

    def solve_t(y):
        """Overwrite the list y = rhs with T^{-1} rhs, reusing the factors."""
        y_i = y[0]
        for i in range(1, n):
            y_i = y[i] = y[i] - lo[i - 1] * y_i
        y_i = y[n - 1] = y_i / d[n - 1]
        for i in range(n - 2, -1, -1):
            y_i = y[i] = y[i] / d[i] - lo[i] * y_i

    def solve(b):
        nonlocal z, z_scale
        y = b[0].tolist()
        if z_scale is None:
            factor_and_solve(y)
            z_scale = 1.0 + z[0] + w_last * z[n - 1]
            z = np.array(z)
        else:
            solve_t(y)
        y = np.array(y)
        return (y - ((y[0] + w_last * y[n - 1]) / z_scale) * z)[np.newaxis]

    return solve


def solve_momentum(rho, f, params, u0=None, laws=None, dt=0.0):
    """Solve A u = f - grad(p(rho)) for the velocity.

    rho : ScalarField (density), f : FaceVectorField (force).
    u0 optionally warm-starts the solve: only its residual is solved for,
    and it is returned unchanged, with 0 iterations, when it already meets
    the tolerance.  ``laws`` optionally passes
    ``evaluate_laws(rho.data, params)`` when the caller already holds it; the
    solution is the same either way.  ``dt`` linearises the pressure over a
    step dt, so A has the bulk coefficient 2*mu + linearised_bulk(laws, rho,
    dt); dt = 0, the default, is the exact semi-stationary solve.
    Returns (u, SolveReport); raises SolverDiverged when the tolerance is
    missed, with the report attached to the exception.
    """
    grid = rho.grid
    vals = laws if laws is not None else evaluate_laws(rho.data, params)
    coef = 2.0 * params.mu + linearised_bulk(vals, rho.data, dt)
    b = f.components - grad_array(vals.p, grid.dx, grid.dim)
    x0 = u0.components if u0 is not None else None

    def apply_op(v):
        return _apply_momentum(v, coef, params.mu, params.r, grid.dx)

    inner = []
    if grid.dim == 1:
        solve = _cyclic_tridiagonal_solver(coef, params.r, grid.dx)
    else:
        solve = _flux_reduced_solver(coef, params.mu, params.r, grid, inner)
    x, report = _direct(apply_op, solve, b, x0, _TOL)
    if grid.dim == 2:
        report = replace(report, iterations=sum(rep.iterations for rep in inner))
    _check_converged(report, "momentum solve")
    return FaceVectorField._trusted(grid, x), report


# -- Poisson on the mean-zero subspace ---------------------------------------

def _apply_neg_laplacian(s, grid):
    return -div_array(grad_array(s, grid.dx, grid.dim), grid.dx)


def _compatible_rhs(g):
    """The rows of the cell-array block g, ``(K,) + grid.shape``, minus their
    means; raises CompatibilityError unless |mean| <= 1e-10 * max|g| in
    every row (solvability of -Delta_h s = g)."""
    axes = tuple(range(1, g.ndim))
    g_max = np.abs(g).max(axis=axes, keepdims=True)
    g_mean = g.mean(axis=axes, keepdims=True)
    bad = (g_max > 0.0) & (np.abs(g_mean) > 1e-10 * g_max)
    if bad.any():
        k = int(np.argmax(bad))
        raise CompatibilityError(
            f"poisson right-hand side has mean {g_mean.flat[k]:.3e} "
            f"(max |g| = {g_max.flat[k]:.3e})"
        )
    return g - g_mean


def solve_poisson_zero_mean(g):
    """Solve -Delta_h s = g with mean(s) = 0 on the periodic grid, by FFT.

    Requires |mean(g)| <= 1e-10 * max|g| (solvability); raises
    CompatibilityError otherwise.  The mean of g is projected out before
    the solve.  Raises SolverDiverged if the residual misses _TOL after
    one refinement step.
    """
    s, report = _poisson_fft(_compatible_rhs(g.data[np.newaxis])[0], g.grid)
    return ScalarField._trusted(g.grid, s), report


def _poisson_fft(b, grid):
    """(s, SolveReport) for -Delta_h s = b, b and s mean-zero cell arrays."""
    axes = tuple(range(grid.dim))
    zero_mode = (0,) * grid.dim
    symbol = _fourier_symbols(grid.dim, grid.n, grid.dx).lap

    def solve(v):
        vh = np.fft.rfftn(v, axes=axes) / symbol
        vh[zero_mode] = 0.0
        return np.fft.irfftn(vh, s=grid.shape, axes=axes)

    x, report = _direct(lambda v: _apply_neg_laplacian(v, grid), solve, b, None, _TOL)
    _check_converged(report, "poisson FFT solve")
    return x - x.mean(), report


@dataclass(frozen=True)
class _BlockReport(SolveReport):
    """Report of ``compute_S`` on a block: ``iterations`` totals ``rows``,
    the iterations of each row."""

    rows: tuple = ()


def compute_S(u, f, params):
    """Zero-mean part of the effective viscous flux.

    S solves -Delta_h S = div(f - r*u) with mean(S) = 0, so that
    F = (2*mu + lam) div u - p satisfies F = mean(F) + S exactly (up to the
    solver tolerance).  In 2D each S is an FFT solve (that of
    ``solve_poisson_zero_mean``).  In 1D, -Delta_h = -div grad and div has
    the constants as its kernel, so grad S = q with
    q = r*u - f - mean(r*u - f), and S is the prefix sum cumsum(dx*q) minus
    its mean.  The compatibility check and the one-apply residual check
    against _TOL are those of the FFT solve; the prefix sum reports 1
    iteration (0 for a zero right-hand side) and raises SolverDiverged if
    its residual misses _TOL.

    ``u`` is a FaceVectorField, giving (S as a ScalarField, SolveReport), or
    a block of K velocities, an array ``(K, dim) + grid.shape``, giving
    (S as an array ``(K,) + grid.shape``, report): the report's
    ``iterations`` totals its ``rows``, one count per velocity.  In 1D the
    block runs as one set of array operations with the checks made row by
    row; in 2D it solves row after row.
    """
    grid = f.grid
    rows = u if isinstance(u, np.ndarray) else u.components[np.newaxis]
    if grid.dim == 2:
        s = np.empty((len(rows),) + grid.shape)
        iters, rel = [], []
        for k, row in enumerate(rows):
            b = _compatible_rhs(div_array(f.components - params.r * row, grid.dx)[np.newaxis])
            s[k], report = _poisson_fft(b[0], grid)
            iters.append(report.iterations)
            rel.append(report.final_relative_residual)
    else:
        b = _compatible_rhs(div_array((f.components[0] - params.r * rows[:, 0],), grid.dx))
        q = params.r * rows[:, 0] - f.components[0]
        q -= q.mean(axis=1, keepdims=True)
        s = np.cumsum(grid.dx * q, axis=1)
        s -= s.mean(axis=1, keepdims=True)
        b_norm = np.linalg.norm(b, axis=1)
        solved = b_norm > 0.0
        s[~solved] = 0.0
        rel = np.linalg.norm(b - _apply_neg_laplacian(s, grid), axis=1)
        rel /= np.where(solved, b_norm, 1.0)
        missed = np.flatnonzero(~(rel <= _TOL))
        if missed.size:
            _check_converged(SolveReport(1, float(rel[missed[0]]), False), "poisson prefix sum")
        iters = solved.astype(int).tolist()
        rel = rel.tolist()
    if not isinstance(u, np.ndarray):
        return ScalarField._trusted(grid, s[0]), SolveReport(iters[0], rel[0], True)
    return s, _BlockReport(sum(iters), max(rel), True, tuple(iters))
