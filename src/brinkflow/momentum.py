"""Semi-stationary momentum solve and pressure-free flux pieces.

The velocity is slaved to the density through the SPD system

    A u := -grad((2*mu + lam(rho)) * div u) + mu * curl^T(curl u) + r * u
         = f - grad(p(rho)),

discretized on the MAC grid so that A is symmetric positive definite
(<A u, u> = sum (2*mu+lam) (div u)^2 + mu (curl u)^2 + r |u|^2 over cells,
nodes, and faces).  In 1D, A = -(c u')' + r u is a cyclic tridiagonal
M-matrix, solved directly in O(n) by an elimination with no subtraction, so
that no contrast in c cancels its pivots.

In 2D the solve goes through the viscous part of the effective flux,
Fv = c div u with c = 2*mu + lam.  Write b = f - grad p and
H = mu curl^T curl + r = Helm + mu grad div, Helm = mu (-Delta_h) + r per
component, so that A u = H u - grad Fv.  The exact MAC identities
div curl^T = 0 and div grad = Delta_h give (-Delta_h + r/c) Fv = div b and
u = H^{-1}(b + grad Fv), H being Helm on divergence-free fields and r on
gradients.  With phi = Delta_h^{-1} div b (mean zero) and Psi = phi + Fv:

    (-Delta_h + r/c) Psi = (r/c) phi,   u = Helm^{-1}(b - grad phi) + grad(Psi)/r,

so grad phi/r and grad Fv/r, which cancel where c is large, are never
formed apart.  Psi comes from CG preconditioned with the inverse of
-Delta_h + mean(r/c), where c enters only at zero order, run to the
relative tolerance 1e-3 * _TOL within 50 * n * dim iterations.

Every constant-coefficient inverse is applied in the discrete Hartley
basis h[j, k] = (cos t + sin t)/sqrt(n), t = 2 pi j k/n (Bracewell, J.
Opt. Soc. Am. 73, 1983): real, symmetric, its own inverse, cached per grid
and diagonalising -Delta_h.  Its products cost O(n^3) per 2D field, less
than numpy.fft up to n = 64.  ``solve_poisson_zero_mean`` inverts -Delta_h
on the mean-zero subspace in it.  ``compute_S`` gives the zero-mean part S
of F = (2*mu+lam) div u - p from force and drag, -Delta_h S =
div(f - r*u), so F = mean(F) + S holds exactly at the discrete level: an
eigenbasis solve in 2D, a prefix sum in 1D.

The solves take and return ``FaceVectorField.components`` as it is, and
``linearised_bulk`` adds the linearised pressure's dt*rho*p'(rho) to lam.

Every solve targets the fixed relative residual _TOL = 1e-10, measures it
with one application of the operator and returns a ``SolveReport`` with 1
iteration (0 for a zero right-hand side; the 2D momentum solve counts its
inner CG iterations).  Only the momentum solve refines, once, and it returns
a start u0 that meets _TOL with 0 iterations; the S solves and
``solve_poisson_zero_mean`` raise SolverDiverged at once.  The momentum
solve corrects its start, so its round-off scales with the start's residual
(the 2D solve reaches about 1e-9 of it).  The time loop therefore starts it
from the velocity extrapolated linearly in time from its last two solves,
which leaves about 1.5% of b where u^{n-1} leaves 9%.
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
    upper_neighbor,
)
from .laws import evaluate_laws

__all__ = [
    "SolveReport",
    "solve_momentum",
    "solve_poisson_zero_mean",
    "compute_S",
    "apply_momentum_operator",
]


# relative residual every solve must reach (only the momentum solve refines)
_TOL = 1e-10
_PREFIX_FLOOR = 2.0**-256   # the 1D sweeps restart a prefix product below it


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
    """Direct solve of A x = b from x0 with the early exits and report of ``_cg``.

    ``solve`` applies a factorization of A.  It solves A d = b - A x0 and
    adds d to x0, so the round-off of the solve scales with that residual
    rather than with b.  The residual is measured with one application of
    ``apply_op``; when it misses ``tol``, one step of iterative refinement
    solves for the residual.  The report is unconverged if the residual
    still misses ``tol`` or is not finite.
    """
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), SolveReport(0, 0.0, True)
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


def _check_converged(report, what, row=None):
    if not report.converged:
        raise SolverDiverged(
            f"{what} stalled at relative residual "
            f"{report.final_relative_residual:.3e} after {report.iterations} iterations",
            report=report, row=row,
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


@functools.lru_cache(maxsize=8)
def _eigenbasis(n, dx):
    """(h, lam) for n periodic points of spacing dx, built once; read-only.

    h[j, k] = (cos t + sin t) / sqrt(n), t = 2 pi (j k mod n) / n, is the
    discrete Hartley basis: real, symmetric and its own inverse.  Its column
    k is an eigenvector of every symmetric periodic stencil, of -Delta_h with
    eigenvalue lam[k] = (4/dx^2) sin^2(pi k/n).  Valid for odd n too.
    """
    k = np.arange(n)
    theta = (2.0 * np.pi / n) * (np.outer(k, k) % n)
    h = (np.cos(theta) + np.sin(theta)) / np.sqrt(n)
    lam = (4.0 / dx**2) * np.sin(np.pi * k / n) ** 2
    for a in (h, lam):
        a.setflags(write=False)
    return h, lam


def _neg_laplacian_eigenvalues(grid):
    """-Delta_h's eigenvalues on the ``_eigenbasis`` modes, ``grid.shape``."""
    lam = _eigenbasis(grid.n, grid.dx)[1]
    return lam if grid.dim == 1 else lam[:, None] + lam


def _eigen_apply(b, scale, grid):
    """h scale h over the trailing grid axes of the block b: the operator
    with eigenvalues ``scale`` (``grid.shape``) on the ``_eigenbasis``.

    Products over equal lines may round apart by their position in a
    kernel, so a block constant along y, c 1^T, is mapped from c alone to
    (h scale[:, 0] h c) 1^T, and one constant along x likewise: it comes
    back constant along the same lines, bit for bit."""
    h = _eigenbasis(grid.n, grid.dx)[0]
    if grid.dim == 1:
        return ((b @ h) * scale) @ h
    # the first entry against its neighbour along the axis, then the block
    for axis, step in ((-1, 1), (-2, grid.n)):
        if b.flat[step] == b.flat[0] and (b == np.take(b, [0], axis=axis)).all():
            line = np.take(b, 0, axis=axis)
            line = ((line @ h) * np.take(scale, 0, axis=axis)) @ h
            return np.broadcast_to(np.expand_dims(line, axis), b.shape).copy()
    return h @ ((h @ b @ h) * scale) @ h


def _flux_reduced_solver(coef, mu, r, grid, inner_reports):
    """A solve for A d = r0 in potential form (module docstring); each call
    appends its CG report to ``inner_reports`` or raises SolverDiverged.  The
    CG tolerance is 1e-3 * _TOL: the momentum residual of the result is
    grad((c/r) * flux residual), which the contrast in c amplifies."""
    lap = _neg_laplacian_eigenvalues(grid)
    shift = r / coef
    inv_pre = 1.0 / (lap + float(np.mean(shift)))
    inv_helm = 1.0 / (mu * lap + r)

    def flux_op(v):
        s = v.reshape(grid.shape)
        return (_apply_neg_laplacian(s, grid) + shift * s).ravel()

    def precond(v):
        return _eigen_apply(v.reshape(grid.shape), inv_pre, grid).ravel()

    def solve(r0):
        phi = -_poisson_block(div_array(r0, grid.dx)[np.newaxis], grid)[0]
        psi, rep = _cg(flux_op, (shift * phi).ravel(), 1e-3 * _TOL,
                       50 * grid.n * grid.dim, precond)
        inner_reports.append(rep)
        _check_converged(rep, "momentum flux CG")
        x = _eigen_apply(r0 - grad_array(phi, grid.dx, grid.dim), inv_helm, grid)
        x += grad_array(psi.reshape(grid.shape), grid.dx, grid.dim) / r
        return x

    return solve


def _cyclic_tridiagonal_solver(coef, r, dx):
    """The 1D momentum operator's cyclic tridiagonal solve for A x = b.

    With o_i = c_i/dx^2, A[i,i] = o_i + o_{i-1} + r, A[i,i+1] = A[i+1,i] =
    -o_i and A[0,n-1] = A[n-1,0] = -o_{n-1}.  A = T - o_{n-1} w w^T with
    w = e_0 + e_{n-1}: T moves the corner coupling onto T[0,0] and T[n-1,n-1],
    a tridiagonal M-matrix with T 1 = r 1 + 2 o_{n-1} w.  Its pivots
    p_i = o_i + e_i come from their row excess with no subtraction (Grassmann,
    Taksar and Heyman, Oper. Res. 33, 1985), e_0 = 2 o_{n-1} + r and
    e_i = r + o_{i-1} e_{i-1} / (o_{i-1} + e_{i-1}), plus o_{n-1} on p_{n-1}.
    With a_i = o_{i-1}/p_{i-1} in (0, 1) and P = cumprod(a), a_0 = 1, the
    sweeps are y = P cumsum(b/P) and x = revcumsum(P y/p) / P, P restarting
    at 1 below _PREFIX_FLOOR.  Sherman-Morrison gives x = y + (w.y) zeta /
    (1 - w.zeta), zeta = T^{-1} o_{n-1} w, with 1 - w.zeta = r (eta_0 +
    eta_{n-1}) / 2, eta = T^{-1} 1.  b, o_{n-1} w and 1 are swept as one array.
    """
    n = coef.size
    off = coef / (dx * dx)
    o_last = float(off[n - 1])
    e_i = 2.0 * o_last + r
    excess = [e_i]
    for o in off[:-1].tolist():
        e_i = r + o * e_i / (o + e_i)
        excess.append(e_i)
    p = np.array(excess) + off
    p[n - 1] += o_last
    a = np.concatenate(([1.0], off[:-1] / p[:-1]))
    runs, s = [], 0   # (cells, the a_s linking to the run before, P, P/p)
    while s < n:
        link, a[s] = float(a[s]), 1.0
        prod = np.multiply.accumulate(a[s:])
        e = n if prod[-1] >= _PREFIX_FLOOR else s + int(np.count_nonzero(prod >= _PREFIX_FLOOR))
        runs.append((slice(s, e), link, prod[: e - s], prod[: e - s] / p[s:e]))
        s = e
    rhs = np.zeros((3, n))
    rhs[1, 0] = rhs[1, n - 1] = o_last
    rhs[2] = 1.0

    def solve(b):
        v = rhs.copy()
        v[0] = b[0]
        carry = None
        for cells, link, prod, _ in runs:
            t = v[:, cells]
            t /= prod
            if carry is not None:
                t[:, 0] += link * carry
            np.add.accumulate(t, axis=1, out=t)
            t *= prod
            carry = t[:, -1]
        carry = None
        for cells, link, prod, prod_p in reversed(runs):
            t = v[:, cells]
            t *= prod_p
            if carry is not None:
                t[:, -1] += carry * prod[-1]
            np.add.accumulate(t[:, ::-1], axis=1, out=t[:, ::-1])
            t /= prod
            carry = link * t[:, 0]
        y, zeta, eta = v
        return (y + (2.0 * (y[0] + y[n - 1]) / (r * (eta[0] + eta[n - 1]))) * zeta)[np.newaxis]

    return solve


def solve_momentum(rho, f, params, u0=None, laws=None, dt=0.0):
    """Solve A u = f - grad(p(rho)) for the velocity.

    rho : ScalarField (density), f : FaceVectorField (force).
    The solve starts from u0, or from zero when u0 is None: only the
    residual of the start is solved for, and u0 is returned unchanged, with
    0 iterations, when it already meets the tolerance.  ``laws`` optionally
    passes ``evaluate_laws(rho.data, params)`` when the caller already holds
    it; the solution is the same either way.  ``dt`` linearises the pressure over a
    step dt, so A has the bulk coefficient 2*mu + linearised_bulk(laws, rho,
    dt); dt = 0, the default, is the exact semi-stationary solve.
    Returns (u, SolveReport); raises SolverDiverged when the tolerance is
    missed, with the report attached to the exception.
    """
    grid = rho.grid
    vals = laws if laws is not None else evaluate_laws(rho.data, params)
    coef = 2.0 * params.mu + linearised_bulk(vals, rho.data, dt)
    b = f.components - grad_array(vals.p, grid.dx, grid.dim)
    x0 = u0.components if u0 is not None else np.zeros_like(b)

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
    """-Delta_h s = -div(grad s) on the trailing grid axes of s, as one
    2*dim-point stencil: (2*dim*s_i - sum of the 2*dim neighbours) / dx^2."""
    out = (2.0 * grid.dim) * s
    for a in range(-grid.dim, 0):
        out -= lower_neighbor(s, a)
        out -= upper_neighbor(s, a)
    out /= grid.dx * grid.dx
    return out


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


def _poisson_block(b, grid):
    """Mean-zero s with -Delta_h s = b for a block b of mean-zero rows,
    ``(K,) + grid.shape``: one ``_eigen_apply`` over the whole block."""
    lap = _neg_laplacian_eigenvalues(grid)
    inv = np.divide(1.0, lap, out=np.zeros_like(lap), where=lap > 0.0)
    s = _eigen_apply(b, inv, grid)
    return s - s.mean(axis=tuple(range(1, grid.dim + 1)), keepdims=True)


def _check_rows(s, b, grid, what):
    """Per-row lists (iterations, relative residuals) of the block solve s of
    -Delta_h s = b: 1 iteration, or 0 and s = 0 for a zero row of b.  Raises
    SolverDiverged, naming it ``row``, at the first row that misses _TOL."""
    b_norm = np.linalg.norm(b.reshape(len(b), -1), axis=1)
    solved = b_norm > 0.0
    s[~solved] = 0.0
    rel = np.linalg.norm((b - _apply_neg_laplacian(s, grid)).reshape(len(b), -1), axis=1)
    rel /= np.where(solved, b_norm, 1.0)
    missed = np.flatnonzero(~(rel <= _TOL))
    if missed.size:
        _check_converged(SolveReport(1, float(rel[missed[0]]), False), what, int(missed[0]))
    return solved.astype(int).tolist(), rel.tolist()


def solve_poisson_zero_mean(g):
    """Solve -Delta_h s = g with mean(s) = 0, periodic, in the Hartley basis.

    Requires |mean(g)| <= 1e-10 * max|g| (solvability); raises
    CompatibilityError otherwise.  The mean of g is projected out before
    the solve.  The residual is measured once, and a solve that misses
    _TOL raises SolverDiverged; it reports 1 iteration (0 for g = 0).
    """
    b = _compatible_rhs(g.data[np.newaxis])
    s = _poisson_block(b, g.grid)
    iters, rel = _check_rows(s, b, g.grid, "poisson solve")
    return ScalarField._trusted(g.grid, s[0]), SolveReport(iters[0], rel[0], True)


@dataclass(frozen=True)
class _BlockReport(SolveReport):
    """Report of ``compute_S`` on a block: ``iterations`` totals ``rows``,
    the iterations of each row."""

    rows: tuple = ()


def compute_S(rows, f, params):
    """Zero-mean part S of the effective viscous flux: -Delta_h S =
    div(f - r*u) with mean(S) = 0, so F = (2*mu + lam) div u - p = mean(F) + S.

    ``rows`` is a block of K velocities, an array ``(K, dim) + grid.shape``
    (``u.components[np.newaxis]`` for one), and S comes back as an array
    ``(K,) + grid.shape``.  In 2D S is the eigenbasis solve of
    ``solve_poisson_zero_mean``, one for the whole block.  In 1D,
    -Delta_h = -div grad and div has the constants as its kernel, so
    grad S = q = r*u - f - mean(r*u - f) and S is cumsum(dx*q) minus its
    mean.  Both run the compatibility and residual checks of
    ``solve_poisson_zero_mean``: 1 iteration per row (0 and S = 0 for a
    zero right-hand side), and SolverDiverged, with no
    refinement, for a row that misses _TOL.  Returns (S, report), the
    report's ``rows`` holding each velocity's count and ``iterations`` their
    total.
    """
    grid = f.grid
    # components first: div_array differences the trailing grid axes
    b = _compatible_rhs(div_array(np.moveaxis(f.components - params.r * rows, 1, 0), grid.dx))
    if grid.dim == 1:
        q = params.r * rows[:, 0] - f.components[0]
        q -= q.mean(axis=1, keepdims=True)
        s = np.cumsum(grid.dx * q, axis=1)
        s -= s.mean(axis=1, keepdims=True)
    else:
        s = _poisson_block(b, grid)
    iters, rel = _check_rows(s, b, grid, "S solve")
    return s, _BlockReport(sum(iters), max(rel), True, tuple(iters))
