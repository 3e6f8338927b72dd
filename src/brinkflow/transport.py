"""Explicit upwind transport of the density and the memory field.

First-order conservative upwinding on the MAC grid: the flux through face
``i`` is u[i] times the upwind cell value, so cell sums telescope and mass is
conserved to round-off.  Positivity holds under the CFL bound dt <= dx/|u|
per axis (the harness's default cfl = 0.4 leaves a 2D margin).

With ``delta = 0`` no cell may close more than half its gap 1 - rho to
packing in one step: the linearised pressure is only accurate while a step
changes rho by a small fraction of the gap, and an advancing congested front
would otherwise overshoot.  The update rho - dt*D (D the flux divergence) is
linear in dt, so ``advect_density`` cuts dt to the largest admissible step
and updates once, or raises ``CongestionOverflow`` if that step is below its
floor.

The memory field big_lam follows the same upwind transport plus the
compression source -lam * div(u):

    big_lam^{n+1} = big_lam^n - dt * div(flux(big_lam^n, u)) - dt * lam * div(u).

big_lam does not keep its sign: the source is negative where the flow
expands, and every benchmark workload drives it below zero (to -2.2e-4 on
c2d_rotation).  A sign guard would abort them, so there is none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CongestionOverflow
from .grid import FaceVectorField, ScalarField, div_array, lower_neighbor

__all__ = ["SimState", "stable_dt", "advect_density", "advect_big_lambda"]

# velocity floor of the dt cap: in slow flow (|u| < 1) it keeps
# dt <= cfl*dx, so the time error of the energy ledger stays O(dx).  With a
# floor of 1e-8 the criterion-7 runs (|u| ~ 0.1) take 16 / 31 steps instead
# of 160 / 320, their ledger drift grows from 4.4e-4 to 3.5e-3 at n = 64 and
# the refinement ratio falls from 2.01 to 1.86; the eps = 0.1 criterion-8a
# row takes 331 steps instead of 691 with the same L1_big_lam slope (0.665).
_U_REF = 1.0

# the gap cap cuts a step to no less than dt * _MIN_CUT, never below _DT_MIN
_MIN_CUT = 2.0**-20
_DT_MIN = 1e-12


@dataclass
class SimState:
    """Time-stepping state: density, slaved velocity, memory field."""

    t: float
    rho: ScalarField
    u: FaceVectorField
    big_lam: ScalarField
    step_count: int = 0


def stable_dt(u, grid, cfl):
    """Advective CFL time step: cfl * dx / max(|u|, _U_REF).

    The floor _U_REF = 1 caps dt at cfl * dx however slow the flow, so the
    energy ledger's time error, first order in dt, stays O(dx).
    """
    return cfl * grid.dx / max(u.max_abs(), _U_REF)


def _upwind_flux(cell_data, u_comp, axis):
    # face i separates cell i-1 (upwind for u > 0) from cell i
    left = lower_neighbor(cell_data, axis)
    return u_comp * np.where(u_comp >= 0.0, left, cell_data)


def _flux_divergence(cell_data, u):
    fluxes = [_upwind_flux(cell_data, c, a) for a, c in enumerate(u.components)]
    return div_array(fluxes, u.grid.dx)


def advect_density(rho, u, dt, params):
    """One conservative upwind step of at most dt; returns (new rho, dt taken).

    With delta = 0, dt is cut to dt_gap = -0.5 / min(D / (1 - rho)), D the
    flux divergence, when that min is negative and dt_gap < dt: the
    fastest-closing cell then closes exactly half its gap.  A dt_gap below
    the floor max(dt * _MIN_CUT, _DT_MIN) raises CongestionOverflow for the
    update at the floor, with nothing committed.  The new field is not
    checked for finiteness: the time loop's ``evaluate_laws`` checks each
    density it commits.
    """
    D = _flux_divergence(rho.data, u)
    if params.delta == 0.0:
        rate = float(np.min(D / (1.0 - rho.data)))
        dt_gap = -0.5 / rate if rate < 0.0 else dt
        if dt_gap < dt:
            floor = max(dt * _MIN_CUT, _DT_MIN)
            if dt_gap < floor:
                raise CongestionOverflow(float(np.max(rho.data - floor * D)), dt=floor)
            dt = dt_gap
    return ScalarField._trusted(rho.grid, rho.data - dt * D), dt


def advect_big_lambda(big_lam, u, divu, lam, dt):
    """Upwind transport of the memory field with compression source.

    divu and lam are cell arrays the caller already holds, so the source uses
    the velocity divergence of the diagnostics; they are not re-validated.
    """
    new = (
        big_lam.data
        - dt * _flux_divergence(big_lam.data, u)
        - dt * lam * divu
    )
    return ScalarField(big_lam.grid, new)
