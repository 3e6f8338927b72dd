"""Constitutive laws for congested Brinkman flow.

The model couples a transported density ``rho`` to a velocity through a
pressure ``p`` and a bulk viscosity ``lam`` that both blow up as ``rho``
approaches the packing density 1:

    p(rho)   = eps * (rho / (1 - rho))**gamma
    lam(rho) = eps * (rho / (1 - rho))**beta          (gamma, beta > 1)

Two derived potentials enter the diagnostics: the pressure potential ``h``
(the energy density whose dissipation balance the harness monitors) and the
viscosity potential ``big_lam`` (the "memory" field transported alongside the
density),

    h(rho)       = eps/(gamma-1) * rho**gamma / (1-rho)**(gamma-1)
    big_lam(rho) = eps/(beta-1)  * rho**beta  / (1-rho)**(beta-1)
                 = rho * integral_0^rho lam(tau)/tau**2 dtau,

plus the inverse total viscosity ``nu = 1/(2*mu + lam)``.

With ``delta > 0`` the singularity is truncated: above ``rho = 1 - delta``
each law continues with polynomial growth (continuously at the junction), so
densities slightly above 1 remain admissible.  ``delta = 0`` selects the
exact singular laws, defined only for ``rho < 1``.

The small-parameter structure is classified by the sign of ``1 + gamma -
beta``: in the stiff limit ``eps -> 0`` the pressure survives, the memory
field survives, or both do (see ``regime``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "LawParams",
    "LawValues",
    "RegimeTag",
    "evaluate_laws",
    "pressure_derivative",
    "regime",
    "constraint_residuals",
    "c_beta",
]

_REGIME_TOL = 1e-12


class RegimeTag(Enum):
    """Stiff-limit regime implied by the exponents gamma and beta."""

    MEMORY_AND_PRESSURE = "MemoryAndPressure"
    MEMORY_NO_PRESSURE = "MemoryNoPressure"
    PRESSURE_NO_MEMORY = "PressureNoMemory"


@dataclass(frozen=True)
class LawParams:
    """Constitutive parameters.

    epsilon : stiffness parameter of both singular laws, > 0
    delta   : truncation width (0 selects the exact singular laws), in [0, 1)
    gamma   : pressure exponent, > 1
    beta    : bulk-viscosity exponent, > 1
    mu      : shear viscosity, > 0
    r       : drag coefficient, > 0
    """

    epsilon: float
    delta: float
    gamma: float
    beta: float
    mu: float = 0.5
    r: float = 1.0

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if not (0.0 <= self.delta < 1.0):
            raise ConfigError(f"delta must lie in [0, 1), got {self.delta}")
        if not (self.gamma > 1):
            raise ConfigError(f"gamma must be > 1, got {self.gamma}")
        if not (self.beta > 1):
            raise ConfigError(f"beta must be > 1, got {self.beta}")
        if not (self.mu > 0):
            raise ConfigError(f"mu must be > 0, got {self.mu}")
        if not (self.r > 0):
            raise ConfigError(f"r must be > 0, got {self.r}")


@dataclass(frozen=True)
class LawValues:
    """Pointwise law evaluations; shapes match the input density.

    p, lam, big_lam, h, nu are the laws of the module docstring and dp is
    the pressure stiffness dp/drho.
    """

    p: np.ndarray
    lam: np.ndarray
    big_lam: np.ndarray
    h: np.ndarray
    nu: np.ndarray
    dp: np.ndarray


def _check_density(rho, params):
    # one min and one max accept every admissible array (NaN fails both
    # comparisons); the scans below only choose the error message
    lo, hi = (rho.min(), rho.max()) if rho.size else (0.0, 0.0)
    if lo >= 0.0 and (hi < 1.0 if params.delta == 0.0 else hi < np.inf):
        return
    if not np.all(np.isfinite(rho)):
        raise DomainError("density contains non-finite values")
    if np.any(rho < 0):
        raise DomainError(f"negative density (min {float(np.min(rho)):.6g})")
    if params.delta == 0.0 and np.any(rho >= 1.0):
        raise DomainError(
            f"density reached packing value with delta=0 (max {float(np.max(rho)):.6g})"
        )


def _exact_laws(rho, eps, gamma, beta):
    """(p, lam, big_lam, h, dp) of the exact singular laws, elementwise."""
    q = rho / (1.0 - rho)
    return (
        eps * q**gamma,
        eps * q**beta,
        (eps / (beta - 1.0)) * rho * q ** (beta - 1.0),
        (eps / (gamma - 1.0)) * rho * q ** (gamma - 1.0),
        eps * gamma * q ** (gamma - 1.0) / (1.0 - rho) ** 2,
    )


def evaluate_laws(rho, params):
    """Evaluate p, lam, big_lam, h, nu and dp/drho at the given densities.

    Accepts a scalar or an ndarray; returns a ``LawValues`` with matching
    shape.  Raises ``DomainError`` for rho < 0, and for rho >= 1 when
    ``params.delta == 0``.
    """
    rho_in = np.asarray(rho, dtype=float)
    scalar = rho_in.ndim == 0
    rho_a = np.atleast_1d(rho_in)
    _check_density(rho_a, params)

    eps, delta = params.epsilon, params.delta
    gamma, beta = params.gamma, params.beta

    if delta == 0.0:
        p, lam, big, h, dp = _exact_laws(rho_a, eps, gamma, beta)
    else:
        p = np.empty_like(rho_a)
        lam = np.empty_like(rho_a)
        big = np.empty_like(rho_a)
        h = np.empty_like(rho_a)
        dp = np.empty_like(rho_a)

        exact = rho_a <= 1.0 - delta
        p[exact], lam[exact], big[exact], h[exact], dp[exact] = _exact_laws(
            rho_a[exact], eps, gamma, beta)

        trunc = ~exact
        rt = rho_a[trunc]
        edge = 1.0 - delta
        p[trunc] = eps * rt**gamma / delta**gamma
        lam[trunc] = eps * rt**beta / delta**beta
        h[trunc] = eps / ((gamma - 1.0) * delta**gamma) * (rt**gamma - edge**gamma * rt)
        big[trunc] = eps / ((beta - 1.0) * delta**beta) * (rt**beta - edge**beta * rt)
        dp[trunc] = eps * gamma * rt ** (gamma - 1.0) / delta**gamma

    nu = 1.0 / (2.0 * params.mu + lam)

    fields = (p, lam, big, h, nu, dp)
    if scalar:
        return LawValues(*(float(a[0]) for a in fields))
    return LawValues(*(a.reshape(rho_in.shape) for a in fields))


def pressure_derivative(rho, params):
    """dp/drho; equals ``evaluate_laws(rho, params).dp``."""
    return evaluate_laws(rho, params).dp


def regime(params):
    """Classify the stiff-limit regime from the exponents.

    Sign of 1 + gamma - beta (tolerance 1e-12 on the boundary):
      = 0  -> MEMORY_AND_PRESSURE   (limit pressure p = (beta-1)*big_lam)
      < 0  -> MEMORY_NO_PRESSURE    (limit pressure vanishes)
      > 0  -> PRESSURE_NO_MEMORY    (limit memory vanishes)
    """
    s = 1.0 + params.gamma - params.beta
    if abs(s) <= _REGIME_TOL:
        return RegimeTag.MEMORY_AND_PRESSURE
    if s < 0:
        return RegimeTag.MEMORY_NO_PRESSURE
    return RegimeTag.PRESSURE_NO_MEMORY


def c_beta(beta):
    """Constant in the third constraint identity: (beta-1)**(-1/(beta-1))."""
    return (beta - 1.0) ** (-1.0 / (beta - 1.0))


def constraint_residuals(rho, params):
    """Residuals of the three exact-law constraint identities.

    For the exact laws (delta = 0) and 0 < rho < 1 the following hold
    algebraically; the returned absolute residuals quantify round-off only:

      R1: big_lam = rho/(beta-1) * eps**((1+gamma-beta)/gamma) * p**((beta-1)/gamma)
      R2: (1-rho) * p = eps**(1/gamma) * rho * p**((gamma-1)/gamma)
      R3: (1-rho) * big_lam = c(beta) * eps**(1/(beta-1)) * rho**(beta/(beta-1))
                              * big_lam**((beta-2)/(beta-1))

    Returns (r1, r2, r3), shaped like the input.
    """
    if params.delta != 0.0:
        raise DomainError("constraint identities require the exact laws (delta = 0)")
    rho_in = np.asarray(rho, dtype=float)
    scalar = rho_in.ndim == 0
    rho_a = np.atleast_1d(rho_in).astype(float)
    if np.any(rho_a <= 0.0) or np.any(rho_a >= 1.0):
        raise DomainError("constraint identities require 0 < rho < 1")

    eps, gamma, beta = params.epsilon, params.gamma, params.beta
    vals = evaluate_laws(rho_a, params)
    p, big = vals.p, vals.big_lam

    r1 = np.abs(
        big - rho_a / (beta - 1.0) * eps ** ((1.0 + gamma - beta) / gamma)
        * p ** ((beta - 1.0) / gamma)
    )
    r2 = np.abs((1.0 - rho_a) * p - eps ** (1.0 / gamma) * rho_a * p ** ((gamma - 1.0) / gamma))
    r3 = np.abs(
        (1.0 - rho_a) * big
        - c_beta(beta) * eps ** (1.0 / (beta - 1.0)) * rho_a ** (beta / (beta - 1.0))
        * big ** ((beta - 2.0) / (beta - 1.0))
    )
    if scalar:
        return float(r1[0]), float(r2[0]), float(r3[0])
    shape = rho_in.shape
    return r1.reshape(shape), r2.reshape(shape), r3.reshape(shape)
