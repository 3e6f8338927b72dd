"""Constitutive law tests.

Reference values are frozen from hand evaluation of the defining formulas.
The potential fields (h, big_lam) are additionally checked against numerical
quadrature of their integral definitions, which does not share code with the
closed forms in the package.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from brinkflow import (
    ConfigError,
    DomainError,
    LawParams,
    RegimeTag,
    c_beta,
    constraint_residuals,
    evaluate_laws,
    limit_exponents,
    pressure_derivative,
    regime,
)


def test_reference_point_small_epsilon():
    # rho = 0.5 gives q = rho/(1-rho) = 1, so every power of q is 1 and the
    # values below are exact in floating point.
    params = LawParams(epsilon=1e-2, delta=0.0, gamma=2.0, beta=3.0, mu=0.5)
    v = evaluate_laws(0.5, params)
    assert v.p == pytest.approx(0.01, rel=1e-15)
    assert v.lam == pytest.approx(0.01, rel=1e-15)
    assert v.big_lam == pytest.approx(0.0025, rel=1e-15)
    assert v.h == pytest.approx(0.005, rel=1e-15)


def test_reference_point_unit_epsilon():
    params = LawParams(epsilon=1.0, delta=0.0, gamma=2.0, beta=3.0, mu=0.5)
    v = evaluate_laws(0.5, params)
    assert v.p == pytest.approx(1.0, rel=1e-15)
    assert v.lam == pytest.approx(1.0, rel=1e-15)
    assert v.big_lam == pytest.approx(0.25, rel=1e-15)
    assert v.h == pytest.approx(0.5, rel=1e-15)


def test_truncated_branch_reference_point():
    # rho = 0.8 lies above the junction 1 - delta = 0.75, so the polynomial
    # branch applies:  p = rho^gamma/delta^gamma = 0.64/0.0625.
    params = LawParams(epsilon=1.0, delta=0.25, gamma=2.0, beta=3.0, mu=0.5)
    v = evaluate_laws(0.8, params)
    assert v.p == pytest.approx(10.24, rel=1e-14)
    assert v.lam == pytest.approx(32.768, rel=1e-14)
    # h = (0.64 - 0.75**2 * 0.8) / 0.0625, big_lam = (0.512 - 0.75**3*0.8)/(2*0.25**3)
    assert v.h == pytest.approx(3.04, rel=1e-14)
    assert v.big_lam == pytest.approx(5.584, rel=1e-14)


def test_truncated_branch_admits_rho_above_one():
    params = LawParams(epsilon=1e-2, delta=0.3, gamma=2.0, beta=3.0)
    v = evaluate_laws(np.array([1.0, 1.2]), params)
    assert np.all(np.isfinite(v.p)) and np.all(v.p > 0)
    assert v.p[1] > v.p[0]


def test_junction_continuity():
    params = LawParams(epsilon=1.0, delta=0.25, gamma=2.0, beta=3.0, mu=0.5)
    edge = 0.75
    below = evaluate_laws(edge, params)
    above = evaluate_laws(edge * (1.0 + 1e-12), params)
    for field in ("p", "lam", "big_lam", "h"):
        lo, hi = getattr(below, field), getattr(above, field)
        assert hi == pytest.approx(lo, rel=1e-9), field
    # junction value of h from either branch: rho*q/(gamma-1) at q = 3
    assert below.h == pytest.approx(2.25, rel=1e-14)


@pytest.mark.parametrize("delta", [0.0, 0.2])
def test_potentials_match_quadrature(delta):
    # big_lam(rho) = rho * int_0^rho lam(tau)/tau^2 dtau, and h is the same
    # construction with p in place of lam.  Integrate the branch-switching
    # integrand directly.
    params = LawParams(epsilon=0.3, delta=delta, gamma=2.2, beta=2.7, mu=0.5)
    edge = 1.0 - delta

    def law(tau, expo):
        if delta > 0.0 and tau > edge:
            return params.epsilon * tau**expo / delta**expo
        return params.epsilon * (tau / (1.0 - tau)) ** expo

    probes = [0.15, 0.5, 0.79] if delta == 0.0 else [0.15, 0.5, 0.79, 0.95, 1.1]
    for rho in probes:
        pts = [edge] if (delta > 0.0 and rho > edge) else None
        big_ref, err_b = quad(lambda t: law(t, params.beta) / t**2, 0.0, rho,
                              points=pts, limit=200)
        h_ref, err_h = quad(lambda t: law(t, params.gamma) / t**2, 0.0, rho,
                            points=pts, limit=200)
        v = evaluate_laws(rho, params)
        assert v.big_lam == pytest.approx(rho * big_ref, rel=1e-8), rho
        assert v.h == pytest.approx(rho * h_ref, rel=1e-8), rho


@pytest.mark.parametrize("delta", [0.0, 0.2])
def test_thermodynamic_identities(delta):
    # rho*h' - h = p and rho*big_lam' - big_lam = lam, checked with central
    # differences away from the junction (h is only C^0 there).
    params = LawParams(epsilon=0.7, delta=delta, gamma=1.8, beta=3.1, mu=0.5)
    probes = [0.1, 0.4, 0.7] if delta == 0.0 else [0.1, 0.4, 0.7, 0.9, 1.05]
    step = 1e-6
    for rho in probes:
        lo = evaluate_laws(rho - step, params)
        hi = evaluate_laws(rho + step, params)
        mid = evaluate_laws(rho, params)
        dh = (hi.h - lo.h) / (2 * step)
        dbig = (hi.big_lam - lo.big_lam) / (2 * step)
        assert rho * dh - mid.h == pytest.approx(mid.p, rel=1e-5), rho
        assert rho * dbig - mid.big_lam == pytest.approx(mid.lam, rel=1e-5), rho


@pytest.mark.parametrize("delta", [0.0, 0.2])
def test_pressure_derivative(delta):
    params = LawParams(epsilon=0.5, delta=delta, gamma=2.4, beta=2.0)
    probes = [0.2, 0.6, 0.75] if delta == 0.0 else [0.2, 0.6, 0.9, 1.1]
    step = 1e-6
    for rho in probes:
        lo = evaluate_laws(rho - step, params).p
        hi = evaluate_laws(rho + step, params).p
        assert pressure_derivative(rho, params) == pytest.approx(
            (hi - lo) / (2 * step), rel=1e-6), rho
        assert pressure_derivative(rho, params) == evaluate_laws(rho, params).dp
    # the array path too, across the junction 1 - delta when delta > 0
    arr = np.array(probes)
    assert np.array_equal(pressure_derivative(arr, params), evaluate_laws(arr, params).dp)


def test_constraint_identity_battery(rng):
    # 200 random parameter tuples; the three identities hold algebraically for
    # the exact laws, so the residuals must be floating-point round-off.
    worst = 0.0
    for _ in range(200):
        rho = rng.uniform(0.01, 0.99)
        gamma = rng.uniform(1.1, 4.0)
        beta = rng.uniform(1.1, 4.0)
        eps = 10.0 ** rng.uniform(-6, 0)
        params = LawParams(epsilon=eps, delta=0.0, gamma=gamma, beta=beta)
        v = evaluate_laws(rho, params)
        r1, r2, r3 = constraint_residuals(rho, params)
        scale1 = 1.0 + abs(v.big_lam)
        scale2 = 1.0 + abs((1.0 - rho) * v.p)
        scale3 = 1.0 + abs((1.0 - rho) * v.big_lam)
        worst = max(worst, r1 / scale1, r2 / scale2, r3 / scale3)
    assert worst <= 1e-12


def test_constraint_residuals_array_shape():
    params = LawParams(epsilon=0.1, delta=0.0, gamma=2.0, beta=3.0)
    rho = np.array([[0.2, 0.5], [0.7, 0.9]])
    r1, r2, r3 = constraint_residuals(rho, params)
    assert r1.shape == rho.shape and r2.shape == rho.shape and r3.shape == rho.shape
    assert float(np.max(r1)) <= 1e-13 and float(np.max(r3)) <= 1e-13


def test_c_beta_values():
    assert c_beta(2.0) == pytest.approx(1.0, rel=1e-15)
    assert c_beta(3.0) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)
    # perturbing the constant must break identity R3
    params = LawParams(epsilon=0.2, delta=0.0, gamma=2.0, beta=3.0)
    rho = 0.6
    v = evaluate_laws(rho, params)
    rhs = (c_beta(3.0) * 1.01) * params.epsilon ** 0.5 * rho ** 1.5 * v.big_lam ** 0.5
    assert abs((1.0 - rho) * v.big_lam - rhs) > 1e-4 * v.big_lam


def test_regime_classification():
    mk = lambda g, b: LawParams(epsilon=1.0, delta=0.0, gamma=g, beta=b)
    assert regime(mk(2.0, 3.0)) is RegimeTag.MEMORY_AND_PRESSURE
    assert regime(mk(2.0, 3.5)) is RegimeTag.MEMORY_NO_PRESSURE
    assert regime(mk(3.0, 2.0)) is RegimeTag.PRESSURE_NO_MEMORY
    # boundary tolerance: within 1e-12 counts as the equality case
    assert regime(mk(2.0, 3.0 + 1e-13)) is RegimeTag.MEMORY_AND_PRESSURE
    assert regime(mk(2.0, 3.0 + 1e-9)) is RegimeTag.MEMORY_NO_PRESSURE


def test_limit_exponents_closed_forms():
    mk = lambda g, b: LawParams(epsilon=1.0, delta=0.0, gamma=g, beta=b)
    pnm = limit_exponents(mk(3.0, 2.0))
    assert pnm[RegimeTag.PRESSURE_NO_MEMORY] == pytest.approx(
        {"L1_p": 0.0, "L1_big_lam": 2 / 3, "excl_p": 1 / 3, "excl_big_lam": 1.0}, abs=1e-15)
    assert pnm["L1_drho"] == pytest.approx(1 / 3, abs=1e-15)
    mnp = limit_exponents(mk(1.5, 3.0))
    assert mnp[RegimeTag.MEMORY_NO_PRESSURE] == pytest.approx(
        {"L1_p": 0.25, "L1_big_lam": 0.0, "excl_p": 0.75, "excl_big_lam": 0.5}, abs=1e-15)
    assert mnp["L1_drho"] == 0.5
    # s = 0: the three columns are one, also within regime()'s tolerance
    mp = limit_exponents(mk(2.0, 3.0))
    assert all(mp[tag] == {"L1_p": 0.0, "L1_big_lam": 0.0, "excl_p": 0.5, "excl_big_lam": 0.5}
               for tag in RegimeTag)
    near = limit_exponents(mk(2.0, 3.0 + 1e-13))
    assert regime(mk(2.0, 3.0 + 1e-13)) is RegimeTag.MEMORY_AND_PRESSURE
    assert all(near[tag] == near[RegimeTag.MEMORY_AND_PRESSURE] for tag in RegimeTag)


@pytest.mark.parametrize("gamma, beta", [(3.0, 2.0), (2.2, 3.0), (2.0, 3.2), (1.5, 3.0),
                                         (2.0, 5.0)])
def test_limit_exponents_follow_from_the_laws(gamma, beta):
    # hold the field that survives at 1 as eps falls: the laws' own scaling
    # reproduces the column of regime() and the gap rate
    eps = np.array([1e-12, 1e-14])
    params = LawParams(epsilon=1.0, delta=0.0, gamma=gamma, beta=beta)
    tag = regime(params)
    if tag is RegimeTag.PRESSURE_NO_MEMORY:
        q = eps ** (-1.0 / gamma)                           # p = 1
    else:
        q = (eps / (beta - 1.0)) ** (-1.0 / (beta - 1.0))   # big_lam -> 1
    rho = q / (1.0 + q)
    vals = [evaluate_laws(r, replace(params, epsilon=e)) for e, r in zip(eps, rho)]
    measured = {
        "L1_p": [v.p for v in vals], "L1_big_lam": [v.big_lam for v in vals],
        "excl_p": [(1 - r) * v.p for r, v in zip(rho, vals)],
        "excl_big_lam": [(1 - r) * v.big_lam for r, v in zip(rho, vals)],
        "L1_drho": 1 - rho,
    }
    table = limit_exponents(params)
    expected = {**table[tag], "L1_drho": table["L1_drho"]}
    for metric, (a, b) in measured.items():
        slope = np.log(b / a) / np.log(eps[1] / eps[0])
        assert slope == pytest.approx(expected[metric], abs=1e-3), metric


def test_domain_errors():
    exact = LawParams(epsilon=1.0, delta=0.0, gamma=2.0, beta=3.0)
    with pytest.raises(DomainError):
        evaluate_laws(-0.1, exact)
    with pytest.raises(DomainError):
        evaluate_laws(1.0, exact)
    with pytest.raises(DomainError):
        evaluate_laws(np.array([0.5, np.nan]), exact)
    with pytest.raises(DomainError):
        pressure_derivative(1.0, exact)
    truncated = LawParams(epsilon=1.0, delta=0.1, gamma=2.0, beta=3.0)
    with pytest.raises(DomainError):
        constraint_residuals(0.5, truncated)
    with pytest.raises(DomainError):
        constraint_residuals(0.0, exact)


def test_param_validation():
    good = dict(epsilon=1.0, delta=0.0, gamma=2.0, beta=3.0, mu=0.5, r=1.0)
    for key, bad in [("epsilon", 0.0), ("delta", 1.0), ("gamma", 1.0),
                     ("beta", 0.5), ("mu", 0.0), ("r", -1.0)]:
        kw = dict(good)
        kw[key] = bad
        with pytest.raises(ConfigError):
            LawParams(**kw)


def test_scalar_and_array_agree():
    params = LawParams(epsilon=0.4, delta=0.15, gamma=2.1, beta=2.9)
    rho = np.array([[0.2, 0.5, 0.86], [0.9, 0.95, 1.02]])
    arr = evaluate_laws(rho, params)
    assert arr.p.shape == rho.shape
    for idx in np.ndindex(rho.shape):
        one = evaluate_laws(float(rho[idx]), params)
        assert isinstance(one.p, float)
        assert arr.p[idx] == one.p
        assert arr.big_lam[idx] == one.big_lam


def test_monotonicity(rng):
    params = LawParams(epsilon=0.2, delta=0.05, gamma=2.5, beta=2.2, mu=0.7)
    rho = np.linspace(0.01, 1.1, 400)
    v = evaluate_laws(rho, params)
    for name in ("p", "lam", "big_lam", "h"):
        assert np.all(np.diff(getattr(v, name)) > 0), name


def test_exact_laws_equal_closed_forms(rng):
    # delta = 0 evaluates the whole array without a mask; the values must be
    # the defining formulas exactly, for array and scalar input
    params = LawParams(epsilon=0.3, delta=0.0, gamma=2.5, beta=3.5, mu=0.4)
    eps, gamma, beta = params.epsilon, params.gamma, params.beta
    rho = rng.uniform(0.0, 0.999, (3, 7))
    q = rho / (1.0 - rho)
    ref = {
        "p": eps * q**gamma,
        "lam": eps * q**beta,
        "big_lam": (eps / (beta - 1.0)) * rho * q ** (beta - 1.0),
        "h": (eps / (gamma - 1.0)) * rho * q ** (gamma - 1.0),
        "dp": eps * gamma * q ** (gamma - 1.0) / (1.0 - rho) ** 2,
    }
    arr = evaluate_laws(rho, params)
    for name, want in ref.items():
        assert np.array_equal(getattr(arr, name), want), name
    for idx in [(0, 0), (2, 6)]:
        one = evaluate_laws(float(rho[idx]), params)
        for name, want in ref.items():
            assert getattr(one, name) == want[idx], name
    for bad in ([0.5, -1e-3], [0.5, 1.0], [0.5, np.inf]):
        with pytest.raises(DomainError):
            evaluate_laws(np.array(bad), params)
