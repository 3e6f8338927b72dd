"""Acceptance gate: twelve numbered criteria, one test per criterion.

Each test prints a single summary line with its measured margins; the
pytest -v status line is the pass/fail verdict.  Scenario constants used
here (forcing amplitudes, spike geometry, end times) are frozen; changing
them silently retunes the gate.

Every simulation comes from the session runner ``shared_run`` (conftest.py),
so each configuration runs once however many criteria read it; a criterion's
time gate sums the recorded wall times of the runs it reads.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from brinkflow import (
    FaceVectorField,
    LawParams,
    RegimeTag,
    RunConfig,
    ScalarField,
    SimState,
    SweepTable,
    build_record,
    classify_limit,
    constraint_residuals,
    energy_report,
    evaluate_laws,
    fit_rate,
    limit_exponents,
    make_grid,
    regime,
    solve_momentum,
)
from brinkflow.diagnostics import CSV_COLUMNS
from brinkflow.grid import cell_coords, face_coords
from brinkflow.transport import advect_density

EPS_VALUES = [1e-1, 1e-2, 1e-3, 1e-4]
DELTA_VALUES = [1e-1, 3e-2, 1e-2, 3e-3]


def _compression(n, gamma, beta, f0, epsilon=1e-1):
    return RunConfig(
        dim=1, n=n, t_end=1.0, epsilon=epsilon, gamma=gamma, beta=beta,
        scenario="compression", scenario_params={"rho0": 0.6, "f0": f0},
    )


# the epsilon sweeps of criteria 8a (and 10), 8b and 8c (and 6)
G3B2 = _compression(256, 3.0, 2.0, 200.0)
G15B3 = _compression(256, 1.5, 3.0, 200.0)
G2B3 = _compression(256, 2.0, 3.0, 600.0)


def _completed(shared_run, config):
    """(final state, records, wall seconds) of a run that must complete."""
    result, seconds = shared_run(config)
    if isinstance(result, Exception):
        raise result   # a failed run fails the criterion
    return (*result, seconds)


def _sweep(shared_run, config, axis, values):
    """(sweep table, summed wall seconds of its runs) from the shared runs."""
    runs = [(v, *shared_run(replace(config, **{axis: v}))) for v in values]
    table = SweepTable.from_runs(config, axis, (
        (v, res if isinstance(res, Exception) else res[1]) for v, res, _ in runs))
    return table, sum(seconds for _, _, seconds in runs)


def test_criterion_01_law_identity_battery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    tuples = []
    for _ in range(200):
        rho = rng.uniform(0.01, 0.99)
        gamma = rng.uniform(1.1, 4.0)
        beta = rng.uniform(1.1, 4.0)
        eps = 10.0 ** rng.uniform(-6, 0)
        tuples.append((rho, gamma, beta, eps))
        params = LawParams(epsilon=eps, delta=0.0, gamma=gamma, beta=beta)
        v = evaluate_laws(rho, params)
        r1, r2, r3 = constraint_residuals(rho, params)
        worst = max(
            worst,
            r1 / (1.0 + abs(v.big_lam)),
            r2 / (1.0 + abs((1.0 - rho) * v.p)),
            r3 / (1.0 + abs((1.0 - rho) * v.big_lam)),
        )
    assert worst <= 1e-12

    worst_quad = 0.0
    for rho, gamma, beta, eps in tuples[:20]:
        ref, _ = quad(lambda t: eps * (t / (1.0 - t)) ** beta / t**2, 0.0, rho,
                      limit=800, epsabs=0.0, epsrel=1e-12)
        big = evaluate_laws(rho, LawParams(epsilon=eps, delta=0.0,
                                           gamma=gamma, beta=beta)).big_lam
        worst_quad = max(worst_quad, abs(big - rho * ref) / abs(big))
    assert worst_quad <= 1e-8

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"[criterion 1] PASS: scaled residual {worst:.2e} <= 1e-12, "
          f"quadrature error {worst_quad:.2e} <= 1e-8, {elapsed:.2f}s")


def test_criterion_02_thermodynamic_identities():
    t0 = time.perf_counter()
    step = 1e-6
    cases = [
        (LawParams(epsilon=0.7, delta=0.0, gamma=1.8, beta=3.1),
         np.linspace(0.03, 0.93, 100)),
        (LawParams(epsilon=0.5, delta=0.2, gamma=2.2, beta=2.6),
         np.linspace(0.03, 0.75, 100)),       # exact branch, short of 0.8
        (LawParams(epsilon=0.5, delta=0.2, gamma=2.2, beta=2.6),
         np.linspace(0.85, 1.2, 100)),        # truncated branch
    ]
    worst = 0.0
    for params, probes in cases:
        lo = evaluate_laws(probes - step, params)
        hi = evaluate_laws(probes + step, params)
        mid = evaluate_laws(probes, params)
        dh = (hi.h - lo.h) / (2 * step)
        dbig = (hi.big_lam - lo.big_lam) / (2 * step)
        err_p = np.max(np.abs(probes * dh - mid.h - mid.p) / np.abs(mid.p))
        err_l = np.max(np.abs(probes * dbig - mid.big_lam - mid.lam) / np.abs(mid.lam))
        worst = max(worst, float(err_p), float(err_l))
    assert worst <= 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"[criterion 2] PASS: worst relative identity error {worst:.2e} "
          f"<= 1e-5 on 100 points per law/branch, {elapsed:.2f}s")


def test_criterion_03_elliptic_convergence():
    t0 = time.perf_counter()
    params = LawParams(epsilon=1e-2, delta=0.0, gamma=2.0, beta=3.0, mu=0.5, r=1.0)
    k = 2 * np.pi
    denom = 2.0 * params.mu * k**2 + params.r
    errs = {}
    for n in (64, 128, 256):
        g = make_grid(1, n)
        x = face_coords(g, 0)[0]
        f = FaceVectorField(g, (np.sin(k * x),))
        u, rep = solve_momentum(ScalarField.zeros(g), f, params)
        assert rep.converged and rep.final_relative_residual <= 1e-10
        assert rep.iterations <= 5 * n
        errs[n] = float(np.max(np.abs(u.components[0] - np.sin(k * x) / denom)))
    order1 = np.log2(errs[64] / errs[128])
    order2 = np.log2(errs[128] / errs[256])
    assert order1 >= 1.9 and order2 >= 1.9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"[criterion 3] PASS: observed orders {order1:.3f}, {order2:.3f} "
          f">= 1.9, CG within budget, {elapsed:.2f}s")


def _smooth(grid, rng, lo, hi):
    x = cell_coords(grid)[0]
    total = np.zeros(grid.shape)
    for kk in (1, 2, 3):
        total += rng.uniform(-1, 1) * np.sin(2 * np.pi * kk * x)
        total += rng.uniform(-1, 1) * np.cos(2 * np.pi * kk * x)
    total /= max(1.0, float(np.max(np.abs(total))))
    return lo + (hi - lo) * 0.5 * (1.0 + total)


def _flux_residuals(rho, u, f, params):
    """(flux_residual, mean_relation_residual) of the state's record."""
    big_lam = ScalarField(rho.grid, evaluate_laws(rho.data, params).big_lam.copy())
    rec, _ = build_record(SimState(t=0.0, rho=rho, u=u, big_lam=big_lam), f, params)
    return rec.flux_residual, rec.mean_relation_residual


def test_criterion_04_effective_flux_identity():
    t0 = time.perf_counter()
    params = LawParams(epsilon=1e-2, delta=0.0, gamma=2.0, beta=3.0, mu=0.5, r=1.0)
    g = make_grid(1, 256)
    x = face_coords(g, 0)[0]
    f = FaceVectorField(g, (np.sin(2 * np.pi * x),))
    rho = ScalarField.zeros(g)
    u, _ = solve_momentum(rho, f, params)
    flux_res, mean_rel = _flux_residuals(rho, u, f, params)
    assert flux_res <= 1e-8 and mean_rel <= 1e-8

    rng = np.random.default_rng(404)
    g64 = make_grid(1, 64)
    worst_flux = worst_mean = 0.0
    for _ in range(10):
        rho = ScalarField(g64, _smooth(g64, rng, 0.0, 0.8))
        fr = FaceVectorField(g64, (_smooth(g64, rng, -1.0, 1.0),))
        ur, _ = solve_momentum(rho, fr, params)
        fres, mres = _flux_residuals(rho, ur, fr, params)
        worst_flux = max(worst_flux, fres)
        worst_mean = max(worst_mean, mres)
    assert worst_flux <= 1e-8 and worst_mean <= 1e-8   # 100 * solver tol
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"[criterion 4] PASS: manufactured residuals ({flux_res:.1e}, "
          f"{mean_rel:.1e}), random-state worst ({worst_flux:.1e}, "
          f"{worst_mean:.1e}) <= 1e-8, {elapsed:.2f}s")


def _translate_once(n):
    params = LawParams(epsilon=1e-2, delta=0.0, gamma=2.0, beta=3.0)
    g = make_grid(1, n)
    x = cell_coords(g)[0]
    rho = ScalarField(g, 0.45 + 0.25 * np.sin(2 * np.pi * x))
    mass0 = float(np.sum(rho.data)) * g.dx
    u = FaceVectorField(g, (np.ones(g.shape),))
    dt = 0.4 * g.dx
    steps = int(round(1.0 / dt))
    dt = 1.0 / steps
    for _ in range(steps):
        rho, _ = advect_density(rho, u, dt, params)
    drift = abs(float(np.sum(rho.data)) * g.dx - mass0)
    # after one period the exact profile returns to the initial data
    err = float(np.sum(np.abs(rho.data - (0.45 + 0.25 * np.sin(2 * np.pi * x))))) * g.dx
    return drift, err


def test_criterion_05_transport_conservation():
    t0 = time.perf_counter()
    drift1, err1 = _translate_once(64)
    drift2, err2 = _translate_once(128)
    assert drift1 <= 1e-13 and drift2 <= 1e-13
    ratio = err1 / err2
    assert 1.7 <= ratio <= 2.3
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"[criterion 5] PASS: mass drift ({drift1:.1e}, {drift2:.1e}) "
          f"<= 1e-13, L1 halving ratio {ratio:.3f} in [1.7, 2.3], {elapsed:.2f}s")


def test_criterion_06_density_bound_contract(shared_run):
    # the eps = 1e-2 row of the 8c sweep
    state, records, elapsed = _completed(shared_run, replace(G2B3, epsilon=1e-2))
    max_rho = max(r.max_rho for r in records)
    assert max_rho < 1.0
    assert records[-1].meas_099 > 0.0
    assert state.t == pytest.approx(1.0, abs=1e-10)
    assert elapsed < 120.0
    print(f"[criterion 6] PASS: completed with zero aborts, max rho "
          f"{max_rho:.6f} < 1, congested measure {records[-1].meas_099:.4f} "
          f"> 0 at t_end, {elapsed:.1f}s")


def test_criterion_07_energy_ledger(shared_run):
    drifts = {}
    elapsed = 0.0
    for n in (64, 128):
        cfg = _compression(n, 2.0, 3.0, 5.0, epsilon=1e-2)
        _, records, seconds = _completed(shared_run, cfg)
        elapsed += seconds
        assert all(r.dissipation >= 0.0 for r in records)
        led = energy_report(records, cfg.law_params(), cfg.make_grid())
        drifts[n] = abs(led.final_drift)
    ratio = drifts[64] / drifts[128]
    assert 1.5 <= ratio <= 2.5
    assert elapsed < 300.0
    print(f"[criterion 7] PASS: drift {drifts[64]:.2e} -> {drifts[128]:.2e}, "
          f"halving ratio {ratio:.3f} in [1.5, 2.5], dissipation >= 0 "
          f"throughout, {elapsed:.1f}s")


def _table_exponent(config, tag, metric):
    return limit_exponents(config.law_params())[tag][metric]


def test_criterion_08a_pressure_no_memory_sweep(shared_run):
    table, elapsed = _sweep(shared_run, G3B2, "epsilon", EPS_VALUES)
    assert all(r.ok for r in table.rows)
    want = _table_exponent(G3B2, RegimeTag.PRESSURE_NO_MEMORY, "L1_big_lam")
    fit = fit_rate(table, "L1_big_lam")
    assert fit.slope >= want - 0.15
    assert abs(fit.slope - want) <= 0.05
    res = classify_limit(table, G3B2.law_params())
    assert res.observed is RegimeTag.PRESSURE_NO_MEMORY and res.agrees
    print(f"[criterion 8a] PASS: slope(L1_big_lam) = {fit.slope:.4f} >= "
          f"{want - 0.15:.4f} and within 0.05 of the table's {want:.4f}, "
          f"classified PressureNoMemory, sweep {elapsed:.0f}s")


def test_criterion_08b_memory_no_pressure_sweep(shared_run):
    table, elapsed = _sweep(shared_run, G15B3, "epsilon", EPS_VALUES)
    assert all(r.ok for r in table.rows)
    want = _table_exponent(G15B3, RegimeTag.MEMORY_NO_PRESSURE, "L1_p")
    fit = fit_rate(table, "L1_p")
    assert fit.slope >= want - 0.15
    assert abs(fit.slope - want) <= 0.05
    res = classify_limit(table, G15B3.law_params())
    assert res.observed is RegimeTag.MEMORY_NO_PRESSURE and res.agrees
    print(f"[criterion 8b] PASS: slope(L1_p) = {fit.slope:.4f} >= "
          f"{want - 0.15:.4f} and within 0.05 of the table's {want:.4f}, "
          f"classified MemoryNoPressure, sweep {elapsed:.0f}s")


def test_criterion_08c_memory_and_pressure_sweep(shared_run):
    table, elapsed = _sweep(shared_run, G2B3, "epsilon", EPS_VALUES)
    assert all(r.ok for r in table.rows)
    mp_max = max(r.metrics["max_mp_residual"] for r in table.rows)
    assert mp_max <= 1e-10   # at every step of every run
    excl = [r.metrics["final_excl_big_lam"] for r in table.rows]
    assert all(b < a for a, b in zip(excl, excl[1:]))
    want = _table_exponent(G2B3, RegimeTag.MEMORY_AND_PRESSURE, "excl_big_lam")
    fit = fit_rate(table, "excl_big_lam")
    assert abs(fit.slope - want) <= 0.05
    res = classify_limit(table, G2B3.law_params())
    assert res.observed is RegimeTag.MEMORY_AND_PRESSURE and res.agrees
    total = elapsed + sum(shared_run(replace(cfg, epsilon=v))[1]
                          for cfg in (G3B2, G15B3) for v in EPS_VALUES)
    assert total < 1800.0
    print(f"[criterion 8c] PASS: max mp residual {mp_max:.2e} <= 1e-10, "
          f"excl_big_lam strictly decreasing with slope {fit.slope:.4f} within "
          f"0.05 of the table's {want:.4f}, classified MemoryAndPressure; "
          f"all three sweeps {total:.0f}s < 30min")


def test_criterion_09_delta_sweep_measure_bound(shared_run):
    cfg = RunConfig(
        dim=1, n=512, t_end=0.3, epsilon=1e-2, gamma=2.0, beta=3.0,
        delta=DELTA_VALUES[0], scenario="spike",
        scenario_params={"rho0": 0.6, "amp": 4000.0, "width": 0.008},
    )
    table, elapsed = _sweep(shared_run, cfg, "delta", DELTA_VALUES)
    assert all(r.ok for r in table.rows)
    meas = [r.metrics["max_meas_1md"] for r in table.rows]
    assert all(m > 0.0 for m in meas)
    assert all(b <= a for a, b in zip(meas, meas[1:]))   # nonincreasing in delta
    fit = fit_rate(table, "max_meas_1md", drop_nonpositive=True)
    assert fit.slope >= 0.6
    assert elapsed < 600.0
    print(f"[criterion 9] PASS: overshoot measures {['%.4f' % m for m in meas]} "
          f"nonincreasing, fitted exponent {fit.slope:.3f} >= 0.6, {elapsed:.0f}s")


def test_criterion_10_incompressibility_shadow(shared_run):
    table, _ = _sweep(shared_run, G3B2, "epsilon", EPS_VALUES)
    vals = [r.metrics["max_max_divu_congested"] for r in table.rows]
    for prev, nxt in zip(vals, vals[1:]):
        assert nxt <= 1.1 * prev   # 10% slack on consecutive values
    # rows whose congested set {rho >= 0.99} is ever non-empty; where it
    # stays empty, max |div u| over it is 0 and the check above is vacuous
    congested = sum(
        any(r.meas_099 > 0.0
            for r in _completed(shared_run, replace(G3B2, epsilon=v))[1])
        for v in EPS_VALUES
    )
    print(f"[criterion 10] PASS: max |div u| over congested cells "
          f"{['%.3g' % v for v in vals]} monotone within 10% slack; congested "
          f"set non-empty in {congested} of {len(table.rows)} rows")


def _rotation_squeeze(n, f0, t_end):
    return RunConfig(
        dim=2, n=n, t_end=t_end, epsilon=1e-2, gamma=2.0, beta=3.0,
        scenario="rotation_squeeze",
        scenario_params={"rho0": 0.6, "f0": f0, "rot": 20.0},
    )


def test_criterion_11_rotation_squeeze_2d(shared_run):
    # (a) energy ledger with the curl term active: the drift halves under
    # refinement and the a priori bound holds
    drifts = {}
    elapsed = 0.0
    for n in (32, 64):
        cfg = _rotation_squeeze(n, 40.0, 0.3)
        _, records, seconds = _completed(shared_run, cfg)
        elapsed += seconds
        assert all(r.dissipation >= 0.0 for r in records)
        led = energy_report(records, cfg.law_params(), cfg.make_grid())
        assert led.bound_holds
        drifts[n] = abs(led.final_drift)
    ratio = drifts[32] / drifts[64]
    assert 1.5 <= ratio <= 2.5

    # (b) strong squeeze: a congested set forms, rho stays below 1, mass is
    # conserved and the flux identity holds at every step
    cfg = _rotation_squeeze(32, 300.0, 1.0)
    state, records, seconds = _completed(shared_run, cfg)
    elapsed += seconds
    assert state.t == pytest.approx(1.0, abs=1e-10)
    assert records[-1].meas_099 > 0.0
    table = np.array([r.csv_values() for r in records], dtype=float)
    col = {name: table[:, i] for i, name in enumerate(CSV_COLUMNS)}
    max_rho = float(np.max(col["max_rho"]))
    assert max_rho < 1.0
    mass = col["mass"]
    mass_drift = float(np.max(np.abs(mass - mass[0]))) / mass[0]
    assert mass_drift <= 1e-12
    bound = 1e-8 * (1.0 + evaluate_laws(col["max_rho"], cfg.law_params()).p)
    flux_margin = float(np.max(col["flux_residual"] / bound))
    assert flux_margin <= 1.0
    assert elapsed < 120.0
    print(f"[criterion 11] PASS: 2D drift {drifts[32]:.2e} -> {drifts[64]:.2e}, "
          f"halving ratio {ratio:.3f} in [1.5, 2.5], bound holds; squeeze max rho "
          f"{max_rho:.6f} < 1, congested measure {records[-1].meas_099:.4f} > 0, "
          f"mass drift {mass_drift:.1e} <= 1e-12, flux residual at "
          f"{flux_margin:.2f} of its bound, {elapsed:.1f}s")


# criterion 12: the exponent table on both sides of s = 1 + gamma - beta = 0,
# the near-boundary pairs (2.2, 3) and (2, 3.2) included
TABLE_PAIRS = [(3.0, 2.0), (4.0, 2.0), (4.0, 3.0), (2.2, 3.0),
               (2.0, 3.0), (2.0, 3.2), (1.5, 3.0), (2.0, 5.0)]


def test_criterion_12_exponent_table(shared_run):
    worst_slope = worst_rate = elapsed = 0.0
    tables, rates = {}, {}
    for gamma, beta in TABLE_PAIRS:
        cfg = _compression(64, gamma, beta, 200.0 if beta == 2.0 else 600.0)
        params = cfg.law_params()
        exponents = limit_exponents(params)
        # (a) every slope lies within 0.05 of the column of regime(params)
        table, _ = _sweep(shared_run, cfg, "epsilon", EPS_VALUES)
        tables[gamma, beta] = table
        for metric, want in exponents[regime(params)].items():
            dev = abs(fit_rate(table, metric).slope - want)
            assert dev <= 0.05, (gamma, beta, metric)
            worst_slope = max(worst_slope, dev)
        # (b) the classifier agrees
        res = classify_limit(table, params)
        assert res.agrees and res.observed is regime(params), (gamma, beta)
        # (c) the density rate: L1(rho_eps - rho_{eps/10}) at t_end (unit length)
        runs = [_completed(shared_run, replace(cfg, epsilon=v))
                for v in EPS_VALUES + [1e-5]]
        elapsed += sum(seconds for _, _, seconds in runs)
        gaps = [np.mean(np.abs(a.rho.data - b.rho.data))
                for (a, _, _), (b, _, _) in zip(runs, runs[1:])]
        rates[gamma, beta] = np.polyfit(np.log(EPS_VALUES), np.log(gaps), 1)[0]
        dev = abs(rates[gamma, beta] - exponents["L1_drho"])
        assert dev <= 0.05, (gamma, beta)
        worst_rate = max(worst_rate, dev)
    # the rate is not 1/gamma alone where memory holds the block
    for gamma, beta in ((1.5, 3.0), (2.0, 5.0)):
        assert abs(rates[gamma, beta] - 1.0 / gamma) > 0.15, (gamma, beta)
    # the (2, 3.2) sweep read with the parameters (2.2, 3) is a disagreement
    wrong = classify_limit(tables[2.0, 3.2], _compression(64, 2.2, 3.0, 600.0).law_params())
    assert not wrong.agrees
    assert elapsed < 60.0
    print(f"[criterion 12] PASS: {len(TABLE_PAIRS)} pairs, every slope within "
          f"{worst_slope:.3f} <= 0.05 of the table and classified as regime() "
          f"predicts; density rates {', '.join(f'{r:.3f}' for r in rates.values())} "
          f"within {worst_rate:.3f} <= 0.05 of the table, > 0.15 from 1/gamma on "
          f"(1.5, 3) and (2, 5); (2, 3.2) read as (2.2, 3) gives "
          f"{wrong.observed.value}, a disagreement; {elapsed:.1f}s")
