"""Command-line front end.

Subcommands:

  simulate     integrate one configuration, write diagnostics.csv (+snapshots)
  sweep        rerun a configuration over decreasing epsilon or delta values
  verify-laws  randomized identity battery for the constitutive laws
  fit          log-log rate fit of one sweep metric
  classify     stiff-limit regime verdict from a sweep table

Exit codes: 0 success, 1 degenerate result (failed fit/sweep/verdict),
2 configuration error, 3 solver failure, 4 congestion overflow,
5 classification disagreement (only with --expect-theory).
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import os
import sys

import numpy as np

from .diagnostics import CONGESTION_THETA
from .errors import (
    BrinkflowError,
    CongestionOverflow,
    ConfigError,
    FitDegenerate,
    SolverDiverged,
    SweepDegenerate,
    Unclassifiable,
)
from .harness import (
    RunConfig,
    SweepTable,
    classify_limit,
    fit_rate,
    load_config,
    run_simulation,
    sweep,
    write_report,
)
from .laws import LawParams, constraint_residuals, evaluate_laws

def _eprint(*args):
    print(*args, file=sys.stderr)


# -- simulate -------------------------------------------------------------------

def _cmd_simulate(args):
    config = load_config(args.config)
    try:
        state, records = run_simulation(config, outdir=args.out)
    except (SolverDiverged, CongestionOverflow) as exc:
        _eprint(f"simulate failed after {len(exc.records)} records: {exc}")
        return 4 if isinstance(exc, CongestionOverflow) else 3
    last = records[-1]
    print(f"completed {state.step_count} steps to t = {last.t:.6g}")
    print(f"mass = {last.mass:.12g}  rho in [{last.min_rho:.6g}, {last.max_rho:.6g}]")
    print(f"flux_residual = {last.flux_residual:.3e}  "
          f"mean_relation_residual = {last.mean_relation_residual:.3e}")
    print(f"congested measure (rho >= {CONGESTION_THETA}) = {last.meas_099:.6g}")
    print(f"wrote {os.path.join(args.out, 'diagnostics.csv')}")
    return 0


# -- sweep ----------------------------------------------------------------------

def _parse_values(text):
    try:
        vals = [float(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --values list: {text!r}") from exc
    if not vals:
        raise ConfigError("--values list is empty")
    return vals


def _cmd_sweep(args):
    config = load_config(args.config)
    values = _parse_values(args.values)
    report_path = os.path.join(args.out, "report.txt")
    try:
        table = sweep(config, args.axis, values, outdir=args.out)
    except SweepDegenerate as exc:
        write_report(report_path, exc.table, error=exc)
        _eprint(f"sweep degenerate: {exc}")
        return 1

    classification = None
    error = None
    if args.axis == "epsilon":
        try:
            classification = classify_limit(table, config.law_params())
            print("classification: " + classification.summary())
        except Unclassifiable as exc:
            error = exc
            _eprint(f"classification failed: {exc}")
    write_report(report_path, table, classification=classification, error=error)
    print(f"wrote {os.path.join(args.out, 'sweep.csv')} and {report_path}")
    if args.expect_theory and args.axis == "epsilon":
        if classification is None or not classification.agrees:
            _eprint("verdict disagrees with the exponent-based prediction")
            return 5
    return 0


# -- verify-laws ------------------------------------------------------------------

def _relative_thermo_errors(params, rho, step):
    """|rho*d(pot)/drho - pot - source| / (1 + |source|) by central differences."""
    lo = evaluate_laws(rho - step, params)
    hi = evaluate_laws(rho + step, params)
    mid = evaluate_laws(rho, params)
    dh = (hi.h - lo.h) / (2.0 * step)
    dbig = (hi.big_lam - lo.big_lam) / (2.0 * step)
    err_p = abs(rho * dh - mid.h - mid.p) / (1.0 + abs(mid.p))
    err_lam = abs(rho * dbig - mid.big_lam - mid.lam) / (1.0 + abs(mid.lam))
    return err_p, err_lam


def _cmd_verify_laws(args):
    n = args.samples
    if n < 1:
        raise ConfigError(f"--samples must be >= 1, got {n}")
    rng = np.random.default_rng(args.seed)
    worst = dict.fromkeys(("constraint residual", "thermo identity error", "junction jump"), 0.0)
    failures = []

    def check(kind, value, bound, message):
        worst[kind] = max(worst[kind], value)
        if value > bound:
            failures.append(message)

    for i in range(n):
        eps = 10.0 ** rng.uniform(-4.0, 0.0)
        gamma = rng.uniform(1.2, 3.5)
        beta = rng.uniform(1.2, 3.5)
        rho = rng.uniform(0.05, 0.9)
        exact = LawParams(epsilon=eps, delta=0.0, gamma=gamma, beta=beta)

        vals = evaluate_laws(rho, exact)
        r1, r2, r3 = constraint_residuals(rho, exact)
        rel = max(r1 / (1.0 + vals.big_lam), r2 / (1.0 + (1.0 - rho) * vals.p),
                  r3 / (1.0 + (1.0 - rho) * vals.big_lam))
        check("constraint residual", rel, 1e-9,
              f"constraint residual {rel:.3e} at "
              f"rho={rho:.6g} eps={eps:.3e} gamma={gamma:.4g} beta={beta:.4g}")

        err = max(_relative_thermo_errors(exact, rho, 1e-6 * (1.0 - rho)))
        check("thermo identity error", err, 1e-5,
              f"thermo identity error {err:.3e} (exact branch) at "
              f"rho={rho:.6g} eps={eps:.3e} gamma={gamma:.4g} beta={beta:.4g}")

        # truncated branch: identities away from the junction, continuity at it
        delta = 10.0 ** rng.uniform(-3.0, -0.7)
        trunc = LawParams(epsilon=eps, delta=delta, gamma=gamma, beta=beta)
        edge = 1.0 - delta
        rho_t = rng.uniform(edge + 0.01, 1.2)
        err = max(_relative_thermo_errors(trunc, rho_t, 1e-6))
        check("thermo identity error", err, 1e-5,
              f"thermo identity error {err:.3e} (truncated branch) at "
              f"rho={rho_t:.6g} delta={delta:.3e} gamma={gamma:.4g} beta={beta:.4g}")
        below = evaluate_laws(edge * (1.0 - 1e-11), trunc)
        above = evaluate_laws(edge * (1.0 + 1e-11), trunc)
        for name in ("p", "lam", "h", "big_lam"):
            lo, hi = getattr(below, name), getattr(above, name)
            jump = abs(hi - lo) / (1.0 + abs(lo))
            check("junction jump", jump, 1e-6,
                  f"{name} jumps by {jump:.3e} across the junction at "
                  f"delta={delta:.3e} gamma={gamma:.4g} beta={beta:.4g}")

    print(f"laws battery: {n} samples, seed {args.seed}")
    for kind, value in worst.items():
        print(f"max relative {kind}: {value:.3e}")
    if failures:
        for line in failures[:20]:
            _eprint("FAIL " + line)
        _eprint(f"{len(failures)} failures")
        return 1
    print("all identities hold")
    return 0


# -- fit / classify ----------------------------------------------------------------

def _cmd_fit(args):
    table = SweepTable.load(args.table)
    fit = fit_rate(table, args.metric, drop_nonpositive=args.drop_nonpositive)
    print(f"metric = {args.metric} (axis = {table.axis})")
    print(f"slope = {fit.slope:.6g}")
    print(f"log_intercept = {fit.log_intercept:.6g}")
    print(f"r_squared = {fit.r_squared:.6g}")
    print(f"n_points = {fit.n_points}")
    return 0


def _params_from_table(table):
    """LawParams from a sweep table's header; an optional key it lacks takes
    its ``RunConfig`` default."""
    needed = ("epsilon", "gamma", "beta")
    missing = [k for k in needed if k not in table.params]
    if missing:
        raise ConfigError(
            f"sweep table lacks parameter header(s): {', '.join(missing)}"
        )
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    return LawParams(**{
        f.name: table.params.get(f.name, defaults[f.name])
        for f in dataclasses.fields(LawParams)
    })


def _cmd_classify(args):
    table = SweepTable.load(args.table)
    params = _params_from_table(table)
    try:
        result = classify_limit(table, params)
    except Unclassifiable as exc:
        _eprint(f"unclassifiable: {exc}")
        return 5 if args.expect_theory else 1
    print(result.summary())
    if args.expect_theory and not result.agrees:
        _eprint("verdict disagrees with the exponent-based prediction")
        return 5
    return 0


# -- entry point --------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="brinkflow",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate one configuration")
    p.add_argument("--config", required=True, help="path to a key = value config file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="rerun one configuration over a parameter sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", required=True, choices=("epsilon", "delta"))
    p.add_argument("--values", required=True,
                   help="comma-separated, strictly decreasing values")
    p.add_argument("--out", required=True)
    p.add_argument("--expect-theory", action="store_true",
                   help="exit 5 if the verdict disagrees with the exponent prediction")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify-laws",
                       help="randomized identity battery for the constitutive laws")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_laws)

    p = sub.add_parser("fit", help="log-log rate fit of one sweep metric")
    p.add_argument("--table", required=True, help="path to a sweep.csv")
    p.add_argument("--metric", required=True,
                   help="metric name, optionally prefixed final_/max_")
    p.add_argument("--drop-nonpositive", action="store_true",
                   help="fit on the positive subset when zeros occur")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser(
        "classify",
        help="stiff-limit regime verdict from an epsilon-sweep table",
        description=inspect.getdoc(classify_limit),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--table", required=True)
    p.add_argument("--expect-theory", action="store_true",
                   help="exit 5 on disagreement or an unclassifiable sweep")
    p.set_defaults(func=_cmd_classify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        _eprint(f"config error: {exc}")
        return 2
    except SolverDiverged as exc:
        _eprint(f"solver failure: {exc}")
        return 3
    except CongestionOverflow as exc:
        _eprint(f"congestion overflow: {exc}")
        return 4
    except (FitDegenerate, SweepDegenerate) as exc:
        _eprint(f"degenerate result: {exc}")
        return 1
    except BrinkflowError as exc:
        _eprint(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
