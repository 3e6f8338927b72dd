"""Command-line interface tests: subcommand behavior and exit codes.

Exit code contract: 0 success, 1 degenerate sweep/fit/verdict, 2 bad
configuration, 3 solver failure, 4 congestion overflow, 5 classification
disagreement under --expect-theory.
"""

import csv
import dataclasses
import inspect

import numpy as np
import pytest

from brinkflow import SWEEP_METRICS, SweepRow, SweepTable
from brinkflow import (
    LawParams, RegimeTag, RunConfig, classify_limit, limit_exponents, load_config,
)
from brinkflow.cli import build_parser, main
from brinkflow.cli import _params_from_table
from brinkflow.harness import _SLOPE_TOL

GOOD_CFG = """
dim = 1
n = 16
t_end = 0.05
epsilon = 1e-2
gamma = 2.0
beta = 3.0
scenario = equilibrium
scenario.rho0 = 0.3
"""

FORCED_CFG = """
dim = 1
n = 32
t_end = 0.2
epsilon = 1e-2
gamma = 2.0
beta = 3.0
scenario = compression
scenario.f0 = 50.0
snapshot_every = 0.02
"""

# a compression that congests, so its epsilon sweep feels the stiff limit
CONGESTING_CFG = """
dim = 1
n = 64
t_end = 1.0
epsilon = 1e-1
gamma = 2.0
beta = 3.0
scenario = compression
scenario.rho0 = 0.6
scenario.f0 = 600.0
"""

SPIKE_CFG = """
dim = 1
n = 32
t_end = 0.05
epsilon = 1e-2
gamma = 2.0
beta = 3.0
scenario = spike
"""

OVERFLOW_CFG = """
dim = 1
n = 64
t_end = 1.0
epsilon = 1e-30
gamma = 2.0
beta = 3.0
scenario = compression
scenario.rho0 = 0.9999999999
scenario.f0 = 5.0
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def save_table(tmp_path, metric_fn, values=(1e-1, 1e-2, 1e-3, 1e-4),
               gamma=2.0, beta=3.0):
    rows = []
    for v in values:
        named = metric_fn(v)
        metrics = {}
        for name in SWEEP_METRICS:
            val = named.get(name, 1.0)
            metrics[f"final_{name}"] = val
            metrics[f"max_{name}"] = named.get("max_" + name, val)
        rows.append(SweepRow(v, "ok", metrics))
    table = SweepTable(axis="epsilon", rows=rows,
                       params={"epsilon": 1e-2, "delta": 0.0,
                               "gamma": gamma, "beta": beta,
                               "mu": 0.5, "r": 1.0})
    path = tmp_path / "sweep.csv"
    table.save(path)
    return str(path)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--help"])
    assert exc_info.value.code == 0


def test_classify_help_documents_thresholds(capsys):
    parser = build_parser()
    text = parser.format_help()
    for sub in ("simulate", "sweep", "verify-laws", "fit", "classify"):
        assert sub in text
    # the decision rule is part of the interface contract; its one text is
    # the docstring of classify_limit, which states the tolerance
    with pytest.raises(SystemExit):
        main(["classify", "--help"])
    assert inspect.getdoc(classify_limit) in capsys.readouterr().out
    assert f"more than {_SLOPE_TOL}" in inspect.getdoc(classify_limit)


def test_simulate_success(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GOOD_CFG)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mass" in out
    csv_path = tmp_path / "out" / "diagnostics.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("step,t,dt,mass")
    assert len(lines) >= 3


def test_simulate_missing_config_is_config_error(tmp_path):
    rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path / "out")])
    assert rc == 2


def test_simulate_config_directory_is_config_error(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_simulate_non_utf8_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"\xff\xfe")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"config {path} is not UTF-8" in capsys.readouterr().err


def test_simulate_bad_key_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, GOOD_CFG + "wobble = 3\n")
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2


def test_simulate_bad_cfl_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, GOOD_CFG + "cfl = 1.5\n")
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2


@pytest.mark.parametrize("line", ["t_end = inf", "snapshot_every = nan", "r = inf"])
def test_simulate_non_finite_value_is_config_error(tmp_path, capsys, line):
    cfg = write_cfg(tmp_path, GOOD_CFG + line + "\n")
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err


def test_simulate_solver_stall_exit_code(tmp_path, stall_momentum):
    stall_momentum(1)
    cfg = write_cfg(tmp_path, GOOD_CFG)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 3
    # the record of the one completed step lands on disk
    lines = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0,")


def test_simulate_diagnostics_failure_keeps_earlier_rows(tmp_path, fail_diagnostics):
    # a flux solve failing at step 5 ends the run with exit 3, the five
    # earlier rows on disk and no snapshot of a later step
    cfg = write_cfg(tmp_path, FORCED_CFG)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
    fail_diagnostics(load_config(cfg), 5)
    out = tmp_path / "failed"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert len(lines) == 6 and lines[-1].startswith("4,")

    def snapshot_steps(d):
        return sorted(int(p.name[4:10]) for p in (d / "snapshots").glob("*_rho.txt"))

    assert max(snapshot_steps(tmp_path / "ok")) > 5
    assert snapshot_steps(out) and max(snapshot_steps(out)) < 5


def test_simulate_congestion_overflow_exit_code(tmp_path, capsys):
    for snapshots in ("", "snapshot_every = 0.05\n"):
        out = tmp_path / ("with_snapshots" if snapshots else "plain")
        rc = main(["simulate", "--config", write_cfg(tmp_path, OVERFLOW_CFG + snapshots),
                   "--out", str(out)])
        assert rc == 4
        # partial diagnostics still land on disk for the post-mortem: the
        # overflowing step keeps its record, with the floor step it took,
        # and its snapshot
        rows = list(csv.DictReader((out / "diagnostics.csv").read_text().splitlines()))
        assert len(rows) == 1 and float(rows[0]["dt"]) > 0.0
        assert (out / "snapshots" / "step000000_rho.txt").exists() == bool(snapshots)


def test_sweep_success_and_agreement(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CONGESTING_CFG)
    out = str(tmp_path / "sweepout")
    rc = main(["sweep", "--config", cfg, "--axis", "epsilon",
               "--values", "1e-1,1e-2,1e-3,1e-4", "--out", out, "--expect-theory"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "classification:" in captured
    assert (tmp_path / "sweepout" / "sweep.csv").exists()
    report = (tmp_path / "sweepout" / "report.txt").read_text()
    assert "observed=MemoryAndPressure" in report


def test_sweep_disagreement_exit_code(tmp_path):
    # a uniform density does not feel epsilon: every slope is 1, no regime's
    # exponents match, and --expect-theory must fail
    cfg = write_cfg(tmp_path, GOOD_CFG.replace("gamma = 2.0", "gamma = 3.0")
                                      .replace("beta = 3.0", "beta = 2.0"))
    out = str(tmp_path / "sweepout")
    rc = main(["sweep", "--config", cfg, "--axis", "epsilon",
               "--values", "1e-2,1e-3,1e-4", "--out", out, "--expect-theory"])
    assert rc == 5
    # without the flag the disagreement is reported but not fatal
    rc = main(["sweep", "--config", cfg, "--axis", "epsilon",
               "--values", "1e-2,1e-3,1e-4", "--out", out])
    assert rc == 0


def test_sweep_degenerate_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, GOOD_CFG)
    out = str(tmp_path / "deg")
    rc = main(["sweep", "--config", cfg, "--axis", "epsilon",
               "--values", "1e-2,1e-3", "--out", out])
    assert rc == 1
    assert (tmp_path / "deg" / "sweep.csv").exists()


def test_delta_sweep_to_exact_laws(tmp_path, capsys):
    # the spike congests within t_end, so truncation changes every run: the
    # pressure excess rises as delta falls, and each truncated run has cells
    # at rho >= 1 - delta.  The last row runs the exact laws (delta = 0): the
    # report fits the three positive rows, and a strict fit refuses log(0)
    cfg = write_cfg(tmp_path, SPIKE_CFG)
    out = tmp_path / "sweepout"
    rc = main(["sweep", "--config", cfg, "--axis", "delta",
               "--values", "0.1,0.05,0.02,0", "--out", str(out)])
    assert rc == 0
    report = (out / "report.txt").read_text()
    assert "delta=0: ok" in report
    assert "slope[L1_p] = " in report and "3 points" in report
    table = SweepTable.load(out / "sweep.csv")
    assert [row.value for row in table.rows] == [0.1, 0.05, 0.02, 0.0]
    assert all(row.ok for row in table.rows)
    l1_p = [row.metrics["final_L1_p"] for row in table.rows]
    assert all(a < b for a, b in zip(l1_p, l1_p[1:])), l1_p
    assert all(row.metrics["max_meas_1md"] > 0.0 for row in table.rows if row.value > 0.0)
    capsys.readouterr()
    path = str(out / "sweep.csv")
    assert main(["fit", "--table", path, "--metric", "L1_p"]) == 1
    assert "degenerate result" in capsys.readouterr().err
    assert main(["fit", "--table", path, "--metric", "L1_p", "--drop-nonpositive"]) == 0
    assert "n_points = 3" in capsys.readouterr().out


def test_sweep_bad_values_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, GOOD_CFG)
    rc = main(["sweep", "--config", cfg, "--axis", "epsilon",
               "--values", "1e-3,1e-2", "--out", str(tmp_path / "x")])
    assert rc == 2
    # a row that is no valid configuration fails the sweep before any row runs
    for i, values in enumerate(["0.1,0.01,0", "0.1,0.01,nan,0.001"]):
        out = tmp_path / f"invalid{i}"
        assert main(["sweep", "--config", cfg, "--axis", "epsilon",
                     "--values", values, "--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_laws_without_samples_is_config_error(capsys, samples):
    assert main(["verify-laws", "--samples", samples]) == 2
    assert "--samples must be >= 1" in capsys.readouterr().err


def test_verify_laws_passes(capsys):
    rc = main(["verify-laws", "--samples", "50", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "constraint residual" in out
    assert "all identities hold" in out


def test_verify_laws_report_is_pinned(capsys):
    assert main(["verify-laws", "--samples", "200", "--seed", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "laws battery: 200 samples, seed 0",
        "max relative constraint residual: 1.889e-16",
        "max relative thermo identity error: 6.962e-10",
        "max relative junction jump: 4.755e-08",
        "all identities hold",
    ]


def test_verify_laws_names_each_failure(capsys, monkeypatch):
    # broken laws: R1 off by 1, p off by 1 (both thermo checks) and big_lam
    # stepping by 1 at the junction; each failed check prints its line
    import brinkflow.cli
    from brinkflow.laws import evaluate_laws

    def broken(rho, params):
        vals = evaluate_laws(rho, params)
        step = 1.0 if params.delta > 0.0 and rho > 1.0 - params.delta else 0.0
        return dataclasses.replace(vals, p=vals.p + 1.0, big_lam=vals.big_lam + step)

    monkeypatch.setattr(brinkflow.cli, "constraint_residuals", lambda rho, params: (1.0, 0.0, 0.0))
    monkeypatch.setattr(brinkflow.cli, "evaluate_laws", broken)
    assert main(["verify-laws", "--samples", "2", "--seed", "0"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "laws battery: 2 samples, seed 0",
        "max relative constraint residual: 9.965e-01",
        "max relative thermo identity error: 4.999e-01",
        "max relative junction jump: 8.108e-01",
    ]
    assert err.splitlines() == [
        "FAIL constraint residual 9.965e-01 at rho=0.0640485 eps=3.531e-02 gamma=1.821 "
        "beta=1.294",
        "FAIL thermo identity error 4.999e-01 (exact branch) at rho=0.0640485 eps=3.531e-02 "
        "gamma=1.821 beta=1.294",
        "FAIL thermo identity error 4.420e-01 (truncated branch) at rho=1.17695 "
        "delta=7.422e-02 gamma=1.821 beta=1.294",
        "FAIL big_lam jumps by 8.108e-01 across the junction at delta=7.422e-02 gamma=1.821 "
        "beta=1.294",
        "FAIL constraint residual 8.463e-01 at rho=0.844812 eps=2.670e-02 gamma=2.878 "
        "beta=2.45",
        "FAIL thermo identity error 1.817e-01 (exact branch) at rho=0.844812 eps=2.670e-02 "
        "gamma=2.878 beta=2.45",
        "FAIL thermo identity error 7.225e-02 (truncated branch) at rho=0.935484 "
        "delta=7.524e-02 gamma=2.878 beta=2.45",
        "FAIL big_lam jumps by 6.069e-01 across the junction at delta=7.524e-02 gamma=2.878 "
        "beta=2.45",
        "8 failures",
    ]


def test_fit_subcommand(tmp_path, capsys):
    path = save_table(tmp_path, lambda v: {"L1_p": 2.0 * v**0.5})
    rc = main(["fit", "--table", path, "--metric", "L1_p"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "slope = 0.5" in out
    assert "n_points = 4" in out


def test_fit_unknown_metric(tmp_path):
    path = save_table(tmp_path, lambda v: {"L1_p": v})
    assert main(["fit", "--table", path, "--metric", "vorticity"]) == 2


def test_fit_degenerate(tmp_path):
    path = save_table(tmp_path, lambda v: {"L1_p": 0.0})
    assert main(["fit", "--table", path, "--metric", "L1_p"]) == 1
    # dropping nonpositive points cannot save an all-zero column
    assert main(["fit", "--table", path, "--metric", "L1_p",
                 "--drop-nonpositive"]) == 1
    # one axis value, or an infinite metric value, has no slope either
    ys = iter([1.0, 2.0, 3.0])
    path = save_table(tmp_path, lambda v: {"L1_p": next(ys)}, values=(1e-2,) * 3)
    assert main(["fit", "--table", path, "--metric", "L1_p"]) == 1
    path = save_table(tmp_path, lambda v: {"L1_p": np.inf if v == 1e-3 else v})
    assert main(["fit", "--table", path, "--metric", "L1_p"]) == 1


def test_fit_missing_table(tmp_path):
    assert main(["fit", "--table", str(tmp_path / "gone.csv"),
                 "--metric", "L1_p"]) == 2


# each edit leaves a saved table that ``fit`` must refuse as a configuration error
MALFORMED_TABLES = {
    "value": lambda text: text.replace("\n0.10000000000000001,ok,", "\nabc,ok,"),
    "scenario_param": lambda text: text.replace("\nvalue,", "\n## scenario.f0=abc\nvalue,"),
    "law_header": lambda text: text.replace("\n# gamma=2\n", "\n# gamma=abc\n"),
    "no_value_column": lambda text: text.replace("\nvalue,", "\nvalu,"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
def test_fit_malformed_table_is_config_error(tmp_path, capsys, case):
    path = save_table(tmp_path, lambda v: {"L1_p": v})
    with open(path) as fh:
        text = fh.read()
    broken = MALFORMED_TABLES[case](text)
    assert broken != text
    with open(path, "w") as fh:
        fh.write(broken)
    assert main(["fit", "--table", path, "--metric", "L1_p"]) == 2
    assert f"sweep table {path}" in capsys.readouterr().err
    assert main(["classify", "--table", path]) == 2
    assert f"sweep table {path}" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["nan_cell", "NaN_cell", "no_column"])
def test_missing_metric_value_is_config_error(tmp_path, capsys, case):
    # ok rows without a fitted metric's value, as a "nan" cell or with no
    # column at all, fail fit and classify as a configuration error
    path = save_table(tmp_path, power_laws(3.0, 2.0, RegimeTag.PRESSURE_NO_MEMORY),
                      gamma=3.0, beta=2.0)
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = [line for line in lines if line.startswith("#")]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    k = body[0].index("final_excl_p")
    if case == "no_column":
        body = [row[:k] + row[k + 1:] for row in body]
    else:
        body[2][k] = case[:3]
    with open(path, "w") as fh:
        fh.write("\n".join(header + [",".join(row) for row in body]) + "\n")
    assert main(["fit", "--table", path, "--metric", "excl_p"]) == 2
    assert "no 'final_excl_p' value" in capsys.readouterr().err
    assert main(["classify", "--table", path]) == 2
    assert "no 'final_excl_p' value" in capsys.readouterr().err


def power_laws(gamma, beta, tag):
    """metric_fn for save_table: the ``tag`` column of the exponent table."""
    column = limit_exponents(LawParams(epsilon=1e-2, delta=0.0, gamma=gamma, beta=beta))[tag]
    return lambda v: {m: v**e for m, e in column.items()}


def test_classify_agreement(tmp_path, capsys):
    path = save_table(tmp_path, power_laws(3.0, 2.0, RegimeTag.PRESSURE_NO_MEMORY),
                      gamma=3.0, beta=2.0)
    rc = main(["classify", "--table", path, "--expect-theory"])
    assert rc == 0
    assert "observed=PressureNoMemory" in capsys.readouterr().out


def test_classify_disagreement(tmp_path):
    path = save_table(tmp_path, power_laws(3.0, 2.0, RegimeTag.MEMORY_AND_PRESSURE),
                      gamma=3.0, beta=2.0)
    assert main(["classify", "--table", path]) == 0
    assert main(["classify", "--table", path, "--expect-theory"]) == 5


def test_classify_unclassifiable(tmp_path):
    path = save_table(tmp_path, lambda v: {"mp_residual": 1.0})
    assert main(["classify", "--table", path]) == 1
    assert main(["classify", "--table", path, "--expect-theory"]) == 5


def test_classify_table_without_mp_residual_is_config_error(tmp_path, capsys):
    # a hand-written table holding only the four fitted columns classifies
    # nothing: the missing max_mp_residual column is a configuration error
    metrics = power_laws(3.0, 2.0, RegimeTag.PRESSURE_NO_MEMORY)
    names = ("L1_p", "L1_big_lam", "excl_p", "excl_big_lam")
    rows = "\n".join(f"{v:g},ok," + ",".join(f"{metrics(v)[m]:.17g}" for m in names)
                     for v in (1e-1, 1e-2, 1e-3, 1e-4))
    path = tmp_path / "four.csv"
    path.write_text("# axis=epsilon\n# epsilon=0.01\n# gamma=3\n# beta=2\n"
                    "value,status," + ",".join(f"final_{m}" for m in names) + f"\n{rows}\n")
    assert main(["classify", "--table", str(path)]) == 2
    assert "max_mp_residual" in capsys.readouterr().err


def test_classify_hand_written_table_takes_run_config_defaults(tmp_path, monkeypatch,
                                                               capsys):
    # a table whose header omits delta, mu and r classifies with the values
    # RunConfig would give those keys
    metrics = power_laws(3.0, 2.0, RegimeTag.PRESSURE_NO_MEMORY)
    rows = "\n".join(f"{v:g},ok," + ",".join(
        f"{metrics(v).get(name, 1.0):.17g}"
        for name in SWEEP_METRICS for _ in range(2)) for v in (1e-1, 1e-2, 1e-3, 1e-4))
    cols = ",".join(f"{p}_{name}" for name in SWEEP_METRICS for p in ("final", "max"))
    path = tmp_path / "hand.csv"
    path.write_text("# axis=epsilon\n# epsilon=0.01\n# gamma=3\n# beta=2\n"
                    f"value,status,{cols}\n{rows}\n")
    table = SweepTable.load(path)
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    assert _params_from_table(table) == LawParams(
        epsilon=0.01, gamma=3.0, beta=2.0,
        delta=defaults["delta"], mu=defaults["mu"], r=defaults["r"])
    assert main(["classify", "--table", str(path), "--expect-theory"]) == 0
    assert "observed=PressureNoMemory" in capsys.readouterr().out
    # the defaults are read from RunConfig, not restated
    monkeypatch.setattr(RunConfig.__dataclass_fields__["mu"], "default", 0.75)
    assert _params_from_table(table).mu == 0.75
