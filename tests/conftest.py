import time

import numpy as np
import pytest

import brinkflow.diagnostics
import brinkflow.harness
from brinkflow import CongestionOverflow, SolveReport, SolverDiverged


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def shared_run():
    """``shared_run(config)`` -> (``run_simulation(config)``, or the
    SolverDiverged or CongestionOverflow that ended the run; the run's wall
    time in seconds).

    Each configuration runs once per session, and every later call with an
    equal config returns that run.  RunConfig is not hashable (its
    scenario_params is a dict), so runs are found by ``==``.  A test that
    monkeypatches brinkflow must not use it, or the shared run is tainted.
    """
    runs = []   # (config, result, seconds)

    def run(config):
        for cfg, result, seconds in runs:
            if cfg == config:
                return result, seconds
        t0 = time.perf_counter()
        try:
            result = brinkflow.harness.run_simulation(config)
        except (SolverDiverged, CongestionOverflow) as exc:
            result = exc
        runs.append((config, result, time.perf_counter() - t0))
        return runs[-1][1:]

    return run


@pytest.fixture
def stall_momentum(monkeypatch):
    """Call ``stall_momentum(k)`` to make the time loop's momentum solve
    succeed k times and raise SolverDiverged on its next call (once)."""

    def install(k):
        solve = brinkflow.harness.solve_momentum
        calls = 0

        def stalling(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == k + 1:
                raise SolverDiverged("forced stall", report=SolveReport(1, 1.0, False))
            return solve(*args, **kwargs)

        monkeypatch.setattr(brinkflow.harness, "solve_momentum", stalling)

    return install


@pytest.fixture
def fail_diagnostics(monkeypatch):
    """Call ``fail_diagnostics(config, k)`` to make ``compute_S`` raise
    SolverDiverged on the velocity of step k of ``config``, in whatever block
    the diagnostics pass it, naming its row as ``compute_S`` does; returns
    the records of an undisturbed run."""

    def install(config, k):
        solve = brinkflow.harness.solve_momentum
        velocities = []

        def recording(*args, **kwargs):
            u, rep = solve(*args, **kwargs)
            velocities.append(u.components.copy())
            return u, rep

        monkeypatch.setattr(brinkflow.harness, "solve_momentum", recording)
        _, records = brinkflow.harness.run_simulation(config)
        monkeypatch.setattr(brinkflow.harness, "solve_momentum", solve)
        compute_S = brinkflow.diagnostics.compute_S

        def failing(u, f, params):
            for row, uk in enumerate(u):
                if np.array_equal(uk, velocities[k]):
                    raise SolverDiverged("forced flux stall",
                                         report=SolveReport(1, 1.0, False), row=row)
            return compute_S(u, f, params)

        monkeypatch.setattr(brinkflow.diagnostics, "compute_S", failing)
        return records

    return install
