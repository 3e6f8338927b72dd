import numpy as np
import pytest

import brinkflow.diagnostics
import brinkflow.harness
from brinkflow import SolveReport, SolverDiverged


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


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
    the diagnostics pass it; returns the records of an undisturbed run."""

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
            if any(np.array_equal(row, velocities[k]) for row in u):
                raise SolverDiverged("forced flux stall", report=SolveReport(1, 1.0, False))
            return compute_S(u, f, params)

        monkeypatch.setattr(brinkflow.diagnostics, "compute_S", failing)
        return records

    return install
