import numpy as np
import pytest

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
