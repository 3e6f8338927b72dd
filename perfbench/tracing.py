"""In-memory span tracing of brinkflow's layers, from outside the package.

``Tracer.install`` replaces each traced function in the module that calls
it (for example ``brinkflow.harness.solve_momentum``, the binding
``run_simulation`` uses) with a wrapper that records a span
``(name, start, end, parent)`` and, for some layers, one count sample per
call.  ``restore`` puts the original functions back.  A span's self time is
its duration minus the time its direct children cover; calls nest strictly
because the program is single-threaded.

The grid operators (about a million calls per run) are not wrapped: the
wrapper's cost would distort the timings.  Their time shows in the self time
of their callers.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict

import brinkflow.cli as cli
import brinkflow.diagnostics as diagnostics
import brinkflow.harness as harness
import brinkflow.momentum as momentum


def _iterations(result, args):
    return result[1].iterations


def _steps(result, args):
    return result[0].step_count


def _accepted(result, args):
    return 1


def _file_bytes(result, args):
    return os.path.getsize(args[0])


def _targets(bench):
    """(owner, attribute, span name, count hook) for every traced binding.

    Only the bindings the workloads reach are listed: the ``simulate`` and
    ``verify-laws`` subcommands are not run.

    ``momentum.solve_poisson_zero_mean`` is traced where ``poincare_constant``
    calls it, not inside ``compute_S``: the flux solve stays in
    ``compute_S``'s self time.
    """
    return [
        (bench, "run_simulation", "harness.run_simulation", _steps),
        (bench, "energy_report", "diagnostics.energy_report", None),
        (bench, "cli_main", "cli.main", None),
        (cli, "sweep", "harness.sweep", None),
        (cli, "classify_limit", "harness.classify_limit", None),
        (harness, "run_simulation", "harness.run_simulation", _steps),
        (harness, "write_diagnostics_csv", "harness.write_diagnostics_csv", _file_bytes),
        (harness, "solve_momentum", "momentum.solve_momentum", _iterations),
        (harness, "build_record", "diagnostics.build_record", None),
        (harness, "evaluate_laws", "laws.evaluate_laws", None),
        (harness, "pressure_derivative", "laws.pressure_derivative", None),
        (harness, "stable_dt", "transport.stable_dt", None),
        (harness, "advect_density", "transport.advect_density", _accepted),
        (harness, "advect_big_lambda", "transport.advect_big_lambda", None),
        (diagnostics, "compute_S", "momentum.compute_S", _iterations),
        (diagnostics, "evaluate_laws", "laws.evaluate_laws", None),
        (diagnostics, "poincare_constant", "diagnostics.poincare_constant", None),
        (diagnostics, "solve_poisson_zero_mean", "momentum.solve_poisson_zero_mean",
         _iterations),
        (momentum, "evaluate_laws", "laws.evaluate_laws", None),
    ]


class Tracer:
    """Records spans and count samples while installed."""

    def __init__(self):
        self.spans = []              # (name, start, end, parent index or -1)
        self.samples = defaultdict(list)
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, hook=None):
        spans, stack, samples = self.spans, self._stack, self.samples[name]

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent)
                stack.pop()
            if hook is not None:
                samples.append(hook(result, args))
            return result

        return traced

    def install(self, bench):
        """Wrap every target; ``bench`` is the module whose calls start a run."""
        for owner, attr, name, hook in _targets(bench):
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hook))
        load = harness.SweepTable.__dict__["load"]
        self._undo.append((harness.SweepTable, "load", load))
        harness.SweepTable.load = classmethod(
            self.wrap("harness.SweepTable.load", load.__func__))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layers(self):
        """{span name: {"calls", "total_s", "self_s"}} over all spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), child in zip(self.spans, covered):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child
        return out


# Per-layer metrics in report order: each layer with the quantities reported.
PER_LAYER = (
    ("momentum.compute_S", ("calls", "self_s", "iters_mean", "iters_max", "iters_total")),
    ("momentum.solve_momentum",
     ("calls", "self_s", "iters_mean", "iters_max", "iters_total")),
    ("momentum.solve_poisson_zero_mean", ("calls", "self_s", "iters_total")),
    ("diagnostics.poincare_constant", ("total_s",)),
    ("laws.evaluate_laws", ("calls", "self_s")),
    ("laws.pressure_derivative", ("calls", "self_s")),
    ("diagnostics.build_record", ("calls", "self_s")),
    ("diagnostics.energy_report", ("self_s",)),
    ("transport.advect_density", ("calls", "self_s", "rejected", "accept_ratio")),
    ("transport.advect_big_lambda", ("self_s",)),
    ("transport.stable_dt", ("self_s",)),
    ("harness.run_simulation", ("calls", "self_s", "steps")),
    ("harness.sweep", ("self_s",)),
    ("harness.write_diagnostics_csv", ("self_s", "bytes")),
    ("harness.SweepTable.load", ("self_s",)),
    ("harness.classify_limit", ("self_s",)),
    ("cli.main", ("calls", "self_s")),
)


def _quantity(entry, samples, quantity):
    """(value, unit) of one quantity of one layer."""
    calls = entry["calls"]
    if quantity in ("self_s", "total_s"):
        return entry[quantity], "s"
    if quantity == "calls":
        return calls, "count"
    if quantity == "iters_mean":
        return (statistics.fmean(samples) if samples else 0.0), "count"
    if quantity == "iters_max":
        return max(samples, default=0), "count"
    if quantity in ("iters_total", "steps"):
        return sum(samples), "count"
    if quantity == "bytes":
        return sum(samples), "B"
    # advect_density records one sample per accepted update.
    if quantity == "rejected":
        return calls - len(samples), "count"
    if quantity == "accept_ratio":
        return (len(samples) / calls if calls else 0.0), "ratio"
    raise ValueError(f"unknown quantity {quantity!r}")


def per_layer_metrics(tracer):
    """Every metric of ``PER_LAYER`` as {"<layer>.<quantity>": (value, unit)}."""
    layers = tracer.layers()
    return {
        f"{layer}.{quantity}": _quantity(layers[layer], tracer.samples[layer], quantity)
        for layer, quantities in PER_LAYER for quantity in quantities
    }
