"""brinkflow benchmark: one workload, one process, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; brinkflow is imported from ./src.

--trace 0 runs the workload body back to back, at least once, starting
another run only while one of average length ends within S seconds, and
reports the end-to-end metrics: the median wall_s and
cell_steps_per_s over those runs, the median set-up time of fresh
interpreters, and the process's peak RSS.

--trace 1 runs the body once untraced and once traced, and reports the
per-layer metrics of the traced run plus the tracing overhead and coverage.

Every run's outputs are checked.  A run that raises or fails a check counts
in ``failed``; same-seed runs must repeat their step and iteration counts and
their trajectories exactly.  The last line of standard output is the JSON
result; the line before it records the host conditions and the per-run
details.
"""

import os

# Pin BLAS to one thread before numpy is first imported in this process or
# in the set-up children, which inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, ".work")

SETUP_RUNS = 5
PROBE_REPEATS = 5

# Runs in a fresh interpreter: import brinkflow, build config, grid and
# scenario; print the elapsed time.
_SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.setup({name!r}, {seed!r})
print(time.perf_counter() - t0)
"""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


# -- host conditions ------------------------------------------------------------

def _cpu_jiffies():
    """(steal, total) from the aggregate line of /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted in user and nice.
    return fields[7], sum(fields[:8])


def _probe_ms():
    """Median time of a fixed np.roll/np.dot kernel, as a host-speed probe."""
    x = np.linspace(0.0, 1.0, 4096)
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        acc = 0.0
        for _ in range(500):
            x = np.roll(x, 1)
            acc += float(np.dot(x, x))
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def _host(jiffies_start):
    end = _cpu_jiffies()
    steal = None
    if jiffies_start is not None and end is not None and end[1] > jiffies_start[1]:
        steal = (end[0] - jiffies_start[0]) / (end[1] - jiffies_start[1])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg": os.getloadavg(),
        "steal_frac": steal,
        "probe_ms": _probe_ms(),
    }


# -- measurement ------------------------------------------------------------------

def _setup_seconds(name, seed):
    """Set-up time of SETUP_RUNS fresh interpreters, measured inside each."""
    code = _SETUP_CHILD.format(src=SRC, bench=BENCH_DIR, name=name, seed=seed)
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, text=True,
                              capture_output=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]))
    return times


def _timed_body(workloads, name, cfg, label):
    """Run the body once in a fresh work directory; returns (seconds, Outcome)."""
    workdir = os.path.join(WORK_DIR, f"{name}-{os.getpid()}-{label}")
    os.makedirs(workdir)
    start = time.perf_counter()
    try:
        outcome = workloads.run(name, cfg, workdir)
    except Exception as exc:  # a raising run is a failed run; keep reporting
        traceback.print_exc(file=sys.stderr)
        outcome = workloads.Outcome(problems=[f"raised {type(exc).__name__}: {exc}"])
    wall = time.perf_counter() - start
    shutil.rmtree(workdir)
    return wall, outcome


def _mismatches(label, first, other):
    """Differences in counts or trajectories between two same-seed runs."""
    out = []
    for key in ("steps", "iters", "digest"):
        a, b = getattr(first, key), getattr(other, key)
        if a is not None and b is not None and a != b:
            out.append(f"{label}: {key} differs ({a} vs {b})")
    return out


def _end_to_end(workloads, name, cfg, seed, seconds):
    setup = _setup_seconds(name, seed)
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(_timed_body(workloads, name, cfg, f"run{len(runs)}"))
        elapsed = time.perf_counter() - start
        # Start another run only if one of average length ends in time.
        if elapsed * (len(runs) + 1) / len(runs) > seconds:
            break
    problems = [[*o.problems] for _, o in runs]
    for i, (_, outcome) in enumerate(runs[1:], start=1):
        problems[i] += _mismatches(f"run {i} vs run 0", runs[0][1], outcome)
    walls = [w for w, _ in runs]
    rates = [o.cells * o.steps / w for w, o in runs]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cell_steps_per_s": (statistics.median(rates), "cell-steps/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {"wall_s": walls, "setup_s": setup,
               "steps": [o.steps for _, o in runs],
               "iters": [o.iters for _, o in runs]}
    return metrics, problems, details


def _traced(workloads, name, cfg):
    import tracing

    plain_wall, plain = _timed_body(workloads, name, cfg, "plain")
    tracer = tracing.Tracer()
    tracer.install(workloads)
    try:
        traced_wall, traced = _timed_body(workloads, name, cfg, "traced")
    finally:
        tracer.restore()
    metrics = tracing.per_layer_metrics(tracer)

    problems = [list(plain.problems), list(traced.problems)]
    problems[1] += _mismatches("traced vs untraced", plain, traced)
    counted = {
        "steps": metrics["harness.run_simulation.steps"][0],
        "momentum iterations": metrics["momentum.solve_momentum.iters_total"][0],
        "flux-Poisson iterations": metrics["momentum.compute_S.iters_total"][0],
    }
    expected = {"steps": traced.steps}
    if traced.iters is not None:
        expected["momentum iterations"], expected["flux-Poisson iterations"] = traced.iters
    for key, value in expected.items():
        if counted[key] != value:
            problems[1].append(f"traced {key} {counted[key]} != recorded {value}")

    self_total = sum(entry["self_s"] for entry in tracer.layers().values())
    metrics["tracing.untraced_wall_s"] = (plain_wall, "s")
    metrics["tracing.traced_wall_s"] = (traced_wall, "s")
    metrics["tracing.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["tracing.coverage"] = (self_total / traced_wall, "ratio")
    details = {"wall_s": [plain_wall, traced_wall], "spans": len(tracer.spans),
               "steps": [plain.steps, traced.steps],
               "iters": [plain.iters, traced.iters]}
    return metrics, problems, details


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "brinkflow", "__init__.py")):
        print(f"perfbench: no brinkflow sources under {SRC}", file=sys.stderr)
        return 2
    jiffies = _cpu_jiffies()
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(workloads.NAMES)})", file=sys.stderr)
        return 2
    cfg = workloads.make_config(args.workload, args.seed)
    os.makedirs(WORK_DIR, exist_ok=True)
    if args.trace:
        metrics, problems, details = _traced(workloads, args.workload, cfg)
    else:
        metrics, problems, details = _end_to_end(
            workloads, args.workload, cfg, args.seed, args.seconds)
    failed = sum(1 for p in problems if p)
    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   fail_frac=failed / len(problems),
                   problems=[line for p in problems for line in p],
                   host=_host(jiffies))
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(problems),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
