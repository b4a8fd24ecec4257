"""evcopula benchmark: one single-threaded client in a closed loop.

    python3 perfbench/run.py --workload {verify,sample_estimate,mc_many} \\
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Each call starts after the previous one returns and
runs one of a fixed cycle of inputs made from the seed; a one-second
warm-up is discarded.  Times are reference seconds (see speed.py).  An
input's latency is the median of its repeats; ``work_per_s`` is the work
in one pass over the inputs divided by the sum of their latencies, and
``call_ms_p50``/``call_ms_p90`` are percentiles over the inputs.

``--trace 0`` measures the end-to-end metrics for S seconds.  ``--trace 1``
runs S/2 seconds untraced and S/2 traced, prints the per-layer metrics and
writes the spans to ``.perfbench_run/``.  Every output is checked (see
workloads.py); the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--smoke``
shrinks every input for the benchmark's own tests and keeps every check.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
WARMUP_S = 1.0
CALIBRATE_EVERY_S = 0.25
SETUP_REPS = 9


def _load_package():
    package = SRC / "evcopula"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no evcopula sources at {package}")
    sys.path.insert(0, str(SRC))
    import evcopula

    if Path(evcopula.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported evcopula from {evcopula.__file__}, not {package}")


def measure_setup(reps):
    """Median time, in reference seconds, of a fresh interpreter running
    ``import evcopula.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import evcopula.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)  # fills the bytecode cache
    clock = speed.ScaledClock(every_s=0.0)
    for _ in range(reps):
        clock.tick()
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
        clock.record(time.perf_counter() - t0)
    clock.close()
    return statistics.median(clock.scaled())


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


class Phase:
    """Latencies of one closed-loop phase in reference seconds, by input."""

    def __init__(self, cycle, inputs, scaled, factors, wall_s):
        self.by_input = [[] for _ in range(cycle)]
        for j, t in zip(inputs, scaled):
            self.by_input[j].append(t)
        self.factors = factors
        self.wall_s = wall_s

    def input_medians(self):
        return [statistics.median(v) for v in self.by_input]

    def cost_s(self):
        """Reference seconds for one pass over the inputs."""
        return sum(self.input_medians())


def closed_loop(workload, seconds, min_calls, tally, tracer=None):
    """Call the workload back to back for ``seconds``, at least ``min_calls`` times.

    Call ``i`` runs input ``i % workload.cycle``, so every input repeats and
    its cost is the median of its repeats.
    """
    clock = speed.ScaledClock(every_s=CALIBRATE_EVERY_S)
    inputs = []
    wall_s = 0.0
    start = time.perf_counter()
    i = 0
    while i < min_calls or time.perf_counter() - start < seconds:
        clock.tick()
        if tracer is not None:
            tracer.request = i
            root = tracer.begin("bench.request")
        t0 = time.perf_counter()
        try:
            out = workload.call(i)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = None
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(root)
            tracer.request = None
        clock.record(wall)
        inputs.append(i % workload.cycle)
        wall_s += wall
        tally.attempted += workload.units_per_call
        tally.failed += workload.check(i, out)
        i += 1
    clock.close()
    return Phase(workload.cycle, inputs, clock.scaled(), clock.factors(), wall_s)


def end_to_end_metrics(workload, phase, setup_s):
    ms = [1e3 * x for x in phase.input_medians()]
    return {
        "setup_s": (setup_s, "s"),
        "work_per_s": (workload.units_per_call * workload.cycle / phase.cost_s(), "1/s"),
        "call_ms_p50": (statistics.median(ms), "ms"),
        "call_ms_p90": (tracer_mod.percentile(ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, all checks kept")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    import numpy

    print(f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__}")
    workdir = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, args.smoke)
        tally = Tally()
        if not args.trace:
            setup_s = measure_setup(3 if args.smoke else SETUP_REPS)
        workload.prepare()
        closed_loop(workload, 0.0 if args.smoke else WARMUP_S, 1, tally)
        if args.trace:
            phase = closed_loop(workload, args.seconds / 2, workload.cycle, tally)
            tracer = tracer_mod.Tracer()
            with tracer_mod.instrumented(tracer):
                traced = closed_loop(workload, args.seconds / 2, workload.cycle, tally, tracer)
            metrics = tracer_mod.layer_metrics(tracer, workload, phase, traced)
            trace_path = RUN_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path)
            print(f"# spans written to {trace_path.relative_to(ROOT)}")
        else:
            phase = closed_loop(workload, args.seconds, workload.cycle, tally)
            metrics = end_to_end_metrics(workload, phase, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    calls = sum(len(v) for v in phase.by_input)
    print(f"# workload={workload.name} seed={args.seed} unit={workload.unit} "
          f"units_per_call={workload.units_per_call} inputs={workload.cycle} timed_calls={calls}")
    print(f"# host speed factor median {statistics.median(phase.factors):.4g}; "
          f"unscaled work_per_s {workload.units_per_call * calls / phase.wall_s:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    _load_package()
    import speed
    import tracer as tracer_mod
    import workloads

    sys.exit(main())
