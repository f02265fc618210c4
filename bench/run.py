"""rbfcors benchmark: surrogate overhead, optimisation quality and wasted
evaluations on two workloads, plus a traced run for per-layer numbers.

Usage, from the root of a source checkout (the library is used from src/,
not installed):

    python3 bench/run.py --workload expensive-cli --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50
    python3 bench/run.py --workload long-2d --seed 1 --trace 1 --smoke

Each workload runs a fixed set of optimisation seeds, so its quality figures
compare like with like across commits; --seed draws the order of the runs.
Idle gaps and run times take each seed's fastest repeat, batch by batch;
set-up time is the median of every probe (see harness.py).

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones, and writes the spans to .bench_run/.  --smoke shrinks every
run to a few iterations and one round; it checks names and schema only.

Output: one JSON line with the environment, one "<workload> <metric> =
<value> <unit>" line per figure, and last one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only if every
run passed its output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_run")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SOURCE, "rbfcors", "__init__.py")):
        print(f"error: no rbfcors source under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    import harness
    import objectives
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        names = ", ".join(list(workloads.WORKLOADS) + ["all"])
        print(f"error: unknown workload {args.workload!r}; choose {names}", file=sys.stderr)
        return 2
    for name, value, published, tolerance in objectives.published_minima():
        if not abs(value - published) <= tolerance:
            print(f"error: {name} gives {value!r}, published {published!r}", file=sys.stderr)
            return 1
    os.makedirs(WORKDIR, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    print(json.dumps({"environment": environment(args.seed)}))
    if args.trace:
        outcome = harness.traced(workload, args.seed, args.smoke, WORKDIR)
    else:
        outcome = harness.untraced(workload, args.seed, args.seconds, args.smoke, WORKDIR)
    for name, (value, unit) in outcome.pop("report").items():
        print(f"{workload.name} {name} = {value!r} {unit}")
    outcome["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in outcome["metrics"].items()
    }
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


def run_all(args, names) -> int:
    """Run every workload in its own process, so each has its own peak RSS."""
    status = 0
    for name in names:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        command += ["--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        blas_info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info['name']} {blas_info.get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {name: os.environ.get(name) for name in thread_vars},
    }


if __name__ == "__main__":
    sys.exit(main())
