"""Run one catnet benchmark workload and print its metrics.

    python3 bench/run.py --workload train-med-aware --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout.  It prints one ``metric <name> <value>
<unit>`` line per metric, notes on inputs and checks, and, as its last line,
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".bench_work")
WORKLOAD_NAMES = ("train-med-aware", "train-med-unaware", "predict-long-sparse")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before numpy loads."""
    cpus = len(os.sched_getaffinity(0))
    threads = cpus
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if current.isdigit() and 0 < int(current) < threads:
            threads = int(current)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "catnet", "__init__.py")):
        print(f"error: no catnet sources under {src}", file=sys.stderr)
        return 2
    threads = cap_blas_threads()
    sys.path.insert(0, src)
    import workloads

    os.makedirs(WORKDIR, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} blas_threads {threads}")
    if args.trace:
        result = workloads.run_traced(workload, args.seed, WORKDIR)
    else:
        result = workloads.run_untraced(workload, args.seed, args.seconds, WORKDIR)
    for note in result.notes:
        print(note)
    for name, (value, unit) in result.metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
