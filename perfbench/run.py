"""Command line of the gapsvt benchmark.  Run from the root of a checkout:

    python3 perfbench/run.py --workload trials --seed 1 --seconds 20 --trace 0

Prints every metric by name with its unit, then, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits 1 when any check fails.
"""

import argparse
import json
import os
import platform
import sys

SINGLE_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # math libraries of this process and its set-up children stay single-threaded
    for var in SINGLE_THREAD_VARS:
        os.environ[var] = "1"
    import checkout

    root = os.getcwd()
    checkout.load_gapsvt(root)
    import bench
    import numpy

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}")
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), root)

    print(f"machine: nproc {os.cpu_count()}, python {platform.python_version()}, numpy {numpy.__version__}")
    for line in result.info:
        print(line)
    metrics = result.per_layer if args.trace else result.end_to_end
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    failed = len(result.failures)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": result.attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
