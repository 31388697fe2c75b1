"""Set-up of one benchmark workload in a fresh interpreter.

    python3 perfbench/prepare.py <workload> <seed>

Run from the root of a checkout.  The parent times the whole process, so the
set-up time includes interpreter start and the import of gapsvt, as a user
pays them.  Prints the prepared inputs as one JSON line.
"""

import json
import os
import sys

import checkout


def main(argv):
    name, seed = argv[1], int(argv[2])
    checkout.load_gapsvt(os.getcwd())
    import bench

    cls = bench.WORKLOADS[name]
    prepared = cls.prepare(seed)
    cls(seed, prepared)
    print(json.dumps(prepared))


if __name__ == "__main__":
    main(sys.argv)
