"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload soc_m1_high --seed 7 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; progress goes to
standard error.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones.  ``--size small`` runs the reduced
operating points the benchmark's own tests use.  ``--setup-probe`` is
the child mode that times one ``import repro`` plus assembly.
"""

import argparse
import json
import os
import sys
import time

_STARTED = time.perf_counter()
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

from perfbench import bench  # noqa: E402
from perfbench.workloads import SIZES, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--setup-probe", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_probe:
        doc = bench.setup_probe(args.workload, args.seed, args.size, _STARTED)
    else:
        doc = bench.run(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.size)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
