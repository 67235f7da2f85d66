"""fdmimo benchmark.

    python3 perfbench/run.py --workload homog-m300 --seed 1 --seconds 25 --trace 0

Runs one workload in this process for about ``--seconds`` seconds (its
cold set-ups in child processes, one at a time), checks every op's output,
prints each metric by name with its unit, and prints as its last line one
JSON object with the keys correct, attempted, failed and metrics.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  Workloads: homog-m300, smallcell-sweep,
closed-forms (see README.md).
"""

import argparse
import os
import sys
from pathlib import Path

# One process and one BLAS thread (at most nproc): the thread count must be
# fixed before numpy is first imported.
BLAS_THREADS = "1"
WORKLOAD_NAMES = ("homog-m300", "smallcell-sweep", "closed-forms")


def nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return value


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=nonnegative_int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "fdmimo" / "__init__.py").is_file():
        print(f"perfbench: no fdmimo package under {src}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import harness

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
