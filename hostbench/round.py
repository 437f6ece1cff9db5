"""One round of one workload in a fresh process.

Usage: ``python3 hostbench/round.py WORKLOAD SEED ROUND [--size S]
[--trace] [--work-dir D] [--chrome PATH]``.  Prints the round's result
as one JSON line.  ``run.py`` starts one of these per round.
"""

import time

T0 = time.perf_counter()  # before import repro: set-up starts here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from hostbench.probe import Interval, SpeedProbe  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("round", type=int)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--work-dir", default=None)
    parser.add_argument("--chrome", default=None)
    args = parser.parse_args()
    probe = SpeedProbe()
    if not args.trace:
        probe.start()
    setup = Interval(probe, start=T0)
    from hostbench.workloads import run_round  # imports repro

    result = run_round(args.workload, args.seed, args.round, size=args.size,
                       trace=args.trace, setup=setup,
                       work_dir=args.work_dir, chrome_path=args.chrome)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
