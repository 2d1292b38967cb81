#!/usr/bin/env python3
"""Exact-repeat check of the two-clock benchmark.

For each workload this runs the driver twice with seed 1 and fails if any
sim-clock metric, registry count, SimNetwork stat or allocs_per_op differs
between the two runs at all (the simulator is single-threaded and seeded,
so only host-clock metrics may move). It then runs once with a held-out
seed and fails unless every correctness gate passes there too and each
sim-clock end-to-end metric stays within SHAPE_TOLERANCE of seed 1's, which
shows the workload's shape does not hinge on seed 1.

Usage, from the repository root:

    python3 perfbench/check.py --heldout-seed 4242 [--seconds 10]
        [--workload ring_sysbench ...]
"""

import argparse
import os
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py: build + driver invocation)

SHAPE_TOLERANCE = 0.25
SIM_CLOCK = ("commit_p50_us", "commit_p99_us", "commits_per_sim_s",
             "read_p50_us", "read_p99_us", "write_downtime_ms",
             "read_downtime_ms")


def check_workload(binary, workload, heldout_seed, seconds):
    first = run.run_driver(binary, workload, 1, seconds, setups=1)
    second = run.run_driver(binary, workload, 1, seconds, setups=1)
    heldout = run.run_driver(binary, workload, heldout_seed, seconds, setups=1)
    problems = []
    for name, report in (("seed 1", first), ("seed 1 again", second),
                         (f"seed {heldout_seed}", heldout)):
        if not report["correct"]:
            problems.append(f"{name}: gate failed: {report['gate']}")
    if problems:
        return problems
    for key in sorted(set(first["exact"]) | set(second["exact"])):
        a, b = first["exact"].get(key), second["exact"].get(key)
        if a != b:
            problems.append(f"{key} differs between same-seed runs: {a} vs {b}")
    print(f"\n{workload}: {len(first['exact'])} exact values repeat"
          if not problems else f"\n{workload}: exact-repeat FAILED")
    print(f"  {'metric':22s} {'seed 1':>14s} {'seed ' + str(heldout_seed):>14s}")
    for key in SIM_CLOCK:
        a, b = first["exact"][key], heldout["exact"][key]
        within = a > 0 and abs(b - a) / a <= SHAPE_TOLERANCE
        print(f"  {key:22s} {a:14.1f} {b:14.1f}  {'ok' if within else 'OFF'}")
        if not within:
            problems.append(f"{key} on seed {heldout_seed} is {b:.1f}, "
                            f"more than {SHAPE_TOLERANCE:.0%} from seed 1's "
                            f"{a:.1f}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--heldout-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = parser.parse_args()
    if args.heldout_seed == 1:
        parser.error("the held-out seed must not be 1")
    binary = run.build()
    problems = []
    for workload in args.workload or run.WORKLOADS:
        problems += [f"{workload}: {p}" for p in
                     check_workload(binary, workload, args.heldout_seed,
                                    args.seconds)]
    for problem in problems:
        print("FAIL " + problem)
    print("exact-repeat check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
