"""One fresh set-up of an in-process workload, for setup_s.

Imports abalg, builds the inputs from the seed, runs the warm-up pass and
prints time.monotonic() once the first timed op could be issued.
"""

import argparse
import importlib
import time

import harness


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    harness.require_program()
    from run import WORKLOADS

    module = importlib.import_module(WORKLOADS[args.workload])
    harness.warm_up(module.make_inputs(args.seed, args.tiny), module.execute)
    print(time.monotonic())


if __name__ == "__main__":
    main()
