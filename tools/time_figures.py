#!/usr/bin/env python3
"""Times the paper-figure suite: fig7a_8a_isp then fig7b_8b_rand, serially.

Usage, from the root of a checkout with a built tree:

    python3 tools/time_figures.py --build build --repeats 3 \
        --trials default 500

For each trial setting ("default" leaves HBH_TRIALS unset, so each binary
runs its own default trial count), runs both figure binaries back to back
at HBH_JOBS=1, `repeats` times, and prints one JSON object: the median
suite wall time in seconds per setting (`figure_suite_s`) and every
sample. The binaries' stdout is discarded; a failing binary aborts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

FIGURES = ("fig7a_8a_isp", "fig7b_8b_rand")


def suite_seconds(build, trials):
    env = dict(os.environ, HBH_JOBS="1")
    env.pop("HBH_TRIALS", None)
    if trials != "default":
        env["HBH_TRIALS"] = trials
    start = time.perf_counter()
    for name in FIGURES:
        subprocess.run([os.path.join(build, "bench", name)], env=env,
                       check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", default="build",
                        help="build directory holding bench/ (default: build)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--trials", nargs="+", default=["default", "500"],
                        help='trial settings: "default" or a count')
    args = parser.parse_args()

    samples = {t: [] for t in args.trials}
    # Settings alternate within each repeat, so slow drift in the host's
    # load spreads over all of them.
    for _ in range(args.repeats):
        for trials in args.trials:
            samples[trials].append(round(suite_seconds(args.build, trials), 3))
    result = {
        "figures": list(FIGURES),
        "jobs": 1,
        "repeats": args.repeats,
        "figure_suite_s": {t: statistics.median(s) for t, s in samples.items()},
        "samples_s": samples,
    }
    json.dump(result, sys.stdout)
    print()


if __name__ == "__main__":
    main()
