#!/usr/bin/env python3
"""One untraced pass over the scaling points: experts preset, µs per step.

    python3 bench/scaling.py [--seed 1]

The points are n_actors in {100, 400, 1000, 2000} at one receiver and
n_receivers in {1, 2, 3, 5, 7} at 100 actors. Each point is one checked
`friendcast run` in a fresh worker process, as in run.py; its length is
set so that a point takes a few seconds. Prints one Markdown table row
per point. These are reference figures, not workloads: each workload in
run.py is one point on these curves.
"""

from __future__ import annotations

import argparse
import os
import platform
import shutil

import numpy as np

import run

# (n_actors, n_receivers, steps)
POINTS = [(100, 1, 5000), (400, 1, 1000), (1000, 1, 300), (2000, 1, 100),
          (100, 2, 3000), (100, 3, 2000), (100, 5, 800), (100, 7, 200)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    base = run.OUT / "scaling"
    shutil.rmtree(base, ignore_errors=True)
    run.warm_up()
    print(f"host: {os.cpu_count()} CPUs, Python {platform.python_version()}, numpy {np.__version__}")
    print("| n_actors | N | steps | µs/step | setup s | peak MB |")
    print("|---:|---:|---:|---:|---:|---:|")
    failed = 0
    for n, receivers, steps in POINTS:
        config = {"n_actors": n, "n_receivers": receivers}
        r = run.invoke("experts", "experts", config, args.seed, steps, base / f"n{n}-N{receivers}", False)
        if r["problems"]:
            failed += 1
            print(f"| {n} | {receivers} | {steps} | failed: {'; '.join(r['problems'])} | | |")
            continue
        print(f"| {n} | {receivers} | {steps} | {r['loop_s'] / steps * 1e6:.0f} | "
              f"{r['setup_s']:.3f} | {r['report']['peak_rss_kb'] / 1024:.1f} |")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
