"""Print the minor page faults per step of two runs that bench/run.py does not cover.

A per-step temporary of tens of KB can make glibc shrink and regrow the
heap on every step, and each regrowth faults its pages in again: that
shows as minor page faults (`ru_minflt`), not in any timing the bench
resolves. The runs are the `trolls` preset at N=7 (n=100), the largest
star the scaling table plays, and the config defaults at n=1000, where
a run of disjoint stars gathers the most trust columns. Each run is one
`cli.simulate` call in a fresh process, as under `friendcast run`,
counted from its first step to its return: set-up is left out, since
at n=1000 how many faults mapping the 8 MB trust matrix takes varies
between processes by hundreds. The first steps fault in what every
later step reuses, so the figure per step is the difference between a
run of twice the steps and a run of the steps, over the steps. CI
writes the table to each run's summary; run it locally with

    python3 tools/faults.py [--steps 1000] [--seed 1]
"""

import argparse
import resource
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from friendcast import cli, harness  # noqa: E402
from friendcast.harness import ScenarioConfig  # noqa: E402
from friendcast.scenarios import scenario_config  # noqa: E402

RUNS = {
    "trolls, n=100, N=7": lambda **kw: scenario_config("trolls", n_receivers=7, **kw),
    "defaults, n=1000, N=1": lambda **kw: ScenarioConfig(n_actors=1000, **kw),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--run", choices=RUNS, help="count one run in this process and print its faults")
    args = parser.parse_args()
    if args.run:
        first, step = [], harness.step

        def first_step(*step_args):
            first.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
            harness.step = step
            return step(*step_args)

        harness.step = first_step
        cli.simulate(RUNS[args.run](n_steps=args.steps, rng_seed=args.seed))
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - first[0])
        return 0
    print("| run | steps | minor faults | at twice the steps | per step |")
    print("|---|---:|---:|---:|---:|")
    for name in RUNS:
        once, twice = (
            int(subprocess.run([sys.executable, __file__, "--run", name, "--steps", str(steps), "--seed", str(args.seed)],
                               capture_output=True, text=True, check=True).stdout)
            for steps in (args.steps, 2 * args.steps)
        )
        print(f"| {name} | {args.steps} | {once} | {twice} | {(twice - once) / args.steps:.3f} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
