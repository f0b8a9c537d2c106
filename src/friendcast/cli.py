"""Command-line frontend: scenario runs, sweeps, and CSV emission.

Subcommands:
  run        execute one scenario and write snapshots.csv / summary.csv /
             manifest.json (plus actors.csv with --per-actor)
  scenarios  list the built-in scenario presets
  sweep      run the cross product of one varied parameter and a seed list

Outputs are byte-stable: identical config + seed + version produce
identical files. Each file is written under a temporary name and renamed
into place once complete, so an interrupted run leaves no partial file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .harness import ConfigError, HISTOGRAM_BINS, RunResult, ScenarioConfig, simulate
from .scenarios import BUILTIN_SCENARIOS, scenario_config

SNAPSHOT_HEADER = ["step", "mean_value", "mean_abs_value", "std_value"] + [
    f"bin_{i:02d}" for i in range(HISTOGRAM_BINS)
]
ACTOR_HEADER = ["step", "actor_id", "mean_value", "mean_abs_value", "popularity", "reputation"]
SUMMARY_HEADER = [
    "scenario",
    "seed",
    "steps",
    "final_mean_abs",
    "steps_to_0.9",
    "sender_send_rate",
    "feedback_rate",
]
CONVERGENCE_THRESHOLD = 0.9


@contextlib.contextmanager
def _replacing(path: Path):
    """Write to a temporary file beside `path` and rename it into place once complete.

    On an error the temporary file is removed, so `path` never holds a
    partial output.
    """
    partial = path.with_name(f".{path.name}.tmp")
    try:
        with open(partial, "w", newline="") as handle:
            yield handle
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with _replacing(path) as handle:
        out = csv.writer(handle, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)


def write_snapshots(path: Path, result: RunResult) -> None:
    _write_csv(path, SNAPSHOT_HEADER, (
        [snap.step, snap.mean_value, snap.mean_abs_value, snap.std_value] + [int(c) for c in snap.histogram]
        for snap in result.snapshots
    ))


def write_actors(path: Path, result: RunResult) -> None:
    """Write the bytes `csv.writer` would, formatted directly: ints by `str`, floats by `repr`.

    No field here ever needs quoting. Each snapshot's rows are joined into
    one string, so memory grows with the population, not the run length.
    """
    with _replacing(path) as handle:
        handle.write(",".join(ACTOR_HEADER) + "\n")
        for snap in result.snapshots:
            columns = zip(snap.actor_mean_value.tolist(), snap.actor_mean_abs_value.tolist(),
                          snap.actor_popularity.tolist(), snap.actor_reputation.tolist())
            handle.write("".join(
                f"{snap.step},{actor_id},{v!r},{k!r},{p!r},{r!r}\n" for actor_id, (v, k, p, r) in enumerate(columns)
            ))


def summary_row(scenario: str, cfg: ScenarioConfig, result: RunResult) -> list:
    reached = result.steps_to_threshold(CONVERGENCE_THRESHOLD)
    return [
        scenario,
        cfg.rng_seed,
        cfg.n_steps,
        result.snapshots[-1].mean_abs_value,
        "" if reached is None else reached,
        result.send_rate,
        result.feedback_rate,
    ]


def write_summary(path: Path, rows: list[list]) -> None:
    _write_csv(path, SUMMARY_HEADER, rows)


def write_manifest(path: Path, scenario: str, cfg: ScenarioConfig, outputs: list[str]) -> None:
    manifest = {
        "tool_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,  # the written floats depend on numpy's arithmetic
        "scenario": scenario,
        "seed": cfg.rng_seed,
        "outputs": outputs,
        "config": cfg.to_dict(),
    }
    with _replacing(path) as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_config_file(path: str) -> tuple[dict, str]:
    """The config a JSON file holds, and its run label: a manifest's scenario, else the file's stem."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    label = Path(path).stem
    if "config" in data and "tool_version" in data:  # a manifest written by an earlier run
        data, label = data["config"], data.get("scenario", label)
        if not isinstance(data, dict):
            raise ConfigError(f'manifest {path} must hold a JSON object under "config"')
        if not isinstance(label, str):
            raise ConfigError(f'manifest {path} must hold a string under "scenario"')
    return data, label


def resolve_config(args) -> tuple[str, ScenarioConfig]:
    """Merge scenario preset, config file, and CLI overrides."""
    base: dict = {}
    label = "custom"
    if args.scenario:
        base.update(scenario_config(args.scenario).to_dict())
        label = args.scenario
    if args.config:
        config, config_label = load_config_file(args.config)
        base.update(config)
        if not args.scenario:
            label = config_label
    for key, value in (("rng_seed", args.seed), ("n_steps", args.steps), ("snapshot_every", args.snapshot_every)):
        if value is not None:
            base[key] = value
    return label, ScenarioConfig.from_dict(base)


def _run_one(task) -> tuple[list, list[str]]:
    """Run one task and write its files: its summary row, and the names of the files written."""
    scenario, cfg, out_dir, per_actor = task
    result = simulate(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = ["snapshots.csv", "summary.csv", "manifest.json"]
    write_snapshots(out_dir / "snapshots.csv", result)
    row = summary_row(scenario, cfg, result)
    write_summary(out_dir / "summary.csv", [row])
    if per_actor:
        write_actors(out_dir / "actors.csv", result)
        outputs.append("actors.csv")
    write_manifest(out_dir / "manifest.json", scenario, cfg, outputs)
    return row, outputs


def _attempt(task) -> tuple[list | None, str | None]:
    """One sweep run: its summary row, or why it failed, so the other runs still go ahead."""
    try:
        return _run_one(task)[0], None
    except Exception as err:
        return None, f"{type(err).__name__}: {err}"


def cmd_run(args) -> int:
    scenario, cfg = resolve_config(args)
    _, outputs = _run_one((scenario, cfg, Path(args.out), args.per_actor))
    print(f"wrote {args.out}/{', '.join(outputs)}")
    return 0


def cmd_scenarios(args) -> int:
    for name in sorted(BUILTIN_SCENARIOS):
        cfg = scenario_config(name)
        tiers = ", ".join(f"{frac:.3f}@{target}" for frac, target in cfg.knowledge_tiers)
        print(
            f"{name}: weights knowledge={cfg.knowledge_weight} "
            f"reputation={cfg.reputation_weight} popularity={cfg.popularity_weight}; "
            f"actors={cfg.n_actors} assertions={cfg.n_assertions} "
            f"receivers={cfg.n_receivers} steps={cfg.n_steps} "
            f"snapshot_every={cfg.snapshot_every}; tiers [{tiers}]"
        )
    return 0


_NUMERIC = {f.name: f.type for f in dataclasses.fields(ScenarioConfig) if f.type in (int, float)}
# rng_seed is not sweepable: --seeds sets it for every run.
_SWEEPABLE = _NUMERIC.keys() - {"rng_seed"}


def _parse_scalar(key: str, text: str):
    try:
        return _NUMERIC[key](text)
    except ValueError:
        raise ConfigError(f"bad {key} value {text!r}")


def _parse_list(key: str, text: str) -> list:
    """Parse a comma-separated list, rejecting an entry repeated once parsed (`1` and `1.0`)."""
    parsed = [_parse_scalar(key, t) for t in text.split(",")]
    if len(set(parsed)) < len(parsed):
        raise ConfigError(f"repeated {key} value in {text!r}: each run needs its own directory")
    return parsed


def cmd_sweep(args) -> int:
    if args.seed is not None:
        raise ConfigError("sweep takes its seeds from --seeds, not --seed")
    if args.vary not in _SWEEPABLE:
        raise ConfigError(f"unknown sweep parameter {args.vary!r}")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    scenario, base = resolve_config(args)
    values = _parse_list(args.vary, args.values)
    seeds = _parse_list("rng_seed", args.seeds)
    out_root = Path(args.out)

    tasks = []
    for value in values:
        for seed in seeds:
            cfg = dataclasses.replace(base, **{args.vary: value, "rng_seed": seed})
            run_dir = out_root / f"{args.vary}={value}_seed={seed}"
            tasks.append((f"{scenario}[{args.vary}={value}]", cfg, run_dir, args.per_actor))

    jobs = min(args.jobs, len(tasks))  # a pool starts all its workers at the first task
    if jobs > 1:
        import concurrent.futures  # imports logging, which a plain run does not need
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_attempt, tasks))
    else:
        results = [_attempt(t) for t in tasks]
    rows = [row for row, _ in results if row is not None]
    out_root.mkdir(parents=True, exist_ok=True)
    write_summary(out_root / "summary.csv", rows)
    print(f"wrote {len(rows)} runs under {out_root}")
    for task, (_, error) in zip(tasks, results):
        if error is not None:
            print(f"error: run {task[2].name} failed: {error}", file=sys.stderr)
    return 0 if len(rows) == len(tasks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="friendcast",
        description="Broadcast information-diffusion simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (or a manifest from a previous run)")
        p.add_argument("--scenario", help="built-in scenario name")
        p.add_argument("--seed", type=int, help="override rng_seed")
        p.add_argument("--steps", type=int, help="override n_steps")
        p.add_argument("--snapshot-every", type=int, help="override snapshot_every")
        p.add_argument("--out", default="results", help="output directory")
        p.add_argument("--per-actor", action="store_true", help="also write actors.csv")

    p_run = sub.add_parser("run", help="execute one scenario")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_list = sub.add_parser("scenarios", help="list built-in scenarios")
    p_list.set_defaults(func=cmd_scenarios)

    p_sweep = sub.add_parser("sweep", help="run a parameter/seed cross product")
    add_common(p_sweep)
    p_sweep.add_argument("--vary", required=True, help="config key to vary")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--seeds", required=True, help="comma-separated seeds")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel runs")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
