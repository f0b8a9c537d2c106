#!/usr/bin/env python3
"""The friendcast benchmark: one workload per call, every run in a fresh process.

    python3 bench/run.py --workload experts-n100 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

A call repeats one fixed-length `friendcast run` of the workload, each in
its own single-threaded worker process and one at a time, until
`--seconds` have passed. Every repeat uses the same seed, so every repeat
must write the same bytes. The outputs of each repeat are checked
(checks.py); a repeat that raises or fails a check counts all its steps
as failed.

With `--trace 0` the call reports the end-to-end metrics, medians over
the repeats. With `--trace 1` it alternates untraced and traced repeats,
and reports the per-layer metrics and the tracing overhead. The last
line of standard output is one JSON object: correct, attempted, failed
(both in steps) and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REQUIRED = (SRC / "friendcast" / "cli.py", ROOT / "tests" / "session_oracle.py")
WORKER_TIMEOUT_S = 100  # a call must end within 180 s: 40 s of repeats plus one hung worker

# Each workload is one `friendcast run --per-actor` of a fixed step count;
# `config` overrides the preset (or the ScenarioConfig defaults without one).
# Snapshots fall every 100 to 500 steps, so that each repeat splits into
# four to eight timed chunks.
WORKLOADS = {
    # The paper's population under the preset users run: source belief
    # weighting, one receiver. Transfer, World.utilities and the CSV
    # writers carry their largest share of a step here.
    "experts-n100": dict(scenario="experts", config={}, steps=2000),
    # 2^5 feedback cells per tensor: the game layer does most of the work,
    # and world copies are cheap at 100 actors.
    "trolls-n100-N5": dict(scenario="trolls", config={"n_receivers": 5, "snapshot_every": 100}, steps=500),
    # Config defaults (transferred belief weighting) at 1,000 actors, with
    # forgetting on every session: whole-world copies and n^2 state
    # dominate. At remembrance 0.999 mean|a| falls from 0.5 to about 0.41
    # over the 200 steps, well above 0.
    "pop1000-forget": dict(
        scenario=None, config={"n_actors": 1000, "remembrance": 0.999, "snapshot_every": 25}, steps=200
    ),
}

END_TO_END_UNITS = {"steps_per_s": "1/s", "run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# On a shared host the speed of one process drifts by tens of percent over
# seconds to minutes, and the median of a 40 s run moves with it. Each
# untraced repeat times a fixed reference kernel (worker.Reference) at
# every snapshot, and the end-to-end times are scaled to a host on which
# that kernel takes REFERENCE_NS, about its median on the 2-core VM the
# README's figures come from. The unscaled figures are printed as well.
REFERENCE_NS = 10_000_000


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # imports read cached bytecode, as installs do
    return env


def clock() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def sample_steps(steps: int) -> list[int]:
    """Steps whose sessions a traced repeat replays through the session oracle."""
    return sorted({1, steps // 4, steps // 2, 3 * steps // 4, steps} - {0})


def invoke(label, scenario, config, seed, steps, out_dir: Path, trace: bool) -> dict:
    """One `friendcast run` in a fresh worker process; returns its report and problems."""
    out_dir.mkdir(parents=True)
    config_file = out_dir / f"{label}.json"
    config_file.write_text(json.dumps(config))
    argv = ["run", "--config", str(config_file), "--seed", str(seed), "--steps", str(steps),
            "--per-actor", "--out", str(out_dir)]
    if scenario:
        argv += ["--scenario", scenario]
    job = {"argv": argv, "trace": trace, "report": str(out_dir / "report.json"),
           "sample_steps": sample_steps(steps)}
    spawned = clock()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"problems": [f"worker timed out after {WORKER_TIMEOUT_S} s"]}
    if proc.returncode != 0 or not Path(job["report"]).is_file():
        return {"problems": [f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"]}
    report = json.loads(Path(job["report"]).read_text())
    if report["status"] != 0:
        return {"problems": [f"friendcast run exited {report['status']}: {proc.stderr.strip()[-500:]}"]}
    marks, chunks, traced = report["marks"], report["chunks"], report["trace"]
    requested = {**config, "n_steps": steps, "rng_seed": seed}
    counts = {"sends": traced["sends"], "responses": traced["responses"]} if traced else None
    problems = checks.check_outputs(out_dir, requested, counts)
    if traced:
        problems += traced["problems"]
    return {
        "problems": problems,
        "report": report,
        "digest": checks.digest(out_dir) if not problems else None,
        **timings(spawned, marks, chunks),
    }


def timings(spawned: int, marks: dict, chunks: list) -> dict:
    """Wall times of one repeat in s, without the reference kernel's own time.

    Untraced, `chunks` holds one entry per snapshot: step, clock before
    and after the reference kernel, and the kernel's time. The first
    snapshot (step 0) falls between set-up and the first step.
    """
    kernels = [(enter, leave) for _, enter, leave, _ in chunks]
    setup_kernel = kernels[0][1] - kernels[0][0] if kernels else 0
    loop_kernels = sum(leave - enter for enter, leave in kernels[1:])
    return {
        "setup_s": (marks["first_step"] - spawned - setup_kernel) / 1e9,
        "loop_s": (marks["sim_end"] - marks["first_step"] - loop_kernels) / 1e9,
        "run_s": (marks["end"] - marks["first_step"] - loop_kernels) / 1e9,
    }


def warm_up() -> None:
    """Compile the program's bytecode once, as an installed copy would have it."""
    subprocess.run([sys.executable, "-c", "import friendcast.cli"], cwd=ROOT, env=worker_env(),
                   check=True, timeout=WORKER_TIMEOUT_S)


def run_workload(name: str, seed: int, seconds: float, trace: bool, steps: int | None = None) -> dict:
    spec = WORKLOADS[name]
    steps = steps or spec["steps"]
    base = OUT / name
    shutil.rmtree(base, ignore_errors=True)
    warm_up()
    repeats = []
    deadline = clock() + seconds * 1e9
    while True:
        traced = trace and len(repeats) % 2 == 1
        repeats.append(invoke(name, spec["scenario"], spec["config"], seed, steps,
                              base / f"repeat{len(repeats):02d}", traced))
        repeats[-1]["traced"] = traced
        if clock() >= deadline and (not trace or len(repeats) % 2 == 0):
            break

    reference = next((r["digest"] for r in repeats if r["digest"]), None)
    for r in repeats:
        if r["digest"] and r["digest"] != reference:
            r["problems"].append("outputs differ in bytes from an earlier repeat of the same seed")
    good = [r for r in repeats if not r["problems"]]
    if trace:
        problems = layer_problems([r for r in good if r["traced"]])
        if problems:
            for r in repeats:
                r["problems"] += problems
            good = []
    for i, r in enumerate(repeats):
        for problem in r["problems"]:
            print(f"{name} repeat {i}: {problem}", file=sys.stderr)

    failed = steps * (len(repeats) - len(good))
    result = {"correct": failed == 0, "attempted": steps * len(repeats), "failed": failed}
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if trace:
        metrics = layer_metrics(traced, untraced, spec, steps) if traced and untraced else {}
    else:
        metrics = end_to_end_metrics(untraced) if untraced else {}
        if untraced:
            raw = end_to_end_metrics(untraced, scaled=False)
            print(f"{name}  unscaled: " + ", ".join(
                f"{k} = {raw[k]['value']:.6g} {raw[k]['unit']}" for k in ("steps_per_s", "run_s", "setup_s")))
    result["metrics"] = metrics
    return result


def chunk_rates(repeat: dict, scaled: bool) -> list[float]:
    """Steps per second between consecutive snapshots of one repeat.

    Scaled, each chunk's rate is multiplied by the host's slowness at the
    time: the mean reference-kernel time at the chunk's two ends over
    REFERENCE_NS.
    """
    rates = []
    for (s0, _, leave, k0), (s1, enter, _, k1) in zip(repeat["report"]["chunks"], repeat["report"]["chunks"][1:]):
        slowness = (k0 + k1) / 2 / REFERENCE_NS if scaled else 1.0
        rates.append((s1 - s0) * 1e9 / (enter - leave) * slowness)
    return rates


def end_to_end_metrics(repeats: list[dict], scaled: bool = True) -> dict:
    """Medians over the repeats; scaled to a host where the kernel takes REFERENCE_NS."""

    def slowness(repeat, at_setup=False):
        kernels = [k for *_, k in repeat["report"]["chunks"]]
        return (kernels[0] if at_setup else statistics.median(kernels)) / REFERENCE_NS if scaled else 1.0

    values = {
        "steps_per_s": statistics.median(rate for r in repeats for rate in chunk_rates(r, scaled)),
        "run_s": statistics.median(r["run_s"] / slowness(r) for r in repeats),
        "setup_s": statistics.median(r["setup_s"] / slowness(r, at_setup=True) for r in repeats),
        "peak_rss_mb": statistics.median(r["report"]["peak_rss_kb"] / 1024 for r in repeats),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


# Counts that depend only on the seed: every traced repeat must give the same.
EXACT_COUNTS = ("cells", "sends", "responses", "copy_bytes", "write_bytes", "regret_fallbacks")


def layer_problems(traced: list[dict]) -> list[str]:
    def signature(trace):
        return [trace[k] for k in EXACT_COUNTS], {layer: c[0] for layer, c in trace["calls"].items()}

    signatures = [signature(r["report"]["trace"]) for r in traced]
    if any(s != signatures[0] for s in signatures):
        return ["traced repeats of one seed counted different work"]
    return []


def layer_metrics(traced: list[dict], untraced: list[dict], spec: dict, steps: int) -> dict:
    traces = [r["report"]["trace"] for r in traced]
    first = traces[0]
    n_receivers = spec["config"].get("n_receivers", 1)

    def total(layer, i):
        return sum(t["calls"].get(layer, [0, 0])[i] for t in traces)

    def mean_us(layer):
        return total(layer, 1) / total(layer, 0) / 1e3 if total(layer, 0) else 0.0

    step_us = np.concatenate([t["step_ns"] for t in traces]) / 1e3
    all_steps = steps * len(traces)
    traced_loop = statistics.median(r["loop_s"] - r["report"]["trace"]["excluded_ns"] / 1e9 for r in traced)
    untraced_loop = statistics.median(r["loop_s"] for r in untraced)
    values = {
        "harness.step_us_p50": ("us", float(np.percentile(step_us, 50))),
        "harness.step_us_p99": ("us", float(np.percentile(step_us, 99))),
        "harness.draw_us": ("us", sum(t["draw_ns"] for t in traces) / all_steps / 1e3),
        "harness.snapshot_ms": ("ms", mean_us("harness.snapshot") / 1e3),
        "game.tensor_us": ("us", mean_us("game.tensor")),
        "game.tensor_cells": ("count", first["cells"]),
        "game.select_us": ("us", mean_us("game.select")),
        "game.regret_fallbacks": ("count", first["regret_fallbacks"]),
        "transfer.session_us": ("us", mean_us("transfer.session")),
        "transfer.sends": ("count", first["sends"]),
        "transfer.responses": ("count", first["responses"]),
        "transfer.feedback_rate": ("ratio", first["responses"] / (first["sends"] * n_receivers) if first["sends"] else 0.0),
        "world.copies_per_step": ("count", first["calls"]["world.copy"][0] / steps),
        "world.copy_mb_per_step": ("MB", first["copy_bytes"] / steps / 1e6),
        "world.copy_us": ("us", mean_us("world.copy")),
        "world.utilities_per_step": ("count", first["calls"]["world.utilities"][0] / steps),
        "world.utilities_us": ("us", mean_us("world.utilities")),
        "cli.write_ms": ("ms", total("cli.write", 1) / len(traces) / 1e6),
        "cli.bytes_written": ("bytes", first["write_bytes"]),
        "trace.overhead_pct": ("%", (traced_loop / untraced_loop - 1.0) * 100.0),
    }
    return {k: {"value": v, "unit": unit} for k, (unit, v) in values.items()}


def print_result(name: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}")
    print(f"{name}  steps attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steps", type=int, help="override the workload's run length (tests)")
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: the program is not in this checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.steps)
        print_result(name, results[name])
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(final))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
