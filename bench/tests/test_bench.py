"""Tests of the benchmark itself.

    python3 -m pytest bench/tests

Every workload runs briefly in both modes and must report every metric
that BENCHMARK.json names, with its unit. Deliberately corrupted outputs
must fail their checks, and the benchmark must refuse to run without the
program.
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
STEPS = 40


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--steps", str(STEPS))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] == STEPS * (2 if trace else 1)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.startswith(f"{workload}  {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "experts"
    repeat = run.invoke("experts-n100", "experts", {}, 5, 600, out, trace=False)
    assert repeat["problems"] == []
    return out


REQUESTED = {"n_steps": 600, "rng_seed": 5}


def _edit(path: Path, row: int, column: str, change) -> None:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    col = rows[0].index(column)
    rows[row][col] = change(rows[row][col])
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def _move_one_count(path: Path) -> None:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    bins = [i for i, name in enumerate(rows[0]) if name.startswith("bin_")]
    full = next(i for i in bins if int(rows[-1][i]) > 0)
    other = bins[0] if full != bins[0] else bins[1]
    rows[-1][full] = str(int(rows[-1][full]) - 1)
    rows[-1][other] = str(int(rows[-1][other]) + 1)
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


CORRUPTIONS = {
    "histogram count moved to another bin": lambda out: _move_one_count(out / "snapshots.csv"),
    "mean|a| off by 1e-9": lambda out: _edit(
        out / "snapshots.csv", 3, "mean_abs_value", lambda v: repr(float(v) + 1e-9)),
    "popularity above 1": lambda out: _edit(out / "actors.csv", 7, "popularity", lambda v: "1.5"),
    "reputation below 0": lambda out: _edit(out / "actors.csv", 9, "reputation", lambda v: "-0.1"),
    "more sends than steps": lambda out: _edit(out / "summary.csv", 1, "sender_send_rate", lambda v: "1.5"),
    "send rate not from a count": lambda out: _edit(
        out / "summary.csv", 1, "sender_send_rate", lambda v: repr(float(v) + 1e-4)),
    "a snapshot row missing": lambda out: (out / "snapshots.csv").write_text(
        "".join((out / "snapshots.csv").read_text().splitlines(keepends=True)[:-1])),
    "manifest seed differs": lambda out: (out / "manifest.json").write_text(
        (out / "manifest.json").read_text().replace('"rng_seed": 5', '"rng_seed": 6')),
}


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_corrupted_output_fails_its_check(outputs, tmp_path, corruption):
    assert checks.check_outputs(outputs, REQUESTED) == []
    copy = tmp_path / "copy"
    shutil.copytree(outputs, copy)
    CORRUPTIONS[corruption](copy)
    assert checks.check_outputs(copy, REQUESTED) != []


def test_counts_from_the_trace_must_match_the_summary(outputs):
    with open(outputs / "summary.csv", newline="") as handle:
        row = list(csv.DictReader(handle))[0]
    sends = round(float(row["sender_send_rate"]) * 600)
    responses = round(float(row["feedback_rate"]) * sends)
    assert checks.check_outputs(outputs, REQUESTED, {"sends": sends, "responses": responses}) == []
    assert checks.check_outputs(outputs, REQUESTED, {"sends": sends - 1, "responses": responses}) != []


def test_brute_force_check_rejects_another_profile():
    from friendcast.game import StrategyProfile, build_payoff_tensor, select_profile
    from friendcast.harness import init_population
    from friendcast.scenarios import scenario_config
    import numpy as np

    cfg = scenario_config("trolls", n_receivers=3)
    world = init_population(cfg, np.random.default_rng(0))
    tensor = build_payoff_tensor(world, 0, [1, 2, 3], 0, cfg.transfer_params())
    played = select_profile(tensor)
    choice, _ = checks.expected_profile(tensor, played)
    assert choice == (played.send, *played.feedback)
    for other in StrategyProfile.enumerate_canonical(3):
        if other != played:
            assert checks.expected_profile(tensor, other)[0] != (other.send, *other.feedback)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", SPEC["workloads"][0]["name"], "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
