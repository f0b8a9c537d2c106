"""Command-line interface: exit codes, file schemas, reproducibility."""

import csv
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from friendcast import cli
from friendcast.cli import main
from friendcast.harness import RunResult, Snapshot

FAST = [
    "--steps", "200",
    "--snapshot-every", "20",
]


def read(path):
    return path.read_text()


def test_run_happy_path_writes_three_files(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(["run", "--scenario", "experts", "--seed", "42", "--out", str(out), *FAST])
    assert code == 0
    for name in ("snapshots.csv", "summary.csv", "manifest.json"):
        assert (out / name).exists()
    header = read(out / "snapshots.csv").splitlines()[0]
    assert header.startswith("step,mean_value,mean_abs_value,std_value,bin_00")
    assert header.endswith("bin_19")


def test_run_snapshot_row_count(tmp_path):
    out = tmp_path / "r"
    main(["run", "--scenario", "trolls", "--seed", "1", "--out", str(out),
          "--steps", "1000", "--snapshot-every", "100"])
    rows = read(out / "snapshots.csv").splitlines()
    assert len(rows) == 1 + 11  # header + steps 0,100,...,1000


def test_run_missing_config_exits_one(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "missing.json")])
    assert code == 1
    assert "missing.json" in capsys.readouterr().err


def test_run_invalid_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_receivers": 500}))
    code = main(["run", "--scenario", "experts", "--config", str(bad),
                 "--out", str(tmp_path / "x"), *FAST])
    assert code == 1


def test_run_config_that_is_not_utf8_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "x"
    assert main(["run", "--config", str(bad), "--out", str(out), *FAST]) == 1
    assert "is not valid JSON" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("overrides, args, field", [
    ({"n_actors": 100.0}, [], "n_actors"),
    ({"n_steps": 10.5}, [], "n_steps"),
    ({"snapshot_every": 2.5}, [], "snapshot_every"),
    ({"n_receivers": True}, [], "n_receivers"),
    ({"rng_seed": 1.5}, [], "rng_seed"),
    (None, ["--scenario", "experts", "--seed", "-1"], "rng_seed"),
    ({"knowledge_tiers": [[float("nan"), 0.5]]}, [], "knowledge tier"),
    ({"knowledge_tiers": [[True, 0.5]]}, [], "knowledge tier"),
    ({"knowledge_tiers": [[1.0, False]]}, [], "knowledge tier"),
    ({"knowledge_tiers": 5}, [], "knowledge_tiers"),
    ({"knowledge_tiers": [5]}, [], "knowledge_tiers"),
    ({"knowledge_tiers": [None]}, [], "knowledge_tiers"),
    ({"n_assertions": 2, "ontology": [[1, 2], [2, 1]]}, [], "ontology"),
    # json.dumps writes NaN, which json.load reads back
    ({"n_assertions": 2, "n_steps": 20, "ontology": [[1, float("nan")], [0, 1]],
      "ontology_belief_weight": "source"}, [], "ontology"),
    ({"n_assertions": 2, "ontology": {"a": 1}}, [], "ontology"),
], ids=["float-n_actors", "float-n_steps", "float-snapshot_every", "bool-n_receivers",
        "float-rng_seed", "negative-seed", "nan-tier-fraction", "bool-tier-fraction", "bool-tier-target",
        "int-tiers", "int-tier", "null-tier", "out-of-range-ontology", "nan-ontology", "dict-ontology"])
def test_run_malformed_value_exits_one_cleanly(tmp_path, capsys, overrides, args, field):
    if overrides is not None:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(overrides))
        args = ["--config", str(config)]
    out = tmp_path / "x"
    code = main(["run", *args, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err
    assert not out.exists()


def test_importing_the_cli_leaves_concurrent_futures_unloaded():
    # Only a parallel sweep needs it, and it imports logging on the way.
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, friendcast.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout == "False\n"


def test_run_unknown_scenario_lists_the_known_ones(tmp_path, capsys):
    code = main(["run", "--scenario", "nope", "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == "error: unknown scenario 'nope' (known: experts, trolls)\n"


def test_run_manifest_with_a_non_object_config_exits_one(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"config": 5, "tool_version": "0.1.0"}))
    code = main(["run", "--config", str(manifest), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "manifest.json" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_run_config_that_is_a_json_array_exits_one(tmp_path, capsys):
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps([{"n_actors": 10}]))
    code = main(["run", "--config", str(listed), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "listed.json must hold a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_run_unwritable_output_exits_two(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory")
    code = main(["run", "--scenario", "experts", "--out", str(blocker), *FAST])
    assert code == 2


class FailingColumn:
    """An actor column that raises OSError at one actor, as a disk filling up mid-write would."""

    def __init__(self, values, fail_at):
        self.values, self.fail_at = values, fail_at

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        if i == self.fail_at:
            raise OSError(28, "No space left on device")
        return self.values[i]

    def tolist(self):
        return [self[i] for i in range(len(self))]


def test_run_interrupted_while_writing_actors_leaves_no_partial_file(tmp_path, monkeypatch, capsys):
    simulate = cli.simulate

    def failing(cfg):
        result = simulate(cfg)
        last = result.snapshots[-1]
        last.actor_reputation = FailingColumn(last.actor_reputation, fail_at=5)
        return result

    monkeypatch.setattr(cli, "simulate", failing)
    out = tmp_path / "r"
    code = main(["run", "--scenario", "experts", "--out", str(out), "--per-actor", *FAST])
    assert code == 2
    assert "No space left on device" in capsys.readouterr().err
    # Complete files only: no actors.csv, no temporary file, no manifest listing them.
    assert sorted(p.name for p in out.iterdir()) == ["snapshots.csv", "summary.csv"]


def test_actor_table_bytes_are_what_csv_writer_writes(tmp_path):
    # Signed zeros, the smallest subnormal, both sides of repr's switch to
    # exponents, and values whose shortest repr needs 17 digits.
    values = np.array([-0.0, 0.0, 5e-324, 1e-05, 0.0001, 1e16, 0.1 + 0.2, 0.5, 1.0])
    snapshots = [
        Snapshot(step, *(np.roll(values, shift + step) for shift in range(4)),
                 histogram=np.zeros(cli.HISTOGRAM_BINS, dtype=int), mean_value=0.0, mean_abs_value=0.0, std_value=0.0)
        for step in (0, 25)
    ]
    result = RunResult(snapshots, sends=0, responses=0, n_steps=25, n_receivers=1)
    cli.write_actors(tmp_path / "actors.csv", result)

    expected = io.StringIO()
    out = csv.writer(expected, lineterminator="\n")
    out.writerow(cli.ACTOR_HEADER)
    for snap in snapshots:
        columns = (snap.actor_mean_value, snap.actor_mean_abs_value, snap.actor_popularity, snap.actor_reputation)
        for actor_id, row in enumerate(zip(*columns)):
            out.writerow([snap.step, actor_id, *(float(v) for v in row)])
    written = (tmp_path / "actors.csv").read_bytes()
    assert written == expected.getvalue().encode()
    assert {b"-0.0", b"5e-324", b"1e-05", b"0.0001", b"1e+16", b"0.30000000000000004"} <= set(
        written.replace(b"\n", b",").split(b","))


@pytest.mark.parametrize("per_actor", [False, True])
def test_run_names_the_files_it_wrote(tmp_path, capsys, per_actor):
    out = tmp_path / "r"
    code = main(["run", "--scenario", "experts", "--out", str(out), *FAST] + ["--per-actor"] * per_actor)
    assert code == 0
    outputs = json.loads(read(out / "manifest.json"))["outputs"]
    assert ("actors.csv" in outputs) == per_actor
    assert capsys.readouterr().out == f"wrote {out}/{', '.join(outputs)}\n"


def test_per_actor_table(tmp_path):
    out = tmp_path / "r"
    main(["run", "--scenario", "experts", "--seed", "3", "--out", str(out),
          "--per-actor", *FAST])
    lines = read(out / "actors.csv").splitlines()
    assert lines[0] == "step,actor_id,mean_value,mean_abs_value,popularity,reputation"
    n_snapshots = len(read(out / "snapshots.csv").splitlines()) - 1
    assert len(lines) == 1 + n_snapshots * 100


def test_summary_schema(tmp_path):
    out = tmp_path / "r"
    main(["run", "--scenario", "experts", "--seed", "5", "--out", str(out), *FAST])
    lines = read(out / "summary.csv").splitlines()
    assert lines[0] == "scenario,seed,steps,final_mean_abs,steps_to_0.9,sender_send_rate,feedback_rate"
    fields = lines[1].split(",")
    assert fields[0] == "experts" and fields[1] == "5" and fields[2] == "200"


def test_scenarios_listing(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    assert lines == sorted(lines)
    experts = next(l for l in lines if l.startswith("experts:"))
    assert "knowledge=0.2" in experts and "reputation=0.7" in experts and "popularity=0.1" in experts
    trolls = next(l for l in lines if l.startswith("trolls:"))
    assert "knowledge=0.1" in trolls and "reputation=0.1" in trolls and "popularity=0.8" in trolls
    assert "actors=100" in experts and "steps=50000" in experts


def test_manifest_reproduces_run(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--scenario", "trolls", "--seed", "4", "--out", str(out1), *FAST])
    manifest = json.loads(read(out1 / "manifest.json"))
    assert manifest["seed"] == 4 and manifest["scenario"] == "trolls"
    assert manifest["python"] == platform.python_version() and manifest["numpy"] == np.__version__
    code = main(["run", "--config", str(out1 / "manifest.json"), "--out", str(out2)])
    assert code == 0
    # The rerun is labelled with the manifest's scenario, not the file's name.
    for name in ("snapshots.csv", "summary.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest["scenario"] = 5
    (tmp_path / "bad.json").write_text(json.dumps(manifest))
    assert main(["run", "--config", str(tmp_path / "bad.json"), "--out", str(tmp_path / "c")]) == 1
    assert not (tmp_path / "c").exists()


def test_config_file_with_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n_actors": 10, "n_assertions": 2, "n_steps": 50, "snapshot_every": 10,
        "rng_seed": 0,
    }))
    out = tmp_path / "r"
    code = main(["run", "--config", str(cfg_path), "--seed", "8", "--out", str(out)])
    assert code == 0
    manifest = json.loads(read(out / "manifest.json"))
    assert manifest["config"]["rng_seed"] == 8  # CLI flag wins
    assert manifest["config"]["n_actors"] == 10


def test_sweep_counts_runs(tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep", "--scenario", "trolls", "--vary", "n_receivers",
                 "--values", "1,2", "--seeds", "1,2", "--out", str(out),
                 "--steps", "100", "--snapshot-every", "50"])
    assert code == 0
    rows = read(out / "summary.csv").splitlines()
    assert len(rows) == 1 + 4
    assert (out / "n_receivers=1_seed=1" / "snapshots.csv").exists()
    assert (out / "n_receivers=2_seed=2" / "manifest.json").exists()


def test_sweep_unknown_key_exits_one(tmp_path, capsys):
    code = main(["sweep", "--scenario", "trolls", "--vary", "not_a_key",
                 "--values", "1", "--seeds", "1", "--out", str(tmp_path / "s")])
    assert code == 1


def test_sweep_over_rng_seed_exits_one(tmp_path, capsys):
    # --seeds already sets rng_seed; varying it too would write identical runs
    out = tmp_path / "s"
    code = main(["sweep", "--scenario", "trolls", "--vary", "rng_seed",
                 "--values", "5,6", "--seeds", "1", "--out", str(out), *FAST])
    assert code == 1
    assert capsys.readouterr().err == "error: unknown sweep parameter 'rng_seed'\n"
    assert not out.exists()


def test_sweep_refuses_seed(tmp_path, capsys):
    # --seeds sets every run's rng_seed, so a --seed would be silently dropped
    out = tmp_path / "s"
    code = main(["sweep", "--scenario", "experts", "--seed", "5", "--vary", "n_receivers",
                 "--values", "1", "--seeds", "1,2", "--out", str(out), *FAST])
    assert code == 1
    assert capsys.readouterr().err == "error: sweep takes its seeds from --seeds, not --seed\n"
    assert not out.exists()


BAD_SWEEPS = [  # --vary, --values, --seeds, --jobs
    ("n_receivers", "abc", "1", "1"),
    ("n_receivers", "1", "x", "1"),
    ("n_receivers", "1,2.5", "1", "1"),
    # entries repeated once parsed would share one run directory
    ("n_receivers", "1,01", "3", "1"),
    ("n_receivers", "1", "3,3", "2"),
    ("remembrance", "1,1.0", "3", "1"),
    ("n_receivers", "1", "3", "0"),
    ("n_receivers", "1", "3", "-1"),
]


@pytest.mark.parametrize("vary, values, seeds, jobs", BAD_SWEEPS, ids=[
    f"{values}-{seeds}" + ("" if vary == "n_receivers" else f"-{vary}") + ("" if jobs == "1" else f"-jobs={jobs}")
    for vary, values, seeds, jobs in BAD_SWEEPS
])
def test_sweep_unparsable_value_or_seed_exits_one(tmp_path, capsys, vary, values, seeds, jobs):
    out = tmp_path / "s"
    code = main(["sweep", "--scenario", "trolls", "--vary", vary, "--values", values,
                 "--seeds", seeds, "--jobs", jobs, "--out", str(out), *FAST])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_sweep_outgrowing_an_explicit_ontology_fails_before_any_run(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n_assertions": 4, "ontology": np.eye(4).tolist()}))
    out = tmp_path / "s"
    code = main(["sweep", "--config", str(config), "--vary", "n_assertions",
                 "--values", "4,5", "--seeds", "1", "--out", str(out), *FAST])
    assert code == 1
    assert not out.exists()
    assert "n_assertions is 5" in capsys.readouterr().err


def test_sweep_breaking_personality_convexity_fails_validation(tmp_path):
    code = main(["sweep", "--scenario", "trolls", "--vary", "popularity_weight",
                 "--values", "0.5", "--seeds", "1", "--out", str(tmp_path / "s"),
                 *FAST])
    assert code == 1


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_with_a_failing_run_names_it_and_keeps_the_others(tmp_path, capsys, jobs):
    out = tmp_path / "s"
    out.mkdir()
    (out / "n_receivers=2_seed=1").write_text("a file where the run's directory should go")
    code = main(["sweep", "--scenario", "experts", "--vary", "n_receivers", "--values", "1,2,3",
                 "--seeds", "1", "--out", str(out), "--steps", "50", "--jobs", jobs])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: run n_receivers=2_seed=1 failed: FileExistsError")
    assert err.count("error:") == 1
    rows = read(out / "summary.csv").splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["experts[n_receivers=1]", "experts[n_receivers=3]"]
    assert (out / "n_receivers=3_seed=1" / "manifest.json").exists()


def test_sweep_parallel_matches_serial(tmp_path):
    serial, parallel = tmp_path / "s", tmp_path / "p"
    base = ["sweep", "--scenario", "trolls", "--vary", "remembrance",
            "--values", "1.0,0.999", "--seeds", "3", "--steps", "100",
            "--snapshot-every", "50"]
    main(base + ["--out", str(serial)])
    main(base + ["--out", str(parallel), "--jobs", "2"])
    assert (serial / "summary.csv").read_bytes() == (parallel / "summary.csv").read_bytes()


def test_sweep_starts_no_more_workers_than_runs(tmp_path, monkeypatch):
    # A pool starts every worker at its first task, so --jobs 5000 on two runs must ask for two.
    import concurrent.futures

    asked = []

    class InProcessPool:
        """Records the worker count and runs each task here; no process is started."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    out = tmp_path / "s"
    code = main(["sweep", "--scenario", "experts", "--vary", "n_receivers", "--values", "1,2",
                 "--seeds", "1", "--jobs", "5000", "--out", str(out), *FAST])
    assert code == 0 and asked == [2]
    assert len(read(out / "summary.csv").splitlines()) == 1 + 2
