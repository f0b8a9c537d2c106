"""Correctness checks for one `friendcast run`, written from the method's rules.

Nothing here compares against stored copies of earlier output. The CSV
checks recount what the files must agree on; `expected_profile` re-derives
the profile a session must play by brute force over the payoff tensor.
Every check returns a list of problems, empty when it passes.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

HISTOGRAM_BINS = 20
EDGES = np.linspace(-1.0, 1.0, HISTOGRAM_BINS + 1)
TOL = 1e-12
OUTPUTS = ("snapshots.csv", "summary.csv", "actors.csv")


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _outside(values, lo, hi) -> bool:
    return bool(np.any(values < lo - TOL) or np.any(values > hi + TOL))


def digest(out_dir: Path) -> str:
    """One hash over the output files, to compare repeated runs byte for byte."""
    h = hashlib.sha256()
    for name in OUTPUTS:
        h.update((Path(out_dir) / name).read_bytes())
    return h.hexdigest()


def check_outputs(out_dir: Path, requested: dict, counts: dict | None = None) -> list[str]:
    """Check the files of one run with `--per-actor` against the method's properties.

    `requested` holds the config values the run was asked for; the manifest
    must echo them. `counts`, from a traced run, holds the sends and
    responses counted at `execute_session`; the summary rates must match.
    """
    out = Path(out_dir)
    try:
        return _check(out, requested, counts)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
        return [f"unreadable output in {out.name}: {err!r}"]


def _check(out: Path, requested: dict, counts: dict | None) -> list[str]:
    problems = []
    manifest = json.loads((out / "manifest.json").read_text())
    cfg = manifest["config"]
    for key, value in requested.items():
        if cfg[key] != value:
            problems.append(f"manifest {key}={cfg[key]!r}, requested {value!r}")
    for name in manifest["outputs"]:
        if not (out / name).is_file():
            problems.append(f"manifest lists missing output {name}")
    n, n_steps, every = cfg["n_actors"], cfg["n_steps"], cfg["snapshot_every"]

    header, rows = _rows(out / "snapshots.csv")
    if len(header) != 4 + HISTOGRAM_BINS:
        problems.append(f"snapshots.csv has {len(header)} columns")
    snaps = np.array(rows, dtype=float)
    steps = snaps[:, 0].astype(int).tolist()
    expected_steps = [0] + [t for t in range(1, n_steps + 1) if t % every == 0 or t == n_steps]
    if steps != expected_steps:
        problems.append(f"snapshot steps {steps[:5]}... differ from the schedule")
    mean_v, mean_abs, std, bins = snaps[:, 1], snaps[:, 2], snaps[:, 3], snaps[:, 4:]
    if np.any(bins.sum(axis=1) != n):
        problems.append("a snapshot histogram does not sum to n_actors")
    if _outside(mean_v, -1, 1) or _outside(mean_abs, 0, 1) or _outside(std, 0, 1):
        problems.append("a snapshot mean, mean|a| or std is outside its range")
    if np.any(np.abs(mean_v) > mean_abs + TOL):
        problems.append("a snapshot has |mean value| above mean|a|")

    _, rows = _rows(out / "actors.csv")
    actors = np.array(rows, dtype=float)
    if actors.shape != (len(steps) * n, 6):
        problems.append(f"actors.csv has shape {actors.shape}, expected {(len(steps) * n, 6)}")
        return problems
    actors = actors.reshape(len(steps), n, 6)
    if np.any(actors[:, :, 0] != np.array(steps)[:, None]) or np.any(actors[:, :, 1] != np.arange(n)):
        problems.append("actors.csv rows are not one per actor per snapshot, in id order")
    a_mean, a_abs, pop, rep = (actors[:, :, c] for c in (2, 3, 4, 5))
    if _outside(a_mean, -1, 1) or _outside(a_abs, 0, 1):
        problems.append("an actor mean value or mean|a| is outside its range")
    if np.any(np.abs(a_mean) > a_abs + TOL):
        problems.append("an actor has |mean value| above its mean|a|")
    if _outside(pop, 0, 1) or _outside(rep, 0, 1):
        problems.append("a popularity or reputation is outside [0, 1]")
    for s, step in enumerate(steps):
        recount, _ = np.histogram(a_mean[s], bins=EDGES)
        if not np.array_equal(recount, bins[s]):
            problems.append(f"step {step}: histogram differs from the recount of actors.csv")
        gaps = (a_abs[s].mean() - mean_abs[s], a_mean[s].mean() - mean_v[s], a_mean[s].std() - std[s])
        if max(abs(g) for g in gaps) > TOL:
            problems.append(f"step {step}: mean|a|, mean or std differs from actors.csv")

    header, rows = _rows(out / "summary.csv")
    if len(rows) != 1:
        return problems + [f"summary.csv has {len(rows)} rows"]
    row = dict(zip(header, rows[0]))
    if int(row["steps"]) != n_steps or int(row["seed"]) != cfg["rng_seed"]:
        problems.append("summary steps or seed differ from the config")
    if float(row["final_mean_abs"]) != mean_abs[-1]:
        problems.append("summary final_mean_abs differs from the last snapshot")
    reached = [t for t, v in zip(steps, mean_abs) if v >= 0.9]
    if row["steps_to_0.9"] != (str(reached[0]) if reached else ""):
        problems.append("summary steps_to_0.9 differs from the snapshots")
    send_rate, feedback_rate = float(row["sender_send_rate"]), float(row["feedback_rate"])
    sends = send_rate * n_steps
    responses = feedback_rate * sends * cfg["n_receivers"]
    if not (0 <= sends <= n_steps and 0 <= responses <= sends * cfg["n_receivers"]):
        problems.append("sends above steps or responses above sends*N")
    if abs(sends - round(sends)) > 1e-6 or abs(responses - round(responses)) > 1e-6:
        problems.append("summary rates do not come from whole counts")
    if counts is not None and (round(sends), round(responses)) != (counts["sends"], counts["responses"]):
        problems.append(
            f"summary implies {round(sends)} sends, {round(responses)} responses; "
            f"the trace counted {counts['sends']}, {counts['responses']}"
        )
    return problems


def expected_profile(tensor, played) -> tuple[tuple[bool, ...], bool]:
    """The profile a session must play, and whether no pure equilibrium existed.

    Brute force over every feasible profile as a tuple (send, *feedback): a
    profile is a pure equilibrium when no single player strictly gains by
    switching its own action, where comments under a hold collapse onto the
    all-hold cell. Among equilibria the sender's payoff is maximised; with
    none, the sum of unilateral regrets is minimised. Ties go to the
    smallest tuple: hold before send, silent before comment.
    """
    n = len(played.feedback)
    make = type(played)
    hold = (False,) * (n + 1)
    feasible = [hold] + [(True, *fb) for fb in itertools.product((False, True), repeat=n)]
    table = {bits: tensor.payoff(make(bits[0], bits[1:])) for bits in feasible}

    def payoff(bits):
        return table[bits if bits[0] or not any(bits[1:]) else hold]

    def gains(bits):
        own = payoff(bits)
        return [
            payoff(bits[:i] + (not bits[i],) + bits[i + 1 :])[i] - own[i] for i in range(n + 1)
        ]

    equilibria = [bits for bits in feasible if max(gains(bits)) <= 0.0]
    if equilibria:
        best = max(payoff(bits)[0] for bits in equilibria)
        return min(bits for bits in equilibria if payoff(bits)[0] == best), False
    regret = {bits: sum(max(0.0, g) for g in gains(bits)) for bits in feasible}
    least = min(regret.values())
    return min(bits for bits in feasible if regret[bits] == least), True
