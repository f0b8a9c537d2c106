"""Acceptance suite: one test per criterion, each printing a summary line.

The population runs reuse one shared batch of full-length scenario
simulations (criteria 4-6) and one parameter sweep (criterion 7), executed
in parallel worker processes.
"""

import concurrent.futures
import dataclasses
import itertools
import time

import numpy as np
import pytest

from friendcast.cli import main
from friendcast.game import StrategyProfile, build_payoff_tensor, find_pure_nash, select_profile
from friendcast.knowledge import combined_belief, combined_knowledge
from friendcast.scenarios import scenario_config
from friendcast.harness import simulate
from friendcast.transfer import execute_session

from conftest import record_criterion
from session_oracle import gap, oracle_game, replay
from worlds import EXACT, random_session, tensor_from_cells

SEEDS = list(range(1, 11))


def _verdict(number, name, passed, detail):
    line = f"criterion {number} ({name}): {'PASS' if passed else 'FAIL'} - {detail}"
    record_criterion(line)
    return line


# --- criterion 1: algebra axioms -------------------------------------------


def test_criterion_1_algebra_axioms():
    started = time.time()
    rng = np.random.default_rng(101)
    n = 120_000

    kx = rng.uniform(0, 1, n)
    bx = rng.uniform(-1, 1, n)
    ky = rng.uniform(0, 1, n)
    by = rng.uniform(-1, 1, n)

    k_out = combined_knowledge(kx, ky)
    b_out = combined_belief(bx, by, ky)
    checks = {
        "closure_k": bool(k_out.min() >= 0.0 and k_out.max() <= 1.0 + EXACT),
        "closure_b": bool(b_out.min() >= -1.0 - EXACT and b_out.max() <= 1.0 + EXACT),
        # axiom: an instance with no knowledge changes nothing, exactly
        "zero_identity": bool(
            np.array_equal(combined_knowledge(kx, np.zeros(n)), kx)
            and np.array_equal(combined_belief(bx, by, np.zeros(n)), bx)
        ),
        # axiom: an instance with full knowledge absorbs
        "full_absorbs": bool(
            np.max(np.abs(combined_knowledge(kx, np.ones(n)) - 1.0)) <= EXACT
        ),
        # axiom: combining never exceeds full knowledge
        "bounded": bool(np.all(k_out <= 1.0 + EXACT)),
        "bracket": bool(np.all(k_out >= np.maximum(kx, ky) - EXACT)),
    }

    # forgetting closure and exact value scaling
    zeta = rng.uniform(0, 1, n)
    root = np.sqrt(zeta)
    checks["forget_closure"] = bool(
        np.all(root * kx <= 1.0) and np.all(np.abs(root * bx) <= 1.0)
    )
    checks["forget_scaling"] = bool(
        np.max(np.abs((root * kx) * (root * bx) - zeta * kx * bx)) <= EXACT
    )

    # transfer-delta closure: perceived knowledge in [0, 1], belief in [-1, 1]
    trust = rng.uniform(0, 1, n)
    willing = rng.uniform(0, 1, n)
    m_entry = rng.uniform(-1, 1, n)
    guess = np.mean(rng.uniform(-1, 1, (n, 4)) * rng.uniform(-1, 1, (n, 4)), axis=1)
    dk = willing * kx
    db = m_entry * (trust * bx + (1.0 - trust) * guess)
    checks["delta_k_closure"] = bool(dk.min() >= 0.0 and dk.max() <= 1.0)
    checks["delta_b_closure"] = bool(np.max(np.abs(db)) <= 1.0 + EXACT)
    absorbed_b = combined_belief(bx, db, dk)
    checks["absorb_closure"] = bool(np.max(np.abs(absorbed_b)) <= 1.0 + EXACT)

    elapsed = time.time() - started
    passed = all(checks.values()) and elapsed < 5.0
    detail = f"{n} samples, {elapsed:.2f}s, checks={checks}"
    line = _verdict(1, "algebra axioms", passed, detail)
    assert passed, line


# --- criterion 2: transfer oracle equivalence -------------------------------


def test_criterion_2_transfer_oracle_equivalence():
    rng = np.random.default_rng(202)
    worst = 0.0
    trials = 1000
    for _ in range(trials):
        world, params, sender, receivers, index, send, feedback = random_session(rng)
        oracle_deltas, mirror = replay(world, sender, receivers, index, send, feedback, params)
        outcome = execute_session(
            world, sender, receivers, index, StrategyProfile(send, feedback), params
        )
        worst = max(
            worst,
            gap(world, mirror),
            max(
                abs(outcome.utility_deltas[a] - oracle_deltas[a])
                for a in outcome.utility_deltas
            ),
        )
    passed = worst <= EXACT
    line = _verdict(2, "transfer oracle equivalence", passed,
                    f"{trials} micro-worlds, worst component gap {worst:.2e}")
    assert passed, line


# --- criterion 3: game oracle equivalence and sender purity ------------------


def test_criterion_3_game_oracle_and_sender_purity():
    rng = np.random.default_rng(303)
    mismatches = 0
    for _ in range(1000):
        n_receivers = int(rng.integers(1, 4))
        cells = {}
        for key in itertools.product((False, True), repeat=n_receivers + 1):
            cells[key] = tuple(rng.integers(-3, 4, size=n_receivers + 1).astype(float))
        found = [(e.send, *e.feedback) for e in find_pure_nash(tensor_from_cells(cells))]
        if found != oracle_game(cells)[0]:
            mismatches += 1

    # documented tie-break order: maximal sender payoff, then hold/silent first
    tie_tensor = tensor_from_cells({
        (False, False): (0.0, 0.0),
        (True, False): (1.0, 0.5),
        (True, True): (1.0, 0.5),
    })
    tiebreak_ok = select_profile(tie_tensor) == StrategyProfile(True, (False,))

    # Sender purity holds under "transferred" weighting, where a comment
    # cannot move the sender's utility, so the sender's choice does not
    # depend on the receivers'. The same games under "source" weighting,
    # which both presets run, are counted and reported, not checked.
    counts = {"transferred": [0, 0], "source": [0, 0]}  # games with equilibria, and with mixed sender actions
    for _ in range(1000):
        world, params, sender, receivers, index, _, _ = random_session(rng)
        for mode, count in counts.items():
            played = dataclasses.replace(params, belief_weight_mode=mode)
            equilibria = find_pure_nash(build_payoff_tensor(world, sender, receivers, index, played))
            if equilibria:
                count[0] += 1
                count[1] += len({e.send for e in equilibria}) > 1
    (with_equilibria, purity_violations), (source_with_equilibria, source_mixed) = counts.values()

    purity_rate = 100.0 * (1.0 - purity_violations / max(1, with_equilibria))
    passed = mismatches == 0 and tiebreak_ok and purity_violations == 0
    line = _verdict(
        3, "game oracle + sender purity", passed,
        f"1000 tensors ({mismatches} oracle mismatches), tie-break ok={tiebreak_ok}, "
        f"sender purity {purity_rate:.1f}% over {with_equilibria} games with equilibria "
        f"(\"transferred\"; under \"source\" {source_mixed}/{source_with_equilibria} mixed, not checked)",
    )
    assert passed, line


# --- criteria 4-6: scenario reproductions -----------------------------------


def _run_scenario(task):
    name, seed = task
    cfg = scenario_config(name, rng_seed=seed)
    started = time.time()
    result = simulate(cfg)
    elapsed = time.time() - started
    snaps = result.snapshots
    return {
        "name": name,
        "seed": seed,
        "elapsed": elapsed,
        "mean_abs": [s.mean_abs_value for s in snaps],
        "std": [s.std_value for s in snaps],
        "final_actor_values": snaps[-1].actor_mean_value,
        "steps_to_09": result.steps_to_threshold(0.9),
    }


@pytest.fixture(scope="module")
def scenario_runs():
    tasks = [(name, seed) for name in ("experts", "trolls") for seed in SEEDS]
    with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_run_scenario, tasks))
    return {(r["name"], r["seed"]): r for r in results}


def test_criterion_4_experts_reproduction(scenario_runs):
    finals, drops, stragglers, runtimes = [], [], [], []
    for seed in SEEDS:
        r = scenario_runs[("experts", seed)]
        mean_abs = np.array(r["mean_abs"])
        finals.append(mean_abs[-1])
        drops.append(float(np.min(np.diff(mean_abs))))
        stragglers.append(int(np.sum(r["final_actor_values"] < 0.99)))
        runtimes.append(r["elapsed"])
    converged = all(f >= 0.85 for f in finals)
    monotone = all(d >= -0.02 for d in drops)
    not_fully = sum(1 for s in stragglers if s >= 1) > len(SEEDS) / 2
    passed = converged and monotone and not_fully
    line = _verdict(
        4, "experts reproduction", passed,
        f"final mean|a| min {min(finals):.3f} (>=0.85), worst snapshot drop "
        f"{min(drops):.4f} (>=-0.02), seeds with a dissenting actor "
        f"{sum(1 for s in stragglers if s >= 1)}/{len(SEEDS)}, "
        f"runtime/run {min(runtimes):.0f}-{max(runtimes):.0f}s (target <60)",
    )
    assert passed, line


def test_criterion_5_trolls_converge_no_slower(scenario_runs):
    wins = 0
    pairs = []
    for seed in SEEDS:
        trolls = scenario_runs[("trolls", seed)]["steps_to_09"]
        experts = scenario_runs[("experts", seed)]["steps_to_09"]
        t = float("inf") if trolls is None else trolls
        e = float("inf") if experts is None else experts
        if t <= e and t != float("inf"):
            wins += 1
        pairs.append((trolls, experts))
    passed = wins >= 8
    line = _verdict(
        5, "trolls vs experts ordering", passed,
        f"trolls<=experts in {wins}/{len(SEEDS)} seed pairs (need >=8); "
        f"(trolls, experts) steps: {pairs}",
    )
    assert passed, line


def test_criterion_6_trolls_intermediate_homogenization(scenario_runs):
    qualifying = 0
    ratios = []
    for seed in SEEDS:
        r = scenario_runs[("trolls", seed)]
        std0 = r["std"][0]
        ratio = min(
            (s / std0 for s, m in zip(r["std"], r["mean_abs"]) if m < 0.8),
            default=float("inf"),
        )
        ratios.append(round(ratio, 3))
        if ratio < 0.5:
            qualifying += 1
    passed = qualifying >= 7
    line = _verdict(
        6, "trolls intermediate homogenization", passed,
        f"{qualifying}/{len(SEEDS)} seeds halve std(a-bar) while mean|a|<0.8 "
        f"(need >=7); best ratios per seed {ratios}",
    )
    assert passed, line


# --- criterion 7: receiver-count scaling -------------------------------------


def test_criterion_7_receiver_count_scaling(tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--scenario", "trolls", "--vary", "n_receivers",
        "--values", "1,5", "--seeds", "1,2,3",
        "--steps", "15000", "--snapshot-every", "250",
        "--out", str(out), "--jobs", "2",
    ])
    assert code == 0
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    reached = {}
    for row in rows:
        fields = row.split(",")
        n_receivers = int(fields[0].split("n_receivers=")[1].rstrip("]"))
        reached.setdefault(n_receivers, []).append(
            float("inf") if fields[4] == "" else int(fields[4])
        )
    median_1 = float(np.median(reached[1]))
    median_5 = float(np.median(reached[5]))
    passed = median_5 < median_1
    line = _verdict(
        7, "receiver-count scaling", passed,
        f"median steps_to_0.9: N=5 {median_5:.0f} vs N=1 {median_1:.0f} "
        f"(strictly less required); raw {reached}",
    )
    assert passed, line


# --- criterion 8: determinism -------------------------------------------------


def test_criterion_8_byte_identical_outputs(tmp_path):
    args = ["run", "--scenario", "experts", "--seed", "12345",
            "--steps", "3000", "--snapshot-every", "300"]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    snaps_equal = (tmp_path / "a" / "snapshots.csv").read_bytes() == (
        tmp_path / "b" / "snapshots.csv"
    ).read_bytes()
    summary_equal = (tmp_path / "a" / "summary.csv").read_bytes() == (
        tmp_path / "b" / "summary.csv"
    ).read_bytes()
    passed = snaps_equal and summary_equal
    line = _verdict(
        8, "determinism", passed,
        f"snapshots.csv identical={snaps_equal}, summary.csv identical={summary_equal}",
    )
    assert passed, line
