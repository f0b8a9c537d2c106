"""Whole runs played by the loop oracle alone against the library's run, step for step.

The oracle shares no code with the library: it draws each session from
the generator, plays every feasible cell on a copy of its mirror, selects
by brute force and plays the choice. The library plays stars ahead in
runs, selects a run's rows in one pass and commits one row per step. The
profile must agree at every step and the final worlds within `EXACT`.
"""

import dataclasses
import time

import numpy as np
import pytest

from friendcast.harness import ScenarioConfig, init_population, sessions
from friendcast.scenarios import scenario_config
from friendcast.transfer import execute_session

from session_oracle import as_oracle_world, gap, oracle_run
from worlds import EXACT

SIGNED = ((1.0, 0.5, -0.3, 0.0), (0.5, 1.0, 0.0, -0.6), (-0.3, 0.0, 1.0, 0.2), (0.0, -0.6, 0.2, 1.0))
IGNORANT = ((0.25, 0.0), (0.75, 0.9))  # a quarter of the actors start out knowing nothing


@pytest.mark.parametrize("cfg", [
    pytest.param(scenario_config("trolls", n_actors=30, n_assertions=4, n_receivers=3, ontology=SIGNED,
                                 remembrance=0.99, n_steps=300, rng_seed=1), id="trolls-N3-signed-0.99"),
    pytest.param(scenario_config("experts", n_actors=30, knowledge_tiers=IGNORANT, remembrance=1e-300, n_steps=300,
                                 rng_seed=2), id="experts-1e-300-ignorant"),
    pytest.param(ScenarioConfig(n_actors=30, n_receivers=2, remembrance=0.99, popularity_decay=0.05,
                                knowledge_tiers=IGNORANT, n_steps=400, rng_seed=3), id="transferred-N2-decay"),
    pytest.param(scenario_config("experts", n_actors=30, n_steps=500, rng_seed=4), id="experts-N1"),
])
def test_a_run_plays_as_the_oracle_plays_it(cfg):
    rng = np.random.default_rng(cfg.rng_seed)
    world = init_population(cfg, rng)
    params = cfg.transfer_params()
    played = []
    for sender, receivers, index, profile in sessions(world, cfg, rng):
        played.append((sender, receivers, index, (profile.send, *profile.feedback)))
        execute_session(world, sender, receivers, index, profile, params)

    rng = np.random.default_rng(cfg.rng_seed)
    mirror = as_oracle_world(init_population(cfg, rng))
    started = time.perf_counter()
    expected = oracle_run(mirror, rng, cfg.n_receivers, dataclasses.asdict(params), cfg.n_steps)
    elapsed = time.perf_counter() - started
    worst = gap(world, mirror)
    print(f"oracle run {cfg.n_steps} steps in {elapsed:.1f} s: gap {worst:.3g}, "
          f"{sum(p[3][0] for p in played)} sends, {sum(e[2] is None for e in expected)} forced holds, "
          f"{sum(e[4] > 1 for e in expected)} games decided by the sender's payoff")
    for t, (session, oracle) in enumerate(zip(played, expected), 1):
        assert session == oracle[:4], f"step {t}"
    assert len(played) == cfg.n_steps
    assert worst <= EXACT
