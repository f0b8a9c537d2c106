"""Session protocol vs the independent straight-line oracle on micro-worlds."""

import numpy as np

from friendcast.game import StrategyProfile
from friendcast.knowledge import Ontology
from friendcast.transfer import TransferParams, execute_session
from friendcast.world import World

from session_oracle import gap, replay

TOL = 1e-12


def random_instance(rng):
    n = int(rng.integers(2, 5))
    a_count = int(rng.integers(1, 6))
    if rng.integers(2):
        m = np.eye(a_count)
    else:
        m = rng.uniform(-1, 1, (a_count, a_count))
        np.fill_diagonal(m, 1.0)
    trust = rng.uniform(0, 1, (n, n))
    np.fill_diagonal(trust, 1.0)
    world = World(
        knowledge=rng.uniform(0, 1, (n, a_count)),
        belief=rng.uniform(-1, 1, (n, a_count)),
        popularity=rng.uniform(0, 1, n),
        trust=trust,
        personality=rng.dirichlet([1, 1, 1], n),
        willingness=rng.uniform(0, 1, n),
        ontology=Ontology(m),
    )
    params = TransferParams(
        remembrance=rng.uniform(0, 1),
        trust_history_weight=rng.uniform(0, 1),
        popularity_decay=rng.uniform(0, 1),
        belief_weight_mode=("transferred", "source")[int(rng.integers(2))],
    )
    sender = int(rng.integers(n))
    others = [x for x in range(n) if x != sender]
    n_recv = int(rng.integers(1, len(others) + 1))
    receivers = [int(r) for r in rng.choice(others, size=n_recv, replace=False)]
    index = int(rng.integers(a_count))
    send = bool(rng.integers(2))
    feedback = tuple(bool(rng.integers(2)) and send for _ in receivers)
    return world, params, sender, receivers, index, send, feedback


def test_session_matches_straight_line_oracle_1000_microworlds():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        world, params, sender, receivers, index, send, feedback = random_instance(rng)
        oracle_deltas, mirror = replay(world, sender, receivers, index, send, feedback, params)
        outcome = execute_session(
            world, sender, receivers, index, StrategyProfile(send, feedback), params,
        )

        assert gap(world, mirror) <= TOL
        for actor, delta in outcome.utility_deltas.items():
            assert abs(delta - oracle_deltas[actor]) <= TOL
