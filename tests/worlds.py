"""Shared test builders: the one tolerance, the one world builder, random sessions and hand-made tensors.

Every test builds its worlds here, so a `World` field added or renamed
changes one function. The module name does not start with `test_`, so
pytest collects nothing from it.
"""

import itertools

import numpy as np

from friendcast.game import PayoffTensor
from friendcast.knowledge import Ontology
from friendcast.transfer import TransferParams
from friendcast.world import World

# The absolute gap allowed between two computations of the same real number.
EXACT = 1e-12


def make_world(knowledge, belief, trust=0.5, popularity=0.0, personality=(0.2, 0.7, 0.1), willingness=1.0,
               ontology=None):
    """A world with one actor per row of `knowledge` and `belief`.

    A scalar `trust` is every off-diagonal entry, with 1 on the diagonal. A
    scalar `popularity` or `willingness`, or a single `personality` row, is
    shared by every actor. `ontology` is a correlation matrix, or None for
    the identity.
    """
    knowledge = np.array(knowledge, dtype=float)
    n, a_count = knowledge.shape
    if np.ndim(trust) == 0:
        trust = np.full((n, n), float(trust))
        np.fill_diagonal(trust, 1.0)
    return World(
        knowledge=knowledge,
        belief=np.array(belief, dtype=float),
        popularity=np.array(np.broadcast_to(popularity, n), dtype=float),
        trust=np.array(trust, dtype=float),
        personality=np.array(np.broadcast_to(personality, (n, 3)), dtype=float),
        willingness=np.array(np.broadcast_to(willingness, n), dtype=float),
        ontology=Ontology(np.eye(a_count) if ontology is None else ontology),
    )


def random_session(rng):
    """One random session on a world of 2-4 actors and 1-5 assertions, with every rate and mode drawn.

    Returns (world, params, sender, receivers, index, send, feedback).
    """
    n = int(rng.integers(2, 5))
    a_count = int(rng.integers(1, 6))
    if rng.integers(2):
        m = np.eye(a_count)
    else:
        m = rng.uniform(-1, 1, (a_count, a_count))
        np.fill_diagonal(m, 1.0)
    trust = rng.uniform(0, 1, (n, n))
    np.fill_diagonal(trust, 1.0)
    world = make_world(
        knowledge=rng.uniform(0, 1, (n, a_count)),
        belief=rng.uniform(-1, 1, (n, a_count)),
        popularity=rng.uniform(0, 1, n),
        trust=trust,
        personality=rng.dirichlet([1, 1, 1], n),
        willingness=rng.uniform(0, 1, n),
        ontology=m,
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


def tensor_from_cells(cells):
    """Build a tensor from {(send, feedback...): payoff vector}: the all-hold row, then each send in cell order.

    A send left out reads the all-hold vector, and hold cells with comments are ignored.
    """
    n_receivers = len(next(iter(cells))) - 1
    hold = cells[(False,) * (n_receivers + 1)]
    sends = itertools.product((True,), *[(False, True)] * n_receivers)
    return PayoffTensor(np.array([hold, *(cells.get(key, hold) for key in sends)], dtype=float))
