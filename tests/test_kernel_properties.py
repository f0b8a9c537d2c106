"""Property tests of the star-local session kernel at the edges of its inputs.

Hypothesis draws small worlds whose rates, trust entries, willingness and
ontology entries sit on their bounds (0 and 1, or -1 and 1) as often as
inside them, from two actors up to stars that hold the whole population.
Every canonical cell of the payoff tensor must match the loop-based
session oracle, and must equal, bit for bit, the session that
`execute_session` plays on a copy of the world; building the tensor must
leave the world alone, and a session must write trust only in the star's
columns. Each cell the kernel plays must come out bit for bit the same
whether it is played alone or along the cell axis with the others.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from friendcast.game import StrategyProfile, _layout, build_payoff_tensor
from friendcast.knowledge import Ontology
from friendcast.transfer import BELIEF_WEIGHT_MODES, TransferParams, execute_session, play_star
from friendcast.world import World

from session_oracle import oracle_session
from test_transfer_oracle import as_oracle_world

TOL = 1e-12
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def unit(lo=0.0):
    """A value in [lo, 1] that is often exactly on a bound."""
    return st.one_of(st.sampled_from([lo, 1.0]), st.floats(lo, 1.0))


@st.composite
def games(draw):
    n = draw(st.integers(2, 6))
    a_count = draw(st.integers(1, 4))
    n_receivers = draw(st.one_of(st.just(n - 1), st.integers(1, n - 1)))

    def matrix(rows, cols, values):
        return np.array(draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)

    trust = matrix(n, n, unit())
    np.fill_diagonal(trust, 1.0)
    if draw(st.booleans()):
        ontology = Ontology.identity(a_count)
    else:
        m = matrix(a_count, a_count, unit(-1.0))
        np.fill_diagonal(m, 1.0)
        ontology = Ontology(m)
    weights = matrix(n, 3, st.floats(0.0, 1.0)) + 1e-3
    world = World(
        knowledge=matrix(n, a_count, unit()),
        belief=matrix(n, a_count, unit(-1.0)),
        popularity=matrix(n, 1, unit())[:, 0],
        trust=trust,
        personality=weights / weights.sum(axis=1, keepdims=True),
        willingness=matrix(n, 1, unit())[:, 0],
        ontology=ontology,
    )
    params = TransferParams(
        remembrance=draw(unit()),
        trust_history_weight=draw(unit()),
        popularity_decay=draw(unit()),
        belief_weight_mode=draw(st.sampled_from(BELIEF_WEIGHT_MODES)),
    )
    ids = draw(st.permutations(range(n)))
    sender, receivers = ids[0], list(ids[1 : 1 + n_receivers])
    index = draw(st.integers(0, a_count - 1))
    return world, sender, receivers, index, params


def oracle_deltas(world, sender, receivers, index, profile, params):
    mirror = as_oracle_world(world)
    deltas = oracle_session(
        mirror, sender, receivers, index, profile.send, profile.feedback,
        dict(
            remembrance=params.remembrance,
            trust_history_weight=params.trust_history_weight,
            popularity_decay=params.popularity_decay,
            belief_weight_mode=params.belief_weight_mode,
        ),
    )
    return [deltas[p] for p in (sender, *receivers)], mirror


@PROPERTY
@given(games())
def test_every_cell_matches_the_oracle_and_the_played_session(game):
    world, sender, receivers, index, params = game
    before = world.copy()
    tensor = build_payoff_tensor(world, sender, receivers, index, params)
    for key in ("knowledge", "belief", "popularity", "trust"):
        assert np.array_equal(getattr(world, key), getattr(before, key))

    outside = np.setdiff1d(np.arange(world.n_actors), [sender, *receivers])
    for profile in StrategyProfile.enumerate_canonical(len(receivers)):
        cell = tensor.payoff(profile)
        expected, mirror = oracle_deltas(world, sender, receivers, index, profile, params)
        assert max(abs(c - e) for c, e in zip(cell, expected)) <= TOL

        played = world.copy()
        outcome = execute_session(played, sender, receivers, index, profile, params)
        assert tuple(outcome.utility_deltas[p] for p in (sender, *receivers)) == cell
        for key, mirrored in (("knowledge", "k"), ("belief", "b"), ("popularity", "pop"), ("trust", "trust")):
            assert np.abs(getattr(played, key) - np.array(mirror[mirrored])).max() <= TOL
        # A session writes trust only in the star's columns.
        assert np.array_equal(played.trust[:, outside], world.trust[:, outside])
        played.validate()


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@PROPERTY
@given(games(), st.sampled_from(BELIEF_WEIGHT_MODES), st.floats(0.0, 1.0, exclude_max=True))
def test_a_cell_plays_alone_as_it_plays_among_all_cells(game, mode, remembrance):
    world, sender, receivers, index, params = game
    params = dataclasses.replace(params, belief_weight_mode=mode, remembrance=remembrance)
    feasible = _layout(len(receivers))[0]
    star = play_star(world, sender, receivers, index, params, feasible)
    for row, cell in enumerate(feasible):
        alone = play_star(world, sender, receivers, index, params, [cell])
        for key in ("deltas", "knowledge", "belief", "popularity"):
            assert same_bits(getattr(alone, key)[0], getattr(star, key)[row])
        if cell:  # a send moves the trust vectors alike in every sending cell
            for key in ("trust_in_sender", "trust_in_receivers"):
                assert same_bits(getattr(alone, key), getattr(star, key))

    payoffs = build_payoff_tensor(world, sender, receivers, index, params).payoffs
    for hold in payoffs[: 1 << len(receivers)]:
        assert same_bits(hold, payoffs[0])
    assert same_bits(payoffs[0], star.deltas[0])
    assert same_bits(payoffs[1 << len(receivers) :], star.deltas[1:])
