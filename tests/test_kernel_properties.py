"""Property tests of the star-local session kernel at the edges of its inputs.

Hypothesis draws small worlds whose rates, trust entries, willingness and
ontology entries sit on their bounds (0 and 1, or -1 and 1) as often as
inside them, from two actors up to stars that hold the whole population.
Every canonical cell of the payoff tensor must match the loop-based
session oracle, and must equal, bit for bit, the session that
`execute_session` plays on a copy of the world; building the tensor must
leave the world alone, and a session must write trust only in the star's
columns. Each cell the kernel plays must come out bit for bit the same
whether it is played alone or along the cell axis with the others, each
star of a run as it plays alone once the stars before it are committed,
and committing a tensor's row must do to the world exactly what playing
that session does, leaving the kept reputations equal to the trust
matrix's. A hold commits the forgetting and idle-decay ticks alone, and
a played run's deltas are one read-only stack that its stars share.

Three metamorphic relations need no oracle: relabelling the actors or
the assertions leaves the tensor unchanged, and under "transferred"
weighting swapping two receivers swaps their bits and payoff columns.
"""

import dataclasses

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pytest

from friendcast.game import PayoffTensor, StrategyProfile, _layout, build_payoff_tensor, select_profile
from friendcast.knowledge import Ontology
from friendcast.transfer import BELIEF_WEIGHT_MODES, TransferParams, execute_session, play_star

from session_oracle import gap, replay
from worlds import EXACT, make_world

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
        ontology = None
    else:
        ontology = matrix(a_count, a_count, unit(-1.0))
        np.fill_diagonal(ontology, 1.0)
    weights = matrix(n, 3, st.floats(0.0, 1.0)) + 1e-3
    world = make_world(
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
        expected, mirror = replay(world, sender, receivers, index, profile.send, profile.feedback, params)
        assert max(abs(c - expected[p]) for c, p in zip(cell, (sender, *receivers))) <= EXACT

        played = world.copy()
        outcome = execute_session(played, sender, receivers, index, profile, params)
        assert tuple(outcome.utility_deltas[p] for p in (sender, *receivers)) == cell
        assert gap(played, mirror) <= EXACT
        # A session writes trust only in the star's columns.
        assert np.array_equal(played.trust[:, outside], world.trust[:, outside])
        played.validate()


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def state(star, row):
    """Cell `row` of a played star as whole arrays: its deltas, the sender's belief and the state it leaves.

    A star keeps the receivers' k and b rows only as a send leaves them, so
    they count only for a sending cell; a hold leaves them as the forgetting
    tick does, which `execute_session` applies to every actor.
    """
    cell = dict(deltas=star.deltas[row], sender_belief=star.sender_belief[row], popularity=star.popularity[row],
                reputation=star.reputation[row])
    if star.acts[row, 0]:
        cell.update(knowledge=star.knowledge, belief=star.belief)
    return cell


@PROPERTY
@given(games(), st.sampled_from(BELIEF_WEIGHT_MODES), st.floats(0.0, 1.0, exclude_max=True))
def test_a_cell_plays_alone_as_it_plays_among_all_cells(game, mode, remembrance):
    world, sender, receivers, index, params = game
    params = dataclasses.replace(params, belief_weight_mode=mode, remembrance=remembrance)
    feasible, _, _, acts = _layout(len(receivers))
    _, [star] = play_star(world, [(sender, receivers, index)], params, acts)
    for row, cell in enumerate(feasible):
        _, [alone] = play_star(world, [(sender, receivers, index)], params, acts[row : row + 1])
        among = state(star, row)
        for key, value in state(alone, 0).items():
            assert same_bits(value, among[key]), key
        if cell:  # a send moves the trust vectors alike in every sending cell
            for key in ("trust_in_sender", "trust_in_receivers"):
                assert same_bits(getattr(alone, key), getattr(star, key))

    # A tensor's rows are its star's cells.
    assert same_bits(build_payoff_tensor(world, sender, receivers, index, params).payoffs, star.deltas)


WORLD_KEYS = ("knowledge", "belief", "popularity", "trust", "reputation")


@PROPERTY
@given(
    games(),
    st.sampled_from(BELIEF_WEIGHT_MODES),
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.0, 1.0, exclude_min=True),
)
def test_committing_a_tensor_row_equals_playing_its_session(game, mode, remembrance, decay):
    world, sender, receivers, index, params = game
    params = dataclasses.replace(params, belief_weight_mode=mode, remembrance=remembrance, popularity_decay=decay)
    tensor = build_payoff_tensor(world, sender, receivers, index, params)
    chosen = select_profile(tensor)
    assert chosen.played == (tensor.star, _layout(len(receivers))[2][chosen.cell])
    hand_built = PayoffTensor(tensor.payoffs)
    assert select_profile(hand_built) == chosen and select_profile(hand_built).played is None
    # Every feasible row, carried as select_profile carries the chosen one.
    rows = [chosen] + [
        StrategyProfile(send, tuple(feedback), (tensor.star, row))
        for row, (send, *feedback) in enumerate(tensor.star.acts.tolist())
    ]
    for carried in rows:
        committed, played = world.copy(), world.copy()
        outcome = execute_session(committed, sender, receivers, index, carried, params)
        bare = StrategyProfile(carried.send, carried.feedback)
        assert bare.played is None and bare == carried
        expected = execute_session(played, sender, receivers, index, bare, params)
        assert outcome == expected
        for key in WORLD_KEYS:
            assert same_bits(getattr(committed, key), getattr(played, key))
        # The kept reputations are the trust matrix's column means, bit for bit.
        assert same_bits(committed.reputation, committed.reputations())


@st.composite
def runs(draw):
    """A world and a run of 1-4 disjoint stars with up to five receivers each, every rate and mode drawn."""
    n_receivers, n_stars = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    n = n_stars * (n_receivers + 1) + draw(st.integers(0, 2))
    a_count = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    trust = rng.choice([0.0, 1.0, rng.uniform()], (n, n))
    np.fill_diagonal(trust, 1.0)
    signed = draw(st.booleans())
    ontology = rng.choice([-1.0, -0.4, 0.0, 0.7, 1.0], (a_count, a_count)) if signed else np.eye(a_count)
    np.fill_diagonal(ontology, 1.0)
    world = make_world(
        knowledge=rng.choice([0.0, 1.0, rng.uniform()], (n, a_count)),
        belief=rng.uniform(-1, 1, (n, a_count)),
        popularity=rng.choice([0.0, 1.0, rng.uniform()], n),
        trust=trust,
        personality=rng.dirichlet([1, 1, 1], n),
        willingness=rng.choice([0.0, 1.0, rng.uniform()], n),
        ontology=ontology,
    )
    params = TransferParams(
        remembrance=draw(unit()),
        trust_history_weight=draw(unit()),
        popularity_decay=draw(unit()),
        belief_weight_mode=draw(st.sampled_from(BELIEF_WEIGHT_MODES)),
    )
    ids = rng.permutation(n)[: n_stars * (n_receivers + 1)].reshape(n_stars, n_receivers + 1).tolist()
    stars = [(star[0], star[1:], int(rng.integers(a_count))) for star in ids]
    commits = [int(rng.integers(1 + (1 << n_receivers))) for _ in stars]  # the feasible row each commits
    return world, stars, params, commits


@PROPERTY
@given(runs())
def test_a_run_of_stars_plays_as_its_stars_one_at_a_time(run):
    # Star j of a run, played in one call, is bit for bit star j played
    # alone once the j stars before it are committed, whichever rows they commit.
    world, stars, params, commits = run
    acts = _layout(len(stars[0][1]))[3]
    _, together = play_star(world, stars, params, acts)
    for (sender, receivers, index), star, row in zip(stars, together, commits):
        _, [alone] = play_star(world, [(sender, receivers, index)], params, acts)
        for key in ("deltas", "knowledge", "belief", "sender_belief", "popularity", "reputation", "trust_in_sender",
                    "trust_in_receivers"):
            assert same_bits(getattr(star, key), getattr(alone, key)), key
        assert star.session == alone.session
        send, *feedback = acts[row].tolist()
        execute_session(world, sender, receivers, index, StrategyProfile(send, tuple(feedback), (alone, row)), params)
    assert same_bits(world.reputation, world.reputations())


@PROPERTY
@given(runs())
def test_a_hold_commits_the_forgetting_tick_alone(run):
    # Each star of a run holds in turn. After j holds the world is the world
    # before the run ticked j times, one product per session, and it holds
    # each held cell's stored state for the cell's participants.
    world, stars, params, _ = run
    ticked = world.copy()
    _, together = play_star(world, stars, params, _layout(len(stars[0][1]))[3])
    for (sender, receivers, index), star in zip(stars, together):
        hold = StrategyProfile(False, (False,) * len(receivers), (star, 0))
        execute_session(world, sender, receivers, index, hold, params)
        ticked.knowledge *= np.sqrt(params.remembrance)  # a product by 1.0 keeps every bit
        ticked.belief *= np.sqrt(params.remembrance)
        ticked.popularity *= 1.0 - params.popularity_decay
        for key in WORLD_KEYS:
            assert same_bits(getattr(world, key), getattr(ticked, key)), key
        ids = [sender, *receivers]
        assert same_bits(world.belief[sender], star.sender_belief[0])
        assert same_bits(world.popularity[ids], star.popularity[0])
        assert same_bits(world.reputation[ids], star.reputation[0])


def test_a_played_star_holds_its_rows_once_per_send_flag_and_the_senders_belief_once_per_cell():
    # N=7 receivers and A=10 assertions, as trolls at N=7 play: 129 cells.
    rng = np.random.default_rng(5)
    world = make_world(rng.uniform(0, 1, (9, 10)), rng.uniform(-1, 1, (9, 10)), popularity=rng.uniform(0, 1, 9))
    for mode in BELIEF_WEIGHT_MODES:
        params = TransferParams(remembrance=0.9, belief_weight_mode=mode)
        _, [star] = play_star(world, [(0, list(range(1, 8)), 3)], params, _layout(7)[3])
        assert star.knowledge.shape == star.belief.shape == (7, 10)  # the receivers' rows after a send
        assert star.sender_belief.shape == (129, 10)
        assert star.deltas.shape == star.popularity.shape == star.reputation.shape == (129, 8)
        assert sum(v.nbytes for v in vars(star).values() if isinstance(v, np.ndarray)) < 48 * 1024


def test_a_played_run_returns_its_deltas_as_one_read_only_stack():
    # A tensor's payoffs are its star's deltas, so writing either would move the other.
    rng = np.random.default_rng(3)
    world = make_world(rng.uniform(0, 1, (7, 3)), rng.uniform(-1, 1, (7, 3)))
    deltas, played = play_star(world, [(0, [1, 2], 0), (3, [4, 5], 2)], TransferParams(), _layout(2)[3])
    assert deltas.shape == (2, 5, 3) and not deltas.flags.writeable
    for row, star in zip(deltas, played):
        assert same_bits(star.deltas, row) and np.shares_memory(star.deltas, deltas)
    tensor = build_payoff_tensor(world, 0, [1, 2], 0, TransferParams())
    before = tensor.payoffs.copy()
    for payoffs in (tensor.star.deltas, tensor.payoffs):
        with pytest.raises(ValueError, match="read-only"):
            payoffs[1, 0] = 5.0
    assert same_bits(tensor.payoffs, before)


def disagreeing_world():
    """Three reputation-driven actors; the sender disbelieves what both others believe."""
    return make_world([[1.0, 0.5], [0.5, 0.5], [0.5, 0.5]], [[1.0, 1.0], [-1.0, -1.0], [-1.0, -1.0]],
                      personality=(0.0, 1.0, 0.0))


def test_a_hold_chosen_beside_a_feasible_send_leaves_trust_alone():
    world, params = disagreeing_world(), TransferParams()
    tensor = build_payoff_tensor(world, 0, [1], 0, params)
    chosen = select_profile(tensor)
    assert chosen == StrategyProfile.all_hold(1) and chosen.played[1] == 0
    # The played star's trust vectors hold the send's update, which a hold must not commit.
    assert not np.array_equal(tensor.star.trust_in_sender, world.trust[[1], 0])
    before = world.copy()
    outcome = execute_session(world, 0, [1], 0, chosen, params)
    assert not outcome.sent and outcome.utility_deltas == {0: 0.0, 1: 0.0}
    for key in WORLD_KEYS:
        assert same_bits(getattr(world, key), getattr(before, key))


@pytest.mark.parametrize("receivers, index, params", [
    ([2], 0, TransferParams()),
    ([1, 2], 0, TransferParams()),
    ([1], 1, TransferParams()),
    ([1], 0, TransferParams(remembrance=0.5)),
])
def test_a_carried_row_committed_to_another_session_raises(receivers, index, params):
    world = disagreeing_world()
    chosen = select_profile(build_payoff_tensor(world, 0, [1], 0, TransferParams()))
    carried = StrategyProfile(chosen.send, (False,) * len(receivers), chosen.played)
    before = world.copy()
    with pytest.raises(ValueError, match="another session"):
        execute_session(world, 0, receivers, index, carried, params)
    for key in WORLD_KEYS:
        assert same_bits(getattr(world, key), getattr(before, key))


def test_a_carried_row_of_another_cell_raises():
    world = disagreeing_world()
    tensor = build_payoff_tensor(world, 0, [1], 0, TransferParams())
    # The right session, but row 0 is the all-hold cell, not a send with a comment.
    carried = StrategyProfile(True, (True,), (tensor.star, 0))
    before = world.copy()
    with pytest.raises(ValueError, match="another session or cell"):
        execute_session(world, 0, [1], 0, carried, TransferParams())
    for key in WORLD_KEYS:
        assert same_bits(getattr(world, key), getattr(before, key))


def test_one_flag_pattern_plays_each_decay_rate_as_the_oracle_does():
    # The idle-decay multipliers come from the flags and the rate: one
    # pattern played at two rates must follow each rate.
    rng = np.random.default_rng(8)
    world = make_world(rng.uniform(0, 1, (4, 3)), rng.uniform(-1, 1, (4, 3)), trust=0.6,
                       popularity=rng.uniform(0, 1, 4))
    for decay in (0.25, 0.5):
        params = TransferParams(popularity_decay=decay, belief_weight_mode="source")
        _, [star] = play_star(world, [(0, [1, 2], 1)], params, [(True, True, False)])
        expected, mirror = replay(world, 0, [1, 2], 1, True, (True, False), params)
        assert max(abs(d - expected[p]) for d, p in zip(star.deltas[0].tolist(), (0, 1, 2))) <= EXACT
        assert np.abs(star.popularity[0] - np.array(mirror["pop"][:3])).max() <= EXACT
    # Each row of a star whose sending rows are not consecutive plays as it does alone.
    rows = [(True, True, False), (False, False, False), (True, False, True)]
    _, [star] = play_star(world, [(0, [1, 2], 1)], params, rows)
    for row, flags in enumerate(rows):
        _, [alone] = play_star(world, [(0, [1, 2], 1)], params, [flags])
        among = state(star, row)
        for key, value in state(alone, 0).items():
            assert same_bits(value, among[key]), key


@PROPERTY
@given(games(), st.data())
def test_relabelling_the_actors_keeps_the_tensor(game, data):
    world, sender, receivers, index, params = game
    label = np.array(data.draw(st.permutations(range(world.n_actors))))  # actor i becomes label[i]
    order = np.argsort(label)
    relabelled = make_world(
        world.knowledge[order],
        world.belief[order],
        trust=world.trust[np.ix_(order, order)],
        popularity=world.popularity[order],
        personality=world.personality[order],
        willingness=world.willingness[order],
        ontology=world.ontology.m,
    )
    tensor = build_payoff_tensor(world, sender, receivers, index, params)
    moved = build_payoff_tensor(relabelled, label[sender], label[receivers], index, params)
    assert np.abs(moved.payoffs - tensor.payoffs).max() <= EXACT


@PROPERTY
@given(games(), st.data())
def test_relabelling_the_assertions_keeps_the_tensor(game, data):
    world, sender, receivers, index, params = game
    label = np.array(data.draw(st.permutations(range(world.n_assertions))))  # assertion a becomes label[a]
    order = np.argsort(label)
    relabelled = dataclasses.replace(
        world,
        knowledge=world.knowledge[:, order],
        belief=world.belief[:, order],
        ontology=Ontology(world.ontology.m[np.ix_(order, order)]),
    )
    tensor = build_payoff_tensor(world, sender, receivers, index, params)
    moved = build_payoff_tensor(relabelled, sender, receivers, int(label[index]), params)
    assert np.abs(moved.payoffs - tensor.payoffs).max() <= EXACT


@PROPERTY
@given(games(), st.data())
def test_swapping_two_receivers_swaps_their_bits_and_columns(game, data):
    world, sender, receivers, index, params = game
    n = len(receivers)
    assume(n >= 2)
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    params = dataclasses.replace(params, belief_weight_mode="transferred")
    swapped = list(receivers)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    # Players i+1 and j+1 own bits n-1-i and n-1-j of a cell.
    cells = np.arange(2 << n)
    bit_i, bit_j = cells >> (n - 1 - i) & 1, cells >> (n - 1 - j) & 1
    moved_cells = cells ^ ((bit_i ^ bit_j) << (n - 1 - i)) ^ ((bit_i ^ bit_j) << (n - 1 - j))
    players = np.arange(n + 1)
    players[[i + 1, j + 1]] = players[[j + 1, i + 1]]
    tensor = build_payoff_tensor(world, sender, receivers, index, params)
    moved = build_payoff_tensor(world, sender, swapped, index, params)
    rows = _layout(n)[2]  # each cell's payoff row
    assert np.array_equal(moved.payoffs[rows[moved_cells]][:, players], tensor.payoffs[rows])
