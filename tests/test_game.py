"""Payoff tensor, equilibrium enumeration, and profile selection."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from friendcast.game import (
    PayoffTensor,
    StrategyProfile,
    _layout,
    build_payoff_tensor,
    find_pure_nash,
    select_profile,
    select_rows,
)
from friendcast.transfer import TransferParams, execute_session

from session_oracle import oracle_game
from worlds import make_world, random_session, tensor_from_cells


def test_all_zero_payoffs_make_every_profile_an_equilibrium():
    cells = {
        key: (0.0, 0.0)
        for key in itertools.product((False, True), repeat=2)
    }
    tensor = tensor_from_cells(cells)
    found = find_pure_nash(tensor)
    assert found == list(StrategyProfile.enumerate_canonical(1))


def test_two_by_two_worked_example():
    cells = {
        (False, False): (0.0, 0.0),
        (True, False): (1.0, 0.0),
        (True, True): (1.0, 1.0),
    }
    tensor = tensor_from_cells(cells)
    found = find_pure_nash(tensor)
    # (send, silent) is not stable: the receiver deviates 0 -> 1
    assert found == [StrategyProfile(True, (True,))]
    assert select_profile(tensor) == StrategyProfile(True, (True,))


def test_sender_rejects_costly_send_leaving_only_hold():
    cells = {
        (False, False): (0.0, 0.0),
        (True, False): (-1.0, 0.0),
        (True, True): (-1.0, 1.0),
    }
    tensor = tensor_from_cells(cells)
    # the receiver-stable send profile exists, but the sender walks away
    assert find_pure_nash(tensor) == [StrategyProfile.all_hold(1)]


def test_tensor_combinatorics_single_receiver():
    cells = {
        (False, False): (0.0, 0.0),
        (True, False): (0.5, 0.1),
        (True, True): (0.5, 0.2),
    }
    tensor = tensor_from_cells(cells)
    assert len(tensor.payoffs) == 3  # the feasible cells: hold, send, send with a comment
    assert tensor.payoff(StrategyProfile(False, (True,))) == tensor.payoff(
        StrategyProfile(False, (False,))
    ) == (0.0, 0.0)


def test_a_hand_built_tensor_needs_one_row_per_feasible_cell():
    for n_receivers in (1, 3):
        assert PayoffTensor(np.zeros(((1 << n_receivers) + 1, n_receivers + 1))).n_receivers == n_receivers
        # A row for every cell, and one row short of the feasible cells.
        for rows in (2 << n_receivers, 1 << n_receivers):
            with pytest.raises(ValueError, match=r"not \(2\^N \+ 1, N \+ 1\)"):
                PayoffTensor(np.zeros((rows, n_receivers + 1)))


def test_selection_prefers_silent_among_indifferent_equilibria():
    cells = {
        (False, False): (0.0, 0.0),
        (True, False): (1.0, 0.5),
        (True, True): (1.0, 0.5),
    }
    tensor = tensor_from_cells(cells)
    found = find_pure_nash(tensor)
    assert StrategyProfile(True, (False,)) in found
    assert StrategyProfile(True, (True,)) in found
    assert select_profile(tensor) == StrategyProfile(True, (False,))


def test_selection_maximizes_sender_payoff_first():
    # two equilibria with different sender payoffs: hold (0.5) and
    # send+feedback (0.8); the richer one wins even though hold sorts first
    cells = {
        (False, False): (0.5, 0.0),
        (True, False): (0.3, 1.0),
        (True, True): (0.8, 2.0),
    }
    tensor = tensor_from_cells(cells)
    found = find_pure_nash(tensor)
    assert StrategyProfile.all_hold(1) in found
    assert StrategyProfile(True, (True,)) in found
    assert select_profile(tensor) == StrategyProfile(True, (True,))


def test_no_pure_equilibrium_falls_back_to_least_total_regret():
    # two receivers play matching pennies once the assertion is out; the
    # sender strictly prefers sending, so no profile is stable
    cells = {
        (False, False, False): (0.0, 0.0, 0.0),
        (True, False, False): (1.0, 1.0, -1.0),
        (True, False, True): (1.0, -1.0, 1.0),
        (True, True, False): (1.0, -1.0, 1.0),
        (True, True, True): (1.0, 1.0, -1.0),
    }
    tensor = tensor_from_cells(cells)
    assert find_pure_nash(tensor) == []
    # all-hold: only the sender regrets (1 - 0); every send profile leaves
    # one receiver regretting 2
    assert select_profile(tensor) == StrategyProfile.all_hold(2)


def test_selection_never_returns_infeasible_profiles():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n_receivers = int(rng.integers(1, 4))
        cells = {}
        for key in itertools.product((False, True), repeat=n_receivers + 1):
            cells[key] = tuple(rng.normal(size=n_receivers + 1))
        tensor = tensor_from_cells(cells)
        chosen = select_profile(tensor)
        assert chosen.send or not any(chosen.feedback)


def test_scale_covariance_of_equilibrium_set():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n_receivers = int(rng.integers(1, 3))
        cells = {}
        for key in itertools.product((False, True), repeat=n_receivers + 1):
            cells[key] = tuple(rng.normal(size=n_receivers + 1))
        tensor = tensor_from_cells(cells)
        scale = float(rng.uniform(0.1, 10.0))
        scaled = PayoffTensor(scale * tensor.payoffs)
        assert find_pure_nash(tensor) == find_pure_nash(scaled)


def test_cell_encoding_round_trips_in_tuple_order():
    for n_receivers in range(1, 5):
        profiles = [
            StrategyProfile(bits[0], bits[1:])
            for bits in itertools.product((False, True), repeat=n_receivers + 1)
        ]
        # itertools.product yields (send, *feedback) tuples in lexicographic order
        assert [p.cell for p in profiles] == list(range(2 << n_receivers))
        for profile in profiles:
            assert StrategyProfile.from_cell(profile.cell, n_receivers) == profile
    # The flags the kernel plays are the feasible cells' (send, *feedback).
    for n_receivers in range(1, 8):
        feasible, _, _, acts = _layout(n_receivers)
        for cell, flags in zip(feasible.tolist(), acts.tolist()):
            profile = StrategyProfile.from_cell(cell, n_receivers)
            assert tuple(flags) == (profile.send, *profile.feedback)


def test_payoff_rejects_a_profile_of_another_size():
    cells = {key: (0.0, 1.0, 2.0) for key in itertools.product((False, True), repeat=3)}
    tensor = tensor_from_cells(cells)
    # (True, True) would read row 3, a hold row of this two-receiver tensor
    for profile in (StrategyProfile(True, (True,)), StrategyProfile(True, (True,) * 3)):
        with pytest.raises(ValueError):
            tensor.payoff(profile)


def test_select_profile_matches_brute_force_selection():
    # small integer payoffs give frequent ties and games with no pure equilibrium
    rng = np.random.default_rng(27)
    fallbacks = 0
    for _ in range(1000):
        n_receivers = int(rng.integers(1, 5))
        cells = {
            key: tuple(rng.integers(-2, 3, size=n_receivers + 1).astype(float))
            for key in itertools.product((False, True), repeat=n_receivers + 1)
        }
        tensor = tensor_from_cells(cells)
        equilibria, expected, fallback = oracle_game(cells)
        assert [(e.send, *e.feedback) for e in find_pure_nash(tensor)] == equilibria
        chosen = select_profile(tensor)
        assert (chosen.send, *chosen.feedback) == expected
        fallbacks += fallback
    assert 0 < fallbacks < 1000


def no_equilibrium(n_receivers):
    """A game with no pure equilibrium: the sender gains by sending, the first receiver then by commenting,
    and the sender, once commented on, by holding.

    Every other receiver is indifferent, so it never gains by switching.
    """
    payoffs = np.zeros(((1 << n_receivers) + 1, n_receivers + 1))
    payoffs[1:, 0] = np.where(np.arange(1 << n_receivers) >> (n_receivers - 1), -1.0, 1.0)
    payoffs[1:, 1] = np.arange(1 << n_receivers) >> (n_receivers - 1)
    return payoffs


@st.composite
def stacks(draw):
    """A stack of small integer games with a game of no equilibrium among them, and its position."""
    n_receivers = draw(st.integers(1, 4))
    size = ((1 << n_receivers) + 1) * (n_receivers + 1)
    games = draw(st.lists(st.lists(st.integers(-2, 2), min_size=size, max_size=size), min_size=2, max_size=7))
    games = np.array(games, dtype=float).reshape(len(games), -1, n_receivers + 1)
    at = draw(st.integers(1, len(games) - 1))
    return np.insert(games, at, no_equilibrium(n_receivers), axis=0), at


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(stacks())
def test_the_stacked_pass_selects_each_games_row_as_the_oracle_does(drawn):
    stack, at = drawn
    n_receivers = stack.shape[2] - 1
    sends = list(itertools.product((True,), *[(False, True)] * n_receivers))
    keys = [(False,) * (n_receivers + 1), *sends]
    chosen = []
    for payoffs in stack:
        _, expected, fallback = oracle_game(dict(zip(keys, map(tuple, payoffs.tolist()))))
        chosen.append((keys.index(expected), fallback))
    # The fallback game sits between games that have an equilibrium.
    assume(not all(f for _, f in chosen[:at]) and not all(f for _, f in chosen[at + 1:]))
    assert chosen[at][1]
    rows = select_rows(stack)
    assert rows.tolist() == [row for row, _ in chosen]
    # A tensor built alone gets the same row from the same pass, on a stack of one.
    for payoffs, row in zip(stack, rows.tolist()):
        tensor = PayoffTensor(payoffs)
        assert tensor.row == row
        profile = select_profile(tensor)
        assert (profile.send, *profile.feedback) == keys[row]


def test_an_equilibrium_that_pays_the_sender_minus_infinity_is_still_chosen():
    # Only (send, comment) is stable, and it pays the sender -inf, as low as
    # an unstable row can read in the stacked pass.
    tensor = PayoffTensor([[-np.inf, 0.0], [0.0, 0.0], [-np.inf, 1.0]])
    assert find_pure_nash(tensor) == [StrategyProfile(True, (True,))]
    assert select_profile(tensor) == StrategyProfile(True, (True,))


def test_a_tensor_is_built_from_a_nested_list_and_its_payoffs_are_then_read_only():
    tensor = PayoffTensor([[0, 0], [1, 0], [1, 1]])
    assert tensor.payoffs.dtype == float
    assert select_profile(tensor) == StrategyProfile(True, (True,))
    with pytest.raises(ValueError, match="read-only"):
        tensor.payoffs[2, 1] = -1.0
    # A ragged or non-numeric list is no tensor.
    for payoffs in ([[0, 0], [1], [1, 1]], [["a", 0], [1, 0], [1, 1]]):
        with pytest.raises(ValueError):
            PayoffTensor(payoffs)
    # The caller's own array stays writable.
    own = np.zeros((3, 2))
    PayoffTensor(own)
    own[0, 0] = 1.0


# --- tensors built from worlds ---------------------------------------------


def test_tensor_matches_per_profile_sessions_exactly():
    rng = np.random.default_rng(24)
    for _ in range(50):
        world, params, sender, receivers, index, _, _ = random_session(rng)
        tensor = build_payoff_tensor(world, sender, receivers, index, params)
        for profile in StrategyProfile.enumerate_canonical(len(receivers)):
            scratch = world.copy()
            outcome = execute_session(scratch, sender, receivers, index, profile, params)
            naive = tuple(outcome.utility_deltas[p] for p in (sender, *receivers))
            assert tensor.payoff(profile) == naive


def test_tensor_construction_is_deterministic_and_leaves_world_alone():
    rng = np.random.default_rng(25)
    world, params, sender, receivers, index, _, _ = random_session(rng)
    snapshot = world.copy()
    t1 = build_payoff_tensor(world, sender, receivers, index, params)
    t2 = build_payoff_tensor(world, sender, receivers, index, params)
    assert np.array_equal(t1.payoffs, t2.payoffs)
    assert np.array_equal(world.knowledge, snapshot.knowledge)
    assert np.array_equal(world.belief, snapshot.belief)
    assert np.array_equal(world.trust, snapshot.trust)
    assert np.array_equal(world.popularity, snapshot.popularity)
    assert select_profile(t1) == select_profile(t2)


@pytest.mark.parametrize("sender, receivers, index, problem", [
    (0, [1, 1], 0, "a star needs"),  # one receiver twice
    (0, [], 0, "a star needs"),
    (-1, [3], 0, "a star needs"),  # would play actor 3 against itself
    (4, [1], 0, "a star needs"),
    (0, [1], None, "assertion index"),
    (0, [1], -1, "assertion index"),  # would play the last assertion
    (0, [1], 2, "assertion index"),
])
def test_an_invalid_star_is_rejected_before_it_is_played(sender, receivers, index, problem):
    rng = np.random.default_rng(26)
    world = make_world(rng.uniform(0, 1, (4, 2)), rng.uniform(-1, 1, (4, 2)), popularity=rng.uniform(0, 1, 4))
    before = world.copy()
    with pytest.raises(ValueError, match=problem):
        build_payoff_tensor(world, sender, receivers, index, TransferParams())
    # A hand-built profile meets the same check before the session touches the world.
    profile = StrategyProfile(True, (True,) * len(receivers))
    with pytest.raises(ValueError, match=problem):
        execute_session(world, sender, receivers, index, profile, TransferParams())
    for key in ("knowledge", "belief", "popularity", "trust", "reputation"):
        assert np.array_equal(getattr(world, key), getattr(before, key))


def test_hold_is_costly_when_popularity_decays():
    # a sender with saturated popularity and a popularity-loving personality
    # strictly prefers sending even when the receiver learns nothing new
    world = make_world([[1.0], [1.0]], [[1.0], [1.0]], trust=0.6, popularity=[0.9, 0.1],
                       personality=(0.1, 0.1, 0.8))
    params = TransferParams(popularity_decay=0.05)
    tensor = build_payoff_tensor(world, 0, [1], 0, params)
    hold = tensor.payoff(StrategyProfile.all_hold(1))
    send = tensor.payoff(StrategyProfile(True, (False,)))
    assert hold[0] < 0.0
    assert send[0] > hold[0]
    assert select_profile(tensor).send


def test_sender_purity_rate_on_random_instances():
    # over many randomized desk-scale games, every pure equilibrium of one
    # tensor shares the same sender action; violations are counted and the
    # suite insists on a zero rate. This holds under "transferred" weighting,
    # where a comment cannot move the sender's utility, so the sender's
    # choice does not depend on the receivers'; under "source" weighting
    # some games have equilibria with both sender actions.
    rng = np.random.default_rng(26)
    violations = 0
    checked = 0
    for _ in range(1000):
        world, params, sender, receivers, index, _, _ = random_session(rng)
        params = dataclasses.replace(params, belief_weight_mode="transferred")
        tensor = build_payoff_tensor(world, sender, receivers, index, params)
        equilibria = find_pure_nash(tensor)
        if not equilibria:
            continue
        checked += 1
        actions = {e.send for e in equilibria}
        if len(actions) > 1:
            violations += 1
    assert checked > 0
    assert violations == 0, f"{violations}/{checked} games had mixed sender actions"


def test_format_table_lists_every_profile():
    cells = {
        (False, False): (0.0, 0.0),
        (True, False): (1.0, 0.0),
        (True, True): (1.0, 1.0),
    }
    tensor = tensor_from_cells(cells)
    table = tensor.format_table()
    assert len(table.splitlines()) == 4
    assert "S-" in table and "SF" in table


def test_format_table_lists_profiles_in_lexicographic_order():
    cells = {
        (False, False, False): (0.0, 0.0, 0.0),
        (True, False, False): (1.0, 0.0, 0.0),
        (True, False, True): (1.0, 0.0, 2.0),
        (True, True, False): (1.0, 3.0, 0.0),
        (True, True, True): (4.0, 3.0, 2.0),
    }
    lines = tensor_from_cells(cells).format_table().splitlines()
    assert [line.split()[0] for line in lines] == [
        "---", "--F", "-F-", "-FF", "S--", "S-F", "SF-", "SFF",
    ]
    # comments without a send show the all-hold vector
    assert all(line.endswith("+0.000000 +0.000000 +0.000000") for line in lines[:4])
    assert lines[7] == "SFF  +4.000000 +3.000000 +2.000000"
