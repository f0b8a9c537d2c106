"""Payoff tensor, equilibrium enumeration, and profile selection."""

import itertools

import numpy as np
import pytest

from friendcast.game import (
    PayoffTensor,
    StrategyProfile,
    _layout,
    build_payoff_tensor,
    find_pure_nash,
    select_profile,
)
from friendcast.knowledge import Ontology
from friendcast.transfer import TransferParams, execute_session
from friendcast.world import World


def tensor_from_cells(cells):
    """Build a tensor from {(send, feedback...): payoff vector} with collapse."""
    n_receivers = len(next(iter(cells))) - 1
    hold = cells[(False,) + (False,) * n_receivers]
    payoffs = np.array([hold] * (2 << n_receivers), dtype=float)
    for key, vec in cells.items():
        if key[0]:
            payoffs[StrategyProfile(key[0], tuple(key[1:])).cell] = vec
    return PayoffTensor(payoffs)


def brute_force_nash(tensor):
    """Oracle: exhaustive unilateral-deviation check over canonical profiles."""
    result = []
    for profile in StrategyProfile.enumerate_canonical(tensor.n_receivers):
        own = tensor.payoff(profile)
        ok = True
        for player in range(tensor.n_receivers + 1):
            for alternative in (False, True):
                if player == 0:
                    other = StrategyProfile(alternative, profile.feedback)
                else:
                    fb = list(profile.feedback)
                    fb[player - 1] = alternative
                    other = StrategyProfile(profile.send, tuple(fb))
                if tensor.payoff(other)[player] > own[player]:
                    ok = False
        if ok:
            result.append(profile)
    return result


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
    assert len(tensor.payoffs) == 4
    assert tensor.payoff(StrategyProfile(False, (True,))) == tensor.payoff(
        StrategyProfile(False, (False,))
    )


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


def test_find_pure_nash_matches_brute_force_on_random_tensors():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        n_receivers = int(rng.integers(1, 4))
        cells = {}
        for key in itertools.product((False, True), repeat=n_receivers + 1):
            cells[key] = tuple(rng.integers(-3, 4, size=n_receivers + 1).astype(float))
        tensor = tensor_from_cells(cells)
        assert find_pure_nash(tensor) == brute_force_nash(tensor)


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


def brute_force_selection(cells, n_receivers):
    """Oracle: the selection rule over (send, *feedback) tuples, without cells."""
    hold = (False,) * (n_receivers + 1)
    feasible = [hold] + [
        (True, *fb) for fb in itertools.product((False, True), repeat=n_receivers)
    ]

    def payoff(bits):
        return cells[bits] if bits[0] else cells[hold]

    def gains(bits):
        own = payoff(bits)
        return [
            payoff(bits[:i] + (not bits[i],) + bits[i + 1:])[i] - own[i]
            for i in range(n_receivers + 1)
        ]

    equilibria = [bits for bits in feasible if all(g <= 0.0 for g in gains(bits))]
    if equilibria:
        best = max(payoff(bits)[0] for bits in equilibria)
        return min(bits for bits in equilibria if payoff(bits)[0] == best), False
    regret = {}
    for bits in feasible:
        total = 0.0
        for g in gains(bits):
            total += max(0.0, g)
        regret[bits] = total
    least = min(regret.values())
    return min(bits for bits in feasible if regret[bits] == least), True


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
        chosen = select_profile(tensor_from_cells(cells))
        expected, fallback = brute_force_selection(cells, n_receivers)
        assert (chosen.send, *chosen.feedback) == expected
        fallbacks += fallback
    assert 0 < fallbacks < 1000


# --- tensors built from worlds ---------------------------------------------


def random_world(rng, n, a_count):
    trust = rng.uniform(0, 1, (n, n))
    np.fill_diagonal(trust, 1.0)
    if rng.integers(2):
        ontology = Ontology.identity(a_count)
    else:
        m = rng.uniform(-1, 1, (a_count, a_count))
        np.fill_diagonal(m, 1.0)
        ontology = Ontology(m)
    return World(
        knowledge=rng.uniform(0.05, 1, (n, a_count)),
        belief=rng.uniform(-1, 1, (n, a_count)),
        popularity=rng.uniform(0, 1, n),
        trust=trust,
        personality=rng.dirichlet([1, 1, 1], n),
        willingness=rng.uniform(0, 1, n),
        ontology=ontology,
    )


def random_game(rng, max_receivers=3):
    n = int(rng.integers(2, 5))
    a_count = int(rng.integers(1, 4))
    world = random_world(rng, n, a_count)
    params = TransferParams(
        remembrance=rng.uniform(0.8, 1.0),
        trust_history_weight=rng.uniform(0, 1),
        popularity_decay=rng.uniform(0, 1),
    )
    sender = int(rng.integers(n))
    others = [x for x in range(n) if x != sender]
    n_recv = int(rng.integers(1, min(max_receivers, len(others)) + 1))
    receivers = [int(r) for r in rng.choice(others, size=n_recv, replace=False)]
    index = int(rng.integers(a_count))
    return world, sender, receivers, index, params


def test_tensor_matches_per_profile_sessions_exactly():
    rng = np.random.default_rng(24)
    for _ in range(50):
        world, sender, receivers, index, params = random_game(rng)
        tensor = build_payoff_tensor(world, sender, receivers, index, params)
        for profile in StrategyProfile.enumerate_canonical(len(receivers)):
            scratch = world.copy()
            outcome = execute_session(scratch, sender, receivers, index, profile, params)
            naive = tuple(outcome.utility_deltas[p] for p in (sender, *receivers))
            assert tensor.payoff(profile) == naive


def test_tensor_construction_is_deterministic_and_leaves_world_alone():
    rng = np.random.default_rng(25)
    world, sender, receivers, index, params = random_game(rng)
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
    world = random_world(np.random.default_rng(26), 4, 2)
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
    world = World(
        knowledge=np.array([[1.0], [1.0]]),
        belief=np.array([[1.0], [1.0]]),
        popularity=np.array([0.9, 0.1]),
        trust=np.array([[1.0, 0.6], [0.6, 1.0]]),
        personality=np.tile([0.1, 0.1, 0.8], (2, 1)),
        willingness=np.ones(2),
        ontology=Ontology.identity(1),
    )
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
    # suite insists on a zero rate
    rng = np.random.default_rng(26)
    violations = 0
    checked = 0
    for _ in range(1000):
        world, sender, receivers, index, params = random_game(rng)
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
