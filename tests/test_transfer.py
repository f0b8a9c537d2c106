"""Sessions on the World state: transfer, feedback, trust and popularity updates."""

import numpy as np
import pytest

from friendcast import knowledge
from friendcast.game import StrategyProfile
from friendcast.harness import ConfigError, ScenarioConfig
from friendcast.knowledge import Ontology, combined_belief, combined_knowledge
from friendcast.transfer import (
    BELIEF_WEIGHT_MODES,
    TransferParams,
    execute_session,
    trust_update,
)
from friendcast.world import World

from session_oracle import replay

EXACT = 1e-12


def _pair(sender, receiver, trust=1.0, ontology=None, willingness=1.0, popularity=0.0):
    """Actor 0 sends to actor 1; each is given as its (k, b) rows, trusting the other at `trust`."""
    knowledge = np.array([sender[0], receiver[0]], dtype=float)
    m = np.full((2, 2), float(trust))
    np.fill_diagonal(m, 1.0)
    return World(
        knowledge=knowledge,
        belief=np.array([sender[1], receiver[1]], dtype=float),
        popularity=np.array([popularity, 0.0]),
        trust=m,
        personality=np.tile([0.2, 0.7, 0.1], (2, 1)),
        willingness=np.array([1.0, willingness]),
        ontology=ontology or Ontology.identity(knowledge.shape[1]),
    )


def _send(world, index, comment=False, **params):
    """Actor 0 publishes `index` to actor 1, who comments if asked."""
    profile = StrategyProfile(True, (comment,))
    return execute_session(world, 0, [1], index, profile, TransferParams(**params))


def test_perceived_delta_off_index_identity_ontology_is_zero():
    for mode in BELIEF_WEIGHT_MODES:
        world = _pair(([0.8, 0.1], [0.6, 0.2]), ([0.5, 0.5], [0.3, -0.4]), trust=0.7)
        _send(world, 0, belief_weight_mode=mode)
        assert world.knowledge[1, 1] == 0.5 and world.belief[1, 1] == -0.4


def test_perceived_delta_full_trust_reproduces_sender_tuple():
    # a fully trusting receiver learns exactly the sender's tuple
    sent_k, sent_b = 0.8, 0.6
    world = _pair(([0.3, sent_k], [0.0, sent_b]), ([0.2, 0.9], [-0.8, 0.1]), trust=1.0)
    _send(world, 1)
    assert world.knowledge[1, 1] == pytest.approx(combined_knowledge(0.9, sent_k), abs=EXACT)
    assert world.belief[1, 1] == pytest.approx(combined_belief(0.1, sent_b, sent_k), abs=EXACT)


def test_perceived_delta_zero_trust_uses_self_assessment():
    # receiver believes 0.5 at the transferred index, nothing elsewhere;
    # with the identity ontology the guess is a direct mean: 0.5 / |A|
    a_count = 4
    beliefs = [0.0] * a_count
    beliefs[2] = 0.5
    world = _pair(([0.8] * a_count, [-0.6] * a_count), ([0.3] * a_count, beliefs), trust=0.0)
    _send(world, 2)
    expected_guess = sum(
        (1.0 if kk == 2 else 0.0) * beliefs[kk] for kk in range(a_count)
    ) / a_count
    # the receiver learns the sender's knowledge with its own guess as the belief
    assert world.knowledge[1, 2] == pytest.approx(combined_knowledge(0.3, 0.8), abs=EXACT)
    assert world.belief[1, 2] == pytest.approx(combined_belief(0.5, expected_guess, 0.8), abs=EXACT)


def test_apply_knowledge_transfer_absorption():
    world = _pair(([1.0, 0.3], [1.0, -0.5]), ([0.0, 0.0], [0.0, 0.0]), trust=1.0)
    _send(world, 0, remembrance=1.0)
    assert world.knowledge[1, 0] == 1.0 and world.belief[1, 0] == pytest.approx(1.0, abs=EXACT)
    assert world.knowledge[1, 1] == 0.0 and world.belief[1, 1] == 0.0  # untouched off-index


def test_apply_knowledge_transfer_stubborn_receiver_keeps_knowledge():
    world = _pair(([0.9, 0.9], [1.0, 1.0]), ([0.4, 0.2], [0.1, -0.3]), trust=0.6, willingness=0.0)
    _send(world, 0, remembrance=1.0)
    assert np.allclose(world.knowledge[1], [0.4, 0.2], atol=EXACT, rtol=0)


def test_apply_knowledge_transfer_with_forgetting_worked_example():
    # receiver {0.5, 0} degrades to {0.45, 0}; the sender's {5/9, 8/9}
    # degrades to {0.5, 0.8}, which the fully trusting receiver combines
    # to {0.725, 0.4}
    world = _pair(([0.5 / 0.9], [0.8 / 0.9]), ([0.5], [0.0]), trust=1.0)
    _send(world, 0, remembrance=0.81)
    assert world.knowledge[1, 0] == pytest.approx(0.725, abs=EXACT)
    assert world.belief[1, 0] == pytest.approx(0.4, abs=EXACT)


def test_apply_feedback_transfer_zero_trust_changes_nothing():
    m = np.full((2, 2), 0.5)
    np.fill_diagonal(m, 1.0)
    for mode in BELIEF_WEIGHT_MODES:
        world = _pair(([0.6, 0.4], [0.2, -0.1]), ([0.9, 0.9], [-1.0, 1.0]), trust=0.0,
                      ontology=Ontology(m))
        _send(world, 0, comment=True, belief_weight_mode=mode)
        assert np.array_equal(world.knowledge[0], [0.6, 0.4])
        assert np.array_equal(world.belief[0], [0.2, -0.1])


def test_apply_feedback_transfer_off_index_identity_ontology_unchanged():
    for mode in BELIEF_WEIGHT_MODES:
        world = _pair(([0.6, 0.4], [0.2, -0.1]), ([0.9, 0.9], [-1.0, 1.0]), trust=1.0)
        _send(world, 0, comment=True, belief_weight_mode=mode)
        assert world.knowledge[0, 1] == 0.4 and world.belief[0, 1] == -0.1


def test_apply_feedback_transfer_literal_weighting_nullifies_belief():
    # the comment carries zero knowledge, so the zero-weighted learning
    # operator leaves the sender's belief untouched under literal weighting
    world = _pair(([0.6], [0.2]), ([1.0], [-1.0]), trust=1.0)
    _send(world, 0, comment=True)
    assert world.knowledge[0, 0] == 0.6 and world.belief[0, 0] == 0.2


def test_apply_feedback_transfer_source_weighting_moves_belief():
    world = _pair(([0.6], [0.2]), ([1.0], [-1.0]), trust=1.0)
    _send(world, 0, comment=True, belief_weight_mode="source")
    assert world.knowledge[0, 0] == 0.6  # knowledge still untouched
    assert world.belief[0, 0] == pytest.approx(0.2 + 1.0 * (-1.0) * (1 + 0.2), abs=EXACT)


def test_popularity_update_examples():
    # a receiver the send leaves unchanged adds nothing to the sender
    unmoved = _pair(([0.9], [0.8]), ([0.5], [0.4]), willingness=0.0, popularity=0.37)
    _send(unmoved, 0)
    assert unmoved.knowledge[1, 0] == 0.5 and unmoved.belief[1, 0] == 0.4
    assert unmoved.popularity[0] == pytest.approx(0.37, abs=EXACT)

    jumped = _pair(([1.0], [1.0]), ([0.0], [0.0]))
    _send(jumped, 0)
    assert jumped.values()[1, 0] == pytest.approx(1.0, abs=EXACT)
    assert jumped.popularity[0] == pytest.approx(1.0, abs=EXACT)

    # a quarter of the sender's knowledge lifts the receiver from 0.2 to 0.4
    grown = _pair(([0.25], [1.0]), ([0.2], [1.0]), popularity=0.5)
    _send(grown, 0)
    assert grown.values()[1, 0] == pytest.approx(0.4, abs=EXACT)
    assert grown.popularity[0] == pytest.approx(0.6, abs=EXACT)


def test_popularity_update_clamps_large_swings():
    # the receiver's value flips from +1 to -1: a change of 2, clamped to 1
    world = _pair(([1.0], [-1.0]), ([1.0], [1.0]))
    _send(world, 0)
    assert world.values()[1, 0] == pytest.approx(-1.0, abs=EXACT)
    assert world.popularity[0] == 1.0


def test_popularity_update_requires_receivers():
    world = _pair(([0.5], [0.5]), ([0.5], [0.5]))
    for profile in (StrategyProfile(True, ()), StrategyProfile.all_hold(0)):
        with pytest.raises(ValueError):
            execute_session(world, 0, [], 0, profile, TransferParams())
    with pytest.raises(ConfigError):
        ScenarioConfig(n_receivers=0).validate()


def test_trust_update_examples():
    assert trust_update(0.3, 0.7, 0.7, 0.0) == 1.0
    assert trust_update(0.3, 1.0, -1.0, 0.0) == 0.0  # clamped from -1
    assert trust_update(0.42, 1.0, -1.0, 1.0) == 0.42  # pure history


def test_trust_update_stays_in_range():
    rng = np.random.default_rng(8)
    for _ in range(2000):
        t = trust_update(
            rng.uniform(0, 1), rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0, 1)
        )
        assert 0.0 <= t <= 1.0


# --- sessions -------------------------------------------------------------


def _micro_world(n=3, a_count=2, trust=0.5, seed=0):
    rng = np.random.default_rng(seed)
    trust_m = np.full((n, n), trust)
    np.fill_diagonal(trust_m, 1.0)
    return World(
        knowledge=rng.uniform(0, 1, (n, a_count)),
        belief=rng.uniform(-1, 1, (n, a_count)),
        popularity=rng.uniform(0, 1, n),
        trust=trust_m,
        personality=np.tile([0.2, 0.7, 0.1], (n, 1)),
        willingness=np.ones(n),
        ontology=Ontology.identity(a_count),
    )


def test_all_hold_session_only_forgets_and_decays():
    world = _micro_world()
    before = world.copy()
    params = TransferParams(remembrance=0.81, popularity_decay=0.25)
    out = execute_session(world, 0, [1, 2], 0, StrategyProfile.all_hold(2), params)
    assert not out.sent and out.responders == ()
    assert np.allclose(world.knowledge, np.sqrt(0.81) * before.knowledge, atol=EXACT, rtol=0)
    assert np.allclose(world.belief, np.sqrt(0.81) * before.belief, atol=EXACT, rtol=0)
    assert np.allclose(world.popularity, 0.75 * before.popularity, atol=EXACT, rtol=0)
    assert np.array_equal(world.trust, before.trust)


def test_identity_session_is_a_no_op():
    world = _micro_world()
    before = world.copy()
    params = TransferParams(remembrance=1.0, popularity_decay=0.0)
    execute_session(world, 0, [1, 2], 0, StrategyProfile.all_hold(2), params)
    assert np.array_equal(world.knowledge, before.knowledge)
    assert np.array_equal(world.belief, before.belief)
    assert np.array_equal(world.popularity, before.popularity)
    assert np.array_equal(world.trust, before.trust)


def test_full_trust_send_matches_actor_level_transfer():
    world = _micro_world(trust=1.0, seed=3)
    params = TransferParams(remembrance=0.9)
    _, mirror = replay(world, 0, [1], 1, True, (False,), params)
    execute_session(world, 0, [1], 1, StrategyProfile(True, (False,)), params)
    assert np.allclose(world.knowledge[1], mirror["k"][1], atol=EXACT, rtol=0)
    assert np.allclose(world.belief[1], mirror["b"][1], atol=EXACT, rtol=0)


def test_feedback_order_sensitivity_under_source_weighting():
    # two responders with different beliefs: the first comment shifts the
    # sender belief that the second comment then moves; the trust updates
    # compare post-forget beliefs, which no comment changes
    def run(order):
        world = _micro_world(n=3, a_count=1, trust=0.5, seed=11)
        world.belief[0, 0] = 0.0
        world.belief[1, 0] = 1.0
        world.belief[2, 0] = -1.0
        world.knowledge[:, 0] = 0.9
        params = TransferParams(belief_weight_mode="source")
        execute_session(world, 0, order, 0, StrategyProfile(True, (True, True)), params)
        return float(world.belief[0, 0]), world.trust[0, order[0]], world.trust[0, order[1]]

    b_first, *_ = run([1, 2])
    b_swapped, *_ = run([2, 1])
    assert b_first != b_swapped


def test_comment_carries_the_responders_post_forget_tuple():
    # The send pulls the responder from -0.2 to -0.2 + 1.0 * 0.5 * 1.2 = 0.4,
    # but its comment carries the post-forget tuple (k, b) = (0.5, -0.2):
    # the sender's belief falls to 0.5 + 0.5 * (0.5 * -0.2) * 1.5 = 0.425.
    # Echoing the post-send tuple (1.0, 0.4) would instead have raised it
    # to 0.5 + 1.0 * (0.5 * 0.4) * 0.5 = 0.55.
    trust = np.full((3, 3), 0.5)
    np.fill_diagonal(trust, 1.0)
    trust[1, 0] = 1.0  # the responder fully trusts the sender
    world = World(
        knowledge=np.array([[1.0], [0.5], [0.3]]),
        belief=np.array([[0.5], [-0.2], [0.9]]),
        popularity=np.zeros(3),
        trust=trust,
        personality=np.tile([0.2, 0.7, 0.1], (3, 1)),
        willingness=np.ones(3),
        ontology=Ontology.identity(1),
    )
    params = TransferParams(belief_weight_mode="source")
    execute_session(world, 0, [1], 0, StrategyProfile(True, (True,)), params)
    assert world.knowledge[1, 0] == pytest.approx(1.0, abs=EXACT)
    assert world.belief[1, 0] == pytest.approx(0.4, abs=EXACT)
    assert world.belief[0, 0] == pytest.approx(0.425, abs=EXACT)
    # both trust updates compare the post-forget beliefs 0.5 and -0.2
    assert world.trust[1, 0] == pytest.approx(0.5 * 1.0 + 0.5 * 0.3, abs=EXACT)
    assert world.trust[0, 1] == pytest.approx(0.5 * 0.5 + 0.5 * 0.3, abs=EXACT)
    # the sender's value moved by 0.075; that is one of the responder's
    # n - 1 = 2 others
    assert world.popularity[1] == pytest.approx(0.075 / 2, abs=EXACT)
    assert world.popularity[0] == pytest.approx(0.5, abs=EXACT)


def test_feedback_is_inert_under_literal_weighting():
    def run(order):
        world = _micro_world(n=3, a_count=1, trust=0.5, seed=11)
        params = TransferParams(belief_weight_mode="transferred")
        execute_session(world, 0, order, 0, StrategyProfile(True, (True, True)), params)
        return world.belief[0, 0]

    world = _micro_world(n=3, a_count=1, trust=0.5, seed=11)
    assert run([1, 2]) == run([2, 1]) == world.belief[0, 0]


def test_feedback_never_changes_sender_knowledge():
    rng = np.random.default_rng(12)
    for mode in ("transferred", "source"):
        for trial in range(100):
            world = _micro_world(n=3, a_count=3, trust=rng.uniform(0, 1), seed=trial)
            params = TransferParams(
                remembrance=1.0, belief_weight_mode=mode, popularity_decay=0.0
            )
            before = world.knowledge[0].copy()
            execute_session(world, 0, [1, 2], 1, StrategyProfile(True, (True, True)), params)
            after_send_k = before  # sender's own knowledge is untouched by a send
            assert np.array_equal(world.knowledge[0], after_send_k)


def test_infeasible_profile_is_rejected():
    world = _micro_world()
    with pytest.raises(ValueError):
        execute_session(
            world, 0, [1, 2], 0, StrategyProfile(False, (True, False)),
            TransferParams(),
        )


def test_perceived_belief_magnitude_is_bounded(monkeypatch):
    # "source" weighting spreads the perceived belief db to every correlated
    # index. With learning weight 1 (willing receiver, fully known assertion)
    # a receiver at belief b moves to b + db(1 - b) for db >= 0, so any
    # |db| > 1 leaves [-1, 1] by (1 -+ b)(|db| - 1); the drift guard,
    # tightened to EXACT, rejects that on every draw.
    monkeypatch.setattr(knowledge, "DRIFT_TOLERANCE", EXACT)
    rng = np.random.default_rng(13)
    for _ in range(500):
        a_count = int(rng.integers(1, 5))
        m = rng.uniform(-1, 1, (a_count, a_count))
        np.fill_diagonal(m, 1.0)
        index = int(rng.integers(a_count))
        sender_k = rng.uniform(0, 1, a_count)
        sender_k[index] = 1.0
        world = _pair(
            (sender_k, rng.uniform(-1, 1, a_count)),
            (rng.uniform(0, 1, a_count), rng.uniform(-1, 1, a_count)),
            trust=rng.uniform(0, 1),
            ontology=Ontology(m),
            willingness=1.0,
        )
        _send(world, index, belief_weight_mode="source")
        world.validate()
        assert np.abs(world.belief[1]).max() <= 1.0 + EXACT


def test_popularity_monotone_under_repeated_updates():
    rng = np.random.default_rng(14)
    world = _pair(([0.5], [0.5]), ([0.5], [0.5]))
    trail = [world.popularity[0]]
    for _ in range(200):
        world.knowledge[:, 0] = rng.uniform(0, 1, 2)
        world.belief[:, 0] = rng.uniform(-1, 1, 2)
        _send(world, 0)
        trail.append(world.popularity[0])
    diffs = np.diff(trail)
    assert np.all(diffs >= -EXACT) and trail[-1] <= 1.0


def test_randomized_sessions_preserve_population_invariants():
    rng = np.random.default_rng(15)
    for trial in range(300):
        n = int(rng.integers(2, 5))
        a_count = int(rng.integers(1, 4))
        world = World(
            knowledge=rng.uniform(0, 1, (n, a_count)),
            belief=rng.uniform(-1, 1, (n, a_count)),
            popularity=rng.uniform(0, 1, n),
            trust=_random_trust(rng, n),
            personality=rng.dirichlet([1, 1, 1], n),
            willingness=rng.uniform(0, 1, n),
            ontology=_random_ontology(rng, a_count),
        )
        params = TransferParams(
            remembrance=rng.uniform(0, 1),
            trust_history_weight=rng.uniform(0, 1),
            popularity_decay=rng.uniform(0, 1),
            belief_weight_mode=("transferred", "source")[trial % 2],
        )
        sender = int(rng.integers(n))
        others = [x for x in range(n) if x != sender]
        n_recv = int(rng.integers(1, len(others) + 1))
        receivers = list(rng.choice(others, size=n_recv, replace=False))
        send = bool(rng.integers(2))
        feedback = tuple(bool(rng.integers(2)) and send for _ in receivers)
        profile = StrategyProfile(send, feedback)
        execute_session(world, sender, receivers, int(rng.integers(a_count)), profile,
                        params)
        world.validate()


def _random_trust(rng, n):
    t = rng.uniform(0, 1, (n, n))
    np.fill_diagonal(t, 1.0)
    return t


def _random_ontology(rng, a_count):
    if rng.integers(2):
        return Ontology.identity(a_count)
    m = rng.uniform(-1, 1, (a_count, a_count))
    np.fill_diagonal(m, 1.0)
    return Ontology(m)
