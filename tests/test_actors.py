"""Personalities, trust, reputation, utility, and popularity decay on the World state."""

import numpy as np
import pytest

from friendcast.game import StrategyProfile
from friendcast.harness import ConfigError, ScenarioConfig
from friendcast.knowledge import Ontology
from friendcast.transfer import TransferParams, execute_session
from friendcast.world import World

EXACT = 1e-12


def _world(trust, knowledge=((0.5,),), belief=((1.0,),), weights=(0.2, 0.7, 0.1), popularity=0.0):
    """A world of len(trust) actors that all share one knowledge row, personality and popularity."""
    n = len(trust)
    knowledge = np.repeat(np.array(knowledge, dtype=float), n, axis=0)
    return World(
        knowledge=knowledge,
        belief=np.repeat(np.array(belief, dtype=float), n, axis=0),
        popularity=np.full(n, float(popularity)),
        trust=np.array(trust, dtype=float),
        personality=np.tile(weights, (n, 1)),
        willingness=np.ones(n),
        ontology=Ontology.identity(knowledge.shape[1]),
    )


def _uniform_trust(n, off_diagonal):
    m = np.full((n, n), float(off_diagonal))
    np.fill_diagonal(m, 1.0)
    return m


def _decayed(popularity, rate):
    """An actor's popularity after one quiet session at the given decay rate."""
    world = _world(_uniform_trust(2, 0.5), popularity=popularity)
    params = TransferParams(popularity_decay=rate)
    execute_session(world, 0, [1], None, StrategyProfile.all_hold(1), params)
    return world.popularity[0]


def test_personality_validation():
    def personality(k, r, p):
        return ScenarioConfig(knowledge_weight=k, reputation_weight=r, popularity_weight=p)

    personality(0.2, 0.7, 0.1).validate()
    with pytest.raises(ConfigError):
        personality(0.5, 0.5, 0.5).validate()
    with pytest.raises(ConfigError):
        personality(-0.1, 0.6, 0.5).validate()


def test_reputation_examples():
    uniform = _world(_uniform_trust(4, 1.0))
    assert uniform.reputations()[2] == 1.0

    m = np.eye(4)
    m[0, 3], m[1, 3], m[2, 3] = 0.2, 0.4, 0.6
    m[3, 0] = m[3, 1] = m[3, 2] = 0.9  # rows of the rated actor are irrelevant
    assert _world(m).reputations()[3] == pytest.approx(0.4, abs=EXACT)

    lonely = _world(np.eye(3))
    assert lonely.reputations()[0] == 0.0  # self-trust excluded


def test_reputation_ignores_diagonal():
    m = np.full((5, 5), 0.3)
    np.fill_diagonal(m, 1.0)
    base = _world(m).reputations()[2]
    assert base == pytest.approx(0.3, abs=EXACT)


def test_reputation_needs_two_actors():
    with pytest.raises(ConfigError):
        ScenarioConfig(n_actors=1).validate()


def test_utility_examples():
    knowledge_only = _world(_uniform_trust(3, 0.0), [[0.4, 0.4]], [[1.0, 1.0]], (1.0, 0.0, 0.0))
    assert knowledge_only.utilities([0])[0] == pytest.approx(0.4, abs=EXACT)

    troll = _world(_uniform_trust(3, 1.0), [[1.0]], [[1.0]], (0.1, 0.1, 0.8), popularity=1.0)
    assert troll.utilities([0])[0] == pytest.approx(1.0, abs=EXACT)

    expert = _world(_uniform_trust(3, 0.5), [[0.5, 0.5]], [[1.0, -1.0]], (0.2, 0.7, 0.1))
    assert expert.utilities([0])[0] == pytest.approx(0.45, abs=EXACT)


def test_utility_is_monotone_and_bounded():
    rng = np.random.default_rng(5)
    for _ in range(300):
        weights = tuple(rng.dirichlet([1.0, 1.0, 1.0]))
        k_level, trust_level, pop = rng.uniform(0, 1, 3)
        trust = _uniform_trust(4, trust_level)
        u = _world(trust, [[k_level]], [[1.0]], weights, pop).utilities([0])[0]
        assert 0.0 <= u <= 1.0 + EXACT
        # raising each component never lowers the utility
        richer = _world(trust, [[min(1.0, k_level + 0.1)]], [[1.0]], weights, pop)
        assert richer.utilities([0])[0] >= u - EXACT
        more_popular = _world(trust, [[k_level]], [[1.0]], weights, min(1.0, pop + 0.1))
        assert more_popular.utilities([0])[0] >= u - EXACT
        more_trusted = _world(_uniform_trust(4, min(1.0, trust_level + 0.1)), [[k_level]], [[1.0]],
                              weights, pop)
        assert more_trusted.utilities([0])[0] >= u - EXACT


def test_decay_popularity_examples():
    assert _decayed(0.7, 0.0) == 0.7
    assert _decayed(1.0, 0.01) == pytest.approx(0.99, abs=EXACT)
    assert _decayed(0.0, 0.5) == 0.0
    # a receiver who stays silent on a send decays like an idle actor
    world = _world(_uniform_trust(2, 0.5), popularity=1.0)
    params = TransferParams(popularity_decay=0.01)
    execute_session(world, 0, [1], 0, StrategyProfile(True, (False,)), params)
    assert world.popularity[1] == pytest.approx(0.99, abs=EXACT)


def test_decay_popularity_stays_in_range_and_decreases():
    rng = np.random.default_rng(6)
    for _ in range(300):
        p = rng.uniform(0, 1)
        rate = rng.uniform(0, 1)
        out = _decayed(p, rate)
        assert 0.0 <= out <= 1.0
        if p > 0 and rate > 0:
            assert out < p


def test_trust_matrix_validation():
    with pytest.raises(ValueError):
        _world([[1.0, 0.5], [0.5, 0.8]]).validate()  # diagonal not 1
    with pytest.raises(ValueError):
        _world([[1.0, 1.5], [0.0, 1.0]]).validate()  # entry out of range
