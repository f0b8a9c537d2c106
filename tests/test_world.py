"""Personalities, trust, reputation, utility, and popularity decay on the World state."""

import numpy as np
import pytest

from friendcast.game import StrategyProfile
from friendcast.transfer import TransferParams, execute_session

from worlds import EXACT, make_world


def _decayed(popularity, rate):
    """An actor's popularity after one quiet session at the given decay rate."""
    world = make_world([[0.5]] * 2, [[1.0]] * 2, popularity=popularity)
    params = TransferParams(popularity_decay=rate)
    execute_session(world, 0, [1], None, StrategyProfile.all_hold(1), params)
    return world.popularity[0]


def test_reputation_examples():
    uniform = make_world([[0.5]] * 4, [[1.0]] * 4, trust=1.0)
    assert uniform.reputations()[2] == 1.0

    m = np.eye(4)
    m[0, 3], m[1, 3], m[2, 3] = 0.2, 0.4, 0.6
    m[3, 0] = m[3, 1] = m[3, 2] = 0.9  # rows of the rated actor are irrelevant
    assert make_world([[0.5]] * 4, [[1.0]] * 4, trust=m).reputations()[3] == pytest.approx(0.4, abs=EXACT)

    lonely = make_world([[0.5]] * 3, [[1.0]] * 3, trust=0.0)
    assert lonely.reputations()[0] == 0.0  # self-trust excluded


def test_reputation_ignores_diagonal():
    base = make_world([[0.5]] * 5, [[1.0]] * 5, trust=0.3).reputations()[2]
    assert base == pytest.approx(0.3, abs=EXACT)


def test_utility_examples():
    knowledge_only = make_world([[0.4, 0.4]] * 3, [[1.0, 1.0]] * 3, trust=0.0, personality=(1.0, 0.0, 0.0))
    assert knowledge_only.utilities([0])[0] == pytest.approx(0.4, abs=EXACT)

    troll = make_world([[1.0]] * 3, [[1.0]] * 3, trust=1.0, popularity=1.0, personality=(0.1, 0.1, 0.8))
    assert troll.utilities([0])[0] == pytest.approx(1.0, abs=EXACT)

    expert = make_world([[0.5, 0.5]] * 3, [[1.0, -1.0]] * 3)
    assert expert.utilities([0])[0] == pytest.approx(0.45, abs=EXACT)


def test_utility_is_monotone_and_bounded():
    rng = np.random.default_rng(5)
    for _ in range(300):
        weights = tuple(rng.dirichlet([1.0, 1.0, 1.0]))
        k_level, trust_level, pop = rng.uniform(0, 1, 3)

        def utility(k, trust, popularity):
            return make_world([[k]] * 4, [[1.0]] * 4, trust, popularity, weights).utilities([0])[0]

        u = utility(k_level, trust_level, pop)
        assert 0.0 <= u <= 1.0 + EXACT
        # raising each component never lowers the utility
        assert utility(min(1.0, k_level + 0.1), trust_level, pop) >= u - EXACT
        assert utility(k_level, trust_level, min(1.0, pop + 0.1)) >= u - EXACT
        assert utility(k_level, min(1.0, trust_level + 0.1), pop) >= u - EXACT


def test_decay_popularity_examples():
    assert _decayed(0.7, 0.0) == 0.7
    assert _decayed(1.0, 0.01) == pytest.approx(0.99, abs=EXACT)
    assert _decayed(0.0, 0.5) == 0.0
    # a receiver who stays silent on a send decays like an idle actor
    world = make_world([[0.5]] * 2, [[1.0]] * 2, popularity=1.0)
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
        make_world([[0.5]] * 2, [[1.0]] * 2, trust=[[1.0, 0.5], [0.5, 0.8]]).validate()  # diagonal not 1
    with pytest.raises(ValueError):
        make_world([[0.5]] * 2, [[1.0]] * 2, trust=[[1.0, 1.5], [0.0, 1.0]]).validate()  # entry out of range


@pytest.mark.parametrize("key, value", [
    ("knowledge", -0.25), ("knowledge", 1.25), ("belief", -1.25), ("belief", 1.25), ("popularity", -0.25),
    ("popularity", 1.25),
])
def test_state_out_of_range_fails_validation(key, value):
    world = make_world([[0.5]] * 2, [[1.0]] * 2)
    world.validate()
    getattr(world, key)[1] = value
    with pytest.raises(ValueError, match=f"^{key} .*outside"):
        world.validate()
