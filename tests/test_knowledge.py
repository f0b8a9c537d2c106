"""Assertion algebra: examples, axioms, and randomized closure checks."""

import numpy as np
import pytest

from friendcast.game import StrategyProfile
from friendcast.harness import ConfigError, ScenarioConfig, take_snapshot
from friendcast.knowledge import (
    DriftError,
    Ontology,
    clamped_array,
    combined_belief,
    combined_knowledge,
)
from friendcast.transfer import TransferParams, execute_session
from friendcast.world import World

EXACT = 1e-12


def _world(knowledge, belief):
    """One actor per row of the given (k, b) tables, trusting each other at 0.5."""
    knowledge = np.array(knowledge, dtype=float)
    n, a_count = knowledge.shape
    trust = np.full((n, n), 0.5)
    np.fill_diagonal(trust, 1.0)
    return World(
        knowledge=knowledge,
        belief=np.array(belief, dtype=float),
        popularity=np.zeros(n),
        trust=trust,
        personality=np.tile([0.2, 0.7, 0.1], (n, 1)),
        willingness=np.ones(n),
        ontology=Ontology.identity(a_count),
    )


def _average_knowledge(world):
    """Each actor's average knowledge, as `actors.csv` reports it."""
    return take_snapshot(world, 0).actor_mean_abs_value


def _learned(have, heard):
    """The learning operator on (k, b) pairs, clamped as the session kernel clamps."""
    (k, b), (k_added, b_added) = np.asarray(have, dtype=float), np.asarray(heard, dtype=float)
    return (clamped_array(combined_knowledge(k, k_added), 0.0, 1.0),
            clamped_array(combined_belief(b, b_added, k_added), -1.0, 1.0))


def _forgotten(world, remembrance):
    """The world after one quiet session: every actor forgets once."""
    params = TransferParams(remembrance=remembrance)
    execute_session(world, 0, [1], None, StrategyProfile.all_hold(1), params)
    return world


def test_assertion_value_examples():
    values = _world([[0.3], [0.0], [1.0]], [[-0.9], [0.7], [1.0]]).values()[:, 0]
    assert values[0] == pytest.approx(-0.27, abs=EXACT)
    assert values[1] == 0.0 and values[2] == 1.0


def test_average_knowledge_examples():
    full = _world([[1.0, 1.0, 1.0]] * 2, [[1.0, 1.0, 1.0]] * 2)
    assert _average_knowledge(full)[0] == 1.0
    no_belief = _world([[0.2, 0.9]] * 2, [[0.0, 0.0]] * 2)
    assert _average_knowledge(no_belief)[0] == 0.0
    mixed = _world([[0.3, 0.5]] * 2, [[-0.9, 1.0]] * 2)
    assert _average_knowledge(mixed)[0] == pytest.approx(0.385, abs=EXACT)


def test_average_knowledge_empty_base_is_an_error():
    with pytest.raises(ConfigError):
        ScenarioConfig(n_assertions=0).validate()


def test_average_knowledge_permutation_invariant():
    rng = np.random.default_rng(0)
    k = rng.uniform(0, 1, 12)
    b = rng.uniform(-1, 1, 12)
    perms = [np.arange(12)] + [rng.permutation(12) for _ in range(5)]
    world = _world([k[p] for p in perms], [b[p] for p in perms])
    averages = _average_knowledge(world)
    assert averages[1:] == pytest.approx(np.full(5, averages[0]), abs=EXACT)


def test_forget_examples():
    k, b = [[1.0, 0.4], [0.3, 0.6]], [[-1.0, 0.5], [0.2, -0.7]]
    kept = _forgotten(_world(k, b), 1.0)
    assert np.array_equal(kept.knowledge, k) and np.array_equal(kept.belief, b)
    gone = _forgotten(_world(k, b), 0.0)
    assert np.all(gone.knowledge == 0.0) and np.all(gone.belief == 0.0)
    scaled = _forgotten(_world([[1.0], [0.5]], [[-1.0], [0.5]]), 0.81)
    assert scaled.knowledge[0, 0] == pytest.approx(0.9, abs=EXACT)
    assert scaled.belief[0, 0] == pytest.approx(-0.9, abs=EXACT)


def test_forget_rejects_bad_rate():
    with pytest.raises(ValueError):
        TransferParams(remembrance=1.2)
    with pytest.raises(ValueError):
        TransferParams(remembrance=-0.1)
    with pytest.raises(ConfigError):
        ScenarioConfig(remembrance=1.2).validate()


def test_forget_scales_values_linearly():
    rng = np.random.default_rng(1)
    k, b = rng.uniform(0, 1, (2, 50)), rng.uniform(-1, 1, (2, 50))
    for rate in (0.0, 0.25, 0.81, 1.0):
        before = _world(k, b)
        out = _forgotten(before.copy(), rate)
        assert np.allclose(out.values(), rate * before.values(), atol=EXACT, rtol=0)


def test_learn_worked_example():
    k, b = _learned((0.5, 0.0), (0.5, 0.8))
    assert k == pytest.approx(0.75, abs=EXACT)
    assert b == pytest.approx(0.4, abs=EXACT)


def test_learn_zero_knowledge_is_identity():
    # learning an instance with no knowledge changes nothing, exactly
    b_added = np.array([-1.0, -0.3, 0.0, 0.7, 1.0])
    k, b = _learned((np.full(5, 0.37), np.full(5, -0.21)), (np.zeros(5), b_added))
    assert np.all(k == 0.37) and np.all(b == -0.21)


def test_learn_full_knowledge_absorbs():
    k, _ = _learned(([0.0, 0.4, 1.0], np.full(3, 0.2)), (np.ones(3), np.full(3, 0.5)))
    assert np.all(k == 1.0)


def test_learn_at_double_zero_returns_first_operand():
    k, b = _learned((0.0, 0.6), (0.0, -0.4))
    assert k == 0.0 and b == 0.6


def _random_tuples(rng, size):
    return (
        rng.uniform(0, 1, size),
        rng.uniform(-1, 1, size),
        rng.uniform(0, 1, size),
        rng.uniform(-1, 1, size),
    )


def test_learn_axioms_randomized_100k():
    rng = np.random.default_rng(42)
    n = 100_000
    kx, bx, ky, by = _random_tuples(rng, n)

    k_out = combined_knowledge(kx, ky)
    b_out = combined_belief(bx, by, ky)

    # closure
    assert k_out.min() >= 0.0 and k_out.max() <= 1.0 + EXACT
    assert b_out.min() >= -1.0 - EXACT and b_out.max() <= 1.0 + EXACT
    # knowledge boundedness (axiom: combining never exceeds full knowledge)
    assert np.all(k_out <= 1.0 + EXACT)
    # smooth approximation stays inside the overlap bracket
    assert np.all(k_out >= np.maximum(kx, ky) - EXACT)
    capped = kx + ky <= 1.0
    assert np.all(k_out[capped] <= (kx + ky)[capped] + EXACT)
    # zero added knowledge is an exact no-op on both components
    k_id = combined_knowledge(kx, np.zeros(n))
    b_id = combined_belief(bx, by, np.zeros(n))
    assert np.array_equal(k_id, kx)
    assert np.array_equal(b_id, bx)
    # full added knowledge absorbs
    assert np.allclose(combined_knowledge(kx, np.ones(n)), 1.0, atol=EXACT, rtol=0)


def test_assertion_rejects_out_of_range():
    # knowledge lives in [0, 1] and belief in [-1, 1], as the session kernel clamps them
    with pytest.raises(DriftError):
        clamped_array(np.array([1.5]), 0.0, 1.0)
    with pytest.raises(DriftError):
        clamped_array(np.array([-1.1]), -1.0, 1.0)
    # drift-sized excursions are absorbed onto the bound, scalars included
    assert clamped_array(np.array([1.0 + 1e-12]), 0.0, 1.0)[0] == 1.0
    assert clamped_array(np.float64(-1.0 - 1e-12), -1.0, 1.0) == -1.0


def test_clamped_array_guards_drift():
    assert np.all(clamped_array(np.array([1.0 + 1e-13, -1e-13]), 0.0, 1.0) >= 0.0)
    with pytest.raises(DriftError):
        clamped_array(np.array([1.0 + 1e-6]), 0.0, 1.0)
    with pytest.raises(DriftError):  # NaN compares False against both bounds
        clamped_array(np.array([np.nan, 0.5]), 0.0, 1.0)


def test_ontology_validation():
    identity = Ontology.identity(4)
    assert identity.size == 4
    assert np.array_equal(identity.m, np.eye(4))
    with pytest.raises(ValueError):
        Ontology([[1.0, 0.5], [0.5, 0.2]])  # diagonal not 1
    with pytest.raises(DriftError):
        Ontology([[1.0, 2.0], [0.0, 1.0]])  # entry out of range
    asym = Ontology([[1.0, -1.0], [0.3, 1.0]])
    assert asym.m[0, 1] == -1.0 and asym.m[1, 0] == 0.3
    with pytest.raises(ValueError):
        asym.m[0, 1] = 0.0  # read-only storage
