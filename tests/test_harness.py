"""Population initialization, the session loop, snapshots, determinism."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friendcast import game, harness, transfer
from friendcast.harness import (
    ConfigError,
    MAX_RECEIVERS,
    ScenarioConfig,
    _tier_counts,
    init_population,
    sessions,
    simulate,
    step,
    take_snapshot,
)
from friendcast.scenarios import scenario_config

from worlds import EXACT


def tiny_config(**overrides):
    base = dict(
        n_actors=8,
        n_assertions=3,
        n_receivers=1,
        n_steps=40,
        snapshot_every=10,
        knowledge_weight=0.2,
        reputation_weight=0.7,
        popularity_weight=0.1,
        rng_seed=7,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_config_validation_catches_bad_values():
    with pytest.raises(ConfigError):
        tiny_config(n_receivers=8).validate()  # >= n_actors
    # A game has 2^(N+1) profiles; only the config is built here, never a world or a tensor.
    assert tiny_config(n_actors=100, n_receivers=MAX_RECEIVERS).n_receivers == MAX_RECEIVERS == 12
    for n_receivers in (MAX_RECEIVERS + 1, 99):
        with pytest.raises(ConfigError, match=f"n_receivers={n_receivers} is above 12"):
            tiny_config(n_actors=100, n_receivers=n_receivers)
    with pytest.raises(ConfigError):
        tiny_config(popularity_weight=0.5).validate()  # weights sum != 1
    with pytest.raises(ConfigError, match="not a rate"):
        tiny_config(knowledge_weight=-0.1, reputation_weight=0.6, popularity_weight=0.5).validate()
    with pytest.raises(ConfigError, match="two actors"):
        tiny_config(n_actors=1).validate()
    with pytest.raises(ConfigError):
        tiny_config(knowledge_tiers=[[0.5, 0.9]]).validate()  # fractions != 1
    with pytest.raises(ConfigError):
        tiny_config(remembrance=1.5).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"no_such_key": 1})
    with pytest.raises(ConfigError, match="no_such_key"):
        scenario_config("experts", no_such_key=1)
    with pytest.raises(ConfigError):
        tiny_config(ontology="random").validate()


# Every value a JSON config file can hold; floats include NaN and both infinities.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([f.name for f in dataclasses.fields(ScenarioConfig)]), JSON_VALUES)
def test_any_json_value_in_one_field_builds_or_raises_config_error(name, value):
    try:
        ScenarioConfig.from_dict({name: value})
    except ConfigError:
        pass


def test_config_round_trips_through_dict():
    cfg = tiny_config()
    again = ScenarioConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_is_frozen_and_checked_on_replace():
    cfg = tiny_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n_actors = 9
    with pytest.raises(ConfigError, match="two actors"):
        dataclasses.replace(cfg, n_actors=1)


def test_config_nesting_is_frozen_too():
    m = [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    cfg = tiny_config(knowledge_tiers=[[0.5, 0.9], [0.5, 0.1]], ontology=m)
    assert cfg.knowledge_tiers == ((0.5, 0.9), (0.5, 0.1))
    assert cfg.ontology == tuple(map(tuple, m))
    with pytest.raises(TypeError):
        cfg.knowledge_tiers[0][0] = 5.0
    with pytest.raises(TypeError):
        cfg.ontology[0][0] = 5.0
    assert hash(cfg) == hash(ScenarioConfig.from_dict(cfg.to_dict()))


def test_config_builds_its_transfer_params_once():
    cfg = tiny_config(remembrance=0.9, popularity_decay=0.02, ontology_belief_weight="source")
    params = cfg.transfer_params()
    assert cfg.transfer_params() is params
    assert params == transfer.TransferParams(
        remembrance=0.9,
        trust_history_weight=cfg.trust_history_weight,
        popularity_decay=0.02,
        belief_weight_mode="source",
    )


def test_config_dict_holds_exactly_the_fields():
    cfg = tiny_config()
    assert list(cfg.to_dict()) == [f.name for f in dataclasses.fields(ScenarioConfig)]
    assert "TransferParams" not in repr(cfg)


def test_tier_counts_largest_remainder():
    thirds = [1 / 3, 1 / 3, 1 / 3]
    assert _tier_counts(thirds, 99) == [33, 33, 33]
    assert _tier_counts(thirds, 100) == [34, 33, 33]
    assert _tier_counts([0.5, 0.25, 0.25], 8) == [4, 2, 2]


def test_init_population_hits_tier_targets_exactly():
    cfg = tiny_config(
        n_actors=9,
        knowledge_tiers=[[1 / 3, 0.9], [1 / 3, 0.1], [1 / 3, 0.5]],
    )
    world = init_population(cfg, np.random.default_rng(0))
    per_actor = take_snapshot(world, 0).actor_mean_abs_value
    assert np.allclose(per_actor[:3], 0.9, atol=EXACT, rtol=0)
    assert np.allclose(per_actor[3:6], 0.1, atol=EXACT, rtol=0)
    assert np.allclose(per_actor[6:], 0.5, atol=EXACT, rtol=0)
    assert np.all(np.abs(world.belief) == 1.0)
    assert np.all(world.popularity == 0.0)
    off_diag = world.trust[~np.eye(cfg.n_actors, dtype=bool)]
    assert np.all(off_diag == 0.5)
    assert np.all(np.diag(world.trust) == 1.0)


def test_init_population_zero_tier_gives_zero_values():
    cfg = tiny_config(knowledge_tiers=[[1.0, 0.0]])
    world = init_population(cfg, np.random.default_rng(0))
    assert np.all(world.values() == 0.0)


def test_step_is_deterministic_given_seed():
    cfg = tiny_config()

    def trajectory():
        rng = np.random.default_rng(cfg.rng_seed)
        world = init_population(cfg, rng)
        stream = sessions(world, cfg, rng)
        outcomes = [step(world, cfg, stream) for _ in range(20)]
        return world, outcomes

    w1, o1 = trajectory()
    w2, o2 = trajectory()
    assert np.array_equal(w1.knowledge, w2.knowledge)
    assert np.array_equal(w1.belief, w2.belief)
    assert np.array_equal(w1.trust, w2.trust)
    assert np.array_equal(w1.popularity, w2.popularity)
    assert [o.sent for o in o1] == [o.sent for o in o2]
    assert [o.responders for o in o1] == [o.responders for o in o2]


@pytest.mark.parametrize("size, one_receiver", [
    *(pytest.param(size, False, id=str(size)) for size in (1, 2, 7, 10, 33)),
    *(pytest.param(size, True, id=f"receiver-{size}") for size in (1, 2, 99, 999, 20000)),
])
def test_assertion_draw_consumes_the_generator_as_choice_does(size, one_receiver):
    # step draws the assertion by index; the golden runs were drawn with rng.choice(known).
    # It draws one receiver by index too, where they used rng.choice(n - 1, size=1, replace=False).
    known = np.arange(size) * 3 + 1
    for seed in range(200):
        by_choice, by_index = np.random.default_rng(seed), np.random.default_rng(seed)
        if one_receiver:
            assert by_index.integers(size) == by_choice.choice(size, size=1, replace=False)[0]
        else:
            assert known[by_index.integers(known.size)] == by_choice.choice(known)
        assert by_index.random() == by_choice.random()


def per_step_sessions(cfg, steps):
    """A run's sessions drawn and played one step at a time, with `rng.choice` as the golden runs drew them.

    Returns each step's (actors, index), sender first, the generator's next `random()` and the world.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    world = init_population(cfg, rng)
    params, sessions = cfg.transfer_params(), []
    for _ in range(steps):
        sender = int(rng.integers(cfg.n_actors))
        others = [a for a in range(cfg.n_actors) if a != sender]
        receivers = [others[r] for r in rng.choice(cfg.n_actors - 1, size=cfg.n_receivers, replace=False)]
        known = (world.knowledge[sender] > 0.0).nonzero()[0]
        if known.size:
            index = int(rng.choice(known))
            profile = game.select_profile(game.build_payoff_tensor(world, sender, receivers, index, params))
        else:
            index, profile = None, game.StrategyProfile.all_hold(cfg.n_receivers)
        transfer.execute_session(world, sender, receivers, index, profile, params)
        sessions.append(([sender, *receivers], index))
    return sessions, rng.random(), world


@pytest.mark.parametrize("n, n_receivers, steps", [(2, 1, 30), (3, 2, 30), (8, 1, 60), (100, 5, 120), (1000, 1, 300)])
@pytest.mark.parametrize("remembrance", [0.9, 1e-300])
def test_the_stream_draws_what_one_draw_per_step_draws(n, n_receivers, steps, remembrance):
    # A quarter of the senders know nothing from the start; at remembrance
    # 1e-300 a sender's knowledge underflows to 0 after a few ticks, so
    # later stars of a run know less than the world's rows show.
    cfg = tiny_config(n_actors=n, n_receivers=n_receivers, n_steps=steps, remembrance=remembrance,
                      knowledge_tiers=[[0.25, 0.0], [0.75, 0.9]], rng_seed=11)
    expected, next_random, expected_world = per_step_sessions(cfg, steps)
    rng = np.random.default_rng(cfg.rng_seed)
    world = init_population(cfg, rng)
    stream = sessions(world, cfg, rng)
    outcomes = [step(world, cfg, stream) for _ in range(steps)]
    assert [(list(o.utility_deltas), o.assertion_index) for o in outcomes] == expected
    # The same state of the generator: nothing was drawn past the last step.
    assert rng.random() == next_random
    # The same world, bit for bit, however the stars were grouped into runs.
    for name in ("knowledge", "belief", "popularity", "trust", "reputation"):
        assert getattr(world, name).tobytes() == getattr(expected_world, name).tobytes(), name
    assert any(o.sent for o in outcomes)
    # Forced holds came up (at n=2 the one ignorant actor learns before it is drawn to send).
    assert n == 2 or any(index is None for _, index in expected)
    with pytest.raises(StopIteration):
        step(world, cfg, stream)


def test_a_senders_ticks_through_subnormals_are_one_product_each():
    # 5 * 2**-1074 halves to 2, 1 and then 0 (ties to even), so the per-step
    # reference forces every sender to hold from step 4 on; in one product,
    # 5 * 0.5**3 rounds to 2**-1074, and a later star of a run would still send.
    cfg = tiny_config(n_actors=1000, n_steps=12, remembrance=0.25, knowledge_tiers=[[1.0, 5 * 2.0**-1074]],
                      rng_seed=11)
    expected, next_random, expected_world = per_step_sessions(cfg, cfg.n_steps)
    assert [index is None for _, index in expected] == [False] * 3 + [True] * 9
    rng = np.random.default_rng(cfg.rng_seed)
    world = init_population(cfg, rng)
    stream = sessions(world, cfg, rng)
    outcomes = [step(world, cfg, stream) for _ in range(cfg.n_steps)]
    assert [(list(o.utility_deltas), o.assertion_index) for o in outcomes] == expected
    assert rng.random() == next_random
    for name in ("knowledge", "belief", "popularity", "trust", "reputation"):
        assert getattr(world, name).tobytes() == getattr(expected_world, name).tobytes(), name


def test_every_star_with_a_tensor_is_selected_through_the_module_global(monkeypatch):
    # bench/worker.py wraps harness.select_profile to check every choice by brute force.
    counts = {"selected": 0, "holds": 0}
    select, execute = harness.select_profile, harness.execute_session

    def selected(tensor):
        counts["selected"] += 1
        return select(tensor)

    def executed(world, sender, receivers, index, *args):
        counts["holds"] += index is None
        return execute(world, sender, receivers, index, *args)

    monkeypatch.setattr(harness, "select_profile", selected)
    monkeypatch.setattr(harness, "execute_session", executed)
    cfg = scenario_config("experts", knowledge_tiers=[[0.5, 0.0], [0.5, 0.9]], n_steps=300, rng_seed=3)
    simulate(cfg)
    assert counts["holds"] > 0
    assert counts["selected"] == cfg.n_steps - counts["holds"]


def test_ignorant_sender_is_forced_to_hold():
    cfg = tiny_config(knowledge_tiers=[[1.0, 0.0]], popularity_decay=0.0)
    rng = np.random.default_rng(1)
    world = init_population(cfg, rng)
    before = world.copy()
    out = step(world, cfg, sessions(world, cfg, rng))
    assert not out.sent and out.assertion_index is None
    assert np.array_equal(world.knowledge, before.knowledge)
    assert np.array_equal(world.trust, before.trust)


@pytest.mark.parametrize("scenario, tiers", [
    ("experts", None),
    ("experts", [[0.5, 0.0], [0.5, 0.9]]),  # half the senders start out knowing nothing
    ("trolls", None),
])
def test_a_step_plays_its_star_once(monkeypatch, scenario, tiers):
    stars = {"tensor": 0, "session": 0}

    def counted(module, key):
        play_star = module.play_star

        def wrapper(world, run, *args):
            stars[key] += len(run)
            return play_star(world, run, *args)

        monkeypatch.setattr(module, "play_star", wrapper)

    counted(game, "tensor")
    counted(transfer, "session")
    overrides = {} if tiers is None else {"knowledge_tiers": tiers}
    result = simulate(scenario_config(scenario, n_steps=300, snapshot_every=100, rng_seed=3, **overrides))
    assert result.sends > 0
    assert stars["tensor"] + stars["session"] == 300
    # Only a sender who knows nothing skips the tensor, and its hold is played alone.
    assert (stars["session"] > 0) == (tiers is not None)


@pytest.mark.parametrize("cfg, holds", [
    pytest.param(ScenarioConfig(n_actors=1000, n_steps=1000, rng_seed=1), False, id="n1000"),
    pytest.param(scenario_config("trolls", n_receivers=7, n_steps=300, rng_seed=1), False, id="N7"),
    # Half the senders start out knowing nothing, so forced holds end runs too.
    pytest.param(scenario_config("experts", knowledge_tiers=[[0.5, 0.0], [0.5, 0.9]], n_steps=300, rng_seed=3),
                 True, id="holds"),
])
def test_a_run_of_stars_ends_only_where_the_next_star_must_wait(monkeypatch, cfg, holds):
    calls = []  # in order: each run's stars as actor sets, or None for a forced hold played alone

    def recorded(module, hold):
        play_star = module.play_star

        def wrapper(world, run, *args):
            calls.append(None if hold else [{sender, *receivers} for sender, receivers, _ in run])
            return play_star(world, run, *args)

        monkeypatch.setattr(module, "play_star", wrapper)

    recorded(game, False)
    recorded(transfer, True)
    simulate(cfg)
    runs = [run for run in calls if run is not None]
    assert sum(map(len, runs)) + calls.count(None) == cfg.n_steps
    assert (None in calls) == holds
    assert max(map(len, runs)) > 1
    for run in runs:  # the stars of a run share no actor
        assert len(set().union(*run)) == sum(map(len, run))
    for earlier, later in zip(calls, calls[1:]):
        if earlier is not None and later is not None:  # nothing but a collision ends a run
            assert not later[0].isdisjoint(set().union(*earlier))


def test_two_actor_world_always_pairs_them():
    cfg = tiny_config(n_actors=2, n_steps=10)
    rng = np.random.default_rng(3)
    world = init_population(cfg, rng)
    stream = sessions(world, cfg, rng)
    for _ in range(10):
        out = step(world, cfg, stream)
        assert out.utility_deltas.keys() == {0, 1}


def test_run_snapshot_schedule():
    def steps(cfg):
        return [s.step for s in simulate(cfg).snapshots]

    assert steps(tiny_config(n_steps=0)) == [0]
    assert steps(tiny_config(n_steps=40, snapshot_every=10)) == [0, 10, 20, 30, 40]
    # a final step off the grid is still recorded, once
    assert steps(tiny_config(n_steps=7, snapshot_every=3)) == [0, 3, 6, 7]


def test_snapshot_histogram_counts_actors():
    cfg = tiny_config()
    rng = np.random.default_rng(5)
    world = init_population(cfg, rng)
    snap = take_snapshot(world, 0)
    assert snap.histogram.sum() == cfg.n_actors
    assert len(snap.histogram) == 20
    # mean value of +1 everywhere lands in the last (closed) bin
    world.belief[:] = 1.0
    world.knowledge[:] = 1.0
    snap = take_snapshot(world, 1)
    assert snap.histogram[-1] == cfg.n_actors
    assert snap.mean_abs_value == 1.0


def test_all_knowing_agreeing_population_stays_at_one():
    cfg = tiny_config(
        n_steps=30,
        knowledge_tiers=[[1.0, 1.0]],
        remembrance=1.0,
    )
    rng = np.random.default_rng(9)
    world = init_population(cfg, rng)
    world.belief[:] = 1.0  # identical beliefs everywhere
    snaps = [take_snapshot(world, 0)]
    stream = sessions(world, cfg, rng)
    for t in range(30):
        step(world, cfg, stream)
        snaps.append(take_snapshot(world, t + 1))
    assert all(s.mean_abs_value == 1.0 for s in snaps)


def test_simulate_series_is_reproducible():
    cfg = tiny_config(n_steps=30, snapshot_every=5)
    r1 = simulate(cfg)
    r2 = simulate(cfg)
    assert len(r1.snapshots) == len(r2.snapshots)
    for s1, s2 in zip(r1.snapshots, r2.snapshots):
        assert s1.step == s2.step
        assert s1.mean_value == s2.mean_value
        assert s1.mean_abs_value == s2.mean_abs_value
        assert s1.std_value == s2.std_value
        assert np.array_equal(s1.actor_mean_value, s2.actor_mean_value)
        assert np.array_equal(s1.histogram, s2.histogram)
    assert r1.sends == r2.sends and r1.responses == r2.responses


def test_population_invariants_hold_at_every_snapshot():
    cfg = tiny_config(n_steps=60, snapshot_every=6, remembrance=0.95,
                      ontology_belief_weight="source")
    rng = np.random.default_rng(cfg.rng_seed)
    world = init_population(cfg, rng)
    stream = sessions(world, cfg, rng)
    for t in range(cfg.n_steps):
        step(world, cfg, stream)
        if t % cfg.snapshot_every == 0:
            world.validate()
            snap = take_snapshot(world, t)
            assert snap.histogram.sum() == cfg.n_actors


def test_a_run_whose_state_is_corrupted_mid_run_fails(monkeypatch):
    # No session reads the self-trust diagonal, so nothing on the way
    # notices the corruption; the range guard at the end of the run must.
    def corrupting_step(world, cfg, stream):
        outcome = step(world, cfg, stream)
        world.trust[3, 3] = 0.5
        return outcome

    simulate(tiny_config())
    monkeypatch.setattr(harness, "step", corrupting_step)
    with pytest.raises(ValueError, match="diagonal"):
        simulate(tiny_config())


def test_a_run_whose_trust_is_written_around_the_sessions_fails(monkeypatch):
    # An in-range off-diagonal write passes every range guard; only the
    # kept reputations, which it leaves stale, show it.
    def corrupting_step(world, cfg, stream):
        outcome = step(world, cfg, stream)
        world.trust[2, 5] = 0.25
        return outcome

    monkeypatch.setattr(harness, "step", corrupting_step)
    with pytest.raises(ValueError, match="kept reputations"):
        simulate(tiny_config())


def test_explicit_ontology_is_used():
    m = [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    cfg = tiny_config(ontology=m)
    cfg.validate()
    world = init_population(cfg, np.random.default_rng(0))
    assert np.array_equal(world.ontology.m, np.array(m))
    with pytest.raises(ConfigError):
        mismatched = tiny_config(ontology=[[1.0, 0.0], [0.0, 1.0]])  # 2x2 for 3 assertions
        init_population(mismatched, np.random.default_rng(0))


def test_explicit_ontology_must_match_n_assertions():
    with pytest.raises(ConfigError, match="n_assertions"):
        tiny_config(n_assertions=5, ontology=[[1.0, 0.0], [0.0, 1.0]]).validate()
