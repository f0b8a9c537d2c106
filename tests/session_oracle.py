"""Straight-line, loop-based re-implementation of one broadcast session and of its game.

This is the independent oracle for the session protocol: plain Python
floats and explicit loops, written directly from the update rules, sharing
no code with the library's vectorized path. Tests compare the two on
random micro-worlds, through the one bridge at the end of this module:
`replay` plays a session on a mirror of a `World` and `gap` measures how
far a played world is from that mirror. `oracle_game` is the brute-force
equilibrium search and selection rule on plain (send, *feedback) tuples,
and `oracle_run` plays a whole run by the two alone, drawing its sessions
from the generator that built the population.
"""

import dataclasses
import itertools
import math

import numpy as np


def clamp(v, lo, hi):
    return lo if v < lo else hi if v > hi else v


def combine(k_have, b_have, dk, db, weight):
    """Learning operator on one tuple, with an explicit belief weight."""
    k_new = k_have + dk * (1.0 - k_have)
    if db >= 0.0:
        b_new = b_have + weight * db * (1.0 - b_have)
    else:
        b_new = b_have + weight * db * (1.0 + b_have)
    return clamp(k_new, 0.0, 1.0), clamp(b_new, -1.0, 1.0)


def utilities(w, ids):
    """Utility of each requested actor, from scratch."""
    n = len(w["k"])
    a_count = len(w["k"][0])
    out = []
    for x in ids:
        knowledge = sum(abs(w["k"][x][j] * w["b"][x][j]) for j in range(a_count)) / a_count
        rep = sum(w["trust"][y][x] for y in range(n) if y != x) / (n - 1)
        kw, rw, pw = w["personality"][x]
        out.append(kw * knowledge + rw * rep + pw * w["pop"][x])
    return out


def oracle_session(w, sender, receivers, index, send, feedback, params):
    """Mutate the dict-of-lists world `w` through one full session.

    Returns {actor: utility delta} for the sender and receivers.
    """
    zeta = params["remembrance"]
    xi = params["trust_history_weight"]
    decay = params["popularity_decay"]
    mode = params["belief_weight_mode"]
    m = w["m"]
    n = len(w["k"])
    a_count = len(w["k"][0])

    participants = [sender] + list(receivers)
    u_before = utilities(w, participants)

    # forgetting ticks for everyone
    root = math.sqrt(zeta)
    for x in range(n):
        for j in range(a_count):
            w["k"][x][j] *= root
            w["b"][x][j] *= root

    responders = []
    if send:
        # what each star member holds right after forgetting: a comment
        # carries the responder's own tuple from here, and both trust
        # updates compare these beliefs
        said_k = {x: w["k"][x][index] for x in participants}
        said_b = {x: w["b"][x][index] for x in participants}
        k_sent = said_k[sender]
        b_sent = said_b[sender]
        pre_value = {r: said_k[r] * said_b[r] for r in receivers}
        old_trust = {r: w["trust"][r][sender] for r in receivers}

        for r in receivers:
            guess = sum(m[kk][index] * w["b"][r][kk] for kk in range(a_count)) / a_count
            mix = old_trust[r] * b_sent + (1.0 - old_trust[r]) * guess
            for j in range(a_count):
                dk = w["w"][r] * k_sent if j == index else 0.0
                db = m[index][j] * mix
                weight = dk if mode == "transferred" else w["w"][r] * k_sent
                w["k"][r][j], w["b"][r][j] = combine(
                    w["k"][r][j], w["b"][r][j], dk, db, weight
                )

        for r in receivers:
            agreement = 1.0 - abs(b_sent - said_b[r])
            w["trust"][r][sender] = clamp(
                xi * old_trust[r] + (1.0 - xi) * agreement, 0.0, 1.0
            )
        total = 0.0
        for r in receivers:
            total += abs(w["k"][r][index] * w["b"][r][index] - pre_value[r])
        delta_p = clamp(total / len(receivers), 0.0, 1.0)
        w["pop"][sender] = w["pop"][sender] + delta_p - w["pop"][sender] * delta_p

        for r, responds in zip(receivers, feedback):
            if not responds:
                continue
            responders.append(r)
            t_old = w["trust"][sender][r]
            a_old = w["k"][sender][index] * w["b"][sender][index]
            if mode == "source":
                # the comment's belief, weighted by the responder's own
                # post-forget knowledge, not the tuple the send just made
                for j in range(a_count):
                    db = m[index][j] * (t_old * said_b[r])
                    _, w["b"][sender][j] = combine(
                        w["k"][sender][j], w["b"][sender][j], 0.0, db, said_k[r]
                    )
            agreement = 1.0 - abs(said_b[sender] - said_b[r])
            w["trust"][sender][r] = clamp(
                xi * t_old + (1.0 - xi) * agreement, 0.0, 1.0
            )
            # the comment changed one of the responder's n - 1 others
            a_new = w["k"][sender][index] * w["b"][sender][index]
            delta_p = clamp(abs(a_new - a_old), 0.0, 1.0) / (n - 1)
            w["pop"][r] = w["pop"][r] + delta_p - w["pop"][r] * delta_p

    active = set([sender] + responders) if send else set()
    for x in range(n):
        if x not in active:
            w["pop"][x] *= 1.0 - decay

    u_after = utilities(w, participants)
    return {p: u_after[i] - u_before[i] for i, p in enumerate(participants)}


def oracle_game(cells):
    """The pure equilibria, the selected profile, and whether the regret fallback chose it.

    `cells` maps (send, *feedback) tuples to payoff vectors, one entry per
    player; a profile that holds reads the all-hold vector whatever its
    feedback. A profile is an equilibrium when no player gains by flipping
    its own flag. Among equilibria the highest sender payoff wins, then the
    least tuple (holding and silence first). With no equilibrium, the least
    total regret wins, ties again to the least tuple.
    """
    n_players = len(next(iter(cells)))
    hold = (False,) * n_players
    feasible = [hold] + [(True, *fb) for fb in itertools.product((False, True), repeat=n_players - 1)]

    def payoff(bits):
        return cells[bits] if bits[0] else cells[hold]

    def gains(bits):
        own = payoff(bits)
        return [payoff(bits[:i] + (not bits[i],) + bits[i + 1:])[i] - own[i] for i in range(n_players)]

    equilibria = [bits for bits in feasible if all(g <= 0.0 for g in gains(bits))]
    if equilibria:
        best = max(payoff(bits)[0] for bits in equilibria)
        return equilibria, min(bits for bits in equilibria if payoff(bits)[0] == best), False
    regret = {bits: sum(max(0.0, g) for g in gains(bits)) for bits in feasible}
    least = min(regret.values())
    return equilibria, min(bits for bits in feasible if regret[bits] == least), True


def _copy(w):
    """A copy of the mirror `w` that a session may write without touching `w`."""
    return {**w, "k": [list(row) for row in w["k"]], "b": [list(row) for row in w["b"]], "pop": list(w["pop"]),
            "trust": [list(row) for row in w["trust"]]}


def oracle_run(w, rng, n_receivers, params, n_steps):
    """Play `n_steps` sessions on the mirror `w` in place, every game played and solved by the oracle.

    `rng` is the generator that built the population, read on as a run
    draws each session: the sender uniformly, then `n_receivers` distinct
    others by position among the rest (the friend-list order), then an
    assertion uniformly among the sender's known ones (k > 0); the last
    two as `rng.choice` draws them. A sender who knows none holds. Otherwise every
    feasible profile is played by `oracle_session` on a copy of the
    mirror, `oracle_game` selects one, and that one is played on the
    mirror. `params` is the dict of `TransferParams` fields. Returns one
    (sender, receivers, index, profile, payoffs) per step: `payoffs` is the
    number of distinct sender payoffs among the game's pure equilibria (0
    for a forced hold), and above 1 the sender's payoff decided.
    """
    n = len(w["k"])
    hold = (False,) * (n_receivers + 1)
    sends = list(itertools.product((True,), *[(False, True)] * n_receivers))
    steps = []
    for _ in range(n_steps):
        sender = int(rng.integers(n))
        others = [x for x in range(n) if x != sender]
        receivers = [others[r] for r in rng.choice(n - 1, size=n_receivers, replace=False)]
        known = [j for j, k in enumerate(w["k"][sender]) if k > 0.0]
        index, profile, payoffs = None, hold, set()
        if known:
            index = int(rng.choice(known))
            cells = {}
            for bits in [hold, *sends]:
                deltas = oracle_session(_copy(w), sender, receivers, index, bits[0], bits[1:], params)
                cells[bits] = [deltas[x] for x in (sender, *receivers)]
            equilibria, profile, _ = oracle_game(cells)
            payoffs = {cells[bits][0] for bits in equilibria}
        oracle_session(w, sender, receivers, index, profile[0], profile[1:], params)
        steps.append((sender, receivers, index, profile, len(payoffs)))
    return steps


def as_oracle_world(world):
    """The dict-of-lists mirror of a `World` that `oracle_session` plays on."""
    return {
        "k": [list(row) for row in world.knowledge],
        "b": [list(row) for row in world.belief],
        "pop": list(world.popularity),
        "trust": [list(row) for row in world.trust],
        "personality": [tuple(row) for row in world.personality],
        "w": list(world.willingness),
        "m": [list(row) for row in world.ontology.m],
    }


def replay(world, sender, receivers, index, send, feedback, params):
    """Play one session on a mirror of `world`, which stays as it is.

    `params` is a `TransferParams`. Returns the oracle's {actor: utility
    delta} and the mirror after the session.
    """
    mirror = as_oracle_world(world)
    deltas = oracle_session(mirror, sender, receivers, index, send, feedback, dataclasses.asdict(params))
    return deltas, mirror


def gap(world, mirror):
    """The largest absolute gap from `world` to `mirror` in knowledge, belief, popularity and trust."""
    pairs = (("knowledge", "k"), ("belief", "b"), ("popularity", "pop"), ("trust", "trust"))
    return max(float(np.abs(getattr(world, key) - np.array(mirror[m])).max()) for key, m in pairs)
