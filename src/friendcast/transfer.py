"""Knowledge transfer, feedback transfer, and the trust/popularity updates.

A session is one atomic broadcast: the sender may publish one assertion to
every receiver at once, each receiver may then comment in friend-list
order, and trust, reputation, and popularity move as a result. Forgetting
ticks once per session for every actor, whether or not anything was sent;
actors who neither published nor commented lose a slice of popularity.

The paper's abstract (PAPER.md) says information goes from the sender to
its receivers "and back (in the form of comments)" but does not settle
what a comment carries, what trust compares, or how popularity and
reputation scale against each other. The rules chosen here:

- A comment carries the responder's own (k, b) tuple at the published
  index as it stood right after the forgetting tick, not the belief the
  send has just pulled toward the sender's. As in bounded-confidence
  exchange (Deffuant et al. 2000), each party moves toward the other's
  prior opinion; a comment that echoed the sender would inflate the
  sender's certainty before the population agrees.
- Both trust updates compare the same two post-forget beliefs: each
  receiver's trust in the sender, and the sender's trust in each
  responder, move toward 1 - |b_sender - b_receiver|.
- A send credits the sender's popularity with the receivers' mean value
  change. A comment credits the responder's popularity with the sender's
  value change divided by n - 1: it changed one of the responder's n - 1
  others, which is the weight one trust entry has in reputation. Credited
  at full scale, a comment's popularity outweighed its reputation effect
  for every personality, so reputation-driven actors commented on every
  disagreement exactly like popularity-driven ones.

`play_star` plays these rules on the star alone, one row of action flags
per cell (who sends, who comments) along one cell axis; how a profile is
numbered as a cell is `game`'s business. It reads and writes only the
participants' k and b rows, popularity and kept reputations, and the
trust columns that give their reputations after the session. It is also
the one place that checks a star. A step plays its star once: the payoff
tensor plays every feasible cell, and `execute_session` commits the
selected row. Stars that share no actor play in one call along a leading
star axis, each as it plays once the stars before it are committed. The
call returns the run's utility changes as one read-only stack, one row
per star, beside each star's cells; a star's deltas are its row of that
stack, and `game` reads the stack as the run's payoffs.

Forgetting has one home, `forget`, which the whole world and each star
played ahead call, and `known_after` reads a sender's known assertions
after the ticks of a run's earlier sessions. A hold changes no
participant beyond the forgetting and idle-decay ticks, which
`execute_session` applies to every actor. A send changes the receivers'
k and b rows alike in every sending cell, and only the sender's belief
differs between them. So a star keeps the receivers' rows after a send,
and the sender's belief once per cell. Both belief modes learn a send
along the ontology row of the published assertion; "transferred" keeps
only the published belief of it, by a masked copy that leaves every
other bit alone. One
average-knowledge pass over each star's rows before the session, after a
hold and after a send gives the utility before the session and every
receiver's term in each cell; a cell's deltas are its utility less the
one before. Both trust updates are one call on the stacked pair of trust
vectors, gathered and written back with one index pair. "Source"
comments are one chain over the sender's belief in every cell: each
receiver in turn sways it, kept only where it comments, and the sender's
value after each comment credits every responder's popularity in one
pass.

Playing a star takes many numpy calls on arrays of a few elements, so
their count, not the arithmetic, sets its cost, and a run of stars pays
it about once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .knowledge import clamped_array, combined_belief, combined_knowledge
from .world import World, average_knowledge, reputation_of, utility_of

# How the learning operator weights a transferred belief when the ontology
# spreads it to correlated assertions. "transferred" uses the knowledge
# quantity actually delivered per assertion: zero off the transferred index,
# so correlated beliefs stay put and comments (which deliver no knowledge)
# leave the sender's tuples untouched. "source" uses the publishing party's
# knowledge of the transferred assertion as the weight everywhere, which
# lets correlated beliefs shift and comments sway the sender.
BELIEF_WEIGHT_MODES = ("transferred", "source")


@dataclass(frozen=True)
class TransferParams:
    """Session-level rates: remembrance, trust history weight, idle decay."""

    remembrance: float = 1.0
    trust_history_weight: float = 0.5
    popularity_decay: float = 0.0
    belief_weight_mode: str = "transferred"

    def __post_init__(self):
        for name in ("remembrance", "trust_history_weight", "popularity_decay"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v!r} outside [0, 1]")
        if self.belief_weight_mode not in BELIEF_WEIGHT_MODES:
            raise ValueError(f"unknown belief weight mode {self.belief_weight_mode!r}")


@dataclass
class SessionOutcome:
    """What one session did: who acted and how each player's utility moved."""

    sent: bool
    assertion_index: int | None
    responders: tuple[int, ...] = ()
    utility_deltas: dict[int, float] = field(default_factory=dict)


def forget(params: TransferParams, *arrays) -> None:
    """Apply one session's forgetting tick in place: multiply each k or b array by √remembrance.

    Every actor forgets once per session. A remembrance of 1 would leave
    every bit as it is, so it skips the products. The whole world
    (`execute_session`) and each star played ahead (`play_star`) tick
    here, so a row ticks alike wherever it is ticked.
    """
    if params.remembrance != 1.0:
        root = np.sqrt(params.remembrance)
        for values in arrays:
            values *= root


def known_after(row, ticks: int, params: TransferParams) -> np.ndarray:
    """Indices of the assertions a knowledge row holds (k > 0) after `ticks` forgetting ticks.

    The ticks are one `np.multiply.accumulate` over the row and `ticks`
    copies of √remembrance: the same products in the same order as
    `ticks` calls of `forget`, so an entry underflows to 0 exactly where
    they take it there (a closed-form power rounds differently).
    """
    if params.remembrance != 1.0 and ticks:
        steps = np.full((ticks + 1, len(row)), np.sqrt(params.remembrance))
        steps[0] = row
        row = np.multiply.accumulate(steps)[-1]
    return (row > 0.0).nonzero()[0]


def trust_update(t_old, b_sender, b_receiver, history_weight: float):
    """Move directed trust toward agreement between two beliefs, elementwise.

    Perfect agreement pulls trust toward 1, maximal disagreement toward
    -1 before clamping; history_weight=1 freezes trust at its old value.
    """
    delta = 1.0 - np.abs(b_sender - b_receiver)
    return np.minimum(np.maximum(history_weight * t_old + (1.0 - history_weight) * delta, 0.0), 1.0)


@dataclass
class StarCells:
    """Outcome of hypothetical sessions on a star, one row per cell played, in the order played.

    Within a cell, entries are the sender, then the receivers in friend-list
    order. A hold leaves every k and b row as the forgetting tick does, so
    no array keeps a hold's rows. A send moves the receivers' rows alike in
    every sending cell, and the sender's knowledge not at all, so the
    receivers' rows are kept once; the sender's belief, which "source"
    comments sway, is kept once per cell. The trust vectors are shared: a
    send moves them alike in every sending cell. When no cell sends, the
    receivers' rows and the trust vectors are as the tick leaves them.
    The deltas are the star's row of the read-only stack `play_star`
    returns, so a tensor's payoffs cannot move under it.
    """

    session: tuple  # (sender, receivers, index, params) the cells were played for
    acts: np.ndarray  # (C, N+1) the action flags each row played
    deltas: np.ndarray  # (C, N+1) utility changes from before the session
    knowledge: np.ndarray  # (N, A) the receivers' rows after a send
    belief: np.ndarray  # (N, A) likewise
    sender_belief: np.ndarray  # (C, A) the sender's belief in each cell
    popularity: np.ndarray  # (C, N+1)
    reputation: np.ndarray  # (C, N+1)
    trust_in_sender: np.ndarray  # (N,) receivers' trust in the sender after a send
    trust_in_receivers: np.ndarray  # (N,) sender's trust in each after its comment


@functools.lru_cache(maxsize=None)
def _trust_pair(size: int, stars: int) -> tuple[np.ndarray, np.ndarray]:
    """Run positions (rows, columns) of the two trust vectors of each star in a run's trust columns.

    For star j, row 0 is each receiver's trust in the sender, row 1 the
    sender's trust in each receiver; a run position p stands for actor
    `ids[p]` and for the p-th gathered column, star j's at j*size onward.
    """
    receivers = np.arange(1, size)
    senders = np.zeros_like(receivers)
    offsets = np.arange(0, stars * size, size)[:, None, None]
    pair = offsets + np.array((receivers, senders)), offsets + np.array((senders, receivers))
    for shared in pair:
        shared.setflags(write=False)
    return pair


def play_star(world: World, stars, params: TransferParams, acts) -> tuple[np.ndarray, list[StarCells]]:
    """Play the session of each given row of action flags on each star of a run, each star alone.

    `stars` is a run of sessions (sender, receivers, index) with the same
    number N of receivers and no actor in two of them; `acts` is (C, N+1):
    whether the sender sends, then whether each receiver comments, in
    friend-list order. A row of no flags is the all-hold session, in which
    every participant is inactive, forgets and decays. Returns the run's
    deltas, a read-only (K, C, N+1) array of every cell's utility changes,
    and one `StarCells` per star, in run order, whose deltas are its
    star's row of it. Their receivers' k and b rows are views of the send
    layer of one (K, 3, N+1, A) array that holds each star's rows before
    the session, after a hold and after a send.

    Star j is played as the session j steps from now. A session reads and
    writes only its star's rows and trust columns, so all that the j
    sessions before it change of star j's state, whichever cells they
    commit, is their forgetting and idle-decay ticks: its rows get them as
    j successive `forget` calls, as j commits make them, not as a power,
    then its own tick. These are the products `execute_session` makes on
    the whole world, in the same order, so a hold's rows are the world's
    after the tick, bit for bit, and a hold commits nothing else. `world`
    is only read, and a run played ahead stays exact only while nothing
    but its stars' commits, one per step and in order, changes the world
    (`harness.sessions`). Every cell is, element for element, the
    arithmetic of that session on the whole world, so its bits depend
    neither on the other cells nor on the other stars.

    A star needs at least one receiver, and no actor may appear twice in
    the run; every id and, when a cell sends, every star's `index` must
    exist in `world`. When no cell sends, `index` may be None.

    A cell's deltas are its utility less the participants' utility before
    the session, both from one average-knowledge pass. Every average sums
    a C-contiguous row along its last axis, so a row rounds as it does in
    `World.utilities`. The comment chain and the single trust update run
    on every row. An idle-decay multiplier of 1.0 leaves an active
    participant's popularity as it is, bit for bit.
    """
    sessions = [(sender, tuple(receivers), index, params) for sender, receivers, index in stars]
    ids = [(sender, *receivers) for sender, receivers, _, _ in sessions]
    flat = [i for star in ids for i in star]
    size, n = len(ids[0]), world.n_actors
    if size < 2 or len(flat) != size * len(ids) or len(set(flat)) < len(flat) or not 0 <= min(flat) <= max(flat) < n:
        raise ValueError(f"a star needs a receiver, and distinct actor ids in [0, {n}) across its run")
    acts = np.asarray(acts, dtype=bool)
    sends = acts[:, 0].nonzero()[0]
    ids, flat = np.array(ids), np.array(flat)
    weights = world.personality.take(ids, axis=0)  # (K, N+1, 3)
    knowledge, belief = world.knowledge.take(ids, axis=0), world.belief.take(ids, axis=0)
    popularity = world.popularity[ids]
    for later in range(1, len(ids)):  # each session's ticks on the stars after it, one product each
        forget(params, knowledge[later:], belief[later:])
        popularity[later:] *= 1.0 - params.popularity_decay
    shape = len(ids), size
    reputation = world.reputation[flat].reshape(shape)
    # A column-contiguous copy, summed column by column as World.reputations sums it.
    columns = world.trust[:, flat]
    self_trust = world.trust.diagonal()[flat]
    # Each star's receivers' trust in its sender, then the sender's in each receiver.
    pair_rows, pair_columns = _trust_pair(size, len(ids))
    pair = flat.take(pair_rows), pair_columns
    trust = columns[pair]

    # Each star's rows before the session, after a hold and after a send: (K, 3, N+1, A).
    k_rows, b_rows = knowledge[:, None].repeat(3, axis=1), belief[:, None].repeat(3, axis=1)
    forget(params, k_rows[:, 1:], b_rows[:, 1:])
    knowledge, belief = k_rows[:, 1], b_rows[:, 1]  # after forgetting
    sender_belief = belief[:, None, 0].repeat(len(acts), axis=1)  # (K, C, A)
    cell_popularity = popularity[:, None].repeat(len(acts), axis=1)
    if len(sends):
        index = [i for _, _, i, _ in sessions]
        if None in index or not 0 <= min(index) <= max(index) < world.n_assertions:
            raise ValueError(f"a send needs an assertion index in [0, {world.n_assertions})")
        index, j = np.array(index), np.arange(len(ids))
        # Post-forget tuples: a comment carries the responder's own, and both
        # trust updates compare these beliefs.
        said_k, said = knowledge[j, :, index], belief[j, :, index]
        k_sent, b_sent = said_k[:, :1], said[:, :1]
        in_sender, in_receivers = trust[:, 0], trust[:, 1]  # as they stood before the session
        m = world.ontology.m
        # One product per star on a strided column of m, as one star alone
        # makes it: BLAS sums a strided and a contiguous vector in different
        # orders, so a stacked matmul on gathered columns moves the last bits.
        guess = np.array([b @ m[:, i] for b, i in zip(belief[:, 1:], index.tolist())]) / world.n_assertions
        mix = in_sender * b_sent + (1.0 - in_sender) * guess
        dk = world.willingness[ids[:, 1:]] * k_sent
        learned_k = clamped_array(combined_knowledge(said_k[:, 1:], dk), 0.0, 1.0)
        k_rows[j, 2, 1:, index] = learned_k
        # Both modes learn along each star's ontology row, whose diagonal is
        # exactly 1. Zero knowledge arrives off the transferred index under
        # "transferred", so only that belief is written and every other one
        # keeps its bits, signed zeros included.
        m_sent = m[index]
        db = mix[:, :, None] * m_sent[:, None]  # np.outer's product, star by star
        learned_rows = clamped_array(combined_belief(belief[:, 1:], db, dk[:, :, None]), -1.0, 1.0)
        spread = params.belief_weight_mode == "source" or np.arange(world.n_assertions) == index[:, None, None]
        np.copyto(b_rows[:, 2, 1:], learned_rows, where=spread)
        learned = learned_rows[j, :, index]

        # Both trust updates react to the agreement that held before the transfer
        # (the sender's counts only where the receiver comments); the sender's
        # popularity grows with what receivers learned.
        trust = trust_update(trust, b_sent[:, :, None], said[:, None, 1:], params.trust_history_weight)
        columns[pair] = trust
        gained = np.abs(learned_k * learned - said_k[:, 1:] * said[:, 1:]).sum(axis=1) / (size - 1)
        delta_p = np.minimum(1.0, gained)[:, None]  # a sum of magnitudes: never below 0
        cell_popularity[:, sends, 0] = popularity[:, :1] + delta_p - popularity[:, :1] * delta_p

        # Comments in friend-list order, each learned in every row and kept
        # where the responder comments. A "transferred" comment carries zero
        # knowledge, so only the sender's trust in the responder moves.
        if params.belief_weight_mode == "source":
            # Each receiver's perceived belief along the star's ontology row,
            # with its knowledge as the weight, sways the sender's belief in every cell.
            perceived = (in_receivers * said[:, 1:]).T[:, :, None, None] * m_sent[:, None]  # (N, K, 1, A)
            chain = [sender_belief]  # after the send, then after each comment
            for on, b_added, weight in zip(acts.T[1:, :, None], perceived, said_k.T[1:, :, None, None]):
                swayed = clamped_array(combined_belief(chain[-1], b_added, weight), -1.0, 1.0)
                chain.append(np.where(on, swayed, chain[-1]))
            sender_belief = chain[-1]
            values = k_sent * np.array([b[j, :, index] for b in chain])  # (N+1, K, C)
            # A comment changed one actor, so it credits popularity on the scale
            # one trust entry has in reputation: 1/(n-1) per actor. A silent
            # receiver's change is exactly 0, which leaves its popularity alone.
            credit = (np.minimum(1.0, np.abs(values[1:] - values[:-1])) / (n - 1)).transpose(1, 2, 0)
            p = cell_popularity[:, :, 1:]
            cell_popularity[:, :, 1:] = p + credit - p * credit

    # Idle decay for every participant who neither sent nor commented.
    cell_popularity *= np.where(acts, 1.0, 1.0 - params.popularity_decay)
    reputation_after = np.where(acts, reputation_of(columns, self_trust).reshape(shape)[:, None], reputation[:, None])
    # One pass gives the utility before the session and each receiver's term in
    # every cell: a hold's rows, or a send's. The sender's follows its belief.
    average = average_knowledge(k_rows, b_rows)  # (K, 3, N+1)
    before = utility_of(weights, average[:, 0], reputation, popularity)
    cells = average.take(1 + acts[:, 0], axis=1)
    cells[:, :, 0] = average_knowledge(knowledge[:, None, 0], sender_belief)
    deltas = utility_of(weights[:, None], cells, reputation_after, cell_popularity) - before[:, None]
    deltas.setflags(write=False)  # the payoffs of every tensor built on the run
    return deltas, list(map(StarCells, sessions, [acts] * len(sessions), deltas, k_rows[:, 2, 1:], b_rows[:, 2, 1:],
                            sender_belief, cell_popularity, reputation_after, trust[:, 0], trust[:, 1]))


def execute_session(
    world: World,
    sender: int,
    receivers,
    index: int | None,
    profile,
    params: TransferParams,
) -> SessionOutcome:
    """Run one atomic broadcast session in place and report utility deltas.

    Order of operations: (1) forgetting ticks for every actor; (2) on a
    send, all receivers absorb the assertion at once, then each receiver's
    trust in the sender updates and the sender's popularity grows by the
    receivers' mean value change; (3) responding receivers comment one at a
    time in friend-list order, each comment followed by the sender-side
    trust update and the responder's popularity update; (4) every actor who
    neither sent nor commented loses popularity to idle decay.

    All comparisons (trust agreement, popularity baselines, self-assessed
    guesses) use the state after this step's forgetting tick. Each comment
    carries the responder's own post-forget (k, b) tuple at `index`, and
    both trust updates compare the sender's and the receiver's post-forget
    beliefs there. A comment credits the responder's popularity with the
    sender's value change over n - 1. PAPER.md does not settle these rules;
    the module docstring gives the grounding.

    A profile selected from a tensor brings the star row it commits, the
    participants' reputations with it, and must name the session and the
    action flags that row was played for; any other profile is played
    here, and `play_star` checks the star. Every actor forgets (`forget`)
    and decays. A hold commits nothing more: `play_star` made the same
    products in the same order, so the ticks leave every participant as
    the held row does. A send then writes the receivers' k and b rows,
    the sender's belief in the row, the participants' popularity and
    reputation, and the trust entries.
    """
    receivers = list(receivers)
    if len(profile.feedback) != len(receivers):
        raise ValueError("profile length does not match the receiver list")
    send = bool(profile.send)
    responders = [r for r, f in zip(receivers, profile.feedback) if f]
    if not send and responders:
        raise ValueError("infeasible profile: feedback without a send")

    if profile.played:
        star, row = profile.played
    else:
        [star], row = play_star(world, [(sender, receivers, index)], params, [(send, *profile.feedback)])[1], 0
    session = (sender, tuple(receivers), index, params)
    if star.session != session or star.acts[row].tolist() != [send, *profile.feedback]:
        raise ValueError("the profile's star row was played for another session or cell")
    forget(params, world.knowledge, world.belief)
    world.popularity *= 1.0 - params.popularity_decay
    if send:  # a hold's rows are the ticks just applied, bit for bit
        participants = np.array([sender, *receivers])
        world.knowledge[participants[1:]] = star.knowledge
        world.belief[participants[1:]] = star.belief
        world.belief[sender] = star.sender_belief[row]
        world.popularity[participants] = star.popularity[row]
        world.reputation[participants] = star.reputation[row]
        world.trust[participants[1:], sender] = star.trust_in_sender
        world.trust[sender, responders] = star.trust_in_receivers[star.acts[row, 1:]]
    return SessionOutcome(
        sent=send,
        assertion_index=index,
        responders=tuple(responders),
        utility_deltas=dict(zip((sender, *receivers), star.deltas[row].tolist())),
    )
