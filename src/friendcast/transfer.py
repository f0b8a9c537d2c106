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
selected row.
An extra row after the cells, the star before the session, gives every
cell's deltas in one utility pass; both trust updates are one call on the
stacked pair of trust vectors. "Source" comments are one chain over the
whole cell axis: each receiver in turn sways the sender's belief in every
row, kept only where it comments, and the sender's value after each
comment credits every responder's popularity in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .knowledge import clamped_array, combined_belief, combined_knowledge
from .world import World, reputation_of, utility_of

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


def trust_update(t_old, b_sender, b_receiver, history_weight: float):
    """Move directed trust toward agreement between two beliefs, elementwise.

    Perfect agreement pulls trust toward 1, maximal disagreement toward
    -1 before clamping; history_weight=1 freezes trust at its old value.
    """
    delta = 1.0 - np.abs(b_sender - b_receiver)
    return np.minimum(np.maximum(history_weight * t_old + (1.0 - history_weight) * delta, 0.0), 1.0)


@dataclass
class StarCells:
    """Outcome of hypothetical sessions on a star, one row per cell played.

    Within a cell, entries are the sender, then the receivers in friend-list
    order. The trust vectors are shared: a send moves them alike in every
    sending cell, and they stay as they were when no cell sends.
    """

    session: tuple  # (sender, receivers, index, params) the cells were played for
    acts: np.ndarray  # (C, N+1) the action flags each row played
    deltas: np.ndarray  # (C, N+1) utility changes
    knowledge: np.ndarray  # (C, N+1, A)
    belief: np.ndarray  # (C, N+1, A)
    popularity: np.ndarray  # (C, N+1)
    reputation: np.ndarray  # (C, N+1)
    trust_in_sender: np.ndarray  # (N,) receivers' trust in the sender after a send
    trust_in_receivers: np.ndarray  # (N,) sender's trust in each after its comment


def play_star(world: World, sender, receivers, index, params: TransferParams, acts) -> StarCells:
    """Play the session of each given row of action flags on the star alone.

    `acts` is (C, N+1): whether the sender sends, then whether each
    receiver comments, in friend-list order. A row of no flags is the
    all-hold session, in which every participant is inactive, forgets and
    decays. `world` is only read. Every cell is, element for element, the
    arithmetic of that session on the whole world, so its bits do not
    depend on the other cells.

    The star needs at least one receiver, and no actor twice; every id
    and, when a cell sends, `index` must exist in `world`. When no cell
    sends, `index` may be None.

    The arrays end with the star before the session, in which nobody acts,
    forgets or decays: a cell's deltas are its utility less that row's. The
    comment chain and the single trust update run on every row.
    """
    session = (sender, tuple(receivers), index, params)
    ids = [sender, *receivers]
    size, n = len(ids), world.n_actors
    if size < 2 or len(set(ids)) < size or not 0 <= min(ids) <= max(ids) < n:
        raise ValueError(f"a star needs a receiver, and distinct actor ids in [0, {n})")
    ids = np.array(ids)
    receivers = ids[1:]
    acts = np.concatenate((np.asarray(acts, dtype=bool), np.zeros((1, size), dtype=bool)))  # then the star before
    sends = acts[:, 0]
    weights = world.personality[ids]
    knowledge, belief = world.knowledge[ids], world.belief[ids]
    popularity = world.popularity[ids]
    cell_knowledge = knowledge[None].repeat(len(acts), axis=0)
    cell_belief = belief[None].repeat(len(acts), axis=0)
    cell_popularity = popularity[None].repeat(len(acts), axis=0)
    # A column-contiguous copy, summed column by column as World.reputations sums it.
    columns = world.trust[:, ids]
    self_trust = world.trust[ids, ids]
    reputation = world.reputation[ids]
    # The receivers' trust in the sender, then the sender's in each receiver.
    trust = np.array((columns[receivers, 0], columns[sender, 1:]))

    if params.remembrance != 1.0:
        root = np.sqrt(params.remembrance)
        knowledge = knowledge * root
        belief = belief * root
        cell_knowledge[:-1] = knowledge
        cell_belief[:-1] = belief
    if sends.any():
        if index is None or not 0 <= index < world.n_assertions:
            raise ValueError(f"a send needs an assertion index in [0, {world.n_assertions})")
        # Post-forget tuples: a comment carries the responder's own, and both
        # trust updates compare these beliefs.
        said_k, said = knowledge[:, index], belief[:, index]
        k_sent, b_sent = said_k[0], said[0]
        in_sender, in_receivers = trust  # as they stood before the session
        guess = belief[1:] @ world.ontology.m[:, index] / world.n_assertions
        mix = in_sender * b_sent + (1.0 - in_sender) * guess
        dk = world.willingness[receivers] * k_sent
        learned_k = clamped_array(combined_knowledge(said_k[1:], dk), 0.0, 1.0)
        cell_knowledge[sends, 1:, index] = learned_k
        if params.belief_weight_mode == "transferred":
            # Zero knowledge arrives off the transferred index, so the learning
            # operator leaves every other belief exactly unchanged.
            learned = clamped_array(combined_belief(said[1:], mix, dk), -1.0, 1.0)
            cell_belief[sends, 1:, index] = learned
        else:
            db = mix[:, None] * world.ontology.m[index]  # np.outer's product
            learned_rows = clamped_array(combined_belief(belief[1:], db, dk[:, None]), -1.0, 1.0)
            cell_belief[sends, 1:] = learned_rows
            learned = learned_rows[:, index]

        # Both trust updates react to the agreement that held before the transfer
        # (the sender's counts only where the receiver comments); the sender's
        # popularity grows with what receivers learned.
        trust = trust_update(trust, b_sent, said[1:], params.trust_history_weight)
        columns[receivers, 0], columns[sender, 1:] = trust
        gained = np.abs(learned_k * learned - said_k[1:] * said[1:]).sum() / (size - 1)
        delta_p = min(1.0, max(0.0, float(gained)))
        cell_popularity[sends, 0] = popularity[0] + delta_p - popularity[0] * delta_p

        # Comments in friend-list order, each learned in every row and kept
        # where the responder comments. A "transferred" comment carries zero
        # knowledge, so only the sender's trust in the responder moves.
        if params.belief_weight_mode == "source":
            # The sender's belief with the cell axis last: each receiver's
            # perceived belief and comment flags broadcast along it.
            perceived = world.ontology.m[index] * (in_receivers * said[1:])[:, None]
            chain = [cell_belief[:, 0].T.copy()]  # (A, C+1): after the send, then after each comment
            for on, b_added, weight in zip(acts.T[1:], perceived[:, :, None], said_k[1:].tolist()):
                swayed = clamped_array(combined_belief(chain[-1], b_added, weight), -1.0, 1.0)
                chain.append(np.where(on, swayed, chain[-1]))
            cell_belief[:, 0] = chain[-1].T
            values = k_sent * np.array([b[index] for b in chain])  # (N+1, C+1)
            # A comment changed one actor, so it credits popularity on the scale
            # one trust entry has in reputation: 1/(n-1) per actor. A silent
            # receiver's change is exactly 0, which leaves its popularity alone.
            credit = (np.minimum(1.0, np.abs(values[1:] - values[:-1])) / (n - 1)).T
            p = cell_popularity[:, 1:]
            cell_popularity[:, 1:] = p + credit - p * credit

    # Idle decay for every participant who neither sent nor commented.
    cell_popularity = np.where(acts, cell_popularity, cell_popularity * (1.0 - params.popularity_decay))
    cell_popularity[-1] = popularity  # the star before the session does not decay
    reputation = np.where(acts, reputation_of(columns, self_trust), reputation)
    u = utility_of(weights, cell_knowledge, cell_belief, reputation, cell_popularity)
    return StarCells(session, acts[:-1], u[:-1] - u[-1], cell_knowledge[:-1], cell_belief[:-1], cell_popularity[:-1],
                     reputation[:-1], *trust)


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
    here, and `play_star` checks the star. Everyone else forgets and decays.
    """
    receivers = list(receivers)
    if len(profile.feedback) != len(receivers):
        raise ValueError("profile length does not match the receiver list")
    send = bool(profile.send)
    responders = [r for r, f in zip(receivers, profile.feedback) if f]
    if not send and responders:
        raise ValueError("infeasible profile: feedback without a send")

    star, row = profile.played or (play_star(world, sender, receivers, index, params, [(send, *profile.feedback)]), 0)
    session = (sender, tuple(receivers), index, params)
    if star.session != session or star.acts[row].tolist() != [send, *profile.feedback]:
        raise ValueError("the profile's star row was played for another session or cell")
    if params.remembrance != 1.0:
        root = np.sqrt(params.remembrance)
        world.knowledge *= root
        world.belief *= root
    world.popularity *= 1.0 - params.popularity_decay
    participants = np.array([sender, *receivers])
    world.knowledge[participants] = star.knowledge[row]
    world.belief[participants] = star.belief[row]
    world.popularity[participants] = star.popularity[row]
    world.reputation[participants] = star.reputation[row]
    if send:  # the trust vectors hold a send's update even when a hold was chosen
        world.trust[participants[1:], sender] = star.trust_in_sender
        world.trust[sender, responders] = star.trust_in_receivers[np.array(profile.feedback, bool)]
    return SessionOutcome(
        sent=send,
        assertion_index=index,
        responders=tuple(responders),
        utility_deltas=dict(zip((sender, *receivers), star.deltas[row].tolist())),
    )
