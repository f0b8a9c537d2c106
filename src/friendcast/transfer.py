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

    def __post_init__(self):
        if not self.sent and self.responders:
            raise ValueError("feedback without a send is infeasible")


def trust_update(t_old, b_sender, b_receiver, history_weight: float):
    """Move directed trust toward agreement between two beliefs, elementwise.

    Perfect agreement pulls trust toward 1, maximal disagreement toward
    -1 before clamping; history_weight=1 freezes trust at its old value.
    """
    delta = 1.0 - np.abs(b_sender - b_receiver)
    return np.clip(history_weight * t_old + (1.0 - history_weight) * delta, 0.0, 1.0)


# --- the star-local session kernel ------------------------------------------
#
# A session reads and writes only its star: the participants' k and b rows
# and popularity, and the trust columns that give their reputations.


@dataclass
class StarCells:
    """Outcome of hypothetical sessions on a star: the all-hold one and send cells.

    Rows are the sender, then the receivers in friend-list order. Holding
    only forgets and decays, so only send cells keep their final state.
    """

    hold: np.ndarray  # (N+1,) utility changes of the all-hold session
    deltas: np.ndarray | None = None  # (C, N+1) utility changes of the send cells
    knowledge: np.ndarray | None = None  # (N+1, A), the same in every cell: comments carry none
    belief: np.ndarray | None = None  # (C, N+1, A)
    popularity: np.ndarray | None = None  # (C, N+1)
    trust_in_sender: np.ndarray | None = None  # (N,) receivers' trust in the sender after the send
    trust_in_receivers: np.ndarray | None = None  # (N,) sender's trust in each after its comment


def play_star(world: World, sender, receivers, index, params: TransferParams, masks) -> StarCells:
    """Play the all-hold session and one send per feedback mask on the star alone.

    A send cell's mask is its cell index (see `game`) without the sender's
    bit: one bit per receiver, the first receiver's the most significant.
    `world` is only read. Every cell is, element for element, the
    arithmetic of that session on the whole world, so its bits do not
    depend on the other cells. With no masks, `index` may be None.
    """
    ids = np.array([sender, *receivers])
    receivers = ids[1:]
    size, n = len(ids), world.n_actors
    weights = world.personality[ids]
    knowledge, belief = world.knowledge[ids], world.belief[ids]
    popularity = world.popularity[ids]
    # A column-contiguous copy, summed column by column as World.reputations sums it.
    columns = world.trust[:, ids]
    self_trust = world.trust[ids, ids]
    reputation = reputation_of(columns, self_trust)
    u_before = utility_of(weights, knowledge, belief, reputation, popularity)

    if params.remembrance != 1.0:
        root = np.sqrt(params.remembrance)
        knowledge = knowledge * root
        belief = belief * root
    keep = 1.0 - params.popularity_decay
    hold = utility_of(weights, knowledge, belief, reputation, popularity * keep) - u_before
    if len(masks) == 0:
        return StarCells(hold)

    # Post-forget tuples: a comment carries the responder's own, and both
    # trust updates compare these beliefs.
    said_k, said = knowledge[:, index].copy(), belief[:, index].copy()
    k_sent, b_sent = said_k[0], said[0]
    trust_before = columns[receivers, 0]
    guess = belief[1:] @ world.ontology.m[:, index] / world.n_assertions
    mix = trust_before * b_sent + (1.0 - trust_before) * guess
    dk = world.willingness[receivers] * k_sent
    knowledge[1:, index] = clamped_array(combined_knowledge(said_k[1:], dk), 0.0, 1.0)
    if params.belief_weight_mode == "transferred":
        # Zero knowledge arrives off the transferred index, so the learning
        # operator leaves every other belief exactly unchanged.
        belief[1:, index] = clamped_array(combined_belief(said[1:], mix, dk), -1.0, 1.0)
    else:
        db = np.outer(mix, world.ontology.m[index])
        belief[1:] = clamped_array(combined_belief(belief[1:], db, dk[:, None]), -1.0, 1.0)

    # Receiver-side trust reacts to the agreement that held before the
    # transfer; the sender's popularity grows with what receivers learned.
    xi = params.trust_history_weight
    columns[receivers, 0] = trust_update(trust_before, b_sent, said[1:], xi)
    post_values = knowledge[1:, index] * belief[1:, index]
    delta_p = min(1.0, max(0.0, float(np.mean(np.abs(post_values - said_k[1:] * said[1:])))))
    popularity[0] = popularity[0] + delta_p - popularity[0] * delta_p

    # Comments in friend-list order, each applied at once to every cell
    # whose mask has the responder's bit.
    active = np.ones((len(masks), size), dtype=bool)  # who sent or commented
    active[:, 1:] = np.asarray(masks)[:, None] >> np.arange(size - 2, -1, -1) & 1
    belief = np.repeat(belief[None], len(masks), axis=0)
    popularity = np.repeat(popularity[None], len(masks), axis=0)
    for i in range(1, size):
        on = active[:, i]
        if not on.any():
            continue
        delta_p = 0.0  # a "transferred" comment carries zero knowledge: only trust moves
        if params.belief_weight_mode == "source":
            b_sender = belief[on, 0]
            a_old = knowledge[0, index] * b_sender[:, index]
            db = world.ontology.m[index] * (columns[sender, i] * said[i])
            b_sender = clamped_array(combined_belief(b_sender, db, said_k[i]), -1.0, 1.0)
            belief[on, 0] = b_sender
            # The comment changed one actor, so it credits popularity on the
            # scale one trust entry has in reputation: 1/(n-1) per actor.
            a_new = knowledge[0, index] * b_sender[:, index]
            delta_p = np.minimum(1.0, np.abs(a_new - a_old)) / (n - 1)
        p = popularity[on, i]
        popularity[on, i] = p + delta_p - p * delta_p
    columns[sender, 1:] = trust_update(columns[sender, 1:], b_sent, said[1:], xi)

    # Idle decay for every participant who neither sent nor commented.
    popularity = np.where(active, popularity, popularity * keep)
    reputation = np.where(active, reputation_of(columns, self_trust), reputation)
    deltas = utility_of(weights, knowledge, belief, reputation, popularity) - u_before
    return StarCells(
        hold, deltas, knowledge, belief, popularity, columns[receivers, 0], columns[sender, 1:]
    )


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

    `play_star` plays the session on the star alone and a send's final star
    state is written back; everyone else only forgets and decays.
    """
    receivers = list(receivers)
    if not receivers or sender in receivers or len(set(receivers)) != len(receivers):
        raise ValueError("receivers must be nonempty and distinct from each other and the sender")
    if len(profile.feedback) != len(receivers):
        raise ValueError("profile length does not match the receiver list")
    send = bool(profile.send)
    responders = [r for r, f in zip(receivers, profile.feedback) if f]
    if not send and responders:
        raise ValueError("infeasible profile: feedback without a send")
    if send and index is None:
        raise ValueError("a send requires an assertion index")

    # A send cell's feedback mask is its cell index without the sender's bit.
    mask = profile.cell ^ (1 << len(receivers))
    star = play_star(world, sender, receivers, index, params, [mask] if send else [])
    if params.remembrance != 1.0:
        root = np.sqrt(params.remembrance)
        world.knowledge *= root
        world.belief *= root
    if params.popularity_decay != 0.0:
        world.popularity *= 1.0 - params.popularity_decay
    participants = [sender, *receivers]
    if send:
        world.knowledge[participants] = star.knowledge
        world.belief[participants] = star.belief[0]
        world.popularity[participants] = star.popularity[0]
        world.trust[receivers, sender] = star.trust_in_sender
        world.trust[sender, responders] = star.trust_in_receivers[np.array(profile.feedback, bool)]
    deltas = star.deltas[0] if send else star.hold
    return SessionOutcome(
        sent=send,
        assertion_index=index,
        responders=tuple(responders),
        utility_deltas={p: float(d) for p, d in zip(participants, deltas)},
    )
