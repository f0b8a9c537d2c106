"""Payoff tensor construction and pure-equilibrium selection for one session.

The sender and the N receivers play a one-shot game: the sender picks
publish-or-hold, each receiver picks comment-or-stay-silent. Payoffs are
the utility changes a hypothetical session would cause. The tensor is
built by the star-local session kernel (`transfer.play_star`): it plays
every cell on a copy of the star's own state, the sender's and receivers'
rows and their trust columns, and never copies the world. Profiles that
comment on an unpublished assertion are infeasible and collapse onto the
all-hold cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .transfer import TransferParams, play_star
from .world import World


@dataclass(frozen=True)
class StrategyProfile:
    """One action per player: the sender's send flag plus a feedback flag per receiver."""

    send: bool
    feedback: tuple[bool, ...]

    def canonical(self) -> "StrategyProfile":
        """Collapse infeasible feedback-without-send onto the all-hold profile."""
        if not self.send and any(self.feedback):
            return StrategyProfile(False, (False,) * len(self.feedback))
        return self

    def with_sender(self, send: bool) -> "StrategyProfile":
        return StrategyProfile(send, self.feedback)

    def with_feedback(self, position: int, value: bool) -> "StrategyProfile":
        f = list(self.feedback)
        f[position] = value
        return StrategyProfile(self.send, tuple(f))

    def sort_key(self):
        # hold before send, silent before feedback.
        return (self.send, self.feedback)

    @staticmethod
    def all_hold(n_receivers: int) -> "StrategyProfile":
        return StrategyProfile(False, (False,) * n_receivers)

    @staticmethod
    def enumerate_all(n_receivers: int):
        """All 2^(N+1) profiles, feasible or not, in lexicographic order."""
        for send in (False, True):
            for fb in itertools.product((False, True), repeat=n_receivers):
                yield StrategyProfile(send, fb)

    @staticmethod
    def enumerate_canonical(n_receivers: int):
        """The all-hold profile plus every send profile."""
        yield StrategyProfile.all_hold(n_receivers)
        for fb in itertools.product((False, True), repeat=n_receivers):
            yield StrategyProfile(True, fb)


@dataclass
class PayoffTensor:
    """Utility deltas for every profile; player 0 is the sender, then receivers."""

    sender: int
    receivers: tuple[int, ...]
    payoffs: dict[StrategyProfile, tuple[float, ...]]

    @property
    def n_receivers(self) -> int:
        return len(self.receivers)

    @property
    def n_players(self) -> int:
        return len(self.receivers) + 1

    def payoff(self, profile: StrategyProfile) -> tuple[float, ...]:
        return self.payoffs[profile.canonical()]

    def format_table(self) -> str:
        """Plain-text dump: one profile per line with its payoff vector."""
        lines = []
        for profile in StrategyProfile.enumerate_all(self.n_receivers):
            actions = "S" if profile.send else "-"
            actions += "".join("F" if f else "-" for f in profile.feedback)
            vec = " ".join(f"{v:+.6f}" for v in self.payoff(profile))
            lines.append(f"{actions}  {vec}")
        return "\n".join(lines)


def build_payoff_tensor(
    world: World,
    sender: int,
    receivers,
    index: int,
    params: TransferParams,
) -> PayoffTensor:
    """Play the all-hold session and every send cell on the star's state.

    Forgetting and idle decay run identically inside every hypothetical
    session, so differences between cells isolate the action choices. The
    input world is never modified. Each cell equals the utility deltas
    `execute_session` reports for its profile, bit for bit, because both
    run the same kernel.
    """
    receivers = tuple(int(r) for r in receivers)
    if sender in receivers:
        raise ValueError("receivers must be distinct from the sender")
    feedback = list(itertools.product((False, True), repeat=len(receivers)))
    star = play_star(world, sender, receivers, index, params, range(len(feedback)))
    hold, cells = tuple(star.hold.tolist()), star.deltas.tolist()
    payoffs = {StrategyProfile(False, feedback[0]): hold}
    payoffs.update((StrategyProfile(True, fb), tuple(d)) for fb, d in zip(feedback, cells))
    # Feedback without a send is infeasible and collapses onto the all-hold cell.
    payoffs.update((StrategyProfile(False, fb), hold) for fb in feedback[1:])
    return PayoffTensor(sender=int(sender), receivers=receivers, payoffs=payoffs)


def _deviations(profile: StrategyProfile, player: int) -> StrategyProfile:
    """The profile after `player` switches to its other action (canonicalized)."""
    if player == 0:
        return profile.with_sender(not profile.send).canonical()
    pos = player - 1
    return profile.with_feedback(pos, not profile.feedback[pos]).canonical()


def find_pure_nash(tensor: PayoffTensor) -> list[StrategyProfile]:
    """All profiles where no single player strictly gains by switching action.

    Only canonical profiles are reported; switching a feedback flag under a
    held send is payoff-neutral by the collapse rule and never a strict
    improvement.
    """
    equilibria = []
    for profile in StrategyProfile.enumerate_canonical(tensor.n_receivers):
        own = tensor.payoff(profile)
        stable = True
        for player in range(tensor.n_players):
            alt = tensor.payoff(_deviations(profile, player))
            if alt[player] > own[player]:
                stable = False
                break
        if stable:
            equilibria.append(profile)
    return equilibria


def _total_regret(tensor: PayoffTensor, profile: StrategyProfile) -> float:
    own = tensor.payoff(profile)
    total = 0.0
    for player in range(tensor.n_players):
        alt = tensor.payoff(_deviations(profile, player))
        total += max(0.0, alt[player] - own[player])
    return total


def select_profile(tensor: PayoffTensor) -> StrategyProfile:
    """Pick the profile the session will actually play.

    Among pure equilibria: maximal sender payoff first, then the
    lexicographically first profile (hold before send, silent before
    feedback per receiver). With no pure equilibrium, fall back to the
    feasible profile minimizing the sum of unilateral regrets, same
    tie-break.
    """
    equilibria = find_pure_nash(tensor)
    if equilibria:
        best_sender = max(tensor.payoff(e)[0] for e in equilibria)
        candidates = [e for e in equilibria if tensor.payoff(e)[0] == best_sender]
        return min(candidates, key=StrategyProfile.sort_key)
    canonical = list(StrategyProfile.enumerate_canonical(tensor.n_receivers))
    least = min(_total_regret(tensor, p) for p in canonical)
    candidates = [p for p in canonical if _total_regret(tensor, p) == least]
    return min(candidates, key=StrategyProfile.sort_key)
