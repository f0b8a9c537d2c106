"""Payoff tensor construction and pure-equilibrium selection for one session.

The sender and the N receivers play a one-shot game: the sender picks
publish-or-hold, each receiver picks comment-or-stay-silent. A profile is
N+1 bits, and this module alone encodes it as a cell index: the sender's
bit is the most significant, then one bit per receiver in friend-list
order, so cell order is the lexicographic order of (send, *feedback).
Player p's unilateral deviation is `cell ^ (1 << (N - p))`.

Payoffs are the utility changes a hypothetical session would cause, one
row per feasible cell, in cell order: 0 and 2^N ... 2^(N+1)-1, so 2^N + 1
rows. Commenting on an unpublished assertion is infeasible, and every hold
cell (sender bit 0) pays the all-hold row 0. The star-local session kernel
(`transfer.play_star`) plays the action flags of the feasible cells along
one cell axis on a copy of the star's own state, never copying the world,
and its deltas are the tensor's payoffs as they stand. The selected
profile carries its row of the played star, which
`transfer.execute_session` commits without playing the session again.
`build_payoff_tensors` builds the tensors of a run of disjoint stars from
one such call.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .transfer import StarCells, TransferParams, play_star
from .world import World


@dataclass(frozen=True)
class StrategyProfile:
    """One action per player: the sender's send flag plus a feedback flag per receiver."""

    send: bool
    feedback: tuple[bool, ...]
    # The (star, row) that holds this session, when selected from a built tensor; not compared.
    played: tuple[StarCells, int] | None = field(default=None, compare=False, repr=False)

    @property
    def cell(self) -> int:
        """This profile's cell: the sender's bit, then each receiver's."""
        cell = int(self.send)
        for f in self.feedback:
            cell = cell << 1 | int(f)
        return cell

    @staticmethod
    def from_cell(cell: int, n_receivers: int) -> "StrategyProfile":
        return StrategyProfile(*_flags(n_receivers)[cell])

    @staticmethod
    def all_hold(n_receivers: int) -> "StrategyProfile":
        return StrategyProfile(False, (False,) * n_receivers)

    @staticmethod
    def enumerate_canonical(n_receivers: int):
        """The all-hold profile plus every send profile, in cell order."""
        for cell in _layout(n_receivers)[0]:
            yield StrategyProfile.from_cell(int(cell), n_receivers)


@functools.lru_cache(maxsize=None)
def _layout(n_receivers: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The feasible cells, the flat payoff index of their deviations, each cell's row, and the flags.

    Row r is cell `feasible[r]`. Entry (r, p) of the second array indexes
    the flattened payoffs at the row of cell `feasible[r] ^ (1 << (N - p))`,
    column p. The third maps every cell to its row: each hold cell to row
    0, the all-hold. Row r of the fourth is cell `feasible[r]` as the
    (send, *feedback) flags that `transfer.play_star` plays.
    """
    players = np.arange(n_receivers + 1)
    feasible = np.r_[0, (1 << n_receivers) : (2 << n_receivers)]
    rows = np.r_[np.zeros(1 << n_receivers, dtype=int), 1 : len(feasible)]
    deviations = rows[feasible[:, None] ^ (1 << (n_receivers - players))] * (n_receivers + 1) + players
    acts = (feasible[:, None] >> (n_receivers - players) & 1).astype(bool)
    for shared in (feasible, deviations, rows, acts):  # cached for every caller: read-only
        shared.setflags(write=False)
    return feasible, deviations, rows, acts


@functools.lru_cache(maxsize=None)
def _flags(n_receivers: int) -> tuple[tuple[bool, tuple[bool, ...]], ...]:
    """Each cell's profile fields (send, feedback), in cell order."""
    return tuple((bits[0], bits[1:]) for bits in itertools.product((False, True), repeat=n_receivers + 1))


@dataclass(eq=False)
class PayoffTensor:
    """Utility deltas for every feasible cell; player 0 is the sender, then receivers.

    A tensor is its dense payoffs plus, when played, its star, which names the session.
    """

    payoffs: np.ndarray  # (2^N + 1, N+1), one row per feasible cell in cell order
    star: StarCells | None = field(default=None, repr=False)  # whose deltas the payoffs are, when played

    def __post_init__(self):
        if self.payoffs.ndim != 2 or len(self.payoffs) != (1 << self.n_receivers) + 1:
            raise ValueError(f"payoffs of shape {self.payoffs.shape} are not (2^N + 1, N + 1)")

    @property
    def n_receivers(self) -> int:
        return self.payoffs.shape[1] - 1

    def payoff(self, profile: StrategyProfile) -> tuple[float, ...]:
        if len(profile.feedback) != self.n_receivers:
            raise ValueError("profile length does not match the receiver list")
        return tuple(self.payoffs[_layout(self.n_receivers)[2][profile.cell]].tolist())

    def format_table(self) -> str:
        """Plain-text dump: one profile per line, every cell, with its payoff vector."""
        lines = []
        for cell, row in enumerate(self.payoffs[_layout(self.n_receivers)[2]].tolist()):
            profile = StrategyProfile.from_cell(cell, self.n_receivers)
            actions = "S" if profile.send else "-"
            actions += "".join("F" if f else "-" for f in profile.feedback)
            vec = " ".join(f"{v:+.6f}" for v in row)
            lines.append(f"{actions}  {vec}")
        return "\n".join(lines)


def build_payoff_tensor(
    world: World,
    sender: int,
    receivers,
    index: int,
    params: TransferParams,
) -> PayoffTensor:
    """Play the feasible cells on the star's state; their deltas are the payoffs.

    Forgetting and idle decay run identically inside every hypothetical
    session, so differences between cells isolate the action choices. The
    input world is never modified. The played star names the session and
    stays on the tensor; `execute_session` commits its row for the selected
    profile: a cell's bits do not depend on the others, so a row is its session.
    """
    return build_payoff_tensors(world, [(sender, receivers, index)], params)[0]


def build_payoff_tensors(world: World, stars, params: TransferParams) -> list[PayoffTensor]:
    """One tensor per star of a run of disjoint stars, all played in one `play_star` call.

    Star j's tensor is the one `build_payoff_tensor` builds once the j
    sessions before it are committed, bit for bit (`play_star`).
    """
    acts = _layout(len(stars[0][1]))[3]
    return [PayoffTensor(star.deltas, star) for star in play_star(world, stars, params, acts)]


def _stable(tensor: PayoffTensor) -> np.ndarray:
    """The rows where no player gains strictly by switching its own action.

    A deviation gains when its payoff is greater, which for doubles is
    exactly when the regret fallback's `x - y` is positive; a NaN gains
    nothing either way.
    """
    payoffs = tensor.payoffs
    return (~(payoffs.take(_layout(tensor.n_receivers)[1]) > payoffs).any(axis=1)).nonzero()[0]


def find_pure_nash(tensor: PayoffTensor) -> list[StrategyProfile]:
    """All feasible profiles where no single player strictly gains by switching."""
    cells = _layout(tensor.n_receivers)[0][_stable(tensor)]
    return [StrategyProfile.from_cell(int(cell), tensor.n_receivers) for cell in cells]


def select_profile(tensor: PayoffTensor) -> StrategyProfile:
    """Pick the profile the session will actually play.

    A player gains by a deviation whose payoff is greater than its own.
    Among pure equilibria, the cells where nobody gains: maximal sender
    payoff first, then the lowest cell (hold before send, silent before
    feedback per receiver). With no pure equilibrium, fall back to the
    feasible profile minimizing the sum of unilateral regrets, the
    positive parts of each player's payoff difference, same tie-break.
    The profile carries the tensor's played star and its row there; a
    hand-built tensor's carries none.
    """
    n_receivers = tensor.n_receivers
    feasible, deviations, _, _ = _layout(n_receivers)
    stable = _stable(tensor)
    if len(stable):
        row = int(stable[tensor.payoffs[stable, 0].argmax()])
    else:
        gains = tensor.payoffs.take(deviations) - tensor.payoffs
        # Summed player by player from 0.0, as a Python loop over players
        # would: numpy's row sum groups terms differently and can flip a tie.
        regret = 0.0
        for gain in np.maximum(gains, 0.0).T:
            regret = regret + gain
        row = int(np.argmin(regret))
    return StrategyProfile(*_flags(n_receivers)[feasible[row]], None if tensor.star is None else (tensor.star, row))
