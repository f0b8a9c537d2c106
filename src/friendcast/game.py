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
one such call, which returns the run's deltas as one read-only stack, and
selects every star's row in one `select_rows` pass over it, so a run costs
a fixed number of numpy calls however many stars it holds. Each tensor's
payoffs are its star's row of that stack. A tensor carries its row, and
`select_profile` only names it as a profile.

Among a game's pure equilibria the highest sender payoff decides, then
the lowest cell. Under "transferred" weighting a comment cannot move the
sender's utility, so no game has both the hold and a send among its
equilibria (sender purity). Under "source" weighting, which both presets
run, a comment sways the sender's belief: a game can then have
equilibria that pay the sender differently, hold and send among them,
and the sender's payoff chooses between them. That is the model's rule
(87 of the first 20,000 `experts` games on seed 1 meet it).
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

    A tensor is its dense payoffs, the row `select_profile` plays and, when
    played, its star, which names the session. The payoffs may be any
    nested sequence of numbers of shape (2^N + 1, N + 1); they are read-only
    once the row is chosen. A tensor built by hand gets its row from
    `select_rows` on a stack of one, as `build_payoff_tensors` gets a run's.
    """

    payoffs: np.ndarray  # (2^N + 1, N+1), one row per feasible cell in cell order
    star: StarCells | None = field(default=None, repr=False)  # whose deltas the payoffs are, when played
    row: int | None = None  # the selected row; chosen here when not given

    def __post_init__(self):
        payoffs = np.asarray(self.payoffs, dtype=float)
        if payoffs.ndim != 2 or len(payoffs) != (1 << payoffs.shape[1] - 1) + 1:
            raise ValueError(f"payoffs of shape {payoffs.shape} are not (2^N + 1, N + 1)")
        if payoffs.flags.writeable:  # a view, so the caller's own array stays writable
            payoffs = payoffs.view()
            payoffs.setflags(write=False)
        self.payoffs = payoffs
        self.row = int(select_rows(payoffs[None])[0]) if self.row is None else self.row
        if type(self.row) is not int or not 0 <= self.row < len(payoffs):
            raise ValueError(f"row {self.row!r} is not an int in [0, {len(payoffs) - 1}]")

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
    sessions before it are committed, bit for bit (`play_star`). Every
    star's row is selected in one `select_rows` pass over the read-only
    stack of deltas that `play_star` returns, and each tensor's payoffs
    are its star's row of it.
    """
    deltas, cells = play_star(world, stars, params, _layout(len(stars[0][1]))[3])
    return list(map(PayoffTensor, deltas, cells, select_rows(deltas).tolist()))


def _stable_rows(stack: np.ndarray) -> np.ndarray:
    """(K, 2^N + 1) mask over a stack of payoffs: the rows where no player gains strictly by switching.

    A deviation gains when its payoff is greater, which for doubles is
    exactly when the regret fallback's `x - y` is positive; a NaN gains
    nothing either way.
    """
    deviations = _layout(stack.shape[2] - 1)[1]
    return ~(stack.reshape(len(stack), -1).take(deviations, axis=1) > stack).any(axis=2)


def select_rows(stack: np.ndarray) -> np.ndarray:
    """The row each game of a (K, 2^N + 1, N+1) stack of payoffs plays: the selection rule.

    A player gains by a deviation whose payoff is greater than its own.
    Among pure equilibria, the rows where nobody gains: maximal sender
    payoff first, then the lowest row, which is the lowest cell (hold
    before send, silent before feedback per receiver). With no pure
    equilibrium, fall back to the feasible row minimizing the sum of
    unilateral regrets, the positive parts of each player's payoff
    difference, same tie-break. Every game is judged in one pass; only a
    game whose best row is not stable is looked at again on its own.
    """
    stable = _stable_rows(stack)
    rows = np.where(stable, stack[:, :, 0], -np.inf).argmax(axis=1)
    for k in (~stable[np.arange(len(rows)), rows]).nonzero()[0]:
        if stable[k].any():  # every equilibrium pays the sender -inf: the lowest one
            rows[k] = stable[k].argmax()
            continue
        payoffs = stack[k]
        gains = payoffs.take(_layout(stack.shape[2] - 1)[1]) - payoffs
        # Summed player by player in order, as a Python loop over players
        # would: numpy's row sum groups terms differently and can flip a tie.
        rows[k] = np.argmin(np.add.accumulate(np.maximum(gains, 0.0), axis=1)[:, -1])
    return rows


def find_pure_nash(tensor: PayoffTensor) -> list[StrategyProfile]:
    """All feasible profiles where no single player strictly gains by switching."""
    cells = _layout(tensor.n_receivers)[0][_stable_rows(tensor.payoffs[None])[0]]
    return [StrategyProfile.from_cell(int(cell), tensor.n_receivers) for cell in cells]


def select_profile(tensor: PayoffTensor) -> StrategyProfile:
    """The profile the session will actually play: the tensor's row, chosen by `select_rows`.

    The profile carries the tensor's played star and its row there; a
    hand-built tensor's carries none.
    """
    n_receivers, row = tensor.n_receivers, tensor.row
    return StrategyProfile(*_flags(n_receivers)[_layout(n_receivers)[0][row]],
                           None if tensor.star is None else (tensor.star, row))
