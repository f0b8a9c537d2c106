"""Population state container shared by the transfer, game, and harness layers.

The world keeps the whole population in flat numpy arrays so that a
simulation session touches a handful of vectorized operations instead of
per-actor Python objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .knowledge import Ontology


def reputation_of(columns: np.ndarray, self_trust: np.ndarray) -> np.ndarray:
    """Mean trust of all others, from whole contiguous trust columns and their diagonal."""
    return (columns.sum(axis=0) - self_trust) / (columns.shape[0] - 1)


def utility_of(weights, knowledge, belief, reputation, popularity) -> np.ndarray:
    """Each actor's convex mix of average knowledge, reputation and popularity.

    Leading axes of the state arrays, before the actor axis, index stars
    and cells; the weights' leading axes broadcast against them.
    """
    product = knowledge * belief  # the kernel's largest temporary: made once, not twice
    k = np.abs(product, out=product).sum(axis=-1) / knowledge.shape[-1]  # rounds as np.mean does
    return weights[..., 0] * k + weights[..., 1] * reputation + weights[..., 2] * popularity


@dataclass
class World:
    """Mutable population state: one row per actor in each array."""

    knowledge: np.ndarray  # (n, A) knowledge quantities in [0, 1]
    belief: np.ndarray  # (n, A) beliefs in [-1, 1]
    popularity: np.ndarray  # (n,) in [0, 1]
    trust: np.ndarray  # (n, n) column-major, row = truster, column = trustee, diag = 1
    personality: np.ndarray  # (n, 3) columns: knowledge/reputation/popularity
    willingness: np.ndarray  # (n,) in [0, 1]
    ontology: Ontology
    reputation: np.ndarray = field(init=False)  # (n,) reputations(), kept current by each session

    def __post_init__(self):
        self.trust = np.asfortranarray(self.trust)
        self.reputation = self.reputations()

    @property
    def n_actors(self) -> int:
        return self.knowledge.shape[0]

    @property
    def n_assertions(self) -> int:
        return self.knowledge.shape[1]

    def copy(self) -> "World":
        # Personality, willingness and the immutable ontology are shared; __post_init__ sets reputation.
        return replace(self, knowledge=self.knowledge.copy(), belief=self.belief.copy(),
                       popularity=self.popularity.copy(), trust=self.trust.copy(order="F"))

    def values(self) -> np.ndarray:
        """(n, A) matrix of assertion values k*b."""
        return self.knowledge * self.belief

    def reputations(self) -> np.ndarray:
        """Mean trust of all other actors in each actor, summed from the trust matrix."""
        return reputation_of(self.trust, np.diagonal(self.trust))

    def utilities(self, ids) -> np.ndarray:
        """Utility of each requested actor under its own personality, from the kept reputations."""
        ids = np.asarray(ids)
        return utility_of(self.personality[ids], self.knowledge[ids], self.belief[ids],
                          self.reputation[ids], self.popularity[ids])

    def validate(self) -> None:
        """Raise if any population invariant is broken."""
        if not (self.knowledge.min() >= 0.0 and self.knowledge.max() <= 1.0):
            raise ValueError("knowledge component outside [0, 1]")
        if not (self.belief.min() >= -1.0 and self.belief.max() <= 1.0):
            raise ValueError("belief component outside [-1, 1]")
        if not (self.popularity.min() >= 0.0 and self.popularity.max() <= 1.0):
            raise ValueError("popularity outside [0, 1]")
        if not (self.trust.min() >= 0.0 and self.trust.max() <= 1.0):
            raise ValueError("trust outside [0, 1]")
        if not np.array_equal(np.diag(self.trust), np.ones(self.n_actors)):
            raise ValueError("self-trust diagonal must be 1")
        if not np.array_equal(self.reputation, self.reputations()):
            raise ValueError("kept reputations differ from the trust matrix")

