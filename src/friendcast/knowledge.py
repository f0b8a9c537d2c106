"""Assertion algebra: the learning operator on arrays, the drift guard, the ontology.

An assertion is a pair (k, b): k in [0, 1] is the quantity of knowledge an
actor holds about one elementary fact, b in [-1, 1] is the belief attached
to it (negative = disbelief, 0 = unverifiable rumor). The product k*b is the
assertion's value; the mean absolute value across an actor's assertions
(its row in `World`) is the actor's average knowledge.

Everything here is a pure function on numpy arrays or floats; the session
kernel in `transfer.py` applies the operators to whole rows of `World`.
"""

from __future__ import annotations

import numpy as np

# Out-of-range excursions up to this size are treated as floating-point
# drift and clamped; anything larger means the algebra produced an invalid
# value and is a bug, not noise.
DRIFT_TOLERANCE = 1e-9


class DriftError(ArithmeticError):
    """A result left its valid range by more than floating-point drift."""


def clamped_array(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Clamp an array into [lo, hi], rejecting excursions beyond drift and NaN; no copy if inside."""
    low = np.minimum.reduce(values, axis=None)
    high = np.maximum.reduce(values, axis=None)
    if not (lo - low <= DRIFT_TOLERANCE and high - hi <= DRIFT_TOLERANCE):  # NaN fails both
        raise DriftError(f"range [{float(low)!r}, {float(high)!r}] outside [{lo}, {hi}] beyond drift tolerance")
    return np.minimum(np.maximum(values, lo), hi) if low < lo or high > hi else values


def combined_knowledge(k_have, k_added):
    """Knowledge part of the learning operator: k + k'(1 - k).

    Smooth interpolation between fully-overlapping (max) and disjoint
    (capped sum) partial knowledge; works elementwise on arrays.
    """
    return k_have + k_added * (1.0 - k_have)


def combined_belief(b_have, b_added, weight):
    """Belief part of the learning operator.

    The added belief is weighted by `weight` (normally the added knowledge
    quantity, so confident ignorance carries no force) and saturates toward
    +1 or -1 depending on the added belief's sign. Elementwise on arrays.
    """
    gain = np.where(b_added >= 0.0, 1.0 - b_have, 1.0 + b_have)
    return b_have + weight * b_added * gain


class Ontology:
    """Square matrix of pairwise assertion correlations.

    Entry [i, j] says how a belief change in assertion i pulls the belief of
    assertion j. The diagonal is 1; off-diagonal entries need not be
    symmetric. Stored dense and read-only.
    """

    __slots__ = ("m",)

    def __init__(self, m):
        m = np.asarray(m, dtype=float).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("ontology matrix must be square")
        m = clamped_array(m, -1.0, 1.0)
        if not np.allclose(np.diag(m), 1.0, atol=DRIFT_TOLERANCE):
            raise ValueError("ontology diagonal must be all ones")
        np.fill_diagonal(m, 1.0)
        m.setflags(write=False)
        self.m = m

    @classmethod
    def identity(cls, size: int) -> "Ontology":
        return cls(np.eye(size))

    @property
    def size(self) -> int:
        return self.m.shape[0]
