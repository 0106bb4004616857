"""Offset-set reductions that count components without touching the matrix.

The graph attached to an order-``n`` offset set ``S`` joins ``u`` and ``v``
whenever ``|u - v|`` is in ``S``.  Two moves shrink such an instance while
keeping exact track of its component count:

* **alpha** -- when ``2 * min(S) > n`` the middle band of ``2*min(S) - n``
  vertices touches no edge.  Dropping the band and shifting every offset
  down by the band width leaves a smaller instance with exactly that many
  fewer components.

* **beta** -- when ``2 * min(S) <= n`` the instance is ``d``-step connected
  for the divisor ``d`` produced by :func:`reachability_divisor`; folding it
  down to order ``d + (n mod d)`` (keeping only offsets above ``n - d``,
  re-based, plus ``d`` itself when ``d`` does not divide ``n``) preserves
  the component count exactly.

Iterating the two moves until the offset set empties takes ``O(n)`` total
work: an alpha step is always followed by a beta step, and each beta step
shrinks the order by a factor below 2/3.  The recorded
:class:`ReductionTrace` is all that is needed to label every vertex of the
original instance afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable

import numpy as np

from .core import OffsetSet

__all__ = [
    "ALPHA",
    "BETA",
    "ReductionStep",
    "ReductionTrace",
    "reachability_divisor",
    "alpha_reduce",
    "beta_reduce",
    "reduce",
]

ALPHA = "alpha"
BETA = "beta"


@dataclass(frozen=True)
class ReductionStep:
    """One reduction move, recorded as its decision.

    ``d`` is the smallest offset for an alpha step and the fold divisor for
    a beta step.  The order after the step and the number of components it
    removes follow from ``(kind, n_before, d)``.
    """

    kind: str
    n_before: int
    d: int

    def __post_init__(self) -> None:
        if self.kind not in (ALPHA, BETA):
            raise ValueError(f"unknown step kind {self.kind!r}")
        if not 1 <= self.d < self.n_before:
            raise ValueError(f"step needs 1 <= d < n_before, got d={self.d} "
                             f"with n_before={self.n_before}")
        if self.kind == ALPHA and 2 * self.d <= self.n_before:
            raise ValueError("alpha step must drop at least one vertex: need 2*d > n_before")
        if self.kind == BETA and 3 * self.n_after >= 2 * self.n_before:
            raise ValueError("beta step must shrink below 2/3 of the order")

    @property
    def n_after(self) -> int:
        """``2*(n_before - d)`` for alpha, ``d + (n_before mod d)`` for beta."""
        if self.kind == ALPHA:
            return 2 * (self.n_before - self.d)
        return self.d + self.n_before % self.d

    @property
    def c(self) -> int:
        """Components removed: the band width ``2*d - n_before`` for alpha, 0 for beta."""
        return 2 * self.d - self.n_before if self.kind == ALPHA else 0


@dataclass(frozen=True)
class ReductionTrace:
    """Chained reduction steps ending in an edgeless instance of order ``n_final``."""

    steps: tuple[ReductionStep, ...]
    n_final: int

    def __post_init__(self) -> None:
        if self.n_final < 1:
            raise ValueError(f"terminal order must be at least 1, got {self.n_final}")
        for prev, nxt in zip(self.steps, self.steps[1:]):
            if prev.n_after != nxt.n_before:
                raise ValueError(
                    f"broken chain: step ends at order {prev.n_after} "
                    f"but next starts at {nxt.n_before}"
                )
        if self.steps and self.steps[-1].n_after != self.n_final:
            raise ValueError("terminal order must match the last step")

    @property
    def n_initial(self) -> int:
        return self.steps[0].n_before if self.steps else self.n_final

    @property
    def component_count(self) -> int:
        return sum(step.c for step in self.steps) + self.n_final


def reachability_divisor(n: int, offsets: Iterable[int] | np.ndarray) -> int:
    """Greatest-common-divisor folding of the offsets, smallest first.

    Starting from ``d = min(offsets)``, the remaining offsets are consumed
    in increasing order; each offset ``s`` with ``s <= n - d`` (for the
    current ``d``) updates ``d`` to ``gcd(d, s)``, and the scan stops at the
    first offset beyond that bound.  The returned ``d`` divides the smallest
    offset and every pair of vertices ``d`` apart in the associated graph is
    connected by a walk.

    Requires a nonempty offset set with ``2 * min(offsets) <= n``.
    """
    return _divisor(n, _beta_input(n, offsets))


def _beta_input(n: int, offsets: Iterable[int] | np.ndarray) -> np.ndarray:
    s_arr = OffsetSet(n, offsets).offsets
    if s_arr.size == 0:
        raise ValueError("offset set must be nonempty")
    if 2 * s_arr[0] > n:
        raise ValueError(f"need 2*min(offsets) <= n, got min={s_arr[0]} with n={n}")
    return s_arr


def _divisor(n: int, s_arr: np.ndarray) -> int:
    d = int(s_arr[0])
    pos = 1
    while d > 1:
        # Offsets usable under the current divisor; multiples of d leave it
        # unchanged, so jump to the first non-multiple.  A smaller d only
        # widens the usable range, so the scan never looks back.
        usable = s_arr[pos:int(np.searchsorted(s_arr, n - d, side="right"))]
        nonmultiple = np.flatnonzero(usable % d)
        if nonmultiple.size == 0:
            break
        k = int(nonmultiple[0])
        d = gcd(d, int(usable[k]))
        pos += k + 1
    return d


def alpha_reduce(n: int, offsets: Iterable[int] | np.ndarray) -> tuple[int, np.ndarray, int]:
    """Drop the edge-free middle band of an instance with ``2 * min(S) > n``.

    Returns ``(n', offsets', m)`` where ``m = 2*min(S) - n`` is the band
    width (and the exact component loss), ``n' = n - m``, and every offset
    is shifted down by ``m``.
    """
    s_arr = OffsetSet(n, offsets).offsets
    if s_arr.size == 0:
        raise ValueError("offset set must be nonempty")
    if 2 * s_arr[0] <= n:
        raise ValueError(f"need 2*min(offsets) > n, got min={s_arr[0]} with n={n}")
    step = ReductionStep(ALPHA, n, int(s_arr[0]))
    return step.n_after, s_arr - step.c, step.c


def _beta_fold(step: ReductionStep, s_arr: np.ndarray) -> np.ndarray:
    """Offsets above ``n - d`` moved down by ``n - n_after``, plus ``d`` unless ``d | n``."""
    n, d, n_after = step.n_before, step.d, step.n_after
    survivors = s_arr[int(np.searchsorted(s_arr, n - d, side="right")):] - (n - n_after)
    return survivors if n_after == d else np.unique(np.append(survivors, d))


def beta_reduce(n: int, offsets: Iterable[int] | np.ndarray) -> tuple[int, np.ndarray, int]:
    """Fold a ``d``-step-connected instance down to order ``d + (n mod d)``.

    ``d`` is the value of :func:`reachability_divisor` for the input.
    Returns ``(n', offsets', d)``: offsets at or below ``n - d`` are
    discarded, the survivors are shifted down by ``(n // d - 1) * d``, and
    ``d`` itself joins the set whenever ``d`` does not divide ``n``.  The
    component count of the associated graph is unchanged.
    """
    s_arr = _beta_input(n, offsets)
    step = ReductionStep(BETA, n, _divisor(n, s_arr))
    return step.n_after, _beta_fold(step, s_arr), step.d


def reduce(offset_set: OffsetSet) -> tuple[ReductionTrace, int]:
    """Run reductions until no offsets remain; return the trace and count.

    The returned count is the number of connected components of the
    associated graph, equivalently the number of diagonal blocks in the
    Frobenius normal form of any symmetric Toeplitz matrix with these
    nonzero offsets.  The offsets were checked when ``offset_set`` was
    built, and every move keeps them strictly increasing in ``[1, n-1]``.
    """
    steps: list[ReductionStep] = []
    n_i, s_arr = offset_set.n, offset_set.offsets
    while s_arr.size:
        s0 = int(s_arr[0])
        if 2 * s0 > n_i:
            step = ReductionStep(ALPHA, n_i, s0)
            s_arr = s_arr - step.c
        else:
            step = ReductionStep(BETA, n_i, _divisor(n_i, s_arr))
            s_arr = _beta_fold(step, s_arr)
        steps.append(step)
        n_i = step.n_after

    trace = ReductionTrace(tuple(steps), n_i)
    return trace, trace.component_count
