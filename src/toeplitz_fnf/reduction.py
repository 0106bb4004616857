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
    """One reduction move.

    ``d`` is the smallest offset for an alpha step and the fold divisor for
    a beta step.  ``c`` is the number of components removed (positive for
    alpha, always zero for beta).
    """

    kind: str
    n_before: int
    n_after: int
    d: int
    c: int

    def __post_init__(self) -> None:
        if self.kind == ALPHA:
            if self.c < 1:
                raise ValueError(f"alpha step must drop at least one component, got c={self.c}")
            if self.c != 2 * self.d - self.n_before:
                raise ValueError("alpha step: c must equal 2*d - n_before")
            if self.n_after != self.n_before - self.c:
                raise ValueError("alpha step: n_after must equal n_before - c")
            if self.n_after != 2 * (self.n_before - self.d):
                raise ValueError("alpha step: n_after must equal 2*(n_before - d)")
        elif self.kind == BETA:
            if self.c != 0:
                raise ValueError(f"beta step preserves components, got c={self.c}")
            if self.d < 1:
                raise ValueError(f"beta step needs a positive divisor, got d={self.d}")
            if self.n_after != self.d + self.n_before % self.d:
                raise ValueError("beta step: n_after must equal d + (n_before mod d)")
            if self.n_after >= self.n_before:
                raise ValueError("beta step must shrink the order")
            if 3 * self.n_after >= 2 * self.n_before:
                raise ValueError("beta step must shrink below 2/3 of the order")
        else:
            raise ValueError(f"unknown step kind {self.kind!r}")


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
    s_arr = OffsetSet(n, offsets).offsets
    if s_arr.size == 0:
        raise ValueError("offset set must be nonempty")
    if 2 * s_arr[0] > n:
        raise ValueError(f"need 2*min(offsets) <= n, got min={s_arr[0]} with n={n}")
    return _divisor(n, s_arr)


def _divisor(n: int, s_arr: np.ndarray) -> int:
    d = int(s_arr[0])
    rest = s_arr[1:]
    pos = 0
    while pos < rest.size:
        # Offsets usable under the current divisor; multiples of d leave it
        # unchanged, so skip the whole run of them in one step.
        hi = int(np.searchsorted(rest, n - d, side="right"))
        if hi <= pos:
            break
        window = rest[pos:hi]
        nonmultiple = np.flatnonzero(window % d)
        if nonmultiple.size == 0:
            pos = hi
            continue
        k = int(nonmultiple[0])
        d = gcd(d, int(window[k]))
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
    return _alpha_drop(n, s_arr)


def _alpha_drop(n: int, s_arr: np.ndarray) -> tuple[int, np.ndarray, int]:
    m = 2 * int(s_arr[0]) - n
    return n - m, s_arr - m, m


def _beta_fold(n: int, s_arr: np.ndarray, d: int) -> tuple[int, np.ndarray]:
    q, r = divmod(n, d)
    survivors = s_arr[s_arr > n - d] - (q - 1) * d
    if r > 0:
        return d + r, np.unique(np.append(survivors, d))
    return d, survivors


def beta_reduce(n: int, offsets: Iterable[int] | np.ndarray, d: int) -> tuple[int, np.ndarray]:
    """Fold a ``d``-step-connected instance down to order ``d + (n mod d)``.

    ``d`` must be the value of :func:`reachability_divisor` for the input.
    Offsets at or below ``n - d`` are discarded; the survivors are shifted
    down by ``(n // d - 1) * d``, and ``d`` itself joins the set whenever
    ``d`` does not divide ``n``.  The component count of the associated
    graph is unchanged.
    """
    s_arr = OffsetSet(n, offsets).offsets
    expected = reachability_divisor(n, s_arr)
    if d != expected:
        raise ValueError(f"divisor {d} does not match the instance (expected {expected})")
    return _beta_fold(n, s_arr, d)


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
            n_next, s_arr, m = _alpha_drop(n_i, s_arr)
            steps.append(ReductionStep(ALPHA, n_i, n_next, s0, m))
        else:
            d = _divisor(n_i, s_arr)
            n_next, s_arr = _beta_fold(n_i, s_arr, d)
            steps.append(ReductionStep(BETA, n_i, n_next, d, 0))
        n_i = n_next

    trace = ReductionTrace(tuple(steps), n_i)
    return trace, trace.component_count
