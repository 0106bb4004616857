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

The first move may read a row in place: its offsets in increasing order
until ``d`` is final (for beta: none past ``n - d``, none once ``d == 1``),
then only those it keeps, from ``min(S)`` for alpha and above ``n - d`` for
beta.  A row is read in windows from ``WINDOW`` positions wide, so one with
``a_1 != 0`` is read in one window.  Within a window only the runs of live
windows that :class:`FirstRow` wrote when it copied the row are read: a
sparse row's offsets are collected from its few nonzero windows, not from
all ``n`` positions, and a dense, short or adopted row is one run.  An
offset array is searched in one unbounded window, which is cut by the bound
of each ``d`` in turn.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterable

import numpy as np

from .core import FirstRow, OffsetSet

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
#: positions in the first window a move reads of a row; each next window is twice as wide
WINDOW = 65_536
#: ``between(lo, hi)``: the offsets ``lo <= s < hi``, increasing, for ``lo >= 1``
Between = Callable[[int, int], np.ndarray]
_NONE = np.empty(0, dtype=np.intp)


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
    return _divisor(n, *_between(_checked(n, offsets, BETA)))


def _checked(n: int, offsets: Iterable[int] | np.ndarray, kind: str) -> np.ndarray:
    """The validated offsets, nonempty and with ``2 * min`` above ``n`` iff ``kind`` is alpha."""
    s_arr = OffsetSet(n, offsets).offsets
    if s_arr.size == 0:
        raise ValueError("offset set must be nonempty")
    if (2 * s_arr[0] > n) != (kind == ALPHA):
        need = ">" if kind == ALPHA else "<="
        raise ValueError(f"need 2*min(offsets) {need} n, got min={s_arr[0]} with n={n}")
    return s_arr


def _between(source: FirstRow | np.ndarray) -> tuple[Between, int]:
    """A row's nonzero entries past ``a_0``, or a strictly increasing array's values,
    and the width of the first window to read them in.

    A row is scanned, so it is read from ``WINDOW`` positions on; an array is
    searched, so its first window is unbounded and reads every usable offset.
    A row's scan reads only the parts of ``[lo, hi)`` inside the runs of live
    windows its copy wrote.  A dead window holds only +0.0 bits, so no offset
    lies outside the runs, and reading the increasing runs in turn gives the
    same offsets in the same order as reading all of ``[lo, hi)``.
    """
    if isinstance(source, FirstRow):
        entries, runs = source.entries, source._runs

        def scan(lo: int, hi: int) -> np.ndarray:
            parts = [np.flatnonzero(entries[a:b] != 0.0) + a
                     for a, b in ((max(a, lo), min(b, hi)) for a, b in runs) if a < b]
            return parts[0] if len(parts) == 1 else np.concatenate(parts or [_NONE])
        return scan, WINDOW
    return (lambda lo, hi: source[source.searchsorted(lo):source.searchsorted(hi)],
            sys.maxsize)


def _divisor(n: int, between: Between, width: int) -> int:
    """The step's ``d``: ``min(S)`` for alpha, the reachability divisor for beta; 0 if no offsets.

    Offsets are read in windows that start ``width`` positions wide and double.
    """
    d, lo = 0, 1
    while d != 1 and lo <= n - d:
        hi = min(lo + width, n + 1 - d)
        usable = between(lo, hi)
        if not d and usable.size:
            # for alpha (2 * d > n) no offset is usable, and the scan ends here
            d, usable = int(usable[0]), usable[1:]
        # Multiples of d leave it unchanged, so jump to the first non-multiple
        # among the offsets usable for the current d.  A smaller d only widens
        # the usable range, which the rest of the window and the next windows hold.
        while d > 1 and (nonmultiple := np.flatnonzero(
                usable[:usable.searchsorted(n + 1 - d)] % d)).size:
            k = int(nonmultiple[0])
            d = gcd(d, int(usable[k]))
            usable = usable[k + 1:]
        lo, width = hi, 2 * width
    return d


def _move(n: int, between: Between, width: int) -> tuple[ReductionStep, np.ndarray] | None:
    """The alpha or beta move on the offsets, and the offsets after it; None if there are none.

    Alpha shifts every offset down by the band width.  Beta keeps the offsets
    above ``n - d``, moved down by ``n - n_after``, plus ``d`` unless ``d | n``.
    """
    d = _divisor(n, between, width)
    if not d:
        return None
    if 2 * d > n:
        step = ReductionStep(ALPHA, n, d)
        return step, between(d, n) - step.c
    step = ReductionStep(BETA, n, d)
    n_after = step.n_after
    survivors = between(n - d + 1, n) - (n - n_after)
    return step, survivors if n_after == d else np.unique(np.append(survivors, d))


def alpha_reduce(n: int, offsets: Iterable[int] | np.ndarray) -> tuple[int, np.ndarray, int]:
    """Drop the edge-free middle band of an instance with ``2 * min(S) > n``.

    Returns ``(n', offsets', m)`` where ``m = 2*min(S) - n`` is the band
    width (and the exact component loss), ``n' = n - m``, and every offset
    is shifted down by ``m``.
    """
    step, s_arr = _move(n, *_between(_checked(n, offsets, ALPHA)))
    return step.n_after, s_arr, step.c


def beta_reduce(n: int, offsets: Iterable[int] | np.ndarray) -> tuple[int, np.ndarray, int]:
    """Fold a ``d``-step-connected instance down to order ``d + (n mod d)``.

    ``d`` is the value of :func:`reachability_divisor` for the input.
    Returns ``(n', offsets', d)``: offsets at or below ``n - d`` are
    discarded, the survivors are shifted down by ``(n // d - 1) * d``, and
    ``d`` itself joins the set whenever ``d`` does not divide ``n``.  The
    component count of the associated graph is unchanged.
    """
    step, s_arr = _move(n, *_between(_checked(n, offsets, BETA)))
    return step.n_after, s_arr, step.d


def reduce(source: OffsetSet | FirstRow) -> tuple[ReductionTrace, int]:
    """Run reductions until no offsets remain; return the trace and count.

    The returned count is the number of connected components of the
    associated graph, equivalently the number of diagonal blocks in the
    Frobenius normal form of any symmetric Toeplitz matrix with these
    nonzero offsets.  ``source`` is an :class:`OffsetSet`, or a :class:`FirstRow`
    (offsets: its nonzero entries past ``a_0``) read in place where the first move
    needs it; both give the same result.  The offsets were checked when ``source``
    was built, and every move keeps them strictly increasing in ``[1, n-1]``.
    """
    steps: list[ReductionStep] = []
    n_i, reader = source.n, _between(source if isinstance(source, FirstRow) else source.offsets)
    while moved := _move(n_i, *reader):
        step, s_arr = moved
        steps.append(step)
        n_i, reader = step.n_after, _between(s_arr)

    trace = ReductionTrace(tuple(steps), n_i)
    return trace, trace.component_count
