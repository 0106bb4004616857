"""Replay a reduction trace backwards to label every original vertex.

The terminal instance of a trace is edgeless, so its vertices are their own
components.  Walking the steps in reverse rebuilds the labelling of each
larger instance:

* undoing a **beta** step copies the folded labelling onto the first
  ``n_after`` positions and extends it with period ``d``;
* undoing an **alpha** step splits the folded labelling in half, re-inserts
  the dropped band in the middle, and gives the band fresh labels.

Total work is proportional to the sum of the orders along the trace, which
the beta shrink factor keeps at ``O(n)``.

The labels already number the components in canonical block order: by
decreasing size, ties broken by smallest vertex.  Below, positions are
0-based, ``C`` and ``C'`` are components, and ``C(x)`` counts the vertices
of ``C`` in ``[0, x)``.

1. *Labels follow first occurrence.*  The terminal ``arange`` numbers
   vertices in order.  Undoing a beta step gives ``out[p] = rho[p mod d]``:
   when ``r = n mod d > 0`` the fold added offset ``d``, which joins ``j``
   to ``j + d`` for ``j < r``, so every label already first occurs in
   ``[0, d)``.  After an alpha step the instance has order ``2h`` and
   smallest offset ``h``, so every right-half vertex is joined to a
   left-half one and all old labels first occur before the band.  The
   band's fresh labels exceed all old ones and increase left to right.
2. *Prefix domination.*  If ``min C < min C'`` then ``C(x) >= C'(x)`` for
   every ``x``.  Undoing a beta step, ``x = kd + y`` with ``0 <= y < d``
   gives ``C(x) = k C(d) + C(y)``, both counted in the folded instance,
   where each term is dominated.  Undoing an alpha step shifts the old
   components as a whole; the band singletons are dominated by every old
   component, since each has a vertex left of the band.

By (1) label order is the order of smallest vertices, and by (2) with
``x = n`` sizes do not increase along it, so it is the canonical order.
"""

from __future__ import annotations

import numpy as np

from .reduction import ALPHA, ReductionTrace

__all__ = ["ComponentIndexSequence", "recover_cis"]


def _index_dtype(n: int) -> type:
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


class ComponentIndexSequence:
    """Labelling ``rho`` of vertices ``1..n`` by component indices ``1..c``.

    ``rho[k]`` is the component index of vertex ``k + 1``; two vertices get
    equal labels exactly when they lie in the same component.  Every label
    in ``[1, c]`` occurs at least once.
    """

    __slots__ = ("n", "c", "rho")

    def __init__(self, n: int, c: int, rho: np.ndarray) -> None:
        rho = np.asarray(rho)
        if n < 1:
            raise ValueError(f"order must be at least 1, got {n}")
        if rho.ndim != 1 or rho.size != n:
            raise ValueError("labelling must be a vector of length n")
        if not (1 <= c <= n):
            raise ValueError(f"component count {c} out of range for order {n}")
        try:
            counts = np.bincount(rho, minlength=c + 1)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"labels must lie in [1, {c}]") from exc
        if counts.size > c + 1 or counts[0] != 0 or np.any(counts[1:] == 0):
            raise ValueError(f"labels must cover [1, {c}] exactly")
        rho.setflags(write=False)
        self.n = n
        self.c = c
        self.rho = rho

    def __repr__(self) -> str:
        return f"ComponentIndexSequence(n={self.n}, c={self.c})"


def _extend_periodic(out: np.ndarray, start: int, d: int) -> None:
    """Fill ``out[start:]`` with ``out[p] = out[p - d]``.

    Block copies of doubling size keep this a handful of memcpys instead of
    an element-wise loop; every intermediate copy length is a multiple of
    ``d``, so periodicity is preserved.
    """
    tail = out.size - start
    first = min(d, tail)
    out[start:start + first] = out[start - d:start - d + first]
    filled = first
    while filled < tail:
        chunk = min(filled, tail - filled)
        out[start + filled:start + filled + chunk] = out[start:start + chunk]
        filled += chunk


def recover_cis(trace: ReductionTrace) -> ComponentIndexSequence:
    """Rebuild the component labelling of the original instance from a trace."""
    n = trace.n_initial
    dtype = _index_dtype(max(n, trace.component_count))
    rho = np.arange(1, trace.n_final + 1, dtype=dtype)
    fresh = trace.n_final

    for step in reversed(trace.steps):
        out = np.empty(step.n_before, dtype=dtype)
        if step.kind == ALPHA:
            half = step.n_after // 2
            width = step.n_before - step.n_after
            out[:half] = rho[:half]
            out[half + width:] = rho[half:]
            out[half:half + width] = np.arange(fresh + 1, fresh + width + 1, dtype=dtype)
            fresh += width
        else:
            out[:step.n_after] = rho
            _extend_periodic(out, step.n_after, step.d)
        rho = out

    # the replay labels every vertex and uses each label in [1, c], so the
    # constructor's full-vector checks are skipped
    rho.setflags(write=False)
    cis = ComponentIndexSequence.__new__(ComponentIndexSequence)
    cis.n, cis.c, cis.rho = n, trace.component_count, rho
    return cis
