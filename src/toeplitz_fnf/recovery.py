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

:func:`recover_blocks` replays the same trace on the groups of vertices
that share a label, listed in label order with each group increasing, so
the block permutation needs no sort.  Undoing an alpha step shifts the
positions right of the band and appends the band's singleton groups at
the end; undoing a beta step with ``K, r = divmod(n, d)`` turns group
``L``, whose positions below ``d`` are ``Q_L``, into ``Q_L + kd`` for
``k < K`` followed by ``Q_L ∩ [0, r) + Kd``.  The second part is a prefix
of ``Q_L`` because ``Q_L`` is sorted, and by (1) the folded group is
exactly ``Q_L`` followed by ``Q_L ∩ [0, r) + d``.  Positions inside a
group stay increasing, existing groups keep their order and fresh groups
come last, just as fresh labels are the largest, so group ``L`` is label
``L + 1`` throughout.

A beta undo loops over runs of consecutive groups alike in
``m_L = |Q_L|`` and ``t_L = |Q_L ∩ [0, r)|``; a run of ``G`` groups owns
one row-major ``(G, K m + t)`` block of the output.  Runs are found by
comparing neighbours, so only their number rests on (2): at ``x = d`` and
``x = r`` in the folded instance it says ``m`` and ``t`` do not increase
along the groups.  Every group has a position below ``d``, so ``m`` holds
positive values summing to ``d`` and ``t`` values summing to ``r``, and
``j`` distinct positive values sum to at least ``j(j + 1)/2``; an undo
thus runs at most ``sqrt(2d) + sqrt(2r) + 1 = O(sqrt(n))`` Python
iterations, plus ``O(log K)`` doubling copies, around vectorised work
proportional to ``n``.

The replay holds each position above plus one (``Q_L`` is the part of a
group at most ``d``), so its result is the 1-based permutation with no
final pass, and no step allocates an ``n``-sized array besides its output.
One periodic fill by doubling copies serves both beta undos: it extends
the labels with period ``d``, and ``Q_0`` to the first group's rows and
tail with period ``m_0`` and step ``d``; that group's first column
``Q_0[0] + kd`` then offsets each run's ``Q_L - Q_0[0]`` in one broadcast.
The labels take the narrowest signed integer dtype that holds ``c``, the
permutation and the group bounds ``int32`` up to its maximum order.  With one
component the labels are a constant, read-only view.
"""

from __future__ import annotations

import numpy as np

from .reduction import ALPHA, ReductionTrace

__all__ = ["ComponentIndexSequence", "recover_cis", "recover_blocks"]


def _index_dtype(n: int) -> type:
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


def _label_dtype(c: int) -> type:
    """The narrowest signed integer dtype that holds ``c``."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if c <= np.iinfo(t).max)


class ComponentIndexSequence:
    """Labelling ``rho`` of vertices ``1..n`` by component indices ``1..c``.

    ``rho[k]`` is the component index of vertex ``k + 1``; two vertices get
    equal labels exactly when they lie in the same component.  Every label
    in ``[1, c]`` occurs at least once.  The sequence keeps a read-only copy
    of ``rho``, so an array passed in is never frozen in its caller's hands.
    :func:`recover_cis` stores the labels in the narrowest signed integer
    dtype that holds ``c``, ``int8`` up to 127 components, so cast them (say
    ``rho.astype(np.int64)``) before arithmetic whose results can exceed ``c``.
    """

    __slots__ = ("n", "c", "rho")

    def __init__(self, n: int, c: int, rho: np.ndarray) -> None:
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in (n, c)):
            raise ValueError(f"order and component count must be integers, got {n!r}, {c!r}")
        rho = np.array(rho)
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


def _fill_periodic(out: np.ndarray, start: int, period: int, step: int) -> None:
    """Fill ``out[start:]`` so that ``out[p] = out[p - period] + step``.

    Needs ``period <= start``.  Each copy takes the whole periods written so
    far and shifts them by their count times ``step``, so the fill is a few
    copies of doubling size instead of an element-wise loop.
    """
    src, done = start - period, start
    while done < out.size:
        # out[src:done] holds whole periods
        width = min(done - src, out.size - done)
        np.add(out[src:src + width], (done - src) // period * step, out=out[done:done + width])
        done += width


def recover_cis(trace: ReductionTrace) -> ComponentIndexSequence:
    """Rebuild the component labelling of the original instance from a trace.

    ``rho`` takes the narrowest signed integer dtype that holds ``c``.  With
    one component it is a read-only stride-0 view of a single ``1``.
    """
    n, c = trace.n_initial, trace.component_count
    dtype = _label_dtype(c)
    # the replay labels every vertex and uses each label in [1, c], so the
    # constructor's full-vector checks are skipped
    cis = ComponentIndexSequence.__new__(ComponentIndexSequence)
    cis.n, cis.c = n, c
    if c == 1:
        cis.rho = np.broadcast_to(dtype(1), n)  # read-only; no n-sized write
        return cis
    rho = np.arange(1, trace.n_final + 1, dtype=dtype)
    fresh = trace.n_final

    for step in reversed(trace.steps):
        out = np.empty(step.n_before, dtype=dtype)
        if step.kind == ALPHA:
            half, width = step.n_before - step.d, step.c
            out[:half] = rho[:half]
            out[half + width:] = rho[half:]
            out[half:half + width] = np.arange(fresh + 1, fresh + width + 1, dtype=dtype)
            fresh += width
        else:
            out[:step.n_after] = rho
            _fill_periodic(out, step.n_after, step.d, 0)
        rho = out

    rho.setflags(write=False)
    cis.rho = rho
    return cis


def recover_blocks(trace: ReductionTrace) -> tuple[np.ndarray, np.ndarray]:
    """Vertices grouped by component, and the bounds of each group.

    Returns the 1-based ``permutation`` and ``bounds`` of length ``c + 1``:
    the component with label ``L`` owns ``permutation[bounds[L-1]:bounds[L]]``,
    in increasing order.  Both take the permutation's dtype, ``int32`` up to
    its maximum order and ``int64`` above it.  The trace is replayed on the
    groups themselves, so no labels are sorted.
    """
    n, c = trace.n_initial, trace.component_count
    dtype = _index_dtype(n)
    if c == 1:
        return np.arange(1, n + 1, dtype=dtype), np.array([0, n], dtype=dtype)
    perm = np.arange(1, trace.n_final + 1, dtype=dtype)
    bounds = np.arange(trace.n_final + 1, dtype=dtype)

    for step in reversed(trace.steps):
        if step.kind == ALPHA:
            # positions right of the band move past it; the band's vertices
            # become singleton groups after all others
            half, width = step.n_before - step.d, step.c
            out = np.empty(step.n_before, dtype=dtype)
            old = out[:step.n_after]
            old[:] = perm
            np.add(old, width, out=old, where=old > half)
            out[step.n_after:] = np.arange(half + 1, half + width + 1, dtype=dtype)
            perm = out
            bounds = np.concatenate((bounds, bounds[-1] + np.arange(1, width + 1, dtype=dtype)))
        else:
            perm, bounds = _unfold_groups(perm, bounds, step.n_before, step.d, dtype)
    return perm, bounds


def _unfold_groups(perm: np.ndarray, bounds: np.ndarray, n: int, d: int,
                   dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """Undo a beta fold of order ``n`` and period ``d`` on the groups of 1-based positions.

    Group ``L`` becomes ``Q_L + kd`` for ``k < K``, then the part of ``Q_L``
    up to ``r``, shifted by ``Kd`` (see the module docstring).
    """
    K = n // d
    low = perm <= d
    # Q_L for every group, concatenated in group order; m_L = |Q_L| and the
    # t_L positions after Q_L are the tail, Q_L ∩ [1, r] + d
    q = perm[low]
    m = np.add.reduceat(low, bounds[:-1], dtype=np.int64)
    t = np.diff(bounds) - m
    q_bounds = np.concatenate(([0], np.cumsum(m)))
    new_bounds = np.concatenate(([0], np.cumsum(K * m + t)), dtype=dtype)
    out = np.empty(n, dtype=dtype)
    # the first group, rows Q_0 + kd then its tail, extends Q_0 with period
    # m_0 and step d; its first column Q_0[0] + kd offsets every other group
    m0 = int(m[0])
    out[:m0] = q[:m0]
    _fill_periodic(out[:new_bounds[1]], m0, m0, d)
    column = out[:K * m0:m0, None]
    base = int(q[0])
    q -= base
    # runs of consecutive later groups alike in (m, t) each own one
    # row-major block of the output: (G, K, m) rows, then (G, t) tails
    change = np.diff(m) | np.diff(t)
    change[:1] = 1
    edges = np.append(np.flatnonzero(change) + 1, m.size).tolist()
    for g0, g1 in zip(edges[:-1], edges[1:]):
        width, tail = int(m[g0]), int(t[g0])
        block = out[new_bounds[g0]:new_bounds[g1]].reshape(g1 - g0, K * width + tail)
        group = q[q_bounds[g0]:q_bounds[g1]].reshape(g1 - g0, 1, width)
        np.add(column, group, out=block[:, :K * width].reshape(g1 - g0, K, width))
        np.add(group[:, 0, :tail], base + K * d, out=block[:, K * width:])
    return out, new_bounds
