"""Assemble the Frobenius normal form from the vertices grouped into blocks.

Each component of the graph of a symmetric Toeplitz first row, relabelled
``1..k`` in vertex order ``n_1 < ... < n_k``, is the graph of the symmetric
Toeplitz matrix whose first row reads the original at ``n_l - n_1``.  Cut at
the block bounds, the trace replay's permutation, which lists the vertices
component by component, is the decomposition; blocks are built when read.
When ``n`` is at least the sum of the two largest offsets, Fine and Wilf's
periodicity lemma makes every component a residue class modulo the offsets'
gcd, so a block row is most often a strided view of the input row, one
view shared by all the blocks alike in size and step.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# offsets_from_row is unused since reduce reads the row; perfbench/tracer.py wraps it by name
from .core import FirstRow, offsets_from_row  # noqa: F401
from .recovery import ComponentIndexSequence, recover_blocks, recover_cis
from .reduction import ReductionTrace, reduce

__all__ = [
    "FnfBlock",
    "FnfResult",
    "compute_fnf",
]

#: Gaps of a block's vertex list checked at a time when the block is read.
_GAPS = 1 << 16


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array``, which stays writable in its caller's hands."""
    view = array.view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True, eq=False)
class FnfBlock:
    """One irreducible diagonal block and the vertices it came from."""

    size: int
    first_row: np.ndarray
    vertices: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.size, (int, np.integer)) or isinstance(self.size, bool):
            raise ValueError(f"block size must be an integer, got {self.size!r}")
        object.__setattr__(self, "first_row", _read_only(np.asarray(self.first_row, np.float64)))
        object.__setattr__(self, "vertices", _read_only(np.asarray(self.vertices)))
        if self.size < 1 or self.first_row.size != self.size or self.vertices.size != self.size:
            raise ValueError("block row and vertex list must both have the block size")

    @property
    def offsets(self) -> np.ndarray:
        """Nonzero offsets of the block's own first row."""
        return np.flatnonzero(self.first_row[1:] != 0.0).astype(np.int64) + 1


@dataclass(frozen=True, eq=False)
class FnfResult:
    """Full decomposition: labelling, permutation cut into blocks, trace.

    ``permutation[p]`` is the original (1-based) vertex placed at position
    ``p + 1``; gathering the original matrix at those indices on both axes
    produces the direct sum of the blocks, in order.  Block ``k`` owns
    ``permutation[block_bounds[k]:block_bounds[k + 1]]``, which are exactly
    the vertices with label ``k + 1`` in ``cis``; the bounds share the
    permutation's dtype.  The trace replay numbers components canonically
    (see :mod:`toeplitz_fnf.recovery`), so blocks come by decreasing size,
    ties broken by smallest vertex.
    """

    row: FirstRow
    cis: ComponentIndexSequence
    permutation: np.ndarray
    block_bounds: np.ndarray
    trace: ReductionTrace

    def __post_init__(self) -> None:
        if self.permutation.size != self.row.n:
            raise ValueError("permutation must have length n")
        bounds = self.block_bounds
        if (not isinstance(bounds, np.ndarray) or bounds.dtype.kind not in "iu"
                or bounds.dtype != self.permutation.dtype):
            raise ValueError("block bounds must be integers of the permutation's dtype")
        if (bounds.shape != (self.cis.c + 1,) or bounds[0] != 0 or bounds[-1] != self.row.n
                or (bounds[1:] <= bounds[:-1]).any()):
            raise ValueError("block bounds must cut 0..n into one block per component")
        object.__setattr__(self, "permutation", _read_only(self.permutation))
        object.__setattr__(self, "block_bounds", _read_only(bounds))

    @property
    def n(self) -> int:
        return self.row.n

    @property
    def component_count(self) -> int:
        return self.cis.c

    @property
    def blocks(self) -> BlockViews:
        """The blocks in output order, each built when it is read."""
        return BlockViews(self)

    @cached_property
    def _rows(self) -> dict:
        """Read-only views of the row by ``(span, step)``, made when a block first reads one."""
        return {}


class BlockViews(Sequence):
    """Read-only sequence of the blocks of an :class:`FnfResult`.

    Each access builds one :class:`FnfBlock` whose ``vertices`` is a slice
    of the permutation and whose ``first_row`` reads the input row at
    ``vertices - vertices[0]``: a slice of it for consecutive vertices, a
    strided view for a residue class, and a gather otherwise.  A slice or
    strided view is made once per span and step and shared by every block
    that reads it.
    """

    __slots__ = ("_result",)

    def __init__(self, result: FnfResult) -> None:
        self._result = result

    def __len__(self) -> int:
        return self._result.block_bounds.size - 1

    def __getitem__(self, k):
        # range indexes, slices and raises exactly as a tuple does
        at = range(len(self))[k]
        return tuple(map(self._block, at)) if isinstance(at, range) else self._block(at)

    def __iter__(self):
        return map(self._block, range(len(self)))

    def _block(self, k: int) -> FnfBlock:
        lo, hi = self._result.block_bounds[k:k + 2].tolist()
        vertices = self._result.permutation[lo:hi]
        entries = self._result.row.entries
        # vertices increase, so a span of (size - 1) * step is an arithmetic
        # progression when every gap is step; the gaps are read only for step > 1,
        # _GAPS at a time, so that no block-sized temporary is made
        span = int(vertices[-1] - vertices[0])
        step = span // (hi - lo - 1) if hi - lo > 1 else 1
        if span == (hi - lo - 1) * step and (step == 1 or all(
                (np.diff(vertices[at:at + _GAPS + 1]) == step).all()
                for at in range(0, hi - lo - 1, _GAPS))):
            rows = self._result._rows
            first_row = rows.get((span, step))
            if first_row is None:  # a read-only view of the row, shared by alike blocks
                first_row = rows[span, step] = entries[:span + 1:step]
        else:
            first_row = entries[vertices - vertices[0]]
            first_row.setflags(write=False)
        # both arrays have the block size by construction: the constructor's checks are skipped
        block = FnfBlock.__new__(FnfBlock)
        block.__dict__.update(size=hi - lo, first_row=first_row, vertices=vertices)
        return block


def compute_fnf(row: FirstRow) -> FnfResult:
    """Full pipeline from a first row to its Frobenius normal form.

    Runs the reduction loop on the row, then replays the trace
    twice: once for the component labels and once for the vertices grouped
    into blocks.  Total work is linear in the order of the matrix.
    """
    trace, _ = reduce(row)
    cis = recover_cis(trace)
    permutation, bounds = recover_blocks(trace)
    return FnfResult(row=row, cis=cis, permutation=permutation, block_bounds=bounds,
                     trace=trace)
