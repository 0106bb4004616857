"""Frobenius normal form of symmetric Toeplitz matrices in linear time.

The matrix is never materialised on the fast path: the first row is
converted to its set of nonzero offsets, a pair of exact reductions shrinks
the instance while tracking its component count, the recorded trace is
replayed to label every vertex and to group the vertices by component, and
each component then yields one irreducible symmetric Toeplitz diagonal
block.  ``fnf verify`` checks a result exactly, sharing no code with it.
"""

from .core import FirstRow, OffsetSet, offsets_from_row, row_from_offsets, toeplitz_entry
from .reduction import (
    ALPHA,
    BETA,
    ReductionStep,
    ReductionTrace,
    alpha_reduce,
    beta_reduce,
    reachability_divisor,
    reduce,
)
from .recovery import ComponentIndexSequence, recover_cis
from .fnf import FnfBlock, FnfResult, compute_fnf
from . import oracle

__version__ = "0.1.0"

__all__ = [
    "FirstRow",
    "OffsetSet",
    "offsets_from_row",
    "row_from_offsets",
    "toeplitz_entry",
    "ALPHA",
    "BETA",
    "ReductionStep",
    "ReductionTrace",
    "alpha_reduce",
    "beta_reduce",
    "reachability_divisor",
    "reduce",
    "ComponentIndexSequence",
    "recover_cis",
    "FnfBlock",
    "FnfResult",
    "compute_fnf",
    "oracle",
    "__version__",
]
