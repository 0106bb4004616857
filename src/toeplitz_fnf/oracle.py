"""The component labeller ``fnf verify`` compares the pipeline's labels with.

:func:`toeplitz_component_labels` labels the implicit offset graph without
building its edges, and shares no code with the fast path.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["toeplitz_component_labels"]


def toeplitz_component_labels(n: int, offsets: Iterable[int]) -> np.ndarray:
    """Component label per vertex of the implicit offset graph.

    Labels are root-canonical: components are numbered 1, 2, ... in order of
    their smallest vertex.

    Hooking and pointer jumping (Shiloach and Vishkin, J. Algorithms 3, 1982;
    FastSV, SIAM PP 2020): each vertex points into its component, at no larger
    a vertex.  A round hooks the larger pointer of each edge onto the smaller
    and jumps (``P = P[P]``) onto roots.  Pointers only fall, so a round ending
    where it began leaves each component one root, its smallest vertex.
    """
    P, before = np.arange(n, dtype=np.int32 if n < 2**31 else np.int64), None
    while not np.array_equal(P, before):
        before = P.copy()
        for s in offsets:
            ends = P[:n - s], P[s:]
            np.minimum.at(P, np.maximum(*ends), np.minimum(*ends))
        while not np.array_equal(jumped := P[P], P):
            P = jumped
    return np.cumsum(P == np.arange(n, dtype=P.dtype), dtype=P.dtype)[P]
