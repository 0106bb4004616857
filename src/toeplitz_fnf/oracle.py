"""Component labellers for the implicit offset graph; neither builds its edges.

:func:`hook_and_jump_labels` is the vectorised labeller ``fnf verify``
compares the pipeline's labels with; it shares no code with the fast path.
:func:`toeplitz_component_labels` gives the same labels by union-find over
:class:`DisjointSet`, one vertex pair at a time.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "DisjointSet",
    "toeplitz_component_labels",
    "hook_and_jump_labels",
]


class DisjointSet:
    """Union-find over ``0..n-1`` with path compression and union by size."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self.size[rx] < self.size[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.size[rx] += self.size[ry]
        return True

    def connected(self, x: int, y: int) -> bool:
        return self.find(x) == self.find(y)

    def groups(self) -> list[list[int]]:
        """Members per set, each sorted, ordered by smallest member."""
        by_root: dict[int, list[int]] = {}
        for x in range(len(self.parent)):
            by_root.setdefault(self.find(x), []).append(x)
        return sorted(by_root.values(), key=lambda g: g[0])


def toeplitz_component_labels(n: int, offsets: Iterable[int]) -> list[int]:
    """Component label per vertex of the implicit offset graph.

    Union-find over the pairs ``(v, v + s)`` without materialising edges.
    Labels are root-canonical: components are numbered 1, 2, ... in order of
    their smallest vertex.
    """
    dsu = DisjointSet(n)
    union = dsu.union
    for s in offsets:
        s = int(s)
        if not (1 <= s <= n - 1):
            raise ValueError(f"offset {s} out of range for {n} vertices")
        for v in range(n - s):
            union(v, v + s)
    labels = [0] * n
    next_label = 0
    root_label: dict[int, int] = {}
    for v in range(n):
        r = dsu.find(v)
        if r not in root_label:
            next_label += 1
            root_label[r] = next_label
        labels[v] = root_label[r]
    return labels


def hook_and_jump_labels(n: int, offsets: Iterable[int]) -> np.ndarray:
    """The labels of :func:`toeplitz_component_labels`, vectorised.

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
