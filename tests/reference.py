"""Reference implementations the tests judge the pipeline by.

They favour obviousness over speed on materialised vertex/edge data:
union-find and breadth-first search for component partitions, union-find
labels of the implicit offset graph, direct pair scans for step-reachability,
residue-class quotients, the plain gcd scan, cycle-structure checks, dense
matrices, an exhaustive principal-submatrix search, and the input reader that
works on ``str`` objects token by token.  None shares code with the fast
pipeline or with the library's vectorised labeller.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Iterable, Sequence

import numpy as np


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


def union_find_labels(n: int, offsets: Iterable[int]) -> list[int]:
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


@dataclass(frozen=True)
class ExplicitGraph:
    """Materialised graph on vertices ``1..n`` with unordered edges."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"edge ({u}, {v}) invalid for {self.n} vertices")

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n + 1)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


@dataclass(frozen=True)
class QuotientGraph:
    """Residue-class quotient: vertices are the ``d`` classes mod ``d``."""

    d: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if not (1 <= u < v <= self.d):
                raise ValueError(f"class pair ({u}, {v}) invalid for modulus {self.d}")


def build_graph(n: int, offsets: Iterable[int]) -> ExplicitGraph:
    """Materialise the graph joining ``u`` and ``v`` iff ``|u - v|`` is an offset."""
    edge_list: list[tuple[int, int]] = []
    for s in offsets:
        s = int(s)
        if not (1 <= s <= n - 1):
            raise ValueError(f"offset {s} out of range for {n} vertices")
        for v in range(1, n - s + 1):
            edge_list.append((v, v + s))
    return ExplicitGraph(n=n, edges=frozenset(edge_list))


def _union_all(g: ExplicitGraph) -> DisjointSet:
    dsu = DisjointSet(g.n)
    for u, v in g.edges:
        dsu.union(u - 1, v - 1)
    return dsu


def components_oracle(g: ExplicitGraph) -> list[list[int]]:
    """Component partition of ``1..n`` via union-find."""
    return [[x + 1 for x in grp] for grp in _union_all(g).groups()]


def components_bfs(g: ExplicitGraph) -> list[list[int]]:
    """Component partition via breadth-first search; cross-check for the above."""
    adj = g.adjacency()
    seen = [False] * (g.n + 1)
    parts: list[list[int]] = []
    for start in range(1, g.n + 1):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        parts.append(sorted(queue))
    return sorted(parts, key=lambda p: p[0])


def is_d_reachable(g: ExplicitGraph, d: int) -> bool:
    """True iff every vertex pair at label distance ``d`` is connected."""
    if not (1 <= d < g.n):
        raise ValueError(f"step {d} out of range for {g.n} vertices")
    dsu = _union_all(g)
    return all(dsu.connected(v - 1, v + d - 1) for v in range(1, g.n - d + 1))


def divisor_chain(n: int, offsets: Iterable[int]) -> list[int]:
    """Divisor values visited by the one-offset-at-a-time gcd scan.

    Plain transcription of the scan behind
    :func:`toeplitz_fnf.reduction.reachability_divisor`; the last element
    equals its result.
    """
    s_list = [int(s) for s in offsets]
    if not s_list:
        raise ValueError("offset set must be nonempty")
    d = s_list[0]
    if 2 * d > n:
        raise ValueError(f"need 2*min(offsets) <= n, got min={d} with n={n}")
    chain = [d]
    for s in s_list[1:]:
        if s > n - d:
            break
        d = gcd(d, s)
        chain.append(d)
    return chain


def contract(g: ExplicitGraph, d: int) -> QuotientGraph:
    """Quotient by residue classes mod ``d``; loops are dropped."""
    if not (1 <= d <= g.n):
        raise ValueError(f"modulus {d} out of range for {g.n} vertices")

    def cls(v: int) -> int:
        r = v % d
        return r if r else d

    q_edges = set()
    for u, v in g.edges:
        cu, cv = cls(u), cls(v)
        if cu != cv:
            q_edges.add((min(cu, cv), max(cu, cv)))
    return QuotientGraph(d=d, edges=frozenset(q_edges))


def cycle_structure_check(n: int, s: int) -> bool:
    """Check the two-offset instance ``{s, n-s}`` splits into residue cycles.

    With ``d = gcd(n, s)`` the components must be exactly the arithmetic
    progressions ``{i, i+d, ..., i+(n/d-1)d}`` for ``i`` in ``1..d``, each
    inducing a cycle (every vertex of degree 2).
    """
    if not (0 < s < n):
        raise ValueError(f"need 0 < s < n, got s={s}, n={n}")
    if s == n - s:
        raise ValueError("offsets s and n-s must be distinct")
    g = build_graph(n, sorted({s, n - s}))
    d = gcd(n, s)
    expected = [list(range(i, n + 1, d)) for i in range(1, d + 1)]
    if components_oracle(g) != sorted(expected, key=lambda p: p[0]):
        return False
    degree = [0] * (n + 1)
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    return all(degree[v] == 2 for v in range(1, n + 1))


def witness_embeds(outer_row: Sequence[float], inner_row: Sequence[float],
                   indices: Sequence[int]) -> bool:
    """Check a concrete index choice realises one block inside another.

    ``indices`` are 0-based positions into the outer block, strictly
    increasing, one per position of the inner block; entry ``(p, q)`` of the
    induced principal submatrix must match the inner block exactly.
    """
    outer = np.asarray(outer_row, dtype=np.float64)
    inner = np.asarray(inner_row, dtype=np.float64)
    idx = list(indices)
    if len(idx) != inner.size or any(b <= a for a, b in zip(idx, idx[1:])):
        return False
    if idx[0] < 0 or idx[-1] >= outer.size:
        return False
    return all(outer[idx[q] - idx[p]] == inner[q - p]
               for p in range(len(idx)) for q in range(p, len(idx)))


def is_principal_submatrix(outer_row: Sequence[float], inner_row: Sequence[float],
                           cap: int = 12) -> bool | None:
    """Exhaustively search for the inner block inside the outer one.

    Returns ``True``/``False`` when decided, or ``None`` when the outer
    block exceeds ``cap`` and the search was not attempted.
    """
    outer = np.asarray(outer_row, dtype=np.float64)
    inner = np.asarray(inner_row, dtype=np.float64)
    if inner.size > outer.size:
        return False
    if outer.size > cap:
        return None
    if outer[0] != inner[0]:
        return False
    for idx in combinations(range(outer.size), inner.size):
        if witness_embeds(outer, inner, idx):
            return True
    return False


def nesting_check(blocks: Sequence, cap: int = 12) -> bool | None:
    """Check later blocks embed as principal submatrices of earlier ones.

    ``blocks`` must be in canonical (decreasing-size) order; blocks may be
    :class:`~toeplitz_fnf.fnf.FnfBlock` instances or raw first rows.  Any
    failed pair yields ``False``; otherwise ``None`` is returned when some
    pair was too large to search under ``cap``, and ``True`` when every
    pair was checked and embeds.
    """
    rows = [np.asarray(getattr(b, "first_row", b), dtype=np.float64) for b in blocks]
    unchecked = False
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            verdict = is_principal_submatrix(rows[i], rows[j], cap=cap)
            if verdict is False:
                return False
            if verdict is None:
                unchecked = True
    return None if unchecked else True


def dense_matrix(first_row: Sequence[float] | np.ndarray) -> np.ndarray:
    """Materialise the full symmetric Toeplitz matrix of a first row."""
    entries = np.asarray(first_row, dtype=np.float64)
    idx = np.arange(entries.size)
    return entries[np.abs(idx[:, None] - idx[None, :])]


def block_diagonal(rows: Iterable[Sequence[float]]) -> np.ndarray:
    """Direct sum of the symmetric Toeplitz matrices given by first rows."""
    mats = [dense_matrix(r) for r in rows]
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n), dtype=np.float64)
    pos = 0
    for m in mats:
        k = m.shape[0]
        out[pos:pos + k, pos:pos + k] = m
        pos += k
    return out


def canonical_partition(groups: Iterable[Iterable[int]]) -> set[frozenset[int]]:
    """Label-free form of a partition, for equality comparisons."""
    return {frozenset(g) for g in groups}


def partition_from_labels(labels: Sequence[int] | np.ndarray) -> set[frozenset[int]]:
    """Partition of vertices ``1..n`` induced by a label vector."""
    by_label: dict[int, list[int]] = {}
    for pos, lab in enumerate(labels):
        by_label.setdefault(int(lab), []).append(pos + 1)
    return canonical_partition(by_label.values())



class InputRefused(ValueError):
    """Raised by :func:`parse_input` where the CLI must exit with an input error."""


def parse_input(text: str) -> np.ndarray:
    """The first row of an input document, read from ``str`` objects token by token.

    This is the reader the CLI had before its byte reader, with json's
    ``ValueError`` for an integer of more than 4300 digits refused as input.
    """
    stripped = text.lstrip()
    if not stripped:
        raise InputRefused("empty input")
    if stripped[0] == "{":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise InputRefused(f"invalid JSON input: {exc}") from exc
        if not isinstance(doc, dict) or "first_row" not in doc:
            raise InputRefused('JSON input must be an object with a "first_row" array')
        raw = doc["first_row"]
        if not isinstance(raw, list) or not raw:
            raise InputRefused('"first_row" must be a nonempty array of numbers')
        # bool is a subclass of int, so compare exact types
        if not set(map(type, raw)) <= {float, int}:
            raise InputRefused('"first_row" must contain only numbers')
        try:
            values = np.array(raw, dtype=np.float64)
        except OverflowError as exc:
            raise InputRefused(f'"first_row" entries must be finite: {exc}') from exc
        if "n" in doc:
            if type(doc["n"]) is not int:
                raise InputRefused(f'declared order {doc["n"]!r} must be an integer')
            if doc["n"] != values.size:
                raise InputRefused(
                    f'declared order {doc["n"]} does not match row length {values.size}')
    else:
        try:
            values = np.array(text.split(), dtype=np.float64)
        except ValueError as exc:
            raise InputRefused(f"invalid numeric token: {exc}") from exc
    if not np.isfinite(values).all():
        raise InputRefused("first row entries must be finite")
    return values
