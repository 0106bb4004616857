"""Output checks that share no code with the package's fast path.

A decomposition is accepted when

* the permutation is a bijection of ``1..n`` and equals the block vertex
  lists laid end to end, each list strictly increasing;
* each block's first row equals ``entries[vertices - vertices[0]]``;
* every block carries one label, distinct blocks carry distinct labels, and
  labels lie in ``[1, c]``;
* labels are constant across every edge (only needed where ``c > 1``);
* ``component_count`` equals the count the instance is known to have.

Together these say the blocks are exactly the connected components.  Work
runs in chunks of about a million entries so the checks stay below the
memory peak of the operation they check.
"""

from __future__ import annotations

import json

import numpy as np

CHUNK = 1 << 20


def _pieces(rows, verts):
    """Yield ``(rows, verts, anchors, starts)`` chunks covering all blocks in order.

    Small blocks are batched together; a block longer than :data:`CHUNK`
    is cut into slices.  ``anchors`` holds each element's block start
    vertex, ``starts`` marks elements that open a block.
    """
    batch_r, batch_v = [], []
    size = 0

    def flush():
        sizes = np.array([v.size for v in batch_v])
        anchors = np.repeat([v[0] for v in batch_v], sizes)
        starts = np.zeros(anchors.size, dtype=bool)
        starts[np.cumsum(sizes) - sizes] = True
        return np.concatenate(batch_r), np.concatenate(batch_v), anchors, starts

    for r, v in zip(rows, verts):
        if v.size > CHUNK:
            if batch_v:
                yield flush()
                batch_r, batch_v, size = [], [], 0
            for lo in range(0, v.size, CHUNK):
                starts = np.zeros(min(CHUNK, v.size - lo), dtype=bool)
                starts[0] = lo == 0
                yield r[lo:lo + CHUNK], v[lo:lo + CHUNK], v[0], starts
            continue
        batch_r.append(r)
        batch_v.append(v)
        size += v.size
        if size >= CHUNK:
            yield flush()
            batch_r, batch_v, size = [], [], 0
    if batch_v:
        yield flush()


def check_decomposition(entries: np.ndarray, offsets: np.ndarray, expected_c: int,
                        component_count: int, rho: np.ndarray, permutation: np.ndarray,
                        rows: list, verts: list) -> list[str]:
    """Return the list of problems found; empty when the output is correct."""
    n = entries.size
    problems = []
    if component_count != expected_c:
        problems.append(f"component_count {component_count} != expected {expected_c}")
    if len(rows) != component_count or len(verts) != component_count:
        problems.append(f"{len(verts)} blocks for {component_count} components")
    if rho.shape != (n,) or permutation.shape != (n,):
        problems.append("labelling or permutation has the wrong length")
        return problems
    if any(r.size != v.size or v.size == 0 for r, v in zip(rows, verts)):
        problems.append("a block row and vertex list differ in size or are empty")
        return problems
    if int(rho.min()) < 1 or int(rho.max()) > component_count:
        problems.append(f"labels outside [1, {component_count}]")
        return problems

    seen = np.zeros(n + 1, dtype=bool)
    pos = 0
    prev = 0
    for r, v, anchors, starts in _pieces(rows, verts):
        end = pos + v.size
        if end > n:
            problems.append("blocks hold more than n vertices")
            return problems
        if int(v.min()) < 1 or int(v.max()) > n:
            problems.append("block vertex outside [1, n]")
            return problems
        if not np.array_equal(permutation[pos:end], v):
            problems.append(f"permutation differs from the block vertices near position {pos}")
        steps = np.diff(v, prepend=prev)
        if not np.all((steps > 0) | starts):
            problems.append(f"block vertices not increasing near position {pos}")
        if not np.array_equal(r, entries[v - anchors]):
            problems.append(f"block first_row differs from the row near position {pos}")
        if not np.all(rho[v - 1] == rho[np.asarray(anchors) - 1]):
            problems.append(f"labels not constant within a block near position {pos}")
        seen[v] = True
        pos = end
        prev = int(v[-1])
    if pos != n or not seen[1:].all():
        problems.append("permutation is not a bijection of 1..n")

    block_labels = rho[np.array([v[0] for v in verts]) - 1]
    if np.unique(block_labels).size != len(verts):
        problems.append("two blocks share a label")

    if component_count > 1:
        for s in offsets.tolist():
            for lo in range(0, n - s, CHUNK):
                hi = min(lo + CHUNK, n - s)
                if not np.array_equal(rho[lo:hi], rho[lo + s:hi + s]):
                    problems.append(f"labels differ across an edge at offset {s}")
                    break
    return problems


def check_json_output(path: str, entries: np.ndarray, offsets: np.ndarray,
                      expected_c: int) -> list[str]:
    """Parse a ``compute`` JSON document back and check it."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    blocks = doc["blocks"]
    rows = [np.array(b["first_row"], dtype=np.float64) for b in blocks]
    verts = [np.array(b["vertices"], dtype=np.int64) for b in blocks]
    problems = []
    if doc["n"] != entries.size:
        problems.append(f"document n {doc['n']} != {entries.size}")
    if any(b["size"] != v.size for b, v in zip(blocks, verts)):
        problems.append("a block size disagrees with its vertex list")
    return problems + check_decomposition(
        entries, offsets, expected_c, doc["component_count"],
        np.array(doc["cis"], dtype=np.int64), np.array(doc["permutation"], dtype=np.int64),
        rows, verts)


def _ints(csv: str) -> np.ndarray:
    return np.array(csv.split(","), dtype=np.int64)


def check_text_output(path: str, entries: np.ndarray, offsets: np.ndarray,
                      expected_c: int) -> list[str]:
    """Parse a ``compute --format text --trace`` document back and check it."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fields = {}
    rows, verts, sizes, trace = [], [], [], []
    for line in lines:
        key, _, rest = line.partition(" ")
        if key == "block":
            _, size, vs, fr = rest.split(" ")
            sizes.append(int(size.removeprefix("size=")))
            verts.append(_ints(vs.removeprefix("vertices=")))
            rows.append(np.array(fr.removeprefix("first_row=").split(","), dtype=np.float64))
        elif key == "trace":
            _, span, d, c = rest.split(" ")
            n_before, n_after = span.removeprefix("n=").split("->")
            trace.append((int(n_before), int(n_after), int(c.removeprefix("c="))))
        else:
            fields[key] = rest
    n = entries.size
    count = int(fields["components"])
    problems = []
    if int(fields["n"]) != n:
        problems.append(f"text n {fields['n']} != {n}")
    if any(s != v.size for s, v in zip(sizes, verts)):
        problems.append("a block size disagrees with its vertex list")
    chain = [n] + [a for _, a, _ in trace]
    if [b for b, _, _ in trace] != chain[:-1] or sum(c for *_, c in trace) + chain[-1] != count:
        problems.append("trace lines do not chain from n to the component count")
    return problems + check_decomposition(
        entries, offsets, expected_c, count, _ints(fields["cis"]),
        _ints(fields["permutation"]), rows, verts)
