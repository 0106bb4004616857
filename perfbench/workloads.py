"""Seeded instance generators for the benchmark's four workloads.

The generators live here, not in the package, so that a change to
``fnf bench`` cannot silently change what this benchmark measures.  Every
instance is a function of the seed alone; ``expected_c`` is the component
count the construction fixes, or ``None`` where only the oracle knows it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

LIBRARY = "library"
CLI = "cli"


@dataclass(frozen=True)
class Shape:
    name: str
    kind: str
    n: int
    # loaded / bypassed package layers, for the printed report
    loads: str
    bypasses: str


@dataclass(frozen=True)
class Instance:
    entries: np.ndarray
    offsets: np.ndarray
    expected_c: int | None


SHAPES = {
    s.name: s
    for s in (
        Shape("one-block", LIBRARY, 10**7,
              loads="core reduction recovery", bypasses="fnf grouping, cli"),
        Shape("few-blocks", LIBRARY, 10**7,
              loads="fnf grouping", bypasses="cli; core/reduction minor"),
        Shape("many-blocks", LIBRARY, 200_000,
              loads="fnf per-block assembly", bypasses="cli; core/reduction minor"),
        Shape("cli-compute", CLI, 10**6,
              loads="cli readers and writers", bypasses="compute is under 5%"),
    )
}


def _log2_k(n: int) -> int:
    return math.ceil(math.log2(n))


def _even_offsets(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Offset 2 plus ``k - 1`` distinct even offsets in ``[4, n - 1]``.

    Offset 2 links every vertex to the one two steps on and no odd offset
    exists, so the instance has exactly two components (odd and even
    vertices) for every ``n >= 3``.
    """
    halves = rng.choice((n - 1) // 2 - 1, size=k - 1, replace=False) + 2
    return np.sort(np.concatenate(([2], 2 * halves))).astype(np.int64)


def _one_block(rng: np.random.Generator, n: int) -> Instance:
    # about half the entries nonzero; a_1 != 0 joins every vertex to the next
    entries = rng.random(n)
    entries[entries < 0.5] = 0.0
    entries[1] = 1.0
    offsets = np.flatnonzero(entries[1:]) + 1
    return Instance(entries, offsets, 1)


def _few_blocks(rng: np.random.Generator, n: int) -> Instance:
    offsets = _even_offsets(rng, n, _log2_k(n))
    entries = np.zeros(n)
    entries[0] = 1.0
    entries[offsets] = rng.integers(1, 10, size=offsets.size)
    return Instance(entries, offsets, 2)


def _many_blocks(rng: np.random.Generator, n: int) -> Instance:
    # offsets crowd the top quarter: alpha drops the middle band of singletons,
    # two betas fold the rest, and c comes out near n/2.  Pinning the smallest
    # offset at 3n/4 pins the band at n/2 vertices, so the work barely
    # depends on the seed.
    lo = (3 * n) // 4
    rest = rng.choice(n - lo - 1, size=_log2_k(n) - 1, replace=False) + lo + 1
    offsets = np.sort(np.concatenate(([lo], rest))).astype(np.int64)
    entries = np.zeros(n)
    entries[offsets] = 0.5 + rng.random(offsets.size)
    return Instance(entries, offsets, None)


def _cli_row(rng: np.random.Generator, n: int) -> Instance:
    offsets = _even_offsets(rng, n, _log2_k(n))
    entries = np.zeros(n)
    # values of the form x.yyy5 are never integral, so the writers take the
    # float path for every nonzero entry
    entries[offsets] = rng.integers(1, 10**6, size=offsets.size) / 1000 + 0.0005
    return Instance(entries, offsets, 2)


_GENERATORS = {
    "one-block": _one_block,
    "few-blocks": _few_blocks,
    "many-blocks": _many_blocks,
    "cli-compute": _cli_row,
}


def generate(name: str, seed: int) -> Instance:
    shape = SHAPES[name]
    rng = np.random.default_rng(seed & (2**64 - 1))
    inst = _GENERATORS[name](rng, shape.n)
    inst.entries.setflags(write=False)
    return inst


def _tokens(entries: np.ndarray) -> list[str]:
    tokens = ["0"] * entries.size
    for i in np.flatnonzero(entries).tolist():
        tokens[i] = repr(float(entries[i]))
    return tokens


def write_inputs(entries: np.ndarray, text_path: str, json_path: str) -> None:
    """Write the row as a plain-text and as a ``{"first_row": ...}`` document."""
    tokens = _tokens(entries)
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(tokens))
        fh.write("\n")
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write('{"n": %d, "first_row": [' % entries.size)
        fh.write(", ".join(tokens))
        fh.write("]}\n")


@dataclass(frozen=True)
class _Item:
    row: np.ndarray
    vertices: np.ndarray

    def __post_init__(self) -> None:
        self.row.setflags(write=False)
        self.vertices.setflags(write=False)


#: the set-up kernel's typical time on the machine the baseline was taken on;
#: ``setup_s`` is reported at this speed (see WORKLOADS.md)
SETUP_REFERENCE_S = 0.025


def setup_kernel() -> int:
    """The fixed task every workload's set-ups are compared with.

    Set-up mixes imports, process start, generation and a warm-up
    operation, so no workload's own kernel matches it.  Of the candidates
    tried, this numpy vector task followed the set-ups of all four
    workloads most closely through the CPU's slow and fast phases.  It is
    also the reference kernel of ``one-block``.
    """
    row = np.arange(1_000_000, dtype=np.float64) % 2
    offsets = np.flatnonzero(row[1:] != 0.0) + 1
    return int(np.count_nonzero(offsets % 7))


def reference_kernel(name: str):
    """A fixed task of the same kind of work as the workload's operation.

    It never calls the package, so no change to the package moves it.
    Timed next to every operation, it measures how fast the CPU runs this
    process at that moment; see WORKLOADS.md.  Each call builds and frees
    its own data, so it holds no memory between operations.
    """
    if name == "one-block":
        kernel = setup_kernel
    elif name == "few-blocks":
        def kernel():
            labels = np.tile(np.array([1, 2], dtype=np.int32), 1_000_000)
            return int(np.argsort(labels, kind="stable")[-1])
    elif name == "many-blocks":
        def kernel():
            values = np.arange(20_000, dtype=np.float64)
            items = [_Item(values[i:i + 1].copy(), np.arange(i, i + 1)) for i in range(values.size)]
            return len(items)
    else:
        def kernel():
            numbers = [i / 8 + 0.0005 if i % 3 else i for i in range(60_000)]
            text = json.dumps(numbers)
            parsed = [float(tok) for tok in text[1:-1].split(", ")]
            return len(",".join(str(v) for v in parsed))
    return kernel
