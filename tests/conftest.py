"""Shared generators for randomized sweeps.

Everything is driven by explicit ``numpy`` generators so each test pins its
own seed and reruns are reproducible.
"""

from __future__ import annotations

import numpy as np


def random_instance(rng: np.random.Generator, n_lo: int = 1, n_hi: int = 512,
                    k_max: int = 16) -> tuple[int, np.ndarray]:
    """Random order and sorted distinct offsets in ``[1, n-1]``."""
    n = int(rng.integers(n_lo, n_hi + 1))
    k = min(int(rng.integers(0, k_max + 1)), n - 1)
    if k > 0:
        offsets = np.sort(rng.choice(np.arange(1, n), size=k, replace=False))
    else:
        offsets = np.empty(0, dtype=np.int64)
    return n, offsets.astype(np.int64)


def random_alpha_instance(rng: np.random.Generator, n_lo: int = 3,
                          n_hi: int = 256) -> tuple[int, np.ndarray]:
    """Instance with ``2 * min(offsets) > n`` (all offsets above ``n/2``)."""
    n = int(rng.integers(n_lo, n_hi + 1))
    s0 = int(rng.integers(n // 2 + 1, n))
    extra = np.arange(s0 + 1, n)
    k = min(int(rng.integers(0, 5)), extra.size)
    chosen = rng.choice(extra, size=k, replace=False) if k else np.empty(0, dtype=np.int64)
    return n, np.sort(np.append(chosen, s0)).astype(np.int64)


def random_beta_instance(rng: np.random.Generator, n_lo: int = 2,
                         n_hi: int = 256) -> tuple[int, np.ndarray]:
    """Instance with ``2 * min(offsets) <= n``."""
    n = int(rng.integers(n_lo, n_hi + 1))
    s0 = int(rng.integers(1, n // 2 + 1))
    extra = np.arange(s0 + 1, n)
    k = min(int(rng.integers(0, 8)), extra.size)
    chosen = rng.choice(extra, size=k, replace=False) if k else np.empty(0, dtype=np.int64)
    return n, np.sort(np.append(chosen, s0)).astype(np.int64)


#: Rows at the edges of the label dtypes, ``(n, offsets, label dtype)``: all-zero
#: rows (c = n) on both sides of int8's and int16's maximum, then c = 2 and c = 1.
LABEL_DTYPE_ROWS = [(127, [], np.int8), (128, [], np.int16), (32_767, [], np.int16),
                    (32_768, [], np.int32), (1000, [2, 4], np.int8), (1000, [1], np.int8)]


def sweep_instances(count: int = 10000, seed: int = 20240601):
    """The pinned instance sweep of acceptance criteria 3 and 5."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield random_instance(rng, n_lo=1, n_hi=512, k_max=16)
