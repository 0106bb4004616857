"""Toeplitz first rows and their nonzero-offset abstraction.

A symmetric Toeplitz matrix of order ``n`` is fully described by its first
row ``[a_0, ..., a_{n-1}]``: entry ``(i, j)`` equals ``a_{|i-j|}``.  Whether
two positions interact depends only on which offsets ``i >= 1`` carry a
nonzero value, so the fast path converts a row to its :class:`OffsetSet`
up front and never materialises the matrix.
"""

from __future__ import annotations

from numbers import Real
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "FirstRow",
    "OffsetSet",
    "offsets_from_row",
    "row_from_offsets",
    "toeplitz_entry",
]


# a float64 row of at least ``_WHOLE`` entries is copied in windows of
# ``_WINDOW`` entries, each probed at its first ``_PROBE`` (see ``_copied``)
_WINDOW = 1 << 16
_WHOLE = 16 * _WINDOW
_PROBE = 8


class FirstRow:
    """First row of a symmetric Toeplitz matrix of order ``n >= 1``.

    Entries are held as a read-only, finite float64 vector; index ``i`` is
    the constant value of the ``i``-th diagonal.  Zero tests are exact float
    comparison; callers that want a tolerance should clean their input
    before constructing the row.  The row owns its entries: other input is
    converted to float64 once, and a float64 array is copied, a sparse one
    into memory for its nonzero windows only (see ``_copied``), which are all
    that :meth:`support` reads of it.
    """

    __slots__ = ("entries", "_runs")

    def __init__(self, entries: Sequence[float] | np.ndarray, *, _adopt: bool = False) -> None:
        # _adopt: ``entries`` is a float64 array its caller made for this row
        # and checked finite (the CLI's parsed row), so the row holds it
        # without a copy or a second finiteness test
        arr = entries if _adopt else _real(entries)
        if arr.ndim != 1:
            raise ValueError(f"first row must be one-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("first row must contain at least one entry")
        # _runs: the ``(a, b)`` spans outside which every entry is +0.0
        runs = [(0, arr.size)]
        if not _adopt:
            # the caller's float64 array is copied; converted input is new already
            if arr is entries:
                arr, runs = _copied(arr)
            # a finite sum of squares proves a run finite without a temporary;
            # the elementwise test runs only when it is not (a non-finite entry,
            # or an entry so large its square overflows)
            with np.errstate(over="ignore", invalid="ignore"):
                if not all(np.isfinite(p @ p) or np.isfinite(p).all()
                           for p in (arr[a:b] for a, b in runs)):
                    raise ValueError("first row entries must be finite")
        arr.setflags(write=False)
        self.entries = arr
        self._runs = runs

    @property
    def n(self) -> int:
        return self.entries.size

    def support(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """The increasing indices ``lo <= i < hi`` with ``a_i != 0``; ``hi`` defaults to ``n``.

        Only the row's runs are read, in order: a dead window holds only +0.0
        bits, so no nonzero entry lies outside them.
        """
        hi = self.entries.size if hi is None else hi
        parts = [np.flatnonzero(self.entries[a:b] != 0.0) + a
                 for a, b in ((max(a, lo), min(b, hi)) for a, b in self._runs) if a < b]
        return parts[0] if len(parts) == 1 else np.concatenate(parts or [np.empty(0, np.intp)])

    def __len__(self) -> int:
        return self.entries.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FirstRow):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)

    def __repr__(self) -> str:
        # past numpy's summarisation threshold a repr names only the order
        if self.entries.size > np.get_printoptions()["threshold"]:
            return f"FirstRow(n={self.n})"
        return f"FirstRow({self.entries.tolist()!r})"


def _numeric(values: Iterable | np.ndarray) -> bool:
    """Whether ``values`` holds no boolean and no string, which numpy's casts make numbers."""
    if isinstance(values, np.ndarray) and values.dtype.kind != "O":
        return values.dtype.kind not in "bSU"
    try:
        types = set(map(type, values.flat if isinstance(values, np.ndarray) else values))
    except TypeError:  # a scalar, which the one-dimensional check refuses
        return True
    return not any(issubclass(t, (bool, np.bool_, str, bytes)) for t in types)


def _real(entries: Sequence[float] | np.ndarray) -> np.ndarray:
    """``entries`` if it is a float64 array, else a new float64 array of its real values."""
    if isinstance(entries, np.ndarray) and entries.dtype == np.float64:
        return entries
    if not _numeric(entries):
        raise ValueError("first row entries must be numbers, not booleans or strings")
    if isinstance(entries, np.ndarray) and entries.dtype.kind == "c":
        if np.any(entries.imag):  # the cast would drop it with only a warning
            raise ValueError("first row entries must be real")
        entries = entries.real
    try:
        return np.array(entries, dtype=np.float64)
    except (TypeError, OverflowError) as exc:  # a complex entry, or an int beyond float64
        raise ValueError(f"first row entries must be real: {exc}") from exc


def _copied(source: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """A copy of the float64 row ``source``, bit for bit, and the ``(a, b)`` runs written.

    A row of fewer than ``_WHOLE`` entries is one ``np.array`` copy, one run.
    A longer one starts as ``np.zeros``, whose pages stay unbacked until
    written, and gets one slice assignment per run of live windows: windows of
    ``_WINDOW`` entries whose int64 bits are not all zero (``-0.0`` is live).
    The first ``_PROBE`` entries of every window are read at once, and only a
    window whose probe reads zero is scanned in full.  The partial window at
    the end is always copied.  A window not written is +0.0, finite and free
    of offsets by construction.
    """
    if source.size < _WHOLE:
        return np.array(source), [(0, source.size)]
    windows = source[:source.size // _WINDOW * _WINDOW].view(np.int64).reshape(-1, _WINDOW)
    live = windows[:, :_PROBE].any(axis=1)
    for w in np.flatnonzero(~live):
        live[w] = np.count_nonzero(windows[w]) > 0
    edges = np.flatnonzero(np.diff(np.concatenate(([False], live, [True, False]))))
    copy = np.zeros(source.size)
    runs = list(map(tuple, np.minimum(edges * _WINDOW, source.size).reshape(-1, 2).tolist()))
    for a, b in runs:
        copy[a:b] = source[a:b]
    return copy, runs


class OffsetSet:
    """Strictly increasing offsets in ``[1, n-1]``, possibly empty.

    For a row this is the set of diagonals ``i >= 1`` with a nonzero entry.
    The diagonal ``a_0`` never appears: loops do not affect which vertices
    of the associated graph are connected.  This class is the one place the
    contract is checked; the set keeps a read-only int64 array of its own,
    so an array passed in is copied, never frozen in its caller's hands.
    """

    __slots__ = ("n", "offsets")

    def __init__(self, n: int, offsets: Iterable[int] | np.ndarray) -> None:
        if (isinstance(n, (bool, np.bool_)) or not isinstance(n, Real)
                or not 1 <= n < 2**63 or n % 1):
            raise ValueError(f"order must be an integer in [1, 2**63 - 1], got {n!r}")
        n = int(n)
        # a scalar becomes a 0-d array, which the one-dimensional check refuses
        listed = isinstance(offsets, Iterable) and not isinstance(offsets, np.ndarray)
        raw = list(offsets) if listed else np.asarray(offsets)
        if not _numeric(raw):
            raise ValueError("offsets must be integers, not booleans or strings")
        if isinstance(raw, np.ndarray) and raw.dtype.kind == "c":  # the cast would warn first
            raise ValueError("offsets must be integers")
        # the int64 cast warns on NaN and inf and wraps what int64 cannot
        # hold, so a float or unsigned array is checked first
        if isinstance(raw, np.ndarray) and raw.dtype.kind in "fu" and raw.size:
            if not np.isfinite(raw).all():
                raise ValueError("offsets must be integers")
            if raw.min() < 1 or raw.max() > n - 1:
                raise ValueError(f"offsets must lie in [1, {n - 1}], got {raw.min()}..{raw.max()}")
        try:
            arr = np.array(raw, dtype=np.int64)
        except OverflowError as exc:  # an int beyond int64 is beyond every order
            raise ValueError(f"offsets must lie in [1, {n - 1}]") from exc
        except TypeError as exc:  # a complex entry in a list
            raise ValueError("offsets must be integers") from exc
        # the int64 cast truncates, so compare with what was passed in
        if np.any(arr != raw):
            raise ValueError("offsets must be integers")
        if arr.ndim != 1:
            raise ValueError("offsets must be one-dimensional")
        if arr.size:
            if arr[0] < 1 or arr[-1] > n - 1:
                raise ValueError(f"offsets must lie in [1, {n - 1}], got {arr[0]}..{arr[-1]}")
            if np.any(arr[1:] <= arr[:-1]):
                raise ValueError("offsets must be strictly increasing")
        arr.setflags(write=False)
        self.n = n
        self.offsets = arr

    def __len__(self) -> int:
        return self.offsets.size

    def __iter__(self):
        return iter(self.offsets.tolist())

    def __contains__(self, s: int) -> bool:
        i = int(np.searchsorted(self.offsets, s))
        return i < self.offsets.size and self.offsets[i] == s

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OffsetSet):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.offsets, other.offsets)

    def __repr__(self) -> str:
        if self.offsets.size > np.get_printoptions()["threshold"]:
            return f"OffsetSet(n={self.n}, k={self.offsets.size})"
        return f"OffsetSet(n={self.n}, offsets={self.offsets.tolist()!r})"


def offsets_from_row(row: FirstRow) -> OffsetSet:
    """Extract the nonzero offsets ``{i >= 1 : a_i != 0}`` of a first row.

    ``a_0`` is excluded regardless of its value.
    """
    return OffsetSet(row.n, np.flatnonzero(row.entries[1:] != 0.0) + 1)


def row_from_offsets(n: int, offsets: Iterable[int]) -> FirstRow:
    """Build the first row with ``1`` at each offset and ``0`` elsewhere.

    ``offsets`` must meet the :class:`OffsetSet` contract.  The row holds the
    array made here, finite by construction, as one run: it is not copied.
    """
    entries = np.zeros(n, dtype=np.float64)
    entries[OffsetSet(n, offsets).offsets] = 1.0
    return FirstRow(entries, _adopt=True)


def toeplitz_entry(row: FirstRow, i: int, j: int) -> float:
    """Entry ``(i, j)`` of the matrix described by ``row``, 1-based indices."""
    n = row.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"indices ({i}, {j}) out of range for order {n}")
    return float(row.entries[abs(i - j)])
