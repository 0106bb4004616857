import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from toeplitz_fnf import (
    FirstRow,
    OffsetSet,
    alpha_reduce,
    beta_reduce,
    offsets_from_row,
    reachability_divisor,
    row_from_offsets,
    toeplitz_entry,
)


class TestFirstRow:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FirstRow([])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            FirstRow(np.zeros((2, 2)))

    def test_entries_read_only(self):
        row = FirstRow([1.0, 2.0])
        with pytest.raises(ValueError):
            row.entries[0] = 5.0

    def test_order_one_is_legal(self):
        assert FirstRow([7.0]).n == 1

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                FirstRow([0.0, bad, 0.0, 1.0])
        # squares overflow, entries are finite
        assert FirstRow([0.0, 1e200, -1e300]).n == 3

    def test_public_row_copies_and_private_row_adopts(self):
        arr = np.array([0.0, 1.0, 2.0])
        copied = FirstRow(arr)
        assert not np.shares_memory(copied.entries, arr) and arr.flags.writeable
        adopted = FirstRow(arr, _adopt=True)
        assert adopted.entries is arr and not arr.flags.writeable
        assert adopted == copied
        for bad in (np.zeros(0), np.zeros((2, 2))):
            with pytest.raises(ValueError):
                FirstRow(bad, _adopt=True)

    def test_equality(self):
        assert FirstRow([0, 1]) == FirstRow([0.0, 1.0])
        assert FirstRow([0, 1]) != FirstRow([0, 2])


class TestOffsetSet:
    def test_empty_is_legal(self):
        s = OffsetSet(5, [])
        assert len(s) == 0

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            OffsetSet(5, [0, 2])
        with pytest.raises(ValueError):
            OffsetSet(5, [5])
        # the message names the extremes, not every offset
        with pytest.raises(ValueError, match=r"got 1\.\.1000000$"):
            OffsetSet(10**6, np.arange(1, 10**6 + 1))
        # an int beyond int64 is out of range too, not an OverflowError
        for offsets in ([10**20], [2, -10**20]):
            with pytest.raises(ValueError, match=r"lie in \[1, 9\]"):
                OffsetSet(10, offsets)
        for check in (row_from_offsets, alpha_reduce, beta_reduce, reachability_divisor):
            with pytest.raises(ValueError, match="lie in"):
                check(10, [10**20])
        # float and unsigned arrays too, checked before the int64 cast warns or wraps
        for offsets in (np.array([1e20]), np.array([2.0, 1e20]),
                        np.array([2**63], dtype=np.uint64)):
            with pytest.raises(ValueError, match=r"lie in \[1, 9\]"):
                OffsetSet(10, offsets)
        for offsets in (np.array([np.nan]), np.array([2.0, np.inf]), np.array([-np.inf])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="integers"):
                    OffsetSet(10, offsets)

    def test_rejects_fractional(self):
        for offsets in ([1.5, 2.9], [1, 2.5], np.array([2.0, 3.25])):
            with pytest.raises(ValueError, match="integers"):
                OffsetSet(5, offsets)
        with pytest.raises(ValueError, match="integers"):
            row_from_offsets(5, [1.7])
        # integral floats are whole offsets
        assert OffsetSet(5, np.array([1.0, 3.0])).offsets.tolist() == [1, 3]

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            OffsetSet(9, [3, 3])
        with pytest.raises(ValueError):
            OffsetSet(9, [4, 2])

    def test_membership(self):
        s = OffsetSet(10, [2, 5, 9])
        assert 5 in s
        assert 4 not in s

    def test_owns_a_frozen_copy(self):
        arr = np.array([2, 5, 9])
        s = OffsetSet(10, arr)
        arr[0] = 3  # the caller's array stays writable and apart from the set
        assert s.offsets.tolist() == [2, 5, 9]
        assert not s.offsets.flags.writeable
        assert not offsets_from_row(FirstRow([0, 1, 0, 2])).offsets.flags.writeable


class TestOffsetsFromRow:
    def test_weighted_row(self):
        assert list(offsets_from_row(FirstRow([0, 0, 3, 0, 8, 0, 9]))) == [2, 4, 6]

    def test_all_zero_row(self):
        assert list(offsets_from_row(FirstRow([0, 0, 0, 0, 0]))) == []

    def test_diagonal_always_excluded(self):
        assert list(offsets_from_row(FirstRow([5, 0, 0, 1]))) == [3]

    def test_negative_weights_count(self):
        assert list(offsets_from_row(FirstRow([0, -1.5, 0]))) == [1]


class TestToeplitzEntry:
    def test_weighted_example(self):
        row = FirstRow([0, 0, 3, 0, 8, 0, 9])
        assert toeplitz_entry(row, 1, 5) == 8.0

    def test_diagonal(self):
        row = FirstRow([4.5, 1, 2])
        for k in (1, 2, 3):
            assert toeplitz_entry(row, k, k) == 4.5

    def test_symmetry_small(self):
        row = FirstRow([1, 2])
        assert toeplitz_entry(row, 2, 1) == 2.0

    @pytest.mark.parametrize("i,j", [(0, 1), (1, 0), (8, 1), (1, 8)])
    def test_out_of_range(self, i, j):
        with pytest.raises(IndexError):
            toeplitz_entry(FirstRow([0] * 7), i, j)


@given(st.integers(min_value=1, max_value=64), st.data())
def test_offsets_round_trip(n, data):
    offsets = sorted(data.draw(st.sets(st.integers(min_value=1, max_value=n - 1))) if n > 1 else [])
    row = row_from_offsets(n, offsets)
    assert list(offsets_from_row(row)) == offsets


@given(st.lists(st.sampled_from([0.0, 0.0, 1.0, -2.5, 3.75]), min_size=1, max_size=16))
def test_entry_symmetry_and_diagonal_constancy(entries):
    row = FirstRow(entries)
    n = row.n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert toeplitz_entry(row, i, j) == toeplitz_entry(row, j, i)
            if i < n and j < n:
                assert toeplitz_entry(row, i, j) == toeplitz_entry(row, i + 1, j + 1)


def test_row_from_offsets_rejects_out_of_range():
    with pytest.raises(ValueError):
        row_from_offsets(4, [4])
