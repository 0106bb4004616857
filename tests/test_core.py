import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from toeplitz_fnf import core
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

    def test_rejects_scalars(self):
        for scalar in (5, 5.0, np.float64(5), np.array(5.0)):
            with pytest.raises(ValueError, match="one-dimensional"):
                FirstRow(scalar)

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

    def test_refuses_complex_and_integers_beyond_float64(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before a cast could warn
            for bad in (np.array([0, 1 + 2j]), np.array([1j]), [1 + 2j], [0, 1, 1j],
                        [10**400], [0, -(10**400)], np.array([10**400], dtype=object)):
                with pytest.raises(ValueError, match="real"):
                    FirstRow(bad)
            # a complex array whose imaginary parts are all zero is its real part
            assert FirstRow(np.array([0, 1 + 0j, -2])).entries.tolist() == [0.0, 1.0, -2.0]

    def test_refuses_booleans_and_strings(self):
        # numpy's float64 cast would make numbers of them; the CLI's JSON reader refuses them too
        for bad in (['1.5', '2'], [True, False], [0.0, True], [np.bool_(True)], [b'1'],
                    np.array([True, False]), np.array(['1.5']), np.array([b'1', b'2']),
                    np.array([1, True], dtype=object), np.array([2.0, '3'], dtype=object)):
            with pytest.raises(ValueError, match="not booleans or strings"):
                FirstRow(bad)
        # integers beyond int64 in an object list are numbers
        assert FirstRow([10**30, 1]).entries.tolist() == [1e30, 1.0]
        assert FirstRow(np.array([10**30, 1], dtype=object)).entries.tolist() == [1e30, 1.0]

    def test_converted_input_is_copied_once(self):
        n = 1 << 20
        for source in (np.arange(n), list(range(n // 16))):
            tracemalloc.start()
            try:
                row = FirstRow(source)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert row.entries.tolist() == list(map(float, source))
            assert peak < 1.5 * 8 * len(source)

    def test_equality(self):
        assert FirstRow([0, 1]) == FirstRow([0.0, 1.0])
        assert FirstRow([0, 1]) != FirstRow([0, 2])
        assert FirstRow([0, 1]) != [0.0, 1.0]
        assert FirstRow([0, 1]).__eq__([0.0, 1.0]) is NotImplemented

    def test_repr_summarises_past_numpys_threshold(self):
        assert repr(FirstRow([0, 1.5])) == "FirstRow([0.0, 1.5])"
        assert repr(FirstRow(np.ones(1000))) == f"FirstRow({[1.0] * 1000!r})"
        assert repr(FirstRow(np.ones(1001))) == "FirstRow(n=1001)"


W = core._WINDOW


@pytest.fixture(params=["windowed", "default-cut"])
def cut(request, monkeypatch):
    """The copy as it runs: every row windowed, or only rows past the small-row cut."""
    if request.param == "windowed":
        monkeypatch.setattr(core, "_WHOLE", 0)
    return request.param


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestWindowedCopy:
    """``FirstRow`` copies a float64 array window by window, writing only live windows."""

    @pytest.mark.parametrize("n", [W - 1, W, W + 1, 3 * W + 5])
    def test_bit_exact(self, n, cut):
        rng = np.random.default_rng(n)
        x = np.zeros(n)
        # nonzeros at both edges of windows, past the probe, and at random
        edges = [i for w in range(1, 4) for i in (w * W - 1, w * W) if i < n]
        at = np.concatenate((edges, rng.integers(0, n, size=5), [min(n - 1, core._PROBE)]))
        x[at.astype(np.int64)] = rng.standard_normal(at.size)
        if n > 2 * W:
            x[W:3 * W] = 0.0
            x[W + 7] = -0.0  # a window holding only -0.0
            x[2 * W + 9] = 5e-324  # and one holding only a subnormal
        assert np.array_equal(_bits(FirstRow(x).entries), _bits(x))
        assert np.array_equal(_bits(FirstRow(-x).entries), _bits(-x))
        # a row with no nonzero bit at all is +0.0 throughout
        assert not _bits(FirstRow(np.zeros(n)).entries).any()

    def test_runs_are_the_live_windows(self, cut):
        n = 3 * W + 5
        x = np.zeros(n)
        x[[W + 7, 2 * W - 1]] = [-0.0, 2.0]
        # past the cut a row is its live windows and the partial one at the end
        expected = [(W, 2 * W), (3 * W, n)] if cut == "windowed" else [(0, n)]
        assert FirstRow(x)._runs == expected
        # converted and adopted rows are one run, as is the row row_from_offsets makes
        for row in (FirstRow(x.astype(np.float32)), FirstRow(x.tolist()), FirstRow(x, _adopt=True),
                    row_from_offsets(n, [2 * W - 1])):
            assert row._runs == [(0, n)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_a_live_window_after_dead_ones(self, bad, cut):
        x = np.zeros(3 * W + 5)
        x[2 * W + 100] = bad
        with pytest.raises(ValueError, match="finite"):
            FirstRow(x)
        x[2 * W + 100] = 0.0
        x[-1] = bad  # in the partial window at the end
        with pytest.raises(ValueError, match="finite"):
            FirstRow(x)
        x[-1] = 1e300  # squares overflow, entries are finite
        assert FirstRow(x).entries[-1] == 1e300

    def test_sources_stay_the_callers(self, cut):
        base = np.zeros(2 * (3 * W + 5))
        base[[3, W + 2, 4 * W + 1, base.size - 1]] = [1.5, -0.0, 2.5, -3.0]
        frozen = base.copy()
        frozen.setflags(write=False)
        sources = {
            "strided": base[::2], "reversed": base[::-1], "read-only": frozen,
            "int": base.astype(np.int64), "float32": base.astype(np.float32),
        }
        for name, source in sources.items():
            writable = source.flags.writeable
            row = FirstRow(source)
            assert np.array_equal(_bits(row.entries), _bits(source.astype(np.float64))), name
            assert not np.shares_memory(row.entries, source), name
            assert source.flags.writeable == writable and not row.entries.flags.writeable, name
        assert base.flags.writeable
        listed = base[:W + 3].tolist()
        assert np.array_equal(_bits(FirstRow(listed).entries), _bits(base[:W + 3]))

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads /proc/self/statm")
    def test_sparse_row_copy_holds_only_its_live_windows(self):
        # the resident set over the copy of a row whose nonzeros lie in one
        # window; tracemalloc counts np.zeros at its full size, so it cannot
        # see what stays unbacked
        n = 1 << 23
        script = f"""
import os
import numpy as np
from toeplitz_fnf import FirstRow

def resident():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

source = np.empty({n})
source.fill(0.0)  # every page of the caller's row resident
source[5 * {W} + 3], source[6 * {W} - 1] = 1.0, -2.0
before = resident()
row = FirstRow(source)
grown = resident() - before
assert np.array_equal(row.entries, source)
print(grown)
"""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(core.__file__)))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, check=True)
        assert int(done.stdout) < 8 * n // 4


class TestSupport:
    """``FirstRow.support(lo, hi)`` reads only inside the row's runs and finds every nonzero."""

    @staticmethod
    def rows():
        """Rows of order 1 to 50 with -0.0, a subnormal and a partial last window."""
        yield np.zeros(1)
        yield np.array([-0.0, 5e-324])
        rng = np.random.default_rng(26)
        for n in (7, 12, 49, 50):
            x = np.zeros(n)
            at = rng.choice(n, size=n // 6, replace=False)
            x[at] = rng.choice([1.0, -3.5, 5e-324, -0.0], size=at.size)
            x[n // 2:n // 2 + 9] = 0.0  # dead windows for every _WINDOW up to 4
            x[-1] = 2.0  # in the partial last window
            yield x

    @staticmethod
    def assert_support(row, rng):
        n = row.n
        # the last span lies in the zeroed stretch; at n = 49, in dead windows at every _WINDOW
        spans = [(0, n), (0, 0), (n, n), (1, n), (n // 2 + 1, n // 2 + 4)]
        spans += [tuple(sorted(rng.integers(0, n + 1, size=2).tolist())) for _ in range(30)]
        for lo, hi in spans:
            expected = np.flatnonzero(row.entries[lo:hi] != 0.0) + lo
            assert np.array_equal(row.support(lo, hi), expected), (n, lo, hi, row._runs)
        assert np.array_equal(row.support(), np.flatnonzero(row.entries))
        assert np.array_equal(row.support(3), np.flatnonzero(row.entries[3:]) + 3)

    def test_windowed_copies(self, monkeypatch):
        rng = np.random.default_rng(0)
        monkeypatch.setattr(core, "_WHOLE", 0)
        split = 0
        for window in (1, 2, 3, 4):
            monkeypatch.setattr(core, "_WINDOW", window)
            for x in self.rows():
                row = FirstRow(x)
                split += len(row._runs) > 1
                if x.size == 49:
                    assert all(b <= 25 or a >= 28 for a, b in row._runs), window
                self.assert_support(row, rng)
                self.assert_support(FirstRow(-x), rng)
        assert split > 10  # most copies are several runs

    def test_adopted_and_converted_rows(self):
        rng = np.random.default_rng(1)
        for x in self.rows():
            for row in (FirstRow(x), FirstRow(x.copy(), _adopt=True), FirstRow(x.tolist()),
                        FirstRow(x.astype(np.float32))):
                self.assert_support(row, rng)


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

    def test_rejects_complex_before_the_cast(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for offsets in (np.array([1 + 2j]), np.array([2 + 0j, 3 + 0j]), [1 + 2j], [2, 3j]):
                with pytest.raises(ValueError, match="integers"):
                    OffsetSet(5, offsets)

    def test_rejects_booleans_and_strings(self):
        for offsets in ([True], [1, True], np.array([True]), ['2'], [b'2'], np.array(['2', '3']),
                        np.array([2, True], dtype=object)):
            with pytest.raises(ValueError, match="not booleans or strings"):
                OffsetSet(5, offsets)
        assert OffsetSet(5, np.array([2, 3], dtype=object)).offsets.tolist() == [2, 3]

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

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            OffsetSet(10, [[1, 2]])

    def test_rejects_scalar_offsets(self):
        for offsets in (3, 3.0, np.int64(3), np.array(3)):
            with pytest.raises(ValueError, match="one-dimensional"):
                OffsetSet(5, offsets)

    def test_order_is_a_whole_number_in_int64(self):
        for n in (True, False, np.bool_(True), 5.5, np.float64(6.5), 0, -3, 2**63, 2**70,
                  float("nan"), float("inf"), "5", 5 + 0j, None):
            with pytest.raises(ValueError, match="order"):
                OffsetSet(n, [1] if n is not False else [])
        # an integral float or numpy integer is the int it equals, as integral offsets are
        for n in (5.0, np.float64(5), np.int64(5), np.uint8(5)):
            s = OffsetSet(n, [2, 4])
            assert s.n == 5 and type(s.n) is int and s == OffsetSet(5, [2, 4])
        top = OffsetSet(2**63 - 1, [1])
        assert top.n == 2**63 - 1

    def test_public_moves_compute_with_the_sets_order(self):
        for move, n, offsets in ((alpha_reduce, 5.5, [4]), (beta_reduce, 6.5, [2]),
                                 (reachability_divisor, 6.5, [2]), (alpha_reduce, True, [])):
            with pytest.raises(ValueError, match="order"):
                move(n, offsets)
        n_after, offsets, m = alpha_reduce(5.0, [4])
        assert (n_after, offsets.tolist(), m) == (2, [1], 3) and type(n_after) is int
        n_after, offsets, d = beta_reduce(np.float64(6), [2])
        assert (n_after, offsets.tolist(), d) == (2, [], 2) and type(n_after) is int
        assert reachability_divisor(10.0, [4, 6]) == 2

    def test_equality(self):
        assert OffsetSet(10, [2, 5]) == OffsetSet(10, np.array([2, 5]))
        assert OffsetSet(10, [2, 5]) != OffsetSet(11, [2, 5])
        assert OffsetSet(10, [2, 5]) != [2, 5]
        assert OffsetSet(10, [2, 5]).__eq__([2, 5]) is NotImplemented

    def test_repr_summarises_past_numpys_threshold(self):
        assert repr(OffsetSet(10, [2, 5])) == "OffsetSet(n=10, offsets=[2, 5])"
        offsets = list(range(1, 1001))
        assert repr(OffsetSet(1002, offsets)) == f"OffsetSet(n=1002, offsets={offsets!r})"
        assert repr(OffsetSet(1002, range(1, 1002))) == "OffsetSet(n=1002, k=1001)"

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
