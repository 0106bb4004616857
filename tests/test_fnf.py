import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toeplitz_fnf import (ComponentIndexSequence, FirstRow, FnfBlock, FnfResult, compute_fnf,
                          row_from_offsets)
from toeplitz_fnf import fnf

import reference
from conftest import random_instance, sweep_instances


class TestExtractBlocks:
    """Block rows read off the input row, per component."""

    def test_golden_31_blocks(self):
        blocks = compute_fnf(row_from_offsets(31, [12, 18, 24, 29])).blocks
        by_size = sorted(blocks, key=lambda b: -b.size)
        assert [b.size for b in by_size] == [16, 5, 5, 5]
        for b in by_size[1:]:
            assert b.first_row.tolist() == [0, 0, 1, 1, 1]
        assert by_size[0].offsets.tolist() == [6, 9, 12, 14]

    def test_weighted_seven_vertex_row(self):
        row = FirstRow([0, 0, 3, 0, 8, 0, 9])
        blocks = compute_fnf(row).blocks
        got = {tuple(b.vertices.tolist()): b.first_row.tolist() for b in blocks}
        assert got == {(1, 3, 5, 7): [0, 3, 8, 9], (2, 4, 6): [0, 3, 8]}
        # cross-check against direct entry lookups on the original row
        assert [row.entries[v - 1] for v in (1, 3, 5, 7)] == [0, 3, 8, 9]

    def test_isolated_vertices_keep_diagonal(self):
        blocks = compute_fnf(FirstRow([5, 0, 0])).blocks
        assert len(blocks) == 3
        for b in blocks:
            assert b.size == 1
            assert b.first_row.tolist() == [5]

    def test_block_rows_read_original_entries(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            n, offsets = random_instance(rng, n_hi=96)
            weights = rng.normal(size=n)
            weights[0] = rng.choice([0.0, 2.5])
            entries = np.zeros(n)
            entries[0] = weights[0]
            for s in offsets:
                entries[s] = weights[s] if weights[s] != 0 else 1.0
            row = FirstRow(entries)
            for b in compute_fnf(row).blocks:
                anchor = b.vertices[0]
                for pos, v in enumerate(b.vertices):
                    assert b.first_row[pos] == row.entries[v - anchor]

    def test_unequal_gaps_with_a_progressions_span_are_gathered(self):
        # {1, 3, 4, 7} spans 6 = 3 * 2 but is no progression; a strided slice
        # would read a_4 where a_3 belongs
        row = FirstRow(np.arange(1.0, 8.0))
        res = FnfResult(row=row, cis=ComponentIndexSequence(7, 2, [1, 2, 1, 1, 2, 2, 1]),
                        permutation=np.array([1, 3, 4, 7, 2, 5, 6]),
                        block_bounds=np.array([0, 4, 7]), trace=compute_fnf(row).trace)
        block = res.blocks[0]
        assert block.first_row.tolist() == [1.0, 3.0, 4.0, 7.0]
        assert not np.shares_memory(block.first_row, row.entries)
        assert not block.first_row.flags.writeable
        assert res.blocks[1].first_row.tolist() == [1.0, 4.0, 5.0]

    @pytest.mark.parametrize("entries, step", [
        ([4.0, 0, 2, 0, 0, 0, 3, 0, 0, 0], 2),     # odd and even vertices
        ([5.0, 0, 0, 0, 2, 0, 0, 0], 4),           # pairs such as {1, 5}
    ])
    def test_residue_classes_are_strided_views(self, entries, step):
        row = FirstRow(entries)
        blocks = compute_fnf(row).blocks
        assert len(blocks) == step
        for b in blocks:
            assert np.diff(b.vertices).tolist() == [step] * (b.size - 1)
            assert b.first_row.tolist() == row.entries[::step][:b.size].tolist()
            assert np.shares_memory(b.first_row, row.entries)
            assert b.first_row.strides == (step * row.entries.itemsize,)
            assert not b.first_row.flags.writeable and not b.vertices.flags.writeable

    @pytest.mark.parametrize("at", [1, fnf._GAPS, fnf._GAPS + 1, 2 * fnf._GAPS + 1])
    def test_a_gap_off_the_step_in_any_chunk_is_gathered(self, at):
        # the odd vertices, one moved down by one: the span is still
        # (size - 1) * 2 and only the two gaps either side of it are not 2.
        # The gaps are checked in chunks [0, G), [G, 2G), [2G, 2G + 3) of
        # G = _GAPS; the cases put those two in the first, across the first
        # two, in the second and in the last
        n = 4 * fnf._GAPS + 8
        first = np.arange(1, n, 2)
        first[at] -= 1
        rest = np.setdiff1d(np.arange(1, n + 1), first)
        row = FirstRow(np.arange(1.0, n + 1.0))
        res = FnfResult(row=row, cis=ComponentIndexSequence(n, 2, np.where(np.isin(
                            np.arange(1, n + 1), first), 1, 2)),
                        permutation=np.concatenate([first, rest]),
                        block_bounds=np.array([0, first.size, n]), trace=compute_fnf(row).trace)
        block = res.blocks[0]
        assert block.first_row.tolist() == (first - first[0] + 1.0).tolist()
        assert not np.shares_memory(block.first_row, row.entries)

    def test_reading_a_residue_class_makes_no_block_sized_temporary(self):
        # the gaps are checked _GAPS at a time: a block-sized np.diff and its
        # mask would take 5 bytes a vertex at int32, 1.3 MB here
        result = compute_fnf(row_from_offsets(8 * fnf._GAPS, [2]))
        tracemalloc.start()
        try:
            blocks = result.blocks[0], result.blocks[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for b in blocks:
            assert b.size == 4 * fnf._GAPS and np.shares_memory(b.first_row, result.row.entries)
        assert peak < 2 * fnf._GAPS * result.permutation.itemsize, peak


class TestPermutationFromCis:
    """The permutation lays the component vertex lists end to end."""

    def test_golden_31_canonical_order(self):
        pi = compute_fnf(row_from_offsets(31, [12, 18, 24, 29])).permutation
        assert pi[:16].tolist() == [1, 2, 6, 7, 8, 12, 13, 14, 18, 19, 20, 24, 25, 26, 30, 31]
        assert pi[16:21].tolist() == [3, 9, 15, 21, 27]
        assert pi[21:26].tolist() == [4, 10, 16, 22, 28]
        assert pi[26:].tolist() == [5, 11, 17, 23, 29]

    def test_single_component_identity(self):
        row = row_from_offsets(5, [1])
        assert compute_fnf(row).permutation.tolist() == [1, 2, 3, 4, 5]

    def test_all_isolated_identity(self):
        row = row_from_offsets(3, [])
        assert compute_fnf(row).permutation.tolist() == [1, 2, 3]

    def test_is_always_a_bijection(self):
        rng = np.random.default_rng(62)
        for _ in range(200):
            n, offsets = random_instance(rng, n_hi=128)
            res = compute_fnf(row_from_offsets(n, offsets))
            pi = res.permutation
            assert sorted(pi.tolist()) == list(range(1, n + 1))
            assert np.concatenate([b.vertices for b in res.blocks]).tolist() == pi.tolist()


class TestComputeFnf:
    def test_order_one(self):
        res = compute_fnf(FirstRow([7]))
        assert res.component_count == 1
        assert res.blocks[0].first_row.tolist() == [7]
        assert res.permutation.tolist() == [1]

    def test_edge_pair(self):
        res = compute_fnf(FirstRow([0, 1]))
        assert res.component_count == 1
        assert res.blocks[0].first_row.tolist() == [0, 1]

    def test_golden_31_canonical_block_sizes(self):
        res = compute_fnf(row_from_offsets(31, [12, 18, 24, 29]))
        assert [b.size for b in res.blocks] == [16, 5, 5, 5]
        assert res.blocks[0].offsets.tolist() == [6, 9, 12, 14]

    def test_reconstruction_exact(self):
        rng = np.random.default_rng(63)
        for _ in range(150):
            n, offsets = random_instance(rng, n_hi=96)
            entries = np.zeros(n)
            entries[0] = rng.choice([0.0, -1.25])
            for s in offsets:
                entries[s] = rng.choice([1.0, 3.0, -0.5])
            row = FirstRow(entries)
            res = compute_fnf(row)
            dense = reference.dense_matrix(row.entries)
            perm = res.permutation - 1
            permuted = dense[np.ix_(perm, perm)]
            direct = reference.block_diagonal(b.first_row for b in res.blocks)
            assert np.array_equal(permuted, direct)

    def test_blocks_are_connected(self):
        rng = np.random.default_rng(64)
        for _ in range(150):
            n, offsets = random_instance(rng, n_hi=96)
            res = compute_fnf(row_from_offsets(n, offsets))
            for b in res.blocks:
                labels = reference.union_find_labels(b.size, b.offsets)
                assert max(labels) == 1

    def test_blocks_are_toeplitz_consistent(self):
        rng = np.random.default_rng(65)
        for _ in range(100):
            n, offsets = random_instance(rng, n_hi=64)
            row = row_from_offsets(n, offsets)
            res = compute_fnf(row)
            for b in res.blocks:
                verts = b.vertices
                for i in range(b.size):
                    for j in range(b.size):
                        assert row.entries[abs(int(verts[i]) - int(verts[j]))] \
                            == b.first_row[abs(i - j)]

    def test_nonzero_multiset_preserved(self):
        rng = np.random.default_rng(66)
        for _ in range(60):
            n, offsets = random_instance(rng, n_hi=64)
            entries = np.zeros(n)
            for s in offsets:
                entries[s] = rng.choice([2.0, 7.0, -3.0])
            row = FirstRow(entries)
            res = compute_fnf(row)
            dense = reference.dense_matrix(row.entries)
            direct = reference.block_diagonal(b.first_row for b in res.blocks)
            assert sorted(dense[dense != 0].tolist()) == sorted(direct[direct != 0].tolist())

    def test_canonical_nesting_small_instances(self):
        rng = np.random.default_rng(67)
        checked = 0
        for _ in range(200):
            n, offsets = random_instance(rng, n_lo=2, n_hi=12, k_max=6)
            res = compute_fnf(row_from_offsets(n, offsets))
            verdict = reference.nesting_check(res.blocks, cap=12)
            assert verdict is True
            checked += 1
        assert checked == 200

    def test_result_field_consistency(self):
        res = compute_fnf(row_from_offsets(10, [3, 7]))
        assert sum(b.size for b in res.blocks) == res.n
        assert len(res.blocks) == res.component_count
        assert res.trace.component_count == res.component_count
        assert res.block_bounds.tolist() == [0, *np.cumsum([b.size for b in res.blocks])]

    def test_blocks_are_read_only_views(self):
        res = compute_fnf(row_from_offsets(31, [12, 18, 24, 29]))
        blocks = res.blocks
        assert len(blocks) == 4
        assert [b.size for b in blocks] == [16, 5, 5, 5]
        assert blocks[-1].vertices.tolist() == blocks[3].vertices.tolist()
        assert [b.size for b in blocks[1:]] == [5, 5, 5]
        assert [b.size for b in blocks[::-2]] == [5, 5]
        with pytest.raises(IndexError):
            blocks[4]
        with pytest.raises(IndexError):
            blocks[-5]
        for b in blocks:
            assert not b.first_row.flags.writeable
            assert not b.vertices.flags.writeable
            with pytest.raises(ValueError):
                b.vertices[0] = 0
        assert not res.permutation.flags.writeable
        assert not res.block_bounds.flags.writeable
        # one component: the block row is a slice of the input, not a copy
        row = FirstRow([1.0, 0.0, 2.0, 3.0, 0.0])
        res = compute_fnf(row)
        assert res.component_count == 1
        assert np.shares_memory(res.blocks[0].first_row, row.entries)
        assert res.blocks[0].first_row.tolist() == row.entries.tolist()

    def test_block_freezes_a_view_of_the_callers_arrays(self):
        first_row, vertices = np.array([1.0, 0.0, 2.0]), np.array([1, 3, 5])
        block = FnfBlock(size=3, first_row=first_row, vertices=vertices)
        assert not block.first_row.flags.writeable
        assert not block.vertices.flags.writeable
        assert first_row.flags.writeable and vertices.flags.writeable
        assert np.shares_memory(block.first_row, first_row)
        assert np.shares_memory(block.vertices, vertices)

    def test_block_and_result_check_their_sizes(self):
        with pytest.raises(ValueError, match="block size"):
            FnfBlock(size=2, first_row=[0.0], vertices=[1, 2])
        res = compute_fnf(row_from_offsets(31, [12, 18, 24, 29]))
        fields = dict(row=res.row, cis=res.cis, permutation=res.permutation,
                      block_bounds=res.block_bounds, trace=res.trace)
        with pytest.raises(ValueError, match="length n"):
            FnfResult(**{**fields, "permutation": res.permutation[:-1]})
        bounds = res.block_bounds.copy()
        bounds[-1] -= 1
        with pytest.raises(ValueError, match="cut 0..n"):
            FnfResult(**{**fields, "block_bounds": bounds})

    def test_result_freezes_a_view_of_the_callers_arrays(self):
        res = compute_fnf(row_from_offsets(31, [12, 18, 24, 29]))
        permutation, bounds = res.permutation.copy(), res.block_bounds.copy()
        again = FnfResult(row=res.row, cis=res.cis, permutation=permutation,
                          block_bounds=bounds, trace=res.trace)
        assert not again.permutation.flags.writeable
        assert not again.block_bounds.flags.writeable
        assert permutation.flags.writeable and bounds.flags.writeable
        assert np.shares_memory(again.permutation, permutation)
        assert np.shares_memory(again.block_bounds, bounds)

    @pytest.mark.parametrize("row", [
        FirstRow([1.0, 0.0, 2.0, 3.0, 0.0]),        # c = 1
        row_from_offsets(10, [2, 6]),               # c = 2
        row_from_offsets(31, [12, 18, 24, 29]),     # c = 4
        FirstRow([5.0, 0.0, 0.0, 0.0, 0.0, 0.0]),   # c = n
    ])
    def test_blocks_index_as_a_tuple(self, row):
        blocks = compute_fnf(row).blocks
        expected = tuple(blocks)
        c = len(expected)

        def outcome(seq, k):
            try:
                return seq[k]
            except Exception as exc:
                return type(exc)

        def same(got, want):
            if isinstance(want, type):
                return got is want
            if isinstance(want, tuple):
                return (isinstance(got, tuple) and len(got) == len(want)
                        and all(map(same, got, want)))
            return (isinstance(got, FnfBlock) and got.size == want.size
                    and got.vertices.tolist() == want.vertices.tolist()
                    and got.first_row.tolist() == want.first_row.tolist())

        ints = range(-c - 2, c + 2)
        keys = [*ints, *map(np.int64, ints), 1.0, 0.5, "0", None,
                slice(None, None, -1), slice(None, None, -c - 3), slice(None, None, c + 3),
                slice(1, None, 2), slice(-1, -c - 5, -2), slice(-100, 100),
                slice(np.int64(-1), None, np.int64(-2)), slice(None, None, 0)]
        for k in keys:
            assert same(outcome(blocks, k), outcome(expected, k)), k


def _assert_canonical_labels(n, offsets):
    """Block ``k`` is the union-find's ``k``-th component in canonical order and
    holds label ``k + 1``; both lemmas of the ordering proof hold."""
    res = compute_fnf(row_from_offsets(n, offsets))
    parts = reference.partition_from_labels(reference.union_find_labels(n, offsets))
    canonical = sorted((sorted(p) for p in parts), key=lambda p: (-len(p), p[0]))
    blocks = res.blocks
    assert [b.vertices.tolist() for b in blocks] == canonical
    # each block row reads the row at v - v[0], as a view of it exactly
    # when the vertices are an arithmetic progression
    for b in blocks:
        v, gaps = b.vertices, np.diff(b.vertices)
        assert np.array_equal(b.first_row, res.row.entries[v - v[0]])
        assert np.shares_memory(b.first_row, res.row.entries) == bool(np.all(gaps == gaps[:1]))
    sizes = np.diff(res.block_bounds)
    rho = res.cis.rho
    assert rho[res.permutation - 1].tolist() == np.repeat(np.arange(1, sizes.size + 1),
                                                          sizes).tolist()
    # labels follow first occurrence
    _, first = np.unique(rho, return_index=True)
    assert np.all(np.diff(first) > 0)
    # prefix domination: the j-th vertex of each component precedes the j-th
    # vertex of the next one, so no prefix holds more of the later component
    for a, b in zip(blocks, blocks[1:]):
        assert a.size >= b.size and np.all(a.vertices[:b.size] < b.vertices)


class TestCanonicalLabelOrder:
    """The trace replay numbers components in canonical block order."""

    def test_every_offset_set_up_to_order_14(self):
        checked = 0
        for n in range(1, 15):
            for mask in range(2 ** (n - 1)):
                _assert_canonical_labels(n, [s for s in range(1, n) if mask >> (s - 1) & 1])
                checked += 1
        assert checked == 2 ** 14 - 1

    def test_acceptance_sweep(self):
        for n, offsets in sweep_instances():
            _assert_canonical_labels(n, offsets)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 3000), quarter=st.sampled_from((0, 2, 3)),
           picks=st.lists(st.integers(0, 2 ** 31), max_size=8))
    def test_deep_and_many_component_rows(self, n, quarter, picks):
        # offsets anywhere, in the upper half, or in the top quarter (long
        # alternating traces, c close to n); no picks is the all-zero row
        lo = 1 + quarter * (n - 1) // 4
        offsets = sorted({lo + p % (n - lo) for p in picks}) if n > lo else []
        _assert_canonical_labels(n, offsets)
