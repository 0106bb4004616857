import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toeplitz_fnf import (ComponentIndexSequence, FirstRow, FnfBlock, FnfResult, compute_fnf,
                          row_from_offsets)
from toeplitz_fnf import core, fnf

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


def _reference_shapes(result):
    """Each block's ``(size, step)`` from ``np.diff(vertices)``, step 0 for a gathered block."""
    perm, bounds = result.permutation, result.block_bounds
    shapes = []
    for k in range(bounds.size - 1):
        vertices = perm[bounds[k]:bounds[k + 1]]
        gaps = np.diff(vertices)
        d = int(gaps[0]) if gaps.size and (gaps == gaps[0]).all() else int(gaps.size == 0)
        shapes.append((vertices.size, d))
    return shapes


def _every_offset_set(top):
    for n in range(1, top + 1):
        for mask in range(2 ** (n - 1)):
            yield n, [s for s in range(1, n) if mask >> (s - 1) & 1]


class TestSharedRows:
    """Blocks alike in size and progression step hold one view of the row."""

    @staticmethod
    def _assert_rows_shared(res, blocks):
        held = {}
        for b, (m, d) in zip(blocks, _reference_shapes(res)):
            assert not b.first_row.flags.writeable
            assert np.shares_memory(b.first_row, res.row.entries) == (d > 0)
            if d:
                assert held.setdefault((m, d), b.first_row) is b.first_row
        return held

    def test_alike_blocks_share_a_row_against_a_per_block_reference(self, monkeypatch):
        # _GAPS from 1 (the gaps read one at a time) up, so chunk edges fall everywhere
        gathered = shared = 0
        for i, (n, offsets) in enumerate([*_every_offset_set(12), *sweep_instances()]):
            monkeypatch.setattr(fnf, "_GAPS", (1, 2, 3, 5, 8, 1 << 16)[i % 6])
            res = compute_fnf(row_from_offsets(n, offsets))
            blocks = tuple(res.blocks)
            held = self._assert_rows_shared(res, blocks)
            assert len(res._rows) == len(held)
            assert all(res._rows[(m - 1) * d, d] is row for (m, d), row in held.items())
            shapes = _reference_shapes(res)
            gathered += sum(d == 0 for _, d in shapes)
            shared += len(shapes) - len(held) - sum(d == 0 for _, d in shapes)
        assert gathered > 1000 and shared > 1000  # both kinds of block are covered

    @pytest.mark.parametrize("n, offsets, shapes", [
        (31, [12, 18, 24, 29], 2),   # a gathered block, then 3 residue classes
        (7, [], 1),                  # 7 singletons
        (10_000, [50], 1),           # 50 residue classes
        (100, [70], 2),              # 30 pairs of step 70, then 40 singletons
    ])
    def test_blocks_alike_share_one_read_only_row(self, n, offsets, shapes):
        res = compute_fnf(row_from_offsets(n, offsets))
        assert len(set(_reference_shapes(res))) == shapes
        blocks = res.blocks
        self._assert_rows_shared(res, (*blocks, *blocks))

    def test_a_gathered_block_never_shares_its_row(self):
        # {1, 3, 4, 7} spans 3 * 2 but is no progression, and {2, 5, 6} is none either
        row = FirstRow(np.arange(1.0, 8.0))
        res = FnfResult(row=row, cis=ComponentIndexSequence(7, 2, [1, 2, 1, 1, 2, 2, 1]),
                        permutation=np.array([1, 3, 4, 7, 2, 5, 6]),
                        block_bounds=np.array([0, 4, 7]), trace=compute_fnf(row).trace)
        for b in (*res.blocks, *res.blocks):
            assert not np.shares_memory(b.first_row, row.entries)
        assert res.blocks[0].first_row is not res.blocks[0].first_row
        assert res._rows == {}

    def test_a_view_is_made_on_first_read_and_kept(self):
        res = compute_fnf(FirstRow(np.zeros(50)))
        assert "_rows" not in vars(res)  # compute_fnf makes no view
        row = res.blocks[3].first_row
        assert res._rows == {(0, 1): row} and res.blocks[7].first_row is row

    def test_holding_every_row_costs_a_pointer_per_block(self):
        # the all-zero row's blocks hold one view: the list of them costs its slots
        res = compute_fnf(FirstRow(np.zeros(1 << 16)))
        tracemalloc.start()
        try:
            rows = [b.first_row for b in res.blocks]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(rows) == res.component_count == 1 << 16
        assert held < 16 * len(rows), held


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
        for size in (True, np.bool_(True), 1.0, np.float64(1.0), "1", None):
            with pytest.raises(ValueError, match="integer"):
                FnfBlock(size, [1.0], [1])
        assert FnfBlock(np.int64(1), [1.0], [1]).size == 1
        res = compute_fnf(row_from_offsets(31, [12, 18, 24, 29]))
        fields = dict(row=res.row, cis=res.cis, permutation=res.permutation,
                      block_bounds=res.block_bounds, trace=res.trace)
        with pytest.raises(ValueError, match="length n"):
            FnfResult(**{**fields, "permutation": res.permutation[:-1]})
        bounds = res.block_bounds.copy()
        bounds[-1] -= 1
        with pytest.raises(ValueError, match="cut 0..n"):
            FnfResult(**{**fields, "block_bounds": bounds})
        # bounds that do not increase cut no blocks
        repeated = res.block_bounds.copy()
        repeated[1] = repeated[2]
        for bad in (repeated, res.block_bounds[[0, 2, 1, 3, 4]], res.block_bounds[None, :]):
            with pytest.raises(ValueError, match="cut 0..n"):
                FnfResult(**{**fields, "block_bounds": bad})
        # the bounds are integers of the permutation's dtype, which the writers index by
        other = np.uint64 if res.block_bounds.dtype != np.uint64 else np.int64
        for bad in (res.block_bounds.tolist(), res.block_bounds.astype(float),
                    res.block_bounds.astype(other)):
            with pytest.raises(ValueError, match="permutation's dtype"):
                FnfResult(**{**fields, "block_bounds": bad})
        with pytest.raises(ValueError, match="permutation's dtype"):
            FnfResult(**{**fields, "permutation": res.permutation.astype(float),
                         "block_bounds": res.block_bounds.astype(float)})

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
    blocks = tuple(res.blocks)
    assert [b.vertices.tolist() for b in blocks] == canonical
    # each block row reads the row at v - v[0], as a view of it exactly
    # when the vertices are an arithmetic progression
    for b in blocks:
        v, gaps = b.vertices, np.diff(b.vertices)
        assert np.array_equal(b.first_row, res.row.entries[v - v[0]])
        assert np.shares_memory(b.first_row, res.row.entries) == bool(np.all(gaps == gaps[:1]))
    # the blocks alike in size and progression step hold one row
    TestSharedRows._assert_rows_shared(res, blocks)
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


class TestWindowedRowCopies:
    """The decomposition is the same whichever way ``FirstRow`` copied the row."""

    @staticmethod
    def assert_sweep(monkeypatch, sparse):
        rows = [row_from_offsets(n, offsets) for n, offsets in sweep_instances()]
        expected = [compute_fnf(row) for row in rows]
        monkeypatch.setattr(core, "_WHOLE", 0)
        monkeypatch.setattr(core, "_SPARSE", sparse)
        for i, (row, default, (n, offsets)) in enumerate(zip(rows, expected, sweep_instances())):
            monkeypatch.setattr(core, "_WINDOW", 1 + i % 4)  # the count's windows
            copied = FirstRow(row.entries)
            # an all-zero row is sparse at every bound
            assert (copied._at is not None) == (sparse == 1 or len(offsets) == 0)
            res = compute_fnf(copied)
            assert res.cis.rho.tolist() == reference.union_find_labels(n, offsets)
            assert np.array_equal(res.cis.rho, default.cis.rho)
            assert np.array_equal(res.permutation, default.permutation)
            assert np.array_equal(res.block_bounds, default.block_bounds)

    def test_sweep_through_windowed_copies(self, monkeypatch):
        # every row counted, its count stopped at its first nonzero window,
        # and copied whole
        self.assert_sweep(monkeypatch, sparse=1 << 62)

    def test_sweep_through_sparse_copies(self, monkeypatch):
        # every row counted in windows of 1 to 4 positions and copied entry by
        # entry: reduce reads only the positions written
        self.assert_sweep(monkeypatch, sparse=1)
