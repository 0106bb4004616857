import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toeplitz_fnf import (ComponentIndexSequence, OffsetSet, compute_fnf, recover_cis, reduce,
                          row_from_offsets)
from toeplitz_fnf.recovery import _fill_periodic, _unfold_groups, recover_blocks
from toeplitz_fnf.reduction import ALPHA, BETA, ReductionStep, ReductionTrace

import reference
from conftest import LABEL_DTYPE_ROWS, random_instance, sweep_instances

GOLDEN_PARTITION = {
    frozenset({3, 9, 15, 21, 27}),
    frozenset({4, 10, 16, 22, 28}),
    frozenset({5, 11, 17, 23, 29}),
    frozenset({1, 2, 6, 7, 8, 12, 13, 14, 18, 19, 20, 24, 25, 26, 30, 31}),
}


def _labels_partition(cis):
    return reference.partition_from_labels(cis.rho)


class TestRecoverCis:
    def test_golden_31_partition(self):
        trace, _ = reduce(OffsetSet(31, [12, 18, 24, 29]))
        cis = recover_cis(trace)
        assert _labels_partition(cis) == GOLDEN_PARTITION

    def test_empty_trace_identity(self):
        cis = recover_cis(ReductionTrace((), 5))
        assert cis.rho.tolist() == [1, 2, 3, 4, 5]
        assert cis.c == 5

    def test_even_offsets_two_classes(self):
        trace, _ = reduce(OffsetSet(7, [2, 4, 6]))
        cis = recover_cis(trace)
        expected = reference.partition_from_labels(
            reference.union_find_labels(7, [2, 4, 6]))
        assert _labels_partition(cis) == expected
        assert _labels_partition(cis) == {frozenset({1, 3, 5, 7}), frozenset({2, 4, 6})}

    def test_partition_matches_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(400):
            n, offsets = random_instance(rng, n_hi=160)
            trace, c = reduce(OffsetSet(n, offsets))
            cis = recover_cis(trace)
            assert cis.c == c
            labels = reference.union_find_labels(n, offsets)
            assert _labels_partition(cis) == reference.partition_from_labels(labels)

    def test_labels_cover_full_range(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            n, offsets = random_instance(rng, n_hi=128)
            trace, c = reduce(OffsetSet(n, offsets))
            cis = recover_cis(trace)
            assert cis.rho.min() >= 1
            assert cis.rho.max() == c
            assert np.unique(cis.rho).size == c

    def test_beta_tail_is_periodic(self):
        rng = np.random.default_rng(53)
        checked = 0
        for _ in range(300):
            n, offsets = random_instance(rng, n_lo=4, n_hi=128)
            trace, _ = reduce(OffsetSet(n, offsets))
            if not trace.steps or trace.steps[0].kind != BETA:
                continue
            step = trace.steps[0]
            rho = recover_cis(trace).rho
            for p in range(step.n_after, step.n_before):
                assert rho[p] == rho[p - step.d]
            checked += 1
        assert checked > 50

    def test_alpha_band_gets_fresh_singleton_labels(self):
        trace, _ = reduce(OffsetSet(7, [5, 6]))
        cis = recover_cis(trace)
        # band vertices 3, 4, 5 are isolated; each label occurs exactly once
        counts = np.bincount(cis.rho)
        for v in (3, 4, 5):
            assert counts[cis.rho[v - 1]] == 1


class TestComponentIndexSequence:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            ComponentIndexSequence(n=3, c=1, rho=np.array([1, 1]))
        with pytest.raises(ValueError, match="order"):
            ComponentIndexSequence(n=0, c=1, rho=np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="component count"):
            ComponentIndexSequence(n=3, c=4, rho=np.array([1, 1, 1]))

    @pytest.mark.parametrize("n, c", [(True, True), (2, True), (np.bool_(True), 1), (2.0, 1),
                                      (np.float64(2.0), 1), (2, 1.0), (2, np.float64(1.0)),
                                      (2.5, 1), ("2", 1)])
    def test_rejects_non_integer_order_and_count(self, n, c):
        with pytest.raises(ValueError, match="integers"):
            ComponentIndexSequence(n, c, [1, 1])

    def test_numpy_integers_are_integers(self):
        cis = ComponentIndexSequence(np.int64(2), np.int32(1), [1, 1])
        assert (cis.n, cis.c) == (2, 1)

    def test_rejects_label_gap(self):
        with pytest.raises(ValueError):
            ComponentIndexSequence(n=3, c=3, rho=np.array([1, 1, 3]))

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            ComponentIndexSequence(n=3, c=2, rho=np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            ComponentIndexSequence(n=3, c=2, rho=np.array([1, 2, 3]))
        with pytest.raises(ValueError, match="lie in"):
            ComponentIndexSequence(n=3, c=1, rho=np.array([1.5, 1, 1]))

    def test_partition_groups_sorted(self):
        cis = ComponentIndexSequence(n=5, c=2, rho=np.array([2, 1, 2, 1, 2]))
        assert reference.partition_from_labels(cis.rho) == {frozenset({2, 4}),
                                                            frozenset({1, 3, 5})}

    def test_callers_array_stays_writable(self):
        a = np.array([1, 2, 1])
        cis = ComponentIndexSequence(3, 2, a)
        assert a.flags.writeable and not cis.rho.flags.writeable
        a[0] = 2
        assert cis.rho.tolist() == [1, 2, 1]


@pytest.mark.parametrize("step", [0, 3])
def test_fill_periodic_matches_a_per_entry_loop(step):
    for size in range(13):
        for start in range(1, size + 1):
            for period in range(1, start + 1):
                out = np.full(size, -1, dtype=np.int64)
                out[:start] = np.arange(start) * 7 % 5
                expected = out.tolist()
                for p in range(start, size):
                    expected[p] = expected[p - period] + step
                _fill_periodic(out, start, period, step)
                assert out.tolist() == expected, (size, start, period)


def _label_dtype(c):
    """The labels' dtype: int8 up to 127 components, int16 up to 32,767, then int32."""
    return np.int8 if c <= 127 else np.int16 if c <= 32_767 else np.int32


def _argsort_blocks(cis):
    """Reference grouping by a stable sort of the labels (test-only copy of
    the grouping the group replay replaced).  The permutation and the bounds
    take the permutation's dtype, int32 up to order 2**31 - 1."""
    dtype = np.int32 if cis.n < 2**31 else np.int64
    if cis.c == 1:
        return np.arange(1, cis.n + 1, dtype=dtype), np.array([0, cis.n], dtype=dtype)
    vertices = np.argsort(cis.rho, kind="stable").astype(dtype, copy=False)
    vertices += 1
    counts = np.bincount(cis.rho, minlength=cis.c + 1)[1:]
    return vertices, np.concatenate(([0], np.cumsum(counts)), dtype=dtype)


def _assert_matches_argsort(n, offsets):
    res = compute_fnf(row_from_offsets(n, offsets))
    perm, bounds = _argsort_blocks(res.cis)
    assert res.cis.rho.dtype == _label_dtype(res.cis.c)
    assert res.permutation.dtype == perm.dtype
    assert res.block_bounds.dtype == bounds.dtype
    assert np.array_equal(res.permutation, perm)
    assert np.array_equal(res.block_bounds, bounds)
    return res


def _replay_paths(trace):
    """The undos the group replay runs on ``trace``, in replay order: a beta
    undo is named by its shape, ``c`` folded groups against ``K`` rows and
    whether ``r`` is zero."""
    if trace.component_count == 1:
        return ["shortcut"]
    paths, groups = [], trace.n_final
    for step in reversed(trace.steps):
        if step.kind == ALPHA:
            groups += step.c
            paths.append("alpha")
        else:
            K, r = divmod(step.n_before, step.d)
            paths.append(f"c{'<=' if groups <= K else '>'}K, r{'=0' if r == 0 else '>0'}")
    return paths


def _assert_beta_counts_do_not_increase(trace):
    """Before each beta undo, ``m_L = |Q_L|`` and ``t_L = |Q_L ∩ [1, r]|``
    do not increase along the groups; the undo's run count rests on it."""
    for i, step in enumerate(trace.steps):
        if step.kind != BETA:
            continue
        perm, bounds = recover_blocks(ReductionTrace(trace.steps[i + 1:], trace.n_final))
        r = step.n_before % step.d
        m = np.add.reduceat(perm <= step.d, bounds[:-1], dtype=np.int64)
        t = np.add.reduceat(perm <= r, bounds[:-1], dtype=np.int64)
        assert np.all(np.diff(m) <= 0) and np.all(np.diff(t) <= 0), (step, m, t)


class TestRecoverBlocks:
    """The group replay equals a stable sort of the labels, dtype included."""

    @pytest.mark.parametrize("n, offsets, path", [
        (1000, [2, 4], "c<=K, r=0"),
        (1001, [2], "c<=K, r>0"),
        (21, [7], "c>K, r=0"),
        (20, [7], "c>K, r>0"),
    ])
    def test_each_beta_shape(self, n, offsets, path):
        res = _assert_matches_argsort(n, offsets)
        assert path in _replay_paths(res.trace)

    def test_alpha_undo_then_beta_undos(self):
        for n, offsets in ((31, [12, 18, 24, 29]), (200, [150, 170, 190])):
            res = _assert_matches_argsort(n, offsets)
            paths = _replay_paths(res.trace)
            assert "alpha" in paths
            assert any(p != "alpha" for p in paths[paths.index("alpha"):])

    @pytest.mark.parametrize("n, offsets, paths", [
        (1, [], ["shortcut"]),
        (2, [], []),
        (9, [], []),
        (5, [1], ["shortcut"]),
    ])
    def test_traces_without_steps_and_one_component(self, n, offsets, paths):
        res = _assert_matches_argsort(n, offsets)
        assert _replay_paths(res.trace) == paths
        if not res.trace.steps and n > 1:
            assert res.permutation.tolist() == list(range(1, n + 1))
            assert res.block_bounds.tolist() == list(range(n + 1))

    def test_more_groups_than_rows_near_the_top_of_the_index_dtype(self):
        # n = 127 with int8 positions, 1-based: the tails Q + Kd of the
        # groups reach position 127, the dtype's maximum
        folded, _ = reduce(OffsetSet(27, [20]))
        perm, bounds = recover_blocks(folded)
        out, out_bounds = _unfold_groups(perm.astype(np.int8), bounds, 127, 20, np.int8)
        res = _assert_matches_argsort(127, [20])
        assert "c>K, r>0" in _replay_paths(res.trace)
        assert out.max() == np.iinfo(np.int8).max
        assert out.tolist() == res.permutation.tolist()
        assert out_bounds.tolist() == res.block_bounds.tolist()

    def test_fewer_groups_than_rows_near_the_top_of_the_index_dtype(self):
        # the doubling rows and the tail of the last group reach position
        # 127, the int8 maximum
        folded, _ = reduce(OffsetSet(3, [2]))
        perm, bounds = recover_blocks(folded)
        out, out_bounds = _unfold_groups(perm.astype(np.int8), bounds, 127, 2, np.int8)
        res = _assert_matches_argsort(127, [2])
        assert _replay_paths(res.trace)[-1] == "c<=K, r>0"
        assert out.tolist() == res.permutation.tolist()
        assert out_bounds.tolist() == res.block_bounds.tolist()

    def test_every_offset_set_up_to_order_14(self):
        seen = set()
        for n in range(1, 15):
            for mask in range(2 ** (n - 1)):
                res = _assert_matches_argsort(
                    n, [s for s in range(1, n) if mask >> (s - 1) & 1])
                seen.update(_replay_paths(res.trace))
                _assert_beta_counts_do_not_increase(res.trace)
        assert seen == {"shortcut", "alpha", "c<=K, r=0", "c<=K, r>0",
                        "c>K, r=0", "c>K, r>0"}

    def test_acceptance_sweep(self):
        for n, offsets in sweep_instances():
            res = _assert_matches_argsort(n, offsets)
            _assert_beta_counts_do_not_increase(res.trace)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 3000), stride=st.integers(1, 80),
           quarter=st.sampled_from((0, 2, 3)),
           picks=st.lists(st.integers(0, 2 ** 31), max_size=8))
    def test_strided_and_clustered_rows(self, n, stride, quarter, picks):
        # multiples of ``stride`` in the whole range, the upper half or the
        # top quarter: large strides give many groups and few rows per beta
        # fold; no picks is the all-zero row
        lo = -(-(1 + quarter * (n - 1) // 4) // stride)
        hi = (n - 1) // stride
        offsets = sorted({stride * (lo + p % (hi - lo + 1)) for p in picks}) if hi >= lo else []
        _assert_matches_argsort(n, offsets)


@pytest.mark.parametrize("n, offsets, dtype", LABEL_DTYPE_ROWS)
def test_label_dtype_steps_by_component_count(n, offsets, dtype):
    res = compute_fnf(row_from_offsets(n, offsets))
    assert res.cis.rho.dtype == dtype
    assert res.permutation.dtype == np.int32 and res.block_bounds.dtype == np.int32
    assert np.array_equal(res.cis.rho, reference.union_find_labels(n, offsets))


def _peak_bytes(replay, trace):
    """The peak that ``replay(trace)`` allocates, and the bytes its result arrays own."""
    tracemalloc.start()
    try:
        out = replay(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = out if isinstance(out, tuple) else (out.rho,)
    return peak, sum(a.nbytes for a in arrays if a.base is None)


class TestReplayMemory:
    """At n = 1e6 the replays write their outputs and allocate no n-sized temporary."""

    N = 10 ** 6

    def test_one_component_labels_are_a_constant_view(self):
        trace, c = reduce(OffsetSet(self.N, [1]))
        assert c == 1
        peak, owned = _peak_bytes(recover_cis, trace)
        assert owned == 0 and peak < 1024

    @pytest.mark.parametrize("offsets", [[4, 6], [10, N - 3]])
    def test_group_replay_allocates_only_its_outputs(self, offsets):
        # [4, 6]: c = 2 over K = 5e5 rows; [10, n - 3]: groups with several
        # positions below d, after an alpha undo
        trace, c = reduce(OffsetSet(self.N, offsets))
        assert c > 1 and max(s.n_before // s.d for s in trace.steps if s.kind == BETA) > c
        peak, owned = _peak_bytes(recover_blocks, trace)
        assert peak - owned < 256 * 1024

    def test_one_component_rho_on_traces_of_several_steps(self):
        rng = np.random.default_rng(54)
        checked = 0
        for _ in range(3000):
            n, offsets = random_instance(rng, n_lo=4, n_hi=200, k_max=4)
            trace, c = reduce(OffsetSet(n, offsets))
            if c != 1 or len(trace.steps) < 2:
                continue
            cis = recover_cis(trace)
            rho = cis.rho
            assert rho.shape == (n,) and rho.dtype == np.int8
            assert not rho.flags.writeable
            assert np.all(rho == 1)
            labels = reference.union_find_labels(n, offsets)
            assert _labels_partition(cis) == reference.partition_from_labels(labels)
            checked += 1
        assert checked > 10
