import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import toeplitz_fnf.reduction as reduction
from toeplitz_fnf import core
from toeplitz_fnf import (
    ALPHA,
    BETA,
    FirstRow,
    OffsetSet,
    ReductionStep,
    ReductionTrace,
    alpha_reduce,
    beta_reduce,
    offsets_from_row,
    reachability_divisor,
    reduce,
)

import reference
from conftest import random_alpha_instance, random_beta_instance, random_instance


class TestReachabilityDivisor:
    def test_golden_31(self):
        assert reachability_divisor(31, [12, 18, 24, 29]) == 6

    def test_single_offset(self):
        # the scan body never runs: d stays at the only offset
        assert reachability_divisor(20, [7]) == 7

    def test_two_offsets_gcd(self):
        d = reachability_divisor(10, [4, 6])
        assert d == 2
        g = reference.build_graph(10, [4, 6])
        assert reference.is_d_reachable(g, d)

    def test_empty_offsets_rejected(self):
        with pytest.raises(ValueError):
            reachability_divisor(10, [])

    def test_large_min_rejected(self):
        with pytest.raises(ValueError):
            reachability_divisor(10, [6])

    def test_matches_plain_scan(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n, offsets = random_beta_instance(rng)
            assert reachability_divisor(n, offsets) == reference.divisor_chain(n, offsets)[-1]

    def test_chain_monotone_and_divisible(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            n, offsets = random_beta_instance(rng)
            chain = reference.divisor_chain(n, offsets)
            for a, b in zip(chain, chain[1:]):
                assert b <= a
                assert a % b == 0

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 3000), first=st.integers(0, 2 ** 31),
           picks=st.lists(st.integers(0, 2 ** 31), max_size=63))
    def test_matches_plain_scan_on_long_offset_sets(self, n, first, picks):
        # up to 64 offsets spread over [min, n-1]: long scans where d reaches
        # 1 with offsets left, and scans cut off at n - d
        s0 = 1 + first % (n // 2)
        offsets = sorted({s0, *(s0 + p % (n - s0) for p in picks)})
        assert reachability_divisor(n, offsets) == reference.divisor_chain(n, offsets)[-1]

    def test_result_is_reachable_step(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n, offsets = random_beta_instance(rng, n_hi=128)
            d = reachability_divisor(n, offsets)
            g = reference.build_graph(n, offsets)
            assert reference.is_d_reachable(g, d)


class TestAlphaReduce:
    def test_golden_descent(self):
        n2, s2, m = alpha_reduce(7, [5, 6])
        assert (n2, list(s2), m) == (4, [2, 3], 3)

    def test_single_far_offset(self):
        n2, s2, m = alpha_reduce(5, [3])
        assert (n2, list(s2), m) == (4, [2], 1)
        before = len(reference.components_oracle(reference.build_graph(5, [3])))
        after = len(reference.components_oracle(reference.build_graph(4, [2])))
        assert before - after == 1

    def test_three_vertices(self):
        n2, s2, m = alpha_reduce(3, [2])
        assert (n2, list(s2), m) == (2, [1], 1)
        assert len(reference.components_oracle(reference.build_graph(3, [2]))) == 2

    def test_requires_large_min(self):
        with pytest.raises(ValueError):
            alpha_reduce(10, [5])
        with pytest.raises(ValueError):
            alpha_reduce(10, [])

    def test_component_loss_matches_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n, offsets = random_alpha_instance(rng, n_hi=128)
            n2, s2, m = alpha_reduce(n, offsets)
            before = len(reference.components_oracle(reference.build_graph(n, offsets)))
            after = len(reference.components_oracle(reference.build_graph(n2, s2)))
            assert before - after == m

    def test_explicit_relabeling_is_isomorphism(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            n, offsets = random_alpha_instance(rng, n_hi=96)
            n2, s2, m = alpha_reduce(n, offsets)
            s0 = int(offsets[0])
            g = reference.build_graph(n, offsets)
            h = reference.build_graph(n2, s2)
            band = set(range(n - s0 + 1, s0 + 1))
            assert len(band) == m

            def phi(w):
                return w if w <= n - s0 else w - m

            mapped = set()
            for u, v in g.edges:
                assert u not in band and v not in band
                a, b = phi(u), phi(v)
                mapped.add((min(a, b), max(a, b)))
            assert mapped == set(h.edges)


class TestBetaReduce:
    def test_golden_fold(self):
        n2, s2, d = beta_reduce(31, [12, 18, 24, 29])
        assert (n2, list(s2), d) == (7, [5, 6], 6)

    def test_exact_division_fold(self):
        n2, s2, d = beta_reduce(4, [2, 3])
        assert (n2, list(s2), d) == (2, [1], 2)
        assert len(reference.components_oracle(reference.build_graph(4, [2, 3]))) == 1
        assert len(reference.components_oracle(reference.build_graph(2, [1]))) == 1

    def test_fold_to_single_vertex(self):
        n2, s2, d = beta_reduce(2, [1])
        assert (n2, list(s2), d) == (1, [], 1)

    def test_quotients_identical_and_counts_preserved(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n, offsets = random_beta_instance(rng, n_hi=128)
            d = reachability_divisor(n, offsets)
            n2, s2, d_fold = beta_reduce(n, offsets)
            assert d_fold == d
            g = reference.build_graph(n, offsets)
            h = reference.build_graph(n2, s2)
            assert reference.contract(g, d) == reference.contract(h, d)
            assert len(reference.components_oracle(g)) == len(reference.components_oracle(h))


class TestReduce:
    def test_golden_31_trace(self):
        trace, c = reduce(OffsetSet(31, [12, 18, 24, 29]))
        assert c == 4
        orders = [s.n_before for s in trace.steps] + [trace.n_final]
        assert orders == [31, 7, 4, 2, 1]
        assert [s.n_after for s in trace.steps] == [7, 4, 2, 1]
        assert [s.kind for s in trace.steps] == [BETA, ALPHA, BETA, BETA]
        assert [s.c for s in trace.steps] == [0, 3, 0, 0]
        assert [s.d for s in trace.steps] == [6, 5, 2, 1]

    def test_edgeless(self):
        trace, c = reduce(OffsetSet(7, []))
        assert c == 7
        assert trace.steps == ()
        assert trace.n_final == 7

    def test_even_offsets_two_classes(self):
        trace, c = reduce(OffsetSet(7, [2, 4, 6]))
        assert c == 2
        assert c == len(reference.components_oracle(reference.build_graph(7, [2, 4, 6])))

    def test_count_matches_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(400):
            n, offsets = random_instance(rng, n_hi=128)
            _, c = reduce(OffsetSet(n, offsets))
            labels = reference.union_find_labels(n, offsets)
            assert c == max(labels)

    def test_structural_invariants(self):
        rng = np.random.default_rng(42)
        for _ in range(400):
            n, offsets = random_instance(rng, n_hi=256)
            trace, c = reduce(OffsetSet(n, offsets))
            assert c == trace.component_count
            kinds = [s.kind for s in trace.steps]
            for a, b in zip(kinds, kinds[1:]):
                assert not (a == ALPHA and b == ALPHA)
            for s in trace.steps:
                if s.kind == BETA:
                    assert 3 * s.n_after < 2 * s.n_before
                else:
                    assert s.n_after % 2 == 0
            # the single moves, chosen by the 2*min > n rule, compose to the trace
            n_i, s_i, replay = n, offsets, []
            while len(s_i):
                move = alpha_reduce if 2 * int(s_i[0]) > n_i else beta_reduce
                n_after, s_i, width_or_d = move(n_i, s_i)
                replay.append((n_i, ALPHA if move is alpha_reduce else BETA, width_or_d))
                n_i = n_after
            assert replay == [(s.n_before, s.kind, s.c if s.kind == ALPHA else s.d)
                              for s in trace.steps]
            assert n_i == trace.n_final

    def test_input_validation(self):
        with pytest.raises(ValueError):
            OffsetSet(0, [])
        with pytest.raises(ValueError):
            OffsetSet(5, [0, 2])
        with pytest.raises(ValueError):
            OffsetSet(5, [2, 2])


W = reduction.WINDOW


def _row(n: int, offsets, a0: float = 0.0) -> FirstRow:
    entries = np.zeros(n)
    entries[0] = a0
    entries[list(offsets)] = 1.0
    return FirstRow(entries)


#: ``(n, offsets)``: rows whose offsets sit at the edges of the scan's windows
EDGE_ROWS = [
    (1, []),                                        # all zero, n = 1
    (2, []),                                        # all zero, n = 2
    (2, [1]),                                       # s0 = n - 1 with a beta step
    (9, [8]),                                       # s0 = n - 1 with an alpha step
    (3 * W, [3 * W - 1]),                           # s0 = n - 1 past two windows
    (3 * W, []),                                    # all zero past several windows
    (3 * W, [W + 4, 2 * W + 8, 2 * W + 10]),        # first nonzero past the first window
    (3 * W, [2 * W - 2, 2 * W + 5, 3 * W - 2]),     # alpha first step past a window
    (4 * W, [6, W, W + 1]),                         # d: 6 -> 2 at a window's end -> 1 next
    (4 * W, [6, W - 1, W + 1, 4 * W - 5]),          # d: 6 -> 3 inside, -> 1 at next start
    (3 * W + 1, [40000, 100000, 170000, 190000]),  # n - d grows past s0's bound; 190000 kept
    (W + 4, [3, W + 1]),                            # the offset n - d opens a window
    (12, [3, 10]),                                  # n + 1 - d ends a window, unread
    (10**5, [40000, 62000]),                        # 62000 > n - s0 shares s0's window
    (10**5, [40000, 50000, 62000]),                 # ... and is read once d falls
]


@st.composite
def sparse_rows(draw):
    """Rows of order up to 400 whose offsets are mostly multiples of one step.

    A shared step makes the divisor fall in stages; with ``WINDOW`` at 1, 2
    or 3 the windows are small, so those falls land near many window edges.
    """
    n = draw(st.integers(1, 400))
    step = draw(st.integers(1, 60))
    picks = draw(st.lists(st.integers(1, 400), max_size=10))
    extra = draw(st.lists(st.integers(1, 400), max_size=2))
    entries = np.zeros(n)
    entries[0] = draw(st.sampled_from([0.0, 2.0]))
    for s in sorted({step * p for p in picks} | set(extra)):
        if s < n:
            # -0.0 is a zero, 5e-324 (subnormal) is not
            entries[s] = draw(st.sampled_from([1.0, -3.5, 5e-324, -0.0]))
    return FirstRow(entries)


class TestReduceFromRow:
    """``reduce(row)`` reads the row in windows and equals ``reduce(offsets_from_row(row))``."""

    @staticmethod
    def assert_matches_offsets(row: FirstRow) -> None:
        offset_set = offsets_from_row(row)
        expected = reduce(offset_set)
        for window in (1, 2, 3, W):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(reduction, "WINDOW", window)
                assert reduce(row) == reduce(offset_set) == expected, f"WINDOW={window}"

    @settings(max_examples=300, deadline=None)
    @given(row=sparse_rows())
    def test_matches_offset_set(self, row):
        self.assert_matches_offsets(row)

    @pytest.mark.parametrize("n, offsets", EDGE_ROWS)
    def test_edge_rows(self, n, offsets):
        for a0 in (0.0, 1.0):
            self.assert_matches_offsets(_row(n, offsets, a0))

    def test_row_with_a1_is_read_in_one_window(self, monkeypatch):
        read = []
        between = reduction._between

        def counted(source):
            inner, width = between(source)
            if not isinstance(source, FirstRow):
                return inner, width

            def reads(lo, hi):
                read.append(max(0, min(hi, source.n) - lo))
                return inner(lo, hi)
            return reads, width
        monkeypatch.setattr(reduction, "_between", counted)
        rng = np.random.default_rng(7)
        entries = np.where(rng.random(10 * W) < 0.5, 0.0, 1.0)
        entries[1] = 1.0
        trace, c = reduce(FirstRow(entries))
        assert c == 1 and [(s.kind, s.d) for s in trace.steps] == [(BETA, 1)]
        assert sum(read) <= W

    def test_divisor_scan_calls_gcd_once_per_change_of_d(self, monkeypatch):
        # each call to gcd at least halves d, so a beta move from s0 makes at
        # most floor(log2 s0) calls; a Python loop per offset would make one
        # for every offset the scan reads
        calls = []
        monkeypatch.setattr(reduction, "gcd", lambda a, b: calls.append(1) or math.gcd(a, b))
        move = reduction._move

        def counted(n, between, width):
            s0 = between(1, n)[:1]
            before = len(calls)
            moved = move(n, between, width)
            if moved and moved[0].kind == BETA:
                assert len(calls) - before <= math.floor(math.log2(s0[0])) + 1
            return moved
        monkeypatch.setattr(reduction, "_move", counted)

        n = 8 * W
        positions = np.arange(n // 2, n)
        rows = [_row(n, [6, *positions[positions % 6 == 3]])]
        rng = np.random.default_rng(8)
        for _ in range(60):
            size = int(rng.integers(2, 5000))
            step = int(rng.integers(1, 50))
            offsets = step * rng.integers(1, size // step + 1, size=40)
            rows.append(_row(size, np.unique(offsets[offsets < size])))
        for row in rows:
            for window in (1, 2, 3, W):
                monkeypatch.setattr(reduction, "WINDOW", window)
                expected = reduce(offsets_from_row(row))
                calls.clear()
                assert reduce(row) == expected
                if row is rows[0]:
                    assert len(calls) == 1  # d: 6 -> 3, then only multiples of 3

    @pytest.mark.parametrize("n, offsets, reads", [
        (10 ** 5, [40000, 62000], [2, 2, 2, 2, 2, 1]),            # five beta folds
        (10 ** 5, [60001, 70000, 99999], [2] * 7 + [1]),          # alpha and beta moves
        (10 ** 6, [4, 6], [2, 1]),                                # d: 4 -> 2
        (10 ** 5, [40000, 50000, 62000], [2, 1]),                 # d: 40000 -> 10000 -> 2000
    ])
    def test_array_moves_read_one_window(self, monkeypatch, n, offsets, reads):
        # an array is searched, not scanned: a move reads one window for d,
        # however often d falls, and then the offsets it keeps; the move that
        # finds none reads once
        calls = []
        between = reduction._between

        def counted(source):
            inner, width = between(source)
            calls.append(0)

            def read(lo, hi):
                calls[-1] += 1
                return inner(lo, hi)
            return read, width
        monkeypatch.setattr(reduction, "_between", counted)
        monkeypatch.setattr(reduction, "WINDOW", 1)
        assert reduce(OffsetSet(n, offsets)) == reduce(_row(n, offsets))
        assert calls[:len(reads)] == reads


class TestLiveWindowReader:
    """A row reduces alike however ``FirstRow`` copied it; a sparse copy is scanned
    only at the positions it wrote.

    Every row is copied again with ``core._WHOLE`` at 0: entry by entry
    (``core._SPARSE`` at 1), its count in windows (``core._WINDOW``) of 1 to 4
    positions and of ``W``, and once whole (``core._SPARSE`` past ``n``), and
    then reduced with the scan's first window at 1, 2, 3 and ``WINDOW``.
    """

    @staticmethod
    def assert_matches_offsets(row: FirstRow) -> None:
        expected = reduce(offsets_from_row(row))
        for core_window, sparse in ((1, 1), (2, 1), (3, 1), (4, 1), (W, 1), (W, row.n + 1)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(core, "_WHOLE", 0)
                mp.setattr(core, "_WINDOW", core_window)
                mp.setattr(core, "_SPARSE", sparse)
                windowed = FirstRow(row.entries)
                for window in (1, 2, 3, W):
                    mp.setattr(reduction, "WINDOW", window)
                    assert reduce(windowed) == expected, \
                        f"_WINDOW={core_window}, _SPARSE={sparse}, WINDOW={window}"

    @settings(max_examples=200, deadline=None)
    @given(row=sparse_rows())
    def test_matches_offset_set(self, row):
        self.assert_matches_offsets(row)

    @pytest.mark.parametrize("n, offsets", EDGE_ROWS)
    def test_edge_rows(self, n, offsets):
        for a0 in (0.0, 1.0):
            self.assert_matches_offsets(_row(n, offsets, a0))

    @pytest.mark.parametrize("n, entries", [
        (49, {12: 1.0, 23: 2.0, 24: -1.0, 35: 3.0}),    # nonzeros at window edges
        (50, {6: 2.0, 25: -0.0, 40: 4.0}),              # a live window holding only -0.0
        (50, {10: 5e-324, 30: 2.0}),                    # a subnormal alone in its window
        (49, {8: 1.0, 48: 1.0}),                        # the partial last window
        (50, {30: 1.0, 37: 1.0, 49: 1.0}),              # alpha first move across runs
        (50, {4: 1.0, 6: -0.0, 41: 1.0, 46: 1.0}),      # d: 4 -> 2 -> 1 across runs
    ])
    def test_window_edge_rows(self, n, entries):
        for a0 in (0.0, 3.0, -0.0):  # a nonzero a_0 makes the first window live
            row = np.zeros(n)
            row[0] = a0
            row[list(entries)] = list(entries.values())
            self.assert_matches_offsets(FirstRow(row))

    def test_sparse_row_is_scanned_in_its_live_windows_only(self):
        # d = 2 keeps the first move scanning to n - 2, but the row's nonzeros
        # lie in three windows, and a dead window holds no offset
        n, w = 1 << 23, core._WINDOW
        entries = np.zeros(n)
        entries[[2, 50 * w + 6, 100 * w + 8, 101 * w - 2]] = [1.0, 2.0, 3.0, 4.0]
        row = FirstRow(entries)
        scanned = []

        class Counted(np.ndarray):
            """Entries that count the positions each slice of them holds."""

            def __getitem__(self, key):
                part = super().__getitem__(key)
                scanned.append(np.size(part))
                return part
        row.entries = row.entries.view(Counted)
        trace, c = reduce(row)
        assert c == 2 and [(s.kind, s.d) for s in trace.steps] == [(BETA, 2)]
        assert 0 < sum(scanned) <= 3 * w


class TestStepAndTraceInvariants:
    def test_alpha_step_checks(self):
        step = ReductionStep(ALPHA, 7, 5)
        assert (step.n_after, step.c) == (4, 3)
        with pytest.raises(ValueError):
            ReductionStep(ALPHA, 8, 4)  # 2*d == n drops no vertex
        with pytest.raises(ValueError):
            ReductionStep(ALPHA, 7, 7)  # d must lie below the order

    def test_beta_step_checks(self):
        step = ReductionStep(BETA, 31, 6)
        assert (step.n_after, step.c) == (7, 0)
        with pytest.raises(ValueError):
            ReductionStep(BETA, 7, 4)  # folds to 4 + 3 = 7: no shrink
        with pytest.raises(ValueError):
            ReductionStep(BETA, 31, 0)  # needs a positive divisor

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ReductionStep("gamma", 7, 5)

    def test_trace_chaining_enforced(self):
        good = (ReductionStep(BETA, 31, 6), ReductionStep(ALPHA, 7, 5))
        ReductionTrace(good, 4)
        with pytest.raises(ValueError, match="at least 1"):
            ReductionTrace((), 0)
        with pytest.raises(ValueError):
            ReductionTrace(good, 5)
        with pytest.raises(ValueError):
            ReductionTrace((ReductionStep(BETA, 31, 6),
                            ReductionStep(ALPHA, 9, 6)), 6)  # 9 != 7 breaks the chain

    def test_orders_and_divisors_are_integers(self):
        for n_before, d in ((31.0, 6), (31, 6.0), (True, 1), (3, True), (31, "6"), (7.5, 5)):
            with pytest.raises(ValueError, match="must be integers"):
                ReductionStep(BETA, n_before, d)
        for n_final in (1.5, 4.0, True, None):
            with pytest.raises(ValueError, match="must be an integer"):
                ReductionTrace((), n_final)
        assert ReductionStep(BETA, np.int64(31), np.int32(6)).n_after == 7
        assert ReductionTrace((), np.int64(3)).component_count == 3

    def test_component_count_formula(self):
        trace, _ = reduce(OffsetSet(31, [12, 18, 24, 29]))
        assert trace.component_count == sum(s.c for s in trace.steps) + trace.n_final
