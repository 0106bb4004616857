import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toeplitz_fnf import (
    ALPHA,
    BETA,
    OffsetSet,
    ReductionStep,
    ReductionTrace,
    alpha_reduce,
    beta_reduce,
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
        with pytest.raises(ValueError):
            ReductionTrace(good, 5)
        with pytest.raises(ValueError):
            ReductionTrace((ReductionStep(BETA, 31, 6),
                            ReductionStep(ALPHA, 9, 6)), 6)  # 9 != 7 breaks the chain

    def test_component_count_formula(self):
        trace, _ = reduce(OffsetSet(31, [12, 18, 24, 29]))
        assert trace.component_count == sum(s.c for s in trace.steps) + trace.n_final
