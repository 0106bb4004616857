import numpy as np
import pytest

from toeplitz_fnf import ComponentIndexSequence, OffsetSet, recover_cis, reduce
from toeplitz_fnf import oracle
from toeplitz_fnf.reduction import ALPHA, BETA, ReductionStep, ReductionTrace

from conftest import random_instance

GOLDEN_PARTITION = {
    frozenset({3, 9, 15, 21, 27}),
    frozenset({4, 10, 16, 22, 28}),
    frozenset({5, 11, 17, 23, 29}),
    frozenset({1, 2, 6, 7, 8, 12, 13, 14, 18, 19, 20, 24, 25, 26, 30, 31}),
}


def _labels_partition(cis):
    return oracle.partition_from_labels(cis.rho)


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
        expected = oracle.partition_from_labels(
            oracle.toeplitz_component_labels(7, [2, 4, 6]))
        assert _labels_partition(cis) == expected
        assert _labels_partition(cis) == {frozenset({1, 3, 5, 7}), frozenset({2, 4, 6})}

    def test_partition_matches_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(400):
            n, offsets = random_instance(rng, n_hi=160)
            trace, c = reduce(OffsetSet(n, offsets))
            cis = recover_cis(trace)
            assert cis.c == c
            labels = oracle.toeplitz_component_labels(n, offsets)
            assert _labels_partition(cis) == oracle.partition_from_labels(labels)

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

    def test_rejects_label_gap(self):
        with pytest.raises(ValueError):
            ComponentIndexSequence(n=3, c=3, rho=np.array([1, 1, 3]))

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            ComponentIndexSequence(n=3, c=2, rho=np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            ComponentIndexSequence(n=3, c=2, rho=np.array([1, 2, 3]))

    def test_partition_groups_sorted(self):
        cis = ComponentIndexSequence(n=5, c=2, rho=np.array([2, 1, 2, 1, 2]))
        assert oracle.partition_from_labels(cis.rho) == {frozenset({2, 4}),
                                                         frozenset({1, 3, 5})}
