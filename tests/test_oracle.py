from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toeplitz_fnf.oracle import toeplitz_component_labels

from reference import (
    DisjointSet,
    ExplicitGraph,
    QuotientGraph,
    block_diagonal,
    build_graph,
    canonical_partition,
    components_bfs,
    components_oracle,
    contract,
    cycle_structure_check,
    dense_matrix,
    is_d_reachable,
    is_principal_submatrix,
    nesting_check,
    partition_from_labels,
    union_find_labels,
    witness_embeds,
)
from conftest import random_instance


class TestBuildGraph:
    def test_edge_count_seven_vertices(self):
        g = build_graph(7, [2, 4, 6])
        assert len(g.edges) == 9

    def test_no_offsets_no_edges(self):
        assert len(build_graph(4, []).edges) == 0

    def test_single_far_pair(self):
        g = build_graph(5, [4])
        assert set(g.edges) == {(1, 5)}

    def test_edge_count_formula(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            n, offsets = random_instance(rng, n_hi=64)
            g = build_graph(n, offsets)
            assert len(g.edges) == sum(n - int(s) for s in offsets)

    def test_offset_out_of_range(self):
        with pytest.raises(ValueError):
            build_graph(5, [5])


class TestComponents:
    def test_seven_vertex_split(self):
        parts = components_oracle(build_graph(7, [2, 4, 6]))
        assert parts == [[1, 3, 5, 7], [2, 4, 6]]

    def test_golden_31(self):
        parts = canonical_partition(components_oracle(build_graph(31, [12, 18, 24, 29])))
        assert frozenset({3, 9, 15, 21, 27}) in parts
        assert frozenset({1, 2, 6, 7, 8, 12, 13, 14, 18, 19, 20, 24, 25, 26, 30, 31}) in parts
        assert len(parts) == 4

    def test_edgeless_singletons(self):
        assert components_oracle(build_graph(4, [])) == [[1], [2], [3], [4]]

    def test_bfs_agrees_with_union_find(self):
        rng = np.random.default_rng(72)
        for _ in range(200):
            n, offsets = random_instance(rng, n_hi=96)
            g = build_graph(n, offsets)
            assert components_oracle(g) == components_bfs(g)

    def test_label_oracle_agrees(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            n, offsets = random_instance(rng, n_hi=96)
            g = build_graph(n, offsets)
            assert canonical_partition(components_oracle(g)) == \
                partition_from_labels(union_find_labels(n, offsets))


def _assert_hooked_labels_match(n, offsets):
    """``toeplitz_component_labels`` must give the union-find's canonical labels."""
    got = toeplitz_component_labels(n, offsets).tolist()
    want = union_find_labels(n, offsets)
    if got != want:
        i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        pytest.fail(f"n={n} offsets={list(offsets)[:8]}: labels differ from vertex {i + 1}: "
                    f"{got[i:i + 6]} != {want[i:i + 6]}")


class TestHookAndJumpLabels:
    def test_random_instances(self):
        rng = np.random.default_rng(76)
        for _ in range(300):
            _assert_hooked_labels_match(*random_instance(rng, n_hi=96))

    @pytest.mark.parametrize("n, offsets", [
        (1, []),
        (31, []),
        (50, [1]),
        (50, [2, 3]),
        (3000, [999, 1001]),
        (40, [39]),
        (31, [12, 18, 24, 29]),
    ], ids=["order-one", "all-zero", "path", "2-3", "999-1001", "n-1", "golden-31"])
    def test_named_cases(self, n, offsets):
        _assert_hooked_labels_match(n, offsets)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 3000), quarter=st.sampled_from((0, 2, 3)),
           picks=st.lists(st.integers(0, 2 ** 31), max_size=8))
    def test_rows_up_to_order_3000(self, n, quarter, picks):
        # offsets anywhere, in the upper half or in the top quarter (c close
        # to n); no picks is the all-zero row
        lo = 1 + quarter * (n - 1) // 4
        offsets = sorted({lo + p % (n - lo) for p in picks}) if n > lo else []
        _assert_hooked_labels_match(n, offsets)


class TestDisjointSet:
    def test_basic_merging(self):
        dsu = DisjointSet(5)
        assert dsu.union(0, 1)
        assert not dsu.union(1, 0)
        assert dsu.connected(0, 1)
        assert not dsu.connected(0, 2)
        assert dsu.groups() == [[0, 1], [2], [3], [4]]


class TestReachability:
    def test_every_offset_is_reachable_step(self):
        rng = np.random.default_rng(74)
        for _ in range(200):
            n, offsets = random_instance(rng, n_lo=2, n_hi=96)
            g = build_graph(n, offsets)
            for s in offsets:
                assert is_d_reachable(g, int(s))

    def test_golden_31_step_six(self):
        assert is_d_reachable(build_graph(31, [12, 18, 24, 29]), 6)

    def test_edgeless_never_reachable(self):
        g = build_graph(5, [])
        for d in (1, 2, 3, 4):
            assert not is_d_reachable(g, d)

    def test_step_bounds(self):
        g = build_graph(5, [1])
        with pytest.raises(ValueError):
            is_d_reachable(g, 0)
        with pytest.raises(ValueError):
            is_d_reachable(g, 5)

    def test_gcd_of_two_reachable_steps_is_reachable(self):
        # random graphs made s- and t-reachable by repair, not direct edges
        rng = np.random.default_rng(75)
        for _ in range(200):
            n = int(rng.integers(4, 64))
            s = int(rng.integers(1, n // 2 + 1))
            t = int(rng.integers(1, n - s + 1))
            if s == t:
                continue
            edges = set()
            for _ in range(int(rng.integers(0, 2 * n))):
                u = int(rng.integers(1, n))
                v = int(rng.integers(u + 1, n + 1))
                edges.add((u, v))
            dsu = DisjointSet(n)
            for u, v in edges:
                dsu.union(u - 1, v - 1)
            for step in (s, t):
                for v in range(1, n - step + 1):
                    if not dsu.connected(v - 1, v + step - 1):
                        edges.add((v, v + step))
                        dsu.union(v - 1, v + step - 1)
            g = ExplicitGraph(n=n, edges=frozenset(edges))
            assert is_d_reachable(g, s) and is_d_reachable(g, t)
            assert is_d_reachable(g, gcd(s, t))


class TestContract:
    def test_seven_vertices_mod_four(self):
        q = contract(build_graph(7, [2, 4, 6]), 4)
        assert q == QuotientGraph(d=4, edges=frozenset({(1, 3), (2, 4)}))

    def test_mod_one_single_class(self):
        q = contract(build_graph(6, [1, 3]), 1)
        assert q.d == 1
        assert q.edges == frozenset()

    def test_edgeless_quotient(self):
        q = contract(build_graph(6, []), 3)
        assert q.edges == frozenset()

    def test_reachable_contraction_preserves_connectivity(self):
        rng = np.random.default_rng(76)
        from toeplitz_fnf import reachability_divisor
        for _ in range(150):
            n = int(rng.integers(2, 96))
            s0 = int(rng.integers(1, n // 2 + 1))
            extra = rng.choice(np.arange(s0, n), size=min(3, n - s0), replace=False)
            offsets = np.unique(np.append(extra, s0))
            d = reachability_divisor(n, offsets)
            g = build_graph(n, offsets)
            q = contract(g, d)
            # same number of components on both sides of the quotient
            qdsu = DisjointSet(d)
            for a, b in q.edges:
                qdsu.union(a - 1, b - 1)
            assert len(components_oracle(g)) == len(qdsu.groups())
            # and connectivity transfers pairwise through residue classes
            gdsu = DisjointSet(n)
            for u, v in g.edges:
                gdsu.union(u - 1, v - 1)
            for u in range(1, min(n, 12) + 1):
                for v in range(1, min(n, 12) + 1):
                    cu = u % d if u % d else d
                    cv = v % d if v % d else d
                    assert gdsu.connected(u - 1, v - 1) == qdsu.connected(cu - 1, cv - 1)


class TestCycleStructure:
    @pytest.mark.parametrize("n,s", [(7, 2), (6, 2), (8, 2)])
    def test_known_cases(self, n, s):
        assert cycle_structure_check(n, s)

    def test_sweep_small_orders(self):
        for n in range(3, 33):
            for s in range(1, n):
                if 2 * s == n:
                    continue
                assert cycle_structure_check(n, s)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            cycle_structure_check(6, 3)
        with pytest.raises(ValueError):
            cycle_structure_check(6, 0)


class TestNesting:
    def test_identical_blocks(self):
        assert nesting_check([[0, 0, 1, 1, 1], [0, 0, 1, 1, 1]]) is True

    def test_single_block_vacuous(self):
        assert nesting_check([[0, 1, 0, 1]]) is True

    def test_cap_exceeded_is_not_false(self):
        big = [0.0] * 16
        assert nesting_check([big, [0.0, 1.0]], cap=12) is None

    def test_genuine_failure(self):
        assert nesting_check([[0, 1, 1], [7, 7]]) is False

    def test_witness_on_golden_big_block(self):
        big = np.zeros(16)
        big[[6, 9, 12, 14]] = 1.0
        small = np.array([0, 0, 1, 1, 1], dtype=float)
        assert witness_embeds(big, small, [0, 3, 6, 9, 12])
        assert not witness_embeds(big, small, [0, 1, 2, 3, 4])

    def test_search_agrees_with_witness(self):
        outer = np.array([0, 0, 1, 0, 1, 1], dtype=float)
        inner = np.array([0, 1, 1], dtype=float)
        verdict = is_principal_submatrix(outer, inner, cap=12)
        assert verdict is True

    def test_inner_larger_than_outer(self):
        assert is_principal_submatrix([0, 1], [0, 1, 1]) is False


class TestDenseHelpers:
    def test_dense_matrix_matches_entry_rule(self):
        entries = np.array([1.0, 0.0, 2.0, 3.0])
        m = dense_matrix(entries)
        for i in range(4):
            for j in range(4):
                assert m[i, j] == entries[abs(i - j)]

    def test_block_diagonal_layout(self):
        out = block_diagonal([[1.0, 2.0], [5.0]])
        assert out.tolist() == [[1, 2, 0], [2, 1, 0], [0, 0, 5]]
