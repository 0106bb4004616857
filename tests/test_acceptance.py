"""Acceptance suite: one test per criterion, printing one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and count is pinned here.
"""

import time
from math import gcd

import numpy as np
import pytest

from toeplitz_fnf import (
    FirstRow,
    OffsetSet,
    alpha_reduce,
    beta_reduce,
    compute_fnf,
    reachability_divisor,
    reduce,
    row_from_offsets,
)
from toeplitz_fnf import oracle
from toeplitz_fnf.cli import run_bench, verify_row
from toeplitz_fnf.reduction import ALPHA, BETA

from conftest import (random_alpha_instance, random_beta_instance, random_instance,
                      sweep_instances)

GOLDEN_OFFSETS = [12, 18, 24, 29]
GOLDEN_PARTITION = {
    frozenset({3, 9, 15, 21, 27}),
    frozenset({4, 10, 16, 22, 28}),
    frozenset({5, 11, 17, 23, 29}),
    frozenset({1, 2, 6, 7, 8, 12, 13, 14, 18, 19, 20, 24, 25, 26, 30, 31}),
}
SMALL_BLOCK_ROW = [0.0, 0.0, 1.0, 1.0, 1.0]
# Forced by the partition above: the large component has 16 vertices, and its
# relabelled first row carries ones exactly at offsets 6, 9, 12, 14.
BIG_BLOCK_OFFSETS = [6, 9, 12, 14]


def _line(num, name, ok):
    print(f"acceptance {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_criterion_1_golden_decomposition():
    res = compute_fnf(row_from_offsets(31, GOLDEN_OFFSETS))
    ok = res.component_count == 4
    ok = ok and oracle.partition_from_labels(res.cis.rho) == GOLDEN_PARTITION
    sizes = [b.size for b in res.blocks]
    ok = ok and sizes == [16, 5, 5, 5]
    ok = ok and all(b.first_row.tolist() == SMALL_BLOCK_ROW for b in res.blocks[1:])
    ok = ok and res.blocks[0].offsets.tolist() == BIG_BLOCK_OFFSETS

    row = row_from_offsets(31, GOLDEN_OFFSETS)
    best = float("inf")
    for _ in range(50):
        t0 = time.perf_counter()
        compute_fnf(row)
        best = min(best, time.perf_counter() - t0)
    ok = ok and best < 1e-3
    _line(1, f"golden 31-vertex decomposition, best {best * 1e6:.0f}us", ok)


def test_criterion_2_weighted_seven_vertex_row():
    row = FirstRow([0, 0, 3, 0, 8, 0, 9])
    res = compute_fnf(row)
    got = {tuple(b.vertices.tolist()): b.first_row.tolist() for b in res.blocks}
    ok = got == {(1, 3, 5, 7): [0, 3, 8, 9], (2, 4, 6): [0, 3, 8]}
    dense = oracle.dense_matrix(row.entries)
    perm = res.permutation - 1
    direct = oracle.block_diagonal(b.first_row for b in res.blocks)
    ok = ok and np.array_equal(dense[np.ix_(perm, perm)], direct)
    _line(2, "weighted 7-vertex row splits into exact blocks", ok)


def test_criterion_3_oracle_equivalence_sweep():
    start = time.perf_counter()
    partition_fail = reconstruction_fail = 0
    for n, offsets in sweep_instances():
        row = row_from_offsets(n, offsets)
        res = compute_fnf(row)
        labels = oracle.toeplitz_component_labels(n, offsets)
        if oracle.partition_from_labels(res.cis.rho) != oracle.partition_from_labels(labels):
            partition_fail += 1
        dense = oracle.dense_matrix(row.entries)
        perm = res.permutation - 1
        direct = oracle.block_diagonal(b.first_row for b in res.blocks)
        if not np.array_equal(dense[np.ix_(perm, perm)], direct):
            reconstruction_fail += 1
    elapsed = time.perf_counter() - start
    ok = partition_fail == 0 and reconstruction_fail == 0 and elapsed < 60.0
    _line(3, f"10000-instance oracle sweep in {elapsed:.1f}s", ok)


def test_criterion_4_reduction_property_suites():
    rng = np.random.default_rng(77)

    iso_fail = 0
    for _ in range(1000):
        n, offsets = random_alpha_instance(rng)
        n2, s2, m = alpha_reduce(n, offsets)
        s0 = int(offsets[0])
        g = oracle.build_graph(n, offsets)
        h = oracle.build_graph(n2, s2)
        band = set(range(n - s0 + 1, s0 + 1))
        mapped = set()
        bad = len(band) != m
        for u, v in g.edges:
            if u in band or v in band:
                bad = True
                break
            a = u if u <= n - s0 else u - m
            b = v if v <= n - s0 else v - m
            mapped.add((min(a, b), max(a, b)))
        if bad or mapped != set(h.edges):
            iso_fail += 1

    fold_fail = 0
    for _ in range(1000):
        n, offsets = random_beta_instance(rng)
        d = reachability_divisor(n, offsets)
        n2, s2, d_fold = beta_reduce(n, offsets)
        g = oracle.build_graph(n, offsets)
        h = oracle.build_graph(n2, s2)
        if d_fold != d or oracle.contract(g, d) != oracle.contract(h, d):
            fold_fail += 1
        elif len(oracle.components_oracle(g)) != len(oracle.components_oracle(h)):
            fold_fail += 1

    reach_fail = 0
    for _ in range(1000):
        n, offsets = random_instance(rng, n_lo=2, n_hi=128)
        if offsets.size == 0:
            continue
        g = oracle.build_graph(n, offsets)
        if not all(oracle.is_d_reachable(g, int(s)) for s in offsets):
            reach_fail += 1
    for _ in range(300):
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
        dsu = oracle.DisjointSet(n)
        for u, v in edges:
            dsu.union(u - 1, v - 1)
        for step in (s, t):
            for v in range(1, n - step + 1):
                if not dsu.connected(v - 1, v + step - 1):
                    edges.add((v, v + step))
                    dsu.union(v - 1, v + step - 1)
        g = oracle.ExplicitGraph(n=n, edges=frozenset(edges))
        if not oracle.is_d_reachable(g, gcd(s, t)):
            reach_fail += 1

    cycle_fail = 0
    for n in range(3, 65):
        for s in range(1, n):
            if 2 * s == n:
                continue
            if not oracle.cycle_structure_check(n, s):
                cycle_fail += 1

    ok = iso_fail == 0 and fold_fail == 0 and reach_fail == 0 and cycle_fail == 0
    _line(4, "reduction/reachability/cycle property suites", ok)


def test_criterion_5_structural_invariants_across_sweep():
    bad = 0
    for n, offsets in sweep_instances():
        trace, c = reduce(OffsetSet(n, offsets))
        if c != sum(s.c for s in trace.steps) + trace.n_final:
            bad += 1
            continue
        orders = [s.n_before for s in trace.steps] + [trace.n_final]
        if trace.steps and orders[0] != n:
            bad += 1
            continue
        for a, b in zip(trace.steps, trace.steps[1:]):
            if a.n_after != b.n_before:
                bad += 1
                break
            if a.kind == ALPHA and b.kind == ALPHA:
                bad += 1
                break
        else:
            if any(s.kind == BETA and 3 * s.n_after >= 2 * s.n_before
                   for s in trace.steps):
                bad += 1
    _line(5, "trace invariants over the full sweep", bad == 0)


def test_criterion_6_nesting_at_desk_scale():
    rng = np.random.default_rng(88)
    checked = attempts = 0
    failures = 0
    while checked < 200 and attempts < 4000:
        attempts += 1
        n, offsets = random_instance(rng, n_lo=1, n_hi=24, k_max=8)
        res = compute_fnf(row_from_offsets(n, offsets))
        if max(b.size for b in res.blocks) > 12:
            continue
        checked += 1
        for first, second in zip(res.blocks, res.blocks[1:]):
            if oracle.is_principal_submatrix(first.first_row, second.first_row,
                                             cap=12) is not True:
                failures += 1

    res = compute_fnf(row_from_offsets(31, GOLDEN_OFFSETS))
    big, small = res.blocks[0], res.blocks[1]
    witness_ok = oracle.witness_embeds(big.first_row, small.first_row, [0, 3, 6, 9, 12])
    for first, second in zip(res.blocks[1:], res.blocks[2:]):
        if oracle.is_principal_submatrix(first.first_row, second.first_row,
                                         cap=12) is not True:
            failures += 1

    ok = checked == 200 and failures == 0 and witness_ok
    _line(6, f"principal-submatrix nesting on {checked} small instances + witness", ok)


def test_criterion_7_linear_scaling():
    report = run_bench([10**5, 10**6, 10**7], policy="uniform", seed=1234, reps=3)
    medians = {r.n: r.median for r in report.rows}
    ok = report.slope is not None and 0.8 <= report.slope <= 1.3
    ok = ok and medians[10**7] < 2.0
    _line(7, f"slope {report.slope:.2f}, 1e7 median {medians[10**7] * 1e3:.0f}ms", ok)


def test_criterion_8_degenerate_inputs():
    cases = {
        "order one": FirstRow([7.0]),
        "all zero": FirstRow([0.0] * 31),
        "only farthest offset": row_from_offsets(40, [39]),
        "every offset": row_from_offsets(40, range(1, 40)),
    }
    ok = True
    for name, row in cases.items():
        res = compute_fnf(row)
        ok = ok and sum(b.size for b in res.blocks) == row.n
        ok = ok and verify_row(row).passed
    zero = compute_fnf(FirstRow([0.0] * 31))
    ok = ok and zero.component_count == 31
    lone = compute_fnf(row_from_offsets(40, [39]))
    ok = ok and lone.component_count == 39
    full = compute_fnf(row_from_offsets(40, range(1, 40)))
    ok = ok and full.component_count == 1
    _line(8, "degenerate inputs verify cleanly", ok)
