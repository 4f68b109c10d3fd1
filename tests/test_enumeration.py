"""Graph enumeration up to isomorphism, canonical masks, random instances."""
from __future__ import annotations

from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normrig._kernels import canonize_batch
from normrig.enumeration import (
    _class_masks,
    _perm_bitmaps,
    canonical_mask,
    edge_slots,
    enumerate_graphs,
    graph_to_mask,
    is_isomorphic,
    mask_to_graph,
    random_graph,
)
from normrig.graph import Graph, GraphError

# unlabelled simple graphs on n vertices (OEIS A000088), connected A001349
PLAIN_COUNTS = {2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
CONNECTED_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
# with a marked pair {0,1}: classes under pair-preserving relabelling,
# validated for n <= 4 by exhaustive pairwise isomorphism checks and
# for every n by test_class_counts_match_burnside
PAIR_COUNTS = {2: 2, 3: 6, 4: 28, 5: 148, 6: 1144}
PAIR_CONNECTED_COUNTS = {2: 1, 3: 3, 4: 16, 5: 98, 6: 879}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_class_counts(n):
    assert len(enumerate_graphs(n)) == PLAIN_COUNTS[n]
    assert len(enumerate_graphs(n, connected=True)) == CONNECTED_COUNTS[n]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pair_class_counts(n):
    assert len(enumerate_graphs(n, pair=True)) == PAIR_COUNTS[n]
    assert len(enumerate_graphs(n, connected=True, pair=True)) == PAIR_CONNECTED_COUNTS[n]


def test_enumeration_size_cap():
    with pytest.raises(GraphError, match="capped at 7 vertices"):
        enumerate_graphs(8)


def full_mask_classes(n, pair):
    """Oracle: canonize every one of the 2**C(n, 2) edge masks."""
    masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.int64)
    return np.unique(canonize_batch(masks, _perm_bitmaps(n, pair)))


@pytest.mark.parametrize(
    "n,pair", [(n, p) for n in range(1, 7) for p in (False, True) if n > p]
)
def test_extension_equals_full_mask_oracle(n, pair):
    oracle = full_mask_classes(n, pair)
    assert np.array_equal(_class_masks(n, pair), oracle)
    reps = [mask_to_graph(n, int(x), (0, 1) if pair else None) for x in oracle]
    for c in (None, True, False):
        assert enumerate_graphs(n, connected=c, pair=pair) == [
            g for g in reps if c is None or g.is_connected() == c
        ]


def burnside_count(n, pair):
    """Classes = mean over the relabelling group of 2**(cycles on edge slots)."""
    slots = list(combinations(range(n), 2))
    total = group = 0
    for sigma in permutations(range(n)):
        if pair and {sigma[0], sigma[1]} != {0, 1}:
            continue
        image = {(i, j): tuple(sorted((sigma[i], sigma[j]))) for i, j in slots}
        seen, cycles = set(), 0
        for e in slots:
            if e not in seen:
                cycles += 1
                while e not in seen:
                    seen.add(e)
                    e = image[e]
        total += 1 << cycles
        group += 1
    return total // group


def test_class_counts_match_burnside(pair_classes_7):
    for n in range(2, 7):
        assert burnside_count(n, False) == PLAIN_COUNTS[n]
        assert burnside_count(n, True) == PAIR_COUNTS[n]
    assert len(pair_classes_7) == burnside_count(7, True) == 13128
    assert len(enumerate_graphs(7)) == burnside_count(7, False) == 1044


def test_pair_classes_distinct_small():
    gs = enumerate_graphs(4, pair=True)
    assert all(g.designated_pair == (0, 1) for g in gs)
    for i, g in enumerate(gs):
        for h in gs[i + 1 :]:
            assert not is_isomorphic(g, h)


def test_enumerate_rejects_large_exhaustive():
    with pytest.raises(ValueError):
        enumerate_graphs(9)


def test_mask_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        g = random_graph(rng, n, pair=bool(rng.integers(2)))
        back = mask_to_graph(n, graph_to_mask(g), pair=g.designated_pair)
        assert back == g


def test_edge_slots_order():
    assert edge_slots(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_canonical_mask_is_relabelling_invariant(data):
    n = data.draw(st.integers(3, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    g = random_graph(rng, n, pair=True)
    u, v = g.designated_pair
    # random relabelling fixing {u, v} setwise
    others = [x for x in g.vertices if x not in (u, v)]
    perm = list(rng.permutation(others))
    swap = bool(rng.integers(2))
    mapping = {u: v if swap else u, v: u if swap else v}
    mapping.update(dict(zip(others, perm)))
    h = g.relabel(mapping)
    assert canonical_mask(g) == canonical_mask(h)
    assert is_isomorphic(g, h)


def test_pair_respect_distinguishes():
    # path 0-2-1 vs path 2-0-1: isomorphic as graphs, not pair-preservingly
    g = Graph.from_edges(range(3), [(0, 2), (1, 2)], pair=(0, 1))
    h = Graph.from_edges(range(3), [(0, 2), (0, 1)], pair=(0, 1))
    assert is_isomorphic(g, h, respect_pair=False)
    assert not is_isomorphic(g, h)
    assert canonical_mask(g, respect_pair=False) == canonical_mask(h, respect_pair=False)
    assert canonical_mask(g) != canonical_mask(h)


def test_is_isomorphic_negative():
    assert not is_isomorphic(Graph.complete(4), Graph.complete(3))
    k4_minus = Graph.from_edges(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert not is_isomorphic(Graph.complete(4), k4_minus)


def test_random_graph_shape():
    rng = np.random.default_rng(9)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n, pair=True)
        assert g.n == n and g.vertices == tuple(range(n))
        assert g.designated_pair == (0, 1)


def test_random_graph_near_tight_bias():
    # Half the draws take 2n - 5 <= m <= 2n + 2 = [11, 18] at n = 8, so the
    # share there is about 0.5 + 0.5 * 8/29 = 0.64; uniform m alone gives 0.28.
    rng = np.random.default_rng(1)
    ms = np.array([random_graph(rng, 8).m for _ in range(400)])
    assert np.mean((11 <= ms) & (ms <= 18)) > 0.5
