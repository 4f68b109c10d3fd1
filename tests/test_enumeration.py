"""Graph enumeration up to isomorphism, the batched canonizer against a
permutation oracle and a per-permutation loop, the bulk mask decode,
random instances."""
from __future__ import annotations

from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normrig import _kernels
from normrig._kernels import canonize_batch
from normrig.enumeration import (
    _class_masks,
    _edge_sets,
    _perm_bitmaps,
    edge_slots,
    enumerate_graphs,
    random_graph,
)
from normrig.graph import Graph, GraphError


def mask_of(g):
    """Edge bitmask of a graph on 0..n-1 over the slots edge_slots(n)."""
    slot = {e: i for i, e in enumerate(edge_slots(g.n))}
    return sum(1 << slot[e] for e in g.edges)


def perm_canonical(g, respect_pair=True):
    """Oracle canonical form, no kernel involved: the smallest mask_of over
    every relabelling onto 0..n-1 from itertools.permutations, keeping only
    those that send a respected designated pair onto {0, 1}."""
    pair = g.designated_pair if respect_pair else None
    forms = []
    for image in permutations(range(g.n)):
        sigma = dict(zip(g.vertices, image))
        if pair is None or {sigma[pair[0]], sigma[pair[1]]} == {0, 1}:
            h = Graph.from_edges(image, ((sigma[a], sigma[b]) for a, b in g.edges))
            forms.append(mask_of(h))
    return min(forms)


def canonize(graphs, pair):
    """The kernel's canonical forms of graphs on 0..n-1, in one batch."""
    masks = np.array([mask_of(g) for g in graphs], dtype=np.int64)
    return [int(x) for x in canonize_batch(masks, _perm_bitmaps(graphs[0].n, pair))]

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


@pytest.mark.parametrize("n,pair,message", [
    (0, False, "enumeration needs at least one vertex"),
    (1, True, "designated pair needs two vertices"),
])
def test_enumeration_too_small(n, pair, message):
    with pytest.raises(GraphError) as e:
        enumerate_graphs(n, pair=pair)
    assert str(e.value) == message


def loop_canonize(masks, bitmaps):
    """Reference canonizer: one int64 matvec per permutation, with a
    running elementwise minimum."""
    nbits = bitmaps.shape[1]
    bits = (masks[:, None] >> np.arange(nbits, dtype=np.int64)[None, :]) & np.int64(1)
    weights = np.int64(1) << bitmaps
    best = masks.copy()
    for row in weights:
        np.minimum(best, bits @ row, out=best)
    return best


@pytest.mark.parametrize("pair", [False, True])
def test_canonize_batch_equals_loop_on_class_batches(pair, monkeypatch):
    batches = []
    real = _kernels.canonize_batch

    def spy(masks, bitmaps):
        batches.append((masks.copy(), bitmaps))
        return real(masks, bitmaps)

    monkeypatch.setattr(_kernels, "canonize_batch", spy)
    _class_masks(7, pair)
    assert [b.shape[1] for _, b in batches] == [3, 6, 10, 15, 21]  # n = 3..7
    for masks, bitmaps in batches:
        assert np.array_equal(real(masks, bitmaps), loop_canonize(masks, bitmaps))


@pytest.mark.parametrize("size", [0, 1, 255, 256, 257, 513])
def test_canonize_batch_equals_loop_across_tile_edges(size):
    rng = np.random.default_rng(size)
    masks = rng.integers(0, 1 << 15, size=size, dtype=np.int64)
    for pair in (False, True):  # 720 and 48 relabellings
        bitmaps = _perm_bitmaps(6, pair)
        got = canonize_batch(masks, bitmaps)
        assert got.dtype == np.int64 and got.shape == (size,)
        assert np.array_equal(got, loop_canonize(masks, bitmaps))


def test_canonize_batch_exact_at_52_bits():
    # 300 random bit permutations (not a multiple of the 256 tile) of
    # masks spanning all 52 bits: the float64 products stay exact.
    rng = np.random.default_rng(52)
    bitmaps = np.array([rng.permutation(52) for _ in range(300)], dtype=np.int64)
    masks = rng.integers(0, 1 << 52, size=600, dtype=np.int64)
    assert np.array_equal(canonize_batch(masks, bitmaps), loop_canonize(masks, bitmaps))


def test_canonize_batch_refuses_53_bits():
    with pytest.raises(ValueError, match="53-bit masks"):
        canonize_batch(np.array([1], dtype=np.int64), np.zeros((1, 53), dtype=np.int64))


def loop_perm_bitmaps(n, fix_pair):
    """Oracle: the relabelling table filled one permutation and slot at a time."""
    slots = edge_slots(n)
    slot = {e: i for i, e in enumerate(slots)}
    perms = [s for s in permutations(range(n)) if not fix_pair or {*s[:2]} == {0, 1}]
    out = np.empty((len(perms), len(slots)), dtype=np.int64)
    for p, sigma in enumerate(perms):
        for b, (i, j) in enumerate(slots):
            a, c = sigma[i], sigma[j]
            out[p, b] = slot[(a, c) if a < c else (c, a)]
    return out


@pytest.mark.parametrize("n", range(8))
@pytest.mark.parametrize("fix_pair", [False, True])
def test_perm_bitmaps_equal_loop(n, fix_pair):
    got = _perm_bitmaps(n, fix_pair)
    assert got.dtype == np.int64
    assert np.array_equal(got, loop_perm_bitmaps(n, fix_pair))


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
    reps = [Graph.from_edges(range(n), e, (0, 1) if pair else None) for e in _edge_sets(n, oracle)]
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
    forms = [perm_canonical(g) for g in gs]
    assert len(set(forms)) == len(gs) == PAIR_COUNTS[4]
    # each representative is the oracle's canonical form of its class
    for pair in (False, True):
        for g in enumerate_graphs(5, pair=pair):
            assert mask_of(g) == perm_canonical(g)


def test_enumerate_rejects_large_exhaustive():
    with pytest.raises(ValueError):
        enumerate_graphs(9)


def test_mask_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        g = random_graph(rng, n, pair=bool(rng.integers(2)))
        (edges,) = _edge_sets(n, np.array([mask_of(g)]))
        assert Graph.from_edges(range(n), edges, g.designated_pair) == g


def test_direct_construction_equals_from_edges():
    # enumerate_graphs builds each Graph without from_edges' checks; a
    # per-bit decode through from_edges gives the same graphs.
    for n in range(1, 8):
        slots = edge_slots(n)
        for pair in (False, True) if n > 1 else (False,):
            marked = (0, 1) if pair else None
            expected = [
                Graph.from_edges(range(n), [e for b, e in enumerate(slots) if int(x) >> b & 1], marked)
                for x in _class_masks(n, pair)
            ]
            for c in (None, True, False):
                assert enumerate_graphs(n, connected=c, pair=pair) == [
                    g for g in expected if c is None or g.is_connected() == c
                ]


def test_edge_slots_order():
    assert edge_slots(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


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
    assert canonize([g, h], pair=True) == [perm_canonical(g)] * 2
    assert canonize([g, h], pair=False) == [perm_canonical(g, respect_pair=False)] * 2


def test_pair_respect_distinguishes():
    # path 0-2-1 vs path 2-0-1: isomorphic as graphs, not pair-preservingly
    g = Graph.from_edges(range(3), [(0, 2), (1, 2)], pair=(0, 1))
    h = Graph.from_edges(range(3), [(0, 2), (0, 1)], pair=(0, 1))
    plain = canonize([g, h], pair=False)
    assert plain[0] == plain[1] == perm_canonical(g, respect_pair=False)
    fixed = canonize([g, h], pair=True)
    assert fixed[0] != fixed[1]
    assert fixed == [perm_canonical(g), perm_canonical(h)]


def test_is_isomorphic_negative():
    k4_minus = Graph.from_edges(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    k4, k4e = canonize([Graph.complete(4), k4_minus], pair=False)
    assert k4 != k4e
    assert (k4, k4e) == (perm_canonical(Graph.complete(4)), perm_canonical(k4_minus))


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
