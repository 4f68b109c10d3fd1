"""Counting rules, the pebble game, and the reduced coincident-pair checker.

The brute-force checker is the oracle here: the reduced checker must agree
with it on every small instance, and every negative verdict must ship a
witness whose counts actually violate the bound.
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from normrig.enumeration import enumerate_graphs, random_graph
from normrig.graph import Graph, delete_edge, zero_extension
from normrig.sparsity import (
    BRUTEFORCE_MAX_N,
    CoverBound,
    SparsityError,
    check_family,
    cover_rank_bound,
    covered_edge_count,
    is_kl_sparse,
    is_kl_tight,
    is_rigid_comb,
    is_uv_rigid_comb,
    is_uv_sparse,
    is_uv_sparse_bruteforce,
    is_uv_tight,
    pebble_game,
    pebble_rank,
    val_family,
    val_set,
)


def _induced_edges(g: Graph, U) -> int:
    U = set(U)
    return sum(1 for a, b in g.edges if a in U and b in U)


# ---------------------------------------------------------------- counting


def test_val_set_thresholds():
    # t = 4 for the pair itself, 3 for other sets of size 2..3, 2 beyond
    assert val_set({0, 1}, 0, 1) == 0
    assert val_set({0, 2}, 0, 1) == 1
    assert val_set({0, 1, 2}, 0, 1) == 3
    assert val_set({0, 1, 2, 3}, 0, 1) == 6
    assert val_set({0, 1, 2, 3, 4}, 0, 1) == 8


def test_val_family_overlap_discount():
    assert val_family([{0, 1, 2}, {0, 1, 3}, {0, 1, 4}], 0, 1) == 5
    assert val_family([{0, 1, 2, 3, 4}], 0, 1) == 8
    assert val_family([{0, 1, 2, 3}, {0, 1, 4, 5}], 0, 1) == 10


def test_check_family_rejects_bad_input():
    with pytest.raises(SparsityError):
        check_family([], 0, 1)
    with pytest.raises(SparsityError):
        check_family([{0, 1, 2}, {0, 1, 2}], 0, 1)
    with pytest.raises(SparsityError):
        check_family([{0, 2, 3}], 0, 1)  # missing v
    with pytest.raises(SparsityError):
        check_family([{0, 1}], 0, 1)  # no third vertex


def test_covered_edge_count(k23):
    fam = [{0, 1, 2}, {0, 1, 3}, {0, 1, 4}]
    assert covered_edge_count(k23, fam) == 6
    assert covered_edge_count(k23, [{0, 1, 2}]) == 2
    # an edge inside two sets is still one edge
    assert covered_edge_count(k23, [{0, 2, 3}, {0, 2, 4}]) == 3


# ---------------------------------------------------------------- pebble game


def _count_matroid_rank(g: Graph, k: int = 2, l: int = 2) -> int:
    """Exponential-time rank of an edge set in the (k,l)-count matroid."""

    def independent(edge_subset) -> bool:
        verts = sorted({v for e in edge_subset for v in e})
        for r in range(2, len(verts) + 1):
            for U in itertools.combinations(verts, r):
                s = set(U)
                if sum(1 for a, b in edge_subset if a in s and b in s) > k * r - l:
                    return False
        return True

    best = 0
    edges = list(g.edges)
    for r in range(len(edges), best, -1):
        if any(independent(c) for c in itertools.combinations(edges, r)):
            return r
    return best


@pytest.mark.parametrize("kl", [(2, 2), (2, 3)])
def test_pebble_rank_matches_bruteforce(kl):
    k, l = kl
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(3, 6)))
        res = pebble_game(g, k, l)
        assert res.rank == _count_matroid_rank(g, k, l)
        assert len(res.accepted) == res.rank


def test_pebble_accepted_is_independent_basis():
    g = Graph.complete(5)
    res = pebble_game(g)
    sub = Graph.from_edges(g.vertices, res.accepted)
    assert is_kl_sparse(sub)
    assert len(res.accepted) == 8 == res.rank


def test_pebble_witness_violates_count():
    res = pebble_game(Graph.complete(5))
    assert res.witness == frozenset(range(5))
    g = Graph.complete(5)
    assert _induced_edges(g, res.witness) > 2 * len(res.witness) - 2

    rng = np.random.default_rng(11)
    for _ in range(40):
        g = random_graph(rng, int(rng.integers(4, 7)))
        res = pebble_game(g)
        if res.witness is not None:
            U = res.witness
            assert _induced_edges(g, U) > 2 * len(U) - 2


def test_kl_sparse_tight_pinned():
    assert is_kl_tight(Graph.complete(4))
    assert not is_kl_sparse(Graph.complete(4), 2, 3)
    tri = Graph.complete(3)
    assert is_kl_sparse(tri) and not is_kl_tight(tri)
    assert not is_kl_sparse(Graph.complete(5))


def test_rigid_comb_pinned(two_k4):
    assert is_rigid_comb(Graph.complete(4))
    assert is_rigid_comb(two_k4)  # two K4 blocks sharing a vertex span the count
    assert not is_rigid_comb(Graph.from_edges(range(3), [(0, 1), (1, 2)]))
    assert not is_rigid_comb(Graph.complete(2))
    assert is_rigid_comb(Graph.from_edges([0], []))
    assert pebble_rank(Graph.complete(4)) == 6


def test_rigid_comb_on_200_vertex_chain(two_k4):
    # 0-extensions keep the uv-tight two-K4 graph (2,2)-tight at any size
    g = two_k4
    for z in range(7, 200):
        g = zero_extension(g, z - 1, z - 7, z)
    assert g.n == 200 and g.m == 2 * g.n - 2
    assert is_rigid_comb(g)
    assert is_uv_rigid_comb(g)
    res = pebble_game(g)
    assert res.rank == g.m and res.witness is None
    assert not is_rigid_comb(delete_edge(g, 198, 199))


# ------------------------------------------------------- coincident checker


def test_uv_sparse_requires_pair():
    from normrig.graph import GraphError

    with pytest.raises(GraphError):
        is_uv_sparse(Graph.complete(4))


def test_k23_family_witness(k23):
    verdict = is_uv_sparse(k23)
    assert not verdict.sparse
    w = verdict.witness
    assert w.kind == "family"
    assert set(w.sets) == {frozenset({0, 1, 2}), frozenset({0, 1, 3}), frozenset({0, 1, 4})}
    assert (w.covered, w.value) == (6, 5)


def test_pair_edge_witness():
    verdict = is_uv_sparse(Graph.complete(4, pair=(0, 1)))
    assert not verdict.sparse
    assert verdict.witness.kind == "pair-edge"


def test_k4_minus_uv_sparse_but_short(k4_minus_uv, two_k4):
    assert is_uv_sparse(k4_minus_uv).sparse
    assert not is_uv_tight(k4_minus_uv)  # 5 edges, one short of 2n-2
    assert is_uv_tight(two_k4)


def test_reduced_matches_bruteforce_small():
    # exhaustive cross-check on one representative per isomorphism class
    for n in range(2, 6):
        for g in enumerate_graphs(n, pair=True):
            a = is_uv_sparse(g)
            b = is_uv_sparse_bruteforce(g)
            assert a.sparse == b.sparse, g.edges


def _check_witness(g: Graph, verdict) -> str:
    """Recompute a negative verdict's counts from the graph; return its kind."""
    w = verdict.witness
    u, v = g.designated_pair
    if w.kind == "pair-edge":
        assert g.has_edge(u, v)
    elif w.kind == "subset":
        (U,) = w.sets
        assert w.covered == _induced_edges(g, U)
        assert w.covered > w.value == val_set(U, u, v)
    else:
        assert w.kind == "family"
        assert w.covered == covered_edge_count(g, w.sets)
        assert w.covered > w.value == val_family(w.sets, u, v)
    return w.kind


def test_bruteforce_on_seven_vertices():
    # n = 7 gives 31 candidate sets, past every exhaustive test above;
    # dropping the pair edge makes every graph reach the family search
    rng = np.random.default_rng(77)
    kinds = []
    for _ in range(120):
        g = random_graph(rng, 7, pair=True)
        if g.has_edge(0, 1):
            g = delete_edge(g, 0, 1)
        brute, reduced = is_uv_sparse_bruteforce(g), is_uv_sparse(g)
        assert brute.sparse == reduced.sparse, g.edges
        if not brute.sparse:
            kinds.append(_check_witness(g, brute))
    assert "family" in kinds and "subset" in kinds


def test_bruteforce_size_guard():
    g = random_graph(np.random.default_rng(1), BRUTEFORCE_MAX_N + 1, pair=True)
    with pytest.raises(SparsityError, match="brute force limited to 7 vertices"):
        is_uv_sparse_bruteforce(g)


def test_negative_witnesses_check_out():
    rng = np.random.default_rng(23)
    seen_kinds = set()
    for _ in range(120):
        g = random_graph(rng, int(rng.integers(3, 7)), pair=True)
        verdict = is_uv_sparse(g)
        if verdict.sparse:
            assert verdict.witness is None
            continue
        seen_kinds.add(_check_witness(g, verdict))
    assert "family" in seen_kinds or "subset" in seen_kinds


def test_uv_rigid_comb_pinned(two_k4, k23, k4_minus_uv):
    assert is_uv_rigid_comb(two_k4)
    assert not is_uv_rigid_comb(k23)
    assert not is_uv_rigid_comb(k4_minus_uv)  # independent but too few edges


# ---------------------------------------------------------------- cover bound


def test_cover_bound_pinned():
    assert cover_rank_bound(Graph.complete(4)).value == 6
    assert cover_rank_bound(Graph.complete(5)).value == 8
    tri2 = Graph.from_edges(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert cover_rank_bound(tri2).value == 6


def test_cover_is_valid():
    rng = np.random.default_rng(5)
    for _ in range(30):
        g = random_graph(rng, int(rng.integers(2, 6)))
        bound: CoverBound = cover_rank_bound(g)
        for a, b in g.edges:
            assert any(a in Y and b in Y for Y in bound.cover)
        total = sum(min(_induced_edges(g, Y), 2 * len(Y) - 2) for Y in bound.cover)
        assert bound.value == total
