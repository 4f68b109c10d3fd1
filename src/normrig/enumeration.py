"""Exhaustive small-graph streams and random instances.

Graphs on n vertices are encoded as edge bitmasks over the C(n, 2)
vertex-pair slots in lexicographic order.  Isomorphism deduplication
takes the minimum mask over all vertex permutations (optionally only
permutations preserving the designated pair {0, 1} setwise), which is
itself the edge mask of a relabelled copy, so every canonical form is
a concrete representative.  Exhaustive enumeration stops at
EXHAUSTIVE_MAX_N = 6 vertices; beyond that, use random sampling.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from . import _kernels
from .graph import Graph, GraphError

# 2**15 edge masks times 720 relabellings; n = 7 would be 2**21 * 5040.
EXHAUSTIVE_MAX_N = 6


def edge_slots(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def graph_to_mask(g: Graph) -> int:
    """Edge bitmask of a graph labelled 0..n-1."""
    if g.vertices != tuple(range(g.n)):
        raise GraphError("mask encoding needs vertices labelled 0..n-1")
    slot = {e: i for i, e in enumerate(edge_slots(g.n))}
    mask = 0
    for e in g.edges:
        mask |= 1 << slot[e]
    return mask


def mask_to_graph(n: int, mask: int, pair: tuple[int, int] | None = None) -> Graph:
    slots = edge_slots(n)
    edges = [slots[b] for b in range(len(slots)) if (mask >> b) & 1]
    return Graph.from_edges(range(n), edges, pair)


@lru_cache(maxsize=32)
def _perm_bitmaps(n: int, fix_pair: bool) -> np.ndarray:
    """bitmaps[p, b]: image of edge slot b under the p-th permutation."""
    slots = edge_slots(n)
    slot = {e: i for i, e in enumerate(slots)}
    perms = [
        sigma
        for sigma in permutations(range(n))
        if not fix_pair or {sigma[0], sigma[1]} == {0, 1}
    ]
    out = np.empty((len(perms), len(slots)), dtype=np.int64)
    for p, sigma in enumerate(perms):
        for b, (i, j) in enumerate(slots):
            a, c = sigma[i], sigma[j]
            out[p, b] = slot[(a, c) if a < c else (c, a)]
    return out


def canonical_mask(g: Graph, respect_pair: bool = True) -> int:
    """Isomorphism-invariant integer code (pair-aware when present).

    The designated pair, when respected, is pinned to labels {0, 1}.
    """
    pair = g.designated_pair if respect_pair else None
    if pair is not None:
        u, v = pair
        rest = [x for x in g.vertices if x not in (u, v)]
        relab = {u: 0, v: 1, **{x: i + 2 for i, x in enumerate(sorted(rest))}}
        gc = g.relabel(relab)
    else:
        gc = g.canonical_labels()
    masks = np.array([graph_to_mask(gc)], dtype=np.int64)
    bitmaps = _perm_bitmaps(gc.n, pair is not None)
    return int(_kernels.canonize_batch(masks, bitmaps)[0])


def is_isomorphic(g: Graph, h: Graph, respect_pair: bool = True) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    if respect_pair and (g.designated_pair is None) != (h.designated_pair is None):
        return False
    return canonical_mask(g, respect_pair) == canonical_mask(h, respect_pair)


def enumerate_graphs(
    n: int,
    connected: bool | None = None,
    pair: bool = False,
) -> list[Graph]:
    """All graphs on n vertices up to isomorphism (one representative each).

    With pair=True the designated pair is (0, 1) and only relabellings
    preserving {0, 1} are factored out.  Connectivity, an isomorphism
    invariant, can be filtered on the representatives.
    """
    if n < 1:
        raise GraphError("enumeration needs at least one vertex")
    if n > EXHAUSTIVE_MAX_N:
        raise GraphError(f"exhaustive enumeration capped at {EXHAUSTIVE_MAX_N} vertices")
    if pair and n < 2:
        raise GraphError("designated pair needs two vertices")
    nbits = n * (n - 1) // 2
    masks = np.arange(1 << nbits, dtype=np.int64)
    canon = _kernels.canonize_batch(masks, _perm_bitmaps(n, pair))
    reps = np.unique(canon)
    out = []
    for mask in reps:
        g = mask_to_graph(n, int(mask), (0, 1) if pair else None)
        if connected is None or g.is_connected() == connected:
            out.append(g)
    return out


def random_graph(
    rng: np.random.Generator,
    n: int,
    pair: bool = False,
    m: int | None = None,
    near_tight_bias: float = 0.5,
) -> Graph:
    """Uniform random graph; edge count drawn near 2n - 2 half the time.

    Rigidity questions are only interesting close to the 2|V| - 2
    threshold, so by default half the draws concentrate there and the
    rest use the full range.
    """
    slots = edge_slots(n)
    cap = len(slots)
    if m is None:
        if cap and rng.random() < near_tight_bias:
            lo = max(0, 2 * n - 5)
            hi = min(cap, 2 * n + 2)
            m = int(rng.integers(lo, hi + 1))
        else:
            m = int(rng.integers(0, cap + 1))
    if not 0 <= m <= cap:
        raise GraphError(f"edge count {m} out of range")
    chosen = rng.choice(cap, size=m, replace=False) if m else []
    return Graph.from_edges(
        range(n), [slots[i] for i in chosen], (0, 1) if pair else None
    )
