"""Exhaustive small-graph streams and random instances.

Graphs on n vertices are encoded as edge bitmasks over the C(n, 2)
vertex-pair slots in lexicographic order.  Isomorphism deduplication
takes the minimum mask over all vertex permutations (optionally only
permutations preserving the designated pair {0, 1} setwise), which is
itself the edge mask of a relabelled copy, so every canonical form is
a concrete representative.  Classes on n vertices extend those on
n - 1: relabel a vertex of largest degree not in the designated pair
to n - 1 and delete it, and what is left is a relabelled representative.
So only representatives plus a vertex n - 1 of largest degree outside
the pair are canonized.  Exhaustive enumeration stops at
EXHAUSTIVE_MAX_N = 7 vertices; beyond that, use random sampling.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from . import _kernels
from .graph import Graph, GraphError

# n = 8 would canonize 29755 plain candidates (2690 at n = 7) under 40320 relabellings.
EXHAUSTIVE_MAX_N = 7


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


def check_exhaustive(n: int) -> None:
    """Raise GraphError when n is past the exhaustive enumeration cap."""
    if n > EXHAUSTIVE_MAX_N:
        raise GraphError(f"exhaustive enumeration capped at {EXHAUSTIVE_MAX_N} vertices")


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
    check_exhaustive(n)
    if pair and n < 2:
        raise GraphError("designated pair needs two vertices")
    out = []
    for mask in _class_masks(n, pair):
        g = mask_to_graph(n, int(mask), (0, 1) if pair else None)
        if connected is None or g.is_connected() == connected:
            out.append(g)
    return out


def _class_masks(n: int, pair: bool) -> np.ndarray:
    """Sorted canonical masks of the n-vertex classes, by vertex extension."""
    if n <= 2:  # every mask is its own class
        return np.arange(1 << (n * (n - 1) // 2), dtype=np.int64)
    m = n - 1
    slot = {e: i for i, e in enumerate(edge_slots(n))}
    old = np.array([1 << slot[e] for e in edge_slots(m)], dtype=np.int64)
    new = np.array([1 << slot[(x, m)] for x in range(m)], dtype=np.int64)
    incidence = np.array([[x in e for x in range(m)] for e in edge_slots(m)])
    reps = (_class_masks(m, pair)[:, None] >> np.arange(len(old))) & 1
    nbhds = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    lo = 2 if pair else 0
    degree = (reps @ incidence)[:, None, lo:] + nbhds[None, :, lo:]
    keep = nbhds.sum(axis=1) >= degree.max(axis=2, initial=0)
    cands = ((reps @ old)[:, None] | (nbhds @ new)[None, :])[keep]
    return np.unique(_kernels.canonize_batch(cands, _perm_bitmaps(n, pair)))


def random_graph(rng: np.random.Generator, n: int, pair: bool = False) -> Graph:
    """Uniform random graph; edge count drawn near 2n - 2 half the time.

    Rigidity questions are only interesting close to the 2|V| - 2
    threshold, so half the draws concentrate there and the rest use the
    full range.
    """
    slots = edge_slots(n)
    cap = len(slots)
    if cap and rng.random() < 0.5:
        m = int(rng.integers(max(0, 2 * n - 5), min(cap, 2 * n + 2) + 1))
    else:
        m = int(rng.integers(0, cap + 1))
    chosen = rng.choice(cap, size=m, replace=False) if m else []
    return Graph.from_edges(
        range(n), [slots[i] for i in chosen], (0, 1) if pair else None
    )
