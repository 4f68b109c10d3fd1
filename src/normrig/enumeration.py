"""Exhaustive small-graph streams and random instances.

Graphs on n vertices are encoded as edge bitmasks over the C(n, 2)
vertex-pair slots in lexicographic order.  enumerate_graphs keeps one
representative per isomorphism class: the minimum mask over all vertex
permutations (only those preserving the designated pair {0, 1}
setwise, when there is one), which is itself the edge mask of a
relabelled copy.  Classes on n vertices extend those on n - 1: relabel
a vertex of largest degree not in the designated pair to n - 1 and
delete it, and what is left is a relabelled representative.  So only
representatives plus a vertex n - 1 of largest degree outside the pair
are canonized, in one batch per n, and decoded in one numpy pass; slot
edges are normalised, distinct and in range, so each Graph is built
directly, without from_edges' checks.  Exhaustive enumeration stops at
EXHAUSTIVE_MAX_N = 7 vertices; beyond that, use random sampling.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, compress, permutations

import numpy as np

from . import _kernels
from .graph import Graph, GraphError

# n = 8 would canonize 29755 plain candidates (2690 at n = 7) under 40320 relabellings.
EXHAUSTIVE_MAX_N = 7


@lru_cache(maxsize=32)
def edge_slots(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs of range(n) in row-major order, built once per n."""
    return tuple(combinations(range(n), 2))


def _edge_sets(n: int, masks: np.ndarray) -> list[frozenset[tuple[int, int]]]:
    """The edge set of each mask over edge_slots(n), decoded in one numpy pass."""
    slots = edge_slots(n)
    rows = ((masks[:, None] >> np.arange(len(slots))) & 1).astype(bool).tolist()
    return [frozenset(compress(slots, row)) for row in rows]


@lru_cache(maxsize=32)
def _perm_bitmaps(n: int, fix_pair: bool) -> np.ndarray:
    """bitmaps[p, b]: image of edge slot b under the p-th permutation, read
    from the (n, n) table of slot indices at the permuted slot ends."""
    ends = np.array(edge_slots(n), dtype=np.intp).reshape(-1, 2)
    slot = np.zeros((n, n), dtype=np.int64)
    slot[ends[:, 0], ends[:, 1]] = slot[ends[:, 1], ends[:, 0]] = np.arange(len(ends))
    perms = [s for s in permutations(range(n)) if not fix_pair or {*s[:2]} == {0, 1}]
    perms = np.array(perms, dtype=np.intp).reshape(len(perms), n)
    return slot[perms[:, ends[:, 0]], perms[:, ends[:, 1]]]


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
    verts, marked = tuple(range(n)), (0, 1) if pair else None
    graphs = (Graph(verts, edges, marked) for edges in _edge_sets(n, _class_masks(n, pair)))
    return [g for g in graphs if connected is None or g.is_connected() == connected]


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
    # the draw picks distinct slots, and slots are normalised edges, so no
    # from_edges checks
    g = Graph(tuple(range(n)), frozenset(slots[i] for i in chosen))
    return g.with_pair(0, 1) if pair else g
