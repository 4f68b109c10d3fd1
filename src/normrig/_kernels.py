"""Low-level combinatorial kernels.

Each kernel has one adapter, which turns a graph into its input:
pebble_game is called only by sparsity._pebble_edges (the edge-list
adapter behind sparsity.pebble_game and the uv check), canonize_batch
only by enumeration._class_masks, and family_best only by
sparsity.is_uv_sparse_bruteforce.  The pebble game works on vertex
labels and keeps the orientation as adjacency lists, so its cost
follows the edges it searches and not n**2.  The canonizer is
vectorised over numpy arrays of edge bitmasks.  The family search is a
branch and bound over Python-int bitmasks; its cost follows the
families it cannot rule out, not the 2**c families there are.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# pebble game
# ---------------------------------------------------------------------------


def pebble_game(verts, edges, k, l):
    """(k, l)-pebble game on a multigraph over the vertex labels verts.

    Pebbles and out-lists are keyed by label.  The edges, label pairs,
    are offered in list order; an edge may repeat, and each copy is
    offered as an edge of its own.  Returns ``(accepted, reaches)``: the
    accepted edges in order, and for each rejected edge in order the
    reach set (of labels) of its endpoints at its rejection, the first
    one being the non-sparsity witness.  The reach set U of a rejection
    always induces more than k|U| - l edges.

    The result does not depend on the order in which searches scan
    out-neighbours: the accepted edges are those that greedy insertion
    into the (k, l)-count matroid keeps, and the reach set is the
    smallest vertex set through both endpoints that spans exactly
    k|U| - l accepted edges, which is unique.  U's accepted edges and
    the rejected edge form its fundamental circuit: they break the count
    on U, and any circuit through the rejected edge spans a tight set
    through both endpoints, which contains U.
    """
    pebbles = dict.fromkeys(verts, k)
    out = {x: [] for x in verts}  # out[x]: heads of the edges x -> y
    accepted = []
    reaches = []

    def fetch(root, a, b, parent):
        """Pull one pebble onto root along a reversed path.  The search
        may pass through the other endpoint but never takes its pebbles,
        and skips the vertices already in parent (found pebble-free); on
        failure parent holds every vertex it reached."""
        parent[root] = root
        stack = [root]
        while stack:
            x = stack.pop()
            for y in out[x]:
                if y in parent:
                    continue
                parent[y] = x
                if pebbles[y] and y != a and y != b:
                    cur = y
                    while cur != root:
                        prev = parent[cur]
                        out[prev].remove(cur)
                        out[cur].append(prev)
                        cur = prev
                    pebbles[y] -= 1
                    pebbles[root] += 1
                    return True
                stack.append(y)
        return False

    for a, b in edges:
        while pebbles[a] + pebbles[b] <= l:
            seen = {}
            if not (fetch(a, a, b, seen) or fetch(b, a, b, seen)):
                break
        if pebbles[a] + pebbles[b] > l:
            accepted.append((a, b))
            if pebbles[a]:
                pebbles[a] -= 1
                out[a].append(b)
            else:
                pebbles[b] -= 1
                out[b].append(a)
            continue
        # Rejected: the edge is dependent and stays out, but later edges
        # are still offered.  Both failed searches together visited the
        # reach set of {a, b}: it is closed under out-edges and every
        # vertex in it except a, b has zero pebbles, so with the
        # rejected edge it induces more than k|U| - l edges.
        reaches.append(frozenset(seen))

    return accepted, reaches


# ---------------------------------------------------------------------------
# canonical forms for edge-set bitmasks
# ---------------------------------------------------------------------------


def canonize_batch(masks, bitmaps):
    """Minimum relabelling of each edge bitmask.

    ``bitmaps[p, b]`` gives the image of edge-bit ``b`` under the p-th
    vertex permutation.  The canonical form of a mask is the smallest
    integer over all permutations; it is itself the edge mask of a
    relabelled copy of the graph.  Expanding every mask into bits, each
    permutation becomes one integer matvec; a running elementwise
    minimum keeps memory at O(masks * bits).
    """
    nperm, nbits = bitmaps.shape
    bits = (masks[:, None] >> np.arange(nbits, dtype=np.int64)[None, :]) & np.int64(1)
    weights = np.int64(1) << bitmaps  # [perm, bit] -> place value after relabel
    best = masks.copy()
    for p in range(nperm):
        np.minimum(best, bits @ weights[p], out=best)
    return best


# ---------------------------------------------------------------------------
# family search
# ---------------------------------------------------------------------------


def family_best(edge_masks, val_terms):
    """Best nonempty family of candidate vertex sets, by branch and bound.

    ``edge_masks[i]`` is the bitmask of graph edges induced by the i-th
    candidate set, ``val_terms[i]`` its value contribution.  A family S
    scores popcount(union of masks) - 2 - sum(terms); the maximum and
    the smallest maximising subset (as a candidate bitmask) come back.

    Each search node is a family whose lowest candidate is i; its
    children add one more candidate j < i, in increasing j.  Every
    family is met once, in increasing mask order, so the first strict
    maximum is the smallest maximising mask.  A subtree is cut when its
    ceiling (each candidate below i adds its fresh edges minus its term,
    where that is positive) does not exceed the best score: anything it
    could only tie has a larger mask.
    """
    cands = [(int(m), int(t)) for m, t in zip(edge_masks, val_terms)]
    best, best_mask = -(1 << 60), 0

    def rec(i, union, tsum, chosen):
        nonlocal best, best_mask
        score = union.bit_count() - 2 - tsum
        if chosen and score > best:
            best, best_mask = score, chosen
        ceiling = score if chosen else -2
        for m, t in cands[:i]:
            extra = (m & ~union).bit_count() - t
            if extra > 0:
                ceiling += extra
        if ceiling <= best:
            return
        for j in range(i):
            m, t = cands[j]
            rec(j, union | m, tsum + t, chosen | 1 << j)

    rec(len(cands), 0, 0, 0)
    return best, best_mask
