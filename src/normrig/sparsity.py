"""Counting characterisations: (k, l)-sparsity, uv-sparsity, cover bounds.

The plain theory: a graph is minimally rigid in a non-Euclidean normed
plane iff it is (2,2)-tight, and the (2,2)-sparse edge sets form a
matroid whose rank a pebble game computes.

The coincident theory replaces plain counts with val():

    val(U)  = 2|U| - t_U,   t_U = 4 if U = {u,v},
                            t_U = 3 if U != {u,v} and |U| in {2,3},
                            t_U = 2 otherwise,

and, for families X_1..X_k of vertex sets each containing u, v with
|X_i| >= 3 (uv-compatible families),

    val(X)  = sum val(X_i) - 2(k - 1).

G is uv-sparse when i(U) <= val(U) for every |U| >= 2 and the covered
edge count of every uv-compatible family stays within its val.  Two
checkers are provided: a brute-force one that enumerates every subset
and family (exponential, guarded), and a reduced one that combines a
pebble game with a disjoint-packing search over connected pieces of
G - u - v.  The reduction is exact: merging two family sets whose
parts outside {u, v} meet, and splitting a part into its connected
components, never lowers a family's deficiency, so some maximiser has
pairwise-disjoint connected parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import _kernels
from .graph import Graph, contract_pair, delete_edge, induced_edge_count


# Largest graph the brute-force uv-sparsity checker accepts.
BRUTEFORCE_MAX_N = 7


class SparsityError(ValueError):
    """Invalid counting query."""


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------


def val_set(U: Iterable[int], u: int, v: int) -> int:
    s = frozenset(U)
    if not s:
        raise SparsityError("val is undefined for the empty set")
    if u == v:
        raise SparsityError("u and v must be distinct")
    if len(s) == 2 and u in s and v in s:
        t = 4
    elif len(s) in (2, 3):
        t = 3
    else:
        t = 2
    return 2 * len(s) - t


def check_family(sets: Sequence[Iterable[int]], u: int, v: int) -> tuple[frozenset, ...]:
    fam = tuple(frozenset(x) for x in sets)
    if not fam:
        raise SparsityError("family must be nonempty")
    if len(set(fam)) != len(fam):
        raise SparsityError("family sets must be distinct")
    for x in fam:
        if u not in x or v not in x or len(x) < 3:
            raise SparsityError(
                "family sets must contain both designated vertices and a third vertex"
            )
    return fam


def val_family(sets: Sequence[Iterable[int]], u: int, v: int) -> int:
    fam = check_family(sets, u, v)
    return sum(val_set(x, u, v) for x in fam) - 2 * (len(fam) - 1)


def covered_edge_count(g: Graph, sets: Sequence[Iterable[int]]) -> int:
    """Edges of g induced by at least one of the sets."""
    covered = set()
    for x in sets:
        s = set(x)
        covered |= {e for e in g.edges if e[0] in s and e[1] in s}
    return len(covered)


# ---------------------------------------------------------------------------
# pebble game
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PebbleResult:
    k: int
    l: int
    rank: int
    accepted: tuple[tuple[int, int], ...]
    witness: frozenset[int] | None  # reach set at the first rejection


def pebble_game(g: Graph, k: int = 2, l: int = 2) -> PebbleResult:
    """Run the (k, l)-pebble game, offering edges in sorted order.

    The rank is the size of a maximum (k, l)-sparse subset of E.  When
    an edge is rejected the reach set U of its endpoints satisfies
    i(U) > k|U| - l, which certifies non-sparsity.
    """
    if k < 1 or l < 0 or l >= 2 * k:
        raise SparsityError(f"unsupported pebble parameters ({k}, {l})")
    verts = g.vertices
    index = {x: i for i, x in enumerate(verts)}
    edges = g.sorted_edges()
    eu = [index[a] for a, b in edges]
    ev = [index[b] for a, b in edges]
    rank, accepted, reaches = _kernels.pebble_game(g.n, eu, ev, k, l)
    witness = frozenset(verts[i] for i in reaches[0]) if reaches else None
    return PebbleResult(
        k,
        l,
        rank,
        tuple(e for e, a in zip(edges, accepted) if a),
        witness,
    )


def pebble_rank(g: Graph, k: int = 2, l: int = 2) -> int:
    return pebble_game(g, k, l).rank


def is_kl_sparse(g: Graph, k: int = 2, l: int = 2) -> bool:
    return pebble_game(g, k, l).rank == g.m


def is_kl_tight(g: Graph, k: int = 2, l: int = 2) -> bool:
    return g.m == k * g.n - l and is_kl_sparse(g, k, l)


def is_rigid_comb(g: Graph) -> bool:
    """Combinatorial rigidity: the (2,2)-matroid rank reaches 2|V| - 2.

    Graphs on at most one vertex are rigid by convention.
    """
    if g.n < 1:
        raise SparsityError("rigidity needs at least one vertex")
    if g.n == 1:
        return True
    return pebble_rank(g, 2, 2) == 2 * g.n - 2


# ---------------------------------------------------------------------------
# uv-sparsity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UvWitness:
    """A violated count: covered > value for the reported sets."""

    kind: str  # "pair-edge", "subset" or "family"
    sets: tuple[frozenset[int], ...]
    covered: int
    value: int


@dataclass(frozen=True)
class UvSparseVerdict:
    sparse: bool
    witness: UvWitness | None


def _subset_scan(g: Graph, u: int, v: int) -> tuple[int, frozenset[int] | None]:
    """Max deficiency i(U) - val(U) over all |U| >= 2, brute force."""
    verts = g.vertices
    best, best_set = 0, None
    for mask in range(1, 1 << g.n):
        if mask & (mask - 1) == 0:
            continue  # singletons
        s = frozenset(verts[i] for i in range(g.n) if (mask >> i) & 1)
        d = induced_edge_count(g, s) - val_set(s, u, v)
        if d > best:
            best, best_set = d, s
    return best, best_set


def _candidate_arrays(g: Graph, u: int, v: int):
    """All candidate family sets {u, v} + C, C nonempty in V - {u, v}.

    Returns (candidate parts as vertex tuples, induced-edge bitmask per
    candidate, val term per candidate) in ascending part-mask order.
    """
    others = [x for x in g.vertices if x not in (u, v)]
    edges = g.sorted_edges()
    parts, masks, terms = [], [], []
    for cmask in range(1, 1 << len(others)):
        c = [others[i] for i in range(len(others)) if (cmask >> i) & 1]
        x = set(c) | {u, v}
        emask = 0
        for j, (a, b) in enumerate(edges):
            if a in x and b in x:
                emask |= 1 << j
        parts.append(tuple(c))
        masks.append(emask)
        terms.append(val_set(x, u, v) - 2)
    return parts, masks, terms


def is_uv_sparse_bruteforce(g: Graph) -> UvSparseVerdict:
    """Check uv-sparsity straight from the definition.

    Every subset is scanned, and the family search covers all
    2**(2**(n-2) - 1) families of candidate sets, so the guard keeps
    n <= BRUTEFORCE_MAX_N.  A family witness is the smallest maximising
    family in candidate order (ascending masks over V - {u, v}).
    """
    u, v = g.require_pair()
    if g.n > BRUTEFORCE_MAX_N:
        raise SparsityError(f"brute force limited to {BRUTEFORCE_MAX_N} vertices")
    if g.has_edge(u, v):
        w = UvWitness("pair-edge", (frozenset((u, v)),), 1, 0)
        return UvSparseVerdict(False, w)

    sub_def, sub_set = _subset_scan(g, u, v)

    parts, masks, terms = _candidate_arrays(g, u, v)
    fam_def, fam_sets = 0, None
    if parts:
        best, chosen = _kernels.family_best(masks, terms)
        if best > fam_def:
            fam_def = best
            fam_sets = tuple(
                frozenset(parts[i]) | {u, v}
                for i in range(len(parts))
                if (chosen >> i) & 1
            )

    if sub_def >= 1 and sub_def >= fam_def:
        w = UvWitness(
            "subset",
            (sub_set,),
            induced_edge_count(g, sub_set),
            val_set(sub_set, u, v),
        )
        return UvSparseVerdict(False, w)
    if fam_def >= 1:
        w = UvWitness(
            "family",
            fam_sets,
            covered_edge_count(g, fam_sets),
            val_family(fam_sets, u, v),
        )
        return UvSparseVerdict(False, w)
    return UvSparseVerdict(True, None)


def _connected_subsets(g: Graph, verts: Sequence[int]) -> list[frozenset[int]]:
    """Connected (in g) induced subsets of verts, deterministically ordered."""
    vs = sorted(verts)
    idx = {x: i for i, x in enumerate(vs)}
    adj = {
        x: [y for y in g.neighbors(x) if y in idx] for x in vs
    }
    out: list[frozenset[int]] = []

    # Standard rooted growth: subsets whose minimum element is the root,
    # extended only by neighbors, never reusing forbidden vertices.
    def grow(current: set[int], frontier: list[int], banned: set[int]):
        out.append(frozenset(current))
        for i, x in enumerate(frontier):
            new_banned = banned | set(frontier[:i])
            nxt = [
                y
                for y in adj[x]
                if y not in current and y not in new_banned
            ]
            grow(current | {x}, sorted(set(frontier[i + 1 :]) | set(nxt)), new_banned)
        return

    for r in vs:
        nbrs = [y for y in adj[r] if y > r]
        grow({r}, sorted(nbrs), {y for y in vs if y < r})
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def _max_disjoint_packing(
    cands: list[tuple[frozenset[int], int]]
) -> tuple[int, tuple[frozenset[int], ...]]:
    """Max total weight over pairwise-disjoint candidate sets."""
    best = 0
    best_sets: tuple[frozenset[int], ...] = ()
    suffix = [0] * (len(cands) + 1)
    for i in range(len(cands) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + cands[i][1]

    def rec(idx: int, used: frozenset[int], total: int, chosen: list[frozenset[int]]):
        nonlocal best, best_sets
        if total > best:
            best, best_sets = total, tuple(chosen)
        if idx == len(cands) or total + suffix[idx] <= best:
            return
        s, w = cands[idx]
        if not (s & used):
            chosen.append(s)
            rec(idx + 1, used | s, total + w, chosen)
            chosen.pop()
        rec(idx + 1, used, total, chosen)

    rec(0, frozenset(), 0, [])
    return best, best_sets


def is_uv_sparse(g: Graph) -> UvSparseVerdict:
    """Reduced uv-sparsity check.

    Simple graphs make the subset conditions equivalent to plain
    (2,2)-sparsity plus the absence of the pair edge, which the pebble
    game settles.  For families, some maximiser of covered - val has
    parts that are pairwise disjoint and connected inside G - u - v, so
    a weighted disjoint-packing search over connected subsets is exact:
    writing gain(C) = i({u,v} + C) - val({u,v} + C) + 2, a violating
    family exists iff some packing has total gain >= 3.
    """
    u, v = g.require_pair()
    if g.has_edge(u, v):
        w = UvWitness("pair-edge", (frozenset((u, v)),), 1, 0)
        return UvSparseVerdict(False, w)

    res = pebble_game(g, 2, 2)
    if res.rank < g.m:
        s = res.witness
        w = UvWitness("subset", (s,), induced_edge_count(g, s), val_set(s, u, v))
        return UvSparseVerdict(False, w)

    others = [x for x in g.vertices if x not in (u, v)]
    cands: list[tuple[frozenset[int], int]] = []
    for c in _connected_subsets(g, others):
        x = c | {u, v}
        gain = induced_edge_count(g, x) - (val_set(x, u, v) - 2)
        if gain > 0:
            cands.append((c, gain))
    total, parts = _max_disjoint_packing(cands)
    if total >= 3:
        fam = tuple(sorted((p | {u, v} for p in parts), key=lambda s: sorted(s)))
        w = UvWitness(
            "family", fam, covered_edge_count(g, fam), val_family(fam, u, v)
        )
        return UvSparseVerdict(False, w)
    return UvSparseVerdict(True, None)


def is_uv_tight(g: Graph) -> bool:
    return g.m == 2 * g.n - 2 and is_uv_sparse(g).sparse


def is_uv_rigid_comb(g: Graph) -> bool:
    """Delete-contract test: G - uv and G/uv both combinatorially rigid."""
    u, v = g.require_pair()
    minus = delete_edge(g, u, v) if g.has_edge(u, v) else g
    return is_rigid_comb(minus) and is_rigid_comb(contract_pair(g))


# ---------------------------------------------------------------------------
# cover bound on the generic rank
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverBound:
    value: int
    cover: tuple[frozenset[int], ...]


def cover_rank_bound(g: Graph) -> CoverBound:
    """Tightest rank bound over restricted covers of the edge set.

    A cover is a family of vertex sets (size >= 2) whose induced
    subgraphs together contain every edge; it scores
    sum(2|Y| - 2 - s(|Y|)) with s(2) = 1.  Restricting to covers whose
    larger sets are pairwise disjoint loses nothing, so the minimum is
    |E| minus the best disjoint packing of sets Y with
    i(Y) > 2|Y| - 2 weighted by that excess.  Connected sets suffice
    (splitting into components never lowers the excess sum), and sets
    of size <= 3 are never profitable in simple graphs.
    """
    cands: list[tuple[frozenset[int], int]] = []
    for c in _connected_subsets(g, g.vertices):
        if len(c) < 4:
            continue
        excess = induced_edge_count(g, c) - (2 * len(c) - 2)
        if excess > 0:
            cands.append((c, excess))
    saved, bigs = _max_disjoint_packing(cands)
    covered = set()
    for y in bigs:
        covered |= {e for e in g.edges if e[0] in y and e[1] in y}
    cover = tuple(sorted(bigs, key=lambda s: sorted(s))) + tuple(
        frozenset(e) for e in sorted(g.edges - covered)
    )
    return CoverBound(g.m - saved, cover)
