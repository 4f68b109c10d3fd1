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
and family (exponential, guarded), and a reduced one that plays two
pebble games.  By the main theorem the uv-sparse edge sets are the
independent sets of a count matroid, so both conditions are counts: the
subsets' is (2,2)-sparsity without the pair edge, and the families' is
(2,2)-sparsity of one auxiliary multigraph (see is_uv_sparse).  Both
checkers build their witnesses through one function, each choosing the
sets it reports.  The other characterisation, delete-contract (G - uv
and G/uv both rigid), is the one routine delete_contract behind
is_uv_rigid_comb and the uv-rigid-comb command.  circuit_parts is the
one reader of the pebble game's circuits: the cover bound is the (2,2)
pebble rank with its parts and coloops as the cover, and globalrig's
redundancy verdicts read the same coloops.
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
    accepted: tuple[tuple[int, int], ...]
    reaches: tuple[frozenset[int], ...]  # reach set at every rejection, in order

    @property
    def rank(self) -> int:
        return len(self.accepted)

    @property
    def witness(self) -> frozenset[int] | None:
        """The reach set at the first rejection, or None if none was rejected."""
        return self.reaches[0] if self.reaches else None


def _pebble_edges(
    verts: Sequence[int], edges: Sequence[tuple[int, int]], k: int, l: int
) -> PebbleResult:
    """The pebble game on an edge list over verts, offered in list order.

    The list may repeat an edge: parallel copies are separate edges of
    a multigraph, as in the uv check's auxiliary graph.
    """
    accepted, reaches = _kernels.pebble_game(verts, edges, k, l)
    return PebbleResult(tuple(accepted), tuple(reaches))


def pebble_game(g: Graph, k: int = 2, l: int = 2) -> PebbleResult:
    """Run the (k, l)-pebble game, offering edges in sorted order.

    The rank is the size of a maximum (k, l)-sparse subset of E.  When
    an edge is rejected the reach set U of its endpoints satisfies
    i(U) > k|U| - l, which certifies non-sparsity.
    """
    if k < 1 or l < 0 or l >= 2 * k:
        raise SparsityError(f"unsupported pebble parameters ({k}, {l})")
    return _pebble_edges(g.vertices, g.sorted_edges(), k, l)


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


def circuit_parts(res: PebbleResult) -> tuple[list[frozenset[int]], list[tuple[int, int]]]:
    """The reach sets merged along shared vertices, and the coloops.

    A rejected edge's fundamental circuit is the edge plus the accepted
    edges its reach set induces.  Reach sets are tight in the accepted
    edges, and two tight sets that share a vertex have a tight union
    with no accepted edge between their differences, so the merged
    parts are disjoint and hold both ends of exactly the accepted edges
    in some circuit.  The others, the coloops, come back in game order.
    """
    parts: list[frozenset[int]] = []
    for r in res.reaches:
        if any(r <= y for y in parts):
            continue
        meet = [y for y in parts if y & r]
        parts = [y for y in parts if not y & r]
        parts.append(r.union(*meet))
    part_of = {x: i for i, y in enumerate(parts) for x in y}
    coloops = [(a, b) for a, b in res.accepted if a not in part_of or part_of[a] != part_of.get(b)]
    return parts, coloops


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


def _violation(g: Graph, kind: str, sets: Sequence[frozenset[int]] = ()) -> UvSparseVerdict:
    """The failed verdict whose kind witness reports sets (the pair for a pair edge).

    A pair edge is the subset {u, v}, which induces 1 edge against val 0.
    """
    u, v = g.require_pair()
    sets = (frozenset((u, v)),) if kind == "pair-edge" else tuple(sets)
    value = val_family(sets, u, v) if kind == "family" else val_set(sets[0], u, v)
    w = UvWitness(kind, sets, covered_edge_count(g, sets), value)
    return UvSparseVerdict(False, w)


def is_uv_sparse_bruteforce(g: Graph) -> UvSparseVerdict:
    """Check uv-sparsity straight from the definition.

    Every subset is scanned, and the family search covers all
    2**(2**(n-2) - 1) families of candidate sets, so the guard keeps
    n <= BRUTEFORCE_MAX_N.  A subset wins ties with a family.  A family
    witness is the smallest maximising family in candidate order
    (ascending masks over V - {u, v}).
    """
    u, v = g.require_pair()
    if g.n > BRUTEFORCE_MAX_N:
        raise SparsityError(f"brute force limited to {BRUTEFORCE_MAX_N} vertices")
    if g.has_edge(u, v):
        return _violation(g, "pair-edge")

    sub_def, sub_set = _subset_scan(g, u, v)
    parts, masks, terms = _candidate_arrays(g, u, v)
    fam_def, chosen = _kernels.family_best(masks, terms) if parts else (0, 0)

    if sub_def >= 1 and sub_def >= fam_def:
        return _violation(g, "subset", (sub_set,))
    if fam_def >= 1:
        fam = [frozenset(c) | {u, v} for i, c in enumerate(parts) if (chosen >> i) & 1]
        return _violation(g, "family", fam)
    return UvSparseVerdict(True, None)


def is_uv_sparse(g: Graph) -> UvSparseVerdict:
    """Reduced uv-sparsity check: two pebble games.

    Simple graphs make the subset conditions equivalent to plain
    (2,2)-sparsity plus the absence of the pair edge, which the first
    game settles.  For families, let T be the common neighbours of u
    and v.  Two family sets with at least 4 vertices merge without
    lowering covered - val, and a set {c, u, v} gains 1 when c is in T
    and nothing otherwise, so a violating family exists iff |T| >= 3 or
    some X containing u and v has i(X) + |T - X| >= 2|X| - 1.  That is
    a (2,2)-count on G' = G - {cu : c in T} plus |T| parallel copies of
    uv, which the second game settles.

    The subset witness is the first game's first reach set.  The family
    witness is the triples {c, u, v} of the three smallest common
    neighbours when |T| >= 3, and otherwise the first reach set R of
    the second game (it holds u and v) plus the triples with c outside R.
    """
    u, v = g.require_pair()
    if g.has_edge(u, v):
        return _violation(g, "pair-edge")

    res = pebble_game(g, 2, 2)
    if res.rank < g.m:
        return _violation(g, "subset", (res.witness,))

    common = sorted(set(g.neighbors(u)) & set(g.neighbors(v)))
    if len(common) >= 3:
        fam = tuple(frozenset((c, u, v)) for c in common[:3])
    else:
        dropped = {tuple(sorted((c, u))) for c in common}
        edges = sorted(
            [e for e in g.sorted_edges() if e not in dropped]
            + [tuple(sorted((u, v)))] * len(common)
        )
        reaches = _pebble_edges(g.vertices, edges, 2, 2).reaches
        if not reaches:
            return UvSparseVerdict(True, None)
        r = reaches[0]
        fam = (r,) + tuple(frozenset((c, u, v)) for c in common if c not in r)
    return _violation(g, "family", sorted(fam, key=sorted))


def is_uv_tight(g: Graph) -> bool:
    return g.m == 2 * g.n - 2 and is_uv_sparse(g).sparse


def delete_contract(g: Graph) -> tuple[bool, bool]:
    """Whether G - uv and G/uv are combinatorially rigid, in that order."""
    u, v = g.require_pair()
    minus = delete_edge(g, u, v) if g.has_edge(u, v) else g
    return is_rigid_comb(minus), is_rigid_comb(contract_pair(g))


def is_uv_rigid_comb(g: Graph) -> bool:
    """Delete-contract test: G - uv and G/uv both combinatorially rigid."""
    return all(delete_contract(g))


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
    sum(2|Y| - 2 - s(|Y|)) with s(2) = 1.  By the rank formula of the
    (2,2)-count matroid the least score is the pebble rank, and one
    (2,2) game gives a cover that attains it: circuit_parts' disjoint
    tight parts hold every edge in a circuit, and the coloops join the
    cover as pairs.
    """
    res = pebble_game(g, 2, 2)
    parts, coloops = circuit_parts(res)
    cover = tuple(sorted(parts, key=sorted)) + tuple(frozenset(e) for e in sorted(coloops))
    return CoverBound(res.rank, cover)
