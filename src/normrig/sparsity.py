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
edge count of every uv-compatible family stays within its val.  By the
main theorem these edge sets form a count matroid, and (2,2) pebble
games on G - uv and G/uv settle it: is_uv_sparse, delete_contract (the
one routine behind is_uv_rigid_comb and uv-rigid-comb) and the counting
uv-rank uv_rank_comb.  is_uv_sparse_bruteforce checks the definition on
small graphs.  circuit_parts is the one reader of the pebble game's
circuits: the cover bound and globalrig's redundancy verdicts read its
parts and coloops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import _kernels
from .graph import Graph, contract_pair, delete_edge


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


def pebble_game(g: Graph, k: int = 2, l: int = 2) -> PebbleResult:
    """The (k, l)-pebble game on g's sorted edges, the kernel's one caller.

    The rank is the size of a maximum (k, l)-sparse subset of E.  When
    an edge is rejected the reach set U of its endpoints satisfies
    i(U) > k|U| - l, which certifies non-sparsity.
    """
    if k < 1 or l < 0 or l >= 2 * k:
        raise SparsityError(f"unsupported pebble parameters ({k}, {l})")
    accepted, reaches = _kernels.pebble_game(g.vertices, g.sorted_edges(), k, l)
    return PebbleResult(tuple(accepted), tuple(reaches))


def pebble_rank(g: Graph, k: int = 2, l: int = 2) -> int:
    return pebble_game(g, k, l).rank


def is_kl_sparse(g: Graph, k: int = 2, l: int = 2) -> bool:
    return pebble_game(g, k, l).rank == g.m


def is_kl_tight(g: Graph, k: int = 2, l: int = 2) -> bool:
    return g.m == k * g.n - l and is_kl_sparse(g, k, l)


def is_rigid_comb(g: Graph) -> bool:
    """Combinatorial rigidity: the (2,2)-matroid rank reaches 2|V| - 2.

    One vertex is rigid: its rank 0 is 2 * 1 - 2.
    """
    if g.n < 1:
        raise SparsityError("rigidity needs at least one vertex")
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


def _subset_scan(g: Graph, u: int, v: int):
    """One pass over the vertex subsets U, |U| >= 2, by ascending vertex mask.

    Returns the max deficiency i(U) - val(U) and its first U, then the
    family candidates: each U holding u, v and a third vertex (so by
    ascending mask over V - {u, v}), its induced-edge bitmask and val term.
    """
    verts = g.vertices
    ends = [(1 << verts.index(a)) | (1 << verts.index(b)) for a, b in g.sorted_edges()]
    pair = (1 << verts.index(u)) | (1 << verts.index(v))
    best, best_set, parts, masks, terms = 0, None, [], [], []
    for vmask in range(1, 1 << g.n):
        if vmask & (vmask - 1) == 0:
            continue  # singletons
        s = frozenset(verts[i] for i in range(g.n) if (vmask >> i) & 1)
        emask = sum(1 << j for j, ab in enumerate(ends) if vmask & ab == ab)
        value = val_set(s, u, v)
        if emask.bit_count() - value > best:
            best, best_set = emask.bit_count() - value, s
        if vmask & pair == pair and len(s) >= 3:
            parts.append(s)
            masks.append(emask)
            terms.append(value - 2)
    return best, best_set, parts, masks, terms


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

    sub_def, sub_set, parts, masks, terms = _subset_scan(g, u, v)
    fam_def, chosen = _kernels.family_best(masks, terms) if parts else (0, 0)

    if sub_def >= 1 and sub_def >= fam_def:
        return _violation(g, "subset", (sub_set,))
    if fam_def >= 1:
        fam = [x for i, x in enumerate(parts) if (chosen >> i) & 1]
        return _violation(g, "family", fam)
    return UvSparseVerdict(True, None)


def is_uv_sparse(g: Graph) -> UvSparseVerdict:
    """Reduced uv-sparsity check: pebble games on G and on G/uv.

    Without the pair edge the subsets ask for (2,2)-sparsity of G.  Let
    T be the common neighbours of u and v.  Family sets of 4 or more
    vertices merge without loss, and {c, u, v} gains 1 iff c is in T, so
    a family is violated iff |T| >= 3 or some X through u, v has
    i(X) + |T - X| >= 2|X| - 1, i.e. X/uv spans 3 - |T| edges beyond the
    (2,2) count in G/uv.  Every reach set of G/uv's game holds the merged
    vertex w, and tight sets through w have a tight union, so that holds
    iff the game rejects 3 - |T| edges: r(G/uv) + 2 < m.  Witnesses: G's
    first reach set; the three smallest triples {c, u, v}; or X, the
    union of G/uv's first 3 - |T| reach sets with u, v for w, plus the
    triples with c outside X.
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
        con = pebble_game(contract_pair(g))
        if con.rank + 2 >= g.m:
            return UvSparseVerdict(True, None)
        x = frozenset((u, v)).union(*con.reaches[: 3 - len(common)])
        fam = (x,) + tuple(frozenset((c, u, v)) for c in common if c not in x)
    return _violation(g, "family", sorted(fam, key=sorted))


def is_uv_tight(g: Graph) -> bool:
    return g.m == 2 * g.n - 2 and is_uv_sparse(g).sparse


def _uv_games(g: Graph) -> tuple[PebbleResult, PebbleResult]:
    """The (2,2) pebble games on G - uv and on G/uv, in that order."""
    u, v = g.require_pair()
    minus = delete_edge(g, u, v) if g.has_edge(u, v) else g
    return pebble_game(minus), pebble_game(contract_pair(g))


def delete_contract(g: Graph) -> tuple[bool, bool]:
    """Whether G - uv and G/uv (on n - 1 vertices) are combinatorially rigid."""
    minus, con = _uv_games(g)
    return minus.rank == 2 * g.n - 2, con.rank == 2 * g.n - 4


def uv_rank_comb(g: Graph) -> int:
    """Counting uv-rank: min(r(G - uv), r(G/uv) + 2), r the (2,2) pebble rank.

    At m it is is_uv_sparse's test, at 2n - 2 delete-contract.  If G/uv's
    matroid (cu, cv parallel copies of cw) is a quotient of G - uv's, this
    is a Higgs lift (Higgs, JCT 1968; Oxley, Matroid Theory), so a matroid
    rank.  Unproved here, it is an observed identity, checked in the tests.
    """
    minus, con = _uv_games(g)
    return min(minus.rank, con.rank + 2)


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
