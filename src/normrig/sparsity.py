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
parts and coloops.  PebbleState(g, k, l) plays a fresh pebble game, and
globalrig carries one through a construction sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import Graph, InputError, contract_pair, delete_edge


# Largest graph the brute-force uv-sparsity checker accepts.
BRUTEFORCE_MAX_N = 7


class SparsityError(InputError):
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


class PebbleState:
    """The (k, l) pebble game (Lee and Streinu, 2008) on a graph, carried
    through a run of edits.

    It keeps each vertex's free pebbles and out-list (the orientation of
    the accepted edges), the accepted edges in offer order, and every
    rejected edge with its reach set, in rejection order.  A fresh game
    on g is ``PebbleState(g)``, which offers g's sorted edges.  The
    contract:

    * The accepted edges are those that greedy insertion into the
      (k, l)-count matroid keeps in offer order, whatever order the
      searches scan out-neighbours in.  They are a basis of the graph's
      matroid whatever the offer order, so the rank and the coloops (read
      by circuit_parts) do not depend on it.
    * A rejected edge's reach set U is the smallest vertex set through
      both endpoints that spans exactly k|U| - l accepted edges, which is
      unique.  U's accepted edges and the rejected edge form its
      fundamental circuit: they break the count on U, and any circuit
      through the rejected edge spans a tight set through both
      endpoints, which contains U.
    * Any state in which every vertex holds k pebbles less its out-degree
      and the out-edges are (k, l)-sparse is a position of the game, and
      the game may be continued from it: offer adds vertices and edges,
      and drop_vertex removes a vertex.
    """

    def __init__(self, g: Graph, k: int = 2, l: int = 2):
        if k < 1 or l < 0 or l >= 2 * k:
            raise SparsityError(f"unsupported pebble parameters ({k}, {l})")
        self.k, self.l = k, l
        self.pebbles: dict[int, int] = {}
        self.out: dict[int, list[int]] = {}  # out[x]: heads of the edges x -> y
        self.accepted: dict[tuple[int, int], None] = {}  # in offer order
        self.rejected: dict[tuple[int, int], frozenset[int]] = {}  # edge -> reach set
        self.offer(g.sorted_edges(), g.vertices)

    @property
    def rank(self) -> int:
        return len(self.accepted)

    @property
    def reaches(self) -> tuple[frozenset[int], ...]:
        return tuple(self.rejected.values())

    @property
    def witness(self) -> frozenset[int] | None:
        """The first rejection's reach set, or None if none was rejected."""
        return next(iter(self.rejected.values()), None)

    def offer(self, edges: list[tuple[int, int]], verts: Iterable[int] = ()) -> None:
        """Add the new vertices verts with k pebbles each, then offer edges
        (each as a < b, none of them held yet) in order."""
        pebbles, out, l = self.pebbles, self.out, self.l
        accepted, rejected = self.accepted, self.rejected
        for x in verts:
            pebbles[x] = self.k
            out[x] = []

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

        for e in edges:
            a, b = e
            while pebbles[a] + pebbles[b] <= l:
                seen = {}
                if not (fetch(a, a, b, seen) or fetch(b, a, b, seen)):
                    break
            if pebbles[a] + pebbles[b] > l:
                accepted[e] = None
                if pebbles[a]:
                    pebbles[a] -= 1
                    out[a].append(b)
                else:
                    pebbles[b] -= 1
                    out[b].append(a)
                continue
            # Rejected: both failed searches together visited the reach set
            # U of {a, b}: it is closed under out-edges and every vertex in
            # it except a, b has zero pebbles, so with e it induces more
            # than k|U| - l edges.
            rejected[e] = frozenset(seen)

    def drop_vertex(self, z: int, nbrs: Iterable[int]) -> list[tuple[int, int]]:
        """Remove z and its edges to its neighbours nbrs, then take out and
        return the rejected edges whose reach set held z, smallest set first.

        An accepted edge y -> z gives its pebble back to y, so the state
        stays a position of the game.  Every other rejected edge keeps its
        fundamental circuit, which avoids z, so its reach set stays valid.
        The returned edges may now be independent and must be offered again.
        """
        pebbles, out = self.pebbles, self.out
        heads = out.pop(z)
        del pebbles[z]
        for y in nbrs:
            e = (z, y) if z < y else (y, z)
            if self.rejected.pop(e, None) is None:
                del self.accepted[e]
                if y not in heads:
                    out[y].remove(z)
                    pebbles[y] += 1
        again = sorted((e for e, reach in self.rejected.items() if z in reach),
                       key=lambda e: len(self.rejected[e]))
        for e in again:
            del self.rejected[e]
        return again


def pebble_rank(g: Graph, k: int = 2, l: int = 2) -> int:
    """A fresh game's rank; normbench's make_cases calls it."""
    return PebbleState(g, k, l).rank


def is_rigid_comb(g: Graph) -> bool:
    """The (2,2)-matroid rank reaches max(0, 2|V| - 2): the empty graph and
    one vertex are rigid at rank 0, as in rigidity.generic_ranks."""
    return pebble_rank(g, 2, 2) == max(0, 2 * g.n - 2)


def circuit_parts(game: PebbleState) -> tuple[list[frozenset[int]], list[tuple[int, int]]]:
    """The reach sets merged along shared vertices, and the coloops.

    A rejected edge's fundamental circuit is the edge plus the accepted
    edges its reach set induces.  Reach sets are tight in the accepted
    edges, and two tight sets that share a vertex have a tight union
    with no accepted edge between their differences, so the merged
    parts are disjoint and hold both ends of exactly the accepted edges
    in some circuit.  The others, the coloops, come back in game order.

    The merge is a union-find over vertices, by size: part_of maps each
    vertex of a reach set to its part, one shared set, and a merge maps
    the smaller part's vertices to the larger.  A reach set inside one
    part costs one subset test, and the other set operations run in bulk.
    """
    part_of: dict[int, set[int]] = {}
    parts: dict[int, set[int]] = {}  # each part, keyed by its id
    for r in game.rejected.values():
        part = part_of.get(next(iter(r)))
        if part is None:
            part = set()
        elif r <= part:
            continue
        rest = r - part
        fresh = rest.difference(part_of)
        rest -= fresh
        while rest:  # one round per other part that r meets
            other = part_of[next(iter(rest))]
            rest -= other
            if len(other) > len(part):
                part, other = other, part
            parts.pop(id(other), None)
            part |= other
            part_of.update(dict.fromkeys(other, part))
        part |= fresh
        part_of.update(dict.fromkeys(fresh, part))
        parts[id(part)] = part
    # an end in no part gets itself back, which is no part of the other end
    coloops = [(a, b) for a, b in game.accepted if part_of.get(a, a) is not part_of.get(b)]
    return [frozenset(p) for p in parts.values()], coloops


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
    could only tie has a larger mask.  So the cost follows the families
    the search cannot rule out, not the 2**c families there are.
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
    fam_def, chosen = family_best(masks, terms) if parts else (0, 0)

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

    res = PebbleState(g, 2, 2)
    if res.rank < g.m:
        return _violation(g, "subset", (res.witness,))

    common = sorted(set(g.neighbors(u)) & set(g.neighbors(v)))
    if len(common) >= 3:
        fam = tuple(frozenset((c, u, v)) for c in common[:3])
    else:
        con = PebbleState(contract_pair(g))
        if con.rank + 2 >= g.m:
            return UvSparseVerdict(True, None)
        x = frozenset((u, v)).union(*con.reaches[: 3 - len(common)])
        fam = (x,) + tuple(frozenset((c, u, v)) for c in common if c not in x)
    return _violation(g, "family", sorted(fam, key=sorted))


def _uv_games(g: Graph) -> tuple[PebbleState, PebbleState]:
    """The (2,2) pebble games on G - uv and on G/uv, in that order."""
    u, v = g.require_pair()
    minus = delete_edge(g, u, v) if g.has_edge(u, v) else g
    return PebbleState(minus), PebbleState(contract_pair(g))


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
    """G - uv and G/uv both combinatorially rigid; normbench's make_cases calls it."""
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
    res = PebbleState(g, 2, 2)
    parts, coloops = circuit_parts(res)
    cover = tuple(sorted(parts, key=sorted)) + tuple(frozenset(e) for e in sorted(coloops))
    return CoverBound(res.rank, cover)
