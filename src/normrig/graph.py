"""Simple graphs with an optional designated vertex pair, plus the
construction moves used throughout the package.

Graphs are immutable: every operation returns a new ``Graph``.  Loops
and parallel edges are rejected everywhere.  The designated pair (u, v)
marks the two vertices that coincident placements send to the same
point; operations track or create it as documented per function.
``Graph.from_edges`` validates edge lists that come from outside, while
internal producers whose edges are valid by construction build ``Graph``
directly, each with a one-line reason, after checking their own
preconditions.

A one-line text format is provided for files and stdout, and a JSON
record for --json output.  Emission always relabels vertices to 0..n-1
in sorted order, so emitted files are canonical and byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union


class GraphError(ValueError):
    """Invalid graph data or a violated operation precondition."""


class GraphFormatError(GraphError):
    """Malformed graph text; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def norm_edge(a: int, b: int) -> tuple[int, int]:
    if a == b:
        raise GraphError(f"loop at vertex {a}")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Graph:
    vertices: tuple[int, ...]  # sorted; canonical labels and random draws follow it
    edges: frozenset[tuple[int, int]]
    designated_pair: tuple[int, int] | None = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_edges(
        vertices: Iterable[int],
        edges: Iterable[tuple[int, int]] = (),
        pair: tuple[int, int] | None = None,
    ) -> "Graph":
        vset = set(vertices)
        normed: set[tuple[int, int]] = set()
        for a, b in edges:
            e = norm_edge(a, b)
            if e in normed:
                raise GraphError(f"parallel edge {e[0]}-{e[1]}")
            if e[0] not in vset or e[1] not in vset:
                raise GraphError(f"edge {e[0]}-{e[1]} uses unknown vertex")
            normed.add(e)
        g = Graph(tuple(sorted(vset)), frozenset(normed))
        return g if pair is None else g.with_pair(*pair)

    @staticmethod
    def complete(n: int, pair: tuple[int, int] | None = None) -> "Graph":
        vs = range(n)
        return Graph.from_edges(vs, [(i, j) for i in vs for j in vs if i < j], pair)

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not self.has_vertex(v):
            raise GraphError(f"vertex {v} not in graph")
        return tuple(sorted(b if a == v else a for a, b in self.edges if v == a or v == b))

    def degree(self, v: int) -> int:
        if not self.has_vertex(v):
            raise GraphError(f"vertex {v} not in graph")
        return sum(v in e for e in self.edges)

    def has_edge(self, a: int, b: int) -> bool:
        return norm_edge(a, b) in self.edges

    def has_vertex(self, v: int) -> bool:
        return v in self.vertices

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def with_pair(self, u: int, v: int) -> "Graph":
        if u == v:
            raise GraphError("designated pair must be two distinct vertices")
        if not (self.has_vertex(u) and self.has_vertex(v)):
            raise GraphError(f"designated pair ({u}, {v}) not in vertex set")
        # the edges are g's own, so no from_edges checks
        return Graph(self.vertices, self.edges, (u, v))

    def require_pair(self) -> tuple[int, int]:
        if self.designated_pair is None:
            raise GraphError("graph has no designated pair")
        return self.designated_pair

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == self.n

    def relabel(self, mapping: Mapping[int, int]) -> "Graph":
        """Apply an injective vertex relabelling."""
        verts = [mapping[v] for v in self.vertices]
        if len(set(verts)) != self.n:
            raise GraphError("relabelling is not injective")
        pair = self.designated_pair
        # an injective map keeps edges distinct and loop-free, so no from_edges checks
        return Graph(
            tuple(sorted(verts)),
            frozenset(norm_edge(mapping[a], mapping[b]) for a, b in self.edges),
            (mapping[pair[0]], mapping[pair[1]]) if pair else None,
        )

    def canonical_labels(self) -> "Graph":
        """Relabel vertices to 0..n-1 in sorted order."""
        return self.relabel({v: i for i, v in enumerate(self.vertices)})


# ---------------------------------------------------------------------------
# graph surgery
# ---------------------------------------------------------------------------


def add_edge(g: Graph, a: int, b: int) -> Graph:
    e = norm_edge(a, b)
    if not (g.has_vertex(a) and g.has_vertex(b)):
        raise GraphError(f"edge {a}-{b} uses unknown vertex")
    if e in g.edges:
        raise GraphError(f"edge {a}-{b} already present")
    return Graph(g.vertices, g.edges | {e}, g.designated_pair)


def delete_edge(g: Graph, a: int, b: int) -> Graph:
    e = norm_edge(a, b)
    if e not in g.edges:
        raise GraphError(f"edge {a}-{b} not present")
    return Graph(g.vertices, g.edges - {e}, g.designated_pair)


def add_vertex(g: Graph, z: int, neighbors: Iterable[int] = ()) -> Graph:
    if g.has_vertex(z):
        raise GraphError(f"vertex {z} already present")
    nbrs = list(neighbors)
    if len(set(nbrs)) != len(nbrs):
        raise GraphError("repeated neighbor in vertex addition")
    for y in nbrs:
        if not g.has_vertex(y):
            raise GraphError(f"neighbor {y} not in graph")
    # z is fresh and its neighbours distinct and present, so no from_edges checks
    return Graph(
        tuple(sorted((*g.vertices, z))),
        g.edges | {norm_edge(z, y) for y in nbrs},
        g.designated_pair,
    )


def delete_vertex(g: Graph, z: int) -> Graph:
    if not g.has_vertex(z):
        raise GraphError(f"vertex {z} not in graph")
    pair = g.designated_pair
    if pair is not None and z in pair:
        raise GraphError("cannot delete a designated-pair vertex")
    return Graph(
        tuple(v for v in g.vertices if v != z),
        frozenset(e for e in g.edges if z not in e),
        pair,
    )


def zero_extension(g: Graph, a: int, b: int, z: int) -> Graph:
    """Add a new vertex z adjacent to the two existing vertices a, b."""
    if a == b:
        raise GraphError("zero-extension needs two distinct base vertices")
    return add_vertex(g, z, (a, b))


def one_extension(g: Graph, a: int, b: int, c: int, z: int) -> Graph:
    """Subdivide edge ab with a new vertex z and join z to a third vertex c."""
    if c in (a, b):
        raise GraphError("third vertex of a one-extension must avoid the split edge")
    h = delete_edge(g, a, b)
    return add_vertex(h, z, (a, b, c))


def vertex_to_four_cycle(
    g: Graph,
    w: int,
    w_new: int,
    x1: int,
    x2: int,
    reassign: Mapping[int, int] | None = None,
) -> Graph:
    """Split w into the opposite corners w, w_new of a 4-cycle through x1, x2.

    x1 and x2 must be distinct neighbors of w; they end up adjacent to
    both corners.  Every other former neighbor y of w keeps exactly one
    edge, to ``reassign[y]`` (which must be w or w_new).  Adds two edges.
    """
    if x1 == x2 or not (g.has_edge(w, x1) and g.has_edge(w, x2)):
        raise GraphError("cycle contacts must be two distinct neighbors of w")
    if g.has_vertex(w_new):
        raise GraphError(f"vertex {w_new} already present")
    reassign = dict(reassign or {})
    rest = [y for y in g.neighbors(w) if y not in (x1, x2)]
    if set(reassign) != set(rest):
        raise GraphError("reassignment must cover exactly the remaining neighbors of w")
    if any(t not in (w, w_new) for t in reassign.values()):
        raise GraphError("reassignment targets must be w or the new vertex")
    # w_new is fresh and every other end a distinct old neighbour of w, so no
    # from_edges checks
    edges = {e for e in g.edges if w not in e}
    edges.update(norm_edge(t, x) for t in (w, w_new) for x in (x1, x2))
    edges.update(norm_edge(reassign[y], y) for y in rest)
    return Graph(tuple(sorted((*g.vertices, w_new))), frozenset(edges), g.designated_pair)


def vertex_to_h(
    g: Graph,
    w: int,
    h: Graph,
    attach: Mapping[int, int],
) -> Graph:
    """Replace vertex w by a disjoint copy of the graph h.

    ``attach[y]`` names the h-vertex that former neighbor y of w joins.
    The copy of h is relabelled to fresh consecutive ids above max(V);
    h's designated pair, if any, is carried onto those ids provided g
    has no pair of its own.  w may not belong to g's designated pair.
    """
    if not g.has_vertex(w):
        raise GraphError(f"vertex {w} not in graph")
    pair = g.designated_pair
    if pair is not None and w in pair:
        raise GraphError("cannot replace a designated-pair vertex")
    attach = dict(attach)
    if set(attach) != set(g.neighbors(w)):
        raise GraphError("attachment must cover exactly the neighbors of w")
    for t in attach.values():
        if not h.has_vertex(t):
            raise GraphError(f"attachment target {t} not in replacement graph")
    base = max(g.vertices, default=-1) + 1
    fresh = {hv: base + i for i, hv in enumerate(h.vertices)}
    h2 = h.relabel(fresh)
    if pair is None and h2.designated_pair is not None:
        pair = h2.designated_pair
    # h2's ids lie above every old vertex, and each old neighbour y of w gets
    # one edge (y, id), already normalised, so no from_edges checks
    edges = {e for e in g.edges if w not in e}
    edges.update(h2.edges)
    edges.update((y, fresh[attach[y]]) for y in attach)
    verts = tuple(v for v in g.vertices if v != w) + h2.vertices
    return Graph(verts, frozenset(edges), pair)


def generalized_vertex_split(
    g: Graph,
    z: int,
    n_u: Iterable[int],
    n_v: Iterable[int],
    w: int,
    u: int,
    v: int,
) -> Graph:
    """Split z into the new designated pair (u, v).

    N(z) is partitioned into n_u and n_v (either part may be empty);
    u takes the n_u edges plus uv and uw, v takes the n_v edges.  w is
    any existing vertex outside n_u (and not z), so no parallel edge
    can arise.  u and v must be fresh labels, except that either may
    reuse z's label.  Adds two edges; the result's designated pair is
    (u, v) — a pre-existing pair is superseded, as in construction
    sequences with several splits.
    """
    if not g.has_vertex(z):
        raise GraphError(f"vertex {z} not in graph")
    nu, nv = set(n_u), set(n_v)
    nz = set(g.neighbors(z))
    if nu & nv or nu | nv != nz:
        raise GraphError("n_u, n_v must partition the neighborhood of z")
    if u == v:
        raise GraphError("split must produce two distinct vertices")
    old = set(g.vertices) - {z}
    for fresh in (u, v):
        if fresh in old:
            raise GraphError(f"vertex {fresh} already present")
    if w == z or w in (u, v) or w not in old:
        raise GraphError("w must be an existing vertex distinct from z, u, v")
    if w in nu:
        raise GraphError("w may not lie in n_u (parallel edge uw)")
    # g's other edges are normalised already, and the checks above rule out
    # loops, parallel and dangling new edges, so no from_edges checks
    edges = {e for e in g.edges if z not in e}
    edges.update(norm_edge(u, y) for y in nu | {v, w})
    edges.update(norm_edge(v, y) for y in nv)
    return Graph(tuple(sorted(old | {u, v})), frozenset(edges), (u, v))


def contract_pair(g: Graph, u: int | None = None, v: int | None = None) -> Graph:
    """Identify the designated pair (or an explicit pair) into one vertex.

    The merged vertex keeps label min(u, v).  A uv edge disappears;
    doubled edges onto a common neighbor merge.  The result carries no
    designated pair.
    """
    if u is None and v is None:
        u, v = g.require_pair()
    if u == v or not (g.has_vertex(u) and g.has_vertex(v)):
        raise GraphError("contraction needs two distinct existing vertices")
    keep, gone = (u, v) if u < v else (v, u)
    edges = set()
    for a, b in g.edges:
        a2 = keep if a == gone else a
        b2 = keep if b == gone else b
        if a2 != b2:
            edges.add((a2, b2) if a2 < b2 else (b2, a2))
    # normalised, distinct and inside the kept vertices, so no from_edges checks
    return Graph(tuple(sorted(x for x in g.vertices if x != gone)), frozenset(edges), None)


# ---------------------------------------------------------------------------
# construction steps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AddEdge:
    a: int
    b: int


@dataclass(frozen=True)
class AddVertexWithNeighbors:
    z: int
    neighbors: tuple[int, ...]


@dataclass(frozen=True)
class GeneralizedVertexSplit:
    z: int
    n_u: tuple[int, ...]
    n_v: tuple[int, ...]
    w: int
    u: int
    v: int


ConstructionStep = Union[AddEdge, AddVertexWithNeighbors, GeneralizedVertexSplit]


def apply_step(g: Graph, step: ConstructionStep) -> Graph:
    if isinstance(step, AddEdge):
        return add_edge(g, step.a, step.b)
    if isinstance(step, AddVertexWithNeighbors):
        return add_vertex(g, step.z, step.neighbors)
    if isinstance(step, GeneralizedVertexSplit):
        return generalized_vertex_split(
            g, step.z, step.n_u, step.n_v, step.w, step.u, step.v
        )
    raise GraphError(f"unknown construction step {step!r}")


# ---------------------------------------------------------------------------
# text and JSON formats
# ---------------------------------------------------------------------------
#
# Header line:   n m            (plain graph)
#                n m u v        (graph with designated pair u, v)
# then m lines   a b            with 0 <= a < b < n.
# '#' comments and blank lines are skipped on parsing, never emitted.


def format_graph(g: Graph) -> str:
    gc = g.canonical_labels()
    lines = []
    if gc.designated_pair is None:
        lines.append(f"{gc.n} {gc.m}")
    else:
        u, v = gc.designated_pair
        lines.append(f"{gc.n} {gc.m} {u} {v}")
    lines += [f"{a} {b}" for a, b in gc.sorted_edges()]
    return "\n".join(lines) + "\n"


def numbered_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, stripped body) of every line with content
    once '#' comments are cut; the reader of graph and sequence files."""
    bodies = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [(i, body) for i, body in enumerate(bodies, start=1) if body]


def parse_graph(text: str) -> Graph:
    rows = numbered_lines(text)
    if not rows:
        raise GraphFormatError("empty graph file")

    lineno, header = rows[0]
    parts = header.split()
    if len(parts) not in (2, 4):
        raise GraphFormatError("header must be 'n m' or 'n m u v'", lineno)
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise GraphFormatError(f"non-integer token in {header!r}", lineno) from None
    n, m = nums[0], nums[1]
    if n < 0 or m < 0:
        raise GraphFormatError("negative count in header", lineno)
    pair = None
    if len(nums) == 4:
        u, v = nums[2], nums[3]
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise GraphFormatError(f"bad designated pair {u} {v}", lineno)
        pair = (u, v)

    if len(rows) - 1 != m:
        raise GraphFormatError(
            f"header promises {m} edges, file has {len(rows) - 1}", lineno
        )
    seen: set[tuple[int, int]] = set()
    for lineno, body in rows[1:]:
        parts = body.split()
        if len(parts) != 2:
            raise GraphFormatError(f"edge line must be 'a b', got {body!r}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer token in {body!r}", lineno) from None
        if a == b:
            raise GraphFormatError(f"loop at vertex {a}", lineno)
        if not (0 <= a < n and 0 <= b < n):
            raise GraphFormatError(f"edge {a}-{b} out of range", lineno)
        e = norm_edge(a, b)
        if e in seen:
            raise GraphFormatError(f"parallel edge {e[0]}-{e[1]}", lineno)
        seen.add(e)
    return Graph(tuple(range(n)), frozenset(seen), pair)


def graph_to_json(g: Graph) -> dict:
    gc = g.canonical_labels()
    return {
        "vertices": gc.n,
        "edges": [list(e) for e in gc.sorted_edges()],
        "designated_pair": list(gc.designated_pair) if gc.designated_pair else None,
    }
