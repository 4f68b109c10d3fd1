from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from normrig.enumeration import enumerate_graphs, random_graph
from normrig.experiments import _independent_subgraph
from normrig.graph import (
    AddEdge,
    AddVertexWithNeighbors,
    GeneralizedVertexSplit,
    Graph,
    GraphError,
    GraphFormatError,
    add_edge,
    add_vertex,
    apply_step,
    contract_pair,
    delete_edge,
    delete_vertex,
    format_graph,
    generalized_vertex_split,
    graph_to_json,
    norm_edge,
    one_extension,
    parse_graph,
    vertex_to_four_cycle,
    vertex_to_h,
    zero_extension,
)
from normrig.sparsity import pebble_game


def test_from_edges_rejects_bad_input():
    with pytest.raises(GraphError):
        Graph.from_edges([0, 1], [(0, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges([0, 1], [(0, 1), (1, 0)])  # parallel after normalizing
    with pytest.raises(GraphError):
        Graph.from_edges([0, 1], [(0, 2)])
    with pytest.raises(GraphError):
        Graph.from_edges([0, 1], [], pair=(0, 0))
    with pytest.raises(GraphError):
        Graph.from_edges([0, 1], [], pair=(0, 5))


def test_basic_queries():
    g = Graph.complete(4)
    assert g.n == 4 and g.m == 6
    assert g.degree(0) == 3
    assert g.has_edge(2, 1)
    assert g.is_connected()


def test_connected_components():
    g = Graph.from_edges(range(5), [(0, 1), (2, 3)])
    assert not add_edge(add_edge(g, 1, 2), 0, 3).is_connected()  # 4 is isolated
    assert add_edge(add_edge(add_edge(g, 1, 2), 0, 3), 3, 4).is_connected()
    assert not g.is_connected()


# -- operations: count deltas and preconditions ---------------------------


def test_zero_extension_delta():
    g = Graph.complete(3)
    g2 = zero_extension(g, 0, 1, 7)
    assert (g2.n, g2.m) == (g.n + 1, g.m + 2)
    with pytest.raises(GraphError):
        zero_extension(g, 0, 0, 7)
    with pytest.raises(GraphError):
        zero_extension(g, 0, 1, 2)  # label collision


def test_one_extension_delta():
    g = Graph.complete(4)
    g2 = one_extension(g, 0, 1, 2, 9)
    assert (g2.n, g2.m) == (g.n + 1, g.m + 2)
    assert not g2.has_edge(0, 1)
    with pytest.raises(GraphError):
        one_extension(g, 0, 1, 0, 9)  # c inside the edge
    g3 = Graph.from_edges(range(3), [(0, 1)])
    with pytest.raises(GraphError):
        one_extension(g3, 0, 2, 1, 9)  # missing edge


def test_vertex_to_four_cycle():
    g = Graph.complete(4)
    g2 = vertex_to_four_cycle(g, 0, 4, 1, 2, {3: 4})
    assert (g2.n, g2.m) == (5, 8)
    assert g2.has_edge(0, 1) and g2.has_edge(4, 1) and g2.has_edge(4, 3)
    assert not g2.has_edge(0, 3)
    with pytest.raises(GraphError):
        vertex_to_four_cycle(g, 0, 4, 1, 1, {2: 0, 3: 0})
    with pytest.raises(GraphError):
        vertex_to_four_cycle(g, 0, 4, 1, 2, {})  # 3 unassigned
    with pytest.raises(GraphError):
        vertex_to_four_cycle(g, 0, 4, 1, 2, {3: 9})  # bad target


def test_vertex_to_h_counts():
    g = Graph.complete(4)
    h = Graph.complete(4)
    g2 = vertex_to_h(g, 3, h, {0: 0, 1: 1, 2: 2})
    # -1 vertex +4 vertices; -3 edges +6 +3
    assert (g2.n, g2.m) == (7, 12)
    assert not g2.has_vertex(3)
    with pytest.raises(GraphError):
        vertex_to_h(g, 3, h, {0: 0})  # attach must cover N(w)


def test_vertex_to_h_pair_policy(min_uv_tight):
    g = Graph.complete(4)
    g2 = vertex_to_h(g, 3, min_uv_tight, {0: 0, 1: 1, 2: 2})
    # host had no pair: adopt H's, relabelled above max(V(g))
    assert g2.designated_pair == (4, 5)
    gp = Graph.complete(4, pair=(0, 1))
    g3 = vertex_to_h(gp, 3, Graph.complete(3), {0: 0, 1: 1, 2: 2})
    assert g3.designated_pair == (0, 1)
    with pytest.raises(GraphError):
        vertex_to_h(gp, 0, Graph.complete(3), {1: 0, 2: 1, 3: 2})


def test_generalized_vertex_split():
    g = Graph.complete(4)
    g2 = generalized_vertex_split(g, 0, (1,), (2, 3), 2, 4, 5)
    assert (g2.n, g2.m) == (5, 8)
    assert g2.designated_pair == (4, 5)
    assert g2.has_edge(4, 5) and g2.has_edge(4, 2) and g2.has_edge(4, 1)
    assert g2.has_edge(5, 2) and g2.has_edge(5, 3)
    # empty N_u is a legal degenerate case
    g3 = generalized_vertex_split(g, 0, (), (1, 2, 3), 1, 4, 5)
    assert g3.degree(4) == 2
    with pytest.raises(GraphError):
        generalized_vertex_split(g, 0, (1,), (2,), 2, 4, 5)  # partition gap
    with pytest.raises(GraphError):
        generalized_vertex_split(g, 0, (1,), (2, 3), 1, 4, 5)  # w in n_u
    with pytest.raises(GraphError):
        generalized_vertex_split(g, 0, (1,), (2, 3), 2, 4, 4)


def test_split_supersedes_pair():
    g = Graph.complete(4, pair=(0, 1))
    g2 = generalized_vertex_split(g, 2, (0,), (1, 3), 3, 4, 5)
    assert g2.designated_pair == (4, 5)


def test_split_reuses_z_label():
    g = Graph.complete(4)
    g2 = generalized_vertex_split(g, 0, (1,), (2, 3), 2, 4, 0)
    assert g2.designated_pair == (4, 0) and g2.has_vertex(0)


def test_contract_pair(k23):
    c = contract_pair(k23)
    assert c.n == 4 and c.m == 3 and c.designated_pair is None
    # contracting an actual edge drops it and merges parallels
    g = Graph.complete(4, pair=(0, 1))
    c2 = contract_pair(g)
    assert (c2.n, c2.m) == (3, 3)
    with pytest.raises(GraphError):
        contract_pair(Graph.complete(3))


def test_contract_pair_refuses_one_vertex():
    g = Graph.complete(4, pair=(0, 1))
    for args in [(2,), (2, None), (None, 3)]:
        with pytest.raises(GraphError, match="two distinct existing vertices"):
            contract_pair(g, *args)
    assert contract_pair(g, 2, 3).vertices == (0, 1, 2)


def test_contract_pair_equals_from_edges_construction():
    for g in (g for n in range(2, 7) for g in enumerate_graphs(n, pair=True)):
        u, v = g.designated_pair
        keep, gone = min(u, v), max(u, v)
        moved = ((keep if a == gone else a, keep if b == gone else b) for a, b in g.edges)
        expected = Graph.from_edges(
            (x for x in g.vertices if x != gone), {tuple(sorted(e)) for e in moved if e[0] != e[1]}
        )
        assert contract_pair(g) == expected, g


def test_delete_vertex_guards_pair():
    g = Graph.complete(4, pair=(0, 1))
    with pytest.raises(GraphError):
        delete_vertex(g, 0)
    g2 = delete_vertex(g, 3)
    assert g2.n == 3 and g2.designated_pair == (0, 1)


def test_apply_step_dispatch():
    g = Graph.complete(4)
    assert apply_step(g, AddVertexWithNeighbors(4, (0, 1, 2))).n == 5
    g2 = apply_step(Graph.from_edges(range(3), [(0, 1)]), AddEdge(1, 2))
    assert g2.has_edge(1, 2)
    g3 = apply_step(g, GeneralizedVertexSplit(0, (1,), (2, 3), 2, 4, 5))
    assert g3.designated_pair == (4, 5)


# -- text and JSON round-trips ---------------------------------------------


def test_format_parse_roundtrip(two_k4):
    text = format_graph(two_k4)
    g = parse_graph(text)
    assert format_graph(g) == text
    assert g.designated_pair is not None


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError) as e:
        parse_graph("2 1\n0 1\n0 1\n")
    assert "promises" in str(e.value)
    with pytest.raises(GraphFormatError) as e:
        parse_graph("3 2\n0 1\n0 1\n")
    assert "line 3" in str(e.value) and "parallel" in str(e.value)
    with pytest.raises(GraphFormatError) as e:
        parse_graph("3 1\n0 5\n")
    assert "line 2" in str(e.value)
    with pytest.raises(GraphFormatError):
        parse_graph("")
    with pytest.raises(GraphFormatError):
        parse_graph("3 0 1 1\n")
    with pytest.raises(GraphFormatError) as e:
        parse_graph("2 1\n0 x\n")
    assert "line 2" in str(e.value)


@pytest.mark.parametrize("text,line,message", [
    ("2\n", 1, "header must be 'n m' or 'n m u v'"),
    ("# n m\n2 x\n", 2, "non-integer token in '2 x'"),
    ("-1 0\n", 1, "negative count in header"),
    ("2 1\n0 1 1\n", 2, "edge line must be 'a b', got '0 1 1'"),
    ("3 2\n0 1\n\n1 1\n", 4, "loop at vertex 1"),
])
def test_parse_format_errors(text, line, message):
    with pytest.raises(GraphFormatError) as e:
        parse_graph(text)
    assert e.value.line == line
    assert str(e.value) == f"line {line}: {message}"


K4 = Graph.complete(4)


@pytest.mark.parametrize("op,args,message", [
    (Graph.neighbors, (K4, 9), "vertex 9 not in graph"),
    (Graph.neighbors, (K4, None), "vertex None not in graph"),
    (Graph.relabel, (K4, {0: 0, 1: 0, 2: 1, 3: 2}), "relabelling is not injective"),
    (add_edge, (K4, 0, 9), "edge 0-9 uses unknown vertex"),
    (add_edge, (K4, 1, 0), "edge 1-0 already present"),
    (add_vertex, (K4, 4, (0, 0)), "repeated neighbor in vertex addition"),
    (add_vertex, (K4, 4, (0, 9)), "neighbor 9 not in graph"),
    (delete_vertex, (K4, 9), "vertex 9 not in graph"),
    (vertex_to_four_cycle, (K4, 0, 3, 1, 2), "vertex 3 already present"),
    (vertex_to_h, (K4, 9, K4, {}), "vertex 9 not in graph"),
    (vertex_to_h, (K4, 0, K4, {1: 0, 2: 0, 3: 9}),
     "attachment target 9 not in replacement graph"),
    (generalized_vertex_split, (K4, 9, (), (), 0, 4, 5), "vertex 9 not in graph"),
    (generalized_vertex_split, (K4, 0, (1,), (2, 3), 2, 1, 5), "vertex 1 already present"),
    (generalized_vertex_split, (K4, 0, (1,), (2, 3), 9, 4, 5),
     "w must be an existing vertex distinct from z, u, v"),
    (apply_step, (K4, "frob"), "unknown construction step 'frob'"),
    (Graph.degree, (K4, 9), "vertex 9 not in graph"),
    (Graph.degree, (K4, None), "vertex None not in graph"),
    (vertex_to_four_cycle, (K4, 0, 4, 1, 1), "cycle contacts must be two distinct neighbors of w"),
    (vertex_to_four_cycle, (delete_edge(K4, 0, 2), 0, 4, 1, 2),
     "cycle contacts must be two distinct neighbors of w"),
    (vertex_to_four_cycle, (K4, 0, 4, 1, 2, {}),
     "reassignment must cover exactly the remaining neighbors of w"),
    (vertex_to_four_cycle, (K4, 0, 4, 1, 2, {3: 1}),
     "reassignment targets must be w or the new vertex"),
    (vertex_to_h, (K4.with_pair(0, 1), 1, K4, {0: 0, 2: 0, 3: 0}),
     "cannot replace a designated-pair vertex"),
    (vertex_to_h, (K4, 0, K4, {1: 0, 2: 0}), "attachment must cover exactly the neighbors of w"),
])
def test_preconditions_raise(op, args, message):
    with pytest.raises(GraphError) as e:
        op(*args)
    assert str(e.value) == message


# ---------------------------------------------------------------------------
# producers that build Graph directly, against from_edges on the same data
# ---------------------------------------------------------------------------


def _host(rng, pair=False):
    """A seeded random graph on 4 to 9 spread-out labels, through from_edges."""
    n = int(rng.integers(4, 10))
    labels = sorted(int(x) for x in rng.choice(100, size=n, replace=False))
    edges = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:] if rng.random() < 0.5]
    return Graph.from_edges(labels, edges, tuple(labels[:2]) if pair else None)


def _with_pair(rng):
    g = _host(rng)
    u, v = (int(x) for x in rng.choice(g.vertices, size=2, replace=False))
    return g.with_pair(u, v), Graph.from_edges(g.vertices, g.edges, (u, v))


def _relabel(rng):
    g = _host(rng, pair=bool(rng.random() < 0.5))
    image = [int(x) for x in rng.choice(1000, size=g.n, replace=False)]
    f = dict(zip(g.vertices, image))
    pair = g.designated_pair
    want = Graph.from_edges(image, [(f[a], f[b]) for a, b in g.edges],
                            (f[pair[0]], f[pair[1]]) if pair else None)
    return g.relabel(f), want


def _four_cycle(rng):
    while True:
        g = _host(rng, pair=bool(rng.random() < 0.5))
        ws = [w for w in g.vertices if g.degree(w) >= 2]
        if ws:
            break
    w = int(rng.choice(ws))
    x1, x2 = (int(x) for x in rng.choice(g.neighbors(w), size=2, replace=False))
    w_new = max(g.vertices) + 1
    rest = [y for y in g.neighbors(w) if y not in (x1, x2)]
    reassign = {y: (w if rng.random() < 0.5 else w_new) for y in rest}
    edges = [e for e in g.edges if w not in e]
    edges += [(w, x1), (w, x2), (w_new, x1), (w_new, x2)] + [(reassign[y], y) for y in rest]
    want = Graph.from_edges([*g.vertices, w_new], edges, g.designated_pair)
    return vertex_to_four_cycle(g, w, w_new, x1, x2, reassign), want


def _to_h(rng):
    g, h = _host(rng, pair=bool(rng.random() < 0.5)), _host(rng, pair=bool(rng.random() < 0.5))
    w = int(rng.choice([x for x in g.vertices if x not in (g.designated_pair or ())]))
    attach = {y: int(rng.choice(h.vertices)) for y in g.neighbors(w)}
    fresh = {hv: max(g.vertices) + 1 + i for i, hv in enumerate(h.vertices)}
    pair = g.designated_pair or (h.designated_pair and tuple(fresh[x] for x in h.designated_pair))
    edges = [e for e in g.edges if w not in e] + [(fresh[a], fresh[b]) for a, b in h.edges]
    edges += [(y, fresh[t]) for y, t in attach.items()]
    want = Graph.from_edges([v for v in g.vertices if v != w] + list(fresh.values()), edges, pair)
    return vertex_to_h(g, w, h, attach), want


def _random_graph(rng):
    pair = bool(rng.random() < 0.5)
    g = random_graph(rng, int(rng.integers(0, 10)) + 2 * pair, pair=pair)
    return g, Graph.from_edges(range(g.n), sorted(g.edges), (0, 1) if pair else None)


def _independent(rng):
    g = _host(rng, pair=bool(rng.random() < 0.5))
    return _independent_subgraph(g), Graph.from_edges(
        g.vertices, pebble_game(g).accepted, g.designated_pair)


@pytest.mark.parametrize("make", [_with_pair, _relabel, _four_cycle, _to_h,
                                  _random_graph, _independent])
def test_direct_producers_equal_from_edges(make):
    rng = np.random.default_rng(2024)
    for _ in range(60):
        got, want = make(rng)
        assert got == want
        assert list(got.vertices) == sorted(got.vertices)
        assert all(e == norm_edge(*e) for e in got.edges)


@pytest.mark.parametrize("call,outside,message", [
    (lambda: random_graph(np.random.default_rng(0), 1, pair=True),
     lambda: Graph.from_edges(range(1), [], (0, 1)), "designated pair (0, 1) not in vertex set"),
    (lambda: random_graph(np.random.default_rng(0), 0, pair=True),
     lambda: Graph.from_edges(range(0), [], (0, 1)), "designated pair (0, 1) not in vertex set"),
    (lambda: K4.with_pair(0, 9),
     lambda: Graph.from_edges(K4.vertices, K4.edges, (0, 9)),
     "designated pair (0, 9) not in vertex set"),
    (lambda: K4.with_pair(None, 1),
     lambda: Graph.from_edges(K4.vertices, K4.edges, (None, 1)),
     "designated pair (None, 1) not in vertex set"),
    (lambda: K4.with_pair(2, 2),
     lambda: Graph.from_edges(K4.vertices, K4.edges, (2, 2)),
     "designated pair must be two distinct vertices"),
])
def test_direct_producers_raise_like_from_edges(call, outside, message):
    # from_edges, given the same bad data, raises the same message
    for make in (call, outside):
        with pytest.raises(GraphError) as e:
            make()
        assert str(e.value) == message


def test_degree_counts_incident_edges(small_graphs):
    for g in small_graphs:
        assert [g.degree(v) for v in g.vertices] == [len(g.neighbors(v)) for v in g.vertices]


def test_comments_and_blanks_ignored():
    g = parse_graph("# header\n\n3 1 0 1 # pair\n0 2\n")
    assert g.m == 1 and g.designated_pair == (0, 1)


def test_json_roundtrip(k23):
    # the record survives JSON text, in canonical labels whatever g's labels
    want = {"vertices": 5, "edges": [[0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [1, 4]],
            "designated_pair": [0, 1]}
    for g in (k23, k23.relabel({v: 2 * v + 3 for v in k23.vertices})):
        assert json.loads(json.dumps(graph_to_json(g))) == want


@st.composite
def random_graphs(draw):
    n = draw(st.integers(2, 7))
    slots = [(a, b) for a in range(n) for b in range(a + 1, n)]
    picks = draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots)))
    pair = draw(st.booleans())
    return Graph.from_edges(range(n), picks, (0, 1) if pair else None)


@given(random_graphs())
def test_text_roundtrip_property(g):
    assert parse_graph(format_graph(g)) == g.canonical_labels()


@given(random_graphs(), st.integers(1, 5))
def test_json_roundtrip_property(g, k):
    # g has the labels 0..n-1, so an increasing relabelling changes no record
    record = json.loads(json.dumps(graph_to_json(g.relabel({v: k * v + 1 for v in g.vertices}))))
    assert record["vertices"] == g.n
    assert record["edges"] == sorted([a, b] for a, b in g.edges)
    assert record["designated_pair"] == (list(g.designated_pair) if g.designated_pair else None)


def test_split_then_contract_recovers_host():
    # contracting the split pair undoes the split up to the uw edge
    g = Graph.complete(4)
    g2 = generalized_vertex_split(g, 0, (1,), (2, 3), 3, 4, 5)
    back = contract_pair(g2)
    relabeled = back.relabel({4: 0, 1: 1, 2: 2, 3: 3})
    assert relabeled.edges == g.edges | {(0, 3)} or relabeled.edges == g.edges
