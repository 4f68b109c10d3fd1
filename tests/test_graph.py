from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

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
    graph_from_json,
    graph_to_json,
    induced_edge_count,
    one_extension,
    parse_graph,
    vertex_to_four_cycle,
    vertex_to_h,
    zero_extension,
)


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
    assert induced_edge_count(g, [0, 1, 2]) == 3


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


def test_comments_and_blanks_ignored():
    g = parse_graph("# header\n\n3 1 0 1 # pair\n0 2\n")
    assert g.m == 1 and g.designated_pair == (0, 1)


def test_json_roundtrip(k23):
    blob = json.dumps(graph_to_json(k23))
    g = graph_from_json(blob)
    assert g.m == k23.m and g.designated_pair == (0, 1)


_RECORD = {"vertices": 3, "edges": [[0, 1], [1, 2]], "designated_pair": [0, 2]}


@pytest.mark.parametrize(
    "record",
    [
        {**_RECORD, "vertices": 2.7},  # was read as 2
        {**_RECORD, "vertices": -2},  # was read as the empty graph
        {**_RECORD, "vertices": True},
        {"edges": [[0, 1]]},  # missing key
        {"vertices": 3},
        {**_RECORD, "edges": [[0, 1, 2]]},  # edge of three numbers
        {**_RECORD, "edges": [[0, 1], [2]]},
        {**_RECORD, "designated_pair": [0]},  # one-element pair
        {**_RECORD, "edges": [["0", "1"]]},  # string vertex ids
        {**_RECORD, "edges": 7},
        {**_RECORD, "edges": [[0, 3]]},  # vertex out of range
        {**_RECORD, "edges": [[1, 1]]},  # loop
        {**_RECORD, "designated_pair": [1, 1]},
        [3, [[0, 1]]],  # not an object
        "[3]",
        "{not json",
        None,
    ],
    ids=lambda r: json.dumps(r) if not isinstance(r, str) else r,
)
def test_json_malformed_record_is_format_error(record):
    for form in [record] if isinstance(record, str) else [record, json.dumps(record)]:
        with pytest.raises(GraphFormatError):
            graph_from_json(form)


def test_json_valid_records_unchanged():
    assert graph_from_json(_RECORD) == Graph.from_edges(range(3), [(0, 1), (1, 2)], (0, 2))
    assert graph_from_json({"vertices": 0, "edges": []}) == Graph.from_edges([], [])
    assert graph_from_json({"vertices": 2, "edges": [], "designated_pair": None}).m == 0


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


@given(random_graphs())
def test_json_roundtrip_property(g):
    assert graph_from_json(graph_to_json(g)) == g.canonical_labels()


def test_split_then_contract_recovers_host():
    # contracting the split pair undoes the split up to the uw edge
    g = Graph.complete(4)
    g2 = generalized_vertex_split(g, 0, (1,), (2, 3), 3, 4, 5)
    back = contract_pair(g2)
    relabeled = back.relabel({4: 0, 1: 1, 2: 2, 3: 3})
    assert relabeled.edges == g.edges | {(0, 3)} or relabeled.edges == g.edges
