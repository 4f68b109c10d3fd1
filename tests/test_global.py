"""Construction sequences and the two certification regimes.

A sequence certifies under the minus-pair regime when every generalized
vertex split leaves G' - uv rigid, and under the redundant regime when
every split result is redundantly rigid.  The bundled reference
sequences must certify under both and end at 7 vertices, 13 edges.
"""
from __future__ import annotations

import collections
import dataclasses
import hashlib
import itertools
import sys

import numpy as np
import pytest

from normrig import globalrig, sparsity
from normrig.globalrig import (
    BASE_TAGS,
    CertificateReport,
    ConstructionSequence,
    GenerationError,
    SequenceError,
    StepVerdict,
    base_graph,
    certify_sequence,
    format_sequence,
    format_step,
    is_redundantly_rigid_comb,
    parse_sequence,
    parse_step,
    random_certified_graph,
)
from normrig.graph import (
    AddEdge,
    AddVertexWithNeighbors,
    GeneralizedVertexSplit,
    Graph,
    GraphError,
    apply_step,
    delete_edge,
)
from normrig.rigidity import RigidityError
from normrig.sparsity import SparsityError, circuit_parts, is_rigid_comb, pebble_game

SEQ_SPLIT = """base H_GRAPH
split 2 | 0 1 | 3 4 5 | 3 -> 6 7
"""

SEQ_ONE_EXT = """base H_GRAPH
split 2 | 1 | 0 3 4 5 | 5 -> 6 2
"""


def test_base_graphs():
    k5e = base_graph("K5_MINUS_E")
    assert (k5e.n, k5e.m) == (5, 9)
    h = base_graph("H_GRAPH")
    assert (h.n, h.m) == (6, 11)
    for tag in BASE_TAGS:
        g = base_graph(tag)
        assert is_rigid_comb(g)
        assert is_redundantly_rigid_comb(g)
    with pytest.raises(SequenceError):
        base_graph("K4")


def test_redundant_rigidity_pinned():
    assert not is_redundantly_rigid_comb(Graph.complete(4))  # tight, no slack
    assert is_redundantly_rigid_comb(Graph.complete(5))
    assert not is_redundantly_rigid_comb(Graph.complete(3))
    assert is_redundantly_rigid_comb(Graph.from_edges([0], []))  # as is_rigid_comb
    with pytest.raises(SparsityError):
        is_redundantly_rigid_comb(Graph.from_edges([], []))


def redundant_oracle(g: Graph) -> bool:
    """Redundant rigidity by its definition: one rigidity test on G and
    one on G - e for every edge e."""
    return is_rigid_comb(g) and all(
        is_rigid_comb(delete_edge(g, a, b)) for a, b in g.sorted_edges()
    )


def split_oracle(g: Graph, step: GeneralizedVertexSplit) -> tuple[bool, bool]:
    """A split's (minus-pair, redundant) verdicts on its result g by their
    definitions: a rigidity test on g - uv, and redundant_oracle(g)."""
    return is_rigid_comb(delete_edge(g, step.u, step.v)), redundant_oracle(g)


def proposed_splits(size: int, seed: int, **settings) -> list[tuple[Graph, StepVerdict]]:
    """(G', verdict) of every split random_certified_graph(size, seed,
    **settings) checks, kept and rejected alike."""
    seen = []
    check = globalrig._check_step

    def recording_check(g, index, step, *args):
        nxt, verdict = check(g, index, step, *args)
        if isinstance(step, GeneralizedVertexSplit) and verdict.applied:
            seen.append((nxt, verdict))
        return nxt, verdict

    globalrig._check_step = recording_check
    try:
        random_certified_graph(size, seed, **settings)
    finally:
        globalrig._check_step = check
    return seen


def sequence_graphs(size: int, seed: int, deletions: int) -> list[Graph]:
    """Every prefix of a seeded random sequence, then `deletions`
    single-edge deletions of its final graph."""
    _, seq, _ = random_certified_graph(size, seed)
    g = base_graph(seq.base)
    graphs = [g]
    for step in seq.steps:
        g = apply_step(g, step)
        graphs.append(g)
    edges = g.sorted_edges()
    picks = np.random.default_rng(seed).choice(len(edges), deletions, replace=False)
    return graphs + [delete_edge(g, *edges[i]) for i in picks]


def _pairs(vs, skip=()):
    """Every edge between the vertices vs, less those in skip."""
    return [e for e in itertools.combinations(vs, 2) if e not in skip]


# Graphs where the rejections' reach sets cover only part of the graph
# (or, for the first, where there is no rejection at all).
PARTIAL_REACH = {
    # K4 with a pendant triangle on its edge 2-3: rigid, but every edge
    # is a coloop.
    "k4_pendant_triangle": (_pairs(range(4)) + [(2, 4), (3, 4)], False),
    # Vertex 0 on two vertices of a K5: rigid, but its two edges are coloops.
    "k5_pendant_vertex": ([(0, 1), (0, 2)] + _pairs(range(1, 6)), False),
    # Two K5 - e blocks through the cut {0, 1}, the missing edge of both.
    "two_blocks_2_cut": (
        _pairs((0, 1, 2, 3, 4), [(0, 1)]) + _pairs((0, 1, 5, 6, 7), [(0, 1)]), True
    ),
    # The same cut with two vertices on four edges as the second block:
    # no slack there, so those four edges are coloops.
    "block_and_tight_2_cut": (
        _pairs((0, 1, 2, 3, 4), [(0, 1)]) + [(0, 5), (1, 5), (0, 6), (5, 6)], False
    ),
    "k5": (_pairs(range(5)), True),
}


@pytest.mark.parametrize("name", PARTIAL_REACH)
def test_redundant_partial_reach_pinned(name):
    edges, expect = PARTIAL_REACH[name]
    g = Graph.from_edges(sorted({x for e in edges for x in e}), edges)
    assert is_redundantly_rigid_comb(g) is expect
    assert redundant_oracle(g) is expect


def test_redundant_equals_deletion_oracle(small_graphs):
    graphs = list(small_graphs)
    for seed in (7, 1729):
        graphs += sequence_graphs(16, seed, 10)
    for g in graphs:
        assert is_redundantly_rigid_comb(g) == redundant_oracle(g), sorted(g.edges)


@pytest.mark.parametrize("text", [SEQ_SPLIT, SEQ_ONE_EXT])
def test_reference_sequences_certify(text):
    seq = parse_sequence(text)
    report = certify_sequence(seq)
    assert report.aborted_at is None
    assert report.pass_minus_pair_regime
    assert report.pass_redundant_regime
    assert (report.final_graph.n, report.final_graph.m) == (7, 13)
    for sv in report.steps:
        assert sv.applied
        if isinstance(sv.step, GeneralizedVertexSplit):
            assert sv.minus_pair_rigid and sv.redundantly_rigid


def test_numeric_cross_check():
    seq = parse_sequence(SEQ_SPLIT)
    report = certify_sequence(seq, numeric=True, trials=6, seed=5)
    (sv,) = [s for s in report.steps if isinstance(s.step, GeneralizedVertexSplit)]
    assert sv.numeric_uv_rigid is True


@pytest.mark.parametrize("text", ["base K5_MINUS_E\n", SEQ_SPLIT], ids=["no-split", "split"])
@pytest.mark.parametrize("kwargs,message", [
    ({"trials": 0}, "need at least one trial"),
    ({"seed": -3}, "seed must be a non-negative integer"),
], ids=["trials", "seed"])
def test_numeric_flags_refused_before_replay(monkeypatch, text, kwargs, message):
    # with or without a split to check, as the CLI refuses them
    def no_replay(*args):
        raise AssertionError("step replayed")

    monkeypatch.setattr(globalrig, "_check_step", no_replay)
    with pytest.raises(RigidityError, match=message):
        certify_sequence(parse_sequence(text), numeric=True, **kwargs)


def test_bad_split_aborts():
    # w must avoid N_u: here 3 sits in N_u, so the step cannot apply
    seq = ConstructionSequence(
        "H_GRAPH",
        (GeneralizedVertexSplit(2, (0, 1, 3), (4, 5), 3, 6, 7),),
    )
    report = certify_sequence(seq)
    assert report.aborted_at == 0
    assert not report.steps[0].applied
    assert report.steps[0].error
    assert not report.pass_minus_pair_regime
    assert not report.pass_redundant_regime
    assert report.final_graph == base_graph("H_GRAPH")


def test_vertex_addition_needs_three_neighbors():
    seq = ConstructionSequence("K5_MINUS_E", (AddVertexWithNeighbors(5, (0, 1)),))
    report = certify_sequence(seq)
    assert report.aborted_at == 0
    assert "neighbor" in report.steps[0].error


def record_pebble_games(monkeypatch) -> list[tuple[tuple, list, int]]:
    """Patch PebbleState.offer to record each call: the vertices it adds,
    the edges it is offered, and how many vertices the game held."""
    calls = []
    offer = sparsity.PebbleState.offer

    def recording(self, edges, verts=()):
        calls.append((tuple(verts), list(edges), len(self.pebbles)))
        return offer(self, edges, verts)

    monkeypatch.setattr(sparsity.PebbleState, "offer", recording)
    return calls


def split_offers(g: Graph, step: GeneralizedVertexSplit) -> tuple[set, tuple[int, int]]:
    """The replacement edges of a split of g, less uv, and uv."""
    nxt = apply_step(g, step)
    uv = tuple(sorted((step.u, step.v)))
    return {e for e in nxt.edges if {step.u, step.v} & set(e)} - {uv}, uv


def test_redundancy_tested_only_where_minus_pair_holds(monkeypatch):
    # Both regimes come from the one carried game, even where G' - uv is
    # flexible: a full game on the base, then one resumed call that offers
    # the rejected edge whose reach set held z, z's replacement edges, and
    # uv last.
    base = base_graph("K5_MINUS_E")
    (rejected,) = set(base.edges) - set(pebble_game(base).accepted)
    calls = record_pebble_games(monkeypatch)
    step = GeneralizedVertexSplit(3, (), (0, 1, 2), 0, 5, 6)
    (sv,) = certify_sequence(ConstructionSequence("K5_MINUS_E", (step,))).steps
    assert (sv.minus_pair_rigid, sv.redundantly_rigid) == (False, False)
    assert calls == [
        (base.vertices, base.sorted_edges(), 0),
        ((5, 6), [rejected, (0, 5), (0, 6), (1, 6), (2, 6), (5, 6)], 4),
    ]


def test_one_pebble_game_per_applied_split(monkeypatch):
    # One full game on the base, then one resumed call per applied step
    # that offers only the step's new edges, and for a split also the
    # re-offered rejected edges, with uv last.  The failed split makes none.
    g, seq, _ = random_certified_graph(16, 3, edge_prob=0.6)
    z = max(g.vertices)  # empty sides cannot partition its neighbourhood
    stray = GeneralizedVertexSplit(z, (), (), 0, 98, 99)
    seq = ConstructionSequence(seq.base, seq.steps + (stray,))
    calls = record_pebble_games(monkeypatch)
    report = certify_sequence(seq)
    assert {type(sv.step) for sv in report.steps} == {
        AddEdge, AddVertexWithNeighbors, GeneralizedVertexSplit
    }
    assert report.aborted_at == len(seq.steps) - 1
    applied = [sv for sv in report.steps if sv.applied]
    assert len(calls) == 1 + len(applied) == len(seq.steps)
    g = base_graph(seq.base)
    assert calls[0] == (g.vertices, g.sorted_edges(), 0)
    reoffered = 0
    for sv, (verts, edges, held) in zip(applied, calls[1:]):
        step, nxt = sv.step, apply_step(g, sv.step)
        assert held == g.n - isinstance(step, GeneralizedVertexSplit)
        if isinstance(step, GeneralizedVertexSplit):
            new, uv = split_offers(g, step)
            assert verts == (step.u, step.v) and edges[-1] == uv
            again = set(edges[:-1]) - new
            assert new <= set(edges) and len(edges) == len(new) + len(again) + 1
            assert again <= g.edges and not any(step.z in e for e in again)
            reoffered += len(again)
        else:
            assert sorted(edges) == sorted(nxt.edges - g.edges)
            assert verts == ((step.z,) if isinstance(step, AddVertexWithNeighbors) else ())
        g = nxt
    assert reoffered > 0
    assert sum(len(edges) for _, edges, _ in calls[1:]) < sum(sv.edge_count for sv in applied)


# Splits of K5_MINUS_E: (steps, where uv sits in the pebble game on G',
# expected verdicts).  The last two follow a first split that leaves vertex 5
# on two edges, so G' has coloops other than uv.
HAND_SPLITS = {
    "rejected": ("split 0 | 1 | 2 3 4 | 2 -> 5 6", "rejected", (True, True)),
    "in-reach": ("split 0 | 1 | 2 3 4 | 2 -> 0 5", "in-reach", (True, True)),
    "in-reach-u-above-v": ("split 0 | 1 | 2 3 4 | 2 -> 5 0", "in-reach", (True, True)),
    "coloop": ("split 0 | | 1 2 3 4 | 1 -> 5 6", "coloop", (False, False)),
    "coloop-u-above-v": ("split 0 | | 1 2 3 4 | 1 -> 5 0", "coloop", (False, False)),
    "flexible": ("split 3 | 0 1 2 | | 4 -> 5 6", "flexible", (False, False)),
    "rejected-other-coloops": (
        "split 0 | | 1 2 3 4 | 1 -> 5 6\nsplit 2 | 1 | 3 4 6 | 3 -> 7 8", "rejected", (True, False)
    ),
    "in-reach-other-coloops": (
        "split 0 | | 1 2 3 4 | 1 -> 5 6\nsplit 2 | 1 | 3 4 6 | 3 -> 7 2", "in-reach", (True, False)
    ),
}


def uv_branch(g: Graph, u: int, v: int) -> str:
    """Where the pair edge uv sits in the (2,2) pebble game on g."""
    res = pebble_game(g, 2, 2)
    if res.rank < 2 * g.n - 2:
        return "flexible"
    if (min(u, v), max(u, v)) not in res.accepted:
        return "rejected"
    if any(u in reach and v in reach for reach in res.reaches):
        return "in-reach"
    return "coloop"


@pytest.mark.parametrize("name", HAND_SPLITS)
def test_hand_split_verdicts_equal_oracle(name):
    text, branch, expect = HAND_SPLITS[name]
    report = certify_sequence(parse_sequence("base K5_MINUS_E\n" + text + "\n"))
    sv = report.steps[-1]
    g = report.final_graph
    assert uv_branch(g, sv.step.u, sv.step.v) == branch
    assert (sv.minus_pair_rigid, sv.redundantly_rigid) == expect == split_oracle(g, sv.step)


def test_proposed_split_verdicts_equal_oracle():
    seen = set()
    # The generator does not check a split that leaves u or v on one edge of
    # G' - uv, so a checked split rarely fails; the split-only sequence of
    # seed 33 holds one that does.
    runs = [proposed_splits(size, seed) for size, seed in itertools.product((8, 12, 16), range(4))]
    runs.append(proposed_splits(16, 33, split_prob=1.0, edge_prob=0.0))
    for g, sv in itertools.chain(*runs):
        verdict = (sv.minus_pair_rigid, sv.redundantly_rigid)
        assert verdict == split_oracle(g, sv.step), sv
        seen.add(verdict)
    # The generator's graphs stay redundantly rigid, so (True, False) comes
    # only from HAND_SPLITS.
    assert seen == {(True, True), (False, False)}


def random_unchecked_sequence(base: str, count: int, seed: int) -> ConstructionSequence:
    """count random steps from base that apply but are not checked: edge
    additions, vertex additions on three neighbours, and splits with random
    sides and w, where u takes z's label one time in four.  Many splits
    fail, and the graph may turn flexible."""
    rng = np.random.default_rng([seed, 0x5E])
    g = base_graph(base)
    steps = []
    while len(steps) < count:
        kind = rng.integers(4)
        absent = [e for e in itertools.combinations(g.vertices, 2) if e not in g.edges]
        if kind == 0 and absent:
            step = AddEdge(*absent[rng.integers(len(absent))])
        elif kind == 1:
            nbrs = rng.choice(g.vertices, 3, replace=False)
            step = AddVertexWithNeighbors(max(g.vertices) + 1, tuple(int(x) for x in nbrs))
        else:
            z = int(rng.choice(g.vertices))
            side = rng.random(g.degree(z)) < 0.5
            n_u = tuple(x for x, s in zip(g.neighbors(z), side) if s)
            n_v = tuple(x for x, s in zip(g.neighbors(z), side) if not s)
            pool = [x for x in g.vertices if x != z and x not in n_u]
            if not pool:
                continue
            w = int(rng.choice(pool))
            fresh = max(g.vertices) + 1
            u = z if rng.random() < 0.25 else fresh + 1
            step = GeneralizedVertexSplit(z, n_u, n_v, w, u, fresh)
        g = apply_step(g, step)
        steps.append(step)
    return ConstructionSequence(base, tuple(steps))


def unchecked_splits(base: str, count: int, seed: int) -> list[tuple[tuple, tuple]]:
    """(certified, oracle) verdicts of every split of
    random_unchecked_sequence(base, count, seed)."""
    report = certify_sequence(random_unchecked_sequence(base, count, seed))
    assert report.aborted_at is None
    g, out = base_graph(base), []
    for sv in report.steps:
        g = apply_step(g, sv.step)
        if isinstance(sv.step, GeneralizedVertexSplit):
            out.append(((sv.minus_pair_rigid, sv.redundantly_rigid), split_oracle(g, sv.step)))
    assert report.final_graph == g
    return out


def test_unchecked_split_verdicts_equal_oracle(monkeypatch):
    # The carried game's verdicts on splits that pass and fail alike, on
    # graphs that may be flexible, and with rejected edges whose reach set
    # held z re-offered.
    drop, reoffered = sparsity.PebbleState.drop_vertex, []

    def counting_drop(self, z, nbrs):
        again = drop(self, z, nbrs)
        reoffered.append(len(again))
        return again

    monkeypatch.setattr(sparsity.PebbleState, "drop_vertex", counting_drop)
    seen = collections.Counter()
    for base, seed in itertools.product(BASE_TAGS, range(8)):
        for fast, slow in unchecked_splits(base, 10, seed):
            assert fast == slow, (base, seed)
            seen[slow] += 1
    assert set(seen) == {(True, True), (True, False), (False, False)}
    assert sum(reoffered) > 0


def test_split_without_regimes_fails_cleanly():
    # an empty n_u side leaves u with degree 2, so G' - uv loses rigidity:
    # the step applies but certification fails under both regimes
    seq = ConstructionSequence(
        "K5_MINUS_E",
        (GeneralizedVertexSplit(3, (), (0, 1, 2), 0, 5, 6),),
    )
    report = certify_sequence(seq)
    assert report.aborted_at is None
    sv = report.steps[0]
    assert sv.applied
    assert sv.minus_pair_rigid is False
    assert sv.redundantly_rigid is False
    assert report.pass_minus_pair_regime is False
    assert report.pass_redundant_regime is False


@pytest.mark.parametrize("op,args,error,message", [
    (ConstructionSequence, ("H_GRAPH", (AddEdge(0, 4), "frob")), SequenceError,
     "step 1: str not allowed in sequences"),
    (format_step, ("frob",), SequenceError, "unsupported step 'frob'"),
    (random_certified_graph, (4, 0), GraphError, "target size 4 below base size 5"),
])
def test_bad_input_messages(op, args, error, message):
    with pytest.raises(error) as e:
        op(*args)
    assert str(e.value) == message


def test_sequence_round_trip():
    for text in (SEQ_SPLIT, SEQ_ONE_EXT):
        seq = parse_sequence(text)
        assert parse_sequence(format_sequence(seq)) == seq
    empty = ConstructionSequence("K5_MINUS_E", ())
    assert parse_sequence(format_sequence(empty)) == empty
    rep = certify_sequence(empty)
    assert rep.pass_minus_pair_regime and rep.final_graph == base_graph("K5_MINUS_E")


def test_format_step_grammar():
    assert format_step(AddEdge(1, 2)) == "addedge 1 2"
    assert format_step(AddVertexWithNeighbors(6, (0, 2, 4))) == "addvertex 6: 0 2 4"
    s = GeneralizedVertexSplit(2, (0, 1), (3, 4, 5), 3, 6, 7)
    assert format_step(s) == "split 2 | 0 1 | 3 4 5 | 3 -> 6 7"
    assert parse_step(format_step(s)) == s


def test_parse_errors_carry_line_numbers():
    with pytest.raises(SequenceError, match="line 1"):
        parse_sequence("split 2 | 0 | 1 | 0 -> 5 6\n")  # missing base header
    with pytest.raises(SequenceError, match="line 3"):
        parse_sequence("base H_GRAPH\n# fine\nfrobnicate 1 2\n")
    with pytest.raises(SequenceError, match="line 2"):
        parse_sequence("base H_GRAPH\nsplit 2 | 0 1 | 3 | 3 ->\n")
    with pytest.raises(SequenceError, match="^line 2: unknown base tag 'FOO'") as err:
        parse_sequence("# hi\nbase FOO\naddedge 0 1\n")
    assert err.value.line == 2
    with pytest.raises(SequenceError):
        parse_sequence("")


def test_comments_and_blanks_skipped():
    text = "# built by hand\nbase H_GRAPH\n\n# the only step\n" + SEQ_SPLIT.splitlines()[1] + "\n"
    assert parse_sequence(text) == parse_sequence(SEQ_SPLIT)


def test_random_certified_graph_deterministic():
    a = random_certified_graph(9, seed=4)
    b = random_certified_graph(9, seed=4)
    assert a[0] == b[0]
    assert a[1] == b[1]


@pytest.mark.parametrize("target,base", [(8, "K5_MINUS_E"), (9, "H_GRAPH")])
def test_random_certified_graph_properties(target, base):
    g, seq, report = random_certified_graph(target, seed=11, base=base)
    assert isinstance(report, CertificateReport)
    assert g.n == target
    assert report.pass_minus_pair_regime
    assert is_rigid_comb(g)
    # re-certification from scratch agrees
    again = certify_sequence(seq)
    assert again.final_graph == g
    assert again.pass_minus_pair_regime


def test_random_certified_graph_trivial_target():
    g, seq, _ = random_certified_graph(6, seed=0, base="H_GRAPH")
    assert seq.steps == ()
    assert g == base_graph("H_GRAPH")


# sha256 of the sequence text of random_certified_graph(40, seed,
# edge_prob=0.6), captured when each edge round listed every absent pair
DENSE_SEQUENCE_SHA256 = {
    0: "5c75929a43f7cca7c9e7fe8ba408f0dbedff98ef4e11df3c8b6e7e51a5b7945a",
    1: "e897c510aaf82fe55f562251fe3efb8a4674c807c975d076040d5c506a7c8f8a",
    2: "ac82da7b2b8ebe63c2f20032f21e70ed1646b445d97ec339efd1c7794b795b79",
    3: "d8bf4f212534cc87f5681172ad668dc66844341bc0c01af673c1578dee29ff3c",
    4: "787f654c33d4c5c43eb0e2986d3a7a841a7482a52b63163ef624fe4798adff61",
}


@pytest.mark.parametrize("seed", sorted(DENSE_SEQUENCE_SHA256))
def test_edge_draws_pinned(seed):
    _, seq, _ = random_certified_graph(40, seed, edge_prob=0.6)
    digest = hashlib.sha256(format_sequence(seq).encode()).hexdigest()
    assert digest == DENSE_SEQUENCE_SHA256[seed]


# sha256 of the sequence text of random_certified_graph(100, seed) at the
# default rates, captured when each edge round updated carried row counts
DEFAULT_SEQUENCE_SHA256 = {
    0: "0acb849251a8d9dfc202557c1fbbd291007da9cb7fe4eed86af055a975f5d239",
    1: "39659f4a4120a3267315bd72a930c45a1179fefc0baff40d04f06472211cb490",
    2: "281d746caadf6104ee969d787154edd7d4db47c1b0907a62174ed0a3ac8b076d",
    3: "3b225db0eecc7c59fe24668f722150f29cc8a07afc0f281e02b01aa935e648c2",
}


@pytest.mark.parametrize("seed", sorted(DEFAULT_SEQUENCE_SHA256))
def test_default_draws_pinned(seed):
    _, seq, _ = random_certified_graph(100, seed)
    digest = hashlib.sha256(format_sequence(seq).encode()).hexdigest()
    assert digest == DEFAULT_SEQUENCE_SHA256[seed]


# sha256 of the sequence text of random_certified_graph(40, seed,
# split_prob=1.0, edge_prob=0.0), captured when each split drew z and w
# with Generator.choice
SPLIT_SEQUENCE_SHA256 = {
    0: "38fd189b4037659b8afdf5f94e2246ee3ae09ddd9cd4aaa207e009e300ffa9a8",
    1: "16c7bfb4df0e8ad937f174a6e1fdaf731f30949ec6f8d11c9c1d9d72b2cea033",
    2: "e724d717a55dbeadbee52bcbe428bb038745d68ceeca837025cc15541468aec9",
    3: "346351d954cbedfcb061367cc5de69ba9cad8334902de7b627521f6eb02b1323",
    4: "b3e7943bdb680ff3f3f9cf41558e2b2582c92f184c7540f583a3341774339c51",
}


@pytest.mark.parametrize("seed", sorted(SPLIT_SEQUENCE_SHA256))
def test_split_draws_pinned(seed):
    _, seq, _ = random_certified_graph(40, seed, split_prob=1.0, edge_prob=0.0)
    digest = hashlib.sha256(format_sequence(seq).encode()).hexdigest()
    assert digest == SPLIT_SEQUENCE_SHA256[seed]


GENERATOR_SETTINGS = {
    "default": {},
    "split-only": {"split_prob": 1.0, "edge_prob": 0.0},
    "h-base": {"base": "H_GRAPH"},
}


@pytest.mark.parametrize("setting", GENERATOR_SETTINGS)
@pytest.mark.parametrize("size", [8, 16, 40])
def test_generator_report_is_certifiers(size, setting):
    for seed in range(10):
        g, seq, report = random_certified_graph(size, seed, **GENERATOR_SETTINGS[setting])
        assert report == certify_sequence(seq)
        assert report.final_graph == g


def same_game(game: sparsity.PebbleState, g: Graph) -> bool:
    """Whether the carried game holds g's vertices and edges, and its rank
    and coloops are those of a fresh game on g."""
    fresh = pebble_game(g)
    return (
        set(game.pebbles) == set(g.vertices)
        and set(game.accepted).isdisjoint(game.rejected)
        and set(game.accepted) | set(game.rejected) == g.edges
        and game.rank == fresh.rank
        and set(circuit_parts(game)[1]) == set(circuit_parts(fresh)[1])
    )


@pytest.mark.parametrize("setting", GENERATOR_SETTINGS)
def test_carried_game_equals_fresh_game(monkeypatch, setting):
    # Checked before and after every step, kept or not: a rejected proposal
    # that leaked into the generator's game would differ from g next time.
    check, steps = globalrig._check_step, []

    def checking(g, index, step, game, *args):
        assert same_game(game, g), step
        nxt, verdict = check(g, index, step, game, *args)
        assert same_game(game, nxt), step
        steps.append(step)
        return nxt, verdict

    monkeypatch.setattr(globalrig, "_check_step", checking)
    for seed in range(4):
        _, seq, _ = random_certified_graph(24, seed, **GENERATOR_SETTINGS[setting])
        certify_sequence(seq)
    assert GeneralizedVertexSplit in {type(step) for step in steps}


def game_snapshot(game: sparsity.PebbleState) -> tuple:
    """Free pebbles, out-lists, and accepted and rejected edges in order."""
    return (
        dict(game.pebbles), {x: list(ys) for x, ys in game.out.items()},
        list(game.accepted), list(game.rejected.items()),
    )


# sha256 of the sequence text of random_certified_graph(40, seed,
# split_prob=1.0, edge_prob=0.0), captured when each split was checked on
# a copy of the carried game; each of these seeds drops one checked split
DROPPED_SPLIT_SEQUENCE_SHA256 = {
    33: "018308819b36be33f5f286815cf2b8ae399eaf1107c3450366d11d2515cba699",
    53: "8c8aa51771230a9a6fb5edd172a0f42044df5dd2d1bd21931ae4a74b2325628a",
    76: "0c2353f58cc36d34ddda746ef9ffdd158baa2944400203103bd614de72009d0c",
    90: "7844a22acf1d80a1a2ac453e47f7444f88f93a9b8c8ffe91211094587c30d4bb",
    91: "3779baca771c9b763a51a9c732afe80bf9dbb8ce7f1071b0f935f5e2910f1985",
}


def test_dropped_split_rebuilds_carried_game(monkeypatch):
    # The generator checks each split on its carried game itself.  A split
    # it drops leaves that game on G', so the next step check must be handed
    # the game of g again, and the sequence must be the one drawn before.
    check = globalrig._check_step
    dropped, after_drop = [], []

    def checking(g, index, step, game, *args):
        if len(after_drop) < len(dropped):
            assert same_game(game, g), step
            after_drop.append(step)
        nxt, verdict = check(g, index, step, game, *args)
        if verdict.minus_pair_rigid is False:
            dropped.append(step)
        return nxt, verdict

    monkeypatch.setattr(globalrig, "_check_step", checking)
    for seed, digest in DROPPED_SPLIT_SEQUENCE_SHA256.items():
        _, seq, _ = random_certified_graph(40, seed, split_prob=1.0, edge_prob=0.0)
        assert hashlib.sha256(format_sequence(seq).encode()).hexdigest() == digest
    assert len(dropped) == len(after_drop) == 5


def carried_game(seq: ConstructionSequence) -> tuple[Graph, sparsity.PebbleState]:
    """The graph and the carried pebble game after _check_step has run
    every step of seq."""
    g = base_graph(seq.base)
    game = sparsity.PebbleState(g)
    for i, step in enumerate(seq.steps):
        g, _ = globalrig._check_step(g, i, step, game)
    return g, game


@pytest.mark.parametrize("seed", range(3))
def test_split_repair_ignores_partition_order(seed):
    # A split drops z's edges as its own n_u and n_v list them.  Listed in
    # reverse, or with their first vertex repeated, they must certify to the
    # same report and leave the same carried game as the sorted lists, on
    # kept splits that re-offer rejected edges and on unchecked splits that
    # pass or fail.
    for seq in (random_certified_graph(30, seed)[1],
                random_unchecked_sequence("H_GRAPH", 20, seed)):
        for edit in (lambda part: part[::-1], lambda part: part + part[:1]):
            edited = ConstructionSequence(seq.base, tuple(
                dataclasses.replace(s, n_u=edit(s.n_u), n_v=edit(s.n_v))
                if isinstance(s, GeneralizedVertexSplit) else s
                for s in seq.steps
            ))
            assert edited != seq
            report = certify_sequence(edited)
            steps = tuple(dataclasses.replace(v, step=s) for v, s in zip(report.steps, seq.steps))
            assert dataclasses.replace(report, sequence=seq, steps=steps) == certify_sequence(seq)
            (g, game), (g2, game2) = carried_game(seq), carried_game(edited)
            assert g2 == g and same_game(game2, g2)
            assert game_snapshot(game2) == game_snapshot(game)


def test_generator_applies_each_step_once(monkeypatch):
    seen = []  # the step objects themselves, so no id is reused while held

    def recording_apply_step(g, step):
        seen.append(step)
        return apply_step(g, step)

    monkeypatch.setattr(globalrig, "apply_step", recording_apply_step)
    for seed in range(4):
        seen.clear()
        _, seq, _ = random_certified_graph(16, seed, split_prob=1.0, edge_prob=0.0)
        assert len({id(step) for step in seen}) == len(seen) >= len(seq.steps)


def test_generation_error_carries_partial(monkeypatch):
    monkeypatch.setattr(globalrig, "_SPLIT_TRIES", 0)
    with pytest.raises(GenerationError, match="no certifiable split found in 0 tries at 5") as ei:
        random_certified_graph(7, seed=0, base="K5_MINUS_E", split_prob=1.0)
    assert certify_sequence(ei.value.partial).final_graph.n == 5


if __name__ == "__main__":
    # The full oracle set, too slow for tier-1: every prefix of 20 seeded
    # 40-vertex sequences plus 30 single-edge deletions of each final graph,
    # every split proposed while growing those sequences, kept and rejected
    # alike, and every split of 100 random unchecked 30-step sequences from
    # each base.  Run as `PYTHONPATH=src python3 tests/test_global.py`;
    # exits 1 on any mismatch.
    graphs = [g for seed in range(20) for g in sequence_graphs(40, seed, 30)]
    verdicts = [(is_redundantly_rigid_comb(g), redundant_oracle(g)) for g in graphs]
    mismatches = sum(fast != slow for fast, slow in verdicts)
    print(
        f"graphs {len(graphs)} "
        f"mismatches {mismatches} "
        f"non-redundant {sum(not slow for _, slow in verdicts)}"
    )
    split_mismatches = 0
    for name, splits in (
        ("splits", [
            ((sv.minus_pair_rigid, sv.redundantly_rigid), split_oracle(g, sv.step))
            for seed in range(20)
            for g, sv in proposed_splits(40, seed)
        ]),
        ("unchecked-splits", [
            pair for base in BASE_TAGS for seed in range(100)
            for pair in unchecked_splits(base, 30, seed)
        ]),
    ):
        split_mismatches += sum(fast != slow for fast, slow in splits)
        print(
            f"{name} {len(splits)} "
            f"mismatches {sum(fast != slow for fast, slow in splits)} "
            f"kept {sum(slow[0] for _, slow in splits)} "
            f"redundant {sum(slow[1] for _, slow in splits)}"
        )
    sys.exit(1 if mismatches or split_mismatches else 0)
