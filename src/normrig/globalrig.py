"""Certification of globally rigid construction sequences.

Two small graphs are globally rigid in every analytic normed plane:
K5 minus an edge, and H, the union of two K4s sharing an edge.  The
class stays globally rigid under edge additions, additions of a new
vertex with at least three neighbors, and generalized vertex splits
whose outcome G' satisfies a rigidity side condition.  Two regimes are
certified for every split:

* minus-pair regime: G' - uv is combinatorially rigid (the weakest
  side condition known to make a split preserve global rigidity);
* redundant regime:  G' is redundantly rigid (rigid after deleting any
  single edge), a stronger condition convenient for whole sequences.

Redundant rigidity of G' implies the minus-pair condition, since uv is
an edge of G'.  It is decided by one pebble game per split, not one per
edge: an edge can be deleted without losing rigidity exactly when it
lies in a circuit, and the game's rejections expose those circuits.
Global rigidity itself is not decided here — only the side conditions
of each construction step are checked.

Sequence files are line oriented::

    base H_GRAPH
    addedge 0 4
    addvertex 6: 0 1 2
    split 2 | 0 1 | 3 4 5 | 3 -> 7 8

'#' comments and blank lines are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import get_args

from .graph import (
    AddEdge,
    AddVertexWithNeighbors,
    ConstructionStep,
    GeneralizedVertexSplit,
    Graph,
    GraphError,
    apply_step,
    delete_edge,
    numbered_lines,
)
from .norms import LpPlane
from .sparsity import SparsityError, is_rigid_comb, pebble_game

BASE_TAGS = ("K5_MINUS_E", "H_GRAPH")


class SequenceError(ValueError):
    """Malformed construction sequence."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GenerationError(RuntimeError):
    """Random construction ran out of retries; carries the partial state."""

    def __init__(self, message: str, partial: "ConstructionSequence", graph: Graph):
        super().__init__(message)
        self.partial = partial
        self.graph = graph


def base_graph(tag: str) -> Graph:
    """K5_MINUS_E: K5 minus one edge.  H_GRAPH: two K4s sharing an edge."""
    if tag == "K5_MINUS_E":
        return Graph.from_edges(
            range(5),
            [(a, b) for a in range(5) for b in range(a + 1, 5) if (a, b) != (3, 4)],
        )
    if tag == "H_GRAPH":
        return Graph.from_edges(
            range(6),
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)],
        )
    raise SequenceError(f"unknown base tag {tag!r} (expected one of {BASE_TAGS})")


def is_redundantly_rigid_comb(g: Graph) -> bool:
    """Rigid, and still rigid after deleting any single edge.

    One (2,2) pebble game decides it: G must be rigid and no accepted
    edge a coloop, i.e. each lies in the fundamental circuit of some
    rejected edge f, which is f plus the accepted edges that f's reach
    set induces.  One vertex is rigid by convention, as in is_rigid_comb.
    """
    if g.n < 1:
        raise SparsityError("rigidity needs at least one vertex")
    res = pebble_game(g, 2, 2)
    if res.rank < 2 * g.n - 2:
        return False
    loose = res.accepted
    for reach in res.reaches:
        loose = [(a, b) for a, b in loose if a not in reach or b not in reach]
    return not loose


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------

_ALLOWED_STEPS = get_args(ConstructionStep)


@dataclass(frozen=True)
class ConstructionSequence:
    base: str
    steps: tuple[ConstructionStep, ...]

    def __post_init__(self):
        base_graph(self.base)  # validates the tag
        for i, step in enumerate(self.steps):
            if not isinstance(step, _ALLOWED_STEPS):
                raise SequenceError(
                    f"step {i}: {type(step).__name__} not allowed in sequences"
                )


@dataclass(frozen=True)
class StepVerdict:
    index: int
    step: ConstructionStep
    applied: bool
    error: str | None
    n_vertices: int | None
    edge_count: int | None
    # Split steps only; None for other kinds.
    minus_pair_rigid: bool | None = None
    redundantly_rigid: bool | None = None
    numeric_uv_rigid: bool | None = None


@dataclass(frozen=True)
class CertificateReport:
    sequence: ConstructionSequence
    steps: tuple[StepVerdict, ...]
    final_graph: Graph
    aborted_at: int | None
    pass_minus_pair_regime: bool
    pass_redundant_regime: bool

    @property
    def certified(self) -> bool:
        return self.pass_minus_pair_regime


def certify_sequence(
    seq: ConstructionSequence,
    numeric: bool = False,
    plane: LpPlane | None = None,
    trials: int = 10,
    seed: int | None = None,
) -> CertificateReport:
    """Replay a sequence from its base and check every hypothesis.

    Vertex additions need at least three distinct existing neighbors;
    splits get both regime verdicts (and, with numeric=True, a
    randomized uv-rank cross-check).  A step that fails to apply aborts
    the replay and fails both regimes.
    """
    g = base_graph(seq.base)
    verdicts: list[StepVerdict] = []
    aborted_at = None
    for i, step in enumerate(seq.steps):
        try:
            if isinstance(step, AddVertexWithNeighbors) and len(set(step.neighbors)) < 3:
                raise GraphError("vertex additions need at least 3 distinct neighbors")
            nxt = apply_step(g, step)
        except GraphError as exc:
            verdicts.append(StepVerdict(i, step, False, str(exc), None, None))
            aborted_at = i
            break
        minus_ok = red_ok = num_ok = None
        if isinstance(step, GeneralizedVertexSplit):
            minus_ok = is_rigid_comb(delete_edge(nxt, step.u, step.v))
            red_ok = is_redundantly_rigid_comb(nxt)
            if numeric:
                from .rigidity import uv_generic_rank

                num_ok = uv_generic_rank(
                    nxt, plane, trials=trials, seed=seed
                ).rigid
        verdicts.append(
            StepVerdict(i, step, True, None, nxt.n, nxt.m, minus_ok, red_ok, num_ok)
        )
        g = nxt
    splits = [v for v in verdicts if isinstance(v.step, GeneralizedVertexSplit) and v.applied]
    ok = aborted_at is None
    return CertificateReport(
        sequence=seq,
        steps=tuple(verdicts),
        final_graph=g,
        aborted_at=aborted_at,
        pass_minus_pair_regime=ok and all(v.minus_pair_rigid for v in splits),
        pass_redundant_regime=ok and all(v.redundantly_rigid for v in splits),
    )


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def format_step(step: ConstructionStep) -> str:
    if isinstance(step, AddEdge):
        return f"addedge {step.a} {step.b}"
    if isinstance(step, AddVertexWithNeighbors):
        return f"addvertex {step.z}: " + " ".join(str(x) for x in step.neighbors)
    if isinstance(step, GeneralizedVertexSplit):
        nu = " ".join(str(x) for x in step.n_u)
        nv = " ".join(str(x) for x in step.n_v)
        return f"split {step.z} | {nu} | {nv} | {step.w} -> {step.u} {step.v}"
    raise SequenceError(f"unsupported step {step!r}")


def format_sequence(seq: ConstructionSequence) -> str:
    return "\n".join([f"base {seq.base}"] + [format_step(s) for s in seq.steps]) + "\n"


def _ints(text: str, lineno: int) -> list[int]:
    try:
        return [int(tok) for tok in text.split()]
    except ValueError:
        raise SequenceError(f"non-integer token in {text!r}", lineno) from None


def parse_step(body: str, lineno: int | None = None) -> ConstructionStep:
    """One step line: 'addedge a b', 'addvertex z: ...' or 'split ...'."""
    kind, _, rest = body.strip().partition(" ")
    if kind == "addedge":
        nums = _ints(rest, lineno)
        if len(nums) != 2:
            raise SequenceError("addedge takes exactly two vertices", lineno)
        return AddEdge(*nums)
    if kind == "addvertex":
        head, colon, tail = rest.partition(":")
        if not colon:
            raise SequenceError("addvertex needs 'z: n1 n2 ...'", lineno)
        zs = _ints(head, lineno)
        if len(zs) != 1:
            raise SequenceError("addvertex needs a single vertex id", lineno)
        return AddVertexWithNeighbors(zs[0], tuple(_ints(tail, lineno)))
    if kind == "split":
        head, arrow, tail = rest.partition("->")
        if not arrow:
            raise SequenceError("split needs '-> u v'", lineno)
        fields = head.split("|")
        if len(fields) != 4:
            raise SequenceError("split needs 'z | Nu | Nv | w -> u v'", lineno)
        zs = _ints(fields[0], lineno)
        if len(zs) != 1:
            raise SequenceError("split needs a single vertex id", lineno)
        n_u = tuple(_ints(fields[1], lineno))
        n_v = tuple(_ints(fields[2], lineno))
        wlist = _ints(fields[3], lineno)
        uv = _ints(tail, lineno)
        if len(wlist) != 1 or len(uv) != 2:
            raise SequenceError(
                "split needs one w before '->' and two vertices after", lineno
            )
        return GeneralizedVertexSplit(zs[0], n_u, n_v, wlist[0], uv[0], uv[1])
    raise SequenceError(f"unknown step kind {kind!r}", lineno)


def parse_sequence(text: str) -> ConstructionSequence:
    rows = numbered_lines(text)
    if not rows:
        raise SequenceError("empty sequence file")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "base":
        raise SequenceError("header must be 'base <TAG>'", lineno)
    base = parts[1]
    base_graph(base)  # validate tag early, with a line number on failure
    steps = [parse_step(body, lineno) for lineno, body in rows[1:]]
    return ConstructionSequence(base, tuple(steps))


# ---------------------------------------------------------------------------
# random generation
# ---------------------------------------------------------------------------


def random_certified_graph(
    target_size: int,
    seed: int,
    base: str = "K5_MINUS_E",
    split_prob: float = 0.6,
    edge_prob: float = 0.15,
    retries_per_step: int = 40,
) -> tuple[Graph, ConstructionSequence, CertificateReport]:
    """Grow a certified graph to target_size vertices.

    Each growth round optionally adds a random absent edge, then either
    a generalized vertex split (retried with fresh parameters until its
    minus-pair check passes) or a random degree-3 vertex addition.  The
    returned report always passes the minus-pair regime; exhausting the
    retry budget raises GenerationError carrying the partial sequence.
    """
    import numpy as np

    g = base_graph(base)
    if target_size < g.n:
        raise GraphError(f"target size {target_size} below base size {g.n}")
    rng = np.random.default_rng([seed, 0xC0])
    steps: list[ConstructionStep] = []

    def fresh(k: int) -> list[int]:
        top = max(g.vertices) + 1
        return [top + i for i in range(k)]

    while g.n < target_size:
        n_absent = g.n * (g.n - 1) // 2 - g.m
        if n_absent and rng.random() < edge_prob:
            absent = [
                (a, b)
                for i, a in enumerate(g.vertices)
                for b in g.vertices[i + 1 :]
                if not g.has_edge(a, b)
            ]
            a, b = absent[int(rng.integers(n_absent))]
            step: ConstructionStep = AddEdge(a, b)
            g = apply_step(g, step)
            steps.append(step)
            continue
        if rng.random() < split_prob:
            placed = False
            for _ in range(retries_per_step):
                z = int(rng.choice(g.vertices))
                nbrs = list(g.neighbors(z))
                side = rng.random(len(nbrs)) < 0.5
                n_u = tuple(x for x, s in zip(nbrs, side) if s)
                n_v = tuple(x for x, s in zip(nbrs, side) if not s)
                pool = [x for x in g.vertices if x != z and x not in n_u]
                if not pool:
                    continue
                w = int(rng.choice(pool))
                u, v = fresh(2)
                step = GeneralizedVertexSplit(z, n_u, n_v, w, u, v)
                nxt = apply_step(g, step)
                if is_rigid_comb(delete_edge(nxt, u, v)):
                    g = nxt
                    steps.append(step)
                    placed = True
                    break
            if not placed:
                partial = ConstructionSequence(base, tuple(steps))
                raise GenerationError(
                    f"no certifiable split found in {retries_per_step} tries "
                    f"at {g.n} vertices",
                    partial,
                    g,
                )
        else:
            z = fresh(1)[0]
            nbrs = rng.choice(g.vertices, size=3, replace=False)
            step = AddVertexWithNeighbors(z, tuple(int(x) for x in sorted(nbrs)))
            g = apply_step(g, step)
            steps.append(step)

    seq = ConstructionSequence(base, tuple(steps))
    report = certify_sequence(seq)
    assert report.pass_minus_pair_regime  # every split was gated on this
    return g, seq, report
