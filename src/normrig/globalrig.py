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

Both come from one pebble game carried through the whole sequence
(sparsity.PebbleState): an edge can be deleted without losing rigidity
exactly when it lies in a circuit, and sparsity.circuit_parts reads the
coloops (edges in no circuit) off the game.  So G' - uv is rigid when
G' is rigid and uv is not a coloop, and G' is redundantly rigid when it
is rigid and has no coloop.  An edge or vertex addition offers the game
only its new edges.  A split drops z and the edges to its own partition
of N(z), offers the rejected edges whose reach set held z, then z's
replacement edges, and uv last; every other rejected edge keeps its
fundamental circuit, which avoids z.  The edges accepted before uv are
then a basis of G' - uv.  Global rigidity itself is not decided here:
one routine, run by certify_sequence and random_certified_graph alike,
checks the side conditions of every step, so a generated sequence's
report is that routine's; certify_sequence alone adds the numeric check.

Sequence files are line oriented::

    base H_GRAPH
    addedge 0 4
    addvertex 6: 0 1 2
    split 2 | 0 1 | 3 4 5 | 3 -> 7 8

'#' comments and blank lines are ignored.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, get_args

from .graph import (
    AddEdge,
    AddVertexWithNeighbors,
    ConstructionStep,
    GeneralizedVertexSplit,
    Graph,
    GraphError,
    InputError,
    apply_step,
    norm_edge,
    numbered_lines,
)
from .sparsity import PebbleState, SparsityError, circuit_parts, pebble_game

if TYPE_CHECKING:
    from .norms import LpPlane

BASE_TAGS = ("K5_MINUS_E", "H_GRAPH")


class SequenceError(InputError):
    """Malformed construction sequence."""


class GenerationError(RuntimeError):
    """Random construction ran out of retries; carries the partial state."""

    def __init__(self, message: str, partial: "ConstructionSequence"):
        super().__init__(message)
        self.partial = partial


def base_graph(tag: str, lineno: int | None = None) -> Graph:
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
    raise SequenceError(f"unknown base tag {tag!r} (expected one of {BASE_TAGS})", lineno)


def is_redundantly_rigid_comb(g: Graph) -> bool:
    """Rigid, and still rigid after deleting any single edge: rigid with
    no coloop, read by circuit_parts from one (2,2) pebble game.  One
    vertex is rigid by convention, as in is_rigid_comb."""
    if g.n < 1:
        raise SparsityError("rigidity needs at least one vertex")
    res = pebble_game(g, 2, 2)
    return res.rank == 2 * g.n - 2 and not circuit_parts(res)[1]


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


def _check_step(
    g: Graph, index: int, step: ConstructionStep, game: PebbleState
) -> tuple[Graph, StepVerdict]:
    """The graph after one step (g if it fails to apply) and its verdict.

    game, the pebble game on g, is carried onto the new graph in place, or
    left as it was if the step fails to apply.  A split drops the edges to
    the set of its n_u and n_v; both regimes read the coloops of G'.
    """
    try:
        if isinstance(step, AddVertexWithNeighbors) and len(set(step.neighbors)) < 3:
            raise GraphError("vertex additions need at least 3 distinct neighbors")
        nxt = apply_step(g, step)
    except GraphError as exc:
        return g, StepVerdict(index, step, False, str(exc), None, None)
    minus_ok = red_ok = None
    if isinstance(step, AddEdge):
        game.offer([norm_edge(step.a, step.b)])
    elif isinstance(step, AddVertexWithNeighbors):
        game.offer([norm_edge(step.z, y) for y in step.neighbors], (step.z,))
    else:
        u, v = step.u, step.v
        again = game.drop_vertex(step.z, {*step.n_u, *step.n_v})
        new = [norm_edge(u, y) for y in sorted({*step.n_u, step.w})]
        new += [norm_edge(v, y) for y in sorted(set(step.n_v))]
        uv = norm_edge(u, v)
        # The freed rejects go first, while z's old neighbours hold its
        # pebbles: the reach sets found then are smaller, so fewer of them
        # hold a later split vertex.  uv comes last, so the edges accepted
        # before it are a basis of G' - uv.
        game.offer(again + new + [uv], (u, v))
        minus_ok = game.rank - (uv in game.accepted) == 2 * nxt.n - 2
        red_ok = minus_ok and not circuit_parts(game)[1]
    return nxt, StepVerdict(index, step, True, None, nxt.n, nxt.m, minus_ok, red_ok)


def _report(seq: ConstructionSequence, verdicts: list[StepVerdict], g: Graph) -> CertificateReport:
    """The report on seq from its checked steps' verdicts, ending at graph g."""
    aborted_at = next((v.index for v in verdicts if not v.applied), None)
    splits = [v for v in verdicts if isinstance(v.step, GeneralizedVertexSplit) and v.applied]
    ok = aborted_at is None
    return CertificateReport(
        seq, tuple(verdicts), g, aborted_at,
        pass_minus_pair_regime=ok and all(v.minus_pair_rigid for v in splits),
        pass_redundant_regime=ok and all(v.redundantly_rigid for v in splits),
    )


def certify_sequence(
    seq: ConstructionSequence,
    numeric: bool = False,
    plane: LpPlane | None = None,
    trials: int = 10,
    seed: int | None = None,
) -> CertificateReport:
    """Replay a sequence from its base and check every hypothesis.

    Vertex additions need at least three distinct existing neighbors;
    splits get both regime verdicts from _check_step and, with numeric=True,
    a randomized uv-rigidity cross-check here, by rigidity.generic_ranks on
    G', settled: it stops after trial 0 when it reaches the rank cap.
    A step that fails to apply aborts the replay and fails both regimes.
    With numeric=True a negative seed or fewer than one trial is refused
    before anything is replayed, whether or not the sequence splits.
    """
    if numeric:
        # imports numpy, which counting never needs
        from .rigidity import RigidityError, generic_ranks, resolve_seed

        seed = resolve_seed(seed)
        if trials < 1:
            raise RigidityError("need at least one trial")

    g = base_graph(seq.base)
    game = PebbleState(g)
    verdicts: list[StepVerdict] = []
    for i, step in enumerate(seq.steps):
        g, verdict = _check_step(g, i, step, game)
        if numeric and verdict.applied and isinstance(step, GeneralizedVertexSplit):
            rigid = generic_ranks([g], [seed], True, plane, trials, settle=True)[0].rigid
            verdict = replace(verdict, numeric_uv_rigid=rigid)
        verdicts.append(verdict)
        if not verdict.applied:
            break
    return _report(seq, verdicts, g)


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


def parse_step(body: str, lineno: int | None = None) -> ConstructionStep:
    """One step line: 'addedge a b', 'addvertex z: ...' or 'split ...'."""
    body = body.strip()
    kind, *_ = body.split() or [""]  # the keyword ends at any whitespace run
    rest = body[len(kind):]

    def ints(text: str) -> list[int]:
        try:
            return [int(tok) for tok in text.split()]
        except ValueError:
            raise SequenceError(f"non-integer token in {body!r}", lineno) from None

    if kind == "addedge":
        nums = ints(rest)
        if len(nums) != 2:
            raise SequenceError("addedge takes exactly two vertices", lineno)
        return AddEdge(*nums)
    if kind == "addvertex":
        head, colon, tail = rest.partition(":")
        if not colon:
            raise SequenceError("addvertex needs 'z: n1 n2 ...'", lineno)
        zs = ints(head)
        if len(zs) != 1:
            raise SequenceError("addvertex needs a single vertex id", lineno)
        return AddVertexWithNeighbors(zs[0], tuple(ints(tail)))
    if kind == "split":
        head, arrow, tail = rest.partition("->")
        if not arrow:
            raise SequenceError("split needs '-> u v'", lineno)
        fields = head.split("|")
        if len(fields) != 4:
            raise SequenceError("split needs 'z | Nu | Nv | w -> u v'", lineno)
        zs = ints(fields[0])
        if len(zs) != 1:
            raise SequenceError("split needs a single vertex id", lineno)
        n_u, n_v, wlist, uv = (ints(text) for text in (*fields[1:], tail))
        if len(wlist) != 1 or len(uv) != 2:
            raise SequenceError("split needs one w before '->' and two vertices after", lineno)
        return GeneralizedVertexSplit(zs[0], tuple(n_u), tuple(n_v), wlist[0], *uv)
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
    base_graph(base, lineno)  # validate tag early, with a line number on failure
    steps = [parse_step(body, lineno) for lineno, body in rows[1:]]
    return ConstructionSequence(base, tuple(steps))


# ---------------------------------------------------------------------------
# random generation
# ---------------------------------------------------------------------------

# Proposals one growth round may make before a split counts as not found.
_SPLIT_TRIES = 40


def random_certified_graph(
    target_size: int,
    seed: int,
    base: str = "K5_MINUS_E",
    split_prob: float = 0.6,
    edge_prob: float = 0.15,
) -> tuple[Graph, ConstructionSequence, CertificateReport]:
    """Grow a certified graph to target_size vertices.

    Each growth round optionally adds a random absent edge, then either
    a generalized vertex split (retried with fresh parameters until its
    minus-pair check passes) or a random degree-3 vertex addition.  Each
    proposed step gets certify_sequence's step check, and the report is
    built from the kept steps' verdicts, so it is certify_sequence's
    report on the returned sequence and passes the minus-pair regime.
    An edge round draws k and adds the k-th absent pair in row-major
    order, skipping rows by their edge counts, read from the current graph.
    A split is checked on the carried pebble game itself; a dropped split
    (under 0.1% of the checked ones) leaves it on G', so the game is then
    rebuilt on g.  A split that leaves v fewer than two neighbours, or
    u no neighbour but w, in G' - uv cannot pass and is not checked; it
    is dropped after all its draws, so the random stream is unchanged.
    Scalar picks (a split's z and w) are index draws
    seq[rng.integers(len(seq))], the one draw Generator.choice(seq) makes;
    a vertex addition's three neighbours come from choice(..., replace=False).
    Exhausting the retry budget raises GenerationError with the partial
    sequence.
    """
    import numpy as np

    g = base_graph(base)
    if target_size < g.n:
        raise GraphError(f"target size {target_size} below base size {g.n}")
    rng = np.random.default_rng([seed, 0xC0])
    game = PebbleState(g)
    verdicts: list[StepVerdict] = []

    while g.n < target_size:
        n_absent = g.n * (g.n - 1) // 2 - g.m
        if n_absent and rng.random() < edge_prob:
            k = int(rng.integers(n_absent))  # the k-th absent pair, row-major
            upper = Counter(a for a, _ in g.edges)  # each row's edges to later vertices
            for i, a in enumerate(g.vertices):  # skip rows by their absent counts
                row = g.n - 1 - i - upper[a]
                if k < row:
                    break
                k -= row
            b = [x for x in g.vertices[i + 1 :] if not g.has_edge(a, x)][k]
            g, verdict = _check_step(g, len(verdicts), AddEdge(a, b), game)
            verdicts.append(verdict)
            continue
        if rng.random() < split_prob:
            for _ in range(_SPLIT_TRIES):
                z = g.vertices[int(rng.integers(g.n))]
                nbrs = list(g.neighbors(z))
                side = rng.random(len(nbrs)) < 0.5
                n_u = tuple(x for x, s in zip(nbrs, side) if s)
                n_v = tuple(x for x, s in zip(nbrs, side) if not s)
                pool = [x for x in g.vertices if x != z and x not in n_u]
                if not pool:
                    continue
                w = pool[int(rng.integers(len(pool)))]
                if len(n_v) < 2 or not n_u:
                    continue  # v, or u, would have degree 1 in G' - uv
                u = max(g.vertices) + 1
                step = GeneralizedVertexSplit(z, n_u, n_v, w, u, u + 1)
                nxt, verdict = _check_step(g, len(verdicts), step, game)
                if verdict.minus_pair_rigid:
                    g = nxt
                    verdicts.append(verdict)
                    break
                game = PebbleState(g)  # the game now holds nxt: start it afresh on g
            else:
                raise GenerationError(
                    f"no certifiable split found in {_SPLIT_TRIES} tries "
                    f"at {g.n} vertices",
                    ConstructionSequence(base, tuple(v.step for v in verdicts)),
                )
        else:
            z = max(g.vertices) + 1
            nbrs = rng.choice(g.vertices, size=3, replace=False)
            step = AddVertexWithNeighbors(z, tuple(int(x) for x in sorted(nbrs)))
            g, verdict = _check_step(g, len(verdicts), step, game)
            verdicts.append(verdict)

    seq = ConstructionSequence(base, tuple(v.step for v in verdicts))
    return g, seq, _report(seq, verdicts, g)
