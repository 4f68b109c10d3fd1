"""Rigidity matrices and randomized generic-rank computation.

A framework places each vertex in the plane.  The rigidity matrix has
one row per edge xy (x < y): the support functional of p_x - p_y sits
in x's column pair and its negation in y's.  Infinitesimal rigidity
means the matrix reaches rank 2|V| - 2, the two missing dimensions
being the translations (the only trivial motions away from the
Euclidean plane).

That rank already forces the points to span the plane.  On a line of
direction d every edge vector is some lambda*d, and support functionals
are odd and 1-homogeneous, so every row lies in {phi(d) (x) x : sum(x)
= 0}: rank at most |V| - 1, below 2|V| - 2 once |V| >= 2.  Random
placements span exactly when they hold three distinct points, so the
span flag depends on the graph alone: |V| >= 3, or |V| >= 4 when the
designated pair shares a point.

Generic ranks are estimated by sampling several random placements and
keeping the best rank seen.  Coincident variants work on the graph
minus the pair edge, and their placement map sends v to u's point: a
trial's points are its random draw read through that map, which is the
identity for plain ranks.  One routine ranks every trial of many graphs
at once: the matrices of one shape (m, 2|V|) are built by one numpy call,
each placement with its own graph's edges and (m, 2) end positions, and
neighbouring shapes, in (|V|, m) order, share one zero-padded stack whose
singular values come out of one call, in chunks of bounded size.  Zero
rows and columns add only zero singular values, and the rank threshold
takes each matrix's own size, so the padding changes no rank.
generic_rank and uv_generic_rank are that routine on one graph, whose
chunks each hold one shape and are never padded, and run every trial
they are asked for.

Trial t of a graph under seed s draws its points from
numpy.random.default_rng([s, t]), whatever the batch.  A chunk of at
least _STREAM_JOBS trials computes those streams together through
_kernels.uniform_streams, a numpy port of SeedSequence and PCG64 that
gives the same bits; smaller chunks, which hold every one-graph call of
fewer trials, and chunks whose seeds differ in their count of uint32
words, call numpy's generator, which is also the tests' oracle.  So
per-trial ranks do not depend on the path.

Callers that read only the verdict go through settled_ranks instead: no
placement's rank exceeds min(rows, 2|V| - 2), since translations always
lie in the kernel, so a first trial at that cap already fixes rank,
independence and rigidity.  settled_ranks runs trial 0 of all its
graphs in one batch, then trials 1 to T - 1 of those below the cap in
one more, behind the trial 0 already drawn: a graph's rerun report
equals its full report, and no trial is drawn twice.  The sweeps,
certify-global --numeric and the text-mode rank commands take this
path; the rank commands' --json and --verbose print per-trial data and
run every trial.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .graph import Graph, delete_edge
from .norms import DEFAULT_PLANE, LpPlane

DEFAULT_SEED = 1729

# Placements are drawn uniformly from the square [-r, r]^2 of this r.
_BOX_RADIUS = 1.0

# Most matrix entries one batched SVD holds (512 KiB of float64), counted
# with each matrix padded to its chunk's largest rows and columns; larger
# batches run in chunks, so memory grows neither with --trials nor with
# the number of graphs.
_BATCH_ENTRIES = 1 << 16

# Chunks of at least this many trials draw their placements through
# _kernels.uniform_streams, smaller ones through numpy's own generator,
# which is faster below about ten trials; both give the same bits.
_STREAM_JOBS = 24


def seed_words(seed: int) -> tuple[int, ...]:
    """The uint32 words, lowest first, that numpy's SeedSequence reads
    from the non-negative int seed."""
    if seed >> 32 == 0:
        return (seed,)
    return tuple(seed >> b & 0xFFFFFFFF for b in range(0, seed.bit_length(), 32))


class RigidityError(ValueError):
    """Degenerate placement or inconsistent framework data."""


def resolve_seed(seed: int | None) -> int:
    """The explicit seed, else DEFAULT_SEED (1729).

    numpy's generators take no negative seed, so one is an input error.
    """
    if seed is None:
        return DEFAULT_SEED
    if int(seed) < 0:
        raise RigidityError(f"seed must be a non-negative integer, got {seed}")
    return int(seed)


@dataclass(frozen=True)
class TolerancePolicy:
    """Singular values below rel * sigma_max * max(rows, cols) are noise."""

    rel: float = 1e-9

    def __post_init__(self):
        if not (np.isfinite(self.rel) and self.rel >= 0):
            raise RigidityError(f"tolerance must be finite and non-negative, got {self.rel}")

    def threshold(self, sigma_max, rows, cols):
        """Of one matrix, or elementwise of arrays of them."""
        return self.rel * sigma_max * np.maximum(rows, cols)


DEFAULT_TOL = TolerancePolicy()


def _endpoints(g: Graph):
    """Sorted edges and the (m, 2) vertex positions of their two ends."""
    edges = tuple(g.sorted_edges())
    index = {v: i for i, v in enumerate(g.vertices)}
    return edges, np.array([(index[a], index[b]) for a, b in edges], dtype=np.intp).reshape(-1, 2)


def _matrix_stack(plane: LpPlane, pts: np.ndarray, edges, ends) -> np.ndarray:
    """Rigidity matrices (T, m, 2n) of T placements (T, n, 2): row r of matrix
    t is edge edges[t][r], its ends at positions ends[t, r] of the (T, m, 2)
    array, so placements of different graphs of one shape share the stack.
    A coincident pair arrives already placed at one point (the placement
    map), and a zero-length edge is named by its own graph's labels."""
    trials, n = pts.shape[:2]
    m = ends.shape[1]
    mat = np.zeros((trials, m, n, 2))
    if m:
        t_idx = np.arange(trials)[:, None]
        a_idx, b_idx = ends[..., 0], ends[..., 1]
        diffs = (pts[t_idx, a_idx] - pts[t_idx, b_idx]).reshape(-1, 2)
        zero = ~diffs.any(axis=1).reshape(trials, m)  # zero length iff zero vector
        if zero.any():
            t, r = np.argwhere(zero)[0]
            a, b = edges[t][r]
            raise RigidityError(f"edge {a}-{b} joins two coincident points")
        phis = plane.support_batch(diffs).reshape(trials, m, 2)
        rows = np.arange(m)
        mat[t_idx, rows, a_idx] = phis
        mat[t_idx, rows, b_idx] = -phis
    return mat.reshape(trials, m, 2 * n)


# ---------------------------------------------------------------------------
# numerical rank
# ---------------------------------------------------------------------------


def _singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values, largest first, of a matrix or a stack of them."""
    if a.size == 0:
        return np.zeros(a.shape[:-2] + (0,))
    return np.linalg.svd(a, compute_uv=False)


def _padded_singular_values(stacks):
    """Singular values of the matrix stacks in one call, and the rows and
    columns of each matrix.  Stacks of several shapes are copied, each into
    the top-left corner of one zero stack; one stack is decomposed as it is."""
    if len(stacks) == 1:
        return _singular_values(stacks[0]), *stacks[0].shape[1:]
    counts = [len(a) for a in stacks]
    rows, cols = np.repeat([a.shape[1:] for a in stacks], counts, axis=0).T
    out, start = np.zeros((sum(counts), rows.max(), cols.max())), 0
    for a in stacks:
        out[start:start + len(a), :a.shape[1], :a.shape[2]] = a
        start += len(a)
    return _singular_values(out), rows, cols


def _ranks(sigmas: np.ndarray, tol: TolerancePolicy, rows, cols):
    """Rank, threshold and near-threshold flag of each row of singular values,
    of matrices with the given rows and cols (one count, or one per row)."""
    count, k = sigmas.shape
    if k == 0:
        return np.zeros(count, dtype=int), np.zeros(count), np.zeros(count, dtype=bool)
    tau = tol.threshold(sigmas[:, 0], rows, cols)
    rank = np.sum(sigmas > tau[:, None], axis=1)
    # A kept singular value within a decade of the cutoff means the
    # verdict leans on the tolerance; callers surface this.
    kept = sigmas[np.arange(count), np.maximum(rank - 1, 0)]
    return rank, tau, (rank > 0) & (kept < 10.0 * tau)


# ---------------------------------------------------------------------------
# randomized generic rank
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankReport:
    kind: str  # "plain" or "coincident"
    n_vertices: int
    total_edges: int
    rows: int
    rank: int
    independent: bool
    rigid: bool
    per_trial_ranks: tuple[int, ...]
    affine_span_full: bool
    pair: tuple[int, int] | None
    pair_edge_removed: bool
    trials: int
    seed: int
    box_radius: float
    tol_rel: float
    norm_spec: str
    near_threshold: bool
    notes: tuple[str, ...] = field(default=())

    @property
    def at_rank_cap(self) -> bool:
        """Rank min(rows, 2|V| - 2), or 0 with no vertex: no further trial
        can change rank, independent or rigid."""
        return self.rank == min(self.rows, max(0, 2 * self.n_vertices - 2))


def _generic_ranks(graphs, plane, trials, seeds, tol, coincident, done=None) -> list[RankReport]:
    """The rank reports of both kinds, one per graph and seed, with every
    trial of every graph batched among the matrices of its shape (m, 2n),
    and neighbouring shapes merged into zero-padded chunks.

    done, when given, holds one earlier report per graph, of its first
    trials under the same seed, plane and tolerance: those trials are not
    drawn again, and their ranks and notes lead the report's own.

    Each shape's jobs are cut into pieces of at most _BATCH_ENTRIES
    entries, and the pieces, sorted by (n, m), are merged while the
    chunk padded to its largest rows M and columns 2N stays within that
    budget.  A piece sits in the top-left corner of its chunk's
    (B, M, 2N) stack, whose zero rows and columns add only zero singular
    values; the threshold takes each matrix's own rows and 2n, so the
    padding changes no rank, threshold or note.  A chunk of one piece,
    which is every chunk of a one-graph call, is decomposed as it is
    built.

    Trial t of a graph places its vertices by default_rng([seed, t]) alone,
    so its rank depends neither on the other trials and graphs nor on the
    chunking.  A chunk of at least _STREAM_JOBS trials draws all of them
    in one _kernels.uniform_streams call, the same bits computed for every
    stream at once; a smaller one, or one whose seeds differ in uint32
    word count, builds one default_rng per trial.  An edgeless job counts
    one row against the budget, for the 2n coordinates it draws.
    """
    plane = plane or DEFAULT_PLANE
    seeds = [resolve_seed(s) for s in seeds]
    if trials < 1:
        raise RigidityError("need at least one trial")
    words = [seed_words(s) for s in seeds]
    works, groups = [], {}
    for i, g in enumerate(graphs):
        had_pair_edge = coincident and g.has_edge(*g.require_pair())
        work = delete_edge(g, *g.designated_pair) if had_pair_edge else g
        at = np.arange(work.n)  # placement map: v sits at u's point
        if coincident:
            u, v = (work.vertices.index(x) for x in work.designated_pair)
            at[v] = u
        works.append((work, had_pair_edge, at, *_endpoints(work)))
        groups.setdefault((work.n, work.m), []).append(i)
    done = done or [None] * len(graphs)
    ranks = [list(rep.per_trial_ranks) if rep else [] for rep in done]
    notes = [list(rep.notes) if rep else [] for rep in done]
    chunks, count, height = [], 0, 0  # pieces (n, jobs); the last chunk's B and M
    for (n, m), members in sorted(groups.items()):
        jobs = [(i, t) for i in members for t in range(len(ranks[i]), trials)]
        m = max(m, 1)  # an edgeless job still draws its 2n coordinates
        step = max(1, _BATCH_ENTRIES // max(1, m * 2 * n))
        for start in range(0, len(jobs), step):
            part = jobs[start:start + step]
            count, height = count + len(part), max(height, m)
            if chunks and count * height * 2 * n <= _BATCH_ENTRIES:
                chunks[-1].append((n, part))
            else:
                chunks.append([(n, part)])
                count, height = len(part), m

    def placements(chunk, jobs):
        """Each piece's (jobs, n, 2) random draws, before the placement map."""
        if len(jobs) < _STREAM_JOBS or len({len(words[i]) for i, _ in jobs}) > 1:
            return [np.stack([
                np.random.default_rng([seeds[i], t]).uniform(-_BOX_RADIUS, _BOX_RADIUS, size=(n, 2))
                for i, t in piece
            ]) for n, piece in chunk]
        entropy = np.array([words[i] + (t,) for i, t in jobs], dtype=np.uint32)
        sizes = [2 * n * len(piece) for n, piece in chunk]
        counts = np.repeat([2 * n for n, _ in chunk], [len(piece) for _, piece in chunk])
        flat = _kernels.uniform_streams(entropy, counts, -_BOX_RADIUS, _BOX_RADIUS)
        return [part.reshape(len(piece), n, 2)
                for (n, piece), part in zip(chunk, np.split(flat, np.cumsum(sizes)[:-1]))]

    def matrices(n, piece, draws):
        _, _, ats, edges, ends = zip(*(works[i] for i, _ in piece))
        pts = draws[np.arange(len(piece))[:, None], np.stack(ats)]
        return _matrix_stack(plane, pts, edges, np.stack(ends))

    for chunk in chunks:
        jobs = [job for _, piece in chunk for job in piece]
        # the matrices die with the call, before the next chunk is built
        sigmas, rows, cols = _padded_singular_values([
            matrices(n, piece, draws) for (n, piece), draws in zip(chunk, placements(chunk, jobs))
        ])
        rank, tau, near = _ranks(sigmas, tol, rows, cols)
        for (i, _), r in zip(jobs, rank.tolist()):
            ranks[i].append(r)
        for j in np.flatnonzero(near):
            notes[jobs[j][0]].append(
                f"trial {jobs[j][1]}: smallest kept singular value "
                f"{sigmas[j, rank[j] - 1]:.3e} within 10x of threshold {tau[j]:.3e}"
            )
    reports = []
    for g, (work, had_pair_edge, *_), seed, tried, noted in zip(graphs, works, seeds, ranks, notes):
        best = max(tried)
        reports.append(RankReport(
            kind="coincident" if coincident else "plain",
            n_vertices=g.n,
            total_edges=g.m,
            rows=work.m,
            rank=best,
            independent=not had_pair_edge and best == work.m,
            rigid=g.n <= 1 or best == 2 * g.n - 2,
            per_trial_ranks=tuple(tried),
            affine_span_full=g.n - coincident >= 3,
            pair=g.designated_pair,
            pair_edge_removed=had_pair_edge,
            trials=trials,
            seed=seed,
            box_radius=_BOX_RADIUS,
            tol_rel=tol.rel,
            norm_spec=plane.spec_string(),
            near_threshold=bool(noted),
            notes=tuple(noted),
        ))
    return reports


def generic_rank(
    graph: Graph,
    plane: LpPlane | None = None,
    trials: int = 10,
    seed: int | None = None,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> RankReport:
    """Best rigidity-matrix rank over random placements.

    Rank never exceeds the generic value and random placements reach it
    with overwhelming probability, so the max over trials is the right
    aggregate.  Rigidity is rank 2|V| - 2, which needs |V| >= 3; graphs
    on at most one vertex are rigid by convention.
    """
    return _generic_ranks([graph], plane, trials, [seed], tol, coincident=False)[0]


def uv_generic_rank(
    graph: Graph,
    plane: LpPlane | None = None,
    trials: int = 10,
    seed: int | None = None,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> RankReport:
    """Coincident variant: the designated pair shares one random point.

    The matrix is built on G minus the pair edge (a coincident pair
    edge would only contribute a zero row).  uv-independence requires
    the pair edge to be absent from G in the first place; uv-rigidity
    is rank 2|V| - 2.
    """
    return _generic_ranks([graph], plane, trials, [seed], tol, coincident=True)[0]


def settled_ranks(
    graphs: Sequence[Graph],
    seeds: Sequence[int | None],
    coincident: bool = False,
    plane: LpPlane | None = None,
    trials: int = 10,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> list[RankReport]:
    """The plain or coincident report of each graph under its seed, each
    stopped after trial 0 when that trial is at the cap.

    Trial 0 of every graph runs in one batch, and trials 1 to T - 1 of
    the graphs below the cap in one more, whose reports carry trial 0's
    rank and notes first and so equal the full reports field for field.
    A settled report is a one-trial report; trial t draws from the same
    seed stream either way, so its verdict fields equal those of the
    full report.
    """
    if trials < 1:
        raise RigidityError("need at least one trial")
    reports = _generic_ranks(graphs, plane, 1, seeds, tol, coincident)
    redo = [i for i, rep in enumerate(reports) if trials > 1 and not rep.at_rank_cap]
    full = _generic_ranks([graphs[i] for i in redo], plane, trials, [seeds[i] for i in redo],
                          tol, coincident, [reports[i] for i in redo])
    for i, rep in zip(redo, full):
        reports[i] = rep
    return reports
