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
at once: the matrices of one shape (m, 2|V|) share one stack, each
placement with its own graph's edges and (m, 2) end positions, and the
stack's matrices and singular values come out of single numpy calls, in
chunks of bounded size.  generic_rank and uv_generic_rank are that
routine on one graph, and run every trial they are asked for.

Callers that read only the verdict go through settled_ranks instead: no
placement's rank exceeds min(rows, 2|V| - 2), since translations always
lie in the kernel, so a first trial at that cap already fixes rank,
independence and rigidity.  settled_ranks runs trial 0 of all its
graphs in one batch, then every trial of those below the cap in one
more.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, delete_edge
from .norms import DEFAULT_PLANE, LpPlane

DEFAULT_SEED = 1729
_SEED_ENV = "NORMRIG_SEED"

# Placements are drawn uniformly from the square [-r, r]^2 of this r.
_BOX_RADIUS = 1.0

# Most matrix entries one batched SVD holds (512 KiB of float64); larger
# trial counts run in chunks, so memory does not grow with --trials.
_BATCH_ENTRIES = 1 << 16


class RigidityError(ValueError):
    """Degenerate placement or inconsistent framework data."""


def resolve_seed(seed: int | None) -> int:
    """Explicit seed, else NORMRIG_SEED from the environment, else 1729.

    numpy's generators take no negative seed, so one is an input error.
    """
    name = "seed"
    if seed is None:
        raw = os.environ.get(_SEED_ENV, "").strip()
        if not raw:
            return DEFAULT_SEED
        try:
            name, seed = _SEED_ENV, int(raw)
        except ValueError:
            raise RigidityError(f"{_SEED_ENV} must be an integer, got {raw!r}")
    if int(seed) < 0:
        raise RigidityError(f"{name} must be a non-negative integer, got {seed}")
    return int(seed)


@dataclass(frozen=True)
class TolerancePolicy:
    """Singular values below rel * sigma_max * max(rows, cols) are noise."""

    rel: float = 1e-9

    def __post_init__(self):
        if not (np.isfinite(self.rel) and self.rel >= 0):
            raise RigidityError(f"tolerance must be finite and non-negative, got {self.rel}")

    def threshold(self, sigma_max, rows: int, cols: int):
        return self.rel * sigma_max * max(rows, cols)


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


def _ranks(sigmas: np.ndarray, tol: TolerancePolicy, rows: int, cols: int):
    """Rank, threshold and near-threshold flag of each row of singular values."""
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


def _generic_ranks(graphs, plane, trials, seeds, tol, coincident) -> list[RankReport]:
    """The rank reports of both kinds, one per graph and seed, with every
    trial of every graph batched among the matrices of its shape (m, 2n).

    Trial t of a graph places its vertices by default_rng([seed, t]) alone,
    so its rank depends neither on the other trials and graphs nor on the
    chunking.
    """
    plane = plane or DEFAULT_PLANE
    seeds = [resolve_seed(s) for s in seeds]
    if trials < 1:
        raise RigidityError("need at least one trial")
    works, groups = [], {}
    for i, g in enumerate(graphs):
        had_pair_edge = coincident and g.has_edge(*g.require_pair())
        work = delete_edge(g, *g.designated_pair) if had_pair_edge else g
        at = np.arange(work.n)  # placement map: v sits at u's point
        if coincident:
            u, v = (work.vertices.index(x) for x in work.designated_pair)
            at[v] = u
        works.append((work, had_pair_edge, at, *_endpoints(work)))
        groups.setdefault((work.m, work.n), []).append(i)
    ranks, notes = [[] for _ in graphs], [[] for _ in graphs]
    for (m, n), members in groups.items():
        jobs = [(i, t) for i in members for t in range(trials)]
        step = max(1, _BATCH_ENTRIES // max(1, m * 2 * n))
        for start in range(0, len(jobs), step):
            chunk = jobs[start:start + step]
            _, _, ats, edges, ends = zip(*(works[i] for i, _ in chunk))
            pts = np.stack([
                np.random.default_rng([seeds[i], t]).uniform(-_BOX_RADIUS, _BOX_RADIUS, size=(n, 2))[at]
                for (i, t), at in zip(chunk, ats)
            ])
            sigmas = _singular_values(_matrix_stack(plane, pts, edges, np.stack(ends)))
            rank, tau, near = _ranks(sigmas, tol, m, 2 * n)
            for (i, _), r in zip(chunk, rank.tolist()):
                ranks[i].append(r)
            for j in np.flatnonzero(near):
                notes[chunk[j][0]].append(
                    f"trial {chunk[j][1]}: smallest kept singular value "
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

    Trial 0 of every graph runs in one batch, and every trial of the
    graphs below the cap in one more.  A settled report is a one-trial
    report; trial t draws from the same seed stream either way, so the
    verdict fields equal those of the full report.
    """
    if trials < 1:
        raise RigidityError("need at least one trial")
    reports = _generic_ranks(graphs, plane, 1, seeds, tol, coincident)
    redo = [i for i, rep in enumerate(reports) if trials > 1 and not rep.at_rank_cap]
    full = _generic_ranks([graphs[i] for i in redo], plane, trials, [seeds[i] for i in redo],
                          tol, coincident)
    for i, rep in zip(redo, full):
        reports[i] = rep
    return reports
