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
keeping the best rank seen; coincident variants place the designated
pair at one common point and work on the graph minus the pair edge.
The trials are batched: placements, matrices and singular values of
many trials come out of single numpy calls, in chunks of bounded size.

generic_rank and uv_generic_rank run every trial they are asked for.
Callers that read only the verdict go through settled_rank instead: no
placement's rank exceeds min(rows, 2|V| - 2), since translations always
lie in the kernel, so a first trial at that cap already fixes rank,
independence and rigidity.
"""

from __future__ import annotations

import os
from collections.abc import Callable
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
    """Sorted edges and the vertex positions of their two ends."""
    edges = tuple(g.sorted_edges())
    index = {v: i for i, v in enumerate(g.vertices)}
    a_idx = np.array([index[a] for a, _ in edges], dtype=np.intp)
    b_idx = np.array([index[b] for _, b in edges], dtype=np.intp)
    return edges, a_idx, b_idx


def _matrix_stack(plane: LpPlane, pts: np.ndarray, edges, a_idx, b_idx) -> np.ndarray:
    """Rigidity matrices (T, m, 2n) of T placements (T, n, 2) of one edge list."""
    trials, n = pts.shape[:2]
    m = len(edges)
    mat = np.zeros((trials, m, n, 2))
    if m:
        diffs = (pts[:, a_idx] - pts[:, b_idx]).reshape(-1, 2)
        zero = ~diffs.any(axis=1).reshape(trials, m)  # zero length iff zero vector
        if zero.any():
            t = int(np.argmax(zero.any(axis=1)))
            a, b = edges[int(np.argmax(zero[t]))]
            raise RigidityError(f"edge {a}-{b} joins two coincident points")
        phis = plane.support_batch(diffs).reshape(trials, m, 2)
        rows = np.arange(m)
        mat[:, rows, a_idx] = phis
        mat[:, rows, b_idx] = -phis
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
        """Rank min(rows, 2|V| - 2): no further trial can change rank,
        independent or rigid."""
        return self.rank == min(self.rows, 2 * self.n_vertices - 2)


def _generic_rank(graph, plane, trials, seed, tol, coincident) -> RankReport:
    """The rank report of both kinds, with every trial batched.

    Trial t places the vertices by default_rng([seed, t]) alone, so its
    rank does not depend on the other trials or on the chunking.
    """
    plane = plane or DEFAULT_PLANE
    seed = resolve_seed(seed)
    if trials < 1:
        raise RigidityError("need at least one trial")
    had_pair_edge = coincident and graph.has_edge(*graph.require_pair())
    work = delete_edge(graph, *graph.designated_pair) if had_pair_edge else graph
    edges, a_idx, b_idx = _endpoints(work)
    cols = 2 * work.n
    if coincident:
        u, v = (work.vertices.index(x) for x in work.designated_pair)
    step = max(1, _BATCH_ENTRIES // max(1, len(edges) * cols))
    ranks, notes = [], []
    for start in range(0, trials, step):
        ts = range(start, min(trials, start + step))
        pts = np.stack([
            np.random.default_rng([seed, t]).uniform(-_BOX_RADIUS, _BOX_RADIUS, size=(work.n, 2))
            for t in ts
        ])
        if coincident:
            pts[:, v] = pts[:, u]
        sigmas = _singular_values(_matrix_stack(plane, pts, edges, a_idx, b_idx))
        rank, tau, near = _ranks(sigmas, tol, len(edges), cols)
        ranks += rank.tolist()
        notes += [
            f"trial {ts[i]}: smallest kept singular value {sigmas[i, rank[i] - 1]:.3e} "
            f"within 10x of threshold {tau[i]:.3e}"
            for i in np.flatnonzero(near)
        ]
    best = max(ranks)
    return RankReport(
        kind="coincident" if coincident else "plain",
        n_vertices=graph.n,
        total_edges=graph.m,
        rows=work.m,
        rank=best,
        independent=not had_pair_edge and best == work.m,
        rigid=graph.n <= 1 or best == 2 * graph.n - 2,
        per_trial_ranks=tuple(ranks),
        affine_span_full=graph.n - coincident >= 3,
        pair=graph.designated_pair,
        pair_edge_removed=had_pair_edge,
        trials=trials,
        seed=seed,
        box_radius=_BOX_RADIUS,
        tol_rel=tol.rel,
        norm_spec=plane.spec_string(),
        near_threshold=bool(notes),
        notes=tuple(notes),
    )


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
    return _generic_rank(graph, plane, trials, seed, tol, coincident=False)


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
    return _generic_rank(graph, plane, trials, seed, tol, coincident=True)


def settled_rank(
    rank_fn: Callable[..., RankReport],
    graph: Graph,
    plane: LpPlane | None = None,
    trials: int = 10,
    seed: int | None = None,
) -> RankReport:
    """rank_fn's report, stopped after trial 0 when that trial is at the cap.

    rank_fn is generic_rank or uv_generic_rank (or a stand-in with their
    signature).  A settled report is a one-trial report; otherwise all
    of the trials run again from trial 0.  Trial t draws from the same
    seed stream either way, so the verdict fields equal those of the
    full report.
    """
    if trials < 1:
        raise RigidityError("need at least one trial")
    first = rank_fn(graph, plane, trials=1, seed=seed)
    if trials == 1 or first.at_rank_cap:
        return first
    return rank_fn(graph, plane, trials=trials, seed=seed)
