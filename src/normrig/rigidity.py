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
identity for plain ranks.  One routine, generic_ranks, ranks every
trial of many graphs at once.  It takes the trials in the (|V|, m)
order of their graph's shape and cuts them into chunks of bounded size.
One numpy call writes each chunk's matrices, each with its own graph's
edges and end positions, straight into the top-left corners of one
stack, padded with zeros to the chunk's largest rows and columns, and
one more call gives that stack's singular values.  Zero rows and
columns add only zero singular values, and the rank threshold takes
each matrix's own size, so the padding changes no rank.  On one graph
every chunk holds one shape and is never padded.

Trial t of a graph under seed s draws its points from numpy's generator
seeded with [s, t], whatever the batch: default_rng([s, t]) is the
contract, and per-trial ranks do not depend on the chunk.
uniform_streams, which draws a chunk's streams together, and
derive_seeds, which hashes the rows [seed, i, 0] for the sweeps, run a
port of numpy's SeedSequence over many seeds at once, in uint32 lanes:
hashing a seed costs default_rng most of its time.  uniform_streams
hands each hashed state to numpy's own PCG64, for one stream as for
many.

Callers that read only the verdict settle: no placement's rank exceeds
min(rows, 2|V| - 2) or the counting bound, pebble_rank plain and
uv_rank_comb coincident.  A cover's part Y spans rank at most 2|Y| - 2,
translations being in its kernel, and a coincident matrix, a placement
matrix of G - uv, times the map moving u and v as one point is one of
G/uv: by Sylvester's inequality its rank is at most G/uv's + 2.  So
generic_ranks with settle runs trial 0 of all its graphs, then trials 1
to T - 1 only of those below the cap, a free test, and below the bound,
counted only then: a report's verdict fields equal the full report's,
and a rerun report equals it.  The sweeps, certify-global --numeric and
the rank commands settle, except where they print per-trial data:
--json, and the --verbose of rank and uv-rank, run every trial.

At integer p the bound can also be met from below.  Scaled by
||z||^(p - 2), which changes no rank, the row of edge vector z is
sgn(z)|z|^(p - 1), an integer vector at an integer placement, and rank
mod P <= rational rank <= generic rank <= bound, P the prime 2147483629:
a nonzero minor mod P is a nonzero integer minor, and no placement
exceeds the generic rank.  So a graph whose float trials so far fall
short of the cap and the bound, settled or not, gets one elimination
mod P of trial 1's draw rounded to the grid [-2^20, 2^20]^2, before any
rerun.  Where it meets the bound, that is the report's rank, proved,
with a note, and no rerun follows; elsewhere, and where an edge has
zero length on the grid, the float trials decide.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, groupby

import numpy as np

from .graph import Graph, InputError, delete_edge
from .norms import DEFAULT_PLANE, LpPlane
from .sparsity import pebble_rank, uv_rank_comb

DEFAULT_SEED = 1729

DEFAULT_TOL = 1e-9  # the relative rank threshold of _ranks

# Placements are drawn uniformly from the square [-r, r]^2 of this r.
_BOX_RADIUS = 1.0

# Most matrix entries one batched SVD holds (512 KiB of float64), counted
# with each matrix padded to its chunk's largest rows and columns; larger
# batches run in chunks, so memory grows neither with --trials nor with
# the number of graphs.
_BATCH_ENTRIES = 1 << 16

# The prime of the exact rank (below 2^31, so a product of two residues
# fits in int64) and the half-width of its integer grid.
_PRIME = 2147483629
_GRID = 1 << 20

class RigidityError(InputError):
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


# numpy's SeedSequence (a 4-word pool, hashmix in uint32 arithmetic).
# uint32 arrays wrap on overflow, as its C does.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


@lru_cache(maxsize=None)
def _hash_constants(init, mult, count):
    """The hash constant before each of count hashmix calls and after the
    last, as a (count + 1, 1) uint32 column: it does not depend on the data."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _mix(x, y):
    out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return out ^ out >> 16


def _seed_words(seed):
    """The uint32 words, lowest first, that numpy's SeedSequence reads
    from the non-negative int seed."""
    if seed >> 32 == 0:
        return (seed,)
    return tuple(seed >> b & 0xFFFFFFFF for b in range(0, seed.bit_length(), 32))


def _seed_states(entropy, lengths, words):
    """SeedSequence(row[:length]).generate_state(words) of each row of
    entropy and its length (one count, or one per row).

    A row holds the uint32 words numpy reads from its entropy, lowest
    word of each int first, zero-padded to the widest row.  Returns a
    (rows, words) uint32 array.  The pool is mixed as numpy mixes it, one
    pool word per lane: hashmix the first four entropy words into the
    pool (a missing word hashes as 0, as a padded one does), mix every
    pool word into every other, then mix each entropy word past the
    fourth, where the row has one, into all four.
    """
    entropy = np.asarray(entropy, dtype=np.uint32).T
    width = len(entropy)
    h = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * max(0, width - 4))
    pool = np.zeros((4, entropy.shape[1]), dtype=np.uint32)
    pool[:width] = entropy[:4]
    pool = _hashmix(pool, h[:4], h[1:5])
    at = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], h[at:at + 3], h[at + 1:at + 4]))
        at += 3
    for src in range(4, width):
        mixed = _mix(pool, _hashmix(entropy[src], h[at:at + 4], h[at + 1:at + 5]))
        pool = np.where(src < np.asarray(lengths), mixed, pool)
        at += 4
    c = _hash_constants(_INIT_B, _MULT_B, words)
    return _hashmix(pool[np.arange(words) % 4], c[:-1], c[1:]).T


def derive_seeds(seed, count):
    """SeedSequence([seed, i, 0]).generate_state(1)[0] for each i < count,
    hashed in one batch, as a list of ints."""
    entropy = np.tile(np.array(_seed_words(seed) + (0, 0), dtype=np.uint32), (count, 1))
    entropy[:, -2] = np.arange(count)
    return _seed_states(entropy, entropy.shape[1], 1)[:, 0].tolist()


class _HashedState(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands PCG64 the state it was given: a row of
    SeedSequence.generate_state(4, np.uint64) already hashed."""

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def uniform_streams(jobs, counts):
    """The first counts[j] draws of default_rng([seed, t]).uniform(-r, r), r
    the box radius, for each job j = (seed, t) of non-negative ints,
    concatenated.

    The jobs' seeds are hashed in one call, whatever their widths, and
    each hashed state goes to numpy's own PCG64, whose raw draws give
    numpy's next_double, (raw >> 11) * 2**-53, and its uniform, low +
    (high - low) * double.
    """
    rows = [_seed_words(s) + _seed_words(t) for s, t in jobs]
    lengths = np.array([len(row) for row in rows])
    width = lengths.max()
    entropy = np.array([row + (0,) * (width - len(row)) for row in rows], dtype=np.uint32)
    # generate_state(4, np.uint64): each word pair composed low word first,
    # so the host's byte order does not matter, and C-contiguous, since
    # PCG64 reads each row's memory as its four words
    w = _seed_states(entropy, lengths, 8).astype(np.uint64)
    states = np.ascontiguousarray(w[:, 0::2] | w[:, 1::2] << 32)
    raw = np.concatenate([
        np.random.PCG64(_HashedState(state)).random_raw(c) for state, c in zip(states, counts)
    ])
    return 2 * _BOX_RADIUS * ((raw >> 11) * 2.0**-53) - _BOX_RADIUS


def _matrix_stack(plane: LpPlane, pts: np.ndarray, preps):
    """The rigidity matrices of B placements, each in the top-left corner of
    its layer of one zero stack (B, M, 2N), and each matrix's rows and
    columns.

    Job j places the graph of preps[j] (a _prepared record) at the next n_j
    points of pts (P, 2), read through its placement map; M and N are the
    largest rows and vertex count, so one-shape jobs fill the stack.  Rows
    are built over the whole stack at once from flat job, row and end
    indices, and a zero-length edge is named by its own graph's labels.
    """
    works, _, edges, ends, at = zip(*preps)
    B = len(preps)
    ns = np.fromiter((work.n for work in works), np.intp, B)
    ms = np.fromiter(map(len, edges), np.intp, B)
    M, N, total = ms.max(initial=0), ns.max(initial=0), int(ms.sum())
    mat = np.zeros((B, M, N, 2))
    if total:
        job = np.repeat(np.arange(B), ms)
        row = np.arange(total) - np.repeat(np.cumsum(ms) - ms, ms)
        ends = np.fromiter(chain.from_iterable(ends), np.intp, 2 * total).reshape(-1, 2)
        at = np.fromiter(chain.from_iterable(at), np.intp, 2 * total).reshape(-1, 2)
        at += np.repeat(np.cumsum(ns) - ns, ms)[:, None]
        diffs = pts[at[:, 0]] - pts[at[:, 1]]
        zero = ~diffs.any(axis=1)  # zero length iff zero vector
        if zero.any():
            k = np.argmax(zero)
            a, b = edges[job[k]][row[k]]
            raise RigidityError(f"edge {a}-{b} joins two coincident points")
        phis = plane.support_batch(diffs)
        mat[job, row, ends[:, 0]] = phis
        mat[job, row, ends[:, 1]] = -phis
    return mat.reshape(B, M, 2 * N), ms, 2 * ns


# ---------------------------------------------------------------------------
# numerical rank
# ---------------------------------------------------------------------------


def _singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values, largest first, of a matrix or a stack of them."""
    return np.linalg.svd(a, compute_uv=False)


def _ranks(sigmas: np.ndarray, tol: float, rows, cols):
    """Rank, threshold and near-threshold flag of each row of singular values,
    of the matrices with the given rows and cols, one count per row: values
    below tol * sigma_max * max(rows, cols) are noise."""
    count, k = sigmas.shape
    if k == 0:
        return np.zeros(count, dtype=int), np.zeros(count), np.zeros(count, dtype=bool)
    tau = tol * sigmas[:, 0] * np.maximum(rows, cols)
    rank = np.sum(sigmas > tau[:, None], axis=1)
    # A kept singular value within a decade of the cutoff means the
    # verdict leans on the tolerance; callers surface this.
    kept = sigmas[np.arange(count), np.maximum(rank - 1, 0)]
    return rank, tau, (rank > 0) & (kept < 10.0 * tau)


def _exact_rank(p: int, prep, draw, stop: int) -> int | None:
    """The rank mod _PRIME, counted up to stop, of the integer rigidity
    matrix of prep's graph (a _prepared record) at draw, its 2n coordinates
    in [-r, r] scaled to the grid [-2^20, 2^20] and rounded; None where an
    edge has zero length on the grid.

    Row xy is sgn(z)|z|^(p - 1), z = p_x - p_y, in x's column pair and its
    negation in y's.  The powers are taken by squaring and multiplying mod
    _PRIME, so int64 stays exact at any integer p.  Columns are eliminated
    one at a time, each pivot clearing its column in the rows below it in
    one vectorised step.
    """
    work, _, edges, ends, at = prep
    m = len(edges)
    ends, at = (np.array(x, np.intp).reshape(-1, 2) for x in (ends, at))
    pts = np.rint(draw.reshape(-1, 2) * (_GRID / _BOX_RADIUS)).astype(np.int64)
    z = pts[at[:, 0]] - pts[at[:, 1]]
    if not z.any(axis=1).all():
        return None
    base, entry, k = np.abs(z), np.sign(z), p - 1
    while k:
        entry = entry * base % _PRIME if k & 1 else entry
        base, k = base * base % _PRIME, k >> 1
    a = np.zeros((m, work.n, 2), np.int64)
    a[np.arange(m), ends[:, 0]] = entry
    a[np.arange(m), ends[:, 1]] = -entry
    a = a.reshape(m, 2 * work.n) % _PRIME
    rank = 0
    for c in range(a.shape[1]):
        if rank >= stop:
            break
        nz = rank + np.flatnonzero(a[rank:, c])
        if nz.size == 0:
            continue
        a[[rank, nz[0]]] = a[[nz[0], rank]]
        below = nz[1:]
        f = a[below, c] * pow(int(a[rank, c]), -1, _PRIME) % _PRIME
        a[below, c:] = (a[below, c:] - f[:, None] * a[rank, c:]) % _PRIME
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# randomized generic rank
# ---------------------------------------------------------------------------


def _rank_cap(n: int, rows: int) -> int:
    """The highest rank any placement gives a matrix of rows edges on n
    vertices: min(rows, 2n - 2), or 0 with no vertex."""
    return min(rows, max(0, 2 * n - 2))


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
    near_threshold: bool  # some float trial kept a value within 10x of its threshold
    notes: tuple[str, ...] = field(default=())  # those trials', then an exact proof's


def _prepared(g: Graph, coincident: bool):
    """What a placement of g needs: the graph whose matrix is built (g less
    the pair edge, for a coincident rank), whether that edge was removed,
    its sorted edges, the vertex positions of their ends, and the positions
    of the points those ends sit at under the placement map, which sends v
    to u's point.  Both position lists are flat Python lists, two entries
    per edge; _matrix_stack makes one array of each per chunk."""
    had_pair_edge = coincident and g.has_edge(*g.require_pair())
    work = delete_edge(g, *g.designated_pair) if had_pair_edge else g
    index = {v: i for i, v in enumerate(work.vertices)}
    edges = tuple(work.sorted_edges())
    ends = [index[x] for e in edges for x in e]
    if not coincident:
        return work, had_pair_edge, edges, ends, ends
    u, v = work.designated_pair
    index[v] = index[u]  # placement map: v sits at u's point
    return work, had_pair_edge, edges, ends, [index[x] for e in edges for x in e]


def _chunks(jobs, shapes):
    """Cut the jobs (graph i, trial t), in order of their graph's shape
    (n, m) = shapes[i], into chunks, lists of jobs.

    Each shape's jobs are cut into pieces of at most _BATCH_ENTRIES
    entries, and the pieces are merged while the chunk padded to its
    largest rows M and columns 2N stays within that budget.  An edgeless
    job counts one row, for the 2n coordinates it draws.
    """
    chunks, count, height = [], 0, 0  # the last chunk's B and M
    for (n, m), same in groupby(jobs, key=lambda job: shapes[job[0]]):
        same = list(same)
        m = max(m, 1)
        step = max(1, _BATCH_ENTRIES // max(1, m * 2 * n))
        for start in range(0, len(same), step):
            part = same[start:start + step]
            count, height = count + len(part), max(height, m)
            if chunks and count * height * 2 * n <= _BATCH_ENTRIES:
                chunks[-1] += part
            else:
                chunks.append(part)
                count, height = len(part), m
    return chunks


def generic_ranks(
    graphs: Sequence[Graph],
    seeds: Sequence[int | None],
    coincident: bool = False,
    plane: LpPlane | None = None,
    trials: int = 10,
    tol: float | None = None,
    settle: bool = False,
) -> list[RankReport]:
    """The plain or coincident rank report of each graph under its seed.

    The jobs (graph, trial) are planned into chunks, each chunk is drawn,
    built and decomposed, and the tolerance rule turns its singular values
    into ranks and notes.  A report's rank is the best of its trials: rank
    never exceeds the generic value and random placements reach it with
    overwhelming probability.  Rigidity is rank max(0, 2|V| - 2), as in
    is_rigid_comb; past one vertex it needs |V| >= 3.  tol is checked
    first, before the seeds and trials; None means DEFAULT_TOL.

    A coincident report places the designated pair at one random point,
    and its matrix is built on G minus the pair edge (a coincident pair
    edge would only contribute a zero row).  uv-independence requires the
    pair edge to be absent from G in the first place.

    With settle, trial 0 of every graph runs first, and trials 1 to T - 1
    only for the graphs below both the rank cap and the counting bound,
    pebble_rank or uv_rank_comb; a report holds the trials it ran, in
    order.  No trial passes the bound: a cover's part Y spans at most
    2|Y| - 2, and by Sylvester a coincident rank is at most G/uv's + 2.

    At integer p, a graph whose float trials so far (trial 0 with settle,
    all of them without) fall short of the cap and the bound gets one
    exact rank mod P = 2147483629 of an integer placement before any
    rerun.  rank mod P <= rational rank <= generic rank <= bound, so where
    it meets the bound it is the report's rank, with a note, and no rerun
    follows.  near_threshold flags the float trials only.
    """
    tol = DEFAULT_TOL if tol is None else tol
    if not (np.isfinite(tol) and tol >= 0):
        raise RigidityError(f"tolerance must be finite and non-negative, got {tol}")
    plane = plane or DEFAULT_PLANE
    seeds = [resolve_seed(s) for s in seeds]
    if trials < 1:
        raise RigidityError("need at least one trial")
    works = [_prepared(g, coincident) for g in graphs]
    shapes = [(work.n, work.m) for work, *_ in works]
    order = sorted(range(len(graphs)), key=shapes.__getitem__)  # graph order within a shape
    ranks, notes = [[] for _ in graphs], [[] for _ in graphs]

    def run(jobs):
        for chunk in _chunks(jobs, shapes):
            preps = [works[i] for i, _ in chunk]
            draws = uniform_streams([(seeds[i], t) for i, t in chunk],
                                    [2 * work.n for work, *_ in preps])
            stack, rows, cols = _matrix_stack(plane, draws.reshape(-1, 2), preps)
            sigmas = _singular_values(stack)
            del stack  # one chunk's matrices at a time: freed before the next is built
            rank, tau, near = _ranks(sigmas, tol, rows, cols)
            for (i, _), r in zip(chunk, rank.tolist()):
                ranks[i].append(r)
            for j in np.flatnonzero(near):
                notes[chunk[j][0]].append(
                    f"trial {chunk[j][1]}: smallest kept singular value "
                    f"{sigmas[j, rank[j] - 1]:.3e} within 10x of threshold {tau[j]:.3e}"
                )

    first = 1 if settle else trials
    run([(i, t) for i in order for t in range(first)])
    exact = plane.exponent.is_integer()
    short, proved = [], {}  # graphs below the cap and the bound; proved ranks
    if settle or exact:
        bound = uv_rank_comb if coincident else pebble_rank
        short = [(i, b) for i in order if max(ranks[i]) < _rank_cap(*shapes[i])
                 and max(ranks[i]) < (b := bound(graphs[i]))]
    if exact and short:
        counts = [2 * shapes[i][0] for i, _ in short]
        draws = uniform_streams([(seeds[i], 1) for i, _ in short], counts)
        for (i, b), draw in zip(short, np.split(draws, np.cumsum(counts)[:-1])):
            if _exact_rank(int(plane.exponent), works[i], draw, b) == b:
                proved[i] = b
    run([(i, t) for i, _ in short if i not in proved for t in range(first, trials)])
    reports = []
    for i, (g, (work, had_pair_edge, *_), seed, tried, noted) in enumerate(
            zip(graphs, works, seeds, ranks, notes)):
        best = proved.get(i, max(tried))
        proof = (f"rank {best} proved: rank mod {_PRIME} of an integer placement"
                 " meets the counting bound",) if i in proved else ()
        reports.append(RankReport(
            kind="coincident" if coincident else "plain",
            n_vertices=g.n,
            total_edges=g.m,
            rows=work.m,
            rank=best,
            independent=not had_pair_edge and best == work.m,
            rigid=best == max(0, 2 * g.n - 2),
            per_trial_ranks=tuple(tried),
            affine_span_full=g.n - coincident >= 3,
            pair=g.designated_pair,
            pair_edge_removed=had_pair_edge,
            trials=len(tried),
            seed=seed,
            box_radius=_BOX_RADIUS,
            tol_rel=tol,
            norm_spec=plane.spec_string(),
            near_threshold=bool(noted),
            notes=tuple(noted) + proof,
        ))
    return reports

