from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from normrig import rigidity
from normrig.enumeration import enumerate_graphs
from normrig.graph import Graph, delete_edge
from normrig.norms import LpPlane, parse_norm
from normrig.rigidity import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    RigidityError,
    TolerancePolicy,
    RankReport,
    generic_ranks,
    resolve_seed,
)


def matrix_of(g, plane, pts):
    """The rigidity matrix of one placement (n, 2) of g."""
    prep = rigidity._prepared(g, False)
    stack, _, _ = rigidity._matrix_stack(plane, np.asarray(pts, float), [prep])
    return stack[0]


def rank_of(a, tol=DEFAULT_TOL):
    """Numerical rank of one matrix under the batched threshold rule."""
    rank, _, _ = rigidity._ranks(rigidity._singular_values(a[None]), tol, *a.shape)
    return int(rank[0])


def test_coincident_edge_named_from_first_bad_trial():
    path = Graph.from_edges(range(3), [(0, 1), (1, 2)])
    pts = np.array([
        [[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]],
        [[0.0, 0.0], [1.0, 2.0], [1.0, 2.0]],  # 1 and 2 coincide
        [[3.0, 3.0], [3.0, 3.0], [0.0, 1.0]],  # 0 and 1 coincide, later trial
    ])
    prep = rigidity._prepared(path, False)
    with pytest.raises(RigidityError, match="^edge 1-2 joins two coincident points$"):
        rigidity._matrix_stack(LpPlane(4), pts.reshape(-1, 2), [prep] * 3)


def test_coincident_edge_named_from_its_own_graph():
    # One stack, two graphs of one shape: the first zero-length row lies in
    # the second graph's matrix, so its labels, not the first graph's, name it.
    path = rigidity._prepared(Graph.from_edges(range(3), [(0, 1), (1, 2)]), False)
    star = rigidity._prepared(Graph.from_edges([5, 7, 9], [(5, 9), (7, 9)]), False)
    pts = np.array([
        [[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]],  # path, no coincidence
        [[0.0, 0.0], [1.0, 2.0], [1.0, 2.0]],  # star, 7 and 9 coincide
        [[3.0, 3.0], [3.0, 3.0], [0.0, 1.0]],  # path, 0 and 1 coincide, later
    ])
    with pytest.raises(RigidityError, match="^edge 7-9 joins two coincident points$"):
        rigidity._matrix_stack(LpPlane(4), pts.reshape(-1, 2), [path, star, path])
    # Several shapes in one stack padded to K4's 6 rows and 4 points: the
    # first zero-length row is the second row of the smaller star, flat
    # row 2 + 6 + 1 = 9, which is neither row 9 % 6 of matrix 9 // 6 nor
    # the path's zero-length first row after it.
    k4 = rigidity._prepared(Graph.complete(4), False)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0],  # path, no coincidence
                    [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],  # K4
                    [0.0, 0.0], [1.0, 2.0], [1.0, 2.0],  # star, 7 and 9 coincide
                    [3.0, 3.0], [3.0, 3.0], [0.0, 1.0]])  # path, 0 and 1 coincide
    with pytest.raises(RigidityError, match="^edge 7-9 joins two coincident points$"):
        rigidity._matrix_stack(LpPlane(4), pts, [path, k4, star, path])


def test_resolve_seed(monkeypatch):
    assert resolve_seed(7) == 7
    monkeypatch.setenv("NORMRIG_SEED", "77")  # not read
    assert resolve_seed(None) == DEFAULT_SEED == 1729
    with pytest.raises(RigidityError, match="seed must be a non-negative integer, got -2"):
        resolve_seed(-2)


def test_pinned_single_edge_row(plane4):
    g = Graph.from_edges([0, 1], [(0, 1)])
    mat = matrix_of(g, plane4, [(0.0, 0.0), (1.0, 0.0)])
    # phi_(p0-p1) = phi_(-1,0) = (-1,0) at vertex 0, negated at vertex 1
    assert mat.shape == (1, 4)
    assert mat[0] == pytest.approx([-1.0, 0.0, 1.0, 0.0])


def test_translations_span_kernel(plane4):
    g = Graph.complete(4)
    mat = matrix_of(g, plane4, np.random.default_rng(3).uniform(-1, 1, (g.n, 2)))
    for shift in ((1.0, 0.0), (0.0, 1.0)):
        flex = np.tile(shift, g.n)
        assert np.linalg.norm(mat @ flex) < 1e-9
    assert 2 * g.n - rank_of(mat) == 2  # K4 generically: only trivial flexes


def test_zero_length_edge_rejected(plane4):
    g = Graph.from_edges([0, 1], [(0, 1)])
    with pytest.raises(RigidityError):
        matrix_of(g, plane4, [(0.5, 0.5), (0.5, 0.5)])


def test_numerical_rank_tolerance():
    a = np.diag([1.0, 1e-3, 1e-14])
    assert rank_of(a) == 2
    assert rank_of(a, TolerancePolicy(rel=1e-16)) == 3
    assert rank_of(np.zeros((3, 3))) == 0
    assert rank_of(np.zeros((0, 4))) == 0
    assert rank_of(np.zeros((3, 0))) == 0


def test_pinned_ranks(plane4, k23, two_k4, k4_minus_uv):
    assert generic_ranks([Graph.complete(3)], [None], False, plane4)[0].rank == 3
    assert generic_ranks([Graph.complete(4)], [None], False, plane4)[0].rank == 6
    rep = generic_ranks([Graph(k23.vertices, k23.edges)], [None], False, plane4)[0]
    assert rep.rank == 6 and not rep.rigid  # 6 < 2*5-2
    assert generic_ranks([k23], [None], True, plane4)[0].rank == 5
    rep5 = generic_ranks([two_k4], [None], True, plane4)[0]
    assert rep5.rank == 12 and rep5.rigid and rep5.independent
    rep4 = generic_ranks([k4_minus_uv], [None], True, plane4)[0]
    assert rep4.rank == 5 and rep4.independent and not rep4.rigid


def test_small_conventions(plane4):
    one = Graph.from_edges([0])
    assert generic_ranks([one], [None], False, plane4)[0].rigid
    two = Graph.from_edges([0, 1], [(0, 1)])
    rep = generic_ranks([two], [None], False, plane4)[0]
    assert rep.rank == 1 and not rep.rigid


def test_pair_edge_removed_flag(plane4):
    g = Graph.complete(4, pair=(0, 1))
    rep = generic_ranks([g], [None], True, plane4)[0]
    assert rep.pair_edge_removed and rep.rows == 5 and not rep.independent


def test_trial_determinism(two_k4, plane4):
    # a loose tolerance, so the per-trial ranks and notes move with the seed
    loose = TolerancePolicy(1e-2)
    a = generic_ranks([two_k4], [11], True, plane4, 10, loose)[0]
    assert generic_ranks([two_k4], [11], True, plane4, 10, loose)[0] == a
    c = generic_ranks([two_k4], [12], True, plane4, 10, loose)[0]
    assert c.per_trial_ranks != a.per_trial_ranks and c.notes != a.notes


def test_rank_report_fields(two_k4, plane4):
    rep = generic_ranks([two_k4], [2], True, plane4, 4)[0]
    assert rep.trials == 4 and len(rep.per_trial_ranks) == 4
    assert rep.norm_spec == "lp:4"
    assert rep.pair == (0, 1)
    assert max(rep.per_trial_ranks) == rep.rank


def test_requires_pair(plane4):
    with pytest.raises(Exception):
        generic_ranks([Graph.complete(4)], [None], True, plane4)


def test_affine_span_guard(plane4):
    # path on 3 vertices cannot be rigid, rank 2 < 4
    g = Graph.from_edges(range(3), [(0, 1), (1, 2)])
    rep = generic_ranks([g], [None], False, plane4)[0]
    assert not rep.rigid and rep.rank == 2


@pytest.mark.parametrize("rel", [float("nan"), float("inf"), -1.0, -1e-12])
def test_bad_tolerance_rejected(rel):
    with pytest.raises(RigidityError):
        TolerancePolicy(rel=rel)


def test_zero_tolerance_allowed():
    assert rank_of(np.diag([1.0, 1e-300]), TolerancePolicy(rel=0.0)) == 2


# ---------------------------------------------------------------------------
# the batched trials against a one-trial-at-a-time reference
# ---------------------------------------------------------------------------


def reference_report(graph, plane, trials, seed, tol, coincident):
    """The one-graph generic_ranks report computed trial by trial, row by row."""
    had_pair_edge = coincident and graph.has_edge(*graph.designated_pair)
    work = delete_edge(graph, *graph.designated_pair) if had_pair_edge else graph
    edges = work.sorted_edges()
    idx = {v: i for i, v in enumerate(work.vertices)}
    ranks, affine, notes = [], [], []
    for t in range(trials):
        pts = np.random.default_rng([seed, t]).uniform(-1, 1, (work.n, 2))
        if coincident:
            u, v = work.designated_pair
            pts[idx[v]] = pts[idx[u]]
        mat = np.zeros((len(edges), 2 * work.n))
        phis = plane.support_batch(np.array([pts[idx[a]] - pts[idx[b]] for a, b in edges]).reshape(-1, 2))
        for i, (a, b) in enumerate(edges):
            mat[i, 2 * idx[a] : 2 * idx[a] + 2] = phis[i]
            mat[i, 2 * idx[b] : 2 * idx[b] + 2] = -phis[i]
        assert np.array_equal(matrix_of(work, plane, pts), mat)
        sig = np.linalg.svd(mat, compute_uv=False) if mat.size else np.zeros(0)
        rank = 0
        if sig.size and sig[0] > 0:
            tau = tol.rel * sig[0] * max(mat.shape)
            rank = int(np.sum(sig > tau))
            if rank and sig[rank - 1] < 10.0 * tau:
                notes.append(
                    f"trial {t}: smallest kept singular value {sig[rank - 1]:.3e} "
                    f"within 10x of threshold {tau:.3e}"
                )
        ranks.append(rank)
        affine.append(work.n >= 3 and np.linalg.matrix_rank(pts - pts.mean(axis=0)) == 2)
    best = max(ranks)
    affine_ok = any(a for r, a in zip(ranks, affine) if r == best)
    return RankReport(
        kind="coincident" if coincident else "plain",
        n_vertices=graph.n,
        total_edges=graph.m,
        rows=work.m,
        rank=best,
        independent=not had_pair_edge and best == work.m,
        rigid=graph.n <= 1 or (best == 2 * graph.n - 2 and affine_ok),
        per_trial_ranks=tuple(ranks),
        affine_span_full=affine_ok,
        pair=graph.designated_pair,
        pair_edge_removed=had_pair_edge,
        trials=trials,
        seed=seed,
        box_radius=1.0,
        tol_rel=tol.rel,
        norm_spec=plane.spec_string(),
        near_threshold=bool(notes),
        notes=tuple(notes),
    )


def _check_against_reference(graphs, plane, trials, seed, tol=DEFAULT_TOL):
    for g in graphs:
        for coincident in (False, True):
            if coincident and g.designated_pair is None:
                continue
            got = generic_ranks([g], [seed], coincident, plane, trials, tol)[0]
            assert got == reference_report(g, plane, trials, seed, tol, coincident), g


PAIR_CLASSES = [g for n in range(2, 6) for g in enumerate_graphs(n, pair=True)]


@pytest.mark.parametrize("p", [4.0, 1.5])
@pytest.mark.parametrize("trials", [1, 10])
def test_batched_ranks_match_reference(p, trials):
    _check_against_reference(PAIR_CLASSES, LpPlane(p), trials, seed=41)


def test_batched_ranks_match_reference_edge_cases(k23, two_k4):
    small = [
        Graph.from_edges([]),
        Graph.from_edges([0]),
        Graph.from_edges([0, 1]),
        Graph.from_edges(range(4), pair=(0, 3)),  # edgeless
        Graph.complete(4, pair=(0, 1)),  # the pair edge is present
        Graph.complete(5),
    ]
    _check_against_reference(small, LpPlane(4.0), 10, seed=3)
    loose = TolerancePolicy(rel=3e-2)
    single_edge = Graph.from_edges([0, 1], [(0, 1)])  # rank 1, yet near the cutoff
    _check_against_reference([k23, two_k4, single_edge], LpPlane(1.5), 6, seed=5, tol=loose)
    assert generic_ranks([k23], [5], False, LpPlane(1.5), 6, loose)[0].notes


def test_trials_are_independent_of_batching(monkeypatch, k23):
    plane, loose = LpPlane(1.5), TolerancePolicy(rel=3e-2)  # ranks vary, notes on every trial
    full = generic_ranks([k23], [8], True, plane, 25, loose)[0]
    assert len(set(full.per_trial_ranks)) > 1 and len(full.notes) == 25
    monkeypatch.setattr(rigidity, "_BATCH_ENTRIES", 130)  # two trials of 6 x 10 a chunk
    assert generic_ranks([k23], [8], True, plane, 25, loose)[0] == full
    for trials in (1, 6, 7):
        prefix = generic_ranks([k23], [8], True, plane, trials, loose)[0]
        assert prefix.per_trial_ranks == full.per_trial_ranks[:trials]
        assert prefix.notes == full.notes[:trials]
    _check_against_reference([k23], plane, 25, seed=8, tol=loose)


def test_batch_memory_is_bounded(plane4):
    g = Graph.from_edges(range(100), [(i, (i + 1) % 100) for i in range(100)])
    # 200 trials in one unchunked stack would take 200*100*200*8 B = 32 MB
    tracemalloc.start()
    try:
        rep = generic_ranks([g], [1], False, plane4, 200)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.rank == g.m
    assert peak < 4 * 2**20


def test_mixed_batch_memory_is_bounded(plane4, small_graphs):
    g = Graph.from_edges(range(100), [(i, (i + 1) % 100) for i in range(100)])
    # 200 small matrices padded to the cycle's shape would take 32 MB too
    graphs = [g] + small_graphs[:200]
    tracemalloc.start()
    try:
        reps = generic_ranks(graphs, range(len(graphs)), False, plane4, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reps[0].rank == g.m and len(reps) == 201
    assert peak < 4 * 2**20


def test_small_shapes_share_one_svd_call(monkeypatch, k23, two_k4, plane4):
    graphs = [Graph.complete(3), Graph.complete(4), k23, two_k4, Graph.from_edges([0, 1], [(0, 1)])]
    calls = []
    svd = rigidity._singular_values
    monkeypatch.setattr(rigidity, "_singular_values", lambda a: calls.append(a.shape) or svd(a))
    reps = generic_ranks(graphs, [5] * len(graphs), False, plane4, 2)
    assert calls == [(10, 12, 14)]  # five shapes, two trials each, padded to two_k4's
    monkeypatch.undo()
    assert reps == [generic_ranks([g], [5], False, plane4, 2)[0] for g in graphs]


def test_mixed_chunk_is_built_once_and_decomposed_in_place(monkeypatch, k23, two_k4, plane4):
    # one builder call writes every job of five shapes straight into the
    # chunk's padded stack, and that very array is decomposed, not a copy
    graphs = [Graph.complete(3), Graph.complete(4), k23, two_k4, Graph.from_edges([0, 1], [(0, 1)])]
    built, decomposed = [], []
    stack, svd = rigidity._matrix_stack, rigidity._singular_values
    monkeypatch.setattr(rigidity, "_matrix_stack", lambda *a: built.append(stack(*a)) or built[-1])
    monkeypatch.setattr(rigidity, "_singular_values", lambda a: decomposed.append(a) or svd(a))
    generic_ranks(graphs, [5] * len(graphs), False, plane4, 2)
    assert len(built) == len(decomposed) == 1
    (mats, rows, cols), = built
    assert decomposed[0] is mats and mats.shape == (10, 12, 14)
    assert rows.tolist() == [1, 1, 3, 3, 6, 6, 6, 6, 12, 12]
    assert cols.tolist() == [4, 4, 6, 6, 8, 8, 10, 10, 14, 14]
    for mat, m, c in zip(mats, rows, cols):  # each matrix in its top-left corner
        assert mat[:m, :c].any(axis=1).all() and not mat[m:].any() and not mat[:, c:].any()


@pytest.mark.parametrize("desc,rel", [("lp:4", 1e-9), ("lp:1.5", 3e-3)])
def test_padded_chunks_equal_one_graph_reports(monkeypatch, desc, rel, k23, two_k4):
    """Chunks of several shapes, padded to their largest, rank as one-graph
    calls do: the threshold (printed in the notes) takes each matrix's own
    rows and 2n, not the padded shape."""
    plane, tol = parse_norm(desc), TolerancePolicy(rel=rel)
    big = Graph.complete(8, pair=(2, 5))  # 28 x 16 entries, over the budget alone
    graphs = [
        Graph.from_edges([]),
        Graph.from_edges([0]),
        Graph.from_edges(range(4), pair=(0, 3)),  # edgeless
        Graph.complete(4, pair=(0, 1)),  # the pair edge is present
        Graph.complete(6, pair=(0, 1)),  # more rows than columns
        k23, two_k4, big,
        *(g for n in range(2, 6) for g in enumerate_graphs(n, pair=True)),
    ]
    monkeypatch.setattr(rigidity, "_BATCH_ENTRIES", 400)
    built, alone = [], []
    stack, svd = rigidity._matrix_stack, rigidity._singular_values
    monkeypatch.setattr(rigidity, "_matrix_stack", lambda *a: built.append(stack(*a)) or built[-1])
    monkeypatch.setattr(rigidity, "_singular_values", lambda a: alone.append(a.shape) or svd(a))
    runs = []
    for coincident in (False, True):
        batch = [g for g in graphs if not coincident or g.designated_pair is not None]
        seeds = [70 + i for i in range(len(batch))]
        runs.append((coincident, batch, seeds, generic_ranks(batch, seeds, coincident, plane, 3, tol)))
    monkeypatch.undo()
    # the big matrix (28 rows, 27 without the pair edge), one a chunk, unpadded
    assert alone.count((1, 28, 16)) == alone.count((1, 27, 16)) == 3
    assert any(len(set(cols.tolist())) > 1 for _, _, cols in built)  # mixed widths
    assert any(len(set(rows.tolist())) > 1 for _, rows, _ in built)  # mixed rows
    for coincident, batch, seeds, got in runs:
        for g, s, rep in zip(batch, seeds, got):
            assert rep == generic_ranks([g], [s], coincident, plane, 3, tol)[0], g
        if rel > 1e-9:
            assert any(rep.notes for rep in got)


def test_collinear_points_stay_below_rigidity(small_graphs):
    # On a line of direction d every row is phi(d) (x) x with sum(x) = 0,
    # so rank 2n - 2 needs points that span the plane.
    rng = np.random.default_rng(31)
    for p in (1.5, 3.0, 4.0):
        plane = LpPlane(p)
        for n in range(3, 7):
            g = Graph.complete(n)
            for _ in range(5):
                base, d = rng.uniform(-1, 1, (2, 2))
                pts = base + rng.uniform(-1, 1, (n, 1)) * d
                assert rank_of(matrix_of(g, plane, pts)) <= n - 1 < 2 * n - 2
    cases = [(g, False) for g in small_graphs]
    cases += [(g, True) for g in PAIR_CLASSES]
    for g, coincident in cases:
        rep = generic_ranks([g], [7], coincident, LpPlane(1.5), 1)[0]
        assert rep.affine_span_full == (g.n - coincident >= 3), g
        assert not rep.rigid or rep.affine_span_full or g.n <= 1, g


# ---------------------------------------------------------------------------
# settle: verdict-only queries stop after trial 0 at the rank cap
# ---------------------------------------------------------------------------

VERDICT_FIELDS = ("rank", "independent", "rigid", "affine_span_full", "rows")


def at_rank_cap(rep):
    """No further trial can change the report's rank, independent or rigid."""
    return rep.rank == rigidity._rank_cap(rep.n_vertices, rep.rows)


def test_settled_rank_keeps_every_verdict(small_graphs, plane4):
    cases = [(g, True) for g in PAIR_CLASSES]
    cases += [(g, False) for g in small_graphs]
    settled = 0
    for g, coincident in cases:
        full = generic_ranks([g], [23], coincident, plane4, 10)[0]
        got = generic_ranks([g], [23], coincident, plane4, 10, settle=True)[0]
        assert [getattr(got, f) for f in VERDICT_FIELDS] == [
            getattr(full, f) for f in VERDICT_FIELDS
        ], g
        assert got.trials == len(got.per_trial_ranks) in (1, 10)
        assert got.per_trial_ranks == full.per_trial_ranks[: got.trials]
        want = full if got.trials > 1 else generic_ranks([g], [23], coincident, plane4, 1)[0]
        assert got == want
        settled += got.trials == 1
    assert settled > len(cases) // 2


def test_unspannable_instances_settle_after_trial_zero(small_graphs, plane4):
    # n <= 2 plain, or three vertices with two of them coincident: never a
    # span; the graph on no vertex has rank cap 0, not 2 * 0 - 2
    cases = [(g, False) for g in [Graph.from_edges([])] + small_graphs if g.n <= 2]
    cases += [(g, True) for g in enumerate_graphs(3, pair=True)
              if not g.has_edge(*g.designated_pair)]
    assert len(cases) == 7
    for g, coincident in cases:
        got = generic_ranks([g], [23], coincident, plane4, 10, settle=True)[0]
        full = generic_ranks([g], [23], coincident, plane4, 10)[0]
        assert got.trials == 1 and not got.affine_span_full, g
        assert [getattr(got, f) for f in VERDICT_FIELDS] == [
            getattr(full, f) for f in VERDICT_FIELDS
        ], g


def test_trial_zero_below_the_cap_runs_every_trial(k23):
    # a loose tolerance puts trial 0 one below the cap, which trial 1 reaches
    loose = TolerancePolicy(rel=3e-3)
    full = generic_ranks([k23], [6], False, LpPlane(1.5), 10, loose)[0]
    assert full.per_trial_ranks[:2] == (5, 6) and at_rank_cap(full) and full.independent
    assert generic_ranks([k23], [6], False, LpPlane(1.5), 10, loose, settle=True)[0] == full


def test_rank_functions_run_every_trial_at_the_cap(two_k4, plane4):
    for g, coincident in ((Graph.complete(5), False), (two_k4, True)):
        assert at_rank_cap(generic_ranks([g], [4], coincident, plane4, 1)[0])
        full = generic_ranks([g], [4], coincident, plane4, 10)[0]
        assert full.trials == len(full.per_trial_ranks) == 10


def test_settled_rank_rejects_no_trials(monkeypatch, two_k4):
    def no_work(*args, **kwargs):
        raise AssertionError("placement drawn with no trials")

    monkeypatch.setattr(rigidity, "uniform_streams", no_work)
    for graphs, seeds in (([two_k4], [1]), ([], [])):
        with pytest.raises(RigidityError, match="need at least one trial"):
            generic_ranks(graphs, seeds, True, trials=0, settle=True)


def _batch_cases():
    """Every plain graph on at most 5 vertices, every pair class on at most
    6, and the graphs on no and on one vertex, shuffled."""
    graphs = [Graph.from_edges([]), Graph.from_edges([0])]
    graphs += [g for n in range(1, 6) for g in enumerate_graphs(n)]
    graphs += [g for n in range(2, 7) for g in enumerate_graphs(n, pair=True)]
    order = np.random.default_rng(5).permutation(len(graphs))
    return [graphs[i] for i in order]


@pytest.mark.parametrize("desc,rel", [("lp:4", 1e-9), ("lp:3", 1e-9), ("lp:1.5", 3e-3)])
def test_batched_reports_equal_one_graph_reports(desc, rel):
    # plain ranks of the plain graphs, coincident ranks of the pair classes
    plane, tol, batch = parse_norm(desc), TolerancePolicy(rel=rel), _batch_cases()
    for coincident in (False, True):
        graphs = [g for g in batch if (g.designated_pair is not None) == coincident]
        seeds = [1000 + i for i in range(len(graphs))]
        full = generic_ranks(graphs, seeds, coincident, plane, 10, tol)
        settled = generic_ranks(graphs, seeds, coincident, plane, 10, tol, settle=True)
        for g, s, got_full, got in zip(graphs, seeds, full, settled):
            assert got_full == generic_ranks([g], [s], coincident, plane, 10, tol)[0], g
            assert got == generic_ranks([g], [s], coincident, plane, 10, tol, settle=True)[0], g
        if rel > 1e-9:
            assert any(rep.notes for rep in settled) and any(rep.notes for rep in full)


@pytest.mark.parametrize("coincident", [False, True])
def test_reruns_draw_only_the_missing_trials(monkeypatch, coincident):
    # at lp:1.5 with rel 3e-3 many trial-0 ranks fall short of the cap, and
    # most of those carry notes, which a rerun must keep in front of its own
    plane, tol, trials = LpPlane(1.5), TolerancePolicy(rel=3e-3), 10
    graphs = [g for g in _batch_cases() if (g.designated_pair is not None) == coincident]
    seeds = [2000 + i for i in range(len(graphs))]
    first = generic_ranks(graphs, seeds, coincident, plane, 1, tol)
    below = [not at_rank_cap(rep) for rep in first]
    assert 0 < sum(below) < len(graphs)
    assert any(rep.notes for rep, short in zip(first, below) if short)
    built, stack = [], rigidity._matrix_stack
    monkeypatch.setattr(rigidity, "_matrix_stack",
                        lambda plane, pts, preps: built.append(len(preps)) or stack(plane, pts, preps))
    settled = generic_ranks(graphs, seeds, coincident, plane, trials, tol, settle=True)
    monkeypatch.undo()
    assert sum(built) == len(graphs) + (trials - 1) * sum(below)
    for g, s, got, short in zip(graphs, seeds, settled, below):
        if short:
            assert got == generic_ranks([g], [s], coincident, plane, trials, tol)[0], g
        else:
            assert got.trials == 1, g


def test_settled_batches_build_each_report_once(monkeypatch):
    # a rerun graph's report is built once, from both passes' trials
    plane, tol = LpPlane(1.5), TolerancePolicy(rel=3e-3)
    graphs = [g for g in _batch_cases() if g.designated_pair is None]
    built, report = [], rigidity.RankReport
    monkeypatch.setattr(rigidity, "RankReport", lambda **kw: built.append(kw) or report(**kw))
    reps = generic_ranks(graphs, range(len(graphs)), False, plane, 10, tol, settle=True)
    assert len(built) == len(graphs) and any(rep.trials == 10 for rep in reps)


def _count_default_rng(monkeypatch):
    """Count the generators built through np.random.default_rng."""
    calls, make = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: calls.append(a) or make(*a))
    return calls


def test_generic_ranks_builds_no_numpy_generator(monkeypatch, k23):
    # One draw path: a batch and a one-graph call of 1 or 10 trials all draw
    # through rigidity.uniform_streams, and build no default_rng; a graph's
    # report is the same in a batch and alone.
    plane, seeds = LpPlane(4.0), [3000 + i for i in range(len(PAIR_CLASSES))]
    calls = _count_default_rng(monkeypatch)
    batch = generic_ranks(PAIR_CLASSES, seeds, True, plane, 10, settle=True)
    assert sum(rep.trials > 1 for rep in batch) >= 3
    one = generic_ranks([k23], [7], True, plane, 10)[0]
    single = generic_ranks([k23], [7], True, plane, 1)[0]
    assert calls == [] and single.per_trial_ranks == one.per_trial_ranks[:1]
    monkeypatch.undo()
    for g, s, got in zip(PAIR_CLASSES, seeds, batch):
        assert got == generic_ranks([g], [s], True, plane, 10, settle=True)[0], g
    assert one == generic_ranks([k23] * 30, [7] * 30, True, plane, 10)[0]


def _drawn_placements(monkeypatch):
    """Record the bytes of every placement _matrix_stack is given: job j's
    is the next n_j points, which its placement map then reads."""
    seen, stack = [], rigidity._matrix_stack

    def spy(plane, pts, preps):
        cuts = np.cumsum([work.n for work, *_ in preps])[:-1]
        seen.extend(p.tobytes() for p in np.split(pts, cuts))
        return stack(plane, pts, preps)

    monkeypatch.setattr(rigidity, "_matrix_stack", spy)
    return seen


def _numpy_placements(graphs, seeds, trials):
    """The bytes of each placement as numpy's generator draws it."""
    return [np.random.default_rng([s, t]).uniform(-1, 1, (g.n, 2)).tobytes()
            for g, s in zip(graphs, seeds) for t in range(trials)]


@pytest.mark.parametrize("seeds", [
    [2**32 + i for i in range(40)],  # two words each
    [2**64 + i for i in range(40)],  # three words each
    [i if i % 2 else 2**32 + i for i in range(40)],  # one and two words
])
def test_multi_word_seeds(monkeypatch, seeds, k23, two_k4):
    # the SeedSequence port hashes seeds of mixed word counts in one call
    plane, graphs = LpPlane(4.0), [k23, two_k4] * 20
    calls, streams = [], rigidity.uniform_streams
    monkeypatch.setattr(rigidity, "uniform_streams",
                        lambda jobs, counts: calls.append(jobs) or streams(jobs, counts))
    drawn = _drawn_placements(monkeypatch)
    got = generic_ranks(graphs, seeds, True, plane, 2)
    assert [sorted(jobs) for jobs in calls] == [sorted((s, t) for s in seeds for t in range(2))]
    monkeypatch.undo()
    assert sorted(drawn) == sorted(_numpy_placements(graphs, seeds, 2))
    assert got == [generic_ranks([g], [s], True, plane, 2)[0] for g, s in zip(graphs, seeds)]


def test_edgeless_chunks_stay_within_the_budget(monkeypatch, plane4):
    # an edgeless job has no matrix entry but draws 2n coordinates, which
    # count against _BATCH_ENTRIES as one row would
    graphs, sizes = [Graph.from_edges(range(8))] * 600, []
    streams = rigidity.uniform_streams
    monkeypatch.setattr(rigidity, "uniform_streams",
                        lambda e, counts: sizes.append(sum(counts)) or streams(e, counts))
    reps = generic_ranks(graphs, range(600), False, plane4, 10)
    assert sum(sizes) == 600 * 10 * 16 and max(sizes) <= rigidity._BATCH_ENTRIES
    assert all(rep.rank == 0 and rep.per_trial_ranks == (0,) * 10 for rep in reps)
