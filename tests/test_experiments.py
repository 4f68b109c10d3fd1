"""Combinatorial-vs-numerical sweeps: deterministic, rerunnable, zero gaps."""
from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from normrig import experiments, rigidity
from normrig.experiments import (
    OP_VARIANTS,
    SWEEPS,
    SweepReport,
    conjecture_probe,
    cover_bound_sweep,
    delete_contract_sweep,
    equivalence_sweep,
    format_report,
    min_uv_tight_h,
    operation_preservation_suite,
    rigidity_sweep,
)
from normrig.graph import Graph, GraphError, vertex_to_four_cycle
from normrig.rigidity import generic_ranks
from normrig.sparsity import (
    cover_rank_bound,
    is_rigid_comb,
    is_uv_rigid_comb,
    is_uv_sparse,
)


@pytest.mark.parametrize("sweep,sizes", [(rigidity_sweep, 5), (cover_bound_sweep, 7)])
def test_over_cap_max_n_fails_before_enumerating(monkeypatch, sweep, sizes):
    calls = []
    monkeypatch.setattr(experiments, "enumerate_graphs", lambda n, **kw: calls.append(n) or [])
    with pytest.raises(GraphError, match="exhaustive enumeration capped at 7 vertices"):
        sweep(max_n=8, seed=9)
    assert calls == []
    assert sweep(max_n=7, seed=9).instances == 0 and len(calls) == sizes  # the cap itself runs


def test_equivalence_small_clean():
    rep = equivalence_sweep(5, seed=3)
    assert rep.disagreements == ()
    assert rep.agreements == rep.instances > 150
    assert rep.ok


def test_equivalence_rerun_equal():
    a = equivalence_sweep(4, seed=8)
    b = equivalence_sweep(4, seed=8)
    assert a == b  # runtime is excluded from comparison
    assert format_report(a) == format_report(b)


def test_rigidity_small_clean():
    rep = rigidity_sweep(5, seed=2)
    assert rep.ok
    assert rep.instances == 2 + 6 + 21  # connected classes, n = 3..5


def test_cover_bound_small_clean():
    rep = cover_bound_sweep(4, seed=2)
    assert rep.ok
    assert rep.instances == 1 + 2 + 4 + 11


def test_delete_contract_small_clean():
    rep = delete_contract_sweep(40, n_range=(4, 6), seed=6)
    assert rep.ok and rep.instances == 40


def test_delete_contract_empty_range():
    with pytest.raises(GraphError, match="empty vertex-count range 4..3"):
        delete_contract_sweep(5, n_range=(4, 3), seed=6)


def test_operation_suite_small_clean():
    rep = operation_preservation_suite(samples=6, seed=12)
    assert rep.instances == 6 * len(OP_VARIANTS)
    assert rep.ok, format_report(rep, verbose=True)


def test_conjecture_probe_two_norms():
    rep = conjecture_probe(["lp:1.5", "lp:3"], samples=4, seed=5, max_n=4)
    assert rep.ok
    assert rep.instances > 0
    assert ("norms", ("lp:1.5", "lp:3")) in rep.config


def test_conjecture_probe_empty():
    rep = conjecture_probe([], seed=1)
    assert rep.instances == 0 and rep.disagreements == ()


def test_sweep_registry_runs():
    assert set(SWEEPS) == {
        "conjecture",
        "cover-bound",
        "delete-contract",
        "equivalence",
        "operations",
        "rigidity",
    }


def _planned_jobs(monkeypatch):
    """The jobs (instance, trial) of each pass rigidity._chunks plans."""
    passes, plan = [], rigidity._chunks
    monkeypatch.setattr(rigidity, "_chunks", lambda jobs, *a: passes.append(jobs) or plan(jobs, *a))
    return passes


def test_sweeps_stop_at_the_rank_cap(monkeypatch):
    passes = _planned_jobs(monkeypatch)
    rep = rigidity_sweep(5, seed=9)
    assert rep.ok and len(passes) == 2
    # every trial 0 in one batch, every rerun in one more
    first, rerun = passes
    assert sorted(first) == [(i, 0) for i in range(rep.instances)]
    below = sorted({i for i, _ in rerun})
    assert sorted(rerun) == [(i, t) for i in below for t in range(1, 10)]
    # each instance runs trial 0 alone, and the full ten only off the cap
    assert len(below) < rep.instances


def test_report_invariant_enforced():
    with pytest.raises(ValueError):
        SweepReport("x", (), instances=3, agreements=1, disagreements=(), runtime=0.0)


def test_runtime_not_compared():
    rep = equivalence_sweep(3, seed=0)
    clone = dataclasses.replace(rep, runtime=rep.runtime + 99.0)
    assert rep == clone
    assert "runtime" not in format_report(rep)


def test_format_report_verbose_lists_witnesses():
    rep = equivalence_sweep(4, seed=1)
    text = format_report(rep, verbose=True)
    assert "disagreements: 0" in text
    assert rep.name in text


def test_min_uv_tight_h_properties():
    h = min_uv_tight_h()
    assert (h.n, h.m) == (5, 8)
    assert h.designated_pair == (0, 1)
    assert h.m == 2 * h.n - 2 and is_uv_sparse(h).sparse
    assert generic_ranks([h], [3], True, trials=6)[0].rigid


def test_four_cycle_through_the_pair_is_the_known_gap():
    """Regression: splitting through both designated vertices breaks the count.

    A 4-cycle move whose contact vertices are exactly the designated
    pair produces a family violation, so samplers must avoid that
    contact choice.  Pin the counterexample.
    """
    host = Graph.from_edges(
        range(4), [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], pair=(0, 1)
    )
    assert is_uv_sparse(host).sparse
    bad = vertex_to_four_cycle(host, 2, 4, 0, 1, reassign={3: 2})
    verdict = is_uv_sparse(bad)
    assert not verdict.sparse
    assert verdict.witness.kind == "family"
    assert verdict.witness.covered > verdict.witness.value
    rank = generic_ranks([bad], [0], True, trials=10)[0]
    assert not rank.independent
    assert rank.rank == 6 and rank.rows == 7


# ---------------------------------------------------------------------------
# the disagreement path, reached by forcing a fixed share of verdicts to flip
# ---------------------------------------------------------------------------


def _flipped(g: Graph) -> bool:
    """The instances whose verdict the forced runs flip: n + m divisible by 3."""
    return (g.n + g.m) % 3 == 0


def _flip_sparse(g):
    verdict = is_uv_sparse(g)
    return dataclasses.replace(verdict, sparse=verdict.sparse != _flipped(g))


def _flip_rigid(g):
    return is_rigid_comb(g) != _flipped(g)


def _flip_uv_rigid(g):
    return is_uv_rigid_comb(g) != _flipped(g)


def _flip_cover(g):
    bound = cover_rank_bound(g)
    return dataclasses.replace(bound, value=bound.value + _flipped(g))


def _flip_independent(graphs, *args, **kwargs):
    # The operation suite's counting side is a constant (its hosts meet
    # the hypotheses by construction), so it flips the numerical side.
    return [
        dataclasses.replace(rep, independent=rep.independent != _flipped(g))
        for g, rep in zip(graphs, generic_ranks(graphs, *args, **kwargs))
    ]


# sweep -> (patched name in experiments, replacement, run, instances,
#           disagreements, sha256 prefix of the verbose report)
FORCED = {
    "equivalence": (
        "is_uv_sparse", _flip_sparse, lambda: equivalence_sweep(4, seed=9),
        36, 12, "2e45ac6b69bc7b8d",
    ),
    "delete-contract": (
        "is_uv_rigid_comb", _flip_uv_rigid,
        lambda: delete_contract_sweep(12, n_range=(4, 6), seed=9), 12, 4,
        "dc59700986a4c661",
    ),
    "rigidity": (
        "is_rigid_comb", _flip_rigid, lambda: rigidity_sweep(4, seed=9), 8, 2,
        "7685bbedb70b56c1",
    ),
    "cover-bound": (
        "cover_rank_bound", _flip_cover, lambda: cover_bound_sweep(4, seed=9),
        18, 6, "b2b6b229f3c5a554",
    ),
    "operations": (
        "generic_ranks", _flip_independent,
        lambda: operation_preservation_suite(samples=3, seed=9), 21, 4,
        "d1b4eae47644e43f",
    ),
    "conjecture": (
        "is_uv_sparse", _flip_sparse,
        lambda: conjecture_probe(["lp:1.5", "lp:3"], max_n=4, seed=9), 72, 24,
        "55c65ac81c9abe64",
    ),
}


def test_sweep_instances_pinned(monkeypatch):
    """Every instance the operation suite and the delete-contract sweep
    hand to the ranker, as (vertices, sorted edges, pair), hashed against
    the digest of an earlier release: the host samplers and the moves
    build the same graphs, with Python int labels, from the same draws."""
    seen, rank = [], experiments.generic_ranks
    monkeypatch.setattr(experiments, "generic_ranks",
                        lambda graphs, *a, **kw: seen.extend(graphs) or rank(graphs, *a, **kw))
    operation_preservation_suite(samples=20, seed=1729)
    delete_contract_sweep(100, seed=1729)
    digest = hashlib.sha256()
    for g in seen:
        digest.update(repr((g.vertices, g.sorted_edges(), g.designated_pair)).encode())
    assert len(seen) == 240
    assert digest.hexdigest() == "3444f94439fccebed787cf9153ef3967f2ab731eb04fc3eb8a57e2fa75f31e74"


def test_disagreements_are_decided_once(monkeypatch):
    """A sweep whose counting side disagrees still ranks in one settled
    batch: trial 0 of every instance, then the full trials of those off
    the cap.  Nothing reruns the disagreeing instances."""
    batches = []
    batched = experiments.generic_ranks

    def counted(graphs, *args, **kwargs):
        batches.append((len(graphs), kwargs.get("settle")))
        return batched(graphs, *args, **kwargs)

    monkeypatch.setattr(experiments, "generic_ranks", counted)
    passes = _planned_jobs(monkeypatch)
    monkeypatch.setattr(experiments, "is_rigid_comb", _flip_rigid)
    rep = rigidity_sweep(4, seed=9)
    assert rep.disagreements and batches == [(rep.instances, True)]
    assert len(passes) <= 2 and sorted(passes[0]) == [(i, 0) for i in range(rep.instances)]


@pytest.mark.parametrize("name", sorted(FORCED))
def test_forced_disagreements_pinned(monkeypatch, name):
    attr, flip, run, instances, count, digest = FORCED[name]
    monkeypatch.setattr(experiments, attr, flip)
    rep = run()
    text = format_report(rep, verbose=True)
    assert (rep.instances, len(rep.disagreements)) == (instances, count)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, text
    for d in rep.disagreements:
        assert d.combinatorial != d.numeric and d.rank <= d.rows
    if name == "conjecture":
        # each plane's own sweep in turn, renumbered and tagged with its norm
        own = [
            dataclasses.replace(d, note=f"norm {desc}")
            for desc in ("lp:1.5", "lp:3")
            for d in equivalence_sweep(4, desc, seed=9).disagreements
        ]
        assert rep.disagreements == tuple(
            dataclasses.replace(d, index=i) for i, d in enumerate(own)
        )
        return
    for d in rep.disagreements:
        assert d.seed == int(np.random.SeedSequence([9, d.index, 0]).generate_state(1)[0])
    if name == "operations":
        assert [d.note for d in rep.disagreements] == [
            OP_VARIANTS[d.index // 3] for d in rep.disagreements
        ]
    else:
        assert all(d.note == "" for d in rep.disagreements)
