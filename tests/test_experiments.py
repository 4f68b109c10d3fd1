"""Combinatorial-vs-numerical sweeps: deterministic, rerunnable, zero gaps."""
from __future__ import annotations

import dataclasses

import pytest

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
from normrig.rigidity import uv_generic_rank
from normrig.sparsity import is_uv_sparse, is_uv_tight


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
    assert is_uv_tight(h)
    assert uv_generic_rank(h, trials=6, seed=3).rigid


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
    rank = uv_generic_rank(bad, trials=10, seed=0)
    assert not rank.independent
    assert rank.rank == 6 and rank.rows == 7
