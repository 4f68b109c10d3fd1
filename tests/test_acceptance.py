"""Acceptance gate: ten pinned criteria, one pass/fail line each.

Each test computes its verdict, records ``ACCEPTANCE k name: PASS|FAIL``
for the terminal summary (and prints it, for ``-s`` runs), and then
asserts.  Stated runtime budgets are part of the verdict.
"""
from __future__ import annotations

import json
import time

import numpy as np

import conftest

from normrig.cli import main
from normrig.enumeration import enumerate_graphs
from normrig.experiments import (
    cover_bound_sweep,
    delete_contract_sweep,
    equivalence_sweep,
    operation_preservation_suite,
    rigidity_sweep,
)
from normrig.globalrig import base_graph, certify_sequence, parse_sequence
from normrig.graph import contract_pair, delete_edge
from normrig.norms import LpPlane
from normrig.sparsity import (
    is_rigid_comb,
    is_uv_sparse,
    is_uv_sparse_bruteforce,
    pebble_rank,
)

SEED = 1729

K23 = "5 6 0 1\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n"
TWO_K4 = (
    "7 12 0 1\n0 2\n0 3\n0 6\n2 3\n2 6\n3 6\n"
    "1 4\n1 5\n1 6\n4 5\n4 6\n5 6\n"
)
SEQ_SPLIT = "base H_GRAPH\nsplit 2 | 0 1 | 3 4 5 | 3 -> 6 7\n"
SEQ_ONE_EXT = "base H_GRAPH\nsplit 2 | 1 | 0 3 4 5 | 5 -> 6 2\n"


def report(k: int, name: str, ok: bool) -> None:
    line = f"ACCEPTANCE {k:02d} {name}: {'PASS' if ok else 'FAIL'}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


def test_criterion_01_k23_pinned(tmp_path, capsys):
    t0 = time.perf_counter()
    path = tmp_path / "k23.graph"
    path.write_text(K23)

    rc1 = main(["check-sparse", str(path), "--k", "2", "--l", "2"])
    sparse_out = capsys.readouterr().out
    rc2 = main(["check-uv-sparse", str(path)])
    uv_out = capsys.readouterr().out
    rc3 = main(["uv-rank", str(path), "--json", "--seed", str(SEED)])
    rank_rec = json.loads(capsys.readouterr().out)["result"]

    elapsed = time.perf_counter() - t0
    per_trial = rank_rec["per_trial_ranks"]
    ok = (
        rc1 == rc2 == rc3 == 0
        and "sparse: yes" in sparse_out
        and "uv-sparse: no" in uv_out
        and "family {0,1,2},{0,1,3},{0,1,4} covers 6 > val 5" in uv_out
        and rank_rec["rank"] == 5
        and sum(1 for r in per_trial if r == 5) >= 9
        and len(per_trial) == 10
        and elapsed < 1.0
    )
    report(1, "k23-pinned-example", ok)
    assert ok


def test_criterion_02_two_k4_pinned(tmp_path, capsys):
    t0 = time.perf_counter()
    path = tmp_path / "two_k4.graph"
    path.write_text(TWO_K4)

    rc1 = main(["uv-rank", str(path), "--json", "--seed", str(SEED)])
    rec = json.loads(capsys.readouterr().out)["result"]
    rc2 = main(["uv-rigid-comb", str(path)])
    comb_out = capsys.readouterr().out

    from normrig.graph import parse_graph

    g = parse_graph(TWO_K4)
    contracted = contract_pair(g)
    elapsed = time.perf_counter() - t0
    ok = (
        rc1 == rc2 == 0
        and rec["rank"] == 12 == rec["total_edges"] == 2 * rec["n_vertices"] - 2
        and rec["rigid"] is True
        and "uv-rigid-comb: yes" in comb_out
        and "rigid-minus-pair: yes" in comb_out
        and "rigid-contracted: yes" in comb_out
        and (contracted.n, contracted.m) == (6, 11)
        and elapsed < 1.0
    )
    report(2, "two-k4-pinned-example", ok)
    assert ok


def test_criterion_03_rigidity_sweep():
    t0 = time.perf_counter()
    rep = rigidity_sweep(6, seed=SEED)
    elapsed = time.perf_counter() - t0
    ok = rep.ok and rep.instances == 2 + 6 + 21 + 112 and elapsed < 300
    report(3, "rigidity-equivalence-n6", ok)
    assert ok, rep


def test_criterion_04_uv_sparsity_vs_rank():
    t0 = time.perf_counter()
    rep = equivalence_sweep(8, seed=SEED, samples_per_large_n=100)
    elapsed = time.perf_counter() - t0
    exhaustive = 2 + 6 + 28 + 148 + 1144
    ok = rep.ok and rep.instances == exhaustive + 200 and elapsed < 900
    report(4, "uv-sparsity-equals-independence", ok)
    assert ok, rep


def test_criterion_05_delete_contract():
    t0 = time.perf_counter()
    rep = delete_contract_sweep(500, n_range=(4, 8), seed=SEED)
    elapsed = time.perf_counter() - t0
    ok = rep.ok and rep.instances == 500 and elapsed < 600
    report(5, "delete-contract-equivalence", ok)
    assert ok, rep


def test_criterion_06_cover_bound():
    t0 = time.perf_counter()
    rep = cover_bound_sweep(5, seed=SEED)
    elapsed = time.perf_counter() - t0
    ok = rep.ok and rep.instances == 1 + 2 + 4 + 11 + 34 and elapsed < 300
    report(6, "cover-bound-exact-n5", ok)
    assert ok, rep


def test_criterion_07_operation_suite():
    t0 = time.perf_counter()
    rep = operation_preservation_suite(samples=100, seed=SEED)
    elapsed = time.perf_counter() - t0
    ok = rep.ok and rep.instances == 700 and elapsed < 600
    report(7, "operation-independence-suite", ok)
    assert ok, rep


def test_criterion_08_bruteforce_vs_reduced(pair_classes_7):
    # every pair class on 2 to 6 vertices and every 13th on 7; the full
    # seven-vertex run is in __main__ below
    t0 = time.perf_counter()
    bad = 0
    total = 0
    graphs = [g for n in range(2, 7) for g in enumerate_graphs(n, pair=True)]
    for g in graphs + pair_classes_7[::13]:
        total += 1
        if is_uv_sparse(g).sparse != is_uv_sparse_bruteforce(g).sparse:
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and total == 2 + 6 + 28 + 148 + 1144 + 1010 and elapsed < 600
    report(8, "bruteforce-vs-reduced-checker", ok)
    assert ok, (bad, total)


def test_criterion_09_global_certifier():
    t0 = time.perf_counter()
    verdicts = []
    for text in (SEQ_SPLIT, SEQ_ONE_EXT):
        rep = certify_sequence(parse_sequence(text))
        verdicts.append(
            rep.pass_minus_pair_regime
            and rep.pass_redundant_regime
            and (rep.final_graph.n, rep.final_graph.m) == (7, 13)
            and rep.final_graph.m == 2 * rep.final_graph.n - 1
        )
    bases_ok = True
    for tag, m in (("K5_MINUS_E", 9), ("H_GRAPH", 11)):
        g = base_graph(tag)
        bases_ok &= g.m == m and pebble_rank(g) == 2 * g.n - 2 and is_rigid_comb(g)
        bases_ok &= all(
            pebble_rank(delete_edge(g, *e)) == 2 * g.n - 2 for e in g.edges
        )
    elapsed = time.perf_counter() - t0
    ok = all(verdicts) and bases_ok and elapsed < 1.0
    report(9, "construction-certifier", ok)
    assert ok


def test_criterion_10_support_identities():
    rng = np.random.default_rng(SEED)
    violations = 0
    for p in (1.5, 3.0, 4.0, 7.0):
        plane = LpPlane(p)
        q = p / (p - 1)
        z = rng.uniform(-10, 10, size=(10_000, 2))
        z = z[np.abs(z).sum(axis=1) > 1e-6]
        norms = plane.norm_batch(z)
        phis = plane.support_batch(z)
        eval_at_z = np.einsum("ij,ij->i", phis, z)
        violations += int(np.sum(np.abs(eval_at_z - norms**2) > 1e-10 * norms**2))
        dual = (np.abs(phis) ** q).sum(axis=1) ** (1.0 / q)
        violations += int(np.sum(np.abs(dual - norms) > 1e-9 * norms))
    ok = violations == 0
    report(10, "support-functional-identities", ok)
    assert ok, violations


def pair_class_oracles(n: int) -> int:
    """The full n-vertex oracles; the number of mismatches.

    Criterion 08 on n vertices, then one pass of one-graph 10-trial ranks
    over every pair class on n vertices, each under the placement seed
    the equivalence sweep gives it, read three times: counting against
    numerical uv-independence, every per-trial rank against the counting
    uv-rank, which bounds it, and one settled generic_ranks batch over
    those classes against those reports, in every field where trial 0
    falls short of both the rank cap and that bound and the exact rank
    below does not meet it (the batch reruns them), and elsewhere in the
    verdict fields and trial 0, its only trial.  Before the batch, each
    class's exact rank mod the prime of its integer placement at lp:4 is
    read against that bound, which it may meet but never pass.  Each
    class's ten placement streams, as a
    one-graph call draws them, are then checked bit for bit against
    numpy's own generator, the oracle of the SeedSequence port.  Last,
    the counting uv-rank against greedy insertion under the brute-force
    checker on every pair class on n - 1 and n vertices.  Each step
    prints its counts and time.
    """
    from test_rigidity import VERDICT_FIELDS, exact_rank
    from test_sparsity import _greedy_uv_rank

    from normrig.rigidity import _BOX_RADIUS, derive_seeds, generic_ranks, uniform_streams
    from normrig.sparsity import uv_rank_comb

    classes = enumerate_graphs(n, pair=True)
    t0 = time.perf_counter()
    combs = [is_uv_sparse(g).sparse for g in classes]
    brute_bad = sum(c != is_uv_sparse_bruteforce(g).sparse for g, c in zip(classes, combs))
    print(f"bruteforce vs reduced: graphs {len(classes)} mismatches {brute_bad} "
          f"time {time.perf_counter() - t0:.1f} s")
    t0 = time.perf_counter()
    seeds = derive_seeds(SEED, len(classes))
    full = [generic_ranks([g], [s], True, trials=10)[0] for g, s in zip(classes, seeds)]
    bad = sum(rep.independent != c for rep, c in zip(full, combs))
    print(f"counting vs numerical (one-graph 10-trial ranks): graphs {len(classes)} "
          f"mismatches {bad} time {time.perf_counter() - t0:.1f} s")
    t0 = time.perf_counter()
    bounds = [uv_rank_comb(g) for g in classes]
    over = sum(max(rep.per_trial_ranks) > b for rep, b in zip(full, bounds))
    print(f"per-trial ranks vs counting uv-rank: graphs {len(classes)} over the bound {over} "
          f"time {time.perf_counter() - t0:.1f} s")
    t0 = time.perf_counter()
    exact = [exact_rank(g, True, 4, s) for g, s in zip(classes, seeds)]
    exact_over = sum(e is not None and e > b for e, b in zip(exact, bounds))
    print(f"exact rank mod the prime vs counting uv-rank at lp:4: graphs {len(classes)} "
          f"over the bound {exact_over} below it {sum(e != b for e, b in zip(exact, bounds))} "
          f"time {time.perf_counter() - t0:.1f} s")
    t0 = time.perf_counter()
    batch = generic_ranks(classes, seeds, coincident=True, settle=True)
    short = [rep.per_trial_ranks[0] < min(rep.rows, 2 * rep.n_vertices - 2, b) and e != b
             for rep, b, e in zip(full, bounds, exact)]
    batch_bad = sum(
        got != rep if rerun else (
            got.per_trial_ranks != rep.per_trial_ranks[:1]
            or any(getattr(got, f) != getattr(rep, f) for f in VERDICT_FIELDS)
        )
        for got, rep, rerun in zip(batch, full, short)
    )
    print(f"settled batch vs one-graph ranks: graphs {len(classes)} rerun {sum(short)} "
          f"mismatches {batch_bad} time {time.perf_counter() - t0:.1f} s")
    t0 = time.perf_counter()
    r, trials = _BOX_RADIUS, range(10)
    stream_bad = sum(
        uniform_streams([(s, t) for t in trials], [2 * g.n] * len(trials)).tobytes()
        != b"".join(np.random.default_rng([s, t]).uniform(-r, r, 2 * g.n).tobytes()
                    for t in trials)
        for g, s in zip(classes, seeds)
    )
    print(f"placement streams vs numpy's generator: graphs {len(classes)} "
          f"mismatches {stream_bad} time {time.perf_counter() - t0:.1f} s")
    t0 = time.perf_counter()
    greedy_classes = enumerate_graphs(n - 1, pair=True) + classes
    rank_bad = sum(uv_rank_comb(g) != _greedy_uv_rank(g) for g in greedy_classes)
    print(f"counting uv-rank vs greedy: graphs {len(greedy_classes)} mismatches {rank_bad} "
          f"time {time.perf_counter() - t0:.1f} s")
    return brute_bad + bad + over + exact_over + batch_bad + stream_bad + rank_bad


def test_pair_class_oracles_at_five_vertices():
    # the seven-vertex run, too slow for tier-1, is the __main__ below
    assert pair_class_oracles(5) == 0


if __name__ == "__main__":
    # The full seven-vertex oracles (pair_class_oracles(7)); exits 1 on
    # any mismatch.
    # Run as `PYTHONPATH=src python3 tests/test_acceptance.py`.
    import sys

    sys.exit(1 if pair_class_oracles(7) else 0)
