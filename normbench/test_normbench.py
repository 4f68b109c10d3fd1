"""Tests of the benchmark itself: inputs, hooks and the metric set.

Run from the repository root with ``python3 -m pytest -q normbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from normbench import layers, run, speed, workloads  # noqa: E402
from normbench.speed import Clock  # noqa: E402
from normbench.trace import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_workloads(tmp_path, seed=5):
    return [
        workloads.sweeps(seed, size="small"),
        workloads.uv_bruteforce(seed, top_count=4, max_n=5),
        workloads.construct(seed, size=10, count=2),
        workloads.cli_queries(seed, workdir=tmp_path, sizes=(8,), grown=(12,), big=70),
    ]


# Layers each workload exists to exercise: a hook that still has a
# target must record calls there.
EXERCISED = {
    "sweeps": [
        "enumeration.enumerate_graphs", "kernels.canonize_batch",
        "kernels.pebble_game", "sparsity.is_rigid_comb", "sparsity.is_uv_sparse",
        "sparsity.cover_rank_bound", "rigidity.rank", "rigidity.build_rigidity_matrix",
        "norms.support_batch", "rigidity.svd", "rigidity.affine_span",
        "experiments.sweep", "graph.delete_edge", "graph.contract_pair",
    ],
    "uv-bruteforce": ["kernels.family_best", "sparsity.is_uv_sparse_bruteforce"],
    "construct": [
        "globalrig.certify_sequence", "globalrig.is_redundantly_rigid_comb",
        "globalrig.random_certified_graph", "graph.apply_step", "kernels.pebble_game",
    ],
    "cli-queries": ["cli.main", "graph.parse_graph", "rigidity.rank"],
}


def test_spec_lists_the_emitted_metrics():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_are_deterministic(tmp_path):
    a = [w.inputs for w in small_workloads(tmp_path)]
    b = [w.inputs for w in small_workloads(tmp_path)]
    c = [w.inputs for w in small_workloads(tmp_path, seed=6)]
    assert a == b
    assert all(x != y for x, y in zip(a, c))


def test_cases_are_valid_graph_files():
    for case in workloads.make_cases(3, sizes=(8,), grown=(12,), big=70):
        n, edges, pair = workloads._parse_edges(case.text)
        assert (n, edges, pair) == (case.n, case.edges, case.pair)
        assert all(0 <= a < b < n for a, b in edges)


def _bindings():
    return {
        (name, key): id(val)
        for name, mod in sys.modules.items()
        if name == "normrig" or name.startswith("normrig.")
        for key, val in vars(mod).items()
        if callable(val)
    }


def test_hooks_restore_the_originals():
    import normrig.cli  # noqa: F401  (every hooked module is loaded first)
    import normrig.experiments
    import normrig.globalrig  # noqa: F401
    import normrig.norms

    before = _bindings()
    sweeps_before = dict(normrig.experiments.SWEEPS)
    method = normrig.norms.LpPlane.__dict__["support_batch"]
    t = Tracer()
    t.install(layers.HOOKS)
    assert t.bindings and not t.missing
    assert normrig.norms.LpPlane.__dict__["support_batch"] is not method
    t.uninstall()
    assert _bindings() == before
    assert normrig.experiments.SWEEPS == sweeps_before
    assert normrig.norms.LpPlane.__dict__["support_batch"] is method


def test_missing_target_is_reported_not_fatal():
    t = Tracer()
    t.install([layers.Hook("sparsity", "no_such_function", "x"),
               layers.Hook("no_such_module", "f", "y")])
    t.uninstall()
    assert t.missing == ["sparsity.no_such_function", "no_such_module.f"]


def test_smoke_run_emits_every_metric(tmp_path):
    for wl in small_workloads(tmp_path):
        stats = [run.UnitStats() for _ in wl.units]
        clock = Clock()
        untraced = run.run_pass(wl.units, stats, clock)
        t = Tracer()
        t.install(layers.HOOKS)
        try:
            traced = run.run_pass(wl.units, stats)  # verdicts must not change
        finally:
            t.uninstall()
        refused, _ = run.run_untimed(wl.untimed)
        wl.cleanup()
        clock.tick(force=True)
        e2e, _ = run.end_to_end(stats, [(clock.probes[0][0], 0.2)], clock)
        per_layer = layers.layer_metrics(t, traced, untraced, refused)
        assert list(e2e) == [name for name, _ in run.END_TO_END]
        assert all(v > 0 for v in e2e.values()), (wl.name, e2e)
        assert list(per_layer) == [name for name, _ in layers.PER_LAYER]
        gone = {h.layer for h in layers.HOOKS if f"{h.module}.{h.attr}" in t.missing}
        for layer in EXERCISED[wl.name]:
            assert layer in gone or t.calls[layer] > 0, (wl.name, layer)
        assert sum(st.attempted for st in stats) > 0
        assert sum(st.failed for st in stats) == 0
        if wl.name == "cli-queries":  # the 70-vertex pebble games, both forms
            assert refused == 2 * 2


def test_clock_scales_by_the_nearby_probes():
    clock = Clock()
    clock.probes = [(float(t), 2 * speed.PROBE_REF_S) for t in range(10)]
    clock.probes += [(float(t), speed.PROBE_REF_S) for t in range(100, 110)]
    assert clock.scale(5.0, 1.0) == 0.5  # a host at half speed
    assert clock.scale(105.0, 1.0) == 1.0


def test_wrong_verdict_is_an_error():
    case = workloads.make_cases(1, sizes=(), grown=(), big=70)[0]  # K_{2,3}
    with pytest.raises(workloads.CheckError):
        workloads.check_query(case, "rank", False, "rank: 7\nrows: 6\nrigid: no\n")
    short = "rank: 5\nrows: 6\nedges: 6\nindependent: no\nrigid: no\n"
    assert workloads.check_query(case, "rank", False, short) == (5, False)
    bad = "uv-sparse: no\nwitness: family {0,1,2},{0,1,3} covers 6 > val 5\n"
    with pytest.raises(workloads.CheckError):
        workloads.check_query(case, "check-uv-sparse", False, bad)
