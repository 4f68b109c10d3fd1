"""The traced layers: hook targets and the per-layer metrics built from them.

Layer names follow ``<module>.<function>``, except that the module
``_kernels`` is spelled ``kernels``, because a metric name must start
with a letter or digit; metrics are ``<layer>.<stat>`` with stat one of
``calls``, ``total_s``, ``self_s`` or a count named after the work it
measures.
"""

from __future__ import annotations

from .trace import Hook, Tracer

SWEEP = "experiments.sweep"
RANK = "rigidity.rank"
CERTIFY = "globalrig.certify_sequence"
GROW = "globalrig.random_certified_graph"
REDUNDANT = "globalrig.is_redundantly_rigid_comb"


def _count(key: str, amount):
    def on_call(t: Tracer, args, kwargs):
        t.counts[key] += amount(args)

    return on_call


def _kernel_pebble(t: Tracer, args, kwargs):
    t.counts["kernels.pebble_game.edges_offered"] += len(args[1])
    if t.active[REDUNDANT]:
        t.counts[f"{REDUNDANT}.pebble_games"] += 1


def _rank_call(t: Tracer, args, kwargs):
    if t.active[SWEEP] and not t.active[RANK]:
        t.counts["experiments.numeric_calls"] += 1


def _rank_return(t: Tracer, args, kwargs, rep):
    t.counts[f"{RANK}.trials"] += rep.trials
    t.counts[f"{RANK}.near_threshold"] += len(rep.notes)


def _split_attempt(t: Tracer, args, kwargs):
    step = args[1] if len(args) > 1 else kwargs.get("step")
    if type(step).__name__ == "GeneralizedVertexSplit":
        if t.active[GROW] and not t.active[CERTIFY]:
            t.counts["globalrig.split_attempts"] += 1


def _split_accepted(t: Tracer, args, kwargs, result):
    _, seq, _ = result
    t.counts["globalrig.splits_accepted"] += sum(
        type(s).__name__ == "GeneralizedVertexSplit" for s in seq.steps
    )


def _sweep_return(t: Tracer, args, kwargs, rep):
    t.counts["experiments.instances"] += rep.instances


SWEEP_FUNCTIONS = (
    "rigidity_sweep",
    "equivalence_sweep",
    "delete_contract_sweep",
    "cover_bound_sweep",
    "operation_preservation_suite",
)

HOOKS = [
    Hook("enumeration", "enumerate_graphs", "enumeration.enumerate_graphs"),
    Hook(
        "_kernels", "canonize_batch", "kernels.canonize_batch",
        on_call=_count("kernels.canonize_batch.mask_perms",
                       lambda a: len(a[0]) * len(a[1])),
    ),
    Hook("_kernels", "pebble_game", "kernels.pebble_game", on_call=_kernel_pebble),
    Hook(
        "_kernels", "family_best", "kernels.family_best",
        on_call=_count("kernels.family_best.families", lambda a: 2 ** len(a[0])),
    ),
    Hook("sparsity", "pebble_game", "sparsity.pebble_game"),
    Hook("sparsity", "is_rigid_comb", "sparsity.is_rigid_comb"),
    Hook("sparsity", "is_uv_sparse", "sparsity.is_uv_sparse"),
    Hook("sparsity", "is_uv_sparse_bruteforce", "sparsity.is_uv_sparse_bruteforce"),
    Hook("sparsity", "cover_rank_bound", "sparsity.cover_rank_bound"),
    Hook("rigidity", "generic_rank", RANK, on_call=_rank_call, on_return=_rank_return),
    Hook("rigidity", "uv_generic_rank", RANK, on_call=_rank_call, on_return=_rank_return),
    Hook(
        "rigidity", "build_rigidity_matrix", "rigidity.build_rigidity_matrix",
        on_return=lambda t, a, k, r: t.counts.update(
            {"rigidity.build_rigidity_matrix.entries": r.array.size}
        ),
    ),
    Hook("rigidity", "numerical_rank_detail", "rigidity.svd"),
    Hook("rigidity", "_affine_span_full", "rigidity.affine_span"),
    Hook("norms", "LpPlane.support_batch", "norms.support_batch"),
    Hook("norms", "random_placement", "norms.placement"),
    Hook("norms", "random_coincident_placement", "norms.placement"),
    *[Hook("experiments", f, SWEEP, on_return=_sweep_return) for f in SWEEP_FUNCTIONS],
    Hook("globalrig", "certify_sequence", CERTIFY),
    Hook("globalrig", "is_redundantly_rigid_comb", REDUNDANT),
    Hook("globalrig", "random_certified_graph", GROW, on_return=_split_accepted),
    Hook("graph", "delete_edge", "graph.delete_edge"),
    Hook("graph", "apply_step", "graph.apply_step", on_call=_split_attempt),
    Hook("graph", "contract_pair", "graph.contract_pair"),
    Hook("graph", "parse_graph", "graph.parse_graph"),
    Hook("cli", "main", "cli.main"),
]

# (metric, unit); the order is the order of BENCHMARK.json's per_layer.
PER_LAYER = [
    ("enumeration.enumerate_graphs.calls", "count"),
    ("enumeration.enumerate_graphs.total_s", "s"),
    ("kernels.canonize_batch.calls", "count"),
    ("kernels.canonize_batch.total_s", "s"),
    ("kernels.canonize_batch.mask_perms", "count"),
    ("kernels.pebble_game.calls", "count"),
    ("kernels.pebble_game.total_s", "s"),
    ("kernels.pebble_game.edges_offered", "count"),
    ("kernels.family_best.calls", "count"),
    ("kernels.family_best.total_s", "s"),
    ("kernels.family_best.families", "count"),
    ("sparsity.pebble_game.self_s", "s"),
    ("sparsity.is_rigid_comb.calls", "count"),
    ("sparsity.is_uv_sparse.calls", "count"),
    ("sparsity.is_uv_sparse.self_s", "s"),
    ("sparsity.is_uv_sparse_bruteforce.calls", "count"),
    ("sparsity.is_uv_sparse_bruteforce.self_s", "s"),
    ("sparsity.cover_rank_bound.calls", "count"),
    ("sparsity.cover_rank_bound.self_s", "s"),
    ("rigidity.rank.calls", "count"),
    ("rigidity.rank.trials", "count"),
    ("rigidity.rank.self_s", "s"),
    ("rigidity.rank.near_threshold", "count"),
    ("rigidity.build_rigidity_matrix.calls", "count"),
    ("rigidity.build_rigidity_matrix.self_s", "s"),
    ("rigidity.build_rigidity_matrix.entries", "count"),
    ("norms.support_batch.calls", "count"),
    ("norms.support_batch.total_s", "s"),
    ("norms.placement.total_s", "s"),
    ("rigidity.svd.calls", "count"),
    ("rigidity.svd.total_s", "s"),
    ("rigidity.affine_span.calls", "count"),
    ("rigidity.affine_span.total_s", "s"),
    ("experiments.sweep.self_s", "s"),
    ("experiments.numeric_calls", "count"),
    ("experiments.retry_ratio", "ratio"),
    ("globalrig.certify_sequence.self_s", "s"),
    ("globalrig.is_redundantly_rigid_comb.calls", "count"),
    ("globalrig.is_redundantly_rigid_comb.total_s", "s"),
    ("globalrig.is_redundantly_rigid_comb.pebble_games", "count"),
    ("globalrig.random_certified_graph.self_s", "s"),
    ("globalrig.split_accept_ratio", "ratio"),
    ("graph.delete_edge.calls", "count"),
    ("graph.delete_edge.total_s", "s"),
    ("graph.apply_step.calls", "count"),
    ("graph.apply_step.total_s", "s"),
    ("graph.contract_pair.calls", "count"),
    ("graph.contract_pair.total_s", "s"),
    ("graph.parse_graph.calls", "count"),
    ("graph.parse_graph.total_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.refused", "count"),
    ("share.rank", "ratio"),
    ("share.pebble_game", "ratio"),
    ("share.family_best", "ratio"),
    ("share.canonize", "ratio"),
    ("trace.overhead_frac", "ratio"),
]

# Layer groups whose share of the traced wall time the report states.
SHARES = {
    "share.rank": RANK,
    "share.pebble_game": "kernels.pebble_game",
    "share.family_best": "kernels.family_best",
    "share.canonize": "kernels.canonize_batch",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, traced_wall: float, untraced_wall: float, refused: int) -> dict:
    """Every PER_LAYER metric as {name: value}; absent layers read 0.
    ``refused`` is the number of probe queries normrig refused."""
    total, selfs = t.totals()
    values: dict[str, float] = dict(t.counts)
    for layer, n in t.calls.items():
        values[f"{layer}.calls"] = n
    for layer, s in total.items():
        values[f"{layer}.total_s"] = s
    for layer, s in selfs.items():
        values[f"{layer}.self_s"] = s
    values["experiments.retry_ratio"] = _ratio(
        t.counts["experiments.instances"], t.counts["experiments.numeric_calls"]
    )
    values["globalrig.split_accept_ratio"] = _ratio(
        t.counts["globalrig.splits_accepted"], t.counts["globalrig.split_attempts"]
    )
    for name, layer in SHARES.items():
        values[name] = _ratio(total.get(layer, 0.0), traced_wall)
    values["trace.overhead_frac"] = _ratio(traced_wall, untraced_wall) - 1.0
    values["cli.refused"] = float(refused)
    return {name: float(values.get(name, 0.0)) for name, _ in PER_LAYER}
