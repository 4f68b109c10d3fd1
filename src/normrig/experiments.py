"""Cross-validation sweeps: combinatorial verdicts against numerical rank.

Each sweep walks a stream of instances (exhaustive up to isomorphism
where feasible, random beyond), computes a combinatorial verdict and a
randomized numerical one, and reports disagreements.  All of them run
through one loop, ``_run``, which decides every instance once: instance
i is placed under the seed numpy's SeedSequence derives from
[seed, i, 0], and a numerical verdict that contradicts the
combinatorial side is a disagreement that carries that seed.  The
numerical verdict is already the best of ``trials`` placements, and
unlucky placements can sit below generic rank, never above it, so no
rerun is made.  Only the verdict is read, so every instance is ranked
in one settled batch (rigidity.generic_ranks with settle).

Reports are value objects: rerunning a sweep with the same seed and
configuration yields an equal report (runtime is carried but excluded
from comparisons).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .enumeration import check_exhaustive, enumerate_graphs, random_graph
from .graph import (
    Graph,
    GraphError,
    delete_edge,
    format_graph,
    one_extension,
    vertex_to_four_cycle,
    vertex_to_h,
    zero_extension,
)
from .norms import DEFAULT_PLANE, LpPlane, parse_norm
from .rigidity import derive_seeds, generic_ranks, resolve_seed
from .sparsity import (
    PebbleState,
    cover_rank_bound,
    is_uv_rigid_comb,
    is_uv_sparse,
    is_rigid_comb,
)

_PAIR_EXHAUSTIVE_MAX_N = 6  # n = 7 has 13128 pair classes, ten times those below


@dataclass(frozen=True)
class Disagreement:
    index: int
    graph: str
    combinatorial: int | bool
    numeric: int | bool
    rank: int
    rows: int
    seed: int
    note: str = ""


@dataclass(frozen=True)
class SweepReport:
    name: str
    config: tuple[tuple[str, object], ...]
    instances: int
    agreements: int
    disagreements: tuple[Disagreement, ...]
    runtime: float = field(compare=False, default=0.0)

    def __post_init__(self):
        if self.agreements + len(self.disagreements) != self.instances:
            raise ValueError("agreements + |disagreements| must equal instances")

    @property
    def ok(self) -> bool:
        return not self.disagreements


def _config(**kw) -> tuple[tuple[str, object], ...]:
    return tuple(sorted(kw.items()))


def _run(name, items, comb_fn, kind, attr, desc, trials, seed, **keys) -> SweepReport:
    """The sweep loop: items(seed) yields (note, graph) pairs, and each
    comb_fn(graph) is checked against the field attr of the graph's
    plain or coincident RankReport (kind).  One settled generic_ranks
    call ranks every instance, instance i under the seed
    SeedSequence([seed, i, 0]).generate_state(1)[0], all of them hashed
    by one rigidity.derive_seeds call.  keys join norm, trials and seed
    in the report's config."""
    t0 = time.perf_counter()
    plane = desc or DEFAULT_PLANE
    seed = resolve_seed(seed)
    instances = list(items(seed))
    graphs = [g for _, g in instances]
    combs = [comb_fn(g) for g in graphs]
    seeds = derive_seeds(seed, len(graphs))
    reports = generic_ranks(graphs, seeds, kind == "coincident", plane, trials, settle=True)
    disagreements = [
        Disagreement(idx, format_graph(g), comb, getattr(rep, attr), rep.rank, rep.rows,
                     s, note)
        for idx, ((note, g), comb, rep, s) in enumerate(zip(instances, combs, reports, seeds))
        if getattr(rep, attr) != comb
    ]
    config = _config(norm=plane.spec_string(), trials=trials, seed=seed, **keys)
    return SweepReport(name, config, len(instances), len(instances) - len(disagreements),
                       tuple(disagreements), runtime=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _pair_instances(max_n: int, samples_per_large_n: int, seed: int):
    for n in range(2, min(max_n, _PAIR_EXHAUSTIVE_MAX_N) + 1):
        yield from (("", g) for g in enumerate_graphs(n, pair=True))
    rng = np.random.default_rng([seed, 0xE0])
    for n in range(_PAIR_EXHAUSTIVE_MAX_N + 1, max_n + 1):
        for _ in range(samples_per_large_n):
            yield "", random_graph(rng, n, pair=True)


def equivalence_sweep(
    max_n: int = 8,
    desc: LpPlane | None = None,
    trials: int = 10,
    seed: int | None = None,
    samples_per_large_n: int = 100,
) -> SweepReport:
    """uv-sparsity vs numerical uv-independence, graph by graph.

    Exhaustive over pair-preserving isomorphism classes for n <= 6,
    randomly sampled for 7 <= n <= max_n.
    """
    return _run(
        "equivalence",
        lambda s: _pair_instances(max_n, samples_per_large_n, s),
        lambda g: is_uv_sparse(g).sparse,
        "coincident", "independent", desc, trials, seed,
        max_n=max_n, samples_per_large_n=samples_per_large_n,
    )


def delete_contract_sweep(
    samples: int = 500,
    n_range: tuple[int, int] = (4, 8),
    desc: LpPlane | None = None,
    trials: int = 10,
    seed: int | None = None,
) -> SweepReport:
    """Delete-contract uv-rigidity vs numerical rank 2|V|-2 on random graphs."""
    lo, hi = n_range

    def items(seed: int):
        if lo > hi:
            raise GraphError(f"empty vertex-count range {lo}..{hi}")
        rng = np.random.default_rng([seed, 0xDC])
        for _ in range(samples):
            yield "", random_graph(rng, int(rng.integers(lo, hi + 1)), pair=True)

    return _run(
        "delete-contract", items, is_uv_rigid_comb, "coincident", "rigid",
        desc, trials, seed, samples=samples, n_range=n_range,
    )


def rigidity_sweep(
    max_n: int = 6,
    desc: LpPlane | None = None,
    trials: int = 10,
    seed: int | None = None,
) -> SweepReport:
    """Tight-spanning-subgraph rigidity vs numerical rank on connected graphs."""
    check_exhaustive(max_n)
    return _run(
        "rigidity",
        lambda _: (("", g) for n in range(3, max_n + 1)
                   for g in enumerate_graphs(n, connected=True)),
        is_rigid_comb, "plain", "rigid", desc, trials, seed, max_n=max_n,
    )


def cover_bound_sweep(
    max_n: int = 5,
    desc: LpPlane | None = None,
    trials: int = 10,
    seed: int | None = None,
) -> SweepReport:
    """Cover upper bound vs generic rank: equality for every small graph."""
    check_exhaustive(max_n)
    return _run(
        "cover-bound",
        lambda _: (("", g) for n in range(1, max_n + 1) for g in enumerate_graphs(n)),
        lambda g: cover_rank_bound(g).value,
        "plain", "rank", desc, trials, seed, max_n=max_n,
    )


# ---------------------------------------------------------------------------
# operation preservation suite
# ---------------------------------------------------------------------------

OP_VARIANTS = (
    "uv-0-extension",
    "uv-1-extension",
    "0-extension-adding-pair-vertex",
    "4-cycle-adding-pair-vertex",
    "uv-4-cycle",
    "vertex-to-h-adding-pair-vertex",
    "uv-vertex-to-h",
)


@cache
def min_uv_tight_h() -> Graph:
    """Smallest graph that is uv-tight (and uv-rigid): K4 plus a degree-2
    pair partner.  No 4-vertex graph fits 2|V|-2 edges without the pair
    edge, so five vertices is minimal.  Built once: graphs are immutable."""
    return Graph.from_edges(
        range(5),
        [(0, 2), (0, 3), (0, 4), (2, 3), (2, 4), (3, 4), (1, 2), (1, 3)],
        pair=(0, 1),
    )


_K4 = Graph.complete(4)  # the replacement graph of uv-vertex-to-h
_HOST_SIZES = (4, 8)  # rng.integers bounds: operation hosts have 4 to 7 vertices


def _independent_subgraph(g: Graph) -> Graph:
    # the accepted edges are some of g's own, so no from_edges checks
    return Graph(g.vertices, frozenset(PebbleState(g).accepted), g.designated_pair)


def _sparse_host(rng: np.random.Generator) -> Graph:
    n = int(rng.integers(*_HOST_SIZES))
    return _independent_subgraph(random_graph(rng, n))


def _uv_sparse_host(rng: np.random.Generator) -> Graph:
    while True:
        n = int(rng.integers(*_HOST_SIZES))
        g = random_graph(rng, n, pair=True)
        u, v = g.designated_pair
        if g.has_edge(u, v):
            g = delete_edge(g, u, v)
        g = _independent_subgraph(g)
        if is_uv_sparse(g).sparse:
            return g


def _fresh(g: Graph) -> int:
    return max(g.vertices) + 1


def _random_reassign(rng, g: Graph, w: int, x1: int, x2: int, w_new: int):
    rest = [y for y in g.neighbors(w) if y not in (x1, x2)]
    return {y: (w if rng.random() < 0.5 else w_new) for y in rest}


def _apply_variant(variant: str, rng: np.random.Generator) -> Graph:
    """Sample a host meeting the variant's hypotheses and apply the move."""
    if variant == "uv-0-extension":
        g = _uv_sparse_host(rng)
        u, v = g.designated_pair
        while True:
            a, b = rng.choice(g.vertices, size=2, replace=False)
            if {int(a), int(b)} != {u, v}:
                return zero_extension(g, int(a), int(b), _fresh(g))
    if variant == "uv-1-extension":
        while True:
            g = _uv_sparse_host(rng)
            u, v = g.designated_pair
            cands = [
                (a, b, c)
                for a, b in g.sorted_edges()
                for c in g.vertices
                if c not in (a, b) and not {u, v} <= {a, b, c}
            ]
            if cands:
                a, b, c = cands[int(rng.integers(len(cands)))]
                return one_extension(g, a, b, c, _fresh(g))
    if variant == "0-extension-adding-pair-vertex":
        g = _sparse_host(rng)
        u = g.vertices[int(rng.integers(g.n))]
        rest = [x for x in g.vertices if x != u]
        a, b = rng.choice(rest, size=2, replace=False)
        z = _fresh(g)
        return zero_extension(g, int(a), int(b), z).with_pair(u, z)
    if variant == "4-cycle-adding-pair-vertex":
        while True:
            g = _sparse_host(rng)
            ws = [w for w in g.vertices if g.degree(w) >= 2]
            if ws:
                w = ws[int(rng.integers(len(ws)))]
                x1, x2 = rng.choice(g.neighbors(w), size=2, replace=False)
                w_new = _fresh(g)
                g2 = vertex_to_four_cycle(
                    g, w, w_new, int(x1), int(x2),
                    _random_reassign(rng, g, w, int(x1), int(x2), w_new),
                )
                return g2.with_pair(w, w_new)
    if variant == "uv-4-cycle":
        # The cycle contacts must not be exactly the designated pair: a
        # coincident placement puts them at one point, and the move then
        # demonstrably breaks uv-sparsity (e.g. splitting the spare
        # vertex of K4 minus the pair edge through u and v).
        while True:
            g = _uv_sparse_host(rng)
            u, v = g.designated_pair
            ws = [
                w
                for w in g.vertices
                if g.degree(w) >= 2 and set(g.neighbors(w)) != {u, v}
            ]
            if ws:
                w = ws[int(rng.integers(len(ws)))]
                while True:
                    x1, x2 = rng.choice(g.neighbors(w), size=2, replace=False)
                    if {int(x1), int(x2)} != {u, v}:
                        break
                return vertex_to_four_cycle(
                    g, w, _fresh(g), int(x1), int(x2),
                    _random_reassign(rng, g, w, int(x1), int(x2), _fresh(g)),
                )
    if variant == "vertex-to-h-adding-pair-vertex":
        g = _sparse_host(rng)
        h = min_uv_tight_h()
        w = g.vertices[int(rng.integers(g.n))]
        attach = {y: int(rng.integers(h.n)) for y in g.neighbors(w)}
        return vertex_to_h(g, w, h, attach)
    if variant == "uv-vertex-to-h":
        g = _uv_sparse_host(rng)
        u, v = g.designated_pair
        ws = [x for x in g.vertices if x not in (u, v)]
        w = ws[int(rng.integers(len(ws)))]
        attach = {y: int(rng.integers(4)) for y in g.neighbors(w)}
        return vertex_to_h(g, w, _K4, attach)
    raise ValueError(f"unknown operation variant {variant!r}")


def operation_preservation_suite(
    samples: int = 100,
    desc: LpPlane | None = None,
    seed: int | None = None,
    trials: int = 10,
) -> SweepReport:
    """Apply each independence-preserving move to random admissible hosts.

    Hosts are drawn to satisfy the combinatorial hypotheses, so every
    resulting framework must come out numerically uv-independent;
    anything else is a disagreement.
    """

    def items(seed: int):
        for vi, variant in enumerate(OP_VARIANTS):
            rng = np.random.default_rng([seed, 0x09, vi])
            for _ in range(samples):
                yield variant, _apply_variant(variant, rng)

    return _run(
        "operation-preservation", items, lambda g: True, "coincident",
        "independent", desc, trials, seed, samples=samples,
    )


def conjecture_probe(
    desc_list: tuple[str, ...] | list[str] = ("lp:1.2", "lp:1.5", "lp:3", "lp:7"),
    samples: int = 100,
    seed: int | None = None,
    max_n: int = 5,
    trials: int = 10,
) -> SweepReport:
    """The uv-sparsity equivalence re-run across several norms, each given
    as a norm spec string that parse_norm reads.

    The combinatorial side never sees the norm, so any verdict that
    moves with the exponent would show up as a disagreement.  Every
    shipped norm is strictly convex; the probe checks robustness across
    them, nothing more.
    """
    seed = resolve_seed(seed)
    t0 = time.perf_counter()
    planes = [parse_norm(d) for d in desc_list]
    reps = [
        equivalence_sweep(max_n, p, trials=trials, seed=seed, samples_per_large_n=samples)
        for p in planes
    ]
    found = [(p, d) for p, r in zip(planes, reps) for d in r.disagreements]
    norms = tuple(p.spec_string() for p in planes)
    return SweepReport(
        "conjecture-probe",
        _config(norms=norms, samples=samples, max_n=max_n, trials=trials, seed=seed),
        sum(r.instances for r in reps),
        sum(r.agreements for r in reps),
        tuple(
            replace(d, index=i, note=f"norm {p.spec_string()}")
            for i, (p, d) in enumerate(found)
        ),
        runtime=time.perf_counter() - t0,
    )


SWEEPS = {
    "equivalence": equivalence_sweep,
    "delete-contract": delete_contract_sweep,
    "rigidity": rigidity_sweep,
    "cover-bound": cover_bound_sweep,
    "operations": operation_preservation_suite,
    "conjecture": conjecture_probe,
}


def format_report(rep: SweepReport, verbose: bool = False) -> str:
    """Human-readable, deterministic rendering (runtime deliberately absent)."""
    lines = [
        f"sweep: {rep.name}",
        "config: " + " ".join(f"{k}={v}" for k, v in rep.config),
        f"instances: {rep.instances}",
        f"agreements: {rep.agreements}",
        f"disagreements: {len(rep.disagreements)}",
    ]
    for d in rep.disagreements:
        lines.append(
            f"  [{d.index}] comb={d.combinatorial} numeric={d.numeric} "
            f"rank={d.rank}/{d.rows}"
            + (f" ({d.note})" if d.note else "")
        )
        if verbose:
            lines.extend("    " + ln for ln in d.graph.strip().splitlines())
    return "\n".join(lines) + "\n"
