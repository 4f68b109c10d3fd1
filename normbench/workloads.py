"""The four workloads: their inputs, the calls they time, and their checks.

A workload is a list of units.  A unit is one call into normrig through
its public API or ``normrig.cli.main``; its check validates the result
and returns ``(items, unresolved, fingerprint)``.  ``items`` is the
number of items the call completed, ``unresolved`` how many of them got
an answer that is valid but weaker than the counting side's (a numerical
rank short of the generic rank), and ``fingerprint`` a comparable
summary of the verdicts, which must be identical on every repetition and
in the traced run.  A wrong verdict raises ``CheckError`` and fails the
whole run.  A call that raises, or a CLI query that exits non-zero, got
no verdict and counts as failed.

Inputs come from the workload seed only.  The query graphs of
``cli-queries`` come from the benchmark's own generators; the other
workloads hand the seed to normrig's sweeps and construction generator,
which draw their instances themselves, as the acceptance suite does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 1729
CONSTRUCT_SEED = 7

# sha256 over the sha256 digests of the 16 sequence texts of construct(seed=7).
PINNED_SEQUENCE_DIGEST = "cf28addc91a0b94723870bb9fdb3f5eb781bbaf71e83f53bfb92c0d60d73583e"


class CheckError(AssertionError):
    """normrig returned a wrong verdict."""


@dataclass
class Unit:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[int, int, object]]


@dataclass
class Workload:
    name: str
    units: list[Unit]
    inputs: str  # canonical text of every generated input
    cleanup: Callable[[], None] = field(default=lambda: None)
    # Calls run once per run and never timed: queries normrig refuses
    # today, kept so that lifting a limit shows (run.py counts refusals).
    untimed: list[Unit] = field(default_factory=list)

    @property
    def inputs_digest(self) -> str:
        return hashlib.sha256(self.inputs.encode()).hexdigest()[:16]


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


# ---------------------------------------------------------------------------
# sweeps: acceptance criteria 03-07 in sub-second calls
# ---------------------------------------------------------------------------

# (sweep function, arguments, calls, instances per call).  Every call
# takes well under a second, so each repeats several times in a run and
# its fastest repetition sheds the host's contention phases (README.md).
# Criteria 05 and 07 keep their pinned instance counts as five calls
# with seeds derived from the workload seed.
SWEEP_SIZES = {
    "full": [
        ("rigidity_sweep", {"max_n": 6}, 1, 141),
        ("equivalence_sweep", {"max_n": 5, "samples_per_large_n": 0}, 1, 184),
        ("delete_contract_sweep", {"samples": 100, "n_range": (4, 8)}, 5, 100),
        ("cover_bound_sweep", {"max_n": 5}, 1, 52),
        ("operation_preservation_suite", {"samples": 20}, 5, 140),
    ],
    "small": [
        ("rigidity_sweep", {"max_n": 4}, 1, 8),
        ("equivalence_sweep", {"max_n": 4, "samples_per_large_n": 0}, 1, 36),
        ("delete_contract_sweep", {"samples": 10, "n_range": (4, 5)}, 2, 10),
        ("cover_bound_sweep", {"max_n": 3}, 1, 7),
        ("operation_preservation_suite", {"samples": 2}, 2, 14),
    ],
}


def sweeps(seed: int = DEFAULT_SEED, size: str = "full") -> Workload:
    from normrig import experiments

    def unit(func: str, kwargs: dict, call_seed: int, pinned: int) -> Unit:
        def run():  # looked up per call, so trace hooks on experiments apply
            return getattr(experiments, func)(seed=call_seed, **kwargs)

        def check(rep):
            require(rep.ok, f"{func} disagreements: {rep.disagreements}")
            require(rep.instances == pinned, f"{func}: {rep.instances} != {pinned}")
            return rep.instances, 0, rep

        return Unit(f"{func}:{call_seed}", run, check)

    units = [
        unit(func, kwargs, seed if calls == 1 else 10 * seed + i, pinned)
        for func, kwargs, calls, pinned in SWEEP_SIZES[size]
        for i in range(calls)
    ]
    inputs = json.dumps({"seed": seed, "sweeps": SWEEP_SIZES[size]}, sort_keys=True)
    return Workload("sweeps", units, inputs)


# ---------------------------------------------------------------------------
# uv-bruteforce: criterion 08 on a seeded selection of isomorphism classes
# ---------------------------------------------------------------------------

CLASS_COUNTS = {2: 2, 3: 6, 4: 28, 5: 148, 6: 1144}


def _uv_witness_ok(g, w) -> bool:
    u, v = g.designated_pair
    sets = [frozenset(s) for s in w.sets]
    return check_uv_witness(g.edges, u, v, sets, w.covered, w.value, w.kind)


def uv_bruteforce(seed: int = DEFAULT_SEED, top_count: int = 32, max_n: int = 6) -> Workload:
    """Every pair class on max_n - 1 vertices and ``top_count`` classes on
    max_n, evenly spaced in enumeration order, all without the pair edge:
    with it, both checkers return at once and the item measures nothing
    but call overhead.  The selection is fixed, so the work is too; the
    seed relabels each graph's vertices."""
    from normrig import enumeration, sparsity

    classes = {n: enumeration.enumerate_graphs(n, pair=True) for n in range(2, max_n + 1)}
    free = {n: [g for g in gs if not g.has_edge(0, 1)] for n, gs in classes.items()}
    top = free[max_n]
    step = max(1, len(top) // top_count)
    rng = np.random.default_rng([seed, 0x08])
    graphs = [_relabelled(rng, g) for g in free[max_n - 1] + top[::step][:top_count]]

    def enumerate_all():
        return [
            len(enumeration.enumerate_graphs(n, pair=True)) for n in range(2, max_n + 1)
        ]

    def check_enum(counts):
        want = [CLASS_COUNTS[n] for n in range(2, max_n + 1)]
        require(counts == want, f"class counts {counts} != {want}")
        return 0, 0, tuple(counts)

    def unit(g) -> Unit:
        def run():
            return sparsity.is_uv_sparse(g), sparsity.is_uv_sparse_bruteforce(g)

        def check(res):
            reduced, brute = res
            require(
                reduced.sparse == brute.sparse,
                f"reduced {reduced.sparse} != bruteforce {brute.sparse} on {_text(g)!r}",
            )
            for verdict in res:
                require(
                    verdict.sparse or _uv_witness_ok(g, verdict.witness),
                    f"invalid witness {verdict.witness} on {_text(g)!r}",
                )
            return 1, 0, reduced.sparse

        return Unit(f"n{g.n}", run, check)

    units = [Unit("enumerate", enumerate_all, check_enum)] + [unit(g) for g in graphs]
    inputs = "".join(_text(g) for g in graphs)
    return Workload("uv-bruteforce", units, inputs)


def _relabelled(rng, g):
    """g with its vertices 0..n-1 permuted at random, pair included."""
    perm = [int(x) for x in rng.permutation(g.n)]
    return g.relabel({v: perm[i] for i, v in enumerate(sorted(g.vertices))})


# ---------------------------------------------------------------------------
# construct: generate-global and certify-global behind the CLI
# ---------------------------------------------------------------------------


def construct(seed: int = CONSTRUCT_SEED, size: int = 16, count: int = 16) -> Workload:
    """``count`` constructions of ``size`` vertices, each generated and
    certified.  Every growth step is a split, so every sequence of a size
    has the same vertex and edge counts at every step; the cost of one
    construction still varies by about 12% between seeds (rejected
    splits), and ``count`` of them average that out."""
    from normrig import globalrig

    seen: dict[int, str] = {}

    def unit(call_seed: int) -> Unit:
        def run():
            g, seq, gen_report = globalrig.random_certified_graph(
                size, seed=call_seed, split_prob=1.0, edge_prob=0.0
            )
            return g, seq, gen_report, globalrig.certify_sequence(seq)

        def check(res):
            g, seq, gen_report, report = res
            digest = hashlib.sha256(globalrig.format_sequence(seq).encode()).hexdigest()
            require(seen.setdefault(call_seed, digest) == digest, "generation is not deterministic")
            require(gen_report.pass_minus_pair_regime, "generator report fails")
            require(report.pass_minus_pair_regime, "certify_sequence rejects the sequence")
            require(report.aborted_at is None, "certification aborted")
            require(report.final_graph == g, "certified graph differs from the generated one")
            require((g.n, g.m, len(seq.steps)) == (size, 2 * size - 1, size - 5), "shape")
            verdicts = tuple((s.minus_pair_rigid, s.redundantly_rigid) for s in report.steps)
            return len(seq.steps), 0, (digest, verdicts)

        return Unit(f"construct{size}:{call_seed}", run, check)

    seeds = [seed * 1000 + i for i in range(count)]
    units = [unit(s) for s in seeds]
    if (seed, size, count) == (CONSTRUCT_SEED, 16, 16):
        units.append(Unit("pinned", lambda: None, lambda _: check_pinned(seen, seeds)))
    inputs = json.dumps({"size": size, "seeds": seeds, "split_prob": 1.0, "edge_prob": 0.0})
    return Workload("construct", units, inputs)


def check_pinned(seen: dict, seeds: list[int]) -> tuple[int, int, object]:
    """The default seed's sequences hash to the pinned digest."""
    digest = hashlib.sha256("".join(seen[s] for s in seeds).encode()).hexdigest()
    require(digest == PINNED_SEQUENCE_DIGEST, f"sequence digest {digest}")
    return 0, 0, digest


# ---------------------------------------------------------------------------
# cli-queries: normrig.cli.main over a fixed query list
# ---------------------------------------------------------------------------

K23 = "5 6 0 1\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n"
TWO_K4 = "7 12 0 1\n0 2\n0 3\n0 6\n2 3\n2 6\n3 6\n1 4\n1 5\n1 6\n4 5\n4 6\n5 6\n"
EXHAUSTIVE_MAX_N = 14  # check-uv-sparse and cover-bound are exponential
PEBBLE_MAX_N = 63  # normrig's pebble game refuses larger graphs
PEBBLE_QUERIES = ("check-sparse", "uv-rigid-comb")


@dataclass
class Case:
    """One input graph and the verdicts every query on it must report."""

    name: str
    n: int
    edges: frozenset
    pair: tuple[int, int]
    rank: int  # generic rank = (2,2)-matroid rank
    uv_rigid: bool
    uv_sparse: bool | None = None  # None: not decided for this graph
    uv_rank: int | None = None
    ext: tuple[int, int] = (0, 1)  # base vertices of the `op apply` 0-extension

    @property
    def text(self) -> str:
        return _graph_text(self.n, self.edges, self.pair)


def _graph_text(n: int, edges, pair: tuple[int, int]) -> str:
    rows = [f"{n} {len(edges)} {pair[0]} {pair[1]}"] + [f"{a} {b}" for a, b in sorted(edges)]
    return "\n".join(rows) + "\n"


def _text(g) -> str:
    return _graph_text(g.n, g.edges, g.designated_pair)


def _parse_edges(text: str) -> tuple[int, frozenset, tuple[int, int] | None]:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    head = [int(x) for x in lines[0]]
    pair = (head[2], head[3]) if len(head) == 4 else None
    edges = frozenset(tuple(sorted((int(a), int(b)))) for a, b in lines[1:])
    return head[0], edges, pair


def _random_edges(rng, n: int, m: int) -> frozenset:
    slots = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return frozenset(slots[int(i)] for i in rng.choice(len(slots), size=m, replace=False))


def _grown_by_additions(rng, n: int) -> frozenset:
    """K5 minus an edge grown by degree-3 vertex additions and a few extra
    edges: a sequence certify-global accepts without any split check."""
    edges = {(a, b) for a in range(5) for b in range(a + 1, 5)} - {(3, 4)}
    for z in range(5, n):
        if rng.random() < 0.15:
            while True:
                a, b = sorted(int(x) for x in rng.choice(z, size=2, replace=False))
                if (a, b) not in edges:
                    edges.add((a, b))
                    break
        for y in rng.choice(z, size=3, replace=False):
            edges.add((int(y), z))
    return frozenset(edges)


def _zero_extended(rng, n: int) -> frozenset:
    """The smallest uv-tight graph grown by 0-extensions avoiding {0, 1}:
    uv-tight, so rank = uv-rank = 2n - 2 and both rigidities hold."""
    edges = {(0, 2), (0, 3), (0, 4), (2, 3), (2, 4), (3, 4), (1, 2), (1, 3)}
    for z in range(5, n):
        while True:
            a, b = sorted(int(x) for x in rng.choice(z, size=2, replace=False))
            if (a, b) != (0, 1):
                break
        edges |= {(a, z), (b, z)}
    return frozenset(edges)


def make_cases(seed: int, sizes=(8, 10, 12, 14), grown=(30, 60), big: int = 100):
    """The query graphs, with expected verdicts from the counting side.

    The graphs' shapes are fixed, because the exhaustive queries' cost
    depends on the shape; the seed relabels every graph's vertices and
    picks the `op apply` base vertices and the rank queries' --seed."""
    from normrig import graph as gmod
    from normrig import sparsity

    shape = np.random.default_rng(0xC1)
    raw = [("k23", _parse_edges(K23)), ("two-k4", _parse_edges(TWO_K4))]
    for n in sizes:
        raw.append((f"near-tight-{n}", (n, _random_edges(shape, n, 2 * n - 2), (0, 1))))
    for n in grown:
        u, v = (int(x) for x in shape.choice(n, size=2, replace=False))
        raw.append((f"grown-{n}", (n, _grown_by_additions(shape, n), (u, v))))
    raw.append((f"zero-ext-{big}", (big, _zero_extended(shape, big), (0, 1))))

    rng = np.random.default_rng([seed, 0xC1])
    cases = []
    for name, (n, edges, pair) in raw:
        perm = [int(x) for x in rng.permutation(n)]
        edges = frozenset(tuple(sorted((perm[a], perm[b]))) for a, b in edges)
        pair = (perm[pair[0]], perm[pair[1]])
        if name.startswith("zero-ext"):  # uv-tight by construction
            case = Case(name, n, edges, pair, 2 * n - 2, True, True, 2 * n - 2)
        else:
            g = gmod.Graph.from_edges(range(n), edges, pair)
            case = Case(name, n, edges, pair, sparsity.pebble_rank(g), sparsity.is_uv_rigid_comb(g))
            if n <= EXHAUSTIVE_MAX_N:
                case.uv_sparse = sparsity.is_uv_sparse(g).sparse
                require(
                    sparsity.cover_rank_bound(g).value == case.rank,
                    f"cover bound differs from pebble rank on {name}",
                )
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        case.ext = (a, b)
        cases.append(case)
    # acceptance criteria 01 and 02
    cases[0].uv_rank, cases[1].uv_rank = 5, 12
    return cases


def _covered(edges, sets) -> int:
    return sum(1 for a, b in edges if any(a in s and b in s for s in sets))


def _val(s: frozenset, u: int, v: int) -> int:
    t = 4 if s == {u, v} else 3 if len(s) in (2, 3) else 2
    return 2 * len(s) - t


def check_uv_witness(edges, u, v, sets, covered, value, kind) -> bool:
    """A uv-sparsity witness is valid when its recomputed counts match the
    reported ones and the sets cover more edges than their value."""
    if kind == "subset":
        (s,) = sets
        want = _val(s, u, v)
    elif kind == "family":
        if any(not ({u, v} <= s and len(s) >= 3) for s in sets):
            return False
        want = sum(_val(s, u, v) for s in sets) - 2 * (len(sets) - 1)
    else:
        return False
    got = _covered(edges, sets)
    return got == covered and want == value and got > value


_SET = re.compile(r"\{([\d,]*)\}")


def _sets(text: str) -> list[frozenset]:
    return [frozenset(int(x) for x in m.split(",") if x) for m in _SET.findall(text)]


def _kv(out: str) -> dict:
    return dict(ln.split(": ", 1) for ln in out.splitlines() if ": " in ln)


def _yes(x) -> bool:
    return x is True or x == "yes"


def check_query(case: Case, query: str, as_json: bool, out: str) -> tuple[object, bool]:
    """Validate one successful CLI answer.

    Returns the verdict fingerprint and whether the answer is resolved.
    Random placements never exceed the generic rank, and the combinatorial
    side gives that rank; a numerical rank that falls short of it is the
    randomized method's known miss (on long 0-extension chains every
    trial can land near the tolerance), so it counts as no verdict.
    Anything else that disagrees is a wrong verdict.
    """
    u, v = case.pair
    m = len(case.edges)
    rec = json.loads(out) if as_json else None
    res = rec.get("result", rec) if as_json else _kv(out)
    where = f"{query}{' --json' if as_json else ''} on {case.name}"

    def get(text_key: str, json_key: str):
        return res[json_key] if as_json else res[text_key]

    if query in ("rank", "rigid"):
        rank = int(get("rank", "rank"))
        rigid = _yes(get("rigid", "rigid"))
        require(rank <= case.rank, f"{where}: rank {rank} above generic {case.rank}")
        require(rigid == (rank == 2 * case.n - 2), f"{where}: rigid {rigid} at rank {rank}")
        if query == "rank":
            require(_yes(get("independent", "independent")) == (rank == m), f"{where}: independent")
        return rank, rank == case.rank
    if query in ("uv-rank", "uv-rigid"):
        rank = int(get("rank", "rank"))
        rigid = _yes(get("uv-rigid", "rigid"))
        require(rigid == (rank == 2 * case.n - 2), f"{where}: uv-rigid {rigid} at rank {rank}")
        require(case.uv_rigid or not rigid, f"{where}: uv-rigid, delete-contract says no")
        resolved = rigid == case.uv_rigid
        if case.uv_rank is not None:
            require(rank <= case.uv_rank, f"{where}: uv-rank {rank} above {case.uv_rank}")
            resolved &= rank == case.uv_rank
        if query == "uv-rank":
            removed = _yes(get("pair-edge-removed", "pair_edge_removed"))
            require(removed == ((min(u, v), max(u, v)) in case.edges), f"{where}: pair edge")
            rows = int(get("rows", "rows"))
            require(rows == m - removed and rank <= rows, f"{where}: rows {rows}")
            indep = _yes(get("uv-independent", "independent"))
            require(indep == (not removed and rank == rows), f"{where}: uv-independent")
            if case.uv_sparse is not None:
                require(case.uv_sparse or not indep, f"{where}: uv-independent, not uv-sparse")
                resolved &= indep == case.uv_sparse
        return (rank, rigid), resolved
    if query == "check-sparse":
        sparse = _yes(res["sparse"])
        require(sparse == (case.rank == m), f"{where}: sparse {sparse}")
        if not sparse:
            if as_json:
                w = res["witness"]
                s, covered, bound = frozenset(w["set"]), w["edges"], w["bound"]
            else:
                line = res["witness"]
                (s,) = _sets(line)
                covered, bound = (int(x) for x in re.findall(r"(\d+) > (\d+)", line)[0])
            require(
                covered == _covered(case.edges, [s])
                and bound == 2 * len(s) - 2
                and covered > bound,
                f"{where}: witness {s} {covered} > {bound}",
            )
        return sparse, True
    if query == "uv-rigid-comb":
        verdict = _yes(get("uv-rigid-comb", "uv_rigid_comb"))
        require(verdict == case.uv_rigid, f"{where}: {verdict} != {case.uv_rigid}")
        return verdict, True
    if query == "check-uv-sparse":
        sparse = _yes(get("uv-sparse", "sparse"))
        require(sparse == case.uv_sparse, f"{where}: uv-sparse {sparse}")
        if not sparse:
            if as_json:
                w = res["witness"]
                kind, sets = w["kind"], [frozenset(s) for s in w["sets"]]
                covered, value = w["covered"], w["value"]
            else:
                line = res["witness"]
                kind = line.split()[0]
                if kind != "pair":
                    sets = _sets(line)
                    covered, value = (int(x) for x in re.findall(r"covers (\d+) > val (\d+)", line)[0])
            if kind in ("pair", "pair-edge"):
                ok = (min(u, v), max(u, v)) in case.edges
            else:
                ok = check_uv_witness(case.edges, u, v, sets, covered, value, kind)
            require(ok, f"{where}: invalid witness")
        return sparse, True
    if query == "cover-bound":
        value = int(get("cover-bound", "value"))
        cover = [frozenset(s) for s in res["cover"]] if as_json else _sets(res["cover"])
        score = sum(1 if len(s) == 2 else 2 * len(s) - 2 for s in cover)
        require(value == case.rank == score, f"{where}: bound {value}, score {score}")
        require(_covered(case.edges, cover) == m, f"{where}: cover misses an edge")
        return value, True
    if query == "op":
        if as_json:
            g = res
            n, edges = g["vertices"], frozenset(tuple(e) for e in g["edges"])
            pair = tuple(g["designated_pair"])
        else:
            n, edges, pair = _parse_edges(out)
        a, b = case.ext
        want = case.edges | {(a, case.n), (b, case.n)}
        require(n == case.n + 1 and edges == want and pair == case.pair, f"{where}: graph")
        return (n, len(edges)), True
    raise ValueError(f"unknown query {query!r}")


def queries_for(case: Case) -> tuple[list[str], list[str]]:
    """(timed queries, probes): the pebble-game queries on a graph over
    normrig's vertex limit are probes, so no timed query fails."""
    out = ["rank", "uv-rank", "rigid", "uv-rigid", "op"]
    probes = []
    (out if case.n <= PEBBLE_MAX_N else probes).extend(PEBBLE_QUERIES)
    if case.n <= EXHAUSTIVE_MAX_N:
        out += ["check-uv-sparse", "cover-bound"]
    return out, probes


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """normrig.cli.main in-process; looked up per call so hooks apply."""
    from normrig import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def cli_queries(seed: int = DEFAULT_SEED, workdir: Path | None = None, **sizes) -> Workload:
    import shutil
    import tempfile

    cases = make_cases(seed, **sizes)
    tmp = Path(tempfile.mkdtemp(prefix=".normbench-", dir=workdir))
    units, untimed = [], []
    for case in cases:
        path = tmp / f"{case.name}.graph"
        path.write_text(case.text, encoding="ascii")
        timed, probed = queries_for(case)
        for query in timed + probed:
            if query == "op":
                a, b = case.ext
                argv = ["op", "apply", str(path), f"zeroext {a} {b} {case.n}"]
            else:
                argv = [query, str(path), "--seed", str(seed)]
            for as_json in (False, True):
                unit = _cli_unit(case, query, argv + ["--json"] * as_json, as_json)
                (units if query in timed else untimed).append(unit)
    inputs = "".join(f"# {c.name} ext {c.ext}\n{c.text}" for c in cases)
    return Workload(
        "cli-queries", units, inputs, cleanup=lambda: shutil.rmtree(tmp, True), untimed=untimed
    )


def _cli_unit(case: Case, query: str, argv: list[str], as_json: bool) -> Unit:
    def run():
        rc, out, err = run_cli(argv)
        if rc != 0:  # no verdict: counted in failed, never a wrong answer
            require(rc == 1 and err.startswith("error:"), f"{argv}: exit {rc} {err!r}")
            raise QueryRefused(err.strip())
        return out

    def check(out):
        fingerprint, resolved = check_query(case, query, as_json, out)
        return 1, 0 if resolved else 1, fingerprint

    return Unit(f"{query}:{case.name}", run, check)


class QueryRefused(RuntimeError):
    """The CLI exited 1 with an error message: no verdict."""


WORKLOADS = {
    "sweeps": sweeps,
    "uv-bruteforce": uv_bruteforce,
    "construct": construct,
    "cli-queries": cli_queries,
}
