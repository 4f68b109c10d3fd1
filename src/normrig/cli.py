"""Command-line surface.

Verdicts go to stdout as stable ``key: value`` lines (or one JSON record
with --json); diagnostics and timings go to stderr.  Exit status is 0
whenever a verdict was computed — verdicts are never encoded in exit
codes — and 1 for input or configuration errors.  Every refused input
raises a ``graph.InputError``, the one class ``main`` catches besides
file errors.  Identical configuration yields byte-identical stdout.

The counting commands (check-sparse, check-uv-sparse, cover-bound,
uv-rigid-comb, op apply, certify-global without --numeric) and --help and
--version run without numpy: the numerical modules (norms, rigidity,
experiments) are imported inside the handlers that use them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import fields, is_dataclass

from . import __version__
from .globalrig import (
    BASE_TAGS,
    GenerationError,
    certify_sequence,
    format_sequence,
    format_step,
    parse_sequence,
    parse_step,
    random_certified_graph,
)
from .graph import (
    Graph,
    GraphError,
    InputError,
    apply_step,
    contract_pair,
    delete_edge,
    delete_vertex,
    format_graph,
    graph_to_json,
    one_extension,
    parse_graph,
    vertex_to_four_cycle,
    vertex_to_h,
    zero_extension,
)
from .sparsity import (
    PebbleState,
    delete_contract,
    is_uv_sparse,
    is_uv_sparse_bruteforce,
    cover_rank_bound,
    covered_edge_count,
)

def _yesno(b: bool) -> str:
    return "yes" if b else "no"


def _fmt_set(s) -> str:
    return "{" + ",".join(str(x) for x in sorted(s)) + "}"


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_graph(fh.read())


def _single_norm(args):
    from .norms import DEFAULT_PLANE, NormError, parse_norm

    norms = args.norm or [DEFAULT_PLANE.spec_string()]
    if len(norms) > 1:
        raise NormError("--norm: this command accepts a single norm")
    return parse_norm(norms[0])


def _jsonable(x):
    if isinstance(x, Graph):
        return graph_to_json(x)
    if is_dataclass(x) and not isinstance(x, type):
        return {f.name: _jsonable(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, (frozenset, set)):
        return sorted(_jsonable(v) for v in x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return x


def _emit(args, lines: list[str], record: dict) -> int:
    """Text lines or one JSON record; either way a trailing newline."""
    if args.json:
        record = {"command": args.command, **record}
        sys.stdout.write(json.dumps(_jsonable(record), sort_keys=True) + "\n")
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


# command: (coincident placement, printed fields, --verbose per-trial line);
# a "uv-" field prints the report's value of the field without the prefix.
_RANK_COMMANDS = {
    "rank": (False, "rank rows edges independent rigid", True),
    "uv-rank": (True, "rank rows edges pair-edge-removed uv-independent uv-rigid", True),
    "rigid": (False, "rigid rank target", False),
    "uv-rigid": (True, "uv-rigid rank target", False),
}


def _cmd_rank(args) -> int:
    from .rigidity import generic_ranks

    coincident, shown, per_trial = _RANK_COMMANDS[args.command]
    g = _load_graph(args.graph)
    plane = _single_norm(args)
    settle = not (args.json or (args.verbose and per_trial))  # only verdicts: settle at cap/bound
    rep = generic_ranks([g], [args.seed], coincident, plane, args.trials, args.tol, settle)[0]
    values = {
        "rank": rep.rank,
        "rows": rep.rows,
        "edges": g.m,
        "target": max(2 * g.n - 2, 0),
        "pair-edge-removed": _yesno(rep.pair_edge_removed),
        "independent": _yesno(rep.independent),
        "rigid": _yesno(rep.rigid),
    }
    lines = [f"{key}: {values[key.removeprefix('uv-')]}" for key in shown.split()]
    if args.verbose and per_trial:
        print(f"per-trial ranks: {list(rep.per_trial_ranks)}", file=sys.stderr)
    return _emit(args, lines, {"result": rep})


def _cmd_check_sparse(args) -> int:
    g = _load_graph(args.graph)
    res = PebbleState(g, args.k, args.l)
    sparse = res.rank == g.m
    lines = [f"sparse: {_yesno(sparse)}"]
    record = {"sparse": sparse, "k": args.k, "l": args.l}
    if not sparse:
        u_set = res.witness
        covered = covered_edge_count(g, [u_set])
        bound = args.k * len(u_set) - args.l
        lines.append(f"witness: {_fmt_set(u_set)} edges {covered} > {bound}")
        record["witness"] = {"set": u_set, "edges": covered, "bound": bound}
    return _emit(args, lines, record)


def _cmd_check_uv_sparse(args) -> int:
    g = _load_graph(args.graph)
    check = is_uv_sparse_bruteforce if args.bruteforce else is_uv_sparse
    verdict = check(g)
    lines = [f"uv-sparse: {_yesno(verdict.sparse)}"]
    if verdict.witness is not None:
        w = verdict.witness
        if w.kind == "pair-edge":
            u, v = g.require_pair()
            lines.append(f"witness: pair edge {u}-{v} present")
        else:
            shown = ",".join(_fmt_set(s) for s in w.sets)
            lines.append(
                f"witness: {w.kind} {shown} covers {w.covered} > val {w.value}"
            )
    return _emit(args, lines, {"result": verdict})


def _cmd_cover_bound(args) -> int:
    g = _load_graph(args.graph)
    bound = cover_rank_bound(g)
    cover = sorted(bound.cover, key=lambda s: (-len(s), sorted(s)))
    lines = [
        f"cover-bound: {bound.value}",
        "cover: " + " ".join(_fmt_set(s) for s in cover),
    ]
    return _emit(args, lines, {"result": bound})


def _cmd_uv_rigid_comb(args) -> int:
    minus, contracted = delete_contract(_load_graph(args.graph))
    lines = [
        f"uv-rigid-comb: {_yesno(minus and contracted)}",
        f"rigid-minus-pair: {_yesno(minus)}",
        f"rigid-contracted: {_yesno(contracted)}",
    ]
    return _emit(
        args,
        lines,
        {
            "uv_rigid_comb": minus and contracted,
            "rigid_minus_pair": minus,
            "rigid_contracted": contracted,
        },
    )


def _pairs(tokens: list[str], what: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for tok in tokens:
        a, sep, b = tok.partition(">")
        if not sep:
            raise GraphError(f"{what} entries look like 'y>t', got {tok!r}")
        try:
            y, t = int(a), int(b)
        except ValueError:
            raise GraphError(f"non-integer in {what} entry {tok!r}") from None
        if y in out:
            raise GraphError(f"{what} names vertex {y} twice")
        out[y] = t
    return out


def _operands(line: str, toks: list[str]) -> list[int]:
    """The integer operands of an `op apply` line."""
    try:
        return [int(t) for t in toks]
    except ValueError:
        raise GraphError(f"non-integer token in {line!r}") from None


# op kind: (operand counts, usage, the operation on the graph and operands);
# the lambdas resolve each operation by name when called, so a wrapper later
# bound to that name (a tracer's, a test's) is the one that runs.
_FIXED_OPS = {
    "deledge": ((2,), "deledge takes exactly two vertices", lambda g, *x: delete_edge(g, *x)),
    "delvertex": ((1,), "delvertex takes one vertex", lambda g, *x: delete_vertex(g, *x)),
    "zeroext": ((3,), "zeroext takes 'a b z'", lambda g, *x: zero_extension(g, *x)),
    "oneext": ((4,), "oneext takes 'a b c z'", lambda g, *x: one_extension(g, *x)),
    "contractpair": (
        (0, 2), "contractpair takes no or two vertices", lambda g, *x: contract_pair(g, *x)
    ),
}


def _apply_op_line(g: Graph, line: str) -> Graph:
    """Extended step grammar for `op apply` (superset of sequence steps)."""
    body = line.strip()
    kind, *toks = body.split() or [""]
    if kind in ("addedge", "addvertex", "split"):
        return apply_step(g, parse_step(body))
    if kind in _FIXED_OPS:
        counts, usage, op = _FIXED_OPS[kind]
        if len(toks) not in counts:
            raise GraphError(usage)
        return op(g, *_operands(body, toks))
    if kind == "fourcycle":
        if len(toks) < 4:
            raise GraphError("fourcycle takes 'w wnew x1 x2 [y>t ...]'")
        corners = _operands(body, toks[:4])
        return vertex_to_four_cycle(g, *corners, _pairs(toks[4:], "reassignment"))
    if kind == "vertex2h":
        if len(toks) < 2:
            raise GraphError("vertex2h takes 'w H-file [y>t ...]'")
        (w,) = _operands(body, toks[:1])
        return vertex_to_h(g, w, _load_graph(toks[1]), _pairs(toks[2:], "attachment"))
    raise GraphError(f"unknown operation {kind!r}")


def _cmd_op(args) -> int:
    g = _load_graph(args.graph)
    out = _apply_op_line(g, args.step)
    text = format_graph(out)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    return _emit(args, text.splitlines(), {"result": out})


def _cmd_certify(args) -> int:
    # Without --numeric the replay only counts: the numeric flags go unread.
    seed = None
    if args.numeric:
        from .rigidity import resolve_seed

        if args.tol is not None:
            raise InputError("--tol: certify-global --numeric always uses the default tolerance")
        seed = resolve_seed(args.seed)
        if args.trials < 1:
            raise InputError("need at least one trial")
    with open(args.sequence, "r", encoding="ascii") as fh:
        seq = parse_sequence(fh.read())
    plane = _single_norm(args) if args.numeric else None
    rep = certify_sequence(
        seq, numeric=args.numeric, plane=plane, trials=args.trials, seed=seed
    )
    lines = [f"base: {seq.base}", f"steps: {len(seq.steps)}"]
    for sv in rep.steps:
        head = f"step {sv.index} [{format_step(sv.step)}]:"
        if not sv.applied:
            lines.append(f"{head} FAILED {sv.error}")
            continue
        bits = ["applied"]
        if sv.minus_pair_rigid is not None:
            bits.append(f"minus-pair-rigid={_yesno(sv.minus_pair_rigid)}")
            bits.append(f"redundantly-rigid={_yesno(sv.redundantly_rigid)}")
        if sv.numeric_uv_rigid is not None:
            bits.append(f"numeric-uv-rigid={_yesno(sv.numeric_uv_rigid)}")
        lines.append(head + " " + " ".join(bits))
    if rep.aborted_at is not None:
        lines.append(f"aborted-at: {rep.aborted_at}")
    lines += [
        f"final-vertices: {rep.final_graph.n}",
        f"final-edges: {rep.final_graph.m}",
        f"pass-minus-pair-regime: {_yesno(rep.pass_minus_pair_regime)}",
        f"pass-redundant-regime: {_yesno(rep.pass_redundant_regime)}",
    ]
    return _emit(args, lines, {"result": rep})


def _cmd_generate(args) -> int:
    from .rigidity import resolve_seed

    try:
        g, seq, rep = random_certified_graph(
            args.size, seed=resolve_seed(args.seed), base=args.base
        )
    except GenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("partial sequence:", file=sys.stderr)
        sys.stderr.write(format_sequence(exc.partial))
        return 1
    if args.graph_out:
        with open(args.graph_out, "w", encoding="ascii") as fh:
            fh.write(format_graph(g))
    text = format_sequence(seq)
    trailer = (
        f"# final: {g.n} vertices {g.m} edges;"
        f" minus-pair={_yesno(rep.pass_minus_pair_regime)}"
        f" redundant={_yesno(rep.pass_redundant_regime)}"
    )
    return _emit(args, [*text.splitlines(), trailer],
                 {"graph": g, "sequence": text, "result": rep})


# experiment name: the sweep parameters --max-n and --samples set (None where
# the sweep has none, and giving the option is an input error).  An option
# not given keeps the sweep's own default.
_EXPERIMENT_OPTIONS = {
    "equivalence": ("max_n", "samples_per_large_n"),
    "delete-contract": ("n_range", "samples"),
    "rigidity": ("max_n", None),
    "cover-bound": ("max_n", None),
    "operations": (None, "samples"),
    "conjecture": ("max_n", "samples"),
}


def _experiment_kwargs(args) -> dict:
    if args.name == "conjecture":
        kw = {"desc_list": args.norm} if args.norm else {}
    else:
        kw = {"desc": _single_norm(args)}
    max_n_key, samples_key = _EXPERIMENT_OPTIONS[args.name]
    for flag, key, value in (("--max-n", max_n_key, args.max_n),
                             ("--samples", samples_key, args.samples)):
        if value is None:
            continue
        if key is None:
            raise InputError(f"{flag}: experiment {args.name} has no such parameter")
        if value < 0:
            raise InputError(f"{flag} must be a non-negative integer, got {value}")
        kw[key] = (4, value) if key == "n_range" else value
    return kw


def _cmd_experiment(args) -> int:
    from .experiments import SWEEPS, format_report

    if args.tol is not None:
        raise InputError("--tol: experiment always uses the default tolerance")
    rep = SWEEPS[args.name](trials=args.trials, seed=args.seed, **_experiment_kwargs(args))
    text = format_report(rep, verbose=args.verbose)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    if args.verbose:
        print(f"runtime: {rep.runtime:.3f}s", file=sys.stderr)
    result = {f.name: getattr(rep, f.name) for f in fields(rep) if f.name != "runtime"}
    return _emit(args, text.splitlines(), {"result": result})


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--norm",
        action="append",
        metavar="lp:P",
        help="norm descriptor (default lp:4); repeatable only for 'experiment conjecture'",
    )
    common.add_argument(
        "--trials",
        type=int,
        default=10,
        help="random placements per rank query (default 10); a query stops after a trial 0"
        " at the rank cap or the counting bound, or at integer p one proved there by an exact"
        " rank mod a prime, unless it prints per-trial data: the rank commands' --json, and"
        " rank and uv-rank's --verbose, run every trial",
    )
    common.add_argument("--seed", type=int, default=None, help="RNG seed (default 1729)")
    common.add_argument("--tol", type=float, default=None, help="relative SVD rank threshold"
                        " (default 1e-9), read by rank, uv-rank, rigid and uv-rigid; at integer p a"
                        " rank proved exactly to meet the counting bound does not depend on it;"
                        " experiment and certify-global --numeric refuse it, and the other commands"
                        " ignore it")
    common.add_argument("--json", action="store_true", help="emit one JSON record instead of text")
    common.add_argument("--verbose", action="store_true", help="diagnostics on stderr")

    p = argparse.ArgumentParser(
        prog="normrig",
        description="Rigidity and coincident-point rigidity of graphs in non-Euclidean normed planes.",
    )
    p.add_argument(
        "--version",
        action="version",
        version=f"normrig {__version__}",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def graph_cmd(name, fn, help_):
        sp = sub.add_parser(name, parents=[common], help=help_)
        sp.add_argument("graph", help="graph file ('n m [u v]' header plus edge lines)")
        sp.set_defaults(fn=fn)
        return sp

    graph_cmd("rank", _cmd_rank, "generic rigidity-matrix rank")
    graph_cmd("uv-rank", _cmd_rank, "rank with the designated pair placed coincidently")
    graph_cmd("rigid", _cmd_rank, "numerical rigidity verdict")
    graph_cmd("uv-rigid", _cmd_rank, "numerical coincident-pair rigidity verdict")
    sp = graph_cmd("check-sparse", _cmd_check_sparse, "(k,l)-sparsity via pebble game")
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--l", type=int, default=2)
    sp = graph_cmd(
        "check-uv-sparse", _cmd_check_uv_sparse, "pair-aware sparsity with witness"
    )
    sp.add_argument(
        "--bruteforce", action="store_true",
        help="exhaustive family scan instead of the reduced checker",
    )
    graph_cmd("cover-bound", _cmd_cover_bound, "cover upper bound on the generic rank")
    graph_cmd(
        "uv-rigid-comb", _cmd_uv_rigid_comb,
        "delete-contract combinatorial coincident rigidity",
    )

    sp = sub.add_parser("op", parents=[common], help="apply a graph operation")
    sp.add_argument("action", choices=["apply"])
    sp.add_argument("graph", help="input graph file")
    sp.add_argument(
        "step",
        help="one step line, e.g. 'zeroext 0 1 5', 'split 2 | 0 1 | 3 4 5 | 3 -> 6 7',"
        " 'fourcycle 2 6 0 1 3>2', 'vertex2h 2 k4.graph 0>1', 'contractpair'",
    )
    sp.add_argument("--out", help="also write the resulting graph to this file")
    sp.set_defaults(fn=_cmd_op)

    sp = sub.add_parser(
        "certify-global", parents=[common], help="replay and certify a construction sequence",
        description="Check the side condition of each step. A sequence that passes builds a "
        "graph globally rigid in every analytic normed plane: among lp planes, those of even "
        "integer p (lp:4, lp:6, ...). At lp:3 or lp:1.5 only the side conditions are checked.",
    )
    sp.add_argument("sequence", help="sequence file ('base TAG' header plus step lines)")
    sp.add_argument(
        "--numeric", action="store_true",
        help="cross-check each split with a randomized coincident rank in the --norm plane; "
        "global rigidity follows only where it is analytic (lp with even integer p)",
    )
    sp.set_defaults(fn=_cmd_certify)

    sp = sub.add_parser("generate-global", parents=[common], help="grow a certified construction sequence")
    sp.add_argument("--size", type=int, required=True, help="target vertex count")
    sp.add_argument("--base", choices=list(BASE_TAGS), default="K5_MINUS_E")
    sp.add_argument("--graph-out", help="write the final graph to this file")
    sp.set_defaults(fn=_cmd_generate)

    sp = sub.add_parser("experiment", parents=[common], help="cross-validation sweeps")
    sp.add_argument("name", choices=list(_EXPERIMENT_OPTIONS))
    sp.add_argument("--max-n", type=int, default=None, help="largest vertex count")
    sp.add_argument("--samples", type=int, default=None, help="random instances (where applicable)")
    sp.add_argument("--out", help="also write the report to this file")
    sp.set_defaults(fn=_cmd_experiment)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on first use and kept for the process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        status = args.fn(args)
    except (InputError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.verbose:
        print(f"elapsed: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
