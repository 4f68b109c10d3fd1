"""End-to-end command line checks: exact stdout, exit codes, JSON records."""
from __future__ import annotations

import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import normrig
from normrig import __version__, cli, globalrig, norms, rigidity
from normrig.cli import main
from normrig.experiments import SWEEPS, format_report
from normrig.graph import Graph, GraphError, GraphFormatError, InputError, format_graph, parse_graph
from normrig.norms import parse_norm
from normrig.rigidity import DEFAULT_TOL, generic_ranks
from normrig.sparsity import SparsityError, pebble_rank

K23 = "5 6 0 1\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n"
TWO_K4 = (
    "7 12 0 1\n0 2\n0 3\n0 6\n2 3\n2 6\n3 6\n"
    "1 4\n1 5\n1 6\n4 5\n4 6\n5 6\n"
)
K4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
SEQ_LEFT = "base H_GRAPH\nsplit 2 | 0 1 | 3 4 5 | 3 -> 6 7\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("k23.graph", K23),
        ("two_k4.graph", TWO_K4),
        ("k4.graph", K4),
        ("left.seq", SEQ_LEFT),
        ("dup.graph", "3 2\n0 1\n0 1\n"),
    ]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_uv_rank_two_k4(files, capsys):
    rc, out, _ = run(capsys, "uv-rank", files["two_k4.graph"], "--seed", "3")
    assert rc == 0
    assert out == (
        "rank: 12\nrows: 12\nedges: 12\npair-edge-removed: no\n"
        "uv-independent: yes\nuv-rigid: yes\n"
    )


def test_check_uv_sparse_witness(files, capsys):
    rc, out, _ = run(capsys, "check-uv-sparse", files["k23.graph"])
    assert rc == 0  # a negative verdict is still a verdict
    assert out == (
        "uv-sparse: no\n"
        "witness: family {0,1,2},{0,1,3},{0,1,4} covers 6 > val 5\n"
    )


def test_check_uv_sparse_bruteforce_agrees(files, capsys):
    _, out, _ = run(capsys, "check-uv-sparse", files["k23.graph"], "--bruteforce")
    assert out.startswith("uv-sparse: no\n")


def test_check_uv_sparse_bruteforce_size_limit(tmp_path, capsys):
    path = tmp_path / "path8.graph"
    path.write_text("8 7 0 1\n" + "".join(f"{i} {i + 1}\n" for i in range(7)))
    rc, out, err = run(capsys, "check-uv-sparse", str(path), "--bruteforce")
    assert (rc, out) == (1, "")
    assert err == "error: brute force limited to 7 vertices\n"


def _zero_extended_text(n, extra=(), shape=3):
    """K4 on {0, 2, 3, 4} with 1 joined to 2 and 3, grown by 0-extensions
    on random pairs other than {0, 1}, seeded by shape: uv-tight, with
    pair (0, 1)."""
    rng = np.random.default_rng(shape)
    edges = {(0, 2), (0, 3), (0, 4), (2, 3), (2, 4), (3, 4), (1, 2), (1, 3)}
    for z in range(5, n):
        while True:
            a, b = sorted(int(x) for x in rng.choice(z, size=2, replace=False))
            if (a, b) != (0, 1):
                break
        edges |= {(a, z), (b, z)}
    edges |= set(extra) - edges
    return f"{n} {len(edges)} 0 1\n" + "".join(f"{a} {b}\n" for a, b in sorted(edges))


@pytest.mark.parametrize("n", [18, 200])
def test_check_uv_sparse_long_chain(tmp_path, capsys, n):
    # at 18 vertices a search recursing once per candidate set overflowed
    # the interpreter's stack; the two pebble games do not recurse
    path = tmp_path / "chain.graph"
    path.write_text(_zero_extended_text(n))
    rc, out, err = run(capsys, "check-uv-sparse", str(path))
    assert (rc, out, err) == (0, "uv-sparse: yes\n", "")


def test_cover_bound_200_vertices(tmp_path, capsys):
    # a K6 on vertices 100..105 makes the pebble game reject edges
    block = [(a, b) for a in range(100, 106) for b in range(a + 1, 106)]
    text = _zero_extended_text(200, block)
    path = tmp_path / "block.graph"
    path.write_text(text)
    g = parse_graph(text)
    rc, out, _ = run(capsys, "cover-bound", str(path), "--json")
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["value"] == pebble_rank(g) < g.m
    cover = [set(y) for y in res["cover"]]
    assert all(any(a in y and b in y for y in cover) for a, b in g.edges)
    assert res["value"] == sum(1 if len(y) == 2 else 2 * len(y) - 2 for y in cover)


def test_main_builds_the_parser_once(files, capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        for name in ("k4.graph", "k23.graph", "two_k4.graph"):
            assert run(capsys, "check-sparse", files[name])[0] == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_repeated_norm_option_parses_afresh(files, capsys):
    # --norm appends: a reused parser must start each parse from an empty
    # list, or the second call would see two norms and refuse
    argv = ("rank", files["k4.graph"], "--norm", "lp:3", "--json")
    first = run(capsys, *argv)
    assert first[0] == 0
    assert run(capsys, *argv) == first


def test_check_sparse(files, capsys):
    rc, out, _ = run(capsys, "check-sparse", files["k4.graph"])
    assert rc == 0
    assert "sparse: yes" in out


def test_cover_bound(files, capsys):
    rc, out, _ = run(capsys, "cover-bound", files["k4.graph"])
    assert rc == 0
    assert out.splitlines()[0] == "cover-bound: 6"


def test_uv_rigid_comb(files, capsys):
    rc, out, _ = run(capsys, "uv-rigid-comb", files["two_k4.graph"])
    assert rc == 0
    assert out == "uv-rigid-comb: yes\nrigid-minus-pair: yes\nrigid-contracted: yes\n"


def test_rigid_and_rank(files, capsys):
    rc, out, _ = run(capsys, "rigid", files["k4.graph"], "--seed", "1")
    assert rc == 0 and out.splitlines()[0] == "rigid: yes"
    rc, out, _ = run(capsys, "rank", files["k4.graph"], "--seed", "1")
    assert rc == 0
    assert "rank: 6" in out and "independent: yes" in out


# K5 on 2..6, then 0~{2,3}, 1~4 and 7~5: 2n - 2 = 14 edges but rank 12,
# below the cap at every trial, plain or with 0 and 1 coincident
NEAR_TIGHT = (
    "8 14 0 1\n2 3\n2 4\n2 5\n2 6\n3 4\n3 5\n3 6\n4 5\n4 6\n5 6\n"
    "0 2\n0 3\n1 4\n7 5\n"
)


def _full_report_text(cmd, text, norm, trials, seed, tol):
    """The text of a rank command, built from the full one-graph report."""
    g = parse_graph(text)
    rep = generic_ranks([g], [seed], cmd.startswith("uv-"), parse_norm(norm), trials, tol)[0]
    yes = {True: "yes", False: "no"}
    lines = {
        "rank": [f"rank: {rep.rank}", f"rows: {rep.rows}", f"edges: {g.m}",
                 f"independent: {yes[rep.independent]}", f"rigid: {yes[rep.rigid]}"],
        "uv-rank": [f"rank: {rep.rank}", f"rows: {rep.rows}", f"edges: {g.m}",
                    f"pair-edge-removed: {yes[rep.pair_edge_removed]}",
                    f"uv-independent: {yes[rep.independent]}", f"uv-rigid: {yes[rep.rigid]}"],
        "rigid": [f"rigid: {yes[rep.rigid]}", f"rank: {rep.rank}", f"target: {2 * g.n - 2}"],
        "uv-rigid": [f"uv-rigid: {yes[rep.rigid]}", f"rank: {rep.rank}",
                     f"target: {2 * g.n - 2}"],
    }[cmd]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("norm,tol", [("lp:4", None), ("lp:1.5", "3e-3")])
def test_text_rank_commands_equal_the_full_report(tmp_path, capsys, norm, tol):
    # the text modes stop after a trial 0 at the cap or the counting bound.
    # At lp:4 two K4s sit at the cap, and K2,3 with its pair coincident and
    # NEAR_TIGHT sit below it at the bound; at lp:1.5 the loose tolerance
    # leaves most trial-0 ranks short of both, and some later trials rank
    # higher (two K4s and NEAR_TIGHT at seed 3)
    rel = DEFAULT_TOL if tol is None else float(tol)
    extra = [] if tol is None else ["--tol", tol]
    for name, text in (("two_k4", TWO_K4), ("k23", K23), ("near_tight", NEAR_TIGHT)):
        path = tmp_path / f"{name}.graph"
        path.write_text(text)
        for cmd in ("rank", "uv-rank", "rigid", "uv-rigid"):
            for seed in (1729, 3):
                for trials in (1, 2, 10):
                    rc, out, _ = run(capsys, cmd, str(path), "--norm", norm, "--seed", str(seed),
                                     "--trials", str(trials), *extra)
                    want = _full_report_text(cmd, text, norm, trials, seed, rel)
                    assert (rc, out) == (0, want), (name, cmd, seed, trials)


@pytest.fixture
def matrices_built(monkeypatch):
    """How many rigidity matrices rigidity._matrix_stack has built."""
    built = []
    stack = rigidity._matrix_stack

    def counted(plane, pts, preps):
        built.append(len(preps))
        return stack(plane, pts, preps)

    monkeypatch.setattr(rigidity, "_matrix_stack", counted)
    return built


@pytest.mark.parametrize("cmd", ["rank", "uv-rank", "rigid", "uv-rigid"])
def test_text_rank_commands_stop_at_the_cap(files, capsys, matrices_built, cmd):
    # two K4s sharing a vertex: trial 0 reaches rank 12 = 2n - 2 either way;
    # only rank and uv-rank print per-trial data under --verbose
    per_trial = cmd in ("rank", "uv-rank")
    for flags, built in (([], 1), (["--json"], 10), (["--verbose"], 10 if per_trial else 1)):
        matrices_built.clear()
        rc, _, _ = run(capsys, cmd, files["two_k4.graph"], "--seed", "1729", *flags)
        assert rc == 0 and sum(matrices_built) == built, flags


@pytest.mark.parametrize("cmd", ["rank", "uv-rigid"])
@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_bad_tolerance_exit_1(files, capsys, cmd, tol):
    rc, out, err = run(capsys, cmd, files["k23.graph"], "--tol", tol)
    assert rc == 1 and out == ""
    assert err.startswith("error: tolerance must be finite and non-negative")


def test_bad_tolerance_wins_over_bad_seed(files, capsys):
    rc, out, err = run(capsys, "rank", files["k23.graph"], "--tol", "nan", "--seed", "-1")
    assert (rc, out) == (1, "")
    assert err == "error: tolerance must be finite and non-negative, got nan\n"


def test_tol_changes_the_rank(files, capsys):
    # at non-integer p the tolerance decides the rank; at integer p a rank
    # proved mod a prime to meet the counting bound does not depend on it
    rc, out, _ = run(capsys, "uv-rank", files["two_k4.graph"], "--tol", "0.5", "--norm", "lp:1.5")
    assert rc == 0 and out.splitlines()[0] == "rank: 0"
    rc, out, _ = run(capsys, "uv-rank", files["two_k4.graph"], "--tol", "0.5", "--norm", "lp:4")
    assert rc == 0 and out.splitlines()[0] == "rank: 12"
    rc, out, _ = run(capsys, "uv-rank", files["two_k4.graph"], "--tol", "0.5", "--json")
    rep = json.loads(out)["result"]
    assert rc == 0 and rep["rank"] == 12 and max(rep["per_trial_ranks"]) == 0
    assert rep["notes"][-1].startswith("rank 12 proved: ")


def test_rigid_on_the_pebble_basis_of_a_200_vertex_graph(tmp_path, capsys):
    # 200 vertices, 398 edges, (2,2)-tight: at lp:4 every float trial falls
    # short of 398 (ranks 392-397 under seeds 7 and 1729), and the exact
    # rank mod a prime of an integer placement proves 398
    g, _, _ = globalrig.random_certified_graph(200, seed=7)
    basis = Graph.from_edges(g.vertices, globalrig.PebbleState(g).accepted)
    assert basis.m == 2 * basis.n - 2 == 398
    path = tmp_path / "b200.graph"
    path.write_text(format_graph(basis))
    for norm in ("lp:3", "lp:4"):
        for seed in ("7", "1729"):
            rc, out, _ = run(capsys, "rigid", str(path), "--norm", norm, "--seed", seed)
            assert rc == 0 and out == "rigid: yes\nrank: 398\ntarget: 398\n", (norm, seed)


def test_uv_rigid_on_a_100_vertex_zero_extension_chain(tmp_path, capsys):
    # uv-tight; under seed 7 every float trial falls short of 198, and the
    # exact rank mod a prime of an integer placement proves 198
    path = tmp_path / "chain.graph"
    path.write_text(_zero_extended_text(100, shape=0))
    for seed in ("1", "7"):
        rc, out, _ = run(capsys, "uv-rigid", str(path), "--seed", seed)
        assert rc == 0 and out == "uv-rigid: yes\nrank: 198\ntarget: 198\n", seed


@pytest.mark.parametrize("argv,where", [
    (["experiment", "rigidity", "--max-n", "4", "--seed", "1"], "experiment"),
    (["certify-global", "left.seq", "--numeric"], "certify-global --numeric"),
])
def test_tol_rejected_where_unused(files, capsys, monkeypatch, argv, where):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --tol was rejected")

    monkeypatch.setitem(SWEEPS, "rigidity", no_work)
    monkeypatch.setattr(cli, "parse_sequence", no_work)
    argv = [files.get(a, a) for a in argv]
    rc, out, err = run(capsys, *argv, "--tol", "0.9")
    assert (rc, out) == (1, "")
    assert err == f"error: --tol: {where} always uses the default tolerance\n"


def test_certify_global_without_numeric_ignores_tol(files, capsys):
    rc, out, _ = run(capsys, "certify-global", files["left.seq"], "--tol", "0.9")
    assert rc == 0 and "pass-redundant-regime: yes" in out


def test_certify_global_reads_norm_only_with_numeric(files, capsys):
    rc, out, _ = run(capsys, "certify-global", files["left.seq"], "--norm", "lp:0.5")
    assert rc == 0 and "pass-redundant-regime: yes" in out
    rc, out, err = run(capsys, "certify-global", files["left.seq"], "--numeric", "--norm", "lp:0.5")
    assert (rc, out) == (1, "") and err.startswith("error: ")


def test_bad_graph_file_exit_1(capsys, tmp_path):
    path = tmp_path / "loop.graph"
    path.write_text("# a loop\n3 2\n0 1\n1 1\n")
    rc, out, err = run(capsys, "rank", str(path))
    assert (rc, out, err) == (1, "", "error: line 4: loop at vertex 1\n")


def test_parallel_edge_exit_1(files, capsys):
    rc, _, err = run(capsys, "check-uv-sparse", files["dup.graph"])
    assert rc == 1
    assert "line 3" in err and "parallel edge" in err


def test_missing_file_exit_1(capsys, tmp_path):
    rc, _, err = run(capsys, "rank", str(tmp_path / "nope.graph"))
    assert rc == 1 and "error:" in err


def test_non_ascii_graph_exit_1(capsys, tmp_path):
    path = tmp_path / "u.graph"
    path.write_text("# café\n" + K4, encoding="utf-8")
    rc, out, err = run(capsys, "rank", str(path))
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_non_ascii_sequence_exit_1(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rc, out, err = run(capsys, "certify-global", str(readme))
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_python_dash_m(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["normrig", "--version"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("normrig", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"normrig {__version__}\n"


def test_euclidean_norm_rejected(files, capsys):
    rc, _, err = run(capsys, "rank", files["k4.graph"], "--norm", "lp:2")
    assert rc == 1 and "error:" in err


def test_single_norm_enforced(files, capsys):
    rc, _, err = run(capsys, "rank", files["k4.graph"], "--norm", "lp:3", "--norm", "lp:4")
    assert rc == 1 and "single norm" in err


def test_json_record(files, capsys):
    rc, out, _ = run(capsys, "uv-rank", files["two_k4.graph"], "--json", "--seed", "3")
    assert rc == 0
    rec = json.loads(out)
    assert rec["command"] == "uv-rank"
    res = rec["result"]
    assert res["rank"] == 12 and res["rigid"] is True
    assert res["pair_edge_removed"] is False
    assert list(rec) == sorted(rec) and list(res) == sorted(res)


def test_op_round_trip(files, capsys, tmp_path):
    rc, out, _ = run(capsys, "op", "apply", files["k4.graph"], "zeroext 0 1 4")
    assert rc == 0
    g = parse_graph(out)
    assert (g.n, g.m) == (5, 8)
    outfile = tmp_path / "result.graph"
    rc, _, _ = run(capsys, "op", "apply", files["k4.graph"], "zeroext 0 1 4", "--out", str(outfile))
    assert rc == 0
    assert parse_graph(outfile.read_text()) == g


def test_op_split_supersedes_pair(files, capsys):
    rc, out, _ = run(capsys, "op", "apply", files["two_k4.graph"],
                     "split 6 | 0 2 3 | 1 4 5 | 1 -> 7 8")
    assert rc == 0
    g = parse_graph(out)  # canonical labels: the new pair is kept, not its names
    assert g.n == 8 and g.designated_pair is not None


@pytest.mark.parametrize("line", [
    "addedge 2 x",
    "addvertex 5: 0 x",
    "split 2 | 0 | 1 | x -> 7 8",
    "deledge 0 x",
    "delvertex y",
    "zeroext 0 1 q",
    "oneext 0 2 3 z",
    "fourcycle 2 6 0 x 3>2",
    "vertex2h w k4.graph 0>1",
    "contractpair a b",
])
def test_op_non_integer_operand_exit_1(files, capsys, line):
    rc, out, err = run(capsys, "op", "apply", files["k23.graph"], line)
    assert (rc, out, err) == (1, "", f"error: non-integer token in {line!r}\n")


@pytest.mark.parametrize("line,message", [
    ("deledge 1", "deledge takes exactly two vertices"),
    ("fourcycle 2 6 0", "fourcycle takes 'w wnew x1 x2 [y>t ...]'"),
    ("fourcycle 2 6 0 1 3-2", "reassignment entries look like 'y>t', got '3-2'"),
    ("fourcycle 2 6 0 1 3>x", "non-integer in reassignment entry '3>x'"),
    ("vertex2h 2", "vertex2h takes 'w H-file [y>t ...]'"),
    ("contractpair 1", "contractpair takes no or two vertices"),
    ("frob 1", "unknown operation 'frob'"),
    ("fourcycle 0 6 2 3 4>0 4>6", "reassignment names vertex 4 twice"),
    ("vertex2h 2 k4.graph 0>1 1>2 0>3", "attachment names vertex 0 twice"),
])
def test_op_usage_exit_1(files, capsys, monkeypatch, tmp_path, line, message):
    monkeypatch.chdir(tmp_path)  # where the fixture wrote k4.graph
    rc, out, err = run(capsys, "op", "apply", files["k23.graph"], line)
    assert (rc, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("line,message", [
    ("addedge 1", "addedge takes exactly two vertices"),
    ("addvertex 5 0 1 2", "addvertex needs 'z: n1 n2 ...'"),
    ("addvertex 5 6: 0 1 2", "addvertex needs a single vertex id"),
    ("split 2 | 0 | 1 -> 7 8", "split needs 'z | Nu | Nv | w -> u v'"),
    ("split 2 | 0 | 1 | 3 7 8", "split needs '-> u v'"),
    ("split 2 3 | 0 | 1 | 3 -> 7 8", "split needs a single vertex id"),
    ("split 2 | 0 | 1 | 3 -> 7", "split needs one w before '->' and two vertices after"),
    ("frob 1", "unknown step kind 'frob'"),
])
def test_sequence_line_error_exit_1(capsys, tmp_path, line, message):
    path = tmp_path / "s.seq"
    path.write_text(f"base H_GRAPH\n{line}\n")
    rc, out, err = run(capsys, "certify-global", str(path))
    assert (rc, out, err) == (1, "", f"error: line 2: {message}\n")


@pytest.mark.parametrize("graph,line", [
    ("k4.graph", "deledge 0 1"),
    ("k4.graph", "zeroext 0 1 4"),
    ("two_k4.graph", "split 6 | 0 2 3 | 1 4 5 | 1 -> 7 8"),
])
def test_op_tab_after_keyword(files, capsys, graph, line):
    spaced = run(capsys, "op", "apply", files[graph], line)
    assert spaced[0] == 0
    assert run(capsys, "op", "apply", files[graph], line.replace(" ", "\t", 1)) == spaced


def test_sequence_tab_after_keyword(capsys, tmp_path):
    steps = ["addedge 0 4", "addvertex 6: 0 1 2", "split 2 | 0 1 6 | 3 4 5 | 3 -> 7 8"]
    outputs = []
    for sep in (" ", "\t"):
        path = tmp_path / "s.seq"
        path.write_text("base H_GRAPH\n" + "".join(s.replace(" ", sep, 1) + "\n" for s in steps))
        outputs.append(run(capsys, "certify-global", str(path)))
    assert outputs[0][0] == 0 and "split" in outputs[0][1]
    assert outputs[1] == outputs[0]


def test_sequence_split_repeated_neighbor(capsys, tmp_path):
    # A split may list a vertex of n_u twice; it certifies as if listed once.
    outputs = []
    for n_u in ("1 1 2", "1 2"):
        path = tmp_path / "s.seq"
        path.write_text(f"base K5_MINUS_E\nsplit 0 | {n_u} | 3 4 | 3 -> 5 6\n")
        outputs.append(run(capsys, "certify-global", str(path)))
    rc, out, err = outputs[0]
    assert rc == 0 and "split 0 | 1 1 2 |" in out
    assert (rc, out.replace("1 1 2", "1 2"), err) == outputs[1]


def test_op_precondition_exit_1(files, capsys):
    rc, _, err = run(capsys, "op", "apply", files["k4.graph"], "zeroext 0 0 4")
    assert rc == 1 and "error:" in err


def test_certify_global_text(files, capsys):
    rc, out, _ = run(capsys, "certify-global", files["left.seq"])
    assert rc == 0
    assert out == (
        "base: H_GRAPH\nsteps: 1\n"
        "step 0 [split 2 | 0 1 | 3 4 5 | 3 -> 6 7]: applied "
        "minus-pair-rigid=yes redundantly-rigid=yes\n"
        "final-vertices: 7\nfinal-edges: 13\n"
        "pass-minus-pair-regime: yes\npass-redundant-regime: yes\n"
    )


def test_certify_global_numeric_flag(files, capsys):
    rc, out, _ = run(capsys, "certify-global", files["left.seq"], "--numeric",
                     "--trials", "6", "--seed", "2")
    assert rc == 0 and "numeric-uv-rigid=yes" in out


@pytest.mark.parametrize("argv,err", [
    (["--seed", "-3"], "error: seed must be a non-negative integer, got -3\n"),
    (["--trials", "0"], "error: need at least one trial\n"),
])
def test_certify_global_numeric_flags_checked_first(capsys, monkeypatch, tmp_path, argv, err):
    base_only = tmp_path / "base_only.seq"
    base_only.write_text("base K5_MINUS_E\n")
    rc, out, _ = run(capsys, "certify-global", str(base_only), *argv)
    assert rc == 0 and "pass-redundant-regime: yes" in out  # unread without --numeric

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    monkeypatch.setattr(cli, "parse_sequence", no_work)
    assert run(capsys, "certify-global", str(base_only), "--numeric", *argv) == (1, "", err)


@pytest.mark.parametrize("argv", [
    ["certify-global", "left.seq", "--numeric"],
    ["experiment", "rigidity", "--max-n", "4"],
    ["experiment", "rigidity", "--max-n", "0"],  # no instance, still an input error
])
def test_no_trials_exit_1(files, capsys, argv):
    argv = [files.get(a, a) for a in argv]
    rc, out, err = run(capsys, *argv, "--trials", "0")
    assert (rc, out, err) == (1, "", "error: need at least one trial\n")


def test_certify_global_abort(capsys, tmp_path):
    bad = tmp_path / "bad.seq"
    bad.write_text("base H_GRAPH\nsplit 2 | 0 1 3 | 4 5 | 3 -> 6 7\n")
    rc, out, _ = run(capsys, "certify-global", str(bad))
    assert rc == 0  # the certificate verdict is the output
    assert "FAILED" in out
    assert "aborted-at: 0" in out
    assert "pass-minus-pair-regime: no" in out


def test_generate_global_deterministic(capsys, tmp_path):
    rc, out1, _ = run(capsys, "generate-global", "--size", "8", "--seed", "6")
    rc2, out2, _ = run(capsys, "generate-global", "--size", "8", "--seed", "6")
    assert rc == rc2 == 0
    assert out1 == out2
    assert out1.startswith("base K5_MINUS_E\n")
    gfile = tmp_path / "final.graph"
    run(capsys, "generate-global", "--size", "8", "--seed", "6",
        "--graph-out", str(gfile))
    g = parse_graph(gfile.read_text())
    assert g.n == 8 and g.m >= 2 * 8 - 1


# sha256 of generate-global stdout; each output adds edges, so the rng
# stream through the edge draws of the growth loop is pinned
GENERATE_GLOBAL_SHA256 = {
    (7, 16): "ee4a58f8332fe43baf18064bcad24c44133d8c92e788288a261032431272f5a1",
    (7, 60): "9a27d551256d88312fb38b804959b9aa95fa0ee4a47cd0fac5aedfb10f73b4b7",
    (7, 100): "730d85825bc35e7b3c2763a5d3d45b753c522d6ce6063143bd5d023cf794e05e",
    (1729, 16): "b60fbff632c4bc20dc5e5b633902da13fdf32ea2167b7f4f663a627e188838c4",
    (1729, 60): "4661d47f73233244f554cc86d32c7294c22c4e0e4e4889df443ff1cf22e63f8f",
    (1729, 100): "2cb5f93ba978439e4cdb893a03720678b111303d7632d2ab7fcd6f51ec7764b9",
}


@pytest.mark.parametrize("seed,size", sorted(GENERATE_GLOBAL_SHA256))
def test_generate_global_stdout_pinned(capsys, seed, size):
    rc, out, _ = run(capsys, "generate-global", "--size", str(size), "--seed", str(seed))
    assert rc == 0 and "addedge" in out
    assert hashlib.sha256(out.encode()).hexdigest() == GENERATE_GLOBAL_SHA256[seed, size]


def test_generate_global_failure_exit_1(capsys, monkeypatch):
    # a carried game whose rank reads 0: every G' flexible
    monkeypatch.setattr(globalrig.PebbleState, "rank", property(lambda self: 0))
    rc, out, err = run(capsys, "generate-global", "--size", "9", "--seed", "1")
    assert (rc, out) == (1, "")
    assert err == (
        "error: no certifiable split found in 40 tries at 6 vertices\n"
        "partial sequence:\n"
        "base K5_MINUS_E\naddvertex 5: 0 1 4\naddedge 2 5\n"
    )


def test_experiment_rerun_identical(capsys):
    args = ("experiment", "rigidity", "--max-n", "4", "--seed", "9")
    rc, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert rc == 0 and out1 == out2
    assert "disagreements: 0" in out1


@pytest.mark.parametrize("argv,config,instances", [
    pytest.param(["rigidity", "--max-n", "0"], "max_n=0 ", 0, id="rigidity-max-n-0"),
    pytest.param(["delete-contract", "--samples", "0"], "samples=0 ", 0,
                 id="delete-contract-samples-0"),
    # n <= 6 is exhaustive (1328 classes), then --samples graphs per larger n
    pytest.param(["equivalence", "--max-n", "7", "--samples", "1", "--trials", "1"],
                 "samples_per_large_n=1 ", 1329, id="equivalence-samples-1"),
])
def test_experiment_explicit_sizes_honoured(capsys, argv, config, instances):
    rc, out, _ = run(capsys, "experiment", *argv)
    assert rc == 0
    assert config in out.splitlines()[1] + " "
    assert f"instances: {instances}\n" in out


@pytest.mark.parametrize("name", ["rigidity", "cover-bound"])
def test_bare_experiment_is_library_default(capsys, name):
    """With no options the CLI report is the sweep's own default call."""
    rc, out, _ = run(capsys, "experiment", name)
    assert rc == 0 and out == format_report(SWEEPS[name]())


@pytest.mark.parametrize("argv,flag", [
    (["operations", "--max-n", "3", "--samples", "2", "--seed", "1"], "--max-n"),
    (["rigidity", "--max-n", "3", "--samples", "99", "--seed", "1"], "--samples"),
    (["cover-bound", "--samples", "1"], "--samples"),
])
def test_experiment_unread_option_exit_1(capsys, monkeypatch, argv, flag):
    """An option the sweep has no parameter for is refused before any work."""
    name = argv[0]

    def no_work(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setitem(SWEEPS, name, no_work)
    rc, out, err = run(capsys, "experiment", *argv)
    assert (rc, out, err) == (1, "", f"error: {flag}: experiment {name} has no such parameter\n")


@pytest.mark.parametrize("argv,flag,value", [
    (["equivalence", "--max-n", "7", "--samples", "-3"], "--samples", -3),
    (["rigidity", "--max-n", "-1"], "--max-n", -1),
    (["delete-contract", "--max-n", "-2"], "--max-n", -2),
    (["operations", "--samples", "-1"], "--samples", -1),
    (["conjecture", "--max-n", "-5", "--samples", "2"], "--max-n", -5),
])
def test_experiment_negative_size_exit_1(capsys, monkeypatch, argv, flag, value):
    """A negative --max-n or --samples is refused before the sweep runs."""
    name = argv[0]

    def no_work(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setitem(SWEEPS, name, no_work)
    rc, out, err = run(capsys, "experiment", *argv)
    assert (rc, out, err) == (1, "", f"error: {flag} must be a non-negative integer, got {value}\n")


def test_experiment_empty_range_exit_1(capsys):
    rc, out, err = run(capsys, "experiment", "delete-contract", "--max-n", "3")
    assert (rc, out, err) == (1, "", "error: empty vertex-count range 4..3\n")


@pytest.mark.parametrize("name", ["rigidity", "cover-bound"])
def test_experiment_over_cap_exit_1(capsys, name):
    rc, out, err = run(capsys, "experiment", name, "--max-n", "8", "--seed", "9")
    assert (rc, out, err) == (1, "", "error: exhaustive enumeration capped at 7 vertices\n")


def test_experiment_json_drops_runtime(capsys):
    rc, out, _ = run(capsys, "experiment", "cover-bound", "--max-n", "3", "--json")
    rec = json.loads(out)
    assert rc == 0
    assert rec["command"] == "experiment"
    assert "runtime" not in rec


def test_experiment_out_file(capsys, tmp_path):
    report = tmp_path / "sweep.txt"
    rc, out, _ = run(capsys, "experiment", "rigidity", "--max-n", "4",
                     "--seed", "9", "--out", str(report))
    assert rc == 0
    assert report.read_text() == out


def test_seed_env_var(files, capsys, monkeypatch):
    """The seed comes from --seed alone: NORMRIG_SEED is not read."""
    monkeypatch.setenv("NORMRIG_SEED", "77")
    rc, out, _ = run(capsys, "uv-rank", files["k23.graph"], "--json")
    assert rc == 0 and json.loads(out)["result"]["seed"] == 1729


@pytest.mark.parametrize("argv,message", [
    pytest.param(["rank", "k23.graph", "--seed", "-1"],
                 "seed must be a non-negative integer, got -1", id="flag"),
    pytest.param(["generate-global", "--size", "8", "--seed", "-3"],
                 "seed must be a non-negative integer, got -3", id="generate-global"),
])
def test_negative_seed_exit_1(files, capsys, argv, message):
    argv = [files.get(a, a) for a in argv]
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_every_input_error_is_one_class(files, monkeypatch):
    for cls in (GraphError, GraphFormatError, globalrig.SequenceError,
                SparsityError, norms.NormError, rigidity.RigidityError):
        assert issubclass(cls, InputError), cls
    err = InputError("m", 3)
    assert (str(err), err.line) == ("line 3: m", 3)

    def boom(g):
        raise ValueError("not an input error")

    # main catches InputError only: any other ValueError is a bug and escapes
    monkeypatch.setattr(cli, "cover_rank_bound", boom)
    with pytest.raises(ValueError, match="not an input error"):
        main(["cover-bound", files["k4.graph"]])


def test_version_line(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0
    assert capsys.readouterr().out == f"normrig {__version__}\n"


PUBLIC_NAMES = [
    "CoverBound", "DEFAULT_PLANE", "DEFAULT_SEED", "Graph", "GraphError",
    "GraphFormatError", "LpPlane", "NormError", "PebbleState", "RankReport",
    "RigidityError", "SparsityError", "UvSparseVerdict",
    "__version__", "cover_rank_bound", "format_graph", "generic_ranks",
    "graph_to_json", "is_rigid_comb",
    "is_uv_rigid_comb", "is_uv_sparse", "is_uv_sparse_bruteforce", "parse_graph",
    "parse_norm",
]


def test_public_names():
    assert sorted(normrig.__all__) == PUBLIC_NAMES
    namespace = {}
    exec("from normrig import *", namespace)
    assert [name for name in PUBLIC_NAMES if name not in namespace] == []


# the package root's numerical names, resolved on first access
NUMERIC_NAMES = {
    "DEFAULT_PLANE": norms, "LpPlane": norms, "NormError": norms, "parse_norm": norms,
    "DEFAULT_SEED": rigidity, "RankReport": rigidity, "RigidityError": rigidity,
    "generic_ranks": rigidity,
}


def test_package_root_resolves_numeric_names():
    assert [name for name in normrig.__all__ if name not in dir(normrig)] == []
    for name, module in NUMERIC_NAMES.items():
        assert getattr(normrig, name) is getattr(module, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        normrig.no_such_name


GUARD_SCRIPT = """
import sys
from normrig import cli
cli.build_parser()
for argv in {counting!r}:
    assert cli.main(argv) == 0, argv
for argv in {refused!r}:
    assert cli.main(argv) == 1, argv
assert "numpy" not in sys.modules, "a counting command imported numpy"
assert cli.main({rank!r}) == 0
assert "numpy" in sys.modules
"""


def test_counting_commands_run_without_numpy(files, capsys, tmp_path):
    """A fresh interpreter builds the parser and runs the counting commands,
    those that succeed and those that refuse their input, without importing
    numpy; rank then imports it.  Every command prints what in-process main
    prints."""
    g = files["two_k4.graph"]
    counting = [
        ["check-sparse", g], ["check-uv-sparse", g], ["check-uv-sparse", g, "--bruteforce"],
        ["cover-bound", g], ["uv-rigid-comb", g],
        ["op", "apply", g, "zeroext 0 2 7"], ["op", "apply", g, "addedge 2 4"],
        ["certify-global", files["left.seq"]],
    ]
    bad_seq = tmp_path / "bad_step.seq"
    bad_seq.write_text("base H_GRAPH\nfrob 1\n")
    refused = [
        ["check-uv-sparse", files["dup.graph"]], ["op", "apply", g, "frob 1"],
        ["certify-global", str(bad_seq)],
    ]
    rank = ["rank", g]
    src = str(Path(normrig.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", GUARD_SCRIPT.format(counting=counting, refused=refused, rank=rank)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    printed = [run(capsys, *argv) for argv in [*counting, *refused, rank]]
    assert proc.stdout == "".join(out for _, out, _ in printed)
    assert proc.stderr == "".join(err for _, _, err in printed)


def _chain_text(n, extra=()):
    """TWO_K4 grown by 0-extensions to n vertices: (2,2)-tight."""
    edges = [tuple(map(int, ln.split())) for ln in TWO_K4.splitlines()[1:]]
    edges += [e for z in range(7, n) for e in ((z - 7, z), (z - 1, z))]
    edges += list(extra)
    return f"{n} {len(edges)} 0 1\n" + "".join(f"{a} {b}\n" for a, b in edges)


def test_pebble_queries_beyond_63_vertices(tmp_path, capsys):
    tight = tmp_path / "chain.graph"
    tight.write_text(_chain_text(100))
    rc, out, _ = run(capsys, "check-sparse", str(tight))
    assert (rc, out) == (0, "sparse: yes\n")
    rc, out, _ = run(capsys, "uv-rigid-comb", str(tight))
    assert (rc, out) == (0, "uv-rigid-comb: yes\nrigid-minus-pair: yes\nrigid-contracted: yes\n")

    over = tmp_path / "over.graph"
    over.write_text(_chain_text(100, [(0, 99)]))
    rc, out, _ = run(capsys, "check-sparse", str(over))
    whole = ",".join(map(str, range(100)))
    assert (rc, out) == (0, f"sparse: no\nwitness: {{{whole}}} edges 199 > 198\n")


def test_graph_format_round_trip_via_cli(files, capsys):
    rc, out, _ = run(capsys, "op", "apply", files["two_k4.graph"], "contractpair")
    assert rc == 0
    g = parse_graph(out)
    assert g.n == 6
    assert format_graph(g) == out
