"""End-to-end command line checks: exact stdout, exit codes, JSON records."""
from __future__ import annotations

import json

import pytest

from normrig import __version__
from normrig.cli import main
from normrig.graph import format_graph, parse_graph

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


@pytest.mark.parametrize("cmd", ["rank", "uv-rigid"])
@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_bad_tolerance_exit_1(files, capsys, cmd, tol):
    rc, out, err = run(capsys, cmd, files["k23.graph"], "--tol", tol)
    assert rc == 1 and out == ""
    assert err.startswith("error: tolerance must be finite and non-negative")


def test_parallel_edge_exit_1(files, capsys):
    rc, _, err = run(capsys, "check-uv-sparse", files["dup.graph"])
    assert rc == 1
    assert "line 3" in err and "parallel edge" in err


def test_missing_file_exit_1(capsys, tmp_path):
    rc, _, err = run(capsys, "rank", str(tmp_path / "nope.graph"))
    assert rc == 1 and "error:" in err


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


def test_experiment_empty_range_exit_1(capsys):
    rc, out, err = run(capsys, "experiment", "delete-contract", "--max-n", "3")
    assert (rc, out, err) == (1, "", "error: empty vertex-count range 4..3\n")


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
    monkeypatch.setenv("NORMRIG_SEED", "77")
    _, out_env, _ = run(capsys, "uv-rank", files["two_k4.graph"])
    monkeypatch.delenv("NORMRIG_SEED")
    _, out_explicit, _ = run(capsys, "uv-rank", files["two_k4.graph"], "--seed", "77")
    assert out_env == out_explicit


@pytest.mark.parametrize("argv,env,message", [
    pytest.param(["rank", "k23.graph", "--seed", "-1"], None,
                 "seed must be a non-negative integer, got -1", id="flag"),
    pytest.param(["generate-global", "--size", "8", "--seed", "-3"], None,
                 "seed must be a non-negative integer, got -3", id="generate-global"),
    pytest.param(["uv-rank", "k23.graph"], "-4",
                 "NORMRIG_SEED must be a non-negative integer, got -4", id="env"),
])
def test_negative_seed_exit_1(files, capsys, monkeypatch, argv, env, message):
    if env is None:
        monkeypatch.delenv("NORMRIG_SEED", raising=False)
    else:
        monkeypatch.setenv("NORMRIG_SEED", env)
    argv = [files.get(a, a) for a in argv]
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_version_line(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0
    assert capsys.readouterr().out == f"normrig {__version__}\n"


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
