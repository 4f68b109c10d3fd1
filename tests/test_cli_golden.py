"""Pinned CLI output, byte for byte.

The goldens in ``golden/cli_rank.json`` pin the rank commands' stdout
and per-trial line; they were captured from the per-trial rank
implementation that preceded the batched one.  The goldens in
``golden/cli_all.json`` pin every command: exit code, stdout, and the
stderr lines other than the ``elapsed:``/``runtime:`` timings; they were
captured before the command handlers were merged into tables.  A
refactor must reproduce both exactly.  To re-capture them (only when
the output is meant to change):

    PYTHONPATH=src python tests/test_cli_golden.py
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from normrig.cli import main

GOLDEN = Path(__file__).resolve().with_name("golden") / "cli_rank.json"
GOLDEN_ALL = GOLDEN.with_name("cli_all.json")

GRAPHS = {
    "k23": "5 6 0 1\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n",
    "two_k4": (
        "7 12 0 1\n0 2\n0 3\n0 6\n2 3\n2 6\n3 6\n"
        "1 4\n1 5\n1 6\n4 5\n4 6\n5 6\n"
    ),
    "k4_pair_edge": "4 6 0 1\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
    "path": "3 2 0 2\n0 1\n1 2\n",
}
OPTIONS = {
    "default": [],
    # large enough a tolerance that trials drop rank and leave notes
    "loose": ["--norm", "lp:1.5", "--tol", "3e-2", "--trials", "6", "--seed", "5"],
}
COMMANDS = ("rank", "uv-rank", "rigid", "uv-rigid")
GRAPH_COMMANDS = COMMANDS + ("check-sparse", "check-uv-sparse", "cover-bound", "uv-rigid-comb")
FILES = {
    **{f"{name}.graph": text for name, text in GRAPHS.items()},
    "k4.graph": "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",  # no designated pair
    "left.seq": "base H_GRAPH\nsplit 2 | 0 1 | 3 4 5 | 3 -> 6 7\n",
    "bad.seq": "base H_GRAPH\nsplit 2 | 0 1 3 | 4 5 | 3 -> 6 7\n",
}
OP_LINES = {
    "addedge": ("k23", "addedge 2 3"),
    "addvertex": ("k23", "addvertex 5: 0 2 3"),
    "split": ("two_k4", "split 6 | 0 2 3 | 1 4 5 | 1 -> 7 8"),
    "deledge": ("k23", "deledge 0 2"),
    "delvertex": ("k23", "delvertex 4"),
    "zeroext": ("k23", "zeroext 0 1 5"),
    "oneext": ("k23", "oneext 0 2 3 5"),
    "fourcycle": ("k4", "fourcycle 2 6 0 1 3>2"),
    "vertex2h": ("two_k4", "vertex2h 2 k4.graph 0>1 3>2 6>3"),
    "contractpair": ("two_k4", "contractpair"),
    "contractpair.explicit": ("k4", "contractpair 0 2"),
}
EXPERIMENTS = {
    "equivalence": ["--max-n", "4"],
    "delete-contract": ["--max-n", "5", "--samples", "6"],
    "rigidity": ["--max-n", "4"],
    "cover-bound": ["--max-n", "3"],
    "operations": ["--samples", "3"],
    "conjecture": ["--max-n", "3", "--samples", "2"],
}
TIMINGS = ("elapsed:", "runtime:")


def cases():
    """(key, command, graph, extra argv, pinned stream)."""
    for graph in GRAPHS:
        for opt, extra in OPTIONS.items():
            for cmd in COMMANDS:
                for form in ("text", "json"):
                    flags = extra + (["--json"] if form == "json" else [])
                    yield f"{cmd}.{graph}.{opt}.{form}", cmd, graph, flags, "stdout"
            for cmd in ("rank", "uv-rank"):
                yield f"{cmd}.{graph}.{opt}.verbose", cmd, graph, extra + ["--verbose"], "stderr"


def all_cases():
    """(key, argv) for every command, run from a directory holding FILES."""
    forms = {"default": [], "json": ["--json"], "verbose": ["--verbose"], "loose": OPTIONS["loose"]}
    for graph in (*GRAPHS, "k4"):
        for cmd in GRAPH_COMMANDS:
            for form, flags in forms.items():
                yield f"{cmd}.{graph}.{form}", [cmd, f"{graph}.graph", *flags]
        yield f"check-sparse.{graph}.k2l3", ["check-sparse", f"{graph}.graph", "--k", "2", "--l", "3"]
        yield f"check-uv-sparse.{graph}.bruteforce", ["check-uv-sparse", f"{graph}.graph", "--bruteforce"]
    for kind, (graph, line) in OP_LINES.items():
        yield f"op.{kind}", ["op", "apply", f"{graph}.graph", line]
    yield "op.zeroext.json", ["op", "apply", "k23.graph", OP_LINES["zeroext"][1], "--json"]
    yield "certify-global.plain", ["certify-global", "left.seq"]
    yield "certify-global.numeric.json", ["certify-global", "left.seq", "--numeric", "--json"]
    yield "certify-global.abort", ["certify-global", "bad.seq"]
    yield "generate-global.text", ["generate-global", "--size", "8", "--seed", "6"]
    yield "generate-global.json", ["generate-global", "--size", "8", "--seed", "6", "--json"]
    for name, flags in EXPERIMENTS.items():
        for form in ("text", "json", "verbose"):
            extra = [] if form == "text" else [f"--{form}"]
            yield f"experiment.{name}.{form}", ["experiment", name, *flags, "--seed", "3", *extra]


def run_command(argv) -> dict:
    """Exit code, stdout and the non-timing stderr lines of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    kept = [ln for ln in err.getvalue().splitlines() if not ln.startswith(TIMINGS)]
    return {"exit": rc, "stdout": out.getvalue(), "stderr": kept}


def write_files(directory: Path) -> None:
    for name, text in FILES.items():
        (directory / name).write_text(text)


def run_case(directory: Path, cmd, graph, flags, stream) -> str:
    path = directory / f"{graph}.graph"
    path.write_text(GRAPHS[graph])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main([cmd, str(path), *flags]) == 0
    if stream == "stdout":
        return out.getvalue()
    return err.getvalue().splitlines()[0]  # the per-trial line; elapsed time follows


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", [pytest.param(c, id=c[0]) for c in cases()])
def test_rank_output_matches_golden(case, golden, tmp_path):
    key, *rest = case
    assert run_case(tmp_path, *rest) == golden[key]


@pytest.fixture(scope="module")
def golden_all():
    return json.loads(GOLDEN_ALL.read_text())


@pytest.mark.parametrize("key,argv", [pytest.param(*c, id=c[0]) for c in all_cases()])
def test_command_output_matches_golden(key, argv, golden_all, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_files(tmp_path)
    assert run_command(argv) == golden_all[key]


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {key: run_case(Path(tmp), *rest) for key, *rest in cases()}
        write_files(Path(tmp))
        os.chdir(tmp)
        record_all = {key: run_command(argv) for key, argv in all_cases()}
        os.chdir(GOLDEN.parent)
    for path, rec in ((GOLDEN, record), (GOLDEN_ALL, record_all)):
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(rec)} goldens to {path}", file=sys.stderr)
