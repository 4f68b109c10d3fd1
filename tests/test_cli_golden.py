"""Pinned CLI output of the rank commands, byte for byte.

The goldens in ``golden/cli_rank.json`` were captured from the
per-trial rank implementation that preceded the batched one; a rank
refactor must reproduce them exactly.  To re-capture them (only when
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

GOLDEN = Path(__file__).with_name("golden") / "cli_rank.json"

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
def test_rank_output_matches_golden(case, golden, tmp_path, monkeypatch):
    monkeypatch.delenv("NORMRIG_SEED", raising=False)
    key, *rest = case
    assert run_case(tmp_path, *rest) == golden[key]


if __name__ == "__main__":
    import os
    import tempfile

    os.environ.pop("NORMRIG_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        record = {key: run_case(Path(tmp), *rest) for key, *rest in cases()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} goldens to {GOLDEN}", file=sys.stderr)
