"""Kernel oracles: the pebble game against greedy insertion with brute-force
counts, the family search against a plain subset scan, and the seed-stream
kernels against numpy's own SeedSequence and default_rng.  Also pins that
each kernel is reached through exactly one adapter."""
from __future__ import annotations

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

import normrig
from normrig import _kernels
from normrig.experiments import _derive_seeds
from normrig.rigidity import seed_words
from normrig.sparsity import pebble_game


def _greedy_oracle(n, edges, k, l):
    """Greedy insertion into the (k, l)-count matroid, by brute-force
    counts.  The kept set is sparse, so an edge ab breaks a count iff some
    vertex set U through a and b is tight (spans k|U| - l kept edges).
    The tight sets through a and b are closed under intersection, so the
    smallest one is unique: the pebble game's reach set.  Returns the kept
    edges and that set at every rejection, in order."""
    kept, smallest = [], []
    for a, b in edges:
        rest = [x for x in range(n) if x not in (a, b)]
        tight = [
            s
            for r in range(len(rest) + 1)
            for extra in itertools.combinations(rest, r)
            for s in [frozenset((a, b, *extra))]
            if sum(1 for x, y in kept if x in s and y in s) == k * len(s) - l
        ]
        if not tight:
            kept.append((a, b))
        else:
            smallest.append(min(tight, key=len))
            assert all(smallest[-1] <= s for s in tight)
    return kept, smallest


# l < k, as in (2, 1) and (1, 0), is where the second endpoint pays the pebble
@pytest.mark.parametrize("kl", [(2, 2), (2, 3), (1, 1), (2, 1), (1, 0)])
def test_pebble_game_equals_greedy_oracle(kl, small_graphs):
    k, l = kl
    rng = np.random.default_rng(5)
    for g in small_graphs:
        edges = g.sorted_edges()
        accepted, reaches = _kernels.pebble_game(g.vertices, edges, k, l)
        expect_kept, expect_reaches = _greedy_oracle(g.n, edges, k, l)
        assert (accepted, reaches) == (expect_kept, expect_reaches), (g.n, edges)
        res = pebble_game(g, k, l)
        assert (res.accepted, res.reaches) == (tuple(accepted), tuple(reaches))
        assert res.rank == len(accepted)
        assert res.witness == (expect_reaches[0] if expect_reaches else None)

        # A copy under an injective relabelling into non-contiguous labels,
        # offered the images of the same edges in the same order: the game
        # keeps the images of the same edges and rejects with the images of
        # the same reach sets.
        f = dict(zip(g.vertices, map(int, rng.choice(1000, size=g.n, replace=False))))
        h_accepted, h_reaches = _kernels.pebble_game(
            [f[x] for x in g.vertices], [(f[a], f[b]) for a, b in edges], k, l
        )
        assert h_accepted == [(f[a], f[b]) for a, b in accepted]
        assert h_reaches == [frozenset(f[x] for x in r) for r in reaches]


def _score(edge_masks, val_terms, s):
    chosen = [i for i in range(len(edge_masks)) if (s >> i) & 1]
    union = 0
    for i in chosen:
        union |= int(edge_masks[i])
    return union.bit_count() - 2 - sum(int(val_terms[i]) for i in chosen)


def test_family_best_matches_subset_scan():
    rng = np.random.default_rng(3)
    for trial in range(60):
        c = int(rng.integers(1, 13))
        # narrow masks and terms make ties common
        width = 4 if trial % 2 else 12
        edge_masks = rng.integers(0, 1 << width, size=c, dtype=np.int64)
        val_terms = rng.integers(0, 6, size=c, dtype=np.int64)
        scores = [(_score(edge_masks, val_terms, s), s) for s in range(1, 1 << c)]
        expect = max(sc for sc, _ in scores)
        smallest = min(s for sc, s in scores if sc == expect)
        assert _kernels.family_best(edge_masks, val_terms) == (expect, smallest)


# the seeds the stream kernels are checked on: edges of the uint32 words
# numpy reads from an int, and 50 random ones of one and two words
STREAM_SEEDS = [0, 1, 1729, 2**32 - 1, 2**32, 2**64 + 5] + [
    int(x) for x in np.random.default_rng(26).integers(0, 2**40, 50)
]


def test_uniform_streams_equal_default_rng():
    """Draws of many streams in one ragged call, bit for bit numpy's."""
    rows = [(s, t, n) for s in STREAM_SEEDS for t in (0, 1, 9, 199) for n in (0, 1, 2, 7, 100)]
    by_width = {}
    for s, t, n in rows:
        by_width.setdefault(len(seed_words(s)), []).append((s, t, n))
    assert sorted(by_width) == [1, 2, 3]
    for group in by_width.values():
        entropy = [seed_words(s) + (t,) for s, t, _ in group]
        got = _kernels.uniform_streams(entropy, [2 * n for *_, n in group], -1.0, 1.0)
        expect = np.concatenate([
            np.random.default_rng([s, t]).uniform(-1, 1, (n, 2)).ravel() for s, t, n in group
        ])
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))
    assert _kernels.uniform_streams([(5, 0)], [0], -1.0, 1.0).shape == (0,)


@pytest.mark.parametrize("seed", [0, 1729, 2**32, 2**64 + 5, 2**100])
def test_derive_seeds_equal_seed_sequence(seed):
    # 2**100 reads as four words, so [seed, i, 0] overflows the 4-word pool
    count = 300
    assert _derive_seeds(seed, count) == [
        int(np.random.SeedSequence([seed, i, 0]).generate_state(1)[0]) for i in range(count)
    ]
    assert _derive_seeds(seed, 0) == []


# each public _kernels function and the one function in src/normrig that calls it
ADAPTERS = {
    "pebble_game": ("sparsity", "pebble_game"),
    "canonize_batch": ("enumeration", "_class_masks"),
    "family_best": ("sparsity", "is_uv_sparse_bruteforce"),
    "seed_states": ("experiments", "_derive_seeds"),
    "uniform_streams": ("rigidity", "_generic_ranks"),
}


def test_each_kernel_has_one_adapter():
    src = Path(normrig.__file__).parent
    kernels = {
        node.name
        for node in ast.parse((src / "_kernels.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert kernels == set(ADAPTERS)
    refs = {name: [] for name in kernels}
    importers = set()
    for path in sorted(src.glob("*.py")):
        module = path.stem
        if module == "_kernels":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names}
                assert node.module != "_kernels", f"{module} imports names from _kernels"
                if "_kernels" in names:
                    importers.add(module)
            elif isinstance(node, ast.Import):
                assert all("_kernels" not in a.name for a in node.names), module
        for top in tree.body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "_kernels"
                ):
                    where = top.name if isinstance(top, ast.FunctionDef) else None
                    refs[node.attr].append((module, where))
    assert importers == {"sparsity", "enumeration", "experiments", "rigidity"}
    assert refs == {name: [adapter] for name, adapter in ADAPTERS.items()}
