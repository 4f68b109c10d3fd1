"""Kernel oracles: the pebble game (sparsity.PebbleState) against greedy
insertion with brute-force counts, the family search (sparsity.family_best)
against a plain subset scan, the seed streams (rigidity.derive_seeds and
rigidity.uniform_streams) against numpy's own SeedSequence and default_rng,
and index draws against Generator.choice.  Also pins that no module imports
another's private names."""
from __future__ import annotations

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

import normrig
from normrig import rigidity
from normrig.graph import Graph
from normrig.sparsity import PebbleState, family_best, pebble_game


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
        res = pebble_game(g, k, l)
        expect_kept, expect_reaches = _greedy_oracle(g.n, edges, k, l)
        assert (list(res.accepted), res.reaches) == (expect_kept, tuple(expect_reaches)), edges
        assert list(res.rejected) == [e for e in edges if e not in res.accepted]
        assert res.rank == len(expect_kept)
        assert res.witness == (expect_reaches[0] if expect_reaches else None)

        # A copy under an injective relabelling into non-contiguous labels,
        # offered the images of the same edges in the same order: the game
        # keeps the images of the same edges and rejects with the images of
        # the same reach sets.
        f = dict(zip(g.vertices, map(int, rng.choice(1000, size=g.n, replace=False))))
        h = PebbleState(Graph.from_edges(()), k, l)
        h.offer([(f[a], f[b]) for a, b in edges], [f[x] for x in g.vertices])
        assert list(h.accepted) == [(f[a], f[b]) for a, b in expect_kept]
        assert list(h.reaches) == [frozenset(f[x] for x in r) for r in expect_reaches]


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
        assert family_best(edge_masks, val_terms) == (expect, smallest)


# the seeds the stream kernels are checked on: edges of the uint32 words
# numpy reads from an int, and 50 random ones of one and two words; with
# the trial, 2**100 + 7 and 2**128 + 3 fill more than the 4-word pool
STREAM_SEEDS = [0, 1, 1729, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 7, 2**128 + 3] + [
    int(x) for x in np.random.default_rng(26).integers(0, 2**40, 50)
]


def _numpy_streams(rows):
    """The draws of each (seed, t, count) row from numpy's generator, on the
    placement box [-r, r], concatenated."""
    r = rigidity._BOX_RADIUS
    return np.concatenate([np.random.default_rng([s, t]).uniform(-r, r, c) for s, t, c in rows])


def test_uniform_streams_equal_default_rng():
    """Draws of many streams in one ragged call, bit for bit numpy's, with
    seeds of one to five uint32 words mixed in one batch."""
    rows = [(s, t, c) for s in STREAM_SEEDS for t in (0, 1, 9, 199) for c in (0, 2, 4, 14, 200)]
    assert {len(rigidity._seed_words(s)) for s, *_ in rows} == {1, 2, 3, 4, 5}
    got = rigidity.uniform_streams([(s, t) for s, t, _ in rows], [c for *_, c in rows])
    assert np.array_equal(got.view(np.uint64), _numpy_streams(rows).view(np.uint64))
    # a few streams, and one stream alone, as a one-graph call draws it, of
    # seeds one to five words wide; a zero count draws nothing
    few = rows[:: len(rows) // 7]
    got = rigidity.uniform_streams([(s, t) for s, t, _ in few], [c for *_, c in few])
    assert np.array_equal(got.view(np.uint64), _numpy_streams(few).view(np.uint64))
    for s in (1729, 2**32 + 3, 2**64 + 5, 2**100 + 7, 2**128 + 3):
        for row in ((s, 0, 14), (s, 9, 200)):
            got = rigidity.uniform_streams([row[:2]], [row[2]])
            assert np.array_equal(got.view(np.uint64), _numpy_streams([row]).view(np.uint64))
    assert rigidity.uniform_streams([(5, 0)], [0]).shape == (0,)
    jobs = [(5, t) for t in range(30)]
    empty = rigidity.uniform_streams(jobs, [0] * len(jobs))
    assert empty.shape == (0,) and empty.dtype == np.float64


def test_index_draws_equal_choice():
    """A scalar pick seq[int(rng.integers(len(seq)))] is Generator.choice(seq)'s
    own draw: the same element, and the generator left in the same state.
    globalrig.random_certified_graph and the operation suite draw their
    scalar picks this way, so their pinned streams rest on this equality."""
    for seed in (0, 7, 1729, [7, 0xC0], 2**32 + 5):
        by_choice, by_index = np.random.default_rng(seed), np.random.default_rng(seed)
        for length in range(1, 901):
            items = range(3 * length, 5 * length, 2)  # no element equals its index
            for seq in (tuple(items), list(items)):
                assert int(by_choice.choice(seq)) == seq[int(by_index.integers(len(seq)))]
                assert by_choice.bit_generator.state == by_index.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1729, 2**32, 2**64 + 5, 2**100])
def test_derive_seeds_equal_seed_sequence(seed):
    # 2**100 reads as four words, so [seed, i, 0] overflows the 4-word pool
    count = 300
    assert rigidity.derive_seeds(seed, count) == [
        int(np.random.SeedSequence([seed, i, 0]).generate_state(1)[0]) for i in range(count)
    ]
    assert rigidity.derive_seeds(seed, 0) == []


def test_no_module_imports_another_modules_private_names():
    src = Path(normrig.__file__).parent
    private = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.level or node.module.startswith("normrig"):
                private += [(path.stem, node.module, a.name)
                            for a in node.names if a.name.startswith("_")]
    assert private == []
