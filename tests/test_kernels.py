"""Kernel oracles: the pebble game against greedy insertion with brute-force
counts, and the family search against a plain subset scan."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from normrig import _kernels
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


@pytest.mark.parametrize("kl", [(2, 2), (2, 3), (1, 1)])
def test_pebble_game_equals_greedy_oracle(kl, small_graphs):
    k, l = kl
    for g in small_graphs:
        edges = g.sorted_edges()
        eu = [a for a, _ in edges]
        ev = [b for _, b in edges]
        rank, accepted, reaches = _kernels.pebble_game(g.n, eu, ev, k, l)
        kept = [e for e, a in zip(edges, accepted) if a]
        expect_kept, expect_reaches = _greedy_oracle(g.n, edges, k, l)
        assert (kept, reaches) == (expect_kept, expect_reaches), (g.n, edges)
        assert rank == len(kept)
        witness = pebble_game(g, k, l).witness
        assert witness == (expect_reaches[0] if expect_reaches else None)


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
