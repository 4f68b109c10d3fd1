"""Low-level kernels.

Each kernel has one adapter, which turns a graph or a seed into its
input: pebble_game is called only by sparsity.pebble_game,
canonize_batch only by enumeration._class_masks, family_best only by
sparsity.is_uv_sparse_bruteforce, seed_states only by
experiments._derive_seeds, and uniform_streams only by
rigidity._generic_ranks.  The pebble game works on vertex labels and
keeps the orientation as adjacency lists, so its cost follows the edges
it searches and not n**2.  The canonizer is exact float64 matrix
products over tiles of numpy edge bitmasks.  The family search is a
branch and bound over Python-int bitmasks; its cost follows the families
it cannot rule out, not the 2**c families there are.  The two seed-stream
kernels reproduce numpy's SeedSequence and PCG64 generator bit for bit
over many seeds at once, in uint32 lanes and exact float64 products.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# ---------------------------------------------------------------------------
# pebble game
# ---------------------------------------------------------------------------


def pebble_game(verts, edges, k, l):
    """(k, l)-pebble game over the vertex labels verts; sparsity.pebble_game adapts it.

    Pebbles and out-lists are keyed by label.  The edges, label pairs,
    are offered in list order.  Returns ``(accepted, reaches)``: the
    accepted edges in order, and for each rejected edge in order the
    reach set (of labels) of its endpoints at its rejection, the first
    one being the non-sparsity witness.  The reach set U of a rejection
    always induces more than k|U| - l edges.

    The result does not depend on the order in which searches scan
    out-neighbours: the accepted edges are those that greedy insertion
    into the (k, l)-count matroid keeps, and the reach set is the
    smallest vertex set through both endpoints that spans exactly
    k|U| - l accepted edges, which is unique.  U's accepted edges and
    the rejected edge form its fundamental circuit: they break the count
    on U, and any circuit through the rejected edge spans a tight set
    through both endpoints, which contains U.
    """
    pebbles = dict.fromkeys(verts, k)
    out = {x: [] for x in verts}  # out[x]: heads of the edges x -> y
    accepted = []
    reaches = []

    def fetch(root, a, b, parent):
        """Pull one pebble onto root along a reversed path.  The search
        may pass through the other endpoint but never takes its pebbles,
        and skips the vertices already in parent (found pebble-free); on
        failure parent holds every vertex it reached."""
        parent[root] = root
        stack = [root]
        while stack:
            x = stack.pop()
            for y in out[x]:
                if y in parent:
                    continue
                parent[y] = x
                if pebbles[y] and y != a and y != b:
                    cur = y
                    while cur != root:
                        prev = parent[cur]
                        out[prev].remove(cur)
                        out[cur].append(prev)
                        cur = prev
                    pebbles[y] -= 1
                    pebbles[root] += 1
                    return True
                stack.append(y)
        return False

    for a, b in edges:
        while pebbles[a] + pebbles[b] <= l:
            seen = {}
            if not (fetch(a, a, b, seen) or fetch(b, a, b, seen)):
                break
        if pebbles[a] + pebbles[b] > l:
            accepted.append((a, b))
            if pebbles[a]:
                pebbles[a] -= 1
                out[a].append(b)
            else:
                pebbles[b] -= 1
                out[b].append(a)
            continue
        # Rejected: the edge is dependent and stays out, but later edges
        # are still offered.  Both failed searches together visited the
        # reach set of {a, b}: it is closed under out-edges and every
        # vertex in it except a, b has zero pebbles, so with the
        # rejected edge it induces more than k|U| - l edges.
        reaches.append(frozenset(seen))

    return accepted, reaches


# ---------------------------------------------------------------------------
# canonical forms for edge-set bitmasks
# ---------------------------------------------------------------------------


def canonize_batch(masks, bitmaps):
    """Minimum relabelling of each edge bitmask.

    ``bitmaps[p, b]`` gives the image of edge-bit ``b`` under the p-th
    vertex permutation.  The canonical form of a mask is the smallest
    integer over all permutations; it is itself the edge mask of a
    relabelled copy of the graph.  A tile of bit-expanded masks under a
    tile of permutations is one float64 matrix product.  Each entry is a
    sum of distinct powers of two below 2**52, so every partial sum is an
    exact integer below 2**53, in any summation order.
    """
    nperm, nbits = bitmaps.shape
    if nbits > 52:
        raise ValueError(f"{nbits}-bit masks exceed float64's exact integers")
    bits = ((masks[:, None] >> np.arange(nbits)) & 1).astype(np.float64)
    weights = (np.int64(1) << bitmaps.T).astype(np.float64)  # [bit, perm] place values
    best = masks.astype(np.float64)
    t = 256  # masks, and permutations, per tile: 512 KiB of float64
    for i in range(0, len(masks), t):
        for p in range(0, nperm, t):
            tile = bits[i:i + t] @ weights[:, p:p + t]
            np.minimum(best[i:i + t], tile.min(axis=1), out=best[i:i + t])
    return best.astype(np.int64)


# ---------------------------------------------------------------------------
# family search
# ---------------------------------------------------------------------------


def family_best(edge_masks, val_terms):
    """Best nonempty family of candidate vertex sets, by branch and bound.

    ``edge_masks[i]`` is the bitmask of graph edges induced by the i-th
    candidate set, ``val_terms[i]`` its value contribution.  A family S
    scores popcount(union of masks) - 2 - sum(terms); the maximum and
    the smallest maximising subset (as a candidate bitmask) come back.

    Each search node is a family whose lowest candidate is i; its
    children add one more candidate j < i, in increasing j.  Every
    family is met once, in increasing mask order, so the first strict
    maximum is the smallest maximising mask.  A subtree is cut when its
    ceiling (each candidate below i adds its fresh edges minus its term,
    where that is positive) does not exceed the best score: anything it
    could only tie has a larger mask.
    """
    cands = [(int(m), int(t)) for m, t in zip(edge_masks, val_terms)]
    best, best_mask = -(1 << 60), 0

    def rec(i, union, tsum, chosen):
        nonlocal best, best_mask
        score = union.bit_count() - 2 - tsum
        if chosen and score > best:
            best, best_mask = score, chosen
        ceiling = score if chosen else -2
        for m, t in cands[:i]:
            extra = (m & ~union).bit_count() - t
            if extra > 0:
                ceiling += extra
        if ceiling <= best:
            return
        for j in range(i):
            m, t = cands[j]
            rec(j, union | m, tsum + t, chosen | 1 << j)

    rec(len(cands), 0, 0, 0)
    return best, best_mask


# ---------------------------------------------------------------------------
# seed streams
# ---------------------------------------------------------------------------

# numpy's SeedSequence (a 4-word pool, hashmix in uint32 arithmetic) and
# the PCG64 multiplier.  uint32 arrays wrap on overflow, as its C does.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# Most padded draws uniform_streams carries at once (512 KiB of column sums).
_BLOCK_DRAWS = 1 << 13


@lru_cache(maxsize=None)
def _hash_constants(init, mult, count):
    """The hash constant before each of count hashmix calls and after the
    last, as a (count + 1, 1) uint32 column: it does not depend on the data."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _mix(x, y):
    out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return out ^ out >> 16


def seed_states(entropy, words):
    """SeedSequence(row).generate_state(words) of each row of entropy.

    A row holds the uint32 words numpy reads from its entropy, lowest
    word of each int first, and all rows hold the same number of words.
    Returns a (rows, words) uint32 array.  The pool is mixed as numpy
    mixes it, one pool word per lane: hashmix each entropy word into the
    pool, mix every pool word into every other, then mix each entropy
    word past the fourth into all four.
    """
    entropy = np.asarray(entropy, dtype=np.uint32).T
    length = len(entropy)
    h = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * max(0, length - 4))
    pool = np.zeros((4, entropy.shape[1]), dtype=np.uint32)
    pool[:length] = entropy[:4]
    pool = _hashmix(pool, h[:4], h[1:5])
    at = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], h[at:at + 3], h[at + 1:at + 4]))
        at += 3
    for src in range(4, length):
        pool = _mix(pool, _hashmix(entropy[src], h[at:at + 4], h[at + 1:at + 5]))
        at += 4
    c = _hash_constants(_INIT_B, _MULT_B, words)
    return _hashmix(pool[np.arange(words) % 4], c[:-1], c[1:]).T


@lru_cache(maxsize=32)
def _jump_matrix(draws):
    """(16, 8 * draws) float64 J with [limbs of x, limbs of inc] @ J the
    16-bit column sums of the PCG64 state that gives draw k < draws,
    A x + S inc mod 2**128 with A = M**(k + 2) and S = M**(k + 1) + ... + 1."""
    out = np.zeros((2, 8, draws, 8))
    a, s = _PCG_MULT**2 % (1 << 128), 1 + _PCG_MULT
    for k in range(draws):
        for half, value in enumerate((a, s)):
            limbs = [value >> 16 * i & 0xFFFF for i in range(8)]
            for b in range(8):
                out[half, b, k, b:] = limbs[:8 - b]
        a, s = a * _PCG_MULT % (1 << 128), (s + a) % (1 << 128)
    return out.reshape(16, 8 * draws)


def _doubles(sums, counts):
    """next_double of each wanted draw from its state's 16-bit column sums
    (rows, draws, 8): carry them into the state's two 64-bit halves, take
    the XSL-RR output and keep its top 53 bits."""
    c = sums[np.arange(sums.shape[1]) < counts[:, None]].astype(np.uint64).T
    carry = c[0]
    for i in range(1, 4):
        carry = (carry >> 16) + c[i]
    lo = c[0] + (c[1] << 16) + (c[2] << 32) + (c[3] << 48)
    hi = c[4] + (c[5] << 16) + (c[6] << 32) + (c[7] << 48) + (carry >> 16)
    rot = hi >> 58
    out = lo ^ hi
    out = out >> rot | out << (-rot & 63)
    return (out >> 11) * (1.0 / 9007199254740992.0)


def uniform_streams(entropy, counts, low, high):
    """The first counts[j] draws of default_rng(row j).uniform(low, high),
    for each row j of entropy (as in seed_states), concatenated.

    PCG64 seeds from generate_state(4, uint64): state s and increment
    inc = 2 seq + 1, then state 0 is (s + inc) M + inc.  Draw k comes from
    state k + 1, M**(k + 2) x + (M**(k + 1) + ... + 1) inc with x = s + inc,
    so every draw of every row is one product of 16-bit limbs: below
    2**32 each, at most 16 of them in a sum, exact in float64 in any
    order.  Rows go through in blocks of about _BLOCK_DRAWS draws, so
    memory stays bounded.  The output is XSL-RR, (out >> 11) * 2**-53 the
    double, and low + (high - low) * double the uniform, as numpy
    computes them.
    """
    counts = np.asarray(counts, dtype=np.intp)
    draws = int(counts.max(initial=0))
    if draws == 0:
        return np.zeros(0)
    w = seed_states(entropy, 8).astype(np.uint64)
    init_lo, init_hi = w[:, 2] | w[:, 3] << 32, w[:, 0] | w[:, 1] << 32
    seq_lo, seq_hi = w[:, 6] | w[:, 7] << 32, w[:, 4] | w[:, 5] << 32
    inc_lo, inc_hi = seq_lo << 1 | 1, seq_hi << 1 | seq_lo >> 63
    x_lo = init_lo + inc_lo
    x_hi = init_hi + inc_hi + (x_lo < init_lo)
    halves = np.stack([x_lo, x_hi, inc_lo, inc_hi], axis=1)[:, :, None]
    limbs = (halves >> np.arange(0, 64, 16, dtype=np.uint64) & 0xFFFF).reshape(-1, 16)
    limbs, jump = limbs.astype(np.float64), _jump_matrix(draws)
    step = max(1, _BLOCK_DRAWS // draws)
    doubles = np.concatenate([
        _doubles((limbs[i:i + step] @ jump).reshape(-1, draws, 8), counts[i:i + step])
        for i in range(0, len(counts), step)
    ])
    return low + (high - low) * doubles
