"""Low-level kernels.

Each kernel has one adapter, which turns a graph or a seed into its
input: canonize_batch is called only by enumeration._class_masks,
family_best only by sparsity.is_uv_sparse_bruteforce, derive_seeds only
by experiments._run, and uniform_streams only by
rigidity._chunk_matrices.  The canonizer is exact float64 matrix
products over tiles of numpy edge bitmasks.  The family search is a
branch and bound over Python-int bitmasks; its cost follows the
families it cannot rule out, not the 2**c families there are.

The two seed kernels take plain ints, and this module alone knows how
numpy reads them: derive_seeds hashes the rows [seed, i, 0], and
uniform_streams draws from default_rng([seed, t]).  Both run a port of
numpy's SeedSequence and PCG64 generator that gives the same bits over
many seeds at once, in uint32 lanes and exact float64 products;
uniform_streams calls numpy's own generator instead for a few streams.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

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

# Most padded draws the port carries at once (512 KiB of column sums).
_BLOCK_DRAWS = 1 << 13

# Jobs below this count draw through numpy's own generator, which is
# faster there: one stream takes it about 30 us, and the port over 200 us.
_STREAM_JOBS = 24


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


def _seed_words(seed):
    """The uint32 words, lowest first, that numpy's SeedSequence reads
    from the non-negative int seed."""
    if seed >> 32 == 0:
        return (seed,)
    return tuple(seed >> b & 0xFFFFFFFF for b in range(0, seed.bit_length(), 32))


def _seed_states(entropy, lengths, words):
    """SeedSequence(row[:length]).generate_state(words) of each row of
    entropy and its length (one count, or one per row).

    A row holds the uint32 words numpy reads from its entropy, lowest
    word of each int first, zero-padded to the widest row.  Returns a
    (rows, words) uint32 array.  The pool is mixed as numpy mixes it, one
    pool word per lane: hashmix the first four entropy words into the
    pool (a missing word hashes as 0, as a padded one does), mix every
    pool word into every other, then mix each entropy word past the
    fourth, where the row has one, into all four.
    """
    entropy = np.asarray(entropy, dtype=np.uint32).T
    width = len(entropy)
    h = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * max(0, width - 4))
    pool = np.zeros((4, entropy.shape[1]), dtype=np.uint32)
    pool[:width] = entropy[:4]
    pool = _hashmix(pool, h[:4], h[1:5])
    at = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], h[at:at + 3], h[at + 1:at + 4]))
        at += 3
    for src in range(4, width):
        mixed = _mix(pool, _hashmix(entropy[src], h[at:at + 4], h[at + 1:at + 5]))
        pool = np.where(src < np.asarray(lengths), mixed, pool)
        at += 4
    c = _hash_constants(_INIT_B, _MULT_B, words)
    return _hashmix(pool[np.arange(words) % 4], c[:-1], c[1:]).T


def derive_seeds(seed, count):
    """SeedSequence([seed, i, 0]).generate_state(1)[0] for each i < count,
    hashed in one batch, as a list of ints."""
    entropy = np.tile(np.array(_seed_words(seed) + (0, 0), dtype=np.uint32), (count, 1))
    entropy[:, -2] = np.arange(count)
    return _seed_states(entropy, entropy.shape[1], 1)[:, 0].tolist()


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


def _uniform_port(entropy, lengths, counts, low, high):
    """The first counts[j] draws of default_rng(row j).uniform(low, high),
    for each row j of entropy and its length (as in _seed_states),
    concatenated.

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
    w = _seed_states(entropy, lengths, 8).astype(np.uint64)
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


def uniform_streams(jobs, counts, low, high):
    """The first counts[j] draws of default_rng([seed, t]).uniform(low, high)
    for each job j = (seed, t) of non-negative ints, concatenated.

    Fewer than _STREAM_JOBS jobs draw through numpy's own generator, more
    through the port, in one call whatever the seeds' widths.  Both give
    the same bits.
    """
    if len(jobs) < _STREAM_JOBS:
        return np.concatenate([
            np.random.default_rng([s, t]).uniform(low, high, c) for (s, t), c in zip(jobs, counts)
        ])
    rows = [_seed_words(s) + _seed_words(t) for s, t in jobs]
    lengths = np.array([len(row) for row in rows])
    width = lengths.max()
    entropy = np.array([row + (0,) * (width - len(row)) for row in rows], dtype=np.uint32)
    return _uniform_port(entropy, lengths, counts, low, high)
