"""Counter-based shared randomness for grand couplings.

Every coupled copy of a chain must see identical per-step random fields:
one uniform per edge, one uniform spin and one uniform threshold per
vertex, plus the block/vertex selector. Draws are derived from a Philox
counter-based generator keyed on (seed, t), which gives O(1) random access
to any step and platform-independent streams.

Consumption order inside a step is fixed: edge uniforms in edge-index
order, then vertex spins, then vertex thresholds, then the selector draw.

SharedRandomness.at reads a step as one block of raw 64-bit Philox words
and decodes it with array arithmetic. With h = ceil(n/2), the block holds
m + h + n + 1 words:

* words [0, m) are the edge uniforms, words [m+h, m+h+n) the vertex
  uniforms and the last word the selector, each double being
  (w >> 11) * 2^-53;
* word m+i holds spins 2i (bit 31, its low 32-bit half) and 2i+1 (bit 63,
  its high half); for odd n the last high half goes unused.

This equals reading the same key through np.random.Generator in the order
above (`sequential_draws`, kept as the oracle): Generator.random converts
each word as above, and integers(0, 2) takes the top bit of each 32-bit
draw, low half first, never rejecting, since Lemire's threshold
(2^32 - 2) mod 2 is 0. Nothing carries from one step to the next, because
every step resets the generator to key (seed tag, t), counter 0, empty
buffer. One SharedRandomness holds that generator and is therefore not
thread-safe.

SharedRandomness.uniforms decodes chosen words of chosen steps without
generating the rest. numpy's Philox advances its counter before each block
of four words, so word w of step t is lane w mod 4 of Philox4x64-10
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011) on
counter (w // 4 + 1, 0, 0, 0) under key ((tag << 32) ^ seed, t); `_philox`
evaluates that on arrays, with 128-bit products formed from 32-bit halves.
A heat-bath step (Glauber or block) reads only its selector, word m+h+n,
and then u_t(v), word m+h+v, for each site v of the block the selector
picks. The sites depend on the selector alone, never on the state, so
site_draws reads a chunk of steps with two such calls (the selectors, then
every chosen site) and yields each step as (k, thresholds), the heat-bath
draw format: selector index k, and thresholds[i] = u_t(v) for the i-th site
v that k updates, in update order, as every heat-bath step reads them.

A sequential generator (`sequential_draws`, used by single chains and
audits) reads one stream, so steps are not independent blocks. With
numpy's PCG64 one step takes, in order: m words for the edge uniforms,
the spins, n words for the vertex uniforms and one word for the selector.
Each spin is bit 31 of one 32-bit half, low half first; integers(0, 2)
takes halves through the bit generator's one-half buffer, so a step that
starts with a buffered half (`has_uint32`, left by an odd number of halves
before it) spends it on its first spin and ceil((n - 1)/2) fresh words on
the rest, and a step that ends on a low half buffers the high one for the
next step's first spin. Doubles never touch the buffer. `draw_block`
reads many such steps with one random_raw call through a cached index map
of this layout and writes the buffer back, so it yields exactly the fields
successive sequential_draws calls return and leaves the same state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["StepDraws", "SharedRandomness", "sequential_draws", "draw_block"]

_STREAM_TAG = 0x1517C0DE
_TO_UNIT = 2.0 ** -53
_SHIFT = np.uint64(11)
_SPIN_BIT = np.uint32(31)
_SPIN = np.array([-1, 1], dtype=np.int8)
_BLOCK_WORDS = 1 << 12  # most words one draw_block read takes (unless two steps need more)
_SITE_CHUNK = 1 << 10  # most steps one site_draws chunk reads
_LO32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
# Philox4x64 multipliers and Weyl key increments (Salmon et al. 2011)
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_M_HALVES = (_PHILOX_M & _LO32, _PHILOX_M >> _32)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)


@dataclass(frozen=True)
class StepDraws:
    """The random fields driving one step, shared across coupled copies."""

    edge_uniforms: np.ndarray   # r_t(e), one per edge, in [0,1)
    vertex_spins: np.ndarray    # s_t(v), +/-1 per vertex
    vertex_uniforms: np.ndarray  # u_t(v), one per vertex, in [0,1)
    selector: float             # uniform in [0,1) for block/vertex choice

    def block_index(self, r: int) -> int:
        """The selector's index in [0, r): a block, or Glauber's vertex."""
        return min(int(self.selector * r), r - 1)


class SharedRandomness:
    """Per-step random fields for a graph, addressable by step counter.

    A seed or step outside [0, 2^64) raises OverflowError.
    """

    def __init__(self, seed: int, n: int, m: int):
        self.seed = int(seed)
        self.n = n
        self.m = m
        key = np.array([(_STREAM_TAG << 32) ^ np.uint64(self.seed), 0],
                       dtype=np.uint64)
        self._philox = np.random.Philox(key=key)
        # a fresh generator's state: counter 0, buffer empty; only key[1] moves
        self._state = self._philox.state
        self._key = self._state["state"]["key"]

    def at(self, t: int) -> StepDraws:
        n, m = self.n, self.m
        h = (n + 1) // 2
        self._key[1] = t
        self._philox.state = self._state
        words = self._philox.random_raw(m + h + n + 1)
        # '<u8' is a no-op on little-endian hosts; it makes the '<u4' view
        # list each word's low half first on any host
        halves = words[m:m + h].astype("<u8", copy=False).view("<u4")
        spins = _SPIN.take(halves[:n] >> _SPIN_BIT)
        words >>= _SHIFT
        u = words * _TO_UNIT
        return StepDraws(u[:m], spins, u[m + h:m + h + n], float(u[-1]))

    def uniforms(self, steps: np.ndarray, words: np.ndarray) -> np.ndarray:
        """The doubles (w >> 11) * 2^-53 of word words[i] of step steps[i]
        (a uint64 and an integer array of one shape), bit for bit those
        at() decodes."""
        lanes = _philox(int(self._key[0]), steps, (words // 4 + 1).astype(np.uint64))
        word = lanes[words % 4, np.arange(len(words))]
        return (word >> _SHIFT) * _TO_UNIT

    def site_draws(self, plans, t_max: int):
        """Yield (k, thresholds) for steps 1..t_max: k is the step's
        block_index(len(plans)), and thresholds the list of the floats
        u_t(v) for v in plans[k], in that order.

        Each chunk of steps costs two uniforms calls, the selectors and
        then every site they pick; chunks double from 64 steps up to
        _SITE_CHUNK, so a short run reads little past its end.
        """
        base = self.m + (self.n + 1) // 2  # the word of u_t(0)
        r = len(plans)
        width = max(map(len, plans), default=0)
        table = np.full((r, width), -1, dtype=np.intp)  # row k: plans[k], then -1s
        for k, p in enumerate(plans):
            table[k, :len(p)] = p
        t, T = 1, 64
        while t <= t_max:
            T = min(T, t_max - t + 1)
            steps = np.uint64(t) + np.arange(T, dtype=np.uint64)
            sel = self.uniforms(steps, np.full(T, base + self.n))
            ks = np.minimum((sel * r).astype(np.intp), r - 1)  # block_index, per step
            sites = table[ks]
            picked = sites >= 0
            counts = picked.sum(axis=1)
            u = self.uniforms(np.repeat(steps, counts), base + sites[picked]).tolist()
            i = 0
            for k, j in zip(ks.tolist(), np.cumsum(counts).tolist()):
                yield k, u[i:j]
                i = j
            t += T
            T = min(2 * T, _SITE_CHUNK)


def _philox(k0: int, k1: np.ndarray, c0: np.ndarray) -> np.ndarray:
    """The four output lanes (rows) of Philox4x64-10 on counters (c0, 0, 0, 0)
    under keys (k0, k1): numpy's Philox advances its counter before each
    block, so word w of a fresh generator is lane w % 4 of counter w // 4 + 1.

    Rows of X hold lanes 0 and 2, which a round multiplies, and rows of Y
    lanes 1 and 3, so each array operation serves both multiplications.
    """
    X = np.stack([c0, np.zeros_like(c0)])
    Y = np.zeros_like(X)
    K = np.stack([np.full_like(c0, k0), k1])
    for _ in range(10):
        hi, lo = _mulhilo(X)
        X, Y = hi[::-1] ^ Y ^ K, lo[::-1]
        K += _PHILOX_W
    return np.stack([X[0], Y[0], X[1], Y[1]])


def _mulhilo(a: np.ndarray) -> tuple:
    """(high, low) 64-bit words of the 128-bit products a * _PHILOX_M, from
    32-bit halves (Warren, Hacker's Delight, 8-2); no partial sum overflows."""
    a0, a1 = a & _LO32, a >> _32
    b0, b1 = _PHILOX_M_HALVES
    t = a1 * b0 + (a0 * b0 >> _32)
    w = (t & _LO32) + a0 * b1
    return a1 * b1 + (t >> _32) + (w >> _32), a * _PHILOX_M


def sequential_draws(rng: np.random.Generator, n: int, m: int) -> StepDraws:
    """One step's fields from an ordinary sequential generator.

    The per-step definition of a sequential stream: single chains and
    audits, which need no counter-based access, read successive calls in
    blocks through draw_block. On a Generator over step t's Philox key it
    is the oracle for SharedRandomness.at(t).
    """
    edge_u = rng.random(m)
    spins = (2 * rng.integers(0, 2, size=n) - 1).astype(np.int8)
    vert_u = rng.random(n)
    sel = float(rng.random())
    return StepDraws(edge_u, spins, vert_u, sel)


def draw_block(rng: np.random.Generator, n: int, m: int, T: int):
    """Yield T steps' fields, the t-th equal to the t-th of T successive
    sequential_draws(rng, n, m) calls (see the module docstring).

    rng runs on a 64-bit numpy bit generator (PCG64, as default_rng gives,
    or Philox). Steps are read in blocks of at most _BLOCK_WORDS words, or
    of two steps where one step needs more than half of them (a read of one
    step costs more than a sequential_draws call), and the yielded arrays
    are views of the block. After a block is read, rng's state is the one
    sequential calls reach at its end, so rng must not be used while steps
    of a block are still being consumed; once the loop ends, its state
    equals that of the T sequential calls.
    """
    bg = rng.bit_generator
    chunk = max(2, _BLOCK_WORDS // (m + n + 1 + (n + 1) // 2))
    for start in range(0, T, chunk):
        state = bg.state
        spare = state["has_uint32"]
        size, edge_at, vert_at, smap, end = _block_map(n, m, min(chunk, T - start), spare)
        words = bg.random_raw(size)
        halves = np.empty(2 * size + 1, dtype=np.uint32)
        halves[0] = state["uinteger"]
        halves[1:] = words.astype("<u8", copy=False).view("<u4")
        spins = _SPIN.take(halves.take(smap) >> _SPIN_BIT)
        if end != (0 if spare else -1):  # the buffered half changed
            state = bg.state
            state["has_uint32"] = int(end >= 0)
            if end >= 0:
                state["uinteger"] = int(halves[end])
            bg.state = state
        words >>= _SHIFT
        u = words * _TO_UNIT
        selectors = u.take(vert_at + n).tolist()
        for a, s, b, x in zip(edge_at.tolist(), spins, vert_at.tolist(), selectors):
            yield StepDraws(u[a:a + m], s, u[b:b + n], x)


@lru_cache(maxsize=16)
def _block_map(n: int, m: int, T: int, spare: int):
    """(words, edge_at, vert_at, smap, end) for T sequential steps that start
    with `spare` (0 or 1) halves buffered.

    Step t's edge uniforms are words edge_at[t] onwards, its vertex uniforms
    and then its selector are words vert_at[t] onwards, and smap[t] indexes
    its spins in the halves array, whose entry 0 is the half buffered before
    the block and entries 1 + 2i, 2 + 2i the low and high halves of word i.
    end is the halves index of the half buffered after the block, or -1.
    """
    edge_at = np.empty(T, dtype=np.intp)
    vert_at = np.empty(T, dtype=np.intp)
    smap = np.empty((T, n), dtype=np.intp)
    at = 0 if spare else -1
    pos = 0
    for t in range(T):
        edge_at[t] = pos
        pos += m
        use = min(n, int(at >= 0))  # the buffered half is the first spin
        fresh = n - use
        smap[t, :use] = at
        smap[t, use:] = np.arange(1 + 2 * pos, 1 + 2 * pos + fresh)
        pos += (fresh + 1) // 2
        if n:
            at = 2 * pos if fresh % 2 else -1
        vert_at[t] = pos
        pos += n + 1
    for a in (edge_at, vert_at, smap):
        a.flags.writeable = False
    return pos, edge_at, vert_at, smap, at
