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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["StepDraws", "SharedRandomness"]

_STREAM_TAG = 0x1517C0DE
_TO_UNIT = 2.0 ** -53
_SHIFT = np.uint64(11)
_SPIN_BIT = np.uint32(31)
_SPIN = np.array([-1, 1], dtype=np.int8)


@dataclass(frozen=True)
class StepDraws:
    """The random fields driving one step, shared across coupled copies."""

    edge_uniforms: np.ndarray   # r_t(e), one per edge, in [0,1)
    vertex_spins: np.ndarray    # s_t(v), +/-1 per vertex
    vertex_uniforms: np.ndarray  # u_t(v), one per vertex, in [0,1)
    selector: float             # uniform in [0,1) for block/vertex choice

    def block_index(self, r: int) -> int:
        return min(int(self.selector * r), r - 1)

    def vertex_index(self, n: int) -> int:
        return min(int(self.selector * n), n - 1)


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


def sequential_draws(rng: np.random.Generator, n: int, m: int) -> StepDraws:
    """One step's fields from an ordinary sequential generator.

    Used by single-chain simulation, where counter-based access is not
    needed; on a Generator over step t's Philox key it is the oracle for
    SharedRandomness.at(t).
    """
    edge_u = rng.random(m)
    spins = (2 * rng.integers(0, 2, size=n) - 1).astype(np.int8)
    vert_u = rng.random(n)
    sel = float(rng.random())
    return StepDraws(edge_u, spins, vert_u, sel)
