"""Counter-based shared randomness for grand couplings.

Every coupled copy of a chain must see identical per-step random fields:
one uniform per edge, one uniform spin and one uniform threshold per
vertex, plus the block/vertex selector. Draws are derived from a Philox
counter-based generator keyed on (seed, t), which gives O(1) random access
to any step and platform-independent streams.

Consumption order inside a step is fixed: edge uniforms in edge-index
order, then vertex spins, then vertex thresholds, then the selector draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["StepDraws", "SharedRandomness"]

_STREAM_TAG = 0x1517C0DE


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
    """Per-step random fields for a graph, addressable by step counter."""

    def __init__(self, seed: int, n: int, m: int):
        self.seed = int(seed)
        self.n = n
        self.m = m

    def at(self, t: int) -> StepDraws:
        key = np.array(
            [(_STREAM_TAG << 32) ^ np.uint64(self.seed) & np.uint64((1 << 64) - 1),
             np.uint64(t)],
            dtype=np.uint64,
        )
        return _step_fields(np.random.Generator(np.random.Philox(key=key)),
                            self.n, self.m)


def sequential_draws(rng: np.random.Generator, n: int, m: int) -> StepDraws:
    """One step's fields from an ordinary sequential generator.

    Used by single-chain simulation, where counter-based access is not
    needed; the consumption order matches SharedRandomness.at exactly.
    """
    return _step_fields(rng, n, m)


def _step_fields(gen: np.random.Generator, n: int, m: int) -> StepDraws:
    """Read one step's fields from gen in the fixed consumption order."""
    edge_u = gen.random(m)
    spins = (2 * gen.integers(0, 2, size=n) - 1).astype(np.int8)
    vert_u = gen.random(n)
    sel = float(gen.random())
    return StepDraws(edge_u, spins, vert_u, sel)
