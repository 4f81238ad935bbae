"""Single-step kernels: Glauber, block, Swendsen-Wang, isolated-vertex,
monotone-SW, and their censored variants.

All step functions are pure given (configuration, StepDraws). Randomness
consumption is fixed (see randomness module): this makes trajectories
bit-reproducible and lets the same code drive grand couplings.

Component spin draws use the component's smallest vertex's stream (its
root, as `components` returns it) so that cluster steps are independent of
component discovery order. The percolation tie r(e) = p is resolved as "keep".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graph import Graph
from .ising import ENUM_LIMIT, conditional_marginal
from .randomness import StepDraws, draw_block

__all__ = [
    "DynamicsSpec",
    "agreeing_edges",
    "percolate",
    "components",
    "sw_step",
    "iv_step",
    "msw_step_alt",
    "glauber_step",
    "block_step",
    "step",
    "run_chain",
]

KINDS = ("glauber", "block", "sw", "iv", "msw")
# Exact-enumeration guards; below both, `components` reads a table of <= 1.25 MiB.
N_DIRECT_LIMIT = 10
M_CLUSTER_LIMIT = 14
_EDGE_BITS = 1 << np.arange(M_CLUSTER_LIMIT)  # F @ _EDGE_BITS[:m]: F's row in that table


@dataclass(frozen=True)
class DynamicsSpec:
    """Chain selector: kind, optional blocks, optional censor set A.

    censor=None means the uncensored chain (A = V). SW and Glauber reject a
    censor set: SW has no censored variant, and censored Glauber is block
    dynamics with singleton blocks.
    """

    kind: str
    blocks: tuple[frozenset, ...] | None = None
    censor: frozenset | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown dynamics kind {self.kind!r}")
        for v in [v for b in self.blocks or () for v in b] + [*(self.censor or ())]:
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"block and censor entries are vertices, not {v!r}")
        if self.kind == "block":
            if not self.blocks:
                raise ValueError("block dynamics needs a nonempty block list")
        elif self.blocks is not None:
            raise ValueError(f"{self.kind} dynamics takes no blocks")
        if self.kind == "sw" and self.censor is not None:
            raise ValueError("no censoring is defined for SW dynamics")
        if self.kind == "glauber" and self.censor is not None:
            raise ValueError("glauber takes no censor set; write censored Glauber "
                             "as block dynamics with singleton blocks")

    def validate_for(self, G: Graph):
        if self.blocks is not None:
            union = set().union(*self.blocks)
            if union != set(range(G.n)):
                raise ValueError("blocks must cover every vertex")
            for b in self.blocks:
                if len(b) > ENUM_LIMIT:
                    raise ValueError("block too large for exact conditional sampling")
        if self.censor is not None and not all(0 <= v < G.n for v in self.censor):
            raise ValueError("censor set out of range")

    def is_monotone(self) -> bool:
        return self.kind in ("glauber", "block", "iv", "msw")

    @classmethod
    def from_json(cls, text: str) -> "DynamicsSpec":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("a dynamics spec is a JSON object")
        unknown = sorted(set(obj) - {"kind", "blocks", "censor"})
        if unknown:
            raise ValueError(f"unknown dynamics spec key {unknown[0]!r}")
        blocks = obj.get("blocks")
        censor = obj.get("censor")
        return cls(
            kind=obj["kind"],
            blocks=tuple(frozenset(b) for b in blocks) if blocks is not None else None,
            censor=frozenset(censor) if censor is not None else None,
        )


def agreeing_edges(G: Graph, spins) -> np.ndarray:
    """Boolean mask over edge indices of the monochromatic edges E(sigma)."""
    spins = np.asarray(spins)
    u, w = G.endpoint_arrays()
    return spins[u] == spins[w]


def percolate(G: Graph, spins, beta: float, edge_uniforms) -> np.ndarray:
    """Keep each agreeing edge iff r(e) <= p, p = 1 - exp(-2 beta).

    At beta = 0 the kept set is always empty (p = 0; the inclusive tie
    rule applies only to positive p, so r(e) = 0 does not sneak an edge in).
    """
    p = 1.0 - np.exp(-2.0 * beta)
    if p <= 0.0:
        return np.zeros(G.m, dtype=bool)
    return agreeing_edges(G, spins) & (np.asarray(edge_uniforms) <= p)


def components(G: Graph, F_mask) -> np.ndarray:
    """Connected components of the subgraph (V, F).

    Returns root, an int64 array: root[v] is the smallest vertex of v's
    component; F_mask of shape (K, m) gives one row of roots per row. Below
    both exact limits rows are read from a cached table of all 2^m edge
    subsets; other graphs are labelled directly.
    """
    F = np.asarray(F_mask, dtype=bool)
    if G.n <= N_DIRECT_LIMIT and G.m <= M_CLUSTER_LIMIT:
        return _subset_roots(G).take(F @ _EDGE_BITS[:G.m], axis=0)
    return _label(G, F)


@lru_cache(maxsize=64)
def _subset_roots(G: Graph) -> np.ndarray:
    """Read-only roots[F, v] for every edge subset F (bit i keeps edge i)."""
    roots = _label(G, np.arange(1 << G.m)[:, None] & _EDGE_BITS[:G.m])
    roots.flags.writeable = False
    return roots


def _label(G: Graph, F: np.ndarray) -> np.ndarray:
    """Roots of each row of the edge mask F, row k on vertices k*n..k*n+n-1.

    Hook and jump (Shiloach & Vishkin 1982): each edge hooks the larger of
    its two roots under the smaller (the smallest offer wins), then pointers
    are doubled until stable; this repeats until both ends of every edge share
    a root. Roots only decrease within their component, so each ends at its minimum.
    """
    rows = np.atleast_2d(F)
    k, i = np.nonzero(rows)
    u, w = G.endpoint_arrays()
    a, b = u[i] + G.n * k, w[i] + G.n * k
    root = np.arange(G.n * len(rows), dtype=np.int64)
    while a.size:
        ra, rb = root[a], root[b]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(jumped := root[root], root):
            root = jumped
        live = root[a] != root[b]
        a, b = a[live], b[live]
    return (root % G.n).reshape(F.shape[:-1] + (G.n,))


def _in_A(n: int, A: frozenset | None) -> np.ndarray:
    """Boolean mask of the censor set A (every vertex when A is None)."""
    mask = np.full(n, A is None)
    if A:
        mask[list(A)] = True
    return mask


def sw_step(G: Graph, beta: float, spins, draws: StepDraws) -> np.ndarray:
    """Swendsen-Wang: percolate, then recolor every component uniformly."""
    F = percolate(G, spins, beta, draws.edge_uniforms)
    return draws.vertex_spins[components(G, F)]


def iv_step(G: Graph, beta: float, spins, draws: StepDraws,
            A: frozenset | None = None) -> np.ndarray:
    """Isolated-vertex step: resample only size-1 components inside A."""
    spins = np.asarray(spins, dtype=np.int8)
    F = percolate(G, spins, beta, draws.edge_uniforms)
    u, w = G.endpoint_arrays()
    isolated = _in_A(G.n, A)
    isolated[u[F]] = False
    isolated[w[F]] = False
    out = spins.copy()
    out[isolated] = draws.vertex_spins[isolated]
    return out


def msw_step_alt(G: Graph, beta: float, spins, draws: StepDraws,
                 A: frozenset | None = None) -> np.ndarray:
    """Monotone SW via the per-vertex form: draw a spin for every vertex and
    recolor a component iff it lies inside A and all its draws agree.

    The agreement probability of a size-k component is 2^-(k-1), as in the
    accept-draw form of monotone SW; this is the form whose shared
    randomness yields a monotone grand coupling.
    """
    spins = np.asarray(spins, dtype=np.int8)
    F = percolate(G, spins, beta, draws.edge_uniforms)
    root = components(G, F)
    lead = draws.vertex_spins[root]
    # a component keeps its spins if any vertex disagrees or lies outside A
    held = np.zeros(G.n, dtype=bool)
    held[root[(draws.vertex_spins != lead) | ~_in_A(G.n, A)]] = True
    return np.where(held[root], spins, lead)


def glauber_step(G: Graph, beta: float, spins, draws: StepDraws) -> np.ndarray:
    """Heat-bath single-site update at a uniformly chosen vertex.

    The threshold form (set + iff u_t(v) <= conditional plus-probability)
    is the standard monotone grand coupling for Glauber.
    """
    spins = np.asarray(spins, dtype=np.int8)
    v = draws.vertex_index(G.n)
    S = int(sum(spins[u] for u in G.adjacency[v]))
    p_plus = 1.0 / (1.0 + np.exp(-2.0 * beta * S))
    out = spins.copy()
    out[v] = 1 if draws.vertex_uniforms[v] <= p_plus else -1
    return out


def block_step(G: Graph, beta: float, spins, blocks, draws: StepDraws,
               A: frozenset | None = None) -> np.ndarray:
    """Heat-bath block update: resample A int B_k from the exact conditional.

    The block vertices are updated sequentially in increasing index order,
    each from its exact conditional given the already-updated prefix and
    the free set's outer boundary (remaining free vertices are
    marginalized). The threshold form makes this the monotone grand
    coupling from the proofs.
    """
    spins = np.asarray(spins, dtype=np.int8)
    k = draws.block_index(len(blocks))
    free = sorted(blocks[k] if A is None else (blocks[k] & A))
    out = spins.copy()
    if not free:
        return out
    free_set = set(free)
    # the free set's outer boundary (Markov), then each free vertex once updated
    boundary = {w: int(spins[w]) for u in free for w in G.adjacency[u]
                if w not in free_set}
    for v in free:
        p_plus = conditional_marginal(G, beta, v, boundary)
        out[v] = boundary[v] = 1 if draws.vertex_uniforms[v] <= p_plus else -1
    return out


def step(G: Graph, beta: float, spec: DynamicsSpec, spins,
         draws: StepDraws) -> np.ndarray:
    """One step of the chain named by spec (validated by the caller).

    The kernels are looked up as module globals at call time, so a
    rebinding of a kernel (e.g. an instrumented one) is always used.
    """
    kind, A = spec.kind, spec.censor
    if kind == "sw":
        return sw_step(G, beta, spins, draws)
    if kind == "iv":
        return iv_step(G, beta, spins, draws, A)
    if kind == "msw":
        return msw_step_alt(G, beta, spins, draws, A)
    if kind == "glauber":
        return glauber_step(G, beta, spins, draws)
    return block_step(G, beta, spins, spec.blocks, draws, A)


def run_chain(G: Graph, beta: float, spec: DynamicsSpec, steps: int, seed: int,
              start=None, collect_every: int = 0, collect_after: int = 0):
    """Advance a single chain; optionally collect states.

    Returns (final_state, collected) where collected holds a copy of the
    state every `collect_every` steps (after the step) once at least
    `collect_after` steps have run, or [] when collect_every is 0. Step t
    reads the t-th sequential_draws of the chain's generator, through
    draw_block. start, when given, is n spins of +1 or -1.
    """
    spec.validate_for(G)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, not {steps}")
    if start is None:
        spins = np.full(G.n, 1, dtype=np.int8)
    else:
        spins = np.array(start)
        if spins.shape != (G.n,) or not np.isin(spins, (-1, 1)).all():
            raise ValueError(f"start must be {G.n} spins, each +1 or -1")
        spins = spins.astype(np.int8)
    rng = np.random.default_rng(np.random.SeedSequence((0xD1CE, seed)))
    collected = []
    for t, draws in enumerate(draw_block(rng, G.n, G.m, steps)):
        spins = step(G, beta, spec, spins, draws)
        if collect_every and t + 1 > collect_after \
                and (t + 1 - collect_after) % collect_every == 0:
            collected.append(spins.copy())
    return spins, collected
