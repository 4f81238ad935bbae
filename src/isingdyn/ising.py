"""Gibbs distribution of the ferromagnetic Ising model and its partial order.

Configurations assign +1/-1 to every vertex. Throughout, a configuration on
n vertices is bit-encoded as an integer code in [0, 2^n): bit v set means
sigma(v) = +1. This lets the exact engines index arrays directly.

All weights are accumulated in log-space; the partition function uses
log-sum-exp.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import logsumexp

from .graph import Graph

__all__ = [
    "beta_c",
    "weight",
    "GibbsTable",
    "gibbs_exact",
    "conditional_marginal",
    "clamped_marginals",
    "FeasibilityError",
    "leq",
    "encode_spins",
    "decode_spins",
    "enumerate_up_sets",
    "stochastically_dominates",
]

UPSET_TOL = 1e-10
ENUM_LIMIT = 20


def beta_c(d: int) -> float:
    """Tree uniqueness threshold: the solution of (d-1) tanh(beta) = 1."""
    if d <= 2:
        raise ValueError(f"beta_c undefined for d={d}: tanh(beta)=1 forces beta=inf")
    return float(np.arctanh(1.0 / (d - 1)))


def encode_spins(spins) -> int:
    """Bit-encode a +/-1 spin vector (bit v set iff spins[v] = +1)."""
    code = 0
    for v, s in enumerate(spins):
        if s > 0:
            code |= 1 << v
    return code


def decode_spins(code: int, n: int) -> np.ndarray:
    """Inverse of encode_spins; returns an int8 array of +/-1."""
    bits = (code >> np.arange(n)) & 1
    return (2 * bits - 1).astype(np.int8)


def _agreement_sum(G: Graph, codes: np.ndarray) -> np.ndarray:
    """Sum over edges of sigma(u)*sigma(w) for each encoded configuration."""
    total = np.zeros(len(codes), dtype=np.int64)
    for u, w in G.edges:
        disagree = ((codes >> u) ^ (codes >> w)) & 1
        total += 1 - 2 * disagree
    return total


def weight(G: Graph, beta: float, spins) -> float:
    """Unnormalized Gibbs weight exp(beta * sum_edges sigma(u) sigma(w))."""
    code = np.array([encode_spins(spins)], dtype=np.int64)
    return float(np.exp(beta * _agreement_sum(G, code)[0]))


@dataclass(frozen=True)
class GibbsTable:
    """Exact Gibbs distribution over all 2^n encoded configurations."""

    probs: np.ndarray
    logZ: float

    def __post_init__(self):
        s = float(self.probs.sum())
        if abs(s - 1.0) > 1e-12:
            raise ValueError(f"Gibbs table sums to {s}, not 1")


def gibbs_exact(G: Graph, beta: float, limit: int = ENUM_LIMIT) -> GibbsTable:
    """Enumerate mu(sigma) = exp(beta * agreements) / Z for every sigma."""
    if G.n > limit:
        raise ValueError(f"n={G.n} exceeds enumeration limit {limit}")
    codes = np.arange(1 << G.n, dtype=np.int64)
    logw = beta * _agreement_sum(G, codes).astype(np.float64)
    logZ = float(logsumexp(logw))
    return GibbsTable(probs=np.exp(logw - logZ), logZ=logZ)


class FeasibilityError(ValueError):
    """Sphere or free region too large for exact computation."""


def _component_of(G: Graph, v: int, blocked) -> list[int]:
    """Connected component of v in G with `blocked` vertices removed."""
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for w in G.adjacency[u]:
            if w not in seen and w not in blocked:
                seen.add(w)
                stack.append(w)
    return sorted(seen)


def clamped_marginals(G: Graph, beta: float, v: int, clamp: dict):
    """P(sigma(v)=+) under mu with the vertices of `clamp` fixed.

    `clamp` maps each fixed vertex to its spin: either a +/-1 number (one
    clamping; a float is returned) or an array of +/-1 values, all of one
    length, one entry per clamping (an array of marginals is returned).
    Only the component of v in G minus the clamped set matters: the rest
    factors out of the conditional. Tree components use exact message
    passing, whose arithmetic never mutates its operands, so one clamping
    runs on plain floats; other components are enumerated (at most
    2^ENUM_LIMIT states).
    """
    comp = _component_of(G, v, clamp)
    comp_set = set(comp)
    zero = 0 * next(iter(clamp.values()), 0)  # a zero of the clamping shape

    def field(u):
        return beta * sum((clamp[w] for w in G.adjacency[u] if w in clamp), zero)

    twice_edges = sum(w in comp_set for u in comp for w in G.adjacency[u])
    if twice_edges == 2 * (len(comp) - 1):
        return _tree_marginals(G, beta, v, comp_set, field)
    return _enum_marginals(G, beta, v, comp, field, np.shape(zero))


def _tree_marginals(G, beta, v, comp_set, field):
    """Bottom-up message passing rooted at v, in log space."""
    parent = {v: None}
    order = [v]
    stack = [v]
    while stack:
        u = stack.pop()
        for w in G.adjacency[u]:
            if w in comp_set and w not in parent:
                parent[w] = u
                order.append(w)
                stack.append(w)
    children: dict[int, list[int]] = {u: [] for u in order}
    for w in order[1:]:
        children[parent[w]].append(w)

    logm = {}  # u -> normalized (log m(+), log m(-)) toward the parent
    for u in reversed(order):
        h = field(u)
        lp = h + sum(logm[w][0] for w in children[u])
        lm = -h + sum(logm[w][1] for w in children[u])
        if u == v:
            return 1.0 / (1.0 + np.exp(lm - lp))
        # marginalize u's spin for each parent spin
        to_plus = np.logaddexp(beta + lp, -beta + lm)
        to_minus = np.logaddexp(-beta + lp, beta + lm)
        z = np.logaddexp(to_plus, to_minus)
        logm[u] = (to_plus - z, to_minus - z)
    raise AssertionError("unreachable")


def _enum_marginals(G, beta, v, comp, field, shape):
    """Enumeration over the free component, chunked over clampings."""
    k = len(comp)
    if k > ENUM_LIMIT:
        raise FeasibilityError(f"free region of size {k} exceeds limit {ENUM_LIMIT}")
    pos = {u: i for i, u in enumerate(comp)}
    inner = np.arange(1 << k, dtype=np.int64)
    spins = np.empty((k, 1 << k), dtype=np.int8)  # row i: spin of comp[i]
    for i in range(k):
        spins[i] = 2 * ((inner >> i) & 1) - 1
    e_int = np.zeros(1 << k)
    for u in comp:
        for w in G.adjacency[u]:
            if w in pos and w > u:
                e_int += beta * (spins[pos[u]] * spins[pos[w]])
    H = np.array([field(u) for u in comp], dtype=np.float64).reshape(k, -1)
    n_tau = H.shape[1]
    out = np.empty(n_tau)
    plus = spins[pos[v]] > 0
    chunk = max(1, (1 << 22) // (1 << k))
    for start in range(0, n_tau, chunk):
        sl = slice(start, min(start + chunk, n_tau))
        loge = np.repeat(e_int[:, None], sl.stop - start, axis=1)
        for i in range(k):
            loge += spins[i][:, None] * H[i, sl]
        loge -= loge.max(axis=0, keepdims=True)
        w = np.exp(loge)
        out[sl] = w[plus].sum(axis=0) / w.sum(axis=0)
    return out.reshape(shape)


def conditional_marginal(G: Graph, beta: float, v: int, boundary: dict) -> float:
    """Probability that sigma(v) = + under mu conditioned on the boundary.

    `boundary` maps vertices to +/-1 spins; v must not be in it. Every
    unfixed vertex is marginalized exactly (see clamped_marginals).
    """
    if v in boundary:
        raise ValueError(f"vertex {v} is fixed by the boundary")
    return float(clamped_marginals(G, beta, v, boundary))


def leq(sigma, tau) -> bool:
    """Coordinatewise partial order: sigma <= tau."""
    a = np.asarray(sigma)
    b = np.asarray(tau)
    if a.shape != b.shape:
        raise ValueError("length mismatch")
    return bool(np.all(a <= b))


def code_leq(x: int, y: int) -> bool:
    """Encoded-configuration order: x <= y iff x's plus-set is inside y's."""
    return (x & ~y) == 0


def enumerate_up_sets(n: int) -> list[frozenset]:
    """All upward-closed subsets of the configuration lattice on n spins.

    Returned as frozensets of encoded configurations, including the empty
    set and the full space. Counts follow the Dedekind numbers, hence the
    n <= 4 bound.
    """
    if n > 4:
        raise ValueError("up-set enumeration limited to n <= 4")
    size = 1 << n
    codes = range(size)
    # up_mask[x]: bitmask over codes of everything >= x
    up_mask = [sum(1 << y for y in codes if code_leq(x, y)) for x in codes]
    out = []
    for mask in range(1 << size):
        required = 0
        for x in codes:
            if (mask >> x) & 1:
                required |= up_mask[x]
        if required & ~mask == 0:
            out.append(frozenset(x for x in codes if (mask >> x) & 1))
    return out


@lru_cache(maxsize=None)
def _up_set_indicators(n: int) -> np.ndarray:
    """Read-only 0/1 matrix U[x, j] = 1 iff x lies in enumerate_up_sets(n)[j]."""
    up_sets = enumerate_up_sets(n)
    U = np.zeros((1 << n, len(up_sets)))
    for j, S in enumerate(up_sets):
        U[list(S), j] = 1.0
    U.flags.writeable = False
    return U


def stochastically_dominates(nu1, nu2, n: int, tol: float = UPSET_TOL) -> bool:
    """True iff nu1 gives every up-set at least as much mass as nu2.

    Both arguments are length-2^n probability vectors indexed by encoded
    configurations. Equivalent to the increasing-function definition since
    up-set indicators generate the increasing cone.
    """
    nu1 = np.asarray(nu1, dtype=np.float64)
    nu2 = np.asarray(nu2, dtype=np.float64)
    if abs(nu1.sum() - 1.0) > tol or abs(nu2.sum() - 1.0) > tol:
        raise ValueError("inputs must be normalized distributions")
    U = _up_set_indicators(n)
    return bool(np.all(nu1 @ U >= nu2 @ U - tol))
