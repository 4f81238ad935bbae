"""Gibbs distribution of the ferromagnetic Ising model and its partial order.

Configurations assign +1/-1 to every vertex. Throughout, a configuration on
n vertices is bit-encoded as an integer code in [0, 2^n): bit v set means
sigma(v) = +1. This lets the exact engines index arrays directly.

All weights are accumulated in log-space; the partition function uses
log-sum-exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graph import Graph, distances

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
_LOG2 = math.log(2.0)  # numpy's NPY_LOGE2
ENUM_LIMIT = 20
UP_SET_N_LIMIT = 4  # 168 up-sets at n = 4; U' M U over the 7581 at n = 5 needs chunking


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


def gibbs_exact(G: Graph, beta: float) -> GibbsTable:
    """Enumerate mu(sigma) = exp(beta * agreements) / Z for every sigma."""
    if G.n > ENUM_LIMIT:
        raise ValueError(f"n={G.n} exceeds enumeration limit {ENUM_LIMIT}")
    codes = np.arange(1 << G.n, dtype=np.int64)
    logw = beta * _agreement_sum(G, codes).astype(np.float64)
    top = logw.max()
    k = np.count_nonzero(logw == top)
    r = np.exp(logw - top)
    r[logw == top] = 0.0  # zeroed, not dropped: bit for bit scipy's logsumexp
    logZ = float(np.log1p(r.sum() / k) + np.log(k) + top)
    return GibbsTable(probs=np.exp(logw - logZ), logZ=logZ)


class FeasibilityError(ValueError):
    """Sphere or free region too large for exact computation."""


def clamped_marginals(G: Graph, beta: float, v: int, clamp: dict):
    """P(sigma(v)=+) under mu with the vertices of `clamp` fixed.

    `clamp` maps each fixed vertex to its spin: a +/-1 number (one
    clamping), or an array of +/-1 values, one entry per clamping. The
    arrays need only broadcast together: equal-length arrays give one
    marginal per index, and arrays of length 2 on distinct axes give the
    marginal for every combination. The result has the broadcast shape of
    the clampings next to v's free component (a scalar when those are all
    numbers, or there are none). Only that component, v's component in G
    minus the clamped set, matters: the rest factors out of the
    conditional. Tree components use exact message passing, whose
    arithmetic never mutates its operands, so one clamping runs on plain
    floats and each message carries only the axes of the clampings below
    it; other components are enumerated (at most 2^ENUM_LIMIT states).
    """
    dist = distances(G, v, clamp)

    def field(u):
        return beta * sum((clamp[w] for w in G.adjacency[u] if w in clamp), 0)

    ends = sum(w in dist for u in dist for w in G.adjacency[u])
    if ends == 2 * (len(dist) - 1):  # a tree: k vertices, k-1 edges
        return _tree_marginals(G, beta, v, dist, field)
    return _enum_marginals(G, beta, v, sorted(dist), field)


def _tree_marginals(G, beta, v, dist, field):
    """Bottom-up message passing rooted at v, in log space, over `dist`'s
    breadth-first order: u's children are its neighbours one step further out."""
    logm = {}  # u -> normalized (log m(+), log m(-)) toward the parent
    for u, d in reversed(dist.items()):
        h = field(u)
        children = [w for w in G.adjacency[u] if dist.get(w) == d + 1]
        lp = h + sum(logm[w][0] for w in children)
        lm = -h + sum(logm[w][1] for w in children)
        if u == v:
            return 1.0 / (1.0 + np.exp(lm - lp))
        # marginalize u's spin for each parent spin
        to_plus = _logaddexp(beta + lp, -beta + lm)
        to_minus = _logaddexp(-beta + lp, beta + lm)
        z = _logaddexp(to_plus, to_minus)
        logm[u] = (to_plus - z, to_minus - z)
    raise AssertionError("unreachable")


def _logaddexp(x, y):
    """np.logaddexp(x, y); on two floats, numpy's scalar loop (npy_logaddexp)
    transcribed into the same libm calls, which gives the same bits at a
    fraction of a ufunc call's cost."""
    if not (isinstance(x, float) and isinstance(y, float)):
        return np.logaddexp(x, y)
    if x == y:  # also infinities of one sign
        return x + _LOG2
    d = x - y
    if d > 0:
        return x + math.log1p(math.exp(-d))
    if d <= 0:
        return y + math.log1p(math.exp(d))
    return d  # NaN


def _enum_marginals(G, beta, v, comp, field):
    """Enumeration over the free component, factored through its boundary.

    Fields that are the same for every clamping are folded into the
    interior energy, whose weight is then summed once per pattern of v and
    the boundary B (the vertices whose field varies). Each clamping costs
    2^(|B|+1) terms, chunked over clampings; the normalisation is the
    maximum total energy per clamping, as in a direct enumeration.
    """
    k = len(comp)
    if k > ENUM_LIMIT:
        raise FeasibilityError(f"free region of size {k} exceeds limit {ENUM_LIMIT}")
    h = {u: field(u) for u in comp}
    bnd = [u for u in comp if u != v and np.ndim(h[u]) > 0]
    order = [u for u in comp if u != v and u not in bnd] + [v] + bnd
    top, W = _pattern_weights(G, beta, order, h, len(bnd) + 1)
    H = [h[v] if np.ndim(h[v]) else 0.0] + [h[u] for u in bnd]
    shape = np.broadcast_shapes(*map(np.shape, H))
    H = [np.broadcast_to(hb, shape).reshape(-1) for hb in H]
    plus = W * (np.arange(len(W)) & 1)  # bit 0 of a pattern is v's spin
    n_tau = int(np.prod(shape))
    out = np.empty(n_tau)
    chunk = max(1, (1 << 21) // len(W))
    for start in range(0, n_tau, chunk):
        sl = slice(start, min(start + chunk, n_tau))
        E = np.empty((len(W), sl.stop - start))
        E[0] = 0.0
        for b, hb in enumerate(H):  # pattern energies, one bit at a time
            E[1 << b:2 << b] = E[:1 << b] + hb[sl]
            E[:1 << b] -= hb[sl]
        E += top[:, None]
        E -= E.max(axis=0)
        np.exp(E, out=E)
        out[sl] = (plus @ E) / (W @ E)
    return out.reshape(shape)


def _pattern_weights(G, beta, order, h, n_kept):
    """Interior weight of each pattern of the last n_kept vertices of `order`.

    Pattern q sets order[-n_kept + j] to + iff bit j of q is set. Every
    other vertex is summed out, with the edges inside `order` and the
    constant fields of h (fields that are numbers) in the energy. Returns
    (top, W): the pattern's largest log-weight and its weight relative to it.
    """
    k = len(order)
    pos = {u: i for i, u in enumerate(order)}
    spins = np.empty((k, 1 << k), dtype=np.int8)  # row i: bit i of the code
    for i in range(k):
        spins[i] = np.tile(np.repeat(np.int8([-1, 1]), 1 << i), 1 << (k - 1 - i))
    agree = sum((spins[i] * spins[pos[w]] for i, u in enumerate(order)
                 for w in G.adjacency[u] if pos.get(w, -1) > i),
                np.zeros(1 << k, dtype=np.int16))
    e = beta * agree
    for i, u in enumerate(order):
        if np.ndim(h[u]) == 0 and h[u] != 0:
            e += h[u] * spins[i]
    e = e.reshape(1 << n_kept, -1)
    top = e.max(axis=1)
    e -= top[:, None]
    return top, np.exp(e, out=e).sum(axis=1)


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


def enumerate_up_sets(n: int) -> list[frozenset]:
    """All upward-closed subsets of the configuration lattice on n spins.

    Returned as frozensets of encoded configurations, including the empty
    set and the full space, in increasing order of their bitmasks over
    codes. Counts follow the Dedekind numbers: n <= UP_SET_N_LIMIT.
    """
    if n > UP_SET_N_LIMIT:
        raise ValueError(f"up-set enumeration limited to n <= {UP_SET_N_LIMIT}")
    return _up_sets(n)


def _up_sets(n: int) -> list[frozenset]:
    """An up-set of the n-cube is U0 + (U1 with bit n-1 set), for up-sets
    U0 <= U1 of the (n-1)-cube: x in U0 forces x with bit n-1 into U1."""
    if n == 0:
        return [frozenset(), frozenset({0})]
    half, top = _up_sets(n - 1), 1 << (n - 1)
    return [U0 | {x | top for x in U1} for U1 in half for U0 in half if U0 <= U1]


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
