"""Exact transition matrices, spectral/mixing computations, and the joint-
and marked-space operator decompositions with the censoring order.

Everything here enumerates the full configuration space, so sizes are
capped: n <= 10 vertices for direct kernels, |E| <= 14 also for the SW
and MSW kernels (which read all edge subsets), and MAX_OPERATOR_STATES
states for the materialized joint- and marked-space operators.

The SW, IV and MSW kernels come from the Edwards-Sokal joint measure
(percolate E(sigma) with p = 1 - e^(-2 beta), then recolour), each by a
row formula (see _cluster_kernel): SW and MSW read one subset-sum
transform over the edge subsets, with a weight per cluster, and IV a
superset transform over vertex sets. They never go through T/Q/S/K, so
verify_decompositions compares two constructions.

Kernels and mu commute with the global flip (no field) and, on a graph,
censor set and block family that the rotation v -> v + 1 (mod n) maps to
themselves, with that rotation. Every kernel is built on the rows at the
orbit representatives of Gamma = Z_k x Z_2 (k = n on such a graph with at
least ROTATION_MIN_STATES states, else k = 1) and scattered, so it is
exactly invariant. spectral_report and tv_mixing_time find the group
under which their input is exactly invariant and work on its character
blocks, R x R with R about N / 2k (Diaconis 1988; Boyd, Diaconis, Parrilo
and Xiao 2009): 56 x 56 at n = 10 under rotation x flip.

Configurations are the bit-encoded integers of the ising module.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .dynamics import (
    M_CLUSTER_LIMIT,
    N_DIRECT_LIMIT,
    DynamicsSpec,
    _subset_roots,
    components,
)
from .graph import Graph
from .ising import (
    UP_SET_N_LIMIT,
    gibbs_exact,
    stochastically_dominates,
    _up_set_indicators,
)

__all__ = [
    "TransitionMatrix",
    "transition_matrix",
    "check_reversibility",
    "check_stationarity",
    "SpectralReport",
    "spectral_report",
    "tv_mixing_time",
    "dirichlet_form",
    "JointSpace",
    "MarkedSpace",
    "verify_decompositions",
    "check_censoring_order",
    "censored_dominance",
]

MAX_OPERATOR_STATES = 1 << 14
REV_TOL = 1e-9
ROW_BLOCK = 128
ROTATION_MIN_STATES = 1 << 8


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic kernel over the full configuration space, with mu."""

    P: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        rows = self.P.sum(axis=1)
        if not np.max(np.abs(rows - 1.0)) <= 1e-12:  # NaN rows fail too
            raise ValueError("rows do not sum to 1")


def _edge_masks(G: Graph):
    """E(sigma) as an edge-bitmask for every encoded configuration."""
    codes = np.arange(1 << G.n, dtype=np.int64)[:, None]
    u, w = G.endpoint_arrays()
    return ((((codes >> u) ^ (codes >> w)) & 1) == 0) @ (1 << np.arange(G.m, dtype=np.int64))


def _subgraph_components(G: Graph) -> np.ndarray:
    """cm[F, v]: vertex bitmask of v's component in (V, F), derived per call."""
    roots = components(G, (np.arange(1 << G.m)[:, None] >> np.arange(G.m)) & 1)
    return (roots[:, :, None] == roots[:, None, :]) @ (1 << np.arange(G.n))


def _vertex_mask(A: frozenset | None, n: int) -> int:
    if A is None:
        return (1 << n) - 1
    return sum(1 << v for v in A)


# ---------------------------------------------------------------------------
# The orbit fold: kernels that commute with rotation x flip


class _Orbits(NamedTuple):
    """Gamma = Z_k x Z_f acting on N states, and its characters.

    perms[i, e] is the state permutation rot^i flip^e, where rot moves the
    spin at vertex v to v + 1 (mod n) and flip maps x to N-1-x. The
    characters are chi_(s, j)(rot^i flip^e) = (-1)^(s e) w^(i j), w =
    e^(-2 pi i / k), ordered by (s, j) with j = 0 .. k // 2 (j and k - j
    are a conjugate pair: one block, counted twice).
    """

    perms: np.ndarray  # (k, f, N)
    reps: np.ndarray   # (R,) the least state of each orbit, ascending
    at: np.ndarray     # (k, f, R) the states g r_a
    stab: np.ndarray   # (R,) |Stab(r_a)|
    canon: list        # (a, c) per r_a with |Stab| > 1: c[y] = min over h in Stab of h y
    keep: np.ndarray   # (C, R) whether character c is trivial on Stab(r_a)
    mult: list         # (C,) 2 for a conjugate pair, else 1


def _rotate(x: np.ndarray, n: int) -> np.ndarray:
    """rot x: the spin at vertex v moves to v + 1 (mod n)."""
    return ((x << 1) | (x >> (n - 1))) & ((1 << n) - 1)


def _orbits(N: int, k: int, f: int) -> _Orbits:
    """Z_k x Z_f on N states (k > 1 only when N = 2^k, and then f = 2): its
    permutations, orbit representatives, stabiliser sizes and characters."""
    x = np.arange(N)
    if k == 1:  # the flip fixes no state: the reps are the states below N / f
        R = N // f
        perms = np.array([(x, x[::-1])[:f]])
        return _Orbits(perms, x[:R], perms[:, :, :R], np.ones(R, dtype=np.int64), [],
                       np.ones((f, R), dtype=bool), [1] * f)
    rot = [x]
    for _ in range(k - 1):
        rot.append(_rotate(rot[-1], k))
    perms = np.array([(r, N - 1 - r) for r in rot])
    reps = np.flatnonzero(perms.min(axis=(0, 1)) == x)
    at = perms[:, :, reps]
    fixed = at == reps
    stab = fixed.sum(axis=(0, 1))
    canon = [(a, perms[fixed[:, :, a]].min(axis=0)) for a in np.flatnonzero(stab > 1)]
    mult = [1 if 2 * j % k == 0 else 2 for j in range(k // 2 + 1)] * 2
    keep = _characters(fixed.astype(np.float64)).real > 0.5  # the sum is |Stab| or 0
    return _Orbits(perms, reps, at, stab, canon, keep, mult)


def _characters(T: np.ndarray) -> np.ndarray:
    """sum over g of chi(g) T[g] for every character, from T[i, e, ...]
    (only the trivial group lacks the flip, and it needs no transform)."""
    S = np.empty((2, T.shape[0], *T.shape[2:]))
    np.add(T[:, 0], T[:, 1], out=S[0])
    np.subtract(T[:, 0], T[:, 1], out=S[1])
    if S.shape[1] > 1:
        S = np.fft.rfft(S, axis=1)
    return S.reshape(-1, *S.shape[2:])


def _kernel_orbits(G: Graph, A: frozenset | None, blocks=()) -> _Orbits:
    """The group a kernel on G is built under: the rotation v -> v + 1
    (mod n) times the flip when the rotation maps G's edges, A and the block
    family to themselves and there are at least ROTATION_MIN_STATES states
    (below that the fold costs more than it saves), else the flip (no
    field). Only n = 0, one state, gets the trivial group."""
    N = 1 << G.n
    k = 1
    if N >= ROTATION_MIN_STATES:
        def rot(S):
            return frozenset((v + 1) % G.n for v in S)
        edges = set(map(frozenset, G.edges))
        if ({rot(e) for e in edges} == edges and (A is None or rot(A) == frozenset(A))
                and Counter(map(rot, blocks)) == Counter(map(frozenset, blocks))):
            k = G.n
    return _orbits(N, k, 2 if G.n else 1)


def _scatter(rows: np.ndarray, orb: _Orbits) -> np.ndarray:
    """The N x N kernel P(g r, g y) = P(r, y) from its rows at the
    representatives. A representative fixed by some h must have P(r, h y) =
    P(r, y) exactly, so each such column class is first read from one entry."""
    N = rows.shape[1]
    if len(orb.reps) == N:  # the trivial group
        return rows
    for a, c in orb.canon:
        rows[a] = rows[a, c]
    P = np.empty((N, N))
    for i, at in enumerate(orb.at):  # at[e] = rot^i flip^e r
        Ri = rows[:, orb.perms[-i, 0]] if i else rows  # P(rot^i r, z) = P(r, rot^-i z)
        P[at[0]] = Ri
        P[at[1]] = Ri[:, ::-1]  # the flip maps z to N-1-z
    return P


def _symmetry(P: np.ndarray, mu: np.ndarray) -> _Orbits:
    """The group whose action P and mu are exactly (np.array_equal)
    invariant under: rotation x flip on at least ROTATION_MIN_STATES = 2^n
    states, else the flip when N is even, else the trivial group."""
    N = P.shape[0]
    n, h = N.bit_length() - 1, N // 2
    # the bottom half of P = P[::-1, ::-1] states the top half's equations
    if N % 2 or not (np.array_equal(P[:h], P[::-1][:h, ::-1]) and np.array_equal(mu, mu[::-1])):
        return _orbits(N, 1, 1)
    # rot maps x = b h + r (b the top bit) to 2 r + b, so P(rot x, rot y) is
    # a transposed view of P split as (h, 2) x (h, 2): no gather, no copy.
    # The flip maps the rows with b = 1 to those with b = 0 and their
    # equations to theirs, so only the top half's are compared.
    if (N >= ROTATION_MIN_STATES and N == 1 << n
            and np.array_equal(mu.reshape(h, 2).T, mu.reshape(2, h))
            and np.array_equal(P.reshape(h, 2, h, 2)[:, 0].transpose(0, 2, 1),
                               P[:h].reshape(h, 2, h))):
        return _orbits(N, n, 2)
    return _orbits(N, 1, 2)


def _blocks(P: np.ndarray, orb: _Orbits) -> np.ndarray:
    """(C, R, R) character blocks B_c[a, b] = sum over g of chi_c(g)
    P(r_a, g r_b), read from the rows of P at the representatives, with the
    rows and columns outside keep[c] set to 0 (they are 0 up to rounding)."""
    if len(orb.reps) == len(P):  # the trivial group: P is its own block
        return P[None]
    T = np.take(P[orb.reps], orb.at, axis=1)  # T[a, i, e, b]
    B = _characters(np.moveaxis(T, 0, 2))
    if not orb.keep.all():
        B *= orb.keep[:, :, None] & orb.keep[:, None, :]
    return B


def _rep_rows(M: np.ndarray, orb: _Orbits) -> np.ndarray:
    """Rows of a kernel at the representatives from its blocks M (C, r, R),
    by the inverse transform over Gamma: row a lists P(r_a, g r_b) /
    |Stab(r_b)| over g = (i, e), then b, so each state of orbit b is
    listed |Stab(r_b)| times and its probability adds up over them."""
    k, f = orb.perms.shape[:2]
    if f == 1:  # the trivial group: M holds the rows themselves
        return M[0]
    T = M.reshape(2, -1, *M.shape[1:])
    if k > 1:
        T = np.fft.irfft(T, n=k, axis=1)
    S = np.empty((k, T.shape[2], 2, T.shape[3]))
    np.add(T[0], T[1], out=S[:, :, 0])
    np.subtract(T[0], T[1], out=S[:, :, 1])
    S *= 0.5
    return np.moveaxis(S, 0, 1).reshape(S.shape[1], -1)


def _cluster_kernel(G: Graph, beta: float, kind: str, A: frozenset | None):
    """Exact SW / IV / MSW kernel, built on the rows x at the orbit
    representatives of _kernel_orbits(G, A) and scattered by _scatter.

    E(x) = E(N-1-x), so P(N-1-x, N-1-y) = P(x, y), and a rotation of G's
    vertices that keeps A maps the kernel to itself too: every row is a
    permuted row at a representative, and P is exactly invariant. With
    p = 1 - e^(-2 beta), q = 1 - p, a step keeps each edge of E(x) with
    probability p, and E(D) reads a vertex set D as a configuration.

    - sw, msw: with D = x xor y, P(x, y) = q^|E(x) - E(D)| U(M), where
      U(M) = sum over F in M of p^|F| q^|M-F| h(F) and h(F) is a product
      over the clusters C of (V, F) (Edwards-Sokal). U is one subset-sum
      transform of p^|F| h(F) over the 2^m edge subsets, O(m 2^m), read at
      R x N entries; the cluster sizes come from dynamics._subset_roots.
      - sw: each cluster weighs 1/2, and M = E(x) int E(D) = E(x) int E(y).
      - msw: a cluster C inside A weighs 1 - 2^-|C| and any other 1. For D
        in A, M = E(x) int E[V-D], the edges of E(x) with no end in D;
        other D have P = 0. A kept F that moves x to x xor D lies in E(D),
        so it splits into edges inside D and inside V-D. Summed over the
        former, D's clusters, which all flip, weigh 2^-|D| together; that
        cancels the 1/2 that h gives each vertex of D, a singleton of F in
        E[V-D].
    - iv:  for D in A, P(x, x xor D) = 2^-|D| times the sum over D in S in A
      of (-1/2)^|S-D| q^e_x(S), where e_x(S) counts the edges of E(x) with
      an end in S (S is isolated w.p. q^e_x(S); Moebius inversion gives the
      exact isolated set). Other D have P = 0. One superset transform per
      row, O(R n 2^n) in all, and no edge subsets, so no edge limit.
    """
    if G.n > N_DIRECT_LIMIT or (kind != "iv" and G.m > M_CLUSTER_LIMIT):
        raise ValueError(f"graph too large for exact {kind} kernel")
    p = 1.0 - math.exp(-2.0 * beta)
    q = 1.0 - p
    orb = _kernel_orbits(G, A)
    x = orb.reps
    emasks = _edge_masks(G)
    qk = q ** np.arange(G.m + 1)
    amask = _vertex_mask(A, G.n)
    if kind == "iv":
        rows = _iv_rows(G, qk, emasks, x, amask)
    else:
        rows = _subset_sum_rows(G, p, q, qk, emasks, x, kind, amask)
    return _scatter(rows, orb)


def _touch(G: Graph) -> np.ndarray:
    """touch[S]: the edges with an end in S, for every vertex set S."""
    touch = np.zeros(1, dtype=np.int64)
    for v in range(G.n):
        incident = sum(1 << i for i, e in enumerate(G.edges) if v in e)
        touch = np.concatenate((touch, touch | incident))
    return touch


def _cluster_weights(G: Graph, kind: str, amask: int) -> np.ndarray:
    """h(F) for every edge subset F: the product over the clusters C of
    (V, F) of 1/2 (sw), or of 1 - 2^-|C| if C lies in A, else 1 (msw)."""
    roots = _subset_roots(G)
    if kind == "sw":
        return 0.5 ** np.sum(roots == np.arange(G.n), axis=1)
    F = np.arange(len(roots))[:, None]
    cell = roots + G.n * F  # v's root, numbered apart per edge subset
    size = np.bincount(cell.ravel(), minlength=cell.size).reshape(cell.shape)  # |C| at C's root
    size[F, roots[:, [v for v in range(G.n) if not amask >> v & 1]]] = 0  # C leaves A
    return np.where(size > 0, 1.0 - 0.5 ** size, 1.0).prod(axis=1)


def _subset_sum_rows(G: Graph, p: float, q: float, qk, emasks, x, kind: str, amask: int):
    U = p ** np.bitwise_count(np.arange(1 << G.m)) * _cluster_weights(G, kind, amask)
    for i in range(G.m):  # U[M] += q U[M - e_i] for every M holding e_i
        Ui = U.reshape(-1, 2, 1 << i)
        Ui[:, 1] += q * Ui[:, 0]
    ex = emasks[x, None]
    rows = qk[np.bitwise_count(ex & ~emasks)]  # E(x) - E(y) = E(x) - E(D)
    if kind == "sw":
        return rows * U[ex & emasks]
    D = x[:, None] ^ np.arange(emasks.size)
    return np.where((D & ~amask) == 0, rows * U[ex & ~_touch(G)[D]], 0.0)


def _iv_rows(G: Graph, qk, emasks, x, amask: int):
    touch = _touch(G)
    S = np.arange(touch.size)
    R = np.where((S & ~amask) == 0, qk[np.bitwise_count(emasks[x, None] & touch)], 0.0)
    for v in range(G.n):
        if amask >> v & 1:  # R[D] -= R[D + v] / 2 for every D without v
            Rv = R.reshape(x.size, -1, 2, 1 << v)
            Rv[:, :, 0] -= 0.5 * Rv[:, :, 1]
    R *= 0.5 ** np.bitwise_count(S)
    return np.take_along_axis(R, x[:, None] ^ S, axis=1)


def _heat_bath_kernel(G: Graph, blocks, A: frozenset | None, mu: np.ndarray):
    """Average over blocks B of exact heat-bath resampling of D = A int B.

    From x, the chain moves to y = (x off D) | s, s any assignment on D,
    with probability mu(y) / Z(x off D), where Z sums mu over the 2^|D|
    such y. Glauber is the case of singleton blocks. mu is a function of
    the agreement count alone, so the kernel commutes with the flip, and
    with the rotation when it maps G, A and the block family to themselves:
    as for _cluster_kernel, only the rows x at the orbit representatives of
    _kernel_orbits(G, A, blocks) are built and _scatter writes the rest, so
    P is exactly invariant.
    """
    if G.n > N_DIRECT_LIMIT:
        raise ValueError("graph too large for exact heat-bath kernel")
    orb = _kernel_orbits(G, A, blocks)
    codes = np.arange(1 << G.n)
    x = orb.reps
    amask = _vertex_mask(A, G.n)
    P = np.zeros((x.size, codes.size))
    a = np.arange(x.size)[:, None]
    for B in blocks:
        D = _vertex_mask(B, G.n) & amask
        rest = codes & ~D
        Z = np.bincount(rest, weights=mu, minlength=codes.size)
        y = (x[:, None] & ~D) | codes[rest == 0]  # y[a, s] = (x_a off D) | s
        P[a, y] += mu[y] / Z[y[:, :1]]
    return _scatter(P / len(blocks), orb)


def transition_matrix(G: Graph, beta: float, spec: DynamicsSpec) -> TransitionMatrix:
    """Exact one-step kernel of the requested dynamics."""
    spec.validate_for(G)
    mu = gibbs_exact(G, beta).probs
    A = spec.censor
    if spec.kind in ("sw", "iv", "msw"):
        P = _cluster_kernel(G, beta, spec.kind, A)
    else:  # Glauber is block dynamics with singleton blocks
        blocks = spec.blocks or [frozenset({v}) for v in range(G.n)]
        P = _heat_bath_kernel(G, blocks, A, mu)
    return TransitionMatrix(P=P, mu=mu)


def _residual(P: np.ndarray, mu: np.ndarray, orb: _Orbits) -> float:
    """Max |mu(x)P(x,y) - mu(y)P(y,x)| over the rows x at the representatives
    of orb, ROW_BLOCK rows at a time. P and mu are exactly invariant under
    its group, so each pair of states is some (g r, g y) and multiplies the
    same operands as (r, y): this is the max over all pairs, to the bit."""
    r = orb.reps
    return max(float(np.max(np.abs(mu[r[lo:lo + ROW_BLOCK], None] * P[r[lo:lo + ROW_BLOCK]]
                                   - P[:, r[lo:lo + ROW_BLOCK]].T * mu)))
               for lo in range(0, len(r), ROW_BLOCK))


def check_reversibility(P: np.ndarray, mu: np.ndarray) -> float:
    """Max detailed-balance residual |mu(x)P(x,y) - mu(y)P(y,x)| over all
    pairs of states, read from the rows at the representatives of
    _symmetry(P, mu) (see _residual)."""
    return _residual(P, mu, _symmetry(P, mu))


def check_stationarity(P: np.ndarray, mu: np.ndarray) -> float:
    """Max residual of mu^T P = mu^T."""
    return float(np.max(np.abs(mu @ P - mu)))


@dataclass(frozen=True)
class SpectralReport:
    """Real spectrum of a reversible kernel, with gap and relaxation time.

    relaxation is math.inf when the absolute spectral gap vanishes; the
    finite flag keeps CSV/JSON output free of float infinities.
    """

    eigenvalues: np.ndarray   # descending
    gap: float
    relaxation: float

    @property
    def relaxation_finite(self) -> bool:
        return math.isfinite(self.relaxation)


def spectral_report(P: np.ndarray, mu: np.ndarray) -> SpectralReport:
    """Eigenvalues via the similarity transform with sqrt-stationary weights,
    one character block at a time.

    Requires mu > 0, checked on the full mu, and reversibility up to
    REV_TOL, checked by _residual on the rows at the representatives of
    _symmetry(P, mu) (the number check_reversibility returns). The spectrum of P is the union of
    those of its character blocks M_c = B_c diag(1 / |Stab|) (see _blocks), each
    restricted to the representatives where c is trivial on the stabiliser
    (Diaconis 1988): at n = 10 under rotation x flip, 12 solves of at most
    56 x 56 for 1024 eigenvalues. M_c is self-adjoint for the weights
    mu(r_a) |orbit_a|, so d_a B_c[a, b] / (d_b sqrt(s_a s_b)), d = sqrt(mu_R),
    s = |Stab|, is Hermitian and the spectrum is real. Under the flip alone
    these are the even and odd blocks E = P_HH + B and O = P_HH - B.
    """
    if not np.all(mu > 0.0):
        raise ValueError("mu has states of zero mass, so sqrt(mu) cannot weigh them")
    orb = _symmetry(P, mu)
    resid = _residual(P, mu, orb)
    if resid > REV_TOL:
        raise ValueError(f"kernel not reversible: residual {resid:.3e}")
    d = np.sqrt(mu[orb.reps])
    H = ((d / np.sqrt(orb.stab))[:, None] * _blocks(P, orb)) / (d * np.sqrt(orb.stab))
    H = (H + np.conj(H).swapaxes(1, 2)) / 2.0
    parts = []
    for M, keep, mult in zip(H, orb.keep, orb.mult):
        if not keep.all():
            M = M[np.ix_(keep, keep)]
        # the characters of order <= 2 are real
        parts += [np.linalg.eigvalsh(M.real if mult == 1 else M)] * mult
    lam = np.sort(np.concatenate(parts))[::-1]
    if abs(lam[0] - 1.0) > 1e-9 or np.max(np.abs(lam)) > 1.0 + 1e-9:
        raise ValueError("spectrum out of range for a stochastic reversible kernel")
    lam_star = max(abs(lam[1]), abs(lam[-1])) if len(lam) > 1 else 0.0
    gap = 1.0 - lam_star
    relaxation = 1.0 / gap if gap > 1e-12 else math.inf
    return SpectralReport(eigenvalues=lam, gap=gap, relaxation=relaxation)


class _Distance:
    """Worst-start TV distance from mu of a kernel given by its blocks."""

    def __init__(self, orb: _Orbits, mu: np.ndarray):
        tile = orb.perms.shape[0] * orb.perms.shape[1]
        self.orb = orb
        self.mu = np.tile(mu[orb.reps] / orb.stab, tile)  # mu along a row of _rep_rows

    def far(self, M: np.ndarray, eps: float) -> bool:
        """Whether some row of the kernel with blocks M lies farther than
        eps from mu."""
        dev = _rep_rows(M, self.orb) - self.mu
        np.abs(dev, out=dev)
        return bool(0.5 * dev.sum(axis=1).max() > eps)

    def far_product(self, A: np.ndarray, B: np.ndarray, eps: float, out=None):
        """The blocks of the product AB of the kernels with blocks A and B,
        written to `out` (a new array by default), when some row of AB lies
        farther than eps from mu; else None, with `out` untouched. The
        blocks M_c = B_c diag(1 / |Stab|) multiply one character at a time,
        M_c(AB) = M_c(A) M_c(B): one batched matmul.

        AB is checked ROW_BLOCK representatives at a time, so a near product
        is never held whole. At the first far block the rest is multiplied
        out around it: a far product is the search's next power. Each row
        block of AB reads only the same rows of A, so `out` may be A.
        """
        for lo in range(0, A.shape[1], ROW_BLOCK):
            top = A[:, lo:lo + ROW_BLOCK] @ B
            if self.far(top, eps):
                out = np.empty(A.shape, top.dtype) if out is None else out
                for at in range(0, A.shape[1], ROW_BLOCK):
                    rows = slice(at, at + ROW_BLOCK)
                    out[:, rows] = top if at == lo else A[:, rows] @ B
                return out
        return None


def tv_mixing_time(P: np.ndarray, mu: np.ndarray, eps: float = 0.25,
                   cap: int = 100_000):
    """Smallest t with worst-start TV distance d(t) from mu at most eps.

    Returns None (timeout) when the distance has not dropped below eps
    within `cap` steps, e.g. for a non-ergodic kernel.

    mu must be stationary for P. Then d(t) is non-increasing in t
    (Levin-Peres-Wilmer, Markov Chains and Mixing Times, sec. 4.4), so the
    answer is found by a doubling search: square P while d(2^j) > eps,
    then descend through the kept powers, adding 2^j to the largest far
    time t while d(t + 2^j) > eps. That is about 2 log2(t) matrix
    products instead of t. P is powered as its character blocks under
    _symmetry(P, mu) (see _blocks): blocks multiply as B_c diag(1/|Stab|)
    B'_c, and the rows of P^t at the representatives, read back by an
    inverse rFFT over the rotation and the flip, give every row of P^t up
    to a permutation, so each product is C block products of R x R. Each
    product is checked as it is built (see _Distance.far_product) and is
    kept only when far, as the next power or the new P^t, so none is
    computed twice. Memory is the floor(log2 t) kept powers P^(2^j) plus
    blocks of ROW_BLOCK rows: the descent updates P^t in place and drops
    each power after its last use. d(0) = 1 - min(mu) needs no product.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0,1)")
    if P.shape[0] > 1 << N_DIRECT_LIMIT:
        raise ValueError("state space too large for matrix powering")
    if 1.0 - mu.min() <= eps:
        return 0
    orb = _symmetry(P, mu)
    dist = _Distance(orb, mu)
    blocks = _blocks(P, orb)
    if orb.stab.max() > 1:  # else blocks may be P itself, and stays unwritten
        blocks = blocks / orb.stab
    t = 0  # the largest time known to have d(t) > eps
    powers = []  # powers[j] = the blocks of P^(2^j), every one with d(2^j) > eps
    square = blocks if dist.far(blocks, eps) else None  # P^(2t) (P at t = 0) if far
    while square is not None:
        t = 2 * t or 1
        if t >= cap:
            return None
        powers.append(square)
        square = dist.far_product(square, square, eps)
    # The answer lies in (t, 2t] (it is 1 if t = 0): Q = P^t, bisect with
    # the other powers, largest first.
    Q = powers.pop() if powers else None
    while powers:  # Q is our own product here, so it is updated in place
        if dist.far_product(Q, powers.pop(), eps, out=Q) is not None:
            t += 1 << len(powers)
    return t + 1 if t < cap else None


def dirichlet_form(P: np.ndarray, mu: np.ndarray, f, g) -> float:
    """Half the mu-P-weighted sum of (f(x)-f(y))(g(x)-g(y))."""
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    df = f[:, None] - f[None, :]
    dg = g[:, None] - g[None, :]
    return float(0.5 * np.sum(mu[:, None] * P * df * dg))


# ---------------------------------------------------------------------------
# Joint (edge subset, spin) and marked spaces, and the T/Q/S/K operators


def _check_states(space: str, count: int):
    if count > MAX_OPERATOR_STATES:
        raise ValueError(f"{space} space has {count} states, more than "
                         f"MAX_OPERATOR_STATES = {MAX_OPERATOR_STATES}")


def _recolour(block, x, free, k) -> np.ndarray:
    """R[i, j] = 2^-k[i] when states i and j share a block and their
    configurations differ only inside free[i], else 0.

    free[i] is a union of k[i] whole clusters, which R recolours
    uniformly, keeping everything else: the targets are the states of
    the block. k is their own count, so an extra target breaks R @ R = R.
    """
    index = np.full((block.max() + 1, x.max() + 1), -1)
    index[block, x] = np.arange(x.size)
    i, s = np.nonzero((np.arange(free.max() + 1) & ~free[:, None]) == 0)
    j = index[block[i], x[i] & ~free[i] | s]  # -1 where no state has that configuration
    R = np.zeros((x.size, x.size))
    R[i[j >= 0], j[j >= 0]] = np.ldexp(1.0, -k[i[j >= 0]].astype(np.int64))
    return R


class JointSpace:
    """The support of the joint edge-spin measure, with T, T*, Q_A.

    States are the pairs (F[i], x[i]) with F inside E(x), ordered by
    (F, x); nu(F, x) is proportional to p^|F| (1-p)^|E \\ F|.
    """

    def __init__(self, G: Graph, beta: float):
        if G.n > N_DIRECT_LIMIT:
            raise ValueError("graph too large for joint-space enumeration")
        emasks = _edge_masks(G)
        _check_states("joint", sum(1 << int(e) for e in np.bitwise_count(emasks)))
        self.G, self.beta = G, beta
        self.p = 1.0 - math.exp(-2.0 * beta)
        self.F, self.x = np.nonzero((np.arange(1 << G.m)[:, None] & ~emasks) == 0)
        self.cm = _subgraph_components(G)[self.F]  # cm[i, v]: v's component in (V, F[i])
        q = 1.0 - self.p
        w = np.array([[self.p ** f * q ** abs(e - f) for f in range(G.m + 1)]
                      for e in range(G.m + 1)])  # w[e, f] = p^f q^(e-f), f <= e
        nf = np.bitwise_count(self.F)
        self._lift = w[np.bitwise_count(emasks)[self.x], nf]
        self.nu = w[G.m, nf] / w[G.m, nf].sum()

    @property
    def size(self) -> int:
        return self.x.size

    def build_T(self) -> np.ndarray:
        """T(sigma,(F,tau)): percolation lift; rows sum to 1."""
        T = np.zeros((1 << self.G.n, self.size))
        T[self.x, np.arange(self.size)] = self._lift
        return T

    def build_Tstar(self) -> np.ndarray:
        """T*((F,tau),sigma) = 1(tau = sigma): drop the edge subset."""
        Ts = np.zeros((self.size, 1 << self.G.n))
        Ts[np.arange(self.size), self.x] = 1.0
        return Ts

    def build_Q(self, A: frozenset | None = None) -> np.ndarray:
        """Q_A: resample the isolated vertices in A, keep F and the rest."""
        bit = 1 << np.arange(self.G.n)
        iso = ((self.cm == bit) @ bit) & _vertex_mask(A, self.G.n)
        return _recolour(self.F, self.x, iso, np.bitwise_count(iso))


class MarkedSpace:
    """Triples (F, x, marked components) over a JointSpace, with S, K_A.

    A marking is the union M of the marked components of F, so state i
    pairs the joint states marking[i] = (F, M) and joint_index[i] = (F, x).
    States are ordered by (F, M, x), so each block of K_A is contiguous.
    All markings are enumerated, including zero-measure ones (an unmarked
    singleton has marking weight 0); measure-weighted checks are
    unaffected and K_A keeps F and M fixed.
    """

    def __init__(self, joint: JointSpace):
        self.joint, self.G = joint, joint.G
        bit = 1 << np.arange(self.G.n)
        lead = (joint.cm & (bit - 1)) == 0  # each component at its lowest vertex
        _check_states("marked", int(np.sum(1 << lead.sum(axis=1))))
        self.marking, self.joint_index = np.nonzero(joint.F[:, None] == joint.F)
        self.F, self.x = joint.F[self.joint_index], joint.x[self.joint_index]
        self.M = joint.x[self.marking]
        # per joint state (F, M): the chance that S marks exactly M
        q = np.ldexp(1.0, 1 - np.bitwise_count(joint.cm).astype(np.int64))
        marked = (joint.cm & ~joint.x[:, None]) == 0
        self._weight = np.where(lead, np.where(marked, q, 1.0 - q), 1.0).prod(axis=1)
        self._lead = lead @ bit

    @property
    def size(self) -> int:
        return self.x.size

    def nu_m(self) -> np.ndarray:
        return self.joint.nu[self.joint_index] * self._weight[self.marking]

    def build_S(self) -> np.ndarray:
        """S: mark each component independently with prob 2^-(|C|-1)."""
        S = np.zeros((self.joint.size, self.size))
        S[self.joint_index, np.arange(self.size)] = self._weight[self.marking]
        return S

    def build_Sstar(self) -> np.ndarray:
        """S*: drop all marks."""
        Ss = np.zeros((self.size, self.joint.size))
        Ss[np.arange(self.size), self.joint_index] = 1.0
        return Ss

    def build_K(self, A: frozenset | None = None) -> np.ndarray:
        """K_A: uniformly recolor every marked component contained in A."""
        cm, mask = self.joint.cm, self.joint.x & _vertex_mask(A, self.G.n)
        free = ((cm & ~mask[:, None]) == 0) @ (1 << np.arange(self.G.n))
        free, k = free[self.marking], np.bitwise_count(free & self._lead)[self.marking]
        return _recolour(self.marking, self.x, free, k)


def verify_decompositions(G: Graph, beta: float, A: frozenset | None = None):
    """Entrywise residuals of IV_A = T Q_A T* and MSW_A = T S K_A S* T*.

    Both spaces are built (and their sizes checked) before any operator.
    """
    joint = JointSpace(G, beta)
    ms = MarkedSpace(joint)
    T = joint.build_T()
    Ts = joint.build_Tstar()
    QA = joint.build_Q(A)
    iv = transition_matrix(G, beta, DynamicsSpec("iv", censor=A)).P
    iv_resid = float(np.max(np.abs(iv - T @ QA @ Ts)))

    S = ms.build_S()
    Ss = ms.build_Sstar()
    KA = ms.build_K(A)
    msw = transition_matrix(G, beta, DynamicsSpec("msw", censor=A)).P
    msw_resid = float(np.max(np.abs(msw - T @ S @ KA @ Ss @ Ts)))
    return iv_resid, msw_resid


# ---------------------------------------------------------------------------
# Censoring order and dominance


def censoring_order_holds(P: np.ndarray, PA: np.ndarray, mu: np.ndarray,
                          n: int, tol: float = 1e-12) -> bool:
    """The increasing-bilinear-form order P <= P_A, tested on up-set pairs.

    Sufficient by bilinearity: increasing positive functions decompose as a
    constant plus a nonnegative combination of up-set indicators, and the
    constant cross-terms coincide for stochastic kernels sharing mu. With U
    the up-set indicator matrix, all pairs at once: U' diag(mu) P U is at
    most U' diag(mu) P_A U entrywise.
    """
    U = _up_set_indicators(n)
    return bool(np.all(U.T @ (mu[:, None] * (P - PA)) @ U <= tol))


def check_censoring_order(G: Graph, beta: float, family: str, A: frozenset,
                          tol: float = 1e-12, blocks=None) -> bool:
    """True iff the censored kernel dominates in the bilinear-form order."""
    if G.n > UP_SET_N_LIMIT:
        raise ValueError(f"censoring order check limited to n <= {UP_SET_N_LIMIT}")
    base = transition_matrix(G, beta, DynamicsSpec(family, blocks=blocks))
    cens = transition_matrix(G, beta, DynamicsSpec(family, blocks=blocks, censor=A))
    return censoring_order_holds(base.P, cens.P, base.mu, G.n, tol)


def _ratio_increasing(nu0: np.ndarray, mu: np.ndarray, n: int) -> bool:
    """Whether nu0/mu is increasing: ratio(x) <= ratio(y) + 1e-12 for x <= y."""
    ratio = nu0 / mu
    codes = np.arange(1 << n)
    comparable = (codes[:, None] & ~codes) == 0  # comparable[x, y] = x <= y
    return not np.any(comparable & (ratio[:, None] > ratio + 1e-12))


def censored_dominance(G: Graph, beta: float, spec: DynamicsSpec,
                       A: frozenset, nu0, t: int,
                       tol: float = 1e-12,
                       schedule=None) -> tuple[bool, bool]:
    """Evolve nu0 under P^t and the censored product, then compare.

    Returns (dominates, tv_ordered): whether the censored distribution
    stochastically dominates the uncensored one after t steps, and whether
    TV-to-mu of the censored run is at least that of the uncensored run.
    `schedule` optionally lists censor sets applied in order (defaults to
    the constant-A schedule of length t). Requires nu0/mu increasing.
    """
    if G.n > UP_SET_N_LIMIT:
        raise ValueError(f"dominance check limited to n <= {UP_SET_N_LIMIT}")
    nu0 = np.asarray(nu0, dtype=np.float64)
    base = transition_matrix(G, beta, replace(spec, censor=None))
    if not _ratio_increasing(nu0, base.mu, G.n):
        raise ValueError("nu0/mu must be increasing for the dominance theorem")
    if schedule is None:
        schedule = [A] * t
    if len(schedule) != t:
        raise ValueError("schedule length must equal t")
    censored = {Ai: transition_matrix(G, beta, replace(spec, censor=Ai)).P
                for Ai in dict.fromkeys(schedule)}
    dist_unc = nu0.copy()
    dist_cen = nu0.copy()
    for Ai in schedule:
        dist_unc = dist_unc @ base.P
        dist_cen = dist_cen @ censored[Ai]
    dominates = stochastically_dominates(dist_cen, dist_unc, G.n, tol=max(tol, 1e-12))
    tv_unc = 0.5 * np.abs(dist_unc - base.mu).sum()
    tv_cen = 0.5 * np.abs(dist_cen - base.mu).sum()
    return dominates, tv_unc <= tv_cen + tol

