"""Exact transition matrices, spectral/mixing computations, and the joint-
and marked-space operator decompositions with the censoring order.

Everything here enumerates the full configuration space, so sizes are
capped: n <= 10 vertices for direct kernels, |E| <= 14 for the cluster
kernels (which sum over edge subsets), and MAX_OPERATOR_STATES states
for the materialized joint- and marked-space operators.

The SW, IV and MSW kernels come from the Edwards-Sokal joint measure:
P(sigma, sigma xor D) = sum_F A(sigma,F) G(F,D), where the percolation
matrix A(sigma,F) = p^|F| q^(|E(sigma)|-|F|) 1[F in E(sigma)] is shared and
the recolouring matrix G differs per kind (SW: 2^-c(F) 1[F in E(D)]; IV:
2^-|I| 1[D in I] over the isolated vertices I of (V,F) in A; MSW: flip each
component of (V,F) inside A with probability 2^-|C|). They never go
through T/Q/S/K, so verify_decompositions compares two constructions.

Configurations are the bit-encoded integers of the ising module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .dynamics import M_CLUSTER_LIMIT, N_DIRECT_LIMIT, DynamicsSpec, components
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
F_CHUNK = 1024
ROW_BLOCK = 128


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
    masks = np.zeros(1 << G.n, dtype=np.int64)
    codes = np.arange(1 << G.n, dtype=np.int64)
    for i, (u, w) in enumerate(G.edges):
        agree = (((codes >> u) ^ (codes >> w)) & 1) == 0
        masks[agree] |= 1 << i
    return masks


@lru_cache(maxsize=64)
def _subgraph_components(G: Graph) -> np.ndarray:
    """Read-only cm[F, v]: vertex bitmask of v's component in (V, F)."""
    roots = components(G, (np.arange(1 << G.m)[:, None] >> np.arange(G.m)) & 1)
    cm = np.zeros_like(roots)
    for u in range(G.n):
        cm[roots == roots[:, u, None]] |= 1 << u
    cm.flags.writeable = False
    return cm


def _vertex_mask(A: frozenset | None, n: int) -> int:
    if A is None:
        return (1 << n) - 1
    return sum(1 << v for v in A)


def _cluster_kernel(G: Graph, beta: float, kind: str, A: frozenset | None):
    """Exact SW / IV / MSW kernel by the Edwards-Sokal factorisation.

    P(sigma, sigma xor D) = sum_F A(sigma,F) G(F,D) over edge subsets F and
    flip sets D (vertex bitmasks), where A(sigma,F) = p^|F| q^(|E(sigma)|-|F|)
    if F lies in E(sigma), else 0. E(D) reads D as a configuration, so "F in
    E(D)" says that D is a union of clusters of F (c(F) clusters in all):

    - sw:  G = 2^-c(F) 1[F in E(D)];
    - iv:  G = 2^-|I| 1[D in I], I the isolated vertices of (V,F) lying in A;
    - msw: G = 1[F in E(D), D in L] times, over the components C of (V,F)
      inside A (their union is L), 2^-|C| if C is in D, else 1 - 2^-|C|.

    Each G(F,.) is 1[F in E(D)] times a product over vertices v of f0(F,v)
    or f1(F,v), as v is outside or inside D (the factor of a component sits
    on its lowest vertex), so its row is a Kronecker product. R = A G is
    summed over chunks of F_CHUNK edge subsets, and P(x,y) = R(x, x xor y).
    """
    if G.m > M_CLUSTER_LIMIT or G.n > N_DIRECT_LIMIT:
        raise ValueError(f"graph too large for exact {kind} kernel")
    p = 1.0 - math.exp(-2.0 * beta)
    q = 1.0 - p
    emasks = _edge_masks(G)
    cm = _subgraph_components(G)
    amask = _vertex_mask(A, G.n)
    bit = 1 << np.arange(G.n, dtype=np.int64)
    leader = (cm & (bit - 1)) == 0
    inside = (cm & ~amask) == 0
    if kind == "sw":
        f0 = f1 = np.where(leader, 0.5, 1.0)
    elif kind == "iv":
        iso = (cm == bit) & inside
        f0, f1 = np.where(iso, 0.5, 1.0), np.where(iso, 0.5, 0.0)
    else:
        flip = 0.5 ** np.bitwise_count(cm)
        f0 = np.where(leader & inside, 1.0 - flip, 1.0)
        f1 = np.where(inside, np.where(leader, flip, 1.0), 0.0)
    k = np.arange(G.m + 1)
    w = p ** k[None, :] * q ** np.abs(k[:, None] - k[None, :])  # w[|E(x)|, |F|]
    Fs = np.arange(1 << G.m)
    ne, nf = np.bitwise_count(emasks), np.bitwise_count(Fs)
    R = np.zeros((1 << G.n, 1 << G.n))
    for lo in range(0, 1 << G.m, F_CHUNK):
        blk = slice(lo, lo + F_CHUNK)
        sub = (Fs[blk] & ~emasks[:, None]) == 0  # sub[x, F] = 1[F in E(x)]
        Ablk = np.where(sub, w[ne[:, None], nf[blk]], 0.0)
        Gblk = np.ones((sub.shape[1], 1))
        for v in range(G.n):
            Gblk = np.concatenate([Gblk * f0[blk, v, None], Gblk * f1[blk, v, None]],
                                  axis=1)
        R += Ablk @ (Gblk * sub.T)  # x and D range over the same codes
    codes = np.arange(1 << G.n)
    return np.take_along_axis(R, codes[:, None] ^ codes, axis=1)


def _heat_bath_kernel(G: Graph, blocks, A: frozenset | None, mu: np.ndarray):
    """Average over blocks B of exact heat-bath resampling of D = A int B.

    From x, the chain moves to y = (x off D) | s, s any assignment on D,
    with probability mu(y) / Z(x off D), where Z sums mu over the 2^|D|
    such y. Glauber is the case of singleton blocks.
    """
    if G.n > N_DIRECT_LIMIT:
        raise ValueError("graph too large for exact heat-bath kernel")
    codes = np.arange(1 << G.n)
    amask = _vertex_mask(A, G.n)
    P = np.zeros((codes.size, codes.size))
    for B in blocks:
        D = _vertex_mask(B, G.n) & amask
        rest = codes & ~D
        Z = np.bincount(rest, weights=mu, minlength=codes.size)
        y = rest[:, None] | codes[(codes & ~D) == 0]  # y[x, s] = rest[x] | s
        P[codes[:, None], y] += mu[y] / Z[rest, None]
    return P / len(blocks)


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


def check_reversibility(P: np.ndarray, mu: np.ndarray) -> float:
    """Max detailed-balance residual |mu(x)P(x,y) - mu(y)P(y,x)|."""
    flow = mu[:, None] * P
    return float(np.max(np.abs(flow - flow.T)))


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


def spectral_report(P: np.ndarray, mu: np.ndarray,
                    tol: float = REV_TOL) -> SpectralReport:
    """Eigenvalues via the similarity transform with sqrt-stationary weights.

    Requires reversibility (checked); the transformed matrix is symmetric,
    so the spectrum is real.
    """
    resid = check_reversibility(P, mu)
    if resid > tol:
        raise ValueError(f"kernel not reversible: residual {resid:.3e}")
    d = np.sqrt(mu)
    M = (d[:, None] * P) / d[None, :]
    lam = np.linalg.eigvalsh((M + M.T) / 2.0)[::-1]
    if abs(lam[0] - 1.0) > 1e-9 or np.max(np.abs(lam)) > 1.0 + 1e-9:
        raise ValueError("spectrum out of range for a stochastic reversible kernel")
    lam_star = max(abs(lam[1]), abs(lam[-1])) if len(lam) > 1 else 0.0
    gap = 1.0 - lam_star
    relaxation = 1.0 / gap if gap > 1e-12 else math.inf
    return SpectralReport(eigenvalues=lam, gap=gap, relaxation=relaxation)


def _far(rows: np.ndarray, mu: np.ndarray, eps: float) -> bool:
    """Whether some row lies farther than eps from mu in total variation."""
    dev = rows - mu
    np.abs(dev, out=dev)
    return bool(0.5 * dev.sum(axis=1).max() > eps)


def _product_far(A: np.ndarray, B: np.ndarray, mu: np.ndarray,
                 eps: float) -> bool:
    """Whether some row of A @ B is far from mu, one row block at a time.

    Stops at the first far block, so a far product is usually decided
    after one block, and A @ B is never held whole.
    """
    return any(_far(A[lo:lo + ROW_BLOCK] @ B, mu, eps)
               for lo in range(0, A.shape[0], ROW_BLOCK))


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
    products instead of t. Memory is the floor(log2 t) kept powers P^(2^j)
    plus row blocks of ROW_BLOCK rows: a probe that finds a product near
    is never stored, and the descent updates P^t in place and drops each
    power after its last use. d(0) = 1 - min(mu) needs no product.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0,1)")
    if P.shape[0] > 1 << N_DIRECT_LIMIT:
        raise ValueError("state space too large for matrix powering")
    if 1.0 - mu.min() <= eps:
        return 0
    t = 0  # the largest time known to have d(t) > eps
    powers = []  # powers[j] = P^(2^j), every one with d(2^j) > eps
    far = _far(P, mu, eps)
    while far:
        t = 2 * t or 1
        if t >= cap:
            return None
        powers.append(powers[-1] @ powers[-1] if powers else P)
        far = _product_far(powers[-1], powers[-1], mu, eps)
    # The answer lies in (t, 2t] (it is 1 if t = 0): Q = P^t, bisect with
    # the other powers, largest first.
    Q = powers.pop() if powers else None
    while powers:
        B = powers.pop()
        if _product_far(Q, B, mu, eps):
            t += 1 << len(powers)
            if powers:  # Q is our own product here, so update it in place
                for lo in range(0, Q.shape[0], ROW_BLOCK):
                    Q[lo:lo + ROW_BLOCK] = Q[lo:lo + ROW_BLOCK] @ B
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

