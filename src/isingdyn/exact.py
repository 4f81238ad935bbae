"""Exact transition matrices, spectral/mixing computations, and the joint-
and marked-space operator decompositions with the censoring order.

Everything here enumerates the full configuration space, so sizes are
capped: n <= 10 vertices for direct kernels, |E| <= 14 for the cluster
kernels (which sum over edge subsets), and |E| <= 6 for materialized
operator matrices on the joint spaces.

Configurations are the bit-encoded integers of the ising module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .dynamics import DynamicsSpec, components
from .graph import Graph
from .ising import (
    code_leq,
    enumerate_up_sets,
    gibbs_exact,
    stochastically_dominates,
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

N_DIRECT_LIMIT = 10
M_CLUSTER_LIMIT = 14
M_OPERATOR_LIMIT = 6
REV_TOL = 1e-9


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic kernel over the full configuration space, with mu."""

    P: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        rows = self.P.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-12:
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
def _subgraph_components(G: Graph):
    """For every edge subset F: component vertex-bitmasks and sizes."""
    out = []
    for F in range(1 << G.m):
        parts = components(G, [(F >> i) & 1 for i in range(G.m)])
        comp_masks = [sum(1 << v for v in ms) for ms in parts.members]
        out.append(comp_masks)
    return out


def _vertex_mask(A: frozenset | None, n: int) -> int:
    if A is None:
        return (1 << n) - 1
    return sum(1 << v for v in A)


def _cluster_kernel(G: Graph, beta: float, kind: str, A: frozenset | None):
    """Exact SW / IV / MSW kernel by summation over F subset of E(sigma)."""
    if G.m > M_CLUSTER_LIMIT or G.n > N_DIRECT_LIMIT:
        raise ValueError(f"graph too large for exact {kind} kernel")
    size = 1 << G.n
    p = 1.0 - math.exp(-2.0 * beta)
    q = 1.0 - p
    emasks = _edge_masks(G)
    comps = _subgraph_components(G)
    amask = _vertex_mask(A, G.n)
    P = np.zeros((size, size))
    for x in range(size):
        em = int(emasks[x])
        ne = bin(em).count("1")
        # enumerate F over submasks of E(sigma), including empty
        F = em
        while True:
            nf = bin(F).count("1")
            wF = (p ** nf) * (q ** (ne - nf)) if p > 0 else (1.0 if nf == 0 else 0.0)
            if wF > 0.0:
                cms = comps[F]
                if kind == "sw":
                    c = len(cms)
                    base = wF * 2.0 ** (-c)
                    for assign in range(1 << c):
                        tau = 0
                        for j in range(c):
                            if (assign >> j) & 1:
                                tau |= cms[j]
                        P[x, tau] += base
                elif kind == "iv":
                    iso = [cm for cm in cms if bin(cm).count("1") == 1
                           and cm & amask]
                    k = len(iso)
                    base = wF * 2.0 ** (-k)
                    fixed = x & ~sum(iso) if iso else x
                    for assign in range(1 << k):
                        tau = fixed
                        for j in range(k):
                            if (assign >> j) & 1:
                                tau |= iso[j]
                        P[x, tau] += base
                else:  # msw: flip a contained component with prob 2^-(|C|-1)/2
                    elig = [cm for cm in cms if (cm & ~amask) == 0]
                    flip_p = [0.5 * 2.0 ** (1 - bin(cm).count("1")) for cm in elig]
                    k = len(elig)
                    for assign in range(1 << k):
                        pr = wF
                        tau = x
                        for j in range(k):
                            if (assign >> j) & 1:
                                pr *= flip_p[j]
                                tau ^= elig[j]
                            else:
                                pr *= 1.0 - flip_p[j]
                        P[x, tau] += pr
            if F == 0:
                break
            F = (F - 1) & em
    return P


def _glauber_kernel(G: Graph, beta: float):
    if G.n > N_DIRECT_LIMIT:
        raise ValueError("graph too large for exact Glauber kernel")
    size = 1 << G.n
    P = np.zeros((size, size))
    for x in range(size):
        for v in range(G.n):
            S = sum(1 if (x >> u) & 1 else -1 for u in G.adjacency[v])
            p_plus = 1.0 / (1.0 + math.exp(-2.0 * beta * S))
            P[x, x | (1 << v)] += p_plus / G.n
            P[x, x & ~(1 << v)] += (1.0 - p_plus) / G.n
    return P


def _block_kernel(G: Graph, beta: float, blocks, A: frozenset | None, mu):
    """Average over blocks of exact heat-bath resampling of A int B_k."""
    if G.n > N_DIRECT_LIMIT:
        raise ValueError("graph too large for exact block kernel")
    size = 1 << G.n
    P = np.zeros((size, size))
    amask = _vertex_mask(A, G.n)
    for B in blocks:
        D = sum(1 << v for v in B) & amask
        keep = ~D & ((1 << G.n) - 1)
        # group configurations by their off-D assignment
        groups: dict[int, list[int]] = {}
        for y in range(size):
            groups.setdefault(y & keep, []).append(y)
        for x in range(size):
            grp = groups[x & keep]
            z = sum(mu[y] for y in grp)
            for y in grp:
                P[x, y] += mu[y] / z / len(blocks)
    return P


def transition_matrix(G: Graph, beta: float, spec: DynamicsSpec) -> TransitionMatrix:
    """Exact one-step kernel of the requested dynamics."""
    spec.validate_for(G)
    mu = gibbs_exact(G, beta).probs
    A = spec.censor
    if spec.kind in ("sw", "iv", "msw"):
        P = _cluster_kernel(G, beta, spec.kind, A)
    elif spec.kind == "glauber":
        P = _glauber_kernel(G, beta)
    else:
        P = _block_kernel(G, beta, spec.blocks, A, mu)
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


def worst_row_tv(Pt: np.ndarray, mu: np.ndarray) -> float:
    return float(0.5 * np.max(np.abs(Pt - mu[None, :]).sum(axis=1)))


def tv_mixing_time(P: np.ndarray, mu: np.ndarray, eps: float = 0.25,
                   cap: int = 100_000):
    """Smallest t with worst-start TV distance from mu at most eps.

    Returns None (timeout) when the distance has not dropped below eps
    within `cap` steps, e.g. for a non-ergodic kernel.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0,1)")
    if P.shape[0] > 1024:
        raise ValueError("state space too large for matrix powering")
    Pt = np.eye(P.shape[0])
    for t in range(cap + 1):
        if worst_row_tv(Pt, mu) <= eps:
            return t
        Pt = Pt @ P
    return None


def dirichlet_form(P: np.ndarray, mu: np.ndarray, f, g) -> float:
    """Half the mu-P-weighted sum of (f(x)-f(y))(g(x)-g(y))."""
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    df = f[:, None] - f[None, :]
    dg = g[:, None] - g[None, :]
    return float(0.5 * np.sum(mu[:, None] * P * df * dg))


# ---------------------------------------------------------------------------
# Joint (edge subset, spin) space and the T/Q operators


class JointSpace:
    """The support of the joint edge-spin measure, with T, T*, Q_A.

    States are pairs (F, sigma) with F inside E(sigma); nu(F, sigma) is
    proportional to p^|F| (1-p)^|E \\ F|.
    """

    def __init__(self, G: Graph, beta: float, limit: int = M_CLUSTER_LIMIT):
        if G.m > limit or G.n > N_DIRECT_LIMIT:
            raise ValueError("graph too large for joint-space enumeration")
        self.G = G
        self.beta = beta
        self.p = 1.0 - math.exp(-2.0 * beta)
        emasks = _edge_masks(G)
        self.states: list[tuple[int, int]] = []
        for x in range(1 << G.n):
            em = int(emasks[x])
            F = em
            while True:
                self.states.append((F, x))
                if F == 0:
                    break
                F = (F - 1) & em
        self.states.sort()
        self.index = {s: i for i, s in enumerate(self.states)}
        w = np.array([
            (self.p ** bin(F).count("1"))
            * ((1.0 - self.p) ** (G.m - bin(F).count("1")))
            for F, _ in self.states
        ])
        self.nu = w / w.sum()
        self.emasks = emasks

    @property
    def size(self) -> int:
        return len(self.states)

    def build_T(self) -> np.ndarray:
        """T(sigma,(F,tau)): percolation lift; rows sum to 1."""
        T = np.zeros((1 << self.G.n, self.size))
        p, q = self.p, 1.0 - self.p
        for i, (F, x) in enumerate(self.states):
            em = int(self.emasks[x])
            nf = bin(F).count("1")
            T[x, i] = (p ** nf) * (q ** (bin(em).count("1") - nf))
        return T

    def build_Tstar(self) -> np.ndarray:
        """T*((F,tau),sigma) = 1(tau = sigma): drop the edge subset."""
        Ts = np.zeros((self.size, 1 << self.G.n))
        for i, (_, x) in enumerate(self.states):
            Ts[i, x] = 1.0
        return Ts

    def isolated_mask(self, F: int, A: frozenset | None) -> int:
        """Bitmask of isolated vertices of (V,F) lying in A."""
        inc = 0
        for j, (u, w) in enumerate(self.G.edges):
            if (F >> j) & 1:
                inc |= (1 << u) | (1 << w)
        return ~inc & _vertex_mask(A, self.G.n)

    def build_Q(self, A: frozenset | None = None) -> np.ndarray:
        """Q_A: resample the isolated vertices in A, keep F and the rest."""
        Q = np.zeros((self.size, self.size))
        for i, (F, x) in enumerate(self.states):
            iso = self.isolated_mask(F, A)
            k = bin(iso).count("1")
            base = 2.0 ** (-k)
            fixed = x & ~iso
            # iterate assignments on the isolated set
            sub = iso
            while True:
                j = self.index.get((F, fixed | sub))
                if j is not None:
                    Q[i, j] = base
                if sub == 0:
                    break
                sub = (sub - 1) & iso
        return Q


class MarkedSpace:
    """Triples (F, sigma, marked components) over a JointSpace, with S, K_A.

    All subsets of components are enumerated, including zero-measure ones
    (an unmarked singleton has marking weight 0); measure-weighted checks
    are unaffected and K_A keeps F and the marking fixed.
    """

    def __init__(self, joint: JointSpace):
        if joint.G.m > M_OPERATOR_LIMIT:
            raise ValueError("graph too large for marked-space enumeration")
        self.joint = joint
        self.G = joint.G
        comps = _subgraph_components(self.G)
        self.states: list[tuple[int, int, frozenset]] = []
        for F, x in joint.states:
            cms = comps[F]
            for marks in range(1 << len(cms)):
                marked = frozenset(cms[j] for j in range(len(cms))
                                   if (marks >> j) & 1)
                self.states.append((F, x, marked))
        self.index = {s: i for i, s in enumerate(self.states)}
        self.comps = comps

    @property
    def size(self) -> int:
        return len(self.states)

    @staticmethod
    def _mark_weight(comp_masks, marked) -> float:
        w = 1.0
        for cm in comp_masks:
            q = 2.0 ** (1 - bin(cm).count("1"))
            w *= q if cm in marked else 1.0 - q
        return w

    def nu_m(self) -> np.ndarray:
        out = np.zeros(self.size)
        for i, (F, x, marked) in enumerate(self.states):
            j = self.joint.index[(F, x)]
            out[i] = self.joint.nu[j] * self._mark_weight(self.comps[F], marked)
        return out

    def build_S(self) -> np.ndarray:
        """S: mark each component independently with prob 2^-(|C|-1)."""
        S = np.zeros((self.joint.size, self.size))
        for i, (F, x, marked) in enumerate(self.states):
            j = self.joint.index[(F, x)]
            S[j, i] = self._mark_weight(self.comps[F], marked)
        return S

    def build_Sstar(self) -> np.ndarray:
        """S*: drop all marks."""
        Ss = np.zeros((self.size, self.joint.size))
        for i, (F, x, _) in enumerate(self.states):
            Ss[i, self.joint.index[(F, x)]] = 1.0
        return Ss

    def build_K(self, A: frozenset | None = None) -> np.ndarray:
        """K_A: uniformly recolor every marked component contained in A."""
        amask = _vertex_mask(A, self.G.n)
        K = np.zeros((self.size, self.size))
        for i, (F, x, marked) in enumerate(self.states):
            active = [cm for cm in marked if (cm & ~amask) == 0]
            base = 2.0 ** (-len(active))
            fixed = x
            for cm in active:
                fixed &= ~cm
            for assign in range(1 << len(active)):
                tau = fixed
                for j, cm in enumerate(active):
                    if (assign >> j) & 1:
                        tau |= cm
                K[i, self.index[(F, tau, marked)]] += base
        return K


def verify_decompositions(G: Graph, beta: float, A: frozenset | None = None):
    """Entrywise residuals of IV_A = T Q_A T* and MSW_A = T S K_A S* T*."""
    joint = JointSpace(G, beta, limit=M_OPERATOR_LIMIT)
    T = joint.build_T()
    Ts = joint.build_Tstar()
    QA = joint.build_Q(A)
    iv = transition_matrix(G, beta, DynamicsSpec("iv", censor=A)).P
    iv_resid = float(np.max(np.abs(iv - T @ QA @ Ts)))

    ms = MarkedSpace(joint)
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
    constant cross-terms coincide for stochastic kernels sharing mu.
    """
    upsets = enumerate_up_sets(n)
    indicators = []
    for U in upsets:
        ind = np.zeros(len(mu))
        if U:
            ind[sorted(U)] = 1.0
        indicators.append(ind)
    for fU in indicators:
        Pf = P @ fU
        PAf = PA @ fU
        for gW in indicators:
            lhs = float(np.sum(mu * Pf * gW))
            rhs = float(np.sum(mu * PAf * gW))
            if lhs > rhs + tol:
                return False
    return True


def check_censoring_order(G: Graph, beta: float, family: str, A: frozenset,
                          tol: float = 1e-12, blocks=None) -> bool:
    """True iff the censored kernel dominates in the bilinear-form order."""
    if G.n > 4:
        raise ValueError("censoring order check limited to n <= 4")
    base = transition_matrix(G, beta, DynamicsSpec(family, blocks=blocks))
    cens = transition_matrix(G, beta, DynamicsSpec(family, blocks=blocks, censor=A))
    return censoring_order_holds(base.P, cens.P, base.mu, G.n, tol)


def _ratio_increasing(nu0: np.ndarray, mu: np.ndarray, n: int) -> bool:
    ratio = nu0 / mu
    for x in range(1 << n):
        for y in range(1 << n):
            if code_leq(x, y) and ratio[x] > ratio[y] + 1e-12:
                return False
    return True


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
    if G.n > 4:
        raise ValueError("dominance check limited to n <= 4")
    nu0 = np.asarray(nu0, dtype=np.float64)
    base = transition_matrix(G, beta, replace(spec, censor=None))
    if not _ratio_increasing(nu0, base.mu, G.n):
        raise ValueError("nu0/mu must be increasing for the dominance theorem")
    if schedule is None:
        schedule = [A] * t
    if len(schedule) != t:
        raise ValueError("schedule length must equal t")
    dist_unc = nu0.copy()
    dist_cen = nu0.copy()
    for Ai in schedule:
        cens = transition_matrix(G, beta, replace(spec, censor=Ai))
        dist_unc = dist_unc @ base.P
        dist_cen = dist_cen @ cens.P
    dominates = stochastically_dominates(dist_cen, dist_unc, G.n, tol=max(tol, 1e-12))
    tv_unc = 0.5 * np.abs(dist_unc - base.mu).sum()
    tv_cen = 0.5 * np.abs(dist_cen - base.mu).sum()
    return dominates, tv_unc <= tv_cen + tol

