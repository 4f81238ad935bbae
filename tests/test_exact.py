"""Exact kernels, spectra, operator decompositions, and the censoring order."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from isingdyn import dynamics, exact
from isingdyn.dynamics import DynamicsSpec
from isingdyn.exact import (
    M_CLUSTER_LIMIT,
    N_DIRECT_LIMIT,
    JointSpace,
    MarkedSpace,
    censored_dominance,
    censoring_order_holds,
    check_censoring_order,
    check_reversibility,
    check_stationarity,
    dirichlet_form,
    spectral_report,
    transition_matrix,
    tv_mixing_time,
    verify_decompositions,
    _cluster_kernel,
    _edge_masks,
    _ratio_increasing,
    _subgraph_components,
    _vertex_mask,
)
from isingdyn.graph import Graph, cycle, path, random_regular
from isingdyn.ising import gibbs_exact
from test_acceptance import small_graph_zoo

EDGE = Graph(n=2, edges=((0, 1),))


def sw_edge_oracle(beta):
    """Hand enumeration of the SW kernel on a single edge.

    From an agreeing state: F={e} w.p. p (one component, 2 outcomes),
    F=empty w.p. 1-p (two singletons, 4 outcomes). From a disagreeing
    state E(sigma) is empty, so always two fresh singletons.
    """
    p = 1.0 - math.exp(-2.0 * beta)
    P = np.zeros((4, 4))
    for x in (0b00, 0b11):
        for y in (0b00, 0b11):
            P[x, y] += p / 2.0
        for y in range(4):
            P[x, y] += (1.0 - p) / 4.0
    for x in (0b01, 0b10):
        P[x, :] = 0.25
    return P


def loop_cluster_kernel(G: Graph, beta: float, kind: str, A: frozenset | None):
    """Exact SW / IV / MSW kernel by summation over F subset of E(sigma).

    The loop construction the library used before the Edwards-Sokal
    factorisation, kept as an independent oracle for it.
    """
    if G.m > M_CLUSTER_LIMIT or G.n > N_DIRECT_LIMIT:
        raise ValueError(f"graph too large for exact {kind} kernel")
    size = 1 << G.n
    p = 1.0 - math.exp(-2.0 * beta)
    q = 1.0 - p
    emasks = _edge_masks(G)
    cm = _subgraph_components(G)
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
                cms = list(dict.fromkeys(cm[F].tolist()))  # by lowest vertex
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


def loop_glauber_kernel(G: Graph, beta: float):
    """Exact Glauber kernel by a loop over states and vertices.

    The construction the library used before the heat-bath kernel took
    Glauber as singleton blocks, kept as an independent oracle for it.
    """
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


def loop_block_kernel(G: Graph, beta: float, blocks, A: frozenset | None, mu):
    """Average over blocks of exact heat-bath resampling of A int B_k.

    The loop construction the library used before the vectorised heat-bath
    kernel, kept as an independent oracle for it.
    """
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


def block_shapes(n):
    """Singleton, sliding-pair and whole-vertex-set blocks on n vertices."""
    return {
        "singletons": tuple(frozenset({v}) for v in range(n)),
        "pairs": tuple(frozenset({v, min(v + 1, n - 1)}) for v in range(n)),
        "whole": (frozenset(range(n)),),
    }


class TestSubgraphComponents:
    def test_one_components_call_matches_flood_fill(self, monkeypatch):
        shapes = []

        def counted(G, F_mask):
            shapes.append(np.shape(F_mask))
            return dynamics.components(G, F_mask)
        monkeypatch.setattr(exact, "components", counted)
        G = random_regular(6, 3, 3)
        _subgraph_components.cache_clear()
        cm = _subgraph_components(G)
        assert shapes == [(1 << G.m, G.m)]
        for F in range(1 << G.m):
            for v in range(G.n):
                comp, todo = {v}, [v]
                while todo:
                    x = todo.pop()
                    for i, (a, b) in enumerate(G.edges):
                        if (F >> i) & 1 and x in (a, b) and (y := a + b - x) not in comp:
                            comp.add(y)
                            todo.append(y)
                assert cm[F, v] == sum(1 << u for u in comp)


class TestTransitionMatrix:
    def test_glauber_n1(self):
        G = Graph(n=1, edges=())
        P = transition_matrix(G, 0.7, DynamicsSpec("glauber")).P
        assert np.allclose(P, 0.5)

    def test_iv_beta0_uniform(self):
        P = transition_matrix(cycle(3), 0.0, DynamicsSpec("iv")).P
        assert np.allclose(P, 1.0 / 8.0)

    def test_sw_single_edge_oracle(self):
        P = transition_matrix(EDGE, 0.5, DynamicsSpec("sw")).P
        assert np.max(np.abs(P - sw_edge_oracle(0.5))) <= 1e-14

    def test_iv_censor_empty_is_identity(self):
        P = transition_matrix(path(3), 0.4,
                              DynamicsSpec("iv", censor=frozenset())).P
        assert np.max(np.abs(P - np.eye(8))) <= 1e-14

    def test_block_singletons_equals_glauber(self):
        # the two loop oracles, independent constructions of the same kernel
        G = path(3)
        blocks = tuple(frozenset({v}) for v in range(3))
        Pb = loop_block_kernel(G, 0.6, blocks, None, gibbs_exact(G, 0.6).probs)
        Pg = loop_glauber_kernel(G, 0.6)
        assert np.max(np.abs(Pb - Pg)) <= 1e-12

    def test_block_full_rows_are_mu(self):
        G = EDGE
        tm = transition_matrix(G, 0.5, DynamicsSpec(
            "block", blocks=(frozenset({0, 1}),)))
        assert np.max(np.abs(tm.P - tm.mu[None, :])) <= 1e-13

    def test_rows_stochastic(self):
        for kind in ("sw", "iv", "msw", "glauber"):
            tm = transition_matrix(cycle(4), 0.8, DynamicsSpec(kind))
            assert np.max(np.abs(tm.P.sum(axis=1) - 1.0)) <= 1e-12


class TestClusterKernelOracle:
    @pytest.mark.parametrize("kind", ["sw", "iv", "msw"])
    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
    def test_factorised_matches_loop(self, kind, beta):
        graphs = small_graph_zoo() + [path(4), cycle(5), random_regular(6, 3, 3)]
        for G in graphs:
            for A in (None, frozenset(), frozenset({0}), frozenset(range(G.n))):
                want = loop_cluster_kernel(G, beta, kind, A)
                got = _cluster_kernel(G, beta, kind, A)
                assert np.max(np.abs(got - want)) <= 1e-12, (G, A)

    def test_guard_limit_msw(self):
        # 10 vertices and 14 edges: 16384 edge subsets, 16 chunks of F
        edges = cycle(10).edges + ((0, 5), (1, 6), (2, 7), (3, 8))
        G = Graph(n=10, edges=edges)
        tracemalloc.start()
        try:
            tm = transition_matrix(G, 0.3, DynamicsSpec("msw"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.max(np.abs(tm.P.sum(axis=1) - 1.0)) <= 1e-12
        assert check_reversibility(tm.P, tm.mu) <= 1e-10
        assert peak < 64 * 2**20
        G15 = Graph(n=10, edges=edges + ((4, 9),))
        with pytest.raises(ValueError):
            transition_matrix(G15, 0.3, DynamicsSpec("msw"))


class TestHeatBathOracle:
    @pytest.mark.parametrize("shape", ["singletons", "pairs", "whole"])
    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
    def test_vectorised_matches_loops(self, shape, beta):
        graphs = small_graph_zoo() + [path(4), cycle(5), random_regular(6, 3, 3)]
        for G in graphs:
            blocks = block_shapes(G.n)[shape]
            mu = gibbs_exact(G, beta).probs
            for A in (None, frozenset(), frozenset({0}), frozenset(range(G.n))):
                spec = DynamicsSpec("block", blocks=blocks, censor=A)
                got = transition_matrix(G, beta, spec).P
                want = loop_block_kernel(G, beta, blocks, A, mu)
                assert np.max(np.abs(got - want)) <= 1e-12, (G, A)
            if shape == "singletons":
                got = transition_matrix(G, beta, DynamicsSpec("glauber")).P
                assert np.max(np.abs(got - loop_glauber_kernel(G, beta))) <= 1e-12, G

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_guard(self):
        with pytest.raises(ValueError):
            transition_matrix(path(N_DIRECT_LIMIT + 1), 0.3, DynamicsSpec("glauber"))
        # no vertex to update: the rows are NaN, which the row check rejects
        with pytest.raises(ValueError, match="rows"):
            transition_matrix(Graph(n=0, edges=()), 0.3, DynamicsSpec("glauber"))


class TestReversibility:
    def test_identity_zero(self):
        mu = gibbs_exact(EDGE, 0.5).probs
        assert check_reversibility(np.eye(4), mu) == 0.0

    def test_negative_control(self):
        # doubly stochastic but asymmetric: cyclic shift vs uniform mu
        P = np.roll(np.eye(4), 1, axis=1)
        mu = np.full(4, 0.25)
        assert check_reversibility(P, mu) > 0.1
        assert check_stationarity(P, mu) <= 1e-15

    def test_built_kernels_reversible(self):
        for kind in ("sw", "iv", "msw", "glauber"):
            tm = transition_matrix(cycle(4), 0.5, DynamicsSpec(kind))
            assert check_reversibility(tm.P, tm.mu) <= 1e-10
            assert check_stationarity(tm.P, tm.mu) <= 1e-10

    def test_self_adjointness(self):
        rng = np.random.default_rng(0)
        tm = transition_matrix(path(3), 0.7, DynamicsSpec("iv"))
        f, g = rng.random(8), rng.random(8)
        lhs = float(np.sum(tm.mu * f * (tm.P @ g)))
        rhs = float(np.sum(tm.mu * (tm.P @ f) * g))
        assert abs(lhs - rhs) <= 1e-10


class TestSpectral:
    def test_identity(self):
        mu = np.full(4, 0.25)
        rep = spectral_report(np.eye(4), mu)
        assert rep.gap == pytest.approx(0.0, abs=1e-12)
        assert not rep.relaxation_finite

    def test_all_rows_mu(self):
        mu = gibbs_exact(EDGE, 0.5).probs
        P = np.tile(mu, (4, 1))
        rep = spectral_report(P, mu)
        assert rep.gap == pytest.approx(1.0, abs=1e-10)
        assert rep.relaxation == pytest.approx(1.0, abs=1e-9)

    def test_iv_edge_eigen_oracle(self):
        # independent eigenvalue computation on the raw 4x4 matrix
        tm = transition_matrix(EDGE, 0.5, DynamicsSpec("iv"))
        rep = spectral_report(tm.P, tm.mu)
        lam = np.sort(np.real(np.linalg.eigvals(tm.P)))[::-1]
        lam_star = max(abs(lam[1]), abs(lam[-1]))
        assert rep.gap == pytest.approx(1.0 - lam_star, abs=1e-9)

    def test_nonreversible_rejected(self):
        P = np.roll(np.eye(4), 1, axis=1)
        with pytest.raises(ValueError):
            spectral_report(P, np.full(4, 0.25))


def worst_row_tv(Pt, mu):
    return float(0.5 * np.max(np.abs(Pt - mu[None, :]).sum(axis=1)))


def loop_tv_mixing_time(P, mu, eps=0.25, cap=100_000):
    """The step-by-step construction, kept as the oracle for the search."""
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


class TestMixingTime:
    def test_all_rows_mu(self):
        mu = gibbs_exact(EDGE, 0.5).probs
        assert tv_mixing_time(np.tile(mu, (4, 1)), mu, 0.25) == 1

    def test_identity_timeout(self):
        assert tv_mixing_time(np.eye(4), np.full(4, 0.25), 0.25, cap=50) is None

    def test_glauber_matches_power_oracle(self):
        tm = transition_matrix(EDGE, 0.5, DynamicsSpec("glauber"))
        t = tv_mixing_time(tm.P, tm.mu, 0.25)
        # direct power iteration
        Pt = np.eye(4)
        t_oracle = 0
        while worst_row_tv(Pt, tm.mu) > 0.25:
            Pt = Pt @ tm.P
            t_oracle += 1
        assert t == t_oracle

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            tv_mixing_time(np.eye(2), np.full(2, 0.5), 1.5)

    def test_relaxation_mixing_bound(self):
        eps = 0.25
        for kind in ("sw", "iv", "glauber"):
            tm = transition_matrix(path(3), 0.5, DynamicsSpec(kind))
            rep = spectral_report(tm.P, tm.mu)
            t = tv_mixing_time(tm.P, tm.mu, eps)
            assert (rep.relaxation - 1.0) * math.log(1.0 / (2 * eps)) <= t + 1e-9


def _mixing_specs(n):
    A = frozenset(range(0, n, 2))
    halves = (frozenset(range(n // 2)), frozenset(range(n // 2, n)))
    return {
        "sw": DynamicsSpec("sw"),
        "iv": DynamicsSpec("iv"),
        "msw": DynamicsSpec("msw"),
        "glauber": DynamicsSpec("glauber"),
        "block": DynamicsSpec("block", blocks=halves),
        "iv-A": DynamicsSpec("iv", censor=A),
        "msw-A": DynamicsSpec("msw", censor=A),
        "block-A": DynamicsSpec("block", blocks=halves, censor=A),
    }


MIXING_GRAPHS = {"path3": path(3), "cycle4": cycle(4), "path5": path(5),
                 "cycle6": cycle(6)}
ORACLE_CAP = 2000


class TestMixingTimeSearch:
    """The doubling search returns the step-by-step loop's integer."""

    @pytest.mark.parametrize("kind", list(_mixing_specs(2)))
    @pytest.mark.parametrize("gname", list(MIXING_GRAPHS))
    def test_matches_loop_oracle(self, gname, kind):
        G = MIXING_GRAPHS[gname]
        spec = _mixing_specs(G.n)[kind]
        for beta in (0.1, 0.4, 1.0):
            tm = transition_matrix(G, beta, spec)
            for eps in (0.01, 0.1, 0.25, 0.5):
                ref = loop_tv_mixing_time(tm.P, tm.mu, eps, ORACLE_CAP)
                caps = [0, 1, ORACLE_CAP]
                if ref is not None:
                    caps += [ref, ref - 1]
                for cap in caps:
                    expect = ref if ref is not None and ref <= cap else None
                    assert tv_mixing_time(tm.P, tm.mu, eps, cap) == expect, \
                        (beta, eps, cap)

    def test_one_state_chain_is_mixed_at_0(self):
        assert tv_mixing_time(np.ones((1, 1)), np.ones(1), 0.25) == 0

    def test_rows_equal_to_mu_mix_at_1(self):
        mu = gibbs_exact(path(3), 0.7).probs
        assert tv_mixing_time(np.tile(mu, (8, 1)), mu, 0.01) == 1

    def test_cap_equal_to_answer(self):
        tm = transition_matrix(cycle(6), 0.4, DynamicsSpec("glauber"))
        t = loop_tv_mixing_time(tm.P, tm.mu, 0.1)
        assert t > 2
        assert tv_mixing_time(tm.P, tm.mu, 0.1, cap=t) == t
        assert tv_mixing_time(tm.P, tm.mu, 0.1, cap=t - 1) is None

    def test_periodic_kernel_times_out(self):
        P = np.roll(np.eye(4), 1, axis=1)
        assert tv_mixing_time(P, np.full(4, 0.25), 0.25) is None

    def test_identity_default_cap_is_fast(self):
        # the loop takes 10^5 products here; the search about 17 squarings
        start = time.perf_counter()
        assert tv_mixing_time(np.eye(4), np.full(4, 0.25), 0.25) is None
        assert time.perf_counter() - start < 0.25

    def test_memory_bound_on_1024_states(self):
        # 1024 states at t = 29: the loop peaks at 24 MiB (three matrices);
        # the search keeps P^2..P^16 (32 MiB) plus row blocks, and would
        # exceed 40 MiB if it stored the probe products in full.
        tm = transition_matrix(cycle(10), 0.3, DynamicsSpec("glauber"))
        tracemalloc.start()
        try:
            t = tv_mixing_time(tm.P, tm.mu, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t == 29
        assert peak <= 40 * 2**20


class TestDirichletForm:
    def test_constant_zero(self):
        tm = transition_matrix(EDGE, 0.5, DynamicsSpec("iv"))
        assert dirichlet_form(tm.P, tm.mu, np.ones(4), np.ones(4)) == 0.0

    def test_positivity(self):
        rng = np.random.default_rng(1)
        tm = transition_matrix(path(3), 0.5, DynamicsSpec("sw"))
        for _ in range(100):
            f = rng.standard_normal(8)
            assert dirichlet_form(tm.P, tm.mu, f, f) >= -1e-12

    def test_laplacian_identity(self):
        rng = np.random.default_rng(2)
        tm = transition_matrix(path(3), 0.4, DynamicsSpec("iv"))
        f, g = rng.standard_normal(8), rng.standard_normal(8)
        inner = float(np.sum(tm.mu * f * ((np.eye(8) - tm.P) @ g)))
        assert abs(inner - dirichlet_form(tm.P, tm.mu, f, g)) <= 1e-10


# ---------------------------------------------------------------------------
# The per-state loop construction of the joint and marked spaces that the
# library used before its index-array rewrite, kept as an independent oracle.

M_OPERATOR_LIMIT = 6


class LoopJointSpace:
    """The support of the joint edge-spin measure, with T, T*, Q_A.

    States are pairs (F, sigma) with F inside E(sigma); nu(F, sigma) is
    proportional to p^|F| (1-p)^|E \\ F|.
    """

    def __init__(self, G: Graph, beta: float):
        if G.m > M_OPERATOR_LIMIT or G.n > N_DIRECT_LIMIT:
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


class LoopMarkedSpace:
    """Triples (F, sigma, marked components) over a JointSpace, with S, K_A.

    All subsets of components are enumerated, including zero-measure ones
    (an unmarked singleton has marking weight 0); measure-weighted checks
    are unaffected and K_A keeps F and the marking fixed.
    """

    def __init__(self, joint: LoopJointSpace):
        self.joint = joint
        self.G = joint.G
        # per F, its component bitmasks in order of their lowest vertex
        comps = [list(dict.fromkeys(row))
                 for row in _subgraph_components(self.G).tolist()]
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


class TestJointSpace:
    def test_marginalization(self):
        for G in (EDGE, path(3)):
            beta = 0.5
            js = JointSpace(G, beta)
            mu = gibbs_exact(G, beta).probs
            marg = np.zeros(1 << G.n)
            np.add.at(marg, js.x, js.nu)
            assert np.max(np.abs(marg - mu)) <= 1e-12

    def test_support_constraint(self):
        G = path(3)
        js = JointSpace(G, 0.5)
        assert np.all(js.F & ~_edge_masks(G)[js.x] == 0)
        assert js.size == sum(1 << bin(int(e)).count("1") for e in _edge_masks(G))

    def test_beta0_supported_on_empty_F(self):
        js = JointSpace(EDGE, 0.0)
        assert np.all(js.nu[js.F != 0] == 0.0)
        assert np.allclose(js.nu[js.F == 0], 0.25)

    def test_edge_limit(self):
        # the bound is on states: cycle(7) (m = 7) has a 2188-state joint
        # space, and its 78128 marked states are refused
        js = JointSpace(cycle(7), 0.3)
        assert js.size == 2188
        with pytest.raises(ValueError, match="marked space has 78128 states"):
            MarkedSpace(js)
        with pytest.raises(ValueError, match="joint space has 19684 states"):
            JointSpace(cycle(9), 0.3)

    def test_T_rows_and_Tstar_entries(self):
        js = JointSpace(EDGE, 0.5)
        T = js.build_T()
        assert np.max(np.abs(T.sum(axis=1) - 1.0)) <= 1e-12
        Ts = js.build_Tstar()
        assert set(np.unique(Ts)) <= {0.0, 1.0}

    def test_T_adjointness(self):
        rng = np.random.default_rng(3)
        js = JointSpace(path(3), 0.6)
        T, Ts = js.build_T(), js.build_Tstar()
        mu = gibbs_exact(js.G, js.beta).probs
        f = rng.random(1 << 3)
        g = rng.random(js.size)
        lhs = float(np.sum(mu * f * (T @ g)))
        rhs = float(np.sum(js.nu * (Ts @ f) * g))
        assert abs(lhs - rhs) <= 1e-12

    def test_Q_algebra(self):
        js = JointSpace(path(3), 0.5)
        Q = js.build_Q(None)
        assert np.max(np.abs(Q @ Q - Q)) <= 1e-12
        flow = js.nu[:, None] * Q
        assert np.max(np.abs(flow - flow.T)) <= 1e-12
        for A in (frozenset(), frozenset({0}), frozenset({0, 1})):
            QA = js.build_Q(A)
            assert np.max(np.abs(QA @ QA - QA)) <= 1e-12
            assert np.max(np.abs(QA @ Q @ QA - Q)) <= 1e-12

    def test_Q_empty_censor_identity(self):
        js = JointSpace(EDGE, 0.5)
        Q0 = js.build_Q(frozenset())
        assert np.max(np.abs(Q0 - np.eye(js.size))) <= 1e-14


class TestMarkedSpace:
    def test_num_marginalization(self):
        js = JointSpace(EDGE, 0.5)
        ms = MarkedSpace(js)
        nu_m = ms.nu_m()
        marg = np.zeros(js.size)
        np.add.at(marg, ms.joint_index, nu_m)
        assert np.max(np.abs(marg - js.nu)) <= 1e-12

    def test_singletons_always_marked(self):
        js = JointSpace(EDGE, 0.5)
        ms = MarkedSpace(js)
        S = ms.build_S()
        cm = _subgraph_components(EDGE)
        for i, (F, M) in enumerate(zip(ms.F, ms.M)):
            singletons = [c for c in cm[F] if bin(int(c)).count("1") == 1]
            if any(c & ~M for c in singletons):
                assert np.max(S[:, i]) == 0.0

    def test_S_adjointness(self):
        rng = np.random.default_rng(4)
        js = JointSpace(path(3), 0.5)
        ms = MarkedSpace(js)
        S, Ss = ms.build_S(), ms.build_Sstar()
        nu_m = ms.nu_m()
        f = rng.random(js.size)
        g = rng.random(ms.size)
        lhs = float(np.sum(js.nu * f * (S @ g)))
        rhs = float(np.sum(nu_m * (Ss @ f) * g))
        assert abs(lhs - rhs) <= 1e-12

    def test_K_algebra(self):
        js = JointSpace(path(3), 0.5)
        ms = MarkedSpace(js)
        nu_m = ms.nu_m()
        K = ms.build_K(None)
        flowK = nu_m[:, None] * K
        assert np.max(np.abs(flowK - flowK.T)) <= 1e-12
        for A in (frozenset(), frozenset({0}), None):
            KA = ms.build_K(A)
            assert np.max(np.abs(KA @ KA - KA)) <= 1e-12
            flow = nu_m[:, None] * KA
            assert np.max(np.abs(flow - flow.T)) <= 1e-12
            assert np.max(np.abs(KA @ K @ K @ KA - K)) <= 1e-12

    def test_K_empty_censor_identity(self):
        js = JointSpace(EDGE, 0.5)
        ms = MarkedSpace(js)
        K0 = ms.build_K(frozenset())
        assert np.max(np.abs(K0 - np.eye(ms.size))) <= 1e-14


K4 = Graph(n=4, edges=tuple(itertools.combinations(range(4), 2)))
HOUSE = Graph(n=5, edges=((0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (3, 4)))


def _marked_order(ms: MarkedSpace, loop: LoopMarkedSpace) -> np.ndarray:
    """perm[i]: the loop state (F, x, marked) of the array state i."""
    return np.array([
        loop.index[(int(F), int(x), frozenset(c for c in loop.comps[F] if c & ~int(M) == 0))]
        for F, x, M in zip(ms.F, ms.x, ms.M)])


class TestLoopOracle:
    """The index-array spaces reproduce the per-state loops bit for bit."""

    @pytest.mark.parametrize("G", small_graph_zoo() + [path(4), path(5), cycle(4), cycle(5),
                                                      K4, HOUSE])
    def test_operators_equal(self, G):
        n = G.n
        for beta in (0.0, 0.3, 0.8):
            js, loop = JointSpace(G, beta), LoopJointSpace(G, beta)
            assert list(zip(js.F.tolist(), js.x.tolist())) == loop.states
            assert np.array_equal(js.nu, loop.nu)
            assert np.array_equal(js.build_T(), loop.build_T())
            assert np.array_equal(js.build_Tstar(), loop.build_Tstar())
            ms, lms = MarkedSpace(js), LoopMarkedSpace(loop)
            assert ms.size == lms.size
            perm = _marked_order(ms, lms)
            assert np.array_equal(np.sort(perm), np.arange(lms.size))
            assert np.array_equal(ms.nu_m(), lms.nu_m()[perm])
            assert np.array_equal(ms.build_S(), lms.build_S()[:, perm])
            assert np.array_equal(ms.build_Sstar(), lms.build_Sstar()[perm])
            for A in (None, frozenset(), frozenset({0}), frozenset(range(n))):
                assert np.array_equal(js.build_Q(A), loop.build_Q(A))
                assert np.array_equal(ms.build_K(A), lms.build_K(A)[np.ix_(perm, perm)])


class TestDecompositions:
    @pytest.mark.parametrize("beta", [0.3, 0.8])
    @pytest.mark.parametrize("A", [None, frozenset(), frozenset({0})])
    def test_residuals(self, beta, A):
        for G in (EDGE, path(3)):
            iv_res, msw_res = verify_decompositions(G, beta, A)
            assert iv_res <= 1e-10
            assert msw_res <= 1e-10

    def test_beta0_collapse(self):
        iv_res, msw_res = verify_decompositions(EDGE, 0.0, None)
        assert max(iv_res, msw_res) <= 1e-12

    def test_seven_edges(self):
        # K4 plus a pendant vertex: m = 7, 5480 marked states
        G = Graph(n=5, edges=K4.edges + ((3, 4),))
        assert MarkedSpace(JointSpace(G, 0.3)).size == 5480
        for A in (None, frozenset({0, 4})):
            iv_res, msw_res = verify_decompositions(G, 0.3, A)
            assert iv_res <= 1e-10 and msw_res <= 1e-10

    def test_state_count_does_not_wrap(self):
        # K10: 2^45 joint states for the all-plus configuration alone
        K10 = Graph(n=10, edges=tuple(itertools.combinations(range(10), 2)))
        with pytest.raises(ValueError, match="joint space"):
            JointSpace(K10, 0.3)

    @pytest.mark.parametrize("G,msg", [
        (random_regular(8, 3, 1), "joint space has 36288 states"),
        (cycle(7), "marked space has 78128 states"),  # its joint space (2188) fits
    ], ids=["random-regular-8-3-1", "cycle7"])
    def test_refused_before_any_operator(self, G, msg):
        verify_decompositions(path(3), 0.3)  # warm caches and imports
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match=msg):
                verify_decompositions(G, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 16 << 20  # a dense Q_A on cycle(7) alone is 37 MiB


class TestCensoringOrder:
    def test_A_equals_V_trivial(self):
        G = path(3)
        assert check_censoring_order(G, 0.5, "iv", frozenset(range(3)))

    def test_iv_single_edge_all_A(self):
        for beta in (0.2, 0.5, 1.0):
            for bits in itertools.product([0, 1], repeat=2):
                A = frozenset(v for v in range(2) if bits[v])
                assert check_censoring_order(EDGE, beta, "iv", A)

    def test_negative_control(self):
        # all-rows-mu is dominated by the identity, not vice versa
        mu = np.full(4, 0.25)
        P_id = np.eye(4)
        P_mix = np.tile(mu, (4, 1))
        assert censoring_order_holds(P_mix, P_id, mu, 2)
        assert not censoring_order_holds(P_id, P_mix, mu, 2)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            check_censoring_order(cycle(5), 0.5, "iv", frozenset({0}))


class TestCensoredDominance:
    def point_mass_all_plus(self, n):
        nu = np.zeros(1 << n)
        nu[(1 << n) - 1] = 1.0
        return nu

    def test_path3_iv(self):
        G = path(3)
        nu0 = self.point_mass_all_plus(3)
        for A in (frozenset({0}), frozenset({0, 1})):
            for t in range(1, 6):
                dom, tv_ok = censored_dominance(
                    G, 0.5, DynamicsSpec("iv"), A, nu0, t)
                assert dom and tv_ok

    def test_all_minus_start_rejected(self):
        # a point mass at the bottom state: nu0/mu falls from 1/mu(0) to 0
        nu0 = np.zeros(8)
        nu0[0] = 1.0
        with pytest.raises(ValueError, match="increasing"):
            censored_dominance(path(3), 0.5, DynamicsSpec("iv"), frozenset({0}),
                               nu0, 3)

    def test_ratio_tolerance_on_every_comparable_pair(self):
        # each covering step falls by 0.8e-12, inside the 1e-12 tolerance,
        # but 000 <= 111 falls by 2.4e-12, which must count as decreasing
        mu = np.full(8, 1.0 / 8.0)
        depth = np.array([bin(x).count("1") for x in range(8)])
        assert not _ratio_increasing((1.0 - 0.8e-12 * depth) * mu, mu, 3)
        assert _ratio_increasing((1.0 - 0.3e-12 * depth) * mu, mu, 3)
        assert _ratio_increasing((1.0 + depth) * mu, mu, 3)

    def test_uniform_start_rejected(self):
        G = path(3)
        with pytest.raises(ValueError):
            censored_dominance(G, 0.5, DynamicsSpec("iv"), frozenset({0}),
                               np.full(8, 1.0 / 8.0), 3)

    def test_explicit_schedule(self):
        G = EDGE
        nu0 = self.point_mass_all_plus(2)
        sched = [frozenset({0}), frozenset({0, 1}), frozenset({0})]
        dom, tv_ok = censored_dominance(G, 0.5, DynamicsSpec("msw"),
                                        frozenset({0}), nu0, 3,
                                        schedule=sched)
        assert dom and tv_ok

    def test_schedule_length_checked(self):
        G = EDGE
        nu0 = self.point_mass_all_plus(2)
        with pytest.raises(ValueError):
            censored_dominance(G, 0.5, DynamicsSpec("iv"), frozenset({0}),
                               nu0, 2, schedule=[frozenset({0})])
