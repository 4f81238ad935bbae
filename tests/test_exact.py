"""Exact kernels, spectra, operator decompositions, and the censoring order."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

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
    worst_row_tv,
    _cluster_kernel,
    _edge_masks,
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
        G = path(3)
        blocks = tuple(frozenset({v}) for v in range(3))
        Pb = transition_matrix(G, 0.6, DynamicsSpec("block", blocks=blocks)).P
        Pg = transition_matrix(G, 0.6, DynamicsSpec("glauber")).P
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


class TestJointSpace:
    def test_marginalization(self):
        for G in (EDGE, path(3)):
            beta = 0.5
            js = JointSpace(G, beta)
            mu = gibbs_exact(G, beta).probs
            marg = np.zeros(1 << G.n)
            for (F, x), p in zip(js.states, js.nu):
                marg[x] += p
            assert np.max(np.abs(marg - mu)) <= 1e-12

    def test_support_constraint(self):
        js = JointSpace(path(3), 0.5)
        for F, x in js.states:
            assert F & ~int(js.emasks[x]) == 0

    def test_beta0_supported_on_empty_F(self):
        js = JointSpace(EDGE, 0.0)
        for (F, x), p in zip(js.states, js.nu):
            if F != 0:
                assert p == 0.0
        live = [p for (F, x), p in zip(js.states, js.nu) if F == 0]
        assert np.allclose(live, 0.25)

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
        for (F, x, marked), p in zip(ms.states, nu_m):
            marg[js.index[(F, x)]] += p
        assert np.max(np.abs(marg - js.nu)) <= 1e-12

    def test_singletons_always_marked(self):
        js = JointSpace(EDGE, 0.5)
        ms = MarkedSpace(js)
        S = ms.build_S()
        for i, (F, x, marked) in enumerate(ms.states):
            singletons = [cm for cm in ms.comps[F] if bin(cm).count("1") == 1]
            if any(cm not in marked for cm in singletons):
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
