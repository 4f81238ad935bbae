"""Gibbs measure, exact marginals, and the dominance machinery."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from isingdyn.graph import Graph, complete_tree, cycle, grid, path, sphere
from isingdyn.ising import (
    FeasibilityError,
    beta_c,
    clamped_marginals,
    code_leq,
    conditional_marginal,
    decode_spins,
    encode_spins,
    enumerate_up_sets,
    gibbs_exact,
    leq,
    stochastically_dominates,
    weight,
)

EDGE = Graph(n=2, edges=((0, 1),))
TRIANGLE = cycle(3)


class TestBetaC:
    def test_degree3(self):
        assert beta_c(3) == pytest.approx(math.atanh(0.5), abs=1e-12)

    def test_degree5(self):
        assert beta_c(5) == pytest.approx(math.atanh(0.25), abs=1e-12)

    def test_degree2_errors(self):
        with pytest.raises(ValueError):
            beta_c(2)


class TestWeight:
    def test_edgeless(self):
        assert weight(Graph(n=3, edges=()), 0.7, [1, -1, 1]) == 1.0

    def test_single_edge(self):
        assert weight(EDGE, 1.0, [1, 1]) == pytest.approx(math.e, rel=1e-12)

    def test_triangle(self):
        # agreement sum for (+,+,-) is 1 - 1 - 1 = -1
        assert weight(TRIANGLE, 0.5, [1, 1, -1]) == pytest.approx(
            math.exp(-0.5), rel=1e-12)


class TestEncoding:
    @given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=12))
    def test_roundtrip(self, spins):
        code = encode_spins(spins)
        assert list(decode_spins(code, len(spins))) == spins


class TestGibbsExact:
    def test_beta0_uniform(self):
        t = gibbs_exact(TRIANGLE, 0.0)
        assert np.allclose(t.probs, 1.0 / 8.0)

    def test_isolated_vertex(self):
        t = gibbs_exact(Graph(n=1, edges=()), 0.9)
        assert np.allclose(t.probs, 0.5)

    def test_single_edge_oracle(self):
        # mu(++) = mu(--) = e^{0.5} / (2 e^{0.5} + 2 e^{-0.5})
        t = gibbs_exact(EDGE, 0.5)
        z = 2 * math.exp(0.5) + 2 * math.exp(-0.5)
        assert t.probs[0b11] == pytest.approx(math.exp(0.5) / z, abs=1e-14)
        assert t.probs[0b00] == pytest.approx(math.exp(0.5) / z, abs=1e-14)
        assert t.probs[0b01] == pytest.approx(math.exp(-0.5) / z, abs=1e-14)
        assert t.logZ == pytest.approx(math.log(z), abs=1e-12)

    def test_normalization_and_flip_symmetry(self):
        for G in (EDGE, path(3), TRIANGLE, cycle(4)):
            t = gibbs_exact(G, 0.8)
            assert abs(t.probs.sum() - 1.0) <= 1e-12
            full = (1 << G.n) - 1
            for x in range(1 << G.n):
                assert t.probs[x] == pytest.approx(t.probs[x ^ full], rel=1e-12)

    def test_limit(self):
        with pytest.raises(ValueError):
            gibbs_exact(cycle(21), 0.1)

    def test_matches_direct_weights(self):
        G = path(4)
        beta = 0.6
        t = gibbs_exact(G, beta)
        ws = np.array([weight(G, beta, decode_spins(x, G.n))
                       for x in range(1 << G.n)])
        assert np.allclose(t.probs, ws / ws.sum(), atol=1e-13)


class TestConditionalMarginal:
    def test_truly_isolated(self):
        G = Graph(n=3, edges=((0, 1),))
        assert conditional_marginal(G, 0.7, 2, {0: 1, 1: 1}) == pytest.approx(0.5)

    def test_beta0(self):
        assert conditional_marginal(path(3), 0.0, 1, {0: 1, 2: -1}) \
            == pytest.approx(0.5, abs=1e-14)

    def test_path_both_plus(self):
        val = conditional_marginal(path(3), 0.5, 1, {0: 1, 2: 1})
        assert val == pytest.approx(math.e / (math.e + 1.0 / math.e), abs=1e-13)

    def test_v_in_boundary_rejected(self):
        with pytest.raises(ValueError):
            conditional_marginal(path(3), 0.5, 0, {0: 1})

    def test_matches_gibbs_restriction(self):
        # exhaustive cross-check on n <= 4 against the full table
        for G in (path(3), cycle(4)):
            beta = 0.4
            t = gibbs_exact(G, beta)
            for W in itertools.combinations(range(G.n), 2):
                v = next(u for u in range(G.n) if u not in W)
                for bits in itertools.product([-1, 1], repeat=len(W)):
                    boundary = dict(zip(W, bits))
                    num = den = 0.0
                    for x in range(1 << G.n):
                        if all((1 if (x >> u) & 1 else -1) == s
                               for u, s in boundary.items()):
                            den += t.probs[x]
                            if (x >> v) & 1:
                                num += t.probs[x]
                    assert conditional_marginal(G, beta, v, boundary) \
                        == pytest.approx(num / den, abs=1e-12)

    def test_monotone_in_boundary(self):
        # larger boundaries push the conditional up
        G = cycle(4)
        beta = 0.8
        for bits_lo in itertools.product([-1, 1], repeat=2):
            for bits_hi in itertools.product([-1, 1], repeat=2):
                if all(a <= b for a, b in zip(bits_lo, bits_hi)):
                    lo = conditional_marginal(G, beta, 0, {1: bits_lo[0], 3: bits_lo[1]})
                    hi = conditional_marginal(G, beta, 0, {1: bits_hi[0], 3: bits_hi[1]})
                    assert lo <= hi + 1e-10

    @pytest.mark.parametrize("G,v,R", [(complete_tree(3, 3), 1, 1),  # tree
                                       (grid(4, 4), 0, 2)],  # has a 4-cycle
                             ids=["tree", "enumeration"])
    def test_many_clampings_match_one_at_a_time(self, G, v, R):
        S = sorted(sphere(G, v, R))
        codes = np.arange(1 << len(S))
        spins = {u: 2 * ((codes >> j) & 1) - 1 for j, u in enumerate(S)}
        batched = clamped_marginals(G, 0.6, v, spins)
        assert batched.shape == codes.shape
        for c in codes:
            one = conditional_marginal(G, 0.6, v, {u: int(s[c]) for u, s in spins.items()})
            assert batched[c] == pytest.approx(one, abs=1e-12)

    def test_free_region_limit(self):
        # a 25-vertex grid component is not a tree and exceeds 2^20 states
        with pytest.raises(FeasibilityError, match="exceeds limit"):
            conditional_marginal(grid(5, 5), 0.3, 0, {})


class TestPartialOrder:
    def test_reflexive(self):
        assert leq([1, -1], [1, -1])

    def test_bottom(self):
        assert leq([-1, -1, -1], [1, -1, 1])

    def test_incomparable(self):
        assert not leq([1, -1], [-1, 1])
        assert not leq([-1, 1], [1, -1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            leq([1], [1, 1])

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_code_order_agrees(self, x, y):
        assert code_leq(x, y) == leq(decode_spins(x, 4), decode_spins(y, 4))


class TestUpSets:
    def test_counts(self):
        # Dedekind numbers M(1..3), plus n=4
        assert len(enumerate_up_sets(1)) == 3
        assert len(enumerate_up_sets(2)) == 6
        assert len(enumerate_up_sets(3)) == 20
        assert len(enumerate_up_sets(4)) == 168

    def test_contains_extremes(self):
        ups = enumerate_up_sets(2)
        assert frozenset() in ups
        assert frozenset(range(4)) in ups

    def test_upward_closure(self):
        for U in enumerate_up_sets(3):
            for x in U:
                for y in range(8):
                    if code_leq(x, y):
                        assert y in U

    def test_limit(self):
        with pytest.raises(ValueError):
            enumerate_up_sets(5)


class TestDominance:
    def test_equal(self):
        mu = gibbs_exact(EDGE, 0.5).probs
        assert stochastically_dominates(mu, mu, 2)

    def test_top_point_mass(self):
        point = np.zeros(4)
        point[0b11] = 1.0
        mu = gibbs_exact(EDGE, 1.0).probs
        assert stochastically_dominates(point, mu, 2)
        assert not stochastically_dominates(mu, point, 2)

    def test_symmetric_measures_tie(self):
        # both Gibbs tables are flip-symmetric, so each up-set mass pair
        # differs only through correlation; neither strictly dominates
        mu1 = gibbs_exact(EDGE, 1.0).probs
        mu2 = gibbs_exact(EDGE, 0.5).probs
        d12 = stochastically_dominates(mu1, mu2, 2)
        d21 = stochastically_dominates(mu2, mu1, 2)
        assert not (d12 and not d21) and not (d21 and not d12)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            stochastically_dominates(np.ones(4), np.full(4, 0.25), 2)

    def test_conditional_dominance(self):
        # mu(.|tau1) dominates mu(.|tau2) when tau1 >= tau2 on the boundary
        G = path(3)
        beta = 0.6
        t = gibbs_exact(G, beta)
        for b1 in (-1, 1):
            for b2 in (-1, 1):
                if b1 < b2:
                    continue
                cond = []
                for b in (b1, b2):
                    mask = [(x, t.probs[x]) for x in range(8)
                            if (1 if (x >> 0) & 1 else -1) == b]
                    z = sum(p for _, p in mask)
                    dist = np.zeros(8)
                    for x, p in mask:
                        dist[x] = p / z
                    cond.append(dist)
                assert stochastically_dominates(cond[0], cond[1], 3)
