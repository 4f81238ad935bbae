"""Step kernels: percolation, components, and the five dynamics."""

import itertools
import json
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingdyn.dynamics import (
    DynamicsSpec,
    agreeing_edges,
    block_step,
    components,
    glauber_step,
    iv_step,
    msw_step_alt,
    percolate,
    run_chain,
    step,
    sw_step,
)
from isingdyn.exact import transition_matrix
from isingdyn.graph import Graph, cycle, path
from isingdyn.ising import encode_spins
from isingdyn.randomness import SharedRandomness, StepDraws, sequential_draws

EDGE = Graph(n=2, edges=((0, 1),))


def draws_for(G, seed=0, t=1):
    return SharedRandomness(seed, G.n, G.m).at(t)


def fixed_draws(G, edge_u=0.0, spins=1, vert_u=0.0, selector=0.0):
    return StepDraws(
        edge_uniforms=np.full(G.m, edge_u),
        vertex_spins=np.full(G.n, spins, dtype=np.int8),
        vertex_uniforms=np.full(G.n, vert_u),
        selector=selector,
    )


def msw_step(G, beta, spins, draws, A=None):
    """Monotone SW in the accept-draw form: a component C inside A is
    recolored with probability 2^-(|C|-1).

    The accept draw uses u_t at the component's smallest vertex, the new
    spin s_t at the same vertex. The oracle for msw_step_alt's per-vertex
    form, which is distributionally identical.
    """
    spins = np.asarray(spins, dtype=np.int8)
    root = components(G, percolate(G, spins, beta, draws.edge_uniforms))
    size = np.bincount(root, minlength=G.n)
    blocked = np.zeros(G.n, dtype=bool)
    if A is not None:
        blocked[root[[v not in A for v in range(G.n)]]] = True
    accept = ~blocked & (draws.vertex_uniforms < 2.0 ** (1 - size))
    return np.where(accept[root], draws.vertex_spins[root], spins)


# The loop forms below are the union-find with member lists and the cluster
# steps that walked it one component at a time, kept verbatim as oracles
# for the root-array forms.


def loop_components(G, F_mask):
    """(comp_id, members) of (V, F): ids in order of smallest vertex."""
    parent = list(range(G.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, keep in enumerate(F_mask):
        if keep:
            u, w = G.edges[i]
            ru, rw = find(u), find(w)
            if ru != rw:
                parent[max(ru, rw)] = min(ru, rw)

    roots = {}
    comp_id = np.empty(G.n, dtype=np.int64)
    members: list[list[int]] = []
    for v in range(G.n):
        r = find(v)
        if r not in roots:
            roots[r] = len(members)
            members.append([])
        comp_id[v] = roots[r]
        members[comp_id[v]].append(v)
    return comp_id, members


def loop_sw_step(G, beta, spins, draws):
    F = percolate(G, spins, beta, draws.edge_uniforms)
    _, members = loop_components(G, F)
    out = np.empty(G.n, dtype=np.int8)
    for ms in members:
        out[ms] = draws.vertex_spins[ms[0]]
    return out


def loop_msw_step(G, beta, spins, draws, A=None):
    spins = np.asarray(spins, dtype=np.int8)
    F = percolate(G, spins, beta, draws.edge_uniforms)
    _, members = loop_components(G, F)
    out = spins.copy()
    for ms in members:
        if A is not None and any(v not in A for v in ms):
            continue
        lead = ms[0]
        if draws.vertex_uniforms[lead] < 2.0 ** (1 - len(ms)):
            out[ms] = draws.vertex_spins[lead]
    return out


def loop_msw_step_alt(G, beta, spins, draws, A=None):
    spins = np.asarray(spins, dtype=np.int8)
    F = percolate(G, spins, beta, draws.edge_uniforms)
    _, members = loop_components(G, F)
    out = spins.copy()
    s = draws.vertex_spins
    for ms in members:
        if A is not None and any(v not in A for v in ms):
            continue
        first = s[ms[0]]
        if all(s[v] == first for v in ms[1:]):
            out[ms] = first
    return out


def bfs_roots(G, F_mask):
    """Smallest vertex reachable from each v over the edges of F."""
    adj = [[] for _ in range(G.n)]
    for (u, w), keep in zip(G.edges, F_mask):
        if keep:
            adj[u].append(w)
            adj[w].append(u)
    out = []
    for v in range(G.n):
        seen, dq = {v}, deque([v])
        while dq:
            for x in adj[dq.popleft()]:
                if x not in seen:
                    seen.add(x)
                    dq.append(x)
        out.append(min(seen))
    return out


@st.composite
def small_graphs(draw):
    """A random edge subset of K_n (n <= 12), in random order and orientation."""
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = draw(st.permutations([e for e, k in zip(pairs, keep) if k]))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return Graph(n=n, edges=tuple((w, u) if f else (u, w)
                                  for (u, w), f in zip(edges, flips)))


@st.composite
def cluster_cases(draw):
    """(G, beta, spins, draws, A) with draws from SharedRandomness."""
    G = draw(small_graphs())
    beta = draw(st.sampled_from([0.0, 0.2, 0.7, 3.0]))
    spins = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=G.n,
                                   max_size=G.n)), dtype=np.int8)
    seed, t = draw(st.integers(0, 2**31)), draw(st.integers(0, 10**6))
    A = draw(st.none() | st.frozensets(st.integers(0, G.n - 1)))
    return G, beta, spins, SharedRandomness(seed, G.n, G.m).at(t), A


def assert_identical(got, want):
    assert got.dtype == want.dtype and np.array_equal(got, want)


class TestRootArrayProperties:
    @settings(max_examples=200)
    @given(small_graphs(), st.data())
    def test_components_match_bfs_and_loop(self, G, data):
        F = data.draw(st.lists(st.booleans(), min_size=G.m, max_size=G.m))
        root = components(G, np.array(F, dtype=bool))
        assert root.dtype == np.int64
        assert root.tolist() == bfs_roots(G, F)
        comp_id, members = loop_components(G, F)
        assert root.tolist() == [members[c][0] for c in comp_id]

    @settings(max_examples=200)
    @given(cluster_cases())
    def test_sw_step_matches_loop(self, case):
        G, beta, spins, d, _ = case
        assert_identical(sw_step(G, beta, spins, d), loop_sw_step(G, beta, spins, d))

    @settings(max_examples=200)
    @given(cluster_cases())
    def test_msw_step_alt_matches_loop(self, case):
        G, beta, spins, d, A = case
        assert_identical(msw_step_alt(G, beta, spins, d, A),
                         loop_msw_step_alt(G, beta, spins, d, A))

    @settings(max_examples=200)
    @given(cluster_cases())
    def test_msw_step_matches_loop(self, case):
        G, beta, spins, d, A = case
        assert_identical(msw_step(G, beta, spins, d, A),
                         loop_msw_step(G, beta, spins, d, A))


class TestHeatBathSteps:
    @settings(max_examples=200)
    @given(cluster_cases())
    def test_glauber_step_is_singleton_block_step(self, case):
        G, beta, spins, d, _ = case
        singletons = tuple(frozenset({v}) for v in range(G.n))
        assert_identical(glauber_step(G, beta, spins, d),
                         block_step(G, beta, spins, singletons, d))


class TestDynamicsSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DynamicsSpec("wolff")

    def test_sw_censor_rejected(self):
        with pytest.raises(ValueError):
            DynamicsSpec("sw", censor=frozenset({0}))

    def test_glauber_censor_rejected(self):
        with pytest.raises(ValueError, match="singleton blocks"):
            DynamicsSpec("glauber", censor=frozenset({0}))

    def test_block_needs_blocks(self):
        with pytest.raises(ValueError):
            DynamicsSpec("block")

    def test_nonblock_rejects_blocks(self):
        with pytest.raises(ValueError):
            DynamicsSpec("iv", blocks=(frozenset({0}),))

    def test_blocks_must_cover(self):
        spec = DynamicsSpec("block", blocks=(frozenset({0}),))
        with pytest.raises(ValueError):
            spec.validate_for(path(3))

    def test_json_roundtrip(self):
        spec = DynamicsSpec("block", blocks=(frozenset({0, 1}), frozenset({2})),
                            censor=frozenset({0, 2}))
        back = DynamicsSpec.from_json(spec.to_json())
        assert back == spec
        obj = json.loads(spec.to_json())
        assert set(obj) == {"kind", "blocks", "censor"}


class TestPercolation:
    def test_agreeing_all_plus(self):
        G = cycle(5)
        assert agreeing_edges(G, np.ones(5)).all()

    def test_agreeing_alternating(self):
        G = path(4)
        assert not agreeing_edges(G, [1, -1, 1, -1]).any()

    def test_agreeing_triangle(self):
        G = cycle(3)  # edges (0,1),(1,2),(2,0)
        mask = agreeing_edges(G, [1, 1, -1])
        assert list(mask) == [True, False, False]

    def test_beta0_empty(self):
        G = cycle(4)
        F = percolate(G, np.ones(4), 0.0, np.zeros(4))
        assert not F.any()

    def test_threshold_inclusive(self):
        # r(e) = 0 <= p keeps every agreeing edge for beta > 0
        G = cycle(4)
        F = percolate(G, np.ones(4), 0.3, np.zeros(4))
        assert F.all()

    def test_never_includes_disagreeing(self):
        G = path(4)
        F = percolate(G, [1, -1, -1, 1], 5.0, np.zeros(3))
        assert list(F) == [False, True, False]

    def test_keep_probability_half(self):
        # beta = ln(2)/2 gives p = 1/2
        beta = math.log(2.0) / 2.0
        rng = np.random.default_rng(7)
        G = EDGE
        n_trials = 200_000
        kept = sum(percolate(G, [1, 1], beta, rng.random(1))[0]
                   for _ in range(n_trials))
        p_hat = kept / n_trials
        assert abs(p_hat - 0.5) < 3 * math.sqrt(0.25 / n_trials)


class TestComponents:
    def test_empty_F(self):
        assert components(cycle(4), [False] * 4).tolist() == [0, 1, 2, 3]

    def test_full_F(self):
        assert components(cycle(4), [True] * 4).tolist() == [0, 0, 0, 0]

    def test_two_pairs(self):
        G = cycle(4)  # edges (0,1),(1,2),(2,3),(3,0)
        assert components(G, [True, False, True, False]).tolist() == [0, 0, 2, 2]


class TestStepFunctions:
    def test_sw_beta0_is_product_sample(self):
        G = cycle(4)
        d = draws_for(G)
        out = sw_step(G, 0.0, np.full(4, -1, dtype=np.int8), d)
        assert np.array_equal(out, d.vertex_spins)

    def test_iv_no_isolated_identity(self):
        G = EDGE
        d = fixed_draws(G, edge_u=0.0, spins=-1)
        out = iv_step(G, 1.0, [1, 1], d)
        assert list(out) == [1, 1]

    def test_iv_censor_empty_identity(self):
        G = cycle(4)
        d = draws_for(G)
        start = np.array([1, -1, 1, -1], dtype=np.int8)
        out = iv_step(G, 0.2, start, d, A=frozenset())
        assert np.array_equal(out, start)

    def test_iv_beta0_product_sample(self):
        G = cycle(4)
        d = draws_for(G, seed=3)
        out = iv_step(G, 0.0, np.ones(4, dtype=np.int8), d)
        assert np.array_equal(out, d.vertex_spins)

    def test_msw_singleton_always_resampled(self):
        # beta=0 isolates everything; every vertex takes its drawn spin
        G = path(3)
        d = draws_for(G, seed=5)
        out = msw_step(G, 0.0, np.ones(3, dtype=np.int8), d)
        assert np.array_equal(out, d.vertex_spins)

    def test_msw_resample_probability_half(self):
        # forced size-2 component: accept frequency must be ~ 1/2
        G = EDGE
        rng = np.random.default_rng(11)
        n_trials = 100_000
        flips = 0
        for _ in range(n_trials):
            d = StepDraws(np.zeros(1), 2 * rng.integers(0, 2, 2).astype(np.int8) - 1,
                          rng.random(2), 0.0)
            out = msw_step(G, 5.0, np.array([1, 1], dtype=np.int8), d)
            flips += out[0] == -1
        # resampled (prob 1/2) and then minus (prob 1/2) => 1/4
        p_hat = flips / n_trials
        assert abs(p_hat - 0.25) < 4 * math.sqrt(0.25 * 0.75 / n_trials)

    def test_msw_alt_matches_msw_kernel(self):
        # empirical one-step laws from a fixed state against the exact row
        G = path(3)
        beta = 0.5
        x0 = np.array([1, 1, -1], dtype=np.int8)
        row = transition_matrix(G, beta, DynamicsSpec("msw")).P[encode_spins(x0)]
        rng = np.random.default_rng(2)
        n_trials = 60_000
        for step_fn in (msw_step, msw_step_alt):
            counts = np.zeros(8)
            for _ in range(n_trials):
                d = sequential_draws(rng, G.n, G.m)
                counts[encode_spins(step_fn(G, beta, x0, d))] += 1
            tv = 0.5 * np.abs(counts / n_trials - row).sum()
            assert tv <= 0.015

    def test_glauber_forced_plus(self):
        G = path(3)
        # u(v) = 0 <= p_plus always: chosen vertex forced to +
        d = fixed_draws(G, vert_u=0.0, selector=0.4)  # picks vertex 1
        out = glauber_step(G, 0.5, np.full(3, -1, dtype=np.int8), d)
        assert list(out) == [-1, 1, -1]

    def test_glauber_threshold_value(self):
        # v with all-plus neighbors on a star: p_plus = e^{1.5}/(e^{1.5}+e^{-1.5})
        G = Graph(n=4, edges=((0, 1), (0, 2), (0, 3)))
        p_plus = 1.0 / (1.0 + math.exp(-2.0 * 0.5 * 3))
        start = np.array([-1, 1, 1, 1], dtype=np.int8)
        d_lo = fixed_draws(G, vert_u=p_plus - 1e-9, selector=0.0)
        d_hi = fixed_draws(G, vert_u=p_plus + 1e-9, selector=0.0)
        assert glauber_step(G, 0.5, start, d_lo)[0] == 1
        assert glauber_step(G, 0.5, start, d_hi)[0] == -1

    def test_block_disjoint_censor_identity(self):
        G = path(3)
        blocks = (frozenset({0, 1}), frozenset({2}))
        d = fixed_draws(G, selector=0.0)  # picks block {0,1}
        start = np.array([1, -1, 1], dtype=np.int8)
        out = block_step(G, 0.4, start, blocks, d, A=frozenset({2}))
        assert np.array_equal(out, start)

    def test_block_full_resample_forced(self):
        G = EDGE
        d = fixed_draws(G, vert_u=0.0)
        out = block_step(G, 0.5, np.array([-1, -1], dtype=np.int8),
                         (frozenset({0, 1}),), d)
        assert list(out) == [1, 1]

    def test_untouched_vertices_identical(self):
        G = cycle(6)
        rng = np.random.default_rng(9)
        start = (2 * rng.integers(0, 2, 6) - 1).astype(np.int8)
        d = sequential_draws(rng, G.n, G.m)
        out = iv_step(G, 0.8, start, d, A=frozenset({0, 1}))
        for v in range(2, 6):
            assert out[v] == start[v]


class TestEmpiricalKernels:
    @pytest.mark.parametrize("kind", ["sw", "iv", "msw", "glauber"])
    def test_one_step_law_matches_exact(self, kind):
        G = EDGE
        beta = 0.5
        spec = DynamicsSpec(kind)
        P = transition_matrix(G, beta, spec).P
        rng = np.random.default_rng(13)
        for x0 in (np.array([1, 1], dtype=np.int8),
                   np.array([1, -1], dtype=np.int8)):
            counts = np.zeros(4)
            n_trials = 60_000
            for _ in range(n_trials):
                d = sequential_draws(rng, G.n, G.m)
                counts[encode_spins(step(G, beta, spec, x0, d))] += 1
            tv = 0.5 * np.abs(counts / n_trials - P[encode_spins(x0)]).sum()
            assert tv <= 0.015


class TestRunChain:
    def test_deterministic(self):
        G = cycle(6)
        spec = DynamicsSpec("iv")
        a, _ = run_chain(G, 0.3, spec, 50, seed=4)
        b, _ = run_chain(G, 0.3, spec, 50, seed=4)
        assert np.array_equal(a, b)

    def test_collection_windows(self):
        G = EDGE
        _, collected = run_chain(G, 0.5, DynamicsSpec("sw"), 10, seed=1,
                                 collect_every=2, collect_after=4)
        assert len(collected) == 3  # steps 6, 8, 10

    def test_start_state_respected(self):
        G = path(3)
        start = np.array([-1, 1, -1], dtype=np.int8)
        out, _ = run_chain(G, 0.4, DynamicsSpec("iv", censor=frozenset()),
                           5, seed=0, start=start)
        assert np.array_equal(out, start)


class TestSharedRandomness:
    def test_counter_access_deterministic(self):
        sr = SharedRandomness(42, 5, 5)
        d1, d2 = sr.at(7), sr.at(7)
        assert np.array_equal(d1.edge_uniforms, d2.edge_uniforms)
        assert np.array_equal(d1.vertex_spins, d2.vertex_spins)
        assert d1.selector == d2.selector

    def test_steps_differ(self):
        sr = SharedRandomness(42, 5, 5)
        assert not np.array_equal(sr.at(1).edge_uniforms, sr.at(2).edge_uniforms)

    def test_selector_indexing(self):
        d = StepDraws(np.zeros(1), np.ones(2, dtype=np.int8), np.zeros(2), 0.999)
        assert d.block_index(3) == 2
        assert d.vertex_index(5) == 4
