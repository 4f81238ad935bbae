"""Step kernels: percolation, components, and the five dynamics."""

import itertools
import math
import timeit
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingdyn.dynamics import (
    M_CLUSTER_LIMIT,
    N_DIRECT_LIMIT,
    DynamicsSpec,
    _label,
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
from isingdyn.graph import Graph, cycle, path, random_regular
from isingdyn.ising import ENUM_LIMIT, conditional_marginal, encode_spins
from isingdyn import randomness
from isingdyn.randomness import (
    _STREAM_TAG,
    SharedRandomness,
    StepDraws,
    draw_block,
    sequential_draws,
)

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


def degree_iv_step(G, beta, spins, draws, A=None):
    """iv_step as it was, counting each vertex's degree in F with np.add.at:
    the oracle for marking F's endpoints in the censor mask."""
    spins = np.asarray(spins, dtype=np.int8)
    F = percolate(G, spins, beta, draws.edge_uniforms)
    u, w = G.endpoint_arrays()
    deg = np.zeros(G.n, dtype=np.int64)
    np.add.at(deg, u[F], 1)
    np.add.at(deg, w[F], 1)
    isolated = (deg == 0) & (np.ones(G.n, dtype=bool) if A is None
                             else np.isin(np.arange(G.n), list(A)))
    out = spins.copy()
    out[isolated] = draws.vertex_spins[isolated]
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


def union_find_roots(G, F_mask):
    """The Python union-find that `components` was before the numpy labeller.

    Each union points the larger root at the smaller one, so parent[v] <= v
    throughout and one ascending pass resolves every root.
    """
    parent = list(range(G.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in np.flatnonzero(F_mask).tolist():
        u, w = G.edges[i]
        ru, rw = find(u), find(w)
        if ru != rw:
            parent[max(ru, rw)] = min(ru, rw)
    for v in range(G.n):
        parent[v] = parent[parent[v]]
    return np.array(parent, dtype=np.int64)


@st.composite
def small_graphs(draw, max_n=12, max_m=None):
    """A random edge subset of K_n (n <= max_n, at most max_m edges), in
    random order and orientation."""
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = draw(st.permutations([e for e, k in zip(pairs, keep) if k]))[:max_m]
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


@st.composite
def direct_graphs(draw):
    """Graphs with cycles past the subset table's limits, on up to 64
    vertices: a random cubic graph, or a randomly labelled random tree plus
    random chords."""
    n = draw(st.integers(N_DIRECT_LIMIT + 1, 64))
    if draw(st.booleans()):
        return random_regular(n + n % 2, 3, draw(st.integers(0, 2**16)))
    label = draw(st.permutations(range(n)))
    pairs = [(label[v], label[draw(st.integers(0, v - 1))]) for v in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=2 * n))
    edges = {}
    for u, w in pairs:
        if u != w:
            edges.setdefault(frozenset((u, w)), (u, w))
    return Graph(n=n, edges=tuple(edges.values()))


def edge_rows(data, G, K=None):
    """A random (m,) edge mask, or (K, m) when K is given."""
    k = 1 if K is None else K
    rows = data.draw(st.lists(st.lists(st.booleans(), min_size=G.m, max_size=G.m),
                              min_size=k, max_size=k))
    F = np.array(rows, dtype=bool).reshape(k, G.m)
    return F[0] if K is None else F


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
        assert_identical(root, union_find_roots(G, F))

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

    @settings(max_examples=200)
    @given(cluster_cases())
    def test_iv_step_matches_degree_count(self, case):
        G, beta, spins, d, A = case
        assert_identical(iv_step(G, beta, spins, d, A),
                         degree_iv_step(G, beta, spins, d, A))


def loop_block_step(G, beta, spins, blocks, draws, A=None):
    """block_step as it was, clamping every vertex outside the free set:
    the oracle for clamping only the free set's outer boundary."""
    spins = np.asarray(spins, dtype=np.int8)
    k = draws.block_index(len(blocks))
    free = sorted(blocks[k] if A is None else (blocks[k] & A))
    out = spins.copy()
    if not free:
        return out
    free_set = set(free)
    boundary = {u: s for u, s in enumerate(out.tolist()) if u not in free_set}
    for v in free:
        p_plus = conditional_marginal(G, beta, v, boundary)
        out[v] = boundary[v] = 1 if draws.vertex_uniforms[v] <= p_plus else -1
    return out


class TestHeatBathSteps:
    @settings(max_examples=200)
    @given(cluster_cases())
    def test_glauber_step_is_singleton_block_step(self, case):
        G, beta, spins, d, _ = case
        singletons = tuple(frozenset({v}) for v in range(G.n))
        assert_identical(glauber_step(G, beta, spins, d),
                         block_step(G, beta, spins, singletons, d))

    @settings(max_examples=300)
    @given(cluster_cases(), st.data())
    def test_block_step_matches_loop(self, case, data):
        G, beta, spins, d, A = case
        # blocks: random vertex sets (overlaps allowed), then the uncovered rest
        blocks = data.draw(st.lists(st.frozensets(st.integers(0, G.n - 1), min_size=1),
                                    max_size=4))
        rest = frozenset(range(G.n)).difference(*blocks)
        blocks = tuple(data.draw(st.permutations(blocks + ([rest] if rest else []))))
        assert_identical(block_step(G, beta, spins, blocks, d, A),
                         loop_block_step(G, beta, spins, blocks, d, A))


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

    @pytest.mark.parametrize("size,ok", [(ENUM_LIMIT, True), (ENUM_LIMIT + 1, False)])
    def test_block_size_limit(self, size, ok):
        G = path(ENUM_LIMIT + 1)
        blocks = (frozenset(range(size)), frozenset(range(size, G.n)) or frozenset({0}))
        spec = DynamicsSpec("block", blocks=blocks)
        if ok:
            spec.validate_for(G)
        else:
            with pytest.raises(ValueError, match="block too large"):
                spec.validate_for(G)

    def test_json_roundtrip(self):
        spec = DynamicsSpec("block", blocks=(frozenset({0, 1}), frozenset({2})),
                            censor=frozenset({0, 2}))
        text = '{"kind": "block", "blocks": [[0, 1], [2]], "censor": [0, 2]}'
        assert DynamicsSpec.from_json(text) == spec
        assert DynamicsSpec.from_json('{"kind": "iv"}') == DynamicsSpec("iv")


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


class TestLabeller:
    """`components` in both regimes: the all-subsets table (n <= N_DIRECT_LIMIT
    and m <= M_CLUSTER_LIMIT) and direct hook-and-jump rows."""

    @settings(max_examples=100)
    @given(direct_graphs(), st.data())
    def test_direct_rows_match_union_find(self, G, data):
        F = edge_rows(data, G)
        root = components(G, F)
        assert_identical(root, union_find_roots(G, F))
        assert root.tolist() == bfs_roots(G, F)

    @settings(max_examples=100)
    @given(small_graphs() | direct_graphs(), st.integers(0, 5), st.data())
    def test_batch_equals_row_by_row(self, G, K, data):
        F = edge_rows(data, G, K)
        roots = components(G, F)
        assert roots.shape == (K, G.n) and roots.dtype == np.int64
        for row, f in zip(roots, F):
            assert_identical(row, components(G, f))

    @settings(max_examples=100)
    @given(small_graphs(max_n=N_DIRECT_LIMIT, max_m=M_CLUSTER_LIMIT), st.data())
    def test_table_equals_direct_label(self, G, data):
        F = edge_rows(data, G, 4)
        assert_identical(components(G, F), _label(G, F))
        assert_identical(components(G, F[0]), _label(G, F[0]))

    @pytest.mark.parametrize("G", [cycle(4), cycle(N_DIRECT_LIMIT + 2)], ids=["table", "direct"])
    def test_result_is_a_fresh_writable_array(self, G):
        F = [True, False] * (G.n // 2)
        root = components(G, F)
        root[:] = -1
        assert_identical(components(G, F), union_find_roots(G, F))

    def test_star_with_hub_last(self):
        """Offers to the hub's root are taken smallest first (two hook rounds).
        Hooking by fancy assignment, where the last write wins, took 4095
        rounds here: about 60 times the union-find's time."""
        n = 4096
        G = Graph(n=n, edges=tuple((v, n - 1) for v in range(n - 1)))
        F = np.ones(G.m, dtype=bool)
        assert not components(G, F).any()
        t_label = min(timeit.repeat(lambda: components(G, F), number=1, repeat=3))
        t_oracle = min(timeit.repeat(lambda: union_find_roots(G, F), number=1, repeat=3))
        assert t_label < t_oracle


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

    @staticmethod
    def sequential_chain(G, spec, steps, seed):
        """The chain with one sequential_draws call per step (the oracle)."""
        rng = np.random.default_rng(np.random.SeedSequence((0xD1CE, seed)))
        spins = np.ones(G.n, dtype=np.int8)
        states = []
        for _ in range(steps):
            spins = step(G, 0.4, spec, spins, sequential_draws(rng, G.n, G.m))
            states.append(spins)
        return states

    @pytest.mark.parametrize("G, kind", [(EDGE, "sw"), (path(3), "msw"), (cycle(5), "iv")])
    def test_equals_sequential_draws_across_blocks(self, G, kind, monkeypatch):
        spec = DynamicsSpec(kind)
        # the default budget: EDGE reads 819 steps per block, path(3) 512, cycle(5) 292
        steps = 2000 if G.n < 3 else 1200
        _, got = run_chain(G, 0.4, spec, steps, seed=7, collect_every=1)
        assert np.array_equal(got, self.sequential_chain(G, spec, steps, 7))
        # a 40-word budget puts many boundaries, some on a buffered half
        monkeypatch.setattr(randomness, "_BLOCK_WORDS", 40)
        _, got = run_chain(G, 0.4, spec, 101, seed=8, collect_every=1)
        assert np.array_equal(got, self.sequential_chain(G, spec, 101, 8))

    @pytest.mark.parametrize("start", [[0, 1, 1, 1], [2, -1, 1, 1], [1, 1, 1],
                                       [1, 1, 1, 1, 1], [[1, 1], [1, 1]], 1])
    def test_bad_start_refused(self, start):
        with pytest.raises(ValueError, match="start must be 4 spins"):
            run_chain(cycle(4), 0.4, DynamicsSpec("iv"), 5, seed=0, start=start)

    def test_negative_steps_refused(self):
        with pytest.raises(ValueError, match="steps must be >= 0"):
            run_chain(cycle(4), 0.4, DynamicsSpec("iv"), -1, seed=0)

    def test_zero_steps_returns_start(self):
        start = [1, -1, 1, -1]
        out, collected = run_chain(cycle(4), 0.4, DynamicsSpec("iv"), 0, seed=0,
                                   start=start, collect_every=1)
        assert list(out) == start and collected == []


class TestDrawBlock:
    """draw_block against successive sequential_draws calls (the oracle)."""

    @staticmethod
    def check(make, n, m, T, pre):
        a, b = make(), make()
        if pre:  # an odd count leaves a 32-bit half buffered
            a.integers(0, 2, size=pre)
            b.integers(0, 2, size=pre)
        want = [sequential_draws(a, n, m) for _ in range(T)]
        got = list(draw_block(b, n, m, T))
        assert len(got) == T
        for g, w in zip(got, want):
            TestSharedRandomness.assert_same_draws(g, w)
        sa, sb = a.bit_generator.state, b.bit_generator.state
        assert sa["has_uint32"] == sb["has_uint32"]
        if sa["has_uint32"]:  # without a buffered half, uinteger is stale
            assert sa["uinteger"] == sb["uinteger"]
        for key in ("bit_generator", "state"):
            assert repr(sa[key]) == repr(sb[key])
        assert a.random() == b.random()
        assert np.array_equal(a.integers(0, 2, size=3), b.integers(0, 2, size=3))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_sequential_draws(self, n):
        for m in (0, 1, 2, 3, 7, 14):
            for T in (1, 2, 3, 5, 100):
                for pre in (0, 1, 2, 3):
                    self.check(lambda: np.random.default_rng((n, m, T)), n, m, T, pre)

    @pytest.mark.parametrize("n, m", [(0, 0), (0, 3), (5, 4), (8, 8)])
    def test_philox_and_empty_fields(self, n, m):
        for pre in (0, 1):
            self.check(lambda: np.random.Generator(np.random.Philox(n + m)), n, m, 7, pre)
            self.check(lambda: np.random.default_rng(n + m), n, m, 7, pre)

    @pytest.mark.parametrize("n, m", [(1, 0), (3, 2), (8, 12), (9, 9)])
    def test_block_boundaries(self, n, m, monkeypatch):
        monkeypatch.setattr(randomness, "_BLOCK_WORDS", 3 * (m + n + 1))
        for pre in (0, 1):
            self.check(lambda: np.random.default_rng(n), n, m, 50, pre)

    def test_zero_steps_draw_nothing(self):
        rng = np.random.default_rng(3)
        before = repr(rng.bit_generator.state)
        assert list(draw_block(rng, 4, 4, 0)) == []
        assert repr(rng.bit_generator.state) == before


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

    @staticmethod
    def assert_same_draws(got, want):
        for field in ("edge_uniforms", "vertex_spins", "vertex_uniforms"):
            g, w = getattr(got, field), getattr(want, field)
            assert g.dtype == w.dtype and g.shape == w.shape, field
            assert np.array_equal(g, w), field
        assert type(got.selector) is float and got.selector == want.selector

    def assert_matches_oracle(self, seed, t, n, m):
        """at(t) equals reading key (tag ^ seed, t) through a Generator."""
        key = np.array([(_STREAM_TAG << 32) ^ seed, t], dtype=np.uint64)
        want = sequential_draws(np.random.Generator(np.random.Philox(key=key)), n, m)
        self.assert_same_draws(SharedRandomness(seed, n, m).at(t), want)

    @pytest.mark.parametrize("n", [*range(20), 255, 256, 257, 1023, 1024])
    def test_matches_generator_oracle(self, n):
        for m in sorted({0, 1, 3, n, 2 * n, 3 * n // 2}):
            for seed in (0, 1, 12345, 2**63, 2**64 - 1):
                for t in (0, 1, 7, 2**32, 2**64 - 1):
                    self.assert_matches_oracle(seed, t, n, m)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), t=st.integers(0, 2**64 - 1),
           n=st.integers(0, 64), data=st.data())
    def test_matches_generator_oracle_hypothesis(self, seed, t, n, data):
        self.assert_matches_oracle(seed, t, n, data.draw(st.integers(0, 3 * n)))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_refused(self, seed):
        with pytest.raises(OverflowError):
            SharedRandomness(seed, 4, 4).at(1)

    @pytest.mark.parametrize("t", [-1, 2**64])
    def test_step_out_of_range_refused(self, t):
        sr = SharedRandomness(3, 4, 4)
        with pytest.raises(OverflowError):
            sr.at(t)
        self.assert_same_draws(sr.at(2), SharedRandomness(3, 4, 4).at(2))

    def test_state_reset_every_step(self):
        sr = SharedRandomness(11, 7, 9)
        first = sr.at(5)
        sr.at(9)
        self.assert_same_draws(sr.at(5), first)
