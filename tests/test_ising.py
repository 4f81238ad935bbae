"""Gibbs measure, exact marginals, and the dominance machinery."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from isingdyn.graph import (Graph, complete_tree, cycle, distances, grid, path,
                            random_regular, sphere)
from isingdyn.ising import (
    ENUM_LIMIT,
    FeasibilityError,
    _enum_marginals,
    _logaddexp,
    beta_c,
    clamped_marginals,
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


@st.composite
def complete_subgraphs(draw, max_n=10):
    """A random edge subset of K_n, n <= max_n (n = 0 included)."""
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n=n, edges=tuple(itertools.compress(pairs, keep)))


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

    @settings(max_examples=100)
    @given(complete_subgraphs(),
           st.sampled_from([0.0, -0.4, 0.37, 7.0]) | st.floats(-3.0, 3.0))
    @example(Graph(n=0, edges=()), 0.8)
    @example(Graph(n=1, edges=()), -0.4)
    @example(cycle(10), 0.0)  # every term ties with the largest
    @example(Graph(n=10, edges=tuple(itertools.combinations(range(10), 2))), -0.4)
    def test_logZ_matches_fsum(self, G, beta):
        logw = [beta * sum(1 if (x >> u & 1) == (x >> w & 1) else -1 for u, w in G.edges)
                for x in range(1 << G.n)]
        top = max(logw)
        logZ = top + math.log(math.fsum(math.exp(lw - top) for lw in logw))
        t = gibbs_exact(G, beta)
        assert abs(t.logZ - logZ) <= 1e-12
        assert np.allclose(t.probs, np.exp(np.array(logw) - logZ), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("G,beta,bits", [
        (cycle(4), 1.0, "0x1.330dbdf641ff6p+2"),
        (path(3), 0.1, "0x1.0b724697f85b1p+1"),
        (grid(2, 3), 0.1, "0x1.0c6ae06131f71p+2"),
        (cycle(5), 0.2, "0x1.c85e3ba762b3dp+1"),
        (random_regular(8, 3, 1), -0.4, "0x1.a0661f5e181bbp+2"),
        (path(6), 1.0, "0x1.94fa77506cbd1p+2"),
    ], ids=["cycle4", "path3", "grid2x3", "cycle5", "cubic8", "path6"])
    def test_logZ_bits_pinned(self, G, beta, bits):
        # the bits scipy.special.logsumexp (scipy 1.17.1) gives; dropping the
        # tied terms, or summing all terms at once, moves a last bit
        assert gibbs_exact(G, beta).logZ == float.fromhex(bits)

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

    @pytest.mark.parametrize("G,v,R,per_axis", [
        (complete_tree(3, 3), 1, 1, False),  # tree
        (grid(4, 4), 0, 2, False),  # has a 4-cycle
        (complete_tree(3, 3), 1, 1, True),
        (grid(4, 4), 0, 2, True),
    ], ids=["tree", "enumeration", "tree-per-axis", "enumeration-per-axis"])
    def test_many_clampings_match_one_at_a_time(self, G, v, R, per_axis):
        S = sorted(sphere(G, v, R))
        codes = np.arange(1 << len(S))
        spins = {u: 2 * ((codes >> j) & 1) - 1 for j, u in enumerate(S)}
        if per_axis:
            # bit j on axis k-1-j: the C-order flattening is the code order
            k = len(S)
            axes = {u: np.array([-1, 1]).reshape([2 if a == k - 1 - j else 1
                                                  for a in range(k)])
                    for j, u in enumerate(S)}
            batched = clamped_marginals(G, 0.6, v, axes)
            assert batched.shape == (2,) * k
            batched = batched.reshape(-1)
        else:
            batched = clamped_marginals(G, 0.6, v, spins)
        assert batched.shape == codes.shape
        for c in codes:
            one = conditional_marginal(G, 0.6, v, {u: int(s[c]) for u, s in spins.items()})
            assert batched[c] == pytest.approx(one, abs=1e-12)

    @pytest.mark.parametrize("G,v", [
        (Graph(n=6, edges=((0, 1), (1, 2), (2, 5), (3, 4))), 0),  # path: tree
        (Graph(n=6, edges=((0, 1), (1, 2), (0, 2), (2, 5), (3, 4))), 0),  # triangle
    ], ids=["tree", "enumeration"])
    def test_arrays_away_from_component_give_scalar(self, G, v):
        # the result takes the shape of the clampings next to v's component
        # only; arrays clamping another component do not reach it
        clamp = {3: np.array([-1, 1, 1]), 4: np.array([1, -1, 1])}
        out = clamped_marginals(G, 0.6, v, clamp)
        assert np.shape(out) == ()
        assert float(out) == pytest.approx(0.5, abs=1e-14)
        # a number next to the component keeps the result a scalar too
        out = clamped_marginals(G, 0.6, v, {**clamp, 5: 1})
        assert np.shape(out) == ()
        assert float(out) == conditional_marginal(G, 0.6, v, {5: 1}) > 0.5

    def test_free_region_limit(self):
        # a 25-vertex grid component is not a tree and exceeds 2^20 states
        with pytest.raises(FeasibilityError, match="exceeds limit"):
            conditional_marginal(grid(5, 5), 0.3, 0, {})


def loop_enum_marginals(G, beta, v, comp, field, shape):
    """Enumeration over the free component, chunked over clampings.

    The direct form, kept as the test oracle: every clamping re-sums all
    2^|comp| states, with every vertex's field added one row at a time.
    """
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


def fields(G, beta, clamp, start=0):
    """The field on each vertex from its clamped neighbours."""
    return lambda u: beta * sum((clamp[w] for w in G.adjacency[u] if w in clamp), start)


@st.composite
def clamped_graphs(draw):
    """A graph on n <= 9 vertices holding the triangle 0-1-2, a center v
    and a clamped set that avoids v."""
    n = draw(st.integers(3, 9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
             if (a, b) not in ((0, 1), (1, 2), (0, 2))]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
                 if pairs else st.just([]))
    G = Graph(n=n, edges=((0, 1), (1, 2), (0, 2), *extra))
    v = draw(st.integers(0, n - 1))
    clamped = draw(st.lists(st.sampled_from([u for u in range(n) if u != v]),
                            unique=True, max_size=n - 1))
    return G, v, clamped


class TestEnumeration:
    """The boundary-factored enumeration against the direct loop."""

    @settings(max_examples=150, deadline=None)
    @given(clamped_graphs(), st.floats(0.0, 1.5),
           st.sampled_from(["one", "arrays", "per-axis"]), st.data())
    def test_matches_loop(self, case, beta, form, data):
        G, v, clamped = case
        if form == "one":
            clamp = {u: data.draw(st.sampled_from([-1, 1])) for u in clamped}
        elif form == "arrays":
            length = data.draw(st.integers(1, 6))
            clamp = {u: np.array(data.draw(st.lists(st.sampled_from([-1, 1]),
                                                    min_size=length, max_size=length)))
                     for u in clamped}
        else:
            k = len(clamped)
            clamp = {u: np.array([-1, 1]).reshape([2 if a == j else 1 for a in range(k)])
                     for j, u in enumerate(clamped)}
        # the oracle takes one number or equal-length arrays per vertex
        shape = np.broadcast_shapes(*map(np.shape, clamp.values()))
        flat = {u: np.broadcast_to(s, shape).reshape(-1) if shape else s
                for u, s in clamp.items()}
        comp = sorted(distances(G, v, clamp))
        got = _enum_marginals(G, beta, v, comp, fields(G, beta, clamp))
        zero = 0 * next(iter(flat.values()), 0)
        want = loop_enum_marginals(G, beta, v, comp, fields(G, beta, flat, zero),
                                   np.shape(zero))
        got = np.broadcast_to(got, shape).reshape(np.shape(want))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("G,clamped", [
        (grid(5, 4), []),  # one clamping, 2^20 states
        (grid(6, 4), [5, 11, 17, 23]),  # 16 clampings of the last column
    ], ids=["one-clamping", "16-clampings"])
    def test_peak_memory_20_vertex_region(self, G, clamped):
        codes = np.arange(1 << len(clamped))
        clamp = {u: 2 * ((codes >> j) & 1) - 1 for j, u in enumerate(clamped)}
        tracemalloc.start()
        try:
            out = clamped_marginals(G, 0.3, 0, clamp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shape(out) == ((16,) if clamped else ())
        assert peak <= 64 * 2**20, peak / 2**20


def loop_clamped_marginals(G, beta, v, clamp):
    """clamped_marginals as it was with one walk to find v's free component,
    a second to count its edges and a third to root it: the oracle for the
    single breadth-first walk."""
    comp_set = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for w in G.adjacency[u]:
            if w not in comp_set and w not in clamp:
                comp_set.add(w)
                stack.append(w)
    comp = sorted(comp_set)
    field = fields(G, beta, clamp)
    twice_edges = sum(w in comp_set for u in comp for w in G.adjacency[u])
    if twice_edges != 2 * (len(comp) - 1):
        return _enum_marginals(G, beta, v, comp, field)

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
    children = {u: [] for u in order}
    for w in order[1:]:
        children[parent[w]].append(w)

    logm = {}
    for u in reversed(order):
        h = field(u)
        lp = h + sum(logm[w][0] for w in children[u])
        lm = -h + sum(logm[w][1] for w in children[u])
        if u == v:
            return 1.0 / (1.0 + np.exp(lm - lp))
        to_plus = np.logaddexp(beta + lp, -beta + lm)
        to_minus = np.logaddexp(-beta + lp, beta + lm)
        z = np.logaddexp(to_plus, to_minus)
        logm[u] = (to_plus - z, to_minus - z)


@st.composite
def marginal_cases(draw):
    """(G, v, clamp): a graph, tree or forest on n <= 12 vertices, relabelled
    and with its edges shuffled, and one clamping, equal-length arrays or
    per-axis arrays on a set that avoids v."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["graph", "tree", "forest"]))
    if kind == "graph":
        pairs = list(itertools.combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)
                     if pairs else st.just([]))
    else:  # vertex i joins an earlier vertex, or starts a new tree in a forest
        edges = [(p, i) for i in range(1, n)
                 if (p := draw(st.integers(-(kind == "forest"), i - 1))) >= 0]
    label = draw(st.permutations(range(n)))
    G = Graph(n=n, edges=tuple(draw(st.permutations(
        [(label[a], label[b]) for a, b in edges]))))
    v = draw(st.integers(0, n - 1))
    others = [u for u in range(n) if u != v]
    form = draw(st.sampled_from(["one", "arrays", "per-axis"]))
    clamped = draw(st.lists(st.sampled_from(others), unique=True,
                            max_size=8 if form == "per-axis" else n - 1)
                   if others else st.just([]))
    if form == "one":
        clamp = {u: draw(st.sampled_from([-1, 1])) for u in clamped}
    elif form == "arrays":
        length = draw(st.integers(1, 6))
        clamp = {u: np.array(draw(st.lists(st.sampled_from([-1, 1]),
                                           min_size=length, max_size=length)))
                 for u in clamped}
    else:
        k = len(clamped)
        clamp = {u: np.array([-1, 1]).reshape([2 if a == j else 1 for a in range(k)])
                 for j, u in enumerate(clamped)}
    return G, v, clamp


class TestOneWalk:
    """The single breadth-first walk against the three walks it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(marginal_cases(), st.floats(0.0, 2.0))
    # v's children carry unequal messages, so their sum order shows in the last bit
    @example((Graph(n=8, edges=((0, 2), (0, 1), (0, 3), (0, 4), (2, 5), (0, 6), (0, 7))),
              0, {1: np.array([[-1], [1]]), 5: np.array([[-1, 1]])}), 1.3125)
    def test_matches_loop_exactly(self, case, beta):
        G, v, clamp = case
        got = clamped_marginals(G, beta, v, clamp)
        want = loop_clamped_marginals(G, beta, v, clamp)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


class TestFloatLogaddexp:
    """The math transcription of np.logaddexp used on tree messages."""

    def test_same_bits_as_numpy(self):
        rng = np.random.default_rng(0x10AE)
        x = np.concatenate([rng.normal(0, 5, 60_000), rng.normal(0, 1e3, 20_000),
                            rng.uniform(-40, 40, 30_000)])
        y = np.concatenate([rng.normal(0, 5, 60_000), rng.normal(0, 1e3, 20_000),
                            rng.uniform(-40, 40, 30_000)])
        y[:5000] = x[:5000]                                   # ties
        y[5000:10_000] = np.nextafter(x[5000:10_000], np.inf)  # near ties
        y[10_000:15_000] = x[10_000:15_000] + rng.choice([-1, 1], 5000) * 800  # exp underflows
        special = [0.0, -0.0, 1.0, -1.0, 745.0, -745.0, 1e308, -1e308,
                   5e-324, np.inf, -np.inf, np.nan]
        a, b = zip(*itertools.product(special, repeat=2))
        x, y = np.concatenate([x, a]), np.concatenate([y, b])
        with np.errstate(over="ignore", invalid="ignore"):  # the special pairs
            want = np.logaddexp(x, y)
        got = np.array([_logaddexp(p, q) for p, q in zip(x.tolist(), y.tolist())])
        assert len(x) >= 10**5
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_arrays_and_types(self):
        assert type(_logaddexp(0.5, -0.25)) is float
        got = _logaddexp(np.array([0.5, 1.0]), 0.25)
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, np.logaddexp(np.array([0.5, 1.0]), 0.25))


def code_leq(x: int, y: int) -> bool:
    """Encoded-configuration order: x <= y iff x's plus-set is inside y's."""
    return (x & ~y) == 0


def scan_up_sets(n: int) -> list[frozenset]:
    """All upward-closed subsets of the configuration lattice on n spins.

    The scan over all 2^(2^n) subsets that the library used before its
    recursion, kept as an independent oracle for it.
    """
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

    @pytest.mark.parametrize("n", range(5))
    def test_matches_scan(self, n):
        assert enumerate_up_sets(n) == scan_up_sets(n)


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
