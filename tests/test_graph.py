"""Graph construction, generators, and distance balls/spheres."""

import pickle
import time
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingdyn.graph import (
    MAX_REGULAR_DEGREE,
    MAX_VERTICES,
    Graph,
    GraphError,
    _check_size,
    ball,
    complete_tree,
    cycle,
    distances,
    generate,
    grid,
    load_edge_list,
    path,
    random_regular,
    sphere,
)
from test_dynamics import small_graphs


def loop_random_regular(n, d, seed):
    """The pairing model checked pair by pair: the reference for random_regular."""
    rng = np.random.default_rng(np.random.SeedSequence((0x5E6, seed)))
    stubs = np.repeat(np.arange(n), d)
    for _ in range(2000):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        seen = set()
        ok = True
        edges = []
        for u, v in pairs:
            u, v = int(u), int(v)
            if u == v:
                ok = False
                break
            key = (min(u, v), max(u, v))
            if key in seen:
                ok = False
                break
            seen.add(key)
            edges.append((u, v))
        if ok:
            return tuple(sorted((min(u, v), max(u, v)) for u, v in edges))


def bfs_oracle(G, v, blocked=()):
    """Independent BFS distances avoiding `blocked`, kept deliberately naive."""
    dist = {v: 0}
    dq = deque([v])
    while dq:
        u = dq.popleft()
        for a, b in G.edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in dist and y not in blocked:
                    dist[y] = dist[u] + 1
                    dq.append(y)
    return dist


class TestLoadEdgeList:
    def test_single_edge(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n")
        G = load_edge_list(p)
        assert G.n == 2 and G.m == 1

    def test_triangle(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n1 2\n2 0\n")
        G = load_edge_list(p)
        assert G.n == 3 and G.m == 3 and G.max_degree == 2

    def test_comments_ignored(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# header\n0 1  # trailing\n\n1 2\n")
        assert load_edge_list(p).m == 2

    def test_self_loop_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 0\n")
        with pytest.raises(GraphError, match="self-loop"):
            load_edge_list(p)

    def test_duplicate_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n1 0\n")
        with pytest.raises(GraphError, match="duplicate"):
            load_edge_list(p)

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
    def test_no_edges_rejected(self, tmp_path, text):
        p = tmp_path / "g.txt"
        p.write_text(text)
        with pytest.raises(GraphError, match="no edges"):
            load_edge_list(p)

    def test_vertex_past_limit_names_line(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text(f"0 1\n0 {MAX_VERTICES}\n")
        with pytest.raises(GraphError, match=":2: .*MAX_VERTICES"):
            load_edge_list(p)

    def test_garbage_names_line(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\nnope\n")
        with pytest.raises(GraphError, match=":2"):
            load_edge_list(p)


class TestBallSphere:
    def test_radius_zero(self):
        assert ball(cycle(5), 2, 0) == {2}

    def test_one_hop_path(self):
        assert ball(path(3), 0, 1) == {0, 1}

    def test_cycle6_ball(self):
        # frozen from the BFS oracle: distances on a 6-cycle from 0
        assert ball(cycle(6), 0, 2) == {0, 1, 2, 4, 5}

    def test_sphere_isolated(self):
        G = Graph(n=1, edges=())
        assert sphere(G, 0, 3) == frozenset()

    def test_sphere_path(self):
        assert sphere(path(3), 0, 0) == {1}

    def test_cycle6_sphere(self):
        assert sphere(cycle(6), 0, 1) == {2, 4}

    def test_out_of_range(self):
        for f in (ball, sphere):
            for v, R in ((5, 1), (3, 0), (-1, 0), (0, -1)):
                with pytest.raises(GraphError):
                    f(path(3), v, R)

    @settings(max_examples=200)
    @given(st.one_of(small_graphs(), st.integers(3, 12).map(cycle), st.integers(1, 12).map(path)),
           st.data())
    def test_matches_bfs_oracle(self, G, data):
        # cycles and paths stop the bounded walk partway through a long
        # component; sparse small_graphs draws have several components
        v = data.draw(st.integers(0, G.n - 1))
        R = data.draw(st.integers(0, G.n))
        dist = bfs_oracle(G, v)
        assert distances(G, v, depth=R) == {u: d for u, d in dist.items() if d <= R}
        assert ball(G, v, R) == {u for u, d in dist.items() if d <= R}
        assert sphere(G, v, R) == {u for u, d in dist.items() if d == R + 1}

    @settings(max_examples=200)
    @given(small_graphs(), st.data())
    def test_distances_match_bfs_oracle(self, G, data):
        v = data.draw(st.integers(0, G.n - 1))
        blocked = data.draw(st.frozensets(st.integers(0, G.n - 1)) | st.just(()))
        dist = distances(G, v, blocked)
        assert dist == bfs_oracle(G, v, blocked)
        # visit order: v first, distances never decrease
        assert next(iter(dist)) == v and list(dist.values()) == sorted(dist.values())
        depth = data.draw(st.integers(0, G.n))
        assert distances(G, v, blocked, depth) == {u: d for u, d in dist.items() if d <= depth}

    @given(st.integers(3, 9), st.integers(0, 4))
    def test_nesting_and_disjointness(self, n, R):
        G = cycle(n)
        assert ball(G, 0, R) <= ball(G, 0, R + 1)
        assert not sphere(G, 0, R) & ball(G, 0, R)


class TestGenerators:
    def test_cycle3_is_triangle(self):
        G = cycle(3)
        assert G.n == 3 and G.m == 3

    def test_star_from_tree(self):
        G = complete_tree(3, 1)
        assert G.n == 4 and G.m == 3
        assert sorted(len(a) for a in G.adjacency) == [1, 1, 1, 3]

    def test_complete_tree_internal_degrees(self):
        G = complete_tree(3, 3)
        leaves = {v for v in range(G.n) if len(G.adjacency[v]) == 1}
        internal = set(range(G.n)) - leaves
        assert all(len(G.adjacency[v]) == 3 for v in internal)

    def test_grid(self):
        G = grid(3, 2)
        assert G.n == 6 and G.m == 7

    def test_random_regular_degree_audit(self):
        G = random_regular(8, 3, seed=1)
        assert all(len(a) == 3 for a in G.adjacency)

    def test_random_regular_parity(self):
        with pytest.raises(GraphError, match="even"):
            random_regular(5, 3, seed=0)

    @pytest.mark.parametrize("n,d,seeds", [(8, 3, range(20)), (1024, 3, range(3)),
                                           (5, 4, range(5)), (20, 4, range(5)),
                                           (10, 0, range(2))])
    def test_random_regular_matches_loop(self, n, d, seeds):
        for seed in seeds:
            assert random_regular(n, d, seed).edges == loop_random_regular(n, d, seed)

    @pytest.mark.parametrize("n,d,msg", [
        (1000, 999, "d <= 4"), (2000, 1999, "d <= 4"),
        (10, MAX_REGULAR_DEGREE + 1, f"d <= {MAX_REGULAR_DEGREE}"),
        (MAX_VERTICES // 3 + 1, 3, "n\\*d > MAX_VERTICES stubs"), (4, -2, "0 <= d < n")])
    def test_random_regular_work_bound(self, n, d, msg):
        start = time.perf_counter()
        with pytest.raises(GraphError, match=msg):
            random_regular(n, d, 1)
        assert time.perf_counter() - start < 1

    def test_deterministic(self):
        assert random_regular(10, 3, seed=4).edges == random_regular(10, 3, seed=4).edges
        assert generate("cycle", 7).edges == cycle(7).edges

    def test_unknown_kind(self):
        with pytest.raises(GraphError):
            generate("torus", 3)

    @pytest.mark.parametrize("kind,args", [("grid", (3,)), ("random_regular", (8, 3)),
                                           ("cycle", ()), ("path", (3, 4))])
    def test_wrong_argument_count(self, kind, args):
        with pytest.raises(GraphError, match=f"got {len(args)}"):
            generate(kind, *args)


    @pytest.mark.parametrize("kind,args", [
        ("cycle", (MAX_VERTICES + 1,)), ("path", (10**20,)), ("grid", (1025, 1024)),
        ("complete_tree", (3, 40)), ("complete_tree", (2, 10**20)),
        ("random_regular", (MAX_VERTICES + 2, 3, 1))])
    def test_size_bound(self, kind, args):
        with pytest.raises(GraphError, match="MAX_VERTICES"):
            generate(kind, *args)

    @pytest.mark.parametrize("d,h", [(2, 0), (2, 5), (3, 4), (5, 3), (4, 6)])
    def test_complete_tree_size(self, d, h):
        # 1 root, then d * (d-1)^(t-1) vertices at each depth t >= 1
        n = 1 + sum(d * (d - 1) ** (t - 1) for t in range(1, h + 1))
        G = complete_tree(d, h)
        assert G.n == n and len(G.edges) == n - 1

    @pytest.mark.parametrize("d,h", [(3, 19), (2, 2**19)])
    def test_complete_tree_just_past_bound(self, d, h):
        # 1 + 3 * (2^19 - 1) and 1 + 2 * 2^19 vertices
        with pytest.raises(GraphError, match="MAX_VERTICES"):
            complete_tree(d, h)

    def test_bound_is_inclusive(self):
        _check_size(MAX_VERTICES, "graph")
        with pytest.raises(GraphError, match="MAX_VERTICES"):
            _check_size(MAX_VERTICES + 1, "graph")

    @pytest.mark.parametrize("kind,args,msg", [
        ("complete_tree", (1, 10**20), "d >= 2"), ("complete_tree", (0, 10**20), "d >= 2"),
        ("complete_tree", (3, -10**20), "h >= 0"), ("grid", (-2000, -2000), "positive")])
    def test_argument_checks_come_first(self, kind, args, msg):
        start = time.perf_counter()
        with pytest.raises(GraphError, match=msg):
            generate(kind, *args)
        assert time.perf_counter() - start < 1


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(n=2, edges=((1, 1),))

    def test_rejects_duplicate(self):
        with pytest.raises(GraphError):
            Graph(n=2, edges=((0, 1), (1, 0)))

    def test_adjacency_consistency(self):
        G = path(4)
        for i, (u, w) in enumerate(G.edges):
            assert w in G.adjacency[u] and u in G.adjacency[w]
        assert G.max_degree == 2

    def test_endpoint_arrays_read_only(self):
        G = cycle(5)
        u, w = G.endpoint_arrays()
        assert u.tolist() == [0, 1, 2, 3, 4] and w.tolist() == [1, 2, 3, 4, 0]
        assert not u.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            u[0] = 2
        assert G.endpoint_arrays()[0] is u  # built once, at construction
        # the cached arrays stay out of equality and hashing
        assert G == cycle(5) and hash(G) == hash(cycle(5))
        u0, w0 = Graph(n=1, edges=()).endpoint_arrays()
        assert u0.shape == w0.shape == (0,) and not u0.flags.writeable

    def test_pickle_keeps_endpoint_arrays_read_only(self):
        G = random_regular(8, 3, seed=1)
        back = pickle.loads(pickle.dumps(G))
        assert back == G and back.adjacency == G.adjacency
        assert back.max_degree == G.max_degree
        u, w = back.endpoint_arrays()
        assert not u.flags.writeable and not w.flags.writeable
        assert [u.tolist(), w.tolist()] == [x.tolist() for x in G.endpoint_arrays()]
