"""Graph construction, generators, and distance balls/spheres."""

from collections import deque

import pytest
from hypothesis import given, strategies as st

from isingdyn.graph import (
    Graph,
    GraphError,
    ball,
    complete_tree,
    cycle,
    generate,
    grid,
    load_edge_list,
    path,
    random_regular,
    sphere,
)


def bfs_oracle(G, v):
    """Independent BFS distances, kept deliberately naive."""
    dist = {v: 0}
    dq = deque([v])
    while dq:
        u = dq.popleft()
        for a, b in G.edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in dist:
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
        with pytest.raises(GraphError):
            ball(path(3), 5, 1)

    @given(st.integers(3, 9), st.integers(0, 8), st.integers(0, 4))
    def test_matches_bfs_oracle(self, n, v, R):
        G = cycle(n)
        v = v % n
        dist = bfs_oracle(G, v)
        assert ball(G, v, R) == {u for u, d in dist.items() if d <= R}
        assert sphere(G, v, R) == {u for u, d in dist.items() if d == R + 1}

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
