"""Sphere influence coefficients and the aggregate mixing bound."""

import itertools
import math

import numpy as np
import pytest

from isingdyn.graph import Graph, ball, complete_tree, cycle, grid, path, sphere
from isingdyn.ising import clamped_marginals, gibbs_exact
from isingdyn.ssm import (
    FeasibilityError,
    _influences,
    assm_check,
    find_assm_radius,
    influence_au,
)


def influence_oracle(G, beta, v, S, u):
    """Brute-force a_u over all full-graph configurations.

    Conditions on every sphere assignment directly from the Gibbs table,
    no message passing, no component shortcuts.
    """
    t = gibbs_exact(G, beta)
    others = [w for w in S if w != u]
    worst = 0.0
    for bits in itertools.product([-1, 1], repeat=len(others)):
        tau = dict(zip(others, bits))
        vals = {}
        for su in (-1, 1):
            tau[u] = su
            num = den = 0.0
            for x in range(1 << G.n):
                if all((1 if (x >> w) & 1 else -1) == s for w, s in tau.items()):
                    den += t.probs[x]
                    if (x >> v) & 1:
                        num += t.probs[x]
            vals[su] = num / den
        worst = max(worst, abs(vals[1] - vals[-1]))
    return worst


def full_length_influences(G, beta, v, R):
    """Sphere influences from full-length clampings: every sphere vertex
    gets an array of all 2^|S| codes, and a_u is read off by boolean
    gathers on bit j of the code."""
    S = sorted(sphere(G, v, R))
    if not S:
        return {}
    codes = np.arange(1 << len(S), dtype=np.int64)
    clamp = {u: 2 * ((codes >> j) & 1) - 1 for j, u in enumerate(S)}
    marg = clamped_marginals(G, beta, v, clamp)
    out = {}
    for j, u in enumerate(S):
        hi = (codes >> j) & 1 == 1
        out[u] = float(np.max(np.abs(marg[hi] - marg[~hi])))
    return out


def longdouble_influences(G, beta, v, R):
    """a_u by brute force in long double over every configuration of
    B(v,R) and S(v,R); outside the ball the sphere screens v off."""
    inner = sorted(ball(G, v, R))
    S = sorted(sphere(G, v, R))
    verts = inner + S
    idx = {u: i for i, u in enumerate(verts)}
    x = np.arange(1 << len(verts), dtype=np.int32)
    spin = {u: (2 * ((x >> i) & 1) - 1).astype(np.int8) for u, i in idx.items()}
    agree = np.zeros(len(x), dtype=np.int16)
    for a, b in G.edges:
        if a in idx and b in idx:
            agree += spin[a] * spin[b]
    levels = np.arange(agree.min(), agree.max() + 1)
    w = np.exp(np.longdouble(beta) * levels.astype(np.longdouble))[agree - levels[0]]
    plus = (x >> idx[v]) & 1
    # row tau: the sphere configuration's code over S; columns: the ball
    num = (w * plus).reshape(1 << len(S), -1).sum(axis=1)
    marg = num / w.reshape(1 << len(S), -1).sum(axis=1)
    codes = np.arange(1 << len(S))
    return {u: np.max(np.abs(marg[(codes >> j) & 1 == 1] - marg[(codes >> j) & 1 == 0]))
            for j, u in enumerate(S)}


class TestInfluence:
    def test_beta0_zero(self):
        assert influence_au(path(4), 0.0, 0, 1, 2) == pytest.approx(0.0, abs=1e-14)

    def test_disconnected_zero(self):
        G = Graph(n=4, edges=((0, 1), (2, 3)))
        # sphere of 0 at R=0 is {1}; 2 and 3 never appear, but check that a
        # sphere vertex whose far side is in another component has the same
        # influence as on the bare path
        a_joint = influence_au(G, 0.5, 0, 0, 1)
        a_path = influence_au(Graph(n=2, edges=((0, 1),)), 0.5, 0, 0, 1)
        assert a_joint == pytest.approx(a_path, abs=1e-13)

    def test_path4_oracle(self):
        G = path(4)
        val = influence_au(G, 0.5, 0, 1, 2)
        assert val == pytest.approx(influence_oracle(G, 0.5, 0, [2], 2), abs=1e-12)

    def test_cycle_oracle(self):
        # non-tree interior: enumeration path against the brute-force oracle
        G = cycle(6)
        S = [2, 4]
        for u in S:
            val = influence_au(G, 0.6, 0, 1, u)
            assert val == pytest.approx(
                influence_oracle(G, 0.6, 0, S, u), abs=1e-12)

    def test_not_on_sphere(self):
        with pytest.raises(ValueError):
            influence_au(path(4), 0.5, 0, 1, 3)

    def test_monotone_from_beta0(self):
        G = path(5)
        assert influence_au(G, 0.0, 0, 1, 2) <= influence_au(G, 0.5, 0, 1, 2)


class TestAssmCheck:
    def test_isolated_vertex(self):
        G = Graph(n=1, edges=())
        ok, table = assm_check(G, 0.9, 0, 2)
        assert ok and table.total == 0.0 and table.entries == {}

    def test_beta0(self):
        ok, table = assm_check(cycle(6), 0.0, 0, 1)
        assert ok and table.total == pytest.approx(0.0, abs=1e-13)

    def test_total_is_sum(self):
        G = cycle(6)
        ok, table = assm_check(G, 0.4, 0, 1)
        direct = sum(influence_au(G, 0.4, 0, 1, u) for u in table.entries)
        assert table.total == pytest.approx(direct, abs=1e-12)

    def test_entries_in_unit_interval(self):
        _, table = assm_check(cycle(8), 0.7, 0, 1)
        assert all(0.0 <= a <= 1.0 for a in table.entries.values())


class TestFindRadius:
    def test_beta0(self):
        r, details = find_assm_radius(cycle(6), 0.0, 3)
        assert r == 0

    def test_edgeless(self):
        G = Graph(n=3, edges=())
        r, _ = find_assm_radius(G, 0.8, 3)
        assert r == 0

    def test_cycle12(self):
        r, _ = find_assm_radius(cycle(12), 0.3, 4)
        assert r is not None and r <= 4

    def test_honest_negative(self):
        # far above criticality on a triangle with R_max 0: no radius works
        r, details = find_assm_radius(cycle(3), 3.0, 0)
        assert r is None
        assert all(res[0] == "fail" for res in details[0].values())

    def test_infeasible_reported(self):
        # high-degree star: the sphere of a leaf at R=1 is all 17 other
        # leaves, past the exact-enumeration guard
        edges = tuple((0, i) for i in range(1, 19))
        G = Graph(n=19, edges=edges)
        with pytest.raises(FeasibilityError):
            assm_check(G, 0.2, 1, 1)
        _, details = find_assm_radius(G, 0.2, 1)
        assert any(res[0] == "infeasible" for res in details[1].values())

    def test_tree_totals_drop(self):
        # on a path the totals shrink as R grows, crossing 1/4 eventually
        G = path(11)
        v = 5
        totals = []
        for R in range(4):
            _, table = assm_check(G, 0.4, v, R)
            totals.append(table.total)
        assert totals[-1] <= 0.25
        assert totals == sorted(totals, reverse=True)


class TestSphereAxes:
    """Per-axis sphere clampings against the full-length form and a
    long-double reference."""

    def test_tree_bit_identical(self):
        # the tree reads message-passing marginals, the grid enumerated ones
        for G, beta in ((complete_tree(3, 4), 0.4), (grid(5, 5), 0.2)):
            for R in range(5):
                for v in range(G.n):
                    try:
                        got = _influences(G, beta, v, R)
                    except FeasibilityError:  # sphere or free region past its limit
                        continue
                    assert got == full_length_influences(G, beta, v, R), (G, v, R)

    def test_enumeration_accuracy(self):
        G = grid(5, 5)
        got = _influences(G, 0.2, 12, 2)
        want = longdouble_influences(G, 0.2, 12, 2)
        assert got.keys() == want.keys()
        for u in want:
            assert abs(got[u] - float(want[u])) <= 1e-15, (u, got[u] - float(want[u]))

    def test_symmetric_vertices_agree(self):
        # 9, 22 and 27 are one orbit of the square's symmetries in grid(6,6)
        totals = [assm_check(grid(6, 6), 0.3, v, 3)[1].total for v in (9, 22, 27)]
        assert max(totals) - min(totals) <= 1e-14, totals
