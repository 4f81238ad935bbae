"""Grand couplings: monotonicity, coalescence, faithfulness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingdyn import dynamics
from isingdyn.coupling import (
    CouplingResult,
    coupling_time,
    monotonicity_audit,
    random_comparable_pair,
)
from isingdyn.dynamics import DynamicsSpec, block_step, iv_step, msw_step_alt, step
from isingdyn.exact import transition_matrix
from isingdyn.graph import Graph, cycle, path
from isingdyn.ising import encode_spins, leq
from isingdyn.randomness import SharedRandomness, sequential_draws

EDGE = Graph(n=2, edges=((0, 1),))


class TestGrandSteps:
    def test_equal_states_stay_equal(self):
        G = cycle(6)
        sr = SharedRandomness(1, G.n, G.m)
        states = [np.ones(6, dtype=np.int8), np.ones(6, dtype=np.int8)]
        for t in range(1, 20):
            d = sr.at(t)
            states = [iv_step(G, 0.4, s, d) for s in states]
            assert np.array_equal(states[0], states[1])

    def test_iv_censor_empty_frozen(self):
        G = cycle(4)
        sr = SharedRandomness(2, G.n, G.m)
        start = np.array([1, -1, 1, -1], dtype=np.int8)
        out = iv_step(G, 0.4, start, sr.at(1), A=frozenset())
        assert np.array_equal(out, start)

    def test_msw_beta0_coalesces_in_one_step(self):
        G = cycle(5)
        sr = SharedRandomness(3, G.n, G.m)
        states = [np.full(5, 1, dtype=np.int8), np.full(5, -1, dtype=np.int8),
                  np.array([1, -1, 1, -1, 1], dtype=np.int8)]
        d = sr.at(1)
        out = [msw_step_alt(G, 0.0, s, d) for s in states]
        assert np.array_equal(out[0], out[1])
        assert np.array_equal(out[1], out[2])

    def test_block_forced_plus_thresholds(self):
        # every threshold at 0 forces + in all copies
        G = path(3)
        from isingdyn.randomness import StepDraws
        d = StepDraws(np.zeros(G.m), np.ones(G.n, dtype=np.int8),
                      np.zeros(G.n), 0.0)
        states = [np.full(3, -1, dtype=np.int8), np.full(3, 1, dtype=np.int8)]
        out = [block_step(G, 0.5, s, [frozenset({0, 1, 2})], d) for s in states]
        assert np.array_equal(out[0], np.ones(3))
        assert np.array_equal(out[1], np.ones(3))


class TestCouplingTime:
    def test_single_vertex_glauber(self):
        G = Graph(n=1, edges=())
        res = coupling_time(G, 0.5, DynamicsSpec("glauber"), seed=0)
        assert res.steps == 1 and not res.timed_out

    def test_iv_beta0_one_step(self):
        res = coupling_time(cycle(6), 0.0, DynamicsSpec("iv"), seed=1)
        assert res.steps == 1 and not res.timed_out

    def test_sw_rejected(self):
        with pytest.raises(ValueError):
            coupling_time(EDGE, 0.5, DynamicsSpec("sw"), seed=0)

    @pytest.mark.parametrize("kind", ["iv", "glauber"])
    def test_negative_t_max_refused(self, kind):
        # a run of no steps is t_max = 0; -5 steps were reported as a timeout
        with pytest.raises(ValueError, match=r"^t_max must be >= 0, not -5$"):
            coupling_time(cycle(8), 0.3, DynamicsSpec(kind), 1, t_max=-5)

    def test_timeout_reported(self):
        # fully censored IV never moves, so the pair can never coalesce
        res = coupling_time(cycle(4), 0.3,
                            DynamicsSpec("iv", censor=frozenset()),
                            seed=0, t_max=25)
        assert res.timed_out and res.steps == 25

    def test_deterministic_in_seed(self):
        a = coupling_time(cycle(16), 0.3, DynamicsSpec("iv"), seed=9)
        b = coupling_time(cycle(16), 0.3, DynamicsSpec("iv"), seed=9)
        assert a == b

    def test_cycle64_all_finite(self):
        G = cycle(64)
        for seed in range(20):
            res = coupling_time(G, 0.3, DynamicsSpec("iv"), seed, t_max=10**5)
            assert not res.timed_out


def at_coupling_time(G, beta, spec, seed, t_max):
    """coupling_time read through SharedRandomness.at, one step at a time:
    the reference for the site draws of the heat-bath kinds."""
    sr = SharedRandomness(seed, G.n, G.m)
    upper = np.full(G.n, 1, dtype=np.int8)
    lower = np.full(G.n, -1, dtype=np.int8)
    for t in range(1, t_max + 1):
        d = sr.at(t)
        upper = step(G, beta, spec, upper, d)
        lower = step(G, beta, spec, lower, d)
        if np.array_equal(upper, lower):
            return CouplingResult(seed=seed, steps=t, timed_out=False)
    return CouplingResult(seed=seed, steps=t_max, timed_out=True)


C9_BLOCKS = (frozenset({0, 1, 2, 3}), frozenset({3, 4}), frozenset({5, 6, 7, 8}),
             frozenset({8, 0}))
HEAT_BATH_SPECS = {
    "glauber": DynamicsSpec("glauber"),
    "overlapping": DynamicsSpec("block", blocks=C9_BLOCKS),
    # block {5, 6, 7, 8} misses A, so some steps update nothing
    "censored": DynamicsSpec("block", blocks=C9_BLOCKS, censor=frozenset({0, 2, 3, 4})),
    "censored-to-V": DynamicsSpec("block", blocks=C9_BLOCKS, censor=frozenset(range(9))),
    "single-block": DynamicsSpec("block", blocks=(frozenset(range(9)),)),
    "singletons": DynamicsSpec("block", blocks=tuple(frozenset({v}) for v in range(9))),
}


@st.composite
def heat_bath_cases(draw):
    """(G, spec): a Hamiltonian cycle in random order plus random chords on
    3..10 vertices, so that free components with cycles are enumerated,
    and glauber or block dynamics. Blocks are random vertex sets
    (overlaps allowed) plus the uncovered rest, or singletons; the censor
    set is none or any subset, so some blocks miss it."""
    n = draw(st.integers(3, 10))
    order = draw(st.permutations(range(n)))
    pairs = [(order[i], order[i - 1]) for i in range(n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=n))
    edges = {}
    for u, w in pairs:
        if u != w:
            edges.setdefault(frozenset((u, w)), (u, w))
    G = Graph(n=n, edges=tuple(edges.values()))
    kind = draw(st.sampled_from(["glauber", "blocks", "singletons"]))
    if kind == "glauber":
        return G, DynamicsSpec("glauber")
    if kind == "singletons":
        blocks = tuple(frozenset({v}) for v in range(n))
    else:
        blocks = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1),
                               min_size=1, max_size=4))
        rest = frozenset(range(n)).difference(*blocks)
        blocks = tuple(blocks + ([rest] if rest else []))
    censor = draw(st.none() | st.frozensets(st.integers(0, n - 1)))
    return G, DynamicsSpec("block", blocks=blocks, censor=censor)


class TestSiteDrawCouplings:
    """glauber and block couplings read site draws; at(t) is the reference."""

    @pytest.mark.parametrize("name", sorted(HEAT_BATH_SPECS))
    @pytest.mark.parametrize("beta", [0.3, 1.5])
    def test_equals_per_step_at(self, name, beta):
        spec = HEAT_BATH_SPECS[name]
        for seed in (0, 1, 12345, 2**64 - 1):
            for t_max in (0, 3, 200, 2000):  # 2000 passes the 1024-step cap
                want = at_coupling_time(cycle(9), beta, spec, seed, t_max)
                assert coupling_time(cycle(9), beta, spec, seed, t_max) == want
        if name == "censored":
            assert want.timed_out

    @pytest.mark.parametrize("kind", ["glauber", "block8"])
    @pytest.mark.parametrize("seed", [1, 2**63 + 5])
    def test_equals_per_step_at_on_cycle256(self, kind, seed):
        G = cycle(256)
        spec = DynamicsSpec("glauber") if kind == "glauber" else DynamicsSpec(
            "block", blocks=tuple(frozenset(range(i, i + 8)) for i in range(0, 256, 8)))
        want = at_coupling_time(G, 0.3, spec, seed, 10**5)
        assert not want.timed_out
        assert coupling_time(G, 0.3, spec, seed, 10**5) == want

    @settings(max_examples=150)
    @given(st.data())
    def test_equals_per_step_at_on_graphs_with_cycles(self, data):
        G, spec = data.draw(heat_bath_cases())
        beta = data.draw(st.sampled_from([0.0, 0.3, 1.5]))
        seed = data.draw(st.integers(0, 2**64 - 1))
        t_max = data.draw(st.sampled_from([1, 4, 30, 300]))  # short runs time out
        assert coupling_time(G, beta, spec, seed, t_max) == \
            at_coupling_time(G, beta, spec, seed, t_max)

    def test_memo_bounds_block_marginals(self, monkeypatch):
        # block8 on cycle(256): site i of block k has the two clamped
        # neighbours of its free component, so at most 32 * 8 * 4 keys
        G = cycle(256)
        spec = DynamicsSpec("block", blocks=tuple(frozenset(range(i, i + 8))
                                                   for i in range(0, 256, 8)))
        calls = []
        marginal = dynamics.conditional_marginal
        monkeypatch.setattr(dynamics, "conditional_marginal",
                            lambda G, beta, v, clamp: calls.append((v, *sorted(clamp.items())))
                            or marginal(G, beta, v, clamp))
        res = coupling_time(G, 0.3, spec, seed=1, t_max=10**5)
        assert not res.timed_out
        assert len(set(calls)) == len(calls) <= 32 * 8 * 4
        assert all(len(c) == 3 for c in calls)  # v and its two clamped spins
        # without the memo both copies compute all 8 sites of every step
        assert len(calls) < 2 * 8 * res.steps

    def test_memo_limit(self, monkeypatch):
        # past MEMO_LIMIT values a miss is computed and not kept
        monkeypatch.setattr(dynamics, "MEMO_LIMIT", 4)
        G, spec = cycle(9), HEAT_BATH_SPECS["overlapping"]
        assert coupling_time(G, 1.5, spec, 3, 500) == at_coupling_time(G, 1.5, spec, 3, 500)
        bath = dynamics.HeatBath(G, 1.5, spec.blocks)
        rng = np.random.default_rng(0)
        for _ in range(50):
            k, row = int(rng.integers(4)), rng.choice(np.int8([-1, 1]), 9)
            thresholds = rng.random(len(bath.plan(k))).tolist()  # one per site
            want = row.copy()
            dynamics.HeatBath(G, 1.5, spec.blocks).update(k, thresholds, [want])
            bath.update(k, thresholds, [row])
            assert np.array_equal(row, want)
        assert len(bath.memo) == 4

    @pytest.mark.parametrize("spec, reads_at", [
        (DynamicsSpec("glauber"), False),
        (DynamicsSpec("block", blocks=C9_BLOCKS), False),
        (DynamicsSpec("iv"), True),
        (DynamicsSpec("msw"), True),
    ])
    def test_at_only_for_cluster_kinds(self, spec, reads_at, monkeypatch):
        calls = []
        at = SharedRandomness.at
        monkeypatch.setattr(SharedRandomness, "at",
                            lambda self, t: calls.append(t) or at(self, t))
        res = coupling_time(cycle(9), 0.3, spec, seed=4, t_max=50)
        assert calls == (list(range(1, res.steps + 1)) if reads_at else [])


class TestSandwich:
    def test_arbitrary_start_between_extremes(self):
        G = cycle(8)
        spec = DynamicsSpec("iv")
        rng = np.random.default_rng(5)
        for seed in range(20):
            sr = SharedRandomness(seed, G.n, G.m)
            upper = np.full(8, 1, dtype=np.int8)
            lower = np.full(8, -1, dtype=np.int8)
            mid = (2 * rng.integers(0, 2, 8) - 1).astype(np.int8)
            for t in range(1, 30):
                d = sr.at(t)
                upper = step(G, 0.4, spec, upper, d)
                lower = step(G, 0.4, spec, lower, d)
                mid = step(G, 0.4, spec, mid, d)
                assert leq(lower, mid) and leq(mid, upper)

    def test_coalescence_absorbing(self):
        G = cycle(8)
        spec = DynamicsSpec("iv")
        res = coupling_time(G, 0.3, spec, seed=3, t_max=10**4)
        sr = SharedRandomness(3, G.n, G.m)
        upper = np.full(8, 1, dtype=np.int8)
        lower = np.full(8, -1, dtype=np.int8)
        for t in range(1, res.steps + 20):
            d = sr.at(t)
            upper = step(G, 0.3, spec, upper, d)
            lower = step(G, 0.3, spec, lower, d)
            if t >= res.steps:
                assert np.array_equal(upper, lower)


class TestMonotonicityAudit:
    @pytest.mark.parametrize("kind", ["iv", "msw"])
    def test_clean(self, kind):
        assert monotonicity_audit(cycle(8), 0.4, DynamicsSpec(kind),
                                  trials=200, steps=30, seed=0) == 0

    def test_block_clean(self):
        blocks = tuple(frozenset({v}) for v in range(8))
        spec = DynamicsSpec("block", blocks=blocks)
        assert monotonicity_audit(cycle(8), 0.4, spec,
                                  trials=50, steps=20, seed=0) == 0

    def test_broken_control(self):
        assert monotonicity_audit(cycle(8), 0.4, DynamicsSpec("iv"),
                                  trials=200, steps=30, seed=0,
                                  broken=True) >= 1

    def test_sw_rejected(self):
        with pytest.raises(ValueError):
            monotonicity_audit(EDGE, 0.5, DynamicsSpec("sw"), 1, 1, 0)

    @pytest.mark.parametrize("trials, steps", [(0, 10), (-3, 10), (10, 0), (10, -1)])
    def test_empty_audit_refused(self, trials, steps):
        # an audit that steps nothing must not report 0 violations
        with pytest.raises(ValueError, match="trials >= 1 and steps >= 1"):
            monotonicity_audit(cycle(8), 0.4, DynamicsSpec("iv"), trials, steps, 0)

    @pytest.mark.parametrize("broken, spec", [
        (broken, spec) for spec in (DynamicsSpec("iv"), DynamicsSpec(
            "block", blocks=(frozenset({0, 1, 2}), frozenset({2, 3, 4, 5}),
                             frozenset({5, 6, 0})), censor=frozenset(range(6))))
        for broken in (False, True)], ids=["False", "True", "block-False", "block-True"])
    def test_counts_equal_sequential_audit(self, broken, spec):
        # the audit's blocks reproduce one sequential_draws call per step, and
        # its one HeatBath for every step gives each step's own values
        G, trials, steps = cycle(7), 40, 25
        want = 0
        for trial in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence((0xA0D1, 3, trial)))
            rng2 = np.random.default_rng(np.random.SeedSequence((0xBAD1, 3, trial)))
            lower, upper = random_comparable_pair(G.n, rng)
            for _ in range(steps):
                d = sequential_draws(rng, G.n, G.m)
                d2 = sequential_draws(rng2, G.n, G.m) if broken else d
                upper = step(G, 0.9, spec, upper, d)
                lower = step(G, 0.9, spec, lower, d2)
                if np.any(upper < lower):
                    want += 1
                    break
        assert monotonicity_audit(G, 0.9, spec, trials, steps, 3, broken=broken) == want
        assert want > 0 if broken else want == 0


class TestComparablePairs:
    def test_always_ordered(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            lo, hi = random_comparable_pair(7, rng)
            assert leq(lo, hi)


class TestFaithfulness:
    def test_coupled_marginal_matches_kernel(self):
        # each copy's one-step law under shared draws equals the plain kernel
        G = path(3)
        beta = 0.5
        spec = DynamicsSpec("iv")
        P = transition_matrix(G, beta, spec).P
        x0 = np.array([1, 1, -1], dtype=np.int8)
        y0 = np.array([1, -1, -1], dtype=np.int8)
        counts_x = np.zeros(8)
        counts_y = np.zeros(8)
        n_trials = 40_000
        sr = SharedRandomness(7, G.n, G.m)
        for t in range(1, n_trials + 1):
            d = sr.at(t)
            counts_x[encode_spins(step(G, beta, spec, x0, d))] += 1
            counts_y[encode_spins(step(G, beta, spec, y0, d))] += 1
        assert 0.5 * np.abs(counts_x / n_trials - P[encode_spins(x0)]).sum() <= 0.02
        assert 0.5 * np.abs(counts_y / n_trials - P[encode_spins(y0)]).sum() <= 0.02
