"""Grand couplings: monotonicity, coalescence, faithfulness."""

import numpy as np
import pytest

from isingdyn.coupling import (
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

    @pytest.mark.parametrize("broken", [False, True])
    def test_counts_equal_sequential_audit(self, broken):
        # the audit's blocks reproduce one sequential_draws call per step
        G, spec, trials, steps = cycle(7), DynamicsSpec("iv"), 40, 25
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
