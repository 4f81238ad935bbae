"""End-to-end acceptance battery.

Each test prints one PASS/FAIL line for its criterion; tolerances are fixed
here and never loosened at runtime.
"""

import itertools
import math
import statistics

import numpy as np
import pytest

from isingdyn.coupling import coupling_time, monotonicity_audit
from isingdyn.dynamics import DynamicsSpec, step
from isingdyn.exact import (
    JointSpace,
    MarkedSpace,
    censored_dominance,
    censoring_order_holds,
    check_censoring_order,
    check_reversibility,
    check_stationarity,
    spectral_report,
    transition_matrix,
    verify_decompositions,
)
from isingdyn.graph import Graph, complete_tree, cycle, path, random_regular
from isingdyn.ising import beta_c, encode_spins, gibbs_exact
from isingdyn.randomness import draw_block
from isingdyn.ssm import find_assm_radius

EDGE = Graph(n=2, edges=((0, 1),))
STAR3 = complete_tree(3, 1)

SMALL_GRAPHS = [EDGE, path(3), cycle(3), STAR3, cycle(4)]


def report(num, title, ok, detail):
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {title}: {detail}"
    print(line)
    assert ok, line


def singleton_blocks(G):
    return tuple(frozenset({v}) for v in range(G.n))


def all_kernels(G):
    """The nine kernels of the stationarity battery for one graph."""
    A1, A2 = frozenset({0}), frozenset({0, 1} & set(range(G.n)))
    yield "glauber", DynamicsSpec("glauber")
    yield "block-singletons", DynamicsSpec("block", blocks=singleton_blocks(G))
    yield "block-full", DynamicsSpec("block", blocks=(frozenset(range(G.n)),))
    yield "sw", DynamicsSpec("sw")
    yield "iv", DynamicsSpec("iv")
    yield "msw", DynamicsSpec("msw")
    for A in (A1, A2):
        yield f"iv-A={sorted(A)}", DynamicsSpec("iv", censor=A)
        yield f"msw-A={sorted(A)}", DynamicsSpec("msw", censor=A)
        yield f"block-A={sorted(A)}", DynamicsSpec(
            "block", blocks=singleton_blocks(G), censor=A)


def test_criterion_01_stationarity_reversibility():
    tol = 1e-10
    worst = 0.0
    worst_case = ""
    for G in SMALL_GRAPHS:
        for beta in (0.2, 0.5, 1.0):
            for name, spec in all_kernels(G):
                tm = transition_matrix(G, beta, spec)
                r = max(check_reversibility(tm.P, tm.mu),
                        check_stationarity(tm.P, tm.mu))
                if r > worst:
                    worst, worst_case = r, f"{name} n={G.n} beta={beta}"
    report(1, "stationarity & reversibility", worst <= tol,
           f"max residual {worst:.2e} ({worst_case}), tol {tol:g}")


def test_criterion_02_decompositions():
    tol = 1e-10
    worst = 0.0
    for G in (EDGE, path(3)):
        for beta in (0.3, 0.8):
            for A in (frozenset(), frozenset({0}), frozenset(range(G.n))):
                iv_res, msw_res = verify_decompositions(G, beta, A)
                worst = max(worst, iv_res, msw_res)
    report(2, "IV/MSW operator decompositions", worst <= tol,
           f"max entrywise residual {worst:.2e}, tol {tol:g}")


def test_criterion_03_operator_algebra():
    tol = 1e-12
    rng = np.random.default_rng(0)
    worst = 0.0
    for G in (EDGE, path(3)):
        for beta in (0.3, 0.8):
            js = JointSpace(G, beta)
            mu = gibbs_exact(G, beta).probs
            T, Ts = js.build_T(), js.build_Tstar()
            Q = js.build_Q(None)
            worst = max(worst, np.max(np.abs(Q @ Q - Q)))
            flow = js.nu[:, None] * Q
            worst = max(worst, np.max(np.abs(flow - flow.T)))
            ms = MarkedSpace(js)
            nu_m = ms.nu_m()
            S, Ss = ms.build_S(), ms.build_Sstar()
            K = ms.build_K(None)
            for A in (frozenset(), frozenset({0}), frozenset(range(G.n))):
                QA = js.build_Q(A)
                worst = max(worst, np.max(np.abs(QA @ QA - QA)))
                flowA = js.nu[:, None] * QA
                worst = max(worst, np.max(np.abs(flowA - flowA.T)))
                worst = max(worst, np.max(np.abs(QA @ Q @ QA - Q)))
                KA = ms.build_K(A)
                worst = max(worst, np.max(np.abs(KA @ KA - KA)))
                flowK = nu_m[:, None] * KA
                worst = max(worst, np.max(np.abs(flowK - flowK.T)))
                worst = max(worst, np.max(np.abs(KA @ K @ K @ KA - K)))
            f = rng.random(1 << G.n)
            g = rng.random(js.size)
            worst = max(worst, abs(float(np.sum(mu * f * (T @ g)))
                                   - float(np.sum(js.nu * (Ts @ f) * g))))
            f2 = rng.random(js.size)
            g2 = rng.random(ms.size)
            worst = max(worst, abs(float(np.sum(js.nu * f2 * (S @ g2)))
                                   - float(np.sum(nu_m * (Ss @ f2) * g2))))
    report(3, "Q/K algebra and T,S adjointness", worst <= tol,
           f"max residual {worst:.2e}, tol {tol:g}")


def small_graph_zoo():
    """All labeled simple graphs on 1..3 vertices."""
    out = [Graph(n=1, edges=())]
    out += [Graph(n=2, edges=es) for es in ((), ((0, 1),))]
    trio = [(0, 1), (0, 2), (1, 2)]
    for k in range(4):
        for es in itertools.combinations(trio, k):
            out.append(Graph(n=3, edges=tuple(es)))
    return out


def test_criterion_04_censoring_order():
    tol = 1e-12
    checked = 0
    failures = []
    for G in small_graph_zoo():
        for beta in (0.2, 0.5, 1.0):
            for bits in itertools.product([0, 1], repeat=G.n):
                A = frozenset(v for v in range(G.n) if bits[v])
                for family in ("iv", "msw", "block"):
                    blocks = singleton_blocks(G) if family == "block" else None
                    if not check_censoring_order(G, beta, family, A,
                                                 tol=tol, blocks=blocks):
                        failures.append(f"{family} n={G.n} A={sorted(A)} "
                                        f"beta={beta}")
                    checked += 1
    # negative control: identity does not precede the mixing kernel
    mu = np.full(4, 0.25)
    control_fails = not censoring_order_holds(np.eye(4), np.tile(mu, (4, 1)),
                                              mu, 2, tol)
    ok = not failures and control_fails
    report(4, "censoring order P <= P_A", ok,
           f"{checked} kernel pairs ordered, negative control rejected"
           + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_05_censored_dominance():
    G = path(3)
    nu0 = np.zeros(8)
    nu0[7] = 1.0
    all_ok = True
    for A in (frozenset({0}), frozenset({0, 1})):
        for kind in ("iv", "msw", "block"):
            blocks = singleton_blocks(G) if kind == "block" else None
            spec = DynamicsSpec(kind, blocks=blocks)
            for t in range(1, 11):
                dom, tv_ok = censored_dominance(G, 0.5, spec, A, nu0, t,
                                                tol=1e-12)
                all_ok &= dom and tv_ok
    report(5, "censored chain dominates from all-plus", all_ok,
           "path(3), t=1..10, A in {{0},{0,1}}, iv/msw/block")


def test_criterion_06_monotonicity_audits():
    trials, steps = 10_000, 100
    graphs = [cycle(8), random_regular(8, 3, seed=1)]
    total_violations = 0
    for G in graphs:
        for kind in ("iv", "msw", "block"):
            blocks = singleton_blocks(G) if kind == "block" else None
            spec = DynamicsSpec(kind, blocks=blocks)
            total_violations += monotonicity_audit(G, 0.4, spec, trials,
                                                   steps, seed=0)
    broken = monotonicity_audit(cycle(8), 0.4, DynamicsSpec("iv"),
                                trials, steps, seed=0, broken=True)
    ok = total_violations == 0 and broken >= 1
    report(6, "grand-coupling monotonicity", ok,
           f"{total_violations} violations over 6x{trials}x{steps}; "
           f"broken control: {broken}")


def test_criterion_07_sw_iv_comparison():
    tol = 1e-9
    worst_margin = math.inf
    for beta in (0.3, 0.6):
        for G in [cycle(n) for n in range(4, 9)] + [path(n) for n in range(3, 9)]:
            sw = transition_matrix(G, beta, DynamicsSpec("sw"))
            iv = transition_matrix(G, beta, DynamicsSpec("iv"))
            gap_sw = spectral_report(sw.P, sw.mu).gap
            gap_iv = spectral_report(iv.P, iv.mu).gap
            worst_margin = min(worst_margin, gap_sw - gap_iv)
    report(7, "gap(SW) >= gap(IV)", worst_margin >= -tol,
           f"min margin {worst_margin:.3e} over cycles 4..8, paths 3..8")


def test_criterion_08_iv_gap_flat():
    gaps = []
    for n in range(4, 11):
        iv = transition_matrix(cycle(n), 0.3, DynamicsSpec("iv"))
        gaps.append(spectral_report(iv.P, iv.mu).gap)
    ratio = max(gaps) / min(gaps)
    report(8, "gap(IV) bounded across cycle sweep", ratio <= 2.0,
           f"max/min = {ratio:.6f} on cycles 4..10 at beta=0.3")


def test_criterion_09_log_mixing_proxy():
    medians = {}
    for n in (16, 64, 256, 1024):
        times = [coupling_time(cycle(n), 0.3, DynamicsSpec("iv"), seed).steps
                 for seed in range(200)]
        medians[n] = statistics.median(times)
    ratio = medians[1024] / medians[16]
    report(9, "IV coalescence grows at most logarithmically", ratio <= 5.0,
           f"medians {medians}, t(1024)/t(16) = {ratio:.3f} <= 5")


def test_criterion_10_assm_radius():
    r, _ = find_assm_radius(complete_tree(3, 4), 0.4, 6)
    r0, _ = find_assm_radius(complete_tree(3, 4), 0.0, 6)
    ok = r is not None and r <= 6 and r0 == 0
    report(10, "ASSM radius exists below criticality", ok,
           f"R = {r} at beta=0.4 on complete_tree(3,4); R = {r0} at beta=0")


def test_criterion_11_sampling_tv():
    beta, burnin, n_samples = 0.5, 100, 1_000_000
    mu = gibbs_exact(EDGE, beta).probs
    worst = 0.0
    for i, kind in enumerate(("sw", "msw", "iv")):
        spec = DynamicsSpec(kind)
        rng = np.random.default_rng(np.random.SeedSequence((0xACC, 11, i)))
        spins = np.ones(2, dtype=np.int8)
        counts = np.zeros(4)
        # step t reads the t-th sequential_draws(rng, 2, 1), in blocks
        for t, draws in enumerate(draw_block(rng, 2, 1, burnin + n_samples)):
            spins = step(EDGE, beta, spec, spins, draws)
            if t >= burnin:
                counts[encode_spins(spins)] += 1
        tv = 0.5 * np.abs(counts / n_samples - mu).sum()
        worst = max(worst, tv)
    report(11, "million-sample TV against the exact table", worst <= 0.005,
           f"max TV {worst:.5f} over sw/msw/iv, tol 0.005")


def test_criterion_12_beta_c():
    val = beta_c(3)
    ok = abs(val - math.atanh(0.5)) <= 1e-9
    try:
        beta_c(2)
        errored = False
    except ValueError:
        errored = True
    report(12, "uniqueness threshold formula", ok and errored,
           f"beta_c(3) = {val:.10f}; beta_c(2) raises")
