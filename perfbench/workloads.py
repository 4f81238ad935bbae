"""The benchmark's three workloads: their inputs, items and output checks.

A workload is built from the run's seed (graphs, coupling and chain seeds,
stream offsets) and hands out its items in rounds. Every round of a workload
has the same composition, so runs that complete different numbers of rounds
still measure the same mix. An item is a zero-argument call that runs the
library and checks its output, returning True when the output is correct.

Library functions are looked up on the isingdyn modules at call time, never
bound here, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import isingdyn
from isingdyn import coupling, dynamics, exact, graph, ising, ssm

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

# Acceptance-suite tolerances (tests/test_acceptance.py); never loosened here.
RESIDUAL_TOL = 1e-10      # stationarity, reversibility, decompositions
ORDER_TOL = 1e-12         # censoring order and dominance
GAP_TOL = 1e-9            # gap(SW) >= gap(IV) - tol, and stored gaps
TV_TOL_1E6 = 0.005        # sampling TV at 10^6 samples (criterion 11)


class Item(NamedTuple):
    name: str
    group: str            # what the item exercises, for the time shares
    call: Callable[[], bool]


def _seeds(seed: int, tag: int, r: int, k: int) -> list[int]:
    """k nonnegative library seeds for round r, derived from the run seed."""
    state = np.random.SeedSequence([tag, seed, r]).generate_state(k)
    return [int(x) for x in state]


def _offset(seed: int, tag: int, size: int) -> int:
    return int(np.random.SeedSequence([tag, seed]).generate_state(1)[0]) % size


def _interleave(weights: dict) -> tuple:
    """Labels repeated by weight, dealt round-robin: a, b, c, a, b, a, ..."""
    return tuple(label for k in range(max(weights.values()))
                 for label, w in weights.items() if k < w)


def _singletons(G):
    return tuple(frozenset({v}) for v in range(G.n))


def _spec(kind, G=None, censor=None):
    blocks = _singletons(G) if kind == "block" else None
    return dynamics.DynamicsSpec(kind, blocks=blocks, censor=censor)


class Workload:
    name: str
    min_rounds: int       # rounds every run completes; the exact-count prefix

    def warm_up(self):
        """One-time work before the first item, counted in setup_s."""
        raise NotImplementedError

    def round(self, r: int) -> list[Item]:
        raise NotImplementedError

    def cli_calls(self) -> list[tuple[str, list[str], Callable]]:
        """(command, arguments, output check) for the traced CLI phase."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class CoupleLarge(Workload):
    """coupling_time from all-plus/all-minus at n = 256..1024."""

    name = "couple-large"
    beta = 0.3
    t_max = 100_000
    # Items per round. The cheap cycle(1024) couplings make up most items,
    # so the median falls inside their cluster and the slow, widely spread
    # block couplings weigh little on throughput; p90 lands among the
    # random-regular ones.
    WEIGHTS = {"iv-cycle": 20, "msw-cycle": 20, "iv-rr": 4, "msw-rr": 4,
               "glauber": 2, "block8": 1}
    ORDER = _interleave(WEIGHTS)
    min_rounds = 2        # 2 x 51 = 102 items, so >= 10 lie beyond p90

    def __init__(self, seed: int):
        self.seed = seed
        c1024 = graph.generate("cycle", 1024)
        rr = graph.generate("random_regular", 1024, 3, _seeds(seed, 0x6A, 0, 1)[0])
        c256 = graph.generate("cycle", 256)
        blocks = tuple(frozenset(range(i, i + 8)) for i in range(0, 256, 8))
        self.configs = {
            "iv-cycle": (c1024, dynamics.DynamicsSpec("iv")),
            "msw-cycle": (c1024, dynamics.DynamicsSpec("msw")),
            "iv-rr": (rr, dynamics.DynamicsSpec("iv")),
            "msw-rr": (rr, dynamics.DynamicsSpec("msw")),
            "glauber": (c256, dynamics.DynamicsSpec("glauber")),
            "block8": (c256, dynamics.DynamicsSpec("block", blocks=blocks)),
        }

    def warm_up(self):
        G = graph.generate("cycle", 8)
        for kind in ("iv", "msw", "glauber"):
            coupling.coupling_time(G, self.beta, dynamics.DynamicsSpec(kind), 0)

    def _item(self, label: str, s: int) -> Item:
        G, spec = self.configs[label]

        def call():
            res = coupling.coupling_time(G, self.beta, spec, s, t_max=self.t_max)
            return (not res.timed_out and res.seed == s
                    and 1 <= res.steps <= self.t_max)
        return Item(f"{label}/seed={s}", label, call)

    def round(self, r):
        seeds = _seeds(self.seed, 0xC0, r, len(self.ORDER))
        return [self._item(label, s) for label, s in zip(self.ORDER, seeds)]

    def cli_calls(self):
        s = _seeds(self.seed, 0xC1, 0, 1)[0]

        def check(out):
            rows = out.strip().splitlines()
            return len(rows) == 2 and rows[1].split(",")[-1] == "0"
        return [("couple", ["--graph", "cycle(1024)", "--beta", str(self.beta),
                            "--dynamics", '{"kind": "iv"}', "--seed", str(s),
                            "--seeds", "1"], check)]


# ---------------------------------------------------------------------------


def small_graph_zoo():
    """Every labelled simple graph on 1..3 vertices (criterion 04's zoo)."""
    out = [isingdyn.Graph(n=1, edges=())]
    out += [isingdyn.Graph(n=2, edges=es) for es in ((), ((0, 1),))]
    trio = [(0, 1), (0, 2), (1, 2)]
    for k in range(4):
        for es in itertools.combinations(trio, k):
            out.append(isingdyn.Graph(n=3, edges=tuple(es)))
    return out


def _subsets(n):
    return [frozenset(v for v in range(n) if (bits >> v) & 1) for bits in range(1 << n)]


class DeskSmall(Workload):
    """The Tier-1 suite's desk-scale load, half simulation and half exact.

    Group names start with "sim:" or "exact:" so the two halves' shares of
    the timed phase can be read from the run's details.
    """

    name = "desk-small"
    audit_beta = 0.4
    audit_steps = 100
    audit_trials = 5
    sample_beta = 0.5
    burnin = 100
    chunk = 2000
    # TV of an n-sample chunk: criterion 11's 0.005 at 10^6 samples, scaled
    # by the 1/sqrt(n) fluctuation of an empirical distribution
    tv_bound = TV_TOL_1E6 * math.sqrt(1_000_000 / chunk)
    censor_betas = (0.2, 0.5, 1.0)
    min_rounds = 4        # 4 x 25 = 100 items

    def __init__(self, seed: int):
        self.seed = seed
        c8 = graph.generate("cycle", 8)
        rr8 = graph.generate("random_regular", 8, 3, _seeds(seed, 0x6B, 0, 1)[0])
        self.audits = [(f"{kind}-{gname}", G, _spec(kind, G))
                       for gname, G in (("cycle8", c8), ("rr8", rr8))
                       for kind in ("iv", "msw", "block")]
        self.c8 = c8
        self.edge = graph.generate("path", 2)
        self.edge_mu = ising.gibbs_exact(self.edge, self.sample_beta).probs
        fams = ("iv", "msw", "block")

        def censor(graphs):
            return [(G, A, fam, b) for G in graphs for A in _subsets(G.n)
                    for b in self.censor_betas for fam in fams]
        zoo = small_graph_zoo()
        p3, c4 = graph.generate("path", 3), graph.generate("cycle", 4)
        self.p3 = p3
        # stream -> (inputs, taken per round). Each stream starts at a seeded
        # offset; lists are ordered so that any window has the same mix of
        # costs (graph sizes, t, decomposition graphs).
        self.streams = {
            "censor-n3": (censor([G for G in zoo if G.n == 3]), 5),
            "censor-n12": (censor([G for G in zoo if G.n < 3]), 1),
            "censor-path4": (censor([graph.generate("path", 4)]), 1),
            "dominance": ([(A, kind, t) for A in (frozenset({0}), frozenset({0, 1}))
                           for kind in fams for t in range(1, 11)], 6),
            "decomposition": ([(G, (frozenset(), frozenset({0}), frozenset(range(G.n)))[k], b)
                               for b in (0.3, 0.8) for k in range(3) for G in (p3, c4)], 1),
        }
        self.offsets = {name: _offset(seed, 0xD1 + i, len(lst))
                        for i, (name, (lst, _)) in enumerate(self.streams.items())}

    def warm_up(self):
        coupling.monotonicity_audit(self.c8, self.audit_beta, _spec("iv"), 1, 2, 0)
        exact.check_censoring_order(self.edge, 0.5, "iv", frozenset({0}))

    # -- simulation items --

    def _audit(self, label, G, spec, s, broken=False) -> Item:
        def call():
            v = coupling.monotonicity_audit(G, self.audit_beta, spec, self.audit_trials,
                                            self.audit_steps, s, broken=broken)
            return v >= 1 if broken else v == 0
        return Item(f"audit/{label}/seed={s}", "sim:audit", call)

    def _sample(self, kind, s) -> Item:
        def call():
            _, got = dynamics.run_chain(self.edge, self.sample_beta, _spec(kind),
                                        self.burnin + self.chunk, s,
                                        collect_every=1, collect_after=self.burnin)
            if len(got) != self.chunk:
                return False
            codes = (np.asarray(got) > 0).astype(np.int64) @ (1 << np.arange(2))
            freq = np.bincount(codes, minlength=4) / self.chunk
            return 0.5 * float(np.abs(freq - self.edge_mu).sum()) <= self.tv_bound
        return Item(f"sample/{kind}/seed={s}", "sim:sample", call)

    # -- exact items --

    def _take(self, name, r):
        lst, k = self.streams[name]
        start = self.offsets[name] + r * k
        return [lst[(start + j) % len(lst)] for j in range(k)]

    def _censor(self, group, G, A, fam, b) -> Item:
        def call():
            blocks = _singletons(G) if fam == "block" else None
            return exact.check_censoring_order(G, b, fam, A, tol=ORDER_TOL,
                                               blocks=blocks) is True
        return Item(f"censor/{fam}/n={G.n}/m={G.m}/A={sorted(A)}/beta={b}", group, call)

    def _control(self) -> Item:
        def call():
            # identity does not precede the mixing kernel: must be rejected
            mu = np.full(4, 0.25)
            return not exact.censoring_order_holds(np.eye(4), np.tile(mu, (4, 1)),
                                                   mu, 2, ORDER_TOL)
        return Item("censor/negative-control", "exact:censor-small", call)

    def _dominance(self, A, kind, t) -> Item:
        def call():
            nu0 = np.zeros(8)
            nu0[7] = 1.0  # all-plus start
            dom, tv_ok = exact.censored_dominance(self.p3, 0.5, _spec(kind, self.p3),
                                                  A, nu0, t, tol=ORDER_TOL)
            return bool(dom) and bool(tv_ok)
        return Item(f"dominance/{kind}/A={sorted(A)}/t={t}", "exact:dominance", call)

    def _decomp(self, G, A, b) -> Item:
        def call():
            iv_res, msw_res = exact.verify_decompositions(G, b, A)
            return iv_res <= RESIDUAL_TOL and msw_res <= RESIDUAL_TOL
        return Item(f"decomposition/n={G.n}/A={sorted(A)}/beta={b}", "exact:decomposition", call)

    def round(self, r):
        seeds = _seeds(self.seed, 0xD0, r, 10)
        items = [self._audit(label, G, spec, s)
                 for (label, G, spec), s in zip(self.audits, seeds)]
        items.append(self._audit("broken-iv-cycle8", self.c8, _spec("iv"), seeds[6],
                                 broken=True))
        items += [self._sample(kind, s) for kind, s in zip(("sw", "msw", "iv"), seeds[7:])]
        items += [self._censor("exact:censor-small", *x)
                  for x in self._take("censor-n3", r) + self._take("censor-n12", r)]
        items.append(self._control())
        items += [self._censor("exact:censor-path4", *x) for x in self._take("censor-path4", r)]
        items += [self._dominance(*x) for x in self._take("dominance", r)]
        items += [self._decomp(*x) for x in self._take("decomposition", r)]
        return items

    def cli_calls(self):
        s = _seeds(self.seed, 0xD5, 0, 1)[0]
        steps = 2000

        def check_sample(out):
            rows = out.split()
            return len(rows) == steps and all(len(x) == 2 and set(x) <= {"+", "-"}
                                              for x in rows)

        def check_verify(out):
            return json.loads(out)["failed"] == 0
        return [("sample", ["--graph", "path(2)", "--beta", str(self.sample_beta),
                            "--dynamics", '{"kind": "iv"}', "--seed", str(s),
                            "--steps", str(steps), "--burnin", str(self.burnin)],
                 check_sample),
                ("verify", ["--graph", "path(3)", "--beta", "0.4",
                            "--dynamics", '{"kind": "iv"}'], check_verify)]


# ---------------------------------------------------------------------------


class ExactLarge(Workload):
    """The exact engine at the largest state spaces its guards allow."""

    name = "exact-large"
    beta = 0.3
    eps = 0.25
    min_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.ref = REFERENCE["exact-large"]
        self.cycles = {n: graph.generate("cycle", n) for n in range(4, 11)}
        self.rr8 = graph.generate("random_regular", 8, 3, _seeds(seed, 0x6C, 0, 1)[0])
        self.tree = graph.generate("complete_tree", 3, 4)
        self.grid = graph.generate("grid", 5, 5)
        self.rr8_gap_iv = None

    def warm_up(self):
        tm = exact.transition_matrix(self.cycles[4], self.beta, _spec("iv"))
        exact.spectral_report(tm.P, tm.mu)

    def _gap_item(self, n) -> Item:
        def call():
            G = self.cycles[n]
            gaps = {}
            for kind in ("sw", "iv"):
                tm = exact.transition_matrix(G, self.beta, _spec(kind))
                gaps[kind] = exact.spectral_report(tm.P, tm.mu).gap
            return (gaps["sw"] >= gaps["iv"] - GAP_TOL
                    and abs(gaps["sw"] - self.ref["gap_sw"][str(n)]) <= GAP_TOL
                    and abs(gaps["iv"] - self.ref["gap_iv"][str(n)]) <= GAP_TOL)
        return Item(f"gap/cycle({n})", "gap", call)

    def _battery(self, G, spec):
        """The verify battery; returns (ok, gap)."""
        tm = exact.transition_matrix(G, self.beta, spec)
        ok = (exact.check_stationarity(tm.P, tm.mu) <= RESIDUAL_TOL
              and exact.check_reversibility(tm.P, tm.mu) <= RESIDUAL_TOL)
        rep = exact.spectral_report(tm.P, tm.mu)
        t_mix = exact.tv_mixing_time(tm.P, tm.mu, self.eps, cap=10_000)
        ok = ok and t_mix is not None and rep.relaxation_finite
        if ok:  # relaxation/mixing inequality, as the verify command states it
            ok = (rep.relaxation - 1.0) * math.log(1.0 / (2.0 * self.eps)) <= t_mix + GAP_TOL
        return ok, rep.gap

    def _verify_item(self, label, G, kind, ref_key=None) -> Item:
        def call():
            ok, gap = self._battery(G, _spec(kind, G))
            if ref_key is not None:
                ok = ok and abs(gap - self.ref[ref_key]) <= GAP_TOL
            if label == "iv/rr8":
                self.rr8_gap_iv = gap
            elif label == "sw/rr8":
                ok = ok and self.rr8_gap_iv is not None and gap >= self.rr8_gap_iv - GAP_TOL
            return ok
        return Item(f"verify/{label}", "verify", call)

    def _assm_item(self, label, G, beta, ref_key) -> Item:
        def call():
            radius, _ = ssm.find_assm_radius(G, beta, 6)
            return radius == self.ref[ref_key]
        return Item(f"assm/{label}/beta={beta}", "assm", call)

    def round(self, r):
        self.rr8_gap_iv = None
        c9, c10 = self.cycles[9], self.cycles[10]
        items = [self._gap_item(n) for n in range(4, 10)]
        items += [self._verify_item("msw/cycle(9)", c9, "msw", "gap_msw_cycle9"),
                  self._verify_item("iv/rr8", self.rr8, "iv"),
                  self._verify_item("sw/rr8", self.rr8, "sw"),
                  self._verify_item("glauber/cycle(10)", c10, "glauber",
                                    "gap_glauber_cycle10"),
                  self._verify_item("block1/cycle(10)", c10, "block",
                                    "gap_glauber_cycle10")]
        items += [self._assm_item("complete_tree(3,4)", self.tree, 0.4, "assm_radius_tree"),
                  self._assm_item("grid(5,5)", self.grid, 0.2, "assm_radius_grid")]
        return items

    def cli_calls(self):
        def check_gap(out):
            rows = out.strip().splitlines()
            return len(rows) == 2 and rows[1].startswith("8,")

        def check_verify(out):
            return json.loads(out)["failed"] == 0

        def check_assm(out):
            return json.loads(out)["radius"] == self.ref["assm_radius_tree"]
        return [("gap", ["--beta", str(self.beta), "--sizes", "8"], check_gap),
                ("verify", ["--graph", "cycle(9)", "--beta", str(self.beta),
                            "--dynamics", '{"kind": "msw"}'], check_verify),
                ("assm", ["--graph", "complete_tree(3,4)", "--beta", "0.4"], check_assm)]


WORKLOADS = {w.name: w for w in (CoupleLarge, DeskSmall, ExactLarge)}
