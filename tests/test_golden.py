"""Golden fixtures pinning the seed -> stream contract.

The fixtures under tests/golden/ hold, for fixed seeds:

* the sha256 of every 200-step run_chain trajectory per kernel kind on
  cycle(8) and random_regular(8,3,1);
* the coalescence step of coupling_time for the uncensored monotone kinds,
  and [steps, timed_out] of each censored one run CENSORED_T_MAX steps (a
  censored pair never coalesces off its censor set, so this pins the
  timeout report; block-3-censored has a block that misses A);
* the exact transition matrices on path(3), compared at 1e-12;
* sphere-influence totals on a tree and on a grid, compared at 1e-12.

A refactor that claims to change no stream must leave them passing as they
are. A deliberate stream change regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and is logged in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from isingdyn.coupling import coupling_time
from isingdyn.dynamics import DynamicsSpec, run_chain
from isingdyn.exact import transition_matrix
from isingdyn.graph import complete_tree, cycle, grid, path, random_regular
from isingdyn.ssm import assm_check

GOLDEN = Path(__file__).resolve().parent / "golden"
BETA = 0.4
STEPS = 200
SEEDS = (0, 1, 2)
TOL = 1e-12
CENSORED_T_MAX = 100

GRAPHS = {
    "cycle(8)": lambda: cycle(8),
    "random_regular(8,3,1)": lambda: random_regular(8, 3, 1),
}

HALF = frozenset(range(4))
CHAIN_SPECS = {
    "sw": DynamicsSpec("sw"),
    "iv": DynamicsSpec("iv"),
    "msw": DynamicsSpec("msw"),
    "glauber": DynamicsSpec("glauber"),
    "block-singletons": DynamicsSpec(
        "block", blocks=tuple(frozenset({v}) for v in range(8))),
    "block-3": DynamicsSpec(
        "block", blocks=(frozenset({0, 1, 2}), frozenset({3, 4, 5}),
                         frozenset({5, 6, 7}))),
    "block-all": DynamicsSpec("block", blocks=(frozenset(range(8)),)),
    "iv-censored": DynamicsSpec("iv", censor=HALF),
    "msw-censored": DynamicsSpec("msw", censor=HALF),
    "block-3-censored": DynamicsSpec(
        "block", blocks=(frozenset({0, 1, 2}), frozenset({3, 4, 5}),
                         frozenset({5, 6, 7})), censor=HALF),
}

P3_BLOCKS = (frozenset({0, 1}), frozenset({1, 2}))
KERNEL_SPECS = {
    "sw": DynamicsSpec("sw"),
    "iv": DynamicsSpec("iv"),
    "msw": DynamicsSpec("msw"),
    "glauber": DynamicsSpec("glauber"),
    "block-singletons": DynamicsSpec(
        "block", blocks=tuple(frozenset({v}) for v in range(3))),
    "block-pairs": DynamicsSpec("block", blocks=P3_BLOCKS),
    "iv-censored": DynamicsSpec("iv", censor=frozenset({0})),
    "msw-censored": DynamicsSpec("msw", censor=frozenset({0, 1})),
    "block-pairs-censored": DynamicsSpec("block", blocks=P3_BLOCKS,
                                         censor=frozenset({1})),
}

INFLUENCE_CASES = {
    "complete_tree(3,3) v=0 R=1": (lambda: complete_tree(3, 3), 0, 1),
    "complete_tree(3,3) v=1 R=1": (lambda: complete_tree(3, 3), 1, 1),
    "grid(4,4) v=5 R=1": (lambda: grid(4, 4), 5, 1),
    "grid(4,4) v=0 R=2": (lambda: grid(4, 4), 0, 2),
    "grid(4,4) v=5 R=2": (lambda: grid(4, 4), 5, 2),
    "cycle(8) v=0 R=2": (lambda: cycle(8), 0, 2),
}


def trajectory_hash(G, spec, seed) -> str:
    _, states = run_chain(G, BETA, spec, STEPS, seed, collect_every=1)
    return hashlib.sha256(np.stack(states).tobytes()).hexdigest()


def compute_trajectories() -> dict:
    return {f"{g} {k} seed={s}": trajectory_hash(make(), spec, s)
            for g, make in GRAPHS.items()
            for k, spec in CHAIN_SPECS.items()
            for s in SEEDS}


def compute_couplings() -> dict:
    out = {}
    for g, make in GRAPHS.items():
        for k, spec in CHAIN_SPECS.items():
            if not spec.is_monotone():
                continue
            for s in SEEDS:
                if spec.censor is None:
                    out[f"{g} {k} seed={s}"] = coupling_time(make(), BETA, spec, s).steps
                else:
                    res = coupling_time(make(), BETA, spec, s, t_max=CENSORED_T_MAX)
                    out[f"{g} {k} seed={s} t_max={CENSORED_T_MAX}"] = [res.steps,
                                                                        res.timed_out]
    return out


def compute_kernels() -> dict:
    return {k: transition_matrix(path(3), BETA, spec).P.tolist()
            for k, spec in KERNEL_SPECS.items()}


def compute_influences() -> dict:
    out = {}
    for name, (make, v, R) in INFLUENCE_CASES.items():
        _, table = assm_check(make(), BETA, v, R)
        out[name] = {str(u): a for u, a in sorted(table.entries.items())}
    return out


def load(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text())


def test_trajectory_hashes():
    assert compute_trajectories() == load("trajectories")


def test_coupling_times():
    assert compute_couplings() == load("couplings")


@pytest.mark.parametrize("kind", sorted(KERNEL_SPECS))
def test_path3_kernels(kind):
    got = transition_matrix(path(3), BETA, KERNEL_SPECS[kind]).P
    np.testing.assert_allclose(got, np.array(load("kernels")[kind]),
                               rtol=0, atol=TOL)


def test_sphere_influences():
    want = load("influences")
    got = compute_influences()
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].keys() == want[name].keys(), name
        for u, a in want[name].items():
            assert got[name][u] == pytest.approx(a, rel=0, abs=TOL), (name, u)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, compute in (("trajectories", compute_trajectories),
                          ("couplings", compute_couplings),
                          ("kernels", compute_kernels),
                          ("influences", compute_influences)):
        (GOLDEN / f"{name}.json").write_text(
            json.dumps(compute(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN / name}.json")
